"""Shared generators for randomized test instances, and reference computations."""

import math
import statistics
from fractions import Fraction

import numpy as np

from partsketch import (SketchConfig, coarsen, dense, derive_seed, frobenius_norm,
                        multiply, sample_indices, sketch, spectral_norm)
from partsketch.experiments import (FIG1_HEADER, FIG2_HEADER, _methods,
                                    experiment_matrix)
from partsketch.sketching import _is_transpose

UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2


def random_instance(rng, max_rows=5, n=None, max_n=8, max_cols=5, centered=True):
    """Random (a, b) with conforming inner dimension."""
    m = int(rng.integers(1, max_rows + 1))
    if n is None:
        n = int(rng.integers(2, max_n + 1))
    p = int(rng.integers(1, max_cols + 1))
    shift = 0.5 if centered else 0.0
    a = dense(rng.random((m, n)) - shift)
    b = dense(rng.random((n, p)) - shift)
    return a, b


def random_coarsening(rng, n, max_groups=None):
    """Random partition of {0..n-1} with at least one group of size >= 2 when n >= 2."""
    perm = list(rng.permutation(n))
    k = int(rng.integers(1, (max_groups or max(n - 1, 1)) + 1))
    k = min(k, n - 1) if n >= 2 else 1
    cuts = sorted(rng.choice(np.arange(1, n), size=k - 1, replace=False)) if k > 1 else []
    groups = []
    start = 0
    for cut in list(cuts) + [n]:
        groups.append([int(i) for i in perm[start:cut]])
        start = cut
    return coarsen(groups, n)


def all_pairings(indices):
    """Every perfect matching of an even-length index list (plus trailing singleton if odd)."""
    items = list(indices)
    if len(items) <= 1:
        yield [tuple(items)] if items else []
        return
    first, rest = items[0], items[1:]
    for i in range(len(rest)):
        pair = (first, rest[i])
        for sub in all_pairings(rest[:i] + rest[i + 1:]):
            yield [pair] + sub


def loop_sketch(a, b, partition, dist, cfg):
    """Reference sketch: one scaled block product per drawn group, summed in group order."""
    draws = sample_indices(dist, cfg.c, cfg.seed)
    counts = np.bincount(draws, minlength=partition.k)
    estimate = np.zeros((a.shape[0], b.shape[1]))
    for g in np.flatnonzero(counts):
        idx = list(partition.groups[g])
        estimate += counts[g] / (cfg.c * dist.weights[g]) * (a[:, idx] @ b[idx, :])
    return estimate


def scale_vector(partition, dist, draws):
    """Per-index scale s_j = count[g(j)] / (c p[g(j)]) of a draw log (0 for undrawn groups)."""
    counts = np.bincount(draws, minlength=partition.k)
    s = np.zeros(partition.n)
    for g in np.flatnonzero(counts):
        s[list(partition.groups[g])] = counts[g] / (len(draws) * dist.weights[g])
    return s


def gamma(k):
    """Higham's gamma_k = k u / (1 - k u): the relative bound of k roundings."""
    return k * UNIT_ROUNDOFF / (1 - k * UNIT_ROUNDOFF)


def gemm_error_bound(a, s, b):
    """Elementwise bound on the gap between two float evaluations of a @ diag(s) @ b.

    Each evaluation sums K = |{j : s_j != 0}| products a_ij s_j b_jk, and every
    product carries two roundings (the scaling and the multiplication), so each
    lies within gamma_{K+1} |A| |s| |B| of the exact value (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., section 3.5), and two of them
    within twice that of each other.
    """
    k = int(np.count_nonzero(s))
    return 2 * gamma(k + 1) * ((np.abs(a) * np.abs(s)) @ np.abs(b))


def column_gather_product(a, b, idx, scale):
    """Reference kernel: ``a[:, idx] · diag(scale) · b[idx, :]`` over columns gathered from
    the row-major A, ``x @ x.T`` (``syrk``) with ``x`` scaled by ``sqrt(scale)`` when ``b``
    is ``a.T``, else one GEMM with ``x`` scaled by ``scale``."""
    x = a[:, idx]
    gram = _is_transpose(a, b)
    x *= np.sqrt(scale) if gram else scale
    return x @ (x.T if gram else b[idx, :])


def kernel_error_bound(a, b, idx, scale):
    """Elementwise bound on the gap between two BLAS evaluations of the scaled product
    ``column_gather_product`` forms, whatever the order of their sums.

    Both evaluations scale the same entries the same way, so they multiply
    the same scaled factors ``x`` (m×K) and ``y`` (K×p), K = ``len(idx)``.
    Each entry is a sum of K products, within gamma_K (|x||y|) of its exact
    value (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    section 3.5), so two evaluations are within 2 gamma_K (|x||y|), about
    K·eps·(|x||y|), of each other.
    """
    x = np.abs(a[:, idx])
    if _is_transpose(a, b):
        x *= np.sqrt(scale)
        y = x.T
    else:
        x *= scale
        y = np.abs(b[idx, :])
    return 2 * gamma(len(idx)) * (x @ y)


def gram_error_bound(a, s):
    """Elementwise bound on the gap between the Gram kernel's a @ diag(s) @ a.T and a GEMM-path or loop evaluation.

    The Gram kernel forms each product as fl(x_ij x_kj) with x_ij = fl(a_ij r_j)
    and r_j = fl(sqrt(s_j)): the one rounding of r_j enters twice, so the product
    is a_ij s_j a_kj (1+d0)^2 (1+d1)(1+d2)(1+d3), five factors where the GEMM
    path has two.  With the K - 1 additions of its one product the Gram
    evaluation lies within gamma_{K+4} |A| |s| |A^T| of the exact value, so
    within (gamma_{K+1} + gamma_{K+4}) |A| |s| |A^T| of an evaluation held to
    gemm_error_bound's gamma_{K+1}.
    """
    k = int(np.count_nonzero(s))
    return (gamma(k + 1) + gamma(k + 4)) * ((np.abs(a) * np.abs(s)) @ np.abs(a).T)


def quadratic_form_error_bound(a, b, s, diff):
    """Bound on the gap between ``frobenius_errors``' ``uᵀĤu`` and the direct ``sum(diff ** 2)``.

    ``s`` is the float scale vector both paths use and ``diff`` the direct
    path's ``fl(AB) - estimate``.  With ``u = 1 - s`` exactly, the true error
    is ``|E|_F²`` for ``E = A·diag(u)·B``.  Let ``W = |A|·diag(|u|)·|B|``, so
    ``|u|ᵀH'|u| = |W|_F²`` for ``H' = (|A|ᵀ|A|) ∘ (|B||B|ᵀ)``; A is m×n, B n×p,
    and K indices are drawn.  In Higham's terms (Accuracy and Stability of
    Numerical Algorithms, 2nd ed., sections 3.1, 3.5, lemma 3.3):

    * ``Ĥ``: the entries of ``AᵀA`` and ``BBᵀ`` are inner products of m and p
      terms, and the Hadamard product rounds once, so
      ``|Ĥ - H| <= gamma_{m+p+1} H'``.
    * the form: ``û = fl(1 - s)`` rounds once per entry.  A term
      ``û_k ĥ_kj û_j`` takes one rounding as a product and at most n - 1 as
      an addend of ``(ÛĤ)_j``, one more in the product with ``û_j`` and at
      most n - 1 in the row sum: 2n roundings, plus the two of ``û_k`` and
      ``û_j``.  So ``|q̂ - uᵀĤu| <= gamma_{2n+2} |u|ᵀ|Ĥ||u|``, and with the
      first point ``|q̂ - |E|_F²| <= gamma_{2n+m+p+3} |W|_F²``.  (The GEMM and
      the product with ``û_j`` alone, gamma_{n+1}, leave out the row sum.)
    * direct: ``fl(AB)`` is within ``gamma_n |A||B|`` of ``AB``, the estimate
      within ``gamma_{K+4} |A||s||B|`` (``gram_error_bound``; the GEMM path
      has gamma_{K+1}), and the subtraction rounds ``|E| <= |A||B| + |A||s||B|``
      once, so ``|D̂ - E| <= R = gamma_{n+1} |A||B| + gamma_{K+5} |A||s||B|``.
      Then ``|sum D̂² - |E|_F²| <= sum R (2|E| + R) <= sum R (2|D̂| + 3R)``,
      and squaring and summing the m p entries adds ``gamma_{mp} sum D̂²``.
    """
    m, n = a.shape
    p = b.shape[1]
    k = int(np.count_nonzero(s))
    abs_a, abs_b = np.abs(a), np.abs(b)
    w = (abs_a * np.abs(1.0 - s)) @ abs_b
    r = gamma(n + 1) * (abs_a @ abs_b) + gamma(k + 5) * ((abs_a * s) @ abs_b)
    direct = float(np.sum(diff * diff))
    return (gamma(2 * n + m + p + 3) * float(np.sum(w * w)) + gamma(m * p) * direct
            + float(np.sum(r * (2 * np.abs(diff) + 3 * r))))


def direct_errors_and_bounds(a, b, partition, dist, c, seeds):
    """Per seed, the direct squared error ``|fl(AB) - sketch(...).estimate|_F²`` and
    ``quadratic_form_error_bound`` of its gap to ``frobenius_errors``."""
    exact = multiply(a, b)
    direct, bounds = [], []
    for seed in seeds:
        diff = exact - sketch(a, b, partition, dist, SketchConfig(c, seed)).estimate
        s = scale_vector(partition, dist, sample_indices(dist, c, seed))
        direct.append(float(np.sum(diff * diff)))
        bounds.append(quadratic_form_error_bound(a, b, s, diff))
    return np.array(direct), np.array(bounds)


def stderr_error_bound(x):
    """Bound on the gap between ``np.std(x, ddof=1) / sqrt(T)`` and the reference
    ``statistics.stdev(x) / sqrt(T)`` for T >= 2 nonnegative floats ``x``.

    Let S be the exact sum of squared deviations and ``s = sqrt(S / (T(T - 1)))``
    the exact standard error.

    * numpy's two-pass variance: the computed mean is within ``e = gamma_T x̄``
      of ``x̄`` (T - 1 additions and a division of nonnegative terms), and
      ``sum (x_i - x̂)² = S + T(x̂ - x̄)²``.  Each term rounds three times and
      the sum T - 1 more, so the computed ``Ŝ`` is within
      ``dS = gamma_{T+2} (S + T e²) + T e²`` of S.
    * ``sqrt(Ŝ)`` is within ``min(dS / sqrt(S), sqrt(dS))`` of ``sqrt(S)``, and
      the division by T - 1, the root, ``sqrt(T)`` and the last division
      round four times: ``|ŝ - s| <= gamma_4 sqrt((S + dS) / (T(T - 1)))
      + min(dS / sqrt(S), sqrt(dS)) / sqrt(T(T - 1))``.
    * the reference: ``statistics.stdev`` rounds at most twice (its variance
      to float, then the root) and the division by ``sqrt(T)`` twice more,
      so it is within ``gamma_4 s`` of s.
    """
    t = len(x)
    exact = [Fraction(v) for v in x]
    mean = sum(exact) / t
    big_s = float(sum((v - mean) ** 2 for v in exact))
    e = gamma(t) * float(mean)
    ds = gamma(t + 2) * (big_s + t * e * e) + t * e * e
    root_gap = min(ds / math.sqrt(big_s), math.sqrt(ds)) if big_s > 0 else math.sqrt(ds)
    norm = math.sqrt(t * (t - 1))
    return (gamma(4) * math.sqrt(big_s + ds) + root_gap + gamma(4) * math.sqrt(big_s)) / norm


def loop_validate(n, groups):
    """Reference partition check: None if ``groups`` partition {0..n-1}, else the first violation a per-index scan meets.

    The scan visits the groups in order and each group's indices in order:
    an empty group, then per index a non-integer (booleans included), an
    index out of range or one already seen; after the scan, the lowest index
    no group covers.
    """
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        return f"ground-set size must be a positive integer, got {n!r}"
    if not 1 <= len(groups) <= n:
        return f"group count must be in [1, {n}], got {len(groups)}"
    seen = np.zeros(n, dtype=bool)
    for gi, group in enumerate(groups):
        if len(group) == 0:
            return f"group {gi} is empty"
        for idx in group:
            if isinstance(idx, bool) or not isinstance(idx, (int, np.integer)):
                return f"group {gi} holds a non-integer index {idx!r}"
            if not 0 <= idx < n:
                return f"index {idx} out of range [0, {n})"
            if seen[idx]:
                return f"index {idx} appears in more than one group"
            seen[idx] = True
    if not seen.all():
        return f"index {int(np.argmin(seen))} is not covered by any group"
    return None


def loop_fig1_csv(cfg):
    """fig1.csv as run_fig1 writes it, from one derive_seed and one sketch per trial."""
    a = experiment_matrix(cfg)
    b = a.T
    exact = multiply(a, b)
    exact_f = frobenius_norm(exact)
    lines = [FIG1_HEADER]
    for c in cfg.c_grid():
        for label, partition, dist in _methods(cfg, a, b):
            sq_errs, rel_errs = [], []
            for t in range(cfg.trials):
                seed = derive_seed(cfg.seed, "fig1", label, c, t)
                diff = exact - sketch(a, b, partition, dist, SketchConfig(c, seed)).estimate
                sq = float(np.sum(diff * diff))
                sq_errs.append(sq)
                rel_errs.append(math.sqrt(sq) / exact_f)
            stderr = statistics.stdev(sq_errs) / math.sqrt(cfg.trials) if cfg.trials > 1 else 0.0
            lines.append(f"{c},{label},{statistics.fmean(rel_errs)!r},"
                         f"{statistics.fmean(sq_errs)!r},{stderr!r},{cfg.trials}")
    return "\n".join(lines) + "\n"


def loop_fig2_csv(cfg):
    """fig2.csv as run_fig2 writes it, from one derive_seed and one sketch per run."""
    a = experiment_matrix(cfg)
    b = a.T
    exact = multiply(a, b)
    exact_2 = spectral_norm(exact)
    lines = [FIG2_HEADER]
    for label, partition, dist in _methods(cfg, a, b):
        for c in cfg.fig2_c_values(a.shape[1]):
            for run in range(cfg.runs):
                seed = derive_seed(cfg.seed, "fig2", label, c, run)
                err = spectral_norm(exact - sketch(a, b, partition, dist, SketchConfig(c, seed)).estimate)
                lines.append(f"{label},{c},{run},{err / exact_2!r}")
    return "\n".join(lines) + "\n"
