"""Shared generators for randomized test instances, and reference computations (oracles)."""

import itertools
import math
import statistics
from fractions import Fraction

import numpy as np
import pytest

from partsketch import (SamplingDistribution, SketchConfig, aggregate_distribution, coarsen, dense,
                        derive_seed, finest, frobenius_norm, multiply, optimal_plan, pair_partition,
                        sample_indices, sketch, sketching, spectral_norm)
from partsketch.experiments import (FIG1_HEADER, FIG2_HEADER, experiment_matrix,
                                    pairing_strategy)
from partsketch.distributions import _plan_on
from partsketch.matrices import _frozen, _pair
from partsketch.rng import _check_count
from partsketch.sketching import _is_transpose, _scaled_product

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


def shuffled_groups(rng, n, largest=16):
    """Partition of {0..n-1} into shuffled groups of 1 to ``largest`` indices, as the benchmark's
    partition files hold."""
    order = rng.permutation(n)
    groups = np.split(order, np.cumsum(rng.integers(1, largest + 1, n)))
    return coarsen([g.tolist() for g in groups if g.size], n)


def distribution(support, weights, *, normalize=False):
    """A distribution over ``support`` from ``weights``; with ``normalize`` they are first rescaled to sum to 1."""
    if normalize:
        total = float(np.sum(weights))
        if total <= 0:
            raise ValueError(f"cannot normalize weights summing to {total}")
        weights = np.divide(weights, total)
    return SamplingDistribution(support, weights)


def block_product(a, b, group):
    """Product restricted to one index group: columns ``group`` of ``a`` times rows ``group`` of ``b``.

    Summing this over the groups of any partition of the inner axis recovers
    ``multiply(a, b)``.  Indices are 0-based and must be in range; the group
    must be nonempty.
    """
    a, b = _pair(a, b)
    idx = np.asarray(group, dtype=np.intp)
    if idx.ndim != 1 or idx.size == 0:
        raise ValueError("group must be a nonempty 1-d index list")
    if idx.min() < 0 or idx.max() >= a.shape[1]:
        raise ValueError(f"group index out of range [0, {a.shape[1]})")
    return _frozen(a[:, idx] @ b[idx, :])


def element_weight(a, b, group):
    """Frobenius norm of the group's block product: the per-group oracle for ``Plan.weights``."""
    return frobenius_norm(block_product(a, b, group))


def element_contribution(a, b, partition, dist, draws, group_index):
    """The part of the estimate attributable to one group, from the same draw log.

    The sketch's kernel restricted to the group's indices: equal to the estimate
    bit for bit when only this group is drawn; summed over groups, equal to it
    within the GEMM rounding bound (the summation order differs).  Raises
    ``ValueError`` unless ``partition`` is ``dist.support`` and ``Plan(a, b, dist)`` builds.
    """
    _plan_on(a, b, partition, dist)
    if not 0 <= group_index < partition.k:
        raise ValueError(f"group index {group_index} out of range [0, {partition.k})")
    c = len(draws)
    count = int(np.sum(draws == group_index))
    if count == 0:
        return _frozen(np.zeros((a.shape[0], b.shape[1])))
    idx = np.flatnonzero(partition.labels == group_index)
    scale = np.full(idx.size, count / (c * dist.weights[group_index]))
    return _frozen(_scaled_product(a.T, b, idx, scale, _is_transpose(a, b), np.empty((idx.size, a.shape[0]))))


ENUMERATION_LIMIT = 1_000_000


def brute_force_expectation(a, b, partition, dist, c):
    """Exact expectation of the sketch and of its squared Frobenius error.

    Enumerates all k^c draw sequences, weighting each by its probability.
    Independent of the sampling engine: blocks are sliced and summed here
    directly.  Guarded to k^c <= ``ENUMERATION_LIMIT``; raises ``ValueError``
    unless ``partition`` is ``dist.support``, ``Plan(a, b, dist)`` builds and c is an integer >= 1.
    """
    _plan_on(a, b, partition, dist)
    _check_count(c, "sample count")
    k = partition.k
    if k ** c > ENUMERATION_LIMIT:
        raise ValueError(f"k^c = {k}^{c} exceeds the enumeration guard of {ENUMERATION_LIMIT}")
    exact = multiply(a, b)
    probs = [float(p) for p in dist.weights]
    scaled = []
    for g, p in zip(partition.groups, probs):
        idx = list(g)
        scaled.append(a[:, idx] @ b[idx, :] / p if p > 0.0 else None)
    mean = np.zeros_like(exact)
    err_sq = 0.0
    for seq in itertools.product(range(k), repeat=c):
        prob = 1.0
        for r in seq:
            prob *= probs[r]
        if prob == 0.0:
            continue
        est = np.zeros_like(exact)
        for r in seq:
            est += scaled[r]
        est /= c
        mean += prob * est
        diff = exact - est
        err_sq += prob * float(np.sum(diff * diff))
    return _frozen(mean), err_sq


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


def form_path_errors(cells):
    """``frobenius_errors(cells)`` for cells whose ``H`` fits its cap, so the call takes its
    ``uᵀHu`` path; raises ``AssertionError`` if it forms an estimate (calls ``_scaled_product``)."""
    def forbidden(*args):
        raise AssertionError("an estimate was formed on the error-form path")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sketching, "_scaled_product", forbidden)
        return sketching.frobenius_errors(cells)


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


def loop_validate(n, groups, base=0):
    """Reference partition check: None if ``groups`` partition the n indices counted from ``base``,
    else the first violation a per-index scan meets.

    The scan visits the groups in order and each group's indices in order:
    an empty group, then per index a non-integer (booleans included), an
    index out of range or one already seen; after the scan, the lowest index
    no group covers.  Messages count groups and indices from ``base``.
    """
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        return f"ground-set size must be an integer >= 1, got {n!r}"
    if not 1 <= len(groups) <= n:
        return f"group count must be in [1, {n}], got {len(groups)}"
    span = f"[0, {n})" if base == 0 else f"[{base}, {n + base - 1}]"
    seen = np.zeros(n, dtype=bool)
    for gi, group in enumerate(groups):
        if len(group) == 0:
            return f"group {gi + base} is empty"
        for idx in group:
            if isinstance(idx, bool) or not isinstance(idx, (int, np.integer)):
                return f"group {gi + base} holds a non-integer index {idx!r}"
            if not base <= idx < n + base:
                return f"index {idx} out of range {span}"
            if seen[idx - base]:
                return f"index {idx} appears in more than one group"
            seen[idx - base] = True
    if not seen.all():
        return f"index {int(np.argmin(seen)) + base} is not covered by any group"
    return None


def experiment_methods(cfg, a):
    """(label, plan) of the experiments' two methods on A and B = Aᵀ, built step by step: the
    finest optimal plan, and its probabilities paired by the strategy, each pair sampled with
    its members' summed probability, on the finest plan's matrices."""
    fin = optimal_plan(a, a.T, finest(a.shape[1]))
    pairs = pair_partition(fin.distribution.weights, pairing_strategy(cfg.strategy, cfg.seed))
    return [("finest", fin),
            (f"pairwise-{cfg.strategy}", fin.with_distribution(aggregate_distribution(fin.distribution, pairs)))]


def loop_fig1_csv(cfg):
    """fig1.csv as run_fig1 writes it, from one derive_seed and one sketch per trial."""
    a = experiment_matrix(cfg)
    b = a.T
    exact = multiply(a, b)
    exact_f = frobenius_norm(exact)
    lines = [FIG1_HEADER]
    for c in cfg.c_grid():
        for label, plan in experiment_methods(cfg, a):
            sq_errs, rel_errs = [], []
            for t in range(cfg.trials):
                seed = derive_seed(cfg.seed, "fig1", label, c, t)
                d = plan.distribution
                diff = exact - sketch(a, b, d.support, d, SketchConfig(c, seed)).estimate
                sq = float(np.sum(diff * diff))
                sq_errs.append(sq)
                rel_errs.append(math.sqrt(sq) / exact_f)
            stderr = statistics.stdev(sq_errs) / math.sqrt(cfg.trials) if cfg.trials > 1 else 0.0
            lines.append(f"{c},{label},{statistics.fmean(rel_errs)!r},"
                         f"{statistics.fmean(sq_errs)!r},{stderr!r},{cfg.trials}")
    return "\n".join(lines) + "\n"


def fig1_row(c, method, sq_errs, exact_f):
    """One fig1 row from one cell's squared errors alone: the means as ``statistics.fmean``
    sums them (``fsum / T``), and numpy's sample std over sqrt(T) (0.0 for one trial)."""
    trials = len(sq_errs)
    stderr = float(np.std(sq_errs, ddof=1)) / math.sqrt(trials) if trials > 1 else 0.0
    return {"c": c, "method": method, "mean_rel_frob_err": math.fsum(np.sqrt(sq_errs) / exact_f) / trials,
            "mean_sq_frob_err": math.fsum(sq_errs) / trials, "stderr": stderr, "trials": trials}


def loop_fig2_csv(cfg):
    """fig2.csv as run_fig2 writes it, from one derive_seed and one sketch per run."""
    a = experiment_matrix(cfg)
    b = a.T
    exact = multiply(a, b)
    exact_2 = spectral_norm(exact)
    lines = [FIG2_HEADER]
    for label, plan in experiment_methods(cfg, a):
        for c in cfg.fig2_c_values(a.shape[1]):
            for run in range(cfg.runs):
                seed = derive_seed(cfg.seed, "fig2", label, c, run)
                err = spectral_norm(exact - sketch(a, b, plan.distribution.support, plan.distribution,
                                                   SketchConfig(c, seed)).estimate)
                lines.append(f"{label},{c},{run},{err / exact_2!r}")
    return "\n".join(lines) + "\n"
