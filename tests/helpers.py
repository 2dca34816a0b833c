"""Shared generators for randomized test instances, and reference computations."""

import math
import statistics

import numpy as np

from partsketch import (SketchConfig, coarsen, dense, derive_seed, frobenius_norm,
                        multiply, sample_indices, sketch, spectral_norm)
from partsketch.experiments import (FIG1_HEADER, FIG2_HEADER, _methods,
                                    experiment_matrix)

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


def gram_error_bound(a, s):
    """Elementwise bound on the gap between the Gram kernel's a @ diag(s) @ a.T and a GEMM-path or loop evaluation.

    The Gram kernel forms each product as fl(x_ij x_kj) with x_ij = fl(a_ij r_j)
    and r_j = fl(sqrt(s_j)): the one rounding of r_j enters twice, so the product
    is a_ij s_j a_kj (1+d0)^2 (1+d1)(1+d2)(1+d3), five factors where the GEMM
    path has two.  With the K - 1 additions (adding a chunk to the zero start
    is exact) the Gram evaluation lies within gamma_{K+4} |A| |s| |A^T| of the
    exact value, so within (gamma_{K+1} + gamma_{K+4}) |A| |s| |A^T| of an
    evaluation held to gemm_error_bound's gamma_{K+1}.
    """
    k = int(np.count_nonzero(s))
    return (gamma(k + 1) + gamma(k + 4)) * ((np.abs(a) * np.abs(s)) @ np.abs(a).T)


def loop_validate(partition):
    """Reference partition check: the per-index scan, returning the first violation met."""
    n = partition.n
    if n < 1:
        return f"ground-set size must be positive, got {n}"
    if not 1 <= len(partition.groups) <= n:
        return f"group count must be in [1, {n}], got {len(partition.groups)}"
    seen = np.zeros(n, dtype=bool)
    for gi, group in enumerate(partition.groups):
        if len(group) == 0:
            return f"group {gi} is empty"
        for idx in group:
            if not isinstance(idx, (int, np.integer)):
                return f"group {gi} holds a non-integer index {idx!r}"
            if not 0 <= idx < n:
                return f"index {idx} out of range [0, {n})"
            if seen[idx]:
                return f"index {idx} appears in more than one group"
            seen[idx] = True
    if not seen.all():
        missing = int(np.flatnonzero(~seen)[0])
        return f"index {missing} is not covered by any group"
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
        for c in cfg.fig2_c_values():
            for run in range(cfg.runs):
                seed = derive_seed(cfg.seed, "fig2", label, c, run)
                err = spectral_norm(exact - sketch(a, b, partition, dist, SketchConfig(c, seed)).estimate)
                lines.append(f"{label},{c},{run},{err / exact_2!r}")
    return "\n".join(lines) + "\n"
