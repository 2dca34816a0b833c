"""Closed-form error expectations, tail bounds, draw thresholds, and oracles.

Everything here is an exact formula or an exhaustive enumeration; nothing
samples.  These are the reference quantities the sketch engine is tested
against and the numbers the ``analyze`` CLI reports.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .distributions import SamplingDistribution, _check_plan, _check_sample_count, _check_shapes, group_weights
from .errors import NumericError, ZeroProductError
from .matrices import _check_conformable, _frozen, frobenius_norm, multiply, spectral_norm
from .partitions import Partition

EPS = float(np.finfo(np.float64).eps)


def _scaled_weights(weights: np.ndarray, probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(weight, weight/probability) over sampled groups; unsampled ones must weigh 0 to stay unbiased."""
    sampled = probs > 0.0
    if np.any(weights[~sampled] != 0.0):
        raise ValueError("group with nonzero block weight has zero sampling probability")
    return weights[sampled], weights[sampled] / probs[sampled]


def _excess_over_product(total: float, a: np.ndarray, b: np.ndarray, context: str) -> float:
    """``total - |ab|_F^2`` for a ``total`` >= it in exact arithmetic, or 0 when rounding could explain it.

    |ab|_F^2 is accurate to 2*gamma_n (about n*eps) of its size, at most ``total``;
    the tolerance doubles that for the weights' rounding.  Larger negatives raise.
    """
    difference = total - frobenius_norm(multiply(a, b)) ** 2
    tol = 2.0 * a.shape[1] * EPS * total
    if difference < -tol:
        raise NumericError(f"{context} evaluated to {difference}, beyond cancellation tolerance {tol}")
    return 0.0 if difference <= tol else difference


def expected_frobenius_error_sq(a: np.ndarray, b: np.ndarray, partition: Partition,
                                dist: SamplingDistribution, c: int) -> float:
    """Expected squared Frobenius error of a c-sample sketch under ``dist``.

    Equals (sum over groups of weight^2 / probability - |ab|_F^2) / c, where a
    group's weight is the Frobenius norm of its block product.  Groups with
    zero weight and zero probability contribute nothing (they are recovered
    exactly by never being sampled); zero probability on a nonzero-weight
    group is an error.  A result within rounding of zero (relative to the
    first term) is reported as zero.
    """
    _check_plan(a, b, partition, dist)
    _check_sample_count(c)
    w, ratio = _scaled_weights(group_weights(a, b, partition), dist.weights)
    total = float(np.sum(w * ratio))
    return _excess_over_product(total, a, b, "expected squared error") / c


def optimal_expected_error(a: np.ndarray, b: np.ndarray, partition: Partition, c: int) -> float:
    """Expected squared Frobenius error under the weight-proportional distribution.

    Closed form ((sum of group weights)^2 - |ab|_F^2) / c; agrees with
    ``expected_frobenius_error_sq`` evaluated at ``optimal_distribution``.
    Returns 0 for the zero product.
    """
    _check_sample_count(c)
    total_sq = float(np.sum(group_weights(a, b, partition))) ** 2
    return _excess_over_product(total_sq, a, b, "optimal expected error") / c


# ---------------------------------------------------------------------------
# Tail bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundReport:
    """Inputs to the exponential tail bound for one (matrices, partition, distribution) setup.

    weight_sum: total of the group block weights.
    max_scaled_weight: largest weight/probability ratio over sampled groups.
    scaled_weight_sq_sum: total of weight^2/probability over sampled groups.
    """

    weight_sum: float
    max_scaled_weight: float
    scaled_weight_sq_sum: float
    product_spectral_norm: float
    product_frobenius_norm: float
    out_rows: int
    out_cols: int


def bound_report(a: np.ndarray, b: np.ndarray, partition: Partition,
                 dist: SamplingDistribution, weights: np.ndarray | None = None) -> BoundReport:
    """Collect the scalar summaries the tail bound needs; pure bookkeeping.

    ``weights`` are the group weights ``group_weights(a, b, partition)`` when a
    caller already holds them (``Plan.weights``); otherwise they are computed here.
    """
    _check_plan(a, b, partition, dist)
    if weights is None:
        weights = group_weights(a, b, partition)
    elif weights.shape != (partition.k,):
        raise ValueError(f"expected {partition.k} group weights, got shape {weights.shape}")
    w, ratio = _scaled_weights(weights, dist.weights)
    ab = multiply(a, b)
    return BoundReport(
        weight_sum=float(np.sum(weights)),
        max_scaled_weight=float(np.max(ratio, initial=0.0)),
        scaled_weight_sq_sum=float(np.sum(w * ratio)),
        product_spectral_norm=spectral_norm(ab),
        product_frobenius_norm=frobenius_norm(ab),
        out_rows=ab.shape[0],
        out_cols=ab.shape[1],
    )


def tail_bound_value(variance_bound: float, deviation_bound: float, dims_sum: float,
                     c: int, epsilon: float) -> float:
    """dims_sum * exp(-c eps^2 / (2*variance_bound + eps*deviation_bound)).

    The exponent is evaluated as -c*eps / (2*variance_bound/eps + deviation_bound)
    so very large eps underflows cleanly to 0 instead of overflowing.  The
    value may exceed 1; a vacuous bound is still information, so it is
    returned unclamped.
    """
    if not 0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be finite and positive, got {epsilon}")
    _check_sample_count(c)
    denom = 2.0 * variance_bound / epsilon + deviation_bound
    if denom == 0.0:
        return 0.0
    return dims_sum * math.exp(-(c * epsilon) / denom)


def bernstein_tail_bound(report: BoundReport, c: int, epsilon: float) -> float:
    """Probability bound for the sketch's spectral error exceeding ``epsilon``.

    Uses variance proxy s^2 + 2*W*s + Q and deviation proxy s + U, with
    s the product spectral norm, W the weight sum, Q the scaled weight
    square sum, and U the max scaled weight.  Under the weight-proportional
    distribution U = W and Q = W^2, so the variance proxy collapses to
    (s + W)^2 and the deviation proxy to s + W.
    """
    s = report.product_spectral_norm
    variance = s * s + 2.0 * report.weight_sum * s + report.scaled_weight_sq_sum
    deviation = s + report.max_scaled_weight
    dims = report.out_rows + report.out_cols
    return tail_bound_value(variance, deviation, dims, c, epsilon)


# ---------------------------------------------------------------------------
# Uniform-sampling spectral bound machinery
# ---------------------------------------------------------------------------

def binomial_cdf(s: int, n_trials: int, xi: float) -> float:
    """P(X <= s) for X ~ Binomial(n_trials, xi), term-by-term in log space.

    s < 0 gives 0 and s >= n_trials gives 1.  No normal approximation; each
    probability mass term is exponentiated from log-gamma factorials, which
    stays exact enough for the small-threshold decisions made on top of it.
    """
    if not 0.0 <= xi <= 1.0:
        raise ValueError(f"xi must be a probability, got {xi}")
    if n_trials < 1:
        raise ValueError(f"n_trials must be positive, got {n_trials}")
    if s < 0:
        return 0.0
    if s >= n_trials:
        return 1.0
    if xi == 0.0:
        return 1.0
    if xi == 1.0:
        return 0.0
    log_xi = math.log(xi)
    log_omxi = math.log1p(-xi)
    log_fact_n = math.lgamma(n_trials + 1)
    total = 0.0
    for j in range(s + 1):
        log_term = (log_fact_n - math.lgamma(j + 1) - math.lgamma(n_trials - j + 1)
                    + j * log_xi + (n_trials - j) * log_omxi)
        total += math.exp(log_term)
    return min(total, 1.0)


@dataclass(frozen=True)
class DrawThreshold:
    """Per-group draw cap for uniform sampling; ``threshold`` is None when infeasible."""

    threshold: int | None
    feasible: bool


def min_draw_threshold(c: int, k: int) -> DrawThreshold:
    """Smallest s in [2, c] with s >= 100 * (1 - binomial_cdf(s-2, c-1, 1/k)).

    The rule caps how often any single group is drawn in c uniform samples
    over k groups; ``uniform_spectral_bound`` turns the cap into a norm bound
    that holds with high probability.  Requires 100 <= k**(c-1) (checked in
    log space), which guarantees s = c satisfies the rule; otherwise the
    result is flagged infeasible instead of raising.
    """
    if c < 2:
        raise ValueError(f"c must be >= 2, got {c}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if (c - 1) * math.log(k) < math.log(100.0):
        return DrawThreshold(None, False)
    for s in range(2, c + 1):
        if s >= 100.0 * (1.0 - binomial_cdf(s - 2, c - 1, 1.0 / k)):
            return DrawThreshold(s, True)
    raise NumericError("threshold search failed despite feasible assumption")


def uniform_spectral_bound(a: np.ndarray, b: np.ndarray, c: int, k: int, s_c: int) -> float:
    """High-probability cap k*(s_c - 1)/c * |a|_2 * |b|_2 on the sketch's spectral norm.

    ``s_c`` comes from :func:`min_draw_threshold` for the same (c, k).  Raises
    ``ValueError`` unless ``a @ b`` conforms and c >= 1.
    """
    _check_conformable(a, b)
    _check_sample_count(c)
    return k * (s_c - 1) / c * spectral_norm(a) * spectral_norm(b)


# ---------------------------------------------------------------------------
# Pairing comparators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PairingComparators:
    """Deviation/variance bounds comparing per-index sampling with a pairing.

    Deviation bounds are twice the total column/row weight outside the
    heaviest index (resp. heaviest group); variance bounds are weighted sums
    of squared complements.  Always paired <= single, and pairing the two
    heaviest indices together minimizes the paired deviation bound.
    """

    single_deviation_bound: float
    paired_deviation_bound: float
    single_variance_bound: float
    paired_variance_bound: float


def pairing_comparators(a: np.ndarray, b: np.ndarray, pairing: Partition) -> PairingComparators:
    """Evaluate the four comparator quantities for an explicit pairing.

    Per-index weights are |a column|_2 * |b row|_2; group weights are the
    sums of their members'.  ``pairing`` must partition the inner dimension
    into groups of at most two indices.
    """
    _check_shapes(a, b, pairing)
    if np.bincount(pairing.labels).max() > 2:
        raise ValueError("pairing groups must have at most two indices")
    w = np.linalg.norm(a, axis=0) * np.linalg.norm(b, axis=1)
    total = float(np.sum(w))
    if total == 0.0:
        raise ZeroProductError("every column/row weight is zero")
    pair_sums = np.bincount(pairing.labels, weights=w)  # two terms per pair: the same sum in either order
    single_dev = 2.0 * (total - float(np.max(w)))
    paired_dev = 2.0 * (total - float(np.max(pair_sums)))
    single_var = 4.0 / total * float(np.sum(w * (total - w) ** 2))
    paired_var = 4.0 / total * float(np.sum(pair_sums * (total - pair_sums) ** 2))
    return PairingComparators(single_dev, paired_dev, single_var, paired_var)


# ---------------------------------------------------------------------------
# Enumeration oracle
# ---------------------------------------------------------------------------

ENUMERATION_LIMIT = 1_000_000


def brute_force_expectation(a: np.ndarray, b: np.ndarray, partition: Partition,
                            dist: SamplingDistribution, c: int) -> tuple[np.ndarray, float]:
    """Exact expectation of the sketch and of its squared Frobenius error.

    Enumerates all k^c draw sequences, weighting each by its probability.
    Independent of the sampling engine: blocks are sliced and summed here
    directly.  Guarded to k^c <= 1e6.
    """
    _check_plan(a, b, partition, dist)
    _check_sample_count(c)
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
