"""The closed-form error expectation, tail bounds and draw thresholds.

Everything here is an exact formula; nothing samples.  These are the
reference quantities the sketch engine is tested against and the numbers
the ``analyze`` CLI reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import Plan, SamplingDistribution, _plan_on, _weights
from .errors import NumericError, ZeroProductError
from .matrices import _EPS, _is_transpose, _pair, frobenius_norm, spectral_norm
from .partitions import Partition, finest
from .rng import _check_count, _is_integer


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
    difference = total - frobenius_norm(a @ b) ** 2
    tol = 2.0 * a.shape[1] * _EPS * total
    if difference < -tol:
        raise NumericError(f"{context} evaluated to {difference}, beyond cancellation tolerance {tol}")
    return 0.0 if difference <= tol else difference


def expected_frobenius_error_sq(a: np.ndarray, b: np.ndarray, partition: Partition,
                                dist: SamplingDistribution, c: int) -> float:
    """Expected squared Frobenius error of a c-sample sketch under ``dist``.

    Equals (sum over groups of weight^2 / probability - |ab|_F^2) / c, where a group's weight is
    the Frobenius norm of its block product.  Groups with zero weight and zero probability
    contribute nothing (they are recovered exactly by never being sampled); zero probability on a
    nonzero-weight group is an error.  A result within rounding of zero (relative to the first
    term) is reported as zero.  At ``optimal_distribution`` it is ((sum of group weights)^2 -
    |ab|_F^2) / c.  Raises ``ValueError`` unless ``partition`` is ``dist.support`` (the 5-argument
    form's own check), ``Plan(a, b, dist)`` builds and c is an integer >= 1 (``_check_count``).
    """
    plan = _plan_on(a, b, partition, dist)
    _check_count(c, "sample count")
    w, ratio = _scaled_weights(plan.weights, dist.weights)
    total = float(np.sum(w * ratio))
    return _excess_over_product(total, plan.a, plan.b, "expected squared error") / c


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


def bound_report(plan: Plan) -> BoundReport:
    """Collect the scalar summaries the tail bound needs from ``plan`` and its group weights; pure bookkeeping."""
    w, ratio = _scaled_weights(plan.weights, plan.distribution.weights)
    ab = plan.a @ plan.b
    return BoundReport(
        weight_sum=float(np.sum(plan.weights)),
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
    returned unclamped.  Raises ``ValueError`` unless both proxies are finite
    and nonnegative, dims_sum and epsilon finite and positive, and c an integer
    >= 1 (``_check_count``).
    """
    if not (0 <= variance_bound < math.inf and 0 <= deviation_bound < math.inf):
        raise ValueError(f"variance and deviation proxies must be finite and nonnegative, got {variance_bound}, {deviation_bound}")
    for name, value in (("dims_sum", dims_sum), ("epsilon", epsilon)):
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be finite and positive, got {value}")
    _check_count(c, "sample count")
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
    Raises ``ValueError`` unless s is an integer (``_is_integer``), xi a probability and n_trials one >= 1 (``_check_count``).
    """
    if not _is_integer(s):
        raise ValueError(f"s must be an integer, got {s!r}")
    if not 0.0 <= xi <= 1.0:
        raise ValueError(f"xi must be a probability, got {xi}")
    _check_count(n_trials, "n_trials")
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


def min_draw_threshold(c: int, k: int) -> int | None:
    """Smallest s in [2, c] with s >= 100 * (1 - binomial_cdf(s-2, c-1, 1/k)).

    The rule caps how often any single group is drawn in c uniform samples
    over k groups; ``uniform_spectral_bound`` turns the cap into a norm bound
    that holds with high probability.  Requires 100 <= k**(c-1) (checked in
    log space), which guarantees s = c satisfies the rule; otherwise it
    returns None (infeasible) instead of raising.  Raises ``ValueError``
    unless c is an integer >= 2 and k one >= 1 (``_check_count``).
    """
    _check_count(c, "c", lo=2)
    _check_count(k, "k")
    if (c - 1) * math.log(k) < math.log(100.0):
        return None
    for s in range(2, c + 1):
        if s >= 100.0 * (1.0 - binomial_cdf(s - 2, c - 1, 1.0 / k)):
            return s
    raise NumericError("threshold search failed despite feasible assumption")


def uniform_spectral_bound(a, b, c: int, k: int, s_c: int) -> float:
    """High-probability cap k*(s_c - 1)/c * |a|_2 * |b|_2 on the sketch's spectral norm.

    ``s_c`` comes from :func:`min_draw_threshold` for the same (c, k); when ``_pair`` makes ``b``
    ``a.T``, ``|b|_2`` is ``|a|_2``, computed once.  Raises ``ValueError`` unless the pair passes
    ``_pair``, c and k are integers >= 1 and s_c one in [2, c] (``_check_count``).
    """
    a, b = _pair(a, b)
    _check_count(c, "sample count")
    _check_count(k, "k")
    _check_count(c, "sample count", lo=_check_count(s_c, "s_c", lo=2))  # s_c in [2, c]
    norm_a = spectral_norm(a)
    return k * (s_c - 1) / c * norm_a * (norm_a if _is_transpose(a, b) else spectral_norm(b))


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

    Per-index weights are a finest plan's (``_weights`` over ``finest(n)`` of the ``_pair``), the
    |a column|_2 * |b row|_2 that the distributions and ``bound_report`` use; group weights are the
    sums of their members'.  ``pairing`` must partition the inner dimension into groups of at most two indices.
    """
    w = _weights(*_pair(a, b), finest(pairing.n))  # checks a @ b and that pairing covers its n indices
    if np.bincount(pairing.labels).max() > 2:
        raise ValueError("pairing groups must have at most two indices")
    total = float(np.sum(w))
    if total == 0.0:
        raise ZeroProductError("every column/row weight is zero")
    pair_sums = np.bincount(pairing.labels, weights=w)  # two terms per pair: the same sum in either order
    dev = [2.0 * (total - float(np.max(v))) for v in (w, pair_sums)]
    var = [4.0 / total * float(np.sum(v * (total - v) ** 2)) for v in (w, pair_sums)]
    return PairingComparators(dev[0], dev[1], var[0], var[1])
