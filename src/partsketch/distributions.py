"""Sampling distributions over partition groups.

The weight of a group is the Frobenius norm of its block product; sampling
proportionally to these weights minimizes the expected squared Frobenius
error of the sketch.  Aggregated distributions sum finest-partition
probabilities over each group's members.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ZeroProductError
from .matrices import _check_conformable, _frozen, block_product, frobenius_norm
from .partitions import Partition

SUM_TOL = 1e-12
_EPS = float(np.finfo(np.float64).eps)
_GATHER_WIDTH = 256  # indices per gathered batch of group weights: O((m + rho) * width) temporaries


@dataclass(frozen=True, eq=False)
class SamplingDistribution:
    """Probabilities over the groups of ``support``, summing to 1.

    Groups may carry probability 0 (they are never sampled); any group whose
    block product is nonzero must keep strictly positive probability for the
    sketch to stay unbiased.  Construction raises ``ValueError`` unless
    ``weights`` has one finite, nonnegative entry per group and sums to 1
    within ``SUM_TOL``, then makes ``weights`` read-only.
    """

    support: Partition
    weights: np.ndarray

    def __post_init__(self):
        w = self.weights
        if w.shape != (self.support.k,):
            raise ValueError(f"expected {self.support.k} weights, got shape {w.shape}")
        if not np.all(np.isfinite(w)) or np.any(w < 0):
            raise ValueError("weights must be finite and nonnegative")
        total = float(np.sum(w))
        if abs(total - 1.0) > SUM_TOL:
            raise ValueError(f"weights sum to {total}, expected 1 within {SUM_TOL}")
        w.flags.writeable = False

    @cached_property
    def cdf(self) -> np.ndarray:
        """Cumulative probabilities ending at exactly 1; group g owns ``[cdf[g-1], cdf[g])``. Read-only, built once."""
        cdf = np.cumsum(self.weights)
        cdf /= cdf[-1]
        cdf.flags.writeable = False
        return cdf

    @cached_property
    def guide(self) -> np.ndarray:
        """Guide table of the inverse CDF (Chen & Asau 1974): ``guide[j]`` is the first group g
        with ``floor(fl(cdf[g] · k)) >= j``, for j = 0..k.  Read-only, built once.

        Rounding is monotone, so a variate u starting at ``guide[floor(fl(u · k))]`` never
        starts past its group, the first g with ``cdf[g] > u``."""
        k = self.weights.size
        guide = np.searchsorted(np.floor(self.cdf * k), np.arange(k + 1))
        guide.flags.writeable = False
        return guide


def _check_shapes(a: np.ndarray, b: np.ndarray, partition: Partition) -> None:
    """Raise ``ValueError`` unless ``a @ b`` conforms and ``partition`` covers its inner dimension."""
    _check_conformable(a, b)
    if partition.n != a.shape[1]:
        raise ValueError(f"partition covers {partition.n} indices but the inner dimension is {a.shape[1]}")


def _check_sample_count(c: int) -> None:
    """Raise ``ValueError`` unless the sample count ``c`` is at least 1."""
    if c < 1:
        raise ValueError(f"sample count must be >= 1, got {c}")


def _check_plan(a: np.ndarray, b: np.ndarray, partition: Partition, dist: SamplingDistribution) -> None:
    """Raise ``ValueError`` unless ``_check_shapes`` passes and ``dist`` is over ``partition``."""
    _check_shapes(a, b, partition)
    if dist.support != partition:
        raise ValueError("distribution is not supported on the given partition")


def distribution(support: Partition, weights, *, normalize: bool = False) -> SamplingDistribution:
    """A distribution over ``support`` from a copy of ``weights``; with ``normalize`` they are first rescaled to sum to 1."""
    w = np.array(weights, dtype=np.float64, copy=True)
    if normalize:
        total = float(np.sum(w))
        if total <= 0:
            raise ValueError(f"cannot normalize weights summing to {total}")
        w /= total
    return SamplingDistribution(support, w)


def element_weight(a: np.ndarray, b: np.ndarray, group) -> float:
    """Frobenius norm of the group's block product."""
    return frobenius_norm(block_product(a, b, group))


def _squared_norms(a: np.ndarray, b: np.ndarray, members: np.ndarray, starts: np.ndarray,
                   ids: np.ndarray, s: int, gram: bool) -> np.ndarray:
    """``|a[:, g] @ b[g, :]|_F^2`` of the size-s groups ``ids``, by the Gram identity or from the blocks.

    A Gram sum ``<A_g^T A_g, B_g B_g^T>`` is within ``gamma_{m+rho+s^2}
    <|A_g|^T |A_g|, |B_g| |B_g|^T>`` of exact, and by Cauchy-Schwarz that is
    at most ``gamma_{m+rho+s^2} (sum_{j in g} |a_j| |b_j|)^2``.  A group whose
    sum does not exceed this bound by ``1/sqrt(eps)`` nearly cancels (only
    signed entries can) and is taken from its block instead, so every weight
    keeps at least half its digits.
    """
    m, rho = a.shape[0], b.shape[1]
    # temporaries per group: (m + rho) s gathered, s^2 Gram or m rho block entries
    step = max(1, _GATHER_WIDTH // (s if gram else max(s, m * rho // (m + rho))))
    terms = (m + rho + s * s) * _EPS / 2
    rounding = terms / (1 - terms)
    out = np.empty(ids.size)
    for lo in range(0, ids.size, step):
        batch = ids[lo:lo + step]
        cols = members[starts[batch, None] + np.arange(s)]
        ga = a[:, cols].transpose(1, 0, 2)  # (groups, m, s)
        gb = b[cols]  # (groups, s, rho)
        if not gram:
            block = ga @ gb
            out[lo:lo + step] = np.einsum("kij,kij->k", block, block)
            continue
        left, right = ga.transpose(0, 2, 1) @ ga, gb @ gb.transpose(0, 2, 1)
        w_sq = np.einsum("kij,kij->k", left, right)
        norm_sum = np.sqrt(np.einsum("kii,kii->ki", left, right)).sum(axis=1)  # sum |a_j| |b_j|
        cancelled = rounding * norm_sum * norm_sum > np.sqrt(_EPS) * w_sq
        if cancelled.any():
            w_sq[cancelled] = _squared_norms(a, b, members, starts, batch[cancelled], s, False)
        out[lo:lo + step] = w_sq
    return out


def group_weights(a: np.ndarray, b: np.ndarray, partition: Partition) -> np.ndarray:
    """Frobenius norm of every group's block product ``a[:, g] @ b[g, :]``, batched by group size.

    Groups of size s use ``|A_g B_g|_F^2 = <A_g^T A_g, B_g B_g^T>`` (s x s
    temporaries; ``|a_j| |b_j|`` for singletons) unless ``s^2 > m * rho``,
    where the m x rho block is smaller, so no temporary grows with n^2.
    Groups whose Gram sum nearly cancels are taken from their blocks.
    Raises ``ValueError`` unless ``a @ b`` conforms and ``partition`` covers its n inner indices.
    """
    _check_shapes(a, b, partition)
    m, rho = a.shape[0], b.shape[1]
    sizes = np.bincount(partition.labels, minlength=partition.k)
    members = np.argsort(partition.labels, kind="stable")  # grouped by label, ascending within
    starts = np.cumsum(sizes) - sizes
    w_sq = np.empty(partition.k)
    for s in np.flatnonzero(np.bincount(sizes)):
        ids = np.flatnonzero(sizes == s)
        w_sq[ids] = _squared_norms(a, b, members, starts, ids, s, s * s <= m * rho)
    return np.sqrt(np.maximum(w_sq, 0.0))


def optimal_distribution(a: np.ndarray, b: np.ndarray, partition: Partition) -> SamplingDistribution:
    """Group probabilities proportional to the block-product Frobenius norms.

    Groups whose block product is exactly zero get probability 0: they
    contribute nothing to the product, so never sampling them keeps the
    estimator unbiased and the error formula finite.  Raises
    :class:`ZeroProductError` when every weight vanishes (the product is zero
    and no distribution is defined), and ``ValueError`` as :func:`group_weights`
    does on matrices and a partition that do not conform.
    """
    return optimal_plan(a, b, partition).distribution


@dataclass(frozen=True, eq=False)
class Plan:
    """One sketch setup: matrices, a partition of their inner dimension and a distribution over it, checked once.

    ``weights`` is ``group_weights(a, b, partition)``: the ``known_weights``
    the distribution was built from, or else computed on first read, so a
    plan whose consumers never ask for them never builds them.
    """

    a: np.ndarray
    b: np.ndarray
    partition: Partition
    distribution: SamplingDistribution
    known_weights: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        _check_plan(self.a, self.b, self.partition, self.distribution)

    @cached_property
    def weights(self) -> np.ndarray:
        if self.known_weights is not None:
            return self.known_weights
        return _frozen(group_weights(self.a, self.b, self.partition))


def optimal_plan(a: np.ndarray, b: np.ndarray, partition: Partition) -> Plan:
    """The plan of ``optimal_distribution`` over ``partition``, keeping the group weights it is built from."""
    w = _frozen(group_weights(a, b, partition))
    total = float(np.sum(w))
    if total == 0.0:
        raise ZeroProductError("every block weight is zero: the product is the zero matrix")
    return Plan(a, b, partition, SamplingDistribution(partition, w / total), w)


def uniform_distribution(partition: Partition) -> SamplingDistribution:
    """Probability 1/k for each of the k groups."""
    k = partition.k
    return SamplingDistribution(partition, np.full(k, 1.0 / k))


def aggregate_distribution(p_finest: SamplingDistribution, partition: Partition) -> SamplingDistribution:
    """Sum the finest-partition probabilities of each group's members.

    ``p_finest`` must be supported on the finest partition of the same ground
    set as ``partition``.
    """
    n = partition.n
    support = p_finest.support
    if support.n != n or support.k != n or not np.array_equal(support.order, np.arange(n)):
        raise ValueError("p_finest must be supported on the finest partition of the same ground set")
    w = np.bincount(partition.labels, weights=p_finest.weights, minlength=partition.k)
    return SamplingDistribution(partition, w)


def distribution_stats(dist: SamplingDistribution) -> dict[str, float]:
    """max/mean/min of the probabilities, the summary used by the experiment tables."""
    w = dist.weights
    return {"max": float(w.max()), "mean": float(w.mean()), "min": float(w.min())}


def distribution_to_json(dist: SamplingDistribution) -> str:
    """JSON object {"partition": 1-based groups, "weights": [...]}."""
    payload = {
        "partition": [[i + 1 for i in g] for g in dist.support.groups],
        "weights": [float(v) for v in dist.weights],
    }
    return json.dumps(payload, sort_keys=True)
