"""Sampling distributions over partition groups.

The weight of a group is the Frobenius norm of its block product; sampling
proportionally to these weights minimizes the expected squared Frobenius
error of the sketch.  Aggregated distributions sum finest-partition
probabilities over each group's members; ``pairing_plan`` aggregates them over
the pairs of a pairing strategy, the paper's pairwise method.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ZeroProductError
from .matrices import _BLOCK_ENTRIES, _EPS, _frozen, _pair, _plan_copies
from .partitions import PairingStrategy, Partition, pair_partition


@dataclass(frozen=True, eq=False)
class SamplingDistribution:
    """Probabilities over the groups of ``support``, summing to 1.

    Groups may carry probability 0 (they are never sampled); any group whose
    block product is nonzero must keep strictly positive probability for the
    sketch to stay unbiased.  Construction keeps a read-only float64 copy of integer or float
    ``weights``, leaving the caller's array as it was, and raises ``ValueError`` for any other
    dtype and unless there is one finite, nonnegative entry per group summing to 1 within
    ``n · eps`` (n = ``support.n``): twice the rounding of n probabilities, each within eps/2
    of its share, summed into groups and then in total.
    """

    support: Partition
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights)
        if w.dtype.kind not in "iuf":
            raise ValueError(f"weights must be integers or floats, got dtype {w.dtype}")
        w = _frozen(w.astype(np.float64))
        if w.shape != (self.support.k,):
            raise ValueError(f"expected {self.support.k} weights, got shape {w.shape}")
        if not np.all(np.isfinite(w)) or np.any(w < 0):
            raise ValueError("weights must be finite and nonnegative")
        total, tol = float(np.sum(w)), self.support.n * _EPS
        if abs(total - 1.0) > tol:
            raise ValueError(f"weights sum to {total!r}, expected 1 within n·eps = {tol:.3g}")
        object.__setattr__(self, "weights", w)

    @cached_property
    def cdf(self) -> np.ndarray:
        """Cumulative probabilities ending at exactly 1; group g owns ``[cdf[g-1], cdf[g])``. Read-only, built once."""
        cdf = np.cumsum(self.weights)
        cdf /= cdf[-1]
        return _frozen(cdf)

    @cached_property
    def guide(self) -> np.ndarray:
        """Guide table of the inverse CDF (Chen & Asau 1974), two buckets per group: ``guide[j]``
        is the first group g with ``floor(fl(cdf[g] · 2k)) >= j``, for j = 0..2k.  Read-only, built once.

        A variate u < 1 lies in bucket ``j = floor(fl(u · 2k)) < 2k`` (``fl(u · m) < m`` for every
        integer m), and rounding is monotone, so its group, the first g with ``cdf[g] > u``, is in
        ``[guide[j], guide[j + 1]]``: at most ``guide_steps`` steps from ``guide[j]``."""
        buckets = 2 * self.weights.size
        return _frozen(np.searchsorted(np.floor(self.cdf * buckets), np.arange(buckets + 1)))

    @cached_property
    def guide_steps(self) -> int:
        """``max(diff(guide))``: the forward steps from ``guide`` that find every variate's group.
        1 whenever every probability exceeds ``1/(2k)`` by more than rounding, as near uniform."""
        return int(np.diff(self.guide).max())


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
    # a batch gathers (m + rho) entries an index, within _BLOCK_ENTRIES: s indices a group, or
    # as many as its m x rho block entries take when that block is the larger temporary
    step = max(1, _BLOCK_ENTRIES // (m + rho) // (s if gram else max(s, m * rho // (m + rho))))
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


def _weights(a: np.ndarray, b: np.ndarray, partition: Partition) -> np.ndarray:
    """Frobenius norm of every group's block product ``a[:, g] @ b[g, :]``, batched by group size.

    Groups of size s use ``|A_g B_g|_F^2 = <A_g^T A_g, B_g B_g^T>`` (s x s
    temporaries; ``|a_j| |b_j|`` for singletons) unless ``s^2 > m * rho``,
    where the m x rho block is smaller, so no temporary grows with n^2.
    Groups whose Gram sum nearly cancels are taken from their blocks.  The pair is checked float64
    (``_pair``'s or a plan's), not scanned again; ``ValueError`` unless ``partition`` covers its n indices.
    """
    if partition.n != a.shape[1]:
        raise ValueError(f"partition covers {partition.n} indices but the inner dimension is {a.shape[1]}")
    m, rho = a.shape[0], b.shape[1]
    sizes = np.bincount(partition.labels, minlength=partition.k)
    members = np.argsort(partition.labels, kind="stable")  # grouped by label, ascending within
    starts = np.cumsum(sizes) - sizes
    w_sq = np.empty(partition.k)
    for s in np.flatnonzero(np.bincount(sizes)):
        ids = np.flatnonzero(sizes == s)
        w_sq[ids] = _squared_norms(a, b, members, starts, ids, s, s * s <= m * rho)
    return np.sqrt(np.maximum(w_sq, 0.0))


def optimal_distribution(a, b, partition: Partition) -> SamplingDistribution:
    """Group probabilities proportional to the block-product Frobenius norms.

    Groups whose block product is exactly zero get probability 0: they
    contribute nothing to the product, so never sampling them keeps the
    estimator unbiased and the error formula finite.  Raises
    :class:`ZeroProductError` when every weight vanishes (the product is zero
    and no distribution is defined), and ``ValueError`` unless the pair passes ``_pair``
    and ``partition`` covers its inner dimension.
    """
    return _optimal_plan(*_pair(a, b), partition).distribution


@dataclass(frozen=True, eq=False)
class Plan:
    """One sketch setup: read-only matrices and a distribution whose support partitions their inner dimension.

    The partition is ``distribution.support``, so a plan holds exactly one.  ``Plan(a, b, dist)``
    holds ``_plan_copies`` of ``a`` and ``b``, which no write to the caller's arrays reaches, and
    raises ``ValueError`` unless they pass ``_pair`` (matrices whose product conforms) and the support
    covers its inner dimension.  ``with_distribution`` builds a plan on the same copies with no
    copy.  ``weights`` are the Frobenius norms of the support's block products (``_weights``), computed
    once: by ``optimal_plan``, which builds the distribution from them, or else on first read.
    """

    a: np.ndarray
    b: np.ndarray
    distribution: SamplingDistribution

    def __post_init__(self):
        self._adopt(*_plan_copies(self.a, self.b), self.distribution)

    def _adopt(self, a: np.ndarray, b: np.ndarray, dist: SamplingDistribution) -> Plan:
        """Set the fields to ``a``, ``b`` and ``dist``, with no copy, once the support covers ``a``'s columns.  Every
        plan but a public ``Plan(a, b, dist)`` is built by ``Plan.__new__(Plan)._adopt``, on float64 matrices no one
        writes while it lives: a plan's own, ``read_matrix``'s, ``experiment_matrix``'s, or a call's ``_pair``."""
        if dist.support.n != a.shape[1]:
            raise ValueError(f"partition covers {dist.support.n} indices but the inner dimension is {a.shape[1]}")
        self.__dict__.update(a=a, b=b, distribution=dist)
        return self

    def with_distribution(self, dist: SamplingDistribution) -> Plan:
        """This plan's matrices, the same objects, under ``dist``; ``ValueError`` unless its support covers their inner dimension."""
        return Plan.__new__(Plan)._adopt(self.a, self.b, dist)

    @cached_property
    def weights(self) -> np.ndarray:
        return _frozen(_weights(self.a, self.b, self.distribution.support))


def _plan_on(a, b, partition: Partition, dist: SamplingDistribution) -> Plan:
    """A call's own plan of ``dist`` on a caller's ``a`` and ``b`` (``_pair``, no copy of a float64
    matrix), first refusing a ``partition`` other than ``dist.support`` (``ValueError``)."""
    if dist.support != partition:
        raise ValueError("distribution is not supported on the given partition")
    return Plan.__new__(Plan)._adopt(*_pair(a, b), dist)


def optimal_plan(a, b, partition: Partition) -> Plan:
    """The plan of ``optimal_distribution`` over ``partition`` on ``_plan_copies``, caching its group weights."""
    return _optimal_plan(*_plan_copies(a, b), partition)


def _optimal_plan(a: np.ndarray, b: np.ndarray, partition: Partition) -> Plan:
    """``optimal_plan`` on ``a`` and ``b`` themselves, with no copy (``Plan._adopt``)."""
    w = _frozen(_weights(a, b, partition))
    total = float(np.sum(w))
    if total == 0.0:
        raise ZeroProductError("every block weight is zero: the product is the zero matrix")
    plan = Plan.__new__(Plan)._adopt(a, b, SamplingDistribution(partition, w / total))
    plan.__dict__["weights"] = w  # the cached_property's slot: read back, never recomputed
    return plan


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


def pairing_plan(fin: Plan, strategy: PairingStrategy) -> Plan:
    """The pairwise plan of ``fin``, a plan over the finest partition: its indices paired by the
    strategy's ordering of their probabilities, each pair sampled with its members' summed
    probability.  The pair weights are computed only when a consumer reads them."""
    pairs = pair_partition(fin.distribution.weights, strategy)
    return fin.with_distribution(aggregate_distribution(fin.distribution, pairs))


def distribution_stats(dist: SamplingDistribution) -> dict[str, float]:
    """max/mean/min of the probabilities, the summary used by the experiment tables."""
    w = dist.weights
    return {"max": float(w.max()), "mean": float(w.mean()), "min": float(w.min())}


def distribution_to_json(dist: SamplingDistribution) -> str:
    """JSON object {"partition": 1-based groups, "weights": [...]}."""
    return json.dumps({"partition": [[i + 1 for i in g] for g in dist.support.groups],
                       "weights": dist.weights.tolist()}, sort_keys=True)
