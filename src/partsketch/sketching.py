"""The randomized sketch engine.

A sketch draws c group indices from a sampling distribution over a partition
of the inner dimension and averages the correspondingly rescaled block
products, ``A · diag(s) · B`` with ``s_j = count[g(j)] / (c · p[g(j)])``.
Draws come from a counter-based stream, so a (matrices, partition,
distribution, config) tuple and the BLAS thread count fix the result bit for bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .distributions import (_GATHER_WIDTH, SamplingDistribution, aggregate_distribution,
                            optimal_distribution)
from .matrices import _frozen
from .partitions import PairingStrategy, Partition, finest, pair_partition
from .rng import uniform_stream


@dataclass(frozen=True)
class SketchConfig:
    """Sample count and master seed of one sketch."""

    c: int
    seed: int

    def __post_init__(self):
        if self.c < 1:
            raise ValueError(f"sample count must be >= 1, got {self.c}")


@dataclass(frozen=True, eq=False)
class SketchResult:
    """Estimate and per-group draw counts, plus the draw log that produced them."""

    estimate: np.ndarray
    counts: np.ndarray
    _dist: SamplingDistribution = field(repr=False)
    _cfg: SketchConfig = field(repr=False)

    def __post_init__(self):
        self.estimate.flags.writeable = False
        self.counts.flags.writeable = False

    @cached_property
    def draws(self) -> np.ndarray:
        """The c drawn group indices in draw order; read-only, rebuilt from the stream on first read.

        Bit-identical to ``sample_indices(dist, c, seed)``; the estimate needs
        only ``counts``, so runs that never read the log never build it.
        """
        return _frozen(sample_indices(self._dist, self._cfg.c, self._cfg.seed))


def sample_indices(dist: SamplingDistribution, c: int, seed: int) -> np.ndarray:
    """c categorical draws from ``dist`` by inverse-CDF binary search.

    Draw i consumes the i-th variate of the Philox stream keyed by ``seed``,
    so the draw list does not depend on evaluation order or batching.
    Zero-probability groups occupy empty CDF intervals and are never drawn.
    """
    if c < 1:
        raise ValueError(f"sample count must be >= 1, got {c}")
    return np.searchsorted(dist.cdf, uniform_stream(seed, c), side="right").astype(np.int64)


def _draw_counts(dist: SamplingDistribution, cfg: SketchConfig) -> np.ndarray:
    """Per-group counts of the draws of ``sample_indices(dist, c, seed)``, bit for bit.

    Draw i lands in group g when ``cdf[g-1] <= u_i < cdf[g]``, so the number
    of variates below ``cdf[g]`` counts the draws in groups 0..g: one sort of
    the c variates and one search per group replace c searches of the CDF.
    """
    below = np.searchsorted(np.sort(uniform_stream(cfg.seed, cfg.c)), dist.cdf, side="left")
    return np.diff(below, prepend=0)


def _is_transpose(a: np.ndarray, b: np.ndarray) -> bool:
    """True when ``b`` is ``a.T``: the same buffer read with reversed shape and strides."""
    return (b.shape == a.shape[::-1] and b.strides == a.strides[::-1]
            and b.ctypes.data == a.ctypes.data)


def _scaled_product(a: np.ndarray, b: np.ndarray, idx: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """``sum_j a[:, j] * scale[j] * b[j, :]`` over ``idx``, one product per fixed-width chunk, in order.

    When ``b`` is ``a.T`` each chunk is ``x @ x.T`` with ``x = a[:, J] * sqrt(scale[J])``,
    which NumPy hands to BLAS ``syrk``: half the flops of a GEMM, and an
    exactly symmetric estimate.  ``scale`` must then be positive.  Any other
    ``b`` takes a GEMM per chunk.
    """
    gram = _is_transpose(a, b)
    if gram:
        scale = np.sqrt(scale)
    out = np.zeros((a.shape[0], b.shape[1]))
    for lo in range(0, idx.size, _GATHER_WIDTH):
        j = idx[lo:lo + _GATHER_WIDTH]
        x = a[:, j]
        x *= scale[lo:lo + _GATHER_WIDTH]
        out += x @ (x.T if gram else b[j, :])
    return out


def sketch(a: np.ndarray, b: np.ndarray, partition: Partition,
           dist: SamplingDistribution, cfg: SketchConfig) -> SketchResult:
    """Estimate ``a @ b`` from c rescaled block products drawn under ``dist``.

    The estimate is ``a[:, J] · diag(s[J]) · b[J, :]`` over the drawn inner
    indices J in ascending order, so the draw multiset, not the draw order,
    determines it.  Every drawn group has positive probability by
    construction of the sampler.
    """
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"dimension mismatch: {a.shape} x {b.shape}")
    if partition.n != a.shape[1]:
        raise ValueError(f"partition covers {partition.n} indices but the inner dimension is {a.shape[1]}")
    if dist.support != partition:
        raise ValueError("distribution is not supported on the given partition")
    counts = _draw_counts(dist, cfg)
    group_scale = np.divide(counts, cfg.c * dist.weights, out=np.zeros(partition.k), where=counts > 0)
    scale = group_scale[partition.labels]
    idx = np.flatnonzero(scale)
    return SketchResult(_frozen(_scaled_product(a, b, idx, scale[idx])), counts, dist, cfg)


def element_contribution(a: np.ndarray, b: np.ndarray, partition: Partition,
                         dist: SamplingDistribution, draws: np.ndarray, group_index: int) -> np.ndarray:
    """The part of the estimate attributable to one group, from the same draw log.

    The sketch's kernel restricted to the group's indices: equal to the estimate
    bit for bit when only this group is drawn; summed over groups, equal to it
    within the GEMM rounding bound (the summation order differs).
    """
    if not 0 <= group_index < partition.k:
        raise ValueError(f"group index {group_index} out of range [0, {partition.k})")
    c = len(draws)
    count = int(np.sum(draws == group_index))
    if count == 0:
        return _frozen(np.zeros((a.shape[0], b.shape[1])))
    idx = np.flatnonzero(partition.labels == group_index)
    scale = np.full(idx.size, count / (c * dist.weights[group_index]))
    return _frozen(_scaled_product(a, b, idx, scale))


def pairwise_plan(a: np.ndarray, b: np.ndarray,
                  strategy: PairingStrategy) -> tuple[Partition, SamplingDistribution]:
    """The pair partition and aggregated distribution a pairwise sketch samples from.

    Builds the per-index optimal probabilities, orders and pairs them by the
    strategy, and assigns each pair the sum of its members' probabilities.
    """
    p_finest = optimal_distribution(a, b, finest(a.shape[1]))
    partition = pair_partition(p_finest.weights, strategy)
    return partition, aggregate_distribution(p_finest, partition)


def sketch_pairwise(a: np.ndarray, b: np.ndarray, strategy: PairingStrategy,
                    cfg: SketchConfig) -> SketchResult:
    """Pairwise-partition sketch: pair indices, aggregate probabilities, sample pairs.

    The draw log records pair indices into the strategy's pair partition.
    """
    if a.shape[1] < 2:
        raise ValueError("pairwise sketching needs at least 2 inner indices")
    partition, dist = pairwise_plan(a, b, strategy)
    return sketch(a, b, partition, dist, cfg)


def draw_log_json(result: SketchResult, cfg: SketchConfig) -> str:
    """JSON draw log {"draws": 1-based group indices, "counts", "seed", "c"}."""
    payload = {
        "draws": [int(r) + 1 for r in result.draws],
        "counts": [int(v) for v in result.counts],
        "seed": int(cfg.seed),
        "c": int(cfg.c),
    }
    return json.dumps(payload, sort_keys=True)
