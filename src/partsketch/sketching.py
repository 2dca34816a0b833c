"""The randomized sketch engine.

A sketch draws c group indices from a sampling distribution over a partition
of the inner dimension and averages the correspondingly rescaled block
products, ``A · diag(s) · B`` with ``s_j = count[g(j)] / (c · p[g(j)])``.
Draws come from a counter-based stream, so a (matrices, partition,
distribution, config) tuple and the BLAS thread count fix the result bit for bit.
``sketch_trials`` runs many seeds on one plan, drawing them in blocks, with
the results of one ``sketch`` per seed.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .distributions import (_GATHER_WIDTH, SamplingDistribution, aggregate_distribution,
                            optimal_distribution)
from .matrices import _frozen
from .partitions import PairingStrategy, Partition, finest, pair_partition
from .rng import generator, uniform_stream

# Entries per block temporary in sketch_trials (256 KiB of float64): enough to
# amortise the per-call costs over many small trials, small enough that a
# block of large trials adds little to peak memory.
_BLOCK_ENTRIES = 2 ** 15


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


def _draw_block(dist: SamplingDistribution, c: int, seeds) -> np.ndarray:
    """Per-group draw counts of a block of trials, one row per seed.

    Row t is bit for bit ``bincount(sample_indices(dist, c, seeds[t]))``:
    each seed's c variates fill one row, one call sorts every row, and one
    search of the CDF finds each variate's group (the search resumes where
    the previous one stopped while a row's keys ascend).  Offsetting row t's
    groups by ``t * k`` lets one ``bincount`` count the whole block.
    """
    trials, k = len(seeds), dist.weights.size
    u = np.empty((trials, c))
    for row, seed in zip(u, seeds):
        generator(seed).random(out=row)
    u.sort(axis=1)
    groups = np.searchsorted(dist.cdf, u, side="right")
    groups += k * np.arange(trials)[:, None]
    return np.bincount(groups.ravel(), minlength=trials * k).reshape(trials, k)


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
    construction of the sampler.  This is ``sketch_trials`` with one seed.
    """
    return next(sketch_trials(a, b, partition, dist, cfg.c, [cfg.seed]))


def sketch_trials(a: np.ndarray, b: np.ndarray, partition: Partition,
                  dist: SamplingDistribution, c: int, seeds) -> Iterator[SketchResult]:
    """One sketch per seed of the sequence ``seeds``, in order, on one plan.

    Result t is bit for bit ``sketch(a, b, partition, dist, SketchConfig(c, seeds[t]))``.
    The plan is checked once, on this call.  Trials are drawn a block at a
    time (``_draw_block``), and each block's ``(trials, n)`` scale matrix is
    built in one step; every estimate comes from the same kernel.
    """
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"dimension mismatch: {a.shape} x {b.shape}")
    if partition.n != a.shape[1]:
        raise ValueError(f"partition covers {partition.n} indices but the inner dimension is {a.shape[1]}")
    if dist.support != partition:
        raise ValueError("distribution is not supported on the given partition")
    if c < 1:
        raise ValueError(f"sample count must be >= 1, got {c}")
    return _sketch_blocks(a, b, partition, dist, c, seeds)


def _trials_per_block(c: int, n: int) -> int:
    """Trials per block: the block's (trials, c) variates and (trials, n) scales stay within
    ``_BLOCK_ENTRIES`` entries, unless one trial alone exceeds it."""
    return max(1, _BLOCK_ENTRIES // max(c, n))


def _sketch_blocks(a, b, partition, dist, c, seeds) -> Iterator[SketchResult]:
    per_block = _trials_per_block(c, partition.n)
    c_weights = c * dist.weights
    for lo in range(0, len(seeds), per_block):
        block = seeds[lo:lo + per_block]
        counts = _draw_block(dist, c, block)
        group_scale = np.divide(counts, c_weights, out=np.zeros(counts.shape), where=counts > 0)
        for seed, row_counts, scale in zip(block, counts, group_scale[:, partition.labels]):
            idx = np.flatnonzero(scale)
            yield SketchResult(_frozen(_scaled_product(a, b, idx, scale[idx])), row_counts,
                               dist, SketchConfig(c, seed))


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
