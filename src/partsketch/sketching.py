"""The randomized sketch engine.

A sketch draws c group indices from a sampling distribution over a partition
of the inner dimension and forms ``A · diag(s) · B`` with
``s_j = count[g(j)] / (c · p[g(j)])`` as one BLAS product over the drawn
indices.  Draws come from a counter-based stream, so a (matrices, partition,
distribution, config) tuple and the BLAS thread count fix the result bit for
bit.  A result keeps only the estimate and the per-group counts; the draws
in order are ``sample_indices`` of the same stream.  ``sketch_trials`` runs
many seeds on one plan, drawing them in blocks, with the results of one
``sketch`` per seed.

``frobenius_errors`` draws the same blocks but forms no estimate: a trial's
squared error ``|AB - A·diag(s)·B|_F²`` is the quadratic form ``uᵀHu`` with
``u = 1 - s`` and ``H = (AᵀA) ∘ (BBᵀ)`` (``error_form``), so a block of
trials costs one GEMM against ``H``.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .distributions import (SamplingDistribution, _check_plan, _check_sample_count,
                            aggregate_distribution, optimal_distribution)
from .matrices import _frozen
from .partitions import PairingStrategy, Partition, finest, pair_partition
from .rng import uniform_rows, uniform_stream

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
        _check_sample_count(self.c)


@dataclass(frozen=True, eq=False)
class SketchResult:
    """Estimate and per-group draw counts of one sketch, both read-only."""

    estimate: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        self.estimate.flags.writeable = False
        self.counts.flags.writeable = False


def sample_indices(dist: SamplingDistribution, c: int, seed: int) -> np.ndarray:
    """c categorical draws from ``dist`` by inverse-CDF binary search.

    Draw i consumes the i-th variate of the Philox stream keyed by ``seed``,
    so the draw list does not depend on evaluation order or batching.
    Zero-probability groups occupy empty CDF intervals and are never drawn.
    """
    _check_sample_count(c)
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
    u = uniform_rows(seeds, c)
    u.sort(axis=1)
    groups = np.searchsorted(dist.cdf, u, side="right")
    groups += k * np.arange(trials)[:, None]
    return np.bincount(groups.ravel(), minlength=trials * k).reshape(trials, k)


def _is_transpose(a: np.ndarray, b: np.ndarray) -> bool:
    """True when ``b`` is ``a.T``: the same buffer read with reversed shape and strides."""
    return (b.shape == a.shape[::-1] and b.strides == a.strides[::-1]
            and b.ctypes.data == a.ctypes.data)


def _scaled_product(a: np.ndarray, b: np.ndarray, idx: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """``a[:, idx] · diag(scale) · b[idx, :]`` as one BLAS product over the gathered panel ``x = a[:, idx]``.

    When ``b`` is ``a.T`` it is ``x @ x.T`` with ``x`` scaled by ``sqrt(scale)``,
    which NumPy hands to BLAS ``syrk``: half the flops of a GEMM, and an
    exactly symmetric estimate.  ``scale`` must then be positive.  Any other
    ``b`` takes one GEMM with ``x`` scaled by ``scale``.
    """
    x = a[:, idx]
    gram = _is_transpose(a, b)
    x *= np.sqrt(scale) if gram else scale
    return x @ (x.T if gram else b[idx, :])


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
    _check_plan(a, b, partition, dist)
    _check_sample_count(c)
    return _sketch_blocks(a, b, partition, dist, c, seeds)


def _trials_per_block(c: int, n: int) -> int:
    """Trials per block: the block's (trials, c) variates and (trials, n) scales stay within
    ``_BLOCK_ENTRIES`` entries, unless one trial alone exceeds it."""
    return max(1, _BLOCK_ENTRIES // max(c, n))


def _scale_blocks(partition: Partition, dist: SamplingDistribution, c: int,
                  seeds) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """``(counts, scales)`` per block of seeds: the block's per-group draw counts and
    its ``(trials, n)`` scale matrix, ``s_j = count[g(j)] / (c · p[g(j)])`` (0 when undrawn)."""
    per_block = _trials_per_block(c, partition.n)
    c_weights = c * dist.weights
    for lo in range(0, len(seeds), per_block):
        counts = _draw_block(dist, c, seeds[lo:lo + per_block])
        group_scale = np.divide(counts, c_weights, out=np.zeros(counts.shape), where=counts > 0)
        yield counts, group_scale[:, partition.labels]


def _sketch_blocks(a, b, partition, dist, c, seeds) -> Iterator[SketchResult]:
    for counts, scales in _scale_blocks(partition, dist, c, seeds):
        for row_counts, scale in zip(counts, scales):
            idx = np.flatnonzero(scale)
            yield SketchResult(_frozen(_scaled_product(a, b, idx, scale[idx])), row_counts)


def error_form(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``H = (AᵀA) ∘ (BBᵀ)``, read-only: ``|A·diag(u)·B|_F² = uᵀHu`` for every ``u``.

    ``H`` is n×n and depends only on ``(a, b)``, so one ``H`` serves every
    plan and sample count on them.  It is built in its own buffer, squared
    in place when ``b`` is ``a.T`` (``AᵀA`` is then one ``syrk``).
    """
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"dimension mismatch: {a.shape} x {b.shape}")
    h = a.T @ a
    h *= h if _is_transpose(a, b) else b @ b.T
    return _frozen(h)


def frobenius_errors(h: np.ndarray, partition: Partition, dist: SamplingDistribution,
                     c: int, seeds) -> np.ndarray:
    """Squared Frobenius error ``|AB - sketch(...).estimate|_F²`` of one sketch per seed, with no estimate formed.

    ``h`` is ``error_form(a, b)``.  Trial t draws the counts of
    ``sketch(a, b, partition, dist, SketchConfig(c, seeds[t]))`` and its
    error is ``uᵀHu`` with ``u = 1 - s``: one GEMM per block of trials.
    ``H`` is positive semidefinite (Schur product theorem), so a negative
    value is rounding and is clamped to 0.  The ``u`` form is kept on
    purpose: expanding it to ``|AB|² - 2sᵀd + sᵀHs`` cancels.  The plan is
    checked once, on this call, with ``h`` standing in for both factors.
    """
    _check_plan(h, h, partition, dist)
    _check_sample_count(c)
    out = np.empty(len(seeds))
    lo = 0
    for _, scales in _scale_blocks(partition, dist, c, seeds):
        u = np.subtract(1.0, scales, out=scales)
        uh = u @ h
        uh *= u
        uh.sum(axis=1, out=out[lo:lo + len(u)])
        lo += len(u)
    return np.maximum(out, 0.0, out=out)


def element_contribution(a: np.ndarray, b: np.ndarray, partition: Partition,
                         dist: SamplingDistribution, draws: np.ndarray, group_index: int) -> np.ndarray:
    """The part of the estimate attributable to one group, from the same draw log.

    The sketch's kernel restricted to the group's indices: equal to the estimate
    bit for bit when only this group is drawn; summed over groups, equal to it
    within the GEMM rounding bound (the summation order differs).
    """
    _check_plan(a, b, partition, dist)
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


def draw_log_json(dist: SamplingDistribution, cfg: SketchConfig, counts: np.ndarray) -> str:
    """JSON draw log {"draws": 1-based group indices, "counts", "seed", "c"}.

    The draws, in draw order, are ``sample_indices(dist, cfg.c, cfg.seed)``:
    the stream whose per-group ``counts`` a sketch with ``cfg`` used.
    """
    payload = {
        "draws": (sample_indices(dist, cfg.c, cfg.seed) + 1).tolist(),
        "counts": counts.tolist(),
        "seed": int(cfg.seed),
        "c": int(cfg.c),
    }
    return json.dumps(payload, sort_keys=True)
