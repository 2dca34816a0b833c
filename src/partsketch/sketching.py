"""The randomized sketch engine.

A sketch draws c group indices from a sampling distribution over a partition
of the inner dimension and forms ``A · diag(s) · B`` with
``s_j = count[g(j)] / (c · p[g(j)])`` as one BLAS product over the drawn
indices.  Draws come from a counter-based stream, each variate's group found
by the distribution's guide table with no sort, so a (matrices, partition,
distribution, config) tuple and the BLAS thread count fix the result bit for
bit.  A result keeps only the estimate and the per-group counts; the draws
in order are ``sample_indices`` of the same stream, and ``sketch_from_draws``
forms the same result from them.  ``sketch_trials`` runs a
list of cells on one (A, B) from one ``Aᵀ`` panel, drawing them in blocks,
with the results of one ``sketch`` per seed.

``frobenius_errors`` draws the same counts but forms no estimate: a trial's
squared error ``|AB - A·diag(s)·B|_F²`` is the quadratic form ``uᵀHu`` with
``u = 1 - s`` and ``H = (AᵀA) ∘ (BBᵀ)`` (``error_form``).  It takes a list of
(partition, distribution, c, seeds) cells and runs one GEMM against ``H`` per
``_FORM_ROWS`` trials across them, so a trial's last bits depend on which rows
share its GEMM: the call's cell list fixes them.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .distributions import (SamplingDistribution, _check_plan, _check_sample_count,
                            aggregate_distribution, optimal_distribution)
from .matrices import _check_conformable, _frozen
from .partitions import PairingStrategy, Partition, finest, pair_partition
from .rng import uniform_rows, uniform_stream

# Entries per block temporary in sketch_trials and frobenius_errors (256 KiB
# of float64): enough to amortise the per-call costs over many small trials,
# small enough that a block of large trials adds little to peak memory.
_BLOCK_ENTRIES = 2 ** 15

# Forward steps of a guide-table lookup before a variate still short of its
# group is left to binary search.
_GUIDE_STEPS = 2

# Trials per GEMM against H in frobenius_errors: one (rows, n) buffer of u, at
# most 2 MiB while H is used (n <= 2048), shares the packing of H across them.
_FORM_ROWS = 128


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


def _inverse_cdf(dist: SamplingDistribution, u: np.ndarray) -> np.ndarray:
    """Group of every variate in ``u``, bit for bit ``searchsorted(dist.cdf, u, side="right")``.

    A variate starts at ``dist.guide[floor(fl(u · k))]``, which is never past
    its group, and steps forward while ``cdf[g] <= u``; that also skips
    zero-probability groups.  After ``_GUIDE_STEPS`` steps the variates still
    short of their group are found by binary search, so a skewed distribution
    costs no more than a search.
    """
    cdf = dist.cdf
    groups = dist.guide[(u * cdf.size).astype(np.intp)]
    for _ in range(_GUIDE_STEPS):
        groups += cdf[groups] <= u
    short = cdf[groups] <= u
    if short.any():
        groups[short] = np.searchsorted(cdf, u[short], side="right")
    return groups


def sample_indices(dist: SamplingDistribution, c: int, seed: int) -> np.ndarray:
    """c categorical draws from ``dist`` by inverse CDF, each found from the guide table.

    Draw i consumes the i-th variate of the Philox stream keyed by ``seed``,
    so the draw list does not depend on evaluation order or batching.
    Zero-probability groups occupy empty CDF intervals and are never drawn.
    """
    _check_sample_count(c)
    return _inverse_cdf(dist, uniform_stream(seed, c)).astype(np.int64, copy=False)


def _draw_block(dist: SamplingDistribution, c: int, seeds) -> np.ndarray:
    """Per-group draw counts of a block of trials, one row per seed.

    Row t is bit for bit ``bincount(sample_indices(dist, c, seeds[t]))``:
    each seed's c variates fill one row and the guide-table lookup finds
    every variate's group in place, with no sort (``bincount`` ignores
    order).  Offsetting row t's groups by ``t * k`` lets one ``bincount``
    count the whole block.
    """
    trials, k = len(seeds), dist.weights.size
    groups = _inverse_cdf(dist, uniform_rows(seeds, c))
    groups += k * np.arange(trials)[:, None]
    return np.bincount(groups.ravel(), minlength=trials * k).reshape(trials, k)


def _is_transpose(a: np.ndarray, b: np.ndarray) -> bool:
    """True when ``b`` is ``a.T``: the same buffer read with reversed shape and strides."""
    return (b.shape == a.shape[::-1] and b.strides == a.strides[::-1]
            and b.ctypes.data == a.ctypes.data)


def _scaled_product(panel: np.ndarray, b: np.ndarray, idx: np.ndarray, scale: np.ndarray, gram: bool) -> np.ndarray:
    """``A[:, idx] · diag(scale) · b[idx, :]`` as one BLAS product over the gathered rows ``x = panel[idx]``.

    ``panel`` is ``Aᵀ``; when C-contiguous, each gathered row is one contiguous copy.
    When ``gram`` (``b`` is ``A.T``) it is ``x.T @ x`` with ``x`` scaled by
    ``sqrt(scale)``, which NumPy hands to BLAS ``syrk``: half the flops of a
    GEMM, and an exactly symmetric estimate.  ``scale`` must then be
    positive.  Any other ``b`` takes one GEMM with ``x`` scaled by ``scale``.
    """
    x = panel[idx]
    x *= (np.sqrt(scale) if gram else scale)[:, None]
    return x.T @ (x if gram else b[idx])


def sketch(a: np.ndarray, b: np.ndarray, partition: Partition,
           dist: SamplingDistribution, cfg: SketchConfig) -> SketchResult:
    """Estimate ``a @ b`` from c rescaled block products drawn under ``dist``.

    The estimate is ``a[:, J] · diag(s[J]) · b[J, :]`` over the drawn inner
    indices J in ascending order, so the draw multiset, not the draw order,
    determines it.  Every drawn group has positive probability by
    construction of the sampler.  This is ``sketch_from_draws`` of the draws
    ``sample_indices(dist, cfg.c, cfg.seed)``.
    """
    return sketch_from_draws(a, b, partition, dist, sample_indices(dist, cfg.c, cfg.seed))


def sketch_trials(a: np.ndarray, b: np.ndarray, cells) -> Iterator[SketchResult]:
    """Lazily, one sketch per seed of every cell of ``cells`` (cells and seeds in order).

    ``cells`` is a sequence of ``(partition, dist, c, seeds)``, as for ``frobenius_errors``;
    seed t of a cell gives bit for bit ``sketch(a, b, partition, dist, SketchConfig(c, seeds[t]))``.
    Every cell's plan is checked on this call, before any draw.  Trials are drawn a block
    at a time (``_draw_block``), each block's ``(trials, n)`` scale matrix built in one
    step, and every estimate gathers its rows from one ``Aᵀ`` panel copied once per call.
    """
    for partition, dist, c, _ in cells:
        _check_plan(a, b, partition, dist)
        _check_sample_count(c)
    return _sketch_cells(a, b, cells)


def _trials_per_block(c: int, n: int) -> int:
    """Trials per block: the block's (trials, c) variates and (trials, n) scales stay within
    ``_BLOCK_ENTRIES`` entries, unless one trial alone exceeds it."""
    return max(1, _BLOCK_ENTRIES // max(c, n))


def _scales(partition: Partition, dist: SamplingDistribution, c: int, counts: np.ndarray) -> np.ndarray:
    """Per-index scales ``s_j = count[g(j)] / (c · p[g(j)])`` (0 when undrawn) of per-group
    ``counts``, one row per row of counts."""
    group_scale = np.divide(counts, c * dist.weights, out=np.zeros(counts.shape), where=counts > 0)
    return group_scale[..., partition.labels]


def _block_scales(partition: Partition, dist: SamplingDistribution, c: int,
                  seeds) -> tuple[np.ndarray, np.ndarray]:
    """``(counts, scales)`` of one block of seeds: its per-group draw counts and its
    ``(trials, n)`` scale matrix (``_scales``)."""
    counts = _draw_block(dist, c, seeds)
    return counts, _scales(partition, dist, c, counts)


def _result(panel: np.ndarray, b: np.ndarray, counts: np.ndarray, scale: np.ndarray, gram: bool) -> SketchResult:
    idx = np.flatnonzero(scale)
    return SketchResult(_frozen(_scaled_product(panel, b, idx, scale[idx], gram)), counts)


def _sketch_cells(a, b, cells) -> Iterator[SketchResult]:
    panel = np.ascontiguousarray(a.T)
    gram = _is_transpose(a, b)
    for partition, dist, c, seeds in cells:
        per_block = _trials_per_block(c, partition.n)
        for lo in range(0, len(seeds), per_block):
            counts, scales = _block_scales(partition, dist, c, seeds[lo:lo + per_block])
            for row_counts, scale in zip(counts, scales):
                yield _result(panel, b, row_counts, scale, gram)


def sketch_from_draws(a: np.ndarray, b: np.ndarray, partition: Partition,
                      dist: SamplingDistribution, draws: np.ndarray) -> SketchResult:
    """The sketch whose c = ``len(draws)`` draws are the group indices ``draws``.

    Its counts are ``bincount(draws)``.  ``sketch`` passes ``sample_indices(dist, c, seed)``,
    whose counts are the ones ``sketch_trials`` draws for that seed (``_draw_block``'s
    contract), so a caller holding a draw log forms its sketch without drawing again.
    Raises ``ValueError`` unless the plan checks, c >= 1 and every draw is a group of
    positive probability.
    """
    _check_plan(a, b, partition, dist)
    _check_sample_count(len(draws))
    draws = np.asarray(draws)
    if draws.dtype.kind not in "iu" or draws.min() < 0 or draws.max() >= partition.k:
        raise ValueError(f"draws must be group indices in [0, {partition.k})")
    counts = np.bincount(draws, minlength=partition.k)
    if np.any(counts[dist.weights == 0]):
        raise ValueError("draws hold a group of probability 0")
    return _result(a.T, b, counts, _scales(partition, dist, len(draws), counts), _is_transpose(a, b))


def error_form(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``H = (AᵀA) ∘ (BBᵀ)``, read-only: ``|A·diag(u)·B|_F² = uᵀHu`` for every ``u``.

    ``H`` is n×n and depends only on ``(a, b)``, so one ``H`` serves every
    plan and sample count on them.  It is built in its own buffer, squared
    in place when ``b`` is ``a.T`` (``AᵀA`` is then one ``syrk``).
    """
    _check_conformable(a, b)
    h = a.T @ a
    h *= h if _is_transpose(a, b) else b @ b.T
    return _frozen(h)


def frobenius_errors(h: np.ndarray, cells) -> list[np.ndarray]:
    """Squared Frobenius errors ``|AB - sketch(...).estimate|_F²`` of every trial of ``cells``, with no estimate formed.

    ``h`` is ``error_form(a, b)`` and ``cells`` a sequence of
    ``(partition, dist, c, seeds)``; the result holds one array per cell, of
    one error per seed.  Trial t of a cell draws the counts of
    ``sketch(a, b, partition, dist, SketchConfig(c, seeds[t]))`` and its error
    is ``uᵀHu`` with ``u = 1 - s``.  Every cell's plan is checked, with ``h``
    standing in for both factors, before any draw.  The ``u`` rows of all
    cells fill one ``(_FORM_ROWS, n)`` buffer in order, and each full buffer
    (and the last, partial one) takes one GEMM against ``H``, so an error's
    last bits are fixed by the whole cell list, not by its cell alone.
    ``H`` is positive semidefinite (Schur product theorem), so a negative
    value is rounding and is clamped to 0.  The ``u`` form is kept on
    purpose: expanding it to ``|AB|² - 2sᵀd + sᵀHs`` cancels.
    """
    for partition, dist, c, _ in cells:
        _check_plan(h, h, partition, dist)
        _check_sample_count(c)
    sizes = [len(seeds) for *_, seeds in cells]
    out = np.empty(sum(sizes))
    u = np.empty((min(_FORM_ROWS, out.size), h.shape[0]))
    done = fill = 0
    for partition, dist, c, seeds in cells:
        per_block = _trials_per_block(c, partition.n)
        lo = 0
        while lo < len(seeds):
            take = min(per_block, len(u) - fill, len(seeds) - lo)
            _, scales = _block_scales(partition, dist, c, seeds[lo:lo + take])
            np.subtract(1.0, scales, out=u[fill:fill + take])
            lo += take
            fill += take
            if fill == len(u):
                _quadratic_forms(u, h, out[done:done + fill])
                done, fill = done + fill, 0
    _quadratic_forms(u[:fill], h, out[done:done + fill])
    np.maximum(out, 0.0, out=out)
    return [out[end - size:end] for size, end in zip(sizes, accumulate(sizes))]


def _quadratic_forms(u: np.ndarray, h: np.ndarray, out: np.ndarray) -> None:
    """``out[i] = u[i]ᵀ h u[i]`` for every row of ``u``, from one GEMM."""
    uh = u @ h
    uh *= u
    uh.sum(axis=1, out=out)


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
    return _frozen(_scaled_product(a.T, b, idx, scale, _is_transpose(a, b)))


def pairwise_plan(a: np.ndarray, b: np.ndarray,
                  strategy: PairingStrategy) -> tuple[Partition, SamplingDistribution]:
    """The pair partition and aggregated distribution a pairwise sketch samples from.

    Builds the per-index optimal probabilities, orders and pairs them by the
    strategy, and assigns each pair the sum of its members' probabilities.
    """
    p_finest = optimal_distribution(a, b, finest(a.shape[1]))
    partition = pair_partition(p_finest.weights, strategy)
    return partition, aggregate_distribution(p_finest, partition)


def draw_log_json(cfg: SketchConfig, draws: np.ndarray, counts: np.ndarray) -> str:
    """JSON draw log {"draws": 1-based group indices, "counts", "seed", "c"}.

    ``draws``, in draw order, are ``sample_indices(dist, cfg.c, cfg.seed)`` and
    ``counts`` their per-group counts, as ``sketch_from_draws`` took them.
    """
    payload = {
        "draws": (draws + 1).tolist(),
        "counts": counts.tolist(),
        "seed": int(cfg.seed),
        "c": int(cfg.c),
    }
    return json.dumps(payload, sort_keys=True)
