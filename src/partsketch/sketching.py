"""The randomized sketch engine.

A sketch draws c group indices from a sampling distribution over a partition
of the inner dimension and forms ``A · diag(s) · B`` with
``s_j = count[g(j)] / (c · p[g(j)])`` by one BLAS product per block of the
drawn indices.  Draws come from a counter-based stream, each variate's group found
by the distribution's guide table with no sort, so a (matrices, partition,
distribution, config) tuple and the BLAS thread count fix the result bit for
bit.  A result keeps only the estimate and the per-group counts; the draws
in order are ``sample_indices`` of the same stream, and ``sketch_from_draws``
forms the same result from them.  ``sketch_trials`` runs a list of
``(plan, c, seeds)`` cells on one (A, B) from one ``Aᵀ`` panel, drawing them
in blocks, with the results of one ``sketch`` per seed; the panel is a view
when A is column-major, as an experiment's A is.  Every estimate gathers,
scales and multiplies its drawn rows in balanced blocks of at most
``_block_rows`` rows through one buffer per call, and sums the block products
in ascending index order, so the buffer does not grow with n and an
estimate's bits are fixed by its own drawn rows and that block rule, not by
other trials or A's memory layout.

``frobenius_errors`` takes the same cells and draws the same counts, and
returns each trial's squared error ``|AB - A·diag(s)·B|_F²``.  While ``H``
fits its memory cap (``_ERROR_FORM_ENTRIES``, n <= 2048) that is the quadratic
form ``uᵀHu`` with ``u = 1 - s`` and ``H = (AᵀA) ∘ (BBᵀ)`` (``error_form``),
one GEMM against ``H`` per ``_FORM_ROWS`` trials across its cells; past the cap
it is taken from the estimates of ``sketch_trials``.  On the ``H`` path a
trial's last bits depend on which rows share its GEMM: the call's cell list
fixes them.  Both calls check every cell and seed before any draw, then draw
by one block loop (``_blocks``) from one ``RowStream`` per call.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .distributions import (Plan, SamplingDistribution, _check_draw_count, _check_sample_count,
                            optimal_plan, pairing_plan)
from .matrices import _check_conformable, _frozen
from .partitions import PairingStrategy, Partition, finest
from .rng import RowStream, philox_key

# Entries per block temporary in sketch_trials and frobenius_errors (256 KiB
# of float64): enough to amortise the per-call costs over many small trials,
# small enough that a block of large trials adds little to peak memory.  It
# also sizes an estimate's gather blocks and experiment_matrix's write blocks.
_BLOCK_ENTRIES = 2 ** 15

# A gather block holds at least this many times max(m, rho) rows (m = A's rows,
# rho = B's columns), so its product, 2·rows·m·rho flops, outweighs the m x rho
# sum that adds it to the estimate.  At 4, a 1560-row estimate at m = 300 took
# two blocks and ran ~5% slower than one product (1 BLAS thread, a Xeon with
# 2 MiB of L2 a core); at 6 it is one block.
_BLOCK_FACTOR = 6

# The most forward steps a guide-table lookup takes.  A distribution whose
# guide_steps exceeds it (a skewed one) takes this many, then checks every
# variate and leaves those still short of their group to binary search.
_GUIDE_STEPS = 2

# Trials per GEMM against H in frobenius_errors: one (rows, n) buffer of u, at
# most 2 MiB while H is used (n <= 2048), shares the packing of H across them.
_FORM_ROWS = 128

# frobenius_errors takes its errors from H exactly when H holds at most this
# many float64 entries (32 MiB, n <= 2048), so the paper's 100x2000 shape fits;
# a wider A takes the estimates, whose memory does not grow with n².
_ERROR_FORM_ENTRIES = 2 ** 22


@dataclass(frozen=True)
class SketchConfig:
    """Sample count and master seed of one sketch; the seed is the draws' key (``philox_key``)."""

    c: int
    seed: int

    def __post_init__(self):
        _check_sample_count(self.c)
        philox_key(self.seed)


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

    A variate in bucket ``j = floor(fl(u · 2k))`` starts at ``dist.guide[j]``, which is never
    past its group, and steps forward while ``cdf[g] <= u``; that also skips zero-probability
    groups.  ``dist.guide_steps`` steps find every group, so when that is at most ``_GUIDE_STEPS``
    the lookup takes them and nothing else.  A skewed distribution takes ``_GUIDE_STEPS`` steps,
    and the variates still short of their group are found by binary search, so it costs no more
    than a search.
    """
    cdf, guide = dist.cdf, dist.guide
    groups = guide[(u * (guide.size - 1)).astype(np.intp)]
    for _ in range(min(dist.guide_steps, _GUIDE_STEPS)):
        groups += cdf[groups] <= u
    if dist.guide_steps > _GUIDE_STEPS:
        short = cdf[groups] <= u
        if short.any():
            groups[short] = np.searchsorted(cdf, u[short], side="right")
    return groups


def sample_indices(dist: SamplingDistribution, c: int, seed: int) -> np.ndarray:
    """c categorical draws from ``dist`` by inverse CDF, each found from the guide table.

    Draw i consumes the i-th variate of the Philox stream keyed by ``philox_key(seed)``,
    so the draw list does not depend on evaluation order or batching.
    Zero-probability groups occupy empty CDF intervals and are never drawn.
    Raises ``ValueError`` unless ``_check_draw_count`` and ``philox_key`` pass, before any draw.
    """
    _check_draw_count(c)
    return _inverse_cdf(dist, RowStream().rows([seed], c)[0]).astype(np.int64, copy=False)


def _draw_block(stream: RowStream, dist: SamplingDistribution, c: int, seeds) -> np.ndarray:
    """Per-group draw counts of a block of trials, one row per seed.

    Row t is bit for bit ``bincount(sample_indices(dist, c, seeds[t]))``:
    each seed's c variates, read from ``stream``, fill one row and the guide-table
    lookup finds every variate's group in place, with no sort (``bincount`` ignores
    order).  Offsetting row t's groups by ``t * k`` lets one ``bincount``
    count the whole block.
    """
    trials, k = len(seeds), dist.weights.size
    groups = _inverse_cdf(dist, stream.rows(seeds, c))
    groups += k * np.arange(trials)[:, None]
    return np.bincount(groups.ravel(), minlength=trials * k).reshape(trials, k)


def _is_transpose(a: np.ndarray, b: np.ndarray) -> bool:
    """True when ``b`` is ``a.T``: the same buffer read with reversed shape and strides."""
    return b.shape == a.shape[::-1] and b.strides == a.strides[::-1] and b.ctypes.data == a.ctypes.data


def _block_rows(panel: np.ndarray, b: np.ndarray) -> int:
    """Most rows one gather block of an estimate from ``panel`` (``Aᵀ``, m columns) and ``b``
    (ρ columns) holds: ``_BLOCK_ENTRIES`` entries, but never fewer than ``_BLOCK_FACTOR · max(m, ρ)``
    rows (600 at the paper's 100×2000 A with B = Aᵀ)."""
    m = panel.shape[1]
    return max(_BLOCK_ENTRIES // m, _BLOCK_FACTOR * max(m, b.shape[1]))


def _estimator(a: np.ndarray, b: np.ndarray, panel: np.ndarray, most: int) -> Callable[..., SketchResult]:
    """One call's estimator of ``a @ b``, mapping a trial's ``(counts, scale)`` to its ``SketchResult``:
    it gathers ``panel`` (``Aᵀ``) rows through one buffer of ``min(most, _block_rows(panel, b))`` rows
    (``most`` bounds a trial's nonzero scales), so the buffer does not grow with n."""
    rows = np.empty((min(most, _block_rows(panel, b)), panel.shape[1]))
    gram = _is_transpose(a, b)

    def estimate(counts: np.ndarray, scale: np.ndarray) -> SketchResult:
        idx = np.flatnonzero(scale)
        return SketchResult(_scaled_product(panel, b, idx, scale[idx], gram, rows), counts)

    return estimate


def _scaled_product(panel: np.ndarray, b: np.ndarray, idx: np.ndarray, scale: np.ndarray, gram: bool,
                    x: np.ndarray) -> np.ndarray:
    """``A[:, idx] · diag(scale) · b[idx, :]`` over the rows ``panel[idx]``, gathered into ``x``, a
    C-contiguous array of at least ``min(idx.size, _block_rows(panel, b))`` rows whose contents are
    overwritten.

    ``idx`` is split into the fewest balanced blocks of at most ``_block_rows`` rows (sizes differ
    by at most one).  Each block is gathered into a prefix of ``x``, scaled and multiplied by one
    BLAS product, and the block products are summed in ascending index order; an ``idx`` that fits
    one block is one product, with no sum.  ``panel`` is ``Aᵀ``; when C-contiguous, each gathered
    row is one contiguous copy.  When ``gram`` (``b`` is ``A.T``) a block's product is ``x.T @ x``
    with ``x`` scaled by ``sqrt(scale)``, which NumPy hands to BLAS ``syrk``: half the flops of a
    GEMM, and an exactly symmetric estimate.  ``scale`` must then be positive.  Any other ``b``
    takes one GEMM per block with ``x`` scaled by ``scale`` and the block's rows of ``b``.
    """
    factor = np.sqrt(scale) if gram else scale

    def product(lo: int, hi: int, out=None) -> np.ndarray:
        rows = x[:hi - lo]
        # mode="raise" would buffer ``rows``; every idx comes from flatnonzero, so is in range
        np.take(panel, idx[lo:hi], axis=0, out=rows, mode="clip")
        rows *= factor[lo:hi, None]
        return np.matmul(rows.T, rows if gram else b[idx[lo:hi]], out=out)

    blocks = -(-idx.size // _block_rows(panel, b))
    ends = [idx.size * i // blocks for i in range(1, blocks + 1)]
    estimate = product(0, ends[0])
    if blocks > 1:
        part = np.empty_like(estimate)  # every later block's product, added in place
        for lo, hi in zip(ends, ends[1:]):
            estimate += product(lo, hi, part)
    return estimate


def sketch(a: np.ndarray, b: np.ndarray, partition: Partition,
           dist: SamplingDistribution, cfg: SketchConfig) -> SketchResult:
    """Estimate ``a @ b`` from c rescaled block products drawn under ``dist``.

    The estimate is ``a[:, J] · diag(s[J]) · b[J, :]`` over the drawn inner
    indices J in ascending order, so the draw multiset, not the draw order,
    determines it.  Every drawn group has positive probability by
    construction of the sampler.  This is ``sketch_from_draws`` of the draws
    ``sample_indices(dist, cfg.c, cfg.seed)`` under ``Plan(a, b, partition, dist)``.
    """
    return sketch_from_draws(Plan(a, b, partition, dist), sample_indices(dist, cfg.c, cfg.seed))


def sketch_trials(cells) -> Iterator[SketchResult]:
    """Lazily, one sketch per seed of every cell of ``cells`` (cells and seeds in order).

    ``cells`` is a sequence of ``(plan, c, seeds)``; seed t of a cell gives bit for bit
    ``sketch`` of the plan's pieces and ``SketchConfig(c, seeds[t])``.  Unless every plan
    holds the first plan's ``a`` and ``b`` objects, every c passes ``_check_draw_count`` and
    every seed passes ``philox_key``, this call raises ``ValueError`` before any draw.  Trials
    are drawn a block at a time (``_blocks``), and every estimate gathers its rows from one
    C-contiguous ``Aᵀ`` panel through one buffer per call (``_estimator``), in blocks of at
    most ``_block_rows`` rows (``_scaled_product``).  The panel is a view of a column-major A,
    as ``experiment_matrix`` returns it, and is copied once per call from any other A.
    """
    for plan, c, seeds in cells:
        if plan.a is not cells[0][0].a or plan.b is not cells[0][0].b:
            raise ValueError("every cell's plan must hold the first cell's matrices")
        _check_draw_count(c)
        for seed in seeds:
            philox_key(seed)
    return _sketch_cells(cells)


def _trials_per_block(c: int, n: int) -> int:
    """Trials per block: the block's (trials, c) variates and (trials, n) scales stay within
    ``_BLOCK_ENTRIES`` entries, unless one trial alone exceeds it."""
    return max(1, _BLOCK_ENTRIES // max(c, n))


def _scales(dist: SamplingDistribution, c: int, counts: np.ndarray) -> np.ndarray:
    """Per-index scales ``s_j = count[g(j)] / (c · p[g(j)])`` (0 when undrawn) of per-group
    ``counts``, one row per row of counts; g is read off ``dist.support``.  A group of
    probability 0 is never drawn, so its count 0 is divided by 1 instead: every scale is
    ``count / (c · p)`` or an exact 0, with no masked division."""
    w = dist.weights
    group_scale = counts / np.where(w > 0, c * w, 1.0)
    return group_scale[..., dist.support.labels]


def _blocks(cells) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """``(counts, scales)`` of every draw block of ``cells`` in order, one row per seed:
    each cell's seeds ``_trials_per_block`` at a time, counted by ``_draw_block`` from
    one ``RowStream`` that every block shares."""
    stream = RowStream()
    for plan, c, seeds in cells:
        per_block = _trials_per_block(c, plan.partition.n)
        for lo in range(0, len(seeds), per_block):
            counts = _draw_block(stream, plan.distribution, c, seeds[lo:lo + per_block])
            yield counts, _scales(plan.distribution, c, counts)


def _sketch_cells(cells) -> Iterator[SketchResult]:
    if not cells:
        return
    a, b = cells[0][0].a, cells[0][0].b
    # c draws reach at most c groups, so a trial gathers at most c times the largest group's rows
    most = max(min(plan.partition.n, c * int(np.diff(plan.partition.offsets).max())) for plan, c, _ in cells)
    estimate = _estimator(a, b, np.ascontiguousarray(a.T), most)  # the panel is a view when a is column-major
    for counts, scales in _blocks(cells):
        yield from map(estimate, counts, scales)


def sketch_from_draws(plan: Plan, draws: np.ndarray) -> SketchResult:
    """The sketch under ``plan`` whose c = ``len(draws)`` draws are the group indices ``draws``.

    Its counts are ``bincount(draws)``.  ``sketch`` passes ``sample_indices(dist, c, seed)``,
    whose counts are the ones ``sketch_trials`` draws for that seed (``_draw_block``'s
    contract), so a caller holding a draw log forms its sketch without drawing again.
    Raises ``ValueError`` unless c >= 1 and ``draws`` is 1-d, of groups of positive probability.
    """
    k, dist = plan.partition.k, plan.distribution
    draws = np.asarray(draws)
    _check_sample_count(draws.size)
    if draws.ndim != 1 or draws.dtype.kind not in "iu" or draws.min() < 0 or draws.max() >= k:
        raise ValueError(f"draws must be group indices in [0, {k})")
    counts = np.bincount(draws, minlength=k)
    if np.any(counts[dist.weights == 0]):
        raise ValueError("draws hold a group of probability 0")
    scale = _scales(dist, draws.size, counts)
    return _estimator(plan.a, plan.b, plan.a.T, np.count_nonzero(scale))(counts, scale)


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


def frobenius_errors(cells) -> list[np.ndarray]:
    """Squared Frobenius errors ``|AB - sketch(...).estimate|_F²`` of every trial of ``cells``.

    ``cells`` are ``sketch_trials``' cells, checked by that call before any draw; the
    result holds one array per cell, of one error per seed, from the counts ``sketch_trials``
    draws.  When the n×n ``H = error_form(a, b)`` fits ``_ERROR_FORM_ENTRIES``, it is built
    once and a trial's error is ``uᵀHu`` with ``u = 1 - s``, with no estimate formed: the
    ``u`` rows of all cells are taken ``_FORM_ROWS`` at a time in order, each group in one
    GEMM against ``H``, so an error's last bits are fixed by the whole cell list, not by its
    cell alone.  ``H`` is positive semidefinite (Schur product theorem), so a negative value
    is rounding and is clamped to 0.  The ``u`` form is kept on purpose: expanding it to
    ``|AB|² - 2sᵀd + sᵀHs`` cancels.  Past the cap an error is
    ``sum(square(a @ b - estimate))`` of ``sketch_trials``' estimate, whose memory does not
    grow with n², with ``a @ b`` taken from the ``Aᵀ`` panel, so A's memory layout moves no bit.
    """
    results = sketch_trials(cells)  # the cell check; it draws only when read
    if not cells:
        return []
    a, b = cells[0][0].a, cells[0][0].b
    ends = list(accumulate(len(seeds) for *_, seeds in cells))
    if a.shape[1] ** 2 <= _ERROR_FORM_ENTRIES:
        h = error_form(a, b)
        errors = np.empty(ends[-1])
        for lo, u in zip(range(0, errors.size, _FORM_ROWS), _form_rows(cells, a.shape[1])):
            uh = u @ h
            uh *= u
            uh.sum(axis=1, out=errors[lo:lo + len(u)])
        np.maximum(errors, 0.0, out=errors)
    else:
        panel = np.ascontiguousarray(a.T)  # the engine's operand: the same bits for either layout of a
        exact = panel.T @ (panel if _is_transpose(a, b) else b)
        errors = np.array([np.sum(np.square(exact - res.estimate)) for res in results])
    return [errors[lo:hi] for lo, hi in zip([0, *ends], ends)]


def _form_rows(cells, n: int) -> Iterator[np.ndarray]:
    """``u = 1 - s`` of every trial of ``cells`` in order, ``_FORM_ROWS`` rows at a time (fewer
    in the last group), each draw block written into one reused ``(_FORM_ROWS, n)`` buffer."""
    u = np.empty((_FORM_ROWS, n))
    fill = 0
    for _, scales in _blocks(cells):
        while len(scales):
            take = min(len(scales), _FORM_ROWS - fill)
            np.subtract(1.0, scales[:take], out=u[fill:fill + take])
            scales, fill = scales[take:], (fill + take) % _FORM_ROWS
            if not fill:
                yield u
    if fill:
        yield u[:fill]


def pairwise_plan(a: np.ndarray, b: np.ndarray,
                  strategy: PairingStrategy) -> tuple[Partition, SamplingDistribution]:
    """``pairing_plan`` of the finest optimal plan of ``a @ b``, as its (partition, distribution)."""
    plan = pairing_plan(optimal_plan(a, b, finest(a.shape[1])), strategy)
    return plan.partition, plan.distribution


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
