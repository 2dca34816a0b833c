"""The randomized sketch engine.

A sketch draws c group indices from a plan's distribution over a partition of
the inner dimension and forms ``A · diag(s) · B`` with
``s_j = count[g(j)] / (c · p[g(j)])`` by one BLAS product per block of the
drawn indices.  Draws come from a counter-based stream, each variate's group
found by the distribution's guide table with no sort, so a plan, a config and
the BLAS thread count fix the result bit for bit: neither other trials nor A's
memory layout move it.  ``sketch_trials`` runs a list of ``(plan, c, seeds)``
cells on one (A, B), with the results of one ``sketch`` per seed, and
``frobenius_errors`` returns the squared errors of the same trials, from
``uᵀHu`` while ``H`` fits its memory cap and from the estimates past it.  Both
check every cell and seed before any draw, then draw by one block loop
(``_blocks``) from one ``RowStream`` per call.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .distributions import Plan, SamplingDistribution, _optimal_plan, _plan_on, pairing_plan
from .matrices import _BLOCK_ENTRIES, _is_transpose, _pair
from .partitions import PairingStrategy, Partition, finest
from .rng import RowStream, _check_count, philox_key

# A gather block holds at least this many times max(m, rho) rows (m = A's rows,
# rho = B's columns), so its product, 2·rows·m·rho flops, outweighs the m x rho
# sum that adds it to the estimate.  At 4, a 1560-row estimate at m = 300 took
# two blocks and ran ~5% slower than one product (1 BLAS thread, a Xeon with
# 2 MiB of L2 a core); at 6 it is one block.
_BLOCK_FACTOR = 6

# The largest c whose draw temporaries fit 2 GiB: ``sample_indices`` holds c float64
# variates, their intp groups and either their intp guide buckets or a float64 and a
# bool temporary of the guide-table step at once, 8 + 8 + 8 + 1 = 25 bytes a draw,
# counted as 32: 2**31 // 32 = 2**26.  When guide_steps > 1 the check pass adds a copy
# and a group of each variate left to binary search, 16 bytes; those lie in the buckets
# holding at least 2 CDF boundaries, at most k/2 of the 2k buckets, so a quarter of the
# variates in expectation, ~4 bytes a draw, and 25 + 4 <= 32.
_MAX_DRAWS = 2 ** 31 // 32

# Trials per GEMM against H in frobenius_errors: one (rows, n) buffer of u, at
# most 2 MiB while H is used (n <= 2048), shares the packing of H across them.
# Measured (ROADMAP, "Where the time goes"): fig1 at 100x2000 takes 62.6, 64.8,
# 73.7 and 77.3 ms at 256, 128, 64 and 32 rows; desk reads the same at all four.
_FORM_ROWS = 128

# frobenius_errors takes its errors from H exactly when H holds at most this
# many float64 entries (32 MiB, n <= 2048); a wider A takes the estimates, whose
# memory does not grow with n².  Measured (CHANGES.md): fig1 on H takes 0.53x the
# estimates' time at desk and 0.84x at 100x2000, so the cap reaches the paper's n.
_ERROR_FORM_ENTRIES = 2 ** 22


@dataclass(frozen=True)
class SketchConfig:
    """Sample count and master seed of one sketch; the seed is the draws' key (``philox_key``).
    Construction raises ``ValueError`` unless c is an integer >= 1 (``_check_count``) and the seed a key."""

    c: int
    seed: int

    def __post_init__(self):
        _check_count(self.c, "sample count")
        philox_key(self.seed)


@dataclass(frozen=True, eq=False)
class SketchResult:
    """Estimate and per-group draw counts of one sketch, both read-only."""

    estimate: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        self.estimate.flags.writeable = False
        self.counts.flags.writeable = False


def _check_draw_count(c) -> None:
    """Raise ``ValueError`` unless c is an integer >= 1 (``_check_count``) and at most ``_MAX_DRAWS``."""
    if _check_count(c, "sample count") > _MAX_DRAWS:
        raise ValueError(f"sample count must be <= {_MAX_DRAWS} (2 GiB of draw temporaries), got {c}")


def _inverse_cdf(dist: SamplingDistribution, u: np.ndarray) -> np.ndarray:
    """Group of every variate in ``u``, bit for bit ``searchsorted(dist.cdf, u, side="right")``.

    A variate in bucket ``j = floor(fl(u · 2k))`` starts at ``dist.guide[j]``, which is never
    past its group and at most ``dist.guide_steps`` groups short of it, and takes one step
    forward if ``cdf[g] <= u``; that also skips a zero-probability group.  One step finds every
    group when ``guide_steps`` is at most 1, as on every near-uniform distribution, and the
    lookup does nothing else.  Otherwise every variate is checked, and those still short of
    their group are found by binary search, so the lookup costs no more than a search.
    """
    cdf, guide = dist.cdf, dist.guide
    groups = guide[(u * (guide.size - 1)).astype(np.intp)]
    groups += cdf[groups] <= u
    if dist.guide_steps > 1:
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


def _block_rows(panel: np.ndarray, b: np.ndarray) -> int:
    """Most rows one gather block of an estimate from ``panel`` (``Aᵀ``, m columns) and ``b``
    (ρ columns) holds: ``_BLOCK_ENTRIES`` entries, but never fewer than ``_BLOCK_FACTOR · max(m, ρ)``
    rows (600 at the paper's 100×2000 A with B = Aᵀ)."""
    m = panel.shape[1]
    return max(_BLOCK_ENTRIES // m, _BLOCK_FACTOR * max(m, b.shape[1]))


def _estimator(a: np.ndarray, b: np.ndarray, most: int) -> Callable[..., SketchResult]:
    """One call's estimator of ``a @ b``, mapping a trial's ``(counts, scale)`` to its ``SketchResult``:
    it gathers rows of the panel ``a.T`` through one buffer of ``min(most, _block_rows(a.T, b))`` rows
    (``most`` bounds a trial's nonzero scales), so the buffer does not grow with n."""
    rows = np.empty((min(most, _block_rows(a.T, b)), a.shape[0]))
    gram = _is_transpose(a, b)

    def estimate(counts: np.ndarray, scale: np.ndarray) -> SketchResult:
        idx = np.flatnonzero(scale)
        return SketchResult(_scaled_product(a.T, b, idx, scale[idx], gram, rows), counts)

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
    """Estimate ``a @ b`` from c rescaled block products drawn under ``dist``: ``sketch_from_draws``
    of ``sample_indices(dist, cfg.c, cfg.seed)`` under ``Plan(a, b, dist)``.

    The estimate is ``a[:, J] · diag(s[J]) · b[J, :]`` over the drawn inner indices J in ascending
    order, so the draw multiset, not the draw order, determines it.  Raises ``ValueError`` unless
    ``partition`` is ``dist.support`` and that plan builds.
    """
    return sketch_from_draws(_plan_on(a, b, partition, dist), sample_indices(dist, cfg.c, cfg.seed))


def sketch_trials(cells) -> Iterator[SketchResult]:
    """Lazily, one sketch per seed of every cell of ``cells`` (cells and seeds in order).

    ``cells`` is a sequence of ``(plan, c, seeds)``; seed t of a cell gives bit for bit
    ``sketch`` of the plan's pieces and ``SketchConfig(c, seeds[t])``.  Unless every plan
    holds the first plan's ``a`` and ``b`` objects, every c passes ``_check_draw_count`` and
    every seed passes ``philox_key``, this call raises ``ValueError`` before any draw; the first
    plan's ``with_distribution`` builds the others.  Trials are drawn a block at a time
    (``_blocks``), and every estimate gathers its rows from the ``Aᵀ`` panel ``a.T`` through one
    buffer per call (``_estimator``), in blocks of at most ``_block_rows`` rows
    (``_scaled_product``).  The panel is C-contiguous: every plan a caller can build holds a column-major A.
    """
    for plan, c, seeds in cells:
        if plan.a is not cells[0][0].a or plan.b is not cells[0][0].b:
            raise ValueError("every cell's plan must hold the first cell's matrices: build the others with its with_distribution")
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
        per_block = _trials_per_block(c, plan.distribution.support.n)
        for lo in range(0, len(seeds), per_block):
            counts = _draw_block(stream, plan.distribution, c, seeds[lo:lo + per_block])
            yield counts, _scales(plan.distribution, c, counts)


def _sketch_cells(cells) -> Iterator[SketchResult]:
    if not cells:
        return
    a, b = cells[0][0].a, cells[0][0].b
    # c draws reach at most c groups, so a trial gathers at most c times the largest group's rows
    most = max(min(a.shape[1], c * int(np.diff(plan.distribution.support.offsets).max())) for plan, c, _ in cells)
    estimate = _estimator(a, b, most)
    for counts, scales in _blocks(cells):
        yield from map(estimate, counts, scales)


def sketch_from_draws(plan: Plan, draws: np.ndarray) -> SketchResult:
    """The sketch under ``plan`` whose c = ``len(draws)`` draws are the group indices ``draws``.

    Its counts are ``bincount(draws)``.  ``sketch`` passes ``sample_indices(dist, c, seed)``,
    whose counts are the ones ``sketch_trials`` draws for that seed (``_draw_block``'s
    contract), so a caller holding a draw log forms its sketch without drawing again.
    Raises ``ValueError`` unless c >= 1 and ``draws`` is 1-d, of groups of positive probability.
    """
    k, dist = plan.distribution.support.k, plan.distribution
    draws = np.asarray(draws)
    _check_count(draws.size, "sample count")
    if draws.ndim != 1 or draws.dtype.kind not in "iu" or draws.min() < 0 or draws.max() >= k:
        raise ValueError(f"draws must be group indices in [0, {k})")
    counts = np.bincount(draws, minlength=k)
    if np.any(counts[dist.weights == 0]):
        raise ValueError("draws hold a group of probability 0")
    scale = _scales(dist, draws.size, counts)
    return _estimator(plan.a, plan.b, np.count_nonzero(scale))(counts, scale)


def frobenius_errors(cells) -> list[np.ndarray]:
    """Squared Frobenius errors ``|AB - sketch(...).estimate|_F²`` of every trial of ``cells``.

    ``cells`` are ``sketch_trials``' cells, checked by that call before any draw; the
    result holds one array per cell, of one error per seed, from the counts ``sketch_trials``
    draws.  When the n×n ``H = (AᵀA) ∘ (BBᵀ)`` of the plans' matrices fits ``_ERROR_FORM_ENTRIES``,
    ``|A·diag(u)·B|_F² = uᵀHu`` for every ``u``, so ``H`` is built once, squared in place when B is
    Aᵀ (``AᵀA`` is then one ``syrk``), and a trial's error is ``uᵀHu`` with ``u = 1 - s``, with
    no estimate formed: the ``u`` rows of all cells are taken ``_FORM_ROWS`` at a time in order,
    each group in one GEMM against ``H``, so an error's last bits are fixed by the whole cell list,
    not by its cell alone.  ``H`` is positive semidefinite (Schur product theorem), so a negative value
    is rounding and is clamped to 0.  The ``u`` form is kept on purpose: expanding it to
    ``|AB|² - 2sᵀd + sᵀHs`` cancels.  Past the cap an error is
    ``sum(square(a @ b - estimate))`` of ``sketch_trials``' estimate, whose memory does not
    grow with n², with ``a @ b`` of the plan's A, which is column-major, so the layout a caller
    held A in moves no bit.
    """
    results = sketch_trials(cells)  # the cell check; it draws only when read
    if not cells:
        return []
    a, b = cells[0][0].a, cells[0][0].b
    ends = list(accumulate(len(seeds) for *_, seeds in cells))
    if a.shape[1] ** 2 <= _ERROR_FORM_ENTRIES:
        h = a.T @ a
        h *= h if _is_transpose(a, b) else b @ b.T
        errors = np.empty(ends[-1])
        for lo, u in zip(range(0, errors.size, _FORM_ROWS), _form_rows(cells, a.shape[1])):
            uh = u @ h
            uh *= u
            uh.sum(axis=1, out=errors[lo:lo + len(u)])
        np.maximum(errors, 0.0, out=errors)
    else:
        exact = a @ b
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


def pairwise_plan(a, b, strategy: PairingStrategy) -> tuple[Partition, SamplingDistribution]:
    """``pairing_plan`` of the finest optimal plan of ``a @ b`` (``_pair``), as its (partition, distribution)."""
    a, b = _pair(a, b)
    dist = pairing_plan(_optimal_plan(a, b, finest(a.shape[1])), strategy).distribution
    return dist.support, dist


def draw_log_json(cfg: SketchConfig, draws: np.ndarray, counts: np.ndarray) -> str:
    """JSON draw log {"draws": 1-based group indices, "counts", "seed", "c"}.

    ``draws``, in draw order, are ``sample_indices(dist, cfg.c, cfg.seed)`` and
    ``counts`` their per-group counts, as ``sketch_from_draws`` took them.
    """
    return json.dumps({"draws": (draws + 1).tolist(), "counts": counts.tolist(), "seed": int(cfg.seed),
                       "c": int(cfg.c)}, sort_keys=True)
