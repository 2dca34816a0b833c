"""Seeded Monte Carlo experiment harness.

Three experiments over a generated (or loaded) matrix A with B = A^T:

* fig1: mean relative Frobenius error vs sample count, per-index sampling
  against a pairwise strategy, plus the mean squared error so the closed-form
  expectation is directly checkable.
* fig2: raw per-run spectral relative errors at two sample counts, for
  external histogramming.
* table1: max/mean/min of the per-index optimal probabilities and of their
  pairwise aggregation.

Every output is a pure function of the config; reruns produce identical
bytes.  Trial t of a (method, sample count) cell is keyed by
``derive_seed(seed, experiment, method, c, t)``, so trials are independent
of execution order and of matrix generation, which uses its own substream.
Every experiment starts with one setup step, ``_methods``, and draws each cell
``(plan, c, seeds)`` in one batch, with the draws of one ``sketch`` per trial.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .distributions import Plan, _optimal_plan, distribution_stats, pairing_plan
from .errors import ConfigError
from .matrices import _BLOCK_ENTRIES, _frozen, frobenius_norm, read_matrix, spectral_norm, write_output
from .partitions import PAIRING_KINDS, PairingStrategy, finest
from .rng import _check_count, _is_integer, derive_seed, derive_seeds, generator
# ``sketch`` stays bound in this module: perfbench's tracer wraps it at every module that names it.
from .sketching import _check_draw_count, frobenius_errors, sketch, sketch_trials  # noqa: F401

FIG1_HEADER = "c,method,mean_rel_frob_err,mean_sq_frob_err,stderr,trials"
FIG2_HEADER = "method,c,run,rel_2norm_err"


@dataclass(frozen=True)
class ExperimentConfig:
    """Desk-scale defaults; ``paper_scale`` switches to the full-size setup.

    Construction raises :class:`ConfigError` on an invalid setting, so every config that exists
    can be run: every count is an integer (``_check_count``), ``cols`` at least 2, ``fig2_c`` None
    or a tuple, and ``c_max`` and ``fig2_c``'s entries draw counts (``_check_draw_count``).
    ``seed``, every substream's master seed (``derive_seed``), is any integer, no bool.
    """

    rows: int = 50
    cols: int = 500
    c_min: int = 250
    c_max: int = 1500
    c_step: int = 250
    trials: int = 200
    runs: int = 5000
    strategy: str = "enhanced"
    matrix_path: str | None = None
    seed: int = 0
    fig2_c: tuple[int, ...] | None = None

    def __post_init__(self):
        if not _is_integer(self.seed):
            raise ConfigError(f"seed must be an integer, got {self.seed!r}")
        if self.fig2_c is not None and not isinstance(self.fig2_c, tuple):
            raise ConfigError(f"fig2_c must be a tuple of sample counts or None, got {self.fig2_c!r}")
        try:
            for name in ("rows", "c_min", "c_step", "trials", "runs"):
                _check_count(getattr(self, name), name)
            _check_pairable(self.cols)
            for c in (self.c_max, *(self.fig2_c or ())):
                _check_draw_count(c)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if self.c_min > self.c_max:
            raise ConfigError(f"empty sample-count grid: min={self.c_min} max={self.c_max} step={self.c_step}")
        if self.fig2_c is not None and not self.fig2_c:
            raise ConfigError("fig2_c needs at least one sample count")
        if self.strategy not in PAIRING_KINDS:
            raise ConfigError(f"strategy must be one of {PAIRING_KINDS}, got {self.strategy!r}")

    def c_grid(self) -> list[int]:
        return list(range(self.c_min, self.c_max + 1, self.c_step))

    def fig2_c_values(self, n: int) -> tuple[int, ...]:
        """``fig2_c``, or by default half and 1.5x the inner dimension ``n`` of A."""
        return self.fig2_c if self.fig2_c is not None else (n // 2, 3 * n // 2)


def paper_scale(cfg: ExperimentConfig) -> ExperimentConfig:
    """The full-size configuration: 100x2000 matrix, 1000 trials, 50000 runs."""
    return replace(cfg, rows=100, cols=2000, c_min=1000, c_max=3000, c_step=500,
                   trials=1000, runs=50000)


def experiment_matrix(cfg: ExperimentConfig) -> np.ndarray:
    """Load A from ``matrix_path`` or draw rows x cols standard uniforms from a dedicated substream.

    A is returned read-only and column-major, the layout of a plan's own copy, so ``_methods``'
    plans adopt it with no copy and the ``Aᵀ`` panel every trial gathers its rows from is a view
    of it.  A loaded A is copied once into that order; a drawn A is
    ``generator(derive_seed(seed, "matrix")).random((rows, cols))`` bit for bit, written
    ``_BLOCK_ENTRIES // cols`` rows (at least one) at a time from its stream straight into
    column-major storage, so the call holds A plus one block, with no row-major copy.
    """
    if cfg.matrix_path is not None:
        return _frozen(np.asfortranarray(read_matrix(cfg.matrix_path)))
    gen = generator(derive_seed(cfg.seed, "matrix"))
    a = np.empty((cfg.rows, cfg.cols), order="F")
    step = max(1, _BLOCK_ENTRIES // cfg.cols)
    block = np.empty((min(step, cfg.rows), cfg.cols))
    for lo in range(0, cfg.rows, step):
        hi = min(lo + step, cfg.rows)
        a[lo:hi] = gen.random(out=block[:hi - lo])
    return _frozen(a)


def pairing_strategy(kind: str, seed: int) -> PairingStrategy:
    """The pairing strategy ``kind``; "random" is keyed by the ``"pairing"`` substream of ``seed``."""
    return PairingStrategy(kind, derive_seed(seed, "pairing") if kind == "random" else None)


def _check_pairable(cols) -> None:
    """``ConfigError`` for an integer ``cols`` below 2, ``ValueError`` for a non-integer (``_check_count``)."""
    if _is_integer(cols) and cols < 2:
        raise ConfigError(f"every experiment pairs A's columns, so A needs at least 2 columns, got {cols}")
    _check_count(cols, "cols", lo=2)


def _methods(cfg: ExperimentConfig, out_dir) -> list[tuple[str, Plan]]:
    """(label, plan) on A and B = Aᵀ for the per-index baseline and the pairwise method, then
    makes ``out_dir``: it raises before making it when A cannot be read or (a loaded matrix)
    has fewer than 2 columns to pair."""
    a = experiment_matrix(cfg)
    _check_pairable(a.shape[1])
    fin = _optimal_plan(a, a.T, finest(a.shape[1]))  # A is the call's own: no copy
    pairs = pairing_plan(fin, pairing_strategy(cfg.strategy, cfg.seed))
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    return [("finest", fin), (f"pairwise-{cfg.strategy}", pairs)]


def run_fig1(cfg: ExperimentConfig, out_dir) -> list[dict]:
    """Error-vs-sample-count table; writes fig1.csv and returns its rows.

    Per (c, method): mean relative Frobenius error over ``trials`` seeded
    sketches, the mean squared absolute error, and the standard error of that
    squared-error mean (sample std / sqrt(trials), 0 for one trial).  The squared
    errors come from one ``frobenius_errors`` call over every cell, and every row is
    summarised from their one (cells, trials) array; the means sum each cell as
    ``statistics.fmean`` does (``fsum / T``).
    """
    methods = _methods(cfg, out_dir)
    fin = methods[0][1]
    exact_f = frobenius_norm(fin.a @ fin.b)
    cells = {(c, label): (plan, c, derive_seeds(cfg.seed, ("fig1", label, c), cfg.trials))
             for c in cfg.c_grid() for label, plan in methods}
    sq_errs = np.array(frobenius_errors(list(cells.values())))  # one row per cell
    trials = cfg.trials
    rel_errs = np.sqrt(sq_errs) / exact_f
    stderrs = np.std(sq_errs, axis=1, ddof=1) / math.sqrt(trials) if trials > 1 else np.zeros(len(cells))
    rows_out = [{"c": c, "method": label, "mean_rel_frob_err": math.fsum(rel) / trials,
                 "mean_sq_frob_err": math.fsum(sq) / trials, "stderr": float(stderr), "trials": trials}
                for (c, label), rel, sq, stderr in zip(cells, rel_errs, sq_errs, stderrs)]
    write_output(Path(out_dir) / "fig1.csv", _csv(FIG1_HEADER, rows_out))
    return rows_out


def run_fig2(cfg: ExperimentConfig, out_dir) -> list[dict]:
    """Raw per-run spectral relative errors; writes fig2.csv and returns its rows."""
    methods = _methods(cfg, out_dir)
    fin = methods[0][1]
    exact = fin.a @ fin.b
    exact_2 = spectral_norm(exact)
    cells = [(label, plan, c) for label, plan in methods for c in cfg.fig2_c_values(fin.a.shape[1])]
    results = sketch_trials([(plan, c, derive_seeds(cfg.seed, ("fig2", label, c), cfg.runs))
                             for label, plan, c in cells])
    rows_out = [{"method": label, "c": c, "run": run,
                 "rel_2norm_err": spectral_norm(exact - next(results).estimate) / exact_2}
                for label, _, c in cells for run in range(cfg.runs)]
    write_output(Path(out_dir) / "fig2.csv", _csv(FIG2_HEADER, rows_out))
    return rows_out


def run_table1(cfg: ExperimentConfig, out_dir) -> dict:
    """max/mean/min of the per-index and pairwise probabilities; writes table1.json."""
    (_, fin), (_, pairs) = _methods(cfg, out_dir)
    payload = {"finest": distribution_stats(fin.distribution), "pairwise": distribution_stats(pairs.distribution)}
    write_output(Path(out_dir) / "table1.json", json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return payload


def _csv(header: str, rows: list[dict]) -> str:
    """CSV text: ``header``, then each row's values as ``str`` writes them (a float's shortest repr)."""
    return "\n".join([header, *(",".join(map(str, r.values())) for r in rows)]) + "\n"
