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
Each cell draws its trials in one batch, with the draws of one ``sketch`` per
trial.  fig2 takes each trial's estimate from ``sketch_trials``.  fig1 needs
only each trial's squared Frobenius error, the quadratic form ``uᵀHu`` of
``frobenius_errors``, so it forms no estimate while building ``H`` once
costs less than the estimates and ``H`` fits its memory cap
(``_error_form_pays``).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .distributions import (aggregate_distribution, distribution_stats,
                            optimal_distribution)
from .errors import ConfigError
from .matrices import dense, frobenius_norm, multiply, read_matrix, spectral_norm
from .partitions import (PAIRING_KINDS, PairingStrategy, finest,
                         pair_partition)
from .rng import derive_seed, generator
# ``sketch`` stays bound in this module: perfbench's tracer wraps it at every module that names it.
from .sketching import error_form, frobenius_errors, sketch, sketch_trials  # noqa: F401

FIG1_HEADER = "c,method,mean_rel_frob_err,mean_sq_frob_err,stderr,trials"
FIG2_HEADER = "method,c,run,rel_2norm_err"


@dataclass(frozen=True)
class ExperimentConfig:
    """Desk-scale defaults; ``paper_scale`` switches to the full-size setup.

    Construction raises :class:`ConfigError` on an invalid setting, so every
    config that exists can be run.
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
        if self.rows < 1 or self.cols < 1:
            raise ConfigError(f"matrix dimensions must be positive, got {self.rows}x{self.cols}")
        if self.c_step < 1 or not self.c_grid():
            raise ConfigError(f"empty sample-count grid: min={self.c_min} max={self.c_max} step={self.c_step}")
        if min(self.c_grid()) < 1 or min(self.fig2_c_values(self.cols)) < 1:
            raise ConfigError("sample counts must be >= 1")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if self.runs < 1:
            raise ConfigError(f"runs must be >= 1, got {self.runs}")
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
    """Load A from ``matrix_path`` or draw rows x cols standard uniforms from a dedicated substream."""
    if cfg.matrix_path is not None:
        return read_matrix(cfg.matrix_path)
    gen = generator(derive_seed(cfg.seed, "matrix"))
    return dense(gen.random((cfg.rows, cfg.cols)))


def pairing_strategy(kind: str, seed: int) -> PairingStrategy:
    """The pairing strategy ``kind``; "random" is keyed by the ``"pairing"`` substream of ``seed``."""
    return PairingStrategy(kind, derive_seed(seed, "pairing") if kind == "random" else None)


def _methods(cfg: ExperimentConfig, a: np.ndarray, b: np.ndarray):
    """(label, partition, distribution) for the per-index baseline and the pairwise method."""
    n = a.shape[1]
    fin = finest(n)
    p_o = optimal_distribution(a, b, fin)
    strat = pairing_strategy(cfg.strategy, cfg.seed)
    pair_part = pair_partition(p_o.weights, strat)
    pair_dist = aggregate_distribution(p_o, pair_part)
    return [("finest", fin, p_o), (f"pairwise-{strat.kind}", pair_part, pair_dist)]


def run_fig1(cfg: ExperimentConfig, out_dir) -> list[dict]:
    """Error-vs-sample-count table; writes fig1.csv and returns its rows.

    Per (c, method): mean relative Frobenius error over ``trials`` seeded
    sketches, the mean squared absolute error, and the standard error of that
    squared-error mean (sample std / sqrt(trials)).  The squared errors come
    from one ``frobenius_errors`` call over every cell, against one
    ``error_form``, with no estimate formed, when ``_error_form_pays``;
    otherwise from the estimates of ``sketch_trials``, cell by cell.
    """
    a = experiment_matrix(cfg)
    b = a.T
    exact = multiply(a, b)
    exact_f = frobenius_norm(exact)
    methods = _methods(cfg, a, b)
    m, n = a.shape
    cells = {(c, label): (partition, dist, c, [derive_seed(cfg.seed, "fig1", label, c, t)
                                               for t in range(cfg.trials)])
             for c in cfg.c_grid() for label, partition, dist in methods}
    if _error_form_pays(m, n, cfg.c_grid(), len(methods) * cfg.trials):
        errors = frobenius_errors(error_form(a, b), list(cells.values()))
    else:
        errors = [np.array([np.sum(np.square(exact - result.estimate))
                            for result in sketch_trials(a, b, partition, dist, c, seeds)])
                  for partition, dist, c, seeds in cells.values()]
    rows_out = [_fig1_row(c, label, sq_errs, exact_f) for (c, label), sq_errs in zip(cells, errors)]
    lines = [FIG1_HEADER]
    for r in rows_out:
        lines.append(f"{r['c']},{r['method']},{r['mean_rel_frob_err']!r},"
                     f"{r['mean_sq_frob_err']!r},{r['stderr']!r},{r['trials']}")
    _write(out_dir, "fig1.csv", "\n".join(lines) + "\n")
    return rows_out


# fig1 holds H only up to this many float64 entries (32 MiB, n <= 2048), so
# the paper's 100x2000 shape fits; a wider A takes the direct path, whose
# memory does not grow with n².
_ERROR_FORM_ENTRIES = 2 ** 22


def _error_form_pays(m: int, n: int, c_grid, trials_per_c: int) -> bool:
    """Whether fig1's errors should come from ``H`` rather than from the estimates.

    ``H`` must fit ``_ERROR_FORM_ENTRIES`` and take fewer multiply-adds than
    the sketches it replaces.  With ``B = Aᵀ`` (m×n), building ``H`` is one
    ``syrk`` of m·n²/2 and each trial one GEMM row of n² against it; a direct
    trial is one ``syrk`` of m²·K/2 over its K <= min(c, n) drawn columns.
    ``trials_per_c`` counts every method's trials at one c.
    """
    if n * n > _ERROR_FORM_ENTRIES:
        return False
    form = m * n * n / 2 + trials_per_c * len(c_grid) * n * n
    direct = trials_per_c * sum(m * m * min(c, n) / 2 for c in c_grid)
    return form < direct


def _fig1_row(c: int, method: str, sq_errs: np.ndarray, exact_f: float) -> dict:
    """One fig1 row from a cell's squared errors: means as ``statistics.fmean`` sums them
    (``fsum / T``), and the standard error of the squared-error mean."""
    trials = len(sq_errs)
    rel_errs = np.sqrt(sq_errs) / exact_f
    stderr = float(np.std(sq_errs, ddof=1)) / math.sqrt(trials) if trials > 1 else 0.0
    return {
        "c": c,
        "method": method,
        "mean_rel_frob_err": math.fsum(rel_errs) / trials,
        "mean_sq_frob_err": math.fsum(sq_errs) / trials,
        "stderr": stderr,
        "trials": trials,
    }


def run_fig2(cfg: ExperimentConfig, out_dir) -> list[dict]:
    """Raw per-run spectral relative errors; writes fig2.csv and returns its rows."""
    a = experiment_matrix(cfg)
    b = a.T
    exact = multiply(a, b)
    exact_2 = spectral_norm(exact)
    rows_out = []
    for label, partition, dist in _methods(cfg, a, b):
        for c in cfg.fig2_c_values(a.shape[1]):
            seeds = [derive_seed(cfg.seed, "fig2", label, c, run) for run in range(cfg.runs)]
            for run, result in enumerate(sketch_trials(a, b, partition, dist, c, seeds)):
                err = spectral_norm(exact - result.estimate) / exact_2
                rows_out.append({"method": label, "c": c, "run": run, "rel_2norm_err": err})
    lines = [FIG2_HEADER]
    for r in rows_out:
        lines.append(f"{r['method']},{r['c']},{r['run']},{r['rel_2norm_err']!r}")
    _write(out_dir, "fig2.csv", "\n".join(lines) + "\n")
    return rows_out


def run_table1(cfg: ExperimentConfig, out_dir) -> dict:
    """max/mean/min of the per-index and pairwise probabilities; writes table1.json."""
    a = experiment_matrix(cfg)
    b = a.T
    (_, _, p_o), (_, _, p_pair) = _methods(cfg, a, b)
    payload = {"finest": distribution_stats(p_o), "pairwise": distribution_stats(p_pair)}
    _write(out_dir, "table1.json", json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return payload


def _write(out_dir, name: str, text: str) -> None:
    path = Path(out_dir)
    path.mkdir(parents=True, exist_ok=True)
    (path / name).write_text(text)
