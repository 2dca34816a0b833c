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
bytes.  Per-trial seeds are derived from (master seed, experiment label,
method, sample count, trial index), so trials are independent of execution
order and of matrix generation, which uses its own substream.  Each
(method, sample count) cell derives its seeds and draws its trials in one
batch (``derive_seeds``, ``sketch_trials``), with the same values as one
``derive_seed`` and one ``sketch`` per trial.
"""

from __future__ import annotations

import json
import math
import statistics
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .distributions import (aggregate_distribution, distribution_stats,
                            optimal_distribution)
from .errors import ConfigError
from .matrices import dense, frobenius_norm, multiply, read_matrix, spectral_norm
from .partitions import (PAIRING_KINDS, PairingStrategy, finest,
                         pair_partition)
from .rng import derive_seed, derive_seeds, generator
# ``sketch`` stays bound in this module: perfbench's tracer wraps it at every module that names it.
from .sketching import sketch, sketch_trials  # noqa: F401

FIG1_HEADER = "c,method,mean_rel_frob_err,mean_sq_frob_err,stderr,trials"
FIG2_HEADER = "method,c,run,rel_2norm_err"


@dataclass(frozen=True)
class ExperimentConfig:
    """Desk-scale defaults; ``paper_scale`` switches to the full-size setup."""

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

    def c_grid(self) -> list[int]:
        return list(range(self.c_min, self.c_max + 1, self.c_step))

    def fig2_c_values(self) -> tuple[int, ...]:
        # Default straddles the inner dimension: half of it and 1.5x it.
        return self.fig2_c if self.fig2_c is not None else (self.cols // 2, 3 * self.cols // 2)


def paper_scale(cfg: ExperimentConfig) -> ExperimentConfig:
    """The full-size configuration: 100x2000 matrix, 1000 trials, 50000 runs."""
    return replace(cfg, rows=100, cols=2000, c_min=1000, c_max=3000, c_step=500,
                   trials=1000, runs=50000)


def validate_config(cfg: ExperimentConfig) -> None:
    if cfg.rows < 1 or cfg.cols < 1:
        raise ConfigError(f"matrix dimensions must be positive, got {cfg.rows}x{cfg.cols}")
    if cfg.c_step < 1 or not cfg.c_grid():
        raise ConfigError(f"empty sample-count grid: min={cfg.c_min} max={cfg.c_max} step={cfg.c_step}")
    if min(cfg.c_grid()) < 1 or min(cfg.fig2_c_values()) < 1:
        raise ConfigError("sample counts must be >= 1")
    if cfg.trials < 1:
        raise ConfigError(f"trials must be >= 1, got {cfg.trials}")
    if cfg.runs < 1:
        raise ConfigError(f"runs must be >= 1, got {cfg.runs}")
    if cfg.strategy not in PAIRING_KINDS:
        raise ConfigError(f"strategy must be one of {PAIRING_KINDS}, got {cfg.strategy!r}")


def experiment_matrix(cfg: ExperimentConfig) -> np.ndarray:
    """Load A from ``matrix_path`` or draw rows x cols standard uniforms from a dedicated substream."""
    if cfg.matrix_path is not None:
        return read_matrix(cfg.matrix_path)
    gen = generator(derive_seed(cfg.seed, "matrix"))
    return dense(gen.random((cfg.rows, cfg.cols)))


def pairing_strategy(cfg: ExperimentConfig) -> PairingStrategy:
    if cfg.strategy == "random":
        return PairingStrategy("random", derive_seed(cfg.seed, "pairing"))
    return PairingStrategy(cfg.strategy)


def _methods(cfg: ExperimentConfig, a: np.ndarray, b: np.ndarray):
    """(label, partition, distribution) for the per-index baseline and the pairwise method."""
    n = a.shape[1]
    fin = finest(n)
    p_o = optimal_distribution(a, b, fin)
    strat = pairing_strategy(cfg)
    pair_part = pair_partition(p_o.weights, strat)
    pair_dist = aggregate_distribution(p_o, pair_part)
    return [("finest", fin, p_o), (f"pairwise-{strat.kind}", pair_part, pair_dist)]


def run_fig1(cfg: ExperimentConfig, out_dir) -> list[dict]:
    """Error-vs-sample-count table; writes fig1.csv and returns its rows.

    Per (c, method): mean relative Frobenius error over ``trials`` seeded
    sketches, the mean squared absolute error, and the standard error of that
    squared-error mean (sample std / sqrt(trials)).
    """
    validate_config(cfg)
    a = experiment_matrix(cfg)
    b = a.T
    exact = multiply(a, b)
    exact_f = frobenius_norm(exact)
    methods = _methods(cfg, a, b)
    rows_out = []
    for c in cfg.c_grid():
        for label, partition, dist in methods:
            sq_errs = []
            rel_errs = []
            seeds = derive_seeds(cfg.seed, "fig1", label, c, count=cfg.trials)
            for result in sketch_trials(a, b, partition, dist, c, seeds):
                diff = exact - result.estimate
                sq = float(np.sum(diff * diff))
                sq_errs.append(sq)
                rel_errs.append(math.sqrt(sq) / exact_f)
            stderr = statistics.stdev(sq_errs) / math.sqrt(cfg.trials) if cfg.trials > 1 else 0.0
            rows_out.append({
                "c": c,
                "method": label,
                "mean_rel_frob_err": statistics.fmean(rel_errs),
                "mean_sq_frob_err": statistics.fmean(sq_errs),
                "stderr": stderr,
                "trials": cfg.trials,
            })
    lines = [FIG1_HEADER]
    for r in rows_out:
        lines.append(f"{r['c']},{r['method']},{r['mean_rel_frob_err']!r},"
                     f"{r['mean_sq_frob_err']!r},{r['stderr']!r},{r['trials']}")
    _write(out_dir, "fig1.csv", "\n".join(lines) + "\n")
    return rows_out


def run_fig2(cfg: ExperimentConfig, out_dir) -> list[dict]:
    """Raw per-run spectral relative errors; writes fig2.csv and returns its rows."""
    validate_config(cfg)
    a = experiment_matrix(cfg)
    b = a.T
    exact = multiply(a, b)
    exact_2 = spectral_norm(exact)
    rows_out = []
    for label, partition, dist in _methods(cfg, a, b):
        for c in cfg.fig2_c_values():
            seeds = derive_seeds(cfg.seed, "fig2", label, c, count=cfg.runs)
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
    validate_config(cfg)
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
