"""Command-line interface: ad-hoc sketch/analyze runs and the experiment harness.

Exit codes: 0 success, 1 configuration error, 2 I/O error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .analysis import (bernstein_tail_bound, bound_report, min_draw_threshold,
                       uniform_spectral_bound)
from .distributions import Plan, _optimal_plan, distribution_to_json, pairing_plan
from .errors import ConfigError, MatrixFileError, NumericError
from .experiments import (ExperimentConfig, pairing_strategy, paper_scale, run_fig1,
                          run_fig2, run_table1)
from .matrices import _conforming, read_matrix, write_csv, write_output
from .partitions import PAIRING_KINDS, finest, partition_from_json
from .rng import _check_count
# ``sketch`` stays bound in this module: perfbench's tracer wraps it at every module that names it.
from .sketching import SketchConfig, draw_log_json, sample_indices, sketch, sketch_from_draws  # noqa: F401

STRATEGY_CHOICES = ("finest", *PAIRING_KINDS)


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; 2 is reserved for I/O here.
    def error(self, message):
        raise ConfigError(message)


def _plan(args) -> Plan:
    """The plan of --a and --b over --partition-file's partition or finest, or a strategy's ``pairing_plan`` of finest's."""
    a, b = _conforming(read_matrix(args.a), read_matrix(args.b))  # checked once, a B holding Aᵀ made A.T; no copy
    if args.partition_file is not None:
        return _optimal_plan(a, b, partition_from_json(Path(args.partition_file).read_text(encoding="utf-8")))
    fin = _optimal_plan(a, b, finest(a.shape[1]))
    return fin if args.strategy == "finest" else pairing_plan(fin, pairing_strategy(args.strategy, args.seed))


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_sketch(args) -> int:
    """One draw serves the estimate and the draw log: ``sample_indices``, then ``sketch_from_draws``."""
    plan = _plan(args)
    cfg = SketchConfig(args.c, args.seed)
    draws = sample_indices(plan.distribution, cfg.c, cfg.seed)
    result = sketch_from_draws(plan, draws)
    out = _out_dir(args)
    write_csv(result.estimate, out / "estimate.csv")
    write_output(out / "draws.json", draw_log_json(cfg, draws, result.counts) + "\n")
    report = bound_report(plan)
    write_output(out / "bounds.json", json.dumps(dataclasses.asdict(report), sort_keys=True, indent=2) + "\n")
    write_output(out / "distribution.json", distribution_to_json(plan.distribution) + "\n")
    return 0


def _cmd_analyze(args) -> int:
    plan = _plan(args)
    report = bound_report(plan)
    payload = {"report": dataclasses.asdict(report)}
    if args.c is not None:
        _check_count(args.c, "sample count")
    if args.epsilon is not None:
        if args.c is None:
            raise ConfigError("--epsilon needs --c to evaluate the tail bound")
        payload["tail_bound"] = {
            "c": args.c,
            "epsilon": args.epsilon,
            "value": bernstein_tail_bound(report, args.c, args.epsilon),
        }
    if args.k is not None:
        if args.c is None:
            raise ConfigError("--k needs --c to evaluate the draw threshold")
        threshold = min_draw_threshold(args.c, args.k)
        payload["draw_threshold"] = {
            "c": args.c,
            "k": args.k,
            "threshold": threshold,
            "feasible": threshold is not None,
        }
        if threshold is not None:
            payload["uniform_spectral_bound"] = uniform_spectral_bound(plan.a, plan.b, args.c, args.k, threshold)
    out = _out_dir(args)
    write_output(out / "analysis.json", json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return 0


_EXPERIMENT_FLAGS = ("rows", "cols", "c_min", "c_max", "c_step", "trials", "runs", "strategy")


def _experiment_config(args) -> ExperimentConfig:
    """The desk (or ``--paper-scale``) config, overridden by every flag given explicitly."""
    base = paper_scale(ExperimentConfig()) if args.paper_scale else ExperimentConfig()
    given = {name: getattr(args, name) for name in _EXPERIMENT_FLAGS if getattr(args, name) is not None}
    if args.matrix_file is not None and given.keys() & {"rows", "cols"}:
        raise ConfigError("--rows/--cols size a generated matrix; --matrix-file takes its shape from the file")
    return dataclasses.replace(base, matrix_path=args.matrix_file, seed=args.seed, **given)


def _cmd_experiment(args) -> int:
    """The experiment makes --out-dir itself, once it has read A and built its plans."""
    run = {"fig1": run_fig1, "fig2": run_fig2, "table1": run_table1}[args.which]
    run(_experiment_config(args), args.out_dir)
    return 0


@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built once per process; each parse fills a fresh namespace."""
    parser = _Parser(prog="partsketch",
                     description="Randomized matrix-product sketching over index partitions")
    sub = parser.add_subparsers(dest="command", required=True)

    plan = _Parser(add_help=False)  # the flags sketch and analyze share
    plan.add_argument("--a", required=True, help="left matrix (CSV, or .bin binary layout)")
    plan.add_argument("--b", required=True, help="right matrix")
    plan.add_argument("--seed", type=int, default=0)
    plan.add_argument("--strategy", choices=STRATEGY_CHOICES, default="finest")
    plan.add_argument("--partition-file", help="JSON partition (1-based groups); overrides --strategy")
    plan.add_argument("--out-dir", required=True)

    sk = sub.add_parser("sketch", parents=[plan],
                        help="sketch a product and write estimate/draw-log/bounds files")
    sk.add_argument("--c", type=int, required=True, help="sample count")
    sk.set_defaults(func=_cmd_sketch)

    an = sub.add_parser("analyze", parents=[plan],
                        help="report bound inputs, tail bounds, and draw thresholds")
    an.add_argument("--c", type=int, help="sample count for tail bound / draw threshold")
    an.add_argument("--k", type=int, help="group count for the uniform draw threshold")
    an.add_argument("--epsilon", type=float, help="tail-bound deviation")
    an.set_defaults(func=_cmd_analyze)

    ex = sub.add_parser("experiment", help="run the reproducible experiment harness")
    ex.add_argument("which", choices=("fig1", "fig2", "table1"))
    ex.add_argument("--seed", type=int, default=0)
    for name in _EXPERIMENT_FLAGS[:-1]:  # the counts; "strategy" takes its choices below
        ex.add_argument(f"--{name.replace('_', '-')}", type=int)
    ex.add_argument("--strategy", choices=PAIRING_KINDS,
                    help=f"pairing strategy (default: {ExperimentConfig.strategy})")
    ex.add_argument("--matrix-file", help="load A instead of generating it")
    ex.add_argument("--paper-scale", action="store_true",
                    help="100x2000 matrix, c in 1000..3000, 1000 trials, 50000 runs; explicit flags win")
    ex.add_argument("--out-dir", required=True)
    ex.set_defaults(func=_cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        with np.errstate(divide="raise", over="raise", invalid="raise"):  # non-finite results exit 3
            return args.func(args)
    except (MatrixFileError, OSError) as exc:  # before ValueError: a MatrixFileError is one
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # an oversized sample count or matrix size is a configuration error
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    except (NumericError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
