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

from .analysis import (bernstein_tail_bound, bound_report, min_draw_threshold,
                       uniform_spectral_bound)
from .distributions import distribution_to_json, optimal_distribution
from .errors import ConfigError, NumericError
from .experiments import (ExperimentConfig, paper_scale, run_fig1, run_fig2,
                          run_table1)
from .matrices import read_matrix, write_csv
from .partitions import PairingStrategy, finest, partition_from_json
from .rng import derive_seed
from .sketching import SketchConfig, draw_log_json, pairwise_plan, sketch

STRATEGY_CHOICES = ("enhanced", "random", "balanced", "simple", "finest")


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; 2 is reserved for I/O here.
    def error(self, message):
        raise ConfigError(message)


def _load_matrix(path):
    try:
        return read_matrix(path)
    except ValueError as exc:
        raise OSError(f"{path}: {exc}") from None


def _plan(args, a, b):
    """Partition and distribution from --partition-file or --strategy."""
    if args.partition_file is not None:
        partition = partition_from_json(Path(args.partition_file).read_text())
        if partition.n != a.shape[1]:
            raise ConfigError(f"{args.partition_file}: partition covers {partition.n} indices "
                              f"but the inner dimension is {a.shape[1]}")
        return partition, optimal_distribution(a, b, partition)
    if args.strategy == "finest":
        partition = finest(a.shape[1])
        return partition, optimal_distribution(a, b, partition)
    if args.strategy == "random":
        strategy = PairingStrategy("random", derive_seed(args.seed, "pairing"))
    else:
        strategy = PairingStrategy(args.strategy)
    return pairwise_plan(a, b, strategy)


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_sketch(args) -> int:
    a = _load_matrix(args.a)
    b = _load_matrix(args.b)
    partition, dist = _plan(args, a, b)
    cfg = SketchConfig(args.c, args.seed)
    result = sketch(a, b, partition, dist, cfg)
    out = _out_dir(args)
    write_csv(result.estimate, out / "estimate.csv")
    (out / "draws.json").write_text(draw_log_json(result, cfg) + "\n")
    report = bound_report(a, b, partition, dist)
    (out / "bounds.json").write_text(
        json.dumps(dataclasses.asdict(report), sort_keys=True, indent=2) + "\n")
    (out / "distribution.json").write_text(distribution_to_json(dist) + "\n")
    return 0


def _cmd_analyze(args) -> int:
    a = _load_matrix(args.a)
    b = _load_matrix(args.b)
    partition, dist = _plan(args, a, b)
    report = bound_report(a, b, partition, dist)
    payload = {"report": dataclasses.asdict(report)}
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
            "threshold": threshold.threshold,
            "feasible": threshold.feasible,
        }
        if threshold.feasible:
            payload["uniform_spectral_bound"] = uniform_spectral_bound(
                a, b, args.c, args.k, threshold.threshold)
    out = _out_dir(args)
    (out / "analysis.json").write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return 0


def _experiment_config(args) -> ExperimentConfig:
    cfg = ExperimentConfig(
        rows=args.rows, cols=args.cols,
        c_min=args.c_min, c_max=args.c_max, c_step=args.c_step,
        trials=args.trials, runs=args.runs,
        strategy=args.strategy, matrix_path=args.matrix_file, seed=args.seed,
    )
    if args.paper_scale:
        cfg = paper_scale(cfg)
    return cfg


def _cmd_experiment(args) -> int:
    if args.strategy == "finest":
        raise ConfigError("experiments compare against the finest method; pick a pairing strategy")
    cfg = _experiment_config(args)
    out = _out_dir(args)
    if args.which == "fig1":
        run_fig1(cfg, out)
    elif args.which == "fig2":
        run_fig2(cfg, out)
    else:
        run_table1(cfg, out)
    return 0


@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built once per process; each parse fills a fresh namespace."""
    parser = _Parser(prog="partsketch",
                     description="Randomized matrix-product sketching over index partitions")
    sub = parser.add_subparsers(dest="command", required=True)

    sk = sub.add_parser("sketch", help="sketch a product and write estimate/draw-log/bounds files")
    sk.add_argument("--a", required=True, help="left matrix (CSV, or .bin binary layout)")
    sk.add_argument("--b", required=True, help="right matrix")
    sk.add_argument("--c", type=int, required=True, help="sample count")
    sk.add_argument("--seed", type=int, default=0)
    sk.add_argument("--strategy", choices=STRATEGY_CHOICES, default="finest")
    sk.add_argument("--partition-file", help="JSON partition (1-based groups); overrides --strategy")
    sk.add_argument("--out-dir", required=True)
    sk.set_defaults(func=_cmd_sketch)

    an = sub.add_parser("analyze", help="report bound inputs, tail bounds, and draw thresholds")
    an.add_argument("--a", required=True)
    an.add_argument("--b", required=True)
    an.add_argument("--seed", type=int, default=0)
    an.add_argument("--strategy", choices=STRATEGY_CHOICES, default="finest")
    an.add_argument("--partition-file")
    an.add_argument("--c", type=int, help="sample count for tail bound / draw threshold")
    an.add_argument("--k", type=int, help="group count for the uniform draw threshold")
    an.add_argument("--epsilon", type=float, help="tail-bound deviation")
    an.add_argument("--out-dir", required=True)
    an.set_defaults(func=_cmd_analyze)

    ex = sub.add_parser("experiment", help="run the reproducible experiment harness")
    ex.add_argument("which", choices=("fig1", "fig2", "table1"))
    ex.add_argument("--seed", type=int, default=0)
    ex.add_argument("--rows", type=int, default=ExperimentConfig.rows)
    ex.add_argument("--cols", type=int, default=ExperimentConfig.cols)
    ex.add_argument("--c-min", type=int, default=ExperimentConfig.c_min)
    ex.add_argument("--c-max", type=int, default=ExperimentConfig.c_max)
    ex.add_argument("--c-step", type=int, default=ExperimentConfig.c_step)
    ex.add_argument("--trials", type=int, default=ExperimentConfig.trials)
    ex.add_argument("--runs", type=int, default=ExperimentConfig.runs)
    ex.add_argument("--strategy", choices=STRATEGY_CHOICES, default=ExperimentConfig.strategy)
    ex.add_argument("--matrix-file", help="load A instead of generating it")
    ex.add_argument("--paper-scale", action="store_true",
                    help="100x2000 matrix, c in 1000..3000, 1000 trials, 50000 runs")
    ex.add_argument("--out-dir", required=True)
    ex.set_defaults(func=_cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # an oversized sample count or matrix size is a configuration error
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
