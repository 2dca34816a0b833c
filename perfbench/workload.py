"""One benchmark workload, run in a fresh interpreter.

    python3 perfbench/workload.py --mode MODE --workload NAME --seed N --seconds S --work-dir DIR

Modes:

* ``prepare``: write the workload's input files, then set up once, which
  leaves the interpreter-independent caches warm;
* ``setup``: set up once and report the time it took;
* ``run``: set up, issue calls in a closed loop (one caller, the next call
  after the previous returns) for S seconds, check every output outside
  the timed region, then repeat the first calls and compare output digests;
* ``trace``: as ``run`` for S/2 seconds, then replay the same calls with the
  package's functions wrapped by the tracer, and derive per-layer metrics.

The last line of stdout is one JSON object.  ``run.py`` starts this script
with one BLAS thread and the checkout's ``src`` on the import path; nothing
of the package is imported before the setup clock starts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracer import Tracer, install, median, tail

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def call_seed(seed: int, workload: str, index) -> int:
    """Seed of one call, a pure function of the workload seed and the call index."""
    digest = hashlib.blake2b(f"{workload}:{seed}:{index}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little") >> 1


class Fig1Desk:
    """``run_fig1`` at desk scale: 50x500 uniform A, B = A^T, c = 250..1500 step 250,
    finest against pairwise-enhanced; each call draws its own matrix and trials."""

    name = "fig1-desk"
    TRIALS = 10  # per (c, method) cell; 120 trials per call
    cycle = 1  # calls per throughput sample; also the calls repeated and counted exactly

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.out = work / "out"

    def prepare(self):
        pass

    def config(self, index):
        return self.experiments.ExperimentConfig(trials=self.TRIALS, strategy="enhanced",
                                                 seed=call_seed(self.seed, self.name, index))

    def setup(self):
        from partsketch import experiments, partitions, sketching
        self.experiments = experiments
        a = experiments.experiment_matrix(self.config(0))
        sketching.pairwise_plan(a, a.T, partitions.ENHANCED)

    def ops(self, index) -> int:
        cfg = self.config(index)
        return cfg.trials * len(cfg.c_grid()) * 2

    def call(self, index):
        cfg = self.config(index)
        return lambda: self.experiments.run_fig1(cfg, self.out)

    def outputs(self, index):
        return [self.out / "fig1.csv"]

    def check(self, index, result):
        import checks
        from partsketch import (ENHANCED, aggregate_distribution, expected_frobenius_error_sq,
                                finest, optimal_distribution, pair_partition)
        cfg = self.config(index)
        a = self.experiments.experiment_matrix(cfg)
        b = a.T
        fin = finest(a.shape[1])
        p_fin = optimal_distribution(a, b, fin)
        pairs = pair_partition(p_fin.weights, ENHANCED)
        p_pairs = aggregate_distribution(p_fin, pairs)
        expected = {"finest": expected_frobenius_error_sq(a, b, fin, p_fin, 1),
                    "pairwise-enhanced": expected_frobenius_error_sq(a, b, pairs, p_pairs, 1)}
        return checks.check_fig1((self.out / "fig1.csv").read_text(), expected,
                                 cfg.c_grid(), cfg.trials)


class Fig2Paper:
    """``run_fig2`` at the paper shape: 100x2000, c in (1000, 3000), both methods;
    every trial also runs ``spectral_norm`` on its error matrix."""

    name = "fig2-paper"
    RUNS = 5  # per (method, c) cell; 20 trials per call
    C = (1000, 3000)
    METHODS = ("finest", "pairwise-enhanced")
    cycle = 1

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.out = work / "out"

    def prepare(self):
        pass

    def config(self, index):
        return self.experiments.ExperimentConfig(
            rows=100, cols=2000, fig2_c=self.C, runs=self.RUNS, strategy="enhanced",
            seed=call_seed(self.seed, self.name, index))

    def setup(self):
        from partsketch import experiments, partitions, sketching
        self.experiments = experiments
        a = experiments.experiment_matrix(self.config(0))
        sketching.pairwise_plan(a, a.T, partitions.ENHANCED)

    def ops(self, index) -> int:
        return len(self.METHODS) * len(self.C) * self.RUNS

    def call(self, index):
        cfg = self.config(index)
        return lambda: self.experiments.run_fig2(cfg, self.out)

    def outputs(self, index):
        return [self.out / "fig2.csv"]

    def check(self, index, result):
        """All rows present; one sampled row per call, cycling over the cells and runs,
        recomputed from ``sketch`` and a LAPACK spectral norm."""
        import numpy as np

        import checks
        from partsketch import ENHANCED, SketchConfig, derive_seed, finest, optimal_distribution, sketch
        from partsketch.sketching import pairwise_plan
        cfg = self.config(index)
        method = self.METHODS[index % 2]
        c = self.C[(index // 2) % 2]
        run = (index // 4) % self.RUNS
        a = self.experiments.experiment_matrix(cfg)
        b = a.T
        if method == "finest":
            partition = finest(a.shape[1])
            dist = optimal_distribution(a, b, partition)
        else:
            partition, dist = pairwise_plan(a, b, ENHANCED)
        exact = a @ b
        seed = derive_seed(cfg.seed, "fig2", method, c, run)
        estimate = sketch(a, b, partition, dist, SketchConfig(c, seed)).estimate
        err = np.linalg.norm(exact - estimate, 2) / np.linalg.norm(exact, 2)
        return checks.check_fig2((self.out / "fig2.csv").read_text(), self.METHODS, self.C,
                                 self.RUNS, {(method, c, run): float(err)})


class CliDesk:
    """In-process ``partsketch.cli.main(argv)`` requests on 50x500 inputs, round-robin over
    four request types, c = 750, a seed per request."""

    name = "cli-desk"
    C = 750
    K = 250  # group count for the uniform draw threshold
    EPSILON = 1000.0
    PARTITION_FILES = 4
    MAX_GROUP = 16
    KINDS = ("sketch-finest-csv", "sketch-enhanced-bin", "sketch-partition-bin", "analyze-enhanced-bin")
    cycle = len(KINDS)

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.inputs = work / "inputs"
        self.out = work / "out"
        self._refs = {}

    def prepare(self):
        """Write A (50x500 uniform) and B = A^T as CSV and binary, and partition files
        of shuffled groups of 1..16 indices."""
        import numpy as np
        rng = np.random.Generator(np.random.Philox(key=call_seed(self.seed, self.name, "inputs")))
        a = rng.random((50, 500))
        self.inputs.mkdir(parents=True, exist_ok=True)
        for name, m in (("a", a), ("b", a.T)):
            text = "\n".join(",".join(repr(float(v)) for v in row) for row in m) + "\n"
            (self.inputs / f"{name}.csv").write_text(text)
            with open(self.inputs / f"{name}.bin", "wb") as fh:
                fh.write(np.asarray(m.shape, dtype="<i8").tobytes())
                fh.write(np.ascontiguousarray(m, dtype="<f8").tobytes())
        n = a.shape[1]
        for f in range(self.PARTITION_FILES):
            order = rng.permutation(n) + 1
            groups, start = [], 0
            while start < n:
                size = int(rng.integers(1, self.MAX_GROUP + 1))
                groups.append([int(i) for i in order[start:start + size]])
                start += size
            (self.inputs / f"partition{f}.json").write_text(json.dumps(groups))

    def setup(self):
        from partsketch import cli
        self.cli = cli
        code = cli.main(self.argv("cold"))
        if code != 0:
            raise RuntimeError(f"cold request exited with {code}")

    def ops(self, index) -> int:
        return 1

    def kind(self, index) -> str:
        return self.KINDS[index % len(self.KINDS)] if isinstance(index, int) else self.KINDS[0]

    def partition_file(self, index) -> Path:
        return self.inputs / f"partition{(index // len(self.KINDS)) % self.PARTITION_FILES}.json"

    def argv(self, index) -> list[str]:
        kind = self.kind(index)
        ext = "csv" if kind.endswith("csv") else "bin"
        common = ["--a", str(self.inputs / f"a.{ext}"), "--b", str(self.inputs / f"b.{ext}"),
                  "--c", str(self.C), "--seed", str(call_seed(self.seed, self.name, index)),
                  "--out-dir", str(self.out / kind)]
        if kind == "sketch-finest-csv":
            return ["sketch", *common, "--strategy", "finest"]
        if kind == "sketch-enhanced-bin":
            return ["sketch", *common, "--strategy", "enhanced"]
        if kind == "sketch-partition-bin":
            return ["sketch", *common, "--partition-file", str(self.partition_file(index))]
        return ["analyze", *common, "--strategy", "enhanced",
                "--k", str(self.K), "--epsilon", repr(self.EPSILON)]

    def call(self, index):
        argv = self.argv(index)
        return lambda: self.cli.main(argv)

    def outputs(self, index):
        return sorted((self.out / self.kind(index)).iterdir())

    def _reference(self, key):
        """(a, b, groups, probabilities, weight sum) for a request type, built once with numpy."""
        if key not in self._refs:
            import numpy as np

            import checks

            def load(name):
                raw = (self.inputs / f"{name}.bin").read_bytes()
                rows, cols = (int(v) for v in np.frombuffer(raw[:16], dtype="<i8"))
                return np.frombuffer(raw[16:], dtype="<f8").reshape(rows, cols)

            a, b = load("a"), load("b")
            w = np.linalg.norm(a, axis=0) * np.linalg.norm(b, axis=1)
            p_fin = w / w.sum()
            if key == "finest":
                groups = [[j] for j in range(a.shape[1])]
                probabilities = p_fin
            elif key == "enhanced":
                groups = checks.enhanced_pairs(p_fin)
                probabilities = np.array([p_fin[g].sum() for g in groups])
            else:
                groups = [[i - 1 for i in g] for g in json.loads(Path(key).read_text())]
            weights = checks.group_weights(a, b, groups)
            if key not in ("finest", "enhanced"):
                probabilities = weights / weights.sum()
            self._refs[key] = (a, b, groups, probabilities, float(weights.sum()))
        return self._refs[key]

    def check(self, index, code):
        import checks
        if code != 0:
            return [(1, f"exit code {code}")]
        kind = self.kind(index)
        out = self.out / kind
        if kind == "analyze-enhanced-bin":
            reasons = checks.check_analyze_outputs(out, self._reference("enhanced")[4], self.C)
        else:
            key = {"sketch-finest-csv": "finest", "sketch-enhanced-bin": "enhanced"}.get(
                kind, str(self.partition_file(index)))
            a, b, groups, probabilities, weight_sum = self._reference(key)
            reasons = checks.check_sketch_outputs(out, a, b, self.C, groups, probabilities, weight_sum)
        return [(1, reason) for reason in reasons]


WORKLOADS = {w.name: w for w in (Fig1Desk, Fig2Paper, CliDesk)}


@dataclass
class Record:
    """One timed call of the closed loop."""

    index: int
    ops: int
    wall: float
    failures: list = field(default_factory=list)
    digest: str | None = None
    host: float = 1.0  # host slowdown during the call, from the probes around its cycle


def issue(workload, index):
    """(result, error, wall seconds) of one call; only the call itself is timed."""
    fn = workload.call(index)
    start = time.perf_counter()
    try:
        result, error = fn(), None
    except Exception as exc:  # a call that raises fails all of its operations
        result, error = None, f"{type(exc).__name__}: {exc}"
    return result, error, time.perf_counter() - start


def outputs_digest(workload, index):
    import checks
    try:
        return checks.digest(workload.outputs(index))
    except OSError as exc:
        return f"unreadable: {exc}"


def closed_loop(workload, seconds: float, probe) -> list[Record]:
    """Calls until ``seconds`` have passed and the last throughput cycle is complete.

    The host probe runs before the first call and after every cycle; the
    calls of a cycle get the mean of the two factors around it.
    """
    records = []
    deadline = time.perf_counter() + seconds
    before = probe.factor()
    while not records or time.perf_counter() < deadline or len(records) % workload.cycle:
        index = len(records)
        result, error, wall = issue(workload, index)
        record = Record(index, workload.ops(index), wall)
        if error is not None:
            record.failures.append((record.ops, error))
        else:
            try:
                record.failures.extend(workload.check(index, result))
            except Exception as exc:  # an unreadable output fails the call
                record.failures.append((record.ops, f"check raised {type(exc).__name__}: {exc}"))
            record.digest = outputs_digest(workload, index)
        records.append(record)
        if len(records) % workload.cycle == 0:
            after = probe.factor()
            for r in records[-workload.cycle:]:
                r.host = (before + after) / 2
            before = after
    return records


def repeat_matches(workload, records, index, label) -> None:
    """Issue call ``index`` again and require byte-identical outputs; record a failure if not."""
    _, error, _ = issue(workload, index)
    digest = None if error else outputs_digest(workload, index)
    if digest != records[index].digest:
        records[index].failures.append((records[index].ops, f"{label} of call {index}: "
                                        f"{error or 'output digest differs'}"))


def summary(records) -> dict:
    """Attempted and failed operations, and the first few failure reasons."""
    failed = {}
    for r in records:
        if r.failures:
            failed[r.index] = min(r.ops, sum(n for n, _ in r.failures))
    reasons = [f"call {r.index}: {why}" for r in records for _, why in r.failures]
    return {"attempted": sum(r.ops for r in records), "failed": sum(failed.values()),
            "failures": reasons[:10]}


def latency_metrics(workload, records) -> tuple[dict, dict]:
    """End-to-end metrics of the closed loop, except ``setup_s``.

    Times are normalised to the reference host speed (see ``hostprobe``);
    throughput is the median of the per-cycle rates.
    """
    walls = [r.wall / r.host for r in records]
    cycles = [records[i:i + workload.cycle] for i in range(0, len(records), workload.cycle)]
    rates = [sum(r.ops for r in c) / sum(r.wall / r.host for r in c)
             for c in cycles if len(c) == workload.cycle]
    t = tail(walls)
    tail_ms = 1e3 * (t[0] if t else max(walls))
    metrics = {
        "ops_per_s": {"value": median(rates), "unit": "1/s"},
        "request_ms_p50": {"value": 1e3 * median(walls), "unit": "ms"},
        "request_ms_tail": {"value": tail_ms, "unit": "ms"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
    }
    report = {
        "requests": len(walls),
        "tail_percentile": t[1] if t else 100.0,
        "tail_note": None if t else "fewer than 11 requests: the maximum is reported",
        "throughput_samples": len(rates),
        "total_wall_s": sum(r.wall for r in records),
        "host_factor_p50": median(r.host for r in records),
        "raw_request_ms_p50": 1e3 * median(r.wall for r in records),
    }
    return metrics, report


def host_record(seed: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_rev": git_rev(),
        "workload_seed": seed,
    }


def git_rev() -> str | None:
    """The checked-out commit, read from .git without running git; None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def traced_replay(workload, records) -> tuple[dict, dict]:
    """Replay the untraced calls with the package wrapped; per-layer metrics and their report."""
    from layers import LayerTrace

    n = len(records)
    tracer = Tracer()
    layer = LayerTrace(tracer)
    restore = install(tracer, layer.targets(), "partsketch")
    walls = []
    try:
        for i in range(n):
            tracer.call_id = i
            _, error, wall = issue(workload, i)
            tracer.call_id = None
            walls.append(wall)
            digest = None if error else outputs_digest(workload, i)
            if digest != records[i].digest:
                records[i].failures.append((records[i].ops, f"traced replay: {error or 'digest differs'}"))
        for j in range(workload.cycle):
            tracer.call_id = n + j
            repeat_matches(workload, records, j, "traced repeat")
    finally:
        tracer.call_id = None
        restore()

    first = layer.sketch_counters(set(range(workload.cycle)))
    again = layer.sketch_counters(set(range(n, n + workload.cycle)))
    if first != again:
        records[0].failures.append((records[0].ops, f"exact counters differ on repeat: {first} vs {again}"))
    metrics, report = layer.metrics(set(range(n)), set(range(workload.cycle)),
                                    sum(r.wall for r in records), sum(walls))
    report["exact_counters"] = first
    tracer.write(workload.out.parent / "spans.jsonl")
    return metrics, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", required=True, choices=("prepare", "setup", "run", "trace"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--work-dir", type=Path, required=True)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, args.work_dir)
    if args.mode == "prepare":
        workload.prepare()
    start = time.perf_counter()
    workload.setup()
    setup_s = time.perf_counter() - start
    import partsketch
    if not Path(partsketch.__file__).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"imported partsketch from {partsketch.__file__}, not from this checkout")
    from hostprobe import HostProbe
    probe = HostProbe()

    result = {"mode": args.mode, "setup_s": setup_s / probe.factor(repeats=3), "setup_s_raw": setup_s}
    if args.mode in ("run", "trace"):
        seconds = args.seconds if args.mode == "run" else args.seconds / 2
        records = closed_loop(workload, seconds, probe)
        if args.mode == "run":
            metrics, report = latency_metrics(workload, records)
            for j in range(workload.cycle):
                repeat_matches(workload, records, j, "repeat")
        else:
            metrics, report = traced_replay(workload, records)
        report["first_digests"] = [r.digest for r in records[:workload.cycle]]
        report["host"] = host_record(args.seed)
        result.update(summary(records), metrics=metrics, report=report)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
