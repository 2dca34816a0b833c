"""Which package functions the traced run wraps, and the per-layer metrics derived from their spans.

Span names are ``<module>.<function>`` after the ``partsketch`` package,
with a suffix where one function serves two kinds of call (``read_matrix``
by file format, ``cli.main`` by subcommand).
"""

from __future__ import annotations

import os

import numpy as np

from tracer import median, self_times, tail

NORM_SAMPLES = 16  # spectral_norm calls whose inputs are kept for the LAPACK comparison

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = [
    ("rng.derive_seed.calls", "count", "lower"),
    ("rng.derive_seed.busy_s", "s", "lower"),
    ("sketching.sample_indices.calls", "count", "lower"),
    ("sketching.sample_indices.busy_s", "s", "lower"),
    ("sketching.sketch.calls", "count", "lower"),
    ("sketching.sketch.busy_s", "s", "lower"),
    ("sketching.sketch.self_s", "s", "lower"),
    ("sketching.sketch.ms_p50", "ms", "lower"),
    ("sketching.sketch.ms_tail", "ms", "lower"),
    ("sketching.distinct_groups", "count", "lower"),
    ("sketching.distinct_ratio", "ratio", "lower"),
    ("sketching.min_flops", "flop_computed", "lower"),
    ("sketching.min_bytes", "B_computed", "lower"),
    ("sketching.gflops", "Gflop/s", "higher"),
    ("sketching.pairwise_plan.ms_p50", "ms", "lower"),
    ("distributions.optimal_distribution.calls", "count", "lower"),
    ("distributions.optimal_distribution.busy_s", "s", "lower"),
    ("distributions.optimal_distribution.ms_p50", "ms", "lower"),
    ("distributions.aggregate_distribution.ms_p50", "ms", "lower"),
    ("partitions.pair_partition.ms_p50", "ms", "lower"),
    ("partitions.partition_from_json.ms_p50", "ms", "lower"),
    ("analysis.bound_report.calls", "count", "lower"),
    ("analysis.bound_report.busy_s", "s", "lower"),
    ("analysis.bound_report.ms_p50", "ms", "lower"),
    ("analysis.min_draw_threshold.ms_p50", "ms", "lower"),
    ("analysis.uniform_spectral_bound.ms_p50", "ms", "lower"),
    ("matrices.spectral_norm.calls", "count", "lower"),
    ("matrices.spectral_norm.busy_s", "s", "lower"),
    ("matrices.spectral_norm.ms_p50", "ms", "lower"),
    ("matrices.spectral_norm.ms_tail", "ms", "lower"),
    ("matrices.spectral_norm.max_rel_err", "ratio", "lower"),
    ("matrices.read_matrix.csv.ms_p50", "ms", "lower"),
    ("matrices.read_matrix.bin.ms_p50", "ms", "lower"),
    ("matrices.read_matrix.mb_per_s", "MB/s", "higher"),
    ("matrices.write_csv.ms_p50", "ms", "lower"),
    ("experiments.run_fig1.self_s", "s", "lower"),
    ("experiments.run_fig2.self_s", "s", "lower"),
    ("cli.main.sketch.ms_p50", "ms", "lower"),
    ("cli.main.analyze.ms_p50", "ms", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]
TIMING_STATS = ("calls", "busy_s", "self_s", "ms_p50", "ms_tail")


def _read_matrix_name(args, kwargs):
    path = str(args[0] if args else kwargs["path"])
    return "matrices.read_matrix.bin" if path.endswith(".bin") else "matrices.read_matrix.csv"


def _main_name(args, kwargs):
    argv = args[0] if args else kwargs.get("argv")
    return f"cli.main.{argv[0]}" if argv else "cli.main"


class LayerTrace:
    """Hooks that keep what the counters need, and the metrics derived afterwards."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.sketches = []  # (call id, counts, partition, rows of a, cols of b)
        self.norms = []  # (input copy, returned norm), the first NORM_SAMPLES calls
        self.read_paths = {}  # span index -> path, for bytes read

    def targets(self):
        """``(module, attribute, span name, hook)`` for ``tracer.install``."""
        return [
            ("partsketch.rng", "derive_seed", "rng.derive_seed", None),
            ("partsketch.sketching", "sample_indices", "sketching.sample_indices", None),
            ("partsketch.sketching", "sketch", "sketching.sketch", self._on_sketch),
            ("partsketch.sketching", "pairwise_plan", "sketching.pairwise_plan", None),
            ("partsketch.distributions", "optimal_distribution",
             "distributions.optimal_distribution", None),
            ("partsketch.distributions", "aggregate_distribution",
             "distributions.aggregate_distribution", None),
            ("partsketch.partitions", "pair_partition", "partitions.pair_partition", None),
            ("partsketch.partitions", "partition_from_json", "partitions.partition_from_json", None),
            ("partsketch.analysis", "bound_report", "analysis.bound_report", None),
            ("partsketch.analysis", "min_draw_threshold", "analysis.min_draw_threshold", None),
            ("partsketch.analysis", "uniform_spectral_bound", "analysis.uniform_spectral_bound", None),
            ("partsketch.matrices", "spectral_norm", "matrices.spectral_norm", self._on_norm),
            ("partsketch.matrices", "read_matrix", _read_matrix_name, self._on_read),
            ("partsketch.matrices", "write_csv", "matrices.write_csv", None),
            ("partsketch.experiments", "run_fig1", "experiments.run_fig1", None),
            ("partsketch.experiments", "run_fig2", "experiments.run_fig2", None),
            ("partsketch.cli", "main", _main_name, None),
        ]

    def _on_sketch(self, index, args, kwargs, result):
        a = args[0] if args else kwargs["a"]
        b = args[1] if len(args) > 1 else kwargs["b"]
        partition = args[2] if len(args) > 2 else kwargs["partition"]
        call_id = self.tracer.spans[index].call_id
        self.sketches.append((call_id, result.counts, partition, a.shape[0], b.shape[1]))

    def _on_norm(self, index, args, kwargs, result):
        if len(self.norms) < NORM_SAMPLES:
            self.norms.append((np.array(args[0] if args else kwargs["a"]), result))

    def _on_read(self, index, args, kwargs, result):
        self.read_paths[index] = str(args[0] if args else kwargs["path"])

    # -- derived metrics ---------------------------------------------------

    def sketch_counters(self, call_ids) -> dict:
        """Exact per-sketch counters over the sketches of the given benchmark calls.

        ``min_flops``/``min_bytes`` are computed lower bounds for forming the
        drawn blocks: ``2 m rho sum|g|`` flops and ``8 ((m + rho) sum|g| + m rho)``
        bytes, summed over the distinct drawn groups g.
        """
        sizes_of = {}
        distinct = draws = flops = nbytes = sketches = 0
        for call_id, counts, partition, m, rho in self.sketches:
            if call_id not in call_ids:
                continue
            sizes = sizes_of.get(id(partition))
            if sizes is None:
                sizes = sizes_of[id(partition)] = np.array([len(g) for g in partition.groups])
            drawn = counts > 0
            width = int(sizes[drawn].sum())
            sketches += 1
            distinct += int(drawn.sum())
            draws += int(counts.sum())
            flops += 2 * m * rho * width
            nbytes += 8 * ((m + rho) * width + m * rho)
        return {"sketches": sketches, "distinct_groups": distinct, "draws": draws,
                "min_flops": flops, "min_bytes": nbytes}

    def metrics(self, call_ids, counter_ids, untraced_wall: float, traced_wall: float):
        """(per-layer metrics, report of absent metrics and reconciliation) for the traced calls."""
        spans = self.tracer.finished()
        own = self_times(spans)
        durations, self_s, read_bytes = {}, {}, 0
        for index, (span, s) in enumerate(zip(spans, own)):
            if span.call_id not in call_ids:
                continue
            durations.setdefault(span.name, []).append(span.end - span.start)
            self_s[span.name] = self_s.get(span.name, 0.0) + s
            if index in self.read_paths:
                read_bytes += os.path.getsize(self.read_paths[index])
        values, absent = {}, {}

        def put(name, source, value):
            if value is None:
                absent[name] = f"no {source} sample on this workload"
                value = 0.0
            values[name] = float(value)

        for name, _, _ in PER_LAYER:
            span, stat = name.rsplit(".", 1)
            if stat not in TIMING_STATS or span == "cli.main":
                continue
            d = durations.get(span, [])
            if stat == "calls":
                put(name, span, len(d))
            elif stat == "busy_s":
                put(name, span, sum(d))
            elif stat == "self_s":
                put(name, span, self_s.get(span))
            elif stat == "ms_p50":
                put(name, span, 1e3 * median(d) if d else None)
            else:
                t = tail(d)
                put(name, span, 1e3 * t[0] if t else None)
        main_spans = [k for k in durations if k.startswith("cli.main.")]
        put("cli.main.self_s", "cli.main",
            sum(self_s[k] for k in main_spans) if main_spans else None)

        exact = self.sketch_counters(counter_ids)
        n = exact["sketches"]
        put("sketching.distinct_groups", "sketch", exact["distinct_groups"] / n if n else None)
        put("sketching.distinct_ratio", "sketch", exact["distinct_groups"] / exact["draws"] if n else None)
        put("sketching.min_flops", "sketch", exact["min_flops"] / n if n else None)
        put("sketching.min_bytes", "sketch", exact["min_bytes"] / n if n else None)
        busy = sum(durations.get("sketching.sketch", []))
        flops = self.sketch_counters(call_ids)["min_flops"]
        put("sketching.gflops", "sketch", flops / busy / 1e9 if busy else None)

        exact_norms = [(np.linalg.norm(m, 2), v) for m, v in self.norms]
        errs = [abs(lapack - v) / lapack for lapack, v in exact_norms if lapack > 0]
        put("matrices.spectral_norm.max_rel_err", "spectral_norm", max(errs) if errs else None)
        reads = durations.get("matrices.read_matrix.csv", []) + durations.get("matrices.read_matrix.bin", [])
        put("matrices.read_matrix.mb_per_s", "read_matrix", read_bytes / 1e6 / sum(reads) if reads else None)
        put("trace.overhead_frac", "trace", traced_wall / untraced_wall - 1.0)

        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
        roots_self = sum(self_s.values())
        overhead = values["trace.overhead_frac"]
        reconcile = {
            "self_sum_s": roots_self,
            "untraced_wall_s": untraced_wall,
            "traced_wall_s": traced_wall,
            "self_over_untraced": roots_self / untraced_wall - 1.0,
            "within_overhead": abs(roots_self / untraced_wall - 1.0) <= abs(overhead) + 0.01,
        }
        return metrics, {"absent": absent, "reconcile": reconcile,
                         "sketch_busy_share": busy / traced_wall if traced_wall else None,
                         "span_count": len(spans)}
