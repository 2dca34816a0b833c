"""Self-tests of the benchmark's own helpers and output checks.

    python3 perfbench/selftest.py

Covers the tail-percentile rule, self-time arithmetic on nested spans,
wrapper installation and restoration, and shows that each output check
rejects a corrupted output.  Imports the package from the checkout's ``src``.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import layers  # noqa: E402
import workload  # noqa: E402
from tracer import Span, Tracer, install, self_times, tail  # noqa: E402


class TailRule(unittest.TestCase):
    def test_leaves_ten_samples_beyond(self):
        self.assertEqual(tail(range(1, 101)), (90, 90.0, 100))
        self.assertEqual(tail(range(11, 0, -1)), (1, 100.0 / 11, 11))

    def test_needs_more_than_ten_samples(self):
        self.assertIsNone(tail(range(10)))
        self.assertIsNone(tail([]))


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        spans = [Span("root", 0.0, 10.0, -1, 0), Span("a", 1.0, 4.0, 0, 0),
                 Span("a.inner", 2.0, 3.0, 1, 0), Span("b", 5.0, 9.0, 0, 0)]
        self.assertEqual(self_times(spans), [3.0, 2.0, 1.0, 4.0])

    def test_children_overlap_and_overhang_count_once(self):
        spans = [Span("root", 0.0, 10.0, -1, 0), Span("x", 2.0, 6.0, 0, 0),
                 Span("y", 4.0, 12.0, 0, 0)]
        self.assertEqual(self_times(spans)[0], 2.0)

    def test_tracer_links_parents_and_call_ids(self):
        ticks = iter(range(100))
        tracer = Tracer(clock=lambda: float(next(ticks)))
        inner = tracer.wrap(lambda x: x + 1, "inner")
        outer = tracer.wrap(lambda x: inner(x) * 2, "outer")
        self.assertEqual(outer(1), 4)  # untraced while call_id is None
        self.assertEqual(tracer.spans, [])
        tracer.call_id = 7
        outer(1)
        spans = tracer.finished()
        self.assertEqual([(s.name, s.parent, s.call_id) for s in spans],
                         [("outer", -1, 7), ("inner", 0, 7)])
        self.assertEqual(self_times(spans), [2.0, 1.0])


class WrapperRestoration(unittest.TestCase):
    def test_every_name_is_wrapped_then_restored(self):
        import partsketch.cli
        import partsketch.experiments
        import partsketch.sketching
        original = partsketch.sketching.sketch
        tracer = Tracer()
        restore = install(tracer, layers.LayerTrace(tracer).targets(), "partsketch")
        try:
            for module in (partsketch, partsketch.sketching, partsketch.experiments, partsketch.cli):
                self.assertIs(module.sketch.__wrapped__, original)
        finally:
            restore()
        for module in (partsketch, partsketch.sketching, partsketch.experiments, partsketch.cli):
            self.assertIs(module.sketch, original)

    def test_failed_install_leaves_nothing_wrapped(self):
        import partsketch.sketching
        original = partsketch.sketching.sketch
        targets = [("partsketch.sketching", "sketch", "s", None),
                   ("partsketch.sketching", "no_such_function", "x", None)]
        with self.assertRaises(AttributeError):
            install(Tracer(), targets, "partsketch")
        self.assertIs(partsketch.sketching.sketch, original)


class OutputChecks(unittest.TestCase):
    """Each workload's check passes on a real output and fails on a corrupted copy."""

    def setUp(self):
        build_dir = HERE.parent / ".bench_build"
        build_dir.mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(dir=build_dir))

    def tearDown(self):
        shutil.rmtree(self.work)

    def run_call(self, cls, index):
        wl = cls(3, self.work)
        wl.prepare()
        wl.setup()
        result, error, _ = workload.issue(wl, index)
        self.assertIsNone(error)
        self.assertEqual(wl.check(index, result), [])
        return wl, result

    def test_cli_estimate_scaled_by_1_01(self):
        for index in (0, 1, 2):
            wl, code = self.run_call(workload.CliDesk, index)
            path = wl.out / wl.kind(index) / "estimate.csv"
            scaled = 1.01 * checks.read_csv_matrix(path)
            path.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in scaled) + "\n")
            failures = wl.check(index, code)
            self.assertEqual(len(failures), 1)
            self.assertIn("error bound", failures[0][1])

    def test_cli_analyze_weight_sum(self):
        wl, code = self.run_call(workload.CliDesk, 3)
        path = wl.out / wl.kind(3) / "analysis.json"
        payload = json.loads(path.read_text())
        payload["report"]["weight_sum"] *= 1.01
        path.write_text(json.dumps(payload))
        self.assertIn("weight_sum", wl.check(3, code)[0][1])

    def test_cli_non_zero_exit(self):
        wl = workload.CliDesk(3, self.work)
        wl.prepare()
        wl.setup()
        (wl.inputs / "b.bin").unlink()
        result, error, _ = workload.issue(wl, 1)
        self.assertIsNone(error)
        self.assertEqual(wl.check(1, result), [(1, "exit code 2")])

    def test_fig2_dropped_row(self):
        wl, rows = self.run_call(workload.Fig2Paper, 0)
        path = wl.out / "fig2.csv"
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:5] + lines[6:]))
        failures = wl.check(0, rows)
        self.assertEqual(len(failures), 1)
        self.assertIn("missing fig2 row", failures[0][1])

    def test_fig2_sampled_row_altered(self):
        wl, rows = self.run_call(workload.Fig2Paper, 0)
        path = wl.out / "fig2.csv"
        lines = path.read_text().splitlines()
        # Call 0 samples (finest, 1000, run 0), the first data row.
        method, c, run, value = lines[1].split(",")
        lines[1] = f"{method},{c},{run},{float(value) * 1.01!r}"
        path.write_text("\n".join(lines) + "\n")
        self.assertIn("recomputed", wl.check(0, rows)[0][1])

    def test_fig1_mean_off_by_a_factor(self):
        wl, rows = self.run_call(workload.Fig1Desk, 0)
        path = wl.out / "fig1.csv"
        lines = path.read_text().splitlines()
        fields = lines[1].split(",")
        fields[3] = repr(2 * float(fields[3]))
        lines[1] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        failures = wl.check(0, rows)
        self.assertEqual(len(failures), 1)
        self.assertIn("z =", failures[0][1])


class BenchmarkFile(unittest.TestCase):
    def test_metric_names_match_what_the_benchmark_reports(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
                         layers.PER_LAYER)
        fake = type("Fake", (), {"cycle": 1})
        records = [workload.Record(i, 1, 0.001 * (i + 1)) for i in range(20)]
        metrics, report = workload.latency_metrics(fake, records)
        self.assertEqual(report["tail_percentile"], 50.0)
        self.assertAlmostEqual(metrics["request_ms_tail"]["value"], 10.0)
        reported = {"setup_s": "s", **{k: v["unit"] for k, v in metrics.items()}}
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, reported)
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(workload.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
