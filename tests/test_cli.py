import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from partsketch import (ENHANCED, ExperimentConfig, SketchConfig, bernstein_tail_bound,
                        bound_report, dense, distribution_to_json, finest, min_draw_threshold,
                        multiply, optimal_distribution, pairwise_plan, partition_from_json,
                        read_csv, read_matrix, sample_indices, sketch, sketching,
                        uniform_spectral_bound, write_binary, write_csv)
from partsketch.cli import _experiment_config, build_parser, main


@pytest.fixture
def matrices(tmp_path):
    rng = np.random.default_rng(0)
    a = dense(rng.random((3, 4)))
    b = dense(rng.random((4, 2)))
    write_csv(a, tmp_path / "a.csv")
    write_csv(b, tmp_path / "b.csv")
    return a, b


def files_equal(d1, d2, names):
    return all((d1 / n).read_bytes() == (d2 / n).read_bytes() for n in names)


class TestSketchCommand:
    def test_single_group_partition_recovers_product(self, tmp_path, matrices):
        a, b = matrices
        (tmp_path / "part.json").write_text("[[1, 2, 3, 4]]")
        code = main(["sketch", "--a", str(tmp_path / "a.csv"), "--b", str(tmp_path / "b.csv"),
                     "--c", "3", "--seed", "1",
                     "--partition-file", str(tmp_path / "part.json"),
                     "--out-dir", str(tmp_path / "out")])
        assert code == 0
        estimate = read_csv(tmp_path / "out/estimate.csv")
        assert np.array_equal(estimate, multiply(a, b))
        draws = json.loads((tmp_path / "out/draws.json").read_text())
        assert draws["draws"] == [1, 1, 1] and draws["counts"] == [3]
        assert draws["c"] == 3 and draws["seed"] == 1

    def test_same_seed_is_byte_identical(self, tmp_path, matrices):
        args = ["sketch", "--a", str(tmp_path / "a.csv"), "--b", str(tmp_path / "b.csv"),
                "--c", "8", "--seed", "42", "--strategy", "enhanced"]
        assert main(args + ["--out-dir", str(tmp_path / "one")]) == 0
        assert main(args + ["--out-dir", str(tmp_path / "two")]) == 0
        names = ["estimate.csv", "draws.json", "bounds.json", "distribution.json"]
        assert files_equal(tmp_path / "one", tmp_path / "two", names)

    def test_finest_strategy(self, tmp_path, matrices):
        code = main(["sketch", "--a", str(tmp_path / "a.csv"), "--b", str(tmp_path / "b.csv"),
                     "--c", "5", "--out-dir", str(tmp_path / "out")])
        assert code == 0
        draws = json.loads((tmp_path / "out/draws.json").read_text())
        assert len(draws["draws"]) == 5
        assert len(draws["counts"]) == 4  # finest partition of 4 columns

    def test_draw_log_is_the_sampled_stream(self, tmp_path):
        # 20 enhanced pairs, c = 700 draws: the log must be the stream whose
        # counts the engine used, in draw order
        rng = np.random.default_rng(8)
        write_csv(dense(rng.random((3, 40)) - 0.5), tmp_path / "a.csv")
        write_csv(dense(rng.random((40, 2)) - 0.5), tmp_path / "b.csv")
        code = main(["sketch", "--a", str(tmp_path / "a.csv"), "--b", str(tmp_path / "b.csv"),
                     "--c", "700", "--seed", "6", "--strategy", "enhanced",
                     "--out-dir", str(tmp_path / "out")])
        assert code == 0
        a, b = read_csv(tmp_path / "a.csv"), read_csv(tmp_path / "b.csv")
        partition, dist = pairwise_plan(a, b, ENHANCED)
        log = json.loads((tmp_path / "out/draws.json").read_text())
        draws = np.array(log["draws"]) - 1
        assert partition.k == 20 and log["c"] == 700 and log["seed"] == 6
        assert log["draws"] == (sample_indices(dist, 700, 6) + 1).tolist()
        assert log["counts"] == np.bincount(draws, minlength=20).tolist()
        assert log["counts"] == sketch(a, b, partition, dist, SketchConfig(700, 6)).counts.tolist()

    def test_report_fields_present(self, tmp_path, matrices):
        main(["sketch", "--a", str(tmp_path / "a.csv"), "--b", str(tmp_path / "b.csv"),
              "--c", "2", "--out-dir", str(tmp_path / "out")])
        report = json.loads((tmp_path / "out/bounds.json").read_text())
        for key in ("weight_sum", "max_scaled_weight", "scaled_weight_sq_sum",
                    "product_spectral_norm", "product_frobenius_norm", "out_rows", "out_cols"):
            assert key in report


class TestOutputsAgainstPrimitives:
    """Every file of the four benchmark request kinds equals what the public primitives give."""

    C, SEED, K, EPSILON = 60, 11, 7, 3.0

    @pytest.fixture
    def inputs(self, tmp_path):
        rng = np.random.default_rng(12)
        a = dense(rng.random((5, 24)))
        for ext, write in (("csv", write_csv), ("bin", write_binary)):
            write(a, tmp_path / f"a.{ext}")
            write(dense(a.T), tmp_path / f"b.{ext}")
        (tmp_path / "part.json").write_text(
            json.dumps([[int(i) + 1 for i in g] for g in np.array_split(rng.permutation(24), 9)]))
        return tmp_path

    @staticmethod
    def json_text(obj):
        return json.dumps(obj, sort_keys=True, indent=2) + "\n"

    def reference_plan(self, tmp_path, ext, source):
        a, b = read_matrix(tmp_path / f"a.{ext}"), read_matrix(tmp_path / f"b.{ext}")
        if source == "finest":
            partition = finest(a.shape[1])
            return a, b, partition, optimal_distribution(a, b, partition)
        if source == "enhanced":
            return (a, b, *pairwise_plan(a, b, ENHANCED))
        partition = partition_from_json((tmp_path / "part.json").read_text())
        return a, b, partition, optimal_distribution(a, b, partition)

    @pytest.mark.parametrize("ext, source", [("csv", "finest"), ("bin", "enhanced"), ("bin", "partition")])
    def test_sketch_files(self, inputs, ext, source):
        plan = ["--partition-file", str(inputs / "part.json")] if source == "partition" else ["--strategy", source]
        out = inputs / "out"
        assert main(["sketch", "--a", str(inputs / f"a.{ext}"), "--b", str(inputs / f"b.{ext}"),
                     "--c", str(self.C), "--seed", str(self.SEED), *plan, "--out-dir", str(out)]) == 0
        a, b, partition, dist = self.reference_plan(inputs, ext, source)
        write_csv(sketch(a, b, partition, dist, SketchConfig(self.C, self.SEED)).estimate, inputs / "ref.csv")
        assert (out / "estimate.csv").read_bytes() == (inputs / "ref.csv").read_bytes()
        log = json.loads((out / "draws.json").read_text())
        draws = sample_indices(dist, self.C, self.SEED)
        assert log == {"draws": (draws + 1).tolist(), "seed": self.SEED, "c": self.C,
                       "counts": np.bincount(draws, minlength=partition.k).tolist()}
        report = dataclasses.asdict(bound_report(a, b, partition, dist))  # weights computed afresh
        assert (out / "bounds.json").read_text() == self.json_text(report)
        assert (out / "distribution.json").read_text() == distribution_to_json(dist) + "\n"

    def test_analyze_file(self, inputs):
        out = inputs / "out"
        assert main(["analyze", "--a", str(inputs / "a.bin"), "--b", str(inputs / "b.bin"), "--c", str(self.C),
                     "--strategy", "enhanced", "--k", str(self.K), "--epsilon", repr(self.EPSILON),
                     "--out-dir", str(out)]) == 0
        a, b, partition, dist = self.reference_plan(inputs, "bin", "enhanced")
        report = bound_report(a, b, partition, dist)
        threshold = min_draw_threshold(self.C, self.K)
        assert threshold.feasible
        expected = {
            "report": dataclasses.asdict(report),
            "tail_bound": {"c": self.C, "epsilon": self.EPSILON,
                           "value": bernstein_tail_bound(report, self.C, self.EPSILON)},
            "draw_threshold": {"c": self.C, "k": self.K, "threshold": threshold.threshold, "feasible": True},
            "uniform_spectral_bound": uniform_spectral_bound(a, b, self.C, self.K, threshold.threshold),
        }
        assert (out / "analysis.json").read_text() == self.json_text(expected)


class TestAnalyzeCommand:
    def test_reports_published_draw_threshold(self, tmp_path):
        rng = np.random.default_rng(1)
        write_csv(dense(rng.random((4, 4))), tmp_path / "m.csv")
        code = main(["analyze", "--a", str(tmp_path / "m.csv"), "--b", str(tmp_path / "m.csv"),
                     "--c", "500", "--k", "2000", "--out-dir", str(tmp_path / "out")])
        assert code == 0
        payload = json.loads((tmp_path / "out/analysis.json").read_text())
        assert payload["draw_threshold"] == {"c": 500, "k": 2000, "threshold": 3, "feasible": True}
        assert payload["uniform_spectral_bound"] > 0

    def test_tail_bound_needs_c(self, tmp_path, matrices):
        code = main(["analyze", "--a", str(tmp_path / "a.csv"), "--b", str(tmp_path / "b.csv"),
                     "--epsilon", "1.0", "--out-dir", str(tmp_path / "out")])
        assert code == 1

    def test_tail_bound_reported(self, tmp_path, matrices):
        code = main(["analyze", "--a", str(tmp_path / "a.csv"), "--b", str(tmp_path / "b.csv"),
                     "--c", "10", "--epsilon", "2.5", "--out-dir", str(tmp_path / "out")])
        assert code == 0
        payload = json.loads((tmp_path / "out/analysis.json").read_text())
        assert payload["tail_bound"]["value"] > 0


    @pytest.mark.parametrize("epsilon", ["nan", "inf", "1e999"])
    def test_non_finite_epsilon_is_config_error(self, tmp_path, matrices, capsys, epsilon):
        code = main(["analyze", "--a", str(tmp_path / "a.csv"), "--b", str(tmp_path / "b.csv"),
                     "--c", "5", "--epsilon", epsilon, "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert "epsilon must be finite and positive" in capsys.readouterr().err
        assert not (tmp_path / "out/analysis.json").exists()

    def test_one_parser_carries_nothing_between_calls(self, tmp_path, matrices):
        # the parser is built once per process: a sketch call's flags must not
        # reach the analyze call after it
        ab = ["--a", str(tmp_path / "a.csv"), "--b", str(tmp_path / "b.csv")]
        analyze = ["analyze", *ab, "--out-dir"]
        (tmp_path / "part.json").write_text("[[1, 2], [3, 4]]")
        assert main([*analyze, str(tmp_path / "before")]) == 0
        assert main(["sketch", *ab, "--c", "5", "--seed", "3", "--strategy", "simple",
                     "--partition-file", str(tmp_path / "part.json"),
                     "--out-dir", str(tmp_path / "sketch")]) == 0
        assert main([*analyze, str(tmp_path / "after")]) == 0
        before = (tmp_path / "before/analysis.json").read_bytes()
        assert (tmp_path / "after/analysis.json").read_bytes() == before
        assert build_parser() is build_parser()
        fresh = build_parser.__wrapped__().parse_args([*analyze, "out"])
        assert vars(build_parser().parse_args([*analyze, "out"])) == vars(fresh)


class TestExitCodes:
    def test_missing_file_is_io_error(self, tmp_path):
        code = main(["sketch", "--a", str(tmp_path / "missing.csv"),
                     "--b", str(tmp_path / "missing.csv"),
                     "--c", "1", "--out-dir", str(tmp_path / "out")])
        assert code == 2

    def test_malformed_matrix_is_io_error(self, tmp_path):
        (tmp_path / "bad.csv").write_text("1.0,2.0\n3.0\n")
        code = main(["sketch", "--a", str(tmp_path / "bad.csv"), "--b", str(tmp_path / "bad.csv"),
                     "--c", "1", "--out-dir", str(tmp_path / "out")])
        assert code == 2

    @pytest.mark.parametrize("separator", ["\u2028", "\x85"])
    def test_unicode_line_separator_is_io_error(self, tmp_path, capsys, separator):
        # str.splitlines ends a line at these, so locating the bad field used to raise StopIteration
        path = tmp_path / "f.csv"
        path.write_text(f"1,2{separator},3\n4,5,6\n", encoding="utf-8")
        code = main(["sketch", "--a", str(path), "--b", str(path), "--c", "3",
                     "--out-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2 and "Traceback" not in err
        assert err == f"i/o error: {path}: line 1: {'2' + separator!r} is not a plain ASCII decimal number\n"

    def test_zero_product_is_numeric_failure(self, tmp_path):
        write_csv(dense(np.zeros((2, 3))), tmp_path / "z.csv")
        write_csv(dense(np.zeros((3, 2))), tmp_path / "z2.csv")
        code = main(["sketch", "--a", str(tmp_path / "z.csv"), "--b", str(tmp_path / "z2.csv"),
                     "--c", "1", "--out-dir", str(tmp_path / "out")])
        assert code == 3

    def test_partition_of_wrong_size_is_config_error(self, tmp_path, matrices, capsys):
        (tmp_path / "part.json").write_text("[[1, 2], [3]]")
        code = main(["sketch", "--a", str(tmp_path / "a.csv"), "--b", str(tmp_path / "b.csv"),
                     "--c", "3", "--partition-file", str(tmp_path / "part.json"),
                     "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert "covers 3 indices but the inner dimension is 4" in capsys.readouterr().err

    def test_non_integer_partition_entry_is_config_error(self, tmp_path, matrices):
        (tmp_path / "part.json").write_text("[[1.9], [2], [3], [4]]")
        code = main(["analyze", "--a", str(tmp_path / "a.csv"), "--b", str(tmp_path / "b.csv"),
                     "--partition-file", str(tmp_path / "part.json"),
                     "--out-dir", str(tmp_path / "out")])
        assert code == 1

    def test_bad_flag_is_config_error(self, tmp_path):
        code = main(["sketch", "--strategy", "sorted", "--a", "x", "--b", "y",
                     "--c", "1", "--out-dir", str(tmp_path)])
        assert code == 1

    def test_invalid_sample_count_is_config_error(self, tmp_path, matrices):
        code = main(["sketch", "--a", str(tmp_path / "a.csv"), "--b", str(tmp_path / "b.csv"),
                     "--c", "0", "--out-dir", str(tmp_path / "out")])
        assert code == 1

    @pytest.mark.parametrize("command", ["sketch", "experiment"])
    def test_out_of_memory_is_config_error(self, tmp_path, matrices, monkeypatch, capsys, command):
        # an oversized --c makes the allocation of the variates fail (a sketch
        # request's one stream, an experiment's draw block); stand in for it
        # without allocating anything
        def no_memory(seeds, c):
            raise MemoryError(f"Unable to allocate an array of {c} variates")

        monkeypatch.setattr(sketching, "uniform_rows", no_memory)
        monkeypatch.setattr(sketching, "uniform_stream", no_memory)
        if command == "sketch":
            argv = ["sketch", "--a", str(tmp_path / "a.csv"), "--b", str(tmp_path / "b.csv"),
                    "--c", "100000000000"]
        else:
            argv = ["experiment", "fig1", "--rows", "3", "--cols", "4", "--c-min", "2",
                    "--c-max", "2", "--trials", "2"]
        assert main([*argv, "--out-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory: Unable to allocate") and "Traceback" not in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["sketch", "analyze"])
    def test_overflow_is_numeric_failure(self, tmp_path, capsys, command):
        write_csv(dense(np.full((2, 3), 1e200)), tmp_path / "a.csv")
        write_csv(dense(np.full((3, 2), 1e200)), tmp_path / "b.csv")
        code = main([command, "--a", str(tmp_path / "a.csv"), "--b", str(tmp_path / "b.csv"),
                     "--c", "2", "--out-dir", str(tmp_path / "out")])
        assert code == 3
        assert capsys.readouterr().err.startswith("numeric failure: overflow encountered in ")

    def test_csv_number_syntax_is_io_error(self, tmp_path, capsys):
        for name, text in (("sep.csv", "1_0,2\n3,4\n"), ("digit.csv", "1,2\n3,\u0661\n")):
            (tmp_path / name).write_text(text, encoding="utf-8")
            code = main(["sketch", "--a", str(tmp_path / name), "--b", str(tmp_path / name),
                         "--c", "2", "--out-dir", str(tmp_path / "out")])
            assert code == 2
            assert capsys.readouterr().err.startswith(f"i/o error: {tmp_path / name}: line ")

    def test_experiment_rejects_finest_strategy(self, tmp_path, capsys):
        code = main(["experiment", "fig1", "--strategy", "finest",
                     "--out-dir", str(tmp_path)])
        assert code == 1
        assert "argument --strategy: invalid choice: 'finest'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["sketch", "analyze"])
    @pytest.mark.parametrize("b_rows", [3, 5])
    @pytest.mark.parametrize("plan", ["finest", "enhanced", "partition-file"])
    def test_non_conforming_b_is_config_error(self, tmp_path, capsys, command, b_rows, plan):
        rng = np.random.default_rng(0)
        write_csv(dense(rng.random((3, 4))), tmp_path / "a.csv")
        write_csv(dense(rng.random((b_rows, 2))), tmp_path / "b.csv")
        (tmp_path / "part.json").write_text("[[1, 2], [3, 4]]")
        argv = [command, "--a", str(tmp_path / "a.csv"), "--b", str(tmp_path / "b.csv"),
                "--c", "3", "--out-dir", str(tmp_path / "out")]
        if plan == "partition-file":
            argv += ["--partition-file", str(tmp_path / "part.json")]
        else:
            argv += ["--strategy", plan]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: dimension mismatch: (3, 4) x ({b_rows}, 2)")
        assert "Traceback" not in err

    @pytest.mark.parametrize("which", ["fig1", "fig2", "table1"])
    @pytest.mark.parametrize("name, content", [("bad.csv", b"1.0,2.0\n3.0\n"), ("bad.bin", b"abc")])
    def test_malformed_matrix_file_is_io_error(self, tmp_path, capsys, which, name, content):
        path = tmp_path / name
        path.write_bytes(content)
        assert main(["experiment", which, "--matrix-file", str(path), "--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"i/o error: {path}: ") and err.count(str(path)) == 1

    @pytest.mark.parametrize("command", ["sketch", "analyze", "experiment"])
    def test_help_exits_zero(self, capsys, command):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: partsketch {command}")


class TestExperimentCommand:
    FLAGS = ["--rows", "4", "--cols", "6", "--c-min", "3", "--c-max", "6",
             "--c-step", "3", "--trials", "8", "--runs", "6", "--seed", "21"]

    def test_fig1_runs_and_reruns_identically(self, tmp_path):
        assert main(["experiment", "fig1", *self.FLAGS, "--out-dir", str(tmp_path / "one")]) == 0
        assert main(["experiment", "fig1", *self.FLAGS, "--out-dir", str(tmp_path / "two")]) == 0
        assert files_equal(tmp_path / "one", tmp_path / "two", ["fig1.csv"])

    def test_fig2_and_table1(self, tmp_path):
        assert main(["experiment", "fig2", *self.FLAGS, "--out-dir", str(tmp_path / "f2")]) == 0
        assert main(["experiment", "table1", *self.FLAGS, "--out-dir", str(tmp_path / "t1")]) == 0
        assert (tmp_path / "f2/fig2.csv").exists()
        assert (tmp_path / "t1/table1.json").exists()

    def test_explicit_flags_override_paper_scale(self, tmp_path):
        args = build_parser().parse_args(["experiment", "fig1", "--paper-scale", "--trials", "3",
                                          "--rows", "7", "--out-dir", str(tmp_path)])
        cfg = _experiment_config(args)
        assert (cfg.rows, cfg.trials) == (7, 3)
        assert (cfg.cols, cfg.runs, cfg.c_grid()) == (2000, 50000, [1000, 1500, 2000, 2500, 3000])
        desk = _experiment_config(build_parser().parse_args(["experiment", "fig1", "--out-dir", "x"]))
        assert desk == ExperimentConfig()

    def test_paper_scale_table1_keeps_explicit_size(self, tmp_path):
        size = ["--rows", "5", "--cols", "9", "--seed", "4"]
        assert main(["experiment", "table1", "--paper-scale", *size, "--out-dir", str(tmp_path / "p")]) == 0
        assert main(["experiment", "table1", *size, "--out-dir", str(tmp_path / "d")]) == 0
        assert files_equal(tmp_path / "p", tmp_path / "d", ["table1.json"])

    def test_fig2_default_counts_follow_the_loaded_matrix(self, tmp_path):
        write_csv(dense(np.random.default_rng(3).random((5, 12))), tmp_path / "m.csv")
        assert main(["experiment", "fig2", "--matrix-file", str(tmp_path / "m.csv"), "--runs", "1",
                     "--out-dir", str(tmp_path / "out")]) == 0
        rows = (tmp_path / "out/fig2.csv").read_text().splitlines()[1:]
        assert sorted({int(row.split(",")[1]) for row in rows}) == [6, 18]

    @pytest.mark.parametrize("flag", ["--rows", "--cols"])
    def test_matrix_file_rejects_explicit_size(self, tmp_path, capsys, flag):
        write_csv(dense(np.ones((2, 3))), tmp_path / "m.csv")
        code = main(["experiment", "fig1", "--matrix-file", str(tmp_path / "m.csv"), flag, "3",
                     "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert "--matrix-file" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_module_entry_point(self, tmp_path):
        rng = np.random.default_rng(2)
        write_csv(dense(rng.random((2, 3))), tmp_path / "a.csv")
        write_csv(dense(rng.random((3, 2))), tmp_path / "b.csv")
        proc = subprocess.run(
            [sys.executable, "-m", "partsketch", "analyze",
             "--a", str(tmp_path / "a.csv"), "--b", str(tmp_path / "b.csv"),
             "--c", "500", "--k", "2000", "--out-dir", str(tmp_path / "out")],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        payload = json.loads((tmp_path / "out/analysis.json").read_text())
        assert payload["draw_threshold"]["threshold"] == 3


class TestDeterminismPerThreadCount:
    """Same inputs, seed, BLAS build and BLAS thread count give the same bytes."""

    NAMES = ("estimate.csv", "draws.json", "bounds.json", "distribution.json")

    def run_sketch(self, tmp_path, threads, out):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads))
        proc = subprocess.run(
            [sys.executable, "-m", "partsketch", "sketch", "--a", str(tmp_path / "a.bin"),
             "--b", str(tmp_path / "b.bin"), "--c", "3000", "--seed", "5",
             "--out-dir", str(tmp_path / out)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        return [(tmp_path / out / name).read_bytes() for name in self.NAMES]

    def test_reruns_are_byte_identical_at_one_and_two_threads(self, tmp_path):
        # the paper shape, large enough for OpenBLAS to split a GEMM across threads
        a = dense(np.random.default_rng(3).random((100, 2000)))
        write_binary(a, tmp_path / "a.bin")
        write_binary(dense(a.T), tmp_path / "b.bin")
        for threads in (1, 2):
            first = self.run_sketch(tmp_path, threads, f"t{threads}-first")
            second = self.run_sketch(tmp_path, threads, f"t{threads}-second")
            assert first == second, f"outputs differ between reruns at {threads} threads"

    def run_fig1(self, tmp_path, threads, out, trials, c):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads))
        proc = subprocess.run(
            [sys.executable, "-m", "partsketch", "experiment", "fig1", "--rows", "100", "--cols", "2000",
             "--trials", str(trials), "--c-min", str(c), "--c-max", str(c), "--seed", "5",
             "--out-dir", str(tmp_path / out)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        return (tmp_path / out / "fig1.csv").read_bytes()

    # the paper shape: 3 trials per method take their errors from the estimates,
    # 30 at c = 3000 from the 2000 x 2000 error form and each block's GEMM against it
    @pytest.mark.parametrize("trials, c", [(3, 1000), (30, 3000)])
    def test_fig1_reruns_are_byte_identical_at_one_and_two_threads(self, tmp_path, trials, c):
        for threads in (1, 2):
            first = self.run_fig1(tmp_path, threads, f"t{threads}-first", trials, c)
            second = self.run_fig1(tmp_path, threads, f"t{threads}-second", trials, c)
            assert first == second, f"fig1.csv differs between reruns at {threads} threads"
