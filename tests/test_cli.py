import json
import os
import subprocess
import sys

import numpy as np
import pytest

from partsketch import dense, multiply, read_csv, sketching, write_binary, write_csv
from partsketch.cli import build_parser, main


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

    def test_report_fields_present(self, tmp_path, matrices):
        main(["sketch", "--a", str(tmp_path / "a.csv"), "--b", str(tmp_path / "b.csv"),
              "--c", "2", "--out-dir", str(tmp_path / "out")])
        report = json.loads((tmp_path / "out/bounds.json").read_text())
        for key in ("weight_sum", "max_scaled_weight", "scaled_weight_sq_sum",
                    "product_spectral_norm", "product_frobenius_norm", "out_rows", "out_cols"):
            assert key in report


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
        # an oversized --c makes the draw block's allocation fail; stand in for
        # it without allocating anything
        def no_memory(dist, c, seeds):
            raise MemoryError(f"Unable to allocate an array with shape ({len(seeds)}, {c})")

        monkeypatch.setattr(sketching, "_draw_block", no_memory)
        if command == "sketch":
            argv = ["sketch", "--a", str(tmp_path / "a.csv"), "--b", str(tmp_path / "b.csv"),
                    "--c", "100000000000"]
        else:
            argv = ["experiment", "fig1", "--rows", "3", "--cols", "4", "--c-min", "2",
                    "--c-max", "2", "--trials", "2"]
        assert main([*argv, "--out-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory: Unable to allocate") and "Traceback" not in err

    def test_csv_number_syntax_is_io_error(self, tmp_path, capsys):
        for name, text in (("sep.csv", "1_0,2\n3,4\n"), ("digit.csv", "1,2\n3,\u0661\n")):
            (tmp_path / name).write_text(text, encoding="utf-8")
            code = main(["sketch", "--a", str(tmp_path / name), "--b", str(tmp_path / name),
                         "--c", "2", "--out-dir", str(tmp_path / "out")])
            assert code == 2
            assert capsys.readouterr().err.startswith(f"i/o error: {tmp_path / name}: line ")

    def test_experiment_rejects_finest_strategy(self, tmp_path):
        code = main(["experiment", "fig1", "--strategy", "finest",
                     "--out-dir", str(tmp_path)])
        assert code == 1


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
