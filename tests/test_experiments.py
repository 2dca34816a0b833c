import json
from dataclasses import replace

import numpy as np
import pytest

from partsketch import (ConfigError, ExperimentConfig, aggregate_distribution,
                        expected_frobenius_error_sq, finest,
                        optimal_distribution, optimal_expected_error,
                        pair_partition, paper_scale, run_fig1, run_fig2,
                        run_table1, write_csv)
from partsketch import experiments, sketching
from partsketch.experiments import (FIG1_HEADER, FIG2_HEADER, _error_form_pays,
                                    _fig1_row, _methods, experiment_matrix,
                                    pairing_strategy)
from partsketch.matrices import frobenius_norm, multiply
from partsketch.rng import derive_seed
from helpers import (direct_errors_and_bounds, loop_fig1_csv, loop_fig2_csv,
                     stderr_error_bound)

TINY_FIG1 = ExperimentConfig(rows=8, cols=12, c_min=4, c_max=8, c_step=4,
                             trials=30, runs=10, seed=5)
TINY_FIG2 = ExperimentConfig(rows=5, cols=12, c_min=4, c_max=4, c_step=1,
                             trials=5, runs=40, seed=6)


class TestConfig:
    def test_grid(self):
        assert TINY_FIG1.c_grid() == [4, 8]

    def test_fig2_defaults_straddle_inner_dimension(self):
        cfg = ExperimentConfig(cols=500)
        assert cfg.fig2_c_values(500) == (250, 750)
        assert cfg.fig2_c_values(12) == (6, 18)

    def test_paper_scale(self):
        cfg = paper_scale(ExperimentConfig(seed=9))
        assert (cfg.rows, cfg.cols) == (100, 2000)
        assert cfg.c_grid() == [1000, 1500, 2000, 2500, 3000]
        assert cfg.trials == 1000 and cfg.runs == 50000
        assert cfg.seed == 9
        assert cfg.fig2_c_values(cfg.cols) == (1000, 3000)

    @pytest.mark.parametrize("bad", [
        dict(c_min=10, c_max=5),
        dict(c_step=0),
        dict(trials=0),
        dict(runs=0),
        dict(rows=0),
        dict(strategy="finest"),
        dict(strategy="sorted"),
    ])
    def test_invalid_configs(self, bad):
        with pytest.raises(ConfigError):
            ExperimentConfig(**bad)

    def test_matrix_generation_uses_dedicated_substream(self):
        cfg = ExperimentConfig(rows=3, cols=4, seed=1)
        assert np.array_equal(experiment_matrix(cfg), experiment_matrix(cfg))
        other = ExperimentConfig(rows=3, cols=4, seed=2)
        assert not np.array_equal(experiment_matrix(cfg), experiment_matrix(other))

    def test_matrix_path_round_trip(self, tmp_path):
        cfg = ExperimentConfig(rows=3, cols=4, seed=1)
        a = experiment_matrix(cfg)
        write_csv(a, tmp_path / "a.csv")
        loaded = experiment_matrix(ExperimentConfig(matrix_path=str(tmp_path / "a.csv")))
        assert np.array_equal(loaded, a)


class TestFig1:
    def test_schema_and_rows(self, tmp_path):
        rows = run_fig1(TINY_FIG1, tmp_path)
        text = (tmp_path / "fig1.csv").read_text()
        assert text.splitlines()[0] == FIG1_HEADER
        assert len(rows) == 4
        assert {r["method"] for r in rows} == {"finest", "pairwise-enhanced"}
        assert [r["c"] for r in rows] == [4, 4, 8, 8]

    def test_reruns_are_byte_identical(self, tmp_path):
        run_fig1(TINY_FIG1, tmp_path / "one")
        run_fig1(TINY_FIG1, tmp_path / "two")
        assert (tmp_path / "one/fig1.csv").read_bytes() == (tmp_path / "two/fig1.csv").read_bytes()

    def test_two_column_pairwise_error_is_machine_zero(self, tmp_path):
        cfg = ExperimentConfig(rows=3, cols=2, c_min=3, c_max=6, c_step=3,
                               trials=10, runs=5, seed=7)
        rows = run_fig1(cfg, tmp_path)
        for r in rows:
            if r["method"] == "pairwise-enhanced":
                assert r["mean_rel_frob_err"] <= 1e-14
                assert r["mean_sq_frob_err"] <= 1e-25

    def test_squared_error_column_matches_closed_form(self, tmp_path):
        cfg = ExperimentConfig(rows=6, cols=12, c_min=5, c_max=10, c_step=5,
                               trials=400, seed=11)
        rows = run_fig1(cfg, tmp_path)
        a = experiment_matrix(cfg)
        b = a.T
        p_o = optimal_distribution(a, b, finest(cfg.cols))
        pair_part = pair_partition(p_o.weights, pairing_strategy(cfg.strategy, cfg.seed))
        pair_dist = aggregate_distribution(p_o, pair_part)
        for r in rows:
            if r["method"] == "finest":
                theory = optimal_expected_error(a, b, finest(cfg.cols), r["c"])
            else:
                theory = expected_frobenius_error_sq(a, b, pair_part, pair_dist, r["c"])
            assert abs(r["mean_sq_frob_err"] - theory) <= 5 * r["stderr"]

    def test_monte_carlo_rate_is_half_order(self, tmp_path):
        cfg = ExperimentConfig(rows=6, cols=12, c_min=8, c_max=32, c_step=24,
                               trials=1200, seed=13)
        rows = run_fig1(cfg, tmp_path)
        by_method = {}
        for r in rows:
            by_method.setdefault(r["method"], {})[r["c"]] = r["mean_rel_frob_err"]
        for method, errs in by_method.items():
            ratio = errs[8] / errs[32]  # quadrupling c should halve the error
            assert 1.8 <= ratio <= 2.2, (method, ratio)


class TestFig2:
    def test_schema_and_rows(self, tmp_path):
        rows = run_fig2(TINY_FIG2, tmp_path)
        text = (tmp_path / "fig2.csv").read_text()
        assert text.splitlines()[0] == FIG2_HEADER
        assert len(rows) == 2 * 2 * TINY_FIG2.runs
        assert {r["c"] for r in rows} == {6, 18}

    def test_reruns_are_byte_identical(self, tmp_path):
        run_fig2(TINY_FIG2, tmp_path / "one")
        run_fig2(TINY_FIG2, tmp_path / "two")
        assert (tmp_path / "one/fig2.csv").read_bytes() == (tmp_path / "two/fig2.csv").read_bytes()

    def test_two_column_pairwise_errors_vanish(self, tmp_path):
        cfg = ExperimentConfig(rows=3, cols=2, trials=5, runs=20, seed=8,
                               c_min=2, c_max=2, c_step=1)
        rows = run_fig2(cfg, tmp_path)
        pairwise = [r["rel_2norm_err"] for r in rows if r["method"] == "pairwise-enhanced"]
        assert pairwise and all(e <= 1e-13 for e in pairwise)


class TestBatchedTrials:
    """Each (method, c) cell derives its seeds and draws its trials in one batch,
    with the bytes of one derive_seed and one sketch per trial."""

    # c = 6005 gives blocks of 5 trials (2**15 // 6005), so 12 trials span three blocks
    CFG = ExperimentConfig(rows=4, cols=12, c_min=5, c_max=6005, c_step=6000,
                           trials=12, runs=12, fig2_c=(5, 6005), seed=17)

    @pytest.mark.parametrize("strategy", ["enhanced", "random"])
    def test_fig1_matches_per_trial_loop(self, tmp_path, strategy):
        # 4 x 12 takes its errors from the estimates: every column but stderr
        # byte for byte, stderr (numpy's two-pass std against the exact-Fraction
        # statistics.stdev) within its derived bound
        cfg = replace(self.CFG, strategy=strategy)
        assert not _error_form_pays(4, 12, cfg.c_grid(), 2 * cfg.trials)
        run_fig1(cfg, tmp_path)
        got = (tmp_path / "fig1.csv").read_text().splitlines()
        want = loop_fig1_csv(cfg).splitlines()
        assert got[0] == want[0] and len(got) == len(want)
        a = experiment_matrix(cfg)
        methods = {label: (part, d) for label, part, d in _methods(cfg, a, a.T)}
        for line, ref in zip(got[1:], want[1:]):
            fields, ref_fields = line.split(","), ref.split(",")
            assert fields[:4] + fields[5:] == ref_fields[:4] + ref_fields[5:]
            c, label = int(fields[0]), fields[1]
            seeds = [derive_seed(cfg.seed, "fig1", label, c, t) for t in range(cfg.trials)]
            sq_errs, _ = direct_errors_and_bounds(a, a.T, *methods[label], c, seeds)
            assert abs(float(fields[4]) - float(ref_fields[4])) <= stderr_error_bound(sq_errs)

    def test_fig1_error_form_matches_per_trial_loop_within_derived_bound(self, tmp_path, monkeypatch):
        # 12 x 12 takes its errors from uᵀHu in one call over every cell: each
        # cell's plan and seeds are the loop's, each trial's error is within
        # quadratic_form_error_bound of the loop's direct error, and each row is
        # reduced from those errors
        cfg = replace(self.CFG, rows=12)
        assert _error_form_pays(12, 12, cfg.c_grid(), 2 * cfg.trials)
        calls = []

        def recording(h, cells):
            errors = sketching.frobenius_errors(h, cells)
            calls.append((cells, errors))
            return errors

        monkeypatch.setattr(experiments, "frobenius_errors", recording)
        rows_out = run_fig1(cfg, tmp_path)
        a = experiment_matrix(cfg)
        exact_f = frobenius_norm(multiply(a, a.T))
        cells = [(c, label, part, d) for c in cfg.c_grid() for label, part, d in _methods(cfg, a, a.T)]
        [(cells_got, errors)] = calls
        assert len(cells_got) == len(errors) == len(cells) == len(rows_out)
        for (c, label, part, d), (part_got, d_got, c_got, seeds), errs, row in zip(cells, cells_got, errors, rows_out):
            assert (c_got, part_got) == (c, part) and np.array_equal(d_got.weights, d.weights)
            assert seeds == [derive_seed(cfg.seed, "fig1", label, c, t) for t in range(cfg.trials)]
            direct, bounds = direct_errors_and_bounds(a, a.T, part, d, c, seeds)
            assert np.all(np.abs(errs - direct) <= bounds)
            assert row == _fig1_row(c, label, errs, exact_f)

    @pytest.mark.parametrize("strategy", ["enhanced", "random"])
    def test_fig2_matches_per_trial_loop(self, tmp_path, strategy):
        cfg = replace(self.CFG, strategy=strategy)
        run_fig2(cfg, tmp_path)
        assert (tmp_path / "fig2.csv").read_bytes() == loop_fig2_csv(cfg).encode()


class TestFig1ErrorForm:
    """fig1 takes its squared errors from uᵀHu while H fits its memory cap and
    costs fewer multiply-adds than the estimates, and from the estimates otherwise."""

    @staticmethod
    def scaled_product_calls(monkeypatch):
        calls = []
        scaled_product = sketching._scaled_product

        def recording(*args):
            calls.append(1)
            return scaled_product(*args)

        def forbidden(*args):
            raise AssertionError("statistics.stdev called")

        monkeypatch.setattr(sketching, "_scaled_product", recording)
        monkeypatch.setattr("statistics.stdev", forbidden)
        return calls

    @pytest.mark.parametrize("rows, direct", [(3, True), (4, True), (12, False)])
    def test_branch_follows_the_cost_rule(self, tmp_path, monkeypatch, rows, direct):
        # n = 12, 24 trials at each c in (5, 6005): building H (rows·144/2) and 48
        # GEMM rows of 144 against the syrks' 24·rows²·(5 + 12)/2 multiply-adds
        calls = self.scaled_product_calls(monkeypatch)
        cfg = replace(TestBatchedTrials.CFG, rows=rows)
        rows_out = run_fig1(cfg, tmp_path)
        assert len(calls) == (4 * cfg.trials if direct else 0)
        assert all(r["trials"] == cfg.trials and r["stderr"] > 0 for r in rows_out)

    def test_cost_rule(self):
        paper = paper_scale(ExperimentConfig())
        per_c = 2 * paper.trials
        assert _error_form_pays(100, 2000, paper.c_grid(), per_c)
        assert not _error_form_pays(100, 2000, paper.c_grid(), 2)  # one trial per method: H costs more
        assert not _error_form_pays(100, 2049, paper.c_grid(), per_c)  # H past its 2**22 entries
        assert not _error_form_pays(100, 10000, paper.c_grid(), per_c)
        assert _error_form_pays(50, 500, ExperimentConfig().c_grid(), 2 * 10)  # the desk shape

    @pytest.mark.parametrize("cols, direct", [(2000, False), (2049, True)])
    def test_wide_input_past_the_cap_takes_the_direct_branch(self, tmp_path, monkeypatch, cols, direct):
        # 30 trials per method at c = 2000: H would cost fewer multiply-adds at both widths
        calls = self.scaled_product_calls(monkeypatch)
        cfg = ExperimentConfig(rows=100, cols=cols, c_min=2000, c_max=2000, trials=30, seed=2)
        run_fig1(cfg, tmp_path)
        assert len(calls) == (2 * cfg.trials if direct else 0)

    def test_paper_shape_errors_within_derived_bound(self):
        # 100 x 2000, where n and the rounding terms of both paths are largest
        cfg = paper_scale(ExperimentConfig(seed=21))
        a = experiment_matrix(cfg)
        b = a.T
        h = sketching.error_form(a, b)
        for label, partition, dist in _methods(cfg, a, b):
            for c in (1000, 3000):
                seeds = [derive_seed(cfg.seed, "fig1", label, c, t) for t in range(3)]
                [errs] = sketching.frobenius_errors(h, [(partition, dist, c, seeds)])
                direct, bounds = direct_errors_and_bounds(a, b, partition, dist, c, seeds)
                assert np.all(np.abs(errs - direct) <= bounds), (label, c)


class TestTable1:
    def test_means_are_exact_rationals(self, tmp_path):
        cfg = ExperimentConfig(rows=6, cols=40, seed=3)
        stats = run_table1(cfg, tmp_path)
        assert stats["finest"]["mean"] == pytest.approx(1 / 40, abs=1e-15)
        assert stats["pairwise"]["mean"] == pytest.approx(2 / 40, abs=1e-15)
        assert stats["finest"]["min"] <= stats["finest"]["mean"] <= stats["finest"]["max"]

    def test_file_and_determinism(self, tmp_path):
        cfg = ExperimentConfig(rows=4, cols=10, seed=4)
        payload = run_table1(cfg, tmp_path / "one")
        run_table1(cfg, tmp_path / "two")
        on_disk = json.loads((tmp_path / "one/table1.json").read_text())
        assert on_disk == payload
        assert (tmp_path / "one/table1.json").read_bytes() == (tmp_path / "two/table1.json").read_bytes()
