import json
import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from partsketch import (ConfigError, ExperimentConfig, Plan, aggregate_distribution, dense,
                        expected_frobenius_error_sq, finest, optimal_distribution,
                        pair_partition, paper_scale, run_fig1, run_fig2, run_table1,
                        write_binary, write_csv)
from partsketch import experiments, sketching
from partsketch.distributions import _weights
from partsketch.experiments import (FIG1_HEADER, FIG2_HEADER, _methods,
                                    experiment_matrix, pairing_strategy)
from partsketch.partitions import PAIRING_KINDS
from partsketch.sketching import _MAX_DRAWS, pairwise_plan
from partsketch.matrices import frobenius_norm, multiply
from partsketch.rng import derive_seed, generator
from helpers import (direct_errors_and_bounds, distribution, experiment_methods, fig1_row, form_path_errors,
                     loop_fig1_csv, loop_fig2_csv, stderr_error_bound)

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
        dict(fig2_c=()),
        dict(cols=1),
    ])
    def test_invalid_configs(self, bad):
        with pytest.raises(ConfigError):
            ExperimentConfig(**bad)

    @pytest.mark.parametrize("seed", [True, np.bool_(True), 1.5, np.float64(2.0), "3", None],
                             ids=["bool", "numpy-bool", "float", "numpy-float", "str", "None"])
    def test_seed_that_is_not_an_integer_is_refused(self, seed):
        with pytest.raises(ConfigError, match="seed must be an integer"):
            ExperimentConfig(seed=seed)

    @pytest.mark.parametrize("fig2_c, message", [
        (5, "fig2_c must be a tuple"),
        ([10, 20], "fig2_c must be a tuple"),  # a frozen config must hash
        ((10, True), "sample count must be an integer >= 1, got True"),
    ], ids=["int", "list", "bool-entry"])
    def test_fig2_c_is_none_or_a_tuple_of_counts(self, fig2_c, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            ExperimentConfig(fig2_c=fig2_c)
        assert hash(ExperimentConfig(fig2_c=(10, 20))) == hash(ExperimentConfig(fig2_c=(10, 20)))

    @pytest.mark.parametrize("seed", [-3, 2**64, np.int64(7)])
    def test_any_integer_is_a_master_seed(self, seed):
        assert ExperimentConfig(seed=seed).seed == seed

    @pytest.mark.parametrize("counts", [dict(c_max=10**11), dict(fig2_c=(10, _MAX_DRAWS + 1))])
    def test_draw_count_bound_is_checked_before_the_grid_is_built(self, monkeypatch, counts):
        def no_grid(self):
            pytest.fail("the sample-count grid was built")

        monkeypatch.setattr(ExperimentConfig, "c_grid", no_grid)
        with pytest.raises(ConfigError, match=f"sample count must be <= {_MAX_DRAWS}"):
            ExperimentConfig(**counts)

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


    @pytest.mark.parametrize("source", ["generated", "a.csv", "a.bin"])
    def test_matrix_is_frozen_and_column_major(self, tmp_path, source):
        # the engine's Aᵀ panel is then a view of A, not a second copy
        cfg = ExperimentConfig(rows=3, cols=4, seed=1)
        if source != "generated":
            write_csv(experiment_matrix(cfg), tmp_path / "a.csv")
            write_binary(experiment_matrix(cfg), tmp_path / "a.bin")
            cfg = ExperimentConfig(matrix_path=str(tmp_path / source))
        a = experiment_matrix(cfg)
        assert a.flags.f_contiguous and not a.flags.c_contiguous and not a.flags.writeable
        assert np.shares_memory(a, np.ascontiguousarray(a.T))
        assert a.tobytes(order="C") == experiment_matrix(ExperimentConfig(rows=3, cols=4, seed=1)).tobytes(order="C")

    @pytest.mark.parametrize("rows, cols", [(3000, 20), (7, 10001), (100, 2000), (2, 40000)])
    def test_drawn_matrix_is_the_row_major_draw(self, rows, cols):
        # written 2**15 // cols rows at a time (1638, 3, 16 and 1), so every shape spans several blocks
        cfg = ExperimentConfig(rows=rows, cols=cols, seed=4)
        want = generator(derive_seed(4, "matrix")).random((rows, cols))
        assert experiment_matrix(cfg).tobytes(order="C") == want.tobytes()

    def test_drawn_matrix_holds_one_payload(self):
        # no row-major draw beside the column-major A: one payload and one write block
        cfg = ExperimentConfig(rows=100, cols=2000, seed=4)
        tracemalloc.start()
        try:
            a = experiment_matrix(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * a.nbytes

class TestMethods:
    """``_methods``, every experiment's setup step: both plans on A and B = Aᵀ, then the out-dir."""

    @pytest.mark.parametrize("kind", PAIRING_KINDS)
    def test_pairwise_plan_is_the_one_pairing_recipe(self, tmp_path, kind):
        # odd n, so the pairing leaves a singleton
        cfg = ExperimentConfig(rows=6, cols=15, strategy=kind, seed=5)
        (_, fin), (label, pairs) = _methods(cfg, tmp_path / "out")
        a = experiment_matrix(cfg)
        want = Plan(a, a.T, pairwise_plan(a, a.T, pairing_strategy(kind, cfg.seed))[1])
        assert label == f"pairwise-{kind}" and pairs.distribution.support == want.distribution.support
        assert np.array_equal(pairs.distribution.weights, want.distribution.weights)
        assert np.array_equal(fin.a, a) and pairs.a is fin.a and pairs.b is fin.b
        assert (tmp_path / "out").is_dir()

    @pytest.mark.parametrize("shape", [(1, 31), (8, 301), (100, 2000)])
    def test_plans_are_those_of_a_row_major_a(self, tmp_path, shape):
        # _methods builds both plans on experiment_matrix's column-major A, with no copy; the
        # step-by-step recipe gives the same plans, and the no-copy paths on a row-major copy of A
        # the same weights and probabilities, bit for bit, by the Gram identity and (one row, so
        # pairs exceed m rho) from the blocks
        cfg = ExperimentConfig(rows=shape[0], cols=shape[1], seed=11)
        got = _methods(cfg, tmp_path / "out")
        want = experiment_methods(cfg, experiment_matrix(cfg))
        row_major = dense(experiment_matrix(cfg))
        _, pairs = pairwise_plan(row_major, row_major.T, pairing_strategy(cfg.strategy, cfg.seed))
        loose = [optimal_distribution(row_major, row_major.T, finest(shape[1])), pairs]
        assert row_major.flags.c_contiguous and got[0][1].a.flags.f_contiguous
        for (label, plan), (want_label, want_plan), dist in zip(got, want, loose, strict=True):
            assert label == want_label and plan.distribution.support == want_plan.distribution.support == dist.support
            weights = _weights(row_major, row_major.T, dist.support)
            assert plan.weights.tobytes() == want_plan.weights.tobytes() == weights.tobytes()
            assert plan.distribution.weights.tobytes() == want_plan.distribution.weights.tobytes() == dist.weights.tobytes()


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
                theory = expected_frobenius_error_sq(a, b, finest(cfg.cols), p_o, r["c"])
            else:
                theory = expected_frobenius_error_sq(a, b, pair_part, pair_dist, r["c"])
            assert abs(r["mean_sq_frob_err"] - theory) <= 5 * r["stderr"]

    @pytest.mark.parametrize("rows, form", [(3, False), (20, True)])
    def test_one_trial_has_stderr_zero_and_no_warning(self, tmp_path, monkeypatch, rows, form):
        # the sample std of one error is undefined (numpy warns and returns nan): one trial's
        # standard error is written as 0.0, on H's path and, with no H under the cap, on the estimates'
        cfg = ExperimentConfig(rows=rows, cols=10, c_min=5, c_max=10, c_step=5, trials=1, seed=3)
        if not form:
            monkeypatch.setattr(sketching, "_ERROR_FORM_ENTRIES", 0)
        calls = scaled_product_calls(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows_out = run_fig1(cfg, tmp_path)
        assert [r["stderr"] for r in rows_out] == [0.0] * 4
        assert len(calls) == (0 if form else 4)
        lines = (tmp_path / "fig1.csv").read_text().splitlines()[1:]
        assert [line.split(",")[4] for line in lines] == ["0.0"] * 4

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


def scaled_product_calls(monkeypatch):
    """A list that gains one entry per estimate formed (``_scaled_product`` call); also forbids
    ``statistics.stdev``."""
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


class TestBatchedTrials:
    """Each (method, c) cell derives its seeds and draws its trials in one batch,
    with the bytes of one derive_seed and one sketch per trial."""

    # c = 6005 gives blocks of 5 trials (2**15 // 6005), so 12 trials span three blocks
    CFG = ExperimentConfig(rows=4, cols=12, c_min=5, c_max=6005, c_step=6000,
                           trials=12, runs=12, fig2_c=(5, 6005), seed=17)

    @pytest.mark.parametrize("strategy", ["enhanced", "random"])
    def test_fig1_matches_per_trial_loop(self, tmp_path, monkeypatch, strategy):
        # 4 x 12 with no H under the cap takes its errors from the estimates: every
        # column but stderr byte for byte, stderr (numpy's two-pass std against the
        # exact-Fraction statistics.stdev) within its derived bound
        cfg = replace(self.CFG, strategy=strategy)
        monkeypatch.setattr(sketching, "_ERROR_FORM_ENTRIES", 0)
        run_fig1(cfg, tmp_path)
        got = (tmp_path / "fig1.csv").read_text().splitlines()
        want = loop_fig1_csv(cfg).splitlines()
        assert got[0] == want[0] and len(got) == len(want)
        a = experiment_matrix(cfg)
        methods = {label: (plan.distribution.support, plan.distribution) for label, plan in experiment_methods(cfg, a)}
        for line, ref in zip(got[1:], want[1:]):
            fields, ref_fields = line.split(","), ref.split(",")
            assert fields[:4] + fields[5:] == ref_fields[:4] + ref_fields[5:]
            c, label = int(fields[0]), fields[1]
            seeds = [derive_seed(cfg.seed, "fig1", label, c, t) for t in range(cfg.trials)]
            sq_errs, _ = direct_errors_and_bounds(a, a.T, *methods[label], c, seeds)
            assert abs(float(fields[4]) - float(ref_fields[4])) <= stderr_error_bound(sq_errs)

    def test_fig1_error_form_matches_per_trial_loop_within_derived_bound(self, tmp_path, monkeypatch):
        # 12 x 12 takes its errors from uᵀHu in one call over every cell, with no
        # estimate formed: each cell's plan and seeds are the loop's, each trial's
        # error is within quadratic_form_error_bound of the loop's direct error,
        # and each row is reduced from those errors
        cfg = replace(self.CFG, rows=12)
        calls = []

        def recording(cells):
            errors = form_path_errors(cells)
            calls.append((cells, errors))
            return errors

        monkeypatch.setattr(experiments, "frobenius_errors", recording)
        rows_out = run_fig1(cfg, tmp_path)
        a = experiment_matrix(cfg)
        exact_f = frobenius_norm(multiply(a, a.T))
        cells = [(c, label, plan.distribution.support, plan.distribution)
                 for c in cfg.c_grid() for label, plan in experiment_methods(cfg, a)]
        [(cells_got, errors)] = calls
        assert len(cells_got) == len(errors) == len(cells) == len(rows_out)
        for (c, label, part, d), (plan_got, c_got, seeds), errs, row in zip(cells, cells_got, errors, rows_out):
            assert (c_got, plan_got.distribution.support) == (c, part)
            assert np.array_equal(plan_got.distribution.weights, d.weights)
            assert seeds == [derive_seed(cfg.seed, "fig1", label, c, t) for t in range(cfg.trials)]
            direct, bounds = direct_errors_and_bounds(a, a.T, part, d, c, seeds)
            assert np.all(np.abs(errs - direct) <= bounds)
            assert row == fig1_row(c, label, errs, exact_f)

    @pytest.mark.parametrize("strategy", ["enhanced", "random"])
    def test_fig2_matches_per_trial_loop(self, tmp_path, strategy):
        cfg = replace(self.CFG, strategy=strategy)
        run_fig2(cfg, tmp_path)
        assert (tmp_path / "fig2.csv").read_bytes() == loop_fig2_csv(cfg).encode()

    def test_fig2_keeps_every_cell_of_a_repeated_c(self, tmp_path):
        cfg = replace(TINY_FIG2, runs=3, fig2_c=(5, 5, 2))
        rows = run_fig2(cfg, tmp_path)
        assert [r["c"] for r in rows] == [5] * 6 + [2] * 3 + [5] * 6 + [2] * 3
        assert (tmp_path / "fig2.csv").read_bytes() == loop_fig2_csv(cfg).encode()


class _Kernel(Exception):
    pass


def kernel(monkeypatch, cells):
    """The kernel ``frobenius_errors(cells)`` takes, ``"H"`` or ``"estimates"``, stopped at its
    first draw: the first block of ``u`` rows for ``H``, or the first block of estimates."""
    def stop(name):
        def raising(*args):
            raise _Kernel(name)
        return raising

    monkeypatch.setattr(sketching, "_form_rows", stop("H"))
    monkeypatch.setattr(sketching, "_blocks", stop("estimates"))
    with pytest.raises(_Kernel) as info:
        sketching.frobenius_errors(cells)
    return str(info.value)


class TestFig1ErrorForm:
    """fig1 takes its squared errors from uᵀHu while H fits its memory cap,
    and from the estimates past it."""

    @staticmethod
    def cells(m, n, cs_and_trials, cols=None):
        """Cells of ``(c, trials)`` on one m×n A and B = Aᵀ, or an n×cols B, of constant entries
        (read-only views of a frozen 1×1 matrix, as a plan takes them)."""
        a = np.broadcast_to(dense([[0.0]]), (m, n))
        b = a.T if cols is None else np.broadcast_to(dense([[1.0]]), (n, cols))
        plan = Plan(a, b, distribution(finest(n), np.ones(n), normalize=True))
        return [(plan, c, range(trials)) for c, trials in cs_and_trials]

    def test_cost_rule(self, monkeypatch):
        # H exactly when its n² entries fit 2**22, whatever m, B, c and the trial counts; at one
        # BLAS thread H is slower in two cases, both outside every experiment preset: the paper
        # shape at one trial per cell (29.7 against 12.4 ms) and a 2000 x 1 B (106 against 69 ms)
        paper = paper_scale(ExperimentConfig()).c_grid()
        per_method = [(c, 1000) for c in paper for _ in range(2)]
        assert kernel(monkeypatch, self.cells(100, 2000, per_method)) == "H"
        assert kernel(monkeypatch, self.cells(100, 2000, [(c, 1) for c, _ in per_method])) == "H"
        assert kernel(monkeypatch, self.cells(100, 2000, [(2000, 200)], cols=1)) == "H"
        assert kernel(monkeypatch, self.cells(100, 2049, per_method)) == "estimates"  # H past its 2**22 entries
        assert kernel(monkeypatch, self.cells(100, 10000, per_method)) == "estimates"

    @pytest.mark.parametrize("cols, rows, trials, direct", [
        (2000, 100, 30, False), (2048, 100, 1, False), (2049, 100, 1, True), (2049, 100, 30, True),
        (12, 3, 12, False), (12, 4, 12, False), (12, 12, 12, False)])
    def test_wide_input_past_the_cap_takes_the_direct_branch(self, tmp_path, monkeypatch, cols, rows, trials, direct):
        # every estimate formed, or none: the widest H that fits (n = 2048), the narrowest A past it,
        # and H at n = 12 even for a few rows, where each estimate costs fewer flops than its GEMM row
        calls = scaled_product_calls(monkeypatch)
        cfg = ExperimentConfig(rows=rows, cols=cols, c_min=5, c_max=2005, c_step=2000, trials=trials, seed=2)
        rows_out = run_fig1(cfg, tmp_path)
        assert len(calls) == (4 * trials if direct else 0)
        assert all(r["trials"] == trials and (r["stderr"] > 0) is (trials > 1) for r in rows_out)

    def test_paper_shape_errors_within_derived_bound(self):
        # 100 x 2000, where n and the rounding terms of both paths are largest
        cfg = paper_scale(ExperimentConfig(seed=21))
        a = experiment_matrix(cfg)
        b = a.T
        for label, plan in experiment_methods(cfg, a):
            for c in (1000, 3000):
                seeds = [derive_seed(cfg.seed, "fig1", label, c, t) for t in range(3)]
                [errs] = form_path_errors([(plan, c, seeds)])
                direct, bounds = direct_errors_and_bounds(a, b, plan.distribution.support, plan.distribution, c, seeds)
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
