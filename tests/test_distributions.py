import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partsketch import (ENHANCED, SIMPLE, Plan, SamplingDistribution, SketchConfig, ZeroProductError,
                        aggregate_distribution, bound_report, coarsen, dense, derive_seeds,
                        distribution_stats, distribution_to_json, expected_frobenius_error_sq,
                        finest, frobenius_errors, multiply, optimal_distribution, optimal_plan,
                        pair_partition, pairing_comparators, pairing_plan, pairwise_plan, read_matrix, sample_indices, sketch, sketch_trials,
                        uniform_spectral_bound, write_binary, write_csv)
from partsketch import distributions, matrices
from partsketch.cli import main
from partsketch.distributions import _weights
from partsketch.experiments import ExperimentConfig, experiment_matrix, run_fig1
from helpers import distribution, element_weight, random_coarsening, random_instance, shuffled_groups


class TestElementWeight:
    def test_identity_singleton(self):
        eye = dense(np.eye(2))
        assert element_weight(eye, eye, [0]) == 1.0

    def test_zero_rows_give_zero_weight(self):
        rng = np.random.default_rng(1)
        a = dense(rng.random((2, 3)))
        b_vals = rng.random((3, 2))
        b_vals[1] = 0.0
        assert element_weight(a, dense(b_vals), [1]) == 0.0

    def test_rank_one_block_by_hand(self):
        a = dense([[1.0, 2.0], [3.0, 4.0]])
        b = dense([[5.0, 6.0], [7.0, 8.0]])
        # block [[14,16],[28,32]]: 14^2+16^2+28^2+32^2 = 2260
        assert element_weight(a, b, [1]) == pytest.approx(math.sqrt(2260), rel=1e-15)


class TestGroupWeights:
    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.booleans())
    def test_matches_block_product_norms(self, seed, centered):
        # groups up to n = 40 exceed m * rho <= 36, so both the Gram and the
        # block-product branches run; squared weights agree to the Gram sum's rounding
        rng = np.random.default_rng(seed)
        a, b = random_instance(rng, max_rows=6, max_n=40, max_cols=6, centered=centered)
        n = a.shape[1]
        part = random_coarsening(rng, n) if rng.random() < 0.7 else finest(n)
        got = _weights(a, b, part)
        col = np.linalg.norm(a, axis=0) * np.linalg.norm(b, axis=1)
        for g, w in zip(part.groups, got):
            expected = element_weight(a, b, g)
            scale = float(np.sum(col[list(g)])) ** 2
            assert abs(w * w - expected * expected) <= 4 * (len(g) + 2) * np.finfo(float).eps * scale

    @pytest.mark.parametrize("b_kind", ["a.T", "3 columns"])
    def test_batch_budget_moves_no_bit(self, monkeypatch, b_kind):
        # a batch gathers _BLOCK_ENTRIES // (m + rho) indices: 2 or 4 at 2**8 (m + rho = 100 or 53),
        # 327 or 618 at 2**15, and all groups of a size at 2**20; with 3 columns of B, groups of
        # 13 or more indices take the block-product branch
        rng = np.random.default_rng(5)
        a = dense(rng.random((50, 500)) - 0.5)
        b = a.T if b_kind == "a.T" else dense(rng.random((500, 3)) - 0.5)
        parts = [finest(500), pairwise_plan(a, b, ENHANCED)[0], shuffled_groups(rng, 500)]
        weights = []
        for budget in (2 ** 8, 2 ** 15, 2 ** 20):
            monkeypatch.setattr(distributions, "_BLOCK_ENTRIES", budget)
            weights.append([_weights(a, b, part).tobytes() for part in parts])
        assert weights[0] == weights[1] == weights[2]

    def test_singletons_are_norm_products(self):
        a = dense([[3.0, 0.0, 1.0], [4.0, 2.0, 0.0]])
        b = dense([[1.0, 0.0], [0.0, 0.0], [2.0, 2.0]])
        assert optimal_plan(a, b, finest(3)).weights.tolist() == [5.0, 0.0, 8.0**0.5]

    def test_nearly_cancelling_group(self):
        # a_1 = -a_0 + 1e-9 noise with b_1 = b_0: the block is d b_0^T with
        # d = a_0 + a_1 (exact, by Sterbenz), and the Gram identity's sum
        # cancels to rounding noise, so the weight must come from the block
        rng = np.random.default_rng(2024)
        for _ in range(200):
            a0 = rng.standard_normal(20)
            a = dense(np.column_stack([a0, -a0 + 1e-9 * rng.standard_normal(20)]))
            b0 = rng.standard_normal(int(rng.integers(1, 8)))
            b = dense(np.vstack([b0, b0]))
            expected = np.linalg.norm(a[:, 0] + a[:, 1]) * np.linalg.norm(b0)
            got = optimal_plan(a, b, coarsen([[0, 1]], 2)).weights[0]
            assert abs(got - expected) <= 1e-6 * expected


class TestOptimalDistribution:
    def test_symmetric_identity(self):
        eye = dense(np.eye(2))
        d = optimal_distribution(eye, eye, finest(2))
        assert np.allclose(d.weights, [0.5, 0.5], atol=1e-15)

    def test_single_group(self):
        rng = np.random.default_rng(2)
        a = dense(rng.random((2, 3)))
        b = dense(rng.random((3, 2)))
        d = optimal_distribution(a, b, coarsen([[0, 1, 2]], 3))
        assert d.weights.tolist() == [1.0]

    def test_column_norm_ratio(self):
        a = dense([[1.0, 0.0], [0.0, 3.0]])
        d = optimal_distribution(a, dense(np.eye(2)), finest(2))
        assert np.allclose(d.weights, [0.25, 0.75], atol=1e-15)

    def test_zero_product_rejected(self):
        a = dense([[0.0, 0.0]])
        b = dense([[0.0], [0.0]])
        with pytest.raises(ZeroProductError):
            optimal_distribution(a, b, finest(2))

    def test_zero_weight_group_gets_zero_probability(self):
        a_vals = np.random.default_rng(3).random((2, 3))
        a_vals[:, 1] = 0.0
        a = dense(a_vals)
        b = dense(np.random.default_rng(4).random((3, 2)))
        d = optimal_distribution(a, b, finest(3))
        assert d.weights[1] == 0.0
        assert d.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_invariant_under_positive_rescaling(self):
        rng = np.random.default_rng(5)
        a = dense(rng.random((3, 4)) - 0.5)
        b = dense(rng.random((4, 3)) - 0.5)
        part = coarsen([[0, 2], [1], [3]], 4)
        base = optimal_distribution(a, b, part)
        scaled = optimal_distribution(dense(2.5 * a), dense(0.3 * b), part)
        assert np.allclose(base.weights, scaled.weights, atol=1e-12)


class TestAggregateDistribution:
    def test_identity_on_finest(self):
        rng = np.random.default_rng(6)
        a = dense(rng.random((2, 4)))
        b = dense(rng.random((4, 2)))
        p = optimal_distribution(a, b, finest(4))
        again = aggregate_distribution(p, finest(4))
        assert np.array_equal(again.weights, p.weights)

    def test_single_group(self):
        p = distribution(finest(3), [0.2, 0.3, 0.5])
        agg = aggregate_distribution(p, coarsen([[0, 1, 2]], 3))
        assert agg.weights.tolist() == [1.0]

    def test_forced_sums(self):
        p = distribution(finest(4), [0.1, 0.2, 0.3, 0.4])
        agg = aggregate_distribution(p, coarsen([[0, 3], [1, 2]], 4))
        assert np.allclose(agg.weights, [0.5, 0.5], atol=1e-15)

    def test_support_mismatch(self):
        p = distribution(coarsen([[0, 1]], 2), [1.0])
        with pytest.raises(ValueError, match="finest"):
            aggregate_distribution(p, coarsen([[0, 1]], 2))
        p3 = distribution(finest(3), [0.2, 0.3, 0.5])
        with pytest.raises(ValueError, match="finest"):
            aggregate_distribution(p3, coarsen([[0, 1]], 2))


class TestDistributionConstruction:
    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            distribution(finest(2), [1.5, -0.5])

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="sum"):
            distribution(finest(2), [0.5, 0.6])

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="2 weights"):
            distribution(finest(2), [1.0])

    def test_normalize(self):
        d = distribution(finest(2), [3.0, 1.0], normalize=True)
        assert d.weights.tolist() == [0.75, 0.25]

    @pytest.mark.parametrize("weights, match", [
        ([0.5, 0.5, 0.5], "sum"),
        ([0.5, 0.5], "3 weights"),
        ([1.5, -0.5, 0.0], "nonnegative"),
        ([np.nan, 0.5, 0.5], "finite"),
    ])
    def test_direct_construction_checks_itself(self, weights, match):
        # a distribution built without distribution() must not sample one
        # law (its renormalised CDF) while scaling draws by another
        with pytest.raises(ValueError, match=match):
            SamplingDistribution(finest(3), np.array(weights))

    def test_weights_are_readonly(self):
        d = distribution(finest(2), [0.5, 0.5])
        with pytest.raises(ValueError):
            d.weights[0] = 1.0

    def test_keeps_its_own_copy(self):
        # a view made before construction, set after the CDF is cached, would otherwise change
        # the probabilities that scale the draws but not the CDF that samples them
        w = np.array([0.7, 0.1, 0.1, 0.1])
        view = w[:]
        d = SamplingDistribution(finest(4), w)
        cdf = d.cdf.copy()
        view[:] = 0.25
        assert w.flags.writeable and d.weights is not w
        assert d.weights.tolist() == [0.7, 0.1, 0.1, 0.1] and np.array_equal(d.cdf, cdf)

    @pytest.mark.parametrize("weights", [[0, 1, 0], np.array([0, 1, 0]), np.array([0, 1, 0], dtype=np.uint8),
                                         np.array([0, 1, 0], dtype=np.float32)])
    def test_takes_integers_and_lists(self, weights):
        d = SamplingDistribution(finest(3), weights)
        assert d.weights.dtype == np.float64 and d.weights.tolist() == [0.0, 1.0, 0.0]
        assert d.cdf.tolist() == [0.0, 1.0, 1.0] and sample_indices(d, 4, 0).tolist() == [1] * 4

    @pytest.mark.parametrize("weights", [[False, True], np.array([True, False]), np.array([0.5 + 0j, 0.5]),
                                         ["0.5", "0.5"], [None, 1.0]])
    def test_refuses_bool_complex_and_non_numeric(self, weights):
        with pytest.raises(ValueError, match="integers or floats"):
            SamplingDistribution(finest(2), weights)

    def test_sum_tolerance_is_n_eps(self):
        # n = 500 probabilities are within n·eps = 1.1e-13 of summing to 1 after rounding
        n, eps = 500, np.finfo(np.float64).eps
        near, far = np.full(n, 1 / n), np.full(n, 1 / n)
        near[0] += 4 * eps
        far[0] += 5e-13
        assert abs(np.sum(near) - 1.0) < n * eps < abs(np.sum(far) - 1.0)
        SamplingDistribution(finest(n), near)
        with pytest.raises(ValueError, match="sum"):
            SamplingDistribution(finest(n), far)


class TestExports:
    def test_stats(self):
        d = distribution(finest(4), [0.1, 0.2, 0.3, 0.4])
        stats = distribution_stats(d)
        assert stats == {"max": 0.4, "mean": 0.25, "min": 0.1}

    def test_json_shape(self):
        import json
        d = distribution(finest(2), [0.25, 0.75])
        payload = json.loads(distribution_to_json(d))
        assert payload["partition"] == [[1], [2]]
        assert payload["weights"] == [0.25, 0.75]


class TestPlan:
    @pytest.fixture
    def counted(self, monkeypatch):
        calls = []

        def counting(a, b, partition):
            calls.append(partition)
            return _weights(a, b, partition)

        monkeypatch.setattr(distributions, "_weights", counting)
        return calls

    def test_optimal_plan_keeps_the_weights_it_is_built_from(self, counted):
        a, b = random_instance(np.random.default_rng(4), n=7)
        part = coarsen([[0, 3], [1], [2, 4, 5], [6]], 7)
        plan = optimal_plan(a, b, part)
        first, second = plan.weights, plan.weights
        assert first is second and len(counted) == 1
        assert first.tobytes() == _weights(a, b, part).tobytes() and not first.flags.writeable
        assert np.array_equal(plan.distribution.weights, optimal_distribution(a, b, part).weights)
        assert [f.name for f in dataclasses.fields(Plan)] == ["a", "b", "distribution"]
        with pytest.raises(TypeError):
            Plan(a, b, plan.distribution, known_weights=np.ones(4))

    BUILDERS = {"Plan": lambda a, b, part: Plan(a, b, distribution(part, np.ones(part.k), normalize=True)),
                "optimal_plan": optimal_plan, "optimal_distribution": optimal_distribution}

    @staticmethod
    def facts(built) -> list[bytes]:
        """The bytes a builder's result holds: a plan's matrices, group weights and probabilities,
        or a distribution's probabilities."""
        if isinstance(built, Plan):
            return [m.tobytes() for m in (built.a, built.b, built.weights, built.distribution.weights)]
        return [built.weights.tobytes()]

    @pytest.mark.parametrize("name", BUILDERS)
    @pytest.mark.parametrize("writable", [["a"], ["b"], ["a", "b"]])
    def test_writable_matrices_are_refused(self, name, writable):
        # a plan refuses to hold a matrix its caller can write: it holds its own read-only copy,
        # built as from the frozen matrix, and writes to the caller's array after the build (a
        # plan's lazy weights are read only after them) move nothing in it
        rng = np.random.default_rng(6)
        frozen = {"a": dense(rng.random((3, 5))), "b": dense(rng.random((5, 2)))}
        mats = {key: m.copy() if key in writable else m for key, m in frozen.items()}
        built = self.BUILDERS[name](mats["a"], mats["b"], finest(5))
        for key in writable:
            mats[key][:] = 1.0
            assert mats[key].flags.writeable
        assert self.facts(built) == self.facts(self.BUILDERS[name](frozen["a"], frozen["b"], finest(5)))
        if name != "optimal_distribution":
            assert built.a is not mats["a"] and not built.a.flags.writeable and not built.b.flags.writeable

    @pytest.mark.parametrize("name", BUILDERS)
    def test_frozen_matrices_are_accepted(self, name, tmp_path):
        # every matrix the package makes, with its .T: a .bin matrix's chain ends in a read-only
        # memoryview of the file's bytes, and an experiment's A is column-major
        values = np.random.default_rng(6).random((3, 5))
        write_csv(values, tmp_path / "a.csv")
        write_binary(values, tmp_path / "a.bin")
        a = read_matrix(tmp_path / "a.csv")
        for left, right in [(a, a.T), (dense(a), dense(a.T)), (a.T.T, dense(a).T),
                            (np.broadcast_to(a, (2, 3, 5))[0], a.T)]:  # a view of a view of a frozen base
            self.BUILDERS[name](left, right, finest(5))
        for m in (read_matrix(tmp_path / "a.bin"), experiment_matrix(ExperimentConfig(rows=3, cols=5)),
                  experiment_matrix(ExperimentConfig(matrix_path=str(tmp_path / "a.csv"))),
                  experiment_matrix(ExperimentConfig(matrix_path=str(tmp_path / "a.bin")))):
            self.BUILDERS[name](m, m.T, finest(5))
            self.BUILDERS[name](m.T, m, finest(3))

    @pytest.mark.parametrize("name", BUILDERS)
    def test_read_only_views_of_writable_memory_are_refused(self, name):
        # frozen views whose memory can still be written: through a writable base array, or through
        # the bytearray under np.frombuffer; the plan refuses to hold that memory, so filling the
        # zero column afterwards, which would bias every estimate, moves nothing in it
        x = np.random.default_rng(0).random((4, 6))
        x[:, 2] = 0.0
        want = self.facts(self.BUILDERS[name](dense(x), dense(x).T, finest(6)))
        buffer = bytearray(x.tobytes())
        for a, writer in ((x.view(), x), (np.frombuffer(buffer).reshape(4, 6), np.frombuffer(buffer).reshape(4, 6))):
            a.flags.writeable = False
            built = self.BUILDERS[name](a, a.T, finest(6))
            writer[:, 2] = 1.0
            assert not a.flags.writeable and a[0, 2] == 1.0
            assert self.facts(built) == want

    def test_a_matrix_changed_after_its_plan_is_refused_when_built(self):
        # the zero column gets probability 0; the plan holds its copy, so filling the caller's
        # column after the build, which would leave it never sampled and every estimate missing
        # its block, does not reach the plan; a frozen matrix still refuses the write itself
        a = np.random.default_rng(7).random((4, 6))
        a[:, 2] = 0.0
        plan = optimal_plan(a, a.T, finest(6))
        a[:, 2] = 1.0
        assert not plan.a[:, 2].any() and plan.distribution.weights[2] == 0.0 and plan.weights[2] == 0.0
        frozen = dense(a)
        optimal_plan(frozen, frozen.T, finest(6))
        with pytest.raises(ValueError):
            frozen[:, 2] = 1.0

    def test_pairwise_plan_computes_pair_weights_only_when_read(self, counted):
        a, b = random_instance(np.random.default_rng(5), n=8)
        fin = optimal_plan(a, b, finest(8))
        part, dist = pairwise_plan(a, b, ENHANCED)
        plans = [pairing_plan(fin, ENHANCED), Plan(a, b, dist)]
        assert [p.k for p in counted] == [8, 8]  # the finest weights the pairs are ordered by
        assert part is dist.support == plans[0].distribution.support
        assert plans[0].a is fin.a and plans[0].b is fin.b and fin.a is not a  # the finest plan's copies
        for read, plan in enumerate(plans, 1):
            weights = plan.weights
            assert [p.k for p in counted] == [8, 8] + [4] * read and plan.weights is weights
            assert np.array_equal(weights, _weights(a, b, plan.distribution.support))


class TestCallerMatrices:
    """Every entry point that takes a caller's matrix pair applies one intake to it (``_pair``: the
    matrix rule, a transpose pair kept one, conformance), leaves the caller's arrays as they were,
    and a plan that outlives its call holds copies no later write reaches."""

    ENTRY = {
        "Plan": lambda a, b, d: dataclasses.astuple(bound_report(Plan(a, b, d))),
        "optimal_plan": lambda a, b, d: optimal_plan(a, b, finest(4)).distribution.weights.tobytes(),
        "optimal_distribution": lambda a, b, d: optimal_distribution(a, b, finest(4)).weights.tobytes(),
        "pairwise_plan": lambda a, b, d: pairwise_plan(a, b, ENHANCED)[1].weights.tobytes(),
        "sketch": lambda a, b, d: sketch(a, b, finest(4), d, SketchConfig(5, 0)).estimate.tobytes(),
        "expected_frobenius_error_sq": lambda a, b, d: expected_frobenius_error_sq(a, b, finest(4), d, 5),
        "multiply": lambda a, b, d: multiply(a, b).tobytes(),
        # the group weights and the error form H are plan facts now, reached through a plan's intake
        "group_weights": lambda a, b, d: optimal_plan(a, b, finest(4)).weights.tobytes(),
        "error_form": lambda a, b, d: frobenius_errors([(optimal_plan(a, b, finest(4)), 5, [0, 1])])[0].tobytes(),
        "pairing_comparators": lambda a, b, d: dataclasses.astuple(
            pairing_comparators(a, b, pair_partition(np.full(4, 0.25), SIMPLE))),
        "uniform_spectral_bound": lambda a, b, d: uniform_spectral_bound(a, b, 5, 4, 2),
    }

    @staticmethod
    def instance():
        """Integer-valued float64 x (3×4) and y (4×2), so an int64 copy holds the same values, and
        the optimal distribution of ``x @ y``."""
        rng = np.random.default_rng(9)
        x, y = rng.integers(1, 10, (3, 4)).astype(np.float64), rng.integers(1, 10, (4, 2)).astype(np.float64)
        return x, y, optimal_distribution(x, y, finest(4))

    @staticmethod
    def frozen(*arrays):
        for m in arrays:
            m.flags.writeable = False
        return arrays

    @pytest.mark.parametrize("entry", ENTRY)
    @pytest.mark.parametrize("kind", ["nan", "inf", "int64", "nested list", "1-d", "non-conforming"])
    def test_one_matrix_rule_at_every_entry_point(self, entry, kind):
        # converted to float64 as dense converts, then 2-d, positive dimensions and finite
        # entries, and a @ b conforming, else ValueError: a frozen NaN or inf matrix is refused,
        # not a NaN result, and a nested list is read, not an AttributeError
        x, y, d = self.instance()
        na, inf = x.copy(), y.copy()
        na[1, 2], inf[0, 1] = np.nan, np.inf
        a, b = {"nan": self.frozen(na, y.copy()), "inf": self.frozen(x.copy(), inf),
                "int64": self.frozen(x.astype(np.int64), y.astype(np.int64)),
                "nested list": (x.tolist(), y.tolist()), "1-d": (x[0], y), "non-conforming": (x, y[:3])}[kind]
        refused = {"nan": "matrix entries must be finite", "inf": "matrix entries must be finite",
                   "1-d": "matrix must be 2-d", "non-conforming": r"dimension mismatch: \(3, 4\) x \(3, 2\)"}
        if kind in refused:
            with pytest.raises(ValueError, match=refused[kind]):
                self.ENTRY[entry](a, b, d)
        else:
            assert self.ENTRY[entry](a, b, d) == self.ENTRY[entry](x, y, d)

    @pytest.mark.parametrize("entry", ENTRY)
    @pytest.mark.parametrize("pair", ["unrelated", "a.T"])
    @pytest.mark.parametrize("writeable", [True, False])
    def test_the_callers_arrays_are_left_as_they_were(self, entry, pair, writeable):
        # none freezes a caller's array in place, nor writes to it
        x, y, d = self.instance()
        a = x.copy()
        b = a.T if pair == "a.T" else y.copy()
        a.flags.writeable = b.flags.writeable = writeable
        self.ENTRY[entry](a, b, d)
        assert a.flags.writeable == b.flags.writeable == writeable
        assert a.tobytes() == x.tobytes() and b.tobytes() == (x.T if pair == "a.T" else y).tobytes()

    PLANS = {
        "Plan": lambda x: Plan(x, x.T, optimal_distribution(x, x.T, finest(40))),
        "optimal_plan": lambda x: optimal_plan(x, x.T, finest(40)),
        "optimal_distribution + sketch": lambda x: optimal_distribution(x, x.T, finest(40)),
        "pairwise_plan": lambda x: Plan(x, x.T, pairwise_plan(x, x.T, ENHANCED)[1]),
    }

    @pytest.mark.parametrize("entry", PLANS)
    def test_an_int64_transpose_pair_stays_one(self, entry, monkeypatch):
        # int64, B = x.T: _pair converts x once and takes b as that array's .T, so every plan built,
        # the call-local ones too, holds b as a view of its a, and the engine's Gram path (syrk)
        # gives an exactly symmetric estimate, the bytes of the float64 copy's
        x = np.random.default_rng(11).integers(-9, 10, (6, 40))
        xf = x.astype(np.float64)
        adopted, adopt = [], Plan._adopt
        monkeypatch.setattr(Plan, "_adopt", lambda self, a, b, dist: adopted.append((a, b)) or adopt(self, a, b, dist))
        seeds = derive_seeds(5, (), 3)

        def estimates(m):
            built = self.PLANS[entry](m)
            if isinstance(built, Plan):
                return [res.estimate for res in sketch_trials([(built, 30, seeds)])]
            return [sketch(m, m.T, finest(40), built, SketchConfig(30, seed)).estimate for seed in seeds]

        got = estimates(x)
        assert adopted and all(np.shares_memory(a, b) for a, b in adopted)
        assert all(np.array_equal(e, e.T) for e in got)
        assert [e.tobytes() for e in got] == [e.tobytes() for e in estimates(xf)]

    def test_an_int64_pair_gives_float64_products(self):
        # x @ x.T in int64 wraps around (3e9 squared is past 2**63); the intake converts first
        x = np.array([[3_000_000_000, 1], [2, 5]])
        xf = x.astype(np.float64)
        errors = [frobenius_errors([(optimal_plan(m, m.T, finest(2)), 3, [0, 1, 2])])[0] for m in (x, xf)]
        assert errors[0].dtype == np.float64 and errors[0].tobytes() == errors[1].tobytes()
        product = multiply(x, x.T)
        assert product.dtype == np.float64 and product.tobytes() == multiply(xf, xf.T).tobytes()

    WRITES = ["stale writable view", "read-only view of a writable base", "owner made writable again",
              "writable array"]

    @staticmethod
    def written_after_the_build(kind):
        """A caller's 4×6 matrix whose column 2 is zero, and a write, made after its plan is built,
        through memory the caller can still write: it fills column 2, which has probability 0,
        and changes column 0, which is sampled."""
        x = np.random.default_rng(7).random((4, 6))
        x[:, 2] = 0.0
        a, target = x, x
        if kind == "stale writable view":  # taken before its owner was frozen
            target = x[:]
        elif kind == "read-only view of a writable base":
            a = x.view()
        if kind != "writable array":
            a.flags.writeable = False

        def write():
            if kind == "owner made writable again":
                x.flags.writeable = True
            target[:, 2] = 1.0
            target[:, 0] += 1.0

        return a, write

    @pytest.mark.parametrize("builder", ["optimal_plan", "Plan"])
    @pytest.mark.parametrize("kind", WRITES)
    def test_a_write_after_the_build_leaves_the_plan_as_built(self, kind, builder):
        # optimal_plan caches its weights when built; Plan's are read first after the write
        a, write = self.written_after_the_build(kind)
        held = dense(a)  # the caller's matrix as it was when the plan was built
        plan = (optimal_plan(a, a.T, finest(6)) if builder == "optimal_plan"
                else Plan(a, a.T, optimal_distribution(a, a.T, finest(6))))
        seeds = derive_seeds(31, (), 4000)
        [first] = sketch_trials([(plan, 50, seeds[:1])])
        built = [plan.a.tobytes(), first.estimate.tobytes()]
        write()
        assert a[0, 2] == 1.0
        estimates = np.array([res.estimate for res in sketch_trials([(plan, 50, seeds)])])
        assert [plan.a.tobytes(), estimates[0].tobytes()] == built
        assert plan.weights.tobytes() == optimal_plan(held, held.T, finest(6)).weights.tobytes()
        assert not plan.a[:, 2].any() and plan.distribution.weights[2] == 0.0
        exact = held @ held.T
        stderr = estimates.std(axis=0, ddof=1) / math.sqrt(len(estimates))
        assert np.all(np.abs(estimates.mean(axis=0) - exact) <= 5 * stderr)


class TestMatrixScans:
    """A matrix meets the matrix rule (``matrices._matrix``) once, where it enters: in ``read_matrix``
    or a public door's ``_pair``.  Code that holds a plan's, ``read_matrix``'s or ``experiment_matrix``'s
    matrices does not scan them again."""

    @staticmethod
    def cli(command, *flags):
        def run(tmp_path):
            rng = np.random.default_rng(3)
            write_binary(rng.random((5, 12)), tmp_path / "a.bin")
            write_binary(rng.random((12, 4)), tmp_path / "b.bin")
            assert main([command, "--a", str(tmp_path / "a.bin"), "--b", str(tmp_path / "b.bin"),
                         "--out-dir", str(tmp_path / "out"), *flags]) == 0
        return run

    X, Y = np.random.default_rng(4).random((5, 12)), np.random.default_rng(5).random((12, 3))
    CALLS = {
        "sketch finest": (cli("sketch", "--c", "7"), 2),
        "sketch --strategy enhanced": (cli("sketch", "--c", "7", "--strategy", "enhanced"), 2),
        # two are uniform_spectral_bound's own intake: the bound reads no distribution, so it keeps its pair
        "analyze --strategy enhanced --k": (cli("analyze", "--c", "5", "--k", "4", "--strategy", "enhanced"), 4),
        "optimal_plan(x, x.T)": (lambda tmp_path: optimal_plan(TestMatrixScans.X, TestMatrixScans.X.T, finest(12)), 1),
        "optimal_plan(x, y)": (lambda tmp_path: optimal_plan(TestMatrixScans.X, TestMatrixScans.Y, finest(12)), 2),
        "run_fig1": (lambda tmp_path: run_fig1(ExperimentConfig(rows=4, cols=10, c_min=5, c_max=10, c_step=5,
                                                                trials=2), tmp_path), 0),
    }

    @pytest.mark.parametrize("call", CALLS)
    def test_each_matrix_is_scanned_once(self, tmp_path, monkeypatch, call):
        run, want = self.CALLS[call]
        scans, rule = [], matrices._matrix
        monkeypatch.setattr(matrices, "_matrix", lambda values: scans.append(values) or rule(values))
        run(tmp_path)
        assert len(scans) == want
