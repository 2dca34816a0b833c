import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partsketch import (ENHANCED, Plan, SamplingDistribution, ZeroProductError,
                        aggregate_distribution, coarsen, dense,
                        distribution_stats, distribution_to_json,
                        finest, group_weights, optimal_distribution, optimal_plan, pairing_plan,
                        pairwise_plan, read_matrix, sample_indices, write_binary, write_csv)
from partsketch import distributions
from partsketch.experiments import ExperimentConfig, experiment_matrix
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
        got = group_weights(a, b, part)
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
            weights.append([group_weights(a, b, part).tobytes() for part in parts])
        assert weights[0] == weights[1] == weights[2]

    def test_singletons_are_norm_products(self):
        a = dense([[3.0, 0.0, 1.0], [4.0, 2.0, 0.0]])
        b = dense([[1.0, 0.0], [0.0, 0.0], [2.0, 2.0]])
        assert group_weights(a, b, finest(3)).tolist() == [5.0, 0.0, 8.0**0.5]

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
            got = group_weights(a, b, coarsen([[0, 1]], 2))[0]
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
            return group_weights(a, b, partition)

        monkeypatch.setattr(distributions, "group_weights", counting)
        return calls

    def test_optimal_plan_keeps_the_weights_it_is_built_from(self, counted):
        a, b = random_instance(np.random.default_rng(4), n=7)
        part = coarsen([[0, 3], [1], [2, 4, 5], [6]], 7)
        plan = optimal_plan(a, b, part)
        first, second = plan.weights, plan.weights
        assert first is second and len(counted) == 1
        assert first.tobytes() == group_weights(a, b, part).tobytes() and not first.flags.writeable
        assert np.array_equal(plan.distribution.weights, optimal_distribution(a, b, part).weights)
        assert [f.name for f in dataclasses.fields(Plan)] == ["a", "b", "distribution"]
        with pytest.raises(TypeError):
            Plan(a, b, plan.distribution, known_weights=np.ones(4))

    BUILDERS = {"Plan": lambda a, b, part: Plan(a, b, distribution(part, np.ones(part.k), normalize=True)),
                "optimal_plan": optimal_plan, "optimal_distribution": optimal_distribution}

    @pytest.mark.parametrize("name", BUILDERS)
    @pytest.mark.parametrize("writable", [["a"], ["b"], ["a", "b"]])
    def test_writable_matrices_are_refused(self, name, writable):
        rng = np.random.default_rng(6)
        mats = {"a": dense(rng.random((3, 5))), "b": dense(rng.random((5, 2)))}
        for key in writable:
            mats[key] = mats[key].copy()
        with pytest.raises(ValueError, match="read-only"):
            self.BUILDERS[name](mats["a"], mats["b"], finest(5))

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
        # the bytearray under np.frombuffer; filling the zero column later would bias every estimate
        x = np.random.default_rng(0).random((4, 6))
        x[:, 2] = 0.0
        for a in (x.view(), np.frombuffer(bytearray(x.tobytes())).reshape(4, 6)):
            a.flags.writeable = False
            with pytest.raises(ValueError, match="read-only"):
                self.BUILDERS[name](a, a.T, finest(6))

    def test_a_matrix_changed_after_its_plan_is_refused_when_built(self):
        # the zero column gets probability 0; filled after the plan was built, it would never be
        # sampled and every estimate would miss its block
        a = np.random.default_rng(7).random((4, 6))
        a[:, 2] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            optimal_plan(a, a.T, finest(6))
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
        assert plans[0].a is a and plans[0].b is b
        for read, plan in enumerate(plans, 1):
            weights = plan.weights
            assert [p.k for p in counted] == [8, 8] + [4] * read and plan.weights is weights
            assert np.array_equal(weights, group_weights(a, b, plan.distribution.support))
