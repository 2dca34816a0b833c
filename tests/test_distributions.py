import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partsketch import (ENHANCED, Plan, SamplingDistribution, ZeroProductError,
                        aggregate_distribution, coarsen, dense, distribution,
                        distribution_stats, distribution_to_json,
                        element_weight, finest, group_weights, multiply,
                        optimal_distribution, optimal_plan, pairwise_plan,
                        uniform_distribution)
from partsketch import distributions
from helpers import random_coarsening, random_instance


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

    def test_uniform(self):
        d = uniform_distribution(coarsen([[0, 1], [2], [3]], 4))
        assert np.allclose(d.weights, [1 / 3] * 3, atol=1e-15)

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
        assert plan.weights is plan.known_weights and len(counted) == 1
        assert np.array_equal(plan.weights, group_weights(a, b, part))
        assert np.array_equal(plan.distribution.weights, optimal_distribution(a, b, part).weights)
        assert not plan.weights.flags.writeable

    def test_pairwise_plan_computes_pair_weights_only_when_read(self, counted):
        a, b = random_instance(np.random.default_rng(5), n=8)
        plan = Plan(a, b, *pairwise_plan(a, b, ENHANCED))
        assert [p.k for p in counted] == [8]  # the finest weights the pairs are ordered by
        weights = plan.weights
        assert [p.k for p in counted] == [8, 4] and plan.weights is weights
        assert np.array_equal(weights, group_weights(a, b, plan.partition))

    def test_checks_itself(self):
        a, b = random_instance(np.random.default_rng(6), n=4)
        with pytest.raises(ValueError, match="not supported on the given partition"):
            Plan(a, b, coarsen([[0, 1], [2, 3]], 4), optimal_distribution(a, b, finest(4)))
