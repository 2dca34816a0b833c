import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from partsketch import (BALANCED, ENHANCED, SIMPLE, ZeroProductError,
                        aggregate_distribution, bernstein_tail_bound,
                        binomial_cdf, block_product, bound_report, brute_force_expectation,
                        coarsen, dense, distribution, error_form,
                        expected_frobenius_error_sq, finest, group_weights,
                        min_draw_threshold, multiply, optimal_distribution,
                        optimal_expected_error, pair_partition,
                        pairing_comparators, pairwise_plan, random_pairing, spectral_norm,
                        tail_bound_value, uniform_spectral_bound)
from partsketch.sketching import element_contribution
from helpers import all_pairings, random_coarsening, random_instance


def column_weights(a, b):
    return np.linalg.norm(a, axis=0) * np.linalg.norm(b, axis=1)


class TestExpectedError:
    def test_single_group_is_zero(self):
        rng = np.random.default_rng(0)
        a, b = random_instance(rng)
        part = coarsen([list(range(a.shape[1]))], a.shape[1])
        d = optimal_distribution(a, b, part)
        assert expected_frobenius_error_sq(a, b, part, d, 3) == 0.0

    def test_exact_inverse_scaling_in_c(self):
        rng = np.random.default_rng(1)
        a, b = random_instance(rng)
        part = finest(a.shape[1])
        d = optimal_distribution(a, b, part)
        v1 = expected_frobenius_error_sq(a, b, part, d, 1)
        v2 = expected_frobenius_error_sq(a, b, part, d, 2)
        assert v2 == v1 / 2  # single division by c, so halving is exact

    def test_matches_enumeration_on_base_case(self):
        rng = np.random.default_rng(2)
        a = dense(rng.random((2, 4)) - 0.5)
        b = dense(rng.random((4, 2)) - 0.5)
        part = finest(4)
        d = optimal_distribution(a, b, part)
        _, err_sq = brute_force_expectation(a, b, part, d, 1)
        formula = expected_frobenius_error_sq(a, b, part, d, 1)
        assert err_sq == pytest.approx(formula, rel=1e-12)

    def test_oracle_equivalence_on_random_instances(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a, b = random_instance(rng, max_n=6)
            n = a.shape[1]
            part = random_coarsening(rng, n)
            weights = rng.random(part.k) + 0.05
            d = distribution(part, weights, normalize=True)
            c = int(rng.integers(1, 5))
            if part.k**c > 10**4:
                c = 2
            _, err_sq = brute_force_expectation(a, b, part, d, c)
            formula = expected_frobenius_error_sq(a, b, part, d, c)
            assert abs(err_sq - formula) <= 1e-12 * max(1.0, abs(formula))

    def test_oracle_equivalence_large_enumeration(self):
        rng = np.random.default_rng(4)
        a = dense(rng.random((2, 8)) - 0.5)
        b = dense(rng.random((8, 2)) - 0.5)
        part = coarsen([[0, 1], [2], [3, 4], [5], [6, 7]], 8)
        d = optimal_distribution(a, b, part)
        c = 5  # 5^5 = 3125 sequences
        _, err_sq = brute_force_expectation(a, b, part, d, c)
        formula = expected_frobenius_error_sq(a, b, part, d, c)
        assert err_sq == pytest.approx(formula, rel=1e-12)

    def test_zero_probability_with_weight_raises(self):
        rng = np.random.default_rng(5)
        a, b = random_instance(rng, n=3)
        part = finest(3)
        d = distribution(part, [0.5, 0.5, 0.0])
        with pytest.raises(ValueError, match="zero sampling probability"):
            expected_frobenius_error_sq(a, b, part, d, 2)

    def test_zero_weight_zero_probability_allowed(self):
        a_vals = np.random.default_rng(6).random((2, 3))
        a_vals[:, 2] = 0.0
        a = dense(a_vals)
        b = dense(np.random.default_rng(7).random((3, 2)))
        part = finest(3)
        d = optimal_distribution(a, b, part)
        assert d.weights[2] == 0.0
        value = expected_frobenius_error_sq(a, b, part, d, 2)
        assert value >= 0.0


class TestCancellationFloor:
    # rank-one nonnegative factors with the finest partition: every per-index
    # block is parallel to the product, so the true expected error is exactly 0
    @settings(max_examples=120, derandomize=True, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.floats(-6.0, 6.0))
    def test_rank_one_error_is_zero_at_every_scale(self, seed, log_scale):
        rng = np.random.default_rng(seed)
        m, n, p = int(rng.integers(1, 30)), int(rng.integers(2, 60)), int(rng.integers(1, 30))
        scale = 10.0 ** log_scale
        a = dense(scale * np.outer(rng.random(m), rng.random(n)))
        b = dense(scale * np.outer(rng.random(n), rng.random(p)))
        part = finest(n)
        d = optimal_distribution(a, b, part)
        assert expected_frobenius_error_sq(a, b, part, d, 3) == 0.0
        assert optimal_expected_error(a, b, part, 3) == 0.0

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.floats(-6.0, 6.0))
    def test_generic_error_scales_with_fourth_power(self, seed, log_scale):
        # the floor is relative, so it neither zeroes nor rejects a real error at any scale
        rng = np.random.default_rng(seed)
        a, b = random_instance(rng, n=int(rng.integers(3, 9)))
        part = finest(a.shape[1])
        d = optimal_distribution(a, b, part)
        scale = 10.0 ** log_scale
        sa, sb = dense(scale * a), dense(scale * b)
        base = expected_frobenius_error_sq(a, b, part, d, 2)
        assert base > 0.0
        assert expected_frobenius_error_sq(sa, sb, part, d, 2) == pytest.approx(scale**4 * base, rel=1e-9)
        assert optimal_expected_error(sa, sb, part, 2) == pytest.approx(
            scale**4 * optimal_expected_error(a, b, part, 2), rel=1e-9)


class TestOptimalExpectedError:
    def test_single_group_zero(self):
        rng = np.random.default_rng(8)
        a, b = random_instance(rng)
        part = coarsen([list(range(a.shape[1]))], a.shape[1])
        assert optimal_expected_error(a, b, part, 5) == 0.0

    def test_orthonormal_closed_form(self):
        n, c = 6, 4
        a = dense(np.eye(n))
        b = dense(np.eye(n))
        # unit weights: ((sum of n ones)^2 - n) / c
        assert optimal_expected_error(a, b, finest(n), c) == pytest.approx(
            (n * n - n) / c, rel=1e-12)

    def test_agrees_with_generic_formula_at_optimum(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            a, b = random_instance(rng)
            part = random_coarsening(rng, a.shape[1])
            d = optimal_distribution(a, b, part)
            direct = expected_frobenius_error_sq(a, b, part, d, 3)
            closed = optimal_expected_error(a, b, part, 3)
            assert direct == pytest.approx(closed, rel=1e-11, abs=1e-12)

    def test_finest_has_largest_error(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            a, b = random_instance(rng)
            part = random_coarsening(rng, a.shape[1])
            coarse = optimal_expected_error(a, b, part, 2)
            fine = optimal_expected_error(a, b, finest(a.shape[1]), 2)
            assert coarse <= fine + 1e-12 * max(1.0, fine)

    def test_perturbations_never_beat_optimum(self):
        rng = np.random.default_rng(11)
        a, b = random_instance(rng)
        part = random_coarsening(rng, a.shape[1])
        d = optimal_distribution(a, b, part)
        best = expected_frobenius_error_sq(a, b, part, d, 2)
        for _ in range(100):
            noise = 1.0 + (rng.random(part.k) - 0.5)
            perturbed = distribution(part, d.weights * noise, normalize=True)
            if np.any((perturbed.weights == 0) & (d.weights > 0)):
                continue
            value = expected_frobenius_error_sq(a, b, part, perturbed, 2)
            assert value >= best - 1e-12 * max(1.0, best)


class TestBernsteinBound:
    def test_reduces_to_optimal_form(self):
        rng = np.random.default_rng(12)
        a = dense(rng.random((2, 3)) - 0.5)
        b = dense(rng.random((3, 2)) - 0.5)
        part = coarsen([[0, 1], [2]], 3)
        d = optimal_distribution(a, b, part)
        report = bound_report(a, b, part, d)
        # independent ingredients: svd for the spectral norm, direct block norms
        weight_total = sum(float(np.linalg.norm(a[:, list(g)] @ b[list(g), :]))
                           for g in part.groups)
        s = float(np.linalg.svd(a @ b, compute_uv=False)[0])
        assert report.max_scaled_weight == pytest.approx(weight_total, rel=1e-12)
        assert report.scaled_weight_sq_sum == pytest.approx(weight_total**2, rel=1e-12)
        c, eps = 7, 0.8
        expected = 4 * math.exp(-c * eps**2 / (2 * (s + weight_total)**2 + eps * (s + weight_total)))
        assert bernstein_tail_bound(report, c, eps) == pytest.approx(expected, rel=1e-9)

    def test_monotone_in_c(self):
        rng = np.random.default_rng(13)
        a, b = random_instance(rng)
        part = finest(a.shape[1])
        d = optimal_distribution(a, b, part)
        report = bound_report(a, b, part, d)
        assert bernstein_tail_bound(report, 20, 0.5) <= bernstein_tail_bound(report, 10, 0.5)

    def test_decays_to_zero_for_huge_epsilon(self):
        rng = np.random.default_rng(14)
        a, b = random_instance(rng)
        part = finest(a.shape[1])
        d = optimal_distribution(a, b, part)
        report = bound_report(a, b, part, d)
        sigma_sq = (report.product_spectral_norm**2
                    + 2 * report.weight_sum * report.product_spectral_norm
                    + report.scaled_weight_sq_sum)
        linear = report.product_spectral_norm + report.max_scaled_weight
        huge = 1e9 * (sigma_sq + linear)
        assert bernstein_tail_bound(report, 1, huge) < 1e-300

    def test_rejects_nonpositive_epsilon(self):
        with pytest.raises(ValueError):
            tail_bound_value(1.0, 1.0, 4, 1, 0.0)

    @pytest.mark.parametrize("epsilon", ["nan", "inf", "1e999", "-inf"])
    def test_rejects_non_finite_epsilon(self, epsilon):
        # NaN passes an "epsilon <= 0" check, and neither NaN nor inf is valid JSON
        with pytest.raises(ValueError, match="finite"):
            tail_bound_value(1.0, 1.0, 4, 1, float(epsilon))


class TestBinomialCdf:
    def test_full_range_is_one(self):
        assert binomial_cdf(10, 10, 0.3) == 1.0
        assert binomial_cdf(15, 10, 0.3) == 1.0

    def test_zero_successes(self):
        assert binomial_cdf(0, 7, 0.25) == pytest.approx(0.75**7, rel=1e-12)

    def test_half(self):
        # (C(3,0)+C(3,1))/8 = 4/8
        assert binomial_cdf(1, 3, 0.5) == pytest.approx(0.5, rel=1e-12)

    def test_negative_is_zero(self):
        assert binomial_cdf(-1, 5, 0.5) == 0.0

    def test_degenerate_probabilities(self):
        assert binomial_cdf(0, 5, 0.0) == 1.0
        assert binomial_cdf(3, 5, 1.0) == 0.0
        assert binomial_cdf(5, 5, 1.0) == 1.0

    @settings(max_examples=80, derandomize=True)
    @given(st.integers(1, 400), st.integers(-1, 401),
           st.floats(0.0, 1.0, allow_nan=False))
    def test_matches_scipy(self, n, s, xi):
        expected = float(scipy_stats.binom.cdf(s, n, xi)) if s >= 0 else 0.0
        assert binomial_cdf(s, n, xi) == pytest.approx(expected, abs=1e-12)

    @settings(max_examples=40, derandomize=True)
    @given(st.integers(2, 200), st.integers(2, 5000))
    def test_complement_identity(self, c, k):
        lhs = 1.0 - binomial_cdf(c - 2, c - 1, 1.0 / k)
        rhs = binomial_cdf(0, c - 1, (k - 1) / k)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_monotone_in_s(self):
        values = [binomial_cdf(s, 20, 0.37) for s in range(-1, 21)]
        assert all(x <= y for x, y in zip(values, values[1:]))


class TestDrawThreshold:
    def test_published_case(self):
        result = min_draw_threshold(500, 2000)
        assert result.feasible and result.threshold == 3

    def test_tiny_tail_case(self):
        result = min_draw_threshold(2, 10**6)
        assert result.feasible and result.threshold == 2

    def test_infeasible_single_group(self):
        result = min_draw_threshold(5, 1)
        assert not result.feasible and result.threshold is None

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            min_draw_threshold(1, 10)
        with pytest.raises(ValueError):
            min_draw_threshold(5, 0)

    def test_threshold_satisfies_rule_and_is_minimal(self):
        for c, k in [(50, 40), (200, 1000), (100, 200)]:
            result = min_draw_threshold(c, k)
            s = result.threshold
            assert 2 <= s <= c
            assert s >= 100 * (1 - binomial_cdf(s - 2, c - 1, 1 / k))
            for worse in range(2, s):
                assert worse < 100 * (1 - binomial_cdf(worse - 2, c - 1, 1 / k))


class TestUniformSpectralBound:
    def test_unit_factor(self):
        rng = np.random.default_rng(15)
        a, b = random_instance(rng)
        bound = uniform_spectral_bound(a, b, c=8, k=8, s_c=2)
        assert bound == pytest.approx(spectral_norm(a) * spectral_norm(b), rel=1e-10)

    def test_halves_when_c_doubles(self):
        rng = np.random.default_rng(16)
        a, b = random_instance(rng)
        assert uniform_spectral_bound(a, b, 20, 5, 3) == pytest.approx(
            uniform_spectral_bound(a, b, 10, 5, 3) / 2, rel=1e-12)

    def test_identity_case(self):
        eye = dense(np.eye(4))
        assert uniform_spectral_bound(eye, eye, c=6, k=4, s_c=3) == pytest.approx(
            4 * 2 / 6, rel=1e-10)


class TestPairingComparators:
    def test_equal_weight_closed_forms(self):
        n = 4
        a = dense(np.full((2, n), 0.5))
        b = dense(np.full((n, 3), 1.0))
        w = float(column_weights(a, b)[0])
        comp = pairing_comparators(a, b, pair_partition(np.full(n, 1 / n), ENHANCED))
        assert comp.single_deviation_bound == pytest.approx(2 * (n - 1) * w, rel=1e-12)
        assert comp.paired_deviation_bound == pytest.approx(2 * (n - 2) * w, rel=1e-12)

    def test_single_pair_has_zero_deviation(self):
        rng = np.random.default_rng(17)
        a = dense(rng.random((3, 2)))
        b = dense(rng.random((2, 3)))
        comp = pairing_comparators(a, b, coarsen([[0, 1]], 2))
        assert comp.paired_deviation_bound == 0.0

    def test_paired_never_exceeds_single(self):
        rng = np.random.default_rng(18)
        for _ in range(100):
            a, b = random_instance(rng, max_n=8, centered=False)
            n = a.shape[1]
            po = optimal_distribution(a, b, finest(n))
            pairing = pair_partition(po.weights, ENHANCED if rng.random() < 0.5 else
                                     random_pairing(int(rng.integers(1e6))))
            comp = pairing_comparators(a, b, pairing)
            assert comp.paired_deviation_bound <= comp.single_deviation_bound + 1e-12
            assert comp.paired_variance_bound <= comp.single_variance_bound + 1e-12

    def test_pair_sums_match_the_per_group_sums_bit_for_bit(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            a, b = random_instance(rng, max_n=9, centered=False)
            n = a.shape[1]
            pairing = pair_partition(rng.random(n), random_pairing(int(rng.integers(1e6))))
            w = np.linalg.norm(a, axis=0) * np.linalg.norm(b, axis=1)
            total = float(np.sum(w))
            sums = np.array([float(np.sum(w[list(g)])) for g in pairing.groups])
            comp = pairing_comparators(a, b, pairing)
            assert comp.paired_deviation_bound == 2.0 * (total - float(np.max(sums)))
            assert comp.paired_variance_bound == 4.0 / total * float(np.sum(sums * (total - sums) ** 2))

    def test_enhanced_minimizes_paired_deviation_exhaustively(self):
        rng = np.random.default_rng(19)
        for n in (4, 6, 8):
            a, b = random_instance(rng, n=n, centered=False)
            po = optimal_distribution(a, b, finest(n))
            enhanced = pair_partition(po.weights, ENHANCED)
            enhanced_value = pairing_comparators(a, b, enhanced).paired_deviation_bound
            for pairing in all_pairings(list(range(n))):
                part = coarsen(pairing, n)
                value = pairing_comparators(a, b, part).paired_deviation_bound
                assert enhanced_value <= value + 1e-12 * max(1.0, value)

    def test_tail_bound_ordering_and_enhanced_minimum(self):
        rng = np.random.default_rng(20)
        for n in (4, 6):
            a, b = random_instance(rng, n=n, centered=False)
            po = optimal_distribution(a, b, finest(n))
            enhanced = pair_partition(po.weights, ENHANCED)
            total = float(np.sum(column_weights(a, b)))
            dims = a.shape[0] + b.shape[1]
            for eps in (0.5 * total, total, 2.0 * total):
                comp_enh = pairing_comparators(a, b, enhanced)
                single = tail_bound_value(comp_enh.single_variance_bound,
                                          comp_enh.single_deviation_bound, dims, 3, eps)
                values = []
                for pairing in all_pairings(list(range(n))):
                    comp = pairing_comparators(a, b, coarsen(pairing, n))
                    paired = tail_bound_value(comp.paired_variance_bound,
                                              comp.paired_deviation_bound, dims, 3, eps)
                    values.append(paired)
                    assert paired <= single + 1e-12
                enh_value = tail_bound_value(comp_enh.paired_variance_bound,
                                             comp_enh.paired_deviation_bound, dims, 3, eps)
                assert enh_value <= min(values) + 1e-12 * max(1.0, min(values))

    def test_rejects_oversized_groups(self):
        rng = np.random.default_rng(21)
        a, b = random_instance(rng, n=4)
        with pytest.raises(ValueError, match="at most two"):
            pairing_comparators(a, b, coarsen([[0, 1, 2], [3]], 4))

    def test_zero_weights_rejected(self):
        a = dense(np.zeros((2, 2)))
        b = dense(np.zeros((2, 2)))
        with pytest.raises(ZeroProductError):
            pairing_comparators(a, b, coarsen([[0, 1]], 2))


class TestCoarseningOrdering:
    def test_aggregated_distributions_never_beat_finest(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            a, b = random_instance(rng)
            n = a.shape[1]
            po = optimal_distribution(a, b, finest(n))
            fine = optimal_expected_error(a, b, finest(n), 2)
            plans = [pair_partition(po.weights, s)
                     for s in (ENHANCED, BALANCED, SIMPLE, random_pairing(int(rng.integers(1e6))))]
            plans.append(random_coarsening(rng, n))
            for part in plans:
                agg = aggregate_distribution(po, part)
                value = expected_frobenius_error_sq(a, b, part, agg, 2)
                assert value <= fine + 1e-12 * max(1.0, fine)


class TestBruteForce:
    def test_single_group(self):
        rng = np.random.default_rng(23)
        a, b = random_instance(rng)
        part = coarsen([list(range(a.shape[1]))], a.shape[1])
        d = optimal_distribution(a, b, part)
        mean, err_sq = brute_force_expectation(a, b, part, d, 2)
        assert np.array_equal(mean, multiply(a, b))
        assert err_sq == 0.0

    def test_two_outcome_hand_computation(self):
        rng = np.random.default_rng(24)
        a = dense(rng.random((2, 3)) - 0.5)
        b = dense(rng.random((3, 2)) - 0.5)
        part = coarsen([[0, 1], [2]], 3)
        q = 0.3
        d = distribution(part, [q, 1 - q])
        exact = multiply(a, b)
        block0 = a[:, [0, 1]] @ b[[0, 1], :]
        block1 = a[:, [2]] @ b[[2], :]
        by_hand = (q * float(np.sum((exact - block0 / q) ** 2))
                   + (1 - q) * float(np.sum((exact - block1 / (1 - q)) ** 2)))
        _, err_sq = brute_force_expectation(a, b, part, d, 1)
        assert err_sq == pytest.approx(by_hand, rel=1e-12)
        assert err_sq == pytest.approx(expected_frobenius_error_sq(a, b, part, d, 1), rel=1e-12)

    def test_guard_rejects_large_instances(self):
        rng = np.random.default_rng(25)
        a, b = random_instance(rng, n=8)
        part = finest(8)
        d = optimal_distribution(a, b, part)
        with pytest.raises(ValueError, match="guard"):
            brute_force_expectation(a, b, part, d, 8)  # 8^8 > 1e6

    def test_zero_samples_are_rejected(self):
        a, b = random_instance(np.random.default_rng(25), n=4)
        part = finest(4)
        with pytest.raises(ValueError, match="sample count must be >= 1, got 0"):
            brute_force_expectation(a, b, part, optimal_distribution(a, b, part), 0)
        with pytest.raises(ValueError, match="sample count must be >= 1, got 0"):
            uniform_spectral_bound(a, b, 0, 4, 2)


class TestShapeCheck:
    """Every function that builds a plan from ``(a, b, partition)``, or takes ``(a, b)`` alone,
    rejects a ``b`` whose rows are not ``a``'s columns."""

    BUILDERS = {
        "group_weights": lambda a, b: group_weights(a, b, finest(4)),
        "optimal_distribution": lambda a, b: optimal_distribution(a, b, finest(4)),
        "pairwise_plan": lambda a, b: pairwise_plan(a, b, ENHANCED),
        "optimal_expected_error": lambda a, b: optimal_expected_error(a, b, finest(4), 3),
        "pairing_comparators": lambda a, b: pairing_comparators(a, b, pair_partition(np.full(4, 0.25), SIMPLE)),
        "uniform_spectral_bound": lambda a, b: uniform_spectral_bound(a, b, 3, 4, 2),
        "multiply": multiply,
        "block_product": lambda a, b: block_product(a, b, [0, 1]),
        "error_form": error_form,
    }

    @pytest.mark.parametrize("name", BUILDERS)
    @pytest.mark.parametrize("b_rows", [3, 5])
    def test_non_conforming_b_is_rejected(self, name, b_rows):
        rng = np.random.default_rng(8)
        a, b = dense(rng.random((3, 4))), dense(rng.random((b_rows, 2)))
        with pytest.raises(ValueError, match=rf"dimension mismatch: \(3, 4\) x \({b_rows}, 2\)"):
            self.BUILDERS[name](a, b)


class TestPlanCheck:
    """Every consumer of a (partition, distribution) pair checks it against ``a @ b`` and each other."""

    CONSUMERS = {
        "expected_frobenius_error_sq": lambda a, b, part, d: expected_frobenius_error_sq(a, b, part, d, 5),
        "bound_report": bound_report,
        "brute_force_expectation": lambda a, b, part, d: brute_force_expectation(a, b, part, d, 2),
        "element_contribution": lambda a, b, part, d: element_contribution(a, b, part, d, np.array([0, 1]), 0),
    }

    @pytest.mark.parametrize("name", CONSUMERS)
    @pytest.mark.parametrize("groups", [[[0, 1], [2, 3]], [[0], [1], [2], [3]]])
    def test_distribution_over_another_partition_is_rejected(self, name, groups):
        # d is over {0,2},{1,3}: the same group count on another split, then a finer partition
        rng = np.random.default_rng(3)
        a = dense(rng.random((3, 4)))
        b = dense(rng.random((4, 2)))
        d = optimal_distribution(a, b, coarsen([[0, 2], [1, 3]], 4))
        with pytest.raises(ValueError, match="not supported on the given partition"):
            self.CONSUMERS[name](a, b, coarsen(groups, 4), d)

    @pytest.mark.parametrize("name", CONSUMERS)
    def test_partition_of_another_size_is_rejected(self, name):
        rng = np.random.default_rng(3)
        a = dense(rng.random((3, 4)))
        b = dense(rng.random((4, 2)))
        d = optimal_distribution(a, b, finest(4))
        with pytest.raises(ValueError, match="partition covers 3 indices"):
            self.CONSUMERS[name](a, b, finest(3), distribution(finest(3), [0.5, 0.25, 0.25]))
        with pytest.raises(ValueError, match="dimension mismatch"):
            self.CONSUMERS[name](a, dense(np.ones((3, 2))), finest(4), d)
