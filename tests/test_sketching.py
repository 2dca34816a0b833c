import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from partsketch import (ENHANCED, SketchConfig, brute_force_expectation,
                        coarsen, dense, distribution, element_contribution,
                        element_weight, finest, frobenius_norm, multiply,
                        optimal_distribution, pairwise_plan, sample_indices,
                        sketch, sketch_pairwise, spectral_norm,
                        uniform_stream)
from partsketch.rng import derive_seed
from partsketch.sketching import _is_transpose
from helpers import (gemm_error_bound, gram_error_bound, loop_sketch,
                     random_coarsening, random_instance, scale_vector)


def small_instance(seed=0):
    rng = np.random.default_rng(seed)
    a = dense(rng.random((2, 4)) - 0.5)
    b = dense(rng.random((4, 2)) - 0.5)
    return a, b


class TestSampleIndices:
    def test_degenerate_distribution(self):
        d = distribution(coarsen([[0, 1]], 2), [1.0])
        assert np.array_equal(sample_indices(d, 20, 7), np.zeros(20, dtype=np.int64))

    def test_seed_determinism(self):
        d = distribution(finest(3), [0.2, 0.3, 0.5])
        assert np.array_equal(sample_indices(d, 50, 3), sample_indices(d, 50, 3))
        assert not np.array_equal(sample_indices(d, 50, 3), sample_indices(d, 50, 4))

    def test_batching_does_not_change_draws(self):
        # counter-based stream: draw i depends only on (seed, i)
        d = distribution(finest(3), [0.2, 0.3, 0.5])
        assert np.array_equal(sample_indices(d, 10, 5)[:4], sample_indices(d, 4, 5))

    def test_law_of_large_numbers(self):
        d = distribution(finest(2), [0.5, 0.5])
        draws = sample_indices(d, 10**5, 12345)
        freq = np.bincount(draws, minlength=2) / 10**5
        assert 0.49 <= freq[0] <= 0.51

    def test_zero_weight_group_never_drawn(self):
        d = distribution(finest(3), [0.5, 0.0, 0.5])
        draws = sample_indices(d, 10**4, 9)
        assert not np.any(draws == 1)

    def test_rejects_nonpositive_count(self):
        d = distribution(finest(2), [0.5, 0.5])
        with pytest.raises(ValueError):
            sample_indices(d, 0, 1)


class TestDrawCounts:
    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(st.lists(st.one_of(st.just(0.0), st.floats(1e-9, 1.0)), min_size=1, max_size=40)
           .filter(lambda w: sum(w) > 0),
           st.integers(1, 5000), st.integers(0, 2**63 - 1))
    @example([1.0], 1, 0)
    @example([1.0], 3000, 5)
    @example([0.0, 0.3, 0.0, 0.7, 0.0], 1, 11)
    @example([0.0, 0.5, 0.5, 0.0], 5000, 2)
    def test_one_sort_counts_equal_counted_draws(self, weights, c, seed):
        # the sketch counts draws by sorting the variates once; the count per
        # group must equal the bincount of the per-draw binary searches
        k = len(weights)
        part = finest(k)
        d = distribution(part, weights, normalize=True)
        res = sketch(dense(np.ones((1, k))), dense(np.ones((k, 1))), part, d, SketchConfig(c, seed))
        assert np.array_equal(res.counts, np.bincount(sample_indices(d, c, seed), minlength=k))

    def test_variate_on_a_group_boundary(self):
        # u_0 = cdf[0] exactly: the draw and its count both go to group 1
        seed = next(s for s in range(100) if uniform_stream(s, 1)[0] >= 0.5)
        u0 = uniform_stream(seed, 1)[0]
        part = finest(2)
        d = distribution(part, [u0, 1 - u0])  # 1 - u0 is exact for u0 >= 0.5
        assert d.cdf[0] == u0
        res = sketch(dense(np.ones((1, 2))), dense(np.ones((2, 1))), part, d, SketchConfig(5, seed))
        assert res.draws[0] == 1
        assert np.array_equal(res.counts, np.bincount(res.draws, minlength=2))

    def test_draws_are_the_sampled_indices_and_read_only(self):
        a, b = small_instance(5)
        part = coarsen([[0, 3], [1], [2]], 4)
        d = optimal_distribution(a, b, part)
        res = sketch(a, b, part, d, SketchConfig(40, 17))
        assert res.draws.dtype == np.int64
        assert res.draws.tobytes() == sample_indices(d, 40, 17).tobytes()
        assert res.draws is res.draws
        with pytest.raises(ValueError):
            res.draws[0] = 0
        with pytest.raises(AttributeError):
            res.draws = np.zeros(40, dtype=np.int64)

    def test_cdf_is_cached_read_only_and_ends_at_one(self):
        d = distribution(finest(4), [0.1, 0.0, 0.6, 0.3])
        assert d.cdf is d.cdf
        assert d.cdf[-1] == 1.0 and d.cdf[0] == d.cdf[1]
        with pytest.raises(ValueError):
            d.cdf[0] = 0.5


class TestSketch:
    def test_single_group_recovers_product_exactly(self):
        a, b_general = small_instance()
        part = coarsen([[0, 1, 2, 3]], 4)
        for b in (b_general, a.T):  # the GEMM and the Gram kernel
            d = optimal_distribution(a, b, part)
            for c in (1, 3, 10):
                res = sketch(a, b, part, d, SketchConfig(c, 42))
                assert np.array_equal(res.estimate, multiply(a, b))

    def test_single_draw_is_scaled_block(self):
        a, b_general = small_instance()
        part = finest(4)
        for b in (b_general, a.T):  # the GEMM and the Gram kernel
            d = optimal_distribution(a, b, part)
            res = sketch(a, b, part, d, SketchConfig(1, 8))
            drawn = int(res.draws[0])
            expected = element_contribution(a, b, part, d, res.draws, drawn)
            assert np.array_equal(res.estimate, expected)
            assert res.counts[drawn] == 1 and res.counts.sum() == 1

    def test_enumerated_expectation_is_unbiased(self):
        a, b = small_instance()
        part = finest(4)
        d = optimal_distribution(a, b, part)
        mean, _ = brute_force_expectation(a, b, part, d, 3)
        assert np.allclose(mean, multiply(a, b), rtol=1e-12, atol=1e-12)

    def test_monte_carlo_mean_within_4_stderr(self):
        a, b = small_instance(3)
        part = finest(4)
        d = optimal_distribution(a, b, part)
        trials = 10**5
        exact = multiply(a, b)
        acc = np.zeros_like(exact)
        acc_sq = np.zeros_like(exact)
        for t in range(trials):
            est = sketch(a, b, part, d, SketchConfig(2, derive_seed(77, t))).estimate
            acc += est
            acc_sq += est * est
        mean = acc / trials
        var = acc_sq / trials - mean**2
        stderr = np.sqrt(var / trials)
        assert np.all(np.abs(mean - exact) <= 4 * stderr + 1e-12)

    def test_bit_identical_reruns(self):
        a, b = small_instance(1)
        part = coarsen([[0, 2], [1, 3]], 4)
        d = optimal_distribution(a, b, part)
        r1 = sketch(a, b, part, d, SketchConfig(9, 123))
        r2 = sketch(a, b, part, d, SketchConfig(9, 123))
        assert r1.estimate.tobytes() == r2.estimate.tobytes()
        assert np.array_equal(r1.draws, r2.draws)
        assert np.array_equal(r1.counts, r2.counts)

    def test_counts_agree_with_draws(self):
        a, b = small_instance(2)
        part = finest(4)
        d = optimal_distribution(a, b, part)
        res = sketch(a, b, part, d, SketchConfig(25, 5))
        assert res.counts.sum() == 25
        assert np.array_equal(res.counts, np.bincount(res.draws, minlength=4))

    def test_validation_errors(self):
        a, b = small_instance()
        part = finest(4)
        d = optimal_distribution(a, b, part)
        with pytest.raises(ValueError, match="supported"):
            sketch(a, b, coarsen([[0, 1], [2, 3]], 4), d, SketchConfig(1, 0))
        with pytest.raises(ValueError, match="mismatch"):
            sketch(a, dense(np.ones((3, 2))), part, d, SketchConfig(1, 0))
        with pytest.raises(ValueError, match=">= 1"):
            SketchConfig(0, 0)


class TestElementContribution:
    def test_never_drawn_group_is_zero(self):
        a, b = small_instance()
        part = finest(4)
        d = optimal_distribution(a, b, part)
        draws = np.array([0, 0, 2])
        assert np.array_equal(element_contribution(a, b, part, d, draws, 1),
                              np.zeros((2, 2)))

    def test_single_group_partition_gives_full_estimate(self):
        a, b = small_instance()
        part = coarsen([[0, 1, 2, 3]], 4)
        d = optimal_distribution(a, b, part)
        res = sketch(a, b, part, d, SketchConfig(4, 3))
        assert np.array_equal(element_contribution(a, b, part, d, res.draws, 0),
                              res.estimate)

    def test_decomposition_within_gemm_bound(self):
        # one GEMM over all drawn indices sums in another order than the
        # per-group contributions, so they agree to the rounding bound, not bitwise
        a, b = small_instance(7)
        for part in (finest(4), coarsen([[1, 3], [0], [2]], 4)):
            d = optimal_distribution(a, b, part)
            res = sketch(a, b, part, d, SketchConfig(11, 99))
            total = np.zeros_like(res.estimate)
            for g in range(part.k):
                total += element_contribution(a, b, part, d, res.draws, g)
            bound = gemm_error_bound(a, scale_vector(part, d, res.draws), b)
            assert np.all(np.abs(total - res.estimate) <= bound)

    def test_enumerated_moments(self):
        # over all k^c draw sequences: E[contribution] is the block itself and
        # E|contribution|_F^2 = w^2 * (1 + (1-p)/(c p)) from binomial moments
        a, b = small_instance(4)
        part = coarsen([[0, 2], [1], [3]], 4)
        d = optimal_distribution(a, b, part)
        c = 2
        k = part.k
        for g in range(k):
            mean = np.zeros((2, 2))
            mean_sq = 0.0
            for seq in itertools.product(range(k), repeat=c):
                prob = float(np.prod(d.weights[list(seq)]))
                contrib = element_contribution(a, b, part, d, np.array(seq), g)
                mean += prob * contrib
                mean_sq += prob * float(np.sum(contrib * contrib))
            block = dense(a[:, list(part.groups[g])] @ b[list(part.groups[g]), :])
            w = element_weight(a, b, part.groups[g])
            p = float(d.weights[g])
            assert np.allclose(mean, block, atol=1e-12)
            assert mean_sq == pytest.approx(w**2 * (1 + (1 - p) / (c * p)), rel=1e-12)

    def test_out_of_range_group(self):
        a, b = small_instance()
        part = finest(4)
        d = optimal_distribution(a, b, part)
        with pytest.raises(ValueError, match="out of range"):
            element_contribution(a, b, part, d, np.array([0]), 4)


class TestEngineAgainstLoop:
    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 600), st.booleans(), st.booleans())
    def test_matches_per_group_loop_within_gemm_bound(self, seed, c, coarse, transposed):
        # n up to 700 spans several fixed-width chunks of the engine; b = a.T
        # takes the Gram kernel, held to the bound widened for its sqrt split
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 700))
        a = dense(rng.random((int(rng.integers(1, 6)), n)) - 0.5)
        b = a.T if transposed else dense(rng.random((n, int(rng.integers(1, 6)))) - 0.5)
        part = random_coarsening(rng, n, max_groups=n // 2 + 1) if coarse else finest(n)
        d = optimal_distribution(a, b, part)
        cfg = SketchConfig(c, seed)
        res = sketch(a, b, part, d, cfg)
        reference = loop_sketch(a, b, part, d, cfg)
        s = scale_vector(part, d, res.draws)
        bound = gram_error_bound(a, s) if transposed else gemm_error_bound(a, s, b)
        assert np.all(np.abs(res.estimate - reference) <= bound)


class TestGramKernel:
    def instance(self):
        rng = np.random.default_rng(31)
        a = dense(rng.random((40, 700)) - 0.5)
        return a, optimal_distribution(a, a.T, finest(700))

    def test_estimate_is_exactly_symmetric(self):
        a, d = self.instance()
        for c in (1, 300, 2000):  # one chunk to several
            est = sketch(a, a.T, finest(700), d, SketchConfig(c, c)).estimate
            assert np.array_equal(est, est.T)

    def test_path_follows_the_buffer(self):
        # only a.T itself takes the Gram kernel: not an equal copy, and not the
        # transpose of another matrix with a's shape and strides
        a, d = self.instance()
        part = finest(700)
        copy = dense(a.T.copy())
        other = dense(np.random.default_rng(32).random(a.shape) - 0.5)
        assert _is_transpose(a, a.T)
        assert not _is_transpose(a, copy) and not _is_transpose(a, other.T)
        square = dense(np.eye(3))
        assert not _is_transpose(square, square) and _is_transpose(square.T, square)
        cfg = SketchConfig(900, 4)
        gram = sketch(a, a.T, part, d, cfg)
        gemm = sketch(a, copy, part, d, cfg)
        assert np.all(np.abs(gram.estimate - gemm.estimate)
                      <= gram_error_bound(a, scale_vector(part, d, gram.draws)))
        d_other = optimal_distribution(a, other.T, part)
        res = sketch(a, other.T, part, d_other, cfg)
        assert np.all(np.abs(res.estimate - loop_sketch(a, other.T, part, d_other, cfg))
                      <= gemm_error_bound(a, scale_vector(part, d_other, res.draws), other.T))


class TestSketchPairwise:
    def test_two_columns_recover_product(self):
        # single pair group; recovery is exact up to one ulp (the pair order can
        # permute the two-term dot, which FMA kernels associate differently)
        rng = np.random.default_rng(10)
        a = dense(rng.random((3, 2)))
        b = dense(rng.random((2, 3)))
        for c in (1, 5):
            res = sketch_pairwise(a, b, ENHANCED, SketchConfig(c, 0))
            assert np.allclose(res.estimate, multiply(a, b), rtol=5e-16, atol=0)

    def test_equal_weights_give_uniform_pairs(self):
        a = dense([[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]])
        b = dense(a.T.copy())
        _, dist = pairwise_plan(a, b, ENHANCED)
        assert np.allclose(dist.weights, [0.5, 0.5], atol=1e-12)

    def test_enumerated_expectation_matches_product(self):
        a, b = small_instance(6)
        partition, dist = pairwise_plan(a, b, ENHANCED)
        mean, _ = brute_force_expectation(a, b, partition, dist, 2)
        assert np.allclose(mean, multiply(a, b), rtol=1e-12, atol=1e-12)

    def test_rejects_single_column(self):
        a = dense([[1.0], [2.0]])
        b = dense([[3.0, 4.0]])
        with pytest.raises(ValueError):
            sketch_pairwise(a, b, ENHANCED, SketchConfig(1, 0))


class TestPathwiseBounds:
    def test_frobenius_bound_under_optimal_distribution(self):
        rng = np.random.default_rng(20)
        for trial in range(40):
            a, b = random_instance(rng)
            n = a.shape[1]
            part = random_coarsening(rng, n) if rng.random() < 0.5 else finest(n)
            d = optimal_distribution(a, b, part)
            weight_total = sum(element_weight(a, b, g) for g in part.groups)
            res = sketch(a, b, part, d, SketchConfig(int(rng.integers(1, 8)), trial))
            fro = frobenius_norm(res.estimate)
            assert fro <= weight_total + 1e-9
            assert spectral_norm(res.estimate) <= fro + 1e-8
