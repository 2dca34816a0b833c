import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from partsketch import (ENHANCED, SketchConfig, brute_force_expectation,
                        coarsen, dense, distribution, element_contribution,
                        element_weight, error_form, expected_frobenius_error_sq,
                        finest, frobenius_errors, frobenius_norm, multiply,
                        optimal_distribution, pairwise_plan, sample_indices,
                        sketch, sketch_from_draws, sketch_trials, spectral_norm,
                        uniform_distribution, uniform_stream)
from partsketch import sketching
from partsketch.rng import derive_seed, derive_seeds
from partsketch.sketching import (_FORM_ROWS, _GUIDE_STEPS, _inverse_cdf, _is_transpose,
                                  _trials_per_block)
from helpers import (column_gather_product, direct_errors_and_bounds, gemm_error_bound,
                     gram_error_bound, kernel_error_bound, loop_sketch, random_coarsening,
                     random_instance, scale_vector)


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
        assert sample_indices(d, 50, 3).dtype == np.int64
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
    def test_block_counts_equal_counted_draws(self, weights, c, seed):
        # a block of trials looks up its variates in one call and counts them
        # in one pass; each trial's count per group must equal the bincount of
        # its own draws
        k = len(weights)
        part = finest(k)
        d = distribution(part, weights, normalize=True)
        seeds = [seed, seed ^ 1, seed // 3]
        results = sketch_trials(dense(np.ones((1, k))), dense(np.ones((k, 1))), [(part, d, c, seeds)])
        for s, res in zip(seeds, results, strict=True):
            assert np.array_equal(res.counts, np.bincount(sample_indices(d, c, s), minlength=k))

    def test_variate_on_a_group_boundary(self):
        # u_0 = cdf[0] exactly: the draw and its count both go to group 1
        seed = next(s for s in range(100) if uniform_stream(s, 1)[0] >= 0.5)
        u0 = uniform_stream(seed, 1)[0]
        part = finest(2)
        d = distribution(part, [u0, 1 - u0])  # 1 - u0 is exact for u0 >= 0.5
        assert d.cdf[0] == u0
        res = sketch(dense(np.ones((1, 2))), dense(np.ones((2, 1))), part, d, SketchConfig(5, seed))
        draws = sample_indices(d, 5, seed)
        assert draws[0] == 1
        assert np.array_equal(res.counts, np.bincount(draws, minlength=2))

    def test_cdf_is_cached_read_only_and_ends_at_one(self):
        d = distribution(finest(4), [0.1, 0.0, 0.6, 0.3])
        assert d.cdf is d.cdf
        assert d.cdf[-1] == 1.0 and d.cdf[0] == d.cdf[1]
        with pytest.raises(ValueError):
            d.cdf[0] = 0.5


class TestGuideTable:
    """The guide-table lookup finds every variate's group exactly as a binary search of the CDF does."""

    @staticmethod
    def hard_variates(cdf):
        # every CDF entry below 1 and its neighbours, 0 and the largest double below 1
        inner = cdf[cdf < 1.0]
        return np.concatenate([inner, np.nextafter(inner, 0.0), np.nextafter(inner, 1.0),
                               [0.0, 1.0 - 2.0**-53]])

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.lists(st.one_of(st.just(0.0), st.floats(1e-300, 1.0), st.floats(1e-12, 1e-6)),
                    min_size=1, max_size=60).filter(lambda w: sum(w) > 0),
           st.integers(0, 2**63 - 1))
    @example([1.0], 0)
    @example([0.0, 1.0, 0.0], 1)
    @example([1.0] + [1e-12] * 20, 2)
    @example([1e-12] * 20 + [1.0], 3)
    @example([0.0] * 10 + [1.0, 1e-300, 1e-300, 1e-300, 1.0], 4)
    def test_lookup_equals_binary_search(self, weights, seed):
        d = distribution(finest(len(weights)), weights, normalize=True)
        u = np.concatenate([self.hard_variates(d.cdf), uniform_stream(seed, 200)])
        want = np.searchsorted(d.cdf, u, side="right")
        assert np.array_equal(_inverse_cdf(d, u), want)
        assert np.array_equal(_inverse_cdf(d, u[:200].reshape(8, 25)), want[:200].reshape(8, 25))
        assert np.all(d.guide[(u * d.weights.size).astype(np.intp)] <= want)  # never past the answer

    def test_skewed_weights_reach_the_search_fallback(self):
        # twenty groups share the first guide bucket, so a variate at the CDF's
        # tenth entry is more than _GUIDE_STEPS steps short of its group
        d = distribution(finest(21), [1e-12] * 20 + [1.0], normalize=True)
        u = d.cdf[[10, 15]]
        want = np.searchsorted(d.cdf, u, side="right")
        assert np.all(want - d.guide[(u * 21).astype(np.intp)] > _GUIDE_STEPS)
        assert np.array_equal(_inverse_cdf(d, u), want)

    def test_guide_is_cached_read_only_and_defined_by_the_cdf(self):
        d = distribution(finest(5), [0.05, 0.0, 0.4, 0.25, 0.3])
        assert d.guide is d.guide and d.guide.shape == (6,)
        buckets = np.floor(d.cdf * 5)
        for j, start in enumerate(d.guide):
            assert start == min(g for g in range(5) if buckets[g] >= j)
        with pytest.raises(ValueError):
            d.guide[0] = 1


class TestSketchTrials:
    """A batch of trials equals one lone sketch per seed, bit for bit."""

    @staticmethod
    def plan(b_kind, zero_groups):
        rng = np.random.default_rng(41)
        a = dense(rng.random((5, 40)) - 0.5)
        b = a.T if b_kind == "a.T" else dense(rng.random((40, 3)) - 0.5)
        part = random_coarsening(rng, 40, max_groups=25) if zero_groups else finest(40)
        d = optimal_distribution(a, b, part)
        if zero_groups:  # every third group is never drawn
            w = d.weights.copy()
            w[::3] = 0.0
            d = distribution(part, w, normalize=True)
        return a, b, part, d

    @pytest.mark.parametrize("b_kind", ["a.T", "unrelated"])
    @pytest.mark.parametrize("c, zero_groups", [(1, False), (9, True), (5000, False), (5000, True)])
    @pytest.mark.parametrize("extra", [None, 0, 1])
    def test_each_trial_equals_a_lone_sketch(self, b_kind, c, zero_groups, extra):
        # extra: None runs one trial, 0 exactly one block, 1 one block plus one
        # trial; c = 5000 is far above k <= 40 and gives blocks of 6 trials
        a, b, part, d = self.plan(b_kind, zero_groups)
        per_block = _trials_per_block(c, part.n)
        seeds = [derive_seed(c, t) for t in range(1 if extra is None else per_block + extra)]
        results = list(sketch_trials(a, b, [(part, d, c, seeds)]))
        assert len(results) == len(seeds)
        for seed, res in zip(seeds, results):
            lone = sketch(a, b, part, d, SketchConfig(c, seed))
            assert res.estimate.tobytes() == lone.estimate.tobytes()
            assert res.counts.dtype == lone.counts.dtype == np.int64
            assert res.counts.tobytes() == lone.counts.tobytes()
            drawn = sample_indices(d, c, seed)
            assert np.array_equal(res.counts, np.bincount(drawn, minlength=part.k))
            assert not res.estimate.flags.writeable and not res.counts.flags.writeable
        if zero_groups:
            assert not any(res.counts[::3].any() for res in results)

    def test_blocks_follow_the_entry_budget(self, monkeypatch):
        a, b, part, d = self.plan("a.T", False)
        sizes = []
        draw_block = sketching._draw_block

        def recording(dist, c, seeds):
            sizes.append(len(seeds))
            return draw_block(dist, c, seeds)

        monkeypatch.setattr(sketching, "_draw_block", recording)
        assert len(list(sketch_trials(a, b, [(part, d, 5000, list(range(13)))]))) == 13
        assert sizes == [6, 6, 1]  # 2**15 // 5000
        sizes.clear()
        list(sketch_trials(a, b, [(part, d, 3, list(range(900)))]))
        assert sizes == [819, 81]  # 2**15 // n, n = 40

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.integers(1, 10**12), st.integers(1, 10**7))
    @example(2**15, 1)
    @example(1, 2**15 + 1)
    @example(2**14, 2**14)
    def test_block_temporaries_stay_within_budget(self, c, n):
        # the (trials, c) variates and (trials, n) scales hold at most 2**15
        # entries, unless a single trial alone needs more
        per_block = _trials_per_block(c, n)
        assert per_block >= 1
        assert per_block * max(c, n) <= 2**15 or per_block == 1
        assert (per_block + 1) * max(c, n) > 2**15

    def test_plan_is_checked_on_the_call(self):
        a, b, part, d = self.plan("unrelated", False)
        with pytest.raises(ValueError, match="supported"):
            sketch_trials(a, b, [(coarsen([list(range(20)), list(range(20, 40))], 40), d, 3, [1])])
        with pytest.raises(ValueError, match="mismatch"):
            sketch_trials(a, dense(np.ones((3, 2))), [(part, d, 3, [1])])
        with pytest.raises(ValueError, match=">= 1"):
            sketch_trials(a, b, [(part, d, 0, [1])])

    def test_cell_without_seeds_yields_nothing(self):
        a, b, part, d = self.plan("unrelated", False)
        assert list(sketch_trials(a, b, [])) == []
        assert list(sketch_trials(a, b, [(part, d, 3, [])])) == []
        results = list(sketch_trials(a, b, [(part, d, 3, [1, 2]), (part, d, 9, []), (part, d, 5, [4])]))
        assert [int(r.counts.sum()) for r in results] == [3, 3, 5]

    @pytest.mark.parametrize("bad", ["partition", "c"])
    @pytest.mark.parametrize("where", [0, 2])
    def test_a_bad_plan_in_any_cell_raises_before_any_draw(self, monkeypatch, bad, where):
        a, b, part, d = self.plan("unrelated", False)
        cells = [(part, d, 3, [1, 2])] * 3
        if bad == "partition":
            cells[where] = (coarsen([list(range(20)), list(range(20, 40))], 40), d, 3, [1])
        else:
            cells[where] = (part, d, 0, [1])
        draws = []
        monkeypatch.setattr(sketching, "_draw_block", lambda *args: draws.append(args))
        with pytest.raises(ValueError):
            sketch_trials(a, b, cells)
        assert draws == []

    @pytest.mark.parametrize("b_kind", ["a.T", "unrelated"])
    def test_several_cells_equal_a_lone_sketch_per_seed(self, b_kind):
        # three plans on one (A, B); the middle cell spans two draw blocks (6 + 2 trials)
        a, b, part, d = self.plan(b_kind, False)
        coarse = random_coarsening(np.random.default_rng(42), 40, max_groups=25)
        cells = [(part, d, 7, [derive_seed(45, 0, t) for t in range(5)]),
                 (coarse, optimal_distribution(a, b, coarse), 5000, [derive_seed(45, 1, t) for t in range(8)]),
                 (part, uniform_distribution(part), 1, [derive_seed(45, 2, t) for t in range(3)])]
        results = sketch_trials(a, b, cells)
        for partition, dist, c, seeds in cells:
            for seed in seeds:
                res, lone = next(results), sketch(a, b, partition, dist, SketchConfig(c, seed))
                assert res.estimate.tobytes() == lone.estimate.tobytes()
                assert res.counts.tobytes() == lone.counts.tobytes()
        assert next(results, None) is None

    def test_later_cells_are_drawn_lazily(self, monkeypatch):
        a, b, part, d = self.plan("a.T", False)
        drawn = []
        draw_block = sketching._draw_block

        def recording(dist, c, seeds):
            drawn.append(c)
            return draw_block(dist, c, seeds)

        monkeypatch.setattr(sketching, "_draw_block", recording)
        results = sketch_trials(a, b, [(part, d, 3, [1, 2]), (part, d, 5, [3]), (part, d, 7, [4])])
        assert drawn == []
        next(results)
        assert drawn == [3]
        assert len(list(results)) == 3 and drawn == [3, 5, 7]


class TestPanelKernel:
    """Every estimate, gathered as rows of one Aᵀ panel, against the column-gather kernel
    it replaced, within the forward-error bound of two orders of the same sums."""

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 120), st.integers(1, 2500), st.integers(1, 3000),
           st.sampled_from(["view", "copy", "other"]), st.booleans())
    @example(0, 7, 30, 1, "view", False)  # K = 1, syrk
    @example(1, 7, 30, 1, "copy", True)  # K = 1, GEMM
    @example(2, 1, 300, 500, "view", False)  # m = 1
    @example(3, 1, 300, 500, "copy", False)
    @example(4, 100, 2000, 3000, "view", False)  # the paper shape
    def test_within_gemm_bound_of_the_column_gather_kernel(self, seed, m, n, c, b_kind, coarse):
        rng = np.random.default_rng(seed)
        a = dense(rng.random((m, n)) - 0.5)
        b = {"view": a.T, "copy": dense(a.T.copy()),
             "other": dense(rng.random((n, int(rng.integers(1, 6)))) - 0.5)}[b_kind]
        part = random_coarsening(rng, n, max_groups=n // 2 + 1) if coarse and n > 1 else finest(n)
        d = optimal_distribution(a, b, part)
        seeds = [derive_seed(seed, t) for t in range(3)]
        for trial_seed, res in zip(seeds, sketch_trials(a, b, [(part, d, c, seeds)]), strict=True):
            s = scale_vector(part, d, sample_indices(d, c, trial_seed))
            idx = np.flatnonzero(s)
            reference = column_gather_product(a, b, idx, s[idx])
            assert np.all(np.abs(res.estimate - reference) <= kernel_error_bound(a, b, idx, s[idx]))


class TestFrobeniusErrors:
    """``uᵀHu`` against the squared error of the estimate each seed's sketch forms."""

    @staticmethod
    def plan(rng, a, b, kind):
        n = a.shape[1]
        if kind == "one-group":
            part = coarsen([list(range(n))], n)
        elif kind == "coarse":
            part = random_coarsening(rng, n, max_groups=n // 2 + 1)
        else:
            part = finest(n)
        d = optimal_distribution(a, b, part)
        if kind == "zero-groups":  # every third index is never drawn
            w = d.weights.copy()
            w[::3] = 0.0
            d = distribution(part, w, normalize=True)
        return part, d

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.sampled_from(["finest", "coarse", "one-group", "zero-groups"]),
           st.integers(1, 5000), st.booleans())
    @example(3, "one-group", 7, True)
    @example(4, "one-group", 1, False)
    @example(5, "zero-groups", 1, True)
    @example(6, "zero-groups", 5000, False)
    @example(7, "finest", 1, True)
    @example(8, "coarse", 1, False)
    def test_matches_the_direct_error_within_derived_bound(self, seed, kind, c, transposed):
        # signed entries, n up to 80; seven seeds span two blocks at c = 5000 (blocks of 6)
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 80))
        a = dense(rng.random((int(rng.integers(1, 7)), n)) - 0.5)
        b = a.T if transposed else dense(rng.random((n, int(rng.integers(1, 7)))) - 0.5)
        part, d = self.plan(rng, a, b, kind)
        seeds = [derive_seed(seed, t) for t in range(7)]
        [errs] = frobenius_errors(error_form(a, b), [(part, d, c, seeds)])
        direct, bounds = direct_errors_and_bounds(a, b, part, d, c, seeds)
        assert errs.shape == (7,) and np.all(errs >= 0.0)
        assert np.all(np.abs(errs - direct) <= bounds)
        if part.k == 1:  # s = c / (c · 1) = 1 exactly, so u = 0
            assert np.all(errs == 0.0)

    @pytest.mark.parametrize("b_kind", ["a.T", "unrelated"])
    @pytest.mark.parametrize("optimal", [True, False])
    def test_mean_matches_closed_form(self, b_kind, optimal):
        rng = np.random.default_rng(43)
        a = dense(rng.random((4, 30)) - 0.5)
        b = a.T if b_kind == "a.T" else dense(rng.random((30, 3)) - 0.5)
        part = random_coarsening(rng, 30, max_groups=12)
        d = optimal_distribution(a, b, part) if optimal else uniform_distribution(part)
        c = 7
        [errs] = frobenius_errors(error_form(a, b), [(part, d, c, [derive_seed(43, t) for t in range(4000)])])
        stderr = errs.std(ddof=1) / np.sqrt(errs.size)
        assert abs(errs.mean() - expected_frobenius_error_sq(a, b, part, d, c)) <= 5 * stderr

    def test_error_form_and_plan_checks(self):
        a, b, part, d = TestSketchTrials.plan("unrelated", False)
        h = error_form(a, b)
        assert h.shape == (40, 40) and not h.flags.writeable
        assert np.array_equal(h, (a.T @ a) * (b @ b.T))
        with pytest.raises(ValueError, match="mismatch"):
            error_form(a, dense(np.ones((3, 2))))
        with pytest.raises(ValueError, match="partition covers 40"):
            frobenius_errors(h[:39, :39], [(part, d, 3, [1])])
        with pytest.raises(ValueError, match="mismatch"):
            frobenius_errors(h[:39, :], [(part, d, 3, [1])])
        with pytest.raises(ValueError, match="supported"):
            frobenius_errors(h, [(coarsen([list(range(20)), list(range(20, 40))], 40), d, 3, [1])])
        with pytest.raises(ValueError, match=">= 1"):
            frobenius_errors(h, [(part, d, 0, [1])])

    def test_cell_without_seeds_gives_an_empty_array(self):
        a, b, part, d = TestSketchTrials.plan("unrelated", False)
        h = error_form(a, b)
        assert frobenius_errors(h, []) == []
        [empty] = frobenius_errors(h, [(part, d, 3, [])])
        assert empty.shape == (0,)
        first, empty, last = frobenius_errors(h, [(part, d, 3, [1, 2]), (part, d, 9, []), (part, d, 3, [4])])
        assert (first.shape, empty.shape, last.shape) == ((2,), (0,), (1,))

    @pytest.mark.parametrize("bad", ["partition", "c", "h"])
    @pytest.mark.parametrize("where", [0, 2])
    def test_a_bad_plan_in_any_cell_raises_before_any_draw(self, monkeypatch, bad, where):
        a, b, part, d = TestSketchTrials.plan("unrelated", False)
        h = error_form(a, b)
        cells = [(part, d, 3, [1, 2])] * 3
        if bad == "partition":
            cells[where] = (coarsen([list(range(20)), list(range(20, 40))], 40), d, 3, [1])
        elif bad == "c":
            cells[where] = (part, d, 0, [1])
        else:  # a distribution over another n than h's
            cells[where] = (finest(39), uniform_distribution(finest(39)), 3, [1])
        draws = []
        monkeypatch.setattr(sketching, "_draw_block", lambda *args: draws.append(args))
        with pytest.raises(ValueError):
            frobenius_errors(h, cells)
        assert draws == []

    def test_cells_straddling_gemm_chunks_match_the_direct_error(self):
        # 20 + 0 + 150 + 7 trials: the third cell fills the first 128-row GEMM
        # and spills into the second, in draw blocks of 6 trials at c = 5000
        rng = np.random.default_rng(44)
        a = dense(rng.random((5, 40)) - 0.5)
        b = dense(rng.random((40, 3)) - 0.5)
        part = random_coarsening(rng, 40, max_groups=25)
        plans = [(finest(40), optimal_distribution(a, b, finest(40))),
                 (part, optimal_distribution(a, b, part)), (part, uniform_distribution(part))]
        cells = [(*plans[0], 7, [derive_seed(44, 0, t) for t in range(20)]),
                 (*plans[1], 3, []),
                 (*plans[1], 5000, [derive_seed(44, 2, t) for t in range(150)]),
                 (*plans[2], 1, [derive_seed(44, 3, t) for t in range(7)])]
        assert sum(len(seeds) for *_, seeds in cells) > _FORM_ROWS > 20
        assert _trials_per_block(5000, 40) == 6
        errors = frobenius_errors(error_form(a, b), cells)
        assert [e.shape for e in errors] == [(20,), (0,), (150,), (7,)]
        for (part_t, d_t, c, seeds), errs in zip(cells, errors):
            direct, bounds = direct_errors_and_bounds(a, b, part_t, d_t, c, seeds)
            assert np.all(np.abs(errs - direct) <= bounds)


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
            draws = sample_indices(d, 1, 8)
            drawn = int(draws[0])
            expected = element_contribution(a, b, part, d, draws, drawn)
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
        # trial t is sketch(a, b, part, d, SketchConfig(2, derive_seed(77, t))) bit for bit
        for result in sketch_trials(a, b, [(part, d, 2, derive_seeds(77, (), trials))]):
            est = result.estimate
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
        assert np.array_equal(r1.counts, r2.counts)

    def test_counts_agree_with_draws(self):
        a, b = small_instance(2)
        part = finest(4)
        d = optimal_distribution(a, b, part)
        res = sketch(a, b, part, d, SketchConfig(25, 5))
        assert res.counts.sum() == 25
        assert np.array_equal(res.counts, np.bincount(sample_indices(d, 25, 5), minlength=4))

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


class TestSketchFromDraws:
    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 300), st.booleans())
    def test_equals_the_trial_of_the_same_seed(self, seed, c, gram):
        # sketch_trials draws its counts in blocks and gathers rows from a copied panel
        rng = np.random.default_rng(seed)
        a, b = random_instance(rng, max_n=12)
        if gram:
            b = a.T
        part = random_coarsening(rng, a.shape[1])
        d = optimal_distribution(a, b, part)
        expected = next(sketch_trials(a, b, [(part, d, c, [seed])]))
        result = sketch_from_draws(a, b, part, d, sample_indices(d, c, seed))
        assert result.estimate.tobytes() == expected.estimate.tobytes()
        assert np.array_equal(result.counts, expected.counts)

    @pytest.mark.parametrize("draws, match", [
        (np.array([], dtype=np.int64), "sample count"),
        (np.array([0, 4]), "group indices"),
        (np.array([0.0, 1.0]), "group indices"),
        (np.array([0, 1]), "probability 0"),
    ])
    def test_rejects_invalid_draws(self, draws, match):
        a, b = small_instance()
        part = coarsen([[0, 1], [2], [3]], 4)
        d = distribution(part, [0.5, 0.0, 0.5])
        with pytest.raises(ValueError, match=match):
            sketch_from_draws(a, b, part, d, draws)


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
        assert np.array_equal(element_contribution(a, b, part, d, sample_indices(d, 4, 3), 0),
                              res.estimate)

    def test_decomposition_within_gemm_bound(self):
        # one GEMM over all drawn indices sums in another order than the
        # per-group contributions, so they agree to the rounding bound, not bitwise
        a, b = small_instance(7)
        for part in (finest(4), coarsen([[1, 3], [0], [2]], 4)):
            d = optimal_distribution(a, b, part)
            res = sketch(a, b, part, d, SketchConfig(11, 99))
            draws = sample_indices(d, 11, 99)
            total = np.zeros_like(res.estimate)
            for g in range(part.k):
                total += element_contribution(a, b, part, d, draws, g)
            bound = gemm_error_bound(a, scale_vector(part, d, draws), b)
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
        # n up to 700 and c up to 600 draw up to several hundred distinct
        # indices into the engine's one product; b = a.T takes the Gram
        # kernel, held to the bound widened for its sqrt split
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 700))
        a = dense(rng.random((int(rng.integers(1, 6)), n)) - 0.5)
        b = a.T if transposed else dense(rng.random((n, int(rng.integers(1, 6)))) - 0.5)
        part = random_coarsening(rng, n, max_groups=n // 2 + 1) if coarse else finest(n)
        d = optimal_distribution(a, b, part)
        cfg = SketchConfig(c, seed)
        res = sketch(a, b, part, d, cfg)
        reference = loop_sketch(a, b, part, d, cfg)
        s = scale_vector(part, d, sample_indices(d, c, seed))
        bound = gram_error_bound(a, s) if transposed else gemm_error_bound(a, s, b)
        assert np.all(np.abs(res.estimate - reference) <= bound)


class TestGramKernel:
    def instance(self):
        rng = np.random.default_rng(31)
        a = dense(rng.random((40, 700)) - 0.5)
        return a, optimal_distribution(a, a.T, finest(700))

    def test_estimate_is_exactly_symmetric(self):
        a, d = self.instance()
        for c in (1, 300, 2000):  # one drawn index to most of the 700
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
                      <= gram_error_bound(a, scale_vector(part, d, sample_indices(d, 900, 4))))
        d_other = optimal_distribution(a, other.T, part)
        res = sketch(a, other.T, part, d_other, cfg)
        assert np.all(np.abs(res.estimate - loop_sketch(a, other.T, part, d_other, cfg))
                      <= gemm_error_bound(a, scale_vector(part, d_other, sample_indices(d_other, 900, 4)),
                                          other.T))


class TestSketchPairwise:
    def test_two_columns_recover_product(self):
        # single pair group; recovery is exact up to one ulp (the pair order can
        # permute the two-term dot, which FMA kernels associate differently)
        rng = np.random.default_rng(10)
        a = dense(rng.random((3, 2)))
        b = dense(rng.random((2, 3)))
        for c in (1, 5):
            res = sketch(a, b, *pairwise_plan(a, b, ENHANCED), SketchConfig(c, 0))
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
            sketch(a, b, *pairwise_plan(a, b, ENHANCED), SketchConfig(1, 0))


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
