import itertools
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from partsketch import (ENHANCED, Plan, SketchConfig, coarsen, dense, expected_frobenius_error_sq,
                        finest, frobenius_errors, frobenius_norm, multiply, optimal_distribution,
                        optimal_plan, pairwise_plan, sample_indices, sketch, sketch_from_draws,
                        sketch_trials, spectral_norm)
from partsketch import sketching
from partsketch.distributions import _weights
from partsketch.experiments import ExperimentConfig, _methods
from partsketch.matrices import _pair
from partsketch.rng import derive_seed, derive_seeds, generator
from partsketch.sketching import (_FORM_ROWS, _MAX_DRAWS, _block_rows, _inverse_cdf,
                                  _is_transpose, _scaled_product, _trials_per_block)
from helpers import (brute_force_expectation, column_gather_product, direct_errors_and_bounds,
                     distribution, element_contribution, element_weight, form_path_errors,
                     gemm_error_bound, gram_error_bound, kernel_error_bound, loop_sketch,
                     random_coarsening, random_instance, scale_vector, shuffled_groups)


def uniform(part):
    return distribution(part, np.ones(part.k), normalize=True)


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
        results = sketch_trials([(Plan(dense(np.ones((1, k))), dense(np.ones((k, 1))), d), c, seeds)])
        for s, res in zip(seeds, results, strict=True):
            assert np.array_equal(res.counts, np.bincount(sample_indices(d, c, s), minlength=k))

    def test_variate_on_a_group_boundary(self):
        # u_0 = cdf[0] exactly: the draw and its count both go to group 1
        seed = next(s for s in range(100) if generator(s).random() >= 0.5)
        u0 = generator(seed).random()
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
    """The guide-table lookup finds every variate's group exactly as a binary search of the CDF
    does, within ``guide_steps`` steps of the table's own bucket."""

    @staticmethod
    def hard_variates(cdf):
        # every CDF entry below 1 and its neighbours, 0 and the largest double below 1
        inner = cdf[cdf < 1.0]
        return np.concatenate([inner, np.nextafter(inner, 0.0), np.nextafter(inner, 1.0),
                               [0.0, 1.0 - 2.0**-53]])

    @staticmethod
    def buckets(d, u):
        """Each variate's guide bucket, with the bucket count read off the table."""
        return (u * (d.guide.size - 1)).astype(np.intp)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.lists(st.one_of(st.just(0.0), st.floats(1e-300, 1.0), st.floats(1e-12, 1e-6)),
                    min_size=1, max_size=60).filter(lambda w: sum(w) > 0),
           st.integers(0, 2**63 - 1))
    @example([1.0], 0)
    @example([0.0, 1.0, 0.0], 1)
    @example([1.0] + [1e-12] * 20, 2)
    @example([1e-12] * 20 + [1.0], 3)
    @example([0.0] * 10 + [1.0, 1e-300, 1e-300, 1e-300, 1.0], 4)
    @example([1.0, 1e-16, 1e-16, 1e-16], 5)
    def test_lookup_equals_binary_search(self, weights, seed):
        d = distribution(finest(len(weights)), weights, normalize=True)
        u = np.concatenate([self.hard_variates(d.cdf), generator(seed).random(200)])
        want = np.searchsorted(d.cdf, u, side="right")
        assert np.array_equal(_inverse_cdf(d, u), want)
        assert np.array_equal(_inverse_cdf(d, u[:200].reshape(8, 25)), want[:200].reshape(8, 25))
        bucket = self.buckets(d, u)
        assert bucket.max() < d.guide.size - 1  # fl(u * m) < m for u < 1, so guide[bucket + 1] exists
        # the bound the lookup's fast path rests on: never past the answer, at most guide_steps short
        steps = want - d.guide[bucket]
        assert np.all(steps >= 0) and np.all(steps <= d.guide_steps)
        assert np.all(want <= d.guide[bucket + 1])

    def test_skewed_weights_reach_the_search_fallback(self):
        # twenty groups share the first guide bucket, so a variate at the CDF's
        # tenth entry is more than one step short of its group
        d = distribution(finest(21), [1e-12] * 20 + [1.0], normalize=True)
        assert d.guide_steps == 20
        u = d.cdf[[10, 15]]
        want = np.searchsorted(d.cdf, u, side="right")
        assert np.all(want - d.guide[self.buckets(d, u)] > 1)
        assert np.array_equal(_inverse_cdf(d, u), want)

    @staticmethod
    def partition_file_plan(seed=0):
        """The optimal plan of a cli-desk-like request: a 50x500 uniform A, B = Aᵀ, and a
        partition of shuffled groups of 1 to 16 indices."""
        rng = np.random.default_rng(seed)
        a = dense(rng.random((50, 500)))
        return optimal_plan(a, a.T, shuffled_groups(rng, 500))

    def test_two_steps_take_the_check(self):
        # a partition file's plan reads guide_steps 2: the one step leaves some variates one
        # group short, and the check finds them by binary search
        d = self.partition_file_plan().distribution
        assert d.guide_steps == 2
        u = np.concatenate([self.hard_variates(d.cdf), generator(11).random(20000)])
        want = np.searchsorted(d.cdf, u, side="right")
        assert np.any(want - d.guide[self.buckets(d, u)] == 2)
        assert np.array_equal(_inverse_cdf(d, u), want)

    @pytest.mark.parametrize("steps", [0, 1])
    def test_at_most_one_step_takes_no_check(self, steps):
        # a table that claims guide_steps <= 1 is trusted: fed the skewed case's cdf and guide,
        # the lookup returns the one-step groups, short of the search's where it needs more
        d = distribution(finest(21), [1e-12] * 20 + [1.0], normalize=True)
        claim = SimpleNamespace(cdf=d.cdf, guide=d.guide, guide_steps=steps)
        u = np.concatenate([self.hard_variates(d.cdf), generator(12).random(200)])
        start = d.guide[self.buckets(d, u)]
        one_step = start + (d.cdf[start] <= u)
        assert np.array_equal(_inverse_cdf(claim, u), one_step)
        assert not np.array_equal(one_step, np.searchsorted(d.cdf, u, side="right"))

    def test_guide_is_cached_read_only_and_defined_by_the_cdf(self):
        d = distribution(finest(5), [0.05, 0.0, 0.4, 0.25, 0.3])
        buckets = d.guide.size - 1
        assert d.guide is d.guide and d.guide.shape == (buckets + 1,)
        floors = np.floor(d.cdf * buckets)
        for j, start in enumerate(d.guide):
            assert start == min(g for g in range(5) if floors[g] >= j)
        assert d.guide_steps == max(np.diff(d.guide)) and isinstance(d.guide_steps, int)
        with pytest.raises(ValueError):
            d.guide[0] = 1

    def test_near_uniform_takes_one_step(self):
        # every probability above half the uniform share 1/k puts at most one CDF boundary in
        # each of the 2k buckets, so one step finds every group: the lookup needs no check
        rng = np.random.default_rng(23)
        for _ in range(300):
            k = int(rng.integers(1, 3000))
            w = 1.0 + rng.random(k) * rng.choice([1e-9, 0.5, 1.0])  # each above sum(w) / (2k)
            d = distribution(finest(k), w, normalize=True)
            assert d.weights.min() > 1 / (2 * k)
            assert d.guide_steps == (1 if k > 1 else 0)  # one group needs no step

    @pytest.mark.parametrize("seed", [0, 3, 5])
    def test_desk_fig1_plans_take_one_step(self, tmp_path, seed):
        for _, plan in _methods(ExperimentConfig(seed=seed), tmp_path):
            assert plan.distribution.guide_steps == 1


class TestSketchTrials:
    """A batch of trials equals one lone sketch per seed, bit for bit."""

    @staticmethod
    def plan(b_kind, zero_groups, shape=(5, 40)):
        rng = np.random.default_rng(41)
        m, n = shape
        a = dense(rng.random((m, n)) - 0.5)
        b = a.T if b_kind == "a.T" else dense(rng.random((n, 3)) - 0.5)
        part = random_coarsening(rng, n, max_groups=25) if zero_groups else finest(n)
        d = optimal_distribution(a, b, part)
        if zero_groups:  # every third group is never drawn
            w = d.weights.copy()
            w[::3] = 0.0
            d = distribution(part, w, normalize=True)
        return a, b, part, d

    @pytest.mark.parametrize("b_kind", ["a.T", "unrelated"])
    @pytest.mark.parametrize("c, zero_groups, shape", [
        pytest.param(1, False, (5, 40), id="1-False"), pytest.param(9, True, (5, 40), id="9-True"),
        pytest.param(5000, False, (5, 40), id="5000-False"), pytest.param(5000, True, (5, 40), id="5000-True"),
        # gather blocks: at m = 91 an estimate's rows are taken at most 546 at a time (6 * 91 rows,
        # more than 2**15 // 91) on the syrk and the GEMM path, and c = 50 000 draws every index, so
        # the distinct rows are exactly one block, one block + 1 (273 + 274) and three blocks
        pytest.param(50_000, False, (91, 546), id="block"),
        pytest.param(50_000, False, (91, 547), id="block+1"),
        pytest.param(50_000, False, (91, 1200), id="3-blocks")])
    @pytest.mark.parametrize("extra", [None, 0, 1])
    def test_each_trial_equals_a_lone_sketch(self, b_kind, c, zero_groups, shape, extra):
        # extra: None runs one trial, 0 exactly one block, 1 one block plus one
        # trial; c = 5000 is far above k <= 40 and gives blocks of 6 trials
        a, b, part, d = self.plan(b_kind, zero_groups, shape)
        if shape[0] == 91:
            assert _block_rows(a.T, b) == 546
        per_block = _trials_per_block(c, part.n)
        seeds = [derive_seed(c, t) for t in range(1 if extra is None else per_block + extra)]
        results = list(sketch_trials([(Plan(a, b, d), c, seeds)]))
        assert len(results) == len(seeds)
        for seed, res in zip(seeds, results):
            lone = sketch(a, b, part, d, SketchConfig(c, seed))
            assert res.estimate.tobytes() == lone.estimate.tobytes()
            assert res.counts.dtype == lone.counts.dtype == np.int64
            assert res.counts.tobytes() == lone.counts.tobytes()
            drawn = sample_indices(d, c, seed)
            assert np.array_equal(res.counts, np.bincount(drawn, minlength=part.k))
            assert not res.estimate.flags.writeable and not res.counts.flags.writeable
            if shape[0] == 91:
                assert np.count_nonzero(res.counts) == part.n
                if b_kind == "a.T":  # a sum of syrk blocks is still exactly symmetric
                    assert np.array_equal(res.estimate, res.estimate.T)
        if zero_groups:
            assert not any(res.counts[::3].any() for res in results)

    def test_blocks_follow_the_entry_budget(self, monkeypatch):
        a, b, part, d = self.plan("a.T", False)
        sizes, streams = [], []
        draw_block = sketching._draw_block

        def recording(stream, dist, c, seeds):
            sizes.append(len(seeds))
            streams.append(stream)
            return draw_block(stream, dist, c, seeds)

        monkeypatch.setattr(sketching, "_draw_block", recording)
        plan = Plan(a, b, d)
        assert len(list(sketch_trials([(plan, 5000, list(range(13)))]))) == 13
        assert sizes == [6, 6, 1]  # 2**15 // 5000
        sizes.clear()
        list(sketch_trials([(plan, 3, list(range(900)))]))
        assert sizes == [819, 81]  # 2**15 // n, n = 40
        # one row stream per call, shared by its blocks
        assert streams[0] is streams[1] is streams[2] is not streams[3] is streams[4]

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
        # the plans check themselves when built; the call checks that they share one (A, B) and each c
        a, b, part, d = self.plan("unrelated", False)
        plan = Plan(a, b, d)
        with pytest.raises(ValueError, match="partition covers 20 indices"):
            Plan(a, b, uniform(finest(20)))
        with pytest.raises(ValueError, match="mismatch"):
            Plan(a, dense(np.ones((3, 2))), d)
        with pytest.raises(ValueError, match="the first cell's matrices"):
            sketch_trials([(plan, 3, [1]), (Plan(a, dense(b.copy()), d), 3, [1])])
        # a second Plan(a, b, d) holds copies of its own; with_distribution shares the first plan's
        with pytest.raises(ValueError, match="build the others with its with_distribution"):
            sketch_trials([(plan, 3, [1]), (Plan(a, b, d), 3, [1])])
        assert len(list(sketch_trials([(plan, 3, [1]), (plan.with_distribution(d), 3, [1])]))) == 2
        with pytest.raises(ValueError, match=">= 1"):
            sketch_trials([(plan, 0, [1])])

    def test_cell_without_seeds_yields_nothing(self):
        a, b, part, d = self.plan("unrelated", False)
        plan = Plan(a, b, d)
        assert list(sketch_trials([])) == []
        assert list(sketch_trials([(plan, 3, [])])) == []
        results = list(sketch_trials([(plan, 3, [1, 2]), (plan, 9, []), (plan, 5, [4])]))
        assert [int(r.counts.sum()) for r in results] == [3, 3, 5]

    @pytest.mark.parametrize("bad", ["partition", "c", "matrices", "draws"])
    @pytest.mark.parametrize("where", [0, 2])
    def test_a_bad_plan_in_any_cell_raises_before_any_draw(self, monkeypatch, bad, where):
        # partition: a plan over another inner dimension, so on other matrices; matrices: a plan
        # on an equal copy of (A, B); draws: c past the draw-count bound
        a, b, part, d = self.plan("unrelated", False)
        cells = [(Plan(a, b, d), 3, [1, 2])] * 3
        if bad == "partition":
            cells[where] = (Plan(dense(a[:, :39]), dense(b[:39]), uniform(finest(39))), 3, [1])
        elif bad == "matrices":
            cells[where] = (Plan(dense(a.copy()), dense(b.copy()), d), 3, [1])
        else:
            cells[where] = (cells[where][0], 0 if bad == "c" else _MAX_DRAWS + 1, [1])
        draws = []
        monkeypatch.setattr(sketching, "_draw_block", lambda *args: draws.append(args))
        with pytest.raises(ValueError):
            sketch_trials(cells)
        assert draws == []

    @pytest.mark.parametrize("b_kind", ["a.T", "unrelated"])
    def test_several_cells_equal_a_lone_sketch_per_seed(self, b_kind):
        # three plans on one (A, B), the plan's copies, which with_distribution shares; the middle
        # cell spans two draw blocks (6 + 2 trials)
        a, b, part, d = self.plan(b_kind, False)
        coarse = random_coarsening(np.random.default_rng(42), 40, max_groups=25)
        base = Plan(a, b, d)
        cells = [(base, 7, [derive_seed(45, 0, t) for t in range(5)]),
                 (base.with_distribution(optimal_distribution(a, b, coarse)), 5000,
                  [derive_seed(45, 1, t) for t in range(8)]),
                 (base.with_distribution(uniform(part)), 1, [derive_seed(45, 2, t) for t in range(3)])]
        results = sketch_trials(cells)
        for plan, c, seeds in cells:
            for seed in seeds:
                d = plan.distribution
                res, lone = next(results), sketch(a, b, d.support, d, SketchConfig(c, seed))
                assert res.estimate.tobytes() == lone.estimate.tobytes()
                assert res.counts.tobytes() == lone.counts.tobytes()
        assert next(results, None) is None

    def test_later_cells_are_drawn_lazily(self, monkeypatch):
        a, b, part, d = self.plan("a.T", False)
        drawn = []
        draw_block = sketching._draw_block

        def recording(stream, dist, c, seeds):
            drawn.append(c)
            return draw_block(stream, dist, c, seeds)

        monkeypatch.setattr(sketching, "_draw_block", recording)
        plan = Plan(a, b, d)
        results = sketch_trials([(plan, 3, [1, 2]), (plan, 5, [3]), (plan, 7, [4])])
        assert drawn == []
        next(results)
        assert drawn == [3]
        assert len(list(results)) == 3 and drawn == [3, 5, 7]


class TestPanelKernel:
    """Every estimate, gathered as rows of one Aᵀ panel, against the column-gather kernel
    it replaced, within the forward-error bound of two orders of the same sums."""

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 120), st.integers(1, 2500), st.integers(1, 3000),
           st.sampled_from(["view", "copy", "near", "other"]), st.booleans())
    @example(0, 7, 30, 1, "view", False)  # K = 1, syrk
    @example(1, 7, 30, 1, "copy", True)  # K = 1, syrk on a copy of Aᵀ
    @example(1, 7, 30, 1, "near", True)  # K = 1, GEMM on a B of Aᵀ's shape
    @example(2, 1, 300, 500, "view", False)  # m = 1
    @example(3, 1, 300, 500, "copy", False)
    @example(3, 1, 300, 500, "near", False)
    @example(4, 100, 2000, 3000, "view", False)  # the paper shape
    # m = 91: blocks of at most 546 rows on either path, and c = 50 000 draws every index, so the
    # distinct rows are exactly one block, one block + 1 and three blocks
    @example(5, 91, 546, 50_000, "view", False)
    @example(6, 91, 546, 50_000, "copy", False)
    @example(7, 91, 547, 50_000, "view", False)
    @example(8, 91, 547, 50_000, "copy", False)
    @example(8, 91, 547, 50_000, "near", False)
    @example(9, 91, 1200, 50_000, "view", False)
    @example(10, 91, 1200, 50_000, "copy", False)
    def test_within_gemm_bound_of_the_column_gather_kernel(self, seed, m, n, c, b_kind, coarse):
        # a copy holding Aᵀ's bits is Aᵀ: the Gram kernel, with the bits of the view itself; a B
        # of Aᵀ's shape one ulp off in one entry ("near") keeps its own array and GEMM
        rng = np.random.default_rng(seed)
        a = dense(rng.random((m, n)) - 0.5)
        b = {"view": a.T, "copy": dense(a.T.copy()), "near": a.T.copy(),
             "other": dense(rng.random((n, int(rng.integers(1, 6)))) - 0.5)}[b_kind]
        if b_kind == "near":
            b[n // 2, m // 2] = np.nextafter(b[n // 2, m // 2], 1.0)
            b = dense(b)
        kernel_b = a.T if b_kind == "copy" else b  # the B the plan holds
        part = random_coarsening(rng, n, max_groups=n // 2 + 1) if coarse and n > 1 else finest(n)
        d = optimal_distribution(a, b, part)
        plan = Plan(a, b, d)
        assert _is_transpose(plan.a, plan.b) == (b_kind in ("view", "copy"))
        seeds = [derive_seed(seed, t) for t in range(3)]
        results = list(sketch_trials([(plan, c, seeds)]))
        for trial_seed, res in zip(seeds, results, strict=True):
            s = scale_vector(part, d, sample_indices(d, c, trial_seed))
            idx = np.flatnonzero(s)
            reference = column_gather_product(a, kernel_b, idx, s[idx])
            assert np.all(np.abs(res.estimate - reference) <= kernel_error_bound(a, kernel_b, idx, s[idx]))
        if b_kind == "copy":
            view = sketch_trials([(Plan(a, a.T, d), c, seeds)])
            assert [r.estimate.tobytes() for r in view] == [r.estimate.tobytes() for r in results]


class TestMemoryLayout:
    """A column-major A, whose ``Aᵀ`` panel is a view, gives what the same values held row-major
    give, both through a plan's column-major copy and on the paths that take the caller's A with
    no copy (``optimal_distribution``, its ``_weights``, ``sketch``), and the one gather buffer
    per call gives what a fresh gather gives and does not grow with n."""

    @staticmethod
    def cells(a, b, part, d):
        """Cells of one plan's matrices: ``Plan(a, b, d)`` and its ``with_distribution`` of ``d``."""
        base = Plan(a, b, d)
        plans = [base, base.with_distribution(d), base]
        return [(plan, c, [derive_seed(47, c, t) for t in range(trials)])
                for plan, (c, trials) in zip(plans, ((7, 5), (3000, 12), (1, 3)))]

    @staticmethod
    def layouts():
        """One A held row-major and column-major, a B unrelated to it, and a partition of 50.

        Columns 0 and 1 of A are equal and rows 0 and 1 of B nearly opposite, so the pair
        {0, 1} of ``a @ b`` nearly cancels.
        """
        rng = np.random.default_rng(47)
        values, other = rng.random((6, 50)) - 0.5, rng.random((50, 4)) - 0.5
        values[:, 1] = values[:, 0]
        other[1] = -(1 + 2.0**-30) * other[0]
        a_c = dense(values)
        a_f = np.asfortranarray(a_c)
        assert a_f.flags.f_contiguous and not a_f.flags.c_contiguous
        return a_c, a_f, dense(other), random_coarsening(rng, 50, max_groups=30)

    @pytest.mark.parametrize("b_kind", ["a.T", "other"])
    @pytest.mark.parametrize("size", [1, 2, 10])
    def test_plans_do_not_depend_on_the_layout_of_a(self, b_kind, size):
        # groups of `size` consecutive indices: the finest partition, pairs by the Gram identity
        # (for the other B, the nearly cancelled pair {0, 1} from its block) and groups of 10,
        # past sqrt(m rho), from their blocks
        a_c, a_f, other, _ = self.layouts()
        b = {"a.T": lambda a: a.T, "other": lambda a: other}[b_kind]
        part = coarsen([range(lo, min(lo + size, 50)) for lo in range(0, 50, size)], 50)
        plan_c, plan_f = optimal_plan(a_c, b(a_c), part), optimal_plan(a_f, b(a_f), part)
        assert plan_c.weights.tobytes() == plan_f.weights.tobytes()
        assert plan_c.distribution.weights.tobytes() == plan_f.distribution.weights.tobytes()
        # the no-copy paths, on the caller's A as it is held
        assert _weights(a_c, b(a_c), part).tobytes() == plan_c.weights.tobytes()
        assert _weights(a_f, b(a_f), part).tobytes() == plan_c.weights.tobytes()
        for a in (a_c, a_f):
            assert optimal_distribution(a, b(a), part).weights.tobytes() == plan_c.distribution.weights.tobytes()

    @pytest.mark.parametrize("b_kind", ["a.T", "other"])
    def test_estimates_do_not_depend_on_the_layout_of_a(self, b_kind):
        a_c, a_f, other, part = self.layouts()
        b = {"a.T": lambda a: a.T, "other": lambda a: other}[b_kind]
        d = optimal_distribution(a_c, b(a_c), part)
        cells = self.cells(a_c, b(a_c), part, d)
        seeds = [(c, seed) for _, c, cell_seeds in cells for seed in cell_seeds]
        for res_c, res_f, (c, seed) in zip(sketch_trials(cells), sketch_trials(self.cells(a_f, b(a_f), part, d)),
                                           seeds, strict=True):
            assert res_c.estimate.tobytes() == res_f.estimate.tobytes()
            assert res_c.counts.tobytes() == res_f.counts.tobytes()
            for a in (a_c, a_f):  # sketch's own plan holds the caller's A as it is held, with no copy
                assert sketch(a, b(a), part, d, SketchConfig(c, seed)).estimate.tobytes() == res_c.estimate.tobytes()

    @pytest.mark.parametrize("h_path, b_kind", [pytest.param(True, "a.T", id="True"),
                                                 pytest.param(False, "a.T", id="False"),
                                                 pytest.param(False, "other", id="other")])
    def test_errors_of_b_at_do_not_depend_on_the_layout_of_a(self, monkeypatch, h_path, b_kind):
        # B = Aᵀ, as in every experiment, on the H path and past H's cap, and an unrelated B past
        # the cap, where the exact a @ b is taken from the plan's column-major copy for either layout
        a_c, a_f, other, part = self.layouts()
        b = {"a.T": lambda a: a.T, "other": lambda a: other}[b_kind]
        d = optimal_distribution(a_c, b(a_c), part)
        if not h_path:
            monkeypatch.setattr(sketching, "_ERROR_FORM_ENTRIES", 0)
        for err_c, err_f in zip(frobenius_errors(self.cells(a_c, b(a_c), part, d)),
                                frobenius_errors(self.cells(a_f, b(a_f), part, d)), strict=True):
            assert err_c.tobytes() == err_f.tobytes()

    @pytest.mark.parametrize("call", ["sketch_trials", "sketch_from_draws"])
    @pytest.mark.parametrize("b_kind", ["a.T", "other"])
    def test_wide_a_gathers_through_a_block_sized_buffer(self, call, b_kind):
        # a column-major 40 x 100 000 A at c = n: ~63 000 distinct rows, gathered 819 at a time
        # (2**15 // 40), so beyond its inputs and outputs the call holds far less than A's payload
        rng = np.random.default_rng(49)
        values = rng.random((100_000, 40))
        values -= 0.5
        a = values.T  # column-major, as the plan's copy of it is
        b = a.T if b_kind == "a.T" else dense(rng.random((100_000, 3)) - 0.5)
        part = finest(100_000)
        plan = Plan(a, b, uniform(part))
        seed = derive_seed(49, b_kind)
        draws = sample_indices(plan.distribution, part.n, seed)
        tracemalloc.start()
        try:
            if call == "sketch_trials":
                [res] = sketch_trials([(plan, part.n, [seed])])
            else:
                res = sketch_from_draws(plan, draws)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.count_nonzero(res.counts) > 60_000
        assert peak - res.estimate.nbytes - res.counts.nbytes < a.nbytes / 2

    @pytest.mark.parametrize("gram", [True, False])
    def test_gather_into_a_reused_buffer_is_the_fresh_gather(self, gram):
        rng = np.random.default_rng(48)
        a = dense(rng.random((9, 300)) - 0.5)
        b = a.T if gram else dense(rng.random((300, 5)) - 0.5)
        panel = np.ascontiguousarray(a.T)
        rows = np.full_like(panel, np.nan)  # stale rows must never be read
        for size in (300, 170, 1, 240):  # the buffer whole, then shorter and longer prefixes
            idx = np.sort(rng.choice(300, size, replace=False))
            scale = rng.random(size) + 0.1
            x = panel[idx] * (np.sqrt(scale) if gram else scale)[:, None]
            fresh = x.T @ (x if gram else b[idx])
            assert _scaled_product(panel, b, idx, scale, gram, rows[:size]).tobytes() == fresh.tobytes()


class TestFrobeniusErrors:
    """``uᵀHu`` against the squared error of the estimate each seed's sketch forms.

    The cost rule would send most of these small shapes to the estimates, so the tests of
    the ``uᵀHu`` path take it by ``form_path_errors``."""

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
        [errs] = form_path_errors([(Plan(a, b, d), c, seeds)])
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
        d = optimal_distribution(a, b, part) if optimal else uniform(part)
        c = 7
        [errs] = form_path_errors([(Plan(a, b, d), c, [derive_seed(43, t) for t in range(4000)])])
        stderr = errs.std(ddof=1) / np.sqrt(errs.size)
        assert abs(errs.mean() - expected_frobenius_error_sq(a, b, part, d, c)) <= 5 * stderr

    def test_error_form_and_plan_checks(self, monkeypatch):
        # the H kernel's errors are uᵀHu, H = (AᵀA) ∘ (BBᵀ), of the u = 1 - s rows it draws
        a, b, part, d = TestSketchTrials.plan("unrelated", False)
        plan = Plan(a, b, d)
        rows, form_rows = [], sketching._form_rows
        monkeypatch.setattr(sketching, "_form_rows",
                            lambda cells, n: (rows.append(u.copy()) or u for u in form_rows(cells, n)))
        [errors] = frobenius_errors([(plan, 7, list(range(5)))])
        u = np.vstack(rows)
        h = (a.T @ a) * (b @ b.T)
        assert u.shape == (5, 40) and errors == pytest.approx(np.einsum("ti,ij,tj->t", u, h, u), rel=1e-10)
        with pytest.raises(ValueError, match="mismatch"):
            Plan(a, dense(np.ones((3, 2))), d)
        with pytest.raises(ValueError, match="the first cell's matrices"):
            frobenius_errors([(plan, 3, [1]), (Plan(a, dense(b.copy()), d), 3, [1])])
        with pytest.raises(ValueError, match="partition covers 20 indices"):
            Plan(a, b, uniform(finest(20)))
        with pytest.raises(ValueError, match=">= 1"):
            frobenius_errors([(plan, 0, [1])])

    def test_cell_without_seeds_gives_an_empty_array(self, monkeypatch):
        a, b, part, d = TestSketchTrials.plan("unrelated", False)
        plan = Plan(a, b, d)
        for cap in (sketching._ERROR_FORM_ENTRIES, 0):  # both kernels: H fits, then H past its cap
            monkeypatch.setattr(sketching, "_ERROR_FORM_ENTRIES", cap)
            assert frobenius_errors([]) == []
            [empty] = frobenius_errors([(plan, 3, [])])
            assert empty.shape == (0,)
            first, empty, last = frobenius_errors([(plan, 3, [1, 2]), (plan, 9, []), (plan, 3, [4])])
            assert (first.shape, empty.shape, last.shape) == ((2,), (0,), (1,))

    @pytest.mark.parametrize("bad", ["partition", "c", "matrices", "draws"])
    @pytest.mark.parametrize("where", [0, 2])
    def test_a_bad_plan_in_any_cell_raises_before_any_draw(self, monkeypatch, bad, where):
        # partition: a plan over another inner dimension, so on other matrices; matrices: a plan
        # on an equal copy of (A, B); draws: c past the draw-count bound
        a, b, part, d = TestSketchTrials.plan("unrelated", False)
        cells = [(Plan(a, b, d), 3, [1, 2])] * 3
        if bad == "partition":
            cells[where] = (Plan(dense(a[:, :39]), dense(b[:39]), uniform(finest(39))), 3, [1])
        elif bad == "matrices":
            cells[where] = (Plan(dense(a.copy()), dense(b.copy()), d), 3, [1])
        else:
            cells[where] = (cells[where][0], 0 if bad == "c" else _MAX_DRAWS + 1, [1])
        draws = []
        monkeypatch.setattr(sketching, "_draw_block", lambda *args: draws.append(args))
        with pytest.raises(ValueError):
            frobenius_errors(cells)
        assert draws == []

    @pytest.mark.parametrize("b_kind", ["a.T", "unrelated"])
    def test_direct_path_is_the_squared_error_of_each_estimate(self, monkeypatch, b_kind):
        # past H's cap, an error is sum(square(a @ b - estimate)) of sketch_trials' trial, to the bit,
        # with a @ b of the plan's column-major copy of A, as an experiment holds it (TestMemoryLayout:
        # a row-major A gives the same)
        a, b, part, d = TestSketchTrials.plan(b_kind, True)
        base = Plan(a, b, d)
        a, b = base.a, base.b
        assert a.flags.f_contiguous and _is_transpose(a, b) == (b_kind == "a.T")
        cells = [(base, 7, [derive_seed(46, 0, t) for t in range(9)]),
                 (base.with_distribution(uniform(part)), 5000, [derive_seed(46, 1, t) for t in range(8)])]
        monkeypatch.setattr(sketching, "_ERROR_FORM_ENTRIES", 0)  # no H fits
        monkeypatch.setattr(sketching, "_form_rows", None)  # the H path would call it
        errors = frobenius_errors(cells)
        results = sketch_trials(cells)
        for (_, _, seeds), errs in zip(cells, errors):
            want = [np.sum(np.square(multiply(a, b) - next(results).estimate)) for _ in seeds]
            assert errs.tobytes() == np.array(want).tobytes()

    def test_cells_straddling_gemm_chunks_match_the_direct_error(self):
        # 20 + 0 + 150 + 7 trials: the third cell fills the first 128-row GEMM
        # and spills into the second, in draw blocks of 6 trials at c = 5000
        rng = np.random.default_rng(44)
        a = dense(rng.random((5, 40)) - 0.5)
        b = dense(rng.random((40, 3)) - 0.5)
        part = random_coarsening(rng, 40, max_groups=25)
        base = Plan(a, b, optimal_distribution(a, b, finest(40)))
        plans = [base, base.with_distribution(optimal_distribution(a, b, part)), base.with_distribution(uniform(part))]
        cells = [(plans[0], 7, [derive_seed(44, 0, t) for t in range(20)]),
                 (plans[1], 3, []),
                 (plans[1], 5000, [derive_seed(44, 2, t) for t in range(150)]),
                 (plans[2], 1, [derive_seed(44, 3, t) for t in range(7)])]
        assert sum(len(seeds) for *_, seeds in cells) > _FORM_ROWS > 20
        assert _trials_per_block(5000, 40) == 6
        errors = form_path_errors(cells)
        assert [e.shape for e in errors] == [(20,), (0,), (150,), (7,)]
        for (plan, c, seeds), errs in zip(cells, errors):
            direct, bounds = direct_errors_and_bounds(a, b, plan.distribution.support, plan.distribution, c, seeds)
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
        for result in sketch_trials([(Plan(a, b, d), 2, derive_seeds(77, (), trials))]):
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
        plan = Plan(a, b, d)
        expected = next(sketch_trials([(plan, c, [seed])]))
        result = sketch_from_draws(plan, sample_indices(d, c, seed))
        assert result.estimate.tobytes() == expected.estimate.tobytes()
        assert np.array_equal(result.counts, expected.counts)

    @pytest.mark.parametrize("draws, match", [
        (np.array([], dtype=np.int64), "sample count"),
        (np.array([0, 4]), "group indices"),
        (np.array([0.0, 1.0]), "group indices"),
        (np.array([0, 1]), "probability 0"),
        (np.array([[0, 2]]), "group indices"),
        (np.array(0), "group indices"),
    ])
    def test_rejects_invalid_draws(self, draws, match):
        a, b = small_instance()
        part = coarsen([[0, 1], [2], [3]], 4)
        d = distribution(part, [0.5, 0.0, 0.5])
        with pytest.raises(ValueError, match=match):
            sketch_from_draws(Plan(a, b, d), draws)


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
        # _is_transpose is a buffer test: a.T itself, not an equal copy, not the transpose of
        # another matrix with a's shape and strides, not a's bytes read as another dtype, and
        # not a nested list.  The intake then makes a copy holding Aᵀ's bits a.T, so it takes
        # the Gram kernel with the view's bits; the transpose of another matrix takes GEMM.
        a, d = self.instance()
        part = finest(700)
        copy = dense(a.T.copy())
        other = dense(np.random.default_rng(32).random(a.shape) - 0.5)
        assert _is_transpose(a, a.T)
        assert not _is_transpose(a, copy) and not _is_transpose(a, other.T)
        assert not _is_transpose(a, a.view(np.int64).T) and not _is_transpose(a.T.tolist(), a)
        square = dense(np.eye(3))
        assert not _is_transpose(square, square) and _is_transpose(square.T, square)
        pa, pb = _pair(a, copy)
        assert pa is a and _is_transpose(pa, pb) and not _is_transpose(*_pair(a, other.T))
        cfg = SketchConfig(900, 4)
        gram = sketch(a, a.T, part, d, cfg)
        assert sketch(a, copy, part, d, cfg).estimate.tobytes() == gram.estimate.tobytes()
        d_other = optimal_distribution(a, other.T, part)
        res = sketch(a, other.T, part, d_other, cfg)
        assert np.all(np.abs(res.estimate - loop_sketch(a, other.T, part, d_other, cfg))
                      <= gemm_error_bound(a, scale_vector(part, d_other, sample_indices(d_other, 900, 4)),
                                          other.T))

    def test_a_copy_of_the_transpose_is_one_array(self):
        # optimal_plan(x, x.T.copy()) holds one copy, and its trials are (x, x.T)'s bit for bit
        x, _ = self.instance()
        part = random_coarsening(np.random.default_rng(33), 700, max_groups=300)
        plan, view = optimal_plan(x, x.T.copy(), part), optimal_plan(x, x.T, part)
        assert np.shares_memory(plan.a, plan.b) and _is_transpose(plan.a, plan.b)
        assert plan.weights.tobytes() == view.weights.tobytes()
        seeds = [derive_seed(33, t) for t in range(4)]
        first, second = ([r.estimate.tobytes() for r in sketch_trials([(p, 90, seeds)])] for p in (plan, view))
        assert first == second

    def test_a_signed_zero_keeps_its_own_b(self, monkeypatch):
        # B equal to Aᵀ but for one -0.0 in place of a 0.0 is not Aᵀ bit for bit: it keeps its
        # own array and takes GEMM, within the Gram kernel's bound of the Aᵀ estimate
        a, _ = self.instance()
        z = a.copy()
        z[3, 5] = 0.0
        z = dense(z)
        signed = z.T.copy()
        signed[5, 3] = -0.0
        part = finest(700)
        plan = optimal_plan(z, signed, part)
        assert not np.shares_memory(plan.a, plan.b) and not _is_transpose(plan.a, plan.b)
        assert np.signbit(plan.b[5, 3])
        cfg = SketchConfig(900, 4)
        gram = sketch(z, z.T, part, plan.distribution, cfg)
        calls = []  # the gram flag of every _scaled_product call

        def spy(*args):
            calls.append(args[4])
            return _scaled_product(*args)

        monkeypatch.setattr(sketching, "_scaled_product", spy)
        gemm = sketch(z, signed, part, plan.distribution, cfg)
        assert calls == [False]
        s = scale_vector(part, plan.distribution, sample_indices(plan.distribution, 900, 4))
        assert np.all(np.abs(gram.estimate - gemm.estimate) <= gram_error_bound(z, s))


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
