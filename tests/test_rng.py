import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from partsketch import (ConfigError, ExperimentConfig, Plan, PairingStrategy, SketchConfig, binomial_cdf, dense,
                        derive_seed, derive_seeds, expected_frobenius_error_sq, finest, frobenius_errors,
                        min_draw_threshold, optimal_distribution, sample_indices, sketch_trials,
                        tail_bound_value, uniform_spectral_bound)
from partsketch import rng
from partsketch.rng import RowStream, _check_count, generator, philox_key
from helpers import distribution

path_parts = st.one_of(st.integers(-2**70, 2**70), st.text(max_size=6),
                       st.sampled_from(["fig1", "fig2", "finest", "pairwise-enhanced"]))
master_seeds = st.one_of(st.sampled_from([0, 2**64 - 1, -1, 2**63]), st.integers(-2**80, 2**80))


class TestDeriveSeed:
    @pytest.mark.parametrize("args, key", [
        ((0, "matrix"), 12987823703929242902),
        ((7, "fig1", "finest", 250, 3), 4621898950718602710),
        ((0, "pairing"), 11814833751473505958),
    ])
    def test_known_answers(self, args, key):
        # pins the encoding: BLAKE2b-64 of the JSON list [master, *path], little-endian
        assert derive_seed(*args) == key

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(master_seeds, st.lists(path_parts, max_size=4))
    @example(2**64, [])
    def test_key_properties(self, master, path):
        key = derive_seed(master, *path)
        assert 0 <= key < 2**64
        assert derive_seed(master, *path, np.int64(3)) == derive_seed(master, *path, 3)
        assert derive_seed(master, *path, "3") != derive_seed(master, *path, 3)
        assert derive_seed(master, *path, 1, 23) != derive_seed(master, *path, 12, 3)
        assert derive_seed(master, *path, 2**64) != derive_seed(master, *path, 0)


class TestDeriveSeeds:
    # NumPy ints, labels JSON must escape (quotes, backslashes, non-ASCII)
    parts = st.one_of(path_parts, st.integers(-2**63, 2**63 - 1).map(np.int64),
                      st.integers(0, 2**64 - 1).map(np.uint64), st.text(alphabet='"\\/aü€\n\x00', max_size=5))

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.one_of(master_seeds, st.integers(-2**63, 2**63 - 1).map(np.int64)),
           st.lists(parts, max_size=4), st.integers(0, 12))
    @example(-1, ['say "hi"', "naïve €", np.int64(-5), np.uint64(2**64 - 1)], 3)
    @example(2**70, [], 2)
    @example(-2**70, ["fig1", "pairwise-enhanced", 250], 11)
    def test_key_t_is_derive_seed_of_the_path_and_t(self, master, path, count):
        keys = derive_seeds(master, tuple(path), count)
        assert keys == [derive_seed(master, *path, t) for t in range(count)]


class TestSeedParts:
    """A master seed is any integer and a label an integer or a string; a bool, a float or any
    other part raises before anything is hashed, instead of aliasing an integer or its ``str``."""

    @pytest.mark.parametrize("args", [(True, "x"), (np.bool_(True), "x"), (1.0, "x"), ("1", "x"), (1, 2.5),
                                      (1, "x", np.float64(1.0)), (1, True), (1, np.bool_(False)), (1, None)],
                             ids=["bool-master", "numpy-bool-master", "float-master", "str-master", "float-label",
                                  "numpy-float-label", "bool-label", "numpy-bool-label", "None-label"])
    def test_bools_floats_and_other_parts_raise_before_hashing(self, monkeypatch, args):
        hashed = []
        monkeypatch.setattr(rng, "_key", lambda text: hashed.append(text))
        with pytest.raises(ValueError, match="must be an integer|must be integers or strings"):
            derive_seed(*args)
        with pytest.raises(ValueError, match="must be an integer|must be integers or strings"):
            derive_seeds(args[0], args[1:], 2)
        assert hashed == []

    def test_any_integer_is_a_master_seed(self):
        assert derive_seed(np.int64(7), "x") == derive_seed(7, "x")
        keys = {derive_seed(seed, "x") for seed in (-3, 0, 2**64 - 1, 2**64, -2**70)}
        assert len(keys) == 5


class TestUniformRows:
    @pytest.mark.parametrize("c", [1, 3, 5, 8])
    def test_rows_match_fresh_generators(self, c):
        # a row that leaves part of Philox's 4-word buffer unread must not
        # hand it to the next row
        seeds = [0, 2**63 - 1, 2**63, 2**64 - 1, 0]
        block = RowStream().rows(seeds, c)
        assert block.shape == (len(seeds), c)
        for row, seed in zip(block, seeds):
            assert np.array_equal(row, generator(seed).random(c))

    def test_stream_is_the_one_row_case(self):
        # sample_indices reads one row: draw i is the group of generator(seed)'s i-th variate
        d = distribution(finest(5), [0.1, 0.3, 0.0, 0.4, 0.2])
        assert np.array_equal(sample_indices(d, 7, 9), np.searchsorted(d.cdf, generator(9).random(7), side="right"))

    def test_one_stream_reused_across_calls(self):
        # every call after the first starts where the last row left Philox's 4-word
        # buffer partly read (c = 1, 3, 5): the stream's rows must not see it
        stream = RowStream()
        seeds = [0, 2**63 - 1, 2**63, 2**64 - 1]
        for c in (1, 3, 5, 8, 1, 8, 3):
            block = stream.rows(seeds, c)
            assert block.shape == (len(seeds), c)
            for row, seed in zip(block, seeds):
                assert np.array_equal(row, generator(seed).random(c))
        assert stream.rows([], 4).shape == (0, 4)


BAD_SEEDS = [-1, 2**64, 1.5, True, np.float64(3.0)]


def refused(seed):
    return pytest.raises(ValueError, match=re.escape(f"seed must be in [0, 2**64 - 1], got {seed}"))


class TestPhiloxKey:
    """Every seed becomes a Philox key through ``philox_key``: a Python or NumPy integer, not a
    bool, in [0, 2**64) is its own key, and any other seed is refused, never wrapped or truncated."""

    @staticmethod
    def plan():
        a = dense(np.random.default_rng(5).random((3, 6)) - 0.5)
        return Plan(a, a.T, optimal_distribution(a, a.T, finest(6)))

    @pytest.mark.parametrize("seed", [0, 2**64 - 1, np.uint64(2**64 - 1), np.int64(7), np.uint8(3)])
    def test_integer_seeds_are_their_own_key(self, seed):
        key = philox_key(seed)
        assert type(key) is int and key == int(seed)

    @pytest.mark.parametrize("seed", [*BAD_SEEDS, np.bool_(True), "1", None, -2**64])
    def test_key_rule_refuses(self, seed):
        with refused(seed):
            philox_key(seed)

    @pytest.mark.parametrize("seed", BAD_SEEDS)
    def test_every_entry_point_refuses(self, seed):
        plan = self.plan()
        for call in (lambda: sample_indices(plan.distribution, 4, seed),
                     lambda: SketchConfig(4, seed),
                     lambda: generator(seed),
                     lambda: RowStream().rows([0, seed], 4),
                     lambda: PairingStrategy("random", seed)):
            with refused(seed):
                call()

    @pytest.mark.parametrize("call", [sketch_trials, frobenius_errors])
    @pytest.mark.parametrize("seed", BAD_SEEDS)
    def test_trials_refuse_a_bad_seed_before_any_draw(self, monkeypatch, call, seed):
        def no_draw(self, seeds, count):
            raise AssertionError("drew before every seed was checked")

        monkeypatch.setattr(RowStream, "rows", no_draw)
        plan = self.plan()
        with refused(seed):
            call([(plan, 3, [1, 2]), (plan, 5, [3, seed, 4])])

    def test_top_key_as_python_or_numpy_integer_draws_the_same(self):
        plan = self.plan()
        top, top_np = 2**64 - 1, np.uint64(2**64 - 1)
        assert np.array_equal(sample_indices(plan.distribution, 40, top),
                              sample_indices(plan.distribution, 40, top_np))
        assert np.array_equal(generator(top).random(9), generator(top_np).random(9))
        plain, numpy_ = sketch_trials([(plan, 40, [top, top_np])])
        assert plain.estimate.tobytes() == numpy_.estimate.tobytes()
        assert np.array_equal(plain.counts, numpy_.counts)
        assert np.array_equal(plain.counts, np.bincount(sample_indices(plan.distribution, 40, top), minlength=6))


def expected_error(c):
    plan = TestPhiloxKey.plan()
    return expected_frobenius_error_sq(plan.a, plan.b, plan.distribution.support, plan.distribution, c)


def spectral_bound(c=3, k=4, s_c=2):
    plan = TestPhiloxKey.plan()
    return uniform_spectral_bound(plan.a, plan.b, c, k, s_c)


# (entry point, lowest count it takes, call on one count, error for a refused count)
COUNT_ENTRY_POINTS = [
    ("SketchConfig", 1, lambda c: SketchConfig(c, 0), ValueError),
    ("sample_indices", 1, lambda c: sample_indices(TestPhiloxKey.plan().distribution, c, 0), ValueError),
    ("sketch_trials", 1, lambda c: list(sketch_trials([(TestPhiloxKey.plan(), c, [0])])), ValueError),
    ("expected_frobenius_error_sq", 1, expected_error, ValueError),
    ("tail_bound_value", 1, lambda c: tail_bound_value(1.0, 1.0, 5.0, c, 0.5), ValueError),
    # s_c = 2 draws on one group need c >= 2 draws in all
    ("uniform_spectral_bound", 2, spectral_bound, ValueError),
    ("uniform_spectral_bound-k", 1, lambda k: spectral_bound(k=k), ValueError),
    ("uniform_spectral_bound-s_c", 2, lambda s_c: spectral_bound(s_c=s_c), ValueError),
    ("binomial_cdf", 1, lambda n: binomial_cdf(1, n, 0.5), ValueError),
    ("min_draw_threshold-c", 2, lambda c: min_draw_threshold(c, 3), ValueError),
    ("min_draw_threshold-k", 1, lambda k: min_draw_threshold(10, k), ValueError),
    ("derive_seeds", 0, lambda count: derive_seeds(0, ("x",), count), ValueError),
    ("finest", 1, finest, ValueError),
    # c_max is taken with c_min = 1, so that c_max = 1 leaves a grid to run
    *((f"ExperimentConfig-{name}", 2 if name == "cols" else 1,
       lambda v, name=name: ExperimentConfig(**{name: v}, **({"c_min": 1} if name == "c_max" else {})), ConfigError)
      for name in ("rows", "cols", "c_min", "c_max", "c_step", "trials", "runs")),
    ("ExperimentConfig-fig2_c", 1, lambda c: ExperimentConfig(fig2_c=(c,)), ConfigError),
]


class TestCountRule:
    """Every integer count passes ``_check_count``: a Python or NumPy integer, not a bool, at
    least the entry point's lowest count; anything else raises before any work."""

    def test_the_rule(self):
        assert type(_check_count(np.int64(3), "widgets")) is int and _check_count(np.uint8(0), "widgets", 0) == 0
        with pytest.raises(ValueError, match=re.escape("widgets must be an integer >= 1, got 0")):
            _check_count(0, "widgets")

    @pytest.mark.parametrize("name, lo, call, error", COUNT_ENTRY_POINTS, ids=[e[0] for e in COUNT_ENTRY_POINTS])
    @pytest.mark.parametrize("bad", ["bool", "numpy-bool", "float", "numpy-float", "below"])
    def test_every_entry_point_refuses(self, name, lo, call, error, bad):
        value = {"bool": True, "numpy-bool": np.bool_(True), "float": 2.5, "numpy-float": np.float64(2.0),
                 "below": lo - 1}[bad]
        with pytest.raises(error) as info:
            call(value)
        assert str(info.value).endswith(f", got {value!r}")

    @pytest.mark.parametrize("name, lo, call, error", COUNT_ENTRY_POINTS, ids=[e[0] for e in COUNT_ENTRY_POINTS])
    def test_every_entry_point_takes_a_numpy_integer(self, name, lo, call, error):
        call(np.int64(lo))

    @pytest.mark.parametrize("bad", [True, np.bool_(True), 2.5, np.float64(2.0)])
    def test_binomial_cdf_bound_is_an_integer(self, bad):
        # not a count: any sign is a bound, a negative one giving 0
        with pytest.raises(ValueError, match=re.escape(f"s must be an integer, got {bad!r}")):
            binomial_cdf(bad, 5, 0.5)
        assert binomial_cdf(np.int64(-3), 5, 0.5) == 0.0 and binomial_cdf(np.int64(5), 5, 0.5) == 1.0
