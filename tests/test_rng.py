import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from partsketch import derive_seed, derive_seeds, finest, sample_indices
from partsketch.rng import RowStream, generator
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
    # NumPy ints and bools, labels JSON must escape (quotes, backslashes, non-ASCII)
    parts = st.one_of(path_parts, st.integers(-2**63, 2**63 - 1).map(np.int64),
                      st.booleans(), st.booleans().map(np.bool_), st.text(alphabet='"\\/aü€\n\x00', max_size=5))

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.one_of(master_seeds, st.integers(-2**63, 2**63 - 1).map(np.int64)),
           st.lists(parts, max_size=4), st.integers(0, 12))
    @example(-1, ['say "hi"', "naïve €", np.int64(-5), np.bool_(True), True], 3)
    @example(2**70, [], 2)
    @example(-2**70, ["fig1", "pairwise-enhanced", 250], 11)
    def test_key_t_is_derive_seed_of_the_path_and_t(self, master, path, count):
        keys = derive_seeds(master, tuple(path), count)
        assert keys == [derive_seed(master, *path, t) for t in range(count)]


class TestUniformRows:
    @pytest.mark.parametrize("c", [1, 3, 5, 8])
    def test_rows_match_fresh_generators(self, c):
        # a row that leaves part of Philox's 4-word buffer unread must not
        # hand it to the next row
        seeds = [0, -1, 2**63, 2**64 - 1, 0]
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
        seeds = [0, -1, 2**63, 2**64 - 1]
        for c in (1, 3, 5, 8, 1, 8, 3):
            block = stream.rows(seeds, c)
            assert block.shape == (len(seeds), c)
            for row, seed in zip(block, seeds):
                assert np.array_equal(row, generator(seed).random(c))
        assert stream.rows([], 4).shape == (0, 4)
