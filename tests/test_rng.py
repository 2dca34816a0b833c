import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from partsketch import derive_seed, derive_seeds
from partsketch import rng

path_parts = st.one_of(st.integers(-2**70, 2**70), st.text(max_size=6),
                       st.sampled_from(["fig1", "fig2", "finest", "pairwise-enhanced"]))
master_seeds = st.one_of(st.sampled_from([0, 2**64 - 1, -1, 2**63]), st.integers(-2**80, 2**80))


class TestDeriveSeeds:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(master_seeds, st.lists(path_parts, max_size=5), st.integers(0, 70))
    @example(0, [], 0)
    @example(0, [], 1)
    @example(2**64 - 1, ["fig1", "finest", 250], 1)
    @example(0, [0, 0], 5)  # three prefix words: the per-index fallback
    @example(0, [0, 0, 0], 5)  # four prefix words: the shared prefix
    @example(-3, ["x", -7], 0)
    @example(2**64 - 1, [2**64 - 1, "pairwise-enhanced", 3000], 200)
    def test_equals_per_index_derive_seed(self, master, path, count):
        assert derive_seeds(master, *path, count=count) == [derive_seed(master, *path, t)
                                                             for t in range(count)]

    def test_long_paths_share_the_prefix(self, monkeypatch):
        # a path of four or more 32-bit words never falls back to one
        # SeedSequence per index
        expected = [derive_seed(5, "fig1", "finest", 250, t) for t in range(30)]

        def per_index(*args):
            raise AssertionError("fell back to derive_seed")

        monkeypatch.setattr(rng, "derive_seed", per_index)
        assert derive_seeds(5, "fig1", "finest", 250, count=30) == expected
        assert derive_seeds(5, 1, 2, 3, count=0) == []
        with pytest.raises(AssertionError, match="fell back"):
            derive_seeds(5, 1, 2, count=1)  # three words: the pool is not yet full
