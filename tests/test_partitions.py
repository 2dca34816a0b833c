import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partsketch import (BALANCED, ENHANCED, SIMPLE, PairingStrategy,
                        Partition, coarsen, finest, pair_partition,
                        partition_from_json, partition_to_json,
                        random_pairing)
from helpers import loop_validate as validate


class TestFinest:
    def test_singletons(self):
        assert finest(1).groups == ((0,),)
        assert finest(3).groups == ((0,), (1,), (2,))

    def test_large(self):
        p = finest(2000)
        assert p.k == 2000
        assert validate(p.n, p.groups) is None

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            finest(0)


class TestValidate:
    def test_ok(self):
        assert validate(2, ((0,), (1,))) is None

    def test_overlap(self):
        msg = validate(2, ((0,), (0, 1)))
        assert "more than one group" in msg

    def test_coverage(self):
        msg = validate(2, ((0,),))
        assert "not covered" in msg

    def test_empty_group(self):
        msg = validate(2, ((0, 1), ()))
        assert "empty" in msg

    def test_out_of_range(self):
        msg = validate(2, ((0,), (2,)))
        assert "out of range" in msg

    def test_too_many_groups(self):
        msg = validate(1, ((0,), (0,)))
        assert "group count" in msg

    @pytest.mark.parametrize("partition, message", [
        ((3, ((0, 1), (), (2,))), "group 1 is empty"),
        ((2, ((0,), (1.0,))), "group 1 holds a non-integer index 1.0"),
        ((2, ((0,), (2,))), "index 2 out of range [0, 2)"),
        ((2, ((0,), (0, 1))), "index 0 appears in more than one group"),
        ((3, ((0,), (2,))), "index 1 is not covered by any group"),
    ])
    def test_message_of_each_kind(self, partition, message):
        assert validate(*partition) == message

    @pytest.mark.parametrize("partition, message", [
        ((4, ((0, 5), (), (0,), (1.5,))), "index 5 out of range [0, 4)"),
        ((4, ((0,), (), (0, 9))), "group 1 is empty"),
        ((4, ((3, 1, 3), (-1,), (2.5,))), "index 3 appears in more than one group"),
        ((4, ((1, "x"), (9,))), "group 0 holds a non-integer index 'x'"),
        ((3, ((0, 2**70), (1,))), f"index {2**70} out of range [0, 3)"),
    ])
    def test_reports_the_first_violation_in_scan_order(self, partition, message):
        assert validate(*partition) == message

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.integers(1, 7).flatmap(lambda n: st.tuples(st.just(n), st.lists(
        st.lists(st.one_of(st.integers(-1, n), st.integers(-1, n), st.sampled_from(
            [0.5, 1.0, "1", None, True, False, 2**64, -2**70, np.int64(1), np.uint64(0)])), max_size=4),
        min_size=1, max_size=n))))
    def test_matches_the_per_index_scan(self, case):
        # the array check names the violation the scan meets first
        n, groups = case
        groups = tuple(tuple(g) for g in groups)
        violation = validate(n, groups)
        if violation is None:
            assert coarsen(groups, n).groups == groups
        else:
            with pytest.raises(ValueError) as info:
                coarsen(groups, n)
            assert str(info.value) == violation


class TestPartitionChecksItself:
    @pytest.mark.parametrize("n, groups, message", [
        (3, ((0,), (1,)), "index 2 is not covered by any group"),
        (3, ((0,), (0, 1, 2)), "index 0 appears in more than one group"),
        (2, ((0, 1), ()), "group 1 is empty"),
        (2, ((0,), (2,)), "index 2 out of range [0, 2)"),
        (2, ((True,), (0,)), "group 0 holds a non-integer index True"),
        (2.0, ((0,), (1,)), "ground-set size must be a positive integer, got 2.0"),
        (0, ((0,),), "ground-set size must be a positive integer, got 0"),
    ])
    def test_invalid_groups_raise_the_scan_message(self, n, groups, message):
        assert validate(n, groups) == message
        with pytest.raises(ValueError) as info:
            coarsen(groups, n)
        assert str(info.value) == message

    @pytest.mark.parametrize("groups, message", [
        ([[0], [1.9]], "group 1 holds a non-integer index 1.9"),
        ([["0"], [1]], "group 0 holds a non-integer index '0'"),
    ])
    def test_coarsen_never_truncates(self, groups, message):
        with pytest.raises(ValueError) as info:
            coarsen(groups, 2)
        assert str(info.value) == message

    def test_coarsen_of_numpy_integers_serializes(self):
        assert partition_to_json(coarsen([[np.int64(1)], [np.int64(0)]], 2)) == "[[2], [1]]"

    def test_numpy_integers_are_stored_as_python_ints(self):
        part = coarsen(((np.uint8(1),), (0,)), np.int64(2))
        assert type(part.n) is int and all(type(i) is int for g in part.groups for i in g)
        assert part == coarsen([[1], [0]], 2) and part.labels.tolist() == [1, 0]


class TestCoarsen:
    def test_single_group(self):
        assert coarsen([[0, 1, 2]], 3).groups == ((0, 1, 2),)

    def test_two_groups(self):
        assert coarsen([[0, 2], [1]], 3).k == 2

    def test_coverage_violation(self):
        with pytest.raises(ValueError, match="not covered"):
            coarsen([[0], [2]], 3)


class TestPairPartition:
    p = np.array([0.1, 0.2, 0.3, 0.4])

    def test_enhanced(self):
        assert pair_partition(self.p, ENHANCED).groups == ((0, 1), (2, 3))

    def test_balanced(self):
        # largest with smallest, second largest with second smallest
        assert pair_partition(self.p, BALANCED).groups == ((3, 0), (2, 1))

    def test_simple(self):
        assert pair_partition(self.p, SIMPLE).groups == ((0, 1), (2, 3))

    def test_random_is_seed_deterministic(self):
        a = pair_partition(self.p, random_pairing(99))
        b = pair_partition(self.p, random_pairing(99))
        c = pair_partition(self.p, random_pairing(100))
        assert a.groups == b.groups
        assert validate(c.n, c.groups) is None

    def test_ties_broken_by_index(self):
        equal = np.full(6, 1 / 6)
        assert pair_partition(equal, ENHANCED).groups == ((0, 1), (2, 3), (4, 5))
        assert pair_partition(equal, BALANCED).groups == ((5, 0), (4, 1), (3, 2))

    def test_odd_n_leaves_singleton(self):
        p = np.array([0.1, 0.4, 0.2, 0.25, 0.05])
        enh = pair_partition(p, ENHANCED)
        assert enh.groups == ((4, 0), (2, 3), (1,))  # largest probability left over
        bal = pair_partition(p, BALANCED)
        assert bal.groups == ((1, 4), (3, 0), (2,))  # median left over
        assert pair_partition(p, SIMPLE).groups == ((0, 1), (2, 3), (4,))

    def test_rejects_tiny_or_invalid(self):
        with pytest.raises(ValueError):
            pair_partition([1.0], ENHANCED)
        with pytest.raises(ValueError):
            pair_partition([0.5, -0.5], ENHANCED)

    @settings(max_examples=50, derandomize=True)
    @given(st.integers(2, 40), st.integers(0, 2**31 - 1))
    def test_every_strategy_partitions(self, n, seed):
        rng = np.random.default_rng(seed)
        p = rng.random(n)
        p /= p.sum()
        for strategy in (ENHANCED, BALANCED, SIMPLE, random_pairing(seed)):
            part = pair_partition(p, strategy)
            assert validate(part.n, part.groups) is None
            assert part.k == (n + 1) // 2
            if n % 2 == 0:
                assert all(len(g) == 2 for g in part.groups)


class TestPairingStrategy:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown"):
            PairingStrategy("sorted")

    def test_random_needs_seed(self):
        with pytest.raises(ValueError, match="seed"):
            PairingStrategy("random")

    def test_non_random_rejects_seed(self):
        with pytest.raises(ValueError, match="no seed"):
            PairingStrategy("enhanced", seed=1)


class TestLabels:
    def test_group_of_each_index(self):
        part = coarsen([[2, 0], [1], [4, 3]], 5)
        assert part.labels.tolist() == [0, 1, 0, 2, 2]
        assert finest(4).labels.tolist() == [0, 1, 2, 3]

    def test_read_only_and_outside_equality(self):
        one = coarsen([[1, 0], [2]], 3)
        two = coarsen([[1, 0], [2]], 3)
        _ = one.labels
        assert one == two and hash(one) == hash(two)
        with pytest.raises(ValueError):
            one.labels[0] = 1


class TestPartitionJson:
    def test_round_trip(self):
        part = coarsen([[2, 0], [1]], 3)
        again = partition_from_json(partition_to_json(part))
        assert again == part

    def test_one_based_encoding(self):
        assert partition_to_json(finest(2)) == "[[1], [2]]"

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            partition_from_json("[[1], [1, 2]]")
        with pytest.raises(ValueError):
            partition_from_json("{\"a\": 1}")

    @pytest.mark.parametrize("text", ["[[1.9], [2]]", "[[2.0], [1]]", "[[true], [2]]",
                                      "[[1], [null]]", "[[\"1\"], [2]]"])
    def test_rejects_non_integer_entries(self, text):
        with pytest.raises(ValueError, match="not an integer"):
            partition_from_json(text)

    @pytest.mark.parametrize("text, message", [
        ("[[-1, 1]]", "index -1 out of range [1, 2]"),
        ("[[1, 4], [2]]", "index 4 out of range [1, 3]"),
        ("[[1180591620717411303424], [1]]", "index 1180591620717411303424 out of range [1, 2]"),
        ("[[1], [1]]", "index 1 appears in more than one group"),
        ("[[2, 1], [], [3]]", "group 2 is empty"),
        ("[[1], [], []]", "group count must be in [1, 1], got 3"),
        ("[]", "ground-set size must be a positive integer, got 0"),
    ])
    def test_messages_count_from_one_as_the_file_does(self, text, message):
        with pytest.raises(ValueError) as info:
            partition_from_json(text)
        assert str(info.value) == message


class TestArrays:
    def test_order_and_offsets(self):
        part = coarsen([[2, 0], [1], [4, 3]], 5)
        assert part.order.tolist() == [2, 0, 1, 4, 3] and part.offsets.tolist() == [0, 2, 3, 5]
        assert part == Partition(5, [2, 0, 1, 4, 3], [0, 2, 3, 5])
        for arr in (part.order, part.offsets):
            with pytest.raises(ValueError):
                arr[0] = 1

    def test_builders_agree_with_groups(self):
        assert finest(4) == coarsen([[0], [1], [2], [3]], 4)
        p = np.array([0.1, 0.4, 0.2, 0.25, 0.05])
        assert pair_partition(p, BALANCED) == coarsen([[1, 4], [3, 0], [2]], 5)

    def test_groups_are_built_on_first_read(self):
        part = finest(3)
        assert "groups" not in part.__dict__
        assert part.groups == ((0,), (1,), (2,)) and part.groups is part.groups

    def test_equality_and_hash(self, monkeypatch):
        one, two = coarsen([[1, 0], [2]], 3), Partition(3, np.array([1, 0, 2]), np.array([0, 2, 3]))
        assert one == two and hash(one) == hash(two)
        assert one != coarsen([[0, 1], [2]], 3)  # the order within a group counts
        assert one != coarsen([[2], [1, 0]], 3)  # so does the order of the groups
        assert len({one, two, finest(3), finest(3)}) == 2
        monkeypatch.setattr(np, "array_equal", lambda *args: pytest.fail("compared arrays"))
        assert one == one and not one != one  # identity: no array is read

    @pytest.mark.parametrize("order, offsets, message", [
        ([0.0, 1.0], [0, 1, 2], "order and offsets must be 1-d integer arrays"),
        (np.array([0, 1], dtype=np.uint64), [0, 1, 2], "order and offsets must be 1-d integer arrays"),
        ([0, 1], [[0, 1, 2]], "order and offsets must be 1-d integer arrays"),
        ([0, 1], [0, 2, 1, 2], "offsets must rise from 0 to the length of order"),
        ([0, 1], [1, 2], "offsets must rise from 0 to the length of order"),
        ([1, 1], [0, 1, 2], "index 1 appears in more than one group"),
    ])
    def test_rejects_invalid_arrays(self, order, offsets, message):
        with pytest.raises(ValueError) as info:
            Partition(2, order, offsets)
        assert str(info.value) == message
