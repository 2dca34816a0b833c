"""Partitions of {0..n-1} and the pairing strategies that build them.

A partition is two read-only index arrays: ``order`` lists the groups'
members, group after group, and group g is ``order[offsets[g]:offsets[g+1]]``.
Pairing strategies order the indices by some rule and chunk the order into
consecutive pairs; for odd n the final group is a singleton holding the
leftover index.

JSON serialization uses 1-based indices; everything in memory is 0-based.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .matrices import _frozen
from .rng import _check_count, _is_integer, generator, philox_key

PAIRING_KINDS = ("enhanced", "random", "balanced", "simple")


@dataclass(frozen=True, eq=False)
class Partition:
    """Ordered groups of 0-based indices partitioning {0..n-1}, stored as ``(order, offsets)``.

    Construction keeps read-only ``intp`` copies of the arrays and raises ``ValueError`` for an n
    other than an integer >= 1 (``_check_count``) or naming the first violation of the scan
    (``_violation``), so every ``Partition`` that exists is valid.  ``==`` and the hash compare ``n``
    and both arrays; ``labels`` and ``groups`` are derived on first read.
    """

    n: int
    order: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        n, order, offsets = _check_count(self.n, "ground-set size"), np.asarray(self.order), np.asarray(self.offsets)
        if not all(x.ndim == 1 and x.dtype.kind in "iu" and np.can_cast(x.dtype, np.intp) for x in (order, offsets)):
            raise ValueError("order and offsets must be 1-d integer arrays")
        order, offsets = _frozen(order.astype(np.intp)), _frozen(offsets.astype(np.intp))
        if offsets.size == 0 or offsets[0] != 0 or offsets[-1] != order.size or np.any(np.diff(offsets) < 0):
            raise ValueError("offsets must rise from 0 to the length of order")
        violation = _violation(n, order, offsets)
        if violation is not None:
            raise ValueError(violation)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "offsets", offsets)

    @property
    def k(self) -> int:
        return self.offsets.size - 1

    @cached_property
    def labels(self) -> np.ndarray:
        """Each index's group."""
        labels = np.empty(self.n, dtype=np.intp)
        labels[self.order] = np.repeat(np.arange(self.k), np.diff(self.offsets))
        return _frozen(labels)

    @cached_property
    def groups(self) -> tuple[tuple[int, ...], ...]:
        """Each group's members as a tuple of Python ints."""
        flat, bounds = self.order.tolist(), self.offsets.tolist()
        return tuple(tuple(flat[lo:hi]) for lo, hi in zip(bounds, bounds[1:]))

    def __eq__(self, other):
        if not isinstance(other, Partition):
            return NotImplemented
        return self is other or (self.n == other.n and np.array_equal(self.order, other.order)
                                 and np.array_equal(self.offsets, other.offsets))

    def __hash__(self):
        return hash((self.n, self.order.tobytes(), self.offsets.tobytes()))


def _violation(n: int, members: np.ndarray, offsets: np.ndarray, held=None, base: int = 0) -> str | None:
    """The first violation a per-index scan of the groups meets, found with array operations, or None.

    The scan visits each group, then its members, in order: an empty group, a
    member out of range or already seen; then the lowest index no group
    covers.  ``members`` stops short of ``offsets[-1]`` where the scan met a
    non-integer, and coverage is then not checked.  Messages show a member as
    ``held`` holds it, and count groups and indices from ``base``.
    """
    held = members if held is None else held
    if not 1 <= offsets.size - 1 <= n:
        return f"group count must be in [1, {n}], got {offsets.size - 1}"
    outside = np.flatnonzero((members < 0) | (members >= n))
    stop = int(outside[0]) if outside.size else members.size
    counts = np.bincount(members[:stop], minlength=n)
    first = stop  # the first member seen before it: the earliest later copy of a value
    if counts.max() > 1:
        by_value = np.argsort(members[:stop], kind="stable")
        first = int(by_value[1:][members[by_value[1:]] == members[by_value[:-1]]].min())
    empty = np.flatnonzero(offsets[1:] == offsets[:-1])
    if empty.size and offsets[empty[0]] <= first:
        return f"group {empty[0] + base} is empty"
    if first < stop:
        return f"index {held[first]} appears in more than one group"
    if stop < members.size:
        return f"index {held[stop]} out of range " + (f"[0, {n})" if base == 0 else f"[{base}, {n + base - 1}]")
    if members.size == offsets[-1] and counts.min() == 0:
        return f"index {int(np.argmin(counts)) + base} is not covered by any group"
    return None


@dataclass(frozen=True)
class PairingStrategy:
    """One of "enhanced", "random", "balanced", "simple"; random carries its seed, which construction
    checks as the key of its permutation (``philox_key``)."""

    kind: str
    seed: int | None = None

    def __post_init__(self):
        if self.kind not in PAIRING_KINDS:
            raise ValueError(f"unknown pairing kind {self.kind!r}, expected one of {PAIRING_KINDS}")
        if self.kind == "random" and self.seed is None:
            raise ValueError("random pairing requires a seed")
        if self.kind != "random" and self.seed is not None:
            raise ValueError(f"{self.kind} pairing takes no seed")
        if self.seed is not None:
            philox_key(self.seed)


ENHANCED = PairingStrategy("enhanced")
BALANCED = PairingStrategy("balanced")
SIMPLE = PairingStrategy("simple")


def finest(n: int) -> Partition:
    """The n singleton groups {0},{1},...,{n-1} in index order; ``Partition`` refuses any n but an integer >= 1."""
    return Partition(n, np.arange(n), np.arange(n + 1))


def coarsen(groups, n: int, base: int = 0) -> Partition:
    """Partition of {0..n-1} from groups (any iterables) of indices counted from ``base``.

    Raises ``ValueError`` naming the scan's first violation (``_violation``),
    with indices as the groups hold them; a non-integer index (booleans
    included) ends the scan.  NumPy integers are accepted.
    """
    n = _check_count(n, "ground-set size")
    groups = [tuple(g) for g in groups]
    offsets = np.cumsum([0, *map(len, groups)])
    flat = list(itertools.chain.from_iterable(groups))
    ints = flat if all(type(i) is int for i in flat) else list(itertools.takewhile(_is_integer, flat))
    try:
        members = np.array(ints, dtype=np.intp) - base
    except OverflowError:  # an index beyond intp, out of range whatever n is
        members = np.array([i - base if base <= i < n + base else -1 for i in ints], dtype=np.intp)
    if len(ints) < len(flat):
        group = int(np.searchsorted(offsets, len(ints), side="right")) - 1 + base
        raise ValueError(_violation(n, members, offsets, flat, base)
                         or f"group {group} holds a non-integer index {flat[len(ints)]!r}")
    try:
        return Partition(n, members, offsets)
    except ValueError:
        raise ValueError(_violation(n, members, offsets, flat, base)) from None


def _pair_order(weights: np.ndarray, strategy: PairingStrategy) -> np.ndarray:
    n = weights.size
    ascending = np.argsort(weights, kind="stable")
    if strategy.kind == "enhanced":
        return ascending
    if strategy.kind == "simple":
        return np.arange(n)
    if strategy.kind == "random":
        return generator(strategy.seed).permutation(n)
    # balanced: largest with smallest, second largest with second smallest, ...
    half = n // 2
    pairs = np.column_stack([ascending[::-1][:half], ascending[:half]]).ravel()
    return np.concatenate([pairs, ascending[half:n - half]])


def pair_partition(weights, strategy: PairingStrategy) -> Partition:
    """Pair indices by the strategy's ordering of the per-index probabilities.

    ``weights`` are the finest-partition sampling probabilities that the
    enhanced/balanced orderings sort on (ties broken by ascending index).
    Consecutive entries of the resulting order form the pairs; for odd n the
    trailing index becomes a singleton group.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1 or w.size < 2:
        raise ValueError("need a 1-d probability vector over at least 2 indices")
    if not np.all(np.isfinite(w)) or np.any(w < 0):
        raise ValueError("probabilities must be finite and nonnegative")
    return Partition(w.size, _pair_order(w, strategy), np.append(np.arange(0, w.size, 2), w.size))


def partition_to_json(partition: Partition) -> str:
    """JSON array of arrays of 1-based indices."""
    return json.dumps([[i + 1 for i in g] for g in partition.groups])


def partition_from_json(text: str) -> Partition:
    """Validated partition from JSON arrays of 1-based indices; non-integers and booleans are rejected.

    Messages name indices and groups as the file counts them, from 1.
    """
    groups = json.loads(text)
    if not isinstance(groups, list) or not all(isinstance(g, list) for g in groups):
        raise ValueError("partition JSON must be an array of arrays")
    bad = [i for g in groups for i in g if type(i) is not int]
    if bad:
        raise ValueError(f"partition index {json.dumps(bad[0])} is not an integer")
    return coarsen(groups, sum(map(len, groups)), base=1)
