"""Partitions of {0..n-1} and the pairing strategies that build them.

A partition is two read-only index arrays: ``order`` lists the groups'
members, group after group, and group g is ``order[offsets[g]:offsets[g+1]]``.
Pairing strategies order the indices by some rule and chunk the order into
consecutive pairs; for odd n the final group is a singleton holding the
leftover index.

JSON serialization uses 1-based indices; everything in memory is 0-based.
"""

from __future__ import annotations

import contextlib
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
    other than an integer >= 1 (``_check_count``) or arrays that spell no groups; one array test then
    accepts the groups, and only its refusal runs the per-index scan (``_violation``) that names the
    first violation.  So every ``Partition`` that exists is valid.  ``==`` and the hash compare ``n``
    and both arrays; ``labels`` and ``groups`` are derived on first read.
    """

    n: int
    order: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        self._admit(self.n, self.order, self.offsets)

    def _admit(self, n, order, offsets, held=None, base: int = 0) -> Partition:
        """Check and set the fields; a refusal scans ``held`` (by default ``groups``) counting from ``base``."""
        n, order, offsets = _check_count(n, "ground-set size"), np.asarray(order), np.asarray(offsets)
        if not all(x.ndim == 1 and x.dtype.kind in "iu" and np.can_cast(x.dtype, np.intp) for x in (order, offsets)):
            raise ValueError("order and offsets must be 1-d integer arrays")
        order, offsets = _frozen(order.astype(np.intp)), _frozen(offsets.astype(np.intp))
        if offsets.size == 0 or offsets[0] != 0 or offsets[-1] != order.size or np.any(np.diff(offsets) < 0):
            raise ValueError("offsets must rise from 0 to the length of order")
        self.__dict__.update(n=n, order=order, offsets=offsets)
        # n members in [0, n), each once, in nonempty groups (so 1 to n of them)
        if not (order.size == n and np.diff(offsets).all() and 0 <= order.min() and order.max() < n
                and np.all(np.bincount(order, minlength=n) == 1)):
            raise ValueError(_violation(n, self.groups if held is None else held, base))
        return self

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


def _violation(n: int, groups, base: int = 0) -> str | None:
    """The first violation a per-index scan of ``groups`` meets, or None if they partition the n indices from ``base``.

    The scan visits the groups in order and each group's indices in order: an empty group, then per
    index a non-integer (``_is_integer``), an index out of range or one already seen; after the scan,
    the lowest index no group covers.  Messages show an index as its group holds it, counted from ``base``.
    """
    if not 1 <= len(groups) <= n:
        return f"group count must be in [1, {n}], got {len(groups)}"
    seen = set()
    for g, group in enumerate(groups, base):
        if len(group) == 0:
            return f"group {g} is empty"
        for i in group:
            if not _is_integer(i):
                return f"group {g} holds a non-integer index {i!r}"
            if not base <= i < n + base:
                return f"index {i} out of range " + (f"[0, {n})" if base == 0 else f"[{base}, {n + base - 1}]")
            if i - base in seen:
                return f"index {i} appears in more than one group"
            seen.add(i - base)
    if len(seen) < n:
        return f"index {next(i for i in range(n) if i not in seen) + base} is not covered by any group"


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

    Integers, Python or NumPy, less ``base`` as Python ints, form one array for ``Partition``'s array test; a
    bool, a non-integer or an index that ``base`` leaves past ``intp`` goes straight to the scan.  A refusal raises
    ``ValueError`` naming the first violation of the scan (``_violation``) of the groups as given, from ``base``.
    """
    n = _check_count(n, "ground-set size")
    groups = [tuple(g) for g in groups]
    flat = list(itertools.chain.from_iterable(groups))
    if {int}.issuperset(map(type, flat)) or all(map(_is_integer, flat)):  # the first test is the quick one
        with contextlib.suppress(OverflowError):  # an index base leaves past intp: out of range, as the scan says
            # built without __init__: the array test runs once, and a refusal scans the groups as given
            offsets = np.cumsum([0, *map(len, groups)])
            order = np.array([int(i) - base for i in flat], dtype=np.intp)
            return Partition.__new__(Partition)._admit(n, order, offsets, groups, base)
    raise ValueError(_violation(n, groups, base))


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
