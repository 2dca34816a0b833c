"""Partitions of {0..n-1} and the pairing strategies that build them.

A partition is an ordered tuple of disjoint, nonempty, ordered index groups
covering the whole ground set.  Pairing strategies order the indices by some
rule and chunk the order into consecutive pairs; for odd n the final group is
a singleton holding the leftover index.

JSON serialization uses 1-based indices; everything in memory is 0-based.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from .rng import generator

PAIRING_KINDS = ("enhanced", "random", "balanced", "simple")


@dataclass(frozen=True)
class Partition:
    """Ordered groups of 0-based indices partitioning {0..n-1}.

    Construction checks the invariant and raises ``ValueError`` with the
    message of :func:`validate`, so every ``Partition`` that exists is valid.
    NumPy integers are stored as Python ints.  ``labels`` holds each index's
    group (read-only, not part of ``==`` or the hash).
    """

    n: int
    groups: tuple[tuple[int, ...], ...]
    labels: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        flat = list(itertools.chain.from_iterable(self.groups))
        if type(self.n) is not int or not all(type(i) is int for i in flat):
            violation = validate(self.n, self.groups)  # names a bool, float or other non-integer
            if violation is not None:
                raise ValueError(violation)
            object.__setattr__(self, "n", int(self.n))
            object.__setattr__(self, "groups", tuple(tuple(map(int, g)) for g in self.groups))
            flat = list(map(int, flat))
        n, members = self.n, np.array(flat)  # Python ints: int64 unless some lie beyond it, hence out of range
        sizes = np.fromiter(map(len, self.groups), dtype=np.intp, count=len(self.groups))
        valid = (1 <= sizes.size <= n and members.size == n and sizes.min() > 0
                 and members.min() >= 0 and members.max() < n)
        if valid:
            labels = np.full(n, -1, dtype=np.intp)
            labels[members] = np.repeat(np.arange(sizes.size), sizes)
            valid = labels.min() >= 0  # n entries in range: a repeat leaves some index uncovered
        if not valid:
            raise ValueError(validate(n, self.groups))
        labels.flags.writeable = False
        object.__setattr__(self, "labels", labels)

    @property
    def k(self) -> int:
        return len(self.groups)


@dataclass(frozen=True)
class PairingStrategy:
    """One of "enhanced", "random", "balanced", "simple"; random carries its seed."""

    kind: str
    seed: int | None = None

    def __post_init__(self):
        if self.kind not in PAIRING_KINDS:
            raise ValueError(f"unknown pairing kind {self.kind!r}, expected one of {PAIRING_KINDS}")
        if self.kind == "random" and self.seed is None:
            raise ValueError("random pairing requires a seed")
        if self.kind != "random" and self.seed is not None:
            raise ValueError(f"{self.kind} pairing takes no seed")


ENHANCED = PairingStrategy("enhanced")
BALANCED = PairingStrategy("balanced")
SIMPLE = PairingStrategy("simple")


def random_pairing(seed: int) -> PairingStrategy:
    return PairingStrategy("random", seed)


def validate(n, groups) -> str | None:
    """Return None if ``groups`` partition {0..n-1}, else the first violation a per-index scan meets.

    The scan visits the groups in order and each group's indices in order:
    an empty group, then per index a non-integer (booleans included), an
    index out of range or one already seen; after the scan, the lowest index
    no group covers.
    """
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        return f"ground-set size must be a positive integer, got {n!r}"
    if not 1 <= len(groups) <= n:
        return f"group count must be in [1, {n}], got {len(groups)}"
    seen = np.zeros(n, dtype=bool)
    for gi, group in enumerate(groups):
        if len(group) == 0:
            return f"group {gi} is empty"
        for idx in group:
            if isinstance(idx, bool) or not isinstance(idx, (int, np.integer)):
                return f"group {gi} holds a non-integer index {idx!r}"
            if not 0 <= idx < n:
                return f"index {idx} out of range [0, {n})"
            if seen[idx]:
                return f"index {idx} appears in more than one group"
            seen[idx] = True
    if not seen.all():
        return f"index {int(np.argmin(seen))} is not covered by any group"
    return None


def finest(n: int) -> Partition:
    """The n singleton groups {0},{1},...,{n-1} in index order; ``Partition`` rejects n < 1."""
    return Partition(n, tuple((i,) for i in range(n)))


def coarsen(groups, n: int) -> Partition:
    """Partition from user-supplied groups (any iterables); raises ``ValueError`` on any invariant violation."""
    return Partition(n, tuple(tuple(g) for g in groups))


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
    order = _pair_order(w, strategy).tolist()
    return Partition(w.size, tuple(tuple(order[j:j + 2]) for j in range(0, w.size, 2)))


def partition_to_json(partition: Partition) -> str:
    """JSON array of arrays of 1-based indices."""
    return json.dumps([[i + 1 for i in g] for g in partition.groups])


def partition_from_json(text: str) -> Partition:
    """Validated partition from JSON arrays of 1-based indices; non-integers and booleans are rejected."""
    groups = json.loads(text)
    if not isinstance(groups, list) or not all(isinstance(g, list) for g in groups):
        raise ValueError("partition JSON must be an array of arrays")
    bad = [i for g in groups for i in g if type(i) is not int]
    if bad:
        raise ValueError(f"partition index {json.dumps(bad[0])} is not an integer")
    zero_based = [[i - 1 for i in g] for g in groups]
    n = sum(len(g) for g in zero_based)
    return coarsen(zero_based, n)
