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
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .rng import generator

PAIRING_KINDS = ("enhanced", "random", "balanced", "simple")


@dataclass(frozen=True)
class Partition:
    """Ordered groups of 0-based indices partitioning {0..n-1}."""

    n: int
    groups: tuple[tuple[int, ...], ...]

    @property
    def k(self) -> int:
        return len(self.groups)

    @cached_property
    def labels(self) -> np.ndarray:
        """Group index of each index of a valid partition; read-only, built once, not in ==/hash."""
        members = np.fromiter(itertools.chain.from_iterable(self.groups), dtype=np.intp)
        labels = np.zeros(self.n, dtype=np.intp)
        labels[members] = np.repeat(np.arange(self.k), [len(g) for g in self.groups])
        labels.flags.writeable = False
        return labels


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


def validate(partition: Partition) -> str | None:
    """Return None if the partition invariants hold, else the first violation.

    The violation reported is the first one a scan would meet that visits the
    groups in order and each group's indices in order: an empty group, then
    per index a non-integer, an index out of range or one already seen; after
    the scan, the lowest index no group covers.
    """
    n = partition.n
    if n < 1:
        return f"ground-set size must be positive, got {n}"
    groups = partition.groups
    if not 1 <= len(groups) <= n:
        return f"group count must be in [1, {n}], got {len(groups)}"
    flat = list(itertools.chain.from_iterable(groups))
    try:
        values = np.array(flat)
        integral = values.ndim == 1 and values.dtype.kind in "biu"
    except ValueError:  # ragged entries
        integral = False
    stop = len(flat)  # position of the first non-integer
    if not integral:
        stop = next((p for p, i in enumerate(flat) if not isinstance(i, (int, np.integer))), stop)
        values = np.array(flat[:stop], dtype=object)  # exact comparisons for ints beyond int64
    in_range = (values >= 0) & (values < n)
    bad = stop if in_range.all() else int(np.argmin(in_range))  # first out-of-range position
    seen = values[:bad].astype(np.intp)
    counts = np.bincount(seen, minlength=n)
    first = bad  # earliest position of any index violation
    if counts.max() > 1:
        order = np.argsort(seen, kind="stable")
        first = int(order[1:][seen[order[1:]] == seen[order[:-1]]].min())
    if 0 in map(len, groups) or first < len(flat):
        ends = np.cumsum([len(g) for g in groups])
        empty = np.flatnonzero(np.diff(ends, prepend=0) == 0)
        if empty.size and ends[empty[0]] <= first:
            return f"group {empty[0]} is empty"
        idx = flat[first]
        if first == stop:
            return f"group {int(np.searchsorted(ends, first, side='right'))} holds a non-integer index {idx!r}"
        if first == bad:
            return f"index {idx} out of range [0, {n})"
        return f"index {idx} appears in more than one group"
    if counts.min() == 0:
        return f"index {int(np.argmin(counts))} is not covered by any group"
    return None


def finest(n: int) -> Partition:
    """The n singleton groups {0},{1},...,{n-1} in index order."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    return Partition(n, tuple((i,) for i in range(n)))


def coarsen(groups, n: int) -> Partition:
    """Validated partition from user-supplied groups; raises on any invariant violation."""
    partition = Partition(int(n), tuple(tuple(int(i) for i in g) for g in groups))
    violation = validate(partition)
    if violation is not None:
        raise ValueError(violation)
    return partition


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
