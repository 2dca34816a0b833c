"""Deterministic seed derivation and counter-based uniform streams.

All randomness in this package flows through Philox, a counter-based
generator: the i-th variate of a keyed stream is a pure function of
(key, i), so batching, splitting, or reordering evaluation never changes
the values drawn.  Substream keys are derived from a master seed and a
label path through ``derive_seed``, or ``derive_seeds`` for a run of trial
indices under one path.
"""

from __future__ import annotations

import hashlib

import numpy as np

_MASK64 = (1 << 64) - 1

# SeedSequence's pool size and 32-bit hash constants (numpy/random/bit_generator.pyx).
_MASK32 = (1 << 32) - 1
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _entropy_word(part) -> int:
    if isinstance(part, (int, np.integer)):
        return int(part) & _MASK64
    digest = hashlib.blake2b(str(part).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def derive_seed(master_seed: int, *path) -> int:
    """64-bit key of the substream identified by ``path`` under ``master_seed``.

    Path elements may be ints or strings; strings are hashed with blake2b
    so labels like "fig1" address stable, independent substreams.
    """
    words = [_entropy_word(master_seed)] + [_entropy_word(p) for p in path]
    return int(np.random.SeedSequence(words).generate_state(1, np.uint64)[0])


def _hashmix(value, const, mult=_MULT_A):
    """SeedSequence's ``hashmix`` on an int or a uint64 array of 32-bit words: (hash, next constant).

    With ``mult=_MULT_B`` it is the hash ``generate_state`` applies to each pool word it outputs.
    """
    value = value ^ const
    const = const * mult & _MASK32
    value = value * const & _MASK32
    return value ^ value >> 16, const


def _mix(x, y):
    """SeedSequence's ``mix`` of two 32-bit words (ints or uint64 arrays)."""
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ result >> 16


def _uint32_words(word: int) -> list[int]:
    """The 32-bit words SeedSequence reads from a non-negative int, least significant first."""
    words = [word & _MASK32]
    while word := word >> 32:
        words.append(word & _MASK32)
    return words


def derive_seeds(master_seed: int, *path, count: int) -> list[int]:
    """``[derive_seed(master_seed, *path, t) for t in range(count)]``, in one pass over ``t``.

    SeedSequence hashes its first four 32-bit entropy words into a pool, mixes
    the pool, then mixes each further word into every pool word; its hash
    constants advance with each step but never depend on the data.  The trial
    index is the last word, so when the path before it fills the pool, the
    pool state before that word is the same for every trial: it is computed
    once, and only the index word and the output are evaluated per trial,
    vectorised.  A path of fewer than four words, or indices past 32 bits
    (which SeedSequence reads as two words), fall back to ``derive_seed``.
    """
    prefix = [w for part in (master_seed, *path) for w in _uint32_words(_entropy_word(part))]
    if len(prefix) < _POOL_SIZE or count > 1 << 32:
        return [derive_seed(master_seed, *path, t) for t in range(count)]
    const = _INIT_A
    pool = []
    for word in prefix[:_POOL_SIZE]:
        value, const = _hashmix(word, const)
        pool.append(value)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                value, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], value)
    for word in prefix[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            value, const = _hashmix(word, const)
            pool[dst] = _mix(pool[dst], value)
    # generate_state(1, np.uint64) outputs pool words 0 and 1 only: hash the
    # index word into those two, one row each, then hash them out.
    index_consts = np.array([const, const * _MULT_A & _MASK32], dtype=np.uint64)[:, None]
    hashed, _ = _hashmix(np.arange(count, dtype=np.uint64), index_consts)
    mixed = _mix(np.array(pool[:2], dtype=np.uint64)[:, None], hashed)
    out_consts = np.array([_INIT_B, _INIT_B * _MULT_B & _MASK32], dtype=np.uint64)[:, None]
    words, _ = _hashmix(mixed, out_consts, _MULT_B)
    return (words[0] | words[1] << 32).tolist()


def uniform_stream(seed: int, count: int) -> np.ndarray:
    """``count`` float64 uniforms on [0, 1) from the Philox stream keyed by ``seed``."""
    return generator(seed).random(count)


def generator(seed: int) -> np.random.Generator:
    """A Philox generator keyed by ``seed`` for bulk draws (matrix entries, permutations)."""
    return np.random.Generator(np.random.Philox(key=np.uint64(seed & _MASK64)))
