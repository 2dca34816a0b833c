"""Substream keys and counter-based uniform streams.

All randomness flows through Philox: the i-th variate of a keyed stream is a
pure function of (key, i), so batching or reordering never changes the values
drawn.  A substream's key is the BLAKE2b hash of its label path (``derive_seed``).
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

_MASK64 = (1 << 64) - 1


def derive_seed(master_seed: int, *path) -> int:
    """64-bit key of the substream ``path`` under ``master_seed``: 8-byte BLAKE2b, read
    little-endian, of the JSON list ``[master_seed, *path]``, with ints (NumPy ints and
    bools too) written exactly and every other part as its ``str``."""
    return _key(json.dumps(_parts(master_seed, *path)))


def derive_seeds(master_seed: int, path, count: int) -> list[int]:
    """``[derive_seed(master_seed, *path, t) for t in range(count)]``, from one JSON prefix."""
    prefix = json.dumps(_parts(master_seed, *path))[:-1]
    return [_key(f"{prefix}, {t}]") for t in range(count)]


def _parts(*parts) -> list:
    return [int(p) if isinstance(p, (int, np.integer, np.bool_)) else str(p) for p in parts]


def _key(text: str) -> int:
    return int.from_bytes(hashlib.blake2b(text.encode(), digest_size=8).digest(), "little")


class RowStream:
    """Rows of keyed Philox streams from one reused generator: ``rows(seeds, count)`` row t is
    ``generator(seeds[t]).random(count)``, on every call.

    Each row resets the one Philox's key, counter and buffer through a state dict of plain
    Python ints, which the state setter reads without converting NumPy scalars, so a stream
    kept across calls costs one rekeying a row and nothing more."""

    def __init__(self):
        self._bits = np.random.Philox(key=0)
        self._gen = np.random.Generator(self._bits)
        self._key = [0, 0]
        # buffer_pos 4: the buffer is empty, so a row never reads what the previous row left in it
        self._state = {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": self._key},
                       "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}

    def rows(self, seeds, count: int) -> np.ndarray:
        """``(len(seeds), count)`` uniforms on [0, 1), one row per seed."""
        out = np.empty((len(seeds), count))
        bits, state, key, random = self._bits, self._state, self._key, self._gen.random
        for row, seed in zip(out, seeds):
            key[0] = int(seed) & _MASK64
            bits.state = state
            random(out=row)
        return out


def generator(seed: int) -> np.random.Generator:
    """A Philox generator keyed by ``seed`` for bulk draws (matrix entries, permutations)."""
    return np.random.Generator(np.random.Philox(key=np.uint64(seed & _MASK64)))
