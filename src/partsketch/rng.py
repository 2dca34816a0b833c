"""Substream keys and counter-based uniform streams.

All randomness flows through Philox, every stream keyed by ``philox_key`` of its seed: the
i-th variate of a keyed stream is a pure function of (key, i), so batching or reordering never
changes the values drawn.  A substream's key is the BLAKE2b hash of its label path (``derive_seed``).
"""

from __future__ import annotations

import hashlib
import json

import numpy as np


def _is_integer(x) -> bool:
    """True for a Python or NumPy integer that is not a bool."""
    return type(x) is not bool and isinstance(x, (int, np.integer))


def _check_count(value, name: str, lo: int = 1) -> int:
    """``int(value)`` if ``value`` is an integer (``_is_integer``) >= ``lo``; else ``ValueError``."""
    if _is_integer(value) and value >= lo:
        return int(value)
    raise ValueError(f"{name} must be an integer >= {lo}, got {value!r}")


def philox_key(seed) -> int:
    """``int(seed)`` if ``seed`` is an integer (``_is_integer``) in [0, 2**64); else ``ValueError``."""
    if _is_integer(seed) and 0 <= int(seed) < 2 ** 64:
        return int(seed)
    raise ValueError(f"seed must be in [0, 2**64 - 1], got {seed}")


def derive_seed(master_seed: int, *path) -> int:
    """64-bit key of the substream ``path`` under ``master_seed``: 8-byte BLAKE2b, read
    little-endian, of the JSON list ``[master_seed, *path]``.  The master seed is any integer,
    negative or past 64 bits too, and each label an integer or a string; ints (NumPy ints too)
    are written exactly.  A bool, a float or any other part raises ``ValueError`` before hashing."""
    return _key(json.dumps(_parts(master_seed, *path)))


def derive_seeds(master_seed: int, path, count: int) -> list[int]:
    """``[derive_seed(master_seed, *path, t) for t in range(count)]``, from one JSON prefix.
    Raises ``ValueError`` unless ``count`` is an integer >= 0 (``_check_count``)."""
    prefix = json.dumps(_parts(master_seed, *path))[:-1]
    return [_key(f"{prefix}, {t}]") for t in range(_check_count(count, "count", lo=0))]


def _parts(master_seed, *path) -> list:
    if not _is_integer(master_seed):
        raise ValueError(f"master seed must be an integer, got {master_seed!r}")
    for p in path:
        if not (_is_integer(p) or isinstance(p, str)):
            raise ValueError(f"substream labels must be integers or strings, got {p!r}")
    return [int(master_seed), *(p if isinstance(p, str) else int(p) for p in path)]


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
        """``(len(seeds), count)`` uniforms on [0, 1), row t keyed by ``philox_key(seeds[t])``."""
        out = np.empty((len(seeds), count))
        bits, state, key, random = self._bits, self._state, self._key, self._gen.random
        for row, seed in zip(out, seeds):
            key[0] = philox_key(seed)
            bits.state = state
            random(out=row)
        return out


def generator(seed: int) -> np.random.Generator:
    """A Philox generator keyed by ``philox_key(seed)`` for bulk draws (matrix entries, permutations)."""
    return np.random.Generator(np.random.Philox(key=philox_key(seed)))
