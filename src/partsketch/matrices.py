"""Dense matrices: validated construction, exact products, norms, and file I/O.

Matrices are plain 2-d float64 numpy arrays of finite entries (``_matrix``, the one rule for
every matrix a caller passes in), frozen (read-only) where the package keeps them, so they can
be shared freely across threads.  ``dense`` copies its input into a C-ordered array; the file
readers check and freeze the array they read in place, so a ``.bin`` matrix is a view of the
file's bytes.  A caller's pair enters by one intake (``_pair``).  A plan that outlives its call
owns copies (``_plan_copies``) with A column-major, as an experiment's A is made, so the ``Aᵀ``
panel the sketch engine gathers rows from is a view of A.  All index arguments in this package are
0-based; serialized formats that carry indices use 1-based values (see :mod:`partsketch.partitions`).
"""

from __future__ import annotations

import math
import os
import stat
from pathlib import Path

import numpy as np

from .errors import MatrixFileError

# The package's one temporaries budget, in float64 entries (256 KiB): every block it sizes (a
# sketch call's draw blocks, an estimate's gather blocks, a group-weight batch and an experiment
# matrix's write blocks) holds about this many.  Measured (CHANGES.md): desk fig1 and paper fig2
# calls stay within 2% of each other from 2**14 to 2**17, and 2**13 costs 4-6%; a finest plan
# plus its enhanced pair weights takes 0.49 ms at desk and 2.15-2.24 ms at 100x2000, against
# 0.49 and 2.39-2.48 ms in 256-index batches, and 14-30% more at 2**14 or 2**16.
_BLOCK_ENTRIES = 2 ** 15
_EPS = float(np.finfo(np.float64).eps)


def dense(values) -> np.ndarray:
    """Build a validated, read-only matrix from nested sequences or an array: a C-ordered
    copy, checked by ``_matrix``."""
    return _frozen(np.array(_matrix(values), order="C"))


def _matrix(values) -> np.ndarray:
    """``values`` as a float64 array (no copy of a float64 one, nothing frozen): the one rule every matrix a caller
    passes in meets.  Rejects a ragged sequence, non-2-d input, empty dimensions, and non-finite entries."""
    try:
        a = np.asarray(values, dtype=np.float64)
    except ValueError as exc:
        raise ValueError(f"not a rectangular matrix: {exc}") from None
    if a.ndim != 2:
        raise ValueError(f"matrix must be 2-d, got shape {a.shape}")
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"matrix dimensions must be positive, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _is_transpose(a, b) -> bool:
    """True when ``b`` is ``a.T``: arrays of one dtype, the same buffer read with reversed shape and strides."""
    return (isinstance(a, np.ndarray) and isinstance(b, np.ndarray) and a.dtype == b.dtype and b.shape == a.shape[::-1]
            and b.strides == a.strides[::-1] and b.ctypes.data == a.ctypes.data)


def _pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    """The one intake of a caller's pair: ``_matrix(a)``, and as ``b`` that array's ``.T`` when the caller's ``b`` is
    ``a.T`` (``_is_transpose``), so a pair of any dtype stays one and ``syrk`` applies, else ``_matrix(b)``;
    then ``_conforming``."""
    pa = _matrix(a)
    return _conforming(pa, pa.T if _is_transpose(a, b) else _matrix(b))


def _conforming(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(a, b)``, unless ``a``'s columns are not ``b``'s rows: ``ValueError("dimension mismatch: …")``."""
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"dimension mismatch: {a.shape} x {b.shape}")
    return a, b


def _plan_copies(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Frozen float64 copies of a caller's pair (``_pair``) for a plan to own, which no write to the caller's
    arrays reaches: ``a``'s column-major, so its ``.T``, the engine's ``Aᵀ`` panel, is C-contiguous, and ``b``'s
    that copy's ``.T`` when ``_pair`` kept ``b`` as ``a.T``, so ``syrk`` still applies, else row-major."""
    a, b = _pair(a, b)
    own = _frozen(np.array(a, order="F"))
    return own, own.T if _is_transpose(a, b) else _frozen(np.array(b, order="C"))


def multiply(a, b) -> np.ndarray:
    """Exact product ``a @ b``, read-only float64; ``ValueError`` unless the pair passes ``_pair``."""
    a, b = _pair(a, b)
    return _frozen(a @ b)


def frobenius_norm(a: np.ndarray) -> float:
    """sqrt of the sum of squared entries."""
    return float(np.linalg.norm(a))


def spectral_norm(a: np.ndarray) -> float:
    """Largest singular value: square root of the top eigenvalue of the smaller Gram matrix.

    The eigenvalue comes from LAPACK's symmetric solver (``eigvalsh``), so the
    result is exact to rounding, with no iteration budget or tolerance.
    """
    gram = a @ a.T if a.shape[0] <= a.shape[1] else a.T @ a
    return math.sqrt(max(float(np.linalg.eigvalsh(gram)[-1]), 0.0))


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def _open_untruncated(path, flags: int) -> int:
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


def write_output(path, data) -> None:
    """Write ``data`` (``str`` as UTF-8, or bytes) as the whole of the file at ``path``, rewritten in place.

    The file is opened without ``O_TRUNC`` (on ext4 mounted with ``discard``,
    truncating a 45 KB file to zero and writing it again took about eight times
    as long as rewriting it in place), written, and then truncated to the
    written length if it is a regular file (``ftruncate`` fails on a device such
    as ``/dev/null``).  A symlink is followed; the inode and the file mode are
    kept.  The result's bytes do not depend on what the file held, but a run
    killed mid-write can leave new bytes ahead of old ones.  Raises ``OSError``
    when the file cannot be written.
    """
    if isinstance(data, str):
        data = data.encode()
    with open(path, "wb", opener=_open_untruncated) as fh:
        fh.write(data)
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate()


def write_csv(a: np.ndarray, path) -> None:
    """One matrix row per line, comma-separated ``repr`` decimals (lossless round trip)."""
    rows = np.asarray(a, dtype=np.float64).tolist()
    write_output(path, "\n".join(",".join(map(repr, row)) for row in rows) + "\n")


# What a CSV may hold: tab, "\n" and printable ASCII other than ``_``.  ``read_text``
# has already turned CRLF and CR line ends into "\n", so rows end only there.
_CSV_CHARS = bytes([9, 10, *(c for c in range(0x20, 0x7f) if c != ord("_"))])


def _not_plain(s: str) -> bytes:
    """The UTF-8 bytes of ``s`` that a CSV may not hold; empty when there are none."""
    return s.encode().translate(None, _CSV_CHARS)


def read_csv(path) -> np.ndarray:
    """Comma-separated decimals, one matrix row per line.

    A field is read as ``float()`` reads it, but must be plain ASCII without ``_``
    or control characters other than tab: ``float()`` alone would read ``1_0``
    as 10 and non-ASCII digits as decimals, and ``str.splitlines`` would end a
    row at a form feed.  NumPy's C parser (``np.loadtxt``) reads the rows.  Only
    when it raises or skips a blank line does the ``float()`` scan run: the scan
    defines what is accepted and gives every error message.
    """
    text = Path(path).read_text(encoding="utf-8")
    if _not_plain(text):
        lineno, field = next((i, f) for i, line in enumerate(text.split("\n"), 1)
                             for f in line.split(",") if _not_plain(f))
        raise ValueError(f"line {lineno}: {field!r} is not a plain ASCII decimal number")
    body = text.strip()
    lines = body.split("\n") if body else []
    if lines:  # loadtxt warns on no rows
        try:
            a = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2, dtype=np.float64)
        except ValueError:
            pass
        else:
            if a.shape[0] == len(lines):  # loadtxt skips blank lines, which the scan rejects
                return _frozen(_matrix(a))
    return dense([[float(field) for field in line.split(",")] for line in lines])


def write_binary(a: np.ndarray, path) -> None:
    """Binary layout: int64-LE rows, int64-LE cols, then rows*cols float64-LE row-major."""
    header = np.asarray(a.shape, dtype="<i8").tobytes()
    write_output(path, header + np.ascontiguousarray(a, dtype="<f8").tobytes())


def read_binary(path) -> np.ndarray:
    """The ``write_binary`` layout, checked and frozen as a view of the file's bytes: the
    payload is never copied, and a header is checked against the file's size before
    anything is allocated for it."""
    raw = Path(path).read_bytes()
    if len(raw) < 16:
        raise ValueError("truncated header")
    rows, cols = (int(v) for v in np.frombuffer(raw[:16], dtype="<i8"))
    if rows < 1 or cols < 1:
        raise ValueError(f"invalid dimensions {rows}x{cols}")
    if len(raw) != 16 + rows * cols * 8:
        raise ValueError("payload size does not match header")
    payload = np.frombuffer(memoryview(raw)[16:], dtype="<f8")
    return _frozen(_matrix(payload.reshape(rows, cols)))


def read_matrix(path) -> np.ndarray:
    """Dispatch on extension: ``.bin`` binary layout, anything else CSV.  A file that does not
    hold a valid matrix raises :class:`MatrixFileError`, a ``ValueError`` reading ``"<path>: <reason>"``."""
    try:
        return read_binary(path) if str(path).endswith(".bin") else read_csv(path)
    except ValueError as exc:
        raise MatrixFileError(f"{path}: {exc}") from None
