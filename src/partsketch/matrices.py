"""Dense matrices: validated construction, exact products, norms, and file I/O.

Matrices are plain 2-d float64 numpy arrays, frozen (read-only) after
construction so they can be shared freely across threads.  All index
arguments in this package are 0-based; serialized formats that carry
indices use 1-based values (see :mod:`partsketch.partitions`).
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .errors import MatrixFileError


def dense(values) -> np.ndarray:
    """Build a validated, read-only matrix from nested sequences or an array.

    Rejects non-2-d input, empty dimensions, and non-finite entries.
    """
    try:
        a = np.array(values, dtype=np.float64, order="C", copy=True)
    except ValueError as exc:
        raise ValueError(f"not a rectangular matrix: {exc}") from None
    if a.ndim != 2:
        raise ValueError(f"matrix must be 2-d, got shape {a.shape}")
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"matrix dimensions must be positive, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    a.flags.writeable = False
    return a


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _check_conformable(a: np.ndarray, b: np.ndarray) -> None:
    """Raise ``ValueError`` unless ``a @ b`` conforms: ``a``'s columns are ``b``'s rows."""
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"dimension mismatch: {a.shape} x {b.shape}")


def multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact product ``a @ b``; raises on inner-dimension mismatch."""
    _check_conformable(a, b)
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


def block_product(a: np.ndarray, b: np.ndarray, group) -> np.ndarray:
    """Product restricted to one index group: columns ``group`` of ``a`` times rows ``group`` of ``b``.

    Summing this over the groups of any partition of the inner axis recovers
    ``multiply(a, b)``.  Indices are 0-based and must be in range; the group
    must be nonempty.
    """
    _check_conformable(a, b)
    idx = np.asarray(group, dtype=np.intp)
    if idx.ndim != 1 or idx.size == 0:
        raise ValueError("group must be a nonempty 1-d index list")
    if idx.min() < 0 or idx.max() >= a.shape[1]:
        raise ValueError(f"group index out of range [0, {a.shape[1]})")
    return _frozen(a[:, idx] @ b[idx, :])


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def write_csv(a: np.ndarray, path) -> None:
    """One matrix row per line, comma-separated ``repr`` decimals (lossless round trip)."""
    text = "\n".join(",".join(repr(float(v)) for v in row) for row in a) + "\n"
    Path(path).write_text(text)


def read_csv(path) -> np.ndarray:
    """Comma-separated decimals, one matrix row per line.

    Fields are read by ``float()`` but must be plain ASCII without ``_``:
    ``float()`` alone would read ``1_0`` as 10 and non-ASCII digits as decimals.
    """
    text = Path(path).read_text()
    if "_" in text or not text.isascii():
        lineno, field = next((i, f) for i, line in enumerate(text.splitlines(), 1)
                             for f in line.split(",") if "_" in f or not f.isascii())
        raise ValueError(f"line {lineno}: {field!r} is not a plain ASCII decimal number")
    rows = []
    for line in text.strip().splitlines():
        rows.append([float(field) for field in line.split(",")])
    return dense(rows)


def write_binary(a: np.ndarray, path) -> None:
    """Binary layout: int64-LE rows, int64-LE cols, then rows*cols float64-LE row-major."""
    with open(path, "wb") as fh:
        fh.write(np.asarray(a.shape, dtype="<i8").tobytes())
        fh.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


def read_binary(path) -> np.ndarray:
    raw = Path(path).read_bytes()
    if len(raw) < 16:
        raise ValueError("truncated header")
    rows, cols = (int(v) for v in np.frombuffer(raw[:16], dtype="<i8"))
    if rows < 1 or cols < 1:
        raise ValueError(f"invalid dimensions {rows}x{cols}")
    if len(raw) != 16 + rows * cols * 8:
        raise ValueError("payload size does not match header")
    return dense(np.frombuffer(raw[16:], dtype="<f8").reshape(rows, cols))


def read_matrix(path) -> np.ndarray:
    """Dispatch on extension: ``.bin`` binary layout, anything else CSV.  A file that does not
    hold a valid matrix raises :class:`MatrixFileError`, a ``ValueError`` reading ``"<path>: <reason>"``."""
    try:
        return read_binary(path) if str(path).endswith(".bin") else read_csv(path)
    except ValueError as exc:
        raise MatrixFileError(f"{path}: {exc}") from None
