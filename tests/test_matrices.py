import math
import os
import re
import stat
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from partsketch import (MatrixFileError, dense, frobenius_norm, multiply,
                        read_binary, read_csv, read_matrix, spectral_norm,
                        write_binary, write_csv)
from partsketch.matrices import _bitwise_equal, write_output
from helpers import block_product, random_coarsening

EPS = np.finfo(np.float64).eps

finite_matrices = hnp.arrays(
    np.float64,
    st.tuples(st.integers(1, 5), st.integers(1, 6)),
    elements=st.floats(-10, 10, allow_nan=False, allow_infinity=False, width=64),
)


def scan_csv(path):
    """The per-field float() scan: each stripped row of the file split at commas."""
    text = Path(path).read_text()
    return dense([[float(f) for f in line.split(",")] for line in text.strip().splitlines()])


def csv_outcome(read, path):
    """(shape, bytes) of the matrix ``read`` returns, or the message of its ``ValueError``."""
    try:
        a = read(path)
    except ValueError as exc:
        return str(exc)
    return a.shape, a.tobytes()


PAD = st.sampled_from(["", " ", "\t", "  \t "])
doubles = st.floats(width=64, allow_nan=False, allow_infinity=False)
numbers = st.one_of(
    doubles.map(repr), doubles.map(lambda v: "%.25g" % v), doubles.map(lambda v: "%.3e" % v),
    st.floats(-1e6, 1e6).map(repr), st.integers(-10 ** 20, 10 ** 20).map(str),
    st.sampled_from(["nan", "-NaN", "inf", "+Infinity", "-inf", "1e400", "-1e-400", "-0.0", "+.5",
                     "5.", "1E+3", "4.9e-324", "2.2250738585072011e-308", "1.7976931348623157e308"]),
)
fields = st.one_of(st.tuples(PAD, numbers, PAD).map("".join), numbers,
                   st.text("0123456789.+-eEnaif #\"", max_size=5))


@st.composite
def csv_texts(draw):
    """CSV text: padded decimals over mostly rectangular rows, with ragged rows, trailing
    commas, blank and whitespace-only lines, CRLF or CR line ends, and empty files."""
    cols = draw(st.integers(1, 4))
    lines = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["row"] * 8 + ["ragged", "comma", "blank", "space"]))
        if kind == "blank":
            lines.append("")
        elif kind == "space":
            lines.append(draw(PAD))
        else:
            width = draw(st.integers(1, 5)) if kind == "ragged" else cols
            lines.append(",".join(draw(fields) for _ in range(width)) + ("," if kind == "comma" else ""))
    eol = draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))
    return eol.join(lines) + draw(st.sampled_from(["", eol, eol * 3, eol + " " + eol]))


class TestDense:
    def test_accepts_nested_lists(self):
        a = dense([[1.0, 2.0], [3.0, 4.0]])
        assert a.shape == (2, 2)

    def test_result_is_readonly(self):
        a = dense([[1.0]])
        with pytest.raises(ValueError):
            a[0, 0] = 2.0

    @pytest.mark.parametrize("bad", [
        [[1.0, float("nan")]],
        [[float("inf")], [0.0]],
    ])
    def test_rejects_nonfinite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            dense(bad)

    def test_rejects_ragged_and_wrong_rank(self):
        with pytest.raises(ValueError):
            dense([[1.0, 2.0], [3.0]])
        with pytest.raises(ValueError, match="2-d"):
            dense([1.0, 2.0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            dense(np.zeros((0, 3)))


class TestMultiply:
    def test_identity(self):
        eye = dense(np.eye(2))
        assert np.array_equal(multiply(eye, eye), np.eye(2))

    def test_zero(self):
        a = dense([[1.0, 2.0], [3.0, 4.0]])
        z = dense(np.zeros((2, 2)))
        assert np.array_equal(multiply(a, z), np.zeros((2, 2)))

    def test_hand_product(self):
        a = dense([[1.0, 2.0], [3.0, 4.0]])
        b = dense([[5.0], [6.0]])
        assert np.array_equal(multiply(a, b), [[17.0], [39.0]])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            multiply(dense(np.ones((2, 3))), dense(np.ones((2, 2))))


class TestFrobeniusNorm:
    def test_zero(self):
        assert frobenius_norm(dense(np.zeros((3, 3)))) == 0.0

    def test_identity(self):
        assert frobenius_norm(dense(np.eye(3))) == pytest.approx(math.sqrt(3), rel=1e-15)

    def test_three_four_five(self):
        assert frobenius_norm(dense([[3.0, 4.0]])) == pytest.approx(5.0, rel=1e-15)


class TestSpectralNorm:
    def test_identity(self):
        assert spectral_norm(dense(np.eye(4))) == pytest.approx(1.0, rel=1e-10)

    def test_diagonal(self):
        assert spectral_norm(dense(np.diag([1.0, 5.0, 2.0]))) == pytest.approx(5.0, rel=1e-10)

    def test_nilpotent(self):
        # Gram matrix [[0,0],[0,4]] has characteristic roots 0 and 4, so the
        # largest singular value is 2.
        assert spectral_norm(dense([[0.0, 2.0], [0.0, 0.0]])) == pytest.approx(2.0, rel=1e-10)

    def test_zero_matrix(self):
        assert spectral_norm(dense(np.zeros((3, 2)))) == 0.0

    def test_matches_svd_on_random_matrices(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            m, n = (int(v) for v in rng.integers(1, 7, size=2))
            g = rng.normal(size=(m, n))
            sym = rng.normal(size=(n, n))
            for a in (dense(g), dense(sym + sym.T)):
                expected = np.linalg.svd(a, compute_uv=False)[0]
                bound = 8 * max(a.shape) * EPS * frobenius_norm(a)
                assert abs(spectral_norm(a) - expected) <= bound

    def test_symmetric_indefinite_takes_the_largest_magnitude(self):
        # eigenvalues -1 ± 2√2: the negative one has the larger magnitude
        a = dense([[1.0, 2.0], [2.0, -3.0]])
        assert abs(spectral_norm(a) - (1 + 2 * math.sqrt(2))) <= 16 * EPS * frobenius_norm(a)

    def test_one_by_one_negative(self):
        assert spectral_norm(dense([[-3.0]])) == 3.0

    def test_nearly_coincident_top_singular_values(self):
        # the case that stalls a power iteration: the top two singular values
        # agree to 1e-7, which LAPACK resolves exactly
        q1, _ = np.linalg.qr(np.random.default_rng(12).normal(size=(60, 60)))
        q2, _ = np.linalg.qr(np.random.default_rng(13).normal(size=(40, 40)))
        sigma = np.linspace(1.0, 0.1, 40)
        sigma[1] = 1.0 - 1e-7
        a = dense(q1[:, :40] @ np.diag(sigma) @ q2)
        assert spectral_norm(a) == pytest.approx(1.0, rel=1e-13)


class TestBlockProduct:
    def test_full_group_equals_multiply(self):
        rng = np.random.default_rng(0)
        a = dense(rng.random((3, 4)))
        b = dense(rng.random((4, 2)))
        assert np.array_equal(block_product(a, b, range(4)), multiply(a, b))

    def test_identity_singleton(self):
        eye = dense(np.eye(2))
        assert np.array_equal(block_product(eye, eye, [0]), [[1.0, 0.0], [0.0, 0.0]])

    def test_rank_one_block(self):
        a = dense([[1.0, 2.0], [3.0, 4.0]])
        b = dense([[5.0, 6.0], [7.0, 8.0]])
        # column 2 of a times row 2 of b, computed by hand
        assert np.array_equal(block_product(a, b, [1]), [[14.0, 16.0], [28.0, 32.0]])

    def test_errors(self):
        a = dense(np.ones((2, 3)))
        b = dense(np.ones((3, 2)))
        with pytest.raises(ValueError, match="nonempty"):
            block_product(a, b, [])
        with pytest.raises(ValueError, match="out of range"):
            block_product(a, b, [3])
        with pytest.raises(ValueError, match="out of range"):
            block_product(a, b, [-1])
        with pytest.raises(ValueError, match="mismatch"):
            block_product(a, dense(np.ones((2, 2))), [0])


class TestNormAndPartitionProperties:
    @settings(max_examples=60, derandomize=True)
    @given(finite_matrices, st.integers(0, 2**31 - 1))
    def test_partition_completeness(self, a_vals, seed):
        a = dense(a_vals)
        rng = np.random.default_rng(seed)
        b = dense(rng.random((a.shape[1], 3)) - 0.5)
        partition = random_coarsening(rng, a.shape[1]) if a.shape[1] >= 2 else None
        groups = partition.groups if partition else [(0,)]
        total = np.zeros((a.shape[0], b.shape[1]))
        for g in groups:
            total += block_product(a, b, g)
        exact = multiply(a, b)
        assert np.allclose(total, exact, rtol=1e-12, atol=1e-12)

    @settings(max_examples=60, derandomize=True)
    @given(finite_matrices)
    def test_spectral_below_frobenius(self, a_vals):
        a = dense(a_vals)
        assert spectral_norm(a) <= frobenius_norm(a) + 1e-8

    @settings(max_examples=40, derandomize=True)
    @given(finite_matrices, st.integers(0, 2**31 - 1))
    def test_block_norm_triangle_inequality(self, a_vals, seed):
        a = dense(a_vals)
        rng = np.random.default_rng(seed)
        b = dense(rng.random((a.shape[1], 2)) - 0.5)
        if a.shape[1] >= 2:
            partition = random_coarsening(rng, a.shape[1])
            groups = partition.groups
        else:
            groups = [(0,)]
        total = sum(frobenius_norm(block_product(a, b, g)) for g in groups)
        assert frobenius_norm(multiply(a, b)) <= total + 1e-9


class TestMatrixIO:
    def test_csv_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        a = dense(rng.random((3, 4)) * 1e3 - 500)
        path = tmp_path / "a.csv"
        write_csv(a, path)
        assert np.array_equal(read_csv(path), a)

    @pytest.mark.parametrize("text, bad", [
        ("1_0,2\n", "1_0"),  # float() reads 10.0
        ("1,2\n3,\u0661\n", "\u0661"),  # ARABIC-INDIC DIGIT ONE: float() reads 1.0
        ("1, 2\u00a0\n", " 2\u00a0"),  # a trailing non-ASCII space
        # str.splitlines would end a row at \v, \f, \x1c-\x1e, \x85, \u2028 and \u2029, and NumPy's
        # parser skips \x1c-\x1f as whitespace: every control character but tab is rejected
        *((f"1,2\n3{c}4,5\n", f"3{c}4") for c in "\x00\x0b\x0c\x1c\x1d\x1e\x1f\x7f\x85\u2028\u2029"),
    ])
    def test_csv_rejects_separators_and_non_ascii(self, tmp_path, text, bad):
        path = tmp_path / "a.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"line {text.count(chr(10))}: {bad!r} is not")):
            read_csv(path)

    def test_csv_accepted_forms_parse_as_before(self, tmp_path):
        # signs, padding, exponents and CRLF line ends parse to float()'s bytes
        path = tmp_path / "a.csv"
        path.write_bytes(b"+1, 1.5 \r\n1e5,1E-1\r\n-0.25,7\r\n")
        expected = np.array([[float("+1"), float(" 1.5 ")], [float("1e5"), float("1E-1")],
                             [-0.25, 7.0]])
        assert read_csv(path).tobytes() == expected.tobytes()

    @settings(max_examples=300, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=csv_texts())
    def test_csv_reads_as_the_float_scan(self, tmp_path, text):
        # NumPy's C parser and the per-field float() scan give the same bytes or the same message
        path = tmp_path / "a.csv"
        path.write_bytes(text.encode())
        assert csv_outcome(read_csv, path) == csv_outcome(scan_csv, path)

    def test_csv_writer_bytes(self, tmp_path):
        # the bytes of one repr(float(v)) per value, as the writer has always written them
        a = np.array([[-0.0, 0.0, 5e-324, -2.2250738585072009e-308, 2.225073858507201e-308],
                      [1e308, -1e308, 1.0, -3.0, 2.0 ** 53], [1e16, 0.1, 1 / 3, 123456789.0, -7.5]])
        for m in (a, a[:, :1], a[:1], np.array([[1, -2], [3, 4]])):
            expected = "\n".join(",".join(repr(float(v)) for v in row) for row in m) + "\n"
            write_csv(m, tmp_path / "m.csv")
            assert (tmp_path / "m.csv").read_text() == expected

    @settings(max_examples=150, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(hnp.arrays(np.float64, st.integers(1, 7).map(lambda n: (n, n)), elements=st.one_of(
        st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1.7976931348623157e308,
                         -1e308, 1 / 3]), doubles)))
    def test_csv_writer_bytes_of_a_symmetric_matrix(self, tmp_path, x):
        # a matrix equal to its transpose bit for bit writes one repr per upper-triangle entry and
        # its mirror: the bytes of the row-by-row join
        m = np.where(np.triu(np.ones(x.shape, dtype=bool)), x, x.T)
        assert _bitwise_equal(m, m.T)
        write_csv(m, tmp_path / "m.csv")
        assert (tmp_path / "m.csv").read_text() == "\n".join(",".join(map(repr, row)) for row in m.tolist()) + "\n"
        if m.shape[0] > 1:  # a 0.0 mirrored by a -0.0 is not symmetric bit for bit: the plain path
            m[0, 1], m[1, 0] = 0.0, -0.0
            assert not _bitwise_equal(m, m.T)
            write_csv(m, tmp_path / "m.csv")
            lines = (tmp_path / "m.csv").read_text().split("\n")
            assert lines[0].split(",")[1] == "0.0" and lines[1].split(",")[0] == "-0.0"
            assert "\n".join(lines) == "\n".join(",".join(map(repr, row)) for row in m.tolist()) + "\n"

    @pytest.mark.parametrize("writer", [write_csv, write_binary])
    @pytest.mark.parametrize("shape", [(3,), (), (2, 2, 2)])
    def test_writers_refuse_a_non_matrix_before_opening_the_file(self, tmp_path, writer, shape):
        # a 1-d shape would get an 8-byte header that read_binary refuses, and a csv row a float
        path = tmp_path / "m.out"
        with pytest.raises(ValueError, match="matrix must be 2-d"):
            writer(np.arange(float(np.prod(shape))).reshape(shape), path)
        assert not path.exists()

    def test_output_is_rewritten_in_place(self, tmp_path):
        # a longer file is cut to the new bytes; the inode, a hard link and the mode are kept
        path = tmp_path / "out.csv"
        path.write_bytes(b"junk," * 1000)
        os.chmod(path, 0o640)
        os.link(path, tmp_path / "link.csv")
        inode = path.stat().st_ino
        write_csv(np.array([[1.0, -2.5]]), path)
        assert path.read_bytes() == (tmp_path / "link.csv").read_bytes() == b"1.0,-2.5\n"
        assert path.stat().st_ino == inode and stat.S_IMODE(path.stat().st_mode) == 0o640
        write_output(path, "a longer text\n")
        write_binary(dense([[1.5]]), path)
        assert np.array_equal(read_binary(path), [[1.5]])

    def test_binary_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(6)
        a = dense(rng.normal(size=(4, 2)))
        path = tmp_path / "a.bin"
        write_binary(a, path)
        assert np.array_equal(read_binary(path), a)

    def test_binary_layout(self, tmp_path):
        a = dense([[1.5, -2.0]])
        path = tmp_path / "a.bin"
        write_binary(a, path)
        raw = path.read_bytes()
        assert np.frombuffer(raw[:16], dtype="<i8").tolist() == [1, 2]
        assert np.frombuffer(raw[16:], dtype="<f8").tolist() == [1.5, -2.0]

    def test_binary_rejects_truncation(self, tmp_path):
        # a 10^9 x 10^9 header would claim 8 EB: checked against the file size, never allocated
        path = tmp_path / "a.bin"
        for header in ((1, 2), (10**9, 10**9)):
            path.write_bytes(np.array(header, dtype="<i8").tobytes() + b"\0" * 12)
            with pytest.raises(MatrixFileError, match="payload size does not match header"):
                read_matrix(path)

    def test_binary_read_holds_one_payload(self, tmp_path):
        # the payload is read in place: no slice of the file's bytes and no copy of them
        a = dense(np.random.default_rng(8).random((1024, 1024)) - 0.5)  # 8 MiB
        path = tmp_path / "a.bin"
        write_binary(a, path)
        payload = a.nbytes
        del a
        tracemalloc.start()
        try:
            loaded = read_matrix(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * payload
        assert loaded.shape == (1024, 1024) and not loaded.flags.writeable
        assert np.array_equal(loaded, np.fromfile(path, dtype="<f8", offset=16).reshape(1024, 1024))

    def test_csv_read_is_frozen_and_row_major(self, tmp_path):
        # loadtxt's own array, frozen where it lies: row-major, as dense would copy it
        path = tmp_path / "a.csv"
        path.write_text("1,2\n3,4\n")
        a = read_csv(path)
        assert a.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert not a.flags.writeable and a.flags.c_contiguous

    def test_read_matrix_dispatch(self, tmp_path):
        a = dense([[1.0], [2.0]])
        write_csv(a, tmp_path / "a.csv")
        write_binary(a, tmp_path / "a.bin")
        assert np.array_equal(read_matrix(tmp_path / "a.csv"), a)
        assert np.array_equal(read_matrix(tmp_path / "a.bin"), a)

    @pytest.mark.parametrize("name, content", [("t.bin", b"abc"), ("t.csv", b"1,2\n3\n"), ("t.csv", b"\xff")])
    def test_read_matrix_names_a_malformed_file_once(self, tmp_path, name, content):
        path = tmp_path / name
        path.write_bytes(content)
        with pytest.raises(MatrixFileError) as info:
            read_matrix(path)
        assert isinstance(info.value, ValueError)
        assert str(info.value).startswith(f"{path}: ") and str(info.value).count(str(path)) == 1
