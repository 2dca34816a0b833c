import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from partsketch import (MatrixFileError, block_product, dense, frobenius_norm, multiply,
                        read_binary, read_csv, read_matrix, spectral_norm,
                        write_binary, write_csv)
from helpers import random_coarsening

finite_matrices = hnp.arrays(
    np.float64,
    st.tuples(st.integers(1, 5), st.integers(1, 6)),
    elements=st.floats(-10, 10, allow_nan=False, allow_infinity=False, width=64),
)


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
            a = dense(rng.normal(size=(int(rng.integers(1, 7)), int(rng.integers(1, 7)))))
            expected = np.linalg.svd(a, compute_uv=False)[0]
            assert spectral_norm(a) == pytest.approx(expected, rel=1e-12, abs=1e-12)

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
        a = dense([[1.0, 2.0]])
        path = tmp_path / "a.bin"
        write_binary(a, path)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(ValueError, match="payload"):
            read_binary(path)

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
