import gzip
import io

import numpy as np
import pytest

from extracd.data import (CscMatrix, Dataset, binarize_labels,
                          gen_correlated_gaussian, load_sample, parse_libsvm,
                          serialize_libsvm)
from extracd.errors import ArgumentError, ParseError


def random_sparse(n, p, density, seed):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, p))
    M[rng.random((n, p)) > density] = 0.0
    return M


class TestCscMatrix:
    def test_dense_round_trip(self):
        M = random_sparse(13, 7, 0.4, seed=0)
        A = CscMatrix.from_dense(M)
        assert A.n_rows == 13 and A.n_cols == 7
        assert A.nnz == np.count_nonzero(M)
        np.testing.assert_array_equal(A.toarray(), M)

    def test_matvec_rmatvec_against_dense(self):
        rng = np.random.default_rng(1)
        M = random_sparse(20, 11, 0.3, seed=2)
        A = CscMatrix.from_dense(M)
        x = rng.standard_normal(11)
        v = rng.standard_normal(20)
        np.testing.assert_allclose(A.matvec(x), M @ x, rtol=1e-13)
        np.testing.assert_allclose(A.rmatvec(v), M.T @ v, rtol=1e-13)
        np.testing.assert_allclose(A.col_norms_sq(), (M * M).sum(axis=0),
                                   rtol=1e-13)

    def test_matvec_shape_check(self):
        A = CscMatrix.from_dense(np.eye(3))
        with pytest.raises(ArgumentError):
            A.matvec(np.zeros(4))
        with pytest.raises(ArgumentError):
            A.rmatvec(np.zeros(4))

    def test_empty_matrix(self):
        A = CscMatrix.from_dense(np.zeros((4, 3)))
        assert A.nnz == 0
        np.testing.assert_array_equal(A.matvec(np.ones(3)), np.zeros(4))

    def test_invariant_violations(self):
        with pytest.raises(ArgumentError):
            CscMatrix(2, 1, np.array([0, 1]), np.array([5]), np.array([1.0]))
        with pytest.raises(ArgumentError):
            CscMatrix(2, 1, np.array([0, 3]), np.array([0, 1]),
                      np.array([1.0, 2.0]))
        with pytest.raises(ArgumentError):
            # duplicate row index inside a column
            CscMatrix(3, 1, np.array([0, 2]), np.array([1, 1]),
                      np.array([1.0, 2.0]))
        with pytest.raises(ArgumentError):
            CscMatrix(2, 1, np.array([0, 1]), np.array([0]),
                      np.array([np.nan]))

    def test_row_order_checked_within_columns_only(self):
        # rows fall across every column boundary; empty columns at both
        # ends and in between
        col_ptr = np.array([0, 0, 1, 1, 3, 3])
        A = CscMatrix(3, 5, col_ptr, np.array([2, 0, 1]), np.ones(3))
        assert A.nnz == 3
        for rows, bad_col in (([2, 1, 0], 3), ([2, 1, 1], 3)):
            with pytest.raises(ArgumentError, match=f"in column {bad_col} "):
                CscMatrix(3, 5, col_ptr, np.array(rows), np.ones(3))
        with pytest.raises(ArgumentError, match="in column 2 "):
            CscMatrix(3, 4, np.array([0, 1, 1, 4, 4]),
                      np.array([0, 0, 2, 1]), np.ones(4))

    @pytest.mark.parametrize("shape", [(6, 5), (1, 4), (4, 1), (0, 3),
                                       (3, 0)])
    def test_from_dense_matches_column_loop(self, shape):
        M = random_sparse(*shape, 0.4, seed=sum(shape))
        if M.size:
            M[:, 0] = 0.0
            M[0, -1] = -0.0
        A = CscMatrix.from_dense(M)
        nz = [np.nonzero(M[:, j])[0] for j in range(M.shape[1])]
        col_ptr = np.cumsum([0] + [r.size for r in nz])
        rows = np.concatenate(nz) if nz else np.empty(0, dtype=np.int64)
        vals = np.array([M[i, j] for j, r in enumerate(nz) for i in r])
        assert A.col_ptr.tobytes() == col_ptr.astype(np.int64).tobytes()
        assert A.row_idx.tobytes() == rows.astype(np.int64).tobytes()
        assert A.values.tobytes() == vals.astype(np.float64).tobytes()

    def test_arrays_read_only(self):
        A = CscMatrix.from_dense(np.eye(2))
        with pytest.raises(ValueError):
            A.values[0] = 7.0


class TestDataset:
    def test_label_length_checked(self):
        A = CscMatrix.from_dense(np.eye(3))
        with pytest.raises(ArgumentError):
            Dataset(A, np.zeros(2))

    def test_nonfinite_labels_rejected(self):
        A = CscMatrix.from_dense(np.eye(2))
        with pytest.raises(ArgumentError):
            Dataset(A, np.array([1.0, np.inf]))


GOLDEN = """\
# tiny regression set
1.5 1:2.0 3:-0.5
-1 2:4
0 # row with no features
"""


class TestParseLibsvm:
    def test_golden_text(self):
        ds = parse_libsvm(GOLDEN.encode())
        np.testing.assert_array_equal(ds.y, [1.5, -1.0, 0.0])
        expected = np.array([[2.0, 0.0, -0.5],
                             [0.0, 4.0, 0.0],
                             [0.0, 0.0, 0.0]])
        np.testing.assert_array_equal(ds.A.toarray(), expected)

    def test_file_and_gzip_sources(self, tmp_path):
        plain = tmp_path / "d.libsvm"
        plain.write_text(GOLDEN)
        zipped = tmp_path / "d.libsvm.gz"
        zipped.write_bytes(gzip.compress(GOLDEN.encode()))
        for src in (str(plain), str(zipped), plain, zipped,
                    io.BytesIO(GOLDEN.encode()), GOLDEN.encode()):
            ds = parse_libsvm(src)
            assert ds.A.n_rows == 3 and ds.A.n_cols == 3

    def test_n_cols_pads_only(self):
        ds = parse_libsvm(b"1 2:1.0\n", n_cols=5)
        assert ds.A.n_cols == 5
        with pytest.raises(ArgumentError):
            parse_libsvm(b"1 2:1.0\n", n_cols=1)

    @pytest.mark.parametrize("text,lineno,frag", [
        ("1 1:1\nx 1:1\n", 2, "bad label"),
        ("1 junk\n", 1, "index:value"),
        ("1 a:1\n", 1, "pair"),
        ("1 0:1\n", 1, ">= 1"),
        ("1 2:1 2:3\n", 1, "not increasing"),
        ("1 3:1 2:3\n", 1, "not increasing"),
        ("1 1:inf\n", 1, "non-finite"),
    ])
    def test_errors_carry_line_numbers(self, text, lineno, frag):
        with pytest.raises(ParseError) as err:
            parse_libsvm(text.encode())
        assert f"line {lineno}:" in str(err.value)
        assert frag in str(err.value)

    def test_round_trip_random(self):
        M = random_sparse(17, 9, 0.35, seed=4)
        y = np.random.default_rng(5).standard_normal(17)
        ds = Dataset(CscMatrix.from_dense(M), y)
        back = parse_libsvm(serialize_libsvm(ds).encode(), n_cols=9)
        np.testing.assert_array_equal(back.A.toarray(), M)
        np.testing.assert_array_equal(back.y, y)


class TestBinarize:
    def test_two_values(self):
        out = binarize_labels(np.array([3.0, 7.0, 3.0]))
        np.testing.assert_array_equal(out, [-1.0, 1.0, -1.0])

    def test_wrong_cardinality(self):
        with pytest.raises(ArgumentError):
            binarize_labels(np.array([1.0, 2.0, 3.0]))
        with pytest.raises(ArgumentError):
            binarize_labels(np.ones(4))


class TestSynthetic:
    def test_shapes_and_determinism(self):
        ds1, x1 = gen_correlated_gaussian(30, 50, corr=0.6, snr=2.0, seed=9)
        ds2, x2 = gen_correlated_gaussian(30, 50, corr=0.6, snr=2.0, seed=9)
        assert ds1.A.n_rows == 30 and ds1.A.n_cols == 50
        np.testing.assert_array_equal(ds1.A.toarray(), ds2.A.toarray())
        np.testing.assert_array_equal(ds1.y, ds2.y)
        np.testing.assert_array_equal(x1, x2)
        assert np.count_nonzero(x1) == 5

    def test_seed_changes_data(self):
        ds1, _ = gen_correlated_gaussian(10, 10, seed=0)
        ds2, _ = gen_correlated_gaussian(10, 10, seed=1)
        assert not np.array_equal(ds1.y, ds2.y)

    def test_column_correlation(self):
        # adjacent columns correlate near the AR parameter
        ds, _ = gen_correlated_gaussian(4000, 6, corr=0.7, seed=2)
        M = ds.A.toarray()
        r = np.corrcoef(M[:, 2], M[:, 3])[0, 1]
        assert abs(r - 0.7) < 0.05

    def test_validation(self):
        with pytest.raises(ArgumentError):
            gen_correlated_gaussian(0, 5)
        with pytest.raises(ArgumentError):
            gen_correlated_gaussian(5, 5, corr=1.0)
        with pytest.raises(ArgumentError):
            gen_correlated_gaussian(5, 5, snr=0.0)


def test_load_sample():
    ds = load_sample()
    assert ds.A.n_rows == 120 and ds.A.n_cols == 60
    assert set(np.unique(ds.y)) == {-1.0, 1.0}
    assert ds.name == "sample"
