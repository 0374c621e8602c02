import gzip
import io
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extracd import data
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

    def test_columns_count_negative_indices_from_the_end(self):
        # column -1 once read past the pointers into a zero column, -4 read
        # column 0, and 3 raised numpy's error on the pointer array
        A = CscMatrix.from_dense(np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]))
        np.testing.assert_array_equal(A.columns([-1]), [[3.0], [6.0]])
        np.testing.assert_array_equal(A.columns(np.array([2, -3])),
                                      [[3.0, 1.0], [6.0, 4.0]])
        for bad in ([-4], [3]):
            with pytest.raises(IndexError, match=r"outside \[-3, 3\)"):
                A.columns(bad)
        assert CscMatrix.from_dense(np.zeros((2, 0))).toarray().shape == (2, 0)

    def test_column_index_errors_name_cols(self):
        # they once named ``order``, which ``columns`` does not take
        A = CscMatrix.from_dense(np.ones((2, 3)))
        with pytest.raises(IndexError,
                           match=r"^cols holds an index outside \[-3, 3\)$"):
            A.columns([3])
        for bad in ([0.5], [[1]]):
            with pytest.raises(TypeError, match="^cols must be a 1-d array "
                                                "of integers, not "):
                A.columns(bad)

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

    @pytest.mark.parametrize("make,match", [
        (lambda: CscMatrix(-1, 0, [0], [], []), "nonnegative"),
        (lambda: CscMatrix(2, 2, [0, 1], [0], [1.0]), "n_cols \\+ 1"),
        (lambda: CscMatrix(2, 2, [0, 2, 1], [0], [1.0]), "nondecreasing"),
        (lambda: CscMatrix(2, 1, [0, 1], [0, 1], [1.0]), "equal length"),
        (lambda: CscMatrix.from_dense(np.ones(3)), "2-d"),
    ], ids=["negative-size", "col_ptr-length", "col_ptr-decreasing",
            "row_idx-length", "from_dense-1d"])
    def test_input_checks(self, make, match):
        with pytest.raises(ArgumentError, match=match):
            make()

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

    def test_holds_read_only_copies(self):
        # views of writable bases that already have the stored dtypes:
        # changing the bases after the checks leaves the matrix as it was
        col_base = np.array([0, 1, 2], dtype=np.int64)
        row_base = np.array([0, 1], dtype=np.int64)
        base = np.array([1.0, 2.0])
        A = CscMatrix(2, 2, col_base[:], row_base[:], base[:])
        col_base[1], row_base[0], base[0] = 2, 5, np.nan
        assert A.col_ptr.tolist() == [0, 1, 2]
        assert A.row_idx.tolist() == [0, 1]
        assert A.values.tolist() == [1.0, 2.0]
        for arr in (col_base, row_base, base):
            assert arr.flags.writeable


class TestDataset:
    def test_label_length_checked(self):
        A = CscMatrix.from_dense(np.eye(3))
        with pytest.raises(ArgumentError):
            Dataset(A, np.zeros(2))

    def test_nonfinite_labels_rejected(self):
        A = CscMatrix.from_dense(np.eye(2))
        with pytest.raises(ArgumentError):
            Dataset(A, np.array([1.0, np.inf]))

    def test_holds_a_read_only_copy(self):
        base = np.array([1.0, -1.0])
        ds = Dataset(CscMatrix.from_dense(np.eye(2)), base[:])
        base[0] = np.inf
        assert ds.y.tolist() == [1.0, -1.0]
        assert base.flags.writeable and not ds.y.flags.writeable


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
                    io.BytesIO(GOLDEN.encode()), io.StringIO(GOLDEN),
                    GOLDEN.encode()):
            ds = parse_libsvm(src)
            assert ds.A.n_rows == 3 and ds.A.n_cols == 3

    def test_unknown_source_kind_rejected(self):
        with pytest.raises(ArgumentError, match="source must be"):
            parse_libsvm(42)

    def test_n_cols_pads_only(self):
        ds = parse_libsvm(b"1 2:1.0\n", n_cols=5)
        assert ds.A.n_cols == 5
        with pytest.raises(ArgumentError):
            parse_libsvm(b"1 2:1.0\n", n_cols=1)

    @pytest.mark.parametrize("text,lineno,frag", [
        ("1 1:1\nx 1:1\n", 2, "bad label"),
        ("1 1:1\ninf 2:1\n", 2, "non-finite label"),
        ("nan 1:1\n", 1, "non-finite label"),
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

    @pytest.mark.parametrize("text,frag", [
        ("1 1:1\n1_0 2:1\n", "bad label '1_0'"),
        ("1 1:1\n1 1_0:2\n", "bad index:value pair '1_0:2'"),
        ("1 1:1\n1 3:1e1_0\n", "bad index:value pair '3:1e1_0'"),
        ("1 1:1\n1 ３:2\n", "bad index:value pair '３:2'"),
        ("1 1:1\n1 3:١.5\n", "bad index:value pair '3:١.5'"),
    ], ids=["label_underscore", "index_underscore", "value_underscore",
            "fullwidth_index", "arabic_indic_value"])
    def test_only_ascii_numbers_without_underscores(self, text, frag):
        # int() and float() read all of these as numbers
        with pytest.raises(ParseError) as err:
            parse_libsvm(text.encode())
        assert err.value.line == 2
        assert frag in str(err.value)

    def test_records_end_only_at_newlines(self):
        # NEL inside a record is whitespace, so "-1" reads as a feature
        # token of line 1 instead of the label of a second record
        with pytest.raises(ParseError) as err:
            parse_libsvm(b"1 1:2 3:4\xc2\x85-1 2:1\n")
        assert err.value.line == 1
        assert "'-1'" in str(err.value)
        # a form feed separates two tokens of one record
        ds = parse_libsvm(b"1 1:2\x0c3:4\n")
        np.testing.assert_array_equal(ds.A.toarray(), [[2.0, 0.0, 4.0]])
        np.testing.assert_array_equal(ds.y, [1.0])
        # CRLF records parse as LF records, and lines count newlines
        crlf = GOLDEN.replace("\n", "\r\n").encode()
        plain = parse_libsvm(GOLDEN.encode())
        ds = parse_libsvm(crlf)
        np.testing.assert_array_equal(ds.A.toarray(), plain.A.toarray())
        np.testing.assert_array_equal(ds.y, plain.y)
        for text in (b"1 1:1\r\nx 1:1\r\n", b"1 1:2\x0c3:4\nx 1:1\n"):
            with pytest.raises(ParseError, match="line 2: bad label"):
                parse_libsvm(text)

    @pytest.mark.parametrize("zipped", [False, True])
    @pytest.mark.parametrize("text,lineno", [
        (b"\xff1 1:1\n", 1),
        (b"1 1:1\n-1 2:1  # caf\xe9\n", 2),
        (b"1 1:1\n\n-1 2:1\n1 3:\x80\n", 4),
    ], ids=["first_byte", "comment", "after_blank_line"])
    def test_non_utf8_text_reports_its_line(self, text, lineno, zipped):
        with pytest.raises(ParseError) as err:
            parse_libsvm(gzip.compress(text) if zipped else text)
        assert err.value.line == lineno
        assert str(err.value).startswith(f"line {lineno}: text is not UTF-8")

    @pytest.mark.parametrize("damage", [
        lambda z: z[:len(z) // 2],  # truncated
        lambda z: z[:10] + bytes(b ^ 0xFF for b in z[10:-8]) + z[-8:],
        lambda z: z[:-8] + bytes(8),  # CRC and length zeroed
        lambda z: z[:2] + b"\x07" + z[3:],  # unknown method
    ], ids=["truncated", "corrupt", "crc", "method"])
    def test_damaged_gzip_raises_parse_error(self, damage, tmp_path):
        path = tmp_path / "d.libsvm.gz"
        path.write_bytes(damage(gzip.compress(GOLDEN.encode())))
        with pytest.raises(ParseError, match="gzip stream"):
            parse_libsvm(path)

    @pytest.mark.parametrize("text", [
        "1 100000000000000000000:1\n",
        "1 3:1 9223372036854775808:2\n",
    ])
    def test_index_beyond_int64_is_a_parse_error(self, text):
        # it once ended in numpy's OverflowError
        with pytest.raises(ParseError) as err:
            parse_libsvm(text.encode())
        assert err.value.line == 1
        tok = text.split()[-1]
        assert str(err.value) == (f"line 1: feature index in {tok!r} "
                                  "exceeds 9223372036854775807")

    @pytest.mark.parametrize("index", ["1000000000000",
                                       "9223372036854775807"])
    def test_index_beyond_memory_is_a_parse_error(self, index):
        # its column pointers once ended in numpy's _ArrayMemoryError
        # (7.28 TiB) or ValueError (maximum dimension exceeded)
        with pytest.raises(ParseError) as err:
            parse_libsvm(f"1 {index}:1\n".encode())
        assert str(err.value).startswith(
            f"feature index {index} needs {8 * (int(index) + 1)} bytes of "
            "column pointers, ")

    def test_n_cols_beyond_memory_is_an_argument_error(self):
        with pytest.raises(ArgumentError, match=r"^n_cols=10000000000000 "
                           r"needs 80000000000008 bytes of column pointers"):
            parse_libsvm(b"1 2:1\n", n_cols=10 ** 13)

    def test_round_trip_random(self):
        # the second design has an empty row, an empty inner column and two
        # empty trailing columns, which only the n_cols override restores
        padded = random_sparse(12, 7, 0.5, seed=6)
        padded[4] = 0.0
        padded[:, [2, 5, 6]] = 0.0
        for M in (random_sparse(17, 9, 0.35, seed=4), padded):
            n, p = M.shape
            y = np.random.default_rng(5).standard_normal(n)
            A = CscMatrix.from_dense(M)
            back = parse_libsvm(serialize_libsvm(Dataset(A, y)).encode(),
                                n_cols=p)
            np.testing.assert_array_equal(back.A.toarray(), M)
            np.testing.assert_array_equal(back.y, y)
            for name in ("col_ptr", "row_idx", "values"):
                assert (getattr(back.A, name).tobytes()
                        == getattr(A, name).tobytes()), name


def dataset_bytes(ds):
    """Everything a parsed `Dataset` holds, as bytes, dtypes and shape."""
    A = ds.A
    arrays = (A.col_ptr, A.row_idx, A.values, ds.y)
    return ((A.n_rows, A.n_cols, ds.name), [a.dtype.str for a in arrays],
            [a.tobytes() for a in arrays])


# whitespace inside a record: what str.split() splits ASCII text on, less
# the newline that ends a record
SEPARATORS = " \t\r\x0b\x0c\x1c\x1d\x1e\x1f"


@st.composite
def decimals(draw):
    """A finite number as LibSVM text may write it: signs, leading zeros,
    a point with digits on either side or both, an exponent."""
    sign = draw(st.sampled_from(["", "+", "-"]))
    whole = draw(st.text("0123456789", max_size=4))
    frac = draw(st.text("0123456789", max_size=4))
    if not (whole or frac):
        whole = "0"
    mantissa = whole + ("." if draw(st.booleans()) else "") + frac
    if draw(st.booleans()):
        mantissa += (draw(st.sampled_from("eE"))
                     + draw(st.sampled_from(["", "+", "-"]))
                     + str(draw(st.integers(0, 330))))
    text = sign + mantissa
    if not math.isfinite(float(text)):
        text = sign + whole + frac
    return text


@st.composite
def libsvm_texts(draw):
    """Well-formed LibSVM text: records with increasing, sometimes
    ``+``-signed or zero-padded indices, blank and comment-only lines,
    trailing comments, CRLF ends and every ASCII separator."""
    sep = st.text(SEPARATORS, min_size=1, max_size=3)
    pad = st.text(SEPARATORS, max_size=2)
    comment = st.text(st.characters(exclude_categories=("Cs",),
                                    exclude_characters="\n"), max_size=6)
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["record", "record", "record", "blank",
                                     "comment"]))
        line = draw(pad)
        if kind == "record":
            line += draw(decimals())
            steps = draw(st.lists(st.integers(1, 40), max_size=6))
            for idx in np.cumsum(steps).tolist():
                line += (draw(sep) + draw(st.sampled_from(["", "+"]))
                         + "0" * draw(st.integers(0, 2)) + str(idx) + ":"
                         + draw(decimals()))
            line += draw(pad)
        if kind == "comment" or draw(st.booleans()):
            line += "#" + draw(comment)
        lines.append(line + draw(st.sampled_from(["", "\r"])))
    text = "\n".join(lines)
    return text + draw(st.sampled_from(["", "\n"]))


class TestFastParse:
    """`data._parse_fast` against the line parser `data._parse_lines`."""

    @settings(max_examples=200, deadline=None, database=None)
    @given(text=libsvm_texts(), extra=st.integers(0, 3),
           pad=st.booleans(), zipped=st.booleans())
    def test_fast_parse_is_the_line_parse(self, text, extra, pad, zipped):
        want = data._parse_lines(text, None)
        n_cols = want.A.n_cols + extra if pad else None
        if n_cols is not None:
            want = data._parse_lines(text, n_cols)
        fast = data._parse_fast(text, n_cols)
        assert fast is not None
        assert dataset_bytes(fast) == dataset_bytes(want)
        raw = text.encode()
        got = parse_libsvm(gzip.compress(raw) if zipped else raw, n_cols)
        assert dataset_bytes(got) == dataset_bytes(want)

    @staticmethod
    def line_parses(monkeypatch):
        """The texts that `parse_libsvm` hands to the line parser from now
        on."""
        calls = []
        line_parse = data._parse_lines

        def counted(text, n_cols):
            calls.append(text)
            return line_parse(text, n_cols)
        monkeypatch.setattr(data, "_parse_lines", counted)
        return calls

    @pytest.mark.parametrize("text", [
        GOLDEN, "1 +01:2 # \u00e9_:\r\n-1\x1c3:4e-2\x0b\n", "", "\n # \n",
    ], ids=["golden", "comment_holds_anything", "empty", "no_record"])
    def test_the_fast_parser_takes_well_formed_text(self, text, monkeypatch):
        calls = self.line_parses(monkeypatch)
        assert data._parse_fast(text, None) is not None
        parse_libsvm(text.encode())
        assert calls == []

    @pytest.mark.parametrize("text", [
        "1 1:1\n-1 2:1 5\n", "1 2 3:4:5\n", "1 1:\n", "1 :1\n",
        "1 1:2\xa03:4\n", "inf 1:1\n", "1 1:1e999\n", "1 0:1\n",
        "1 2:1 1:1\n", f"1 {2**63}:1\n", "1 1_0:2\n", "1 \uff13:2\n",
    ], ids=["no_colon", "two_colons", "no_value", "no_index", "nbsp",
            "inf_label", "inf_value", "index_0", "not_increasing",
            "beyond_int64", "underscore", "fullwidth_digit"])
    def test_the_line_parser_takes_the_rest(self, text, monkeypatch):
        # malformed text, and text that only the line parser takes: with
        # two colons, the tokens are as many as the colons; a non-breaking
        # space is whitespace to the line parser alone
        calls = self.line_parses(monkeypatch)
        assert data._parse_fast(text, None) is None
        try:
            ds = parse_libsvm(text.encode())
        except ParseError:
            assert text != "1 1:2\xa03:4\n"
        else:
            np.testing.assert_array_equal(ds.A.toarray(), [[2, 0, 4]])
        assert calls == [text]

    @pytest.mark.parametrize("last,frag", [
        ("x:1", "bad index:value pair 'x:1'"),
        ("7", "expected index:value, got '7'"),
        ("9" * 400_000 + ":1", "bad index:value pair '9999"),
        ("200000:" + "1" * 400_000 + "x", "bad index:value pair '200000:1"),
    ], ids=["bad_index", "no_colon", "long_index", "long_value"])
    def test_long_line_with_a_bad_last_token(self, last, frag):
        # a backtracking check of the number grammar takes exponential time
        # on such a line; both parsers are linear in its length
        body = " ".join(f"{j}:1" for j in range(1, 125_001))
        text = f"1 {body} {last}\n"
        assert len(text) > 1_000_000
        t0 = time.perf_counter()
        with pytest.raises(ParseError) as err:
            parse_libsvm(text.encode())
        assert time.perf_counter() - t0 < 10.0
        assert err.value.line == 1
        assert frag in str(err.value)


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


# each once failed deep inside numpy or Python, or ran a bool as 1
@pytest.mark.parametrize("make,name", [
    (lambda: parse_libsvm(b"1 1:1\n", n_cols=2.5), "n_cols"),
    (lambda: parse_libsvm(b"1 1:1\n", n_cols=True), "n_cols"),
    (lambda: gen_correlated_gaussian(10.5, 5), "n"),
    (lambda: gen_correlated_gaussian(10, True), "p"),
], ids=["n_cols-float", "n_cols-bool", "n-float", "p-bool"])
def test_integer_arguments_are_checked(make, name):
    with pytest.raises(ArgumentError, match=f"^{name} must be an integer"):
        make()


def test_load_sample():
    ds = load_sample()
    assert ds.A.n_rows == 120 and ds.A.n_cols == 60
    assert set(np.unique(ds.y)) == {-1.0, 1.0}
    assert ds.name == "sample"
