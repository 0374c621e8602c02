"""Design matrices in CSC form, LibSVM text I/O and synthetic data.

The on-disk LibSVM convention is 1-based feature indices; everything in
memory is 0-based.  Gzipped input is detected from the two magic bytes,
never from the file name.
"""

import gzip
import io
import numbers
import os
import re
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, ParseError, check_integer
from . import kernels

__all__ = [
    "CscMatrix",
    "Dataset",
    "parse_libsvm",
    "serialize_libsvm",
    "binarize_labels",
    "check_synthetic",
    "gen_correlated_gaussian",
    "load_sample",
]

_GZIP_MAGIC = b"\x1f\x8b"
# the largest feature index, whose column the int64 indices can name
_MAX_INDEX = int(np.iinfo(np.int64).max)
_COMMENT = re.compile(r"#[^\n]*")
# two colons in one token.  A search tries it at each colon only and reads
# on to the next colon or whitespace, so its time is linear in the text's
# length
_TWO_COLONS = re.compile(r":[^\s:]*:")


@dataclass(frozen=True)
class CscMatrix:
    """Compressed sparse column matrix (float64 values, int64 indices).

    Invariants are checked on construction: ``col_ptr`` is monotone and
    frames ``values``; row indices are strictly increasing inside each
    column and in range; all values are finite.  The arrays are read-only
    copies, so instances can be shared across threads and no view of the
    caller's can undo the checks.
    """

    n_rows: int
    n_cols: int
    col_ptr: np.ndarray
    row_idx: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        col_ptr = np.array(self.col_ptr, dtype=np.int64, ndmin=1)
        row_idx = np.array(self.row_idx, dtype=np.int64, ndmin=1)
        values = np.array(self.values, dtype=np.float64, ndmin=1)
        object.__setattr__(self, "col_ptr", col_ptr)
        object.__setattr__(self, "row_idx", row_idx)
        object.__setattr__(self, "values", values)
        if self.n_rows < 0 or self.n_cols < 0:
            raise ArgumentError("matrix dimensions must be nonnegative")
        if col_ptr.ndim != 1 or col_ptr.size != self.n_cols + 1:
            raise ArgumentError("col_ptr must have length n_cols + 1")
        if col_ptr[0] != 0 or col_ptr[-1] != values.size:
            raise ArgumentError("col_ptr must start at 0 and end at nnz")
        if np.any(np.diff(col_ptr) < 0):
            raise ArgumentError("col_ptr must be nondecreasing")
        if row_idx.size != values.size:
            raise ArgumentError("row_idx and values must have equal length")
        if values.size:
            if row_idx.min() < 0 or row_idx.max() >= self.n_rows:
                raise ArgumentError("row index out of range")
            # a step into the first entry of a column crosses a boundary
            bad = np.diff(row_idx) <= 0
            starts = col_ptr[(col_ptr > 0) & (col_ptr < values.size)]
            bad[starts - 1] = False
            if bad.any():
                k = int(np.argmax(bad)) + 1
                j = int(np.searchsorted(col_ptr, k, "right")) - 1
                raise ArgumentError(
                    f"row indices in column {j} must be strictly increasing")
        if not np.all(np.isfinite(values)):
            raise ArgumentError("matrix values must be finite")
        for arr in (col_ptr, row_idx, values):
            arr.setflags(write=False)

    @property
    def nnz(self):
        return int(self.values.size)

    @classmethod
    def from_dense(cls, arr):
        arr = np.asarray(arr, dtype=np.float64)
        if arr.ndim != 2:
            raise ArgumentError("from_dense expects a 2-d array")
        n, p = arr.shape
        # the rows of the C-order transpose are the columns, and a mask of
        # its nonzeros picks each column's rows and values in CSC order
        AT = np.ascontiguousarray(arr.T)
        mask = AT != 0.0
        col_ptr = np.zeros(p + 1, dtype=np.int64)
        np.cumsum(mask.sum(axis=1), out=col_ptr[1:])
        rows = np.broadcast_to(np.arange(n, dtype=np.int64), (p, n))
        return cls(n, p, col_ptr, rows[mask], AT[mask])

    def toarray(self):
        return self.columns(np.arange(self.n_cols))

    def columns(self, cols):
        """Dense ``n_rows x len(cols)`` copy of the listed columns, taken as
        `kernels._checked_order` takes an order: integers, each in
        ``[-n_cols, n_cols)``, a negative one counting from the end; its
        TypeError and IndexError name ``cols``."""
        cols = kernels._checked_order(cols, self.n_cols, name="cols")
        out = np.zeros((self.n_rows, cols.size))
        for t, j in enumerate(cols.tolist()):
            sl = slice(self.col_ptr[j], self.col_ptr[j + 1])
            out[self.row_idx[sl], t] = self.values[sl]
        return out

    def matvec(self, x):
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n_cols,):
            raise ArgumentError("matvec operand has wrong length")
        return kernels.csc_matvec(self.values, self.row_idx, self.col_ptr,
                                  self.n_rows, x)

    def rmatvec(self, v):
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (self.n_rows,):
            raise ArgumentError("rmatvec operand has wrong length")
        return kernels.csc_rmatvec(self.values, self.row_idx, self.col_ptr, v)

    def col_norms_sq(self):
        return kernels.csc_col_norms_sq(self.values, self.col_ptr)


@dataclass(frozen=True)
class Dataset:
    """A design matrix with its target vector and a display name."""

    A: CscMatrix
    y: np.ndarray
    name: str = ""

    def __post_init__(self):
        y = np.array(self.y, dtype=np.float64, ndmin=1)  # a read-only copy
        object.__setattr__(self, "y", y)
        if y.ndim != 1 or y.size != self.A.n_rows:
            raise ArgumentError("y must have one entry per matrix row")
        if not np.all(np.isfinite(y)):
            raise ArgumentError("labels must be finite")
        y.setflags(write=False)


def _open_text(source):
    if isinstance(source, (str, os.PathLike)):
        with open(source, "rb") as fh:
            raw = fh.read()
    elif isinstance(source, bytes):
        raw = source
    elif hasattr(source, "read"):
        raw = source.read()
        if isinstance(raw, str):
            raw = raw.encode()
    else:
        raise ArgumentError("source must be a path, bytes or a file object")
    if raw[:2] == _GZIP_MAGIC:
        try:
            raw = gzip.decompress(raw)
        except (EOFError, gzip.BadGzipFile, zlib.error) as exc:
            raise ParseError(f"truncated or corrupt gzip stream: {exc}") \
                from None
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"text is not UTF-8: {exc.reason}",
                         line=raw.count(b"\n", 0, exc.start) + 1) from None


def parse_libsvm(source, n_cols=None):
    """Parse LibSVM text into a :class:`Dataset`.

    A record ends at a newline and nowhere else: other line and page
    breaks, and the ``\\r`` of a CRLF file, are whitespace.

    Two parsers share this contract.  `_parse_fast` checks and converts
    the whole text at once; it takes only text that the line-by-line
    `_parse_lines` accepts, and returns what that returns, bit for bit.
    Any text it cannot take (malformed, with non-ASCII characters or
    underscores anywhere outside comments, say) goes to `_parse_lines`,
    so every error below comes from the line parser, with its line.

    Parameters
    ----------
    source : path, bytes, or binary or text file object
        Raw or gzipped LibSVM text; gzip is detected from magic bytes.
    n_cols : int, optional
        Pad the column dimension up to this value.  It is an error
        (ArgumentError) to pass anything but an integer, or a value
        smaller than the largest feature index seen.

    Returns
    -------
    Dataset
        Labels in file order, features converted to 0-based CSC.

    Raises
    ------
    ParseError
        On malformed or non-finite labels, malformed ``index:value``
        tokens, non-finite values, indices below 1, above the int64 range
        or non-increasing, numbers with underscores or non-ASCII digits,
        and on text that is not UTF-8; messages carry the 1-based line
        number.  Also on a truncated or corrupt gzip stream.
    """
    if n_cols is not None:
        check_integer(n_cols, "n_cols", 0)
    text = _open_text(source)
    ds = _parse_fast(text, n_cols)
    return _parse_lines(text, n_cols) if ds is None else ds


def _parse_lines(text, n_cols):
    """`parse_libsvm` of decoded text, one record and one token at a
    time."""
    labels, rows, cols, vals = [], [], [], []
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if not line.isascii() or "_" in line:
            # int() and float() also read PEP 515 underscores and any
            # Unicode digit, neither of which LibSVM text allows
            for t, tok in enumerate(tokens):
                if not tok.isascii() or "_" in tok:
                    what = "index:value pair" if t else "label"
                    raise ParseError(f"bad {what} {tok!r}", line=lineno)
        try:
            label = float(tokens[0])
        except ValueError:
            raise ParseError(f"bad label {tokens[0]!r}", line=lineno) from None
        if not np.isfinite(label):
            raise ParseError(f"non-finite label {tokens[0]!r}", line=lineno)
        labels.append(label)
        prev = 0
        for tok in tokens[1:]:
            idx_s, _, val_s = tok.partition(":")
            if not _:
                raise ParseError(f"expected index:value, got {tok!r}",
                                 line=lineno)
            try:
                idx = int(idx_s)
                val = float(val_s)
            except ValueError:
                raise ParseError(f"bad index:value pair {tok!r}",
                                 line=lineno) from None
            if idx < 1:
                raise ParseError(f"feature index {idx} must be >= 1",
                                 line=lineno)
            if idx > _MAX_INDEX:
                raise ParseError(f"feature index in {tok!r} exceeds "
                                 f"{_MAX_INDEX}", line=lineno)
            if idx <= prev:
                raise ParseError(
                    f"feature index {idx} not increasing (previous {prev})",
                    line=lineno)
            if not np.isfinite(val):
                raise ParseError(f"non-finite value in {tok!r}", line=lineno)
            prev = idx
            rows.append(len(labels) - 1)
            cols.append(idx - 1)
            vals.append(val)
    return _dataset(np.array(labels, dtype=np.float64),
                    np.array(rows, dtype=np.int64),
                    np.array(cols, dtype=np.int64),
                    np.array(vals, dtype=np.float64), n_cols)


def _parse_fast(text, n_cols):
    """`_parse_lines` of decoded text that this takes whole, else None.

    It takes ASCII text without underscores once ``#`` comments are cut,
    whose records are a label and ``index:value`` tokens (as many tokens
    as colons, and no token with two) that convert with the line parser's
    ``float`` and ``int``, and whose labels and values are finite and
    indices increase from 1 within each record, in the int64 range.  The
    checks run on arrays, the conversions in three batches.
    """
    if "#" in text:
        text = _COMMENT.sub("", text)
    if not text.isascii() or "_" in text:
        return None
    labels, features = [], []
    for line in text.split("\n"):
        record = line.split(None, 1)
        if record:
            labels.append(record[0])
            features.append(record[1] if len(record) == 2 else "")
    joined = " ".join(features)
    tokens = joined.split()
    if len(tokens) != joined.count(":") or _TWO_COLONS.search(joined):
        return None
    # an empty side is an empty number, which the conversions refuse
    numbers = ":".join(tokens).split(":")
    try:
        y = np.fromiter(map(float, labels), np.float64, len(labels))
        idx = np.fromiter(map(int, numbers[::2]), np.int64, len(tokens))
        vals = np.fromiter(map(float, numbers[1::2]), np.float64, len(tokens))
    except (ValueError, OverflowError):
        return None
    rows = np.repeat(np.arange(len(labels)), [f.count(":") for f in features])
    same_row = rows[1:] == rows[:-1]
    if not (np.isfinite(y).all() and np.isfinite(vals).all()
            and (idx >= 1).all() and (idx[1:] > idx[:-1])[same_row].all()):
        return None
    return _dataset(y, rows, idx - 1, vals, n_cols)


def _dataset(y, rows, cols, vals, n_cols):
    """The parsed `Dataset` of labels ``y`` and of entries in file order,
    each at 0-based ``(rows, cols)``, with ``n_cols`` columns if given."""
    p = int(cols.max()) + 1 if cols.size else 0
    what, error = f"feature index {p}", ParseError
    if n_cols is not None:
        if n_cols < p:
            raise ArgumentError(
                f"n_cols={n_cols} is smaller than the largest feature index "
                f"{p}; the override can only pad")
        p, what, error = n_cols, f"n_cols={n_cols}", ArgumentError
    # a CSC of p columns holds p + 1 int64 column pointers
    need = f"{what} needs {8 * (p + 1)} bytes of column pointers"
    memory = _host_memory()
    if memory is not None and 8 * (p + 1) > memory:
        raise error(f"{need}, more than this host's {memory} bytes of memory")
    try:
        col_ptr = np.zeros(p + 1, dtype=np.int64)
        np.cumsum(np.bincount(cols, minlength=p), out=col_ptr[1:])
    except (MemoryError, ValueError):
        raise error(f"{need}, which could not be allocated") from None
    # a stable sort by column keeps each column's rows in file order; on
    # 16-bit keys numpy's stable sort is a radix sort, about ten times faster
    order = np.argsort(cols.astype(np.uint16) if p <= 1 << 16 else cols,
                       kind="stable")
    A = CscMatrix(y.size, p, col_ptr, rows[order], vals[order])
    return Dataset(A, y, name="libsvm")


def _host_memory():
    """This host's physical memory in bytes, or None where it is unknown."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None


def serialize_libsvm(dataset):
    """Render a dataset back to LibSVM text (1-based indices, repr floats)."""
    A = dataset.A
    dense_rows = [[] for _ in range(A.n_rows)]
    for j in range(A.n_cols):
        sl = slice(A.col_ptr[j], A.col_ptr[j + 1])
        for i, v in zip(A.row_idx[sl], A.values[sl]):
            dense_rows[i].append((j + 1, v))
    lines = []
    for i in range(A.n_rows):
        parts = [f"{dataset.y[i]:.17g}"]
        parts.extend(f"{j}:{v:.17g}" for j, v in dense_rows[i])
        lines.append(" ".join(parts))
    return "\n".join(lines) + ("\n" if lines else "")


def binarize_labels(y):
    """Map the two distinct label values to -1/+1 (smaller value -> -1)."""
    vals = np.unique(y)
    if vals.size != 2:
        raise ArgumentError(
            f"need exactly two distinct label values, got {vals.size}")
    out = np.where(y == vals[0], -1.0, 1.0)
    return out


def check_synthetic(n, p, corr, snr, seed, prefix=""):
    """ArgumentError naming the argument, after ``prefix``, unless the
    arguments of `gen_correlated_gaussian` are valid: ``n`` and ``p``
    integers >= 1, ``seed`` an integer >= 0 (Python or numpy integers, not
    bools), ``corr`` a real in [0, 1) and ``snr`` finite and positive."""
    check_integer(n, f"{prefix}n", 1)
    check_integer(p, f"{prefix}p", 1)
    check_integer(seed, f"{prefix}seed", 0)
    for name, value in (("corr", corr), ("snr", snr)):
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ArgumentError(f"{prefix}{name} must be a real number, not "
                                f"{value!r}")
    if not 0.0 <= corr < 1.0:
        raise ArgumentError(f"{prefix}corr must lie in [0, 1)")
    if not (np.isfinite(snr) and snr > 0):
        raise ArgumentError(f"{prefix}snr must be finite and positive")


def gen_correlated_gaussian(n, p, corr=0.5, snr=3.0, seed=0):
    """Synthetic regression data with AR(1)-correlated Gaussian features.

    Rows are independent; within a row, feature ``j`` follows a
    stationary AR(1) process with parameter ``corr`` and unit marginal
    variance.  A ground-truth coefficient vector with 10% nonzero
    entries produces ``y = A x_true + noise`` where the noise variance
    is ``||A x_true||^2 / (n * snr)``.  `check_synthetic` states the
    arguments' rules.

    The design is built transposed, one row per feature, and C
    ``kernels.ar1_rows`` runs the recurrence over those rows: each entry
    is ``corr * A[:, j - 1] + scale * eps[:, j]`` with the bits of that
    column-by-column form.

    Returns
    -------
    (Dataset, ndarray)
        The dataset and the ground-truth coefficients.
    """
    check_synthetic(n, p, corr, snr, seed)
    rng = np.random.default_rng(seed)
    eps = rng.standard_normal((n, p))
    scale = np.sqrt(1.0 - corr * corr)
    AT = np.ascontiguousarray(eps.T) * scale
    AT[0] = eps[:, 0]
    kernels.ar1_rows(AT, corr)
    nnz = max(1, int(np.ceil(0.1 * p)))
    support = rng.choice(p, size=nnz, replace=False)
    x_true = np.zeros(p)
    x_true[support] = rng.standard_normal(nnz)
    # the product on the n x p design in C order: BLAS runs another kernel,
    # with other bits, on the F-order view ``AT.T``
    signal = np.ascontiguousarray(AT.T) @ x_true
    noise_var = (signal @ signal) / (n * snr)
    y = signal + np.sqrt(noise_var) * rng.standard_normal(n)
    name = f"synthetic(n={n},p={p},corr={corr:g},snr={snr:g},seed={seed})"
    return Dataset(CscMatrix.from_dense(AT.T), y, name=name), x_true


def load_sample():
    """Bundled small LibSVM dataset used by end-to-end tests."""
    from importlib import resources

    ref = resources.files("extracd").joinpath("datasets/sample.libsvm")
    ds = parse_libsvm(ref.read_bytes())
    return Dataset(ds.A, ds.y, name="sample")
