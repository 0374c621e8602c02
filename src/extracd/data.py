"""Design matrices in CSC form, LibSVM text I/O and synthetic data.

The on-disk LibSVM convention is 1-based feature indices; everything in
memory is 0-based.  Gzipped input is detected from the two magic bytes,
never from the file name.
"""

import gzip
import io
import os
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, ParseError
from . import kernels

__all__ = [
    "CscMatrix",
    "Dataset",
    "parse_libsvm",
    "serialize_libsvm",
    "binarize_labels",
    "gen_correlated_gaussian",
    "load_sample",
]

_GZIP_MAGIC = b"\x1f\x8b"


@dataclass(frozen=True)
class CscMatrix:
    """Compressed sparse column matrix (float64 values, int64 indices).

    Invariants are checked on construction: ``col_ptr`` is monotone and
    frames ``values``; row indices are strictly increasing inside each
    column and in range; all values are finite.  Arrays are marked
    read-only so instances can be shared across threads.
    """

    n_rows: int
    n_cols: int
    col_ptr: np.ndarray
    row_idx: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        col_ptr = np.ascontiguousarray(self.col_ptr, dtype=np.int64)
        row_idx = np.ascontiguousarray(self.row_idx, dtype=np.int64)
        values = np.ascontiguousarray(self.values, dtype=np.float64)
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
        cols, row_idx = np.nonzero(arr.T)
        col_ptr = np.zeros(p + 1, dtype=np.int64)
        np.cumsum(np.bincount(cols, minlength=p), out=col_ptr[1:])
        return cls(n, p, col_ptr, row_idx, arr[row_idx, cols])

    def toarray(self):
        return self.columns(range(self.n_cols))

    def columns(self, cols):
        """Dense ``n_rows x len(cols)`` copy of the listed columns."""
        out = np.zeros((self.n_rows, len(cols)))
        for t, j in enumerate(cols):
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
        y = np.ascontiguousarray(self.y, dtype=np.float64)
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
        raise ArgumentError("source must be a path, bytes or binary file")
    if raw[:2] == _GZIP_MAGIC:
        raw = gzip.decompress(raw)
    return raw.decode("utf-8")


def parse_libsvm(source, n_cols=None):
    """Parse LibSVM text into a :class:`Dataset`.

    Parameters
    ----------
    source : path, bytes or binary file object
        Raw or gzipped LibSVM text; gzip is detected from magic bytes.
    n_cols : int, optional
        Pad the column dimension up to this value.  It is an error to
        pass a value smaller than the largest feature index seen.

    Returns
    -------
    Dataset
        Labels in file order, features converted to 0-based CSC.

    Raises
    ------
    ParseError
        On malformed labels, malformed ``index:value`` tokens, indices
        below 1 or non-increasing indices; messages carry the 1-based
        line number.
    """
    text = _open_text(source)
    labels = []
    cols = []
    max_idx = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        try:
            labels.append(float(tokens[0]))
        except ValueError:
            raise ParseError(f"bad label {tokens[0]!r}", line=lineno) from None
        prev = 0
        entries = []
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
            if idx <= prev:
                raise ParseError(
                    f"feature index {idx} not increasing (previous {prev})",
                    line=lineno)
            if not np.isfinite(val):
                raise ParseError(f"non-finite value in {tok!r}", line=lineno)
            prev = idx
            entries.append((idx - 1, val))
        max_idx = max(max_idx, prev)
        cols.append(entries)

    p = max_idx
    if n_cols is not None:
        if n_cols < max_idx:
            raise ArgumentError(
                f"n_cols={n_cols} is smaller than the largest feature index "
                f"{max_idx}; the override can only pad")
        p = n_cols
    n = len(labels)

    by_col = [[] for _ in range(p)]
    for i, entries in enumerate(cols):
        for j, val in entries:
            by_col[j].append((i, val))
    col_ptr = np.zeros(p + 1, dtype=np.int64)
    row_idx = []
    values = []
    for j in range(p):
        col_ptr[j + 1] = col_ptr[j] + len(by_col[j])
        for i, val in by_col[j]:
            row_idx.append(i)
            values.append(val)
    A = CscMatrix(n, p, col_ptr,
                  np.array(row_idx, dtype=np.int64),
                  np.array(values, dtype=np.float64))
    return Dataset(A, np.array(labels, dtype=np.float64), name="libsvm")


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


def gen_correlated_gaussian(n, p, corr=0.5, snr=3.0, seed=0):
    """Synthetic regression data with AR(1)-correlated Gaussian features.

    Rows are independent; within a row, feature ``j`` follows a
    stationary AR(1) process with parameter ``corr`` and unit marginal
    variance.  A ground-truth coefficient vector with 10% nonzero
    entries produces ``y = A x_true + noise`` where the noise variance
    is ``||A x_true||^2 / (n * snr)``.

    Returns
    -------
    (Dataset, ndarray)
        The dataset and the ground-truth coefficients.
    """
    if n < 1 or p < 1:
        raise ArgumentError("n and p must be positive")
    if not 0.0 <= corr < 1.0:
        raise ArgumentError("corr must lie in [0, 1)")
    if not (np.isfinite(snr) and snr > 0):
        raise ArgumentError("snr must be finite and positive")
    rng = np.random.default_rng(seed)
    eps = rng.standard_normal((n, p))
    A = np.empty((n, p))
    A[:, 0] = eps[:, 0]
    scale = np.sqrt(1.0 - corr * corr)
    for j in range(1, p):
        A[:, j] = corr * A[:, j - 1] + scale * eps[:, j]
    nnz = max(1, int(np.ceil(0.1 * p)))
    support = rng.choice(p, size=nnz, replace=False)
    x_true = np.zeros(p)
    x_true[support] = rng.standard_normal(nnz)
    signal = A @ x_true
    noise_var = (signal @ signal) / (n * snr)
    y = signal + np.sqrt(noise_var) * rng.standard_normal(n)
    name = f"synthetic(n={n},p={p},corr={corr:g},snr={snr:g},seed={seed})"
    return Dataset(CscMatrix.from_dense(A), y, name=name), x_true


def load_sample():
    """Bundled small LibSVM dataset used by end-to-end tests."""
    from importlib import resources

    ref = resources.files("extracd").joinpath("datasets/sample.libsvm")
    ds = parse_libsvm(ref.read_bytes())
    return Dataset(ds.A, ds.y, name="sample")
