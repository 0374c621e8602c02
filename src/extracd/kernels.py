"""Hot numerical kernels with two interchangeable backends.

Every kernel has an explicit-loop source and a pure-numpy version.  The
loop sources are compiled with numba (``@njit(cache=True)``) into the
numba backend; run as plain Python they are the reference that tests
compare the numpy backend against.  The backend is chosen at import
time: set the environment variable ``EXTRACD_NUMBA=0`` to force the numpy
fallback; otherwise numba is used whenever it imports.  ``IMPLS`` keeps
both tables alive so tests and the kernel benchmark can compare them.

All sparse kernels operate on raw CSC arrays (values, row indices,
column pointers) and update ``x`` / ``Ax`` in place.  Coordinates whose
curvature bound is zero are skipped, which freezes them at their initial
value.

The lasso, elastic-net and both logistic epochs apply one proximal
coordinate update, ``x_j <- st(x_j - A_j'r / scale / L_j, l1 / L_j) /
(1 + l2 / L_j)``, where ``r`` is the datafit's per-row gradient factor:
``Ax - y`` for least squares, ``-y * sigma(-y * Ax)`` for logistic
regression.  Each backend has one body per datafit (the numpy backend
one for both), and the four public kernels are wrappers that fix
``(l1, l2, scale)``.  ``l1 = 0`` leaves out the soft threshold, which
would turn a NaN or -0.0 step into 0.0.

Python loops over columns and coordinates are slow, so the numpy backend
avoids per-column work where the input allows:

- the numpy ``csc_matvec`` and ``csc_rmatvec`` are one ``np.bincount``
  each on a sparse matrix (over the row, resp. column, of every entry),
  which adds the entries in storage order, as the loop sources do; they
  make one BLAS call when the matrix is fully dense
  (``nnz == n_rows * n_cols``): its values are then A' in C order;
- the numpy coordinate epoch computes ``r`` once and recomputes its rows
  under a column from the new ``Ax`` only when that coordinate moves, so
  ``r`` always equals the fresh expression bit for bit;
- `lsq_gram_epoch` runs a least-squares coordinate epoch on a dense design
  through its Gram matrix (``problems.LeastSquares.epoch`` chooses it);
- ``problems.Quadratic.cd_pass`` runs a cyclic pass on a quadratic as one
  Gauss-Seidel step instead of ``cd_dense_epoch``.

The numba kernels have no such paths: their loops are already compiled.
"""

import math
import os

import numpy as np

_env = os.environ.get("EXTRACD_NUMBA", "1").strip().lower()
_want_numba = _env not in ("0", "false", "off", "no")

HAVE_NUMBA = False
if _want_numba:
    try:
        from numba import njit

        HAVE_NUMBA = True
    except ImportError:  # numba is optional; use the numpy kernels
        HAVE_NUMBA = False

BACKEND = "numba" if HAVE_NUMBA else "numpy"


# ---------------------------------------------------------------------------
# scalar helpers (compiled when the numba backend is active)
# ---------------------------------------------------------------------------

def _st(v, t):
    # soft threshold: sign(v) * max(|v| - t, 0)
    if v > t:
        return v - t
    if v < -t:
        return v + t
    return 0.0


def _sig_neg(t):
    # sigma(-t) = 1 / (1 + e^t), overflow-safe on both sides
    if t >= 0.0:
        e = math.exp(-t)
        return e / (1.0 + e)
    return 1.0 / (1.0 + math.exp(t))


def _sig_neg_vec(t):
    # same two branches as _sig_neg, without boolean-mask indexing
    e = np.exp(-np.abs(t))
    return np.where(t >= 0.0, e, 1.0) / (1.0 + e)


# ---------------------------------------------------------------------------
# explicit-loop sources (numba)
# ---------------------------------------------------------------------------

def _csc_matvec_loops(data, indices, indptr, n_rows, x):
    out = np.zeros(n_rows)
    for j in range(indptr.size - 1):
        xj = x[j]
        if xj != 0.0:
            for k in range(indptr[j], indptr[j + 1]):
                out[indices[k]] += data[k] * xj
    return out


def _csc_rmatvec_loops(data, indices, indptr, v):
    p = indptr.size - 1
    out = np.empty(p)
    for j in range(p):
        acc = 0.0
        for k in range(indptr[j], indptr[j + 1]):
            acc += data[k] * v[indices[k]]
        out[j] = acc
    return out


def _csc_col_norms_sq_loops(data, indptr):
    p = indptr.size - 1
    out = np.empty(p)
    for j in range(p):
        acc = 0.0
        for k in range(indptr[j], indptr[j + 1]):
            acc += data[k] * data[k]
        out[j] = acc
    return out


def _cd_dense_epoch_loops(H, b, x, order):
    for idx in range(order.size):
        j = order[idx]
        r = np.dot(H[j], x) + b[j]
        x[j] -= r / H[j, j]


def _lsq_epoch_loops(data, indices, indptr, y, x, Ax, lip, l1, l2, scale,
                     order):
    for idx in range(order.size):
        j = order[idx]
        lj = lip[j]
        if lj <= 0.0:
            continue
        start, end = indptr[j], indptr[j + 1]
        grad = 0.0
        for k in range(start, end):
            i = indices[k]
            grad += data[k] * (Ax[i] - y[i])
        new = x[j] - grad / scale / lj
        if l1 != 0.0:
            new = _st(new, l1 / lj)
        new /= 1.0 + l2 / lj
        d = new - x[j]
        if d != 0.0:
            for k in range(start, end):
                Ax[indices[k]] += d * data[k]
            x[j] = new


def _logreg_epoch_loops(data, indices, indptr, y, x, Ax, lip, l1, l2, order):
    for idx in range(order.size):
        j = order[idx]
        lj = lip[j]
        if lj <= 0.0:
            continue
        start, end = indptr[j], indptr[j + 1]
        grad = 0.0
        for k in range(start, end):
            i = indices[k]
            grad += data[k] * (-y[i] * _sig_neg(y[i] * Ax[i]))
        new = x[j] - grad / lj
        if l1 != 0.0:
            new = _st(new, l1 / lj)
        new /= 1.0 + l2 / lj
        d = new - x[j]
        if d != 0.0:
            for k in range(start, end):
                Ax[indices[k]] += d * data[k]
            x[j] = new


def _group_epoch_loops(data, indices, indptr, y, x, Ax, grp_cols, grp_ptr,
                       lip_g, lam, order_g):
    for idx in range(order_g.size):
        g = order_g[idx]
        lg = lip_g[g]
        if lg <= 0.0:
            continue
        gs, ge = grp_ptr[g], grp_ptr[g + 1]
        m = ge - gs
        v = np.empty(m)
        sq = 0.0
        for t in range(m):
            j = grp_cols[gs + t]
            grad = 0.0
            for k in range(indptr[j], indptr[j + 1]):
                i = indices[k]
                grad += data[k] * (Ax[i] - y[i])
            vt = x[j] - grad / lg
            v[t] = vt
            sq += vt * vt
        norm = math.sqrt(sq)
        thr = lam / lg
        scale = 0.0 if norm <= thr else 1.0 - thr / norm
        for t in range(m):
            j = grp_cols[gs + t]
            new = scale * v[t]
            d = new - x[j]
            if d != 0.0:
                for k in range(indptr[j], indptr[j + 1]):
                    Ax[indices[k]] += d * data[k]
                x[j] = new


# ---------------------------------------------------------------------------
# numpy fallback
# ---------------------------------------------------------------------------

def dense_transpose(data, indptr, n_rows):
    """A' as a p x n view of the CSC values, or None unless fully dense.

    Strictly increasing row indices fit ``n_rows`` to a column, so a CSC
    with ``n_rows * p`` entries holds every row of every column in order.
    """
    p = indptr.size - 1
    if data.size != n_rows * p:
        return None
    return data.reshape(p, n_rows)


def _csc_matvec_numpy(data, indices, indptr, n_rows, x):
    AT = dense_transpose(data, indptr, n_rows)
    if AT is not None:
        return x @ AT
    return np.bincount(indices, weights=data * np.repeat(x, np.diff(indptr)),
                       minlength=n_rows)


def _csc_rmatvec_numpy(data, indices, indptr, v):
    AT = dense_transpose(data, indptr, v.size)
    if AT is not None:
        return AT @ v
    p = indptr.size - 1
    cols = np.repeat(np.arange(p), np.diff(indptr))
    return np.bincount(cols, weights=data * v[indices], minlength=p)


def _csc_col_norms_sq_numpy(data, indptr):
    p = indptr.size - 1
    out = np.empty(p)
    for j in range(p):
        sl = slice(indptr[j], indptr[j + 1])
        out[j] = data[sl] @ data[sl]
    return out


def _cd_dense_epoch_numpy(H, b, x, order):
    for j in order:
        r = H[j] @ x + b[j]
        x[j] -= r / H[j, j]


def _lsq_rows(y, Ax):
    return Ax - y


def _logreg_rows(y, Ax):
    return -y * _sig_neg_vec(y * Ax)


def _cd_epoch_numpy(row_factor, data, indices, indptr, y, x, Ax, lip, l1, l2,
                    scale, order):
    """Proximal coordinate epoch of a datafit with per-row factor ``r``.

    ``r = row_factor(y, Ax)`` is the per-row factor of the datafit's
    gradient, so coordinate ``j`` has gradient ``A_j' r / scale``.  It is
    computed once, and its rows under column ``j`` are recomputed from the
    new ``Ax`` rows only when ``x_j`` moves, so ``r`` is bitwise the fresh
    ``row_factor(y, Ax)`` and the iterates are those of the per-column
    form.
    """
    r = row_factor(y, Ax)
    ptr = indptr.tolist()
    lip = lip.tolist()
    xs = x.tolist()
    for j in order.tolist():
        lj = lip[j]
        if lj <= 0.0:
            continue
        rows = indices[ptr[j]:ptr[j + 1]]
        vals = data[ptr[j]:ptr[j + 1]]
        old = xs[j]
        # ndarray.dot: the BLAS ddot of ``@`` with less call overhead
        new = old - vals.dot(r[rows]) / scale / lj
        if l1 != 0.0:
            new = _st(new, l1 / lj)
        new /= 1.0 + l2 / lj
        d = new - old
        if d != 0.0:
            Ax_rows = Ax[rows] + d * vals
            Ax[rows] = Ax_rows
            r[rows] = row_factor(y[rows], Ax_rows)
            xs[j] = new
    x[:] = xs


def _lsq_epoch_numpy(data, indices, indptr, y, x, Ax, lip, l1, l2, scale,
                     order):
    _cd_epoch_numpy(_lsq_rows, data, indices, indptr, y, x, Ax, lip, l1, l2,
                    scale, order)


def _logreg_epoch_numpy(data, indices, indptr, y, x, Ax, lip, l1, l2, order):
    _cd_epoch_numpy(_logreg_rows, data, indices, indptr, y, x, Ax, lip, l1,
                    l2, 1.0, order)


def _epoch_kernels(lsq, logreg):
    """The four public L1/L2 epoch kernels of one backend.

    ``lsq(..., l1, l2, scale, order)`` and ``logreg(..., l1, l2, order)``
    are the backend's least-squares and logistic epochs.  Each kernel is
    its own function object, so a tracer that rebinds kernels by identity
    sees four.
    """
    def lasso_epoch(data, indices, indptr, y, x, Ax, lip, lam, order):
        lsq(data, indices, indptr, y, x, Ax, lip, lam, 0.0, 1.0, order)

    def enet_epoch(data, indices, indptr, y, x, Ax, lip, lam, rho, n_samples,
                   order):
        lsq(data, indices, indptr, y, x, Ax, lip, lam, rho, n_samples, order)

    def logreg_l1_epoch(data, indices, indptr, y, x, Ax, lip, lam, order):
        logreg(data, indices, indptr, y, x, Ax, lip, lam, 0.0, order)

    def logreg_l2_epoch(data, indices, indptr, y, x, Ax, lip, lam, order):
        logreg(data, indices, indptr, y, x, Ax, lip, 0.0, lam, order)

    return {"lasso_epoch": lasso_epoch, "enet_epoch": enet_epoch,
            "logreg_l1_epoch": logreg_l1_epoch,
            "logreg_l2_epoch": logreg_l2_epoch}


def _group_epoch_numpy(data, indices, indptr, y, x, Ax, grp_cols, grp_ptr,
                       lip_g, lam, order_g):
    for g in order_g:
        lg = lip_g[g]
        if lg <= 0.0:
            continue
        cols = grp_cols[grp_ptr[g]:grp_ptr[g + 1]]
        v = np.empty(cols.size)
        for t, j in enumerate(cols):
            sl = slice(indptr[j], indptr[j + 1])
            grad = data[sl] @ (Ax[indices[sl]] - y[indices[sl]])
            v[t] = x[j] - grad / lg
        norm = math.sqrt(v @ v)
        thr = lam / lg
        scale = 0.0 if norm <= thr else 1.0 - thr / norm
        for t, j in enumerate(cols):
            new = scale * v[t]
            d = new - x[j]
            if d != 0.0:
                sl = slice(indptr[j], indptr[j + 1])
                Ax[indices[sl]] += d * data[sl]
                x[j] = new


def lsq_gram_epoch(AT, G_rows, y, x, Ax, lip, l1, l2, scale, order):
    """One least-squares coordinate epoch on a dense design, in place.

    ``AT`` is the design's transpose (p x n) and ``G_rows`` the rows of its
    Gram matrix ``G = AT @ AT.T`` (a list of rows indexes faster than the
    2-d array).  The update is that of ``enet_epoch`` (``lasso_epoch`` for
    ``scale = 1`` and ``l2 = 0``): ``x_j <- st(x_j - g_j / (scale L_j),
    l1 / L_j) / (1 + l2 / L_j)`` with ``g = A'(Ax - y)``.  One product gives
    ``g`` at the start, a coordinate that moves updates it with one row of
    ``G``, and ``Ax`` is recomputed as ``A x`` at the end.  Numpy only.
    """
    g = AT @ (Ax - y)
    lip = lip.tolist()
    xs = x.tolist()
    for j in order.tolist():
        lj = lip[j]
        if lj <= 0.0:
            continue
        old = xs[j]
        new = _st(old - g.item(j) / scale / lj, l1 / lj) / (1.0 + l2 / lj)
        if new != old:
            g += (new - old) * G_rows[j]
            xs[j] = new
    x[:] = xs
    Ax[:] = x @ AT


def _loop_kernels(jit):
    """The kernel table of the explicit-loop sources, each passed through
    ``jit``: numba's compiler for the numba backend, or the identity for a
    plain-Python reference."""
    return {
        "csc_matvec": jit(_csc_matvec_loops),
        "csc_rmatvec": jit(_csc_rmatvec_loops),
        "csc_col_norms_sq": jit(_csc_col_norms_sq_loops),
        "cd_dense_epoch": jit(_cd_dense_epoch_loops),
        **_epoch_kernels(jit(_lsq_epoch_loops), jit(_logreg_epoch_loops)),
        "group_epoch": jit(_group_epoch_loops),
    }


_NUMPY_IMPLS = {
    "csc_matvec": _csc_matvec_numpy,
    "csc_rmatvec": _csc_rmatvec_numpy,
    "csc_col_norms_sq": _csc_col_norms_sq_numpy,
    "cd_dense_epoch": _cd_dense_epoch_numpy,
    **_epoch_kernels(_lsq_epoch_numpy, _logreg_epoch_numpy),
    "group_epoch": _group_epoch_numpy,
}

IMPLS = {"numpy": _NUMPY_IMPLS}

if HAVE_NUMBA:
    _st = njit(cache=True, inline="always")(_st)
    _sig_neg = njit(cache=True, inline="always")(_sig_neg)
    IMPLS["numba"] = _loop_kernels(njit(cache=True))

_ACTIVE = IMPLS[BACKEND]

csc_matvec = _ACTIVE["csc_matvec"]
csc_rmatvec = _ACTIVE["csc_rmatvec"]
csc_col_norms_sq = _ACTIVE["csc_col_norms_sq"]
cd_dense_epoch = _ACTIVE["cd_dense_epoch"]
lasso_epoch = _ACTIVE["lasso_epoch"]
enet_epoch = _ACTIVE["enet_epoch"]
logreg_l1_epoch = _ACTIVE["logreg_l1_epoch"]
logreg_l2_epoch = _ACTIVE["logreg_l2_epoch"]
group_epoch = _ACTIVE["group_epoch"]


def warmup():
    """Compile every kernel on a tiny instance (numba backend); the numpy
    backend has nothing to compile, so there it returns at once."""
    if BACKEND == "numpy":
        return
    data = np.array([1.0, 2.0])
    indices = np.array([0, 1], dtype=np.int64)
    indptr = np.array([0, 1, 2], dtype=np.int64)
    y = np.array([1.0, -1.0])
    order = np.arange(2, dtype=np.int64)
    ones = np.ones(2)
    csc_matvec(data, indices, indptr, 2, ones.copy())
    csc_rmatvec(data, indices, indptr, ones.copy())
    csc_col_norms_sq(data, indptr)
    cd_dense_epoch(np.eye(2), np.zeros(2), np.zeros(2), order)
    lasso_epoch(data, indices, indptr, y, np.zeros(2), np.zeros(2),
                ones.copy(), 0.1, order)
    enet_epoch(data, indices, indptr, y, np.zeros(2), np.zeros(2),
               ones.copy(), 0.1, 0.1, 2, order)
    logreg_l1_epoch(data, indices, indptr, y, np.zeros(2), np.zeros(2),
                    ones.copy(), 0.1, order)
    logreg_l2_epoch(data, indices, indptr, y, np.zeros(2), np.zeros(2),
                    ones.copy(), 0.1, order)
    group_epoch(data, indices, indptr, y, np.zeros(2), np.zeros(2),
                order.copy(), np.array([0, 2], dtype=np.int64),
                ones.copy(), 0.1, np.zeros(1, dtype=np.int64))
