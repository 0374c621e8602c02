"""Hot numerical kernels: numpy products, and coordinate loops in C.

Every kernel also has an explicit-loop source.  ``LOOPS`` holds them as a
kernel table run as plain Python: the reference that tests compare the
public kernels against.

All sparse kernels operate on raw CSC arrays (values, row indices,
column pointers) and update ``x`` / ``Ax`` in place.  Coordinates whose
curvature bound is zero are skipped, which freezes them at their initial
value.  An ``order`` index may count from the end, as in ``x[j]``; one
outside ``[-p, p)`` raises IndexError before any coordinate moves.

The lasso, elastic-net and both logistic epochs apply one proximal
coordinate update, ``x_j <- st(x_j - A_j'r / scale / L_j, l1 / L_j) /
(1 + l2 / L_j)``, where ``r`` is the datafit's per-row gradient factor:
``Ax - y`` for least squares, ``-y * sigma(-y * Ax)`` for logistic
regression.  The loop sources have one body per datafit, all called as
``(..., l1, l2, scale, order)``, and the four public kernels are wrappers
that fix ``(l1, l2, scale)``.  ``l1 = 0`` leaves out the soft threshold,
which would turn a NaN or -0.0 step into 0.0.

Python loops over columns and coordinates are slow, so the numpy kernels
avoid per-column work where the input allows:

- ``csc_matvec`` and ``csc_rmatvec`` are one ``np.bincount`` each on a
  sparse matrix (over the row, resp. column, of every entry), which adds
  the entries in storage order, as the loop sources do; they make one
  BLAS call when the matrix is fully dense (``nnz == n_rows * n_cols``):
  its values are then A' in C order;
- ``csc_col_norms_sq`` is one batched ``np.matmul`` when every column
  holds as many entries (a fully dense CSC), with the bits of the
  per-column dots;
- ``problems.Quadratic.cd_sweep`` runs a cyclic pass on a quadratic as one
  Gauss-Seidel step instead of ``cd_dense_epoch``.

``cd_dense_epoch`` is its loop source, whose steps are already one BLAS
dot each.

The coordinate epochs on a design visit each coordinate for a few
operations, so in Python the interpreter's round trip per visit is most
of their time.  Each of them but the group epoch has two forms: its loop
source, and a C loop in ``_epochs.c``, built with ``cc`` into one library
when this module is imported and called through ``ctypes``:

- the Gram epoch, which runs a least-squares epoch on a dense design
  through its Gram matrix (``problems.LeastSquares.epoch`` chooses it,
  through `lsq_gram_pass`): C ``gram_epoch``, loop source
  ``LOOPS["lsq_gram_epoch"]``;
- the four sparse epochs: one C body with the entry points ``lsq_epoch``
  (``lasso_epoch``, ``enet_epoch``) and ``logreg_epoch``
  (``logreg_l1_epoch``, ``logreg_l2_epoch``), which differ only in the
  row factor ``r``, fixed in each at compile time; loop sources the
  ``LOOPS`` entries of the same names.

Each C loop does its loop source's operations in the same order, compiled
without FMA contraction, so its iterates are bitwise the loop source's:

- the build tries ``-O3 -march=native``, then ``-O3``; both vectorize the
  Gram row update ``g += d * G_j``, which keeps the bits: each entry is
  one multiply and one add, each rounded once, in a SIMD lane as in a
  scalar register, and ``-ffp-contract=off`` without ``-ffast-math``
  neither fuses nor reassociates them;
- a sparse epoch's gradient is a sum over a column's rows, which
  therefore stays sequential, and the logistic ``exp`` is the C
  library's, linked with ``-lm``: the function that the loop source's
  ``math.exp`` calls (not ``np.exp``, whose last bits may differ).

The loop sources are the kernels wherever both builds fail (no compiler,
say), so an iterate has the same bits on every host.  ``BACKEND`` is
``"numpy+c"`` when the compiled loops run, else ``"numpy"``, and
``CFLAGS`` holds the flags of the build that loaded, or None.  A solve
binds `lsq_gram_pass` once per order array, so each Gram epoch is its
products and one C call.  A sparse epoch checks and converts its raw
arrays on every call, so that a tracer that rebinds ``lasso_epoch`` or
``logreg_l1_epoch`` sees each epoch with its arguments.
"""

import ctypes
import math
import os
import subprocess
import tempfile

import numpy as np

# ---------------------------------------------------------------------------
# scalar helpers
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
# explicit-loop sources (the tests' reference)
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


def _columns(order, p):
    """``order`` as a list of indices in ``range(p)``; a negative one counts
    from the end, as in ``x[j]``, and one outside ``[-p, p)`` raises
    IndexError before any coordinate moves.  The column pointers hold
    ``p + 1`` entries, so a negative ``j`` would frame another column."""
    if order.size and not -p <= order.min() <= order.max() < p:
        raise IndexError(f"order holds an index outside [-{p}, {p})")
    return (order % max(p, 1)).tolist()


def _lsq_epoch_loops(data, indices, indptr, y, x, Ax, lip, l1, l2, scale,
                     order):
    for j in _columns(order, indptr.size - 1):
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


def _logreg_epoch_loops(data, indices, indptr, y, x, Ax, lip, l1, l2, scale,
                        order):
    for j in _columns(order, indptr.size - 1):
        lj = lip[j]
        if lj <= 0.0:
            continue
        start, end = indptr[j], indptr[j + 1]
        grad = 0.0
        for k in range(start, end):
            i = indices[k]
            grad += data[k] * (-y[i] * _sig_neg(y[i] * Ax[i]))
        new = x[j] - grad / scale / lj
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


def _lsq_gram_epoch_loops(AT, G, y, x, Ax, lip, l1, l2, scale, order):
    """One least-squares coordinate epoch on a dense design, in place.

    ``AT`` is the design's transpose (p x n) and ``G = AT @ AT.T`` its Gram
    matrix.  The update is that of ``enet_epoch`` (``lasso_epoch`` for
    ``scale = 1`` and ``l2 = 0``): ``x_j <- st(x_j - g_j / (scale L_j),
    l1 / L_j) / (1 + l2 / L_j)`` with ``g = A'(Ax - y)``.  One product gives
    ``g`` at the start, a coordinate that moves updates it with one row of
    ``G``, and ``Ax`` is recomputed as ``A x`` at the end.
    """
    l1, l2, scale = float(l1), float(l2), float(scale)
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
            g += (new - old) * G[j]
            xs[j] = new
    x[:] = xs
    Ax[:] = x @ AT


# ---------------------------------------------------------------------------
# numpy kernels
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


def csc_matvec(data, indices, indptr, n_rows, x):
    AT = dense_transpose(data, indptr, n_rows)
    if AT is not None:
        return x @ AT
    return np.bincount(indices, weights=data * np.repeat(x, np.diff(indptr)),
                       minlength=n_rows)


def csc_rmatvec(data, indices, indptr, v):
    AT = dense_transpose(data, indptr, v.size)
    if AT is not None:
        return AT @ v
    p = indptr.size - 1
    cols = np.repeat(np.arange(p), np.diff(indptr))
    return np.bincount(cols, weights=data * v[indices], minlength=p)


def csc_col_norms_sq(data, indptr):
    p = indptr.size - 1
    counts = np.diff(indptr)
    if p and (counts == counts[0]).all():
        # columns of one length (a fully dense CSC, say) are the rows of a
        # p x m view; each batch of this product is a 1 x m by m x 1
        # product, the same dot as ``c @ c`` per column
        cols = data[indptr[0]:indptr[-1]].reshape(p, counts[0])
        return np.matmul(cols[:, None, :], cols[:, :, None]).reshape(p)
    out = np.empty(p)
    for j in range(p):
        sl = slice(indptr[j], indptr[j + 1])
        out[j] = data[sl] @ data[sl]
    return out


def _logreg_rows(y, Ax):
    # the logistic gradient's per-row factor, for `problems.Logistic`
    return -y * _sig_neg_vec(y * Ax)


def _epoch_kernels(lsq, logreg):
    """The four public L1/L2 epoch kernels of one pair of bodies.

    ``lsq`` and ``logreg``, both called as ``(..., l1, l2, scale,
    order)``, are a least-squares and a logistic epoch.  Each kernel is
    its own function object, so a tracer that rebinds kernels by identity
    sees four.
    """
    def lasso_epoch(data, indices, indptr, y, x, Ax, lip, lam, order):
        lsq(data, indices, indptr, y, x, Ax, lip, lam, 0.0, 1.0, order)

    def enet_epoch(data, indices, indptr, y, x, Ax, lip, lam, rho, n_samples,
                   order):
        lsq(data, indices, indptr, y, x, Ax, lip, lam, rho, n_samples, order)

    def logreg_l1_epoch(data, indices, indptr, y, x, Ax, lip, lam, order):
        logreg(data, indices, indptr, y, x, Ax, lip, lam, 0.0, 1.0, order)

    def logreg_l2_epoch(data, indices, indptr, y, x, Ax, lip, lam, order):
        logreg(data, indices, indptr, y, x, Ax, lip, 0.0, lam, 1.0, order)

    return {"lasso_epoch": lasso_epoch, "enet_epoch": enet_epoch,
            "logreg_l1_epoch": logreg_l1_epoch,
            "logreg_l2_epoch": logreg_l2_epoch}


def group_epoch(data, indices, indptr, y, x, Ax, grp_cols, grp_ptr, lip_g,
                lam, order_g):
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


# ---------------------------------------------------------------------------
# the compiled coordinate loops
# ---------------------------------------------------------------------------

# the optimization levels tried in turn: the library is built on the host
# that runs it, so ``-march=native`` never leaves that machine.  Plain
# ``-O3`` serves compilers without that option: GCC on POWER has no
# ``-march`` at all (the GCC manual's "RS/6000 and PowerPC Options" list
# ``-mcpu`` and ``-mtune`` only), so ``-march=native`` fails there
_OPT_LEVELS = (("-O3", "-march=native"), ("-O3",))
_FP_FLAGS = ("-ffp-contract=off", "-fPIC", "-shared")
_I64, _F64, _PTR = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
_SPARSE_ARGS = [_PTR] * 8 + [_I64] * 4 + [_F64] * 3
_SIGNATURES = {"gram_epoch": [_PTR] * 5 + [_I64] * 2 + [_F64] * 3,
               "lsq_epoch": _SPARSE_ARGS, "logreg_epoch": _SPARSE_ARGS}


def _build_loops():
    """``(lib, flags)``: ``_epochs.c`` built into one library whose
    functions ``_SIGNATURES`` lists, and the ``cc`` flags of that build,
    or ``(None, None)`` if no level of ``_OPT_LEVELS`` builds and loads (no
    compiler, a failed or slow build, a ``/tmp`` that forbids executing, a
    library without a symbol).  One ``cc`` call per level, linked with
    libm; ``cc`` builds into a private temporary directory, so no built
    file is reused or outlives the import; the loaded library stays
    mapped."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "_epochs.c")
    for opt in _OPT_LEVELS:
        flags = opt + _FP_FLAGS
        try:
            with tempfile.TemporaryDirectory() as tmp:
                path = os.path.join(tmp, "_epochs.so")
                subprocess.run(["cc", *flags, "-o", path, src, "-lm"],
                               timeout=60, check=True, capture_output=True)
                lib = ctypes.CDLL(path)
                for name, argtypes in _SIGNATURES.items():
                    fn = getattr(lib, name)
                    fn.restype, fn.argtypes = ctypes.c_int, argtypes
        except (OSError, AttributeError, subprocess.SubprocessError):
            continue
        return lib, flags
    return None, None


def _c_array(a, dtype):
    """``a`` as an aligned C-contiguous array of ``dtype``: ``a`` itself
    when it is one, in about a tenth of the time of ``np.require``."""
    a = np.ascontiguousarray(a, dtype)
    return a if a.flags.aligned else a.copy()


def _float64_out(a, name, size):
    """``a``, an array the C loop writes, or a C-contiguous copy of it to
    write back; TypeError unless it is float64 of shape ``(size,)``."""
    if not (isinstance(a, np.ndarray) and a.dtype == np.float64
            and a.shape == (size,)):
        raise TypeError(f"{name} must be a float64 array of shape ({size},)")
    if not a.flags.writeable:
        raise ValueError(f"{name} is read-only")
    return a if a.flags.carray else a.copy()


def _compiled_sparse_epoch(c_epoch):
    """The loop source of a sparse epoch with its coordinate loop run by
    ``c_epoch``: the C ``lsq_epoch`` or ``logreg_epoch``."""
    errors = {-1: "order holds an index outside [-{p}, {p})",
              -2: "indptr must rise from 0 or more to at most {nnz}",
              -3: "indices hold a row outside [0, {n})"}

    def epoch(data, indices, indptr, y, x, Ax, lip, l1, l2, scale, order):
        """The epoch of `_lsq_epoch_loops`, resp. `_logreg_epoch_loops`,
        bit for bit.

        ``data``, ``y`` and ``lip`` are taken as float64, ``indices``,
        ``indptr`` and ``order`` as int64, the penalties as doubles.  ``y``
        and ``Ax`` must hold n entries, ``lip`` and ``x`` p (``x`` and
        ``Ax`` float64; a strided one runs on a copy that is written back).
        The C loop checks ``order``, ``indptr`` and the row indices before
        it touches ``x`` or ``Ax`` and raises IndexError on a bad one.
        """
        data, y, lip = (_c_array(data, np.float64), _c_array(y, np.float64),
                        _c_array(lip, np.float64))
        indices, indptr, order = (_c_array(indices, np.int64),
                                  _c_array(indptr, np.int64),
                                  _c_array(order, np.int64))
        p, n, nnz = indptr.size - 1, y.size, data.size
        if p < 0 or indptr.ndim != 1:
            raise ValueError("indptr must be 1-d and not empty")
        if data.shape != (nnz,) or indices.shape != (nnz,):
            raise ValueError("data and indices must be 1-d of equal length")
        if y.shape != (n,):
            raise ValueError("y must be 1-d")
        if lip.shape != (p,):
            raise ValueError(f"lip must hold {p} entries")
        xc, Axc = _float64_out(x, "x", p), _float64_out(Ax, "Ax", n)
        code = c_epoch(
            data.ctypes.data, indices.ctypes.data, indptr.ctypes.data,
            y.ctypes.data, xc.ctypes.data, Axc.ctypes.data, lip.ctypes.data,
            order.ctypes.data, order.size, p, n, nnz, float(l1), float(l2),
            float(scale))
        if code:
            raise IndexError(errors[code].format(p=p, n=n, nnz=nnz))
        if xc is not x:
            x[:] = xc
        if Axc is not Ax:
            Ax[:] = Axc
    return epoch


def _lsq_gram_pass_loops(AT, G, y, lip, l1, l2, scale, order):
    """`lsq_gram_pass` of the loop source."""
    def run(x, Ax):
        _lsq_gram_epoch_loops(AT, G, y, x, Ax, lip, l1, l2, scale, order)
    return run


def _compiled_gram_pass(gram_epoch):
    """`lsq_gram_pass` with its coordinate loop run by ``gram_epoch``."""
    def lsq_gram_pass(AT, G, y, lip, l1, l2, scale, order):
        """The epoch ``run(x, Ax)`` of `_lsq_gram_epoch_loops` with every
        other argument bound, bit for bit, with the coordinate loop in C.

        ``G`` must be a C-contiguous float64 (p, p) array, ``lip`` hold p
        entries and ``order`` indices in ``[-p, p)`` (else IndexError):
        they are checked and converted here once, and the two scratch
        vectors allocated.  ``run`` takes a float64 ``x`` of p entries (a
        strided one runs on a copy that is written back).  The C loop
        checks ``order`` again before it touches ``x``.
        """
        p, n = AT.shape
        if not (isinstance(G, np.ndarray) and G.dtype == np.float64
                and G.shape == (p, p) and G.flags.c_contiguous
                and G.flags.aligned):
            raise ValueError(f"G must be a C-contiguous float64 ({p}, {p}) "
                             "array")
        lip = np.require(lip, np.float64, ("C", "A"))
        if lip.shape != (p,):
            raise ValueError(f"lip must hold {p} entries")
        order = np.require(order, np.int64, ("C", "A"))
        bad = f"order holds an index outside [-{p}, {p})"
        if order.size and not -p <= order.min() <= order.max() < p:
            raise IndexError(bad)
        g, r = np.empty(p), np.empty(n)
        G_p, g_p, lip_p, order_p = (a.ctypes.data for a in (G, g, lip, order))
        m, l1, l2, scale = order.size, float(l1), float(l2), float(scale)

        def run(x, Ax):
            if x.dtype != np.float64 or x.shape != (p,):
                raise TypeError(f"x must be a float64 array of shape ({p},)")
            xc = x if x.flags.carray else x.copy()
            np.subtract(Ax, y, out=r)
            np.matmul(AT, r, out=g)
            if gram_epoch(G_p, g_p, xc.ctypes.data, lip_p, order_p, m, p, l1,
                          l2, scale):
                raise IndexError(bad)
            if xc is not x:
                x[:] = xc
            np.matmul(x, AT, out=Ax)
        # the C loop reads these through the pointers above: the pass holds
        # them, the converted copies of ``lip`` and ``order`` included
        run.arrays = G, lip, order
        return run
    return lsq_gram_pass


cd_dense_epoch = _cd_dense_epoch_loops
LOOPS = {
    "csc_matvec": _csc_matvec_loops,
    "csc_rmatvec": _csc_rmatvec_loops,
    "csc_col_norms_sq": _csc_col_norms_sq_loops,
    "cd_dense_epoch": _cd_dense_epoch_loops,
    **_epoch_kernels(_lsq_epoch_loops, _logreg_epoch_loops),
    "group_epoch": _group_epoch_loops,
    "lsq_gram_epoch": _lsq_gram_epoch_loops,
}

_lib, CFLAGS = _build_loops()
if _lib is None:
    lsq_gram_pass = _lsq_gram_pass_loops
    _EPOCHS = LOOPS
else:
    lsq_gram_pass = _compiled_gram_pass(_lib.gram_epoch)
    _EPOCHS = _epoch_kernels(_compiled_sparse_epoch(_lib.lsq_epoch),
                             _compiled_sparse_epoch(_lib.logreg_epoch))
lasso_epoch = _EPOCHS["lasso_epoch"]
enet_epoch = _EPOCHS["enet_epoch"]
logreg_l1_epoch = _EPOCHS["logreg_l1_epoch"]
logreg_l2_epoch = _EPOCHS["logreg_l2_epoch"]
# recorded by callers that report the backend
BACKEND = "numpy" if CFLAGS is None else "numpy+c"


def warmup():
    """Prepare the kernels for a timed run: the compiled loops are built
    at import, so this returns at once."""
