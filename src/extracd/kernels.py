"""Hot numerical kernels: numpy products, and coordinate and product loops
in C.

Every kernel also has an explicit-loop source, which the library never
runs: ``tests/loop_sources.py`` holds them, and its table ``LOOPS`` runs
them as plain Python, the reference that the tests compare the public
kernels against.

All sparse kernels operate on raw CSC arrays (values, row indices,
column pointers) and update ``x`` / ``Ax`` in place.  Coordinates whose
curvature bound is zero are skipped, which freezes them at their initial
value.  Every coordinate kernel takes its ``order`` by the one rule of
`_checked_order`: 1-d integers (else TypeError), each in ``[-p, p)`` (else
IndexError, before any coordinate moves), a negative one counting from
the end, as in ``x[j]``.

The lasso, elastic-net and both logistic epochs apply one proximal
coordinate update, ``x_j <- st(x_j - A_j'r / scale / L_j, l1 / L_j) /
(1 + l2 / L_j)``, where ``r`` is the datafit's per-row gradient factor:
``Ax - y`` for least squares, ``-y * sigma(-y * Ax)`` for logistic
regression.  The four public kernels are wrappers that fix ``(l1, l2,
scale)`` of one loop.  ``l1 = 0`` leaves out the soft threshold, which
would turn a NaN or -0.0 step into 0.0.

Python loops over columns and coordinates are slow, so the numpy kernels
avoid per-column work where the input allows:

- ``csc_matvec`` and ``csc_rmatvec`` make one BLAS call when the matrix
  is fully dense (``nnz == n_rows * n_cols``): its values are then A' in
  C order; on any other matrix they run a C loop (below);
- ``csc_col_norms_sq`` is one batched ``np.matmul`` when every column
  holds as many entries (a fully dense CSC), with the bits of the
  per-column dots;
- ``problems.Quadratic.cd_sweep`` runs a cyclic pass on a quadratic as one
  Gauss-Seidel step instead of ``cd_dense_epoch``.

``cd_dense_epoch`` is its own loop source, whose steps are already one
BLAS dot each.

The coordinate epochs on a design visit each coordinate for a few
operations, and the sparse products each entry for one multiply and one
add, so in Python the interpreter's round trip per visit is most of their
time.  Each of them but the group epoch runs a C loop of ``_epochs.c``,
built with ``cc`` into one library when this module is imported and
called through ``ctypes``, and each C loop has one loop source in
``tests/loop_sources.py``:

- C ``gram_epoch``: `_gram_epoch_loops`, the coordinate loop of the Gram
  epoch, a least-squares epoch on a dense design through its Gram matrix
  (``problems.LeastSquares.epoch`` chooses it), which `lsq_gram_pass`
  runs between the epoch's two products;
- C ``sparse_epoch``, with the row factor ``lsq_row`` (entry point
  ``lsq_epoch``: ``lasso_epoch``, ``enet_epoch``) or ``logreg_row``
  (``logreg_epoch``: ``logreg_l1_epoch``, ``logreg_l2_epoch``), fixed in
  each at compile time: `_sparse_epoch_loops` with `_lsq_row` or
  `_logreg_row`;
- C ``csc_matvec`` and ``csc_rmatvec``, the products ``A x`` and ``A' v``
  of a CSC that is not fully dense, which the duality gap, the guard and
  the residual refresh run: `_csc_matvec_loops`, which skips a column
  whose ``x_j`` is zero, and `_csc_rmatvec_loops`;
- C ``anderson_extrapolate`` and ``anderson_weights``, the extrapolation
  solve of ``anderson`` on a window of iterates or on their differences,
  one pivoted Householder QR (``anderson_solve``) in both:
  `_anderson_extrapolate_loops` and `_anderson_weights_loops`.

Each C loop does its loop source's operations in the same order, compiled
without FMA contraction, so its iterates are bitwise the loop source's:

- the build tries ``-O3 -march=native``, then ``-O3``; both vectorize the
  Gram row update ``g += d * G_j``, which keeps the bits: each entry is
  one multiply and one add, each rounded once, in a SIMD lane as in a
  scalar register, and ``-ffp-contract=off`` without ``-ffast-math``
  neither fuses nor reassociates them;
- a sparse epoch's gradient and an entry of ``A' v`` are sums over a
  column's rows, which therefore stay sequential, and ``A x`` adds each
  column into the rows in storage order; the logistic ``exp`` is the C
  library's, linked with ``-lm``: the function that the loop source's
  ``math.exp`` calls (not ``np.exp``, whose last bits may differ);
- every sum of the extrapolation solve runs from its first term strictly
  in order, which ``np.add.accumulate`` does in its loop source, and its
  point is K axpys onto zeros, each entry's in the order of the iterates.

``cc`` is required: when no build loads, the import raises ImportError
naming the flags tried and ``cc``'s error (`_build_library`); the loop
sources, 40-70 times slower, are never a fallback.  ``BACKEND`` is
``"numpy+c"`` and ``CFLAGS`` the flags of the build that loaded.

Of the BLAS products a solve runs, one was found to change its bits with
the BLAS thread count: the Gram matrix ``A'A`` that a least-squares solve
on a fully dense design builds for its Gram epoch.  So:

- a solve that builds no Gram matrix has the same bits at any thread
  count (tested: ``pcd_anderson`` on the sparse sample data, at one and
  at two threads);
- a Gram-path solve depends on the count through ``A'A`` (measured with
  OpenBLAS 0.3.31 on two cores, one thread against two): the Gram
  matrices of all six lasso-dense designs (100 x 500) changed their
  bytes, while ``A' r``, ``x A'``, the column norms, the products and
  ``lambda_max`` kept theirs; ``pcd_anderson`` took 205 epochs on one
  design at one thread and 215 at two, and ended at other bits on a
  second with its epoch count unchanged.

``trace_digest.py``, perfbench and ``kernel_bench.py`` pin one thread.

A solve binds `lsq_gram_pass` once per order, which the pass keeps a
checked copy of, so each Gram epoch is its products and one call of the
loop.  A sparse epoch or product checks and converts its raw arrays on
every call, so that a tracer that rebinds ``lasso_epoch`` or
``csc_matvec`` sees each call with its arguments.
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


def _checked_order(order, p, c_checks_range=False, name="order"):
    """``order`` of a coordinate kernel over ``p`` coordinates as int64
    indices in ``range(p)``, a negative one counting from the end: else
    TypeError unless it is 1-d of integers (not bools), IndexError unless
    each lies in ``[-p, p)``; both messages call it ``name``.  With
    ``c_checks_range``, the C loop checks the range, so an order that int64
    holds is returned without a pass over it."""
    order = np.asarray(order)
    if order.ndim != 1 or order.dtype.kind not in "iu":
        raise TypeError(f"{name} must be a 1-d array of integers, not "
                        f"{order.ndim}-d {order.dtype}")
    if c_checks_range and np.can_cast(order.dtype, np.int64):
        return order
    if order.size and not -p <= order.min() <= order.max() < p:
        raise IndexError(f"{name} holds an index outside [-{p}, {p})")
    return order.astype(np.int64) % max(p, 1)


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
    return _c_product(_lib.csc_matvec, data, indices, indptr, n_rows, x,
                      transpose=False)


def csc_rmatvec(data, indices, indptr, v):
    AT = dense_transpose(data, indptr, v.size)
    if AT is not None:
        return AT @ v
    return _c_product(_lib.csc_rmatvec, data, indices, indptr, v.size, v,
                      transpose=True)


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


def cd_dense_epoch(H, b, x, order):
    for j in _checked_order(order, x.size).tolist():
        r = np.dot(H[j], x) + b[j]
        x[j] -= r / H[j, j]


def _logreg_rows(y, Ax):
    # the logistic gradient's per-row factors, for `problems.Logistic`:
    # the two branches of C ``sig_neg``, without boolean-mask indexing
    t = y * Ax
    e = np.exp(-np.abs(t))
    return -y * (np.where(t >= 0.0, e, 1.0) / (1.0 + e))


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
    for g in _checked_order(order_g, len(grp_ptr) - 1).tolist():
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
_PRODUCT_ARGS = [_PTR] * 5 + [_I64] * 3
_ANDERSON_ARGS = [_PTR, _I64, _I64, _PTR]
_SIGNATURES = {"gram_epoch": [_PTR] * 5 + [_I64] * 2 + [_F64] * 3,
               "lsq_epoch": _SPARSE_ARGS, "logreg_epoch": _SPARSE_ARGS,
               "csc_matvec": _PRODUCT_ARGS, "csc_rmatvec": _PRODUCT_ARGS,
               "anderson_weights": _ANDERSON_ARGS,
               "anderson_extrapolate": _ANDERSON_ARGS}
# the IndexError messages of the C loops' nonzero return codes
_C_ERRORS = {-1: "order holds an index outside [-{p}, {p})",
             -2: "indptr must rise from 0 or more to at most {nnz}",
             -3: "indices hold a row outside [0, {n})"}


def _build_library():
    """``(lib, flags)``: ``_epochs.c`` built into one library whose
    functions ``_SIGNATURES`` lists, and the ``cc`` flags of that build,
    the first level of ``_OPT_LEVELS`` that builds and loads.  One ``cc``
    call per level, linked with libm; ``cc`` builds into a private
    temporary directory, so no built file is reused or outlives the
    import; the loaded library stays mapped.  ImportError, naming each
    level's flags and what went wrong (no compiler, ``cc``'s error output,
    a slow build, a ``/tmp`` that forbids executing, a library without a
    symbol), if no level loads."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "_epochs.c")
    failures = []
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
        except (OSError, AttributeError, subprocess.SubprocessError) as exc:
            said = getattr(exc, "stderr", None)  # cc's own error, if any
            failures.append(f"cc {' '.join(flags)}: " + (
                said.decode(errors="replace").strip() if said else str(exc)))
        else:
            return lib, flags
    raise ImportError("extracd needs a C compiler, cc, to build its loops "
                      "(_epochs.c); " + "; ".join(failures))


def _c_array(a, dtype):
    """``a`` as an aligned C-contiguous array of ``dtype``: ``a`` itself
    when it is one, in about a tenth of the time of ``np.require``."""
    a = np.ascontiguousarray(a, dtype)
    return a if a.flags.aligned else a.copy()


def _csc_arrays(data, indices, indptr):
    """The raw CSC arrays as the C loops read them: ``data`` float64,
    ``indices`` and ``indptr`` int64, each aligned and C-contiguous;
    ValueError unless ``indptr`` is 1-d and not empty and ``data`` and
    ``indices`` are 1-d of equal length."""
    data = _c_array(data, np.float64)
    indices, indptr = _c_array(indices, np.int64), _c_array(indptr, np.int64)
    if indptr.ndim != 1 or indptr.size == 0:
        raise ValueError("indptr must be 1-d and not empty")
    if data.shape != (data.size,) or indices.shape != data.shape:
        raise ValueError("data and indices must be 1-d of equal length")
    return data, indices, indptr


def _c_product(c_product, data, indices, indptr, n_rows, operand,
               transpose):
    """A new array: ``A x`` by C ``csc_matvec``, or with ``transpose``
    ``A' v`` by C ``csc_rmatvec``, of the CSC design of ``n_rows`` rows in
    the raw arrays, bit for bit `_csc_matvec_loops`, resp.
    `_csc_rmatvec_loops`.  The arrays are taken as `_csc_arrays` takes
    them and the operand as float64 of shape ``(p,)``, resp.
    ``(n_rows,)`` (else ValueError); the C loop raises IndexError on a bad
    ``indptr`` or a row index outside ``[0, n_rows)``."""
    data, indices, indptr = _csc_arrays(data, indices, indptr)
    p, nnz = indptr.size - 1, data.size
    n_in, n_out = (n_rows, p) if transpose else (p, n_rows)
    operand = _c_array(operand, np.float64)
    if operand.shape != (n_in,):
        raise ValueError(f"the operand must hold {n_in} entries")
    out = np.empty(n_out)
    code = c_product(data.ctypes.data, indices.ctypes.data,
                     indptr.ctypes.data, operand.ctypes.data,
                     out.ctypes.data, p, n_rows, nnz)
    if code:
        raise IndexError(_C_ERRORS[code].format(n=n_rows, nnz=nnz))
    return out


def anderson_weights(U):
    """The Anderson weights of the K >= 1 differences in the rows of ``U``
    (K x p, taken as float64), or None when the solve is singular: by C
    ``anderson_weights``, bit for bit `_anderson_weights_loops`."""
    U = _c_array(U, np.float64)
    if U.ndim != 2 or len(U) < 1:
        raise ValueError("U must be 2-d with at least one row")
    c = np.empty(len(U))
    code = _lib.anderson_weights(U.ctypes.data, len(U), U.shape[1],
                                 c.ctypes.data)
    if code < 0:
        raise MemoryError("no workspace for the extrapolation solve")
    return None if code else c


def anderson_extrapolate(W):
    """The extrapolation of the K + 1 >= 2 iterates in the rows of ``W``
    (taken as float64; each row of any shape): ``(c, x_e)``, the weights
    of the rows ``W[1:]`` and the point ``sum_i c_i W[i + 1]``, or ``(None,
    None)`` when the solve is singular; by C ``anderson_extrapolate``, bit
    for bit `_anderson_extrapolate_loops`.  A C-contiguous float64 ``W`` is
    read in place."""
    W = _c_array(W, np.float64)
    if W.ndim == 0 or len(W) < 2:
        raise ValueError("W must hold at least two iterates")
    K = len(W) - 1
    p = W.size // (K + 1)
    # the point, then the weights: one buffer, one pointer
    out = np.empty(p + K)
    code = _lib.anderson_extrapolate(W.ctypes.data, K, p, out.ctypes.data)
    if code < 0:
        raise MemoryError("no workspace for the extrapolation solve")
    if code:
        return None, None
    return out[p:], out[:p].reshape(W.shape[1:])


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
    """`_sparse_epoch_loops` with its row factor bound and its loop run by
    ``c_epoch``: the C ``lsq_epoch`` or ``logreg_epoch``."""

    def epoch(data, indices, indptr, y, x, Ax, lip, l1, l2, scale, order):
        """The epoch of `_sparse_epoch_loops` with `_lsq_row`, resp.
        `_logreg_row`, bit for bit.

        ``data``, ``y`` and ``lip`` are taken as float64, ``indices``,
        ``indptr`` and ``order`` as int64, the penalties as doubles.  ``y``
        and ``Ax`` must hold n entries, ``lip`` and ``x`` p (``x`` and
        ``Ax`` float64; a strided one runs on a copy that is written back).
        ``order`` must be 1-d of integers (else TypeError); the C loop
        checks its range, ``indptr`` and the row indices before it touches
        ``x`` or ``Ax`` and raises IndexError on a bad one.
        """
        data, indices, indptr = _csc_arrays(data, indices, indptr)
        y, lip = _c_array(y, np.float64), _c_array(lip, np.float64)
        p, n, nnz = indptr.size - 1, y.size, data.size
        if y.shape != (n,):
            raise ValueError("y must be 1-d")
        if lip.shape != (p,):
            raise ValueError(f"lip must hold {p} entries")
        order = _c_array(_checked_order(order, p, c_checks_range=True),
                         np.int64)
        xc, Axc = _float64_out(x, "x", p), _float64_out(Ax, "Ax", n)
        code = c_epoch(
            data.ctypes.data, indices.ctypes.data, indptr.ctypes.data,
            y.ctypes.data, xc.ctypes.data, Axc.ctypes.data, lip.ctypes.data,
            order.ctypes.data, order.size, p, n, nnz, float(l1), float(l2),
            float(scale))
        if code:
            raise IndexError(_C_ERRORS[code].format(p=p, n=n, nnz=nnz))
        if xc is not x:
            x[:] = xc
        if Axc is not Ax:
            Ax[:] = Axc
    return epoch


def lsq_gram_pass(AT, G, y, lip, l1, l2, scale, order):
    """The epoch ``run(x, Ax)`` of `_lsq_gram_epoch_loops` with every other
    argument bound, bit for bit, its coordinate loop run by C
    ``gram_epoch``.

    ``G`` must be a C-contiguous float64 (p, p) array, ``lip`` hold p
    entries and ``order`` follow `_checked_order`: they are checked and
    converted here once, and the two scratch vectors allocated.  ``run``
    takes ``x`` and ``Ax`` as `_float64_out` does.
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
    order = _checked_order(order, p)
    g, r = np.empty(p), np.empty(n)
    l1, l2, scale = float(l1), float(l2), float(scale)
    # the C loop reads these arrays through their pointers: ``run`` holds
    # them, the converted copies of ``lip`` and ``order`` included
    G_p, g_p, lip_p, order_p = (a.ctypes.data for a in (G, g, lip, order))
    gram_epoch, m = _lib.gram_epoch, order.size

    def run(x, Ax):
        xc, Axc = _float64_out(x, "x", p), _float64_out(Ax, "Ax", n)
        np.subtract(Axc, y, out=r)
        np.matmul(AT, r, out=g)
        # ``order`` is in range(p), so the C loop's own check passes
        gram_epoch(G_p, g_p, xc.ctypes.data, lip_p, order_p, m, p, l1, l2,
                   scale)
        if xc is not x:
            x[:] = xc
        np.matmul(x, AT, out=Axc)
        if Axc is not Ax:
            Ax[:] = Axc
    run.arrays = G, lip, order
    return run


_lib, CFLAGS = _build_library()
lasso_epoch, enet_epoch, logreg_l1_epoch, logreg_l2_epoch = _epoch_kernels(
    _compiled_sparse_epoch(_lib.lsq_epoch),
    _compiled_sparse_epoch(_lib.logreg_epoch)).values()
# recorded by callers that report the backend
BACKEND = "numpy+c"


def warmup():
    """Prepare the kernels for a timed run: the compiled loops are built
    at import, so this returns at once."""
