"""The explicit-loop sources of the compiled kernels, run as plain
Python: the reference that the tests compare the public kernels of
`extracd.kernels` against.

Each C loop of ``_epochs.c`` does the operations of its loop source here
in the same order, so the two agree bit for bit (the `extracd.kernels`
docstring says how the build keeps that); `C_LOOPS` maps each C entry
point to its loop source.  `LOOPS` is the public kernel table run by
them: the products, the column norms, the coordinate epochs and the Gram
epoch.  Its ``cd_dense_epoch`` is the public kernel itself, whose steps
are already one BLAS dot each.  The library never runs this module: the
loops take 40-70 times as long as the C ones.
"""

import functools
import math

import numpy as np

from extracd.kernels import (_checked_order, _epoch_kernels, _st,
                             cd_dense_epoch)

_EPS = float(np.finfo(np.float64).eps)
_DBL_MAX = float(np.finfo(np.float64).max)
# the sums of squares whose square root is a norm; the others are scaled
_TINY, _HUGE = 2.0 ** -900, 2.0 ** 900


def _sig_neg(t):
    # sigma(-t) = 1 / (1 + e^t), overflow-safe on both sides
    if t >= 0.0:
        e = math.exp(-t)
        return e / (1.0 + e)
    return 1.0 / (1.0 + math.exp(t))


# the per-row gradient factors r_i of the two datafits
def _lsq_row(y, Ax):
    return Ax - y


def _logreg_row(y, Ax):
    return -y * _sig_neg(y * Ax)


# the products' loops run on lists of Python floats, which round as float64
# does, in a third of the time that indexing the arrays would take
def _csc_matvec_loops(data, indices, indptr, n_rows, x):
    # only the entries of the columns whose x_j is not zero, in storage
    # order, each with its product data[k] * x_j (one rounding, as in C)
    counts = np.diff(indptr)
    keep = np.repeat(x != 0.0, counts)
    stored = slice(indptr[0], indptr[-1])
    rows = indices[stored][keep].tolist()
    products = (data[stored] * np.repeat(x, counts))[keep].tolist()
    out = [0.0] * n_rows
    for r, v in zip(rows, products):
        out[r] += v
    return np.array(out)


def _csc_rmatvec_loops(data, indices, indptr, v):
    # each column's products data[k] * v[indices[k]] summed in storage order
    stored = slice(indptr[0], indptr[-1])
    products = (data[stored] * v[indices[stored]]).tolist()
    bounds = (indptr - indptr[0]).tolist()
    out = []
    for start, end in zip(bounds[:-1], bounds[1:]):
        acc = 0.0
        for t in products[start:end]:
            acc += t
        out.append(acc)
    return np.array(out)


def _csc_col_norms_sq_loops(data, indptr):
    p = indptr.size - 1
    out = np.empty(p)
    for j in range(p):
        acc = 0.0
        for k in range(indptr[j], indptr[j + 1]):
            acc += data[k] * data[k]
        out[j] = acc
    return out


def _sparse_epoch_loops(row, data, indices, indptr, y, x, Ax, lip, l1, l2,
                        scale, order):
    """C ``sparse_epoch``: one epoch of the datafit whose per-row gradient
    factor is ``row``."""
    for j in _checked_order(order, indptr.size - 1).tolist():
        lj = lip[j]
        if lj <= 0.0:
            continue
        start, end = indptr[j], indptr[j + 1]
        grad = 0.0
        for k in range(start, end):
            i = indices[k]
            grad += data[k] * row(y[i], Ax[i])
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
    for g in _checked_order(order_g, len(grp_ptr) - 1).tolist():
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


def _gram_epoch_loops(G, g, x, lip, l1, l2, scale, order):
    """C ``gram_epoch``: the coordinate loop of a least-squares epoch on a
    dense design, in place on ``x`` and on ``g = A'(Ax - y)``, which a
    coordinate that moves updates with its row of the Gram matrix ``G``."""
    l1, l2, scale = float(l1), float(l2), float(scale)
    lip = lip.tolist()
    xs = x.tolist()
    for j in _checked_order(order, len(xs)).tolist():
        lj = lip[j]
        if lj <= 0.0:
            continue
        old = xs[j]
        new = _st(old - g.item(j) / scale / lj, l1 / lj) / (1.0 + l2 / lj)
        if new != old:
            g += (new - old) * G[j]
            xs[j] = new
    x[:] = xs


def _lsq_gram_epoch_loops(AT, G, y, x, Ax, lip, l1, l2, scale, order):
    """One least-squares coordinate epoch on a dense design, in place, with
    the update of ``enet_epoch`` (``lasso_epoch`` for ``scale = 1`` and
    ``l2 = 0``): ``g = A'(Ax - y)`` from ``AT``, the design's transpose
    (p x n), then `_gram_epoch_loops` with the Gram matrix ``G = AT @
    AT.T``, then ``Ax`` recomputed as ``A x``."""
    g = AT @ (Ax - y)
    _gram_epoch_loops(G, g, x, lip, l1, l2, scale, order)
    Ax[:] = x @ AT


def _scaled_norm(x):
    # C ``scaled_norm``: ||x|| scaled by max |x_i|, NaN if an entry is NaN
    amax = np.abs(x).max()
    if amax == 0.0:
        return 0.0
    t = x / amax
    return amax * math.sqrt(np.add.accumulate(t * t)[-1])


@np.errstate(over="ignore", invalid="ignore")
def _anderson_weights_loops(U):
    """C ``anderson_solve``: the Anderson weights of the K >= 1 differences
    in the rows of ``U`` (K x p), or None when the solve is singular.  The
    weights minimize ``||U'c||`` subject to ``sum(c) = 1``, the constraint
    eliminated on the last weight: a Householder QR with column pivoting of
    the columns ``U_j - U_last`` against ``-U_last``, cut at the rank where
    ``|R_kk| <= eps * max(p, K - 1) * |R_00|``, then back substitution.
    Each sum is ``np.add.accumulate``'s last entry, which adds strictly in
    order as the C loop does."""
    K, p = U.shape
    m = K - 1
    if not np.isfinite(U).all():
        return None
    # row j holds column j; row m, which no pivot moves, the right side
    A = np.empty((K, p))
    A[:m] = U[:m] - U[m]
    A[m] = -U[m]
    perm, v, r, tol = list(range(K)), np.empty(p), 0, 0.0
    for k in range(min(m, p)):
        cols = A[perm[k:m], k:]
        sums = np.add.accumulate(cols * cols, axis=1)[:, -1]
        piv, nrm = k, 0.0
        for j, (s, col) in enumerate(zip(sums.tolist(), cols), k):
            nj = (math.sqrt(s) if _TINY <= s <= _HUGE
                  else _scaled_norm(col))
            if j == k or nj > nrm:
                piv, nrm = j, nj
        if not nrm <= _DBL_MAX:
            return None
        if k == 0:
            tol = _EPS * max(p, m) * nrm
        if nrm <= tol:
            break
        perm[k], perm[piv] = perm[piv], perm[k]
        a = A[perm[k]]
        alpha = a[k]
        beta = -math.copysign(nrm, alpha)
        tau, d = (beta - alpha) / beta, alpha - beta
        v[k] = 1.0
        v[k + 1:] = a[k + 1:] / d
        a[k] = beta
        rest = perm[k + 1:]
        Y = A[rest, k:]
        s = np.add.accumulate(v[k:] * Y, axis=1)[:, -1]
        A[rest, k:] = Y - (tau * s)[:, None] * v[k:]
        r = k + 1
    z = np.empty(r)
    for i in range(r - 1, -1, -1):
        terms = A[perm[i + 1:r], i] * z[i + 1:]
        s = np.add.accumulate(terms)[-1] if terms.size else 0.0
        z[i] = (A[m, i] - s) / A[perm[i], i]
    c = np.zeros(K)
    c[perm[:r]] = z
    c[m] = 1.0 - (np.add.accumulate(c[:m])[-1] if m else 0.0)
    return c if np.isfinite(c).all() else None


def _anderson_extrapolate_loops(W):
    """C ``anderson_extrapolate``: ``(c, x_e)``, the weights of the
    differences of the K + 1 >= 2 iterates in the rows of ``W`` and the
    point ``sum_i c_i W[i + 1]`` as K axpys onto zeros, or ``(None, None)``
    when the solve is singular."""
    U = W[1:] - W[:-1]
    c = _anderson_weights_loops(U.reshape(len(U), W[0].size))
    if c is None:
        return None, None
    x_e = np.zeros(W.shape[1:])
    for ci, xi in zip(c, W[1:]):
        x_e += ci * xi
    return c, x_e


# each C loop of ``kernels._SIGNATURES`` and its loop source
C_LOOPS = {
    "gram_epoch": _gram_epoch_loops,
    "lsq_epoch": functools.partial(_sparse_epoch_loops, _lsq_row),
    "logreg_epoch": functools.partial(_sparse_epoch_loops, _logreg_row),
    "csc_matvec": _csc_matvec_loops,
    "csc_rmatvec": _csc_rmatvec_loops,
    "anderson_weights": _anderson_weights_loops,
    "anderson_extrapolate": _anderson_extrapolate_loops,
}

LOOPS = {
    "csc_matvec": _csc_matvec_loops,
    "csc_rmatvec": _csc_rmatvec_loops,
    "csc_col_norms_sq": _csc_col_norms_sq_loops,
    "cd_dense_epoch": cd_dense_epoch,
    **_epoch_kernels(C_LOOPS["lsq_epoch"], C_LOOPS["logreg_epoch"]),
    "group_epoch": _group_epoch_loops,
    "lsq_gram_epoch": _lsq_gram_epoch_loops,
}
