"""Kernel tests: the numpy kernels, and the explicit-loop sources run as
plain Python, against slow dense reference code and each other."""

import functools
import os
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extracd import SolverConfig, kernels, lambda_max, solve
from extracd.data import CscMatrix, load_sample, parse_libsvm
from extracd.kernels import warmup
from extracd.problems import (L1L2, ElasticNet, GroupLasso, Lasso, Logistic,
                              LogRegL1, LogRegL2, Quadratic, groups_from_size)
from extracd.solvers import pcd_epoch

from loop_sources import C_LOOPS, LOOPS

# the public kernels (numpy, and the C loops) as a table beside LOOPS, the
# loop sources of ``loop_sources`` run as plain Python: the reference they
# are checked against.  The Gram epoch's public form is the pass that
# `kernels.lsq_gram_pass` binds, checked below.
NUMPY = {name: getattr(kernels, name) for name in LOOPS
         if name != "lsq_gram_epoch"}
TABLES = {"numpy": NUMPY, "loops": LOOPS}
BACKENDS = sorted(TABLES)


def soft(v, t):
    return np.sign(v) * max(abs(v) - t, 0.0)


def make_problem(n, p, seed, density=0.6):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, p))
    M[rng.random((n, p)) > density] = 0.0
    M[:, p // 2] = 0.0  # provoke the zero-Lipschitz skip path
    A = CscMatrix.from_dense(M)
    y = rng.standard_normal(n)
    x = rng.standard_normal(p) * 0.5
    return M, A, y, x


@pytest.fixture(params=BACKENDS)
def impl(request):
    return TABLES[request.param]


class TestSparseOps:
    def test_matvec(self, impl):
        M, A, y, x = make_problem(15, 9, seed=0)
        out = impl["csc_matvec"](A.values, A.row_idx, A.col_ptr, 15, x)
        np.testing.assert_allclose(out, M @ x, rtol=1e-13, atol=1e-14)

    def test_rmatvec(self, impl):
        M, A, y, _ = make_problem(15, 9, seed=1)
        out = impl["csc_rmatvec"](A.values, A.row_idx, A.col_ptr, y)
        np.testing.assert_allclose(out, M.T @ y, rtol=1e-13, atol=1e-14)

    def test_col_norms_sq(self, impl):
        M, A, _, _ = make_problem(15, 9, seed=2)
        out = impl["csc_col_norms_sq"](A.values, A.col_ptr)
        np.testing.assert_allclose(out, (M * M).sum(axis=0), rtol=1e-13)


class TestDenseCdEpoch:
    def test_matches_reference_sweep(self, impl):
        rng = np.random.default_rng(3)
        p = 8
        B = rng.standard_normal((p, p))
        H = B @ B.T + p * np.eye(p)
        b = rng.standard_normal(p)
        x = rng.standard_normal(p)
        order = np.arange(p, dtype=np.int64)

        ref = x.copy()
        for j in range(p):
            ref[j] -= (H[j] @ ref + b[j]) / H[j, j]

        got = x.copy()
        impl["cd_dense_epoch"](H, b, got, order)
        np.testing.assert_allclose(got, ref, rtol=1e-13, atol=1e-14)

    def test_custom_order(self, impl):
        rng = np.random.default_rng(4)
        H = np.diag(rng.uniform(1, 2, size=5))
        b = rng.standard_normal(5)
        x = rng.standard_normal(5)
        order = np.array([4, 0, 2, 1, 3], dtype=np.int64)
        got = x.copy()
        impl["cd_dense_epoch"](H, b, got, order)
        # diagonal H: every coordinate lands on its exact minimizer
        np.testing.assert_allclose(got, -b / np.diag(H), rtol=1e-13)


def run_epoch(impl, name, M, A, y, x, extra):
    lip = (M * M).sum(axis=0)
    if name == "enet_epoch":
        lip = lip / M.shape[0] + extra["rho"]
    elif name in ("logreg_l1_epoch", "logreg_l2_epoch"):
        lip = lip / 4.0
    x_k = x.copy()
    Ax = M @ x_k
    order = np.arange(M.shape[1], dtype=np.int64)
    args = [A.values, A.row_idx, A.col_ptr, y, x_k, Ax, lip, extra["lam"]]
    if name == "enet_epoch":
        args += [extra["rho"], M.shape[0]]
    args.append(order)
    impl[name](*args)
    return x_k, Ax, lip


class TestCompositeEpochs:
    def test_lasso(self, impl):
        M, A, y, x = make_problem(20, 10, seed=5)
        lam = 0.3
        got, Ax, lip = run_epoch(impl, "lasso_epoch", M, A, y, x,
                                 {"lam": lam})
        ref = x.copy()
        for j in range(10):
            lj = M[:, j] @ M[:, j]
            if lj <= 0:
                continue
            g = M[:, j] @ (M @ ref - y)
            ref[j] = soft(ref[j] - g / lj, lam / lj)
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(Ax, M @ got, rtol=1e-12, atol=1e-13)
        assert got[5] == x[5]  # zero-Lipschitz column left untouched

    def test_enet(self, impl):
        M, A, y, x = make_problem(20, 10, seed=6)
        n = 20
        lam, rho = 0.2, 0.15
        got, Ax, _ = run_epoch(impl, "enet_epoch", M, A, y, x,
                               {"lam": lam, "rho": rho})
        ref = x.copy()
        for j in range(10):
            # the ridge term keeps lj positive even for an empty column
            lj = (M[:, j] @ M[:, j]) / n + rho
            g = M[:, j] @ (M @ ref - y) / n
            ref[j] = soft(ref[j] - g / lj, lam / lj) / (1.0 + rho / lj)
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(Ax, M @ got, rtol=1e-12, atol=1e-13)

    def test_logreg_l1(self, impl):
        M, A, _, x = make_problem(25, 8, seed=7)
        y = np.where(np.random.default_rng(8).random(25) > 0.5, 1.0, -1.0)
        lam = 0.1
        got, Ax, lip = run_epoch(impl, "logreg_l1_epoch", M, A, y, x,
                                 {"lam": lam})
        ref = x.copy()
        for j in range(8):
            lj = (M[:, j] @ M[:, j]) / 4.0
            if lj <= 0:
                continue
            s = 1.0 / (1.0 + np.exp(y * (M @ ref)))
            g = M[:, j] @ (-y * s)
            ref[j] = soft(ref[j] - g / lj, lam / lj)
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(Ax, M @ got, rtol=1e-12, atol=1e-13)

    def test_logreg_l2(self, impl):
        M, A, _, x = make_problem(25, 8, seed=9)
        y = np.where(np.random.default_rng(10).random(25) > 0.5, 1.0, -1.0)
        lam = 0.4
        got, Ax, _ = run_epoch(impl, "logreg_l2_epoch", M, A, y, x,
                               {"lam": lam})
        ref = x.copy()
        for j in range(8):
            lj = (M[:, j] @ M[:, j]) / 4.0
            if lj <= 0:
                continue
            s = 1.0 / (1.0 + np.exp(y * (M @ ref)))
            g = M[:, j] @ (-y * s)
            ref[j] = (ref[j] - g / lj) / (1.0 + lam / lj)
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(Ax, M @ got, rtol=1e-12, atol=1e-13)

    def test_group(self, impl):
        M, A, y, x = make_problem(18, 9, seed=11)
        lam = 0.5
        groups = [np.array([0, 1, 2]), np.array([3, 4, 5]),
                  np.array([6, 7, 8])]
        grp_cols = np.concatenate(groups).astype(np.int64)
        grp_ptr = np.array([0, 3, 6, 9], dtype=np.int64)
        lip_g = np.array([np.linalg.norm(M[:, g], 2) ** 2 for g in groups])
        x_k = x.copy()
        Ax = M @ x_k
        order_g = np.arange(3, dtype=np.int64)
        impl["group_epoch"](A.values, A.row_idx, A.col_ptr, y, x_k, Ax,
                            grp_cols, grp_ptr, lip_g, lam, order_g)
        ref = x.copy()
        for g, cols in enumerate(groups):
            lg = lip_g[g]
            grad = M[:, cols].T @ (M @ ref - y)
            v = ref[cols] - grad / lg
            norm = np.linalg.norm(v)
            scale = 0.0 if norm <= lam / lg else 1.0 - (lam / lg) / norm
            ref[cols] = scale * v
        np.testing.assert_allclose(x_k, ref, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(Ax, M @ x_k, rtol=1e-12, atol=1e-13)


class TestBackendAgreement:
    def test_epochs_agree_across_backends(self):
        M, A, y, x = make_problem(30, 12, seed=12)
        yb = np.where(y > 0, 1.0, -1.0)
        cases = [
            ("lasso_epoch", y, {"lam": 0.2}),
            ("enet_epoch", y, {"lam": 0.2, "rho": 0.1}),
            ("logreg_l1_epoch", yb, {"lam": 0.05}),
            ("logreg_l2_epoch", yb, {"lam": 0.3}),
        ]
        for name, target, extra in cases:
            want, want_Ax, _ = run_epoch(NUMPY, name, M, A, target, x,
                                         extra)
            assert not np.array_equal(want, x), name  # some coordinate moved
            for backend in BACKENDS:
                got, Ax, _ = run_epoch(TABLES[backend], name, M, A, target,
                                       x, extra)
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)
                np.testing.assert_allclose(Ax, want_Ax, rtol=1e-12,
                                           atol=1e-15)


def dense_problem(n, p, seed):
    """A fully dense design (every entry stored), unlike `make_problem`."""
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, p))
    A = CscMatrix.from_dense(M)
    assert A.nnz == n * p
    return M, A, rng.standard_normal(n), rng.standard_normal(p) * 0.5


def spd_quadratic(rng, p, spectrum):
    Q, _ = np.linalg.qr(rng.standard_normal((p, p)))
    H = (Q * spectrum) @ Q.T
    return Quadratic(0.5 * (H + H.T), rng.standard_normal(p))


def acceptance_quadratics():
    """The quadratics of acceptance criteria 04 and 07."""
    quads = []
    for i in range(10):
        rng = np.random.default_rng(400 + i)
        p = int(rng.integers(5, 51))
        quads.append(spd_quadratic(rng, p, rng.uniform(0.1, 2.0, size=p)))
    quads.append(spd_quadratic(np.random.default_rng(11), 200,
                               np.logspace(-4, 0, 200)))
    return quads


class TestDensePaths:
    """The numpy kernels' dense paths against the explicit-loop sources,
    run as plain Python."""

    def test_products(self):
        M, A, y, x = dense_problem(30, 17, seed=20)
        got = NUMPY["csc_matvec"](A.values, A.row_idx, A.col_ptr, 30, x)
        ref = LOOPS["csc_matvec"](A.values, A.row_idx, A.col_ptr, 30, x)
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-14)
        got = NUMPY["csc_rmatvec"](A.values, A.row_idx, A.col_ptr, y)
        ref = LOOPS["csc_rmatvec"](A.values, A.row_idx, A.col_ptr, y)
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("rho", [0.0, 0.15])
    def test_gram_epochs(self, rho):
        M, A, y, x0 = dense_problem(40, 25, seed=21)
        n = 40
        lam = 0.3 * float(np.abs(M.T @ y).max())
        prob = Lasso(A, y, lam) if rho == 0.0 else ElasticNet(A, y, lam / n,
                                                             rho)
        datafit, penalty = prob.datafit, prob.penalty
        lip = datafit.coordinate_lipschitz(penalty)
        bind = penalty.epoch(datafit, lip)
        cyclic = np.arange(25, dtype=np.int64)
        repeats = np.random.default_rng(22).integers(0, 25, size=25)
        x, Ax = x0.copy(), M @ x0
        x_ref, Ax_ref = x0.copy(), M @ x0
        for order in (cyclic, repeats, cyclic, cyclic[::-1].copy(), cyclic):
            bind(order)(x, Ax)
            if rho == 0.0:
                LOOPS["lasso_epoch"](A.values, A.row_idx, A.col_ptr, y, x_ref,
                                     Ax_ref, lip, lam, order)
            else:
                LOOPS["enet_epoch"](A.values, A.row_idx, A.col_ptr, y, x_ref,
                                    Ax_ref, lip, lam / n, rho, n, order)
            assert float(np.abs(x - x_ref).max()) <= 1e-12
            assert float(np.abs(Ax - Ax_ref).max()) <= 1e-12
        assert np.count_nonzero(x) not in (0, 25)  # the l1 part is active

    def test_gram_kernel_direct(self):
        M, A, y, x0 = dense_problem(12, 30, seed=23)
        lip = (M * M).sum(axis=0)
        order = np.arange(30, dtype=np.int64)
        AT = np.ascontiguousarray(M.T)
        x, Ax = x0.copy(), M @ x0
        kernels.lsq_gram_pass(AT, AT @ AT.T, y, lip, 0.3, 0.0, 1.0,
                              order)(x, Ax)
        x_ref, Ax_ref = x0.copy(), M @ x0
        LOOPS["lasso_epoch"](A.values, A.row_idx, A.col_ptr, y, x_ref, Ax_ref,
                             lip, 0.3, order)
        assert float(np.abs(x - x_ref).max()) <= 1e-12
        assert float(np.abs(Ax - Ax_ref).max()) <= 1e-12

    @pytest.mark.parametrize("n, p", [(1, 1), (3, 5), (8, 3), (17, 33),
                                      (100, 500), (40, 7)])
    def test_col_norms_are_the_per_column_dots(self, n, p):
        # one batched product over the columns, with the bits of a dot per
        # column
        _, A, _, _ = dense_problem(n, p, seed=n + p)
        cols = [A.values[A.col_ptr[j]:A.col_ptr[j + 1]] for j in range(p)]
        want = np.array([c @ c for c in cols])
        got = NUMPY["csc_col_norms_sq"](A.values, A.col_ptr)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("k, n, p", [(0, 4, 3), (1, 5, 9), (2, 6, 4),
                                         (2, 40, 33), (3, 9, 17)])
    def test_sparse_col_norms_of_equal_columns_are_the_dots(self, k, n, p):
        # a sparse CSC with k entries in every column takes the same batched
        # product as a dense one
        rng = np.random.default_rng(k + n + p)
        M = np.zeros((n, p))
        for j in range(p):
            M[rng.choice(n, k, replace=False), j] = rng.standard_normal(k)
        A = CscMatrix.from_dense(M)
        assert (np.diff(A.col_ptr) == k).all() and A.values.size < n * p
        cols = [A.values[A.col_ptr[j]:A.col_ptr[j + 1]] for j in range(p)]
        want = np.array([c @ c for c in cols])
        got = NUMPY["csc_col_norms_sq"](A.values, A.col_ptr)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("backward", [False, True])
    def test_quadratic_cyclic_passes(self, backward):
        for quad in acceptance_quadratics():
            order = np.arange(quad.dim, dtype=np.int64)
            if backward:
                order = order[::-1].copy()
            x0 = np.random.default_rng(quad.dim).standard_normal(quad.dim)
            got, ref = x0.copy(), x0.copy()
            quad.cd_sweep(order)(got, quad.H @ got)
            LOOPS["cd_dense_epoch"](quad.H, quad.b, ref, order)
            assert float(np.abs(got - ref).max()) <= 1e-12, quad.dim

    def test_cd_pass_carries_hx(self):
        # the cyclic orders take the Gauss-Seidel step, the repeats the loop
        # kernel
        for quad in acceptance_quadratics():
            p = quad.dim
            rng = np.random.default_rng(p)
            cyclic = np.arange(p, dtype=np.int64)
            repeats = rng.integers(0, p, size=p + 3).astype(np.int64)
            x0 = rng.standard_normal(p)
            for order in (cyclic, cyclic[::-1].copy(), repeats):
                want = x0.copy()
                LOOPS["cd_dense_epoch"](quad.H, quad.b, want, order)
                got, Hx = x0.copy(), quad.H @ x0
                quad.cd_sweep(order)(got, Hx)
                assert float(np.abs(got - want).max()) <= 1e-12, (p, order[:3])
                assert np.array_equal(Hx, quad.H @ got), (p, order[:3])


def gram_case():
    """`lsq_gram_pass` on a dense-stored design with an all-zero column:
    the explicit ``2:0`` entries keep every entry stored."""
    ds = parse_libsvm(b"1 1:1 2:0 3:2\n-1 1:3 2:0 3:-1\n2 1:-2 2:0 3:1\n")
    A, y = ds.A, ds.y
    AT = kernels.dense_transpose(A.values, A.col_ptr, A.n_rows)
    assert AT is not None
    lip, order = A.col_norms_sq(), np.arange(3, dtype=np.int64)

    epoch = kernels.lsq_gram_pass(AT, AT @ AT.T, y, lip, 0.3, 0.0, 1.0, order)

    def reference(x, Ax):
        LOOPS["lasso_epoch"](A.values, A.row_idx, A.col_ptr, y, x, Ax, lip,
                             0.3, order)
    return A, lip, epoch, reference, np.array([0.5, 0.7, -0.2]), [1]


def group_case(backend):
    """The group epoch of ``backend`` on a GroupLasso whose second group
    holds two empty columns."""
    rng = np.random.default_rng(31)
    M = rng.standard_normal((8, 6))
    M[:, 2:4] = 0.0
    prob = GroupLasso(CscMatrix.from_dense(M), rng.standard_normal(8), 0.5,
                      groups_from_size(6, 2))
    A, y, pen = prob.A, prob.y, prob.penalty
    lip = prob.datafit.coordinate_lipschitz(pen)
    order = np.arange(3, dtype=np.int64)

    def sweep(table):
        def epoch(x, Ax):
            table["group_epoch"](A.values, A.row_idx, A.col_ptr, y, x, Ax,
                                 pen.grp_cols, pen.grp_ptr, lip, pen.lam,
                                 order)
        return epoch
    x0 = np.array([0.5, -0.4, 0.0, 0.0, 0.2, 0.1])
    return A, lip, sweep(TABLES[backend]), sweep(LOOPS), x0, [2, 3]


@pytest.mark.parametrize("make", [gram_case] + [
    functools.partial(group_case, b) for b in BACKENDS],
    ids=["lsq_gram"] + [f"group-{b}" for b in BACKENDS])
def test_zero_curvature_is_skipped(make):
    A, lip, epoch, reference, x0, frozen = make()
    assert np.count_nonzero(lip == 0.0) == 1
    x, Ax = x0.copy(), A.matvec(x0)
    x_ref, Ax_ref = x0.copy(), A.matvec(x0)
    for _ in range(3):
        epoch(x, Ax)
        reference(x_ref, Ax_ref)
    assert x[frozen].tobytes() == x0[frozen].tobytes()
    assert not np.array_equal(x, x0)  # the other coordinates moved
    np.testing.assert_allclose(x, x_ref, rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(Ax, Ax_ref, rtol=1e-12, atol=1e-13)


# ---------------------------------------------------------------------------
# the compiled Gram epoch against its loop source, bit for bit
# ---------------------------------------------------------------------------

GRAM_LOOPS = LOOPS["lsq_gram_epoch"]


def gram_epoch(AT, G, y, x, Ax, lip, l1, l2, scale, order):
    """One epoch of `kernels.lsq_gram_pass`, bound and run once, called
    as its loop source `GRAM_LOOPS`."""
    kernels.lsq_gram_pass(AT, G, y, lip, l1, l2, scale, order)(x, Ax)


def gram_problem(n, p, seed):
    """A dense design with one all-zero column (zero curvature) and an
    ``x0`` holding -0.0, zeros and nonzeros."""
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, p))
    M[:, p // 3] = 0.0
    AT = np.ascontiguousarray(M.T)
    x0 = rng.standard_normal(p) * (rng.random(p) < 0.5)
    x0[::4] = -0.0
    return AT, AT @ AT.T, rng.standard_normal(n), x0, rng


def gram_orders(p, rng):
    cyclic = np.arange(p, dtype=np.int64)
    return (cyclic, cyclic[::-1].copy(), rng.integers(0, p, size=2 * p),
            rng.integers(-p, p, size=p), cyclic - p)


@pytest.mark.parametrize("l2, scale", [(0.0, 1.0), (0.3, 15.0)],
                         ids=["lasso", "enet"])
@pytest.mark.parametrize("l1_frac", [0.02, 0.5, 2.0])
def test_compiled_gram_epoch_is_the_loop(l2, scale, l1_frac):
    AT, G, y, x0, rng = gram_problem(15, 24, seed=41)
    lip = np.diag(G) / scale + l2
    assert np.count_nonzero(lip == l2) == 1
    l1 = l1_frac * float(np.abs(AT @ y).max()) / scale
    x, Ax = x0.copy(), x0 @ AT
    x_ref, Ax_ref = x0.copy(), x0 @ AT
    for order in gram_orders(24, rng) * 2:
        gram_epoch(AT, G, y, x, Ax, lip, l1, l2, scale, order)
        GRAM_LOOPS(AT, G, y, x_ref, Ax_ref, lip, l1, l2, scale, order)
        assert x.tobytes() == x_ref.tobytes()
        assert Ax.tobytes() == Ax_ref.tobytes()
    assert not np.array_equal(x, x0)
    assert x[24 // 3].tobytes() == x0[24 // 3].tobytes()  # zero curvature
    if l1_frac > 1.0:  # every coordinate goes to zero; -0.0 stays put
        assert np.signbit(x[::4]).all() and not x.any()


@settings(max_examples=60, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12),
       p=st.integers(1, 30))
def test_compiled_gram_epoch_is_the_loop_property(seed, n, p):
    AT, G, y, x0, rng = gram_problem(n, p, seed)
    lip = np.diag(G).copy()
    l1, l2, scale = float(rng.uniform(0.0, 2.0)), float(rng.uniform()), n
    x, Ax = x0.copy(), x0 @ AT
    x_ref, Ax_ref = x0.copy(), x0 @ AT
    for order in gram_orders(p, rng):
        gram_epoch(AT, G, y, x, Ax, lip, l1, l2, scale, order)
        GRAM_LOOPS(AT, G, y, x_ref, Ax_ref, lip, l1, l2, scale, order)
        assert x.tobytes() == x_ref.tobytes()
        assert Ax.tobytes() == Ax_ref.tobytes()


def test_compiled_gram_epoch_writes_a_strided_x_back():
    AT, G, y, x0, rng = gram_problem(15, 24, seed=42)
    lip, order = np.diag(G).copy(), rng.integers(-24, 24, size=50)
    buf = np.full(48, 7.0)
    buf[::2] = x0
    x, Ax = buf[::2], x0 @ AT
    x_ref, Ax_ref = x0.copy(), x0 @ AT
    gram_epoch(AT, G, y, x, Ax, lip, 0.5, 0.0, 1.0, order)
    GRAM_LOOPS(AT, G, y, x_ref, Ax_ref, lip, 0.5, 0.0, 1.0, order)
    assert not np.array_equal(x_ref, x0)
    assert np.ascontiguousarray(x).tobytes() == x_ref.tobytes()
    assert Ax.tobytes() == Ax_ref.tobytes()
    assert (buf[1::2] == 7.0).all()


def test_gram_pass_takes_ax_as_it_takes_x():
    # ``Ax`` once went unchecked: a float32 one took single-precision
    # predictions, and a short one failed in numpy's broadcasting
    AT, G, y, x0, _ = gram_problem(15, 24, seed=46)
    run = kernels.lsq_gram_pass(AT, G, y, np.diag(G).copy(), 0.5, 0.0, 1.0,
                                np.arange(24))
    for bad in ((x0 @ AT).astype(np.float32), (x0 @ AT)[:-1]):
        x = x0.copy()
        with pytest.raises(TypeError, match=r"Ax must be a float64 array "
                                            r"of shape \(15,\)"):
            run(x, bad)
        assert x.tobytes() == x0.tobytes()
    # a strided ``Ax`` runs on a copy that is written back
    buf = np.full(30, 7.0)
    buf[::2] = x0 @ AT
    x, Ax = x0.copy(), buf[::2]
    x_ref, Ax_ref = x0.copy(), x0 @ AT
    run(x, Ax)
    run(x_ref, Ax_ref)
    assert x.tobytes() == x_ref.tobytes()
    assert np.ascontiguousarray(Ax).tobytes() == Ax_ref.tobytes()
    assert (buf[1::2] == 7.0).all()


@pytest.mark.parametrize("bad", [24, -25, 2**40])
@pytest.mark.parametrize("epoch", [gram_epoch, GRAM_LOOPS],
                         ids=["public", "loops"])
def test_gram_epoch_bad_index_changes_nothing(epoch, bad):
    AT, G, y, x0, _ = gram_problem(15, 24, seed=43)
    x, Ax = x0.copy(), x0 @ AT
    Ax0 = Ax.copy()
    order = np.append(np.arange(24), bad)  # the valid visits come first
    with pytest.raises(IndexError):
        epoch(AT, G, y, x, Ax, np.diag(G).copy(), 0.1, 0.0, 1.0, order)
    assert x.tobytes() == x0.tobytes()
    assert Ax.tobytes() == Ax0.tobytes()


def test_compiled_gram_epoch_refuses_bad_arguments():
    AT, G, y, x0, _ = gram_problem(15, 24, seed=44)
    lip, order = np.diag(G).copy(), np.arange(24)

    def run(G=G, x=x0, lip=lip):
        gram_epoch(AT, G, y, x.copy(), x0 @ AT, lip, 0.1, 0.0, 1.0, order)
    for bad_G in (G[:, :23].copy(), G[:23].copy(), G.astype(np.float32),
                  np.asfortranarray(G + np.triu(G)), list(G), G.ravel()):
        with pytest.raises(ValueError, match="G must be"):
            run(G=bad_G)
    with pytest.raises(TypeError, match="x must be"):
        run(x=x0.astype(np.float32))
    with pytest.raises(TypeError, match="x must be"):
        run(x=x0[:23])
    with pytest.raises(ValueError, match="lip must"):
        run(lip=lip[:23])
    run()


@pytest.mark.parametrize("p", [1, 2, 3, 7, 8, 9, 15, 16, 17, 33])
@pytest.mark.parametrize("l2, scale", [(0.0, 1.0), (0.3, None)],
                         ids=["lasso", "enet"])
def test_compiled_gram_epoch_is_the_loop_across_vector_tails(p, l2, scale):
    # p straddles the SIMD widths, so the row update runs full vectors and
    # every length of remainder
    AT, G, y, x0, rng = gram_problem(11, p, seed=100 + p)
    scale = 11 if scale is None else scale
    lip = np.diag(G) / scale + l2
    l1 = 0.1 * float(np.abs(AT @ y).max()) / scale
    x, Ax = x0.copy(), x0 @ AT
    x_ref, Ax_ref = x0.copy(), x0 @ AT
    for order in gram_orders(p, rng) * 2:
        gram_epoch(AT, G, y, x, Ax, lip, l1, l2, scale, order)
        GRAM_LOOPS(AT, G, y, x_ref, Ax_ref, lip, l1, l2, scale, order)
        assert x.tobytes() == x_ref.tobytes()
        assert Ax.tobytes() == Ax_ref.tobytes()
    if p > 1:  # one column is zero
        assert not np.array_equal(x, x0)


@pytest.mark.parametrize("seed", range(5))
def test_gram_epoch_takes_float32_penalties_as_doubles(seed):
    # the loop source once divided by a float32 l1 in float32 while the C
    # loop took it as a double
    rng = np.random.default_rng(seed)
    AT = rng.standard_normal((5, 3))
    G, y, x0 = AT @ AT.T, rng.standard_normal(3), rng.standard_normal(5)
    l1, l2, scale = np.float32(0.1), np.float32(0.3), np.float32(3.0)
    lip = np.diag(G) / float(scale) + float(l2)
    order = np.arange(5, dtype=np.int64)
    runs = []
    for epoch, pen in ((GRAM_LOOPS, (l1, l2, scale)),
                       (gram_epoch, (l1, l2, scale)),
                       (GRAM_LOOPS, (float(l1), float(l2), float(scale)))):
        x, Ax = x0.copy(), x0 @ AT
        for _ in range(3):
            epoch(AT, G, y, x, Ax, lip, *pen, order)
        runs.append(x.tobytes() + Ax.tobytes())
    assert runs[0] == runs[1] == runs[2]


def test_gram_pass_checks_once_when_bound():
    AT, G, y, x0, _ = gram_problem(15, 24, seed=45)
    lip, order = np.diag(G).copy(), np.arange(24)

    def bind(G=G, lip=lip, order=order):
        return kernels.lsq_gram_pass(AT, G, y, lip, 0.1, 0.0, 1.0, order)
    for bad_G in (G[:, :23].copy(), G.astype(np.float32), G.ravel(),
                  np.asfortranarray(G + np.triu(G))):
        with pytest.raises(ValueError, match="G must be"):
            bind(G=bad_G)
    with pytest.raises(ValueError, match="lip must"):
        bind(lip=lip[:23])
    for bad in (24, -25, 2**40):
        with pytest.raises(IndexError, match="order holds an index"):
            bind(order=np.append(order, bad))
    run = bind()
    for bad_x in (x0.astype(np.float32), x0[:23]):
        with pytest.raises(TypeError, match="x must be"):
            run(bad_x, x0 @ AT)
    # a lip and an order that the binding converts, then drops: the pass
    # keeps its copies alive
    run = bind(lip=lip.astype(np.float32), order=order.astype(np.int32))
    junk = [np.full(24, np.nan) for _ in range(50)]
    x, Ax = x0.copy(), x0 @ AT
    x_ref, Ax_ref = x0.copy(), x0 @ AT
    for _ in range(3):
        run(x, Ax)
        GRAM_LOOPS(AT, G, y, x_ref, Ax_ref, lip.astype(np.float32), 0.1,
                   0.0, 1.0, order)
    assert x.tobytes() + Ax.tobytes() == x_ref.tobytes() + Ax_ref.tobytes()
    assert all(np.isnan(j).all() for j in junk)


def test_a_solve_binds_its_gram_pass_once(monkeypatch):
    rng = np.random.default_rng(6)
    prob = Lasso(CscMatrix.from_dense(rng.standard_normal((20, 30))),
                 rng.standard_normal(20), 1.0)
    bound, bind = [], kernels.lsq_gram_pass

    def counted(*args):
        bound.append(args[-1])
        return bind(*args)
    monkeypatch.setattr(kernels, "lsq_gram_pass", counted)
    tr = solve(prob, SolverConfig("pcd_anderson", max_epochs=50, tol=0.0))
    assert tr.epochs[-1] == 50 and len(bound) == 1
    bound.clear()
    solve(prob, SolverConfig("prcd", max_epochs=5, tol=0.0))
    assert len(bound) == 5  # a randomized order is a new array per epoch


# ---------------------------------------------------------------------------
# the compiled kernels run by their loop sources, in-process
# ---------------------------------------------------------------------------

def gram_pass_loops(AT, G, y, lip, l1, l2, scale, order,
                    _bind=kernels.lsq_gram_pass):
    """`kernels.lsq_gram_pass` with its epoch run by the loop source
    `GRAM_LOOPS`, on the arrays that the pass bound (its checked copy of
    ``order`` included)."""
    G, lip, order = _bind(AT, G, y, lip, l1, l2, scale, order).arrays

    def run(x, Ax):
        GRAM_LOOPS(AT, G, y, x, Ax, lip, l1, l2, scale, order)
    return run


def c_product_loops(c_product, data, indices, indptr, n_rows, operand,
                    transpose):
    """`kernels._c_product`, the products of a CSC that is not fully dense,
    by their loop sources."""
    if transpose:
        return LOOPS["csc_rmatvec"](data, indices, indptr, operand)
    return LOOPS["csc_matvec"](data, indices, indptr, n_rows, operand)


def use_loop_sources(monkeypatch):
    """Runs every kernel that calls C by its loop source: the sparse epochs,
    the Gram pass, the products of a CSC that is not fully dense and the
    extrapolation solve.  Returns the list of their names, one entry per
    call from then on."""
    called = []

    def spy(name, fn):
        def run(*args, **kwargs):
            called.append(name)
            return fn(*args, **kwargs)
        monkeypatch.setattr(kernels, name, run)
    for name in SPARSE_KERNELS:
        spy(name, LOOPS[name])
    spy("lsq_gram_pass", gram_pass_loops)
    spy("_c_product", c_product_loops)
    spy("anderson_extrapolate", C_LOOPS["anderson_extrapolate"])
    spy("anderson_weights", C_LOOPS["anderson_weights"])
    return called


def three_solves(dense=True):
    """The traces of three ``pcd_anderson`` solves, each as one line: a
    40 x 80 dense lasso (the Gram epoch; left out unless ``dense``), and an
    l1 logistic regression and a lasso on the sparse sample data (the
    logistic and the least-squares sparse epochs, and the products of a
    CSC that is not fully dense)."""
    rng = np.random.default_rng(5)
    M = rng.standard_normal((40, 80))
    y = M[:, :5] @ rng.standard_normal(5) + 0.1 * rng.standard_normal(40)
    ds = load_sample()
    runs = ((LogRegL1, ds.A, ds.y, 400, 1e-10), (Lasso, ds.A, ds.y, 50, 0.0))
    if dense:
        runs = ((Lasso, CscMatrix.from_dense(M), y, 400, 1e-12),) + runs
    lines = []
    for cls, A, y, max_epochs, tol in runs:
        prob = cls(A, y, 1.0)
        prob = cls(A, y, lambda_max(prob) / 20)
        tr = solve(prob, SolverConfig("pcd_anderson", max_epochs=max_epochs,
                                      tol=tol))
        lines.append(f"{(tr.epochs, tr.events, tr.objectives, tr.gaps)!r} "
                     f"{tr.x.tobytes().hex()}")
    return lines


def test_the_loop_sources_solve_with_the_same_bits(monkeypatch):
    # epochs, events, objectives, gaps and iterates, compiled and by the
    # loop sources
    compiled = three_solves()
    assert all("'accepted'" in t for t in compiled)  # every solve extrapolated
    called = use_loop_sources(monkeypatch)
    assert three_solves() == compiled
    assert set(called) == {"lsq_gram_pass", "lasso_epoch", "logreg_l1_epoch",
                           "_c_product", "anderson_extrapolate"}


# ---------------------------------------------------------------------------
# a bound pass keeps its own copy of the order
# ---------------------------------------------------------------------------

BOUND_PATHS = ("quad_cyclic", "quad_reversed", "quad_custom", "gram_lasso",
               "gram_enet", "sparse_lasso", "sparse_enet", "logreg_l1",
               "logreg_l2", "group_lasso")


def bound_path_case(path):
    """``(prob, order, x0)``: a problem whose ``epoch(penalty, lip)`` takes
    ``path``, an order to bind to it, and a start."""
    rng = np.random.default_rng(BOUND_PATHS.index(path))
    if path.startswith("quad"):
        quad = spd_quadratic(rng, 9, rng.uniform(0.1, 2.0, size=9))
        order = {"quad_cyclic": np.arange(9),
                 "quad_reversed": np.arange(9)[::-1].copy(),
                 "quad_custom": rng.integers(0, 9, size=12)}[path]
        return quad, order, rng.standard_normal(9)
    # a fully dense design takes the Gram pass, a sparse one the CSC kernels
    make = dense_problem if path.startswith("gram") else make_problem
    M, A, y, x0 = make(20, 8, seed=BOUND_PATHS.index(path))
    yb = np.where(y > 0.0, 1.0, -1.0)
    prob = {"gram_lasso": lambda: Lasso(A, y, 0.3),
            "gram_enet": lambda: ElasticNet(A, y, 0.03, 0.1),
            "sparse_lasso": lambda: Lasso(A, y, 0.3),
            "sparse_enet": lambda: ElasticNet(A, y, 0.03, 0.1),
            "logreg_l1": lambda: LogRegL1(A, yb, 0.3),
            "logreg_l2": lambda: LogRegL2(A, yb, 0.3),
            "group_lasso": lambda: GroupLasso(A, y, 0.3,
                                              groups_from_size(8, 3))}[path]()
    n = 3 if path == "group_lasso" else 8
    return prob, rng.permutation(n), x0


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("path", BOUND_PATHS)
def test_a_bound_pass_keeps_its_own_order(path, backend, monkeypatch):
    # the caller overwrites its order array between two epochs of a bound
    # pass: the pass still runs the order it was bound to, bit for bit
    if backend == "loops":
        for name in NUMPY:
            monkeypatch.setattr(kernels, name, LOOPS[name])
        use_loop_sources(monkeypatch)
    prob, order, x0 = bound_path_case(path)
    datafit, penalty = prob.datafit, prob.penalty
    bind = penalty.epoch(datafit, datafit.coordinate_lipschitz(penalty))
    Ax0 = datafit.predict(x0)

    def epochs(*orders):
        """``x`` and ``Ax`` after one epoch of a pass bound to each order."""
        x, Ax = x0.copy(), Ax0.copy()
        for o in orders:
            bind(o)(x, Ax)
        return x.tobytes() + Ax.tobytes()
    want = epochs(order.copy(), order.copy())
    ones = np.ones_like(order)
    assert want != epochs(order.copy(), ones)  # the overwrite would matter
    caller = order.copy()
    run = bind(caller)
    x, Ax = x0.copy(), Ax0.copy()
    run(x, Ax)
    caller[:] = ones
    run(x, Ax)
    assert x.tobytes() + Ax.tobytes() == want
    assert not np.array_equal(x, x0)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("path", BOUND_PATHS)
def test_pcd_epoch_takes_or_computes_the_predictions(path, backend,
                                                     monkeypatch):
    # an epoch without ``Ax`` is the epoch from ``predict(x)``, bit for bit;
    # a passed ``Ax`` ends as the predictions of the new ``x``
    if backend == "loops":
        use_loop_sources(monkeypatch)
    prob, order, x0 = bound_path_case(path)
    predict = prob.datafit.predict
    x, Ax = x0.copy(), predict(x0)
    pcd_epoch(prob, x, Ax, order)
    assert pcd_epoch(prob, x0.copy(), order=order).tobytes() == x.tobytes()
    assert not np.array_equal(x, x0)
    want = predict(x)
    if path.startswith(("quad", "gram")):  # passes that recompute ``Ax``
        assert Ax.tobytes() == want.tobytes()
    else:
        assert float(np.abs(Ax - want).max()) <= 1e-12 * np.abs(want).max()


# a ``cc`` that fails, and one whose "library" dlopen refuses
FAKE_CC = {"failing": "exit 1\n",
           "junk": 'for a; do [ "$o" = -o ] && echo junk > "$a"; o=$a; done\n'}
# what each of them, and no ``cc`` at all, leaves in the ImportError
NO_BUILD = {None: "No such file or directory: 'cc'",
            "failing": "exit status 1", "junk": "_epochs.so"}


def python_with_path(path, code, cwd, **env):
    """``code`` run by this interpreter with ``PATH=path`` and the variables
    ``env`` set, and this test module and the package on its
    ``PYTHONPATH``."""
    paths = (Path(__file__).resolve().parent,
             Path(kernels.__file__).resolve().parents[1])
    env = {**os.environ, **env, "PATH": path,
           "PYTHONPATH": os.pathsep.join(map(str, paths))}
    return subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd,
                          capture_output=True, text=True)


def test_a_compiler_without_native_builds_at_o3(tmp_path):
    # a ``cc`` that refuses -march=native and runs the real one otherwise
    script = tmp_path / "cc"
    script.write_text(
        '#!/bin/sh\nfor a; do [ "$a" = -march=native ] && exit 1; done\n'
        f'PATH={shlex.quote(os.environ.get("PATH", os.defpath))} '
        f'exec {shlex.quote(shutil.which("cc"))} "$@"\n')
    script.chmod(0o755)
    proc = python_with_path(str(tmp_path), (
        "from extracd import kernels\n"
        "from test_kernels import three_solves\n"
        "print(*kernels.CFLAGS)\n"
        "print(*three_solves(), sep='\\n')\n"), tmp_path)
    assert proc.returncode == 0, proc.stderr
    cflags, *traces = proc.stdout.splitlines()
    assert cflags == "-O3 -ffp-contract=off -fPIC -shared"
    assert traces == three_solves()


def test_a_solve_without_a_gram_matrix_keeps_its_bits_at_any_thread_count(
        tmp_path):
    # the sparse solves of `three_solves` at one and at two BLAS threads:
    # only the Gram matrix that a dense least-squares solve builds is a
    # product whose bits follow the thread count
    runs = [python_with_path(os.environ.get("PATH", os.defpath), (
        "from test_kernels import three_solves\n"
        "print(*three_solves(dense=False), sep='\\n')\n"), tmp_path,
        **dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                         "MKL_NUM_THREADS"), str(threads)))
        for threads in (1, 2)]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
    one, two = (proc.stdout.splitlines() for proc in runs)
    assert len(one) == 2 and all("'accepted'" in t for t in one)
    assert one == two


def test_every_c_loop_has_a_loop_source():
    # a C loop added without its loop source fails here, not unchecked
    assert C_LOOPS.keys() == kernels._SIGNATURES.keys()


@pytest.mark.parametrize("cc", [None, "failing", "junk"])
def test_without_a_compiler_the_import_fails(cc, tmp_path):
    # no silent fallback: the error names ``cc``, each level's flags and
    # what went wrong
    if cc is not None:
        script = tmp_path / "cc"
        script.write_text("#!/bin/sh\n" + FAKE_CC[cc])
        script.chmod(0o755)
    proc = python_with_path("" if cc is None else str(tmp_path),
                            "import extracd", tmp_path)
    assert proc.returncode == 1
    error = proc.stderr.splitlines()[-1]
    assert error.startswith("ImportError: extracd needs a C compiler, cc,")
    for flags in ("-O3 -march=native -ffp-contract=off", "-O3 -ffp-contract"):
        assert f"cc {flags}" in error
    assert error.count(NO_BUILD[cc]) == 2


def random_csc(seed):
    """A random CSC holding empty, single-entry and all-zero columns.

    Every tenth seed gives a design with no rows at all.
    """
    rng = np.random.default_rng(seed)
    n = 0 if seed % 10 == 0 else int(rng.integers(1, 25))
    p = int(rng.integers(4, 20))
    kinds = rng.permutation(np.resize(["empty", "single", "zeros", "any"], p))
    col_ptr, rows, vals = [0], [], []
    for kind in kinds:
        if n == 0 or kind == "empty":
            k = 0
        else:
            k = 1 if kind == "single" else int(rng.integers(1, n + 1))
        rows.extend(np.sort(rng.choice(n, k, replace=False)).tolist())
        vals.extend([0.0] * k if kind == "zeros"
                    else rng.standard_normal(k).tolist())
        col_ptr.append(len(rows))
    return CscMatrix(n, p, np.array(col_ptr), np.array(rows, dtype=np.int64),
                     np.array(vals)), rng


class TestNumpySparsePath:
    """The sparse products and coordinate epochs, bit for bit, against the
    explicit-loop sources run as plain Python."""

    @pytest.mark.parametrize("seed", range(40))
    def test_products_match_loops(self, seed):
        A, rng = random_csc(seed)
        args = (A.values, A.row_idx, A.col_ptr)
        x = rng.standard_normal(A.n_cols) * (rng.random(A.n_cols) < 0.7)
        v = rng.standard_normal(A.n_rows)
        got = NUMPY["csc_matvec"](*args, A.n_rows, x)
        ref = LOOPS["csc_matvec"](*args, A.n_rows, x)
        assert np.array_equal(got, ref)
        got = NUMPY["csc_rmatvec"](*args, v)
        ref = LOOPS["csc_rmatvec"](*args, v)
        assert np.array_equal(got, ref)

    # the logistic cases keep the ids of the l1 flag that first
    # parametrized this test
    @pytest.mark.parametrize("kernel", [
        pytest.param("logreg_l1_epoch", id="True"),
        pytest.param("logreg_l2_epoch", id="False"),
        "lasso_epoch", "enet_epoch"])
    @pytest.mark.parametrize("seed", range(40))
    def test_logreg_epochs_match_per_column(self, seed, kernel):
        A, rng = random_csc(seed)
        n, p = A.n_rows, A.n_cols
        args = (A.values, A.row_idx, A.col_ptr)
        y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        norms = LOOPS["csc_col_norms_sq"](A.values, A.col_ptr)
        lam = float(rng.uniform(0.0, 0.3)) * max(n, 1)
        x0 = rng.standard_normal(p) * (rng.random(p) < 0.5)
        cyclic = np.arange(p, dtype=np.int64)
        repeats = rng.integers(0, p, size=2 * p)
        if kernel == "lasso_epoch":
            lip, extra = norms, (lam,)
        elif kernel == "enet_epoch":
            rho, n_samples = 0.1, max(n, 1)
            lip, extra = norms / n_samples + rho, (lam / n_samples, rho,
                                                   n_samples)
        else:
            lip, extra = norms / 4.0, (lam,)
        # the compiled loop runs the loop source's operations
        ref = LOOPS[kernel]
        x, Ax = x0.copy(), LOOPS["csc_matvec"](*args, n, x0)
        x_ref, Ax_ref = x.copy(), Ax.copy()
        for order in (cyclic, cyclic[::-1].copy(), repeats) * 2:
            NUMPY[kernel](*args, y, x, Ax, lip, *extra, order)
            ref(*args, y, x_ref, Ax_ref, lip, *extra, order)
            assert x.tobytes() == x_ref.tobytes()
            assert Ax.tobytes() == Ax_ref.tobytes()
        if n:
            assert not np.array_equal(x, x0)  # some coordinate moved


def test_warmup_idempotent():
    warmup()
    warmup()


def test_warmup_calls_no_kernel_on_numpy(monkeypatch):
    # the numpy kernels compile nothing, so warming them up is wasted work
    called = []
    for name in (*NUMPY, "lsq_gram_pass"):
        monkeypatch.setattr(kernels, name,
                            lambda *args, name=name: called.append(name))
    warmup()
    assert called == []


# ---------------------------------------------------------------------------
# properties: the numpy table against the loop sources
# ---------------------------------------------------------------------------

@st.composite
def designs(draw):
    """A CSC design whose columns are empty, stored all-zero or random, with
    rows that hold no entry (every row when n = 0), and a seed for the
    remaining values."""
    n = draw(st.integers(0, 7))
    p = draw(st.integers(1, 7))
    live = sorted(draw(st.sets(st.integers(0, n - 1))) if n else [])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    col_ptr, rows, vals = [0], [], []
    for kind in draw(st.lists(st.sampled_from(["empty", "zeros", "random"]),
                              min_size=p, max_size=p)):
        k = 0 if kind == "empty" or not live else int(
            rng.integers(1, len(live) + 1))
        rows.extend(sorted(rng.choice(live, k, replace=False).tolist()))
        vals.extend([0.0] * k if kind == "zeros"
                    else rng.standard_normal(k).tolist())
        col_ptr.append(len(rows))
    A = CscMatrix(n, p, np.array(col_ptr), np.array(rows, dtype=np.int64),
                  np.array(vals))
    order = draw(st.lists(st.integers(0, p - 1), max_size=3 * p))
    return A, np.array(order, dtype=np.int64), rng


def epoch_tail(kernel, A, order, rng):
    """Labels and the arguments after ``x, Ax`` of an epoch kernel."""
    n, p = A.n_rows, A.n_cols
    norms = LOOPS["csc_col_norms_sq"](A.values, A.col_ptr)
    lam = float(rng.uniform(0.0, 0.5))
    y = rng.standard_normal(n)
    if kernel.startswith("logreg"):
        return np.where(y < 0.0, -1.0, 1.0), (norms / 4.0, lam, order)
    if kernel == "lasso_epoch":
        return y, (norms, lam, order)
    if kernel == "enet_epoch":
        n_samples = max(n, 1)
        return y, (norms / n_samples + 0.1, lam, 0.1, n_samples, order)
    cuts = np.sort(rng.choice(np.arange(1, p), int(rng.integers(0, p)),
                              replace=False))
    groups = np.split(rng.permutation(p), cuts)
    lip_g = np.array([np.linalg.norm(A.columns(g), 2) ** 2 if n else 0.0
                      for g in groups])
    grp_ptr = np.cumsum([0] + [g.size for g in groups])
    return y, (np.concatenate(groups), grp_ptr, lip_g, lam,
               order % len(groups))


def assert_close(got, ref):
    scale = max(1.0, float(np.abs(ref).max())) if ref.size else 1.0
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * scale)


def test_numpy_dense_cd_epoch_is_the_loop_source():
    assert NUMPY["cd_dense_epoch"] is LOOPS["cd_dense_epoch"]


class TestNumpyMatchesLoopsProperties:
    """Every kernel of the numpy table against its loop source run as
    plain Python, on designs with empty, stored all-zero and random
    columns, rows without entries and orders with repeats."""

    @settings(max_examples=60, deadline=None, database=None)
    @given(designs())
    def test_products(self, case):
        A, _, rng = case
        args = (A.values, A.row_idx, A.col_ptr)
        x = rng.standard_normal(A.n_cols) * (rng.random(A.n_cols) < 0.7)
        v = rng.standard_normal(A.n_rows)
        for name, call in (
                ("csc_matvec", lambda t: t(*args, A.n_rows, x)),
                ("csc_rmatvec", lambda t: t(*args, v)),
                ("csc_col_norms_sq", lambda t: t(A.values, A.col_ptr))):
            assert_close(call(NUMPY[name]), call(LOOPS[name]))

    @pytest.mark.parametrize("kernel", ["lasso_epoch", "enet_epoch",
                                        "logreg_l1_epoch", "logreg_l2_epoch",
                                        "group_epoch"])
    @settings(max_examples=100, deadline=None, database=None)
    @given(case=designs())
    def test_epochs(self, kernel, case):
        A, order, rng = case
        args = (A.values, A.row_idx, A.col_ptr)
        y, tail = epoch_tail(kernel, A, order, rng)
        x0 = rng.standard_normal(A.n_cols) * (rng.random(A.n_cols) < 0.6)
        Ax0 = LOOPS["csc_matvec"](*args, A.n_rows, x0)
        out = {}
        for backend, table in (("numpy", NUMPY), ("loops", LOOPS)):
            x, Ax = x0.copy(), Ax0.copy()
            for _ in range(2):
                table[kernel](*args, y, x, Ax, *tail)
            out[backend] = x, Ax
        for got, ref in zip(out["numpy"], out["loops"]):
            assert_close(got, ref)


# ---------------------------------------------------------------------------
# the compiled sparse epochs against their loop sources, bit for bit
# ---------------------------------------------------------------------------

LOGREG_KERNELS = ("logreg_l1_epoch", "logreg_l2_epoch")
SPARSE_KERNELS = (*LOGREG_KERNELS, "lasso_epoch", "enet_epoch")


def logreg_case(seed, n=12, p=8):
    """A logistic epoch's arguments: a CSC design with an empty column (1),
    a column of stored zeros (2), a column whose curvature bound is set to
    zero (4) and a column of entries of 700-800 in magnitude (3) that
    ``x0[3] = 1`` turns into margins ``|y Ax|`` past 708 (``exp`` of their
    negation is subnormal) and past 745 (it is zero); -1/+1 labels, a
    penalty and an ``x0`` holding -0.0, zeros and nonzeros."""
    rng = np.random.default_rng(seed)
    rows = [np.sort(rng.choice(n, int(rng.integers(1, n + 1)), replace=False))
            for _ in range(p)]
    vals = [rng.standard_normal(r.size) for r in rows]
    rows[1], vals[1] = rows[1][:0], vals[1][:0]
    vals[2] = np.zeros(rows[2].size)
    rows[3] = np.arange(n)
    vals[3] = rng.uniform(700.0, 800.0, n) * np.where(rng.random(n) < 0.5,
                                                      -1.0, 1.0)
    vals[3][:2] = 720.0, -790.0
    A = CscMatrix(n, p, np.cumsum([0] + [r.size for r in rows]),
                  np.concatenate(rows), np.concatenate(vals))
    y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    lip = LOOPS["csc_col_norms_sq"](A.values, A.col_ptr) / 4.0
    lip[4] = 0.0
    x0 = rng.standard_normal(p) * (rng.random(p) < 0.6)
    x0[::3], x0[3] = -0.0, 1.0
    lam = 0.2 * float(np.abs(LOOPS["csc_rmatvec"](
        A.values, A.row_idx, A.col_ptr, y)).max()) / 2.0
    return A, y, lip, lam, x0, rng


def sparse_case(kernel, seed):
    """`logreg_case` for ``kernel``: the design, labels and ``x0``, and the
    curvature bounds and penalties ``(lip, *penalty)`` that ``kernel``
    takes, with the zero bounds of the logistic case kept zero."""
    A, y, lip, lam, x0, rng = logreg_case(seed)
    n = A.n_rows
    if kernel == "lasso_epoch":
        tail = 4.0 * lip, lam
    elif kernel == "enet_epoch":
        tail = np.where(lip > 0.0, 4.0 * lip / n + 0.1, 0.0), lam / n, 0.1, n
    else:
        tail = lip, lam
    return A, y, tail, x0, rng


def logreg_orders(p, rng):
    """Cyclic, reversed, repeated, mixed-sign and all-negative orders."""
    cyclic = np.arange(p, dtype=np.int64)
    return (cyclic, cyclic[::-1].copy(), rng.integers(0, p, size=2 * p),
            rng.integers(-p, p, size=p), cyclic - p)


def assert_epochs_are_the_loop(kernel, A, y, tail, x0, orders):
    """Runs ``kernels.<kernel>`` and ``LOOPS[kernel]`` from ``x0`` over
    ``orders`` with the arguments ``tail = (lip, *penalty)``, comparing the
    bytes of ``x`` and ``Ax`` after each epoch; returns the final ``x``."""
    args = (A.values, A.row_idx, A.col_ptr, y)
    Ax0 = LOOPS["csc_matvec"](A.values, A.row_idx, A.col_ptr, A.n_rows, x0)
    x, Ax, x_ref, Ax_ref = x0.copy(), Ax0.copy(), x0.copy(), Ax0.copy()
    for order in orders:
        getattr(kernels, kernel)(*args, x, Ax, *tail, order)
        LOOPS[kernel](*args, x_ref, Ax_ref, *tail, order)
        assert x.tobytes() == x_ref.tobytes()
        assert Ax.tobytes() == Ax_ref.tobytes()
    return x


@pytest.mark.parametrize("kernel", SPARSE_KERNELS)
@pytest.mark.parametrize("seed", range(6))
def test_logreg_epoch_is_the_loop(kernel, seed):
    A, y, tail, x0, rng = sparse_case(kernel, seed)
    Ax0 = LOOPS["csc_matvec"](A.values, A.row_idx, A.col_ptr, A.n_rows, x0)
    margins = np.abs(y * Ax0)
    assert ((margins > 708.0) & (margins < 745.0)).any()  # subnormal exp
    assert (margins > 745.0).any()  # exp(-|t|) underflows to 0
    x = assert_epochs_are_the_loop(
        kernel, A, y, tail, x0, logreg_orders(A.n_cols, rng) * 2)
    assert not np.array_equal(x, x0)
    for j in (1, 2, 4):  # zero curvature bounds: skipped
        assert x[j].tobytes() == x0[j].tobytes()


@pytest.mark.parametrize("kernel", SPARSE_KERNELS)
def test_logreg_epoch_without_rows_is_the_loop(kernel):
    # n = 0: every column is empty, so only the penalty moves x
    rng = np.random.default_rng(7)
    A = CscMatrix(0, 5, np.zeros(6, dtype=np.int64), np.zeros(0, np.int64),
                  np.zeros(0))
    x0 = rng.standard_normal(5)
    x0[0] = -0.0
    tail = (np.ones(5), 0.3) + ((0.1, 1) if kernel == "enet_epoch" else ())
    x = assert_epochs_are_the_loop(kernel, A, np.zeros(0), tail, x0,
                                   logreg_orders(5, rng))
    assert not np.array_equal(x, x0)


@pytest.mark.parametrize("kernel", SPARSE_KERNELS)
@settings(max_examples=100, deadline=None, database=None)
@given(case=designs())
def test_logreg_epoch_is_the_loop_property(kernel, case):
    A, order, rng = case
    y, (lip, *penalty, _) = epoch_tail(kernel, A, order, rng)
    if rng.random() < 0.2:
        penalty[0] = 0.0  # no soft threshold
    x0 = rng.standard_normal(A.n_cols) * (rng.random(A.n_cols) < 0.6)
    x0[rng.random(A.n_cols) < 0.2] = -0.0
    mixed = order - A.n_cols * (rng.random(order.size) < 0.5)
    assert_epochs_are_the_loop(kernel, A, y, (lip, *penalty), x0,
                               (order, mixed, order))


@pytest.mark.parametrize("kernel", ["lasso_epoch", "enet_epoch",
                                    *LOGREG_KERNELS])
@pytest.mark.parametrize("table", BACKENDS)
def test_negative_order_counts_from_the_end(kernel, table):
    # index j < 0 is column j + p, for the column's entries as well as for
    # x and lip; it once framed the entries of column j + p + 1
    A, y, lip, lam, x0, rng = logreg_case(8)
    p = A.n_cols
    extra = (lam, 0.1, 3.0) if kernel == "enet_epoch" else (lam,)
    if not kernel.startswith("logreg"):
        y = rng.standard_normal(A.n_rows)
    order = rng.integers(0, p, size=3 * p)
    runs = []
    for o in (order, order - p):
        x = x0.copy()
        Ax = LOOPS["csc_matvec"](A.values, A.row_idx, A.col_ptr, A.n_rows, x)
        TABLES[table][kernel](A.values, A.row_idx, A.col_ptr, y, x, Ax, lip,
                              *extra, o)
        runs.append(x.tobytes() + Ax.tobytes())
        np.testing.assert_allclose(Ax, LOOPS["csc_matvec"](
            A.values, A.row_idx, A.col_ptr, A.n_rows, x), rtol=1e-9,
            atol=1e-9)
    assert runs[0] == runs[1]


@pytest.mark.parametrize("kernel", SPARSE_KERNELS)
def test_logreg_epoch_writes_strided_arrays_back(kernel):
    A, y, tail, x0, rng = sparse_case(kernel, 9)
    n, p = A.n_rows, A.n_cols
    order = rng.integers(-p, p, size=3 * p)
    Ax0 = LOOPS["csc_matvec"](A.values, A.row_idx, A.col_ptr, n, x0)
    xbuf, Axbuf = np.full(2 * p, 7.0), np.full(2 * n, 7.0)
    xbuf[::2], Axbuf[::2] = x0, Ax0
    x, Ax = xbuf[::2], Axbuf[::2]
    x_ref, Ax_ref = x0.copy(), Ax0.copy()
    getattr(kernels, kernel)(A.values, A.row_idx, A.col_ptr, y, x, Ax, *tail,
                             order)
    LOOPS[kernel](A.values, A.row_idx, A.col_ptr, y, x_ref, Ax_ref, *tail,
                  order)
    assert not np.array_equal(x_ref, x0)
    assert np.ascontiguousarray(x).tobytes() == x_ref.tobytes()
    assert np.ascontiguousarray(Ax).tobytes() == Ax_ref.tobytes()
    assert (xbuf[1::2] == 7.0).all() and (Axbuf[1::2] == 7.0).all()


def corrupt(A, what):
    """Copies of ``A``'s raw arrays with one fault."""
    data, indices, indptr = (A.values.copy(), A.row_idx.copy(),
                             A.col_ptr.copy())
    if what == "indptr-falls":
        indptr[2] = indptr[3] + 1
    elif what == "indptr-past-nnz":
        indptr[-1] = data.size + 1
    elif what == "indptr-negative":
        indptr[0] = -1
    elif what == "row-past-n":
        indices[-1] = A.n_rows
    else:  # "row-negative"
        indices[0] = -1
    return data, indices, indptr


@pytest.mark.parametrize("bad", [8, -9, 2**40])
@pytest.mark.parametrize("table", BACKENDS)
@pytest.mark.parametrize("kernel", SPARSE_KERNELS)
def test_logreg_epoch_bad_order_changes_nothing(kernel, table, bad):
    A, y, tail, x0, _ = sparse_case(kernel, 10)
    Ax0 = LOOPS["csc_matvec"](A.values, A.row_idx, A.col_ptr, A.n_rows, x0)
    x, Ax = x0.copy(), Ax0.copy()
    order = np.append(np.arange(8), bad)  # the valid visits come first
    with pytest.raises(IndexError, match="order holds an index"):
        TABLES[table][kernel](A.values, A.row_idx, A.col_ptr, y, x, Ax,
                              *tail, order)
    assert x.tobytes() == x0.tobytes()
    assert Ax.tobytes() == Ax0.tobytes()


@pytest.mark.parametrize("bad", ["indptr-falls", "indptr-past-nnz",
                                 "indptr-negative", "row-past-n",
                                 "row-negative"])
@pytest.mark.parametrize("kernel", SPARSE_KERNELS)
def test_compiled_logreg_epoch_bad_design_changes_nothing(kernel, bad):
    A, y, tail, x0, _ = sparse_case(kernel, 11)
    Ax0 = LOOPS["csc_matvec"](A.values, A.row_idx, A.col_ptr, A.n_rows, x0)
    x, Ax = x0.copy(), Ax0.copy()
    with pytest.raises(IndexError, match="indptr|row"):
        getattr(kernels, kernel)(*corrupt(A, bad), y, x, Ax, *tail,
                                 np.arange(8))
    assert x.tobytes() == x0.tobytes()
    assert Ax.tobytes() == Ax0.tobytes()


def test_compiled_logreg_epoch_refuses_bad_arguments():
    # the kernels are a loop here, not a parameter, so the test keeps the id
    # it had when it checked the logistic epoch alone
    for kernel in SPARSE_KERNELS:
        A, y, (lip, *penalty), x0, _ = sparse_case(kernel, 12)
        Ax0 = LOOPS["csc_matvec"](A.values, A.row_idx, A.col_ptr, A.n_rows,
                                  x0)
        epoch = getattr(kernels, kernel)

        def run(x=x0, Ax=Ax0, lip=lip, y=y, data=A.values, indptr=A.col_ptr):
            epoch(data, A.row_idx, indptr, y, x.copy(), Ax.copy(), lip,
                  *penalty, np.arange(8))
        for bad_x in (x0.astype(np.float32), x0[:7], list(x0)):
            with pytest.raises(TypeError, match="x must be"):
                run(x=bad_x)
        for bad in (Ax0.astype(np.float32), Ax0[:-1]):
            with pytest.raises(TypeError, match="Ax must be"):
                run(Ax=bad)
        with pytest.raises(TypeError, match="Ax must be"):
            run(y=y[:-1])
        with pytest.raises(ValueError, match="lip must"):
            run(lip=lip[:7])
        with pytest.raises(ValueError, match="data and indices"):
            run(data=A.values[:-1])
        for bad in (A.col_ptr[:0], A.col_ptr[None]):
            with pytest.raises(ValueError, match="indptr must be 1-d"):
                run(indptr=bad)
        with pytest.raises(ValueError, match="y must be 1-d"):
            run(y=y.reshape(3, 4))
        frozen = x0.copy()
        frozen.flags.writeable = False
        with pytest.raises(ValueError, match="read-only"):
            epoch(A.values, A.row_idx, A.col_ptr, y, frozen, Ax0.copy(), lip,
                  *penalty, np.arange(8))
        run()


# ---------------------------------------------------------------------------
# the sparse products, by C where it was built, against their loop sources
# ---------------------------------------------------------------------------

def product_designs():
    """Random CSCs with empty, single-entry and all-zero columns (every
    tenth without rows), one with empty rows, and the designs without rows,
    without columns or without both."""
    designs = [random_csc(seed)[0] for seed in range(30)]
    rng = np.random.default_rng(7)
    M = rng.standard_normal((9, 6)) * (rng.random((9, 6)) < 0.4)
    M[[1, 4]] = 0.0
    designs.append(CscMatrix.from_dense(M))
    designs += [CscMatrix(n, p, np.zeros(p + 1, dtype=np.int64), [], [])
                for n, p in ((0, 5), (4, 0), (0, 0))]
    return designs


def signed_zeros(rng, size):
    """Normal draws, about a third of them 0.0 and a third -0.0."""
    u = rng.random(size)
    return np.where(u < 0.33, 0.0, np.where(u < 0.66, -0.0,
                                            rng.standard_normal(size)))


def storage_order_products(A, x, v):
    """``A x`` and ``A' v`` as plain Python over every stored entry in
    storage order: ``A x`` adds ``data[k] * x_j`` into its row, ``A' v``
    sums each column's ``data[k] * v[row]`` from its first entry."""
    data, rows = A.values.tolist(), A.row_idx.tolist()
    Ax, ATv = [0.0] * A.n_rows, []
    for j, (start, end) in enumerate(zip(A.col_ptr[:-1], A.col_ptr[1:])):
        acc = 0.0
        for k in range(start, end):
            Ax[rows[k]] += data[k] * x[j]
            acc += data[k] * v[rows[k]]
        ATv.append(acc)
    return np.array(Ax), np.array(ATv)


@pytest.mark.parametrize("backend", ["c", "loops"])
@pytest.mark.parametrize("case", range(len(product_designs())))
def test_products_are_their_loop_sources(case, backend, monkeypatch):
    # bit for bit: the C loops against their loop sources, and the loop
    # sources (patched in) against every entry in storage order; a design
    # that is not fully dense takes the C loop
    calls = []
    c_product = kernels._c_product

    def counted(*args, **kwargs):
        calls.append(args[0])
        return c_product(*args, **kwargs)
    monkeypatch.setattr(kernels, "_c_product", counted)
    if backend == "loops":
        for name in ("csc_matvec", "csc_rmatvec"):
            monkeypatch.setattr(kernels, name, LOOPS[name])
    A = product_designs()[case]
    n, p = A.n_rows, A.n_cols
    rng = np.random.default_rng(case)
    args = (A.values, A.row_idx, A.col_ptr)
    x, v = signed_zeros(rng, p), signed_zeros(rng, n)
    Ax = kernels.csc_matvec(*args, n, x)
    assert Ax.tobytes() == LOOPS["csc_matvec"](*args, n, x).tobytes()
    got = kernels.csc_rmatvec(*args, v)
    assert got.tobytes() == LOOPS["csc_rmatvec"](*args, v).tobytes()
    if backend == "loops":
        want = storage_order_products(A, x, v)
        assert Ax.tobytes() + got.tobytes() == b"".join(
            w.tobytes() for w in want)
    assert got.dtype == np.float64 and got.shape == (p,)
    sparse = A.nnz != n * p
    assert calls == ([kernels._lib.csc_matvec, kernels._lib.csc_rmatvec]
                     if sparse and backend == "c" else [])


def test_a_fully_dense_csc_takes_one_blas_call(monkeypatch):
    monkeypatch.setattr(kernels, "_c_product", None)  # a call would fail
    rng = np.random.default_rng(3)
    M = rng.standard_normal((7, 5))
    A = CscMatrix.from_dense(M)
    AT = A.values.reshape(5, 7)
    x, v = signed_zeros(rng, 5), rng.standard_normal(7)
    args = (A.values, A.row_idx, A.col_ptr)
    assert kernels.csc_matvec(*args, 7, x).tobytes() == (x @ AT).tobytes()
    assert kernels.csc_rmatvec(*args, v).tobytes() == (AT @ v).tobytes()


@pytest.mark.parametrize("bad", ["indptr-falls", "indptr-past-nnz",
                                 "indptr-negative", "row-past-n",
                                 "row-negative"])
def test_compiled_products_refuse_a_bad_design(bad):
    A, *_ = logreg_case(13)
    n, p = A.n_rows, A.n_cols
    args = corrupt(A, bad)
    with pytest.raises(IndexError, match="indptr|row"):
        kernels.csc_matvec(*args, n, np.ones(p))
    with pytest.raises(IndexError, match="indptr|row"):
        kernels.csc_rmatvec(*args, np.ones(n))


def test_compiled_products_refuse_bad_arguments():
    A, *_ = logreg_case(14)
    n, p = A.n_rows, A.n_cols
    args = (A.values, A.row_idx, A.col_ptr)
    with pytest.raises(ValueError, match=f"operand must hold {p} entries"):
        kernels.csc_matvec(*args, n, np.ones(p + 1))
    with pytest.raises(ValueError, match=f"operand must hold {n} entries"):
        kernels.csc_rmatvec(*args, np.ones((n, 1)))
    with pytest.raises(ValueError, match="data and indices"):
        kernels.csc_rmatvec(A.values[:-1], A.row_idx, A.col_ptr, np.ones(n))
    with pytest.raises(ValueError, match="indptr must be 1-d"):
        kernels.csc_matvec(A.values, A.row_idx, A.col_ptr[None], n,
                           np.ones(p))
    # any real dtype is taken as float64, resp. int64
    want = kernels.csc_matvec(*args, n, np.arange(p, dtype=np.float64))
    got = kernels.csc_matvec(A.values, A.row_idx.astype(np.int32),
                             A.col_ptr.astype(np.int32), n,
                             np.arange(p, dtype=np.int16))
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("kernel", LOGREG_KERNELS)
def test_logistic_epoch_takes_float32_lam_and_int_lip(kernel):
    # what the numpy epoch accepted: a float32 penalty, an integer curvature
    # bound and the read-only arrays of a CscMatrix, taken as doubles
    A, y, lip, _, x0, rng = logreg_case(13)
    assert not (A.values.flags.writeable or A.row_idx.flags.writeable
                or A.col_ptr.flags.writeable)
    lam, lip = np.float32(0.3), np.ceil(lip).astype(np.int64)
    penalty = L1L2(lam, 0.0) if kernel == "logreg_l1_epoch" else L1L2(0.0,
                                                                     lam)
    bind = Logistic(A, y).epoch(penalty, lip)
    Ax0 = LOOPS["csc_matvec"](A.values, A.row_idx, A.col_ptr, A.n_rows, x0)
    x, Ax, x_ref, Ax_ref = x0.copy(), Ax0.copy(), x0.copy(), Ax0.copy()
    for order in logreg_orders(A.n_cols, rng):
        bind(order)(x, Ax)
        LOOPS[kernel](A.values, A.row_idx, A.col_ptr, y, x_ref, Ax_ref,
                      lip.astype(np.float64), float(lam), order)
        assert x.tobytes() + Ax.tobytes() == x_ref.tobytes() + Ax_ref.tobytes()
    assert not np.array_equal(x, x0)


# ---------------------------------------------------------------------------
# the order rule, the same for every coordinate kernel
# ---------------------------------------------------------------------------

ORDER_RULE_KERNELS = (*SPARSE_KERNELS, "lsq_gram_epoch", "cd_dense_epoch",
                      "group_epoch")


def order_rule_case(kernel):
    """``(p, x0, Ax0, epoch)`` for one coordinate kernel: its number of
    coordinates (of groups, for the group epoch), a start, and
    ``epoch(table, x, Ax, order)``, which runs one epoch of the kernel of
    ``table`` (the public one of the Gram epoch is `gram_epoch`: a bound
    `kernels.lsq_gram_pass`)."""
    if kernel in SPARSE_KERNELS:
        A, y, tail, x0, _ = sparse_case(kernel, 14)

        def epoch(table, x, Ax, order):
            table[kernel](A.values, A.row_idx, A.col_ptr, y, x, Ax, *tail,
                          order)
        return A.n_cols, x0, LOOPS["csc_matvec"](
            A.values, A.row_idx, A.col_ptr, A.n_rows, x0), epoch
    if kernel == "lsq_gram_epoch":
        AT, G, y, x0, _ = gram_problem(15, 24, seed=47)

        def epoch(table, x, Ax, order):
            run = GRAM_LOOPS if table is LOOPS else gram_epoch
            run(AT, G, y, x, Ax, np.diag(G).copy(), 0.1, 0.0, 1.0, order)
        return 24, x0, x0 @ AT, epoch
    M, A, y, x0 = make_problem(18, 9, seed=15)
    if kernel == "cd_dense_epoch":
        H, b = M.T @ M + np.eye(9), y[:9]

        def epoch(table, x, Ax, order):
            table[kernel](H, b, x, order)
        return 9, x0, H @ x0, epoch
    # groups of 2, 5 and 2 columns, so that a group index counted from the
    # wrong end frames other columns
    grp_cols = np.array([4, 0, 1, 2, 3, 5, 8, 6, 7])
    grp_ptr = np.array([0, 2, 7, 9])
    lip_g = np.array([np.linalg.norm(M[:, grp_cols[s:e]], 2) ** 2
                      for s, e in zip(grp_ptr[:-1], grp_ptr[1:])])

    def epoch(table, x, Ax, order):
        table[kernel](A.values, A.row_idx, A.col_ptr, y, x, Ax, grp_cols,
                      grp_ptr, lip_g, 0.2, order)
    return 3, x0, M @ x0, epoch


@pytest.mark.parametrize("table", BACKENDS)
@pytest.mark.parametrize("kernel", ORDER_RULE_KERNELS)
def test_every_coordinate_kernel_follows_the_order_rule(kernel, table):
    # a float, bool or 2-d order is refused, not truncated, read as a mask
    # or flattened; a bad index is refused before any coordinate moves; a
    # negative index counts from the end
    p, x0, Ax0, epoch = order_rule_case(kernel)
    table = TABLES[table]
    for error, order in ((TypeError, np.array([0.7, 1.9])),
                         (TypeError, np.array([True, False])),
                         (TypeError, np.array([[0, 1], [1, 0]])),
                         (IndexError, np.append(np.arange(p), p)),
                         (IndexError, np.append(np.arange(p), -p - 1))):
        x, Ax = x0.copy(), Ax0.copy()
        with pytest.raises(error, match="order"):
            epoch(table, x, Ax, order)
        assert x.tobytes() + Ax.tobytes() == x0.tobytes() + Ax0.tobytes()
    order = np.random.default_rng(16).integers(0, p, size=3 * p)
    runs = []
    for o in (order, order - p):
        x, Ax = x0.copy(), Ax0.copy()
        epoch(table, x, Ax, o)
        assert not np.array_equal(x, x0)
        runs.append(x.tobytes() + Ax.tobytes())
    assert runs[0] == runs[1]


def test_quadratic_sweep_checks_its_order_when_bound():
    # a float order equal to 0..p-1 once took the Gauss-Seidel step
    quad = Quadratic(2.0 * np.eye(3), np.ones(3))
    for error, order in ((TypeError, np.arange(3.0)),
                         (IndexError, np.array([0, 1, 3]))):
        with pytest.raises(error, match="order"):
            quad.cd_sweep(order)
