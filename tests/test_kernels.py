"""Kernel tests: every backend table, and the explicit-loop sources run as
plain Python, against slow dense reference code and each other."""

import functools

import numpy as np
import pytest

from extracd import kernels
from extracd.data import CscMatrix
from extracd.kernels import IMPLS, warmup
from extracd.problems import ElasticNet, Lasso, Quadratic

# the loop sources uncompiled: the reference the numpy backend is checked
# against, with or without numba
LOOPS = kernels._loop_kernels(lambda f: f)
TABLES = {**IMPLS, "loops": LOOPS}
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
            want, want_Ax, _ = run_epoch(IMPLS["numpy"], name, M, A, target,
                                         x, extra)
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
    """The numpy backend's dense paths against the explicit-loop sources,
    run as plain Python."""

    def test_products(self):
        M, A, y, x = dense_problem(30, 17, seed=20)
        numpy_impl = IMPLS["numpy"]
        got = numpy_impl["csc_matvec"](A.values, A.row_idx, A.col_ptr, 30, x)
        ref = kernels._csc_matvec_loops(A.values, A.row_idx, A.col_ptr, 30, x)
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-14)
        got = numpy_impl["csc_rmatvec"](A.values, A.row_idx, A.col_ptr, y)
        ref = kernels._csc_rmatvec_loops(A.values, A.row_idx, A.col_ptr, y)
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
        epoch = penalty.epoch(datafit, lip)
        cyclic = np.arange(25, dtype=np.int64)
        repeats = np.random.default_rng(22).integers(0, 25, size=25)
        x, Ax = x0.copy(), M @ x0
        x_ref, Ax_ref = x0.copy(), M @ x0
        for order in (cyclic, repeats, cyclic, cyclic[::-1].copy(), cyclic):
            epoch(x, Ax, order)
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
        kernels.lsq_gram_epoch(AT, list(AT @ AT.T), y, x, Ax, lip, 0.3, 0.0,
                               1.0, order)
        x_ref, Ax_ref = x0.copy(), M @ x0
        LOOPS["lasso_epoch"](A.values, A.row_idx, A.col_ptr, y, x_ref, Ax_ref,
                             lip, 0.3, order)
        assert float(np.abs(x - x_ref).max()) <= 1e-12
        assert float(np.abs(Ax - Ax_ref).max()) <= 1e-12

    @pytest.mark.parametrize("backward", [False, True])
    def test_quadratic_cyclic_passes(self, backward):
        for quad in acceptance_quadratics():
            order = np.arange(quad.dim, dtype=np.int64)
            if backward:
                order = order[::-1].copy()
            x0 = np.random.default_rng(quad.dim).standard_normal(quad.dim)
            got, ref = x0.copy(), x0.copy()
            quad.cd_pass(got, order)
            kernels._cd_dense_epoch_loops(quad.H, quad.b, ref, order)
            assert float(np.abs(got - ref).max()) <= 1e-12, quad.dim

    @pytest.mark.parametrize("path", ["numpy", "loops"])
    def test_cd_pass_carries_hx(self, path, monkeypatch):
        # "loops" takes the path of the numba backend with the loop source
        # run as plain Python, so it runs with or without numba
        monkeypatch.setattr(kernels, "BACKEND",
                            "numpy" if path == "numpy" else "numba")
        monkeypatch.setattr(kernels, "cd_dense_epoch",
                            IMPLS["numpy"]["cd_dense_epoch"]
                            if path == "numpy"
                            else kernels._cd_dense_epoch_loops)
        for quad in acceptance_quadratics():
            p = quad.dim
            rng = np.random.default_rng(p)
            cyclic = np.arange(p, dtype=np.int64)
            repeats = rng.integers(0, p, size=p + 3).astype(np.int64)
            x0 = rng.standard_normal(p)
            for order in (cyclic, cyclic[::-1].copy(), repeats):
                want = x0.copy()
                quad.cd_pass(want, order)
                got, Hx = x0.copy(), quad.H @ x0
                quad.cd_pass(got, order, Hx)
                assert got.tobytes() == want.tobytes(), (p, order[:3])
                assert np.array_equal(Hx, quad.H @ got), (p, order[:3])


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


def per_column_logreg_epoch(l1, data, indices, indptr, y, x, Ax, lip, lam,
                            order):
    """The numpy logistic epoch as a per-column loop: every coordinate
    recomputes its rows of the gradient factor from ``Ax``."""
    for j in order:
        lj = lip[j]
        if lj <= 0.0:
            continue
        sl = slice(indptr[j], indptr[j + 1])
        rows = indices[sl]
        vals = data[sl]
        yr = y[rows]
        grad = vals @ (-yr * kernels._sig_neg_vec(yr * Ax[rows]))
        if l1:
            new = kernels._st(x[j] - grad / lj, lam / lj)
        else:
            new = (x[j] - grad / lj) / (1.0 + lam / lj)
        d = new - x[j]
        if d != 0.0:
            Ax[rows] += d * vals
            x[j] = new


def per_column_lasso_epoch(data, indices, indptr, y, x, Ax, lip, lam, order):
    """The numpy lasso epoch as a per-column loop: every coordinate
    recomputes its rows of the residual ``Ax - y``."""
    for j in order:
        lj = lip[j]
        if lj <= 0.0:
            continue
        sl = slice(indptr[j], indptr[j + 1])
        rows = indices[sl]
        vals = data[sl]
        grad = vals @ (Ax[rows] - y[rows])
        new = kernels._st(x[j] - grad / lj, lam / lj)
        d = new - x[j]
        if d != 0.0:
            Ax[rows] += d * vals
            x[j] = new


def per_column_enet_epoch(data, indices, indptr, y, x, Ax, lip, lam, rho,
                          n_samples, order):
    """The numpy elastic-net epoch as a per-column loop."""
    for j in order:
        lj = lip[j]
        if lj <= 0.0:
            continue
        sl = slice(indptr[j], indptr[j + 1])
        rows = indices[sl]
        vals = data[sl]
        grad = (vals @ (Ax[rows] - y[rows])) / n_samples
        new = kernels._st(x[j] - grad / lj, lam / lj) / (1.0 + rho / lj)
        d = new - x[j]
        if d != 0.0:
            Ax[rows] += d * vals
            x[j] = new


class TestNumpySparsePath:
    """The numpy backend's sparse products and coordinate epochs, bit for
    bit, against the explicit-loop sources run as plain Python and the
    per-column epochs."""

    @pytest.mark.parametrize("seed", range(40))
    def test_products_match_loops(self, seed):
        A, rng = random_csc(seed)
        args = (A.values, A.row_idx, A.col_ptr)
        x = rng.standard_normal(A.n_cols) * (rng.random(A.n_cols) < 0.7)
        v = rng.standard_normal(A.n_rows)
        got = IMPLS["numpy"]["csc_matvec"](*args, A.n_rows, x)
        ref = kernels._csc_matvec_loops(*args, A.n_rows, x)
        assert np.array_equal(got, ref)
        got = IMPLS["numpy"]["csc_rmatvec"](*args, v)
        ref = kernels._csc_rmatvec_loops(*args, v)
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
        norms = kernels._csc_col_norms_sq_loops(A.values, A.col_ptr)
        lam = float(rng.uniform(0.0, 0.3)) * max(n, 1)
        x0 = rng.standard_normal(p) * (rng.random(p) < 0.5)
        cyclic = np.arange(p, dtype=np.int64)
        repeats = rng.integers(0, p, size=2 * p)
        if kernel == "lasso_epoch":
            lip, extra = norms, (lam,)
            ref = per_column_lasso_epoch
        elif kernel == "enet_epoch":
            rho, n_samples = 0.1, max(n, 1)
            lip, extra = norms / n_samples + rho, (lam / n_samples, rho,
                                                   n_samples)
            ref = per_column_enet_epoch
        else:
            lip, extra = norms / 4.0, (lam,)
            ref = functools.partial(per_column_logreg_epoch,
                                    kernel == "logreg_l1_epoch")
        x, Ax = x0.copy(), kernels._csc_matvec_loops(*args, n, x0)
        x_ref, Ax_ref = x.copy(), Ax.copy()
        for order in (cyclic, cyclic[::-1].copy(), repeats) * 2:
            IMPLS["numpy"][kernel](*args, y, x, Ax, lip, *extra, order)
            ref(*args, y, x_ref, Ax_ref, lip, *extra, order)
            assert x.tobytes() == x_ref.tobytes()
            assert Ax.tobytes() == Ax_ref.tobytes()
        if n:
            assert not np.array_equal(x, x0)  # some coordinate moved


def test_warmup_idempotent():
    warmup()
    warmup()


def test_warmup_calls_no_kernel_on_numpy(monkeypatch):
    # the numpy backend compiles nothing, so warming it up is wasted work
    called = []
    monkeypatch.setattr(kernels, "BACKEND", "numpy")
    for name in IMPLS["numpy"]:
        monkeypatch.setattr(kernels, name,
                            lambda *args, name=name: called.append(name))
    warmup()
    assert called == []
