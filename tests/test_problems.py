import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extracd import kernels
from extracd.data import CscMatrix, Dataset, gen_correlated_gaussian
from extracd.errors import ArgumentError
from extracd.problems import (ElasticNet, GroupLasso, Lasso, LogRegL1,
                              LogRegL2, Quadratic, coordinate_lipschitz,
                              datafit_gradient, datafit_value, duality_gap,
                              evaluate, groups_from_size, lambda_max,
                              objective_value, penalty_value,
                              prox_coordinate, prox_group, ridge_quadratic,
                              stopping_measure, tikhonov_for_condition)
from extracd.solvers import SolverConfig, solve


def make_instances(n=25, p=12, seed=0):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, p))
    A = CscMatrix.from_dense(M)
    y = rng.standard_normal(n)
    yb = np.where(rng.random(n) > 0.5, 1.0, -1.0)
    groups = groups_from_size(p, 4)
    return {
        "lasso": Lasso(A, y, 0.7),
        "enet": ElasticNet(A, y, 0.4, 0.2),
        "logreg_l1": LogRegL1(A, yb, 0.3),
        "logreg_l2": LogRegL2(A, yb, 0.5),
        "group": GroupLasso(A, y, 0.6, groups),
    }, M, y, yb


def bits(values):
    """The float64 bytes of each value (``None`` kept as it is)."""
    return [None if v is None else np.float64(v).tobytes() for v in values]


class TestObjectives:
    def test_hand_formulas(self):
        probs, M, y, yb = make_instances()
        rng = np.random.default_rng(1)
        x = rng.standard_normal(12)
        Ax = M @ x
        r = y - Ax
        n = 25

        assert math.isclose(objective_value(probs["lasso"], x),
                            0.5 * r @ r + 0.7 * np.abs(x).sum(),
                            rel_tol=1e-12)
        assert math.isclose(
            objective_value(probs["enet"], x),
            r @ r / (2 * n) + 0.4 * np.abs(x).sum() + 0.1 * x @ x,
            rel_tol=1e-12)
        assert math.isclose(
            objective_value(probs["logreg_l1"], x),
            np.log1p(np.exp(-yb * Ax)).sum() + 0.3 * np.abs(x).sum(),
            rel_tol=1e-12)
        assert math.isclose(
            objective_value(probs["logreg_l2"], x),
            np.log1p(np.exp(-yb * Ax)).sum() + 0.25 * x @ x,
            rel_tol=1e-12)
        gnorm = sum(np.linalg.norm(x[g]) for g in probs["group"].groups)
        assert math.isclose(objective_value(probs["group"], x),
                            0.5 * r @ r + 0.6 * gnorm, rel_tol=1e-12)

    def test_quadratic_objective(self):
        H = np.array([[2.0, 0.3], [0.3, 1.0]])
        quad = Quadratic(H, np.array([1.0, -1.0]))
        x = np.array([0.5, 2.0])
        expected = 0.5 * x @ H @ x + x @ [1.0, -1.0]
        assert math.isclose(objective_value(quad, x), expected)
        assert penalty_value(quad, x) == 0.0

    def test_precomputed_ax_consistent(self):
        probs, M, _, _ = make_instances(seed=2)
        x = np.random.default_rng(3).standard_normal(12)
        for prob in probs.values():
            assert math.isclose(objective_value(prob, x),
                                objective_value(prob, x, Ax=M @ x),
                                rel_tol=1e-12)

    def test_logistic_overflow_safe(self):
        probs, M, _, _ = make_instances(seed=4)
        x = np.full(12, 50.0)
        v = objective_value(probs["logreg_l1"], x)
        assert np.isfinite(v)


class TestGradients:
    def test_finite_differences_in_prediction_space(self):
        probs, M, y, yb = make_instances(seed=5)
        rng = np.random.default_rng(6)
        x = rng.standard_normal(12) * 0.3
        Ax = M @ x
        h = 1e-6
        for name, prob in probs.items():
            g = datafit_gradient(prob, Ax)
            for i in (0, 7, 24):
                e = np.zeros(25)
                e[i] = h
                fd = (datafit_value(prob, x, Ax + e)
                      - datafit_value(prob, x, Ax - e)) / (2 * h)
                assert math.isclose(g[i], fd, rel_tol=1e-5, abs_tol=1e-7), \
                    name

    def test_quadratic_gradient_fd(self):
        quad = ridge_quadratic(
            gen_correlated_gaussian(15, 8, seed=7)[0], kappa=50.0)
        x = np.random.default_rng(8).standard_normal(8)
        g = quad.gradient(x)
        h = 1e-6
        for i in range(8):
            e = np.zeros(8)
            e[i] = h
            fd = (quad.value(x + e) - quad.value(x - e)) / (2 * h)
            assert math.isclose(g[i], fd, rel_tol=1e-5, abs_tol=1e-8)

    def test_quadratic_has_no_prediction_gradient(self):
        quad = Quadratic(np.eye(2), np.zeros(2))
        with pytest.raises(ArgumentError, match="^datafit_gradient needs a "
                           "problem with a design matrix$"):
            datafit_gradient(quad, np.zeros(2))


class TestQuadraticDatafit:
    """The quadratic is its own datafit: its predictions are ``Hx``."""

    def test_is_its_own_datafit(self):
        quad = make_quadratic(seed=24)
        assert quad.datafit is quad
        assert "datafit" not in vars(quad)  # returned, never stored
        assert quad.A is None and quad.scale == 1.0
        assert (quad.penalty.l1, quad.penalty.l2) == (0.0, 0.0)
        assert quad.n_coef == quad.dim == 12

    def test_oracles_read_the_hessian_product(self):
        quad = make_quadratic(seed=25)
        x = np.random.default_rng(26).standard_normal(12)
        Hx = quad.H @ x
        assert quad.predict(x).tobytes() == Hx.tobytes()
        assert quad.gram(x).tobytes() == Hx.tobytes()
        assert quad.value(x) == quad.value(x, Hx) == datafit_value(quad, x)
        assert quad.value(x) == 0.5 * x @ Hx + quad.b @ x
        assert quad.gradient(x).tobytes() == (Hx + quad.b).tobytes()
        assert quad.gradient_x(x, Hx).tobytes() == (Hx + quad.b).tobytes()
        lip = coordinate_lipschitz(quad)
        assert lip.tobytes() == np.diag(quad.H).tobytes()
        assert lip.flags.writeable

    def test_holds_read_only_copies(self):
        M = np.random.default_rng(27).standard_normal((20, 10))
        H, b = M.T @ M + np.eye(10), M.T @ np.ones(20)
        quad = Quadratic(H, b)
        assert H.flags.writeable and b.flags.writeable  # the caller's own
        assert not (quad.H.flags.writeable or quad.b.flags.writeable)
        # a view of a writable base: changing the base after a cyclic pass
        # (which caches the Gauss-Seidel inverse) leaves the quadratic as it
        # was
        base = H.copy()
        quad = Quadratic(base[:], b)
        order = np.arange(10, dtype=np.int64)
        x = np.zeros(10)
        quad.cd_sweep(order)(x, quad.H @ x)
        base *= 2.0
        assert quad.H.tobytes() == H.tobytes()
        want = x.copy()
        kernels.LOOPS["cd_dense_epoch"](quad.H, quad.b, want, order)
        quad.cd_sweep(order)(x, quad.H @ x)
        assert float(np.abs(x - want).max()) <= 1e-12


def make_quadratic(seed):
    M = np.random.default_rng(seed).standard_normal((20, 12))
    return Quadratic(M.T @ M + np.eye(12), M.T @ np.ones(20))


@pytest.mark.parametrize("kind", ["quadratic", "lasso", "enet", "logreg_l1",
                                  "logreg_l2", "group"])
def test_solved_problem_freed_without_cycle_collector(kind):
    # a problem that is part of a reference cycle, with the arrays it holds
    # (a quadratic's cached triangle inverses), would outlive its last name
    gc.disable()
    try:
        probs = {**make_instances(seed=27)[0],
                 "quadratic": make_quadratic(seed=27)}
        prob = probs.pop(kind)
        del probs
        solve(prob, SolverConfig(algorithm="pcd_anderson", max_epochs=30,
                                 tol=0.0))
        alive = weakref.ref(prob)
        del prob
        assert alive() is None
    finally:
        gc.enable()


class TestLipschitz:
    def test_values(self):
        probs, M, _, _ = make_instances(seed=9)
        col = (M * M).sum(axis=0)
        np.testing.assert_allclose(coordinate_lipschitz(probs["lasso"]), col)
        np.testing.assert_allclose(coordinate_lipschitz(probs["enet"]),
                                   col / 25 + 0.2)
        np.testing.assert_allclose(coordinate_lipschitz(probs["logreg_l1"]),
                                   col / 4.0)
        np.testing.assert_allclose(coordinate_lipschitz(probs["logreg_l2"]),
                                   col / 4.0)
        expect_g = [np.linalg.norm(M[:, g], 2) ** 2
                    for g in probs["group"].groups]
        np.testing.assert_allclose(coordinate_lipschitz(probs["group"]),
                                   expect_g)

    def test_group_blocks_not_densified(self, monkeypatch):
        rng = np.random.default_rng(23)
        M = rng.standard_normal((15, 10))
        M[:, 3] = 0.0
        prob = GroupLasso(CscMatrix.from_dense(M), rng.standard_normal(15),
                          0.5, groups_from_size(10, 4))

        def refuse(self):
            raise AssertionError("the whole design was densified")

        monkeypatch.setattr(CscMatrix, "toarray", refuse)
        expect = [np.linalg.norm(M[:, g], 2) ** 2 for g in prob.groups]
        np.testing.assert_array_equal(coordinate_lipschitz(prob), expect)

    def test_quadratic_diagonal(self):
        H = np.diag([3.0, 5.0]) + 0.1
        quad = Quadratic(H, np.zeros(2))
        np.testing.assert_allclose(coordinate_lipschitz(quad), np.diag(H))


def prox_oracle_1d(v, pen_grad_left, pen_grad_right, lo, hi, iters=200):
    """Bisection on the subgradient sign of u -> 0.5(u-v)^2 + pen(u)."""
    def slope_sign(u):
        lo_s = u - v + pen_grad_left(u)
        hi_s = u - v + pen_grad_right(u)
        if hi_s < 0:
            return -1
        if lo_s > 0:
            return 1
        return 0

    a, b = lo, hi
    for _ in range(iters):
        mid = 0.5 * (a + b)
        s = slope_sign(mid)
        if s == 0:
            return mid
        if s < 0:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


class TestProx:
    @pytest.mark.parametrize("name", ["lasso", "enet", "logreg_l1",
                                      "logreg_l2"])
    def test_coordinate_prox_against_bisection(self, name):
        probs, _, _, _ = make_instances(seed=10)
        prob = probs[name]
        rng = np.random.default_rng(11)
        for _ in range(100):
            v = float(rng.uniform(-4, 4))
            step = float(rng.uniform(0.01, 3.0))
            got = prox_coordinate(prob, 0, v, step)
            if name in ("lasso", "logreg_l1"):
                pl = lambda u: step * (np.sign(u) if u else -1.0)
                ph = lambda u: step * (np.sign(u) if u else 1.0)
            elif name == "enet":
                rho_eff = step * prob.rho / prob.lam
                pl = lambda u: step * (np.sign(u) if u else -1.0) \
                    + rho_eff * u
                ph = lambda u: step * (np.sign(u) if u else 1.0) \
                    + rho_eff * u
            else:
                pl = ph = lambda u: step * u
            ref = prox_oracle_1d(v, pl, ph, -10.0, 10.0)
            assert abs(got - ref) < 1e-8

    def test_quadratic_prox_is_identity(self):
        quad = Quadratic(np.eye(2), np.zeros(2))
        assert prox_coordinate(quad, 1, 1.23, 0.5) == 1.23

    def test_group_prox_radial_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            v = rng.standard_normal(4) * rng.uniform(0.1, 3.0)
            thr = float(rng.uniform(0.0, 3.0))
            got = prox_group(v, thr)
            nv = np.linalg.norm(v)
            # radial reduction: scale s minimizes 0.5(s - |v|)^2 + thr*s
            s = prox_oracle_1d(nv, lambda u: thr, lambda u: thr, 0.0, 10.0)
            s = max(s, 0.0)
            ref = v * (s / nv) if nv > 0 else np.zeros_like(v)
            np.testing.assert_allclose(got, ref, atol=1e-8)

    def test_group_prox_zeroes_small_blocks(self):
        v = np.array([0.3, -0.4])  # norm 0.5
        np.testing.assert_array_equal(prox_group(v, 0.5), np.zeros(2))
        np.testing.assert_array_equal(prox_group(v, 0.6), np.zeros(2))

    def test_validation(self):
        probs, _, _, _ = make_instances(seed=13)
        with pytest.raises(ArgumentError):
            prox_coordinate(probs["lasso"], 0, 1.0, -0.1)
        with pytest.raises(ArgumentError):
            prox_coordinate(probs["group"], 0, 1.0, 0.1)
        with pytest.raises(ArgumentError):
            prox_group(np.ones(2), -1.0)


class TestLambdaMax:
    def test_closed_forms(self):
        probs, M, y, yb = make_instances(seed=14)
        assert math.isclose(lambda_max(probs["lasso"]),
                            np.abs(M.T @ y).max(), rel_tol=1e-12)
        assert math.isclose(lambda_max(probs["enet"]),
                            np.abs(M.T @ y).max() / 25, rel_tol=1e-12)
        assert math.isclose(lambda_max(probs["logreg_l1"]),
                            np.abs(M.T @ yb).max() / 2, rel_tol=1e-12)
        expect = max(np.linalg.norm((M.T @ y)[g])
                     for g in probs["group"].groups)
        assert math.isclose(lambda_max(probs["group"]), expect,
                            rel_tol=1e-12)

    def test_zero_optimal_at_lambda_max(self):
        # at lam >= lambda_max the zero vector is a minimizer
        probs, M, y, yb = make_instances(seed=15)
        for name in ("lasso", "enet", "logreg_l1", "group"):
            base = probs[name]
            lmax = lambda_max(base)
            if name == "lasso":
                prob = Lasso(base.A, y, lmax)
            elif name == "enet":
                prob = ElasticNet(base.A, y, lmax, base.rho)
            elif name == "logreg_l1":
                prob = LogRegL1(base.A, yb, lmax)
            else:
                prob = GroupLasso(base.A, y, lmax, base.groups)
            assert stopping_measure(prob, np.zeros(12)) < 1e-10, name

    def test_design_without_columns(self):
        # the l-infinity dual norm of an empty vector is 0
        A = CscMatrix.from_dense(np.zeros((4, 0)))
        y = np.array([1.0, -1.0, -1.0, 1.0])
        for prob in (Lasso(A, y, 0.5), ElasticNet(A, y, 0.5, 0.1),
                     LogRegL1(A, y, 0.5)):
            assert lambda_max(prob) == 0.0
            assert duality_gap(prob, np.zeros(0)).gap <= 1e-12

    def test_refused_for_smooth_penalties(self):
        probs, _, _, _ = make_instances(seed=16)
        with pytest.raises(ArgumentError):
            lambda_max(probs["logreg_l2"])
        with pytest.raises(ArgumentError, match="^lambda_max requires a "
                           "sparsity-inducing penalty$"):
            lambda_max(Quadratic(np.eye(2), np.zeros(2)))


class TestDualityGap:
    def test_weak_duality_random_points(self):
        probs, _, _, _ = make_instances(seed=17)
        rng = np.random.default_rng(18)
        for name in ("lasso", "enet", "logreg_l1"):
            prob = probs[name]
            for _ in range(10):
                x = rng.standard_normal(12) * rng.uniform(0.1, 2.0)
                rep = duality_gap(prob, x)
                assert rep.gap >= 0.0
                assert rep.primal - rep.dual <= rep.gap + 1e-12
                assert math.isclose(rep.primal, objective_value(prob, x),
                                    rel_tol=1e-12)

    def test_gap_vanishes_at_optimum(self):
        probs, _, _, _ = make_instances(seed=19)
        for name in ("lasso", "enet", "logreg_l1"):
            cfg = SolverConfig(algorithm="pcd_anderson", max_epochs=3000,
                               tol=1e-12)
            trace = solve(probs[name], cfg)
            rep = duality_gap(probs[name], trace.x)
            assert rep.gap <= 1e-10, name

    def test_none_for_problems_without_dual(self):
        probs, _, _, _ = make_instances(seed=20)
        assert duality_gap(probs["logreg_l2"], np.zeros(12)) is None
        assert duality_gap(probs["group"], np.zeros(12)) is None
        assert duality_gap(Quadratic(np.eye(2), np.zeros(2)),
                           np.zeros(2)) is None

    def test_stationarity_measures_vanish_at_optimum(self):
        probs, _, _, _ = make_instances(seed=21)
        for name in ("logreg_l2", "group"):
            cfg = SolverConfig(algorithm="pcd_anderson", max_epochs=5000,
                               tol=1e-11)
            trace = solve(probs[name], cfg)
            assert stopping_measure(probs[name], trace.x) < 1e-8, name

    def test_elastic_net_gap_products(self, monkeypatch):
        # one A' product for theta, and one more only for its rescaling
        probs, _, y, _ = make_instances(seed=22)
        A = probs["enet"].A
        calls = []
        rmatvec = kernels.csc_rmatvec
        monkeypatch.setattr(kernels, "csc_rmatvec",
                            lambda *args: calls.append(1) or rmatvec(*args))
        top = lambda_max(ElasticNet(A, y, 1.0, 0.0))
        for rho in (0.0, 0.3):
            for frac in (2.0, 0.1):
                prob = ElasticNet(A, y, frac * top, rho)
                calls.clear()
                duality_gap(prob, np.zeros(12), np.zeros(25))
                # the rescaled point's dual value reads A' only with a ridge
                want = 2 if frac < 1 and rho > 0 else 1
                assert len(calls) == want, (rho, frac, len(calls))

    def test_evaluate_is_objective_gap_and_measure(self):
        probs = {**make_instances(seed=23)[0],
                 "quadratic": make_quadratic(seed=23)}
        rng = np.random.default_rng(24)
        for name, prob in probs.items():
            x = rng.standard_normal(12)
            Ax = prob.datafit.predict(x)
            report = duality_gap(prob, x)
            measure = (prob.penalty.stationarity(
                x, prob.datafit.gradient_x(x, Ax)) if report is None
                else report.gap)
            want = (objective_value(prob, x),
                    None if report is None else report.gap, measure)
            assert (report is None) == (name in ("quadratic", "logreg_l2",
                                                 "group"))
            for got in (evaluate(prob, x), evaluate(prob, x, Ax)):
                assert bits(got) == bits(want), name
            assert bits([stopping_measure(prob, x)]) == bits([measure])
            assert bits([stopping_measure(prob, x, Ax)]) == bits([measure])

    def test_quadratic_stationarity_is_gradient_norm(self):
        quad = Quadratic(np.diag([2.0, 4.0]), np.array([1.0, 1.0]))
        x = np.array([0.5, -0.5])
        expect = np.abs(quad.gradient(x)).max()
        assert math.isclose(stopping_measure(quad, x), expect)
        assert stopping_measure(quad, quad.solve()) < 1e-12


class TestGroupsAndRidge:
    def test_groups_from_size(self):
        groups = groups_from_size(10, 4)
        assert [g.tolist() for g in groups] == [[0, 1, 2, 3], [4, 5, 6, 7],
                                                [8, 9]]
        with pytest.raises(ArgumentError):
            groups_from_size(10, 0)

    def test_group_partition_validated(self):
        A = CscMatrix.from_dense(np.eye(4))
        y = np.zeros(4)
        with pytest.raises(ArgumentError):
            GroupLasso(A, y, 1.0, (np.array([0, 1]),))
        with pytest.raises(ArgumentError):
            GroupLasso(A, y, 1.0, (np.array([0, 1]), np.array([1, 2, 3])))

    def test_design_problems_hold_read_only_copies(self):
        # labels and group indices that are views of writable bases:
        # changing the bases after the checks leaves the problem as it was
        A = CscMatrix.from_dense(np.eye(4))
        y_base = np.array([1.0, 2.0, 3.0, 4.0])
        g_base = np.array([0, 1, 2, 3], dtype=np.int64)
        prob = GroupLasso(A, y_base[:], 1.0, (g_base[:2], g_base[2:]))
        lasso = Lasso(A, y_base[:], 1.0)
        y_base[0], g_base[0] = np.nan, 3
        for y in (prob.y, prob.datafit.y, lasso.y, lasso.datafit.y):
            assert y.tolist() == [1.0, 2.0, 3.0, 4.0]
            assert not y.flags.writeable
        assert [g.tolist() for g in prob.groups] == [[0, 1], [2, 3]]
        assert not any(g.flags.writeable for g in prob.groups)
        assert prob.penalty.grp_cols.tolist() == [0, 1, 2, 3]
        assert y_base.flags.writeable and g_base.flags.writeable

    def test_tikhonov_for_condition(self):
        eigs = np.array([0.0, 0.5, 4.0])
        shift = tikhonov_for_condition(eigs, 100.0)
        w = eigs + shift
        assert math.isclose(w.max() / w.min(), 100.0, rel_tol=1e-9)
        # already better conditioned than requested: no shift
        assert tikhonov_for_condition(np.array([1.0, 2.0]), 100.0) == 0.0
        with pytest.raises(ArgumentError):
            tikhonov_for_condition(eigs, 1.0)

    @pytest.mark.parametrize("make,match", [
        (lambda: Quadratic(np.ones((2, 3)), np.zeros(2)), "square"),
        (lambda: Quadratic(np.array([[1.0, 0.0], [0.0, np.inf]]),
                           np.zeros(2)), "finite"),
        (lambda: Quadratic(np.eye(2), np.array([0.0, np.nan])), "finite"),
        (lambda: Lasso(np.eye(2), np.zeros(2), 0.5), "CscMatrix"),
        (lambda: Lasso(CscMatrix.from_dense(np.eye(2)), np.zeros(3), 0.5),
         "one entry per row"),
        (lambda: ElasticNet(CscMatrix.from_dense(np.eye(2)), np.zeros(2),
                            0.5, -0.1), "rho"),
        (lambda: ElasticNet(CscMatrix.from_dense(np.eye(2)), np.zeros(2),
                            0.5, np.nan), "rho"),
        (lambda: tikhonov_for_condition(np.array([0.0, -1.0]), 10.0),
         "positive eigenvalue"),
    ], ids=["quadratic-not-square", "quadratic-inf-H", "quadratic-nan-b",
            "design-not-csc", "design-y-length", "enet-rho-negative",
            "enet-rho-nan", "tikhonov-no-positive-eigenvalue"])
    def test_input_checks(self, make, match):
        with pytest.raises(ArgumentError, match=match):
            make()

    def test_ridge_quadratic_structure(self):
        ds, _ = gen_correlated_gaussian(10, 6, seed=22)
        M = ds.A.toarray()
        quad = ridge_quadratic(ds, kappa=30.0)
        w = np.linalg.eigvalsh(quad.H)
        assert math.isclose(w[-1] / w[0], 30.0, rel_tol=1e-6)
        np.testing.assert_allclose(quad.b, -M.T @ ds.y, atol=1e-12)
        shift = quad.H[0, 0] - (M.T @ M)[0, 0]
        np.testing.assert_allclose(quad.H, M.T @ M + shift * np.eye(6),
                                   atol=1e-10)

    def test_elastic_net_needs_rows(self):
        # its loss is a mean over rows; a lasso's is a sum
        A = CscMatrix.from_dense(np.zeros((0, 3)))
        with pytest.raises(ArgumentError, match="rows"):
            ElasticNet(A, np.zeros(0), 0.5, 0.1)
        assert lambda_max(Lasso(A, np.zeros(0), 0.5)) == 0.0

    def test_label_validation(self):
        A = CscMatrix.from_dense(np.eye(3))
        with pytest.raises(ArgumentError):
            LogRegL1(A, np.array([0.0, 1.0, 2.0]), 0.5)
        with pytest.raises(ArgumentError):
            Lasso(A, np.zeros(3), -1.0)
        groups = groups_from_size(3, 2)
        for bad in (np.nan, np.inf):
            y = np.array([1.0, bad, 0.5])
            for make in (lambda: Lasso(A, y, 0.5),
                         lambda: ElasticNet(A, y, 0.5, 0.1),
                         lambda: GroupLasso(A, y, 0.5, groups)):
                with pytest.raises(ArgumentError, match="finite"):
                    make()


# ---------------------------------------------------------------------------
# non-finite input
# ---------------------------------------------------------------------------

def spoil(values, k, bad):
    """A float copy of ``values`` with its entry ``k`` (mod size) ``bad``."""
    out = np.array(values, dtype=np.float64)
    out.flat[k % out.size] = bad
    return out


_M = np.array([[1.0, 0.0], [2.0, 3.0], [0.0, 4.0]])
_A = CscMatrix.from_dense(_M)
_Y = np.array([1.0, -1.0, 1.0])
_DESIGN_PROBLEMS = {
    "lasso": lambda y, lam: Lasso(_A, y, lam),
    "enet": lambda y, lam: ElasticNet(_A, y, lam, 0.1),
    "logreg_l1": lambda y, lam: LogRegL1(_A, y, lam),
    "logreg_l2": lambda y, lam: LogRegL2(_A, y, lam),
    "group": lambda y, lam: GroupLasso(_A, y, lam, groups_from_size(2, 1)),
}
# each float input of the solvers -> a call that receives ``bad`` there
NON_FINITE_INPUTS = {
    "tol": lambda bad, k: SolverConfig(tol=bad),
    "rho": lambda bad, k: ElasticNet(_A, _Y, 0.5, bad),
    "H": lambda bad, k: Quadratic(spoil(np.eye(3), k, bad), np.ones(3)),
    "b": lambda bad, k: Quadratic(np.eye(3), spoil(np.ones(3), k, bad)),
    "kappa": lambda bad, k: tikhonov_for_condition(np.array([1.0, 4.0]),
                                                   bad),
    "design/dense": lambda bad, k: CscMatrix.from_dense(spoil(_M, k, bad)),
    "design/csc": lambda bad, k: CscMatrix(
        3, 2, _A.col_ptr, _A.row_idx, spoil(_A.values, k, bad)),
    "labels/dataset": lambda bad, k: Dataset(_A, spoil(_Y, k, bad)),
}
for _kind, _make in _DESIGN_PROBLEMS.items():
    NON_FINITE_INPUTS[f"lam/{_kind}"] = (
        lambda bad, k, make=_make: make(_Y, bad))
    NON_FINITE_INPUTS[f"labels/{_kind}"] = (
        lambda bad, k, make=_make: make(spoil(_Y, k, bad), 0.5))


def test_every_non_finite_case_builds_when_finite():
    # the same calls with finite values raise nothing
    for name, make in NON_FINITE_INPUTS.items():
        make(10.0 if name == "kappa" else 0.5 if name == "tol" else 1.0, 0)


@pytest.mark.parametrize("name", sorted(NON_FINITE_INPUTS))
@settings(max_examples=15, deadline=None)
@given(bad=st.sampled_from([math.nan, math.inf, -math.inf]),
       k=st.integers(0, 8))
def test_non_finite_input_is_refused(name, bad, k):
    with pytest.raises(ArgumentError):
        NON_FINITE_INPUTS[name](bad, k)
