import dataclasses
import math

import numpy as np
import pytest

from extracd import anderson, problems, solvers
from extracd.data import CscMatrix, gen_correlated_gaussian
from extracd.errors import ArgumentError
from extracd.fixedpoint import cd_iteration, cdsym_iteration
from extracd.problems import (ElasticNet, GroupLasso, Lasso, LogRegL1,
                              LogRegL2, Quadratic, groups_from_size,
                              lambda_max, objective_value, stopping_measure)
from extracd.solvers import (SOLVERS, SolverConfig, Trace, anderson_gd,
                             anderson_pcd, baseline_cdsym, baseline_fista,
                             baseline_gd, baseline_pcd, baseline_pgd,
                             baseline_prcd, cdsym_epoch_quadratic,
                             conjugate_gradient, epochs_to_target,
                             global_lipschitz, pcd_epoch, power_iteration,
                             solve)


def make_quad(p=20, kappa=100.0, seed=0):
    rng = np.random.default_rng(seed)
    lams = np.logspace(-math.log10(kappa), 0, p)
    Q, _ = np.linalg.qr(rng.standard_normal((p, p)))
    H = (Q * lams) @ Q.T
    H = 0.5 * (H + H.T)
    return Quadratic(H, rng.standard_normal(p))


def quad_fstar(quad):
    x_star = quad.solve()
    return objective_value(quad, x_star)


def make_sparse_problems(n=40, p=16, seed=0, frac=0.1):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, p))
    A = CscMatrix.from_dense(M)
    y = rng.standard_normal(n)
    yb = np.where(rng.random(n) > 0.5, 1.0, -1.0)
    probs = {}
    lam = frac * lambda_max(Lasso(A, y, 1.0))
    probs["lasso"] = Lasso(A, y, lam)
    lam = frac * lambda_max(ElasticNet(A, y, 1.0, 0.0))
    probs["enet"] = ElasticNet(A, y, lam, 0.1 * lam)
    lam = frac * lambda_max(LogRegL1(A, yb, 1.0))
    probs["logreg_l1"] = LogRegL1(A, yb, lam)
    probs["logreg_l2"] = LogRegL2(A, yb, 0.05)
    groups = groups_from_size(p, 4)
    lam = frac * lambda_max(GroupLasso(A, y, 1.0, groups))
    probs["group"] = GroupLasso(A, y, lam, groups)
    return probs, M


def assert_nonincreasing(values, slack=1e-10):
    arr = np.asarray(values, dtype=float)
    tol = slack * (1.0 + np.abs(arr[:-1]))
    assert np.all(arr[1:] <= arr[:-1] + tol)


# ---------------------------------------------------------------------------
# epoch functions
# ---------------------------------------------------------------------------

class TestEpochFunctions:
    def test_cd_epoch_matches_affine_map(self):
        quad = make_quad(p=15, seed=3)
        it = cd_iteration(quad)
        rng = np.random.default_rng(4)
        for _ in range(5):
            x = rng.standard_normal(15)
            want = it.apply(x)
            got = pcd_epoch(quad, x.copy())
            assert np.allclose(got, want, atol=1e-12)

    def test_cdsym_epoch_matches_affine_map(self):
        quad = make_quad(p=12, seed=5)
        it, _ = cdsym_iteration(quad)
        x = np.random.default_rng(6).standard_normal(12)
        got = cdsym_epoch_quadratic(quad, x.copy())
        assert np.allclose(got, it.apply(x), atol=1e-12)

    def test_cd_epoch_respects_order(self):
        quad = make_quad(p=8, seed=7)
        order = np.array([5, 0, 3, 1, 7, 2, 6, 4], dtype=np.int64)
        x = np.random.default_rng(8).standard_normal(8)
        got = pcd_epoch(quad, x.copy(), order=order)
        ref = x.copy()
        for j in order:
            ref[j] -= (quad.H[j] @ ref + quad.b[j]) / quad.H[j, j]
        assert np.allclose(got, ref, atol=1e-12)

    def test_cd_iteration_probes_the_pcd_step(self, monkeypatch):
        # the probes run the step `pcd` builds, through Quadratic.epoch,
        # bound once
        calls = []
        epoch = Quadratic.epoch

        def counting_epoch(self, penalty, lip):
            calls.append(lip.size)
            return epoch(self, penalty, lip)

        monkeypatch.setattr(Quadratic, "epoch", counting_epoch)
        cd_iteration(make_quad(p=7, seed=10))
        assert calls == [7]

    def test_cdsym_iteration_probes_the_cdsym_step(self, monkeypatch):
        # the step `cdsym` builds, bound once: one pass per sweep
        calls = []
        cd_sweep = Quadratic.cd_sweep

        def counting_cd_sweep(self, order):
            calls.append(order.size)
            return cd_sweep(self, order)

        monkeypatch.setattr(Quadratic, "cd_sweep", counting_cd_sweep)
        cdsym_iteration(make_quad(p=7, seed=10))
        assert calls == [7, 7]

    def test_cdsym_epoch_refuses_a_design_problem(self):
        probs, _ = make_sparse_problems()
        with pytest.raises(ArgumentError, match="cdsym"):
            cdsym_epoch_quadratic(probs["lasso"], np.zeros(16))

    def test_pcd_epoch_decreases_a_quadratic(self):
        quad = make_quad(p=6, seed=9)
        x = np.ones(6)
        before = objective_value(quad, x)
        pcd_epoch(quad, x)
        assert objective_value(quad, x) < before

    def test_pcd_epoch_computes_predictions(self):
        # without ``Ax`` a design problem's epoch starts from predict(x)
        prob = make_sparse_problems()[0]["lasso"]
        x0 = np.random.default_rng(15).standard_normal(16)
        x, Ax = x0.copy(), prob.A.matvec(x0)
        pcd_epoch(prob, x, Ax)
        assert pcd_epoch(prob, x0.copy()).tobytes() == x.tobytes()

    @pytest.mark.parametrize("name", ["lasso", "enet", "logreg_l1",
                                      "logreg_l2", "group"])
    def test_pcd_epoch_decreases_objective(self, name):
        probs, _ = make_sparse_problems(seed=11)
        prob = probs[name]
        x = np.zeros(16)
        Ax = prob.A.matvec(x)
        before = objective_value(prob, x, Ax)
        pcd_epoch(prob, x, Ax)
        after = objective_value(prob, x, Ax)
        assert after < before


# ---------------------------------------------------------------------------
# config and trace plumbing
# ---------------------------------------------------------------------------

class TestConfigAndTrace:
    @pytest.mark.parametrize("kwargs", [
        {"K": 0},
        {"max_epochs": -1},
        {"tol": -1e-3},
    ])
    def test_config_validation(self, kwargs):
        with pytest.raises(ArgumentError):
            SolverConfig(**kwargs)

    def test_config_frozen(self):
        cfg = SolverConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.K = 3

    def test_trace_record_coerces(self):
        tr = Trace(solver="demo")
        tr.record(np.int64(0), np.float64(0.5), np.float64(2.0), None)
        tr.record(1, 0.7, 1.5, np.float64(0.25))
        assert tr.epochs == [0, 1]
        assert tr.gaps == [None, 0.25]
        assert all(isinstance(v, float) for v in tr.seconds)

    def test_epochs_to_target(self):
        tr = Trace(solver="demo")
        for e, obj in enumerate([10.0, 4.0, 1.5, 1.0 + 1e-12]):
            tr.record(e, 0.0, obj, None)
        assert epochs_to_target(tr, 1.0, 0.6) == 2
        assert epochs_to_target(tr, 1.0, 1e-9) == 3
        assert epochs_to_target(tr, 1.0, 1e-15) is None


# ---------------------------------------------------------------------------
# shared driver behavior
# ---------------------------------------------------------------------------

class TestDriverBehavior:
    def test_epoch_zero_recorded(self):
        quad = make_quad(p=10, seed=17)
        tr = baseline_pcd(quad, SolverConfig(max_epochs=5, tol=0.0))
        assert tr.epochs[0] == 0
        assert tr.seconds[0] == 0.0
        assert math.isclose(tr.objectives[0],
                            objective_value(quad, np.zeros(10)))
        assert tr.epochs == list(range(6))

    def test_seconds_nondecreasing(self):
        quad = make_quad(p=10, seed=18)
        tr = baseline_pcd(quad, SolverConfig(max_epochs=20, tol=0.0))
        assert all(b >= a for a, b in zip(tr.seconds, tr.seconds[1:]))

    def test_tol_stops_early(self):
        probs, _ = make_sparse_problems(seed=19)
        tr = baseline_pcd(probs["lasso"],
                          SolverConfig(max_epochs=5000, tol=1e-6))
        assert tr.epochs[-1] < 5000
        assert tr.gaps[-1] <= 1e-6

    def test_already_converged_returns_immediately(self):
        probs, _ = make_sparse_problems(seed=20)
        src = probs["lasso"]
        prob = Lasso(src.A, src.y, 10.0 * lambda_max(src))
        tr = baseline_pcd(prob, SolverConfig(max_epochs=100, tol=1e-10))
        assert tr.epochs == [0]
        assert np.all(tr.x == 0.0)

    def test_final_iterate_matches_last_objective(self):
        probs, M = make_sparse_problems(seed=21)
        prob = probs["enet"]
        tr = baseline_pcd(prob, SolverConfig(max_epochs=30, tol=0.0))
        fresh = objective_value(prob, tr.x, M @ tr.x)
        assert math.isclose(fresh, tr.objectives[-1], rel_tol=1e-8)

    def test_extrapolation_events_every_K(self):
        quad = make_quad(p=10, seed=22)
        cfg = SolverConfig(K=4, max_epochs=12, tol=0.0)
        tr = anderson_pcd(quad, cfg)
        assert [e for e, _ in tr.events] == [4, 8, 12]
        assert all(s in {"accepted", "rejected", "singular"}
                   for _, s in tr.events)

    def test_plain_solver_has_no_events(self):
        quad = make_quad(p=10, seed=23)
        tr = baseline_pcd(quad, SolverConfig(max_epochs=12, tol=0.0))
        assert tr.events == []

    def test_singular_attempts_keep_the_base_iterate(self, monkeypatch):
        # every attempt fails: pcd_anderson must be pcd bit for bit, with a
        # predictions refresh (epochs 100, 200) right after an attempt
        prob = make_sparse_problems(seed=25)[0]["lasso"]
        cfg = SolverConfig(K=5, max_epochs=210, tol=0.0)
        plain = baseline_pcd(prob, cfg)
        monkeypatch.setattr(anderson, "extrapolation_coefficients",
                            lambda U: (None, False))
        tr = anderson_pcd(prob, cfg)
        assert tr.events == [(e, "singular") for e in range(5, 211, 5)]
        assert tr.objectives == plain.objectives
        assert tr.x.tobytes() == plain.x.tobytes()

    @pytest.mark.parametrize("name", ["quadratic", "lasso", "enet",
                                      "logreg_l1", "logreg_l2", "group"])
    def test_one_duality_gap_per_recorded_epoch(self, name, monkeypatch):
        # the stopping rule asks for the gap once, whether or not the
        # problem has a dual; every module holding the oracle is counted
        probs = {**make_sparse_problems(seed=26)[0],
                 "quadratic": make_quad(p=16, seed=26)}
        gap, calls = problems.duality_gap, []

        def counting_gap(*args):
            calls.append(1)
            return gap(*args)

        for module in (problems, solvers):
            if getattr(module, "duality_gap", None) is gap:
                monkeypatch.setattr(module, "duality_gap", counting_gap)
        tr = anderson_pcd(probs[name], SolverConfig(max_epochs=30, tol=0.0))
        assert len(tr.epochs) > 10
        assert len(calls) == len(tr.epochs)

    def test_guarded_objectives_monotone(self):
        probs, _ = make_sparse_problems(seed=24)
        tr = anderson_pcd(probs["lasso"],
                          SolverConfig(max_epochs=80, tol=0.0))
        assert_nonincreasing(tr.objectives)


# ---------------------------------------------------------------------------
# coordinate-descent solvers
# ---------------------------------------------------------------------------

class TestCoordinateSolvers:
    @pytest.mark.parametrize("name", ["lasso", "enet", "logreg_l1",
                                      "logreg_l2", "group"])
    def test_pcd_monotone_and_converging(self, name):
        probs, M = make_sparse_problems(seed=27)
        prob = probs[name]
        tr = baseline_pcd(prob, SolverConfig(max_epochs=60, tol=0.0))
        assert_nonincreasing(tr.objectives)
        if tr.gaps[0] is not None:
            assert tr.gaps[-1] < tr.gaps[0]
        else:
            start = stopping_measure(prob, np.zeros(M.shape[1]))
            assert stopping_measure(prob, tr.x, M @ tr.x) < 1e-2 * start

    def test_anderson_beats_plain_pcd(self):
        quad = make_quad(p=60, kappa=1e3, seed=28)
        f_star = quad_fstar(quad)
        cfg = SolverConfig(max_epochs=3000, tol=0.0)
        plain = epochs_to_target(baseline_pcd(quad, cfg), f_star, 1e-8)
        accel = epochs_to_target(anderson_pcd(quad, cfg), f_star, 1e-8)
        assert plain is not None and accel is not None
        assert accel < plain

    def test_prcd_reproducible_per_seed(self):
        probs, _ = make_sparse_problems(seed=29)
        prob = probs["lasso"]
        cfg = SolverConfig(max_epochs=25, tol=0.0, seed=5)
        a = baseline_prcd(prob, cfg)
        b = baseline_prcd(prob, cfg)
        assert a.objectives == b.objectives
        assert np.array_equal(a.x, b.x)
        other = baseline_prcd(prob, SolverConfig(max_epochs=25, tol=0.0,
                                                 seed=6))
        assert a.objectives != other.objectives

    def test_prcd_converges(self):
        probs, _ = make_sparse_problems(seed=30)
        tr = baseline_prcd(probs["lasso"],
                           SolverConfig(max_epochs=4000, tol=1e-8, seed=1))
        assert tr.gaps[-1] <= 1e-8

    def test_cdsym_quadratic_only(self):
        probs, _ = make_sparse_problems(seed=31)
        cfg = SolverConfig(max_epochs=5)
        with pytest.raises(ArgumentError, match="quadratic"):
            baseline_cdsym(probs["lasso"], cfg)
        with pytest.raises(ArgumentError, match="quadratic"):
            SOLVERS["cdsym_anderson"](probs["lasso"], cfg)

    def test_cdsym_converges_and_anderson_helps(self):
        quad = make_quad(p=40, kappa=1e3, seed=32)
        f_star = quad_fstar(quad)
        cfg = SolverConfig(max_epochs=2000, tol=0.0)
        plain = epochs_to_target(baseline_cdsym(quad, cfg), f_star, 1e-8)
        accel = epochs_to_target(SOLVERS["cdsym_anderson"](quad, cfg),
                                 f_star, 1e-8)
        assert plain is not None and accel is not None
        assert accel <= plain


# ---------------------------------------------------------------------------
# full-gradient baselines
# ---------------------------------------------------------------------------

class TestFullGradient:
    def test_power_iteration_matches_dense_eig(self):
        rng = np.random.default_rng(33)
        M = rng.standard_normal((30, 30))
        H = M @ M.T
        top = power_iteration(lambda v: H @ v, 30, tol=1e-13)
        want = float(np.linalg.eigvalsh(H)[-1])
        assert math.isclose(top, want, rel_tol=1e-6)

    def test_power_iteration_edge_cases(self):
        assert power_iteration(lambda v: v, 0) == 0.0
        assert power_iteration(lambda v: 0.0 * v, 7) == 0.0

    @pytest.mark.parametrize("matvec,products", [
        (lambda v: v, 3),
        (lambda v: 0.0 * v, 1),
        (lambda v: np.full(v.size, v.sum()), 3),
    ], ids=["identity", "zero", "rank_one"])
    def test_power_iteration_one_product_per_step(self, matvec, products):
        seen = []

        def counted(v):
            seen.append(v)
            return matvec(v)
        power_iteration(counted, 7)
        assert len(seen) == products

    def test_power_iteration_returns_last_estimate_at_max_iter(self):
        H = np.diag([2.0, 1.0])
        seen = []

        def counted(v):
            seen.append(v)
            return H @ v
        top = power_iteration(counted, 2, tol=0.0, max_iter=3)
        v = seen[-1]
        assert top == float(v @ (H @ v)) < 2.0

    def test_global_lipschitz_values(self):
        probs, M = make_sparse_problems(seed=34)
        top = float(np.linalg.eigvalsh(M.T @ M)[-1])
        n = M.shape[0]
        assert math.isclose(global_lipschitz(probs["lasso"]), top,
                            rel_tol=1e-6)
        assert math.isclose(global_lipschitz(probs["group"]), top,
                            rel_tol=1e-6)
        assert math.isclose(global_lipschitz(probs["enet"]), top / n,
                            rel_tol=1e-6)
        assert math.isclose(global_lipschitz(probs["logreg_l1"]), top / 4,
                            rel_tol=1e-6)
        quad = make_quad(p=10, seed=35)
        want = float(np.linalg.eigvalsh(quad.H)[-1])
        assert math.isclose(global_lipschitz(quad), want, rel_tol=1e-6)

    def test_gd_requires_smooth_objective(self):
        probs, _ = make_sparse_problems(seed=36)
        with pytest.raises(ArgumentError, match="smooth"):
            baseline_gd(probs["lasso"], SolverConfig(max_epochs=5))

    def test_gd_converges_on_quadratic(self):
        quad = make_quad(p=20, kappa=30.0, seed=37)
        tr = baseline_gd(quad, SolverConfig(max_epochs=3000, tol=0.0))
        assert tr.objectives[-1] - quad_fstar(quad) <= 1e-8
        assert_nonincreasing(tr.objectives)

    def test_gd_converges_on_logreg_l2(self):
        probs, M = make_sparse_problems(seed=38)
        prob = probs["logreg_l2"]
        tr = baseline_gd(prob, SolverConfig(max_epochs=4000, tol=1e-8))
        assert stopping_measure(prob, tr.x, M @ tr.x) <= 1e-8

    def test_anderson_gd_beats_gd(self):
        quad = make_quad(p=40, kappa=100.0, seed=39)
        f_star = quad_fstar(quad)
        cfg = SolverConfig(max_epochs=3000, tol=0.0)
        plain = epochs_to_target(baseline_gd(quad, cfg), f_star, 1e-6)
        accel = epochs_to_target(anderson_gd(quad, cfg), f_star, 1e-6)
        assert plain is not None and accel is not None
        assert accel < plain

    @pytest.mark.parametrize("name", ["lasso", "enet", "logreg_l1", "group"])
    def test_pgd_monotone_and_converging(self, name):
        probs, M = make_sparse_problems(seed=40)
        prob = probs[name]
        tr = baseline_pgd(prob, SolverConfig(max_epochs=300, tol=0.0))
        assert_nonincreasing(tr.objectives)
        if tr.gaps[0] is not None:
            assert tr.gaps[-1] < 1e-2 * tr.gaps[0]
        else:
            start = stopping_measure(prob, np.zeros(M.shape[1]))
            assert stopping_measure(prob, tr.x, M @ tr.x) < 1e-2 * start

    def test_fista_reaches_target_before_pgd(self):
        ds, _ = gen_correlated_gaussian(60, 100, 0.6, 3.0, seed=41)
        prob = Lasso(ds.A, ds.y, 0.05 * lambda_max(Lasso(ds.A, ds.y, 1.0)))
        ref = anderson_pcd(prob, SolverConfig(max_epochs=3000, tol=1e-12))
        f_star = ref.objectives[-1]
        cfg = SolverConfig(max_epochs=3000, tol=0.0)
        slow = epochs_to_target(baseline_pgd(prob, cfg), f_star, 1e-6)
        fast = epochs_to_target(baseline_fista(prob, cfg), f_star, 1e-6)
        assert fast is not None
        assert slow is None or fast < slow

    def test_cg_finite_termination(self):
        # exact in dim steps up to rounding; allow a couple extra epochs
        quad = make_quad(p=20, kappa=100.0, seed=42)
        f_star = quad_fstar(quad)
        tr = conjugate_gradient(quad, SolverConfig(max_epochs=40, tol=0.0))
        hit = epochs_to_target(tr, f_star, 1e-9 * (1.0 + abs(f_star)))
        assert hit is not None and hit <= quad.dim + 3

    def test_cg_requires_quadratic(self):
        probs, _ = make_sparse_problems(seed=43)
        with pytest.raises(ArgumentError, match="quadratic"):
            conjugate_gradient(probs["lasso"], SolverConfig(max_epochs=5))


# ---------------------------------------------------------------------------
# every solver on every problem type
# ---------------------------------------------------------------------------

QUADRATIC_ONLY = {"cdsym", "cdsym_anderson", "cg"}
SMOOTH_ONLY = {"gd", "gd_anderson"}
SMOOTH_PROBLEMS = {"quadratic", "logreg_l2"}
NO_GAP_PROBLEMS = {"quadratic", "logreg_l2", "group"}


def make_cross_problems():
    """All six problem types on 16 coordinates; column 5 of A is zero."""
    probs, M = make_sparse_problems(seed=46)
    M[:, 5] = 0.0
    A = CscMatrix.from_dense(M)
    out = {}
    for name, prob in probs.items():
        fields = {f.name: getattr(prob, f.name)
                  for f in dataclasses.fields(prob)}
        out[name] = type(prob)(**{**fields, "A": A})
    out["quadratic"] = make_quad(p=16, seed=46)
    return out


PROBLEM_TYPES = ("quadratic", "lasso", "enet", "logreg_l1", "logreg_l2",
                 "group")
# (rows, columns) of the degenerate designs
DEGENERATE = {"rows0": (0, 16), "cols0": (40, 0)}


def make_degenerate_problem(problem, n, p):
    """``problem`` on an n x p design with no rows or no columns; lam is
    fixed, since lambda_max of such a design is 0."""
    rng = np.random.default_rng(48)
    M = rng.standard_normal((n, p))
    A = CscMatrix.from_dense(M)
    y = rng.standard_normal(n)
    yb = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    build = {
        "quadratic": lambda: Quadratic(M.T @ M + np.eye(p), -M.T @ y),
        "lasso": lambda: Lasso(A, y, 0.1),
        "enet": lambda: ElasticNet(A, y, 0.1, 0.01),
        "logreg_l1": lambda: LogRegL1(A, yb, 0.1),
        "logreg_l2": lambda: LogRegL2(A, yb, 0.1),
        "group": lambda: GroupLasso(A, y, 0.1, groups_from_size(p, 4)),
    }
    return build[problem]()


@pytest.mark.parametrize("problem", list(PROBLEM_TYPES) + [
    f"{name}-{shape}" for shape in DEGENERATE for name in PROBLEM_TYPES])
@pytest.mark.parametrize("solver", sorted(SOLVERS))
def test_solver_problem_cross_product(solver, problem):
    cfg = SolverConfig(algorithm=solver, max_epochs=30, tol=0.0)
    name, _, shape = problem.partition("-")
    if shape:
        # a degenerate design is refused, or solved to a finite trace
        try:
            tr = solve(make_degenerate_problem(name, *DEGENERATE[shape]), cfg)
        except ArgumentError:
            return
        assert np.all(np.isfinite(tr.objectives))
        assert all(g is None or math.isfinite(g) for g in tr.gaps)
        assert np.all(np.isfinite(tr.x))
        return
    prob = make_cross_problems()[problem]
    if solver in QUADRATIC_ONLY and problem != "quadratic":
        with pytest.raises(ArgumentError, match="quadratic"):
            solve(prob, cfg)
        return
    if solver in SMOOTH_ONLY and problem not in SMOOTH_PROBLEMS:
        with pytest.raises(ArgumentError, match="smooth"):
            solve(prob, cfg)
        return
    tr = solve(prob, cfg)
    assert math.isclose(tr.objectives[-1], objective_value(prob, tr.x),
                        rel_tol=1e-10)
    if problem in NO_GAP_PROBLEMS:
        assert all(g is None for g in tr.gaps)
    else:
        assert all(g is not None for g in tr.gaps)
    assert bool(tr.events) == solver.endswith("_anderson")


# ---------------------------------------------------------------------------
# Hessian products on a quadratic
# ---------------------------------------------------------------------------

def hessian_counter(quad):
    """Make every product by H, or by the inverse triangles of the
    Gauss-Seidel passes, add one to the returned counter."""
    count = [0]

    class Counted(np.ndarray):
        def __matmul__(self, other):
            if self.ndim == 2:
                count[0] += 1
            return np.ndarray.__matmul__(self, other).view(np.ndarray)

    for name in ("_lower_inv", "_upper_inv", "H"):
        object.__setattr__(quad, name, getattr(quad, name).view(Counted))
    return count


class TestQuadraticProducts:
    """A quadratic's predictions are ``Hx``; the driver carries them as it
    carries ``Ax``, and every oracle reads them instead of multiplying."""

    @pytest.mark.parametrize("solver", sorted(SOLVERS))
    def test_carried_hx_is_exact(self, solver, monkeypatch):
        quad = make_quad(p=20, seed=47)
        fit = type(quad.datafit)
        evaluated, gradients = [], []
        evaluate, gradient_x = solvers.evaluate, fit.gradient_x

        def recording_evaluate(prob, x, Ax):
            evaluated.append((x.copy(), Ax.copy()))
            return evaluate(prob, x, Ax)

        def recording_gradient_x(self, x, Ax):
            gradients.append((x.copy(), Ax.copy()))
            return gradient_x(self, x, Ax)

        monkeypatch.setattr(solvers, "evaluate", recording_evaluate)
        monkeypatch.setattr(fit, "gradient_x", recording_gradient_x)
        solve(quad, SolverConfig(algorithm=solver, max_epochs=250, tol=0.0))
        assert len(evaluated) == 251
        for x, Ax in evaluated:
            assert np.array_equal(Ax, quad.H @ x)
        # fista steps from its momentum point z, whose Hz it forms as the
        # same combination of two exact products as z itself, so only
        # fista's gradient reads are allowed 1e-12 relative
        for x, Ax in gradients:
            Hx = quad.H @ x
            if solver == "fista":
                assert np.abs(Ax - Hx).max() <= 1e-12 * np.abs(Hx).max()
            else:
                assert np.array_equal(Ax, Hx)

    @pytest.mark.parametrize("solver, per_epoch", [
        ("gd", 1), ("gd_anderson", 1), ("pgd", 1), ("fista", 1),
        ("pcd", 2), ("pcd_anderson", 2), ("cdsym", 4), ("cdsym_anderson", 4),
        ("cg", 2)])
    def test_hessian_products_per_epoch(self, solver, per_epoch,
                                        monkeypatch):
        quad = make_quad(p=20, seed=48)
        count = hessian_counter(quad)
        marks = []
        evaluate = solvers.evaluate

        def counting_evaluate(prob, x, Ax):
            before = count[0]
            out = evaluate(prob, x, Ax)
            marks.append((before, count[0]))
            return out

        monkeypatch.setattr(solvers, "evaluate", counting_evaluate)
        # past about 240 epochs cg's residual underflows to zero, and a
        # step with a zero direction needs no product
        tr = solve(quad, SolverConfig(algorithm=solver, max_epochs=150,
                                      tol=0.0))
        assert len(marks) == 151
        assert all(before == after for before, after in marks)
        # a singular window gives no candidate, hence no product
        attempts = {e for e, status in tr.events if status != "singular"}
        assert bool(attempts) == solver.endswith("_anderson")
        for epoch in range(1, len(marks)):
            want = (per_epoch + (epoch in attempts)
                    + (epoch % solvers.REFRESH_EVERY == 0))
            assert marks[epoch][0] - marks[epoch - 1][1] == want, epoch

    @pytest.mark.parametrize("solver, chosen", [
        ("pcd", 1), ("pcd_anderson", 1), ("cdsym", 2), ("cdsym_anderson", 2),
        ("prcd", 60)])
    def test_pass_chosen_once_per_order(self, solver, chosen, monkeypatch):
        # a cyclic solve chooses each of its passes once; a randomized one
        # draws a new order, and chooses again, every epoch
        quad = make_quad(p=20, seed=49)
        calls = []
        cd_sweep = Quadratic.cd_sweep

        def counting_cd_sweep(self, order):
            calls.append(order)
            return cd_sweep(self, order)

        monkeypatch.setattr(Quadratic, "cd_sweep", counting_cd_sweep)
        solve(quad, SolverConfig(algorithm=solver, max_epochs=60, tol=0.0))
        assert len(calls) == chosen


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

class TestDispatch:
    def test_registry_names(self):
        assert set(SOLVERS) == {"pcd", "pcd_anderson", "prcd", "cdsym",
                                "cdsym_anderson", "gd", "gd_anderson",
                                "pgd", "fista", "cg"}

    def test_solve_routes_to_solver(self):
        probs, _ = make_sparse_problems(seed=44)
        prob = probs["lasso"]
        cfg = SolverConfig(algorithm="pcd", max_epochs=15, tol=0.0)
        via_solve = solve(prob, cfg)
        direct = baseline_pcd(prob, cfg)
        assert via_solve.solver == "pcd"
        assert via_solve.objectives == direct.objectives

    def test_unknown_algorithm_rejected(self):
        quad = make_quad(p=5, seed=45)
        with pytest.raises(ArgumentError, match="unknown algorithm"):
            solve(quad, SolverConfig(algorithm="nope"))
