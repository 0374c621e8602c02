"""Acceptance suite: eleven numbered end-to-end checks with time budgets.

Each test prints one ``criterion NN <name>: PASS/FAIL (time)`` line via
the conftest summary hook.  Budgets are asserted, so a slow machine can
fail a criterion even when the math holds.
"""

import configparser
import functools
import math
import os
import time
from pathlib import Path

import numpy as np

import conftest
from extracd.anderson import offline_anderson
from extracd.cli import main
from extracd.data import CscMatrix, gen_correlated_gaussian
from extracd.fixedpoint import (RateBound, cd_iteration, cdsym_iteration,
                                gd_iteration, numerical_range_boundary,
                                spectral_radius)
from extracd.problems import (ElasticNet, GroupLasso, Lasso, LogRegL1,
                              LogRegL2, Quadratic, datafit_gradient,
                              datafit_value, duality_gap, groups_from_size,
                              lambda_max, objective_value, prox_coordinate,
                              prox_group, ridge_quadratic)
from extracd.solvers import (SolverConfig, anderson_pcd, baseline_pcd,
                             baseline_pgd, cdsym_epoch_quadratic,
                             epochs_to_target, pcd_epoch)


def criterion(number, name, budget_s):
    """Times the body, asserts the budget, reports one summary line."""
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = f"criterion {number:02d} {name}"
            t0 = time.perf_counter()
            ok = False
            try:
                fn(*args, **kwargs)
                ok = True
            finally:
                elapsed = time.perf_counter() - t0
                over = ok and elapsed > budget_s
                verdict = "PASS" if ok and not over else "FAIL"
                note = f", over {budget_s:g}s budget" if over else ""
                conftest.ACCEPTANCE_LINES.append(
                    f"{label}: {verdict} ({elapsed:.2f}s{note})")
            if over:
                raise AssertionError(
                    f"{label} took {elapsed:.2f}s, budget {budget_s:g}s")
        return wrapper
    return deco


def random_spd_quadratic(rng, p, lo=0.1, hi=2.0):
    lams = rng.uniform(lo, hi, size=p)
    Q, _ = np.linalg.qr(rng.standard_normal((p, p)))
    H = (Q * lams) @ Q.T
    return Quadratic(0.5 * (H + H.T), rng.standard_normal(p))


def nonincreasing(values, slack=1e-9):
    arr = np.asarray(values, dtype=float)
    return bool(np.all(arr[1:] <= arr[:-1] + slack * (1.0 + np.abs(arr[:-1]))))


# ---------------------------------------------------------------------------
# 1. offline extrapolation obeys the geometric rate bound
# ---------------------------------------------------------------------------

@criterion(1, "offline-rate-bound", 5.0)
def test_criterion_01_offline_rate_bound():
    slack = 1.0 + 1e-6
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        rho = float(rng.uniform(0.9, 0.999))
        p = int(rng.integers(10, 31))
        lams = np.exp(rng.uniform(math.log(1.0 - rho), 0.0, size=p))
        lams[0] = 1.0 - rho
        lams[-1] = 1.0
        Q, _ = np.linalg.qr(rng.standard_normal((p, p)))
        H = (Q * lams) @ Q.T
        H = 0.5 * (H + H.T)
        x_star = rng.standard_normal(p)
        quad = Quadratic(H, -H @ x_star)
        it = gd_iteration(quad, 1.0)
        bound = RateBound.from_iteration(it, H)
        off = offline_anderson(it.apply, np.zeros(p), k_max=25)
        err0 = bound.b_norm(-x_star)
        assert err0 > 0
        for k in range(1, 26):
            assert off.solved[k - 1]
            err = bound.b_norm(off.extrapolated[k - 1] - x_star)
            assert err <= bound.offline_factor(k) * err0 * slack, \
                f"seed {seed}, k={k}"


# ---------------------------------------------------------------------------
# 2. offline extrapolation is exact once the window spans the spectrum
# ---------------------------------------------------------------------------

@criterion(2, "finite-window-exactness", 1.0)
def test_criterion_02_finite_window_exactness():
    p = 24
    for m in (2, 3, 5, 6, 8):
        rng = np.random.default_rng(200 + m)
        distinct = np.sort(rng.uniform(0.2, 2.0, size=m))
        lams = distinct[rng.integers(0, m, size=p)]
        lams[:m] = distinct
        Q, _ = np.linalg.qr(rng.standard_normal((p, p)))
        H = (Q * lams) @ Q.T
        H = 0.5 * (H + H.T)
        top = float(distinct[-1])
        # the top eigenspace must stay inactive for exactness at k = m
        low = lams < top * (1.0 - 1e-9)
        x_star = Q[:, low] @ rng.standard_normal(int(low.sum()))
        quad = Quadratic(H, -H @ x_star)
        it = gd_iteration(quad, top)
        off = offline_anderson(it.apply, np.zeros(p), k_max=m)
        scale = np.linalg.norm(it.b_vec)
        x_e = off.extrapolated[m - 1]
        res = np.linalg.norm(x_e - it.apply(x_e))
        assert res <= 1e-9 * scale, f"m={m}: residual {res:.3e}"
        # direct-solve oracle and sharpness one window short
        err = np.linalg.norm(x_e - x_star)
        assert err <= 1e-8 * (1.0 + np.linalg.norm(x_star))
        if m >= 2:
            prev = off.extrapolated[m - 2]
            res_prev = np.linalg.norm(prev - it.apply(prev))
            assert res_prev > 1e-6 * scale


# ---------------------------------------------------------------------------
# 3. the double-sweep map is similar to a symmetric contraction
# ---------------------------------------------------------------------------

@criterion(3, "double-sweep-symmetry", 2.0)
def test_criterion_03_double_sweep_symmetry():
    for i in range(20):
        rng = np.random.default_rng(300 + i)
        p = int(rng.integers(5, 21))
        quad = random_spd_quadratic(rng, p)
        it, S = cdsym_iteration(quad)
        assert float(np.abs(S - S.T).max()) <= 1e-10
        r_t = spectral_radius(it.T)
        r_s = spectral_radius(S)
        assert abs(r_t - r_s) <= 1e-10
        assert r_s < 1.0


# ---------------------------------------------------------------------------
# 4. epoch kernels realize exactly the materialized affine maps
# ---------------------------------------------------------------------------

@criterion(4, "epoch-affine-equivalence", 2.0)
def test_criterion_04_epoch_affine_equivalence():
    for i in range(10):
        rng = np.random.default_rng(400 + i)
        p = int(rng.integers(5, 51))
        quad = random_spd_quadratic(rng, p)
        x = rng.standard_normal(p)

        it_cd = cd_iteration(quad)
        got = pcd_epoch(quad, x.copy())
        assert float(np.abs(got - it_cd.apply(x)).max()) <= 1e-12

        it_sym, _ = cdsym_iteration(quad)
        got_sym = cdsym_epoch_quadratic(quad, x.copy())
        assert float(np.abs(got_sym - it_sym.apply(x)).max()) <= 1e-12


# ---------------------------------------------------------------------------
# 5. numerical-range hulls contain the powered spectrum; 1 exits for
#    large powers on well-conditioned instances
# ---------------------------------------------------------------------------

@criterion(5, "numerical-range-soundness", 5.0)
def test_criterion_05_numerical_range_soundness():
    ds, _ = gen_correlated_gaussian(60, 24, 0.5, 3.0, seed=5)
    quad = ridge_quadratic(ds, 1e3)
    it = cd_iteration(quad)
    eigs = np.linalg.eigvals(it.T)
    for q in (1, 8):
        nr = numerical_range_boundary(it.T, q=q, n_angles=360)
        for lam in eigs:
            assert nr.contains(lam ** q, tol=1e-8), f"q={q}, eig {lam:.4f}"
    assert numerical_range_boundary(it.T, q=1, n_angles=360).contains_one

    easy = ridge_quadratic(ds, 10.0)
    nr_far = numerical_range_boundary(cd_iteration(easy).T, q=512,
                                      n_angles=360)
    assert not nr_far.contains_one


# ---------------------------------------------------------------------------
# 6. guarded extrapolated coordinate descent never increases the
#    objective and converges on sparse problems
# ---------------------------------------------------------------------------

@criterion(6, "guarded-monotonicity", 10.0)
def test_criterion_06_guarded_monotonicity():
    ds, _ = gen_correlated_gaussian(100, 200, 0.5, 3.0, seed=7)
    A, y = ds.A, ds.y
    yb = np.where(y > np.median(y), 1.0, -1.0)
    instances = []
    lmax = lambda_max(Lasso(A, y, 1.0))
    for frac in (0.1, 0.01):
        instances.append(Lasso(A, y, frac * lmax))
    lmax = lambda_max(ElasticNet(A, y, 1.0, 0.0))
    for frac in (0.1, 0.01):
        lam = frac * lmax
        instances.append(ElasticNet(A, y, lam, 0.1 * lam))
    lmax = lambda_max(LogRegL1(A, yb, 1.0))
    for frac in (0.1, 0.01):
        instances.append(LogRegL1(A, yb, frac * lmax))

    for prob in instances:
        tr = anderson_pcd(prob, SolverConfig(max_epochs=8000, tol=1e-9))
        label = f"{type(prob).__name__} lam={prob.lam:.4g}"
        assert tr.events, label
        obj = tr.objectives
        for epoch, _ in tr.events:
            allowed = obj[epoch - 1] + 1e-10 * (1.0 + abs(obj[epoch - 1]))
            assert obj[epoch] <= allowed, f"{label}, epoch {epoch}"
        assert nonincreasing(obj), label
        assert tr.gaps[-1] <= 1e-8, f"{label}: gap {tr.gaps[-1]:.3e}"


# ---------------------------------------------------------------------------
# 7. extrapolation at least halves the epochs to 1e-10 suboptimality;
#    plain coordinate descent beats proximal gradient descent
# ---------------------------------------------------------------------------

@criterion(7, "extrapolation-speedup", 30.0)
def test_criterion_07_extrapolation_speedup():
    budget = 20000
    target = 1e-10

    def race(prob, f_star):
        cfgs = {
            "pcd": SolverConfig(max_epochs=budget, tol=1e-11),
            "pcd_anderson": SolverConfig(max_epochs=budget, tol=1e-11),
            "pgd": SolverConfig(max_epochs=budget, tol=1e-11),
        }
        epochs = {}
        epochs["pcd"] = epochs_to_target(
            baseline_pcd(prob, cfgs["pcd"]), f_star, target)
        epochs["accel"] = epochs_to_target(
            anderson_pcd(prob, cfgs["pcd_anderson"]), f_star, target)
        epochs["pgd"] = epochs_to_target(
            baseline_pgd(prob, cfgs["pgd"]), f_star, target)
        assert epochs["pcd"] is not None and epochs["accel"] is not None
        assert epochs["accel"] * 2 <= epochs["pcd"], epochs
        # the pgd budget exceeds the pcd hit, so None means slower
        assert epochs["pgd"] is None or epochs["pcd"] < epochs["pgd"], epochs
        return epochs

    rng = np.random.default_rng(11)
    lams = np.logspace(-4, 0, 200)
    Q, _ = np.linalg.qr(rng.standard_normal((200, 200)))
    H = (Q * lams) @ Q.T
    quad = Quadratic(0.5 * (H + H.T), rng.standard_normal(200))
    race(quad, objective_value(quad, quad.solve()))

    ds, _ = gen_correlated_gaussian(100, 200, 0.5, 3.0, seed=7)
    lasso = Lasso(ds.A, ds.y, lambda_max(Lasso(ds.A, ds.y, 1.0)) / 100)
    ref = anderson_pcd(lasso, SolverConfig(max_epochs=budget, tol=1e-13))
    race(lasso, min(ref.objectives))


# ---------------------------------------------------------------------------
# 8. the penalty ceiling makes zero a fixed point, and only the ceiling
# ---------------------------------------------------------------------------

@criterion(8, "penalty-ceiling-certificates", 1.0)
def test_criterion_08_penalty_ceiling_certificates():
    rng = np.random.default_rng(800)
    M = rng.standard_normal((50, 30))
    A = CscMatrix.from_dense(M)
    y = rng.standard_normal(50)
    yb = np.where(rng.random(50) > 0.5, 1.0, -1.0)
    for build in (lambda lam: Lasso(A, y, lam),
                  lambda lam: LogRegL1(A, yb, lam)):
        ceiling = lambda_max(build(1.0))
        for lam, stays_zero in ((ceiling, True), (0.99 * ceiling, False)):
            prob = build(lam)
            x = np.zeros(30)
            pcd_epoch(prob, x)
            moved = float(np.abs(x).max())
            if stays_zero:
                assert moved <= 1e-12, f"{type(prob).__name__}: {moved:.3e}"
            else:
                assert moved > 1e-12, type(prob).__name__


# ---------------------------------------------------------------------------
# 9. gradients match finite differences, proxes match 1-D minimization
# ---------------------------------------------------------------------------

def _prox_oracle_1d(v, pen_grad_left, pen_grad_right, lo, hi, iters=200):
    def slope_sign(u):
        if u - v + pen_grad_right(u) < 0:
            return -1
        if u - v + pen_grad_left(u) > 0:
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


@criterion(9, "gradient-prox-oracles", 5.0)
def test_criterion_09_gradient_prox_oracles():
    rng = np.random.default_rng(900)
    n, p = 25, 12
    M = rng.standard_normal((n, p))
    A = CscMatrix.from_dense(M)
    y = rng.standard_normal(n)
    yb = np.where(rng.random(n) > 0.5, 1.0, -1.0)
    probs = {
        "lasso": Lasso(A, y, 0.7),
        "enet": ElasticNet(A, y, 0.4, 0.2),
        "logreg_l1": LogRegL1(A, yb, 0.3),
        "logreg_l2": LogRegL2(A, yb, 0.5),
        "group": GroupLasso(A, y, 0.6, groups_from_size(p, 4)),
    }
    names = list(probs)

    # gradients: 100 cases, central differences in prediction space
    h = 1e-6
    for case in range(100):
        prob = probs[names[case % len(names)]]
        u = M @ rng.standard_normal(p)
        g = datafit_gradient(prob, u)
        fd = np.empty(n)
        for i in range(n):
            up, dn = u.copy(), u.copy()
            up[i] += h
            dn[i] -= h
            fd[i] = (datafit_value(prob, None, Ax=up)
                     - datafit_value(prob, None, Ax=dn)) / (2 * h)
        rel = np.linalg.norm(fd - g) / max(1.0, np.linalg.norm(g))
        assert rel < 1e-5, f"case {case}: rel {rel:.2e}"

    # coordinate proxes: 100 cases against subgradient bisection
    scalar = ("lasso", "enet", "logreg_l1", "logreg_l2")
    for case in range(100):
        prob = probs[scalar[case % len(scalar)]]
        v = float(rng.uniform(-4, 4))
        step = float(rng.uniform(0.01, 3.0))
        got = prox_coordinate(prob, 0, v, step)
        if isinstance(prob, (Lasso, LogRegL1)):
            pl = lambda u: step * (np.sign(u) if u else -1.0)
            ph = lambda u: step * (np.sign(u) if u else 1.0)
        elif isinstance(prob, ElasticNet):
            rho_eff = step * prob.rho / prob.lam
            pl = lambda u: step * (np.sign(u) if u else -1.0) + rho_eff * u
            ph = lambda u: step * (np.sign(u) if u else 1.0) + rho_eff * u
        else:
            pl = ph = lambda u: step * u
        ref = _prox_oracle_1d(v, pl, ph, -10.0, 10.0)
        assert abs(got - ref) < 1e-8, f"case {case}"

    # group prox: the norm obeys the same 1-D bisection oracle
    for case in range(100):
        v = rng.standard_normal(4) * rng.uniform(0.1, 3.0)
        thr = float(rng.uniform(0.01, 2.0))
        got = prox_group(v, thr)
        norm_ref = _prox_oracle_1d(float(np.linalg.norm(v)),
                                   lambda u: thr, lambda u: thr, 0.0, 10.0)
        ref = (v / np.linalg.norm(v)) * norm_ref if norm_ref > 0 else 0 * v
        assert float(np.abs(got - ref).max()) < 1e-8, f"case {case}"


# ---------------------------------------------------------------------------
# 10. the duality gap dominates the true suboptimality
# ---------------------------------------------------------------------------

@criterion(10, "gap-sandwich", 5.0)
def test_criterion_10_gap_sandwich():
    rng = np.random.default_rng(1000)
    n, p = 40, 16
    M = rng.standard_normal((n, p))
    A = CscMatrix.from_dense(M)
    y = rng.standard_normal(n)
    yb = np.where(rng.random(n) > 0.5, 1.0, -1.0)
    lam_l = 0.15 * lambda_max(Lasso(A, y, 1.0))
    lam_e = 0.15 * lambda_max(ElasticNet(A, y, 1.0, 0.0))
    lam_g = 0.15 * lambda_max(LogRegL1(A, yb, 1.0))
    instances = [Lasso(A, y, lam_l), ElasticNet(A, y, lam_e, 0.3 * lam_e),
                 LogRegL1(A, yb, lam_g)]
    for prob in instances:
        ref = anderson_pcd(prob, SolverConfig(max_epochs=10000, tol=1e-12))
        f_star = min(ref.objectives)
        for case in range(20):
            x = rng.standard_normal(p) * rng.uniform(0.05, 1.5)
            report = duality_gap(prob, x)
            subopt = objective_value(prob, x) - f_star
            label = f"{type(prob).__name__} case {case}"
            assert subopt >= -1e-10, label
            assert report.gap >= subopt - 1e-9 * (1.0 + abs(subopt)), label


# ---------------------------------------------------------------------------
# 11. the benchmark CLI produces the full deterministic artifact set
# ---------------------------------------------------------------------------

def _write_bench_config(path, out_dir):
    parser = configparser.ConfigParser()
    parser.read_dict({
        "dataset": {"source": "sample"},
        "problem": {"kind": "lasso", "lambda_fracs": "0.1 0.01"},
        "solvers": {"names": "pcd, pcd_anderson, fista"},
        "run": {"max_epochs": "500", "tol": "1e-10", "seed": "0",
                "ref_budget_factor": "10"},
        "output": {"dir": str(out_dir)},
    })
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)


def _csv_rows_no_seconds(path):
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    body = [line.split(",") for line in lines[1:]]
    return lines[0], [(r[0], r[2], r[3], r[4]) for r in body]


@criterion(11, "cli-end-to-end", 20.0)
def test_criterion_11_cli_end_to_end(tmp_path):
    tags = ("lasso_lf0.1", "lasso_lf0.01")
    solvers = ("pcd", "pcd_anderson", "fista")
    outs = []
    for run in ("a", "b"):
        out = tmp_path / run
        cfg = tmp_path / f"{run}.ini"
        _write_bench_config(cfg, out)
        assert main(["bench", "--config", str(cfg)]) == 0
        for tag in tags:
            assert (out / f"{tag}.svg").exists()
            for solver in solvers:
                assert (out / f"{tag}_{solver}.csv").exists()
        outs.append(out)

    for tag in tags:
        # guarded traces are monotone
        header, rows = _csv_rows_no_seconds(
            outs[0] / f"{tag}_pcd_anderson.csv")
        assert header == "epoch,seconds,objective,subopt,gap"
        assert nonincreasing([float(r[1]) for r in rows])
        # byte-identical reruns modulo the seconds column
        for solver in solvers:
            name = f"{tag}_{solver}.csv"
            assert (_csv_rows_no_seconds(outs[0] / name)
                    == _csv_rows_no_seconds(outs[1] / name)), name
