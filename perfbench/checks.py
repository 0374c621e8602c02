"""Correctness checks that do not use the code under test.

Every check recomputes what it needs with plain numpy from the benchmark's
own inputs.  A `Check` turns an operation's outcome into evidence
(``collect``), accepts or rejects the evidence (``verify`` returns ``None``
or a message) and can spoil accepted evidence (``perturb``); the benchmark
runs every check once on spoilt evidence to show that it is not vacuous.
"""

import dataclasses
import glob
import os
import re

import numpy as np


def _finite(a):
    return bool(np.all(np.isfinite(np.asarray(a, dtype=np.float64))))


def _bump(x, scale):
    # Move the largest entry of a copy by ``scale`` times its size.
    x = np.array(x, dtype=np.float64, copy=True)
    j = int(np.argmax(np.abs(x)))
    x[j] += scale * max(1.0, abs(x[j]))
    return x


class Check:
    name = "check"

    def collect(self, outcome):
        return outcome

    def verify(self, evidence):
        raise NotImplementedError

    def perturb(self, evidence):
        raise NotImplementedError


# ---------------------------------------------------------------------------
# lasso
# ---------------------------------------------------------------------------

def lasso_gap(A, y, lam, x):
    """Duality gap of ``0.5||y - Ax||^2 + lam||x||_1`` with a rescaled
    residual as the dual point."""
    r = y - A @ x
    primal = 0.5 * (r @ r) + lam * np.abs(x).sum()
    theta = r / max(lam, float(np.abs(A.T @ r).max()))
    resid = y - lam * theta
    dual = 0.5 * (y @ y) - 0.5 * (resid @ resid)
    return primal - dual, primal


class LassoSolve(Check):
    """The solve converged and its ``x`` has a certified gap."""

    def __init__(self, name, A_dense, y, lam, tol):
        self.name, self.A, self.y, self.lam, self.tol = (
            name, A_dense, y, lam, tol)

    def verify(self, trace):
        if not _finite(trace.x):
            return f"{self.name}: non-finite x"
        if trace.gaps[-1] is None or not trace.gaps[-1] <= self.tol:
            return (f"{self.name}: stopped at epoch {trace.epochs[-1]} with "
                    f"gap {trace.gaps[-1]}")
        gap, primal = lasso_gap(self.A, self.y, self.lam, trace.x)
        # the gap is a difference of two values of size |primal|
        if not gap <= self.tol + 1e-13 * abs(primal):
            return f"{self.name}: recomputed gap {gap:.3e} > {self.tol:g}"
        return None

    def perturb(self, trace):
        return dataclasses.replace(trace, x=_bump(trace.x, 1e-4))


# ---------------------------------------------------------------------------
# quadratic
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class QuadReference:
    """Exact answers for ``0.5 x'Hx + b'x`` from dense numpy."""

    H: np.ndarray
    b: np.ndarray
    x_star: np.ndarray
    T_cd: np.ndarray
    b_cd: np.ndarray
    T_sym: np.ndarray
    b_sym: np.ndarray
    rho_cd: float
    rho_sym: float
    kappa: float

    @classmethod
    def build(cls, H, b, kappa):
        # Cyclic coordinate descent is Gauss-Seidel: with H = L + D + U, a
        # forward sweep solves (D + L) x' = -U x - b and a backward sweep
        # (D + U) x' = -L x - b.
        low = np.tril(H)
        up = np.triu(H)
        T_f = -np.linalg.solve(low, np.triu(H, 1))
        b_f = -np.linalg.solve(low, b)
        T_b = -np.linalg.solve(up, np.tril(H, -1))
        b_b = -np.linalg.solve(up, b)
        return cls(H=H, b=b, x_star=np.linalg.solve(H, -b), T_cd=T_f,
                   b_cd=b_f, T_sym=T_b @ T_f, b_sym=T_b @ b_f + b_b,
                   rho_cd=float(np.abs(np.linalg.eigvals(T_f)).max()),
                   rho_sym=float(np.abs(np.linalg.eigvals(T_b @ T_f)).max()),
                   kappa=float(kappa))


class QuadSolve(Check):
    """The solve reached the gradient tolerance and the optimum."""

    def __init__(self, name, ref, tol):
        self.name, self.ref, self.tol = name, ref, tol

    def verify(self, trace):
        x = trace.x
        if not _finite(x):
            return f"{self.name}: non-finite x"
        grad = float(np.abs(self.ref.H @ x + self.ref.b).max())
        if not grad <= 2.0 * self.tol:
            return (f"{self.name}: stopped at epoch {trace.epochs[-1]} with "
                    f"gradient {grad:.3e}")
        # f(x) - f(x*) = 0.5 e'He exactly, without cancellation
        e = x - self.ref.x_star
        subopt = 0.5 * float(e @ (self.ref.H @ e))
        if not subopt <= 1e-12:
            return f"{self.name}: objective {subopt:.3e} above np.linalg.solve"
        return None

    def perturb(self, trace):
        return dataclasses.replace(trace, x=_bump(trace.x, 1e-4))


def _max_dev(a, b):
    return float(np.abs(np.asarray(a) - np.asarray(b)).max())


class PassMatrix(Check):
    """A materialized pass map equals Gauss-Seidel and fixes ``x*``."""

    def __init__(self, name, ref, symmetric):
        self.name, self.ref, self.symmetric = name, ref, symmetric

    def collect(self, outcome):
        return outcome[0] if self.symmetric else outcome

    def verify(self, it):
        ref = self.ref
        T, b = (ref.T_sym, ref.b_sym) if self.symmetric else (ref.T_cd,
                                                               ref.b_cd)
        if not (_finite(it.T) and _finite(it.b_vec)):
            return f"{self.name}: non-finite pass matrix"
        if _max_dev(it.T, T) > 1e-9 * max(1.0, float(np.abs(T).max())):
            return f"{self.name}: T differs from Gauss-Seidel"
        x = ref.x_star
        fixed = _max_dev(it.T @ x + it.b_vec, x)
        if fixed > 1e-8 * max(1.0, float(np.abs(x).max())):
            return f"{self.name}: T x* + b - x* = {fixed:.3e}"
        return None

    def perturb(self, it):
        return dataclasses.replace(it, b_vec=_bump(it.b_vec, 1e-4))


class RateBoundCheck(Check):
    """Rate bound built from the exact double-sweep spectral radius."""

    name = "rate_bound"

    def __init__(self, ref):
        self.ref = ref

    def verify(self, rb):
        ref = self.ref
        if abs(rb.rho - ref.rho_sym) > 1e-9:
            return f"rate_bound: rho {rb.rho!r} != {ref.rho_sym!r}"
        root = np.sqrt(1.0 - ref.rho_sym)
        if abs(rb.zeta - (1.0 - root) / (1.0 + root)) > 1e-9:
            return "rate_bound: zeta does not follow from rho"
        if abs(rb.kappa_H - ref.kappa) > 1e-6 * ref.kappa:
            return f"rate_bound: kappa_H {rb.kappa_H:g} != {ref.kappa:g}"
        return None

    def perturb(self, rb):
        return dataclasses.replace(rb, rho=rb.rho * (1.0 - 1e-6))


class RangeCheck(Check):
    """Sampled numerical range of ``T^q`` is consistent and not too small.

    The largest support value lies between ``rho(T)^q cos(pi / n)`` (the
    numerical radius bounds the spectral radius, and the angle grid loses at
    most that factor) and ``||T^q||_2``.
    """

    def __init__(self, name, ref, q):
        self.name, self.ref, self.q = name, ref, q
        M = np.linalg.matrix_power(ref.T_cd, q)
        self.norm = float(np.linalg.norm(M, 2))
        self.radius = ref.rho_cd ** q

    def verify(self, nr):
        if not (_finite(nr.points.real) and _finite(nr.points.imag)
                and _finite(nr.support)):
            return f"{self.name}: non-finite boundary"
        scale = max(1.0, self.norm)
        on_edge = np.real(np.exp(1j * nr.angles) * nr.points)
        if _max_dev(on_edge, nr.support) > 1e-9 * scale:
            return f"{self.name}: points are off their support lines"
        top = float(nr.support.max())
        low = self.radius * np.cos(np.pi / nr.angles.size) - 1e-9 * scale
        if not low <= top <= self.norm + 1e-9 * scale:
            return f"{self.name}: numerical radius {top:.6g} out of bounds"
        return None

    def perturb(self, nr):
        return dataclasses.replace(nr, support=nr.support * (1.0 + 1e-6)
                                   + 1e-6)


# ---------------------------------------------------------------------------
# l1 logistic regression through the CLI
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class CooProblem:
    """``sum log(1 + exp(-y Ax)) + lam ||x||_1`` with ``A`` in COO form."""

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    y: np.ndarray
    n: int
    p: int
    lam_frac: float

    def matvec(self, x):
        return np.bincount(self.rows, weights=self.vals * x[self.cols],
                           minlength=self.n)

    def rmatvec(self, v):
        return np.bincount(self.cols, weights=self.vals * v[self.rows],
                           minlength=self.p)

    @property
    def lam(self):
        return self.lam_frac * float(np.abs(self.rmatvec(self.y)).max()) / 2

    def objective(self, x):
        return float(np.logaddexp(0.0, -self.y * self.matvec(x)).sum()
                     + self.lam * np.abs(x).sum())

    def gap(self, x):
        lam = self.lam
        t = self.y * self.matvec(x)
        theta = -self.y * 0.5 * (1.0 - np.tanh(0.5 * t))
        theta *= min(1.0, lam / float(np.abs(self.rmatvec(theta)).max()))
        s = np.clip(-theta * self.y, 0.0, 1.0)
        ent = sum(np.where(u > 0, u * np.log(np.where(u > 0, u, 1.0)), 0.0)
                  for u in (s, 1.0 - s))
        return self.objective(x) + float(ent.sum())


@dataclasses.dataclass(frozen=True)
class CliResult:
    code: int
    stdout: str
    stderr: str
    out_dir: str


_REF_LINE = re.compile(r"f_star=(\S+) epochs=\d+ (verified|UNVERIFIED) "
                       r"cache=(\w+)\.npz")


def _reference(out_dir):
    paths = glob.glob(os.path.join(out_dir, "refs", "*.npz"))
    if len(paths) != 1:
        raise ValueError(f"expected one cached reference, found {len(paths)}")
    with np.load(paths[0], allow_pickle=False) as blob:
        return os.path.basename(paths[0])[:-4], blob["x_star"].copy()


class GridReference(Check):
    """``extracd ref`` exits 0 and prints an optimum that a recomputation
    confirms.

    The printed ``verified``/``UNVERIFIED`` flag is not itself required:
    the library recomputes the gap with a fresh ``Ax`` against the same
    absolute 1e-12 that stopped the solver, so at f* near 500 the flag
    flips on the last few ulps.  A ``verified`` flag must still be backed by
    the recomputed gap; the flag's rate is the per-layer metric
    ``bench.reference_verified_frac``.
    """

    name = "cli_ref"

    def __init__(self, prob):
        self.prob = prob

    def collect(self, res):
        fp, x_star = _reference(res.out_dir)
        return {"code": res.code, "stdout": res.stdout, "fingerprint": fp,
                "x_star": x_star}

    def verify(self, ev):
        if ev["code"] != 0:
            return f"cli_ref: exit code {ev['code']}"
        lines = [m for m in map(_REF_LINE.search, ev["stdout"].splitlines())
                 if m]
        if len(lines) != 1:
            return "cli_ref: expected one reference line"
        f_printed, state, fp = lines[0].groups()
        if fp != ev["fingerprint"] or not _finite(ev["x_star"]):
            return "cli_ref: cache file does not match the printed line"
        f_star = self.prob.objective(ev["x_star"])
        if abs(float(f_printed) - f_star) > 1e-10 * max(1.0, abs(f_star)):
            return f"cli_ref: printed f_star {f_printed} != {f_star!r}"
        gap = self.prob.gap(ev["x_star"])
        # the library's own test is gap <= 1e-12; allow for summation order
        limit = 1e-12 + 1e-14 * abs(f_star) if state == "verified" else 1e-9
        if not gap <= limit:
            return f"cli_ref: {state} reference has recomputed gap {gap:.3e}"
        return None

    def perturb(self, ev):
        return dict(ev, x_star=_bump(ev["x_star"], 1e-4))


class GridBench(Check):
    """``extracd bench`` exits 0, writes every CSV and SVG, and no job's
    objective falls below the reference optimum."""

    name = "cli_bench"

    def __init__(self, prob, tags, solvers, tol):
        self.prob, self.tags, self.solvers, self.tol = (prob, tags, solvers,
                                                       tol)

    def collect(self, res):
        _, x_star = _reference(res.out_dir)
        curves = {}
        for tag in self.tags:
            for solver in self.solvers:
                path = os.path.join(res.out_dir, f"{tag}_{solver}.csv")
                if os.path.exists(path):
                    data = np.loadtxt(path, delimiter=",", skiprows=1,
                                      usecols=(0, 2), ndmin=2)
                    curves[(tag, solver)] = data[:, 1]
        svgs = [os.path.exists(os.path.join(res.out_dir, f"{tag}.svg"))
                for tag in self.tags]
        return {"code": res.code, "stderr": res.stderr, "curves": curves,
                "svgs": svgs, "f_star": self.prob.objective(x_star)}

    def verify(self, ev):
        if ev["code"] != 0:
            return f"cli_bench: exit code {ev['code']}: {ev['stderr'][:200]}"
        if len(ev["curves"]) != len(self.tags) * len(self.solvers):
            return "cli_bench: missing CSV output"
        if not all(ev["svgs"]):
            return "cli_bench: missing SVG output"
        floor = ev["f_star"] - self.tol * max(1.0, abs(ev["f_star"]))
        for key, obj in ev["curves"].items():
            if not _finite(obj):
                return f"cli_bench: non-finite objective in {key}"
            if obj.min() < floor:
                return (f"cli_bench: {key} objective {obj.min()!r} below "
                        f"f* {ev['f_star']!r}")
        return None

    def perturb(self, ev):
        curves = dict(ev["curves"])
        key = next(iter(curves))
        curves[key] = curves[key].copy()
        curves[key][-1] = ev["f_star"] - 1e-6 * max(1.0, abs(ev["f_star"]))
        return dict(ev, curves=curves)
