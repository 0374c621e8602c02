"""Solver drivers: (proximal) coordinate descent with online Anderson
extrapolation, plus first-order and Krylov baselines.

All solvers start from ``x = 0``, record a trace row per epoch (epoch 0
is the starting point) and stop once the convergence measure (duality
gap when available, stationarity violation otherwise) drops below
``cfg.tol`` or the epoch budget runs out.  Wall-clock accounting uses a
monotonic clock and covers solver work only; objective/gap evaluation
for the trace is not timed.  The extrapolation guard *is* timed since
it is part of the algorithm.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .anderson import online
from .errors import ArgumentError, check_integer
from .problems import Quadratic, evaluate, objective_value

__all__ = [
    "SolverConfig",
    "Trace",
    "cdsym_epoch_quadratic",
    "pcd_epoch",
    "anderson_pcd",
    "anderson_gd",
    "baseline_gd",
    "baseline_pgd",
    "baseline_fista",
    "baseline_prcd",
    "conjugate_gradient",
    "global_lipschitz",
    "power_iteration",
    "solve",
    "epochs_to_target",
    "SOLVERS",
]


@dataclass(frozen=True)
class SolverConfig:
    """Knobs shared by every solver; unused fields are ignored."""

    algorithm: str = "pcd_anderson"
    K: int = 5
    max_epochs: int = 1000
    tol: float = 1e-10
    seed: int = 0

    def __post_init__(self):
        for name, low in (("K", 1), ("max_epochs", 0), ("seed", 0)):
            check_integer(getattr(self, name), name, low)
        if not (np.isfinite(self.tol) and self.tol >= 0):
            raise ArgumentError("tol must be finite and nonnegative")


@dataclass
class Trace:
    """Per-epoch records plus the final iterate and extrapolation events."""

    solver: str
    epochs: list = field(default_factory=list)
    seconds: list = field(default_factory=list)
    objectives: list = field(default_factory=list)
    gaps: list = field(default_factory=list)
    events: list = field(default_factory=list)
    x: np.ndarray = None

    def record(self, epoch, seconds, objective, gap):
        self.epochs.append(int(epoch))
        self.seconds.append(float(seconds))
        self.objectives.append(float(objective))
        self.gaps.append(None if gap is None else float(gap))


def epochs_to_target(trace, f_star, tol):
    """First recorded epoch with objective within ``tol`` of ``f_star``."""
    for epoch, obj in zip(trace.epochs, trace.objectives):
        if obj - f_star <= tol:
            return epoch
    return None


# coordinate epochs update the predictions incrementally, so the driver
# recomputes them from ``x`` every ``REFRESH_EVERY`` epochs
REFRESH_EVERY = 100


# ---------------------------------------------------------------------------
# epochs
# ---------------------------------------------------------------------------

def cdsym_epoch_quadratic(quad, x, Hx=None):
    """One in-place double-sweep epoch (coordinates 1..p then p..1), the
    step `cdsym` runs; ``Hx`` as ``Ax`` in `pcd_epoch`."""
    _cdsym_step(quad)(x, quad.predict(x) if Hx is None else Hx)
    return x


def _cd_step(prob, order=None, rng=None):
    """``step(x, Ax)``: one in-place proximal coordinate epoch over the
    coordinates (blocks for group penalties), cyclic unless an ``order``
    is given or ``rng`` draws the picks uniformly with replacement.  The
    pass is bound here to a fixed order, and in each step to a drawn one."""
    datafit, penalty = prob.datafit, prob.penalty
    lip = datafit.coordinate_lipschitz(penalty)
    bind = penalty.epoch(datafit, lip)
    n = lip.size
    if rng is None:
        epoch = bind(np.arange(n, dtype=np.int64) if order is None else order)

    def step(x, Ax):
        run = epoch if rng is None else bind(
            rng.integers(0, n, size=n, dtype=np.int64))
        run(x, Ax)
        return x, Ax
    return step


def pcd_epoch(prob, x, Ax=None, order=None):
    """One in-place proximal coordinate-descent epoch on any problem, the
    step `pcd` runs, cyclic unless an ``order`` is given.

    ``Ax`` holds the predictions ``prob.datafit.predict(x)`` (``Hx`` for a
    quadratic): given, it must equal them, and the epoch updates it in
    place to those of the new ``x``; else the epoch computes them first.
    """
    _cd_step(prob, order)(x, prob.datafit.predict(x) if Ax is None else Ax)
    return x


# ---------------------------------------------------------------------------
# shared driver
# ---------------------------------------------------------------------------

def _guarded(prob, cfg, step):
    """``step`` under `anderson.online` every ``cfg.K`` epochs, with a
    guard that compares full objectives and vetoes any increase."""
    def accept(z, x, Ax):
        Az = prob.datafit.predict(z)
        worse = objective_value(prob, z, Az) > objective_value(prob, x, Ax)
        return None if worse else (z, Az)
    return online(step, cfg.K, accept)


def _drive(prob, cfg, solver_name, step):
    """Run ``step(x, Ax) -> (x, Ax)`` from ``x = 0``, one call per epoch,
    and recompute the predictions ``Ax`` (``Hx`` for a quadratic) every
    ``REFRESH_EVERY`` epochs.  The trace's events are ``step.events`` (see
    `anderson.online`), if any."""
    datafit = prob.datafit
    x = np.zeros(datafit.n_coef)
    Ax = datafit.predict(x)
    trace = Trace(solver=solver_name, events=getattr(step, "events", []))
    objective, gap, measure = evaluate(prob, x, Ax)
    trace.record(0, 0.0, objective, gap)
    elapsed = 0.0
    for epoch in range(1, cfg.max_epochs + 1):
        if measure <= cfg.tol:
            break
        t0 = time.perf_counter()
        x, Ax = step(x, Ax)
        if epoch % REFRESH_EVERY == 0:
            Ax = datafit.predict(x)
        elapsed += time.perf_counter() - t0

        objective, gap, measure = evaluate(prob, x, Ax)
        trace.record(epoch, elapsed, objective, gap)
    trace.x = x
    return trace


# ---------------------------------------------------------------------------
# coordinate-descent solvers
# ---------------------------------------------------------------------------

def anderson_pcd(prob, cfg):
    """Proximal coordinate descent with guarded online extrapolation.

    Every ``cfg.K`` epochs the extrapolation of the last ``K+1`` epoch
    iterates replaces the iterate unless it increases the objective, and
    the predictions are then recomputed exactly."""
    return _drive(prob, cfg, "pcd_anderson",
                  _guarded(prob, cfg, _cd_step(prob)))


def baseline_pcd(prob, cfg):
    """Plain cyclic proximal coordinate descent."""
    return _drive(prob, cfg, "pcd", _cd_step(prob))


def baseline_prcd(prob, cfg):
    """Proximal coordinate descent with uniformly random coordinate picks.

    One epoch draws ``p`` indices with replacement; runs are
    bit-reproducible for a fixed ``cfg.seed``.
    """
    rng = np.random.default_rng(cfg.seed)
    return _drive(prob, cfg, "prcd", _cd_step(prob, rng=rng))


def _require_quadratic(prob, who):
    if not isinstance(prob, Quadratic):
        raise ArgumentError(f"{who} supports quadratic problems only")


def _cdsym_step(prob, who="cdsym"):
    """``step(x, Hx)``: one in-place double sweep, with both passes chosen
    here once."""
    _require_quadratic(prob, who)
    fwd = np.arange(prob.dim, dtype=np.int64)
    forward, backward = prob.cd_sweep(fwd), prob.cd_sweep(fwd[::-1].copy())

    def step(x, Ax):
        forward(x, Ax)
        backward(x, Ax)
        return x, Ax
    return step


def baseline_cdsym(prob, cfg):
    """Double-sweep coordinate descent (one epoch = both sweeps)."""
    return _drive(prob, cfg, "cdsym", _cdsym_step(prob))


def anderson_cdsym(prob, cfg):
    """Double-sweep coordinate descent with guarded online extrapolation."""
    return _drive(prob, cfg, "cdsym_anderson",
                  _guarded(prob, cfg, _cdsym_step(prob, "cdsym_anderson")))


# ---------------------------------------------------------------------------
# full-gradient baselines
# ---------------------------------------------------------------------------

# power iteration stops once an estimate moves by at most _POWER_TOL of
# itself (or absolutely below 1), else after _POWER_STEPS products; it
# starts from a standard normal vector drawn with seed _POWER_SEED
_POWER_TOL, _POWER_STEPS, _POWER_SEED = 1e-10, 1000, 0


def power_iteration(matvec, dim):
    """Largest eigenvalue of a symmetric PSD operator by power iteration."""
    if dim == 0:
        return 0.0
    rng = np.random.default_rng(_POWER_SEED)
    v = rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    eig = 0.0
    w = matvec(v)
    for _ in range(_POWER_STEPS):
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        v = w / norm
        w = matvec(v)  # the Rayleigh quotient's product is the next step's
        new = float(v @ w)
        if abs(new - eig) <= _POWER_TOL * max(1.0, abs(new)):
            return new
        eig = new
    return eig


def global_lipschitz(prob):
    """Lipschitz constant of the smooth datafit gradient (full-vector step)."""
    datafit = prob.datafit
    return power_iteration(datafit.gram, datafit.n_coef) / datafit.scale


def _gd_step(prob):
    """Gradient step ``1/L`` on a smooth objective (datafit plus ridge)."""
    datafit, penalty = prob.datafit, prob.penalty
    if not penalty.smooth:
        raise ArgumentError("gradient descent needs a smooth objective "
                            "(quadratic or LogRegL2)")
    l2 = penalty.l2
    L = global_lipschitz(prob) + l2

    def step(x, Ax):
        g = datafit.gradient_x(x, Ax)
        if l2:
            g = g + l2 * x
        x = x - g / L
        return x, datafit.predict(x)
    return step


def baseline_gd(prob, cfg):
    """Plain gradient descent with step ``1/L`` (smooth objectives only)."""
    return _drive(prob, cfg, "gd", _gd_step(prob))


def anderson_gd(prob, cfg):
    """Gradient descent with guarded online extrapolation every K steps."""
    return _drive(prob, cfg, "gd_anderson",
                  _guarded(prob, cfg, _gd_step(prob)))


def _pgd_step(prob):
    """Proximal gradient step with the global step ``1/L``."""
    L = global_lipschitz(prob)
    if L <= 0:
        raise ArgumentError("datafit curvature is zero; nothing to solve")
    t = 1.0 / L
    datafit, penalty = prob.datafit, prob.penalty

    def step(x, Ax):
        x = penalty.prox(x - t * datafit.gradient_x(x, Ax), t)
        return x, datafit.predict(x)
    return step


def baseline_pgd(prob, cfg):
    """Proximal gradient descent with the global step ``1/L``."""
    return _drive(prob, cfg, "pgd", _pgd_step(prob))


def baseline_fista(prob, cfg):
    """Accelerated proximal gradient with the standard momentum recursion."""
    pgd_step = _pgd_step(prob)
    momentum, z, Az = 1.0, None, None

    def step(x, Ax):
        nonlocal momentum, z, Az
        if z is None:
            z, Az = x, Ax
        x_new, Ax_new = pgd_step(z, Az)
        m_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * momentum * momentum))
        beta = (momentum - 1.0) / m_new
        z = x_new + beta * (x_new - x)
        Az = Ax_new + beta * (Ax_new - Ax)
        momentum = m_new
        return x_new, Ax_new

    return _drive(prob, cfg, "fista", step)


def conjugate_gradient(prob, cfg):
    """Conjugate gradient on ``Hx = -b`` (quadratics only)."""
    _require_quadratic(prob, "conjugate_gradient")
    H, b = prob.H, prob.b
    r = d = None

    def step(x, Ax):
        nonlocal r, d
        if r is None:
            r = -b - Ax
            d = r.copy()
        Hd = H @ d
        dHd = d @ Hd
        if dHd <= 0:
            return x, Ax
        alpha = (r @ r) / dHd
        x = x + alpha * d
        r_new = r - alpha * Hd
        beta = (r_new @ r_new) / (r @ r) if r @ r > 0 else 0.0
        d = r_new + beta * d
        r = r_new
        return x, H @ x

    return _drive(prob, cfg, "cg", step)


SOLVERS = {
    "pcd": baseline_pcd,
    "pcd_anderson": anderson_pcd,
    "prcd": baseline_prcd,
    "cdsym": baseline_cdsym,
    "cdsym_anderson": anderson_cdsym,
    "gd": baseline_gd,
    "gd_anderson": anderson_gd,
    "pgd": baseline_pgd,
    "fista": baseline_fista,
    "cg": conjugate_gradient,
}


def solve(prob, cfg):
    """Dispatch on ``cfg.algorithm`` (see ``SOLVERS`` for the registry)."""
    try:
        fn = SOLVERS[cfg.algorithm]
    except KeyError:
        raise ArgumentError(
            f"unknown algorithm {cfg.algorithm!r}; "
            f"choose from {sorted(SOLVERS)}") from None
    return fn(prob, cfg)
