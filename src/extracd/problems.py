"""Problem definitions: each problem is a datafit plus a penalty.

Supported objectives (``A`` is n x p, labels ``y`` length n):

- Quadratic:   0.5 x'Hx + b'x
- Lasso:       0.5 ||y - Ax||^2 + lam ||x||_1
- ElasticNet:  ||y - Ax||^2 / (2n) + lam ||x||_1 + rho/2 ||x||^2
- LogRegL1:    sum log(1 + exp(-y A x)) + lam ||x||_1
- LogRegL2:    sum log(1 + exp(-y A x)) + lam/2 ||x||^2
- GroupLasso:  0.5 ||y - Ax||^2 + lam sum_g ||x_g||_2

Every problem carries a ``datafit`` and a ``penalty``.  The datafits are
`LeastSquares` and `Logistic`; the penalties are `L1L2` with weights
``(l1, l2)`` and `Group`.  The quadratic is its own datafit (its
``datafit`` is itself) and has the penalty ``L1L2(0, 0)``.  The
module-level functions delegate to these parts.

The five design problems share one base, ``_DesignProblem(A, y, lam)``: it
checks that ``A`` is a `CscMatrix`, that ``y`` has one finite entry per row
and that ``lam`` is positive, then attaches the subclass's parts.

Duality gaps exist for Lasso, ElasticNet and LogRegL1 (their ``dual``
method) and are built from the datafit gradient rescaled into the dual
feasible set; the remaining problems report a stationarity measure
instead.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from . import kernels
from .data import CscMatrix
from .errors import ArgumentError

__all__ = [
    "DENSE_LIMIT",
    "Quadratic",
    "Lasso",
    "ElasticNet",
    "LogRegL1",
    "LogRegL2",
    "GroupLasso",
    "GapReport",
    "groups_from_size",
    "objective_value",
    "datafit_value",
    "penalty_value",
    "datafit_gradient",
    "coordinate_lipschitz",
    "prox_coordinate",
    "prox_group",
    "lambda_max",
    "duality_gap",
    "evaluate",
    "stopping_measure",
    "tikhonov_for_condition",
    "ridge_quadratic",
]


# Largest dimension of the dense p x p matrices built from a problem: the
# diagnostics in ``fixedpoint`` refuse larger ones, and `LeastSquares`
# sweeps through its Gram matrix only up to it.
DENSE_LIMIT = 2000


# ---------------------------------------------------------------------------
# datafits (`Quadratic`, below with the problems, is its own datafit)
#
# ``scale`` bounds the curvature: the Hessian of a datafit in ``Ax`` is at
# most ``I / scale`` (for the quadratic, ``H / scale`` in ``x``).
# ``epoch(penalty, lip)`` returns ``bind(order)``, which checks ``order`` by
# `kernels._checked_order` and returns the pass ``(x, Ax)``: one coordinate
# epoch in place with the penalty's kernel over that checked copy, which
# later writes to the caller's order array leave as it was.
# ---------------------------------------------------------------------------

def _kernel_pass(kernel, fit, n, *tail):
    """``bind(order)`` of the pass that calls ``kernels.<kernel>``, looked
    up per call for a tracer to see, with ``fit``'s CSC arrays and labels,
    ``x``, ``Ax``, ``tail`` and ``order`` checked over ``n`` coordinates."""
    A, y = fit.A, fit.y

    def bind(order):
        order = kernels._checked_order(order, n)

        def run(x, Ax):
            getattr(kernels, kernel)(A.values, A.row_idx, A.col_ptr, y, x, Ax,
                                     *tail, order)
        return run
    return bind


@dataclass(frozen=True, eq=False)
class _DesignFit:
    """A datafit of the predictions ``Ax``."""

    A: CscMatrix
    y: np.ndarray

    @property
    def n_coef(self):
        return self.A.n_cols

    def predict(self, x):
        return self.A.matvec(x)

    def gradient_x(self, x, Ax):
        return self.A.rmatvec(self.gradient(Ax))

    def gram(self, v):
        return self.A.rmatvec(self.A.matvec(v))

    def coordinate_lipschitz(self, penalty):
        return penalty.block_norms_sq(self.A) / self.scale


@dataclass(frozen=True, eq=False)
class LeastSquares(_DesignFit):
    """``||y - Ax||^2 / (2 scale)``, with scale 1 or n (a mean over rows)."""

    scale: float = 1.0

    def value(self, x, Ax):
        r = self.y - Ax
        return float((r @ r) / (2.0 * self.scale))

    def gradient(self, Ax):
        return (Ax - self.y) / self.scale

    def coordinate_lipschitz(self, penalty):
        # the least-squares kernels take the ridge weight into the step
        return super().coordinate_lipschitz(penalty) + penalty.l2

    def lambda_max(self, penalty):
        return penalty.dual_norm(self.A.rmatvec(self.y)) / self.scale

    def epoch(self, penalty, lip):
        """``bind(order)`` of one solve's coordinate epoch.

        A fully dense ``A`` (``nnz == n * p``) with at most ``DENSE_LIMIT``
        columns is swept by `kernels.lsq_gram_pass`, which ``bind`` is,
        through its Gram matrix A'A.  The Gram is built here and held by
        ``bind`` and its passes alone, so it is dropped with the solve.
        Otherwise the pass runs ``kernels.lasso_epoch`` (scale 1, no ridge)
        or ``kernels.enet_epoch``.
        """
        A, y, scale, l1, l2 = self.A, self.y, self.scale, penalty.l1, penalty.l2
        AT = kernels.dense_transpose(A.values, A.col_ptr, A.n_rows)
        if AT is not None and A.n_cols <= DENSE_LIMIT:
            G = AT @ AT.T
            return lambda order: kernels.lsq_gram_pass(AT, G, y, lip, l1, l2,
                                                       scale, order)
        if scale == 1.0 and l2 == 0.0:
            return _kernel_pass("lasso_epoch", self, A.n_cols, lip, l1)
        return _kernel_pass("enet_epoch", self, A.n_cols, lip, l1, l2, scale)


@dataclass(frozen=True, eq=False)
class Logistic(_DesignFit):
    """``sum log(1 + exp(-y Ax))`` with labels -1/+1."""

    scale = 4.0

    def __post_init__(self):
        if not np.all(np.isin(self.y, (-1.0, 1.0))):
            raise ArgumentError("logistic labels must be -1/+1")

    def value(self, x, Ax):
        return float(np.logaddexp(0.0, -self.y * Ax).sum())

    def gradient(self, Ax):
        return kernels._logreg_rows(self.y, Ax)

    def lambda_max(self, penalty):
        # the gradient at Ax = 0 is -y / 2
        return penalty.dual_norm(self.A.rmatvec(self.y)) / 2.0

    def epoch(self, penalty, lip):
        # one kernel per penalty: l1 only, or l2 only
        if penalty.l2 == 0.0:
            return _kernel_pass("logreg_l1_epoch", self, self.n_coef, lip,
                                penalty.l1)
        return _kernel_pass("logreg_l2_epoch", self, self.n_coef, lip,
                            penalty.l2)


# ---------------------------------------------------------------------------
# penalties
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class L1L2:
    """``l1 ||x||_1 + l2/2 ||x||^2``."""

    l1: float
    l2: float

    @property
    def smooth(self):
        return self.l1 == 0.0

    def value(self, x):
        out = 0.0
        if self.l1:
            out += self.l1 * np.abs(x).sum()
        if self.l2:
            out += 0.5 * self.l2 * (x @ x)
        return float(out)

    def prox(self, v, step):
        """Proximal map of ``step`` times the penalty."""
        if self.l1:
            v = np.sign(v) * np.maximum(np.abs(v) - step * self.l1, 0.0)
        if self.l2:
            v = v / (1.0 + step * self.l2)
        return v

    def prox_coordinate(self, v, step):
        # ``step`` is the leading weight (l1, else l2) over the curvature
        t = step / (self.l1 or self.l2 or 1.0)
        return kernels._st(float(v), t * self.l1) / (1.0 + t * self.l2)

    def block_norms_sq(self, A):
        return A.col_norms_sq()

    def dual_norm(self, g):
        if not self.l1:
            raise ArgumentError(
                "lambda_max requires a sparsity-inducing penalty")
        return float(np.abs(g).max() if g.size else 0.0)

    def stationarity(self, x, g):
        """Largest entry of the smooth objective's gradient ``g + l2 x``.

        Penalties with an l1 part belong to problems certified by their
        duality gap, so the l1 subdifferential is not needed here.
        """
        if self.l2:
            g = g + self.l2 * x
        return float(np.abs(g).max() if g.size else 0.0)

    def epoch(self, datafit, lip):
        return datafit.epoch(self, lip)


NO_PENALTY = L1L2(0.0, 0.0)


@dataclass(frozen=True, eq=False)
class Group:
    """``lam sum_g ||x_g||_2`` over a partition of the coordinates."""

    lam: float
    groups: tuple
    l2 = 0.0
    smooth = False

    def __post_init__(self):
        sizes = [g.size for g in self.groups]
        object.__setattr__(self, "grp_cols", np.concatenate(self.groups))
        object.__setattr__(self, "grp_ptr", np.concatenate(
            ([0], np.cumsum(sizes))).astype(np.int64))

    def value(self, x):
        return float(self.lam * sum(np.linalg.norm(x[g])
                                    for g in self.groups))

    def prox(self, v, step):
        out = np.empty_like(v)
        for idx in self.groups:
            out[idx] = prox_group(v[idx], step * self.lam)
        return out

    def prox_coordinate(self, v, step):
        raise ArgumentError("GroupLasso coordinates move per block; "
                            "use prox_group")

    def block_norms_sq(self, A):
        out = np.empty(len(self.groups))
        for g, idx in enumerate(self.groups):
            sub = A.columns(idx)
            out[g] = 0.0 if sub.size == 0 else np.linalg.norm(sub, 2) ** 2
        return out

    def dual_norm(self, g):
        return float(max(np.linalg.norm(g[idx]) for idx in self.groups))

    def stationarity(self, x, g):
        worst = 0.0
        for idx in self.groups:
            cg = g[idx]
            xg = x[idx]
            nx = np.linalg.norm(xg)
            if nx == 0.0:
                viol = max(np.linalg.norm(cg) - self.lam, 0.0)
            else:
                viol = np.linalg.norm(cg + self.lam * xg / nx)
            worst = max(worst, float(viol))
        return worst

    def epoch(self, datafit, lip):
        # group_epoch implements least squares with scale 1
        return _kernel_pass("group_epoch", datafit, len(self.groups),
                            self.grp_cols, self.grp_ptr, lip, self.lam)


# ---------------------------------------------------------------------------
# problems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Quadratic:
    """Objective ``0.5 x'Hx + b'x`` with symmetric positive definite H.

    The quadratic is its own datafit, without a design (``A`` is None) and
    without a penalty.  Its "predictions" ``Ax`` stand for the Hessian
    product ``Hx``: the driver keeps them as it keeps the predictions of a
    design, so every oracle of an epoch reads the one product instead of
    multiplying again.
    """

    H: np.ndarray
    b: np.ndarray
    A = None
    scale = 1.0
    penalty = NO_PENALTY

    def __post_init__(self):
        # copies: the caller's arrays stay writable, and no view of theirs
        # can change H under the cached Gauss-Seidel inverses
        H = np.array(self.H, dtype=np.float64, order="C")
        b = np.array(self.b, dtype=np.float64, ndmin=1)
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "b", b)
        if H.ndim != 2 or H.shape[0] != H.shape[1]:
            raise ArgumentError("H must be square")
        if b.shape != (H.shape[0],):
            raise ArgumentError("b must match the dimension of H")
        if not (np.all(np.isfinite(H)) and np.all(np.isfinite(b))):
            raise ArgumentError("H and b must be finite")
        scale = max(H.max(), -H.min()) if H.size else 0.0
        # H - H' is antisymmetric, so its max is its largest |entry|
        if scale and (H - H.T).max() > 1e-10 * scale:
            raise ArgumentError("H must be symmetric")
        if H.size and np.diag(H).min() <= 0.0:
            raise ArgumentError("H must have positive diagonal entries")
        H.setflags(write=False)
        b.setflags(write=False)

    @property
    def datafit(self):
        # returned, not stored: a quadratic that held itself would be a
        # reference cycle, and its cached inverses would outlive it
        return self

    @property
    def dim(self):
        return self.H.shape[0]

    n_coef = dim

    def predict(self, x):
        return self.H @ x

    gram = predict  # both are the Hessian product

    def value(self, x, Ax=None):
        return float(0.5 * x @ _predictions(self, x, Ax) + self.b @ x)

    def gradient(self, x):
        """The gradient ``Hx + b`` in ``x``."""
        return self.gradient_x(x, self.H @ x)

    def gradient_x(self, x, Ax):
        return Ax + self.b

    def coordinate_lipschitz(self, penalty):
        return np.diag(self.H).copy()

    def lambda_max(self, penalty):
        raise ArgumentError("lambda_max requires a sparsity-inducing penalty")

    def epoch(self, penalty, lip):
        return self.cd_sweep

    def solve(self):
        """The minimizer ``-H^{-1} b``."""
        return np.linalg.solve(self.H, -self.b)

    def cd_sweep(self, order):
        """The in-place coordinate-descent pass ``sweep(x, Hx)`` over
        ``order``, checked by `kernels._checked_order`: the pass keeps that
        checked copy, and its path is chosen here once.

        Coordinate ``j`` moves to its exact minimizer, ``x_j -= (H_j x +
        b_j) / H_jj``.  The cyclic orders ``0..p-1`` and ``p-1..0`` run as
        one Gauss-Seidel step ``x -= T^{-1} (Hx + b)``, with ``T`` the lower
        (forward) or upper (backward) triangle of H, diagonal included; the
        inverse of each triangle is computed once per quadratic (H is a
        read-only copy).  Other orders run ``kernels.cd_dense_epoch``.

        ``Hx`` is required, as ``Ax`` is in every bound pass, and must equal
        ``H @ x``: the Gauss-Seidel step takes its gradient from it, and the
        pass ends by overwriting it with ``H @ x`` of the new ``x``.
        """
        H, b = self.H, self.b
        order = kernels._checked_order(order, self.dim)
        inv = None
        if order.size == self.dim:
            cyclic = np.arange(self.dim)
            if np.array_equal(order, cyclic):
                inv = self._lower_inv
            elif np.array_equal(order, cyclic[::-1]):
                inv = self._upper_inv

        def sweep(x, Hx):
            if inv is None:
                kernels.cd_dense_epoch(H, b, x, order)
            else:
                x -= inv @ (Hx + b)
            Hx[:] = H @ x
        return sweep

    @cached_property
    def _lower_inv(self):
        return np.linalg.inv(np.tril(self.H))

    @cached_property
    def _upper_inv(self):
        return np.linalg.inv(np.triu(self.H))


@dataclass(frozen=True)
class _DesignProblem:
    """A datafit of the design ``A`` and labels ``y`` plus a penalty of
    strength ``lam``: a subclass adds its fields, its ``_parts()`` (which
    checks those fields) and its ``dual`` if it has one."""

    A: CscMatrix
    y: np.ndarray
    lam: float

    def __post_init__(self):
        if not isinstance(self.A, CscMatrix):
            raise ArgumentError("A must be a CscMatrix")
        y = np.array(self.y, dtype=np.float64, ndmin=1)  # a read-only copy
        if y.shape != (self.A.n_rows,):
            raise ArgumentError("y must have one entry per row of A")
        if not (np.isfinite(self.lam) and self.lam > 0):
            raise ArgumentError("lam must be positive")
        if not np.all(np.isfinite(y)):
            raise ArgumentError("labels must be finite")
        y.setflags(write=False)
        object.__setattr__(self, "y", y)
        datafit, penalty = self._parts()
        object.__setattr__(self, "datafit", datafit)
        object.__setattr__(self, "penalty", penalty)


class Lasso(_DesignProblem):
    def _parts(self):
        return LeastSquares(self.A, self.y, 1.0), L1L2(self.lam, 0.0)

    def dual(self, Ax):
        y, lam = self.y, self.lam
        r = y - Ax
        scale = max(lam, self.penalty.dual_norm(self.A.rmatvec(r)))
        theta = r / scale
        resid = y - lam * theta
        return 0.5 * (y @ y) - 0.5 * (resid @ resid)


@dataclass(frozen=True)
class ElasticNet(_DesignProblem):
    rho: float

    def _parts(self):
        if not (np.isfinite(self.rho) and self.rho >= 0):
            raise ArgumentError("rho must be nonnegative")
        if self.A.n_rows == 0:
            raise ArgumentError("ElasticNet needs a design with rows: its "
                                "loss is a mean over rows")
        return (LeastSquares(self.A, self.y, self.A.n_rows),
                L1L2(self.lam, self.rho))

    def dual(self, Ax):
        y, lam, n = self.y, self.lam, self.A.n_rows
        theta = (Ax - y) / n

        def dual_at(th, at):
            val = -(th @ y) - 0.5 * n * (th @ th)
            if self.rho > 0:
                sq = np.maximum(np.abs(at) - lam, 0.0) ** 2
                val -= sq.sum() / (2.0 * self.rho)
            return val

        at = self.A.rmatvec(theta)
        inf_norm = self.penalty.dual_norm(at)
        if inf_norm > lam:
            # rescaled into the ball; with a ridge part theta is feasible too
            scaled = theta * (lam / inf_norm)
            if self.rho == 0:
                return dual_at(scaled, None)
            return max(dual_at(theta, at),
                       dual_at(scaled, self.A.rmatvec(scaled)))
        return dual_at(theta, at)


def _xlogx(t):
    out = np.zeros_like(t)
    pos = t > 0
    out[pos] = t[pos] * np.log(t[pos])
    return out


class LogRegL1(_DesignProblem):
    def _parts(self):
        return Logistic(self.A, self.y), L1L2(self.lam, 0.0)

    def dual(self, Ax):
        theta = self.datafit.gradient(Ax)
        inf_norm = self.penalty.dual_norm(self.A.rmatvec(theta))
        if inf_norm > self.lam:
            theta = theta * (self.lam / inf_norm)
        s = -theta * self.y
        s = np.clip(s, 0.0, 1.0)
        return -float((_xlogx(s) + _xlogx(1.0 - s)).sum())


class LogRegL2(_DesignProblem):
    def _parts(self):
        return Logistic(self.A, self.y), L1L2(0.0, self.lam)


@dataclass(frozen=True)
class GroupLasso(_DesignProblem):
    """Least squares with a sum of Euclidean norms over a column partition."""

    groups: tuple

    def _parts(self):
        groups = tuple(np.array(g, dtype=np.int64, ndmin=1)
                       for g in self.groups)
        if not groups:
            raise ArgumentError("groups must be nonempty")
        if (np.sort(np.concatenate(groups)).tolist()
                != list(range(self.A.n_cols))):
            raise ArgumentError("groups must partition the columns exactly")
        for g in groups:
            g.setflags(write=False)
        object.__setattr__(self, "groups", groups)
        return LeastSquares(self.A, self.y, 1.0), Group(self.lam, groups)


def groups_from_size(p, size):
    """Consecutive blocks of ``size`` columns (last block may be shorter)."""
    if size < 1:
        raise ArgumentError("group size must be >= 1")
    return tuple(np.arange(s, min(s + size, p), dtype=np.int64)
                 for s in range(0, p, size))


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def _predictions(prob, x, Ax):
    """``Ax`` if given, else the datafit's predictions at ``x``."""
    return prob.datafit.predict(x) if Ax is None else Ax


def datafit_value(prob, x, Ax=None):
    """Smooth data-fitting term of the objective."""
    if x is not None:
        x = np.asarray(x, dtype=np.float64)
    return prob.datafit.value(x, _predictions(prob, x, Ax))


def penalty_value(prob, x):
    """Penalty term of the objective (0 for quadratics)."""
    return prob.penalty.value(np.asarray(x, dtype=np.float64))


def objective_value(prob, x, Ax=None):
    """Full objective at ``x`` (pass ``Ax`` to avoid recomputing it)."""
    x = np.asarray(x, dtype=np.float64)
    return (prob.datafit.value(x, _predictions(prob, x, Ax))
            + prob.penalty.value(x))


def datafit_gradient(prob, Ax):
    """Gradient of the datafit with respect to the predictions ``Ax``."""
    if prob.datafit.A is None:
        raise ArgumentError(
            "datafit_gradient needs a problem with a design matrix")
    return prob.datafit.gradient(np.asarray(Ax, dtype=np.float64))


def coordinate_lipschitz(prob):
    """Curvature bound per coordinate (per group for GroupLasso).

    Zero entries mark coordinates that solvers must skip (frozen at
    their initial value).
    """
    return prob.datafit.coordinate_lipschitz(prob.penalty)


def prox_coordinate(prob, j, v, step):
    """Proximal map of coordinate ``j``'s penalty with scale ``step = lam/L_j``."""
    if step < 0:
        raise ArgumentError("step must be nonnegative")
    return prob.penalty.prox_coordinate(v, step)


def prox_group(v, threshold):
    """Block soft threshold: shrink the Euclidean norm of ``v`` by ``threshold``."""
    if threshold < 0:
        raise ArgumentError("threshold must be nonnegative")
    v = np.asarray(v, dtype=np.float64)
    norm = np.linalg.norm(v)
    if norm <= threshold:
        return np.zeros_like(v)
    return (1.0 - threshold / norm) * v


def lambda_max(prob):
    """Smallest penalty strength for which 0 is optimal."""
    return prob.datafit.lambda_max(prob.penalty)


@dataclass(frozen=True)
class GapReport:
    """Primal value, best dual value and their clamped difference."""

    primal: float
    dual: float
    gap: float


def duality_gap(prob, x, Ax=None) -> Optional[GapReport]:
    """Duality gap from a rescaled-gradient dual candidate.

    Returns ``None`` for problems without an implemented dual (the gap
    is then unavailable and solvers fall back to a stationarity
    measure).  The reported gap is clamped at zero.
    """
    dual = getattr(prob, "dual", None)
    if dual is None:
        return None
    x = np.asarray(x, dtype=np.float64)
    Ax = _predictions(prob, x, Ax)
    primal = objective_value(prob, x, Ax)
    value = dual(Ax)
    gap = max(float(primal - value), 0.0)
    return GapReport(primal=float(primal), dual=float(value), gap=gap)


def evaluate(prob, x, Ax=None):
    """``(objective, gap, measure)`` at ``x``, the stopping rule of every
    solve: the measure is the duality gap when the problem has a dual,
    else a stationarity violation in the same units as the objective
    scale, and the gap is then ``None``."""
    x = np.asarray(x, dtype=np.float64)
    Ax = _predictions(prob, x, Ax)
    report = duality_gap(prob, x, Ax)
    if report is not None:
        return report.primal, report.gap, report.gap
    return (objective_value(prob, x, Ax), None,
            prob.penalty.stationarity(x, prob.datafit.gradient_x(x, Ax)))


def stopping_measure(prob, x, Ax=None):
    """The convergence measure of `evaluate`."""
    return evaluate(prob, x, Ax)[2]


def tikhonov_for_condition(gram_eigs, kappa):
    """Diagonal shift bringing a PSD spectrum to condition number ``kappa``."""
    if not (np.isfinite(kappa) and kappa > 1):
        raise ArgumentError("kappa must be finite and exceed 1")
    gmax = float(np.max(gram_eigs))
    gmin = float(max(np.min(gram_eigs), 0.0))
    if gmax <= 0:
        raise ArgumentError("spectrum must contain a positive eigenvalue")
    shift = (gmax - kappa * gmin) / (kappa - 1.0)
    return max(shift, 0.0)


def ridge_quadratic(dataset, kappa=None):
    """Quadratic ``0.5||y - Ax||^2 + 0.5*shift*||x||^2`` as an (H, b) pair.

    With ``kappa`` given, the ridge shift is chosen so that H has that
    condition number.
    """
    A = dataset.A.toarray()
    H = A.T @ A
    if kappa is not None:
        shift = tikhonov_for_condition(np.linalg.eigvalsh(H), kappa)
        H = H + shift * np.eye(H.shape[0])
    return Quadratic(H, -A.T @ dataset.y)
