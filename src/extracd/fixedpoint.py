"""Linear fixed-point iterations for quadratics and their spectral diagnostics.

Gradient descent and cyclic coordinate descent on a positive definite
quadratic are affine maps ``x -> T x + b_vec``.  This module materializes
``T`` (by probing the step of `pcd` or `cdsym`, bound once, with unit
vectors, so ``T`` is the map the solvers run), measures spectral radii,
builds the similarity-symmetrized matrix of the double-sweep iteration,
and traces numerical-range boundaries used to judge whether acceleration
is safe.

All diagnostics here are dense and deliberately refuse dimensions above
``DENSE_LIMIT``.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ArgumentError
from .problems import DENSE_LIMIT, Quadratic
from .solvers import _cd_step, _cdsym_step

__all__ = [
    "DENSE_LIMIT",
    "Quadratic",
    "LinearIteration",
    "RateBound",
    "NumericalRange",
    "gd_iteration",
    "cd_iteration",
    "cdsym_iteration",
    "spectral_radius",
    "numerical_range_boundary",
]


def _check_dense_size(p):
    if p > DENSE_LIMIT:
        raise ArgumentError(
            f"dense diagnostics are limited to dimension {DENSE_LIMIT}, got {p}")


@dataclass(frozen=True)
class LinearIteration:
    """Affine map ``x -> T x + b_vec`` with a kind tag (gd/cd/cdsym)."""

    T: np.ndarray
    b_vec: np.ndarray
    kind: str

    def apply(self, x):
        return self.T @ x + self.b_vec

    def fixed_point(self):
        p = self.T.shape[0]
        return np.linalg.solve(np.eye(p) - self.T, self.b_vec)

    def spectral_radius(self):
        return spectral_radius(self.T)


def gd_iteration(quad, L):
    """Gradient-descent map ``T = I - H/L``, ``b_vec = -b/L``.

    ``L`` must be positive; contraction additionally needs
    ``L >= lambda_max(H)``, which is the caller's responsibility.
    """
    if not (np.isfinite(L) and L > 0):
        raise ArgumentError("step denominator L must be positive")
    _check_dense_size(quad.dim)
    p = quad.dim
    T = np.eye(p) - quad.H / L
    return LinearIteration(T, -quad.b / L, kind="gd")


def _probe_affine(quad, step):
    # Columns of T via epoch(e_j) - epoch(0); epoch(0) is the offset.
    p = quad.dim

    def epoch(x):
        return step(x, quad.predict(x))[0]
    b_vec = epoch(np.zeros(p))
    T = np.empty((p, p))
    for j in range(p):
        e = np.zeros(p)
        e[j] = 1.0
        T[:, j] = epoch(e) - b_vec
    return T, b_vec


def cd_iteration(quad):
    """One cyclic coordinate-descent epoch (coordinate 1 first) as an affine map.

    The matrix is built by probing the step `pcd` runs, bound once, with
    unit vectors, so it reflects exactly what the solver executes.
    """
    _check_dense_size(quad.dim)
    T, b_vec = _probe_affine(quad, _cd_step(quad))
    return LinearIteration(T, b_vec, kind="cd")


def _sqrt_psd(H):
    w, V = np.linalg.eigh(H)
    if w[-1] <= 0 or w[0] < 1e-12 * w[-1]:
        raise ArgumentError(
            "H must be positive definite (eigenvalue below 1e-12 of the largest)")
    root = np.sqrt(w)
    return (V * root) @ V.T, (V / root) @ V.T


def cdsym_iteration(quad):
    """Double-sweep (forward then backward) coordinate descent.

    Returns the affine map of one double sweep together with the
    symmetric matrix ``S = H^{1/2} T H^{-1/2}``, which shares its
    spectrum with ``T`` and certifies that all eigenvalues are real.  The
    map is probed from the step `cdsym` runs, bound once.
    """
    _check_dense_size(quad.dim)
    T, b_vec = _probe_affine(quad, _cdsym_step(quad))
    H_half, H_half_inv = _sqrt_psd(quad.H)
    S = H_half @ T @ H_half_inv
    S = 0.5 * (S + S.T)
    return LinearIteration(T, b_vec, kind="cdsym"), S


def spectral_radius(T):
    """Largest eigenvalue modulus of a square matrix (dense, exact)."""
    T = np.asarray(T, dtype=np.float64)
    if T.ndim != 2 or T.shape[0] != T.shape[1]:
        raise ArgumentError("spectral_radius expects a square matrix")
    if not np.all(np.isfinite(T)):
        raise ArgumentError("matrix must be finite")
    _check_dense_size(T.shape[0])
    if T.size == 0:
        return 0.0
    return float(np.abs(np.linalg.eigvals(T)).max())


@dataclass(frozen=True)
class RateBound:
    """Geometric factors bounding extrapolated iterates in the B-norm.

    ``offline_factor(k)`` bounds the error ratio of window-k offline
    extrapolation; ``online_factor(k, K)`` the online variant after k
    steps with window K.  For the double-sweep map the factors carry the
    ``sqrt(kappa_H)`` prefactor; for the symmetric gradient map the
    prefactor is 1.
    """

    rho: float
    zeta: float
    B: np.ndarray
    kappa_H: float
    kind: str

    @classmethod
    def from_iteration(cls, it, H):
        if it.kind not in ("gd", "cdsym"):
            raise ArgumentError(
                f"no extrapolation rate bound for iteration kind {it.kind!r}")
        rho = it.spectral_radius()
        if not rho < 1.0:
            raise ArgumentError("iteration must be a contraction (rho < 1)")
        root = math.sqrt(1.0 - rho)
        zeta = (1.0 - root) / (1.0 + root)
        p = it.T.shape[0]
        E = it.T - np.eye(p)
        B = E.T @ E
        w = np.linalg.eigvalsh(np.asarray(H, dtype=np.float64))
        if w[0] <= 0:
            raise ArgumentError("H must be positive definite")
        return cls(rho=rho, zeta=zeta, B=B, kappa_H=float(w[-1] / w[0]),
                   kind=it.kind)

    @property
    def prefactor(self):
        return math.sqrt(self.kappa_H) if self.kind == "cdsym" else 1.0

    def offline_factor(self, k):
        if k < 1:
            raise ArgumentError("k must be >= 1")
        z = self.zeta ** (k - 1)
        return self.prefactor * 2.0 * z / (1.0 + z * z)

    def online_factor(self, k, K):
        if K < 1 or k < 1:
            raise ArgumentError("k and K must be >= 1")
        return self.offline_factor(K) ** (k / K)

    def b_norm(self, v):
        return math.sqrt(max(float(v @ (self.B @ v)), 0.0))


@dataclass(frozen=True)
class NumericalRange:
    """Sampled boundary of the numerical range of a matrix power.

    ``points[i]`` is ``v* M v`` for the top eigenvector of the Hermitian
    part of ``exp(1j*angles[i]) * M``; ``support[i]`` is the matching
    largest eigenvalue, i.e. the support function of the range in that
    direction.  Membership tests use the support half-planes (an outer
    description, robust even when the range degenerates to a segment).
    """

    q: int
    angles: np.ndarray
    points: np.ndarray
    support: np.ndarray
    contains_one: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "contains_one", self.contains(1.0 + 0.0j))

    def contains(self, z, tol=1e-12):
        z = complex(z)
        lhs = np.real(np.exp(1j * self.angles) * z)
        return bool(np.all(lhs <= self.support + tol))

    def save_csv(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("angle,re,im\n")
            for a, z in zip(self.angles, self.points):
                fh.write(f"{a:.17g},{z.real:.17g},{z.imag:.17g}\n")


# Lanczos steps one angle of a numerical range may take before it falls
# back to a full eigendecomposition (the first angle, which starts cold,
# may take twice as many); a matrix no larger than this is decomposed
# outright, since its Krylov space would be the whole space.
_LANCZOS_STEPS = 60
_LANCZOS_CHECK = 5  # steps between two residual checks
_LANCZOS_TOL = 1e-10  # residual bound, relative to the largest |Ritz value|


def _lanczos_ends(Hh, v0, steps):
    """Top and bottom eigenpairs of the Hermitian ``Hh`` by Lanczos.

    The run starts at ``v0``, reorthogonalizes in full and returns ``(w,
    X)``: the Ritz values ``[top, bottom]`` and their unit vectors as the
    columns of ``X``, once both residuals ``||Hh x - w x||`` are at most
    ``_LANCZOS_TOL`` of the largest ``|w|``.  It returns ``None`` if that
    takes more than ``steps`` steps, or if the run breaks down: a Krylov
    space that is invariant before it spans the whole space need not hold
    the extreme eigenvectors.
    """
    n = v0.size
    steps = min(steps, n)
    V = np.empty((steps, n), dtype=np.complex128)
    alpha = np.empty(steps)
    beta = np.empty(steps)
    V[0] = v0 / np.linalg.norm(v0)
    scale = 0.0  # largest tridiagonal entry so far, at most ||Hh||
    for j in range(steps):
        basis = V[:j + 1]
        w = Hh @ V[j]
        alpha[j] = np.vdot(V[j], w).real
        w -= alpha[j] * V[j]
        if j:
            w -= beta[j - 1] * V[j - 1]
        # full reorthogonalization by classical Gram-Schmidt, with a second
        # pass when the first cancels most of w (Daniel et al., 1976)
        for _ in range(2):
            before = np.vdot(w, w).real
            w -= (basis @ w.conj()).conj() @ basis
            beta[j] = math.sqrt(np.vdot(w, w).real)
            if beta[j] ** 2 > 0.5 * before:
                break
        scale = max(scale, abs(alpha[j]))
        k = j + 1
        if k < n and beta[j] <= _LANCZOS_TOL * scale:
            return None
        if k % _LANCZOS_CHECK == 0 or k == steps:
            off = beta[:j]
            w_k, Y = np.linalg.eigh(
                np.diag(alpha[:k]) + np.diag(off, 1) + np.diag(off, -1))
            ends = [-1, 0]
            residual = beta[j] * np.abs(Y[-1, ends])
            if residual.max() <= _LANCZOS_TOL * np.abs(w_k[ends]).max():
                return w_k[ends], basis.T @ Y[:, ends]
        if k == steps:
            return None
        V[k] = w / beta[j]
        scale = max(scale, beta[j])


def numerical_range_boundary(T, q=1, n_angles=360):
    """Boundary points of the numerical range of ``T^q``.

    For each direction ``theta`` on a uniform grid, the top eigenpair of
    the Hermitian part of ``exp(1j*theta) T^q`` yields one boundary point
    ``v* T^q v`` and the support value in that direction.

    ``T`` is cast to float64, so ``M = T^q`` is real and the Hermitian
    part is ``Hh(theta) = cos(theta) S + 1j sin(theta) K`` with
    ``S = (M + M.T)/2`` and ``K = (M - M.T)/2``.  Two identities follow,
    and both need ``M`` real:

    * ``Hh(theta + pi) = -Hh(theta)``: the top eigenpair at ``theta + pi``
      is the bottom eigenpair at ``theta`` with its eigenvalue negated;
    * ``Hh(-theta) = conj(Hh(theta))``: the support at ``2*pi - theta``
      equals the one at ``theta`` and the point is its conjugate.

    Only the angles that neither identity maps from another grid angle
    are solved: ``n_angles // 4 + 1`` of them for an even grid,
    ``n_angles // 2 + 1`` for an odd one.

    Each solved angle takes its top and bottom eigenpairs from a Lanczos
    run with full reorthogonalization (Braconnier & Higham, BIT 1996),
    continued from the previous angle: the run starts at that angle's top
    vector plus half its bottom one.  It stops once the residual
    ``||Hh v - w v||`` of both pairs is at most 1e-10 of the largest
    ``|w|``, and takes at most 60 steps (120 at the first angle).  An angle
    whose run misses that bound or breaks down gets a full Hermitian
    eigendecomposition instead.  After two such angles in a row, every
    later angle is decomposed outright, as is every angle of a matrix of
    dimension 60 or less.  A Ritz value never exceeds the top eigenvalue,
    so the error is one-sided: a sampled support can fall short of the
    true one, by at most about the residual, but never exceeds it, and the
    sampled range is never too large.

    Parameters
    ----------
    T : ndarray
        Square matrix, dimension at most ``DENSE_LIMIT``.
    q : int
        Power applied to ``T`` before sweeping (``>= 1``).
    n_angles : int
        Grid resolution (``>= 3``).
    """
    T = np.asarray(T, dtype=np.float64)
    if T.ndim != 2 or T.shape[0] != T.shape[1]:
        raise ArgumentError("numerical range expects a square matrix")
    if not np.all(np.isfinite(T)):
        raise ArgumentError("matrix must be finite")
    if q < 1:
        raise ArgumentError("q must be >= 1")
    if n_angles < 3:
        raise ArgumentError("n_angles must be >= 3")
    _check_dense_size(T.shape[0])
    M = np.linalg.matrix_power(T, q)
    S = 0.5 * (M + M.T)
    K = 0.5 * (M - M.T)
    # cast once: the real M times the complex ends would be cast per angle
    M = M.astype(np.complex128)
    n = n_angles
    angles = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    points = np.empty(n, dtype=np.complex128)
    support = np.empty(n)
    # grid index of theta + pi, when the grid holds it
    half = n // 2 if n % 2 == 0 else 0
    n_solve = (n // 4 if half else n // 2) + 1
    solved = np.zeros(n, dtype=bool)
    # angles in a row whose Krylov run fell back; after two, the sweep
    # decomposes the remaining angles outright
    misses = 0 if T.shape[0] > _LANCZOS_STEPS else 2
    start = np.random.default_rng(0).standard_normal(T.shape[0])
    steps = 2 * _LANCZOS_STEPS
    for i in range(n_solve):
        theta = angles[i]
        Hh = np.cos(theta) * S + 1j * np.sin(theta) * K
        run = _lanczos_ends(Hh, start, steps) if misses < 2 else None
        if run is None:
            misses += 1
            w, V = np.linalg.eigh(Hh)
            run = w[[-1, 0]], V[:, [-1, 0]]
        else:
            misses = 0
        (w_top, w_bottom), ends = run
        start = ends[:, 0] + 0.5 * ends[:, 1]
        steps = _LANCZOS_STEPS
        top, bottom = np.einsum("ij,ij->j", ends.conj(), M @ ends)
        support[i], points[i] = w_top, top
        solved[i] = True
        if half:
            support[i + half], points[i + half] = -w_bottom, bottom
            solved[i + half] = True
    # every remaining index j mirrors a solved one at n - j (angle -theta)
    rest = np.flatnonzero(~solved)
    support[rest] = support[n - rest]
    points[rest] = points[n - rest].conj()
    return NumericalRange(q=q, angles=angles, points=points, support=support)
