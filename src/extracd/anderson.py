"""Anderson extrapolation of fixed-point sequences.

Given consecutive iterates ``x0..xk`` of a fixed-point map, the
extrapolation weights solve a least-squares problem on the matrix ``U``
of successive differences: minimize ``||U c||`` subject to the weights
summing to one.  The closed form is ``(U'U)^{-1} 1`` normalized by its
sum.  Weights are applied to the *later* iterate of each
difference, so the extrapolated point is ``sum_i c_i x_i`` over the last
``k`` iterates.  One solve, `kernels.anderson_extrapolate` (a pivoted QR
of the differences, in C), serves the window, the offline driver and
`extrapolation_coefficients`.

Two driving modes exist: the offline mode extrapolates a growing prefix
of a fixed base sequence without touching it; the one online step,
`online`, extrapolates every ``K`` calls and restarts the base sequence
from the point its ``accept`` rule returns (or from the base iterate).
"""

from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import ArgumentError, check_integer

__all__ = [
    "ExtrapolationResult",
    "ExtrapolationWindow",
    "extrapolation_coefficients",
    "offline_anderson",
    "online",
    "online_anderson",
    "OfflineTrace",
    "OnlineTrace",
]

def extrapolation_coefficients(U):
    """Normalized extrapolation weights for a difference matrix.

    The weights minimize ``||U c||^2`` subject to the entries summing to
    one; the closed form is ``(U'U)^{-1} 1`` normalized by its sum.  To
    avoid squaring the conditioning of ``U`` the solve eliminates the
    constraint (pivot on the last weight) and runs a Householder QR with
    column pivoting on ``U`` itself, cut at its numerical rank, which
    yields the same weights whenever ``U'U`` is invertible
    (`kernels.anderson_weights`, the solve of `ExtrapolationWindow`).

    Parameters
    ----------
    U : ndarray, shape (p, k)
        Columns are consecutive iterate differences.

    Returns
    -------
    (ndarray or None, bool)
        The weight vector (sums to one) and a solved flag.  The flag is
        false when the solve breaks down (non-finite input or output);
        the weights are ``None`` in that case.
    """
    U = np.asarray(U, dtype=np.float64)
    if U.ndim != 2 or U.shape[1] < 1:
        raise ArgumentError("U must be a p x k matrix with k >= 1")
    c = kernels.anderson_weights(U.T)
    return c, c is not None


@dataclass(frozen=True)
class ExtrapolationResult:
    """Outcome of one extrapolation attempt."""

    coefficients: np.ndarray
    point: np.ndarray
    solved: bool


def _extrapolate(W):
    """`ExtrapolationWindow.extrapolate` of the iterates, the rows of
    ``W``."""
    c, x_e = kernels.anderson_extrapolate(W)
    if c is None:
        return ExtrapolationResult(None, W[-1].copy(), False)
    return ExtrapolationResult(c, x_e, True)


class ExtrapolationWindow:
    """Ring buffer of the last ``K + 1`` iterates feeding extrapolation:
    the rows of one ``(K + 1, p)`` array, oldest first, allocated by the
    first push and reused until an iterate of another shape comes."""

    def __init__(self, K):
        check_integer(K, "window size K", 1)
        self.K = K
        self._W = None
        self._n = 0

    def __len__(self):
        return self._n

    @property
    def ready(self):
        return self._n == self.K + 1

    def push(self, x):
        x = np.asarray(x, dtype=np.float64)
        if self._W is None or self._W.shape[1:] != x.shape:
            if self._n:
                raise ArgumentError(f"window holds iterates of shape "
                                    f"{self._W.shape[1:]}, not {x.shape}")
            self._W = np.empty((self.K + 1,) + x.shape)
        if self._n == self.K + 1:
            self._W[:-1] = self._W[1:]
            self._n -= 1
        self._W[self._n] = x
        self._n += 1

    def reset(self, anchor):
        self._n = 0
        self.push(anchor)

    def extrapolate(self):
        """Extrapolate from the stored window (requires K+1 points).

        On a singular coefficient solve the last base iterate is
        returned with ``solved=False``.
        """
        if not self.ready:
            raise ArgumentError(
                f"window holds {self._n} points, needs {self.K + 1}")
        return _extrapolate(self._W)


@dataclass(frozen=True)
class OfflineTrace:
    """Base sequence plus the extrapolated point for every prefix length."""

    base: list
    extrapolated: list
    solved: list


def offline_anderson(step, x0, k_max):
    """Extrapolate every prefix of a base sequence without altering it.

    For each ``k = 1..k_max`` the weights are computed from the first
    ``k`` differences and applied to iterates ``x1..xk``.  A failed
    coefficient solve emits the last base iterate for that ``k``.

    ``k_max`` above 1000 is refused (cost grows cubically).
    """
    check_integer(k_max, "k_max", 1)
    if k_max > 1000:
        raise ArgumentError("offline extrapolation refuses k_max > 1000")
    x0 = np.array(x0, dtype=np.float64, copy=True)
    base = [x0]
    for _ in range(k_max):
        base.append(np.asarray(step(base[-1]), dtype=np.float64))
    W = np.stack(base)
    results = [_extrapolate(W[:k + 1]) for k in range(1, k_max + 1)]
    return OfflineTrace(base=base,
                        extrapolated=[res.point for res in results],
                        solved=[res.solved for res in results])


@dataclass(frozen=True)
class OnlineTrace:
    """Iterates of the online scheme and the outcome of each attempt."""

    final: np.ndarray
    iterates: list
    events: list = field(default_factory=list)


def online(step, K, accept):
    """Wrap ``step(x, Ax) -> (x, Ax)`` with online extrapolation: every
    ``K`` calls the window of the last ``K + 1`` iterates (the first ``x``
    seen is the anchor) is extrapolated, ``accept(point, x, Ax)`` returns
    the replacing ``(x, Ax)`` or ``None``, and the window restarts from
    the outcome.  ``.events`` holds ``(call, status)`` per attempt."""
    window = ExtrapolationWindow(K)
    calls, events = 0, []

    def run(x, Ax):
        nonlocal calls
        if calls == 0:
            window.push(x)
        calls += 1
        x, Ax = step(x, Ax)
        window.push(x)
        if calls % K == 0:
            res = window.extrapolate()
            if not res.solved:
                status = "singular"
            elif (swap := accept(res.point, x, Ax)) is None:
                status = "rejected"
            else:
                (x, Ax), status = swap, "accepted"
            events.append((calls, status))
            window.reset(x)
        return x, Ax
    # ``run`` must not refer to itself: the cycle would keep the step's
    # arrays (a Gram matrix, say) alive until the garbage collector runs
    run.events = events
    return run


def online_anderson(step, x0, K, k_max, guard=None):
    """Iterate ``x <- step(x)`` ``k_max`` times under `online`.

    The extrapolated point ``x_e`` replaces ``x`` unless ``guard`` is
    given and ``guard(x_e) > guard(x)``.  Events are those of `online`.
    """
    check_integer(k_max, "k_max", 0)

    def accept(point, x, _):
        ok = guard is None or guard(point) <= guard(x)
        return (point, None) if ok else None
    run = online(lambda x, _: (np.asarray(step(x), dtype=np.float64), None),
                 K, accept)
    x = np.array(x0, dtype=np.float64, copy=True)
    iterates = []
    for _ in range(k_max):
        x, _ = run(x, None)
        iterates.append(x.copy())
    return OnlineTrace(final=x, iterates=iterates, events=run.events)
