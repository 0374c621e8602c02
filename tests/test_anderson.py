import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extracd import kernels
from extracd.anderson import (ExtrapolationWindow, extrapolation_coefficients,
                              offline_anderson, online, online_anderson)
from extracd.errors import ArgumentError

from loop_sources import C_LOOPS


def coefficients_kkt(U):
    """Independent oracle: solve the equality-constrained normal equations.

    KKT system for min ||Uc||^2 s.t. 1'c = 1, solved with a pseudo-inverse
    so it also covers mildly singular Grams.
    """
    k = U.shape[1]
    G = U.T @ U
    K = np.zeros((k + 1, k + 1))
    K[:k, :k] = 2.0 * G
    K[:k, k] = 1.0
    K[k, :k] = 1.0
    rhs = np.zeros(k + 1)
    rhs[k] = 1.0
    sol = np.linalg.pinv(K) @ rhs
    return sol[:k]


class TestCoefficients:
    def test_single_difference_is_pinned(self):
        c, ok = extrapolation_coefficients(np.array([[3.0], [1.0]]))
        assert ok and c.shape == (1,) and c[0] == 1.0

    def test_against_kkt_oracle(self):
        rng = np.random.default_rng(0)
        for k in (2, 3, 4):
            U = rng.standard_normal((9, k))
            c, ok = extrapolation_coefficients(U)
            assert ok
            np.testing.assert_allclose(c, coefficients_kkt(U),
                                       rtol=1e-10, atol=1e-12)
            assert abs(c.sum() - 1.0) < 1e-12

    def test_against_brute_force_grid(self):
        # exhaustive check on a 2-difference problem: scan the free weight
        rng = np.random.default_rng(1)
        U = rng.standard_normal((6, 2))
        c, ok = extrapolation_coefficients(U)
        assert ok
        ts = np.linspace(-5, 5, 20001)
        vals = [np.linalg.norm(U @ np.array([t, 1 - t])) for t in ts]
        t_best = ts[int(np.argmin(vals))]
        np.testing.assert_allclose(c, [t_best, 1 - t_best], atol=1e-3)
        assert np.linalg.norm(U @ c) <= min(vals) + 1e-12

    def test_scalar_aitken_weights(self):
        # iterates 0, 1, 3 of x -> 2x + 1: differences 1 and 2
        U = np.array([[1.0, 2.0]])
        c, ok = extrapolation_coefficients(U)
        assert ok
        np.testing.assert_allclose(c, [2.0, -1.0], atol=1e-12)

    def test_nonfinite_input_fails_gracefully(self):
        U = np.array([[np.inf, 1.0], [0.0, 2.0]])
        c, ok = extrapolation_coefficients(U)
        assert not ok and c is None

    def test_validation(self):
        with pytest.raises(ArgumentError):
            extrapolation_coefficients(np.zeros((3,)))


class TestWindow:
    def test_ring_buffer(self):
        win = ExtrapolationWindow(K=2)
        for v in range(5):
            win.push(np.array([float(v)]))
        assert len(win) == 3
        assert win.ready

    def test_extrapolate_requires_full_window(self):
        win = ExtrapolationWindow(K=3)
        win.push(np.zeros(2))
        with pytest.raises(ArgumentError):
            win.extrapolate()

    def test_push_copies(self):
        win = ExtrapolationWindow(K=1)
        x = np.zeros(2)
        win.push(x)
        x[:] = 99.0
        win.push(x)
        res = win.extrapolate()
        assert res.solved

    def test_reset(self):
        win = ExtrapolationWindow(K=2)
        for v in range(4):
            win.push(np.array([float(v)]))
        win.reset(np.array([7.0]))
        assert len(win) == 1 and not win.ready

    def test_scalar_linear_map_exact(self):
        # x -> 0.5x + 1 has fixed point 2; K=2 window nails it
        win = ExtrapolationWindow(K=2)
        x = 0.0
        win.push(np.array([x]))
        for _ in range(2):
            x = 0.5 * x + 1.0
            win.push(np.array([x]))
        res = win.extrapolate()
        assert res.solved
        np.testing.assert_allclose(res.point, [2.0], atol=1e-12)

    def test_failed_solve_returns_last_point(self):
        win = ExtrapolationWindow(K=2)
        win.push(np.array([0.0, 0.0]))
        win.push(np.array([np.inf, 1.0]))
        win.push(np.array([4.0, 5.0]))
        res = win.extrapolate()
        assert not res.solved and res.coefficients is None
        np.testing.assert_allclose(res.point, [4.0, 5.0])

    def test_validation(self):
        with pytest.raises(ArgumentError):
            ExtrapolationWindow(K=0)

    def test_full_ring_keeps_the_last_points(self):
        # pushes past K + 1 drop the oldest point; the result is that of
        # a window fed only the last K + 1
        rng = np.random.default_rng(8)
        pts = rng.standard_normal((7, 4))
        ring, fresh = ExtrapolationWindow(K=3), ExtrapolationWindow(K=3)
        for x in pts:
            ring.push(x)
        for x in pts[-4:]:
            fresh.push(x)
        got, want = ring.extrapolate(), fresh.extrapolate()
        assert got.coefficients.tobytes() == want.coefficients.tobytes()
        assert got.point.tobytes() == want.point.tobytes()

    def test_reset_takes_a_new_shape(self):
        win = ExtrapolationWindow(K=1)
        win.push(np.zeros(3))
        with pytest.raises(ArgumentError, match="shape"):
            win.push(np.zeros(2))
        win.reset(np.zeros(2))
        win.push(np.ones(2))
        assert win.extrapolate().point.shape == (2,)


def linear_map(rho=0.8, p=6, seed=3):
    rng = np.random.default_rng(seed)
    lams = np.linspace(0.1, rho, p)
    Q = np.linalg.qr(rng.standard_normal((p, p)))[0]
    T = (Q * lams) @ Q.T
    b = rng.standard_normal(p)
    x_star = np.linalg.solve(np.eye(p) - T, b)
    return (lambda x: T @ x + b), x_star, p


class TestOffline:
    def test_base_matches_plain_iteration(self):
        step, x_star, p = linear_map()
        x0 = np.zeros(p)
        tr = offline_anderson(step, x0, k_max=12)
        x = x0.copy()
        for k in range(13):
            np.testing.assert_array_equal(tr.base[k], x)
            x = step(x)
        assert len(tr.extrapolated) == 12 and len(tr.solved) == 12

    def test_prefix_one_returns_first_iterate(self):
        step, _, p = linear_map(seed=4)
        tr = offline_anderson(step, np.zeros(p), k_max=3)
        np.testing.assert_array_equal(tr.extrapolated[0], tr.base[1])

    def test_error_beats_base_on_linear_map(self):
        step, x_star, p = linear_map(rho=0.9, seed=5)
        tr = offline_anderson(step, np.zeros(p), k_max=10)
        base_err = np.linalg.norm(tr.base[10] - x_star)
        extr_err = np.linalg.norm(tr.extrapolated[9] - x_star)
        assert extr_err < 1e-8 * base_err

    def test_exact_after_dimension_many_steps(self):
        step, x_star, p = linear_map(rho=0.7, seed=6)
        tr = offline_anderson(step, np.zeros(p), k_max=p + 1)
        np.testing.assert_allclose(tr.extrapolated[p], x_star, atol=1e-9)

    def test_input_not_mutated(self):
        step, _, p = linear_map(seed=7)
        x0 = np.ones(p)
        offline_anderson(step, x0, k_max=4)
        np.testing.assert_array_equal(x0, np.ones(p))

    def test_k_max_validation(self):
        step, _, p = linear_map(seed=8)
        with pytest.raises(ArgumentError):
            offline_anderson(step, np.zeros(p), k_max=0)
        with pytest.raises(ArgumentError):
            offline_anderson(step, np.zeros(p), k_max=1001)


# each once failed inside ``range`` or ran a bool as 1
@pytest.mark.parametrize("run", [offline_anderson,
                                 lambda step, x0, k_max: online_anderson(
                                     step, x0, 2, k_max)],
                         ids=["offline", "online"])
@pytest.mark.parametrize("k_max", [2.5, True], ids=["float", "bool"])
def test_k_max_must_be_an_integer(run, k_max):
    with pytest.raises(ArgumentError, match="k_max must be an integer"):
        run(lambda x: 0.5 * x, np.ones(2), k_max)


class TestOnline:
    def test_beats_plain_iteration(self):
        step, x_star, p = linear_map(rho=0.9, seed=9)
        tr = online_anderson(step, np.zeros(p), K=4, k_max=40)
        plain = np.zeros(p)
        for _ in range(40):
            plain = step(plain)
        assert (np.linalg.norm(tr.final - x_star)
                < 1e-6 * np.linalg.norm(plain - x_star))
        assert len(tr.iterates) == 40
        kinds = {status for _, status in tr.events}
        assert kinds <= {"accepted", "rejected", "singular"}
        assert [k for k, _ in tr.events] == [4, 8, 12, 16, 20, 24, 28, 32,
                                             36, 40]

    def test_window_one_is_identity(self):
        # a single difference forces weight 1, so nothing changes
        step, _, p = linear_map(seed=10)
        tr = online_anderson(step, np.zeros(p), K=1, k_max=6)
        plain = np.zeros(p)
        for _ in range(6):
            plain = step(plain)
        np.testing.assert_allclose(tr.final, plain, atol=1e-13)
        assert all(status == "accepted" for _, status in tr.events)

    def test_window_two_scalar_exact(self):
        # Aitken on a scalar affine map lands on the fixed point
        tr = online_anderson(lambda x: 0.5 * x + 1.0, np.array([0.0]),
                             K=2, k_max=2)
        np.testing.assert_allclose(tr.final, [2.0], atol=1e-12)

    def test_guard_vetoes(self):
        base_step, _, p = linear_map(seed=11)
        seen = [np.zeros(p)]

        def step(x):
            out = base_step(x)
            seen.append(out)
            return out

        def guard(x):
            # only raw base iterates pass; extrapolated points always lose
            hit = any(np.array_equal(x, s) for s in seen)
            return 0.0 if hit else 1.0

        tr = online_anderson(step, np.zeros(p), K=3, k_max=9, guard=guard)
        plain = np.zeros(p)
        for _ in range(9):
            plain = step(plain)
        np.testing.assert_allclose(tr.final, plain, atol=1e-13)
        assert all(status == "rejected" for _, status in tr.events)

    def test_guard_accepts_when_better(self):
        step, x_star, p = linear_map(rho=0.9, seed=12)

        def guard(x):
            return float(np.linalg.norm(x - x_star))

        tr = online_anderson(step, np.zeros(p), K=4, k_max=24, guard=guard)
        assert any(status == "accepted" for _, status in tr.events)

    def test_determinism(self):
        step, _, p = linear_map(seed=13)
        tr1 = online_anderson(step, np.zeros(p), K=3, k_max=15)
        tr2 = online_anderson(step, np.zeros(p), K=3, k_max=15)
        np.testing.assert_array_equal(tr1.final, tr2.final)
        assert tr1.events == tr2.events

    def test_k_max_zero(self):
        tr = online_anderson(lambda x: x, np.array([1.0]), K=2, k_max=0)
        np.testing.assert_array_equal(tr.final, [1.0])
        assert tr.events == [] and tr.iterates == []

    def test_nonfinite_iterate_is_singular(self):
        # a NaN iterate inside the first window: that attempt is singular
        # and keeps the base iterate; later windows are finite again
        base_step, _, p = linear_map(seed=14)
        step = nan_once(base_step, at=2)
        tr = online_anderson(step, np.zeros(p), K=3, k_max=12)
        assert tr.events[0] == (3, "singular")
        assert tr.iterates[2].tobytes() == base_step(tr.iterates[0]).tobytes()
        assert all(status != "singular" for _, status in tr.events[1:])
        assert np.all(np.isfinite(tr.final))

    def test_step_is_freed_without_the_collector(self):
        # a solver's step holds its Gram matrix; a reference cycle would
        # keep it alive after the solve until the collector runs
        gc.disable()
        try:
            run = online(lambda x, Ax: (x + 1.0, Ax), 2,
                         lambda z, x, Ax: (z, Ax))
            for _ in range(4):
                run(np.zeros(2), None)
            assert len(run.events) == 2
            ref = weakref.ref(run)
            del run
            assert ref() is None
        finally:
            gc.enable()

    # a float K once made the window, which failed at its first push
    @pytest.mark.parametrize("K,k_max,match", [
        (2, -1, "k_max"), (0, 3, "K must"), (2.5, 3, "K must be an integer"),
        (2.0, 3, "K must be an integer"), (True, 3, "K must be an integer")])
    def test_input_checks(self, K, k_max, match):
        with pytest.raises(ArgumentError, match=match):
            online_anderson(lambda x: x, np.zeros(2), K=K, k_max=k_max)


def nan_once(step, at):
    """``step``, except that call ``at`` returns NaNs and the call after it
    continues from the last finite iterate."""
    calls, last = 0, None

    def wrapped(x):
        nonlocal calls, last
        calls += 1
        if calls == at:
            last = x
            return np.full_like(x, np.nan)
        return step(last if calls == at + 1 else x)
    return wrapped


@st.composite
def contractions(draw):
    """A symmetric map ``x -> Tx + b`` with spectral radius below 0.95,
    its fixed point, a window size and a number of steps."""
    p = draw(st.integers(1, 6))
    eigs = draw(st.lists(st.floats(-0.95, 0.95), min_size=p, max_size=p))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    Q = np.linalg.qr(rng.standard_normal((p, p)))[0]
    T = (Q * eigs) @ Q.T
    T = 0.5 * (T + T.T)
    b = rng.standard_normal(p)
    x_star = np.linalg.solve(np.eye(p) - T, b)
    return T, b, x_star, draw(st.integers(1, 6)), draw(st.integers(0, 40))


class TestOnlineProperties:
    """The shared online step on random contractions, guarded by the
    distance to the fixed point."""

    @settings(max_examples=60, deadline=None, database=None)
    @given(contractions())
    def test_guard_never_rises_and_events_fall_on_multiples(self, case):
        T, b, x_star, K, n = case
        base = []

        def step(x, _):
            base.append(T @ x + b)
            return base[-1], None

        def dist(x):
            return float(np.linalg.norm(x - x_star))

        run = online(step, K, lambda z, x, _: (z, None)
                     if dist(z) <= dist(x) else None)
        x = np.zeros(b.size)
        for _ in range(n):
            x, _ = run(x, None)
            assert dist(x) <= dist(base[-1])
        assert [call for call, _ in run.events] == list(range(K, n + 1, K))
        assert {s for _, s in run.events} <= {"accepted", "rejected",
                                              "singular"}

    @settings(max_examples=30, deadline=None, database=None)
    @given(contractions())
    def test_window_one_is_the_plain_iteration(self, case):
        T, b, x_star, _, n = case
        tr = online_anderson(lambda x: T @ x + b, np.zeros(b.size), K=1,
                             k_max=n,
                             guard=lambda x: np.linalg.norm(x - x_star))
        plain = np.zeros(b.size)
        for got in tr.iterates:
            plain = T @ plain + b
            assert got.tobytes() == plain.tobytes()


# how a window's iterates are drawn: Gaussian; one point K + 1 times;
# integer steps drawn from a few (repeated differences) or multiples of one
# step (collinear differences), so that the window is exactly rank
# deficient; iterates of an affine contraction; Gaussian scaled far from 1;
# Gaussian with one non-finite entry
WINDOW_KINDS = ("gaussian", "identical", "repeated", "collinear", "affine",
                "extreme", "nonfinite")


@st.composite
def windows(draw):
    """``(kind, W)``: ``K + 1`` iterates, K in 1..8, each of shape ``(p,)``
    with p in 1..300 or ``(a, b)`` with a * b <= 289."""
    K = draw(st.integers(1, 8))
    shape = draw(st.one_of(st.tuples(st.integers(1, 300)),
                           st.tuples(st.integers(1, 17), st.integers(1, 17))))
    kind = draw(st.sampled_from(WINDOW_KINDS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = int(np.prod(shape))
    x0 = rng.standard_normal(p)
    if kind in ("gaussian", "extreme", "nonfinite"):
        W = rng.standard_normal((K + 1, p))
    elif kind == "identical":
        W = np.repeat(x0[None], K + 1, axis=0)
    elif kind == "affine":
        M = rng.standard_normal((p, p))
        T = 0.5 * M / max(np.abs(np.linalg.eigvals(M)).max(), 1e-300)
        W = [x0]
        for _ in range(K):
            W.append(T @ W[-1] + x0)
        W = np.array(W)
    else:
        few = rng.integers(-4, 5, (int(rng.integers(1, K + 1)), p))
        steps = (few[rng.integers(0, len(few), K)] if kind == "repeated"
                 else rng.integers(-3, 4, (K, 1)) * few[0])
        W = np.cumsum(np.vstack([rng.integers(-9, 10, (1, p)), steps]),
                      axis=0).astype(np.float64)
    if kind == "extreme":
        W *= 10.0 ** float(rng.choice([-310, -160, 150, 300]))
    if kind == "nonfinite":
        W.flat[rng.integers(W.size)] = rng.choice([np.nan, np.inf, -np.inf])
    return kind, W.reshape((K + 1,) + shape)


class TestSolve:
    """The one extrapolation solve, `kernels.anderson_extrapolate`, behind
    the window, the offline driver and `extrapolation_coefficients`."""

    @settings(max_examples=400, deadline=None, database=None)
    @given(windows())
    def test_compiled_solve_is_its_loop_source(self, case):
        _, W = case
        c, x_e = kernels.anderson_extrapolate(W)
        c_ref, x_ref = C_LOOPS["anderson_extrapolate"](W)
        assert (c is None) == (c_ref is None)
        if c is not None:
            assert c.tobytes() == c_ref.tobytes()
            assert x_e.shape == W.shape[1:]
            assert x_e.tobytes() == x_ref.tobytes()
        U = (W[1:] - W[:-1]).reshape(len(W) - 1, -1)
        w, w_ref = (kernels.anderson_weights(U),
                    C_LOOPS["anderson_weights"](U))
        assert (w is None) == (w_ref is None) == (c is None)
        if w is not None:
            assert w.tobytes() == w_ref.tobytes() == c.tobytes()

    def test_rank_cut_when_p_is_below_k(self):
        # K = 3 differences of p = 2 entries: the second pivot of the
        # eliminated columns, |R_11| = 2.5 eps |R_00|, lies above the cut
        # eps * max(p, K - 1) * |R_00|, so rank 2 is kept; a cut at
        # eps * max(p, K) * |R_00| would drop it and give (0, 0, 1)
        eps = np.finfo(np.float64).eps
        U = np.array([[1.0, 0.5], [1.0, 0.5 + 2.5 * eps], [0.0, 0.5]])
        c = kernels.anderson_weights(U)
        assert c.tobytes() == C_LOOPS["anderson_weights"](U).tobytes()
        np.testing.assert_allclose(c, [0.2 / eps, -0.2 / eps, 1.0],
                                   rtol=1e-12)

    @settings(max_examples=200, deadline=None, database=None)
    @given(windows())
    def test_window_cases(self, case):
        kind, W = case
        K = len(W) - 1
        window = ExtrapolationWindow(K)
        for x in W:
            window.push(x)
        res = window.extrapolate()
        if kind == "nonfinite":
            assert not res.solved and res.coefficients is None
            assert res.point.tobytes() == W[-1].tobytes()
            return
        if kind == "extreme":
            return  # solved or singular: the bits are the property above
        assert res.solved and np.isfinite(res.coefficients).all()
        assert res.point.shape == W.shape[1:]
        if K == 1:
            assert res.coefficients.tolist() == [1.0]
        if K == 1 or kind == "identical":
            assert np.array_equal(res.point, W[-1])
        if kind == "identical":
            assert res.coefficients.tolist() == [0.0] * (K - 1) + [1.0]
        # the weights do no worse than the last iterate alone
        U = (W[1:] - W[:-1]).reshape(K, -1)
        assert (np.linalg.norm(U.T @ res.coefficients)
                <= np.linalg.norm(U[-1]) * (1 + 1e-9))
        # one solve behind every path
        coeffs, ok = extrapolation_coefficients(U.T)
        assert ok and coeffs.tobytes() == res.coefficients.tobytes()
        rows = iter(W[1:])
        offline = offline_anderson(lambda _: next(rows), W[0], K)
        assert offline.solved[-1]
        assert offline.extrapolated[-1].tobytes() == res.point.tobytes()

    @settings(max_examples=100, deadline=None, database=None)
    @given(st.integers(1, 12), st.integers(0, 2**32 - 1))
    def test_affine_contraction_fixed_point(self, p, seed):
        # p + 1 iterates after the first: the window's K = p + 1
        # differences span the Krylov space, so the point is the fixed one
        rng = np.random.default_rng(seed)
        M = rng.standard_normal((p, p))
        T = 0.5 * M / np.abs(np.linalg.eigvals(M)).max()
        b = rng.standard_normal(p)
        x_star = np.linalg.solve(np.eye(p) - T, b)
        window, x = ExtrapolationWindow(p + 1), np.zeros(p)
        window.push(x)
        for _ in range(p + 1):
            x = T @ x + b
            window.push(x)
        res = window.extrapolate()
        assert res.solved
        np.testing.assert_allclose(res.point, x_star, rtol=0, atol=1e-10)
