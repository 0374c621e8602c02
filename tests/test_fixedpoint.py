import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extracd import fixedpoint
from extracd.errors import ArgumentError
from extracd.fixedpoint import (DENSE_LIMIT, LinearIteration, Quadratic,
                                RateBound, cd_iteration, cdsym_iteration,
                                gd_iteration, numerical_range_boundary,
                                spectral_radius)


def random_quadratic(p, seed, cond=50.0):
    rng = np.random.default_rng(seed)
    lams = np.exp(rng.uniform(np.log(1.0 / cond), 0.0, size=p))
    Q = np.linalg.qr(rng.standard_normal((p, p)))[0]
    H = (Q * lams) @ Q.T
    H = 0.5 * (H + H.T)
    return Quadratic(H, rng.standard_normal(p))


def coordinate_factor(H, j):
    """Single-coordinate exact minimization as a rank-one affine update."""
    p = H.shape[0]
    F = np.eye(p)
    F[j] -= H[j] / H[j, j]
    return F


class TestQuadratic:
    def test_validation(self):
        with pytest.raises(ArgumentError):
            Quadratic(np.array([[1.0, 2.0], [0.0, 1.0]]), np.zeros(2))
        with pytest.raises(ArgumentError):
            Quadratic(np.array([[1.0, 0.0], [0.0, -1.0]]), np.zeros(2))
        with pytest.raises(ArgumentError):
            Quadratic(np.eye(2), np.zeros(3))

    def test_value_gradient_solve(self):
        quad = random_quadratic(6, seed=0)
        x = np.random.default_rng(1).standard_normal(6)
        v = 0.5 * x @ quad.H @ x + quad.b @ x
        assert math.isclose(quad.value(x), v, rel_tol=1e-12)
        np.testing.assert_allclose(quad.gradient(x), quad.H @ x + quad.b)
        xs = quad.solve()
        np.testing.assert_allclose(quad.H @ xs, -quad.b, atol=1e-10)
        assert quad.value(xs) <= quad.value(x)


class TestGdIteration:
    def test_matrix_and_fixed_point(self):
        quad = random_quadratic(8, seed=2)
        L = float(np.linalg.eigvalsh(quad.H)[-1])
        it = gd_iteration(quad, L)
        np.testing.assert_allclose(it.T, np.eye(8) - quad.H / L)
        np.testing.assert_allclose(it.fixed_point(), quad.solve(),
                                   atol=1e-10)
        x = np.ones(8)
        np.testing.assert_allclose(it.apply(x), x - quad.gradient(x) / L)

    def test_step_validation(self):
        quad = random_quadratic(3, seed=3)
        with pytest.raises(ArgumentError):
            gd_iteration(quad, 0.0)
        with pytest.raises(ArgumentError):
            gd_iteration(quad, float("nan"))


class TestCdIteration:
    def test_matches_factor_product(self):
        quad = random_quadratic(7, seed=4)
        it = cd_iteration(quad)
        T_ref = np.eye(7)
        for j in range(7):  # coordinate 0 applied first
            T_ref = coordinate_factor(quad.H, j) @ T_ref
        np.testing.assert_allclose(it.T, T_ref, atol=1e-12)
        np.testing.assert_allclose(it.fixed_point(), quad.solve(),
                                   atol=1e-9)
        assert it.kind == "cd"

    def test_epoch_is_affine(self):
        # probing is only valid if the epoch really is affine
        quad = random_quadratic(5, seed=5)
        it = cd_iteration(quad)
        rng = np.random.default_rng(6)
        x, z = rng.standard_normal((2, 5))
        lhs = it.apply(0.3 * x + 0.7 * z)
        rhs = 0.3 * it.apply(x) + 0.7 * it.apply(z) \
            - (0.3 + 0.7 - 1.0) * it.b_vec
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_spectral_radius_below_one(self):
        quad = random_quadratic(10, seed=7)
        assert cd_iteration(quad).spectral_radius() < 1.0


class TestCdsymIteration:
    def test_double_sweep_product(self):
        quad = random_quadratic(6, seed=8)
        it, S = cdsym_iteration(quad)
        T_ref = np.eye(6)
        for j in range(6):
            T_ref = coordinate_factor(quad.H, j) @ T_ref
        for j in reversed(range(6)):
            T_ref = coordinate_factor(quad.H, j) @ T_ref
        np.testing.assert_allclose(it.T, T_ref, atol=1e-12)

    def test_similarity_and_symmetry(self):
        quad = random_quadratic(9, seed=9)
        it, S = cdsym_iteration(quad)
        np.testing.assert_allclose(S, S.T, atol=1e-12)
        w, V = np.linalg.eigh(quad.H)
        H_half = (V * np.sqrt(w)) @ V.T
        H_half_inv = (V / np.sqrt(w)) @ V.T
        np.testing.assert_allclose(S, H_half @ it.T @ H_half_inv,
                                   atol=1e-9)
        # spectrum is shared, real, inside [0, 1)
        s_eigs = np.linalg.eigvalsh(S)
        assert s_eigs[0] >= -1e-12
        assert s_eigs[-1] < 1.0
        assert math.isclose(it.spectral_radius(), spectral_radius(S),
                            abs_tol=1e-10)

    def test_rejects_indefinite(self):
        H = np.diag([1.0, 1.0])
        H[0, 0] = 1e-15  # far below the relative eigenvalue floor
        # positive diagonal passes the Quadratic check, sqrt must refuse
        with pytest.raises(ArgumentError):
            cdsym_iteration(Quadratic(H, np.zeros(2)))


class TestSpectralRadius:
    def test_known_matrix(self):
        T = np.array([[0.0, -2.0], [1.0, 0.0]])
        assert math.isclose(spectral_radius(T), math.sqrt(2.0),
                            rel_tol=1e-12)
        assert spectral_radius(np.zeros((0, 0))) == 0.0

    def test_validation(self):
        with pytest.raises(ArgumentError):
            spectral_radius(np.ones((2, 3)))
        with pytest.raises(ArgumentError):
            spectral_radius(np.full((2, 2), np.nan))
        with pytest.raises(ArgumentError):
            spectral_radius(np.eye(DENSE_LIMIT + 1))


class TestRateBound:
    def make(self, rho=0.96, p=12, seed=10, kind="gd"):
        rng = np.random.default_rng(seed)
        lams = np.linspace(1.0 - rho, 1.0, p)
        Q = np.linalg.qr(rng.standard_normal((p, p)))[0]
        H = (Q * lams) @ Q.T
        quad = Quadratic(0.5 * (H + H.T), np.zeros(p))
        if kind == "gd":
            return gd_iteration(quad, 1.0), quad
        return cdsym_iteration(quad)[0], quad

    def test_zeta_formula(self):
        it, quad = self.make(rho=0.96)
        rb = RateBound.from_iteration(it, quad.H)
        root = math.sqrt(1.0 - rb.rho)
        assert math.isclose(rb.zeta, (1 - root) / (1 + root), rel_tol=1e-9)
        assert math.isclose(rb.rho, 0.96, abs_tol=1e-9)

    def test_factors(self):
        it, quad = self.make()
        rb = RateBound.from_iteration(it, quad.H)
        assert math.isclose(rb.offline_factor(1), 1.0)
        z = rb.zeta ** 9
        assert math.isclose(rb.offline_factor(10), 2 * z / (1 + z * z),
                            rel_tol=1e-12)
        assert math.isclose(rb.online_factor(10, 10), rb.offline_factor(10),
                            rel_tol=1e-12)
        assert math.isclose(rb.online_factor(20, 10),
                            rb.offline_factor(10) ** 2, rel_tol=1e-12)

    def test_b_norm_matrix(self):
        it, quad = self.make()
        rb = RateBound.from_iteration(it, quad.H)
        E = it.T - np.eye(quad.dim)
        np.testing.assert_allclose(rb.B, E.T @ E, atol=1e-12)
        v = np.ones(quad.dim)
        assert math.isclose(rb.b_norm(v), math.sqrt(v @ rb.B @ v),
                            rel_tol=1e-12)

    def test_cdsym_prefactor(self):
        it, quad = self.make(kind="cdsym", rho=0.9)
        rb = RateBound.from_iteration(it, quad.H)
        w = np.linalg.eigvalsh(quad.H)
        assert math.isclose(rb.prefactor, math.sqrt(w[-1] / w[0]),
                            rel_tol=1e-9)
        assert rb.offline_factor(5) > 0

    @pytest.mark.parametrize("factor,args", [
        ("offline_factor", (0,)), ("online_factor", (0, 2)),
        ("online_factor", (3, 0))])
    def test_factor_input_checks(self, factor, args):
        it, quad = self.make()
        rb = RateBound.from_iteration(it, quad.H)
        with pytest.raises(ArgumentError, match=">= 1"):
            getattr(rb, factor)(*args)

    def test_kind_and_contraction_validation(self):
        quad = random_quadratic(4, seed=11)
        it = cd_iteration(quad)
        with pytest.raises(ArgumentError):
            RateBound.from_iteration(it, quad.H)
        expanding = LinearIteration(np.eye(3) * 1.5, np.zeros(3), kind="gd")
        with pytest.raises(ArgumentError):
            RateBound.from_iteration(expanding, np.eye(3))
        halving = LinearIteration(np.eye(2) * 0.5, np.zeros(2), kind="gd")
        with pytest.raises(ArgumentError, match="positive definite"):
            RateBound.from_iteration(halving, np.diag([1.0, -1.0]))


def brute_force_range(T, q, n_angles):
    """One Hermitian eigendecomposition per grid angle."""
    M = np.linalg.matrix_power(np.asarray(T, dtype=np.float64), q)
    angles = np.linspace(0.0, 2.0 * np.pi, n_angles, endpoint=False)
    support = np.empty(n_angles)
    for i, theta in enumerate(angles):
        R = np.exp(1j * theta) * M
        support[i] = np.linalg.eigh(0.5 * (R + R.conj().T))[0][-1]
    return angles, support


class TestNumericalRange:
    @pytest.mark.parametrize("n_angles", [8, 10, 9, 180])
    @pytest.mark.parametrize("q", [1, 3])
    def test_matches_brute_force(self, q, n_angles):
        rng = np.random.default_rng(21)
        T = np.triu(rng.standard_normal((12, 12))) * 0.3
        T[4, 1] = 0.7
        nr = numerical_range_boundary(T, q=q, n_angles=n_angles)
        angles, support = brute_force_range(T, q, n_angles)
        np.testing.assert_array_equal(nr.angles, angles)
        np.testing.assert_allclose(nr.support, support, rtol=0, atol=1e-12)
        on_line = np.real(np.exp(1j * angles) * nr.points)
        np.testing.assert_allclose(on_line, support, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n_angles", [8, 10, 9])
    def test_degenerate_top_eigenvalue(self, n_angles):
        nr = numerical_range_boundary(np.eye(3) * 0.5, q=1, n_angles=n_angles)
        angles, support = brute_force_range(np.eye(3) * 0.5, 1, n_angles)
        np.testing.assert_allclose(nr.support, support, rtol=0, atol=1e-12)
        np.testing.assert_allclose(nr.points, 0.5, rtol=0, atol=1e-12)

    def test_eigendecompositions_per_sweep(self, monkeypatch):
        calls = []
        eigh = np.linalg.eigh

        def counting_eigh(a, *args, **kwargs):
            calls.append(a.shape)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        T = np.random.default_rng(22).standard_normal((6, 6)) * 0.3
        numerical_range_boundary(T, q=2, n_angles=180)
        assert len(calls) == 180 // 4 + 1 == 46
        calls.clear()
        numerical_range_boundary(T, q=2, n_angles=9)
        assert len(calls) == 9 // 2 + 1

    def test_symmetric_matrix_segment(self):
        # for symmetric T the range is the segment [min eig, max eig]
        T = np.diag([0.2, 0.5, 0.9])
        nr = numerical_range_boundary(T, q=1, n_angles=180)
        assert nr.contains(0.2) and nr.contains(0.9) and nr.contains(0.55)
        assert not nr.contains(0.95)
        assert not nr.contains(0.5 + 0.2j)
        assert not nr.contains_one

    def test_contains_spectrum_of_power(self):
        rng = np.random.default_rng(12)
        T = rng.standard_normal((10, 10)) * 0.2
        for q in (1, 3):
            nr = numerical_range_boundary(T, q=q, n_angles=240)
            for ev in np.linalg.eigvals(T):
                assert nr.contains(complex(ev) ** q, tol=1e-8)

    def test_power_shrinks_contractions(self):
        quad = random_quadratic(8, seed=13, cond=10.0)
        it = cd_iteration(quad)
        nr1 = numerical_range_boundary(it.T, q=1, n_angles=120)
        nr64 = numerical_range_boundary(it.T, q=64, n_angles=120)
        assert nr64.support.max() < nr1.support.max()
        assert not nr64.contains_one

    def test_csv_output(self, tmp_path):
        nr = numerical_range_boundary(np.eye(2) * 0.5, q=1, n_angles=8)
        path = tmp_path / "range.csv"
        nr.save_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "angle,re,im"
        assert len(lines) == 9
        first = [float(tok) for tok in lines[1].split(",")]
        assert first[0] == 0.0 and math.isclose(first[1], 0.5)

    def test_validation(self):
        with pytest.raises(ArgumentError):
            numerical_range_boundary(np.eye(3), q=0)
        with pytest.raises(ArgumentError):
            numerical_range_boundary(np.eye(3), n_angles=2)
        with pytest.raises(ArgumentError):
            numerical_range_boundary(np.ones((2, 3)))
        with pytest.raises(ArgumentError, match="finite"):
            numerical_range_boundary(np.array([[0.5, np.nan], [0.0, 0.5]]))


def assert_matches_brute_force(T, q, n_angles):
    """Support and on-line points within 1e-12 of ||T^q||, and no support
    above the brute-force one by more than that."""
    nr = numerical_range_boundary(T, q=q, n_angles=n_angles)
    angles, support = brute_force_range(T, q, n_angles)
    M = np.linalg.matrix_power(np.asarray(T, dtype=np.float64), q)
    tol = 1e-12 * max(1.0, np.linalg.norm(M, 2))
    np.testing.assert_allclose(nr.support, support, rtol=0, atol=tol)
    on_line = np.real(np.exp(1j * angles) * nr.points)
    np.testing.assert_allclose(on_line, support, rtol=0, atol=tol)
    assert (nr.support - support).max() <= tol
    return nr


@st.composite
def non_normal_matrices(draw):
    # dimensions above the Lanczos step cap, so the Krylov runs are taken
    n = draw(st.integers(fixedpoint._LANCZOS_STEPS + 1, 120))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    skew = draw(st.floats(0.0, 2.0))
    return (rng.standard_normal((n, n))
            + skew * np.triu(rng.standard_normal((n, n)), 1)) / math.sqrt(n)


class TestLanczosRange:
    """The Lanczos path: dimensions above `fixedpoint._LANCZOS_STEPS`."""

    @settings(max_examples=12, deadline=None, database=None)
    @given(non_normal_matrices(), st.sampled_from([1, 3]),
           st.integers(8, 40))
    def test_matches_brute_force(self, T, q, n_angles):
        assert_matches_brute_force(T, q, n_angles)

    @pytest.mark.parametrize("case", [
        "half_identity", "repeated_top", "jordan", "symmetric"])
    def test_breakdown_and_degenerate_cases(self, case, monkeypatch):
        # every case has its Krylov runs fall back at two angles in a row
        # (by breakdown, or at the step cap for the Jordan block's small
        # top gap), after which the sweep decomposes outright
        runs = []
        lanczos_ends = fixedpoint._lanczos_ends

        def counting_lanczos_ends(*args):
            runs.append(lanczos_ends(*args))
            return runs[-1]

        monkeypatch.setattr(fixedpoint, "_lanczos_ends",
                            counting_lanczos_ends)
        n = 64
        rng = np.random.default_rng(31)
        if case == "half_identity":
            T = 0.5 * np.eye(n)
        elif case == "repeated_top":
            T = np.diag(np.r_[0.9, 0.9, 0.9, rng.uniform(-0.8, 0.8, n - 3)])
        elif case == "jordan":
            T = 0.3 * np.eye(n) + np.eye(n, k=1)
        else:
            G = rng.standard_normal((n, n)) / math.sqrt(n)
            T = 0.5 * (G + G.T)
        nr = assert_matches_brute_force(T, 1, 180)
        assert len(runs) <= 3 and runs[-2:] == [None, None]
        if case == "half_identity":
            np.testing.assert_allclose(nr.points, 0.5, rtol=0, atol=1e-12)
        if case == "jordan":
            # the range is the disk about 0.3 of radius cos(pi / (n + 1))
            want = 0.3 * np.cos(nr.angles) + np.cos(np.pi / (n + 1))
            np.testing.assert_allclose(nr.support, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("q", [1, 128])
    def test_pass_matrix_takes_no_fallback(self, q, monkeypatch):
        # the cd pass matrix of a p = 200 quadratic with condition 1e4: no
        # angle after the first (theta = 0, where Hh is real) may fall
        # back to a full decomposition
        p = 200
        Q, _ = np.linalg.qr(
            np.random.default_rng(11).standard_normal((p, p)))
        H = (Q * np.logspace(-4, 0, p)) @ Q.T
        T = cd_iteration(Quadratic(0.5 * (H + H.T), np.zeros(p))).T
        decomposed = []
        eigh = np.linalg.eigh

        def counting_eigh(a, *args, **kwargs):
            if a.shape == (p, p):
                decomposed.append(bool(np.any(a.imag)))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        nr = numerical_range_boundary(T, q=q, n_angles=180)
        assert not any(decomposed), decomposed
        assert len(decomposed) <= 1
        monkeypatch.undo()
        # every ninth angle of the grid is an angle of a 20-angle grid
        angles, support = brute_force_range(T, q, 20)
        np.testing.assert_allclose(nr.angles[::9], angles, rtol=1e-15)
        tol = 1e-12 * max(1.0, np.linalg.norm(np.linalg.matrix_power(T, q), 2))
        np.testing.assert_allclose(nr.support[::9], support, rtol=0, atol=tol)


def test_dense_limit_guard():
    big = np.eye(DENSE_LIMIT + 1)
    quad = Quadratic(big, np.zeros(DENSE_LIMIT + 1))
    with pytest.raises(ArgumentError):
        gd_iteration(quad, 1.0)
    with pytest.raises(ArgumentError):
        cd_iteration(quad)
