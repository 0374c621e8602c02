"""The three workloads of the extracd benchmark.

A workload has three steps.  ``inputs(seed, workdir)`` is the benchmark's
own input generation and is not timed.  ``setup(inputs, ops)`` is the
library-side set-up, timed as ``setup_s``.  ``body(state, ops)`` is the
timed body, timed as ``wall_s``.  Every library call that can fail goes
through ``ops.call`` with the `checks.Check` that judges its outcome.

Library entry points are always reached through their module
(``solvers.solve``, never a name imported from it), so that the traced run
sees every call.
"""

import contextlib
import io
import os
import shutil

import numpy as np

from extracd import cli, data, fixedpoint, kernels, problems, solvers

import checks


class LassoDense:
    """Six 100 x 500 correlated-Gaussian lasso problems, stored as CSC
    although fully dense, each solved by ``pcd_anderson`` to gap 1e-10.

    The designs come from ``gen_correlated_gaussian`` with the fixed data
    seeds 0..5; the workload seed rotates the column order of each (where
    the cyclic sweep starts) and flips column signs.  The problems stay
    isometric to the fixed ones, so the seed moves the iterates but hardly
    the difficulty.  Fresh designs per seed change the time to gap
    threefold, and random column orders by 8 % over the six problems,
    either of which would hide a smaller change.
    """

    name = "lasso-dense"
    N, P, CORR, SNR = 100, 500, 0.5, 3.0
    INSTANCES = 6
    LAMBDA_DIV = 20.0
    TOL = 1e-10
    MAX_EPOCHS = 20000

    def inputs(self, seed, workdir):
        rng = np.random.default_rng(seed)
        return [(np.roll(np.arange(self.P), rng.integers(self.P)),
                 rng.choice((-1.0, 1.0), self.P))
                for _ in range(self.INSTANCES)]

    def setup(self, inputs, ops):
        kernels.warmup()
        state = []
        for i, (perm, signs) in enumerate(inputs):
            ds, _ = data.gen_correlated_gaussian(self.N, self.P, self.CORR,
                                                 self.SNR, seed=i)
            with ops.untimed():
                col_ptr, row_idx, values = _permute_columns(ds.A, perm,
                                                            signs)
            A = data.CscMatrix(self.N, self.P, col_ptr, row_idx, values)
            lam = problems.lambda_max(problems.Lasso(A, ds.y, 1.0))
            prob = problems.Lasso(A, ds.y, lam / self.LAMBDA_DIV)
            with ops.untimed():
                check = checks.LassoSolve(f"lasso[{i}]", _dense(A), ds.y,
                                          prob.lam, self.TOL)
            state.append((prob, check))
        return state

    def body(self, state, ops):
        cfg = solvers.SolverConfig(algorithm="pcd_anderson", tol=self.TOL,
                                   max_epochs=self.MAX_EPOCHS)
        for prob, check in state:
            ops.call(check, solvers.solve, prob, cfg)


class QuadSpectral:
    """The criterion-07 quadratic: p = 200, spectrum log-spaced over
    1e-4..1, eigenvectors from the criterion's fixed seed 11, and the
    linear term drawn from the workload seed.

    Fixing H fixes the spectral diagnostics and the difficulty; drawing the
    eigenvectors from the workload seed as well spreads the epochs of
    ``cdsym_anderson`` by 20 % between seeds.

    Solved by ``pcd_anderson``, ``cdsym_anderson``, ``gd_anderson`` and
    ``cg`` to gradient 1e-10, then analysed with ``cd_iteration``,
    ``cdsym_iteration``, ``RateBound.from_iteration`` and
    ``numerical_range_boundary`` at a small and a large power.
    """

    name = "quad-spectral"
    P = 200
    SOLVERS = ("pcd_anderson", "cdsym_anderson", "gd_anderson", "cg")
    TOL = 1e-10
    MAX_EPOCHS = 100000
    POWERS = (1, 128)
    ANGLES = 180

    def inputs(self, seed, workdir):
        rng = np.random.default_rng(11)
        Q, _ = np.linalg.qr(rng.standard_normal((self.P, self.P)))
        spectrum = np.logspace(-4, 0, self.P)
        H = (Q * spectrum) @ Q.T
        H = 0.5 * (H + H.T)
        b = np.random.default_rng(seed).standard_normal(self.P)
        ref = checks.QuadReference.build(H, b, spectrum[-1] / spectrum[0])
        return ref, [checks.RangeCheck(f"range_q{q}", ref, q)
                     for q in self.POWERS]

    def setup(self, inputs, ops):
        ref, range_checks = inputs
        kernels.warmup()
        quad = fixedpoint.Quadratic(ref.H, ref.b)
        return quad, ref, range_checks

    def body(self, state, ops):
        quad, ref, range_checks = state
        for alg in self.SOLVERS:
            cfg = solvers.SolverConfig(algorithm=alg, tol=self.TOL,
                                       max_epochs=self.MAX_EPOCHS)
            ops.call(checks.QuadSolve(alg, ref, self.TOL), solvers.solve,
                     quad, cfg)
        it = ops.call(checks.PassMatrix("cd_iteration", ref, False),
                      fixedpoint.cd_iteration, quad)
        sym = ops.call(checks.PassMatrix("cdsym_iteration", ref, True),
                       fixedpoint.cdsym_iteration, quad)
        ops.call(checks.RateBoundCheck(ref),
                 lambda: fixedpoint.RateBound.from_iteration(sym[0], quad.H))
        for q, check in zip(self.POWERS, range_checks):
            ops.call(check, lambda q=q: fixedpoint.numerical_range_boundary(
                it.T, q=q, n_angles=self.ANGLES))


class LogregGrid:
    """A 1000 x 1000 design of 0/1 features (about 1 % dense) with -1/+1
    labels, written as LibSVM and run through the CLI.

    With 0/1 features the top eigenvalue of A'A stands apart, so the power
    iteration inside ``fista`` stops after a steady ~25 steps; with Gaussian
    values it runs anywhere up to its 1000-step cap depending on the seed.
    The epoch cap is below the epochs ``pcd_anderson`` needs, so all three
    jobs do a fixed amount of work; time to gap is measured by the set-up's
    reference solve and by the other workloads.

    Set-up is ``extracd ref`` on a cold cache; the body is ``extracd bench``
    on the warm cache with ``logreg_l1`` at lambda_max / 10 and the solvers
    ``pcd``, ``pcd_anderson`` and ``fista`` for at most 40 epochs each.
    """

    name = "logreg-grid"
    N = P = 1000
    DENSITY = 0.01
    LAMBDA_FRAC = 0.1
    SOLVERS = ("pcd", "pcd_anderson", "fista")
    MAX_EPOCHS = 40
    TOL = 1e-10

    def inputs(self, seed, workdir):
        rng = np.random.default_rng(seed)
        # row by row, so that no dense n x p array inflates peak_rss_mb
        counts = rng.binomial(self.P, self.DENSITY, size=self.N)
        rows = np.repeat(np.arange(self.N), counts)
        cols = np.concatenate([np.sort(rng.choice(self.P, k, replace=False))
                               for k in counts])
        vals = np.ones(rows.size)
        w = np.where(rng.random(self.P) < 0.1, rng.standard_normal(self.P),
                     0.0)
        margin = np.bincount(rows, weights=vals * w[cols], minlength=self.N)
        y = np.where(margin + 0.1 * rng.standard_normal(self.N) >= 0, 1.0,
                     -1.0)
        prob = checks.CooProblem(rows, cols, vals, y, self.N, self.P,
                                 self.LAMBDA_FRAC)

        libsvm = os.path.join(workdir, "grid.libsvm")
        starts = np.searchsorted(rows, np.arange(self.N + 1))
        with open(libsvm, "w", encoding="utf-8") as fh:
            for i in range(self.N):
                sl = slice(starts[i], starts[i + 1])
                feats = " ".join(f"{j + 1}:{v:.17g}"
                                 for j, v in zip(cols[sl], vals[sl]))
                fh.write(f"{y[i]:g} {feats}\n")
        config = os.path.join(workdir, "grid.ini")
        with open(config, "w", encoding="utf-8") as fh:
            fh.write(
                "[dataset]\nsource = path\n"
                f"path = {libsvm}\nn_cols = {self.P}\n"
                "[problem]\nkind = logreg_l1\n"
                f"lambda_fracs = {self.LAMBDA_FRAC:g}\n"
                f"[solvers]\nnames = {', '.join(self.SOLVERS)}\n"
                f"[run]\nmax_epochs = {self.MAX_EPOCHS}\ntol = {self.TOL:g}\n"
                "seed = 0\n")
        tags = [f"logreg_l1_lf{self.LAMBDA_FRAC:g}"]
        return {"config": config, "workdir": workdir,
                "bench_check": checks.GridBench(prob, tags, self.SOLVERS,
                                                self.TOL),
                "ref_check": checks.GridReference(prob)}

    def setup(self, inputs, ops):
        with ops.untimed():
            out_dir = os.path.join(inputs["workdir"], "grid")
            shutil.rmtree(out_dir, ignore_errors=True)
        kernels.warmup()
        ops.call(inputs["ref_check"], _run_cli,
                 ["ref", "--config", inputs["config"], "--out", out_dir],
                 out_dir)
        return inputs, out_dir

    def body(self, state, ops):
        inputs, out_dir = state
        ops.call(inputs["bench_check"], _run_cli,
                 ["bench", "--config", inputs["config"], "--out", out_dir],
                 out_dir)


WORKLOADS = {w.name: w for w in (LassoDense, LogregGrid, QuadSpectral)}


def _run_cli(argv, out_dir):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return checks.CliResult(code, out.getvalue(), err.getvalue(), out_dir)


def _permute_columns(A, perm, signs):
    # column k of the result is signs[k] * column perm[k] of A
    lengths = np.diff(A.col_ptr)[perm]
    col_ptr = np.concatenate(([0], np.cumsum(lengths)))
    take = np.concatenate([np.arange(A.col_ptr[j], A.col_ptr[j + 1])
                           for j in perm])
    return (col_ptr, A.row_idx[take],
            A.values[take] * np.repeat(signs, lengths))


def _dense(A):
    out = np.zeros((A.n_rows, A.n_cols))
    cols = np.repeat(np.arange(A.n_cols), np.diff(A.col_ptr))
    out[A.row_idx, cols] = A.values
    return out
