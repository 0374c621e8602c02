"""Micro-benchmark of one coordinate pass, of the sparse products and of
the LibSVM parse.

On a synthetic dense-stored ``--n`` x ``--p`` design, and on a
1000 x 1000, 1 %-dense 0/1 design (cases ``sparse_*``), times the CSC
products and one pass from x = 0 of the epoch that ``problems`` selects
for a lasso (``lasso_pass``) and an l1 logistic regression
(``logreg_l1_pass``) at lambda_max / 10: the pass a solve runs, so a
dense design with at most 2000 columns is swept through its Gram matrix.
Each pass is built and bound to its order, Gram matrix included, before
its timer starts, because that is per-solve set-up.
``sparse_parse_libsvm`` times `data.parse_libsvm` of the sparse design
with its labels, serialized to LibSVM bytes before the timer starts.
``quad_gs_pass``
times one cyclic pass (a Gauss-Seidel step) of a seeded p = 200
quadratic.  ``anderson_extrapolate_p200`` and ``_p500`` time one
`ExtrapolationWindow.extrapolate` (the weights' solve and the point) of
a seeded window of K + 1 = 6 iterates of 200, resp. 500 coordinates.
Whole operations (solves, numerical ranges) are timed by
``perfbench/run.py``.

BLAS is pinned to one thread.  Run from the repository root as::

    PYTHONPATH=src python3 benchmarks/kernel_bench.py [--n 2000] [--p 4000]
        [--repeat 20] [--json PATH]

``--json`` also writes the timings (best of the repeats, in seconds) with
the arguments, the backend and the flags its C loops were built with
(``kernel_cflags``), the versions and the BLAS variables to ``PATH``.
"""

import os

# before numpy loads, so that BLAS starts single-threaded
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from extracd import anderson, data, kernels, problems  # noqa: E402
from extracd.data import CscMatrix, gen_correlated_gaussian  # noqa: E402
from extracd.kernels import BACKEND  # noqa: E402

QUAD_DIM = 200
SPARSE_DIM = 1000
SPARSE_DENSITY = 0.01
ANDERSON_K = 5
ANDERSON_DIMS = (200, 500)


def time_call(fn, repeat):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def sparse_design():
    """0/1 features about 1 % dense with -1/+1 labels (the logreg-grid
    workload's shape)."""
    rng = np.random.default_rng(0)
    M = rng.random((SPARSE_DIM, SPARSE_DIM)) < SPARSE_DENSITY
    y = np.where(rng.random(SPARSE_DIM) < 0.5, -1.0, 1.0)
    return CscMatrix.from_dense(M), y


def selected_pass(prob):
    """One cyclic pass from x = 0 of the epoch a solve of ``prob`` runs,
    bound here to its order."""
    datafit, penalty = prob.datafit, prob.penalty
    bind = penalty.epoch(datafit, datafit.coordinate_lipschitz(penalty))
    n, p = prob.A.n_rows, prob.A.n_cols
    run = bind(np.arange(p, dtype=np.int64))
    return lambda: run(np.zeros(p), np.zeros(n))


def kernel_cases(A, y, prefix=""):
    """(name, call) pairs; each call runs one product or one pass."""
    n, p = A.n_rows, A.n_cols
    cases = [
        ("csc_matvec", lambda: kernels.csc_matvec(
            A.values, A.row_idx, A.col_ptr, n, np.ones(p))),
        ("csc_rmatvec", lambda: kernels.csc_rmatvec(
            A.values, A.row_idx, A.col_ptr, y)),
    ]
    for name, cls, labels in (("lasso_pass", problems.Lasso, y),
                              ("logreg_l1_pass", problems.LogRegL1,
                               np.sign(y) + (y == 0))):
        lam = problems.lambda_max(cls(A, labels, 1.0)) / 10
        cases.append((name, selected_pass(cls(A, labels, lam))))
    return [(prefix + name, call) for name, call in cases]


def parse_case(A, y):
    """(name, call): the parse of ``A`` and ``y`` written as LibSVM."""
    raw = data.serialize_libsvm(data.Dataset(A, y)).encode()
    return "sparse_parse_libsvm", lambda: data.parse_libsvm(raw, A.n_cols)


def quad_gs_pass():
    """One cyclic pass from x = 0 of a seeded SPD quadratic; its cost does
    not depend on the spectrum."""
    rng = np.random.default_rng(0)
    M = rng.standard_normal((QUAD_DIM, QUAD_DIM))
    quad = problems.Quadratic(M @ M.T / QUAD_DIM + np.eye(QUAD_DIM),
                              rng.standard_normal(QUAD_DIM))
    sweep = quad.cd_sweep(np.arange(QUAD_DIM, dtype=np.int64))
    return lambda: sweep(np.zeros(QUAD_DIM), np.zeros(QUAD_DIM))


def anderson_case(p):
    """(name, call): one extrapolation of a full window of ``ANDERSON_K +
    1`` seeded Gaussian iterates of ``p`` coordinates."""
    window = anderson.ExtrapolationWindow(ANDERSON_K)
    for x in np.random.default_rng(p).standard_normal((ANDERSON_K + 1, p)):
        window.push(x)
    return f"anderson_extrapolate_p{p}", window.extrapolate


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=2000)
    ap.add_argument("--p", type=int, default=4000)
    ap.add_argument("--repeat", type=int, default=20)
    ap.add_argument("--json", metavar="PATH")
    args = ap.parse_args(argv)

    ds, _ = gen_correlated_gaussian(args.n, args.p, 0.5, 3.0, seed=0)
    S, y_s = sparse_design()

    results = []
    print(f"dense-stored n={args.n} p={args.p} nnz={ds.A.nnz}; sparse "
          f"n=p={SPARSE_DIM} nnz={S.nnz}; quadratic p={QUAD_DIM} "
          f"(best of {args.repeat})")
    print(f"{'case':26s} {BACKEND:>10s}")
    for name, call in (kernel_cases(ds.A, ds.y)
                       + kernel_cases(S, y_s, "sparse_")
                       + [parse_case(S, y_s),
                          ("quad_gs_pass", quad_gs_pass())]
                       + [anderson_case(p) for p in ANDERSON_DIMS]):
        t = time_call(call, repeat=args.repeat)
        results.append({"case": name, "backend": BACKEND, "best_s": t})
        print(f"{name:26s} {t * 1e3:8.3f}ms")

    if args.json:
        blas_env = {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
        settings = {k: v for k, v in vars(args).items() if k != "json"}
        report = {"args": settings, "kernel_backend": BACKEND,
                  "kernel_cflags": kernels.CFLAGS,
                  "python": platform.python_version(),
                  "numpy": np.__version__, "blas_env": blas_env,
                  "cases": results}
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")


if __name__ == "__main__":
    main()
