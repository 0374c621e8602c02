"""Micro-benchmark of the compiled kernels against the numpy fallbacks.

Times one epoch of each coordinate-update kernel plus the sparse
matrix-vector products on a synthetic dense-stored problem, and the
same kernels (epochs from x = 0 at lambda_max / 10) on a 1000 x 1000,
1 %-dense 0/1 design (cases ``sparse_*``), for every backend
in ``extracd.kernels.IMPLS`` (numba only when it is installed), and one
``numerical_range_boundary`` sweep (180 angles) of a 200 x 200
coordinate-pass matrix at the powers 1 and 128.  Run as::

    python3 benchmarks/kernel_bench.py [--n 2000] [--p 4000] [--repeat 20]
        [--json PATH]

``--json`` also writes the timings (best of the repeats, in seconds) with
the arguments, the backend and the numpy version to ``PATH``.
"""

import argparse
import json
import os
import platform
import time

import numpy as np

from extracd import fixedpoint
from extracd.data import CscMatrix, gen_correlated_gaussian
from extracd.kernels import BACKEND, IMPLS, warmup

RANGE_DIM = 200
RANGE_ANGLES = 180
RANGE_POWERS = (1, 128)
RANGE_REPEAT = 3
SPARSE_DIM = 1000
SPARSE_DENSITY = 0.01


def time_call(fn, *args, repeat):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def range_matrix():
    """Coordinate-pass matrix of a p=200 quadratic with condition 1e4."""
    rng = np.random.default_rng(11)
    Q, _ = np.linalg.qr(rng.standard_normal((RANGE_DIM, RANGE_DIM)))
    H = (Q * np.logspace(-4, 0, RANGE_DIM)) @ Q.T
    quad = fixedpoint.Quadratic(0.5 * (H + H.T), np.zeros(RANGE_DIM))
    return fixedpoint.cd_iteration(quad).T


def sparse_design():
    """0/1 features about 1 % dense with -1/+1 labels (the logreg-grid
    workload's shape)."""
    rng = np.random.default_rng(0)
    M = rng.random((SPARSE_DIM, SPARSE_DIM)) < SPARSE_DENSITY
    y = np.where(rng.random(SPARSE_DIM) < 0.5, -1.0, 1.0)
    return CscMatrix.from_dense(M), y


def kernel_cases(A, y, prefix=""):
    """(name, call) pairs; each call runs one kernel of a backend table."""
    n, p = A.n_rows, A.n_cols
    lip = A.col_norms_sq()
    order = np.arange(p, dtype=np.int64)
    lam = 0.1 * np.max(np.abs(A.rmatvec(y)))
    cases = [
        ("csc_matvec", lambda k: k["csc_matvec"](
            A.values, A.row_idx, A.col_ptr, n, np.ones(p))),
        ("csc_rmatvec", lambda k: k["csc_rmatvec"](
            A.values, A.row_idx, A.col_ptr, y)),
        ("lasso_epoch", lambda k: k["lasso_epoch"](
            A.values, A.row_idx, A.col_ptr, y, np.zeros(p), np.zeros(n),
            lip, lam, order)),
        ("logreg_l1_epoch", lambda k: k["logreg_l1_epoch"](
            A.values, A.row_idx, A.col_ptr, np.sign(y) + (y == 0),
            np.zeros(p), np.zeros(n), lip / 4.0, lam / 2.0, order)),
    ]
    return [(prefix + name, call) for name, call in cases]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=2000)
    ap.add_argument("--p", type=int, default=4000)
    ap.add_argument("--repeat", type=int, default=20)
    ap.add_argument("--json", metavar="PATH")
    args = ap.parse_args()

    warmup()
    ds, _ = gen_correlated_gaussian(args.n, args.p, 0.5, 3.0, seed=0)
    S, y_s = sparse_design()

    results = []
    print(f"dense-stored n={args.n} p={args.p} nnz={ds.A.nnz}; sparse "
          f"n=p={SPARSE_DIM} nnz={S.nnz} (best of {args.repeat})")
    print(f"{'kernel':22s}" + "".join(f" {b:>10s}" for b in IMPLS))
    for name, call in (kernel_cases(ds.A, ds.y)
                       + kernel_cases(S, y_s, "sparse_")):
        times = [time_call(lambda: call(impl), repeat=args.repeat)
                 for impl in IMPLS.values()]
        results += [{"case": name, "backend": b, "best_s": t}
                    for b, t in zip(IMPLS, times)]
        print(f"{name:22s}" + "".join(f" {t * 1e3:8.3f}ms" for t in times))

    T = range_matrix()
    print(f"numerical_range_boundary p={RANGE_DIM} n_angles={RANGE_ANGLES}"
          f" (best of {RANGE_REPEAT})")
    for q in RANGE_POWERS:
        t = time_call(lambda: fixedpoint.numerical_range_boundary(
            T, q=q, n_angles=RANGE_ANGLES), repeat=RANGE_REPEAT)
        results.append({"case": f"numerical_range_boundary_q{q}",
                        "backend": "numpy", "best_s": t})
        print(f"  q={q:<4d} {t:8.3f}s")

    if args.json:
        blas_env = {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
        settings = {k: v for k, v in vars(args).items() if k != "json"}
        report = {"args": settings, "kernel_backend": BACKEND,
                  "python": platform.python_version(),
                  "numpy": np.__version__, "blas_env": blas_env,
                  "cases": results}
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")


if __name__ == "__main__":
    main()
