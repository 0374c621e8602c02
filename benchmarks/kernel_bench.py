"""Micro-benchmark of the compiled kernels against the numpy fallbacks.

Times one epoch of each coordinate-update kernel plus the sparse
matrix-vector products on a synthetic problem, for every backend in
``extracd.kernels.IMPLS`` (numba only when it is installed).  Run as::

    python3 benchmarks/kernel_bench.py [--n 2000] [--p 4000] [--repeat 20]
"""

import argparse
import time

import numpy as np

from extracd.data import gen_correlated_gaussian
from extracd.kernels import IMPLS, warmup


def time_call(fn, *args, repeat):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=2000)
    ap.add_argument("--p", type=int, default=4000)
    ap.add_argument("--repeat", type=int, default=20)
    args = ap.parse_args()

    warmup()
    ds, _ = gen_correlated_gaussian(args.n, args.p, 0.5, 3.0, seed=0)
    A = ds.A
    y = ds.y
    lip = A.col_norms_sq()
    order = np.arange(A.n_cols, dtype=np.int64)
    lam = 0.1 * np.max(np.abs(A.rmatvec(y)))

    cases = [
        ("csc_matvec", lambda k: k["csc_matvec"](
            A.values, A.row_idx, A.col_ptr, args.n, np.ones(args.p))),
        ("csc_rmatvec", lambda k: k["csc_rmatvec"](
            A.values, A.row_idx, A.col_ptr, y)),
        ("lasso_epoch", lambda k: k["lasso_epoch"](
            A.values, A.row_idx, A.col_ptr, y, np.zeros(args.p),
            np.zeros(args.n), lip, lam, order)),
        ("logreg_l1_epoch", lambda k: k["logreg_l1_epoch"](
            A.values, A.row_idx, A.col_ptr, np.sign(y) + (y == 0),
            np.zeros(args.p), np.zeros(args.n), lip / 4.0, lam / 2.0,
            order)),
    ]

    print(f"n={args.n} p={args.p} nnz={A.nnz} (best of {args.repeat})")
    print(f"{'kernel':18s}" + "".join(f" {b:>10s}" for b in IMPLS))
    for name, call in cases:
        times = [time_call(lambda: call(impl), repeat=args.repeat)
                 for impl in IMPLS.values()]
        print(f"{name:18s}" + "".join(f" {t * 1e3:8.3f}ms" for t in times))


if __name__ == "__main__":
    main()
