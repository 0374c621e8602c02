"""Command line entry point.

Subcommands:

* ``bench``       run a benchmark grid from an INI config
* ``range``       numerical-range boundary of the coordinate pass map
* ``ref``         compute/cache reference optima for a config
* ``parse-check`` validate a LibSVM file and print a summary

Exit codes: 0 on success, 2 on bad input (config, data, arguments).
"""

import argparse
import os
import sys

from .bench import build_dataset, build_problems, load_config, references, \
    run_bench
from .data import gen_correlated_gaussian, parse_libsvm
from .errors import ArgumentError, ParseError
from .fixedpoint import cd_iteration, numerical_range_boundary
from .problems import ridge_quadratic

__all__ = ["main"]


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="extracd",
        description="Extrapolated coordinate descent benchmarks")
    sub = parser.add_subparsers(dest="command", required=True)

    bench = sub.add_parser("bench", help="run a benchmark config")
    bench.add_argument("--config", required=True, help="INI config file")
    bench.add_argument("--out", default=None, help="output directory "
                       "(overrides the config)")
    bench.add_argument("--seed", type=int, default=None,
                       help="solver seed (overrides the config)")

    rng = sub.add_parser(
        "range", help="numerical range of coordinate-pass iteration powers")
    rng.add_argument("--n", type=int, default=60, help="rows of the design")
    rng.add_argument("--p", type=int, default=30, help="columns / dimension")
    rng.add_argument("--corr", type=float, default=0.5,
                     help="column correlation of the design")
    rng.add_argument("--snr", type=float, default=3.0)
    rng.add_argument("--kappa", type=float, default=1e3,
                     help="target condition number of the quadratic")
    rng.add_argument("--q", type=int, nargs="+", default=[1, 128, 256, 512],
                     help="powers of the iteration matrix to scan")
    rng.add_argument("--angles", type=int, default=360)
    rng.add_argument("--seed", type=int, default=0)
    rng.add_argument("--out", default="results", help="output directory")

    ref = sub.add_parser("ref", help="compute and cache reference optima")
    ref.add_argument("--config", required=True, help="INI config file")
    ref.add_argument("--out", default=None, help="output directory "
                     "(overrides the config)")
    ref.add_argument("--seed", type=int, default=None)

    chk = sub.add_parser("parse-check", help="validate a LibSVM file")
    chk.add_argument("path", help="file to check (may be gzip-compressed)")
    chk.add_argument("--n-cols", type=int, default=None,
                     help="pad the column count up to this value")
    return parser


def _cmd_bench(args):
    spec = load_config(args.config, out_dir=args.out, seed=args.seed)
    summary = run_bench(spec)
    for path in summary["csv"]:
        print(f"wrote {path}")
    for path in summary["svg"]:
        print(f"wrote {path}")
    for tag, solver, message in summary["errors"]:
        print(f"FAILED {tag}/{solver}: {message}", file=sys.stderr)
    for tag in summary["unverified"]:
        print(f"warning: {tag}: suboptimality is measured against an "
              "UNVERIFIED reference optimum", file=sys.stderr)
    return 0 if not summary["errors"] else 1


def _cmd_range(args):
    ds, _ = gen_correlated_gaussian(args.n, args.p, args.corr, args.snr,
                                    args.seed)
    quad = ridge_quadratic(ds, args.kappa)
    iteration = cd_iteration(quad)
    os.makedirs(args.out, exist_ok=True)
    for q in args.q:
        nr = numerical_range_boundary(iteration.T, q=q,
                                      n_angles=args.angles)
        path = os.path.join(args.out, f"range_q{q}.csv")
        nr.save_csv(path)
        print(f"q={q} contains_one={nr.contains_one} wrote {path}")
    return 0


def _cmd_ref(args):
    spec = load_config(args.config, out_dir=args.out, seed=args.seed)
    tagged = build_problems(spec, build_dataset(spec))
    for tag, ref in references(spec, tagged).items():
        state = "verified" if ref.verified else "UNVERIFIED"
        print(f"{tag}: f_star={ref.f_star:.12g} epochs={ref.epochs} "
              f"{state} cache={ref.fingerprint}.npz")
    return 0


def _cmd_parse_check(args):
    ds = parse_libsvm(args.path, n_cols=args.n_cols)
    labels = sorted(set(ds.y.tolist()))
    label_s = (", ".join(f"{v:g}" for v in labels[:4])
               + (", ..." if len(labels) > 4 else ""))
    print(f"OK: {ds.A.n_rows} rows, {ds.A.n_cols} cols, "
          f"{ds.A.nnz} nonzeros, labels [{label_s}]")
    return 0


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "bench": _cmd_bench,
        "range": _cmd_range,
        "ref": _cmd_ref,
        "parse-check": _cmd_parse_check,
    }
    try:
        return handlers[args.command](args)
    except (ArgumentError, ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
