"""Run one workload of the extracd benchmark and print its metrics.

    python3 perfbench/run.py --workload lasso-dense --seed 0 --seconds 30 --trace 0

The package is imported from ``src/`` next to this directory; without it the
run stops with a non-zero exit code.  BLAS is pinned to one thread.

Set-up runs at least three times and for at least a second (``setup_s`` is
the median); then the timed body repeats as often as whole repetitions fit
in ``--seconds`` (``wall_s`` sums each operation's median time).  Every
operation's answer is checked right after its repetition, outside the timed
regions.  With ``--trace 1`` the first half of the body time runs untraced
and the second half traced, and the per-layer figures and
``trace.overhead_s`` replace the end-to-end metrics.

The last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The run manifest,
and with tracing the spans, are written to ``perfbench/out/``.
"""

import os

# before numpy loads, so that BLAS starts single-threaded
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import collections
import contextlib
import ctypes
import glob
import json
import platform
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# set-up runs at least this often and this long; setup_s is the median
SETUP_REPS = 3
SETUP_SECONDS = 1.0


class Ops:
    """Counts operations and checks each answer after its repetition."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.samples = {}
        self.op_times = collections.defaultdict(list)
        self._pending = []
        self._untimed = 0.0

    def call(self, check, fn, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            outcome = fn(*args, **kwargs)
        except Exception as exc:  # noqa: BLE001 - a failed operation
            outcome = exc
        self.op_times[check.name].append(time.perf_counter() - t0)
        self._pending.append((check, outcome))
        return outcome

    def take_op_times(self):
        times, self.op_times = self.op_times, collections.defaultdict(list)
        return times

    @contextlib.contextmanager
    def untimed(self):
        """Benchmark-side work inside a timed region, left out of its time."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._untimed += time.perf_counter() - t0

    def timed(self, fn, *args):
        """Run ``fn`` and return its duration without the untimed parts."""
        self._untimed = 0.0
        t0 = time.perf_counter()
        result = fn(*args)
        return result, time.perf_counter() - t0 - self._untimed

    def settle(self):
        for check, outcome in self._pending:
            self.attempted += 1
            if isinstance(outcome, Exception):
                msg = f"{check.name}: {type(outcome).__name__}: {outcome}"
            else:
                try:
                    evidence = check.collect(outcome)
                    msg = check.verify(evidence)
                except Exception as exc:  # noqa: BLE001 - unreadable answer
                    msg = f"{check.name}: {type(exc).__name__}: {exc}"
                if msg is None:
                    self.samples[check.name] = (check, evidence)
            if msg is not None:
                self.failures.append(msg)
        self._pending.clear()

    def vacuous_checks(self):
        """Names of checks that accept a spoilt copy of an accepted answer."""
        return sorted(name for name, (check, ev) in self.samples.items()
                      if check.verify(check.perturb(ev)) is None)


def import_package():
    if not os.path.isfile(os.path.join(SRC, "extracd", "__init__.py")):
        sys.exit(f"perfbench: no extracd package under {SRC}")
    sys.path.insert(0, SRC)
    import extracd
    if not os.path.abspath(extracd.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: extracd was imported from {extracd.__file__}")


def declared_metrics(trace):
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        sys.exit(f"perfbench: cannot read BENCHMARK.json: {exc}")
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def blas_threads():
    import numpy as np

    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir,
                          "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_",
                   "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, fn):
                return int(getattr(lib, fn)())
    return None


def git_commit():
    """The checked-out commit, read from ``.git`` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def typical_body(op_times):
    """Each operation's median time over the repetitions, summed.

    Slow spells of the machine last seconds; a median per operation drops
    them more often than a median over whole, many-second bodies.
    """
    return sum(statistics.median(t) for t in op_times.values())


def manifest(args, ops, setup_times, body_times, traced_times, op_times,
             metrics):
    import numpy as np
    from extracd import kernels

    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "backend": kernels.BACKEND,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "git_commit": git_commit(),
        "setup_times_s": setup_times,
        "body_times_s": body_times,
        "traced_body_times_s": traced_times,
        "operation_median_s": {name: statistics.median(t)
                               for name, t in op_times.items()},
        "operations": {"attempted": ops.attempted,
                       "failed": len(ops.failures)},
        "failures": ops.failures[:20],
        "metrics": metrics,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    import_package()
    units = declared_metrics(args.trace)
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]()
    out_dir = os.path.join(HERE, "out",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)

    inputs = workload.inputs(args.seed, out_dir)
    ops = Ops()
    tracer = tracing.Tracer() if args.trace else None

    def phase(name, traced, fn, *fn_args):
        timed = tracer.wrap(name, ops.timed) if traced else ops.timed
        return timed(fn, *fn_args)

    if tracer:
        tracer.install()
    setup_times = []
    while len(setup_times) < SETUP_REPS or sum(setup_times) < SETUP_SECONDS:
        state, dt = phase("workload.setup", bool(tracer), workload.setup,
                          inputs, ops)
        setup_times.append(dt)
        ops.settle()
    if tracer:
        tracer.uninstall()
    ops.take_op_times()

    def repeat(budget, traced):
        # whole repetitions only, as many as fit in the budget (at least one)
        times = []
        while not times or sum(times) + statistics.median(times) <= budget:
            times.append(phase("workload.body", traced, workload.body, state,
                               ops)[1])
            ops.settle()
        return times

    budget = args.seconds / 2 if tracer else args.seconds
    body_times = repeat(budget, False)
    op_times = ops.take_op_times()
    traced_times = []
    if tracer:
        tracer.install()
        traced_times = repeat(budget, True)
        tracer.uninstall()

    if tracer:
        metrics = tracer.summarize({"workload.setup": len(setup_times),
                                    "workload.body": len(traced_times)})
        metrics["trace.overhead_s"] = (typical_body(ops.take_op_times())
                                       - typical_body(op_times))
        tracer.write_csv(os.path.join(out_dir, "spans.csv"))
    else:
        attempted = max(ops.attempted, 1)
        metrics = {
            "wall_s": typical_body(op_times),
            "setup_s": statistics.median(setup_times),
            "ok_frac": 1.0 - len(ops.failures) / attempted,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    if set(metrics) != set(units):
        sys.exit("perfbench: computed metrics differ from BENCHMARK.json: "
                 f"{sorted(set(metrics) ^ set(units))}")

    vacuous = ops.vacuous_checks()
    with open(os.path.join(out_dir, "manifest.json"), "w",
              encoding="utf-8") as fh:
        json.dump(dict(manifest(args, ops, setup_times, body_times,
                                traced_times, op_times, metrics),
                       vacuous_checks=vacuous), fh, indent=2)

    for msg in ops.failures[:10]:
        print(f"FAILED {msg}", file=sys.stderr)
    for name in vacuous:
        print(f"VACUOUS CHECK {name}: accepted a spoilt answer",
              file=sys.stderr)
    print(f"{args.workload} seed={args.seed}: {len(setup_times)} set-ups, "
          f"{len(body_times)} untraced and {len(traced_times)} traced bodies, "
          f"{ops.attempted} operations, "
          f"fail_frac = {len(ops.failures) / max(ops.attempted, 1):g}")
    for name in sorted(metrics):
        print(f"  {name} = {metrics[name]:.6g} {units[name]}")
    print(json.dumps({
        "correct": not ops.failures and not vacuous and ops.attempted > 0,
        "attempted": ops.attempted,
        "failed": len(ops.failures),
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in metrics.items()},
    }))


if __name__ == "__main__":
    main()
