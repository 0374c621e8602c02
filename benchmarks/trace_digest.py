"""Fixed-seed digests of extracd's solver traces and oracles.

Prints one ``name sha256`` line per fixed-seed record, so that two trees
can be compared bit for bit: run the script in each and ``diff`` the
outputs.  A record hashes the exact bytes of its values (epochs, events,
objectives, gaps and the final ``x`` for a trace; floats as float64
bytes; error messages as text).  Wall-clock seconds are left out.

Records:

- ``solve/<design>/<problem>/<solver>/<budget>``: every solver on every
  problem type, on a dense and on a 30 %-dense 40 x 16 design, at
  (40 epochs, tol 0) and (3000 epochs, tol 1e-12); unsupported pairs
  record their error text;
- ``oracle/<design>/<problem>``: the public oracles of ``problems`` at a
  fixed ``x`` (the problems above plus ``enet_rho0``, an elastic net
  without its ridge part);
- ``anderson/offline`` and ``anderson/online``: both drivers of
  ``anderson`` on a linear map (the online one with a guard);
  ``anderson/online_singular``: the online driver on the same map when
  its second iterate is NaN, so that the first attempt is singular;
- ``fixedpoint/cd`` and ``fixedpoint/cdsym``: the probed pass matrices;
- ``epoch/cd_quadratic/<order>``: one ``pcd_epoch`` from a fixed ``x`` on
  the quadratic of those matrices, over the ``cyclic`` order, the
  ``backward`` one and a ``custom`` one with repeats;
  ``epoch/cdsym_quadratic/hx`` and ``/none``: one ``cdsym_epoch_quadratic``
  from that ``x`` with and without ``Hx`` (the returned ``Hx`` included);
- ``epoch/pcd/<design>/<problem>``: one ``pcd_epoch`` from a fixed ``x``
  and its predictions on each design problem above (the epoch's ``x`` and
  predictions);
- ``wide_lasso``: 300 epochs of ``pcd_anderson`` on the 100 x 5000
  dense-stored lasso at lambda_max / 100;
- ``parse/sample`` and ``parse/padded``: the CSC arrays and labels that
  ``parse_libsvm`` reads from the bundled ``sample.libsvm``, and from a
  fixed text with empty rows and columns, explicit zeros, rows with
  different column sets and ``n_cols`` padding;
- ``bench/<kind>/...``: tags, lambdas and fingerprints of every bench
  problem kind;
- ``reference/sample_logreg_l1``: the ``logreg_l1`` reference optimum of
  the bundled ``sample.libsvm``.

BLAS is pinned to one thread so that products keep their bits.  Run from
the repository root as::

    PYTHONPATH=src python3 benchmarks/trace_digest.py > digest.txt

or compare this tree with another one, whose package is in ``OTHER/src``::

    python3 benchmarks/trace_digest.py --against OTHER/src

which runs the records of this script on both trees, each in a subprocess
whose ``PYTHONPATH`` is that tree's ``src``.  It prints ``name this other``
for every record that differs or exists on one side only (``-`` marks the
missing side), and exits 1 if there is any, else 0 (2 if a tree's run
fails).  The other tree must have every function these records call; a
tree from before ``pcd_epoch`` took ``Ax`` does not, so compare it by
running each tree's own script and diffing the outputs.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")


def tree_records(src):
    """``{name: sha256}`` of this script's records on the package in
    ``src``, run in a subprocess."""
    proc = subprocess.run([sys.executable, os.path.abspath(__file__)],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True)
    if proc.returncode:
        print(f"digest of {src} failed:\n{proc.stderr}", file=sys.stderr)
        sys.exit(2)
    return dict(line.split() for line in proc.stdout.splitlines())


def compare(other_src):
    """Print the records of this tree and ``other_src`` that differ;
    return 1 if any does, else 0."""
    this, other = tree_records(SRC), tree_records(other_src)
    names = list(this) + [name for name in other if name not in this]
    differ = [name for name in names if this.get(name) != other.get(name)]
    for name in differ:
        print(name, this.get(name, "-"), other.get(name, "-"))
    print(f"{len(names)} records, {len(differ)} differ", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    # a comparison imports no extracd itself: each tree runs in its own
    # subprocess
    _parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    _parser.add_argument("--against", metavar="OTHER/src",
                         help="compare with the package in this directory")
    _against = _parser.parse_args().against
    if _against is not None:
        sys.exit(compare(_against))

import numpy as np  # noqa: E402

from extracd import anderson, bench, fixedpoint, problems, solvers  # noqa: E402
from extracd.data import (CscMatrix, gen_correlated_gaussian,  # noqa: E402
                          load_sample, parse_libsvm)

N, P = 40, 16
BUDGETS = ((40, 0.0), (3000, 1e-12))


def digest(*values):
    h = hashlib.sha256()

    def feed(v):
        if v is None:
            h.update(b"None")
        elif isinstance(v, str):
            h.update(v.encode())
        elif isinstance(v, (tuple, list)):
            h.update(b"[")
            for item in v:
                feed(item)
            h.update(b"]")
        else:
            h.update(np.ascontiguousarray(v).tobytes())
    feed(values)
    return h.hexdigest()


def emit(name, *values):
    print(name, digest(*values), flush=True)


def trace_values(tr):
    return (tr.epochs, [(e, s) for e, s in tr.events], tr.objectives,
            [np.nan if g is None else g for g in tr.gaps], tr.x)


def outcome(fn, *args):
    """``fn(*args)``, or the text of the exception it raises."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - the message is the record
        return f"{type(exc).__name__}: {exc}"


def designs():
    rng = np.random.default_rng(0)
    M = rng.standard_normal((N, P))
    sparse = M * (rng.random((N, P)) < 0.3)
    y = rng.standard_normal(N)
    yb = np.where(rng.random(N) > 0.5, 1.0, -1.0)
    return {"dense": (M, y, yb), "sparse": (sparse, y, yb)}


def make_problems(M, y, yb):
    A = CscMatrix.from_dense(M)
    lasso_max = problems.lambda_max(problems.Lasso(A, y, 1.0))
    enet_max = problems.lambda_max(problems.ElasticNet(A, y, 1.0, 0.0))
    logreg_max = problems.lambda_max(problems.LogRegL1(A, yb, 1.0))
    groups = problems.groups_from_size(P, 4)
    group_max = problems.lambda_max(problems.GroupLasso(A, y, 1.0, groups))
    return {
        "quadratic": problems.Quadratic(M.T @ M + 0.1 * np.eye(P), -M.T @ y),
        "lasso": problems.Lasso(A, y, 0.1 * lasso_max),
        "enet": problems.ElasticNet(A, y, 0.1 * enet_max, 0.01 * enet_max),
        "logreg_l1": problems.LogRegL1(A, yb, 0.1 * logreg_max),
        "logreg_l2": problems.LogRegL2(A, yb, 0.05),
        "group": problems.GroupLasso(A, y, 0.1 * group_max, groups),
    }


def solve_records(probs, design):
    for pname, prob in probs.items():
        for solver in sorted(solvers.SOLVERS):
            for max_epochs, tol in BUDGETS:
                cfg = solvers.SolverConfig(algorithm=solver,
                                           max_epochs=max_epochs, tol=tol)
                tr = outcome(solvers.solve, prob, cfg)
                emit(f"solve/{design}/{pname}/{solver}/{max_epochs}",
                     tr if isinstance(tr, str) else trace_values(tr))


def gap_values(report):
    if report is None or isinstance(report, str):
        return report
    return report.primal, report.dual, report.gap


def oracle_records(probs, design):
    rng = np.random.default_rng(1)
    x = rng.standard_normal(P) * (rng.random(P) < 0.5)
    enet = probs["enet"]
    probs = {**probs, "enet_rho0": problems.ElasticNet(enet.A, enet.y,
                                                       enet.lam, 0.0)}
    for pname, prob in probs.items():
        Ax = prob.datafit.predict(x)
        values = [
            problems.objective_value(prob, x),
            problems.objective_value(prob, x, Ax),
            problems.datafit_value(prob, x),
            problems.penalty_value(prob, x),
            outcome(problems.datafit_gradient, prob, Ax),
            problems.coordinate_lipschitz(prob),
            outcome(problems.lambda_max, prob),
            gap_values(outcome(problems.duality_gap, prob, x)),
            gap_values(outcome(problems.duality_gap, prob, x, Ax)),
            problems.stopping_measure(prob, x),
            problems.stopping_measure(prob, x, Ax),
        ]
        if pname == "quadratic":
            values += [prob.value(x), prob.gradient(x)]
        emit(f"oracle/{design}/{pname}", values)


def anderson_records():
    rng = np.random.default_rng(3)
    p = 8
    Q = np.linalg.qr(rng.standard_normal((p, p)))[0]
    T = (Q * np.linspace(-0.5, 0.95, p)) @ Q.T
    b = rng.standard_normal(p)

    def step(x):
        return T @ x + b

    def guard(x):
        r = step(x) - x
        return float(r @ r)

    off = anderson.offline_anderson(step, np.zeros(p), k_max=12)
    emit("anderson/offline", off.base, off.extrapolated, off.solved)
    on = anderson.online_anderson(step, np.zeros(p), K=3, k_max=40,
                                  guard=guard)
    emit("anderson/online", on.final, on.iterates, on.events)

    calls, last = 0, None

    def nan_once(x):
        # the second call returns NaNs; the third continues from the first
        nonlocal calls, last
        calls += 1
        if calls == 2:
            last = x
            return np.full(p, np.nan)
        return step(last if calls == 3 else x)

    on = anderson.online_anderson(nan_once, np.zeros(p), K=3, k_max=12)
    emit("anderson/online_singular", on.final, on.iterates, on.events)


def pcd_epoch_records(probs, design):
    x0 = np.random.default_rng(5).standard_normal(P)
    for pname, prob in probs.items():
        if pname != "quadratic":
            x, Ax = x0.copy(), prob.A.matvec(x0)
            emit(f"epoch/pcd/{design}/{pname}",
                 solvers.pcd_epoch(prob, x, Ax), Ax)


def fixedpoint_quadratic():
    rng = np.random.default_rng(4)
    M = rng.standard_normal((30, 12))
    return problems.Quadratic(M.T @ M + 0.5 * np.eye(12),
                              rng.standard_normal(12))


def quadratic_epoch_records():
    quad = fixedpoint_quadratic()
    rng = np.random.default_rng(6)
    x0 = rng.standard_normal(quad.dim)
    cyclic = np.arange(quad.dim, dtype=np.int64)
    orders = {"cyclic": None, "backward": cyclic[::-1].copy(),
              "custom": rng.integers(0, quad.dim, size=quad.dim + 3)}
    for name, order in orders.items():
        emit(f"epoch/cd_quadratic/{name}",
             solvers.pcd_epoch(quad, x0.copy(), order=order))
    x, Hx = x0.copy(), quad.H @ x0
    emit("epoch/cdsym_quadratic/hx",
         solvers.cdsym_epoch_quadratic(quad, x, Hx), Hx)
    emit("epoch/cdsym_quadratic/none",
         solvers.cdsym_epoch_quadratic(quad, x0.copy()))


def fixedpoint_records():
    quad = fixedpoint_quadratic()
    it = fixedpoint.cd_iteration(quad)
    emit("fixedpoint/cd", it.T, it.b_vec, it.kind)
    it, S = fixedpoint.cdsym_iteration(quad)
    emit("fixedpoint/cdsym", it.T, it.b_vec, it.kind, S)


def wide_lasso_record():
    ds, _ = gen_correlated_gaussian(100, 5000, 0.5, 3.0, seed=0)
    lam = problems.lambda_max(problems.Lasso(ds.A, ds.y, 1.0)) / 100.0
    prob = problems.Lasso(ds.A, ds.y, lam)
    cfg = solvers.SolverConfig(algorithm="pcd_anderson", max_epochs=300,
                               tol=0.0)
    emit("wide_lasso", trace_values(solvers.solve(prob, cfg)))


PADDED_TEXT = b"""1 2:0.5 5:1.25
-1
# a comment line
0.5 1:0 3:-2 7:3.5  # trailing comment
2 2:1e-3 3:0 4:7

-3 1:4 7:0
"""


def parse_records():
    for name, ds in (("sample", load_sample()),
                     ("padded", parse_libsvm(PADDED_TEXT, n_cols=10))):
        A = ds.A
        emit(f"parse/{name}", A.n_rows, A.n_cols, A.col_ptr, A.row_idx,
             A.values, ds.y)


def bench_records():
    # spelled out rather than read from ``bench``, whose kind table may
    # differ between the trees compared
    kinds = ("lasso", "enet", "logreg_l1", "logreg_l2", "group_lasso",
             "quadratic")
    # synthetic labels are not binary, so the logistic kinds build from
    # the sample only
    datasets = {"30x20": dict(n=30, p=20), "20x30": dict(n=20, p=30),
                "sample": dict(source="sample")}
    for data_name, data in datasets.items():
        for kind in kinds:
            for kappa in (0.0, 50.0):
                spec = bench.BenchSpec(kind=kind, lambda_fracs=(0.3, 0.05),
                                       rho_fracs=(0.1, 0.7), group_size=3,
                                       kappa=kappa, **data)
                tagged = outcome(bench.build_problems, spec,
                                 bench.build_dataset(spec))
                if isinstance(tagged, str):
                    values = tagged
                else:
                    values = [(tag, bench.fingerprint(prob),
                               getattr(prob, "lam", None),
                               getattr(prob, "rho", None))
                              for tag, prob in tagged]
                emit(f"bench/{kind}/{data_name}/k{kappa:g}", values)


def reference_record():
    spec = bench.BenchSpec(source="sample", kind="logreg_l1",
                           lambda_fracs=(0.05,))
    ((tag, prob),) = bench.build_problems(spec, bench.build_dataset(spec))
    ref = bench.compute_reference(prob, budget=5000, tol=1e-12)
    emit("reference/sample_logreg_l1", tag, ref.fingerprint, ref.f_star,
         ref.x_star, ref.epochs, ref.verified)


def main():
    for design, (M, y, yb) in designs().items():
        probs = make_problems(M, y, yb)
        solve_records(probs, design)
        oracle_records(probs, design)
        pcd_epoch_records(probs, design)
    anderson_records()
    fixedpoint_records()
    quadratic_epoch_records()
    wide_lasso_record()
    parse_records()
    bench_records()
    reference_record()


if __name__ == "__main__":
    main()
