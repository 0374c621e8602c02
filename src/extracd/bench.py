"""Benchmark orchestration: config parsing, reference optima, CSV/SVG output.

A benchmark run is described by an INI-style config file (flat
``key = value`` pairs under ``[dataset]``, ``[problem]``, ``[solvers]``,
``[run]`` and ``[output]`` sections; see ``load_config``).  Every
(problem, solver) pair becomes one job producing a CSV of per-epoch
``epoch,seconds,objective,subopt,gap`` rows, plus one SVG per problem
overlaying all solvers.  Suboptimality is measured against a cached
reference optimum computed once per problem fingerprint.
"""

import configparser
import hashlib
import os
import tempfile
from dataclasses import dataclass, fields, is_dataclass, replace

import numpy as np

from .data import binarize_labels, gen_correlated_gaussian, load_sample, \
    parse_libsvm
from .errors import ArgumentError
from .problems import (ElasticNet, GroupLasso, Lasso, LogRegL1, LogRegL2,
                       groups_from_size, lambda_max, objective_value,
                       ridge_quadratic, stopping_measure,
                       tikhonov_for_condition)
from .solvers import SOLVERS, SolverConfig, anderson_pcd
from .svgplot import write_line_plot

__all__ = [
    "BenchSpec",
    "ReferenceOptimum",
    "load_config",
    "build_dataset",
    "build_problems",
    "fingerprint",
    "compute_reference",
    "run_bench",
    "write_trace_csv",
]

_KINDS = ("lasso", "enet", "logreg_l1", "logreg_l2", "group_lasso",
          "quadratic")

_SCHEMA = {
    "dataset": {"source", "path", "n_cols", "n", "p", "corr", "snr", "seed"},
    "problem": {"kind", "lambda_fracs", "rho_fracs", "group_size", "kappa"},
    "solvers": {"names"},
    "run": {"max_epochs", "tol", "seed", "ref_budget_factor"},
    "output": {"dir"},
}


@dataclass(frozen=True)
class BenchSpec:
    """Validated benchmark description (one problem kind, solver list)."""

    source: str = "synthetic"
    path: str = ""
    n_cols: int = 0
    n: int = 100
    p: int = 200
    corr: float = 0.5
    snr: float = 3.0
    data_seed: int = 0
    kind: str = "lasso"
    lambda_fracs: tuple = (0.1,)
    rho_fracs: tuple = (0.1,)
    group_size: int = 5
    kappa: float = 0.0
    solvers: tuple = ("pcd", "pcd_anderson")
    max_epochs: int = 500
    tol: float = 1e-10
    seed: int = 0
    ref_budget_factor: int = 10
    out_dir: str = "results"


def load_config(path, out_dir=None, seed=None):
    """Parse and validate an INI benchmark config.

    Unknown sections or keys, unknown problem kinds and unknown solver
    names are rejected with an error naming the offending field.
    ``out_dir`` and ``seed`` override the file values (CLI flags).
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    read = parser.read(path)
    if not read:
        raise OSError(f"config file not found: {path}")
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ArgumentError(f"unknown config section [{section}]")
        for key in parser[section]:
            if key not in _SCHEMA[section]:
                raise ArgumentError(
                    f"unknown config key {key!r} in section [{section}]")

    def get(section, key, fallback, conv=str):
        if parser.has_option(section, key):
            raw = parser.get(section, key)
            try:
                return conv(raw)
            except ValueError:
                raise ArgumentError(
                    f"bad value {raw!r} for {section}.{key}") from None
        return fallback

    def floats(raw):
        return tuple(float(tok) for tok in raw.replace(",", " ").split())

    def names(raw):
        return tuple(tok.strip() for tok in raw.split(",") if tok.strip())

    spec = BenchSpec(
        source=get("dataset", "source", "synthetic"),
        path=get("dataset", "path", ""),
        n_cols=get("dataset", "n_cols", 0, int),
        n=get("dataset", "n", 100, int),
        p=get("dataset", "p", 200, int),
        corr=get("dataset", "corr", 0.5, float),
        snr=get("dataset", "snr", 3.0, float),
        data_seed=get("dataset", "seed", 0, int),
        kind=get("problem", "kind", "lasso"),
        lambda_fracs=get("problem", "lambda_fracs", (0.1,), floats),
        rho_fracs=get("problem", "rho_fracs", (0.1,), floats),
        group_size=get("problem", "group_size", 5, int),
        kappa=get("problem", "kappa", 0.0, float),
        solvers=get("solvers", "names", ("pcd", "pcd_anderson"), names),
        max_epochs=get("run", "max_epochs", 500, int),
        tol=get("run", "tol", 1e-10, float),
        seed=get("run", "seed", 0, int),
        ref_budget_factor=get("run", "ref_budget_factor", 10, int),
        out_dir=get("output", "dir", "results"),
    )
    if out_dir is not None:
        spec = replace(spec, out_dir=str(out_dir))
    if seed is not None:
        spec = replace(spec, seed=int(seed))
    if spec.source not in ("synthetic", "sample", "path"):
        raise ArgumentError(f"unknown dataset.source {spec.source!r}")
    if spec.source == "path" and not spec.path:
        raise ArgumentError("dataset.path is required when source = path")
    if spec.kind not in _KINDS:
        raise ArgumentError(f"unknown problem.kind {spec.kind!r}")
    for name in spec.solvers:
        if name not in SOLVERS:
            raise ArgumentError(f"unknown solver name {name!r} in "
                                "solvers.names")
    if not spec.solvers:
        raise ArgumentError("solvers.names must list at least one solver")
    if spec.ref_budget_factor < 10:
        raise ArgumentError("run.ref_budget_factor must be at least 10")
    return spec


def build_dataset(spec):
    if spec.source == "synthetic":
        ds, _ = gen_correlated_gaussian(spec.n, spec.p, spec.corr, spec.snr,
                                        spec.data_seed)
        return ds
    if spec.source == "sample":
        return load_sample()
    return parse_libsvm(spec.path, n_cols=spec.n_cols or None)


def build_problems(spec, dataset):
    """Instantiate the (tag, problem) grid described by the config."""
    A, y = dataset.A, dataset.y
    out = []
    if spec.kind == "lasso":
        lmax = lambda_max(Lasso(A, y, 1.0))
        for f in spec.lambda_fracs:
            out.append((f"lasso_lf{f:g}", Lasso(A, y, f * lmax)))
    elif spec.kind == "enet":
        lmax = lambda_max(ElasticNet(A, y, 1.0, 0.0))
        for f in spec.lambda_fracs:
            for rf in spec.rho_fracs:
                lam = f * lmax
                out.append((f"enet_lf{f:g}_rf{rf:g}",
                            ElasticNet(A, y, lam, rf * lam)))
    elif spec.kind == "logreg_l1":
        yb = binarize_labels(y)
        lmax = lambda_max(LogRegL1(A, yb, 1.0))
        for f in spec.lambda_fracs:
            out.append((f"logreg_l1_lf{f:g}", LogRegL1(A, yb, f * lmax)))
    elif spec.kind == "logreg_l2":
        yb = binarize_labels(y)
        kappa = spec.kappa or 1e5
        eigs = np.linalg.eigvalsh(A.toarray().T @ A.toarray()) / 4.0
        lam = tikhonov_for_condition(eigs, kappa)
        if lam <= 0:
            raise ArgumentError(
                "kappa is above the unregularized condition number")
        out.append((f"logreg_l2_k{kappa:g}", LogRegL2(A, yb, lam)))
    elif spec.kind == "group_lasso":
        groups = groups_from_size(A.n_cols, spec.group_size)
        lmax = lambda_max(GroupLasso(A, y, 1.0, groups))
        for f in spec.lambda_fracs:
            out.append((f"group_lasso_lf{f:g}",
                        GroupLasso(A, y, f * lmax, groups)))
    else:  # quadratic
        quad = ridge_quadratic(dataset, spec.kappa or None)
        tag = "quadratic" if not spec.kappa else f"quadratic_k{spec.kappa:g}"
        out.append((tag, quad))
    return out


def fingerprint(prob):
    """Stable hex digest of a problem instance: its class, and the data and
    parameters of its datafit and penalty."""
    h = hashlib.sha256()
    h.update(type(prob).__name__.encode())
    _hash_into(h, (prob.datafit, prob.penalty))
    return h.hexdigest()[:16]


def _hash_into(h, value):
    if is_dataclass(value):
        value = [getattr(value, f.name) for f in fields(value)]
    if isinstance(value, (tuple, list)):
        for item in value:
            _hash_into(h, item)
    else:
        h.update(np.ascontiguousarray(value).tobytes())


@dataclass(frozen=True)
class ReferenceOptimum:
    """Cached high-accuracy solution used to measure suboptimality."""

    fingerprint: str
    f_star: float
    x_star: np.ndarray
    producer: str
    epochs: int
    verified: bool


def compute_reference(prob, budget, cache_dir=None, tol=1e-12):
    """Solve to high accuracy (or budget) and cache by fingerprint.

    The reference is produced by the guarded extrapolated coordinate
    solver.  It is ``verified`` when the convergence measure, recomputed
    at the returned point, is at most ``tol + 1e-14 * |f*|``: the
    relative term allows for the few ulps of f* by which a measure from a
    fresh ``A x`` differs from the solver's, which double precision cannot
    drive below ``tol`` when f* is large.  A reference cut short by its
    budget far from ``tol`` is stored with ``verified=False``.

    A cache entry records the ``tol`` and ``budget`` it was solved with.
    It is reused only for the same ``tol``, and only when it is verified
    or the new budget is not larger; otherwise the problem is solved again
    and the entry replaced.
    """
    if budget < 1:
        raise ArgumentError("reference budget must be >= 1")
    fp = fingerprint(prob)
    cache_path = None
    if cache_dir is not None:
        os.makedirs(cache_dir, exist_ok=True)
        cache_path = os.path.join(cache_dir, f"{fp}.npz")
        if os.path.exists(cache_path):
            with np.load(cache_path, allow_pickle=False) as blob:
                if ("tol" in blob.files and float(blob["tol"]) == tol
                        and (bool(blob["verified"])
                             or budget <= int(blob["budget"]))):
                    return ReferenceOptimum(
                        fingerprint=fp,
                        f_star=float(blob["f_star"]),
                        x_star=blob["x_star"],
                        producer=str(blob["producer"]),
                        epochs=int(blob["epochs"]),
                        verified=bool(blob["verified"]))
    cfg = SolverConfig(algorithm="pcd_anderson", max_epochs=budget, tol=tol)
    trace = anderson_pcd(prob, cfg)
    x = trace.x
    measure = stopping_measure(prob, x)
    f_star = float(objective_value(prob, x))
    ref = ReferenceOptimum(
        fingerprint=fp,
        f_star=f_star,
        x_star=x,
        producer="pcd_anderson",
        epochs=int(trace.epochs[-1]),
        verified=bool(measure <= tol + 1e-14 * abs(f_star)))
    if cache_path is not None:
        _write_atomic_npz(cache_path, f_star=ref.f_star, x_star=ref.x_star,
                          producer=ref.producer, epochs=ref.epochs,
                          verified=ref.verified, tol=tol, budget=budget)
    return ref


def _write_atomic_npz(path, **arrays):
    """``np.savez`` to a temporary file beside ``path``, then rename it.

    A reader sees either no file or a complete one, and a failed write
    leaves nothing behind.  The open handle keeps ``np.savez`` from
    appending ``.npz`` to the temporary name.
    """
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            np.savez(fh, **arrays)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_trace_csv(path, trace, f_star):
    """One row per epoch: ``epoch,seconds,objective,subopt,gap``.

    The gap column is left empty for problems without a duality gap.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("epoch,seconds,objective,subopt,gap\n")
        for epoch, sec, obj, gap in zip(trace.epochs, trace.seconds,
                                        trace.objectives, trace.gaps):
            gap_s = "" if gap is None else f"{gap:.17g}"
            fh.write(f"{epoch},{sec:.6f},{obj:.17g},"
                     f"{obj - f_star:.17g},{gap_s}\n")


def run_bench(spec):
    """Execute the whole grid and write CSV/SVG outputs.

    Returns a summary dict with the produced file paths and a list of
    ``(tag, solver, message)`` for failed jobs; a failing job does not
    abort the rest.
    """
    os.makedirs(spec.out_dir, exist_ok=True)
    dataset = build_dataset(spec)
    tagged = build_problems(spec, dataset)
    refs = {}
    for tag, prob in tagged:
        refs[tag] = compute_reference(
            prob, budget=spec.ref_budget_factor * spec.max_epochs,
            cache_dir=os.path.join(spec.out_dir, "refs"), tol=1e-12)

    traces = {}
    errors = []
    for tag, prob in tagged:
        for solver in spec.solvers:
            cfg = SolverConfig(algorithm=solver, max_epochs=spec.max_epochs,
                               tol=spec.tol, seed=spec.seed)
            try:
                traces[(tag, solver)] = SOLVERS[solver](prob, cfg)
            except Exception as exc:  # noqa: BLE001 - job isolation
                errors.append((tag, solver, str(exc)))

    summary = {"csv": [], "svg": [], "errors": errors}
    for tag, prob in tagged:
        series = []
        for solver in spec.solvers:
            trace = traces.get((tag, solver))
            if trace is None:
                continue
            csv_path = os.path.join(spec.out_dir, f"{tag}_{solver}.csv")
            write_trace_csv(csv_path, trace, refs[tag].f_star)
            summary["csv"].append(csv_path)
            subopt = [o - refs[tag].f_star for o in trace.objectives]
            series.append((solver, trace.epochs, subopt))
        if series:
            svg_path = os.path.join(spec.out_dir, f"{tag}.svg")
            write_line_plot(svg_path, title=f"{tag} ({dataset.name})",
                            series=series)
            summary["svg"].append(svg_path)
    return summary
