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
import zipfile
from dataclasses import dataclass, fields, is_dataclass, replace

import numpy as np

from .data import (binarize_labels, check_synthetic, gen_correlated_gaussian,
                   load_sample, parse_libsvm)
from .errors import ArgumentError
from .problems import (ElasticNet, GroupLasso, Lasso, LogRegL1, LogRegL2,
                       evaluate, groups_from_size, lambda_max,
                       ridge_quadratic, tikhonov_for_condition)
from .solvers import SOLVERS, SolverConfig, anderson_pcd
from .svgplot import write_line_plot

__all__ = [
    "BenchSpec",
    "ReferenceOptimum",
    "load_config",
    "references",
    "build_dataset",
    "build_problems",
    "fingerprint",
    "compute_reference",
    "run_bench",
    "write_trace_csv",
]

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


def _floats(raw):
    return tuple(float(tok) for tok in raw.replace(",", " ").split())


def _names(raw):
    return tuple(tok.strip() for tok in raw.split(",") if tok.strip())


# config (section, key) -> (BenchSpec field, parser of the raw value); the
# defaults are those of BenchSpec
_SCHEMA = {
    ("dataset", "source"): ("source", str),
    ("dataset", "path"): ("path", str),
    ("dataset", "n_cols"): ("n_cols", int),
    ("dataset", "n"): ("n", int),
    ("dataset", "p"): ("p", int),
    ("dataset", "corr"): ("corr", float),
    ("dataset", "snr"): ("snr", float),
    ("dataset", "seed"): ("data_seed", int),
    ("problem", "kind"): ("kind", str),
    ("problem", "lambda_fracs"): ("lambda_fracs", _floats),
    ("problem", "rho_fracs"): ("rho_fracs", _floats),
    ("problem", "group_size"): ("group_size", int),
    ("problem", "kappa"): ("kappa", float),
    ("solvers", "names"): ("solvers", _names),
    ("run", "max_epochs"): ("max_epochs", int),
    ("run", "tol"): ("tol", float),
    ("run", "seed"): ("seed", int),
    ("run", "ref_budget_factor"): ("ref_budget_factor", int),
    ("output", "dir"): ("out_dir", str),
}


def load_config(path, out_dir=None, seed=None):
    """Parse and validate an INI benchmark config.

    Unknown sections, keys, kinds or solver names, empty lists and files
    that are not UTF-8 INI text are rejected with an error naming them.
    ``out_dir`` and ``seed`` override the file values (CLI flags).
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        read = parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ArgumentError(f"bad config file {path}: {exc}") from None
    if not read:
        raise OSError(f"config file not found: {path}")
    values = {}
    for section in parser.sections():
        if section not in {sec for sec, _ in _SCHEMA}:
            raise ArgumentError(f"unknown config section [{section}]")
        for key, raw in parser[section].items():
            if (section, key) not in _SCHEMA:
                raise ArgumentError(
                    f"unknown config key {key!r} in section [{section}]")
            name, conv = _SCHEMA[section, key]
            try:
                values[name] = conv(raw)
            except ValueError:
                raise ArgumentError(
                    f"bad value {raw!r} for {section}.{key}") from None
    spec = BenchSpec(**values)
    if out_dir is not None:
        spec = replace(spec, out_dir=str(out_dir))
    if seed is not None:
        spec = replace(spec, seed=int(seed))
    if spec.source not in ("synthetic", "sample", "path"):
        raise ArgumentError(f"unknown dataset.source {spec.source!r}")
    if spec.source == "path" and not spec.path:
        raise ArgumentError("dataset.path is required when source = path")
    if spec.source == "synthetic":
        check_synthetic(spec.n, spec.p, spec.corr, spec.snr, spec.data_seed,
                        prefix="dataset.")
    if spec.kind not in _GRIDS:
        raise ArgumentError(f"unknown problem.kind {spec.kind!r}")
    for name in spec.solvers:
        if name not in SOLVERS:
            raise ArgumentError(f"unknown solver name {name!r} in "
                                "solvers.names")
    if not spec.solvers:
        raise ArgumentError("solvers.names must list at least one solver")
    for key in ("lambda_fracs", "rho_fracs"):
        if not getattr(spec, key):
            raise ArgumentError(f"problem.{key} must list at least one value")
    if spec.ref_budget_factor < 10:
        raise ArgumentError("run.ref_budget_factor must be at least 10")
    # the solvers' own rules for the [run] values, before any solve
    SolverConfig(max_epochs=spec.max_epochs, tol=spec.tol, seed=spec.seed)
    return spec


def build_dataset(spec):
    if spec.source == "synthetic":
        ds, _ = gen_correlated_gaussian(spec.n, spec.p, spec.corr, spec.snr,
                                        spec.data_seed)
        return ds
    if spec.source == "sample":
        return load_sample()
    return parse_libsvm(spec.path, n_cols=spec.n_cols or None)


def _lasso_grid(spec, ds):
    lmax = lambda_max(Lasso(ds.A, ds.y, 1.0))
    return [(f"lasso_lf{f:g}", Lasso(ds.A, ds.y, f * lmax))
            for f in spec.lambda_fracs]


def _enet_grid(spec, ds):
    lmax = lambda_max(ElasticNet(ds.A, ds.y, 1.0, 0.0))
    return [(f"enet_lf{f:g}_rf{rf:g}",
             ElasticNet(ds.A, ds.y, f * lmax, rf * (f * lmax)))
            for f in spec.lambda_fracs for rf in spec.rho_fracs]


def _logreg_l1_grid(spec, ds):
    yb = binarize_labels(ds.y)
    lmax = lambda_max(LogRegL1(ds.A, yb, 1.0))
    return [(f"logreg_l1_lf{f:g}", LogRegL1(ds.A, yb, f * lmax))
            for f in spec.lambda_fracs]


def _logreg_l2_grid(spec, ds):
    yb = binarize_labels(ds.y)
    kappa = spec.kappa or 1e5
    M = ds.A.toarray()
    if M.shape[1] <= M.shape[0]:  # M.T @ M would use syrk: other bits
        eigs = np.linalg.eigvalsh(M.T @ M.copy())
    else:  # A'A is singular, with the nonzero spectrum of AA'
        eigs = np.append(np.linalg.eigvalsh(M @ M.T), 0.0)
    lam = tikhonov_for_condition(eigs / 4.0, kappa)
    if lam <= 0:
        raise ArgumentError(
            "kappa is above the unregularized condition number")
    return [(f"logreg_l2_k{kappa:g}", LogRegL2(ds.A, yb, lam))]


def _group_lasso_grid(spec, ds):
    groups = groups_from_size(ds.A.n_cols, spec.group_size)
    lmax = lambda_max(GroupLasso(ds.A, ds.y, 1.0, groups))
    return [(f"group_lasso_lf{f:g}", GroupLasso(ds.A, ds.y, f * lmax, groups))
            for f in spec.lambda_fracs]


def _quadratic_grid(spec, ds):
    tag = "quadratic" if not spec.kappa else f"quadratic_k{spec.kappa:g}"
    return [(tag, ridge_quadratic(ds, spec.kappa or None))]


# problem.kind -> builder of its (tag, problem) grid from (spec, dataset)
_GRIDS = {
    "lasso": _lasso_grid,
    "enet": _enet_grid,
    "logreg_l1": _logreg_l1_grid,
    "logreg_l2": _logreg_l2_grid,
    "group_lasso": _group_lasso_grid,
    "quadratic": _quadratic_grid,
}


def build_problems(spec, dataset):
    """Instantiate the (tag, problem) grid described by the config.  Its
    references and files are keyed by tag, which shows a fraction to 6
    digits: two problems of one tag raise ArgumentError."""
    tagged = _GRIDS[spec.kind](spec, dataset)
    tags = [tag for tag, _ in tagged]
    for tag in tags:
        if tags.count(tag) > 1:
            raise ArgumentError(f"two problems share the tag {tag!r}; make "
                                "their fractions differ in 6 digits")
    return tagged


def fingerprint(prob):
    """Stable hex digest of a problem instance: its class, and the data and
    parameters of its datafit and penalty."""
    h = hashlib.sha256()
    h.update(type(prob).__name__.encode())
    _hash_into(h, prob.datafit)
    _hash_into(h, prob.penalty)
    return h.hexdigest()[:16]


def _hash_into(h, value):
    if is_dataclass(value):
        for f in fields(value):
            _hash_into(h, getattr(value, f.name))
    elif isinstance(value, (tuple, list)):
        # each item's size first: the blocks of a partition, not only their
        # concatenation, decide the key
        for item in value:
            h.update(np.int64(np.size(item)).tobytes())
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
    or the new budget is not larger; otherwise, and when the entry cannot
    be read, the problem is solved again and the entry replaced.
    """
    if budget < 1:
        raise ArgumentError("reference budget must be >= 1")
    fp = fingerprint(prob)
    cache_path = None
    if cache_dir is not None:
        os.makedirs(cache_dir, exist_ok=True)
        cache_path = os.path.join(cache_dir, f"{fp}.npz")
        cached = _read_reference(cache_path, fp, tol, budget)
        if cached is not None:
            return cached
    cfg = SolverConfig(algorithm="pcd_anderson", max_epochs=budget, tol=tol)
    trace = anderson_pcd(prob, cfg)
    f_star, _, measure = evaluate(prob, trace.x)
    ref = ReferenceOptimum(
        fingerprint=fp,
        f_star=f_star,
        x_star=trace.x,
        producer="pcd_anderson",
        epochs=int(trace.epochs[-1]),
        verified=bool(measure <= tol + 1e-14 * abs(f_star)))
    if cache_path is not None:
        _write_atomic_npz(cache_path, f_star=ref.f_star, x_star=ref.x_star,
                          producer=ref.producer, epochs=ref.epochs,
                          verified=ref.verified, tol=tol, budget=budget)
    return ref


def _read_reference(path, fp, tol, budget):
    """The cache entry at ``path`` if it serves ``tol`` and ``budget``.

    A missing entry, and one that cannot be read (empty, not an npz, or
    lacking a key), is a miss: ``None``, so the caller solves again and
    replaces it.
    """
    try:
        with np.load(path, allow_pickle=False) as blob:
            if not (float(blob["tol"]) == tol
                    and (bool(blob["verified"])
                         or budget <= int(blob["budget"]))):
                return None
            return ReferenceOptimum(
                fingerprint=fp,
                f_star=float(blob["f_star"]),
                x_star=blob["x_star"],
                producer=str(blob["producer"]),
                epochs=int(blob["epochs"]),
                verified=bool(blob["verified"]))
    except (FileNotFoundError, EOFError, KeyError, ValueError,
            zipfile.BadZipFile):
        return None


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


def references(spec, tagged):
    """Reference optimum of each ``(tag, problem)`` in ``tagged``, by tag:
    tol 1e-12, a budget of ``ref_budget_factor * max_epochs`` epochs and
    the cache ``<out_dir>/refs``, shared by ``extracd ref`` and ``bench``."""
    return {tag: compute_reference(
        prob, budget=spec.ref_budget_factor * spec.max_epochs,
        cache_dir=os.path.join(spec.out_dir, "refs"), tol=1e-12)
        for tag, prob in tagged}


def run_bench(spec):
    """Execute the whole grid and write CSV/SVG outputs.

    Returns a summary dict with the produced file paths, a list of
    ``(tag, solver, message)`` for failed jobs (a failing job does not
    abort the rest) and the tags whose reference optimum is not verified;
    their plots say so in the title.
    """
    dataset = build_dataset(spec)
    tagged = build_problems(spec, dataset)
    os.makedirs(spec.out_dir, exist_ok=True)
    refs = references(spec, tagged)

    summary = {"csv": [], "svg": [], "errors": [], "unverified": []}
    for tag, prob in tagged:
        title = f"{tag} ({dataset.name})"
        if not refs[tag].verified:
            summary["unverified"].append(tag)
            title += ", UNVERIFIED reference"
        series = []
        for solver in spec.solvers:
            cfg = SolverConfig(algorithm=solver, max_epochs=spec.max_epochs,
                               tol=spec.tol, seed=spec.seed)
            try:
                trace = SOLVERS[solver](prob, cfg)
            except Exception as exc:  # noqa: BLE001 - job isolation
                summary["errors"].append((tag, solver, str(exc)))
                continue
            csv_path = os.path.join(spec.out_dir, f"{tag}_{solver}.csv")
            write_trace_csv(csv_path, trace, refs[tag].f_star)
            summary["csv"].append(csv_path)
            subopt = [o - refs[tag].f_star for o in trace.objectives]
            series.append((solver, trace.epochs, subopt))
        if series:
            svg_path = os.path.join(spec.out_dir, f"{tag}.svg")
            write_line_plot(svg_path, title=title, series=series)
            summary["svg"].append(svg_path)
    return summary
