"""In-memory span tracing of extracd's public entry points.

`Tracer.install` wraps the entry points listed in `_TARGETS` by rebinding
module and class attributes at run time; the package source is never
edited.  A function imported by name into several extracd modules (for
example ``duality_gap`` in ``problems`` and ``solvers``) is rebound in every
module that holds it, so each call site is traced.

Each span is ``[name, start, end, parent]`` with ``parent`` the index of
the enclosing span (-1 at the top).  Span names are ``<layer>.<entry>``,
where the layer is the extracd module that defines the entry point.  A
span's self time is its duration minus the durations of its direct
children.
"""

import csv
import functools
import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("kernels", "problems", "anderson", "solvers", "data", "bench",
          "fixedpoint")
EPOCH_KERNELS = ("lasso_epoch", "enet_epoch", "logreg_l1_epoch",
                 "logreg_l2_epoch", "group_epoch", "cd_dense_epoch")
_GAP_SPANS = ("problems.duality_gap", "problems.stopping_measure")


def _epoch_nnz(tracer, args, kwargs):
    # Stored entries one epoch reads: the listed CSC columns, or one row of
    # H per coordinate for the dense quadratic kernel.  Computed from array
    # sizes, so cache behaviour is not reflected.
    order = args[-1]
    if len(args) == 4:  # cd_dense_epoch(H, b, x, order)
        tracer.count("kernels.epoch_nnz", order.size * args[0].shape[1])
    else:
        tracer.count("kernels.epoch_nnz", int(np.diff(args[2])[order].sum()))


def _parse_bytes(tracer, args, kwargs):
    source = args[0]
    if isinstance(source, bytes):
        tracer.count("data.parse_bytes", len(source))
    elif isinstance(source, (str, os.PathLike)):
        tracer.count("data.parse_bytes", os.path.getsize(source))


def _range_eigs(tracer, args, kwargs):
    tracer.count("fixedpoint.range_eigs", kwargs.get(
        "n_angles", args[2] if len(args) > 2 else 360))


def _solver_result(tracer, result):
    tracer.count("solvers.epochs", result.epochs[-1])
    for _, status in result.events:
        tracer.count("anderson.attempts")
        tracer.count(f"anderson.{status}")


def _reference_result(tracer, result):
    tracer.count("bench.references")
    tracer.count("bench.reference_epochs", result.epochs)
    tracer.count("bench.references_verified", int(result.verified))


# (module, attribute, span name, hook before the call, hook on the result)
_TARGETS = [
    ("kernels", "csc_matvec", "kernels.csc_matvec", None, None),
    ("kernels", "csc_rmatvec", "kernels.csc_rmatvec", None, None),
    ("kernels", "csc_col_norms_sq", "kernels.csc_col_norms_sq", None, None),
] + [("kernels", k, f"kernels.{k}", _epoch_nnz if k != "group_epoch"
      else None, None) for k in EPOCH_KERNELS] + [
    ("problems", "duality_gap", "problems.duality_gap", None, None),
    ("problems", "stopping_measure", "problems.stopping_measure", None,
     None),
    ("problems", "objective_value", "problems.objective_value", None, None),
    ("problems", "lambda_max", "problems.lambda_max", None, None),
    ("anderson", "ExtrapolationWindow.extrapolate", "anderson.extrapolate",
     None, None),
    ("data", "gen_correlated_gaussian", "data.generate", None, None),
    ("data", "parse_libsvm", "data.parse", _parse_bytes, None),
    ("data", "CscMatrix.__post_init__", "data.validate", None, None),
    ("bench", "compute_reference", "bench.reference", None,
     _reference_result),
    ("bench", "write_trace_csv", "bench.output", None, None),
    ("bench", "write_line_plot", "bench.output", None, None),
    ("bench", "build_problems", "bench.build_problems", None, None),
    ("bench", "run_bench", "bench.run_bench", None, None),
    ("fixedpoint", "cd_iteration", "fixedpoint.materialize", None, None),
    ("fixedpoint", "cdsym_iteration", "fixedpoint.materialize", None, None),
    ("fixedpoint", "RateBound.from_iteration", "fixedpoint.rate_bound",
     None, None),
    ("fixedpoint", "numerical_range_boundary", "fixedpoint.range",
     _range_eigs, None),
]


class Tracer:
    """Records spans and counters; `install` starts tracing."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._undo = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name, fn, before=None, after=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(self, args, kwargs)
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if after is not None:
                after(self, result)
            return result
        return traced

    # -- patching ----------------------------------------------------------

    def _rebind(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every target in every loaded extracd module."""
        from extracd import solvers

        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "extracd" or n.startswith("extracd.")]
        for mod_name, attr, name, before, after in _TARGETS:
            module = sys.modules[f"extracd.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self.wrap(name, raw.__func__,
                                                    before, after))
                else:
                    wrapped = self.wrap(name, raw, before, after)
                self._rebind(cls, meth, wrapped)
                continue
            original = getattr(module, attr)
            self._rebind_everywhere(modules, original,
                                    self.wrap(name, original, before, after))

        # bench dispatches through the SOLVERS table, so the table itself is
        # replaced by one holding the wrapped solvers
        table = solvers.SOLVERS
        traced_table = {}
        for key, fn in table.items():
            wrapped = self.wrap(f"solvers.{key}", fn, None, _solver_result)
            traced_table[key] = wrapped
            self._rebind_everywhere(modules, fn, wrapped)
        self._rebind_everywhere(modules, table, traced_table)

    def _rebind_everywhere(self, modules, original, wrapped):
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    self._rebind(module, key, wrapped)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- analysis ----------------------------------------------------------

    def count(self, key, n=1):
        """Add ``n`` to counter ``key`` of the current top-level span."""
        phase = self.spans[self._stack[0]][0] if self._stack else ""
        self.counts[(phase, key)] += n

    def write_csv(self, path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(["index", "name", "start", "end", "parent"])
            for i, (name, start, end, parent) in enumerate(self.spans):
                out.writerow([i, name, f"{start:.9f}", f"{end:.9f}", parent])

    def summarize(self, phases):
        """Per-layer figures for one set-up plus one timed body.

        ``phases`` maps each top-level span name to how often it ran; every
        figure is a per-run mean of that phase, summed over the phases.
        Named times (``problems.gap_s``, ``solvers.pcd_s``, ...) include
        the calls they make into lower layers; ``<layer>.self_s`` does not,
        and the self times add up to the traced wall time.
        """
        spans = self.spans
        weight = {p: 1.0 / reps for p, reps in phases.items() if reps}
        child_time = [0.0] * len(spans)
        phase_of = [""] * len(spans)
        in_solver = [False] * len(spans)
        incl = defaultdict(float)
        calls = defaultdict(float)
        self_t = defaultdict(float)
        instrument = 0.0
        for i, (name, start, end, parent) in enumerate(spans):
            if parent >= 0:
                child_time[parent] += end - start
                pname = spans[parent][0]
                phase_of[i] = phase_of[parent]
                in_solver[i] = in_solver[parent] or pname.startswith(
                    "solvers.")
            else:
                pname = ""
                phase_of[i] = name
            w = weight.get(phase_of[i], 0.0)
            key = _family(name)
            # a call nested in another call of its own family (the objective
            # inside a duality gap, say) is already part of that call's time
            if _family(pname) != key and not (
                    key == "problems.objective_value"
                    and _family(pname) == "problems.gap"):
                incl[key] += w * (end - start)
                calls[key] += w
                if (name.startswith("problems.") and in_solver[i]
                        and not pname.startswith("problems.")):
                    instrument += w * (end - start)
        for i, (name, start, end, parent) in enumerate(spans):
            w = weight.get(phase_of[i], 0.0)
            self_t[name.split(".", 1)[0]] += w * (end - start - child_time[i])

        def per(key):
            return sum(self.counts[(p, key)] * w for p, w in weight.items())

        m = {}
        epoch_s = sum(incl[f"kernels.{k}"] for k in EPOCH_KERNELS)
        m["kernels.epoch_s"] = epoch_s
        m["kernels.epoch_calls"] = sum(calls[f"kernels.{k}"]
                                       for k in EPOCH_KERNELS)
        m["kernels.epoch_nnz_per_s"] = (per("kernels.epoch_nnz") / epoch_s
                                        if epoch_s else 0.0)
        for k in ("lasso_epoch", "logreg_l1_epoch", "cd_dense_epoch"):
            m[f"kernels.{k}_s"] = incl[f"kernels.{k}"]
        for k in ("matvec", "rmatvec"):
            m[f"kernels.{k}_s"] = incl[f"kernels.csc_{k}"]
            m[f"kernels.{k}_calls"] = calls[f"kernels.csc_{k}"]

        solver_wall = sum(v for k, v in incl.items()
                          if k.startswith("solvers."))
        m["problems.gap_s"] = incl["problems.gap"]
        m["problems.gap_calls"] = calls["problems.gap"]
        m["problems.objective_s"] = incl["problems.objective_value"]
        m["problems.objective_calls"] = calls["problems.objective_value"]
        m["problems.instrument_share"] = (instrument / solver_wall
                                          if solver_wall else 0.0)

        attempts = per("anderson.attempts")
        m["anderson.extrapolate_s"] = incl["anderson.extrapolate"]
        m["anderson.attempts"] = attempts
        for status in ("accepted", "rejected", "singular"):
            m[f"anderson.{status}"] = per(f"anderson.{status}")
        m["anderson.accept_frac"] = (m["anderson.accepted"] / attempts
                                     if attempts else 0.0)

        m["solvers.epochs"] = per("solvers.epochs")
        for k in ("pcd_anderson", "pcd", "fista", "cdsym_anderson",
                  "gd_anderson", "cg"):
            m[f"solvers.{k}_s"] = incl[f"solvers.{k}"]

        m["data.generate_s"] = incl["data.generate"]
        m["data.parse_s"] = incl["data.parse"]
        m["data.parse_mb_per_s"] = (per("data.parse_bytes") / 1e6
                                    / incl["data.parse"]
                                    if incl["data.parse"] else 0.0)
        m["data.validate_s"] = incl["data.validate"]

        refs = per("bench.references")
        m["bench.reference_s"] = incl["bench.reference"]
        m["bench.reference_epochs"] = per("bench.reference_epochs")
        m["bench.reference_verified_frac"] = (
            per("bench.references_verified") / refs if refs else 0.0)
        m["bench.output_s"] = incl["bench.output"]

        m["fixedpoint.materialize_s"] = incl["fixedpoint.materialize"]
        m["fixedpoint.rate_bound_s"] = incl["fixedpoint.rate_bound"]
        m["fixedpoint.range_s"] = incl["fixedpoint.range"]
        m["fixedpoint.range_eigs"] = per("fixedpoint.range_eigs")

        for layer in LAYERS + ("workload",):
            m[f"{layer}.self_s"] = self_t[layer]
        return m


def _family(name):
    """Gap and stopping-measure spans nest but form one operation."""
    return "problems.gap" if name in _GAP_SPANS else name
