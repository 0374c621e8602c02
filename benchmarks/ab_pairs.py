"""Alternating pairs of one perfbench workload on this tree and another.

Run from anywhere as::

    python3 benchmarks/ab_pairs.py OTHER_ROOT --workload quad-spectral \
        [--pairs 10] [--seconds 10]

``OTHER_ROOT`` is the root of another checkout (the parent commit, say).
Both trees run from copies in two sibling temporary directories, so that
where a checkout lies does not weigh on its times: each copy holds the
tree's ``src``, its ``perfbench`` without ``perfbench/out`` and its
``BENCHMARK.json``, and both are removed at the end.  Each pair runs
``perfbench/run.py`` untraced once in each copy, from the copy's root;
pair ``i`` uses seed ``i``, and the side that runs first alternates from
pair to pair (this tree first in pair 0).  For each end-to-end metric of
this tree's ``BENCHMARK.json`` it prints one line: each side's median
[q1, q3], the ratio of the medians (this over other) and in how many
pairs this tree did better.  The line ends in
``unresolved`` when the other tree's quartile spread, relative to its
median, exceeds the metric's bound: the host's noise then decides the
comparison.  A last line, on stderr beside the progress lines, gives
each side's median number of ``attempted`` operations: a run of fixed
length completes more of them when it is faster, and some metrics
(``peak_rss_mb``) grow with that number.  The exit code is 1 if any run
fails, reports ``correct: false`` or reports a nonzero ``failed``, else
0.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def end_to_end_metrics():
    """The ``end_to_end`` entries of this tree's ``BENCHMARK.json``."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)["end_to_end"]


def copy_tree(root, dest):
    """Copy into the new directory ``dest`` what a perfbench run reads of
    the tree at ``root``: ``src``, ``perfbench`` without its ``out``
    directory, and ``BENCHMARK.json``.  Bytecode caches stay behind."""
    perfbench = os.path.join(root, "perfbench")

    def skip(path, names):
        drop = {"__pycache__"}
        if os.path.samefile(path, perfbench):
            drop.add("out")
        return drop & set(names)
    os.makedirs(dest)
    for part in ("src", "perfbench"):
        shutil.copytree(os.path.join(root, part), os.path.join(dest, part),
                        ignore=skip)
    shutil.copy2(os.path.join(root, "BENCHMARK.json"), dest)


def run_once(root, workload, seed, seconds):
    """The JSON line of one untraced run of ``root``'s perfbench, or
    ``None`` if the run exits nonzero or prints no JSON line."""
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if proc.returncode or result is None:
        print(f"{root} seed {seed}: exit {proc.returncode}\n"
              f"{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    return result


def run_pairs(this_root, other_root, workload, n_pairs, seconds):
    """``[(this, other)]``: the results of each pair, in pair order."""
    pairs = []
    for i in range(n_pairs):
        order = ((this_root, other_root) if i % 2 == 0
                 else (other_root, this_root))
        first, second = (run_once(root, workload, i, seconds)
                         for root in order)
        pairs.append((first, second) if i % 2 == 0 else (second, first))
        print(f"pair {i + 1}/{n_pairs} done", file=sys.stderr)
    return pairs


def quartiles(values):
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return float(median), float(q1), float(q3)


def summarize(pairs, metrics):
    """Print one line per metric over the pairs where both runs gave a
    result; return the exit code."""
    bad = 0
    for i, pair in enumerate(pairs):
        for side, result in zip(("this", "other"), pair):
            if result is None or not result["correct"] or result["failed"]:
                bad += 1
                print(f"pair {i} {side}: run failed or reported failures",
                      file=sys.stderr)
    both = [(a, b) for a, b in pairs if a is not None and b is not None]
    if not both:
        print("no pair completed")
        return 1
    for metric in metrics:
        name, bound = metric["name"], metric["bound"]
        this = [a["metrics"][name]["value"] for a, _ in both]
        other = [b["metrics"][name]["value"] for _, b in both]
        sign = 1.0 if metric["better"] == "lower" else -1.0
        wins = sum(sign * (a - b) < 0 for a, b in zip(this, other))
        (m_this, q1_this, q3_this), (m_other, q1_other, q3_other) = (
            quartiles(this), quartiles(other))
        ratio = m_this / m_other if m_other else float("nan")
        spread = ((q3_other - q1_other) / abs(m_other) if m_other
                  else (0.0 if q3_other == q1_other else float("inf")))
        line = (f"{name} [{metric['unit']}]: "
                f"this {m_this:.6g} [{q1_this:.6g}, {q3_this:.6g}], "
                f"other {m_other:.6g} [{q1_other:.6g}, {q3_other:.6g}], "
                f"ratio {ratio:.4f}, this better in {wins}/{len(both)}")
        print(line + (" unresolved" if spread > bound else ""))
    this, other = (np.median([r["attempted"] for r in side])
                   for side in zip(*both))
    print(f"attempted operations: this {this:.6g}, other {other:.6g} "
          f"(medians over {len(both)} pairs)", file=sys.stderr)
    return 1 if bad else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("other_root", metavar="OTHER_ROOT",
                    help="root of the tree to compare with")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=10.0)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    other = os.path.abspath(args.other_root)
    for name in ("perfbench/run.py", "BENCHMARK.json"):
        if not os.path.isfile(os.path.join(other, name)):
            ap.error(f"no {name} under {other}")
    with tempfile.TemporaryDirectory(prefix="ab_pairs-") as tmp:
        # names of one length, so that the two paths differ in one letter
        this_copy, other_copy = (os.path.join(tmp, "a"),
                                 os.path.join(tmp, "b"))
        copy_tree(ROOT, this_copy)
        copy_tree(other, other_copy)
        pairs = run_pairs(this_copy, other_copy, args.workload, args.pairs,
                          args.seconds)
    return summarize(pairs, end_to_end_metrics())


if __name__ == "__main__":
    sys.exit(main())
