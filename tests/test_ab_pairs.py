"""``benchmarks/ab_pairs.py``: run order, summary lines and exit code."""

import importlib.util
import json
import os
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "ab_pairs.py"
METRICS = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "ok_frac", "unit": "ratio", "better": "higher", "bound": 0.01},
]


@pytest.fixture(scope="module")
def ab_pairs():
    spec = importlib.util.spec_from_file_location("ab_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def result(wall, ok=1.0, correct=True, failed=0):
    return {"correct": correct, "attempted": 4, "failed": failed,
            "metrics": {"wall_s": {"value": wall, "unit": "s"},
                        "ok_frac": {"value": ok, "unit": "ratio"}}}


def test_sides_alternate_and_seed_is_the_pair(ab_pairs, monkeypatch):
    calls = []

    def stub(root, workload, seed, seconds):
        calls.append((root, seed))
        return result(1.0 if root == "THIS" else 2.0)

    monkeypatch.setattr(ab_pairs, "run_once", stub)
    pairs = ab_pairs.run_pairs("THIS", "OTHER", "quad-spectral", 3, 10.0)
    this = "THIS"
    assert calls == [(this, 0), ("OTHER", 0), ("OTHER", 1), (this, 1),
                     (this, 2), ("OTHER", 2)]
    # each pair is (this tree's result, the other's), whoever ran first
    assert [(a["metrics"]["wall_s"]["value"], b["metrics"]["wall_s"]["value"])
            for a, b in pairs] == [(1.0, 2.0)] * 3


def test_summary_lines(ab_pairs, capsys):
    pairs = [(result(1.0), result(2.0)), (result(3.0), result(2.0)),
             (result(1.0), result(2.0)), (result(1.0), result(2.0))]
    assert ab_pairs.summarize(pairs, METRICS) == 0
    assert capsys.readouterr().out.splitlines() == [
        "wall_s [s]: this 1 [1, 1.5], other 2 [2, 2], ratio 0.5000, "
        "this better in 3/4",
        "ok_frac [ratio]: this 1 [1, 1], other 1 [1, 1], ratio 1.0000, "
        "this better in 0/4",
    ]


def test_wide_other_spread_is_unresolved(ab_pairs, capsys):
    # the other side's quartiles span 1.5 to 2.5 around a median of 2
    pairs = [(result(1.0), result(w)) for w in (1.0, 2.0, 2.0, 3.0)]
    assert ab_pairs.summarize(pairs, METRICS[:1]) == 0
    line, = capsys.readouterr().out.splitlines()
    assert line.startswith("wall_s [s]: this 1 [1, 1], other 2 [1.75, 2.25]")
    assert line.endswith("this better in 3/4")
    pairs = [(result(1.0), result(w)) for w in (1.0, 2.0, 2.0, 5.0)]
    ab_pairs.summarize(pairs, METRICS[:1])
    assert capsys.readouterr().out.rstrip().endswith(" unresolved")


@pytest.mark.parametrize("spoilt", [
    None, result(1.0, correct=False), result(1.0, failed=1)],
    ids=["run_failed", "incorrect", "failed_operations"])
def test_any_failure_exits_one(ab_pairs, capsys, spoilt):
    pairs = [(result(1.0), result(2.0)), (result(1.0), spoilt)]
    assert ab_pairs.summarize(pairs, METRICS) == 1
    captured = capsys.readouterr()
    assert "pair 1 other" in captured.err
    # the pairs that completed are still summarized
    assert captured.out.startswith("wall_s [s]: this 1")


def test_no_complete_pair(ab_pairs, capsys):
    assert ab_pairs.summarize([(None, result(1.0))], METRICS) == 1
    assert capsys.readouterr().out == "no pair completed\n"


def test_operation_counts_of_both_sides(ab_pairs, capsys):
    # a run of fixed length completes more operations on the faster side,
    # so each side's count is reported; a pair with a failed run is left out
    pairs = []
    for this_ops, other_ops in ((10, 7), (12, 8), (11, 6)):
        this, other = result(1.0), result(2.0)
        this["attempted"], other["attempted"] = this_ops, other_ops
        pairs.append((this, other))
    assert ab_pairs.summarize(pairs + [(None, result(2.0))], METRICS) == 1
    captured = capsys.readouterr()
    assert len(captured.out.splitlines()) == len(METRICS)
    assert captured.err.splitlines()[-1] == (
        "attempted operations: this 11, other 7 (medians over 3 pairs)")


def fake_tree(root, label):
    """A checkout at ``root`` whose files name ``label``: the parts that a
    perfbench run reads, a ``perfbench/out`` with a run's output, and
    files that no run reads."""
    files = {"src/extracd/__init__.py": label,
             "src/extracd/_epochs.c": label,
             "perfbench/run.py": label,
             "perfbench/workloads.py": label,
             "perfbench/out/quad-spectral-seed0-trace0/spans.csv": label,
             "perfbench/__pycache__/run.cpython-311.pyc": label,
             "tests/test_x.py": label,
             "README.md": label,
             "BENCHMARK.json": json.dumps({"end_to_end": METRICS})}
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)


def tree_files(root):
    return {str(Path(d, f).relative_to(root))
            for d, _, names in os.walk(root) for f in names}


def test_both_trees_run_from_sibling_copies(ab_pairs, monkeypatch, tmp_path):
    this, other = tmp_path / "this", tmp_path / "other"
    fake_tree(this, "this")
    fake_tree(other, "other")
    seen = []

    def stub(root, workload, seed, seconds):
        label = Path(root, "perfbench", "run.py").read_text()
        seen.append((root, label, tree_files(root)))
        return result(1.0)

    monkeypatch.setattr(ab_pairs, "ROOT", str(this))
    monkeypatch.setattr(ab_pairs, "run_once", stub)
    assert ab_pairs.main([str(other), "--workload", "w", "--pairs", "2"]) == 0
    copied = {"src/extracd/__init__.py", "src/extracd/_epochs.c",
              "perfbench/run.py", "perfbench/workloads.py", "BENCHMARK.json"}
    assert [label for _, label, _ in seen] == ["this", "other", "other",
                                               "this"]
    assert all(files == copied for _, _, files in seen)
    roots = {root for root, _, _ in seen}
    assert len(roots) == 2 and len({os.path.dirname(r) for r in roots}) == 1
    assert not any(os.path.exists(r) for r in roots)  # removed at the end
    assert tree_files(this) == tree_files(other)  # the trees are untouched
