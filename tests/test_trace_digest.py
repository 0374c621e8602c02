"""``benchmarks/trace_digest.py --against``: which records it reports."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "trace_digest.py"


@pytest.fixture(scope="module")
def trace_digest():
    spec = importlib.util.spec_from_file_location("trace_digest", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("other,expected,code", [
    ({"a": "1", "b": "2"}, [], 0),
    ({"a": "1", "b": "3"}, ["b 2 3"], 1),
    ({"b": "2", "c": "4"}, ["a 1 -", "c - 4"], 1),
], ids=["same", "differs", "one_side"])
def test_compare_prints_only_differences(trace_digest, monkeypatch, capsys,
                                         other, expected, code):
    this = {"a": "1", "b": "2"}
    monkeypatch.setattr(trace_digest, "tree_records",
                        lambda src: this if src == trace_digest.SRC else other)
    assert trace_digest.compare("OTHER/src") == code
    captured = capsys.readouterr()
    assert captured.out.splitlines() == expected
    assert f"{len(expected)} differ" in captured.err
