"""``benchmarks/kernel_bench.py``: its cases, and the kernels they enter."""

import importlib.util
import json
from pathlib import Path

import pytest

from extracd import data, kernels

SCRIPT = (Path(__file__).resolve().parents[1] / "benchmarks"
          / "kernel_bench.py")
CASES = ["csc_matvec", "csc_rmatvec", "lasso_pass", "logreg_l1_pass"]
WATCHED = ("lasso_epoch", "logreg_l1_epoch", "cd_dense_epoch")


@pytest.fixture(scope="module")
def kernel_bench():
    spec = importlib.util.spec_from_file_location("kernel_bench", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cases_enter_the_selected_kernels(kernel_bench, monkeypatch,
                                          tmp_path, capsys):
    # one list per timed case, of the watched kernels, Gram passes, parsers
    # and extrapolation solves its calls entered; per Gram pass bound, how
    # many timers had started; and the texts the parse case parsed
    entered, binds, texts = [], [], []
    time_call = kernel_bench.time_call

    def timed(fn, repeat):
        entered.append([])
        return time_call(fn, repeat=repeat)
    monkeypatch.setattr(kernel_bench, "time_call", timed)
    for name in WATCHED:
        def counted(*args, _name=name, _fn=getattr(kernels, name)):
            entered[-1].append(_name)
            return _fn(*args)
        monkeypatch.setattr(kernels, name, counted)

    def gram_pass(*args, _bind=kernels.lsq_gram_pass):
        binds.append(len(entered))
        run = _bind(*args)

        def counted(x, Ax):
            entered[-1].append("lsq_gram_pass")
            run(x, Ax)
        return counted
    monkeypatch.setattr(kernels, "lsq_gram_pass", gram_pass)
    for name in ("_parse_fast", "_parse_lines"):
        def parser(text, n_cols, _name=name, _fn=getattr(data, name)):
            entered[-1].append(_name)
            texts.append(text)
            return _fn(text, n_cols)
        monkeypatch.setattr(data, name, parser)

    def solve(*args, _fn=kernels._lib.anderson_extrapolate):
        entered[-1].append("anderson_extrapolate")
        return _fn(*args)
    monkeypatch.setattr(kernels._lib, "anderson_extrapolate", solve)

    out = tmp_path / "kb.json"
    kernel_bench.main(["--n", "20", "--p", "30", "--repeat", "1",
                       "--json", str(out)])
    report = json.loads(out.read_text(encoding="utf-8"))
    names = [case["case"] for case in report["cases"]]
    assert names == (CASES + ["sparse_" + c for c in CASES]
                     + ["sparse_parse_libsvm", "quad_gs_pass",
                        "anderson_extrapolate_p200",
                        "anderson_extrapolate_p500"])
    assert report["args"] == {"n": 20, "p": 30, "repeat": 1}
    assert set(report["blas_env"].values()) == {"1"}
    assert report["kernel_cflags"] == list(kernels.CFLAGS)
    by_case = dict(zip(names, entered, strict=True))
    assert binds == [0]  # the dense lasso's, before any timer
    assert by_case["lasso_pass"] == ["lsq_gram_pass"]
    assert by_case["sparse_lasso_pass"] == ["lasso_epoch"]
    assert by_case["logreg_l1_pass"] == ["logreg_l1_epoch"]
    assert by_case["quad_gs_pass"] == []
    for p in (200, 500):
        assert by_case[f"anderson_extrapolate_p{p}"] == [
            "anderson_extrapolate"]
    # the fast parser takes the text whole, and it holds the sparse design
    assert by_case["sparse_parse_libsvm"] == ["_parse_fast"]
    S, y = kernel_bench.sparse_design()
    (text,) = texts
    assert text == data.serialize_libsvm(data.Dataset(S, y))
    assert capsys.readouterr().out.count("ms\n") == len(names)
