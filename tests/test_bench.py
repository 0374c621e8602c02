import configparser
import dataclasses
import gzip
import math
import os
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from extracd import bench
from extracd.bench import (BenchSpec, ReferenceOptimum, build_dataset,
                           build_problems, compute_reference, fingerprint,
                           load_config, run_bench, write_trace_csv)
from extracd.cli import main
from extracd.data import CscMatrix, Dataset, gen_correlated_gaussian
from extracd.errors import ArgumentError
from extracd.problems import (ElasticNet, GroupLasso, Lasso, LogRegL1,
                              LogRegL2, Quadratic, groups_from_size,
                              lambda_max, stopping_measure,
                              tikhonov_for_condition)
from extracd.solvers import Trace
from extracd.svgplot import write_line_plot


BASE_CONFIG = {
    "dataset": {"source": "synthetic", "n": "40", "p": "16", "corr": "0.5",
                "snr": "3.0", "seed": "3"},
    "problem": {"kind": "lasso", "lambda_fracs": "0.1"},
    "solvers": {"names": "pcd, pcd_anderson"},
    "run": {"max_epochs": "200", "tol": "1e-10", "seed": "0",
            "ref_budget_factor": "10"},
    "output": {"dir": "results"},
}


def write_config(path, overrides=None):
    cfg = {sec: dict(vals) for sec, vals in BASE_CONFIG.items()}
    for sec, vals in (overrides or {}).items():
        cfg.setdefault(sec, {}).update(vals)
    parser = configparser.ConfigParser()
    parser.read_dict(cfg)
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)
    return path


def small_lasso(seed=0, n=30, p=10, frac=0.2):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, p))
    A = CscMatrix.from_dense(M)
    y = rng.standard_normal(n)
    return Lasso(A, y, frac * lambda_max(Lasso(A, y, 1.0)))


def read_csv(path):
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


def rows_without_seconds(path):
    header, rows = read_csv(path)
    return header, [(r[0], r[2], r[3], r[4]) for r in rows]


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

class TestLoadConfig:
    def test_full_round_trip(self, tmp_path):
        path = write_config(tmp_path / "b.ini", {
            "dataset": {"source": "path", "path": "data/x.libsvm",
                        "n_cols": "25", "corr": "0.8", "snr": "2.5",
                        "seed": "11"},
            "problem": {"kind": "enet", "lambda_fracs": "0.5 0.05",
                        "rho_fracs": "1.0", "group_size": "4",
                        "kappa": "1e4"},
            "solvers": {"names": "pcd, pcd_anderson, fista"},
            "run": {"max_epochs": "77", "tol": "1e-8", "seed": "5",
                    "ref_budget_factor": "12"},
            "output": {"dir": "out_here"},
        })
        spec = load_config(path)
        assert spec == BenchSpec(
            source="path", path="data/x.libsvm", n_cols=25, n=40, p=16,
            corr=0.8, snr=2.5, data_seed=11, kind="enet",
            lambda_fracs=(0.5, 0.05), rho_fracs=(1.0,), group_size=4,
            kappa=1e4, solvers=("pcd", "pcd_anderson", "fista"),
            max_epochs=77, tol=1e-8, seed=5, ref_budget_factor=12,
            out_dir="out_here")
        # every key is set away from its default, so each one is checked
        assert all(getattr(spec, f.name) != f.default
                   for f in dataclasses.fields(BenchSpec))

    def test_defaults_fill_missing_keys(self, tmp_path):
        path = tmp_path / "m.ini"
        path.write_text("[problem]\nkind = lasso\n", encoding="utf-8")
        spec = load_config(path)
        assert spec == BenchSpec(kind="lasso")

    def test_cli_overrides(self, tmp_path):
        path = write_config(tmp_path / "b.ini")
        spec = load_config(path, out_dir=str(tmp_path / "o"), seed=9)
        assert spec.out_dir == str(tmp_path / "o")
        assert spec.seed == 9

    def test_inline_comments_stripped(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[run]\nmax_epochs = 50 ; budget\n",
                        encoding="utf-8")
        assert load_config(path).max_epochs == 50

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError, match="not found"):
            load_config(tmp_path / "nope.ini")

    @pytest.mark.parametrize("overrides,fragment", [
        ({"extra": {"a": "1"}}, "unknown config section"),
        ({"dataset": {"bogus": "1"}}, "bogus"),
        ({"run": {"max_epochs": "many"}}, "run.max_epochs"),
        ({"dataset": {"source": "ftp"}}, "dataset.source"),
        ({"problem": {"kind": "ridge"}}, "problem.kind"),
        ({"solvers": {"names": "pcd, warp_drive"}}, "warp_drive"),
        ({"solvers": {"names": ""}}, "at least one"),
        ({"run": {"ref_budget_factor": "2"}}, "at least 10"),
        ({"run": {"tol": "nan"}}, "tol"),
        ({"run": {"seed": "-1"}}, "seed must be an integer >= 0"),
        ({"dataset": {"seed": "-1"}},
         "^dataset.seed must be an integer >= 0, not -1$"),
        ({"dataset": {"n": "0"}}, "^dataset.n must be an integer >= 1"),
        ({"dataset": {"p": "-3"}}, "^dataset.p must be an integer >= 1"),
        ({"dataset": {"corr": "1.0"}}, r"^dataset.corr must lie in \[0, 1\)"),
        ({"dataset": {"snr": "inf"}}, "^dataset.snr must be finite"),
    ])
    def test_rejections(self, tmp_path, overrides, fragment):
        path = write_config(tmp_path / "bad.ini", overrides)
        with pytest.raises(ArgumentError, match=fragment):
            load_config(path)

    def test_synthetic_keys_are_checked_only_for_synthetic_data(self,
                                                                tmp_path):
        # the generator's keys are unused by the other sources
        path = write_config(tmp_path / "s.ini", {
            "dataset": {"source": "sample", "seed": "-1", "n": "0"}})
        assert load_config(path).data_seed == -1

    def test_path_source_requires_path(self, tmp_path):
        path = write_config(tmp_path / "p.ini",
                            {"dataset": {"source": "path"}})
        with pytest.raises(ArgumentError, match="dataset.path"):
            load_config(path)


# ---------------------------------------------------------------------------
# problem grid and fingerprints
# ---------------------------------------------------------------------------

class TestGridAndFingerprint:
    def test_build_problems_tags(self):
        spec = BenchSpec(n=30, p=12, kind="enet",
                         lambda_fracs=(0.5, 0.1), rho_fracs=(1.0,))
        ds = build_dataset(spec)
        tagged = build_problems(spec, ds)
        assert [t for t, _ in tagged] == ["enet_lf0.5_rf1", "enet_lf0.1_rf1"]
        for _, prob in tagged:
            assert isinstance(prob, ElasticNet)
            assert prob.rho == prob.lam

    @pytest.mark.parametrize("kind, lambda_fracs, rho_fracs, tag", [
        ("lasso", (0.1, 0.1000001), (0.1,), "lasso_lf0.1"),
        ("lasso", (0.1, 0.1), (0.1,), "lasso_lf0.1"),
        ("enet", (0.1,), (0.5, 0.5000001), "enet_lf0.1_rf0.5"),
    ], ids=["lambda_fracs_within_g", "lambda_fracs_exact", "rho_fracs"])
    def test_repeated_tags_are_refused(self, kind, lambda_fracs, rho_fracs,
                                       tag):
        # references and output files are keyed by tag: two problems of one
        # tag would share a reference and overwrite each other's files
        spec = BenchSpec(n=30, p=12, kind=kind, lambda_fracs=lambda_fracs,
                         rho_fracs=rho_fracs)
        with pytest.raises(ArgumentError, match=f"tag '{tag}'"):
            build_problems(spec, build_dataset(spec))

    @pytest.mark.parametrize("n,p", [(10, 40), (40, 10)])
    def test_logreg_l2_eigenvalues_from_smaller_gram(self, monkeypatch, n,
                                                     p):
        rng = np.random.default_rng(21)
        M = rng.standard_normal((n, p))
        ds = Dataset(CscMatrix.from_dense(M), np.sign(rng.standard_normal(n)))
        eigvalsh = np.linalg.eigvalsh
        seen = []

        def spy(a):
            seen.append(a.shape)
            return eigvalsh(a)
        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        (_, prob), = build_problems(BenchSpec(kind="logreg_l2", kappa=2.0),
                                    ds)
        assert seen == [(min(n, p), min(n, p))]
        want = tikhonov_for_condition(eigvalsh(M.T @ M.copy()) / 4.0, 2.0)
        if p <= n:
            assert prob.lam == want
        else:
            assert abs(prob.lam - want) <= 1e-10 * want

    def test_logreg_l2_kappa_above_sample_condition_number(self):
        spec = BenchSpec(source="sample", kind="logreg_l2")
        with pytest.raises(ArgumentError, match="kappa is above"):
            build_problems(spec, build_dataset(spec))

    @pytest.mark.parametrize("kind,cls", [
        ("lasso", Lasso), ("enet", ElasticNet), ("logreg_l1", LogRegL1),
        ("logreg_l2", LogRegL2), ("group_lasso", GroupLasso),
        ("quadratic", Quadratic)])
    def test_every_kind_builds_its_own_problems(self, tmp_path, kind, cls):
        cfg = write_config(tmp_path / "b.ini", {"problem": {"kind": kind}})
        assert load_config(cfg).kind == kind
        rng = np.random.default_rng(22)
        ds = Dataset(CscMatrix.from_dense(rng.standard_normal((30, 12))),
                     np.sign(rng.standard_normal(30)))
        tagged = build_problems(BenchSpec(kind=kind, kappa=2.0), ds)
        assert tagged
        for tag, prob in tagged:
            assert tag.startswith(kind) and type(prob) is cls

    def test_fingerprint_stable_and_sensitive(self):
        prob = small_lasso(seed=1)
        again = small_lasso(seed=1)
        assert fingerprint(prob) == fingerprint(again)
        other_lam = Lasso(prob.A, prob.y, prob.lam * 0.5)
        assert fingerprint(other_lam) != fingerprint(prob)
        other_data = small_lasso(seed=2)
        assert fingerprint(other_data) != fingerprint(prob)

    def test_fingerprint_separates_types(self):
        prob = small_lasso(seed=3)
        enet = ElasticNet(prob.A, prob.y, prob.lam, 0.0)
        assert fingerprint(enet) != fingerprint(prob)


# ---------------------------------------------------------------------------
# reference optima
# ---------------------------------------------------------------------------

def damage_entry(path, damage):
    """Overwrite the cache entry at ``path``: with no bytes, with bytes
    that are no npz, or with the npz less its ``x_star``."""
    if damage == "empty":
        path.write_bytes(b"")
    elif damage == "not_npz":
        path.write_bytes(b"not an npz archive\n")
    else:
        with np.load(path, allow_pickle=False) as blob:
            stored = {k: blob[k] for k in blob.files if k != "x_star"}
        np.savez(path, **stored)


class TestReference:
    def test_uncached_reference_verified(self):
        prob = small_lasso(seed=4)
        ref = compute_reference(prob, budget=4000)
        assert ref.verified
        assert ref.producer == "pcd_anderson"
        assert ref.epochs >= 1
        assert ref.x_star.shape == (10,)

    def test_budget_validation(self):
        with pytest.raises(ArgumentError, match="budget"):
            compute_reference(small_lasso(), budget=0)

    def test_cache_round_trip_and_hit(self, tmp_path):
        prob = small_lasso(seed=5)
        cache = tmp_path / "refs"
        ref = compute_reference(prob, budget=4000, cache_dir=str(cache))
        files = list(cache.glob("*.npz"))
        assert files == [cache / f"{ref.fingerprint}.npz"]

        # doctor the cached value; a second call must return it untouched
        with np.load(files[0], allow_pickle=False) as blob:
            stored = dict(blob)
        stored["f_star"] = np.float64(-123.5)
        np.savez(files[0], **stored)
        hit = compute_reference(prob, budget=4000, cache_dir=str(cache))
        assert hit.f_star == -123.5
        assert hit.verified == ref.verified

    def test_failed_cache_write_leaves_no_file(self, tmp_path, monkeypatch):
        prob = small_lasso(seed=5)
        cache = tmp_path / "refs"

        def broken_savez(file, **arrays):
            # some bytes reach the target (a path or an open handle)
            partial = b"PK\x03\x04 half an archive"
            if isinstance(file, (str, os.PathLike)):
                with open(file, "wb") as fh:
                    fh.write(partial)
            else:
                file.write(partial)
            raise OSError("disk full")

        with monkeypatch.context() as patch:
            patch.setattr(np, "savez", broken_savez)
            with pytest.raises(OSError, match="disk full"):
                compute_reference(prob, budget=4000, cache_dir=str(cache))
        assert list(cache.iterdir()) == []

        # nothing half-written is reused: the next call solves and caches
        ref = compute_reference(prob, budget=4000, cache_dir=str(cache))
        assert ref.verified
        assert list(cache.iterdir()) == [cache / f"{ref.fingerprint}.npz"]

    def test_verified_allows_ulps_of_f_star(self, monkeypatch):
        # the recomputed measure sits a few ulps of f* above tol, where
        # double precision leaves a converged solve with a large f*
        evaluate = bench.evaluate

        def ulps_above_tol(prob, x):
            f_star, gap, _ = evaluate(prob, x)
            return f_star, gap, 1e-12 + 8 * np.spacing(f_star)

        monkeypatch.setattr(bench, "evaluate", ulps_above_tol)
        ref = compute_reference(small_lasso(seed=5), budget=4000)
        assert ref.verified

    @pytest.mark.parametrize("budget", [6, 10])
    def test_budget_cut_reference_unverified(self, budget, tmp_path,
                                             monkeypatch):
        prob = small_lasso(seed=5)
        ref = compute_reference(prob, budget=budget)
        assert ref.epochs == budget
        assert stopping_measure(prob, ref.x_star) > 1e-10
        assert not ref.verified

        # a cached cut reference serves no larger budget than its own
        solves = []
        solve = bench.anderson_pcd
        monkeypatch.setattr(bench, "anderson_pcd", lambda prob, cfg: (
            solves.append(cfg.max_epochs) or solve(prob, cfg)))
        cache = str(tmp_path / "refs")
        cut = compute_reference(prob, budget=budget, cache_dir=cache)
        assert (cut.epochs, cut.verified) == (budget, False)
        for smaller in (budget, budget - 1):
            hit = compute_reference(prob, budget=smaller, cache_dir=cache)
            assert hit.f_star == cut.f_star
        assert solves == [budget]
        full = compute_reference(prob, budget=4000, cache_dir=cache)
        assert full.verified and full.epochs < 4000
        assert solves == [budget, 4000]
        # the verified entry replaced the cut one and serves any budget
        hit = compute_reference(prob, budget=budget, cache_dir=cache)
        assert (hit.f_star, hit.epochs, hit.verified) == (
            full.f_star, full.epochs, True)
        # a different tol is a different reference
        compute_reference(prob, budget=4000, cache_dir=cache, tol=1e-8)
        assert solves == [budget, 4000, 4000]

    @pytest.mark.parametrize("damage", ["empty", "not_npz", "lacks_key"])
    def test_damaged_entry_is_solved_again(self, damage, tmp_path,
                                           monkeypatch):
        prob = small_lasso(seed=5)
        cache = tmp_path / "refs"
        ref = compute_reference(prob, budget=4000, cache_dir=str(cache))
        damage_entry(cache / f"{ref.fingerprint}.npz", damage)

        solves = []
        solve = bench.anderson_pcd
        monkeypatch.setattr(bench, "anderson_pcd", lambda prob, cfg: (
            solves.append(cfg.max_epochs) or solve(prob, cfg)))
        again = compute_reference(prob, budget=4000, cache_dir=str(cache))
        assert solves == [4000]
        assert (again.f_star, again.epochs, again.verified) == (
            ref.f_star, ref.epochs, True)
        # the entry was replaced whole, and the next call reads it
        assert list(cache.iterdir()) == [cache / f"{ref.fingerprint}.npz"]
        hit = compute_reference(prob, budget=4000, cache_dir=str(cache))
        assert solves == [4000]
        assert hit.x_star.tobytes() == ref.x_star.tobytes()

    def test_distinct_problems_distinct_cache_files(self, tmp_path):
        cache = str(tmp_path / "refs")
        compute_reference(small_lasso(seed=6), budget=3000, cache_dir=cache)
        compute_reference(small_lasso(seed=7), budget=3000, cache_dir=cache)
        assert len(list(Path(cache).glob("*.npz"))) == 2

    def test_group_partitions_do_not_share_an_entry(self, tmp_path):
        # same data, lam and concatenated column order; only the block
        # sizes differ
        ds, _ = gen_correlated_gaussian(30, 12, 0.5, 3.0, seed=1)
        by3, by4 = (GroupLasso(ds.A, ds.y, 2.0, groups_from_size(12, size))
                    for size in (3, 4))
        assert fingerprint(by3) != fingerprint(by4)
        cache = str(tmp_path / "refs")
        first = compute_reference(by3, budget=2000, cache_dir=cache)
        second = compute_reference(by4, budget=2000, cache_dir=cache)
        assert second.f_star == compute_reference(by4, budget=2000).f_star
        assert abs(second.f_star - first.f_star) > 0.01


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

class TestTraceCsv:
    def test_golden_layout(self, tmp_path):
        tr = Trace(solver="demo")
        tr.record(0, 0.0, 3.0, None)
        tr.record(1, 0.25, 1.5, 0.125)
        path = tmp_path / "t.csv"
        write_trace_csv(path, tr, f_star=1.0)
        header, rows = read_csv(path)
        assert header == "epoch,seconds,objective,subopt,gap"
        assert rows[0] == ["0", "0.000000", "3", "2", ""]
        assert rows[1] == ["1", "0.250000", "1.5", "0.5", "0.125"]

    def test_full_precision_round_trip(self, tmp_path):
        tr = Trace(solver="demo")
        obj = 1.0 + 1e-13
        tr.record(0, 0.0, obj, math.pi * 1e-11)
        path = tmp_path / "p.csv"
        write_trace_csv(path, tr, f_star=1.0)
        _, rows = read_csv(path)
        assert float(rows[0][2]) == obj
        assert float(rows[0][3]) == obj - 1.0
        assert float(rows[0][4]) == math.pi * 1e-11


class TestLinePlot:
    @pytest.mark.parametrize("series", [
        [("a", [3], [0.5]), ("b", [3], [0.25])],
        [("a", [0, 1], [0.0, -1.0]), ("b", [], [])],
        [("a", [0, 1, 2], [0.5, 0.5, 0.5]), ("b", [0], [0.5])],
    ], ids=["one_x", "no_positive_y", "one_y"])
    def test_degenerate_series_still_plotted(self, series, tmp_path):
        path = tmp_path / "plot.svg"
        write_line_plot(path, "degenerate", series)
        texts = [el.text for el in ET.parse(path).iter()
                 if el.tag.endswith("text") and el.text]
        assert {"a", "b"} <= set(texts)


# ---------------------------------------------------------------------------
# full runs
# ---------------------------------------------------------------------------

def tiny_spec(out_dir, **over):
    base = dict(n=40, p=16, corr=0.5, snr=3.0, data_seed=3, kind="lasso",
                lambda_fracs=(0.1,), solvers=("pcd", "pcd_anderson"),
                max_epochs=300, tol=1e-10, out_dir=str(out_dir))
    base.update(over)
    return BenchSpec(**base)


class TestRunBench:
    def test_produces_expected_files(self, tmp_path):
        spec = tiny_spec(tmp_path / "out")
        summary = run_bench(spec)
        assert summary["errors"] == []
        assert sorted(os.path.basename(p) for p in summary["csv"]) == [
            "lasso_lf0.1_pcd.csv", "lasso_lf0.1_pcd_anderson.csv"]
        assert [os.path.basename(p) for p in summary["svg"]] == [
            "lasso_lf0.1.svg"]
        for p in summary["csv"] + summary["svg"]:
            assert os.path.exists(p)
        refs = list((tmp_path / "out" / "refs").glob("*.npz"))
        assert len(refs) == 1

    def test_csv_contents_sane(self, tmp_path):
        spec = tiny_spec(tmp_path / "out")
        summary = run_bench(spec)
        for path in summary["csv"]:
            header, rows = read_csv(path)
            assert header == "epoch,seconds,objective,subopt,gap"
            assert rows[0][0] == "0" and rows[0][1] == "0.000000"
            subopt = [float(r[3]) for r in rows]
            gaps = [float(r[4]) for r in rows]
            # the gap certificate dominates the true suboptimality
            assert all(g >= s - 1e-9 for g, s in zip(gaps, subopt))
            assert subopt[-1] <= 1e-9

    def test_job_error_isolated(self, tmp_path):
        spec = tiny_spec(tmp_path / "out",
                         solvers=("pcd", "cg", "pcd_anderson"))
        summary = run_bench(spec)
        assert len(summary["errors"]) == 1
        tag, solver, message = summary["errors"][0]
        assert (tag, solver) == ("lasso_lf0.1", "cg")
        assert "quadratic" in message
        assert len(summary["csv"]) == 2

    def test_deterministic_modulo_seconds(self, tmp_path):
        a = run_bench(tiny_spec(tmp_path / "a"))
        b = run_bench(tiny_spec(tmp_path / "b"))
        for pa, pb in zip(sorted(a["csv"]), sorted(b["csv"])):
            assert rows_without_seconds(pa) == rows_without_seconds(pb)

    def test_svg_well_formed_with_legend(self, tmp_path):
        spec = tiny_spec(tmp_path / "out")
        summary = run_bench(spec)
        tree = ET.parse(summary["svg"][0])
        texts = [el.text for el in tree.iter()
                 if el.tag.endswith("text") and el.text]
        assert "pcd" in texts
        assert "pcd_anderson" in texts


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

SAMPLE_LIBSVM = "1 1:0.5 3:-2.0\n-1 2:1.25\n"


class TestCli:
    def test_bench_exit_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "b.ini",
                           {"run": {"max_epochs": "300"}})
        out = tmp_path / "res"
        assert main(["bench", "--config", str(cfg), "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "lasso_lf0.1_pcd.csv" in printed
        assert (out / "lasso_lf0.1.svg").exists()

    @pytest.mark.parametrize("max_epochs, verified", [("2", False),
                                                      ("300", True)])
    def test_bench_flags_unverified_reference(self, max_epochs, verified,
                                              tmp_path, capsys):
        cfg = write_config(tmp_path / "b.ini",
                           {"problem": {"lambda_fracs": "0.05"},
                            "run": {"max_epochs": max_epochs}})
        out = tmp_path / "res"
        assert main(["bench", "--config", str(cfg), "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert all(line.startswith("wrote ")
                   for line in captured.out.splitlines())
        warning = ("warning: lasso_lf0.05: suboptimality is measured against "
                   "an UNVERIFIED reference optimum\n")
        assert captured.err == ("" if verified else warning)
        title = ET.parse(out / "lasso_lf0.05.svg").getroot().find(
            "{http://www.w3.org/2000/svg}title").text
        assert title.endswith(", UNVERIFIED reference") != verified

    def test_bench_partial_failure_exit_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "b.ini",
                           {"solvers": {"names": "pcd, cg"}})
        out = tmp_path / "res"
        assert main(["bench", "--config", str(cfg), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert "FAILED lasso_lf0.1/cg" in captured.err

    def test_bench_bad_config_exit_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "b.ini",
                           {"problem": {"kind": "ridge"}})
        assert main(["bench", "--config", str(cfg)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["bench", "ref"])
    @pytest.mark.parametrize("content,fragment", [
        (b"[dataset]\nn = 30\nn = 40\n", "bad.ini"),
        (b"[run]\n[run]\n", "bad.ini"),
        (b"n = 30\n", "bad.ini"),
        (b"[dataset]\nn 30\n", "bad.ini"),
        (b"[dataset]\nn = 30 ; \xe9t\xe9\n", "bad.ini"),
        ({"problem": {"lambda_fracs": ""}}, "problem.lambda_fracs"),
        ({"problem": {"kind": "enet", "rho_fracs": ""}}, "problem.rho_fracs"),
    ], ids=["repeated_option", "repeated_section", "no_section", "no_equals",
            "non_utf8", "empty_lambda_fracs", "empty_rho_fracs"])
    def test_bad_config_exit_two_naming_it(self, command, content, fragment,
                                           tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        if isinstance(content, bytes):
            cfg.write_bytes(content)
        else:
            write_config(cfg, content)
        out = tmp_path / "res"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert fragment in captured.err
        assert not out.exists()

    def test_bench_nan_tol_exit_two_before_any_solve(self, tmp_path, capsys,
                                                     monkeypatch):
        monkeypatch.setattr(bench, "compute_reference", None)
        cfg = write_config(tmp_path / "b.ini", {"run": {"tol": "nan"}})
        out = tmp_path / "res"
        assert main(["bench", "--config", str(cfg), "--out", str(out)]) == 2
        assert "tol" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("seed", ["-1", "--seed"])
    def test_bench_negative_seed_exit_two_before_any_solve(
            self, seed, tmp_path, capsys, monkeypatch):
        # ``seed = -1`` once passed the config check, and bench computed the
        # references and failed each randomized solve, exiting 1
        monkeypatch.setattr(bench, "compute_reference", None)
        if seed == "--seed":
            cfg, flags = write_config(tmp_path / "b.ini"), ["--seed", "-1"]
        else:
            cfg, flags = write_config(tmp_path / "b.ini",
                                      {"run": {"seed": seed}}), []
        out = tmp_path / "res"
        assert main(["bench", "--config", str(cfg), "--out", str(out),
                     *flags]) == 2
        assert "seed must be an integer >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_bench_negative_data_seed_exit_two_before_any_work(
            self, tmp_path, capsys, monkeypatch):
        # ``[dataset] seed = -1`` once passed the config check, and bench
        # ended in numpy's ValueError from the generator, exiting 1
        monkeypatch.setattr(bench, "build_dataset", None)
        cfg = write_config(tmp_path / "b.ini", {"dataset": {"seed": "-1"}})
        out = tmp_path / "res"
        assert main(["bench", "--config", str(cfg), "--out", str(out)]) == 2
        assert ("dataset.seed must be an integer >= 0"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_bench_enet_without_rows_exit_two(self, tmp_path, capsys):
        empty = tmp_path / "empty.libsvm"
        empty.write_text("", encoding="utf-8")
        cfg = write_config(tmp_path / "b.ini", {
            "dataset": {"source": "path", "path": str(empty), "n_cols": "4"},
            "problem": {"kind": "enet"}})
        assert main(["bench", "--config", str(cfg), "--out",
                     str(tmp_path / "res")]) == 2
        assert "mean over rows" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["bench", "ref"])
    def test_repeated_tag_exit_two_naming_it(self, command, tmp_path,
                                             capsys):
        cfg = write_config(tmp_path / "b.ini",
                           {"problem": {"lambda_fracs": "0.1 0.1000001"}})
        out = tmp_path / "res"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "tag 'lasso_lf0.1'" in captured.err
        assert not out.exists()

    def test_bench_missing_config_exit_two(self, tmp_path, capsys):
        assert main(["bench", "--config", str(tmp_path / "no.ini")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_range_writes_boundary_csv(self, tmp_path, capsys):
        out = tmp_path / "r"
        code = main(["range", "--n", "30", "--p", "12", "--q", "1", "4",
                     "--angles", "48", "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "q=1 contains_one=True" in printed
        for q in (1, 4):
            header, rows = read_csv(out / f"range_q{q}.csv")
            assert header == "angle,re,im"
            assert len(rows) == 48

    def test_range_negative_seed_exit_two(self, tmp_path, capsys):
        # numpy's ValueError once ended it in a traceback
        out = tmp_path / "r"
        assert main(["range", "--seed", "-1", "--out", str(out)]) == 2
        assert "seed must be an integer >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_ref_prints_cache_lines(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "b.ini")
        out = tmp_path / "res"
        assert main(["ref", "--config", str(cfg), "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "lasso_lf0.1: f_star=" in printed
        assert ".npz" in printed
        assert list((out / "refs").glob("*.npz"))

    def test_ref_then_bench_share_references(self, tmp_path, monkeypatch,
                                             capsys):
        cfg = write_config(tmp_path / "b.ini",
                           {"problem": {"lambda_fracs": "0.1 0.05"}})
        out = str(tmp_path / "res")
        solve = bench.anderson_pcd
        calls = []

        def counted(prob, cfg):
            calls.append(prob)
            return solve(prob, cfg)
        monkeypatch.setattr(bench, "anderson_pcd", counted)
        assert main(["ref", "--config", str(cfg), "--out", out]) == 0
        assert main(["bench", "--config", str(cfg), "--out", out]) == 0
        assert len(calls) == 2

    @pytest.mark.parametrize("command", ["ref", "bench"])
    @pytest.mark.parametrize("damage", ["empty", "not_npz", "lacks_key"])
    def test_damaged_cache_entry_is_replaced(self, command, damage,
                                             tmp_path, capsys):
        cfg = write_config(tmp_path / "b.ini")
        out = tmp_path / "res"
        assert main(["ref", "--config", str(cfg), "--out", str(out)]) == 0
        (entry,) = (out / "refs").glob("*.npz")
        with np.load(entry, allow_pickle=False) as blob:
            first = dict(blob)
        damage_entry(entry, damage)
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        assert "error" not in capsys.readouterr().err
        assert list((out / "refs").iterdir()) == [entry]
        with np.load(entry, allow_pickle=False) as blob:
            assert sorted(blob.files) == sorted(first)
            for key, value in first.items():
                assert blob[key].tobytes() == value.tobytes(), key

    def test_parse_check_ok(self, tmp_path, capsys):
        data = tmp_path / "d.libsvm"
        data.write_text(SAMPLE_LIBSVM, encoding="utf-8")
        assert main(["parse-check", str(data)]) == 0
        printed = capsys.readouterr().out
        assert printed.startswith("OK: 2 rows, 3 cols, 3 nonzeros")

    def test_parse_check_pads_columns(self, tmp_path, capsys):
        data = tmp_path / "d.libsvm"
        data.write_text(SAMPLE_LIBSVM, encoding="utf-8")
        assert main(["parse-check", str(data), "--n-cols", "8"]) == 0
        assert "8 cols" in capsys.readouterr().out

    def test_parse_check_reports_line(self, tmp_path, capsys):
        data = tmp_path / "bad.libsvm"
        data.write_text("1 1:0.5\n-1 nonsense\n", encoding="utf-8")
        assert main(["parse-check", str(data)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_parse_check_non_utf8_exit_two(self, tmp_path, capsys):
        data = tmp_path / "bad.libsvm"
        data.write_bytes(b"1 1:0.5\n-1 2:1.25 # \xe9t\xe9\n")
        assert main(["parse-check", str(data)]) == 2
        assert "error: line 2: text is not UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("cut", [0.5, 0.9])
    def test_parse_check_truncated_gzip_exit_two(self, cut, tmp_path,
                                                 capsys):
        data = tmp_path / "d.libsvm.gz"
        blob = gzip.compress(SAMPLE_LIBSVM.encode())
        data.write_bytes(blob[:int(cut * len(blob))])
        assert main(["parse-check", str(data)]) == 2
        assert "error: truncated or corrupt gzip" in capsys.readouterr().err

    @pytest.mark.parametrize("raw", [
        b"1 1:0.5\n-1 2:\xff\n",
        gzip.compress(b"1 1:0.5\n-1 2:1\n")[:-10],
    ], ids=["non_utf8", "truncated_gzip"])
    def test_bench_unreadable_path_exit_two(self, raw, tmp_path, capsys):
        data = tmp_path / "d.libsvm"
        data.write_bytes(raw)
        cfg = write_config(tmp_path / "b.ini", {
            "dataset": {"source": "path", "path": str(data)}})
        assert main(["bench", "--config", str(cfg), "--out",
                     str(tmp_path / "res")]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["parse-check", "ref"])
    def test_index_beyond_int64_exit_two(self, command, tmp_path, capsys):
        # the parser once ended in numpy's OverflowError: a traceback, exit 1
        data = tmp_path / "d.libsvm"
        data.write_text("1 100000000000000000000:1\n", encoding="utf-8")
        cfg = write_config(tmp_path / "b.ini", {
            "dataset": {"source": "path", "path": str(data)}})
        argv = ([command, str(data)] if command == "parse-check" else
                [command, "--config", str(cfg), "--out", str(tmp_path / "r")])
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: line 1: feature index in '100000000000000000000:1' "
            "exceeds 9223372036854775807\n")

    @pytest.mark.parametrize("index", ["1000000000000",
                                       "9223372036854775807"])
    def test_index_beyond_memory_exit_two(self, index, tmp_path, capsys):
        # numpy's _ArrayMemoryError or ValueError once gave a traceback,
        # exit 1
        data = tmp_path / "d.libsvm"
        data.write_text(f"1 {index}:1\n", encoding="utf-8")
        assert main(["parse-check", str(data)]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: feature index {index} needs {8 * (int(index) + 1)} "
            "bytes of column pointers, ")

    def test_parse_check_missing_file(self, tmp_path, capsys):
        assert main(["parse-check", str(tmp_path / "gone")]) == 2
        assert "error:" in capsys.readouterr().err
