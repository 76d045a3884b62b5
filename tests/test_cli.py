import dataclasses
import json
import subprocess
import sys

import numpy as np
import pytest

from sigcluster import (
    SigtestConfig,
    TwoClusterSpec,
    bundled_manifest,
    dip_reference_table,
    dip_test,
    gen_two_clusters,
    load_csv,
    read_results,
    run_method,
    run_test_benchmark,
)
from sigcluster import benchmark, cli, data_io
from sigcluster.baselines import AD_ALPHA, KS_ALPHA
from sigcluster.cli import main
from sigcluster.sigtest import MIN_SAMPLES


@pytest.fixture
def unimodal_csv(tmp_path):
    y = np.random.default_rng(21).normal(size=200)
    p = tmp_path / "unimodal.csv"
    p.write_text("\n".join(f"{v}" for v in y) + "\n")
    return str(p)


@pytest.fixture
def bimodal_csv(tmp_path):
    rng = np.random.default_rng(27)
    y = np.concatenate([rng.normal(-3.0, 1, 100), rng.normal(3.0, 1, 100)])
    p = tmp_path / "bimodal_6sigma.csv"
    p.write_text("value\n" + "\n".join(f"{v}" for v in y) + "\n")
    return str(p)


class TestTestCommand:
    def test_unimodal_exit_0(self, unimodal_csv, capsys):
        code = main(["test", "--method", "sigtest1", unimodal_csv])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["decision"] == "unimodal"
        assert report["N"] == 200
        assert "defaults" in report and report["defaults"]["gamma"] == 2.0

    def test_bimodal_exit_3(self, bimodal_csv, capsys):
        code = main(["test", "--method", "sigtest1", bimodal_csv])
        assert code == 3
        report = json.loads(capsys.readouterr().out)
        assert report["decision"] == "split"
        assert report["C"] > 0.4

    def test_threshold_reaches_the_test(self, bimodal_csv, capsys):
        # no violation fraction exceeds 1: the bimodal sample is kept whole
        assert main(["test", "--threshold", "1.0", bimodal_csv]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["C"] > 0.4 and report["defaults"]["threshold"] == 1.0

    def test_all_methods_run(self, bimodal_csv, capsys):
        for method in ("sigtest2", "ad", "ks"):
            code = main(["test", "--method", method, bimodal_csv])
            assert code == 3, method
            capsys.readouterr()

    def test_dip_bootstrap_is_the_benchmark_one(self, tmp_path, capsys):
        # a sample whose dip exceeds every seed-0 bootstrap dip; the
        # benchmark's table rejects it, and so must the command
        y = gen_two_clusters(TwoClusterSpec(separation=3.5, seed=10056)).rows[:, 0]
        assert dip_test(y).reject_unimodal
        p = tmp_path / "sep35.csv"
        p.write_text("\n".join(f"{v}" for v in y) + "\n")
        code = main(["test", "--method", "dip", str(p)])
        report = json.loads(capsys.readouterr().out)
        assert code == 3 and report["p_value"] == 0.0
        assert "seed" not in report["defaults"]

    def test_seed_is_not_a_test_option(self, unimodal_csv, capsys):
        assert main(["test", "--seed", "1", unimodal_csv]) == 2

    def test_missing_file_exit_1(self, capsys):
        code = main(["test", "/no/such/file.csv"])
        assert code == 1
        assert "/no/such/file.csv" in capsys.readouterr().err

    def test_unknown_method_exit_2(self, unimodal_csv, capsys):
        code = main(["test", "--method", "nope", unimodal_csv])
        assert code == 2

    def test_ks_constant_column_exit_1(self, tmp_path, capsys):
        p = tmp_path / "constant.csv"
        p.write_text("0.3\n" * 200)
        assert main(["test", "--method", "ks", str(p)]) == 1
        assert capsys.readouterr().err.startswith("error: zero spread")

    def test_dip_constant_column_exit_1(self, tmp_path, capsys):
        p = tmp_path / "constant.csv"
        p.write_text("0.3\n" * 200)
        assert main(["test", "--method", "dip", str(p)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: zero spread")
        assert captured.out == ""

    def test_undecodable_file_exit_1(self, tmp_path, capsys):
        # the header sniff used to decode the file itself and print the raw
        # codec error; the message is now load_csv's, as for `cluster`
        p = tmp_path / "raw.csv"
        p.write_bytes(b"0.1\n0.2\n0.3\n0.4\xff\n0.5\n")
        assert main(["test", str(p)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: dataset 'raw' ({p}): not UTF-8 text (")
        assert captured.out == ""

    @pytest.mark.parametrize("text", [
        pytest.param("\n".join(f'"{v}"' for v in range(50)), id="quoted"),
        pytest.param("\ufeff" + "\n".join(str(v) for v in range(50)), id="bom"),
        pytest.param("\n \n" + "\n".join(str(v) for v in range(50)), id="blank-first"),
    ])
    def test_numeric_first_row_is_data(self, tmp_path, capsys, text):
        # the header is decided on the cells as load_csv parses them: a
        # quoted number, a number after a BOM or after blank lines is data
        p = tmp_path / "column.csv"
        p.write_text(text + "\n", encoding="utf-8")
        assert main(["test", str(p)]) == 0
        assert json.loads(capsys.readouterr().out)["N"] == 50

    def test_text_first_row_is_header(self, tmp_path, capsys):
        p = tmp_path / "column.csv"
        p.write_text('\ufeff"value"\n' + "\n".join(str(v) for v in range(50)) + "\n",
                     encoding="utf-8")
        assert main(["test", str(p)]) == 0
        assert json.loads(capsys.readouterr().out)["N"] == 50

    def test_nan_gamma_exit_1(self, bimodal_csv, capsys):
        # used to report "unimodal" for every sample
        assert main(["test", "--gamma", "nan", bimodal_csv]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: gamma must be positive")
        assert captured.out == ""

    def test_defaults_echo_the_tests_own_level(self, unimodal_csv, capsys):
        # only AD and KS have a level; --alpha sets it for both
        levels = {"sigtest1": None, "sigtest2": None, "ad": AD_ALPHA, "ks": KS_ALPHA,
                  "dip": None}
        for method, alpha in levels.items():
            for args, echoed in (([], alpha), (["--alpha", "0.01"], alpha and 0.01)):
                main(["test", "--method", method, unimodal_csv, *args])
                assert json.loads(capsys.readouterr().out)["defaults"]["alpha"] == echoed

    def test_multicolumn_requires_centroids(self, tmp_path, capsys):
        p = tmp_path / "wide.csv"
        rng = np.random.default_rng(23)
        rows = rng.normal(size=(120, 2))
        p.write_text("\n".join(",".join(map(str, r)) for r in rows) + "\n")
        code = main(["test", str(p)])
        assert code == 2
        assert "1-d" in capsys.readouterr().err

    @pytest.mark.parametrize("centroids", [["--centroid1=1,2", "--centroid2=0"],
                                           ["--centroid1=1,2,3", "--centroid2=0,0,0"]])
    def test_centroid_shape_mismatch_exit_1(self, tmp_path, capsys, centroids):
        # --centroid2 0 used to broadcast and give a verdict with exit 0
        p = tmp_path / "wide.csv"
        rows = np.random.default_rng(23).normal(size=(120, 2))
        p.write_text("\n".join(",".join(map(str, r)) for r in rows) + "\n")
        assert main(["test", str(p), *centroids]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: centroids must have shape (2,)")
        assert captured.out == ""

    def test_multicolumn_with_projection(self, tmp_path, capsys):
        rng = np.random.default_rng(24)
        rows = np.vstack([rng.normal(size=(100, 2)) - [2, 0],
                          rng.normal(size=(100, 2)) + [2, 0]])
        p = tmp_path / "wide.csv"
        p.write_text("\n".join(",".join(map(str, r)) for r in rows) + "\n")
        code = main(["test", str(p), "--centroid1=-2,0", "--centroid2=2,0"])
        assert code == 3

    def test_delimiter_splits_the_columns(self, tmp_path, capsys):
        # the same rows with ";" between the cells give the same report
        rng = np.random.default_rng(24)
        rows = np.vstack([rng.normal(size=(100, 2)) - [2, 0],
                          rng.normal(size=(100, 2)) + [2, 0]])
        reports = []
        for name, sep, extra in (("comma.csv", ",", []), ("semi.csv", ";", ["--delimiter", ";"])):
            p = tmp_path / name
            p.write_text("\n".join(sep.join(map(str, r)) for r in rows) + "\n")
            assert main(["test", str(p), "--centroid1=-2,0", "--centroid2=2,0", *extra]) == 3
            reports.append({k: v for k, v in json.loads(capsys.readouterr().out).items()
                            if k != "input"})
        assert reports[0] == reports[1] and reports[0]["N"] == 200


class TestClusterCommand:
    def test_iris_gmeans_plus(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SIGCLUSTER_OUT_DIR", str(tmp_path))
        code = main(["cluster", "iris", "--method", "gmeans+", "--seed", "0"])
        assert code == 0
        out = capsys.readouterr().out
        summary = json.loads(out[:out.rindex("}") + 1])
        assert summary["k"] >= 2
        assert "ari" in summary and "vi" in summary
        full = json.loads((tmp_path / "iris_gmeans+.json").read_text())
        assert len(full["assignment"]) == 150
        assert full["split_log"]

    def test_unlabeled_csv_omits_metrics(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SIGCLUSTER_OUT_DIR", str(tmp_path))
        rng = np.random.default_rng(25)
        rows = np.vstack([rng.normal(size=(50, 2)), rng.normal(size=(50, 2)) + 15])
        p = tmp_path / "plain.csv"
        p.write_text("\n".join(",".join(map(str, r)) for r in rows) + "\n")
        code = main(["cluster", str(p), "--method", "gmeans+"])
        assert code == 0
        out = capsys.readouterr().out
        summary = json.loads(out[:out.rindex("}") + 1])
        assert "ari" not in summary and "vi" not in summary
        assert summary["k"] == 2

    def test_headerless_csv_keeps_every_row(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SIGCLUSTER_OUT_DIR", str(tmp_path))
        rows = np.random.default_rng(26).normal(size=(120, 2))
        p = tmp_path / "plain.csv"
        p.write_text("\n".join(",".join(map(str, r)) for r in rows) + "\n")
        assert main(["cluster", str(p), "--method", "gmeans"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out[:out.rindex("}") + 1])["n"] == 120
        # a header row of numbers is a header when the label column is
        # given by its name
        p.write_text("0,1,cls\n" + "\n".join(f"{a},{b},u" for a, b in rows) + "\n")
        assert main(["cluster", str(p), "--method", "gmeans", "--label-column", "cls"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out[:out.rindex("}") + 1])["n"] == 120

    def test_integer_label_column(self, tmp_path, capsys, monkeypatch):
        # "--label-column 2" is the column index, not a header name
        monkeypatch.setenv("SIGCLUSTER_OUT_DIR", str(tmp_path))
        rng = np.random.default_rng(25)
        rows = np.vstack([rng.normal(size=(50, 2)), rng.normal(size=(50, 2)) + 15])
        labels = np.repeat([0, 1], 50)
        p = tmp_path / "labelled.csv"
        p.write_text("\n".join(f"{a},{b},{c}" for (a, b), c in zip(rows, labels)) + "\n")
        assert main(["cluster", str(p), "--method", "gmeans+", "--label-column", "2"]) == 0
        out = capsys.readouterr().out
        summary = json.loads(out[:out.rindex("}") + 1])
        assert (summary["d"], summary["k"], summary["ari"]) == (2, 2, 1.0)

    def test_caches_count_the_tables_built(self, tmp_path, capsys, monkeypatch):
        # classic dip-means: each tested n-point cluster looks up the dip
        # table at n - 1 once for all its viewers, built on the first
        # lookup at that size
        monkeypatch.setenv("SIGCLUSTER_OUT_DIR", str(tmp_path))
        rng = np.random.default_rng(25)
        rows = np.vstack([rng.normal(size=(50, 2)), rng.normal(size=(50, 2)) + 15])
        p = tmp_path / "plain.csv"
        p.write_text("\n".join(",".join(map(str, r)) for r in rows) + "\n")
        dip_reference_table.cache_clear()
        assert main(["cluster", str(p), "--method", "dipmeans"]) == 0
        out = capsys.readouterr().out
        summary = json.loads(out[:out.rindex("}") + 1])
        full = json.loads((tmp_path / "plain_dipmeans.json").read_text())
        assert summary["caches"] == full["caches"]
        assert set(full["caches"]) == {"frozen_bounds", "lilliefors_table", "dip_reference_table"}
        sizes = [rec["n"] - 1 for rec in full["split_log"]]
        assert full["caches"]["dip_reference_table"] == {
            "hits": len(sizes) - len(set(sizes)),
            "misses": len(set(sizes)),
            "currsize": len(set(sizes)),
        }

    def test_unknown_method_exit_2(self, capsys):
        assert main(["cluster", "iris", "--method", "zmeans"]) == 2

    def test_threshold_reaches_the_criterion(self, tmp_path, capsys, monkeypatch):
        # no projection's violation fraction exceeds 1, so nothing splits
        monkeypatch.setenv("SIGCLUSTER_OUT_DIR", str(tmp_path))
        for method in ("gmeans+", "dipmeans+"):
            assert main(["cluster", "iris", "--method", method, "--threshold", "1.0"]) == 0
            out = capsys.readouterr().out
            summary = json.loads(out[:out.rindex("}") + 1])
            assert summary["k"] == 1 and summary["defaults"]["threshold"] == 1.0

    def test_gamma_reaches_the_criterion(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SIGCLUSTER_OUT_DIR", str(tmp_path))
        assert main(["cluster", "iris", "--method", "gmeans+", "--gamma", "1.5",
                     "--seed", "2"]) == 0
        capsys.readouterr()
        ref = run_method("gmeans+", load_csv(bundled_manifest("iris")), seed=2,
                         sigtest_config=SigtestConfig(gamma=1.5))
        full = json.loads((tmp_path / "iris_gmeans+.json").read_text())
        assert full["assignment"] == ref.assignment.tolist()
        assert full["split_log"] == [dataclasses.asdict(rec) for rec in ref.split_log]

    def test_standardize_clusters_the_standardized_rows(self, tmp_path, capsys, monkeypatch):
        # two blobs apart on a unit-scale axis, beside a wide noise axis
        # that hides them until each column is scaled to unit std
        monkeypatch.setenv("SIGCLUSTER_OUT_DIR", str(tmp_path))
        rng = np.random.default_rng(29)
        rows = np.column_stack([np.repeat([0.0, 8.0], 60) + rng.normal(size=120),
                                1000.0 * rng.normal(size=120)])
        p = tmp_path / "scaled.csv"
        p.write_text("\n".join(",".join(map(str, r)) for r in rows) + "\n")
        assert main(["cluster", str(p), "--method", "gmeans+", "--standardize"]) == 0
        out = capsys.readouterr().out
        summary = json.loads(out[:out.rindex("}") + 1])
        assert summary["standardize"] is True
        manifest = data_io.DatasetManifest(name="scaled", path=str(p), standardize=True)
        ref = run_method("gmeans+", load_csv(manifest), seed=7)
        full = json.loads((tmp_path / "scaled_gmeans+.json").read_text())
        assert full["assignment"] == ref.assignment.tolist()

    @pytest.mark.parametrize("name", ["r.csv", "R.CSV"])
    def test_csv_output_refused(self, tmp_path, capsys, monkeypatch, name):
        # the report is JSON, which read_results would parse as CSV
        monkeypatch.setenv("SIGCLUSTER_OUT_DIR", str(tmp_path))
        calls = []
        monkeypatch.setattr(cli, "load_csv", lambda *a: calls.append("load_csv"))
        monkeypatch.setattr(cli, "run_method", lambda *a, **kw: calls.append("run_method"))
        assert main(["cluster", "iris", "--method", "gmeans", "--output", name]) == 2
        assert f"--output {name}" in capsys.readouterr().err
        assert calls == [] and list(tmp_path.iterdir()) == []


class TestBenchCommands:
    def test_bench_tests_table_and_records(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SIGCLUSTER_OUT_DIR", str(tmp_path))
        code = main(["bench-tests", "--separations", "2.0,3.0", "--runs", "5",
                     "--seed", "7", "--timing-runs", "1", "--output", "bt.json"])
        assert code == 0
        out = capsys.readouterr().out
        for method in ("sigtest1", "sigtest2", "ad", "ks", "dip"):
            assert method in out
        recs = read_results(tmp_path / "bt.json")
        assert len(recs) == 10  # 5 methods x 2 separations

    def test_bench_tests_rerun_identical_stats(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SIGCLUSTER_OUT_DIR", str(tmp_path))
        argv = ["bench-tests", "--separations", "2.5", "--runs", "4",
                "--seed", "3", "--timing-runs", "0"]
        main(argv + ["--output", "a.csv"])
        main(argv + ["--output", "b.csv"])
        capsys.readouterr()
        a = (tmp_path / "a.csv").read_text()
        b = (tmp_path / "b.csv").read_text()
        assert a == b  # timing disabled: outputs byte-identical

    @pytest.mark.parametrize("name", ["r.json", "r.csv", "R.CSV", "r.out"])
    @pytest.mark.parametrize("command, runner, argv", [
        ("bench-tests", "run_test_benchmark",
         ["--separations", "2.5", "--runs", "3", "--timing-runs", "0"]),
        ("bench-cluster", "run_cluster_benchmark",
         ["--datasets", "iris", "--methods", "gmeans", "--runs", "2"]),
    ])
    def test_output_name_states_format(self, tmp_path, capsys, monkeypatch,
                                       command, runner, argv, name):
        # the file the command writes is the one read_results reads back
        monkeypatch.setenv("SIGCLUSTER_OUT_DIR", str(tmp_path))
        made = []
        run = getattr(cli, runner)
        monkeypatch.setattr(cli, runner, lambda *a, **kw: made.extend(run(*a, **kw)) or made)
        assert main([command, *argv, "--output", name]) == 0
        assert capsys.readouterr().out.endswith(f"records written to {tmp_path / name}\n")
        assert read_results(tmp_path / name) == [dataclasses.asdict(r) for r in made]

    @pytest.mark.parametrize("argv, message", [
        pytest.param(["--separations", "2.5,2.5"], "separation 2.5 is repeated",
                     id="repeated-separation"),
        pytest.param(["--timing-runs", "-1"], "timing_runs must be nonnegative", id="timing-runs"),
    ])
    def test_bench_tests_bad_request_exit_1(self, tmp_path, capsys, monkeypatch,
                                            argv, message):
        # refused before any sample is drawn, and no file is written
        monkeypatch.setenv("SIGCLUSTER_OUT_DIR", str(tmp_path))
        drawn = []
        monkeypatch.setattr(benchmark, "_sweep_sample", lambda *a: drawn.append(a))
        assert main(["bench-tests", "--runs", "3", *argv]) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert drawn == [] and list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, message", [
        pytest.param(["--datasets", "seeds,seeds"], "dataset 'seeds' is repeated",
                     id="repeated-dataset"),
        pytest.param(["--methods", "gmeans,gmeans"], "method 'gmeans' is repeated",
                     id="repeated-method"),
    ])
    def test_bench_cluster_bad_request_exit_1(self, tmp_path, capsys, monkeypatch,
                                              argv, message):
        # refused before any dataset is loaded, and no file is written
        monkeypatch.setenv("SIGCLUSTER_OUT_DIR", str(tmp_path))
        loaded = []
        monkeypatch.setattr(benchmark, "load_csv", lambda m: loaded.append(m))
        assert main(["bench-cluster", "--runs", "2", *argv]) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert loaded == [] and list(tmp_path.iterdir()) == []

    def test_bench_tests_sigtest_settings_reach_the_sweep(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SIGCLUSTER_OUT_DIR", str(tmp_path))
        assert main(["bench-tests", "--separations", "3.0", "--runs", "5", "--timing-runs", "0",
                     "--gamma", "1.5", "--threshold", "1.0", "--output", "bt.json"]) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert f"gamma=1.5 threshold=1.0 alpha_ks={KS_ALPHA}" in header
        ref = run_test_benchmark(separations=(3.0,), runs=5, timing_runs=0,
                                 sigtest_config=SigtestConfig(gamma=1.5, threshold=1.0))
        recs = read_results(tmp_path / "bt.json")
        assert recs == [dataclasses.asdict(r) for r in ref]
        assert [r["success_rate"] for r in recs[:2]] == [0.0, 0.0]  # sigtest1, sigtest2

    def test_bench_cluster_threshold_and_standardize(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SIGCLUSTER_OUT_DIR", str(tmp_path))
        rows = np.random.default_rng(30).normal(size=(60, 2))
        p = tmp_path / "plain.csv"
        p.write_text("\n".join(",".join(map(str, r)) for r in rows) + "\n")
        assert main(["bench-cluster", "--datasets", f"iris,{p}", "--methods", "gmeans+",
                     "--runs", "2", "--threshold", "1.0", "--standardize",
                     "--output", "bc.json"]) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert "standardize={'iris': False, 'plain': True}" in header
        assert [r["k_mean"] for r in read_results(tmp_path / "bc.json")] == [1.0, 1.0]

    def test_bench_tests_reads_no_file(self, capsys):
        # bench-tests generates its samples, so it takes no --delimiter
        assert main(["bench-tests", "--delimiter", ";"]) == 2
        assert "--delimiter" in capsys.readouterr().err

    def test_bench_cluster_table(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SIGCLUSTER_OUT_DIR", str(tmp_path))
        code = main(["bench-cluster", "--datasets", "iris",
                     "--methods", "gmeans+", "--runs", "2", "--output", "bc.json"])
        assert code == 0
        out = capsys.readouterr().out
        assert "iris" in out and "ARI" in out
        recs = read_results(tmp_path / "bc.json")
        assert recs[0]["method"] == "gmeans+"
        assert recs[0]["dataset"] == "iris"

    def test_bench_cluster_headerless_csv_keeps_every_row(self, tmp_path, capsys, monkeypatch):
        # 2 * MIN_SAMPLES rows are the fewest a clusterer takes: losing the
        # first to a header would refuse the dataset
        monkeypatch.setenv("SIGCLUSTER_OUT_DIR", str(tmp_path))
        rows = np.random.default_rng(27).normal(size=(2 * MIN_SAMPLES, 2))
        p = tmp_path / "plain.csv"
        p.write_text("\n".join(",".join(map(str, r)) for r in rows) + "\n")
        assert main(["bench-cluster", "--datasets", str(p), "--methods", "gmeans",
                     "--runs", "1", "--output", "bc.json"]) == 0
        assert read_results(tmp_path / "bc.json")[0]["dataset"] == "plain"

    def test_bench_cluster_undecodable_file_exit_1(self, tmp_path, capsys):
        p = tmp_path / "latin1.csv"
        p.write_bytes("a,b\n1.0,2.0\n3.0,4.0 \u00b0C\n".encode("latin-1"))
        assert main(["bench-cluster", "--datasets", str(p)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: dataset 'latin1'") and "not UTF-8" in err

    def test_bench_cluster_oversized_cell_exit_1(self, tmp_path, capsys):
        p = tmp_path / "big.csv"
        p.write_text("a,b\n1,2\n3," + "4" * 140_000 + "\n5,6\n")
        assert main(["bench-cluster", "--datasets", str(p)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: dataset 'big'") and "line 3: field larger" in err


@pytest.mark.parametrize("argv", [
    pytest.param(["test"], id="test"),
    pytest.param(["cluster", "--method", "gmeans"], id="cluster"),
    pytest.param(["bench-cluster", "--methods", "gmeans", "--runs", "1", "--datasets"],
                 id="bench-cluster"),
])
def test_csv_path_read_once(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.setenv("SIGCLUSTER_OUT_DIR", str(tmp_path))
    reads = []
    read_rows = data_io._read_rows
    monkeypatch.setattr(data_io, "_read_rows", lambda m: reads.append(m.path) or read_rows(m))
    y = np.random.default_rng(28).normal(size=100)
    p = tmp_path / "y.csv"
    p.write_text("\n".join(f"{v}" for v in y) + "\n")
    assert main([*argv, str(p)]) == 0
    assert reads == [str(p)]


@pytest.mark.parametrize("argv", [
    pytest.param(["test", "--bootstrap-b", "500"], id="test-bootstrap-b"),
    pytest.param(["cluster", "iris", "--variant", "2"], id="cluster-variant"),
    pytest.param(["bench-cluster", "--variant", "2"], id="bench-cluster-variant"),
    pytest.param(["bench-tests", "--alpha", "0.01"], id="bench-tests-alpha"),
])
def test_removed_options_are_unknown(unimodal_csv, capsys, argv):
    # the signature variant comes from the method name, the dip table is
    # the DIP_BOOTSTRAP_B one and the sweep runs KS at KS_ALPHA
    argv = [*argv, unimodal_csv] if argv[0] == "test" else argv
    assert main(argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_console_entry_point(tmp_path):
    y = np.random.default_rng(26).normal(size=100)
    p = tmp_path / "y.csv"
    p.write_text("\n".join(f"{v}" for v in y) + "\n")
    proc = subprocess.run(
        [sys.executable, "-m", "sigcluster.cli", "test", str(p)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["decision"] == "unimodal"
