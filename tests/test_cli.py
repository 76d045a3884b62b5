import json
import subprocess
import sys

import numpy as np
import pytest

from sigcluster import (
    TwoClusterSpec,
    dip_reference_table,
    dip_test,
    gen_two_clusters,
    read_results,
)
from sigcluster.cli import main


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

    def test_all_methods_run(self, bimodal_csv, capsys):
        for method in ("sigtest2", "ad", "ks"):
            code = main(["test", "--method", method, bimodal_csv])
            assert code == 3, method
            capsys.readouterr()

    def test_dip_bootstrap_is_the_benchmark_one(self, tmp_path, capsys):
        # a sample whose dip exceeds every seed-0 bootstrap dip; the
        # benchmark's table rejects it, and so must the command
        y = gen_two_clusters(TwoClusterSpec(separation=3.5, seed=10056)).rows[:, 0]
        assert dip_test(y, reference=dip_reference_table(200, 1000)).reject_unimodal
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

    def test_multicolumn_requires_centroids(self, tmp_path, capsys):
        p = tmp_path / "wide.csv"
        rng = np.random.default_rng(23)
        rows = rng.normal(size=(120, 2))
        p.write_text("\n".join(",".join(map(str, r)) for r in rows) + "\n")
        code = main(["test", str(p)])
        assert code == 2
        assert "1-d" in capsys.readouterr().err

    def test_multicolumn_with_projection(self, tmp_path, capsys):
        rng = np.random.default_rng(24)
        rows = np.vstack([rng.normal(size=(100, 2)) - [2, 0],
                          rng.normal(size=(100, 2)) + [2, 0]])
        p = tmp_path / "wide.csv"
        p.write_text("\n".join(",".join(map(str, r)) for r in rows) + "\n")
        code = main(["test", str(p), "--centroid1=-2,0", "--centroid2=2,0"])
        assert code == 3


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

    def test_unknown_method_exit_2(self, capsys):
        assert main(["cluster", "iris", "--method", "zmeans"]) == 2


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
                "--seed", "3", "--timing-runs", "0", "--format", "csv"]
        main(argv + ["--output", "a.csv"])
        main(argv + ["--output", "b.csv"])
        capsys.readouterr()
        a = (tmp_path / "a.csv").read_text()
        b = (tmp_path / "b.csv").read_text()
        assert a == b  # timing disabled: outputs byte-identical

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
