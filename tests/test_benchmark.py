import dataclasses
import time

import numpy as np
import pytest

from sigcluster import (
    SignatureVariant,
    SigtestConfig,
    bundled_manifest,
    dip_reference_table,
    format_cluster_table,
    format_test_table,
    run_cluster_benchmark,
    run_test_benchmark,
)
from sigcluster import benchmark
from sigcluster.benchmark import _time_method
from sigcluster.data_io import DatasetManifest
from sigcluster.errors import ParseError


def strip_timing(records):
    return [dataclasses.replace(r, mean_time_s=None) for r in records]


class TestTimeMethod:
    def test_empty_inputs_error(self):
        with pytest.raises(ValueError):
            _time_method(lambda x: x, [])

    def test_noop_stays_at_measurement_floor(self):
        mean = _time_method(lambda x: None, [0] * 50)
        assert 0.0 <= mean < 1e-3

    def test_measures_sleep(self):
        mean = _time_method(lambda x: time.sleep(0.01), [0] * 3)
        assert 0.008 < mean < 0.05

    def test_warmup_excluded(self):
        calls = []
        def fn(x):
            calls.append(x)
        _time_method(fn, [1, 2, 3])
        assert calls == [1, 1, 2, 3]  # extra warm-up on the first input


class TestRunTestBenchmark:
    def test_shape_and_determinism(self):
        kwargs = dict(separations=(2.0, 3.0), runs=6, seed=123,
                      methods=("sigtest1", "ad"), timing_runs=2)
        a = run_test_benchmark(**kwargs)
        b = run_test_benchmark(**kwargs)
        assert len(a) == 4
        assert strip_timing(a) == strip_timing(b)
        for rec in a:
            assert 0.0 <= rec.success_rate <= 100.0
            assert rec.runs == 6 and rec.seed == 123
            assert rec.mean_time_s > 0

    def test_samples_drawn_once_per_separation(self, monkeypatch):
        # the success and timing samples of a separation serve every method
        drawn = []
        sample = benchmark._sweep_sample
        monkeypatch.setattr(benchmark, "_sweep_sample",
                            lambda *a: drawn.append(a) or sample(*a))
        run_test_benchmark(separations=(2.0, 3.0), runs=3, methods=("sigtest1", "ad", "ks"),
                           timing_runs=2)
        assert len(drawn) == 2 * (3 + 2)

    @pytest.mark.parametrize("kwargs, error, message", [
        pytest.param(dict(methods=("sigtest1", "bogus")), ValueError,
                     r"'bogus'; expected one of \('sigtest1'", id="method"),
        pytest.param(dict(separations=(2.5, 2.5, 3.0)), ValueError,
                     r"separation 2\.5 is repeated", id="repeated-separation"),
        pytest.param(dict(separations=(2, 2.0)), ValueError, "separation 2 is repeated",
                     id="equal-separation"),
        pytest.param(dict(methods=("ad", "ks", "ad")), ValueError, "method 'ad' is repeated",
                     id="repeated-method"),
        pytest.param(dict(timing_runs=-1), ValueError, "timing_runs must be nonnegative",
                     id="timing-runs"),
        pytest.param(dict(runs=0), ValueError, "runs must be at least 1", id="runs"),
        # each was refused only when its own samples were drawn, after the
        # samples of the separations before it
        pytest.param(dict(separations=(2.0, -1.0)), ValueError, "separation must be nonnegative",
                     id="negative-separation"),
        pytest.param(dict(separations=(2.0, float("nan"))), ValueError,
                     "separation must be finite, got nan", id="nan-separation"),
        pytest.param(dict(separations=(2.0, float("inf"))), ValueError,
                     "separation must be finite, got inf", id="inf-separation"),
        # a bool ran once and was written to JSON as `true`; a float failed
        # in range() with a message that named no argument
        pytest.param(dict(runs=True), TypeError, "runs must be an integer, got True",
                     id="bool-runs"),
        pytest.param(dict(runs=2.5), TypeError, "runs must be an integer, got 2.5",
                     id="float-runs"),
        pytest.param(dict(timing_runs=1.5), TypeError, "timing_runs must be an integer, got 1.5",
                     id="float-timing-runs"),
    ])
    def test_bad_request_refused_before_sampling(self, monkeypatch, kwargs, error, message):
        # a repeated separation would share one draw between two records
        drawn = []
        monkeypatch.setattr(benchmark, "_sweep_sample", lambda *a: drawn.append(a))
        with pytest.raises(error, match=message):
            run_test_benchmark(**{"runs": 2, "methods": ("sigtest1",), **kwargs})
        assert drawn == []

    def test_single_run_reproducible(self):
        a = run_test_benchmark(separations=(2.5,), runs=1, seed=9,
                               methods=("sigtest1",), timing_runs=0)
        b = run_test_benchmark(separations=(2.5,), runs=1, seed=9,
                               methods=("sigtest1",), timing_runs=0)
        assert strip_timing(a) == strip_timing(b)
        assert a[0].mean_time_s is None

    def test_monotone_in_separation_for_sigtest(self):
        recs = run_test_benchmark(separations=(2.0, 2.5, 3.0), runs=40,
                                  seed=5, methods=("sigtest1",), timing_runs=0)
        rates = [r.success_rate for r in recs]
        assert rates[0] <= rates[1] <= rates[2]

    def test_monotone_in_separation_all_methods(self):
        # statistical monotonicity: rates may wobble by sampling noise, so
        # allow a 2-percentage-point slack per step (relevant for the
        # near-zero dip rates at these sample sizes)
        recs = run_test_benchmark(separations=(2.0, 2.5, 3.0), runs=50,
                                  seed=6, timing_runs=0)
        for method in ("sigtest1", "sigtest2", "ad", "ks", "dip"):
            rates = [r.success_rate for r in recs if r.method == method]
            for lo, hi in zip(rates, rates[1:]):
                assert hi >= lo - 2.0, (method, rates)

    def test_sigtest_config_sets_gamma_and_threshold(self):
        # the config's gamma and threshold reach both sigtest methods; the
        # variant always comes from the method name
        kwargs = dict(separations=(3.0,), runs=10, seed=4,
                      methods=("sigtest1", "sigtest2"), timing_runs=0)
        default = run_test_benchmark(**kwargs)
        assert [r.success_rate for r in default] != [0.0, 0.0]
        never = run_test_benchmark(sigtest_config=SigtestConfig(threshold=1.0), **kwargs)
        assert [r.success_rate for r in never] == [0.0, 0.0]
        swapped = SigtestConfig(variant=SignatureVariant.SIGNATURE2)
        assert run_test_benchmark(sigtest_config=swapped, **kwargs) == default

    def test_dip_table_shared_with_positional_callers(self):
        # the sweep looks the table up as (N, B), the key other callers use
        dip_reference_table.cache_clear()
        run_test_benchmark(separations=(2.0,), runs=2, methods=("dip",), timing_runs=0)
        dip_reference_table(200, 1000)
        assert dip_reference_table.cache_info().misses == 1

    def test_format_table(self):
        recs = run_test_benchmark(separations=(2.0, 3.0), runs=4, seed=1,
                                  methods=("sigtest1", "ks"), timing_runs=1)
        table = format_test_table(recs)
        assert "sigtest1" in table and "ks" in table
        assert "%" in table
        assert format_test_table(r for r in recs) == table

    def test_generators_read_once(self):
        # the request check used to use up a generator, leaving no records
        kwargs = dict(runs=2, seed=8, timing_runs=0)
        expected = run_test_benchmark(separations=(2.5, 3.0), methods=("ad", "ks"), **kwargs)
        assert len(expected) == 4
        got = run_test_benchmark(separations=(s for s in (2.5, 3.0)),
                                 methods=(m for m in ("ad", "ks")), **kwargs)
        assert got == expected


class TestRunClusterBenchmark:
    def test_iris_gmeans_plus_shape(self):
        recs = run_cluster_benchmark(["iris"], methods=("gmeans+",),
                                     runs=3, seed=11)
        assert len(recs) == 1
        rec = recs[0]
        assert rec.dataset == "iris" and rec.method == "gmeans+"
        assert rec.k_mean >= 1 and rec.vi_mean is not None
        assert rec.ari_mean is not None and rec.mean_time_s > 0

    def test_determinism(self):
        a = run_cluster_benchmark(["iris"], methods=("gmeans+",), runs=2, seed=3)
        b = run_cluster_benchmark(["iris"], methods=("gmeans+",), runs=2, seed=3)
        assert strip_timing(a) == strip_timing(b)

    def test_unlabeled_dataset_omits_metrics(self, tmp_path):
        p = tmp_path / "u.csv"
        rng = np.random.default_rng(0)
        rows = np.vstack([rng.normal(size=(40, 2)), rng.normal(size=(40, 2)) + 12])
        p.write_text("\n".join(",".join(f"{v}" for v in r) for r in rows) + "\n")
        manifest = DatasetManifest(name="u", path=str(p))
        recs = run_cluster_benchmark([manifest], methods=("gmeans+",), runs=2, seed=0)
        assert recs[0].vi_mean is None and recs[0].ari_mean is None
        assert recs[0].k_mean == 2.0

    def test_bad_path_names_dataset_no_partial_records(self):
        manifest = DatasetManifest(name="ghost", path="/no/such/file.csv")
        with pytest.raises(OSError) as exc:
            run_cluster_benchmark([manifest], methods=("gmeans+",), runs=1, seed=0)
        assert "ghost" in str(exc.value)

    def test_parse_error_names_dataset_keeps_cell(self, tmp_path):
        p = tmp_path / "cells.csv"
        p.write_text("a,b\n1.0,2.0\n3.0,oops\n")
        manifest = DatasetManifest(name="sheet", path=str(p))
        with pytest.raises(ParseError) as exc:
            run_cluster_benchmark([manifest], methods=("gmeans+",), runs=1, seed=0)
        assert (exc.value.row, exc.value.column) == (3, 2)
        assert "'sheet'" in str(exc.value)

    @pytest.mark.parametrize("kwargs, error, message", [
        pytest.param(dict(methods=("gmeans", "nope"), runs=20), ValueError,
                     r"unknown method 'nope'; expected one of", id="method"),
        pytest.param(dict(runs=0), ValueError, "runs must be at least 1", id="runs"),
        pytest.param(dict(runs=True), TypeError, "runs must be an integer, got True",
                     id="bool-runs"),
        pytest.param(dict(runs=2.5), TypeError, "runs must be an integer, got 2.5",
                     id="float-runs"),
        pytest.param(dict(methods=("gmeans", "gmeans")), ValueError,
                     "method 'gmeans' is repeated", id="repeated-method"),
        pytest.param(dict(manifests=["seeds", "iris", "seeds"]), ValueError,
                     "dataset 'seeds' is repeated", id="repeated-dataset"),
        pytest.param(dict(manifests=[bundled_manifest("iris"),
                                     DatasetManifest(name="iris", path="other/iris.csv")]),
                     ValueError, "dataset 'iris' is repeated", id="repeated-dataset-name"),
        pytest.param(dict(manifests=["iris", "nope"]), ValueError,
                     r"no bundled dataset 'nope'; have \['iris', 'seeds'\]", id="unknown-dataset"),
    ])
    def test_bad_request_refused_before_loading(self, monkeypatch, kwargs, error, message):
        # a repeated dataset or method would be two records of one table cell
        loaded = []
        monkeypatch.setattr(benchmark, "load_csv", lambda m: loaded.append(m))
        with pytest.raises(error, match=message):
            run_cluster_benchmark(**{"manifests": ["iris", "seeds"], **kwargs})
        assert loaded == []

    def test_format_table(self):
        recs = run_cluster_benchmark(["iris"], methods=("gmeans+", "dipmeans+"),
                                     runs=2, seed=2)
        table = format_cluster_table(recs)
        assert "iris" in table and "gmeans+" in table and "ARI" in table
        assert format_cluster_table(r for r in recs) == table

    def test_generators_read_once(self):
        # the request check used to use up a generator, leaving no records
        kwargs = dict(runs=2, seed=8)
        expected = strip_timing(run_cluster_benchmark(["iris"], methods=("gmeans", "gmeans+"),
                                                      **kwargs))
        assert len(expected) == 2
        got = run_cluster_benchmark((name for name in ["iris"]),
                                    methods=(m for m in ("gmeans", "gmeans+")), **kwargs)
        assert strip_timing(got) == expected
