import json

import numpy as np
import pytest

from sigcluster import (
    BenchmarkRecord,
    DatasetManifest,
    bundled_manifest,
    load_csv,
    read_results,
    write_results,
)
from sigcluster import data_io
from sigcluster.errors import (
    EmptyDatasetError,
    MissingLabelColumnError,
    ParseError,
)


class TestLoadCsv:
    def test_bundled_iris(self):
        data = load_csv(bundled_manifest("iris"))
        assert data.rows.shape == (150, 4)
        assert len(np.unique(data.labels)) == 3
        assert data.name == "iris"

    def test_bundled_seeds_standardized(self):
        data = load_csv(bundled_manifest("seeds"))
        assert data.rows.shape == (210, 7)
        assert len(np.unique(data.labels)) == 3
        # manifest asks for standardization
        np.testing.assert_allclose(data.rows.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(data.rows.std(axis=0), 1.0, atol=1e-9)

    def test_label_by_index_and_order_preserved(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("5,1,a\n6,2,b\n7,3,c\n")
        data = load_csv(DatasetManifest(name="d", path=str(p), label_column=2))
        np.testing.assert_array_equal(data.rows, [[5, 1], [6, 2], [7, 3]])
        assert data.labels.tolist() == ["a", "b", "c"]

    def test_headerless_numeric_file_keeps_every_row(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1,2\n3,4\n5,6\n")
        data = load_csv(DatasetManifest(name="d", path=str(p)))
        np.testing.assert_array_equal(data.rows, [[1, 2], [3, 4], [5, 6]])

    def test_text_first_row_is_header(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x,1\n3,4\n5,6\n")
        data = load_csv(DatasetManifest(name="d", path=str(p)))
        np.testing.assert_array_equal(data.rows, [[3, 4], [5, 6]])

    def test_numeric_first_row_is_header_when_label_named(self, tmp_path, monkeypatch):
        # a named label column decides the header without reading its cells
        monkeypatch.setattr(data_io, "_is_number", None)
        p = tmp_path / "d.csv"
        p.write_text("0,1,cls\n5,6,a\n7,8,b\n")
        data = load_csv(DatasetManifest(name="d", path=str(p), label_column="cls"))
        np.testing.assert_array_equal(data.rows, [[5, 6], [7, 8]])
        assert data.labels.tolist() == ["a", "b"]
        assert load_csv(bundled_manifest("iris")).rows.shape == (150, 4)

    def test_negative_label_index(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x,y,lab\n1,2,u\n3,4,v\n")
        data = load_csv(DatasetManifest(name="d", path=str(p), label_column=-1))
        assert data.labels.tolist() == ["u", "v"]
        assert data.rows.shape == (2, 2)

    def test_header_only_file(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("a,b,c\n")
        with pytest.raises(EmptyDatasetError):
            load_csv(DatasetManifest(name="e", path=str(p)))

    def test_bad_cell_named(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b\n1,2\n3,abc\n")
        with pytest.raises(ParseError) as exc:
            load_csv(DatasetManifest(name="b", path=str(p)))
        assert exc.value.row == 3
        assert exc.value.column == 2
        assert "abc" in str(exc.value)

    def test_oversized_cell_names_line(self, tmp_path):
        # a cell over the csv module's field size limit (131072 characters)
        p = tmp_path / "big.csv"
        p.write_text("a,b\n1,2\n3," + "4" * 140_000 + "\n5,6\n")
        with pytest.raises(ParseError, match=r"^dataset 'big' \(.*\): line 3: field larger"):
            load_csv(DatasetManifest(name="big", path=str(p)))

    def test_bom_dropped_before_header(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("\ufefflab,x\nu,1\nv,2\n", encoding="utf-8")
        data = load_csv(DatasetManifest(name="d", path=str(p), label_column="lab"))
        assert data.labels.tolist() == ["u", "v"]

    def test_missing_label_column(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,b\n1,2\n")
        with pytest.raises(MissingLabelColumnError):
            load_csv(DatasetManifest(name="d", path=str(p), label_column="target"))
        with pytest.raises(MissingLabelColumnError):
            load_csv(DatasetManifest(name="d", path=str(p), label_column=5))

    def test_missing_file(self):
        with pytest.raises(OSError):
            load_csv(DatasetManifest(name="x", path="/nonexistent/file.csv"))

    def test_deterministic_reload(self):
        a = load_csv(bundled_manifest("iris"))
        b = load_csv(bundled_manifest("iris"))
        np.testing.assert_array_equal(a.rows, b.rows)
        np.testing.assert_array_equal(a.labels, b.labels)


class TestResultsRoundTrip:
    def records(self):
        return [
            BenchmarkRecord(method="sigtest1", separation=2.0,
                            success_rate=69.0, mean_time_s=2.1e-5,
                            runs=100, seed=7),
            BenchmarkRecord(method="gmeans+", dataset="iris",
                            k_mean=2.0, k_std=0.0, vi_mean=0.6712,
                            vi_std=0.001, ari_mean=0.5681, ari_std=0.002,
                            mean_time_s=0.5, runs=20, seed=7),
        ]

    def test_empty_documents_valid(self, tmp_path):
        for fmt in ("json", "csv"):
            p = tmp_path / f"empty.{fmt}"
            write_results([], p, format=fmt)
            assert read_results(p) == []

    def test_json_round_trip_identical(self, tmp_path):
        p = tmp_path / "r.json"
        recs = self.records()
        write_results(recs, p, format="json")
        back = read_results(p)
        for rec, b in zip(recs, back):
            for field, val in b.items():
                assert getattr(rec, field) == val

    def test_csv_round_trip_identical(self, tmp_path):
        p = tmp_path / "r.csv"
        recs = self.records()
        write_results(recs, p, format="csv")
        back = read_results(p)
        for rec, b in zip(recs, back):
            for field in ("success_rate", "k_mean", "vi_mean", "ari_mean",
                          "mean_time_s", "separation"):
                orig = getattr(rec, field)
                if orig is None:
                    assert b[field] is None
                else:
                    assert abs(b[field] - orig) < 1e-12
            assert b["method"] == rec.method
            assert b["runs"] == rec.runs and b["seed"] == rec.seed

    def test_csv_cells_typed_by_field(self, tmp_path):
        # a numeric-looking dataset name stays text, and a seed above 2**53
        # keeps every digit
        p = tmp_path / "r.csv"
        rec = BenchmarkRecord(method="gmeans", dataset="2023", k_mean=2.0, runs=3,
                              seed=2**60 + 1)
        write_results([rec], p, format="csv")
        back = read_results(p)[0]
        assert back["dataset"] == "2023" and back["method"] == "gmeans"
        assert type(back["seed"]) is int and back["seed"] == 2**60 + 1
        assert type(back["runs"]) is int and back["runs"] == 3
        assert type(back["k_mean"]) is float and back["separation"] is None

    def test_table1_row_schema(self, tmp_path):
        p = tmp_path / "row.json"
        write_results([self.records()[0]], p, format="json")
        rec = read_results(p)[0]
        for key in ("method", "separation", "success_rate", "mean_time_s"):
            assert rec[key] is not None

    @pytest.mark.parametrize("doc", [
        pytest.param([], id="list"),
        pytest.param({"schema_version": 1}, id="no-records"),
        pytest.param({"schema_version": 2, "records": []}, id="other-version"),
    ])
    def test_malformed_json_refused(self, tmp_path, doc):
        p = tmp_path / "r.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="not a schema_version 1 results file"):
            read_results(p)

    def test_rejects_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            write_results([], tmp_path / "x.bin", format="parquet")


class TestRecordValidation:
    def test_success_rate_range(self):
        with pytest.raises(ValueError):
            BenchmarkRecord(method="ad", runs=10, seed=0, success_rate=101.0)

    def test_runs_positive(self):
        with pytest.raises(ValueError):
            BenchmarkRecord(method="ad", runs=0, seed=0)
