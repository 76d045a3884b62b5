import json

import numpy as np
import pytest

from sigcluster import (
    BenchmarkRecord,
    Dataset,
    DatasetManifest,
    bundled_manifest,
    load_csv,
    read_results,
    run_test_benchmark,
    write_results,
)
from sigcluster import data_io
from sigcluster.errors import (
    EmptyDatasetError,
    LengthMismatchError,
    MissingLabelColumnError,
    NonFiniteInputError,
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
        # and a file with no rows at all: empty, or only blank rows
        p = tmp_path / "empty.csv"
        for text, message in (("a,b,c\n", "no data rows"), ("", "file is empty"),
                              ("\n , \n\n", "file is empty")):
            p.write_text(text)
            with pytest.raises(EmptyDatasetError, match=message):
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

    @pytest.mark.parametrize("text, row, got, want", [
        pytest.param("a,b,c,label\n1,2,3\n4,5,6\n", 1, 4, 3, id="wide-header"),
        pytest.param("a,b,label\n1,2,3,x\n4,5,6,y\n", 1, 3, 4, id="narrow-header"),
        pytest.param("a,label\n1,x\n2,y\n3,z,4\n", 4, 3, 2, id="wide-data-row"),
    ])
    def test_header_width_checked(self, tmp_path, text, row, got, want):
        # the header is held to the first data row's width, as each data row is
        p = tmp_path / "w.csv"
        p.write_text(text)
        with pytest.raises(ParseError, match=rf"^dataset 'w' \(.*\): row {row} has {got} cells, "
                                             rf"expected {want}$") as exc:
            load_csv(DatasetManifest(name="w", path=str(p), label_column="label"))
        assert (exc.value.row, exc.value.column) == (row, None)

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


class TestDataset:
    def test_one_dimensional_rows_become_a_column(self):
        data = Dataset(rows=[3.0, 1.0, 2.0], labels=["a", "b", "a"])
        np.testing.assert_array_equal(data.rows, [[3.0], [1.0], [2.0]])
        assert (data.n, data.d) == (3, 1)

    @pytest.mark.parametrize("kwargs, error, message", [
        pytest.param(dict(rows=[[1.0, 2.0], [np.nan, 0.0]]), NonFiniteInputError,
                     "dataset 'x' has non-finite entries", id="nan"),
        pytest.param(dict(rows=[1.0, -np.inf]), NonFiniteInputError,
                     "dataset 'x' has non-finite entries", id="inf"),
        pytest.param(dict(rows=[[1.0], [2.0]], labels=["a"]), LengthMismatchError,
                     "1 labels for 2 rows", id="labels"),
    ])
    def test_bad_input_refused(self, kwargs, error, message):
        with pytest.raises(error, match=message):
            Dataset(name="x", **kwargs)


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
            write_results([], p)
            assert read_results(p) == []

    def test_json_round_trip_identical(self, tmp_path):
        p = tmp_path / "r.json"
        recs = self.records()
        write_results(recs, p)
        back = read_results(p)
        for rec, b in zip(recs, back):
            for field, val in b.items():
                assert getattr(rec, field) == val

    def test_csv_round_trip_identical(self, tmp_path):
        p = tmp_path / "r.csv"
        recs = self.records()
        write_results(recs, p)
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
        write_results([rec], p)
        back = read_results(p)[0]
        assert back["dataset"] == "2023" and back["method"] == "gmeans"
        assert type(back["seed"]) is int and back["seed"] == 2**60 + 1
        assert type(back["runs"]) is int and back["runs"] == 3
        assert type(back["k_mean"]) is float and back["separation"] is None

    def test_table1_row_schema(self, tmp_path):
        p = tmp_path / "row.json"
        write_results([self.records()[0]], p)
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

    @pytest.mark.parametrize("name, csv_file", [
        ("x.bin", False), ("x", False), ("x.csv.json", False), ("x.csv", True), ("X.CSV", True),
    ])
    def test_name_states_format(self, tmp_path, name, csv_file):
        # CSV when the name ends in .csv (any case), JSON for any other name
        p = tmp_path / name
        recs = self.records()
        write_results(recs, p)
        text = p.read_text()
        assert text.startswith("method,dataset,") == csv_file
        if not csv_file:
            assert json.loads(text)["schema_version"] == 1
        back = read_results(p)
        assert [b["method"] for b in back] == [r.method for r in recs]
        assert [b["success_rate"] for b in back] == [r.success_rate for r in recs]

    def test_numpy_scalars_stored_as_numbers(self, tmp_path):
        # runs=np.int64 makes a numpy int and a numpy float in each record;
        # both formats store them as the numbers plain ints give
        kwargs = dict(separations=(2.5,), methods=("sigtest1",), timing_runs=0)
        plain = run_test_benchmark(runs=3, seed=4, **kwargs)
        scalars = run_test_benchmark(runs=np.int64(3), seed=np.int64(4), **kwargs)
        assert isinstance(scalars[0].success_rate, np.float64)
        for name in ("r.json", "r.csv"):
            write_results(plain, tmp_path / f"plain_{name}")
            write_results(scalars, tmp_path / f"np_{name}")
            assert (tmp_path / f"np_{name}").read_bytes() == \
                (tmp_path / f"plain_{name}").read_bytes()
            back = read_results(tmp_path / f"np_{name}")[0]
            assert back["runs"] == 3 and back["seed"] == 4
            assert back["success_rate"] == plain[0].success_rate


class TestRecordValidation:
    def test_success_rate_range(self):
        with pytest.raises(ValueError):
            BenchmarkRecord(method="ad", runs=10, seed=0, success_rate=101.0)

    def test_runs_positive(self):
        with pytest.raises(ValueError):
            BenchmarkRecord(method="ad", runs=0, seed=0)
