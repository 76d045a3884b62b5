"""Loading benchmark datasets from delimited text and persisting results.

Two small CSVs ship with the package (UCI iris and wheat-seeds), listed
in ``_BUNDLED``; :func:`bundled_manifest` gives their manifests. A
results file holds :class:`BenchmarkRecord` cells and its name states
its format: :func:`write_results` writes and :func:`read_results` reads
CSV (the record's fields as columns) when the name ends in ``.csv``, in
any case, and schema-versioned JSON otherwise. Both formats round-trip
exactly.
"""

import csv
import dataclasses
import json
import typing
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .dataset import Dataset
from .errors import EmptyDatasetError, MissingLabelColumnError, ParseError

RESULTS_SCHEMA_VERSION = 1


@dataclass(frozen=True, kw_only=True)
class BenchmarkRecord:
    """One benchmark cell: a method at one parameter point.

    Test records fill ``separation``/``success_rate``; clustering records
    fill ``dataset`` and the k/VI/ARI summary fields. ``mean_time_s`` is
    wall-clock and not reproducible; everything else reruns identically
    for the same seed. The fields, in order, are a CSV results file's
    columns.
    """

    method: str
    dataset: str | None = None
    separation: float | None = None
    success_rate: float | None = None
    k_mean: float | None = None
    k_std: float | None = None
    vi_mean: float | None = None
    vi_std: float | None = None
    ari_mean: float | None = None
    ari_std: float | None = None
    mean_time_s: float | None = None
    runs: int
    seed: int

    def __post_init__(self):
        if self.runs < 1:
            raise ValueError("runs must be at least 1")
        if self.success_rate is not None and not 0.0 <= self.success_rate <= 100.0:
            raise ValueError("success_rate must lie in [0, 100]")


# a CSV results file's columns, and the type each cell is read back as
# (a field that may be None is read as its other type)
RESULT_FIELDS = tuple(f.name for f in dataclasses.fields(BenchmarkRecord))
_CSV_TYPES = {f.name: (typing.get_args(f.type) or (f.type,))[0]
              for f in dataclasses.fields(BenchmarkRecord)}

# the datasets that ship with the package: label column and whether to standardize
_BUNDLED = {"iris": ("species", False), "seeds": ("variety", True)}


@dataclass(frozen=True)
class DatasetManifest:
    """Where and how to read one delimited dataset.

    ``label_column`` is a header name or 0-based index (None for
    unlabeled data); whether the file has a header row is decided by
    :func:`load_csv` from that row. ``standardize`` asks the loader for
    per-column mean-0/std-1 features. No BenchmarkRecord field holds it:
    the ``cluster`` command's report and the ``bench-cluster`` header line
    show it.
    """

    name: str
    path: str
    label_column: int | str | None = None
    delimiter: str = ","
    standardize: bool = False


def _read_rows(manifest: DatasetManifest) -> list[list[str]]:
    """The non-blank rows of the manifest's file, split by the csv module
    (so quoting applies) from UTF-8 text, a leading BOM dropped; the
    errors are load_csv's."""
    where = f"dataset {manifest.name!r} ({manifest.path})"
    try:
        with open(manifest.path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh, delimiter=manifest.delimiter)
            return [row for row in reader if row and any(cell.strip() for cell in row)]
    except UnicodeDecodeError as exc:
        raise ParseError(f"{where}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:  # e.g. a cell over the csv module's field size limit
        raise ParseError(f"{where}: line {reader.line_num}: {exc}") from None
    except OSError as exc:  # keeps its type, errno and filename
        exc.strerror = f"dataset {manifest.name!r}: {exc.strerror}"
        raise


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def load_csv(manifest: DatasetManifest) -> Dataset:
    """Parse the manifest's file into a Dataset, reading it once.

    The first row is a header when the label column is given by name, or
    when one of its feature cells is not a number; otherwise it is data.
    So a header-less numeric file keeps every row, and a header made only
    of numbers is read as data unless the label column is named.

    Errors name the dataset; an unparseable numeric cell raises a
    ParseError with its 1-based row and column. Rows keep file order.

    Raises
    ------
    EmptyDatasetError
        If the file has no rows, or a header and no data rows.
    MissingLabelColumnError
        If the configured label column cannot be resolved.
    ParseError
        On the first bad numeric cell, on a row (the header included)
        whose cell count differs from the first data row's, if the file
        is not UTF-8 text, or if the csv module cannot split a line (the
        message names its 1-based line number).
    """
    where = f"dataset {manifest.name!r} ({manifest.path})"
    rows = _read_rows(manifest)
    if not rows:
        raise EmptyDatasetError(f"{where}: file is empty")
    label = manifest.label_column
    named = isinstance(label, str)
    # a negative index counts from the end of the first row
    label_idx = None if named or label is None else int(label) + (len(rows[0]) if label < 0 else 0)
    # a column named in the manifest needs a header
    header = named or not all(_is_number(cell) for c, cell in enumerate(rows[0]) if c != label_idx)
    names = [h.strip() for h in rows.pop(0)] if header else None
    if not rows:
        raise EmptyDatasetError(f"{where}: no data rows")

    ncols = len(rows[0])
    if header and len(names) != ncols:
        raise ParseError(f"{where}: row 1 has {len(names)} cells, expected {ncols}",
                         row=1, column=None)
    if named:
        if label not in names:
            raise MissingLabelColumnError(f"{where}: no column named {label!r}")
        label_idx = names.index(label)
    elif label is not None and not 0 <= label_idx < ncols:
        raise MissingLabelColumnError(
            f"{where}: label column index {label} "
            f"out of range for {ncols} columns"
        )

    features = []
    labels = [] if label_idx is not None else None
    for r, row in enumerate(rows, start=2 if header else 1):
        if len(row) != ncols:
            raise ParseError(
                f"{where}: row {r} has {len(row)} cells, expected {ncols}",
                row=r, column=None,
            )
        feat = []
        for c, cell in enumerate(row):
            if c == label_idx:
                labels.append(cell.strip())
                continue
            try:
                feat.append(float(cell))
            except ValueError:
                raise ParseError(
                    f"{where}: cannot parse cell {cell.strip()!r} "
                    f"at row {r}, column {c + 1}",
                    row=r, column=c + 1,
                ) from None
        features.append(feat)

    data = Dataset(
        rows=np.asarray(features, dtype=np.float64),
        labels=np.asarray(labels) if labels is not None else None,
        name=manifest.name,
    )
    return data.standardized() if manifest.standardize else data


def bundled_manifest(name: str) -> DatasetManifest:
    """Manifest for a dataset shipped with the package: iris or seeds.

    iris keeps raw features (all lengths in cm); seeds is standardized
    because its seven features mix units and scales.
    """
    if name not in _BUNDLED:
        raise ValueError(f"no bundled dataset {name!r}; have {sorted(_BUNDLED)}")
    label_column, standardize = _BUNDLED[name]
    path = resources.files("sigcluster").joinpath("data") / f"{name}.csv"
    return DatasetManifest(name=name, path=str(path), label_column=label_column,
                           standardize=standardize)


def _record_to_dict(record) -> dict:
    """A record as a dict of plain values: a numpy scalar, such as the
    success rate of ``runs=np.int64(3)``, becomes the Python number it
    holds, which both formats store."""
    if dataclasses.is_dataclass(record) and not isinstance(record, type):
        record = dataclasses.asdict(record)
    return {key: val.item() if isinstance(val, np.generic) else val
            for key, val in record.items()}


def _is_csv(path) -> bool:
    """The results format rule of write_results and read_results: CSV
    when the file's suffix is .csv (any case), JSON otherwise."""
    return Path(path).suffix.lower() == ".csv"


def write_results(records, path) -> None:
    """Write benchmark records to ``path``: as CSV when its name ends in
    .csv (any case), as JSON otherwise, the rule :func:`read_results`
    reads by.

    JSON carries a schema_version envelope; CSV uses the fixed
    RESULT_FIELDS column order with empty cells for absent fields. An
    empty record list produces a valid empty document either way.
    """
    records = [_record_to_dict(r) for r in records]
    if _is_csv(path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(RESULT_FIELDS)
            writer.writerows(
                ["" if rec.get(f) is None else repr(rec[f]) if isinstance(rec[f], float) else rec[f]
                 for f in RESULT_FIELDS]
                for rec in records)
        return
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"schema_version": RESULTS_SCHEMA_VERSION, "records": records},
                  fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_results(path) -> list[dict]:
    """Read records written by :func:`write_results`: CSV when the name
    ends in .csv (any case), JSON otherwise. A CSV cell is typed by its
    field: method and dataset as text, runs and seed as int, every other
    field as float, and an empty cell as None."""
    if _is_csv(path):
        with open(path, newline="", encoding="utf-8") as fh:
            return [{key: None if not val else _CSV_TYPES.get(key, float)(val)
                     for key, val in row.items()}
                    for row in csv.DictReader(fh)]
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or doc.get("schema_version") != RESULTS_SCHEMA_VERSION \
            or "records" not in doc:
        raise ValueError(f"{path}: not a schema_version {RESULTS_SCHEMA_VERSION} results file")
    return doc["records"]
