"""Loading benchmark datasets from delimited text and persisting results.

Two small CSVs ship with the package (UCI iris and wheat-seeds); their
manifests are available through :func:`bundled_manifest`. Result records
are written as JSON (schema-versioned) or CSV with a fixed column order;
both formats round-trip exactly through :func:`read_results`.
"""

import csv
import dataclasses
import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .dataset import Dataset
from .errors import EmptyDatasetError, MissingLabelColumnError, ParseError

RESULTS_SCHEMA_VERSION = 1

# fixed CSV column order for result records
RESULT_FIELDS = (
    "method", "dataset", "separation", "success_rate",
    "k_mean", "k_std", "vi_mean", "vi_std", "ari_mean", "ari_std",
    "mean_time_s", "runs", "seed",
)
# the type each CSV result cell is read back as; every other field is a float
_CSV_TYPES = {"method": str, "dataset": str, "runs": int, "seed": int}


@dataclass(frozen=True)
class DatasetManifest:
    """Where and how to read one delimited dataset.

    ``label_column`` is a header name or 0-based index (None for
    unlabeled data); whether the file has a header row is decided by
    :func:`load_csv` from that row. ``standardize`` asks the loader for
    per-column mean-0/std-1 features, and is recorded by the benchmark so
    results state which setting produced them. ``expected_k`` is the
    ground-truth number of classes when known.
    """

    name: str
    path: str
    label_column: int | str | None = None
    delimiter: str = ","
    standardize: bool = False
    expected_k: int | None = None

    def __post_init__(self):
        if self.expected_k is not None and self.expected_k < 1:
            raise ValueError("expected_k must be at least 1 when present")


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
        On the first bad numeric cell, if the file is not UTF-8 text, or
        if the csv module cannot split a line (the message names its
        1-based line number).
    """
    where = f"dataset {manifest.name!r} ({manifest.path})"
    rows = _read_rows(manifest)
    if not rows:
        raise EmptyDatasetError(f"{where}: file is empty")
    label = manifest.label_column
    named = isinstance(label, str)
    if named:  # a column named in the manifest needs a header
        header = True
    else:
        skip = label + len(rows[0]) if label is not None and label < 0 else label
        header = not all(_is_number(cell) for c, cell in enumerate(rows[0]) if c != skip)
    names = [h.strip() for h in rows.pop(0)] if header else None
    if not rows:
        raise EmptyDatasetError(f"{where}: no data rows")

    ncols = len(rows[0])
    label_idx = None
    if named:
        if label not in names:
            raise MissingLabelColumnError(f"{where}: no column named {label!r}")
        label_idx = names.index(label)
    elif label is not None:
        label_idx = int(label)
        if label_idx < 0:
            label_idx += ncols
        if not 0 <= label_idx < ncols:
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
    base = resources.files("sigcluster").joinpath("data")
    manifests = {
        "iris": DatasetManifest(
            name="iris", path=str(base / "iris.csv"),
            label_column="species", expected_k=3, standardize=False,
        ),
        "seeds": DatasetManifest(
            name="seeds", path=str(base / "seeds.csv"),
            label_column="variety", expected_k=3, standardize=True,
        ),
    }
    if name not in manifests:
        raise ValueError(f"no bundled dataset {name!r}; have {sorted(manifests)}")
    return manifests[name]


def _record_to_dict(record) -> dict:
    if dataclasses.is_dataclass(record) and not isinstance(record, type):
        record = dataclasses.asdict(record)
    return dict(record)


def write_results(records, path, format: str = "json") -> None:
    """Write benchmark records to ``path`` as JSON or CSV.

    JSON carries a schema_version envelope; CSV uses the fixed
    RESULT_FIELDS column order with empty cells for absent fields. An
    empty record list produces a valid empty document either way.
    """
    records = [_record_to_dict(r) for r in records]
    path = Path(path)
    if format == "json":
        doc = {"schema_version": RESULTS_SCHEMA_VERSION, "records": records}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    elif format == "csv":
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(RESULT_FIELDS)
            for rec in records:
                writer.writerow([
                    "" if rec.get(f) is None else repr(rec[f]) if isinstance(rec[f], float) else rec[f]
                    for f in RESULT_FIELDS
                ])
    else:
        raise ValueError(f"unknown format {format!r}; use 'json' or 'csv'")


def read_results(path, format: str | None = None) -> list[dict]:
    """Read records written by :func:`write_results` (format from suffix
    when not given). A CSV cell is typed by its field: method and dataset
    as text, runs and seed as int, every other field as float, and an
    empty cell as None."""
    path = Path(path)
    if format is None:
        format = "csv" if path.suffix.lower() == ".csv" else "json"
    if format == "json":
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        version = doc.get("schema_version") if isinstance(doc, dict) else None
        if version != RESULTS_SCHEMA_VERSION or "records" not in doc:
            raise ValueError(f"{path}: not a schema_version {RESULTS_SCHEMA_VERSION} results file")
        return doc["records"]
    with open(path, newline="", encoding="utf-8") as fh:
        return [{key: None if not val else _CSV_TYPES.get(key, float)(val)
                 for key, val in row.items()}
                for row in csv.DictReader(fh)]
