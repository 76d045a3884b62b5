"""The Dataset container shared by loaders, generators and clusterers."""

from dataclasses import dataclass

import numpy as np

from .errors import LengthMismatchError, NonFiniteInputError


@dataclass(frozen=True)
class Dataset:
    """An N x d real matrix with optional ground-truth labels.

    Labels, when present, are an arbitrary id per row (ints or strings);
    they are only ever compared for equality.
    """

    rows: np.ndarray
    labels: np.ndarray | None = None
    name: str = ""

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.float64)
        if rows.ndim == 1:
            rows = rows.reshape(-1, 1)
        if not np.all(np.isfinite(rows)):
            raise NonFiniteInputError(f"dataset {self.name!r} has non-finite entries")
        object.__setattr__(self, "rows", rows)
        if self.labels is not None:
            labels = np.asarray(self.labels)
            if len(labels) != len(rows):
                raise LengthMismatchError(
                    f"{len(labels)} labels for {len(rows)} rows"
                )
            object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    @property
    def d(self) -> int:
        return self.rows.shape[1]

    def standardized(self) -> "Dataset":
        """Per-column mean 0 / std 1 copy (constant columns left centered)."""
        mu = self.rows.mean(axis=0)
        sd = self.rows.std(axis=0)
        sd[sd == 0.0] = 1.0
        return Dataset(rows=(self.rows - mu) / sd, labels=self.labels, name=self.name)
