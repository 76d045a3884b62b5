"""Seeded generators for the synthetic benchmark data.

All randomness comes from numpy's default PCG64 generator seeded through
SeedSequence composition: a generator built as default_rng([seed, i, j])
is an independent, reproducible substream, so runs can be generated in
parallel (or re-generated individually) without changing anything.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import _integer, _seed
from .dataset import Dataset


@dataclass(frozen=True)
class TwoClusterSpec:
    """Two unit-variance spherical Gaussian clusters, centered at
    +-separation/2 along the first coordinate: ``separation`` is the
    center-to-center distance in standard deviations. The counts and the
    seed are integers (a bool is not one; TypeError), checked with the
    bounds below (ValueError) when the spec is made.
    """

    n_per_cluster: int = 100
    separation: float = 2.0
    dimension: int = 1
    seed: int = 0

    def __post_init__(self):
        if _integer(self.n_per_cluster, "n_per_cluster") < 2:
            raise ValueError("n_per_cluster must be at least 2")
        if not math.isfinite(self.separation):
            raise ValueError(f"separation must be finite, got {self.separation}")
        if self.separation < 0:
            raise ValueError("separation must be nonnegative")
        if _integer(self.dimension, "dimension") < 1:
            raise ValueError("dimension must be at least 1")
        _seed(self.seed)


def gen_gaussian(n: int, mean=0.0, dimension: int = 1, seed: int = 0) -> Dataset:
    """n i.i.d. draws from a unit-variance spherical Gaussian centered at
    ``mean``, deterministic given seed. ``mean`` is a scalar or has shape
    (dimension,); n, dimension and seed are integers, checked as
    TwoClusterSpec checks its own."""
    if _integer(n, "n") < 1:
        raise ValueError("n must be at least 1")
    if _integer(dimension, "dimension") < 1:
        raise ValueError("dimension must be at least 1")
    center = np.asarray(mean, dtype=np.float64)
    if center.shape not in ((), (dimension,)):
        raise ValueError(f"mean must be a scalar or have shape ({dimension},), "
                         f"got shape {center.shape}")
    rng = np.random.default_rng([_seed(seed)])
    rows = rng.normal(size=(n, dimension)) + center
    return Dataset(rows=rows, name=f"gaussian(n={n},d={dimension})")


def gen_two_clusters(spec: TwoClusterSpec) -> Dataset:
    """Two labeled Gaussian clusters per the spec (2*n_per_cluster rows)."""
    rng = np.random.default_rng([spec.seed])
    n, d = spec.n_per_cluster, spec.dimension
    offset = spec.separation / 2.0
    rows = rng.normal(size=(2 * n, d))
    rows[:n, 0] -= offset
    rows[n:, 0] += offset
    labels = np.repeat([0, 1], n)
    return Dataset(
        rows=rows,
        labels=labels,
        name=f"two_clusters(sep={spec.separation}sigma,n={n},d={d})",
    )
