"""External clustering-quality measures: variation of information and
adjusted Rand index.

Both compare two flat partitions of the same items and depend only on
the induced contingency counts, so they are exactly invariant under
relabeling either side.

References
----------
Meila (2007), "Comparing clusterings - an information based distance",
J. Multivariate Anal. 98.
Hubert & Arabie (1985), "Comparing partitions", J. Classification 2.
"""

import math

import numpy as np

from .errors import LengthMismatchError


def _contingency(a, b):
    a = np.asarray(a)
    b = np.asarray(b)
    if a.size != b.size:
        raise LengthMismatchError(f"partition lengths differ: {a.size} vs {b.size}")
    if a.size == 0:
        raise LengthMismatchError("partitions are empty")
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    M = np.zeros((ai.max() + 1, bi.max() + 1), dtype=np.int64)
    np.add.at(M, (ai, bi), 1)
    return M


def vi(a, b) -> float:
    """Variation of information, natural log: H(a) + H(b) - 2 I(a; b).

    Zero iff the partitions are identical up to relabeling; symmetric and
    a true metric on partitions. Computed from the count identity
    VI = (sum_i n_i ln n_i + sum_j n_j ln n_j - 2 sum_ij n_ij ln n_ij) / n,
    where the grand ln(n) terms cancel symbolically; accumulation uses
    math.fsum over sorted terms so the value cannot depend on label order.
    """
    M = _contingency(a, b)
    n = int(M.sum())

    def count_logsum(counts) -> float:
        return math.fsum(sorted(int(c) * math.log(int(c))
                                for c in counts if c > 1))

    sum_a = count_logsum(M.sum(axis=1))
    sum_b = count_logsum(M.sum(axis=0))
    sum_ab = count_logsum(M.flat)
    return max(0.0, (sum_a + sum_b - 2.0 * sum_ab) / n)


def ari(a, b) -> float:
    """Adjusted Rand index from the pairwise contingency table.

    1 for identical partitions (up to relabeling), ~0 for independent
    ones; can be negative. All pair counts are exact integers, so the
    result is exactly relabel-invariant.
    """
    M = _contingency(a, b)
    n = int(M.sum())

    def choose2(v) -> int:
        v = int(v)
        return v * (v - 1) // 2

    sum_ij = sum(choose2(nij) for nij in M.flat)
    sum_a = sum(choose2(x) for x in M.sum(axis=1))
    sum_b = sum(choose2(x) for x in M.sum(axis=0))
    total = choose2(n)
    if total == 0:  # one item has no pairs, and one way to be partitioned
        return 1.0
    expected = sum_a * sum_b / total
    max_index = (sum_a + sum_b) / 2.0
    if max_index == expected:  # both partitions trivial
        return 1.0 if sum_ij == expected else 0.0
    return (sum_ij - expected) / (max_index - expected)
