import math
from itertools import combinations

import numpy as np
import pytest

from sigcluster import ari, vi
from sigcluster.errors import LengthMismatchError


def ari_pair_counting_oracle(a, b):
    """ARI from explicit pair counting over all N choose 2 pairs."""
    a, b = list(a), list(b)
    n = len(a)
    n11 = n00 = n10 = n01 = 0
    for i, j in combinations(range(n), 2):
        same_a = a[i] == a[j]
        same_b = b[i] == b[j]
        n11 += same_a and same_b
        n00 += (not same_a) and (not same_b)
        n10 += same_a and not same_b
        n01 += (not same_a) and same_b
    total = n * (n - 1) // 2
    # expected index from marginal pair counts
    sum_a = n11 + n10
    sum_b = n11 + n01
    expected = sum_a * sum_b / total
    max_index = (sum_a + sum_b) / 2.0
    if max_index == expected:
        return 1.0 if n11 == expected else 0.0
    return (n11 - expected) / (max_index - expected)


def vi_entropy_oracle(a, b):
    """VI from per-block probabilities, written independently."""
    a, b = list(a), list(b)
    n = len(a)
    blocks_a = {lab: {i for i, x in enumerate(a) if x == lab} for lab in set(a)}
    blocks_b = {lab: {i for i, x in enumerate(b) if x == lab} for lab in set(b)}
    out = 0.0
    for A in blocks_a.values():
        for B in blocks_b.values():
            r = len(A & B) / n
            if r > 0:
                p = len(A) / n
                q = len(B) / n
                out += r * (math.log(p / r) + math.log(q / r))
    return out


class TestVi:
    def test_identical_zero(self):
        assert vi([0, 0, 1, 1], [0, 0, 1, 1]) == 0.0
        assert vi([0, 0, 1, 1], [7, 7, 3, 3]) == 0.0

    def test_singletons_vs_one_block(self):
        n = 10
        assert vi(list(range(n)), [0] * n) == pytest.approx(math.log(n), abs=1e-12)

    def test_one_block_vs_one_block(self):
        assert vi([4] * 12, [9] * 12) == 0.0

    def test_matches_entropy_oracle(self):
        rng = np.random.default_rng(70)
        for _ in range(30):
            n = int(rng.integers(2, 40))
            a = rng.integers(0, 5, n)
            b = rng.integers(0, 4, n)
            assert vi(a, b) == pytest.approx(vi_entropy_oracle(a, b), abs=1e-12)

    def test_relabel_invariance_exact(self):
        rng = np.random.default_rng(71)
        for _ in range(20):
            n = int(rng.integers(2, 50))
            a = rng.integers(0, 6, n)
            b = rng.integers(0, 6, n)
            base = vi(a, b)
            perm = rng.permutation(10)
            assert vi(perm[a], b) == base
            assert vi(a, perm[b]) == base

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(72)
        for _ in range(50):
            n = int(rng.integers(3, 30))
            a = rng.integers(0, 4, n)
            b = rng.integers(0, 4, n)
            c = rng.integers(0, 4, n)
            assert vi(a, b) == pytest.approx(vi(b, a), abs=1e-12)
            assert vi(a, c) <= vi(a, b) + vi(b, c) + 1e-9

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            vi([0, 1], [0, 1, 2])


class TestAri:
    def test_identical_one(self):
        assert ari([0, 0, 1, 1], [5, 5, 9, 9]) == 1.0
        # one item has no pairs; its two partitions can only be the same
        assert ari([0], [0]) == 1.0
        assert ari([3], [7]) == 1.0

    def test_one_block_vs_nontrivial_zero(self):
        assert ari([0] * 6, [0, 0, 1, 1, 2, 2]) == 0.0

    def test_hand_case(self):
        a = [1, 1, 2, 2, 3, 3]
        b = [1, 1, 1, 2, 3, 3]
        assert ari(a, b) == pytest.approx(ari_pair_counting_oracle(a, b), abs=1e-12)

    def test_matches_pair_counting_up_to_n12(self):
        rng = np.random.default_rng(73)
        for _ in range(40):
            n = int(rng.integers(2, 13))
            a = rng.integers(0, 4, n)
            b = rng.integers(0, 3, n)
            assert ari(a, b) == pytest.approx(ari_pair_counting_oracle(a, b), abs=1e-12)

    def test_relabel_invariance_exact(self):
        rng = np.random.default_rng(74)
        for _ in range(20):
            n = int(rng.integers(2, 40))
            a = rng.integers(0, 5, n)
            b = rng.integers(0, 5, n)
            base = ari(a, b)
            perm = rng.permutation(10)
            assert ari(perm[a], b) == base
            assert ari(a, perm[b]) == base

    def test_range(self):
        rng = np.random.default_rng(75)
        for _ in range(50):
            n = int(rng.integers(2, 30))
            val = ari(rng.integers(0, 4, n), rng.integers(0, 4, n))
            assert -1.0 <= val <= 1.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            ari([0], [0, 1])
