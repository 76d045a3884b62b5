"""The dip calibration grid (data/dip_grid.csv): its generator's --check
mode, its layout, its interpolation in N, its accuracy against fresh
seeded draws at sizes off the grid, and the screened viewer path at the
critical dips it gives."""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from sigcluster import baselines, dip_reference_dips
from sigcluster.baselines import DIP_ALPHA, _dip_decision, _dip_null, _dip_rows
from sigcluster.clustering import _viewer_distances
from sigcluster.core import _log_n_interp
from sigcluster.data_io import _bundled_grid

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "dip_grid.py"


def load_script():
    spec = importlib.util.spec_from_file_location("dip_grid", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_generator_check_mode():
    # the smallest grid rows drawn again equal the committed ones, value
    # for value, unless the file records another numpy version
    mismatches = load_script().check()
    if mismatches is None:
        pytest.skip(f"dip grid written with another numpy than {np.__version__}")
    assert mismatches == []


def test_grid_layout():
    # the file holds the script's sizes and levels; each row's dips
    # ascend as the levels fall, level 1 is the least dip 1/(2N) and
    # DIP_ALPHA is a stored level
    script = load_script()
    sizes, levels, scaled = _bundled_grid("dip_grid")
    assert sizes == script.GRID and levels == tuple(map(float, script.LEVELS))
    assert DIP_ALPHA in levels and not scaled.flags.writeable
    assert (np.diff(scaled, axis=1) >= 0).all()
    np.testing.assert_array_equal(scaled[:, 0], [math.sqrt(N) * (1 / (2 * N)) for N in sizes])


def test_interpolation_in_log_n():
    # a grid size reads its own row, a size between two rows their mix
    # linear in log N, a size above the grid the last row
    sizes, _, scaled = _bundled_grid("dip_grid")
    for i, N in enumerate(sizes):
        np.testing.assert_array_equal(_log_n_interp(sizes, scaled, N), scaled[i])
    i = sizes.index(187)
    w = math.log(200 / 187) / math.log(215 / 187)
    np.testing.assert_array_equal(_log_n_interp(sizes, scaled, 200),
                                  (1 - w) * scaled[i] + w * scaled[i + 1])
    for N in (sizes[-1] + 1, 10**6):
        np.testing.assert_array_equal(_log_n_interp(sizes, scaled, N), scaled[-1])
        levels, dips, critical = _dip_null(N)
        np.testing.assert_array_equal(dips, scaled[-1] / math.sqrt(N))


@pytest.mark.parametrize("N", [150, 600])
def test_critical_dip_within_monte_carlo_tolerance_of_fresh_draws(N):
    # at an N off the grid, 10^4 fresh seeded uniform dips (substreams
    # [0, N, b], which no grid row draws) exceed the interpolated critical
    # dip about DIP_ALPHA * 10^4 = 10 times. Were the grid exact at N, the
    # count would be binomial about 10; the grid's own quantile, about the
    # 11th largest of 10^4 draws, has a tail rate that is Beta about
    # 0.001, and a count drawn so falls in [1, 31] with 99.9% chance
    assert N not in _bundled_grid("dip_grid")[0]
    fresh = dip_reference_dips(N, 10_000)
    levels, dips, critical = _dip_null(N)
    assert 1 <= np.count_nonzero(fresh > critical) <= 31
    # the medians of two 10^4-draw sets differ by about 0.5% (one standard
    # deviation); the interpolated one lies within 2% of the fresh one
    median = dips[levels.index(0.5)]
    assert abs(median / np.median(fresh) - 1) < 0.02


@pytest.mark.parametrize("N", [4, 60, 30_000])
def test_p_value_is_the_interpolated_survival_function(N):
    # the p-value falls from 1 at the least dip to 0 above the largest
    # stored dip, never rises, and reads each stored level at its dip (a
    # dip several levels share reads the largest of them)
    levels, dips, critical = _dip_null(N)
    d = np.linspace(1 / (2 * N), 1.2 * dips[-1], 400)
    p = [_dip_decision(x, N).p_value for x in d]
    assert p[0] == 1.0 and p[-1] == 0.0 and (np.diff(p) <= 0).all()
    for q in dips:
        assert _dip_decision(q, N).p_value == max(lv for lv, v in zip(levels, dips) if v == q)


@pytest.mark.parametrize("N", [149, 199, 599])
def test_screened_viewer_rows_decide_as_the_full_kernel(N):
    # viewer distance rows (100 sampled viewers, d = 8) of one Gaussian
    # cluster, of two blobs and of a uniform cube, on both sides of the
    # coarse-copy floor (197 values): at the grid's critical dip each
    # screened and settled row is decided as its exact dip is, and its
    # reported dip is never above the exact one
    assert bool(baselines._coarse_ranks(N)) == (N >= 197)
    rng = np.random.default_rng([35, N])
    d = 8
    clouds = [rng.normal(size=(N + 1, d)),
              rng.normal(size=(N + 1, d)) + np.where(np.arange(N + 1) < N // 2, 0.0, 4.0)[:, None],
              rng.uniform(size=(N + 1, d))]
    X = np.vstack([_viewer_distances(c, rng.choice(N + 1, size=100, replace=False))
                   for c in clouds])
    critical = _dip_null(N)[2]
    exact = _dip_rows(X)
    got = _dip_rows(X, critical)
    np.testing.assert_array_equal(got > critical, exact > critical)
    assert (got <= exact).all()
    assert 0 < np.count_nonzero(exact > critical) < len(X)
