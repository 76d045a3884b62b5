"""Fixtures shared by more than one test module."""

import pytest

from sigcluster import run_test_benchmark


@pytest.fixture(scope="session")
def table1_records():
    """The Table-1 sweep, drawn and decided once per session: 100 runs per
    cell at the default separations and seed 7, plus timing over 5 calls
    per cell with the calibration tables warm. Acceptance criteria 1 and
    2 read its rates and times, the decision ledger its records without
    mean_time_s."""
    return run_test_benchmark(runs=100, seed=7, timing_runs=5)
