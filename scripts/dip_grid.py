"""The dip test's calibration grid: uniform-null dip quantiles on a grid of
sample sizes, written to ``src/sigcluster/data/dip_grid.csv``, which
``baselines.dip_test`` and the classic dip-means viewers decide against.

Each row holds one grid N and, for each upper-tail level p of LEVELS,
sqrt(N) times the dip that B = 10^4 seeded uniform samples of size N
exceed with frequency p: the 1 - p quantile of ``dip_reference_dips(N,
B)`` (numpy's default linear quantile). Level 1 holds the dip's lower
bound 1/(2N), which every sample reaches, and level 0 the largest of the
B dips. The replicates are the package's own seeded draws (substream
[0, N, b] for replicate b), so nothing is downloaded and the first 1000
are the B = 1000 tables of ``dip_reference_table``.

The grid is every N from 4 to 20, then round(20 * 1.15^k) for k = 1..50
(23, 26, ..., 21673). The library interpolates sqrt(N) * quantile
linearly in log N between grid rows and holds it constant above the last.

    PYTHONPATH=src python scripts/dip_grid.py            # rewrite the file (a few minutes)
    PYTHONPATH=src python scripts/dip_grid.py --check    # recompute the smallest rows

``--check [ROWS]`` draws the first ROWS grid rows again (default 3) and
compares them with the committed file, value for value; under another
numpy version than the file records it skips the comparison, since the
draws or the quantile arithmetic may differ by rounding alone.
"""

import math
import sys
from pathlib import Path

import numpy as np

from sigcluster import dip_reference_dips

GRID_FILE = Path(__file__).resolve().parent.parent / "src" / "sigcluster" / "data" / "dip_grid.csv"
REPLICATES = 10_000
GRID = tuple(range(4, 21)) + tuple(round(20 * 1.15**k) for k in range(1, 51))
LEVELS = (1, 0.99, 0.95, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1,
          0.05, 0.02, 0.01, 0.005, 0.002, 0.001, 0.0005, 0.0002, 0)
CHECK_ROWS = 3


def grid_row(N: int) -> list[float]:
    """sqrt(N) times the dip at each level of LEVELS, at sample size N."""
    dips = dip_reference_dips(N, REPLICATES)
    quantiles = np.quantile(dips, [1 - p for p in LEVELS])
    quantiles[0] = 1 / (2 * N)
    return [math.sqrt(N) * float(q) for q in quantiles]


def header() -> list[str]:
    return [
        "# Uniform-null dip quantiles: sqrt(N) times the dip exceeded with frequency p",
        f"# by {REPLICATES} seeded uniform samples of size N (scripts/dip_grid.py).",
        f"# numpy: {np.__version__}",
        "N," + ",".join(f"{p:g}" for p in LEVELS),
    ]


def format_row(N: int, values) -> str:
    return f"{N}," + ",".join(repr(v) for v in values)


def write() -> None:
    lines = header()
    for N in GRID:
        lines.append(format_row(N, grid_row(N)))
        print(lines[-1].split(",", 1)[0], file=sys.stderr, flush=True)
    GRID_FILE.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {GRID_FILE}")


def check(rows: int = CHECK_ROWS) -> list[str] | None:
    """The first ``rows`` grid rows of the committed file that differ from
    a fresh draw, as lines naming N; None when the file records another
    numpy version than this one, so nothing is compared."""
    lines = GRID_FILE.read_text(encoding="utf-8").splitlines()
    recorded = next(line.split(":", 1)[1].strip() for line in lines
                    if line.startswith("# numpy:"))
    if recorded != np.__version__:
        return None
    committed = [line for line in lines if line[:1].isdigit()]
    if committed[0].split(",")[0] != str(GRID[0]) or len(committed) != len(GRID):
        return [f"the file's rows are not the grid's {len(GRID)} sizes from N = {GRID[0]}"]
    drawn = [format_row(N, grid_row(N)) for N in GRID[:rows]]
    return [f"N = {N}: file {line!r}, drawn {again!r}"
            for N, line, again in zip(GRID, committed, drawn) if line != again]


def main(argv) -> int:
    if not argv:
        write()
        return 0
    if argv[0] != "--check" or len(argv) > 2 or (len(argv) == 2 and not argv[1].isdigit()):
        print("usage: dip_grid.py [--check [ROWS]]", file=sys.stderr)
        return 2
    mismatches = check(int(argv[1]) if len(argv) == 2 else CHECK_ROWS)
    if mismatches is None:
        print(f"dip grid written with another numpy than {np.__version__}: not compared")
        return 0
    for line in mismatches:
        print(line)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
