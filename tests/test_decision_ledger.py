"""Every decision recorded in ``decision_ledger.json`` still comes out the
same: the Table-1 sweep records, and k, ARI and the assignment and split
log digest of each clusterer run. A change that means to move decisions
regenerates the ledger (see ``decision_ledger.py``) and its diff is the
before/after report; any other change must leave every entry as it is.
"""

import json

from decision_ledger import LEDGER, compute_ledger, moved_runs


def without_digests(ledger: dict) -> dict:
    runs = {key: {k: v for k, v in run.items() if k != "digest"}
            for key, run in ledger["runs"].items()}
    return {**ledger, "numpy": None, "runs": runs}


def test_decisions_match_the_committed_ledger(table1_records):
    # the sweep is the session's Table-1 fixture, which criteria 1 and 2
    # also read, so tier-1 draws and decides it once
    committed = json.loads(LEDGER.read_text(encoding="utf-8"))
    now = json.loads(json.dumps(compute_ledger(table1_records)))  # the floats as the file holds them
    if now["numpy"] != committed["numpy"]:
        print(f"decision ledger written with numpy {committed['numpy']}, running "
              f"{now['numpy']}: digests skipped, sweep, k and ARI compared")
        committed, now = without_digests(committed), without_digests(now)
    assert now["sweep"] == committed["sweep"], "the Table-1 sweep records moved"
    moved = moved_runs(committed, now)
    assert not moved, "clusterer decisions moved:\n" + "\n".join(moved)
