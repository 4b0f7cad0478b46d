import json
import subprocess
import sys
from pathlib import Path

from test_reducer import decoded_memo, tau, unit_seed_of_compute_P

TOOL = Path(__file__).resolve().parent.parent / "tools" / "memo_census.py"


def test_census_counts_match_the_unit_seed(monkeypatch):
    proc = subprocess.run(
        [sys.executable, str(TOOL), "3:2", "4:2"],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [(c["n"], c["D"]) for c in lines] == [(3, 2), (4, 2)]
    for census in lines:
        with monkeypatch.context() as mp:
            memo = decoded_memo(unit_seed_of_compute_P(mp, census["n"], census["D"]))
        assert census["entries"] == len(memo) > 0
        assert census["zero_entries"] == sum(not c for c in memo.values()) > 0
        assert census["tau_one_entries"] == sum(tau(t) for t in memo)
        assert census["compute_P_s"] >= 0 and census["peak_rss_mb"] > 0
