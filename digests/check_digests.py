"""Re-run the by-hand CLI digests of table.json and compare every report.

Each entry of ``table.json`` gives an ``mdslab`` argv, the full sha256 of
the bytes the CLI writes to stdout, its exit code, the commit that first
quoted that report, and the seconds one fresh run took when the table was
written (2 vCPUs, Python 3.11). Each entry runs in a fresh interpreter on
this checkout's ``src/``, one at a time. One JSON line per entry is
printed, with ``result`` one of match, mismatch or timeout. An entry
times out after ten times its seconds, and never before a minute. The
exit code is 1 if any entry is a mismatch, else 0.

Usage: python digests/check_digests.py
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
TABLE = HERE / "table.json"
CHILD = "import sys; from mdslab.cli import main; sys.exit(main(sys.argv[1:]))"


def timeout_for(entry: dict) -> float:
    return max(60.0, 10 * entry["seconds"])


def run_entry(entry: dict) -> dict:
    """Run one entry in a fresh interpreter and compare its report."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    line = {"argv": entry["argv"]}
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, "-c", CHILD, *entry["argv"]],
            env=env,
            capture_output=True,
            timeout=timeout_for(entry),
        )
    except subprocess.TimeoutExpired:
        line.update(result="timeout", seconds=round(time.monotonic() - start, 2))
        return line
    got = {"sha256": hashlib.sha256(proc.stdout).hexdigest(), "exit": proc.returncode}
    want = {"sha256": entry["sha256"], "exit": entry["exit"]}
    line.update(result="match" if got == want else "mismatch", seconds=round(time.monotonic() - start, 2))
    line.update(got)
    if got != want:
        line["want"] = want
    return line


def main() -> int:
    mismatch = False
    for entry in json.loads(TABLE.read_text()):
        line = run_entry(entry)
        mismatch |= line["result"] == "mismatch"
        print(json.dumps(line), flush=True)
    return 1 if mismatch else 0


if __name__ == "__main__":
    sys.exit(main())
