"""Print a census of the unit-seed memo that ``compute_P`` fills.

For each N:D given, a fresh Python process runs ``compute_P(N, D)`` with
``DiagonalSeed.unit`` wrapped to keep the seed it builds, and prints one
JSON line: n, D, the memo's entries, its zero entries (the memo holds
packed pairs (low, N), zero where N = 0), its entries with
tau = 1 (tau(t) = sum_i a_{i-1} a_i mod 2 round the cycle, the parity
invariant of ``mdslab.reducer``), the seconds ``compute_P`` took and the
process's peak RSS in MB (``ru_maxrss``).

Run from anywhere: ``python tools/memo_census.py 6:6 6:8 12:6``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def census(n: int, max_degree: int) -> dict:
    """The census of ``compute_P(n, max_degree)`` in this process."""
    from mdslab.reducer import DiagonalSeed, compute_P

    seeds = []
    make_unit = DiagonalSeed.unit

    def recording_unit(length):
        seeds.append(make_unit(length))
        return seeds[-1]

    DiagonalSeed.unit = staticmethod(recording_unit)
    start = time.perf_counter()
    compute_P(n, max_degree)
    seconds = time.perf_counter() - start
    (seed,) = seeds
    memo = seed._memo
    return {
        "n": n,
        "D": max_degree,
        "entries": len(memo),
        "zero_entries": sum(not packed for _low, packed in memo.values()),
        "tau_one_entries": sum(sum(t[i - 1] * t[i] for i in range(len(t))) % 2 for t in memo),
        "compute_P_s": round(seconds, 4),
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("pairs", nargs="+", metavar="N:D")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    pairs = [tuple(int(x) for x in pair.split(":")) for pair in args.pairs]
    if args.child:
        ((n, max_degree),) = pairs
        print(json.dumps(census(n, max_degree)))
        return 0
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    for n, max_degree in pairs:
        proc = subprocess.run(
            [sys.executable, __file__, "--child", f"{n}:{max_degree}"],
            env=dict(os.environ, PYTHONPATH=path),
            stdout=subprocess.PIPE,
            text=True,
            check=True,
        )
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
