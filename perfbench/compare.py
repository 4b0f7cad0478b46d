"""Compare two records written by ``run.py --out``.

Usage: python3 perfbench/compare.py BEFORE.json AFTER.json

Prints each metric's median before and after and the change as a share of
the before median, marking end-to-end metrics that got worse by more than
their bound in BENCHMARK.json. Exits 2 without comparing when the records
differ in workload, trace mode or symbol-sweep backend: with numba present
``accel`` runs a different program. Exits 1 when a bound is exceeded.
"""

from __future__ import annotations

import json
import sys

import run


def comparable(a: dict, b: dict) -> str | None:
    """Why two records cannot be compared, or None."""
    for key in ("workload", "trace"):
        if a[key] != b[key]:
            return f"{key} differs: {a[key]} vs {b[key]}"
    if a["env"]["backend"] != b["env"]["backend"]:
        return f"backend differs: {a['env']['backend']} vs {b['env']['backend']}"
    return None


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0]) as fa, open(argv[1]) as fb:
        a, b = json.load(fa), json.load(fb)
    reason = comparable(a, b)
    if reason is not None:
        print(f"compare: refusing: {reason}", file=sys.stderr)
        return 2
    bench = run.load_benchmark()
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    print(f"{a['workload']} trace {a['trace']}: {a['env']['git_rev'][:12]} -> {b['env']['git_rev'][:12]}")
    regressed = False
    for name, before in a["metrics"].items():
        after = b["metrics"].get(name)
        if after is None:
            continue
        x, y = before["median"], after["median"]
        change = (y - x) / x if x else float("nan")
        spec = specs.get(name, {})
        worse = change if spec.get("better") == "lower" else -change
        flag = ""
        if "bound" in spec and worse > spec["bound"]:
            flag = f"  WORSE than bound {spec['bound']}"
            regressed = True
        print(f"  {name:<40} {x:>12.6g} -> {y:<12.6g} {change:+.1%}{flag}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
