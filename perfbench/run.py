"""Benchmark of the mdslab CLI: three fixed workloads, end to end and per layer.

Usage:
    python3 perfbench/run.py --workload verify-n3 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload moments-q5 --seed 1 --seconds 30 --trace 1 --out a.json

Each invocation of a workload runs ``mdslab.cli.main`` in a fresh child
interpreter with cold caches, one process at a time (a closed loop with one
caller), because a CLI user pays cache fill on every run. Invocations repeat
until ``--seconds`` would be exceeded, with a minimum number of rounds.

Every report is checked byte for byte against the sha256 pinned below; an
invocation fails when it exits non-zero, crashes, or writes other bytes.

``--trace 0`` reports the end-to-end metrics (median over invocations):
wall_s, the time of ``cli.main`` in the child; setup_s, from the parent
starting the child until every mdslab module is imported (extra import-only
probes add samples); peak_rss_mb, the child's peak resident set.
``--trace 1`` alternates plain and traced invocations and reports the
per-layer metrics of the traced ones (see spans.py), plus
trace.overhead_s = median traced wall_s - median plain wall_s.

The seed only orders the invocations within each round; the workloads are
fixed configurations. The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics. ``--out`` also writes the full
record (environment, quartiles, sample counts) for compare.py.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"


@dataclass(frozen=True)
class Workload:
    argv: tuple[str, ...]
    sha256: str  # of the report bytes, pinned when the benchmark was added


WORKLOADS = {
    "verify-n3": Workload(
        ("verify", "--n", "3", "--q", "5", "--suite", "all", "--bound", "4", "--trunc", "6"),
        "1196fd3db19c50fdd7536a4ac3ebd74a7a34aee2692c69951351a481632749e7",
    ),
    "moments-q5": Workload(
        ("moments", "--n", "3", "--q", "5", "--trunc", "4"),
        "fb7a251cc3b59c823404ff53c1edf3d38a91630c7236d4d75b518a3c4a51fa56",
    ),
    "residue-n6": Workload(
        ("verify", "--n", "6", "--q", "5", "--suite", "residue", "--bound", "6", "--trunc", "6"),
        "85f776049e94948c06b2460b9ce2f680bc8e2da21d37b890e15eb6d0017cd391",
    ),
}

# Invocation kinds making up one round; the seed shuffles their order.
ROUNDS = {0: ("plain", "probe"), 1: ("plain", "traced")}
MIN_ROUNDS = {0: 3, 1: 1}
HARD_LIMIT_S = 150  # a run must end well inside 180 s whatever --seconds says


class SetupError(RuntimeError):
    """The program cannot even be imported: no result can be measured."""


@dataclass
class Invocation:
    mode: str
    exit: int | None
    stdout: bytes
    stderr: bytes
    result: dict | None


def invoke(mode: str, argv: tuple[str, ...], timeout: float) -> Invocation:
    """Run one child interpreter to completion and collect what it reports."""
    read_fd, write_fd = os.pipe()
    cmd = [sys.executable, str(CHILD), str(ROOT), str(write_fd)]
    try:
        t0 = time.monotonic()
        proc = subprocess.Popen(
            cmd + [repr(t0), mode, *argv],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            pass_fds=(write_fd,),
        )
    finally:
        os.close(write_fd)
    with os.fdopen(read_fd, "rb") as fh:
        try:
            stdout, stderr = proc.communicate(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            stdout, stderr = proc.communicate()
            stderr += b"\nkilled: invocation timed out"
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        raw = fh.read()
    try:
        result = json.loads(raw) if raw else None
    except json.JSONDecodeError:
        result = None
    return Invocation(mode, proc.returncode, stdout, stderr, result)


def gate(workload: Workload, inv: Invocation) -> str | None:
    """Why the invocation failed, or None when it exited 0 with the pinned bytes."""
    if inv.exit != 0:
        return f"exit code {inv.exit}"
    if inv.result is None:
        return "no measurements from the child"
    digest = hashlib.sha256(inv.stdout).hexdigest()
    if digest != workload.sha256:
        return f"report sha256 {digest} != pinned {workload.sha256}"
    return None


def round_plans(seed: int, trace: int):
    """Endless sequence of rounds; the seed decides only the order within each."""
    rng = random.Random(seed)
    while True:
        kinds = list(ROUNDS[trace])
        rng.shuffle(kinds)
        yield kinds


def summary(values: list[float]) -> dict:
    """Median, quartiles and sample count."""
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def git_rev() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            env=env,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(backend: str) -> dict:
    try:
        import numba  # noqa: F401

        numba_imports = True
    except ImportError:
        numba_imports = False
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "absent"
    env = {
        "git_rev": git_rev(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "numba_imports": numba_imports,
        "backend": backend,
    }
    if "MDSLAB_THREADS" in os.environ:
        env["MDSLAB_THREADS"] = os.environ["MDSLAB_THREADS"]
    return env


def measure(name: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload for about `seconds`; return samples and failures."""
    workload = WORKLOADS[name]
    start = time.monotonic()
    hard_end = start + HARD_LIMIT_S

    warm = invoke("probe", (), HARD_LIMIT_S)  # also writes the .pyc files
    if warm.exit != 0 or warm.result is None:
        raise SetupError(warm.stderr.decode(errors="replace").strip()[-2000:])

    samples: dict[str, list[float]] = {"setup_s": []}
    layers: list[dict] = []
    failures: list[str] = []
    attempted = 0
    round_s: list[float] = []
    deadline = start + seconds
    for kinds in round_plans(seed, trace):
        t_round = time.monotonic()
        for mode in kinds:
            inv = invoke(mode, workload.argv, hard_end - time.monotonic())
            if mode == "probe":
                if inv.exit != 0 or inv.result is None:
                    raise SetupError(inv.stderr.decode(errors="replace").strip()[-2000:])
                samples["setup_s"].append(inv.result["setup_s"])
                continue
            attempted += 1
            reason = gate(workload, inv)
            if reason is not None:
                tail = inv.stderr.decode(errors="replace").strip()[-500:]
                failures.append(f"{mode}: {reason} {tail}".strip())
                if inv.result is None or "wall_s" not in inv.result:
                    continue
            # A failed invocation still reports its timings; `correct` flags the run.
            r = inv.result
            samples["setup_s"].append(r["setup_s"])
            samples.setdefault(f"{mode}.wall_s", []).append(r["wall_s"])
            if mode == "plain":
                samples.setdefault("plain.peak_rss_mb", []).append(r["peak_rss_mb"])
            else:
                layers.append(r["layers"])
        now = time.monotonic()
        round_s.append(now - t_round)
        if now + statistics.median(round_s) > hard_end:
            break
        if len(round_s) >= MIN_ROUNDS[trace] and now + statistics.median(round_s) > deadline:
            break
    return {
        "backend": warm.result["backend"],
        "samples": samples,
        "layers": layers,
        "attempted": attempted,
        "failures": failures,
        "rounds": len(round_s),
        "elapsed_s": time.monotonic() - start,
    }


def metric_values(run: dict, trace: int) -> dict[str, dict]:
    """Summaries of every metric this run reports, keyed by metric name."""
    s = run["samples"]
    out = {}
    if trace == 0:
        for name in ("wall_s", "setup_s", "peak_rss_mb"):
            key = name if name == "setup_s" else f"plain.{name}"
            if s.get(key):
                out[name] = summary(s[key])
        return out
    layers = run["layers"]
    for name in layers[0] if layers else ():
        out[name] = summary([layer[name] for layer in layers])
    traced, plain = s.get("traced.wall_s"), s.get("plain.wall_s")
    if traced and plain:
        over = statistics.median(traced) - statistics.median(plain)
        n = min(len(traced), len(plain))
        out["trace.overhead_s"] = {"median": over, "q1": over, "q3": over, "n": n}
    return out


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="also write the full record here")
    args = parser.parse_args(argv)

    bench = load_benchmark()
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    try:
        run = measure(args.workload, args.seed, seconds, args.trace)
    except SetupError as exc:
        print(f"perfbench: mdslab could not be set up:\n{exc}", file=sys.stderr)
        return 2
    env = environment(run["backend"])
    values = metric_values(run, args.trace)
    attempted, failed = run["attempted"], len(run["failures"])
    fail_ratio = failed / attempted if attempted else 1.0

    print("env " + json.dumps(env, sort_keys=True))
    print(
        f"workload {args.workload} seed {args.seed} trace {args.trace}: "
        f"{run['rounds']} rounds in {run['elapsed_s']:.1f} s, {attempted} invocations"
    )
    for reason in run["failures"]:
        print(f"FAILED {reason}")
    print(f"  {'fail_ratio':<40} {fail_ratio:>14.6g} ratio  ({failed}/{attempted})")
    metrics = {}
    missing = []
    for m in wanted:
        v = values.get(m["name"])
        if v is None:
            missing.append(m["name"])
            continue
        metrics[m["name"]] = {"value": v["median"], "unit": m["unit"]}
        print(
            f"  {m['name']:<40} {v['median']:>14.6g} {m['unit']:<6} "
            f"[q1 {v['q1']:.6g}, q3 {v['q3']:.6g}, n={v['n']}]"
        )
    if missing:
        print(f"perfbench: no samples for {', '.join(missing)}", file=sys.stderr)
        if not metrics:
            return 1
    if args.out:
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": seconds,
            "trace": args.trace,
            "env": env,
            "attempted": attempted,
            "failed": failed,
            "fail_ratio": fail_ratio,
            "failures": run["failures"],
            "samples": run["samples"],
            "metrics": {m["name"]: dict(values[m["name"]], unit=m["unit"]) for m in wanted if m["name"] in values},
        }
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
    correct = failed == 0 and not missing
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
