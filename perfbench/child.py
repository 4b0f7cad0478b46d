"""One timed invocation of the mdslab CLI, run in a fresh interpreter.

Usage (from perfbench/run.py, not by hand):
    python3 perfbench/child.py ROOT RESULT_FD T0 MODE [CLI ARGS...]

ROOT is the checkout whose ``src/`` holds mdslab. T0 is the parent's
``time.monotonic()`` just before it started this process, so setup time
covers interpreter start plus the import of every mdslab module. MODE is
``probe`` (import only), ``plain`` or ``traced``. The CLI report goes to
stdout untouched; the measurements go as one JSON object to RESULT_FD.
"""

import importlib
import json
import os
import resource
import sys
import time


def main() -> int:
    root, fd, t0, mode = sys.argv[1], int(sys.argv[2]), float(sys.argv[3]), sys.argv[4]
    argv = sys.argv[5:]
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import spans  # perfbench/ is on sys.path as this script's directory

    mods = {layer: importlib.import_module(f"mdslab.{layer}") for layer in spans.LAYERS}
    setup_s = time.monotonic() - t0
    pkg = sys.modules["mdslab"]
    if os.path.dirname(os.path.dirname(os.path.abspath(pkg.__file__))) != os.path.abspath(src):
        raise SystemExit(f"mdslab imported from {pkg.__file__}, not from {src}")
    result = {"setup_s": setup_s, "backend": mods["accel"].backend_name()}

    if mode != "probe":
        tracer = None
        if mode == "traced":
            tracer = spans.Tracer()
            timed, counted = spans.install(tracer, mods)
            caches_before = spans.fq_cache_sizes(mods["fqpoly"].Fq)
        start = time.perf_counter()
        result["exit"] = mods["cli"].main(argv)
        sys.stdout.flush()
        result["wall_s"] = time.perf_counter() - start
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            memo = sum(len(r.seed._memo) for r in mods["residue"]._PIPELINE_CACHE.values())
            result["layers"] = spans.layer_metrics(
                tracer.merged(),
                timed,
                counted,
                caches_before,
                spans.fq_cache_sizes(mods["fqpoly"].Fq),
                memo,
                result["wall_s"],
            )
    with os.fdopen(fd, "w") as fh:
        json.dump(result, fh)
    return 0 if mode == "probe" else result["exit"]


if __name__ == "__main__":
    sys.exit(main())
