"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import contextlib
import io
import json
import re
import threading
import types

import pytest

import run
import spans

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_self_time_nested_two_threads():
    now = threading.local()

    def clock():
        return getattr(now, "t", 0.0)

    def work(seconds):
        now.t = clock() + seconds

    tracer = spans.Tracer(clock=clock)
    leaf = tracer.timed("leaf", work)

    def mid_body():
        work(1)
        leaf(2)
        work(1)

    mid = tracer.timed("mid", mid_body)

    def top_body():
        mid()
        leaf(3)
        work(2)

    top = tracer.timed("top", top_body)
    barrier = threading.Barrier(2)

    def thread_a():
        barrier.wait(timeout=10)
        top()  # top 9 s: mid 4 s (leaf 2 s inside), leaf 3 s

    def thread_b():
        barrier.wait(timeout=10)
        mid()

    threads = [threading.Thread(target=t) for t in (thread_a, thread_b)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()

    total = tracer.merged()
    assert total.records == {
        "top": [1, 2.0],
        "mid": [2, 4.0],
        "leaf": [3, 7.0],
    }


def test_merge_refuses_open_spans():
    st = spans.ThreadSpans()
    st.stack.append([0.0, 0.0])
    with pytest.raises(ValueError):
        spans.merge([st])


def test_rebind_reaches_name_bound_imports():
    lib = types.ModuleType("fake.lib")
    exec("def work():\n    return 1\n", lib.__dict__)
    user = types.ModuleType("fake.user")
    user.work = lib.work  # as after ``from .lib import work``
    exec("def call():\n    return work()\n", user.__dict__)

    tracer = spans.Tracer()
    found = dict(spans.public_functions(lib))
    assert list(found) == ["work"]
    replacements = {fn: tracer.timed(f"lib.{attr}", fn) for attr, fn in found.items()}
    assert spans.rebind([lib, user], replacements) == 2
    user.call()
    lib.work()
    assert tracer.merged().calls("lib.work") == 2


@pytest.fixture(scope="module")
def moments_traced():
    out = run.invoke("traced", run.WORKLOADS["moments-q5"].argv, 120)
    assert run.gate(run.WORKLOADS["moments-q5"], out) is None, out.stderr.decode()
    return out


def test_traced_run_counts_name_bound_calls(moments_traced):
    layers = moments_traced.result["layers"]
    # cli and lfunctions reach these only through names bound at import.
    assert layers["accel.symbol_sums.calls"] == 4492
    assert layers["lfunctions.divisor_count.calls"] == 781
    assert layers["fqpoly.cache_entries"] == 781
    assert layers["cli.checks"] == 1
    assert 0 < layers["accel.symbol_sums.self_s"] <= moments_traced.result["wall_s"]


def test_gate_rejects_one_byte_mutation(moments_traced):
    workload = run.WORKLOADS["moments-q5"]
    assert run.gate(workload, moments_traced) is None
    report = bytearray(moments_traced.stdout)
    report[len(report) // 2] ^= 1
    mutated = run.Invocation("plain", 0, bytes(report), b"", moments_traced.result)
    assert "sha256" in run.gate(workload, mutated)
    crashed = run.Invocation("plain", 1, moments_traced.stdout, b"", None)
    assert run.gate(workload, crashed) == "exit code 1"


def test_metric_names(moments_traced):
    bench = run.load_benchmark()
    metrics = bench["end_to_end"] + bench["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in bench["workloads"]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(set(names)) == len(names)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    # Every per-layer metric is produced by the trace (or by run.py itself).
    produced = set(moments_traced.result["layers"]) | {"trace.overhead_s"}
    assert {m["name"] for m in bench["per_layer"]} <= produced
    assert all(NAME.fullmatch(n) for n in produced)


def test_seed_orders_rounds_only():
    for trace in (0, 1):
        a, b = run.round_plans(1, trace), run.round_plans(2, trace)
        rounds_a = [next(a) for _ in range(20)]
        rounds_b = [next(b) for _ in range(20)]
        assert all(sorted(r) == sorted(run.ROUNDS[trace]) for r in rounds_a + rounds_b)
        assert rounds_a != rounds_b
        again = run.round_plans(1, trace)
        assert [next(again) for _ in range(20)] == rounds_a


def test_main_records_seed_and_prints_result(tmp_path):
    out = tmp_path / "record.json"
    buf = io.StringIO()
    argv = ["--workload", "moments-q5", "--seed", "7", "--seconds", "1", "--trace", "1"]
    with contextlib.redirect_stdout(buf):
        assert run.main(argv + ["--out", str(out)]) == 0
    last = json.loads(buf.getvalue().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["attempted"] == 2 and last["failed"] == 0
    wanted = {m["name"] for m in run.load_benchmark()["per_layer"]}
    assert set(last["metrics"]) == wanted
    record = json.loads(out.read_text())
    assert record["seed"] == 7
    assert record["env"]["backend"] in ("numpy", "numba")


def test_compare_refuses_other_backend():
    import compare

    a = {"workload": "moments-q5", "trace": 0, "env": {"backend": "numpy"}}
    b = {"workload": "moments-q5", "trace": 0, "env": {"backend": "numba"}}
    assert "backend" in compare.comparable(a, b)
    assert compare.comparable(a, dict(a)) is None
