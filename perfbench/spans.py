"""Per-layer tracing of mdslab from outside the program.

The tracer replaces public functions of the mdslab modules with wrappers
that count calls and time them. Every name that refers to a wrapped
function is rebound, including ``from .reducer import reduce_coeff``-style
imports in other modules, so no call site bypasses its wrapper.

Spans nest: a span's self time is its duration minus the durations of the
spans opened inside it on the same thread. ``mdslab verify`` runs its
checks on a thread pool, so each thread keeps its own span stack and its
own totals; the totals are summed when the run ends. Self time is wall
time on the thread, so while both threads compete for the interpreter lock
a span also counts the time its thread waited for the lock.
"""

from __future__ import annotations

import functools
import gc
import inspect
import threading
import time
from collections import Counter

LAYERS = (
    "fqpoly",
    "qlaurent",
    "series",
    "reducer",
    "residue",
    "globalweights",
    "lfunctions",
    "partitions",
    "accel",
    "cli",
)

# Leaf helpers called millions of times; wrapping them would cost more than
# the work they do. Their time counts as self time of the wrapped caller.
UNWRAPPED = {("fqpoly", "degree"), ("fqpoly", "is_monic")}

# Span names that differ from the function's own name.
ALIASES = {("accel", "symbol_sums_by_degree"): "accel.symbol_sums"}


class ThreadSpans:
    """One thread's open spans and its totals per span name."""

    __slots__ = ("stack", "records", "checks", "counts")

    def __init__(self):
        self.stack: list[list[float]] = []  # per open span: [start, time in child spans]
        self.records: dict[str, list] = {}  # name -> [calls, self seconds]
        self.checks: list[float] = []  # duration of each verify check
        self.counts: Counter = Counter()  # work counters read from arguments

    def calls(self, name: str) -> int:
        return self.records.get(name, (0, 0.0))[0]

    def self_s(self, name: str) -> float:
        return self.records.get(name, (0, 0.0))[1]


def merge(threads) -> ThreadSpans:
    """Sum the totals of several threads (their stacks must be closed)."""
    out = ThreadSpans()
    for st in threads:
        if st.stack:
            raise ValueError(f"{len(st.stack)} spans still open")
        for name, (calls, self_s) in st.records.items():
            rec = out.records.setdefault(name, [0, 0.0])
            rec[0] += calls
            rec[1] += self_s
        out.checks.extend(st.checks)
        out.counts.update(st.counts)
    return out


class Tracer:
    """Owns the per-thread span state of one traced run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[ThreadSpans] = []

    def state(self) -> ThreadSpans:
        try:
            return self._local.spans
        except AttributeError:
            st = self._local.spans = ThreadSpans()
            with self._lock:
                self._threads.append(st)
            return st

    def merged(self) -> ThreadSpans:
        with self._lock:
            return merge(self._threads)

    # -- wrappers ------------------------------------------------------------
    # The span arithmetic is written out in each wrapper rather than shared
    # through methods: the hottest wrapped functions run millions of times,
    # and every extra call there shows up in trace.overhead_s.

    def timed(self, name: str, fn, after=None):
        """Wrap fn in a span; ``after(counts, args, result)`` reads work done."""
        local, state, clock = self._local, self.state, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                st = local.spans
            except AttributeError:
                st = state()
            stack = st.stack
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - frame[0]
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                try:
                    rec = st.records[name]
                except KeyError:
                    rec = st.records[name] = [0, 0.0]
                rec[0] += 1
                rec[1] += duration - frame[1]
            if after is not None:
                after(st.counts, args, result)
            return result

        return wrapper

    def counted(self, name: str, fn):
        """Wrap fn with a call counter only; its time stays with its caller."""
        state = self.state

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            records = state().records
            try:
                records[name][0] += 1
            except KeyError:
                records[name] = [1, 0.0]
            return fn(*args, **kwargs)

        return wrapper

    def check(self, fn):
        """Wrap one verify check, recording its duration."""
        state, clock = self.state, self.clock

        @functools.wraps(fn)
        def wrapper(*args):
            st = state()
            start = clock()
            try:
                return fn(*args)
            finally:
                st.checks.append(clock() - start)

        return wrapper


def public_functions(mod):
    """(attribute, function) for each public function defined in mod.

    Generator functions are left out: a span around one would close
    before any of its work runs.
    """
    for attr, obj in vars(mod).items():
        if (
            not attr.startswith("_")
            and inspect.isfunction(obj)
            and obj.__module__ == mod.__name__
            and not inspect.isgeneratorfunction(obj)
        ):
            yield attr, obj


def rebind(modules, replacements: dict) -> int:
    """Point every module-level name bound to a replaced object at its wrapper."""
    count = 0
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in replacements:
                setattr(mod, attr, replacements[obj])
                count += 1
    return count


def _count_symbols(counts, args, result):
    fq, _g, dmax = args[:3]
    counts["accel.symbols"] += sum(fq.q**d for d in range(dmax + 1))


def _count_terms(counts, args, result):
    counts["series.terms_built"] += len(result.terms)


def _count_factors(counts, args, result):
    counts["residue.build_R.factors"] += len(result)


AFTER = {
    "accel.symbol_sums": _count_symbols,
    "series.expand_factors": _count_terms,
    "residue.build_R": _count_factors,
}


def install(tracer: Tracer, mods: dict) -> tuple[list[str], list[str]]:
    """Wrap the public functions of mods (layer name -> module) in spans.

    Returns the names of the timed spans and of the count-only ones.
    """
    from concurrent.futures import ThreadPoolExecutor

    timed: list[str] = []
    replacements = {}
    for layer, mod in mods.items():
        if layer == "cli":
            continue  # its spans are the checks, wrapped through the pool
        for attr, fn in public_functions(mod):
            if (layer, attr) in UNWRAPPED:
                continue
            name = ALIASES.get((layer, attr), f"{layer}.{attr}")
            replacements[fn] = tracer.timed(name, fn, AFTER.get(name))
            timed.append(name)
    rebind(mods.values(), replacements)

    for layer, cls, attr in (
        ("fqpoly", mods["fqpoly"].Fq, "factor"),
        ("fqpoly", mods["fqpoly"].Fq, "residue_symbol"),
        ("series", mods["series"].MultiSeries, "mul"),
        ("series", mods["series"].MultiSeries, "inverse"),
    ):
        name = f"{layer}.{attr}"
        setattr(cls, attr, tracer.timed(name, getattr(cls, attr)))
        timed.append(name)
    # 10^5-10^6 calls of a few microseconds: count only, time stays in series.
    QLaurent = mods["qlaurent"].QLaurent
    QLaurent.__mul__ = tracer.counted("qlaurent.mul", QLaurent.__mul__)

    class CheckTimingPool(ThreadPoolExecutor):
        def map(self, fn, *iterables, **kwargs):
            return super().map(tracer.check(fn), *iterables, **kwargs)

    mods["cli"].ThreadPoolExecutor = CheckTimingPool
    return timed, ["qlaurent.mul"]


def fq_cache_sizes(Fq) -> tuple[int, int]:
    """Total (factor cache, symbol cache) entries over live Fq contexts."""
    factor = symbol = 0
    for obj in gc.get_objects():
        if isinstance(obj, Fq):
            factor += len(obj._factor_cache)
            symbol += len(obj._symbol_cache)
    return factor, symbol


def layer_metrics(
    spans: ThreadSpans,
    timed: list[str],
    counted: list[str],
    caches_before: tuple[int, int],
    caches_after: tuple[int, int],
    memo_entries: int,
    wall_s: float,
) -> dict:
    """Per-layer metric values of one traced invocation, by metric name.

    Every wrapped span gets its calls (and self time, if timed), zero when
    it was never entered, so a metric name that no span produces is an error
    rather than a silent zero.
    """
    out: dict[str, float] = {}
    for name in counted:
        out[f"{name}.calls"] = spans.calls(name)
    for name in timed:
        out[f"{name}.calls"] = spans.calls(name)
        out[f"{name}.self_s"] = spans.self_s(name)
        layer = f"{name.split('.')[0]}.self_s"
        out[layer] = out.get(layer, 0.0) + spans.self_s(name)
    for i, which in enumerate(("factor", "residue_symbol")):
        calls = spans.calls(f"fqpoly.{which}")
        growth = caches_after[i] - caches_before[i]
        out[f"fqpoly.{which}.hit_ratio"] = 1 - growth / calls if calls else 0.0
    out["fqpoly.cache_entries"] = sum(caches_after)
    out["reducer.memo_entries"] = memo_entries
    for key in ("accel.symbols", "series.terms_built", "residue.build_R.factors"):
        out[key] = spans.counts[key]
    sweep_s = out["accel.symbol_sums.self_s"]
    out["accel.symbols_per_s"] = out["accel.symbols"] / sweep_s if sweep_s else 0.0
    # Without a thread pool (moments) the one check is the whole command.
    out["cli.checks"] = len(spans.checks) or 1
    out["cli.slowest_check_s"] = max(spans.checks, default=wall_s)
    return out
