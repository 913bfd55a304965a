"""Outside-in layer trace for the benchmark.

Wrappers are installed around the public callables the pipeline calls
through, from the benchmark's own files: no file under ``src/`` knows about
them.  A module-level function is replaced in every ``tamagawa`` module that
binds it (``localorders`` imports ``find_roots_padic`` by name, for example),
a method or property is replaced on its class, and ``sympy.factorint`` is
replaced on the ``sympy`` package, which ``euler`` imports from at call time.

Spans live in memory as parallel lists (name, start, end, parent) and are
written out when the run ends.  ``tracing()`` restores every original on
exit, so an untraced run never measures a wrapper.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager

# (owner, attribute, layer name); owner is a module path, or
# "module:Class" for a method or property.
SPAN_TARGETS = (
    ("tamagawa.euler", "verify_main_theorem", "euler.verify_main_theorem"),
    ("tamagawa.euler", "local_data_for_bad_primes", "euler.local_data_for_bad_primes"),
    ("sympy", "factorint", "sympy.factorint"),
    ("tamagawa.tate", "tate_local", "tate.tate_local"),
    ("tamagawa.curves", "transform", "curves.transform"),
    ("tamagawa.localorders", "assemble_local_orders", "localorders.assemble_local_orders"),
    ("tamagawa.localorders", "local_torsion_order", "localorders.local_torsion_order"),
    ("tamagawa.localorders", "division_polynomial", "localorders.division_polynomial"),
    ("tamagawa.padic", "find_roots_padic", "padic.find_roots_padic"),
    ("tamagawa.padic:IntegerPolynomial", "squarefree_part", "padic.squarefree_part"),
    ("tamagawa.padic", "value_is_square_at_root", "padic.value_is_square_at_root"),
    ("tamagawa.euler", "global_torsion_order", "euler.global_torsion_order"),
    ("tamagawa.curves:FiniteFieldCurve", "order", "curves.FiniteFieldCurve.order"),
    ("tamagawa.lmfdb", "fetch_curve", "lmfdb.fetch_curve"),
)

# Called too often for a span each; only the number of calls is kept.
COUNT_TARGETS = (
    ("tamagawa.curves:WeierstrassCurve", "b_invariants", "curves.b_invariants"),
    ("tamagawa.padic", "valuation", "padic.valuation"),
)

LAYERS = tuple(name for _, _, name in SPAN_TARGETS)

# Every per-layer metric, in the order BENCHMARK.json lists them.
LAYER_METRICS = tuple(
    [(f"{n}.{stat}", "count" if stat == "calls" else "s") for n in LAYERS for stat in ("calls", "total_s", "self_s")]
    + [
        ("curves.b_invariants.calls", "count"),
        ("padic.valuation.calls", "count"),
        ("padic.roots_found", "count"),
        ("padic.square_hit_ratio", "ratio"),
        ("padic.find_roots_padic.repeat_share", "ratio"),
        ("euler.global_torsion.fastpath_ratio", "ratio"),
        ("cli.batch.parallel_efficiency", "ratio"),
        ("cli.batch.report_bytes", "bytes"),
        ("trace.overhead_ratio", "ratio"),
    ]
)

_MARK = "__perfbench_wrapper__"


class Tracer:
    """In-memory spans and counters for one traced interval."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.outermost: list[bool] = []  # no open span of the same name when it began
        self._stack: list[int] = []
        self._open = Counter()
        self.counts = Counter()
        self._seen_polys: set[tuple[int, ...]] = set()
        self.wall_ns = 0

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.outermost.append(self._open[name] == 0)
        self.ends.append(0)
        self._open[name] += 1
        self._stack.append(idx)
        self.starts.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter_ns()
        self._stack.pop()
        self._open[self.names[idx]] -= 1

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    @contextmanager
    def interval(self):
        """Time a traced stretch; the self-time check covers these stretches."""
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            self.wall_ns += time.perf_counter_ns() - t0

    # -- counters filled in by wrappers -------------------------------------

    def after(self, layer: str, args: tuple, result) -> None:
        if layer == "padic.find_roots_padic":
            self.counts["padic.roots_found"] += len(result)
            key = tuple(args[0].coeffs)
            if key in self._seen_polys:
                self.counts["padic.find_roots_padic.repeats"] += 1
            self._seen_polys.add(key)
        elif layer == "padic.value_is_square_at_root" and result:
            self.counts["padic.square_hits"] += 1

    # -- aggregation ---------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """calls/total_s/self_s per layer plus the derived counters.

        Self time is a span's duration minus its children's; total time sums
        only spans with no enclosing span of the same name.  Raises if the
        self times and the unattributed time do not add up to the wall time.
        """
        n = len(self.names)
        child_ns = [0] * n
        for i in range(n):
            if self.ends[i] < self.starts[i]:
                raise RuntimeError(f"span {self.names[i]} never closed")
            if self.parents[i] >= 0:
                child_ns[self.parents[i]] += self.ends[i] - self.starts[i]
        calls, total, self_ns = Counter(), Counter(), Counter()
        root_ns = 0
        for i in range(n):
            dur = self.ends[i] - self.starts[i]
            own = dur - child_ns[i]
            if own < 0:
                raise RuntimeError(f"span {self.names[i]} shorter than its children")
            calls[self.names[i]] += 1
            self_ns[self.names[i]] += own
            if self.outermost[i]:
                total[self.names[i]] += dur
            if self.parents[i] < 0:
                root_ns += dur
        unattributed = self.wall_ns - root_ns
        if unattributed < 0 or sum(self_ns.values()) + unattributed != self.wall_ns:
            raise RuntimeError(
                f"self times {sum(self_ns.values())} ns + unattributed {unattributed} ns "
                f"!= traced wall {self.wall_ns} ns"
            )
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.total_s"] = total[layer] / 1e9
            out[f"{layer}.self_s"] = self_ns[layer] / 1e9
        for _, _, name in COUNT_TARGETS:
            out[f"{name}.calls"] = self.counts[name]
        out["padic.roots_found"] = self.counts["padic.roots_found"]
        out["padic.square_hit_ratio"] = _ratio(self.counts["padic.square_hits"], calls["padic.value_is_square_at_root"])
        out["padic.find_roots_padic.repeat_share"] = _ratio(
            self.counts["padic.find_roots_padic.repeats"], calls["padic.find_roots_padic"]
        )
        out["euler.global_torsion.fastpath_ratio"] = self._fastpath_ratio()
        out["trace.unattributed_s"] = unattributed / 1e9
        out["trace.wall_s"] = self.wall_ns / 1e9
        return out

    def _fastpath_ratio(self) -> float:
        calls = [i for i, nm in enumerate(self.names) if nm == "euler.global_torsion_order"]
        slow = set()
        for i, nm in enumerate(self.names):
            if nm == "localorders.division_polynomial":
                j = self.parents[i]
                while j >= 0 and self.names[j] != "euler.global_torsion_order":
                    j = self.parents[j]
                if j >= 0:
                    slow.add(j)
        return _ratio(len(calls) - len(slow), len(calls))

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps([name, self.starts[i], self.ends[i], self.parents[i]]) + "\n")


def _ratio(num: int, den: int) -> float:
    # a layer the workload never reaches reports 0 (its calls metric is 0 too)
    return num / den if den else 0.0


def _owner(path: str):
    module, _, cls = path.partition(":")
    mod = importlib.import_module(module)
    return getattr(mod, cls) if cls else mod


def _bindings(owner_path: str, attr: str):
    """Every (namespace, attribute) through which the pipeline reaches the
    target: the owner itself, plus each loaded tamagawa module that imported
    the same object by name."""
    owner = _owner(owner_path)
    if ":" in owner_path:
        return [(owner, attr)]
    original = getattr(owner, attr)
    found = [(owner, attr)]
    for name, mod in list(sys.modules.items()):
        if (name == "tamagawa" or name.startswith("tamagawa.")) and mod is not owner:
            if getattr(mod, attr, None) is original:
                found.append((mod, attr))
    return found


def _span_wrapper(tracer: Tracer, layer: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        tracer.after(layer, args, result)
        return result

    setattr(wrapper, _MARK, True)
    return wrapper


def _count_wrapper(tracer: Tracer, layer: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.counts[layer] += 1
        return fn(*args, **kwargs)

    setattr(wrapper, _MARK, True)
    return wrapper


def _install(tracer: Tracer, owner_path: str, attr: str, layer: str, make, saved: list) -> None:
    for ns, name in _bindings(owner_path, attr):
        original = ns.__dict__[name] if isinstance(ns, type) else getattr(ns, name)
        if isinstance(original, property):
            replacement = property(make(tracer, layer, original.fget))
        else:
            replacement = make(tracer, layer, original)
        saved.append((ns, name, original))
        setattr(ns, name, replacement)


@contextmanager
def tracing(tracer: Tracer):
    """Install every wrapper for the duration of the block, then restore the
    original callables (also when the block raises)."""
    saved: list = []
    try:
        for owner, attr, layer in SPAN_TARGETS:
            _install(tracer, owner, attr, layer, _span_wrapper, saved)
        for owner, attr, layer in COUNT_TARGETS:
            _install(tracer, owner, attr, layer, _count_wrapper, saved)
        with tracer.interval():
            yield tracer
    finally:
        for ns, name, original in reversed(saved):
            setattr(ns, name, original)


def leftover_wrappers() -> list[str]:
    """Names through which a benchmark wrapper is still reachable."""
    left = []
    for owner, attr, _ in SPAN_TARGETS + COUNT_TARGETS:
        for ns, name in _bindings(owner, attr):
            obj = ns.__dict__[name] if isinstance(ns, type) else getattr(ns, name)
            fn = obj.fget if isinstance(obj, property) else obj
            if getattr(fn, _MARK, False):
                left.append(f"{getattr(ns, '__name__', ns)}.{name}")
    return left
