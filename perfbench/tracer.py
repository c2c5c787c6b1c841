"""Spans around calls into wreathcount's layers, recorded from outside the package.

Child side (op.py, traced mode): `install()` wraps each function in TARGETS on
every module attribute that binds it, so a name imported with
`from .permgroup import class_count` is caught in each importing module, and
a module global such as `permgroup._closure` is caught for every caller that
looks it up. Each call appends one span [name, parent index, start, end,
counters] to an in-memory list, written out once when the op ends.

Parent side (harness.py): `op_totals()` reduces one op's spans to sums, and
`layer_metrics()` turns the sums of a workload into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter


def _bound(fn, args, kwargs, name):
    return inspect.signature(fn).bind(*args, **kwargs).arguments[name]


@functools.cache
def _budget(field: str) -> int:
    from wreathcount.budgets import Budgets

    return getattr(Budgets(), field)


# counters are computed after a span ends, from the call's result and arguments
def _closure_counts(fn, args, kwargs, result):
    return {"elements": len(result),
            "order_frac": len(result) / _budget("max_group_order")}


def _from_elements_counts(fn, args, kwargs, result):
    return {"order": result.order}


def _stabilizer_counts(fn, args, kwargs, result):
    return {"kept": result.order, "scanned": _bound(fn, args, kwargs, "group").order}


def _classes_counts(fn, args, kwargs, result):
    return {"elements": sum(len(c) for c in result)}


def _subgroups_counts(fn, args, kwargs, result):
    return {"distinct": len(result)}


def _orbit_counts(fn, args, kwargs, result):
    group = _bound(fn, args, kwargs, "group")
    colorings = _bound(fn, args, kwargs, "k") ** group.degree
    order = group.order
    return {"colorings": colorings, "orbits": len(result),
            "regular": sum(1 for _, size in result if size == order),
            "space_frac": colorings / _budget("max_coloring_space")}


def _wreath_counts(fn, args, kwargs, result):
    return {"elements": result.order,
            "order_frac": result.order / _budget("max_group_order")}


# (module, attribute, span name, counters); PermGroup.from_elements is a classmethod
TARGETS = [
    ("permgroup", "_closure", "permgroup.closure", _closure_counts),
    ("permgroup", "PermGroup.from_elements", "permgroup.from_elements", _from_elements_counts),
    ("permgroup", "coloring_stabilizer", "permgroup.coloring_stabilizer", _stabilizer_counts),
    ("permgroup", "conjugacy_classes", "permgroup.conjugacy_classes", _classes_counts),
    ("permgroup", "subgroups", "permgroup.subgroups", _subgroups_counts),
    ("permgroup", "normal_subgroups", "permgroup.normal_subgroups", None),
    ("permgroup", "numeric_invariants", "permgroup.numeric_invariants", None),
    ("classcount", "coloring_orbit_reps", "classcount.coloring_orbit_reps", _orbit_counts),
    ("classcount", "clifford_count", "classcount.clifford_count", None),
    ("classcount", "brute_force_count", "classcount.brute_force_count", None),
    ("actions", "build_wreath_group", "actions.build_wreath_group", _wreath_counts),
    ("actions", "family", "actions.family", None),
    ("actions", "subsets_action_lift", "actions.subsets_action_lift", None),
    ("combinatorics", "tuples_of_partitions_count",
     "combinatorics.tuples_of_partitions_count", None),
    ("combinatorics", "fix_subsets_formula", "combinatorics.fix_subsets_formula", None),
    ("bounds", "count_upper_bound", "bounds.count_upper_bound", None),
    ("bounds", "predicates", "bounds.predicates", None),
    ("bounds", "semiprimitive_report", "bounds.semiprimitive_report", None),
]

ROOT = "cli.main"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, parent index, start, end, counters]
        self._stack = [-1]

    def call(self, name, fn, args, kwargs, counts=None):
        span = [name, self._stack[-1], perf_counter(), 0.0, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._stack.pop()
            span[3] = perf_counter()
        if counts is not None:
            span[4] = counts(fn, args, kwargs, result)
        return result

    def wrap(self, name, fn, counts):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, counts)

        traced.__wrapped__ = fn
        return traced


def install(tracer: Tracer) -> list[str]:
    """Wrap every TARGETS function of the imported wreathcount modules.

    Returns the span names whose function no longer exists, so a renamed or
    removed layer reads as uncovered time instead of breaking the run.
    """
    missing = []
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "wreathcount" or name.startswith("wreathcount."))]
    for mod_name, attr, span, counts in TARGETS:
        mod = importlib.import_module("wreathcount." + mod_name)
        if attr == "PermGroup.from_elements":
            cls = getattr(mod, "PermGroup", None)
            method = getattr(cls, "__dict__", {}).get("from_elements")
            if not isinstance(method, classmethod):
                missing.append(span)
                continue
            cls.from_elements = classmethod(tracer.wrap(span, method.__func__, counts))
            continue
        orig = getattr(mod, attr, None)
        if orig is None:
            missing.append(span)
            continue
        traced = tracer.wrap(span, orig, counts)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, key, traced)
    return missing


# ---------------------------------------------------------------------------
# parent side


def op_totals(spans: list[list]) -> dict[str, float]:
    """Sums over one op's spans: self time, calls and counters per span name.

    Keys are "self:<name>", "incl:<name>", "calls:<name>" and "<name>:<counter>",
    plus the two attributions the ratios need: closures run directly under
    from_elements and under subgroups. Peak fractions are maxima, not sums.
    """
    child_time = [0.0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict[str, float] = {}

    def add(key, value):
        totals[key] = totals.get(key, 0) + value

    for i, (name, parent, start, end, counts) in enumerate(spans):
        dur = end - start
        add("self:" + name, dur - child_time[i])
        add("calls:" + name, 1)
        parent_name = spans[parent][0] if parent >= 0 else None
        if parent_name != name:
            add("incl:" + name, dur)
        if name == "permgroup.closure" and parent_name in (
                "permgroup.from_elements", "permgroup.subgroups"):
            add(f"closure_under:{parent_name}:calls", 1)
            add(f"closure_under:{parent_name}:elements", counts["elements"] if counts else 0)
        for key, value in (counts or {}).items():
            if key.endswith("_frac"):
                totals[f"{name}:{key}"] = max(totals.get(f"{name}:{key}", 0.0), value)
            else:
                add(f"{name}:{key}", value)
    return totals


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(t: dict[str, float], import_s: float, overhead_frac: float) -> dict:
    """Per-layer metrics from op_totals summed over a workload's ops.

    The two figures spans cannot give, import time and the tracing overhead
    (traced over untraced time in cli.main, minus one), come from the caller.
    """
    def g(key):
        return t.get(key, 0)

    m = {}
    for _, _, span, _ in TARGETS:
        m[span + ".self_s"] = g("self:" + span)
    m["permgroup.closure.calls"] = g("calls:permgroup.closure")
    m["permgroup.closure.elements"] = g("permgroup.closure:elements")
    m["permgroup.from_elements.useful_ratio"] = _ratio(
        g("permgroup.from_elements:order"),
        g("closure_under:permgroup.from_elements:elements"))
    m["permgroup.coloring_stabilizer.calls"] = g("calls:permgroup.coloring_stabilizer")
    m["permgroup.coloring_stabilizer.keep_ratio"] = _ratio(
        g("permgroup.coloring_stabilizer:kept"), g("permgroup.coloring_stabilizer:scanned"))
    m["permgroup.conjugacy_classes.elements"] = g("permgroup.conjugacy_classes:elements")
    m["permgroup.subgroups.hit_ratio"] = _ratio(
        g("permgroup.subgroups:distinct"), g("closure_under:permgroup.subgroups:calls"))
    m["classcount.coloring_orbit_reps.colorings"] = g("classcount.coloring_orbit_reps:colorings")
    m["classcount.coloring_orbit_reps.orbits"] = g("classcount.coloring_orbit_reps:orbits")
    m["classcount.coloring_orbit_reps.regular_ratio"] = _ratio(
        g("classcount.coloring_orbit_reps:regular"), g("classcount.coloring_orbit_reps:orbits"))
    m["classcount.brute_force_count.wreath_elements"] = g("actions.build_wreath_group:elements")
    m["combinatorics.fix_subsets_formula.calls"] = g("calls:combinatorics.fix_subsets_formula")
    m["cli.main.self_s"] = g("self:" + ROOT)
    m["cli.import_s"] = import_s
    m["budgets.coloring_space.peak_frac"] = g("classcount.coloring_orbit_reps:space_frac")
    m["budgets.group_order.peak_frac"] = max(g("permgroup.closure:order_frac"),
                                            g("actions.build_wreath_group:order_frac"))
    m["trace.overhead_frac"] = overhead_frac
    m["trace.uncovered_frac"] = _ratio(g("self:" + ROOT), g("incl:" + ROOT))
    return m


# name -> unit of every per-layer metric, in report order
LAYER_UNITS = {
    **{span + ".self_s": "s" for _, _, span, _ in TARGETS},
    "permgroup.closure.calls": "count",
    "permgroup.closure.elements": "count",
    "permgroup.from_elements.useful_ratio": "ratio",
    "permgroup.coloring_stabilizer.calls": "count",
    "permgroup.coloring_stabilizer.keep_ratio": "ratio",
    "permgroup.conjugacy_classes.elements": "count",
    "permgroup.subgroups.hit_ratio": "ratio",
    "classcount.coloring_orbit_reps.colorings": "count",
    "classcount.coloring_orbit_reps.orbits": "count",
    "classcount.coloring_orbit_reps.regular_ratio": "ratio",
    "classcount.brute_force_count.wreath_elements": "count",
    "combinatorics.fix_subsets_formula.calls": "count",
    "cli.main.self_s": "s",
    "cli.import_s": "s",
    "budgets.coloring_space.peak_frac": "ratio",
    "budgets.group_order.peak_frac": "ratio",
    "trace.overhead_frac": "ratio",
    "trace.uncovered_frac": "ratio",
}
