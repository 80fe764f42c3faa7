"""Layer tracing of f1q from outside the package.

``Tracer.install`` rebinds, at run time, every public function of each f1q
module (and the hot value-class methods in ``HOT_METHODS``) to a timing
wrapper, in every f1q module namespace that holds it; ``uninstall`` puts the
originals back. No f1q source is edited. The layers are the modules.

Spans are merged per call path: all calls of one function under the same
parent span add up in one ``Span`` (calls, total time, time in child spans,
first start, last end). The tree therefore grows with the number of distinct
call paths, not with the number of calls, so the per-element hot paths
(constructors, scalar multiply, ``tensor``, ``ray_of``, ``apply``) are counted
and timed in aggregate per parent span and memory stays bounded. Each job is
one root span; the spans under it carry its job id.

Work done in the child processes of ``workers=2`` searches is not seen: it
counts as self time of the calling span, not split by layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from math import factorial
from typing import Any, Callable

LAYERS = ("field", "frames", "operators", "clone_delete", "mqt", "budget", "cli", "selftest")

SELFTEST_CRITERIA = (
    "involution-lemma",
    "automorphism-group",
    "unitary-groups",
    "no-cloning",
    "deletion",
    "dictionary",
    "continuum-analogues",
)

# Per-element value-class methods wrapped besides the public functions.
HOT_METHODS = {
    "field": (("F1Element", "__post_init__"), ("F1Element", "__mul__")),
    "frames": (("StateVector", "__post_init__"),),
    "operators": (
        ("MonomialMatrix", "__post_init__"),
        ("SubunitalMatrix", "__post_init__"),
        ("MonomialMatrix", "apply"),
        ("SubunitalMatrix", "apply"),
    ),
}


class Span:
    __slots__ = ("id", "name", "layer", "parent", "job", "children",
                 "calls", "total_ns", "child_ns", "start_ns", "end_ns")

    def __init__(self, id: int, name: str, layer: str, parent: Span | None, job: str):
        self.id, self.name, self.layer, self.parent, self.job = id, name, layer, parent, job
        self.children: dict[str, Span] = {}
        self.calls = self.total_ns = self.child_ns = self.start_ns = self.end_ns = 0

    @property
    def self_ns(self) -> int:
        return self.total_ns - self.child_ns


def _public_functions(module: Any) -> list[str]:
    names = getattr(module, "__all__", None) or [
        n for n in vars(module) if not n.startswith("_")
    ]
    return [
        n for n in names
        if inspect.isfunction(getattr(module, n, None))
        and getattr(module, n).__module__ == module.__name__
    ]


class Tracer:
    """Span tree, per-call-path aggregates and a few derived counters."""

    def __init__(self) -> None:
        self._clock = time.perf_counter_ns
        self._epoch = self._clock()
        self._ids = 0
        self.root = self._new_span("run", "harness", None, "")
        self._stack = [self.root]
        self._patches: list[tuple[Any, str, Any]] = []
        self.counters: dict[str, float] = {}

    def _new_span(self, name: str, layer: str, parent: Span | None, job: str) -> Span:
        self._ids += 1
        return Span(self._ids, name, layer, parent, job)

    # -- spans ------------------------------------------------------------

    def _enter(self, name: str, layer: str) -> Span:
        parent = self._stack[-1]
        node = parent.children.get(name)
        if node is None:
            node = parent.children[name] = self._new_span(name, layer, parent, parent.job)
        self._stack.append(node)
        return node

    def _exit(self, node: Span, t0: int, dt: int) -> None:
        self._stack.pop()
        if not node.calls:
            node.start_ns = t0 - self._epoch
        node.end_ns = t0 + dt - self._epoch
        node.calls += 1
        node.total_ns += dt
        node.parent.child_ns += dt

    def run_job(self, job_id: str, name: str, fn: Callable[[], Any]) -> Any:
        """Run one job as a root span; ``job_id`` is unique within the run."""
        node = self._new_span(name, "harness", self.root, job_id)
        self.root.children[job_id] = node
        self._stack.append(node)
        t0 = self._clock()
        try:
            return fn()
        finally:
            self._exit(node, t0, self._clock() - t0)

    def _wrap(self, fn: Callable, name: str, layer: str,
              label: Callable | None = None, observe: Callable | None = None) -> Callable:
        clock, enter, exit_ = self._clock, self._enter, self._exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            node = enter(name if label is None else label(args, kwargs), layer)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                exit_(node, t0, dt)
            if observe is not None:
                observe(args, kwargs, result, dt)
            return result

        return wrapper

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"f1q.{layer}") for layer in LAYERS}
        namespaces = [importlib.import_module("f1q"), *modules.values()]
        extras = self._extras()
        for layer, module in modules.items():
            for fname in _public_functions(module):
                original = getattr(module, fname)
                name = f"{layer}.{fname}"
                label, observe = extras.get(name, (None, None))
                wrapped = self._wrap(original, name, layer, label, observe)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is original:
                            self._patch(ns, key, wrapped)
            for cls_name, meth in HOT_METHODS.get(layer, ()):
                cls = getattr(module, cls_name)
                name = f"{layer}.{cls_name}.{meth}"
                self._patch(cls, meth, self._wrap(vars(cls)[meth], name, layer))

    def _patch(self, owner: Any, key: str, value: Any) -> None:
        self._patches.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def _extras(self) -> dict[str, tuple[Callable | None, Callable | None]]:
        """Span labels and result observers for the derived per-layer counters."""
        from f1q import budget, clone_delete, operators

        # Captured before install, so the observers call no wrapped function.
        check_budget, default_budget = budget.check_budget, budget.default_budget
        gl_order, unitary_group = operators.gl_order, operators.unitary_group
        search = clone_delete.search_projective_cloner
        counters = self.counters

        def add(key: str, value: float) -> None:
            counters[key] = counters.get(key, 0) + value

        def bound(fn: Callable, args: tuple, kwargs: dict) -> dict:
            return inspect.signature(fn).bind(*args, **kwargs).arguments

        def budget_used(args, kwargs, result, dt):
            a = bound(check_budget, args, kwargs)
            limit = default_budget() if a["budget"] is None else a["budget"]
            counters["budget.used_max"] = max(counters.get("budget.used_max", 0),
                                              a["size"] / limit)

        def gl_items(args, kwargs, result, dt):
            add("operators.enumerate_GL.items", len(result))

        def group_yield(args, kwargs, result, dt):
            a = bound(unitary_group, args, kwargs)
            add("operators.unitary_group.members", len(result))
            add("operators.unitary_group.candidates",
                gl_order(a["m"], a["r"] * (a["r"] + 2)))

        def search_yield(args, kwargs, result, dt):
            a = bound(search, args, kwargs)
            n = a["m"] * a["m"]
            add("clone_delete.search.unitaries", result.unitaries_searched)
            add("clone_delete.search.candidates", a["l"] ** n * factorial(n))
            if a.get("workers", 1) > 1:
                add("clone_delete.search.workers2_s", dt / 1e9)

        return {
            "budget.check_budget": (None, budget_used),
            "operators.enumerate_GL": (None, gl_items),
            "operators.unitary_group": (None, group_yield),
            "clone_delete.search_projective_cloner": (None, search_yield),
            "selftest.run_criterion": (
                lambda args, kwargs: f"selftest.criterion.{args[0]}", None),
        }

    # -- reporting ------------------------------------------------------------

    def spans(self) -> list[Span]:
        out, todo = [], list(self.root.children.values())
        while todo:
            node = todo.pop()
            out.append(node)
            todo.extend(node.children.values())
        return out

    def write(self, path: str, header: dict) -> None:
        """Write the span tree as JSON lines, after one header line."""
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for s in sorted(self.spans(), key=lambda s: s.id):
                fh.write(json.dumps({
                    "id": s.id, "parent": s.parent.id, "job": s.job, "name": s.name,
                    "layer": s.layer, "calls": s.calls, "start_s": s.start_ns / 1e9,
                    "end_s": s.end_ns / 1e9, "total_s": s.total_ns / 1e9,
                    "self_s": s.self_ns / 1e9,
                }) + "\n")


def _inclusive_ns(spans: list[Span], name: str) -> int:
    """Time in spans called ``name``, counting a span nested in one of the
    same name only once."""
    total = 0
    for s in spans:
        if s.name == name:
            p = s.parent
            while p is not None and p.name != name:
                p = p.parent
            if p is None:
                total += s.total_ns
    return total


# (metric, unit, better, spans measured, "calls" or "s").
_SPAN_METRICS = [
    ("field.F1Element.new", "count", "lower", ("field.F1Element.__post_init__",), "calls"),
    ("field.mul.calls", "count", "lower", ("field.F1Element.__mul__",), "calls"),
    ("frames.StateVector.new", "count", "lower", ("frames.StateVector.__post_init__",), "calls"),
    ("frames.tensor.calls", "count", "lower", ("frames.tensor",), "calls"),
    ("frames.tensor.s", "s", "lower", ("frames.tensor",), "s"),
    ("frames.ray_of.calls", "count", "lower", ("frames.ray_of",), "calls"),
    ("frames.ray_of.s", "s", "lower", ("frames.ray_of",), "s"),
    ("frames.enumerate_rays.s", "s", "lower", ("frames.enumerate_rays",), "s"),
    ("operators.MonomialMatrix.new", "count", "lower",
     ("operators.MonomialMatrix.__post_init__",), "calls"),
    ("operators.SubunitalMatrix.new", "count", "lower",
     ("operators.SubunitalMatrix.__post_init__",), "calls"),
    ("operators.enumerate_GL.s", "s", "lower", ("operators.enumerate_GL",), "s"),
    ("operators.is_unitary.calls", "count", "lower", ("operators.is_unitary",), "calls"),
    ("operators.is_unitary.s", "s", "lower", ("operators.is_unitary",), "s"),
    ("operators.is_observable.s", "s", "lower", ("operators.is_observable",), "s"),
    ("operators.unitary_group.s", "s", "lower", ("operators.unitary_group",), "s"),
    ("operators.apply.calls", "count", "lower",
     ("operators.MonomialMatrix.apply", "operators.SubunitalMatrix.apply"), "calls"),
    ("operators.apply.s", "s", "lower",
     ("operators.MonomialMatrix.apply", "operators.SubunitalMatrix.apply"), "s"),
    ("operators.enumerate_subunital.s", "s", "lower", ("operators.enumerate_subunital",), "s"),
    ("clone_delete.search_projective_cloner.s", "s", "lower",
     ("clone_delete.search_projective_cloner",), "s"),
    ("clone_delete.clones_rays.calls", "count", "lower", ("clone_delete.clones_rays",), "calls"),
    ("clone_delete.clones_rays.s", "s", "lower", ("clone_delete.clones_rays",), "s"),
    ("clone_delete.is_almost_unitary.calls", "count", "lower",
     ("clone_delete.is_almost_unitary",), "calls"),
    ("clone_delete.is_almost_unitary.s", "s", "lower", ("clone_delete.is_almost_unitary",), "s"),
    ("clone_delete.almost_unitary_cloning_fails.s", "s", "lower",
     ("clone_delete.almost_unitary_cloning_fails",), "s"),
    ("clone_delete.verify_deletion.s", "s", "lower", ("clone_delete.verify_deletion",), "s"),
    ("mqt.dictionary_table.s", "s", "lower", ("mqt.dictionary_table",), "s"),
    ("mqt.monomial_unitary_entries.s", "s", "lower", ("mqt.monomial_unitary_entries",), "s"),
    ("budget.check_budget.calls", "count", "lower", ("budget.check_budget",), "calls"),
    ("cli.main.calls", "count", "lower", ("cli.main",), "calls"),
] + [
    (f"selftest.criterion_s.{c}", "s", "lower", (f"selftest.criterion.{c}",), "s")
    for c in SELFTEST_CRITERIA
]

# Metrics from the observers' counters: (metric, unit, better, reason when absent).
_COUNTER_METRICS = [
    ("operators.enumerate_GL.items", "count", "lower", "no enumerate_GL call"),
    ("operators.unitary_group.yield", "ratio", "higher", "no unitary_group call"),
    ("clone_delete.search.yield", "ratio", "higher", "no search_projective_cloner call"),
    ("clone_delete.search.workers2_s", "s", "lower", "no search with workers > 1"),
    ("budget.used_max", "ratio", "lower", "no check_budget call"),
]


def metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    specs.append(("harness.self_s", "s", "lower"))
    specs += [(f"{layer}.import_s", "s", "lower") for layer in LAYERS]
    specs += [m[:3] for m in _SPAN_METRICS] + [m[:3] for m in _COUNTER_METRICS]
    specs += [
        ("trace.wall_s", "s", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
        ("trace.accounted_share", "ratio", "higher"),
    ]
    return specs


def per_layer(
    tracer: Tracer, passes: int, traced_wall_s: float, untraced_wall_s: float,
    import_s: dict[str, float],
) -> tuple[dict[str, float], list[str]]:
    """Per-pass layer metrics of the traced passes, and the absent ones with
    the reason each is absent."""
    spans = tracer.spans()
    values: dict[str, float] = {}
    absent: list[str] = []
    layer_self = {layer: 0 for layer in (*LAYERS, "harness")}
    for s in spans:
        layer_self[s.layer] += s.self_ns
    for layer, ns in layer_self.items():
        values[f"{layer}.self_s"] = ns / 1e9 / passes
        if layer != "harness" and not any(s.layer == layer for s in spans):
            absent.append(f"{layer}.self_s: no {layer} call in this workload")
    for layer in LAYERS:
        values[f"{layer}.import_s"] = import_s.get(f"f1q.{layer}", 0.0)
    for metric, _, _, names, what in _SPAN_METRICS:
        n_calls = sum(s.calls for s in spans if s.name in names)
        if what == "calls":
            values[metric] = n_calls / passes
        else:
            values[metric] = sum(_inclusive_ns(spans, n) for n in names) / 1e9 / passes
        if not n_calls:
            absent.append(f"{metric}: no {' or '.join(names)} call in this workload")
    c = tracer.counters

    def ratio(num: str, den: str) -> float:
        return c[num] / c[den] if c.get(den) else 0.0

    values["operators.enumerate_GL.items"] = c.get("operators.enumerate_GL.items", 0) / passes
    values["operators.unitary_group.yield"] = ratio(
        "operators.unitary_group.members", "operators.unitary_group.candidates")
    values["clone_delete.search.yield"] = ratio(
        "clone_delete.search.unitaries", "clone_delete.search.candidates")
    values["clone_delete.search.workers2_s"] = c.get("clone_delete.search.workers2_s", 0) / passes
    values["budget.used_max"] = c.get("budget.used_max", 0.0)
    for metric, _, _, reason in _COUNTER_METRICS:
        if not values[metric]:
            absent.append(f"{metric}: {reason} in this workload")
    values["trace.wall_s"] = traced_wall_s
    values["trace.overhead_ratio"] = traced_wall_s / untraced_wall_s
    accounted = sum(layer_self.values()) / 1e9 / passes
    values["trace.accounted_share"] = accounted / traced_wall_s
    return values, absent
