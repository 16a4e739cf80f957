"""Spans around toporna's layers, installed from outside the package.

``install`` replaces the public functions of every layer module, the
arithmetic methods of the series classes and the sampler's build and draw
methods with thin wrappers, and rebinds every ``from ... import`` copy of a
replaced function in the other toporna modules.  Nothing under ``src/`` is
edited; ``uninstall`` puts the originals back.

A wrapper records a span only while a request is open (``begin_request``),
so warm-up and output checks are not traced.  Generator functions get one
span per resumption, which times their whole iteration but not the
consumer's loop body.  Functions that run once per arc pair or once per
coefficient are left alone: a span there costs more than the work it
measures.

Spans stay in memory as ``[parent, name, start, end]`` lists;
``layer_metrics`` turns them into per-layer counts and times once the pass
has ended.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from fractions import Fraction
from itertools import accumulate, compress
from time import perf_counter

LAYERS = ("series", "genfun", "recursions", "oracle", "diagram", "sampler", "asymptotics", "cli")

#: Called once per arc pair or per recursion step; never wrapped.
UNTRACED = frozenset({"diagram.arcs_cross", "recursions.chord_count"})

_SERIES_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__",
               "__truediv__", "sqrt")
METHODS = {
    "series": {
        "TruncatedSeries": _SERIES_OPS + ("compose",),
        "BivariateSeries": _SERIES_OPS,
        "YJet": _SERIES_OPS,
    },
    "sampler": {"StructureSampler": ("__init__", "sample_many", "sample")},
}

#: Span name -> metric group; a group's time counts its outermost spans only.
GROUPS = {
    "series.TruncatedSeries.__mul__": "series.mul",
    "series.TruncatedSeries.__rmul__": "series.mul",
    "series.TruncatedSeries.__truediv__": "series.div",
    "series.TruncatedSeries.sqrt": "series.sqrt",
    "oracle.full_census": "oracle.census",
    "oracle.enumerate_diagrams": "oracle.enumerate",
    "oracle.enumerate_shapes": "oracle.shapes",
    "diagram.emit_structure": "diagram.emit",
    "diagram.crossing_components": "diagram.classify",
    "diagram.classify_component": "diagram.classify",
    "diagram.loop_counts": "diagram.loops",
    "diagram.genus_of_partner": "diagram.genus",
    "diagram.boundary_components": "diagram.genus",
    "diagram.block_decomposition": "diagram.decompose",
    "sampler.StructureSampler.__init__": "sampler.build",
    "sampler.StructureSampler.sample_many": "sampler.draw",
    "sampler.StructureSampler.sample": "sampler.draw",
    "sampler.empirical_stats": "sampler.stats",
    "cli.main": "cli.main",
}
for _cls, _group in (("BivariateSeries", "series.bivariate"), ("YJet", "series.yjet")):
    for _op in _SERIES_OPS:
        GROUPS[f"series.{_cls}.{_op}"] = _group

REQUEST = "request"
HOOK = "trace.hook"

#: Per-layer metrics in report order, with units.
METRICS = {
    "series.mul.calls": "count",
    "series.mul.s": "s",
    "series.mul.coeff_products": "count",
    "series.div.calls": "count",
    "series.div.s": "s",
    "series.sqrt.calls": "count",
    "series.sqrt.s": "s",
    "series.bivariate.s": "s",
    "series.yjet.s": "s",
    "series.max_coeff_bits": "bit",
    "series.self_s": "s",
    "genfun.calls": "count",
    "genfun.s": "s",
    "genfun.self_s": "s",
    "recursions.calls": "count",
    "recursions.s": "s",
    "recursions.self_s": "s",
    "asymptotics.calls": "count",
    "asymptotics.s": "s",
    "asymptotics.self_s": "s",
    "oracle.census.calls": "count",
    "oracle.census.s": "s",
    "oracle.census.structures": "count",
    "oracle.census.structures_per_s": "1/s",
    "oracle.enumerate.s": "s",
    "oracle.enumerate.diagrams": "count",
    "oracle.shapes.s": "s",
    "oracle.shapes.yielded": "count",
    "oracle.self_s": "s",
    "diagram.calls": "count",
    "diagram.s": "s",
    "diagram.emit.s": "s",
    "diagram.classify.s": "s",
    "diagram.loops.s": "s",
    "diagram.genus.s": "s",
    "diagram.decompose.s": "s",
    "diagram.self_s": "s",
    "sampler.build.calls": "count",
    "sampler.build.s": "s",
    "sampler.draws": "count",
    "sampler.draw.s": "s",
    "sampler.draws_per_s": "1/s",
    "sampler.stats.s": "s",
    "sampler.self_s": "s",
    "cli.requests": "count",
    "cli.self_s": "s",
    "cli.cpu_s": "s",
    "cli.output_bytes": "byte",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.harness_s": "s",
    "trace.accounted_fraction": "fraction",
}


def _max_bits(coeffs: list) -> int:
    try:
        return max(map(int.bit_length, coeffs))
    except TypeError:  # some coefficients are Fractions
        return max(
            max(abs(c.numerator).bit_length(), c.denominator.bit_length())
            if isinstance(c, Fraction) else abs(c).bit_length()
            for c in coeffs
        )


def _coeff_products(left, right) -> int:
    """Nonzero products a_i * b_j with i + j below the order of ``left * right``."""
    coeffs = getattr(right, "coeffs", None)
    if coeffs is None:  # a scalar factor
        return sum(map(bool, left.coeffs)) if right != 0 else 0
    # nonzero_below[m] counts the nonzero b_j with j < m
    nonzero_below = list(accumulate(map(bool, coeffs), initial=0))
    # a_i pairs with nonzero_below[order - i] coefficients of b
    return sum(compress(reversed(nonzero_below[1:]), left.coeffs))


# The hooks below run after TruncatedSeries methods only: ``args[0]`` is the
# series itself and ``result`` a TruncatedSeries.


def _bits_hook(tracer: Tracer, args: tuple, result) -> None:
    tracer.max_bits = max(tracer.max_bits, _max_bits(result.coeffs))


def _mul_hook(tracer: Tracer, args: tuple, result) -> None:
    tracer.counts["series.mul.coeff_products"] += _coeff_products(args[0], args[1])
    _bits_hook(tracer, args, result)


def _census_hook(tracer: Tracer, args: tuple, result) -> None:
    tracer.counts["oracle.census.structures"] += sum(row["count"] for row in result.values())


HOOKS = {
    "series.TruncatedSeries.__mul__": _mul_hook,
    "series.TruncatedSeries.__rmul__": _mul_hook,
    "series.TruncatedSeries.__truediv__": _bits_hook,
    "series.TruncatedSeries.sqrt": _bits_hook,
    "oracle.full_census": _census_hook,
}

#: Generator functions and the counter their yields feed.
YIELD_COUNTERS = {
    "oracle.enumerate_diagrams": "oracle.enumerate.diagrams",
    "oracle.enumerate_shapes": "oracle.shapes.yielded",
}
COUNTERS = ("series.mul.coeff_products", "oracle.census.structures", *YIELD_COUNTERS.values())


class Tracer:
    """In-memory span recorder."""

    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.spans: list[list] = []
        self._stack: list[int] = [-1]
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.max_bits = 0
        self.active = False
        self._hook = self.name_index(HOOK)
        self._request = self.name_index(REQUEST)

    def name_index(self, name: str) -> int:
        idx = self._index.get(name)
        if idx is None:
            idx = self._index[name] = len(self.names)
            self.names.append(name)
        return idx

    def enter(self, idx: int) -> int:
        sid = len(self.spans)
        self.spans.append([self._stack[-1], idx, perf_counter(), 0.0])
        self._stack.append(sid)
        return sid

    def exit(self, sid: int) -> None:
        self.spans[sid][3] = perf_counter()
        self._stack.pop()

    def begin_request(self) -> int:
        self.active = True
        return self.enter(self._request)

    def end_request(self, sid: int) -> None:
        self.exit(sid)
        self.active = False

    def run_hook(self, hook, args, result) -> None:
        sid = self.enter(self._hook)
        try:
            hook(self, args, result)
        finally:
            self.exit(sid)

    def iterate(self, gen, idx: int, counter: str):
        """Re-yield ``gen``, with one span around every resumption."""
        try:
            while True:
                sid = self.enter(idx)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self.exit(sid)
                self.counts[counter] += 1
                yield item
        finally:
            gen.close()


def _wrap(tracer: Tracer, fn, name: str):
    idx = tracer.name_index(name)
    counter = YIELD_COUNTERS.get(name)
    if counter is not None:
        @functools.wraps(fn)
        def traced_gen(*args, **kwargs):
            gen = fn(*args, **kwargs)
            return tracer.iterate(gen, idx, counter) if tracer.active else gen

        return traced_gen
    hook = HOOKS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        sid = tracer.enter(idx)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(sid)
        if hook is not None:
            tracer.run_hook(hook, args, result)
        return result

    return traced


def install(tracer: Tracer):
    """Wrap every traced entry point of toporna; returns the undo function."""
    undo: list[tuple[object, str, object]] = []
    replaced: dict[int, object] = {}
    for layer in LAYERS:
        module = importlib.import_module(f"toporna.{layer}")
        for attr, obj in list(vars(module).items()):
            name = f"{layer}.{attr}"
            if (
                inspect.isfunction(obj)
                and obj.__module__ == module.__name__
                and not attr.startswith("_")
                and name not in UNTRACED
            ):
                replaced[id(obj)] = _wrap(tracer, obj, name)
        for cls_name, methods in METHODS.get(layer, {}).items():
            cls = getattr(module, cls_name)
            for method in methods:
                original = cls.__dict__.get(method)
                if original is None:
                    continue
                undo.append((cls, method, original))
                setattr(cls, method, _wrap(tracer, original, f"{layer}.{cls_name}.{method}"))
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "toporna" and not mod_name.startswith("toporna."):
            continue
        for attr, obj in list(vars(module).items()):
            wrapper = replaced.get(id(obj))
            if wrapper is not None and inspect.isfunction(obj):
                undo.append((module, attr, obj))
                setattr(module, attr, wrapper)

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


# -- aggregation ------------------------------------------------------------


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans are ``[parent, name, start, end]`` with parents listed before
    their children; a parent of -1 marks a root.
    """
    child = [0.0] * len(spans)
    for parent, _, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, _, start, end) in enumerate(spans)]


def _outermost(spans: list[list], key_of: list) -> list[bool]:
    """Whether no ancestor of a span shares its key (layer or group)."""
    keys = {k for k in key_of if k is not None}
    bit = {k: 1 << i for i, k in enumerate(sorted(keys))}
    masks = [0] * len(spans)
    outer = [False] * len(spans)
    for i, (parent, idx, _, _) in enumerate(spans):
        above = masks[parent] if parent >= 0 else 0
        key = key_of[idx]
        if key is None:
            masks[i] = above
            continue
        outer[i] = not above & bit[key]
        masks[i] = above | bit[key]
    return outer


def layer_of(name: str) -> str | None:
    head = name.split(".", 1)[0]
    return head if head in LAYERS else None


def layer_metrics(tracer: Tracer, cpu_s: float, output_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass; ``trace.overhead_s`` is left to the caller."""
    spans = tracer.spans
    names = tracer.names
    layers = [layer_of(n) for n in names]
    groups = [GROUPS.get(n) for n in names]
    selfs = self_times(spans)
    outer_layer = _outermost(spans, layers)
    outer_group = _outermost(spans, groups)

    out: dict[str, float] = {name: 0 for name in METRICS}
    out.update(tracer.counts)
    calls: dict[str, int] = {}
    for i, (_, idx, start, end) in enumerate(spans):
        dur = end - start
        layer, group = layers[idx], groups[idx]
        if names[idx] == REQUEST:
            out["trace.wall_s"] += dur
            out["trace.harness_s"] += selfs[i]
            continue
        if layer is None:  # hook spans: tracer bookkeeping
            out["trace.harness_s"] += selfs[i]
            continue
        calls[layer] = calls.get(layer, 0) + 1
        out[f"{layer}.self_s"] = out.get(f"{layer}.self_s", 0) + selfs[i]
        if outer_layer[i]:
            out[f"{layer}.s"] = out.get(f"{layer}.s", 0) + dur
        if group is not None:
            calls[group] = calls.get(group, 0) + 1
            if outer_group[i]:
                out[f"{group}.s"] = out.get(f"{group}.s", 0) + dur
    for key in ("genfun", "recursions", "asymptotics", "diagram", "series.mul", "series.div",
                "series.sqrt", "oracle.census", "sampler.build"):
        out[f"{key}.calls"] = calls.get(key, 0)
    out["cli.requests"] = calls.get("cli.main", 0)
    out["sampler.draws"] = sum(
        1 for _, idx, _, _ in spans if names[idx] == "sampler.StructureSampler.sample"
    )
    out["series.max_coeff_bits"] = tracer.max_bits
    out["oracle.census.structures_per_s"] = _rate(out["oracle.census.structures"], out["oracle.census.s"])
    out["sampler.draws_per_s"] = _rate(out["sampler.draws"], out["sampler.draw.s"])
    out["cli.cpu_s"] = cpu_s
    out["cli.output_bytes"] = output_bytes
    layer_self = sum(out[f"{layer}.self_s"] for layer in LAYERS)
    out["trace.accounted_fraction"] = layer_self / out["trace.wall_s"] if out["trace.wall_s"] else 0.0
    return {name: out[name] for name in METRICS}


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0
