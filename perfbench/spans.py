"""Span tracing of crosslat's layers, installed from outside the package.

``install()`` replaces every binding of every public function of the
traced modules with a wrapper that opens a span.  That covers module
attributes (including names imported into another module), the entries of
module-level dicts such as ``theorem_suite.SCAN_FUNCTIONS``, methods,
class and static methods, and ``functools.cached_property`` getters.
``diagram`` is not traced: its helpers run millions of times per
workload, so their cost stays in the self time of their callers.

Spans are aggregated as they close, keyed by (parent span, span), so
the call tree survives without holding one record per call in memory.
A span's self time is its duration minus the durations of its children.
"""
from __future__ import annotations

import functools
import inspect
import time
import types
from dataclasses import dataclass

TRACED_MODULES = ("crosslattice", "poset_engine", "flags", "theorem_suite", "cli")

# Private functions the layer metrics name; every other private helper is
# charged to its caller.
TRACED_PRIVATE = {
    ("poset_engine", "_tables"): "tables",
    ("cli", "_analyze_report"): "analyze_report",
}

# Public functions called once per element or coefficient whose cost is
# charged to their caller, like the helpers of ``diagram``: the layer
# metrics name the caller (modular_element_mask runs one left and one
# right test per element), and a span per call would cost more than the
# work it times.
UNTRACED = frozenset({
    ("poset_engine", "is_left_modular"), ("poset_engine", "is_right_modular"),
    ("crosslattice", "index"), ("flags", "coeff"),
})

# Closed-form criteria, summed into one span name.
CRITERIA = frozenset({
    "relcomp_criterion", "mobius_formula", "join_irreducible_criterion",
    "distributivity_criterion", "supersolvability_criterion",
    "construct_m_chain", "charpoly_formula", "stanley_factorization",
    "combinatorially_smooth_typeA", "conjecture_expected_sizes",
})


@dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0


class Tracer:
    """Aggregated span tree plus the few counters read from call results."""

    def __init__(self):
        self.edges: dict[tuple[str, str], SpanStats] = {}
        self.stack: list[list] = []  # [span name, time covered by children]
        self.elements = 0            # lattice elements enumerated
        self.scan_configs = 0        # configurations enumerated inside a scan
        self.mobius_hits = 0         # mobius_from calls answered from its cache
        self.iso_true = 0            # posets_isomorphic calls that returned True

    def wrap(self, name: str, fn, on_call=None):
        stack = self.stack
        edges = self.edges
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else ""
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stats = edges.get((parent, name))
                if stats is None:
                    stats = edges[(parent, name)] = SpanStats()
                stats.calls += 1
                stats.self_s += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
            if on_call is not None:
                on_call(args, result)
            return result

        wrapper.__traced__ = fn
        return wrapper

    def in_span(self, name: str) -> bool:
        return any(frame[0] == name for frame in self.stack)

    def by_name(self) -> dict[str, SpanStats]:
        out: dict[str, SpanStats] = {}
        for (_, name), s in self.edges.items():
            acc = out.setdefault(name, SpanStats())
            acc.calls += s.calls
            acc.self_s += s.self_s
        return out

    # -- result hooks ----------------------------------------------------

    def _on_enumerate(self, args, result) -> None:
        self.elements += len(result)
        if self.in_span("theorem_suite.scan"):
            self.scan_configs += 1

    def _on_isomorphic(self, args, result) -> None:
        self.iso_true += bool(result)


def _span_name(module: str, attr: str) -> str | None:
    if (module, attr) in TRACED_PRIVATE:
        return f"{module}.{TRACED_PRIVATE[(module, attr)]}"
    if attr.startswith("_") or (module, attr) in UNTRACED:
        return None
    if module == "theorem_suite" and attr in CRITERIA:
        return "theorem_suite.criteria"
    if module == "cli" and attr.startswith("cmd_"):
        return "cli.output"
    return f"{module}.{attr}"


def install(package) -> Tracer:
    """Wrap the traced modules of ``package`` (the imported ``crosslat``).

    Raises ``RuntimeError`` when a binding of a traced function is left
    unwrapped or two different functions would share a span name.
    """
    import importlib

    tracer = Tracer()
    modules = {m: importlib.import_module(f"{package.__name__}.{m}")
               for m in TRACED_MODULES}
    scan_fns = {id(f) for f in modules["theorem_suite"].SCAN_FUNCTIONS.values()}
    wrapped: dict[int, object] = {}   # id(original function) -> wrapper
    owner: dict[str, set[str]] = {}   # span name -> qualified function names

    def wrapper_for(module: str, attr: str, qualname: str, fn):
        if id(fn) in wrapped:
            return wrapped[id(fn)]
        if id(fn) in scan_fns:
            name = "theorem_suite.scan"
        else:
            name = _span_name(module, attr)
            if name is None:
                return None
        if inspect.isgeneratorfunction(fn):
            raise RuntimeError(f"{qualname} is a generator; a span would close early")
        owner.setdefault(name, set()).add(qualname)
        grouped = name in ("theorem_suite.scan", "theorem_suite.criteria", "cli.output")
        if len(owner[name]) > 1 and not grouped:
            raise RuntimeError(f"span name {name} is shared by {sorted(owner[name])}")
        hook = None
        if qualname == "crosslattice.enumerate_lattice":
            hook = tracer._on_enumerate
        elif qualname == "poset_engine.posets_isomorphic":
            hook = tracer._on_isomorphic
        w = tracer.wrap(name, fn, hook)
        wrapped[id(fn)] = w
        return w

    # functions and classes defined in each traced module
    for mod_name, mod in modules.items():
        for attr, value in list(vars(mod).items()):
            if isinstance(value, types.FunctionType) and value.__module__ == mod.__name__:
                w = wrapper_for(mod_name, attr, f"{mod_name}.{attr}", value)
                if w is not None:
                    setattr(mod, attr, w)
            elif (isinstance(value, type) and value.__module__ == mod.__name__
                  and not attr.startswith("_")):
                _wrap_class(mod_name, value, wrapper_for)

    _wrap_mobius_from(modules["poset_engine"].FinitePoset, tracer)

    # every other binding of a wrapped function: names imported into other
    # modules and values of module-level dicts
    originals = {v.__traced__: v for v in wrapped.values()}
    for mod in list(modules.values()) + [package]:
        for attr, value in list(vars(mod).items()):
            if isinstance(value, types.FunctionType) and value in originals:
                setattr(mod, attr, originals[value])
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if isinstance(item, types.FunctionType) and item in originals:
                        value[key] = originals[item]
    _check_no_unwrapped(modules, package, originals)
    return tracer


def _wrap_class(mod_name: str, cls: type, wrapper_for) -> None:
    for attr, value in list(vars(cls).items()):
        if attr.startswith("__"):
            continue
        qual = f"{mod_name}.{cls.__name__}.{attr}"
        if isinstance(value, functools.cached_property):
            w = wrapper_for(mod_name, attr, qual, value.func)
            if w is not None:
                prop = functools.cached_property(w)
                prop.__set_name__(cls, attr)
                setattr(cls, attr, prop)
        elif isinstance(value, (classmethod, staticmethod)):
            w = wrapper_for(mod_name, attr, qual, value.__func__)
            if w is not None:
                setattr(cls, attr, type(value)(w))
        elif isinstance(value, types.FunctionType):
            w = wrapper_for(mod_name, attr, qual, value)
            if w is not None:
                setattr(cls, attr, w)


def _wrap_mobius_from(cls: type, tracer: Tracer) -> None:
    """Count cache hits of ``FinitePoset.mobius_from`` outside its span."""
    traced = cls.mobius_from

    @functools.wraps(traced)
    def counting(self, x):
        if x in self._mobius_cache:
            tracer.mobius_hits += 1
        return traced(self, x)

    counting.__traced__ = traced.__traced__
    cls.mobius_from = counting


def _check_no_unwrapped(modules, package, originals) -> None:
    places = list(modules.items()) + [(package.__name__, package)]
    for mod_name, mod in places:
        for attr, value in vars(mod).items():
            if isinstance(value, types.FunctionType) and value in originals:
                raise RuntimeError(f"{mod_name}.{attr} is still unwrapped")
            if isinstance(value, dict):
                for key, item in value.items():
                    if isinstance(item, types.FunctionType) and item in originals:
                        raise RuntimeError(f"{mod_name}.{attr}[{key!r}] is still unwrapped")
            if isinstance(value, type):
                for cattr, cval in vars(value).items():
                    fn = getattr(cval, "__func__", None) or getattr(cval, "func", None) or cval
                    if isinstance(fn, types.FunctionType) and fn in originals:
                        raise RuntimeError(f"{mod_name}.{attr}.{cattr} is still unwrapped")
