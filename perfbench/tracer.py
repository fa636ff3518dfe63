"""Spans and counters around the calls into nrfctl's layers.

The tracer patches bindings from the outside: every public module-level
function of a layer module is replaced, in every nrfctl module namespace that
binds it, by a wrapper that records a span; a few methods are patched on
their classes.  Nothing under ``src/`` changes.  ``install`` and ``uninstall``
bracket each traced job, so untraced jobs in the same process run the
original functions with no wrapper in the way.

A span is ``(id, name, start, end, parent, job)``.  Spans stay in memory and
are written once, when the run ends.  A span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import math
from collections import defaultdict
from time import perf_counter

LAYERS = ("ratmat", "sstate", "factor", "nrfsyn", "dimpl", "simkit", "cli")

# several functions report under one name where the layer metric groups them
_ALIASES = {
    "sstate.ctrb_staircase": "sstate.staircase",
    "sstate.obsv_staircase": "sstate.staircase",
    **{f"cli.cmd_{c}": f"cli.{c}" for c in ("dcf", "nrf", "check", "realize", "cert",
                                            "simulate", "demo")},
}

# (module, class, method, span name); rf_init is counted, not spanned, because
# the constructor runs thousands of times per job
_METHODS = (
    ("ratmat", "RationalMatrix", "eval", "ratmat.eval"),
    ("ratmat", "RationalMatrix", "__matmul__", "ratmat.arith"),
    ("ratmat", "RationalMatrix", "__add__", "ratmat.arith"),
    ("ratmat", "RationalMatrix", "__sub__", "ratmat.arith"),
    ("ratmat", "Polynomial", "roots", "ratmat.roots"),
    ("factor", "DoublyCoprime", "bezout_residual", "factor.bezout_residual"),
    ("simkit", "Scenario", "signals", "simkit.signals"),
)


class Tracer:
    """Span recorder and counters for one benchmark process."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = {}
        self.job = None
        self._stack: list[int] = []
        self._next_id = 0
        self._patches: list[tuple] = []  # (namespace owner, attribute, original)
        self._paused = False

    # -- recording ---------------------------------------------------------

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counts[name] += amount

    def peak(self, name: str, value: float) -> None:
        self.maxima[name] = max(self.maxima.get(name, -math.inf), float(value))

    @contextlib.contextmanager
    def paused(self):
        """Let the benchmark's own checks call the package unrecorded."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span; an escaping exception is blamed on the
        innermost layer span it leaves."""
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            if name.split(".")[0] in LAYERS and not _blamed(exc):
                exc._perfbench_blamed = True
                self.count(name.split(".")[0] + ".failed")
            raise
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append((sid, name, start, end, parent, self.job))

    # -- patching ----------------------------------------------------------

    def _wrapper(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            result = tracer.span(name, fn, *args, **kwargs)
            _after(tracer, name, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Patch every layer binding; uninstall restores the originals."""
        if self._patches:
            return
        modules = {m: importlib.import_module(f"nrfctl.{m}") for m in LAYERS}
        modules["nrfctl"] = importlib.import_module("nrfctl")
        wrappers = {}
        for layer in LAYERS:
            mod = modules[layer]
            for attr, fn in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__
                        or inspect.isgeneratorfunction(fn)):
                    continue
                name = f"{layer}.{attr}"
                wrappers[fn] = self._wrapper(_ALIASES.get(name, name), fn)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(mod, attr, wrappers[value])
        for layer, cls_name, meth, name in _METHODS:
            cls = getattr(modules[layer], cls_name)
            self._patch(cls, meth, self._wrapper(name, vars(cls)[meth]))
        rf = modules["ratmat"].RationalFunction
        init = vars(rf)["__init__"]

        @functools.wraps(init)
        def counted_init(obj, *args, **kwargs):
            if not self._paused:
                self.counts["ratmat.rf_init.calls"] += 1
            init(obj, *args, **kwargs)

        self._patch(rf, "__init__", counted_init)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Span name -> (calls, total self time in seconds)."""
        child = defaultdict(float)
        for _sid, _name, start, end, parent, _job in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for sid, name, start, end, _parent, _job in self.spans:
            entry = out[name]
            entry[0] += 1
            entry[1] += (end - start) - child.get(sid, 0.0)
        return {k: (v[0], v[1]) for k, v in out.items()}

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('["id", "name", "start", "end", "parent", "job"]\n')
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def _blamed(exc: BaseException) -> bool:
    """Whether exc, or an exception it was raised from, was blamed already."""
    seen = set()
    while exc is not None and id(exc) not in seen:
        if getattr(exc, "_perfbench_blamed", False):
            return True
        seen.add(id(exc))
        exc = exc.__cause__ or exc.__context__
    return False


def _after(tracer: Tracer, name: str, args, kwargs, result) -> None:
    """Counters read off a call's arguments and result."""
    if name == "sstate.minimal":
        tracer.count("sstate.minimal.order_in", args[0].order)
        tracer.count("sstate.minimal.order_out", result.order)
    elif name == "factor.hinf_grid_norm":
        grid = args[1] if len(args) > 1 else kwargs.get("grid", 256)
        tracer.count("factor.hinf_grid_norm.points", grid + 1)
    elif name == "factor.bezout_residual":
        tracer.peak("factor.bezout_residual.max", result)
    elif name == "dimpl.realize_rows":
        tracer.count("dimpl.row_order_total", sum(r.order for r in result))
    elif name == "simkit.simulate":
        tracer.count("simkit.simulate.steps", args[0].horizon)
