"""Outside-in layer tracing for vrsched.

Every public function, method and property of each ``vrsched`` module is
replaced by a timing wrapper, under every name a caller looks it up by:
the module that defines it and every module that imported it by name
(``vrsched.sim.allocate_lt``, ``vrsched.scheduling.split_sets``, ...).
A call made while another wrapped call is running is its child, so a
layer's self time excludes the layers it calls. Counters that give the
per-layer ratios are read from arguments and results at the same
boundaries. Nothing under ``src/`` is modified; :meth:`LayerTracer.remove`
puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

LAYERS = (
    "sim", "frame_queue", "forwarder", "traffic", "delay", "wire", "video",
    "allocation", "scheduling", "baselines", "metrics", "config",
)


@dataclass
class _FnStats:
    layer: str
    calls: int = 0
    inclusive_s: float = 0.0
    child_s: float = 0.0
    child_calls: int = 0


@dataclass
class _Counters:
    """Work and waste counts gathered at the layer boundaries."""

    trace_keys: set = field(default_factory=set)
    trace_calls: int = 0
    resort_frames: int = 0
    sweep_scanned: int = 0
    sweep_expired: int = 0
    depth_max: int = 0
    fwd_calls: int = 0
    fwd_idle: int = 0
    fwd_drops: int = 0
    mark_calls: int = 0
    mark_matched: int = 0
    lt_calls: int = 0
    lt_scaled: int = 0
    st_calls: int = 0
    st_surplus: int = 0


def _observers(c: _Counters) -> dict[str, Callable[[tuple, Any], None]]:
    """Per-function hooks run after a successful call.

    They read plain attributes only, so they never enter a wrapped call.
    """

    def generate_trace(args, _result):
        c.trace_calls += 1
        c.trace_keys.add((args[0], args[1]))

    def resort(args, _result):
        if args[0].ordered:
            c.resort_frames += len(args[0].frames)

    def sweep_expired(args, result):
        c.sweep_expired += len(result)
        c.sweep_scanned += len(result) + len(args[0].frames)

    def push(args, _result):
        c.depth_max = max(c.depth_max, len(args[0].frames))

    def next_action(_args, result):
        c.fwd_calls += 1
        if result is None:
            c.fwd_idle += 1
        elif type(result).__name__ == "DropAction":
            c.fwd_drops += 1

    def apply_mark(_args, result):
        c.mark_calls += 1
        c.mark_matched += bool(result)

    def allocate_lt(_args, result):
        c.lt_calls += 1
        c.lt_scaled += bool(result.scaled)

    def schedule_st(_args, result):
        c.st_calls += 1
        c.st_surplus += any(r > 0.0 for r in result.rate_bps.values())

    return {
        "traffic.generate_trace": generate_trace,
        "frame_queue.FrameQueue.resort": resort,
        "frame_queue.FrameQueue.sweep_expired": sweep_expired,
        "frame_queue.FrameQueue.push": push,
        "forwarder.DwrrForwarder.next_action": next_action,
        "delay.FlowDelayState.apply_mark": apply_mark,
        "allocation.allocate_lt": allocate_lt,
        "scheduling.schedule_st": schedule_st,
    }


def _public_targets(layer: str, module) -> list[tuple[str, Any, str, Any]]:
    """(key, owner, attribute, original) for each public callable of a module.

    Functions and classes count when the module defines them. On a class,
    public methods, static/class methods and property getters are wrapped;
    dunder methods generated by dataclasses are not. The simulator's
    constructor is included because construction is the run's set-up.
    """
    out = []
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if callable(obj) and not isinstance(obj, type):
            out.append((f"{layer}.{name}", module, name, obj))
        elif isinstance(obj, type):
            attrs = [a for a in vars(obj) if not a.startswith("_")]
            if layer == "sim" and name == "Simulation":
                attrs.append("__init__")
            for attr in attrs:
                val = vars(obj)[attr]
                if isinstance(val, (property, staticmethod, classmethod)) or callable(val):
                    out.append((f"{layer}.{name}.{attr}", obj, attr, val))
    return out


class LayerTracer:
    """Wraps vrsched's public callables and accumulates per-layer self time."""

    def __init__(self) -> None:
        self.fn_stats: dict[str, _FnStats] = {}
        self.counters = _Counters()
        self._stack: list[list] = [[0.0, 0]]   # [child seconds, child calls]
        self._patches: list[tuple[Any, str, Any]] = []
        self.child_overhead_s = 0.0
        self.call_overhead_s = 0.0

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Replace every public callable, then measure the wrapper's own cost."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        observers = _observers(self.counters)
        modules = {layer: importlib.import_module(f"vrsched.{layer}") for layer in LAYERS}
        modules["cli"] = importlib.import_module("vrsched.cli")
        package = importlib.import_module("vrsched")
        replaced: dict[int, Any] = {}
        for layer in LAYERS:
            for key, owner, attr, orig in _public_targets(layer, modules[layer]):
                wrapped = self._wrap_attr(orig, key, observers.get(key))
                self._patch(owner, attr, wrapped)
                replaced[id(orig)] = wrapped
        # names imported from another module resolve in the importer's namespace
        for mod in [package, *modules.values()]:
            for name, obj in list(vars(mod).items()):
                if id(obj) in replaced and vars(mod)[name] is not replaced[id(obj)]:
                    self._patch(mod, name, replaced[id(obj)])
        self.child_overhead_s, self.call_overhead_s = self._calibrate()

    def remove(self) -> None:
        """Restore every original attribute, newest patch first."""
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def _patch(self, owner: Any, attr: str, new: Any) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def _wrap_attr(self, orig: Any, key: str, observe) -> Any:
        if isinstance(orig, property):
            return property(self._wrap(orig.fget, key, observe), orig.fset, orig.fdel, orig.__doc__)
        if isinstance(orig, staticmethod):
            return staticmethod(self._wrap(orig.__func__, key, observe))
        if isinstance(orig, classmethod):
            return classmethod(self._wrap(orig.__func__, key, observe))
        return self._wrap(orig, key, observe)

    def _wrap(self, fn: Callable, key: str, observe: Optional[Callable]) -> Callable:
        stats = self.fn_stats[key] = _FnStats(key.split(".", 1)[0])
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0, 0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                parent = stack[-1]
                parent[0] += dt
                parent[1] += 1
                stats.calls += 1
                stats.inclusive_s += dt
                stats.child_s += frame[0]
                stats.child_calls += frame[1]
            if observe is not None:
                observe(args, result)
            return result

        return functools.update_wrapper(traced, fn)

    def _calibrate(self, n: int = 20000, trials: int = 5) -> tuple[float, float]:
        """Wrapper cost per call: (seconds charged to the caller, to the callee).

        A wrapped parent calls a wrapped no-op ``n`` times and is compared
        with the same loop over the bare no-op. Each figure is the smallest
        of a few trials, since noise only adds time.
        """
        def noop():
            return None

        def loop(f):
            for _ in range(n):
                f()

        outer = inner = float("inf")
        for _ in range(trials):
            probe = LayerTracer()
            child = probe._wrap(noop, "probe.child", None)
            parent = probe._wrap(loop, "probe.parent", None)
            t0 = time.perf_counter()
            loop(noop)
            bare = time.perf_counter() - t0
            parent(child)
            p, c = probe.fn_stats["probe.parent"], probe.fn_stats["probe.child"]
            outer = min(outer, (p.inclusive_s - p.child_s - bare) / n)
            inner = min(inner, (c.inclusive_s - bare) / n)
        return max(0.0, outer), max(0.0, inner)

    # -- reporting ---------------------------------------------------------

    def reset(self) -> None:
        for st in self.fn_stats.values():
            st.calls, st.inclusive_s, st.child_s, st.child_calls = 0, 0.0, 0.0, 0
        self.counters.__init__()   # in place: the observers hold this object

    def self_seconds(self, st: _FnStats) -> float:
        return max(0.0, st.inclusive_s - st.child_s - st.child_calls * self.child_overhead_s
                   - st.calls * self.call_overhead_s)

    def layer_totals(self) -> dict[str, tuple[float, int]]:
        """layer -> (self seconds, calls)."""
        out = {layer: [0.0, 0] for layer in LAYERS}
        for st in self.fn_stats.values():
            out[st.layer][0] += self.self_seconds(st)
            out[st.layer][1] += st.calls
        return {layer: (s, n) for layer, (s, n) in out.items()}

    def top_functions(self, k: int = 12) -> list[tuple[str, float, int]]:
        rows = [(key, self.self_seconds(st), st.calls) for key, st in self.fn_stats.items()]
        return sorted(rows, key=lambda r: -r[1])[:k]
