"""Timing hooks installed around `leolora`'s public functions from outside.

Nothing here edits the program.  A hook replaces every `leolora` module
attribute (or class attribute) bound to a given function object, so the
hooks follow a function when it is re-exported or moved to another module.

`SetupClock` is the only hook an untraced run installs: it times the part of
each seed spent before the event loop starts.  `Tracer` is the traced run:
per-layer spans and counts, plus events by kind through a stand-in for the
engine's `heapq`.
"""

from __future__ import annotations

import enum
import heapq
import importlib
import pkgutil
import sys
import types
from time import perf_counter

import leolora


def leolora_modules() -> list[types.ModuleType]:
    """Every `leolora` module, importing any not yet loaded."""
    for info in pkgutil.walk_packages(leolora.__path__, "leolora."):
        importlib.import_module(info.name)
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "leolora" or name.startswith("leolora."))]


def _defined_in_leolora(name: str, kind: type) -> list:
    """Distinct `leolora` objects of `kind` bound to `name` in any `leolora` module."""
    found = {}
    for mod in leolora_modules():
        obj = getattr(mod, name, None)
        if isinstance(obj, kind) and obj.__module__.startswith("leolora"):
            found[id(obj)] = obj
    return list(found.values())


def patch_function(name: str, make_wrapper) -> int:
    """Wrap every distinct `leolora` function called `name`; return how many."""
    targets = _defined_in_leolora(name, types.FunctionType)
    for fn in targets:
        wrapper = make_wrapper(fn)
        for mod in leolora_modules():
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapper)
    return len(targets)


def patch_method(cls_name: str, method: str, make_wrapper) -> int:
    """Wrap `method` on every `leolora` class called `cls_name`; return how many."""
    classes = [c for c in _defined_in_leolora(cls_name, type) if method in vars(c)]
    for cls in classes:
        setattr(cls, method, make_wrapper(vars(cls)[method]))
    return len(classes)


class SetupClock:
    """Seconds spent before each event loop starts, summed over seeds.

    A seed's set-up opens at the first of: entry into `cli.main` (given by
    the caller as `open`), a module-level `run`, or `Simulator.__init__`; it
    closes when `Simulator.run` is entered.  So scenario load, validation,
    schedule building and arrival generation count wherever they move.
    """

    def __init__(self):
        self.setup_s = 0.0
        self.loops = 0
        self._anchor: float | None = None

    def open(self, t: float | None = None):
        if self._anchor is None:
            self._anchor = perf_counter() if t is None else t

    def _close(self):
        now = perf_counter()
        if self._anchor is not None:
            self.setup_s += now - self._anchor
        self._anchor = None
        self.loops += 1

    def install(self) -> None:
        def opener(fn):
            def wrapper(*args, **kwargs):
                self.open()
                return fn(*args, **kwargs)
            return wrapper

        def closer(fn):
            def wrapper(*args, **kwargs):
                self._close()
                return fn(*args, **kwargs)
            return wrapper

        patch_function("run", opener)
        found = patch_method("Simulator", "__init__", opener)
        found += patch_method("Simulator", "run", closer)
        if found < 2:
            raise RuntimeError("leolora has no Simulator.__init__/run to time set-up against")


def event_kind(entry) -> str | None:
    """Kind name of an event-heap entry, whether an object or a plain tuple."""
    kind = getattr(entry, "kind", None)
    if kind is None and isinstance(entry, tuple):
        kind = next((x for x in entry if isinstance(x, (enum.Enum, str))), None)
    if isinstance(kind, enum.Enum):
        return kind.value if isinstance(kind.value, str) else kind.name.lower()
    return kind if isinstance(kind, str) else None


class _HeapqStandIn:
    """Delegates to `heapq`, telling the tracer about every pop."""

    def __init__(self, on_pop):
        self._on_pop = on_pop

    def __getattr__(self, name):
        return getattr(heapq, name)

    def heappop(self, heap):
        entry = heapq.heappop(heap)
        self._on_pop(entry)
        return entry


# Public functions (found by name in any leolora module) and the span each gets.
FUNCTION_SPANS = {
    "load_scenario": "config.load",
    "build_schedule": "orbit.build",
    "sun_seconds": "orbit.sun_seconds",
    "select_forecast_window": "mac.select",
    "run_transmission_sequence": "mac.sequence",
    "energy_step": "energy.step",
    "step_battery_per_orbit": "battery.orbit_step",
    "gateway_compute_fleet_degradation": "gateway.assess",
    "write_metrics_csv": "cli.write",
    "write_summary_json": "cli.write",
}
METHOD_SPANS = {
    ("Schedule", "candidates"): "orbit.candidates",
    ("Simulator", "__init__"): "engine.init",
    ("Simulator", "run"): "engine.run",
}
# Spans kept one by one; the hot per-slot and per-decision calls are only summed.
KEPT_SPANS = frozenset({"cli.main", "config.load", "orbit.build", "engine.init", "engine.run",
                        "gateway.assess", "cli.write"})


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    """Per-layer time and counts for one traced invocation.

    Each wrapped call is a span.  Its self time is its duration minus the
    durations of the wrapped calls made inside it.  Spans named in
    KEPT_SPANS are kept in memory as (name, start, end, parent) and written
    out once the run ends; all spans add to per-name totals.
    """

    def __init__(self):
        self.totals: dict[str, list[float]] = {}   # name -> [calls, seconds, child seconds]
        self.counts: dict[str, float] = {}
        self.events: dict[str, int] = {}
        self.handler_s: dict[str, float] = {}
        self.spans: list[tuple[str, float, float, str | None]] = []
        self._stack: list[list] = []               # [name, child seconds]
        self._pending: tuple[str, float] | None = None

    def _count(self, key: str, n: float = 1):
        self.counts[key] = self.counts.get(key, 0) + n

    def span(self, name: str, fn, on_result=None):
        keep = name in KEPT_SPANS
        stack = self._stack
        self.totals.setdefault(name, [0, 0.0, 0.0])

        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                d = t1 - t0
                if stack:
                    stack[-1][1] += d
                tot = self.totals[name]
                tot[0] += 1
                tot[1] += d
                tot[2] += frame[1]
                if keep:
                    self.spans.append((name, t0, t1, stack[-1][0] if stack else None))
            if on_result is not None:
                on_result(args, kwargs, result)
            return result
        return wrapper

    def _on_build(self, args, kwargs, schedule):
        stations = _arg(args, kwargs, 1, "stations")
        horizon = _arg(args, kwargs, 2, "horizon")
        step = kwargs.get("step", args[3] if len(args) > 3 else 1.0)
        self._count("orbit.windows", len(schedule.windows))
        self._count("orbit.sample_count", horizon / step * len(stations))

    def _on_select(self, args, kwargs, result):
        self._count("mac.candidates", len(_arg(args, kwargs, 0, "windows")))
        self._count("mac.transmits", 1 if result.decision.is_transmit else 0)

    def _on_sequence(self, args, kwargs, starts):
        self._count("mac.attempts_drawn", len(starts))
        self._count("mac.sequences_nonempty", 1 if starts else 0)

    def _on_assess(self, args, kwargs, result):
        self._count("report.summaries", len(_arg(args, kwargs, 0, "reports")))

    def _on_pop(self, entry):
        kind = event_kind(entry)
        if kind is None:
            return
        now = perf_counter()
        if self._pending is not None:
            prev, t = self._pending
            self.handler_s[prev] = self.handler_s.get(prev, 0.0) + now - t
        self.events[kind] = self.events.get(kind, 0) + 1
        self._pending = (kind, now)

    def _end_loop(self, args, kwargs, result):
        # The last event's interval runs into finalisation; it is not a handler time.
        self._pending = None

    def install(self) -> None:
        hooks = {"orbit.build": self._on_build, "mac.select": self._on_select,
                 "mac.sequence": self._on_sequence, "gateway.assess": self._on_assess,
                 "engine.run": self._end_loop}
        for fn_name, name in FUNCTION_SPANS.items():
            patch_function(fn_name, lambda fn, n=name: self.span(n, fn, hooks.get(n)))
        for (cls_name, method), name in METHOD_SPANS.items():
            patch_method(cls_name, method, lambda fn, n=name: self.span(n, fn, hooks.get(n)))
        stand_in = _HeapqStandIn(self._on_pop)
        for mod in leolora_modules():
            if getattr(mod, "heapq", None) is heapq:
                mod.heapq = stand_in

    def layers(self) -> dict[str, float]:
        """Per-layer figures of this invocation, named as in BENCHMARK.json."""
        def total(name):
            return self.totals.get(name, [0, 0.0, 0.0])

        def self_s(name):
            calls, secs, child = total(name)
            return secs - child

        out: dict[str, float] = {
            "config.load_s": total("config.load")[1],
            "orbit.build_s": total("orbit.build")[1],
            "orbit.builds": total("orbit.build")[0],
            "orbit.windows": self.counts.get("orbit.windows", 0),
            "orbit.sample_count": self.counts.get("orbit.sample_count", 0),
            "orbit.sun_seconds_calls": total("orbit.sun_seconds")[0],
            "orbit.sun_seconds_s": total("orbit.sun_seconds")[1],
            "orbit.candidates_calls": total("orbit.candidates")[0],
            "orbit.candidates_s": total("orbit.candidates")[1],
            "engine.init_s": self_s("engine.init"),
            "engine.run_s": total("engine.run")[1],
            "engine.self_s": self_s("engine.run"),
        }
        n_events = sum(self.events.values())
        out["engine.events"] = n_events
        out["engine.us_per_event"] = out["engine.run_s"] / n_events * 1e6 if n_events else 0.0
        for kind, n in self.events.items():
            out[f"engine.events.{kind}"] = n
        for kind, secs in self.handler_s.items():
            out[f"engine.handler_s.{kind}"] = secs
        attempts = sum(n for kind, n in self.events.items() if kind.startswith("tx_attempt"))
        sequences = self.counts.get("mac.sequences_nonempty", 0)
        out["engine.attempt_events_per_sequence"] = attempts / sequences if sequences else 0.0
        selects = total("mac.select")[0]
        out["mac.select_calls"] = selects
        out["mac.select_s"] = total("mac.select")[1]
        out["mac.candidates_per_select"] = (self.counts.get("mac.candidates", 0) / selects
                                            if selects else 0.0)
        out["mac.transmit_share"] = (self.counts.get("mac.transmits", 0) / selects
                                     if selects else 0.0)
        out["mac.sequence_calls"] = total("mac.sequence")[0]
        out["mac.sequence_s"] = total("mac.sequence")[1]
        out["mac.attempts_drawn"] = self.counts.get("mac.attempts_drawn", 0)
        out["energy.step_calls"] = total("energy.step")[0]
        out["energy.step_s"] = total("energy.step")[1]
        out["battery.orbit_steps"] = total("battery.orbit_step")[0]
        out["battery.orbit_step_s"] = total("battery.orbit_step")[1]
        out["report.summaries"] = self.counts.get("report.summaries", 0)
        out["gateway.assess_s"] = total("gateway.assess")[1]
        out["cli.write_s"] = total("cli.write")[1]
        return out
