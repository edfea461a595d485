"""Per-layer tracing of the kbonacci package, installed from outside.

The tracer replaces the public functions of each package module, and a
few methods, with wrappers that time every call as a span.  A span's
self time is its duration minus the time of the spans it caused.  Spans
are folded into per-name totals as they end (calls and self time) plus
work counts, so memory stays flat however many calls a command makes.
Self times are kept per command until the harness scales them to
reference seconds (see ``speed.py``) with the command's latency.

A function imported with ``from .x import f`` is a second reference to
the same object, so every module of the package is scanned and each
reference to a traced function is replaced, not only the one in the
defining module.  ``uninstall`` puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

# Layers are the package modules.  verify and cli are entered through
# one function each; their helpers are part of the layer's self time.
# Should an entry point be renamed, all public functions of its module
# are traced instead.
LAYERS = ("substitution", "words", "recognition", "renorm", "pressure", "potentials",
          "spectral", "sampling", "verify", "cli")
ENTRY_ONLY = {"verify": ("run_all",), "cli": ("main",)}

# (layer, class, method, span name)
METHODS = (
    ("substitution", "Substitution", "apply", "substitution.apply"),
    ("substitution", "Substitution", "apply_power", "substitution.apply_power"),
    ("substitution", "Substitution", "power_image", "substitution.power_image"),
    ("substitution", "Substitution", "power_lengths", "substitution.power_lengths"),
    ("substitution", "Substitution", "pair_language", "substitution.pair_language"),
    ("substitution", "FixedPointStream", "__init__", "substitution.fixed_point_stream"),
    ("substitution", "FixedPointStream", "prefix", "substitution.stream_prefix"),
    ("words", "LanguageIndex", "special_words", "words.special_words"),
    ("potentials", "Potential", "numerator", "potentials.numerator"),
    ("potentials", "Potential", "numerator_range", "potentials.numerator_range"),
)

# Layers that must record calls on a workload, or the traced run fails:
# a layer with no calls at all means its traced names were missed, not
# that its work vanished.  A single function may stop being called (or
# be removed) by a change to the program; its metrics then read 0.
REQUIRED = {
    "pressure-sweep": ("cli", "pressure", "potentials"),
    "break-scan": ("cli", "substitution", "words", "recognition", "renorm", "verify"),
    "omega-build": ("cli", "substitution", "words", "recognition", "verify"),
}

_FUNCTION_STATS = {
    "pressure.birkhoff_bounds": ("calls", "self_s"),
    "pressure.pressure_curve": ("self_s",),
    "pressure.find_beta_c": ("self_s",),
    "potentials.numerator_range": ("calls", "self_s"),
    "substitution.power_lengths": ("calls", "self_s"),
    "substitution.power_image": ("calls", "self_s"),
    "substitution.apply": ("calls", "self_s"),
    "substitution.stream_prefix": ("self_s",),
    "words.in_language": ("calls", "self_s"),
    "words.build_language": ("calls", "self_s"),
    "words.special_words": ("calls", "self_s"),
    "recognition.delta": ("calls", "self_s"),
    "recognition.brute_delta": ("calls", "self_s"),
    "recognition.delta_after_power": ("calls", "self_s"),
    "recognition.cut_points": ("calls", "self_s"),
    "recognition.verify_recognizability": ("calls", "self_s"),
    "renorm.renorm_power.closed_form": ("calls", "self_s"),
    "renorm.renorm_power.brute_force": ("calls", "self_s"),
    "renorm.fixed_point_U": ("calls", "self_s"),
    "verify.run_all": ("self_s",),
}

_UNITS = {"calls": "count", "self_s": "s"}

# Every per-layer metric the traced run prints, with its unit.
PER_LAYER = (
    [(f"{span}.{stat}", _UNITS[stat]) for span, stats in _FUNCTION_STATS.items() for stat in stats]
    + [
        ("pressure.birkhoff_bounds.windows", "count"),
        ("pressure.sweeps_per_cmd", "count"),
        ("substitution.power_lengths.distinct_frac", "frac"),
        ("substitution.apply.letters", "count"),
        ("substitution.fixed_point_streams", "count"),
        ("words.build_language.max_depth", "count"),
    ]
    + [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [("trace.run_s", "s"), ("trace.untraced_run_s", "s"), ("trace.overhead_frac", "frac")]
)


def _renorm_power_span(args, kwargs) -> str:
    mode = kwargs.get("mode", args[4] if len(args) > 4 else "closed-form")
    return "renorm.renorm_power." + mode.replace("-", "_")


class Tracer:
    """Span totals and work counts for the commands run while installed."""

    def __init__(self):
        self._stack: list[list[float]] = []
        self._restore: list[tuple[object, str, object]] = []
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        # Self times of the command running now, in wall seconds.
        self._command_self_s: defaultdict[str, float] = defaultdict(float)
        self.reset()

    def reset(self) -> None:
        self.calls.clear()
        self.self_s.clear()
        self.windows = 0
        self.letters = 0
        self.max_depth = 0
        self.distinct_lengths = 0
        self._lengths_seen: set = set()

    def begin_command(self) -> None:
        """Fresh per-command state: a cache could skip only repeats within a command."""
        self._lengths_seen = set()
        self._command_self_s.clear()

    def end_command(self) -> dict[str, float]:
        """The wall self times of the command since `begin_command`."""
        spans = dict(self._command_self_s)
        self._command_self_s.clear()
        return spans

    def add_self_times(self, spans: dict[str, float], factor: float) -> None:
        """Add one command's self times, scaled by `factor` to reference seconds."""
        for name, seconds in spans.items():
            self.self_s[name] += seconds * factor

    # -- work counts, called after the traced function returns ----------------

    def _count(self, span: str, args, result) -> None:
        if span == "pressure.birkhoff_bounds":
            s, _, n = args[:3]
            self.windows += s.k**n
        elif span == "substitution.apply":
            self.letters += len(result)
        elif span == "substitution.power_lengths":
            key = (args[0].images, args[1])
            if key not in self._lengths_seen:
                self._lengths_seen.add(key)
                self.distinct_lengths += 1
        elif span == "words.build_language":
            self.max_depth = max(self.max_depth, args[1])

    def _wrap(self, span, fn):
        stack, calls, self_s, count = self._stack, self.calls, self._command_self_s, self._count
        clock = time.perf_counter
        counted = span in ("pressure.birkhoff_bounds", "substitution.apply",
                           "substitution.power_lengths", "words.build_language")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = span if isinstance(span, str) else span(args, kwargs)
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                calls[name] += 1
                self_s[name] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if counted:
                count(name, args, result)
            return result

        return wrapper

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        wrappers: dict[int, tuple[object, object]] = {}
        for layer, cls_name, method, span in METHODS:
            cls = getattr(importlib.import_module(f"kbonacci.{layer}"), cls_name, None)
            original = vars(cls).get(method) if cls is not None else None
            if original is None:
                continue  # removed from the program: its metrics read 0
            self._restore.append((cls, method, original))
            setattr(cls, method, self._wrap(span, original))
        claimed = {span for *_, span in METHODS}
        for layer in LAYERS:
            module = importlib.import_module(f"kbonacci.{layer}")
            names = [name for name in ENTRY_ONLY.get(layer, ()) if hasattr(module, name)] or [
                name for name, obj in vars(module).items()
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_")
            ]
            for name in names:
                span = f"{layer}.{name}"
                if span in claimed:
                    continue  # a module-level alias of a traced method
                original = getattr(module, name)
                traced = self._wrap(_renorm_power_span if span == "renorm.renorm_power" else span, original)
                wrappers[id(original)] = (original, traced)
        for module_name in sorted(sys.modules):
            if module_name != "kbonacci" and not module_name.startswith("kbonacci."):
                continue
            module = sys.modules[module_name]
            for attr, obj in list(vars(module).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._restore.append((module, attr, obj))
                    setattr(module, attr, entry[1])

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------------

    def missing(self, workload: str) -> list[str]:
        """The layers assigned to `workload` that recorded no calls."""
        layer_calls = Counter()
        for span, calls in self.calls.items():
            layer_calls[span.split(".", 1)[0]] += calls
        return [layer for layer in REQUIRED[workload] if layer_calls[layer] == 0]

    def metrics(self, pressure_commands: int) -> dict[str, float]:
        """Per-layer values of the commands run since the last reset."""
        values: dict[str, float] = {}
        for span, stats in _FUNCTION_STATS.items():
            for stat in stats:
                values[f"{span}.{stat}"] = self.calls[span] if stat == "calls" else self.self_s[span]
        values["pressure.birkhoff_bounds.windows"] = self.windows
        values["pressure.sweeps_per_cmd"] = (
            self.calls["pressure.birkhoff_bounds"] / pressure_commands if pressure_commands else 0.0
        )
        lengths_calls = self.calls["substitution.power_lengths"]
        values["substitution.power_lengths.distinct_frac"] = (
            self.distinct_lengths / lengths_calls if lengths_calls else 0.0
        )
        values["substitution.apply.letters"] = self.letters
        values["substitution.fixed_point_streams"] = self.calls["substitution.fixed_point_stream"]
        values["words.build_language.max_depth"] = self.max_depth
        layer_totals = defaultdict(float)
        for span, seconds in self.self_s.items():
            layer_totals[span.split(".", 1)[0]] += seconds
        for layer in LAYERS:
            values[f"{layer}.self_s"] = layer_totals[layer]
        return values
