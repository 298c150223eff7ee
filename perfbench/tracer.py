"""Spans around calls into satlink's public functions, set from outside.

`Tracer.install()` replaces each target function with a wrapper that opens
a span (name, start, end, parent) around the call.  The wrapper is bound
wherever the original function object is bound at module level in any
loaded satlink module, so a name imported with `from .geometry import
slant_range` inside `scenario` is covered too.  Calls through a reference
kept elsewhere (a closure, a default argument, a container, or a module
that is not loaded yet) are missed; `coverage()` says where each target was
bound.

Spans are folded into per-name totals as they close, so memory stays flat
however many calls a run makes.  A span's self time is its duration minus
the time covered by its child spans.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time
from collections import Counter, defaultdict

# (span name, module, attribute path)
FUNCTION_SPANS = (
    ("geometry.slant_range", "satlink.geometry", "slant_range"),
    ("atmosphere.eta_atm", "satlink.atmosphere", "eta_atm"),
    ("turbulence.spot_sizes", "satlink.turbulence", "spot_sizes"),
    ("fading.fading_model", "satlink.fading", "fading_model"),
    ("fading.sample_fading", "satlink.fading", "sample_fading"),
    ("fading.fading_cdf", "satlink.fading", "fading_cdf"),
    ("noise.nbar_total", "satlink.noise", "nbar_total"),
    ("bounds.bound_b_model", "satlink.bounds", "bound_b_model"),
    ("bounds.thermal_lower", "satlink.bounds", "thermal_lower"),
    ("bounds.thermal_upper", "satlink.bounds", "thermal_upper"),
    ("bounds.max_range", "satlink.bounds", "max_range"),
    ("cvqkd.postselected_rate", "satlink.cvqkd", "postselected_rate"),
    ("orbit.slice_orbit", "satlink.orbit", "slice_orbit"),
    ("orbit.orbital_rate", "satlink.orbit", "orbital_rate"),
    ("scenario.rate_at", "satlink.scenario", "Scenario.rate_at"),
    ("scenario.pass_report", "satlink.scenario", "Scenario.pass_report"),
    ("cli.config", "satlink.cli", "resolve_scenario"),
    ("cli.config", "satlink.cli", "scenario_from_config"),
)
# Output is written inside `with _open_out(args) as out:` in every subcommand,
# so the span runs from entering that block to leaving it.
CONTEXT_SPANS = (("cli.output", "satlink.cli", "_open_out"),)
# Units counted instead of calls: samples drawn per sample_fading call.
UNIT_ARGS = {"fading.sample_fading": (1, "n")}
# (ancestor, child): child calls made while an ancestor span is open.
NESTED = (
    ("bounds.max_range", "bounds.thermal_upper"),
    ("scenario.pass_report", "scenario.rate_at"),
)


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # [name, start, child_time]
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.units: Counter = Counter()
        self.active: Counter = Counter()
        self.nested: Counter = Counter()
        self._coverage: dict[str, list[str]] = defaultdict(list)
        self._bindings: list[tuple] = []  # (owner, attribute, original, wrapper)

    # -- spans ------------------------------------------------------------------

    def enter(self, name: str) -> None:
        for ancestor, child in NESTED:
            if child == name and self.active[ancestor]:
                self.nested[f"{ancestor}>{child}"] += 1
        self.active[name] += 1
        self.stack.append([name, time.perf_counter(), 0.0])

    def exit(self) -> None:
        end = time.perf_counter()
        name, start, child = self.stack.pop()
        duration = end - start
        self.active[name] -= 1
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += duration - child
        if self.stack:
            self.stack[-1][2] += duration

    @contextlib.contextmanager
    def span(self, name: str):
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    # -- wrapping ---------------------------------------------------------------

    def _wrap_function(self, name, fn):
        unit_arg = UNIT_ARGS.get(name)

        def traced(*args, **kwargs):
            if unit_arg is not None:
                pos, key = unit_arg
                self.units[name] += int(args[pos] if len(args) > pos else kwargs[key])
            self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()

        return traced

    def _wrap_context(self, name, factory):
        @contextlib.contextmanager
        def traced(*args, **kwargs):
            with self.span(name), factory(*args, **kwargs) as value:
                yield value

        return traced

    def _bind(self, name, module_name, path, wrapper_for):
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            self._coverage[name].append(f"{module_name}: module missing")
            return
        owner_path, _, attr = path.rpartition(".")
        owner = module
        for part in filter(None, owner_path.split(".")):
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            self._coverage[name].append(f"{module_name}.{path}: missing")
            return
        wrapper = wrapper_for(name, original)
        if owner_path:  # a method: the class attribute is the one binding
            self._bindings.append((owner, attr, original, wrapper))
            self._coverage[name].append(f"{module_name}.{path}")
            return
        for mod_name, mod in sorted(sys.modules.items()):
            if mod_name.split(".")[0] != "satlink" or mod is None:
                continue
            for key, value in vars(mod).items():
                if value is original:
                    self._bindings.append((mod, key, original, wrapper))
                    self._coverage[name].append(f"{mod_name}.{key}")

    def install(self) -> "Tracer":
        """Bind the wrappers; the first call finds where the targets are bound."""
        if not self._bindings:
            for name, module_name, path in FUNCTION_SPANS:
                self._bind(name, module_name, path, self._wrap_function)
            for name, module_name, path in CONTEXT_SPANS:
                self._bind(name, module_name, path, self._wrap_context)
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)
        return self

    def uninstall(self) -> None:
        """Put the original functions back."""
        for owner, attr, original, _ in self._bindings:
            setattr(owner, attr, original)

    def coverage(self) -> dict[str, list[str]]:
        """Where each span name was bound, or why it was not."""
        return {name: list(places) for name, places in self._coverage.items()}

    # -- results ----------------------------------------------------------------

    def state(self) -> dict:
        """Plain-data totals, to merge across processes with `merge`."""
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "units": dict(self.units),
            "nested": dict(self.nested),
        }


def merge(states) -> dict:
    out = {key: Counter() for key in ("calls", "self_s", "total_s", "units", "nested")}
    for state in states:
        for key, counter in out.items():
            counter.update(state.get(key, {}))
    return {key: dict(counter) for key, counter in out.items()}


def cache_info(module_name: str = "satlink.turbulence", attr: str = "i_infty"):
    """(hits, misses) of a public lru_cache, or None where it is gone."""
    module = sys.modules.get(module_name)
    info = getattr(getattr(module, attr, None), "cache_info", None)
    if info is None:
        return None
    ci = info()
    return ci.hits, ci.misses
