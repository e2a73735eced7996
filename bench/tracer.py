"""Span tracing for sat2mdp, installed from outside the package.

``Tracer.install()`` replaces every traced function with a timing wrapper
in every ``sat2mdp`` module that holds a reference to it, so calls made
through ``from .mdp import generative_query`` style imports are caught as
well; ``uninstall()`` puts the originals back.  Nothing under ``src/`` is
edited.

Spans are aggregated as they close, per span name: call count and self
time (duration minus the time covered by child spans).
Garbage-collector pauses are recorded through ``gc.callbacks`` while the
tracer is installed.
"""

from __future__ import annotations

import gc
import importlib
import inspect
import time

# The package's modules; each is one layer.
LAYERS = ("cli", "cnf", "mdp", "features", "policies", "reduction", "verify")

# Public helpers that cost about as much per call as the wrapper itself and
# are called up to millions of times per op.  They are left unwrapped, so
# their time is charged to the self time of whichever traced function
# called them (for example clause evaluation lands in
# ``cnf.satisfied_fraction``).
LEAVES = {
    "cnf": {"eval_clause", "count_satisfied"},
    "mdp": {"initial_state", "validate_state", "stage", "is_terminal",
            "assigned_prefix", "transition", "reward"},
    "features": {"greedy_action", "f_threshold", "softmax_prob", "psp_feature"},
    "reduction": {"as_fraction", "frac_str"},
}

# Public methods traced in addition to module-level functions.
METHODS = {"features": ("RealizabilityFeature.dot",)}

# Spans whose result's ``size`` is summed, as a count of work done.
SIZED = {"cnf.enumerate_universe"}


class SpanStats:
    __slots__ = ("calls", "self_time", "result_sizes")

    def __init__(self) -> None:
        self.calls = 0
        self.self_time = 0.0
        self.result_sizes = 0


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, SpanStats] = {}
        self.gc_pause = 0.0
        self.gc_gen2 = 0
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []
        self._gc_started = 0.0
        self._targets = self._discover()

    @staticmethod
    def _discover() -> list[tuple[str, object, str, object]]:
        """(span name, owner, attribute, original) for every traced callable."""
        targets = []
        for layer in LAYERS:
            module = importlib.import_module(f"sat2mdp.{layer}")
            skip = LEAVES.get(layer, set())
            for attr, value in vars(module).items():
                if (
                    attr.startswith("_")
                    or attr in skip
                    or not inspect.isfunction(value)
                    or value.__module__ != module.__name__
                    # a wrapped generator function would time only its creation
                    or inspect.isgeneratorfunction(value)
                ):
                    continue
                targets.append((f"{layer}.{attr}", module, attr, value))
            for qualname in METHODS.get(layer, ()):
                cls_name, method = qualname.split(".")
                cls = getattr(module, cls_name)
                targets.append((f"{layer}.{qualname}", cls, method, vars(cls)[method]))
        return targets

    def _wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, SpanStats())
        stack = self._stack
        perf_counter = time.perf_counter
        sized = name in SIZED

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                child = stack.pop()
                stats.calls += 1
                stats.self_time += duration - child
                if stack:
                    stack[-1] += duration
            if sized:
                stats.result_sizes += result.size
            return result

        return traced

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
            return
        self.gc_pause += time.perf_counter() - self._gc_started
        if info.get("generation") == 2:
            self.gc_gen2 += 1

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {id(orig): self._wrap(name, orig) for name, _, _, orig in self._targets}
        originals = {id(orig): orig for _, _, _, orig in self._targets}
        modules = [importlib.import_module("sat2mdp")]
        modules += [importlib.import_module(f"sat2mdp.{layer}") for layer in LAYERS]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and originals[id(value)] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])
        for _, owner, attr, orig in self._targets:
            if inspect.isclass(owner):
                self._patches.append((owner, attr, orig))
                setattr(owner, attr, wrappers[id(orig)])
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans left open")

    def layer_self_time(self, layer: str) -> float:
        return sum(s.self_time for name, s in self.stats.items() if name.startswith(layer + "."))

    def covered_time(self) -> float:
        """Time inside any span: self times partition it."""
        return sum(s.self_time for s in self.stats.values())
