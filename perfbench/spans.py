"""Timing spans around the package's public functions, installed from outside.

``Tracer.install`` wraps every public function defined in each layer module
and rebinds the wrapper at every ``complement_opt`` module attribute that
holds the original, so ``experiments.maximize`` and ``verify.maximize`` are
timed as ``optimize.maximize`` too.  ``uninstall`` restores the originals.
Spans nest on a stack: a span's self time is its duration minus the time its
child spans cover.  File writes through ``pathlib.Path`` are spans as well,
so the manifest write is timed even though no package function wraps it.

Metric names that refer to a function the package no longer defines are
reported as absent rather than failing the run.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import pathlib
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "experiments", "optimize", "measurement", "collisions", "complementarity", "verify")
PACKAGE = "complement_opt"
FILE_WRITE = "experiments.file_write"


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.present: set[str] = set()
        self.degenerate_raised = 0
        self.probes = 0
        self.evaluations = 0
        self.converged = 0
        self._children: list[float] = []
        self._last_degenerate: BaseException | None = None
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        layer = name.split(".", 1)[0]
        children = self._children

        @functools.wraps(fn)
        def span(*args, **kwargs):
            children.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if (layer == "measurement" and type(exc).__name__ == "DegenerateOutcomeError"
                        and exc is not self._last_degenerate):
                    self._last_degenerate = exc
                    self.degenerate_raised += 1
                raise
            finally:
                elapsed = perf_counter() - start
                inner = children.pop()
                self.calls[name] += 1
                self.self_s[name] += elapsed - inner
                if children:
                    children[-1] += elapsed
            if name == "optimize.maximize":
                self.probes += getattr(result, "n", 0)
                self.evaluations += getattr(result, "evaluations", 0)
                self.converged += bool(getattr(result, "converged", False))
            return result

        return span

    def install(self) -> None:
        originals: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"{PACKAGE}.{layer}")
            except ImportError:
                continue
            for attr, value in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if value.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                self.present.add(name)
                originals[id(value)] = (value, self._wrap(name, value))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._restore.append((module, attr, value))
        for method in ("write_text", "write_bytes"):
            original = getattr(pathlib.Path, method)
            setattr(pathlib.Path, method, self._wrap(FILE_WRITE, original))
            self._restore.append((pathlib.Path, method, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def layer_self_s(self, layer: str) -> float:
        return sum((t for name, t in self.self_s.items() if name.split(".", 1)[0] == layer), 0.0)

    def write_self_s(self) -> float:
        """Self time of every ``experiments.write_*`` function plus all file
        writes (the CSV inside them and the manifest outside them)."""
        return sum(
            (t for name, t in self.self_s.items()
             if name == FILE_WRITE or name.startswith("experiments.write_")),
            0.0,
        )
