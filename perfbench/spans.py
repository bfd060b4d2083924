"""Span and counter recording around the layers of ``renorm``.

Installed only in traced rounds.  ``install`` wraps every public
function and public method of the layer modules, and rebinds the names
other modules imported from them (``partition.quad_checked``,
``cli.constant_part``, ...), so each call into a layer opens a span
(name, layer, parent, start, end).  Generator functions get one span
per produced block.  Spans stay in memory until ``write``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("spectrum", "regulator", "characteristic", "partition", "quadrature", "diagrams", "tables")

# Per-layer metrics reported by a traced run, with their units.
METRICS = {
    "spectrum.calls": "count",
    "spectrum.self_s": "s",
    "spectrum.terms": "count",
    "regulator.calls": "count",
    "regulator.self_s": "s",
    "regulator.cutoffs": "count",
    "regulator.terms": "count",
    "characteristic.calls": "count",
    "characteristic.self_s": "s",
    "partition.calls": "count",
    "partition.self_s": "s",
    "partition.phi_evals": "count",
    "partition.mc_samples": "count",
    "quadrature.calls": "count",
    "quadrature.self_s": "s",
    "quadrature.quad_runs": "count",
    "quadrature.neval": "count",
    "diagrams.calls": "count",
    "diagrams.self_s": "s",
    "diagrams.monomials": "count",
    "tables.calls": "count",
    "tables.self_s": "s",
    "tables.bytes": "bytes",
    "cli.calls": "count",
    "cli.self_s": "s",
}


class Tracer:
    """In-memory span stack and counters for one single-threaded round."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.spans: list[list] = []  # [name, layer, parent, start, end]
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._partition_depth = 0

    def open(self, name: str, layer: str, call: bool = True) -> int:
        parent = self.stack[-1] if self.stack else -1
        if call:
            self.counts[f"{layer}.calls"] += 1
        if layer == "characteristic" and self._partition_depth:
            if parent < 0 or self.spans[parent][1] != "characteristic":
                self.counts["partition.phi_evals"] += 1
        if layer == "partition":
            self._partition_depth += 1
        idx = len(self.spans)
        self.spans.append([name, layer, parent, time.perf_counter() - self.origin, None])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        span = self.spans[idx]
        span[4] = time.perf_counter() - self.origin
        self.stack.pop()
        if span[1] == "partition":
            self._partition_depth -= 1

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        idx = self.open(name, layer)
        try:
            yield
        finally:
            self.close(idx)

    # -- counters at layer boundaries ------------------------------------

    def _after_call(self, name: str, layer: str, args, result) -> None:
        if name == "DeformedSpectrum.inverse_sum":
            self.counts["regulator.cutoffs"] += 1
        elif name == "mc_estimate":
            self.counts["partition.mc_samples"] += args[3].samples
        elif layer == "diagrams" and hasattr(result, "terms"):
            self.counts["diagrams.monomials"] += len(result.terms)
        elif name in ("write_csv", "write_json"):
            self.counts["tables.bytes"] += Path(args[0]).stat().st_size

    def _after_block(self, name: str, idx: int, block) -> None:
        if name != "Spectrum.chunks":
            return
        size = int(getattr(block, "size", 0))
        self.counts["spectrum.terms"] += size
        parent = self.spans[idx][2]
        if parent >= 0 and self.spans[parent][1] == "regulator":
            self.counts["regulator.terms"] += size

    # -- wrappers ----------------------------------------------------------

    def wrap(self, fn, layer: str, name: str):
        tracer = self
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                tracer.counts[f"{layer}.calls"] += 1
                gen = fn(*args, **kwargs)
                while True:
                    idx = tracer.open(name, layer, call=False)
                    try:
                        block = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer.close(idx)
                    tracer._after_block(name, idx, block)
                    yield block

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            tracer._after_call(name, layer, args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap the layers of the imported ``renorm`` package in place."""
        package = importlib.import_module("renorm")
        modules = [importlib.import_module(f"renorm.{n}") for n in (*LAYERS, "cli", "config", "verify")]
        replaced = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"renorm.{layer}")
            for name in mod.__all__:
                obj = getattr(mod, name)
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = (obj, self.wrap(obj, layer, name))
                elif inspect.isclass(obj):
                    for attr, val in list(vars(obj).items()):
                        if not attr.startswith("_") and inspect.isfunction(val):
                            setattr(obj, attr, self.wrap(val, layer, f"{obj.__name__}.{attr}"))
        for mod in (package, *modules):
            for attr, val in list(vars(mod).items()):
                entry = replaced.get(id(val))
                if entry is not None and entry[0] is val:
                    setattr(mod, attr, entry[1])
        quadrature = importlib.import_module("renorm.quadrature")
        quadrature.integrate = _QuadCounter(self, quadrature.integrate)

    # -- output --------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Totals per layer: counters plus self time (duration minus children)."""
        child = [0.0] * len(self.spans)
        for _, _, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: 0.0 for name in METRICS}
        out.update(self.counts)
        for i, (_, layer, _, start, end) in enumerate(self.spans):
            out[f"{layer}.self_s"] = out.get(f"{layer}.self_s", 0.0) + (end - start) - child[i]
        return {name: out[name] for name in METRICS}

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, layer, parent, start, end) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "parent": parent, "name": f"{layer}.{name}",
                                     "start": start, "end": end}) + "\n")


class _QuadCounter:
    """Stands in for ``scipy.integrate`` inside ``renorm.quadrature``,
    counting each ``quad`` run and its integrand evaluations."""

    def __init__(self, tracer: Tracer, integrate):
        self._tracer = tracer
        self._integrate = integrate

    def quad(self, *args, **kwargs):
        out = self._integrate.quad(*args, **kwargs)
        self._tracer.counts["quadrature.quad_runs"] += 1
        if kwargs.get("full_output") and len(out) > 2:
            self._tracer.counts["quadrature.neval"] += out[2]["neval"]
        return out

    def __getattr__(self, name):
        return getattr(self._integrate, name)
