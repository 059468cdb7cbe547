"""Spans and counters around teig's module-level functions.

The tracer wraps functions from outside the program: it replaces each
traced function in every loaded ``teig`` module that holds it, so calls
through ``from x import f`` bindings are seen too. Span statistics are
aggregated in memory (calls, total and self time per span, calls per
parent span) and exported once the traced call returns.

A span's self time is its duration minus the time of the spans it called.
A counter is untimed: it counts the calls of a hot inner function against
the innermost open span, so that evaluations per layer are measured
without cutting the layer's self time into small spans.
"""

import math
import sys
import time
from collections import defaultdict

# span name -> functions it times, as (module, attribute)
SPANS = {
    "cli.main": [("teig.cli", "main")],
    "model.load_validate": [("teig.model", "load_problem"), ("teig.model", "validate_problem")],
    "experiments.counting_experiment": [("teig.experiments", "counting_experiment")],
    "assembly.assemble": [("teig.assembly", "assemble")],
    "assembly.assemble_A": [("teig.assembly", "assemble_A")],
    "eigensolve.lowest_k": [("teig.eigensolve", "lowest_k")],
    "curves.sweep": [("teig.curves", "sweep")],
    "curves.find_crossings": [("teig.curves", "find_crossings")],
    "curves.refine": [("teig.curves", "refine")],
    "curves.report": [("teig.curves", "report")],
    "radial.det_grid": [("teig.radial", "_det_grid")],
    "radial.bisect": [("teig.radial", "_bisect")],
    "radial.polish_root": [("teig.radial", "_polish_root")],
    "serialize.write_text": [("teig.serialize", "write_text")],
}

# counter name -> function whose calls are counted
COUNTERS = {
    "radial.det_scalar": ("teig.radial", "_det_scalar"),
    "radial.scan_determinant": ("teig.radial", "_scan_determinant"),
    "specfun.radial_wave_eval": ("teig.specfun", "_radial_wave_eval"),
}


def _probe_lowest_k(args, kwargs, result):
    n = int(args[0].shape[0])
    return {"dim": n, "flops_computed": n**3}


def _probe_det_grid(args, kwargs, result):
    return {"points": len(args[5]), "nan_cells": sum(1 for v in result if math.isnan(v))}


def _probe_polish_root(args, kwargs, result):
    return {"moved": int(result != args[1])}


# span name -> probe(args, kwargs, result) -> amounts added to the span's stats
PROBES = {
    "eigensolve.lowest_k": _probe_lowest_k,
    "curves.sweep": lambda args, kwargs, result: {"points": len(result.lambdas)},
    "curves.find_crossings": lambda args, kwargs, result: {"brackets": len(result)},
    "curves.report": lambda args, kwargs, result: {"entries": len(result.entries)},
    "radial.det_grid": _probe_det_grid,
    "radial.polish_root": _probe_polish_root,
    "serialize.write_text": lambda args, kwargs, result: {"bytes": len(args[1].encode())},
}


class Tracer:
    def __init__(self):
        self.stats = defaultdict(lambda: defaultdict(int))  # span -> stat -> amount
        self.edges = defaultdict(int)  # "parent>child" -> calls; parent "" at top level
        self.stack = []  # open spans as [name, time spent in child spans]
        self.absent = []  # traced names the program no longer has
        self.probe_errors = 0

    def install(self):
        """Wrap every traced function; a name the program lacks is recorded
        as absent and left out."""
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "teig"]
        for name, targets in SPANS.items():
            for module, attr in targets:
                func = getattr(sys.modules.get(module), attr, None)
                if func is None:
                    self.absent.append(f"{module}.{attr}")
                else:
                    self._replace(modules, func, self._span(name, func, PROBES.get(name)))
        for name, (module, attr) in COUNTERS.items():
            func = getattr(sys.modules.get(module), attr, None)
            if func is None:
                self.absent.append(f"{module}.{attr}")
            else:
                self._replace(modules, func, self._counter(name, func))

    @staticmethod
    def _replace(modules, func, wrapper):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is func:
                    setattr(module, attr, wrapper)

    def _span(self, name, func, probe):
        stack, stats, edges = self.stack, self.stats[name], self.edges
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if parent is not None:
                    parent[1] += duration
                stats["calls"] += 1
                stats["total_s"] += duration
                stats["self_s"] += duration - frame[1]
                edges[f"{parent[0] if parent else ''}>{name}"] += 1
            if probe is not None:
                try:
                    amounts = probe(args, kwargs, result)
                except Exception:  # a changed signature must not stop the run
                    self.probe_errors += 1
                else:
                    for key, amount in amounts.items():
                        stats[key] += amount
            return result

        return wrapper

    def _counter(self, name, func):
        stack, edges = self.stack, self.edges

        def wrapper(*args, **kwargs):
            edges[f"{stack[-1][0] if stack else ''}>{name}"] += 1
            return func(*args, **kwargs)

        return wrapper

    def export(self):
        return {
            "spans": {name: dict(stats) for name, stats in self.stats.items()},
            "edges": dict(self.edges),
            "absent": self.absent,
            "probe_errors": self.probe_errors,
        }
