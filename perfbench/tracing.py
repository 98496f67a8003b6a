"""Outside-in tracing of the metricdim package, from the benchmark's side.

The tracer replaces every public function of every metricdim module, in
every module namespace that binds it, with a wrapper that records a span
(name, start, end, parent, root) in memory. Nothing under ``src/`` is
edited: the wrappers are installed and removed around traced jobs only, so
untraced jobs run the program exactly as shipped.

A span is named ``<defining module>.<function>``, so a function imported by
name into another module (``from .core import distances_to``) is traced
under one name wherever it is called from. Counts are read from return
values (``QueryStats``, ``CoverResult``, ``TreeStats`` and the length of a
distance vector); a return value that no longer has the expected shape is
reported as unreadable rather than crashing the run. Times are integer
nanoseconds, so self time (span duration minus the durations of its child
spans) is exact and never negative.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

PACKAGE = "metricdim"


def _query_stats(result):
    stats = result[1]
    return {
        "queries": 1,
        "candidates": stats.candidates_after_pruning,
        "discarded": stats.discarded_fraction,
        "results": stats.result_size,
        "evals": stats.distance_computations,
    }


def _cover(result):
    return {"centers": len(result.centers), "points": result.covered_count}


def _tree_stats(result):
    stats = result[1]
    return {"nodes": stats.node_count, "depth": stats.depth, "max_degree": stats.max_degree}


# Span name -> reader of the counts carried by that function's return value.
OBSERVERS = {
    "core.distances_to": lambda result: {"rows": len(result)},
    "doubling.greedy_cover": _cover,
    "pivot.range_query": _query_stats,
    "nettree.net_range_query": _query_stats,
    "nettree.build_net_tree": _tree_stats,
}


def package_modules():
    """Import and return every module of the package, keyed by short name."""
    package = importlib.import_module(PACKAGE)
    modules = {"": package}
    for info in pkgutil.iter_modules(package.__path__):
        if info.name != "__main__":
            modules[info.name] = importlib.import_module(f"{PACKAGE}.{info.name}")
    return modules


def span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    """Collects spans in memory while its wrappers are installed, which is
    only inside ``root``."""

    def __init__(self):
        self.spans = []  # (name, start_ns, end_ns, parent, root, counts)
        self.unreadable = set()
        self._stack = []
        self._bindings = []  # (module, attribute, original, wrapper)
        wrappers = {}
        for module in package_modules().values():
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if not obj.__module__.startswith(PACKAGE + "."):
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(obj, span_name(obj))
                self._bindings.append((module, attr, obj, wrappers[obj]))
        self.traced_names = {span_name(fn) for fn in wrappers}

    def _wrap(self, fn, name):
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack
            index = len(self.spans)
            parent = stack[-1] if stack else -1
            root = stack[0] if stack else index
            self.spans.append(None)
            stack.append(index)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                self.spans[index] = (name, start, end, parent, root, None)
            if observe is not None:
                try:
                    counts = observe(result)
                except (AttributeError, TypeError, IndexError, KeyError):
                    self.unreadable.add(name)
                else:
                    self.spans[index] = (name, start, end, parent, root, counts)
            return result

        return traced

    @contextmanager
    def root(self, name: str):
        """A root span around one set-up or job, with the wrappers installed
        for its length; spans under it share its index as their root."""
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)
        start = perf_counter_ns()
        try:
            yield index
        finally:
            end = perf_counter_ns()
            for module, attr, original, _ in self._bindings:
                setattr(module, attr, original)
            self._stack.pop()
            self.spans[index] = (name, start, end, -1, index, None)

    def self_times(self) -> list[int]:
        """Self time of each span in ns: its duration minus its children's."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        return [end - start - child_ns[i] for i, (_, start, end, *_rest) in enumerate(self.spans)]

    def totals(self, weights: dict) -> "Totals":
        """Calls, self time and counts per span name, each span weighted by
        ``weights[root]``; spans under roots not in ``weights`` are skipped.
        Sums are taken per weight and scaled once, so that integer counts
        stay exact."""
        raw = defaultdict(Totals)
        for span, self_ns in zip(self.spans, self.self_times()):
            name, _, _, _, root, counts = span
            if root not in weights:
                continue
            group = raw[weights[root]]
            group.calls[name] += 1
            group.self_s[name] += self_ns * 1e-9
            for key, value in (counts or {}).items():
                group.counts[name, key] += value
        totals = Totals()
        for weight, group in raw.items():
            for field in ("calls", "self_s", "counts"):
                merged = getattr(totals, field)
                for key, value in getattr(group, field).items():
                    merged[key] += weight * value
        return totals


class Totals:
    def __init__(self):
        self.calls = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)

    def count(self, name: str, key: str) -> float:
        return self.counts[name, key]
