"""In-memory span tracer for the benchmark's traced run.

The tracer wraps public tandemwalk functions at the names their callers
look up (module globals and class attributes), so no file under `src/`
changes.  Each call records a span: name, start, end and parent span.
Spans stay in flat arrays until the pass ends; self time is each span's
duration minus the time its child spans cover.

A wrapped name that the package no longer has is reported as absent.
Spans cannot cross a process boundary, so traced searches run with one
worker.
"""

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter

import numpy as np

from workloads import grid_points

#: (span name, module, attribute) of every wrapped function; layer = prefix
TARGETS = (
    ("core.step", "tandemwalk.core", "step"),
    ("core.coin_matrix", "tandemwalk.core", "CoinOperator.matrix"),
    ("core.measure_spin", "tandemwalk.core", "measure_spin"),
    ("entanglement.record", "tandemwalk.entanglement", "record_from_collapse"),
    ("entanglement.entropy", "tandemwalk.entanglement", "entropy"),
    ("sweep.sweep_1d", "tandemwalk.sweep", "sweep_1d"),
    ("sweep.grid_search", "tandemwalk.sweep", "grid_search"),
    ("cli.build_parser", "tandemwalk.cli", "build_parser"),
    ("cli.emit", "tandemwalk.cli", "_emit"),
    ("cli.main", "tandemwalk.cli", "main"),
)


class Tracer:
    """Spans of one traced pass plus counters taken at the same boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.counters = Counter()
        self.first_hit_ns: list[int] = []

    def _intern(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name, fn, after=None):
        """Wrap a callable so each call records one span."""
        nid = self._intern(name)
        names, parents, starts, ends = self.name_id, self.parent, self.start, self.end
        stack, clock = self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def wrap_iter(self, name, fn, on_create):
        """Wrap a generator function: each next() is one span."""
        nid = self._intern(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            on_create(args, kwargs)
            return self._spans(nid, fn(*args, **kwargs))

        return traced

    def _spans(self, nid, it):
        clock, first, hits = time.perf_counter_ns, None, 0
        while True:
            sid = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self.stack[-1])
            self.end.append(0)
            self.stack.append(sid)
            self.start.append(clock())
            first = self.start[sid] if first is None else first
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self.end[sid] = clock()
                self.stack.pop()
            if hits == 0:
                self.first_hit_ns.append(self.end[sid] - first)
            hits += 1
            self.counters["grid_hits"] += 1
            yield item

    def stats(self) -> dict:
        """name -> (calls, total seconds, self seconds); plus consistency data."""
        n = len(self.start)
        start = np.frombuffer(self.start, dtype=np.int64, count=n).astype(np.float64)
        end = np.frombuffer(self.end, dtype=np.int64, count=n).astype(np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32, count=n)
        name_id = np.frombuffer(self.name_id, dtype=np.int32, count=n)
        dur = end - start
        child = parent >= 0
        cover = np.bincount(parent[child], weights=dur[child], minlength=n)
        own = dur - cover
        up = parent[child]
        out = {}
        for i, name in enumerate(self.names):
            mask = name_id == i
            out[name] = (int(mask.sum()), float(dur[mask].sum()) / 1e9,
                         float(own[mask].sum()) / 1e9)
        return {
            "by_name": out,
            "self_total_s": float(own.sum()) / 1e9,
            "root_total_s": float(dur[~child].sum()) / 1e9,
            "min_self_s": float(own.min()) / 1e9 if n else 0.0,
            # every span closed, and inside the span that was open when it began
            "well_formed": self.stack == [-1] and bool(
                np.all(start[child] >= start[up]) and np.all(end[child] <= end[up])),
        }


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "tandemwalk" or name.startswith("tandemwalk."))]


def install(tracer: Tracer):
    """Wrap every target; return (restore callable, absent span names)."""
    patches, absent = [], []

    def count_zero_prob(args, kwargs, result):
        if args and getattr(args[0], "probability", None) == 0.0:
            tracer.counters["zero_prob"] += 1

    def count_sweep_points(args, kwargs, result):
        tracer.counters["sweep_points"] += len(args[0].values())

    def count_grid(args, kwargs):
        bound = inspect.signature(originals["sweep.grid_search"]).bind(*args, **kwargs)
        bound.apply_defaults()
        points = grid_points(bound.arguments["grid_step"])
        n_steps = bound.arguments["n_steps"]
        per_walk = 1 if bound.arguments["mode"].value == "averaged" else n_steps - 1
        tracer.counters["grid_points"] += points
        tracer.counters["grid_point_steps"] += points * n_steps
        tracer.counters["grid_decisions"] += points * 2 * per_walk

    def wrap_parse_args(args, kwargs, parser):
        parser.parse_args = tracer.wrap("cli.parse_args", parser.parse_args)

    after = {
        "entanglement.record": count_zero_prob,
        "sweep.sweep_1d": count_sweep_points,
        "cli.build_parser": wrap_parse_args,
    }
    originals = {}
    for span, module_name, attr in TARGETS:
        try:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
        except (ImportError, AttributeError):
            absent.append(span)
            continue
        originals[span] = original
        if span == "sweep.grid_search":
            wrapped = tracer.wrap_iter(span, original, count_grid)
        else:
            wrapped = tracer.wrap(span, original, after.get(span))
        if path:  # a method: patch the class attribute
            patches.append((owner, leaf, original))
            setattr(owner, leaf, wrapped)
            continue
        for module in _package_modules():
            for key, value in list(vars(module).items()):
                if value is original:
                    patches.append((module, key, original))
                    setattr(module, key, wrapped)

    def restore():
        for owner, key, original in reversed(patches):
            setattr(owner, key, original)

    return restore, absent
