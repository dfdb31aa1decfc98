"""Spans and counters around the public functions of the freqbin modules.

Tracing lives entirely in the benchmark: ``install`` replaces each target
function with a timing wrapper wherever callers look it up (every
``freqbin*`` module attribute bound to the original function object, or
the class attribute for a method), and ``uninstall`` puts the originals
back.  Nothing under ``src/`` is edited.

A span records its name, start, end and the span that caused it.  A
layer's self time is its span time minus the time its child spans cover.
Spans stay in memory; the caller writes them out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
from collections import Counter

import numpy as np

# Poisson means below this use exact CDF inversion in freqbin.rng; the
# counter splits draws at the same threshold.
POISSON_EXACT_MAX = 30.0


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.spans: list[tuple[int, str, int | None, float, float]] = []
        self.calls: Counter = Counter()
        self.seconds: Counter = Counter()
        self.self_seconds: Counter = Counter()
        self.children: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list] = []
        self._next_id = 0

    def open(self, name: str) -> list:
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            self.children[parent[1]] += 1
        frame = [self._next_id, name, parent[0] if parent else None,
                 time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def close(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        span_id, name, parent_id, start, covered = frame
        duration = end - start
        self.calls[name] += 1
        self.seconds[name] += duration
        self.self_seconds[name] += duration - covered
        if self._stack:
            self._stack[-1][4] += duration
        self.spans.append((span_id, name, parent_id, start, end))

    @contextlib.contextmanager
    def span(self, name: str):
        frame = self.open(name)
        try:
            yield
        finally:
            self.close(frame)

    def deterministic(self) -> dict:
        """Call and work counters; identical for identical inputs."""
        return {"calls": dict(sorted(self.calls.items())),
                "children": dict(sorted(self.children.items())),
                "counts": dict(sorted(self.counts.items()))}


def span(tracer: Tracer | None, name: str):
    """A span when tracing, else a no-op context."""
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def _count_size(key):
    def count(counts, args, kwargs, result):
        counts[key] += int(np.size(result))
    return count


def _count_len(key):
    def count(counts, args, kwargs, result):
        counts[key] += len(result)
    return count


def _count_poisson(counts, args, kwargs, result):
    lam = args[1] if len(args) > 1 else kwargs["lam"]
    low = np.broadcast_to(np.asarray(lam, dtype=np.float64) < POISSON_EXACT_MAX,
                          np.shape(result))
    counts["rng.poisson.draws"] += int(np.size(result))
    counts["rng.poisson.draws_lt30"] += int(np.count_nonzero(low))


def _count_file_bytes(key, arg_index):
    def count(counts, args, kwargs, result):
        counts[key] += os.path.getsize(args[arg_index])
    return count


def _count_lm(counts, args, kwargs, result):
    counts["fit.nfev"] += int(result.nfev)
    counts["fit.njev"] += int(result.njev or 0)
    counts["fit.lm_converged"] += int(result.status > 0)


# (module, attribute, span name, counter callback or None)
TARGETS = (
    ("freqbin.config", "load_config", "config.load_config", None),
    ("freqbin.scenarios", "run_scenario", "scenarios.run_scenario", None),
    ("freqbin.comb", "transmission", "comb.transmission",
     _count_size("comb.transmission.points")),
    ("freqbin.wss", "singles_spectrum_scan", "wss.singles_spectrum_scan",
     _count_len("wss.singles_spectrum_scan.points")),
    ("freqbin.hom", "hom_multi", "hom.hom_multi",
     _count_size("hom.hom_multi.points")),
    ("freqbin.hom", "central_dip_fwhm", "hom.central_dip_fwhm", None),
    ("freqbin.rng", "CounterRng.poisson", "rng.poisson", _count_poisson),
    ("freqbin.rng", "CounterRng.normals", "rng.normals",
     _count_size("rng.normals.draws")),
    ("freqbin.counting", "simulate_fringe", "counting.simulate_fringe",
     _count_len("counting.simulate_fringe.points")),
    ("freqbin.counting", "FringeDataset.to_csv", "counting.to_csv",
     _count_file_bytes("counting.to_csv.bytes", 1)),
    ("freqbin.counting", "load_dataset", "counting.load_dataset",
     _count_file_bytes("counting.load_dataset.bytes", 0)),
    ("freqbin.fit", "least_squares", "fit.least_squares", _count_lm),
    ("freqbin.fit", "fit_fringe", "fit.fit_fringe", None),
    ("freqbin.fit", "fit_envelope", "fit.fit_envelope", None),
    ("freqbin.fit", "reconstruct", "fit.reconstruct", None),
    ("freqbin.states", "hwp_angle_for_phase", "states.hwp_angle_for_phase", None),
)


def _wrap(tracer: Tracer, name: str, fn, count):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        frame = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(frame)
        if count is not None:
            count(tracer.counts, args, kwargs, result)
        return result
    return traced


def install(tracer: Tracer) -> list:
    """Wrap every target; returns what ``uninstall`` needs to undo it."""
    restore = []
    modules = [m for n, m in sorted(sys.modules.items())
               if n == "freqbin" or n.startswith("freqbin.")]
    for module_name, attr, name, count in TARGETS:
        owner = sys.modules[module_name]
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(owner, cls_name)
            original = cls.__dict__[method]
            restore.append((cls, method, original))
            setattr(cls, method, _wrap(tracer, name, original, count))
            continue
        original = getattr(owner, attr)
        wrapper = _wrap(tracer, name, original, count)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    restore.append((module, key, original))
                    setattr(module, key, wrapper)
    return restore


def uninstall(restore: list) -> None:
    for owner, key, original in reversed(restore):
        setattr(owner, key, original)


@contextlib.contextmanager
def tracing(tracer: Tracer):
    restore = install(tracer)
    try:
        yield tracer
    finally:
        uninstall(restore)
