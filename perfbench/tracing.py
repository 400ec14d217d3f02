"""Spans around the public functions of each fastmvg module.

A traced run swaps the module or class attribute that the caller looks
up at call time (``fastmvg.horseshoe.update_beta``,
``fastmvg.structured.cholesky``, ``RngStream.standard_normal``, ...)
for a wrapper that records a span.  Nothing under ``src/`` changes.
Parents live on a thread-local stack, so spans nest correctly when the
program runs work on several threads.
"""
from __future__ import annotations

import json
import threading
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import fastmvg.experiments as experiments
import fastmvg.horseshoe as horseshoe
import fastmvg.structured as structured
from fastmvg.rng import RngStream


class Tracer:
    """In-memory span recorder; wrappers record only while ``active``."""

    def __init__(self):
        self.active = False
        self.spans: list[list] = []  # [name, start, end, parent index, thread id]
        self.counts: dict[str, int] = defaultdict(int)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, count=None):
        """fn recorded as span ``name``; ``count(args)`` adds to counts[name]."""
        spans, lock, stack_of = self.spans, self._lock, self._stack

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if count is not None:
                self.counts[name] += count(args)
            stack = stack_of()
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, threading.get_ident()]
            with lock:
                stack.append(len(spans))
                spans.append(record)
            record[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()

        return traced

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds.

        Self time is a span's duration minus the time its child spans
        cover; children of one span run on its thread and never overlap.
        """
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        stats: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for i, (name, start, end, _, _) in enumerate(self.spans):
            s = stats[name]
            s["calls"] += 1
            s["total_s"] += end - start
            s["self_s"] += end - start - child[i]
        return stats

    def write(self, path: Path, limit: int) -> None:
        """The first ``limit`` spans as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as f:
            for name, start, end, parent, thread in self.spans[:limit]:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "thread": thread}) + "\n")


def _normals(args) -> int:
    return int(args[1])  # RngStream.standard_normal(self, k)


def _targets():
    """(owner, attribute, span name, counter) for every traced call site."""
    diag = structured.DiagonalScale
    return [
        (horseshoe, "run_chain", "horseshoe.run_chain", None),
        (horseshoe, "update_beta", "horseshoe.update_beta", None),
        (horseshoe, "update_lambda", "horseshoe.update_lambda", None),
        (horseshoe, "update_tau", "horseshoe.update_tau", None),
        (horseshoe, "update_sigma2", "horseshoe.update_sigma2", None),
        (horseshoe, "fast_sample", "structured.fast_sample", None),
        (horseshoe, "StructuredGaussian", "structured.StructuredGaussian", None),
        (horseshoe, "DiagonalScale", "structured.DiagonalScale", None),
        (structured, "fast_sample", "structured.fast_sample", None),
        (structured, "posterior_mean", "structured.posterior_mean", None),
        (structured, "log_density", "structured.log_density", None),
        (structured, "StructuredGaussian", "structured.StructuredGaussian", None),
        (structured, "DiagonalScale", "structured.DiagonalScale", None),
        (structured, "cholesky", "linalg.cholesky", None),
        (structured, "solve_spd", "linalg.solve_spd", None),
        (diag, "phi_times_scale", "structured.DiagonalScale.phi_times_scale", None),
        (diag, "sample_zero_mean", "structured.DiagonalScale.sample_zero_mean", None),
        (RngStream, "standard_normal", "rng.standard_normal", _normals),
        (RngStream, "uniform", "rng.uniform", None),
        (RngStream, "gamma", "rng.gamma", None),
        (experiments, "compute_metrics", "experiments.compute_metrics", None),
    ]


@contextmanager
def instrumented(tracer: Tracer):
    """Swap every traced attribute for its wrapper; restore on exit."""
    saved = []
    try:
        for owner, attr, name, count in _targets():
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, count))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
