"""Spans recorded from outside the library, around calls into its modules.

A span has a name, start, end, parent span and the id of the problem it
belongs to, plus optional work counts.  Spans stay in memory until the run
ends.  Library functions are wrapped where the caller looks them up: the
``interpolate`` module holds its own ``eval_fatou``, ``sup_off_arc``,
``choose_power`` and ``cluster_by_oscillation``, and ``verify`` holds its own
``eval_interpolant`` and check functions.  One ``eval_fatou`` serves build
and evaluation, so its spans are attributed by their root span.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

import numpy as np


class Span:
    __slots__ = ("name", "start", "end", "parent", "problem", "counts", "child_time")

    def __init__(self, name, start, parent, problem):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.problem = problem
        self.counts = {}
        self.child_time = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def root_name(self) -> str:
        s = self
        while s.parent is not None:
            s = s.parent
        return s.name

    def to_json_obj(self, index_of) -> dict:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": None if self.parent is None else index_of[id(self.parent)],
            "problem": self.problem,
            "counts": self.counts,
        }


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.problem: str | None = None
        self._stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        s = Span(name, time.perf_counter(), parent, self.problem)
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                parent.child_time += s.duration

    def wrap(self, module, attr: str, name: str, count=None) -> None:
        """Replace ``module.attr`` by a spanned call; ``count(args, result)``
        returns work counts to attach to the span."""
        original = getattr(module, attr)

        def spanned(*args, **kwargs):
            with self.span(name) as s:
                result = original(*args, **kwargs)
                if count is not None:
                    s.counts.update(count(args, result))
            return result

        self._patched.append((module, attr, original))
        setattr(module, attr, spanned)

    def unwrap_all(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    @staticmethod
    def self_time(s: Span) -> float:
        """Duration not covered by direct child spans (children of one
        thread never overlap)."""
        return s.duration - s.child_time

    def write(self, path) -> None:
        index_of = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([s.to_json_obj(index_of) for s in self.spans], fh)


ON_CIRCLE = 1e-12


def _count_eval_fatou(args, result):
    fatou, z = args[0], args[1]
    return {"terms": int(np.size(z)) * len(fatou.peaks)}


def _count_eval_interpolant(args, result):
    interpolant, z = args[0], args[1]
    zs = np.asarray(z)
    terms = sum(len(s.lambdas) for s in interpolant.stages)
    boundary = int(np.count_nonzero(np.abs(zs) >= 1.0 - ON_CIRCLE))
    return {"points": int(zs.size), "terms": int(zs.size) * terms, "boundary": boundary}


def _count_power(args, result):
    return {"power": int(result)}


def install_library_spans(tracer: Tracer, interpolate_mod, verify_mod) -> None:
    tracer.wrap(interpolate_mod, "cluster_by_oscillation", "circle.cluster")
    tracer.wrap(interpolate_mod, "sup_off_arc", "fatou.sup_off_arc")
    tracer.wrap(interpolate_mod, "choose_power", "fatou.choose_power", _count_power)
    tracer.wrap(interpolate_mod, "eval_fatou", "fatou.eval_fatou", _count_eval_fatou)
    tracer.wrap(verify_mod, "eval_interpolant", "interpolate.eval", _count_eval_interpolant)
    tracer.wrap(verify_mod, "check_peak_values", "verify.peak_values")
    tracer.wrap(verify_mod, "check_boundary_sup", "verify.boundary_sup")
    tracer.wrap(verify_mod, "check_max_modulus", "verify.max_modulus")
    tracer.wrap(verify_mod, "check_cauchy_identity", "verify.cauchy")
