"""Spans and counts around the public call of each alexarr layer.

The tracer replaces a function at the module attribute its callers look
up (for example ``alexarr.alexinv.iter_minors``), so the program runs
unchanged.  A span records name, start, end, parent and job id; spans are
kept in memory and written out when the run ends.  A span's self time is
its duration minus the time of its child spans.

``iter_minors`` returns a generator: its span is the time spent inside the
generator's ``next``, which is charged as a child of whoever consumes it
(``laurent_gcd``), so the gcd's self time excludes the minors.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import Counter
from time import perf_counter


def _points(t, data):
    t.counts["arrangements.intersect.points"] += len(data.points)


def _relator_letters(t, result):
    t.counts["arrangements.sweep.relator_letters"] += sum(len(r) for r in result[0].relators)


def _entry_terms(t, A):
    t.counts["foxcalc.matrix.entry_terms"] += sum(
        len(p.terms) for row in A.matrix.entries for p in row)


def _poly_terms(t, delta):
    t.counts["alexinv.degree.poly_terms"] += len(delta.terms)


def _diagonalized(t, result):
    factors, free_rank = result
    t.counts["ringkit.diagonalize.free_rank"] += free_rank
    t.counts["ringkit.diagonalize.torsion_degree"] += sum(f.spread() for f in factors)
    t.counts["ringkit.diagonalize.factor_terms"] += sum(
        len(c.num.terms) + len(c.den.terms) for f in factors for c in f.coeffs)


def _minor(t, minor):
    t.counts["ringkit.minors.yielded"] += 1
    if minor.terms:
        t.counts["ringkit.minors.nonzero"] += 1
        t.maxima["ringkit.minors.max_terms"] = max(
            t.maxima["ringkit.minors.max_terms"], len(minor.terms))


# (module, attribute its callers look up, layer, count hook)
WRAPPED = [
    ("alexarr.cli", "main", "cli", None),
    ("alexarr.cli", "intersect_arrangement", "arrangements.intersect", _points),
    ("alexarr.cli", "classify_arrangement", "arrangements.classify", None),
    ("alexarr.cli", "combinatorial_bounds", "arrangements.classify", None),
    ("alexarr.cli", "vanishing_and_infinite_verdicts", "arrangements.classify", None),
    ("alexarr.cli", "wiring_presentation", "arrangements.sweep", _relator_letters),
    ("alexarr.alexinv", "abelianize", "groups.abelianize", None),
    ("alexarr.groups", "smith_normal_form_int", "ringkit.snf", None),
    ("alexarr.alexinv", "alexander_matrix", "foxcalc.matrix", _entry_terms),
    ("alexarr.alexinv", "alexander_polynomial", "alexinv.degree", _poly_terms),
    ("alexarr.alexinv", "laurent_gcd", "ringkit.gcd", None),
    ("alexarr.alexinv", "delta0_via_pid", "alexinv.pid", None),
    ("alexarr.alexinv", "grade_substitute", "ringkit.grade_substitute", None),
    ("alexarr.alexinv", "diagonalize_over_pid", "ringkit.diagonalize", _diagonalized),
]
WRAPPED_GENERATORS = [
    ("alexarr.alexinv", "iter_minors", "ringkit.minors", _minor),
]
LAYERS = sorted({w[2] for w in WRAPPED + WRAPPED_GENERATORS})
COUNTS = [
    "arrangements.intersect.points", "arrangements.sweep.relator_letters",
    "foxcalc.matrix.entry_terms", "alexinv.degree.poly_terms",
    "ringkit.minors.yielded", "ringkit.minors.nonzero",
    "ringkit.diagonalize.free_rank", "ringkit.diagonalize.torsion_degree",
    "ringkit.diagonalize.factor_terms", "cli.report_bytes",
]


class Tracer:
    """Open spans on a stack; closed spans, self times and counts in memory."""

    def __init__(self):
        self.job = None
        self.spans = []           # (id, name, job, parent, start, end, self_s)
        self.stack = []           # open frames: [id, name, start, child_s]
        self.self_s = Counter()
        self.calls = Counter()
        self.counts = Counter()
        self.maxima = Counter()
        self._ids = 0
        self._patches = []

    def _new_id(self) -> int:
        self._ids += 1
        return self._ids

    def _enter(self, sid: int, name: str) -> None:
        self.stack.append([sid, name, perf_counter(), 0.0])

    def _exit(self) -> tuple:
        sid, name, start, child = self.stack.pop()
        end = perf_counter()
        self.self_s[name] += end - start - child
        if self.stack:
            self.stack[-1][3] += end - start
        return sid, name, start, end, child

    def current(self) -> str | None:
        """Name of the innermost open span."""
        return self.stack[-1][1] if self.stack else None

    def reset_stack(self) -> None:
        """Drop spans left open by a job that was stopped mid-call."""
        self.stack.clear()

    def install(self) -> None:
        for module_name, attr, name, count in WRAPPED:
            self._patch(module_name, attr, functools.partial(self._wrap, name, count))
        for module_name, attr, name, count in WRAPPED_GENERATORS:
            self._patch(module_name, attr, functools.partial(self._wrap_gen, name, count))

    def uninstall(self) -> None:
        for module, attr, orig in reversed(self._patches):
            setattr(module, attr, orig)
        self._patches.clear()

    def _patch(self, module_name, attr, make) -> None:
        module = importlib.import_module(module_name)
        orig = getattr(module, attr)
        self._patches.append((module, attr, orig))
        setattr(module, attr, functools.wraps(orig)(make(orig)))

    def _wrap(self, name, count, orig):
        def traced(*args, **kwargs):
            sid = self._new_id()
            parent = self.stack[-1][0] if self.stack else None
            self.calls[name] += 1
            self._enter(sid, name)
            try:
                result = orig(*args, **kwargs)
            finally:
                _, _, start, end, child = self._exit()
                self.spans.append((sid, name, self.job, parent, start, end, end - start - child))
            if count is not None:
                count(self, result)
            return result
        return traced

    def _wrap_gen(self, name, count, orig):
        def traced(*args, **kwargs):
            self.calls[name] += 1
            return self._timed_iter(name, count, orig(*args, **kwargs))
        return traced

    def _timed_iter(self, name, count, inner):
        sid, job = self._new_id(), self.job
        parent = self.stack[-1][0] if self.stack else None
        first = last = None
        busy = 0.0
        try:
            while True:
                self._enter(sid, name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    _, _, start, last, child = self._exit()
                    first = start if first is None else first
                    busy += last - start - child
                count(self, item)
                yield item
        finally:
            inner.close()
            if first is not None:
                self.spans.append((sid, name, job, parent, first, last, busy))

    def write(self, path) -> None:
        keys = ("id", "name", "job", "parent", "start", "end", "self_s")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, span)) for span in self.spans], fh)
