"""Span tracer that instruments frem from outside the package.

``Tracer.wrap`` replaces a module-level function with a wrapper that records
one span per call, and does so for every binding of that function object in
every loaded ``frem`` module: ``from .funcspace import pairwise_l2`` in
``frem.estimator`` is a separate name from ``frem.funcspace.pairwise_l2``, and
both must be replaced for the count to be complete. ``restore`` puts every
original binding back.

Spans are kept in memory as ``[name, parent, start, end, failed]`` rows and
written out once, at the end of the run. A span's self time is its duration
minus the durations of its direct children, which never overlap because the
traced program runs on one thread.
"""

from __future__ import annotations

import json
import sys
import time
import warnings
from collections import defaultdict
from contextlib import contextmanager

NAME, PARENT, START, END, FAILED = range(5)


def _frem_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "frem" or name.startswith("frem."))]


def rebind(module, attr: str, replacement):
    """Point every frem binding of ``module.attr`` at ``replacement``.

    Returns the list of (module, name, original) needed to undo the change.
    """
    original = getattr(module, attr)
    undo = []
    for mod in _frem_modules():
        for name, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, name, replacement)
                undo.append((mod, name, original))
    return undo


def unbind(undo) -> None:
    for mod, name, original in reversed(undo):
        setattr(mod, name, original)


class Tracer:
    """In-memory spans and counters for one traced phase."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.values: dict[str, object] = {}
        self._stack: list[int] = []
        self._undo: list = []

    def wrap(self, module, attr: str, span: str, observe=None) -> None:
        """Record a span named ``span`` around every call of ``module.attr``.

        ``observe(tracer, args, kwargs, result)`` runs after each call that
        returns, to record counts or values derived from the call.
        """
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            with self.span(span):
                result = original(*args, **kwargs)
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        traced.__wrapped__ = original
        self._undo.extend(rebind(module, attr, traced))

    def restore(self) -> None:
        unbind(self._undo)
        self._undo = []

    @contextmanager
    def span(self, name: str):
        """Record the enclosed block as one span, a child of the innermost open one."""
        row = [name, self._stack[-1] if self._stack else -1, time.perf_counter(), 0.0, False]
        self._stack.append(len(self.spans))
        self.spans.append(row)
        try:
            yield
        except BaseException:
            row[FAILED] = True
            raise
        finally:
            row[END] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def counting_warnings(self):
        """Count every warning raised, per layer of the innermost open span.

        Warnings are counted, not printed and not raised: the ``always``
        filter only disables the once-per-location deduplication.
        """
        def on_warning(message, category, filename, lineno, file=None, line=None):
            layer = self.spans[self._stack[-1]][NAME].split(".")[0] if self._stack else "bench"
            self.counts[f"{layer}.warnings"] += 1

        with warnings.catch_warnings():
            warnings.simplefilter("always")
            warnings.showwarning = on_warning
            yield

    def summary(self) -> dict:
        """Per span name: total seconds, self seconds, calls and failed calls."""
        child = [0.0] * len(self.spans)
        for row in self.spans:
            if row[PARENT] >= 0:
                child[row[PARENT]] += row[END] - row[START]
        out: dict[str, dict] = {}
        for row, covered in zip(self.spans, child):
            agg = out.setdefault(row[NAME], {"s": 0.0, "self_s": 0.0, "calls": 0, "errors": 0})
            dur = row[END] - row[START]
            agg["s"] += dur
            agg["self_s"] += dur - covered
            agg["calls"] += 1
            agg["errors"] += int(row[FAILED])
        return out

    def dump(self, path) -> None:
        """Write spans as JSON rows, with start and end relative to the first span."""
        t0 = self.spans[0][START] if self.spans else 0.0
        rows = [[r[NAME], r[PARENT], r[START] - t0, r[END] - t0, r[FAILED]] for r in self.spans]
        with open(path, "w") as fh:
            json.dump({"columns": ["name", "parent", "start_s", "end_s", "failed"],
                       "spans": rows}, fh)
