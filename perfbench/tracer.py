"""Spans around calls into the ttpp package, recorded from outside it.

The tracer replaces functions at their module or class attribute with
wrappers that append one span per call: name, start, end, parent span and
the number of tensors created before and after. Nothing under src/ is
edited. A module-level function is rebound in every ttpp module that holds
the same object, so `from .tensor import sgd_step` call sites are traced
too. A target that no longer exists is recorded in `absent` and skipped.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import time

PACKAGE = "ttpp"

# span layout: (name, start, end, parent index or -1, nodes at start, nodes at end);
# a list while the call is open, a tuple once it has returned
NAME, START, END, PARENT, NODES_IN, NODES_OUT = range(6)


class Tracer:
    """Spans, kept results and absent names of one run's wrapped calls."""

    def __init__(self):
        self.spans: list = []
        self.results: list[tuple[str, object]] = []  # (name, keep(args, return))
        self.absent: list[str] = []
        self.nodes = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # ---- installation -------------------------------------------------

    def _resolve(self, module: str, attr: str, cls: str | None = None):
        """Returns (owner, original) or None after recording the name as absent."""
        label = ".".join(x for x in (module, cls, attr) if x)
        try:
            owner = importlib.import_module(f"{PACKAGE}.{module}")
            if cls is not None:
                owner = getattr(owner, cls)
            return owner, getattr(owner, attr)
        except (ImportError, AttributeError):
            if label not in self.absent:
                self.absent.append(label)
            return None

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def function(self, module: str, attr: str, keep=None, mark=None) -> None:
        """Trace a module-level function wherever a ttpp module binds it.

        `keep(args, result)`, when given, is stored in `results` per call; it
        should return something small, as the tracer holds it to the end.
        `mark`, when given, is called just before and just after each span,
        outside it (the speed probes of refspeed.SpeedMeter).
        """
        found = self._resolve(module, attr)
        if found is None:
            return
        _, original = found
        wrapper = self._spanned(f"{module}.{attr}", original, keep, mark)
        for name, mod in list(sys.modules.items()):
            if name != PACKAGE and not name.startswith(PACKAGE + "."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)

    def method(self, module: str, cls: str, attr: str) -> None:
        """Trace a method (or __init__) at its class attribute."""
        found = self._resolve(module, attr, cls)
        if found is None:
            return
        owner, original = found
        self._set(owner, attr, self._spanned(f"{module}.{cls}.{attr}", original))

    def factory(self, module: str, cls: str, attr: str, span_name: str,
                mark=None, every: int = 1) -> None:
        """Trace every call of the callable a method returns (e.g. `scorer`)."""
        found = self._resolve(module, attr, cls)
        if found is None:
            return
        owner, original = found

        def make(*args, **kwargs):
            return self.marked(span_name, original(*args, **kwargs), mark, every)

        self._set(owner, attr, make)

    def marked(self, span_name: str, fn, mark=None, every: int = 1):
        """`fn` with one span per call; with `mark`, every `every`-th call is
        preceded by a mark, outside its span."""
        spanned = self._spanned(span_name, fn)
        if mark is None:
            return spanned
        calls = itertools.count()

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if next(calls) % every == 0:
                mark()
            return spanned(*args, **kwargs)

        return wrapper

    def count_constructions(self, module: str, cls: str) -> None:
        """Count instances of a class as they are built (tensor nodes)."""
        found = self._resolve(module, "__init__", cls)
        if found is None:
            return
        owner, original = found
        tracer = self

        def init(obj, *args, **kwargs):
            tracer.nodes += 1
            original(obj, *args, **kwargs)

        self._set(owner, "__init__", init)

    def drop_since(self, n_spans: int, n_results: int) -> None:
        """Forget the spans and kept results recorded after the given counts."""
        del self.spans[n_spans:], self.results[n_results:]

    def restore(self) -> None:
        """Put every replaced attribute back, newest first."""
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _spanned(self, name: str, fn, keep=None, mark=None):
        spans = self.spans
        stack = self._stack
        results = self.results
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if mark is not None:
                mark()
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, tracer.nodes, 0])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                span = spans[idx]
                # a tuple of plain values drops out of the garbage collector's
                # tracking, so long runs do not lengthen collection pauses
                spans[idx] = (name, span[START], clock(), span[PARENT], span[NODES_IN],
                              tracer.nodes)
                if mark is not None:
                    mark()
            if keep is not None:
                results.append((name, keep(args, out)))
            return out

        return wrapper


def summarize(spans, duration=None) -> dict[str, dict[str, float]]:
    """Per span name: calls, total seconds, self seconds, nodes created inside.

    Self time is a span's duration minus the durations of its direct
    children; spans nest without overlap because the program is
    single-threaded. `duration(start, end)` replaces end - start.
    """
    durations = [
        duration(span[START], span[END]) if duration else span[END] - span[START]
        for span in spans
    ]
    child_time = [0.0] * len(spans)
    for span, dur in zip(spans, durations):
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += dur
    out: dict[str, dict[str, float]] = {}
    for idx, (span, dur) in enumerate(zip(spans, durations)):
        row = out.setdefault(span[NAME], {"calls": 0, "total": 0.0, "self": 0.0, "nodes": 0})
        row["calls"] += 1
        row["total"] += dur
        row["self"] += dur - child_time[idx]
        row["nodes"] += span[NODES_OUT] - span[NODES_IN]
    return out


def children_count(spans, parent_name: str, child_name: str) -> int:
    """Number of `child_name` spans whose direct parent is a `parent_name` span."""
    return sum(
        1
        for span in spans
        if span[NAME] == child_name
        and span[PARENT] >= 0
        and spans[span[PARENT]][NAME] == parent_name
    )
