"""Spans and counters recorded from outside the package.

A ``Tracer`` replaces module attributes (functions that callers look up at
call time) with wrappers. A span wrapper records name, start, end, parent
span and operation id; a count wrapper only counts calls. Both record only
inside ``tracer.scope(op)``, so set-up, input generation and output checks
stay out of the trace. Spans are kept in memory and read when the run ends.
A wrapped name that no longer exists is listed in ``missing`` and skipped.
"""

from __future__ import annotations

import contextlib
import importlib
from collections import Counter
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Optional


@dataclass(frozen=True)
class Wrap:
    """``module`` attribute ``attr`` (dotted for class members) to wrap.
    ``label`` maps the call's arguments to a suffix of the span name."""

    module: str
    attr: str
    kind: str = "span"  # "span" or "count"
    label: Optional[Callable] = None

    @property
    def name(self) -> str:
        return f"{self.module.rsplit('.', 1)[-1]}.{self.attr}"


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at top level
    op: object

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, wraps):
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._raw: list[list] = []
        self._stack: list[int] = []
        self._op = None
        self._patches = []  # (owner, attr, original, wrapper)
        for w in wraps:
            owner, attr = self._resolve(w)
            if owner is None:
                self.missing.append(w.name)
                continue
            original = getattr(owner, attr)
            wrapper = self._span(w, original) if w.kind == "span" else self._count(w, original)
            self._patches.append((owner, attr, original, wrapper))

    @staticmethod
    def _resolve(w: Wrap):
        try:
            owner = importlib.import_module(w.module)
        except ImportError:
            return None, None
        *path, attr = w.attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        if owner is None or not callable(getattr(owner, attr, None)):
            return None, None
        return owner, attr

    def _count(self, w: Wrap, fn):
        name, counts = w.name, self.counts

        def counted(*args, **kwargs):
            if self._op is not None:
                counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _span(self, w: Wrap, fn):
        name, label, counts, raw, stack = w.name, w.label, self.counts, self._raw, self._stack

        def spanned(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            counts[name] += 1
            full = name if label is None else f"{name}[{label(*args, **kwargs)}]"
            idx = len(raw)
            raw.append([full, perf_counter(), 0.0, stack[-1] if stack else -1, self._op])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                raw[idx][2] = perf_counter()

        return spanned

    def install(self) -> None:
        for owner, attr, _original, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _wrapper in reversed(self._patches):
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def scope(self, op):
        """Record spans and counts under operation id ``op``."""
        self._op = op
        try:
            yield
        finally:
            self._op = None

    def spans(self) -> list[Span]:
        return [Span(*row) for row in self._raw]


def children_of(spans) -> dict[int, list[int]]:
    out: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        out.setdefault(s.parent, []).append(i)
    return out


def self_time(spans, children, idx: int, only: Optional[Callable] = None) -> float:
    """Duration of span ``idx`` minus the part of its interval covered by
    its child spans (only the children whose name ``only`` accepts, when
    given)."""
    s = spans[idx]
    parts = sorted(
        (max(spans[c].start, s.start), min(spans[c].end, s.end))
        for c in children.get(idx, ())
        if only is None or only(spans[c].name)
    )
    covered, reach = 0.0, s.start
    for lo, hi in parts:
        lo = max(lo, reach)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return s.duration - covered
