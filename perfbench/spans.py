"""Call spans recorded around a program's functions from outside the program.

A :class:`Tracer` replaces named attributes (module functions or class
methods) with wrappers that record one :class:`Span` per call: name, start,
end, parent span, run id, whether the call raised, and optional attributes
extracted from the arguments and the result.  The wrapped functions see the
same arguments and return the same objects, and exceptions pass through
unchanged.

Each thread keeps its own span stack, so a call made in a worker thread never
takes a span of another thread as its parent.  Spans stay in memory until the
caller writes them out.

A span's self time is its duration minus the part of its interval that its
children cover.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import threading
import time
import warnings
from typing import Callable, NamedTuple


class Span(NamedTuple):
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    run: int
    failed: bool
    attrs: object


class Target(NamedTuple):
    """Where to wrap: ``owner`` is ``"pkg.module"`` or ``"pkg.module:Class"``."""

    owner: str
    attr: str
    span: str
    attrs: Callable | None = None


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []  # list.append is atomic under the GIL
        self.run = 0
        self.missing: list[str] = []
        self.attr_errors = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._installed: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _extract(self, attrs, args, kwargs, result):
        try:
            return attrs(args, kwargs, result)
        except (AttributeError, IndexError, KeyError, TypeError):
            self.attr_errors += 1
            return None

    def wrap(self, fn, name: str, attrs: Callable | None = None):
        """Return ``fn`` wrapped so that each call records a span ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            run = self.run
            stack.append(sid)
            failed = True
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                extra = None
                if attrs is not None and not failed:
                    extra = self._extract(attrs, args, kwargs, result)
                self.spans.append(Span(sid, name, start, end, parent, run,
                                       failed, extra))

        return traced

    def install(self, targets) -> None:
        """Wrap every target; a target that no longer exists is skipped with a warning."""
        self.missing = []
        for target in targets:
            where = f"{target.owner}.{target.attr}"
            try:
                owner = _resolve(target.owner)
            except (ImportError, AttributeError):
                owner = None
            original = getattr(owner, target.attr, None)
            if not callable(original):
                self.missing.append(where)
                warnings.warn(f"{where} not found; span {target.span!r} reads "
                              "as a zero-count layer", stacklevel=2)
                continue
            setattr(owner, target.attr, self.wrap(original, target.span, target.attrs))
            self._installed.append((owner, target.attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self, targets):
        self.install(targets)
        try:
            yield self
        finally:
            self.uninstall()


def self_times(spans) -> dict[int, float]:
    """Map span id to duration minus the union of its children's intervals."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.sid, ()), key=lambda c: c.start):
            lo = max(child.start, cursor)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span.sid] = (span.end - span.start) - covered
    return result
