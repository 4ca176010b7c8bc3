"""Nested spans with an in-memory collector.

A :class:`Span` measures one unit of work on the monotonic clock and
carries free-form attributes; spans nest through a per-thread stack, so
instrumented layers compose without passing context around::

    with tracer.span("query", schema="ausopen"):
        with tracer.span("plan.content") as span:
            span.set_attribute("matched", 7)

Root spans accumulate on the tracer (the in-memory collector); the JSON
exporter and the CLI render them from there.  :class:`NullTracer` is
the no-op twin — its :meth:`~NullTracer.span` returns one shared,
reentrant do-nothing context manager.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Iterator

__all__ = ["Span", "Tracer", "NullTracer", "NULL_SPAN"]


class Span:
    """One timed, attributed unit of work; also its own context manager."""

    __slots__ = ("name", "attributes", "start_ns", "end_ns", "children",
                 "status", "error", "_tracer")

    def __init__(self, name: str, attributes: dict[str, Any] | None = None,
                 tracer: "Tracer | None" = None):
        self.name = name
        self.attributes: dict[str, Any] = dict(attributes or {})
        self.start_ns: int | None = None
        self.end_ns: int | None = None
        self.children: list[Span] = []
        self.status = "ok"
        self.error: str | None = None
        self._tracer = tracer

    # -- measurement ------------------------------------------------------

    @property
    def duration_ns(self) -> int | None:
        if self.start_ns is None or self.end_ns is None:
            return None
        return self.end_ns - self.start_ns

    @property
    def duration_ms(self) -> float | None:
        duration = self.duration_ns
        return None if duration is None else duration / 1e6

    def set_attribute(self, key: str, value: Any) -> "Span":
        self.attributes[key] = value
        return self

    def set_attributes(self, **attributes: Any) -> "Span":
        self.attributes.update(attributes)
        return self

    # -- tree -------------------------------------------------------------

    def add_child(self, child: "Span") -> "Span":
        self.children.append(child)
        return child

    def walk(self) -> Iterator["Span"]:
        yield self
        for child in self.children:
            yield from child.walk()

    def depth(self) -> int:
        """Nesting levels of this subtree (a leaf has depth 1)."""
        if not self.children:
            return 1
        return 1 + max(child.depth() for child in self.children)

    def find_all(self, name: str) -> list["Span"]:
        return [span for span in self.walk() if span.name == name]

    # -- context-manager protocol ----------------------------------------

    def __enter__(self) -> "Span":
        if self._tracer is not None:
            self._tracer._open(self)
        self.start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.end_ns = time.perf_counter_ns()
        if exc is not None:
            self.status = "error"
            self.error = f"{type(exc).__name__}: {exc}"
        if self._tracer is not None:
            self._tracer._close(self)
        return False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        duration = self.duration_ms
        timing = f", {duration:.3f}ms" if duration is not None else ""
        return f"Span({self.name!r}{timing}, {len(self.children)} children)"


class Tracer:
    """Produces spans and collects the finished roots in memory."""

    enabled = True

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.roots: list[Span] = []

    def span(self, name: str, **attributes: Any) -> Span:
        """A new span, to be entered with ``with``."""
        return Span(name, attributes, tracer=self)

    # -- stack maintenance (called by Span.__enter__/__exit__) -----------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, span: Span) -> None:
        stack = self._stack()
        if stack:
            stack[-1].add_child(span)
        else:
            with self._lock:
                self.roots.append(span)
        stack.append(span)

    def _close(self, span: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # pragma: no cover - unbalanced exit guard
            while stack and stack[-1] is not span:
                stack.pop()
            stack.pop()

    # -- reading ----------------------------------------------------------

    def current(self) -> Span | None:
        """The innermost open span on this thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    def find_all(self, name: str) -> list[Span]:
        found: list[Span] = []
        for root in self.roots:
            found.extend(root.find_all(name))
        return found

    def reset(self) -> None:
        with self._lock:
            self.roots = []
        self._local = threading.local()


class _NullSpan:
    """Shared, reentrant, attribute-dropping span stand-in."""

    __slots__ = ()

    name = "null"
    attributes: dict[str, Any] = {}
    children: list = []
    status = "ok"
    error = None
    start_ns = None
    end_ns = None
    duration_ns = None
    duration_ms = None

    def set_attribute(self, key: str, value: Any) -> "_NullSpan":
        return self

    def set_attributes(self, **attributes: Any) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NULL_SPAN = _NullSpan()


class NullTracer:
    """The off switch: every span is the shared no-op span."""

    enabled = False
    roots: tuple = ()

    def span(self, name: str, **attributes: Any) -> _NullSpan:
        return NULL_SPAN

    def current(self) -> None:
        return None

    def find_all(self, name: str) -> list:
        return []

    def reset(self) -> None:
        pass
