"""Zero-dependency tracing: nested spans with cross-process propagation.

A *span* is one timed region of a query's life — the root ``Session.run``
or scheduler execution, an engine round, an executor batch, a task on a
remote shard worker — recorded as a JSON-safe dict::

    {"trace_id": "6f1c…", "span_id": "a03d…", "parent": "ff02…" | None,
     "name": "round.r-meef", "start": 12.031, "duration": 0.184,
     "attributes": {"machines": 4}}

``trace_id`` names the whole tree, ``span_id``/``parent`` link it,
``start`` is a *local* monotonic reading (:func:`time.perf_counter` —
comparable only between spans from the same process; cross-host ordering
relies on the parent links, not the clocks), ``duration`` is seconds.

Propagation is a pair of context variables: :data:`_CURRENT` holds the
innermost open :class:`Span` of the calling context.  Instrumented code
never checks "is tracing on" — it calls the module-level :func:`span`
helper, which is a single ``ContextVar.get()`` plus ``None`` check when
no trace is active (the shared no-op below), so the disabled path costs
nothing measurable.  A :class:`Tracer` is only ever constructed at a
root: ``Session.run(trace=True)`` or a ``submit`` carrying
``trace: true``.

Crossing the wire: :func:`wire_context` snapshots ``(trace_id, current
span_id)`` into a JSON-safe dict that rides on distributed ``task``
messages; the shard worker builds leaf span dicts against that parent
with :func:`remote_span` (no tracer object on the worker — just dicts)
and ships them back beside the task result; the coordinator side calls
:func:`attach_spans` to fold them into the live tracer, so the finished
tree is one connected structure spanning processes and hosts.
"""

from __future__ import annotations

import threading
import time
import uuid
from contextvars import ContextVar
from typing import Any, Iterator

__all__ = [
    "Span",
    "Tracer",
    "attach_spans",
    "current_span",
    "remote_span",
    "span",
    "span_names",
    "wire_context",
]


def _new_id() -> str:
    """A fresh 16-hex-digit identifier (random, not time-derived)."""
    return uuid.uuid4().hex[:16]


#: The innermost open span of the current thread/context, or ``None``
#: when tracing is off — the one lookup every instrumentation site pays.
_CURRENT: ContextVar["Span | None"] = ContextVar("repro_obs_span", default=None)


class _NoopSpan:
    """Shared do-nothing context manager returned when tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        return None

    def set(self, **attributes: Any) -> None:
        """Attribute updates are discarded (matches :meth:`Span.set`)."""


#: The single no-op instance (allocation-free disabled path).
_NOOP = _NoopSpan()


class Span:
    """One open timed region; use as a context manager.

    Entering records the start (:func:`time.perf_counter`) and makes this
    span the context's current span; exiting computes the duration,
    restores the previous current span, and hands the finished record to
    the owning tracer.  Attributes are JSON-safe annotations (machine
    counts, task counts, shard addresses …) — never values that feed back
    into the computation: spans observe, they must not perturb.
    """

    __slots__ = (
        "tracer",
        "span_id",
        "parent",
        "name",
        "start",
        "duration",
        "attributes",
        "_token",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        parent: str | None,
        attributes: dict[str, Any],
    ):
        self.tracer = tracer
        self.span_id = _new_id()
        self.parent = parent
        self.name = name
        self.start = 0.0
        self.duration: float | None = None
        self.attributes = attributes
        self._token = None

    def set(self, **attributes: Any) -> None:
        """Attach (or overwrite) attributes on the open span."""
        self.attributes.update(attributes)

    def __enter__(self) -> "Span":
        self._token = _CURRENT.set(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.duration = time.perf_counter() - self.start
        if exc_type is not None:
            self.attributes.setdefault("error", repr(exc))
        _CURRENT.reset(self._token)
        self.tracer._record(self)

    def to_dict(self) -> dict[str, Any]:
        """The JSON-safe flat record (see the module docstring schema)."""
        return {
            "trace_id": self.tracer.trace_id,
            "span_id": self.span_id,
            "parent": self.parent,
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
            "attributes": dict(self.attributes),
        }


class Tracer:
    """Collects the finished spans of one trace and assembles the tree.

    Thread-safe: spans finish on whatever thread ran them, and shard
    workers' span dicts are folded in via :meth:`attach` from coordinator
    threads.
    """

    def __init__(self):
        self.trace_id = _new_id()
        self._lock = threading.Lock()
        self._spans: list[dict[str, Any]] = []

    # ------------------------------------------------------------------
    def root(self, name: str, **attributes: Any) -> Span:
        """A parentless span — the top of the tree (one per trace)."""
        return Span(self, name, parent=None, attributes=attributes)

    def start_span(
        self, name: str, parent: Span, attributes: dict[str, Any]
    ) -> Span:
        return Span(self, name, parent=parent.span_id, attributes=attributes)

    def _record(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span.to_dict())

    def attach(self, span_dicts: "list[dict[str, Any]] | None") -> None:
        """Fold foreign (remote-worker) span dicts into this trace."""
        if not span_dicts:
            return
        with self._lock:
            self._spans.extend(dict(s) for s in span_dicts)

    # ------------------------------------------------------------------
    def tree(self) -> dict[str, Any] | None:
        """The nested span tree, or ``None`` before any span finished.

        Children sort by their local start time (meaningful within one
        process; remote siblings keep attach order between themselves).
        Spans whose parent never made it back (a worker span raced a
        shard fault, say) re-root under the tree root rather than being
        dropped — a gappy trace beats a silently truncated one.
        """
        with self._lock:
            spans = [dict(s) for s in self._spans]
        if not spans:
            return None
        by_id = {s["span_id"]: s for s in spans}
        roots: list[dict[str, Any]] = []
        orphans: list[dict[str, Any]] = []
        children: dict[str, list[dict[str, Any]]] = {}
        for s in spans:
            parent = s["parent"]
            if parent is None:
                roots.append(s)
            elif parent in by_id:
                children.setdefault(parent, []).append(s)
            else:
                orphans.append(s)
        if not roots:  # root still open or lost: synthesize one
            roots = [{
                "trace_id": self.trace_id,
                "span_id": "root",
                "parent": None,
                "name": "(incomplete)",
                "start": 0.0,
                "duration": None,
                "attributes": {},
            }]
        children.setdefault(roots[0]["span_id"], []).extend(orphans)

        def build(record: dict[str, Any]) -> dict[str, Any]:
            kids = sorted(
                children.get(record["span_id"], []),
                key=lambda s: s["start"],
            )
            return {
                "trace_id": record["trace_id"],
                "span_id": record["span_id"],
                "parent": record["parent"],
                "name": record["name"],
                "start": record["start"],
                "duration": record["duration"],
                "attributes": record["attributes"],
                "children": [build(k) for k in kids],
            }

        return build(roots[0])


# ----------------------------------------------------------------------
# Module-level instrumentation surface
# ----------------------------------------------------------------------
def span(name: str, **attributes: Any) -> "Span | _NoopSpan":
    """Open a child span of the context's current span (or do nothing).

    This is the only call instrumented code makes.  With no active trace
    it is a context-variable read and a ``None`` check returning a shared
    no-op context manager — cheap enough to leave in every hot path.
    """
    parent = _CURRENT.get()
    if parent is None:
        return _NOOP
    return parent.tracer.start_span(name, parent, attributes)


def current_span() -> "Span | None":
    """The innermost open span of this context (``None`` = tracing off)."""
    return _CURRENT.get()


def wire_context() -> dict[str, str] | None:
    """JSON-safe propagation context for a remote child, or ``None``.

    Rides on distributed ``task`` messages; the worker parents its spans
    on ``parent`` so the shipped-back records slot into the live tree.
    """
    current = _CURRENT.get()
    if current is None:
        return None
    return {
        "trace_id": current.tracer.trace_id,
        "parent": current.span_id,
    }


def attach_spans(span_dicts: "list[dict[str, Any]] | None") -> None:
    """Fold remote span dicts into the context's live trace (if any)."""
    current = _CURRENT.get()
    if current is not None:
        current.tracer.attach(span_dicts)


def remote_span(
    context: dict[str, str],
    name: str,
    start: float,
    duration: float,
    **attributes: Any,
) -> dict[str, Any]:
    """A finished span dict built on a remote worker (no tracer there).

    ``context`` is the :func:`wire_context` dict from the task message;
    ``start`` is the worker's local :func:`time.perf_counter` reading.
    """
    return {
        "trace_id": context["trace_id"],
        "span_id": _new_id(),
        "parent": context["parent"],
        "name": name,
        "start": start,
        "duration": duration,
        "attributes": dict(attributes),
    }


def span_names(tree: "dict[str, Any] | None") -> Iterator[str]:
    """Every span name in a :meth:`Tracer.tree` dict, depth-first."""
    if not tree:
        return
    yield tree["name"]
    for child in tree.get("children", ()):
        yield from span_names(child)
