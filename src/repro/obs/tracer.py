"""Structured span/event tracing with a free null plane.

Two implementations of one API:

* :class:`Tracer` appends one JSONL record per call (line-buffered, so
  ``repro inspect --events --follow`` follows a live stream) with
  monotonic timestamps and the writing pid.  Nesting is tracked per
  thread: ``span()`` is a context manager whose parent is whatever span
  encloses it on the same thread; ``begin()``/``end()`` are the
  explicit form for contexts a stack would mis-nest — the shard
  supervisor's interleaved slot coroutines own their span ids directly.
* :data:`NULL_TRACER` is the off plane: every method is a no-op and
  ``span()`` returns one shared, reusable context manager, so code can
  trace unconditionally and pay only an attribute call when obs is off.

Fork-safety: a tracer inherited across ``fork`` (worker pools, shard
processes spawned before the runtime was consulted) detects the pid
change on the next emit and reopens its own per-pid file instead of
interleaving writes on the parent's descriptor — the path template's
``{pid}`` placeholder is re-expanded.
"""

from __future__ import annotations

import os
import threading
import time
from pathlib import Path

from repro.obs.events import encode_record


class _NullSpan:
    """The shared no-op context manager the null tracer hands out."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _NullTracer:
    """API-complete tracer that records nothing (the default plane)."""

    __slots__ = ()
    active = False

    def span(self, name: str, **tags):
        return _NULL_SPAN

    def begin(self, name: str, parent: int | None = None, **tags) -> int:
        return 0

    def end(self, span_id: int, name: str = "", **tags) -> None:
        return None

    def event(self, name: str, **tags) -> None:
        return None

    def close(self) -> None:
        return None


NULL_TRACER = _NullTracer()


class _Span:
    """Context manager pairing one begin record with its end record."""

    __slots__ = ("_tracer", "name", "id", "tags")

    def __init__(self, tracer: "Tracer", name: str, tags: dict) -> None:
        self._tracer = tracer
        self.name = name
        self.tags = tags
        self.id = 0

    def __enter__(self) -> "_Span":
        tracer = self._tracer
        stack = tracer._stack()
        parent = stack[-1] if stack else None
        self.id = tracer.begin(self.name, parent=parent, **self.tags)
        stack.append(self.id)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        tracer = self._tracer
        stack = tracer._stack()
        if stack and stack[-1] == self.id:
            stack.pop()
        tags = dict(self.tags)
        if exc_type is not None:
            tags["error"] = exc_type.__name__
        tracer.end(self.id, self.name, **tags)
        return False


class Tracer:
    """Append span/event records to one JSONL file.

    *path* may contain a ``{pid}`` placeholder, expanded at (re)open —
    the fork-safety hook.  The file opens lazily on first emit, so
    constructing a tracer (e.g. for a runtime that never fires) costs
    nothing on disk.
    """

    active = True

    def __init__(self, path: str | os.PathLike,
                 clock=time.monotonic) -> None:
        self._template = str(path)
        self._clock = clock
        self._file = None
        self._pid = 0
        self._next_id = 1
        self._lock = threading.Lock()
        self._local = threading.local()

    @property
    def path(self) -> Path:
        """The file the *current* process writes (pid expanded)."""
        return Path(self._template.format(pid=os.getpid()))

    # ------------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _emit(self, kind: str, name: str, span_id: int,
              parent: int | None, tags: dict) -> None:
        pid = os.getpid()
        with self._lock:
            if self._file is None or pid != self._pid:
                # First emit, or we were forked: (re)open our own file.
                if self._file is not None:
                    self._file.close()
                path = Path(self._template.format(pid=pid))
                path.parent.mkdir(parents=True, exist_ok=True)
                self._file = open(  # noqa: SIM115 - held across emits
                    path, "a", encoding="utf-8", buffering=1
                )
                self._pid = pid
            record = {
                "v": 1,
                "t": round(self._clock(), 6),
                "pid": pid,
                "kind": kind,
                "name": name,
                "id": span_id,
                "parent": parent,
                "tags": tags,
            }
            self._file.write(encode_record(record) + "\n")

    # ------------------------------------------------------------------

    def span(self, name: str, **tags) -> _Span:
        """Context manager: begin on enter, end on exit, thread-nested."""
        return _Span(self, name, tags)

    def begin(self, name: str, parent: int | None = None, **tags) -> int:
        """Open a span explicitly; returns its id (pass to :meth:`end`)."""
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        self._emit("begin", name, span_id, parent, tags)
        return span_id

    def end(self, span_id: int, name: str = "", **tags) -> None:
        """Close a span opened by :meth:`begin` (or a ``span()`` exit)."""
        self._emit("end", name, span_id, None, tags)

    def event(self, name: str, **tags) -> None:
        """One instantaneous point record, parented to the enclosing
        ``span()`` on this thread (if any)."""
        stack = self._stack()
        self._emit("event", name, 0, stack[-1] if stack else None, tags)

    def close(self) -> None:
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None
