"""Outside-in span tracer for the benchmark's traced runs.

The program under test carries no tracing of its own, so the traced run
wraps the public functions of each layer from the outside, for the
duration of one ``with layers.installed(tracer):`` block, and puts every
original back on exit.  Each call of a wrapped function becomes one
:class:`Span` (name, start, end, parent, request id, thread).  Parents
are linked through a ``contextvars.ContextVar``; work the sharded
backend fans out to its thread pool is attributed to the fanning-out
span explicitly, by running each submitted shard query inside a copy of
the submitter's context.  Spans stay in memory and are written once, at
the end, as Chrome trace-event JSON (``chrome://tracing``, Perfetto).
"""

from __future__ import annotations

import contextvars
import itertools
import json
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple


@dataclass
class Span:
    """One traced call: ``[start, end]`` on ``time.perf_counter``."""

    sid: int
    name: str
    parent: Optional[int]
    rid: Optional[int]
    thread: int
    start: float
    end: float = 0.0
    failed: bool = False
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class RequestText(str):
    """A query text tagged with the id of the request that sent it.

    The front end's broker concatenates the texts of every request it
    batches into one ``search_batch`` call; the tag lets that batch's
    span name the requests it served, which is how queue wait (request
    admitted until its batch starts) is measured from outside.
    """

    rid: int


# A hook reads counters before the call and returns a callback that,
# given the call's result, fills the span's attrs.
Hook = Callable[[tuple, dict], Callable[[Any, Dict[str, Any]], None]]


class Tracer:
    """Collects spans from wrapped functions; see the module docstring."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        self._rid: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_rid", default=None
        )
        self._restore: List[Tuple[Any, str, Any]] = []

    # -- span recording -------------------------------------------------
    def wrap(self, fn: Callable, name: str, hook: Optional[Hook] = None) -> Callable:
        """``fn`` recording one span per call (a call nested directly in a
        span of the same name, such as ``super().step()``, is folded into
        it)."""
        current, rids, spans, ids = self._current, self._rid, self.spans, self._ids

        def traced(*args, **kwargs):
            parent = current.get()
            if parent is not None and parent.name == name:
                return fn(*args, **kwargs)
            after = hook(args, kwargs) if hook is not None else None
            span = Span(
                sid=next(ids),
                name=name,
                parent=None if parent is None else parent.sid,
                rid=rids.get(),
                thread=threading.get_ident(),
                start=time.perf_counter(),
            )
            token = current.set(span)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter()
                current.reset(token)
                if after is not None:
                    after(result, span.attrs)
                spans.append(span)  # list.append is atomic under the GIL

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    @contextmanager
    def request(self, rid: int) -> Iterator[None]:
        """Tag spans opened inside the block with request id ``rid``."""
        token = self._rid.set(rid)
        try:
            yield
        finally:
            self._rid.reset(token)

    # -- patching -------------------------------------------------------
    def replace(self, owner: Any, attr: str, value: Any) -> None:
        """Set ``owner.attr`` to ``value`` until :meth:`unpatch`."""
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch_method(
        self, cls: type, attr: str, name: str, hook: Optional[Hook] = None
    ) -> None:
        """Wrap ``cls.attr`` (plain, class- or static method) in place."""
        raw = cls.__dict__[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            self.replace(cls, attr, type(raw)(self.wrap(raw.__func__, name, hook)))
        else:
            self.replace(cls, attr, self.wrap(raw, name, hook))

    def patch_overrides(self, base: type, attr: str, name: str) -> None:
        """Wrap ``attr`` on ``base`` and every subclass that overrides it."""
        pending, seen = [base], set()
        while pending:
            cls = pending.pop()
            if cls in seen:
                continue
            seen.add(cls)
            pending.extend(cls.__subclasses__())
            if attr in cls.__dict__:
                self.patch_method(cls, attr, name)

    def patch_function(self, fn: Callable, name: str) -> None:
        """Wrap module-level ``fn`` under every name a loaded ``repro``
        module binds it to (``from x import fn`` makes copies of the
        reference, so patching only the defining module would miss
        callers)."""
        wrapped = self.wrap(fn, name)
        for module in list(sys.modules.values()):
            if module is None or not module.__name__.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self.replace(module, attr, wrapped)

    def patch_pool(self, module: Any, attr: str) -> None:
        """Make the executor factory ``module.attr`` hand out an executor
        whose tasks run in a copy of the submitter's context, so spans on
        pool threads get the submitting span as parent."""
        factory = module.__dict__[attr]

        class _ContextPool:
            def __init__(self, pool):
                self._pool = pool

            def submit(self, fn, *args, **kwargs):
                context = contextvars.copy_context()
                return self._pool.submit(context.run, fn, *args, **kwargs)

        self.replace(module, attr, lambda: _ContextPool(factory()))

    def unpatch(self) -> None:
        """Put every wrapped attribute back (reverse order)."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- export -----------------------------------------------------------
    def chrome_trace(self, origin: float) -> Dict[str, Any]:
        """The spans as a Chrome trace-event document (times relative to
        ``origin``, in microseconds)."""
        events = [
            {
                "name": span.name,
                "ph": "X",
                "ts": (span.start - origin) * 1e6,
                "dur": span.duration * 1e6,
                "pid": 1,
                "tid": span.thread,
                "args": {
                    "sid": span.sid,
                    "parent": span.parent,
                    "rid": span.rid,
                    "failed": span.failed,
                    **span.attrs,
                },
            }
            for span in self.spans
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path, origin: float) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(origin), handle)


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> duration minus the part its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = {}
    for span in spans:
        covered = union_length(
            (max(s, span.start), min(e, span.end))
            for s, e in children.get(span.sid, [])
            if min(e, span.end) > max(s, span.start)
        )
        out[span.sid] = span.duration - covered
    return out
