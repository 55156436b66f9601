"""Span recorder and per-layer rollup for the traced benchmark run.

A :class:`Recorder` wraps public functions of the program from the outside:
each call becomes one span ``(id, parent, request, layer, name, start, end,
bytes, attrs)`` kept in memory and written out once, at exit. The parent
and the request id travel in context variables, so they follow asyncio
tasks and ``asyncio.to_thread`` hops the same way the program's own trace
context does.

:func:`rollup` turns the spans of one process into per-layer totals:
count, bytes, self time (span time not covered by a child span of another
layer) and inclusive time, keyed ``(layer, name)``.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: (span id, layer) of the innermost open span in this context.
_PARENT: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_parent", default=(0, "")
)
#: Id of the request (netserver span) the current work belongs to.
_REQUEST: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_request", default=0
)

now = time.perf_counter


def nbytes_of(value) -> int:
    """Payload size of a bytes-like object or numpy array (0 otherwise)."""
    size = getattr(value, "nbytes", None)
    if size is not None:
        return int(size)
    try:
        return len(value)
    except TypeError:
        return 0


class Recorder:
    """In-memory spans plus counters, shared by every thread of a process."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counters: Dict[str, float] = defaultdict(float)
        #: Callables run once before :meth:`dump` (close open intervals).
        self.finalizers: List[Callable[[], object]] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    # ----------------------------------------------------------- recording
    def open(self, layer: str) -> Tuple[int, tuple, contextvars.Token]:
        """Start a span: returns its id, its parent and the context token."""
        sid = next(self._ids)
        parent = _PARENT.get()
        token = _PARENT.set((sid, layer))
        return sid, parent, token

    def close(
        self, sid: int, parent: tuple, token, layer: str, name: str,
        start: float, nbytes: int = 0, attrs: Optional[dict] = None,
    ) -> None:
        end = now()
        _PARENT.reset(token)
        self.add(sid, parent[0], layer, name, start, end, nbytes, attrs)

    def add(
        self, sid: int, parent: int, layer: str, name: str,
        start: float, end: float, nbytes: int = 0, attrs: Optional[dict] = None,
    ) -> None:
        record = [sid, parent, _REQUEST.get(), layer, name, start, end,
                  nbytes, attrs or {}]
        with self._lock:
            self.spans.append(record)

    def new_id(self) -> int:
        return next(self._ids)

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += amount

    @staticmethod
    def current_layer() -> str:
        return _PARENT.get()[1]

    # ------------------------------------------------------------ wrappers
    def wrap(
        self, layer: str, name: str, fn: Callable,
        size: Optional[Callable] = None,
    ) -> Callable:
        """Span around a plain function; ``size(args, kwargs, result)``
        gives the bytes the call handled."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent, token = self.open(layer)
            start = now()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                nb = size(args, kwargs, result) if size is not None else 0
                self.close(sid, parent, token, layer, name, start, nb)

        return traced

    def wrap_async(
        self, layer: str, name: str, fn: Callable,
        attrs_hook: Optional[Callable] = None,
    ) -> Callable:
        """Span around a coroutine function. ``attrs_hook(attrs)`` runs
        inside the span, so wrapped callees can annotate it."""

        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            sid, parent, token = self.open(layer)
            start = now()
            attrs: dict = {}
            hook = attrs_hook(attrs) if attrs_hook is not None else None
            try:
                return await fn(*args, **kwargs)
            finally:
                if hook is not None:
                    hook()
                self.close(sid, parent, token, layer, name, start, 0, attrs)

        return traced

    # -------------------------------------------------------------- output
    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counters": self.counters}, fh)


def load(path: str) -> Tuple[List[list], Dict[str, float]]:
    with open(path) as fh:
        data = json.load(fh)
    return data["spans"], data["counters"]


def _covered(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def rollup(spans: List[list]) -> Dict[Tuple[str, str], dict]:
    """Per ``(layer, name)``: count, bytes, inclusive and self seconds.

    Self time is a span's duration minus the part of it covered by child
    spans of *other* layers, so a layer's nested calls to itself are not
    subtracted twice.
    """
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    layer_of = {s[0]: s[3] for s in spans}
    for sid, parent, _req, layer, _name, start, end, *_ in spans:
        if parent and layer_of.get(parent) != layer:
            children[parent].append((start, end))
    out: Dict[Tuple[str, str], dict] = {}
    for sid, _parent, _req, layer, name, start, end, nbytes, _attrs in spans:
        row = out.setdefault(
            (layer, name), {"count": 0, "bytes": 0, "incl_s": 0.0, "self_s": 0.0}
        )
        dur = end - start
        row["count"] += 1
        row["bytes"] += nbytes
        row["incl_s"] += dur
        row["self_s"] += dur - _covered(children.get(sid, []), start, end)
    return out
