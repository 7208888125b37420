"""Spans around the program's public functions, recorded from outside it.

The tracer wraps each target function or method in place: every module
attribute that binds the function is replaced (so ``from x import f``
call sites are traced too), as is every field of a module-level
dataclass instance that holds it (the dataflow planner reaches the
backend through such an object), and class methods are replaced on
their class. Everything patched is restored on exit. Spans stay in
memory and can be written out as JSON lines or as Chrome trace-event
JSON, which Perfetto and ``chrome://tracing`` open directly.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: ``observe(args, kwargs, result)`` returns counts to attach to a span.
Observer = Callable[[tuple, dict, object], Dict[str, float]]


@dataclass(frozen=True)
class Target:
    """One traced callable: ``attr`` is ``"func"`` or ``"Class.method"``."""

    span: str
    module: str
    attr: str
    observe: Optional[Observer] = None


@dataclass
class Span:
    span_id: int
    parent: Optional[int]
    name: str
    start: float
    end: float = 0.0
    thread: int = 0
    error: bool = False
    counts: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(span.span_id, ()), key=lambda s: s.start):
            lo = max(child.start, reach)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result[span.span_id] = span.duration - covered
    return result


class Tracer:
    """Records spans for ``targets`` while :meth:`installed` is active."""

    def __init__(self, targets: Sequence[Target], scope: Tuple[str, ...] = ("repro",)):
        self.targets = tuple(targets)
        self.scope = scope
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span = Span(
                next(tracer._ids),
                stack[-1].span_id if stack else None,
                target.span,
                time.perf_counter(),
                thread=threading.get_ident(),
            )
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if target.observe is not None:
                span.counts = target.observe(args, kwargs, result)
            return result

        return traced

    def _in_scope(self, name: str) -> bool:
        return any(name == s or name.startswith(s + ".") for s in self.scope)

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Patch every binding of every target (see the module docstring)."""
        wrappers: Dict[int, Callable] = {}
        for target in self.targets:
            owner: object = importlib.import_module(target.module)
            *path, name = target.attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            if path:
                original = vars(owner)[name]
                if not callable(original):
                    raise TypeError(f"{target.attr} is not a plain method")
                self._patch(owner, name, self._wrap(target, original))
            else:
                original = getattr(owner, name)
                wrappers[id(original)] = self._wrap(target, original)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not self._in_scope(mod_name):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._patch(module, attr, wrappers[id(value)])
                elif dataclasses.is_dataclass(value) and not isinstance(value, type):
                    rebound = {
                        f.name: wrappers[id(getattr(value, f.name))]
                        for f in dataclasses.fields(value)
                        if id(getattr(value, f.name)) in wrappers
                    }
                    if rebound:
                        self._patch(
                            module, attr, dataclasses.replace(value, **rebound)
                        )

    def restore(self) -> None:
        """Put back everything :meth:`install` replaced, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        self.install()
        try:
            yield self
        finally:
            self.restore()

    # -- export ---------------------------------------------------------

    def write_jsonl(self, path: str) -> None:
        """One JSON object per span, in completion order."""
        selfs = self_times(self.spans)
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps({
                    "id": span.span_id,
                    "parent": span.parent,
                    "name": span.name,
                    "start_s": span.start,
                    "duration_s": span.duration,
                    "self_s": selfs[span.span_id],
                    "thread": span.thread,
                    "error": span.error,
                    "counts": span.counts,
                }) + "\n")

    def write_chrome(self, path: str) -> None:
        """Chrome trace-event JSON: one complete (``X``) event per span."""
        t0 = min((s.start for s in self.spans), default=0.0)
        events = [
            {
                "name": span.name,
                "cat": span.name.split(".")[0],
                "ph": "X",
                "ts": (span.start - t0) * 1e6,
                "dur": span.duration * 1e6,
                "pid": os.getpid(),
                "tid": span.thread,
                "args": dict(span.counts, error=span.error),
            }
            for span in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
