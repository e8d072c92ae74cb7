"""Spans recorded from outside the program, by wrapping its public functions.

A shim replaces a function at every module attribute of the package that
binds it (so `from .core import load_trials` in `cli` is caught too) and, for
a method, on its class. Each call records one span: name, start, end, parent
span and thread. Spans stay in memory until the run writes them out.

A span opened on a thread with no open span (a fold worker) takes the
innermost open fan-out span (`FAN_OUT`) as its parent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

# the span whose fold work runs on worker threads
FAN_OUT = "evaluation.run_cv"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    thread: int
    counts: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Target:
    """One function to wrap: `module` inside the package, `attr` a dotted path
    (`TcnModel.loss_and_grads` for a method), `span` the recorded name.

    `count(arguments, result)` returns per-call counters; `arguments` maps
    every parameter name to its value, defaults included.
    """

    module: str
    attr: str
    span: str
    count: Optional[Callable[[dict, object], dict]] = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._open_fan_out: list[int] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def open(self, name: str) -> int:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        if stack:
            parent = stack[-1]
        else:
            parent = self._open_fan_out[-1] if self._open_fan_out else None
        span = Span(name, time.perf_counter(), 0.0, parent, threading.get_ident())
        with self._lock:
            self.spans.append(span)
            sid = len(self.spans) - 1
            if name == FAN_OUT:
                self._open_fan_out.append(sid)
        stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid].end = time.perf_counter()
        self._local.stack.pop()
        if self.spans[sid].name == FAN_OUT:
            with self._lock:
                self._open_fan_out.remove(sid)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent,
                                     "thread": s.thread, "counts": s.counts}) + "\n")


def _shim(tracer: Tracer, target: Target, fn):
    sig = inspect.signature(fn) if target.count else None

    @functools.wraps(fn)
    def shim(*args, **kwargs):
        sid = tracer.open(target.span)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(sid)
        if sig is not None:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            tracer.spans[sid].counts = target.count(bound.arguments, result)
        return result

    return shim


class Shims:
    """Context manager that installs shims for `targets` and removes them.

    A target whose module or attribute no longer exists is skipped and its
    span name appended to `tracer.missing`.
    """

    def __init__(self, tracer: Tracer, targets, package: str = "haptix"):
        self.tracer = tracer
        self.targets = targets
        self.package = package
        self._undo: list[tuple[object, str, object]] = []

    def _package_modules(self):
        prefix = self.package + "."
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == self.package or name.startswith(prefix))]

    def _set(self, owner, name, value):
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def __enter__(self):
        for target in self.targets:
            try:
                owner = importlib.import_module(f"{self.package}.{target.module}")
            except ImportError:
                self.tracer.missing.append(target.span)
                continue
            *path, name = target.attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            if owner is None or name not in getattr(owner, "__dict__", {}):
                self.tracer.missing.append(target.span)
                continue
            fn = owner.__dict__[name]
            shim = _shim(self.tracer, target, fn)
            if path:
                self._set(owner, name, shim)
                continue
            for module in self._package_modules():
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._set(module, attr, shim)
        return self

    def __exit__(self, *exc):
        for owner, name, value in reversed(self._undo):
            setattr(owner, name, value)
        self._undo.clear()
        return False


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, each clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def summarize(spans: list[Span]) -> dict:
    """Per span name: total time `s`, `calls`, `self_s`, `child_s` (summed
    durations of direct children, which overlap when they run on several
    threads) and the sum of every per-call counter.

    Self time is a span's duration minus the part of it its children cover.
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out: dict[str, dict] = {}
    for i, s in enumerate(spans):
        kids = children.get(i, [])
        covered = union_length([(c.start, c.end) for c in kids], s.start, s.end)
        row = out.setdefault(s.name, {"s": 0.0, "calls": 0, "self_s": 0.0,
                                      "child_s": 0.0})
        row["s"] += s.end - s.start
        row["calls"] += 1
        row["self_s"] += (s.end - s.start) - covered
        row["child_s"] += sum(c.end - c.start for c in kids)
        for key, value in s.counts.items():
            row[key] = row.get(key, 0) + value
    return out
