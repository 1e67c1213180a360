"""Spans: an in-memory recorder for the traced launcher, and their arithmetic.

The recorder keeps one span per wrapped call — name, start, end and the
span that was open when it started — in a plain list.  A process writes
its spans out when one of its top-level spans closes in a forked worker
(pool workers never run ``atexit``), and when the process exits.  Each
write appends one JSON line holding the spans recorded since the last
write plus a snapshot of the process's counters.

Times come from ``time.monotonic_ns``, one clock for every process on the
host, so ``run.py`` can lay spans against its own spawn/exit
timestamps.
"""

from __future__ import annotations

import atexit
import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple


class Recorder:
    """Collects spans and counters for one process (reset in forked children)."""

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self._reset(worker=False)

    def _reset(self, worker: bool) -> None:
        self.pid = os.getpid()
        self.worker = worker
        self.spans: List[list] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def install_process_hooks(self) -> None:
        """Reset in forked children; write out at exit."""
        os.register_at_fork(after_in_child=lambda: self._reset(worker=True))
        atexit.register(self.flush)

    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    def maximum(self, name: str, value: float) -> None:
        with self._lock:
            self.counters[name] = max(self.counters[name], value)

    def record(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``; returns its result."""
        stack = self._stack()
        parent = stack[-1] if stack else 0
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.monotonic_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.monotonic_ns()
            stack.pop()
            with self._lock:
                self.spans.append([span_id, parent, name, start, end,
                                   threading.get_ident()])
            if not parent and self.worker:
                self.flush()

    def wrap(self, name: str, fn: Callable,
             note: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped in a ``name`` span; ``note(recorder, args, result)``
        may add counters after each call."""
        record = self.record

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = record(name, fn, *args, **kwargs)
            if note is not None:
                note(self, args, result)
            return result

        return wrapper

    def flush(self) -> None:
        with self._lock:
            spans, self.spans = self.spans, []
            counters = dict(self.counters)
        os.makedirs(self.out_dir, exist_ok=True)
        line = json.dumps({"pid": self.pid, "worker": self.worker,
                           "spans": spans, "counters": counters})
        path = os.path.join(self.out_dir, f"spans-{self.pid}.jsonl")
        with open(path, "a") as handle:
            handle.write(line + "\n")


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Span:
    pid: int
    id: int
    parent: int
    name: str
    start: int
    end: int
    tid: int = 0

    @property
    def duration(self) -> int:
        return self.end - self.start


@dataclass
class Trace:
    """Every span and the summed counters of one traced program run."""

    spans: List[Span]
    counters: Dict[str, float]
    worker_pids: frozenset


def load(out_dir: str) -> Trace:
    """Read every ``spans-<pid>.jsonl`` the launcher wrote into ``out_dir``.

    A program that died before writing anything yields an empty trace.
    """
    spans: List[Span] = []
    counters: Dict[str, float] = defaultdict(float)
    workers = set()
    entries = os.listdir(out_dir) if os.path.isdir(out_dir) else []
    for entry in sorted(entries):
        if not (entry.startswith("spans-") and entry.endswith(".jsonl")):
            continue
        last_counters: Dict[str, float] = {}
        with open(os.path.join(out_dir, entry)) as handle:
            for line in handle:
                record = json.loads(line)
                pid = int(record["pid"])
                if record["worker"]:
                    workers.add(pid)
                spans.extend(Span(pid, *row) for row in record["spans"])
                last_counters = record["counters"]
        for name, value in last_counters.items():
            counters[name] += value
    return Trace(spans, dict(counters), frozenset(workers))


def union_ns(intervals: Iterable[Tuple[int, int]]) -> int:
    """Length of the union of half-open ``[start, end)`` intervals."""
    total = 0
    cursor = None
    for start, end in sorted(intervals):
        if cursor is None or start > cursor:
            total += end - start
            cursor = end
        elif end > cursor:
            total += end - cursor
            cursor = end
    return total


def clip(intervals: Iterable[Tuple[int, int]], lo: int, hi: int
         ) -> List[Tuple[int, int]]:
    """Intervals cut to the window ``[lo, hi)``; empty ones dropped."""
    return [(max(s, lo), min(e, hi)) for s, e in intervals
            if min(e, hi) > max(s, lo)]


def children_of(spans: Sequence[Span]) -> Dict[Tuple[int, int], List[Span]]:
    """``(pid, parent id) -> direct child spans``."""
    children: Dict[Tuple[int, int], List[Span]] = defaultdict(list)
    for span in spans:
        if span.parent:
            children[(span.pid, span.parent)].append(span)
    return children


def self_ns(span: Span, children: Dict[Tuple[int, int], List[Span]]) -> int:
    """Duration minus the part of it that direct children cover."""
    kids = children.get((span.pid, span.id), ())
    covered = union_ns(clip(((k.start, k.end) for k in kids),
                            span.start, span.end))
    return span.duration - covered


def outermost(spans: Sequence[Span], names: frozenset) -> List[Span]:
    """Spans named in ``names`` with no ancestor also named in ``names``.

    Summing their durations counts a layer's busy time once even when it
    calls itself (``hcfirst_min_grid`` → ``hcfirst_grid``).
    """
    by_id = {(s.pid, s.id): s for s in spans}
    result = []
    for span in spans:
        if span.name not in names:
            continue
        parent = by_id.get((span.pid, span.parent))
        nested = False
        while parent is not None:
            if parent.name in names:
                nested = True
                break
            parent = by_id.get((parent.pid, parent.parent))
        if not nested:
            result.append(span)
    return result


def top_level(spans: Sequence[Span], pids: Iterable[int]) -> List[Span]:
    """Spans with no parent, in the given processes."""
    wanted = set(pids)
    return [s for s in spans if not s.parent and s.pid in wanted]
