"""In-memory spans and the self-time arithmetic the traced run reports.

A span is a plain dict ``{"id", "parent", "name", "op", "start", "end"}``
with times in ``time.monotonic_ns()``. ``CLOCK_MONOTONIC`` is system-wide
on Linux, so spans recorded in Ray worker processes on the same host line
up with the driver's spans. Worker tasks build their spans with
:class:`SpanList` and return them next to their result; the driver merges
them into its :class:`Tracer`. Nothing is written until the run ends.

Two self times are computed per span:

* ``self_times`` — the span's duration minus the part of it covered by its
  child spans (the plain definition). Summed over the spans of one layer,
  this is busy time across all workers, used for ns-per-token figures.
* ``attributed_times`` — each instant of an operation's root span is split
  evenly among the spans active at that instant that have no active child
  of their own. The shares of all spans add up to the root's duration, so
  they say which layer the operation's wall time went to even when
  shards run in parallel or one shard straggles.
"""

from __future__ import annotations

import contextlib
import itertools
import time
from collections import defaultdict
from typing import Dict, Iterable, List, Optional

_ids = itertools.count(1)


def new_id(prefix: str = "s") -> str:
    """Span id unique within this process; workers add their pid."""
    return f"{prefix}{next(_ids)}"


class SpanList:
    """Collects spans for one operation (or one worker task of it)."""

    def __init__(self, op: str, prefix: str = "d"):
        self.op = op
        self.prefix = prefix
        self.spans: List[dict] = []

    @contextlib.contextmanager
    def span(self, name: str, parent: Optional[str]):
        sid = new_id(self.prefix)
        start = time.monotonic_ns()
        try:
            yield sid
        finally:
            self.spans.append({"id": sid, "parent": parent, "name": name,
                               "op": self.op, "start": start,
                               "end": time.monotonic_ns()})

    def add(self, name: str, parent: Optional[str], start: int, end: int,
            sid: Optional[str] = None) -> str:
        """Record a span whose bounds were measured elsewhere; ``sid`` may
        be an id handed out earlier (to children recorded before it)."""
        sid = sid or new_id(self.prefix)
        self.spans.append({"id": sid, "parent": parent, "name": name,
                           "op": self.op, "start": int(start), "end": int(end)})
        return sid


def _union_length(intervals: Iterable[tuple]) -> int:
    total, cur_s, cur_e = 0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans: List[dict]) -> Dict[str, int]:
    """Span id -> duration minus the union of its children's intervals,
    each child clipped to its parent."""
    kids = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            kids[s["parent"]].append(s)
    out = {}
    for s in spans:
        clipped = [(max(c["start"], s["start"]), min(c["end"], s["end"]))
                   for c in kids[s["id"]]]
        covered = _union_length((a, b) for a, b in clipped if b > a)
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def attributed_times(spans: List[dict], root_id: str) -> Dict[str, float]:
    """Span id -> its share of the root span's wall time (sweep line over
    the root interval; see module docstring). Only descendants of
    ``root_id`` take part, clipped to the root."""
    by_id = {s["id"]: s for s in spans}
    kids = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            kids[s["parent"]].append(s["id"])
    root = by_id[root_id]
    members, stack = [], [root_id]
    while stack:
        sid = stack.pop()
        members.append(sid)
        stack.extend(kids[sid])
    lo, hi = root["start"], root["end"]
    bounds = sorted({lo, hi} | {min(max(t, lo), hi) for sid in members
                                for t in (by_id[sid]["start"], by_id[sid]["end"])})
    out = {sid: 0.0 for sid in members}
    for a, b in zip(bounds, bounds[1:]):
        if b <= a:
            continue
        active = {sid for sid in members
                  if by_id[sid]["start"] <= a and by_id[sid]["end"] >= b}
        leaves = [sid for sid in active
                  if not any(k in active for k in kids[sid])]
        for sid in leaves:
            out[sid] += (b - a) / len(leaves)
    return out


def by_name(spans: List[dict], per_span: Dict[str, float]) -> Dict[str, float]:
    """Sum a per-span quantity by span name."""
    out: Dict[str, float] = defaultdict(float)
    for s in spans:
        if s["id"] in per_span:
            out[s["name"]] += per_span[s["id"]]
    return dict(out)


@contextlib.contextmanager
def patched(obj, attr: str, replacement):
    """Swap ``obj.attr`` for the duration of a traced operation."""
    old = getattr(obj, attr)
    setattr(obj, attr, replacement)
    try:
        yield old
    finally:
        setattr(obj, attr, old)
