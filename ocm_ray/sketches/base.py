"""MergeableSketch protocol — the UDAF contract every sketch honors.

The reference's vendored sketch library gives every state object the same
shape: a flat typed array + ``addh(uint64)`` + ``est/report()`` + binary
serialization + an associative merge (SURVEY §2.3). This module states that
contract once, in Python, for the Ray Data engine:

* ``update(items, counts)`` — absorb a batch of pre-hashed uint64 items
  (optionally pre-aggregated into ``(unique, count)`` pairs) using only
  vectorized numpy kernels;
* ``merge(other)`` — associative, commutative (property-tested) combine;
* ``to_bytes()/from_bytes()`` — self-describing serialization so partial
  sketches flow through the object store / Parquet checkpoints as plain
  binary columns;
* ``empty_like()`` — the merge identity, used by tree-merge reducers.

Sketches are deliberately plain Python objects holding numpy arrays: Ray
serializes them zero-copy via pickle5 buffers, and
``engine.build.map_batches_with`` stages keep one per worker process.
"""

from __future__ import annotations

import io
import json
from typing import Any, Dict, Optional, Type

import numpy as np

_REGISTRY: Dict[str, Type["MergeableSketch"]] = {}


def register_sketch(cls: Type["MergeableSketch"]) -> Type["MergeableSketch"]:
    """Class decorator: register under ``cls.kind`` for deserialization."""
    _REGISTRY[cls.kind] = cls
    return cls


def sketch_class(kind: str) -> Type["MergeableSketch"]:
    return _REGISTRY[kind]


class MergeableSketch:
    """Base class for mergeable sketch states (see module docstring)."""

    kind: str = "abstract"

    # False for sketches whose ``counts`` is an element's FINAL weight
    # (cws/pmh): update(x, w1) then update(x, w2) is NOT update(x, w1+w2)
    # for those, so combiners must never split one element's count across
    # two updates (CountCombiner consults this to disable its mid-stream
    # flush).
    weight_additive: bool = True

    # ---- subclass surface -------------------------------------------------
    def update(self, items: np.ndarray, counts: Optional[np.ndarray] = None) -> None:
        """Absorb items (uint64 ndarray). ``counts`` (int64, same length)
        means each ``items[i]`` occurs ``counts[i]`` times (pre-aggregated
        batch update). Must be equivalent to repeating the item."""
        raise NotImplementedError

    def merge(self, other: "MergeableSketch") -> "MergeableSketch":
        """In-place associative merge; returns self."""
        raise NotImplementedError

    def _params(self) -> Dict[str, Any]:
        """JSON-serializable constructor params (reconstructs geometry)."""
        raise NotImplementedError

    def _arrays(self) -> Dict[str, np.ndarray]:
        """The state arrays to serialize."""
        raise NotImplementedError

    def _set_arrays(self, arrays: Dict[str, np.ndarray]) -> None:
        for k, v in arrays.items():
            setattr(self, k, v)

    def empty_like(self) -> "MergeableSketch":
        """A fresh zero-state sketch with identical geometry (merge identity)."""
        return type(self)(**self._params())

    # ---- serialization ----------------------------------------------------
    def to_bytes(self) -> bytes:
        """Self-describing binary: one npz archive; params ride in a JSON
        side-array. Stable across processes/nodes (no pickle)."""
        buf = io.BytesIO()
        meta = json.dumps({"kind": self.kind, "params": self._params()})
        np.savez(
            buf,
            __meta__=np.frombuffer(meta.encode("utf-8"), dtype=np.uint8),
            **self._arrays(),
        )
        return buf.getvalue()

    @staticmethod
    def from_bytes(data: bytes) -> "MergeableSketch":
        with np.load(io.BytesIO(data)) as z:
            meta = json.loads(z["__meta__"].tobytes().decode("utf-8"))
            arrays = {k: z[k] for k in z.files if k != "__meta__"}
        cls = sketch_class(meta["kind"])
        obj = cls(**meta["params"])
        obj._set_arrays(arrays)
        return obj

    # ---- conveniences -----------------------------------------------------
    def ensure_writable(self) -> "MergeableSketch":
        """Ray's object store deserializes numpy arrays as read-only
        (zero-copy pickle5 buffers). Call before mutating a sketch that
        came out of ``ray.get`` — copies only the frozen arrays."""
        self._set_arrays({
            k: (v.copy() if isinstance(v, np.ndarray) and not v.flags.writeable else v)
            for k, v in self._arrays().items()
        })
        return self

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in self._arrays().values())

    def __repr__(self) -> str:  # pragma: no cover
        p = ", ".join(f"{k}={v}" for k, v in self._params().items())
        return f"{type(self).__name__}({p})"


def merge_all(sketches) -> MergeableSketch:
    """Fold a sequence of sketches into one (left fold; associative so any
    grouping is equivalent — property-tested)."""
    it = iter(sketches)
    acc = next(it)
    for s in it:
        acc.merge(s)
    return acc


def _segment_sum(u: np.ndarray, c: np.ndarray):
    """(unique, int64 count) of a SORTED item run ``u`` with counts ``c``:
    one boundary scan plus an integer ``add.reduceat`` — exact at any
    count (no float64 round trip)."""
    if len(u) == 0:
        return u, c
    new_run = np.empty(len(u), dtype=bool)
    new_run[0] = True
    np.not_equal(u[1:], u[:-1], out=new_run[1:])
    starts = np.flatnonzero(new_run)
    return u[starts], np.add.reduceat(c, starts)


def merge_sorted_counts(u1: np.ndarray, c1: np.ndarray,
                        u2: np.ndarray, c2: np.ndarray):
    """Merge two sorted (unique, count) runs into one (single sort pass +
    segment-sum; no second unique)."""
    u = np.concatenate([u1, u2])
    c = np.concatenate([c1, c2])
    order = np.argsort(u, kind="stable")
    return _segment_sum(u[order], c[order])


class CountCombiner:
    """Streaming in-shard combiner: folds every batch's items into one
    sorted (unique, count) table so the sketch sees ONE pre-aggregated
    update per shard instead of one scatter per batch. For a Zipf token
    domain this turns the sketch's random-access traffic from
    O(batches × vocab) into O(vocab) — the difference between a
    memory-bandwidth-bound and a compute-bound build. The table is
    handed to the sketch sorted and unique, so ``dedupe_counts`` in the
    sketch's ``update`` passes it through without a second dedupe.
    Domains with unbounded distincts (k-grams, hashes) are guarded by
    ``flush_limit``: when the table outgrows it, the sketch absorbs the
    counts and the table resets (still correct — sketch updates are
    multiset-additive).

    ``add`` takes ids of any integer dtype at their stored width
    (``engine.tokens.token_ids``). A batch whose ids all lie in
    ``[0, DENSE_DOMAIN)`` is counted by ``np.bincount`` into a dense
    array, widened only to ``intp`` one cache-sized chunk at a time; any
    other batch is widened to uint64 (negative ids wrap, as the sketches'
    uint64 domain does) and goes to the sorted-run table. Tables and
    flushes depend only on the id values, never on their dtype.

    Sorted-run batches are held raw, not merged one by one: while the
    table rows plus the held items stay within ``flush_limit`` no flush
    can happen, so up to :data:`HOLD_CAP` held items wait and are
    deduplicated by one sort when the table is needed (``flush``,
    ``finish``, ``drain_counts``, a batch that could cross
    ``flush_limit``, the cap, or a read of ``uniq``/``cnt``). Flush
    points and tables are those of a merge per batch. A held batch is
    kept by reference, so callers must not write into an array after
    passing it to ``add``.
    """

    DENSE_DOMAIN = 1 << 22  # ids below this use an O(1)-per-item dense array
    BINCOUNT_CHUNK = 1 << 18  # ids widened to intp per bincount (2 MB)
    HOLD_CAP = 1 << 22  # raw sorted-run items held before one sort (32 MB)

    def __init__(self, sketch: Optional[MergeableSketch],
                 flush_limit: int = 1 << 22):
        self.sketch = sketch
        # final-weight sketches (cws/pmh): a mid-stream flush would split
        # an element's weight into two updates whose draws differ from
        # the total-weight draw. For them flush_limit stays a MEMORY cap
        # but crossing it is an ERROR (pre-aggregate weights upstream —
        # grouped count tables), never a silent flush and never a silent
        # unbounded table.
        self._weight_additive = sketch is None or sketch.weight_additive
        self.flush_limit = flush_limit
        self._uniq: Optional[np.ndarray] = None
        self._cnt: Optional[np.ndarray] = None
        self._held: list = []  # raw uint64 sorted-run batches, not yet sorted
        self._n_held = 0
        self.dense: Optional[np.ndarray] = None  # counts indexed by token id

    @property
    def uniq(self) -> Optional[np.ndarray]:
        """Sorted unique items of the table so far (None when empty)."""
        self._settle()
        return self._uniq

    @property
    def cnt(self) -> Optional[np.ndarray]:
        """int64 counts aligned with :attr:`uniq`."""
        self._settle()
        return self._cnt

    def add(self, items: np.ndarray) -> None:
        if len(items) == 0:
            return
        if items.dtype.kind == "f":
            # value sketches (quantiles): no meaningful dedup — direct
            self.sketch.update(items)
            return
        if self._uniq is None and not self._held \
                and (items.dtype.kind == "u" or items.min() >= 0):
            mx = int(items.max())
            if mx < self.DENSE_DOMAIN:
                self._add_dense(items, mx)
                return
        # generic path (unbounded domains: hashes, k-grams): sorted runs
        self._spill_dense()
        items = items.astype(np.uint64, copy=False)
        rows = 0 if self._uniq is None else len(self._uniq)
        if rows + self._n_held + len(items) <= self.flush_limit:
            # the table cannot outgrow flush_limit before these settle
            self._held.append(items)
            self._n_held += len(items)
            if self._n_held >= self.HOLD_CAP:
                self._settle()
            return
        self._settle()
        self._merge(*dedupe_counts(items))
        if len(self._uniq) > self.flush_limit:
            if not self._weight_additive:
                raise ValueError(
                    f"{type(self.sketch).__name__} takes FINAL weights "
                    f"(weight_additive=False): the combiner table exceeded "
                    f"flush_limit={self.flush_limit} and flushing would "
                    "split element weights across updates. Pre-aggregate "
                    "to one (element, total_weight) row per element "
                    "upstream (grouped count tables) or raise flush_limit.")
            self.flush()

    def _merge(self, u: np.ndarray, c: np.ndarray) -> None:
        if self._uniq is None:
            self._uniq, self._cnt = u, c
        else:
            self._uniq, self._cnt = merge_sorted_counts(self._uniq, self._cnt,
                                                        u, c)

    def _settle(self) -> None:
        """Dedupe the held batches with one sort into the table."""
        if self._held:
            held = self._held
            self._held, self._n_held = [], 0
            self._merge(*dedupe_counts(
                held[0] if len(held) == 1 else np.concatenate(held)))

    def _add_dense(self, items: np.ndarray, mx: int) -> None:
        # dense path: sequential bincount passes — ~10-20x cheaper than the
        # sort-based unique for token-id domains. bincount casts its input
        # to intp anyway; casting a cache-sized chunk first keeps the
        # widened copy in cache
        if self.dense is None:
            self.dense = np.zeros(mx + 1, np.int64)
        elif mx >= len(self.dense):
            self.dense = np.concatenate(
                [self.dense, np.zeros(mx + 1 - len(self.dense), np.int64)])
        for b in range(0, len(items), self.BINCOUNT_CHUNK):
            bc = np.bincount(items[b:b + self.BINCOUNT_CHUNK]
                             .astype(np.intp, copy=False))
            self.dense[:len(bc)] += bc

    def _spill_dense(self) -> None:
        if self.dense is not None:
            nz = np.flatnonzero(self.dense)
            u, c = nz.astype(np.uint64), self.dense[nz]
            self.dense = None
            self._merge(u, c)

    def flush(self) -> None:
        self._settle()
        self._spill_dense()
        if self._uniq is not None and len(self._uniq):
            self.sketch.update(self._uniq, self._cnt)
        self._uniq = self._cnt = None

    def finish(self) -> MergeableSketch:
        self.flush()
        return self.sketch

    def drain_counts(self):
        """(unique, count) accumulated so far WITHOUT updating the sketch
        — used by the multi-round driver to cache shard counts across
        passes. Only valid if nothing has been flushed."""
        self._settle()
        self._spill_dense()
        u, c = self._uniq, self._cnt
        self._uniq = self._cnt = None
        if u is None:
            u = np.empty(0, dtype=np.uint64)
            c = np.empty(0, dtype=np.int64)
        return u, c


def dedupe_counts(items: np.ndarray, counts: Optional[np.ndarray] = None):
    """Pre-aggregate a raw item stream into (unique, count) — the in-batch
    combiner every counting sketch uses before touching its arrays. With
    Zipfian token streams this shrinks per-batch scatter work by ~30x.

    A ``(items, counts)`` table whose items are already strictly
    increasing (every :class:`CountCombiner` hand-over, every cached
    count table) is returned as is: one O(n) scan instead of a second
    sort. Repeated items are summed in int64, exactly."""
    items = np.asarray(items)
    if counts is None:
        uniq, cnt = np.unique(items, return_counts=True)
        return uniq.astype(np.uint64, copy=False), cnt.astype(np.int64, copy=False)
    counts = np.asarray(counts).astype(np.int64, copy=False)
    if len(items) > 1 and not (items[1:] > items[:-1]).all():
        order = np.argsort(items, kind="stable")
        items, counts = _segment_sum(items[order], counts[order])
    return items.astype(np.uint64, copy=False), counts
