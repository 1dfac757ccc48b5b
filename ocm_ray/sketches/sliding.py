"""Sliding-window count-min: frequencies over the last ``window`` items.

Re-expresses the reference's vendored ``SlidingWindow`` wrapper
(``include/ccm.h:839-869``): every incoming item is ``addh``'d into the
wrapped CM and the item that falls out of the window is ``subh``'d, so
the sketch estimates counts within the trailing window only.

Reference quirk, documented rather than reproduced: the vendored
``addh`` only pushes onto the hash queue when the queue is already full,
so a default-constructed (empty-queue) instance never evicts anything.
The type is clearly meant to be constructed with a pre-filled
``queue_size``-length queue — with that intended usage, behavior is
"counts of the last W items", which is what this class implements (with
an exact ring buffer instead of a deque, and batched vectorized
add/evict instead of per-item calls).

Not a :class:`~ocm_ray.sketches.base.MergeableSketch`: the state is a
function of stream ORDER (the last W items), so there is no associative
merge — two half-stream windows cannot be combined into the full
stream's window. Consequently the distributed story is different from
the mergeable sketches: feed it from an ordered stream on one consumer
(``ds.iter_batches`` — streaming, driver memory bounded by the window),
or keep one window per ordered shard when per-shard trailing counts are
the actual requirement. This is the documented partitioning assumption,
per the "custom operators" rules of the build plan.
"""

from __future__ import annotations

from typing import Optional

import os

import numpy as np

from ocm_ray.sketches.countmin import CountMin

U64 = np.uint64


class SlidingWindowCM:
    """Count-min over the trailing ``window`` items of a stream.

    Vanilla (non-conservative) CM only: eviction needs ``subh`` — an
    unconditional subtract at every row — and conservative update's
    row-dependent increments make its cells non-decomposable per item
    (the reference wrapper has the same constraint in spirit: ``sub_t``
    is only sound for the linear update policy).

    All cells stay >= 0: eviction subtracts exactly what was added for
    the evicted items, so each cell always equals the sum of window-item
    contributions hashing to it, and point queries keep the one-sided
    (overestimate-only) CM guarantee *with respect to window counts*.
    """

    def __init__(self, window: int, np_bits: int = 16, nh: int = 5,
                 seedseed: int = 137):
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = int(window)
        self.cm = CountMin(np_bits=np_bits, nh=nh, seedseed=seedseed,
                           conservative=False)
        self._buf = np.zeros(self.window, dtype=U64)  # ring: pos p at p % W
        self._n = 0                                   # stream length so far

    # ------------------------------------------------------------------ ops
    def update(self, items: np.ndarray) -> None:
        """Absorb a batch in stream order (vectorized add + evict)."""
        items = np.ascontiguousarray(items).astype(U64, copy=False)
        m, W, n = len(items), self.window, self._n
        if m == 0:
            return
        # evicted global positions: were in a window, now out of it
        ev_lo, ev_hi = max(0, n - W), max(0, n + m - W)
        old_hi = min(ev_hi, n)
        evicted = []
        if old_hi > ev_lo:            # from the ring (positions < n)
            pos = np.arange(ev_lo, old_hi, dtype=np.int64)
            evicted.append(self._buf[pos % W])
        if ev_hi > max(ev_lo, n):     # batch items already shifted out
            evicted.append(items[max(ev_lo, n) - n: ev_hi - n])
        # ring update BEFORE subtracting reads nothing stale: reads above
        # are materialized copies already
        if m >= W:
            tail = items[-W:]
            idx = (np.arange(n + m - W, n + m, dtype=np.int64)) % W
            self._buf[idx] = tail
        else:
            idx = (np.arange(n, n + m, dtype=np.int64)) % W
            self._buf[idx] = items
        self._n = n + m
        self.cm.update(items)
        if evicted:
            ev = np.concatenate(evicted)
            self.cm.update(ev, counts=np.full(len(ev), -1, dtype=np.int64))

    def estimate(self, items: np.ndarray) -> np.ndarray:
        """One-sided overestimate of each item's count within the last
        ``window`` stream items."""
        return self.cm.estimate(items)

    # ---------------------------------------------------------- persistence
    def save(self, path: str) -> None:
        np.savez(path, window=self.window, n=self._n, buf=self._buf,
                 core=self.cm.core, n_items=self.cm.n_items,
                 np_bits=self.cm.np_bits,
                 nh=self.cm.nh, seedseed=self.cm.seedseed)

    @classmethod
    def load(cls, path: str) -> "SlidingWindowCM":
        # np.savez appends ".npz" to a bare path — accept the same bare
        # path back (symmetric save(p)/load(p) contract)
        if not os.path.exists(path) and os.path.exists(path + ".npz"):
            path = path + ".npz"
        with np.load(path) as z:
            sw = cls(int(z["window"]), np_bits=int(z["np_bits"]),
                     nh=int(z["nh"]), seedseed=int(z["seedseed"]))
            sw._n = int(z["n"])
            sw._buf = z["buf"].copy()
            sw.cm.core = z["core"].copy()
            if "n_items" in z:  # stream-length state (absent in old files)
                sw.cm.n_items = z["n_items"].copy()
        return sw


def sliding_window_counts(ds, column: str, window: int, np_bits: int = 16,
                          nh: int = 5, seedseed: int = 137,
                          batch_size: int = 65536) -> SlidingWindowCM:
    """Consume a Dataset as an ordered stream into a SlidingWindowCM.

    Streaming by construction: ``iter_batches`` pulls blocks with
    backpressure, the driver holds one batch + the W-item ring at a
    time. Order is the dataset's block order — callers who need a
    specific stream order must sort/arrange upstream (the operator's
    documented assumption; a trailing window is only meaningful for an
    ordered stream)."""
    from ocm_ray.engine.tokens import items_from_batch

    sw = SlidingWindowCM(window, np_bits=np_bits, nh=nh, seedseed=seedseed)
    for batch in ds.iter_batches(batch_format="pyarrow",
                                 batch_size=batch_size):
        sw.update(items_from_batch(batch, column))
    return sw
