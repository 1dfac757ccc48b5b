"""HyperBitBit — Sedgewick's 134-bit cardinality estimator (``hbb.h``).

Behavioral contract from ``/root/reference/include/hbb.h:17-47``
(``HyperBitBit<WangHash>``): state is ``(logn, s1, s2)`` — two 64-bit
bitmaps plus a threshold. For each hashed item ``hv``:

* ``r = ctz(hv)`` (trailing zeros — geometric "rank");
* if ``r > logn``: set bit ``k = hv >> 58`` (top 6 bits) in ``s1``, and
  also in ``s2`` when ``r > logn + 1``;
* when ``popcount(s1) > 31``: roll over — ``s1 = s2, s2 = 0, logn += 1``.

Estimate: ``2 ** (logn + 5.8 + popcount(s1) / 32)`` (``hbb.h:41-44``;
the estimator's bias constant is Sedgewick's empirical 5.8).

Like the reference, the rollover makes the state a function of stream
ORDER — two half-stream sketches cannot be associatively merged, so this
is NOT a :class:`~ocm_ray.sketches.base.MergeableSketch` (the reason
SURVEY §2.3 originally dispositioned it out; it is implemented here as
an ordered-stream estimator with the same contract as
:class:`~ocm_ray.sketches.sliding.SlidingWindowCM`: consume via
``iter_batches`` on one consumer, or keep one instance per ordered
shard). Mergeable cardinality lives in HLL / PCSA / HyperMinHash /
SetSketch.

Engine adaptation: items are hashed ``wanghash(x ^ seedseed)`` (the
engine's one codec; the reference's ``HashStruct`` default is the same
WangHash, unseeded). The batch kernel is vectorized with an epoch loop:
within one ``logn`` epoch the qualifying bits are prefix-ORed and the
first prefix whose popcount exceeds 31 locates the rollover exactly —
bit-exact against the sequential reference semantics (tested), with at
most (#rollovers + 1) vector passes per batch.
"""

from __future__ import annotations

import os

import numpy as np

from ocm_ray.core.hashing import wanghash

U64 = np.uint64

from ocm_ray.core.hashing import popcount64 as _popcount


def _ctz(v: np.ndarray) -> np.ndarray:
    """Trailing-zero count per uint64 (64 for v == 0):
    ``popcount((v & -v) - 1)``."""
    with np.errstate(over="ignore"):
        low = v & (~v + U64(1))          # lowest set bit (0 if v == 0)
        return _popcount(low - U64(1))   # 0 - 1 wraps to all-ones -> 64


class HyperBitBit:
    """Ordered-stream HyperBitBit (``hbb.h:17-47`` semantics)."""

    def __init__(self, seedseed: int = 137):
        self.seedseed = int(seedseed)
        self.logn = 5
        self.s1 = U64(0)
        self.s2 = U64(0)

    # ------------------------------------------------------------------ ops
    def update(self, items: np.ndarray) -> None:
        """Absorb a batch in stream order (vectorized epoch kernel)."""
        items = np.asarray(items).astype(U64, copy=False)
        if items.size == 0:
            return
        hv = wanghash(items ^ U64(self.seedseed))
        r = _ctz(hv)
        bit = U64(1) << (hv >> U64(58))
        i = 0
        m = len(hv)
        while i < m:
            qual = np.nonzero(r[i:] > self.logn)[0]
            if qual.size == 0:
                return
            qual += i
            acc = np.bitwise_or.accumulate(bit[qual]) | self.s1
            over = np.nonzero(_popcount(acc) > 31)[0]
            deep = r[qual] > self.logn + 1   # bits that also go to s2
            if over.size == 0:
                self.s1 = acc[-1]
                if deep.any():
                    self.s2 |= np.bitwise_or.reduce(bit[qual[deep]])
                return
            j = int(over[0])                 # first item tripping rollover
            if deep[: j + 1].any():
                self.s2 |= np.bitwise_or.reduce(bit[qual[: j + 1][deep[: j + 1]]])
            self.s1, self.s2 = self.s2, U64(0)
            self.logn += 1
            i = int(qual[j]) + 1

    def update_sequential(self, items: np.ndarray) -> None:
        """Item-at-a-time reference kernel (``hbb.h:28-38`` verbatim
        semantics) — parity target for the vectorized path."""
        items = np.asarray(items).astype(U64, copy=False)
        for hv in wanghash(items ^ U64(self.seedseed)):
            v = int(hv)
            rr = (v & -v).bit_length() - 1 if v else 64
            if rr > self.logn:
                b = 1 << (v >> 58)
                s1 = int(self.s1) | b
                s2 = int(self.s2) | (b if rr > self.logn + 1 else 0)
                if s1.bit_count() > 31:
                    s1, s2, self.logn = s2, 0, self.logn + 1
                self.s1, self.s2 = U64(s1), U64(s2)

    def estimate(self) -> float:
        """``2^(logn + 5.8 + popcount(s1)/32)`` (``hbb.h:41-44``)."""
        pc = int(self.s1).bit_count()
        return float(2.0 ** (self.logn + 5.8 + pc / 32.0))

    # ---------------------------------------------------------- persistence
    def save(self, path: str) -> None:
        np.savez(path, seedseed=self.seedseed, logn=self.logn,
                 s=np.array([self.s1, self.s2], dtype=U64))

    @classmethod
    def load(cls, path: str) -> "HyperBitBit":
        # np.savez appends ".npz" to a bare path — accept the same bare
        # path back (symmetric save(p)/load(p) contract)
        if not os.path.exists(path) and os.path.exists(path + ".npz"):
            path = path + ".npz"
        with np.load(path) as z:
            hb = cls(seedseed=int(z["seedseed"]))
            hb.logn = int(z["logn"])
            hb.s1, hb.s2 = U64(z["s"][0]), U64(z["s"][1])
        return hb


def hyperbitbit_estimate(ds, column: str, seedseed: int = 137,
                         batch_size: int = 65536) -> HyperBitBit:
    """Consume a Dataset as an ordered stream into a HyperBitBit
    (streaming: ``iter_batches`` pulls blocks with backpressure; the
    driver holds one batch plus 17 bytes of sketch state). Order is the
    dataset's block order — the documented assumption, as for
    :func:`~ocm_ray.sketches.sliding.sliding_window_counts`."""
    from ocm_ray.engine.tokens import items_from_batch

    hb = HyperBitBit(seedseed=seedseed)
    for batch in ds.iter_batches(batch_format="pyarrow",
                                 batch_size=batch_size):
        hb.update(items_from_batch(batch, column))
    return hb
