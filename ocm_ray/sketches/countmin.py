"""Count-min sketch family: vanilla CM, conservative CM, and the offline
(multi-round) OCM / OCCM variants — the reference engine's core algorithms.

Semantics reimplemented from scratch against the behavior documented in
SURVEY.md §2.1-2.2 (reference: ``include/ocm.h:13-105`` for ``ccmbase``,
``include/ocm.h:242-470`` for ``ocmbase``; position mapping
``include/ocm.h:48-52,289-293``; seeds ``include/ocm.h:41-42,273-274``).

Geometry (bit-exact with the reference):
    ``nh`` rows (odd-forced), ``2^np`` counters per row, flat row-major
    array; ``pos(x, i) = (wang(x ^ seed_i) & (2^np - 1)) + (i << np)``;
    row seeds drawn from ``std::mt19937_64(seedseed + 4)``.

Distributed contracts (SURVEY §7.4):
  * vanilla CM — update is a pure scatter-add ⇒ commutative; cell-wise sum
    merge is *bit-identical* to any sequential order at any parallelism.
  * conservative CM — order-dependent. The production kernel is the
    *batched simultaneous* conservative update (see ``_conservative_update``)
    which preserves both one-sided invariants under any partitioning:
        true_count ≤ estimate ≤ vanilla-CM estimate
    so it inherits vanilla's ε–δ bound while staying tighter on skew.
    ``sequential=True`` selects the per-occurrence kernel that is
    bit-identical to the reference at parallelism=1 (parity tests only).
  * OCM rounds — the count pass conditions on a *frozen* collision table
    and is a masked scatter-add ⇒ bit-exact distributed. The collision
    pass writes marks derived from a frozen (previous-round) core ⇒
    cell-wise max merge; reference reads the collision table *live* while
    marking, so sequential order can differ — the engine's frozen-read
    semantics are deterministic and partition-invariant (the deviation is
    measured by the conformance tests, and a ``sequential`` kernel exists
    for exact parity at parallelism=1).

Counters are int64 by default (the reference's int32 would overflow at
10^12-token scale: a 4% hot token ⇒ 4×10^10 > 2^31); ``counter_dtype`` can
be set to int32 for reference-format interop or small per-shard partials.
The conservative kernels raise ``OverflowError`` when an update would push
a cell past the counter dtype's max (see ``_raise_to``).
"""

from __future__ import annotations

import struct
from typing import Dict, Optional

import numpy as np

from ocm_ray.core.hashing import derive_seeds, force_odd_nh, positions
from ocm_ray.sketches.base import MergeableSketch, dedupe_counts, register_sketch

U64 = np.uint64


def _scatter_add(core: np.ndarray, pos: np.ndarray, weights: np.ndarray) -> None:
    """core[pos] += weights, with repeats accumulated.

    Kernel choice is density-dependent: for sparse scatters (unique-token
    batches over a wide table) ``np.add.at`` touches only the hit cells;
    for dense scatters ``np.bincount`` + vector add wins despite
    allocating a core-sized accumulator. Crossover ≈ size/8 indices.

    A core narrower than int64 raises ``OverflowError`` when a cell would
    pass the dtype's max, instead of wrapping; int64 cores skip the check."""
    idx = pos.ravel()
    w = weights.ravel()
    narrow = core.dtype.itemsize < 8
    if idx.size < core.size // 8:
        if narrow and idx.size:
            _check_add(core, idx, w)
        np.add.at(core, idx, w.astype(core.dtype, copy=False))
    else:
        acc = np.bincount(idx, weights=w, minlength=core.size)
        if narrow and float(core.max()) + acc.max() > np.iinfo(core.dtype).max:
            _check_fits(core + acc, core.dtype)
        core += acc.astype(core.dtype, copy=False)


def _check_add(core: np.ndarray, idx: np.ndarray, w: np.ndarray) -> None:
    """Raise if ``core[idx] += w`` (repeats summed) passes the dtype max.
    The bound ``max(core[idx])`` + the sum of the positive weights
    settles the common case without grouping the repeats."""
    hi = np.iinfo(core.dtype).max
    if float(core[idx].max()) + float(np.maximum(w, 0).sum()) <= hi:
        return
    cells, inv = np.unique(idx, return_inverse=True)
    _check_fits(core[cells] + np.bincount(inv, weights=w), core.dtype)


def _check_fits(total: np.ndarray, dtype: np.dtype) -> None:
    hi = np.iinfo(dtype).max
    if total.size and total.max() > hi:
        raise OverflowError(
            f"count-min cell would exceed the {dtype} counter max {hi}; "
            "use counter_dtype='int64'")


def _raise_to(floor: np.ndarray, cnt: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """``floor + cnt`` in the counter dtype — the value a conservative
    update raises an item's cells to.

    ``floor`` (counter dtype) + ``cnt`` (int64) is int64; handing that to
    ``np.maximum.at`` over an int32 core drops numpy onto its generic
    casting loop, 15-45x slower than the same-dtype fast path. Casting
    here keeps every proposal in the core's dtype, and a target past the
    dtype's max raises ``OverflowError`` instead of wrapping negative."""
    target = floor.astype(np.int64, copy=False) + cnt
    if target.dtype == dtype:
        return target
    _check_fits(target, dtype)
    return target.astype(dtype)


def _mark(collision: np.ndarray, idx: np.ndarray, value: int) -> None:
    """``collision[idx] = max(collision[idx], value)`` for one scalar mark.
    Repeats in ``idx`` all store the same value, so a gather + max +
    scatter equals ``np.maximum.at`` without its per-element loop."""
    collision[idx] = np.maximum(collision[idx], np.int32(value))


class _CMGeometry(MergeableSketch):
    """Shared geometry/serialization for the count-min family."""

    def __init__(self, np_bits: int = 20, nh: int = 7, seedseed: int = 137,
                 counter_dtype: str = "int64"):
        self.np_bits = int(np_bits)
        self.nh = force_odd_nh(int(nh))
        self.seedseed = int(seedseed)
        self.counter_dtype = counter_dtype
        self.seeds = derive_seeds(self.nh, self.seedseed)
        self.width = 1 << self.np_bits
        self.size = self.nh << self.np_bits
        self.core = np.zeros(self.size, dtype=np.dtype(counter_dtype))
        self.n_items = np.zeros(1, dtype=np.int64)  # total stream length N (for εN bounds)

    def _positions(self, items: np.ndarray) -> np.ndarray:
        return positions(items, self.seeds, self.np_bits)

    @property
    def total_items(self) -> int:
        return int(self.n_items[0])

    def epsilon(self) -> float:
        """Standard CM bound: err ≤ (e/w)·N with prob ≥ 1 − e^−nh."""
        return float(np.e) / self.width


@register_sketch
class CountMin(_CMGeometry):
    """Single-pass count-min (reference ``ccmbase``, ``include/ocm.h:13-105``).

    ``conservative=False`` → vanilla (``update_count`` non-conservative
    branch, ``include/ocm.h:54-55``); ``True`` → conservative update
    (``include/ocm.h:57-66``) via the batched kernel described in the
    module docstring.
    """

    kind = "countmin"

    def __init__(self, np_bits: int = 20, nh: int = 7, seedseed: int = 137,
                 conservative: bool = False, counter_dtype: str = "int64"):
        super().__init__(np_bits, nh, seedseed, counter_dtype)
        self.conservative = bool(conservative)

    # ---- updates ----------------------------------------------------------
    def update(self, items: np.ndarray, counts: Optional[np.ndarray] = None) -> None:
        items = np.asarray(items).astype(U64, copy=False)
        if items.size == 0:
            return
        uniq, cnt = dedupe_counts(items, counts)
        self.n_items[0] += int(cnt.sum())
        pos = self._positions(uniq)
        if not self.conservative:
            # pos.T is C-order (nh, U): scatter row by row, weights to match
            _scatter_add(self.core, pos.T, np.tile(cnt, self.nh))
        else:
            self._conservative_update(pos, cnt)

    def _conservative_update(self, pos: np.ndarray, cnt: np.ndarray) -> None:
        """Batched simultaneous conservative update.

        For each unique item x with in-batch count c: the sequential
        conservative rule applied c times in a row raises every cell of
        pos(x) to ``max(cell, min(cells) + c)``. Applying all uniques
        simultaneously against the batch-start snapshot and resolving cell
        contention with a max-scatter keeps both one-sided invariants
        (lower: every proposed value ≥ min+c ≥ true; upper: proposal
        ≤ cell + c ≤ vanilla) under any batch/partition split.

        Runs row by row: a running minimum over the rows of ``pos.T``,
        then one max-scatter of the targets per row. Rows are disjoint
        cell ranges and cells only rise, so a row's cells still hold the
        snapshot when its scatter runs, and ``max(cell, target)`` equals
        the max-scatter of ``max(snapshot, target)``.
        """
        core = self.core
        rows = pos.T                                 # C-order (nh, U)
        floor = core[rows[0]]
        buf = np.empty_like(floor)
        for r in rows[1:]:
            np.minimum(floor, np.take(core, r, out=buf, mode="clip"),
                       out=floor)
        target = _raise_to(floor, cnt, core.dtype)
        for r in rows:
            np.maximum.at(core, r, target)

    def update_sequential(self, items: np.ndarray) -> None:
        """Per-occurrence kernel, bit-identical to the reference's stream
        order (``include/ocm.h:46-69``). Parity tests only — O(rows)."""
        items = np.asarray(items).astype(U64, copy=False)
        pos_all = self._positions(items)
        core = self.core
        if not self.conservative:
            for p in pos_all:
                core[p] += 1
        else:
            for p in pos_all:
                v = core[p]
                m = v.min()
                core[p[v == m]] += 1
        self.n_items[0] += items.size

    # ---- queries ----------------------------------------------------------
    def estimate(self, items: np.ndarray) -> np.ndarray:
        """Point query: min over the item's cells (``include/ocm.h:71-83``)."""
        items = np.asarray(items).astype(U64, copy=False)
        if items.size == 0:
            return np.zeros(0, dtype=np.int64)
        rows = self._positions(items).T
        return np.minimum.reduce(self.core[rows], axis=0).astype(np.int64)

    # ---- set algebra -------------------------------------------------------
    def intersect(self, other: "CountMin") -> "CountMin":
        """Cell-wise minimum (``include/ccm.h:393-400`` ``operator&=``):
        the CM of the multiset intersection's upper bound — items present
        in both streams keep ≥ min of their counts; items in only one
        stream drop toward 0 wherever the other sketch left a cell
        empty."""
        assert (self.np_bits, self.nh, self.seedseed) == \
               (other.np_bits, other.nh, other.seedseed), "geometry mismatch"
        np.minimum(self.core, other.core, out=self.core)
        self.n_items[0] = min(int(self.n_items[0]), int(other.n_items[0]))
        return self

    def inner_product(self, other: "CountMin") -> int:
        """AMS/CM inner-product estimate (Cormode-Muthukrishnan §4.2):
        ``min over rows j of  core_a[j] · core_b[j]`` — estimates
        ``Σ_x f_a(x)·f_b(x)`` (e.g. an equi-join size when each sketch
        counts one side's join keys). ONE-SIDED: always ≥ the true
        inner product, within ``ε·N_a·N_b`` with prob 1−δ (ε=e/w,
        δ=e^−nh). Not in the vendored ccm.h (which stops at the
        cell-wise-min intersect); standard published estimator."""
        assert (self.np_bits, self.nh, self.seedseed) == \
               (other.np_bits, other.nh, other.seedseed), "geometry mismatch"
        # exact integer accumulation (ADVICE r3 #4): a float64 dot can
        # round DOWN past 2^53 and break the documented one-sided
        # (always >= true) guarantee. Fast path: int64 products when an
        # upper bound proves no overflow; else arbitrary-precision
        # Python ints (object dtype) — exact at any N.
        a = self.core.reshape(self.nh, -1)
        b = other.core.reshape(self.nh, -1)
        amax, bmax = int(a.max()), int(b.max())
        if amax * bmax * a.shape[1] < 2 ** 62:
            a64 = a.astype(np.int64, copy=False)
            b64 = b.astype(np.int64, copy=False)
            return int((a64 * b64).sum(axis=1).min())
        dots = [int(np.multiply(ra.astype(object), rb.astype(object)).sum())
                for ra, rb in zip(a, b)]
        return min(dots)

    # ---- merge / io --------------------------------------------------------
    def merge(self, other: "CountMin") -> "CountMin":
        assert (self.np_bits, self.nh, self.seedseed) == \
               (other.np_bits, other.nh, other.seedseed), "geometry mismatch"
        self.core += other.core
        self.n_items += other.n_items
        return self

    def _params(self) -> Dict:
        return dict(np_bits=self.np_bits, nh=self.nh, seedseed=self.seedseed,
                    conservative=self.conservative, counter_dtype=self.counter_dtype)

    def _arrays(self) -> Dict[str, np.ndarray]:
        return {"core": self.core, "n_items": self.n_items}

    # Reference binary interop: header ``(uint32 np, uint32 nh, uint64 seed)``
    # then the core array (``include/ocm.h:216-233``). The reference drivers
    # instantiate ``ccmbase<uint64_t, WangHash>`` (``cm.cpp:33``), so
    # ``CounterType`` — and each serialized cell — is uint64, not the
    # template default int32.
    def save_reference_format(self, path: str) -> None:
        with open(path, "wb") as f:
            f.write(struct.pack("<IIQ", self.np_bits, self.nh, self.seedseed))
            f.write(self.core.astype("<u8").tobytes())

    @classmethod
    def load_reference_format(cls, path: str, conservative: bool = False) -> "CountMin":
        with open(path, "rb") as f:
            np_bits, nh, seed = struct.unpack("<IIQ", f.read(16))
            obj = cls(np_bits, nh, seed, conservative=conservative)
            obj.core = np.frombuffer(f.read(obj.size * 8), dtype="<u8").astype(obj.core.dtype)
        return obj


@register_sketch
class CountMinPow2(_CMGeometry):
    """Count-min with the ``PowerOfTwo`` update strategy
    (``include/update.h:35-84``) — Morris-style probabilistic counters:
    each cell stores an exponent ``v``; an occurrence increments ``v``
    with probability ``2^-v`` (first occurrence sets ``v=1``);
    ``est_count(v) = 2^(v-1)`` (``update.h:81-83``); **combine =
    max(a,b) + (a==b)** (``update.h:73-78``) — with the engine deviation
    that two EMPTY cells combine to 0, not 1 (the reference formula
    yields 1 for v=a=b=0, which would corrupt empty-sketch merges).
    Point query = min over rows of the per-cell estimates. ~64x less
    counter memory (uint8 exponents) at a bounded relative-error cost —
    the update-strategy extension surface of SURVEY §2.4.

    Batched semantics: occurrences land pre-aggregated per cell; the
    sequential per-occurrence trial chain is simulated exactly via
    geometric skipping (between increments the success probability is
    constant), with a deterministic counter-mode WangHash RNG.
    """

    kind = "countmin_pow2"

    def __init__(self, np_bits: int = 20, nh: int = 7, seedseed: int = 137):
        super().__init__(np_bits, nh, seedseed, counter_dtype="uint8")
        # decay-RNG counter persists with the state (like HeavyKeeper's
        # _ctr): a restored sketch must NOT replay a fresh sketch's
        # random stream, which would correlate Morris trials across
        # save/load cycles
        self._rng_ctr = np.zeros(1, dtype=np.int64)

    def _uniform(self, k: int) -> np.ndarray:
        from ocm_ray.core.hashing import counter_uniforms

        return counter_uniforms(self._rng_ctr, self.seedseed, k)

    def update(self, items: np.ndarray, counts: Optional[np.ndarray] = None) -> None:
        items = np.asarray(items).astype(U64, copy=False)
        if items.size == 0:
            return
        uniq, cnt = dedupe_counts(items, counts)
        self.n_items[0] += int(cnt.sum())
        pos = self._positions(uniq)
        # occurrences are indistinguishable to a Morris counter — pool the
        # batch's occurrence total per distinct cell, then simulate each
        # cell's sequential trial chain once
        flat_pos = pos.ravel()
        w = np.repeat(cnt, self.nh)
        cells, inv = np.unique(flat_pos, return_inverse=True)
        n_per_cell = np.bincount(inv, weights=w).astype(np.int64)
        v = self.core[cells].astype(np.int64)
        rem = n_per_cell.copy()
        first = v == 0
        v[first] += 1
        rem[first] -= 1
        while True:
            active = rem > 0
            if not active.any():
                break
            idx = np.flatnonzero(active)
            pinc = np.exp2(-v[idx].astype(np.float64))
            u = self._uniform(len(idx))
            with np.errstate(divide="ignore", over="ignore"):
                G = np.where(pinc >= 1.0, 1.0,
                             np.ceil(np.log(u) / np.log1p(-pinc)))
            G = np.maximum(G, 1.0)
            succ = G <= rem[idx]
            g_int = np.where(succ, G, 0).astype(np.int64)
            rem[idx] = np.where(succ, rem[idx] - g_int, 0)
            v[idx] += succ.astype(np.int64)
        self.core[cells] = np.minimum(v, 255).astype(self.core.dtype)

    @staticmethod
    def est_count(v: np.ndarray) -> np.ndarray:
        return np.where(v > 0, np.exp2(np.maximum(
            v.astype(np.float64) - 1, 0)), 0.0)

    def estimate(self, items: np.ndarray) -> np.ndarray:
        items = np.asarray(items).astype(U64, copy=False)
        if items.size == 0:
            return np.zeros(0, dtype=np.int64)
        pos = self._positions(items)
        est = self.est_count(self.core[pos]).min(axis=1)
        return np.minimum(est, np.float64(2.0**62)).astype(np.int64)

    def merge(self, other: "CountMinPow2") -> "CountMinPow2":
        assert (self.np_bits, self.nh, self.seedseed) == \
               (other.np_bits, other.nh, other.seedseed), "geometry mismatch"
        a = self.core.astype(np.int64)
        b = other.core.astype(np.int64)
        combined = np.maximum(a, b) + (a == b)
        combined[(a == 0) & (b == 0)] = 0
        self.core = np.minimum(combined, 255).astype(self.core.dtype)
        self.n_items += other.n_items
        # advance past BOTH streams' counters (HeavyKeeper.merge shape):
        # re-consuming values the merged-in partial already used would
        # correlate subsequent Morris trials with its past trials
        self._rng_ctr[0] = max(int(self._rng_ctr[0]),
                               int(other._rng_ctr[0])) + 1
        return self

    def _params(self) -> Dict:
        return dict(np_bits=self.np_bits, nh=self.nh, seedseed=self.seedseed)

    def _arrays(self) -> Dict[str, np.ndarray]:
        return {"core": self.core, "n_items": self.n_items,
                "_rng_ctr": self._rng_ctr}


@register_sketch
class OfflineCountMin(_CMGeometry):
    """Offline (multi-round) count-min — the reference's novel contribution
    (``ocmbase``, ``include/ocm.h:242-470``). Carries a parallel
    ``collision`` table; each round marks collision-suspect cells against
    the previous round's counts, then recounts using only min-collision
    cells. ``conservative=True`` selects the fused OCCM pass
    (``update_count_collision``, ``include/ocm.h:301-348``) whose effective
    multi-round algorithm is: per round, zero core + one fused pass
    (SURVEY §2.1 row 20 — the coded r>0 collision pass is a proven no-op).

    Per-round distributed flow (engine/rounds.py):
      round r: [r>0: collision pass vs broadcast frozen (core,coll) → max-merge]
               zero core → count pass vs broadcast frozen coll → sum-merge.
    """

    kind = "ocm"

    def __init__(self, np_bits: int = 20, nh: int = 7, seedseed: int = 137,
                 conservative: bool = False, counter_dtype: str = "int64"):
        super().__init__(np_bits, nh, seedseed, counter_dtype)
        self.conservative = bool(conservative)
        self.collision = np.zeros(self.size, dtype=np.int32)

    def clear_core(self) -> None:
        """Between-rounds reset (``include/ocm.h:277-281``): zero the counts,
        keep the collision table."""
        self.core[:] = 0
        self.n_items[:] = 0

    # ---- round passes ------------------------------------------------------
    def update_count(self, items: np.ndarray, counts: Optional[np.ndarray] = None,
                     frozen_collision: Optional[np.ndarray] = None) -> None:
        """Non-conservative count pass (``include/ocm.h:283-299``):
        ``core[p] += c`` for cells whose collision equals the item's min
        collision. Conditioning on a frozen table makes this a masked
        scatter-add — order-free and bit-exact under sum-merge."""
        coll = self.collision if frozen_collision is None else frozen_collision
        items = np.asarray(items).astype(U64, copy=False)
        if items.size == 0:
            return
        uniq, cnt = dedupe_counts(items, counts)
        self.n_items[0] += int(cnt.sum())
        pos = self._positions(uniq)
        cvals = coll[pos]                                   # (U, nh)
        mask = cvals == cvals.min(axis=1, keepdims=True)
        w = np.broadcast_to(cnt[:, None], pos.shape)
        _scatter_add(self.core, pos[mask], w[mask].astype(np.float64))

    def update_collision(self, items: np.ndarray, round_no: int,
                         counts: Optional[np.ndarray] = None,
                         frozen_core: Optional[np.ndarray] = None,
                         frozen_collision: Optional[np.ndarray] = None) -> None:
        """Collision-marking pass (``include/ocm.h:350-377``), frozen-read
        semantics: for items whose (frozen) min collision ≥ round−2, set
        ``collision[p] = round−1`` on cells whose (frozen, previous-round)
        count exceeds the item's min count. Writes only ever raise values
        (prior marks ≤ round−2) ⇒ cell-wise max merge, order-free."""
        core = self.core if frozen_core is None else frozen_core
        coll_read = self.collision if frozen_collision is None else frozen_collision
        items = np.asarray(items).astype(U64, copy=False)
        if items.size == 0:
            return
        uniq, _ = dedupe_counts(items, counts)
        pos = self._positions(uniq)
        cvals = coll_read[pos]
        gate = cvals.min(axis=1) >= round_no - 2
        if not gate.any():
            return
        pos_g = pos[gate]
        vals = core[pos_g]
        mark = vals > vals.min(axis=1, keepdims=True)
        _mark(self.collision, pos_g[mark], round_no - 1)

    def update_count_collision(self, items: np.ndarray, round_no: int,
                               total_round: int,
                               counts: Optional[np.ndarray] = None) -> None:
        """Fused OCCM pass (``include/ocm.h:301-348``), batched kernel.

        Per unique item x with in-batch count c, against the batch-start
        snapshot (sum/max contention resolved by max-scatter):
          * min-collision < round−1 (some cell clean last round): restrict
            to min-collision cells S; raise cells of S to
            ``max(v, min_S + c)`` (the c-fold repetition of the
            reference's conservative bump within S).
          * else: m = min over all cells; if round < total_round mark
            ``collision[p] = round`` where v > m; raise all cells to
            ``max(v, m + c)``.
        Same sandwich invariants as the conservative CM kernel, per round.
        """
        items = np.asarray(items).astype(U64, copy=False)
        if items.size == 0:
            return
        uniq, cnt = dedupe_counts(items, counts)
        self.n_items[0] += int(cnt.sum())
        pos = self._positions(uniq)
        cvals = self.collision[pos]
        mc = cvals.min(axis=1)
        vals = self.core[pos]

        clean = mc < round_no - 1
        # Branch 1: conservative bump within min-collision cells.
        if clean.any():
            sel = cvals[clean] == mc[clean][:, None]
            v1 = vals[clean]
            m1 = np.where(sel, v1, np.iinfo(v1.dtype).max).min(axis=1)
            target = _raise_to(m1, cnt[clean], self.core.dtype)[:, None]
            prop = np.where(sel, np.maximum(v1, target), v1)
            np.maximum.at(self.core, pos[clean].ravel(), prop.ravel())
        # Branch 2: all cells collided last round — conservative bump over all
        # cells + fresh collision marks.
        dirty = ~clean
        if dirty.any():
            v2 = vals[dirty]
            m2 = v2.min(axis=1)
            target = _raise_to(m2, cnt[dirty], self.core.dtype)
            prop = np.maximum(v2, target[:, None])
            np.maximum.at(self.core, pos[dirty].ravel(), prop.ravel())
            if round_no < total_round:
                mark = v2 > m2[:, None]
                _mark(self.collision, pos[dirty][mark], round_no)

    # ---- sequential parity kernels (parallelism=1 conformance only) --------
    def update_count_sequential(self, items: np.ndarray) -> None:
        core, coll = self.core, self.collision
        for p in self._positions(np.asarray(items).astype(U64, copy=False)):
            c = coll[p]
            core[p[c == c.min()]] += 1
        self.n_items[0] += len(items)

    def update_collision_sequential(self, items: np.ndarray, round_no: int) -> None:
        """Live-read marking, matching the reference's in-order mutation."""
        core, coll = self.core, self.collision
        for p in self._positions(np.asarray(items).astype(U64, copy=False)):
            if coll[p].min() >= round_no - 2:
                v = core[p]
                coll[p[v > v.min()]] = round_no - 1

    def update_count_collision_sequential(self, items: np.ndarray, round_no: int,
                                          total_round: int) -> None:
        core, coll = self.core, self.collision
        for p in self._positions(np.asarray(items).astype(U64, copy=False)):
            c = coll[p]
            mc = c.min()
            if mc < round_no - 1:
                sel = c == mc
                v = core[p[sel]]
                m = v.min()
                core[p[sel][v == m]] = m + 1
            else:
                v = core[p]
                m = v.min()
                if round_no < total_round:
                    coll[p[v > m]] = round_no
                core[p[v == m]] = m + 1
        self.n_items[0] += len(items)

    # ---- queries -----------------------------------------------------------
    def estimate(self, items: np.ndarray) -> np.ndarray:
        """Min count over the item's min-collision cells
        (``include/ocm.h:379-399``)."""
        items = np.asarray(items).astype(U64, copy=False)
        if items.size == 0:
            return np.zeros(0, dtype=np.int64)
        pos = self._positions(items)
        cvals = self.collision[pos]
        sel = cvals == cvals.min(axis=1, keepdims=True)
        vals = self.core[pos]
        big = np.iinfo(vals.dtype).max
        return np.where(sel, vals, big).min(axis=1).astype(np.int64)

    # update() on the OCM means "single fused pass at round 0" so it can sit
    # behind the generic build API; the multi-round driver calls the pass
    # methods explicitly.
    def update(self, items: np.ndarray, counts: Optional[np.ndarray] = None) -> None:
        if self.conservative:
            self.update_count_collision(items, 0, 1, counts)
        else:
            self.update_count(items, counts)

    # ---- merge / io --------------------------------------------------------
    def merge(self, other: "OfflineCountMin") -> "OfflineCountMin":
        assert (self.np_bits, self.nh, self.seedseed) == \
               (other.np_bits, other.nh, other.seedseed), "geometry mismatch"
        self.core += other.core
        np.maximum(self.collision, other.collision, out=self.collision)
        self.n_items += other.n_items
        return self

    def merge_collision(self, other: "OfflineCountMin") -> "OfflineCountMin":
        """Merge for collision-pass partials (max only; cores untouched)."""
        np.maximum(self.collision, other.collision, out=self.collision)
        return self

    def _params(self) -> Dict:
        return dict(np_bits=self.np_bits, nh=self.nh, seedseed=self.seedseed,
                    conservative=self.conservative, counter_dtype=self.counter_dtype)

    def _arrays(self) -> Dict[str, np.ndarray]:
        return {"core": self.core, "collision": self.collision, "n_items": self.n_items}

    # Reference binary format: header + core (uint64 cells — the drivers
    # instantiate ``ocmbase<uint64_t, ...>``, ``main.cpp:38,66``) + collision
    # written through ``int temp`` as int32 (``include/ocm.h:443-466`` save,
    # ``:420-440`` load).
    def save_reference_format(self, path: str) -> None:
        with open(path, "wb") as f:
            f.write(struct.pack("<IIQ", self.np_bits, self.nh, self.seedseed))
            f.write(self.core.astype("<u8").tobytes())
            f.write(self.collision.astype("<i4").tobytes())

    @classmethod
    def load_reference_format(cls, path: str, conservative: bool = False) -> "OfflineCountMin":
        with open(path, "rb") as f:
            np_bits, nh, seed = struct.unpack("<IIQ", f.read(16))
            obj = cls(np_bits, nh, seed, conservative=conservative)
            obj.core = np.frombuffer(f.read(obj.size * 8), dtype="<u8").astype(obj.core.dtype)
            obj.collision = np.frombuffer(f.read(obj.size * 4), dtype="<i4").astype(np.int32)
        return obj
