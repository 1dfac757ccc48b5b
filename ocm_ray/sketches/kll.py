"""KLL quantile sketch (Karnin-Lang-Liberty, FOCS'16; cf. PAPERS.md
"KLL±: Approximate Quantile Sketches over Dynamic Datasets", VLDB'21).

The vendored library's quantile analogue is DDSketch (``dd.h``); the north
rule asks for KLL, implemented here from the published algorithm:

* a hierarchy of compactors; level ``h`` items carry weight ``2^h``;
* level capacities decay geometrically (``c = 2/3``) from ``k`` at the top;
* a full level is sorted and every other item (random even/odd offset) is
  promoted one level up — halving the item count, preserving expected rank;
* merge = concatenate levels pairwise, then re-compact.

Randomized: merge is associative *in distribution* (rank-error bound is
preserved), not bitwise — the coin stream is deterministic per sketch
(counter + seedseed through WangHash) so a single-threaded run reproduces
exactly, but different partition groupings legitimately differ within the
ε bound. Rank error is O(1/k) with high probability.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ocm_ray.core.hashing import wanghash_scalar
from ocm_ray.sketches.base import MergeableSketch, register_sketch


@register_sketch
class KLL(MergeableSketch):
    kind = "kll"
    C = 2.0 / 3.0

    def __init__(self, k: int = 200, seedseed: int = 137):
        self.k = int(k)
        self.seedseed = int(seedseed)
        self.levels: List[np.ndarray] = [np.empty(0, dtype=np.float64)]
        self.n = np.zeros(1, dtype=np.int64)
        self._coin_ctr = 0

    # ---- internals ---------------------------------------------------------
    def _capacity(self, level: int) -> int:
        depth = len(self.levels) - 1 - level
        return max(2, int(np.ceil(self.k * (self.C ** depth))))

    def _coin(self) -> int:
        self._coin_ctr += 1
        return wanghash_scalar(self._coin_ctr ^ (self.seedseed << 32)) & 1

    def _total(self) -> int:
        return sum(len(l) for l in self.levels)

    def _cap_total(self) -> int:
        return sum(self._capacity(h) for h in range(len(self.levels)))

    def _compress(self) -> None:
        while self._total() > self._cap_total():
            for h in range(len(self.levels)):
                if len(self.levels[h]) > self._capacity(h):
                    buf = np.sort(self.levels[h])
                    # odd buffer: one item stays behind (can't pair)
                    if len(buf) % 2 == 1:
                        keep, buf = buf[-1:], buf[:-1]
                    else:
                        keep = np.empty(0, dtype=np.float64)
                    promoted = buf[self._coin()::2]  # half the items, double weight
                    if h + 1 == len(self.levels):
                        self.levels.append(np.empty(0, dtype=np.float64))
                    self.levels[h] = keep
                    self.levels[h + 1] = np.concatenate([self.levels[h + 1], promoted])
                    break
            else:
                break

    # ---- update ------------------------------------------------------------
    def update_values(self, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=np.float64)
        values = values[~np.isnan(values)]
        if values.size == 0:
            return
        self.n[0] += values.size
        # feed in chunks so level-0 never balloons past ~4 capacities
        chunk = max(64, 4 * self.k)
        for i in range(0, len(values), chunk):
            self.levels[0] = np.concatenate([self.levels[0], values[i:i + chunk]])
            self._compress()

    def update(self, items: np.ndarray, counts: Optional[np.ndarray] = None) -> None:
        items = np.asarray(items)
        if counts is None:
            self.update_values(items.astype(np.float64))
            return
        # weighted insert WITHOUT materializing the stream (np.repeat
        # would allocate O(sum(counts)) — an 8 GB spike for a 1B-row
        # pre-aggregated shard): decompose each weight in binary and
        # insert the value directly at every level h with bit h set — a
        # level-h item carries weight 2^h, and promoting equal values
        # pairwise is lossless, so this is rank-equivalent to the repeat.
        vals = np.asarray(items, dtype=np.float64)
        cnt = np.asarray(counts, dtype=np.int64)
        keep = (cnt > 0) & ~np.isnan(vals)
        vals, cnt = vals[keep], cnt[keep]
        if vals.size == 0:
            return
        self.n[0] += int(cnt.sum())
        chunk = max(64, 4 * self.k)
        for h in range(int(cnt.max()).bit_length()):
            sel = (cnt >> h) & 1 == 1
            if not sel.any():
                continue
            while len(self.levels) <= h:
                self.levels.append(np.empty(0, dtype=np.float64))
            v = vals[sel]
            for i in range(0, len(v), chunk):
                self.levels[h] = np.concatenate([self.levels[h],
                                                 v[i:i + chunk]])
                self._compress()

    # ---- queries -----------------------------------------------------------
    def _weighted(self):
        vals, wts = [], []
        for h, buf in enumerate(self.levels):
            if len(buf):
                vals.append(buf)
                wts.append(np.full(len(buf), 1 << h, dtype=np.int64))
        if not vals:
            return np.empty(0), np.empty(0, dtype=np.int64)
        v = np.concatenate(vals)
        w = np.concatenate(wts)
        order = np.argsort(v, kind="stable")
        return v[order], w[order]

    def quantile(self, q) -> np.ndarray:
        """Value(s) at normalized rank(s) q ∈ [0,1]."""
        qs = np.atleast_1d(np.asarray(q, dtype=np.float64))
        v, w = self._weighted()
        if v.size == 0:
            return np.full(qs.shape, np.nan) if np.ndim(q) else float("nan")
        cum = np.cumsum(w) - w / 2.0
        ranks = qs * float(w.sum())
        out = np.interp(ranks, cum, v)
        return out if np.ndim(q) else float(out[0])  # scalar in, scalar out

    def rank(self, values) -> np.ndarray:
        """Approximate normalized rank of each value."""
        xs = np.atleast_1d(np.asarray(values, dtype=np.float64))
        v, w = self._weighted()
        if v.size == 0:
            return np.full(xs.shape, np.nan)
        cum = np.concatenate([[0], np.cumsum(w)]).astype(np.float64)
        idx = np.searchsorted(v, xs, side="right")
        return cum[idx] / cum[-1]

    def cdf(self, values) -> np.ndarray:
        return self.rank(values)

    # ---- merge / io --------------------------------------------------------
    def merge(self, other: "KLL") -> "KLL":
        assert self.k == other.k, "geometry mismatch"
        while len(self.levels) < len(other.levels):
            self.levels.append(np.empty(0, dtype=np.float64))
        for h, buf in enumerate(other.levels):
            if len(buf):
                self.levels[h] = np.concatenate([self.levels[h], buf])
        self.n += other.n
        self._coin_ctr = max(self._coin_ctr, other._coin_ctr) + 1
        self._compress()
        return self

    def _params(self) -> Dict:
        return dict(k=self.k, seedseed=self.seedseed)

    def _arrays(self) -> Dict[str, np.ndarray]:
        out = {f"level_{h}": buf for h, buf in enumerate(self.levels)}
        out["n"] = self.n
        out["coin"] = np.array([self._coin_ctr], dtype=np.int64)
        return out

    def _set_arrays(self, arrays: Dict[str, np.ndarray]) -> None:
        levels = sorted((k for k in arrays if k.startswith("level_")),
                        key=lambda s: int(s.split("_")[1]))
        self.levels = [arrays[k] for k in levels]
        self.n = arrays["n"]
        self._coin_ctr = int(arrays["coin"][0])


@register_sketch
class KLLPM(MergeableSketch):
    """KLL± — quantiles over a DYNAMIC dataset with deletions (PAPERS.md:
    "KLL±: Approximate Quantile Sketches over Dynamic Datasets",
    VLDB'21). The pipeline use case: retract one dump's contribution
    from a corpus-wide quantile summary (a contaminated crawl, a
    recalled source) without re-reading everything else.

    The paper's core construction: a PAIR of KLL sketches — one fed the
    insert stream, one the delete stream (independent coin streams) —
    queried on the SIGNED rank ``R(x) = R_ins(x) - R_del(x)`` over
    ``n = n_ins - n_del`` live items. Deletions must be a sub-multiset
    of insertions (caller contract, as in the paper); rank error grows
    with the deletion fraction (ε·n_ins + ε·n_del absolute, i.e. the
    usual KLL ε scaled by ``(n_ins + n_del) / n``). The signed-rank
    curve of two approximate sketches need not be monotone pointwise, so
    quantile(), rank() and cdf() evaluate it on the merged candidate
    values and take the running max — the paper's monotone repair (rank
    and cdf are also clipped to [0, 1]).

    Exact regime (capacity never exceeded): quantile() reproduces SQL
    ``quantile_disc`` over the difference multiset bit-exactly (value at
    ceil(q·n), 1-indexed) — the same convention as
    ``ops.relational.exact_value_quantiles``."""

    kind = "kllpm"

    def __init__(self, k: int = 200, seedseed: int = 137):
        self.k = int(k)
        self.seedseed = int(seedseed)
        self.ins = KLL(k, seedseed)
        self.dels = KLL(k, seedseed + 0x5F5E1)   # independent coins

    # ---- updates -----------------------------------------------------------
    def update(self, items: np.ndarray,
               counts: Optional[np.ndarray] = None) -> None:
        self.ins.update(items, counts)

    def update_values(self, values: np.ndarray) -> None:
        self.ins.update_values(values)

    def delete(self, items: np.ndarray,
               counts: Optional[np.ndarray] = None) -> None:
        self.dels.update(items, counts)

    def delete_values(self, values: np.ndarray) -> None:
        self.dels.update_values(values)

    @property
    def n(self) -> np.ndarray:
        return self.ins.n - self.dels.n

    # ---- queries -----------------------------------------------------------
    @staticmethod
    def _abs_rank(kll: KLL, xs: np.ndarray) -> np.ndarray:
        """Absolute (weighted-count) rank: # items <= x."""
        v, w = kll._weighted()
        if v.size == 0:
            return np.zeros(len(xs))
        cum = np.concatenate([[0], np.cumsum(w)]).astype(np.float64)
        return cum[np.searchsorted(v, xs, side="right")]

    def _repaired_ranks(self):
        """(merged candidates, running-max-repaired signed absolute rank
        at each); any x has the rank of the largest candidate <= x."""
        vi, _ = self.ins._weighted()
        vd, _ = self.dels._weighted()
        cand = np.unique(np.concatenate([vi, vd]))
        sr = self._abs_rank(self.ins, cand) - self._abs_rank(self.dels, cand)
        return cand, np.maximum.accumulate(sr)

    def rank(self, values) -> np.ndarray:
        """Approximate normalized SIGNED rank over the live items, with
        the same monotone repair as quantile() and clipped to [0, 1]."""
        xs = np.atleast_1d(np.asarray(values, dtype=np.float64))
        cand, sr = self._repaired_ranks()
        n = max(float(self.n[0]), 1.0)
        r = np.concatenate([[0.0], sr])[np.searchsorted(cand, xs,
                                                        side="right")]
        return np.clip(r / n, 0.0, 1.0)

    def quantile(self, q) -> np.ndarray:
        """Value(s) at normalized rank(s) q — smallest candidate whose
        monotone-repaired signed rank reaches ceil(q*n)."""
        qs = np.atleast_1d(np.asarray(q, dtype=np.float64))
        cand, sr = self._repaired_ranks()
        if cand.size == 0 or self.n[0] <= 0:
            out = np.full(qs.shape, np.nan)
            return out if np.ndim(q) else float("nan")
        n = float(self.n[0])
        targets = np.maximum(np.ceil(qs * n), 1.0)
        idx = np.minimum(np.searchsorted(sr, targets, side="left"),
                         len(cand) - 1)
        out = cand[idx]
        return out if np.ndim(q) else float(out[0])

    def cdf(self, values) -> np.ndarray:
        return self.rank(values)

    # ---- merge / io --------------------------------------------------------
    def merge(self, other: "KLLPM") -> "KLLPM":
        assert self.k == other.k, "geometry mismatch"
        self.ins.merge(other.ins)
        self.dels.merge(other.dels)
        return self

    def _params(self) -> Dict:
        return dict(k=self.k, seedseed=self.seedseed)

    def _arrays(self) -> Dict[str, np.ndarray]:
        out = {f"i_{k}": v for k, v in self.ins._arrays().items()}
        out.update({f"d_{k}": v for k, v in self.dels._arrays().items()})
        return out

    def _set_arrays(self, arrays: Dict[str, np.ndarray]) -> None:
        self.ins._set_arrays({k[2:]: v for k, v in arrays.items()
                              if k.startswith("i_")})
        self.dels._set_arrays({k[2:]: v for k, v in arrays.items()
                               if k.startswith("d_")})
