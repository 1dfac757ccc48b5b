"""Output checks against the exact oracle tables of ``corpus.py``.

Every check returns a list of failure strings (empty when the output is
right). The reference sketches used for bounds are built by the
library's ``CountMin.update(items, counts)`` on the oracle table, which
is the definition the engine's distributed builds must reproduce.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List

import numpy as np

from perfbench.corpus import Oracle

HLL_SIGMAS = 4.0


def same_state(a, b) -> bool:
    """True when two sketches have the same kind, parameters and arrays."""
    return digest(a) == digest(b)


def digest(result) -> str:
    """Digest of a sketch (kind, parameters, arrays) or of a dict of them."""
    h = hashlib.blake2b(digest_size=16)
    items = sorted(result.items()) if isinstance(result, dict) else [("", result)]
    for key, sk in items:
        h.update(json.dumps([str(key), sk.kind, sk._params()],
                            sort_keys=True).encode())
        for name, arr in sorted(sk._arrays().items()):
            h.update(name.encode())
            h.update(str(arr.dtype).encode())
            h.update(np.ascontiguousarray(arr).data)
    return h.hexdigest()


class CMReference:
    """Vanilla CM of one geometry over one oracle table, built once."""

    def __init__(self, oracle: Oracle):
        self.oracle = oracle
        self._vanilla: Dict[tuple, object] = {}

    def vanilla(self, np_bits: int, nh: int, seedseed: int = 137):
        key = (np_bits, nh, seedseed)
        if key not in self._vanilla:
            from ocm_ray.sketches import CountMin

            v = CountMin(np_bits, nh, seedseed)
            live = self.oracle.counts > 0
            v.update(self.oracle.items[live], self.oracle.counts[live])
            self._vanilla[key] = v
        return self._vanilla[key]


def rmse(sketch, oracle: Oracle) -> float:
    est = sketch.estimate(oracle.items).astype(np.float64)
    return float(np.sqrt(np.mean((est - oracle.counts) ** 2)))


def check_cm(sketch, ref: CMReference, vanilla_exact: bool = False) -> List[str]:
    """CM-family output: never under the exact count, never over the
    vanilla CM of the same geometry, and the stream length is exact.
    ``vanilla_exact`` additionally requires kind, parameters and arrays
    to equal the reference vanilla CM's (order-free vanilla builds)."""
    o = ref.oracle
    fails = []
    van = ref.vanilla(sketch.np_bits, sketch.nh, sketch.seedseed)
    est = sketch.estimate(o.items)
    under = int((est < o.counts).sum())
    if under:
        fails.append(f"{under} items underestimated")
    over = int((est > van.estimate(o.items)).sum())
    if over:
        fails.append(f"{over} items above the vanilla CM estimate")
    if sketch.total_items != o.total:
        fails.append(f"stream length {sketch.total_items} != {o.total}")
    # digest, not to_bytes(): npz archives carry a write timestamp
    if vanilla_exact and digest(sketch) != digest(van):
        fails.append("vanilla CM state differs from CountMin.update on the "
                     "oracle table")
    return fails


def check_hll(sketch, exact_distinct: int) -> List[str]:
    est = sketch.estimate()
    sigma = sketch.relative_error() * max(exact_distinct, 1)
    if abs(est - exact_distinct) > HLL_SIGMAS * sigma:
        return [f"HLL {est:.0f} vs exact {exact_distinct} "
                f"(> {HLL_SIGMAS:g} sigma = {HLL_SIGMAS * sigma:.0f})"]
    return []


def check_query(got: np.ndarray, keys: np.ndarray, sketch) -> List[str]:
    want = sketch.estimate(keys)
    if got.shape != want.shape:
        return [f"{len(got)} estimates for {len(keys)} keys"]
    bad = int((got != want).sum())
    return [f"{bad} query estimates differ from in-process estimate"] if bad else []
