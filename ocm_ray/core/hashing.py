"""Bit-exact hashing primitives shared by every sketch.

Reimplements, from public algorithm descriptions, the two deterministic
primitives whose exact bit patterns the reference engine depends on:

* Thomas Wang's 64-bit mix hash (the reference's ``WangHash``,
  ``include/hash.h:34-56``) — a bijection on ``[0, 2^64)``; vectorized
  here over numpy ``uint64`` arrays.
* The MT19937-64 generator (``std::mt19937_64``) used only to derive the
  per-row seeds of the count-min family (``include/ocm.h:273-274``:
  ``std::mt19937_64 mt(seedseed + 4)`` then ``nh`` draws).

Both are pure functions of their inputs; there is no global state, so
the same ``(np, nh, seedseed)`` triple yields the same sketch layout on
every worker of a cluster — the property the query path relies on when
it re-derives seeds from a sketch header (``main.cpp:106-120``).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

U64 = np.uint64
_MASK64 = (1 << 64) - 1

# Keys per block of the blocked hash kernels: 2^15 uint64 = 256 KB per
# buffer, so the ~10 in-place passes of one hash stay in L2 instead of
# streaming a corpus-sized array through memory each pass (3x on 2M keys).
HASH_BLOCK = 1 << 15


def wanghash(keys: np.ndarray) -> np.ndarray:
    """Vectorized Thomas Wang 64-bit hash (``include/hash.h:34-56``).

    Accepts any integer ndarray; computes in uint64 with wraparound
    semantics identical to C++ unsigned arithmetic.
    """
    return wanghash_inplace(np.asarray(keys).astype(U64, copy=True))


def wanghash_inplace(key: np.ndarray) -> np.ndarray:
    """:func:`wanghash` over a writable uint64 array, overwriting it
    (returns it), :data:`HASH_BLOCK` keys at a time through one scratch
    block."""
    if not key.flags.c_contiguous:
        return _wang_block(key)
    flat = key.reshape(-1)
    tmp = np.empty(min(flat.size, HASH_BLOCK), dtype=U64)
    for b in range(0, flat.size, HASH_BLOCK):
        blk = flat[b:b + HASH_BLOCK]
        _wang_block(blk, tmp[:len(blk)])
    return key


def _wang_block(key: np.ndarray, tmp: Optional[np.ndarray] = None,
                ) -> np.ndarray:
    """Wang-hash ``key`` in place; ``tmp`` (uint64, ``key``'s shape) is
    the scratch the three shift-xors write into, so a caller hashing
    block after block allocates it once. Returns ``key``."""
    # algebraically identical to the reference's shift-add form, folded
    # to modular multiplies and IN-PLACE ops — (~k)+(k<<21) ≡ k·(2^21−1)−1,
    # k+(k<<3)+(k<<8) ≡ k·265, k+(k<<2)+(k<<4) ≡ k·21, k+(k<<31) ≡
    # k·(2^31+1) (all mod 2^64). 6x fewer temporaries/passes than the
    # literal transcription — this hash IS the hot loop of every sketch
    # build (bit-exactness property-tested against the scalar form and
    # the reference binaries).
    if tmp is None:
        tmp = np.empty_like(key)
    with np.errstate(over="ignore"):
        key *= U64(2097151)
        key -= U64(1)
        np.right_shift(key, U64(24), out=tmp)
        key ^= tmp
        key *= U64(265)
        np.right_shift(key, U64(14), out=tmp)
        key ^= tmp
        key *= U64(21)
        np.right_shift(key, U64(28), out=tmp)
        key ^= tmp
        key *= U64(2147483649)
    return key


def wanghash_scalar(key: int) -> int:
    """Scalar Wang hash for driver-side / test use."""
    key &= _MASK64
    key = ((~key & _MASK64) + ((key << 21) & _MASK64)) & _MASK64
    key ^= key >> 24
    key = (key + ((key << 3) & _MASK64) + ((key << 8) & _MASK64)) & _MASK64
    key ^= key >> 14
    key = (key + ((key << 2) & _MASK64) + ((key << 4) & _MASK64)) & _MASK64
    key ^= key >> 28
    key = (key + ((key << 31) & _MASK64)) & _MASK64
    return key


class MT19937_64:
    """Minimal bit-exact ``std::mt19937_64`` (public Matsumoto-Nishimura
    parameters; same constants as the C++ standard's mersenne_twister_engine
    typedef). Used only to draw the ``nh`` 64-bit row seeds.
    """

    NN = 312
    MM = 156
    MATRIX_A = 0xB5026F5AA96619E9
    UM = 0xFFFFFFFF80000000
    LM = 0x7FFFFFFF

    def __init__(self, seed: int = 5489):
        mt = np.empty(self.NN, dtype=np.object_)
        mt[0] = seed & _MASK64
        for i in range(1, self.NN):
            prev = int(mt[i - 1])
            mt[i] = (6364136223846793005 * (prev ^ (prev >> 62)) + i) & _MASK64
        self._mt = [int(x) for x in mt]
        self._mti = self.NN

    def _refill(self) -> None:
        mt = self._mt
        for i in range(self.NN):
            x = (mt[i] & self.UM) | (mt[(i + 1) % self.NN] & self.LM)
            xa = x >> 1
            if x & 1:
                xa ^= self.MATRIX_A
            mt[i] = mt[(i + self.MM) % self.NN] ^ xa
        self._mti = 0

    def __call__(self) -> int:
        if self._mti >= self.NN:
            self._refill()
        x = self._mt[self._mti]
        self._mti += 1
        x ^= (x >> 29) & 0x5555555555555555
        x ^= (x << 17) & 0x71D67FFFEDA60000
        x ^= (x << 37) & 0xFFF7EEE000000000
        x ^= x >> 43
        return x & _MASK64


def force_odd_nh(nh: int) -> int:
    """The reference forces an odd number of rows: ``nh += (nh % 2 == 0)``
    (``include/ocm.h:38,267``). Kept as explicit parameter normalization."""
    return nh + (1 if nh % 2 == 0 else 0)


def derive_seeds(nh: int, seedseed: int = 137) -> np.ndarray:
    """``nh`` row seeds from ``std::mt19937_64(seedseed + 4)``
    (``include/ocm.h:273-274``). ``nh`` must already be odd-forced.
    Returns uint64 array of shape (nh,)."""
    rng = MT19937_64(seedseed + 4)
    return np.array([rng() for _ in range(nh)], dtype=U64)


def positions(vals: np.ndarray, seeds: np.ndarray, np_bits: int) -> np.ndarray:
    """Counter positions for each value under each row hash.

    ``pos[i, j] = (wang(vals[i] ^ seeds[j]) & (2^np - 1)) + (j << np)``
    (``include/ocm.h:48-52,289-293``; the reference truncates the hash
    through int32 first, which is a no-op on the low ``np ≤ 32`` bits).

    Returns an int64 array of shape (len(vals), nh) — flat indices into
    a row-major ``nh * 2^np`` counter array. It is the transpose of a
    C-order (nh, len(vals)) buffer, one contiguous row per seed, so
    ``pos.T`` is the fast layout for row-wise gathers and scatters.
    Hashes :data:`HASH_BLOCK` keys at a time, in place in that buffer,
    with one scratch block per call.
    """
    vals = np.asarray(vals).astype(U64, copy=False)
    n = len(vals)
    mask = U64((1 << np_bits) - 1)
    out = np.empty((len(seeds), n), dtype=np.int64)
    rows = out.view(U64)
    tmp = np.empty(min(n, HASH_BLOCK), dtype=U64)
    for b in range(0, n, HASH_BLOCK):
        e = min(b + HASH_BLOCK, n)
        for j, s in enumerate(seeds):
            h = rows[j, b:e]
            np.bitwise_xor(vals[b:e], U64(s), out=h)
            _wang_block(h, tmp[:e - b])
            h &= mask
            h += U64(j << np_bits)
    return out.T


_CHUNK_SEED = 0x9E3779B97F4A7C15  # golden-ratio odd constant (public)


def stable_hash_scalar(s, seed: int = 137) -> int:
    """Scalar reference implementation of the engine's ONE string→uint64
    codec (see :func:`stable_hash_bytes`): split the UTF-8 bytes into
    zero-padded little-endian 8-byte chunks, XOR the position-seeded Wang
    hashes of the chunks, finalize with the length and seed. Pure
    function of the bytes — stable across library versions and
    environments (unlike polars' xxhash, whose value is explicitly not
    stable across polars releases)."""
    if isinstance(s, str):
        s = s.encode("utf-8", "surrogatepass")
    acc = 0
    for i in range(0, len(s), 8):
        chunk = int.from_bytes(s[i:i + 8].ljust(8, b"\0"), "little")
        acc ^= wanghash_scalar(chunk ^ wanghash_scalar((i >> 3) ^ _CHUNK_SEED))
    return wanghash_scalar(acc ^ wanghash_scalar(len(s) ^ seed))


def stable_hash_bytes(data: np.ndarray, offsets: np.ndarray,
                      seed: int = 137) -> np.ndarray:
    """Vectorized stable string/bytes hash over a flat uint8 buffer with
    int64 offsets (Arrow binary layout): one uint64 per string.

    Algorithm (order-aware despite the XOR — each chunk is mixed with a
    Wang hash of its position before combining):

        h(s) = wang( XOR_i wang(c_i ^ wang(i ^ GOLD)) ^ wang(len ^ seed) )

    where ``c_i`` are zero-padded little-endian 8-byte chunks. Everything
    is numpy scatter/reduceat — O(total bytes), no per-row Python. This
    is the engine's single hash codec for string-keyed sketches, content
    hashes and shingles; :func:`stable_hash_scalar` is the bit-identical
    scalar form."""
    offsets = np.asarray(offsets, dtype=np.int64)
    n = len(offsets) - 1
    lens = np.diff(offsets)
    src = data[offsets[0]:offsets[-1]]
    nchunks = (lens + 7) >> 3
    cstarts = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(nchunks, out=cstarts[1:])
    total_chunks = int(cstarts[-1])
    padded = np.zeros(total_chunks * 8, dtype=np.uint8)
    if len(src):
        starts_in_src = offsets[:-1] - offsets[0]
        within = np.arange(len(src), dtype=np.int64) - np.repeat(starts_in_src, lens)
        padded[np.repeat(cstarts[:-1] * 8, lens) + within] = src
    chunks = padded.view("<u8")
    cpos = (np.arange(total_chunks, dtype=np.int64)
            - np.repeat(cstarts[:-1], nchunks)).astype(U64)
    h = wanghash(chunks ^ wanghash(cpos ^ U64(_CHUNK_SEED)))
    acc = np.zeros(n, dtype=U64)
    nonempty = nchunks > 0
    if total_chunks:
        acc[nonempty] = np.bitwise_xor.reduceat(h, cstarts[:-1][nonempty])
    return wanghash(acc ^ wanghash(lens.astype(U64) ^ U64(seed)))


def hash_strings(arr, seed: int = 137) -> np.ndarray:
    """Map an arbitrary string/bytes sequence to uint64 items through the
    engine's stable codec (scalar path — for driver-side / test use; hot
    paths go through :func:`stable_hash_bytes` on Arrow buffers)."""
    return np.array([stable_hash_scalar(s, seed) for s in arr], dtype=U64)


def counter_uniforms(ctr: np.ndarray, seedseed: int, k: int) -> np.ndarray:
    """k deterministic uniforms in (0, 1] from a counter-mode WangHash
    stream; advances ``ctr[0]`` in place. The shared decay/Morris RNG of
    HeavyKeeper and CountMinPow2 — one definition so the two stay
    bit-identical (the counter persists with sketch state: a restored
    sketch must not replay a fresh sketch's stream)."""
    ctr[0] += 1
    base = wanghash(ctr.astype(U64) ^ U64(seedseed))[0]
    h = wanghash(np.arange(k, dtype=U64) ^ base)
    return (h.astype(np.float64) + 1.0) / np.float64(2.0**64)


_PC_M1 = U64(0x5555555555555555)
_PC_M2 = U64(0x3333333333333333)
_PC_M4 = U64(0x0F0F0F0F0F0F0F0F)
_PC_H01 = U64(0x0101010101010101)


def popcount64(v: np.ndarray) -> np.ndarray:
    """Branch-free SWAR popcount of a uint64 array (numpy<2 lacks
    ``bitwise_count``) — the ONE shared definition (hbb rollovers,
    simhash Hamming distances); a numpy>=2 migration to
    ``np.bitwise_count`` changes exactly this function."""
    v = v.astype(U64, copy=True)
    v -= (v >> U64(1)) & _PC_M1
    v = (v & _PC_M2) + ((v >> U64(2)) & _PC_M2)
    v = (v + (v >> U64(4))) & _PC_M4
    with np.errstate(over="ignore"):
        return ((v * _PC_H01) >> U64(56)).astype(np.int64)
