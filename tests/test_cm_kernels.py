"""Count-min hot kernels: dtype-exact conservative scatters, integer-exact
dedupe, blocked hashing, row-major positions, and npz handle hygiene.

The conservative kernels must hand ``np.maximum.at`` values already in the
core's dtype (mixed dtypes fall off numpy's fast path), raise instead of
wrapping when an int32 cell would pass 2^31-1 (the vanilla scatter too),
and produce the same cores for int32 and int64 counters. The blocked hash
kernels must equal the unblocked formulas across block edges. The
row-major update kernels must write the same bytes as the (items, nh)
kernels they replaced.
"""

import os

import numpy as np
import pyarrow as pa
import pytest

from ocm_ray.core.hashing import (HASH_BLOCK, _wang_block, derive_seeds,
                                  positions, wanghash, wanghash_inplace,
                                  wanghash_scalar)
from ocm_ray.engine.tokens import (hash_string_array, items_from_batch,
                                   kgram_reduce, list_column_values,
                                   split_words_hashed, token_ids,
                                   token_kgram_hashes, word_kgram_hashes)
from ocm_ray.sketches import countmin
from ocm_ray.sketches.base import (CountCombiner, dedupe_counts,
                                   merge_sorted_counts)
from ocm_ray.sketches.countmin import CountMin, OfflineCountMin

I32_MAX = 2**31 - 1


def _tables(seed, batches=4, n=3000, domain=20000):
    """Seeded (uniq, cnt) tables with heavy repeats across batches."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(batches):
        u = np.unique(rng.zipf(1.3, n).astype(np.uint64) % domain)
        out.append((u, rng.integers(1, 1000, len(u)).astype(np.int64)))
    return out


def _occm_rounds(dtype, tables, rounds=4, np_bits=10):
    """Multi-round fused OCCM passes; (core, collision) after each round."""
    o = OfflineCountMin(np_bits, 5, conservative=True, counter_dtype=dtype)
    states = []
    for r in range(rounds):
        o.clear_core()
        for u, c in tables:
            o.update_count_collision(u, r, rounds, c)
        states.append((o.core.astype(np.int64), o.collision.copy()))
    return states


# ---- overflow is an error, not a wrap ---------------------------------------

def test_conservative_int32_overflow_raises():
    cm = CountMin(8, 3, conservative=True, counter_dtype="int32")
    cm.update(np.array([5], np.uint64), np.array([I32_MAX - 10]))
    before = cm.core.copy()
    with pytest.raises(OverflowError):
        cm.update(np.array([5], np.uint64), np.array([15]))
    assert np.array_equal(cm.core, before)          # nothing half-written
    assert cm.core.min() >= 0
    with pytest.raises(OverflowError):
        CountMin(8, 3, conservative=True, counter_dtype="int32").update(
            np.array([9], np.uint64), np.array([2**31 + 5]))
    # the int64 default absorbs the same counts
    big = CountMin(8, 3, conservative=True)
    big.update(np.array([9], np.uint64), np.array([2**31 + 5]))
    assert big.estimate(np.array([9], np.uint64))[0] == 2**31 + 5


@pytest.mark.parametrize("round_no", [0, 2])   # dirty branch, clean branch
def test_occm_int32_overflow_raises(round_no):
    o = OfflineCountMin(8, 3, conservative=True, counter_dtype="int32")
    item = np.array([11], np.uint64)
    o.update_count_collision(item, round_no, 4, np.array([I32_MAX - 1]))
    with pytest.raises(OverflowError):
        o.update_count_collision(item, round_no, 4, np.array([2]))
    assert o.core.min() >= 0


def test_vanilla_int32_overflow_raises_sparse_branch():
    # 3 indices into a 768-cell core: the np.add.at branch
    cm = CountMin(8, 3, counter_dtype="int32")
    cm.update(np.array([5], np.uint64), np.array([I32_MAX - 10]))
    before = cm.core.copy()
    with pytest.raises(OverflowError):
        cm.update(np.array([5], np.uint64), np.array([15]))
    assert np.array_equal(cm.core, before)
    # repeats of one cell sum past the max only together
    with pytest.raises(OverflowError):
        countmin._scatter_add(np.zeros(800, np.int32), np.array([7, 7, 7]),
                              np.array([2**30, 2**30, 2**30]))
    cm.update(np.array([5], np.uint64), np.array([10]))   # up to the max fits
    assert cm.estimate(np.array([5], np.uint64))[0] == I32_MAX


def test_vanilla_int32_overflow_raises_dense_branch():
    # 3 x 40 indices into a 48-cell core: the bincount branch
    items = np.arange(40, dtype=np.uint64)
    cm = CountMin(4, 3, counter_dtype="int32")
    cm.core[:] = I32_MAX - 40
    cm.update(items, np.ones(40, np.int64))    # <= 40 per cell: fits
    before = cm.core.copy()
    with pytest.raises(OverflowError):
        cm.update(items, np.full(40, 40))
    assert np.array_equal(cm.core, before)
    assert cm.core.min() >= 0
    big = CountMin(4, 3)
    big.core[:] = I32_MAX - 40
    big.update(items, np.ones(40, np.int64))
    big.update(items, np.full(40, 40))
    assert (big.estimate(items) > I32_MAX).all()


def test_ocm_count_pass_int32_overflow_raises():
    o = OfflineCountMin(8, 3, counter_dtype="int32")
    item = np.array([3], np.uint64)
    o.update_count(item, np.array([I32_MAX - 1]))
    with pytest.raises(OverflowError):
        o.update_count(item, np.array([2]))
    assert o.core.min() >= 0


# ---- int32 and int64 counters agree ------------------------------------------

@pytest.mark.parametrize("seed", [0, 1, 2])
def test_conservative_cm_int32_equals_int64(seed):
    cores = {}
    for dt in ("int32", "int64"):
        cm = CountMin(10, 5, conservative=True, counter_dtype=dt)
        for u, c in _tables(seed):
            cm.update(u, c)
        assert cm.core.dtype == np.dtype(dt)
        cores[dt] = cm.core
    assert np.array_equal(cores["int32"].astype(np.int64), cores["int64"])


@pytest.mark.parametrize("seed", [0, 1])
def test_occm_fused_int32_equals_int64(seed):
    tables = _tables(seed)
    s32, s64 = _occm_rounds("int32", tables), _occm_rounds("int64", tables)
    for r, ((c32, k32), (c64, k64)) in enumerate(zip(s32, s64)):
        assert np.array_equal(c32, c64), f"core differs at round {r}"
        assert np.array_equal(k32, k64), f"collision differs at round {r}"
    # rounds >= 2 exercise the clean (min-collision) branch
    assert s64[1][1].max() > 0


class _MaximumSpy:
    """Stands in for ``np.maximum``: records (target dtype, values dtype)
    of every ``.at`` call, forwards everything to numpy."""

    def __init__(self):
        self.calls = []

    def __call__(self, *a, **k):
        return np.maximum(*a, **k)

    def at(self, target, idx, values):
        self.calls.append((target.dtype, np.asarray(values).dtype))
        return np.maximum.at(target, idx, values)


class _NumpyWithSpy:
    def __init__(self, spy):
        self.maximum = spy

    def __getattr__(self, name):
        return getattr(np, name)


@pytest.mark.parametrize("dtype", ["int32", "int64"])
def test_max_scatter_values_match_target_dtype(monkeypatch, dtype):
    spy = _MaximumSpy()
    monkeypatch.setattr(countmin, "np", _NumpyWithSpy(spy))
    tables = _tables(3, batches=2)
    cm = CountMin(10, 5, conservative=True, counter_dtype=dtype)
    for u, c in tables:
        cm.update(u, c)
    n_cm = len(spy.calls)
    _occm_rounds(dtype, tables, rounds=3)
    assert n_cm >= 2 and len(spy.calls) > n_cm
    assert all(t == v for t, v in spy.calls), spy.calls


# ---- dedupe_counts ------------------------------------------------------------

def test_dedupe_counts_integer_exact_on_repeats():
    big = 2**53 + 1          # float64 rounds this to 2^53
    u, c = dedupe_counts(np.array([7, 7], np.uint64), np.array([big, big]))
    assert u.tolist() == [7] and c.dtype == np.int64
    assert int(c[0]) == 2 * big


def test_dedupe_counts_sorted_table_passes_through():
    items = np.array([1, 4, 9, 2**63], np.uint64)
    counts = np.array([3, 1, 2, 5], np.int64)
    u, c = dedupe_counts(items, counts)
    assert u is items and c is counts


@pytest.mark.parametrize("seed", [0, 1])
def test_dedupe_counts_matches_unique_reference(seed):
    rng = np.random.default_rng(seed)
    items = rng.integers(0, 50, 500).astype(np.uint64)
    counts = rng.integers(0, 10, 500)
    u, c = dedupe_counts(items, counts)
    ref_u, inv = np.unique(items, return_inverse=True)
    assert np.array_equal(u, ref_u)
    assert np.array_equal(c, np.bincount(inv, weights=counts).astype(np.int64))


def test_combiner_handover_is_sorted_unique():
    rng = np.random.default_rng(4)
    comb = CountCombiner(CountMin(10, 5, conservative=True))
    for _ in range(3):
        comb.add(rng.integers(0, 1 << 40, 2000, dtype=np.uint64))
    u = comb.uniq
    assert (u[1:] > u[:-1]).all()


class _PerBatchCombiner:
    """The sorted-run path of the combiner before it held raw batches:
    one dedupe and one merge per batch, a flush whenever the table
    passes ``flush_limit``."""

    def __init__(self, sketch, flush_limit):
        self.sketch, self.flush_limit = sketch, flush_limit
        self.uniq = self.cnt = None
        self.flushes = 0

    def add(self, items):
        u, c = dedupe_counts(items.astype(np.uint64))
        if self.uniq is None:
            self.uniq, self.cnt = u, c
        else:
            self.uniq, self.cnt = merge_sorted_counts(self.uniq, self.cnt,
                                                      u, c)
        if len(self.uniq) > self.flush_limit:
            self.flush()

    def flush(self):
        self.flushes += 1
        if self.uniq is not None and len(self.uniq):
            self.sketch.update(self.uniq, self.cnt)
        self.uniq = self.cnt = None


def _gram_batches(seed, n_batches=12):
    """k=3 gram hashes of Zipf token rows, batch sizes from 1 to ~600:
    repeats within and across batches, some batches alone past 50."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n_batches):
        lens = rng.integers(0, 30, int(rng.integers(1, 25)))
        flat = (rng.zipf(1.2, int(lens.sum())) % 300).astype(np.int32)
        out.append(kgram_reduce(flat, lens, 3))
    return [b for b in out if len(b)]


def _count_flushes(comb):
    """Wrap ``comb.flush`` the way a tracing caller does; returns the
    one-element call counter."""
    real, n = comb.flush, [0]

    def flush():
        n[0] += 1
        real()

    comb.flush = flush
    return n


@pytest.mark.parametrize("cap", [None, 64, 1], ids=["cap-default",
                                                   "cap-64", "cap-1"])
@pytest.mark.parametrize("flush_limit", [50, 1000])
@pytest.mark.parametrize("seed", [0, 1])
def test_held_runs_flush_like_per_batch_merge(monkeypatch, cap, flush_limit,
                                               seed):
    """Held sorted-run batches flush at the same batches, with the same
    tables, as a merge per batch: conservative int32 sketch bytes and
    flush counts match, whatever the hold cap."""
    if cap is not None:
        monkeypatch.setattr(CountCombiner, "HOLD_CAP", cap)
    batches = _gram_batches(seed)

    def sketch():
        return CountMin(10, 5, conservative=True, counter_dtype="int32")

    old = _PerBatchCombiner(sketch(), flush_limit)
    new = CountCombiner(sketch(), flush_limit=flush_limit)
    n = _count_flushes(new)
    for b in batches:
        old.add(b)
        new.add(b)
    old.flush()
    got = new.finish()
    assert n[0] == old.flushes
    assert got.to_bytes() == old.sketch.to_bytes()
    if flush_limit == 50:
        assert old.flushes > 3          # mid-stream flushes were exercised


@pytest.mark.parametrize("cap", [None, 500])
def test_held_runs_unbounded_limit_drain_equals_unique(monkeypatch, cap):
    """With no flush limit (the exact-count scan) the held items settle
    at the cap and at the drain; the table is ``np.unique``'s."""
    if cap is not None:
        monkeypatch.setattr(CountCombiner, "HOLD_CAP", cap)
    batches = _gram_batches(2, n_batches=40)
    stream = np.concatenate(batches)
    assert len(stream) > 4 * 500
    comb = CountCombiner(None, flush_limit=1 << 62)
    for b in batches:
        comb.add(b)
        assert comb._n_held < CountCombiner.HOLD_CAP
    u, c = comb.drain_counts()
    ref_u, ref_c = np.unique(stream, return_counts=True)
    assert np.array_equal(u, ref_u) and np.array_equal(c, ref_c)
    assert comb.uniq is None and comb.drain_counts()[0].size == 0


def test_held_runs_midstream_read_is_the_table_so_far():
    """A read of uniq/cnt mid-stream settles the held batches into the
    per-batch merge's table, and later adds continue from it."""
    batches = _gram_batches(3)
    comb = CountCombiner(None, flush_limit=1 << 62)
    old = _PerBatchCombiner(None, 1 << 62)
    half = len(batches) // 2
    for b in batches[:half]:
        comb.add(b)
        old.add(b)
    assert np.array_equal(comb.uniq, old.uniq)
    assert np.array_equal(comb.cnt, old.cnt)
    for b in batches[half:]:
        comb.add(b)
        old.add(b)
    u, c = comb.drain_counts()
    assert np.array_equal(u, old.uniq) and np.array_equal(c, old.cnt)


def _id_batches(dtype):
    """Seeded id batches representable in ``dtype``: two dense batches,
    one that forces the sorted-run table (a negative id for signed
    dtypes, an id >= DENSE_DOMAIN for the wide ones), a dense one after
    it, and a last dense batch."""
    rng = np.random.default_rng(np.dtype(dtype).itemsize)
    info = np.iinfo(dtype)
    dense = lambda n: rng.integers(0, min(200, info.max), n)  # noqa: E731
    odd = [dense(300)]
    if info.min < 0:
        odd.append(rng.integers(info.min, 0, 40))
    if info.max >= CountCombiner.DENSE_DOMAIN:
        odd.append(rng.integers(CountCombiner.DENSE_DOMAIN,
                                min(info.max, 1 << 40), 40))
    batches = [dense(500), dense(400), np.concatenate(odd), dense(300),
               dense(200)]
    return [b.astype(dtype) for b in batches]


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64,
                                   np.uint32, np.uint64])
def test_combiner_dtype_contract(dtype):
    """Ids reach the combiner at their stored width: the tables and the
    flushed sketch equal those of the same stream widened to uint64
    (negative ids wrap), for dense, sorted-run and mid-stream-flush
    batches alike."""
    batches = _id_batches(dtype)
    wide = [b.astype(np.uint64) for b in batches]

    def drained(stream):
        comb = CountCombiner(None, flush_limit=1 << 62)
        for b in stream:
            comb.add(b)
        return comb.drain_counts()

    u, c = drained(batches)
    ref_u, ref_c = np.unique(np.concatenate(wide), return_counts=True)
    for want in (drained(wide), (ref_u, ref_c)):
        assert u.dtype == np.uint64 and c.dtype == np.int64
        assert np.array_equal(u, want[0]) and np.array_equal(c, want[1])

    def finished(stream):
        comb = CountCombiner(CountMin(10, 4, conservative=True,
                                      counter_dtype="int32"), flush_limit=50)
        for b in stream:
            comb.add(b)
        return comb.finish().to_bytes()

    assert finished(batches) == finished(wide)


class _CastLog(np.ndarray):
    """An ndarray that records the dtypes it is cast to."""
    casts: list = []

    def astype(self, dtype, *args, **kw):
        _CastLog.casts.append(np.dtype(dtype))
        return np.asarray(self).astype(dtype, *args, **kw)


def test_combiner_dense_path_never_widens_to_uint64():
    """A bounded-vocabulary batch is counted at its stored width: the
    only cast on the dense path is bincount's intp."""
    ids = np.arange(3 * CountCombiner.BINCOUNT_CHUNK + 5, dtype=np.int32) % 37
    _CastLog.casts = []
    comb = CountCombiner(None)
    comb.add(ids.view(_CastLog))
    assert set(_CastLog.casts) == {np.dtype(np.intp)}
    u, c = comb.drain_counts()
    assert np.array_equal(u, np.arange(37)) and np.array_equal(c, np.bincount(ids))


def _combined(tbl):
    """``tbl`` with every column concatenated into one chunk."""
    return pa.table({n: tbl.column(n).combine_chunks()
                     for n in tbl.column_names})


def test_extraction_edge_layouts_equal_combined_chunks():
    """Two-chunk columns, sliced list arrays (offset != 0) and lists with
    nulls (the row-assembly fallback) extract the same values as the
    concatenated column, and token_ids keeps the stored width."""
    toks = pa.array([[1, 2, 3], [4], [], [5, 6], [7, 8, 9, 10], [11]],
                    type=pa.list_(pa.int32()))
    words = pa.array(["a b", "c", None, "d e f", "", "g"])
    with_nulls = pa.array([[1, 2], None, [3, None, 4], [], [5]],
                          type=pa.list_(pa.int32()))
    tables = [
        pa.table({"t": pa.chunked_array([toks.slice(0, 2), toks.slice(2)]),
                  "w": pa.chunked_array([words.slice(0, 4), words.slice(4)])}),
        pa.table({"t": toks.slice(2, 3), "w": words.slice(2, 3)}),
        pa.table({"t": pa.chunked_array([toks.slice(1, 4)]),
                  "w": pa.chunked_array([words.slice(1, 4)])}),
        pa.table({"t": with_nulls, "w": words.slice(0, 5)}),
        pa.table({"t": pa.chunked_array([with_nulls.slice(1, 3),
                                         with_nulls.slice(4)]),
                  "w": pa.chunked_array([words.slice(1, 3),
                                         words.slice(4, 1)])}),
    ]
    for tbl in tables:
        ref = _combined(tbl)
        rows = [[x for x in (r or []) if x is not None]
                for r in tbl.column("t").to_pylist()]
        flat, lens = list_column_values(tbl, "t")
        ref_flat, ref_lens = list_column_values(ref, "t")
        assert flat.tolist() == ref_flat.tolist() == sum(rows, [])
        assert lens.tolist() == ref_lens.tolist() == [len(r) for r in rows]
        for k in (1, 2):
            ids = token_ids(tbl, "t", k)
            assert np.array_equal(ids, token_ids(ref, "t", k))
            assert np.array_equal(items_from_batch(tbl, "t", k),
                                  ids.astype(np.uint64))
        if not tbl.column("t").null_count:
            assert token_ids(tbl, "t").dtype == np.int32
        w = tbl.column("w")
        assert np.array_equal(hash_string_array(w),
                              hash_string_array(ref.column("w")))
        for got, want in zip(split_words_hashed(w),
                             split_words_hashed(ref.column("w"))):
            assert np.array_equal(got, want)


# ---- blocked hashing equals the unblocked formulas ----------------------------

N_EDGE = 3 * HASH_BLOCK + 7


def test_wanghash_blocked_equals_unblocked():
    rng = np.random.default_rng(6)
    vals = rng.integers(0, 2**63, N_EDGE, dtype=np.uint64)
    ref = _wang_block(vals.copy())
    assert np.array_equal(wanghash(vals), ref)
    for i in (0, HASH_BLOCK - 1, HASH_BLOCK, 3 * HASH_BLOCK, N_EDGE - 1):
        assert int(ref[i]) == wanghash_scalar(int(vals[i]))
    # 2-D, strided and in-place views hash element-wise alike
    m = vals[:2 * HASH_BLOCK + 2].reshape(2, -1)
    assert np.array_equal(wanghash(m).ravel(), ref[:2 * HASH_BLOCK + 2])
    assert np.array_equal(wanghash(vals[::3]), ref[::3])
    strided = vals.copy()[::3]
    assert np.array_equal(wanghash_inplace(strided), ref[::3])


def test_positions_blocked_equals_unblocked():
    rng = np.random.default_rng(5)
    vals = rng.integers(0, 2**63, N_EDGE, dtype=np.uint64)
    seeds = derive_seeds(7)
    for np_bits in (12, 20):
        mask = np.uint64((1 << np_bits) - 1)
        ref = np.stack([(wanghash(vals ^ s) & mask).astype(np.int64) + (j << np_bits)
                        for j, s in enumerate(seeds)], axis=1)
        pos = positions(vals, seeds, np_bits)
        assert np.array_equal(pos, ref)
        assert pos.T.flags.c_contiguous        # one contiguous row per seed
    assert positions(vals[:0], seeds, 12).shape == (0, len(seeds))
    # rows either side of each block edge against the scalar hash
    for i in (HASH_BLOCK - 1, HASH_BLOCK, 2 * HASH_BLOCK + 1, N_EDGE - 1):
        p = positions(vals[i:i + 1], seeds, 12)[0]
        assert p.tolist() == [(wanghash_scalar(int(vals[i]) ^ int(s)) & 4095) + (j << 12)
                              for j, s in enumerate(seeds)]


def _unblocked_windows(flat, lengths, k):
    flat = flat.astype(np.uint64)
    win = np.lib.stride_tricks.sliding_window_view(flat, k)
    acc = wanghash(win[:, 0])
    for j in range(1, k):
        acc = wanghash(acc ^ win[:, j])
    rowid = np.repeat(np.arange(len(lengths), dtype=np.int64), lengths)
    valid = rowid[:len(flat) - k + 1] == rowid[k - 1:]
    return acc[valid], rowid[:len(flat) - k + 1][valid]


def _edge_lengths(rng):
    """Row lengths summing to N_EDGE with rows that straddle every block
    edge and rows shorter than k."""
    lens = []
    total = 0
    while total < N_EDGE:
        nxt = int(rng.integers(0, 40))
        for edge in (HASH_BLOCK, 2 * HASH_BLOCK, 3 * HASH_BLOCK):
            if total < edge - 1 < total + nxt:
                nxt = edge + 1 - total           # row spans edge-1 .. edge
        nxt = min(nxt, N_EDGE - total)
        lens.append(nxt)
        total += nxt
    return np.array(lens, dtype=np.int64)


@pytest.mark.parametrize("k", [1, 3, 5])
def test_token_kgrams_blocked_equal_unblocked(k):
    rng = np.random.default_rng(k)
    lens = _edge_lengths(rng)
    flat = rng.integers(0, 50257, N_EDGE).astype(np.int32)
    offsets = np.concatenate([[0], np.cumsum(lens)]).astype(np.int32)
    col = pa.ListArray.from_arrays(pa.array(offsets), pa.array(flat))
    batch = pa.table({"tokens": col})
    ref_g, ref_r = _unblocked_windows(flat, lens, k)
    g, r, nrows = token_kgram_hashes(batch, "tokens", k)
    assert nrows == len(lens)
    assert np.array_equal(g, ref_g) and np.array_equal(r, ref_r)
    if k > 1:
        assert np.array_equal(items_from_batch(batch, "tokens", k), ref_g)


def test_word_kgrams_blocked_equal_unblocked():
    rng = np.random.default_rng(9)
    lens = _edge_lengths(rng)
    words = rng.integers(0, 500, N_EDGE)
    ends = np.cumsum(lens)
    text = pa.array([" ".join(f"w{w}" for w in words[e - n:e])
                     for n, e in zip(lens, ends)])
    flat, wl = split_words_hashed(text)
    assert len(flat) >= N_EDGE
    ref_g, ref_r = _unblocked_windows(flat, wl, 3)
    g, r, nrows = word_kgram_hashes(text, 3)
    assert nrows == len(lens)
    assert np.array_equal(g, ref_g) and np.array_equal(r, ref_r)


# ---- row-major kernels write the old kernels' bytes ---------------------------

def _items_major_conservative(core, pos, cnt):
    """The (items, nh) conservative kernel the row-major one replaced."""
    pos = np.ascontiguousarray(pos)
    vals = core[pos]
    target = countmin._raise_to(vals.min(axis=1), cnt, core.dtype)
    proposed = np.maximum(vals, target[:, None])
    np.maximum.at(core, pos.ravel(), proposed.ravel())


def _items_major_vanilla(core, pos, cnt):
    pos = np.ascontiguousarray(pos)
    countmin._scatter_add(core, pos, np.repeat(cnt, pos.shape[1])
                          .reshape(-1, pos.shape[1]))


@pytest.mark.parametrize("dtype", ["int32", "int64"])
@pytest.mark.parametrize("conservative", [False, True],
                         ids=["vanilla", "conservative"])
@pytest.mark.parametrize("np_bits", [6, 12])    # dense and sparse scatters
def test_row_major_update_equals_items_major(dtype, conservative, np_bits):
    tables = _tables(4)
    cm = CountMin(np_bits, 5, conservative=conservative, counter_dtype=dtype)
    cm.update(*tables[0])                       # start from a non-zero core
    ref = cm.core.copy()
    assert ref.any()
    old = _items_major_conservative if conservative else _items_major_vanilla
    for u, c in tables[1:]:
        cm.update(u, c)
        old(ref, cm._positions(u), c)
        assert ref.dtype == cm.core.dtype
        assert ref.tobytes() == cm.core.tobytes()
    items = np.concatenate([u for u, _ in tables])
    est = cm.estimate(items)
    assert np.array_equal(est, ref[np.ascontiguousarray(
        cm._positions(items))].min(axis=1))


def _nh_by_u_conservative(core, pos, cnt):
    """The (nh, U) value-matrix conservative kernel the row-wise one
    replaced."""
    rows = pos.T
    vals = core[rows]
    target = countmin._raise_to(np.minimum.reduce(vals, axis=0), cnt,
                                core.dtype)
    np.maximum(vals, target, out=vals)
    np.maximum.at(core, rows.ravel(), vals.ravel())


@pytest.mark.parametrize("dtype", ["int32", "int64"])
@pytest.mark.parametrize("np_bits", [6, 12])
def test_rowwise_conservative_signed_core_and_counts(dtype, np_bits):
    """From a non-zero core holding negative cells, with negative, zero
    and positive counts, the row-wise kernel writes the bytes of both
    kernels it replaced."""
    rng = np.random.default_rng(np_bits)
    cm = CountMin(np_bits, 5, conservative=True, counter_dtype=dtype)
    cm.core[:] = rng.integers(-300, 300, cm.size)
    refs = [cm.core.copy(), cm.core.copy()]
    for u, c in _tables(7, n=800, domain=3000):
        c = c - 500
        assert (c < 0).any() and (c > 0).any()
        pos = cm._positions(u)
        cm.update(u, c)
        _items_major_conservative(refs[0], pos, c)
        _nh_by_u_conservative(refs[1], pos, c)
        for ref in refs:
            assert ref.tobytes() == cm.core.tobytes()
    assert cm.core.min() < 0


def test_rowwise_conservative_int32_near_max():
    """Near 2^31-1 the int32 row-wise kernel matches the old kernels
    while targets fit, and raises OverflowError, writing nothing, once
    a target would pass the max."""
    rng = np.random.default_rng(8)
    cm = CountMin(6, 5, conservative=True, counter_dtype="int32")
    cm.core[:] = I32_MAX - rng.integers(1000, 2000, cm.size)
    ref = cm.core.copy()
    u = np.unique(rng.integers(0, 1 << 40, 300, dtype=np.uint64))
    c = rng.integers(1, 10, len(u))
    cm.update(u, c)
    _nh_by_u_conservative(ref, cm._positions(u), c)
    assert ref.tobytes() == cm.core.tobytes()
    before = cm.core.copy()
    with pytest.raises(OverflowError):
        cm.update(u, np.full(len(u), 2000))
    assert np.array_equal(cm.core, before)


def test_kgram_reduce_row_edges():
    """Empty rows first, last and between, and rows shorter than k:
    the windows that stay inside a row and nothing else."""
    lens = np.array([0, 2, 0, 5, 1, 0, 3, 4, 0], dtype=np.int64)
    flat = np.arange(1, lens.sum() + 1, dtype=np.int32) * 7
    for k in (1, 2, 3, 4, 6):
        want, _ = _unblocked_windows(flat, lens, k)
        assert len(want) == sum(max(0, n - k + 1) for n in lens)
        assert np.array_equal(kgram_reduce(flat, lens, k), want)


@pytest.mark.parametrize("dtype", ["int32", "int64"])
@pytest.mark.parametrize("conservative", [False, True],
                         ids=["ocm", "occm"])
def test_ocm_kernels_layout_independent(monkeypatch, dtype, conservative):
    """Every OCM/OCCM kernel that reads ``positions`` writes the same
    bytes whether it gets the row-major result or a C-order (items, nh)
    copy of it."""
    tables = _tables(5)

    def run():
        o = OfflineCountMin(10, 5, conservative=conservative,
                            counter_dtype=dtype)
        for r in range(4):
            if not conservative and r > 0:
                frozen = (o.core.copy(), o.collision.copy())
                for u, c in tables:
                    o.update_collision(u, r, c, *frozen)
            o.clear_core()
            for u, c in tables:
                if conservative:
                    o.update_count_collision(u, r, 4, c)
                else:
                    o.update_count(u, c)
        items = np.concatenate([u for u, _ in tables])
        return o.core.tobytes(), o.collision.tobytes(), \
            o.estimate(items).tobytes()

    got = run()
    real = countmin.positions
    monkeypatch.setattr(countmin, "positions",
                        lambda *a: np.ascontiguousarray(real(*a)))
    assert run() == got
    assert np.frombuffer(got[1], np.int32).max() > 0   # marks were written


# ---- npz handles are closed ---------------------------------------------------

def test_repeated_model_loads_do_not_leak_descriptors(monkeypatch, tmp_path):
    from ocm_ray.ops.classifier import LRModel, NBModel, load_classifier

    lr_path, nb_path = str(tmp_path / "lr.npz"), str(tmp_path / "nb.npz")
    LRModel(w=np.arange(8.0), b=0.5, dim=8, bigrams=False, lowercase=True,
            epochs=1, lr=0.1, l2=0.0).save(lr_path)
    NBModel(keys=np.arange(4, dtype=np.uint64), lp_diff=np.ones(4),
            lp_oov=0.0, prior=0.0, vocab_size=4, alpha=1.0, lowercase=False,
            n_pos_docs=1, n_neg_docs=1).save(nb_path)
    # keep every handle np.load returns alive, as a long-lived process's
    # frames or caches might: only an explicit close releases the fd
    opened = []
    real_load = np.load

    def holding_load(*a, **k):
        z = real_load(*a, **k)
        opened.append(z)
        return z

    monkeypatch.setattr(np, "load", holding_load)

    def nfds():
        return len(os.listdir("/proc/self/fd"))

    before = nfds()
    for _ in range(20):
        assert LRModel.load(lr_path).dim == 8
        assert NBModel.load(nb_path).vocab_size == 4
        assert isinstance(load_classifier(lr_path), LRModel)
    assert len(opened) == 80
    assert nfds() <= before
