"""Distributed bucket-collision pair emission — the shared shuffle stage
of the near-dedup family (MinHash-LSH, SimHash banding, n-gram Jaccard).

The input is a compact *band table* Dataset with two columns:

    key : int64   (a well-mixed uint64 bucket key, viewed as int64)
    id  : any     (the document / vector id)

Two rows colliding on ``key`` are a candidate pair. The table is sharded
by the TOP bits of ``key`` (a prefix of the key — runs can never span
shards), exchanged worker-to-worker through the raw-task
:func:`shard_scan` (NOT Ray's AllToAll ops, which retain driver memory
∝ the shuffled bytes — see shard_scan's docstring), and each shard runs
the vectorized sorted-run scan locally. Only (key, id) pairs — ~16 B/row
— ever move; signatures / fingerprints / embeddings stay where they were
computed. Driver memory is bounded by the EMITTED candidate set (output-
sized), never by the corpus.

At 100 TB scale ``n_shards`` should grow with the corpus so one shard's
band rows fit a worker (each shard ≈ rows × 16 B / n_shards).
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import pandas as pd
import pyarrow as pa
from ray.data import Dataset

from ocm_ray.engine.tokens import _one_array

U64 = np.uint64


def _arrow_schema(ds) -> pa.Schema:
    """Dataset schema as a REAL ``pa.Schema`` (usable for
    ``empty_table()``): Ray returns a PandasBlockSchema when upstream
    blocks are pandas, which has names/types but no Arrow surface."""
    sch = ds.schema()
    base = getattr(sch, "base_schema", sch)
    if isinstance(base, pa.Schema):
        return base
    fields = []
    for name, typ in zip(base.names, base.types):
        if isinstance(typ, pa.DataType):
            fields.append((name, typ))
        else:
            try:
                fields.append((name, pa.from_numpy_dtype(np.dtype(typ))))
            except (pa.ArrowNotImplementedError, TypeError):
                fields.append((name, pa.string()))  # object dtype
    return pa.schema(fields)


def _shard_bits(n_shards: int) -> int:
    assert n_shards & (n_shards - 1) == 0, "n_shards must be a power of 2"
    return int(n_shards).bit_length() - 1


def hash_column(tbl: pa.Table, name: str) -> np.ndarray:
    """THE engine hash of a column: integers wang-mixed, everything else
    through the stable string codec. Single definition shared by
    :func:`key_shard_fn` and every op needing value-identity hashes
    (e.g. dedup's edge-set signature) — per-op copies drift."""
    from ocm_ray.core.hashing import wanghash
    from ocm_ray.engine.tokens import hash_string_array

    col = tbl.column(name)
    if pa.types.is_integer(tbl.schema.field(name).type):
        return wanghash(col.to_numpy(zero_copy_only=False)
                        .astype(np.uint64))
    return hash_string_array(col)


def key_shard_fn(key_col: str, n_shards: int):
    """THE key-hash shard function for :func:`shard_scan` /
    :func:`shard_scan2`: top ``log2(n_shards)`` bits of the engine hash
    of ``key_col`` (via :func:`hash_column`). One definition — six ops
    used to carry their own near-identical copies, one of which had
    already drifted."""
    bits = _shard_bits(n_shards)

    def shard_of(tbl: pa.Table) -> np.ndarray:
        h = hash_column(tbl, key_col)
        return (h >> np.uint64(64 - bits)).astype(np.int32) if bits \
            else np.zeros(len(h), np.int32)

    return shard_of


def shards_for(n_rows: int, lo: int = 8, hi: int = 64,
               rows_per_shard: int = 2048) -> int:
    """Power-of-two shard count sized to the input: exchange results are
    shard-count-invariant (partitioning only), but each shard is one
    split slot + one scan task, so 64 near-empty shards on a small
    corpus are pure scheduling overhead (~0.7-1.5 s measured at 5k
    docs) while a large corpus wants the full fan-out. Callers that
    know (or can cheaply count, e.g. Parquet metadata) their row count
    should pass ``n_shards=shards_for(n)``; the static defaults remain
    the large-corpus value."""
    want = max(1, int(n_rows) // max(1, rows_per_shard))
    p2 = 1 << max(0, want.bit_length() - 1)
    return max(lo, min(hi, p2))


def add_shard_column(band_ds: Dataset, n_shards: int = 64,
                     key_col: str = "key") -> Dataset:
    """Append ``shard`` = top log2(n_shards) bits of the (uint64-viewed)
    key. Keys are wang-mixed hashes, so the prefix is uniform."""
    bits = _shard_bits(n_shards)

    def add(batch: pa.Table) -> pa.Table:
        k = batch.column(key_col).to_numpy(zero_copy_only=False).view(U64)
        shard = (k >> U64(64 - bits)).astype(np.int32) if bits else \
            np.zeros(len(k), np.int32)
        return batch.append_column("shard", pa.array(shard))

    return band_ds.map_batches(add, batch_format="pyarrow")


def _scan_runs(key: np.ndarray, max_bucket: Optional[int]):
    """Vectorized sorted-run scan: returns (row_i, row_j) index pairs of
    all within-run combinations (the candidate pairs of one shard).

    Pair expansion is vectorized ACROSS runs — no Python loop over
    buckets (a near-dup-rich shard can hold 10^5-10^6 small colliding
    buckets; per-bucket iteration was the throughput cliff). Two repeat/
    cumsum levels: run → one row per (run, j) for j=1..len-1, then each
    (run, j) row → j pairs (i=0..j-1). Work and memory are output-sized
    (Σ len·(len−1)/2 pairs) plus one ≤n intermediate — exact integer
    arithmetic, no float triangular inversion."""
    order = np.argsort(key, kind="stable")
    ks = key[order]
    run_start = np.concatenate([[True], ks[1:] != ks[:-1]])
    starts = np.flatnonzero(run_start)
    lens = np.diff(np.concatenate([starts, [len(ks)]]))
    sel = lens > 1
    if max_bucket is not None:
        sel &= lens <= max_bucket  # skip degenerate mega-buckets (cap)
    starts, lens = starts[sel], lens[sel]
    if len(starts) == 0:
        z = np.empty(0, np.int64)
        return z, z
    # level 1: one row per (run, j), j = 1..len-1  (≤ n rows total)
    m = lens - 1
    row_run = np.repeat(np.arange(len(lens)), m)
    off = np.concatenate([[0], np.cumsum(m)[:-1]])
    j_local = np.arange(int(m.sum()), dtype=np.int64) - off[row_run] + 1
    # level 2: each (run, j) row expands to j pairs (i = 0..j-1)
    pair_row = np.repeat(np.arange(len(j_local)), j_local)
    poff = np.concatenate([[0], np.cumsum(j_local)[:-1]])
    i_local = np.arange(int(j_local.sum()), dtype=np.int64) - poff[pair_row]
    base = starts[row_run[pair_row]]
    return order[base + i_local], order[base + j_local[pair_row]]


def _split_by_shard(tbl: pa.Table, shard: np.ndarray, n_shards: int):
    """One sorted pass → tuple of n_shards sub-tables (some empty)."""
    order = np.argsort(shard, kind="stable")
    tbl = tbl.take(pa.array(order))
    counts = np.bincount(shard, minlength=n_shards)
    offs = np.concatenate([[0], np.cumsum(counts)])
    return tuple(tbl.slice(int(offs[i]), int(counts[i]))
                 for i in range(n_shards))


def shard_scan(ds: Dataset, shard_fn, scan_fn, n_shards: int) -> Dataset:
    """All-to-all exchange + per-shard scan via RAW Ray tasks.

    Why not ``groupby(shard).map_groups`` / ``sort``: Ray Data's
    AllToAll operators execute partly ON THE DRIVER and retain driver
    anon memory ~5x the shuffled bytes (measured: a 150 MB band table
    grew driver RSS by ~700 MB) — corpus-proportional driver state,
    exactly what CLAUDE.md rule 9 bans. Here the driver holds ONLY
    ObjectRefs: a split wave (one task per input block → ``n_shards``
    sub-table returns) and a scan wave (one task per shard, varargs
    refs auto-resolved) exchange everything worker-to-worker through
    the object store; the result Dataset is assembled from the scan
    refs without driver materialization.

    ``shard_fn(table) -> int32[n_rows]`` assigns shards (values in
    [0, n_shards)); ``scan_fn(table) -> table`` runs once per shard
    and must accept an empty table (schema inference / empty shards).
    Object count is blocks x shards — grow block size with the corpus
    so that product stays ~10^6 at 100 TB.
    """
    import ray
    import ray.data as rd

    def split_block(tbl):
        # ray.put each sub-table (ALWAYS the shared object store): plain
        # num_returns returns under ~100 KB land in the DRIVER-owned
        # in-process store, which would re-centralize the whole shuffle
        # into driver RSS — the failure mode this function exists to
        # avoid. Returned list of refs is tiny.
        tbl = _as_arrow(tbl)
        if tbl.num_rows == 0:
            # 0-row blocks can arrive SCHEMA-LESS (Ray's map_batches
            # emits pa.table({}) for an empty upstream block), so the
            # shard_fn must never see them
            ref = ray.put(tbl)
            return [ref] * n_shards
        return [ray.put(part)
                for part in _split_by_shard(tbl, shard_fn(tbl), n_shards)]

    split_task = ray.remote(split_block)

    def scan_shard(part_refs, fb_schema):
        all_parts = ray.get(list(part_refs))
        parts = [p for p in all_parts if p.num_rows]
        if parts:
            tbl = pa.concat_tables(parts)
        else:  # all-empty shard: prefer a part that still carries schema;
            # if EVERY part is schema-less (all upstream blocks empty),
            # synthesize from the dataset schema so scan_fn never sees
            # pa.table({})
            tbl = next((p for p in all_parts if p.num_columns),
                       fb_schema.empty_table())
        return scan_fn(tbl)

    scan_task = ray.remote(scan_shard)

    # wave-scheduled split (VERDICT r3 #5): consume the upstream as a
    # STREAM of block refs and launch each block's split task the moment
    # the block exists, so the exchange's split wave overlaps the
    # upstream map instead of barriering behind a full to_arrow_refs()
    # materialization. The driver still holds only refs.
    if n_shards == 1:
        # single shard needs no split wave at all — launching split
        # tasks would ray.put-copy every block for nothing
        block_refs = list(iter_block_refs(ds))
        if not block_refs:
            return rd.from_arrow(scan_fn(_arrow_schema(ds).empty_table()))

        fb0 = _arrow_schema(ds)

        def scan_all(*blocks):
            nonempty = [b for b in map(_as_arrow, blocks) if b.num_rows]
            if nonempty:
                return scan_fn(pa.concat_tables(nonempty))
            first = _as_arrow(blocks[0])
            return scan_fn(first if first.num_columns
                           else fb0.empty_table())
        return rd.from_arrow_refs([ray.remote(scan_all).remote(*block_refs)])
    block_refs, split_refs = _streamed_splits(ds, split_task)
    if not block_refs:
        return rd.from_arrow(scan_fn(_arrow_schema(ds).empty_table()))
    # schema is cheap here: _streamed_splits already executed the input
    fb_schema = _arrow_schema(ds)
    per_block = _gather_splits(split_refs)
    out = [scan_task.remote([per_block[b][s]
                             for b in range(len(per_block))], fb_schema)
           for s in range(n_shards)]
    return rd.from_arrow_refs(out)


def _as_arrow(block) -> pa.Table:
    """Blocks from the streaming iterator may be pandas (upstream block
    format is the producer's choice); normalize worker-side."""
    if isinstance(block, pa.Table):
        return block
    return pa.Table.from_pandas(block, preserve_index=False)


def iter_block_refs(ds: Dataset):
    """``ds``'s block refs, streamed: each appears as the executor
    produces it, so work launched per block overlaps the upstream
    pipeline and the driver holds only refs. Blocks may be pandas or
    schema-less and empty (rule 8b) — pass them through
    :func:`_as_arrow` and guard ``num_rows`` before reading columns."""
    for bundle in ds.iter_internal_ref_bundles():
        yield from bundle.block_refs


def _streamed_splits(ds: Dataset, split_task):
    """Launch one split task per block as :func:`iter_block_refs` yields
    it. Returns (block_refs, split_result_refs)."""
    block_refs, split_refs = [], []
    for b in iter_block_refs(ds):
        block_refs.append(b)
        split_refs.append(split_task.remote(b))
    return block_refs, split_refs


def _gather_splits(split_refs):
    """Collect every split task's (tiny) list-of-sub-refs, ray.wait-
    driven: each result is fetched the moment its task completes, so
    the driver-side gets overlap the still-running splits instead of
    one ``ray.get`` barrier paying the whole fetch after the slowest
    split (VERDICT r4 #8). The all-to-all dependency itself is
    inherent — no scan can start before the last split — but the tail
    between last-split-done and scans-launched shrinks to ~zero."""
    import ray

    per_block = [None] * len(split_refs)
    idx = {r: i for i, r in enumerate(split_refs)}
    pending = list(split_refs)
    while pending:
        # num_returns=1: ray.wait blocks until num_returns tasks have
        # FINISHED, so a larger value is a barrier over that many tasks
        # (64 would have been identical to the old ray.get for typical
        # split counts); one wait per split is negligible — each result
        # is a tiny list of sub-refs
        done, pending = ray.wait(pending, num_returns=1)
        got = ray.get(done)
        for r, v in zip(done, got):
            per_block[idx[r]] = v
    return per_block


def collision_pairs(band_ds: Dataset, n_shards: int = 64,
                    key_col: str = "key", id_col: str = "id",
                    max_bucket: Optional[int] = None) -> Dataset:
    """Candidate pairs (a, b) from key collisions, fully distributed.

    One raw-task :func:`shard_scan` exchange of the 16 B/row band table
    (sharded by the top key bits — runs can never span shards);
    per-shard vectorized run scan; pairs canonicalized a < b per row.
    Pairs found via multiple keys (bands) may repeat across shards —
    dedupe on the (small) candidate set downstream. ``max_bucket``
    optionally skips pathological buckets (standard LSH practice at
    scale); ``None`` keeps every pair.
    """
    bits = _shard_bits(n_shards)

    def shard_of(tbl: pa.Table) -> np.ndarray:
        k = tbl.column(key_col).to_numpy(zero_copy_only=False).view(U64)
        return (k >> U64(64 - bits)).astype(np.int32) if bits else \
            np.zeros(len(k), np.int32)

    def scan(group: pa.Table) -> pa.Table:
        key = group.column(key_col).to_numpy(zero_copy_only=False).view(U64)
        ii, jj = _scan_runs(key, max_bucket)
        ids = _one_array(group.column(id_col))
        a = ids.take(pa.array(ii))
        b = ids.take(pa.array(jj))
        # canonicalize a < b elementwise (works for ints and strings)
        import pyarrow.compute as pc

        swap = pc.greater(a, b)
        lo = pc.if_else(swap, b, a)
        hi = pc.if_else(swap, a, b)
        return pa.table({"a": lo, "b": hi})

    return shard_scan(band_ds, shard_of, scan, n_shards)


def collect_unique_pairs(cand: Dataset) -> pd.DataFrame:
    """Materialize the (output-sized) candidate set, dedupe, sort."""
    df = cand.to_pandas()
    if len(df) == 0:
        return pd.DataFrame({"a": [], "b": []})
    return (df.drop_duplicates(["a", "b"]).sort_values(["a", "b"])
            .reset_index(drop=True))


def lookup_rows_for_ids(ds: Dataset, ids: np.ndarray, id_col: str) -> pa.Table:
    """Fetch the rows of ``ds`` whose ``id_col`` is in ``ids`` — broadcast
    the (small, candidate-sized) sorted id array once via ``ray.put`` and
    filter per batch with stateless tasks (no actor-pool startup cost);
    only matching rows come back (output-bounded)."""
    import pyarrow.compute as pc
    import ray

    ref = ray.put(np.sort(np.asarray(ids)))

    def keep_wanted(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:     # may arrive schema-less (rule 8b)
            return pa.table({})
        wanted = ray.get(ref)  # zero-copy from the shared object store
        mask = pc.is_in(batch.column(id_col), value_set=pa.array(wanted))
        return batch.filter(mask)

    out = ds.map_batches(keep_wanted, batch_format="pyarrow")
    all_t = ray.get(out.to_arrow_refs())
    nonempty = [t for t in all_t if t.num_rows]
    if not (nonempty or all_t):
        return pa.table({})
    if not nonempty:
        # prefer a schema-carrying empty (rule 8b); if none, synthesize
        # from the dataset schema so callers can read their columns
        schemad = next((t for t in all_t if t.num_columns), None)
        if schemad is None:
            return _arrow_schema(ds).empty_table()
        return schemad
    return pa.concat_tables(nonempty, promote_options="default")


def shard_scan2(ds_a: Dataset, ds_b: Dataset, shard_fn_a, shard_fn_b,
                scan_fn, n_shards: int) -> Dataset:
    """Two-sided :func:`shard_scan`: co-shard TWO datasets by compatible
    shard functions and run ``scan_fn(a_table, b_table)`` once per shard
    — the exchange shape of a large x large co-partitioned join (both
    sides' rows for a key meet in exactly one task). Same driver
    contract as shard_scan: only ObjectRefs on the driver."""
    import ray
    import ray.data as rd

    def make_split(shard_fn):
        def split_block(tbl):
            tbl = _as_arrow(tbl)
            if tbl.num_rows == 0:   # may be schema-less — see shard_scan
                ref = ray.put(tbl)
                return [ref] * n_shards
            return [ray.put(part)
                    for part in _split_by_shard(tbl, shard_fn(tbl), n_shards)]
        return ray.remote(split_block)

    def _fold(refs, fb_schema):
        parts = ray.get(list(refs))
        nonempty = [p for p in parts if p.num_rows]
        if nonempty:
            return pa.concat_tables(nonempty)
        # prefer a schema-carrying part; if every part is schema-less,
        # synthesize from the side's dataset schema (rule 8b)
        return next((p for p in parts if p.num_columns),
                    fb_schema.empty_table())

    def scan_shard(a_refs, b_refs, fb_a, fb_b):
        return scan_fn(_fold(a_refs, fb_a), _fold(b_refs, fb_b))

    scan_task = ray.remote(scan_shard)
    split_a, split_b = make_split(shard_fn_a), make_split(shard_fn_b)
    # wave-scheduled (see shard_scan): splits launch as upstream blocks
    # stream out of each side's executor. The two sides drain
    # CONCURRENTLY (a thread drives side a) — sequential drains cost
    # wall A+B for what is one co-partitioned exchange
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=1) as tp:
        fut_a = tp.submit(_streamed_splits, ds_a, split_a)
        refs_b, splits_b = _streamed_splits(ds_b, split_b)
        refs_a, splits_a = fut_a.result()
    if not refs_a or not refs_b:
        return rd.from_arrow(scan_fn(_arrow_schema(ds_a).empty_table(),
                                     _arrow_schema(ds_b).empty_table()))
    fb_a = _arrow_schema(ds_a)
    fb_b = _arrow_schema(ds_b)
    per_a = _gather_splits(splits_a)
    per_b = _gather_splits(splits_b)
    out = [scan_task.remote([per_a[i][s] for i in range(len(per_a))],
                            [per_b[i][s] for i in range(len(per_b))],
                            fb_a, fb_b)
           for s in range(n_shards)]
    return rd.from_arrow_refs(out)
