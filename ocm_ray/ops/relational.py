"""Relational operators: exact aggregations, broadcast joins, windowed
event aggregates, distinct counts — the exact-oracle counterparts of the
sketch estimators plus the general query surface.

Shuffle discipline (SURVEY §7.3): every ``groupby`` here consumes
pre-aggregated per-block partials (one row per key per block), never raw
rows; small sides broadcast via ``ray.put``; top-k sorts run on grouped
partials only.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd
from ray.data import Dataset

from ocm_ray.engine.build import count_tables, merge_counts, tree_reduce
from ocm_ray.engine.tokens import _one_array, list_column_values
from ocm_ray.ops.agg import grouped_sum, grouped_topk


@ray.remote(num_cpus=1)
def _token_table(counts) -> pa.Table:
    u, c = counts
    return pa.table({"token": pa.array(u.astype(np.int32)),
                     "cnt": pa.array(c.astype(np.int64))})


def exact_token_counts(ds: Dataset, column: str = "tokens") -> Dataset:
    """Exact counts of int tokens from a list<int> column, as a one-block
    ``token:int32, cnt:int64`` Dataset: the ``build.count_tables`` block
    tables folded by ``tree_reduce``."""
    return rd.from_arrow_refs([_token_table.remote(tree_reduce(
        count_tables(ds=ds, column=column), merge_counts))])


def exact_token_counts_sharded(files: List[str], column: str = "tokens",
                               kgram: int = 1) -> pa.Table:
    """:func:`exact_token_counts` over Parquet files, as a ``pa.Table``:
    the ``build.count_tables`` file-shard tables (CLAUDE.md rule 4: no
    read operator, no inter-operator object-store hop). Same rows as the
    Dataset path (parity-tested), and the faster of the two."""
    return ray.get(_token_table.remote(tree_reduce(
        count_tables(files=files, column=column, kgram=kgram), merge_counts)))


def distinct_count(ds: Dataset, column: str) -> int:
    """Exact COUNT(DISTINCT col), NULL counted as one value — per-batch
    unique (shrinks blocks to distinct values), then the keys-only
    ``grouped_sum`` fold."""
    def local(batch: pa.Table) -> pa.Table:
        return pa.table({column: pc.unique(_one_array(batch.column(column)))})

    return grouped_sum(ds.map_batches(local, batch_format="pyarrow"),
                       [column], []).count()


def distinct_tokens_count(ds: Dataset, column: str = "tokens") -> int:
    """Exact distinct count over a token-list column (HLL's oracle): the
    row count of :func:`exact_token_counts`."""
    return exact_token_counts(ds, column).count()


def distinct_tokens_by_key(ds: Dataset, column: str = "tokens",
                           key: str = "source") -> Dataset:
    """Exact COUNT(DISTINCT token) per key over a token-list column —
    the exact oracle of the per-key HLL query. Per-batch distinct
    (key, token) pairs (one row per pair per block; vocab-bounded), tree
    grouped-sum dedupes globally, then a per-key row count."""
    def local(batch: pa.Table) -> pa.Table:
        flat, lengths = list_column_values(batch, column)
        keys = batch.column(key).to_numpy(zero_copy_only=False)
        codes, uniques = pd.factorize(np.repeat(keys, lengths))
        if len(uniques) > 256:
            # a bare assert would vanish under python -O and let code
            # 256 alias into the token bits (silently wrong distincts)
            raise ValueError(
                f"distinct_tokens_by_key packs the key code into 8 bits "
                f"— batch has {len(uniques)} distinct {key!r} values "
                "(> 256); pre-partition by key or widen the pack")
        pair = flat.astype(np.int64) << np.int64(8) | codes.astype(np.int64)
        up = np.unique(pair)
        return pa.table({key: pa.array(uniques[(up & 0xFF).astype(np.int64)]),
                         "token": pa.array((up >> np.int64(8)).astype(np.int32)),
                         "one": pa.array(np.ones(len(up), dtype=np.int64))})

    pairs = grouped_sum(ds.map_batches(local, batch_format="pyarrow"),
                        [key, "token"], ["one"])

    def count_per_key(batch: pa.Table) -> pa.Table:
        df = (batch.to_pandas().groupby(key, as_index=False)
              .agg(distinct_tokens=("token", "size")))
        return pa.Table.from_pandas(df, preserve_index=False)

    return grouped_sum(pairs.map_batches(count_per_key, batch_format="pyarrow"),
                       [key], ["distinct_tokens"])


def exact_value_quantiles(ds: Dataset, column: str, qs: List[float]) -> pd.DataFrame:
    """Exact discrete quantiles of a (shrinkable-domain) value column.

    Distributed value histogram: per-block value_counts → tree grouped-sum
    → cumulative walk on the (small) sorted distinct table. Matches SQL
    ``quantile_disc`` (value at ceil(q·n), 1-indexed)."""
    def local(batch: pa.Table) -> pa.Table:
        vals = batch.column(column).to_numpy(zero_copy_only=False)
        uniq, cnt = np.unique(vals, return_counts=True)
        return pa.table({"value": pa.array(uniq),
                         "cnt": pa.array(cnt.astype(np.int64))})

    hist = grouped_sum(ds.map_batches(local, batch_format="pyarrow"),
                       ["value"], ["cnt"]).to_pandas().sort_values("value")
    cum = hist["cnt"].cumsum().to_numpy()
    n = cum[-1]
    out = []
    for q in qs:
        target = int(np.ceil(q * n)) if q > 0 else 1
        idx = int(np.searchsorted(cum, max(target, 1)))
        out.append({"q": q, "value": float(hist["value"].iloc[idx])})
    return pd.DataFrame(out)


def bigram_counts(ds: Dataset, column: str = "tokens", k: int = 50) -> Dataset:
    """Exact top-k counts of within-document token bigrams.

    Per-block: adjacent pairs (never crossing row boundaries) packed into
    one uint64 key, locally counted; grouped-sum fold; unpack; global
    top-k fold (cnt desc, a asc, b asc)."""
    def local(batch: pa.Table) -> pa.Table:
        flat, lengths = list_column_values(batch, column)
        flat = flat.astype(np.uint64, copy=False)
        if len(flat) < 2:
            return pa.table({"pair": pa.array([], pa.int64()),
                             "cnt": pa.array([], pa.int64())})
        rowid = np.repeat(np.arange(len(lengths)), lengths)
        valid = rowid[:-1] == rowid[1:]
        pair = ((flat[:-1] << np.uint64(32)) | flat[1:])[valid]
        uniq, cnt = np.unique(pair, return_counts=True)
        return pa.table({"pair": pa.array(uniq.astype(np.int64)),
                         "cnt": pa.array(cnt.astype(np.int64))})

    summed = grouped_sum(ds.map_batches(local, batch_format="pyarrow"),
                         ["pair"], ["cnt"])

    def unpack(t: pa.Table) -> pa.Table:
        pair = t.column("pair").to_numpy(zero_copy_only=False).view(np.uint64)
        return pa.table({
            "a": pa.array((pair >> np.uint64(32)).astype(np.int32)),
            "b": pa.array((pair & np.uint64(0xFFFFFFFF)).astype(np.int32)),
            "cnt": t.column("cnt"),
        })

    return grouped_topk(summed.map_batches(unpack, batch_format="pyarrow"),
                        [], "cnt", k, tie_cols=["a", "b"])


def trigram_counts(ds: Dataset, column: str = "tokens", k: int = 200) -> Dataset:
    """Exact top-k counts of within-document token TRIGRAMS (the k-gram
    window semantics of ``include/ocm.h:85-105`` at k=3, kept exact and
    SQL-comparable: raw token triples, not window hashes).

    Same shape as :func:`bigram_counts`: per-block windows packed into
    one uint64 key (3 × 21 bits — token ids must be < 2^21; the 50,257
    vocab fits), local ``np.unique`` partials, grouped-sum fold, unpack +
    deterministic global top-k fold."""
    B = np.uint64(21)
    MASK = np.uint64((1 << 21) - 1)

    def local(batch: pa.Table) -> pa.Table:
        flat, lengths = list_column_values(batch, column)
        flat = flat.astype(np.uint64, copy=False)
        if len(flat) < 3:
            return pa.table({"tri": pa.array([], pa.int64()),
                             "cnt": pa.array([], pa.int64())})
        assert (flat < (1 << 21)).all(), "token id exceeds 21-bit pack"
        rowid = np.repeat(np.arange(len(lengths)), lengths)
        valid = (rowid[:-2] == rowid[1:-1]) & (rowid[1:-1] == rowid[2:])
        tri = ((flat[:-2] << (B + B)) | (flat[1:-1] << B) | flat[2:])[valid]
        uniq, cnt = np.unique(tri, return_counts=True)
        return pa.table({"tri": pa.array(uniq.astype(np.int64)),
                         "cnt": pa.array(cnt.astype(np.int64))})

    summed = grouped_sum(ds.map_batches(local, batch_format="pyarrow"),
                         ["tri"], ["cnt"])

    def unpack(t: pa.Table) -> pa.Table:
        tri = t.column("tri").to_numpy(zero_copy_only=False).view(np.uint64)
        return pa.table({
            "t0": pa.array(((tri >> (B + B)) & MASK).astype(np.int32)),
            "t1": pa.array(((tri >> B) & MASK).astype(np.int32)),
            "t2": pa.array((tri & MASK).astype(np.int32)),
            "cnt": t.column("cnt"),
        })

    return grouped_topk(summed.map_batches(unpack, batch_format="pyarrow"),
                        [], "cnt", k, tie_cols=["t0", "t1", "t2"])


def broadcast_join(large: Dataset, small_df: pd.DataFrame, key: str,
                   select: Optional[List[str]] = None) -> Dataset:
    """Hash join where the build side fits in memory: ``ray.put`` the
    small table ONCE as an Arrow table; every map task joins against the
    shared zero-copy object-store copy with ``pa.Table.join`` (Arrow's
    native hash join — no pandas conversion of the probe side, VERDICT
    r3 #6 minor). Stateless tasks, no shuffle of the probe side.

    Contract (differs from a pandas merge in two ways): duplicate
    NON-KEY column names RAISE (Arrow does not suffix _x/_y — pass
    ``select`` to project the build side first), and row order within a
    probe batch is not guaranteed (hash-join output order; sort
    downstream when order matters — every in-repo caller already
    aggregates or sorts)."""
    if select is not None:
        small_df = small_df[[key] + [c for c in select if c != key]]
    small_tbl = small_df if isinstance(small_df, pa.Table) else \
        pa.Table.from_pandas(small_df, preserve_index=False)
    ref = ray.put(small_tbl)

    def probe(batch: pa.Table) -> pa.Table:
        small = ray.get(ref)  # zero-copy from the shared object store
        # Arrow joins REJECT duplicate non-key columns (no _x/_y
        # suffixing) — loud beats silent; see the docstring contract
        return batch.join(small, keys=key, join_type="inner")

    return large.map_batches(probe, batch_format="pyarrow")


def windowed_event_agg(events: Dataset, window: str = "1h",
                       ts_col: str = "ts", key: str = "event_type",
                       value_col: str = "value") -> Dataset:
    """Tumbling-window aggregate: floor the timestamp to the window,
    pre-aggregate (key, window) partials per batch, grouped-sum the
    partials. SQL-equivalent: GROUP BY key, time_bucket."""
    seconds = {"1m": 60, "5m": 300, "1h": 3600, "1d": 86400}[window]

    def local(batch: pa.Table) -> pa.Table:
        ts = _ts_to_us(batch, ts_col)
        bucket = (ts // (seconds * 1_000_000)) * (seconds * 1_000_000)
        df = pd.DataFrame({
            key: batch.column(key).to_numpy(zero_copy_only=False),
            "window_start": bucket,
            "val": batch.column(value_col).to_numpy(zero_copy_only=False),
        })
        g = df.groupby([key, "window_start"], as_index=False).agg(
            n=("val", "size"), sum_value=("val", "sum"))
        return pa.Table.from_pandas(g, preserve_index=False)

    out = grouped_sum(events.map_batches(local, batch_format="pyarrow"),
                      [key, "window_start"], ["n", "sum_value"])

    def finish(batch: pa.Table) -> pa.Table:
        ws = pa.array(batch.column("window_start").to_numpy(zero_copy_only=False),
                      type=pa.int64())
        return (batch.set_column(batch.schema.get_field_index("window_start"),
                                 "window_start", ws.cast(pa.timestamp("us"))))

    return out.map_batches(finish, batch_format="pyarrow")


def windowed_distinct(events: Dataset, window: str = "1h",
                      ts_col: str = "ts", key: str = "event_type",
                      id_col: str = "user_id",
                      n_shards: int = 32) -> Dataset:
    """Tumbling-window EXACT COUNT(DISTINCT id) per key — the windowed
    distinct shape (distinct users per hour). Per batch: floor the
    timestamp to the window, Arrow-group to DISTINCT (key, window, id)
    triples (blocks shrink to their distinct combos before any
    exchange); the triple table — NEAR-UNIQUE when ids are
    high-cardinality, so the grouped fold's root would receive
    ~every triple in one block (rule 3b) — takes ONE
    (key, window)-hash ``shard_scan`` exchange instead: every triple of
    a (key, window) group lands in one shard, which dedupes globally
    and counts — shard output is (key, window)-bounded.
    SQL-equivalent: GROUP BY key, time_bucket, COUNT(DISTINCT id)."""
    from ocm_ray.ops.pairs import _shard_bits, shard_scan

    seconds = {"1m": 60, "5m": 300, "1h": 3600, "1d": 86400}[window]
    bits = _shard_bits(n_shards)

    def triples(batch: pa.Table) -> pa.Table:
        ts = _ts_to_us(batch, ts_col)
        bucket = (ts // (seconds * 1_000_000)) * (seconds * 1_000_000)
        t = pa.table({key: batch.column(key),
                      "window_start": pa.array(bucket),
                      id_col: batch.column(id_col)})
        return t.group_by([key, "window_start", id_col]).aggregate([])

    def shard_of(tbl: pa.Table) -> np.ndarray:
        from ocm_ray.core.hashing import wanghash
        from ocm_ray.engine.tokens import hash_string_array

        kcol = tbl.column(key)
        if pa.types.is_integer(tbl.schema.field(key).type):
            hk = wanghash(kcol.to_numpy(zero_copy_only=False)
                          .astype(np.uint64))
        else:
            hk = hash_string_array(kcol)
        hw = wanghash(tbl.column("window_start")
                      .to_numpy(zero_copy_only=False).astype(np.uint64))
        h = wanghash(hk ^ hw)
        return (h >> np.uint64(64 - bits)).astype(np.int32) if bits \
            else np.zeros(len(h), np.int32)

    def scan(tbl: pa.Table) -> pa.Table:
        kt = tbl.schema.field(key).type
        if tbl.num_rows == 0:
            return pa.table({key: pa.array([], kt),
                             "window_start": pa.array(
                                 [], pa.timestamp("us")),
                             "n_distinct": pa.array([], pa.int64())})
        df = tbl.to_pandas().drop_duplicates()  # global dedup in-shard
        g = (df.groupby([key, "window_start"], sort=False, as_index=False)
             .agg(n_distinct=(id_col, "size")))
        return pa.table({
            key: pa.array(g[key].to_numpy(), kt),
            "window_start": pa.array(g["window_start"].to_numpy())
            .cast(pa.timestamp("us")),
            "n_distinct": pa.array(g["n_distinct"].to_numpy(np.int64))})

    return shard_scan(events.map_batches(triples, batch_format="pyarrow"),
                      shard_of, scan, n_shards)


def _ts_to_us(batch: pa.Table, ts_col: str) -> np.ndarray:
    """Timestamp column → int64 MICROSECOND epochs, honoring the column's
    own unit (parquet files are typically us; in-memory pandas frames
    arrive as ns)."""
    col = batch.column(ts_col)
    t = col.type
    unit = t.unit if pa.types.is_timestamp(t) else "us"
    raw = col.cast(pa.int64()).to_numpy(zero_copy_only=False)
    scale = {"s": 1_000_000, "ms": 1_000, "us": 1, "ns": None}[unit]
    return raw // 1_000 if scale is None else raw * scale


def hopping_event_agg(events: Dataset, window: str = "1h", hop: str = "30m",
                      ts_col: str = "ts", key: str = "event_type",
                      value_col: str = "value") -> Dataset:
    """HOPPING (sliding) window aggregate: each event lands in
    ``window/hop`` overlapping windows. Per batch the event→window
    explode happens vectorized (a ``repeat`` + offset subtraction — no
    reshuffle of raw events), pre-aggregated to (key, window_start)
    partials, then tree grouped-sum. ``hop`` must divide ``window``.
    SQL-equivalent: GROUP BY over an UNNEST(range(window/hop)) lateral."""
    secs = {"1m": 60, "5m": 300, "30m": 1800, "1h": 3600, "1d": 86400}
    w_us, h_us = secs[window] * 1_000_000, secs[hop] * 1_000_000
    assert w_us % h_us == 0, "hop must divide window"
    k = w_us // h_us

    def local(batch: pa.Table) -> pa.Table:
        ts = _ts_to_us(batch, ts_col)
        base = (ts // h_us) * h_us
        n = len(ts)
        starts = (np.repeat(base, k)
                  - np.tile(np.arange(k, dtype=np.int64) * h_us, n))
        df = pd.DataFrame({
            key: np.repeat(batch.column(key).to_numpy(zero_copy_only=False), k),
            "window_start": starts,
            "val": np.repeat(
                batch.column(value_col).to_numpy(zero_copy_only=False), k),
        })
        g = df.groupby([key, "window_start"], as_index=False).agg(
            n=("val", "size"), sum_value=("val", "sum"))
        return pa.Table.from_pandas(g, preserve_index=False)

    out = grouped_sum(events.map_batches(local, batch_format="pyarrow"),
                      [key, "window_start"], ["n", "sum_value"])

    def finish(batch: pa.Table) -> pa.Table:
        ws = pa.array(batch.column("window_start").to_numpy(zero_copy_only=False),
                      type=pa.int64())
        return (batch.set_column(batch.schema.get_field_index("window_start"),
                                 "window_start", ws.cast(pa.timestamp("us"))))

    return out.map_batches(finish, batch_format="pyarrow")


def asof_join_broadcast(left: Dataset, right_df: pd.DataFrame, key: str,
                        left_ts: str = "ts", right_ts: str = "avail_ts",
                        value_cols: Optional[List[str]] = None) -> Dataset:
    """AS-OF join: each left row matches the LATEST right row of its key
    with ``right_ts ≤ left_ts`` (inner — unmatched left rows drop).
    SQL-equivalent: DuckDB ``ASOF JOIN``.

    Broadcast design (the as-of sides that matter at scale — rate /
    state / availability tables — are small): the right side is sorted
    per key once, shipped via ``ray.put``, and every batch resolves its
    matches with one ``searchsorted`` per key present in the batch. No
    shuffle of the (large) left side; timestamps honor each column's
    Arrow unit."""
    value_cols = value_cols or [c for c in right_df.columns
                                if c not in (key, right_ts)]
    lookup = {}
    for k, grp in right_df.groupby(key, sort=True):
        g = grp.sort_values(right_ts)
        ts_us = g[right_ts].astype("datetime64[us]").astype(np.int64).to_numpy()
        lookup[k] = (ts_us, {c: g[c].to_numpy() for c in value_cols})
    ref = ray.put(lookup)

    def join(batch: pa.Table) -> pa.Table:
        table = ray.get(ref)
        lts = _ts_to_us(batch, left_ts)
        keys = batch.column(key).to_numpy(zero_copy_only=False)
        sel = np.full(len(lts), -1, dtype=np.int64)    # row in the key's table
        out_vals = {c: np.empty(len(lts), dtype=object) for c in value_cols}
        avail = np.zeros(len(lts), dtype=np.int64)
        for k in pd.unique(keys):
            m = keys == k
            if k not in table:
                continue
            ts_us, vals = table[k]
            idx = np.searchsorted(ts_us, lts[m], side="right") - 1
            pos = np.flatnonzero(m)
            ok = idx >= 0
            sel[pos[ok]] = idx[ok]
            avail[pos[ok]] = ts_us[idx[ok]]
            for c in value_cols:
                out_vals[c][pos[ok]] = vals[c][idx[ok]]
        keep = sel >= 0
        kept = batch.filter(pa.array(keep))
        kept = kept.append_column(right_ts, pa.array(
            avail[keep]).cast(pa.timestamp("us")))
        for c in value_cols:
            kept = kept.append_column(c, pa.array(list(out_vals[c][keep])))
        return kept

    return left.map_batches(join, batch_format="pyarrow")


def shuffle_join(left: Dataset, right: Dataset, on: str, right_on: str,
                 join_type: str = "inner",
                 num_partitions: Optional[int] = None) -> Dataset:
    """Large × large equi-join via Ray Data's native hash join (both
    sides hash-partition on the key — the path when NEITHER side fits a
    broadcast; prefer :func:`broadcast_join` / :func:`semi_join_filter`
    whenever one side is small, and pre-project both sides to only the
    columns the query needs before joining)."""
    if num_partitions is None:
        num_partitions = max(2, int(ray.cluster_resources()
                                    .get("CPU", 8)) // 2)
    return left.join(right, join_type=join_type,
                     num_partitions=num_partitions,
                     on=(on,), right_on=(right_on,))


def interval_join_broadcast(left: Dataset, right_df: pd.DataFrame,
                            value_col: str, lo_col: str = "lo",
                            hi_col: str = "hi",
                            right_cols: Optional[List[str]] = None) -> Dataset:
    """RANGE join: one output row per (left row, interval) with
    ``lo ≤ value < hi`` — intervals may overlap (each match emits).
    SQL-equivalent: ``JOIN ON value >= lo AND value < hi``.

    Broadcast design: the interval table ships once via ``ray.put``;
    each batch evaluates every interval with one vectorized comparison
    (O(|intervals| · batch) — the right shape when the interval side is
    a broadcastable dimension table, which is what range joins are in
    practice: bands, tiers, windows)."""
    right_cols = right_cols or [c for c in right_df.columns
                                if c not in (lo_col, hi_col)]
    ref = ray.put((right_df[lo_col].to_numpy(), right_df[hi_col].to_numpy(),
                   {c: right_df[c].to_numpy() for c in right_cols}))

    def join(batch: pa.Table) -> pa.Table:
        lo, hi, vals = ray.get(ref)
        v = batch.column(value_col).to_numpy(zero_copy_only=False)
        take_left, take_right = [], []
        for i in range(len(lo)):
            m = np.flatnonzero((v >= lo[i]) & (v < hi[i]))
            take_left.append(m)
            take_right.append(np.full(len(m), i, dtype=np.int64))
        li = np.concatenate(take_left) if take_left else np.empty(0, np.int64)
        ri = np.concatenate(take_right) if take_right else np.empty(0, np.int64)
        out = batch.take(pa.array(li))
        for c in right_cols:
            out = out.append_column(c, pa.array(vals[c][ri]))
        return out

    return left.map_batches(join, batch_format="pyarrow")


def semi_join_filter(large: Dataset, keys: np.ndarray, key_col: str,
                     anti: bool = False) -> Dataset:
    """Semi/anti join against a broadcast key set:
    the key array rides the object store once; every batch filters with a
    vectorized ``np.isin``/Arrow ``is_in``. For key sets too large to
    broadcast, substitute a Bloom filter of the keys (approximate anti-
    join: no false drops for semi, bounded false keeps for anti)."""
    import ray

    ref = ray.put(np.asarray(keys))

    def filt(batch: pa.Table) -> pa.Table:
        ks = ray.get(ref) if isinstance(ref, ray.ObjectRef) else ref
        mask = pc.is_in(batch.column(key_col),
                        value_set=pa.array(ks))
        if anti:
            mask = pc.invert(mask)
        return batch.filter(mask)

    return large.map_batches(filt, batch_format="pyarrow")


def sessionize(events: Dataset, gap_sec: int = 1800, key: str = "user_id",
               ts_col: str = "ts", n_shards: int = 64) -> Dataset:
    """Session counts per key — the order-sensitive streaming-shaped op:
    a within-key timestamp gap > ``gap_sec`` starts a new session.

    Scale shape (the ``ops/pairs.py`` pattern, NOT per-key
    ``map_groups`` — one dispatch per key is ~1 ms/group, hours at 10M
    users): project each event to a compact (key, ts_us) row, one
    raw-task :func:`ocm_ray.ops.pairs.shard_scan` exchange over a few
    dozen key-hash shards (driver holds only ObjectRefs — Ray Data's
    AllToAll ops retain corpus-proportional driver memory), then a
    vectorized sorted-run scan per shard — sort by (key, ts), session
    breaks from one ``np.diff`` masked at run boundaries, per-key
    reductions via ``np.bincount``. No per-key dispatch anywhere; a
    shard holds ~n_keys/n_shards keys (grow ``n_shards`` with the
    corpus so one shard's events fit a worker)."""
    from ocm_ray.ops.pairs import key_shard_fn, shard_scan

    gap_us = np.int64(gap_sec) * 1_000_000

    def project(batch: pa.Table) -> pa.Table:
        return pa.table({key: batch.column(key),
                         "_ts_us": pa.array(_ts_to_us(batch, ts_col))})

    shard_of = key_shard_fn(key, n_shards)

    def scan(tbl: pa.Table) -> pa.Table:
        df = tbl.to_pandas()
        if len(df) == 0:
            return pa.table({key: tbl.column(key),
                             "n_events": pa.array([], pa.int64()),
                             "n_sessions": pa.array([], pa.int64())})
        df = df.sort_values([key, "_ts_us"], kind="mergesort",
                            ignore_index=True)
        k = df[key].to_numpy()
        ts = df["_ts_us"].to_numpy()
        new_key = np.concatenate([[True], k[1:] != k[:-1]])
        brk = np.concatenate([[False], (ts[1:] - ts[:-1]) > gap_us]) & ~new_key
        run = np.cumsum(new_key) - 1
        return pa.table({
            key: pa.array(k[new_key]),
            "n_events": pa.array(np.bincount(run).astype(np.int64)),
            "n_sessions": pa.array(np.bincount(run, weights=brk)
                                   .astype(np.int64) + 1),
        })

    return shard_scan(events.map_batches(project, batch_format="pyarrow"),
                      shard_of, scan, n_shards)


def lineitem_pricing_summary(lineitem: Dataset, cutoff: str = "1998-09-01") -> Dataset:
    """TPC-H Q1-shaped pricing summary. Per-block partial sums (including
    the count, so the mean is derivable) feed the tree grouped-sum —
    the shuffle moves only (#groups × #blocks) partial rows."""
    def prep(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.less(batch.column("l_shipdate"),
                                     pa.scalar(np.datetime64(cutoff, "us"))))
        disc = batch.column("l_discount")
        price = batch.column("l_extendedprice")
        rev = pc.multiply(price, pc.subtract(pa.scalar(1.0), disc))
        charge = pc.multiply(rev, pc.add(pa.scalar(1.0), batch.column("l_tax")))
        ones = pa.array(np.ones(batch.num_rows, dtype=np.int64))
        t = pa.table({
            "l_returnflag": batch.column("l_returnflag"),
            "l_linestatus": batch.column("l_linestatus"),
            "sum_qty": batch.column("l_quantity"),
            "sum_base_price": price,
            "sum_disc_price": rev,
            "sum_charge": charge,
            "count_order": ones,
        })
        return t

    sums = ["sum_qty", "sum_base_price", "sum_disc_price", "sum_charge",
            "count_order"]
    out = grouped_sum(lineitem.map_batches(prep, batch_format="pyarrow"),
                      ["l_returnflag", "l_linestatus"], sums)

    def finish(t: pa.Table) -> pa.Table:
        avg = pc.divide(t.column("sum_qty"),
                        pc.cast(t.column("count_order"), pa.float64()))
        return t.append_column("avg_qty", avg)

    return out.map_batches(finish, batch_format="pyarrow")


def orders_by_segment(orders: Dataset, customer_df: pd.DataFrame) -> Dataset:
    """Broadcast-join orders→customer, revenue per market segment —
    few-key aggregate via the grouped_sum block fold (blocks shrink to
    one row per segment before any merge; no sort-based AllToAll)."""
    joined = broadcast_join(orders, customer_df.rename(columns={"c_custkey": "o_custkey"}),
                            key="o_custkey", select=["o_custkey", "c_mktsegment"])

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table({
            "c_mktsegment": batch.column("c_mktsegment"),
            "total_price": batch.column("o_totalprice"),
            "n_orders": pa.array(np.ones(batch.num_rows, dtype=np.int64)),
        })

    return grouped_sum(joined.map_batches(prep, batch_format="pyarrow"),
                       ["c_mktsegment"], ["total_price", "n_orders"])


def asof_join_sharded(left: Dataset, right: Dataset, key: str = "event_type",
                      left_ts: str = "ts", right_ts: str = "avail_ts",
                      right_vals: Optional[List[str]] = None,
                      n_shards: int = 32) -> Dataset:
    """LARGE x LARGE backward as-of join (each left row takes the most
    recent right row with the same key and ``right_ts <= left_ts``,
    inner semantics — unmatched left rows drop), with NEITHER side
    broadcastable: both sides co-shard by key hash through the raw-task
    :func:`ocm_ray.ops.pairs.shard_scan2` exchange, then one vectorized
    merge per shard.

    Per-shard kernel (no per-key dispatch): concatenate right-markers
    and left rows, lexsort by (key, ts, side) with right first at ties
    (equality matches, like DuckDB ``ASOF JOIN ... ON l.ts >= r.ts``),
    forward-fill the last right index with one ``np.maximum.accumulate``,
    then invalidate fills that crossed a key boundary by a single key
    equality check. Partitioning assumption: one key's rows (both
    sides) fit one task — grow ``n_shards`` with the data; a single
    pathologically hot key needs the broadcast variant instead."""
    from ocm_ray.ops.pairs import shard_scan2

    if right_vals is None:
        # derive from the right schema like asof_join_broadcast does —
        # a domain-specific literal default would KeyError worker-side
        # for any right table not shaped like the events rollup
        right_vals = [c for c in right.schema().names
                      if c not in (key, right_ts)]

    def make_shard_of(col: str):
        # NOT ops.pairs.key_shard_fn: this variant shards by h % n
        # deliberately, so asof accepts any n_shards (the top-bits form
        # needs a power of two). Assignment differs, results don't —
        # both sides use the same fn.
        def shard_of(tbl: pa.Table) -> np.ndarray:
            from ocm_ray.core.hashing import wanghash
            from ocm_ray.engine.tokens import hash_string_array

            c = tbl.column(col)
            if pa.types.is_integer(tbl.schema.field(col).type):
                h = wanghash(c.to_numpy(zero_copy_only=False)
                             .astype(np.uint64))
            else:
                h = hash_string_array(c)
            return (h % np.uint64(n_shards)).astype(np.int32)
        return shard_of

    def scan(ltbl: pa.Table, rtbl: pa.Table) -> pa.Table:
        import pandas as pd

        lk = ltbl.column(key).to_numpy(zero_copy_only=False)
        rk = rtbl.column(key).to_numpy(zero_copy_only=False)
        lt = _ts_to_us(ltbl, left_ts) if ltbl.num_rows else \
            np.empty(0, np.int64)
        rt = _ts_to_us(rtbl, right_ts) if rtbl.num_rows else \
            np.empty(0, np.int64)
        nl, nr = len(lk), len(rk)
        keys_all = np.concatenate([rk, lk])
        ts_all = np.concatenate([rt, lt])
        side = np.concatenate([np.zeros(nr, np.int8), np.ones(nl, np.int8)])
        order = np.lexsort((side, ts_all, keys_all))  # right first at ties
        # forward-fill most recent right row index; key-boundary fills
        # are invalidated by the key equality check below
        marker = np.where(side[order] == 0,
                          np.arange(nl + nr), -1)
        # marker holds SORTED positions of right rows; map back later
        last = np.maximum.accumulate(marker)
        pos_left = np.flatnonzero(side[order] == 1)
        match_sorted_pos = last[pos_left]
        valid = match_sorted_pos >= 0
        li = order[pos_left] - nr                    # left original index
        ri_sorted = match_sorted_pos[valid]
        ri = order[ri_sorted]                        # right original index
        valid_idx = np.flatnonzero(valid)
        same_key = pd.Series(rk[ri]).to_numpy() == \
            pd.Series(lk[li[valid_idx]]).to_numpy()
        keep_left = li[valid_idx[same_key]]
        keep_right = ri[same_key]
        out = ltbl.take(pa.array(keep_left))
        out = out.append_column(right_ts,
                                rtbl.column(right_ts).take(pa.array(keep_right)))
        for c in right_vals:
            out = out.append_column(c,
                                    rtbl.column(c).take(pa.array(keep_right)))
        return out

    return shard_scan2(left, right, make_shard_of(key), make_shard_of(key),
                       scan, n_shards)


def partitioned_window(ds: Dataset, key: str = "user_id",
                       order_col: str = "ts", tie_col: str = "event_id",
                       value_col: Optional[str] = "value",
                       n_shards: int = 64) -> Dataset:
    """SQL window functions over (PARTITION BY key ORDER BY order_col,
    tie_col): row_number, rank, dense_rank (rank/dense on order_col
    alone, SQL tie semantics), percent_rank and cume_dist (the
    order-tie-sharing ratio forms), ntile4 (SQL NTILE(4) on the full
    row order), gap to the previous row's order value (``gap_us``
    int64, -1 for partition heads), and — when ``value_col`` is given —
    the running max and running sum of the value plus ``lag_value`` /
    ``lead_value`` (shifted copies, NaN at partition edges).

    Scale shape (same as :func:`sessionize`, NOT per-key
    ``map_groups``): compact projection, one raw-task
    :func:`ocm_ray.ops.pairs.shard_scan` exchange over key-hash shards
    (driver holds only ObjectRefs), then ONE vectorized pass per shard
    — sort by (key, order, tie), partition/tie boundaries from
    ``np.diff``-style comparisons, ranks from cumsum / maximum-
    accumulate index arithmetic, running max/sum via pandas grouped
    cumulatives (single C pass, no per-group dispatch). ``running_sum``
    over floats inherits sequential-accumulation rounding — exact for
    integer values, ulp-level otherwise (document ROUND when oracling).
    """
    from ocm_ray.ops.pairs import key_shard_fn, shard_scan


    def project(batch: pa.Table) -> pa.Table:
        cols = {key: batch.column(key), tie_col: batch.column(tie_col),
                "_ord": pa.array(_order_to_i64(batch, order_col))}
        if value_col is not None:
            cols["_val"] = batch.column(value_col)
        return pa.table(cols)

    shard_of = key_shard_fn(key, n_shards)

    def scan(tbl: pa.Table) -> pa.Table:
        df = tbl.to_pandas()
        if len(df) == 0:
            # column ORDER must equal the non-empty branch's — divergent
            # block schemas in one Dataset break strict concat consumers
            empty = {key: tbl.column(key), tie_col: tbl.column(tie_col)}
            for c in ("row_number", "rank", "dense_rank"):
                empty[c] = pa.array([], pa.int64())
            for c in ("percent_rank", "cume_dist"):
                empty[c] = pa.array([], pa.float64())
            empty["ntile4"] = pa.array([], pa.int64())
            empty["gap_us"] = pa.array([], pa.int64())
            if value_col is not None:
                # running_max/sum keep the VALUE column's dtype in the
                # non-empty branch (pandas cummax/cumsum preserve int);
                # lag/lead are always float64 (NaN at partition edges).
                # A hardcoded float64 here would give empty shards a
                # schema that conflicts with int-valued populated ones.
                vt = tbl.schema.field("_val").type
                for c in ("running_max", "running_sum"):
                    empty[c] = pa.array([], vt)
                for c in ("lag_value", "lead_value"):
                    empty[c] = pa.array([], pa.float64())
            return pa.table(empty)
        df = df.sort_values([key, "_ord", tie_col], kind="mergesort",
                            ignore_index=True)
        k = df[key].to_numpy()
        o = df["_ord"].to_numpy()
        pos = np.arange(len(df), dtype=np.int64)
        new_key = np.concatenate([[True], k[1:] != k[:-1]])
        run = np.cumsum(new_key) - 1
        starts = pos[new_key]
        row_number = pos - starts[run] + 1
        # SQL RANK: 1 + #rows strictly before the first peer (order ties
        # share); DENSE_RANK: #distinct order values seen in partition
        new_val = new_key | np.concatenate([[True], o[1:] != o[:-1]])
        first_peer = np.maximum.accumulate(np.where(new_val, pos, -1))
        rank = first_peer - starts[run] + 1
        dv = np.cumsum(new_val)
        dense_rank = dv - dv[starts[run]] + 1
        gap = np.concatenate([[0], o[1:] - o[:-1]])
        gap[new_key] = -1
        # ratio forms: PERCENT_RANK = (rank-1)/(n-1) (0 for a singleton
        # partition), CUME_DIST = peers-through-last / n — both exact
        # small-integer divisions, bit-identical to SQL doubles
        sizes = np.bincount(run)
        n_part = sizes[run].astype(np.float64)
        percent_rank = np.where(n_part > 1,
                                (rank - 1) / np.maximum(n_part - 1, 1.0),
                                0.0)
        gv = dv - 1  # order-value group ids (dv computed for dense_rank)
        ends = np.cumsum(np.bincount(gv)) - 1
        cume_dist = (ends[gv] - starts[run] + 1) / n_part
        # SQL NTILE(4): the first n%4 buckets take ceil(n/4) rows
        t4 = 4
        idx = row_number - 1
        n_i = sizes[run]
        big = n_i // t4 + 1
        nbig = n_i % t4
        cutoff = nbig * big
        small = np.maximum(n_i // t4, 1)  # cutoff covers all rows if n<4
        ntile4 = np.where(idx < cutoff, idx // big + 1,
                          nbig + (idx - cutoff) // small + 1).astype(np.int64)
        cols = {key: df[key], tie_col: df[tie_col],
                "row_number": row_number, "rank": rank,
                "dense_rank": dense_rank,
                "percent_rank": percent_rank, "cume_dist": cume_dist,
                "ntile4": ntile4, "gap_us": gap}
        if value_col is not None:
            g = df.groupby(run, sort=False)["_val"]
            cols["running_max"] = g.cummax().to_numpy()
            cols["running_sum"] = g.cumsum().to_numpy()
            # LAG/LEAD of the value over the full row order — pure
            # shifted copies (null at partition edges), oracle-exact
            v = df["_val"].to_numpy()
            lag_v = np.concatenate([[np.nan], v[:-1]])
            lag_v[new_key] = np.nan
            lead_v = np.concatenate([v[1:], [np.nan]])
            lead_v[np.concatenate([new_key[1:], [True]])] = np.nan
            cols["lag_value"] = lag_v
            cols["lead_value"] = lead_v
        return pa.Table.from_pandas(pd.DataFrame(cols),
                                    preserve_index=False)

    return shard_scan(ds.map_batches(project, batch_format="pyarrow"),
                      shard_of, scan, n_shards)


def _order_to_i64(batch: pa.Table, col: str) -> np.ndarray:
    """Order column → int64 (timestamps via :func:`_ts_to_us`)."""
    if pa.types.is_timestamp(batch.schema.field(col).type):
        return _ts_to_us(batch, col)
    return batch.column(col).to_numpy(zero_copy_only=False).astype(np.int64)


def grouped_quantiles(ds: Dataset, key: str, value_col: str,
                      qs=(0.1, 0.5, 0.9, 0.99),
                      n_shards: int = 16) -> Dataset:
    """Exact per-key discrete quantiles (SQL ``quantile_disc``
    semantics: value at ceil(q·n), 1-indexed) for CONTINUOUS value
    domains, where the histogram tree of
    :func:`exact_value_quantiles` would degenerate (distinct values ≈
    rows).

    Scale shape: one :func:`ocm_ray.ops.pairs.shard_scan` exchange by
    key hash, then per shard ONE sort by (key, value) and a vectorized
    index pick per (run, q) — no per-key dispatch. Assumes one key's
    rows fit one shard task (grow ``n_shards`` with the corpus; same
    documented assumption as sessionize / partitioned_window)."""
    from ocm_ray.ops.pairs import key_shard_fn, shard_scan

    qs = list(qs)

    def project(batch: pa.Table) -> pa.Table:
        return batch.select([key, value_col])

    shard_of = key_shard_fn(key, n_shards)

    def scan(tbl: pa.Table) -> pa.Table:
        df = tbl.to_pandas()
        if len(df) == 0:
            # discrete quantiles are SELECTED elements, so the value
            # column keeps its input dtype — match it in the empty
            # branch (hardcoded float64 would conflict with int shards)
            return pa.table({key: tbl.column(key),
                             "q": pa.array([], pa.float64()),
                             value_col: pa.array(
                                 [], tbl.schema.field(value_col).type)})
        df = df.sort_values([key, value_col], kind="mergesort",
                            ignore_index=True)
        k = df[key].to_numpy()
        v = df[value_col].to_numpy()
        new_key = np.concatenate([[True], k[1:] != k[:-1]])
        starts = np.flatnonzero(new_key)
        lens = np.diff(np.concatenate([starts, [len(df)]]))
        keys_out, q_out, v_out = [], [], []
        for q in qs:                       # loop over quantiles, not keys
            tgt = np.maximum(np.ceil(q * lens).astype(np.int64), 1)
            pick = starts + np.minimum(tgt - 1, lens - 1)
            keys_out.append(k[starts])
            q_out.append(np.full(len(starts), q))
            v_out.append(v[pick])
        return pa.table({key: pa.array(np.concatenate(keys_out)),
                         "q": pa.array(np.concatenate(q_out)),
                         value_col: pa.array(np.concatenate(v_out))})

    return shard_scan(ds.map_batches(project, batch_format="pyarrow"),
                      shard_of, scan, n_shards)


def interval_join_sharded(left: Dataset, right: Dataset, value_col: str,
                          lo_col: str = "lo", hi_col: str = "hi",
                          right_cols: Optional[List[str]] = None,
                          bucket_width: Optional[float] = None,
                          n_shards: int = 32,
                          max_buckets: int = 64) -> Dataset:
    """Large x large RANGE join (``lo <= value < hi``, overlapping
    intervals emit per match) — the scale path past
    :func:`interval_join_broadcast`'s broadcastable-right assumption.

    Range bucketing: values land in bucket ``floor(v / width)``; each
    interval explodes to the buckets it covers; both sides co-shard by
    hashed bucket through the two-sided raw-task exchange
    (:func:`ocm_ray.ops.pairs.shard_scan2`), so every (value, interval)
    match meets in exactly one task — a left row matches an interval
    only in the row's OWN bucket, so overlapped exploded copies cannot
    double-emit. Intervals covering more than ``max_buckets`` buckets
    (unbounded bands, sentinels) would explode combinatorially; they
    are split off (driver-held, bounded by the LONG-interval count —
    the documented assumption) and joined via the broadcast path, and
    the two result Datasets union. ``bucket_width`` defaults to the
    median interval length of a deterministic head sample."""
    import pyarrow.compute as _pc

    from ocm_ray.ops.pairs import _shard_bits, shard_scan2
    from ocm_ray.core.hashing import wanghash

    rcols_tbl = right.select_columns(
        [lo_col, hi_col] + [c for c in (right_cols or []) if c]) \
        if right_cols else right
    head = rcols_tbl.limit(10_000).to_pandas()
    right_cols = right_cols or [c for c in head.columns
                                if c not in (lo_col, hi_col)]
    if bucket_width is None:
        lens = (head[hi_col] - head[lo_col]).to_numpy(dtype=np.float64)
        finite = lens[np.isfinite(lens) & (lens > 0)]
        bucket_width = float(np.median(finite)) if len(finite) else 1.0
    W = float(bucket_width)
    bits = _shard_bits(n_shards)
    U64_ = np.uint64

    def bucket_of_f(v: np.ndarray) -> np.ndarray:
        """Float-domain bucket index — stays inf-aware so unbounded
        interval ends cannot wrap through an int cast (huge/W may
        overflow to inf, which is exactly the long classification)."""
        with np.errstate(over="ignore"):
            return np.floor(np.asarray(v, np.float64) / W)

    def bucket_of(v: np.ndarray) -> np.ndarray:
        return bucket_of_f(v).astype(np.int64)

    def shard_of_bucket(b: np.ndarray) -> np.ndarray:
        h = wanghash(b.view(U64_))
        return (h >> U64_(64 - bits)).astype(np.int32) if bits else \
            np.zeros(len(b), np.int32)

    # split right into short (exploded, sharded) and long (broadcast)
    def is_long(batch: pa.Table) -> pa.Table:
        lo = batch.column(lo_col).to_numpy(zero_copy_only=False)
        hi = batch.column(hi_col).to_numpy(zero_copy_only=False)
        # FLOAT bucket arithmetic: ±inf / |bound| >= 2^63·W ends must
        # classify as long BEFORE any int64 cast can wrap them short
        n_b = bucket_of_f(np.nextafter(hi, -np.inf)) - bucket_of_f(lo) + 1
        safe = np.isfinite(n_b) & (n_b <= max_buckets) & (n_b >= 1) \
            & (np.abs(bucket_of_f(lo)) < 2**62) \
            & (np.abs(bucket_of_f(np.nextafter(hi, -np.inf))) < 2**62)
        return batch.append_column("__long", pa.array(~safe))

    # materialize ONCE before branching (ADVICE r3 #2): the long and
    # short consumers below would otherwise each re-execute the right-
    # side pipeline, and a nondeterministic upstream (sample/shuffle)
    # could classify an interval long in one execution and short in the
    # other — dropping or double-emitting matches
    flagged = right.map_batches(is_long, batch_format="pyarrow").materialize()
    long_df = flagged.map_batches(
        lambda t: t.filter(t.column("__long")),
        batch_format="pyarrow").to_pandas().drop(columns="__long")

    def explode_short(batch: pa.Table) -> pa.Table:
        batch = batch.filter(_pc.invert(batch.column("__long"))) \
            .drop_columns(["__long"])
        lo = batch.column(lo_col).to_numpy(zero_copy_only=False)
        hi = batch.column(hi_col).to_numpy(zero_copy_only=False)
        b0 = bucket_of(lo)
        b1 = bucket_of(np.nextafter(hi, -np.inf))
        cnt = (b1 - b0 + 1).astype(np.int64)
        rows = np.repeat(np.arange(len(lo), dtype=np.int64), cnt)
        off = np.concatenate([[0], np.cumsum(cnt)[:-1]])
        bkt = np.arange(int(cnt.sum()), dtype=np.int64) - off[rows] + b0[rows]
        out = batch.take(pa.array(rows))
        return out.append_column("__bucket", pa.array(bkt))

    short_exploded = flagged.map_batches(explode_short,
                                         batch_format="pyarrow")

    def add_left_bucket(batch: pa.Table) -> pa.Table:
        v = batch.column(value_col).to_numpy(zero_copy_only=False)
        return batch.append_column("__bucket", pa.array(bucket_of(v)))

    left_b = left.map_batches(add_left_bucket, batch_format="pyarrow")

    def shard_fn(tbl: pa.Table) -> np.ndarray:
        return shard_of_bucket(
            tbl.column("__bucket").to_numpy(zero_copy_only=False))

    def scan(lt: pa.Table, rt: pa.Table) -> pa.Table:
        lcols = [c for c in lt.column_names if c != "__bucket"]
        if lt.num_rows == 0 or rt.num_rows == 0:
            empty = lt.select(lcols).slice(0, 0)
            for c in right_cols:
                col = rt.column(c)
                if isinstance(col, pa.ChunkedArray):
                    col = col.combine_chunks()
                empty = empty.append_column(c, col.slice(0, 0))
            return empty
        lb = lt.column("__bucket").to_numpy(zero_copy_only=False)
        order = np.argsort(lb, kind="stable")
        lt_s = lt.take(pa.array(order))
        lb_s = lb[order]
        v = lt_s.column(value_col).to_numpy(zero_copy_only=False)
        rb = rt.column("__bucket").to_numpy(zero_copy_only=False)
        rlo = rt.column(lo_col).to_numpy(zero_copy_only=False)
        rhi = rt.column(hi_col).to_numpy(zero_copy_only=False)
        li_out, ri_out = [], []
        for i in range(rt.num_rows):        # loop over INTERVAL rows only
            s = np.searchsorted(lb_s, rb[i], side="left")
            e = np.searchsorted(lb_s, rb[i], side="right")
            if s == e:
                continue
            m = np.flatnonzero((v[s:e] >= rlo[i]) & (v[s:e] < rhi[i])) + s
            li_out.append(m)
            ri_out.append(np.full(len(m), i, dtype=np.int64))
        if not li_out:
            return scan(lt.slice(0, 0), rt)
        li = np.concatenate(li_out)
        ri = np.concatenate(ri_out)
        out = lt_s.select(lcols).take(pa.array(li))
        for c in right_cols:
            col = rt.column(c)
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            out = out.append_column(c, col.take(pa.array(ri)))
        return out

    sharded = shard_scan2(left_b, short_exploded, shard_fn, shard_fn,
                          scan, n_shards)
    if len(long_df):
        return sharded.union(interval_join_broadcast(
            left, long_df, value_col, lo_col, hi_col, right_cols))
    return sharded


def funnel(events: Dataset, stages, key: str = "user_id",
           ts_col: str = "ts", type_col: str = "event_type",
           tie_col: str = "event_id", n_shards: int = 64) -> Dataset:
    """Ordered funnel analysis: per key, how far through ``stages``
    (e.g. ``("view", "click", "signup", "purchase")``) did the event
    stream progress? Stage i is reached at the FIRST event of its type
    strictly AFTER stage i−1's reach point in the total (ts, tie_col)
    order. Emits one row per key: ``n_reached`` plus ``ts_<stage>``
    reach timestamps (µs since epoch; −1 when not reached) — all
    integers, so a SQL oracle matches exactly.

    Scale shape (the ``ops/pairs.py`` pattern, NOT per-key map_groups):
    compact (key, ts, tie, stage-index) projection, one raw-task
    shard_scan exchange by key hash, then per shard ONE sort and a
    vectorized pass PER STAGE (``np.minimum.reduceat`` over key runs —
    the loop is over len(stages), never over keys)."""
    from ocm_ray.ops.pairs import key_shard_fn, shard_scan

    stages = list(stages)
    BIG = np.iinfo(np.int64).max

    def project(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as _pc

        sidx = _pc.index_in(batch.column(type_col),
                            value_set=pa.array(stages)) \
            .to_numpy(zero_copy_only=False)
        sidx = np.where(np.isnan(sidx.astype(np.float64)), -1,
                        sidx).astype(np.int64) \
            if sidx.dtype.kind == "f" else sidx.astype(np.int64)
        keep = sidx >= 0  # only funnel-stage events travel
        t = pa.table({key: batch.column(key),
                      "_ord": pa.array(_order_to_i64(batch, ts_col)),
                      "_tie": batch.column(tie_col),
                      "_stg": pa.array(sidx)})
        return t.filter(pa.array(keep))

    shard_of = key_shard_fn(key, n_shards)

    def scan(tbl: pa.Table) -> pa.Table:
        df = tbl.to_pandas()
        if len(df) == 0:
            out = {key: tbl.column(key), "n_reached": pa.array([], pa.int64())}
            for s in stages:
                out[f"ts_{s}"] = pa.array([], pa.int64())
            return pa.table(out)
        df = df.sort_values([key, "_ord", "_tie"], kind="mergesort",
                            ignore_index=True)
        k = df[key].to_numpy()
        o = df["_ord"].to_numpy()
        tie = df["_tie"].to_numpy()
        stg = df["_stg"].to_numpy()
        pos = np.arange(len(df), dtype=np.int64)
        new_key = np.concatenate([[True], k[1:] != k[:-1]])
        run = np.cumsum(new_key) - 1
        starts = pos[new_key]
        n_runs = len(starts)
        prev = np.full(n_runs, -1, dtype=np.int64)  # reach POSITION
        reach_ts = np.full((n_runs, len(stages)), -1, dtype=np.int64)
        alive = np.ones(n_runs, dtype=bool)
        for i in range(len(stages)):
            cand = np.where((stg == i) & (pos > prev[run]) & alive[run],
                            pos, BIG)
            first = np.minimum.reduceat(cand, starts)
            hit = first < BIG
            reach_ts[hit, i] = o[first[hit]]
            prev = np.where(hit, first, prev)
            alive &= hit
        n_reached = (reach_ts >= 0).sum(axis=1).astype(np.int64)
        out = {key: df[key].to_numpy()[starts], "n_reached": n_reached}
        for i, s in enumerate(stages):
            out[f"ts_{s}"] = reach_ts[:, i]
        return pa.Table.from_pandas(pd.DataFrame(out),
                                    preserve_index=False)

    return shard_scan(events.map_batches(project, batch_format="pyarrow"),
                      shard_of, scan, n_shards)


def retention_cohorts(events: Dataset, key: str = "user_id",
                      ts_col: str = "ts",
                      period_us: int = 86_400_000_000,
                      n_shards: int = 64,
                      max_broadcast: int = 8_000_000,
                      distributed: bool = None) -> Dataset:
    """Cohort retention: users grouped by their FIRST activity period
    (the cohort), counted in every later period they return —
    ``(cohort, period_offset, n_active)`` with ``period_offset`` in
    periods since the cohort period (0 = the cohort row itself).

    Scale shape: per-block distinct ``(key, period)`` pairs (bounded at
    one row per active user-period per block) are the only thing that
    ever leaves a block. Auto-dispatch on that pair count (an upper
    bound on users, free after the materialize): ``<= max_broadcast``
    pairs, the pair table dedupes through the grouped-sum tree, per-key
    first periods ride ``grouped_topk(n=1)``, and the cohort join is
    one broadcast searchsorted pass; above the cap — where user-sized
    tables fit neither a broadcast NOR the grouped fold's one-block root
    (CLAUDE.md rule 3b: near-unique keyspaces don't shrink) — the pair
    table takes ONE key-hash ``shard_scan`` exchange and each shard
    dedupes globally, derives its keys' first periods, and emits
    pre-aggregated (cohort, offset) partial counts; only that
    few-key partial table ever enters a grouped tree. ``distributed``
    forces the path (None = auto); both paths produce identical counts
    (parity-tested)."""
    def pairs(batch: pa.Table) -> pa.Table:
        k = batch.column(key).to_numpy(zero_copy_only=False)
        per = (_ts_to_us(batch, ts_col) // period_us).astype(np.int64)
        df = pd.DataFrame({key: k, "period": per}).drop_duplicates()
        df["one"] = np.int64(1)
        return pa.Table.from_pandas(df, preserve_index=False)

    pair_ds = events.map_batches(pairs, batch_format="pyarrow") \
        .materialize()  # compact; consumed by count + the chosen path
    if distributed is None:
        distributed = pair_ds.count() > max_broadcast
    if distributed:
        return _retention_exchange(pair_ds, key, n_shards)

    # under the cap: every table below is <= max_broadcast rows, so the
    # grouped trees and the one-put broadcast are safe by construction
    act = grouped_sum(pair_ds, [key, "period"], ["one"]) \
        .drop_columns(["one"]).materialize()  # consumed twice below
    first = grouped_topk(act, [key], "period", 1, tie_cols=[],
                         descending=False)
    return _retention_broadcast(act, first, key)


def _retention_broadcast(act: Dataset, first: Dataset,
                         key: str) -> Dataset:
    """Small-user-count path: ONE ``ray.put`` of the pre-sorted
    (key, first period) arrays, one stateless searchsorted pass."""
    import ray as _ray

    fp = first.to_pandas()
    uk = fp[key].to_numpy()
    up = fp["period"].to_numpy()
    order = np.argsort(uk, kind="mergesort")  # sort ONCE, not per batch
    ref = _ray.put((uk[order], up[order]))

    def offsets(batch: pa.Table) -> pa.Table:
        uk, up = _ray.get(ref)
        k = batch.column(key).to_numpy(zero_copy_only=False)
        per = batch.column("period").to_numpy(zero_copy_only=False)
        cohort = up[np.searchsorted(uk, k)]
        return pa.table({"cohort": pa.array(cohort.astype(np.int64)),
                         "period_offset": pa.array(
                             (per - cohort).astype(np.int64)),
                         "n_active": pa.array(
                             np.ones(len(k), dtype=np.int64))})

    return grouped_sum(act.map_batches(offsets, batch_format="pyarrow"),
                       ["cohort", "period_offset"], ["n_active"])


def _retention_exchange(pair_ds: Dataset, key: str,
                        n_shards: int) -> Dataset:
    """Unbounded-user path: ONE key-hash ``shard_scan`` exchange of the
    compact per-block-distinct (key, period) pair table. Every pair of
    a key lands in one shard, so the shard dedupes globally, reads each
    key's FIRST period off the sorted runs, and emits PRE-AGGREGATED
    (cohort, offset) partial counts — shard output is bounded by its
    distinct (cohort, offset) pairs, not its users, and no users-sized
    table ever enters a grouped tree or the driver (rule 3b/9). A final
    few-key grouped-sum folds the shards."""
    from ocm_ray.ops.pairs import key_shard_fn, shard_scan

    def scan(tbl: pa.Table) -> pa.Table:
        if tbl.num_rows == 0:
            return pa.table({"cohort": pa.array([], pa.int64()),
                             "period_offset": pa.array([], pa.int64()),
                             "n_active": pa.array([], pa.int64())})
        k = tbl.column(key).to_numpy(zero_copy_only=False)
        per = tbl.column("period").to_numpy(zero_copy_only=False)
        # stable two-pass argsort = lexsort by (key, period) that also
        # handles object-dtype string keys
        o1 = np.argsort(per, kind="mergesort")
        o = o1[np.argsort(k[o1], kind="mergesort")]
        k, per = k[o], per[o]
        keep = np.concatenate(
            [[True], (k[1:] != k[:-1]) | (per[1:] != per[:-1])])
        k, per = k[keep], per[keep]      # global (key, period) dedup
        new_key = np.concatenate([[True], k[1:] != k[:-1]])
        run = np.cumsum(new_key) - 1
        cohort = per[new_key][run]       # first (= min) period per key
        df = pd.DataFrame({"cohort": cohort.astype(np.int64),
                           "period_offset":
                               (per - cohort).astype(np.int64)})
        g = df.groupby(["cohort", "period_offset"], sort=False) \
            .size().reset_index(name="n_active")
        g["n_active"] = g["n_active"].astype(np.int64)
        return pa.Table.from_pandas(g, preserve_index=False)

    partial = shard_scan(pair_ds, key_shard_fn(key, n_shards), scan,
                         n_shards)
    return grouped_sum(partial, ["cohort", "period_offset"], ["n_active"])
