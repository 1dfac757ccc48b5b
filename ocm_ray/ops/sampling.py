"""Deterministic sampling / splitting operators for training-data
pipelines.

Everything here is a pure function of the row's ID under the engine's
stable hash — reproducible across runs, machines, partitionings and
library versions (no RNG state, no order dependence), which is the
property a train/validation split must have at 100 TB: re-running the
pipeline, resuming it, or adding nodes must never move a document
across the split boundary.

* :func:`hash_split` — disjoint + exhaustive train/val(/test) split by
  hash range;
* :func:`deterministic_sample` — keep an approximate fraction of rows;
* :func:`stratified_sample` — per-key fractions (e.g. downsample web,
  keep all code) via one broadcast dict.

All are single ``map_batches`` filters: no shuffle, no driver state.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np
import pyarrow as pa
from ray.data import Dataset

U64 = np.uint64
_SPLIT_SALT = 0xD1B54A32D192ED03  # distinct from content-hash uses


def _bucket01(batch: pa.Table, id_col: str, seed: int) -> np.ndarray:
    """Deterministic per-row uniform in [0, 1) from the id column (any
    type — strings hash through the stable codec, ints through Wang)."""
    from ocm_ray.core.hashing import wanghash
    from ocm_ray.engine.tokens import hash_string_array

    col = batch.column(id_col)
    t = batch.schema.field(id_col).type
    if pa.types.is_integer(t):
        h = wanghash(col.to_numpy(zero_copy_only=False).astype(U64)
                     ^ U64(_SPLIT_SALT) ^ U64(seed))
    else:
        h = hash_string_array(col, seed=seed ^ (_SPLIT_SALT & 0x7FFFFFFF))
    u = h.astype(np.float64) / np.float64(2.0**64)
    # float64 rounds h > 2^64-1024 up to EXACTLY 1.0, which every
    # half-open [lo, hi) bucket excludes — such a row would silently
    # vanish from ALL splits (~5e-17/row, real at 10^12 rows). Clamp
    # into [0, 1).
    return np.minimum(u, np.nextafter(1.0, 0.0))


def hash_split(ds: Dataset, id_col: str = "doc_id",
               fractions: Optional[List[float]] = None,
               seed: int = 137) -> List[Dataset]:
    """Split into len(fractions)+1 DISJOINT and EXHAUSTIVE datasets by
    hash range: e.g. ``fractions=[0.9]`` → [train≈90%, val≈10%];
    ``[0.8, 0.1]`` → [80%, 10%, 10%]. Every row lands in exactly one
    output regardless of partitioning or re-runs."""
    fr = list(fractions or [0.9])
    bounds = np.concatenate([[0.0], np.cumsum(fr), [1.0]])
    assert bounds[-2] <= 1.0, "fractions sum past 1"

    def part(lo: float, hi: float):
        def f(batch: pa.Table) -> pa.Table:
            u = _bucket01(batch, id_col, seed)
            return batch.filter(pa.array((u >= lo) & (u < hi)))
        return f

    return [ds.map_batches(part(float(bounds[i]), float(bounds[i + 1])),
                           batch_format="pyarrow")
            for i in range(len(bounds) - 1)]


def deterministic_sample(ds: Dataset, fraction: float,
                         id_col: str = "doc_id", seed: int = 137) -> Dataset:
    """Keep ≈``fraction`` of rows, chosen by id hash (re-runs keep the
    SAME rows — unlike ``Dataset.random_sample``)."""
    def f(batch: pa.Table) -> pa.Table:
        u = _bucket01(batch, id_col, seed)
        return batch.filter(pa.array(u < fraction))

    return ds.map_batches(f, batch_format="pyarrow")


def stratified_sample(ds: Dataset, key_col: str,
                      fractions: Dict[str, float],
                      default_fraction: float = 1.0,
                      id_col: str = "doc_id", seed: int = 137) -> Dataset:
    """Per-key keep-fractions (the data-mixing knob of a pretraining
    corpus: e.g. ``{"web": 0.3, "books": 1.0}``); rows of unlisted keys
    keep ``default_fraction``. One broadcast dict, one filter pass."""
    import pyarrow.compute as pc
    import ray

    ref = ray.put((list(fractions.keys()),
                   np.asarray(list(fractions.values()), dtype=np.float64)))

    def f(batch: pa.Table) -> pa.Table:
        keys, fracs = ray.get(ref)
        u = _bucket01(batch, id_col, seed)
        if len(fracs) == 0:
            # empty fractions: pa.array([]) is NULL-typed, which
            # index_in rejects against a string column — and the
            # np.where below would fancy-index an empty fracs. Every
            # row misses by definition; apply the default directly.
            thr = np.full(len(u), default_fraction)
            return batch.filter(pa.array(u < thr))
        # vectorized key→fraction: Arrow index_in against the broadcast
        # key list, numpy take of the fraction vector (miss → default)
        idx = pc.index_in(batch.column(key_col), value_set=pa.array(keys)) \
            .to_numpy(zero_copy_only=False)
        miss = np.isnan(idx.astype(np.float64)) if idx.dtype.kind == "f" \
            else (idx < 0)
        thr = np.where(miss, default_fraction,
                       fracs[np.where(miss, 0, idx).astype(np.int64)])
        return batch.filter(pa.array(u < thr))

    return ds.map_batches(f, batch_format="pyarrow")


def sample_n_per_key(ds: Dataset, key_col: str, id_col: str = "doc_id",
                     n: int = 10, seed: int = 137,
                     weight_col: Optional[str] = None) -> Dataset:
    """Deterministic sample of exactly min(n, group size) rows per key.

    Uniform (default): keep the n smallest ``wanghash(id ^ salt ^
    seed)`` within each key — a seeded reservoir whose membership is a
    pure function of the ids (stable across runs, partitionings and
    cluster sizes, unlike an RNG reservoir).

    Weighted (``weight_col=``): the Efraimidis-Spirakis A-ES scheme —
    keep the n LARGEST ``ln(u) / w`` with ``u = (hash + 1) / 2^64``
    (selection probability ∝ weight, same determinism contract); rows
    with ``w <= 0`` are excluded.

    Either way it rides :func:`ocm_ray.ops.agg.grouped_topk` (per-block
    partial top-k + the block fold — no shuffle); output is bounded
    by n × |keys|.
    """
    from ocm_ray.core.hashing import wanghash
    from ocm_ray.engine.tokens import hash_string_array
    from ocm_ray.ops.agg import grouped_topk

    def add_h(batch: pa.Table) -> pa.Table:
        col = batch.column(id_col)
        if pa.types.is_integer(batch.schema.field(id_col).type):
            h = wanghash(col.to_numpy(zero_copy_only=False).astype(U64)
                         ^ U64(_SPLIT_SALT) ^ U64(seed))
        else:
            h = hash_string_array(col, seed=seed ^ (_SPLIT_SALT & 0x7FFFFFFF))
        if weight_col is None:
            return batch.append_column("_h", pa.array(h, pa.uint64()))
        w = batch.column(weight_col).to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        u = (h.astype(np.float64) + 1.0) / 18446744073709551616.0
        key = np.where(w > 0, np.log(u) / np.maximum(w, 1e-300), -np.inf)
        batch = batch.append_column("_h", pa.array(key, pa.float64()))
        return batch.filter(pa.array(w > 0))

    out = grouped_topk(ds.map_batches(add_h, batch_format="pyarrow"),
                       [key_col], "_h", n, tie_cols=[id_col],
                       descending=weight_col is not None)

    def drop(batch: pa.Table) -> pa.Table:
        return batch.drop_columns(["_h"])

    return out.map_batches(drop, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# DSIR-style importance scoring (data selection)


def dsir_scores(ds: Dataset, target_values, group_col: str = "source",
                id_col: str = "doc_id", text_col: str = "text",
                feat_bits: int = 16, k: int = 2, seed: int = 137,
                lowercase: bool = True) -> Dataset:
    """Data Selection via Importance Resampling scores (Xie et al. 2023,
    "Data Selection for Language Models via Importance Resampling"):
    score raw documents by how target-like their hashed word-n-gram
    features are. The feature space is ``2^feat_bits`` buckets (top bits
    of the engine's chained word-k-gram hash); the target / raw bucket
    unigram models use Laplace-1/2 smoothing, so a document's score is

        sum_over_gram_occurrences [ ln(2 t[b]+1) - ln(2 r[b]+1) ]
        + n_feats * ( ln(2 R + B) - ln(2 T + B) )

    (t/r = per-bucket gram counts over target/raw docs, T/R their
    totals, B the bucket count — the log-likelihood ratio of the two
    smoothed models). Returns per doc: integer ``n_feats`` and
    ``n_target_heavy`` (gram occurrences whose bucket favors the target
    model — an exact-integer cross-multiply, SQL-oracle-able with zero
    float risk) plus the float ``dsir_score``.

    Scale shape: one stats pass emits per-batch nonzero (bucket,
    t, r) partials (bounded by 2^feat_bits rows per batch); the two
    dense count vectors (2^16 × 8 B = 512 KB each by default) broadcast
    once via ``ray.put``; scoring is a second stateless vectorized
    pass. No shuffle anywhere."""
    import ray

    from ocm_ray.engine.tokens import word_kgram_hashes

    B = 1 << feat_bits
    shift = U64(64 - feat_bits)
    tv = set(target_values)

    def bucket_partials(batch: pa.Table) -> pa.Table:
        g, rowid, _ = word_kgram_hashes(batch.column(text_col), k,
                                        lowercase, seed)
        grp = batch.column(group_col).to_numpy(zero_copy_only=False)
        is_t = np.isin(grp, list(tv))[rowid]
        b = (g >> shift).astype(np.int64)
        t = np.bincount(b[is_t], minlength=B)
        r = np.bincount(b[~is_t], minlength=B)
        nz = np.flatnonzero(t | r)
        return pa.table({"bucket": pa.array(nz),
                         "t": pa.array(t[nz]), "r": pa.array(r[nz])})

    # fold partials worker-side on the grouped_sum tree: the driver sees
    # one <= 2^feat_bits-row table, not O(n_batches) partial tables
    from ocm_ray.ops.agg import grouped_sum

    agg = grouped_sum(ds.map_batches(bucket_partials, batch_format="pyarrow"),
                      ["bucket"], ["t", "r"]).to_pandas()
    t_vec = np.zeros(B, np.int64)
    r_vec = np.zeros(B, np.int64)
    t_vec[agg["bucket"].to_numpy()] = agg["t"].to_numpy()
    r_vec[agg["bucket"].to_numpy()] = agg["r"].to_numpy()
    T, R = int(t_vec.sum()), int(r_vec.sum())
    const = float(np.log(2 * R + B) - np.log(2 * T + B))
    # target-heavy b <=> (2t+1)/(2T+B) > (2r+1)/(2R+B); cross-multiplied
    # ONCE per bucket in exact python ints (no int64 overflow at any
    # corpus size), then the boolean vector broadcasts with the counts
    lhs_mul, rhs_mul = 2 * R + B, 2 * T + B
    heavy_vec = np.fromiter(
        ((2 * int(t) + 1) * lhs_mul > (2 * int(r) + 1) * rhs_mul
         for t, r in zip(t_vec, r_vec)), dtype=bool, count=B)
    bc = ray.put((t_vec, r_vec, heavy_vec))

    def score(batch: pa.Table) -> pa.Table:
        t_v, r_v, heavy_v = ray.get(bc)
        g, rowid, nrows = word_kgram_hashes(batch.column(text_col), k,
                                            lowercase, seed)
        b = (g >> shift).astype(np.int64)
        n_feats = np.bincount(rowid, minlength=nrows).astype(np.int64)
        tb, rb = t_v[b], r_v[b]
        n_heavy = np.bincount(rowid, weights=heavy_v[b].astype(np.float64),
                              minlength=nrows).astype(np.int64)
        term = np.log(2 * tb + 1.0) - np.log(2 * rb + 1.0)
        sc = np.bincount(rowid, weights=term, minlength=nrows) \
            + n_feats * const
        return pa.table({
            id_col: batch.column(id_col),
            "n_feats": pa.array(n_feats),
            "n_target_heavy": pa.array(n_heavy),
            "dsir_score": pa.array(np.round(sc, 4)),
        })

    return ds.map_batches(score, batch_format="pyarrow")


def _row_keys(batch: pa.Table, id_col: str, seed: int) -> np.ndarray:
    """Deterministic uint64 shuffle key per row: the id through the
    stable codec (strings) or WangHash (ints), re-mixed with the epoch
    seed."""
    from ocm_ray.core.hashing import wanghash
    from ocm_ray.engine.tokens import hash_string_array

    col = batch.column(id_col)
    t = batch.schema.field(id_col).type
    if pa.types.is_integer(t):
        h = col.to_numpy(zero_copy_only=False).astype(U64)
    else:
        h = hash_string_array(col)
    return wanghash(h ^ wanghash(np.array([seed], dtype=U64))[0])


def epoch_shuffle(ds: Dataset, seed: int = 0, id_col: str = "doc_id",
                  n_shards: int = 64) -> Dataset:
    """Deterministic global shuffle for training epochs: rows are
    reordered by ``wanghash(row_key ^ mix(seed))`` — a full
    pseudo-random permutation that is a PURE FUNCTION of (ids, seed),
    so it is reproducible across runs, cluster sizes, and input
    partitionings (resume-friendly: re-running an epoch re-derives the
    identical order), and each epoch's ``seed`` gives an independent
    order.

    Why not ``Dataset.random_shuffle``: Ray's AllToAll shuffle executes
    partly on the driver and retains driver memory ~5x the shuffled
    bytes (CLAUDE.md rule 3b), and its order depends on the input
    partitioning. Here the exchange is the raw-task
    :func:`ocm_ray.ops.pairs.shard_scan` (driver holds ObjectRefs
    only): rows co-shard by the key's top bits — shard index IS the
    key's high bits, and :func:`shard_scan` emits shards in index
    order — and one vectorized argsort per shard orders the rest, so
    the output stream is globally ordered by shuffle key. Payload rides
    the exchange worker-side (output is corpus-sized by definition —
    consume it streaming or write it straight to parquet)."""
    from ocm_ray.ops.pairs import _shard_bits, shard_scan

    bits = _shard_bits(n_shards)

    def with_key(batch: pa.Table) -> pa.Table:
        keys = _row_keys(batch, id_col, seed)
        return batch.append_column("__shuffle_key",
                                   pa.array(keys.view(np.int64)))

    def shard_of(tbl: pa.Table) -> np.ndarray:
        k = tbl.column("__shuffle_key") \
            .to_numpy(zero_copy_only=False).view(U64)
        return (k >> U64(64 - bits)).astype(np.int32) if bits else \
            np.zeros(len(k), np.int32)

    def order_shard(tbl: pa.Table) -> pa.Table:
        k = tbl.column("__shuffle_key") \
            .to_numpy(zero_copy_only=False).view(U64)
        out = tbl.take(pa.array(np.argsort(k, kind="stable")))
        return out.drop_columns(["__shuffle_key"])

    keyed = ds.map_batches(with_key, batch_format="pyarrow")
    return shard_scan(keyed, shard_of, order_shard, n_shards)


def token_budget_sample(ds: Dataset, budgets: Dict[str, int],
                        group_col: str = "source",
                        weight_col: str = "n_tok",
                        id_col: str = "doc_id", seed: int = 137,
                        bucket_bits: int = 12,
                        default_keep: bool = True):
    """Deterministic per-group TOKEN-BUDGET sampling — the corpus-mixing
    knob stated in tokens, not fractions ("100M tokens of web, all of
    code"): keep the prefix of each group's docs in seeded-id-hash order
    whose ``weight_col`` sum first reaches the group's budget.

    Scale shape: one distributed pass bins each row's id hash into
    ``2^bucket_bits`` buckets and reduces per-(group, bucket) weight
    sums on the grouped-sum tree (bounded: groups x 4096 rows); the
    driver cumsums each group's bucket histogram to a cutoff bucket,
    broadcasts the cutoffs, and one stateless filter pass keeps rows
    with ``bucket <= cutoff``. Granularity: the achieved sum lands
    within ONE bucket's mass above the budget (~= group total /
    2^bucket_bits) — raise ``bucket_bits`` for finer landing. Membership
    is a pure function of (ids, seed): reproducible, partition- and
    cluster-size-invariant, and MONOTONE in the budget (a larger budget
    keeps a superset — stable ablation nests).

    Returns ``(filtered Dataset, summary)`` where summary maps group →
    ``{"budget", "achieved", "cutoff_bucket", "total"}`` (groups
    without a budget: kept whole when ``default_keep`` else dropped).
    """
    import pyarrow.compute as pc
    import ray

    from ocm_ray.ops.agg import grouped_sum

    nb = 1 << bucket_bits

    def bucket_of(batch: pa.Table) -> np.ndarray:
        u = _bucket01(batch, id_col, seed)
        return np.minimum((u * nb).astype(np.int64), nb - 1)

    def partials(batch: pa.Table) -> pa.Table:
        b = bucket_of(batch)
        g = batch.column(group_col).to_numpy(zero_copy_only=False)
        w = batch.column(weight_col).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        import pandas as pd

        df = pd.DataFrame({"g": g, "b": b, "w": w}) \
            .groupby(["g", "b"], sort=False, as_index=False)["w"].sum()
        # keep the group column's ORIGINAL dtype: coercing to str would
        # desync the histogram keys from the caller's budgets dict and
        # from the pc.index_in value_set in the filter pass
        return pa.table({group_col: pa.array(df["g"]),
                         "bucket": pa.array(df["b"].astype(np.int64)),
                         "w": pa.array(df["w"].astype(np.int64))})

    hist = grouped_sum(ds.map_batches(partials, batch_format="pyarrow"),
                       [group_col, "bucket"], ["w"]).to_pandas()

    cutoffs, summary = {}, {}
    for g, sub in hist.groupby(group_col):
        sub = sub.sort_values("bucket")
        total = int(sub["w"].sum())
        if g not in budgets:
            summary[g] = {"budget": None, "achieved": total if default_keep
                          else 0, "cutoff_bucket": nb - 1 if default_keep
                          else -1, "total": total}
            cutoffs[g] = nb - 1 if default_keep else -1
            continue
        budget = int(budgets[g])
        cum = sub["w"].cumsum()
        hit = cum[cum >= budget]
        cutoff = int(sub["bucket"].iloc[len(cum) - len(hit)]) if len(hit) \
            else nb - 1
        achieved = int(cum.iloc[len(cum) - len(hit)]) if len(hit) else total
        cutoffs[g] = cutoff
        summary[g] = {"budget": budget, "achieved": achieved,
                      "cutoff_bucket": cutoff, "total": total}
    ref = ray.put((list(cutoffs.keys()),
                   np.asarray(list(cutoffs.values()), dtype=np.int64)))
    fallback = nb - 1 if default_keep else -1

    def keep(batch: pa.Table) -> pa.Table:
        keys, cuts = ray.get(ref)
        b = bucket_of(batch)
        # vectorized group→cutoff: Arrow index_in against the broadcast
        # key list (same idiom as stratified_sample)
        idx = pc.index_in(batch.column(group_col),
                          value_set=pa.array(keys)) \
            .to_numpy(zero_copy_only=False)
        miss = np.isnan(idx.astype(np.float64)) if idx.dtype.kind == "f" \
            else (idx < 0)
        thr = np.where(miss, fallback,
                       cuts[np.where(miss, 0, idx).astype(np.int64)])
        return batch.filter(pa.array(b <= thr))

    return ds.map_batches(keep, batch_format="pyarrow"), summary


def _tier_thresholds(th, source_col: str, q_lo: float, q_hi: float):
    """Sorted-key threshold arrays from a grouped-quantiles pandas frame,
    built ONCE before the broadcast so per-batch lookup is a vectorized
    searchsorted, not a pandas object-dtype Series.map. A null source
    group (if any) is dropped — its rows take the unmatched -> "head"
    path in :func:`_tier_of`."""
    th = th[th[source_col].notna()]
    t_lo = th[th["q"] == q_lo].sort_values(source_col)
    t_hi = th[th["q"] == q_hi].set_index(source_col)
    keys = t_lo[source_col].to_numpy()
    lo_v = t_lo["logprob"].to_numpy(dtype=np.float64)
    hi_v = t_hi.loc[t_lo[source_col]]["logprob"].to_numpy(dtype=np.float64)
    return keys, lo_v, hi_v


def _tier_of(keys: np.ndarray, lo_v: np.ndarray, hi_v: np.ndarray,
             col, scores: np.ndarray) -> np.ndarray:
    """Vectorized head/middle/tail assignment for an Arrow source column
    against broadcast per-source thresholds. Unmatched or null source:
    NaN thresholds -> both compares false -> "head" (the exact semantics
    of the old dict-map path)."""
    import pyarrow.compute as pc

    src = col.to_numpy(zero_copy_only=False)
    v = pc.is_valid(col)
    if isinstance(col, pa.ChunkedArray):
        v = v.combine_chunks()
    valid = v.to_numpy(zero_copy_only=False)
    if not valid.all():
        # a null source can't be searchsorted against string keys
        src = np.where(valid, src, keys[0] if len(keys) else "")
    idx = np.minimum(np.searchsorted(keys, src), max(len(keys) - 1, 0))
    ok = ((keys[idx] == src) & valid if len(keys)
          else np.zeros(len(src), bool))
    lo = np.where(ok, lo_v[idx] if len(keys) else 0.0, np.nan)
    hi = np.where(ok, hi_v[idx] if len(keys) else 0.0, np.nan)
    return np.where(scores <= lo, "tail",
                    np.where(scores <= hi, "middle", "head"))


def perplexity_buckets(ds: Dataset, id_col: str = "doc_id",
                       text_col: str = "text", source_col: str = "source",
                       qs: tuple = (1 / 3, 2 / 3), ndigits: int = 4,
                       n_shards: int = 16) -> Dataset:
    """CCNet-style head/middle/tail bucketing (Wenzek et al. 2020 §4.3,
    the perplexity-tier data-selection stage): per-``source_col``
    quantile terciles of the corpus-trained unigram-LM mean log2-prob
    (``ops.text.unigram_logprob`` — the engine's fluency/perplexity
    proxy; HIGHER logprob = more fluent = ``head``).

    Three bounded stages: (1) LM scoring (vocab-table broadcast, two
    stateless passes); (2) exact per-source thresholds at ``qs`` via
    :func:`ocm_ray.ops.relational.grouped_quantiles` — ``quantile_disc``
    semantics over the rounded scores, so the bucket rule is
    SQL-mirrorable exactly; the exchange ships compact (source, score)
    pairs, never the corpus; (3) ONE ``ray.put`` of the sources-bounded
    threshold table + a stateless assignment pass.

    Returns ``(id_col, source_col, logprob, ppl_bucket)`` rows with
    ``ppl_bucket`` = ``tail`` if ``logprob <= q_lo``, ``middle`` if
    ``<= q_hi``, else ``head``.
    """
    import ray

    from ocm_ray.ops.relational import grouped_quantiles
    from ocm_ray.ops.text import unigram_logprob

    q_lo, q_hi = qs
    scored = unigram_logprob(ds, id_col=id_col, text_col=text_col,
                             ndigits=ndigits,
                             keep_cols=(source_col,)).materialize()
    th = grouped_quantiles(scored, source_col, "logprob", qs=list(qs),
                           n_shards=n_shards).to_pandas()
    ref = ray.put(_tier_thresholds(th, source_col, q_lo, q_hi))

    def assign(batch: pa.Table) -> pa.Table:
        keys, lo_v, hi_v = ray.get(ref)
        lp = batch.column("logprob").to_numpy(zero_copy_only=False)
        bucket = _tier_of(keys, lo_v, hi_v, batch.column(source_col), lp)
        return batch.append_column("ppl_bucket",
                                   pa.array(bucket.astype(object)))

    return scored.map_batches(assign, batch_format="pyarrow")


def perplexity_tier_filter(ds: Dataset, tiers=("head", "middle"),
                           text_col: str = "text",
                           source_col: str = "source",
                           qs: tuple = (1 / 3, 2 / 3), ndigits: int = 4,
                           n_shards: int = 16) -> Dataset:
    """Apply the CCNet selection policy: KEEP only rows whose
    :func:`perplexity_buckets` tier is in ``tiers`` (CCNet trains on
    head+middle and drops the tail). All input columns pass through.

    Scale shape: the threshold discovery is exactly
    :func:`perplexity_buckets`'s (compact (source, score) exchange);
    the filter is ONE additional stateless pass that RE-SCORES each
    batch against the broadcast LM table and compares to the broadcast
    per-source thresholds — no corpus-sized id broadcast, no join, no
    shuffle of the payload."""
    import ray

    from ocm_ray.ops.relational import grouped_quantiles
    from ocm_ray.ops.text import (token_count_table, unigram_logprob,
                                  unigram_score_kernel)

    keep = frozenset(tiers)
    bad = keep - {"head", "middle", "tail"}
    if bad:
        raise ValueError(f"unknown tiers: {sorted(bad)}")
    q_lo, q_hi = qs

    counts = token_count_table(ds, text_col).to_pandas()
    scored = unigram_logprob(ds, id_col=source_col, text_col=text_col,
                             ndigits=ndigits, counts=counts)
    # (id_col=source_col: the quantile stage only needs (source, score))
    th = grouped_quantiles(scored, source_col, "logprob", qs=list(qs),
                           n_shards=n_shards).to_pandas()

    # the SAME scoring kernel unigram_logprob used (shared closure, not
    # a copy), so the filter's re-score reproduces the rounded values
    # bit-for-bit by construction
    score_values = unigram_score_kernel(counts, text_col, ndigits)
    th_ref = ray.put(_tier_thresholds(th, source_col, q_lo, q_hi))

    def keep_rows(batch: pa.Table) -> pa.Table:
        keys, lo_v, hi_v = ray.get(th_ref)
        score = score_values(batch)
        tier = _tier_of(keys, lo_v, hi_v, batch.column(source_col), score)
        mask = np.isin(tier, list(keep))
        return batch.filter(pa.array(mask))

    return ds.map_batches(keep_rows, batch_format="pyarrow")
