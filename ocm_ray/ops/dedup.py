"""Deduplication operators for training-data pipelines.

Five dedup modes, each expressed Ray-Data-first:

* exact        — content-hash groupby, keep min id (SQL-oracled in
                 ``__ray_entry__.dedup_exact``);
* MinHash-LSH  — shingle → minhash signature → banded bucketing →
                 candidate pairs → signature-Jaccard verify. The banding
                 shuffle moves only (band, hash, id) triples, never text;
* n-gram Jaccard — exact set-overlap verification of candidate pairs
                 (broadcast shingle sets at test scale; per-bucket joins
                 at cluster scale);
* SimHash      — 64-bit fingerprints, near-dups via Hamming banding;
* embedding    — cosine near-dup pairs via hyperplane-LSH buckets (or
                 brute force at small scale).

All signature math is vectorized numpy over exploded shingle arrays with
``np.minimum.reduceat`` segment reductions — no per-document Python in
the hot path.
"""

from __future__ import annotations

import os
from typing import List, Tuple

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
from ray.data import Dataset

from ocm_ray.core.hashing import derive_seeds, wanghash
from ocm_ray.engine.tokens import _one_array

U64 = np.uint64


# ---------------------------------------------------------------------------
# shingling + signatures


def _word_shingles(texts, k: int = 3) -> Tuple[np.ndarray, np.ndarray]:
    """(flat shingle hashes, per-doc lengths): k-word shingles hashed to
    uint64 via chained WangHash over stable-hashed lowercase words
    (``texts`` may be a Python list or an Arrow string array)."""
    from ocm_ray.engine.tokens import split_words_hashed

    arr = texts if isinstance(texts, (pa.Array, pa.ChunkedArray)) else pa.array(texts)
    flat, lens = split_words_hashed(arr)
    if k <= 1:
        return flat, lens
    n = len(flat)
    if n < k:
        return np.empty(0, U64), np.zeros(len(texts), np.int64)
    win = np.lib.stride_tricks.sliding_window_view(flat, k)
    acc = wanghash(win[:, 0])
    for j in range(1, k):
        acc = wanghash(acc ^ win[:, j])
    rowid = np.repeat(np.arange(len(lens)), lens)
    valid = rowid[: n - k + 1] == rowid[k - 1:]
    out_lens = np.maximum(lens - k + 1, 0)
    return acc[valid], out_lens


def minhash_signatures(texts: List[str], num_perm: int = 128,
                       shingle_k: int = 3, seedseed: int = 137) -> np.ndarray:
    """(n_docs, num_perm) uint64 minhash signature matrix, fully
    vectorized: one wanghash + segment-min per permutation."""
    flat, lens = _word_shingles(texts, shingle_k)
    n_docs = len(lens)
    seeds = derive_seeds(num_perm, seedseed)
    sig = np.full((n_docs, num_perm), np.iinfo(np.uint64).max, dtype=U64)
    nonempty = lens > 0
    if flat.size == 0:
        return sig
    starts = np.concatenate([[0], np.cumsum(lens)])[:-1][nonempty].astype(np.int64)
    rows_out = np.flatnonzero(nonempty)
    # one (shingles × num_perm) hash matrix + a single axis-0 segment-min:
    # ~100x fewer numpy dispatches than a per-permutation loop. Chunk
    # boundaries are chosen by SHINGLE count (not doc count — doc counts
    # say nothing about matrix size) so the matrix stays ~4 MB: the hash
    # makes ~10 full passes over it, and a chunk that fits L2/L3 cache
    # turns those passes cache-resident (measured 6x: 4096-shingle
    # chunks at 757k shingle-hashes/s/core vs 57k at 32768 chunks;
    # oversized matrices additionally thrash the allocator pool-wide).
    max_shingles = max(1, (1 << 19) // num_perm)
    lo = 0
    while lo < len(starts):
        s0 = starts[lo]
        limit = s0 + max_shingles
        hi = int(np.searchsorted(starts, limit, side="right"))
        hi = max(hi, lo + 1)
        s1 = starts[hi] if hi < len(starts) else len(flat)
        h = wanghash(flat[s0:s1, None] ^ seeds[None, :])
        seg = starts[lo:hi] - s0
        sig[rows_out[lo:hi]] = np.minimum.reduceat(h, seg, axis=0)
        lo = hi
    return sig


def signature_jaccard(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Estimated Jaccard from matching minhash components (row-wise)."""
    return (a == b).mean(axis=-1)


# ---------------------------------------------------------------------------
# MinHash-LSH near-dup pairs


def _band_keys(sig: np.ndarray, bands: int) -> np.ndarray:
    """(n, bands) wang-mixed bucket keys from a (n, num_perm) signature
    matrix: chain-hash each band's rows, mix in the band index so one
    flat key space holds all bands."""
    n, num_perm = sig.shape
    rows_per_band = num_perm // bands
    band_view = sig.reshape(n, bands, rows_per_band)
    bh = band_view[:, :, 0].copy()
    for j in range(1, rows_per_band):
        bh = wanghash(bh ^ band_view[:, :, j])
    return wanghash(bh ^ (np.arange(bands, dtype=U64)[None, :] << U64(48)))


def minhash_lsh_pairs(ds: Dataset, id_col: str = "doc_id",
                      text_col: str = "text", num_perm: int = 128,
                      bands: int = 32, shingle_k: int = 3,
                      threshold: float = 0.8,
                      seedseed: int = 137, n_shards: int = 64,
                      max_bucket=None, local=None,
                      local_threshold: int = 50_000,
                      signature_cache_dir=None) -> pd.DataFrame:
    """Near-duplicate pairs with estimated Jaccard ≥ threshold.

    Signatures are always computed distributed (one fixed-size-list row
    per doc, pinned in the object store). Pair finding auto-dispatches by
    corpus size (the broadcast-vs-shuffle selection a join planner makes):

    * ≤ ``local_threshold`` docs (default 50k ⇒ ≤ ~50 MB of signatures):
      collect the signature matrix and run the band scan in-process —
      the shard shuffle's fixed cost dominates at this size;
    * larger: compact band-table Dataset (16 B per (doc, band)) →
      ``ops.pairs`` key-prefix shard shuffle + per-shard vectorized run
      scan → candidate pairs → signature-Jaccard verify against the
      candidate signatures only (broadcast-id fetch). Driver memory is
      bounded by the candidate/output set — never by the corpus.

    ``local=True/False`` forces a path (tests prove both emit identical
    pairs at 8 partitions). ``signature_cache_dir`` persists the
    signature table as Parquet on first use and reuses it on every later
    call/restart — the resumable form (recomputing signatures is the
    expensive half of the pipeline; the cache also survives process
    death, unlike the object-store pin).
    """
    assert num_perm % bands == 0

    from ocm_ray.ops.pairs import (collect_unique_pairs, collision_pairs,
                                   lookup_rows_for_ids)

    def compute_sigs(batch: pa.Table) -> pa.Table:
        sig = minhash_signatures(batch.column(text_col), num_perm,
                                 shingle_k, seedseed)
        col = pa.FixedSizeListArray.from_arrays(
            pa.array(sig.ravel().view(np.int64)), num_perm)
        return pa.table({id_col: batch.column(id_col), "sig": col})

    if signature_cache_dir is not None:
        import json as _json
        import os as _os

        import ray.data as _rd

        meta_path = _os.path.join(signature_cache_dir, "_sig_meta.json")
        want = dict(num_perm=num_perm, shingle_k=shingle_k,
                    seedseed=seedseed, id_col=id_col)
        if _os.path.exists(meta_path):
            with open(meta_path) as f:
                have = _json.load(f)
            assert have == want, (
                f"signature cache {signature_cache_dir} was built with "
                f"{have}, requested {want} — use a fresh directory")
        else:
            # build-then-RENAME so the cache only ever appears complete:
            # a crash mid-write used to leave meta-less parquet that a
            # retry APPENDED to (2 sig rows per doc -> self-pairs). A
            # meta-less final dir from such an old crash is stale by
            # definition — rebuild it.
            import shutil as _shutil

            if _os.path.isdir(signature_cache_dir) \
                    and _os.listdir(signature_cache_dir):
                _shutil.rmtree(signature_cache_dir)
            tmp = signature_cache_dir.rstrip("/") + ".building"
            if _os.path.isdir(tmp):
                _shutil.rmtree(tmp)
            ds.map_batches(compute_sigs, batch_format="pyarrow") \
                .write_parquet(tmp)
            with open(_os.path.join(tmp, "_sig_meta.json"), "w") as f:
                _json.dump(want, f)
            _os.rename(tmp, signature_cache_dir)
        # consumers re-read the Parquet cache (row-count via metadata is
        # free; no object-store pin needed — the disk copy IS the reuse)
        sig_ds = _rd.read_parquet(signature_cache_dir)
    else:
        # signatures computed once, pinned distributed (1 KB/doc;
        # consumed by both the band stage and the candidate lookup)
        sig_ds = ds.map_batches(compute_sigs, batch_format="pyarrow").materialize()
    if local is None:
        local = sig_ds.count() <= local_threshold
    if local:
        tabs = [t for t in ray.get(sig_ds.to_arrow_refs())
                if t.num_rows]           # schema-less empties (rule 8b)
        if not tabs:
            return pd.DataFrame({"a": [], "b": [], "jaccard": []})
        sig_tbl = pa.concat_tables(tabs)
        ids_all = sig_tbl.column(id_col).to_numpy(zero_copy_only=False)
        sig_all = (sig_tbl.column("sig").combine_chunks().flatten()
                   .to_numpy(zero_copy_only=False).view(U64)
                   .reshape(len(ids_all), num_perm))
        return _pairs_from_sig_matrix(ids_all, sig_all, bands, threshold,
                                      max_bucket=max_bucket)

    def to_bands(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:     # may arrive schema-less (rule 8b)
            return pa.table({})
        n = batch.num_rows
        sig = (_one_array(batch.column("sig")).flatten()
               .to_numpy(zero_copy_only=False).view(U64).reshape(n, num_perm))
        live = _live_signature_rows(sig)
        keys = _band_keys(sig[live], bands)
        ids = _one_array(batch.column(id_col))
        rep = ids.take(pa.array(np.repeat(np.flatnonzero(live), bands)))
        return pa.table({"key": pa.array(keys.ravel().view(np.int64)),
                         "id": rep})

    band_ds = sig_ds.map_batches(to_bands, batch_format="pyarrow")
    cand = collect_unique_pairs(
        collision_pairs(band_ds, n_shards, max_bucket=max_bucket))
    if len(cand) == 0:
        return pd.DataFrame({"a": [], "b": [], "jaccard": []})

    ids_needed = np.unique(np.concatenate([cand["a"].to_numpy(),
                                           cand["b"].to_numpy()]))
    sig_tbl = lookup_rows_for_ids(sig_ds, ids_needed, id_col)
    ids_have = sig_tbl.column(id_col).to_numpy(zero_copy_only=False)
    order = np.argsort(ids_have, kind="stable")
    sig_have = (sig_tbl.column("sig").combine_chunks().flatten()
                .to_numpy(zero_copy_only=False).view(U64)
                .reshape(len(ids_have), num_perm))[order]
    ids_sorted = ids_have[order]
    ai = np.searchsorted(ids_sorted, cand["a"].to_numpy())
    bi = np.searchsorted(ids_sorted, cand["b"].to_numpy())
    jac = signature_jaccard(sig_have[ai], sig_have[bi])
    keep = jac >= threshold
    out = cand.loc[keep].copy()
    out["jaccard"] = jac[keep]
    return out.sort_values(["a", "b"]).reset_index(drop=True)


def _live_signature_rows(sig: np.ndarray) -> np.ndarray:
    """Mask of rows that actually received shingles. A doc shorter than
    ``shingle_k`` words keeps the all-UINT64MAX init sentinel — banding
    it would make every such doc a mutual jaccard-1.0 "duplicate" of the
    others (and a mega-bucket). No shingles ⇒ no shingle-Jaccard ⇒ never
    paired. Two columns checked so a real doc misflags only at ~2^-128."""
    mx = np.iinfo(U64).max
    live = sig[:, 0] != mx
    if sig.shape[1] > 1:
        live |= sig[:, 1] != mx
    return live


def _pairs_from_sig_matrix(ids_all: np.ndarray, sig_all: np.ndarray,
                           bands: int, threshold: float,
                           max_bucket=None) -> pd.DataFrame:
    """In-process band scan + verify over a collected signature matrix —
    identical banding/scan semantics to the sharded path (tests prove it,
    including the ``max_bucket`` degenerate-bucket cap);
    used below the size threshold where the shuffle's fixed cost loses."""
    live = _live_signature_rows(sig_all)
    ids_all, sig_all = ids_all[live], sig_all[live]
    if len(ids_all) == 0:
        return pd.DataFrame({"a": [], "b": [], "jaccard": []})
    key = _band_keys(sig_all, bands).ravel()
    rows = np.repeat(np.arange(len(ids_all), dtype=np.int64), bands)
    from ocm_ray.ops.pairs import _scan_runs

    ii, jj = _scan_runs(key, max_bucket)
    if len(ii) == 0:
        return pd.DataFrame({"a": [], "b": [], "jaccard": []})
    a_rows, b_rows = rows[ii], rows[jj]
    swap = a_rows > b_rows
    a_rows, b_rows = np.where(swap, b_rows, a_rows), np.where(swap, a_rows, b_rows)
    uniq = np.unique(a_rows << np.int64(32) | b_rows)
    a_rows = (uniq >> np.int64(32)).astype(np.int64)
    b_rows = (uniq & np.int64(0xFFFFFFFF)).astype(np.int64)
    jac = signature_jaccard(sig_all[a_rows], sig_all[b_rows])
    keep = jac >= threshold
    out = pd.DataFrame({"a": ids_all[a_rows[keep]], "b": ids_all[b_rows[keep]],
                        "jaccard": jac[keep]})
    sw = out["a"] > out["b"]
    out.loc[sw, ["a", "b"]] = out.loc[sw, ["b", "a"]].values
    return (out.sort_values(["a", "b"]).drop_duplicates(["a", "b"])
            .reset_index(drop=True))


def _distinct_doc_shingles(batch: pa.Table, id_col: str, text_col: str,
                           shingle_k: int):
    """Per-doc DISTINCT shingle hashes for one batch: (rowid, hash)
    arrays + per-doc distinct counts — all lexsort/bincount, no Python
    rows."""
    flat, lens = _word_shingles(batch.column(text_col), shingle_k)
    n = batch.num_rows
    rowid = np.repeat(np.arange(n, dtype=np.int64), lens)
    order = np.lexsort((flat, rowid))
    rs, fs = rowid[order], flat[order]
    if len(rs):
        keep = np.concatenate([[True], (rs[1:] != rs[:-1]) | (fs[1:] != fs[:-1])])
        rs, fs = rs[keep], fs[keep]
    sizes = np.bincount(rs, minlength=n).astype(np.int64)
    return rs, fs, sizes


def exact_jaccard_pairs(ds: Dataset, id_col: str = "doc_id",
                        text_col: str = "text", shingle_k: int = 3,
                        threshold: float = 0.5, n_shards: int = 64,
                        max_bucket=None) -> pd.DataFrame:
    """EXACT n-gram (word-shingle) Jaccard pairs ≥ threshold, fully
    distributed and SQL-equivalent (the DuckDB oracle joins the distinct
    shingle-string sets; the engine joins their 64-bit stable hashes —
    identical up to negligible hash collisions).

    Shape: per-batch distinct-shingle explode (16 B/row, hashes only —
    text never moves) → ``ops.pairs`` shard shuffle; a pair of docs is
    emitted once per SHARED shingle, so a native ``groupby(a,b).count``
    yields |A∩B| — then Jaccard = c / (|A| + |B| − c) with per-doc set
    sizes computed shuffle-free in a second text scan and fetched for
    candidate ids only. Cost is inherently quadratic in shingle-bucket
    size (this is the exact algorithm; ``max_bucket`` caps pathological
    stop-shingle buckets at scale, default exact/uncapped)."""
    from ocm_ray.ops.pairs import collision_pairs, lookup_rows_for_ids

    def shingle_rows(batch: pa.Table) -> pa.Table:
        rs, fs, _ = _distinct_doc_shingles(batch, id_col, text_col, shingle_k)
        ids = _one_array(batch.column(id_col))
        return pa.table({"key": pa.array(fs.view(np.int64)),
                         "id": ids.take(pa.array(rs))})

    shingle_ds = ds.map_batches(shingle_rows, batch_format="pyarrow")
    cand_ds = collision_pairs(shingle_ds, n_shards, max_bucket=max_bucket)
    # pair-emission counting via the grouped_sum block fold:
    # Ray's sort-based groupby().aggregate costs a fixed ~200 MB of
    # driver RSS plus ~5x the (emission-sized) shuffled bytes
    from ocm_ray.ops.agg import grouped_sum

    def add_one(t: pa.Table) -> pa.Table:
        return t.append_column("c", pa.array(np.ones(t.num_rows, np.int64)))

    inter = grouped_sum(cand_ds.map_batches(add_one, batch_format="pyarrow"),
                        ["a", "b"], ["c"]) \
        .to_pandas()  # one row per candidate pair — output-sized
    if len(inter) == 0:
        return pd.DataFrame({"a": [], "b": [], "jaccard": []})

    def size_rows(batch: pa.Table) -> pa.Table:
        _, _, sizes = _distinct_doc_shingles(batch, id_col, text_col, shingle_k)
        return pa.table({id_col: batch.column(id_col),
                         "n_shingles": pa.array(sizes)})

    sizes_ds = ds.map_batches(size_rows, batch_format="pyarrow")
    ids_needed = np.unique(np.concatenate([inter["a"].to_numpy(),
                                           inter["b"].to_numpy()]))
    st = lookup_rows_for_ids(sizes_ds, ids_needed, id_col)
    sid = st.column(id_col).to_numpy(zero_copy_only=False)
    order = np.argsort(sid, kind="stable")
    sid, sn = sid[order], st.column("n_shingles").to_numpy(
        zero_copy_only=False)[order]
    sa = sn[np.searchsorted(sid, inter["a"].to_numpy())]
    sb = sn[np.searchsorted(sid, inter["b"].to_numpy())]
    c = inter["c"].to_numpy().astype(np.int64)
    jac = c / (sa + sb - c)
    keep = jac >= threshold
    out = inter.loc[keep, ["a", "b"]].copy()
    out["jaccard"] = jac[keep]
    return out.sort_values(["a", "b"]).reset_index(drop=True)


def ngram_jaccard_verify(pairs: pd.DataFrame, docs: pd.DataFrame,
                         id_col: str = "doc_id", text_col: str = "text",
                         shingle_k: int = 3) -> pd.DataFrame:
    """EXACT n-gram Jaccard for candidate pairs (the verify stage after
    LSH). ``docs`` is the id→text table for the candidate ids only —
    broadcastable because candidates are a tiny fraction of the corpus.
    (For corpus-wide exact Jaccard use the distributed
    :func:`exact_jaccard_pairs`; this is the in-memory variant for an
    already-materialized candidate set.)

    Vectorized end to end: distinct (doc, shingle-hash) rows → pandas
    self-merge on the hash (C kernels) → per-pair co-occurrence counts;
    no Python loop over pairs or per-doc ``set`` objects."""
    if len(pairs) == 0:
        out = pairs.copy()
        out["jaccard_exact"] = np.empty(0, dtype=np.float64)
        return out
    batch = pa.table({id_col: pa.array(docs[id_col]),
                      text_col: pa.array(docs[text_col])})
    rs, fs, sizes = _distinct_doc_shingles(batch, id_col, text_col, shingle_k)
    ids = docs[id_col].to_numpy()
    t = pd.DataFrame({"id": ids[rs], "sh": fs.view(np.int64)})
    m = t.merge(t, on="sh")
    m = m[m["id_x"] != m["id_y"]]
    cnt = m.groupby(["id_x", "id_y"]).size()  # symmetric: both orders
    key = pd.MultiIndex.from_arrays([pairs["a"], pairs["b"]])
    c = cnt.reindex(key, fill_value=0).to_numpy().astype(np.int64)
    size_of = pd.Series(sizes, index=ids)
    sa = size_of.loc[pairs["a"]].to_numpy()
    sb = size_of.loc[pairs["b"]].to_numpy()
    u = sa + sb - c
    out = pairs.copy()
    out["jaccard_exact"] = np.where(u > 0, c / np.maximum(u, 1), 1.0)
    return out


# ---------------------------------------------------------------------------
# SimHash


def simhash_fingerprints(ds: Dataset, id_col: str = "doc_id",
                         text_col: str = "text") -> Dataset:
    """64-bit SimHash per document: sign-sum of token-hash bit vectors.
    Near-dup docs differ in few bits (Hamming)."""
    def fp(batch: pa.Table) -> pa.Table:
        from ocm_ray.engine.tokens import split_words_hashed

        flat, lens = split_words_hashed(batch.column(text_col))
        n = len(lens)
        bounds = np.concatenate([[0], np.cumsum(lens)]).astype(np.int64)
        acc = np.zeros((n, 64), dtype=np.int64)
        shifts = np.arange(64, dtype=U64)
        # word-count chunking keeps the ±1 bit matrix ~8 MB however large
        # the batch; doc-count-blind chunking thrashes the allocator
        # across a worker pool — same lesson as the minhash signature
        # kernel. int32 accumulation: a single doc can exceed 32k words
        # (a chunk holds at least ONE doc however long), and a spammy
        # repeated-token doc would silently wrap int16 and flip bits.
        max_words = 1 << 15
        lo = 0
        while lo < n:
            s0 = bounds[lo]
            hi = int(np.searchsorted(bounds[1:], s0 + max_words, side="left")) + 1
            hi = min(max(hi, lo + 1), n)
            s1 = bounds[hi]
            if s1 > s0:
                w = flat[s0:s1]
                bits = (((w[:, None] >> shifts) & U64(1)).astype(np.int32)
                        * 2 - 1)
                seg_docs = np.arange(lo, hi)[lens[lo:hi] > 0]
                if len(seg_docs):
                    seg = bounds[seg_docs] - s0
                    acc[seg_docs] = np.add.reduceat(bits, seg, axis=0)
            lo = hi
        fp_bits = (acc > 0).astype(np.uint64)
        fps = (fp_bits << shifts).sum(axis=1, dtype=np.uint64)
        return pa.table({id_col: batch.column(id_col),
                         "simhash": pa.array(fps.astype(np.int64))})

    return ds.map_batches(fp, batch_format="pyarrow")


def _popcount64(x: np.ndarray) -> np.ndarray:
    from ocm_ray.core.hashing import popcount64

    return popcount64(np.ascontiguousarray(x).astype(np.uint64, copy=False))


def simhash_pairs(ds: Dataset, id_col: str = "doc_id", text_col: str = "text",
                  max_hamming: int = 3, n_shards: int = 64,
                  max_bucket=None, local=None,
                  local_threshold: int = 500_000) -> pd.DataFrame:
    """Near-dup pairs by SimHash banding: fingerprints agreeing on one of
    4 16-bit bands are candidates; exact Hamming distance verified on the
    candidates. Size-dispatched like :func:`minhash_lsh_pairs`
    (fingerprints are 8 B/doc, so the in-process scan stays cheap to
    ~500k docs); the distributed path shuffles a 16 B/row band table via
    ``ops.pairs`` and fetches only candidate fingerprints — driver
    memory output-bounded."""
    from ocm_ray.ops.pairs import (_scan_runs, collect_unique_pairs,
                                   collision_pairs, lookup_rows_for_ids)

    fp_ds = simhash_fingerprints(ds, id_col, text_col).materialize()
    if local is None:
        local = fp_ds.count() <= local_threshold
    if local:
        tabs = [t for t in ray.get(fp_ds.to_arrow_refs())
                if t.num_rows]           # schema-less empties (rule 8b)
        if not tabs:
            return pd.DataFrame({"a": [], "b": [], "hamming": []})
        fp_tbl = pa.concat_tables(tabs)
        ids = fp_tbl.column(id_col).to_numpy(zero_copy_only=False)
        h = fp_tbl.column("simhash").to_numpy(zero_copy_only=False).view(U64)
        keys = np.empty((len(h), 4), dtype=U64)
        for band in range(4):
            frag = (h >> U64(band * 16)) & U64(0xFFFF)
            keys[:, band] = wanghash(frag | (U64(band) << U64(16)))
        rows = np.repeat(np.arange(len(h), dtype=np.int64), 4)
        ii, jj = _scan_runs(keys.ravel(), max_bucket)
        if len(ii) == 0:
            return pd.DataFrame({"a": [], "b": [], "hamming": []})
        ai, bi = rows[ii], rows[jj]
        swap = ids[ai] > ids[bi]
        ai, bi = np.where(swap, bi, ai), np.where(swap, ai, bi)
        d = _popcount64(h[ai] ^ h[bi])
        keep = d <= max_hamming
        out = pd.DataFrame({"a": ids[ai[keep]], "b": ids[bi[keep]],
                            "hamming": d[keep]})
        return (out.drop_duplicates(["a", "b"]).sort_values(["a", "b"])
                .reset_index(drop=True))

    def to_bands(batch: pa.Table) -> pa.Table:
        h = batch.column("simhash").to_numpy(zero_copy_only=False).view(U64)
        n = len(h)
        keys = np.empty((n, 4), dtype=U64)
        for band in range(4):
            frag = (h >> U64(band * 16)) & U64(0xFFFF)
            keys[:, band] = wanghash(frag | (U64(band) << U64(16)))
        ids = _one_array(batch.column(id_col))
        rep = ids.take(pa.array(np.repeat(np.arange(n, dtype=np.int64), 4)))
        return pa.table({"key": pa.array(keys.ravel().view(np.int64)),
                         "id": rep})

    band_ds = fp_ds.map_batches(to_bands, batch_format="pyarrow")
    cand = collect_unique_pairs(
        collision_pairs(band_ds, n_shards, max_bucket=max_bucket))
    if len(cand) == 0:
        return pd.DataFrame({"a": [], "b": [], "hamming": []})

    ids_needed = np.unique(np.concatenate([cand["a"].to_numpy(),
                                           cand["b"].to_numpy()]))
    fp_tbl = lookup_rows_for_ids(fp_ds, ids_needed, id_col)
    ids_have = fp_tbl.column(id_col).to_numpy(zero_copy_only=False)
    order = np.argsort(ids_have, kind="stable")
    h_have = (fp_tbl.column("simhash").to_numpy(zero_copy_only=False)
              .view(U64))[order]
    ids_sorted = ids_have[order]
    ai = np.searchsorted(ids_sorted, cand["a"].to_numpy())
    bi = np.searchsorted(ids_sorted, cand["b"].to_numpy())
    d = _popcount64(h_have[ai] ^ h_have[bi])
    keep = d <= max_hamming
    out = cand.loc[keep].copy()
    out["hamming"] = d[keep]
    return out.sort_values(["a", "b"]).reset_index(drop=True)


# ---------------------------------------------------------------------------
# embedding near-dup


def embedding_dup_pairs(ds: Dataset, threshold: float = 0.95,
                        id_col: str = "vec_id", emb_col: str = "embedding",
                        bits: int = 0, seedseed: int = 137) -> pd.DataFrame:
    """Pairs with cosine similarity ≥ threshold.

    ``bits=0`` → brute force (batch × corpus matmul against a broadcast
    normalized matrix — exact, fine to ~10^5 vectors). ``bits>0`` →
    hyperplane-LSH bucketing first: only intra-bucket (±1-bit probe)
    pairs are scored, the 100 TB path."""
    from ocm_ray.ops.similarity import _embedding_matrix, _normalize, add_lsh_bucket

    if bits:
        # 2^bits buckets, exchanged worker-to-worker via the raw-task
        # shard_scan (shard == bucket): each bucket is scored by one
        # vectorized matmul inside its task — nothing corpus-sized on
        # the driver (Ray's groupby/map_groups AllToAll retains driver
        # memory ∝ shuffled bytes, see ops/pairs.shard_scan)
        from ocm_ray.ops.pairs import shard_scan

        bucketed = add_lsh_bucket(ds, dim=len(ds.take(1)[0][emb_col]),
                                  bits=bits, emb_col=emb_col, seedseed=seedseed)

        def bucket_of(tbl: pa.Table) -> np.ndarray:
            return tbl.column("bucket").to_numpy(zero_copy_only=False) \
                .astype(np.int32)

        def score_bucket(group: pa.Table) -> pa.Table:
            if group.num_rows == 0:
                # slice keeps the id TYPE — pa.array on an empty object
                # array infers null type, which conflicts with populated
                # shards' string/int blocks at schema unification
                empty_ids = group.column(id_col).slice(0, 0)
                return pa.table({"a": empty_ids, "b": empty_ids,
                                 "sim": pa.array([], pa.float64())})
            ids = group.column(id_col).to_numpy(zero_copy_only=False)
            m = _normalize(_embedding_matrix(group, emb_col))
            sims = m @ m.T
            ii, jj = np.where(np.triu(sims >= threshold, k=1))
            a, b = ids[ii], ids[jj]
            swap = a > b
            a, b = np.where(swap, b, a), np.where(swap, a, b)
            return pa.table({"a": pa.array(a), "b": pa.array(b),
                             "sim": pa.array(sims[ii, jj])})

        out = shard_scan(bucketed, bucket_of, score_bucket,
                         n_shards=1 << bits).to_pandas()
        if len(out) == 0:
            return pd.DataFrame({"a": [], "b": [], "sim": []})
        return (out.drop_duplicates(["a", "b"]).sort_values(["a", "b"])
                .reset_index(drop=True))

    # brute force: broadcast the whole normalized matrix once (inherent to
    # exact all-pairs). Assembled IN A WORKER TASK from the block refs —
    # the driver only ever holds the ObjectRef, never the matrix.
    @ray.remote(num_cpus=1)
    def _assemble(*tables):
        tables = [t for t in tables if t.num_rows]
        ids = np.concatenate(
            [t.column(id_col).to_numpy(zero_copy_only=False) for t in tables])
        m = _normalize(np.vstack([_embedding_matrix(t, emb_col)
                                  for t in tables]))
        return ids, m

    ref = _assemble.remote(*ds.to_arrow_refs())

    def score(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:     # may arrive schema-less (rule 8b)
            return pa.table({})
        ids_a, m_a = ray.get(ref) if isinstance(ref, ray.ObjectRef) else ref
        m = _normalize(_embedding_matrix(batch, emb_col))
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        sims = m @ m_a.T
        ii, jj = np.where(sims >= threshold)
        keep = ids[ii] < ids_a[jj]  # dedup + drop self-pairs
        return pa.table({"a": pa.array(ids[ii][keep]),
                         "b": pa.array(ids_a[jj][keep]),
                         "sim": pa.array(sims[ii, jj][keep])})

    out = ds.map_batches(score, batch_format="pyarrow").to_pandas()
    return out.sort_values(["a", "b"]).reset_index(drop=True)


def add_content_hash(ds: Dataset, id_col: str = "doc_id",
                     text_col: str = "text",
                     tokens_col: str = None) -> Dataset:
    """(id, content_hash) — the 64-bit stable content key the exact-dedup
    shuffle groups on (the raw content never moves). ``tokens_col``
    switches to sequence identity: the stable byte hash of the row's
    raw ``int32`` token buffer (two token lists collide iff their id
    sequences are identical, absent 64-bit collisions) — exact
    SEQUENCE-level dedup for the pre-tokenized north-rule table."""
    def hash_col(batch: pa.Table) -> pa.Table:
        h = add_content_hash_batch(batch, text_col,
                                   tokens_col).astype(np.int64)
        return pa.table({id_col: batch.column(id_col),
                         "content_hash": pa.array(h)})

    return ds.map_batches(hash_col, batch_format="pyarrow")


def exact_dedup_groups(ds: Dataset, id_col: str = "doc_id",
                       text_col: str = "text",
                       n_shards: int = 64,
                       tokens_col: str = None) -> Dataset:
    """(content_hash, id, n_copies) per distinct content.

    Content hashes are NEAR-UNIQUE keys, so any native Ray groupby form
    is wrong here twice over: ``map_groups`` costs ~1 ms/group
    (CLAUDE.md rule 3) and the AllToAll shuffle retains driver memory
    ∝ the corpus-sized (hash, id) table (rule 3b). Instead: raw-task
    :func:`ocm_ray.ops.pairs.shard_scan` exchange by hash prefix (every
    copy of a content lands in one shard), then ONE Arrow sort +
    vectorized run scan per shard — min id = first row of each (hash,
    id)-sorted run, n_copies = run length. Output stays a distributed
    Dataset (one block per shard); the driver holds only ObjectRefs."""
    import pyarrow.compute as _pc

    from ocm_ray.ops.pairs import _shard_bits, shard_scan

    bits = _shard_bits(n_shards)

    def shard_of(tbl: pa.Table) -> np.ndarray:
        h = tbl.column("content_hash").to_numpy(zero_copy_only=False).view(U64)
        return (h >> U64(64 - bits)).astype(np.int32) if bits else \
            np.zeros(len(h), np.int32)

    def scan(tbl: pa.Table) -> pa.Table:
        if tbl.num_rows == 0:
            return pa.table({"content_hash": tbl.column("content_hash"),
                             id_col: tbl.column(id_col),
                             "n_copies": pa.array([], pa.int64())})
        idx = _pc.sort_indices(tbl, sort_keys=[("content_hash", "ascending"),
                                               (id_col, "ascending")])
        s = tbl.take(idx)
        h = s.column("content_hash").to_numpy(zero_copy_only=False)
        starts = np.flatnonzero(np.concatenate([[True], h[1:] != h[:-1]]))
        lens = np.diff(np.concatenate([starts, [len(h)]]))
        rep = s.take(pa.array(starts))
        return pa.table({"content_hash": rep.column("content_hash"),
                         id_col: rep.column(id_col),
                         "n_copies": pa.array(lens.astype(np.int64))})

    return shard_scan(add_content_hash(ds, id_col, text_col, tokens_col),
                      shard_of, scan, n_shards)


def dedup_against(ds: Dataset, reference: Dataset, id_col: str = "doc_id",
                  text_col: str = "text", tokens_col: str = None,
                  n_shards: int = 64) -> Dataset:
    """Cross-corpus exact dedup: drop every row of ``ds`` whose content
    (text, or raw token buffer with ``tokens_col``) also appears in
    ``reference`` — the "dedup the new crawl against the previous dump /
    train against eval" step (content-identity complement of the k-gram
    :func:`ocm_ray.ops.retrieval.decontaminate`). EXACT — no Bloom
    false-positive loss: both sides' 64-bit content hashes co-shard
    through the raw-task :func:`ocm_ray.ops.pairs.shard_scan2` (every
    copy of a content meets its reference hashes in one shard; the
    reference side travels as a compact hash column, never its text),
    and one sorted-membership pass per shard filters survivors. The
    corpus payload rides the exchange worker-side; driver holds
    ObjectRefs only. Returns the surviving rows of ``ds`` with their
    original columns."""
    from ocm_ray.ops.pairs import _shard_bits, shard_scan2
    from ocm_ray.ops.retrieval import _sorted_member

    bits = _shard_bits(n_shards)
    ref_hashes = add_content_hash(reference, id_col, text_col, tokens_col) \
        .select_columns(["content_hash"]).materialize()
    if ref_hashes.count() == 0:
        # guard shard_scan2's zero-block early return: an EMPTY reference
        # must keep every row (anti-join semantics), not return empty
        # (the inner-join reading that early path encodes)
        return ds

    def content_hashes(batch: pa.Table) -> np.ndarray:
        return add_content_hash_batch(batch, text_col, tokens_col)

    def with_hash(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "__chash", pa.array(content_hashes(batch).view(np.int64)))

    def _shard_by(name):
        # one explicit shard fn per side — sniffing the column name
        # would shard a ds that happens to carry a stale content_hash
        # column (from an earlier add_content_hash over different
        # params) by the WRONG hash, silently missing duplicates
        def shard_of(tbl: pa.Table) -> np.ndarray:
            h = tbl.column(name).to_numpy(zero_copy_only=False).view(U64)
            return (h >> U64(64 - bits)).astype(np.int32) if bits else \
                np.zeros(len(h), np.int32)

        return shard_of

    def scan(ref_tbl: pa.Table, ds_tbl: pa.Table) -> pa.Table:
        ref = np.sort(ref_tbl.column("content_hash")
                      .to_numpy(zero_copy_only=False).view(U64))
        h = ds_tbl.column("__chash").to_numpy(zero_copy_only=False).view(U64)
        out = ds_tbl.filter(pa.array(~_sorted_member(ref, h)))
        return out.drop_columns(["__chash"])

    hashed = ds.map_batches(with_hash, batch_format="pyarrow")
    return shard_scan2(ref_hashes, hashed, _shard_by("content_hash"),
                       _shard_by("__chash"), scan, n_shards)


def add_content_hash_batch(batch: pa.Table, text_col: str = "text",
                           tokens_col: str = None) -> np.ndarray:
    """Per-batch content hashes (the :func:`add_content_hash` kernel,
    exposed for callers that need the hash alongside other columns)."""
    if tokens_col is not None:
        from ocm_ray.core.hashing import stable_hash_bytes
        from ocm_ray.engine.tokens import list_column_values

        flat, lengths = list_column_values(batch, tokens_col)
        flat = np.ascontiguousarray(flat.astype(np.int32, copy=False))
        byte_off = np.concatenate(
            [[0], np.cumsum(lengths.astype(np.int64) * 4)])
        return stable_hash_bytes(flat.view(np.uint8), byte_off, 137)
    from ocm_ray.engine.tokens import hash_string_array

    return hash_string_array(batch.column(text_col))


def bloom_dedup_filter(ds: Dataset, text_col: str = "text",
                       p: int = 24, nh: int = 5,
                       n_shards: int = 32, seedseed: int = 137) -> Dataset:
    """Memory-bounded streaming dedup via Bloom test-and-insert
    (``bf.h:586`` ``may_contain_and_addh``): keep the first-seen copy of
    each content, drop later ones — using ``2^p`` BITS per shard instead
    of a content-hash set.

    Partitioning contract (documented assumption): content hashes are
    sharded by hash prefix (raw-task ``shard_scan`` exchange — driver
    holds only ObjectRefs) and each shard's rows pass through ONE task
    holding its own filter, so every copy of a given content meets the
    same filter; cross-shard duplicates are impossible by construction.
    Approximate: a false positive (probability from ``BloomFilter.fpr``)
    drops a non-duplicate row. Which copy survives follows shard-local
    encounter order (one copy always survives — id plays no role, which
    is why this takes no id_col)."""
    from ocm_ray.ops.pairs import _shard_bits, shard_scan
    from ocm_ray.sketches import BloomFilter

    bits = _shard_bits(n_shards)

    def add_keys(batch: pa.Table) -> pa.Table:
        from ocm_ray.engine.tokens import hash_string_array

        h = hash_string_array(batch.column(text_col))
        return batch.append_column("content_hash",
                                   pa.array(h.view(np.int64)))

    def shard_of(tbl: pa.Table) -> np.ndarray:
        h = tbl.column("content_hash").to_numpy(zero_copy_only=False).view(U64)
        return (h >> U64(64 - bits)).astype(np.int32) if bits else \
            np.zeros(len(h), np.int32)

    def dedup_shard(group: pa.Table) -> pa.Table:
        bf = BloomFilter(p, nh, seedseed)
        h = group.column("content_hash").to_numpy(zero_copy_only=False).view(U64)
        seen = bf.test_and_add(h)
        return group.filter(pa.array(~seen)).drop_columns(["content_hash"])

    return shard_scan(ds.map_batches(add_keys, batch_format="pyarrow"),
                      shard_of, dedup_shard, n_shards)


def exact_dedup(ds: Dataset, id_col: str = "doc_id",
                text_col: str = "text") -> Dataset:
    """Exact dedup by content: one representative (min id) per distinct
    text + multiplicity. Content is grouped via its hash (the 100 TB
    shuffle key), not the raw text."""
    return exact_dedup_groups(ds, id_col, text_col) \
        .select_columns([id_col, "n_copies"])


def dup_clusters(pairs: pd.DataFrame) -> pd.DataFrame:
    """Near-dup clusters from a candidate-pair table: connected
    components via union-find with path halving, each cluster labeled by
    its MIN member id. Input is the (output-sized by contract) pair set
    from any pair finder, so driver-side union-find is the right tool —
    O(pairs * alpha). Returns (doc_id, cluster_id) for every id that
    appears in a pair; the canonical keep-one-per-cluster policy is
    "keep cluster_id, drop the rest" (transitively safe, unlike dropping
    raw b-sides, which can over-keep when chains a-c, b-c overlap)."""
    if len(pairs) == 0:
        return pd.DataFrame({"doc_id": [], "cluster_id": []})
    a = pairs["a"].to_numpy()
    b = pairs["b"].to_numpy()
    ids = np.unique(np.concatenate([a, b]))
    idx = {v: i for i, v in enumerate(ids)}
    parent = np.arange(len(ids), dtype=np.int64)

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]  # path halving
            i = parent[i]
        return i

    for x, y in zip(a, b):
        rx, ry = find(idx[x]), find(idx[y])
        if rx != ry:
            # union by min root so the final label is the min member
            lo, hi = (rx, ry) if rx < ry else (ry, rx)
            parent[hi] = lo
    roots = np.array([find(i) for i in range(len(ids))])
    return pd.DataFrame({"doc_id": ids, "cluster_id": ids[roots]})


# ---------------------------------------------------------------------------
# distributed connected components (near-dup clusters at crawl scale)


def _edge_signature(edges: Dataset) -> Tuple[int, int]:
    """Order- and partition-independent (count, 64-bit sum-hash) of an
    edge Dataset — the per-round convergence check of
    :func:`dup_clusters_ds`. Each row mixes both endpoints through the
    engine hash (ints wang-mixed, strings via the stable codec, rule 8)
    so equal signatures mean equal edge MULTISETS up to a 2^-64 hash
    collision; a tiny (one row per block) partial table comes back."""
    from ocm_ray.ops.pairs import hash_column

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:     # may arrive schema-less (rule 8b)
            return pa.table({"n": pa.array([0], pa.int64()),
                             "s": pa.array([0], pa.int64())})
        ha = hash_column(batch, "a")
        hb = hash_column(batch, "b")
        # direction-sensitive mix (edges here are directed (hi, lo))
        mix = wanghash(ha ^ (hb * U64(0x9E3779B97F4A7C15)))
        with np.errstate(over="ignore"):
            s = np.add.reduce(mix, dtype=U64)
        return pa.table({"n": pa.array([batch.num_rows], pa.int64()),
                         "s": pa.array([int(s.view(np.int64))], pa.int64())})

    part = edges.map_batches(partial, batch_format="pyarrow").to_pandas()
    if "n" not in part.columns:
        # an ALL-empty edge set yields only rule-8b schema-less blocks
        # (Ray never consults the UDF on 0-row upstream blocks)
        return 0, 0
    return int(part["n"].sum()), int(part["s"].to_numpy()
                                     .view(U64).sum().view(np.int64))


def _large_star_scan(tbl: pa.Table) -> pa.Table:
    """One shard of a large-star round: messages (node, nbr) grouped by
    node; m = min(neighborhood ∪ {node}); emit (nbr, m) for nbr > node.
    Each undirected edge emits from its SMALLER endpoint only, so the
    round never grows the edge set (Kiveris et al. 2014, Lemma 1)."""
    id_type = tbl.schema.field("node").type
    df = tbl.to_pandas().drop_duplicates(["node", "nbr"])
    if len(df) == 0:
        return pa.table({"a": pa.array([], id_type),
                         "b": pa.array([], id_type)})
    node = df["node"].to_numpy()
    nbr = df["nbr"].to_numpy()
    gm = df.groupby("node", sort=False)["nbr"].transform("min").to_numpy()
    m = np.minimum(gm, node)
    keep = nbr > node
    return pa.table({"a": pa.array(nbr[keep], id_type),
                     "b": pa.array(m[keep], id_type)})


def _small_star_scan(tbl: pa.Table) -> pa.Table:
    """One shard of a small-star round: messages (node=hi, nbr=lo) per
    edge grouped by the LARGER endpoint; m = min of the smaller
    neighbors; re-link every smaller neighbor and the node itself to m.
    Emits exactly one edge per distinct incoming message."""
    id_type = tbl.schema.field("node").type
    df = tbl.to_pandas().drop_duplicates(["node", "nbr"])
    if len(df) == 0:
        return pa.table({"a": pa.array([], id_type),
                         "b": pa.array([], id_type)})
    nbr = df["nbr"].to_numpy()
    gm = df.groupby("node", sort=False)["nbr"].transform("min").to_numpy()
    keep = nbr != gm                      # (nbr, m) for non-min neighbors
    heads = df.groupby("node", sort=False)["nbr"].min()  # (node, m) once
    a = np.concatenate([nbr[keep], heads.index.to_numpy()])
    b = np.concatenate([gm[keep], heads.to_numpy()])
    return pa.table({"a": pa.array(a, id_type), "b": pa.array(b, id_type)})


def dup_clusters_ds(pairs, n_shards: int = None,
                    max_broadcast: int = 2_000_000,
                    distributed: bool = None,
                    max_rounds: int = 200,
                    checkpoint_dir: str = None) -> Dataset:
    """Connected components over a candidate-pair Dataset — near-dup
    cluster labels at crawl scale. Returns (doc_id, cluster_id) for
    every id in a pair, cluster labeled by its MIN member — byte-same
    labels as the driver :func:`dup_clusters` union-find.

    Auto-dispatch (rule 10c shape): at or below ``max_broadcast`` pairs
    the (output-sized) set collapses to the driver union-find — O(E·α),
    one pass. Above it — a dup-heavy crawl where "output-sized" is no
    longer driver-sized — the labels are computed fully distributed via
    alternating **large-star / small-star** rounds (Kiveris et al. 2014,
    "Connected Components in MapReduce and Beyond"): each round is one
    raw-task :func:`ocm_ray.ops.pairs.shard_scan` exchange of 16 B/row
    (node, nbr) messages keyed by the grouping endpoint's hash (never
    Ray's AllToAll, rule 3b/9), per-shard vectorized via pandas
    ``groupby().transform("min")``. Neither round grows the edge set,
    components converge to min-rooted stars in O(log² n) rounds (≈log n
    in practice — a 16384-node path takes 15 iterations), and convergence
    is detected by an order-independent 64-bit edge-set signature (one
    cheap pass over the already-materialized round output). Driver
    memory per round: #blocks × #shards ObjectRefs + the one-row-per-
    block signature partials — never the edge set.

    ``pairs``: Dataset (or DataFrame) with id columns ``a``/``b`` (int or
    string); extra columns (jaccard, sim, ...) are ignored.
    ``distributed=`` forces a plan; both are byte-identical on any
    canonical pair set (the finders emit a < b; a self-loop row carries
    no connectivity and is dropped here, where the driver union-find
    would label it a singleton).

    ``checkpoint_dir`` (distributed plan only): persist each completed
    round's edge table as Parquet (atomic tmp-dir rename + a meta row
    carrying the round index and convergence signature; older rounds
    pruned) so a killed crawl-scale run resumes from its last completed
    round instead of round 0. Rounds are deterministic functions of the
    edge multiset, so a resumed run converges to identical labels
    (kill-and-resume tested).
    """
    import ray.data as rd

    from ocm_ray.ops.pairs import key_shard_fn, shard_scan, shards_for

    if isinstance(pairs, pd.DataFrame):
        n_pairs = len(pairs)
        pairs_ds = None
    else:
        # pin the edge set to ONE execution whatever the upstream: the
        # dispatch count, the driver-plan to_pandas, and round 1's
        # exchange are separate consumers, and a lazy upstream
        # (census/synthetic generators) would re-run its generation
        # pipeline for each one. Blocks land in the spillable object
        # store, never on the driver; for the from_arrow_refs sets the
        # pair finders hand over this is a no-op.
        pairs_ds = pairs.select_columns(["a", "b"]).materialize()
        n_pairs = pairs_ds.count()
    if distributed is None:
        distributed = n_pairs > max_broadcast
    if not distributed:
        df = pairs if pairs_ds is None else pairs_ds.to_pandas()
        return rd.from_pandas(dup_clusters(df))
    if n_pairs == 0:    # nothing to cluster; both plans agree on empty
        return rd.from_pandas(dup_clusters(pd.DataFrame({"a": [],
                                                         "b": []})))
    if pairs_ds is None:
        pairs_ds = rd.from_pandas(pairs[["a", "b"]])
    if n_shards is None:
        n_shards = shards_for(n_pairs * 2)

    def _empty_messages(batch: pa.Table) -> pa.Table:
        if batch.num_columns == 0:      # schema-less empty (rule 8b)
            return pa.table({})
        t = batch.schema.field("a").type
        return pa.table({"node": pa.array([], t), "nbr": pa.array([], t)})

    def lg_messages(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return _empty_messages(batch)
        import pyarrow.compute as pc

        a, b = batch.column("a"), batch.column("b")
        ok = pc.not_equal(a, b)             # self-loops carry nothing
        a, b = a.filter(ok), b.filter(ok)
        if isinstance(a, pa.Array):
            a, b = pa.chunked_array([a]), pa.chunked_array([b])
        return pa.table(
            {"node": pa.chunked_array(a.chunks + b.chunks, type=a.type),
             "nbr": pa.chunked_array(b.chunks + a.chunks, type=a.type)})

    def sm_messages(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return _empty_messages(batch)
        import pyarrow.compute as pc

        a, b = batch.column("a"), batch.column("b")
        ok = pc.not_equal(a, b)
        a, b = a.filter(ok), b.filter(ok)
        swap = pc.greater(b, a)
        return pa.table({"node": pc.if_else(swap, b, a),
                         "nbr": pc.if_else(swap, a, b)})

    shard_of = key_shard_fn("node", n_shards)
    edges = pairs_ds
    prev_sig = None
    start_round = 0
    fingerprint = None
    if checkpoint_dir:
        import json as _json

        # fingerprint the INPUT (edge-multiset signature + geometry) so
        # a checkpoint from a different pair set / shard count refuses
        # to resume instead of silently continuing someone else's run
        # (the repo-wide resume convention)
        fingerprint = list(_edge_signature(pairs_ds)) + [n_shards]
        os.makedirs(checkpoint_dir, exist_ok=True)
        meta_path = os.path.join(checkpoint_dir, "meta.json")
        if os.path.exists(meta_path):
            with open(meta_path) as fh:
                meta = _json.load(fh)
            if meta.get("fingerprint") != fingerprint:
                raise ValueError(
                    f"dup_clusters_ds: {checkpoint_dir} holds a "
                    "checkpoint for a DIFFERENT pair set or shard count "
                    "— use a fresh checkpoint_dir")
            rdir = os.path.join(checkpoint_dir,
                                f"round-{meta['round']:04d}")
            if os.path.isdir(rdir):
                edges = rd.read_parquet(rdir)
                prev_sig = tuple(meta["sig"]) if meta["sig"] else None
                start_round = meta["round"] + 1

    def _checkpoint_round(it, edge_ds, sig):
        import json as _json
        import shutil as _shutil

        rdir = os.path.join(checkpoint_dir, f"round-{it:04d}")
        tmp = rdir + ".tmp"
        if os.path.isdir(tmp):
            _shutil.rmtree(tmp)
        edge_ds.write_parquet(tmp)
        if os.path.isdir(rdir):
            _shutil.rmtree(rdir)
        os.rename(tmp, rdir)
        with open(os.path.join(checkpoint_dir, "meta.json.tmp"), "w") as fh:
            _json.dump({"round": it, "sig": list(sig),
                        "fingerprint": fingerprint}, fh)
        os.replace(os.path.join(checkpoint_dir, "meta.json.tmp"),
                   os.path.join(checkpoint_dir, "meta.json"))
        for old in os.listdir(checkpoint_dir):   # keep only the latest
            if old.startswith("round-") and not old.endswith(".tmp") \
                    and old != f"round-{it:04d}":
                _shutil.rmtree(os.path.join(checkpoint_dir, old))

    for _it in range(start_round, max_rounds):
        lg = edges.map_batches(lg_messages, batch_format="pyarrow")
        edges = shard_scan(lg, shard_of, _large_star_scan, n_shards)
        if _it == 0 and _edge_signature(edges)[0] == 0:
            # every input pair was a self-loop (or the uncounted lazy
            # input was empty): no connectivity at all. Bail before the
            # next exchange — an all-empty lazy map has NO inferable
            # schema, which shard_scan can't split
            return rd.from_pandas(dup_clusters(pd.DataFrame({"a": [],
                                                             "b": []})))
        sm = edges.map_batches(sm_messages, batch_format="pyarrow")
        edges = shard_scan(sm, shard_of, _small_star_scan, n_shards)
        sig = _edge_signature(edges)
        if checkpoint_dir:
            _checkpoint_round(_it, edges, sig)
            # re-point at the persisted round so the next iteration's
            # consumers read the checkpoint's blocks (and a crash right
            # after this line loses nothing)
            edges = rd.read_parquet(
                os.path.join(checkpoint_dir, f"round-{_it:04d}"))
        if sig == prev_sig:
            break
        prev_sig = sig
    else:
        raise RuntimeError(
            f"dup_clusters_ds did not converge in {max_rounds} rounds "
            f"({n_pairs} pairs) — raise max_rounds")

    # fixed point: edges are (member, root) stars. Labels = the star
    # edges plus one (root, root) row per distinct root (the driver
    # union-find labels the min member with itself too).
    def member_rows(batch: pa.Table) -> pa.Table:
        if batch.num_columns == 0:
            return pa.table({})
        return pa.table({"doc_id": batch.column("a"),
                         "cluster_id": batch.column("b")})

    def root_rows(tbl: pa.Table) -> pa.Table:
        roots = tbl.column("b").unique()
        return pa.table({"doc_id": roots, "cluster_id": roots})

    members = edges.map_batches(member_rows, batch_format="pyarrow")
    roots = shard_scan(edges.select_columns(["b"]),
                       key_shard_fn("b", n_shards), root_rows, n_shards)
    return members.union(roots)


# ---------------------------------------------------------------------------
# cross-document repeated n-grams (exact-substring dedup lite)


def _gram_fn(text_col, tokens_col, k, lowercase, seed):
    """Per-batch gram extractor: word k-grams of a string column, or
    token-id k-grams of a ``list<int>`` column (``tokens_col`` wins)."""
    from ocm_ray.engine.tokens import token_kgram_hashes, word_kgram_hashes

    if tokens_col is not None:
        return lambda batch: token_kgram_hashes(batch, tokens_col, k)
    return lambda batch: word_kgram_hashes(batch.column(text_col), k,
                                           lowercase, seed)


def dup_gram_table(ds: Dataset, k: int = 5, min_docs: int = 2,
                   text_col: str = "text", lowercase: bool = True,
                   seed: int = 137, n_shards: int = 64,
                   tokens_col: str = None) -> Dataset:
    """Word k-grams appearing in >= ``min_docs`` DISTINCT documents.

    The gram-hash discovery step of exact-substring dedup (Lee et al.
    2021, "Deduplicating Training Data Makes Language Models Better" —
    the k-gram approximation of their suffix-array repeated-substring
    search; cf. reference dedup-by-membership ``bf.h:586``). Per batch:
    distinct ``(gram, doc)`` pairs collapse to one ``(gram, n_docs)``
    partial row (a doc lives in exactly one batch, so partial doc
    counts sum exactly). The corpus-sized gram keyspace is exchanged
    through the raw-task :func:`ocm_ray.ops.pairs.shard_scan` (top gram
    bits — NEVER Ray's AllToAll, CLAUDE.md rule 3b/9), each shard
    summing with one sort + ``np.add.reduceat``. Output: Dataset
    ``(gram int64-view, n_docs int64)``, bounded by the duplicated-gram
    vocabulary."""
    from ocm_ray.ops.pairs import _shard_bits, shard_scan

    grams_of = _gram_fn(text_col, tokens_col, k, lowercase, seed)

    def gram_doc_partials(batch: pa.Table) -> pa.Table:
        g, rowid, _ = grams_of(batch)
        if not len(g):
            return pa.table({"key": pa.array([], pa.int64()),
                             "nd": pa.array([], pa.int64())})
        order = np.lexsort((g.view(np.int64), rowid))
        gs, rs = g[order], rowid[order]
        first = np.concatenate([[True], (gs[1:] != gs[:-1])
                                | (rs[1:] != rs[:-1])])
        uniq = np.sort(gs[first])          # one entry per (gram, doc)
        run = np.concatenate([[True], uniq[1:] != uniq[:-1]])
        starts = np.flatnonzero(run)
        nd = np.diff(np.concatenate([starts, [len(uniq)]]))
        return pa.table({"key": pa.array(uniq[starts].view(np.int64)),
                         "nd": pa.array(nd.astype(np.int64))})

    bits = _shard_bits(n_shards)

    def shard_of(tbl: pa.Table) -> np.ndarray:
        kk = tbl.column("key").to_numpy(zero_copy_only=False).view(U64)
        return (kk >> U64(64 - bits)).astype(np.int32) if bits else \
            np.zeros(len(kk), np.int32)

    def scan(tbl: pa.Table) -> pa.Table:
        kk = tbl.column("key").to_numpy(zero_copy_only=False).view(U64)
        nd = tbl.column("nd").to_numpy(zero_copy_only=False)
        if not len(kk):
            return pa.table({"gram": pa.array([], pa.int64()),
                             "n_docs": pa.array([], pa.int64())})
        order = np.argsort(kk, kind="stable")
        ks, ns = kk[order], nd[order]
        run = np.concatenate([[True], ks[1:] != ks[:-1]])
        starts = np.flatnonzero(run)
        tot = np.add.reduceat(ns, starts).astype(np.int64)
        keep = tot >= min_docs
        return pa.table({"gram": pa.array(ks[starts][keep].view(np.int64)),
                         "n_docs": pa.array(tot[keep])})

    partials = ds.map_batches(gram_doc_partials, batch_format="pyarrow")
    return shard_scan(partials, shard_of, scan, n_shards)


def dup_ngram_stats(ds: Dataset, k: int = 5, min_docs: int = 2,
                    id_col: str = "doc_id", text_col: str = "text",
                    lowercase: bool = True, seed: int = 137,
                    n_shards: int = 64,
                    max_broadcast: int = 8_000_000,
                    tokens_col: str = None,
                    distributed: bool = None) -> Dataset:
    """Per-document cross-corpus repeated-k-gram statistics: for each doc
    ``(id, n_grams, n_dup_grams, n_distinct_dup_grams, max_dup_run)``
    where a *dup gram* occurs in >= ``min_docs`` distinct documents and
    ``max_dup_run`` is the longest run of CONSECUTIVE dup grams (a run
    of r dup k-grams == a shared span of r+k-1 words — the quantity
    exact-substring dedup truncates on). Stats are exact in the gram-
    hash domain (== string grams absent 64-bit collisions, the engine's
    documented contract).

    Scale shape: discovery via :func:`dup_gram_table` (shard_scan
    exchange). The PROBE then auto-dispatches on the duplicated-gram
    vocabulary size (``dup_ds.count()`` — block-count sum, nothing
    pulled to the driver):

    * ``<= max_broadcast`` (~64 MB): the dup-gram set travels ONCE via
      ``ray.put`` and the corpus side is a single stateless vectorized
      map pass (fastest — run lengths read doc-local gram order in
      place).
    * above the cap (100 TB web text — the dup vocabulary is unbounded):
      NO driver materialization and NO broadcast. The corpus is
      re-walked once into ``(gram, doc_key, pos)`` triples plus one
      ``(doc_key, id, n_grams)`` meta row per doc; a gram-sharded
      :func:`ocm_ray.ops.pairs.shard_scan2` marks membership against
      the co-sharded dup-gram table worker-side (only HIT triples
      survive), and a second doc-sharded exchange regroups hits with
      the meta rows to rebuild doc-local order and run lengths. Driver
      holds ObjectRefs only; every task sees one gram- or doc-shard.

    ``distributed`` forces the path (None = auto). Both paths produce
    identical values (parity-tested); only row order differs."""
    grams_of = _gram_fn(text_col, tokens_col, k, lowercase, seed)
    dup_ds = dup_gram_table(ds, k, min_docs, text_col, lowercase, seed,
                            n_shards, tokens_col=tokens_col)
    if distributed is None:
        distributed = dup_ds.count() > max_broadcast
    if distributed:
        return _dup_stats_exchange(ds, dup_ds, grams_of, id_col, n_shards)
    return _dup_stats_broadcast(ds, dup_ds, grams_of, id_col)


def _dup_stats_broadcast(ds: Dataset, dup_ds: Dataset, grams_of,
                         id_col: str) -> Dataset:
    """Small-dup-vocabulary probe: one ``ray.put`` of the sorted dup-gram
    array, one stateless vectorized map pass over the corpus."""
    from ocm_ray.ops.retrieval import _sorted_member

    parts = [b.column("gram").to_numpy(zero_copy_only=False)
             for b in dup_ds.iter_batches(batch_format="pyarrow")
             if b.num_rows]
    dup = np.sort(np.concatenate(parts).view(U64)) if parts \
        else np.empty(0, U64)
    ref = ray.put(dup)

    def mark(batch: pa.Table) -> pa.Table:
        dup_arr = ray.get(ref)   # zero-copy from the shared object store
        g, rowid, nrows = grams_of(batch)
        hit = _sorted_member(dup_arr, g)
        n_grams = np.bincount(rowid, minlength=nrows).astype(np.int64)
        n_dup = np.bincount(rowid, weights=hit,
                            minlength=nrows).astype(np.int64)
        # distinct dup grams per doc: consecutive-unique over (doc, gram)
        n_distinct = np.zeros(nrows, np.int64)
        if hit.any():
            gh, rh = g[hit].view(np.int64), rowid[hit]
            order = np.lexsort((gh, rh))
            gs, rs = gh[order], rh[order]
            first = np.concatenate([[True], (gs[1:] != gs[:-1])
                                    | (rs[1:] != rs[:-1])])
            n_distinct = np.bincount(rs[first],
                                     minlength=nrows).astype(np.int64)
        # longest consecutive dup run per doc, vectorized across rows:
        # run starts where hit begins or the row changes; run length via
        # bincount over run ids; per-row max via np.maximum.at
        max_run = np.zeros(nrows, np.int64)
        if hit.any():
            row_change = np.concatenate([[True], rowid[1:] != rowid[:-1]])
            new_run = hit & (np.concatenate([[True], ~hit[:-1]]) | row_change)
            run_id = np.cumsum(new_run) - 1
            run_lens = np.bincount(run_id[hit])
            np.maximum.at(max_run, rowid[new_run], run_lens)
        return pa.table({
            id_col: batch.column(id_col),
            "n_grams": pa.array(n_grams),
            "n_dup_grams": pa.array(n_dup),
            "n_distinct_dup_grams": pa.array(n_distinct),
            "max_dup_run": pa.array(max_run),
        })

    return ds.map_batches(mark, batch_format="pyarrow")


def _positional_hits(ds: Dataset, dup_ds: Dataset, grams_of, id_col: str,
                     n_shards: int, payload_cols: tuple = ()):
    """Shared first half of the positional exchange plans
    (:func:`dup_ngram_stats` / :func:`remove_dup_spans`, unbounded
    dup-vocabulary path): one corpus pass emits ``(gram, dkey, pos)``
    triples plus one meta row per doc (``dkey, n_grams, id`` and any
    ``payload_cols`` carried through for the rewrite); a gram-sharded
    :func:`ocm_ray.ops.pairs.shard_scan2` marks triples against the
    co-sharded dup-gram table worker-side. Returns ``(hits, meta,
    shard_by_dkey)`` ready for the per-op doc-sharded second exchange.
    Doc identity travels as a stable 64-bit hash of the id (the
    engine-wide 64-bit hash-domain contract — same collision caveat as
    the gram hashes themselves)."""
    import pyarrow.compute as pc

    from ocm_ray.engine.tokens import hash_string_array
    from ocm_ray.ops.pairs import _shard_bits, shard_scan2
    from ocm_ray.ops.retrieval import _sorted_member

    bits = _shard_bits(n_shards)

    def top_bits(vals_u64: np.ndarray) -> np.ndarray:
        return (vals_u64 >> U64(64 - bits)).astype(np.int32) if bits else \
            np.zeros(len(vals_u64), np.int32)

    def doc_keys(batch: pa.Table) -> np.ndarray:
        col = batch.column(id_col)
        if not pa.types.is_string(col.type) and \
                not pa.types.is_large_string(col.type) and \
                not pa.types.is_binary(col.type) and \
                not pa.types.is_large_binary(col.type):
            col = pc.cast(col, pa.string())
        return hash_string_array(col)

    # pass: triples (gram, dkey, pos) + one meta row (pos = -1, gram
    # slot reused for n_grams) per doc, in ONE extraction, materialized
    # so the two consumers below don't re-run it
    def emit_combined(batch: pa.Table) -> pa.Table:
        g, rowid, nrows = grams_of(batch)
        dk = doc_keys(batch)
        n_grams = np.bincount(rowid, minlength=nrows).astype(np.int64)
        # within-doc positional index (rowid is grouped, in text order)
        if len(g):
            row_change = np.concatenate([[True], rowid[1:] != rowid[:-1]])
            starts = np.flatnonzero(row_change)
            lens = np.diff(np.concatenate([starts, [len(g)]]))
            pos = np.arange(len(g), dtype=np.int64) - np.repeat(starts, lens)
        else:
            pos = np.empty(0, np.int64)
        cols = {
            "gram": pa.array(np.concatenate(
                [g.view(np.int64), n_grams])),
            "dkey": pa.array(np.concatenate(
                [dk[rowid].view(np.int64) if len(g) else
                 np.empty(0, np.int64), dk.view(np.int64)])),
            "pos": pa.array(np.concatenate(
                [pos, np.full(nrows, -1, np.int64)])),
        }
        for name in (id_col,) + tuple(payload_cols):
            col = batch.column(name)
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            cols[name] = pa.concat_arrays(
                [pa.nulls(len(g), type=col.type), col])
        return pa.table(cols)

    combined = ds.map_batches(emit_combined,
                              batch_format="pyarrow").materialize()
    triples = combined.map_batches(
        lambda t: t.filter(pc.greater_equal(t.column("pos"),
                                            pa.scalar(0)))
                   .select(["gram", "dkey", "pos"]),
        batch_format="pyarrow")

    meta_names = ["dkey", "n_grams", id_col] + list(payload_cols)

    def meta_of(t: pa.Table) -> pa.Table:
        m = t.filter(pc.less(t.column("pos"), pa.scalar(0)))
        cols = {"dkey": m.column("dkey"), "n_grams": m.column("gram"),
                id_col: m.column(id_col)}
        for name in payload_cols:
            cols[name] = m.column(name)
        return pa.table(cols)

    meta = combined.map_batches(meta_of, batch_format="pyarrow")

    # exchange 1: mark — co-shard dup grams and triples by gram top bits
    def shard_by_gram(tbl: pa.Table) -> np.ndarray:
        return top_bits(tbl.column("gram")
                        .to_numpy(zero_copy_only=False).view(U64))

    def scan_mark(dup_tbl: pa.Table, tri_tbl: pa.Table) -> pa.Table:
        dup = np.sort(dup_tbl.column("gram")
                      .to_numpy(zero_copy_only=False).view(U64))
        g = tri_tbl.column("gram").to_numpy(zero_copy_only=False).view(U64)
        return tri_tbl.filter(pa.array(_sorted_member(dup, g)))

    hits = shard_scan2(dup_ds, triples, shard_by_gram, shard_by_gram,
                       scan_mark, n_shards)

    def shard_by_dkey(tbl: pa.Table) -> np.ndarray:
        return top_bits(tbl.column("dkey")
                        .to_numpy(zero_copy_only=False).view(U64))

    return hits, meta, shard_by_dkey


def _hits_to_meta_rows(hit_tbl: pa.Table, meta_tbl: pa.Table) -> np.ndarray:
    """Meta-row index per hit (co-sharded by dkey, so every hit's doc is
    present in the shard's meta table)."""
    mdk = meta_tbl.column("dkey").to_numpy(zero_copy_only=False).view(U64)
    morder = np.argsort(mdk, kind="stable")
    msorted = mdk[morder]
    dk = hit_tbl.column("dkey").to_numpy(zero_copy_only=False).view(U64)
    mi = np.minimum(np.searchsorted(msorted, dk), meta_tbl.num_rows - 1)
    return morder[mi]


def _dup_stats_exchange(ds: Dataset, dup_ds: Dataset, grams_of,
                        id_col: str, n_shards: int) -> Dataset:
    """Unbounded-dup-vocabulary probe: positional two-exchange plan (see
    :func:`dup_ngram_stats`); mark exchange shared via
    :func:`_positional_hits`."""
    from ocm_ray.ops.pairs import shard_scan2

    hits, meta, shard_by_dkey = _positional_hits(ds, dup_ds, grams_of,
                                                 id_col, n_shards)

    # exchange 2: regroup hits with meta by doc-key top bits
    def scan_doc(hit_tbl: pa.Table, meta_tbl: pa.Table) -> pa.Table:
        nrows = meta_tbl.num_rows
        n_grams = meta_tbl.column("n_grams")\
            .to_numpy(zero_copy_only=False).astype(np.int64)
        n_dup = np.zeros(nrows, np.int64)
        n_distinct = np.zeros(nrows, np.int64)
        max_run = np.zeros(nrows, np.int64)
        if hit_tbl.num_rows and nrows:
            pos = hit_tbl.column("pos").to_numpy(zero_copy_only=False)
            g = hit_tbl.column("gram")\
                .to_numpy(zero_copy_only=False).view(U64)
            row = _hits_to_meta_rows(hit_tbl, meta_tbl)
            n_dup = np.bincount(row,
                                minlength=nrows).astype(np.int64)
            o2 = np.lexsort((g, row))
            rs, gs = row[o2], g[o2]
            first = np.concatenate([[True], (rs[1:] != rs[:-1])
                                    | (gs[1:] != gs[:-1])])
            n_distinct = np.bincount(rs[first],
                                     minlength=nrows).astype(np.int64)
            o3 = np.lexsort((pos, row))
            rr, pp = row[o3], pos[o3]
            new_run = np.concatenate(
                [[True], (rr[1:] != rr[:-1]) | (pp[1:] != pp[:-1] + 1)])
            run_lens = np.bincount(np.cumsum(new_run) - 1)
            np.maximum.at(max_run, rr[new_run], run_lens)
        return pa.table({
            id_col: meta_tbl.column(id_col),
            "n_grams": pa.array(n_grams),
            "n_dup_grams": pa.array(n_dup),
            "n_distinct_dup_grams": pa.array(n_distinct),
            "max_dup_run": pa.array(max_run),
        })

    return shard_scan2(hits, meta, shard_by_dkey, shard_by_dkey,
                       scan_doc, n_shards)


# ---------------------------------------------------------------------------
# exact-substring span REMOVAL (the rewrite step of Lee et al. 2021)


def _span_cover(hit_row: np.ndarray, hit_pos: np.ndarray, lens: np.ndarray,
                k: int, min_span: int):
    """Word/token coverage of the removable duplicated spans.

    A maximal run of ``r`` consecutive dup k-grams starting at gram
    position ``p`` covers units ``[p, p + r + k - 1)``; runs whose span
    ``r + k - 1 < min_span`` are kept (Lee et al. remove spans of >= 50
    tokens — ``min_span`` is that knob). Returns ``(covered bool over
    the flat unit stream, n_spans_removed per row)`` — overlapping
    removable spans (runs separated by < k non-dup grams) union cleanly
    via the difference-array cumsum."""
    nrows = len(lens)
    total = int(lens.sum())
    if len(hit_row) == 0:
        return np.zeros(total, bool), np.zeros(nrows, np.int64)
    order = np.lexsort((hit_pos, hit_row))
    hr, hp = hit_row[order], hit_pos[order]
    new_run = np.concatenate(
        [[True], (hr[1:] != hr[:-1]) | (hp[1:] != hp[:-1] + 1)])
    starts = np.flatnonzero(new_run)
    run_len = np.diff(np.concatenate([starts, [len(hr)]]))
    span = run_len + k - 1
    sel = span >= min_span
    r_row, r_start, span = hr[starts][sel], hp[starts][sel], span[sel]
    n_spans = np.bincount(r_row, minlength=nrows).astype(np.int64)
    uoff = np.concatenate([[0], np.cumsum(lens[:-1])]) if nrows else \
        np.zeros(0, np.int64)
    diff = np.zeros(total + 1, np.int64)
    np.add.at(diff, uoff[r_row] + r_start, 1)
    np.add.at(diff, uoff[r_row] + r_start + span, -1)
    return np.cumsum(diff[:-1]) > 0, n_spans


def _rewrite_text_rows(texts, hit_row: np.ndarray, hit_pos: np.ndarray,
                       k: int, min_span: int, out_col: str = "text") -> dict:
    """Rebuild a string column with covered words removed: one split,
    one flat gather of kept words, one ListArray join — no per-row
    Python. Words are the SAME single-space split the gram hashes used
    (lowercasing changes no word boundaries), so gram position p maps
    exactly to words [p, p+k)."""
    import pyarrow.compute as pc

    toks = pc.split_pattern(pc.fill_null(texts, ""), " ")
    if isinstance(toks, pa.ChunkedArray):
        toks = toks.combine_chunks()
    flat = toks.flatten()
    offs = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    lens = np.diff(offs)
    covered, n_spans = _span_cover(hit_row, hit_pos, lens, k, min_span)
    word_row = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
    n_removed = np.bincount(word_row, weights=covered,
                            minlength=len(lens)).astype(np.int64)
    kept = flat.take(pa.array(np.flatnonzero(~covered)))
    kept_offs = np.concatenate([[0], np.cumsum(lens - n_removed)])
    out = pc.binary_join(
        pa.ListArray.from_arrays(pa.array(kept_offs, pa.int32()), kept), " ")
    return {out_col: out, "n_words": pa.array(lens),
            "n_removed_words": pa.array(n_removed),
            "n_spans_removed": pa.array(n_spans)}


def _rewrite_token_rows(col, hit_row: np.ndarray, hit_pos: np.ndarray,
                        k: int, min_span: int,
                        out_col: str = "tokens") -> dict:
    """Tokens-domain sibling: rebuild a ``list<int>`` column with covered
    token positions removed (axis B — no text anywhere)."""
    from ocm_ray.engine.tokens import list_column_values

    flat, lens = list_column_values(pa.table({"t": col}), "t")
    lens = lens.astype(np.int64)
    covered, n_spans = _span_cover(hit_row, hit_pos, lens, k, min_span)
    tok_row = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
    n_removed = np.bincount(tok_row, weights=covered,
                            minlength=len(lens)).astype(np.int64)
    kept_offs = np.concatenate([[0], np.cumsum(lens - n_removed)])
    out = pa.ListArray.from_arrays(
        pa.array(kept_offs, pa.int32()),
        pa.array(flat[~covered]))
    return {out_col: out, "n_tokens": pa.array(lens),
            "n_removed_tokens": pa.array(n_removed),
            "n_spans_removed": pa.array(n_spans)}


def _gram_positions(rowid: np.ndarray, n: int) -> np.ndarray:
    """Within-doc positional index for a grouped, text-ordered rowid
    stream (grams are emitted row-major)."""
    if not n:
        return np.empty(0, np.int64)
    row_change = np.concatenate([[True], rowid[1:] != rowid[:-1]])
    starts = np.flatnonzero(row_change)
    lens = np.diff(np.concatenate([starts, [n]]))
    return np.arange(n, dtype=np.int64) - np.repeat(starts, lens)


def remove_dup_spans(ds: Dataset, k: int = 5, min_docs: int = 2,
                     min_span: int = None, id_col: str = "doc_id",
                     text_col: str = "text", tokens_col: str = None,
                     lowercase: bool = True, seed: int = 137,
                     n_shards: int = 64, max_broadcast: int = 8_000_000,
                     distributed: bool = None,
                     keep_cols: tuple = ()) -> Dataset:
    """Exact-substring span removal (Lee et al. 2021, the ExactSubstr
    REWRITE step — :func:`dup_ngram_stats` measures, this one edits):
    every maximal run of consecutive k-grams occurring in >=
    ``min_docs`` distinct documents whose covered span is >=
    ``min_span`` units (default ``k``; the paper uses 50 tokens) is
    cut from the document, ALL occurrences included (the paper's
    policy). Words for ``text_col`` (single-space split, original case
    preserved in the rebuild), token ids for ``tokens_col``.

    Output: ``(id, rewritten payload, n_units, n_removed_units,
    n_spans_removed)``. Scale shape mirrors :func:`dup_ngram_stats`
    (CLAUDE.md rule 10c): discovery via :func:`dup_gram_table`; the
    probe auto-dispatches at ``max_broadcast`` between the one-``ray.put``
    broadcast pass and the positional two-exchange plan (the meta rows
    of the second exchange carry the payload column, so the rewrite
    happens worker-side per doc-shard; the driver holds ObjectRefs
    only). Both paths produce identical rows (parity-tested); only row
    order differs."""
    if min_span is None:
        min_span = k
    if min_span < k:
        raise ValueError(f"min_span {min_span} < k {k}: every dup gram "
                         "already spans k units")
    payload_col = tokens_col if tokens_col is not None else text_col
    import functools

    rewrite_rows = functools.partial(
        _rewrite_token_rows if tokens_col is not None
        else _rewrite_text_rows, out_col=payload_col)
    keep_cols = tuple(keep_cols)
    grams_of = _gram_fn(text_col, tokens_col, k, lowercase, seed)
    dup_ds = dup_gram_table(ds, k, min_docs, text_col, lowercase, seed,
                            n_shards, tokens_col=tokens_col)
    if distributed is None:
        distributed = dup_ds.count() > max_broadcast
    if distributed:
        return _remove_spans_exchange(ds, dup_ds, grams_of, id_col,
                                      payload_col, rewrite_rows, k,
                                      min_span, n_shards, keep_cols)

    from ocm_ray.ops.retrieval import _sorted_member

    parts = [b.column("gram").to_numpy(zero_copy_only=False)
             for b in dup_ds.iter_batches(batch_format="pyarrow")
             if b.num_rows]
    dup = np.sort(np.concatenate(parts).view(U64)) if parts \
        else np.empty(0, U64)
    ref = ray.put(dup)

    def rewrite(batch: pa.Table) -> pa.Table:
        dup_arr = ray.get(ref)
        g, rowid, _ = grams_of(batch)
        hit = _sorted_member(dup_arr, g)
        pos = _gram_positions(rowid, len(g))
        cols = rewrite_rows(batch.column(payload_col), rowid[hit],
                            pos[hit], k, min_span)
        passthrough = {c: batch.column(c) for c in keep_cols}
        return pa.table({id_col: batch.column(id_col), **cols,
                         **passthrough})

    return ds.map_batches(rewrite, batch_format="pyarrow")


def _remove_spans_exchange(ds: Dataset, dup_ds: Dataset, grams_of,
                           id_col: str, payload_col: str, rewrite_rows,
                           k: int, min_span: int, n_shards: int,
                           keep_cols: tuple = ()) -> Dataset:
    """Unbounded-dup-vocabulary rewrite: the :func:`_positional_hits`
    mark exchange with the payload carried on the meta rows, then a
    doc-sharded second exchange rebuilds each shard's docs in one
    vectorized pass."""
    from ocm_ray.ops.pairs import shard_scan2

    hits, meta, shard_by_dkey = _positional_hits(
        ds, dup_ds, grams_of, id_col, n_shards,
        payload_cols=(payload_col,) + tuple(keep_cols))

    def scan_doc(hit_tbl: pa.Table, meta_tbl: pa.Table) -> pa.Table:
        if meta_tbl.num_rows and hit_tbl.num_rows:
            row = _hits_to_meta_rows(hit_tbl, meta_tbl)
            pos = hit_tbl.column("pos").to_numpy(zero_copy_only=False)
        else:
            row = np.empty(0, np.int64)
            pos = np.empty(0, np.int64)
        cols = rewrite_rows(meta_tbl.column(payload_col), row, pos,
                            k, min_span)
        passthrough = {c: meta_tbl.column(c) for c in keep_cols}
        return pa.table({id_col: meta_tbl.column(id_col), **cols,
                         **passthrough})

    return shard_scan2(hits, meta, shard_by_dkey, shard_by_dkey,
                       scan_doc, n_shards)


# ---------------------------------------------------------------------------
# semantic dedup (SemDeDup: k-means cells + within-cell cosine)


def semantic_dedup_pairs(ds: Dataset, threshold: float = 0.95,
                         n_clusters: int = 64, iters: int = 4,
                         emb_col: str = "embedding",
                         id_col: str = "vec_id",
                         seedseed: int = 137) -> Dataset:
    """SemDeDup (Abbas et al. 2023, "SemDeDup: Data-efficient learning
    at web-scale through semantic deduplication"): embeddings are
    k-means-clustered (full-corpus Lloyd,
    :func:`ocm_ray.ops.similarity.kmeans_lloyd`), then near-duplicate
    pairs (cosine >= ``threshold``) are searched ONLY within each
    cluster — the pairwise work drops from O(N^2) to
    O(sum of cluster sizes squared), the paper's tractability trick.
    Approximate by construction: cross-cluster near-dups are missed
    (recall is asserted against the brute-force pair set in tests and
    in the driver query at test scale).

    Exchange shape: cluster ids are the shard key of a raw-task
    :func:`ocm_ray.ops.pairs.shard_scan` (one cell per shard; driver
    holds only ObjectRefs); each shard runs one chunked matmul over its
    cell's matrix. Partitioning assumption (documented): one cluster's
    vectors fit one task — at 100 TB raise ``n_clusters`` so N/k stays
    bounded; the matmul is row-chunked so peak memory is the chunk, not
    the cell squared. Drop policy composes downstream via
    :func:`dup_clusters` (union-find, keep min id)."""
    from ocm_ray.ops.pairs import shard_scan
    from ocm_ray.ops.similarity import (_embedding_matrix, _normalize,
                                        assign_clusters, kmeans_lloyd)

    cents, _hist = kmeans_lloyd(ds, n_clusters, iters, emb_col,
                                seedseed=seedseed)
    assigned = assign_clusters(ds, cents, emb_col)
    n_shards = 1 << max(0, (int(n_clusters) - 1).bit_length())

    def shard_of(tbl: pa.Table) -> np.ndarray:
        return tbl.column("cell").to_numpy(zero_copy_only=False) \
            .astype(np.int32)

    def scan(tbl: pa.Table) -> pa.Table:
        id_type = tbl.schema.field(id_col).type
        if tbl.num_rows < 2:
            # id-typed empty columns: a hardcoded int64 here would give
            # empty shards a schema that conflicts with string-id cells
            return pa.table({"a": pa.array([], id_type),
                             "b": pa.array([], id_type),
                             "sim": pa.array([], pa.float64())})
        m = _normalize(_embedding_matrix(tbl, emb_col))
        ids = tbl.column(id_col).to_numpy(zero_copy_only=False)
        n = len(m)
        # ~4 MB float64 sim rows per chunk (cache-sized, CLAUDE.md r4):
        # chunk * n * 8 B ≈ 2^22
        chunk = max(1, (1 << 19) // max(n, 1))
        outs_a, outs_b, outs_s = [], [], []
        for lo in range(0, n, chunk):
            hi = min(lo + chunk, n)
            sims = m[lo:hi] @ m.T                # (chunk, n)
            ii, jj = np.nonzero(sims >= threshold)
            keep = (ii + lo) < jj                # upper triangle only
            ii, jj = ii[keep], jj[keep]
            a, b = ids[ii + lo], ids[jj]
            swap = a > b
            outs_a.append(np.where(swap, b, a))
            outs_b.append(np.where(swap, a, b))
            outs_s.append(sims[ii, jj])
        a_all = np.concatenate(outs_a)
        if len(a_all) == 0:
            # pa.array on an empty object array infers NULL type, which
            # conflicts with string-id blocks at schema unification
            return pa.table({"a": pa.array([], id_type),
                             "b": pa.array([], id_type),
                             "sim": pa.array([], pa.float64())})
        return pa.table({"a": pa.array(a_all),
                         "b": pa.array(np.concatenate(outs_b)),
                         "sim": pa.array(np.concatenate(outs_s))})

    return shard_scan(assigned, shard_of, scan, n_shards)
