"""Round-5 robustness regressions: rule-8b schema-less empty blocks in
driver folds, null embeddings, empty-candidate retrieval paths, LSH
multiprobe semantics, and PQ code-width guards."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

pytestmark = pytest.mark.usefixtures("ray_session")


def _emb_frame(n=60, dim=8, seed=3):
    rng = np.random.default_rng(seed)
    return pd.DataFrame({
        "vec_id": [f"v{i:03d}" for i in range(n)],
        "embedding": [rng.standard_normal(dim).tolist() for _ in range(n)],
    })


def _with_empty_blocks(df, keep):
    """Dataset whose partitioning leaves some blocks EMPTY after a
    filter — the layout that makes map_batches emit schema-less
    pa.table({}) blocks (CLAUDE.md rule 8b)."""
    import ray.data

    ds = ray.data.from_pandas(df).repartition(8)
    mask = set(keep)
    return ds.map_batches(
        lambda t: (t.filter(pa.array([i in mask for i in
                                      t.column(t.column_names[0])
                                      .to_pylist()]))
                   if t.num_rows else t),
        batch_format="pyarrow")


def test_kmeans_and_semdedup_survive_empty_blocks():
    import ray.data

    from ocm_ray.ops.similarity import kmeans_lloyd

    df = _emb_frame(n=64)
    # drop everything outside one narrow id range -> most blocks empty
    keep = {f"v{i:03d}" for i in range(16)}
    ds = _with_empty_blocks(df, keep)
    cents, hist = kmeans_lloyd(ds, n_clusters=4, iters=2)
    assert cents.shape == (4, 8) and len(hist) == 2


def test_eval_gram_set_survives_empty_blocks():
    from ocm_ray.ops.retrieval import eval_gram_set

    df = pd.DataFrame({"doc_id": [f"d{i}" for i in range(40)],
                       "text": [f"alpha beta gamma delta {i}"
                                for i in range(40)]})
    ds = _with_empty_blocks(df, {"d1", "d2"})
    g = eval_gram_set(ds, k=3)
    assert len(g) > 0 and g.dtype == np.uint64


def test_nb_keep_top_fraction_survives_empty_blocks():
    from ocm_ray.ops.classifier import (nb_keep_top_fraction,
                                        train_quality_classifier)
    import ray.data

    rng = np.random.default_rng(11)
    df = pd.DataFrame({
        "doc_id": [f"d{i}" for i in range(80)],
        "text": [" ".join(rng.choice(["good", "fine", "bad", "junk",
                                      "meh"], 12)) for _ in range(80)],
        "label": [i % 2 == 0 for i in range(80)],
    })
    model = train_quality_classifier(ray.data.from_pandas(df))
    ds = _with_empty_blocks(df, {f"d{i}" for i in range(20)})
    kept, thr = nb_keep_top_fraction(ds, model, 0.5)
    assert np.isfinite(thr)
    assert 0 < kept.count() <= 20


def test_embedding_matrix_rejects_null_rows():
    from ocm_ray.ops.similarity import _embedding_matrix

    t = pa.table({"vec_id": ["a", "b", "c"],
                  "embedding": pa.array([[1.0, 0.0], None, [0.0, 1.0]],
                                        pa.list_(pa.float64()))})
    with pytest.raises(ValueError, match="null"):
        _embedding_matrix(t, "embedding")


def test_lsh_topk_empty_probed_buckets_returns_empty():
    """On-the-fly mode with no corpus vector in any probed bucket must
    return the documented empty frame, like index mode already did."""
    import ray.data

    from ocm_ray.ops.similarity import add_lsh_bucket, brute_force_topk

    df = _emb_frame(n=30, dim=8)
    ds = ray.data.from_pandas(df).repartition(4)
    # emulate the probe filter dropping EVERYTHING
    empty = ds.map_batches(lambda t: t.slice(0, 0) if t.num_rows else t,
                           batch_format="pyarrow")
    out = brute_force_topk(empty, np.ones((2, 8)), k=3)
    assert len(out) == 0
    assert list(out.columns) == ["query_idx", "vec_id", "sim", "rank"]


def test_bm25_topk_no_matching_terms_returns_empty():
    import ray.data

    from ocm_ray.ops.retrieval import bm25_topk, hybrid_search

    df = pd.DataFrame({"doc_id": [f"d{i}" for i in range(30)],
                       "text": [f"alpha beta gamma {i}"
                                for i in range(30)]})
    ds = ray.data.from_pandas(df).repartition(4)
    out = bm25_topk(ds, ["zzzznotinthecorpus"], topk=5)
    assert out.num_rows == 0
    # hybrid_search's empty-candidate fallback is reachable again
    h = hybrid_search(ds, "zzzznotinthecorpus", topk=5, dim=8)
    assert len(h) == 0


def test_lsh_multiprobe_radius():
    from ocm_ray.ops.similarity import _probe_buckets

    q = np.ones((1, 8))
    p0 = _probe_buckets(q, bits=6, multiprobe=0, seedseed=137)
    p1 = _probe_buckets(q, bits=6, multiprobe=1, seedseed=137)
    p2 = _probe_buckets(q, bits=6, multiprobe=2, seedseed=137)
    assert len(p0) == 1
    assert len(p1) == 1 + 6
    assert len(p2) == 1 + 6 + 15          # C(6,1) + C(6,2)
    home = p0[0]
    assert all(bin(b ^ home).count("1") <= 2 for b in p2)


def test_ivfpq_rejects_wide_codebooks(tmp_path):
    import ray.data

    from ocm_ray.ops.similarity import build_ivfpq_index

    ds = ray.data.from_pandas(_emb_frame(n=40, dim=8))
    with pytest.raises(ValueError, match="256"):
        build_ivfpq_index(ds, str(tmp_path / "pq"), n_centroids=2,
                          m_subspaces=2, n_codes=512)


def _docs(texts, ids=None):
    return pd.DataFrame({
        "doc_id": ids or [f"d{i:03d}" for i in range(len(texts))],
        "text": texts})


def test_minhash_short_docs_never_pair():
    """Docs shorter than shingle_k words have NO shingles — they must
    not be reported as mutual jaccard-1.0 duplicates via the all-MAX
    sentinel signature (both dispatch paths)."""
    import ray.data

    from ocm_ray.ops.dedup import minhash_lsh_pairs

    rng = np.random.default_rng(7)
    long = [" ".join(rng.choice([f"w{i}" for i in range(100)], 30))
            for _ in range(20)]
    short = ["red car", "blue sky", "one", "two words", "tiny doc"]
    df = _docs(long + short)
    # plant one real near-dup pair among the long docs
    df.loc[0, "text"] = df.loc[1, "text"] + " extra"
    ds = ray.data.from_pandas(df).repartition(4)
    for forced in (True, False):
        out = minhash_lsh_pairs(ds, threshold=0.5, local=forced,
                                n_shards=8)
        short_ids = set(df["doc_id"][len(long):])
        assert not (set(out["a"]) | set(out["b"])) & short_ids, \
            f"sentinel-signature docs paired (local={forced}): {out}"
        assert {("d000", "d001")} <= set(zip(out["a"], out["b"]))


def test_minhash_local_path_honors_max_bucket():
    """max_bucket must cap degenerate buckets on the LOCAL path too
    (it used to be silently ignored there)."""
    import ray.data

    from ocm_ray.ops.dedup import minhash_lsh_pairs

    # 12 identical docs -> one mega-bucket in every band
    df = _docs(["alpha beta gamma delta epsilon zeta"] * 12)
    ds = ray.data.from_pandas(df)
    full = minhash_lsh_pairs(ds, threshold=0.5, local=True)
    assert len(full) == 12 * 11 // 2
    capped = minhash_lsh_pairs(ds, threshold=0.5, local=True,
                               max_bucket=4)
    assert len(capped) == 0  # the bucket exceeded the cap -> dropped
    # parity with the distributed path under the same cap
    dist = minhash_lsh_pairs(ds, threshold=0.5, local=False,
                             n_shards=8, max_bucket=4)
    assert len(dist) == 0


def test_dedup_against_ignores_stale_content_hash_column():
    """A ds that already carries a content_hash column (from an earlier
    stage over DIFFERENT params) must still shard by the freshly
    computed hash — the old name-sniffing sharded by the stale column
    and silently missed duplicates."""
    import ray.data

    from ocm_ray.ops.dedup import dedup_against

    df = _docs([f"doc number {i} body" for i in range(40)])
    ref = df.iloc[:15].copy()
    # poison: a stale hash column unrelated to the text
    poisoned = df.copy()
    poisoned["content_hash"] = np.arange(40, dtype=np.int64) * 7919
    out = dedup_against(ray.data.from_pandas(poisoned).repartition(4),
                        ray.data.from_pandas(ref).repartition(2),
                        n_shards=8).to_pandas()
    assert set(out["doc_id"]) == set(df["doc_id"][15:])


def test_stratified_sample_empty_fractions():
    import ray.data

    from ocm_ray.ops.sampling import stratified_sample

    df = pd.DataFrame({"doc_id": [f"d{i}" for i in range(200)],
                       "source": [f"s{i % 3}" for i in range(200)]})
    out = stratified_sample(ray.data.from_pandas(df), "source",
                            fractions={}, default_fraction=0.5) \
        .to_pandas()
    assert 40 < len(out) < 160  # ~half kept via the default


def test_signature_cache_partial_write_recovers(tmp_path):
    """A crash that left parquet without the meta sidecar must trigger
    a REBUILD, not an append that doubles every signature row."""
    import ray.data

    from ocm_ray.ops.dedup import minhash_lsh_pairs

    df = _docs([f"some document body {i} with words" for i in range(30)])
    df.loc[0, "text"] = df.loc[1, "text"]  # one exact dup pair
    ds = ray.data.from_pandas(df).repartition(2)
    cache = str(tmp_path / "sigs")
    # simulate the old crash mode: parquet present, meta missing
    import os

    os.makedirs(cache)
    open(os.path.join(cache, "stale-000.parquet"), "wb").write(b"junk")
    out = minhash_lsh_pairs(ds, threshold=0.9, signature_cache_dir=cache)
    assert list(zip(out["a"], out["b"])) == [("d000", "d001")]
    assert os.path.exists(os.path.join(cache, "_sig_meta.json"))
    # second call reuses the now-complete cache byte-identically
    out2 = minhash_lsh_pairs(ds, threshold=0.9, signature_cache_dir=cache)
    pd.testing.assert_frame_equal(out, out2)


def test_fingerprint_is_batch_position_independent():
    """Identical texts must fingerprint identically regardless of where
    they sit in a batch (positions are within-doc, not batch-global)."""
    import ray.data

    from ocm_ray.ops.text import add_text_stats

    df = pd.DataFrame({"doc_id": ["a", "b", "c"],
                       "text": ["padding row first",
                                "the same exact text",
                                "the same exact text"]})
    out = add_text_stats(ray.data.from_pandas(df), concurrency=1) \
        .to_pandas().set_index("doc_id")
    assert out.loc["b", "fingerprint"] == out.loc["c", "fingerprint"]
    # and across different partitionings
    out2 = add_text_stats(ray.data.from_pandas(df).repartition(3),
                          concurrency=1).to_pandas().set_index("doc_id")
    assert (out2["fingerprint"] == out["fingerprint"]).all()


def test_null_text_rows_are_empty_text():
    """Null text = empty text across the text ops (the codec-wide
    convention) — TextStats crashed, gopher silently corrupted, and the
    unigram kernel could index past its table."""
    import ray.data

    from ocm_ray.ops.text import (add_text_stats, gopher_quality_flags,
                                  unigram_logprob)

    df = pd.DataFrame({"doc_id": ["a", "b", "c"],
                       "text": ["real words here", None, "more text"]})
    ds = ray.data.from_pandas(df)
    st = add_text_stats(ds, concurrency=1).to_pandas().set_index("doc_id")
    assert st.loc["b", "n_chars_text"] == 0
    gq = gopher_quality_flags(ds).to_pandas().set_index("doc_id")
    assert not gq.loc["b", "keep"]
    assert gq.loc["b", "n_words"] == 1  # "" splits to one empty token
    lp = unigram_logprob(ds).to_pandas()
    assert len(lp) == 3 and np.isfinite(lp["logprob"]).all()


def test_partitioned_window_int_values_schema_stable():
    """Empty shards must emit running_max/running_sum in the VALUE
    column's dtype (int64 here), matching populated shards."""
    import ray.data

    from ocm_ray.ops.relational import partitioned_window

    df = pd.DataFrame({"k": ["a"] * 6, "ord": range(6),
                       "tie": range(6), "v": np.arange(6, dtype=np.int64)})
    out = partitioned_window(ray.data.from_pandas(df), key="k",
                             order_col="ord", tie_col="tie",
                             value_col="v", n_shards=16)
    pdf = out.to_pandas()  # schema unification across 16 shards
    assert len(pdf) == 6
    assert pdf["running_sum"].to_numpy().dtype == np.int64


def test_asof_join_sharded_derives_right_vals():
    """Omitting right_vals must derive the value columns from the right
    schema (it used to default to the literal ['hourly_sum'])."""
    import ray.data

    from ocm_ray.ops.relational import asof_join_sharded

    left = pd.DataFrame({"k": ["x"] * 4, "ts": [10, 20, 30, 40]})
    right = pd.DataFrame({"k": ["x", "x"], "avail_ts": [5, 25],
                          "price": [1.5, 2.5]})
    out = asof_join_sharded(ray.data.from_pandas(left),
                            ray.data.from_pandas(right), key="k",
                            left_ts="ts", right_ts="avail_ts",
                            n_shards=4).to_pandas().sort_values("ts")
    assert out["price"].tolist() == [1.5, 1.5, 2.5, 2.5]


def test_windowed_distinct_shard_invariance():
    import ray.data

    from ocm_ray.ops.relational import windowed_distinct

    rng = np.random.default_rng(3)
    n = 5000
    df = pd.DataFrame({
        "event_type": rng.choice(["a", "b"], n),
        "ts": rng.integers(0, 4 * 3_600_000_000, n),
        "user_id": rng.integers(0, 800, n),
    })
    outs = []
    for ns in (4, 32):
        o = (windowed_distinct(ray.data.from_pandas(df).repartition(6),
                               window="1h", n_shards=ns)
             .to_pandas().sort_values(["event_type", "window_start"])
             .reset_index(drop=True))
        outs.append(o)
    pd.testing.assert_frame_equal(outs[0], outs[1])
    want = (df.assign(w=(df["ts"] // 3_600_000_000) * 3_600_000_000)
            .groupby(["event_type", "w"])["user_id"].nunique())
    assert outs[0]["n_distinct"].sum() == int(want.sum())


def test_shard_scan_all_blocks_empty_and_schema_less():
    """When EVERY upstream block is a schema-less empty (rule 8b), the
    scan fn must receive a schema'd empty synthesized from the dataset
    schema, not pa.table({})."""
    import ray.data

    from ocm_ray.ops.pairs import key_shard_fn, shard_scan, shard_scan2

    df = pd.DataFrame({"k": [f"u{i}" for i in range(40)],
                       "v": np.arange(40, dtype=np.int64)})
    ds = ray.data.from_pandas(df).repartition(4).map_batches(
        lambda t: t.slice(0, 0), batch_format="pyarrow")

    def scan(tbl):
        # a schema'd empty (would KeyError on pa.table({})); emit ONE
        # marker row so an early-return-without-invoking-scan regression
        # is detectable from the output row count
        assert "k" in tbl.schema.names
        return pa.table({"k": pa.array(["_marker"]),
                         "n": pa.array([tbl.num_rows], type=pa.int64())})

    out = shard_scan(ds, key_shard_fn("k", 4), scan, 4).to_pandas()
    assert len(out) == 4 and (out["n"] == 0).all()  # ran per shard

    def scan2(a, b):
        assert "k" in a.schema.names and "k" in b.schema.names
        return pa.table({"k": pa.array(["_marker"]),
                         "na": pa.array([a.num_rows], type=pa.int64())})

    full = ray.data.from_pandas(df).repartition(4)
    out2 = shard_scan2(ds, full, key_shard_fn("k", 4),
                       key_shard_fn("k", 4), scan2, 4).to_pandas()
    assert len(out2) == 4 and (out2["na"] == 0).all()


def test_grouped_sum_schema_stable_with_empty_blocks_and_int32():
    """An empty-but-schema'd block must come out of the combine with
    the AGGREGATED schema (int32 sums promote to int64, columns
    reordered) or the repartition tree fails schema unification."""
    import ray.data

    from ocm_ray.ops.agg import grouped_sum

    t = pa.table({"cnt": pa.array(np.arange(20, dtype=np.int32)),
                  "k": pa.array([f"s{i % 3}" for i in range(20)])})
    ds = ray.data.from_arrow(t).repartition(5).map_batches(
        lambda b: b.filter(pa.array(
            [x != "s2" for x in b.column("k").to_pylist()]))
        if b.num_rows else b, batch_format="pyarrow")
    out = grouped_sum(ds, ["k"], ["cnt"]).to_pandas()
    want = {"s0": sum(i for i in range(20) if i % 3 == 0),
            "s1": sum(i for i in range(20) if i % 3 == 1)}
    assert dict(zip(out["k"], out["cnt"])) == want


def test_table_fold_edge_inputs():
    """The block fold under grouped_sum/grouped_topk and the count and
    distinct ops built on it: inputs with no rows give zero rows and a
    distinct count of 0, and a schema-less empty block between two real
    blocks or pandas blocks match a pandas oracle."""
    import ray.data

    from ocm_ray.ops.agg import grouped_sum, grouped_topk
    from ocm_ray.ops.relational import (distinct_count,
                                        distinct_tokens_count,
                                        exact_token_counts)

    t = pa.table({"k": pa.array(["a", "b", None, "a", "c", "b"]),
                  "v": pa.array([1, 2, 3, 4, 5, 6], type=pa.int64()),
                  "tokens": pa.array([[1, 2], [2], [3, 3, 3], [], [7], [2, 1]],
                                     type=pa.list_(pa.int32()))})
    lo, hi = t.slice(0, 3), t.slice(3)
    empty = {
        "limit0": lambda: ray.data.from_arrow(t).limit(0),
        "filtered": lambda: ray.data.from_arrow(t).filter(lambda r: False),
    }
    for name, mk in empty.items():
        assert len(grouped_sum(mk(), ["k"], ["v"]).to_pandas()) == 0, name
        assert len(grouped_topk(mk(), ["k"], "v", 2).to_pandas()) == 0, name
        assert len(exact_token_counts(mk()).to_pandas()) == 0, name
        assert distinct_count(mk(), "k") == 0, name
        assert distinct_tokens_count(mk()) == 0, name

    def schema_less_mid(b: pa.Table) -> pa.Table:
        return pa.table({}) if b.num_rows == 1 else b

    full = {
        "schema_less_mid": lambda: ray.data.from_arrow(
            [lo, t.slice(0, 1), hi]).map_batches(
                schema_less_mid, batch_format="pyarrow", batch_size=None),
        "pandas": lambda: ray.data.from_pandas(
            [lo.to_pandas(), hi.to_pandas()]),
    }
    df = t.to_pandas()
    want_sum = df.groupby("k", dropna=False)["v"].sum()
    want_top = df.sort_values("v").groupby("k", dropna=False).tail(1)
    toks = pd.Series(np.concatenate(df["tokens"].to_list()))
    want_cnt = toks.value_counts()

    def rows(frame, cols):    # NULL key → a sortable marker
        return sorted(tuple("<null>" if pd.isna(x) else x for x in r)
                      for r in frame[cols].itertuples(index=False))

    for name, mk in full.items():
        got = grouped_sum(mk(), ["k"], ["v"]).to_pandas()
        assert rows(got, ["k", "v"]) == rows(want_sum.reset_index(),
                                             ["k", "v"]), name
        got = grouped_topk(mk(), ["k"], "v", 1).to_pandas()
        assert rows(got, ["k", "v"]) == rows(want_top, ["k", "v"]), name
        got = exact_token_counts(mk()).to_pandas()
        assert dict(zip(got["token"], got["cnt"])) == want_cnt.to_dict(), name
        assert distinct_count(mk(), "k") == 4, name          # NULL is one
        assert distinct_tokens_count(mk()) == len(want_cnt), name


def test_grouped_sketches_empty_blocks_and_null_keys():
    import ray.data

    from ocm_ray.engine.build import grouped_sketches
    from ocm_ray.sketches import HyperLogLog

    df = pd.DataFrame({
        "source": [f"s{i % 2}" for i in range(40)],
        "tokens": [list(range(i, i + 5)) for i in range(40)]})
    ds = ray.data.from_pandas(df).repartition(8).map_batches(
        lambda t: t.filter(pa.array(
            [s == "s0" for s in t.column("source").to_pylist()]))
        if t.num_rows else t, batch_format="pyarrow")
    out = grouped_sketches(ds, "source", lambda: HyperLogLog(10))
    assert set(out) == {"s0"}

    bad = pd.DataFrame({"source": ["a", None, "b"],
                        "tokens": [[1, 2], [3], [4]]})
    with pytest.raises(Exception, match="null"):
        grouped_sketches(ray.data.from_pandas(bad), "source",
                         lambda: HyperLogLog(10))
