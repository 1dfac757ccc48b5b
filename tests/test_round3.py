"""Round-3 regression tests: vectorized pair expansion, scale-shaped
sessionize, ADVICE fixes (simhash overflow, null tokens, RNG-counter
persistence, dirty-sink guard, ANN geometry guard)."""

import time

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

pytestmark = pytest.mark.usefixtures("ray_session")


def _brute_pairs(key, max_bucket=None):
    """Reference pair expansion: per-bucket Python loop (the old code)."""
    out = set()
    from collections import defaultdict

    buckets = defaultdict(list)
    for i, k in enumerate(key):
        buckets[k].append(i)
    for idxs in buckets.values():
        if len(idxs) < 2 or (max_bucket is not None and len(idxs) > max_bucket):
            continue
        for x in range(len(idxs)):
            for y in range(x + 1, len(idxs)):
                out.add((min(idxs[x], idxs[y]), max(idxs[x], idxs[y])))
    return out


def test_scan_runs_vectorized_parity():
    from ocm_ray.ops.pairs import _scan_runs

    rng = np.random.default_rng(11)
    key = rng.integers(0, 300, size=2000).astype(np.uint64)
    for cap in (None, 5):
        ii, jj = _scan_runs(key, cap)
        got = {(min(a, b), max(a, b)) for a, b in zip(ii.tolist(), jj.tolist())}
        assert got == _brute_pairs(key, cap)
        assert len(got) == len(ii)  # no duplicate index pairs emitted


def test_scan_runs_many_small_buckets_fast():
    """10^5 colliding buckets in one shard — the shape that cliffed the
    per-bucket Python loop. Vectorized expansion is sub-second."""
    from ocm_ray.ops.pairs import _scan_runs

    rng = np.random.default_rng(5)
    # 100k buckets x ~3 rows each
    key = np.repeat(np.arange(100_000, dtype=np.uint64),
                    rng.integers(2, 5, size=100_000))
    rng.shuffle(key)
    t0 = time.perf_counter()
    ii, jj = _scan_runs(key, None)
    dt = time.perf_counter() - t0
    # exact expected pair count: sum of C(len,2) over buckets
    lens = np.bincount(key.astype(np.int64))
    assert len(ii) == int((lens * (lens - 1) // 2).sum())
    assert (key[ii] == key[jj]).all()
    assert dt < 5.0, f"vectorized scan took {dt:.2f}s on 1e5 buckets"


def test_sessionize_100k_users_matches_pandas():
    """Scale shape: 100k distinct keys through sessionize without per-key
    dispatch (the old per-user map_groups would take ~100 s+ in dispatch
    alone); verified against a pandas reference."""
    import ray.data as rd

    from ocm_ray.ops.relational import sessionize

    rng = np.random.default_rng(17)
    n_users, n_events = 100_000, 400_000
    uid = rng.integers(0, n_users, size=n_events)
    ts_s = rng.integers(0, 40 * 86400, size=n_events)
    df = pd.DataFrame({"user_id": uid,
                       "ts": pd.to_datetime(ts_s, unit="s")})
    t0 = time.perf_counter()
    got = (sessionize(rd.from_pandas(df), gap_sec=1800)
           .to_pandas().sort_values("user_id").reset_index(drop=True))
    dt = time.perf_counter() - t0

    def ref_sessions(g):
        t = np.sort(g.astype("datetime64[s]").astype(np.int64).to_numpy())
        return 1 + int((np.diff(t) > 1800).sum())

    ref = (df.groupby("user_id")["ts"]
           .agg(n_events="size", n_sessions=ref_sessions)
           .reset_index().sort_values("user_id").reset_index(drop=True))
    assert len(got) == len(ref)
    assert (got["user_id"].to_numpy() == ref["user_id"].to_numpy()).all()
    assert (got["n_events"].to_numpy() == ref["n_events"].to_numpy()).all()
    assert (got["n_sessions"].to_numpy() == ref["n_sessions"].to_numpy()).all()
    assert dt < 120, f"sessionize took {dt:.1f}s at 100k users"


def test_sessionize_string_keys():
    import ray.data as rd

    from ocm_ray.ops.relational import sessionize

    df = pd.DataFrame({
        "user_id": ["a", "b", "a", "a", "b"],
        "ts": pd.to_datetime([0, 10, 100, 10_000, 20], unit="s"),
    })
    got = (sessionize(rd.from_pandas(df), gap_sec=1800)
           .to_pandas().sort_values("user_id").reset_index(drop=True))
    assert got["user_id"].tolist() == ["a", "b"]
    assert got["n_events"].tolist() == [3, 2]
    assert got["n_sessions"].tolist() == [2, 1]  # a: gap 100→10000s > 1800


def test_simhash_spammy_repeated_token_no_overflow():
    """A doc dominated by one repeated token (>32767 occurrences) must
    produce the SAME fingerprint as a single occurrence — int16
    accumulation used to wrap and flip bits (ADVICE r2)."""
    import ray.data as rd

    from ocm_ray.ops.dedup import simhash_fingerprints

    df = pd.DataFrame({
        "doc_id": [0, 1],
        "text": [" ".join(["spam"] * 40_000), "spam"],
    })
    out = (simhash_fingerprints(rd.from_pandas(df))
           .to_pandas().sort_values("doc_id"))
    assert out["simhash"].iloc[0] == out["simhash"].iloc[1]


def test_split_words_hashed_null_strings():
    from ocm_ray.engine.tokens import hash_string_array, split_words_hashed

    arr = pa.array(["a b", None, "c"])
    flat, lens = split_words_hashed(arr)
    # null row behaves as "" → one empty-string token
    assert lens.tolist() == [2, 1, 1]
    assert len(flat) == 4
    empty_hash = hash_string_array(pa.array([""]))[0]
    assert flat[2] == empty_hash


def test_countmin_pow2_rng_ctr_persists():
    from ocm_ray.sketches.base import MergeableSketch
    from ocm_ray.sketches.countmin import CountMinPow2

    sk = CountMinPow2(np_bits=8, nh=3, seedseed=42)
    items = np.arange(1000, dtype=np.uint64)
    sk.update(items, np.full(1000, 50, dtype=np.int64))
    assert sk._rng_ctr[0] > 0
    restored = MergeableSketch.from_bytes(sk.to_bytes())
    assert restored._rng_ctr[0] == sk._rng_ctr[0]
    # continued updates on the restored sketch draw the SAME stream as
    # the original continuing — not a fresh sketch's replayed stream
    sk.update(items, np.full(1000, 50, dtype=np.int64))
    restored.update(items, np.full(1000, 50, dtype=np.int64))
    assert (restored.core == sk.core).all()
    assert restored._rng_ctr[0] == sk._rng_ctr[0]


def test_curate_refuses_dirty_out_dir(tmp_path):
    from ocm_ray.pipelines.pretraining import curate

    out = tmp_path / "sink"
    (out / "source=web").mkdir(parents=True)
    (out / "source=web" / "stale.parquet").write_bytes(b"junk")
    with pytest.raises(FileExistsError):
        curate("/root/testdata/sf0.001/documents.parquet", str(out))


def test_lsh_topk_geometry_mismatch_raises(tmp_path):
    import ray.data as rd

    from ocm_ray.ops.similarity import build_ann_index, lsh_topk

    rng = np.random.default_rng(3)
    df = pd.DataFrame({
        "vec_id": np.arange(50),
        "embedding": list(rng.normal(size=(50, 8))),
    })
    idx = str(tmp_path / "idx")
    build_ann_index(rd.from_pandas(df), idx, bits=6)
    q = rng.normal(size=(1, 8))
    with pytest.raises(ValueError):
        lsh_topk(None, q, k=3, bits=4, index_dir=idx)
    with pytest.raises(ValueError):
        lsh_topk(None, q, k=3, seedseed=999, index_dir=idx)
    # matching explicit geometry passes
    out = lsh_topk(None, q, k=3, bits=6, seedseed=137, index_dir=idx)
    assert len(out) <= 3


def test_stratified_sample_missing_and_nonstring_keys():
    """index_in path: unlisted keys take default_fraction exactly."""
    import ray.data as rd

    from ocm_ray.ops.sampling import stratified_sample

    df = pd.DataFrame({"doc_id": np.arange(4000),
                       "source": np.repeat(["web", "code", "books", "other"],
                                           1000)})
    out = stratified_sample(rd.from_pandas(df), "source",
                            {"web": 0.0, "code": 1.0},
                            default_fraction=0.5).to_pandas()
    got = out.groupby("source").size()
    assert got.get("web", 0) == 0
    assert got["code"] == 1000
    for k in ("books", "other"):
        assert 350 < got[k] < 650


def test_setsketch_estimators():
    """SetSketch (setsketch.h:537-775 semantics): cardinality within
    ~4/sqrt(m), Jaccard/union via alpha-beta, exact merge law, byte/
    nibble/short presets, serialization round trip, and the threshold-
    count equivalence of the register codec."""
    from ocm_ray.sketches import SetSketch
    from ocm_ray.sketches.base import MergeableSketch

    n = 100_000
    for mk in (SetSketch.byte, SetSketch.short):
        sk = mk(1024)
        sk.update(np.arange(n, dtype=np.uint64))
        assert abs(sk.estimate() - n) / n < 0.12

    items = np.arange(50_000, dtype=np.uint64)
    a, b = SetSketch.byte(1024), SetSketch.byte(1024)
    a.update(items[:30_000])
    b.update(items[15_000:])          # |A∩B|=15k, |A∪B|=50k → J=0.3
    assert abs(a.jaccard(b) - 0.3) < 0.08
    assert abs(a.union_size(b) - 50_000) / 50_000 < 0.12

    # merge == bulk build (max-mergeable registers), any partitioning
    m1 = SetSketch.byte(1024)
    m1.update(items[:30_000])
    m1.merge(b)
    full = SetSketch.byte(1024)
    full.update(items)
    assert (m1.core == full.core).all()

    # serialization reconstructs geometry + registers
    rt = MergeableSketch.from_bytes(full.to_bytes())
    assert (rt.core == full.core).all() and rt._params() == full._params()

    # counts are irrelevant to a set sketch (set semantics)
    c1 = SetSketch.byte(256)
    c1.update(items[:1000], np.full(1000, 99, dtype=np.int64))
    c2 = SetSketch.byte(256)
    c2.update(items[:1000])
    assert (c1.core == c2.core).all()

    # register codec: K equals the count of thresholds exp(-a*b^(1-k)) <= U
    sk = SetSketch.byte(64)
    k = sk._k_matrix(np.arange(500, dtype=np.uint64))
    from ocm_ray.core.hashing import wanghash
    h = wanghash(np.arange(500, dtype=np.uint64)[:, None] ^ sk._seeds[None, :])
    u = (h.astype(np.float64) + 1.0) / np.float64(2.0**64)
    ks = np.arange(1, sk.q + 2, dtype=np.float64)
    thr = np.exp(-sk.a * sk.b ** (1.0 - ks))
    alt = np.searchsorted(thr, u.ravel(), side="right").reshape(u.shape)
    assert (k == alt).all()


def test_ivf_index_recall_and_pruning(tmp_path):
    """IVF ANN (k-means coarse quantizer + cell-partitioned Parquet):
    high recall on clustered data at n_probe=4/32, perfect recall when
    probing every cell, deterministic rebuild."""
    import ray.data as rd

    from ocm_ray.ops.similarity import (brute_force_topk, build_ivf_index,
                                        ivf_topk)

    rng = np.random.default_rng(5)
    centers = rng.normal(size=(20, 16)) * 3
    pts = np.vstack([c + rng.normal(size=(150, 16)) * 0.4 for c in centers])
    df = pd.DataFrame({"vec_id": np.arange(len(pts)),
                       "embedding": list(pts)})
    idx = str(tmp_path / "ivf")
    meta = build_ivf_index(rd.from_pandas(df), idx, n_centroids=32)
    assert meta["dim"] == 16 and meta["n_centroids"] == 32

    q = pts[[5, 777, 2345]] + rng.normal(size=(3, 16)) * 0.1
    exact = brute_force_topk(rd.from_pandas(df), q, k=10)
    key = lambda d: set(map(tuple, d[["query_idx", "vec_id"]].values))

    approx = ivf_topk(q, k=10, n_probe=4, index_dir=idx)
    assert len(key(approx) & key(exact)) / len(exact) >= 0.8

    full = ivf_topk(q, k=10, n_probe=32, index_dir=idx)
    assert key(full) == key(exact)  # probing all cells == exact

    # deterministic rebuild: same centroids byte-for-byte
    meta2 = build_ivf_index(rd.from_pandas(df), str(tmp_path / "ivf2"),
                            n_centroids=32)
    assert meta2["centroids"] == meta["centroids"]


def test_shard_scan_exchange_properties():
    """shard_scan (the raw-task exchange behind collision_pairs,
    sessionize, bloom/exact dedup, embedding buckets): exhaustive row
    exchange (no loss/duplication), shard purity (each scan sees only
    its shard), empty input, and the n_shards=1 fast path."""
    import ray.data as rd

    from ocm_ray.ops.pairs import shard_scan

    n = 10_000
    df = pd.DataFrame({"k": np.arange(n, dtype=np.int64),
                       "v": np.arange(n, dtype=np.int64) * 2})
    ds = rd.from_pandas(df).repartition(7)

    def shard_of(tbl):
        return (tbl.column("k").to_numpy() % 8).astype(np.int32)

    def scan(tbl):
        k = tbl.column("k").to_numpy(zero_copy_only=False)
        assert len(np.unique(k % 8)) <= 1  # shard purity
        return tbl

    out = shard_scan(ds, shard_of, scan, 8).to_pandas() \
        .sort_values("k").reset_index(drop=True)
    assert len(out) == n
    assert (out["k"].to_numpy() == np.arange(n)).all()
    assert (out["v"].to_numpy() == np.arange(n) * 2).all()

    # n_shards=1: single concat scan over all blocks
    one = shard_scan(ds, shard_of, lambda t: t, 1).to_pandas()
    assert len(one) == n

    # empty input: scan_fn sees an empty table with the right schema
    # (typed arrow empty — from_pandas on an empty frame degrades
    # dtypes to null, a pandas quirk unrelated to the exchange)
    empty = rd.from_arrow(pa.table({"k": pa.array([], pa.int64()),
                                    "v": pa.array([], pa.int64())}))
    out_e = shard_scan(empty, shard_of,
                       lambda t: t.append_column(
                           "n", pa.array(np.full(t.num_rows, 1,
                                                 dtype=np.int64))), 4)
    # NB Dataset.to_pandas drops columns when every block is empty (Ray
    # quirk; library call sites guard len==0) — check schema + count
    assert out_e.count() == 0
    assert "n" in out_e.schema().names


def test_exact_token_counts_sharded_parity(tmp_path):
    """Files-based fused-read exact counts == Dataset-path exact counts
    == a numpy oracle, on a vocab corpus and on one with negative ids and
    ids past the combiner's dense domain (the sorted-run path);
    distinct_tokens_count is the table's row count."""
    import glob
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from ocm_ray.data.sequences import ensure_sequences
    from ocm_ray.ops.relational import (distinct_tokens_count,
                                        exact_token_counts,
                                        exact_token_counts_sharded)
    from ocm_ray.sketches.base import CountCombiner

    rng = np.random.default_rng(16)
    wide = str(tmp_path / "wide")
    os.makedirs(wide)
    for i in range(5):
        rows = [rng.integers(-40, CountCombiner.DENSE_DOMAIN + 40,
                             int(rng.integers(0, 60))).astype(np.int32)
                for _ in range(80)]
        rows.append(np.array([-1, CountCombiner.DENSE_DOMAIN, -1], np.int32))
        pq.write_table(pa.table({"tokens": pa.array(
            rows, type=pa.list_(pa.int32()))}),
            os.path.join(wide, f"part-{i:05d}.parquet"))
    for seq in (ensure_sequences(1000, seed=42, n_files=8), wide):
        files = sorted(glob.glob(os.path.join(seq, "*.parquet")))
        a = exact_token_counts_sharded(files).to_pandas() \
            .sort_values("token").reset_index(drop=True)
        b = exact_token_counts(rd.read_parquet(seq, columns=["tokens"])) \
            .to_pandas().sort_values("token").reset_index(drop=True)
        assert a.equals(b)
        flat = np.concatenate([pq.read_table(f).column("tokens")
                               .combine_chunks().values.to_numpy()
                               for f in files])
        u, c = np.unique(flat, return_counts=True)
        assert a["token"].dtype == np.int32 and a["cnt"].dtype == np.int64
        assert np.array_equal(a["token"], u) and np.array_equal(a["cnt"], c)
        assert distinct_tokens_count(
            rd.read_parquet(seq, columns=["tokens"])) == len(a)


def test_windowed_distinct_matches_pandas():
    import ray.data as rd

    from ocm_ray.ops.relational import windowed_distinct

    rng = np.random.default_rng(23)
    n = 20_000
    df = pd.DataFrame({
        "event_type": rng.choice(["a", "b", "c"], size=n),
        "user_id": rng.integers(0, 500, size=n),
        "ts": pd.to_datetime(rng.integers(0, 5 * 86400, size=n), unit="s"),
    })
    got = (windowed_distinct(rd.from_pandas(df).repartition(6), window="1h")
           .to_pandas().sort_values(["event_type", "window_start"])
           .reset_index(drop=True))
    ref = (df.assign(window_start=df["ts"].dt.floor("h"))
           .groupby(["event_type", "window_start"], as_index=False)
           .agg(n_distinct=("user_id", "nunique"))
           .sort_values(["event_type", "window_start"])
           .reset_index(drop=True))
    assert len(got) == len(ref)
    assert (got["n_distinct"].to_numpy() == ref["n_distinct"].to_numpy()).all()
    assert (got["window_start"].to_numpy() == ref["window_start"]
            .to_numpy().astype("datetime64[us]")).all()


def test_dup_clusters_union_find():
    from ocm_ray.ops.dedup import dup_clusters

    pairs = pd.DataFrame({"a": [1, 2, 10, 20, 2],
                          "b": [2, 3, 11, 21, 7]})
    out = dup_clusters(pairs).sort_values("doc_id").reset_index(drop=True)
    # components: {1,2,3,7}, {10,11}, {20,21} labeled by min member
    expect = {1: 1, 2: 1, 3: 1, 7: 1, 10: 10, 11: 10, 20: 20, 21: 20}
    assert dict(zip(out["doc_id"], out["cluster_id"])) == expect
    assert len(dup_clusters(pd.DataFrame({"a": [], "b": []}))) == 0


def test_asof_join_sharded_matches_pandas_merge_asof():
    """Large x large as-of join through the two-sided shard exchange:
    parity with pandas merge_asof(by=key) on random data, including
    equal-timestamp matches and unmatched-left drops."""
    import ray.data as rd

    from ocm_ray.ops.relational import asof_join_sharded

    rng = np.random.default_rng(31)
    nl, nr = 30_000, 2_000
    keys = np.array([f"k{i}" for i in range(40)])
    left = pd.DataFrame({
        "event_type": rng.choice(keys, size=nl),
        "ts": pd.to_datetime(rng.integers(0, 10 * 86400, size=nl), unit="s"),
        "val": rng.normal(size=nl),
    })
    rts = np.unique(rng.integers(0, 10 * 86400, size=nr))
    right = pd.DataFrame({
        "event_type": rng.choice(keys, size=len(rts)),
        "avail_ts": pd.to_datetime(rts, unit="s"),
        "hourly_sum": rng.normal(size=len(rts)),
    }).drop_duplicates(["event_type", "avail_ts"])

    got = (asof_join_sharded(rd.from_pandas(left).repartition(5),
                             rd.from_pandas(right).repartition(3),
                             right_vals=["hourly_sum"])
           .to_pandas()
           .sort_values(["event_type", "ts", "val"]).reset_index(drop=True))

    ref = pd.merge_asof(
        left.sort_values("ts"), right.sort_values("avail_ts"),
        left_on="ts", right_on="avail_ts", by="event_type",
        direction="backward")
    ref = ref[ref["avail_ts"].notna()] \
        .sort_values(["event_type", "ts", "val"]).reset_index(drop=True)

    assert len(got) == len(ref)
    assert (got["event_type"].to_numpy() == ref["event_type"].to_numpy()).all()
    assert np.allclose(got["hourly_sum"].to_numpy(),
                       ref["hourly_sum"].to_numpy())
    assert (got["avail_ts"].to_numpy().astype("datetime64[us]")
            == ref["avail_ts"].to_numpy().astype("datetime64[us]")).all()


def _naive_winnow(words, k, window):
    """Per-doc reference winnowing: scalar hashes, explicit windows,
    leftmost-min tie-break. Independent of the vectorized kernel."""
    from ocm_ray.core.hashing import stable_hash_scalar, wanghash_scalar

    hs = [stable_hash_scalar(w, 137) for w in words]
    grams = []
    for i in range(len(hs) - k + 1):
        acc = wanghash_scalar(hs[i])
        for j in range(1, k):
            acc = wanghash_scalar(acc ^ hs[i + j])
        grams.append(acc)
    sel = set()
    for s in range(len(grams) - window + 1):
        w = grams[s:s + window]
        mn = min(w)
        sel.add((s + w.index(mn), np.uint64(mn).astype(np.int64).item()))
    return sel


def test_winnow_fingerprints_matches_naive():
    import ray.data as rd

    from ocm_ray.ops.text import winnow_fingerprints

    rng = np.random.default_rng(11)
    vocab = [f"w{i}" for i in range(30)]  # small vocab → plenty of ties
    docs, texts = [], []
    for d in range(60):
        n = int(rng.integers(0, 25))     # incl. docs too short to emit
        texts.append(" ".join(rng.choice(vocab, n)))
        docs.append(d)
    df = pd.DataFrame({"doc_id": docs, "text": texts})

    got = winnow_fingerprints(rd.from_pandas(df).repartition(4),
                              k=3, window=4).to_pandas()
    got_set = {(d, p, f) for d, p, f in
               zip(got["doc_id"], got["pos"], got["fp"])}

    exp_set = set()
    for d, t in zip(docs, texts):
        for p, f in _naive_winnow(t.split(" "), 3, 4):
            exp_set.add((d, p, f))
    assert got_set == exp_set
    # density sanity: winnowing selects ≥ 1 per window run, ≪ all grams
    n_grams = sum(max(len(t.split(" ")) - 2, 0) for t in texts)
    assert 0 < len(got_set) < n_grams


def test_winnow_shared_run_guarantee():
    """Two docs sharing >= window + k - 1 consecutive words share at
    least one identical (fingerprint) value — the SIGMOD'03 guarantee."""
    import ray.data as rd

    from ocm_ray.ops.text import winnow_fingerprints

    shared = "alpha beta gamma delta epsilon zeta"  # 6 = 4 + 3 - 1 words
    df = pd.DataFrame({
        "doc_id": [0, 1],
        "text": [f"one two {shared} three four",
                 f"five six seven {shared} eight"],
    })
    out = winnow_fingerprints(rd.from_pandas(df), k=3, window=4).to_pandas()
    fps0 = set(out.loc[out.doc_id == 0, "fp"])
    fps1 = set(out.loc[out.doc_id == 1, "fp"])
    assert fps0 & fps1


def test_gopher_quality_rules():
    import ray.data as rd

    from ocm_ray.ops.text import gopher_quality_flags

    common = "the bird went to one of those hills and that dog would have run with it"
    good = " ".join([common] * 5)          # 80 words, all rules pass
    docs = pd.DataFrame({"doc_id": range(5), "text": [
        good,
        "too short to keep",                               # word count
        " ".join(["abcdefghijklmnop"] * 60),               # mean len > 10
        " ".join([common] * 5) + " " + " ".join(["#"] * 30),  # symbols, alpha
        " ".join(["zzz"] * 60),                            # no req. stopwords
    ]})
    out = gopher_quality_flags(rd.from_pandas(docs)).to_pandas() \
        .set_index("doc_id").sort_index()
    assert bool(out.loc[0, "keep"])
    assert not out.loc[1, "ok_word_count"]
    assert not out.loc[2, "ok_mean_len"]
    assert not out.loc[3, "ok_symbol"] and not out.loc[3, "ok_alpha"]
    assert not out.loc[4, "ok_stop"]
    assert not out.loc[1:, "keep"].any()


def test_gopher_repetition_by_hand():
    import ray.data as rd

    from ocm_ray.ops.text import gopher_repetition_flags

    long_clean = " ".join(f"w{i:03d}" for i in range(60))  # 60 distinct words
    docs = pd.DataFrame({"doc_id": [0, 1, 2], "text": [
        # "a b" twice (2*3=6 chars); distinct trigrams ("a b a", "b a b")
        "a b a b",
        # spam: "x x" 5x -> top2=5*3=15, "x x x" 4x -> top3=4*5=20=dup3
        "x x x x x x",
        # long clean doc: every gram count 1 -> top2 is one bigram's chars
        long_clean,
    ]})
    out = gopher_repetition_flags(rd.from_pandas(docs)).to_pandas() \
        .set_index("doc_id").sort_index()
    assert out.loc[0, "top2_chars"] == 6          # "a b" x2, len 3
    assert out.loc[0, "dup3_chars"] == 0          # both trigrams unique
    assert out.loc[1, "top2_chars"] == 15
    assert out.loc[1, "top3_chars"] == 20
    assert out.loc[1, "dup3_chars"] == 20
    assert not out.loc[1, "keep"]                 # n_chars=11: all fail
    assert out.loc[2, "top2_chars"] == 9          # one "wAAA wBBB" bigram
    assert out.loc[2, "dup3_chars"] == 0
    assert bool(out.loc[2, "keep"])               # 9/299 etc. under thresholds
    # rule arithmetic: ok_top2 is 5*top2 <= n_chars
    assert (out["ok_top2"] == (5 * out["top2_chars"] <= out["n_chars"])).all()


def test_unigram_logprob_by_hand():
    import ray.data as rd

    from ocm_ray.ops.text import unigram_logprob

    # corpus counts: a=3, b=2, c=1 → total 6
    docs = pd.DataFrame({"doc_id": [0, 1], "text": ["a b a", "a b c"]})
    out = unigram_logprob(rd.from_pandas(docs)).to_pandas() \
        .set_index("doc_id").sort_index()
    lp = {"a": np.log2(3 / 6), "b": np.log2(2 / 6), "c": np.log2(1 / 6)}
    exp0 = round((lp["a"] + lp["b"] + lp["a"]) / 3, 4)
    exp1 = round((lp["a"] + lp["b"] + lp["c"]) / 3, 4)
    assert out.loc[0, "logprob"] == pytest.approx(exp0, abs=1e-9)
    assert out.loc[1, "logprob"] == pytest.approx(exp1, abs=1e-9)


class TestSlidingWindowCM:
    def _trailing_counts(self, stream, W):
        from collections import Counter
        return Counter(stream[-W:] if len(stream) > W else stream)

    def test_matches_exact_when_collision_free(self):
        from ocm_ray.sketches.sliding import SlidingWindowCM

        rng = np.random.default_rng(3)
        stream = rng.integers(0, 50, 5000).astype(np.uint64)
        sw = SlidingWindowCM(window=300, np_bits=14, nh=5)
        for lo in range(0, len(stream), 257):   # ragged batches
            sw.update(stream[lo:lo + 257])
        true = self._trailing_counts(stream.tolist(), 300)
        keys = np.array(sorted(set(stream.tolist())), dtype=np.uint64)
        est = sw.estimate(keys)
        exact = np.array([true.get(int(k), 0) for k in keys])
        # 50 keys in 2^14 cells x 5 rows: collision-free in practice
        assert (est == exact).all()
        assert int(sw.cm.n_items[0]) == 300  # window fill tracked

    def test_one_sided_under_collisions(self):
        from ocm_ray.sketches.sliding import SlidingWindowCM

        rng = np.random.default_rng(4)
        stream = rng.integers(0, 5000, 20000).astype(np.uint64)
        sw = SlidingWindowCM(window=1000, np_bits=6, nh=3)
        sw.update(stream)
        true = self._trailing_counts(stream.tolist(), 1000)
        keys = np.unique(stream)
        est = sw.estimate(keys)
        exact = np.array([true.get(int(k), 0) for k in keys])
        assert (est >= exact).all()          # one-sided vs window counts
        assert (sw.cm.core >= 0).all()       # cells never go negative

    def test_batch_split_invariance_and_big_batch(self):
        from ocm_ray.sketches.sliding import SlidingWindowCM

        rng = np.random.default_rng(5)
        stream = rng.integers(0, 100, 3000).astype(np.uint64)

        def run(chunks):
            sw = SlidingWindowCM(window=64, np_bits=10, nh=3)
            for c in chunks:
                sw.update(c)
            return sw

        a = run([stream])                       # m >> W in one call
        b = run(np.array_split(stream, 173))    # many ragged calls
        c = run([stream[:1], stream[1:]])
        assert (a.cm.core == b.cm.core).all()
        assert (a.cm.core == c.cm.core).all()
        assert (a._buf == b._buf).all()

    def test_save_load_roundtrip(self, tmp_path):
        from ocm_ray.sketches.sliding import SlidingWindowCM

        rng = np.random.default_rng(6)
        sw = SlidingWindowCM(window=32, np_bits=8, nh=3)
        sw.update(rng.integers(0, 40, 500).astype(np.uint64))
        p = str(tmp_path / "sw.npz")
        sw.save(p)
        back = SlidingWindowCM.load(p)
        more = rng.integers(0, 40, 100).astype(np.uint64)
        sw.update(more)
        back.update(more)
        assert (sw.cm.core == back.cm.core).all()
        assert (sw._buf == back._buf).all()


def test_partitioned_window_matches_duckdb():
    """row_number / rank / dense_rank / gap / running max+sum vs DuckDB
    window functions, with deliberate order-value ties and integer
    values (running_sum exact)."""
    import duckdb
    import ray.data as rd

    from ocm_ray.ops.relational import partitioned_window

    rng = np.random.default_rng(11)
    n = 5000
    df = pd.DataFrame({
        "event_id": np.arange(n, dtype=np.int64),
        "user_id": rng.integers(0, 40, n),
        # coarse grid -> plenty of (user, ts) ties
        "ts": pd.to_datetime(rng.integers(0, 500, n) * 3_600_000_000,
                             unit="us"),
        "value": rng.integers(-50, 50, n).astype(float),
    })
    got = (partitioned_window(rd.from_pandas(df, override_num_blocks=5),
                              n_shards=8)
           .to_pandas().sort_values("event_id").reset_index(drop=True))
    con = duckdb.connect()
    con.register("events", df)
    want = con.execute("""
        SELECT event_id, user_id,
               ROW_NUMBER() OVER w AS row_number,
               RANK() OVER (PARTITION BY user_id ORDER BY ts) AS rank,
               DENSE_RANK() OVER (PARTITION BY user_id ORDER BY ts) AS dense_rank,
               PERCENT_RANK() OVER (PARTITION BY user_id ORDER BY ts)
                   AS percent_rank,
               CUME_DIST() OVER (PARTITION BY user_id ORDER BY ts)
                   AS cume_dist,
               NTILE(4) OVER w AS ntile4,
               COALESCE(CAST(epoch_us(ts) - LAG(epoch_us(ts)) OVER w AS BIGINT),
                        -1) AS gap_us,
               MAX(value) OVER (w ROWS UNBOUNDED PRECEDING) AS running_max,
               SUM(value) OVER (w ROWS UNBOUNDED PRECEDING) AS running_sum,
               LAG(value) OVER w AS lag_value,
               LEAD(value) OVER w AS lead_value
        FROM events
        WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
        ORDER BY event_id
    """).df()
    for c in ["user_id", "row_number", "rank", "dense_rank", "ntile4",
              "gap_us"]:
        assert (got[c].to_numpy() == want[c].to_numpy()).all(), c
    # exact small-integer divisions: bit-identical doubles, zero atol
    for c in ["percent_rank", "cume_dist"]:
        assert (got[c].to_numpy() == want[c].to_numpy()).all(), c
    for c in ["running_max", "running_sum"]:
        np.testing.assert_allclose(got[c], want[c], atol=1e-9, err_msg=c)
    for c in ["lag_value", "lead_value"]:  # exact copies, NaN at edges
        ge, we = got[c].to_numpy(), want[c].to_numpy()
        assert ((ge == we) | (np.isnan(ge) & np.isnan(we))).all(), c


def test_grouped_topk_partition_invariance_and_ties():
    """Per-block top-k-per-key is a valid partial reducer: result is
    exact and block-layout independent; ties resolved by tie_cols asc."""
    import ray.data as rd

    from ocm_ray.ops.agg import grouped_topk

    rng = np.random.default_rng(3)
    df = pd.DataFrame({"g": rng.integers(0, 12, 3000),
                       "item": rng.integers(0, 40, 3000),
                       "score": rng.integers(0, 5, 3000).astype(np.int64)})
    df = df.drop_duplicates(["g", "item"]).reset_index(drop=True)

    def ref(k):
        s = df.sort_values(["g", "score", "item"],
                           ascending=[True, False, True], kind="mergesort")
        return s.groupby("g", sort=True).head(k) \
            .sort_values(["g", "score", "item"],
                         ascending=[True, False, True], ignore_index=True)

    for nb in (1, 9):
        got = (grouped_topk(rd.from_pandas(df, override_num_blocks=nb),
                            ["g"], "score", 3, tie_cols=["item"])
               .to_pandas()
               .sort_values(["g", "score", "item"],
                            ascending=[True, False, True],
                            ignore_index=True))
        pd.testing.assert_frame_equal(got, ref(3))
        # keys=[]: the exact global top-k, returned in collation order
        # (item alone does not break every score tie across groups, so
        # g is the last tie column)
        top = (grouped_topk(rd.from_pandas(df, override_num_blocks=nb),
                            [], "score", 25, tie_cols=["item", "g"])
               .to_pandas())
        want = df.sort_values(["score", "item", "g"],
                              ascending=[False, True, True],
                              kind="mergesort").head(25) \
            .reset_index(drop=True)
        pd.testing.assert_frame_equal(top, want)


def test_chunk_documents_reconstruction():
    """Chunks tile every doc: stride-offset windows, exact text slices,
    tail chunk short, chunk 0 of a (size<=len) doc reconstructs the
    prefix; empty docs chunk to one empty chunk (string_split
    semantics)."""
    import ray.data as rd

    from ocm_ray.ops.text import chunk_documents

    rng = np.random.default_rng(5)
    texts = [" ".join(f"w{rng.integers(100)}"
                      for _ in range(int(n)))
             for n in rng.integers(1, 90, 60)] + ["", "one"]
    df = pd.DataFrame({"doc_id": np.arange(len(texts)), "text": texts})
    size, stride = 16, 10
    out = (chunk_documents(rd.from_pandas(df, override_num_blocks=4),
                           size=size, stride=stride)
           .to_pandas().sort_values(["doc_id", "chunk_id"]))
    for did, g in out.groupby("doc_id"):
        words = df.loc[did, "text"].split(" ")
        n = len(words)
        assert g["chunk_id"].tolist() == list(range(-(-n // stride)))
        for _, r in g.iterrows():
            s = int(r.chunk_id) * stride
            want = words[s:s + size]
            assert r.text == " ".join(want)
            assert r.n_words == len(want)


def test_grouped_quantiles_matches_duckdb():
    import duckdb
    import ray.data as rd

    from ocm_ray.ops.relational import grouped_quantiles

    rng = np.random.default_rng(1)
    ev = pd.DataFrame({"et": rng.choice(["a", "b", "c"], 2000),
                       "value": rng.normal(0, 10, 2000)})
    got = (grouped_quantiles(rd.from_pandas(ev, override_num_blocks=4),
                             "et", "value", (0.1, 0.5, 0.99), n_shards=4)
           .to_pandas().sort_values(["et", "q"], ignore_index=True))
    con = duckdb.connect()
    con.register("ev", ev)
    want = con.execute("""
      SELECT et, 0.1 AS q, quantile_disc(value, 0.1) AS value FROM ev GROUP BY et
      UNION ALL SELECT et, 0.5, quantile_disc(value, 0.5) FROM ev GROUP BY et
      UNION ALL SELECT et, 0.99, quantile_disc(value, 0.99) FROM ev GROUP BY et
      ORDER BY et, q""").df()
    assert got["et"].tolist() == want["et"].tolist()
    np.testing.assert_allclose(got["value"], want["value"])


def test_bigram_logprob_matches_duckdb():
    """Incl. short docs (0/1 words omitted) and repeated-bigram docs."""
    import duckdb
    import ray.data as rd

    from ocm_ray.ops.text import bigram_logprob

    docs = pd.DataFrame({"doc_id": np.arange(6),
                         "text": ["a b a b c", "c c c c", "a", "",
                                  "b c a b", "x y x y x"]})
    got = (bigram_logprob(rd.from_pandas(docs, override_num_blocks=3))
           .to_pandas().sort_values("doc_id", ignore_index=True))
    con = duckdb.connect()
    con.register("documents", docs)
    want = con.execute("""
      WITH t AS (SELECT doc_id, string_split(text, ' ') AS ws FROM documents),
      bg AS (SELECT doc_id, ws[j] AS w1, ws[j+1] AS w2
             FROM t, UNNEST(range(1, len(ws))) AS r(j)),
      bc AS (SELECT w1, w2, COUNT(*) AS cb FROM bg GROUP BY w1, w2),
      ctx AS (SELECT w1, COUNT(*) AS cc FROM bg GROUP BY w1)
      SELECT doc_id, ROUND(AVG(log2(CAST(cb AS DOUBLE) / cc)), 4) AS logprob
      FROM bg JOIN bc USING (w1, w2) JOIN ctx USING (w1)
      GROUP BY doc_id ORDER BY doc_id""").df()
    assert got["doc_id"].tolist() == want["doc_id"].tolist()
    np.testing.assert_allclose(got["logprob"], want["logprob"], atol=1e-9)


def test_sample_n_per_key_deterministic():
    """Partition-invariant membership, exact per-key sizes, seed
    sensitivity."""
    import ray.data as rd

    from ocm_ray.ops.sampling import sample_n_per_key

    df = pd.DataFrame({"doc_id": np.arange(500),
                       "source": np.repeat([f"s{i}" for i in range(5)], 100)})
    outs = []
    for nb in (3, 8):
        outs.append(sample_n_per_key(rd.from_pandas(df, override_num_blocks=nb),
                                     "source", n=7).to_pandas()
                    .sort_values(["source", "doc_id"], ignore_index=True))
    pd.testing.assert_frame_equal(outs[0], outs[1])
    assert (outs[0].groupby("source").size() == 7).all()
    other = (sample_n_per_key(rd.from_pandas(df), "source", n=7, seed=999)
             .to_pandas().sort_values(["source", "doc_id"],
                                      ignore_index=True))
    assert not other["doc_id"].tolist() == outs[0]["doc_id"].tolist()


def test_encode_documents_roundtrip():
    """Encoded ids decode back to the original words (within-vocab),
    OOV marked, partition-invariant."""
    import ray.data as rd

    from ocm_ray.ops.text import build_vocab, encode_documents

    docs = pd.DataFrame({"doc_id": np.arange(4),
                         "text": ["b a a c", "c c b rare", "a", ""]})
    ds = rd.from_pandas(docs, override_num_blocks=2)
    vocab = build_vocab(ds, max_size=3)   # a(3) c(4)? -> by cnt desc
    out = (encode_documents(ds, vocab=vocab).to_pandas()
           .sort_values("doc_id", ignore_index=True))
    id2tok = dict(zip(vocab["token_id"], vocab["token"]))
    for _, r in out.iterrows():
        words = docs.loc[docs.doc_id == r.doc_id, "text"].iloc[0].split(" ")
        ids = [int(x) for x in r.ids.split(" ")]
        assert len(ids) == len(words) == r.n_tokens
        n_oov = 0
        for w, i in zip(words, ids):
            if i == -1:
                assert w not in set(vocab["token"])
                n_oov += 1
            else:
                assert id2tok[i] == w
        assert n_oov == r.n_oov
    # vocab ids are frequency ranks with (cnt desc, token asc) ties
    assert vocab.sort_values("token_id")["token"].tolist() == \
        sorted(vocab["token"].tolist(),
               key=lambda t: (-vocab.set_index("token")["cnt"][t], t))


def test_top_pmi_pairs_by_hand():
    import math

    import ray.data as rd

    from ocm_ray.ops.text import top_pmi_pairs

    # "x y" always adjacent; "p q" sometimes; fillers break adjacency
    texts = (["x y p q"] * 6) + (["x y f p g q"] * 4)
    ds = rd.from_pandas(pd.DataFrame({"text": texts}),
                        override_num_blocks=3)
    out = top_pmi_pairs(ds, k=10, min_count=2)
    bigrams = {}
    for t in texts:
        w = t.split(" ")
        for a, b in zip(w[:-1], w[1:]):
            bigrams[(a, b)] = bigrams.get((a, b), 0) + 1
    n = sum(bigrams.values())
    c1, c2 = {}, {}
    for (a, b), c in bigrams.items():
        c1[a] = c1.get(a, 0) + c
        c2[b] = c2.get(b, 0) + c
    for _, r in out.iterrows():
        want = math.log2(bigrams[(r.w1, r.w2)] * n
                         / (c1[r.w1] * c2[r.w2]))
        assert abs(r.pmi - round(want, 4)) < 1e-9
        assert r.cnt == bigrams[(r.w1, r.w2)]
    assert (out["cnt"] >= 2).all()
    pm = out["pmi"].to_numpy()
    assert (pm[:-1] >= pm[1:]).all()


def test_dup_ngram_stats_matches_bruteforce():
    import ray.data as rd

    from ocm_ray.ops.dedup import dup_ngram_stats

    texts = [
        "the quick brown fox jumps over the lazy dog",
        "a quick brown fox jumps over a sleeping cat",
        "lorem ipsum dolor sit amet",
        "the quick brown fox jumps over the lazy dog today",
        "completely unique words here nothing shared",
        "", "single word",
        "the quick brown fox leaps quick brown fox jumps over",
    ]
    docs = pd.DataFrame({"doc_id": np.arange(len(texts)), "text": texts})
    k = 3
    out = (dup_ngram_stats(rd.from_pandas(docs).repartition(3), k=k)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))

    gram_docs: dict = {}
    doc_grams = {}
    for _, r in docs.iterrows():
        w = r.text.lower().split(" ")
        grams = [" ".join(w[i:i + k]) for i in range(len(w) - k + 1)]
        doc_grams[r.doc_id] = grams
        for g in grams:
            gram_docs.setdefault(g, set()).add(r.doc_id)
    dup = {g for g, s in gram_docs.items() if len(s) >= 2}
    for _, r in out.iterrows():
        grams = doc_grams[r.doc_id]
        hits = [g in dup for g in grams]
        run = best = 0
        for h in hits:
            run = run + 1 if h else 0
            best = max(best, run)
        assert r.n_grams == len(grams)
        assert r.n_dup_grams == sum(hits)
        assert r.n_distinct_dup_grams == len({g for g, h
                                              in zip(grams, hits) if h})
        assert r.max_dup_run == best

    # partition invariance: stats are a pure function of the corpus
    out1 = (dup_ngram_stats(rd.from_pandas(docs).repartition(1), k=k)
            .to_pandas().sort_values("doc_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(out, out1)


def test_weighted_minhash_icws():
    from ocm_ray.sketches.cws import WeightedMinHash

    rng = np.random.default_rng(1)
    n = 4000
    vocab = np.arange(n, dtype=np.uint64)
    wa = np.where(rng.random(n) < 0.7, rng.integers(1, 50, n), 0).astype(float)
    wb = np.where(rng.random(n) < 0.7, rng.integers(1, 50, n), 0).astype(float)
    exact = np.minimum(wa, wb).sum() / np.maximum(wa, wb).sum()

    # unbiasedness: mean estimate over independent seeds within ~3 sigma
    # of the exact weighted Jaccard (P[match] = J_w per permutation)
    ests = []
    for s in range(8):
        a = WeightedMinHash(128, seedseed=137 + s)
        b = WeightedMinHash(128, seedseed=137 + s)
        a.update(vocab[wa > 0], wa[wa > 0])
        b.update(vocab[wb > 0], wb[wb > 0])
        ests.append(a.weighted_jaccard(b))
    sd = (exact * (1 - exact) / 128) ** 0.5
    assert abs(np.mean(ests) - exact) < 3 * sd / np.sqrt(len(ests))
    assert np.std(ests) > 0  # seeds produce distinct samples

    # disjoint-element merge is EXACT (min-of-mins == min over union)
    # and chunking the kernel cannot change the argmin
    full = WeightedMinHash(64)
    chunked = WeightedMinHash(64)
    chunked.CHUNK = 128
    a1, a2 = WeightedMinHash(64), WeightedMinHash(64)
    m = rng.random(n) < 0.5
    pos = wa > 0
    a1.update(vocab[m & pos], wa[m & pos])
    a2.update(vocab[~m & pos], wa[~m & pos])
    full.update(vocab[pos], wa[pos])
    chunked.update(vocab[pos], wa[pos])
    a1.merge(a2)
    for other in (a1, chunked):
        assert np.array_equal(full.elem, other.elem)
        assert np.array_equal(full.t, other.t)
        assert np.allclose(full.ln_a, other.ln_a)

    # identical weighted sets match on every slot; scaling one set's
    # weights breaks J_w=1 (weighted, not set, semantics)
    c1, c2 = WeightedMinHash(64), WeightedMinHash(64)
    c1.update(vocab[pos], wa[pos])
    c2.update(vocab[pos], wa[pos] * 3.0)
    assert full.matching_slots(c1) == 64
    assert full.matching_slots(c2) < 64

    # serialization roundtrip preserves the state exactly
    rt = WeightedMinHash.from_bytes(full.to_bytes())
    assert rt.matching_slots(full) == 64
    assert np.array_equal(rt.elem, full.elem)


def test_dsir_scores_by_hand():
    import ray.data as rd

    from ocm_ray.core.hashing import wanghash
    from ocm_ray.ops.sampling import dsir_scores

    texts = ["alpha beta gamma alpha beta", "beta gamma delta",
             "epsilon zeta eta", "alpha beta epsilon zeta",
             "one", ""]
    srcs = ["t", "t", "r", "r", "r", "t"]
    docs = pd.DataFrame({"doc_id": np.arange(len(texts)),
                         "source": srcs, "text": texts})
    FEAT_BITS = 8
    out = (dsir_scores(rd.from_pandas(docs).repartition(3),
                       target_values=["t"], feat_bits=FEAT_BITS, k=2)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))

    # by-hand recomputation in the same hash domain
    from ocm_ray.engine.tokens import hash_string_array
    import pyarrow as pa_

    def doc_buckets(text):
        ws = text.lower().split(" ")
        h = hash_string_array(pa_.array(ws), 137)
        out_b = []
        for i in range(len(ws) - 1):
            acc = wanghash(np.array([h[i]], np.uint64))
            acc = wanghash(acc ^ h[i + 1])
            out_b.append(int(acc[0]) >> (64 - FEAT_BITS))
        return out_b

    B = 1 << FEAT_BITS
    t_cnt, r_cnt = np.zeros(B, np.int64), np.zeros(B, np.int64)
    for txt, s in zip(texts, srcs):
        for b in doc_buckets(txt):
            (t_cnt if s == "t" else r_cnt)[b] += 1
    T, R = t_cnt.sum(), r_cnt.sum()
    for _, row in out.iterrows():
        bs = doc_buckets(texts[int(row.doc_id)])
        assert row.n_feats == len(bs)
        heavy = sum((2 * int(t_cnt[b]) + 1) * (2 * int(R) + B)
                    > (2 * int(r_cnt[b]) + 1) * (2 * int(T) + B)
                    for b in bs)
        assert row.n_target_heavy == heavy
        want = sum(np.log(2 * t_cnt[b] + 1.0) - np.log(2 * r_cnt[b] + 1.0)
                   for b in bs) \
            + len(bs) * (np.log(2 * R + B) - np.log(2 * T + B))
        assert abs(row.dsir_score - round(want, 4)) < 1e-9

    # target docs should score higher on average than raw docs
    m = out.merge(docs[["doc_id", "source"]], on="doc_id")
    m = m[m.n_feats > 0]
    assert m[m.source == "t"].dsir_score.mean() > \
        m[m.source == "r"].dsir_score.mean()

    # partition invariance
    out1 = (dsir_scores(rd.from_pandas(docs).repartition(1),
                        target_values=["t"], feat_bits=FEAT_BITS, k=2)
            .to_pandas().sort_values("doc_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(out, out1)


def test_kmeans_lloyd_and_semdedup():
    import ray.data as rd

    from ocm_ray.ops.dedup import semantic_dedup_pairs
    from ocm_ray.ops.similarity import kmeans_lloyd

    rng = np.random.default_rng(3)
    centers = rng.normal(size=(6, 32)) * 4
    pts, ids = [], []
    vid = 0
    for c in range(6):
        for _ in range(200):
            pts.append(centers[c] + rng.normal(size=32) * 0.5)
            ids.append(vid)
            vid += 1
    planted = []
    for _ in range(10):
        src = rng.integers(0, len(pts))
        pts.append(np.asarray(pts[src]) + rng.normal(size=32) * 1e-3)
        ids.append(vid)
        planted.append((min(ids[src], vid), max(ids[src], vid)))
        vid += 1
    emb = np.stack(pts)
    df = pd.DataFrame({"vec_id": ids,
                       "embedding": list(emb.astype(np.float32))})
    ds = rd.from_pandas(df).repartition(4)

    # full-corpus Lloyd: inertia never increases
    cents, hist = kmeans_lloyd(ds, n_clusters=8, iters=5, sample_size=1500)
    assert cents.shape == (8, 32)
    assert all(hist[i + 1] <= hist[i] + 1e-12 for i in range(len(hist) - 1))
    # monotone-alone is satisfied by a NO-OP Lloyd step (constant hist);
    # the update must strictly improve inertia (the sample init is
    # already near-optimal on this fixture, so demand improvement, not
    # a fixed fraction)
    assert hist[-1] < hist[0] * (1 - 1e-4), hist

    # SemDeDup finds every planted near-dup pair and nothing spurious
    # beyond the brute-force >= threshold set (subset by construction)
    pairs = semantic_dedup_pairs(ds, threshold=0.999, n_clusters=8,
                                 iters=3).to_pandas()
    found = set(zip(pairs.a, pairs.b))
    assert all(p in found for p in planted)
    m = emb / np.linalg.norm(emb, axis=1, keepdims=True)
    sims = m @ m.T
    iu = np.triu_indices(len(m), 1)
    brute = {(min(ids[i], ids[j]), max(ids[i], ids[j]))
             for i, j in zip(iu[0][sims[iu] >= 0.999],
                             iu[1][sims[iu] >= 0.999])}
    assert found <= brute


def test_char_entropy_by_hand():
    import math

    import ray.data as rd

    from ocm_ray.ops.text import char_entropy

    texts = ["hello world", "aaaa", "", "ab", "abab"]
    docs = pd.DataFrame({"doc_id": np.arange(len(texts)), "text": texts})
    out = (char_entropy(rd.from_pandas(docs).repartition(2))
           .to_pandas().sort_values("doc_id").reset_index(drop=True))

    def ent(s):
        if not s:
            return 0.0
        from collections import Counter
        c = np.array(list(Counter(s).values()), float)
        p = c / c.sum()
        return float(-(p * np.log2(p)).sum())

    for _, r in out.iterrows():
        s = texts[int(r.doc_id)]
        assert r.n_chars == len(s)
        assert abs(r.char_entropy - round(ent(s), 4)) < 1e-9
    assert math.isclose(out.loc[1, "char_entropy"], 0.0)   # "aaaa"
    assert math.isclose(out.loc[3, "char_entropy"], 1.0)   # "ab"


def test_dup_ngram_stats_tokens_domain():
    import ray.data as rd

    from ocm_ray.ops.dedup import dup_ngram_stats

    rng = np.random.default_rng(7)
    base = rng.integers(0, 50, size=12).tolist()
    docs = pd.DataFrame({
        "doc_id": [f"d{i}" for i in range(5)],
        "tokens": [
            base + [99, 98, 97],
            [77] + base,                       # shares the base window
            rng.integers(100, 200, size=10).tolist(),
            [1, 2],                            # shorter than k
            [],
        ],
    })
    k = 4
    out = (dup_ngram_stats(rd.from_pandas(docs).repartition(2), k=k,
                           tokens_col="tokens", id_col="doc_id")
           .to_pandas().set_index("doc_id"))

    gram_docs: dict = {}
    doc_grams = {}
    for _, r in docs.iterrows():
        t = list(r.tokens)
        grams = [tuple(t[i:i + k]) for i in range(len(t) - k + 1)]
        doc_grams[r.doc_id] = grams
        for g in grams:
            gram_docs.setdefault(g, set()).add(r.doc_id)
    dup = {g for g, s in gram_docs.items() if len(s) >= 2}
    for did, grams in doc_grams.items():
        hits = [g in dup for g in grams]
        run = best = 0
        for h in hits:
            run = run + 1 if h else 0
            best = max(best, run)
        r = out.loc[did]
        assert r.n_grams == len(grams)
        assert r.n_dup_grams == sum(hits)
        assert r.max_dup_run == best
    assert out.loc["d2"].n_dup_grams == 0
    assert out.loc["d0"].n_dup_grams == len(base) - k + 1


def test_exact_dedup_tokens_identity():
    import ray.data as rd

    from ocm_ray.ops.dedup import exact_dedup_groups

    docs = pd.DataFrame({
        "doc_id": ["a", "b", "c", "d", "e"],
        "tokens": [[1, 2, 3], [1, 2, 3], [1, 2], [3, 2, 1], []],
    })
    out = (exact_dedup_groups(rd.from_pandas(docs).repartition(2),
                              tokens_col="tokens")
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    got = dict(zip(out.doc_id, out.n_copies))
    # [1,2,3] twice (keeper 'a'); prefix / permuted / empty all distinct
    assert got == {"a": 2, "c": 1, "d": 1, "e": 1}


def test_interval_join_sharded_matches_bruteforce():
    import ray.data as rd

    from ocm_ray.ops.relational import interval_join_sharded

    rng = np.random.default_rng(11)
    left = pd.DataFrame({"eid": np.arange(3000),
                         "value": rng.normal(50, 40, 3000)})
    lo = rng.uniform(-50, 150, 200)
    right = pd.DataFrame({"band_id": np.arange(200), "lo": lo,
                         "hi": lo + rng.exponential(5, 200)})
    # unbounded / sentinel intervals exercise the broadcast long path —
    # including literal +-inf ends, which must never reach the int cast
    right.loc[196:, "lo"] = [-np.inf, 0.0, -1e9, 40.0]
    right.loc[196:, "hi"] = [np.inf, 1e9, 0.0, 45.0]

    out = interval_join_sharded(
        rd.from_pandas(left).repartition(4),
        rd.from_pandas(right).repartition(3),
        "value", right_cols=["band_id"], n_shards=8).to_pandas()

    mrg = left.merge(right, how="cross")
    exp = mrg[(mrg.value >= mrg.lo) & (mrg.value < mrg.hi)]
    a = out[["eid", "band_id"]].sort_values(["eid", "band_id"]) \
        .reset_index(drop=True)
    b = exp[["eid", "band_id"]].sort_values(["eid", "band_id"]) \
        .reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)


def test_cm_inner_product_join_size():
    from ocm_ray.sketches import CountMin

    rng = np.random.default_rng(13)
    a = rng.zipf(1.5, 20000).astype(np.uint64) % 5000
    b = rng.zipf(1.5, 30000).astype(np.uint64) % 5000
    ca = np.bincount(a.astype(int), minlength=5000)
    cb = np.bincount(b.astype(int), minlength=5000)
    true_ip = int((ca.astype(np.int64) * cb).sum())

    NP, NH = 14, 5
    sa, sb = CountMin(NP, NH, conservative=False), \
        CountMin(NP, NH, conservative=False)
    sa.update(a)
    sb.update(b)
    est = sa.inner_product(sb)
    eps = np.e / (1 << NP)
    # one-sided (>= exact), within the published eps*Na*Nb bound
    assert true_ip <= est <= true_ip + eps * len(a) * len(b)

    # inner product with itself dominates F2 and respects the bound too
    f2 = int((ca.astype(np.int64) ** 2).sum())
    est2 = sa.inner_product(sa)
    assert f2 <= est2 <= f2 + eps * len(a) * len(a)


def test_modsketch_and_vacsketch_laws():
    from ocm_ray.sketches.modvac import ModSketch, VACSketch, vac_levels

    rng = np.random.default_rng(17)
    items = rng.integers(0, 1 << 40, 200000).astype(np.uint64)
    distinct = len(np.unique(items))

    m = ModSketch(log2_mod=8)
    m.update(items)
    est = m.cardinality_estimate()
    assert abs(est - distinct) / distinct < 0.2   # 1/sqrt(~780) sampling

    # split-merge bit-exact; reduce(f) == direct build at coarser mod
    m1, m2 = ModSketch(8), ModSketch(8)
    m1.update(items[:100000])
    m2.update(items[100000:])
    assert np.array_equal(m1.merge(m2).quots, m.quots)
    direct = ModSketch(10)
    direct.update(items)
    assert np.array_equal(m.reduce(2).quots, direct.quots)

    # Jaccard estimator on overlapping sets
    a = ModSketch(6)
    b = ModSketch(6)
    a.update(np.arange(0, 150000, dtype=np.uint64))
    b.update(np.arange(50000, 200000, dtype=np.uint64))
    assert abs(a.jaccard(b) - 1.0 / 2.0) < 0.1    # |inter|/|union| = 1/2

    # VAC: deterministic geometric levels, bit-exact merge, roundtrip
    lv = vac_levels(np.unique(items), 5)
    for i in range(1, 4):
        frac = (lv > i).mean()
        assert abs(frac - 2.0 ** -i) < 0.01
    v = VACSketch(4, "hll", {"p": 12})
    v.update(items)
    for i, e in enumerate(v.level_estimates()):
        assert abs(e - distinct) / distinct < 0.15, (i, e)
    v1, v2 = VACSketch(4, "hll", {"p": 12}), VACSketch(4, "hll", {"p": 12})
    v1.update(items[:100000])
    v2.update(items[100000:])
    v1.merge(v2)
    rt = VACSketch.from_bytes(v.to_bytes())
    for a2, b2, c2 in zip(v.bases, v1.bases, rt.bases):
        assert np.array_equal(a2.registers, b2.registers)
        assert np.array_equal(a2.registers, c2.registers)


def test_rnla_cs_compress_recovery():
    from ocm_ray.sketches.rnla import (cs_compress, cs_decompress,
                                       top_indices_from_compressed)

    rng = np.random.default_rng(23)
    d = 50000
    v = rng.normal(0, 1, d)
    heavy = rng.choice(d, 20, replace=False)
    v[heavy] += rng.choice([-1, 1], 20) * 300.0

    sk = cs_compress(v, 4096, ns=5)
    est = cs_decompress(sk, d)
    # per-table error bound ~ ||v||2/sqrt(newdim); median-of-5 within 5x
    assert np.median(np.abs(est - v)) < 5 * np.linalg.norm(v) / np.sqrt(4096)
    top = top_indices_from_compressed(sk, d, 20)
    assert set(top) == set(heavy)

    # linearity: EXACT for integer-valued vectors (sums of exact floats),
    # allclose for general floats (summation order only)
    ia = rng.integers(-100, 100, d).astype(np.float64)
    ib = rng.integers(-100, 100, d).astype(np.float64)
    assert np.array_equal(cs_compress(ia + ib, 1024, 3),
                          cs_compress(ia, 1024, 3) + cs_compress(ib, 1024, 3))
    fa, fb = rng.normal(size=d), rng.normal(size=d)
    assert np.allclose(cs_compress(fa + fb, 1024, 3),
                       cs_compress(fa, 1024, 3) + cs_compress(fb, 1024, 3))


def test_y4m_video_decode_real():
    import pyarrow as pa_

    from ocm_ray.ops.multimodal import (decode_y4m, make_y4m,
                                        sample_video_frames,
                                        synth_media_table)

    # exact round trip of the known synthetic gradient
    p = make_y4m(32, 24, 10)
    frames, fps = decode_y4m(p)
    assert frames.shape == (10, 24, 32) and fps == 25.0
    x = np.arange(32)[None, :]
    y = np.arange(24)[:, None]
    for f in range(10):
        assert np.array_equal(frames[f],
                              ((x + 2 * y + 7 * f) % 256).astype(np.uint8))

    # real sampling: frame cadence follows the stream fps; lumas real
    t = synth_media_table(20)
    vids = t.filter(pa_.compute.equal(t.column("mime"), "video/x-yuv4mpeg"))
    out = sample_video_frames(vids, every_ms=200, fake=False)
    assert out.num_rows > 0
    ml = np.asarray(out.column("mean_luma").to_pylist())
    assert ((ml >= 0) & (ml <= 255)).all() and len(np.unique(ml)) > 1
    # every 200 ms at 25 fps = every 5th frame
    fi = np.asarray(out.column("frame_idx").to_pylist())
    assert (fi % 5 == 0).all()

    # compressed video stays an honest stub
    mp4 = t.filter(pa_.compute.equal(t.column("mime"), "video/mp4"))
    import pytest as _pytest
    with _pytest.raises(NotImplementedError):
        sample_video_frames(mp4, fake=False)


def test_partitioned_window_empty_shards_schema_stable():
    """Few keys + many shards leaves most shard tasks empty: every
    block must carry the SAME column order/schema (a divergent empty
    branch used to emit ntile4/gap_us in a different position) and the
    result must equal the single-shard run."""
    import ray.data as rd

    from ocm_ray.ops.relational import partitioned_window

    df = pd.DataFrame({
        "event_id": np.arange(40, dtype=np.int64),
        "user_id": np.arange(40) % 2,
        "ts": pd.to_datetime((np.arange(40) // 3) * 1_000_000, unit="us"),
        "value": np.arange(40, dtype=float),
    })
    wide = (partitioned_window(rd.from_pandas(df, override_num_blocks=4),
                               n_shards=16)
            .to_pandas().sort_values("event_id").reset_index(drop=True))
    one = (partitioned_window(rd.from_pandas(df), n_shards=1)
           .to_pandas().sort_values("event_id").reset_index(drop=True))
    assert list(wide.columns) == list(one.columns)
    pd.testing.assert_frame_equal(wide, one)


def test_grouped_topk_null_keys_and_schema_stability():
    """NULL keys form ONE group (SQL PARTITION BY semantics) and the
    Arrow-native selection preserves the input schema exactly even when
    some blocks are empty or carry nulls (the pandas round-trip used to
    drift int64-with-null to float64 and large_string to string)."""
    import pyarrow as pa
    import ray.data as rd

    from ocm_ray.ops.agg import grouped_topk

    t = pa.table({
        "g": pa.array(["a", None, "a", None, None, "b"],
                      type=pa.large_string()),
        "score": pa.array([5, 9, 3, 8, 7, 1], type=pa.int64()),
        "item": pa.array([1, 2, 3, 4, 5, 6], type=pa.int64()),
    })
    got = (grouped_topk(rd.from_arrow(t).repartition(4), ["g"], "score", 2,
                        tie_cols=["item"]).to_pandas())
    # null group keeps only its top 2 (scores 9, 8), not all three
    nulls = got[got["g"].isna()]
    assert sorted(nulls["score"].tolist()) == [8, 9]
    assert sorted(got[got["g"] == "a"]["score"].tolist()) == [3, 5]
    assert got[got["g"] == "b"]["score"].tolist() == [1]
