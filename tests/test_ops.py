"""Training-data ops: dedup family, similarity search, text analysis,
multimodal plumbing."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

pytestmark = pytest.mark.usefixtures("ray_session")

SF = "/root/testdata/sf0.001"


def _near_dup_docs():
    """Synthetic corpus with known near/exact dup structure."""
    rng = np.random.default_rng(7)
    vocab = [f"w{i}" for i in range(500)]
    docs = []
    for i in range(40):
        words = list(rng.choice(vocab, size=60))
        docs.append(" ".join(words))
    near = docs[3].split(" ")
    near[10] = "CHANGED"
    texts = docs + [docs[5], " ".join(near)]       # 40=exact dup of 5, 41=near dup of 3
    return pd.DataFrame({"doc_id": np.arange(len(texts)), "text": texts})


@pytest.fixture(scope="module")
def dup_ds():
    import ray.data as rd

    return rd.from_pandas(_near_dup_docs())


def test_minhash_lsh_finds_known_dups(dup_ds):
    from ocm_ray.ops.dedup import minhash_lsh_pairs

    pairs = minhash_lsh_pairs(dup_ds, num_perm=128, bands=32, threshold=0.5)
    found = set(map(tuple, pairs[["a", "b"]].to_numpy()))
    assert (5, 40) in found, "exact dup not found"
    assert (3, 41) in found, "near dup not found"
    exact_pair = pairs[(pairs.a == 5) & (pairs.b == 40)]
    assert exact_pair["jaccard"].iloc[0] == 1.0


def test_ngram_jaccard_verify(dup_ds):
    from ocm_ray.ops.dedup import minhash_lsh_pairs, ngram_jaccard_verify

    docs = _near_dup_docs()
    pairs = minhash_lsh_pairs(dup_ds, num_perm=128, bands=32, threshold=0.5)
    verified = ngram_jaccard_verify(pairs, docs)
    ex = verified[(verified.a == 5) & (verified.b == 40)]["jaccard_exact"].iloc[0]
    assert ex == 1.0
    near = verified[(verified.a == 3) & (verified.b == 41)]["jaccard_exact"].iloc[0]
    assert 0.7 < near < 1.0
    # estimator within MinHash tolerance of exact
    err = (verified["jaccard"] - verified["jaccard_exact"]).abs()
    assert err.max() < 0.2


def test_simhash_pairs(dup_ds):
    from ocm_ray.ops.dedup import simhash_pairs

    pairs = simhash_pairs(dup_ds, max_hamming=6)
    found = set(map(tuple, pairs[["a", "b"]].to_numpy()))
    assert (5, 40) in found
    ham = pairs[(pairs.a == 5) & (pairs.b == 40)]["hamming"].iloc[0]
    assert ham == 0


def test_exact_dedup(dup_ds):
    from ocm_ray.ops.dedup import exact_dedup

    out = exact_dedup(dup_ds).to_pandas()
    assert out["n_copies"].sum() == 42
    assert (out["n_copies"] == 2).sum() == 1       # one duplicated text
    dup_rep = out[out.n_copies == 2]["doc_id"].iloc[0]
    assert dup_rep == 5                             # min id kept


def test_embedding_dup_pairs():
    import ray.data as rd

    from ocm_ray.ops.dedup import embedding_dup_pairs

    rng = np.random.default_rng(0)
    base = rng.normal(size=(30, 16))
    emb = np.concatenate([base, base[:2] + rng.normal(scale=0.01, size=(2, 16))])
    df = pd.DataFrame({"vec_id": np.arange(32),
                       "embedding": list(emb.astype(np.float32))})
    ds = rd.from_pandas(df)
    pairs = embedding_dup_pairs(ds, threshold=0.99)
    found = set(map(tuple, pairs[["a", "b"]].to_numpy()))
    assert (0, 30) in found and (1, 31) in found


def test_brute_force_topk_matches_numpy():
    import ray.data as rd

    from ocm_ray.ops.similarity import brute_force_topk

    rng = np.random.default_rng(1)
    emb = rng.normal(size=(200, 32))
    df = pd.DataFrame({"vec_id": np.arange(200),
                       "embedding": list(emb.astype(np.float32))})
    q = emb[:3]
    out = brute_force_topk(rd.from_pandas(df), q, k=5)
    norm = emb / np.linalg.norm(emb, axis=1, keepdims=True)
    qn = q / np.linalg.norm(q, axis=1, keepdims=True)
    sims = qn @ norm.T
    for qi in range(3):
        expect = set(np.argsort(-sims[qi])[:5].tolist())
        got = set(out[out.query_idx == qi]["vec_id"].tolist())
        assert got == expect
        assert out[out.query_idx == qi]["vec_id"].iloc[0] == qi  # self first


def test_lsh_topk_recall():
    import ray.data as rd

    from ocm_ray.ops.similarity import brute_force_topk, lsh_topk

    rng = np.random.default_rng(2)
    emb = rng.normal(size=(500, 32)).astype(np.float32)
    df = pd.DataFrame({"vec_id": np.arange(500), "embedding": list(emb)})
    q = emb[:4].astype(np.float64)
    exact = brute_force_topk(rd.from_pandas(df), q, k=5)
    approx = lsh_topk(rd.from_pandas(df), q, k=5, bits=6, multiprobe=1)
    recall = 0.0
    for qi in range(4):
        e = set(exact[exact.query_idx == qi]["vec_id"])
        a = set(approx[approx.query_idx == qi]["vec_id"])
        recall += len(e & a) / len(e)
    assert recall / 4 >= 0.5  # multiprobe-1 LSH on random data


def test_text_stats():
    import ray.data as rd

    from ocm_ray.ops.text import add_text_stats

    df = pd.DataFrame({
        "doc_id": [0, 1, 2],
        "text": ["the quick brown fox and the dog",
                 "le chat est sur la table et les livres de la maison",
                 "x!!! ??? ###"],
    })
    out = add_text_stats(rd.from_pandas(df), concurrency=1).to_pandas()
    out = out.sort_values("doc_id")
    assert out["n_tokens"].tolist() == [7, 12, 3]
    assert out["lang_guess"].iloc[0] == "en"
    assert out["lang_guess"].iloc[1] == "fr"
    assert out["punct_ratio"].iloc[2] > 0.5
    assert out["quality"].between(0, 1).all()
    # fingerprint deterministic
    out2 = add_text_stats(rd.from_pandas(df), concurrency=1).to_pandas().sort_values("doc_id")
    assert (out["fingerprint"].to_numpy() == out2["fingerprint"].to_numpy()).all()


def test_grouped_sum_matches_pandas():
    import ray.data as rd

    from ocm_ray.ops.agg import grouped_sum

    rng = np.random.default_rng(3)
    df = pd.DataFrame({"k": rng.integers(0, 50, 10000),
                       "v": rng.integers(0, 100, 10000)})
    out = grouped_sum(rd.from_pandas(df).repartition(13), ["k"], ["v"]).to_pandas()
    expect = df.groupby("k", as_index=False)["v"].sum()
    merged = out.sort_values("k").reset_index(drop=True)
    assert merged.equals(expect.astype(merged.dtypes.to_dict()))


# ---------------- multimodal plumbing ----------------

def test_multimodal_decode_stub():
    import ray.data as rd

    from ocm_ray.ops.multimodal import DecodeImage, decode_images, synth_media_table

    t = synth_media_table(32)
    ds = rd.from_arrow(t).filter(lambda r: r["mime"].startswith("image"))
    out = decode_images(ds, fake=True, target_size=16, batch_size=8,
                        concurrency=2).to_pandas()
    import pyarrow.compute as _pc

    n_images = int(_pc.sum(_pc.starts_with(t.column("mime"),
                                           "image")).as_py())
    assert len(out) == n_images
    assert all(len(p) == 256 for p in out["pixels"])
    # deterministic: same payload → same pixels
    out2 = decode_images(rd.from_arrow(t).filter(
        lambda r: r["mime"].startswith("image")), fake=True, target_size=16,
        batch_size=8, concurrency=2).to_pandas()
    m1 = out.sort_values("media_id")["mean_luma"].to_numpy()
    m2 = out2.sort_values("media_id")["mean_luma"].to_numpy()
    assert np.array_equal(m1, m2)
    # real decoder is an explicit stub
    with pytest.raises(NotImplementedError):
        DecodeImage(fake=False)(t.slice(0, 2))


def test_multimodal_fixture_exact_stats():
    """synth_media_table(expected_stats=True) ground truth == what the
    real decoders compute, EXACTLY, for all three codecs — the fixture
    frame-compare backing media_decode_stats' oracle-grade check."""
    import ray.data as rd

    from ocm_ray.ops.multimodal import (ExtractAudioFeatures,
                                        decode_images,
                                        sample_video_frames,
                                        synth_media_table)

    t, exp = synth_media_table(30, expected_stats=True,
                               target_size=16, every_ms=1000)
    ppm = rd.from_arrow(t).filter(
        lambda r: r["mime"] == "image/x-portable-pixmap")
    imgs = decode_images(ppm, fake=False, target_size=16,
                         concurrency=2).to_pandas()
    want_img = exp[exp["kind"] == "image"].set_index("media_id")["stat"]
    for _, r in imgs.iterrows():
        assert round(float(r["mean_luma"]), 4) == want_img[r["media_id"]]

    wav = t.filter(pa.compute.equal(t.column("mime"), "audio/wav"))
    feats = ExtractAudioFeatures(fake=False)(wav).to_pandas()
    want_aud = exp[exp["kind"] == "audio"].set_index("media_id")["stat"]
    for _, r in feats.iterrows():
        assert round(float(np.asarray(r["features"])[-2]), 4) \
            == want_aud[r["media_id"]]

    y4m = t.filter(pa.compute.equal(t.column("mime"), "video/x-yuv4mpeg"))
    vid = sample_video_frames(y4m, every_ms=1000, fake=False).to_pandas()
    got_vid = vid.groupby("media_id")["mean_luma"].mean().round(4)
    want_vid = exp[exp["kind"] == "video"].set_index("media_id")["stat"]
    assert (got_vid == want_vid.loc[got_vid.index]).all()
    # and the unchanged default return shape still holds
    assert synth_media_table(5).num_rows == 5


def test_multimodal_audio_and_frames():
    from ocm_ray.ops.multimodal import (
        ExtractAudioFeatures,
        sample_video_frames,
        synth_media_table,
    )

    t = synth_media_table(16)
    audio = t.filter(pa.compute.equal(t.column("mime"), "audio/wav"))
    feats = ExtractAudioFeatures(fake=True)(audio)
    assert feats.num_rows == audio.num_rows
    assert len(feats.column("features")[0]) == 32
    vids = t.filter(pa.compute.equal(t.column("mime"), "video/mp4"))
    frames = sample_video_frames(vids, every_ms=1000)
    assert frames.num_rows == int(
        sum(d.as_py() // 1000 for d in vids.column("duration_ms")))
    # real WAV parsing now works natively (stdlib wave) — only video
    # decode remains stubbed
    real = ExtractAudioFeatures(fake=False)(audio)
    assert real.num_rows == audio.num_rows
    with pytest.raises(NotImplementedError):
        sample_video_frames(vids, fake=False)


def test_exact_value_quantiles_matches_numpy():
    import ray.data as rd

    from ocm_ray.ops.relational import exact_value_quantiles

    rng = np.random.default_rng(4)
    vals = np.round(rng.lognormal(3, 1, 20000), 2)
    df = pd.DataFrame({"value": vals})
    out = exact_value_quantiles(rd.from_pandas(df).repartition(7), "value",
                                [0.1, 0.5, 0.99])
    srt = np.sort(vals)
    for _, r in out.iterrows():
        expect = srt[max(int(np.ceil(r.q * len(vals))), 1) - 1]
        assert r.value == expect, (r.q, r.value, expect)


def test_bigram_counts_matches_bruteforce():
    import ray.data as rd

    from ocm_ray.ops.relational import bigram_counts

    rng = np.random.default_rng(5)
    rows = [rng.integers(0, 20, size=rng.integers(2, 30)).astype(np.int32)
            for _ in range(200)]
    df = pd.DataFrame({"tokens": rows})
    out = bigram_counts(rd.from_pandas(df).repartition(5), k=10).to_pandas()
    from collections import Counter

    brute = Counter()
    for r in rows:
        for a, b in zip(r[:-1], r[1:]):
            brute[(int(a), int(b))] += 1
    top = sorted(brute.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
    got = list(zip(zip(out.a.astype(int), out.b.astype(int)), out.cnt))
    assert [(tuple(k), int(c)) for k, c in top] == \
        [(tuple(k), int(c)) for k, c in got]


def _dedup_corpus(n_base=200, seed=0):
    rng = np.random.default_rng(seed)
    vocab = [f"w{i}" for i in range(400)]
    docs = [" ".join(rng.choice(vocab, size=rng.integers(20, 60)))
            for _ in range(n_base)]
    for i in range(0, 30, 2):          # near dups
        w = docs[i].split(" ")
        w[3] = "CHANGED"
        docs.append(" ".join(w))
    docs += [docs[5], docs[7], docs[7]]  # exact dups
    return pd.DataFrame({"doc_id": np.arange(len(docs)), "text": docs})


def test_minhash_distributed_matches_local_8_partitions():
    """The sharded band-shuffle path emits EXACTLY the pairs of the
    single-process reference path, at 8 partitions (VERDICT r1 #1)."""
    import ray.data as rd

    from ocm_ray.ops.dedup import minhash_lsh_pairs

    ds = rd.from_pandas(_dedup_corpus()).repartition(8)
    dist = minhash_lsh_pairs(ds, threshold=0.5, n_shards=16)
    loc = minhash_lsh_pairs(ds, threshold=0.5, local=True)
    pd.testing.assert_frame_equal(dist.reset_index(drop=True),
                                  loc.reset_index(drop=True))
    assert len(dist) >= 15  # the injected dups are found


def test_exact_jaccard_pairs_matches_bruteforce():
    import ray.data as rd

    from ocm_ray.ops.dedup import _word_shingles, exact_jaccard_pairs

    df = _dedup_corpus(n_base=120, seed=3)
    ds = rd.from_pandas(df).repartition(8)
    got = exact_jaccard_pairs(ds, threshold=0.5, n_shards=16)
    flat, lens = _word_shingles(df["text"].tolist(), 3)
    b = np.concatenate([[0], np.cumsum(lens)])
    sets = [set(flat[b[i]:b[i + 1]].tolist()) for i in range(len(df))]
    exp = []
    for i in range(len(df)):
        for j in range(i + 1, len(df)):
            u = len(sets[i] | sets[j])
            if u and len(sets[i] & sets[j]) / u >= 0.5:
                exp.append((i, j, len(sets[i] & sets[j]) / u))
    exp = pd.DataFrame(exp, columns=["a", "b", "jaccard"])
    got = got.astype({"a": np.int64, "b": np.int64})
    pd.testing.assert_frame_equal(got.reset_index(drop=True),
                                  exp.reset_index(drop=True),
                                  check_dtype=False, atol=1e-12)


def test_collision_pairs_empty_and_schema():
    """No collisions → empty result with stable schema, not a crash."""
    import ray.data as rd

    from ocm_ray.ops.pairs import collect_unique_pairs, collision_pairs

    df = pd.DataFrame({"key": np.arange(100, dtype=np.int64),
                       "id": np.arange(100, dtype=np.int64)})
    out = collect_unique_pairs(collision_pairs(rd.from_pandas(df), 16))
    assert len(out) == 0 and list(out.columns) == ["a", "b"]


def test_ops_chunked_and_sliced_columns_equal_one_chunk():
    """Per-batch ops read a column's chunk as is: a two-chunk column and
    a sliced one (offset 7, from a fused upstream stage) give the
    one-chunk column's distinct counts and exact-Jaccard pairs."""
    import ray.data as rd

    from ocm_ray.ops.dedup import exact_jaccard_pairs
    from ocm_ray.ops.relational import distinct_count

    df = _dedup_corpus(n_base=60, seed=4)
    df["k"] = df["doc_id"] % 17
    full = pa.Table.from_pandas(df, preserve_index=False)
    rows = full.slice(7).combine_chunks()        # one chunk, offset 0

    def two_chunks(b: pa.Table) -> pa.Table:
        h = b.num_rows // 2
        return pa.table({c: pa.chunked_array([b.column(c).slice(0, h),
                                              b.column(c).slice(h)])
                         for c in b.column_names})

    layouts = {
        "one": rd.from_arrow(rows).map_batches(lambda b: b,
                                               batch_format="pyarrow"),
        "two": rd.from_arrow(rows).map_batches(two_chunks,
                                               batch_format="pyarrow"),
        "sliced": rd.from_arrow(full).map_batches(lambda b: b.slice(7),
                                                  batch_format="pyarrow"),
    }
    got = {name: (distinct_count(ds, "k"), distinct_count(ds, "text"),
                  exact_jaccard_pairs(ds, threshold=0.5, n_shards=8))
           for name, ds in layouts.items()}
    want = got.pop("one")
    assert want[:2] == (17, rows.column("text").to_pandas().nunique())
    assert len(want[2]) > 0
    for name, g in got.items():
        assert g[:2] == want[:2], name
        pd.testing.assert_frame_equal(g[2], want[2])


def test_curate_drop_semantics(tmp_path):
    """curate drops exactly: non-keeper exact copies ∪ near-dup b-sides;
    broadcast drop-state only (no corpus-sized driver sets)."""
    import pyarrow.parquet as pq

    from ocm_ray.pipelines.pretraining import curate

    df = _dedup_corpus(n_base=100, seed=1)
    df["source"] = np.where(df["doc_id"] % 3 == 0, "web", "books")
    p = str(tmp_path / "docs.parquet")
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False), p)
    summ = curate(p, str(tmp_path / "out"), quality_min=0.0,
                  near_dup_threshold=0.6)
    assert summ["n_input"] == len(df)
    assert summ["n_exact_unique"] == len(df) - 3
    # drops = near-dup cluster non-min members (added ids 100..114) ∪
    # exact-copy ids (115..117, also near-dup cluster members) — never
    # the low-id keepers (cluster policy: min member survives)
    assert summ["n_output"] == summ["n_input"] - 18
    # every near-dup cluster keeps exactly one representative, so the
    # cluster count is bounded by the drop count
    assert 1 <= summ["n_near_dup_clusters"] <= summ["n_near_dup_dropped"]
    # the fully-filtered early return must carry the SAME summary keys
    # (review finding: it was missing n_near_dup_clusters)
    empty = curate(p, str(tmp_path / "out_empty"), quality_min=2.0)
    assert set(empty) == set(summ)
    out = pq.read_table(str(tmp_path / "out")).to_pandas()
    assert len(out) == summ["n_output"]


def test_bloom_dedup_filter_keeps_one_copy():
    import ray.data as rd

    from ocm_ray.ops.dedup import bloom_dedup_filter

    df = _dedup_corpus(n_base=150, seed=9)
    ds = rd.from_pandas(df).repartition(8)
    out = bloom_dedup_filter(ds, n_shards=16).to_pandas()
    # one survivor per distinct text (no false positives at this load)
    assert len(out) == df["text"].nunique()
    assert set(out["text"]) == set(df["text"])


def test_ann_index_persist_and_probe(tmp_path):
    """build_ann_index + lsh_topk(index_dir=...): identical results to
    on-the-fly bucketing, reading ONLY the probed bucket partitions
    (VERDICT r1 #4: probe I/O < full corpus)."""
    import glob
    import os

    import ray.data as rd

    from ocm_ray.ops.similarity import build_ann_index, lsh_topk

    rng = np.random.default_rng(4)
    emb = rng.normal(size=(600, 24)).astype(np.float32)
    df = pd.DataFrame({"vec_id": np.arange(600), "embedding": list(emb)})
    idx_dir = str(tmp_path / "ann_index")
    build_ann_index(rd.from_pandas(df), idx_dir, bits=6)
    q = emb[:3].astype(np.float64)

    live = lsh_topk(rd.from_pandas(df), q, k=5, bits=6, multiprobe=1)
    probed = lsh_topk(None, q, k=5, multiprobe=1, index_dir=idx_dir)
    pd.testing.assert_frame_equal(
        live.reset_index(drop=True), probed.reset_index(drop=True),
        check_dtype=False)

    all_files = glob.glob(os.path.join(idx_dir, "bucket=*", "*.parquet"))
    n_buckets = len(glob.glob(os.path.join(idx_dir, "bucket=*")))
    from ocm_ray.ops.similarity import _probe_buckets

    probed_buckets = [b for b in _probe_buckets(q, 6, 1, 137)
                      if os.path.isdir(os.path.join(idx_dir, f"bucket={b}"))]
    probed_files = [f for f in all_files
                    if any(f"bucket={b}/" in f for b in probed_buckets)]
    probe_bytes = sum(os.path.getsize(f) for f in probed_files)
    total_bytes = sum(os.path.getsize(f) for f in all_files)
    assert n_buckets > len(probed_buckets)
    assert probe_bytes < total_bytes  # pruned read beats full scan


def test_simhash_distributed_matches_local():
    import ray.data as rd

    from ocm_ray.ops.dedup import simhash_pairs

    ds = rd.from_pandas(_dedup_corpus(n_base=150, seed=2)).repartition(8)
    dist = simhash_pairs(ds, max_hamming=6, local=False, n_shards=16)
    loc = simhash_pairs(ds, max_hamming=6, local=True)
    pd.testing.assert_frame_equal(dist.reset_index(drop=True),
                                  loc.reset_index(drop=True))


def test_embed_texts_plumbing_and_composition():
    """TextEmbedder: actor-held weights, batched matmul inference,
    deterministic output; near-dup texts get near-identical embeddings
    so the output composes with the embedding-dedup operator."""
    import ray.data as rd

    from ocm_ray.ops.dedup import embedding_dup_pairs
    from ocm_ray.ops.text import embed_texts

    df = _dedup_corpus(n_base=60, seed=6)
    out = embed_texts(rd.from_pandas(df), dim=32, concurrency=2).to_pandas()
    assert len(out) == len(df)
    emb = np.stack(out.sort_values("doc_id")["embedding"].to_numpy())
    assert emb.shape == (len(df), 32)
    assert np.allclose(np.linalg.norm(emb, axis=1), 1.0, atol=1e-5)
    # deterministic across runs/actors
    out2 = embed_texts(rd.from_pandas(df), dim=32, concurrency=2).to_pandas()
    emb2 = np.stack(out2.sort_values("doc_id")["embedding"].to_numpy())
    assert np.array_equal(emb, emb2)
    # exact copy of doc 5 is id 75 (ids 60..74 are the near-dups)
    i5 = df.index[df.doc_id == 5][0]
    idup = df.index[df.doc_id == 75][0]
    assert np.allclose(emb[i5], emb[idup])
    # composes with embedding dedup: the injected exact dup is found
    ds_emb = rd.from_pandas(pd.DataFrame({
        "vec_id": np.arange(len(df)), "embedding": list(emb)}))
    pairs = embedding_dup_pairs(ds_emb, threshold=0.95)
    assert (5, 75) in set(map(tuple, pairs[["a", "b"]].to_numpy()))


def test_hopping_event_agg_matches_pandas():
    import ray.data as rd

    from ocm_ray.ops.relational import hopping_event_agg

    rng = np.random.default_rng(8)
    n = 5000
    ts = pd.to_datetime(rng.integers(0, 86400 * 3, n), unit="s")
    df = pd.DataFrame({"ts": ts,
                       "event_type": rng.choice(["a", "b", "c"], n),
                       "value": rng.normal(size=n)})
    out = hopping_event_agg(rd.from_pandas(df).repartition(7), window="1h",
                            hop="30m").to_pandas()
    rows = []
    for j in range(2):
        t = df.copy()
        t["window_start"] = (t["ts"].astype(np.int64) // (1800 * 10**9)
                             - j) * 1800 * 10**9
        rows.append(t)
    allr = pd.concat(rows)
    exp = allr.groupby(["event_type", "window_start"], as_index=False).agg(
        n=("value", "size"), sum_value=("value", "sum"))
    exp["window_start"] = pd.to_datetime(exp["window_start"])
    got = out.sort_values(["event_type", "window_start"]).reset_index(drop=True)
    exp = exp.sort_values(["event_type", "window_start"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got.astype({"n": np.int64}), exp.astype({"n": np.int64}),
        check_dtype=False, atol=1e-9)


def test_distinct_tokens_by_key_matches_pandas():
    import ray.data as rd

    from ocm_ray.ops.relational import distinct_tokens_by_key

    rng = np.random.default_rng(12)
    rows = []
    for i in range(300):
        rows.append({"tokens": rng.integers(0, 500, rng.integers(5, 40)).astype(np.int32),
                     "source": ["a", "b", "c"][i % 3]})
    df = pd.DataFrame(rows)
    out = distinct_tokens_by_key(rd.from_pandas(df).repartition(7)).to_pandas()
    exp = (df.explode("tokens").groupby("source")["tokens"].nunique()
           .reset_index().rename(columns={"tokens": "distinct_tokens"}))
    got = out.sort_values("source").reset_index(drop=True)
    exp = exp.sort_values("source").reset_index(drop=True)
    assert got["source"].tolist() == exp["source"].tolist()
    assert got["distinct_tokens"].astype(int).tolist() == \
        exp["distinct_tokens"].astype(int).tolist()


def test_minhash_pairs_with_string_ids():
    """The pair machinery (arrow take, searchsorted verify, candidate
    fetch) must work for non-integer ids — sequences-style string
    doc_ids."""
    import ray.data as rd

    from ocm_ray.ops.dedup import minhash_lsh_pairs

    df = _dedup_corpus(n_base=80, seed=5)
    df["doc_id"] = [f"doc-{i:06d}" for i in df["doc_id"]]
    ds = rd.from_pandas(df).repartition(6)
    dist = minhash_lsh_pairs(ds, threshold=0.5, local=False, n_shards=16)
    loc = minhash_lsh_pairs(ds, threshold=0.5, local=True)
    pd.testing.assert_frame_equal(dist.reset_index(drop=True),
                                  loc.reset_index(drop=True))
    assert ("doc-000005" , "doc-000095") in set(
        map(tuple, dist[["a", "b"]].to_numpy()))


def test_multimodal_real_ppm_decode():
    """The PPM path is a REAL decoder (pure numpy): exact pixels back
    from hand-built payloads, exact nearest-neighbor resize, real luma."""
    from ocm_ray.ops.multimodal import DecodeImage, decode_ppm, resize_nearest

    # hand-built 2x2 PPM: red, green / blue, white
    payload = b"P6\n2 2\n255\n" + bytes(
        [255, 0, 0, 0, 255, 0, 0, 0, 255, 255, 255, 255])
    img = decode_ppm(payload)
    assert img.shape == (2, 2, 3)
    assert img[0, 0].tolist() == [255, 0, 0]
    assert img[1, 1].tolist() == [255, 255, 255]
    big = resize_nearest(img, 4)
    assert big.shape == (4, 4, 3)
    assert (big[:2, :2] == img[0, 0]).all()  # NN blocks

    t = pa.table({"media_id": pa.array([0], pa.int64()),
                  "payload": pa.array([payload], pa.binary()),
                  "mime": pa.array(["image/x-portable-pixmap"])})
    out = DecodeImage(fake=False, target_size=2)(t)
    px = np.asarray(out.column("pixels")[0].as_py(), dtype=np.uint8)
    # integer ITU-R 601 luma of pure red = (77*255)>>8 = 76
    assert px[0] == 76
    assert px[3] == 255  # white


def test_multimodal_real_wav_features():
    from ocm_ray.ops.multimodal import ExtractAudioFeatures, make_wav

    rng = np.random.default_rng(0)
    payload = make_wav(500, rng, rate=8000, freq=440.0)
    t = pa.table({"media_id": pa.array([0], pa.int64()),
                  "payload": pa.array([payload], pa.binary())})
    out = ExtractAudioFeatures(fake=False)(t)
    f = np.asarray(out.column("features")[0].as_py(), dtype=np.float32)
    total_rms, zcr = f[-2], f[-1]
    assert abs(total_rms - 0.5 / np.sqrt(2)) < 0.05   # sine RMS ≈ A/√2
    assert abs(zcr - 2 * 440 / 8000) < 0.02           # 2f/rate crossings


def test_multimodal_real_paths_through_ray():
    """synth table → real PPM decode + real WAV features through the
    Dataset stages (not just direct calls)."""
    import ray.data as rd

    from ocm_ray.ops.multimodal import (ExtractAudioFeatures, decode_images,
                                        synth_media_table)

    t = synth_media_table(32)
    ppm = rd.from_arrow(t).filter(
        lambda r: r["mime"] == "image/x-portable-pixmap")
    out = decode_images(ppm, fake=False, target_size=16).to_pandas()
    n_ppm = int(pa.compute.sum(pa.compute.equal(
        t.column("mime"), "image/x-portable-pixmap")).as_py())
    assert len(out) == n_ppm > 0
    assert out["mean_luma"].between(1, 254).all()
    wav = t.filter(pa.compute.equal(t.column("mime"), "audio/wav"))
    feats = ExtractAudioFeatures(fake=False)(wav)
    assert feats.num_rows == wav.num_rows


def test_minhash_signature_cache_resume(tmp_path):
    """signature_cache_dir: first call writes the signature Parquet,
    later calls (and restarts) reuse it without recompute; geometry
    mismatch is refused loudly."""
    import os

    import pytest as _pytest
    import ray.data as rd

    from ocm_ray.ops.dedup import minhash_lsh_pairs

    df = _dedup_corpus(n_base=80, seed=4)
    ds = rd.from_pandas(df).repartition(4)
    cache = str(tmp_path / "sigs")
    p1 = minhash_lsh_pairs(ds, threshold=0.5, signature_cache_dir=cache)
    files = sorted(os.listdir(cache))
    mtimes = {f: os.path.getmtime(os.path.join(cache, f)) for f in files}
    p2 = minhash_lsh_pairs(ds, threshold=0.5, signature_cache_dir=cache)
    pd.testing.assert_frame_equal(p1, p2)
    assert {f: os.path.getmtime(os.path.join(cache, f))
            for f in sorted(os.listdir(cache))} == mtimes  # no rewrite
    p3 = minhash_lsh_pairs(ds, threshold=0.5)  # uncached reference
    pd.testing.assert_frame_equal(p1, p3)
    with _pytest.raises(AssertionError):
        minhash_lsh_pairs(ds, threshold=0.5, num_perm=64, bands=32,
                          signature_cache_dir=cache)


def test_asof_join_broadcast_semantics():
    """Latest right row with right_ts <= left_ts per key; unmatched left
    rows drop; exact-equality timestamps match."""
    import ray.data as rd

    from ocm_ray.ops.relational import asof_join_broadcast

    left = pd.DataFrame({
        "k": ["a", "a", "a", "b", "c"],
        "ts": pd.to_datetime(["2020-01-01 10:30", "2020-01-01 11:00",
                              "2020-01-01 09:00", "2020-01-01 10:15",
                              "2020-01-01 12:00"]),
    })
    right = pd.DataFrame({
        "k": ["a", "a", "b"],
        "avail_ts": pd.to_datetime(["2020-01-01 10:00", "2020-01-01 11:00",
                                    "2020-01-01 09:30"]),
        "v": [5.0, 7.0, 1.0],
    })
    out = (asof_join_broadcast(rd.from_pandas(left), right, key="k")
           .to_pandas().sort_values(["k", "ts"]).reset_index(drop=True))
    # a@09:00 has no match (drops); c has no right rows (drops)
    assert len(out) == 3
    assert out.loc[0, "v"] == 5.0          # a@10:30 -> 10:00 row
    assert out.loc[1, "v"] == 7.0          # a@11:00 -> 11:00 row (ts == avail)
    assert out.loc[2, "v"] == 1.0          # b@10:15 -> 09:30 row


def test_interval_join_broadcast_overlapping():
    import ray.data as rd

    from ocm_ray.ops.relational import interval_join_broadcast

    left = pd.DataFrame({"value": [-5.0, 3.0, 50.0, 500.0]})
    bands = pd.DataFrame({"band": ["neg", "low", "mid", "high", "wide"],
                          "lo": [-1e9, 0.0, 10.0, 100.0, 0.0],
                          "hi": [0.0, 10.0, 100.0, 1e9, 1e9]})
    out = (interval_join_broadcast(rd.from_pandas(left), bands, "value")
           .to_pandas().sort_values(["value", "band"]).reset_index(drop=True))
    # each positive value matches its own band AND "wide" (overlap emits)
    got = set(map(tuple, out[["value", "band"]].to_numpy()))
    assert got == {(-5.0, "neg"), (3.0, "low"), (3.0, "wide"),
                   (50.0, "mid"), (50.0, "wide"),
                   (500.0, "high"), (500.0, "wide")}


def test_shuffle_join_matches_pandas():
    import ray.data as rd

    from ocm_ray.ops.relational import shuffle_join

    rng = np.random.default_rng(6)
    left = pd.DataFrame({"k": rng.integers(0, 50, 500),
                         "a": rng.integers(0, 100, 500)})
    right = pd.DataFrame({"rk": rng.integers(0, 50, 300),
                          "b": rng.integers(0, 100, 300)})
    out = shuffle_join(rd.from_pandas(left).repartition(4),
                       rd.from_pandas(right).repartition(4),
                       on="k", right_on="rk", num_partitions=4).to_pandas()
    exp = left.merge(right, left_on="k", right_on="rk")
    assert len(out) == len(exp)
    assert out["a"].sum() == exp["a"].sum() and out["b"].sum() == exp["b"].sum()


def test_hash_split_disjoint_exhaustive_deterministic():
    import ray.data as rd

    from ocm_ray.ops.sampling import hash_split

    df = pd.DataFrame({"doc_id": np.arange(20000),
                       "x": np.arange(20000) * 2})
    ds = rd.from_pandas(df).repartition(8)
    train, val, test = hash_split(ds, fractions=[0.8, 0.1])
    t, v, te = (s.to_pandas() for s in (train, val, test))
    ids = np.concatenate([t.doc_id, v.doc_id, te.doc_id])
    assert len(ids) == len(df) and len(np.unique(ids)) == len(df)  # partition
    assert abs(len(t) / len(df) - 0.8) < 0.02
    assert abs(len(v) / len(df) - 0.1) < 0.01
    # identical membership on a re-run with different partitioning
    train2, _, _ = hash_split(rd.from_pandas(df).repartition(3),
                              fractions=[0.8, 0.1])
    assert set(train2.to_pandas().doc_id) == set(t.doc_id)


def test_stratified_sample_fractions():
    import ray.data as rd

    from ocm_ray.ops.sampling import deterministic_sample, stratified_sample

    n = 30000
    df = pd.DataFrame({"doc_id": np.arange(n),
                       "source": np.where(np.arange(n) % 3 == 0, "web", "code")})
    out = stratified_sample(rd.from_pandas(df).repartition(6), "source",
                            {"web": 0.25, "code": 1.0}).to_pandas()
    kept = out.groupby("source").size()
    assert kept["code"] == (df.source == "code").sum()      # keep-all exact
    web_frac = kept["web"] / (df.source == "web").sum()
    assert abs(web_frac - 0.25) < 0.03
    # deterministic_sample: same rows every run
    s1 = deterministic_sample(rd.from_pandas(df), 0.1).to_pandas()
    s2 = deterministic_sample(rd.from_pandas(df).repartition(5), 0.1).to_pandas()
    assert set(s1.doc_id) == set(s2.doc_id)
    # string ids route through the stable codec
    df2 = df.assign(doc_id=[f"d{i}" for i in range(n)])
    s3 = deterministic_sample(rd.from_pandas(df2), 0.1).to_pandas()
    assert abs(len(s3) / n - 0.1) < 0.02


def test_pack_sequences_invariants():
    """Packing: every row exactly seq_len; token stream preserved in
    order with one EOS per document; padded tail accounted."""
    import ray.data as rd

    from ocm_ray.ops.packing import pack_batch, pack_sequences

    # unit: known tiny block
    flat = np.array([1, 2, 3, 4, 5], dtype=np.int32)
    lens = np.array([2, 3])
    seqs = pack_batch(flat, lens, seq_len=4, eos_id=99, pad_id=0,
                      drop_remainder=False)
    assert seqs.ravel().tolist() == [1, 2, 99, 3, 4, 5, 99, 0]

    # end-to-end over the sequences table shape
    rng = np.random.default_rng(9)
    rows = [{"tokens": rng.integers(0, 1000, rng.integers(5, 60))
             .astype(np.int32)} for _ in range(500)]
    df = pd.DataFrame(rows)
    out = pack_sequences(rd.from_pandas(df).repartition(4), seq_len=128,
                         eos_id=0, drop_remainder=True).to_pandas()
    mats = np.stack([np.asarray(r) for r in out["input_ids"]])
    assert mats.shape[1] == 128
    assert (out["n_tokens"] == 128).all()
    total_tokens = int(sum(len(r) for r in df["tokens"]))
    # packed tokens ≈ total + one EOS per doc, minus ≤ seq_len-1 waste
    # per block (4 blocks)
    packed = mats.size
    assert total_tokens <= packed + 4 * 127
    assert packed <= total_tokens + len(df)
    # determinism
    out2 = pack_sequences(rd.from_pandas(df).repartition(4), seq_len=128,
                          eos_id=0, drop_remainder=True).to_pandas()
    mats2 = np.stack([np.asarray(r) for r in out2["input_ids"]])
    assert np.array_equal(np.sort(mats.ravel()), np.sort(mats2.ravel()))


def test_multimodal_edge_payloads():
    """Null and tiny payloads must not NaN/TypeError the decode stages
    (read_webdataset yields null payloads for missing tar members)."""
    import pyarrow as pa
    import ray.data

    from ocm_ray.ops.multimodal import (DecodeImage, ExtractAudioFeatures,
                                        decode_images)

    t = pa.table({
        "media_id": pa.array([1, 2, 3], type=pa.int64()),
        "payload": pa.array([b"\x01\x02", None, b"\x09" * 64],
                            type=pa.binary()),
        "mime": pa.array(["application/octet-stream"] * 3),
    })
    feats = ExtractAudioFeatures(fake=True)(t).to_pandas()
    mat = np.vstack(feats["features"].to_numpy())
    assert np.isfinite(mat).all()          # short payload: no NaN chunks
    assert (mat[1] == 0.0).all()           # null payload: zero-filled

    px = DecodeImage(fake=True, target_size=4)(t).to_pandas()
    assert (np.asarray(px["pixels"].iloc[1]) == 0).all()
    assert px["mean_luma"].iloc[1] == 0.0

    with pytest.raises(ValueError):
        DecodeImage(fake=True, target_size=None)
    with pytest.raises(ValueError):
        DecodeImage(fake=True, target_size=0)
    with pytest.raises(ValueError):   # on the driver, at the call
        decode_images(ray.data.from_arrow(t), target_size=0)


def test_sequences_kwarg_cache_key(tmp_path):
    """ensure_sequences must not serve a cached table generated with
    DIFFERENT kwargs (part files are kept, so the dir key must cover
    every generation parameter)."""
    from ocm_ray.data.sequences import ensure_sequences, validate_sequences

    root = str(tmp_path / "cache")
    a = ensure_sequences(64, seed=1, n_files=2, root=root)
    b = ensure_sequences(64, seed=1, n_files=2, root=root, mean_len=3.0)
    assert a != b
    import pyarrow.parquet as pq
    ta = pq.read_table(f"{a}/part-00000.parquet")
    tb = pq.read_table(f"{b}/part-00000.parquet")
    assert not ta.equals(tb)

    with pytest.raises(FileNotFoundError):
        validate_sequences(str(tmp_path / "nope"))
