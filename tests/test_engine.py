"""End-to-end Ray Data engine tests: build / aggregate UDAF / grouped /
multi-round OCM / broadcast query / checkpoint-resume (SURVEY §5.4 item 4,
north-rule resume requirement)."""

import glob
import os

import numpy as np
import pytest

pytestmark = pytest.mark.usefixtures("ray_session")


@pytest.fixture(scope="module")
def seq_dir():
    from ocm_ray.data.sequences import ensure_sequences

    return ensure_sequences(500, seed=42, n_files=8)


@pytest.fixture(scope="module")
def truth(seq_dir):
    import duckdb

    con = duckdb.connect()
    df = con.execute(
        f"""SELECT t.tok AS token, count(*) AS true_count
            FROM (SELECT unnest(tokens) AS tok
                  FROM read_parquet('{seq_dir}/*.parquet')) t
            GROUP BY 1 ORDER BY 2 DESC"""
    ).df()
    con.close()
    return df


def test_sequences_deterministic(seq_dir, tmp_path):
    """FIXTURES.md F1 invariant: regeneration is bit-identical (the
    driver's per-row token-array-equality check)."""
    import pyarrow.parquet as pq

    from ocm_ray.data.sequences import generate_sequences

    regen = str(tmp_path / "regen")
    generate_sequences(regen, 500, seed=42, n_files=8)
    for f in sorted(os.listdir(seq_dir)):
        a = pq.read_table(os.path.join(seq_dir, f))
        b = pq.read_table(os.path.join(regen, f))
        assert a.equals(b), f"{f} differs on regeneration"


def test_build_sketch_matches_exact(seq_dir, truth):
    import ray.data as rd

    from ocm_ray.engine.build import build_sketch
    from ocm_ray.sketches import CountMin

    ds = rd.read_parquet(seq_dir, columns=["tokens"])
    cm = build_sketch(ds, lambda: CountMin(16, 5, conservative=True), parallelism=4)
    assert cm.total_items == truth.true_count.sum()
    est = cm.estimate(truth.token.values.astype(np.uint64))
    assert (est >= truth.true_count.values).all()
    # width 2^16 >> distinct ⇒ conservative CM should be near-exact
    assert (est == truth.true_count.values).mean() > 0.95


def test_build_sketch_parallelism_invariant(seq_dir, tmp_path):
    """Order-free sketches must be bit-identical at any parallelism and
    across build paths: the Dataset block fold and the checkpointed
    build equal the file-shard build byte for byte."""
    import ray.data as rd

    from ocm_ray.engine.build import build_sketch, build_sketch_sharded
    from ocm_ray.engine.checkpoint import build_sketch_checkpointed
    from ocm_ray.sketches import BloomFilter, CountMin, HyperLogLog

    files = sorted(glob.glob(os.path.join(seq_dir, "*.parquet")))
    for i, factory in enumerate((lambda: CountMin(14, 3),
                                 lambda: HyperLogLog(12),
                                 lambda: BloomFilter(16, 4))):
        want = build_sketch_sharded(files, factory).to_bytes()
        for p in (2, 5):
            got = build_sketch(rd.read_parquet(seq_dir, columns=["tokens"]),
                               factory, parallelism=p)
            assert got.to_bytes() == want, (type(got).__name__, p)
            ck = str(tmp_path / f"ck-{i}-{p}")
            got = build_sketch_checkpointed(files, factory, ck, shards=p)
            assert got.to_bytes() == want, (type(got).__name__, "ckpt", p)


def test_checkpointed_matches_sharded_conservative(seq_dir, tmp_path):
    """A conservative CM is grouping-dependent, yet the checkpointed
    build runs the sharded build's shard task over the same shard plan
    and merge order — so at equal shard counts the bytes match."""
    from ocm_ray.engine.build import build_sketch_sharded
    from ocm_ray.engine.checkpoint import build_sketch_checkpointed
    from ocm_ray.sketches import CountMin

    files = sorted(glob.glob(os.path.join(seq_dir, "*.parquet")))
    factory = lambda: CountMin(12, 5, conservative=True)
    got = build_sketch_checkpointed(files, factory, str(tmp_path / "ck"),
                                    shards=3)
    want = build_sketch_sharded(files, factory, shards=3)
    assert got.to_bytes() == want.to_bytes()


def _token_file(path, n_rows, row_len, seed, row_group_size=None):
    """A Parquet file of ``n_rows`` token lists of ``row_len`` ids each,
    plus a scalar ``doc`` column the plan must not count."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    rng = np.random.default_rng(seed)
    flat = rng.zipf(1.3, n_rows * row_len).astype(np.int64) % 3000
    offsets = np.arange(n_rows + 1, dtype=np.int32) * row_len
    tbl = pa.table({"doc": pa.array(np.arange(n_rows)),
                    "tokens": pa.ListArray.from_arrays(pa.array(offsets),
                                                       pa.array(flat))})
    pq.write_table(tbl, path, row_group_size=row_group_size)
    return path


@pytest.fixture(scope="module")
def skew_files(tmp_path_factory):
    """8 equal files plus one with 4x their tokens, not first by path."""
    d = tmp_path_factory.mktemp("skew")
    return [_token_file(str(d / f"part-{i:05d}.parquet"),
                        200 if i == 3 else 50, 40, seed=i)
            for i in range(9)]


def _plan_loads(plan):
    from ocm_ray.engine.build import _footer_weight

    return [sum(_footer_weight(f, "tokens") for f in g) for g in plan]


def test_plan_shards_balances_skewed_files(skew_files):
    from ocm_ray.engine.build import plan_shards

    plan = plan_shards(skew_files, 4, "tokens")
    assert len(plan) == 4
    assert sorted(f for g in plan for f in g) == sorted(skew_files)
    assert [skew_files[3]] in plan                 # the 4x file sits alone
    loads = _plan_loads(plan)
    assert max(loads) / float(np.median(loads)) <= 1.6
    # round-robin would have put the 4x file with another one
    rr = [skew_files[i::4] for i in range(4)]
    assert max(_plan_loads(rr)) > max(loads)
    # a pure function of the file set: repeatable, input-order-free
    shuffled = list(skew_files)
    np.random.default_rng(0).shuffle(shuffled)
    assert plan_shards(shuffled, 4, "tokens") == plan
    assert plan_shards(skew_files, 4, "tokens") == plan
    for g in plan:
        assert g == sorted(g)
    assert [g[0] for g in plan] == sorted(g[0] for g in plan)


def test_plan_shards_clamps_and_one_file_per_shard(skew_files):
    from ocm_ray.engine.build import plan_shards

    one_each = [[f] for f in sorted(skew_files)]
    assert plan_shards(skew_files[::-1], len(skew_files)) == one_each
    assert plan_shards(skew_files, 50) == one_each           # clamped
    assert plan_shards(skew_files, 0) == [sorted(skew_files)]
    assert plan_shards(skew_files, 1) == [sorted(skew_files)]


def test_plan_shards_weights_from_list_column_footers(tmp_path):
    import pyarrow.parquet as pq

    from ocm_ray.engine.build import _footer_weight, plan_shards

    f = _token_file(str(tmp_path / "a.parquet"), 30, 7, seed=1,
                    row_group_size=8)
    assert pq.read_metadata(f).num_row_groups == 4
    assert _footer_weight(f, "tokens") == 30 * 7      # list elements
    assert _footer_weight(f, "doc") == 30
    g = _token_file(str(tmp_path / "b.parquet"), 100, 1, seed=2)
    h = _token_file(str(tmp_path / "c.parquet"), 20, 1, seed=3)
    # by row count b is heaviest; by token count a is
    assert plan_shards([f, g, h], 2, "tokens") == [[f], [g, h]]
    assert plan_shards([f, g, h], 2, "doc") == [[f, h], [g]]
    # weightless (empty) files still spread one per shard
    e1 = _token_file(str(tmp_path / "e1.parquet"), 0, 3, seed=4)
    e2 = _token_file(str(tmp_path / "e2.parquet"), 0, 3, seed=5)
    assert _footer_weight(e1, "tokens") == 0
    assert plan_shards([f, e1, e2], 3) == [[f], [e1], [e2]]


def test_checkpointed_matches_sharded_conservative_on_skew(skew_files,
                                                           tmp_path):
    """Sharded and checkpointed builds share the size-aware plan, so a
    grouping-dependent conservative CM still matches byte for byte."""
    from ocm_ray.engine.build import build_sketch_sharded
    from ocm_ray.engine.checkpoint import build_sketch_checkpointed
    from ocm_ray.sketches import CountMin

    factory = lambda: CountMin(10, 5, conservative=True)
    got = build_sketch_checkpointed(skew_files, factory, str(tmp_path / "ck"),
                                    shards=4)
    want = build_sketch_sharded(skew_files, factory, shards=4)
    assert got.to_bytes() == want.to_bytes()


def test_block_fold_edge_inputs(seq_dir):
    """The block fold behind build_sketch and build_ocm(dataset_factory=)
    takes a Dataset filtered to zero rows, one with no blocks at all, a
    schema-less empty block (rule 8b), and pandas blocks."""
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray
    import ray.data as rd

    from ocm_ray.engine.build import build_sketch
    from ocm_ray.engine.rounds import build_ocm
    from ocm_ray.sketches import CountMin

    def both(make_ds, column="tokens"):
        cm = build_sketch(make_ds(), lambda: CountMin(14, 3), column=column,
                          parallelism=3)
        oc = build_ocm(make_ds, np_bits=13, nh=3, rounds=2,
                       conservative=False, column=column)
        return cm, oc

    for make in (lambda: rd.read_parquet(seq_dir, columns=["tokens", "n_tok"])
                 .filter(expr="n_tok < 0"),
                 lambda: rd.read_parquet(seq_dir, columns=["tokens"]).limit(0)):
        cm, oc = both(make)
        assert cm.total_items == 0 and not cm.core.any()
        assert oc.total_items == 0 and not oc.core.any()

    t = pq.read_table(os.path.join(seq_dir, "part-00000.parquet"),
                      columns=["tokens"])
    n = sum(len(x) for x in t.column("tokens").to_pylist())
    cm, oc = both(lambda: rd.from_arrow_refs(
        [ray.put(t), ray.put(pa.table({})), ray.put(t)]))
    assert cm.total_items == oc.total_items == 2 * n

    # array-valued pandas columns become Ray's tensor extension types
    # (variable-shaped; fixed-shaped when every row has one length)
    rows = [np.array(r, np.int32) for r in t.column("tokens").to_pylist()]
    for cut in (None, 3):
        arr = pa.array([r[:cut] for r in rows], type=pa.list_(pa.int32()))
        pdf = pd.DataFrame({"tokens": [r[:cut] for r in rows]})
        got = both(lambda: rd.from_pandas([pdf.iloc[:9], pdf.iloc[9:]]))
        want = both(lambda: rd.from_arrow(
            [pa.table({"tokens": arr[:9]}), pa.table({"tokens": arr[9:]})]))
        assert [s.to_bytes() for s in got] == [s.to_bytes() for s in want]

    toks = np.concatenate(t.column("tokens").to_pylist()).astype(np.int64)
    pdf = pd.DataFrame({"token": toks})
    cm, oc = both(lambda: rd.from_pandas([pdf.iloc[:500], pdf.iloc[500:]]),
                  column="token")
    assert cm.total_items == oc.total_items == len(toks)
    u, c = np.unique(toks, return_counts=True)
    assert (cm.estimate(u.astype(np.uint64)) >= c).all()


def test_aggregate_udaf(seq_dir, truth):
    import ray.data as rd

    from ocm_ray.engine.build import SketchAggregate
    from ocm_ray.sketches import HyperLogLog, MergeableSketch

    res = rd.read_parquet(seq_dir, columns=["tokens"]).aggregate(
        SketchAggregate(lambda: HyperLogLog(14), on="tokens"))
    hll = MergeableSketch.from_bytes(res["sketch(tokens)"])
    true = len(truth)
    assert abs(hll.estimate() - true) / true < 4 * hll.relative_error()


def test_grouped_sketches(seq_dir):
    import duckdb
    import ray.data as rd

    from ocm_ray.engine.build import grouped_sketches
    from ocm_ray.sketches import HyperLogLog

    per = grouped_sketches(rd.read_parquet(seq_dir, columns=["tokens", "source"]),
                           "source", lambda: HyperLogLog(14))
    con = duckdb.connect()
    exact = con.execute(
        f"""SELECT source, count(DISTINCT tok) AS d FROM
            (SELECT source, unnest(tokens) AS tok
             FROM read_parquet('{seq_dir}/*.parquet')) GROUP BY 1"""
    ).df().set_index("source")["d"]
    con.close()
    assert set(per) == set(exact.index)
    for src, sk in per.items():
        assert abs(sk.estimate() - exact[src]) / exact[src] < 0.05


def test_build_ocm_distributed(seq_dir, truth):
    import ray.data as rd

    from ocm_ray.engine.rounds import build_ocm
    from ocm_ray.sketches import CountMin, OfflineCountMin
    from ocm_ray.engine.build import build_sketch

    factory = lambda: rd.read_parquet(seq_dir, columns=["tokens"])
    oc = build_ocm(factory, np_bits=14, nh=5, rounds=3, conservative=True,
                   parallelism=4)
    est = oc.estimate(truth.token.values.astype(np.uint64))
    tc = truth.true_count.values
    assert (est >= tc).all()
    # NB: per-key est ≤ vanilla does NOT hold for OCM — its estimator reads
    # only the min-collision cell subset (min over a subset ≥ min over all
    # cells), a property shared with the sequential reference. The accuracy
    # claim is statistical: multi-round conservative beats single-pass
    # vanilla on skewed data (BASELINE.md rymv table: 60.7% vs 54.1% exact).
    van = build_sketch(factory(), lambda: CountMin(14, 5), parallelism=4)
    estv = van.estimate(truth.token.values.astype(np.uint64))
    assert (est == tc).mean() >= (estv == tc).mean()
    # (mean-error can wobble either way in light-collision regimes; the
    # heavy-collision benefit is asserted in test_countmin_conformance)


def test_query_dataset(seq_dir, truth):
    import ray.data as rd

    from ocm_ray.engine.build import build_sketch
    from ocm_ray.engine.query import attach_estimates
    from ocm_ray.sketches import CountMin

    cm = build_sketch(rd.read_parquet(seq_dir, columns=["tokens"]),
                      lambda: CountMin(16, 5, conservative=True), parallelism=4)
    qdf = truth.head(500)
    out = attach_estimates(rd.from_pandas(qdf), cm, item_col="token",
                           concurrency=2).to_pandas()
    assert len(out) == len(qdf)
    assert (out["estimated_count"] >= out["true_count"]).all()


def test_query_memo_keyed_by_ref():
    """The query stage keeps one broadcast sketch per worker process,
    keyed by its object ref: back-to-back queries over a multi-block
    Dataset with two different sketches, then a k-gram query, each
    estimate with their own sketch (a stale memo slot would reuse the
    previous one)."""
    import pyarrow as pa
    import ray.data as rd

    from ocm_ray.engine.query import attach_estimates
    from ocm_ray.engine.tokens import items_from_batch
    from ocm_ray.sketches import CountMin

    rng = np.random.default_rng(11)
    keys = rng.integers(0, 3000, 4000)
    pairs = rng.integers(0, 50, (4000, 2))

    def query(ds, sk, col, kgram=1):
        out = pa.concat_tables(
            list(attach_estimates(ds, sk, item_col=col, kgram=kgram)
                 .iter_batches(batch_format="pyarrow", batch_size=None)))
        want = sk.estimate(items_from_batch(out, col, kgram))
        np.testing.assert_array_equal(
            out.column("estimated_count").to_numpy(), want)
        return out

    key_ds = rd.from_arrow([pa.table({"token": keys[i:i + 500]})
                            for i in range(0, len(keys), 500)])
    a, b = CountMin(9, 3, seedseed=1), CountMin(9, 3, seedseed=2)
    a.update(keys.astype(np.uint64))
    b.update(rng.integers(0, 3000, 40_000).astype(np.uint64))
    assert not np.array_equal(a.estimate(keys.astype(np.uint64)),
                              b.estimate(keys.astype(np.uint64)))
    for sk in (a, b):
        out = query(key_ds, sk, "token")
        assert np.array_equal(np.sort(out.column("token").to_numpy()),
                              np.sort(keys))

    pair_tbl = pa.table({"pair": pa.array(pairs.tolist(),
                                          pa.list_(pa.int64()))})
    c = CountMin(9, 3, seedseed=3)
    c.update(items_from_batch(pair_tbl, "pair", 2))
    pair_ds = rd.from_arrow([pair_tbl.slice(i, 500)
                             for i in range(0, len(pairs), 500)])
    assert query(pair_ds, c, "pair", kgram=2).num_rows == len(pairs)


@pytest.mark.parametrize("conservative", [False, True],
                         ids=["vanilla", "conservative"])
def test_checkpoint_resume(seq_dir, tmp_path, conservative):
    """Kill-and-resume: delete some partials, rebuild — only missing shards
    recompute and the merged sketch equals the full build, checkpointed
    or not."""
    from ocm_ray.engine.build import build_sketch_sharded
    from ocm_ray.engine.checkpoint import build_sketch_checkpointed
    from ocm_ray.sketches import CountMin

    files = sorted(glob.glob(os.path.join(seq_dir, "*.parquet")))
    ck = str(tmp_path / "ckpt")
    factory = lambda: CountMin(14, 3, conservative=conservative)
    full = build_sketch_checkpointed(files, factory, ck, shards=4)
    # simulate a crash: lose two partials (and the merged artifact)
    os.remove(os.path.join(ck, "partial-00001.sk"))
    os.remove(os.path.join(ck, "partial-00003.sk"))
    os.remove(os.path.join(ck, "merged.sk"))
    resumed = build_sketch_checkpointed(files, factory, ck, shards=4)
    assert resumed.to_bytes() == full.to_bytes()
    assert resumed.to_bytes() == \
        build_sketch_sharded(files, factory, shards=4).to_bytes()
    import json

    manifest = json.load(open(os.path.join(ck, "manifest.json")))
    assert manifest["resumed_shards"] == 2 and manifest["built_shards"] == 2
    # lineage records per-shard provenance
    lineage = json.load(open(os.path.join(ck, "lineage-00000.json")))
    assert lineage["fingerprint"] and lineage["rows"] > 0


def test_checkpoint_stale_input_detected(seq_dir, tmp_path):
    """A partial whose input fingerprint no longer matches is rebuilt."""
    import json

    from ocm_ray.engine.checkpoint import build_sketch_checkpointed
    from ocm_ray.sketches import HyperLogLog

    files = sorted(glob.glob(os.path.join(seq_dir, "*.parquet")))
    ck = str(tmp_path / "ckpt2")
    build_sketch_checkpointed(files, lambda: HyperLogLog(10), ck, shards=2)
    lpath = os.path.join(ck, "lineage-00000.json")
    lineage = json.load(open(lpath))
    lineage["fingerprint"] = "stale"
    json.dump(lineage, open(lpath, "w"))
    build_sketch_checkpointed(files, lambda: HyperLogLog(10), ck, shards=2)
    manifest = json.load(open(os.path.join(ck, "manifest.json")))
    assert manifest["built_shards"] == 1 and manifest["resumed_shards"] == 1


def test_ocm_round_checkpointer(seq_dir, truth, tmp_path):
    import ray.data as rd

    from ocm_ray.engine.checkpoint import RoundCheckpointer
    from ocm_ray.engine.rounds import build_ocm

    factory = lambda: rd.read_parquet(seq_dir, columns=["tokens"])
    ck = RoundCheckpointer(str(tmp_path / "rounds"))
    full = build_ocm(factory, np_bits=13, nh=3, rounds=3, conservative=False,
                     parallelism=4, on_round_end=ck)
    assert ck.last_completed() == 2
    # resume from round 1's checkpoint → identical final state
    resumed = build_ocm(factory, np_bits=13, nh=3, rounds=3, conservative=False,
                        parallelism=4, resume_from=(1, ck.load(1)))
    assert np.array_equal(full.core, resumed.core)
    assert np.array_equal(full.collision, resumed.collision)


def test_kgram_items(seq_dir):
    """k-gram windowing: windows never cross document boundaries."""
    import pyarrow.parquet as pq

    from ocm_ray.engine.tokens import items_from_batch

    t = pq.read_table(os.path.join(seq_dir, "part-00000.parquet"),
                      columns=["tokens", "n_tok"])
    k = 3
    items = items_from_batch(t, "tokens", kgram=k)
    lens = t.column("n_tok").to_numpy(zero_copy_only=False)
    expect = int(np.maximum(lens - k + 1, 0).sum())
    assert len(items) == expect


def test_resumable_etl(seq_dir, tmp_path):
    """run_resumable_etl: atomic per-shard outputs + skip-on-rerun."""
    import glob as g
    import json

    import pyarrow as pa
    import pyarrow.compute as pc

    from ocm_ray.engine.io import run_resumable_etl

    files = sorted(g.glob(os.path.join(seq_dir, "*.parquet")))

    def keep_long(t: pa.Table) -> pa.Table:
        return t.filter(pc.greater(t.column("n_tok"), 500))

    out = str(tmp_path / "etl")
    m1 = run_resumable_etl(files, out, keep_long, columns=["doc_id", "n_tok"])
    assert m1["built"] == len(files) and m1["skipped"] == 0
    # rerun: everything skipped, outputs unchanged
    m2 = run_resumable_etl(files, out, keep_long, columns=["doc_id", "n_tok"])
    assert m2["built"] == 0 and m2["skipped"] == len(files)
    # crash simulation: lose one output part (names are path-hashed —
    # read the victim's name from the manifest)
    victim = m2["shards"][2]["out_file"]
    os.remove(os.path.join(out, victim))
    m3 = run_resumable_etl(files, out, keep_long, columns=["doc_id", "n_tok"])
    assert m3["built"] == 1 and m3["skipped"] == len(files) - 1
    # row counts correct vs duckdb
    import duckdb

    con = duckdb.connect()
    expect = con.execute(
        f"SELECT count(*) FROM read_parquet('{seq_dir}/*.parquet') WHERE n_tok > 500"
    ).fetchone()[0]
    total = sum(e["rows_out"] for e in m3["shards"])
    assert total == expect
    con.close()


def test_write_partitioned_by(seq_dir, tmp_path):
    import glob as g

    import ray.data as rd

    from ocm_ray.engine.io import write_partitioned_by

    out = str(tmp_path / "bysource")
    write_partitioned_by(rd.read_parquet(seq_dir, columns=["doc_id", "source"]),
                         out, ["source"])
    dirs = {os.path.basename(p) for p in g.glob(os.path.join(out, "*"))}
    assert {"source=web", "source=books", "source=code", "source=wiki"} <= dirs
    # pruned read sees only one partition
    n_web = rd.read_parquet(os.path.join(out, "source=web")).count()
    import duckdb

    con = duckdb.connect()
    expect = con.execute(
        f"SELECT count(*) FROM read_parquet('{seq_dir}/*.parquet') WHERE source='web'"
    ).fetchone()[0]
    assert n_web == expect
    con.close()


def test_flagship_pipeline(seq_dir, tmp_path):
    from ocm_ray.pipelines.flagship import accuracy_report, count_and_query

    df = count_and_query(seq_dir, np_bits=14, nh=5, rounds=2,
                         top_n_queries=200, parallelism=4,
                         checkpoint_dir=str(tmp_path / "fck"))
    rep = accuracy_report(df)
    assert rep["underestimates"] == 0
    assert rep["exact_frac"] > 0.9
    assert 0 < rep["spearman"] <= 1
    assert os.path.exists(str(tmp_path / "fck" / "round-01.sk"))


def test_engine_parquet_matches_reference_binary(reference_binaries, parity_fasta,
                                                 tmp_path):
    """FIXTURES.md F4 closure: the ENGINE running over a token-equivalent
    Parquet table produces the same sketch as the reference binary over
    the FASTA (vanilla CM — bit-exact at any partitioning)."""
    import subprocess

    import pyarrow as pa
    import pyarrow.parquet as pq

    from ocm_ray.core.dna_compat import kmer_stream_from_fasta
    from ocm_ray.engine.build import build_sketch_sharded
    from ocm_ray.sketches import CountMin

    K, NP, NH = 11, 12, 5
    ref_bin = str(tmp_path / "ref_cm.bin")
    subprocess.run([reference_binaries["cm"], "count", "-k", str(K), "-h",
                    str(NH), "-w", str(1 << NP), "-o", ref_bin,
                    "-fa", parity_fasta, "pad"], check=True, capture_output=True)
    # token table: the identical update stream as list<int64> rows
    stream = kmer_stream_from_fasta(open(parity_fasta, "rb").read(), K,
                                    canonicalize=True, chunk_size=1000)
    d = tmp_path / "compat_tokens"
    d.mkdir()
    chunks = np.array_split(stream.view(np.int64), 6)
    for i in range(3):  # multiple files → real shard boundaries
        rows = chunks[2 * i: 2 * i + 2]
        col = pa.array([r.tolist() for r in rows], type=pa.list_(pa.int64()))
        pq.write_table(pa.table({"tokens": col}), str(d / f"part-{i}.parquet"))
    files = sorted(str(p) for p in d.glob("*.parquet"))
    sk = build_sketch_sharded(files, lambda: CountMin(NP, NH, 137), shards=3)
    ref = CountMin.load_reference_format(ref_bin)
    assert np.array_equal(sk.core, ref.core)


def test_ocm_files_path_matches_dataset_path(seq_dir):
    """The file-shard scan and the Dataset block scan produce identical
    non-conservative OCM state (frozen-read passes are pure
    functions of the multiset)."""
    import ray.data as rd

    from ocm_ray.engine.rounds import build_ocm

    files = sorted(glob.glob(os.path.join(seq_dir, "*.parquet")))
    a = build_ocm(files=files, np_bits=13, nh=3, rounds=3, conservative=False,
                  parallelism=4)
    b = build_ocm(lambda: rd.read_parquet(seq_dir, columns=["tokens"]),
                  np_bits=13, nh=3, rounds=3, conservative=False, parallelism=3)
    assert np.array_equal(a.core, b.core)
    assert np.array_equal(a.collision, b.collision)


def test_pretraining_curation_pipeline(tmp_path):
    """End-to-end curation flow over documents with planted dups."""
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ocm_ray.pipelines.pretraining import curate

    docs = pd.read_parquet("/root/testdata/sf0.001/documents.parquet")
    dup = docs.iloc[[3]].copy()
    dup["doc_id"] = 100001          # exact dup of doc 3
    near = docs.iloc[[7]].copy()
    near["doc_id"] = 100002
    near["text"] = near["text"].str.replace("value", "thing", n=1)
    corpus = pd.concat([docs, dup, near], ignore_index=True)
    src = str(tmp_path / "docs.parquet")
    pq.write_table(pa.Table.from_pandas(corpus, preserve_index=False), src)

    out = str(tmp_path / "curated")
    summary = curate(src, out, quality_min=0.0, near_dup_threshold=0.8,
                     concurrency=2)
    assert summary["n_input"] == len(corpus)
    assert summary["n_exact_unique"] == len(corpus) - 1   # exact dup folded
    assert summary["n_near_dup_dropped"] >= 1             # near dup caught
    assert summary["n_output"] <= summary["n_exact_unique"] - 1
    # partitioned output readable + prunable
    import glob as g

    parts = {os.path.basename(p) for p in g.glob(os.path.join(out, "*"))}
    assert any(p.startswith("source=") for p in parts)
    import ray.data as rd

    assert rd.read_parquet(out).count() == summary["n_output"]


def test_grouped_udaf_via_native_aggregate(seq_dir):
    """SketchAggregate composes with ds.groupby(key).aggregate(...) —
    one serialized sketch per key, estimates near exact distincts."""
    import duckdb
    import ray.data as rd

    from ocm_ray.engine.build import SketchAggregate
    from ocm_ray.sketches import HyperLogLog, MergeableSketch

    out = (rd.read_parquet(seq_dir, columns=["tokens", "source"])
           .groupby("source")
           .aggregate(SketchAggregate(lambda: HyperLogLog(14), on="tokens"))
           .to_pandas())
    con = duckdb.connect()
    exact = con.execute(
        f"""SELECT source, count(DISTINCT tok) AS d FROM
            (SELECT source, unnest(tokens) AS tok
             FROM read_parquet('{seq_dir}/*.parquet')) GROUP BY 1"""
    ).df().set_index("source")["d"]
    con.close()
    assert len(out) == len(exact)
    for _, row in out.iterrows():
        sk = MergeableSketch.from_bytes(row["sketch(tokens)"])
        true = exact[row["source"]]
        assert abs(sk.estimate() - true) / true < 0.05


def test_validate_sequences_invariant(seq_dir, tmp_path):
    """The per-row token-array-equality stage passes on pristine data and
    catches a corrupted row."""
    import shutil

    import pyarrow.parquet as pq

    from ocm_ray.data.sequences import validate_sequences

    rep = validate_sequences(seq_dir)
    assert rep["mismatched_rows"] == 0 and rep["rows"] == 500

    # corrupt one file: swap a token
    bad_dir = str(tmp_path / "corrupt")
    shutil.copytree(seq_dir, bad_dir)
    f = os.path.join(bad_dir, "part-00002.parquet")
    t = pq.read_table(f).to_pandas()
    row = t.loc[0, "tokens"].copy()
    row[0] = row[0] + 1
    t.at[0, "tokens"] = row
    import pyarrow as pa

    pq.write_table(pa.Table.from_pandas(t, preserve_index=False), f)
    with pytest.raises(AssertionError):
        validate_sequences(bad_dir)


def test_occm_paper_collision_pass_is_noop(seq_dir):
    """SURVEY §7.4 / §2.1 row 20: the reference's CODED conservative
    schedule runs a separate collision sweep before every fused pass
    (2n−1 passes, main.cpp:68-86), but those marks are already written by
    the previous round's fused pass — byte-identical final sketches."""
    import glob as _glob
    import os as _os

    from ocm_ray.engine.rounds import build_ocm

    # files path: deterministic per-shard count tables, so the two
    # builds see IDENTICAL streams (a Dataset's block order may differ
    # across executions, and OCCM is order-dependent — the byte-identity
    # claim needs a deterministic substrate)
    files = sorted(_glob.glob(_os.path.join(seq_dir, "*.parquet")))
    eff = build_ocm(np_bits=13, nh=3, rounds=3, conservative=True,
                    files=files)
    paper = build_ocm(np_bits=13, nh=3, rounds=3, conservative=True,
                      files=files, paper_collision_pass=True)
    assert np.array_equal(eff.core, paper.core)
    assert np.array_equal(eff.collision, paper.collision)
    assert eff.n_items == paper.n_items


def test_block_fold_survives_stray_fractional_actor(seq_dir, truth):
    """Deadlock regression (round 4): the streaming_split consumers this
    fold replaced wedged silently when a stray fractional-CPU actor (e.g.
    a map-pool worker still draining from an earlier pipeline) left < 1
    CPU for a read task paused on backpressure. Fold tasks depend only on
    blocks that already exist, so both Dataset builds complete over a
    filtered read with the stray alive."""
    import ray
    import ray.data as rd

    from ocm_ray.engine.build import build_sketch
    from ocm_ray.engine.rounds import build_ocm
    from ocm_ray.sketches import CountMin

    @ray.remote(num_cpus=0.5)
    class _Stray:
        def ping(self):
            return 1

    stray = _Stray.remote()
    ray.get(stray.ping.remote())  # holds 0.5 of the 4 fixture CPUs
    # every document has tokens, so the filter keeps the whole corpus
    factory = lambda: rd.read_parquet(  # noqa: E731
        seq_dir, columns=["tokens", "n_tok"]).filter(expr="n_tok > 0")
    try:
        cm = build_sketch(factory(), lambda: CountMin(14, 3), parallelism=3)
        assert cm.total_items == truth.true_count.sum()
        est = cm.estimate(truth.token.values.astype(np.uint64))
        assert (est >= truth.true_count.values).all()
        oc = build_ocm(factory, np_bits=13, nh=3, rounds=2,
                       conservative=False)
        est = oc.estimate(truth.token.values.astype(np.uint64))
        assert (est >= truth.true_count.values).all()
    finally:
        ray.kill(stray)


def test_checkpoint_fingerprint_mtime_sensitive(seq_dir, tmp_path):
    """A regenerated shard file with IDENTICAL byte size must invalidate
    the shard fingerprint (basename+size alone would silently reuse a
    stale partial)."""
    from ocm_ray.engine.checkpoint import _fingerprint

    f = str(tmp_path / "part-00000.parquet")
    with open(f, "wb") as fh:
        fh.write(b"x" * 128)
    before = _fingerprint([f])
    os.utime(f, ns=(1_000_000_000, 1_000_000_000))  # same size, new mtime
    assert _fingerprint([f]) != before
    # and the path (not just basename) is part of the identity
    g = str(tmp_path / "sub")
    os.makedirs(g)
    g = os.path.join(g, "part-00000.parquet")
    with open(g, "wb") as fh:
        fh.write(b"x" * 128)
    os.utime(g, ns=(1_000_000_000, 1_000_000_000))
    assert _fingerprint([g]) != _fingerprint([f])


def test_round_checkpointer_params_guard(tmp_path):
    """Round files written under different run params are stale: a rerun
    with a changed seed/geometry must NOT resume from them."""
    from ocm_ray.engine.checkpoint import RoundCheckpointer
    from ocm_ray.sketches import CountMin

    d = str(tmp_path / "rounds")
    a = {"np_bits": 13, "nh": 3, "seed": 137, "conservative": True,
         "column": "tokens", "kgram": 1, "input": "fp-a"}
    ck = RoundCheckpointer(d, params=a)
    ck(0, CountMin(8, 3))
    ck(1, CountMin(8, 3))
    assert ck.last_completed() == 1
    # same params → resume point survives re-construction
    assert RoundCheckpointer(d, params=dict(a)).last_completed() == 1
    # a saved corpus scan (build_ocm's count tables) sits next to them
    for name in ("scan-00000.npz", "scan-00001.npz", "scan.json"):
        open(os.path.join(d, name), "wb").close()
    RoundCheckpointer(d, params=dict(a))
    assert sorted(f for f in os.listdir(d) if f.startswith("scan")) == \
        ["scan-00000.npz", "scan-00001.npz", "scan.json"]
    # changed seed → stale round and scan files are discarded
    b = dict(a, seed=999)
    assert RoundCheckpointer(d, params=b).last_completed() == -1
    assert not [f for f in os.listdir(d) if f.startswith("scan")]
    # and the new identity is now the persisted one
    assert RoundCheckpointer(d, params=b).last_completed() == -1


def test_round_checkpointer_load_closes_files(tmp_path, monkeypatch):
    """Loading a round (and re-opening the directory, which reads
    params.json) closes every file it opens, even when something keeps
    the file objects alive."""
    import builtins

    from ocm_ray.engine.checkpoint import RoundCheckpointer
    from ocm_ray.sketches import CountMin

    d = str(tmp_path / "rounds")
    RoundCheckpointer(d, params={"seed": 1})(0, CountMin(8, 3))
    opened = []
    real_open = builtins.open

    def holding_open(*a, **k):
        fh = real_open(*a, **k)
        opened.append(fh)
        return fh

    monkeypatch.setattr(builtins, "open", holding_open)

    def nfds():
        return len(os.listdir("/proc/self/fd"))

    before = nfds()
    for _ in range(20):
        ck = RoundCheckpointer(d, params={"seed": 1})
        assert ck.load(0).nh == 3
    assert len(opened) >= 40
    assert nfds() <= before


@pytest.fixture
def occm_files(seq_dir, tmp_path):
    """Private copies of the corpus: the scan-checkpoint tests bump
    input mtimes."""
    import shutil

    out = []
    os.makedirs(tmp_path / "corpus")
    for f in sorted(glob.glob(os.path.join(seq_dir, "*.parquet"))):
        out.append(shutil.copy2(f, str(tmp_path / "corpus")))
    return out


@pytest.mark.parametrize("collapse_threshold", [1 << 22, 0],
                         ids=["collapse", "sharded"])
def test_occm_resume_loads_scan_checkpoint(occm_files, tmp_path,
                                           collapse_threshold):
    """A RoundCheckpointer also checkpoints the corpus scan: a resume
    loads the saved count tables instead of re-reading Parquet and ends
    byte-identical to the full build; a changed input or a missing scan
    file makes it rescan (still identical); a fresh build always
    scans."""
    from ocm_ray.engine.checkpoint import RoundCheckpointer
    from ocm_ray.engine.rounds import build_ocm

    def build(ck, resume=False):
        m = {}
        sk = build_ocm(files=occm_files, np_bits=13, nh=3, rounds=4,
                       conservative=True, parallelism=4, on_round_end=ck,
                       resume_from=(1, ck.load(1)) if resume else None,
                       collapse_threshold=collapse_threshold, metrics=m)
        return sk, m

    def assert_same(a, b):
        assert np.array_equal(a.core, b.core)
        assert np.array_equal(a.collision, b.collision)
        assert a.n_items == b.n_items
        assert a.to_bytes() == b.to_bytes()

    d = str(tmp_path / "rounds")
    ck = RoundCheckpointer(d)
    full, m = build(ck)
    assert m["scan"] == "files"
    n_tables = m["count_tables"]
    assert n_tables == (1 if collapse_threshold else 4)
    assert len(glob.glob(os.path.join(d, "scan-*.npz"))) == n_tables

    resumed, m2 = build(ck, resume=True)
    assert m2["scan"] == "checkpoint"
    assert_same(resumed, full)
    # the saved manifest keeps the plan attribution correct
    assert {k: m2[k] for k in ("plan", "count_tables", "table_rows")} == \
        {k: m[k] for k in ("plan", "count_tables", "table_rows")}

    # a fresh build never trusts a saved scan
    assert build(ck)[1]["scan"] == "files"

    # a bumped input mtime invalidates the scan: rescan, same sketch
    st = os.stat(occm_files[0])
    os.utime(occm_files[0], ns=(st.st_atime_ns, st.st_mtime_ns + 10**9))
    resumed, m2 = build(ck, resume=True)
    assert m2["scan"] == "files"
    fresh, _ = build(RoundCheckpointer(str(tmp_path / "fresh")))
    assert_same(resumed, fresh)
    assert_same(resumed, full)
    # the rescan rewrote the scan under the new key
    assert build(ck, resume=True)[1]["scan"] == "checkpoint"

    # a missing manifest or a missing table file: rescan, same sketch
    for victim in ("scan.json", f"scan-{n_tables - 1:05d}.npz"):
        os.remove(os.path.join(d, victim))
        resumed, m2 = build(ck, resume=True)
        assert m2["scan"] == "files"
        assert_same(resumed, full)


def test_occm_resume_of_finished_run_reads_nothing(occm_files, tmp_path):
    """A resume with no round left to run returns the checkpointed
    sketch before any scan: it succeeds with every input file gone."""
    from ocm_ray.engine.checkpoint import RoundCheckpointer
    from ocm_ray.engine.rounds import build_ocm

    ck = RoundCheckpointer(str(tmp_path / "rounds"))
    kw = dict(files=occm_files, np_bits=13, nh=3, rounds=2,
              conservative=True, parallelism=4, on_round_end=ck)
    full = build_ocm(**kw)
    for f in occm_files:
        os.remove(f)
    resumed = build_ocm(**kw, resume_from=(1, ck.load(1)))
    assert resumed.to_bytes() == full.to_bytes()


def test_occm_dataset_path_writes_no_scan(seq_dir, tmp_path):
    """The dataset_factory= scan has no input fingerprint to key a saved
    scan by: it writes no scan files, and a resume rescans."""
    import ray.data as rd

    from ocm_ray.engine.checkpoint import RoundCheckpointer
    from ocm_ray.engine.rounds import build_ocm

    factory = lambda: rd.read_parquet(seq_dir, columns=["tokens"])  # noqa: E731
    d = str(tmp_path / "rounds")
    ck = RoundCheckpointer(d)
    for resume in (False, True):
        m = {}
        build_ocm(factory, np_bits=13, nh=3, rounds=2, conservative=False,
                  on_round_end=ck, metrics=m,
                  resume_from=(0, ck.load(0)) if resume else None)
        assert m["scan"] == "dataset"
        assert not [f for f in os.listdir(d) if f.startswith("scan")]


def test_stored_width_ids_build_like_uint64_stream(tmp_path):
    """list<int64> tokens holding a negative id and an id >= 2^22 (both
    off the combiner's dense path) build the same sketches as the
    uint64-widened stream: a vanilla CM through build_sketch_sharded
    equals CountMin.update of the widened ids, and build_ocm(files=)
    equals the build over the same rows stored as list<uint64>."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ocm_ray.engine.build import build_sketch_sharded
    from ocm_ray.engine.rounds import build_ocm
    from ocm_ray.sketches import CountMin

    rng = np.random.default_rng(11)
    rows = [list(rng.integers(0, 500, 30)) for _ in range(40)]
    rows[3] += [-7, 1 << 22, -7]
    rows[17] += [(1 << 40) + 3, -1]
    flat = np.concatenate(rows).astype(np.int64)
    paths = {}
    for name, typ in (("i64", pa.int64()), ("u64", pa.uint64())):
        paths[name] = [str(tmp_path / f"{name}-{i}.parquet") for i in range(2)]
        for i, path in enumerate(paths[name]):
            vals = [np.asarray(r, dtype=np.int64).astype(typ.to_pandas_dtype())
                    for r in rows[i::2]]
            pq.write_table(pa.table({"tokens": pa.array(vals,
                                                        type=pa.list_(typ))}),
                           path, row_group_size=7)

    want = CountMin(12, 4)
    want.update(flat.astype(np.uint64))
    for shards in (1, 2):
        got = build_sketch_sharded(paths["i64"], lambda: CountMin(12, 4),
                                   shards=shards, batch_size=5)
        assert got.to_bytes() == want.to_bytes()
    for conservative in (False, True):
        a, b = (build_ocm(files=paths[name], np_bits=10, nh=3, rounds=3,
                          conservative=conservative, parallelism=2)
                for name in ("i64", "u64"))
        assert a.to_bytes() == b.to_bytes()
        assert a.total_items == len(flat)


def test_final_weight_sketches_refuse_split_partials(tmp_path):
    """cws/pmh take an element's FINAL weight: a build, UDAF aggregate or
    per-key build that would merge partials over files or blocks sharing
    tokens raises ValueError naming the fix, and one shard (one block)
    equals the one-shot sketch of the whole count table (block)."""
    import functools

    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from ocm_ray.engine.build import (SketchAggregate, build_sketch,
                                      build_sketch_sharded, grouped_sketches)
    from ocm_ray.engine.checkpoint import build_sketch_checkpointed
    from ocm_ray.engine.tokens import items_from_batch
    from ocm_ray.sketches import MergeableSketch
    from ocm_ray.sketches.cws import WeightedMinHash
    from ocm_ray.sketches.pmh import ProbMinHash

    rng = np.random.default_rng(12)
    files, flat = [], []
    for i in range(4):
        rows = [rng.integers(0, 300, 25) for _ in range(30)]
        flat += rows
        files.append(str(tmp_path / f"p{i}.parquet"))
        pq.write_table(pa.table({"tokens": pa.array(rows, type=pa.list_(
            pa.int32()))}), files[-1])
    u, c = np.unique(np.concatenate(flat).astype(np.uint64),
                     return_counts=True)
    for cls in (WeightedMinHash, ProbMinHash):
        def factory():
            return cls(32)

        for fac in (factory, functools.partial(cls, 32)):
            with pytest.raises(ValueError, match="shards=1"):
                build_sketch_sharded(files, fac, shards=4)
        with pytest.raises(ValueError, match="shards=1"):
            build_sketch_checkpointed(files, factory, str(tmp_path / "ck"),
                                      shards=4)
        with pytest.raises(ValueError, match="FINAL weights"):
            build_sketch(rd.read_parquet(files).repartition(4), factory,
                         parallelism=2)
        # the UDAF and the per-key build: blocks sharing a key raise, one
        # block per key gives that block's sketch
        keyed = lambda ds: ds.map_batches(
            lambda b: b.append_column("k", pa.array(["a"] * b.num_rows)),
            batch_format="pyarrow")
        table = pa.concat_tables(pq.read_table(f) for f in files)
        block = factory()
        block.update(items_from_batch(table, "tokens"))
        split = rd.read_parquet(files).repartition(4)
        with pytest.raises(ValueError, match="FINAL weights"):
            split.aggregate(SketchAggregate(factory))
        with pytest.raises(ValueError, match="FINAL weights"):
            grouped_sketches(keyed(split), "k", factory)
        whole = rd.from_arrow(table)
        for got in (MergeableSketch.from_bytes(whole.aggregate(
                        SketchAggregate(factory))["sketch(tokens)"]),
                    grouped_sketches(keyed(whole), "k", factory)["a"]):
            assert got.to_bytes() == block.to_bytes(), cls.__name__
        one = factory()
        one.update(u, c.astype(np.int64))
        for got in (build_sketch_sharded(files, factory, shards=1),
                    build_sketch_checkpointed(
                        files, factory, str(tmp_path / cls.__name__),
                        shards=1)):
            assert got.to_bytes() == one.to_bytes(), cls.__name__


def test_items_from_batch_large_binary():
    """large_binary columns (polars / >2GB Arrow promotion) hash
    identically to binary ones instead of raising TypeError."""
    import pyarrow as pa

    from ocm_ray.engine.tokens import items_from_batch

    vals = [b"alpha", b"beta", b"", b"gamma"]
    small = pa.table({"content": pa.array(vals, type=pa.binary())})
    large = pa.table({"content": pa.array(vals, type=pa.large_binary())})
    np.testing.assert_array_equal(items_from_batch(small, "content"),
                                  items_from_batch(large, "content"))


def test_resumable_etl_input_set_change_and_empty_shards(seq_dir, tmp_path):
    """Path-hashed part names: adding an input must NOT remap another
    file's stale output (the positional-naming corruption); a fully
    filtered shard writes a SCHEMA'D empty part (zero-column parts make
    directory reads silently drop all columns)."""
    import glob as g

    import duckdb
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from ocm_ray.engine.io import run_resumable_etl

    files = sorted(g.glob(os.path.join(seq_dir, "*.parquet")))

    def keep_none_of_first(t: pa.Table) -> pa.Table:
        return t.filter(pc.greater(t.column("n_tok"), 10_000_000))

    out = str(tmp_path / "etl2")
    run_resumable_etl(files[1:], out, keep_none_of_first,
                      columns=["doc_id", "n_tok"])
    # every part is fully filtered but still schema'd: the directory
    # must read back with the OUTPUT schema, zero rows
    t = pq.read_table(out)
    assert t.num_rows == 0 and set(t.schema.names) == {"doc_id", "n_tok"}
    con = duckdb.connect()
    n = con.execute(
        f"SELECT count(*) FROM read_parquet('{out}/part-*.parquet')"
    ).fetchone()[0]  # duckdb hard-errors on zero-column parts
    assert n == 0
    con.close()

    # now ADD the first file: only IT builds; no kept shard's output is
    # served from another input's part
    m = run_resumable_etl(files, out, keep_none_of_first,
                          columns=["doc_id", "n_tok"])
    assert m["built"] == 1 and m["skipped"] == len(files) - 1
    assert len({e["out_file"] for e in m["shards"]}) == len(files)
    # stale-part reconciliation: exactly one part per current input
    parts = g.glob(os.path.join(out, "part-*.parquet"))
    assert len(parts) == len(files)


def test_orc_roundtrip_and_dirty_sink_guard(seq_dir, tmp_path):
    """ORC source/sink: per-block parts round-trip the data exactly
    (incl. list<int> token arrays), column pruning works at the stripe
    read, a dirty sink is refused without overwrite=True, and
    overwrite reconciles stale parts away."""
    import pandas as pd
    import pyarrow.parquet as pq
    import ray.data as rd
    from pyarrow import orc

    from ocm_ray.engine.io import read_orc, write_orc

    out = str(tmp_path / "orc")
    ds = rd.read_parquet(seq_dir, columns=["doc_id", "n_tok", "tokens"])
    manifest = write_orc(ds, out, stripe_size=4096, batch_size=16)  # force multi-stripe
    assert sum(n for _, n in manifest) == ds.count()
    # at least one part must hold >1 stripe or the stripe loop is untested
    assert any(orc.ORCFile(p).nstripes > 1 for p, _ in manifest)

    back = read_orc(out).to_pandas().sort_values("doc_id") \
        .reset_index(drop=True)
    want = pq.read_table(
        seq_dir, columns=["doc_id", "n_tok", "tokens"]).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert back["doc_id"].tolist() == want["doc_id"].tolist()
    assert back["n_tok"].tolist() == want["n_tok"].tolist()
    assert all(np.array_equal(a, b)
               for a, b in zip(back["tokens"], want["tokens"]))

    # column pruning at the stripe read
    pruned = read_orc(out, columns=["n_tok"])
    t = pruned.take_batch(10, batch_format="pyarrow")
    assert t.schema.names == ["n_tok"]
    assert int(read_orc(out, columns=["n_tok"]).sum("n_tok")) \
        == int(want["n_tok"].sum())

    # dirty-sink guard
    with pytest.raises(ValueError, match="already holds"):
        write_orc(ds, out)
    # overwrite reconciles: plant a stale part, rerun, stale is gone
    stale = os.path.join(out, "part-stale.orc")
    orc.write_table(pq.read_table(seq_dir, columns=["doc_id"]), stale)
    m2 = write_orc(ds, out, overwrite=True, stripe_size=4096)
    assert not os.path.exists(stale)
    assert sum(n for _, n in m2) == len(want)

    # rule 8b: an empty part still carries the (pruned) schema
    empty_dir = str(tmp_path / "orc_empty")
    os.makedirs(empty_dir)
    orc.write_table(
        pq.read_table(seq_dir, columns=["doc_id", "n_tok"]).slice(0, 0),
        os.path.join(empty_dir, "part-empty.orc"))
    e = read_orc(empty_dir, columns=["doc_id"])
    assert e.schema().names == ["doc_id"] and e.count() == 0


def test_jsonl_compressed_roundtrip_and_mixed_codecs(seq_dir, tmp_path):
    """Compressed JSONL source/sink: zstd parts round-trip the data
    exactly (incl. list<int> token arrays), the dirty-sink guard
    fires ACROSS extensions (a differently-compressed rerun can't
    leave stale parts a directory reader would double-count), and
    "detect" reads a mixed zstd+gzip directory correctly."""
    import shutil

    import pyarrow.parquet as pq
    import ray.data as rd

    from ocm_ray.engine.io import read_jsonl, write_jsonl

    out = str(tmp_path / "jl")
    ds = rd.read_parquet(seq_dir, columns=["doc_id", "n_tok", "tokens"])
    manifest = write_jsonl(ds, out)  # default zstd
    assert sum(n for _, n in manifest) == ds.count()
    assert all(p.endswith(".jsonl.zst") for p, _ in manifest)

    want = pq.read_table(
        seq_dir, columns=["doc_id", "n_tok", "tokens"]).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    back = read_jsonl(out).to_pandas().sort_values("doc_id") \
        .reset_index(drop=True)
    assert back["doc_id"].tolist() == want["doc_id"].tolist()
    assert back["n_tok"].tolist() == want["n_tok"].tolist()
    assert all(list(a) == list(b)
               for a, b in zip(back["tokens"], want["tokens"]))

    # cross-extension dirty-sink guard: plain rerun sees the zst parts
    with pytest.raises(ValueError, match="already holds"):
        write_jsonl(ds, out, compression=None)
    # overwrite reconciles the old-extension parts away
    m2 = write_jsonl(ds, out, compression=None, overwrite=True)
    import glob as g
    assert not g.glob(os.path.join(out, "*.jsonl.zst"))
    assert sum(n for _, n in m2) == len(want)
    assert int(read_jsonl(out).sum("n_tok")) == int(want["n_tok"].sum())

    # mixed-codec directory: half the rows as gzip copied beside zstd
    mixed = str(tmp_path / "mixed")
    half = len(want) // 2
    ids = set(want["doc_id"][:half])
    lo = ds.filter(lambda r: r["doc_id"] in ids)
    hi = ds.filter(lambda r: r["doc_id"] not in ids)
    write_jsonl(lo, mixed, compression="zstd")
    gz_dir = str(tmp_path / "gz")
    write_jsonl(hi, gz_dir, compression="gzip")
    for p in g.glob(os.path.join(gz_dir, "*.jsonl.gz")):
        shutil.copy(p, mixed)
    mixed_back = read_jsonl(mixed).to_pandas()
    assert sorted(mixed_back["doc_id"]) == sorted(want["doc_id"])

    with pytest.raises(ValueError, match="compression"):
        write_jsonl(ds, str(tmp_path / "bad"), compression="lz9")


def test_part_sink_identical_blocks_do_not_collide(tmp_path):
    """Content-digest part names must not collapse IDENTICAL blocks onto
    one file (plausible after column pruning: every block of a constant
    column serializes the same) — the task/sequence suffix keeps them
    distinct and every row survives the round trip."""
    import pyarrow as pa
    import ray.data as rd

    from ocm_ray.engine.io import read_jsonl, read_orc, write_jsonl, write_orc

    # 8 blocks, all byte-identical
    t = pa.table({"v": pa.array([7] * 100, pa.int64())})
    ds = rd.from_arrow([t] * 8)
    assert ds.num_blocks() == 8

    out = str(tmp_path / "orc")
    m = write_orc(ds, out)
    assert sum(n for _, n in m) == 800
    assert len({p for p, _ in m}) == 8          # 8 distinct part files
    assert read_orc(out).count() == 800

    out2 = str(tmp_path / "jl")
    m2 = write_jsonl(ds, out2, compression="zstd")
    assert len({p for p, _ in m2}) == 8
    assert read_jsonl(out2).count() == 800
    assert int(read_jsonl(out2).sum("v")) == 5600


def test_jsonl_float_roundtrip_exact(tmp_path):
    """JSONL serialization must round-trip doubles bit-exactly (pandas'
    to_json caps at 15 significant digits; doubles need 17 — the sink
    uses orjson's shortest-round-trip repr instead)."""
    import math

    import pyarrow as pa
    import ray.data as rd

    from ocm_ray.engine.io import read_jsonl, write_jsonl

    vals = [0.12345678901234568, math.pi, 1e-300, 1.7976931348623157e308,
            2.0 / 3.0, -0.1]
    t = pa.table({"i": list(range(len(vals))),
                  "x": pa.array(vals, pa.float64())})
    out = str(tmp_path / "fl")
    write_jsonl(rd.from_arrow(t), out, compression="zstd")
    back = read_jsonl(out).to_pandas().sort_values("i")
    assert back["x"].tolist() == vals  # bit-exact, not approx


def test_read_orc_honors_column_order_with_empty_parts(tmp_path):
    """read_orc must return the CALLER's column order for every block —
    including the empty-part schema fallback — or downstream
    write_parquet emits mixed-schema parts DuckDB rejects."""
    import pyarrow as pa
    import ray.data as rd
    from pyarrow import orc

    from ocm_ray.engine.io import read_orc

    t = pa.table({"a": [1, 2, 3], "b": ["x", "y", "z"]})
    d = str(tmp_path / "oc")
    os.makedirs(d)
    orc.write_table(t, os.path.join(d, "part-full.orc"))
    orc.write_table(t.slice(0, 0), os.path.join(d, "part-empty.orc"))

    ds = read_orc(d, columns=["b", "a"])
    # every block — populated and empty — carries (b, a) in that order
    schemas = {tuple(b.schema.names)
               for b in ds.iter_batches(batch_format="pyarrow")}
    assert schemas == {("b", "a")}
    df = read_orc(d, columns=["b", "a"]).to_pandas()
    assert list(df.columns) == ["b", "a"] and len(df) == 3


def test_ipc_roundtrip_streaming_and_pruning(seq_dir, tmp_path):
    """Arrow IPC (Feather v2) source/sink: per-block parts round-trip
    exactly (incl. list<int> token arrays), the reader streams record
    batch by record batch (multi-batch parts forced via max_chunksize),
    column pruning holds caller order, and empty parts keep the pruned
    schema."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from ocm_ray.engine.io import read_ipc, write_ipc

    out = str(tmp_path / "ipc")
    ds = rd.read_parquet(seq_dir, columns=["doc_id", "n_tok", "tokens"])
    manifest = write_ipc(ds, out, max_chunksize=16)  # force multi-batch
    assert sum(n for _, n in manifest) == ds.count()
    with pa.OSFile(manifest[0][0], "rb") as f:
        assert pa.ipc.open_file(f).num_record_batches > 1

    want = pq.read_table(
        seq_dir, columns=["doc_id", "n_tok", "tokens"]).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    back = read_ipc(out).to_pandas().sort_values("doc_id") \
        .reset_index(drop=True)
    assert back["doc_id"].tolist() == want["doc_id"].tolist()
    assert all(list(a) == list(b)
               for a, b in zip(back["tokens"], want["tokens"]))

    pruned = read_ipc(out, columns=["n_tok", "doc_id"])
    schemas = {tuple(b.schema.names)
               for b in pruned.iter_batches(batch_format="pyarrow")}
    assert schemas == {("n_tok", "doc_id")}
    assert int(read_ipc(out, columns=["n_tok"]).sum("n_tok")) \
        == int(want["n_tok"].sum())

    with pytest.raises(ValueError, match="already holds"):
        write_ipc(ds, out)

    # empty part carries the pruned schema (rule 8b)
    empty_dir = str(tmp_path / "ipc_empty")
    os.makedirs(empty_dir)
    t0 = pq.read_table(seq_dir, columns=["doc_id", "n_tok"]).slice(0, 0)
    with pa.OSFile(os.path.join(empty_dir, "part-e.arrow"), "wb") as f, \
            pa.ipc.new_file(f, t0.schema) as w:
        w.write_table(t0)
    e = read_ipc(empty_dir, columns=["doc_id"])
    assert e.schema().names == ["doc_id"] and e.count() == 0


def test_resumable_etl_generic_readers(seq_dir, tmp_path):
    """run_resumable_etl over non-parquet shard readers: a .jsonl.zst
    dump ingests to one parquet part per dump file, a rerun skips every
    finished shard, and the ipc reader round-trips the same rows."""
    import glob as g

    import pyarrow.parquet as pq
    import ray.data as rd

    from ocm_ray.engine.io import (SHARD_READERS, run_resumable_etl,
                                   write_ipc, write_jsonl)

    ds = rd.read_parquet(seq_dir, columns=["doc_id", "n_tok"])
    jl = str(tmp_path / "jl")
    write_jsonl(ds, jl, compression="zstd")
    files = sorted(g.glob(os.path.join(jl, "*.jsonl.zst")))

    out = str(tmp_path / "pq")
    m1 = run_resumable_etl(files, out, lambda t: t,
                           reader=SHARD_READERS["jsonl"])
    assert m1["complete"] and m1["built"] == len(files)
    total = sum(e["rows_out"] for e in m1["shards"])
    assert total == ds.count()
    got = pq.read_table(out).to_pandas()
    assert len(got) == total and set(got.columns) == {"doc_id", "n_tok"}

    # rerun: every shard skipped, nothing rewritten
    m2 = run_resumable_etl(files, out, lambda t: t,
                           reader=SHARD_READERS["jsonl"])
    assert m2["skipped"] == len(files) and m2["built"] == 0

    # ipc reader with column pruning inside the shard task
    ipc = str(tmp_path / "ipc")
    write_ipc(rd.read_parquet(seq_dir, columns=["doc_id", "n_tok"]), ipc)
    out2 = str(tmp_path / "pq2")
    m3 = run_resumable_etl(sorted(g.glob(os.path.join(ipc, "*.arrow"))),
                           out2, lambda t: t, columns=["n_tok"],
                           reader=SHARD_READERS["ipc"])
    t2 = pq.read_table(out2)
    assert t2.schema.names == ["n_tok"]
    assert sum(e["rows_out"] for e in m3["shards"]) == ds.count()


def test_resumable_etl_empty_dump_files(seq_dir, tmp_path):
    """A 0-byte (or empty-after-decompress) jsonl/csv dump file is VALID
    empty input: the shard completes with no part file (no zero-column
    parquet, rule 8b), the manifest records it done, and a rerun skips
    it — an empty dump must never wedge a 100 TB resumable ingest."""
    import glob as g

    import pyarrow.parquet as pq
    import ray.data as rd

    from ocm_ray.engine.io import (SHARD_READERS, _iter_csv, _iter_jsonl,
                                   run_resumable_etl, write_jsonl)

    # reader-level contract: empty file yields NOTHING (no schema to carry)
    empty_jl = str(tmp_path / "empty.jsonl")
    open(empty_jl, "w").close()
    assert list(_iter_jsonl(empty_jl, None, 1024)) == []
    empty_csv = str(tmp_path / "empty.csv")
    open(empty_csv, "w").close()
    assert list(_iter_csv(empty_csv, None, 1024)) == []
    # a CORRUPT (non-empty, unparseable) file must still raise
    bad = str(tmp_path / "bad.jsonl")
    open(bad, "w").write("{not json")
    with pytest.raises(Exception):
        list(_iter_jsonl(bad, None, 1024))

    ds = rd.read_parquet(seq_dir, columns=["doc_id", "n_tok"])
    jl = str(tmp_path / "jl")
    write_jsonl(ds, jl, compression=None)
    files = sorted(g.glob(os.path.join(jl, "*.jsonl"))) + [empty_jl]
    assert len(files) > 1

    out = str(tmp_path / "pq")
    m1 = run_resumable_etl(files, out, lambda t: t,
                           reader=SHARD_READERS["jsonl"])
    assert m1["complete"] and m1["built"] == len(files)
    empties = [e for e in m1["shards"] if e["out_file"] is None]
    assert len(empties) == 1 and empties[0]["rows_in"] == 0
    assert pq.read_table(out).num_rows == ds.count()

    # rerun: the no-part shard is skipped like any other finished shard
    m2 = run_resumable_etl(files, out, lambda t: t,
                           reader=SHARD_READERS["jsonl"])
    assert m2["skipped"] == len(files) and m2["built"] == 0


def test_ipc_feather_parity(seq_dir, tmp_path):
    """.feather is the same IPC format: read_ipc's directory glob picks
    it up, write_ipc's dirty-sink guard refuses a stale one, and
    overwrite=True reconciles it away (a stale .feather beside new
    .arrow parts would double-count on a CLI directory read)."""
    import glob as g

    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from ocm_ray.engine.io import read_ipc, write_ipc

    t0 = pq.read_table(seq_dir, columns=["doc_id", "n_tok"])
    out = str(tmp_path / "ipc")
    os.makedirs(out)
    fea = os.path.join(out, "stale.feather")
    with pa.OSFile(fea, "wb") as f, pa.ipc.new_file(f, t0.schema) as w:
        w.write_table(t0.slice(0, 5))
    # directory read includes the .feather
    assert read_ipc(out).count() == 5

    ds = rd.read_parquet(seq_dir, columns=["doc_id", "n_tok"])
    with pytest.raises(ValueError, match="already holds"):
        write_ipc(ds, out)
    write_ipc(ds, out, overwrite=True)
    assert not os.path.exists(fea)  # reconciled away
    assert read_ipc(out).count() == t0.num_rows
    assert g.glob(os.path.join(out, "*.arrow"))
