"""CLI smoke: count → query → sketch subcommands in subprocesses (each
owns its own local Ray session, independent of the test session)."""

import glob
import json
import os
import subprocess
import sys

import numpy as np
import pandas as pd
import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run(args, timeout=240):
    env = dict(os.environ, PYTHONPATH=REPO)
    return subprocess.run([sys.executable, "-m", "ocm_ray", *args],
                          capture_output=True, text=True, timeout=timeout,
                          env=env, cwd=REPO)


@pytest.fixture(scope="module")
def small_seq():
    from ocm_ray.data.sequences import ensure_sequences

    return ensure_sequences(300, seed=42, n_files=4)


def test_cli_count_query_roundtrip(small_seq, tmp_path):
    sk = str(tmp_path / "cli.sk")
    r = _run(["count", "-c", "-n", "2", "-w", "16384", "--nh", "3",
              "--input", small_seq, "-o", sk, "--num-cpus", "4",
              "--checkpoint-dir", str(tmp_path / "ck")])
    assert r.returncode == 0, r.stderr[-500:]
    meta = json.loads(r.stdout.strip().splitlines()[-1])
    assert meta["rounds"] == 2 and meta["n_items"] > 0
    assert os.path.exists(str(tmp_path / "ck" / "round-01.sk"))

    # query with the reference whitespace text format
    qf = str(tmp_path / "q.txt")
    with open(qf, "w") as f:
        f.write("1 10\n2 5\n99999999 1\n")
    out = str(tmp_path / "out.csv")
    r = _run(["query", "-f", sk, "-q", qf, "--item-col", "token",
              "-o", out, "--num-cpus", "4"])
    assert r.returncode == 0, r.stderr[-500:]
    df = pd.read_csv(out)
    assert list(df.columns) == ["token", "true_count", "estimated_count"]
    assert len(df) == 3
    # one-sided guarantee vs the ACTUAL corpus counts (>= 0 alone can
    # never fail — estimates are unsigned by construction)
    import glob as _g

    import pyarrow.parquet as _pq

    toks = np.concatenate([
        np.concatenate(_pq.read_table(f, columns=["tokens"])
                       .column("tokens").to_pylist())
        for f in _g.glob(os.path.join(small_seq, "*.parquet"))])
    for t in (1, 2):
        actual = int((toks == t).sum())
        assert actual > 0  # Zipf head tokens are present
        est = int(df.loc[df.token == t, "estimated_count"].iloc[0])
        assert est >= actual, (t, est, actual)


def test_cli_sketch_kinds(small_seq, tmp_path):
    out = str(tmp_path / "hll.sk")
    r = _run(["sketch", "--kind", "hll", "-p", "12", "--input", small_seq,
              "-o", out, "--num-cpus", "4"])
    assert r.returncode == 0, r.stderr[-500:]
    info = json.loads(r.stdout.strip().splitlines()[-1])
    assert info["estimate"] > 1000

    from ocm_ray.sketches import MergeableSketch

    sk = MergeableSketch.from_bytes(open(out, "rb").read())
    assert type(sk).__name__ == "HyperLogLog"


def test_cli_missing_input(tmp_path):
    r = _run(["count", "--input", "/nonexistent-dir", "-o",
              str(tmp_path / "x.sk"), "--num-cpus", "2"])
    assert r.returncode == 2
    assert "no parquet files" in r.stderr


def test_cli_dedup_modes(tmp_path):
    """dedup subcommand: minhash pairs to CSV (with resumable signature
    cache), exact dedup to parquet, bloom survivors to a directory."""
    import subprocess
    import sys

    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    rng = np.random.default_rng(3)
    vocab = [f"w{i}" for i in range(300)]
    docs = [" ".join(rng.choice(vocab, size=40)) for _ in range(60)]
    docs += [docs[5], docs[7]]
    df = pd.DataFrame({"doc_id": np.arange(len(docs)), "text": docs})
    src = str(tmp_path / "docs.parquet")
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False), src)

    env = dict(__import__("os").environ)
    def run(*extra):
        return subprocess.run(
            [sys.executable, "-m", "ocm_ray", *extra],
            capture_output=True, text=True, env=env, cwd="/root/repo")

    pairs_csv = str(tmp_path / "pairs.csv")
    r = run("dedup", "--mode", "minhash", "--input", src, "--threshold",
            "0.5", "--sig-cache", str(tmp_path / "sigs"),
            "-o", pairs_csv, "--num-cpus", "4")
    assert r.returncode == 0, r.stderr[-2000:]
    pairs = pd.read_csv(pairs_csv)
    assert {(5, 60), (7, 61)} <= set(map(tuple, pairs[["a", "b"]].values))

    exact_pq = str(tmp_path / "exact.parquet")
    r = run("dedup", "--mode", "exact", "--input", src, "-o", exact_pq,
            "--num-cpus", "4")
    assert r.returncode == 0, r.stderr[-2000:]
    out = pq.read_table(exact_pq).to_pandas()
    assert out["n_copies"].sum() == len(docs)
    # conservation alone also holds for a broken dedup that groups
    # nothing — the two planted duplicates must actually be detected
    dups = out[out["n_copies"] > 1]
    assert len(dups) == 2 and set(dups["n_copies"]) == {2}
    assert set(dups["doc_id"]) == {5, 7}  # keeper = min doc_id per group

    bloom_dir = str(tmp_path / "bloomed")
    r = run("dedup", "--mode", "bloom", "--input", src, "-o", bloom_dir,
            "--num-cpus", "4")
    assert r.returncode == 0, r.stderr[-2000:]
    survivors = pq.read_table(bloom_dir).to_pandas()
    assert len(survivors) == df["text"].nunique()


def test_cli_ann_build_probe(tmp_path):
    """ann subcommand: IVF index build then probe; top-1 of a corpus
    vector's own query is itself."""
    import json
    import os
    import subprocess
    import sys

    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    rng = np.random.default_rng(9)
    emb = rng.normal(size=(200, 12))
    df = pd.DataFrame({"vec_id": np.arange(200), "embedding": list(emb)})
    src = str(tmp_path / "emb.parquet")
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False), src)
    qsrc = str(tmp_path / "q.parquet")
    pq.write_table(pa.Table.from_pandas(df.iloc[:3], preserve_index=False),
                   qsrc)
    idx = str(tmp_path / "ivf_idx")
    out = str(tmp_path / "hits.csv")
    env = dict(os.environ)

    def run(*extra):
        return subprocess.run([sys.executable, "-m", "ocm_ray", *extra],
                              capture_output=True, text=True, env=env,
                              cwd="/root/repo")

    r = run("ann", "build", "--kind", "ivf", "--input", src,
            "--index-dir", idx, "--centroids", "8", "--num-cpus", "2")
    assert r.returncode == 0, r.stderr[-2000:]
    assert json.loads(r.stdout.strip().splitlines()[-1])["n_centroids"] == 8

    r = run("ann", "probe", "--kind", "ivf", "--queries", qsrc,
            "--index-dir", idx, "-k", "3", "--probe", "8",
            "-o", out, "--num-cpus", "2")
    assert r.returncode == 0, r.stderr[-2000:]
    hits = pd.read_csv(out)
    top1 = hits[hits["rank"] == 0].sort_values("query_idx")
    assert top1["vec_id"].tolist() == [0, 1, 2]  # self is nearest


def test_cli_dedup_semantic_and_ngram(tmp_path):
    """dedup subcommand round-3 modes: SemDeDup pairs over an embeddings
    table and cross-doc repeated-n-gram stats over documents."""
    import subprocess
    import sys

    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    rng = np.random.default_rng(5)
    emb = rng.normal(size=(50, 16)).astype(np.float32)
    emb[41] = emb[3]                      # planted exact dup
    edf = pd.DataFrame({"vec_id": np.arange(50), "embedding": list(emb)})
    esrc = str(tmp_path / "emb.parquet")
    pq.write_table(pa.Table.from_pandas(edf, preserve_index=False), esrc)

    texts = ["shared run of words here " + f"tail{i}" for i in range(10)]
    texts += [f"unique doc {i} nothing common" for i in range(5)]
    ddf = pd.DataFrame({"doc_id": np.arange(len(texts)), "text": texts})
    dsrc = str(tmp_path / "docs.parquet")
    pq.write_table(pa.Table.from_pandas(ddf, preserve_index=False), dsrc)

    env = dict(__import__("os").environ)

    def run(*extra):
        return subprocess.run(
            [sys.executable, "-m", "ocm_ray", *extra],
            capture_output=True, text=True, env=env, cwd="/root/repo")

    sem_csv = str(tmp_path / "sem.csv")
    r = run("dedup", "--mode", "semantic", "--input", esrc,
            "--id-col", "vec_id", "--threshold", "0.999",
            "--n-clusters", "4", "-o", sem_csv, "--num-cpus", "4")
    assert r.returncode == 0, r.stderr[-2000:]
    pairs = pd.read_csv(sem_csv)
    assert (3, 41) in set(map(tuple, pairs[["a", "b"]].values))

    ngram_csv = str(tmp_path / "ngram.csv")
    r = run("dedup", "--mode", "ngram", "--input", dsrc, "--ngram-k", "4",
            "-o", ngram_csv, "--num-cpus", "4")
    assert r.returncode == 0, r.stderr[-2000:]
    st = pd.read_csv(ngram_csv)
    # the 10 "shared run" docs share the 4-gram prefix; the 5 unique
    # docs share nothing
    assert (st.loc[st.doc_id < 10, "n_dup_grams"] > 0).all()
    assert (st.loc[st.doc_id >= 10, "n_dup_grams"] == 0).all()


def test_cli_width_rejected_before_ray(tmp_path):
    """A non-power-of-two width is a usage error (exit 2), not a silent
    truncation to the next-lower power of two."""
    r = _run(["count", "-w", "1000000", "--input", "/tmp", "-o",
              str(tmp_path / "x.sk")], timeout=60)
    assert r.returncode == 2
    assert "power of two" in r.stderr
    r = _run(["count", "-w", "0", "--input", "/tmp", "-o",
              str(tmp_path / "x.sk")], timeout=60)
    assert r.returncode == 2


def test_cli_input_files_recursive(tmp_path):
    """Directory inputs glob recursively so Hive-partitioned layouts
    (curate's own source=X/ output) are readable by every subcommand."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ocm_ray.cli import _input_files

    d = tmp_path / "corpus" / "source=web"
    d.mkdir(parents=True)
    pq.write_table(pa.table({"x": [1]}), str(d / "part-0.parquet"))
    pq.write_table(pa.table({"x": [2]}),
                   str(tmp_path / "corpus" / "top.parquet"))
    found = _input_files(str(tmp_path / "corpus"))
    assert len(found) == 2


def test_cli_count_param_mismatch_no_stale_resume(small_seq, tmp_path):
    """A rerun with a different seed must NOT resume from the previous
    run's round checkpoints; --no-resume must rebuild even with same
    params."""
    sk = str(tmp_path / "a.sk")
    ck = str(tmp_path / "ck")
    base = ["count", "-n", "2", "-w", "8192", "--nh", "3", "--input",
            small_seq, "--num-cpus", "4", "--checkpoint-dir", ck]
    r = _run([*base, "-o", sk])
    assert r.returncode == 0, r.stderr[-500:]
    assert "resuming" not in r.stderr
    # same params: resumes
    r = _run([*base, "-o", str(tmp_path / "b.sk")])
    assert r.returncode == 0, r.stderr[-500:]
    assert "resuming after completed round 1" in r.stderr
    # changed seed: stale rounds discarded, no resume
    r = _run([*base, "--seed", "999", "-o", str(tmp_path / "c.sk")])
    assert r.returncode == 0, r.stderr[-500:]
    assert "resuming" not in r.stderr
    # same (new) params but --no-resume: rebuild from zero
    r = _run([*base, "--seed", "999", "--no-resume",
              "-o", str(tmp_path / "d.sk")])
    assert r.returncode == 0, r.stderr[-500:]
    assert "resuming" not in r.stderr
    # seed-999 rebuilds agree with each other but differ from seed-137
    c, d, a = (open(str(tmp_path / f"{n}.sk"), "rb").read()
               for n in "cda")
    assert c == d and c != a


def test_cli_count_checkpointed_matches_sharded(small_seq, tmp_path):
    """`count -n 1 -c` writes the same conservative sketch with and
    without --checkpoint-dir at equal parallelism, and a rerun over the
    same dir resumes every shard and writes the same bytes again."""
    base = ["count", "-n", "1", "-c", "-w", "4096", "--nh", "3",
            "--parallelism", "3", "--input", small_seq, "--num-cpus", "4"]
    ck = str(tmp_path / "ck")
    outs = {}
    for name, extra in (("plain", []), ("ckpt", ["--checkpoint-dir", ck]),
                        ("resumed", ["--checkpoint-dir", ck])):
        out = str(tmp_path / f"{name}.sk")
        r = _run([*base, *extra, "-o", out])
        assert r.returncode == 0, r.stderr[-500:]
        outs[name] = open(out, "rb").read()
    assert outs["ckpt"] == outs["plain"]
    manifest = json.load(open(os.path.join(ck, "manifest.json")))
    assert manifest["resumed_shards"] == 3 and manifest["built_shards"] == 0
    assert outs["resumed"] == outs["plain"]


def test_cli_count_rounds_resume_loads_scan(small_seq, tmp_path):
    """`count --rounds 3 --checkpoint-dir`: a rerun after losing the last
    round resumes from round 1 with the saved corpus scan (no Parquet
    read) and writes the same sketch bytes as the first run."""
    ck = str(tmp_path / "ck")
    base = ["count", "-n", "3", "-c", "-w", "8192", "--nh", "3", "--input",
            small_seq, "--num-cpus", "4", "--checkpoint-dir", ck]
    first, rerun = str(tmp_path / "first.sk"), str(tmp_path / "rerun.sk")
    r = _run([*base, "-o", first])
    assert r.returncode == 0, r.stderr[-500:]
    assert json.loads(r.stdout.strip().splitlines()[-1])["scan"] == "files"
    assert os.path.exists(os.path.join(ck, "scan.json"))
    os.remove(os.path.join(ck, "round-02.sk"))  # killed in the last round
    r = _run([*base, "-o", rerun])
    assert r.returncode == 0, r.stderr[-500:]
    assert "resuming after completed round 1" in r.stderr
    assert json.loads(r.stdout.strip().splitlines()[-1])["scan"] == \
        "checkpoint"
    assert open(rerun, "rb").read() == open(first, "rb").read()


def test_cli_count_writes_sidecar(small_seq, tmp_path):
    """`count` writes the same <output>.meta.json sidecar as `sketch`:
    kind (countmin for one round, ocm for several), column, k-gram width
    and the input fingerprint."""
    from ocm_ray.engine.checkpoint import _fingerprint

    fp = _fingerprint(glob.glob(f"{small_seq}/*.parquet"))
    for rounds, kind in (("1", "countmin"), ("2", "ocm")):
        out = str(tmp_path / f"{kind}.sk")
        r = _run(["count", "-n", rounds, "-w", "4096", "--nh", "3",
                  "--kgram", "2", "--input", small_seq, "-o", out,
                  "--num-cpus", "4"])
        assert r.returncode == 0, r.stderr[-500:]
        with open(out + ".meta.json") as f:
            assert json.load(f) == {"kind": kind, "column": "tokens",
                                    "kgram": 2, "input": fp}


def test_cli_value_sketch_quantiles(small_seq, tmp_path):
    """Value-sketch builds report p50/p90/p99 so the CLI is usable
    without loading the sketch file; KLL and DDSketch must agree
    (cross-estimator check through the whole CLI path)."""
    outs = {}
    for kind in ("kll", "ddsketch"):
        r = _run(["sketch", "--kind", kind, "--input", small_seq,
                  "--column", "n_tok", "-o", str(tmp_path / f"{kind}.sk"),
                  "--num-cpus", "4"])
        assert r.returncode == 0, r.stderr[-500:]
        outs[kind] = json.loads(r.stdout.strip().splitlines()[-1])["quantiles"]
    for p in ("p50", "p90", "p99"):
        a, b = outs["kll"][p], outs["ddsketch"][p]
        assert abs(a - b) / max(a, b) < 0.1, (p, a, b)


def test_cli_convert_chain(small_seq, tmp_path):
    """convert chains a table losslessly through every format it claims:
    parquet → jsonl.zst → orc → parquet, with column pruning at each
    read; the final parquet must carry the same rows/values as the
    source. Also: the dirty-sink exit code and --overwrite."""
    import duckdb
    import pyarrow.parquet as pq

    jl = str(tmp_path / "jl")
    r = _run(["convert", "--input", small_seq, "--to", "jsonl.zst",
              "-o", jl, "--columns", "doc_id", "n_tok", "--num-cpus", "4"])
    assert r.returncode == 0, r.stderr[-500:]
    m1 = json.loads(r.stdout.strip().splitlines()[-1])
    assert m1["in_format"] == "parquet" and m1["parts"] >= 1

    orc_dir = str(tmp_path / "orc")
    r = _run(["convert", "--input", jl, "--to", "orc", "-o", orc_dir,
              "--num-cpus", "4"])
    assert r.returncode == 0, r.stderr[-500:]
    m2 = json.loads(r.stdout.strip().splitlines()[-1])
    assert m2["in_format"] == "jsonl" and m2["rows"] == m1["rows"]

    ipc_dir = str(tmp_path / "ipc")
    r = _run(["convert", "--input", orc_dir, "--to", "ipc", "-o", ipc_dir,
              "--num-cpus", "4"])
    assert r.returncode == 0, r.stderr[-500:]
    m2b = json.loads(r.stdout.strip().splitlines()[-1])
    assert m2b["in_format"] == "orc" and m2b["rows"] == m1["rows"]

    final = str(tmp_path / "pq")
    r = _run(["convert", "--input", ipc_dir, "--to", "parquet",
              "-o", final, "--num-cpus", "4"])
    assert r.returncode == 0, r.stderr[-500:]
    m3 = json.loads(r.stdout.strip().splitlines()[-1])
    assert m3["in_format"] == "ipc" and m3["rows"] == m1["rows"]

    con = duckdb.connect()
    got = con.execute(
        f"""SELECT doc_id, n_tok FROM read_parquet('{final}/*.parquet')
            ORDER BY doc_id""").df()
    want = con.execute(
        f"""SELECT doc_id, n_tok FROM read_parquet('{small_seq}/*.parquet')
            ORDER BY doc_id""").df()
    con.close()
    assert got["doc_id"].tolist() == want["doc_id"].tolist()
    assert got["n_tok"].astype(int).tolist() \
        == want["n_tok"].astype(int).tolist()

    # dirty sink → exit 2; --overwrite succeeds
    r = _run(["convert", "--input", orc_dir, "--to", "parquet",
              "-o", final, "--num-cpus", "4"])
    assert r.returncode == 2 and "overwrite" in r.stderr
    r = _run(["convert", "--input", orc_dir, "--to", "parquet",
              "-o", final, "--overwrite", "--num-cpus", "4"])
    assert r.returncode == 0, r.stderr[-500:]
    assert pq.read_table(final).num_rows == m1["rows"]


def test_cli_convert_guards(small_seq, tmp_path):
    """convert refuses mixed-format inputs (never silently drops the
    minority format) and an output dir that contains the input files
    (--overwrite could otherwise destroy the input); a failed
    conversion must leave an existing output untouched."""
    import shutil

    mixed = str(tmp_path / "mixed_in")
    os.makedirs(mixed)
    for f in os.listdir(small_seq):
        shutil.copy(os.path.join(small_seq, f), mixed)
    with open(os.path.join(mixed, "sidecar.csv"), "w") as f:
        f.write("a,b\n1,2\n")
    r = _run(["convert", "--input", mixed, "--to", "orc",
              "-o", str(tmp_path / "o1"), "--num-cpus", "4"])
    assert r.returncode == 2 and "mixed input formats" in r.stderr

    # output dir containing the inputs is refused even with --overwrite
    r = _run(["convert", "--input", small_seq, "--to", "orc",
              "-o", os.path.dirname(small_seq.rstrip("/")) or small_seq,
              "--overwrite", "--num-cpus", "4"])
    assert r.returncode == 2 and "contains the input" in r.stderr
    r = _run(["convert", "--input", small_seq, "--to", "jsonl",
              "-o", small_seq, "--overwrite", "--num-cpus", "4"])
    assert r.returncode == 2 and "contains the input" in r.stderr
    assert len(os.listdir(small_seq)) == 4  # inputs untouched


def test_cli_convert_webdataset_roundtrip(small_seq, tmp_path):
    """convert: parquet → WebDataset tar shards → parquet. Text columns
    become utf-8 tar members keyed by doc_id; reading back gives binary
    columns whose decoded values match the source."""
    import duckdb

    wds = str(tmp_path / "wds")
    r = _run(["convert", "--input", small_seq, "--to", "wds", "-o", wds,
              "--key-col", "doc_id", "--wds-cols", "n_tok=txt",
              "--columns", "doc_id", "n_tok", "--num-cpus", "4"])
    assert r.returncode == 0, r.stderr[-500:]
    m = json.loads(r.stdout.strip().splitlines()[-1])
    assert m["out_format"] == "wds" and m["parts"] >= 1

    back = str(tmp_path / "back")
    r = _run(["convert", "--input", wds, "--to", "parquet", "-o", back,
              "--key-col", "doc_id", "--wds-exts", "txt",
              "--num-cpus", "4"])
    assert r.returncode == 0, r.stderr[-500:]
    m2 = json.loads(r.stdout.strip().splitlines()[-1])
    assert m2["in_format"] == "wds" and m2["rows"] == m["rows"]

    con = duckdb.connect()
    got = con.execute(
        f"""SELECT doc_id, CAST(decode(txt) AS BIGINT) AS n_tok
            FROM read_parquet('{back}/*.parquet') ORDER BY doc_id""").df()
    want = con.execute(
        f"""SELECT doc_id, CAST(n_tok AS BIGINT) AS n_tok
            FROM read_parquet('{small_seq}/*.parquet')
            ORDER BY doc_id""").df()
    con.close()
    assert got["doc_id"].tolist() == want["doc_id"].tolist()
    assert got["n_tok"].tolist() == want["n_tok"].tolist()


def test_cli_inspect(small_seq, tmp_path):
    """inspect: free row counts for parquet, schema for every format,
    --rows forcing a counting scan for jsonl."""
    r = _run(["inspect", "--input", small_seq, "--num-cpus", "4"])
    assert r.returncode == 0, r.stderr[-500:]
    m = json.loads(r.stdout.strip().splitlines()[-1])
    assert m["format"] == "parquet" and m["rows"] == 300
    assert m["schema"]["tokens"].startswith("list")

    jl = str(tmp_path / "jl")
    r = _run(["convert", "--input", small_seq, "--to", "jsonl.zst",
              "-o", jl, "--columns", "doc_id", "n_tok", "--num-cpus", "4"])
    assert r.returncode == 0, r.stderr[-500:]
    r = _run(["inspect", "--input", jl, "--num-cpus", "4"])
    m = json.loads(r.stdout.strip().splitlines()[-1])
    assert m["format"] == "jsonl" and m["rows"] is None \
        and set(m["schema"]) == {"doc_id", "n_tok"}
    r = _run(["inspect", "--input", jl, "--rows", "--num-cpus", "4"])
    m = json.loads(r.stdout.strip().splitlines()[-1])
    assert m["rows"] == 300


def test_cli_convert_partition_by(small_seq, tmp_path):
    """convert --partition-by writes a Hive layout readers can prune."""
    import duckdb

    out = str(tmp_path / "hive")
    r = _run(["convert", "--input", small_seq, "--to", "parquet",
              "--partition-by", "source", "-o", out, "--num-cpus", "4"])
    if r.returncode == 2 and "source" in r.stderr:
        pytest.skip("sequences table has no source column")
    assert r.returncode == 0, r.stderr[-500:]
    m = json.loads(r.stdout.strip().splitlines()[-1])
    assert m["rows"] == 300
    dirs = [d for d in os.listdir(out) if d.startswith("source=")]
    assert len(dirs) >= 2
    con = duckdb.connect()
    n = con.execute(f"""SELECT count(*) FROM read_parquet(
        '{out}/*/*.parquet', hive_partitioning=1)""").fetchone()[0]
    con.close()
    assert n == 300

    r = _run(["convert", "--input", small_seq, "--to", "orc",
              "--partition-by", "source", "-o", str(tmp_path / "x")])
    assert r.returncode == 2 and "partition-by" in r.stderr


def test_cli_convert_resume(small_seq, tmp_path):
    """convert --resume: a crawl-style ingest writes one part per dump
    file with a manifest; a rerun skips everything, and adding one new
    dump file builds exactly one new part."""
    import shutil

    jl = str(tmp_path / "dumps")
    r = _run(["convert", "--input", small_seq, "--to", "jsonl.zst",
              "-o", jl, "--num-cpus", "4"])
    assert r.returncode == 0, r.stderr[-500:]
    n_dumps = len(os.listdir(jl))

    out = str(tmp_path / "ingested")
    r = _run(["convert", "--input", jl, "--to", "parquet", "--resume",
              "--columns", "doc_id", "n_tok", "-o", out, "--num-cpus", "4"])
    assert r.returncode == 0, r.stderr[-500:]
    m = json.loads(r.stdout.strip().splitlines()[-1])
    assert m["rows"] == 300 and m["built"] == n_dumps

    r = _run(["convert", "--input", jl, "--to", "parquet", "--resume",
              "--columns", "doc_id", "n_tok", "-o", out, "--num-cpus", "4"])
    m2 = json.loads(r.stdout.strip().splitlines()[-1])
    assert m2["skipped"] == n_dumps and m2["built"] == 0

    # one new dump → exactly one new part
    first = sorted(os.listdir(jl))[0]
    shutil.copy(os.path.join(jl, first), os.path.join(jl, "z-new.jsonl.zst"))
    r = _run(["convert", "--input", jl, "--to", "parquet", "--resume",
              "--columns", "doc_id", "n_tok", "-o", out, "--num-cpus", "4"])
    m3 = json.loads(r.stdout.strip().splitlines()[-1])
    assert m3["built"] == 1 and m3["skipped"] == n_dumps

    # unsupported combos exit 2
    r = _run(["convert", "--input", jl, "--to", "orc", "--resume",
              "-o", str(tmp_path / "x")])
    assert r.returncode == 2 and "--resume" in r.stderr


def test_cli_inspect_orc_free_rows(small_seq, tmp_path):
    """inspect reads ORC row counts from file footers — no scan."""
    orc_dir = str(tmp_path / "orc")
    r = _run(["convert", "--input", small_seq, "--to", "orc",
              "-o", orc_dir, "--columns", "doc_id", "--num-cpus", "4"])
    assert r.returncode == 0, r.stderr[-500:]
    r = _run(["inspect", "--input", orc_dir, "--num-cpus", "4"])
    assert r.returncode == 0, r.stderr[-500:]
    m = json.loads(r.stdout.strip().splitlines()[-1])
    assert m["format"] == "orc" and m["rows"] == 300


def test_cli_convert_resume_wds(small_seq, tmp_path):
    """convert --resume over WebDataset tar shards: one parquet part per
    tar, rerun skips all shards."""
    wds = str(tmp_path / "wds")
    r = _run(["convert", "--input", small_seq, "--to", "wds", "-o", wds,
              "--key-col", "doc_id", "--wds-cols", "n_tok=txt",
              "--columns", "doc_id", "n_tok", "--num-cpus", "4"])
    assert r.returncode == 0, r.stderr[-500:]
    n_tars = len([f for f in os.listdir(wds) if f.endswith(".tar")])

    out = str(tmp_path / "pq")
    r = _run(["convert", "--input", wds, "--to", "parquet", "--resume",
              "--key-col", "doc_id", "--wds-exts", "txt",
              "-o", out, "--num-cpus", "4"])
    assert r.returncode == 0, r.stderr[-500:]
    m = json.loads(r.stdout.strip().splitlines()[-1])
    assert m["rows"] == 300 and m["built"] == n_tars

    r = _run(["convert", "--input", wds, "--to", "parquet", "--resume",
              "--key-col", "doc_id", "--wds-exts", "txt",
              "-o", out, "--num-cpus", "4"])
    m2 = json.loads(r.stdout.strip().splitlines()[-1])
    assert m2["skipped"] == n_tars and m2["built"] == 0


def test_cli_convert_resume_guard_and_reusable_output(small_seq, tmp_path):
    """(a) a --resume output dir (parts + _manifest.json) must be
    readable by inspect/convert — the manifest is a metadata sidecar,
    not a jsonl input; (b) resuming into a dir holding a previous
    NON-resume conversion (Ray's uuid-named parts, invisible to the
    manifest reconcile) is refused without --overwrite and reconciled
    with it — never silently double-counted."""
    jl = str(tmp_path / "dumps")
    r = _run(["convert", "--input", small_seq, "--to", "jsonl.zst",
              "-o", jl, "--num-cpus", "4"])
    assert r.returncode == 0, r.stderr[-500:]

    # (a) resume ingest, then read the output dir back through the CLI
    out = str(tmp_path / "ingested")
    r = _run(["convert", "--input", jl, "--to", "parquet", "--resume",
              "--columns", "doc_id", "n_tok", "-o", out, "--num-cpus", "4"])
    assert r.returncode == 0, r.stderr[-500:]
    assert os.path.exists(os.path.join(out, "_manifest.json"))
    r = _run(["inspect", "--input", out, "--num-cpus", "4"])
    assert r.returncode == 0, r.stderr[-500:]
    m = json.loads(r.stdout.strip().splitlines()[-1])
    assert m["format"] == "parquet" and m["rows"] == 300

    # (b) non-resume conversion first, then --resume into the same dir
    out2 = str(tmp_path / "mixed_layout")
    r = _run(["convert", "--input", jl, "--to", "parquet",
              "-o", out2, "--num-cpus", "4"])
    assert r.returncode == 0, r.stderr[-500:]
    r = _run(["convert", "--input", jl, "--to", "parquet", "--resume",
              "--columns", "doc_id", "-o", out2, "--num-cpus", "4"])
    assert r.returncode == 2 and "--resume" not in r.stderr[:0]  # refused
    assert "double-count" in r.stderr
    r = _run(["convert", "--input", jl, "--to", "parquet", "--resume",
              "--columns", "doc_id", "-o", out2, "--overwrite",
              "--num-cpus", "4"])
    assert r.returncode == 0, r.stderr[-500:]
    r = _run(["inspect", "--input", out2, "--num-cpus", "4"])
    m = json.loads(r.stdout.strip().splitlines()[-1])
    assert m["rows"] == 300  # exactly one copy — foreign parts removed


def test_cli_sketch_merge_into(small_seq, tmp_path):
    """Incremental crawl update: building dump B with --merge-into the
    persisted sketch of dump A equals one build over A+B exactly
    (register-identical HLL)."""
    import glob

    import numpy as np

    files = sorted(glob.glob(os.path.join(small_seq, "*.parquet")))
    assert len(files) == 4
    half_a = str(tmp_path / "dump_a")
    half_b = str(tmp_path / "dump_b")
    os.makedirs(half_a), os.makedirs(half_b)
    for f in files[:2]:
        os.symlink(f, os.path.join(half_a, os.path.basename(f)))
    for f in files[2:]:
        os.symlink(f, os.path.join(half_b, os.path.basename(f)))

    a_sk = str(tmp_path / "a.sk")
    r = _run(["sketch", "--kind", "hll", "-p", "12", "--input", half_a,
              "-o", a_sk, "--num-cpus", "4"])
    assert r.returncode == 0, r.stderr[-500:]
    merged = str(tmp_path / "merged.sk")
    r = _run(["sketch", "--kind", "hll", "-p", "12", "--input", half_b,
              "--merge-into", a_sk, "-o", merged, "--num-cpus", "4"])
    assert r.returncode == 0, r.stderr[-500:]
    assert json.loads(r.stdout.strip().splitlines()[-1])["merged_into"] \
        == a_sk
    # the fold's sidecar covers both dumps' inputs
    from ocm_ray.engine.checkpoint import _fingerprint

    with open(merged + ".meta.json") as f:
        assert json.load(f)["input"] == _fingerprint(
            glob.glob(f"{half_a}/*.parquet") + glob.glob(f"{half_b}/*.parquet"))
    full = str(tmp_path / "full.sk")
    r = _run(["sketch", "--kind", "hll", "-p", "12", "--input", small_seq,
              "-o", full, "--num-cpus", "4"])
    assert r.returncode == 0, r.stderr[-500:]

    from ocm_ray.sketches import MergeableSketch

    sk_m = MergeableSketch.from_bytes(open(merged, "rb").read())
    sk_f = MergeableSketch.from_bytes(open(full, "rb").read())
    assert np.array_equal(sk_m.registers, sk_f.registers)

    # --merge-into is single-sketch only
    r = _run(["sketch", "--kind", "hll", "-p", "12", "--input", half_b,
              "--group-col", "source", "--merge-into", a_sk,
              "-o", str(tmp_path / "fleet"), "--num-cpus", "4"])
    assert r.returncode == 2 and "merge-into" in r.stderr
    # pre-build validation: typo'd path, wrong kind, and wrong geometry
    # must all exit 2 with a message BEFORE any corpus work
    r = _run(["sketch", "--kind", "hll", "-p", "12", "--input", half_b,
              "--merge-into", a_sk + ".nope",
              "-o", str(tmp_path / "x.sk"), "--num-cpus", "4"])
    assert r.returncode == 2 and "no such file" in r.stderr
    r = _run(["sketch", "--kind", "bloom", "-p", "12", "--input", half_b,
              "--merge-into", a_sk,
              "-o", str(tmp_path / "x.sk"), "--num-cpus", "4"])
    assert r.returncode == 2 and "kind mismatch" in r.stderr
    r = _run(["sketch", "--kind", "hll", "-p", "14", "--input", half_b,
              "--merge-into", a_sk,
              "-o", str(tmp_path / "x.sk"), "--num-cpus", "4"])
    assert r.returncode == 2 and "geometry mismatch" in r.stderr


def test_cli_sketch_merge_into_provenance(small_seq, tmp_path):
    """`sketch` writes a <output>.meta.json sidecar; --merge-into rejects
    a prior built over another column or k-gram width before any corpus
    pass, and accepts a sidecar-less prior with a warning."""
    a_sk = str(tmp_path / "a.sk")
    r = _run(["sketch", "--kind", "hll", "-p", "12", "--input", small_seq,
              "-o", a_sk, "--num-cpus", "4"])
    assert r.returncode == 0, r.stderr[-500:]
    from ocm_ray.engine.checkpoint import _fingerprint

    with open(a_sk + ".meta.json") as f:
        assert json.load(f) == {"kind": "hll", "column": "tokens",
                                "kgram": 1, "input": _fingerprint(
                                    glob.glob(f"{small_seq}/*.parquet"))}
    for extra in (["--kgram", "2"], ["--column", "n_tok"]):
        r = _run(["sketch", "--kind", "hll", "-p", "12", "--input",
                  small_seq, "--merge-into", a_sk, *extra,
                  "-o", str(tmp_path / "x.sk"), "--num-cpus", "4"])
        assert r.returncode == 2 and "provenance mismatch" in r.stderr
        assert not os.path.exists(str(tmp_path / "x.sk"))
    os.remove(a_sk + ".meta.json")
    r = _run(["sketch", "--kind", "hll", "-p", "12", "--input", small_seq,
              "--merge-into", a_sk, "--kgram", "2",
              "-o", str(tmp_path / "y.sk"), "--num-cpus", "4"])
    assert r.returncode == 0, r.stderr[-500:]
    assert "cannot check the prior's column/kgram" in r.stderr
