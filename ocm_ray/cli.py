"""Command-line entry points — the reference CLI re-expressed for Ray.

Mirrors the reference's parameter surface (``main.cpp:16-28``, SURVEY
§7.5): width ``-w`` (→ np = log2 w), depth ``--nh`` (odd-forced), rounds
``-n``, ``--conservative``, ``--seed`` (137), plus engine-side
``--parallelism``, ``--kgram``, ``--checkpoint-dir``.

    python -m ocm_ray count -w 1048576 --nh 7 -n 4 --conservative \\
        --input /data/sequences --column tokens -o /out/sketch.sk
    python -m ocm_ray query -f /out/sketch.sk -q queries.parquet \\
        --item-col token -o results.csv
    python -m ocm_ray sketch --kind hll -p 14 --input DIR -o hll.sk

Runs standalone (``ray.init`` guarded) or under ``ray job submit`` —
the job submission entrypoint is just this module.
"""

from __future__ import annotations

import argparse
import glob
import json
import math
import os
import sys
import time


def _init_ray(num_cpus):
    import ray

    if not ray.is_initialized():
        # Honor a real cluster address (ray job submit sets RAY_ADDRESS):
        # address="local" would force a private one-node instance ON the
        # head node and leave the cluster idle. Only default to "local"
        # when no cluster is advertised.
        addr = os.environ.get("RAY_ADDRESS") or "local"
        if addr == "local":
            kw = dict(address="local", include_dashboard=False,
                      logging_level="ERROR")
            if num_cpus:
                kw["num_cpus"] = num_cpus
            ray.init(**kw)
        else:
            if num_cpus:
                print(f"--num-cpus {num_cpus} ignored: connecting to the "
                      f"existing cluster at RAY_ADDRESS={addr} (per-job "
                      "CPU caps don't apply when joining a cluster)",
                      file=sys.stderr)
            ray.init(address=addr, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False


def _parquet_rows(out_dir: str) -> int:
    from ocm_ray.engine.io import parquet_rows

    return parquet_rows(out_dir)


def _input_files(path: str):
    if os.path.isdir(path):
        # recursive: Hive-partitioned layouts (curate's own source=X/
        # output) must be readable back by report/dedup/classify/...
        return sorted(glob.glob(os.path.join(path, "**", "*.parquet"),
                                recursive=True))
    return sorted(glob.glob(path))


def _write_sidecar(output: str, kind: str, args, fingerprint: str) -> None:
    """``<output>.meta.json``: what a sketch file was built over — its
    kind, the column and k-gram width of its items, and the input
    fingerprint (``engine.checkpoint._fingerprint``: path, size and
    mtime of every input file). ``sketch --merge-into`` checks the
    column and k-gram width against it."""
    with open(output + ".meta.json", "w") as f:
        json.dump({"kind": kind, "column": args.column, "kgram": args.kgram,
                   "input": fingerprint}, f)


def cmd_count(args) -> int:
    from ocm_ray.engine.build import build_sketch_sharded
    from ocm_ray.engine.checkpoint import (RoundCheckpointer, _fingerprint,
                                           build_sketch_checkpointed)
    from ocm_ray.engine.rounds import build_ocm
    from ocm_ray.sketches import CountMin

    if args.width <= 0 or (args.width & (args.width - 1)) != 0:
        print(f"--width must be a positive power of two, got {args.width}",
              file=sys.stderr)
        return 2
    _init_ray(args.num_cpus)
    np_bits = int(math.log2(args.width))
    files = _input_files(args.input)
    if not files:
        print(f"no parquet files under {args.input}", file=sys.stderr)
        return 2
    t0 = time.time()
    build_info = {}
    if args.rounds > 1:
        hook = None
        if args.checkpoint_dir:
            # run identity: a rerun with different geometry/seed/corpus
            # must NOT resume from the old run's round files (rounds is
            # deliberately absent — round r is independent of the total)
            hook = RoundCheckpointer(args.checkpoint_dir, params={
                "np_bits": np_bits, "nh": args.nh, "seed": args.seed,
                "conservative": bool(args.conservative),
                "column": args.column, "kgram": args.kgram,
                "input": _fingerprint(files)})
        resume = None
        if hook is not None and hook.last_completed() >= 0 and args.resume:
            # a rerun with FEWER rounds than a finished longer run picks
            # the round the shorter run would have ended on
            last = min(hook.last_completed(), args.rounds - 1)
            resume = (last, hook.load(last))
            print(f"resuming after completed round {last}", file=sys.stderr)
        sk = build_ocm(np_bits=np_bits, nh=args.nh, seedseed=args.seed,
                       rounds=args.rounds, conservative=args.conservative,
                       column=args.column, kgram=args.kgram, files=files,
                       parallelism=args.parallelism, on_round_end=hook,
                       resume_from=resume, metrics=build_info)
    elif args.checkpoint_dir:
        sk = build_sketch_checkpointed(
            files, lambda: CountMin(np_bits, args.nh, args.seed,
                                    conservative=args.conservative),
            args.checkpoint_dir, column=args.column, kgram=args.kgram,
            shards=args.parallelism, resume=args.resume)
    else:
        sk = build_sketch_sharded(
            files, lambda: CountMin(np_bits, args.nh, args.seed,
                                    conservative=args.conservative),
            column=args.column, kgram=args.kgram, shards=args.parallelism)
    wall = time.time() - t0
    with open(args.output, "wb") as f:
        f.write(sk.to_bytes())
    _write_sidecar(args.output, "ocm" if args.rounds > 1 else "countmin",
                   args, _fingerprint(files))
    if args.reference_format:
        sk.save_reference_format(args.output + ".ref")
    meta = {"np_bits": np_bits, "nh": sk.nh, "rounds": args.rounds,
            "conservative": args.conservative, "n_items": sk.total_items,
            "wall_sec": round(wall, 3),
            "tokens_per_sec": round(sk.total_items / max(wall, 1e-9))}
    if "scan" in build_info:  # multi-round: where the count tables came from
        meta["scan"] = build_info["scan"]
    print(json.dumps(meta))
    return 0


def cmd_query(args) -> int:
    import ray.data as rd

    from ocm_ray.engine.query import attach_estimates
    from ocm_ray.sketches.base import MergeableSketch

    _init_ray(args.num_cpus)
    with open(args.sketch, "rb") as f:
        sk = MergeableSketch.from_bytes(f.read())
    if args.queries.endswith(".parquet"):
        qds = rd.read_parquet(args.queries)
    elif args.queries.endswith(".csv"):
        qds = rd.read_csv(args.queries)
    else:
        # reference text format: `item true_count` whitespace rows
        # (main.cpp:121-132)
        rows = []
        with open(args.queries) as f:
            for line in f:
                parts = line.split()
                if len(parts) >= 2:
                    rows.append({args.item_col: int(parts[0]),
                                 "true_count": int(parts[1])})
        qds = rd.from_items(rows)
    out = attach_estimates(qds, sk, item_col=args.item_col).to_pandas()
    if args.output.endswith(".parquet"):
        out.to_parquet(args.output, index=False)
    else:
        out.to_csv(args.output, index=False)  # reference CSV contract
    print(json.dumps({"queries": len(out), "output": args.output}))
    return 0


def cmd_sketch(args) -> int:
    """Build any registered sketch kind over a column."""
    from ocm_ray.engine.build import build_sketch_sharded
    from ocm_ray.engine.checkpoint import _fingerprint
    from ocm_ray.sketches import (
        KLL,
        PCSA,
        BBitMinHash,
        BloomFilter,
        BottomKMinHash,
        CountingBloomFilter,
        CountingBottomKMinHash,
        CountSketch,
        CountSketch4W,
        DDSketch,
        HeavyKeeper,
        HeavyKeeperTopK,
        HyperLogLog,
        HyperMinHash,
        ModSketch,
        SetSketch,
        TDigest,
        TopK,
    )
    from ocm_ray.sketches.countmin import CountMinPow2

    factories = {
        "hll": lambda: HyperLogLog(args.p),
        "bloom": lambda: BloomFilter(args.p, args.nh),
        "cbf": lambda: CountingBloomFilter(args.p, args.nh),
        "kll": lambda: KLL(args.k),
        "tdigest": lambda: TDigest(args.delta),
        "bottomk": lambda: BottomKMinHash(args.k),
        "countsketch": lambda: CountSketch(args.p, args.nh),
        "countsketch4w": lambda: CountSketch4W(args.p, args.nh),
        "topk": lambda: TopK(args.k),
        "heavykeeper": lambda: HeavyKeeper(args.p, args.nh),
        "heavykeeper-topk": lambda: HeavyKeeperTopK(args.k, args.p, args.nh),
        "ddsketch": lambda: DDSketch(),
        "cm-pow2": lambda: CountMinPow2(args.p, args.nh),
        "pcsa": lambda: PCSA(args.p),
        "hmh": lambda: HyperMinHash(args.p),
        "setsketch": lambda: SetSketch.byte(1 << args.p),
        "bbmh": lambda: BBitMinHash(args.p),
        "modsketch": lambda: ModSketch(args.p),
        "counting-bottomk": lambda: CountingBottomKMinHash(args.k),
    }
    factories["sparse-hll"] = lambda: __import__(
        "ocm_ray.sketches.hll", fromlist=["SparseHLL"]).SparseHLL(args.p)
    if args.group_col and args.merge_into:
        print("sketch: --merge-into is not supported with --group-col "
              "(merge per-key fleets by merging their manifest dirs)",
              file=sys.stderr)
        return 2
    prior = None
    if args.merge_into:
        # validate the prior BEFORE the (possibly hours-long) build:
        # a typo'd path, a different sketch kind, or mismatched
        # geometry must fail in milliseconds, not after the corpus pass
        from ocm_ray.sketches.base import MergeableSketch

        if not os.path.isfile(args.merge_into):
            print(f"sketch: --merge-into {args.merge_into}: no such file",
                  file=sys.stderr)
            return 2
        with open(args.merge_into, "rb") as f:
            prior = MergeableSketch.from_bytes(f.read())
        probe = factories[args.kind]()
        if type(prior) is not type(probe):
            print(f"sketch: --merge-into kind mismatch: {args.merge_into} "
                  f"holds a {type(prior).__name__}, --kind {args.kind} "
                  f"builds a {type(probe).__name__}", file=sys.stderr)
            return 2
        for attr in ("p", "np_bits", "nh", "seedseed", "k", "delta"):
            a, b = getattr(prior, attr, None), getattr(probe, attr, None)
            if a is not None and b is not None and a != b:
                print(f"sketch: --merge-into geometry mismatch: prior "
                      f"{attr}={a} vs requested {attr}={b}",
                      file=sys.stderr)
                return 2
        # the sketch bytes do not record what they were built over: the
        # sidecar does, so a fold of another column or k-gram width
        # fails here instead of mixing two item domains
        side = args.merge_into + ".meta.json"
        prov = {}
        if os.path.isfile(side):
            with open(side) as f:
                prov = json.load(f)
            for attr in ("column", "kgram"):
                if attr in prov and prov[attr] != getattr(args, attr):
                    print(f"sketch: --merge-into provenance mismatch: prior "
                          f"{attr}={prov[attr]!r} vs requested "
                          f"{attr}={getattr(args, attr)!r}", file=sys.stderr)
                    return 2
        else:
            print(f"sketch: warning: {side} not found; cannot check the "
                  f"prior's column/kgram", file=sys.stderr)
    _init_ray(args.num_cpus)
    files = _input_files(args.input)
    if not files:
        print(f"no parquet files under {args.input}", file=sys.stderr)
        return 2
    t0 = time.time()
    if args.group_col:
        # per-key sketch fleet: one npz per key + a manifest (the
        # SparseHLL use case — most keys set few registers)
        import re as _re

        import ray.data as rd

        from ocm_ray.engine.build import grouped_sketches

        ds = rd.read_parquet(files, columns=[args.group_col, args.column])
        per_key = grouped_sketches(ds, args.group_col,
                                   factories[args.kind],
                                   column=args.column, kgram=args.kgram)
        os.makedirs(args.output, exist_ok=True)
        manifest = {}
        for key, sk in sorted(per_key.items()):
            safe = _re.sub(r"[^A-Za-z0-9._-]", "_", str(key))
            path = os.path.join(args.output, f"{safe}.sk")
            with open(path, "wb") as f:
                f.write(sk.to_bytes())
            entry = {"file": os.path.basename(path), "bytes": sk.nbytes}
            if hasattr(sk, "estimate"):
                entry["estimate"] = round(float(sk.estimate()), 1)
            manifest[str(key)] = entry
        with open(os.path.join(args.output, "manifest.json"), "w") as f:
            json.dump(manifest, f, indent=1, sort_keys=True)
        print(json.dumps({"kind": args.kind, "n_keys": len(manifest),
                          "total_bytes": sum(m["bytes"]
                                             for m in manifest.values()),
                          "wall_sec": round(time.time() - t0, 3),
                          "out": args.output}))
        return 0
    sk = build_sketch_sharded(files, factories[args.kind], column=args.column,
                              kgram=args.kgram, shards=args.parallelism)
    merged_from = None
    fingerprint = _fingerprint(files)
    if prior is not None:
        # incremental update: fold the NEW dump's sketch into the
        # persisted one (validated above). For ORDER-FREE sketches
        # (hll/bloom/cbf/pcsa/hmh/setsketch/bbmh/bottomk/countsketch/
        # modsketch/sparse-hll) the result is bit-identical to a
        # from-scratch build over old+new; compaction-based kinds
        # (kll/tdigest/ddsketch/topk/heavykeeper) get a valid mergeable
        # fold whose internal state may differ bitwise from a rebuild
        try:
            prior.merge(sk)
        except AssertionError as e:
            print(f"sketch: --merge-into merge rejected: {e}",
                  file=sys.stderr)
            return 2
        sk = prior
        merged_from = args.merge_into
        # the fold covers the prior's inputs too
        if prov.get("input"):
            fingerprint = ";".join(sorted(set(prov["input"].split(";"))
                                          | set(fingerprint.split(";"))))
    with open(args.output, "wb") as f:
        f.write(sk.to_bytes())
    _write_sidecar(args.output, args.kind, args, fingerprint)
    info = {"kind": args.kind, "wall_sec": round(time.time() - t0, 3),
            "bytes": sk.nbytes}
    if merged_from:
        info["merged_into"] = merged_from
    if args.kind in ("hll", "pcsa", "hmh", "setsketch", "sparse-hll"):
        info["estimate"] = round(sk.estimate())
    elif args.kind == "modsketch":
        info["estimate"] = round(sk.cardinality_estimate())
    elif args.kind in ("kll", "tdigest", "ddsketch"):
        info["quantiles"] = {f"p{int(q * 100)}": round(float(v), 4)
                             for q, v in zip(
                                 (0.5, 0.9, 0.99),
                                 sk.quantile([0.5, 0.9, 0.99]))}
    print(json.dumps(info))
    return 0


def cmd_dedup(args) -> int:
    """Dedup family over a documents table: emit near/exact-dup pairs or
    a deduplicated copy of the table."""
    import ray.data as rd

    _init_ray(args.num_cpus)
    files = _input_files(args.input)
    if not files:
        print(f"no parquet files under {args.input}", file=sys.stderr)
        return 2
    cols = [args.id_col, args.emb_col] if args.mode == "semantic" \
        else [args.id_col, args.text_col]
    ds = rd.read_parquet(files, columns=cols)
    t0 = time.time()
    from ocm_ray.ops import dedup as dd

    if args.mode == "semantic":
        out = dd.semantic_dedup_pairs(ds, threshold=args.threshold,
                                      n_clusters=args.n_clusters,
                                      emb_col=args.emb_col,
                                      id_col=args.id_col).to_pandas()
        out = out.drop_duplicates(["a", "b"]).sort_values(["a", "b"]) \
            .reset_index(drop=True)
    elif args.mode == "ngram":
        out = dd.dup_ngram_stats(ds, k=args.ngram_k, id_col=args.id_col,
                                 text_col=args.text_col).to_pandas() \
            .sort_values(args.id_col).reset_index(drop=True)
    elif args.mode == "spanremove":
        # write the REWRITTEN corpus (Lee et al. span removal): output is
        # a parquet directory like bloom mode, not a pairs file
        rewritten = dd.remove_dup_spans(ds, k=args.ngram_k,
                                        min_span=args.min_span,
                                        id_col=args.id_col,
                                        text_col=args.text_col)
        rewritten.write_parquet(args.output)
        # count the WRITTEN files — .count() on the lazy Dataset would
        # re-execute the whole rewrite (Ray re-runs the plan per consumer)
        n = _parquet_rows(args.output)
        print(json.dumps({"mode": "spanremove", "n_docs": n,
                          "wall_sec": round(time.time() - t0, 3),
                          "out": args.output}))
        return 0
    elif args.mode == "minhash":
        out = dd.minhash_lsh_pairs(ds, args.id_col, args.text_col,
                                   num_perm=args.num_perm, bands=args.bands,
                                   threshold=args.threshold,
                                   signature_cache_dir=args.sig_cache)
    elif args.mode == "simhash":
        out = dd.simhash_pairs(ds, args.id_col, args.text_col,
                               max_hamming=args.max_hamming)
    elif args.mode == "jaccard":
        out = dd.exact_jaccard_pairs(ds, args.id_col, args.text_col,
                                     threshold=args.threshold)
    elif args.mode == "exact":
        out = dd.exact_dedup(ds, args.id_col, args.text_col).to_pandas()
    else:  # bloom: write surviving rows as parquet
        survivors = dd.bloom_dedup_filter(ds, text_col=args.text_col)
        survivors.write_parquet(args.output)
        n = survivors.count()
        print(json.dumps({"mode": "bloom", "n_survivors": n,
                          "wall_sec": round(time.time() - t0, 3),
                          "out": args.output}))
        return 0
    if args.mode in ("minhash", "simhash", "jaccard", "semantic") \
            and args.clusters:
        out = dd.dup_clusters(out)  # pairs → (doc_id, cluster_id)
    if args.output.endswith(".csv"):
        out.to_csv(args.output, index=False)
    else:
        import pyarrow as pa
        import pyarrow.parquet as pq

        pq.write_table(pa.Table.from_pandas(out, preserve_index=False),
                       args.output)
    print(json.dumps({"mode": args.mode, "rows": len(out),
                      "wall_sec": round(time.time() - t0, 3),
                      "out": args.output}))
    return 0


def cmd_ann(args) -> int:
    """ANN index lifecycle: build an LSH- or IVF-partitioned Parquet
    index over an embeddings table, or probe one with query vectors."""
    import numpy as np
    import ray.data as rd

    _init_ray(args.num_cpus)
    from ocm_ray.ops import similarity as sim

    t0 = time.time()
    if args.action == "build":
        files = _input_files(args.input)
        if not files:
            print(f"no parquet files under {args.input}", file=sys.stderr)
            return 2
        ds = rd.read_parquet(files)
        if args.kind == "lsh":
            meta = sim.build_ann_index(ds, args.index_dir, bits=args.bits,
                                       emb_col=args.emb_col)
        elif args.kind == "ivfpq":
            meta = sim.build_ivfpq_index(ds, args.index_dir,
                                         n_centroids=args.centroids,
                                         m_subspaces=args.pq_m,
                                         emb_col=args.emb_col,
                                         id_col=args.id_col)
        else:
            meta = sim.build_ivf_index(ds, args.index_dir,
                                       n_centroids=args.centroids,
                                       emb_col=args.emb_col,
                                       id_col=args.id_col)
        meta = {k: v for k, v in meta.items()
                if k not in ("centroids", "codebooks")}
        print(json.dumps({"action": "build", "kind": args.kind, **meta,
                          "wall_sec": round(time.time() - t0, 3)}))
        return 0
    # probe: query vectors from a parquet embeddings table
    import pyarrow.parquet as pq

    qt = pq.read_table(args.queries, columns=[args.emb_col])
    q = np.array([r.as_py() for r in qt.column(args.emb_col)],
                 dtype=np.float64)
    if args.kind == "lsh":
        out = sim.lsh_topk(None, q, k=args.k, multiprobe=args.probe,
                           index_dir=args.index_dir, id_col=args.id_col)
    elif args.kind == "ivfpq":
        out = sim.ivfpq_topk(q, k=args.k, n_probe=args.probe,
                             index_dir=args.index_dir)
    else:
        out = sim.ivf_topk(q, k=args.k, n_probe=args.probe,
                           index_dir=args.index_dir, id_col=args.id_col)
    if args.output.endswith(".csv"):
        out.to_csv(args.output, index=False)
    else:
        import pyarrow as pa

        pq.write_table(pa.Table.from_pandas(out, preserve_index=False),
                       args.output)
    print(json.dumps({"action": "probe", "kind": args.kind,
                      "n_queries": len(q), "rows": len(out),
                      "wall_sec": round(time.time() - t0, 3),
                      "out": args.output}))
    return 0


def cmd_bpe(args) -> int:
    """BPE tokenizer lifecycle: train a merge table over a documents
    table (one corpus scan + driver-side merge loop over the bounded
    word-frequency table), or encode documents with a saved one."""
    import ray.data as rd

    _init_ray(args.num_cpus)
    from ocm_ray.ops.text import bpe_encode_documents, train_bpe

    t0 = time.time()
    files = _input_files(args.input)
    if not files:
        print(f"no parquet files under {args.input}", file=sys.stderr)
        return 2
    if args.action == "train":
        ds = rd.read_parquet(files, columns=[args.text_col])
        out = train_bpe(ds, text_col=args.text_col,
                        vocab_size=args.vocab_size)
        with open(args.merges, "w") as f:
            json.dump({"merges": out["merges"], "vocab": out["vocab"]}, f)
        print(json.dumps({"action": "train", "n_merges": len(out["merges"]),
                          "vocab_size": len(out["vocab"]),
                          "alphabet_size": out["alphabet_size"],
                          "wall_sec": round(time.time() - t0, 3),
                          "out": args.merges}))
        return 0
    with open(args.merges) as f:
        merges = [tuple(m) for m in json.load(f)["merges"]]
    ds = rd.read_parquet(files, columns=[args.id_col, args.text_col])
    enc = bpe_encode_documents(ds, merges, id_col=args.id_col,
                               text_col=args.text_col)
    enc.write_parquet(args.output)
    n = _parquet_rows(args.output)
    print(json.dumps({"action": "encode", "n_docs": n,
                      "wall_sec": round(time.time() - t0, 3),
                      "out": args.output}))
    return 0


def cmd_classify(args) -> int:
    """Quality-classifier lifecycle (ops/classifier.py): train an NB
    (distributed integer count tables, vocab-bounded driver model) or
    LR (--kind lr: full-batch GD over hashed features, dim-bounded
    model) over a labeled documents table, or score/filter documents
    with a saved artifact of either kind (format sniffed)."""
    import ray.data as rd

    if args.action != "train" and not args.output:
        print("classify score/filter requires -o/--output", file=sys.stderr)
        return 2

    _init_ray(args.num_cpus)
    from ocm_ray.ops.classifier import (LRModel, load_classifier,
                                        lr_filter, lr_scores, nb_filter,
                                        nb_scores, train_lr_classifier,
                                        train_quality_classifier)

    t0 = time.time()
    files = _input_files(args.input)
    if not files:
        print(f"no parquet files under {args.input}", file=sys.stderr)
        return 2
    if args.action == "train":
        if args.pos_values:
            pos = [v for v in args.pos_values.split(",") if v]
            ds = rd.read_parquet(
                files, columns=[args.text_col, args.key_col])

            def add_label(batch):
                import pyarrow as _pa
                import pyarrow.compute as _pc

                lab = _pc.is_in(batch.column(args.key_col),
                                value_set=_pa.array(pos))
                return (batch.drop_columns([args.key_col])
                        .append_column("label", lab))

            ds = ds.map_batches(add_label, batch_format="pyarrow")
            label_col = "label"
        else:
            label_col = args.label_col
            ds = rd.read_parquet(files, columns=[args.text_col, label_col])
        if args.kind == "lr":
            hist = []
            model = train_lr_classifier(
                ds, label_col=label_col, text_col=args.text_col,
                dim=args.dim, bigrams=args.bigrams,
                lowercase=args.lowercase, epochs=args.epochs,
                lr=args.lr_rate, l2=args.l2, history=hist)
            model.save(args.model)
            print(json.dumps({
                "action": "train", "kind": "lr", "dim": model.dim,
                "bias": round(model.b, 6), "epochs": model.epochs,
                "final_logloss": round(hist[-1][1], 6) if hist else None,
                "wall_sec": round(time.time() - t0, 3),
                "out": args.model}))
            return 0
        model = train_quality_classifier(
            ds, label_col=label_col, text_col=args.text_col,
            alpha=args.alpha, lowercase=args.lowercase)
        model.save(args.model)
        print(json.dumps({
            "action": "train", "vocab_size": model.vocab_size,
            "n_pos_docs": model.n_pos_docs, "n_neg_docs": model.n_neg_docs,
            "prior_logodds": round(model.prior, 6),
            "wall_sec": round(time.time() - t0, 3), "out": args.model}))
        return 0
    model = load_classifier(args.model)   # sniffs NB vs LR artifacts
    ds = rd.read_parquet(files)
    if isinstance(model, LRModel):
        fn = lr_filter if args.action == "filter" else lr_scores
    else:
        fn = nb_filter if args.action == "filter" else nb_scores
    if args.action == "filter":
        out = fn(ds, model, text_col=args.text_col,
                 threshold=args.threshold)
    else:
        out = fn(ds, model, id_col=args.id_col,
                 text_col=args.text_col, threshold=args.threshold)
    out.write_parquet(args.output)
    n = _parquet_rows(args.output)
    print(json.dumps({"action": args.action, "n_rows": n,
                      "wall_sec": round(time.time() - t0, 3),
                      "out": args.output}))
    return 0


def cmd_curate(args) -> int:
    """Flagship curation pipeline: stats → heuristic quality filter →
    optional trained-classifier filter → exact + near dedup →
    partitioned Parquet (see pipelines.pretraining.curate)."""
    _init_ray(args.num_cpus)
    from ocm_ray.pipelines.pretraining import curate

    summary = curate(args.input, args.output,
                     quality_min=args.quality_min,
                     near_dup_threshold=args.near_dup_threshold,
                     overwrite=args.overwrite, redact=args.redact,
                     remove_spans=args.remove_spans,
                     classifier=args.classifier,
                     classifier_threshold=args.classifier_threshold,
                     classifier_top_frac=args.classifier_top_frac,
                     ppl_tiers=(tuple(t for t in args.ppl_tiers.split(",")
                                      if t) if args.ppl_tiers else None))
    print(json.dumps(summary))
    return 0


def cmd_report(args) -> int:
    """Corpus health report: one JSON over a documents table — size,
    token/char totals, per-source mix, Gopher quality keep-rates, exact
    duplicate mass, and (with --tiers) the CCNet perplexity-tier
    distribution. Every aggregate is a per-block partial folded
    driver-side (source/flag-bounded); the corpus never lands on the
    driver."""
    import ray.data as rd

    _init_ray(args.num_cpus)
    import pyarrow as pa

    t0 = time.time()
    files = _input_files(args.input)
    if not files:
        print(f"no parquet files under {args.input}", file=sys.stderr)
        return 2
    cols = [args.id_col, args.text_col] + \
        ([args.source_col] if args.source_col else [])
    ds = rd.read_parquet(files, columns=cols)

    id_col, text_col, source_col = args.id_col, args.text_col, args.source_col

    def partials(batch: pa.Table) -> pa.Table:
        import json as _json

        import numpy as _np
        import pyarrow as _pa
        import pyarrow.compute as _pc

        txt = batch.column(text_col)
        if isinstance(txt, _pa.ChunkedArray):
            txt = txt.combine_chunks()
        txt = txt.fill_null("")
        # token counts need only the split lengths — hashing every word
        # (split_words_hashed) would pay full-corpus stable hashing for
        # values the report never uses. Same split semantics: single
        # space, empties kept (split_words_hashed / DuckDB string_split).
        lens = _pc.list_value_length(_pc.split_pattern(txt, " ")) \
            .to_numpy(zero_copy_only=False).astype(_np.int64)
        n_chars = int(_pc.sum(_pc.utf8_length(txt)).as_py() or 0)
        srcs = {}
        if source_col:
            import polars as _pl

            vc = _pl.DataFrame({"s": _pl.from_arrow(
                batch.column(source_col))}).group_by("s").len("n")
            srcs = dict(zip(vc["s"].to_list(),
                            (int(x) for x in vc["n"].to_list())))
        return _pa.table({"part": [_json.dumps({
            "n_docs": batch.num_rows,
            "n_tokens": int(lens.sum()),
            "n_chars": n_chars,
            "min_tokens": int(lens.min()) if len(lens) else 0,
            "max_tokens": int(lens.max()) if len(lens) else 0,
            "sources": srcs,
        })]})

    import json as _json

    agg = {"n_docs": 0, "n_tokens": 0, "n_chars": 0,
           "min_tokens": None, "max_tokens": 0, "sources": {}}
    for b in ds.map_batches(partials, batch_format="pyarrow") \
               .iter_batches(batch_format="pyarrow", batch_size=None):
        for raw in b.column("part"):
            p = _json.loads(raw.as_py())
            agg["n_docs"] += p["n_docs"]
            agg["n_tokens"] += p["n_tokens"]
            agg["n_chars"] += p["n_chars"]
            agg["max_tokens"] = max(agg["max_tokens"], p["max_tokens"])
            agg["min_tokens"] = p["min_tokens"] if agg["min_tokens"] is None \
                else min(agg["min_tokens"], p["min_tokens"])
            for s, n in p["sources"].items():
                agg["sources"][s] = agg["sources"].get(s, 0) + n

    # Gopher quality keep-rate (flag-bounded aggregate of the op)
    from ocm_ray.ops.text import gopher_quality_flags

    gq = gopher_quality_flags(ds.select_columns([id_col, text_col]),
                              id_col=id_col, text_col=text_col)
    n_keep = int(gq.map_batches(
        lambda t: pa.table({"k": [int(sum(t.column("keep").to_pylist()))]}),
        batch_format="pyarrow").sum("k") or 0)

    # exact duplicate mass: surplus copies per duplicated content hash
    from ocm_ray.ops.dedup import exact_dedup_groups

    import pyarrow.compute as pc

    dup = (exact_dedup_groups(ds.select_columns([id_col, text_col]),
                              id_col=id_col, text_col=text_col)
           .map_batches(lambda t: t.filter(
               pc.greater(t.column("n_copies"), pa.scalar(1))),
               batch_format="pyarrow")
           .to_pandas())  # only DUPLICATED hashes reach the driver
    n_surplus = int((dup["n_copies"] - 1).sum()) if len(dup) else 0

    report = {
        **{k: v for k, v in agg.items() if k != "sources"},
        "mean_tokens": round(agg["n_tokens"] / max(agg["n_docs"], 1), 2),
        "sources": dict(sorted(agg["sources"].items())),
        "gopher_keep_rate": round(n_keep / max(agg["n_docs"], 1), 4),
        "exact_dup_surplus": n_surplus,
        "exact_dup_rate": round(n_surplus / max(agg["n_docs"], 1), 4),
    }
    if args.tiers and source_col:
        from ocm_ray.ops.sampling import perplexity_buckets

        bk = perplexity_buckets(ds, id_col=id_col, text_col=text_col,
                                source_col=source_col).to_pandas()
        report["ppl_tiers"] = \
            bk["ppl_bucket"].value_counts().sort_index().to_dict()
    report["wall_sec"] = round(time.time() - t0, 3)
    print(json.dumps(report))
    return 0


def cmd_epoch(args) -> int:
    """Training-epoch export: exclusion dedup → deterministic shuffle →
    fixed-length packing → Parquet (see pipelines.pretraining)."""
    _init_ray(args.num_cpus)
    from ocm_ray.pipelines.pretraining import prepare_epoch

    summary = prepare_epoch(args.input, args.output, seq_len=args.seq_len,
                            seed=args.seed, eos_id=args.eos_id,
                            exclude_path=args.exclude,
                            overwrite=args.overwrite)
    print(json.dumps(summary))
    return 0


def _detect_table_files(path: str, cmd: str):
    """Resolve ``path`` (dir or glob) to (format, files); returns
    (None, error_message) when nothing matches or formats are mixed —
    a mixed dir is never silently partially read."""
    if os.path.isdir(path):
        files = sorted(glob.glob(os.path.join(path, "**", "*.*"),
                                 recursive=True))
    else:
        files = sorted(glob.glob(path))
    by_fmt = {"parquet": [], "orc": [], "jsonl": [], "csv": [], "wds": [],
              "ipc": []}
    for f in files:
        b = os.path.basename(f)
        if b.startswith(("_", ".")):
            # metadata sidecars (_manifest.json, _SUCCESS, .crc) — the
            # same ignore convention pyarrow's dataset selector uses;
            # without this, convert --resume's own _manifest.json makes
            # the output dir read back as "mixed input formats"
            continue
        if b.endswith(".parquet"):
            by_fmt["parquet"].append(f)
        elif b.endswith(".orc"):
            by_fmt["orc"].append(f)
        elif b.endswith((".jsonl", ".jsonl.gz", ".jsonl.zst", ".json")):
            by_fmt["jsonl"].append(f)
        elif b.endswith(".csv"):
            by_fmt["csv"].append(f)
        elif b.endswith(".tar"):
            by_fmt["wds"].append(f)
        elif b.endswith((".arrow", ".feather")):
            by_fmt["ipc"].append(f)
    present = {k: v for k, v in by_fmt.items() if v}
    if not present:
        return None, f"{cmd}: no recognizable input files under {path!r}"
    if len(present) > 1:
        counts = ", ".join(f"{len(v)} {k}" for k, v in present.items())
        return None, (f"{cmd}: mixed input formats under {path!r} "
                      f"({counts}) — narrow --input to a glob that "
                      "matches one format")
    (in_fmt, files), = present.items()
    return in_fmt, files


def _wds_exts(args) -> tuple:
    """One parse of --wds-exts (shared by the streaming and --resume
    read paths so they can never diverge)."""
    return tuple(args.wds_exts.split(",")) if args.wds_exts \
        else ("bin", "json")


def _read_any(in_fmt: str, files, cols, args):
    """One Dataset reader per supported format, column-pruned at the
    read where the format allows it."""
    import ray.data as rd

    from ocm_ray.engine.io import read_ipc, read_jsonl, read_orc

    if in_fmt == "parquet":
        return rd.read_parquet(files, columns=cols)
    if in_fmt == "orc":
        return read_orc(files, columns=cols)
    if in_fmt == "ipc":
        return read_ipc(files, columns=cols)
    if in_fmt == "wds":
        from ocm_ray.ops.multimodal import read_webdataset

        ds = read_webdataset(files, exts=_wds_exts(args),
                             key_col=args.key_col)
    else:
        ds = read_jsonl(files) if in_fmt == "jsonl" else rd.read_csv(files)
    if cols:
        ds = ds.select_columns(cols)
    return ds


def cmd_convert(args) -> int:
    """Stream a table between storage formats (parquet / ORC /
    jsonl[.gz|.zst] / csv / Arrow IPC / WebDataset tar) — the step-zero
    job of a web-scale pipeline
    (a ``.jsonl.zst`` crawl dump has to become pruned Parquet before
    anything else runs). Input format is auto-detected from the file
    extensions (a mixed-format input is refused, never silently
    partially converted); the whole conversion is one lazy Dataset plan
    (read tasks feed write tasks under backpressure — nothing
    materializes). Output lands in a sibling tmp dir and is swapped in
    only after the write succeeds: a failed conversion leaves the old
    output intact, and the input can never be deleted by --overwrite
    (an output dir that contains the input files is refused)."""
    import shutil

    _init_ray(args.num_cpus)

    from ocm_ray.engine.io import (parquet_rows, write_ipc, write_jsonl,
                                   write_orc)

    t0 = time.time()
    if args.partition_by and args.to != "parquet":
        print("convert: --partition-by only applies to --to parquet",
              file=sys.stderr)
        return 2
    in_fmt, files = _detect_table_files(args.input, "convert")
    if in_fmt is None:
        print(files, file=sys.stderr)
        return 2

    out = args.output
    out_real = os.path.realpath(out)
    if any(os.path.realpath(f).startswith(out_real + os.sep)
           for f in files):
        print(f"convert: output dir {out!r} contains the input files — "
              "converting onto the input would destroy it; pick a "
              "different -o", file=sys.stderr)
        return 2
    if args.resume:
        # per-input-file resume: one part per dump file, manifest skips
        # finished shards — the shape a 100 TB ingest needs (a killed
        # run resumes instead of restarting). Parquet output only; the
        # manifest owns the dirty-dir semantics, so no tmp-dir swap.
        from ocm_ray.engine.io import SHARD_READERS, run_resumable_etl

        if args.to != "parquet" or args.partition_by:
            print("convert: --resume supports --to parquet without "
                  "--partition-by", file=sys.stderr)
            return 2
        # dirty-sink guard, resume flavor: files from a previous
        # NON-resume conversion (Ray's uuid-named parquet parts, or any
        # other table format) are invisible to the manifest reconcile
        # (which only owns part-*.parquet), so they'd silently
        # double-count on every directory read. part-*.parquet and
        # _-prefixed sidecars are this layout's own files — resuming
        # over those is the whole point.
        if os.path.isdir(out):
            import re as _re
            foreign = [f for f in sorted(os.listdir(out))
                       if not f.startswith(("_", "."))
                       and not _re.fullmatch(r"part-[0-9a-f]+\.parquet", f)]
            if foreign:
                if not args.overwrite:
                    print(f"convert: output dir {out!r} holds "
                          f"{len(foreign)} file(s) not from a --resume "
                          f"run (e.g. {foreign[0]!r}) — they would "
                          "double-count on read; pass --overwrite to "
                          "remove them, or use a fresh dir",
                          file=sys.stderr)
                    return 2
                for f in foreign:
                    p = os.path.join(out, f)
                    shutil.rmtree(p) if os.path.isdir(p) else os.unlink(p)
        cols = args.columns
        if in_fmt == "wds":
            from ocm_ray.ops.multimodal import tar_shard_table

            exts = _wds_exts(args)
            key_col = args.key_col

            def reader(p, c, b):
                t = tar_shard_table(p, exts, key_col)
                yield t.select(c) if c else t
        elif in_fmt in SHARD_READERS:
            reader = SHARD_READERS[in_fmt]
        else:
            print(f"convert: --resume has no shard reader for {in_fmt}",
                  file=sys.stderr)
            return 2
        manifest = run_resumable_etl(
            files, out, (lambda t: t.select(cols)) if cols else
            (lambda t: t), columns=cols, reader=reader)
        print(json.dumps({
            "in_format": in_fmt, "files_in": len(files),
            "out_format": "parquet",
            "rows": sum(e["rows_out"] for e in manifest["shards"]),
            "parts": sum(1 for e in manifest["shards"]
                         if e["out_file"] is not None),
            "skipped": manifest["skipped"], "built": manifest["built"],
            "output": out, "wall_sec": round(time.time() - t0, 3)}))
        return 0

    dirty = os.path.isdir(out) and bool(os.listdir(out))
    if dirty and not args.overwrite:
        print(f"convert: output dir {out!r} is not empty — pass "
              "--overwrite to replace it", file=sys.stderr)
        return 2

    ds = _read_any(in_fmt, files, args.columns, args)

    # write into a sibling tmp dir; swap in only on success
    tmp_out = out.rstrip("/") + ".tmp-convert"
    shutil.rmtree(tmp_out, ignore_errors=True)
    rows = parts = None
    try:
        if args.to == "parquet":
            if args.partition_by:
                from ocm_ray.engine.io import write_partitioned_by
                write_partitioned_by(ds, tmp_out, args.partition_by)
            else:
                ds.write_parquet(tmp_out)
            rows = parquet_rows(tmp_out)
            parts = len(glob.glob(os.path.join(tmp_out, "**", "*.parquet"),
                                  recursive=True))
        elif args.to == "csv":
            ds.write_csv(tmp_out)
            parts = len(os.listdir(tmp_out))
        elif args.to == "orc":
            manifest = write_orc(ds, tmp_out)
            rows, parts = sum(n for _, n in manifest), len(manifest)
        elif args.to == "ipc":
            manifest = write_ipc(ds, tmp_out)
            rows, parts = sum(n for _, n in manifest), len(manifest)
        elif args.to == "wds":
            from ocm_ray.ops.multimodal import write_webdataset

            wds_cols = None
            if args.wds_cols:
                wds_cols = dict(kv.split("=", 1)
                                for kv in args.wds_cols.split(","))
            manifest = write_webdataset(ds, tmp_out, key_col=args.key_col,
                                        cols=wds_cols)
            rows, parts = sum(n for _, n in manifest), len(manifest)
        else:  # jsonl / jsonl.gz / jsonl.zst
            codec = {"jsonl": None, "jsonl.gz": "gzip",
                     "jsonl.zst": "zstd"}[args.to]
            manifest = write_jsonl(ds, tmp_out, compression=codec)
            rows, parts = sum(n for _, n in manifest), len(manifest)
        if dirty or os.path.isdir(out):
            shutil.rmtree(out)
        os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
        os.rename(tmp_out, out)
    except BaseException:
        shutil.rmtree(tmp_out, ignore_errors=True)
        raise
    print(json.dumps({"in_format": in_fmt, "files_in": len(files),
                      "out_format": args.to, "rows": rows, "parts": parts,
                      "output": out,
                      "wall_sec": round(time.time() - t0, 3)}))
    return 0


def cmd_inspect(args) -> int:
    """One-JSON-line description of any supported table layout: format,
    file/byte counts, schema (from the first block — no full scan), and
    row count when it's free (parquet footers) or ``--rows`` forces a
    counting scan."""
    _init_ray(args.num_cpus)

    t0 = time.time()
    in_fmt, files = _detect_table_files(args.input, "inspect")
    if in_fmt is None:
        print(files, file=sys.stderr)
        return 2
    ds = _read_any(in_fmt, files, args.columns, args)
    sch = ds.schema()
    schema = {n: str(t) for n, t in zip(sch.names, sch.types)}
    rows = None
    if in_fmt == "parquet":
        import pyarrow.parquet as pq

        rows = sum(pq.read_metadata(f).num_rows for f in files)
    elif in_fmt == "orc":
        from pyarrow import orc

        rows = sum(orc.ORCFile(f).nrows for f in files)  # footer metadata
    elif args.rows:
        rows = ds.count()
    print(json.dumps({"format": in_fmt, "files": len(files),
                      "bytes": sum(os.path.getsize(f) for f in files),
                      "rows": rows, "schema": schema,
                      "wall_sec": round(time.time() - t0, 3)}))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="ocm_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    c = sub.add_parser("count", help="build a (multi-round) count-min sketch")
    c.add_argument("-w", "--width", type=int, default=1 << 20,
                   help="counter width (power of two; np = log2 w)")
    c.add_argument("--nh", type=int, default=7, help="rows (odd-forced)")
    c.add_argument("-n", "--rounds", type=int, default=1)
    c.add_argument("-c", "--conservative", action="store_true")
    c.add_argument("-k", "--kgram", type=int, default=1)
    c.add_argument("--seed", type=int, default=137)
    c.add_argument("--input", required=True, help="parquet dir or glob")
    c.add_argument("--column", default="tokens")
    c.add_argument("-o", "--output", required=True)
    c.add_argument("--checkpoint-dir")
    c.add_argument("--resume", action=argparse.BooleanOptionalAction,
                   default=True, help="--no-resume ignores existing "
                                      "checkpoints and rebuilds from zero")
    c.add_argument("--parallelism", type=int)
    c.add_argument("--num-cpus", type=int)
    c.add_argument("--reference-format", action="store_true",
                   help="also write the reference's binary layout")
    c.set_defaults(fn=cmd_count)

    qp = sub.add_parser("query", help="point-query a sketch file")
    qp.add_argument("-f", "--sketch", required=True)
    qp.add_argument("-q", "--queries", required=True,
                    help="parquet/csv/whitespace query file")
    qp.add_argument("--item-col", default="token")
    qp.add_argument("-o", "--output", required=True)
    qp.add_argument("--num-cpus", type=int)
    qp.set_defaults(fn=cmd_query)

    s = sub.add_parser("sketch", help="build any registered sketch kind")
    s.add_argument("--kind", required=True,
                   choices=["hll", "bloom", "cbf", "kll", "tdigest", "bottomk",
                            "countsketch", "countsketch4w", "topk",
                            "heavykeeper", "heavykeeper-topk", "ddsketch",
                            "cm-pow2", "pcsa", "hmh", "setsketch", "bbmh",
                            "modsketch", "counting-bottomk", "sparse-hll"])
    s.add_argument("-p", type=int, default=14)
    s.add_argument("--nh", type=int, default=5)
    s.add_argument("-k", type=int, default=1024)
    s.add_argument("--delta", type=int, default=100)
    s.add_argument("--kgram", type=int, default=1)
    s.add_argument("--input", required=True)
    s.add_argument("--column", default="tokens")
    s.add_argument("--group-col", help="build ONE sketch PER KEY of this "
                                       "column (output becomes a dir of "
                                       ".sk files + manifest.json)")
    s.add_argument("--merge-into", metavar="PATH",
                   help="incremental update: merge the new input's "
                        "sketch into this persisted .sk (same kind/"
                        "geometry/seed, validated before the build) and "
                        "write the fold to -o. Bit-identical to "
                        "rebuilding over old+new for order-free kinds "
                        "(hll/bloom/...); a valid mergeable fold (same "
                        "answers within each sketch's guarantees, not "
                        "bitwise) for compaction-based kinds "
                        "(kll/tdigest/ddsketch/topk/heavykeeper)")
    s.add_argument("-o", "--output", required=True)
    s.add_argument("--parallelism", type=int)
    s.add_argument("--num-cpus", type=int)
    s.set_defaults(fn=cmd_sketch)

    d = sub.add_parser("dedup", help="dedup a documents table")
    d.add_argument("--mode", required=True,
                   choices=["exact", "minhash", "simhash", "jaccard",
                            "bloom", "semantic", "ngram", "spanremove"])
    d.add_argument("--input", required=True, help="parquet dir or glob")
    d.add_argument("--id-col", default="doc_id")
    d.add_argument("--text-col", default="text")
    d.add_argument("--threshold", type=float, default=0.8)
    d.add_argument("--num-perm", type=int, default=128)
    d.add_argument("--bands", type=int, default=32)
    d.add_argument("--max-hamming", type=int, default=3)
    d.add_argument("--sig-cache", help="parquet dir for resumable signatures")
    d.add_argument("--emb-col", default="embedding",
                   help="embedding column (semantic mode)")
    d.add_argument("--n-clusters", type=int, default=64,
                   help="k-means cells (semantic mode)")
    d.add_argument("--ngram-k", type=int, default=5,
                   help="gram width (ngram/spanremove modes)")
    d.add_argument("--min-span", type=int, default=None,
                   help="minimum removable span in words "
                        "(spanremove mode; default = gram width)")
    d.add_argument("--clusters", action="store_true",
                   help="emit (doc_id, cluster_id) connected components "
                        "instead of raw pairs (pair modes only)")
    d.add_argument("-o", "--output", required=True,
                   help=".csv or .parquet for pairs; directory for bloom")
    d.add_argument("--num-cpus", type=int)
    d.set_defaults(fn=cmd_dedup)

    a = sub.add_parser("ann", help="build / probe a partitioned ANN index")
    a.add_argument("action", choices=["build", "probe"])
    a.add_argument("--kind", default="ivf",
                   choices=["lsh", "ivf", "ivfpq"])
    a.add_argument("--pq-m", type=int, default=8,
                   help="PQ subspaces (ivfpq kind)")
    a.add_argument("--input", help="embeddings parquet (build)")
    a.add_argument("--queries", help="query-vectors parquet (probe)")
    a.add_argument("--index-dir", required=True)
    a.add_argument("--emb-col", default="embedding")
    a.add_argument("--id-col", default="vec_id")
    a.add_argument("--bits", type=int, default=8, help="lsh hyperplanes")
    a.add_argument("--centroids", type=int, default=64, help="ivf cells")
    a.add_argument("-k", type=int, default=10)
    a.add_argument("--probe", type=int, default=4,
                   help="multiprobe flips (lsh) / cells probed (ivf)")
    a.add_argument("-o", "--output", help=".csv or .parquet (probe)")
    a.add_argument("--num-cpus", type=int)
    a.set_defaults(fn=cmd_ann)

    t = sub.add_parser("bpe", help="train / apply a BPE tokenizer")
    t.add_argument("action", choices=["train", "encode"])
    t.add_argument("--input", required=True, help="parquet dir or glob")
    t.add_argument("--text-col", default="text")
    t.add_argument("--id-col", default="doc_id")
    t.add_argument("--vocab-size", type=int, default=1024)
    t.add_argument("--merges", required=True,
                   help="merge-table json (written by train, read by encode)")
    t.add_argument("-o", "--output", help="parquet dir (encode)")
    t.add_argument("--num-cpus", type=int)
    t.set_defaults(fn=cmd_bpe)

    cl = sub.add_parser("classify",
                        help="train / apply an NB or LR quality classifier")
    cl.add_argument("action", choices=["train", "score", "filter"])
    cl.add_argument("--input", required=True, help="parquet dir or glob")
    cl.add_argument("--model", required=True,
                    help="model npz (written by train, read by score/filter)")
    cl.add_argument("--text-col", default="text")
    cl.add_argument("--id-col", default="doc_id")
    cl.add_argument("--label-col", default="label",
                    help="boolean label column (train)")
    cl.add_argument("--key-col", default="source",
                    help="categorical column matched against --pos-values")
    cl.add_argument("--pos-values",
                    help="comma list: label = key-col IN these (train)")
    cl.add_argument("--kind", choices=["nb", "lr"], default="nb",
                    help="model family (train): multinomial NB or "
                         "logistic regression on hashed features")
    cl.add_argument("--alpha", type=float, default=1.0)
    cl.add_argument("--lowercase", action="store_true")
    cl.add_argument("--threshold", type=float, default=0.0)
    cl.add_argument("--dim", type=int, default=1 << 18,
                    help="feature-hash dimension (lr train)")
    cl.add_argument("--bigrams", action="store_true",
                    help="add adjacent-word bigram features (lr train)")
    cl.add_argument("--epochs", type=int, default=40,
                    help="full-batch GD epochs (lr train)")
    cl.add_argument("--lr-rate", type=float, default=5.0,
                    help="learning rate (lr train)")
    cl.add_argument("--l2", type=float, default=1e-6,
                    help="L2 regularization (lr train)")
    cl.add_argument("-o", "--output", help="parquet dir (score/filter)")
    cl.add_argument("--num-cpus", type=int)
    cl.set_defaults(fn=cmd_classify)

    cu = sub.add_parser("curate", help="run the end-to-end curation "
                                       "pipeline (quality + dedup)")
    cu.add_argument("--input", required=True,
                    help="documents parquet file/dir")
    cu.add_argument("-o", "--output", required=True,
                    help="partitioned parquet out dir")
    cu.add_argument("--quality-min", type=float, default=0.3)
    cu.add_argument("--near-dup-threshold", type=float, default=0.85)
    cu.add_argument("--redact", action="store_true",
                    help="PII scrub ahead of scoring/dedup")
    cu.add_argument("--remove-spans", type=int, default=0, metavar="N",
                    help="cut cross-doc duplicated spans of >= N words")
    cu.add_argument("--classifier",
                    help="trained NB or LR model npz (classify train) — "
                         "adds the model-based quality stage (format "
                         "sniffed from the artifact)")
    cu.add_argument("--classifier-threshold", type=float, default=0.0)
    cu.add_argument("--classifier-top-frac", type=float,
                    help="keep the top FRACTION by classifier score "
                         "(quantile threshold via KLL) instead of a "
                         "fixed --classifier-threshold")
    cu.add_argument("--ppl-tiers",
                    help="comma list of CCNet tiers to KEEP (e.g. "
                         "head,middle) by per-source unigram-LM score "
                         "terciles")
    cu.add_argument("--overwrite", action="store_true")
    cu.add_argument("--num-cpus", type=int)
    cu.set_defaults(fn=cmd_curate)

    rp = sub.add_parser("report", help="one-JSON corpus health report")
    rp.add_argument("--input", required=True, help="parquet dir or glob")
    rp.add_argument("--id-col", default="doc_id")
    rp.add_argument("--text-col", default="text")
    rp.add_argument("--source-col", default="source",
                    help="'' to skip the per-source mix")
    rp.add_argument("--tiers", action="store_true",
                    help="include the CCNet perplexity-tier distribution")
    rp.add_argument("--num-cpus", type=int)
    rp.set_defaults(fn=cmd_report)

    e = sub.add_parser("epoch", help="export one deterministic training "
                                     "epoch (shuffle + pack)")
    e.add_argument("--input", required=True, help="sequences parquet dir")
    e.add_argument("--exclude", help="exclusion parquet (eval sets; "
                                     "token-identity dedup)")
    e.add_argument("--seq-len", type=int, default=2048)
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--eos-id", type=int)
    e.add_argument("--overwrite", action="store_true")
    e.add_argument("-o", "--output", required=True)
    e.add_argument("--num-cpus", type=int)
    e.set_defaults(fn=cmd_epoch)

    cv = sub.add_parser("convert", help="stream a table between storage "
                                        "formats (parquet/orc/jsonl/csv/"
                                        "ipc/wds)")
    cv.add_argument("--input", required=True,
                    help="dir or glob; format auto-detected from extensions")
    cv.add_argument("--to", required=True,
                    choices=["parquet", "orc", "jsonl", "jsonl.gz",
                             "jsonl.zst", "csv", "wds", "ipc"])
    cv.add_argument("--columns", nargs="+",
                    help="prune to these columns at the read")
    cv.add_argument("--partition-by", nargs="+",
                    help="--to parquet only: Hive-partition the output "
                         "by these columns (read-pruning layout)")
    cv.add_argument("--key-col", default="sample_id",
                    help="WebDataset sample-key column (tar in/out)")
    cv.add_argument("--wds-cols",
                    help="--to wds member map, e.g. text=txt,meta=json")
    cv.add_argument("--wds-exts",
                    help="tar-input member extensions, e.g. txt,json")
    cv.add_argument("--overwrite", action="store_true")
    cv.add_argument("--resume", action="store_true",
                    help="--to parquet only: one part per input file "
                         "with a manifest; a rerun skips finished files")
    cv.add_argument("-o", "--output", required=True)
    cv.add_argument("--num-cpus", type=int)
    cv.set_defaults(fn=cmd_convert)

    ins = sub.add_parser("inspect", help="one-JSON description of any "
                                         "supported table layout")
    ins.add_argument("--input", required=True, help="dir or glob")
    ins.add_argument("--columns", nargs="+")
    ins.add_argument("--rows", action="store_true",
                     help="count rows even when it needs a scan")
    ins.add_argument("--key-col", default="sample_id")
    ins.add_argument("--wds-exts")
    ins.add_argument("--num-cpus", type=int)
    ins.set_defaults(fn=cmd_inspect)

    args = p.parse_args(argv)
    try:
        return args.fn(args)
    finally:
        import ray

        if ray.is_initialized():
            ray.shutdown()


if __name__ == "__main__":
    sys.exit(main())
