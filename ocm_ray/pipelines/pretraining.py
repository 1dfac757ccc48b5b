"""End-to-end training-data curation pipeline — the composition a 100 TB
corpus run would use, exercising every operator class in one flow:

    read → text stats + quality score (task stage) → quality filter →
    exact dedup (content hash) → MinHash-LSH near-dedup → per-source
    HLL distinct + token counts → hive-partitioned Parquet output.

Each stage is the library operator; this module only wires them. The
output layout (partitioned by ``source``) plus the returned summary make
the run auditable and the output prunable at the read.
"""

from __future__ import annotations

import os
from typing import Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def curate(documents_path: str, out_dir: str, quality_min: float = 0.3,
           near_dup_threshold: float = 0.85,
           concurrency: int = 4, overwrite: bool = False,
           redact: bool = False, remove_spans: int = 0,
           classifier=None, classifier_threshold: float = 0.0,
           classifier_top_frac: Optional[float] = None,
           ppl_tiers: Optional[tuple] = None) -> dict:
    """Run the curation flow over a documents Parquet table; returns a
    summary dict (counts per stage, per-source distincts).

    ``classifier`` (an ``ops.classifier.NBModel`` or a path to a saved
    ``.npz``) adds the model-based quality stage after the heuristic
    filter — ``n_after_quality`` then counts survivors of BOTH filters.
    ``classifier_top_frac`` switches that stage from the fixed
    ``classifier_threshold`` to the quantile policy (keep the top
    fraction by score, threshold discovered via a KLL sketch).
    ``ppl_tiers`` (e.g. ``("head", "middle")``) adds the CCNet
    perplexity-tier selection — keep only rows in those per-source
    unigram-LM score terciles.

    ``out_dir`` must not already hold Parquet (``write_parquet`` appends
    uniquely-named files, so a re-run into a dirty sink would double-count
    ``n_output`` and feed stale rows into the per-source stats); pass
    ``overwrite=True`` to clear it first."""
    import glob as _glob
    import shutil

    import ray.data as rd

    if classifier is None and (classifier_top_frac is not None
                               or classifier_threshold != 0.0):
        raise ValueError(
            "classifier_top_frac / classifier_threshold require "
            "classifier= (a model or saved-model path) — without it the "
            "model-quality stage would be silently skipped")
    stale = _glob.glob(os.path.join(out_dir, "**", "*.parquet"),
                       recursive=True)
    if stale:
        if not overwrite:
            raise FileExistsError(
                f"curate: {out_dir} already holds {len(stale)} parquet "
                "file(s) from a previous run — pass overwrite=True to "
                "replace, or choose a fresh out_dir")
        shutil.rmtree(out_dir)

    from ocm_ray.engine.build import grouped_sketches
    from ocm_ray.ops.dedup import minhash_lsh_pairs
    from ocm_ray.ops.text import add_text_stats

    ds = rd.read_parquet(documents_path)
    n_in = ds.count()

    # 0. optional scrub stages AHEAD of scoring/dedup, so stats, hashes
    # and signatures all see the text the trainer will see:
    # redact=True runs the PII pass; remove_spans=N cuts cross-document
    # duplicated spans of >= N words (Lee et al. rewrite)
    if redact:
        import pyarrow.compute as _pc

        from ocm_ray.ops.text import _PII_PATTERNS

        def scrub_inline(t: pa.Table) -> pa.Table:
            # in-place text replacement (keeps every other column; the
            # counting variant is ops.text.redact_pii)
            txt = t.column("text")
            if isinstance(txt, pa.ChunkedArray):
                txt = txt.combine_chunks()
            txt = txt.fill_null("")
            for _, pat, repl in _PII_PATTERNS:
                txt = _pc.replace_substring_regex(txt, pattern=pat,
                                                  replacement=repl)
            return t.set_column(t.schema.get_field_index("text"),
                                "text", txt)

        ds = ds.map_batches(scrub_inline, batch_format="pyarrow")
    if remove_spans:
        from ocm_ray.ops.dedup import remove_dup_spans

        other = [c for c in ds.schema().names
                 if c not in ("doc_id", "text")]
        # k <= min_span (gram width can't exceed the removable span);
        # non-text columns ride the op's keep_cols passthrough — both
        # the broadcast pass and the exchange's meta rows carry them,
        # no second shuffle
        ds = remove_dup_spans(ds, k=min(5, int(remove_spans)),
                              min_span=int(remove_spans),
                              keep_cols=tuple(other)) \
            .select_columns(["doc_id", "text"] + other)
        # (the rewrite's n_words/... stats are dropped — add_text_stats
        # recomputes them on the rewritten text)

    # 1. per-doc stats + quality (task stage), filter
    scored = add_text_stats(ds, concurrency=concurrency)
    kept = scored.map_batches(
        lambda t: t.filter(pc.greater_equal(t.column("quality"),
                                            pa.scalar(quality_min))),
        batch_format="pyarrow")
    # 1.5 optional model-based quality stage (trained NB or LR
    # classifier): one broadcast of the model table, stateless pass
    if classifier is not None:
        from ocm_ray.ops.classifier import (LRModel, load_classifier,
                                            lr_filter,
                                            lr_keep_top_fraction,
                                            nb_filter,
                                            nb_keep_top_fraction)

        model = (load_classifier(classifier)
                 if isinstance(classifier, str) else classifier)
        is_lr = isinstance(model, LRModel)
        if classifier_top_frac is not None:
            # the quantile policy scores twice (sketch pass + filter
            # pass) — pin the upstream once so the stats/filter stages
            # don't re-execute under it
            kept = kept.materialize()
            top = lr_keep_top_fraction if is_lr else nb_keep_top_fraction
            kept, _ = top(kept, model, classifier_top_frac)
        elif is_lr:
            kept = lr_filter(kept, model, threshold=classifier_threshold)
        else:
            kept = nb_filter(kept, model, threshold=classifier_threshold)
    # 1.6 optional CCNet tier selection: drop low-fluency tiers by
    # per-source unigram-LM score terciles (threshold discovery on the
    # compact (source, score) exchange; one re-scoring filter pass)
    if ppl_tiers is not None:
        from ocm_ray.ops.sampling import perplexity_tier_filter

        kept = kept.materialize()  # scored twice (thresholds + filter)
        kept = perplexity_tier_filter(kept, tiers=tuple(ppl_tiers))
    kept = kept.materialize()  # reused by three consumers below
    n_quality = kept.count()
    if n_quality == 0:
        # everything filtered: empty groupbys lose their schema — exit early
        os.makedirs(out_dir, exist_ok=True)
        return {"n_input": n_in, "n_after_quality": 0, "n_exact_unique": 0,
                "n_near_dup_dropped": 0, "n_near_dup_clusters": 0,
                "n_output": 0,
                "distinct_docs_per_source": {}, "out_dir": out_dir}

    # 2. exact dedup — native groupby/aggregate; only the DUPLICATED
    # hashes (small by construction) come back: (content_hash → min id)
    from ocm_ray.ops.dedup import exact_dedup_groups

    from ocm_ray.ops.pairs import shards_for

    # shard count scaled to the surviving row count — 64 near-empty
    # shard tasks on a small corpus are pure scheduling overhead, a
    # 100 TB run still gets the full fan-out
    dup_map = (exact_dedup_groups(kept, n_shards=shards_for(n_quality))
               .map_batches(
                   lambda t: t.filter(pc.greater(t.column("n_copies"),
                                                 pa.scalar(1))),
                   batch_format="pyarrow").to_pandas())
    # distinct = rows minus surplus copies — derived from the (small)
    # dup map so the groupby executes exactly once
    n_exact_unique = n_quality - int((dup_map["n_copies"] - 1).sum()) \
        if len(dup_map) else n_quality

    # 3. near-dedup: transitively-safe keep-one-per-cluster — connected
    # components over the candidate pairs, the cluster's MIN member
    # survives. (Dropping raw b-sides instead can over-keep on chains
    # a-c, b-c where a~b only transitively.) dup_clusters_ds
    # auto-dispatches: driver union-find while the pair set is
    # output-sized, distributed star-round exchanges above the cap.
    pairs = minhash_lsh_pairs(kept.select_columns(["doc_id", "text"]),
                              threshold=near_dup_threshold)
    if len(pairs):
        from ocm_ray.ops.dedup import dup_clusters_ds

        labels = dup_clusters_ds(pairs).to_pandas()
        drop_near = np.sort(labels.loc[
            labels["doc_id"] != labels["cluster_id"], "doc_id"]
            .to_numpy())
        n_nd_clusters = int((labels["doc_id"]
                             == labels["cluster_id"]).sum())
    else:
        drop_near = np.empty(0, dtype=np.int64)
        n_nd_clusters = 0

    # 4. anti-join filter: broadcast ONLY the small drop-side state
    # (duplicated hashes + their keeper ids + near-dup drops) once via
    # ray.put; each batch recomputes its content hashes and drops rows
    # that are (a) non-keeper exact copies or (b) near-dup b-sides.
    if len(dup_map) and "content_hash" in dup_map.columns:
        order = np.argsort(dup_map["content_hash"].to_numpy())
        dup_hashes = dup_map["content_hash"].to_numpy()[order]
        dup_keep_id = dup_map["doc_id"].to_numpy()[order]
    else:
        # no exact duplicates at all: an empty Ray->pandas result can
        # drop its column schema entirely, so don't index into it
        dup_hashes = np.empty(0, dtype=np.int64)
        dup_keep_id = np.empty(0, dtype=np.int64)
    import ray as _ray

    drop_ref = _ray.put((dup_hashes, dup_keep_id, np.sort(drop_near)))

    def drop_filter(t: pa.Table) -> pa.Table:
        # stateless task: the drop-side state rides the object store once
        # and is read zero-copy per batch (no actor-pool startup)
        from ocm_ray.engine.tokens import hash_string_array

        dup_hashes, dup_keep_id, drop_near = _ray.get(drop_ref)
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        h = hash_string_array(t.column("text")).astype(np.int64)
        pos = np.searchsorted(dup_hashes, h)
        pos = np.minimum(pos, max(len(dup_hashes) - 1, 0))
        hit = (dup_hashes[pos] == h) if len(dup_hashes) else \
            np.zeros(len(h), dtype=bool)
        drop_exact = hit & (ids != (dup_keep_id[pos] if len(dup_hashes) else 0))
        npos = np.searchsorted(drop_near, ids)
        npos = np.minimum(npos, max(len(drop_near) - 1, 0))
        drop_nd = (drop_near[npos] == ids) if len(drop_near) \
            else np.zeros(len(h), dtype=bool)
        return t.filter(pa.array(~(drop_exact | drop_nd)))

    final = kept.map_batches(drop_filter, batch_format="pyarrow")

    # 5. partitioned output FIRST (prunable layout + resumable unit per
    # key) — the written Parquet then serves as the materialization point
    # for every downstream consumer instead of re-running the filter
    final.write_parquet(out_dir, partition_cols=["source"])
    from ocm_ray.engine.io import parquet_rows

    n_output = parquet_rows(out_dir)

    # 6. per-source distinct-document estimates over the written output
    # (pruned column read of the sink — no pipeline re-execution)
    import ray.data as rd

    from ocm_ray.sketches import HyperLogLog

    per_src = grouped_sketches(
        rd.read_parquet(out_dir, columns=["text", "source"]),
        "source", lambda: HyperLogLog(12), column="text")

    return {
        "n_input": n_in,
        "n_after_quality": n_quality,
        "n_exact_unique": n_exact_unique,
        "n_near_dup_dropped": int(len(drop_near)),
        "n_near_dup_clusters": n_nd_clusters,
        "n_output": n_output,
        "distinct_docs_per_source": {k: round(v.estimate())
                                     for k, v in sorted(per_src.items())},
        "out_dir": out_dir,
    }


def prepare_epoch(sequences_path: str, out_dir: str, seq_len: int = 2048,
                  seed: int = 0, eos_id: Optional[int] = None,
                  exclude_path: Optional[str] = None,
                  id_col: str = "doc_id", tokens_col: str = "tokens",
                  overwrite: bool = False) -> dict:
    """Training-epoch export: the composition a trainer consumes each
    epoch, wiring the round-4 operators end to end —

        read sequences → (optional) cross-corpus exact dedup against an
        exclusion table (eval/dev sets, earlier dumps; token identity)
        → deterministic epoch shuffle (pure function of ids + seed) →
        fixed-length sequence packing → Parquet out.

    Deterministic end to end: the shuffle order is a pure function of
    (doc ids, ``seed``) and packing is per-block on the shuffle's
    deterministic shard layout, so re-running an epoch (resume after a
    crash, reproducing a run) regenerates byte-identical training rows;
    each epoch's ``seed`` gives an independent order. Driver holds
    ObjectRefs only (shuffle = raw-task exchange; packing and the write
    are stateless map stages)."""
    import glob as _glob
    import shutil
    import time

    import ray.data as rd

    from ocm_ray.ops.dedup import dedup_against
    from ocm_ray.ops.packing import pack_sequences
    from ocm_ray.ops.sampling import epoch_shuffle

    stale = _glob.glob(os.path.join(out_dir, "**", "*.parquet"),
                       recursive=True)
    if stale:
        if not overwrite:
            raise FileExistsError(
                f"prepare_epoch: {out_dir} already holds {len(stale)} "
                "parquet file(s) — pass overwrite=True or use a fresh "
                "out_dir")
        shutil.rmtree(out_dir)

    t0 = time.time()
    ds = rd.read_parquet(sequences_path, columns=[id_col, tokens_col])
    n_in = ds.count()
    n_excluded = 0
    if exclude_path is not None:
        ref = rd.read_parquet(exclude_path, columns=[id_col, tokens_col])
        ds = dedup_against(ds, ref, id_col=id_col, tokens_col=tokens_col)
        n_kept = ds.count()
        n_excluded = n_in - n_kept
    shuffled = epoch_shuffle(ds, seed=seed, id_col=id_col)
    packed = pack_sequences(shuffled, seq_len=seq_len, column=tokens_col,
                            eos_id=eos_id)
    # deterministic shard-indexed filenames (write_parquet's default uuid
    # names would make the on-disk file ORDER nondeterministic even when
    # every row is): file NNNN == shuffle shard NNNN, so a resumed or
    # reproduced epoch regenerates the same files under the same names
    from ray.data.datasource import FilenameProvider

    class _ShardNames(FilenameProvider):
        def get_filename_for_block(self, block, write_uuid, task_index,
                                   block_index):
            return f"epoch-{task_index:05d}-{block_index:04d}.parquet"

    # mode="overwrite" lets the deterministic (uuid-free) names through —
    # identical-name re-writes replacing files is exactly the resume
    # semantics wanted here
    packed.write_parquet(out_dir, filename_provider=_ShardNames(),
                         mode="overwrite")
    out = rd.read_parquet(out_dir, columns=["n_tokens"])
    n_rows = out.count()
    n_tokens_packed = int(out.sum("n_tokens") or 0)
    return {"n_docs_in": int(n_in), "n_docs_excluded": int(n_excluded),
            "seq_len": seq_len, "seed": seed,
            "n_rows_packed": int(n_rows),
            "n_tokens_packed": n_tokens_packed,
            "wall_sec": round(time.time() - t0, 3), "out": out_dir}
