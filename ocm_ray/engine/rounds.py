"""Multi-round (offline) OCM / OCCM orchestration over Ray Data.

The offline algorithm (SURVEY §2.2) requires n full re-scans of the
corpus — exactly what a Parquet-backed Dataset is good at and a true
stream cannot do. Per round r (``main.cpp:35-62`` non-conservative,
``:63-90`` conservative-effective):

    non-conservative (OCM):
        r>0: COLLISION pass — every partition marks suspect cells against
             the broadcast frozen previous-round (core, collision);
             partials merge by cell-wise max.
        zero core; COUNT pass — masked scatter-add conditioned on the
             broadcast frozen collision table; partials merge by sum.
             Bit-exact at any parallelism (conformance-tested).
    conservative (OCCM):
        zero core; one fused COUNT+COLLISION pass per partition against
        the broadcast frozen collision table; merge core=sum,
        collision=max. Order-dependent → sandwiched
        (true ≤ est ≤ vanilla-CM), tested.

One pass engine over one scan. The corpus is scanned ONCE by
``build.count_tables`` — the package's one exact-count scan — into
(token, count) tables cached in the object store: per file shard with
``files=...`` (the throughput path), per Dataset block with
``dataset_factory=...``. Every pass of every round folds those cached
tables (grouped ≤8 pass tasks); the reference's 2n−1 re-reads disappear
entirely. The only cross-round state is the broadcast sketch arrays
(``ray.put`` once per pass, read zero-copy by every task). With a
``RoundCheckpointer`` hook the file-shard tables are checkpointed too,
so a resumed build skips the scan as well.
"""

from __future__ import annotations

from typing import Callable, Optional

import ray
from ray.data import Dataset

from ocm_ray.engine.build import (count_tables, merge_counts, merge_sketches,
                                  tree_reduce)
from ocm_ray.engine.checkpoint import RoundCheckpointer, _fingerprint
from ocm_ray.sketches.countmin import OfflineCountMin


@ray.remote(num_cpus=1)
def _count_table_len(tbl) -> int:
    return len(tbl[0])


def _merge_collision(a: OfflineCountMin, b: OfflineCountMin) -> OfflineCountMin:
    return a.ensure_writable().merge_collision(b)


@ray.remote(num_cpus=1)
def _round_pass_counts(shard_counts, np_bits: int, nh: int, seedseed: int,
                       conservative: bool, mode: str, round_no: int,
                       total_round: int, frozen_core, frozen_coll,
                       counter_dtype: str = "int64"):
    """One round pass over a shard's cached (unique, count) table.

    The corpus is scanned ONCE (``build.count_tables``); every pass of
    every round then operates on the shard's exact grouped multiset —
    bit-identical for the order-free OCM passes (masked scatter-add /
    frozen-read marking are functions of the multiset), and equal to the
    documented grouped-conservative semantics for the fused OCCM pass
    (each shard's occurrences processed token-grouped). This removes the
    reference's 2n-1 re-reads entirely.
    """
    # refs nested inside a list are NOT auto-resolved by Ray — fetch them
    # (zero-copy from the shared store; the tables were put once)
    shard_counts = ray.get(list(shard_counts))
    sk = OfflineCountMin(np_bits, nh, seedseed, conservative=conservative,
                         counter_dtype=counter_dtype)
    if frozen_coll is not None:
        sk.collision[:] = frozen_coll
    # shard_counts is a LIST of (uniq, cnt) tables: pass parallelism is
    # decoupled from scan parallelism — fewer, fatter pass tasks mean
    # fewer sketch-sized partials through the per-round merge
    for uniq, cnt in shard_counts:
        if mode == "collision":
            sk.update_collision(uniq, round_no, counts=cnt,
                                frozen_core=frozen_core,
                                frozen_collision=frozen_coll)
        elif mode == "count":
            sk.update_count(uniq, counts=cnt, frozen_collision=frozen_coll)
        elif mode == "paper_sweep":
            sk.update_count_collision(uniq, round_no, 0, counts=cnt)
        else:
            sk.update_count_collision(uniq, round_no, total_round, counts=cnt)
    return sk


def _scan(dataset_factory, files, column: str, kgram: int,
          n_shards: Optional[int], collapse_threshold: int):
    """Single corpus scan (``build.count_tables``) → cached exact count
    tables (every pass reads these, not the source), plus the plan
    summary ``build_ocm`` reports and the scan checkpoint stores."""
    count_refs = count_tables(
        files, dataset_factory() if files is None else None, column, kgram,
        n_shards)
    # bounded-vocab collapse: token-id domains make every shard's table
    # cover nearly the whole vocabulary, so 2n passes would each pay P
    # sketch-sized partials + a 100s-of-MB tree merge to re-aggregate
    # the SAME few-MB multiset. Fold the tables into ONE global
    # (unique, count) table worker-side and run each pass as a single
    # task with no merge. Skipped for unbounded domains (k-grams /
    # hashes): there the global table is corpus-sized and the sharded
    # path stands.
    sizes = ray.get([_count_table_len.remote(r) for r in count_refs])
    collapsed = sum(sizes) <= collapse_threshold
    if collapsed:
        count_refs = [tree_reduce(count_refs, merge_counts)]
    return count_refs, {"plan": "collapse" if collapsed else "sharded",
                        "count_tables": len(count_refs),
                        "table_rows": int(sum(sizes))}


def build_ocm(dataset_factory: Optional[Callable[[], Dataset]] = None,
              np_bits: int = 20,
              nh: int = 7, seedseed: int = 137, rounds: int = 4,
              conservative: bool = True, column: str = "tokens",
              kgram: int = 1, parallelism: Optional[int] = None,
              on_round_end: Optional[Callable] = None,
              resume_from: Optional[tuple] = None,
              files: Optional[list] = None,
              partial_counter_dtype: str = "int64",
              paper_collision_pass: bool = False,
              collapse_threshold: int = 1 << 22,
              metrics: Optional[dict] = None) -> OfflineCountMin:
    """n-round offline count-min over a Dataset or Parquet files.

    The corpus is scanned once: ``files`` into ``parallelism``
    size-balanced file shards (``build.plan_shards``; default: the
    cluster's CPU count; ``parallelism`` sizes only this scan), or else
    ``dataset_factory()`` — called once — into one count table per
    block. ``on_round_end(round, sketch)`` is the checkpoint hook (see
    engine.checkpoint.RoundCheckpointer).

    Scan checkpoint: with ``files=`` and a ``RoundCheckpointer`` hook,
    the count tables the passes read (after any collapse) are saved
    next to the round files — one small Ray task per table, overlapping
    round 0's pass, all finished before the first round file is
    written. A resume (``resume_from``) whose scan key matches — input
    fingerprint, ``column``, ``kgram``, resolved scan parallelism,
    ``collapse_threshold`` — loads them and reads no Parquet; the
    passes see the same tables, so the result is byte-identical. Any
    other build scans the source (and, with the hook, rewrites the
    saved scan). The ``dataset_factory`` path saves nothing.

    NOTE on ``collapse_threshold`` (ADVICE r3 #3): the bounded-vocab
    collapse changes the GROUPING the conservative/OCCM update sees —
    one global multiset vs per-shard count tables — and grouped
    conservative updates are grouping-dependent, so the same corpus can
    yield different (both valid) sketch bytes on either side of the
    threshold. Every variant keeps the one-sided sandwich
    ``true <= est <= vanilla-CM est`` (pinned by
    ``tests/test_round4.py::test_occm_collapse_vs_sharded_sandwich``);
    non-conservative OCM passes are pure multiset functions and stay
    bit-exact across the two paths. The gate is the SUM of per-shard
    table lengths (a cheap upper bound of the global distinct count):
    crossing it only ever switches between these two valid groupings.

    ``metrics`` (VERDICT r4 #2): pass a dict to receive build
    attribution — ``scan`` (what the count tables came from: "files",
    "dataset" or "checkpoint"), ``plan`` ("collapse" | "sharded"),
    ``count_tables`` (tables per pass after any collapse),
    ``table_rows`` (summed per-shard table lengths), and
    ``pass_walls`` (wall seconds per pass, in execution order) — so a
    bench artifact can attribute an anomalous occm_build number to plan
    selection vs a degraded window in one read.
    """
    import time as _time

    glob = OfflineCountMin(np_bits, nh, seedseed, conservative=conservative)
    start_round = 0
    if resume_from is not None:
        # (last_completed_round, its checkpointed sketch) — e.g. from
        # RoundCheckpointer.last_completed()/load()
        last, ckpt = resume_from
        glob = ckpt.ensure_writable()
        start_round = last + 1
        if start_round >= rounds:   # finished run: nothing to scan
            return glob

    # a RoundCheckpointer hook also checkpoints the scan of a files= build
    # (the dataset_factory= path has no input fingerprint to key it by)
    ck = key = saved = n_scan = saves = None
    if files is not None:
        n_scan = parallelism or int(ray.cluster_resources().get("CPU", 8))
        if isinstance(on_round_end, RoundCheckpointer):
            ck = on_round_end
            key = {"files": _fingerprint(files), "column": column,
                   "kgram": kgram, "parallelism": n_scan,
                   "collapse_threshold": collapse_threshold}
            if resume_from is not None:
                saved = ck.load_scan(key)
    if saved is not None:
        scan, count_refs = saved
        source = "checkpoint"
    else:
        count_refs, scan = _scan(dataset_factory, files, column, kgram,
                                 n_scan, collapse_threshold)
        source = "files" if files is not None else "dataset"
        if ck is not None:
            # the table saves overlap round 0's pass; the manifest lands
            # before the first round file, so every round on disk has
            # its scan
            saves = ck.save_scan(count_refs)
    if metrics is not None:
        metrics.update(scan=source, plan=scan["plan"],
                       count_tables=scan["count_tables"],
                       table_rows=scan["table_rows"])

    def commit_scan():
        nonlocal saves
        if saves is not None:
            ck.commit_scan(saves, {**scan, "key": key})
            saves = None

    def run_pass(mode: str, r: int, frozen_core, frozen_coll):
        t0 = _time.perf_counter()
        core_ref = ray.put(frozen_core) if frozen_core is not None else None
        coll_ref = ray.put(frozen_coll)
        # ≤8 pass tasks regardless of scan width: each folds several
        # cached count tables before emitting one partial sketch
        fan = max(1, (len(count_refs) + 7) // 8)
        refs = [_round_pass_counts.remote(count_refs[i:i + fan], np_bits, nh,
                                          seedseed, conservative, mode, r,
                                          rounds, core_ref, coll_ref,
                                          partial_counter_dtype)
                for i in range(0, len(count_refs), fan)]
        combine = _merge_collision if mode == "collision" else merge_sketches
        merged = ray.get(tree_reduce(refs, combine)).ensure_writable()
        if metrics is not None:
            metrics.setdefault("pass_walls", []).append(
                round(_time.perf_counter() - t0, 3))
        return merged

    for r in range(start_round, rounds):
        if not conservative and r > 0:
            merged = run_pass("collision", r, glob.core.copy(), glob.collision.copy())
            glob.collision = merged.collision
        if conservative and paper_collision_pass and r > 0:
            # The reference's CODED conservative schedule runs an extra
            # pre-pass per round (2n−1 total passes, main.cpp:68-86) that
            # is algorithmically a no-op (SURVEY §2.1 row 20): its
            # collision writes are suppressed by total_round=0 and its
            # core writes die in clear_core(). Exposed for conformance
            # demonstration; default off saves a corpus pass per round.
            merged = run_pass("paper_sweep", r, None, glob.collision.copy())
            glob.collision = merged.collision  # provably unchanged
        glob.clear_core()
        mode = "fused" if conservative else "count"
        merged = run_pass(mode, r, None, glob.collision.copy())
        glob.core = merged.core.astype(glob.core.dtype, copy=False)
        glob.n_items = merged.n_items
        if conservative:
            glob.collision = merged.collision
        commit_scan()
        if on_round_end is not None:
            on_round_end(r, glob)
    commit_scan()
    return glob
