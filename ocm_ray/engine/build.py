"""Distributed sketch building over ``ray.data.Dataset``.

Three build paths, all producing ONE merged sketch from a token source:

1. ``build_sketch_sharded`` (throughput path) — deterministic file shards;
   each task fuses pyarrow row-batch reads with its in-shard
   ``CountCombiner`` accumulation, so tokens never cross a process
   boundary and there is no central coordinator (the streaming_split
   SplitCoordinator caps at ~11M tokens/s regardless of CPUs; this path
   measures 50–200M tokens/s). Shards are the same unit the checkpointed
   builder persists.

2. ``build_sketch`` — ``Dataset.streaming_split(P)`` feeds P accumulator
   tasks (the pure-Dataset mode for inputs that aren't parquet files);
   each task owns one partial sketch (state once per worker, not per
   batch).

3. ``SketchAggregate`` — an ``AggregateFnV2`` UDAF so sketches compose
   with the native Dataset API: ``ds.aggregate(SketchAggregate(...))`` and
   per-key ``ds.groupby("source").aggregate(...)`` (per-source sketches).

All partials — MBs each, independent of input size — tree-merge with
fan-in 8; no token shuffle ever happens (partial+merge is salted
pre-aggregation by construction, SURVEY §4.2). The paths are
correctness-equivalent; order-free sketches (vanilla CM, HLL, Bloom,
bottom-k, OCM passes) are bit-identical between them and across any
parallelism (property-tested).
"""

from __future__ import annotations

from typing import Callable, List, Optional

import numpy as np
import pyarrow as pa
import ray
from ray.data import Dataset
from ray.data.aggregate import AggregateFnV2

from ocm_ray.engine.tokens import items_from_batch
from ocm_ray.sketches.base import MergeableSketch

SketchFactory = Callable[[], MergeableSketch]


def _default_parallelism() -> int:
    """Consumers get HALF the CPUs (one full CPU each); the other half
    drives the read/decode tasks. Empirically (70M-token corpus, 32-CPU
    node): P=ncpus/2 @ 1 CPU beats P=ncpus @ 0.5 CPU by ~3x — more
    concurrent big-sketch updaters thrash cache/memory bandwidth."""
    n = int(ray.cluster_resources().get("CPU", 8))
    return max(2, n // 2)


# ncpus/2 accumulators (see _default_parallelism) declared at HALF a CPU
# each (rule-1 shape): a full-CPU reservation per consumer lets any stray
# fractional actor (e.g. a 0.5-CPU map pool still draining from an earlier
# pipeline) wedge the whole split — p consumers + 0.5 stray > ncpus−1 and
# the read task never schedules. At 0.5 the consumers fit alongside the
# capped read budget (_cap_split_pipeline_cpus) with slack; the perf note
# about full-CPU consumers was about POOL WIDTH (P=ncpus/2 beats P=ncpus),
# which is unchanged.
@ray.remote(num_cpus=0.5)
def _consume_split(it, factory: SketchFactory, column: str, kgram: int):
    sk = factory()
    for batch in it.iter_batches(batch_format="pyarrow", batch_size=None,
                                 prefetch_batches=2):
        sk.update(items_from_batch(batch, column, kgram))
    return sk


@ray.remote
def _merge_task(*sketches: MergeableSketch) -> MergeableSketch:
    acc = sketches[0].ensure_writable()
    for s in sketches[1:]:
        acc.merge(s)
    return acc


def tree_merge(refs: List[ray.ObjectRef], fanin: int = 8) -> MergeableSketch:
    """Reduce partial-sketch object refs with a fan-in-8 task tree —
    log_8(P) rounds; each round moves only sketch-sized objects."""
    refs = list(refs)
    while len(refs) > 1:
        refs = [_merge_task.remote(*refs[i:i + fanin])
                for i in range(0, len(refs), fanin)]
    return ray.get(refs[0]).ensure_writable()


def _cap_consumers(p: int) -> int:
    """Never let 1-CPU consumers occupy every slot — at least a quarter of
    the CPUs (min 1) must stay free for the read operator, or the pipeline
    deadlocks (consumers wait on reads that can never schedule)."""
    n = int(ray.cluster_resources().get("CPU", 8))
    return max(1, min(p, n - max(1, n // 4)))


class _cap_split_pipeline_cpus:
    """Context manager: cap the split pipeline's OWN CPU budget at
    ``ncpus − ceil(P/2)`` (the P consumers reserve 0.5 CPU each) for
    the duration of the build, then restore.

    The consumer tasks are raw Ray tasks the Dataset executor knows
    nothing about: if its read tasks grab every CPU first, they pause
    on output backpressure WITHOUT releasing their CPUs (streaming
    generators stay RUNNING while paused), the consumers can never
    schedule, and the pipeline deadlocks silently (CLAUDE.md rule 1 —
    the race fired in a 4-CPU test session). ``ds.context`` is
    per-dataset but persists across re-executions of the SAME dataset
    object, so the limit is restored on exit rather than left behind."""

    def __init__(self, ds: Dataset, p: int):
        from ray.data import ExecutionResources

        n = int(ray.cluster_resources().get("CPU", 8))
        self._opts = ds.context.execution_options
        self._old = self._opts.resource_limits
        # minus one extra CPU of MARGIN: with exactly n - ceil(P/2) the
        # read budget + P*0.5 consumer reservations sum to n for even P,
        # and one lingering 0.5-CPU map-pool actor (rule 1's documented
        # failure mode) re-creates the wedge this cap exists to prevent
        self._opts.resource_limits = ExecutionResources.for_limits(
            cpu=max(1, n - (p + 1) // 2 - 1))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._opts.resource_limits = self._old
        return False


def build_sketch(ds: Dataset, factory: SketchFactory, column: str = "tokens",
                 parallelism: Optional[int] = None, kgram: int = 1) -> MergeableSketch:
    """Stream the Dataset through P accumulator tasks → tree-merged sketch."""
    p = _cap_consumers(parallelism or _default_parallelism())
    with _cap_split_pipeline_cpus(ds, p):
        splits = ds.streaming_split(p, equal=False)
        refs = [_consume_split.remote(it, factory, column, kgram)
                for it in splits]
        return tree_merge(refs)  # blocks until the stream is drained


@ray.remote(num_cpus=1)
def _build_file_shard(files: List[str], factory: SketchFactory, column: str,
                      kgram: int, batch_size: int,
                      metrics_dir: Optional[str] = None,
                      shard_id: int = 0) -> MergeableSketch:
    import json
    import os
    import time

    import pyarrow.parquet as pq

    from ocm_ray.sketches.base import CountCombiner

    t0 = time.monotonic()
    comb = CountCombiner(factory())
    rows = 0
    for f in files:
        pf = pq.ParquetFile(f)
        for rb in pf.iter_batches(batch_size=batch_size, columns=[column]):
            t = pa.Table.from_batches([rb])
            comb.add(items_from_batch(t, column, kgram))
            rows += t.num_rows
    sk = comb.finish()
    if metrics_dir:
        m = {"shard_id": shard_id, "files": [os.path.basename(f) for f in files],
             "rows": rows, "items": getattr(sk, "total_items", None),
             "wall_sec": round(time.monotonic() - t0, 4)}
        p = os.path.join(metrics_dir, f"shard-{shard_id:05d}.json")
        with open(p + ".tmp", "w") as fh:
            json.dump(m, fh)
        os.replace(p + ".tmp", p)
    return sk


@ray.remote(num_cpus=1)
def shard_token_counts(files: List[str], column: str, kgram: int,
                       batch_size: int = 65536):
    """Exact (unique, count) table of one file shard — the cacheable
    pre-aggregate the multi-round driver reuses across passes."""
    import pyarrow.parquet as pq

    from ocm_ray.sketches.base import CountCombiner

    comb = CountCombiner(None, flush_limit=1 << 62)  # pure counting, no sketch
    for f in files:
        for rb in pq.ParquetFile(f).iter_batches(batch_size=batch_size,
                                                 columns=[column]):
            comb.add(items_from_batch(pa.Table.from_batches([rb]), column, kgram))
    return comb.drain_counts()


def build_sketch_sharded(files: List[str], factory: SketchFactory,
                         column: str = "tokens", shards: Optional[int] = None,
                         kgram: int = 1, batch_size: int = 65536,
                         metrics_dir: Optional[str] = None) -> MergeableSketch:
    """Fused read+accumulate over file shards — the throughput path.

    Each task streams its own Parquet files through pyarrow row-batch
    iteration directly into its sketch: no object-store round trip, no
    central split coordinator (which caps the streaming_split path at
    ~11M tokens/s regardless of CPU count — measured 5-6x slower than
    this). Shards are deterministic round-robin file groups, the same
    unit the checkpointed builder persists, so results are bit-identical
    to every other build path for order-free sketches.

    Partial-counter dtype note: pass a factory with
    ``counter_dtype='int32'`` when every shard's counts fit int32 —
    halving the scatter working set roughly doubles throughput under
    memory-bandwidth contention; merge into int64 where totals demand it.
    A conservative update that would push an int32 cell past 2^31-1
    raises ``OverflowError`` rather than wrapping.
    """
    files = sorted(files)
    n = int(ray.cluster_resources().get("CPU", 8))
    # shard tasks do their own IO — no separate read operator to starve —
    # but each holds a multi-MB partial sketch, and concurrent big-sketch
    # scatters are memory-bandwidth-bound: ncpus/2 shards beats ncpus by
    # ~25% on the flagship CM build (166M vs 133M tok/s at 32 CPUs, 28 MB
    # partials). Halve ONLY past 8 CPUs: at narrow widths the idle cores
    # cost more than the bandwidth relief (a blanket n//2 at 8 CPUs ran 4
    # tasks on 8 cores and halved the measured scaling efficiency).
    # Callers with tiny sketches can pass shards=n.
    default = n if n <= 8 else max(8, n // 2)
    p = max(1, min(shards or default, len(files)))
    groups = [files[i::p] for i in range(p)]
    if metrics_dir:
        import os

        os.makedirs(metrics_dir, exist_ok=True)
    refs = [_build_file_shard.remote(g, factory, column, kgram, batch_size,
                                     metrics_dir, i)
            for i, g in enumerate(groups)]
    return tree_merge(refs)


class SketchAggregate(AggregateFnV2):
    """Mergeable-sketch UDAF for the native aggregate/groupby API.

    ``ds.aggregate(SketchAggregate(factory, on="tokens"))`` →
    ``{name: serialized sketch bytes}``;
    ``ds.groupby("source").aggregate(...)`` → one sketch row per key.
    Finalized value is ``to_bytes()`` (self-describing; restore with
    ``MergeableSketch.from_bytes``).
    """

    def __init__(self, factory: SketchFactory, on: str = "tokens",
                 name: Optional[str] = None, kgram: int = 1):
        self._factory = factory
        self._kgram = kgram
        super().__init__(name or f"sketch({on})", zero_factory=factory,
                         on=on, ignore_nulls=True)

    def aggregate_block(self, block) -> MergeableSketch:
        # V2 contract: produce a fresh partial per block; `combine` merges.
        if not isinstance(block, pa.Table):
            block = pa.Table.from_pandas(block)
        sk = self._factory()
        sk.update(items_from_batch(block, self.get_target_column(), self._kgram))
        return sk

    def combine(self, a: MergeableSketch, b: MergeableSketch) -> MergeableSketch:
        return a.ensure_writable().merge(b)

    def finalize(self, accumulator: MergeableSketch) -> bytes:
        return accumulator.to_bytes()


def grouped_sketches(ds: Dataset, key: str, factory: SketchFactory,
                     column: str = "tokens", kgram: int = 1,
                     n_shards: int = 16) -> dict:
    """One merged sketch per value of ``key`` (e.g. per ``source``).

    Per-batch partial sketches per key inside ``map_batches`` (one row
    per key per block — classic salted pre-aggregation, so the exchange
    moves sketch states, never tokens), merged per key through the
    raw-task ``ops.pairs.shard_scan`` keyed by key hash (Ray's
    groupby/map_groups AllToAll costs a fixed ~200 MB of driver RSS even
    on an 896-row state table, plus ~5x the shuffled bytes — CLAUDE.md
    rule 3b). Every key lands wholly in one shard, so the scan output is
    exactly one row per key; the driver folds only that keys-sized
    table."""
    def _key_runs(keys_np: np.ndarray):
        """One stable sort → (order, run starts, run lengths): every
        distinct key becomes one contiguous slice. Linear in rows +
        sort, independent of key cardinality (the per-key
        ``Table.filter`` this replaces re-scanned the whole batch per
        distinct key — quadratic-ish at 10k+ keys, VERDICT r3 #6)."""
        order = np.argsort(keys_np, kind="stable")
        ks = keys_np[order]
        run = np.concatenate([[True], ks[1:] != ks[:-1]]) if len(ks) \
            else np.empty(0, bool)
        starts = np.flatnonzero(run)
        lens = np.diff(np.concatenate([starts, [len(ks)]]))
        return order, ks, starts, lens

    def partials(batch: pa.Table):
        if batch.num_rows == 0:     # may arrive schema-less (rule 8b)
            return pa.table({})
        out_keys, out_states = [], []
        kcol = batch.column(key)
        if kcol.null_count:
            # a None inside the key array breaks the argsort run scan
            # (strings) or silently NaN-casts (ints) — fail loud
            raise ValueError(
                f"grouped_sketches: key column {key!r} has "
                f"{kcol.null_count} null value(s); fill or drop them "
                "upstream")
        keys_np = kcol.to_numpy(zero_copy_only=False)
        order, ks, starts, lens = _key_runs(keys_np)
        sorted_tbl = batch.take(pa.array(order))
        for s, n in zip(starts, lens):
            sk = factory()
            sk.update(items_from_batch(sorted_tbl.slice(int(s), int(n)),
                                       column, kgram))
            out_keys.append(ks[s])
            out_states.append(sk.to_bytes())
        return pa.table({key: pa.array(out_keys,
                                       type=batch.schema.field(key).type),
                         "state": pa.array(out_states, type=pa.binary())})

    from ocm_ray.ops.pairs import key_shard_fn, shard_scan

    # canonical key-hash shard fn (pairs.key_shard_fn needs a power of
    # two, so round the requested count up — extra shards only add
    # near-empty scan tasks, never change the merged result)
    ns_pow2 = 1 << max(0, int(n_shards - 1).bit_length())
    shard_of = key_shard_fn(key, ns_pow2)
    n_shards = ns_pow2

    def merge_shard(tbl: pa.Table) -> pa.Table:
        keys_np = tbl.column(key).to_numpy(zero_copy_only=False)
        states = tbl.column("state").to_pylist()
        order, ks, starts, lens = _key_runs(keys_np)
        out_k, out_s = [], []
        for s, n in zip(starts, lens):
            idx = order[s:s + n]
            acc = MergeableSketch.from_bytes(states[idx[0]]).ensure_writable()
            for i in idx[1:]:
                acc.merge(MergeableSketch.from_bytes(states[i]))
            out_k.append(ks[s])
            out_s.append(acc.to_bytes())
        return pa.table({key: pa.array(out_k,
                                       type=tbl.schema.field(key).type),
                         "state": pa.array(out_s, type=pa.binary())})

    merged = shard_scan(ds.map_batches(partials, batch_format="pyarrow"),
                        shard_of, merge_shard, n_shards)
    rows = merged.take_all()
    return {r[key]: MergeableSketch.from_bytes(r["state"]) for r in rows}
