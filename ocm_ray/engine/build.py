"""Distributed sketch building over ``ray.data.Dataset``.

Three entry points, all producing ONE merged sketch from a token source:

1. ``build_sketch_sharded`` (throughput path) — whole Parquet files
   bin-packed into size-balanced shards by :func:`plan_shards`; each
   task fuses pyarrow row-batch reads with its in-shard
   ``CountCombiner`` accumulation, so tokens never cross a process
   boundary. ``engine.checkpoint.build_sketch_checkpointed`` runs the
   same shard task over the same shard plan and persists each partial,
   so the two are byte-identical at equal shard counts.

2. ``build_sketch`` — any Dataset: its block refs stream out of the
   executor and fold round-robin into P lanes of raw tasks (block j
   into lane j % P), one partial sketch per lane.

3. ``SketchAggregate`` — an ``AggregateFnV2`` UDAF so sketches compose
   with the native Dataset API: ``ds.aggregate(SketchAggregate(...))`` and
   per-key ``ds.groupby("source").aggregate(...)`` (per-source sketches).

All partials — MBs each, independent of input size — merge through
:func:`tree_reduce`, the one fan-in-8 task tree every sketch and
count-table merge in the package uses; no token shuffle ever happens
(partial+merge is salted pre-aggregation by construction, SURVEY §4.2).
The paths are correctness-equivalent; order-free sketches (vanilla CM,
HLL, Bloom, bottom-k, OCM passes) are bit-identical between them and
across any parallelism (property-tested).

Exact token counts have one scan, :func:`count_tables` (a sorted
(unique, count) table per file shard or Dataset block, folded by
``tree_reduce(tables, merge_counts)``): ``rounds.build_ocm``, the
``ops.relational`` exact counts and the flagship truth table read it.
"""

from __future__ import annotations

import functools
from typing import Callable, List, Optional

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray
from ray.data import Dataset
from ray.data.aggregate import AggregateFnV2

from ocm_ray.engine.tokens import items_from_batch, token_ids
from ocm_ray.ops.pairs import _as_arrow, iter_block_refs
from ocm_ray.sketches.base import (CountCombiner, MergeableSketch,
                                   merge_sorted_counts)

SketchFactory = Callable[[], MergeableSketch]


@ray.remote
def _reduce_task(combine, *parts):
    acc = parts[0]
    for p in parts[1:]:
        acc = combine(acc, p)
    return acc


def tree_reduce(refs: List[ray.ObjectRef], combine,
                fanin: int = 8) -> ray.ObjectRef:
    """Fold object refs with a fan-in task tree — log_fanin(n) rounds of
    ``combine(a, b)`` folds, worker-side; returns the root's ref (the
    driver fetches only what it needs). ``combine`` must be associative;
    each task folds its group left to right, so the result is a fixed
    function of the order of ``refs`` (one or more)."""
    refs = list(refs)
    while len(refs) > 1:
        refs = [_reduce_task.remote(combine, *refs[i:i + fanin])
                for i in range(0, len(refs), fanin)]
    return refs[0]


# (ref hex, state) last fetched by this worker process: one slot, cleared
# before a fetch, so a worker pins at most one stale zero-copy state. It
# must live in a package module — one in __main__ is pickled by value into
# every task.
_state_slot: tuple = (None, None)


def _call_state(batch, state_ref: ray.ObjectRef):
    global _state_slot
    key = state_ref.hex()
    if _state_slot[0] != key:
        _state_slot = (None, None)
        _state_slot = (key, ray.get(state_ref))
    return _state_slot[1](batch)


def map_batches_with(ds: Dataset, state, **map_kw) -> Dataset:
    """Task-mode ``ds.map_batches(state, **map_kw)`` for a stateful
    picklable ``batch -> batch`` callable (a sketch estimator, encoder
    weights, a BPE merge table): ``state`` rides the object store once
    and each worker process fetches it once, until a stage with another
    state runs there. Tasks hold no CPU between batches, so the stage
    cannot starve the upstream read the way an actor pool can."""
    ref = ray.put(state)
    return ds.map_batches(functools.partial(_call_state, state_ref=ref),
                          **map_kw)


def check_one_partial(factory: SketchFactory, n_partials: int,
                      fix: str) -> None:
    """Raise ``ValueError`` when ``n_partials`` > 1 partials of a
    final-weight sketch (``weight_additive=False``: cws, pmh) would
    merge. Each partial holds only its own share of an element's
    weight, so the merged sketch would be silently wrong; ``fix`` names
    the build's own way to keep one partial. A class or a
    ``functools.partial`` of one is read without building a sketch."""
    if n_partials < 2:
        return
    kind = factory
    while isinstance(kind, functools.partial):
        kind = kind.func
    if not isinstance(kind, type):
        kind = type(factory())
    if not kind.weight_additive:
        raise ValueError(
            f"{kind.__name__} takes FINAL weights "
            "(weight_additive=False): merging partial sketches would split "
            f"element weights across them. Use {fix}, or build it from "
            "pre-aggregated counts: sketch.update(items, counts) over one "
            "(element, total weight) table.")


def _merge_final_checked(a: MergeableSketch, b: MergeableSketch,
                         fix: str) -> MergeableSketch:
    """``a`` merged with ``b``, after :func:`check_one_partial`: only two
    partials that both hold updates split an element's weight."""
    if not a.weight_additive:
        zero = a.empty_like().to_bytes()
        check_one_partial(type(a), (a.to_bytes() != zero)
                          + (b.to_bytes() != zero), fix)
    return a.ensure_writable().merge(b)


def merge_sketches(a: MergeableSketch, b: MergeableSketch) -> MergeableSketch:
    return a.ensure_writable().merge(b)


def merge_counts(a, b):
    """Combine two sorted (unique, count) tables."""
    return merge_sorted_counts(*a, *b)


def tree_merge(refs: List[ray.ObjectRef], fanin: int = 8) -> MergeableSketch:
    """Merge partial-sketch refs through :func:`tree_reduce`; each round
    moves only sketch-sized objects."""
    return ray.get(tree_reduce(refs, merge_sketches, fanin)).ensure_writable()


@ray.remote(num_cpus=1)
def _fold_block(acc: Optional[MergeableSketch], block, factory: SketchFactory,
                column: str, kgram: int) -> MergeableSketch:
    sk = factory() if acc is None else acc.ensure_writable()
    block = _as_arrow(block)
    if block.num_rows:  # an empty block may be schema-less (rule 8b)
        sk.update(items_from_batch(block, column, kgram))
    return sk


def build_sketch(ds: Dataset, factory: SketchFactory, column: str = "tokens",
                 parallelism: Optional[int] = None, kgram: int = 1) -> MergeableSketch:
    """Fold the Dataset's blocks into P lanes of raw tasks → tree-merged
    sketch (P defaults to the cluster's CPU count).

    Block j folds into lane j % P as the executor emits it, so the read
    pipeline overlaps the folds and the driver holds only refs. The fold
    tasks depend only on blocks that already exist, so they can never
    starve the Dataset's own read tasks of CPUs (the wedge a consumer
    pool pulling from a running pipeline can hit, rule 1). A
    Dataset with no rows yields ``factory()``'s empty sketch. Blocks
    fold one update each, so a final-weight sketch (cws, pmh) raises
    ``ValueError`` once a second block arrives."""
    p = parallelism or int(ray.cluster_resources().get("CPU", 8))
    lanes: List[Optional[ray.ObjectRef]] = [None] * p
    for j, block in enumerate(iter_block_refs(ds)):
        if j == 1:
            check_one_partial(factory, 2, "a one-block Dataset, or "
                              "build_sketch_sharded(..., shards=1) on files")
        lanes[j % p] = _fold_block.remote(lanes[j % p], block, factory,
                                          column, kgram)
    refs = [r for r in lanes if r is not None]
    return tree_merge(refs) if refs else factory()


def _footer_weight(path: str, column: str) -> int:
    """Values stored for ``column`` in one Parquet file, summed over the
    column chunks of every row group (leaf values, so a list column
    counts its elements) — read from the footer alone."""
    md = pq.read_metadata(path)
    total = 0
    for i in range(md.num_row_groups):
        rg = md.row_group(i)
        for j in range(rg.num_columns):
            cc = rg.column(j)
            leaf = cc.path_in_schema
            if leaf == column or leaf.startswith(column + "."):
                total += cc.num_values
    return total


def plan_shards(files: List[str], p: int,
                column: str = "tokens") -> List[List[str]]:
    """Split whole Parquet files into ``p`` groups of near-equal work.

    Longest-processing-time bin packing: each file weighs its footer's
    ``column`` value count (:func:`_footer_weight`); files go in falling
    weight order (ties by path) into the least-loaded group (ties to the
    group with fewer files, then the lowest index). Files are sorted
    inside each group and groups are ordered by their first file. ``p``
    is clamped to ``[1, len(files)]``.

    The plan is a pure function of the sorted paths and their footers,
    so every build path that shards the same files the same way merges
    the same partials. With ``p == len(files)`` it is one file per group
    in path order."""
    files = sorted(files)
    p = max(1, min(p, len(files)))
    weights = {f: _footer_weight(f, column) for f in files}
    groups: List[List[str]] = [[] for _ in range(p)]
    loads = [0] * p
    for f in sorted(files, key=lambda f: -weights[f]):   # stable: path ties
        g = min(range(p), key=lambda i: (loads[i], len(groups[i]), i))
        groups[g].append(f)
        loads[g] += weights[f]
    return sorted((sorted(g) for g in groups), key=lambda g: g[:1])


def _file_token_ids(files: List[str], column: str, kgram: int,
                    batch_size: int):
    """:func:`~ocm_ray.engine.tokens.token_ids` of every Parquet row batch
    of ``files``, in file and batch order — the one read loop of the
    file-shard tasks."""
    for f in files:
        for rb in pq.ParquetFile(f).iter_batches(batch_size=batch_size,
                                                 columns=[column]):
            yield token_ids(rb, column, kgram)


@ray.remote(num_cpus=1)
def _build_file_shard(files: List[str], factory: SketchFactory, column: str,
                      kgram: int, batch_size: int) -> MergeableSketch:
    comb = CountCombiner(factory())
    for ids in _file_token_ids(files, column, kgram, batch_size):
        comb.add(ids)
    return comb.finish()


def _exact_counts(id_batches):
    comb = CountCombiner(None, flush_limit=1 << 62)  # pure counting, no sketch
    for ids in id_batches:
        comb.add(ids)
    return comb.drain_counts()


@ray.remote(num_cpus=1)
def shard_token_counts(files: List[str], column: str, kgram: int,
                       batch_size: int = 65536):
    """Exact (unique, count) table of one file shard — the cacheable
    pre-aggregate the multi-round driver reuses across passes."""
    return _exact_counts(_file_token_ids(files, column, kgram, batch_size))


@ray.remote(num_cpus=1)
def block_token_counts(block, column: str, kgram: int):
    """Exact (unique, count) table of one Dataset block."""
    block = _as_arrow(block)
    # an empty block may be schema-less (rule 8b)
    return _exact_counts([token_ids(block, column, kgram)]
                         if block.num_rows else [])


def count_tables(files: Optional[List[str]] = None,
                 ds: Optional[Dataset] = None, column: str = "tokens",
                 kgram: int = 1, parallelism: Optional[int] = None,
                 ) -> List[ray.ObjectRef]:
    """The corpus scanned into exact sorted (unique, count) table refs:
    one ``shard_token_counts`` per :func:`plan_shards` group of ``files``
    (``parallelism`` groups, default the CPU count), else one
    ``block_token_counts`` per block of ``ds`` (at least one table)."""
    if files is not None:
        p = parallelism or int(ray.cluster_resources().get("CPU", 8))
        # the module global, read per call: a traced stand-in may replace it
        return [shard_token_counts.remote(grp, column, kgram)
                for grp in plan_shards(files, p, column)]
    refs = [block_token_counts.remote(b, column, kgram)
            for b in iter_block_refs(ds)]
    return refs or [block_token_counts.remote(pa.table({}), column, kgram)]


def build_sketch_sharded(files: List[str], factory: SketchFactory,
                         column: str = "tokens", shards: Optional[int] = None,
                         kgram: int = 1, batch_size: int = 65536) -> MergeableSketch:
    """Fused read+accumulate over file shards — the throughput path.

    Each task streams its own Parquet files through pyarrow row-batch
    iteration directly into its sketch: no object-store round trip for
    tokens and no read operator. Shards are the size-balanced file
    groups of :func:`plan_shards`, the same unit the checkpointed build
    persists, so results are bit-identical to every other build path for
    order-free sketches.

    Partial-counter dtype note: pass a factory with
    ``counter_dtype='int32'`` when every shard's counts fit int32 —
    halving the scatter working set roughly doubles throughput under
    memory-bandwidth contention; merge into int64 where totals demand it.
    A conservative update that would push an int32 cell past 2^31-1
    raises ``OverflowError`` rather than wrapping. A final-weight sketch
    (cws, pmh) raises ``ValueError`` unless the plan has one shard.
    """
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
    plan = plan_shards(files, shards or default, column)
    check_one_partial(factory, len(plan), "shards=1")
    refs = [_build_file_shard.remote(grp, factory, column, kgram, batch_size)
            for grp in plan]
    return tree_merge(refs)


class SketchAggregate(AggregateFnV2):
    """Mergeable-sketch UDAF for the native aggregate/groupby API.

    ``ds.aggregate(SketchAggregate(factory, on="tokens"))`` →
    ``{name: serialized sketch bytes}``;
    ``ds.groupby("source").aggregate(...)`` → one sketch row per key.
    Finalized value is ``to_bytes()`` (self-describing; restore with
    ``MergeableSketch.from_bytes``). A final-weight sketch (cws, pmh)
    raises ``ValueError`` when two blocks of one aggregate or group both
    hold items.
    """

    def __init__(self, factory: SketchFactory, on: str = "tokens",
                 name: Optional[str] = None, kgram: int = 1):
        self._factory = factory
        self._kgram = kgram
        super().__init__(name or f"sketch({on})", zero_factory=factory,
                         on=on, ignore_nulls=True)

    def aggregate_block(self, block) -> MergeableSketch:
        # V2 contract: produce a fresh partial per block; `combine` merges.
        sk = self._factory()
        sk.update(items_from_batch(_as_arrow(block), self.get_target_column(),
                                   self._kgram))
        return sk

    def combine(self, a: MergeableSketch, b: MergeableSketch) -> MergeableSketch:
        return _merge_final_checked(a, b, "one block per aggregate or group")

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
    table. A final-weight sketch (cws, pmh) raises ``ValueError`` when
    two blocks hold items of one key."""
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
            acc = functools.reduce(
                lambda a, b: _merge_final_checked(a, b, "one block per key"),
                (MergeableSketch.from_bytes(states[i])
                 for i in order[s:s + n]))
            out_k.append(ks[s])
            out_s.append(acc.to_bytes())
        return pa.table({key: pa.array(out_k,
                                       type=tbl.schema.field(key).type),
                         "state": pa.array(out_s, type=pa.binary())})

    merged = shard_scan(ds.map_batches(partials, batch_format="pyarrow"),
                        shard_of, merge_shard, n_shards)
    rows = merged.take_all()
    return {r[key]: MergeableSketch.from_bytes(r["state"]) for r in rows}
