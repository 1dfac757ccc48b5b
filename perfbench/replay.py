"""Traced stand-ins for the engine's Ray tasks.

Each stand-in runs the same public calls, in the same order and with the
same resources, as the engine task it replaces, with a span around each
layer call. It returns the engine task's result as its first object and
``{"spans", "stats"}`` as its second (``num_returns=2``). The ``*Replay``
classes expose the ``.remote(...)`` signature of the engine task, so a
traced operation swaps them into the engine module for its duration and
then drives the unmodified public entry point:

* ``build._build_file_shard``  -> :func:`file_shard` (``ShardReplay``)
* ``build.shard_token_counts`` -> :func:`token_counts` (``ScanReplay``)
"""

from __future__ import annotations

import os
from typing import List

import numpy as np
import pyarrow as pa
import ray

from perfbench.tracing import SpanList


def _spans(op: str) -> SpanList:
    return SpanList(op, prefix=f"w{os.getpid()}.")


def _table_rows(comb) -> int:
    if comb.uniq is not None:
        return int(len(comb.uniq))
    return int(np.count_nonzero(comb.dense)) if comb.dense is not None else 0


def _traced_batches(sl: SpanList, parent: str, files: List[str], column: str,
                    batch_size: int):
    """``pq.ParquetFile(f).iter_batches(...)`` → ``pa.Table`` per batch,
    with the open and every batch fetch inside a ``read`` span."""
    import pyarrow.parquet as pq

    for f in files:
        with sl.span("read", parent):
            it = pq.ParquetFile(f).iter_batches(batch_size=batch_size,
                                                 columns=[column])
        while True:
            with sl.span("read", parent):
                rb = next(it, None)
                t = None if rb is None else pa.Table.from_batches([rb])
            if t is None:
                break
            yield t


def _combine(sl: SpanList, sid: str, comb, batches, column: str, kgram: int,
             stats: dict) -> None:
    from ocm_ray.engine.tokens import items_from_batch

    for t in batches:
        with sl.span("extract", sid):
            items = items_from_batch(t, column, kgram)
        stats["items"] += len(items)
        with sl.span("combine", sid) as cid:
            stats["_cur"] = cid
            comb.add(items)


@ray.remote(num_cpus=1)
def file_shard(files, factory, column, kgram, batch_size, op, parent):
    from ocm_ray.sketches.base import CountCombiner

    sl = _spans(op)
    stats = {"items": 0, "flushes": 0, "table_rows": 0, "_cur": None}
    with sl.span("shard", parent) as sid:
        sk = factory()
        real_update = sk.update

        def update(items, counts=None):
            with sl.span("update", stats["_cur"]):
                real_update(items, counts)

        sk.update = update
        comb = CountCombiner(sk)
        real_flush = comb.flush

        def flush():
            stats["flushes"] += 1
            real_flush()

        comb.flush = flush
        _combine(sl, sid, comb, _traced_batches(sl, sid, files, column, batch_size),
                 column, kgram, stats)
        stats["table_rows"] = _table_rows(comb)
        with sl.span("combine", sid) as cid:
            stats["_cur"] = cid
            comb.finish()
        stats["flushes"] -= 1  # finish() always flushes once
        del sk.update
    stats.pop("_cur")
    stats["partial_bytes"] = int(sk.nbytes)
    return sk, {"spans": sl.spans, "stats": stats}


@ray.remote(num_cpus=1)
def token_counts(files, column, kgram, batch_size, op, parent):
    from ocm_ray.sketches.base import CountCombiner

    sl = _spans(op)
    stats = {"items": 0, "flushes": 0, "table_rows": 0, "_cur": None}
    with sl.span("shard", parent) as sid:
        comb = CountCombiner(None, flush_limit=1 << 62)
        _combine(sl, sid, comb, _traced_batches(sl, sid, files, column, batch_size),
                 column, kgram, stats)
        stats["table_rows"] = _table_rows(comb)
        with sl.span("combine", sid):
            out = comb.drain_counts()
    stats.pop("_cur")
    return out, {"spans": sl.spans, "stats": stats}


@ray.remote(num_cpus=1)
def warm_worker() -> int:
    """Import the engine and these stand-ins in a worker process."""
    import pyarrow.parquet  # noqa: F401

    import ocm_ray.engine.build  # noqa: F401
    import ocm_ray.engine.query  # noqa: F401
    import ocm_ray.engine.rounds  # noqa: F401
    return os.getpid()


class _Replay:
    def __init__(self, op: str, parent: str):
        self.op, self.parent = op, parent
        self.infos: List = []   # refs of each task's {"spans", "stats"}

    def _call(self, task, *args):
        out_ref, info_ref = task.options(num_returns=2).remote(
            *args, self.op, self.parent)
        self.infos.append(info_ref)
        return out_ref


class ShardReplay(_Replay):
    """``.remote`` of ``build._build_file_shard``."""

    def remote(self, files, factory, column, kgram, batch_size,
               metrics_dir=None, shard_id=0):
        return self._call(file_shard, files, factory, column, kgram, batch_size)


class ScanReplay(_Replay):
    """``.remote`` of ``build.shard_token_counts``."""

    def remote(self, files, column, kgram, batch_size=65536):
        return self._call(token_counts, files, column, kgram, batch_size)
