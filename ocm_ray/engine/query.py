"""Point-query evaluation: broadcast sketch × query Dataset.

The reference's query driver (``main.cpp:92-133``) streams query rows
against one loaded sketch. Distributed restatement: the sketch is placed
in the object store ONCE (``ray.put``), every query task reads it
zero-copy, and estimation is a vectorized task-mode ``map_batches`` — a
broadcast join, no shuffle (SURVEY §2.4 "Joins/lookups").
"""

from __future__ import annotations

import functools
from typing import Optional

import pyarrow as pa
from ray.data import Dataset

from ocm_ray.engine.build import map_batches_with
from ocm_ray.engine.tokens import items_from_batch
from ocm_ray.sketches.base import MergeableSketch


def _estimate(batch: pa.Table, sketch: MergeableSketch, item_col: str,
              out_col: str, kgram: int) -> pa.Table:
    est = sketch.estimate(items_from_batch(batch, item_col, kgram))
    return batch.append_column(out_col, pa.array(est, type=pa.int64()))


def attach_estimates(queries: Dataset, sketch: MergeableSketch,
                     item_col: str = "token", out_col: str = "estimated_count",
                     kgram: int = 1, concurrency: Optional[int] = None) -> Dataset:
    """Append ``out_col`` point estimates to a query Dataset.

    The sketch rides the object store once; each worker process reads
    it zero-copy (``engine.build.map_batches_with``)."""
    est = functools.partial(_estimate, sketch=sketch, item_col=item_col,
                            out_col=out_col, kgram=kgram)
    return map_batches_with(queries, est, batch_format="pyarrow",
                            concurrency=concurrency)
