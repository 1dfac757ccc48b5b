"""Flagship pipeline: the reference's `count` + `query` flow, end to end.

One call builds the offline conservative count-min over a sequences
corpus (multi-round, distributed, checkpointed) and evaluates point
queries against exact ground truth — the programmatic equivalent of
``script.sh:5-6`` (`ocm count -c ... && ocm query ...`) re-expressed on
Ray Data. Used by ``__ray_entry__.entry()`` and importable as a library
recipe.
"""

from __future__ import annotations

import glob
import os
from typing import Optional

import numpy as np
import pandas as pd


def count_and_query(seq_dir: str, np_bits: int = 20, nh: int = 7,
                    rounds: int = 4, conservative: bool = True,
                    seedseed: int = 137, top_n_queries: int = 1000,
                    checkpoint_dir: Optional[str] = None,
                    parallelism: Optional[int] = None,
                    validate_input: bool = False,
                    data_seed: int = 42) -> pd.DataFrame:
    """Build the flagship sketch over ``seq_dir`` and return the query
    table ``(token, true_count, estimated_count)`` for the ``top_n``
    hottest tokens, with the one-sided invariant asserted
    (``output/analysis.py:7-9`` semantics). ``validate_input=True`` first
    runs the per-row token-array-equality stage against the regenerated
    reference input (north-rule invariant)."""
    from ocm_ray.engine.checkpoint import RoundCheckpointer
    from ocm_ray.engine.rounds import build_ocm
    from ocm_ray.ops.relational import exact_token_counts_sharded

    if validate_input:
        from ocm_ray.data.sequences import validate_sequences

        validate_sequences(seq_dir, seed=data_seed)

    files = sorted(glob.glob(os.path.join(seq_dir, "*.parquet")))
    hook = RoundCheckpointer(checkpoint_dir) if checkpoint_dir else None
    sk = build_ocm(np_bits=np_bits, nh=nh, seedseed=seedseed, rounds=rounds,
                   conservative=conservative, files=files,
                   parallelism=parallelism, on_round_end=hook)
    # top-n in grouped_topk's collation: count desc, then token asc
    truth = (exact_token_counts_sharded(files)
             .sort_by([("cnt", "descending"), ("token", "ascending")])
             .slice(0, top_n_queries).to_pandas()
             .rename(columns={"cnt": "true_count"}))
    truth["estimated_count"] = sk.estimate(
        truth["token"].to_numpy().astype(np.uint64))
    bad = truth["estimated_count"] < truth["true_count"]
    assert not bad.any(), f"one-sided CM invariant violated on {bad.sum()} rows"
    return truth


def accuracy_report(query_df: pd.DataFrame) -> dict:
    """The reference's analysis metrics (``output/analysis.py``):
    underestimates (must be 0), exact fraction, RMSE, mean overestimate,
    Spearman rank correlation."""
    t = query_df["true_count"].to_numpy(dtype=np.float64)
    e = query_df["estimated_count"].to_numpy(dtype=np.float64)
    rt = pd.Series(t).rank().to_numpy()
    re_ = pd.Series(e).rank().to_numpy()
    denom = (np.std(rt) * np.std(re_)) or 1.0
    return {
        "n": len(t),
        "underestimates": int((e < t).sum()),
        "exact_frac": float((e == t).mean()),
        "rmse": float(np.sqrt(((e - t) ** 2).mean())),
        "mean_overestimate": float((e - t).mean()),
        "spearman": float(np.mean((rt - rt.mean()) * (re_ - re_.mean())) / denom),
    }
