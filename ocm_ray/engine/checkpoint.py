"""Checkpointed, resumable sketch builds with per-partition lineage.

North-rule requirement: "per-partition lineage metadata and checkpointed
partial sketches enabling resume from any failed stage".

Design (deterministic, idempotent):
  * the input is split into SHARDS = groups of whole Parquet files
    by ``build.plan_shards`` (files are the reference's unit of
    determinism — a shard's content is a pure function of its file
    list, unlike streaming splits);
  * each stale shard runs the sharded build's own shard task
    (``build._build_file_shard``: fused Parquet read + ``CountCombiner``),
    then a small save task writes its partial ATOMICALLY (tmp + rename)
    to ``{dir}/partial-{shard:05d}.sk`` next to a lineage JSON recording
    the shard id, its files, their input fingerprint and their row count
    (from the Parquet footers);
  * resume = skip shards whose partial exists AND whose input
    fingerprint matches; only missing/stale shards re-run;
  * the shard partials tree-merge in shard-id order and the merged
    sketch is written last (``merged.sk``) with the run manifest.

Same shard plan (``build.plan_shards``; one file per shard by
default), same shard task, same merge order:
at equal shard counts the merged sketch is byte-identical to
``build_sketch_sharded``'s for every sketch kind, resumed or not.

Retry safety: shard tasks are deterministic functions of (files,
factory params) ⇒ Ray task retries and job-level resume produce
identical partials (the reference restarts multi-round builds from zero
on any failure — SURVEY §4.1).

Multi-round builds (``RoundCheckpointer``, the ``on_round_end`` hook of
``rounds.build_ocm``) persist two stages: the merged sketch after every
round (``round-{r:02d}.sk``) and the corpus scan the passes read — the
exact (unique, count) tables after the bounded-vocab collapse, one
``scan-{i:05d}.npz`` per table plus a ``scan.json`` manifest written
before the first round file. A resume from round r loads those tables
instead of re-reading the Parquet input. The manifest keys the scan by
the input fingerprint (absolute path, size, mtime_ns of every file),
``column``, ``kgram``, the resolved scan parallelism and
``collapse_threshold``: any change there, a missing manifest or a
missing table file makes the resume rescan and rewrite the scan.
"""

from __future__ import annotations

import io
import json
import os
from typing import List, Optional

import numpy as np
import pyarrow.parquet as pq
import ray

from ocm_ray.engine import build
from ocm_ray.sketches.base import MergeableSketch


def _fingerprint(files: List[str]) -> str:
    # full path + size + mtime_ns: basename+size alone would let a
    # same-size regenerated shard (fixed-width columns) or a different
    # corpus with coincident part-NNNNN names silently reuse a stale
    # partial
    parts = []
    for f in sorted(files):
        st = os.stat(f)
        parts.append(f"{os.path.abspath(f)}:{st.st_size}:{st.st_mtime_ns}")
    return ";".join(parts)


def _atomic_write(path: str, data: bytes) -> None:
    with open(path + ".tmp", "wb") as fh:
        fh.write(data)
    os.replace(path + ".tmp", path)


@ray.remote
def _save_partial(sk: MergeableSketch, path: str, lineage: dict) -> None:
    _atomic_write(path, sk.to_bytes())
    lpath = os.path.join(os.path.dirname(path),
                         f"lineage-{lineage['shard_id']:05d}.json")
    _atomic_write(lpath, json.dumps(lineage).encode())


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _read_json(path: str):
    with open(path) as fh:
        return json.load(fh)


@ray.remote
def _load_partial(path: str) -> MergeableSketch:
    return MergeableSketch.from_bytes(_read_bytes(path))


@ray.remote
def _save_counts(tbl, path: str) -> None:
    buf = io.BytesIO()
    np.savez(buf, uniq=tbl[0], cnt=tbl[1])
    _atomic_write(path, buf.getvalue())


@ray.remote
def _load_counts(path: str):
    with np.load(path, allow_pickle=False) as z:
        return z["uniq"], z["cnt"]


def build_sketch_checkpointed(files: List[str], factory, ckpt_dir: str,
                              column: str = "tokens", kgram: int = 1,
                              shards: Optional[int] = None,
                              resume: bool = True) -> MergeableSketch:
    """Build a sketch over Parquet files with per-shard checkpoints.

    Returns the merged sketch; on a rerun only missing/stale shards are
    recomputed (kill-and-resume integration-tested). A final-weight
    sketch (cws, pmh) raises ``ValueError`` unless the plan has one shard.
    """
    os.makedirs(ckpt_dir, exist_ok=True)
    files = sorted(files)
    groups = build.plan_shards(files, shards or len(files), column)
    build.check_one_partial(factory, len(groups), "shards=1")

    refs, saves, resumed = [], [], 0
    for sid, grp in enumerate(groups):
        ppath = os.path.join(ckpt_dir, f"partial-{sid:05d}.sk")
        lpath = os.path.join(ckpt_dir, f"lineage-{sid:05d}.json")
        fp = _fingerprint(grp)
        fresh = False
        if resume and os.path.exists(ppath) and os.path.exists(lpath):
            try:
                fresh = _read_json(lpath).get("fingerprint") == fp
            except (json.JSONDecodeError, OSError):
                pass
        if fresh:
            refs.append(_load_partial.remote(ppath))
            resumed += 1
            continue
        # batch_size = build_sketch_sharded's default: same task, same bytes
        ref = build._build_file_shard.remote(grp, factory, column, kgram,
                                             65536)
        lineage = {
            "shard_id": sid,
            "files": [os.path.basename(f) for f in grp],
            "fingerprint": fp,
            "rows": sum(pq.read_metadata(f).num_rows for f in grp),
        }
        saves.append(_save_partial.remote(ref, ppath, lineage))
        refs.append(ref)

    merged = build.tree_merge(refs)
    ray.get(saves)
    _atomic_write(os.path.join(ckpt_dir, "merged.sk"), merged.to_bytes())
    manifest = {
        "n_shards": len(groups),
        "resumed_shards": resumed,
        "built_shards": len(groups) - resumed,
        "files": [os.path.basename(f) for f in files],
        "column": column,
        "kgram": kgram,
    }
    _atomic_write(os.path.join(ckpt_dir, "manifest.json"),
                  json.dumps(manifest, indent=1).encode())
    return merged


class RoundCheckpointer:
    """``on_round_end`` hook for ``build_ocm``: persists the merged sketch
    after every round so a killed multi-round build resumes at the last
    completed round instead of round 0 (vs reference restart-from-zero).

    With ``files=``, ``build_ocm`` also saves its corpus scan here (the
    count tables every pass reads, see the module docstring) before the
    first round file, and a resume loads them instead of re-reading the
    Parquet input; a fresh build (no ``resume_from``) always rescans.

    ``params`` (any JSON-serializable dict of the run's identity — sketch
    geometry, seed, column, kgram, input fingerprint) guards resume:
    round and scan files written under DIFFERENT params are stale — they
    are discarded on construction rather than silently resumed into a run
    they don't belong to. ``rounds`` itself should NOT be in ``params``:
    round r of a multi-round build is independent of the total round
    count, so a longer rerun legitimately extends a shorter one.
    """

    def __init__(self, ckpt_dir: str, params: Optional[dict] = None):
        self.dir = ckpt_dir
        os.makedirs(ckpt_dir, exist_ok=True)
        ppath = os.path.join(ckpt_dir, "params.json")
        if params is not None:
            stale = False
            if os.path.exists(ppath):
                try:
                    stale = _read_json(ppath) != params
                except (json.JSONDecodeError, OSError):
                    stale = True
            if stale:
                self._drop_scan()
                for f in os.listdir(ckpt_dir):
                    if f.startswith("round-") and f.endswith(".sk"):
                        os.remove(os.path.join(ckpt_dir, f))
            _atomic_write(ppath, json.dumps(params, sort_keys=True).encode())

    def __call__(self, round_no: int, sketch) -> None:
        _atomic_write(os.path.join(self.dir, f"round-{round_no:02d}.sk"),
                      sketch.to_bytes())

    def last_completed(self) -> int:
        rounds = [int(f.split("-")[1].split(".")[0])
                  for f in os.listdir(self.dir)
                  if f.startswith("round-") and f.endswith(".sk")]
        return max(rounds) if rounds else -1

    def load(self, round_no: int):
        p = os.path.join(self.dir, f"round-{round_no:02d}.sk")
        return MergeableSketch.from_bytes(_read_bytes(p))

    # ---- the corpus scan (build_ocm's count tables) ----------------------
    def _scan_path(self, i: int) -> str:
        return os.path.join(self.dir, f"scan-{i:05d}.npz")

    def _drop_scan(self) -> None:
        # the manifest goes first: a crash midway leaves tables without a
        # manifest (ignored), never a manifest naming stale tables
        manifest = os.path.join(self.dir, "scan.json")
        if os.path.exists(manifest):
            os.remove(manifest)
        for f in os.listdir(self.dir):
            if f.startswith("scan-") and f.endswith(".npz"):
                os.remove(os.path.join(self.dir, f))

    def load_scan(self, key: dict):
        """``(manifest, table refs)`` of a scan saved under ``key`` whose
        table files are all on disk, else None. The tables load in Ray
        tasks; the driver never fetches them."""
        try:
            meta = _read_json(os.path.join(self.dir, "scan.json"))
        except (json.JSONDecodeError, OSError):
            return None
        paths = [self._scan_path(i) for i in range(meta.get("n", 0))]
        if meta.get("key") != key or not all(map(os.path.exists, paths)):
            return None
        return meta, [_load_counts.remote(p) for p in paths]

    def save_scan(self, count_refs: list) -> list:
        """Drop any saved scan and start one save task per table; pass the
        returned refs to :meth:`commit_scan`."""
        self._drop_scan()
        return [_save_counts.remote(ref, self._scan_path(i))
                for i, ref in enumerate(count_refs)]

    def commit_scan(self, saves: list, meta: dict) -> None:
        """Wait for the table saves, then write the manifest."""
        ray.get(saves)
        _atomic_write(os.path.join(self.dir, "scan.json"),
                      json.dumps({**meta, "n": len(saves)}).encode())
