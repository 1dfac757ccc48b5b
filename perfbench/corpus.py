"""Seeded corpora and their exact oracle tables.

Each corpus is a pure function of ``(kind, seed)``. It is written with the
library's own generator, ``ocm_ray.data.sequences.generate_file``, one Ray
task per part file, into ``<checkout>/.perfbench/corpus/<kind>-s<seed>/``,
and kept there for later runs with the same seed. A ``manifest.json``
written last marks a finished corpus and records its token, file and byte
counts.

The oracle tables are computed here from the raw Parquet columns with
pyarrow and numpy only (``bincount``, ``unique``) and never through the
library's extraction, combiner or sketch code. K-gram item ids use an
independent transcription of the reference's shift-add Wang hash.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from dataclasses import dataclass
from typing import List

import numpy as np
import pyarrow.parquet as pq

VOCAB = 50257
KEEP = 24  # finished corpora kept in the cache; older ones are deleted


@dataclass(frozen=True)
class CorpusSpec:
    """``files`` part files of ``docs`` documents each; ``big_docs`` adds
    one more part file of that many documents (the straggler shard)."""
    kind: str
    files: int
    docs: int
    hot_source_skew: bool = False
    big_docs: int = 0


SPECS = {
    # zipf_sharded: ~15.8M tokens
    "zipf": CorpusSpec("zipf", files=16, docs=1400),
    # occm_query: the same distribution, 4x the docs (~63M tokens), so the
    # one corpus scan outweighs the short serial round passes
    "zipf_large": CorpusSpec("zipf_large", files=16, docs=5600),
    # k-gram corpus: web docs 4x longer, plus one part file with 4x docs
    "skew": CorpusSpec("skew", files=8, docs=60, hot_source_skew=True,
                       big_docs=240),
}


def generator_seed(kind: str, seed: int) -> int:
    """The generator seed of one corpus: distinct per (kind, seed)."""
    ss = np.random.SeedSequence([int(seed), sorted(SPECS).index(kind)])
    return int(ss.generate_state(1, dtype=np.uint32)[0])


@dataclass
class Corpus:
    kind: str
    seed: int
    dir: str
    files: List[str]
    tokens: int
    bytes: int
    generated: bool = False
    gen_s: float = 0.0


def _part_plan(spec: CorpusSpec):
    """[(file_index, n_docs, start_idx)] for every part file."""
    plan, start = [], 0
    sizes = [spec.docs] * spec.files + ([spec.big_docs] if spec.big_docs else [])
    for i, n in enumerate(sizes):
        plan.append((i, n, start))
        start += n
    return plan


def write_parts(spec: CorpusSpec, seed: int, d: str, run_all=None) -> List[str]:
    """Write every part file of ``spec`` for ``seed`` into a fresh ``d``.
    ``run_all(calls)`` runs ``generate_file(**call)`` for every call, in
    any order; by default they run one after another here."""
    from ocm_ray.data.sequences import generate_file

    shutil.rmtree(d, ignore_errors=True)
    os.makedirs(d)
    gseed = generator_seed(spec.kind, seed)
    calls = [dict(path=os.path.join(d, f"part-{i:05d}.parquet"), n_docs=n,
                  start_idx=start, seed=gseed, file_index=i,
                  hot_source_skew=spec.hot_source_skew)
             for i, n, start in _part_plan(spec)]
    if run_all is None:
        for c in calls:
            generate_file(**c)
    else:
        run_all(calls)
    return [c["path"] for c in calls]


def _evict(cache_root: str, keep_dir: str) -> None:
    done = []
    for name in os.listdir(cache_root):
        d = os.path.join(cache_root, name)
        m = os.path.join(d, "manifest.json")
        if d != keep_dir and os.path.exists(m):
            done.append((os.path.getmtime(m), d))
    for _, d in sorted(done)[:max(0, len(done) - (KEEP - 1))]:
        shutil.rmtree(d, ignore_errors=True)


def ensure_corpus(kind: str, seed: int, cache_root: str) -> Corpus:
    """Load the cached corpus, or generate it with one Ray task per part
    file (Ray must be initialised). Generation time is returned, never
    counted as set-up."""
    import ray

    from ocm_ray.data.sequences import generate_file

    spec = SPECS[kind]
    d = os.path.join(cache_root, f"{kind}-s{seed}")
    manifest = os.path.join(d, "manifest.json")
    generated, gen_s = False, 0.0
    if not os.path.exists(manifest) or _cached_spec(manifest) != spec.__dict__:
        t0 = time.monotonic()
        task = ray.remote(num_cpus=1)(generate_file)
        files = write_parts(spec, seed, d, lambda calls: ray.get(
            [task.remote(**c) for c in calls]))
        gseed = generator_seed(kind, seed)
        file_tokens = {os.path.basename(f): _file_tokens(f) for f in files}
        with open(manifest + ".tmp", "w") as fh:
            json.dump({"kind": kind, "seed": seed, "generator_seed": gseed,
                       "spec": spec.__dict__, "files": len(files),
                       "tokens": sum(file_tokens.values()),
                       "bytes": sum(os.path.getsize(f) for f in files),
                       "file_tokens": file_tokens}, fh, indent=1)
        os.replace(manifest + ".tmp", manifest)
        generated, gen_s = True, time.monotonic() - t0
        _evict(cache_root, d)
    else:
        os.utime(manifest)
    with open(manifest) as fh:
        m = json.load(fh)
    files = [os.path.join(d, f) for f in sorted(m["file_tokens"])]
    return Corpus(kind, seed, d, files, int(m["tokens"]), int(m["bytes"]),
                  generated, gen_s)


def _cached_spec(manifest: str) -> dict:
    with open(manifest) as fh:
        return json.load(fh)["spec"]


def _file_tokens(path: str) -> int:
    return int(pq.read_table(path, columns=["n_tok"]).column("n_tok")
               .to_numpy().astype(np.int64).sum())


# ---- raw columns -----------------------------------------------------------

def _raw_file(path: str):
    col = pq.read_table(path, columns=["tokens"]).column("tokens").combine_chunks()
    off = col.offsets.to_numpy().astype(np.int64)
    return col.values.to_numpy().astype(np.int64)[off[0]:off[-1]], np.diff(off)


def raw_tokens(files: List[str]):
    """(flat token ids int64, row lengths int64) straight from the Parquet
    ``tokens`` list column."""
    parts = [_raw_file(f) for f in files]
    return (np.concatenate([flat for flat, _ in parts]),
            np.concatenate([lens for _, lens in parts]))


# ---- independent hashing ---------------------------------------------------

def wang_shift_add(key: np.ndarray) -> np.ndarray:
    """Thomas Wang's 64-bit mix in its original shift-add form."""
    k = np.asarray(key).astype(np.uint64, copy=True)
    u = np.uint64
    with np.errstate(over="ignore"):
        k = (~k) + (k << u(21))
        k = k ^ (k >> u(24))
        k = (k + (k << u(3))) + (k << u(8))
        k = k ^ (k >> u(14))
        k = (k + (k << u(2))) + (k << u(4))
        k = k ^ (k >> u(28))
        k = k + (k << u(31))
    return k


# ---- oracle tables ---------------------------------------------------------

@dataclass
class Oracle:
    """Exact multiset of the items a sketch sees: ``items`` (uint64 ids as
    the sketch hashes them) with their exact ``counts``. ``items`` covers
    every vocabulary id (zero counts included) for token sketches and
    every distinct gram for k-gram sketches."""
    items: np.ndarray
    counts: np.ndarray

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def distinct(self) -> int:
        return int(np.count_nonzero(self.counts))


def token_oracle(flat: np.ndarray) -> Oracle:
    counts = np.bincount(flat, minlength=VOCAB).astype(np.int64)
    return Oracle(np.arange(len(counts), dtype=np.uint64), counts)


def files_token_oracle(files: List[str]) -> Oracle:
    """:func:`token_oracle` of ``files``, one file's column at a time."""
    counts = np.zeros(VOCAB, dtype=np.int64)
    for f in files:
        counts += np.bincount(_raw_file(f)[0], minlength=VOCAB)
    return Oracle(np.arange(VOCAB, dtype=np.uint64), counts)


def kgram_oracle(flat: np.ndarray, lens: np.ndarray, k: int) -> Oracle:
    """Exact counts of within-row k-token windows (numpy ``unique`` over
    base-VOCAB window codes), keyed by the chained Wang hash the engine
    applies to a window."""
    n = len(flat)
    row = np.repeat(np.arange(len(lens)), lens)
    valid = row[: n - k + 1] == row[k - 1:]
    code = np.zeros(n - k + 1, dtype=np.int64)
    for j in range(k):
        code = code * VOCAB + flat[j: n - k + 1 + j]
    grams, counts = np.unique(code[valid], return_counts=True)
    digits = [(grams // VOCAB ** (k - 1 - j)) % VOCAB for j in range(k)]
    h = wang_shift_add(digits[0])
    for j in range(1, k):
        h = wang_shift_add(h ^ digits[j].astype(np.uint64))
    return Oracle(h, counts.astype(np.int64))
