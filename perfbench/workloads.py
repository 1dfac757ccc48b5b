"""The workloads: operations, their oracle checks and traced forms.

Every workload is a closed loop with one client: the next operation
starts only after the previous one returns. One *cycle* runs each of the
workload's operations once, in order.

Each :class:`Op` has an untraced ``run()`` (the public library call), a
``traced(sl, root)`` form that makes the same call with the engine's
tasks swapped for the traced stand-ins of ``replay.py``, and a full
oracle ``check``. The first result of every operation gets the full
check; later results of a deterministic operation must have the same
digest, and only fall back to the full check when they do not.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional

import numpy as np
import pyarrow as pa
import ray

from perfbench import corpus as C
from perfbench import oracles as O
from perfbench.replay import ScanReplay, ShardReplay
from perfbench.tracing import SpanList, new_id, patched

QUERY_KEYS = 500_000
QUERY_BLOCKS = 8


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    traced: Callable[[SpanList, str], object]
    check: Callable[[object], List[str]]
    tokens: int = 0          # corpus tokens the operation reads
    keys: int = 0            # point queries it answers
    deterministic: bool = True
    timed: bool = True       # repeated in the untraced timed cycles


@dataclass
class Traced:
    """What one traced operation left behind besides its result."""
    shards: List[dict] = field(default_factory=list)   # per-task stats
    extra: Dict[str, float] = field(default_factory=dict)


def _now() -> int:
    return time.monotonic_ns()


def _merge_bytes(n_parts: int, part_bytes: int, fanin: int = 8) -> int:
    """Bytes the fan-in tree moves: every partial into its merge task at
    each level, plus the final sketch to the driver."""
    moved, n = 0, n_parts
    while n > 1:
        moved += n * part_bytes
        n = -(-n // fanin)
    return moved + part_bytes


class Workload:
    name = ""
    corpus_kind = ""
    uses_data = False
    ck = None                # RoundCheckpointer, where the workload has one

    def __init__(self, corpus: C.Corpus, seed: int, work_dir: str, cores: int):
        self.corpus = corpus
        self.files = corpus.files
        self.seed = seed
        self.work_dir = work_dir
        self.cores = cores
        self.last: Dict[str, object] = {}
        self.trace_info: List[Traced] = []

    # subclasses fill these
    def prepare(self) -> None:
        raise NotImplementedError

    def ops(self) -> List[Op]:
        raise NotImplementedError

    def accuracy(self) -> float:
        """``cm_overcount_rmse`` of the workload's accuracy-tracked CM."""
        raise NotImplementedError

    def main_sketch(self):
        """The CM the serialization and point-query probes use."""
        raise NotImplementedError

    def parallel_eff(self) -> float:
        """Scaling from 1 shard to ``cores`` shards; 0 when not measured."""
        return 0.0

    # ---- shared traced drivers -------------------------------------------
    def _traced_merge(self, sl: SpanList, root: str):
        from ocm_ray.engine import build

        real = build.tree_merge

        def merge(refs, fanin=8):
            # shards first (their spans cover this wait), then the merge
            ray.wait(list(refs), num_returns=len(refs), fetch_local=False)
            with sl.span("merge", root):
                return real(refs, fanin)
        return merge

    def _collect(self, rep, sl: SpanList) -> Traced:
        """Fetch the stand-ins' spans and stats into ``sl`` and a new
        :class:`Traced`, with the merge-tree bytes when the tasks return
        partial sketches."""
        info = Traced()
        for got in ray.get(rep.infos):
            sl.spans.extend(got["spans"])
            info.shards.append(got["stats"])
        if "partial_bytes" in info.shards[0]:
            part = max(s["partial_bytes"] for s in info.shards)
            info.extra["partial.bytes"] = part
            info.extra["merge.bytes_moved"] = _merge_bytes(len(info.shards), part)
        self.trace_info.append(info)
        return info

    def traced_sharded(self, sl: SpanList, root: str, factory, kgram: int = 1):
        from ocm_ray.engine import build

        rep = ShardReplay(sl.op, root)
        with patched(build, "_build_file_shard", rep), \
                patched(build, "tree_merge", self._traced_merge(sl, root)):
            out = build.build_sketch_sharded(self.files, factory, kgram=kgram)
        self._collect(rep, sl)
        return out

    def sharded_op(self, name: str, factory, check, kgram: int = 1) -> Op:
        from ocm_ray.engine.build import build_sketch_sharded

        return Op(name,
                  run=lambda: build_sketch_sharded(self.files, factory, kgram=kgram),
                  traced=lambda sl, root: self.traced_sharded(sl, root, factory, kgram),
                  check=check, tokens=self.corpus.tokens)


def _cm(np_bits, nh, conservative=False, dtype="int64"):
    from ocm_ray.sketches import CountMin

    return partial(CountMin, np_bits, nh, conservative=conservative,
                   counter_dtype=dtype)


def _hll(p=14):
    from ocm_ray.sketches import HyperLogLog

    return partial(HyperLogLog, p)


class ZipfSharded(Workload):
    """Single-pass sharded builds over the bounded-Zipf corpus: the wide
    flagship CM (2^20x7, int32 partials), HLL(14), a narrow conservative
    CM (2^12x5) whose collisions make accuracy measurable, and the vanilla
    CM of that geometry, which must equal the reference exactly."""
    name = "zipf_sharded"
    corpus_kind = "zipf"

    def prepare(self):
        self.oracle = C.files_token_oracle(self.files)
        self.ref = O.CMReference(self.oracle)

    def ops(self):
        cm = lambda r: O.check_cm(r, self.ref)  # noqa: E731
        return [
            self.sharded_op("cm_wide", _cm(20, 7, True, "int32"), cm),
            self.sharded_op("hll", _hll(14),
                            lambda r: O.check_hll(r, self.oracle.distinct)),
            self.sharded_op("cm_narrow", _cm(12, 5, True, "int32"), cm),
            self.sharded_op("cm_vanilla", _cm(12, 5),
                            lambda r: O.check_cm(r, self.ref, vanilla_exact=True)),
        ]

    def accuracy(self):
        return O.rmse(self.last["cm_narrow"], self.oracle)

    def main_sketch(self):
        return self.last["cm_wide"]

    def parallel_eff(self) -> float:
        """tokens/s at shards = cores over cores x tokens/s at shards = 1,
        for the wide CM build."""
        from ocm_ray.engine.build import build_sketch_sharded

        def wall(shards):
            t0 = time.monotonic()
            build_sketch_sharded(self.files, _cm(20, 7, True, "int32"), shards=shards)
            return time.monotonic() - t0
        return wall(1) / (self.cores * wall(self.cores))


class KgramSkew(Workload):
    """k=3 conservative CM (2^20x7, int32 partials) over the skewed
    corpus: gram hashing and the sort-based combiner path, with one
    oversized part file making one static shard the straggler."""
    name = "kgram_skew"
    corpus_kind = "skew"

    def prepare(self):
        flat, lens = C.raw_tokens(self.files)
        self.oracle = C.kgram_oracle(flat, lens, 3)
        self.ref = O.CMReference(self.oracle)

    def ops(self):
        return [self.sharded_op("cm_kgram", _cm(16, 7, True, "int32"),
                                lambda r: O.check_cm(r, self.ref), kgram=3)]

    def accuracy(self):
        return O.rmse(self.last["cm_kgram"], self.oracle)

    def main_sketch(self):
        return self.last["cm_kgram"]


class OccmQuery(Workload):
    """4-round OCCM build with a checkpoint every round, a resume from
    the round-1 checkpoint, and point queries through attach_estimates."""
    name = "occm_query"
    corpus_kind = "zipf_large"
    uses_data = True
    GEOMETRY = dict(np_bits=12, nh=5, rounds=4, conservative=True)

    def prepare(self):
        import ray.data as rd

        from ocm_ray.engine.checkpoint import RoundCheckpointer

        self.oracle = C.files_token_oracle(self.files)
        self.ref = O.CMReference(self.oracle)
        self.ck = RoundCheckpointer(os.path.join(self.work_dir, "occm-ckpt"),
                                    {**self.GEOMETRY, "corpus": self.corpus.dir})
        rng = np.random.default_rng([self.seed, 7])
        self.keys = rng.integers(0, C.VOCAB, QUERY_KEYS, dtype=np.int64)
        self.sorted_keys = np.sort(self.keys)
        per = QUERY_KEYS // QUERY_BLOCKS
        self.key_ds = rd.from_arrow([pa.table({"token": self.keys[i:i + per]})
                                     for i in range(0, QUERY_KEYS, per)])

    def _build(self, resume_from=None, hook=None, metrics: Optional[dict] = None):
        from ocm_ray.engine.rounds import build_ocm

        return build_ocm(files=self.files, partial_counter_dtype="int32",
                         on_round_end=hook or self.ck, resume_from=resume_from,
                         metrics=metrics, **self.GEOMETRY)

    def _traced_build(self, sl: SpanList, root: str, resume: bool):
        from ocm_ray.engine import build

        scan_id = new_id("d")
        rep = ScanReplay(sl.op, scan_id)
        hooks, metrics = [], {}

        def hook(r, sk):
            t0 = _now()
            self.ck(r, sk)
            hooks.append((t0, _now()))

        resume_from = None
        if resume:
            with sl.span("ckpt.load", root):
                resume_from = (1, self.ck.load(1))
        t_start = _now()
        with patched(build, "shard_token_counts", rep):
            out = self._build(resume_from, hook, metrics)
        walls = [int(w * 1e9) for w in metrics["pass_walls"]]
        sl.add("occm.scan", root, t_start, hooks[0][0] - walls[0], sid=scan_id)
        for (h0, h1), w in zip(hooks, walls):
            sl.add("occm.pass", root, h0 - w, h0)
            sl.add("ckpt.write", root, h0, h1)
        self._collect(rep, sl).extra.update({
            "occm.table_rows": metrics["table_rows"],
            "occm.count_tables": metrics["count_tables"],
            "occm.pass_s": sum(walls) / 1e9})
        return out

    def _query(self):
        from ocm_ray.engine.query import attach_estimates

        toks, ests = [], []
        for b in attach_estimates(self.key_ds, self.last["occm_build"]) \
                .iter_batches(batch_format="pyarrow", batch_size=None):
            toks.append(b.column("token").to_numpy())
            ests.append(b.column("estimated_count").to_numpy())
        return np.concatenate(toks), np.concatenate(ests)

    def _traced_query(self, sl, root):
        with sl.span("query.pipeline", root):
            return self._query()

    def _check_query(self, r):
        toks, ests = r
        if not np.array_equal(np.sort(toks), self.sorted_keys):
            return ["query output keys differ from the key Dataset"]
        return O.check_query(ests, toks, self.last["occm_build"])

    def _check_resume(self, r):
        fails = O.check_cm(r, self.ref)
        if not O.same_state(r, self.last["occm_build"]):
            fails.append("resumed OCCM differs from the full build")
        return fails

    def ops(self):
        n = self.corpus.tokens
        build = Op("occm_build", self._build,
                   lambda sl, root: self._traced_build(sl, root, False),
                   lambda r: O.check_cm(r, self.ref), tokens=n)
        resume = Op("occm_resume", lambda: self._build((1, self.ck.load(1))),
                    lambda sl, root: self._traced_build(sl, root, True),
                    self._check_resume, tokens=n)
        # the query's Ray Data actor pool starts and stops worker processes
        # around it, which made the build after it slower at random; the
        # untraced run queries (and checks the answers) in its warm-up
        # cycle only
        query = Op("query", self._query, self._traced_query, self._check_query,
                   keys=QUERY_KEYS, deterministic=False, timed=False)
        return [build, resume, query]

    def accuracy(self):
        return O.rmse(self.last["occm_build"], self.oracle)

    def main_sketch(self):
        return self.last["occm_build"]


WORKLOADS = {w.name: w for w in (ZipfSharded, OccmQuery, KgramSkew)}
