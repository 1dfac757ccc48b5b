"""Benchmark driver: one workload, one seed, one JSON result line.

Usage (from the root of a checkout that contains ``ocm_ray/``)::

    python3 perfbench/run.py --workload zipf_sharded --seed 1 --seconds 8 --trace 0

``--trace 0`` measures with no tracing and prints the end-to-end metrics;
``--trace 1`` alternates untraced and traced cycles and prints the
per-layer metrics. The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; progress goes to
standard error. Everything the run writes stays under
``<checkout>/.perfbench/``: the corpus cache, a record of the run, the
spans of a traced run and, when the path is short enough for Ray's
socket names, Ray's session directory. The exit code is 0 only when
every operation ran and passed its oracle check.
"""

from __future__ import annotations

import argparse
import faulthandler
import gc
import json
import os
import shutil
import signal
import statistics
import sys
import threading
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STATE = ROOT / ".perfbench"
SETUP_REPEATS = 3
WARM_S = 1.0              # untimed cycles after the warm-up cycle
OBJECT_STORE_BYTES = 768 << 20
DEADLINE_S = 170          # the run must end inside 180 s
RAY_TMP_MAX = 40          # longer temp paths overflow Ray's AF_UNIX socket names


def log(msg: str) -> None:
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def cores() -> int:
    return len(os.sched_getaffinity(0))


# ---- Ray session -----------------------------------------------------------

def _ray_tmp():
    """This run's own Ray temp dir, or None (Ray's default) when the path
    would be too long for Ray's socket names."""
    tmp = STATE / f"r{os.getpid()}"
    return str(tmp) if len(str(tmp)) <= RAY_TMP_MAX else None


def _descendants(root: int) -> list:
    """Every live descendant of ``root``, from /proc."""
    children = defaultdict(list)
    for d in os.listdir("/proc"):
        if d.isdigit():
            try:
                with open(f"/proc/{d}/stat") as fh:
                    ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
            except (OSError, IndexError, ValueError):
                continue
            children[ppid].append(int(d))
    out, stack = [], [root]
    while stack:
        for c in children[stack.pop()]:
            out.append(c)
            stack.append(c)
    return out


def _cleanup() -> None:
    shutil.rmtree(STATE / f"work-{os.getpid()}", ignore_errors=True)
    if _ray_tmp():
        shutil.rmtree(_ray_tmp(), ignore_errors=True)


def _watchdog(seconds: float) -> threading.Timer:
    """Stop Ray's processes and exit with code 3 if the run is still going
    after ``seconds`` (a wedged ``ray.get`` never returns to Python, so a
    signal handler would not run)."""
    def fire():
        log(f"run exceeded {seconds:.0f} s; stopping Ray and exiting")
        try:
            for pid in _descendants(os.getpid()):
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            _cleanup()
        finally:
            os._exit(3)
    t = threading.Timer(seconds, fire)
    t.daemon = True
    t.start()
    return t


def start_ray(ncpu: int) -> None:
    import logging

    import ray

    # idle workers are kept: otherwise the worker processes Ray kills after
    # an actor pool's query must be restarted, imports included, by the
    # next build, and that build's wall doubles at random
    ray.init(address="local", num_cpus=ncpu, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=OBJECT_STORE_BYTES, _temp_dir=_ray_tmp(),
             _system_config={"kill_idle_workers_interval_ms": 0})
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)


def warm(ncpu: int, files, uses_data: bool) -> None:
    """Worker imports on every CPU, page cache over the corpus, and (for
    Dataset workloads) one tiny Ray Data execution."""
    import ray

    from perfbench.replay import warm_worker

    ray.get([warm_worker.remote() for _ in range(ncpu)])
    for f in files:
        with open(f, "rb") as fh:
            while fh.read(1 << 22):
                pass
    if uses_data:
        import ray.data as rd

        rd.range(ncpu, override_num_blocks=ncpu).map_batches(lambda b: b).take_all()


def setup(wl_cls, seed: int, ncpu: int, repeats: int):
    """Start Ray and warm up ``repeats`` times, keeping the last session.
    The first start also generates the corpus when it is not cached; that
    time is excluded. Returns (corpus, [setup seconds])."""
    import ray

    from perfbench import corpus as C

    samples, corp = [], None
    for i in range(repeats):
        if i:
            ray.shutdown()
        t0 = time.monotonic()
        start_ray(ncpu)
        if corp is None:
            corp = C.ensure_corpus(wl_cls.corpus_kind, seed, str(STATE / "corpus"))
            if corp.generated:
                log(f"generated {corp.kind} corpus for seed {seed} in "
                    f"{corp.gen_s:.1f} s")
        warm(ncpu, corp.files, wl_cls.uses_data)
        samples.append(time.monotonic() - t0 - (corp.gen_s if i == 0 else 0.0))
    return corp, samples


# ---- measurement -----------------------------------------------------------

def cpu_ticks():
    """(busy, steal) ticks summed over every CPU, from /proc/stat; steal is
    time a runnable virtual CPU waited while the hypervisor ran something
    else. (0, 0) where there is no /proc/stat."""
    try:
        with open("/proc/stat") as fh:
            user, nice, system, _, _, irq, softirq, steal = (
                int(x) for x in fh.readline().split()[1:9])
    except (OSError, ValueError):
        return 0, 0
    return user + nice + system + irq + softirq, steal


class Runner:
    """Runs operations and checks every result: the first result of a
    deterministic operation gets the full oracle check and its digest is
    kept; a later result with the same digest is the same output. The
    driver holds at most one result per operation."""

    def __init__(self, wl):
        self.wl = wl
        self.digests = {}
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.alloc = {}      # op name -> peak bytes traced during its run

    def run(self, op, traced: bool = False, alloc: bool = False):
        """Returns (wall, stolen, spans): ``stolen`` is the share of the
        CPU time the machine spent on the operation (busy plus steal) that
        the hypervisor took; (None, None, None) when it raised."""
        from perfbench.oracles import digest
        from perfbench.tracing import SpanList

        self.wl.last.pop(op.name, None)
        self.attempted += 1
        spans = None
        busy0, steal0 = cpu_ticks()
        t0 = time.monotonic()
        try:
            if traced:
                sl = SpanList(op.name)
                with sl.span("op", None) as root:
                    result = op.traced(sl, root)
                spans = (sl.spans, root)
            elif alloc:
                tracemalloc.start()
                try:
                    result = op.run()
                    self.alloc[op.name] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            else:
                result = op.run()
            wall = time.monotonic() - t0
            busy, steal = (b - a for a, b in zip((busy0, steal0), cpu_ticks()))
        except Exception as e:  # one failed operation must not end the run
            import traceback

            traceback.print_exc(file=sys.stderr)
            self._fail(op, [f"{type(e).__name__}: {e}"])
            return None, None, None
        finally:
            # Ray Data executors of finished Datasets sit in reference
            # cycles; until the cyclic collector runs, their actor pools
            # keep holding CPUs and slow the next operation
            gc.collect()
        self.wl.last[op.name] = result
        d = digest(result) if op.deterministic else None
        if d is None or self.digests.get(op.name) != d:
            fails = op.check(result)
            self._fail(op, fails)
            if not fails and d is not None:
                self.digests.setdefault(op.name, d)
        return wall, steal / (busy + steal) if busy + steal > 0 else 0.0, spans

    def _fail(self, op, fails):
        self.failed += bool(fails)
        self.failures += [f"{op.name}: {f}" for f in fails]


def driver_alloc_mb(ops, runner: Runner) -> float:
    """The largest peak, over the timed operations, of the driver memory
    one operation allocates (Python objects and numpy arrays, through
    ``tracemalloc``) while it runs; each operation runs once more for it,
    untimed and checked. The driver's RSS peak is no stand-in: it follows
    the benchmark's own oracle arrays and the allocator's free lists."""
    for op in ops:
        if op.timed:
            runner.run(op, alloc=True)
    return max(runner.alloc.values(), default=0) / float(1 << 20)


def med(xs, default=0.0):
    xs = [x for x in xs if x is not None]
    return float(statistics.median(xs)) if xs else default


def cycles(ops, runner: Runner, seconds: float, traced: bool = False):
    """One untimed warm-up cycle, so lazy set-up inside the library (first
    task of each kind, first Dataset plan, allocator growth) is not timed,
    then untimed cycles for ``WARM_S`` (the first few after start-up ran
    slower), then cycles for ``seconds``. Yields (op, traced, wall,
    stolen, spans) for every timed operation that completed. With
    ``traced`` each cycle is followed by a traced cycle and every operation
    is in both; without it the cycles hold only the operations marked
    ``timed``."""
    for op in ops:
        runner.run(op)
    loop = ops if traced else [op for op in ops if op.timed]
    t_warm = time.monotonic() + WARM_S
    while time.monotonic() < t_warm:
        for op in loop:
            runner.run(op)
    t_end = time.monotonic() + seconds
    while True:
        for tr in (False, True) if traced else (False,):
            for op in loop:
                wall, stolen, spans = runner.run(op, traced=tr)
                if wall is not None:
                    yield op, tr, wall, stolen, spans
        if time.monotonic() >= t_end:
            break


def token_rate(ops, walls) -> float:
    """Corpus tokens per second over the token operations of one cycle,
    each timed by its median wall."""
    tok = [(op.tokens, med(walls[op.name])) for op in ops
           if op.tokens and walls[op.name]]
    return sum(n for n, _ in tok) / sum(w for _, w in tok) if tok else 0.0


def measure(ops, runner: Runner, seconds: float):
    """Untraced cycles; returns the end-to-end metrics and, per operation,
    its walls and the stolen shares of its CPU time.

    ``tokens_per_s`` times each operation by its wall less the part the
    hypervisor stole, ``wall * (1 - stolen)``: on a shared host, whole runs
    of the same code went 15-20% slower while other guests took the CPUs,
    and that loss showed as steal."""
    walls, stolen = defaultdict(list), defaultdict(list)
    for op, _, wall, st, _ in cycles(ops, runner, seconds):
        walls[op.name].append(wall)
        stolen[op.name].append(st)
    unstolen = {k: [w * (1 - st) for w, st in zip(walls[k], stolen[k])]
                for k in walls}
    return {"tokens_per_s": (token_rate(ops, unstolen), "tok/s"),
            "driver_peak_alloc_mb": (driver_alloc_mb(ops, runner), "MB")}, \
        walls, stolen


def measure_traced(wl, ops, runner: Runner, seconds: float):
    """Alternating untraced and traced cycles."""
    untraced, traced = defaultdict(list), []
    n = len(wl.trace_info)
    for op, tr, wall, _, spans in cycles(ops, runner, seconds, traced=True):
        if not tr:
            untraced[op.name].append(wall)
            continue
        traced.append({"op": op.name, "wall": wall, "spans": spans[0],
                       "root": spans[1], "tokens": op.tokens,
                       "info": wl.trace_info[n:]})
        n = len(wl.trace_info)
    return untraced, traced


def timed_median(fn, reps: int = 3) -> float:
    out = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        out.append(time.perf_counter() - t0)
    return statistics.median(out)


def layer_metrics(wl, ops, untraced, traced, ncpu: int) -> tuple:
    """Per-layer metrics from the traced instances (perfbench/README.md)."""
    from ocm_ray.core.hashing import wanghash
    from perfbench.tracing import attributed_times, by_name, self_times

    m = {}
    by_op = defaultdict(list)
    for t in traced:
        by_op[t["op"]].append(t)

    layer_ns, tokens = defaultdict(float), 0
    for t in traced:
        if t["tokens"]:
            tokens += t["tokens"]
            for k, v in by_name(t["spans"], self_times(t["spans"])).items():
                layer_ns[k] += v
    per_tok = lambda k: layer_ns[k] / tokens if tokens else 0.0  # noqa: E731
    for k in ("read", "extract", "combine", "update"):
        m[f"{k}.ns_per_tok"] = (per_tok(k), "ns/tok")

    infos = [i for t in traced for i in t["info"]]
    shard_infos = [i for i in infos if i.shards and "table_rows" in i.shards[0]]
    m["combine.table_rows"] = (med([sum(s["table_rows"] for s in i.shards)
                                    for i in shard_infos]), "count")
    m["combine.flushes"] = (med([sum(s["flushes"] for s in i.shards)
                                 for i in shard_infos]), "count")

    def span_durs(name, op=None):
        return [(s["end"] - s["start"]) / 1e9 for t in traced
                if op is None or t["op"] == op
                for s in t["spans"] if s["name"] == name]

    def per_cycle(values_of):
        """Sum over the operations of one cycle of each one's median."""
        return sum(med([values_of(t) for t in insts]) for insts in by_op.values())

    m["merge.s"] = (per_cycle(lambda t: sum(
        (s["end"] - s["start"]) / 1e9 for s in t["spans"] if s["name"] == "merge")), "s")
    for k in ("merge.bytes_moved", "partial.bytes"):
        m[k] = (per_cycle(lambda t: sum(i.extra.get(k, 0) for i in t["info"])), "B")

    skews = []
    for t in traced:
        d = [(s["end"] - s["start"]) for s in t["spans"] if s["name"] == "shard"]
        if len(d) >= 2:
            skews.append(max(d) / statistics.median(d))
    m["shard.wall_max_over_median"] = (med(skews), "ratio")

    occm = [i for t in by_op.get("occm_build", []) for i in t["info"]]
    m["occm.scan_s"] = (med(span_durs("occm.scan", "occm_build")), "s")
    m["occm.pass_s"] = (med([i.extra["occm.pass_s"] for i in occm]), "s")
    m["occm.table_rows"] = (med([i.extra["occm.table_rows"] for i in occm]), "count")
    m["occm.count_tables"] = (med([i.extra["occm.count_tables"] for i in occm]), "count")
    m["occm.resume_s"] = (med(untraced.get("occm_resume", [])), "s")
    m["ckpt.write_ms"] = (med(span_durs("ckpt.write")) * 1e3, "ms")
    m["ckpt.load_ms"] = (med(span_durs("ckpt.load")) * 1e3, "ms")
    m["ckpt.bytes"] = (os.path.getsize(os.path.join(wl.ck.dir, "round-00.sk"))
                       if wl.ck else 0, "B")
    m["query.pipeline_s"] = (med(span_durs("query.pipeline")), "s")
    qkeys = next((op.keys for op in ops if op.keys), 0)
    qwall = med(untraced.get("query", []))
    m["query.keys_per_s"] = (qkeys / qwall if qwall else 0.0, "1/s")

    # probes on the workload's main sketch and item stream
    sk = wl.main_sketch()
    items = wl.oracle.items
    m["serialize.ms"] = (timed_median(sk.to_bytes) * 1e3, "ms")
    m["query.estimate_ns_per_key"] = (
        timed_median(lambda: sk.estimate(items)) * 1e9 / len(items), "ns/key")
    sample = items[: 1 << 21]
    m["hash.ns_per_item"] = (timed_median(lambda: wanghash(sample), 5) * 1e9
                             / len(sample), "ns/item")

    # derived
    tps = token_rate(ops, untraced)
    busy = sum(per_tok(k) for k in ("read", "extract", "combine", "update", "shard"))
    m["ceiling_frac"] = (tps / (ncpu * 1e9 / busy) if busy else 0.0, "ratio")
    m["parallel_eff"] = (wl.parallel_eff(), "ratio")

    coverage = {}
    attr_sum = untr_sum = trac_sum = 0.0
    for name, insts in by_op.items():
        attr = [sum(v for sid, v in attributed_times(t["spans"], t["root"]).items()
                    if sid != t["root"]) / 1e9 for t in insts]
        a, u, w = med(attr), med(untraced.get(name, [])), med([t["wall"] for t in insts])
        coverage[name] = {"coverage": a / u if u else None,
                          "overhead_frac": w / u - 1 if u else None,
                          "untraced_s": u, "traced_s": w, "attributed_s": a}
        attr_sum, untr_sum, trac_sum = attr_sum + a, untr_sum + u, trac_sum + w
    m["trace.coverage"] = (attr_sum / untr_sum if untr_sum else 0.0, "ratio")
    m["trace.overhead_frac"] = (trac_sum / untr_sum - 1 if untr_sum else 0.0, "ratio")
    return m, coverage


# ---- entry point -----------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "ocm_ray" / "__init__.py").is_file():
        log(f"no ocm_ray package under {ROOT}; run from a full checkout")
        return 2
    sys.path.insert(0, str(ROOT))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"

    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        log(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
        return 2
    wl_cls = WORKLOADS[args.workload]
    watchdog = _watchdog(DEADLINE_S)
    # where the driver is stuck, should the watchdog have to fire
    faulthandler.dump_traceback_later(DEADLINE_S - 10, exit=False)

    import ray

    ncpu = cores()
    work = STATE / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    t_run = time.monotonic()
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "cores": ncpu, "seconds": args.seconds}
    try:
        corp, setups = setup(wl_cls, args.seed, ncpu,
                             SETUP_REPEATS if not args.trace else 1)
        record["corpus"] = {"kind": corp.kind, "tokens": corp.tokens,
                            "files": len(corp.files), "bytes": corp.bytes}
        record["setup_s"] = setups
        wl = wl_cls(corp, args.seed, str(work), ncpu)
        wl.prepare()
        ops = wl.ops()
        runner = Runner(wl)
        # the collections between operations then scan only what the
        # operations made (a few ms, not ~90 ms over every Ray and pyarrow
        # object), which leaves more operations in a timed window
        gc.collect()
        gc.freeze()
        if args.trace:
            untraced, traced = measure_traced(wl, ops, runner, args.seconds)
            metrics, coverage = layer_metrics(wl, ops, untraced, traced, ncpu)
            record["coverage"] = coverage
            spans = [s for t in traced for s in t["spans"]]
            with open(STATE / f"trace-{args.workload}-s{args.seed}.json", "w") as fh:
                json.dump({"coverage": coverage, "spans": spans}, fh)
        else:
            metrics, walls, stolen = measure(ops, runner, args.seconds)
            metrics["setup_s"] = (statistics.median(setups), "s")
            try:
                rmse = wl.accuracy()
            except KeyError:    # its last run failed; the failure is counted
                rmse = 0.0
            metrics["cm_overcount_rmse"] = (rmse, "count")
            record["walls"] = dict(walls)
            record["stolen"] = dict(stolen)
    finally:
        ray.shutdown()
        watchdog.cancel()
        faulthandler.cancel_dump_traceback_later()
        _cleanup()

    failed = runner.failed
    for f in runner.failures:
        log(f"FAIL {f}")
    result = {"correct": failed == 0, "attempted": runner.attempted,
              "failed": failed,
              "metrics": {k: {"value": float(v), "unit": u}
                          for k, (v, u) in metrics.items()}}
    record["result"] = result
    record["elapsed_s"] = time.monotonic() - t_run
    with open(STATE / f"run-{args.workload}-s{args.seed}-t{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    log(" ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()))
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
