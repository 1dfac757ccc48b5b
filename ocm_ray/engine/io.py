"""Resumable ETL output: per-input-shard Parquet writing with lineage.

"Resumable output" for a batch pipeline
means: one output unit per input shard, written atomically (tmp +
rename), plus a manifest of completed shards — a rerun skips finished
work. ``run_resumable_etl`` is the generic runner: per input file, a Ray
task streams row batches through a vectorized transform and writes one
output part file; shards whose fingerprint matches are skipped.

For key-partitioned layouts (one directory per ``source``/date/bucket),
``Dataset.write_parquet(partition_cols=[...])`` already does the
Hive-style layout; the wrapper here just pins the idiom.
"""

from __future__ import annotations

import json
import os
import time
from typing import Callable, List, Optional

import pyarrow as pa
import ray


def parquet_rows(out_dir: str) -> int:
    """Row count of a written parquet dir from FILE METADATA (free) —
    never ``.count()`` a lazy Dataset after ``write_parquet``: Ray
    re-executes the full plan per consumption. Recursive so Hive
    layouts (``partition_cols``) count too."""
    import glob as _g

    import pyarrow.parquet as _pq

    return sum(_pq.read_metadata(f).num_rows for f in
               _g.glob(os.path.join(out_dir, "**", "*.parquet"),
                       recursive=True))


def _iter_parquet(path: str, columns, batch_size: int):
    """Default shard reader: parquet row-group/batch streaming. Yields
    at least one (possibly empty) table so the caller always sees the
    (pruned) input schema — the generic-reader contract."""
    import pyarrow.parquet as pq

    pf = pq.ParquetFile(path)
    got = False
    for rb in pf.iter_batches(batch_size=batch_size, columns=columns):
        got = True
        yield pa.Table.from_batches([rb])
    if not got:
        s = pf.schema_arrow
        if columns:
            s = pa.schema([s.field(c) for c in columns])
        yield s.empty_table()


def _iter_orc(path: str, columns, batch_size: int):
    """ORC shard reader: stripe streaming, caller column order."""
    from pyarrow import orc

    f = orc.ORCFile(path)
    schema = f.schema
    if columns:
        schema = pa.schema([schema.field(c) for c in columns])
    if f.nstripes == 0:
        yield schema.empty_table()
        return
    for i in range(f.nstripes):
        t = pa.Table.from_batches([f.read_stripe(i, columns=columns)])
        yield t.select(columns) if columns else t


def _iter_ipc(path: str, columns, batch_size: int):
    """Arrow IPC shard reader: record-batch streaming."""
    with pa.OSFile(path, "rb") as f:
        r = pa.ipc.open_file(f)
        schema = r.schema
        if columns:
            schema = pa.schema([schema.field(c) for c in columns])
        if r.num_record_batches == 0:
            yield schema.empty_table()
            return
        for i in range(r.num_record_batches):
            t = pa.Table.from_batches([r.get_batch(i)])
            yield t.select(columns) if columns else t


def _iter_jsonl(path: str, columns, batch_size: int):
    """JSONL shard reader (codec by extension — one dump file is the
    scan unit; pyarrow parses it in one pass)."""
    import pyarrow.json as pj
    from pyarrow import fs as pafs

    try:
        with pafs.LocalFileSystem().open_input_stream(
                path, compression="detect") as f:
            t = pj.read_json(f)
    except pa.lib.ArrowInvalid as e:
        if "Empty" in str(e):
            # a 0-byte (or empty-after-decompress) dump file is VALID
            # empty jsonl — common in a 100 TB crawl; raising here would
            # permanently wedge the resumable ingest on that shard.
            # Unlike the footer formats (parquet/orc/ipc) there is no
            # schema to carry, so yield nothing; _etl_shard marks the
            # shard done without writing a part.
            return
        raise
    yield t.select(columns) if columns else t


def _iter_csv(path: str, columns, batch_size: int):
    import pyarrow.csv as pcsv

    try:
        t = pcsv.read_csv(path)
    except pa.lib.ArrowInvalid as e:
        if "Empty" in str(e):  # 0-byte csv: same contract as _iter_jsonl
            return
        raise
    yield t.select(columns) if columns else t


#: shard readers usable with :func:`run_resumable_etl` (format → reader)
SHARD_READERS = {"parquet": _iter_parquet, "orc": _iter_orc,
                 "ipc": _iter_ipc, "jsonl": _iter_jsonl, "csv": _iter_csv}


@ray.remote(num_cpus=1)
def _etl_shard(in_file: str, out_file: str, transform, columns,
               batch_size: int, reader=None) -> dict:
    import pyarrow.parquet as pq

    t0 = time.monotonic()
    reader = reader or _iter_parquet
    writer = None
    rows_in = rows_out = 0
    in_schema = None
    tmp = out_file + ".tmp"
    try:
        for t in reader(in_file, columns, batch_size):
            if in_schema is None:
                in_schema = t.schema
            rows_in += t.num_rows
            if t.num_rows == 0:
                continue
            out = transform(t)
            if out is None or out.num_rows == 0:
                continue
            if writer is None:
                writer = pq.ParquetWriter(tmp, out.schema)
            writer.write_table(out)
            rows_out += out.num_rows
        if writer is None and in_schema is None:
            # the reader yielded NOTHING (an empty jsonl/csv dump file —
            # no rows AND no schema to carry): mark the shard done with
            # no part file at all. Writing a zero-column parquet part
            # would break directory readers (rule 8b), and inventing a
            # schema would poison a later schema-union.
            st = os.stat(in_file)
            return {"in_file": os.path.abspath(in_file), "out_file": None,
                    "size": st.st_size, "mtime_ns": st.st_mtime_ns,
                    "rows_in": 0, "rows_out": 0,
                    "wall_sec": round(time.monotonic() - t0, 4)}
        if writer is None:
            # fully filtered shard still marks completion — but it must
            # carry the OUTPUT schema (rule 8b): a zero-column part makes
            # a directory read silently return zero columns and makes
            # duckdb's glob read hard-error. Derive it by transforming an
            # empty table of the (pruned) input schema; fall back to that
            # input schema if the transform can't handle empties.
            empty_in = in_schema.empty_table()
            try:
                empty_out = transform(empty_in)
                if empty_out is None or empty_out.num_columns == 0:
                    empty_out = empty_in
            except Exception:
                empty_out = empty_in
            pq.write_table(empty_out, tmp)
        else:
            writer.close()
            writer = None
        os.replace(tmp, out_file)
    except BaseException:
        # don't leave a truncated .tmp behind for tools scanning out_dir
        if writer is not None:
            writer.close()
            writer = None
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    finally:
        if writer is not None:
            writer.close()
    st = os.stat(in_file)
    return {"in_file": os.path.abspath(in_file),
            "out_file": os.path.basename(out_file),
            "size": st.st_size, "mtime_ns": st.st_mtime_ns,
            "rows_in": rows_in, "rows_out": rows_out,
            "wall_sec": round(time.monotonic() - t0, 4)}


def run_resumable_etl(files: List[str], out_dir: str,
                      transform: Callable[[pa.Table], pa.Table],
                      columns: Optional[List[str]] = None,
                      batch_size: int = 65536,
                      resume: bool = True,
                      reader: Optional[Callable] = None) -> dict:
    """Apply ``transform`` (Arrow table → Arrow table, vectorized) to each
    input file, writing one ``out_dir/part-<pathhash>.parquet``
    per input file atomically (the part name is a pure function of the
    input PATH — adding/removing inputs cannot re-map another file's
    stale output, the failure positional naming had). ``reader`` streams
    one input file as Arrow tables (default parquet; ``SHARD_READERS``
    covers orc/ipc/jsonl/csv — this is what makes a 100 TB crawl-dump
    ingest resumable per dump file). The manifest is
    appended incrementally as shards complete, so a crash mid-run keeps
    every finished shard's record and a rerun skips them; reruns also
    skip shards whose recorded (size, mtime_ns) still match. On a fully
    successful run, part files not in the manifest (stale leftovers of
    older layouts/inputs) are removed so directory readers can't
    double-count."""
    import glob as _glob
    import hashlib

    # fail loud on an empty list (a typo'd glob): proceeding would write
    # a "complete" empty manifest and the reconcile pass below would
    # then delete every previously built part. Dedupe: duplicate input
    # paths would collide on one path-hashed part (+ one shared .tmp).
    files = sorted({os.path.abspath(f) for f in files})
    if not files:
        raise FileNotFoundError("run_resumable_etl: empty input file list")
    os.makedirs(out_dir, exist_ok=True)
    mpath = os.path.join(out_dir, "_manifest.json")
    done = {}
    if resume and os.path.exists(mpath):
        try:
            with open(mpath) as fh:
                done = {e["in_file"]: e for e in json.load(fh)["shards"]}
        except (json.JSONDecodeError, KeyError, OSError):
            done = {}

    def _out_name(f: str) -> str:
        h = hashlib.sha1(os.path.abspath(f).encode()).hexdigest()[:12]
        return f"part-{h}.parquet"

    pending = []
    kept = []
    for f in files:
        out_f = os.path.join(out_dir, _out_name(f))
        prev = done.get(os.path.abspath(f))
        st = os.stat(f)
        unchanged = prev and prev.get("size") == st.st_size \
            and prev.get("mtime_ns") == st.st_mtime_ns
        # out_file None == "done, produced no part" (empty dump file):
        # nothing on disk to re-verify
        if unchanged and (prev.get("out_file") is None
                          or (prev.get("out_file") == _out_name(f)
                              and os.path.exists(out_f))):
            kept.append(prev)
        else:
            pending.append((f, out_f))

    def _write_manifest(shards, complete: bool) -> dict:
        manifest = {"shards": sorted(shards, key=lambda e: e["in_file"]),
                    "skipped": len(kept), "built": len(pending),
                    "complete": complete}
        with open(mpath + ".tmp", "w") as fh:
            json.dump(manifest, fh, indent=1)
        os.replace(mpath + ".tmp", mpath)
        return manifest

    refs = [_etl_shard.remote(f, o, transform, columns, batch_size, reader)
            for f, o in pending]
    shards = list(kept)
    remaining = list(refs)
    while remaining:
        ready, remaining = ray.wait(remaining, num_returns=1)
        shards.append(ray.get(ready[0]))  # raises on shard failure —
        # the manifest already records every shard finished BEFORE it
        _write_manifest(shards, complete=False)
    manifest = _write_manifest(shards, complete=True)
    # reconcile: drop stale parts no current shard owns
    owned = {e["out_file"] for e in manifest["shards"]}
    for p in _glob.glob(os.path.join(out_dir, "part-*.parquet")):
        if os.path.basename(p) not in owned:
            os.unlink(p)
    return manifest


# ---------------------------------------------------------------------------
# ORC + compressed-JSONL sources/sinks (Ray Data has no built-in ORC or
# .jsonl.zst support; pyarrow does the per-file codec work, Ray supplies
# the parallelism). Both sinks share the per-block part machinery below:
# content-digest part names, dirty-sink guard, atomic replace, driver-held
# (path, n_rows) manifest, stale-part reconcile.


def _write_part_files(ds, out_dir: str, ext: str, guard_exts, encode,
                      overwrite: bool, label: str) -> list:
    """Write a Dataset as per-block part files (the resume unit — a task
    holds one block + one open writer); ``encode(batch, tmp_path)`` does
    the format-specific serialization. Returns the part manifest
    ``[(path, n_rows), ...]`` (driver-held, one row per part).

    Part names are ``part-<task-id hash>-<seq>``: the same task
    re-executed (Ray retries / lineage-reconstructs a crashed write
    task) re-derives the SAME names and overwrites its own parts —
    idempotent, no duplicate rows from a retry — while two IDENTICAL
    blocks (plausible after column pruning: every block of a constant
    column serializes the same) still get distinct names from the
    task/sequence suffix instead of silently collapsing onto one file.
    No content digest: that would cost a second full serialization pass
    per block and adds nothing the task/seq pair doesn't already give.

    A non-empty ``out_dir`` is refused unless ``overwrite=True`` (the
    same dirty-sink guard as ``write_webdataset`` /
    ``pipelines.pretraining.curate``): a rerun with a different block
    layout writes differently-named parts and stale ones would silently
    duplicate rows on read — ``guard_exts`` covers every sibling
    extension a directory reader would pick up (a rerun with different
    compression must not leave ``.jsonl`` parts beside ``.jsonl.zst``
    ones). With ``overwrite=True``, parts not in the new manifest are
    reconciled away after the write."""
    import glob as _glob

    os.makedirs(out_dir, exist_ok=True)
    preexisting = set()
    for ge in guard_exts:
        preexisting |= set(_glob.glob(os.path.join(out_dir, f"*.{ge}")))
    if preexisting and not overwrite:
        raise ValueError(
            f"{label}: out_dir {out_dir!r} already holds "
            f"{len(preexisting)} part(s) from a previous run — "
            "pass overwrite=True to reconcile, or use a fresh dir")

    def write_block(batch: pa.Table, _state={"tid": None, "seq": 0}) \
            -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({"path": pa.array([], pa.string()),
                             "n_rows": pa.array([], pa.int64())})
        import hashlib
        import uuid

        try:
            tid = ray.get_runtime_context().get_task_id() \
                or f"driver-{uuid.uuid4().hex}"
        except Exception:
            tid = f"driver-{uuid.uuid4().hex}"
        # Per-TASK block counter, reset whenever the task id changes: a
        # worker process caches the deserialized fn across tasks, and a
        # task's batches always run contiguously on one worker — so a
        # tid transition (including the SAME task re-executed on a warm
        # worker that ran it before) marks the start of a (re)execution
        # and must restart at 0, or the retry would mint fresh names and
        # orphan the first attempt's parts outside the manifest.
        if tid != _state["tid"]:
            _state["tid"], _state["seq"] = tid, 0
        seq = _state["seq"]
        _state["seq"] = seq + 1
        suffix = hashlib.sha1(tid.encode()).hexdigest()[:12]
        path = os.path.join(out_dir, f"part-{suffix}-{seq:04d}.{ext}")
        tmp = path + ".tmp"
        try:
            encode(batch, tmp)
            os.replace(tmp, path)  # atomic: a killed task leaves no part
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return pa.table({"path": pa.array([path]),
                         "n_rows": pa.array([batch.num_rows], pa.int64())})

    manifest = ds.map_batches(write_block, batch_format="pyarrow",
                              batch_size=None).to_pandas()
    out = list(manifest.itertuples(index=False, name=None))
    # reconcile: delete parts the new manifest doesn't claim
    written = {p for p, _ in out}
    for stale in preexisting - written:
        try:
            os.remove(stale)
        except OSError:
            pass
    return out


def write_orc(ds, out_dir: str, overwrite: bool = False,
              compression: str = "zstd",
              stripe_size: int = 64 << 20, **writer_opts) -> list:
    """Write a Dataset as ORC part files, one per input block. See
    :func:`_write_part_files` for the part-naming / dirty-sink /
    manifest contract."""

    def encode(batch: pa.Table, tmp: str) -> None:
        from pyarrow import orc

        orc.write_table(batch, tmp, compression=compression,
                        stripe_size=stripe_size, **writer_opts)

    return _write_part_files(ds, out_dir, "orc", ["orc"], encode,
                             overwrite, "write_orc")


# compression codec → part extension; "detect" on the read side keys off
# these exact extensions (pyarrow's open_input_stream contract)
_JSONL_EXTS = {None: "jsonl", "gzip": "jsonl.gz", "zstd": "jsonl.zst"}


def write_jsonl(ds, out_dir: str, compression: Optional[str] = "zstd",
                overwrite: bool = False) -> list:
    """Write a Dataset as (optionally compressed) JSON-lines part files —
    the interchange format web-scale text corpora actually ship in
    (``.jsonl.zst`` crawl dumps). One part per input block, serialized
    by orjson (Rust, shortest-round-trip float repr — pandas'
    ``to_json`` caps at 15 significant digits and silently perturbs
    doubles, which need 17) and streamed through
    ``pa.CompressedOutputStream``. See :func:`_write_part_files` for
    the part-naming / dirty-sink / manifest contract — the guard covers
    ALL jsonl extensions so a rerun with different ``compression``
    can't leave stale parts a directory reader would double-count.

    Binary columns are not JSON-serializable; this sink is for text /
    numeric / list columns (the documents-table shape)."""
    if compression not in _JSONL_EXTS:
        raise ValueError(f"write_jsonl: compression must be one of "
                         f"{sorted(k or 'None' for k in _JSONL_EXTS)}, "
                         f"got {compression!r}")
    ext = _JSONL_EXTS[compression]

    def encode(batch: pa.Table, tmp: str) -> None:
        try:
            from orjson import dumps
        except ImportError:  # stdlib fallback: slower, still round-trips
            import json as _json

            def dumps(o):
                return _json.dumps(o, ensure_ascii=False,
                                   separators=(",", ":")).encode()

        data = b"\n".join(map(dumps, batch.to_pylist())) + b"\n"
        if compression is None:
            with open(tmp, "wb") as f:
                f.write(data)
        else:
            with pa.CompressedOutputStream(tmp, compression) as f:
                f.write(data)

    return _write_part_files(ds, out_dir, ext, _JSONL_EXTS.values(),
                             encode, overwrite, "write_jsonl")


def read_jsonl(paths, **read_json_kwargs):
    """Read (optionally compressed) JSON-lines files into a Dataset.
    Thin wrapper over ``ray.data.read_json`` — Ray's own file-based
    datasource already streams, parallelizes per file and honors
    ``arrow_open_stream_args``; the wrapper adds per-file codec
    auto-detection (``compression="detect"`` keys off the ``.gz`` /
    ``.zst`` extension, so a mixed-compression directory reads
    correctly) and directory globbing over every jsonl extension."""
    import glob as _glob

    import ray.data as rd

    if isinstance(paths, str):
        if os.path.isdir(paths):
            paths = sorted(p for ext in _JSONL_EXTS.values()
                           for p in _glob.glob(
                               os.path.join(paths, f"*.{ext}")))
        else:
            paths = sorted(_glob.glob(paths))
    paths = list(paths)
    if not paths:
        raise FileNotFoundError("read_jsonl: no .jsonl[.gz|.zst] files found")
    return rd.read_json(paths,
                        arrow_open_stream_args={"compression": "detect"},
                        **read_json_kwargs)


def read_orc(paths, columns: Optional[List[str]] = None):
    """Read ORC files into a Dataset: one task per file, streaming
    stripe-by-stripe (the format's own scan unit — a task never holds
    more than one stripe), with column pruning pushed into the stripe
    read. ``paths`` is a directory, a glob, or an explicit list."""
    import glob as _glob

    import ray.data as rd

    if isinstance(paths, str):
        paths = sorted(_glob.glob(os.path.join(paths, "*.orc"))
                       if os.path.isdir(paths) else _glob.glob(paths))
    paths = list(paths)
    if not paths:
        raise FileNotFoundError("read_orc: no .orc files found")

    def parse_file(batch: pa.Table):
        from pyarrow import orc

        for path in batch.column("path").to_pylist():
            f = orc.ORCFile(path)
            schema = f.schema
            if columns:
                schema = pa.schema([schema.field(c) for c in columns])
            if f.nstripes == 0:
                # empty part still carries the (pruned) schema (rule 8b)
                yield schema.empty_table()
                continue
            for i in range(f.nstripes):
                rb = f.read_stripe(i, columns=columns)
                t = pa.Table.from_batches([rb])
                if columns:
                    # read_stripe returns FILE column order; force the
                    # caller's order so every block (incl. the empty-part
                    # fallback above) carries one consistent schema —
                    # mixed-order blocks make downstream write_parquet
                    # emit parts DuckDB rejects as a schema mismatch
                    t = t.select(columns)
                yield t

    files = rd.from_items([{"path": p} for p in paths],
                          override_num_blocks=len(paths))
    return files.map_batches(parse_file, batch_format="pyarrow",
                             batch_size=1)


def write_ipc(ds, out_dir: str, overwrite: bool = False,
              compression: Optional[str] = "zstd",
              max_chunksize: int = 65536) -> list:
    """Write a Dataset as Arrow IPC (Feather v2) part files — the
    memory-mappable interchange format ML dataset tooling ships in.
    One part per input block, record batches capped at
    ``max_chunksize`` rows so the read side can stream batch-by-batch.
    See :func:`_write_part_files` for the part-naming / dirty-sink /
    manifest contract."""

    def encode(batch: pa.Table, tmp: str) -> None:
        opts = pa.ipc.IpcWriteOptions(
            compression=compression) if compression else None
        with pa.OSFile(tmp, "wb") as f, \
                pa.ipc.new_file(f, batch.schema, options=opts) as w:
            w.write_table(batch, max_chunksize=max_chunksize)

    # guard .feather too: the CLI (and most Arrow tooling) treats
    # .feather as the same IPC format, so a stale one double-counts on
    # a directory read just like a stale .arrow part would
    return _write_part_files(ds, out_dir, "arrow", ["arrow", "feather"],
                             encode, overwrite, "write_ipc")


def read_ipc(paths, columns: Optional[List[str]] = None):
    """Read Arrow IPC (Feather v2) files into a Dataset: one task per
    file, streaming record batch by record batch (the format's own
    scan unit — a task never holds more than one batch plus its yield).
    ``paths`` is a directory, a glob, or an explicit list."""
    import glob as _glob

    import ray.data as rd

    if isinstance(paths, str):
        paths = sorted(_glob.glob(os.path.join(paths, "*.arrow"))
                       + _glob.glob(os.path.join(paths, "*.feather"))
                       if os.path.isdir(paths) else _glob.glob(paths))
    paths = list(paths)
    if not paths:
        raise FileNotFoundError("read_ipc: no .arrow/.feather files found")

    def parse_file(batch: pa.Table):
        for path in batch.column("path").to_pylist():
            with pa.OSFile(path, "rb") as f:
                r = pa.ipc.open_file(f)
                schema = r.schema
                if columns:
                    schema = pa.schema([schema.field(c) for c in columns])
                if r.num_record_batches == 0:
                    # empty part still carries the (pruned) schema (rule 8b)
                    yield schema.empty_table()
                    continue
                for i in range(r.num_record_batches):
                    t = pa.Table.from_batches([r.get_batch(i)])
                    if columns:
                        t = t.select(columns)
                    yield t

    files = rd.from_items([{"path": p} for p in paths],
                          override_num_blocks=len(paths))
    return files.map_batches(parse_file, batch_format="pyarrow",
                             batch_size=1)


def write_partitioned_by(ds, out_dir: str, cols: List[str]) -> None:
    """Hive-partitioned Parquet layout (one directory tree per key value)
    — the layout that lets a 100 TB consumer prune at the read."""
    ds.write_parquet(out_dir, partition_cols=cols)
