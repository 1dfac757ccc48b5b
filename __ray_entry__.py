"""Driver contract for the graft builder (Ray Data target).

Ray is initialised by the driver BEFORE this module is imported — nothing
here (or in ocm_ray) calls ``ray.init()`` / ``ray.shutdown()``.

``queries()`` covers SURVEY.md §2's operator inventory: exact relational
/ text / similarity pipelines with DuckDB oracles, plus the sketch
pipelines (CM / OCM / OCCM / HLL / Bloom / KLL / t-digest / MinHash)
which are not SQL-expressible and therefore carry engine-internal
invariant assertions instead (one-sided error, bound tolerances) and get
rows-only driver checks.
"""

from __future__ import annotations

import os
import sys
from collections.abc import Callable
from typing import Any

# the driver may import this module from any CWD — make the repo-local
# ocm_ray package importable regardless
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import numpy as np
import pandas as pd

# sequences fixture used by the sketch pipelines (BASELINE input_hint shape);
# docs counts per sf mirror ocm_ray.data.sequences.sf_to_docs
_SEQ_ROOT = "/tmp/ocm_ray_data"
_SEQ_SF01_DIR = f"{_SEQ_ROOT}/seq_10000_42_8"     # sf0.01


def _cache_tag(sf_dir: str, table: str) -> str:
    """Key for /tmp artifacts derived from {table}.parquet: basename plus
    a size+mtime fingerprint of the SOURCE file, so regenerated testdata
    invalidates stale exports/indexes instead of silently reusing them."""
    st = os.stat(os.path.join(sf_dir, f"{table}.parquet"))
    return (f"{os.path.basename(sf_dir.rstrip('/'))}-"
            f"{st.st_size}-{st.st_mtime_ns // 1000 % 10**9}")


def _sf_from_dir(sf_dir: str) -> float:
    base = os.path.basename(sf_dir.rstrip("/"))
    return float(base.replace("sf", "")) if base.startswith("sf") else 0.01


def _seq_dir_for(sf_dir: str) -> str:
    from ocm_ray.data.sequences import ensure_sequences

    sf = _sf_from_dir(sf_dir)
    from ocm_ray.data.sequences import sf_to_docs

    return ensure_sequences(sf_to_docs(sf), seed=42, n_files=8)


def _read(sf_dir: str, table: str, columns=None):
    import ray.data as rd

    return rd.read_parquet(os.path.join(sf_dir, f"{table}.parquet"), columns=columns)


def _round_cols(df: pd.DataFrame, spec: dict) -> pd.DataFrame:
    for c, nd in spec.items():
        df[c] = df[c].astype(float).round(nd)
    return df


# --------------------------------------------------------------------------
# flagship


def entry() -> Any:
    """Flagship pipeline on sf0.001: build the offline conservative
    count-min over the sequences table (multi-round, distributed),
    point-query the 500 hottest tokens against exact ground truth."""
    from ocm_ray.data.sequences import ensure_sequences
    from ocm_ray.pipelines.flagship import count_and_query

    seq = ensure_sequences(1000, seed=42, n_files=8)
    return count_and_query(seq, np_bits=16, nh=5, rounds=2,
                           conservative=True, top_n_queries=500,
                           parallelism=4, validate_input=True)


# --------------------------------------------------------------------------
# queries


def queries() -> dict[str, Callable[[str], Any]]:
    q: dict[str, Callable[[str], Any]] = {}

    # ---- relational / exact (SQL-checkable) ----
    def pricing_summary(sf_dir):
        from ocm_ray.ops.relational import lineitem_pricing_summary

        df = lineitem_pricing_summary(_read(sf_dir, "lineitem")).to_pandas()
        return _round_cols(df, {"sum_qty": 2, "sum_base_price": 2,
                                "sum_disc_price": 2, "sum_charge": 2,
                                "avg_qty": 4})
    q["pricing_summary"] = pricing_summary

    def doc_stats_by_source(sf_dir):
        """Few-key rollup over the documents corpus via the grouped_sum
        fold (blocks shrink to one row per source before merging)."""
        import pyarrow as pa

        from ocm_ray.ops.agg import grouped_sum

        ds = _read(sf_dir, "documents", columns=["source", "n_chars"])

        def prep(t: pa.Table) -> pa.Table:
            return pa.table({
                "source": t.column("source"),
                "n_docs": pa.array(np.ones(t.num_rows, dtype=np.int64)),
                "sum_chars": t.column("n_chars"),
            })

        df = grouped_sum(ds.map_batches(prep, batch_format="pyarrow"),
                         ["source"], ["n_docs", "sum_chars"]).to_pandas()
        df["sum_chars"] = df["sum_chars"].astype(np.int64)
        return df
    q["doc_stats_by_source"] = doc_stats_by_source

    def top_tokens(sf_dir):
        from ocm_ray.ops.text import top_k_tokens

        return top_k_tokens(_read(sf_dir, "documents", columns=["text"]), k=100)
    q["top_tokens"] = top_tokens

    def doc_token_counts(sf_dir):
        import pyarrow as pa

        def count_tokens(batch: pa.Table) -> pa.Table:
            import polars as pl

            n = pl.from_arrow(batch.column("text")).str.split(" ").list.len()
            return pa.table({"doc_id": batch.column("doc_id"),
                             "n_tokens": n.cast(pl.Int64).to_arrow()})

        return _read(sf_dir, "documents", columns=["doc_id", "text"]) \
            .map_batches(count_tokens, batch_format="pyarrow")

    def events_hourly(sf_dir):
        from ocm_ray.ops.relational import windowed_event_agg

        df = windowed_event_agg(_read(sf_dir, "events"), window="1h").to_pandas()
        return _round_cols(df, {"sum_value": 2})

    def events_hourly_distinct(sf_dir):
        """Tumbling-window exact COUNT(DISTINCT user) per event type —
        per-block distinct triples + a re-distinct fan-in tree (no
        corpus-sized AllToAll)."""
        from ocm_ray.ops.relational import windowed_distinct

        return windowed_distinct(
            _read(sf_dir, "events", columns=["event_type", "ts", "user_id"]),
            window="1h").to_pandas()

    def events_hourly_full(sf_dir):
        """Tumbling-window counts/sums JOINED with the exact windowed
        COUNT(DISTINCT) — one driver query verifying both windowed
        aggregation paths (merged r4 to fit the driver's query budget)."""
        a = events_hourly(sf_dir)
        b = events_hourly_distinct(sf_dir)
        out = a.merge(b, on=["event_type", "window_start"], how="inner")
        assert len(out) == len(a) == len(b)
        return out

    def events_hopping(sf_dir):
        from ocm_ray.ops.relational import hopping_event_agg

        df = hopping_event_agg(_read(sf_dir, "events"), window="1h",
                               hop="30m").to_pandas()
        return _round_cols(df, {"sum_value": 2})

    def events_windows_union(sf_dir):
        """Tumbling + hopping window aggregates as ONE long-format
        frame (win discriminator; merged r4.3 to free a driver slot
        for events_funnel) — the hopping rows carry n_distinct = -1."""
        a = events_hourly_full(sf_dir)
        a.insert(0, "win", "1h")
        b = events_hopping(sf_dir)
        b.insert(0, "win", "1h_hop30m")
        b["n_distinct"] = np.int64(-1)
        out = pd.concat([a, b], ignore_index=True)
        return out.sort_values(["win", "event_type", "window_start"],
                               ignore_index=True)
    q["events_hourly"] = events_windows_union

    def events_funnel(sf_dir):
        """Ordered funnel progression per user (view → click → signup
        → purchase, strict (ts, event_id) order, stops at the first
        missed stage) — the shard_scan exchange + one vectorized
        reduceat pass per stage; integer reach timestamps make the SQL
        oracle exact."""
        from ocm_ray.ops.relational import funnel

        out = funnel(_read(sf_dir, "events",
                           columns=["event_id", "ts", "user_id",
                                    "event_type"]),
                     stages=("view", "click", "signup", "purchase"),
                     n_shards=16).to_pandas()
        return out.sort_values("user_id", ignore_index=True)
    q["events_funnel"] = events_funnel

    def events_asof_hourly(sf_dir):
        """AS-OF join (broadcast): each event joins the latest COMPLETED
        hourly aggregate of its type (aggregates become available at
        window end — true as-of semantics, not a bucket equi-join)."""
        from ocm_ray.ops.relational import asof_join_broadcast, windowed_event_agg

        hourly = windowed_event_agg(_read(sf_dir, "events"),
                                    window="1h").to_pandas()
        hourly["avail_ts"] = hourly["window_start"] + pd.Timedelta(hours=1)
        right = hourly[["event_type", "avail_ts", "sum_value"]].rename(
            columns={"sum_value": "hourly_sum"})
        left = (_read(sf_dir, "events",
                      columns=["user_id", "ts", "event_type"])
                .filter(expr="user_id < 20"))
        out = asof_join_broadcast(left, right, key="event_type").to_pandas()
        out["hourly_sum"] = out["hourly_sum"].astype(float).round(2)
        return out.sort_values(["user_id", "ts", "event_type"]) \
            .reset_index(drop=True)

    def events_asof_sharded(sf_dir):
        """Same as-of semantics through the LARGE x LARGE co-sharded
        join (asof_join_sharded: both sides exchange by key hash via
        shard_scan2 — neither side broadcast); verified against the
        identical DuckDB ASOF JOIN oracle."""
        import ray.data as rd

        from ocm_ray.ops.relational import asof_join_sharded, windowed_event_agg

        hourly = windowed_event_agg(_read(sf_dir, "events"),
                                    window="1h").to_pandas()
        hourly["avail_ts"] = hourly["window_start"] + pd.Timedelta(hours=1)
        right = rd.from_pandas(
            hourly[["event_type", "avail_ts", "sum_value"]].rename(
                columns={"sum_value": "hourly_sum"}))
        left = (_read(sf_dir, "events",
                      columns=["user_id", "ts", "event_type"])
                .filter(expr="user_id < 20"))
        out = asof_join_sharded(left, right,
                                right_vals=["hourly_sum"]).to_pandas()
        out["hourly_sum"] = out["hourly_sum"].astype(float).round(2)
        out = out[["user_id", "ts", "event_type", "avail_ts", "hourly_sum"]]
        return out.sort_values(["user_id", "ts", "event_type"]) \
            .reset_index(drop=True)

    def events_asof_both(sf_dir):
        """AS-OF join, broadcast AND large x large co-sharded paths:
        both run, must be frame-identical, one result verifies against
        the single DuckDB ASOF JOIN oracle (merged r4)."""
        out = events_asof_hourly(sf_dir)
        out2 = events_asof_sharded(sf_dir)
        pd.testing.assert_frame_equal(out, out2[out.columns],
                                      check_dtype=False)
        return out
    q["events_asof_hourly"] = events_asof_both

    def events_value_bands(sf_dir):
        """RANGE join: events classified into (overlapping-capable)
        value bands via the broadcast interval join, then aggregated per
        band — SQL oracle is a plain inequality join."""
        from ocm_ray.ops.relational import interval_join_broadcast

        bands = pd.DataFrame({
            "band": ["neg", "low", "mid", "high", "wide"],
            "lo": [-1e9, 0.0, 10.0, 100.0, 0.0],
            "hi": [0.0, 10.0, 100.0, 1e9, 1e9],   # "wide" overlaps low/mid/high
        })
        joined = interval_join_broadcast(
            _read(sf_dir, "events", columns=["value"]), bands, "value")

        import pyarrow as pa

        from ocm_ray.ops.agg import grouped_sum

        def prep(t: pa.Table) -> pa.Table:
            return pa.table({"band": t.column("band"),
                             "n": pa.array(np.ones(t.num_rows, np.int64)),
                             "sum_value": t.column("value")})

        df = grouped_sum(joined.map_batches(prep, batch_format="pyarrow"),
                         ["band"], ["n", "sum_value"]).to_pandas()
        return _round_cols(df, {"sum_value": 2}) \
            .sort_values("band").reset_index(drop=True)

    def events_value_bands_sharded(sf_dir):
        """The SAME range join executed on the large x large scale
        path: range-bucketed two-sided shard exchange for bounded
        bands, broadcast for the unbounded ones, results unioned —
        must hash-match the identical inequality-join oracle as the
        broadcast variant."""
        import ray.data as rd
        from ocm_ray.ops.agg import grouped_sum
        from ocm_ray.ops.relational import interval_join_sharded

        bands = pd.DataFrame({
            "band": ["neg", "low", "mid", "high", "wide"],
            "lo": [-1e9, 0.0, 10.0, 100.0, 0.0],
            "hi": [0.0, 10.0, 100.0, 1e9, 1e9],
        })
        import pyarrow as pa

        joined = interval_join_sharded(
            _read(sf_dir, "events", columns=["value"]),
            rd.from_pandas(bands), "value", right_cols=["band"],
            bucket_width=10.0, n_shards=16)

        def prep(t: pa.Table) -> pa.Table:
            return pa.table({"band": t.column("band"),
                             "n": pa.array(np.ones(t.num_rows, np.int64)),
                             "sum_value": t.column("value")})

        df = grouped_sum(joined.map_batches(prep, batch_format="pyarrow"),
                         ["band"], ["n", "sum_value"]).to_pandas()
        return _round_cols(df, {"sum_value": 2}) \
            .sort_values("band").reset_index(drop=True)

    def events_value_bands_both(sf_dir):
        """RANGE join, broadcast AND range-bucketed sharded paths: both
        run, must be frame-identical, one result verifies against the
        single inequality-join oracle (merged r4)."""
        a = events_value_bands(sf_dir)
        b = events_value_bands_sharded(sf_dir)
        pd.testing.assert_frame_equal(a, b)
        return a
    q["events_value_bands"] = events_value_bands_both

    def join_size_sketch(sf_dir):
        """Sketch-based join-size / second-moment estimation (the AMS /
        Cormode-Muthukrishnan inner-product application): CM sketches
        of each side's join-key frequencies estimate the equi-join
        cardinality; a 4-wise CountSketch estimates the self-join size
        (F2). Returns the EXACT integers (SQL-oracled); in-query
        asserts the CM estimate one-sided within eps*Na*Nb and the
        CS4W dot within 5x its published std bound."""
        import pyarrow as pa

        from ocm_ray.engine.build import build_sketch
        from ocm_ray.ops.agg import grouped_sum
        from ocm_ray.sketches import CountMin, CountSketch4W

        NP, NH = 16, 5
        ev = _read(sf_dir, "events", columns=["user_id"])
        # exact per-user counts (tree agg) -> F2 = sum cnt^2
        def one(t: pa.Table) -> pa.Table:
            return pa.table({"user_id": t.column("user_id"),
                             "n": pa.array(np.ones(t.num_rows, np.int64))})
        uc = grouped_sum(ev.map_batches(one, batch_format="pyarrow"),
                         ["user_id"], ["n"]).to_pandas()
        f2_exact = int((uc["n"].to_numpy() ** 2).sum())
        n_events = int(uc["n"].sum())

        cm_e = build_sketch(ev, lambda: CountMin(NP, NH, conservative=False),
                            column="user_id", parallelism=4)
        est_cm = cm_e.inner_product(cm_e)
        eps = np.e / (1 << NP)
        assert f2_exact <= est_cm <= f2_exact + eps * n_events * n_events, \
            (f2_exact, est_cm)

        cs = build_sketch(ev, lambda: CountSketch4W(NP, NH),
                          column="user_id", parallelism=4)
        est_cs = cs.dot_product(cs)
        sd = np.sqrt(2.0 / (1 << NP)) * n_events * n_events
        assert abs(est_cs - f2_exact) <= 5 * sd, (f2_exact, est_cs, sd)

        # equi-join size orders x lineitem on the order key
        ok = _read(sf_dir, "orders", columns=["o_orderkey"])
        lk = _read(sf_dir, "lineitem", columns=["l_orderkey"])
        cm_o = build_sketch(ok, lambda: CountMin(NP, NH, conservative=False),
                            column="o_orderkey", parallelism=4)
        cm_l = build_sketch(lk, lambda: CountMin(NP, NH, conservative=False),
                            column="l_orderkey", parallelism=4)
        est_join = cm_o.inner_product(cm_l)
        from ocm_ray.ops.relational import semi_join_filter

        okeys = ok.to_pandas()["o_orderkey"].to_numpy()
        join_exact = int(semi_join_filter(lk, okeys, "l_orderkey").count())
        n_o, n_l = len(okeys), int(lk.count())
        assert join_exact <= est_join <= join_exact + eps * n_o * n_l, \
            (join_exact, est_join)

        return pd.DataFrame({
            "case": ["events_selfjoin_f2", "orders_lineitem_join"],
            "exact_size": [f2_exact, join_exact],
        })
    q["join_size_sketch"] = join_size_sketch

    def orders_by_segment(sf_dir):
        import pyarrow.parquet as pq

        from ocm_ray.ops.relational import orders_by_segment as _obs

        cust = pq.read_table(os.path.join(sf_dir, "customer.parquet"),
                             columns=["c_custkey", "c_mktsegment"]).to_pandas()
        df = _obs(_read(sf_dir, "orders", columns=["o_custkey", "o_totalprice"]),
                  cust).to_pandas()
        return _round_cols(df, {"total_price": 2})

    def order_priority_revenue(sf_dir):
        """Large × large shuffle hash join (orders ⋈ lineitem on the
        order key — neither side broadcastable at scale), then a grouped
        rollup. Both sides column-pruned before the join."""
        from ocm_ray.ops.relational import shuffle_join

        orders = _read(sf_dir, "orders",
                       columns=["o_orderkey", "o_orderpriority"])
        li = _read(sf_dir, "lineitem",
                   columns=["l_orderkey", "l_extendedprice"])
        joined = shuffle_join(orders, li, on="o_orderkey",
                              right_on="l_orderkey", num_partitions=8)

        import pyarrow as pa

        from ocm_ray.ops.agg import grouped_sum

        def prep(t: pa.Table) -> pa.Table:
            return pa.table({"o_orderpriority": t.column("o_orderpriority"),
                             "n_items": pa.array(np.ones(t.num_rows, np.int64)),
                             "revenue": t.column("l_extendedprice")})

        df = grouped_sum(joined.map_batches(prep, batch_format="pyarrow"),
                         ["o_orderpriority"], ["n_items", "revenue"]) \
            .to_pandas()
        return _round_cols(df, {"revenue": 2})

    def distinct_users(sf_dir):
        from ocm_ray.ops.relational import distinct_count

        n = distinct_count(_read(sf_dir, "events", columns=["user_id"]), "user_id")
        return pd.DataFrame({"distinct_users": [n]})

    def dedup_exact(sf_dir):
        """Exact dedup via the library's hash-sharded path (raw text
        never shuffles; SQL-equal up to negligible 64-bit content-hash
        collisions)."""
        from ocm_ray.ops.dedup import exact_dedup

        ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
        return exact_dedup(ds)

    def token_counts_seq(sf_dir):
        from ocm_ray.ops.relational import exact_token_counts
        import ray.data as rd

        seq = _seq_dir_for(sf_dir)
        return exact_token_counts(rd.read_parquet(seq, columns=["tokens"]))

    def token_counts_with_hk(sf_dir):
        """Exact corpus token counts (SQL-oracled) + the HeavyKeeper
        top-k drive whose head-accuracy and true-top-20-membership
        assertions run against those exact counts (merged r4). The
        exact aggregation runs ONCE and serves both the HK assertions
        and the returned table."""
        counts = token_counts_seq(sf_dir).to_pandas()
        heavykeeper_topk(sf_dir,
                         truth=counts.set_index("token")["cnt"])
        return counts
    q["token_counts_seq"] = token_counts_with_hk

    def ann_topk(sf_dir):
        import pyarrow.parquet as pq

        from ocm_ray.ops.similarity import brute_force_topk

        t = pq.read_table(os.path.join(sf_dir, "embeddings.parquet"))
        qvec = np.asarray(t.column("embedding")[0].as_py(), dtype=np.float64)
        out = brute_force_topk(_read(sf_dir, "embeddings"), qvec[None, :], k=20)
        out = out[["vec_id", "sim"]].copy()
        out["sim"] = out["sim"].round(4)
        return out.sort_values(["sim", "vec_id"],
                               ascending=[False, True]).reset_index(drop=True)
    q["ann_topk"] = ann_topk

    # ---- sketch pipelines ----

    def cm_vanilla_query(sf_dir):
        """Vanilla (non-conservative) CM point query. Unlike the
        conservative variant this is a DETERMINISTIC function of the
        stream multiset, so the sketch ESTIMATE itself carries a full
        SQL oracle: DuckDB recomputes every counter cell as SUM(cnt)
        over the tokens hashing into it (WangHash chain, mt19937_64 row
        seeds inlined as literals) and takes the per-token row minimum
        — hash-verified end to end, not just invariant-asserted."""
        import glob as _glob

        from ocm_ray.engine.build import build_sketch_sharded
        from ocm_ray.sketches import CountMin

        seq = _seq_dir_for(sf_dir)
        files = sorted(_glob.glob(os.path.join(seq, "*.parquet")))
        # np=14 on ~50k distinct tokens → real collisions: estimates
        # genuinely exceed truth, so the oracle checks sketch semantics,
        # not a trivial exact-count echo
        sk = build_sketch_sharded(files,
                                  lambda: CountMin(14, 7, conservative=False))
        toks = np.arange(200, dtype=np.uint64)
        return pd.DataFrame({"token": toks.astype(np.int64),
                             "est_count": sk.estimate(toks).astype(np.int64)})
    q["cm_vanilla_query"] = cm_vanilla_query

    def sketch_point_queries(sf_dir):
        """Conservative-CM and 3-round OCCM point queries, HASH-MATCHED
        (no_oracle through r4): the estimates are order-dependent in
        general, but a token holding a SINGLETON cell in >= 1 row is
        provably pinned to its exact count by the conservative rule —
        the singleton cell only ever receives that token's updates, the
        one-sided bound makes it the row minimum at every step, and a
        cellwise-sum merge preserves both, under ANY partition order
        (`include/ocm.h:57-66` update; verified for the round-gated OCCM
        too). Isolation is a pure function of the distinct-token set and
        the WangHash chain, so DuckDB recomputes the same subset and its
        exact counts. The query emits the isolated members of the true
        top-1000 per variant and still ASSERTS the one-sided invariant
        over the FULL top-1000 (the non-isolated rows stay covered)."""
        import glob as _glob

        import ray.data as rd

        from ocm_ray.core.hashing import (derive_seeds, force_odd_nh,
                                          positions)
        from ocm_ray.engine.build import build_sketch_sharded
        from ocm_ray.engine.rounds import build_ocm
        from ocm_ray.ops.relational import exact_token_counts
        from ocm_ray.sketches import CountMin

        NP, NH, SEED = 14, 5, 137
        seq = _seq_dir_for(sf_dir)
        files = sorted(_glob.glob(os.path.join(seq, "*.parquet")))
        counts = exact_token_counts(
            rd.read_parquet(seq, columns=["tokens"])).to_pandas()
        toks = counts["token"].to_numpy().astype(np.uint64)
        nh = force_odd_nh(NH)
        pos = positions(toks, derive_seeds(nh, SEED), NP)
        iso = np.zeros(len(toks), bool)
        for j in range(pos.shape[1]):
            occ = np.bincount(pos[:, j], minlength=nh << NP)
            iso |= occ[pos[:, j]] == 1
        counts["iso"] = iso
        top = counts.sort_values(["cnt", "token"],
                                 ascending=[False, True]).head(1000)
        t_all = top["token"].to_numpy().astype(np.uint64)
        c_all = top["cnt"].to_numpy()
        m = top["iso"].to_numpy()

        cm = build_sketch_sharded(
            files, lambda: CountMin(NP, NH, conservative=True))
        oc = build_ocm(np_bits=NP, nh=NH, rounds=3, conservative=True,
                       files=files)
        out = []
        for variant, sk in (("cm_conservative", cm), ("occm", oc)):
            est = sk.estimate(t_all)
            assert (est >= c_all).all()         # one-sided, full top-1000
            assert (est[m] == c_all[m]).all()   # isolated-cell exactness
            out.append(pd.DataFrame({
                "variant": variant,
                "token": t_all[m].astype(np.int64),
                "true_count": c_all[m].astype(np.int64),
                "est_count": est[m].astype(np.int64)}))
        return pd.concat(out, ignore_index=True)
    q["sketch_point_queries"] = sketch_point_queries

    def hll_register_histogram(sf_dir):
        """Per-source HLL register-value histogram. Unlike the ESTIMATE
        (floating, estimator-specific), the registers themselves are
        order-free integer state — max leading-zero rank per bucket —
        so the sketch's entire update/merge machinery is verified by an
        integer-exact SQL oracle that recomputes every register from
        the distinct (source, token) set (wang chain + bin() bit
        length in DuckDB)."""
        import ray.data as rd

        from ocm_ray.engine.build import grouped_sketches
        from ocm_ray.sketches import HyperLogLog

        seq = _seq_dir_for(sf_dir)
        per = grouped_sketches(rd.read_parquet(seq, columns=["tokens", "source"]),
                               "source", lambda: HyperLogLog(12))
        rows = []
        for src in sorted(per):
            counts = np.bincount(per[src].registers, minlength=1)
            for v in np.flatnonzero(counts):
                rows.append((src, int(v), int(counts[v])))
        return pd.DataFrame(rows, columns=["source", "reg_value", "n_regs"])
    q["hll_register_histogram"] = hll_register_histogram

    def distinct_tokens_by_source(sf_dir):
        """Exact per-key distinct counts; the per-source HLL estimate is
        asserted within its
        published error bound against these exact values."""
        import ray.data as rd

        from ocm_ray.engine.build import grouped_sketches
        from ocm_ray.ops.relational import distinct_tokens_by_key
        from ocm_ray.sketches import HyperLogLog

        seq = _seq_dir_for(sf_dir)
        out = distinct_tokens_by_key(
            rd.read_parquet(seq, columns=["tokens", "source"])).to_pandas()
        out = out.sort_values("source").reset_index(drop=True)
        per = grouped_sketches(rd.read_parquet(seq, columns=["tokens", "source"]),
                               "source", lambda: HyperLogLog(14))
        for _, row in out.iterrows():
            est = per[row["source"]].estimate()
            sigma = 1.03896 / np.sqrt(2.0**14)
            assert abs(est - row["distinct_tokens"]) <= \
                max(5 * sigma * row["distinct_tokens"], 50)
        return out

    def quantiles_sketch(sf_dir):
        import ray.data as rd

        from ocm_ray.engine.build import build_sketch
        from ocm_ray.sketches import KLL, DDSketch, TDigest

        ds = _read(sf_dir, "lineitem", columns=["l_extendedprice"])
        kll = build_sketch(ds, lambda: KLL(200), column="l_extendedprice",
                           parallelism=4)
        td = build_sketch(_read(sf_dir, "lineitem", columns=["l_extendedprice"]),
                          lambda: TDigest(100), column="l_extendedprice",
                          parallelism=4)
        dd = build_sketch(_read(sf_dir, "lineitem", columns=["l_extendedprice"]),
                          lambda: DDSketch(0.01), column="l_extendedprice",
                          parallelism=4)
        qs = [0.01, 0.25, 0.5, 0.75, 0.99]
        return pd.DataFrame({
            "q": qs,
            "kll": np.atleast_1d(kll.quantile(qs)).round(2),
            "tdigest": np.atleast_1d(td.quantile(qs)).round(2),
            "ddsketch": np.atleast_1d(dd.quantile(qs)).round(2),
        })

    def bloom_membership(sf_dir):
        from ocm_ray.engine.build import build_sketch
        from ocm_ray.sketches import BloomFilter

        ds = _read(sf_dir, "lineitem", columns=["l_partkey"])
        bf = build_sketch(ds, lambda: BloomFilter(20, 5), column="l_partkey",
                          parallelism=4)
        present = np.arange(1, 101, dtype=np.uint64)
        absent = np.arange(10**9, 10**9 + 100, dtype=np.uint64)
        keys = np.concatenate([present, absent])
        return pd.DataFrame({"key": keys.astype(np.int64),
                             "member": bf.contains(keys)})
    q["bloom_membership"] = bloom_membership

    def lineitem_semi_join(sf_dir):
        import pyarrow.parquet as pq

        from ocm_ray.ops.relational import semi_join_filter
        from ocm_ray.ops.agg import grouped_sum
        import pyarrow as pa

        part_keys = pq.read_table(
            os.path.join(sf_dir, "part.parquet"),
            columns=["p_partkey", "p_size"]).to_pandas()
        big = part_keys.loc[part_keys.p_size > 40, "p_partkey"].to_numpy()
        ds = semi_join_filter(_read(sf_dir, "lineitem",
                                    columns=["l_partkey", "l_returnflag",
                                             "l_quantity"]),
                              big, "l_partkey")

        def local(t: pa.Table) -> pa.Table:
            import pandas as pd_

            df = t.to_pandas().groupby("l_returnflag", as_index=False).agg(
                n=("l_quantity", "size"), sum_qty=("l_quantity", "sum"))
            return pa.Table.from_pandas(df, preserve_index=False)

        out = grouped_sum(ds.map_batches(local, batch_format="pyarrow"),
                          ["l_returnflag"], ["n", "sum_qty"]).to_pandas()
        return _round_cols(out, {"sum_qty": 2})
    q["lineitem_semi_join"] = lineitem_semi_join

    def user_sessions(sf_dir):
        from ocm_ray.ops.relational import sessionize

        return sessionize(_read(sf_dir, "events", columns=["user_id", "ts"]),
                          gap_sec=1800)

    def kgram3_counts(sf_dir):
        """k-gram mode (the reference's rolling-window semantics over
        token ids, SURVEY §2.1 row 2): EXACT top-200 trigram counts
        (SQL-oracled) + a conservative CM built over the hashed 3-token
        windows whose one-sided invariant is asserted against them."""
        import glob as _glob
        import ray.data as rd

        from ocm_ray.core.hashing import wanghash
        from ocm_ray.engine.build import build_sketch_sharded
        from ocm_ray.ops.relational import trigram_counts
        from ocm_ray.sketches import CountMin

        seq = _seq_dir_for(sf_dir)
        out = trigram_counts(rd.read_parquet(seq, columns=["tokens"]),
                             k=200).to_pandas()
        files = sorted(_glob.glob(os.path.join(seq, "*.parquet")))
        cm = build_sketch_sharded(files, lambda: CountMin(18, 5, conservative=True),
                                  kgram=3)
        # window hash = the engine's kgram chain (tokens.kgram_reduce)
        h = wanghash(out["t0"].to_numpy().astype(np.uint64))
        h = wanghash(h ^ out["t1"].to_numpy().astype(np.uint64))
        h = wanghash(h ^ out["t2"].to_numpy().astype(np.uint64))
        assert (cm.estimate(h) >= out["cnt"].to_numpy()).all()  # one-sided
        return out

    def exact_value_quantiles(sf_dir):
        from ocm_ray.ops.relational import exact_value_quantiles as _evq

        return _evq(_read(sf_dir, "events", columns=["value"]), "value",
                    [0.1, 0.5, 0.9, 0.99])

    def exact_value_quantiles_full(sf_dir):
        """Exact distributed quantiles (SQL-oracled) + the KLL /
        t-digest / DDSketch quantile sketches rank-bounded against
        exact quantiles of THEIR stream (merged r4: each sketch value
        must lie between the exact (q-0.05) and (q+0.05) quantiles —
        well beyond KLL(200)'s ~1.3% rank error)."""
        from ocm_ray.ops.relational import exact_value_quantiles as _evq

        out = exact_value_quantiles(sf_dir)
        sk = quantiles_sketch(sf_dir)
        qs = sk["q"].tolist()
        lo_q = [max(0.0, x - 0.05) for x in qs]
        hi_q = [min(1.0, x + 0.05) for x in qs]
        # ONE distributed pass for both bands (two passes doubled the
        # full-lineitem read for the same result)
        both = _evq(_read(sf_dir, "lineitem", columns=["l_extendedprice"]),
                    "l_extendedprice", lo_q + hi_q)["value"].to_numpy()
        lo, hi = both[: len(lo_q)], both[len(lo_q):]
        for fam in ("kll", "tdigest", "ddsketch"):
            v = sk[fam].to_numpy()
            assert (v >= lo * 0.999).all() and (v <= hi * 1.001).all(), \
                (fam, v, lo, hi)
        return out
    q["exact_value_quantiles"] = exact_value_quantiles_full

    def deleted_value_quantiles(sf_dir):
        """KLL± deletion semantics (PAPERS.md VLDB'21), SQL-oracled in
        the exact-capacity regime: insert every event value as per-block
        partial sketches, RETRACT the 'error' events' values the same
        way, tree-merge, and read quantiles of the remaining live
        multiset — equal to quantile_disc over the filtered table."""
        from ocm_ray.sketches import KLLPM
        from ocm_ray.sketches.base import MergeableSketch

        ds = _read(sf_dir, "events", columns=["value", "event_type"])

        def part(batch):
            import pyarrow as _pa           # worker-side (rule 10b)
            import pyarrow.compute as _pc

            from ocm_ray.sketches import KLLPM as _KLLPM

            if batch.num_rows == 0:      # schema-less empty (rule 8b)
                return _pa.table({})
            sk = _KLLPM(k=1 << 17)
            vals = batch.column("value").to_numpy(zero_copy_only=False)
            bad = _pc.equal(batch.column("event_type"),
                            _pa.scalar("error")).to_numpy(
                zero_copy_only=False)
            sk.update_values(vals)
            sk.delete_values(vals[bad])
            return _pa.table({"sk": _pa.array([sk.to_bytes()],
                                              _pa.binary())})

        merged = KLLPM(k=1 << 17)
        for b in (ds.map_batches(part, batch_format="pyarrow")
                    .iter_batches(batch_format="pyarrow",
                                  batch_size=None)):
            if b.num_rows == 0:
                continue
            for raw in b.column("sk"):
                merged.merge(MergeableSketch.from_bytes(raw.as_py()))
        qs = [0.1, 0.5, 0.9, 0.99]
        return pd.DataFrame({
            "q": qs,
            "value": [round(float(np.atleast_1d(merged.quantile(x))[0]),
                            6) for x in qs]})
    q["deleted_value_quantiles"] = deleted_value_quantiles

    def supplier_by_region(sf_dir):
        import pyarrow.parquet as pq

        from ocm_ray.ops.relational import broadcast_join
        nation = pq.read_table(os.path.join(sf_dir, "nation.parquet")).to_pandas()
        region = pq.read_table(os.path.join(sf_dir, "region.parquet")).to_pandas()
        dim = nation.merge(region, left_on="n_regionkey", right_on="r_regionkey")
        dim = dim[["n_nationkey", "r_name"]].rename(
            columns={"n_nationkey": "s_nationkey"})
        joined = broadcast_join(_read(sf_dir, "supplier"), dim, key="s_nationkey")

        import pyarrow as pa

        from ocm_ray.ops.agg import grouped_sum

        def prep(t: pa.Table) -> pa.Table:
            return pa.table({"r_name": t.column("r_name"),
                             "n_suppliers": pa.array(np.ones(t.num_rows,
                                                             np.int64)),
                             "total_acctbal": t.column("s_acctbal")})

        df = grouped_sum(joined.map_batches(prep, batch_format="pyarrow"),
                         ["r_name"], ["n_suppliers", "total_acctbal"]) \
            .to_pandas()
        return _round_cols(df, {"total_acctbal": 2})
    q["supplier_by_region"] = supplier_by_region

    def lang_distribution(sf_dir):
        """Few-key rollup over documents via the grouped_sum fold; the
        mean is derived from the folded sums (count + char total)."""
        import pyarrow as pa

        from ocm_ray.ops.agg import grouped_sum

        def prep(t: pa.Table) -> pa.Table:
            return pa.table({
                "lang": t.column("lang"),
                "n_docs": pa.array(np.ones(t.num_rows, dtype=np.int64)),
                "chars": t.column("n_chars"),
            })

        df = grouped_sum(
            _read(sf_dir, "documents", columns=["lang", "n_chars"])
            .map_batches(prep, batch_format="pyarrow"),
            ["lang"], ["n_docs", "chars"]).to_pandas()
        df["avg_chars"] = df["chars"] / df["n_docs"]
        df = df.drop(columns=["chars"])
        return _round_cols(df, {"avg_chars": 4})
    q["lang_distribution"] = lang_distribution

    def bigram_top50(sf_dir):
        import ray.data as rd

        from ocm_ray.ops.relational import bigram_counts

        seq = _seq_dir_for(sf_dir)
        return bigram_counts(rd.read_parquet(seq, columns=["tokens"]), k=50)

    # ---- dedup family ----
    def embedding_dup_pairs(sf_dir):
        from ocm_ray.ops.dedup import embedding_dup_pairs as _edp

        out = _edp(_read(sf_dir, "embeddings"), threshold=0.4)
        out = out[["a", "b", "sim"]].copy()
        out["sim"] = out["sim"].round(4)
        return out.reset_index(drop=True)
    q["embedding_dup_pairs"] = embedding_dup_pairs

    def embedding_kmeans(sf_dir):
        """Distributed full-corpus Lloyd k-means over the embeddings
        table (one partial-sums map pass per iteration, centroid
        broadcast between — no shuffle). Returns per-cluster sizes;
        in-query asserts: sizes exhaust the corpus, inertia is
        non-increasing, and a sample of assignments equals the brute
        argmax against the final centroids."""
        import ray.data as rd

        from ocm_ray.ops.similarity import (_embedding_matrix, _normalize,
                                            assign_clusters, kmeans_lloyd)

        ds = _read(sf_dir, "embeddings")
        cents, hist = kmeans_lloyd(ds, n_clusters=16, iters=5)
        # relative tolerance: inertia is a corpus-sized float sum whose
        # distributed partial-sum ordering perturbs plateaued values at
        # ~1e-16 RELATIVE — a fixed 1e-12 absolute bound fails spuriously
        assert all(hist[i + 1] <= hist[i] + 1e-9 * abs(hist[i]) + 1e-12
                   for i in range(len(hist) - 1)), hist
        # ONE execution of the assignment pipeline serves the histogram,
        # the exhaustiveness check, and the spot-check below
        adf = assign_clusters(ds, cents).to_pandas()
        out = (adf.groupby("cell").size()
               .rename("n_vectors").reset_index())
        # exhaustiveness vs file METADATA (free — no third corpus pass)
        import pyarrow.parquet as _pq
        n_total = _pq.read_metadata(
            os.path.join(sf_dir, "embeddings.parquet")).num_rows
        assert int(out["n_vectors"].sum()) == n_total
        # spot-check: first 64 rows assigned == brute argmax
        import pyarrow as pa
        head = pa.table(ds.take_batch(64, batch_format="pyarrow"))
        m = _normalize(_embedding_matrix(head, "embedding"))
        want = (m @ cents.T).argmax(axis=1)
        got = (adf.set_index("vec_id")
               .loc[head.column("vec_id").to_pylist(), "cell"].to_numpy())
        assert (want == got).all()
        out["cell"] = out["cell"].astype(np.int64)
        return out.sort_values("cell").reset_index(drop=True)

    def semdedup_pairs(sf_dir):
        """SemDeDup (Abbas et al. 2023): k-means cells + within-cell
        cosine pairs. Exact duplicate vectors are planted (vec_id % 10
        == 3 copied to vec_id + 100000), so at threshold 0.999 the
        expected pair set is fully determined (corpus max non-dup sim
        ~0.6) — identical vectors always co-cluster, making this
        approximate pipeline SQL-oracle-able end to end."""
        import pyarrow as pa
        import ray.data as rd

        from ocm_ray.ops.dedup import semantic_dedup_pairs

        ds = _read(sf_dir, "embeddings")

        def plant(batch: pa.Table) -> pa.Table:
            ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
            m = (ids % 10 == 3)
            dup = batch.filter(pa.array(m))
            dup = dup.set_column(
                dup.schema.get_field_index("vec_id"), "vec_id",
                pa.array(dup.column("vec_id").to_numpy(
                    zero_copy_only=False) + 100000))
            return pa.concat_tables([batch, dup])

        aug = ds.map_batches(plant, batch_format="pyarrow")
        out = semantic_dedup_pairs(aug, threshold=0.999, n_clusters=16,
                                   iters=4).to_pandas()
        out = out.drop_duplicates(["a", "b"])
        out["sim"] = out["sim"].round(4)
        return out.sort_values(["a", "b"]).reset_index(drop=True)

    def semdedup_with_kmeans(sf_dir):
        """SemDeDup (SQL-oracled via planted duplicates) + the
        distributed-Lloyd invariant suite (exhaustive sizes, monotone
        inertia, brute-argmax spot check) — merged r4."""
        embedding_kmeans(sf_dir)          # asserts inside
        return semdedup_pairs(sf_dir)
    q["semdedup_pairs"] = semdedup_with_kmeans

    def minhash_dedup_pairs(sf_dir):
        from ocm_ray.ops.dedup import minhash_lsh_pairs

        return minhash_lsh_pairs(_read(sf_dir, "documents",
                                       columns=["doc_id", "text"]),
                                 num_perm=128, bands=32, threshold=0.5)
    q["minhash_dedup_pairs"] = minhash_dedup_pairs

    def simhash_fingerprints(sf_dir):
        from ocm_ray.ops.dedup import simhash_fingerprints as _sfp

        return _sfp(_read(sf_dir, "documents", columns=["doc_id", "text"]))

    def winnow_fingerprints(sf_dir):
        """MOSS winnowing fingerprints (k-gram window minima) — the
        rolling-hash document fingerprinting op, SQL-oracled exactly."""
        from ocm_ray.ops.text import winnow_fingerprints as _wfp

        return _wfp(_read(sf_dir, "documents", columns=["doc_id", "text"]),
                    k=3, window=4)
    q["winnow_fingerprints"] = winnow_fingerprints

    def gopher_quality(sf_dir):
        """Gopher rule-based quality filter — integer-exact flags,
        SQL-oracled end to end."""
        from ocm_ray.ops.text import gopher_quality_flags

        return gopher_quality_flags(
            _read(sf_dir, "documents", columns=["doc_id", "text"]))

    def gopher_repetition(sf_dir):
        """Gopher repetition rules — top/duplicate n-gram character
        statistics in exact integer arithmetic, SQL-oracled."""
        from ocm_ray.ops.text import gopher_repetition_flags

        return gopher_repetition_flags(
            _read(sf_dir, "documents", columns=["doc_id", "text"]))

    def unigram_logprob(sf_dir):
        """Per-doc mean log2 unigram probability (CCNet-style fluency
        proxy): distributed token counts → broadcast LM → scoring pass."""
        from ocm_ray.ops.text import unigram_logprob as _ulp

        return _ulp(_read(sf_dir, "documents", columns=["doc_id", "text"]))

    def sliding_window_user_counts(sf_dir):
        """Trailing-window frequencies via the sliding-window CM
        (reference include/ccm.h:839-869 semantics): per-user event
        counts within the last 2000 events of the event_id-ordered
        stream. Geometry (2^16 cells x 5 rows vs 150 users) makes the
        sketch exact here, so the window counts get a real SQL oracle;
        the deterministic hash seeds make that exactness stable."""
        import numpy as np

        from ocm_ray.sketches.sliding import sliding_window_counts

        ds = _read(sf_dir, "events", columns=["event_id", "user_id"]) \
            .sort("event_id")
        sw = sliding_window_counts(ds, "user_id", window=2000,
                                   np_bits=16, nh=5)
        users = np.unique(np.concatenate(
            [b.column("user_id").to_numpy() for b in
             _read(sf_dir, "events", columns=["user_id"])
             .iter_batches(batch_format="pyarrow")]))
        est = sw.estimate(users.astype(np.uint64))
        keep = est > 0
        return pd.DataFrame({"user_id": users[keep],
                             "cnt": est[keep].astype(np.int64)})

    def text_stats(sf_dir):
        """Text-analysis stage over documents; the SQL-exact integer
        columns (token/char/stopword counts) are what the oracle
        compares — ratios/quality/lang ride along in the engine output
        and are invariant-asserted here instead."""
        from ocm_ray.ops.text import add_text_stats

        out = add_text_stats(_read(sf_dir, "documents"),
                             concurrency=2).to_pandas()
        assert out["quality"].between(0, 1).all()
        assert (out["stop_ratio"] * out["n_tokens"] - out["n_stop"]).abs().max() < 1e-6
        cols = ["doc_id", "n_tokens", "n_chars_text", "n_stop"]
        return out[cols].astype(np.int64)

    def jaccard_dup_pairs(sf_dir):
        """EXACT distributed n-gram Jaccard near-dup pairs — the verify
        semantics of the dedup family as a first-class, SQL-oracled
        operator."""
        from ocm_ray.ops.dedup import exact_jaccard_pairs

        out = exact_jaccard_pairs(_read(sf_dir, "documents",
                                        columns=["doc_id", "text"]),
                                  shingle_k=3, threshold=0.4)
        out = out.astype({"a": np.int64, "b": np.int64})
        out["jaccard"] = out["jaccard"].round(4)
        return out.reset_index(drop=True)
    q["jaccard_dup_pairs"] = jaccard_dup_pairs

    def dup_cluster_labels(sf_dir):
        """Near-dup cluster labels via DISTRIBUTED connected components
        (Kiveris large-star/small-star rounds over the raw-task shard
        exchange, forced plan) on the exact-Jaccard pair set; asserted
        frame-equal to the driver union-find (both plans byte-identical)
        and SQL-oracled via a DuckDB recursive-CTE closure."""
        import ray.data as rd

        from ocm_ray.ops.dedup import (dup_clusters, dup_clusters_ds,
                                       exact_jaccard_pairs)

        pairs = exact_jaccard_pairs(
            _read(sf_dir, "documents", columns=["doc_id", "text"]),
            shingle_k=3, threshold=0.4)
        got = (dup_clusters_ds(rd.from_pandas(pairs[["a", "b"]])
                               .repartition(4),
                               distributed=True, n_shards=8)
               .to_pandas().astype(np.int64)
               .sort_values("doc_id").reset_index(drop=True))
        want = (dup_clusters(pairs).astype(np.int64)
                .sort_values("doc_id").reset_index(drop=True))
        pd.testing.assert_frame_equal(got, want)
        return got
    q["dup_cluster_labels"] = dup_cluster_labels

    def heavykeeper_topk(sf_dir, truth=None):
        """HeavyKeeper heavy hitters (hk.h semantics) over the token
        stream; estimates cross-checked against exact counts (pass
        ``truth`` — a token→cnt Series — to reuse an already-computed
        exact aggregation instead of re-running it)."""
        import ray.data as rd

        from ocm_ray.engine.build import build_sketch
        from ocm_ray.ops.relational import exact_token_counts
        from ocm_ray.sketches import HeavyKeeperTopK

        seq = _seq_dir_for(sf_dir)
        tk = build_sketch(rd.read_parquet(seq, columns=["tokens"]),
                          lambda: HeavyKeeperTopK(capacity=256, p=16, nh=4),
                          parallelism=4)
        keys, est = tk.top(100)
        if truth is None:
            truth = (exact_token_counts(
                rd.read_parquet(seq, columns=["tokens"]))
                .to_pandas().set_index("token")["cnt"])
        true_counts = truth.reindex(keys.astype(np.int64)).fillna(0).to_numpy()
        # HK tracks the head tightly; assert the top-10 within 10%
        rel = np.abs(est[:10] - true_counts[:10]) / np.maximum(true_counts[:10], 1)
        assert rel.max() < 0.10, rel
        # membership: the TRUE top-20 tokens (exact counts, SQL-verified
        # elsewhere via top_tokens) must all appear in HK's reported set
        # — a much harder bar than relative error on HK's own head
        true_top20 = set(truth.sort_values(ascending=False)
                         .head(20).index.tolist())
        missing = true_top20 - set(keys.astype(np.int64).tolist())
        assert not missing, f"HK top-100 missing true-top-20 tokens: {missing}"
        return pd.DataFrame({"token": keys.astype(np.int64),
                             "est_count": est})

    def cm_set_algebra(sf_dir):
        """CM intersection (ccm.h operator&=) + PowerOfTwo update
        strategy (update.h): build per-half sketches over the sequence
        files, intersect, and Morris-count the same stream; invariants
        asserted, summary row returned."""
        import glob as _glob

        from ocm_ray.engine.build import build_sketch_sharded
        from ocm_ray.sketches import CountMin
        from ocm_ray.sketches.countmin import CountMinPow2

        seq = _seq_dir_for(sf_dir)
        files = sorted(_glob.glob(os.path.join(seq, "*.parquet")))
        a = build_sketch_sharded(files[::2], lambda: CountMin(18, 5))
        b = build_sketch_sharded(files[1::2], lambda: CountMin(18, 5))
        keys = np.arange(1, 201, dtype=np.uint64)  # Zipf head tokens
        ea, eb = a.estimate(keys), b.estimate(keys)
        inter = a.intersect(b)
        ei = inter.estimate(keys)
        assert (ei <= np.minimum(ea, eb)).all()  # cellwise-min bound
        # Morris (PowerOfTwo) is RNG-driven → invariant-asserted only;
        # the vanilla intersect estimate is deterministic and carries a
        # full SQL oracle (_cm_intersect_sql: per-half cell sums,
        # LEAST across halves, MIN across rows)
        p2 = build_sketch_sharded(files, lambda: CountMinPow2(18, 5))
        ep = p2.estimate(keys)
        assert (ep > 0).all()  # head tokens all registered
        return pd.DataFrame({"token": keys.astype(np.int64),
                             "inter_est": ei.astype(np.int64)})
    q["cm_set_algebra"] = cm_set_algebra

    def bloom_dedup(sf_dir):
        """Streaming Bloom test-and-insert dedup stage (bf.h:586):
        survivor count equals distinct-content count when the filter is
        unsaturated (asserted against exact dedup)."""
        from ocm_ray.ops.dedup import bloom_dedup_filter, exact_dedup

        ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
        survivors = bloom_dedup_filter(ds, p=22, n_shards=16).count()
        distinct = exact_dedup(
            _read(sf_dir, "documents", columns=["doc_id", "text"])).count()
        assert survivors == distinct
        return pd.DataFrame({"n_survivors": [survivors],
                             "n_distinct": [distinct]})
    q["bloom_dedup"] = bloom_dedup

    def packed_training_rows(sf_dir):
        """Sequence packing over the tokenized corpus, proven by the
        token-conservation identity (``ops/packing.py`` contract): with
        ``drop_remainder=False`` every input token lands in exactly one
        packed row plus ONE EOS per document, so Σ n_tokens over packed
        rows == Σ n_tok + doc count — partition-independent and
        SQL-exact (the DuckDB oracle computes the right-hand side)."""
        import ray.data as rd

        from ocm_ray.ops.packing import pack_sequences

        seq = _seq_dir_for(sf_dir)
        ds = rd.read_parquet(seq, columns=["tokens"])
        packed = pack_sequences(ds, seq_len=1024, eos_id=50_256,
                                drop_remainder=False)
        n_tokens_packed = int(packed.sum("n_tokens"))
        return pd.DataFrame({"n_tokens_packed": [n_tokens_packed]})
    q["packed_training_rows"] = packed_training_rows

    def corpus_mix_split(sf_dir):
        """Deterministic corpus mixing: per-source downsampling + a
        hash-range train/val/test split (disjoint + exhaustive,
        asserted); the reproducibility contract of a 100 TB data mix.
        Also hosts the round-4.2 sampling-family invariants:
        epoch_shuffle (permutation, run-to-run identical order) and
        token_budget_sample (budget landing + superset nesting)."""
        from ocm_ray.ops.sampling import (epoch_shuffle, hash_split,
                                          stratified_sample,
                                          token_budget_sample)

        ds = _read(sf_dir, "documents", columns=["doc_id", "source"])
        mixed = stratified_sample(ds, "source", {"src0": 0.5}, 1.0)
        train, val, test = hash_split(mixed, fractions=[0.8, 0.1])
        parts = {"train": train.to_pandas(), "val": val.to_pandas(),
                 "test": test.to_pandas()}
        all_ids = np.concatenate([p["doc_id"].to_numpy()
                                  for p in parts.values()])
        assert len(all_ids) == len(np.unique(all_ids))  # disjoint
        assert len(all_ids) == mixed.count()            # exhaustive

        # epoch_shuffle: a permutation whose order is a pure function of
        # (ids, seed) — two runs must agree row-for-row
        base = _read(sf_dir, "documents", columns=["doc_id", "source"])
        s1 = epoch_shuffle(base, seed=3, n_shards=8).to_pandas()
        s2 = epoch_shuffle(base, seed=3, n_shards=8).to_pandas()
        assert list(s1.doc_id) == list(s2.doc_id)
        assert sorted(s1.doc_id) == sorted(
            base.to_pandas().doc_id)                    # permutation

        # token_budget_sample: lands at/above budget within one bucket
        # mass; doubling the budget keeps a superset
        import pyarrow.compute as _pc

        def with_w(t):
            import pyarrow as _pa
            n = _pc.utf8_length(_pc.fill_null(t.column("text"), ""))
            return t.append_column(
                "w", _pc.cast(n, _pa.int64())).drop_columns(["text"])
        wds = _read(sf_dir, "documents",
                    columns=["doc_id", "source", "text"]) \
            .map_batches(with_w, batch_format="pyarrow")
        total = int(wds.sum("w"))
        budget = max(1, total // 5)
        sel, summ = token_budget_sample(wds, {"src0": budget},
                                        weight_col="w", bucket_bits=8)
        got = sel.to_pandas()
        src0 = summ["src0"]
        assert src0["achieved"] >= min(src0["budget"], src0["total"])
        sel2, _ = token_budget_sample(wds, {"src0": budget * 2},
                                      weight_col="w", bucket_bits=8)
        ids_small = set(got[got.source == "src0"].doc_id)
        ids_big = set(sel2.to_pandas().query("source=='src0'").doc_id)
        assert ids_small <= ids_big                     # nesting

        rows = [{"split": k, "source": s, "n_docs": int(n)}
                for k, p in sorted(parts.items())
                for s, n in p.groupby("source").size().items()]
        return pd.DataFrame(rows)
    q["corpus_mix_split"] = corpus_mix_split

    def media_decode_stats(sf_dir):
        """Multimodal stage driver: REAL pure-numpy PPM decode, stdlib
        PCM-WAV feature extraction AND Y4M raw-video frame sampling
        over the deterministic synthetic media table (no media in the
        testdata tables; payloads are genuine PPM/WAV/Y4M bytes, so
        this exercises the real codecs, not the fake mode). FIXTURE-
        EXACT since r5: every emitted image/audio/video stat is
        compared for EQUALITY against ground-truth values computed at
        synthesis time from the raw arrays (pre-encoding) — an oracle
        without SQL-expressing the codec; the earlier range invariants
        are retained as a second line."""
        import ray.data as rd

        from ocm_ray.ops.multimodal import (ExtractAudioFeatures,
                                            decode_images,
                                            sample_video_frames,
                                            synth_media_table)

        t, expected = synth_media_table(64, expected_stats=True,
                                        target_size=16, every_ms=1000)
        ppm = rd.from_arrow(t).filter(
            lambda r: r["mime"] == "image/x-portable-pixmap")
        imgs = decode_images(ppm, fake=False, target_size=16).to_pandas()
        import pyarrow as _pa

        wav = t.filter(_pa.compute.equal(t.column("mime"), "audio/wav"))
        feats = ExtractAudioFeatures(fake=False)(wav).to_pandas()
        y4m = t.filter(_pa.compute.equal(t.column("mime"),
                                         "video/x-yuv4mpeg"))
        vid = sample_video_frames(y4m, every_ms=1000,
                                  fake=False).to_pandas()
        vid_stat = vid.groupby("media_id")["mean_luma"].mean().round(4)
        out = pd.DataFrame({
            "media_id": imgs["media_id"].tolist() + feats["media_id"].tolist()
                        + vid_stat.index.tolist(),
            "kind": ["image"] * len(imgs) + ["audio"] * len(feats)
                    + ["video"] * len(vid_stat),
            "stat": [round(v, 4) for v in imgs["mean_luma"]]
                    + [round(float(np.asarray(f)[-2]), 4)
                       for f in feats["features"]]  # total RMS
                    + vid_stat.tolist(),
        })
        assert (out.loc[out["kind"] == "audio", "stat"]
                .between(0.30, 0.40).all())  # 0.5-amp sine RMS ≈ 0.354
        # Y4M frame lumas are the known synthetic gradient: mid-range
        assert (out.loc[out["kind"] == "video", "stat"]
                .between(60, 200).all())
        assert len(vid) > 0
        # fixture-exact frame-compare: decoded stats must EQUAL the
        # synthesis-time ground truth, row for row
        m = out.merge(expected, on=["media_id", "kind"],
                      suffixes=("", "_want"), how="outer",
                      indicator=True)
        assert (m["_merge"] == "both").all(), "row set != fixture"
        assert (m["stat"] == m["stat_want"]).all(), \
            m[m["stat"] != m["stat_want"]].head()
        # round 4: compressed-video CONTAINER metadata (ISO-BMFF box
        # walk, no ffmpeg) — spec-built MP4 fixtures through the
        # video_container_meta triage stage; pixel decode stays stubbed
        import ray.data as _rd

        from ocm_ray.ops.multimodal import (make_mp4_meta_fixture,
                                            video_container_meta)

        blobs = pd.DataFrame({
            "media_id": [9001, 9002, 9003],
            "payload": [make_mp4_meta_fixture(n_samples=24 * i,
                                              w=64 * i, h=36 * i,
                                              duration_ms=1000 * i)
                        for i in (1, 2, 3)]})
        mp4 = (video_container_meta(_rd.from_pandas(blobs)).to_pandas()
               .sort_values("media_id").reset_index(drop=True))
        assert (mp4["video_codec"] == "avc1").all()
        assert (mp4["n_samples"].to_numpy() == [24, 48, 72]).all()
        out = pd.concat([out, pd.DataFrame({
            "media_id": mp4["media_id"],
            "kind": "mp4_container",
            "stat": mp4["duration_ms"].astype(float),
        })], ignore_index=True)
        return out.sort_values(["media_id", "kind"]).reset_index(drop=True)
    q["media_decode_stats"] = media_decode_stats

    def text_embed_ann(sf_dir):
        """Batched-inference composition: TextEmbedder task stage →
        cosine ANN over the produced embeddings. The embedder is a
        deterministic feature-hash projection (no ML runtime in this
        container), so the whole pipeline is reproducible; self-match
        invariant asserted."""
        from ocm_ray.ops.similarity import brute_force_topk
        from ocm_ray.ops.text import embed_texts

        docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
        emb_ds = embed_texts(docs, dim=32, concurrency=2).materialize()
        first = emb_ds.take(1)[0]
        qvec = np.asarray(first["embedding"], dtype=np.float64)
        out = brute_force_topk(emb_ds, qvec[None, :], k=5, id_col="doc_id")
        assert out.iloc[0]["vec_id"] == first["doc_id"]  # self is rank 0
        assert out.iloc[0]["sim"] > 0.9999
        out = out[["vec_id", "sim"]].copy()
        out["sim"] = out["sim"].round(4)
        return out.reset_index(drop=True)

    def lsh_ann_topk(sf_dir):
        """LSH ANN through the PERSISTENT bucket-partitioned index:
        built once per corpus (cache under /tmp), every probe reads only
        the probed bucket partitions (pruned read_parquet)."""
        import pyarrow.parquet as pq

        from ocm_ray.ops.similarity import build_ann_index, lsh_topk

        t = pq.read_table(os.path.join(sf_dir, "embeddings.parquet"))
        qvec = np.asarray(t.column("embedding")[0].as_py(), dtype=np.float64)
        tag = _cache_tag(sf_dir, "embeddings")
        idx_dir = f"{_SEQ_ROOT}/ann_index_{tag}_b6"
        if not os.path.exists(os.path.join(idx_dir, "_ann_meta.json")):
            build_ann_index(_read(sf_dir, "embeddings"), idx_dir, bits=6)
        out = lsh_topk(None, qvec[None, :], k=10, multiprobe=1,
                       index_dir=idx_dir)
        out = out[["vec_id", "sim"]].copy()
        out["sim"] = out["sim"].round(4)
        return out.reset_index(drop=True)

    def ivf_ann_topk(sf_dir):
        """IVF ANN through the persistent cell-partitioned index
        (k-means coarse quantizer): built once per corpus, probes read
        only the n_probe nearest inverted lists; recall vs the exact
        brute-force top-10 asserted in-query."""
        import pyarrow.parquet as pq

        from ocm_ray.ops.similarity import (brute_force_topk,
                                            build_ivf_index, ivf_topk)

        t = pq.read_table(os.path.join(sf_dir, "embeddings.parquet"))
        qvec = np.asarray(t.column("embedding")[0].as_py(), dtype=np.float64)
        tag = _cache_tag(sf_dir, "embeddings")
        idx_dir = f"{_SEQ_ROOT}/ivf_index_{tag}_c32"
        if not os.path.exists(os.path.join(idx_dir, "_ivf_meta.json")):
            build_ivf_index(_read(sf_dir, "embeddings"), idx_dir,
                            n_centroids=32)
        out = ivf_topk(qvec[None, :], k=10, n_probe=8, index_dir=idx_dir)
        exact = brute_force_topk(_read(sf_dir, "embeddings"),
                                 qvec[None, :], k=10)
        recall = len(set(out["vec_id"]) & set(exact["vec_id"])) / len(exact)
        assert recall >= 0.5, f"IVF recall@10 {recall} (n_probe=8/32)"
        out = out[["vec_id", "sim"]].copy()
        out["sim"] = out["sim"].round(4)
        return out.reset_index(drop=True)

    def ann_index_probes(sf_dir):
        """The three index-backed ANN drives in one query (merged r4):
        persistent LSH bucket index, persistent IVF index (recall
        asserted vs brute force), and the TextEmbedder -> ANN
        composition (self-match asserted). Float hyperplane/centroid
        geometry, hence no_oracle; the exact brute-force path keeps its
        own SQL oracle in ann_topk."""
        lsh = lsh_ann_topk(sf_dir).assign(variant="lsh")
        ivf = ivf_ann_topk(sf_dir).assign(variant="ivf")
        te = text_embed_ann(sf_dir).assign(variant="text_embed")

        # round 4: IVF-PQ — 8-byte product-quantized codes per vector,
        # ADC probes; recall vs brute force asserted (codes cannot be
        # SQL-oracled: float codebook geometry)
        import pyarrow.parquet as _pq

        from ocm_ray.ops.similarity import (brute_force_topk,
                                            build_ivfpq_index, ivfpq_topk)

        t = _pq.read_table(os.path.join(sf_dir, "embeddings.parquet"))
        qvec = np.asarray(t.column("embedding")[0].as_py(), dtype=np.float64)
        tag = _cache_tag(sf_dir, "embeddings")
        idx_dir = f"{_SEQ_ROOT}/ivfpq_index_{tag}_c16m8"
        if not os.path.exists(os.path.join(idx_dir, "_ivfpq_meta.json")):
            build_ivfpq_index(_read(sf_dir, "embeddings"), idx_dir,
                              n_centroids=16, m_subspaces=8, n_codes=64)
        got = ivfpq_topk(qvec[None, :], k=10, n_probe=8, index_dir=idx_dir)
        exact = brute_force_topk(_read(sf_dir, "embeddings"),
                                 qvec[None, :], k=10)
        recall = len(set(got["vec_id"]) & set(exact["vec_id"])) / len(exact)
        assert recall >= 0.3, f"IVF-PQ recall@10 {recall}"
        pqv = got[["vec_id", "sim"]].copy()
        pqv["sim"] = pqv["sim"].round(4)
        pqv = pqv.assign(variant="ivfpq")

        out = pd.concat([lsh, ivf, te, pqv], ignore_index=True)
        return out[["variant", "vec_id", "sim"]]
    q["ann_index_probes"] = ann_index_probes

    def hll_source_overlap(sf_dir):
        """Sketch set-algebra (hll.h:1124-1160 semantics): pairwise union
        size + Jaccard between per-source token sets."""
        import ray.data as rd

        from ocm_ray.engine.build import grouped_sketches
        from ocm_ray.sketches import HyperLogLog

        seq = _seq_dir_for(sf_dir)
        per = grouped_sketches(rd.read_parquet(seq, columns=["tokens", "source"]),
                               "source", lambda: HyperLogLog(14))
        names = sorted(per)
        rows = [{"a": a, "b": b,
                 "union_est": round(per[a].union_size(per[b])),
                 "jaccard_est": round(per[a].jaccard_index(per[b]), 3)}
                for i, a in enumerate(names) for b in names[i + 1:]]
        return pd.DataFrame(rows)

    def hmh_source_similarity(sf_dir):
        """HyperMinHash per source: ONE HLL-sized sketch per key gives
        both distinct counts and pairwise Jaccard (hmh.h semantics) —
        cross-checked against the bottom-k MinHash estimates."""
        import ray.data as rd

        from ocm_ray.engine.build import grouped_sketches
        from ocm_ray.sketches import HyperMinHash

        seq = _seq_dir_for(sf_dir)
        per = grouped_sketches(rd.read_parquet(seq, columns=["tokens", "source"]),
                               "source", lambda: HyperMinHash(14))
        names = sorted(per)
        rows = [{"a": a, "b": b,
                 "distinct_a": round(per[a].estimate()),
                 "jaccard": round(per[a].jaccard_index(per[b]), 3)}
                for i, a in enumerate(names) for b in names[i + 1:]]
        return pd.DataFrame(rows)

    def setsketch_source_stats(sf_dir):
        """SetSketch (setsketch.h:537-775, Ertl's GSS) per source:
        max-mergeable geometric registers give BOTH cardinality and
        pairwise Jaccard/union from one sketch. Distinct estimates are
        asserted against the engine's exact per-source distincts (whose
        SQL hash-match is proven by distinct_tokens_by_source); union
        size must dominate both cardinalities."""
        import ray.data as rd

        from ocm_ray.engine.build import grouped_sketches
        from ocm_ray.ops.relational import distinct_tokens_by_key
        from ocm_ray.sketches import SetSketch

        seq = _seq_dir_for(sf_dir)
        per = grouped_sketches(rd.read_parquet(seq, columns=["tokens", "source"]),
                               "source", lambda: SetSketch.byte(1024))
        exact = distinct_tokens_by_key(
            rd.read_parquet(seq, columns=["tokens", "source"])).to_pandas() \
            .set_index("source")["distinct_tokens"]
        for s, sk in per.items():
            rel = abs(sk.estimate() - exact[s]) / exact[s]
            assert rel < 0.15, (s, sk.estimate(), exact[s])
        names = sorted(per)
        rows = []
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                u = per[a].union_size(per[b])
                assert u >= max(per[a].estimate(), per[b].estimate()) * 0.9
                rows.append({"a": a, "b": b,
                             "distinct_a": round(per[a].estimate()),
                             "union_est": round(u),
                             "jaccard": round(per[a].jaccard(per[b]), 3)})
        return pd.DataFrame(rows)

    def sketch_source_estimates(sf_dir):
        """Per-source-pair estimator suite from three sketch families —
        HLL set algebra, HyperMinHash, SetSketch (merged r4, long
        format). Register-level integer state is SQL-oracled separately
        (hll_register_histogram, modvac_distinct_by_source); these
        float estimates stay invariant-asserted (SetSketch vs exact
        distincts inside its part)."""
        rows = []
        for name, df in [("hll", hll_source_overlap(sf_dir)),
                         ("hmh", hmh_source_similarity(sf_dir)),
                         ("setsketch", setsketch_source_stats(sf_dir))]:
            for _, r in df.iterrows():
                for c in df.columns:
                    if c not in ("a", "b"):
                        rows.append((name, r["a"], r["b"], c,
                                     round(float(r[c]), 4)))
        return pd.DataFrame(rows,
                            columns=["sketch", "a", "b", "metric", "value"])
    q["sketch_source_estimates"] = sketch_source_estimates

    def modvac_distinct_by_source(sf_dir):
        """ModSketch (mod.h mod-sampling) + VACSketch (vac.h level
        stack) per source: the sampled-quotient count and the exact
        per-level subsample populations are pure functions of the
        wang hash, so every returned integer is SQL-recomputable;
        the VAC(HLL) level estimates are 5-sigma-asserted in-query
        against those exact populations."""
        import pyarrow as pa
        import ray.data as rd

        from ocm_ray.engine.build import grouped_sketches
        from ocm_ray.engine.tokens import list_column_values
        from ocm_ray.ops.agg import grouped_sum
        from ocm_ray.core.hashing import wanghash
        from ocm_ray.sketches import ModSketch, VACSketch
        from ocm_ray.sketches.modvac import _VAC_SALT, vac_levels

        LOG2_MOD, NLVL = 8, 4
        seq = _seq_dir_for(sf_dir)
        ds = rd.read_parquet(seq, columns=["tokens", "source"])

        # distributed sketches per source
        per_mod = grouped_sketches(ds, "source",
                                   lambda: ModSketch(LOG2_MOD))
        per_vac = grouped_sketches(
            ds, "source", lambda: VACSketch(NLVL, "hll", {"p": 14}))

        # exact distinct (source, token) table (vocab-bounded driver
        # table, the bigram_logprob contract) -> exact level populations
        def pairs(batch: pa.Table) -> pa.Table:
            flat, lens = list_column_values(batch, "tokens")
            src = batch.column("source").to_numpy(zero_copy_only=False)
            rowid = np.repeat(np.arange(len(lens)), lens)
            out_s, out_t = [], []
            for s in np.unique(src):
                toks = np.unique(flat[src[rowid] == s])
                out_s.append(np.full(len(toks), s))
                out_t.append(toks.astype(np.int64))
            if not out_s:  # empty upstream block (rule 8b)
                return pa.table({"source": pa.array([], pa.string()),
                                 "token": pa.array([], pa.int64()),
                                 "one": pa.array([], pa.int64())})
            return pa.table({"source": pa.array(np.concatenate(out_s)),
                             "token": pa.array(np.concatenate(out_t)),
                             "one": pa.array(
                                 np.ones(sum(map(len, out_t)), np.int64))})

        pdf = grouped_sum(ds.map_batches(pairs, batch_format="pyarrow"),
                          ["source", "token"], ["one"]).to_pandas()
        rows = []
        for s, grp in pdf.groupby("source"):
            toks = grp["token"].to_numpy().astype(np.uint64)
            n_distinct = len(toks)
            lvl = vac_levels(toks, NLVL)
            n_l = [int((lvl > i).sum()) for i in range(NLVL)]
            msk = per_mod[s]
            assert msk.n_sampled() == len(np.unique(
                (wanghash(toks ^ np.uint64(137))
                 [(wanghash(toks ^ np.uint64(137))
                   & np.uint64((1 << LOG2_MOD) - 1)) == 0])
                >> np.uint64(LOG2_MOD)))
            for i, est in enumerate(per_vac[s].level_estimates()):
                exact_i = n_l[i] * (1 << i)
                sd = 1.04 / np.sqrt(1 << 14) * max(exact_i, 1) + (1 << i)
                assert abs(est - exact_i) <= 5 * sd + 0.05 * exact_i, \
                    (s, i, est, exact_i)
            rows.append({"source": s, "n_distinct": n_distinct,
                         "mod_sampled": msk.n_sampled(),
                         "mod_est": msk.n_sampled() << LOG2_MOD,
                         "n_l1": n_l[0], "n_l2": n_l[1],
                         "n_l3": n_l[2], "n_l4": n_l[3]})
        return pd.DataFrame(rows).sort_values("source").reset_index(drop=True)
    q["modvac_distinct_by_source"] = modvac_distinct_by_source

    def cs_compressed_top_tokens(sf_dir):
        """rnla.h cs_compress applied as a pipeline op: each source's
        exact token-count VECTOR is compressed 12x into an (ns, newdim)
        CountSketch, and the heavy entries recovered from the compressed
        form must be exactly the true top-10 (asserted in-query); the
        returned top-10 rows are SQL-oracled."""
        import pyarrow as pa
        import ray.data as rd

        from ocm_ray.engine.tokens import list_column_values
        from ocm_ray.ops.agg import grouped_sum
        from ocm_ray.sketches.rnla import (cs_compress,
                                           top_indices_from_compressed)

        seq = _seq_dir_for(sf_dir)
        ds = rd.read_parquet(seq, columns=["tokens", "source"])

        def cnts(batch: pa.Table) -> pa.Table:
            flat, lens = list_column_values(batch, "tokens")
            src = batch.column("source").to_numpy(zero_copy_only=False)
            rowid = np.repeat(np.arange(len(lens)), lens)
            out_s, out_t, out_c = [], [], []
            for s in np.unique(src):
                bc = np.bincount(flat[src[rowid] == s].astype(np.int64))
                nz = np.flatnonzero(bc)
                out_s.append(np.full(len(nz), s))
                out_t.append(nz.astype(np.int64))
                out_c.append(bc[nz].astype(np.int64))
            if not out_s:  # empty upstream block (rule 8b)
                return pa.table({"source": pa.array([], pa.string()),
                                 "token": pa.array([], pa.int64()),
                                 "c": pa.array([], pa.int64())})
            return pa.table({"source": pa.array(np.concatenate(out_s)),
                             "token": pa.array(np.concatenate(out_t)),
                             "c": pa.array(np.concatenate(out_c))})

        pdf = grouped_sum(ds.map_batches(cnts, batch_format="pyarrow"),
                          ["source", "token"], ["c"]).to_pandas()
        d = int(pdf["token"].max()) + 1
        rows = []
        for s, grp in pdf.groupby("source"):
            vec = np.zeros(d)
            vec[grp["token"].to_numpy()] = grp["c"].to_numpy()
            sk = cs_compress(vec, newdim=4096, ns=5)
            rec = set(top_indices_from_compressed(sk, d, 10).tolist())
            top = grp.sort_values(["c", "token"],
                                  ascending=[False, True]).head(10)
            assert rec == set(top["token"].tolist()), (s, rec)
            for _, r in top.iterrows():
                rows.append({"source": s, "token": int(r.token),
                             "cnt": int(r.c)})
        return pd.DataFrame(rows).sort_values(
            ["source", "cnt", "token"],
            ascending=[True, False, True]).reset_index(drop=True)
    q["cs_compressed_top_tokens"] = cs_compressed_top_tokens

    def minhash_source_similarity(sf_dir):
        import ray.data as rd

        from ocm_ray.engine.build import grouped_sketches
        from ocm_ray.sketches import BottomKMinHash

        seq = _seq_dir_for(sf_dir)
        per = grouped_sketches(rd.read_parquet(seq, columns=["tokens", "source"]),
                               "source", lambda: BottomKMinHash(1024))
        names = sorted(per)
        rows = []
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                # bottom-k state is DETERMINISTIC (k smallest distinct
                # hashes), so the estimator's numerator/denominator are
                # integer-exact and carry a full SQL oracle; the float
                # estimate is cross-checked in-query via the same ints
                union = np.unique(np.concatenate(
                    [per[a].values, per[b].values]))[:1024]
                inter = np.intersect1d(union, per[a].values,
                                       assume_unique=True)
                inter = np.intersect1d(inter, per[b].values,
                                       assume_unique=True)
                ni, nu = len(inter), len(union)
                assert abs(per[a].jaccard(per[b]) - ni / max(nu, 1)) < 1e-12
                rows.append({"a": a, "b": b, "n_inter": ni, "n_union": nu,
                             "jaccard_milli": (1000 * ni) // max(nu, 1)})
        return pd.DataFrame(rows)

    def weighted_jaccard_by_source(sf_dir):
        """ICWS weighted MinHash (cws, mult.h:25-40 parameterization)
        between per-source token MULTISETS: exact weighted Jaccard
        sums (integer, SQL-oracled) + the CWS estimator asserted
        within 5 sigma in-query. The per-(source, token) count table
        rides the grouped_sum block fold; CWS partials are built
        per batch OVER THE GROUPED TABLE (each (source, token) final
        weight appears exactly once -> disjoint-element merge is exact,
        the sketch's documented contract) and min-merged."""
        import pyarrow as pa
        import ray.data as rd

        from ocm_ray.engine.tokens import list_column_values
        from ocm_ray.ops.agg import grouped_sum
        from ocm_ray.sketches.cws import WeightedMinHash

        NPERM = 256
        seq = _seq_dir_for(sf_dir)
        ds = rd.read_parquet(seq, columns=["tokens", "source"])

        def cnts(batch: pa.Table) -> pa.Table:
            flat, lens = list_column_values(batch, "tokens")
            src = batch.column("source").to_numpy(zero_copy_only=False)
            rowid = np.repeat(np.arange(len(lens)), lens)
            out_s, out_t, out_c = [], [], []
            for s in np.unique(src):          # handful of sources
                m = src[rowid] == s
                toks = flat[m].astype(np.int64)
                bc = np.bincount(toks)
                nz = np.flatnonzero(bc)
                out_s.append(np.full(len(nz), s))
                out_t.append(nz.astype(np.int64))
                out_c.append(bc[nz].astype(np.int64))
            if not out_s:
                return pa.table({"source": pa.array([], pa.string()),
                                 "token": pa.array([], pa.int64()),
                                 "c": pa.array([], pa.int64())})
            return pa.table({"source": pa.array(np.concatenate(out_s)),
                             "token": pa.array(np.concatenate(out_t)),
                             "c": pa.array(np.concatenate(out_c))})

        # materialize: consumed twice below (sketch partials + the pivot
        # table) — without this Ray re-executes the read+bincount+tree
        # for the second consumer
        counts = grouped_sum(ds.map_batches(cnts, batch_format="pyarrow"),
                             ["source", "token"], ["c"]).materialize()

        def wmh_partial(batch: pa.Table) -> pa.Table:
            src = batch.column("source").to_numpy(zero_copy_only=False)
            tok = batch.column("token").to_numpy(zero_copy_only=False)
            c = batch.column("c").to_numpy(zero_copy_only=False)
            rows_s, rows_b = [], []
            for s in np.unique(src):
                sk = WeightedMinHash(NPERM)
                m = src == s
                sk.update(tok[m].astype(np.uint64), c[m])
                rows_s.append(s)
                rows_b.append(sk.to_bytes())
            return pa.table({"source": pa.array(rows_s),
                             "state": pa.array(rows_b, pa.binary())})

        per: dict = {}
        for b in counts.map_batches(wmh_partial, batch_format="pyarrow") \
                .iter_batches(batch_format="pyarrow"):
            for s, st in zip(b.column("source").to_pylist(),
                             b.column("state").to_pylist()):
                sk = WeightedMinHash.from_bytes(st)
                per[s] = sk if s not in per else per[s].merge(sk)

        pdf = counts.to_pandas()              # vocab-sized driver table
        tot = pdf.groupby("source")["c"].sum()
        piv = pdf.pivot_table(index="token", columns="source", values="c",
                              fill_value=0)
        names = sorted(per)
        rows = []
        for i, a in enumerate(names):
            for b2 in names[i + 1:]:
                smin = int(np.minimum(piv[a], piv[b2]).sum())
                smax = int(tot[a] + tot[b2] - smin)
                jw = smin / max(smax, 1)
                est = per[a].weighted_jaccard(per[b2])
                sd = max((jw * (1 - jw) / NPERM) ** 0.5, 1e-9)
                assert abs(est - jw) < 5 * sd + 1e-9, (a, b2, est, jw)
                rows.append({"a": a, "b": b2, "sum_min": smin,
                             "sum_max": smax,
                             "wjaccard_milli": (1000 * smin) // max(smax, 1)})
        return pd.DataFrame(rows)

    def decontaminate_eval(sf_dir):
        """Eval-set k-gram decontamination (GPT-3 App. C style): docs
        with doc_id % 10 == 7 play the held-out benchmark; every other
        doc is flagged if it shares any word 3-gram with them. The eval
        gram set travels once via ray.put; the corpus side is one
        stateless vectorized map pass (no shuffle)."""
        import pyarrow as pa

        from ocm_ray.ops.retrieval import decontaminate

        docs = _read(sf_dir, "documents", columns=["doc_id", "text"])

        def part(want_eval):
            def f(batch: pa.Table) -> pa.Table:
                ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
                m = (ids % 10 == 7)
                return batch.filter(pa.array(m if want_eval else ~m))
            return f

        out = decontaminate(docs.map_batches(part(False), batch_format="pyarrow"),
                            docs.map_batches(part(True), batch_format="pyarrow"),
                            k=3).to_pandas()
        return out.sort_values("doc_id").reset_index(drop=True)
    q["decontaminate_eval"] = decontaminate_eval

    def _roundtrip_source_stats(sf_dir, fmt):
        """Source/sink round trip (fmt = "json" | "csv" | "orc" |
        "jsonl.zst"): documents are exported once (atomic tmp-dir
        rename — rerunning cannot double-count, the curate dirty-sink
        contract), read back with the matching reader
        (``ray.data.read_*`` for the text formats, the engine's
        stripe-streaming ``engine.io.read_orc`` for ORC, codec-detecting
        ``engine.io.read_jsonl`` for compressed JSONL), and aggregated
        per source. The oracle reads the PARQUET view — matching proves
        each format path carries identical data. One parameterized
        kernel so the formats cannot drift apart."""
        import glob as _glob
        import shutil

        import pyarrow as pa
        import ray.data as rd

        from ocm_ray.engine.io import (read_ipc, read_jsonl, read_orc,
                                       write_ipc, write_jsonl, write_orc)
        from ocm_ray.ops.agg import grouped_sum

        base = _cache_tag(sf_dir, "documents")
        out_dir = f"/tmp/ocm_ray_{fmt}/{base}"
        if not _glob.glob(os.path.join(out_dir, "*")):
            tmp = out_dir + ".tmp"
            shutil.rmtree(tmp, ignore_errors=True)
            docs = _read(sf_dir, "documents",
                         columns=["doc_id", "source", "text"])
            if fmt == "json":
                docs.write_json(tmp)
            elif fmt == "csv":
                docs.write_csv(tmp)
            elif fmt == "jsonl.zst":
                write_jsonl(docs, tmp, compression="zstd")
            elif fmt == "ipc":
                write_ipc(docs, tmp)
            else:
                write_orc(docs, tmp)
            os.makedirs(os.path.dirname(out_dir), exist_ok=True)
            shutil.rmtree(out_dir, ignore_errors=True)
            os.rename(tmp, out_dir)
        ds = rd.read_json(out_dir) if fmt == "json" \
            else rd.read_csv(out_dir) if fmt == "csv" \
            else read_jsonl(out_dir) if fmt == "jsonl.zst" \
            else read_ipc(out_dir) if fmt == "ipc" \
            else read_orc(out_dir)

        def stats(batch: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            words = pc.list_value_length(
                pc.split_pattern(batch.column("text"), " "))
            return pa.table({
                "source": batch.column("source"),
                "n_docs": pa.array(np.ones(batch.num_rows, np.int64)),
                "n_words": pa.array(words.to_numpy(zero_copy_only=False)
                                    .astype(np.int64)),
            })

        out = grouped_sum(ds.map_batches(stats, batch_format="pyarrow"),
                          ["source"], ["n_docs", "n_words"]).to_pandas()
        return out.sort_values("source").reset_index(drop=True)

    def jsonl_source_stats(sf_dir):
        return _roundtrip_source_stats(sf_dir, "json")

    def csv_source_stats(sf_dir):
        return _roundtrip_source_stats(sf_dir, "csv")

    def char_entropy_stats(sf_dir):
        """Per-document character-distribution Shannon entropy (the
        gibberish/boilerplate filter signal) — one stateless map pass
        computing byte histograms straight off the Arrow string
        buffers."""
        from ocm_ray.ops.text import char_entropy

        out = char_entropy(
            _read(sf_dir, "documents", columns=["doc_id", "text"])).to_pandas()
        return out.sort_values("doc_id").reset_index(drop=True)

    def dsir_importance(sf_dir):
        """DSIR importance scores (Xie et al. 2023): every document
        scored by the log-likelihood ratio of hashed word-bigram
        bucket models (target = src0/src1 docs vs the rest). One
        stats pass (bucket-count partials), one broadcast, one
        stateless scoring pass; integer n_feats / n_target_heavy and
        the ROUND(4) float score are all SQL-recomputable."""
        from ocm_ray.ops.sampling import dsir_scores

        out = dsir_scores(
            _read(sf_dir, "documents", columns=["doc_id", "source", "text"]),
            target_values=["src0", "src1"], feat_bits=16, k=2).to_pandas()
        return out.sort_values("doc_id").reset_index(drop=True)

    def dup_ngram_spans(sf_dir):
        """Cross-document repeated 5-gram statistics (exact-substring
        dedup lite, Lee et al. 2021): per doc, occurrences / distinct
        count / longest consecutive run of word 5-grams shared with at
        least one other document. Discovery rides the raw-task
        shard_scan exchange; the dup-gram set broadcasts once."""
        from ocm_ray.ops.dedup import dup_ngram_stats

        out = dup_ngram_stats(
            _read(sf_dir, "documents", columns=["doc_id", "text"]),
            k=5, min_docs=2).to_pandas()
        return out.sort_values("doc_id").reset_index(drop=True)

    def token_dup_ngrams(sf_dir):
        """Tokens-domain repeated n-grams: the same cross-document
        dup-gram statistics computed over the north-rule sequences
        table's ``list<int32>`` tokens (chained-wang token 4-grams) —
        no text, pure token-id windows. Restricted to the deterministic
        ``doc_id LIKE '%0'`` tenth of the corpus on BOTH sides: the
        oracle recomputes every gram hash through four HUGEINT wang
        chains, which is minutes of DuckDB at full sf0.01 (the engine
        side is seconds either way)."""
        import pyarrow as pa
        import pyarrow.compute as pc
        import ray.data as rd

        from ocm_ray.ops.dedup import dup_ngram_stats

        seq = _seq_dir_for(sf_dir)
        ds = rd.read_parquet(seq, columns=["doc_id", "tokens"]) \
            .map_batches(lambda t: t.filter(
                pc.ends_with(t.column("doc_id"), pattern="0")),
                batch_format="pyarrow")
        out = dup_ngram_stats(ds, k=4, min_docs=2,
                              tokens_col="tokens").to_pandas()
        return out.sort_values("doc_id").reset_index(drop=True)

    def dedup_exact_sequences(sf_dir):
        """Exact SEQUENCE-level dedup over the north-rule tokens table:
        identity is the stable byte hash of the raw int32 token buffer
        (no text). Duplicates are planted (every doc_id ending '00'
        re-appears under a '-dup' id), grouped through the shard_scan
        exchange; the oracle GROUPs BY the token LIST itself — equal
        absent 64-bit collisions."""
        import pyarrow as pa
        import pyarrow.compute as pc
        import ray.data as rd

        from ocm_ray.ops.dedup import exact_dedup_groups

        seq = _seq_dir_for(sf_dir)
        ds = rd.read_parquet(seq, columns=["doc_id", "tokens"])

        def plant(batch: pa.Table) -> pa.Table:
            m = pc.ends_with(batch.column("doc_id"), pattern="00")
            dup = batch.filter(m)
            dup = dup.set_column(
                dup.schema.get_field_index("doc_id"), "doc_id",
                pc.binary_join_element_wise(dup.column("doc_id"), "-dup", ""))
            return pa.concat_tables([batch, dup])

        out = exact_dedup_groups(ds.map_batches(plant, batch_format="pyarrow"),
                                 tokens_col="tokens").to_pandas()
        out = out[["doc_id", "n_copies"]].sort_values("doc_id") \
            .reset_index(drop=True)
        return out

    def bm25_top20(sf_dir):
        """Distributed BM25 (Lucene k1/b variant) over the documents
        corpus for a fixed bag-of-words query; two stateless passes
        (stats partials, then scoring vs a broadcast idf table),
        per-batch top-k bounds the collect."""
        from ocm_ray.ops.retrieval import bm25_topk

        return bm25_topk(_read(sf_dir, "documents", columns=["doc_id", "text"]),
                         ["customer", "filter", "vector"], topk=20)
    q["bm25_top20"] = bm25_top20

    def event_windows(sf_dir):
        """SQL window functions (row_number / rank / dense_rank /
        percent_rank / cume_dist / ntile4 / lag gap / running max) per
        user ordered by time — the shard_scan exchange + one vectorized
        pass per shard, no per-key dispatch. running_sum is dropped
        here: sequential float accumulation is oracle-exact only for
        integer values (unit-tested there)."""
        from ocm_ray.ops.relational import partitioned_window

        out = partitioned_window(
            _read(sf_dir, "events",
                  columns=["event_id", "ts", "user_id", "value"]),
            key="user_id", order_col="ts", tie_col="event_id",
            value_col="value", n_shards=16).to_pandas()
        out = out.drop(columns=["running_sum"])
        out["running_max"] = out["running_max"].round(4)
        out["percent_rank"] = out["percent_rank"].round(6)
        out["cume_dist"] = out["cume_dist"].round(6)
        # partition-edge NaNs -> 0 sentinel (COALESCE on the SQL side):
        # exact copies otherwise, so ROUND(4) matches the source values
        out["lag_value"] = out["lag_value"].fillna(0.0).round(4)
        out["lead_value"] = out["lead_value"].fillna(0.0).round(4)
        return out.sort_values("event_id").reset_index(drop=True)
    q["event_windows"] = event_windows

    def top_tokens_per_source(sf_dir):
        """Exact top-5 tokens per source: per-block (source, token)
        partial counts → grouped_sum tree → grouped_topk tree (per-block
        top-k-per-key is a valid partial reducer; no shuffle anywhere)."""
        import polars as pl
        import pyarrow as pa

        from ocm_ray.ops.agg import grouped_sum, grouped_topk

        def local_counts(batch: pa.Table) -> pa.Table:
            df = pl.from_arrow(batch.select(["source", "text"]))
            out = (df.with_columns(pl.col("text").str.split(" ")
                                   .alias("token"))
                   .drop("text").explode("token")
                   .group_by(["source", "token"]).len()
                   .rename({"len": "cnt"})
                   .with_columns(pl.col("cnt").cast(pl.Int64)))
            return out.to_arrow()

        counts = grouped_sum(
            _read(sf_dir, "documents", columns=["source", "text"])
            .map_batches(local_counts, batch_format="pyarrow"),
            ["source", "token"], ["cnt"])
        out = grouped_topk(counts, ["source"], "cnt", 5,
                           tie_cols=["token"]).to_pandas()
        return out.sort_values(["source", "cnt", "token"],
                               ascending=[True, False, True],
                               ignore_index=True)
    q["top_tokens_per_source"] = top_tokens_per_source

    def doc_chunks(sf_dir):
        """Overlapping word-window chunking (RAG / context prep):
        size=32 stride=24 over every doc; exact string output."""
        from ocm_ray.ops.text import chunk_documents

        out = chunk_documents(
            _read(sf_dir, "documents", columns=["doc_id", "text"]),
            size=32, stride=24).to_pandas()
        return out.sort_values(["doc_id", "chunk_id"], ignore_index=True)
    q["doc_chunks"] = doc_chunks

    def value_quantiles_by_type(sf_dir):
        """Exact per-key quantile_disc over a CONTINUOUS value domain
        (the histogram tree would degenerate there): shard_scan by key
        hash + one sort and vectorized index pick per shard."""
        from ocm_ray.ops.relational import grouped_quantiles

        out = grouped_quantiles(
            _read(sf_dir, "events", columns=["event_type", "value"]),
            "event_type", "value", (0.1, 0.5, 0.9, 0.99),
            n_shards=8).to_pandas()
        out["value"] = out["value"].round(4)
        return out.sort_values(["event_type", "q"], ignore_index=True)
    q["value_quantiles_by_type"] = value_quantiles_by_type

    def bigram_logprob_q(sf_dir):
        """Corpus-trained MLE bigram LM scoring (fluency proxy, one
        step past unigram_logprob): distributed count tables →
        broadcast (bigram, log2 p) → stateless scoring pass."""
        from ocm_ray.ops.text import bigram_logprob

        return bigram_logprob(
            _read(sf_dir, "documents", columns=["doc_id", "text"])) \
            .to_pandas().sort_values("doc_id", ignore_index=True)

    def kn_logprob_q(sf_dir):
        """Interpolated Kneser-Ney bigram LM scoring (Chen & Goodman
        eq. 4.17, fixed D=0.75) — the standard smoothing past the MLE;
        all four count statistics derive from the one distributed
        bigram-type table, exact float expression mirrored in SQL."""
        from ocm_ray.ops.text import kn_bigram_logprob

        return kn_bigram_logprob(
            _read(sf_dir, "documents", columns=["doc_id", "text"])) \
            .to_pandas().sort_values("doc_id", ignore_index=True)

    def sample_per_source(sf_dir):
        """Deterministic per-key reservoir (n smallest seeded id
        hashes per source — stable across runs/partitionings); rides
        grouped_topk, output bounded by n × |keys|."""
        from ocm_ray.ops.sampling import sample_n_per_key

        out = sample_n_per_key(
            _read(sf_dir, "documents", columns=["doc_id", "source"]),
            "source", id_col="doc_id", n=8).to_pandas()
        return out.sort_values(["source", "doc_id"], ignore_index=True)
    q["sample_per_source"] = sample_per_source

    def encoded_docs(sf_dir):
        """Training-prep encode: corpus-frequency vocab (top-20 —
        small on purpose so the OOV path is exercised), docs mapped to
        space-joined token-id sequences via one broadcast + stateless
        vectorized lookup."""
        from ocm_ray.ops.text import encode_documents

        out = encode_documents(
            _read(sf_dir, "documents", columns=["doc_id", "text"]),
            max_size=20).to_pandas()
        return out.sort_values("doc_id", ignore_index=True)

    def nb_quality(sf_dir):
        """Trainable NB quality classifier (ops/classifier.py) over the
        documents corpus, labels = source membership (the wiki-vs-web
        shape): distributed integer count-table training, broadcast
        log-odds scoring. Oracled exactly in SQL (alpha=1 Laplace
        terms over integer counts, ROUND(4) on both sides)."""
        from ocm_ray.ops.classifier import nb_scores, train_quality_classifier

        docs = _read(sf_dir, "documents",
                     columns=["doc_id", "text", "source"])

        def add_label(batch):
            # local imports: this module is loaded by file path, so
            # worker-side closures can't resolve its globals (rule 10b)
            import pyarrow as _pa
            import pyarrow.compute as _pc

            lab = _pc.is_in(batch.column("source"), value_set=_pa.array(
                ["src0", "src1", "src2", "src3", "src4"]))
            return batch.drop_columns(["source"]).append_column("label", lab)

        labeled = docs.map_batches(add_label, batch_format="pyarrow")
        model = train_quality_classifier(labeled)
        out = nb_scores(labeled, model).to_pandas()
        return out.sort_values("doc_id", ignore_index=True)

    def ppl_bucket_part(sf_dir):
        """CCNet head/middle/tail tiers (ops/sampling.py:
        perplexity_buckets): per-source quantile_disc terciles of the
        rounded unigram-LM score; exact SQL mirror (the same
        quantile_disc semantics proven by value_quantiles_by_type)."""
        from ocm_ray.ops.sampling import perplexity_buckets

        out = perplexity_buckets(
            _read(sf_dir, "documents",
                  columns=["doc_id", "text", "source"])).to_pandas()
        return (out[["doc_id", "ppl_bucket"]]
                .sort_values("doc_id", ignore_index=True))

    def doc_signals(sf_dir):
        """ONE row per document joining every per-document signal
        operator — token counts, text stats, char entropy, Gopher
        quality + repetition rules, unigram/bigram LM scores, SimHash
        fingerprint, DSIR importance, vocab encoding, NB quality-
        classifier log-odds, CCNet perplexity tier (merged r4 to fit
        the driver's query budget; the SQL oracle composes the parts'
        original oracles with USING(doc_id) joins). Columns that two parts compute
        independently (n_tokens 3x, n_chars 2x) are asserted identical
        and emitted once."""
        def P(x):
            return x if isinstance(x, pd.DataFrame) else x.to_pandas()

        tc = P(doc_token_counts(sf_dir))
        ts = P(text_stats(sf_dir))
        ce = P(char_entropy_stats(sf_dir))
        gq = P(gopher_quality(sf_dir)).rename(columns={"keep": "keep_quality"})
        gr = P(gopher_repetition(sf_dir)).rename(
            columns={"keep": "keep_repetition"})
        ul = P(unigram_logprob(sf_dir)).rename(
            columns={"logprob": "unigram_logprob"})
        bl = P(bigram_logprob_q(sf_dir)).rename(
            columns={"logprob": "bigram_logprob"})
        kn = P(kn_logprob_q(sf_dir)).rename(
            columns={"logprob": "kn_logprob"})
        sh = P(simhash_fingerprints(sf_dir))
        dsir = P(dsir_importance(sf_dir))
        en = P(encoded_docs(sf_dir))
        nb = P(nb_quality(sf_dir))
        ppl = P(ppl_bucket_part(sf_dir))

        out = tc
        for part, dup in [(ts, ["n_tokens"]), (ce, []), (gq, []),
                          (gr, ["n_chars"]), (ul, []), (bl, []), (kn, []),
                          (sh, []), (dsir, []), (en, ["n_tokens"]),
                          (nb, []), (ppl, [])]:
            m = out.merge(part, on="doc_id", how="inner",
                          suffixes=("", "__dup"))
            assert len(m) == len(out) == len(part), "doc_id sets differ"
            for c in dup:
                assert (m[c] == m[f"{c}__dup"]).all(), \
                    f"independent recomputation of {c} disagrees"
            out = m.drop(columns=[c for c in m.columns
                                  if c.endswith("__dup")])
        return out.sort_values("doc_id").reset_index(drop=True)
    q["doc_signals"] = doc_signals

    def source_similarity(sf_dir):
        """Per-source-pair similarity, exact-integer-oracled: bottom-k
        MinHash (set Jaccard numerator/denominator) JOINED with the
        ICWS weighted-Jaccard sums (merged r4). ProbMinHash (pmh.h)
        rides along invariant-asserted: a register-identical copy must
        score 1.0, similarity is symmetric and in [0, 1] (the sketch is
        deterministic given the count table, so these are exact)."""
        import ray.data as rd

        from ocm_ray.sketches import ProbMinHash

        a = minhash_source_similarity(sf_dir)
        b = weighted_jaccard_by_source(sf_dir)
        out = a.merge(b, on=["a", "b"], how="inner")
        assert len(out) == len(a) == len(b)

        # ProbMinHash drive over the per-source token multisets: PMH
        # draws are keyed by the FINAL weight, so the sketch is built
        # from the exact per-(source, token) count table (grouped_sum
        # tree — distributed); partial-count min-merge would be wrong
        # and is deliberately NOT used here (module docstring).
        import pyarrow as pa

        from ocm_ray.engine.tokens import list_column_values
        from ocm_ray.ops.agg import grouped_sum

        seq = _seq_dir_for(sf_dir)
        ds = rd.read_parquet(seq, columns=["tokens", "source"])

        def cnts(batch: pa.Table) -> pa.Table:
            flat, lens = list_column_values(batch, "tokens")
            srcs = batch.column("source").to_numpy(zero_copy_only=False)
            rowid = np.repeat(np.arange(len(lens)), lens)
            o_s, o_t, o_c = [], [], []
            for s in np.unique(srcs):
                bc = np.bincount(flat[srcs[rowid] == s].astype(np.int64))
                nz = np.flatnonzero(bc)
                o_s.append(np.full(len(nz), s))
                o_t.append(nz.astype(np.int64))
                o_c.append(bc[nz].astype(np.int64))
            if not o_s:
                return pa.table({"source": pa.array([], pa.string()),
                                 "token": pa.array([], pa.int64()),
                                 "c": pa.array([], pa.int64())})
            return pa.table({"source": pa.array(np.concatenate(o_s)),
                             "token": pa.array(np.concatenate(o_t)),
                             "c": pa.array(np.concatenate(o_c))})

        pdf = grouped_sum(ds.map_batches(cnts, batch_format="pyarrow"),
                          ["source", "token"], ["c"]).to_pandas()
        per = {}
        for s, grp in pdf.groupby("source"):
            sk = ProbMinHash(256)
            sk.update(grp["token"].to_numpy(),
                      grp["c"].to_numpy().astype(np.float64))
            per[s] = sk
        names = sorted(per)
        for i, x in enumerate(names):
            clone = ProbMinHash.from_bytes(per[x].to_bytes())
            assert per[x].similarity(clone) == 1.0
            for y in names[i + 1:]:
                s_xy = per[x].similarity(per[y])
                assert 0.0 <= s_xy <= 1.0
                assert s_xy == per[y].similarity(per[x])
        return out.sort_values(["a", "b"]).reset_index(drop=True)
    q["source_similarity"] = source_similarity

    def export_roundtrip_stats(sf_dir):
        """JSONL, CSV, ORC, zstd-JSONL AND Arrow-IPC source/sink round
        trips (merged r4; ORC + compressed JSONL + IPC added r5 via the
        engine's stripe-/batch-streaming, codec-detecting readers):
        documents exported to all five formats, read back, aggregated —
        the format paths must agree with each other exactly, and the
        single oracle reads the PARQUET view (format independence,
        6 ways)."""
        a = jsonl_source_stats(sf_dir)
        b = csv_source_stats(sf_dir)
        c = _roundtrip_source_stats(sf_dir, "orc")
        z = _roundtrip_source_stats(sf_dir, "jsonl.zst")
        i = _roundtrip_source_stats(sf_dir, "ipc")
        pd.testing.assert_frame_equal(a, b)
        pd.testing.assert_frame_equal(a, c)
        pd.testing.assert_frame_equal(a, z)
        pd.testing.assert_frame_equal(a, i)
        return a
    q["export_roundtrip_stats"] = export_roundtrip_stats

    def user_activity(sf_dir):
        """Sessionization (order-sensitive per-key gap windows) JOINED
        with the sliding-window-CM trailing counts per user (merged r4;
        the window geometry keeps the sketch exact, so the join is
        fully SQL-oracled)."""
        us = user_sessions(sf_dir)
        us = us if isinstance(us, pd.DataFrame) else us.to_pandas()
        sw = sliding_window_user_counts(sf_dir)
        out = us.merge(sw, on="user_id", how="inner")
        assert len(out) == len(sw)
        return out.sort_values("user_id").reset_index(drop=True)
    q["user_sessions"] = user_activity

    def orders_rollups(sf_dir):
        """Broadcast-join rollup (orders x customer by segment) and
        large x large shuffle-hash-join rollup (orders x lineitem by
        priority) in one long-format result (merged r4)."""
        a = orders_by_segment(sf_dir)
        b = order_priority_revenue(sf_dir)
        rows = pd.concat([
            pd.DataFrame({"group_kind": "segment",
                          "group_key": a["c_mktsegment"],
                          "n": a["n_orders"].astype(np.int64),
                          "amount": a["total_price"]}),
            pd.DataFrame({"group_kind": "priority",
                          "group_key": b["o_orderpriority"],
                          "n": b["n_items"].astype(np.int64),
                          "amount": b["revenue"]}),
        ], ignore_index=True)
        return rows.sort_values(["group_kind", "group_key"],
                                ignore_index=True)
    q["orders_rollups"] = orders_rollups

    def dedup_exact_both(sf_dir):
        """Exact dedup in BOTH identity domains (merged r4): document
        text content hash, and the raw int32 token-buffer hash over the
        sequences table (planted '-dup' copies)."""
        a = dedup_exact(sf_dir)
        a = a if isinstance(a, pd.DataFrame) else a.to_pandas()
        a = a.assign(variant="documents")
        a["doc_id"] = a["doc_id"].astype(str)
        b = dedup_exact_sequences(sf_dir).assign(variant="sequences")

        # round-4.2 cross-corpus invariant: dedup_against must drop
        # exactly the rows whose content also appears in a reference —
        # documents vs themselves leaves nothing; vs a disjoint-salted
        # copy leaves everything
        import pyarrow as _pa

        from ocm_ray.ops.dedup import dedup_against

        docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
        assert dedup_against(docs, docs, n_shards=8).count() == 0

        def salt(t: _pa.Table) -> _pa.Table:
            import pyarrow.compute as _pc
            return t.set_column(
                t.schema.get_field_index("text"), "text",
                _pc.binary_join_element_wise(t.column("text"),
                                             " __salt__", ""))
        salted = docs.map_batches(salt, batch_format="pyarrow")
        n_docs = docs.count()
        assert dedup_against(docs, salted, n_shards=8).count() == n_docs

        out = pd.concat([a[["variant", "doc_id", "n_copies"]],
                         b[["variant", "doc_id", "n_copies"]]],
                        ignore_index=True)
        return out.sort_values(["variant", "doc_id"], ignore_index=True)
    q["dedup_exact"] = dedup_exact_both

    def dup_ngram_all(sf_dir):
        """Cross-document repeated n-grams in BOTH domains (merged r4):
        word 5-grams over documents and token 4-grams over the
        sequences table — plus the round-4 positional-exchange plan
        re-running the words side with distributed=True and asserted
        frame-identical (the unbounded-dup-vocabulary path)."""
        from ocm_ray.ops.dedup import dup_ngram_stats

        a = dup_ngram_spans(sf_dir)
        a2 = dup_ngram_stats(
            _read(sf_dir, "documents", columns=["doc_id", "text"]),
            k=5, min_docs=2, distributed=True, n_shards=16).to_pandas()             .sort_values("doc_id").reset_index(drop=True)
        pd.testing.assert_frame_equal(a, a2)
        b = token_dup_ngrams(sf_dir)
        a = a.assign(variant="words")
        a["doc_id"] = a["doc_id"].astype(str)
        b = b.assign(variant="tokens")
        cols = ["variant", "doc_id", "n_grams", "n_dup_grams",
                "n_distinct_dup_grams", "max_dup_run"]
        return pd.concat([a[cols], b[cols]], ignore_index=True)             .sort_values(["variant", "doc_id"], ignore_index=True)
    q["dup_ngram_spans"] = dup_ngram_all

    def dup_span_removal(sf_dir):
        """Exact-substring span REMOVAL (Lee et al. 2021 rewrite step —
        `dup_ngram_spans` measures, this one edits): maximal runs of
        word 5-grams shared with >= 2 documents whose span covers >= 6
        words are cut from EVERY occurrence; returns the rewritten text
        plus removal stats per doc. The unbounded-vocabulary positional
        two-exchange plan re-runs the same removal with
        distributed=True and is asserted frame-identical."""
        import pandas as pd

        from ocm_ray.ops.dedup import remove_dup_spans

        out = remove_dup_spans(
            _read(sf_dir, "documents", columns=["doc_id", "text"]),
            k=5, min_docs=2, min_span=6).to_pandas() \
            .sort_values("doc_id").reset_index(drop=True)
        out2 = remove_dup_spans(
            _read(sf_dir, "documents", columns=["doc_id", "text"]),
            k=5, min_docs=2, min_span=6, distributed=True,
            n_shards=16).to_pandas() \
            .sort_values("doc_id").reset_index(drop=True)
        pd.testing.assert_frame_equal(out, out2)
        assert int(out.n_spans_removed.sum()) > 0, \
            "corpus must exercise removal"
        return out
    q["dup_span_removal"] = dup_span_removal

    def ngram_counts_seq(sf_dir):
        """Exact n-gram count tables over the sequences tokens (merged
        r4): top-200 trigrams (with the conservative-CM one-sided
        assert inside) and top-50 bigrams, long format (t2 = -1 on the
        bigram rows)."""
        tri = kgram3_counts(sf_dir)
        bi = bigram_top50(sf_dir)
        bi = bi if isinstance(bi, pd.DataFrame) else bi.to_pandas()
        rows = pd.concat([
            pd.DataFrame({"variant": "tri",
                          "t0": tri["t0"].astype(np.int64),
                          "t1": tri["t1"].astype(np.int64),
                          "t2": tri["t2"].astype(np.int64),
                          "cnt": tri["cnt"].astype(np.int64)}),
            pd.DataFrame({"variant": "bi",
                          "t0": bi["a"].astype(np.int64),
                          "t1": bi["b"].astype(np.int64),
                          "t2": np.full(len(bi), -1, np.int64),
                          "cnt": bi["cnt"].astype(np.int64)}),
        ], ignore_index=True)
        return rows.sort_values(["variant", "cnt", "t0", "t1", "t2"],
                                ascending=[True, False, True, True, True],
                                ignore_index=True)
    q["ngram_counts_seq"] = ngram_counts_seq

    def exact_distincts(sf_dir):
        """Exact distinct counts, long format (merged r4): global
        distinct event users + per-source distinct tokens (with the
        HLL-estimate assertions inside distinct_tokens_by_source)."""
        u = distinct_users(sf_dir)
        t = distinct_tokens_by_source(sf_dir)
        rows = [("events:users", int(u["distinct_users"].iloc[0]))]
        rows += [("tokens:" + r["source"], int(r["distinct_tokens"]))
                 for _, r in t.iterrows()]
        return pd.DataFrame(rows, columns=["scope", "n_distinct"])             .sort_values("scope", ignore_index=True)
    q["exact_distincts"] = exact_distincts

    def pmi_top50(sf_dir):
        """Collocations: top-50 adjacent pairs by PMI over the bigram
        stream (marginals from the same stream), count >= 5."""
        from ocm_ray.ops.text import top_pmi_pairs

        return top_pmi_pairs(
            _read(sf_dir, "documents", columns=["text"]),
            k=50, min_count=5)
    q["pmi_top50"] = pmi_top50

    return q


# --------------------------------------------------------------------------
# oracles


def _wanghash_sql(src: str, carry: str, xor_const: int) -> str:
    """CTE chain computing ``u = wanghash(id ^ xor_const) / 2^64`` in
    DuckDB, bit-exact vs ``core.hashing.wanghash`` (tested): multiplies/
    adds in HUGEINT mod 2^64, xors in signed-BIGINT two's-complement
    (bit-identical), right shifts as integer division. ``src`` is a
    relation exposing an integer ``doc_id`` plus the ``carry`` columns;
    the result relation ``wh`` exposes carry columns + ``u`` DOUBLE."""
    # one generator for the 7-step chain (_sql_wang_chain) — only the
    # seed-xor prologue and the final u = k / 2^64 division live here
    cs = _sql_signed(xor_const)
    chain, rel = _sql_wang_chain("s", "s0", carry, "k")
    return f"""
        s0 AS (SELECT {carry},
                      {_sql_to_huge(f'xor(doc_id, CAST({cs} AS BIGINT))')} AS k
               FROM {src}),{chain},
        wh AS (SELECT {carry}, CAST(k AS DOUBLE) / {_M64}.0 AS u FROM {rel})
    """


def _mix_split_sql() -> str:
    """DuckDB oracle for ``corpus_mix_split``: the engine's stratified
    sample + hash-range split are pure functions of
    ``wanghash(doc_id ^ SPLIT_SALT ^ 137) / 2^64`` (``ops/sampling.py``),
    so split membership is SQL-exact. Boundary doubles are embedded at
    full precision (repr of the engine's np.cumsum bounds); the
    ``u < 1.0`` guard reproduces the engine's drop of ids whose hash
    rounds to exactly 1.0."""
    from ocm_ray.ops.sampling import _SPLIT_SALT

    seed = 137
    bounds = np.concatenate([[0.0], np.cumsum([0.8, 0.1]), [1.0]])
    b1, b2 = repr(float(bounds[1])), repr(float(bounds[2]))
    chain = _wanghash_sql("documents", "doc_id, source", _SPLIT_SALT ^ seed)
    return f"""
        WITH {chain},
        mixed AS (
            SELECT source, u FROM wh
            WHERE u < CASE WHEN source = 'src0' THEN 0.5 ELSE 1.0 END
        )
        SELECT CASE WHEN u < {b1} THEN 'train'
                    WHEN u < {b2} THEN 'val' ELSE 'test' END AS split,
               source, CAST(COUNT(*) AS BIGINT) AS n_docs
        FROM mixed WHERE u < 1.0
        GROUP BY 1, 2
        ORDER BY split, source
    """


_M64, _H63 = 1 << 64, 1 << 63


def _sql_signed(v: int) -> int:
    """Python int in [0,2^64) → the BIGINT two's-complement literal."""
    return v - _M64 if v >= _H63 else v


def _sql_to_huge(x: str) -> str:
    """Signed-BIGINT expression → HUGEINT in [0, 2^64)."""
    return (f"(CASE WHEN ({x}) < 0 THEN CAST(({x}) AS HUGEINT) + {_M64} "
            f"ELSE CAST(({x}) AS HUGEINT) END)")


def _sql_to_signed(k: str) -> str:
    """HUGEINT in [0,2^64) → signed BIGINT (two's complement, bit-identical)."""
    return (f"CAST(CASE WHEN ({k}) >= {_H63} THEN ({k}) - {_M64} "
            f"ELSE ({k}) END AS BIGINT)")


def _sql_wang_chain(prefix: str, src: str, carry: str,
                    incol: str) -> tuple[str, str]:
    """CTE chain applying ``core.hashing.wanghash`` to HUGEINT column
    ``incol`` of relation ``src`` (bit-exact: HUGEINT mod-2^64 mul/add,
    signed-BIGINT xor, right shift = integer division). Returns
    ``(ctes, final_rel)``; the final relation exposes the ``carry``
    columns + ``k`` in [0, 2^64)."""
    def xs(prev: str, shift: int) -> str:
        x = f"xor({_sql_to_signed('k')}, CAST(k // {1 << shift} AS BIGINT))"
        return f"SELECT {carry}, {_sql_to_huge(x)} AS k FROM {prev}"

    p, M = prefix, _M64
    sql = f"""
        {p}1 AS (SELECT {carry}, ({M - 1} - {incol} + {incol} * 2097152) % {M} AS k FROM {src}),
        {p}2 AS ({xs(p + '1', 24)}),
        {p}3 AS (SELECT {carry}, (k * 265) % {M} AS k FROM {p}2),
        {p}4 AS ({xs(p + '3', 14)}),
        {p}5 AS (SELECT {carry}, (k * 21) % {M} AS k FROM {p}4),
        {p}6 AS ({xs(p + '5', 28)}),
        {p}7 AS (SELECT {carry}, (k * 2147483649) % {M} AS k FROM {p}6)"""
    return sql, f"{p}7"


def _sql_word_hash(src: str, carry: str, seed: int = 137,
                   prefix: str = "") -> tuple[str, str]:
    """CTE chain computing the engine's stable word hash
    (``core.hashing.stable_hash_bytes``) for varchar column ``w`` of
    relation ``src``: one little-endian 8-byte zero-padded chunk xor'd
    with the precomputed ``wang(0 ^ CHUNK_SEED)``, wang'd, xor'd with
    the precomputed ``wang(len ^ seed)``, wang'd again. Words longer
    than 8 bytes would need a second chunk — their ``len`` is poisoned
    to NULL so a violated assumption mismatches instead of silently
    hashing wrong. ``ord('')`` is -1 in DuckDB, hence the length gate
    on every byte. Returns ``(ctes, final_rel)`` exposing carry + ``k``."""
    from ocm_ray.core.hashing import _CHUNK_SEED, wanghash_scalar

    k0 = _sql_signed(wanghash_scalar(int(np.uint64(0) ^ np.uint64(_CHUNK_SEED))))
    lut = " ".join(
        f"WHEN {L} THEN CAST("
        f"{_sql_signed(wanghash_scalar(int(np.uint64(L) ^ np.uint64(seed))))}"
        f" AS BIGINT)" for L in range(9))
    chunk = " + ".join(
        f"(CASE WHEN length(w) >= {i + 1} THEN "
        f"CAST(ord(substr(w, {i + 1}, 1)) AS HUGEINT) ELSE 0::HUGEINT END)"
        f" * {1 << (8 * i)}::HUGEINT" for i in range(8))
    p = prefix
    inner_sql, inner_rel = _sql_wang_chain(
        f"{p}ci", f"{p}cx", f"{carry}, len", "cxk")
    outer_sql, outer_rel = _sql_wang_chain(f"{p}co", f"{p}ox", carry, "oxk")
    sql = f"""
    {p}w0 AS (
        SELECT {carry},
               CASE WHEN length(w) > 8 THEN NULL ELSE length(w) END AS len,
               {chunk} AS c
        FROM {src}
    ),
    {p}cx AS (SELECT {carry}, len,
                  {_sql_to_huge(f"xor({_sql_to_signed('c')}, CAST({k0} AS BIGINT))")} AS cxk
           FROM {p}w0),
    {inner_sql},
    {p}ox AS (SELECT {carry},
                  {_sql_to_huge(f"xor({_sql_to_signed('CASE WHEN len = 0 THEN 0 ELSE k END')}, "
                                f"(CASE len {lut} END))")} AS oxk
           FROM {inner_rel}),
    {outer_sql}"""
    return sql, outer_rel


def _dsir_sql(feat_bits: int = 16, targets=("src0", "src1")) -> str:
    """DuckDB oracle for ``dsir_importance``: the whole DSIR scoring
    pipeline is a pure function of the texts — word hashes
    (``_sql_word_hash``) → chained-wang bigram hashes → top-bit
    buckets → target/raw bucket counts → per-doc integer n_feats /
    n_target_heavy (HUGEINT cross-multiply, exact) and the ROUND(4)
    log-likelihood-ratio score (same expression shape as the engine;
    ROUND absorbs summation-order ulps, the bm25_top20 contract)."""
    B = 1 << feat_bits
    div = 1 << (64 - feat_bits)
    tlist = ", ".join(f"'{t}'" for t in targets)
    hash_sql, hash_rel = _sql_word_hash("words", "doc_id, pos")
    ga_sql, ga_rel = _sql_wang_chain("ga", "g0", "doc_id, pos, h1", "gk")
    gb_sql, gb_rel = _sql_wang_chain("gb", "gx1", "doc_id, pos", "gk")
    x1 = _sql_to_huge(f"xor({_sql_to_signed('k')}, {_sql_to_signed('h1')})")
    return f"""
    WITH words AS (
        SELECT doc_id, j - 1 AS pos, ws[j] AS w
        FROM (SELECT doc_id, string_split(lower(text), ' ') AS ws
              FROM documents),
             UNNEST(range(1, len(ws) + 1)) AS t(j)
    ),
    {hash_sql},
    leads AS (
        SELECT doc_id, pos, k AS h0,
               LEAD(k, 1) OVER (PARTITION BY doc_id ORDER BY pos) AS h1
        FROM {hash_rel}
    ),
    g0 AS (SELECT doc_id, pos, h1, {_sql_to_huge('h0')} AS gk
           FROM leads WHERE h1 IS NOT NULL),
    {ga_sql},
    gx1 AS (SELECT doc_id, pos, {x1} AS gk FROM {ga_rel}),
    {gb_sql},
    grams AS (SELECT doc_id, CAST(gk // {div} AS BIGINT) AS b
              FROM (SELECT doc_id, k AS gk FROM {gb_rel})),
    tgt AS (SELECT doc_id, (source IN ({tlist})) AS is_t FROM documents),
    occ AS MATERIALIZED (SELECT grams.doc_id, b, is_t
            FROM grams JOIN tgt ON grams.doc_id = tgt.doc_id),
    cnt AS MATERIALIZED (SELECT b,
                   CAST(SUM(CASE WHEN is_t THEN 1 ELSE 0 END) AS BIGINT)
                       AS t,
                   CAST(SUM(CASE WHEN is_t THEN 0 ELSE 1 END) AS BIGINT)
                       AS r
            FROM occ GROUP BY b),
    tot AS (SELECT SUM(t) AS tt, SUM(r) AS rr FROM cnt),
    scored AS (
        SELECT occ.doc_id,
               CAST(COUNT(*) AS BIGINT) AS n_feats,
               CAST(SUM(CASE WHEN
                        (2 * CAST(c.t AS HUGEINT) + 1)
                            * (2 * CAST(tot.rr AS HUGEINT) + {B})
                        > (2 * CAST(c.r AS HUGEINT) + 1)
                            * (2 * CAST(tot.tt AS HUGEINT) + {B})
                        THEN 1 ELSE 0 END) AS BIGINT) AS n_target_heavy,
               SUM(ln(2 * c.t + 1.0) - ln(2 * c.r + 1.0))
                   + COUNT(*) * (ln(2 * tot.rr + {B}.0)
                                 - ln(2 * tot.tt + {B}.0)) AS score
        FROM occ JOIN cnt c ON occ.b = c.b, tot
        GROUP BY occ.doc_id, tot.tt, tot.rr
    )
    SELECT d.doc_id,
           CAST(COALESCE(s.n_feats, 0) AS BIGINT) AS n_feats,
           CAST(COALESCE(s.n_target_heavy, 0) AS BIGINT) AS n_target_heavy,
           ROUND(COALESCE(s.score, 0.0), 4) AS dsir_score
    FROM documents d LEFT JOIN scored s ON d.doc_id = s.doc_id
    ORDER BY d.doc_id
    """


def _token_dup_ngrams_sql(k: int = 4) -> str:
    """DuckDB oracle for ``token_dup_ngrams``: chained-wang token
    k-gram hashes recomputed over the sequences table (``k`` wang-chain
    instances over LEAD-windowed token ids), then the same dup-set /
    per-doc stats / gaps-and-islands max-run shape as
    ``dup_ngram_spans``. Hash-domain == id-window domain absent 64-bit
    collisions (the engine's documented contract)."""
    leads = ", ".join(
        f"LEAD(tok, {j}) OVER (PARTITION BY doc_id ORDER BY pos) AS t{j}"
        for j in range(1, k))
    carry0 = ", ".join(["doc_id", "pos"] + [f"t{j}" for j in range(1, k)])
    ctes, rel = [], None
    src = "g0"
    for j in range(1, k + 1):
        carry = ", ".join(["doc_id", "pos"] + [f"t{i}" for i in range(j, k)])
        sql, rel = _sql_wang_chain(f"tg{j}", src, carry, "gk")
        ctes.append(sql)
        if j < k:
            x = _sql_to_huge(f"xor({_sql_to_signed('k')}, "
                             f"CAST(t{j} AS BIGINT))")
            ctes.append(f"tgx{j} AS (SELECT {carry.replace(f't{j}, ', '', 1)}"
                        f", {x} AS gk FROM {rel})")
            src = f"tgx{j}"
    chain_sql = ",\n    ".join(ctes)
    return f"""
    WITH seq AS (
        SELECT doc_id, tokens FROM read_parquet('{_SEQ_SF01_DIR}/*.parquet')
        WHERE doc_id LIKE '%0'
    ),
    toks AS (
        SELECT doc_id, j - 1 AS pos, tokens[j] AS tok
        FROM seq, UNNEST(range(1, len(tokens) + 1)) AS u(j)
    ),
    leads AS (SELECT doc_id, pos, tok AS t0, {leads} FROM toks),
    g0 AS (SELECT {carry0}, {_sql_to_huge('t0')} AS gk
           FROM leads WHERE t{k - 1} IS NOT NULL),
    {chain_sql},
    grams AS MATERIALIZED (SELECT doc_id, pos, k AS g FROM {rel}),
    dup AS MATERIALIZED (
        SELECT g FROM grams GROUP BY g
        HAVING COUNT(DISTINCT doc_id) >= 2
    ),
    hits AS MATERIALIZED (
        SELECT grams.doc_id, grams.pos, grams.g,
               (dup.g IS NOT NULL) AS hit
        FROM grams LEFT JOIN dup ON grams.g = dup.g
    ),
    agg AS (
        SELECT doc_id, COUNT(*) AS n_grams,
               SUM(CASE WHEN hit THEN 1 ELSE 0 END) AS n_dup,
               COUNT(DISTINCT CASE WHEN hit THEN g END) AS n_dist
        FROM hits GROUP BY doc_id
    ),
    islands AS (
        SELECT doc_id, grp, COUNT(*) AS run_len
        FROM (SELECT doc_id, pos,
                     pos - ROW_NUMBER() OVER (PARTITION BY doc_id
                                              ORDER BY pos) AS grp
              FROM hits WHERE hit)
        GROUP BY doc_id, grp
    ),
    runs AS (SELECT doc_id, MAX(run_len) AS max_run
             FROM islands GROUP BY doc_id)
    SELECT s.doc_id,
           CAST(COALESCE(a.n_grams, 0) AS BIGINT) AS n_grams,
           CAST(COALESCE(a.n_dup, 0) AS BIGINT) AS n_dup_grams,
           CAST(COALESCE(a.n_dist, 0) AS BIGINT) AS n_distinct_dup_grams,
           CAST(COALESCE(r.max_run, 0) AS BIGINT) AS max_dup_run
    FROM seq s
    LEFT JOIN agg a ON s.doc_id = a.doc_id
    LEFT JOIN runs r ON s.doc_id = r.doc_id
    ORDER BY s.doc_id
    """


def _modvac_sql(log2_mod: int = 8, n_levels: int = 4,
                seedseed: int = 137) -> str:
    """DuckDB oracle for ``modvac_distinct_by_source``: mod-sample
    membership and VAC level populations are pure functions of the wang
    hash — two chains (mod seed, vac salt), divisibility tests, and
    COUNT(DISTINCT) per source recompute every returned integer."""
    from ocm_ray.sketches.modvac import _VAC_SALT

    vac_xor = int(_VAC_SALT ^ np.uint64(seedseed))
    m = 1 << log2_mod
    mchain, mrel = _sql_wang_chain("mm", "mx", "source, tok", "xk")
    vchain, vrel = _sql_wang_chain("vv", "vx", "source, tok", "xk")
    lvl_cols = ", ".join(
        f"COUNT(DISTINCT CASE WHEN vk % {1 << i} = 0 THEN tok END)"
        f" AS n_l{i + 1}" for i in range(n_levels))
    return f"""
    WITH toks AS MATERIALIZED (
        SELECT DISTINCT source, tok
        FROM (SELECT source, unnest(tokens) AS tok
              FROM read_parquet('{_SEQ_SF01_DIR}/*.parquet'))
    ),
    mx AS (SELECT source, tok,
                  {_sql_to_huge(f"xor(CAST(tok AS BIGINT), {seedseed})")}
                      AS xk FROM toks),
    {mchain},
    vx AS (SELECT source, tok,
                  {_sql_to_huge(f"xor(CAST(tok AS BIGINT), "
                                f"{_sql_signed(vac_xor)})")} AS xk
           FROM toks),
    {vchain},
    mk AS MATERIALIZED (SELECT source, tok, k AS mk FROM {mrel}),
    vk AS MATERIALIZED (SELECT source, tok, k AS vk FROM {vrel}),
    j AS (SELECT mk.source, mk.tok, mk.mk, vk.vk
          FROM mk JOIN vk ON mk.source = vk.source AND mk.tok = vk.tok)
    SELECT source,
           CAST(COUNT(DISTINCT tok) AS BIGINT) AS n_distinct,
           CAST(COUNT(DISTINCT CASE WHEN mk % {m} = 0 THEN mk // {m} END)
                AS BIGINT) AS mod_sampled,
           CAST({m} * COUNT(DISTINCT CASE WHEN mk % {m} = 0
                                          THEN mk // {m} END)
                AS BIGINT) AS mod_est,
           {lvl_cols}
    FROM j GROUP BY source ORDER BY source
    """


def _simhash_sql() -> str:
    """DuckDB oracle for ``simhash_fingerprints``: recompute the engine's
    64-bit SimHash end-to-end in SQL. The engine fingerprint
    (``ops/dedup.py:simhash_fingerprints``) is a pure function of the
    text: lowercase, split on spaces, hash each word with the in-repo
    stable codec (``_sql_word_hash``), sign-sum the 64 bit columns and
    take the majority bit."""
    H, M = _H63, _M64
    hash_sql, hash_rel = _sql_word_hash("words", "doc_id, wid")
    bit_cols = ",\n          ".join(
        f"SUM(CASE WHEN (k // {1 << b}::HUGEINT) % 2 = 1 THEN 1 ELSE -1 END)"
        f" AS b{b}" for b in range(64))
    fp_sum = " + ".join(
        f"(CASE WHEN b{b} > 0 THEN {1 << b}::HUGEINT ELSE 0::HUGEINT END)"
        for b in range(64))
    return f"""
    WITH words AS (
        SELECT doc_id, ROW_NUMBER() OVER () AS wid,
               UNNEST(string_split(lower(text), ' ')) AS w
        FROM documents
    ),
    {hash_sql},
    bits AS (
        SELECT doc_id,
          {bit_cols}
        FROM {hash_rel} GROUP BY doc_id
    )
    SELECT doc_id,
           CAST(CASE WHEN fu >= {H}::HUGEINT THEN fu - {M}::HUGEINT ELSE fu END AS BIGINT) AS simhash
    FROM (SELECT doc_id, {fp_sum} AS fu FROM bits)
    ORDER BY doc_id
    """


def _winnow_sql(k: int = 3, window: int = 4) -> str:
    """DuckDB oracle for ``winnow_fingerprints``: recompute the MOSS
    winnowing selection exactly. Word positions come from explicit list
    indexing (UNNEST order is not relied on); word hashes from
    ``_sql_word_hash``; the k-gram hash is the engine's chained-WangHash
    window reduction (``engine/tokens.py:kgram_reduce``: ``wang(h0)``
    then ``wang(acc ^ h_j)``) built from LEAD window functions plus
    ``k-1`` more wang chains; winnowing is a windowed MIN over full
    windows with the leftmost position of the minimum (the engine's
    argmin tie-break) recovered by a bounded self-join."""
    assert k == 3, "oracle generator written for the k=3 query shape"
    W = window
    hash_sql, hash_rel = _sql_word_hash("words", "doc_id, pos")
    ga_sql, ga_rel = _sql_wang_chain("ga", "g0", "doc_id, pos, h1, h2", "gk")
    gb_sql, gb_rel = _sql_wang_chain("gb", "gx1", "doc_id, pos, h2", "gk")
    gc_sql, gc_rel = _sql_wang_chain("gc", "gx2", "doc_id, pos", "gk")
    x1 = _sql_to_huge(f"xor({_sql_to_signed('k')}, {_sql_to_signed('h1')})")
    x2 = _sql_to_huge(f"xor({_sql_to_signed('k')}, {_sql_to_signed('h2')})")
    return f"""
    WITH words AS (
        SELECT doc_id, j - 1 AS pos, ws[j] AS w
        FROM (SELECT doc_id, string_split(lower(text), ' ') AS ws
              FROM documents),
             UNNEST(range(1, len(ws) + 1)) AS t(j)
    ),
    {hash_sql},
    leads AS (
        SELECT doc_id, pos, k AS h0,
               LEAD(k, 1) OVER (PARTITION BY doc_id ORDER BY pos) AS h1,
               LEAD(k, 2) OVER (PARTITION BY doc_id ORDER BY pos) AS h2
        FROM {hash_rel}
    ),
    g0 AS (SELECT doc_id, pos, h1, h2, h0 AS gk FROM leads
           WHERE h2 IS NOT NULL),
    {ga_sql},
    gx1 AS (SELECT doc_id, pos, h2, {x1} AS gk FROM {ga_rel}),
    {gb_sql},
    gx2 AS (SELECT doc_id, pos, {x2} AS gk FROM {gb_rel}),
    {gc_sql},
    grams AS (SELECT doc_id, pos, k AS g FROM {gc_rel}),
    wins AS (
        SELECT doc_id, pos, MIN(g) OVER w AS mn, COUNT(*) OVER w AS cnt
        FROM grams
        WINDOW w AS (PARTITION BY doc_id ORDER BY pos
                     ROWS BETWEEN CURRENT ROW AND {W - 1} FOLLOWING)
    ),
    sel AS (
        SELECT f.doc_id, MIN(g2.pos) AS pos, f.mn
        FROM (SELECT * FROM wins WHERE cnt = {W}) f
        JOIN grams g2 ON g2.doc_id = f.doc_id
         AND g2.pos BETWEEN f.pos AND f.pos + {W - 1} AND g2.g = f.mn
        GROUP BY f.doc_id, f.pos, f.mn
    )
    SELECT DISTINCT doc_id, pos, {_sql_to_signed('mn')} AS fp
    FROM sel
    ORDER BY doc_id, pos
    """


def _sample_per_key_sql(n: int = 8, seed: int = 137) -> str:
    """DuckDB oracle for ``sample_per_source``: the engine keeps the n
    smallest ``wanghash(doc_id ^ SPLIT_SALT ^ seed)`` per source —
    recompute the EXACT uint64 hash via :func:`_sql_wang_chain` (not
    the lossy double ``u``) and take ROW_NUMBER over (k, doc_id)."""
    from ocm_ray.ops.sampling import _SPLIT_SALT

    salt = _sql_signed(_SPLIT_SALT ^ seed)
    chain, rel = _sql_wang_chain("sp", "spx", "doc_id, source", "xk")
    return f"""
        WITH spx AS (
            SELECT doc_id, source,
                   {_sql_to_huge(f"xor(doc_id, CAST({salt} AS BIGINT))")} AS xk
            FROM documents
        ),
        {chain}
        SELECT doc_id, source FROM (
            SELECT doc_id, source,
                   ROW_NUMBER() OVER (PARTITION BY source
                       ORDER BY k, doc_id) AS rn
            FROM {rel}
        ) WHERE rn <= {n}
        ORDER BY source, doc_id
    """


def _minhash_pairs_sql(num_perm: int = 128, bands: int = 32,
                       shingle_k: int = 3, threshold: float = 0.5,
                       seedseed: int = 137) -> str:
    """DuckDB oracle for ``minhash_dedup_pairs``: the whole MinHash-LSH
    pipeline is a pure function of the texts, so the pair set AND the
    estimated Jaccards are SQL-exact. Recomputed end to end: word
    hashes (``_sql_word_hash``) → chained-wang 3-shingles (the
    ``_winnow_sql`` gram construction) → per-permutation signature
    ``MIN(wang(g ^ seed_p))`` with the engine's empty-doc sentinel
    2^64−1 → per-band chained key with the band index mixed in
    (``ops/dedup.py:_band_keys``) → candidates join on exact key
    equality (globally, as the engine's flat run scan does) →
    ``jaccard`` = matching-component fraction (multiples of 1/num_perm:
    exact doubles on both sides)."""
    assert shingle_k == 3, "oracle generator written for k=3"
    from ocm_ray.core.hashing import derive_seeds

    rpb = num_perm // bands
    assert rpb == 4, "band pivot written for rows_per_band=4"
    seeds = derive_seeds(num_perm, seedseed)
    vals = ", ".join(f"({p}, CAST({_sql_signed(int(s))} AS BIGINT))"
                     for p, s in enumerate(seeds))
    max64 = f"CAST({_M64 - 1} AS HUGEINT)"

    hash_sql, hash_rel = _sql_word_hash("words", "doc_id, pos")
    ga_sql, ga_rel = _sql_wang_chain("ga", "g0", "doc_id, pos, h1, h2", "gk")
    gb_sql, gb_rel = _sql_wang_chain("gb", "gx1", "doc_id, pos, h2", "gk")
    gc_sql, gc_rel = _sql_wang_chain("gc", "gx2", "doc_id, pos", "gk")
    x1 = _sql_to_huge(f"xor({_sql_to_signed('k')}, {_sql_to_signed('h1')})")
    x2 = _sql_to_huge(f"xor({_sql_to_signed('k')}, {_sql_to_signed('h2')})")

    mh_sql, mh_rel = _sql_wang_chain("mh", "mhx", "doc_id, p", "xk")
    xg = _sql_to_huge(f"xor({_sql_to_signed('g')}, s)")

    ba_sql, ba_rel = _sql_wang_chain("ba", "bax", "doc_id, b, s2, s3", "xk")
    bb_sql, bb_rel = _sql_wang_chain("bb", "bbx", "doc_id, b, s3", "xk")
    bc_sql, bc_rel = _sql_wang_chain("bc", "bcx", "doc_id, b", "xk")
    bd_sql, bd_rel = _sql_wang_chain("bd", "bdx", "doc_id, b", "xk")
    xa = _sql_to_huge(f"xor({_sql_to_signed('s0')}, {_sql_to_signed('s1')})")
    xb = _sql_to_huge(f"xor({_sql_to_signed('k')}, {_sql_to_signed('s2')})")
    xc = _sql_to_huge(f"xor({_sql_to_signed('k')}, {_sql_to_signed('s3')})")
    xd = _sql_to_huge(f"xor({_sql_to_signed('k')}, "
                      f"CAST(b * {1 << 48} AS BIGINT))")

    return f"""
    WITH words AS (
        SELECT doc_id, j - 1 AS pos, ws[j] AS w
        FROM (SELECT doc_id, string_split(lower(text), ' ') AS ws
              FROM documents),
             UNNEST(range(1, len(ws) + 1)) AS t(j)
    ),
    {hash_sql},
    leads AS (
        SELECT doc_id, pos, k AS h0,
               LEAD(k, 1) OVER (PARTITION BY doc_id ORDER BY pos) AS h1,
               LEAD(k, 2) OVER (PARTITION BY doc_id ORDER BY pos) AS h2
        FROM {hash_rel}
    ),
    g0 AS (SELECT doc_id, pos, h1, h2, h0 AS gk FROM leads
           WHERE h2 IS NOT NULL),
    {ga_sql},
    gx1 AS (SELECT doc_id, pos, h2, {x1} AS gk FROM {ga_rel}),
    {gb_sql},
    gx2 AS (SELECT doc_id, pos, {x2} AS gk FROM {gb_rel}),
    {gc_sql},
    grams AS (SELECT doc_id, k AS g FROM {gc_rel}),
    seeds(p, s) AS (VALUES {vals}),
    mhx AS (SELECT doc_id, p, {xg} AS xk FROM grams CROSS JOIN seeds),
    {mh_sql},
    mins AS (SELECT doc_id, p, MIN(k) AS mn FROM {mh_rel}
             GROUP BY doc_id, p),
    sig AS (
        SELECT d.doc_id, s.p, COALESCE(m.mn, {max64}) AS v
        FROM (SELECT DISTINCT doc_id FROM documents) d
        CROSS JOIN seeds s
        LEFT JOIN mins m ON m.doc_id = d.doc_id AND m.p = s.p
    ),
    bt AS (
        SELECT doc_id, p // {rpb} AS b,
               MAX(CASE WHEN p % {rpb} = 0 THEN v END) AS s0,
               MAX(CASE WHEN p % {rpb} = 1 THEN v END) AS s1,
               MAX(CASE WHEN p % {rpb} = 2 THEN v END) AS s2,
               MAX(CASE WHEN p % {rpb} = 3 THEN v END) AS s3
        FROM sig GROUP BY doc_id, p // {rpb}
    ),
    bax AS (SELECT doc_id, b, s2, s3, {xa} AS xk FROM bt),
    {ba_sql},
    bbx AS (SELECT doc_id, b, s3, {xb} AS xk FROM {ba_rel}),
    {bb_sql},
    bcx AS (SELECT doc_id, b, {xc} AS xk FROM {bb_rel}),
    {bc_sql},
    bdx AS (SELECT doc_id, b, {xd} AS xk FROM {bc_rel}),
    {bd_sql},
    keys AS (SELECT doc_id, k FROM {bd_rel}),
    cand AS (
        SELECT DISTINCT x.doc_id AS a, y.doc_id AS b
        FROM keys x JOIN keys y ON x.k = y.k AND x.doc_id < y.doc_id
    ),
    est AS (
        SELECT cand.a, cand.b,
               COUNT(*) FILTER (sa.v = sb.v) / {float(num_perm)} AS jaccard
        FROM cand
        JOIN sig sa ON sa.doc_id = cand.a
        JOIN sig sb ON sb.doc_id = cand.b AND sb.p = sa.p
        GROUP BY cand.a, cand.b
    )
    SELECT a, b, jaccard FROM est
    WHERE jaccard >= {threshold}
    ORDER BY a, b
    """


def _cm_vanilla_sql(np_bits: int = 14, nh: int = 7, seedseed: int = 137,
                    n_query: int = 200) -> str:
    """DuckDB oracle for ``cm_vanilla_query``: vanilla CM estimates are
    a pure function of the stream multiset — cell(j, p) = SUM(cnt) over
    tokens with ``wang(tok ^ seed_j) % 2^np == p``, estimate = per-row
    MIN. Row seeds (``core.hashing.derive_seeds`` — mt19937_64(seed+4),
    ``include/ocm.h:273-274``) are inlined as literals. Query tokens
    ride along with cnt=0 so absent ids still get a position row."""
    from ocm_ray.core.hashing import derive_seeds, force_odd_nh

    seeds = derive_seeds(force_odd_nh(nh), seedseed)
    vals = ", ".join(f"({j}, CAST({_sql_signed(int(s))} AS BIGINT))"
                     for j, s in enumerate(seeds))
    chain, rel = _sql_wang_chain("cv", "cvx", "j, t, cnt", "xk")
    return f"""
        WITH toks AS (
            SELECT tok, CAST(COUNT(*) AS HUGEINT) AS cnt
            FROM (SELECT unnest(tokens) AS tok
                  FROM read_parquet('{_SEQ_SF01_DIR}/*.parquet'))
            GROUP BY tok
        ),
        allt AS (SELECT tok, cnt FROM toks
                 UNION ALL
                 SELECT unnest(range(0, {n_query})), 0::HUGEINT),
        seeds(j, s) AS (VALUES {vals}),
        cvx AS (SELECT j, allt.tok AS t, cnt,
                       {_sql_to_huge("xor(CAST(allt.tok AS BIGINT), s)")} AS xk
                FROM allt CROSS JOIN seeds),
        {chain},
        pos AS (SELECT j, t, cnt, k % {1 << np_bits} AS p FROM {rel}),
        cell AS (SELECT j, p, SUM(cnt) AS c FROM pos GROUP BY j, p)
        SELECT pos.t AS token, CAST(MIN(cell.c) AS BIGINT) AS est_count
        FROM pos JOIN cell ON pos.j = cell.j AND pos.p = cell.p
        WHERE pos.t < {n_query}
        GROUP BY pos.t
        ORDER BY token
    """


def _sketch_point_sql(np_bits: int = 14, nh: int = 5, seedseed: int = 137,
                      top_n: int = 1000) -> str:
    """DuckDB oracle for ``sketch_point_queries``: a top-``top_n`` token
    with a SINGLETON cell in >= 1 row has a provably exact conservative
    estimate under any partition order (see the query docstring), and
    singleton-ness is a pure function of the distinct-token set and the
    WangHash position chain — all SQL-expressible. The oracle recomputes
    the isolated subset and predicts est_count == true_count for both
    variants; any engine defect in the position mapping, conservative
    kernel, OCCM round gating, or the cellwise-sum merge breaks the
    hash. CTEs referenced more than once are MATERIALIZED (CLAUDE.md
    rule 10 — the wang chain would otherwise re-execute per reference)."""
    from ocm_ray.core.hashing import derive_seeds, force_odd_nh

    seeds = derive_seeds(force_odd_nh(nh), seedseed)
    vals = ", ".join(f"({j}, CAST({_sql_signed(int(s))} AS BIGINT))"
                     for j, s in enumerate(seeds))
    chain, rel = _sql_wang_chain("sp", "spx", "j, t", "xk")
    return f"""
        WITH toks AS MATERIALIZED (
            SELECT tok, CAST(COUNT(*) AS BIGINT) AS cnt
            FROM (SELECT unnest(tokens) AS tok
                  FROM read_parquet('{_SEQ_SF01_DIR}/*.parquet'))
            GROUP BY tok
        ),
        seeds(j, s) AS (VALUES {vals}),
        spx AS (SELECT j, toks.tok AS t,
                       {_sql_to_huge("xor(CAST(toks.tok AS BIGINT), s)")} AS xk
                FROM toks CROSS JOIN seeds),
        {chain},
        pos AS MATERIALIZED (SELECT j, t, k % {1 << np_bits} AS p
                             FROM {rel}),
        cellc AS (SELECT j, p, COUNT(*) AS n FROM pos GROUP BY j, p),
        iso AS (SELECT DISTINCT pos.t FROM pos
                JOIN cellc ON pos.j = cellc.j AND pos.p = cellc.p
                WHERE cellc.n = 1),
        top AS (SELECT tok, cnt FROM toks
                ORDER BY cnt DESC, tok LIMIT {top_n}),
        sel AS (SELECT tok, cnt FROM top
                WHERE tok IN (SELECT t FROM iso))
        SELECT v.variant, CAST(sel.tok AS BIGINT) AS token,
               sel.cnt AS true_count, sel.cnt AS est_count
        FROM (VALUES ('cm_conservative'), ('occm')) v(variant)
        CROSS JOIN sel
        ORDER BY variant, token
    """


def _hll_registers_sql(p: int = 12, seedseed: int = 137) -> str:
    """DuckDB oracle for ``hll_register_histogram``: register[idx] =
    MAX over distinct tokens of (64−p − bit_length(low bits) + 1) where
    ``idx`` is the top p bits of ``wang(tok ^ seedseed)`` — exact
    integer arithmetic via DuckDB ``bin()`` string length; untouched
    registers contribute the value-0 row (m − touched)."""
    m = 1 << p
    w = 64 - p
    chain, rel = _sql_wang_chain("hr", "hrx", "source", "xk")
    bl = ("CASE WHEN low = 0 THEN 0 "
          "ELSE length(bin(CAST(low AS BIGINT))) END")
    return f"""
        WITH toks AS (
            SELECT DISTINCT source, tok
            FROM (SELECT source, unnest(tokens) AS tok
                  FROM read_parquet('{_SEQ_SF01_DIR}/*.parquet'))
        ),
        hrx AS (SELECT source,
                       {_sql_to_huge(f"xor(CAST(tok AS BIGINT), {seedseed})")}
                           AS xk
                FROM toks),
        {chain},
        ir AS (SELECT source, k // {1 << w} AS idx, k % {1 << w} AS low
               FROM {rel}),
        regs AS (SELECT source, idx,
                        MAX({w} - {bl} + 1) AS v
                 FROM ir GROUP BY source, idx),
        hist AS (
            SELECT source, CAST(v AS BIGINT) AS reg_value,
                   CAST(COUNT(*) AS BIGINT) AS n_regs
            FROM regs GROUP BY source, v
            UNION ALL
            SELECT source, 0, CAST({m} - COUNT(*) AS BIGINT)
            FROM regs GROUP BY source HAVING COUNT(*) < {m}
        )
        SELECT source, reg_value, n_regs FROM hist
        ORDER BY source, reg_value
    """


def _bottomk_similarity_sql(k: int = 1024, seedseed: int = 137) -> str:
    """DuckDB oracle for ``minhash_source_similarity``: the bottom-k
    state is the k smallest distinct ``wang(tok ^ seedseed)`` per
    source, so the estimator's numerator |bottom-k(A∪B) ∩ A ∩ B| and
    denominator |bottom-k(A∪B)| are integer-exact; ``jaccard_milli``
    uses integer division on both sides (no float rounding anywhere)."""
    chain, rel = _sql_wang_chain("bk", "bkx", "source", "xk")
    return f"""
        WITH toks AS (
            SELECT DISTINCT source, tok
            FROM (SELECT source, unnest(tokens) AS tok
                  FROM read_parquet('{_SEQ_SF01_DIR}/*.parquet'))
        ),
        bkx AS (SELECT source,
                       {_sql_to_huge(f"xor(CAST(tok AS BIGINT), {seedseed})")}
                           AS xk
                FROM toks),
        {chain},
        ranked AS (SELECT source, k,
                          ROW_NUMBER() OVER (PARTITION BY source
                                             ORDER BY k) AS rn
                   FROM (SELECT DISTINCT source, k FROM {rel})),
        bk AS (SELECT source, k FROM ranked WHERE rn <= {k}),
        srcs AS (SELECT DISTINCT source FROM toks),
        pairs AS (SELECT x.source AS a, y.source AS b
                  FROM srcs x JOIN srcs y ON x.source < y.source),
        un AS (
            SELECT a, b, k FROM (
                SELECT a, b, k,
                       ROW_NUMBER() OVER (PARTITION BY a, b
                                          ORDER BY k) AS rn
                FROM (SELECT DISTINCT p.a, p.b, bk.k
                      FROM pairs p
                      JOIN bk ON bk.source IN (p.a, p.b))
            ) WHERE rn <= {k}
        ),
        stats AS (
            SELECT un.a, un.b,
                   CAST(COUNT(*) AS BIGINT) AS n_union,
                   CAST(COUNT(*) FILTER (ka.k IS NOT NULL
                                         AND kb.k IS NOT NULL)
                        AS BIGINT) AS n_inter
            FROM un
            LEFT JOIN bk ka ON ka.source = un.a AND ka.k = un.k
            LEFT JOIN bk kb ON kb.source = un.b AND kb.k = un.k
            GROUP BY un.a, un.b
        )
        SELECT a, b, n_inter, n_union,
               (1000 * n_inter) // GREATEST(n_union, 1) AS jaccard_milli
        FROM stats ORDER BY a, b
    """


def _cm_intersect_sql(np_bits: int = 18, nh: int = 5, seedseed: int = 137,
                      lo: int = 1, hi: int = 201) -> str:
    """DuckDB oracle for ``cm_set_algebra``: the vanilla-CM intersect
    estimate (``ccm.h:393-400`` cellwise min) is deterministic — per
    half (even/odd sequence files), cell(j,p) = SUM(cnt) of colliding
    tokens; estimate = MIN over rows of LEAST(cell_even, cell_odd).
    Query tokens ride along with cnt=0 in BOTH halves so every queried
    position exists even when untouched."""
    from ocm_ray.core.hashing import derive_seeds, force_odd_nh

    seeds = derive_seeds(force_odd_nh(nh), seedseed)
    vals = ", ".join(f"({j}, CAST({_sql_signed(int(s))} AS BIGINT))"
                     for j, s in enumerate(seeds))
    even = ", ".join(f"'{_SEQ_SF01_DIR}/part-0000{i}.parquet'"
                     for i in range(0, 8, 2))
    odd = ", ".join(f"'{_SEQ_SF01_DIR}/part-0000{i}.parquet'"
                    for i in range(1, 8, 2))
    chain, rel = _sql_wang_chain("ci", "cix", "h, j, t, cnt", "xk")
    return f"""
        WITH cnt_e AS (
            SELECT tok, CAST(COUNT(*) AS HUGEINT) AS cnt
            FROM (SELECT unnest(tokens) AS tok FROM read_parquet([{even}]))
            GROUP BY tok
        ),
        cnt_o AS (
            SELECT tok, CAST(COUNT(*) AS HUGEINT) AS cnt
            FROM (SELECT unnest(tokens) AS tok FROM read_parquet([{odd}]))
            GROUP BY tok
        ),
        qt AS (SELECT unnest(range({lo}, {hi})) AS tok),
        allt AS (
            SELECT 'e' AS h, tok, cnt FROM cnt_e
            UNION ALL SELECT 'o', tok, cnt FROM cnt_o
            UNION ALL SELECT 'e', tok, 0::HUGEINT FROM qt
            UNION ALL SELECT 'o', tok, 0::HUGEINT FROM qt
        ),
        seeds(j, s) AS (VALUES {vals}),
        cix AS (SELECT h, j, allt.tok AS t, cnt,
                       {_sql_to_huge("xor(CAST(allt.tok AS BIGINT), s)")} AS xk
                FROM allt CROSS JOIN seeds),
        {chain},
        pos AS (SELECT h, j, t, cnt, k % {1 << np_bits} AS p FROM {rel}),
        cell AS (SELECT h, j, p, SUM(cnt) AS c FROM pos GROUP BY h, j, p),
        qpos AS (SELECT DISTINCT j, t, p FROM pos
                 WHERE t >= {lo} AND t < {hi})
        SELECT qpos.t AS token,
               CAST(MIN(LEAST(ce.c, co.c)) AS BIGINT) AS inter_est
        FROM qpos
        JOIN cell ce ON ce.h = 'e' AND ce.j = qpos.j AND ce.p = qpos.p
        JOIN cell co ON co.h = 'o' AND co.j = qpos.j AND co.p = qpos.p
        GROUP BY qpos.t
        ORDER BY token
    """


def _bloom_member_sql(p: int = 20, nh: int = 5, seedseed: int = 137) -> str:
    """DuckDB oracle for ``bloom_membership``: a Bloom filter's probe
    result (false positives INCLUDED) is a pure function of the
    inserted key set — bit set = {wang(id ^ seed_j) % 2^p over inserted
    ids, all j}; probe is a member iff all nh of its positions are in
    the set. Seeds are ``mt19937_64(seedseed)`` draws
    (``sketches/bloom.py``), inlined as literals."""
    from ocm_ray.core.hashing import MT19937_64

    rng = MT19937_64(seedseed)
    vals = ", ".join(f"({j}, CAST({_sql_signed(rng())} AS BIGINT))"
                     for j in range(nh))
    chain, rel = _sql_wang_chain("bm", "bmx", "role, pid, j", "xk")
    return f"""
        WITH probes AS (
            SELECT unnest(range(1, 101)) AS id
            UNION ALL
            SELECT unnest(range(1000000000, 1000000100))
        ),
        seeds(j, s) AS (VALUES {vals}),
        bmx AS (SELECT role, u.id AS pid, j,
                       {_sql_to_huge("xor(CAST(u.id AS BIGINT), s)")} AS xk
                FROM (SELECT 'i' AS role, DISTINCT_KEYS.id FROM
                          (SELECT DISTINCT l_partkey AS id
                           FROM lineitem) DISTINCT_KEYS
                      UNION ALL
                      SELECT 'q', id FROM probes) u
                CROSS JOIN seeds),
        {chain},
        pos AS (SELECT role, pid, j, k % {1 << p} AS p FROM {rel}),
        bits AS (SELECT DISTINCT p FROM pos WHERE role = 'i'),
        hits AS (SELECT pid, COUNT(*) AS nhit
                 FROM pos JOIN bits USING (p)
                 WHERE role = 'q' GROUP BY pid)
        SELECT probes.id AS key, COALESCE(hits.nhit, 0) = {nh} AS member
        FROM probes LEFT JOIN hits ON probes.id = hits.pid
        ORDER BY key
    """


def oracle_sql() -> dict[str, str]:
    # doc_signals parts (merged r4): each per-document operator keeps
    # its ORIGINAL oracle; the composed query joins them on doc_id.
    _tc = """
            SELECT doc_id, len(string_split(text, ' ')) AS n_tokens FROM documents
        """
    _ts = """
            SELECT doc_id,
                   len(string_split(text, ' ')) AS n_tokens,
                   length(text) AS n_chars_text,
                   len(list_filter(string_split(lower(text), ' '),
                       x -> list_contains(['the','a','an','and','or','of','to',
                                           'in','is','are','was','were','be',
                                           'been','it','this','that','for','on',
                                           'with','as','at','by'], x))) AS n_stop
            FROM documents
        """
    _ce = """
            SELECT doc_id,
                   CAST(length(text) AS BIGINT) AS n_chars,
                   ROUND(COALESCE(ent, 0.0), 4) AS char_entropy
            FROM documents
            LEFT JOIN (
                SELECT doc_id, entropy(ch) AS ent
                FROM (SELECT doc_id, unnest(string_split(text, '')) AS ch
                      FROM documents)
                GROUP BY doc_id
            ) USING (doc_id)
            ORDER BY doc_id
        """
    _gq = """
            WITH c AS (
                SELECT doc_id,
                       CAST(len(ws) AS BIGINT) AS n_words,
                       CAST(length(text) - (len(ws) - 1) AS BIGINT) AS n_word_chars,
                       CAST((length(text) - length(replace(text, '#', '')))
                            + (length(text) - length(replace(text, '...', ''))) / 3
                            AS BIGINT) AS n_symbols,
                       CAST(len(list_filter(ws, x -> regexp_matches(x, '[A-Za-z]')))
                            AS BIGINT) AS n_alpha_words,
                       CAST((CASE WHEN list_contains(ws, 'the')  THEN 1 ELSE 0 END)
                          + (CASE WHEN list_contains(ws, 'be')   THEN 1 ELSE 0 END)
                          + (CASE WHEN list_contains(ws, 'to')   THEN 1 ELSE 0 END)
                          + (CASE WHEN list_contains(ws, 'of')   THEN 1 ELSE 0 END)
                          + (CASE WHEN list_contains(ws, 'and')  THEN 1 ELSE 0 END)
                          + (CASE WHEN list_contains(ws, 'that') THEN 1 ELSE 0 END)
                          + (CASE WHEN list_contains(ws, 'have') THEN 1 ELSE 0 END)
                          + (CASE WHEN list_contains(ws, 'with') THEN 1 ELSE 0 END)
                            AS BIGINT) AS n_req_stop
                FROM (SELECT doc_id, text, string_split(text, ' ') AS ws
                      FROM documents)
            )
            SELECT doc_id, n_words, n_word_chars, n_symbols, n_alpha_words,
                   n_req_stop,
                   (n_words BETWEEN 50 AND 100000)                    AS ok_word_count,
                   (3 * n_words <= n_word_chars
                    AND n_word_chars <= 10 * n_words)                 AS ok_mean_len,
                   (10 * n_symbols <= n_words)                        AS ok_symbol,
                   (5 * n_alpha_words >= 4 * n_words)                 AS ok_alpha,
                   (n_req_stop >= 2)                                  AS ok_stop,
                   ((n_words BETWEEN 50 AND 100000)
                    AND (3 * n_words <= n_word_chars
                         AND n_word_chars <= 10 * n_words)
                    AND (10 * n_symbols <= n_words)
                    AND (5 * n_alpha_words >= 4 * n_words)
                    AND (n_req_stop >= 2))                            AS keep
            FROM c
        """
    _gr = """
            WITH t AS (SELECT doc_id, length(text) AS n_chars,
                              string_split(lower(text), ' ') AS ws
                       FROM documents),
            g2 AS (SELECT doc_id, ws[j] || ' ' || ws[j + 1] AS g
                   FROM t, UNNEST(range(1, len(ws))) AS r(j)),
            a2 AS (SELECT doc_id, MAX(cnt * clen) AS top2
                   FROM (SELECT doc_id, COUNT(*) AS cnt, length(g) AS clen
                         FROM g2 GROUP BY doc_id, g)
                   GROUP BY doc_id),
            g3 AS (SELECT doc_id,
                          ws[j] || ' ' || ws[j + 1] || ' ' || ws[j + 2] AS g
                   FROM t, UNNEST(range(1, len(ws) - 1)) AS r(j)),
            a3 AS (SELECT doc_id, MAX(cnt * clen) AS top3,
                          SUM(CASE WHEN cnt > 1 THEN cnt * clen ELSE 0 END) AS dup3
                   FROM (SELECT doc_id, COUNT(*) AS cnt, length(g) AS clen
                         FROM g3 GROUP BY doc_id, g)
                   GROUP BY doc_id)
            SELECT t.doc_id,
                   CAST(n_chars AS BIGINT) AS n_chars,
                   CAST(COALESCE(top2, 0) AS BIGINT) AS top2_chars,
                   CAST(COALESCE(top3, 0) AS BIGINT) AS top3_chars,
                   CAST(COALESCE(dup3, 0) AS BIGINT) AS dup3_chars,
                   (5 * COALESCE(top2, 0) <= n_chars)       AS ok_top2,
                   (50 * COALESCE(top3, 0) <= 9 * n_chars)  AS ok_top3,
                   (5 * COALESCE(dup3, 0) <= 3 * n_chars)   AS ok_dup3,
                   ((5 * COALESCE(top2, 0) <= n_chars)
                    AND (50 * COALESCE(top3, 0) <= 9 * n_chars)
                    AND (5 * COALESCE(dup3, 0) <= 3 * n_chars)) AS keep
            FROM t LEFT JOIN a2 USING (doc_id) LEFT JOIN a3 USING (doc_id)
        """
    _ul = """
            WITH words AS (
                SELECT doc_id, unnest(string_split(text, ' ')) AS w
                FROM documents
            ),
            cnts AS (SELECT w, COUNT(*) AS c FROM words GROUP BY w),
            tot AS (SELECT SUM(c) AS t FROM cnts)
            SELECT doc_id, ROUND(AVG(log2(CAST(c AS DOUBLE) / t)), 4) AS logprob
            FROM words JOIN cnts USING (w), tot
            GROUP BY doc_id
        """
    _bl = """
            WITH t AS (SELECT doc_id, string_split(text, ' ') AS ws
                       FROM documents),
            bg AS (SELECT doc_id, ws[j] AS w1, ws[j + 1] AS w2
                   FROM t, UNNEST(range(1, len(ws))) AS r(j)),
            bc AS (SELECT w1, w2, COUNT(*) AS cb FROM bg GROUP BY w1, w2),
            ctx AS (SELECT w1, COUNT(*) AS cc FROM bg GROUP BY w1)
            SELECT doc_id,
                   ROUND(AVG(log2(CAST(cb AS DOUBLE) / cc)), 4) AS logprob
            FROM bg JOIN bc USING (w1, w2) JOIN ctx USING (w1)
            GROUP BY doc_id
            ORDER BY doc_id
        """
    # Interpolated Kneser-Ney bigram LM (ops/text.py:kn_bigram_logprob):
    # fixed D=0.75; type counts n1f/n1b and totals all from the one
    # bigram-type table; identical float expression shape, ROUND(4)
    # both sides. MATERIALIZED: bgo/bg feed multiple references.
    _kn = """
            WITH t AS (SELECT doc_id, string_split(text, ' ') AS ws
                       FROM documents),
            bgo AS MATERIALIZED (
                SELECT doc_id, ws[j] AS w1, ws[j + 1] AS w2
                FROM t, UNNEST(range(1, len(ws))) AS r(j)),
            bg AS MATERIALIZED (
                SELECT w1, w2, COUNT(*) AS c FROM bgo GROUP BY w1, w2),
            ctx AS (SELECT w1, SUM(c) AS ctx, COUNT(*) AS n1f
                    FROM bg GROUP BY w1),
            cont AS (SELECT w2, COUNT(*) AS n1b FROM bg GROUP BY w2),
            tt AS (SELECT CAST(COUNT(*) AS DOUBLE) AS t FROM bg)
            SELECT doc_id,
                   ROUND(AVG(log2((GREATEST(c - 0.75, 0)
                                   + 0.75 * n1f * (n1b / t)) / ctx)),
                         4) AS logprob
            FROM bgo JOIN bg USING (w1, w2) JOIN ctx USING (w1)
                 JOIN cont USING (w2), tt
            GROUP BY doc_id
        """
    # NB quality classifier (ops/classifier.py): alpha=1 Laplace terms
    # over integer (word, class) counts; labels = source IN src0..src4;
    # ROUND(4) on both sides absorbs summation-order ulps (same contract
    # as the unigram LM). MATERIALIZED: words/cnts feed 2+ references.
    _nb = """
            WITH lab AS MATERIALIZED (
                SELECT doc_id, text,
                       source IN ('src0','src1','src2','src3','src4') AS y
                FROM documents
            ),
            words AS MATERIALIZED (
                SELECT doc_id, y, unnest(string_split(text, ' ')) AS w
                FROM lab
            ),
            cnts AS MATERIALIZED (
                SELECT w,
                       SUM(CASE WHEN y THEN 1 ELSE 0 END) AS cp,
                       SUM(CASE WHEN NOT y THEN 1 ELSE 0 END) AS cn
                FROM words GROUP BY w
            ),
            tot AS (
                SELECT CAST(COUNT(*) AS DOUBLE) AS v,
                       CAST(SUM(cp) AS DOUBLE) AS tp,
                       CAST(SUM(cn) AS DOUBLE) AS tn
                FROM cnts
            ),
            pri AS (
                SELECT log2(CAST(SUM(CASE WHEN y THEN 1 ELSE 0 END)
                                 AS DOUBLE) / COUNT(*))
                     - log2(CAST(SUM(CASE WHEN NOT y THEN 1 ELSE 0 END)
                                 AS DOUBLE) / COUNT(*)) AS p
                FROM lab
            ),
            s AS (
                SELECT doc_id,
                       SUM(log2((cp + 1.0) / (tp + v))
                         - log2((cn + 1.0) / (tn + v))) AS t
                FROM words JOIN cnts USING (w), tot
                GROUP BY doc_id
            )
            SELECT doc_id, ROUND(p + t, 4) AS nb_logodds,
                   (ROUND(p + t, 4) > 0) AS nb_keep
            FROM s, pri
        """
    # CCNet perplexity tier (ops/sampling.py:perplexity_buckets):
    # per-source quantile_disc terciles of the ROUNDED unigram-LM score
    # (engine grouped_quantiles == DuckDB quantile_disc, proven by
    # value_quantiles_by_type); comparisons on the same rounded grid on
    # both sides. MATERIALIZED: lp feeds ls which feeds th + the select.
    _ppl = """
            WITH w AS MATERIALIZED (
                SELECT doc_id, unnest(string_split(text, ' ')) AS w
                FROM documents
            ),
            cnts AS MATERIALIZED (
                SELECT w, COUNT(*) AS c FROM w GROUP BY w),
            tot AS (SELECT SUM(c) AS t FROM cnts),
            lp AS MATERIALIZED (
                SELECT doc_id,
                       ROUND(AVG(log2(CAST(c AS DOUBLE) / t)), 4) AS lp
                FROM w JOIN cnts USING (w), tot GROUP BY doc_id),
            ls AS MATERIALIZED (
                SELECT d.doc_id, d.source, lp.lp
                FROM documents d JOIN lp USING (doc_id)),
            th AS (SELECT source,
                          quantile_disc(lp, 1.0/3) AS q1,
                          quantile_disc(lp, 2.0/3) AS q2
                   FROM ls GROUP BY source)
            SELECT doc_id, CASE WHEN lp <= q1 THEN 'tail'
                                WHEN lp <= q2 THEN 'middle'
                                ELSE 'head' END AS ppl_bucket
            FROM ls JOIN th USING (source)
        """
    _sh = _simhash_sql()
    _ds = _dsir_sql()
    _en = """
            WITH words AS (
                SELECT doc_id, j - 1 AS pos, ws[j] AS w
                FROM (SELECT doc_id, string_split(text, ' ') AS ws
                      FROM documents),
                     UNNEST(range(1, len(ws) + 1)) AS t(j)
            ),
            cnts AS (SELECT w, COUNT(*) AS c FROM words GROUP BY w),
            vocab AS (SELECT w, ROW_NUMBER() OVER (ORDER BY c DESC, w ASC)
                                 - 1 AS tid
                      FROM cnts),
            v AS (SELECT * FROM vocab WHERE tid < 20)
            SELECT words.doc_id,
                   string_agg(CAST(COALESCE(v.tid, -1) AS VARCHAR), ' '
                              ORDER BY pos) AS ids,
                   CAST(COUNT(*) AS BIGINT) AS n_tokens,
                   CAST(SUM(CASE WHEN v.tid IS NULL THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_oov
            FROM words LEFT JOIN v ON words.w = v.w
            GROUP BY words.doc_id
            ORDER BY words.doc_id
        """
    _o_minhash_source_similarity = _bottomk_similarity_sql()
    _o_weighted_jaccard_by_source = f"""
            WITH cnt AS (
                SELECT source, tok, CAST(COUNT(*) AS BIGINT) AS c
                FROM (SELECT source, unnest(tokens) AS tok
                      FROM read_parquet('{_SEQ_SF01_DIR}/*.parquet'))
                GROUP BY source, tok
            ),
            tot AS (SELECT source, SUM(c) AS t FROM cnt GROUP BY source),
            inter AS (
                SELECT x.source AS a, y.source AS b,
                       SUM(LEAST(x.c, y.c)) AS smin
                FROM cnt x JOIN cnt y
                  ON x.tok = y.tok AND x.source < y.source
                GROUP BY x.source, y.source
            ),
            pairs AS (
                SELECT ta.source AS a, tb.source AS b,
                       COALESCE(i.smin, 0) AS smin,
                       ta.t + tb.t - COALESCE(i.smin, 0) AS smax
                FROM tot ta JOIN tot tb ON ta.source < tb.source
                LEFT JOIN inter i ON i.a = ta.source AND i.b = tb.source
            )
            SELECT a, b, CAST(smin AS BIGINT) AS sum_min,
                   CAST(smax AS BIGINT) AS sum_max,
                   (1000 * CAST(smin AS BIGINT))
                       // GREATEST(CAST(smax AS BIGINT), 1)
                       AS wjaccard_milli
            FROM pairs ORDER BY a, b
        """
    _o_jsonl_source_stats = """
            SELECT source, CAST(COUNT(*) AS BIGINT) AS n_docs,
                   CAST(SUM(len(string_split(text, ' '))) AS BIGINT)
                       AS n_words
            FROM documents GROUP BY source ORDER BY source
        """
    _o_user_sessions = """
            SELECT user_id, COUNT(*) AS n_events,
                   CAST(1 + SUM(CASE WHEN gap > 1800 THEN 1 ELSE 0 END) AS BIGINT) AS n_sessions
            FROM (
                SELECT user_id,
                       epoch(ts) - LAG(epoch(ts)) OVER (
                           PARTITION BY user_id ORDER BY ts) AS gap
                FROM events
            )
            GROUP BY user_id
        """
    _o_sliding_window_user_counts = """
            SELECT user_id, CAST(COUNT(*) AS BIGINT) AS cnt
            FROM (SELECT user_id FROM events ORDER BY event_id DESC
                  LIMIT 2000)
            GROUP BY user_id ORDER BY user_id
        """
    _o_orders_by_segment = """
            SELECT c_mktsegment, ROUND(SUM(o_totalprice), 2) AS total_price,
                   COUNT(*) AS n_orders
            FROM orders JOIN customer ON o_custkey = c_custkey
            GROUP BY c_mktsegment
        """
    _o_order_priority_revenue = """
            SELECT o_orderpriority, COUNT(*) AS n_items,
                   ROUND(SUM(l_extendedprice), 2) AS revenue
            FROM orders JOIN lineitem ON o_orderkey = l_orderkey
            GROUP BY o_orderpriority
        """
    _o_dedup_exact = """
            SELECT MIN(doc_id) AS doc_id, COUNT(*) AS n_copies
            FROM documents GROUP BY text
        """
    _o_dedup_exact_sequences = f"""
            WITH aug AS (
                SELECT doc_id, tokens
                FROM read_parquet('{_SEQ_SF01_DIR}/*.parquet')
                UNION ALL
                SELECT doc_id || '-dup', tokens
                FROM read_parquet('{_SEQ_SF01_DIR}/*.parquet')
                WHERE doc_id LIKE '%00'
            )
            SELECT MIN(doc_id) AS doc_id,
                   CAST(COUNT(*) AS BIGINT) AS n_copies
            FROM aug GROUP BY tokens ORDER BY doc_id
        """
    _o_dup_ngram_spans = """
            WITH toks AS (
                SELECT doc_id, string_split(lower(text), ' ') AS w
                FROM documents
            ),
            grams AS (
                SELECT doc_id, i,
                       w[i] || ' ' || w[i + 1] || ' ' || w[i + 2] || ' '
                            || w[i + 3] || ' ' || w[i + 4] AS g
                FROM toks, UNNEST(range(1, len(w) - 3)) AS u(i)
            ),
            dup AS (
                SELECT g FROM grams GROUP BY g
                HAVING COUNT(DISTINCT doc_id) >= 2
            ),
            hits AS (
                SELECT grams.doc_id, grams.i, grams.g,
                       (dup.g IS NOT NULL) AS hit
                FROM grams LEFT JOIN dup ON grams.g = dup.g
            ),
            agg AS (
                SELECT doc_id, COUNT(*) AS n_grams,
                       SUM(CASE WHEN hit THEN 1 ELSE 0 END) AS n_dup,
                       COUNT(DISTINCT CASE WHEN hit THEN g END) AS n_dist
                FROM hits GROUP BY doc_id
            ),
            islands AS (
                SELECT doc_id, grp, COUNT(*) AS run_len
                FROM (SELECT doc_id, i,
                             i - ROW_NUMBER() OVER (PARTITION BY doc_id
                                                    ORDER BY i) AS grp
                      FROM hits WHERE hit)
                GROUP BY doc_id, grp
            ),
            runs AS (
                SELECT doc_id, MAX(run_len) AS max_run
                FROM islands GROUP BY doc_id
            )
            SELECT d.doc_id,
                   CAST(COALESCE(a.n_grams, 0) AS BIGINT) AS n_grams,
                   CAST(COALESCE(a.n_dup, 0) AS BIGINT) AS n_dup_grams,
                   CAST(COALESCE(a.n_dist, 0) AS BIGINT)
                       AS n_distinct_dup_grams,
                   CAST(COALESCE(r.max_run, 0) AS BIGINT) AS max_dup_run
            FROM documents d
            LEFT JOIN agg a ON d.doc_id = a.doc_id
            LEFT JOIN runs r ON d.doc_id = r.doc_id
            ORDER BY d.doc_id
        """
    # span removal: same gram/island machinery as _o_dup_ngram_spans,
    # then covered word positions (1-based, inclusive BETWEEN) and a
    # string_agg rebuild of the kept ORIGINAL-case words. k=5,
    # min_span=6 => keep runs with run_len + 4 >= 6. MATERIALIZED per
    # CLAUDE.md rule 10 (grams feeds dup+hits; spans feeds 3 readers).
    _o_dup_span_removal = """
            WITH toks AS MATERIALIZED (
                SELECT doc_id, string_split(text, ' ') AS ow,
                       string_split(lower(text), ' ') AS w
                FROM documents
            ),
            grams AS MATERIALIZED (
                SELECT doc_id, i,
                       w[i] || ' ' || w[i + 1] || ' ' || w[i + 2] || ' '
                            || w[i + 3] || ' ' || w[i + 4] AS g
                FROM toks, UNNEST(range(1, len(w) - 3)) AS u(i)
            ),
            dup AS (
                SELECT g FROM grams GROUP BY g
                HAVING COUNT(DISTINCT doc_id) >= 2
            ),
            hits AS (
                SELECT grams.doc_id, grams.i
                FROM grams JOIN dup USING (g)
            ),
            islands AS (
                SELECT doc_id, MIN(i) AS start_i, COUNT(*) AS run_len
                FROM (SELECT doc_id, i,
                             i - ROW_NUMBER() OVER (PARTITION BY doc_id
                                                    ORDER BY i) AS grp
                      FROM hits)
                GROUP BY doc_id, grp
            ),
            spans AS MATERIALIZED (
                SELECT doc_id, start_i, start_i + run_len + 3 AS end_i
                FROM islands WHERE run_len + 4 >= 6
            ),
            words AS MATERIALIZED (
                SELECT doc_id, j, ow[j] AS word
                FROM toks, UNNEST(range(1, len(ow) + 1)) AS u(j)
            ),
            removed AS MATERIALIZED (
                SELECT DISTINCT w.doc_id, w.j
                FROM words w JOIN spans s
                  ON w.doc_id = s.doc_id
                 AND w.j BETWEEN s.start_i AND s.end_i
            ),
            kept AS (
                SELECT w.doc_id,
                       string_agg(w.word, ' ' ORDER BY w.j) AS text
                FROM words w ANTI JOIN removed r
                  ON w.doc_id = r.doc_id AND w.j = r.j
                GROUP BY w.doc_id
            )
            SELECT t.doc_id,
                   COALESCE(k.text, '') AS text,
                   CAST(len(t.ow) AS BIGINT) AS n_words,
                   CAST(COALESCE(nr.n_rem, 0) AS BIGINT)
                       AS n_removed_words,
                   CAST(COALESCE(ns.n_spans, 0) AS BIGINT)
                       AS n_spans_removed
            FROM toks t
            LEFT JOIN kept k ON t.doc_id = k.doc_id
            LEFT JOIN (SELECT doc_id, COUNT(*) AS n_rem
                       FROM removed GROUP BY doc_id) nr
                   ON t.doc_id = nr.doc_id
            LEFT JOIN (SELECT doc_id, COUNT(*) AS n_spans
                       FROM spans GROUP BY doc_id) ns
                   ON t.doc_id = ns.doc_id
            ORDER BY t.doc_id
        """
    _o_token_dup_ngrams = _token_dup_ngrams_sql()
    _o_kgram3_counts = f"""
            SELECT t0, t1, t2, COUNT(*) AS cnt FROM (
                SELECT CAST(tokens[i] AS INT) AS t0,
                       CAST(tokens[i + 1] AS INT) AS t1,
                       CAST(tokens[i + 2] AS INT) AS t2
                FROM read_parquet('{_SEQ_SF01_DIR}/*.parquet'),
                     UNNEST(range(1, len(tokens) - 1)) AS u(i)
            )
            GROUP BY t0, t1, t2
            ORDER BY cnt DESC, t0 ASC, t1 ASC, t2 ASC
            LIMIT 200
        """
    _o_bigram_top50 = f"""
            SELECT a, b, COUNT(*) AS cnt FROM (
                SELECT CAST(tokens[i] AS INT) AS a,
                       CAST(tokens[i + 1] AS INT) AS b
                FROM read_parquet('{_SEQ_SF01_DIR}/*.parquet'),
                     UNNEST(range(1, len(tokens))) AS u(i)
            )
            GROUP BY a, b
            ORDER BY cnt DESC, a ASC, b ASC
            LIMIT 50
        """
    _o_distinct_users = """
            SELECT COUNT(DISTINCT user_id) AS distinct_users FROM events
        """
    _o_distinct_tokens_by_source = f"""
            SELECT source, COUNT(DISTINCT tok) AS distinct_tokens
            FROM (SELECT source, unnest(tokens) AS tok
                  FROM read_parquet('{_SEQ_SF01_DIR}/*.parquet'))
            GROUP BY source
        """
    _doc_signals = f"""
        WITH tc AS ({_tc}), ts AS ({_ts}), ce AS ({_ce}), gq AS ({_gq}),
             gr AS ({_gr}), ul AS ({_ul}), bl AS ({_bl}), sh AS ({_sh}),
             ds AS ({_ds}), en AS ({_en}), nb AS ({_nb}),
             ppl AS ({_ppl}), kn AS ({_kn})
        SELECT tc.doc_id, tc.n_tokens,
               ts.n_chars_text, ts.n_stop,
               ce.n_chars, ce.char_entropy,
               gq.n_words, gq.n_word_chars, gq.n_symbols,
               gq.n_alpha_words, gq.n_req_stop, gq.ok_word_count,
               gq.ok_mean_len, gq.ok_symbol, gq.ok_alpha, gq.ok_stop,
               gq.keep AS keep_quality,
               gr.top2_chars, gr.top3_chars, gr.dup3_chars,
               gr.ok_top2, gr.ok_top3, gr.ok_dup3,
               gr.keep AS keep_repetition,
               ul.logprob AS unigram_logprob,
               bl.logprob AS bigram_logprob,
               kn.logprob AS kn_logprob,
               sh.simhash,
               ds.n_feats, ds.n_target_heavy, ds.dsir_score,
               en.ids, en.n_oov,
               nb.nb_logodds, nb.nb_keep,
               ppl.ppl_bucket
        FROM tc JOIN ts USING (doc_id) JOIN ce USING (doc_id)
             JOIN gq USING (doc_id) JOIN gr USING (doc_id)
             JOIN ul USING (doc_id) JOIN bl USING (doc_id)
             JOIN sh USING (doc_id) JOIN ds USING (doc_id)
             JOIN en USING (doc_id) JOIN nb USING (doc_id)
             JOIN ppl USING (doc_id) JOIN kn USING (doc_id)
    """
    return {
        "doc_signals": _doc_signals,
        "source_similarity": f"""
            WITH m AS ({_o_minhash_source_similarity}),
                 w AS ({_o_weighted_jaccard_by_source})
            SELECT m.a, m.b, m.n_inter, m.n_union, m.jaccard_milli,
                   w.sum_min, w.sum_max, w.wjaccard_milli
            FROM m JOIN w USING (a, b)
        """,
        "export_roundtrip_stats": f"""{_o_jsonl_source_stats}""",
        "user_sessions": f"""
            WITH s AS ({_o_user_sessions}),
                 w AS ({_o_sliding_window_user_counts})
            SELECT s.user_id, s.n_events, s.n_sessions, w.cnt
            FROM s JOIN w USING (user_id)
        """,
        "orders_rollups": f"""
            SELECT 'segment' AS group_kind, c_mktsegment AS group_key,
                   n_orders AS n, total_price AS amount
            FROM ({_o_orders_by_segment})
            UNION ALL
            SELECT 'priority', o_orderpriority, n_items, revenue
            FROM ({_o_order_priority_revenue})
        """,
        "dedup_exact": f"""
            SELECT 'documents' AS variant, CAST(doc_id AS VARCHAR) AS doc_id,
                   n_copies
            FROM ({_o_dedup_exact})
            UNION ALL
            SELECT 'sequences', doc_id, n_copies
            FROM ({_o_dedup_exact_sequences})
        """,
        "dup_span_removal": _o_dup_span_removal,
        "dup_ngram_spans": f"""
            SELECT 'words' AS variant, CAST(doc_id AS VARCHAR) AS doc_id,
                   n_grams, n_dup_grams, n_distinct_dup_grams, max_dup_run
            FROM ({_o_dup_ngram_spans})
            UNION ALL
            SELECT 'tokens', doc_id, n_grams, n_dup_grams,
                   n_distinct_dup_grams, max_dup_run
            FROM ({_o_token_dup_ngrams})
        """,
        "ngram_counts_seq": f"""
            SELECT 'tri' AS variant, t0, t1, t2, cnt
            FROM ({_o_kgram3_counts})
            UNION ALL
            SELECT 'bi', a, b, -1, cnt
            FROM ({_o_bigram_top50})
        """,
        "exact_distincts": f"""
            SELECT 'events:users' AS scope,
                   CAST(COUNT(DISTINCT user_id) AS BIGINT) AS n_distinct
            FROM events
            UNION ALL
            SELECT 'tokens:' || source,
                   CAST(distinct_tokens AS BIGINT)
            FROM ({_o_distinct_tokens_by_source})
        """,
        "pricing_summary": """
            SELECT l_returnflag, l_linestatus,
                   ROUND(SUM(l_quantity), 2)                               AS sum_qty,
                   ROUND(SUM(l_extendedprice), 2)                          AS sum_base_price,
                   ROUND(SUM(l_extendedprice * (1 - l_discount)), 2)       AS sum_disc_price,
                   ROUND(SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)), 2) AS sum_charge,
                   ROUND(AVG(l_quantity), 4)                               AS avg_qty,
                   COUNT(*)                                                AS count_order
            FROM lineitem
            WHERE l_shipdate < TIMESTAMP '1998-09-01'
            GROUP BY l_returnflag, l_linestatus
        """,
        "doc_stats_by_source": """
            SELECT source, COUNT(*) AS n_docs,
                   CAST(SUM(n_chars) AS BIGINT) AS sum_chars
            FROM documents GROUP BY source
        """,
        "top_tokens": """
            SELECT tok AS token, COUNT(*) AS cnt
            FROM (SELECT unnest(string_split(text, ' ')) AS tok FROM documents)
            GROUP BY tok
            ORDER BY cnt DESC, token ASC
            LIMIT 100
        """,
        "events_hourly": """
            SELECT '1h' AS win, event_type,
                   date_trunc('hour', ts) AS window_start,
                   COUNT(*) AS n, ROUND(SUM(value), 2) AS sum_value,
                   CAST(COUNT(DISTINCT user_id) AS BIGINT) AS n_distinct
            FROM events GROUP BY 2, 3
            UNION ALL
            SELECT '1h_hop30m' AS win, event_type,
                   TIMESTAMP '1970-01-01'
                       + ((CAST(floor(epoch(ts) / 1800) AS BIGINT) - j) * 1800)
                         * INTERVAL '1 second' AS window_start,
                   COUNT(*) AS n, ROUND(SUM(value), 2) AS sum_value,
                   CAST(-1 AS BIGINT) AS n_distinct
            FROM events, UNNEST(range(0, 2)) AS u(j)
            GROUP BY 2, 3
        """,
        "events_funnel": """
            WITH e AS MATERIALIZED (
                SELECT user_id, CAST(epoch_us(ts) AS BIGINT) AS t,
                       event_id AS i, event_type
                FROM events
                WHERE event_type IN ('view','click','signup','purchase')
            ),
            s1 AS (SELECT user_id, MIN(t) AS t1 FROM e
                   WHERE event_type = 'view' GROUP BY user_id),
            s1x AS (SELECT e.user_id, t1, MIN(i) AS i1
                    FROM e JOIN s1 USING (user_id)
                    WHERE event_type = 'view' AND t = t1
                    GROUP BY e.user_id, t1),
            s2 AS (SELECT e.user_id, MIN(t) AS t2
                   FROM e JOIN s1x USING (user_id)
                   WHERE event_type = 'click'
                     AND (t > t1 OR (t = t1 AND i > i1))
                   GROUP BY e.user_id),
            s2x AS (SELECT e.user_id, t2, MIN(i) AS i2
                    FROM e JOIN s2 USING (user_id) JOIN s1x USING (user_id)
                    WHERE event_type = 'click' AND t = t2
                      AND (t > t1 OR (t = t1 AND i > i1))
                    GROUP BY e.user_id, t2),
            s3 AS (SELECT e.user_id, MIN(t) AS t3
                   FROM e JOIN s2x USING (user_id)
                   WHERE event_type = 'signup'
                     AND (t > t2 OR (t = t2 AND i > i2))
                   GROUP BY e.user_id),
            s3x AS (SELECT e.user_id, t3, MIN(i) AS i3
                    FROM e JOIN s3 USING (user_id) JOIN s2x USING (user_id)
                    WHERE event_type = 'signup' AND t = t3
                      AND (t > t2 OR (t = t2 AND i > i2))
                    GROUP BY e.user_id, t3),
            s4 AS (SELECT e.user_id, MIN(t) AS t4
                   FROM e JOIN s3x USING (user_id)
                   WHERE event_type = 'purchase'
                     AND (t > t3 OR (t = t3 AND i > i3))
                   GROUP BY e.user_id),
            base AS (SELECT DISTINCT user_id FROM e)
            SELECT base.user_id,
                   CAST(CAST(t1 IS NOT NULL AS INT)
                      + CAST(t2 IS NOT NULL AS INT)
                      + CAST(t3 IS NOT NULL AS INT)
                      + CAST(t4 IS NOT NULL AS INT) AS BIGINT)
                       AS n_reached,
                   COALESCE(t1, -1) AS ts_view,
                   COALESCE(t2, -1) AS ts_click,
                   COALESCE(t3, -1) AS ts_signup,
                   COALESCE(t4, -1) AS ts_purchase
            FROM base LEFT JOIN s1 USING (user_id)
                 LEFT JOIN s2 USING (user_id) LEFT JOIN s3 USING (user_id)
                 LEFT JOIN s4 USING (user_id)
        """,
        "events_asof_hourly": """
            WITH hourly AS (
                SELECT event_type,
                       date_trunc('hour', ts) + INTERVAL 1 HOUR AS avail_ts,
                       SUM(value) AS hourly_sum
                FROM events GROUP BY 1, 2
            )
            SELECT e.user_id, e.ts, e.event_type, h.avail_ts,
                   ROUND(h.hourly_sum, 2) AS hourly_sum
            FROM events e
            ASOF JOIN hourly h
              ON e.event_type = h.event_type AND e.ts >= h.avail_ts
            WHERE e.user_id < 20
        """,

        "events_value_bands": """
            WITH bands(band, lo, hi) AS (VALUES
                ('neg', -1e9, 0.0), ('low', 0.0, 10.0), ('mid', 10.0, 100.0),
                ('high', 100.0, 1e9), ('wide', 0.0, 1e9))
            SELECT b.band, COUNT(*) AS n, ROUND(SUM(e.value), 2) AS sum_value
            FROM events e JOIN bands b ON e.value >= b.lo AND e.value < b.hi
            GROUP BY b.band
        """,
        "token_counts_seq": f"""
            SELECT t.tok AS token, COUNT(*) AS cnt
            FROM (SELECT unnest(tokens) AS tok
                  FROM read_parquet('{_SEQ_SF01_DIR}/*.parquet')) t
            GROUP BY t.tok
        """,
        "lineitem_semi_join": """
            SELECT l_returnflag, COUNT(*) AS n,
                   ROUND(SUM(l_quantity), 2) AS sum_qty
            FROM lineitem
            WHERE l_partkey IN (SELECT p_partkey FROM part WHERE p_size > 40)
            GROUP BY l_returnflag
        """,
        # KLL± exact-regime oracle: quantiles of the live multiset =
        # quantile_disc over events minus the retracted type
        "deleted_value_quantiles": """
            WITH live AS MATERIALIZED (
                SELECT value FROM events WHERE event_type <> 'error'
            )
            SELECT CAST(0.1 AS DOUBLE) AS q,
                   ROUND(quantile_disc(value, 0.1), 6) AS value FROM live
            UNION ALL
            SELECT 0.5, ROUND(quantile_disc(value, 0.5), 6) FROM live
            UNION ALL
            SELECT 0.9, ROUND(quantile_disc(value, 0.9), 6) FROM live
            UNION ALL
            SELECT 0.99, ROUND(quantile_disc(value, 0.99), 6) FROM live
        """,
        "exact_value_quantiles": """
            SELECT CAST(0.1 AS DOUBLE) AS q, quantile_disc(value, 0.1) AS value FROM events
            UNION ALL
            SELECT 0.5, quantile_disc(value, 0.5) FROM events
            UNION ALL
            SELECT 0.9, quantile_disc(value, 0.9) FROM events
            UNION ALL
            SELECT 0.99, quantile_disc(value, 0.99) FROM events
        """,
        "supplier_by_region": """
            SELECT r_name, COUNT(*) AS n_suppliers,
                   ROUND(SUM(s_acctbal), 2) AS total_acctbal
            FROM supplier
            JOIN nation ON s_nationkey = n_nationkey
            JOIN region ON n_regionkey = r_regionkey
            GROUP BY r_name
        """,
        "lang_distribution": """
            SELECT lang, COUNT(*) AS n_docs,
                   ROUND(AVG(n_chars), 4) AS avg_chars
            FROM documents GROUP BY lang
        """,
        "jaccard_dup_pairs": """
            WITH toks AS (
                SELECT doc_id, string_split(lower(text), ' ') AS w FROM documents
            ),
            sh AS (
                SELECT DISTINCT doc_id,
                       w[i] || ' ' || w[i + 1] || ' ' || w[i + 2] AS s
                FROM toks, UNNEST(range(1, len(w) - 1)) AS u(i)
            ),
            sizes AS (SELECT doc_id, COUNT(*) AS n FROM sh GROUP BY doc_id),
            inter AS (
                SELECT x.doc_id AS a, y.doc_id AS b, COUNT(*) AS c
                FROM sh x JOIN sh y ON x.s = y.s AND x.doc_id < y.doc_id
                GROUP BY 1, 2
            )
            SELECT a, b, ROUND(c * 1.0 / (sa.n + sb.n - c), 4) AS jaccard
            FROM inter
            JOIN sizes sa ON sa.doc_id = a
            JOIN sizes sb ON sb.doc_id = b
            WHERE c * 1.0 / (sa.n + sb.n - c) >= 0.4
        """,
        # connected components: the jaccard pair set (oracled above) fed
        # through a recursive reachability closure; label = component
        # min. Pair CTEs MATERIALIZED (rule 10 — sh is referenced twice
        # by the self-join, edges by every recursion step).
        "dup_cluster_labels": """
            WITH RECURSIVE toks AS MATERIALIZED (
                SELECT doc_id, string_split(lower(text), ' ') AS w
                FROM documents
            ),
            sh AS MATERIALIZED (
                SELECT DISTINCT doc_id,
                       w[i] || ' ' || w[i + 1] || ' ' || w[i + 2] AS s
                FROM toks, UNNEST(range(1, len(w) - 1)) AS u(i)
            ),
            sizes AS MATERIALIZED (
                SELECT doc_id, COUNT(*) AS n FROM sh GROUP BY doc_id
            ),
            inter AS (
                SELECT x.doc_id AS a, y.doc_id AS b, COUNT(*) AS c
                FROM sh x JOIN sh y ON x.s = y.s AND x.doc_id < y.doc_id
                GROUP BY 1, 2
            ),
            pairs AS MATERIALIZED (
                SELECT a, b FROM inter
                JOIN sizes sa ON sa.doc_id = a
                JOIN sizes sb ON sb.doc_id = b
                WHERE c * 1.0 / (sa.n + sb.n - c) >= 0.4
            ),
            edges AS MATERIALIZED (
                SELECT a AS u, b AS v FROM pairs
                UNION ALL SELECT b, a FROM pairs
            ),
            cc(v, l) AS (
                SELECT u, u FROM edges GROUP BY u
                UNION
                SELECT cc.v, e.v FROM cc JOIN edges e ON cc.l = e.u
            )
            SELECT CAST(v AS BIGINT) AS doc_id,
                   CAST(MIN(l) AS BIGINT) AS cluster_id
            FROM cc GROUP BY v ORDER BY doc_id
        """,
        "bloom_dedup": """
            SELECT COUNT(DISTINCT text) AS n_survivors,
                   COUNT(DISTINCT text) AS n_distinct
            FROM documents
        """,
        "embedding_dup_pairs": """
            SELECT a.vec_id AS a, b.vec_id AS b,
                   ROUND(list_cosine_similarity(
                       CAST(a.embedding AS DOUBLE[]),
                       CAST(b.embedding AS DOUBLE[])), 4) AS sim
            FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
            WHERE list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                                         CAST(b.embedding AS DOUBLE[])) >= 0.4
        """,
        # planted-exact-duplicate SemDeDup: identical vectors always
        # co-cluster, so the within-cell search finds exactly the
        # global >= 0.999 pairs (corpus max non-dup sim ~0.6)
        "semdedup_pairs": """
            WITH aug AS (
                SELECT vec_id, embedding FROM embeddings
                UNION ALL
                SELECT vec_id + 100000, embedding FROM embeddings
                WHERE vec_id % 10 = 3
            )
            SELECT a.vec_id AS a, b.vec_id AS b,
                   ROUND(list_cosine_similarity(
                       CAST(a.embedding AS DOUBLE[]),
                       CAST(b.embedding AS DOUBLE[])), 4) AS sim
            FROM aug a JOIN aug b ON a.vec_id < b.vec_id
            WHERE list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                                         CAST(b.embedding AS DOUBLE[]))
                  >= 0.999
            ORDER BY a, b
        """,
        "ann_topk": """
            WITH q AS (SELECT embedding AS qe FROM embeddings WHERE vec_id = 0)
            SELECT vec_id,
                   ROUND(list_cosine_similarity(
                       CAST(embedding AS DOUBLE[]),
                       (SELECT CAST(qe AS DOUBLE[]) FROM q)), 4) AS sim
            FROM embeddings
            ORDER BY sim DESC, vec_id ASC
            LIMIT 20
        """,
        # token-conservation identity of per-block packing with
        # drop_remainder=False (ops/packing.py): Σ n_tokens over packed
        # rows == Σ n_tok + one EOS per doc, partition-independent
        "packed_training_rows": f"""
            SELECT CAST(SUM(n_tok) + COUNT(*) AS BIGINT) AS n_tokens_packed
            FROM read_parquet('{_SEQ_SF01_DIR}/*.parquet')
        """,
        "corpus_mix_split": _mix_split_sql(),
        "winnow_fingerprints": _winnow_sql(k=3, window=4),
        # Gopher rules in exact integer arithmetic (ops/text.py
        # gopher_quality_flags); booleans compare as ints in the canon
        # repetition statistics grouped by actual gram strings — equal to
        # the engine's hash-grouped runs absent in-doc 64-bit collisions
        # unigram LM trained on the corpus itself; ROUND(4) on both
        # sides absorbs summation-order float noise
        # string-domain 3-gram membership — equal to the engine's
        # hash-domain probe absent 64-bit collisions (the documented
        # contract, same as jaccard_dup_pairs)
        "decontaminate_eval": """
            WITH toks AS (
                SELECT doc_id, string_split(lower(text), ' ') AS w
                FROM documents
            ),
            grams AS (
                SELECT doc_id, w[i] || ' ' || w[i + 1] || ' ' || w[i + 2] AS g
                FROM toks, UNNEST(range(1, len(w) - 1)) AS u(i)
            ),
            ev AS (SELECT DISTINCT g FROM grams WHERE doc_id % 10 = 7),
            tr AS (SELECT doc_id, g FROM grams WHERE doc_id % 10 <> 7),
            agg AS (
                SELECT tr.doc_id, COUNT(*) AS n_grams,
                       SUM(CASE WHEN ev.g IS NOT NULL THEN 1 ELSE 0 END) AS n_cont
                FROM tr LEFT JOIN ev ON tr.g = ev.g
                GROUP BY tr.doc_id
            )
            SELECT d.doc_id,
                   CAST(COALESCE(a.n_grams, 0) AS BIGINT) AS n_grams,
                   CAST(COALESCE(a.n_cont, 0) AS BIGINT) AS n_contaminated,
                   (COALESCE(a.n_cont, 0) > 0) AS contaminated
            FROM documents d LEFT JOIN agg a ON d.doc_id = a.doc_id
            WHERE d.doc_id % 10 <> 7
            ORDER BY d.doc_id
        """,
        # format-independent truth: the parquet view must equal what the
        # engine read back from its own JSONL export
        # byte-level == char-level entropy for this ASCII corpus (the
        # documented contract); DuckDB entropy() is log2 Shannon
        # string-domain repeated 5-grams — equal to the engine's
        # gram-hash domain absent 64-bit collisions (same documented
        # contract as decontaminate_eval); max_dup_run via
        # gaps-and-islands over gram positions
        # BM25 with the exact float expression shape of
        # ops/retrieval.py:bm25_scores; ROUND(4) on both sides absorbs
        # term-summation-order ulps, collation (rounded score DESC,
        # doc_id ASC) matches bm25_topk's deterministic tie-break
        "bm25_top20": """
            WITH toks AS (
                SELECT doc_id, string_split(lower(text), ' ') AS w
                FROM documents
            ),
            dl AS (SELECT doc_id, CAST(len(w) AS DOUBLE) AS dl FROM toks),
            corpus AS (
                SELECT CAST(SUM(len(w)) AS DOUBLE) / COUNT(*) AS avgdl,
                       COUNT(*) AS n
                FROM toks
            ),
            words AS (SELECT doc_id, unnest(w) AS w FROM toks),
            terms(t) AS (VALUES ('customer'), ('filter'), ('vector')),
            tf AS (
                SELECT w.doc_id, t.t, CAST(COUNT(*) AS DOUBLE) AS tf
                FROM words w JOIN terms t ON w.w = t.t
                GROUP BY 1, 2
            ),
            df AS (SELECT t, COUNT(*) AS df FROM tf GROUP BY t),
            idf AS (
                SELECT terms.t,
                       ln((c.n - COALESCE(df.df, 0) + 0.5)
                          / (COALESCE(df.df, 0) + 0.5) + 1.0) AS idf
                FROM terms LEFT JOIN df USING (t), corpus c
            ),
            scores AS (
                SELECT tf.doc_id,
                       SUM(idf.idf * tf.tf * (1.2 + 1.0)
                           / (tf.tf + 1.2 * (1.0 - 0.75
                                             + 0.75 * dl.dl / c.avgdl))) AS s
                FROM tf JOIN idf USING (t) JOIN dl USING (doc_id), corpus c
                GROUP BY tf.doc_id
            )
            SELECT doc_id, ROUND(s, 4) AS score
            FROM scores WHERE s > 0
            ORDER BY ROUND(s, 4) DESC, doc_id ASC
            LIMIT 20
        """,
        "event_windows": """
            SELECT user_id, event_id,
                   ROW_NUMBER() OVER w AS row_number,
                   RANK() OVER (PARTITION BY user_id ORDER BY ts) AS rank,
                   DENSE_RANK() OVER (PARTITION BY user_id ORDER BY ts)
                       AS dense_rank,
                   ROUND(PERCENT_RANK() OVER (PARTITION BY user_id
                                              ORDER BY ts), 6)
                       AS percent_rank,
                   ROUND(CUME_DIST() OVER (PARTITION BY user_id
                                           ORDER BY ts), 6) AS cume_dist,
                   NTILE(4) OVER w AS ntile4,
                   COALESCE(CAST(epoch_us(ts) - LAG(epoch_us(ts)) OVER w
                                 AS BIGINT), -1) AS gap_us,
                   ROUND(MAX(value) OVER (w ROWS UNBOUNDED PRECEDING), 4)
                       AS running_max,
                   ROUND(COALESCE(LAG(value) OVER w, 0), 4) AS lag_value,
                   ROUND(COALESCE(LEAD(value) OVER w, 0), 4) AS lead_value
            FROM events
            WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
            ORDER BY event_id
        """,
        "top_tokens_per_source": """
            SELECT source, token, cnt FROM (
                SELECT source, tok AS token, COUNT(*) AS cnt,
                       ROW_NUMBER() OVER (PARTITION BY source
                           ORDER BY COUNT(*) DESC, tok ASC) AS rn
                FROM (SELECT source, unnest(string_split(text, ' ')) AS tok
                      FROM documents)
                GROUP BY source, tok
            ) WHERE rn <= 5
            ORDER BY source, cnt DESC, token
        """,
        "doc_chunks": """
            SELECT doc_id, CAST(j AS BIGINT) AS chunk_id,
                   CAST(least(32, len(w) - j * 24) AS BIGINT) AS n_words,
                   array_to_string(w[j * 24 + 1 : j * 24 + 32], ' ') AS text
            FROM (SELECT doc_id, string_split(text, ' ') AS w
                  FROM documents),
                 UNNEST(range(0, (len(w) + 23) // 24)) AS u(j)
            WHERE j * 24 < len(w)
            ORDER BY doc_id, chunk_id
        """,
        "value_quantiles_by_type": """
            SELECT event_type, CAST(0.1 AS DOUBLE) AS q,
                   ROUND(quantile_disc(value, 0.1), 4) AS value
            FROM events GROUP BY event_type
            UNION ALL
            SELECT event_type, 0.5, ROUND(quantile_disc(value, 0.5), 4)
            FROM events GROUP BY event_type
            UNION ALL
            SELECT event_type, 0.9, ROUND(quantile_disc(value, 0.9), 4)
            FROM events GROUP BY event_type
            UNION ALL
            SELECT event_type, 0.99, ROUND(quantile_disc(value, 0.99), 4)
            FROM events GROUP BY event_type
            ORDER BY event_type, q
        """,
        # MLE bigram LM trained on the corpus itself (string-domain
        # grouping — equals the engine's hash-domain tables absent
        # 64-bit collisions); ROUND(4) absorbs summation-order ulps
        "sample_per_source": _sample_per_key_sql(n=8, seed=137),
        "cm_vanilla_query": _cm_vanilla_sql(),
        "sketch_point_queries": _sketch_point_sql(),
        "bloom_membership": _bloom_member_sql(),
        "minhash_dedup_pairs": _minhash_pairs_sql(),
        # sequence identity: GROUP BY the token LIST itself == the
        # engine's raw-int32-buffer hash absent 64-bit collisions
        # exact second moment / join cardinality (the sketch estimates
        # are float/one-sided and asserted in-query instead)
        "join_size_sketch": """
            SELECT 'events_selfjoin_f2' AS "case",
                   CAST(SUM(n * n) AS BIGINT) AS exact_size
            FROM (SELECT COUNT(*) AS n FROM events GROUP BY user_id)
            UNION ALL
            SELECT 'orders_lineitem_join',
                   CAST(COUNT(*) AS BIGINT)
            FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
            ORDER BY "case"
        """,
        "hll_register_histogram": _hll_registers_sql(),
        "modvac_distinct_by_source": _modvac_sql(),
        # exact per-source top-10 token counts (the compressed-recovery
        # equality is asserted in-query; floats never leave the engine)
        "cs_compressed_top_tokens": f"""
            WITH cnt AS (
                SELECT source, tok AS token,
                       CAST(COUNT(*) AS BIGINT) AS cnt
                FROM (SELECT source, unnest(tokens) AS tok
                      FROM read_parquet('{_SEQ_SF01_DIR}/*.parquet'))
                GROUP BY source, tok
            ),
            ranked AS (
                SELECT source, token, cnt,
                       ROW_NUMBER() OVER (PARTITION BY source
                                          ORDER BY cnt DESC, token ASC)
                           AS rn
                FROM cnt
            )
            SELECT source, token, cnt FROM ranked WHERE rn <= 10
            ORDER BY source, cnt DESC, token
        """,
        # exact weighted Jaccard between per-source token multisets:
        # sum_min via the inner join on token, sum_max = tot_a + tot_b
        # - sum_min; integer arithmetic end to end (the CWS estimator
        # itself is float-geometry and asserted in-query instead)
        "cm_set_algebra": _cm_intersect_sql(),
        # vocab rank ties broken (cnt desc, token asc) exactly as
        # build_vocab; hash-domain lookup == string join absent
        # 64-bit collisions
        "pmi_top50": """
            WITH t AS (SELECT string_split(text, ' ') AS ws FROM documents),
            bg AS (SELECT ws[j] AS w1, ws[j + 1] AS w2
                   FROM t, UNNEST(range(1, len(ws))) AS r(j)),
            bc AS (SELECT w1, w2, COUNT(*) AS cnt FROM bg GROUP BY w1, w2),
            n AS (SELECT CAST(SUM(cnt) AS DOUBLE) AS nn FROM bc),
            m1 AS (SELECT w1, SUM(cnt) AS c1 FROM bc GROUP BY w1),
            m2 AS (SELECT w2, SUM(cnt) AS c2 FROM bc GROUP BY w2)
            SELECT w1, w2, CAST(cnt AS BIGINT) AS cnt, pmi FROM (
                SELECT w1, w2, cnt,
                       ROUND(log2(cnt * nn / (c1 * c2)), 4) AS pmi
                FROM bc JOIN m1 USING (w1) JOIN m2 USING (w2), n
                WHERE cnt >= 5
            )
            ORDER BY pmi DESC, w1 ASC, w2 ASC
            LIMIT 50
        """,
    }
