"""Accuracy-bound and merge-law tests for the wider sketch family
(FIXTURES.md F5): HLL, Bloom, KLL, t-digest, bottom-k MinHash."""

import numpy as np
import pytest

from ocm_ray.sketches import (
    BloomFilter,
    BottomKMinHash,
    HyperLogLog,
    KLL,
    MergeableSketch,
    TDigest,
)


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(42)


# ---------------- HLL ----------------

@pytest.mark.parametrize("p", [10, 12, 14])
def test_hll_error_bound(p, rng):
    items = rng.integers(0, 2**63, 200_000).astype(np.uint64)
    true = len(np.unique(items))
    h = HyperLogLog(p=p)
    h.update(items)
    assert abs(h.estimate() - true) / true < 4 * h.relative_error()


def test_hll_merge_exact_max(rng):
    a = rng.integers(0, 2**60, 50_000).astype(np.uint64)
    b = rng.integers(0, 2**60, 50_000).astype(np.uint64)
    h1, h2, hw = HyperLogLog(12), HyperLogLog(12), HyperLogLog(12)
    h1.update(a)
    h2.update(b)
    hw.update(np.concatenate([a, b]))
    h1.merge(h2)
    assert np.array_equal(h1.registers, hw.registers)  # partition-invariant


def test_hll_small_range_exactish(rng):
    items = np.arange(50, dtype=np.uint64)
    h = HyperLogLog(12)
    h.update(items)
    assert abs(h.estimate() - 50) <= 2  # linear counting regime


def test_hll_union_jaccard(rng):
    a = np.arange(0, 60_000, dtype=np.uint64)
    b = np.arange(30_000, 90_000, dtype=np.uint64)
    h1, h2 = HyperLogLog(14), HyperLogLog(14)
    h1.update(a)
    h2.update(b)
    assert abs(h1.union_size(h2) - 90_000) / 90_000 < 0.05
    assert abs(h1.jaccard_index(h2) - 1 / 3) < 0.05


def test_hll_compress_fold(rng):
    items = rng.integers(0, 2**60, 100_000).astype(np.uint64)
    h = HyperLogLog(14)
    h.update(items)
    folded = h.compress(10)
    assert folded.m == 1024
    true = len(np.unique(items))
    assert abs(folded.estimate() - true) / true < 6 * folded.relative_error()


# ---------------- Bloom ----------------

def test_bloom_no_false_negatives(rng):
    keys = rng.integers(0, 2**62, 5000).astype(np.uint64)
    bf = BloomFilter(p=16, nh=5)
    bf.update(keys)
    assert bf.contains(keys).all()


def test_bloom_fpr_within_formula(rng):
    keys = rng.integers(0, 2**61, 5000).astype(np.uint64)
    bf = BloomFilter(p=16, nh=5)
    bf.update(keys)
    miss = rng.integers(2**61, 2**62, 20_000).astype(np.uint64)
    observed = bf.contains(miss).mean()
    assert observed <= 3 * max(bf.fpr(), 1e-4)


def test_bloom_cardinality_linear_counting(rng):
    keys = rng.integers(0, 2**62, 8000).astype(np.uint64)
    true = len(np.unique(keys))
    bf = BloomFilter(p=17, nh=5)
    bf.update(keys)
    assert abs(bf.cardinality_estimate() - true) / true < 0.05


def test_bloom_merge_is_or(rng):
    a = rng.integers(0, 2**62, 3000).astype(np.uint64)
    b = rng.integers(0, 2**62, 3000).astype(np.uint64)
    f1, f2, fw = (BloomFilter(16, 5) for _ in range(3))
    f1.update(a)
    f2.update(b)
    fw.update(np.concatenate([a, b]))
    f1.merge(f2)
    assert np.array_equal(f1.words, fw.words)


# ---------------- KLL ----------------

def test_kll_rank_error(rng):
    vals = rng.lognormal(6, 0.8, 300_000)
    k = KLL(200)
    k.update_values(vals)
    for q in (0.01, 0.25, 0.5, 0.75, 0.99):
        est = float(np.atleast_1d(k.quantile(q))[0])
        true_rank = (vals <= est).mean()
        assert abs(true_rank - q) < 0.015, (q, true_rank)


def test_kll_merge_preserves_bound(rng):
    vals = rng.normal(0, 1, 200_000)
    parts = np.array_split(vals, 8)
    sks = []
    for p in parts:
        s = KLL(200)
        s.update_values(p)
        sks.append(s)
    acc = sks[0]
    for s in sks[1:]:
        acc.merge(s)
    assert acc.n[0] == 200_000
    for q in (0.05, 0.5, 0.95):
        est = float(np.atleast_1d(acc.quantile(q))[0])
        assert abs((vals <= est).mean() - q) < 0.02


# ---------------- t-digest ----------------

def test_tdigest_tail_accuracy(rng):
    vals = rng.lognormal(6, 0.8, 300_000)
    t = TDigest(100)
    t.update_values(vals)
    for q in (0.001, 0.01, 0.5, 0.99, 0.999):
        est = float(np.atleast_1d(t.quantile(q))[0])
        true_rank = (vals <= est).mean()
        # relative rank error at tails is what t-digest guarantees
        tol = max(0.002, 0.25 * min(q, 1 - q))
        assert abs(true_rank - q) < max(tol, 0.004), (q, true_rank)


def test_tdigest_merge(rng):
    vals = rng.normal(10, 3, 200_000)
    a, b = TDigest(100), TDigest(100)
    a.update_values(vals[:100_000])
    b.update_values(vals[100_000:])
    a.merge(b)
    assert abs(a.n - 200_000) < 1e-6
    est = float(np.atleast_1d(a.quantile(0.5))[0])
    assert abs((vals <= est).mean() - 0.5) < 0.01


def test_tdigest_weighted_update(rng):
    # SKEWED weights: near-uniform counts would make the weighted and
    # unweighted quantiles coincide, letting a TDigest that silently
    # ignores its weight argument pass
    t1, t2 = TDigest(100), TDigest(100)
    uniq = np.arange(100, dtype=np.float64)
    cnt = np.where(uniq < 10, 1000, 1).astype(np.int64)  # head-heavy
    vals = np.repeat(uniq, cnt)
    t1.update_values(vals)
    t2.update_values(uniq, cnt.astype(np.float64))
    assert abs(t2.n - cnt.sum()) < 1e-9  # weights actually counted
    q1 = np.atleast_1d(t1.quantile([0.25, 0.5, 0.75]))
    q2 = np.atleast_1d(t2.quantile([0.25, 0.5, 0.75]))
    assert np.allclose(q1, q2, atol=2.0)
    # the weighted median sits in the heavy head (~5), nowhere near the
    # unweighted median of the value domain (~50)
    assert q2[1] < 15


# ---------------- bottom-k ----------------

def test_bottomk_cardinality(rng):
    items = rng.integers(0, 500_000, 2_000_000).astype(np.uint64)
    true = len(np.unique(items))
    mh = BottomKMinHash(1024)
    mh.update(items)
    assert abs(mh.cardinality_estimate() - true) / true < 0.1


def test_bottomk_small_set_exact(rng):
    items = np.arange(100, dtype=np.uint64)
    mh = BottomKMinHash(1024)
    mh.update(items)
    assert mh.cardinality_estimate() == 100


def test_bottomk_jaccard_and_merge(rng):
    a = np.arange(0, 50_000, dtype=np.uint64)
    b = np.arange(25_000, 75_000, dtype=np.uint64)
    m1, m2 = BottomKMinHash(2048), BottomKMinHash(2048)
    m1.update(a)
    m2.update(b)
    assert abs(m1.jaccard(m2) - 1 / 3) < 0.05
    # merge == sketch of union
    mu = BottomKMinHash(2048)
    mu.update(np.concatenate([a, b]))
    m1.merge(m2)
    assert np.array_equal(m1.values, mu.values)


# ---------------- serialization across the family ----------------

@pytest.mark.parametrize("factory", [
    lambda: HyperLogLog(12),
    lambda: BloomFilter(14, 5),
    lambda: KLL(128),
    lambda: TDigest(64),
    lambda: BottomKMinHash(256),
])
def test_family_roundtrip(factory, rng):
    s = factory()
    s.update(rng.integers(0, 10_000, 20_000).astype(np.uint64))
    s2 = MergeableSketch.from_bytes(s.to_bytes())
    assert type(s2) is type(s)
    a1, a2 = s._arrays(), s2._arrays()
    assert all(np.array_equal(a1[k], a2[k]) for k in a1)


# ---------------- counting Bloom ----------------

def test_counting_bloom_insert_delete_merge(rng):
    from ocm_ray.sketches import CountingBloomFilter

    a = rng.integers(0, 2**60, 2000).astype(np.uint64)
    b = rng.integers(2**60, 2**61, 2000).astype(np.uint64)
    f1, f2 = CountingBloomFilter(16, 5), CountingBloomFilter(16, 5)
    f1.update(a)
    f2.update(b)
    f1.merge(f2)
    assert f1.contains(a).all() and f1.contains(b).all()
    # delete the b-set (possibly from a different partition's sketch)
    f1.delete(b)
    assert f1.contains(a).all()            # no false negatives after delete
    assert f1.contains(b).mean() < 0.05    # deleted mass mostly gone (FP-rate residue)
    # deletion composes through merge: (insert a) + (insert b, delete b) == insert a
    g1, g2 = CountingBloomFilter(16, 5), CountingBloomFilter(16, 5)
    g1.update(a)
    g2.update(b)
    g2.delete(b)
    g1.merge(g2)
    ref = CountingBloomFilter(16, 5)
    ref.update(a)
    assert np.array_equal(g1.counts, ref.counts)
    # roundtrip
    s2 = MergeableSketch.from_bytes(f1.to_bytes())
    assert np.array_equal(f1.counts, s2.counts)


def test_hll_ertl_beats_original_midrange():
    """Ertl's improved raw estimator (the default) removes the classic
    mid-range bias of the ORIGINAL FFGM estimator (hll.h:60-64 estimator
    enum; VERDICT r1 #3). Deterministic inputs → deterministic check."""
    from ocm_ray.sketches.hll import HyperLogLog

    sigma = 1.03896 / np.sqrt(2.0**14)
    for n in [1_000, 10_000, 40_000, 60_000, 100_000, 1_000_000]:
        he = HyperLogLog(14)
        ho = HyperLogLog(14, estimator="original")
        vals = np.arange(n, dtype=np.uint64)
        he.update(vals)
        ho.update(vals)
        rel_e = abs(he.estimate() - n) / n
        assert rel_e < 3 * sigma, f"ertl off at n={n}: {rel_e}"
        if n == 40_000:  # the classic bias hump at ~2.5·m
            rel_o = abs(ho.estimate() - n) / n
            assert rel_e < rel_o / 2, (rel_e, rel_o)


def test_hll_estimator_roundtrip_and_merge_unaffected():
    from ocm_ray.sketches.base import MergeableSketch
    from ocm_ray.sketches.hll import HyperLogLog

    a, b = HyperLogLog(12), HyperLogLog(12)
    a.update(np.arange(0, 30000, dtype=np.uint64))
    b.update(np.arange(20000, 50000, dtype=np.uint64))
    a.merge(b)
    assert abs(a.estimate() - 50000) / 50000 < 0.05
    back = MergeableSketch.from_bytes(a.to_bytes())
    assert back.estimator == "ertl_improved"
    assert back.estimate() == a.estimate()


def test_heavykeeper_finds_heavy_hitters():
    """HK top estimates track exact counts on Zipf (hk.h contract: decay
    evicts light items, heavy items keep their cells); distributed
    (merge) build agrees with the guarantee too."""
    from ocm_ray.data.sequences import sample_tokens
    from ocm_ray.sketches import HeavyKeeper, merge_all

    rng = np.random.default_rng(11)
    stream = sample_tokens(rng, 300_000, vocab=20_000, s=1.2).astype(np.uint64)
    true = np.bincount(stream.astype(np.int64))
    top_true = np.argsort(-true)[:20].astype(np.uint64)

    hk = HeavyKeeper(p=14, nh=4)
    hk.update(stream)
    rel = np.abs(hk.estimate(top_true) - true[top_true.astype(np.int64)]) \
        / true[top_true.astype(np.int64)]
    assert rel.max() < 0.05

    parts = []
    for chunk in np.array_split(stream, 8):
        h = HeavyKeeper(p=14, nh=4)
        h.update(chunk)
        parts.append(h)
    merged = merge_all(parts)
    rel_m = np.abs(merged.estimate(top_true) - true[top_true.astype(np.int64)]) \
        / true[top_true.astype(np.int64)]
    assert rel_m.max() < 0.10


def test_heavykeeper_topk_tracks_keys():
    from ocm_ray.data.sequences import sample_tokens
    from ocm_ray.sketches import HeavyKeeperTopK, MergeableSketch, merge_all

    rng = np.random.default_rng(5)
    stream = sample_tokens(rng, 200_000, vocab=20_000, s=1.2).astype(np.uint64)
    true = np.bincount(stream.astype(np.int64))
    top_true = set(np.argsort(-true)[:10].tolist())

    parts = []
    for chunk in np.array_split(stream, 4):
        t = HeavyKeeperTopK(capacity=64, p=14, nh=4)
        t.update(chunk)
        parts.append(t)
    tk = merge_all(parts)
    keys, ests = tk.top(10)
    assert len(set(keys.tolist()) & top_true) >= 9  # ≥9/10 of true top-10
    # serialization roundtrip preserves the candidate table
    back = MergeableSketch.from_bytes(tk.to_bytes())
    k2, e2 = back.top(10)
    assert (k2 == keys).all() and (e2 == ests).all()


def test_ddsketch_relative_error_and_merge():
    """DDSketch guarantee: every quantile within alpha relative error;
    merge = aligned bucket addition (exactly mergeable)."""
    from ocm_ray.sketches import DDSketch, MergeableSketch, merge_all

    rng = np.random.default_rng(3)
    x = np.concatenate([rng.lognormal(3, 1.5, 40_000),
                        -rng.lognormal(1, 1, 10_000),
                        np.zeros(500)])
    dd = DDSketch(alpha=0.01)
    dd.update(x)
    qs = [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99]
    est = dd.quantile(qs)
    truth = np.quantile(x, qs, method="lower")
    rel = np.abs(est - truth) / np.maximum(np.abs(truth), 1e-9)
    assert rel.max() < 0.021, rel  # alpha=1% midpoint + order-stat slack

    parts = []
    for chunk in np.array_split(x, 8):
        d = DDSketch(alpha=0.01)
        d.update(chunk)
        parts.append(d)
    merged = merge_all(parts)
    assert np.allclose(merged.quantile(qs), est)
    back = MergeableSketch.from_bytes(merged.to_bytes())
    assert np.allclose(back.quantile(qs), est)


def test_bloom_test_and_add():
    """may_contain_and_addh (bf.h:586): pre-insert membership returned,
    items inserted; in-batch repeats resolve sequentially."""
    from ocm_ray.sketches import BloomFilter

    bf = BloomFilter(16, 5)
    first = bf.test_and_add(np.array([1, 2, 3, 2, 1], dtype=np.uint64))
    assert first.tolist() == [False, False, False, True, True]
    again = bf.test_and_add(np.array([3, 4], dtype=np.uint64))
    assert again.tolist() == [True, False]
    assert bf.contains(np.array([1, 2, 3, 4], dtype=np.uint64)).all()


def test_pcsa_estimate_and_or_merge():
    """pc.h PCSA contract: OR-mergeable FM bitmaps; estimate within the
    published FM error (~0.78/sqrt(n_registers)) once n >> registers
    (the reference has no small-range correction — documented bias
    below ~register count)."""
    from ocm_ray.sketches import PCSA, MergeableSketch, merge_all

    sk = PCSA(10)
    sk.update(np.arange(200_000, dtype=np.uint64))
    assert abs(sk.estimate() - 200_000) / 200_000 < 0.10

    parts = []
    for lo in range(0, 200_000, 50_000):
        p = PCSA(10)
        p.update(np.arange(lo, lo + 50_000, dtype=np.uint64))
        parts.append(p)
    merged = merge_all(parts)
    assert merged.estimate() == sk.estimate()  # OR-merge is exact

    back = MergeableSketch.from_bytes(merged.to_bytes())
    assert back.estimate() == merged.estimate()


def test_probcounter_single_register():
    from ocm_ray.sketches import ProbabilisticCounter

    pc_sk = ProbabilisticCounter()
    pc_sk.update(np.arange(100_000, dtype=np.uint64))
    # deterministic input + hash chain: the estimate is EXACTLY
    # 2^R / phi for the register's lowest unset bit R (here 17) —
    # pinning it catches a dropped phi correction (1.29x) or an
    # off-by-one in the rank convention (2x), both of which the old
    # n/4..4n band admitted
    assert pc_sk.estimate() == pytest.approx(2**17 / 0.77351, rel=1e-3)


def test_filterhll_counts_repeated_items():
    """filterhll.h contract: HLL gated by a CBF count threshold —
    estimates the number of distinct items occurring ≥ threshold."""
    from ocm_ray.sketches import FilterHLL, MergeableSketch

    rng = np.random.default_rng(4)
    singles = rng.permutation(np.arange(0, 20_000, dtype=np.uint64))
    hot = np.arange(100_000, 102_000, dtype=np.uint64)  # 2000 items ×3
    stream = np.concatenate([singles, np.repeat(hot, 3)])
    stream = stream[rng.permutation(len(stream))]
    fh = FilterHLL(p=12, cbf_p=20, threshold=2)
    for lo in range(0, len(stream), 4096):
        fh.update(stream[lo:lo + 4096])
    est = fh.estimate()
    assert abs(est - 2000) / 2000 < 0.15, est
    back = MergeableSketch.from_bytes(fh.to_bytes())
    assert back.estimate() == est
    # merge composes (one-sided low for split counts — here each half
    # still sees the hot items twice, so the gate fires in both)
    a, b = FilterHLL(p=12, cbf_p=20, threshold=2), FilterHLL(p=12, cbf_p=20, threshold=2)
    a.update(np.repeat(hot[:1000], 2))
    b.update(np.repeat(hot[1000:], 2))
    a.merge(b)
    assert abs(a.estimate() - 2000) / 2000 < 0.15


def test_hyperminhash_cardinality_jaccard_merge():
    """hmh.h contract: one 16-bit-register sketch gives both cardinality
    (MinHash harmonic sum / HLL fallback) and Jaccard (matched registers
    minus expected collisions); merge = elementwise max, identical to
    building from the union stream."""
    from ocm_ray.sketches import HyperMinHash, MergeableSketch

    h = HyperMinHash(14)
    h.update(np.arange(100_000, dtype=np.uint64))
    assert abs(h.estimate() - 100_000) / 100_000 < 0.02

    for frac, tol in [(0.2, 0.03), (0.5, 0.03), (0.8, 0.03)]:
        n = 100_000
        a, b = HyperMinHash(14), HyperMinHash(14)
        a.update(np.arange(n, dtype=np.uint64))
        shift = int(n * (1 - frac))
        b.update(np.arange(shift, shift + n, dtype=np.uint64))
        true_j = frac / (2 - frac)
        assert abs(a.jaccard_index(b) - true_j) < tol

    a, b, u = HyperMinHash(12), HyperMinHash(12), HyperMinHash(12)
    a.update(np.arange(0, 60_000, dtype=np.uint64))
    b.update(np.arange(40_000, 100_000, dtype=np.uint64))
    u.update(np.arange(0, 100_000, dtype=np.uint64))
    a.merge(b)
    assert np.array_equal(a.registers, u.registers)
    back = MergeableSketch.from_bytes(a.to_bytes())
    assert back.estimate() == a.estimate()


def test_bbitminhash_jaccard_and_merge():
    """bbmh.h contract: bucketed one-permutation minima, min-merge
    (== union build, exact); b-bit collision-corrected Jaccard;
    harmonic cardinality."""
    from ocm_ray.sketches import BBitMinHash, MergeableSketch

    for frac, tol in [(0.0, 0.02), (0.5, 0.05), (0.8, 0.05)]:
        n = 100_000
        a, b = BBitMinHash(10), BBitMinHash(10)
        a.update(np.arange(n, dtype=np.uint64))
        shift = int(n * (1 - frac))
        b.update(np.arange(shift, shift + n, dtype=np.uint64))
        true_j = frac / (2 - frac)
        assert abs(a.jaccard_index(b) - true_j) < tol

    s = BBitMinHash(10)
    s.update(np.arange(500_000, dtype=np.uint64))
    assert abs(s.cardinality_estimate() - 500_000) / 500_000 < 0.1

    a, b, u = BBitMinHash(10), BBitMinHash(10), BBitMinHash(10)
    a.update(np.arange(0, 60_000, dtype=np.uint64))
    b.update(np.arange(40_000, 100_000, dtype=np.uint64))
    u.update(np.arange(0, 100_000, dtype=np.uint64))
    a.merge(b)
    assert np.array_equal(a.minvals, u.minvals)
    back = MergeableSketch.from_bytes(a.to_bytes())
    assert back.jaccard_index(u) == 1.0


def test_hll_compress_register_exact_and_estimator_preserved():
    """compress(new_p) must equal a NATIVELY built new_p sketch register
    by register (the moved index bits fold into the rank field), and
    keep the configured estimator."""
    from ocm_ray.sketches.hll import HyperLogLog

    rng = np.random.default_rng(3)
    items = rng.integers(0, 2**63, 100000).astype(np.uint64)
    for p, q in [(14, 10), (12, 8), (10, 10)]:
        hi = HyperLogLog(p, estimator="original")
        hi.update(items)
        lo = HyperLogLog(q, estimator="original")
        lo.update(items)
        f = hi.compress(q)
        assert f.estimator == "original"
        assert np.array_equal(f.registers, lo.registers), (p, q)
        # mixed-precision union is therefore exact: fold-then-merge ==
        # native union at the lower precision
        extra = rng.integers(0, 2**63, 5000).astype(np.uint64)
        nat = HyperLogLog(q, estimator="original")
        nat.update(np.concatenate([items, extra]))
        other = HyperLogLog(q, estimator="original")
        other.update(extra)
        assert np.array_equal(f.merge(other).registers, nat.registers)


def test_sketch_merge_rejects_prehashed_mismatch():
    """prehashed defines hash geometry — merging across it must raise,
    not silently union incompatible registers/values."""
    from ocm_ray.sketches import BottomKMinHash, CountingBottomKMinHash
    from ocm_ray.sketches.hll import HyperLogLog, SparseHLL

    items = np.arange(100, dtype=np.uint64)
    for cls in (HyperLogLog, SparseHLL):
        a, b = cls(10), cls(10, prehashed=True)
        a.update(items); b.update(items)
        with pytest.raises(AssertionError):
            a.merge(b)
    for cls in (BottomKMinHash, CountingBottomKMinHash):
        a, b = cls(16), cls(16, prehashed=True)
        a.update(items); b.update(items)
        with pytest.raises(AssertionError):
            a.merge(b)


def test_cbf_counters_survive_int32_overflow():
    """Slot counters must hold counts past 2^31 (the documented corpus
    design scale) without wrapping negative."""
    from ocm_ray.sketches import CountingBloomFilter

    cbf = CountingBloomFilter(p=8, nh=2)
    big = np.array([3_000_000_000], dtype=np.int64)
    items = np.array([42], dtype=np.uint64)
    cbf.update(items, big)
    cbf.update(items, big)  # merge-shaped accumulation on top
    assert cbf.est_count(items)[0] == 6_000_000_000
    assert bool(cbf.contains(items)[0])
    cbf.delete(items, np.array([5_999_999_999], dtype=np.int64))
    assert cbf.est_count(items)[0] == 1


def test_merge_sorted_counts_empty_inputs():
    from ocm_ray.sketches import merge_sorted_counts

    e_u = np.empty(0, np.uint64)
    e_c = np.empty(0, np.int64)
    u, c = merge_sorted_counts(e_u, e_c, e_u, e_c)
    assert len(u) == 0 and len(c) == 0
    u, c = merge_sorted_counts(e_u, e_c, np.array([7], np.uint64),
                               np.array([2], np.int64))
    assert list(u) == [7] and list(c) == [2]


def test_countminpow2_merge_advances_rng_counter():
    """The Morris decay-RNG counter must advance past BOTH partials on
    merge (as HeavyKeeper does) so the merged sketch never re-consumes a
    partial's consumed stream."""
    from ocm_ray.sketches.countmin import CountMinPow2

    rng = np.random.default_rng(0)
    a, b = CountMinPow2(10, 3), CountMinPow2(10, 3)
    a.update(rng.integers(0, 1000, 20000).astype(np.uint64))
    b.update(rng.integers(0, 1000, 20000).astype(np.uint64))
    ca, cb = int(a._rng_ctr[0]), int(b._rng_ctr[0])
    assert ca > 0 and cb > 0
    a.merge(b)
    assert int(a._rng_ctr[0]) == max(ca, cb) + 1


def test_ddsketch_empty_store_first_fold():
    """First update over sub-1.0 (all-negative-index) values must not
    collapse into one bucket: the empty store's phantom [0,-1] span used
    to anchor hi at 0 and blow the max_bins budget."""
    from ocm_ray.sketches.ddsketch import DDSketch

    rng = np.random.default_rng(1)
    x = rng.uniform(0.001, 0.05, 10000)
    d = DDSketch(alpha=0.01, max_bins=128)
    d.update(x)
    for q in (0.1, 0.5, 0.9, 0.99):
        est = d.quantile(q)
        assert isinstance(est, float)
        true = float(np.quantile(x, q))
        assert abs(est - true) / true < 0.02, (q, est, true)
    big = rng.uniform(1e6, 2e6, 10000)
    d2 = DDSketch(alpha=0.01, max_bins=128)
    d2.update(big)
    est = d2.quantile(0.5)
    assert abs(est - float(np.quantile(big, 0.5))) / est < 0.02


def test_kll_weighted_update_no_repeat():
    """Weighted KLL inserts via binary weight decomposition — bounded
    memory (no O(sum counts) np.repeat) and rank-correct."""
    from ocm_ray.sketches.kll import KLL

    rng = np.random.default_rng(0)
    vals = rng.normal(0, 1, 200)
    cnt = np.full(200, 1_000_000, dtype=np.int64)  # 200M virtual items
    k = KLL(200)
    k.update(vals, cnt)  # would be a 1.6 GB allocation via repeat
    assert int(k.n[0]) == 200_000_000
    for q in (0.25, 0.5, 0.75):
        assert abs(k.rank(float(np.quantile(vals, q)))[0] - q) < 0.05
    # scalar in, scalar out
    assert isinstance(k.quantile(0.5), float)
    # zero counts are dropped
    k2 = KLL(64)
    k2.update(np.array([1.0, 2.0]), np.array([0, 3], dtype=np.int64))
    assert int(k2.n[0]) == 3 and abs(k2.quantile(0.9) - 2.0) < 1e-9


def test_tdigest_zero_weight_no_nan():
    from ocm_ray.sketches.tdigest import TDigest

    td = TDigest()
    td.update_values(np.array([1.0, 2.0, 3.0]),
                     np.array([0.0, 5.0, 0.0]))
    td.update_values(np.array([4.0]), np.array([5.0]))
    q = np.atleast_1d(td.quantile(0.5))
    assert np.isfinite(q).all()


def test_sliding_hbb_save_load_roundtrip(tmp_path):
    """save(p)/load(p) with a bare path must round-trip (np.savez appends
    .npz), and SlidingWindowCM must persist the CM's stream length."""
    from ocm_ray.sketches.hbb import HyperBitBit
    from ocm_ray.sketches.sliding import SlidingWindowCM

    rng = np.random.default_rng(0)
    hb = HyperBitBit()
    hb.update(rng.integers(0, 2**63, 50000).astype(np.uint64))
    p = str(tmp_path / "hb")
    hb.save(p)
    hb2 = HyperBitBit.load(p)
    assert hb2.estimate() == hb.estimate()

    sw = SlidingWindowCM(1000, np_bits=10, nh=3)
    sw.update(rng.integers(0, 500, 5000).astype(np.uint64))
    p = str(tmp_path / "sw")
    sw.save(p)
    sw2 = SlidingWindowCM.load(p)
    assert int(sw2.cm.n_items[0]) == int(sw.cm.n_items[0]) > 0
    probe = np.arange(10, dtype=np.uint64)
    assert np.array_equal(sw2.estimate(probe), sw.estimate(probe))


def test_modsketch_reduce_zero_not_aliased():
    from ocm_ray.sketches.modvac import ModSketch

    m = ModSketch(6)
    m.update(np.arange(5000, dtype=np.uint64))
    before = m.quots.copy()
    r = m.reduce(0)
    assert r is not m
    r.update(np.arange(5000, 20000, dtype=np.uint64))
    assert np.array_equal(m.quots, before)  # source untouched


def test_cws_pmh_combiner_never_splits_weights():
    """CountCombiner must not flush mid-stream for final-weight sketches
    (cws/pmh): a split weight draws different signatures than the total
    weight. The combiner path (tiny flush_limit) must equal one-shot."""
    from ocm_ray.sketches.base import CountCombiner
    from ocm_ray.sketches.cws import WeightedMinHash
    from ocm_ray.sketches.pmh import ProbMinHash

    rng = np.random.default_rng(2)
    # unbounded-looking domain: big hash-like ids, repeated across batches
    ids = rng.integers(2**48, 2**60, 2000).astype(np.uint64)
    stream = np.concatenate([ids, ids, ids])
    for cls in (WeightedMinHash, ProbMinHash):
        one = cls(32)
        u, c = np.unique(stream, return_counts=True)
        one.update(u, c.astype(np.int64))
        comb = CountCombiner(cls(32))  # default limit: no mid-stream flush
        for lo in range(0, len(stream), 500):
            comb.add(stream[lo:lo + 500])
        two = comb.finish()
        for name, a in one._arrays().items():
            assert np.array_equal(a, two._arrays()[name]), \
                (cls.__name__, name)
        # a table crossing the cap must ERROR (splitting weights would
        # silently corrupt signatures; unbounded growth would OOM)
        tight = CountCombiner(cls(32), flush_limit=64)
        with pytest.raises(ValueError, match="FINAL weights"):
            for lo in range(0, len(stream), 500):
                tight.add(stream[lo:lo + 500])


# ---------------- KLL± (deletions) ----------------

def test_kllpm_exact_regime_matches_quantile_disc(rng):
    """Exact capacity regime: quantiles of the insert-minus-delete
    multiset reproduce the SQL quantile_disc convention (value at
    ceil(q*n), 1-indexed) bit-exactly."""
    from ocm_ray.sketches import KLLPM

    vals = rng.normal(0, 1, 6000)
    dels = vals[rng.choice(6000, 2000, replace=False)]
    sk = KLLPM(k=1 << 17)
    sk.update_values(vals)
    sk.delete_values(dels)
    import collections

    c = collections.Counter(vals.tolist())
    for d in dels.tolist():
        c[d] -= 1
    rem = np.sort(np.array([v for v, m in c.items() for _ in range(m)]))
    assert int(sk.n[0]) == len(rem) == 4000
    for q in (0.01, 0.1, 0.5, 0.9, 0.99):
        want = rem[max(int(np.ceil(q * len(rem))), 1) - 1]
        assert sk.quantile(q) == want, q


def test_kllpm_rank_error_with_deletions(rng):
    """Approximate regime: 30% deletions, error stays near the KLL
    bound scaled by (n_ins + n_del)/n_live."""
    from ocm_ray.sketches import KLLPM

    vals = rng.lognormal(6, 0.8, 300_000)
    drop = vals[rng.choice(300_000, 90_000, replace=False)]
    import collections

    c = collections.Counter(vals.tolist())
    for d in drop.tolist():
        c[d] -= 1
    rem = np.sort(np.array([v for v, m in c.items() for _ in range(m)]))
    sk = KLLPM(200)
    sk.update_values(vals)
    sk.delete_values(drop)
    assert int(sk.n[0]) == len(rem)
    for q in (0.1, 0.5, 0.9):
        est = float(np.atleast_1d(sk.quantile(q))[0])
        true_rank = (rem <= est).mean()
        assert abs(true_rank - q) < 0.05, (q, true_rank)


def test_kllpm_merge_and_roundtrip(rng):
    """Partitioned inserts/deletes merged == the single-sketch stream
    within the rank bound; bytes round-trip through the registry."""
    from ocm_ray.sketches import KLLPM
    from ocm_ray.sketches.base import MergeableSketch

    vals = rng.normal(0, 1, 120_000)
    drop = vals[rng.choice(120_000, 30_000, replace=False)]
    parts = np.array_split(vals, 6)
    dparts = np.array_split(drop, 6)
    acc = None
    for p, dp in zip(parts, dparts):
        s = KLLPM(200)
        s.update_values(p)
        s.delete_values(dp)
        acc = s if acc is None else acc.merge(s)
    import collections

    c = collections.Counter(vals.tolist())
    for d in drop.tolist():
        c[d] -= 1
    rem = np.sort(np.array([v for v, m in c.items() for _ in range(m)]))
    assert int(acc.n[0]) == len(rem)
    for q in (0.25, 0.5, 0.75):
        est = float(np.atleast_1d(acc.quantile(q))[0])
        assert abs((rem <= est).mean() - q) < 0.05
    back = MergeableSketch.from_bytes(acc.to_bytes())
    assert type(back).__name__ == "KLLPM"
    assert back.quantile(0.5) == acc.quantile(0.5)
    assert int(back.n[0]) == int(acc.n[0])


def test_kllpm_rank_cdf_monotone_and_clipped():
    """Deletion-heavy stream (90% retracted): the raw signed rank of
    the insert and delete sketches dips below 0 and overshoots 1, so
    rank() and cdf() carry quantile()'s running-max repair and a clip —
    nondecreasing in x and inside [0, 1]."""
    from ocm_ray.sketches import KLLPM

    gen = np.random.default_rng(0)
    vals = gen.integers(0, 1000, 20_000).astype(np.float64)
    sk = KLLPM(50)
    sk.update_values(vals)
    sk.delete_values(vals[:18_000])
    xs = np.linspace(-10, 1010, 2000)
    for out in (sk.rank(xs), sk.cdf(xs)):
        assert (np.diff(out) >= 0).all()
        assert out.min() >= 0.0 and out.max() <= 1.0
    assert sk.rank([-1.0])[0] == 0.0 and sk.rank([1e9])[0] == 1.0
