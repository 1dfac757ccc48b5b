"""Distributed histogram-based decision tree: exact partition
invariance of the histogram/split machinery (integer partials), XOR
separation a linear model cannot learn, KLL-binned end-to-end accuracy,
and the save/load round trip."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

pytestmark = pytest.mark.usefixtures("ray_session")


def _and_frame(n=4000, seed=5):
    """label = (a > 0.2) AND (b > -0.3) — an axis-aligned interaction a
    depth-2 greedy tree recovers exactly (pure XOR would defeat ANY
    greedy CART: no single root split has Gini gain)."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1, 1, n)
    b = rng.uniform(-1, 1, n)
    noise = rng.uniform(-1, 1, n)
    return pd.DataFrame({
        "doc_id": np.arange(n), "a": a, "b": b, "noise": noise,
        "label": (a > 0.2) & (b > -0.3),
    })


def test_fixed_edge_training_is_exactly_partition_invariant(monkeypatch):
    """With pinned bin edges the whole training loop is integer
    histogram partials + deterministic driver split selection — the
    tree arrays must be IDENTICAL across partition layouts."""
    import ray.data as rd

    import ocm_ray.ops.classifier as cl

    df = _and_frame(seed=9)
    cols = ("a", "b", "noise")
    fixed = [np.linspace(-0.9, 0.9, 15) for _ in cols]
    monkeypatch.setattr(cl, "_tree_bin_edges",
                        lambda ds, fc, nb, sketch_k=4096: fixed)
    models = [cl.train_tree_classifier(
        rd.from_pandas(df).repartition(reps), cols, max_depth=3)
        for reps in (1, 7, 16)]
    for m in models[1:]:
        np.testing.assert_array_equal(models[0].feat, m.feat)
        np.testing.assert_array_equal(models[0].thresh, m.thresh)
        np.testing.assert_array_equal(models[0].leaf_p, m.leaf_p)


def test_tree_learns_axis_aligned_interaction():
    import ray.data as rd

    from ocm_ray.ops.classifier import (train_tree_classifier,
                                        tree_scores)

    df = _and_frame()
    ds = rd.from_pandas(df).repartition(6)
    model = train_tree_classifier(ds, ("a", "b", "noise"), max_depth=2,
                                  n_bins=32)
    out = tree_scores(rd.from_pandas(df), model).to_pandas() \
        .merge(df[["doc_id", "label"]], on="doc_id")
    acc = (out["tree_keep"] == out["label"]).mean()
    assert acc > 0.95, acc
    # the depth-2 tree must split on the signal features, not noise
    used = set(model.feat[model.feat >= 0].tolist())
    assert used <= {0, 1}


def test_tree_save_load_and_score_columns(tmp_path):
    import ray.data as rd

    from ocm_ray.ops.classifier import (TreeModel, train_tree_classifier,
                                        tree_scores)

    df = _and_frame(n=1500, seed=3)
    model = train_tree_classifier(rd.from_pandas(df), ("a", "b"),
                                  max_depth=2)
    p = str(tmp_path / "tree.npz")
    model.save(p)
    back = TreeModel.load(p)
    np.testing.assert_array_equal(model.feat, back.feat)
    np.testing.assert_array_equal(model.thresh, back.thresh)
    np.testing.assert_array_equal(model.leaf_p, back.leaf_p)
    assert back.feature_cols == model.feature_cols
    out = tree_scores(rd.from_pandas(df), back).to_pandas()
    assert set(out.columns) == {"doc_id", "tree_p", "tree_keep"}
    X = df[["a", "b"]].to_numpy()
    np.testing.assert_allclose(
        out.sort_values("doc_id")["tree_p"].to_numpy(),
        np.round(model.apply(X), 6))


def test_pure_and_tiny_nodes_stay_leaves():
    """A single-class corpus never splits; min_samples stops growth."""
    import ray.data as rd

    from ocm_ray.ops.classifier import train_tree_classifier

    df = _and_frame(n=500, seed=7)
    df["label"] = True
    m = train_tree_classifier(rd.from_pandas(df), ("a", "b"), max_depth=3)
    assert (m.feat == -1).all() and m.leaf_p[0] == 1.0
    df2 = _and_frame(n=20, seed=8)
    m2 = train_tree_classifier(rd.from_pandas(df2), ("a", "b"),
                               max_depth=3, min_samples=64)
    assert (m2.feat == -1).all()


def _node_at(model, X, depth):
    """Node id of every row after ``depth`` levels of the tree walk."""
    node = np.zeros(len(X), dtype=np.int64)
    for _ in range(depth):
        f = model.feat[node]
        live = f >= 0
        right = np.zeros(len(X), dtype=bool)
        right[live] = X[np.nonzero(live)[0], f[live]] \
            > model.thresh[node[live]]
        node = np.where(live, 2 * node + 1 + right, node)
    return node


def test_split_histogram_counts_match_realized_partition_on_ties(
        monkeypatch):
    """Integer features with every value on a bin edge: the histogram
    bin of a value equal to the split threshold must sit on the side
    ``TreeModel.apply``'s ``x <= thresh`` sends it, so each chosen
    split's histogram left/right class counts equal the partition the
    model realizes on the training rows."""
    import pyarrow as pa
    import ray.data as rd

    import ocm_ray.ops.classifier as cl

    rng = np.random.default_rng(11)
    n = 3000
    a = rng.integers(0, 10, n)
    b = rng.integers(0, 10, n)
    flip = rng.random(n) < 0.05
    df = pd.DataFrame({"doc_id": np.arange(n), "a": a, "b": b,
                       "label": ((a >= 5) & (b >= 3)) ^ flip})
    cols = ("a", "b")
    edges = [np.arange(9, dtype=np.float64) for _ in cols]
    monkeypatch.setattr(cl, "_tree_bin_edges",
                        lambda ds, fc, nb, sketch_k=4096: edges)
    model = cl.train_tree_classifier(rd.from_pandas(df).repartition(4),
                                     cols, max_depth=3, min_samples=8)
    X = df[list(cols)].to_numpy().astype(np.float64)
    y = df["label"].to_numpy()
    tbl = pa.Table.from_pandas(df, preserve_index=False)
    splits = np.flatnonzero(model.feat >= 0)
    assert len(splits) >= 2
    ties = 0
    for node in splits:
        depth = int(np.log2(node + 1))
        f, t = int(model.feat[node]), model.thresh[node]
        hist = cl._tree_hist_kernel(cols, "label", edges, model.feat,
                                    model.thresh, depth)(tbl).to_pandas()
        hist = hist[(hist["node"] == node) & (hist["feat"] == f)]
        b_split = int(np.searchsorted(edges[f], t))
        assert edges[f][b_split] == t
        left = hist["bin"] <= b_split
        at = _node_at(model, X, depth) == node
        go_left = at & (X[:, f] <= t)
        go_right = at & (X[:, f] > t)
        assert hist.loc[left, "pos"].sum() == (go_left & y).sum()
        assert hist.loc[left, "neg"].sum() == (go_left & ~y).sum()
        assert hist.loc[~left, "pos"].sum() == (go_right & y).sum()
        assert hist.loc[~left, "neg"].sum() == (go_right & ~y).sum()
        ties += int((at & (X[:, f] == t)).sum())
    assert ties > 0
