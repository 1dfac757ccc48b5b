"""Trainable Naive-Bayes text quality classifier (fasttext-style filter).

The standard LLM-curation quality filter shape (GPT-3 / CCNet /
RefinedWeb): train a bag-of-words classifier with "high-quality"
documents as positives (e.g. wiki/books vs raw web) and keep or
down-sample documents by classifier score. Multinomial Naive Bayes is
the one-pass, exactly-mergeable member of that family, which makes it
the right fit for this engine's UDAF discipline:

* **training** is two grouped INTEGER count tables — ``(word, label) →
  occurrences`` and ``label → documents`` — built with the same salted
  two-phase aggregation as ``ops.text.token_count_table`` (per-block
  local ``value_counts`` partials, then the tiny ``ops/agg.grouped_sum``
  tree). Partials merge exactly, so training is deterministic and
  partition-invariant, and the only shuffle is vocab-bounded (the model
  table, never the corpus).
* **scoring** is one stateless broadcast pass: the vocab-sized
  ``(word hash → per-word log-likelihood-ratio)`` table ships once via
  ``ray.put`` and each batch is scored with a ``searchsorted`` lookup +
  ``reduceat`` row sum — no per-row Python, no shuffle.

Like the unigram LM (``ops.text.unigram_logprob``) the model is
word-vocab-bounded and driver-held — the documented contract for
vocabulary-sized state in this engine. The corpus itself never lands on
the driver.

Scores are exact-SQL-mirrorable: with ``alpha=1`` the per-word term is
``log2((cp+1)/(tp+V)) - log2((cn+1)/(tn+V))`` over integer counts, so a
DuckDB oracle reproduces the rounded log-odds (the ``doc_signals``
query hash-matches the ``nb_logodds`` / ``nb_keep`` columns).

Words are split on single spaces (DuckDB ``string_split`` semantics,
empties kept) and matched through the engine's stable string codec
(``engine.tokens.hash_string_array``) — equal to string-keyed grouping
absent 64-bit hash collisions, the same documented contract as the LM
and dedup operators.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pyarrow as pa


@dataclass
class NBModel:
    """Binary multinomial-NB model over space-split words.

    ``keys`` are SORTED uint64 word hashes; ``lp_diff[i]`` is the per-
    occurrence log2 likelihood ratio of ``keys[i]``; ``lp_oov`` is the
    ratio for a word unseen in training (the smoothing floor, nonzero
    whenever class totals differ); ``prior`` is the document-frequency
    log-odds added once per document.
    """

    keys: np.ndarray
    lp_diff: np.ndarray
    lp_oov: float
    prior: float
    vocab_size: int
    alpha: float
    lowercase: bool
    n_pos_docs: int
    n_neg_docs: int

    def save(self, path: str) -> None:
        # write through a file handle: np.savez_compressed(path=str)
        # appends '.npz' to suffix-less paths, which would break the
        # save(path) -> load(path) round trip for e.g. --model /tmp/m
        with open(path, "wb") as fh:
            np.savez_compressed(
                fh, keys=self.keys, lp_diff=self.lp_diff,
                scalars=np.array([self.lp_oov, self.prior,
                                  float(self.vocab_size), self.alpha,
                                  float(self.lowercase),
                                  float(self.n_pos_docs),
                                  float(self.n_neg_docs)],
                                 dtype=np.float64))

    @classmethod
    def load(cls, path: str) -> "NBModel":
        with np.load(path) as z:
            keys, lp_diff, s = z["keys"], z["lp_diff"], z["scalars"]
        return cls(keys=keys, lp_diff=lp_diff, lp_oov=float(s[0]),
                   prior=float(s[1]), vocab_size=int(s[2]), alpha=float(s[3]),
                   lowercase=bool(s[4]), n_pos_docs=int(s[5]),
                   n_neg_docs=int(s[6]))


def train_quality_classifier(ds, label_col: str = "label",
                             text_col: str = "text", alpha: float = 1.0,
                             lowercase: bool = False) -> NBModel:
    """Train a binary multinomial NB on a labeled corpus.

    ``label_col`` must be boolean (True = positive / high quality).
    ONE corpus pass: each block emits its ``(word, label)``
    ``value_counts`` partials (bounded at one row per distinct word per
    block — Zipf-proof) PLUS two per-label document-count rows, tagged
    by a ``kind`` discriminator so both aggregates ride the same
    ``grouped_sum`` tree; the driver holds only the vocab-sized model
    table. Pass a deterministic dataset (a read, or ``materialize()``
    first if the upstream samples/shuffles).
    """
    from ocm_ray.engine.tokens import hash_string_array
    from ocm_ray.ops.agg import grouped_sum

    def local_counts(batch: pa.Table) -> pa.Table:
        import polars as pl
        import pyarrow.compute as pc

        txt = batch.column(text_col)
        if lowercase:
            # MUST be the same kernel the scoring pass uses
            # (split_words_hashed → pc.utf8_lower): polars
            # str.to_lowercase special-cases some codepoints (e.g.
            # 'İ') differently, which would silently train words the
            # scorer can never look up
            txt = pc.utf8_lower(txt)
        df = pl.DataFrame({
            "token": pl.from_arrow(txt),
            "y": pl.from_arrow(batch.column(label_col)),
        })
        vc = (df.with_columns(pl.col("token").str.split(" "))
                .explode("token")
                .group_by(["token", "y"]).len("cnt"))
        dc = df.group_by("y").len("cnt")  # per-label doc counts (kind=1)
        nw = len(vc)

        def _arr(a, typ):
            a = a.combine_chunks() if isinstance(a, pa.ChunkedArray) else a
            return a.cast(typ)

        return pa.table({
            "kind": pa.array([0] * nw + [1] * len(dc), pa.int8()),
            "token": pa.concat_arrays([
                _arr(vc["token"].to_arrow(), pa.string()),
                pa.array([""] * len(dc), pa.string())]),
            "y": pa.concat_arrays([
                _arr(vc["y"].to_arrow(), pa.bool_()),
                _arr(dc["y"].to_arrow(), pa.bool_())]),
            "cnt": pa.concat_arrays([
                _arr(vc["cnt"].to_arrow(), pa.int64()),
                _arr(dc["cnt"].to_arrow(), pa.int64())]),
        })

    agg = grouped_sum(
        ds.map_batches(local_counts, batch_size=None,
                       batch_format="pyarrow"),
        ["kind", "token", "y"], ["cnt"])
    # Fold the vocab-sized table driver-side in the HASH domain,
    # streaming batch by batch: token STRINGS never accumulate on the
    # driver (the scorer looks words up by their 64-bit hash anyway —
    # the engine-wide hash-domain contract). The old pandas
    # pivot_table held 2-3 object-dtype copies of a multi-million-word
    # vocab (~1 GB driver RSS in the census); this holds three numpy
    # arrays (~17 B/row).
    h_parts, y_parts, c_parts = [], [], []
    n_pos = n_neg = 0
    for b in agg.iter_batches(batch_format="pyarrow"):
        if b.num_rows == 0:     # may arrive schema-less (rule 8b)
            continue
        kind = b.column("kind").to_numpy(zero_copy_only=False)
        words = b.filter(pa.array(kind == 0))
        docs = b.filter(pa.array(kind != 0))
        if docs.num_rows:
            dy = docs.column("y").to_numpy(zero_copy_only=False)
            dc = docs.column("cnt").to_numpy(zero_copy_only=False)
            n_pos += int(dc[dy].sum())
            n_neg += int(dc[~dy].sum())
        if words.num_rows:
            h_parts.append(hash_string_array(words.column("token"))
                           .astype(np.uint64))
            y_parts.append(words.column("y")
                           .to_numpy(zero_copy_only=False))
            c_parts.append(words.column("cnt")
                           .to_numpy(zero_copy_only=False))
    if n_pos == 0 or n_neg == 0:
        raise ValueError(
            f"both classes need documents (pos={n_pos}, neg={n_neg})")

    h = np.concatenate(h_parts) if h_parts else np.empty(0, np.uint64)
    yv = np.concatenate(y_parts) if y_parts else np.empty(0, bool)
    cv = (np.concatenate(c_parts) if c_parts
          else np.empty(0, np.int64)).astype(np.float64)
    order = np.argsort(h, kind="stable")
    h, yv, cv = h[order], yv[order], cv[order]
    first = np.concatenate([[True], h[1:] != h[:-1]]) if len(h) \
        else np.zeros(0, bool)
    uid = np.cumsum(first) - 1
    vocab = int(first.sum())
    cp = np.zeros(vocab)
    cn = np.zeros(vocab)
    np.add.at(cp, uid[yv], cv[yv])
    np.add.at(cn, uid[~yv], cv[~yv])
    tp, tn = float(cp.sum()), float(cn.sum())
    # per-occurrence log-likelihood ratio, Laplace(alpha)-smoothed —
    # identical expression shape to the SQL oracle (cp+a)/(tp+a*V)
    dp, dn = float(tp + alpha * vocab), float(tn + alpha * vocab)
    lp_diff = np.log2((cp + alpha) / dp) - np.log2((cn + alpha) / dn)
    lp_oov = float(np.log2(alpha / dp) - np.log2(alpha / dn))

    total = float(n_pos + n_neg)
    prior = float(np.log2(n_pos / total) - np.log2(n_neg / total))
    return NBModel(keys=h[first], lp_diff=lp_diff, lp_oov=lp_oov,
                   prior=prior, vocab_size=vocab, alpha=alpha,
                   lowercase=lowercase, n_pos_docs=n_pos, n_neg_docs=n_neg)


def _score_kernel(model: NBModel, text_col: str, ndigits: int):
    """Shared batch→rounded-log-odds closure: the (sorted-hash →
    log-likelihood-ratio) table rides the object store ONCE via
    ``ray.put``; each batch is one searchsorted lookup + reduceat row
    sum (no per-row Python). OOV words take the smoothing floor."""
    import ray

    from ocm_ray.engine.tokens import split_words_hashed

    ref = ray.put((model.keys, model.lp_diff))
    lp_oov, prior, lc = model.lp_oov, model.prior, model.lowercase

    def scores(batch: pa.Table) -> np.ndarray:
        k, lp = ray.get(ref)
        flat, lens = split_words_hashed(batch.column(text_col),
                                        lowercase=lc)
        if len(flat):
            idx = np.searchsorted(k, flat)
            idx_c = np.minimum(idx, len(k) - 1)
            vals = np.where(k[idx_c] == flat, lp[idx_c], lp_oov)
            offs = np.concatenate([[0], np.cumsum(lens)]).astype(np.int64)
            sums = np.add.reduceat(vals, offs[:-1])
            sums[lens == 0] = 0.0
        else:
            sums = np.zeros(len(lens))
        return np.round(prior + sums, ndigits)

    return scores


def nb_scores(ds, model: NBModel, id_col: str = "doc_id",
              text_col: str = "text", ndigits: int = 4,
              threshold: float = 0.0):
    """Score every document: ``nb_logodds`` (rounded sum of per-word
    log-likelihood ratios + prior) and ``nb_keep`` (rounded log-odds
    > ``threshold`` — computed on the ROUNDED value so the flag is
    reproducible by an oracle that rounds identically). One stateless
    broadcast pass."""
    scores = _score_kernel(model, text_col, ndigits)

    def score(batch: pa.Table) -> pa.Table:
        logodds = scores(batch)
        return pa.table({id_col: batch.column(id_col),
                         "nb_logodds": pa.array(logodds),
                         "nb_keep": pa.array(logodds > threshold)})

    return ds.map_batches(score, batch_format="pyarrow")


def nb_filter(ds, model: NBModel, text_col: str = "text",
              threshold: float = 0.0, ndigits: int = 4):
    """Keep only rows the classifier scores above ``threshold`` —
    the curation-pipeline filter stage (all input columns pass
    through)."""
    scores = _score_kernel(model, text_col, ndigits)

    def keep(batch: pa.Table) -> pa.Table:
        return batch.filter(pa.array(scores(batch) > threshold))

    return ds.map_batches(keep, batch_format="pyarrow")


def nb_keep_top_fraction(ds, model: NBModel, frac: float,
                         text_col: str = "text", ndigits: int = 4,
                         sketch_k: int = 400):
    """Keep (approximately) the top ``frac`` of documents by classifier
    score — the FineWeb-Edu-style curation policy ("keep the top X%"),
    with the threshold discovered distributedly instead of hand-tuned.

    Two stateless broadcast passes, no shuffle, nothing corpus-sized on
    the driver: pass 1 folds the rounded scores into a mergeable KLL
    sketch (``engine.build.build_sketch``: raw-task folds, tree merge); the
    threshold is the sketch's ``1 - frac`` quantile. Pass 2 re-scores
    and filters with ``score >= threshold`` — since scores live on the
    ``10^-ndigits`` grid, this is expressed exactly through
    ``nb_filter``'s strict ``>`` at ``threshold - grid/2``. The kept
    fraction is approximate at the quantile boundary (KLL(k) rank error
    plus ties on the grid); re-scoring beats materializing the scored
    corpus at 100 TB. Returns ``(filtered_ds, threshold)``."""
    scores = _score_kernel(model, text_col, ndigits)
    threshold = _score_quantile(ds, scores, frac, sketch_k)
    if threshold == float("-inf"):
        return ds, threshold
    grid = 10.0 ** (-ndigits)
    return (nb_filter(ds, model, text_col=text_col,
                      threshold=threshold - grid / 2, ndigits=ndigits),
            threshold)


def _score_quantile(ds, scores, frac: float, sketch_k: int) -> float:
    """The distributed threshold-discovery pass shared by the NB and LR
    top-fraction policies: fold the rounded scores into one KLL through
    ``engine.build.build_sketch`` and return the ``1 - frac`` quantile
    (``-inf`` on an empty corpus)."""
    if not 0.0 < frac <= 1.0:
        raise ValueError(f"frac must be in (0, 1], got {frac}")
    from ocm_ray.engine.build import build_sketch
    from ocm_ray.sketches.kll import KLL

    def score_col(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:     # may arrive schema-less (rule 8b)
            return pa.table({})
        return pa.table({"score": pa.array(scores(batch), pa.float64())})

    merged = build_sketch(ds.map_batches(score_col, batch_format="pyarrow"),
                          lambda: KLL(sketch_k), column="score")
    if merged.n[0] == 0:
        return float("-inf")
    return float(merged.quantile(1.0 - frac))


# ---------------------------------------------------------------------------
# logistic regression on hashed features (the fastText-style linear filter)


@dataclass
class LRModel:
    """Binary logistic regression over feature-hashed words (optionally
    + adjacent-word bigrams, the fastText recipe). ``w`` is the dense
    float64 weight vector of size ``dim`` (driver-held, bounded by the
    hash dimension BY CONSTRUCTION — never by the vocabulary); features
    are L1-normalized token counts so the logit is mean(w over tokens)
    + b."""

    w: np.ndarray
    b: float
    dim: int
    bigrams: bool
    lowercase: bool
    epochs: int
    lr: float
    l2: float

    def save(self, path: str) -> None:
        with open(path, "wb") as fh:
            np.savez_compressed(
                fh, w=self.w,
                scalars=np.array([self.b, float(self.dim),
                                  float(self.bigrams),
                                  float(self.lowercase),
                                  float(self.epochs), self.lr, self.l2],
                                 dtype=np.float64))

    @classmethod
    def load(cls, path: str) -> "LRModel":
        with np.load(path) as z:
            w, s = z["w"], z["scalars"]
        return cls(w=w, b=float(s[0]), dim=int(s[1]),
                   bigrams=bool(s[2]), lowercase=bool(s[3]),
                   epochs=int(s[4]), lr=float(s[5]), l2=float(s[6]))


_BIGRAM_SALT = np.uint64(0xC2B2AE3D27D4EB4F)


def _lr_flat_features(txt, dim: int, bigrams: bool, lowercase: bool):
    """Two flat (bucket-id, docs-per-row) streams for a text column:
    word features, and (optionally) adjacent-word bigram features —
    kept as SEPARATE streams so per-doc segment sums need no
    interleaving. Bucketing is ``hash % dim`` on the engine's stable
    word hash; bigrams mix the two word hashes before bucketing."""
    from ocm_ray.core.hashing import wanghash
    from ocm_ray.engine.tokens import split_words_hashed

    flat, lens = split_words_hashed(txt, lowercase=lowercase)
    wfeat = (flat % np.uint64(dim)).astype(np.int64)
    if not bigrams:
        return wfeat, lens, np.empty(0, np.int64), np.zeros_like(lens)
    if len(flat) < 2:
        return wfeat, lens, np.empty(0, np.int64), np.zeros_like(lens)
    # valid bigram positions: every token except each doc's last
    ends = np.cumsum(lens)                  # one past each doc
    keep = np.ones(len(flat) - 1, dtype=bool)
    last = ends[lens > 0] - 1               # index of each doc's last token
    keep[last[last < len(keep)]] = False
    h2 = wanghash(flat[:-1] * _BIGRAM_SALT ^ flat[1:])[keep]
    bfeat = (h2 % np.uint64(dim)).astype(np.int64)
    blens = np.maximum(lens - 1, 0)
    return wfeat, lens, bfeat, blens


def _segment_sums(vals: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Per-doc sums of a flat value stream (empty docs sum to 0)."""
    out = np.zeros(len(lens))
    nz = lens > 0
    if vals.size:
        offs = np.concatenate([[0], np.cumsum(lens)[:-1]])
        sums = np.add.reduceat(vals, offs[nz])
        out[nz] = sums
    return out


def _lr_logits(w, b, wfeat, lens, bfeat, blens):
    tot = (lens + blens).astype(np.float64)
    z = _segment_sums(w[wfeat], lens) + _segment_sums(w[bfeat], blens)
    nz = tot > 0
    z[nz] /= tot[nz]
    return z + b, tot


def train_lr_classifier(ds, label_col: str = "label",
                        text_col: str = "text", dim: int = 1 << 18,
                        bigrams: bool = False, lowercase: bool = True,
                        epochs: int = 40, lr: float = 5.0,
                        l2: float = 1e-6,
                        history: list = None) -> LRModel:
    """Train a binary logistic-regression quality classifier by
    FULL-BATCH gradient descent, one distributed corpus pass per epoch.

    Each epoch broadcasts ``(w, b)`` once via ``ray.put``; every block
    computes its EXACT partial gradient — a sparse ``(feature, grad)``
    table (bounded at one row per distinct bucket per block) plus
    scalar rows (grad_b, log-loss, n_docs) tagged by a ``kind``
    discriminator — and the partials fold through the
    :func:`ocm_ray.ops.agg.grouped_sum` tree exactly like the NB count
    tables. The driver holds only the dim-sized gradient and model
    (2 MB at the default ``dim=2^18``); the corpus never lands on it.
    Full-batch GD is deterministic given the partition layout (float
    partials fold in tree order), and partial sums equal the local
    gradient to float rounding — asserted in the parity tests.

    ``label_col``: bool or 0/1 int (True = positive / high quality).
    ``history``: optional list that receives one
    ``(epoch, mean_logloss)`` tuple per epoch.
    At 100 TB, train on a SAMPLE (the standard practice for quality
    filters) or accept ``epochs`` corpus passes; the upstream ``ds``
    re-executes per epoch, so pass a read or materialized dataset.
    """
    import ray

    from ocm_ray.ops.agg import grouped_sum

    w = np.zeros(dim)
    b = 0.0
    for _ep in range(epochs):
        ref = ray.put((w, b))

        def partials(batch: pa.Table) -> pa.Table:
            if batch.num_rows == 0:     # may arrive schema-less (rule 8b)
                return pa.table({"kind": pa.array([], pa.int8()),
                                 "feat": pa.array([], pa.int64()),
                                 "g": pa.array([], pa.float64())})
            cw, cb = ray.get(ref)
            wfeat, lens, bfeat, blens = _lr_flat_features(
                batch.column(text_col), dim, bigrams, lowercase)
            z, tot = _lr_logits(cw, cb, wfeat, lens, bfeat, blens)
            y = batch.column(label_col).to_numpy(zero_copy_only=False) \
                .astype(np.float64)
            p = 0.5 * (1.0 + np.tanh(0.5 * z))      # stable sigmoid
            r = p - y
            # per-token residual weight r_d / tot_d, scattered into the
            # feature buckets of BOTH streams
            rw = np.zeros(len(r))
            nz = tot > 0
            rw[nz] = r[nz] / tot[nz]
            dense = np.bincount(wfeat, weights=np.repeat(rw, lens),
                                minlength=dim)
            if blens.sum():
                dense += np.bincount(bfeat, weights=np.repeat(rw, blens),
                                     minlength=dim)
            feats = np.nonzero(dense)[0]
            loss = float(np.sum(np.logaddexp(0.0, z) - y * z))
            return pa.table({
                "kind": pa.array(np.concatenate(
                    [np.zeros(len(feats), np.int8),
                     np.ones(3, np.int8)])),
                "feat": pa.array(np.concatenate(
                    [feats, [0, 1, 2]]).astype(np.int64)),
                "g": pa.array(np.concatenate(
                    [dense[feats], [float(r.sum()), loss, float(len(r))]])),
            })

        folded = grouped_sum(
            ds.map_batches(partials, batch_format="pyarrow"),
            ["kind", "feat"], ["g"]).to_pandas()
        scal = folded[folded["kind"] == 1].set_index("feat")["g"]
        n = float(scal.get(2, 0.0))
        if n == 0:
            raise ValueError("train_lr_classifier: empty corpus")
        grads = folded[folded["kind"] == 0]
        grad = np.zeros(dim)
        grad[grads["feat"].to_numpy()] = grads["g"].to_numpy()
        w = w - lr * (grad / n + l2 * w)
        b = b - lr * float(scal.get(0, 0.0)) / n
        if history is not None:
            history.append((_ep, float(scal.get(1, 0.0)) / n))
    return LRModel(w=w, b=b, dim=dim, bigrams=bigrams, lowercase=lowercase,
                   epochs=epochs, lr=lr, l2=l2)


def _lr_score_kernel(model: LRModel, text_col: str, ndigits: int):
    """Batch → rounded-logit closure; the weight vector rides the
    object store once via ``ray.put`` (dim-sized, never per batch)."""
    import ray

    ref = ray.put((model.w, model.b))
    dim, bigrams, lc = model.dim, model.bigrams, model.lowercase

    def scores(batch: pa.Table) -> np.ndarray:
        w, b = ray.get(ref)
        wfeat, lens, bfeat, blens = _lr_flat_features(
            batch.column(text_col), dim, bigrams, lc)
        z, _ = _lr_logits(w, b, wfeat, lens, bfeat, blens)
        return np.round(z, ndigits)

    return scores


def lr_scores(ds, model: LRModel, id_col: str = "doc_id",
              text_col: str = "text", ndigits: int = 6,
              threshold: float = 0.0):
    """Score every document with the trained LR: ``lr_logit`` (rounded)
    and ``lr_keep`` (logit > threshold, on the rounded value). One
    stateless broadcast pass."""
    scores = _lr_score_kernel(model, text_col, ndigits)

    def score(batch: pa.Table) -> pa.Table:
        z = scores(batch)
        return pa.table({id_col: batch.column(id_col),
                         "lr_logit": pa.array(z),
                         "lr_keep": pa.array(z > threshold)})

    return ds.map_batches(score, batch_format="pyarrow")


def lr_filter(ds, model: LRModel, text_col: str = "text",
              threshold: float = 0.0, ndigits: int = 6):
    """Keep only rows the LR scores above ``threshold`` (all input
    columns pass through) — the curation-pipeline filter stage."""
    scores = _lr_score_kernel(model, text_col, ndigits)

    def keep(batch: pa.Table) -> pa.Table:
        return batch.filter(pa.array(scores(batch) > threshold))

    return ds.map_batches(keep, batch_format="pyarrow")


def lr_keep_top_fraction(ds, model: LRModel, frac: float,
                         text_col: str = "text", ndigits: int = 6,
                         sketch_k: int = 400):
    """The top-fraction policy over LR logits — same two-pass KLL
    threshold discovery as :func:`nb_keep_top_fraction`. Returns
    ``(filtered_ds, threshold)``."""
    scores = _lr_score_kernel(model, text_col, ndigits)
    threshold = _score_quantile(ds, scores, frac, sketch_k)
    if threshold == float("-inf"):
        return ds, threshold
    grid = 10.0 ** (-ndigits)
    return (lr_filter(ds, model, text_col=text_col,
                      threshold=threshold - grid / 2, ndigits=ndigits),
            threshold)


def load_classifier(path: str):
    """Load a saved classifier, sniffing the format: LR artifacts carry
    a dense ``w`` array, NB artifacts a sorted ``keys`` table."""
    with np.load(path) as z:       # close the sniff handle promptly
        is_lr = "w" in z.files
    return LRModel.load(path) if is_lr else NBModel.load(path)


# ---------------------------------------------------------------------------
# histogram-based distributed decision tree over numeric signal columns


@dataclass
class TreeModel:
    """Depth-limited binary CART over NUMERIC feature columns (cf.
    PAPERS.md: "Distributed Task-Based Training of Tree Models",
    ICDE'22 — histogram-based split finding is the distributed-friendly
    formulation). Arrays are node-indexed (complete-binary layout,
    node 0 = root, children of i are 2i+1 / 2i+2): ``feat[i]`` < 0
    marks a leaf whose positive-class probability is ``leaf_p[i]``."""

    feat: np.ndarray        # int32[n_nodes], -1 = leaf
    thresh: np.ndarray      # float64[n_nodes]
    leaf_p: np.ndarray      # float64[n_nodes]
    feature_cols: tuple
    max_depth: int

    def save(self, path: str) -> None:
        with open(path, "wb") as fh:
            np.savez_compressed(
                fh, feat=self.feat, thresh=self.thresh, leaf_p=self.leaf_p,
                cols=np.array(list(self.feature_cols)),
                depth=np.array([self.max_depth]))

    @classmethod
    def load(cls, path: str) -> "TreeModel":
        with np.load(path, allow_pickle=False) as z:
            return cls(feat=z["feat"], thresh=z["thresh"], leaf_p=z["leaf_p"],
                       feature_cols=tuple(str(c) for c in z["cols"]),
                       max_depth=int(z["depth"][0]))

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Leaf positive-class probability per row of the (n, n_feat)
        matrix — vectorized tree walk, one np.where per depth level."""
        node = np.zeros(len(X), dtype=np.int64)
        for _ in range(self.max_depth):
            f = self.feat[node]
            live = f >= 0
            if not live.any():
                break
            go_right = np.zeros(len(X), dtype=bool)
            go_right[live] = X[np.nonzero(live)[0], f[live]] \
                > self.thresh[node[live]]
            node = np.where(live, 2 * node + 1 + go_right, node)
        return self.leaf_p[node]


def _tree_bin_edges(ds, feature_cols, n_bins: int, sketch_k: int = 4096):
    """Per-feature candidate thresholds from one KLL per feature — the
    histogram paper's quantile binning. Blocks melt into ``(feat, v)``
    rows and ``engine.build.grouped_sketches`` folds them per feature."""
    from ocm_ray.engine.build import grouped_sketches
    from ocm_ray.sketches.kll import KLL

    def melt(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:     # may arrive schema-less (rule 8b)
            return pa.table({})
        return pa.table({
            "feat": np.repeat(np.arange(len(feature_cols)), batch.num_rows),
            "v": np.concatenate([
                batch.column(c).to_numpy(zero_copy_only=False)
                .astype(np.float64) for c in feature_cols])})

    sks = grouped_sketches(ds.map_batches(melt, batch_format="pyarrow"),
                           "feat", lambda: KLL(sketch_k), column="v",
                           n_shards=len(feature_cols))
    qs = np.linspace(0.0, 1.0, n_bins + 1)[1:-1]
    return [np.unique(np.atleast_1d(sks.get(j, KLL(sketch_k)).quantile(qs)))
            for j in range(len(feature_cols))]


def _tree_hist_kernel(feature_cols, label_col, edges, feat_arr,
                      thresh_arr, depth):
    """Per-batch sparse (node, feature, bin) -> (pos, neg) histogram
    partial for every LIVE node at ``depth`` — integer counts, so the
    grouped-sum fold is exact and partition-invariant."""
    def hist(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:     # may arrive schema-less (rule 8b)
            return pa.table({"node": pa.array([], pa.int64()),
                             "feat": pa.array([], pa.int64()),
                             "bin": pa.array([], pa.int64()),
                             "pos": pa.array([], pa.int64()),
                             "neg": pa.array([], pa.int64())})
        X = np.column_stack([
            batch.column(c).to_numpy(zero_copy_only=False)
            .astype(np.float64) for c in feature_cols])
        y = batch.column(label_col).to_numpy(zero_copy_only=False) \
            .astype(bool)
        node = np.zeros(len(X), dtype=np.int64)
        for _ in range(depth):      # walk the partial tree so far
            f = feat_arr[node]
            live = f >= 0
            if not live.any():
                break
            right = np.zeros(len(X), dtype=bool)
            right[live] = X[np.nonzero(live)[0], f[live]] \
                > thresh_arr[node[live]]
            node = np.where(live, 2 * node + 1 + right, node)
        outs = {"node": [], "feat": [], "bin": [], "pos": [], "neg": []}
        n_bins_max = max(len(e) for e in edges) + 1
        for j, e in enumerate(edges):
            # bin b holds e[b-1] < x <= e[b]: a value equal to an edge
            # lands on the side TreeModel.apply's `x <= thresh` sends it
            b = np.searchsorted(e, X[:, j], side="left")
            # one flat key per (node, bin): bincount both classes
            key = node * n_bins_max + b
            size = int(key.max()) + 1 if len(key) else 0
            cp = np.bincount(key[y], minlength=size)
            cn = np.bincount(key[~y], minlength=size)
            nz = np.nonzero(cp + cn)[0]
            outs["node"].append(nz // n_bins_max)
            outs["feat"].append(np.full(len(nz), j, dtype=np.int64))
            outs["bin"].append(nz % n_bins_max)
            outs["pos"].append(cp[nz])
            outs["neg"].append(cn[nz])
        return pa.table({k: pa.array(np.concatenate(v).astype(np.int64))
                         for k, v in outs.items()})

    return hist


def train_tree_classifier(ds, feature_cols, label_col: str = "label",
                          max_depth: int = 3, n_bins: int = 32,
                          min_samples: int = 32) -> TreeModel:
    """Train a depth-limited binary decision tree DISTRIBUTED: one KLL
    pass for quantile bin edges, then ONE corpus pass PER DEPTH — every
    block emits sparse integer (node, feature, bin, pos, neg) histogram
    partials for all live nodes at that depth, the
    :func:`ocm_ray.ops.agg.grouped_sum` tree folds them exactly, and
    the driver picks each node's best Gini split from the (bounded:
    nodes x features x bins rows) cumulated histogram. Integer partials
    make training deterministic and partition-invariant — the
    distributed run equals a driver-side reference on the same binned
    data EXACTLY (tested). Driver state: histograms + the node arrays,
    never the corpus. The corpus re-executes once per depth — pass a
    read or materialized dataset."""
    from ocm_ray.ops.agg import grouped_sum

    feature_cols = tuple(feature_cols)
    edges = _tree_bin_edges(ds, feature_cols, n_bins)
    n_nodes = (1 << (max_depth + 1)) - 1
    feat = np.full(n_nodes, -1, dtype=np.int32)
    thresh = np.zeros(n_nodes)
    leaf_p = np.full(n_nodes, 0.5)

    for depth in range(max_depth):
        hist = _tree_hist_kernel(feature_cols, label_col, edges,
                                 feat, thresh, depth)
        folded = grouped_sum(
            ds.map_batches(hist, batch_format="pyarrow"),
            ["node", "feat", "bin"], ["pos", "neg"]).to_pandas()
        if len(folded) == 0:
            break
        lo, hi = (1 << depth) - 1, (1 << (depth + 1)) - 1
        for node in range(lo, hi):
            sub = folded[folded["node"] == node]
            if len(sub) == 0:
                continue
            tp = int(sub.loc[sub["feat"] == 0, "pos"].sum())
            tn = int(sub.loc[sub["feat"] == 0, "neg"].sum())
            tot = tp + tn
            leaf_p[node] = tp / tot if tot else 0.5
            if tot < min_samples or tp == 0 or tn == 0:
                continue
            best = (0.0, -1, 0.0)      # (gini gain, feature, threshold)
            parent_g = 1.0 - (tp / tot) ** 2 - (tn / tot) ** 2
            for j, e in enumerate(edges):
                fj = sub[sub["feat"] == j].sort_values("bin")
                cp = np.cumsum(fj["pos"].to_numpy())
                cn = np.cumsum(fj["neg"].to_numpy())
                bins = fj["bin"].to_numpy()
                # split AFTER bin b (x <= edges[b] go left): candidates
                # are bins with a following edge
                ok = bins < len(e)
                lp, ln = cp[ok], cn[ok]
                ltot = lp + ln
                rtot = tot - ltot
                valid = (ltot > 0) & (rtot > 0)
                if not valid.any():
                    continue
                with np.errstate(invalid="ignore", divide="ignore"):
                    gl = 1.0 - (lp / ltot) ** 2 - (ln / ltot) ** 2
                    rp, rn = tp - lp, tn - ln
                    gr = 1.0 - (rp / rtot) ** 2 - (rn / rtot) ** 2
                    gain = parent_g - (ltot * gl + rtot * gr) / tot
                gain = np.where(valid, gain, -np.inf)
                bi = int(np.argmax(gain))
                if gain[bi] > best[0] + 1e-12:
                    best = (float(gain[bi]), j, float(e[bins[ok][bi]]))
            if best[1] >= 0:
                feat[node] = best[1]
                thresh[node] = best[2]
    # leaf probabilities for the deepest level come from the LAST
    # histogram pass's children totals: run one more stats-only pass
    hist = _tree_hist_kernel(feature_cols, label_col, edges,
                             feat, thresh, max_depth)
    folded = grouped_sum(
        ds.map_batches(hist, batch_format="pyarrow"),
        ["node", "feat", "bin"], ["pos", "neg"]).to_pandas()
    if len(folded):
        f0 = folded[folded["feat"] == 0]
        for node, sub in f0.groupby("node"):
            tot = int(sub["pos"].sum() + sub["neg"].sum())
            if tot:
                leaf_p[int(node)] = int(sub["pos"].sum()) / tot
    return TreeModel(feat=feat, thresh=thresh, leaf_p=leaf_p,
                     feature_cols=feature_cols, max_depth=max_depth)


def tree_scores(ds, model: TreeModel, id_col: str = "doc_id",
                ndigits: int = 6, threshold: float = 0.5):
    """Score rows with the trained tree: ``tree_p`` (leaf positive
    probability, rounded) and ``tree_keep``. One stateless broadcast
    pass (the node arrays ride the object store once)."""
    import ray

    ref = ray.put((model.feat, model.thresh, model.leaf_p,
                   model.feature_cols, model.max_depth))

    def score(batch: pa.Table) -> pa.Table:
        feat, thr, leaf_p, cols, depth = ray.get(ref)
        m = TreeModel(feat=feat, thresh=thr, leaf_p=leaf_p,
                      feature_cols=cols, max_depth=depth)
        X = np.column_stack([
            batch.column(c).to_numpy(zero_copy_only=False)
            .astype(np.float64) for c in cols])
        p = np.round(m.apply(X), ndigits)
        return pa.table({id_col: batch.column(id_col),
                         "tree_p": pa.array(p),
                         "tree_keep": pa.array(p > threshold)})

    return ds.map_batches(score, batch_format="pyarrow")
