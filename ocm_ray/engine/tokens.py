"""Zero-copy extraction of sketchable items from Arrow batches.

The engine's native input column is ``tokens: list<int32>`` (the
BASELINE.json input_hint shape). Batches arrive as ``pyarrow.Table``
straight from the object store; we flatten the list column's values
buffer to numpy without per-row Python or a copy. :func:`token_ids`
hands those ids on at their stored width (what ``CountCombiner``
counts); :func:`items_from_batch` widens them to uint64 (the sketch
hash domain). ``kgram > 1`` reproduces the reference's rolling-window
semantics (``include/ocm.h:85-105``) generalized to token ids: windows
never cross row (document) boundaries, and each window is reduced to one
uint64 item by chained WangHash mixing.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import pyarrow as pa

from ocm_ray.core.hashing import HASH_BLOCK, _wang_block

U64 = np.uint64


def _one_array(arr: pa.ChunkedArray | pa.Array) -> pa.Array:
    """The column as one Array: a one-chunk column's chunk as is (no
    copy); only a column of several chunks is concatenated."""
    if isinstance(arr, pa.ChunkedArray):
        return arr.chunk(0) if arr.num_chunks == 1 else arr.combine_chunks()
    return arr


def _flat_numpy(arr: pa.ChunkedArray | pa.Array) -> np.ndarray:
    arr = _one_array(arr)
    if arr.null_count:
        # null elements would round-trip through float NaN and alias to
        # garbage ids — drop them (a null token is not an item)
        arr = arr.drop_null()
    try:
        return arr.to_numpy(zero_copy_only=True)
    except pa.ArrowInvalid:
        return arr.to_numpy(zero_copy_only=False)


def hash_string_array(arr: pa.ChunkedArray | pa.Array, seed: int = 137) -> np.ndarray:
    """Vectorized stable hash of a string/binary column to uint64 via the
    engine's in-repo codec (``core.hashing.stable_hash_bytes``) — one
    hash everywhere, stable across environments and library versions, so
    string-keyed sketches persisted on one cluster stay queryable on
    another. Operates directly on the Arrow offsets/data buffers."""
    from ocm_ray.core.hashing import stable_hash_bytes

    arr = _one_array(arr)
    if arr.null_count:
        arr = arr.fill_null("")
    # large_binary gives a uniform int64-offset layout for every
    # string/binary width (cast is O(bytes), no per-row Python)
    arr = arr.cast(pa.large_binary())
    buf_off, buf_data = arr.buffers()[1], arr.buffers()[2]
    offsets = np.frombuffer(buf_off, dtype=np.int64,
                            count=len(arr) + 1, offset=arr.offset * 8)
    data = np.frombuffer(buf_data, dtype=np.uint8) if buf_data is not None \
        else np.empty(0, dtype=np.uint8)
    return stable_hash_bytes(data, offsets, seed)


def split_words_hashed(arr: pa.ChunkedArray | pa.Array, lowercase: bool = True,
                       seed: int = 137) -> tuple[np.ndarray, np.ndarray]:
    """(flat word hashes uint64, words-per-row int64) for a string column,
    split on single spaces (``str.split(' ')`` semantics, empties kept —
    matches DuckDB ``string_split``). Arrow-kernel split + the engine's
    stable hash; no per-row Python."""
    import pyarrow.compute as pc

    arr = _one_array(arr)
    if arr.null_count:
        # null → "" BEFORE splitting: split_pattern yields null LISTS for
        # null inputs, whose NaN lengths + flatten()'s silent null-drop
        # would misalign the flat-hash/lens pair downstream
        arr = arr.fill_null("")
    if lowercase:
        arr = pc.utf8_lower(arr)
    toks = pc.split_pattern(arr, " ")
    lens = pc.list_value_length(toks).to_numpy(zero_copy_only=False).astype(np.int64)
    return hash_string_array(toks.flatten(), seed), lens


def list_column_values(batch: pa.Table, column: str) -> tuple[np.ndarray, np.ndarray]:
    """(flat_values, row_lengths) of a list column, zero-copy where the
    Arrow layout allows."""
    col = _one_array(batch.column(column))
    if not (pa.types.is_list(col.type) or pa.types.is_large_list(col.type)) \
            or col.null_count or col.values.null_count:
        # Non-list layouts (Ray's tensor extension) have no offsets buffer;
        # null rows / null elements would misalign the offsets against a
        # null-dropped values buffer. Both fall back to row assembly.
        rows = col.to_pylist()
        rows = [[x for x in (r if r is not None else []) if x is not None]
                for r in rows]
        lengths = np.array([len(r) for r in rows], dtype=np.int64)
        flat = (np.concatenate([np.asarray(r) for r in rows if len(r)])
                if lengths.sum() else np.empty(0, dtype=np.int64))
        return flat, lengths
    offsets = col.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    flat = _flat_numpy(col.values)
    # honor list-array slicing: values may extend beyond this batch's rows
    flat = flat[offsets[0]:offsets[-1]]
    lengths = np.diff(offsets)
    return flat, lengths


def _window_hashes(flat: np.ndarray, lengths: np.ndarray, k: int,
                   ) -> tuple[np.ndarray, np.ndarray]:
    """``(hashes, valid)`` over every window start of the flat stream:
    the chained hash of each k consecutive items, and a mask of the
    windows that stay inside one row. Hashes :data:`HASH_BLOCK` windows
    at a time, in place in the output, through one scratch block."""
    flat = flat.astype(U64, copy=False)
    nw = max(len(flat) - k + 1, 0)
    acc = np.empty(nw, dtype=U64)
    tmp = np.empty(min(nw, HASH_BLOCK), dtype=U64)
    for b in range(0, nw, HASH_BLOCK):
        e = min(b + HASH_BLOCK, nw)
        h, t = acc[b:e], tmp[:e - b]
        h[:] = flat[b:e]
        _wang_block(h, t)
        for j in range(1, k):
            h ^= flat[b + j:e + j]
            _wang_block(h, t)
    # a window starting d < k positions before a row start crosses it
    valid = np.ones(nw, dtype=bool)
    starts = np.cumsum(lengths)[:-1]
    for d in range(1, k):
        s = starts - d
        valid[s[(s >= 0) & (s < nw)]] = False
    return acc, valid


def kgram_windows(flat: np.ndarray, lengths: np.ndarray, k: int,
                  ) -> tuple[np.ndarray, np.ndarray]:
    """``(gram_hashes uint64, gram_rowid int64)``: one hash per
    within-row window of k consecutive items of the flat stream whose
    rows have ``lengths`` — the engine's ONE k-gram window hash.

    Window hash: ``h = wang(t_0); h = wang(h ^ t_j)`` for j=1..k-1 —
    order-sensitive, collision-resistant. Windows are hashed
    :data:`~ocm_ray.core.hashing.HASH_BLOCK` at a time, in place in the
    output, so the k chained hashes of a block stay in cache.
    """
    acc, valid = _window_hashes(flat, lengths, k)
    rowid = np.repeat(np.arange(len(lengths), dtype=np.int64), lengths)
    return acc[valid], rowid[:len(valid)][valid]


def kgram_reduce(flat: np.ndarray, lengths: np.ndarray, k: int) -> np.ndarray:
    """One uint64 item per within-row window of k consecutive tokens
    (the hashes of :func:`kgram_windows`, without their row ids)."""
    acc, valid = _window_hashes(flat, lengths, k)
    return acc[valid]


def token_kgram_hashes(batch: pa.Table, column: str, k: int,
                       ) -> tuple[np.ndarray, np.ndarray, int]:
    """Token-id k-gram hashes of a ``list<int>`` column with row
    attribution: ``(gram_hashes uint64, gram_rowid int64, n_rows)`` —
    the tokens-domain sibling of :func:`word_kgram_hashes` (the
    :func:`kgram_windows` hash plus the rowid stream the per-document
    dup-gram statistics need)."""
    flat, lengths = list_column_values(batch, column)
    return (*kgram_windows(flat, lengths, k), len(lengths))


def word_kgram_hashes(arr: "pa.ChunkedArray | pa.Array", k: int,
                      lowercase: bool = True, seed: int = 137,
                      ) -> tuple[np.ndarray, np.ndarray, int]:
    """Word k-gram hashes of a string column with row attribution:
    ``(gram_hashes uint64, gram_rowid int64, n_rows)``. Words are
    space-split (DuckDB ``string_split`` semantics via
    :func:`split_words_hashed`); the window hash is the
    :func:`kgram_windows` chained WangHash, so grouping/joining on these
    values equals grouping on the gram strings absent 64-bit
    collisions. Fully vectorized."""
    flat, lens = split_words_hashed(arr, lowercase, seed)
    return (*kgram_windows(flat, lens, k), len(lens))


def token_ids(batch: pa.Table, column: str = "tokens",
              kgram: int = 1) -> np.ndarray:
    """The item stream of one Arrow batch (or record batch) at its stored
    width — what ``CountCombiner.add`` counts:

    * list<int*> column → the flattened values as stored (int32 ids stay
      int32; no copy when the batch holds one chunk); kgram-windowed
      uint64 hashes if kgram>1 — Ray's tensor extension types (a pandas
      block's array column) too, through :func:`list_column_values`;
    * integer column → its values as stored (``kgram`` is ignored);
    * string/binary column → stable 64-bit hashes;
    * float column → float64 values (the value sketches' input).

    List values of another type are widened to uint64, as
    :func:`items_from_batch` does.
    """
    col_type = batch.schema.field(column).type
    if pa.types.is_list(col_type) or pa.types.is_large_list(col_type) \
            or isinstance(col_type, pa.ExtensionType):
        flat, lengths = list_column_values(batch, column)
        if kgram > 1:
            return kgram_reduce(flat, lengths, kgram)
        return flat if flat.dtype.kind in "iu" else flat.astype(U64)
    if pa.types.is_integer(col_type):
        return _flat_numpy(batch.column(column))
    if pa.types.is_string(col_type) or pa.types.is_large_string(col_type) \
            or pa.types.is_binary(col_type) \
            or pa.types.is_large_binary(col_type):
        return hash_string_array(batch.column(column))
    if pa.types.is_floating(col_type):
        # value sketches (KLL/t-digest) take floats; reinterpret losslessly
        return _flat_numpy(batch.column(column)).astype(np.float64)
    raise TypeError(f"unsupported column type for sketching: {col_type}")


def items_from_batch(batch: pa.Table, column: str = "tokens", kgram: int = 1,
                     weights_column: Optional[str] = None) -> np.ndarray:
    """uint64 item stream for one Arrow batch — the sketches' input:
    :func:`token_ids` with integer ids widened to uint64 (negative ids
    wrap) and float values passed through as float64.
    """
    items = token_ids(batch, column, kgram)
    return items if items.dtype.kind == "f" else items.astype(U64, copy=False)
