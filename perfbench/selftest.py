"""Self-tests of the benchmark's own machinery (no Ray needed).

Run from the checkout root::

    python3 perfbench/selftest.py

The functions are also plain pytest tests (``python3 -m pytest
perfbench/selftest.py``).
"""

from __future__ import annotations

import dataclasses
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import corpus as C  # noqa: E402
from perfbench import oracles as O  # noqa: E402
from perfbench.tracing import attributed_times, self_times  # noqa: E402


def _small_oracle() -> C.Oracle:
    rng = np.random.default_rng(3)
    flat = rng.zipf(1.3, 20_000) % C.VOCAB
    return C.token_oracle(flat)


def test_corrupted_sketch_fails_oracle():
    from ocm_ray.sketches import CountMin

    o = _small_oracle()
    ref = O.CMReference(o)
    live = o.counts > 0

    van = CountMin(10, 5)
    van.update(o.items[live], o.counts[live])
    assert O.check_cm(van, ref, vanilla_exact=True) == []
    van.core[int(np.flatnonzero(van.core)[0])] += 1        # one counter bumped
    assert O.check_cm(van, ref, vanilla_exact=True)

    cons = CountMin(10, 5, conservative=True)
    cons.update(o.items[live], o.counts[live])
    assert O.check_cm(cons, ref) == []
    heavy = o.items[np.argmax(o.counts)]
    pos = cons._positions(np.array([heavy]))[0]
    cons.core[pos[np.argmin(cons.core[pos])]] -= 1        # one counter bumped down
    assert any("underestimated" in f for f in O.check_cm(cons, ref))


def test_self_time_arithmetic():
    def sp(sid, parent, start, end):
        return {"id": sid, "parent": parent, "name": sid, "op": "t",
                "start": start, "end": end}

    spans = [sp("root", None, 0, 100), sp("a", "root", 10, 50),
             sp("a1", "a", 20, 30), sp("b", "root", 40, 80),
             sp("late", "b", 70, 95)]                        # runs past its parent
    st = self_times(spans)
    assert st == {"root": 30, "a": 30, "a1": 10, "b": 30, "late": 25}

    # two parallel workers: the shared stretch is split between them
    par = [sp("root", None, 0, 100), sp("w1", "root", 0, 100),
           sp("w2", "root", 50, 100), sp("r", "w2", 50, 60)]
    at = attributed_times(par, "root")
    assert at == {"root": 0.0, "w1": 75.0, "w2": 20.0, "r": 5.0}
    gap = [sp("root", None, 0, 10), sp("x", "root", 2, 6)]
    assert attributed_times(gap, "root") == {"root": 6.0, "x": 4.0}


def test_corpus_is_a_function_of_the_seed():
    spec = dataclasses.replace(C.SPECS["skew"], files=2, docs=6, big_docs=12)

    def bytes_of(seed, d):
        return [Path(p).read_bytes() for p in C.write_parts(spec, seed, d)]

    with tempfile.TemporaryDirectory() as td:
        a = bytes_of(5, os.path.join(td, "a"))
        b = bytes_of(5, os.path.join(td, "b"))
        c = bytes_of(6, os.path.join(td, "c"))
    assert len(a) == 3 and a == b
    assert all(x != y for x, y in zip(a, c))


def test_kgram_oracle_matches_engine_items():
    from ocm_ray.engine.tokens import kgram_reduce

    rng = np.random.default_rng(9)
    lens = rng.integers(1, 30, 50)
    flat = rng.integers(0, C.VOCAB, int(lens.sum()))
    o = C.kgram_oracle(flat, lens, 3)
    u, c = np.unique(kgram_reduce(flat, lens, 3), return_counts=True)
    order = np.argsort(o.items)
    assert np.array_equal(o.items[order], u) and np.array_equal(o.counts[order], c)


def main() -> int:
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    failed = 0
    for t in tests:
        try:
            t()
            print(f"ok   {t.__name__}")
        except AssertionError as e:
            failed += 1
            print(f"FAIL {t.__name__}: {e!r}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
