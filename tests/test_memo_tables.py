"""The memo tables that hot loops read, checked against direct computations.

``rings.memo`` keeps the values of ``fn(owner, *prefix, x)`` in one table per
prefix, which ``fn.table(owner, *prefix)`` returns and the wrapper itself
fills.  The colon, image, preimage, a*J, product and sum kernels are read
through such tables in the claim checkers, so a table keyed without its
prefix, or a read that takes a stored 0 for a miss, would change what the
checkers see.  These tests read every table against the definition of its
kernel, after a verification has filled them from the hot loops, and pin the
number of wrapper calls one default verification makes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from deltan.constructions import Homomorphism
from deltan.ideals import _bits, _colon_mask, _product_pair, _sum_pair, enumerate_ideals
from deltan.predicates import _aj_mask
from deltan.rings import _build_modular, memo
from deltan.verifier import Context, builtin_corpus, run_claims
from test_ideals import _boolean_and_idealization_rings

ROOT = Path(__file__).resolve().parent.parent

# one default verification made 464,921 wrapper calls before its hot loops
# read tables; it makes about 120,000 with them
MAX_WRAPPER_CALLS = 150_000


@pytest.fixture(scope="module")
def verified():
    """The default corpus and its hom instances, after one verification has
    filled the tables through the checkers."""
    corpus = builtin_corpus()
    run_claims(corpus=corpus)
    return corpus, Context(corpus).hom_instances()


def _stored(owner, kernel):
    """(prefix, table) for each table of ``kernel`` stored on ``owner``."""
    return [(key[1:], table) for key, table in owner._cache.items()
            if isinstance(key, tuple) and key[0] is kernel.__wrapped__]


def _mask(indices):
    out = 0
    for i in indices:
        out |= 1 << i
    return out


def _preimage_mask(imask, seq):
    """Mask of the positions r with ``seq[r]`` in the set ``imask``, read one
    position at a time: the oracle of the column kernel ``ideals._column_preimage``."""
    return _mask(r for r, x in enumerate(seq) if imask >> x & 1)


def _subgroup(ring, gens):
    """The additive subgroup generated by ``gens``, by a closure under +."""
    out, todo = {ring.zero_idx}, [ring.zero_idx]
    while todo:
        x = todo.pop()
        for g in gens:
            y = ring.add[x][g]
            if y not in out:
                out.add(y)
                todo.append(y)
    return _mask(out)


def _product(ring, a, b):
    return _subgroup(ring, {ring.mul[i][j] for i in _bits(a) for j in _bits(b)})


def _sum(ring, a, b):
    return _mask(ring.add[i][j] for i in _bits(a) for j in _bits(b))


def test_a_table_is_the_dict_the_wrapper_fills_and_a_stored_zero_is_a_hit():
    calls = []

    @memo
    def colon_like(ring, imask, x):
        calls.append((imask, x))
        return 0 if x == 0 else imask

    ring = _build_modular(6)  # not interned, so its cache starts empty
    table = colon_like.table(ring, 5)
    assert colon_like(ring, 5, 0) == 0 and table == {0: 0}
    assert table[0] == 0 and colon_like(ring, 5, 0) == 0 and calls == [(5, 0)]
    assert table[3] == 5 and colon_like(ring, 5, 3) == 5 and calls == [(5, 0), (5, 3)]
    # each prefix has its own table, stored on its owner under (fn, *prefix)
    assert colon_like(ring, 7, 3) == 7 and colon_like.table(ring, 7) == {3: 7}
    assert colon_like.table(ring, 5) is table
    assert ring._cache[(colon_like.__wrapped__, 5)] is table
    assert colon_like.table(_build_modular(6), 5) == {}


def test_a_value_of_the_owner_alone_is_stored_under_the_function():
    calls = []

    @memo
    def whole(ring):
        calls.append(ring)
        return 0

    ring = _build_modular(4)
    assert whole(ring) == 0 and whole(ring) == 0 and calls == [ring]
    assert ring._cache == {(whole.__wrapped__,): 0}


def test_colon_tables_are_the_preimages_under_multiplication(verified):
    corpus, _ = verified
    for ring in [entry.ring for entry in corpus.entries] + _boolean_and_idealization_rings():
        for prefix, table in _stored(ring, _colon_mask):
            for x, value in table.items():
                assert value == _preimage_mask(prefix[0], ring.mul[x]), (ring.key, prefix, x)
        for I in enumerate_ideals(ring):
            table = _colon_mask.table(ring, I.mask)
            for x in range(ring.size):
                assert table[x] == _preimage_mask(I.mask, ring.mul[x]), (ring.key, I, x)
                assert _colon_mask(ring, I.mask, x) == table[x]


def test_image_and_preimage_tables_of_every_family_map(verified):
    _, homs = verified
    for f, _pairs in homs:
        src, tgt, mapping = f.source, f.target, f.mapping
        images = Homomorphism.image_mask.table(f)
        preimages = Homomorphism.preimage_mask.table(f)
        for mask, value in list(images.items()):  # stored by the checkers
            assert value == _mask(mapping[i] for i in _bits(mask)), (f, mask)
        for mask, value in list(preimages.items()):
            assert value == _preimage_mask(mask, mapping), mask
        for mask in [0, src.full_mask] + [I.mask for I in enumerate_ideals(src)]:
            want = _mask(mapping[i] for i in _bits(mask))
            assert images[mask] == want == f.image_mask(mask), (f, mask)
        for mask in [0, tgt.full_mask] + [K.mask for K in enumerate_ideals(tgt)]:
            want = _preimage_mask(mask, mapping)
            assert preimages[mask] == want == f.preimage_mask(mask), (f, mask)
        assert images[0] == 0 and preimages[0] == 0


def test_product_sum_and_aj_tables_on_the_corpus_rings(verified):
    corpus, _ = verified
    for entry in corpus.entries:
        ring = entry.ring
        for (a,), table in _stored(ring, _aj_mask):
            for jmask, value in table.items():
                assert value == _mask(ring.mul[a][j] for j in _bits(jmask)), (ring.key, a)
        for (a,), table in _stored(ring, _product_pair):
            for b, value in table.items():
                assert a <= b and value == _product(ring, a, b), (ring.key, a, b)
        for (a,), table in _stored(ring, _sum_pair):
            for b, value in table.items():
                assert a <= b and value == _sum(ring, a, b), (ring.key, a, b)
        if ring.size > 16:
            continue
        masks = sorted(I.mask for I in enumerate_ideals(ring))
        for a in range(ring.size):
            aj = _aj_mask.table(ring, a)
            assert all(aj[m] == _mask(ring.mul[a][j] for j in _bits(m)) for m in masks)
        for i, a in enumerate(masks):
            products, sums = _product_pair.table(ring, a), _sum_pair.table(ring, a)
            for b in masks[i:]:
                assert products[b] == _product(ring, a, b), (ring.key, a, b)
                assert sums[b] == _sum(ring, a, b), (ring.key, a, b)


COUNT_WRAPPER_CALLS = """
import cProfile, json, pstats
from deltan import verifier
corpus = verifier.builtin_corpus()
profile = cProfile.Profile()
profile.enable()
reports = verifier.run_claims(corpus=corpus)
verifier.render_text(reports)
verifier.render_json(reports)
profile.disable()
stats = pstats.Stats(profile).stats.items()
print(json.dumps(sum(nc for (path, _, name), (_, nc, _, _, _) in stats
                     if path.endswith("rings.py") and name == "cached")))
"""


def test_one_default_verification_makes_few_memo_wrapper_calls():
    """Counted under cProfile in a fresh interpreter, which is deterministic: a
    wrapper call put back into a hot loop shows here."""
    proc = subprocess.run([sys.executable, "-c", COUNT_WRAPPER_CALLS], cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                          capture_output=True, text=True, check=True)
    calls = json.loads(proc.stdout)
    assert 10_000 < calls <= MAX_WRAPPER_CALLS, calls

