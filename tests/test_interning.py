"""One object per value: every ideal, submodule and expansion is interned, so
equal values are the same object and print the same way."""

import gc
import sys
import weakref

import pytest

from deltan import (colon, compose_expansions, delta1, delta_plus, delta_star,
                    enumerate_ideals, ideal_combine, ideal_from_generators,
                    integer_ideal, integers, modular, nilradical, poly_quotient, product,
                    radical, special_sets)
from deltan.constructions import (enumerate_submodules, idealization, image_ideal, localize,
                                  preimage_ideal, product_projections, quotient_ring)
from deltan.dsl import bind_ideal, bind_ring, parse_ideal_text, parse_spec
from deltan.expansions import apply_expansion, catalog
from deltan.rings import _RING_CACHE, Ring
from deltan.verifier import Context, builtin_corpus, run_claims


# ---------------------------------------------------------------------------
# equal sets from different generators
# ---------------------------------------------------------------------------

SAME_SETS = [
    # Z12: (8) = (4) = (4, 8)
    (lambda: modular(12), [[8], [4], [4, 8]], "(4)"),
    # Z4[x]/(x^3), elements as ascending coefficients: (2, x) = (x+2, 2), and
    # (x^2) = (3x^2), a unit multiple
    (lambda: poly_quotient(4, [0, 0, 0, 1]),
     [[(2, 0, 0), (0, 1, 0)], [(2, 1, 0), (2, 0, 0)], [(0, 1, 0), (2, 1, 0)]], "(2, x)"),
    (lambda: poly_quotient(4, [0, 0, 0, 1]), [[(0, 0, 1)], [(0, 0, 3)]], "(x^2)"),
]


@pytest.mark.parametrize("make_ring, gen_lists, printed", SAME_SETS)
def test_equal_sets_give_one_ideal_and_one_expansion_each(make_ring, gen_lists, printed):
    ring = make_ring()
    ideals = [ideal_from_generators(ring, [ring.from_payload(g) for g in gens])
              for gens in gen_lists]
    first = ideals[0]
    assert all(I is first for I in ideals)
    assert {repr(I) for I in ideals} == {printed}
    d1 = delta1(ring)
    for I in ideals:
        assert delta_plus(ring, I) is delta_plus(ring, first)
        assert delta_star(ring, I) is delta_star(ring, first)
        assert (compose_expansions(d1, delta_plus(ring, I))
                is compose_expansions(d1, delta_plus(ring, first)))
        assert (compose_expansions(d1, delta_star(ring, I))
                is compose_expansions(d1, delta_star(ring, first)))


def test_integer_ideals_are_interned_by_their_generator():
    zz = integers()
    assert integer_ideal(zz, -6) is integer_ideal(zz, 6) is ideal_from_generators(zz, [12, 18])
    assert repr(integer_ideal(zz, 6)) == "(6)" and repr(integer_ideal(zz, 0)) == "(0)"
    assert delta_plus(zz, integer_ideal(zz, 6)) is delta_plus(zz, ideal_from_generators(zz, [6]))


# ---------------------------------------------------------------------------
# oracle: every public function returns the lattice member with its mask
# ---------------------------------------------------------------------------

CORPUS = builtin_corpus()

# the constructor of each recipe kind, called on the recipe's operands
RECIPES = {"modular": modular, "poly_quotient": poly_quotient, "integer": integers,
           "product": product, "quotient": lambda R, J: quotient_ring(R, J).ring,
           "idealization": lambda R, M: idealization(R, M).ring,
           "localization": lambda R, S: localize(R, S).ring}


def _rebuilt(ring):
    """What the constructor of ``ring``'s recipe returns."""
    return RECIPES[ring.origin[0]](*ring.origin[1:])


def _members(ring):
    return {I.mask: I for I in enumerate_ideals(ring)}


def _assert_interned(ideal):
    assert _members(ideal.ring)[ideal.mask] is ideal, (ideal.ring.key, ideal)


@pytest.mark.parametrize("entry", CORPUS.entries, ids=lambda e: e.ring.key)
def test_every_ideal_returned_is_the_lattice_member(entry):
    ring = entry.ring
    lattice = enumerate_ideals(ring)
    for I in lattice:
        assert ideal_from_generators(ring, I.gens) is I
        assert ideal_from_generators(ring, I.elements()) is I
        # parsing the printed form gives the same object ("(0)" names no
        # element of a product or an idealization)
        assert I.is_zero or bind_ideal(ring, parse_ideal_text(repr(I))) is I
        _assert_interned(radical(I))
        for x in ring.list_elements():
            _assert_interned(colon(I, x))
        for J in lattice:
            _assert_interned(colon(I, J))
            for op in ("sum", "product", "intersect"):
                _assert_interned(ideal_combine(op, I, J))
        for delta in catalog(ring):
            _assert_interned(apply_expansion(delta, I))
    _assert_interned(nilradical(ring))
    _assert_interned(special_sets(ring).jacobson)
    if ring.origin[0] == "product":
        for f in product_projections(ring):
            _assert_interned(f.kernel)
            for I in lattice:
                _assert_interned(image_ideal(f, I))
            for K in enumerate_ideals(f.target):
                _assert_interned(preimage_ideal(f, K))
    for J in lattice[:-1]:
        proj = quotient_ring(ring, J).projection
        assert proj.kernel is J
        assert _rebuilt(proj.target) is proj.target
        for I in lattice:
            _assert_interned(image_ideal(proj, I))
        for K in enumerate_ideals(proj.target):
            _assert_interned(preimage_ideal(proj, K))


def test_localizations_and_idealizations_return_lattice_members():
    ctx = Context(CORPUS)
    for entry in CORPUS.entries:
        ring = entry.ring
        for sset in ctx.mult_sets(ring):
            rec = localize(ring, sset)
            assert _rebuilt(rec.ring) is rec.ring
            _assert_interned(rec.kernel)
            for I in enumerate_ideals(ring):
                _assert_interned(rec.extend(I))
            for K in enumerate_ideals(rec.ring):
                _assert_interned(rec.contract(K))
    recs = ctx.idealization_instances()
    assert recs
    for rec, _ in recs:
        submodules = {N.mask: N for N in enumerate_submodules(rec.module)}
        for W in enumerate_ideals(rec.ring):
            _, I, N = rec.split(W)
            _assert_interned(I)
            assert submodules[N.mask] is N
            if rec.im_inside(I.mask, N.mask):
                _assert_interned(rec.homogeneous_ideal(I, N))


def test_a_verification_leaves_one_ring_per_key():
    """Interning is per ring object: every ring that a verification reaches,
    from the cached base rings through the rings built on each, found in its
    base's memoised records, is what its recipe's constructor returns."""
    run_claims()
    assert _RING_CACHE
    todo, seen = list(_RING_CACHE.values()), set()
    while todo:
        ring = todo.pop()
        assert _rebuilt(ring) is ring, ring.key
        seen.add(ring)
        for value in ring._cache.values():
            # a memo table holds its values, keyed by the last argument
            for item in (value.values() if isinstance(value, dict)
                         else value if isinstance(value, tuple) else (value,)):
                for other in (item, getattr(item, "ring", None)):
                    if (isinstance(other, Ring) and other not in seen
                            and len(other.origin) == 3 and other.origin[1] is ring):
                        todo.append(other)
    kinds = {ring.origin[0] for ring in seen}
    assert kinds >= {"product", "quotient", "idealization", "localization"}


# ---------------------------------------------------------------------------
# a ring lives while it is in use
# ---------------------------------------------------------------------------

def _fresh_ring_cache(monkeypatch):
    """An empty base-ring cache of the same kind, so every ring is built afresh."""
    monkeypatch.setattr("deltan.rings._RING_CACHE", type(_RING_CACHE)())


def _rings_alive():
    gc.collect()
    return sum(isinstance(o, Ring) for o in gc.get_objects())


def test_one_off_queries_leave_no_ring_alive(monkeypatch):
    """The rings of a command-line query, and all built on them, are freed once
    it has printed: the base-ring cache holds its rings weakly."""
    from test_cli_lock import _output_hash, _queries
    _fresh_ring_cache(monkeypatch)
    before = _rings_alive()
    for argv in _queries()[:20]:
        _output_hash(argv)
    assert _rings_alive() <= before


def test_a_held_ring_is_what_its_recipe_returns(monkeypatch):
    _fresh_ring_cache(monkeypatch)
    z12 = modular(12)
    gc.collect()
    assert bind_ring(parse_spec("Z12")) is z12


def test_a_derived_ring_and_its_base_die_with_the_last_reference(monkeypatch):
    _fresh_ring_cache(monkeypatch)
    ring = bind_ring(parse_spec("Z18 (+) Z18/(6)"))
    base = ring.origin[1]
    enumerate_ideals(ring)  # memo tables on the ring, in cycles with it
    gc.collect()
    assert bind_ring(parse_spec("Z18 (+) Z18/(6)")) is ring and modular(18) is base
    refs = weakref.ref(ring), weakref.ref(base)
    del ring, base
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


# ---------------------------------------------------------------------------
# every interned mask is an ideal
# ---------------------------------------------------------------------------

def test_every_mask_interned_as_an_ideal_is_one(monkeypatch):
    """R/J is proved on the cosets of J (``constructions._coset_ring``) with no
    run-time check that J's mask is an ideal: every ideal mask comes from the
    ideal operators, from the lattice, or from an index list checked before it
    is interned.  Each mask that ``_mk_ideal`` interns reaches ``Ideal.__init__``
    once, and the lattice that the checkers, the expansion tables and the
    quotients read is ``ideals._lattice``, memoised per ring; here each mask of
    both is checked, over a verification of a fresh default corpus and the
    locked command-line queries, every ring built afresh.  A non-ideal raises
    where it is made, and is kept too, as ``cli.main`` reports what it raises."""
    from deltan import ideals
    from deltan.ideals import Ideal, _bits, _generated_mask
    from test_cli_lock import _output_hash, _queries
    init, lattice, masks, bad, seen = Ideal.__init__, ideals._lattice, [], [], {}

    def check(ring, mask):
        masks.append(mask)
        if _generated_mask(ring, _bits(mask)) != mask:
            bad.append((ring.key, mask))
            raise AssertionError(f"{ring.key}: {mask:#x} is not an ideal")

    def checked(self, ring, mask=None, n=None):
        if mask is not None:
            check(ring, mask)
        init(self, ring, mask, n)

    def checked_lattice(ring):
        found = lattice(ring)
        if id(found) not in seen:  # each ring's lattice once; seen keeps it, and so its id
            seen[id(found)] = found
            for mask in found:
                check(ring, mask)
        return found

    monkeypatch.setattr(Ideal, "__init__", checked)
    for module in [m for name, m in sys.modules.items() if name.startswith("deltan.")]:
        if getattr(module, "_lattice", None) is lattice:
            monkeypatch.setattr(module, "_lattice", checked_lattice)
    monkeypatch.setattr("deltan.rings._RING_CACHE", {})
    run_claims(builtin_corpus.__wrapped__())
    verified = len(masks)
    for argv in _queries():
        _output_hash(argv)
    assert verified > 1000 and len(masks) > verified
    assert not bad, bad[:5]
