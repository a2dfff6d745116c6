"""Expansion catalog, derivation rules, the expansion axioms, and profiles."""

import random
import re
from functools import lru_cache, reduce
from itertools import count
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltan import (CrossRingError, apply_expansion, compose_expansions, delta0,
                    delta1, delta_plus, delta_star, derive_idealization_expansion,
                    derive_localized_expansion, derive_product_expansion,
                    derive_quotient_expansion, enumerate_ideals, full_expansion,
                    ideal_from_generators, integer_ideal, integers, make_expansion,
                    modular, mult_closure, nilradical, product, profile_expansion,
                    radical, zero_ideal)
from deltan.constructions import (MultiplicativeSet, idealization, localize,
                                  make_module, quotient_ring)
from deltan.expansions import ExpansionProfile, _colon_violation
from deltan.ideals import _prime_factors, _radical_of_int
from deltan.verifier import Context, builtin_corpus
from deltan.verifier import catalog as corpus_catalog
from test_predicates import _context_expansions
from test_rings import _built_rings


def test_delta_plus_on_integers():
    zz = integers()
    dp = delta_plus(zz, integer_ideal(zz, 3))
    assert apply_expansion(dp, integer_ideal(zz, 5)).n == 1  # the whole ring


def test_delta1_table_on_z8():
    z8 = modular(8)
    d1 = delta1(z8)
    two = ideal_from_generators(z8, [z8.el(2)])
    four = ideal_from_generators(z8, [z8.el(4)])
    assert apply_expansion(d1, zero_ideal(z8)) == two
    assert apply_expansion(d1, four) == two
    assert apply_expansion(d1, two) == two


def test_delta0_is_identity():
    z12 = modular(12)
    d0 = make_expansion(z12, "delta0")
    for I in enumerate_ideals(z12):
        assert apply_expansion(d0, I) == I


def test_catalog_builders_are_memoised_per_ring():
    for ring in (modular(12), integers()):
        for build in (delta0, delta1, full_expansion):
            assert build(ring) is build(ring)
            assert make_expansion(ring, build(ring).kind) is build(ring)
    assert delta0(modular(12)) is not delta0(modular(6))


def test_apply_examples():
    z12 = modular(12)
    assert apply_expansion(delta1(z12), zero_ideal(z12)) == nilradical(z12)
    three = ideal_from_generators(z12, [z12.el(3)])
    two = ideal_from_generators(z12, [z12.el(2)])
    dp = delta_plus(z12, two)
    assert not apply_expansion(dp, three).is_proper
    assert not apply_expansion(full_expansion(z12), zero_ideal(z12)).is_proper


def test_delta_star():
    z8 = modular(8)
    two = ideal_from_generators(z8, [z8.el(2)])
    ds = delta_star(z8, two)
    got = apply_expansion(ds, zero_ideal(z8))
    assert {e.idx for e in got.elements()} == {0, 4}  # ann(2Z8)


def test_compose():
    z12 = modular(12)
    d0, d1 = delta0(z12), delta1(z12)
    gamma = delta_plus(z12, nilradical(z12))
    assert compose_expansions(d0, gamma).table == gamma.table
    assert compose_expansions(gamma, d0).table == gamma.table
    assert compose_expansions(d1, d1).table == d1.table


def test_cross_ring_parameter_rejected():
    with pytest.raises(CrossRingError):
        delta_plus(modular(12), zero_ideal(modular(6)))
    with pytest.raises(CrossRingError):
        compose_expansions(delta0(modular(4)), delta0(modular(6)))


def test_axiom_validation_rejects_bad_table():
    z6 = modular(6)
    lattice = enumerate_ideals(z6)
    # shrinkage: map everything to the zero ideal
    bad = {I.mask: lattice[0].mask for I in lattice}
    assert table_failure(z6, bad).startswith("extensivity fails")
    # non-monotone: (0) blows up to 2Z8 while the larger 4Z8 stays put
    z8 = modular(8)
    two = ideal_from_generators(z8, [z8.el(2)])
    bad2 = {I.mask: I.mask for I in enumerate_ideals(z8)}
    bad2[zero_ideal(z8).mask] = two.mask
    assert table_failure(z8, bad2).startswith("monotonicity fails")
    # extensive and monotone, but (0) goes to {0,1,3}, which is not an ideal
    not_ideal = {I.mask: I.mask | 0b1011 for I in lattice}
    assert table_failure(z6, not_ideal).endswith("is not an ideal")


def test_delta0_is_pointwise_minimum():
    for entry in builtin_corpus().entries[:8]:
        ring = entry.ring
        d0 = delta0(ring)
        for delta in entry.expansions:
            for I in enumerate_ideals(ring):
                assert apply_expansion(d0, I).issubset(apply_expansion(delta, I))


def test_profile_delta1_corpus_wide():
    for entry in builtin_corpus().entries:
        prof = profile_expansion(delta1(entry.ring))
        assert prof.intersection_preserving
        assert prof.idempotent_on_all
        assert prof.radical_commuting


def test_profile_delta0_z12():
    prof = profile_expansion(delta0(modular(12)))
    assert prof.zero_fixed
    # identity expansion satisfies the colon hypothesis on every ring:
    # (J:x) = delta(J:x) and x outside J keeps (J:x) proper
    assert prof.colon_condition


def test_profile_full_z6_colon_fails():
    prof = profile_expansion(full_expansion(modular(6)))
    assert not prof.colon_condition
    flags = dict(prof.witnesses)
    assert "colon_condition" in flags
    assert "whole ring" in flags["colon_condition"]


FLAGS = ("intersection_preserving", "idempotent_on_all", "zero_fixed", "radical_commuting",
         "colon_condition")


def _contains(a, b):
    """aZ contains bZ, with 0 standing for the zero ideal."""
    return b == 0 if a == 0 else b % a == 0


def _int_colon_gen(n, x):
    """The generator of (nZ : x)."""
    return n // gcd(n, x) if x else 1


def _first_clause_fails(fn, n, x):
    return not _contains(fn(n), x) and not _contains(fn(_int_colon_gen(n, x)),
                                                     _int_colon_gen(fn(n), x))


def _second_clause_fails(fn, n, x):
    return not _contains(n, x) and fn(_int_colon_gen(n, x)) == 1


def _assert_int_witnesses_are_violations(delta, prof):
    """Each failing flag's witness, re-checked as a real violation through int_fn."""
    fn = delta.int_fn
    flags = dict(prof.witnesses)
    # one witness per failing flag, in field order
    assert [f for f, _ in prof.witnesses] == [f for f in FLAGS if not getattr(prof, f)]
    for flag, text in flags.items():
        nums = [int(v) for v in re.findall(r"\d+", text)]
        if flag == "zero_fixed":
            assert fn(0) != 0
        elif flag == "idempotent_on_all":
            assert fn(fn(nums[0])) != fn(nums[0])
        elif flag == "radical_commuting":
            assert _radical_of_int(fn(nums[0])) != fn(_radical_of_int(nums[0]))
        elif flag == "intersection_preserving":
            assert fn(lcm(*nums)) != lcm(fn(nums[0]), fn(nums[1]))
        elif "whole ring" in text:
            assert _second_clause_fails(fn, *nums), text
        else:
            assert _first_clause_fails(fn, *nums), text


def test_profile_integer_backend():
    zz = integers()
    assert profile_expansion(delta0(zz)).colon_condition
    p1 = profile_expansion(delta1(zz))
    assert p1.intersection_preserving and p1.idempotent_on_all
    assert p1.zero_fixed and p1.radical_commuting and not p1.colon_condition
    assert dict(p1.witnesses)["colon_condition"] == (
        "(delta(J):x) not within delta(J:x) for J=(12), x=2")
    dp = profile_expansion(delta_plus(zz, integer_ideal(zz, 3)))
    assert dp.intersection_preserving and not dp.zero_fixed and not dp.colon_condition
    ds = profile_expansion(delta_star(zz, integer_ideal(zz, 4)))
    assert ds.zero_fixed and not ds.idempotent_on_all and not ds.radical_commuting
    comp = profile_expansion(compose_expansions(delta1(zz), delta1(zz)))
    assert comp.idempotent_on_all and comp.zero_fixed
    for delta in (delta1(zz), delta_plus(zz, integer_ideal(zz, 3)),
                  delta_star(zz, integer_ideal(zz, 4))):
        _assert_int_witnesses_are_violations(delta, profile_expansion(delta))


def _zz(kind, *params):
    zz = integers()
    return make_expansion(zz, kind, *(integer_ideal(zz, n) for n in params))


def _chain(*atoms):
    """atoms[0] o atoms[1] o ..."""
    return reduce(compose_expansions, atoms)


def test_integer_profile_regressions():
    """Flags that the former closed form and the former scan of n <= 240
    misreported; each witness is a real violation."""
    dp4 = profile_expansion(_zz("delta_plus", 4))
    assert not dp4.radical_commuting
    assert dict(dp4.witnesses)["radical_commuting"] == "I=(0)"
    _assert_int_witnesses_are_violations(_zz("delta_plus", 4), dp4)
    expected = {  # recipe -> the least exponent witness of both flags
        _chain(_zz("delta_star", 23), _zz("delta0")): "I=(529)",
        _chain(_zz("delta1"), _zz("delta_star", 16), _zz("delta_star", 16)): "I=(512)",
        # a violation past twice the largest parameter exponent: 2^10
        _chain(*[_zz("delta_star", 8)] * 3): "I=(1024)",
        _chain(_zz("delta1"), _zz("delta_star", 2), _zz("delta_star", 2)): "I=(8)",
    }
    for delta, witness in expected.items():
        prof = profile_expansion(delta)
        assert not prof.idempotent_on_all and not prof.radical_commuting, delta.name()
        flags = dict(prof.witnesses)
        assert flags["idempotent_on_all"] == flags["radical_commuting"] == witness
        _assert_int_witnesses_are_violations(delta, prof)


def _former_closed_form(kind, q):
    """(intersection_preserving, idempotent_on_all, zero_fixed,
    radical_commuting, colon_condition) as the per-kind closed forms gave them."""
    if kind == "delta0" or (kind, q) in (("delta_plus", 0), ("delta_star", 1)):
        return True, True, True, True, True
    if kind == "delta1":
        return True, True, True, True, False
    if kind == "delta_star" and q > 0:
        return True, False, True, False, False
    return True, True, False, True, False  # full, delta_star(0), delta_plus(q > 0)


def test_integer_profile_of_every_atom_matches_the_former_closed_forms():
    """The one difference: delta_plus(q) with q not squarefree fails to commute
    with radicals at I=(0), as sqrt(qZ) != qZ = delta(sqrt(0))."""
    atoms = [("delta0", None), ("delta1", None), ("full", None)]
    atoms += [(kind, q) for kind in ("delta_plus", "delta_star") for q in range(31)]
    for kind, q in atoms:
        delta = _zz(kind) if q is None else _zz(kind, q)
        prof = profile_expansion(delta)
        flags = (prof.intersection_preserving, prof.idempotent_on_all, prof.zero_fixed,
                 prof.radical_commuting, prof.colon_condition)
        former = _former_closed_form(kind, q)
        if kind == "delta_plus" and q and _radical_of_int(q) != q:
            assert dict(prof.witnesses)["radical_commuting"] == "I=(0)"
            former = former[:3] + (False,) + former[4:]
        assert flags == former, delta.name()
        _assert_int_witnesses_are_violations(delta, prof)


def _reference_points(delta):
    """0 and p^a * q^b over the parameter primes and the three least primes
    dividing no parameter, a <= 3(S_p + r + 1) + 3: more primes and longer
    exponent ranges than the profile reads."""
    params, r = [], 0
    todo = [delta]
    while todo:
        d = todo.pop()
        if d.kind == "compose":
            todo.extend(d.recipe[1:])
        elif d.kind == "delta1":
            r += 1
        elif d.kind in ("delta_plus", "delta_star") and d.recipe[1].n:
            params.append(d.recipe[1].n)
    primes = [p for p in range(2, 100) if all(p % d for d in range(2, p))]
    generic = [p for p in primes if all(n % p for n in params)][:3]
    used = [p for p in primes if any(n % p == 0 for n in params)] + generic

    def exponent_sum(p):
        return sum(next(e for e in count() if n % p ** (e + 1)) for n in params)

    powers = [[p ** a for a in range(3 * (exponent_sum(p) + r + 1) + 4)] for p in used]
    return sorted({0} | {x * y for i, xs in enumerate(powers)
                         for ys in powers[i + 1:] for x in xs for y in ys})


def _reference_flags(delta):
    """The five flags by their definitions on ``_reference_points``.  Pairs for
    the intersection flag have one member 0 or a prime power, which keeps the
    check linear in the points; the pairs of two nonzero points need no check,
    as lcm is max per exponent and every catalog kind is monotone in each."""
    fn = lru_cache(maxsize=None)(delta.int_fn)
    points = _reference_points(delta)
    nonzero = points[1:]
    simple = [n for n in points if n < 2 or len(_prime_factors(n)) == 1]
    return (all(fn(lcm(n, m)) == lcm(fn(n), fn(m)) for n in simple for m in points),
            all(fn(fn(n)) == fn(n) for n in points),
            fn(0) == 0,
            all(_radical_of_int(fn(n)) == fn(_radical_of_int(n)) for n in points),
            not any(_first_clause_fails(fn, n, x) or _second_clause_fails(fn, n, x)
                    for n in points for x in nonzero))


def test_integer_profile_matches_a_reference_on_more_test_points():
    rng = random.Random(22)
    kinds = ("delta0", "delta1", "full", "delta_plus", "delta_star")

    def atom():
        kind = rng.choice(kinds)
        return _zz(kind, rng.randint(0, 30)) if kind in kinds[3:] else _zz(kind)

    for _ in range(16):
        delta = _chain(*(atom() for _ in range(rng.randint(1, 3))))
        prof = profile_expansion(delta)
        assert (prof.intersection_preserving, prof.idempotent_on_all, prof.zero_fixed,
                prof.radical_commuting, prof.colon_condition) == _reference_flags(delta), (
            delta.name())


def test_derive_quotient_expansion():
    z12 = modular(12)
    six = nilradical(z12)
    rec = quotient_ring(z12, six)
    dq = derive_quotient_expansion(delta1(z12), six)
    assert apply_expansion(dq, zero_ideal(rec.ring)).is_zero
    d0q = derive_quotient_expansion(delta0(z12), six)
    for K in enumerate_ideals(rec.ring):
        assert apply_expansion(d0q, K) == K
    fq = derive_quotient_expansion(full_expansion(z12), six)
    for K in enumerate_ideals(rec.ring):
        assert not apply_expansion(fq, K).is_proper


def test_derive_product_expansion():
    z4, z9 = modular(4), modular(9)
    ring = product(z4, z9)
    dx = derive_product_expansion(delta1(z4), delta1(z9))
    val = apply_expansion(dx, zero_ideal(ring))
    assert {e.payload for e in val.elements()} == {(a, b) for a in (0, 2)
                                                   for b in (0, 3, 6)}
    d0x = derive_product_expansion(delta0(z4), delta0(z9))
    for I in enumerate_ideals(ring):
        assert apply_expansion(d0x, I) == I
    fx = derive_product_expansion(full_expansion(z4), delta0(z9))
    for I in enumerate_ideals(ring):
        got = apply_expansion(fx, I)
        pr2 = {e.payload[1] for e in I.elements()}
        assert {e.payload for e in got.elements()} == {(a, b) for a in range(4)
                                                       for b in pr2}


def test_product_transport_matches_an_element_level_oracle_on_the_corpus():
    # delta_x(I) = d1(A) x d2(B), A and B the coordinate sets of I (each an
    # ideal), on every product ring of the corpus and catalog pair of its factors
    corpus = builtin_corpus()
    cells = 0
    for ring in (e.ring for e in corpus.entries if e.ring.origin[0] == "product"):
        _, left, right = ring.origin
        for d1 in corpus_catalog(left):
            for d2 in corpus_catalog(right):
                dx = derive_product_expansion(d1, d2)
                for I in enumerate_ideals(ring):
                    pairs = [e.payload for e in I.elements()]
                    a = apply_expansion(d1, ideal_from_generators(left, [p[0] for p in pairs]))
                    b = apply_expansion(d2, ideal_from_generators(right, [p[1] for p in pairs]))
                    expected = {(x.payload, y.payload) for x in a.elements()
                                for y in b.elements()}
                    assert {e.payload for e in apply_expansion(dx, I).elements()} == \
                        expected, (d1, d2, I)
                    cells += 1
    assert cells > 1000


def test_derive_idealization_expansion():
    z8 = modular(8)
    module = make_module(z8, "regular")
    rec = idealization(z8, module)
    dplus = derive_idealization_expansion(delta1(z8), module)
    val = apply_expansion(dplus, zero_ideal(rec.ring))
    assert {e.payload for e in val.elements()} == {(a, b) for a in (0, 2, 4, 6)
                                                   for b in range(8)}
    d0plus = derive_idealization_expansion(delta0(z8), module)
    for W in enumerate_ideals(rec.ring):
        got = apply_expansion(d0plus, W)
        pr = {e.payload[0] for e in W.elements()}
        assert {e.payload for e in got.elements()} == {(a, b) for a in pr
                                                       for b in range(8)}
    fplus = derive_idealization_expansion(full_expansion(z8), module)
    for W in enumerate_ideals(rec.ring):
        assert not apply_expansion(fplus, W).is_proper


def test_idealization_transport_matches_an_element_level_oracle_on_the_corpus():
    # delta_+(W) = {(r, m) : r in delta(pi W), m in M}, pi W the first
    # coordinates of W, on every idealization ring of the corpus and catalog
    # expansion of its base
    corpus = builtin_corpus()
    rings_seen = cells = 0
    for ring in (e.ring for e in corpus.entries if e.ring.origin[0] == "idealization"):
        _, base, module = ring.origin
        rings_seen += 1
        module_part = {e.payload[1] for e in ring.list_elements()}
        for delta in corpus_catalog(base):
            dplus = derive_idealization_expansion(delta, module)
            for W in enumerate_ideals(ring):
                pi_w = ideal_from_generators(base, [e.payload[0] for e in W.elements()])
                expected = {(r.payload, m) for r in apply_expansion(delta, pi_w).elements()
                            for m in module_part}
                assert {e.payload for e in apply_expansion(dplus, W).elements()} == \
                    expected, (delta, W)
                cells += 1
    assert rings_seen == 3 and cells > 100


def test_derive_localized_expansion():
    z12 = modular(12)
    sset = MultiplicativeSet(z12, (1, 4))
    rec = localize(z12, sset)
    assert rec.ring.size == 3
    ds = derive_localized_expansion(delta1(z12), sset)
    assert apply_expansion(ds, zero_ideal(rec.ring)).is_zero
    d0s = derive_localized_expansion(delta0(z12), sset)
    for K in enumerate_ideals(rec.ring):
        assert apply_expansion(d0s, K) == K


def test_localized_expansion_unit_denominators():
    z6 = modular(6)
    sset = MultiplicativeSet(z6, (1, 5))
    rec = localize(z6, sset)
    assert rec.canonical.is_injective() and rec.canonical.is_surjective()
    d1s = derive_localized_expansion(delta1(z6), sset)
    for I in enumerate_ideals(z6):
        lhs = rec.canonical.image_mask(radical(I).mask)
        rhs = d1s.table[rec.canonical.image_mask(I.mask)]
        assert lhs == rhs


def test_expansion_serialization_deterministic():
    z12 = modular(12)
    two = ideal_from_generators(z12, [z12.el(2)])
    assert delta0(z12).name() == "delta0"
    assert delta_plus(z12, two).name() == "delta_plus(gens=[2])"
    comp = compose_expansions(delta1(z12), delta_star(z12, two))
    assert comp.name() == "compose(delta1, delta_star(gens=[2]))"


def test_derived_expansions_print_their_recipe():
    """One derived expansion of each kind prints its recipe and ring, and
    calling it is ``apply_expansion``."""
    z3, z4, z8, z12 = modular(3), modular(4), modular(8), modular(12)
    two = ideal_from_generators(z12, [z12.el(2)])
    derived = {
        derive_quotient_expansion(delta1(z12), two):
            "quotient_derived(base=delta1, modulo=(2)) on quot(Z12,[0,2,4,6,8,10])",
        derive_product_expansion(delta1(z4), delta_plus(z3, zero_ideal(z3))):
            "product_derived(delta1, delta_plus(gens=[0])) on prod(Z4,Z3)",
        derive_idealization_expansion(delta1(z8), make_module(z8, "regular")):
            "idealization_derived(base=delta1) on idz(Z8,regular)",
        derive_localized_expansion(delta0(z12), MultiplicativeSet(z12, (1, 4))):
            "localization_derived(base=delta0, s=[1, 4]) on loc(Z12,[1,4])",
        compose_expansions(delta1(z12), delta_star(z12, two)):
            "compose(delta1, delta_star(gens=[2])) on Z12",
    }
    for delta, text in derived.items():
        assert repr(delta) == f"Expansion({text})"
        for I in enumerate_ideals(delta.ring):
            assert delta(I) is apply_expansion(delta, I), (delta, I)


# ---------------------------------------------------------------------------
# the expansion axioms on all pairs: no constructor checks its table, as each
# recipe keeps the axioms, so the tables the builders make are checked here
# ---------------------------------------------------------------------------

def table_failure(ring, table):
    """Why ``table`` is not an expansion of the finite ``ring``, or None: it must
    send each lattice ideal to a lattice ideal, be extensive at each, and be
    monotone on every pair I <= J."""
    lattice = [I.mask for I in enumerate_ideals(ring)]
    if set(table) != set(lattice):
        return "the table is not over the ideal lattice"
    for i in lattice:
        if table[i] not in table:
            return f"the value at {i:#x} is not an ideal"
        if i & ~table[i]:
            return f"extensivity fails at {i:#x}"
    for i in lattice:
        for j in lattice:
            if i & ~j == 0 and table[i] & ~table[j]:
                return f"monotonicity fails at {i:#x} <= {j:#x}"
    return None


def _divides(m, n):
    return n % m == 0 if m else n == 0


def expansion_failure(delta):
    """``table_failure`` of a finite expansion; on ZZ, where nZ <= mZ iff m
    divides n, the same axioms on the ideals nZ for n < 60."""
    if delta.ring.is_finite:
        return table_failure(delta.ring, delta.table)
    fn, points = delta.int_fn, range(60)
    for n in points:
        if not _divides(fn(n), n):
            return f"extensivity fails at ({n})"
        for m in points:
            if _divides(m, n) and not _divides(fn(m), fn(n)):
                return f"monotonicity fails at ({n}) <= ({m})"
    return None


def _verification_family():
    """Every expansion that a default verification built while it interned its
    compositions and localizations: the family of ``_context_expansions`` (the
    catalogs, every catalog composition, and every quotient-, localization-,
    product- and idealization-derived expansion), delta1 of each homomorphism
    target (``prop-radical-hom``), and the ZZ expansions of the two ZZ claims."""
    zz = integers()
    family = {id(d): d for d in _context_expansions()}
    targets = (f.target for f, _pairs in Context(builtin_corpus()).hom_instances())
    primes = (q for q in range(2, 101) if _prime_factors(q) == [q])
    for delta in (*map(delta1, targets), delta0(zz), delta1(zz),
                  *(delta_plus(zz, integer_ideal(zz, q)) for q in primes)):
        family.setdefault(id(delta), delta)
    return list(family.values())


def test_every_catalog_expansion_validates():
    """The expansions of a default verification, built here as its claims no
    longer build all of them, are expansions on all pairs."""
    built = _verification_family()
    assert len(built) == 10021
    assert {d.kind for d in built} == {
        "delta0", "delta1", "full", "delta_plus", "delta_star", "compose",
        "quotient_derived", "product_derived", "idealization_derived",
        "localization_derived"}
    for delta in built:
        assert expansion_failure(delta) is None, delta


@settings(max_examples=40, deadline=None)
@given(_built_rings(), st.data())
def test_drawn_rings_give_expansions_by_every_recipe(ring, data):
    """The catalog, its compositions with a drawn member on either side, and
    each derived kind of a drawn member, on the rings that the builder-output
    test draws."""
    cat = corpus_catalog(ring)
    delta = data.draw(st.sampled_from(cat))
    proper = [I for I in enumerate_ideals(ring) if I.is_proper]
    built = [*cat, *(compose_expansions(d, delta) for d in cat),
             *(compose_expansions(delta, d) for d in cat),
             derive_quotient_expansion(delta, data.draw(st.sampled_from(proper)))]
    if ring.size <= 64:
        other = data.draw(st.sampled_from(corpus_catalog(modular(4))))
        built.append(derive_product_expansion(delta, other))
    sset = mult_closure(ring, [ring.el(data.draw(st.integers(0, ring.size - 1)))])
    if ring.zero_idx not in sset.indices:
        built.append(derive_localized_expansion(delta, sset))
    module = make_module(ring, data.draw(st.sampled_from(
        ["regular"] + [("quotient", I) for I in proper])))
    if ring.size * module.size <= 256:
        built.append(derive_idealization_expansion(delta, module))
    for made in built:
        assert expansion_failure(made) is None, made


# ---------------------------------------------------------------------------
# the catalog tables rebuilt in plain Element arithmetic
# ---------------------------------------------------------------------------

def rebuild(delta, members, elems):
    """delta applied to the element set ``members``, from the definitions."""
    kind = delta.kind
    if kind == "delta0":
        return members
    if kind == "delta1":
        return frozenset(a for a in elems if a ** len(elems) in members)
    if kind == "full":
        return frozenset(elems)
    if kind == "delta_plus":
        J = delta.recipe[1].elements()
        return frozenset(i + j for i in members for j in J)
    if kind == "delta_star":
        P = delta.recipe[1].elements()
        return frozenset(r for r in elems if all(r * p in members for p in P))
    if kind == "compose":
        return rebuild(delta.recipe[1], rebuild(delta.recipe[2], members, elems), elems)
    raise AssertionError(kind)


def test_catalog_tables_match_an_element_level_oracle():
    kinds, cells = set(), 0
    for entry in builtin_corpus().entries:
        ring = entry.ring
        if ring.size > 16:
            continue
        elems = ring.list_elements()
        lattice = enumerate_ideals(ring)
        for delta in entry.expansions:
            kinds.add(delta.kind)
            for I in lattice:
                value = rebuild(delta, frozenset(I.elements()), elems)
                assert frozenset(apply_expansion(delta, I).elements()) == value, \
                    (ring, delta, I)
                assert delta.table[I.mask] == sum(1 << a.idx for a in value)
                cells += 1
    assert kinds == {"delta0", "delta1", "full", "delta_plus", "delta_star", "compose"}
    assert cells == 936


def test_profile_colon_flag_is_the_per_ideal_colon_check_over_the_lattice():
    """``profile_expansion`` and ``prop-maximal-is-nilradical`` share one per-J
    colon check; on every catalog expansion of the default corpus the global
    flag is that check over the whole lattice, and a failing profile names the
    first J it rejects."""
    failing = 0
    for entry in builtin_corpus().entries:
        lattice = enumerate_ideals(entry.ring)
        for delta in entry.expansions:
            bad = [J for J in lattice if _colon_violation(delta, J.mask) is not None]
            prof = profile_expansion(delta)
            assert prof.colon_condition == (not bad), delta.name()
            if bad:
                failing += 1
                x, clause = _colon_violation(delta, bad[0].mask)
                assert dict(prof.witnesses)["colon_condition"] == (
                    f"{clause} for J={bad[0]!r}, x={entry.ring.element_repr(x)}")
    assert 0 < failing < sum(len(e.expansions) for e in builtin_corpus().entries)


def _plain_profile(delta):
    """(the five flags, the witnesses) of a finite expansion from the
    definitions, by a plain scan in lattice order: every pair for the meet, and
    colons and radicals read off the multiplication table."""
    ring, table = delta.ring, delta.table
    lattice, n, mul, full = enumerate_ideals(ring), ring.size, ring.mul, ring.full_mask
    zero = 1 << ring.zero_idx

    def colon(mask, x):  # (I : x) = {r : rx in I}
        return sum(1 << r for r in range(n) if mask >> mul[r][x] & 1)

    def rad(mask):  # the r with one of r, r^2, ..., r^n in I
        out = 0
        for r in range(n):
            power = r
            for _ in range(n):
                if mask >> power & 1:
                    out |= 1 << r
                    break
                power = mul[power][r]
        return out

    def colon_clauses(J):
        dj = table[J.mask]
        for x in range(n):
            if not dj >> x & 1 and colon(dj, x) & ~table[colon(J.mask, x)]:
                yield x, "(delta(J):x) not within delta(J:x)"
            if not J.mask >> x & 1 and table[colon(J.mask, x)] == full:
                yield x, "delta(J:x) is the whole ring"

    found = {
        "intersection_preserving": [f"I={I!r}, J={J!r}" for I in lattice for J in lattice
                                    if table[I.mask & J.mask] != table[I.mask] & table[J.mask]],
        "idempotent_on_all": [f"I={I!r}" for I in lattice
                              if table[table[I.mask]] != table[I.mask]],
        "zero_fixed": [] if table[zero] == zero else ["delta(0) != (0)"],
        "radical_commuting": [f"I={I!r}" for I in lattice
                              if rad(table[I.mask]) != table[rad(I.mask)]],
        "colon_condition": [f"{clause} for J={J!r}, x={ring.element_repr(x)}"
                            for J in lattice for x, clause in colon_clauses(J)],
    }
    return (tuple(not found[f] for f in FLAGS),
            tuple((f, found[f][0]) for f in FLAGS if found[f]))


def test_profile_matches_a_plain_scan_of_the_definitions_on_the_corpus():
    """Every flag of every catalog expansion of the default corpus, and the
    first witness of each failing flag, listed in field order."""
    assert ExpansionProfile._fields[:5] == FLAGS
    checked, failing = 0, set()
    for entry in builtin_corpus().entries:
        for delta in entry.expansions:
            prof = profile_expansion(delta)
            assert (tuple(prof[:5]), prof.witnesses) == _plain_profile(delta), delta.name()
            failing.update(f for f, _ in prof.witnesses)
            checked += 1
    assert checked == 376 and failing == set(FLAGS)
