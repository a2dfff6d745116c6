"""Expansion catalog, derivation rules, axiom validation, and profiles."""

import pytest

from deltan import (CrossRingError, ExpansionAxiomError, apply_expansion,
                    compose_expansions, delta0, delta1, delta_plus, delta_star,
                    derive_idealization_expansion, derive_localized_expansion,
                    derive_product_expansion, derive_quotient_expansion,
                    enumerate_ideals, full_expansion, ideal_from_generators,
                    integer_ideal, integers, make_expansion, modular,
                    nilradical, product, profile_expansion, radical,
                    zero_ideal)
from deltan.constructions import (MultiplicativeSet, idealization, localize,
                                  make_module, quotient_ring)
from deltan.expansions import _colon_violation, _lattice_covers, _validate_axioms
from deltan.verifier import builtin_corpus
from deltan.verifier import catalog as corpus_catalog


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
    with pytest.raises(ExpansionAxiomError):
        _validate_axioms(z6, bad)
    # non-monotone: (0) blows up to 2Z8 while the larger 4Z8 stays put
    z8 = modular(8)
    two = ideal_from_generators(z8, [z8.el(2)])
    bad2 = {I.mask: I.mask for I in enumerate_ideals(z8)}
    bad2[zero_ideal(z8).mask] = two.mask
    with pytest.raises(ExpansionAxiomError):
        _validate_axioms(z8, bad2)
    # extensive and monotone, but (0) goes to {0,1,3}, which is not an ideal
    not_ideal = {I.mask: I.mask | 0b1011 for I in lattice}
    with pytest.raises(ExpansionAxiomError, match="not an ideal"):
        _validate_axioms(z6, not_ideal)


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


def test_profile_integer_backend():
    zz = integers()
    assert profile_expansion(delta0(zz)).colon_condition
    p1 = profile_expansion(delta1(zz))
    assert p1.intersection_preserving and p1.idempotent_on_all
    assert p1.zero_fixed and p1.radical_commuting and not p1.colon_condition
    dp = profile_expansion(delta_plus(zz, integer_ideal(zz, 3)))
    assert dp.intersection_preserving and not dp.zero_fixed and not dp.colon_condition
    ds = profile_expansion(delta_star(zz, integer_ideal(zz, 4)))
    assert ds.zero_fixed and not ds.idempotent_on_all and not ds.radical_commuting
    comp = profile_expansion(compose_expansions(delta1(zz), delta1(zz)))
    assert comp.idempotent_on_all and comp.zero_fixed


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
    for ring in (e.ring for e in corpus.entries if e.ring.spec.kind == "product"):
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
        lhs = rec.extend_mask(radical(I).mask)
        rhs = d1s.table[rec.extend_mask(I.mask)]
        assert lhs == rhs


def test_every_catalog_expansion_validates():
    for entry in builtin_corpus().entries:
        full = entry.ring.full_mask
        for delta in entry.expansions:
            for I in enumerate_ideals(entry.ring):
                v = delta.table[I.mask]
                assert I.mask & ~v == 0
            assert delta.table[full] == full


def test_expansion_serialization_deterministic():
    z12 = modular(12)
    two = ideal_from_generators(z12, [z12.el(2)])
    assert delta0(z12).name() == "delta0"
    assert delta_plus(z12, two).name() == "delta_plus(gens=[2])"
    comp = compose_expansions(delta1(z12), delta_star(z12, two))
    assert comp.name() == "compose(delta1, delta_star(gens=[2]))"


# ---------------------------------------------------------------------------
# monotonicity on covering pairs against the all-pairs check
# ---------------------------------------------------------------------------

def all_pairs_failures(lattice, table):
    """Every pair I <= J of lattice masks with delta(I) not inside delta(J)."""
    return [(i, j) for i in lattice for j in lattice
            if i & ~j == 0 and table[i] & ~table[j]]


def _axioms_hold(ring, table):
    try:
        _validate_axioms(ring, table)
    except ExpansionAxiomError:
        return False
    return True


def proper_covers(ring):
    """The pairs I < J of proper ideals with no ideal strictly between."""
    proper = [I.mask for I in enumerate_ideals(ring) if I.is_proper]
    return [(i, j) for i in proper for j in proper
            if i != j and i & ~j == 0
            and not any(k not in (i, j) and i & ~k == 0 and k & ~j == 0
                        for k in proper)]


def test_cover_list_is_the_covering_relation_of_the_proper_ideals():
    for entry in builtin_corpus().entries:
        ring = entry.ring
        masks, members, covers = _lattice_covers(ring)
        assert masks == tuple(I.mask for I in enumerate_ideals(ring))
        assert members == set(masks)
        assert covers == tuple(proper_covers(ring)), ring


def test_every_cover_pair_is_needed():
    # delta(K) = R for the K above I other than J, and K elsewhere: extensive,
    # valued in ideals, and monotone on every pair but I <= J, so a cover list
    # without (I, J) accepts it
    for entry in builtin_corpus().entries:
        ring = entry.ring
        masks = [I.mask for I in enumerate_ideals(ring)]
        for i, j in proper_covers(ring):
            table = {k: ring.full_mask if i & ~k == 0 and k != j else k for k in masks}
            assert all_pairs_failures(masks, table) == [(i, j)]
            with pytest.raises(ExpansionAxiomError, match="monotonicity fails"):
                _validate_axioms(ring, table)


def test_cover_validation_matches_all_pairs_on_perturbed_corpus_tables():
    # move one value of each catalog table to every other ideal above its
    # argument, so the axioms other than monotonicity still hold
    checked = rejected = 0
    for entry in builtin_corpus().entries:
        ring = entry.ring
        masks = [I.mask for I in enumerate_ideals(ring)]
        for delta in entry.expansions:
            assert _axioms_hold(ring, delta.table)
            for k in masks:
                for v in masks:
                    if k & ~v or v == delta.table[k]:
                        continue
                    table = dict(delta.table)
                    table[k] = v
                    expected = not all_pairs_failures(masks, table)
                    assert _axioms_hold(ring, table) == expected, (delta, k, v)
                    checked += 1
                    rejected += not expected
    assert (checked, rejected) == (6628, 4826)


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
