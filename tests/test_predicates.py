"""delta-primary, n-ideal, delta-n-ideal predicates and spectra."""

from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltan import (CrossRingError, ImproperIdealError, InfiniteRingError,
                    delta0, delta1, delta_plus, delta_n_masks,
                    delta_n_spectrum, delta_n_witness, delta_nilpotents,
                    enumerate_ideals, full_expansion, ideal_from_generators,
                    integer_ideal, integers, is_delta_n_ideal,
                    is_delta_primary, is_n_ideal, is_quasi_n_ideal, modular,
                    nilradical, poly_quotient, product, unit_ideal, zero_ideal)
from deltan.predicates import DELTA_N_METHODS, delta_primary_witness
from deltan.verifier import builtin_corpus


def test_delta_primary_examples():
    z8 = modular(8)
    four = ideal_from_generators(z8, [z8.el(4)])
    assert is_delta_primary(four, delta1(z8))
    z12 = modular(12)
    assert not is_delta_primary(zero_ideal(z12), delta0(z12))
    for I in enumerate_ideals(z12):
        if I.is_proper:
            assert is_delta_primary(I, full_expansion(z12))


def test_delta_primary_integers():
    zz = integers()
    d0, d1 = delta0(zz), delta1(zz)
    assert is_delta_primary(integer_ideal(zz, 8), d1)      # delta1(8Z) = 2Z
    assert is_delta_primary(integer_ideal(zz, 7), d0)
    assert not is_delta_primary(integer_ideal(zz, 12), d1)
    a, b = delta_primary_witness(integer_ideal(zz, 12), d1)
    assert (a * b).idx % 12 == 0 and a.idx % 12 and (b.idx % 6)
    assert is_delta_primary(zero_ideal(zz), d0)


def test_n_ideal_examples():
    z8 = modular(8)
    assert is_n_ideal(zero_ideal(z8))
    z6 = modular(6)
    assert not is_n_ideal(zero_ideal(z6))
    assert is_n_ideal(zero_ideal(integers()))


def test_delta_n_integers_examples():
    zz = integers()
    five = integer_ideal(zz, 5)
    assert is_delta_n_ideal(five, delta_plus(zz, integer_ideal(zz, 3)))
    assert not is_delta_n_ideal(five, delta0(zz))
    assert not is_delta_n_ideal(five, delta1(zz))


def test_delta_n_z6():
    z6 = modular(6)
    assert is_delta_n_ideal(zero_ideal(z6), full_expansion(z6))
    assert not is_delta_n_ideal(zero_ideal(z6), delta1(z6))


def test_delta_n_z8():
    z8 = modular(8)
    four = ideal_from_generators(z8, [z8.el(4)])
    assert is_delta_n_ideal(four, delta0(z8))


def test_witness_scan_order():
    z6 = modular(6)
    wit = delta_n_witness(zero_ideal(z6), delta0(z6))
    assert (wit[0].idx, wit[1].idx) == (2, 3)


def test_properness_guard():
    z6 = modular(6)
    with pytest.raises(ImproperIdealError):
        is_delta_n_ideal(unit_ideal(z6), delta0(z6))
    with pytest.raises(ImproperIdealError):
        is_n_ideal(unit_ideal(z6))
    with pytest.raises(ImproperIdealError):
        is_delta_primary(unit_ideal(z6), delta0(z6))
    zz = integers()
    with pytest.raises(ImproperIdealError):
        is_delta_n_ideal(unit_ideal(zz), delta0(zz))


def test_quasi_n_examples():
    z8 = modular(8)
    assert is_quasi_n_ideal(zero_ideal(z8))
    z12 = modular(12)
    assert not is_quasi_n_ideal(zero_ideal(z12))
    ring = poly_quotient(4, [0, 0, 0, 1])
    x_ideal = ideal_from_generators(ring, [ring.from_payload((0, 1, 0))])
    assert is_quasi_n_ideal(x_ideal)


def test_unknown_method_rejected():
    z6 = modular(6)
    with pytest.raises(ValueError):
        is_delta_n_ideal(zero_ideal(z6), delta0(z6), method="guess")


@pytest.mark.parametrize("method", DELTA_N_METHODS)
def test_guard_errors_in_order_on_every_method(method):
    z4, z6, zz = modular(4), modular(6), integers()
    for ring, other in ((z6, z4), (zz, z6), (z6, zz)):
        delta = delta0(ring)
        # an ideal of another ring, even that ring's whole ring or with an
        # unknown method, is a cross-ring error first
        for I in (zero_ideal(other), unit_ideal(other)):
            for m in (method, "guess"):
                with pytest.raises(CrossRingError):
                    is_delta_n_ideal(I, delta, method=m)
        # the whole ring is improper before the method is read
        for m in (method, "guess"):
            with pytest.raises(ImproperIdealError):
                is_delta_n_ideal(unit_ideal(ring), delta, method=m)
        assert is_delta_n_ideal(zero_ideal(ring), full_expansion(ring), method=method)
        with pytest.raises(ValueError):
            is_delta_n_ideal(zero_ideal(ring), delta, method="guess")


def test_spectrum_on_integers_is_an_infinite_ring_error():
    zz = integers()
    with pytest.raises(InfiniteRingError, match="finite rings only"):
        delta_n_spectrum(zz, delta0(zz))
    z6 = modular(6)
    with pytest.raises(CrossRingError):
        delta_n_spectrum(z6, delta0(modular(4)))


def test_spectrum_z8_delta0():
    z8 = modular(8)
    spec = delta_n_spectrum(z8, delta0(z8))
    assert [I.size for I in spec.all] == [1, 2, 4]
    assert spec.maximal_members == (nilradical(z8),)


def test_spectrum_z12_delta0_empty():
    z12 = modular(12)
    assert delta_n_spectrum(z12, delta0(z12)).all == ()


def test_spectrum_full_is_all_proper():
    z12 = modular(12)
    spec = delta_n_spectrum(z12, full_expansion(z12))
    assert len(spec.all) == len([I for I in enumerate_ideals(z12) if I.is_proper])


def test_delta_nilpotents():
    z12 = modular(12)
    assert {e.idx for e in delta_nilpotents(z12, delta1(z12))} == {0, 6}
    assert {e.idx for e in delta_nilpotents(z12, delta0(z12))} == {0}
    z6 = modular(6)
    two = ideal_from_generators(z6, [z6.el(2)])
    assert {e.idx for e in delta_nilpotents(z6, delta_plus(z6, two))} == {0, 2, 4}
    zz = integers()
    dn = delta_nilpotents(zz, delta_plus(zz, integer_ideal(zz, 3)))
    assert zz.el(6) in dn and zz.el(5) not in dn


def test_four_methods_agree_on_sample():
    for entry in builtin_corpus().entries[:10]:
        ring = entry.ring
        for delta in entry.expansions:
            for I in enumerate_ideals(ring):
                if not I.is_proper:
                    continue
                values = {is_delta_n_ideal(I, delta, method=m)
                          for m in DELTA_N_METHODS}
                assert len(values) == 1


def test_n_ideal_implies_delta_n_for_all_catalog():
    for entry in builtin_corpus().entries[:12]:
        for I in enumerate_ideals(entry.ring):
            if not I.is_proper or not is_n_ideal(I):
                continue
            for delta in entry.expansions:
                assert is_delta_n_ideal(I, delta)


def test_quasi_n_iff_radical_n_ideal():
    from deltan import radical
    for n in (6, 8, 12, 16, 18):
        ring = modular(n)
        for I in enumerate_ideals(ring):
            if I.is_proper:
                assert is_quasi_n_ideal(I) == is_n_ideal(radical(I))


def test_one_and_decision_matches_definition_scan():
    from deltan.predicates import _definition_witness
    checked = 0
    for entry in builtin_corpus().entries:
        ring = entry.ring
        for I in enumerate_ideals(ring):
            if not I.is_proper:
                continue
            assert is_n_ideal(I) == (_definition_witness(ring, I.mask, I.mask) is None)
            for delta in entry.expansions:
                verdict = is_delta_n_ideal(I, delta)
                assert verdict == (delta_n_witness(I, delta) is None)
                scan = _definition_witness(ring, I.mask, delta.table[I.mask])
                assert verdict == (scan is None)
                checked += 1
    assert checked > 1900


# ---------------------------------------------------------------------------
# the three cross-check methods against scans kept here
# ---------------------------------------------------------------------------

def _mask(indices):
    out = 0
    for i in indices:
        out |= 1 << i
    return out


class FreshScan:
    """The colon criterion, the element/ideal form and the ideal-pair form,
    from the multiplication table and the lattice alone, with nothing kept
    between decisions but the delta-free sets aJ and JK of one ring."""

    def __init__(self, ring):
        n, mul = ring.size, ring.mul
        self.n, self.mul = n, mul
        self.lattice = [I.mask for I in enumerate_ideals(ring)]
        members = {J: [j for j in range(n) if J >> j & 1] for J in self.lattice}
        nil = set()
        for a in range(n):
            p = a
            for _ in range(n):
                p = mul[p][a]
            if p == ring.zero_idx:
                nil.add(a)
        self.nil = _mask(nil)
        self.aj = {(a, J): _mask(mul[a][j] for j in members[J])
                   for a in range(n) for J in self.lattice}
        self.jk = {(J, K): _mask(mul[j][k] for j in members[J] for k in members[K])
                   for J in self.lattice for K in self.lattice}

    def colon_criterion(self, imask, dmask):
        for a in range(self.n):
            if dmask >> a & 1:
                continue
            colon = _mask(b for b in range(self.n) if imask >> self.mul[a][b] & 1)
            if colon & ~self.nil:
                return False
        return True

    def element_ideal(self, imask, dmask):
        return not any(self.aj[a, J] & ~imask == 0 and J & ~dmask
                       for a in range(self.n) if not self.nil >> a & 1
                       for J in self.lattice)

    def ideal_pairs(self, imask, dmask):
        return not any(self.jk[J, K] & ~imask == 0 and J & ~self.nil and K & ~dmask
                       for J in self.lattice for K in self.lattice)


def test_memoised_cross_checks_match_a_fresh_scan_on_every_corpus_triple():
    methods = [m for m in DELTA_N_METHODS if m != "definition"]
    assert len(methods) == 3
    triples = set()
    for entry in builtin_corpus().entries:
        ring = entry.ring
        scan = FreshScan(ring)
        # either visiting order finds a memo that forgets delta(I): some
        # (ring, I, method) then answers for an expansion it never saw
        for order in (entry.expansions, entry.expansions[::-1]):
            for delta in order:
                for I in enumerate_ideals(ring):
                    if not I.is_proper:
                        continue
                    dmask = delta.table[I.mask]
                    for m in methods:
                        expected = getattr(scan, m)(I.mask, dmask)
                        assert is_delta_n_ideal(I, delta, method=m) == expected, \
                            (ring, I, delta, m)
                    triples.add((ring.key, I.mask, delta.name()))
    assert len(triples) == 1976


# ---------------------------------------------------------------------------
# the finite-ring rule, from the multiplication table alone
# ---------------------------------------------------------------------------
# A finite commutative ring is a product of local rings.  In a local one every
# non-nilpotent element is a unit, so every proper ideal is delta-n for every
# delta.  Otherwise it has an idempotent e other than 0 and 1, and e(1 - e) = 0
# puts both e and 1 - e in delta(I): a proper I is delta-n iff delta(I) = R.

def _is_local(ring):
    """Local iff 0 and 1 are the only idempotents."""
    return sum(ring.mul[e][e] == e for e in range(ring.size)) == 2


def _rule_triples(ring, expansions):
    local, whole = _is_local(ring), (1 << ring.size) - 1
    for I in enumerate_ideals(ring):
        if I.mask != whole:
            for delta in expansions:
                yield I, delta, local or delta.table[I.mask] == whole


def test_finite_ring_rule_on_every_corpus_triple():
    triples = 0
    for entry in builtin_corpus().entries:
        for I, delta, expected in _rule_triples(entry.ring, entry.expansions):
            assert is_delta_n_ideal(I, delta) == expected, (entry.ring, I, delta)
            triples += 1
    assert triples == 1976


def test_finite_ring_rule_on_the_small_ladder_rings():
    from deltan.verifier import catalog
    rings = [modular(64), poly_quotient(2, [0] * 6 + [1]), product(modular(8), modular(8)),
             modular(128), poly_quotient(2, [0] * 7 + [1]), product(modular(11), modular(13)),
             poly_quotient(5, [0, 0, 0, 1])]
    assert [_is_local(r) for r in rings] == [True, True, False, True, True, False, True]
    for ring in rings:
        for I, delta, expected in _rule_triples(ring, catalog(ring)):
            assert is_delta_n_ideal(I, delta) == expected, (ring, I, delta)


# ---------------------------------------------------------------------------
# delta-primary as one AND against Z_I
# ---------------------------------------------------------------------------

def primary_scan(ring, imask, dmask):
    """First (a, b), a-major, with a outside I, ab in I and b outside delta(I)."""
    for a in range(ring.size):
        if imask >> a & 1:
            continue
        for b in range(ring.size):
            if imask >> ring.mul[a][b] & 1 and not dmask >> b & 1:
                return (a, b)
    return None


def _idx_pair(witness):
    return None if witness is None else (witness[0].idx, witness[1].idx)


def test_delta_primary_matches_the_plain_scan_on_every_corpus_triple():
    triples = 0
    for entry in builtin_corpus().entries:
        ring = entry.ring
        for I in enumerate_ideals(ring):
            if not I.is_proper:
                continue
            for delta in entry.expansions:
                scan = primary_scan(ring, I.mask, delta.table[I.mask])
                assert is_delta_primary(I, delta) == (scan is None), (ring, I, delta)
                assert _idx_pair(delta_primary_witness(I, delta)) == scan
                triples += 1
    assert triples == 1976


# ---------------------------------------------------------------------------
# an element-level oracle: the definitions in plain Element arithmetic
# ---------------------------------------------------------------------------

def first_violation(elems, skip, inside, target):
    """First (a, b) in enumeration order with a not in ``skip``, ab in
    ``inside`` and b not in ``target``."""
    for a in elems:
        if a in skip:
            continue
        for b in elems:
            if a * b in inside and b not in target:
                return (a, b)
    return None


def test_decisions_and_witnesses_match_an_element_level_oracle():
    from deltan import apply_expansion, n_ideal_witness
    checked = 0
    for entry in builtin_corpus().entries:
        ring = entry.ring
        if ring.size > 16:
            continue
        elems = ring.list_elements()
        zero = ring.zero
        nilpotent = {a for a in elems if a ** len(elems) == zero}
        for I in enumerate_ideals(ring):
            if not I.is_proper:
                continue
            members = set(I.elements())
            wit = first_violation(elems, nilpotent, members, members)
            assert is_n_ideal(I) == (wit is None)
            assert n_ideal_witness(I) == wit
            for delta in entry.expansions:
                target = set(apply_expansion(delta, I).elements())
                wit = first_violation(elems, members, members, target)
                assert is_delta_primary(I, delta) == (wit is None), (ring, I, delta)
                assert delta_primary_witness(I, delta) == wit
                wit = first_violation(elems, nilpotent, members, target)
                assert is_delta_n_ideal(I, delta) == (wit is None), (ring, I, delta)
                assert delta_n_witness(I, delta) == wit
                checked += 1
    assert checked == 712


# ---------------------------------------------------------------------------
# the finite-ring rule on generated rings of at most 64 elements
# ---------------------------------------------------------------------------

MAX_GENERATED = 64


@st.composite
def _atoms(draw, limit, first):
    """(DSL text, a bound on its element count) of one ring atom of at most
    ``limit`` >= 2 elements.  "(+)" binds to the whole product on its left, so
    only the first atom may be an idealization."""
    kinds = ["mod", "loc", "quot"] + (["poly"] if limit >= 4 else [])
    kinds += ["idealization"] if first and limit >= 4 else []
    kind = draw(st.sampled_from(kinds))
    if kind == "poly":
        n = draw(st.sampled_from([k for k in (2, 3, 4, 5, 6, 8) if k * k <= limit]))
        degree = draw(st.integers(2, max(d for d in range(2, 7) if n ** d <= limit)))
        coeffs = draw(st.lists(st.integers(0, n - 1), min_size=degree, max_size=degree))
        return f"Z{n}[x]/({coeffs + [1]})".replace(" ", ""), n ** degree
    if kind == "idealization":
        n = draw(st.integers(2, int(limit ** 0.5)))
        return f"Z{n} (+) Z{n}", n * n
    n = draw(st.integers(2, limit))
    if kind == "loc":
        # the powers of s form a multiplicative set; S^-1 Z_n has at most n elements
        s = draw(st.integers(1, n - 1))
        powers, p = [], 1
        while p not in powers:
            powers.append(p)
            p = p * s % n
        if 0 not in powers:
            return f"loc(Z{n},{{{','.join(map(str, sorted(powers)))}}})", n
    if kind == "quot":
        k = draw(st.integers(0, n - 1))
        if gcd(n, k) > 1:
            return f"quot(Z{n},({k}))", gcd(n, k)
    return f"Z{n}", n


@st.composite
def generated_rings(draw):
    """A DSL product of atoms with at most MAX_GENERATED elements."""
    text, size = draw(_atoms(MAX_GENERATED, True))
    while size <= MAX_GENERATED // 2 and draw(st.booleans()):
        atom, atom_size = draw(_atoms(MAX_GENERATED // size, False))
        text, size = f"{text} x {atom}", size * atom_size
    return text


@settings(max_examples=40, deadline=None)
@given(generated_rings())
def test_finite_ring_rule_on_generated_rings(text):
    from deltan.dsl import bind_ring, parse_spec
    from deltan.verifier import catalog
    ring = bind_ring(parse_spec(text))
    assert ring.size <= MAX_GENERATED
    for I, delta, expected in _rule_triples(ring, catalog(ring)):
        assert is_delta_n_ideal(I, delta) == expected, (text, I, delta)


# ---------------------------------------------------------------------------
# delta_n_masks: the lattice-wide AND against the single decision
# ---------------------------------------------------------------------------

def _context_expansions():
    """Every expansion a default verification builds: the catalogs, every
    composition of two catalog expansions, and every quotient-, localization-,
    product- and idealization-derived expansion, deduplicated by identity."""
    from deltan.constructions import MultiplicativeSet
    from deltan.expansions import (compose_expansions, derive_idealization_expansion,
                                   derive_localized_expansion, derive_product_expansion,
                                   derive_quotient_expansion)
    from deltan.ideals import special_sets
    from deltan.verifier import Context
    ctx = Context(builtin_corpus())
    out = {}

    def add(*expansions):
        out.update((id(d), d) for d in expansions)

    for entry in ctx.entries:
        ring, cat = entry.ring, entry.expansions
        add(*cat)
        add(*(compose_expansions(d, g) for d in cat for g in cat))
        add(*(derive_quotient_expansion(d, J) for J in enumerate_ideals(ring)
              if J.is_proper for d in cat))
        regular = sorted(e.idx for e in special_sets(ring).regular_elements)
        for sset in ctx.mult_sets(ring) + (MultiplicativeSet(ring, tuple(regular)),):
            add(*(derive_localized_expansion(d, sset) for d in cat))
        if ring.spec.kind == "product":
            _, left, right = ring.origin
            add(*(derive_product_expansion(d1, d2)
                  for d1 in ctx.catalog(left) for d2 in ctx.catalog(right)))
    for rec, base_catalog in ctx.idealization_instances():
        add(*(derive_idealization_expansion(d, rec.module) for d in base_catalog))
    for _f, pairs in ctx.hom_instances():
        add(*(d for pair in pairs for d in pair))
    return list(out.values())


def test_delta_n_masks_match_the_single_decision_on_every_context_expansion():
    expansions = _context_expansions()
    kinds = {d.kind for d in expansions}
    assert {"delta0", "delta1", "full", "delta_plus", "delta_star", "compose",
            "quotient_derived", "localization_derived", "product_derived",
            "idealization_derived"} <= kinds
    assert len(expansions) > 376
    for delta in expansions:
        ring = delta.ring
        proper = [I for I in enumerate_ideals(ring) if I.is_proper]
        dn = delta_n_masks(delta)
        assert dn == {I.mask for I in proper if is_delta_n_ideal(I, delta)}, delta
        spectrum = delta_n_spectrum(ring, delta)
        assert [I.mask for I in spectrum.all] == [I.mask for I in proper
                                                  if I.mask in dn], delta


def test_delta_n_masks_on_integers_is_an_infinite_ring_error():
    zz = integers()
    with pytest.raises(InfiniteRingError, match="finite rings only"):
        delta_n_masks(delta0(zz))
