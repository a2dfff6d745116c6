"""delta-primary, n-ideal, delta-n-ideal predicates and spectra."""

import pytest

from deltan import (ImproperIdealError, delta0, delta1, delta_plus,
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
