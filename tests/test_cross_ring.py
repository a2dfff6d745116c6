"""Rings are told apart by identity: every cross-ring guard refuses an operand
of a twin ring, one that has the key of an interned ring but is another object,
and a ring constructed from a twin is built on that twin."""

import pytest

from deltan import (DELTA_N_METHODS, CrossRingError, apply_expansion, arithmetic,
                    classify_element, colon, compose_expansions, delta0,
                    delta1, delta_n_spectrum, derive_product_expansion, delta_n_witness, delta_nilpotents, delta_plus,
                    delta_star, enumerate_ideals, enumerate_submodules,
                    ideal_combine, ideal_contains, ideal_from_generators, idealization,
                    image_ideal, integer_ideal, integers, is_delta_gamma_homomorphism,
                    is_delta_n_ideal, is_delta_primary, localize, make_homomorphism,
                    make_module, modular, mult_closure, poly_quotient, preimage_ideal,
                    product, quotient_ring, special_sets)
from deltan.constructions import product_projections
from deltan.predicates import delta_primary_witness
from deltan.rings import _RING_CACHE, Ring, _build_modular

Z6 = modular(6)
TWIN = _build_modular(6)  # the key Z6, not interned
I6 = ideal_from_generators(Z6, [2])
IT = ideal_from_generators(TWIN, [2])
IDENTITY = make_homomorphism(Z6, Z6, list(range(6)))
IZR = idealization(Z6, make_module(Z6, "regular"))
LOC = localize(Z6, mult_closure(Z6, [Z6.el(5)]))


def _twin_idealization_ideal():
    rec = idealization(TWIN, make_module(TWIN, "regular"))
    return enumerate_ideals(rec.ring)[1]


def _twin_localization_ideal():
    rec = localize(TWIN, mult_closure(TWIN, [TWIN.el(5)]))
    return enumerate_ideals(rec.ring)[0]


# one call per guard, each with exactly one operand from the twin
GUARDED = {
    "element +": lambda: Z6.el(1) + TWIN.el(1),
    "element -": lambda: Z6.el(1) - TWIN.el(1),
    "element *": lambda: Z6.el(1) * TWIN.el(1),
    "arithmetic": lambda: arithmetic(Z6, "add", Z6.el(1), TWIN.el(1)),
    "classify_element": lambda: classify_element(Z6, TWIN.el(1)),
    "ideal_contains": lambda: ideal_contains(I6, TWIN.el(2)),
    "issubset": lambda: I6.issubset(IT),
    "ideal_from_generators": lambda: ideal_from_generators(Z6, [TWIN.el(2)]),
    "ideal_combine": lambda: ideal_combine("sum", I6, IT),
    "colon by an ideal": lambda: colon(I6, IT),
    "colon by an element": lambda: colon(I6, TWIN.el(2)),
    "special_sets": lambda: special_sets(Z6, IT),
    "delta_plus": lambda: delta_plus(Z6, IT),
    "delta_star": lambda: delta_star(Z6, IT),
    "compose_expansions": lambda: compose_expansions(delta1(Z6), delta0(TWIN)),
    "apply_expansion": lambda: apply_expansion(delta0(Z6), IT),
    "is_delta_primary": lambda: is_delta_primary(IT, delta0(Z6)),
    "delta_primary_witness": lambda: delta_primary_witness(IT, delta0(Z6)),
    "delta_n_witness": lambda: delta_n_witness(IT, delta0(Z6)),
    "delta_n_spectrum": lambda: delta_n_spectrum(Z6, delta0(TWIN)),
    "delta_nilpotents": lambda: delta_nilpotents(Z6, delta0(TWIN)),
    "make_module": lambda: make_module(Z6, ("quotient", IT)),
    "Homomorphism.apply": lambda: IDENTITY(TWIN.el(1)),
    "image_ideal": lambda: image_ideal(IDENTITY, IT),
    "preimage_ideal": lambda: preimage_ideal(IDENTITY, IT),
    "is_delta_gamma_homomorphism source":
        lambda: is_delta_gamma_homomorphism(IDENTITY, delta0(TWIN), delta0(Z6)),
    "is_delta_gamma_homomorphism target":
        lambda: is_delta_gamma_homomorphism(IDENTITY, delta0(Z6), delta0(TWIN)),
    "quotient_ring": lambda: quotient_ring(Z6, IT),
    "homogeneous_ideal ideal":
        lambda: IZR.homogeneous_ideal(IT, enumerate_submodules(IZR.module)[-1]),
    "homogeneous_ideal submodule": lambda: IZR.homogeneous_ideal(
        I6, enumerate_submodules(make_module(TWIN, "regular"))[-1]),
    "split": lambda: IZR.split(_twin_idealization_ideal()),
    "idealization": lambda: idealization(Z6, make_module(TWIN, "regular")),
    "extend": lambda: LOC.extend(IT),
    "contract": lambda: LOC.contract(_twin_localization_ideal()),
    "localize": lambda: localize(Z6, mult_closure(TWIN, [TWIN.el(5)])),
    **{f"is_delta_n_ideal {method}":
       (lambda method=method: is_delta_n_ideal(IT, delta0(Z6), method=method))
       for method in DELTA_N_METHODS},
}


@pytest.mark.parametrize("call", GUARDED.values(), ids=GUARDED.keys())
def test_every_guard_refuses_an_operand_of_a_twin_ring(call):
    with pytest.raises(CrossRingError, match=r"lives in another ring \((.+)\) than \1$"):
        call()


def test_a_twin_is_a_different_ring_with_the_same_key():
    assert TWIN.key == Z6.key and TWIN != Z6 and TWIN.el(1) != Z6.el(1)
    assert len({Z6, TWIN, modular(6)}) == 2
    # the twin's own operations still work, on its own ideals
    assert ideal_combine("sum", IT, IT) is IT and colon(IT, IT).is_proper is False


def test_a_derived_ring_of_a_twin_stays_out_of_the_ring_cache():
    twin_quotient = quotient_ring(TWIN, IT).ring
    assert twin_quotient.origin == ("quotient", TWIN, IT)
    assert twin_quotient.key == quotient_ring(Z6, I6).ring.key
    assert twin_quotient is not quotient_ring(Z6, I6).ring
    # the cache holds the rings of the base recipes only, and the twin is none of them
    assert {ring.origin[0] for ring in _RING_CACHE.values()} <= {"modular", "poly_quotient",
                                                                 "integer"}
    assert _RING_CACHE[("modular", 6)] is Z6


def _assert_product_on(left, right):
    """product(left, right) is one ring, built on these factor objects."""
    ring = product(left, right)
    assert product(left, right) is ring and ring.origin == ("product", left, right)
    assert [p.target for p in product_projections(ring)] == [left, right]
    assert derive_product_expansion(delta0(left), delta0(right)).table == delta0(ring).table
    return ring


def _twin_factor_pairs():
    """Each pair of factors with the twin on one side or both, and the same pair
    with Z6 in the twin's place."""
    z2 = modular(2)
    for left, right in ((z2, TWIN), (TWIN, z2), (TWIN, TWIN)):
        yield (left, right), (Z6 if left is TWIN else z2, Z6 if right is TWIN else z2)


def test_a_product_over_a_twin_is_built_on_that_twin():
    for (left, right), interned in _twin_factor_pairs():
        ring = _assert_product_on(left, right)
        assert ring is not product(*interned)


def test_a_product_expansion_over_a_twin_is_built_on_that_twin():
    for (left, right), interned in _twin_factor_pairs():
        derived = derive_product_expansion(delta0(left), delta0(right))
        assert derived.ring is product(left, right)
        assert derived.ring is not derive_product_expansion(*map(delta0, interned)).ring
        assert derived.table == delta0(derived.ring).table


def test_poly_quotient_over_a_twin_is_the_ring_of_its_recipe():
    ring = poly_quotient(TWIN, [1, 0, 1])
    assert ring is poly_quotient(Z6, [1, 0, 1]) is poly_quotient(6, [1, 0, 1])
    assert ring.origin == ("poly_quotient", 6, (1, 0, 1))


def _relabelled_z4():
    """Z4 with the residues 1 and 2 trading labels, built under Z4's key."""
    label = [0, 2, 1, 3]
    add, mul = [[0] * 4 for _ in range(4)], [[0] * 4 for _ in range(4)]
    for a in range(4):
        for b in range(4):
            add[label[a]][label[b]] = label[(a + b) % 4]
            mul[label[a]][label[b]] = label[a * b % 4]
    return Ring(("modular", 4), elements=list(range(4)), add=add, mul=mul, zero=0, one=label[1])


def test_a_relabelled_z4_is_refused_and_not_mixed_up_with_z4():
    z4, relabelled = modular(4), _relabelled_z4()
    two = ideal_from_generators(relabelled, [relabelled.el(1)])  # the residue 2
    assert two.size == 2 and two.is_proper
    with pytest.raises(CrossRingError):
        ideal_combine("sum", two, ideal_from_generators(z4, [2]))
    with pytest.raises(CrossRingError):
        is_delta_n_ideal(two, delta0(z4))
    # a product takes the relabelled ring as it is: its own factor, not Z4
    ring = _assert_product_on(relabelled, modular(2))
    assert ring is not product(z4, modular(2)) and ring.key == "prod(Z4,Z2)"


def test_integer_ideal_lives_in_the_integers_only():
    zz = integers()
    assert integer_ideal(zz, -4) is integer_ideal(zz, 4)
    with pytest.raises(CrossRingError, match=r"integer ideal lives in another ring \(ZZ\) than Z6"):
        integer_ideal(Z6, 2)
