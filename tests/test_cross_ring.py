"""Rings are told apart by identity: every cross-ring guard refuses an operand
of a twin ring, one that has the key of an interned ring but is another object,
and a ring constructed from a twin is built on that twin.  The same guard
refuses an operand of the right ring that is not of the kind the call takes."""

import re

import pytest

from deltan import (DELTA_N_METHODS, CrossRingError, Element, Expansion, Ideal, Module,
                    MultiplicativeSet, apply_expansion, arithmetic, classify_element, colon,
                    compose_expansions, delta0, delta1, delta_n_spectrum,
                    derive_product_expansion, delta_n_witness, delta_nilpotents, delta_plus,
                    delta_star, enumerate_ideals, enumerate_submodules,
                    ideal_combine, ideal_contains, ideal_from_generators, idealization,
                    image_ideal, integer_ideal, integers, is_delta_gamma_homomorphism,
                    is_delta_n_ideal, is_delta_primary, localize, make_homomorphism,
                    make_module, modular, mult_closure, mult_set, poly_quotient, preimage_ideal,
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
    "mult_set": lambda: mult_set(Z6, [TWIN.el(5)]),
    "mult_closure": lambda: mult_closure(Z6, [TWIN.el(5)]),
    **{f"is_delta_n_ideal {method}":
       (lambda method=method: is_delta_n_ideal(IT, delta0(Z6), method=method))
       for method in DELTA_N_METHODS},
}


# the same guards, each with the int 3 as its operand, which lives in no ring;
# the calls that take payloads (ideal_from_generators, mult_set, mult_closure),
# of which 3 is one, are left out
NO_RING = {
    "element +": lambda: Z6.el(1) + 3,
    "element -": lambda: Z6.el(1) - 3,
    "element *": lambda: Z6.el(1) * 3,
    "arithmetic": lambda: arithmetic(Z6, "add", 3, Z6.el(1)),
    "classify_element": lambda: classify_element(Z6, 3),
    "ideal_contains": lambda: ideal_contains(I6, 3),
    "issubset": lambda: I6.issubset(3),
    "ideal_combine": lambda: ideal_combine("sum", I6, 3),
    "colon": lambda: colon(I6, 3),
    "special_sets": lambda: special_sets(Z6, 3),
    "delta_plus": lambda: delta_plus(Z6, 3),
    "delta_star": lambda: delta_star(Z6, 3),
    "compose_expansions": lambda: compose_expansions(delta1(Z6), 3),
    "apply_expansion": lambda: apply_expansion(delta0(Z6), 3),
    "is_delta_primary": lambda: is_delta_primary(I6, 3),
    "delta_primary_witness": lambda: delta_primary_witness(I6, 3),
    "delta_n_witness": lambda: delta_n_witness(I6, 3),
    "delta_n_spectrum": lambda: delta_n_spectrum(Z6, 3),
    "delta_nilpotents": lambda: delta_nilpotents(Z6, 3),
    "make_module": lambda: make_module(Z6, ("quotient", 3)),
    "Homomorphism.apply": lambda: IDENTITY(3),
    "image_ideal": lambda: image_ideal(IDENTITY, 3),
    "preimage_ideal": lambda: preimage_ideal(IDENTITY, 3),
    "is_delta_gamma_homomorphism source":
        lambda: is_delta_gamma_homomorphism(IDENTITY, 3, delta0(Z6)),
    "is_delta_gamma_homomorphism target":
        lambda: is_delta_gamma_homomorphism(IDENTITY, delta0(Z6), 3),
    "quotient_ring": lambda: quotient_ring(Z6, 3),
    "homogeneous_ideal ideal":
        lambda: IZR.homogeneous_ideal(3, enumerate_submodules(IZR.module)[-1]),
    "homogeneous_ideal submodule": lambda: IZR.homogeneous_ideal(I6, 3),
    "split": lambda: IZR.split(3),
    "idealization": lambda: idealization(Z6, 3),
    "extend": lambda: LOC.extend(3),
    "contract": lambda: LOC.contract(3),
    "localize": lambda: localize(Z6, 3),
    "is_delta_n_ideal": lambda: is_delta_n_ideal(I6, 3),
}


# one object of each deltan kind that lives in a given ring
KINDS = {Element: lambda ring: ring.one,
         Ideal: lambda ring: enumerate_ideals(ring)[0],
         Expansion: delta0,
         Module: lambda ring: make_module(ring, "regular"),
         MultiplicativeSet: lambda ring: mult_closure(ring, [ring.one])}


# the same guards as calls of their one operand x, with the ring x must live in
# and the kind it must be; the submodule guard is left out, as no other kind
# lives in a module, and so are the calls that take payloads
WRONG_KIND = {
    "element +": (lambda x: Z6.el(1) + x, Z6, Element),
    "element -": (lambda x: Z6.el(1) - x, Z6, Element),
    "element *": (lambda x: Z6.el(1) * x, Z6, Element),
    "arithmetic": (lambda x: arithmetic(Z6, "add", x, Z6.el(1)), Z6, Element),
    "classify_element": (lambda x: classify_element(Z6, x), Z6, Element),
    "ideal_contains": (lambda x: ideal_contains(I6, x), Z6, Element),
    "issubset": (lambda x: I6.issubset(x), Z6, Ideal),
    "ideal_combine": (lambda x: ideal_combine("sum", I6, x), Z6, Ideal),
    "colon": (lambda x: colon(I6, x), Z6, (Ideal, Element)),
    "special_sets": (lambda x: special_sets(Z6, x), Z6, Ideal),
    "delta_plus": (lambda x: delta_plus(Z6, x), Z6, Ideal),
    "delta_star": (lambda x: delta_star(Z6, x), Z6, Ideal),
    "compose_expansions": (lambda x: compose_expansions(delta1(Z6), x), Z6, Expansion),
    "apply_expansion": (lambda x: apply_expansion(delta0(Z6), x), Z6, Ideal),
    "is_delta_primary": (lambda x: is_delta_primary(I6, x), Z6, Expansion),
    "delta_primary_witness": (lambda x: delta_primary_witness(I6, x), Z6, Expansion),
    "delta_n_witness": (lambda x: delta_n_witness(I6, x), Z6, Expansion),
    "delta_n_spectrum": (lambda x: delta_n_spectrum(Z6, x), Z6, Expansion),
    "delta_nilpotents": (lambda x: delta_nilpotents(Z6, x), Z6, Expansion),
    "make_module": (lambda x: make_module(Z6, ("quotient", x)), Z6, Ideal),
    "Homomorphism.apply": (lambda x: IDENTITY(x), Z6, Element),
    "image_ideal": (lambda x: image_ideal(IDENTITY, x), Z6, Ideal),
    "preimage_ideal": (lambda x: preimage_ideal(IDENTITY, x), Z6, Ideal),
    "is_delta_gamma_homomorphism source":
        (lambda x: is_delta_gamma_homomorphism(IDENTITY, x, delta0(Z6)), Z6, Expansion),
    "is_delta_gamma_homomorphism target":
        (lambda x: is_delta_gamma_homomorphism(IDENTITY, delta0(Z6), x), Z6, Expansion),
    "quotient_ring": (lambda x: quotient_ring(Z6, x), Z6, Ideal),
    "homogeneous_ideal ideal": (lambda x: IZR.homogeneous_ideal(
        x, enumerate_submodules(IZR.module)[-1]), Z6, Ideal),
    "split": (lambda x: IZR.split(x), IZR.ring, Ideal),
    "idealization": (lambda x: idealization(Z6, x), Z6, Module),
    "extend": (lambda x: LOC.extend(x), Z6, Ideal),
    "contract": (lambda x: LOC.contract(x), LOC.ring, Ideal),
    "localize": (lambda x: localize(Z6, x), Z6, MultiplicativeSet),
    "is_delta_n_ideal expansion": (lambda x: is_delta_n_ideal(I6, x), Z6, Expansion),
    **{f"is_delta_n_ideal {method}":
       (lambda x, method=method: is_delta_n_ideal(x, delta0(Z6), method=method), Z6, Ideal)
       for method in DELTA_N_METHODS},
}


# the first operand of a two-operand call, the one whose ring the guard reads,
# as a call of that operand x and the kind it must be
FIRST_OPERAND = {
    "colon": (lambda x: colon(x, I6), Ideal),
    "ideal_combine": (lambda x: ideal_combine("sum", x, I6), Ideal),
    "apply_expansion": (lambda x: apply_expansion(x, I6), Expansion),
    "is_delta_primary": (lambda x: is_delta_primary(x, delta0(Z6)), Ideal),
    "delta_primary_witness": (lambda x: delta_primary_witness(x, delta0(Z6)), Ideal),
    "delta_n_witness": (lambda x: delta_n_witness(x, delta0(Z6)), Ideal),
    "is_delta_n_ideal": (lambda x: is_delta_n_ideal(x, delta0(Z6)), Ideal),
}


def _other_kinds(takes):
    return [kind for kind in KINDS if not issubclass(kind, takes)]


def _refusal(takes, kind):
    """The end of the refusal of an operand of ``kind`` where ``takes`` is taken."""
    names = " or ".join(k.__name__ for k in (takes if isinstance(takes, tuple) else (takes,)))
    return re.escape(f" must be {names}, not {kind.__name__}") + "$"


@pytest.mark.parametrize("call", GUARDED.values(), ids=GUARDED.keys())
def test_every_guard_refuses_an_operand_of_a_twin_ring(call):
    with pytest.raises(CrossRingError, match=r"lives in another ring \((.+)\) than \1$"):
        call()


@pytest.mark.parametrize("call", NO_RING.values(), ids=NO_RING.keys())
def test_every_guard_refuses_an_operand_that_is_no_deltan_object(call):
    with pytest.raises(CrossRingError, match=r"lives in another ring \(no ring\) than "):
        call()


@pytest.mark.parametrize("name, kind", [(name, kind) for name, (_, _, takes) in WRONG_KIND.items()
                                        for kind in _other_kinds(takes)],
                         ids=lambda v: getattr(v, "__name__", v))
def test_every_guard_refuses_an_operand_of_the_right_ring_and_another_kind(name, kind):
    call, ring, takes = WRONG_KIND[name]
    with pytest.raises(CrossRingError, match=_refusal(takes, kind)):
        call(KINDS[kind](ring))


@pytest.mark.parametrize("name, kind", [(name, kind) for name, (_, takes) in FIRST_OPERAND.items()
                                        for kind in [int, *_other_kinds(takes)]],
                         ids=lambda v: getattr(v, "__name__", v))
def test_every_first_operand_is_refused_by_kind_before_its_ring_is_read(name, kind):
    call, takes = FIRST_OPERAND[name]
    with pytest.raises(CrossRingError, match=_refusal(takes, kind)):
        call(3 if kind is int else KINDS[kind](Z6))


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
    assert ring is not product(z4, modular(2)) and ring.key == "Z4 x Z2"


def test_integer_ideal_lives_in_the_integers_only():
    zz = integers()
    assert integer_ideal(zz, -4) is integer_ideal(zz, 4)
    with pytest.raises(CrossRingError, match=r"integer ideal lives in another ring \(ZZ\) than Z6"):
        integer_ideal(Z6, 2)
