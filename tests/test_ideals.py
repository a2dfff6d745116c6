"""Ideal arithmetic, lattices, classification, and the independent oracles."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltan import (CrossRingError, InfiniteRingError, InvalidSpecError, classify_ideal,
                    colon, enumerate_ideals, ideal_combine, ideal_contains,
                    ideal_from_generators, integer_ideal, integers, modular,
                    nilradical, poly_quotient, product, radical, special_sets,
                    unit_ideal, zero_ideal)
from deltan.constructions import enumerate_submodules, idealization, make_module


# ---------------------------------------------------------------------------
# oracles (independent of the bitmask lattice machinery)
# ---------------------------------------------------------------------------

def closure_oracle(ring, gens):
    """Work-list saturation over the public element API."""
    elems = {ring.zero} | set(gens)
    changed = True
    while changed:
        changed = False
        snapshot = list(elems)
        for a in snapshot:
            for b in snapshot:
                if a + b not in elems:
                    elems.add(a + b)
                    changed = True
            for r in ring.list_elements():
                if r * a not in elems:
                    elems.add(r * a)
                    changed = True
    return {e.idx for e in elems}


def rad_int_oracle(n):
    """Product of distinct primes via trial division."""
    if n in (0, 1):
        return n
    out, p = 1, 2
    while n > 1:
        if n % p == 0:
            out *= p
            while n % p == 0:
                n //= p
        p += 1
    return out


# ---------------------------------------------------------------------------
# generators and membership
# ---------------------------------------------------------------------------

def test_generators_z12():
    z12 = modular(12)
    I = ideal_from_generators(z12, [z12.el(4), z12.el(6)])
    assert {e.idx for e in I.elements()} == {0, 2, 4, 6, 8, 10}
    assert {e.idx for e in I.elements()} == closure_oracle(z12, [z12.el(4), z12.el(6)])


def test_generators_poly():
    ring = poly_quotient(4, [0, 0, 0, 1])
    gens = [ring.from_payload((2, 0, 0)), ring.from_payload((0, 1, 0))]
    I = ideal_from_generators(ring, gens)
    assert I.size == 32
    assert {e.idx for e in I.elements()} == closure_oracle(ring, gens)
    # all elements with even constant term
    assert all(e.payload[0] % 2 == 0 for e in I.elements())


def test_empty_generators_give_zero_ideal():
    z6 = modular(6)
    I = ideal_from_generators(z6, [])
    assert I.is_zero and I.size == 1 and repr(I) == "(0)"


def test_contains():
    z12 = modular(12)
    two = ideal_from_generators(z12, [z12.el(2)])
    assert ideal_contains(two, z12.el(8))
    zz = integers()
    assert not integer_ideal(zz, 12).contains(zz.el(8))
    assert zero_ideal(zz).contains(zz.el(0))


def test_cross_ring_membership_rejected():
    z12 = modular(12)
    with pytest.raises(CrossRingError):
        zero_ideal(z12).contains(modular(6).el(0))


# ---------------------------------------------------------------------------
# combine / colon / radical
# ---------------------------------------------------------------------------

def test_integer_combine():
    zz = integers()
    four, six = integer_ideal(zz, 4), integer_ideal(zz, 6)
    assert ideal_combine("sum", four, six).n == 2
    assert ideal_combine("intersect", four, six).n == 12
    assert ideal_combine("product", four, six).n == 24


@settings(max_examples=60)
@given(st.integers(0, 400), st.integers(0, 400), st.integers(-300, 300))
def test_integer_combine_membership(a, b, v):
    zz = integers()
    A, B = integer_ideal(zz, a), integer_ideal(zz, b)
    e = zz.el(v)
    s = ideal_combine("sum", A, B)
    meet = ideal_combine("intersect", A, B)
    if A.contains(e) or B.contains(e):
        assert s.contains(e)
    assert meet.contains(e) == (A.contains(e) and B.contains(e))
    assert ideal_combine("product", A, B).issubset(meet)


def test_finite_intersect():
    z12 = modular(12)
    two = ideal_from_generators(z12, [z12.el(2)])
    three = ideal_from_generators(z12, [z12.el(3)])
    assert {e.idx for e in ideal_combine("intersect", two, three).elements()} == {0, 6}


def test_sum_with_zero_is_identity():
    z12 = modular(12)
    for I in enumerate_ideals(z12):
        assert ideal_combine("sum", I, zero_ideal(z12)) == I


def test_colon_examples():
    z8 = modular(8)
    four = ideal_from_generators(z8, [z8.el(4)])
    assert {e.idx for e in colon(four, z8.el(2)).elements()} == {0, 2, 4, 6}
    for I in enumerate_ideals(z8):
        assert colon(I, z8.one) == I
    zz = integers()
    assert colon(integer_ideal(zz, 12), zz.el(8)).n == 3
    # bounded membership cross-check for (12Z : 8)
    members = {r for r in range(-60, 61) if (r * 8) % 12 == 0}
    assert members == {r for r in range(-60, 61) if r % 3 == 0}


def test_colon_by_ideal():
    z8 = modular(8)
    four = ideal_from_generators(z8, [z8.el(4)])
    two = ideal_from_generators(z8, [z8.el(2)])
    got = colon(four, two)
    expected = {r.idx for r in z8.list_elements()
                if all((r * j).idx in {0, 4} for j in two.elements())}
    assert {e.idx for e in got.elements()} == expected


def test_radical_examples():
    z8 = modular(8)
    assert {e.idx for e in radical(zero_ideal(z8)).elements()} == {0, 2, 4, 6}
    zz = integers()
    assert radical(integer_ideal(zz, 12)).n == rad_int_oracle(12) == 6
    f7 = modular(7)
    assert radical(zero_ideal(f7)).is_zero
    assert radical(unit_ideal(z8)) == unit_ideal(z8)


@settings(max_examples=60)
@given(st.integers(0, 5000))
def test_radical_int_matches_oracle(n):
    zz = integers()
    assert radical(integer_ideal(zz, n)).n == rad_int_oracle(n)


def test_radical_lift_z_n():
    # sqrt(dZ_n) computed elementwise = the ideal generated by rad(d), n <= 64
    for n in range(2, 65):
        ring = modular(n)
        for d in range(1, n + 1):
            if n % d:
                continue
            I = ideal_from_generators(ring, [ring.el(d % n)])
            expected = ideal_from_generators(ring, [ring.el(rad_int_oracle(d) % n)])
            assert radical(I) == expected, (n, d)


# ---------------------------------------------------------------------------
# lattice enumeration and classification
# ---------------------------------------------------------------------------

def test_enumerate_z12():
    sizes = [I.size for I in enumerate_ideals(modular(12))]
    assert sizes == [1, 2, 3, 4, 6, 12]


def test_enumerate_z8_and_field():
    assert len(enumerate_ideals(modular(8))) == 4
    assert len(enumerate_ideals(modular(7))) == 2


def test_enumeration_is_infinite_backend_error():
    with pytest.raises(InfiniteRingError):
        enumerate_ideals(integers())


def test_classify_z12():
    z12 = modular(12)
    three = ideal_from_generators(z12, [z12.el(3)])
    cls = classify_ideal(three)
    assert cls.is_prime and cls.is_maximal and cls.is_primary
    six = ideal_from_generators(z12, [z12.el(6)])
    assert not classify_ideal(six).is_prime


def test_classify_z8_primary_not_prime():
    z8 = modular(8)
    four = ideal_from_generators(z8, [z8.el(4)])
    cls = classify_ideal(four)
    assert cls.is_primary and not cls.is_prime


def test_classify_integer_ideals():
    zz = integers()
    assert classify_ideal(integer_ideal(zz, 7)).is_prime
    assert classify_ideal(integer_ideal(zz, 8)).is_primary
    assert not classify_ideal(integer_ideal(zz, 12)).is_primary
    assert classify_ideal(zero_ideal(zz)).is_superfluous
    assert not classify_ideal(integer_ideal(zz, 7)).is_superfluous
    assert not classify_ideal(unit_ideal(zz)).is_proper


def test_maximal_implies_prime_implies_primary():
    for ring in (modular(12), modular(16), product(modular(2), modular(4)),
                 poly_quotient(4, [0, 0, 1])):
        for I in enumerate_ideals(ring):
            cls = classify_ideal(I)
            if cls.is_maximal:
                assert cls.is_prime
            if cls.is_prime:
                assert cls.is_primary


def test_prime_iff_quotient_domain():
    from deltan import classify_ring, quotient_ring
    for ring in (modular(12), modular(8), product(modular(2), modular(2))):
        for I in enumerate_ideals(ring):
            if not I.is_proper:
                continue
            q = quotient_ring(ring, I).ring
            assert classify_ideal(I).is_prime == classify_ring(q).is_integral_domain


def test_special_sets_z12():
    z12 = modular(12)
    rec = special_sets(z12)
    assert {e.idx for e in rec.nilradical.elements()} == {0, 6}
    assert {e.idx for e in rec.jacobson.elements()} == {0, 6}


def test_special_sets_z6_z_i():
    z6 = modular(6)
    rec = special_sets(z6, zero_ideal(z6))
    assert {e.idx for e in rec.z_i} == {0, 2, 3, 4}


def test_special_sets_field():
    f5 = modular(5)
    rec = special_sets(f5)
    assert rec.nilradical.is_zero
    assert {e.idx for e in rec.zero_divisors} == {0}
    assert {e.idx for e in rec.z_i} == {0}


def test_special_sets_integers():
    zz = integers()
    rec = special_sets(zz, integer_ideal(zz, 6))
    assert rec.nilradical.n == 0 and rec.jacobson.n == 0
    assert zz.el(4) in rec.z_i and zz.el(5) not in rec.z_i
    assert zz.el(3) in rec.z_i
    assert zz.el(7) in rec.regular_elements and zz.el(0) not in rec.regular_elements
    assert special_sets(zz, integer_ideal(zz, 1)).z_i == frozenset()  # no s outside ZZ


# ---------------------------------------------------------------------------
# order-theoretic invariants on a sample of rings
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("ring_factory", [
    lambda: modular(12), lambda: modular(16),
    lambda: poly_quotient(2, [0, 0, 0, 1]),
    lambda: product(modular(2), modular(4)),
])
def test_lattice_invariants(ring_factory):
    ring = ring_factory()
    lattice = enumerate_ideals(ring)
    for I in lattice:
        assert radical(radical(I)) == radical(I)
        for x in ring.list_elements():
            assert I.issubset(colon(I, x))
        for J in lattice:
            meet = ideal_combine("intersect", I, J)
            assert ideal_combine("product", I, J).issubset(meet)
            assert meet.issubset(I)
            assert I.issubset(ideal_combine("sum", I, J))
            assert radical(meet) == ideal_combine("intersect", radical(I), radical(J))


def test_z_i_mask_matches_element_oracle():
    from deltan.ideals import _bits, _z_i_mask
    rings = [modular(n) for n in range(2, 17)] + [
        poly_quotient(2, [0, 0, 1]), poly_quotient(2, [0, 0, 0, 1]),
        poly_quotient(4, [0, 0, 1]), product(modular(2), modular(4))]
    for ring in rings:
        elems = ring.list_elements()
        for I in enumerate_ideals(ring):
            outside = [s for s in elems if not I.contains(s)]
            oracle = {r.idx for r in elems if any(I.contains(r * s) for s in outside)}
            assert set(_bits(_z_i_mask(ring, I.mask))) == oracle
            assert {e.idx for e in special_sets(ring, I).z_i} == oracle


def test_lattice_generators_are_built_on_first_repr(monkeypatch):
    from deltan import ideals
    from deltan.rings import _build_modular
    calls = []
    greedy = ideals._greedy_gens
    monkeypatch.setattr(ideals, "_greedy_gens",
                        lambda ring, mask: calls.append(mask) or greedy(ring, mask))
    ring = _build_modular(12)
    lattice = enumerate_ideals(ring)
    assert calls == []
    assert repr(lattice[2]) == "(4)" and repr(lattice[2]) == "(4)"
    assert calls == [lattice[2].mask]


# ---------------------------------------------------------------------------
# the mask kernels against plain references
# ---------------------------------------------------------------------------

def _index_set(ring, mask):
    return {i for i in range(ring.size) if mask >> i & 1}


def pair_sum_reference(ring, a, b):
    """{a + b} over every pair, as an index set."""
    return {ring.add[i][j] for i in a for j in b}


def product_reference(ring, a, b):
    """The pairwise products, closed under addition by a pair-loop fixpoint."""
    cur = {ring.zero_idx} | {ring.mul[i][j] for i in a for j in b}
    while True:
        nxt = {ring.add[x][y] for x in cur for y in cur}
        if nxt == cur:
            return cur
        cur = nxt


def radical_reference(ring, a):
    """r with some power in I, scanning r, r^2, ... until a power repeats."""
    out = set()
    for r in range(ring.size):
        power, seen = r, set()
        while power not in seen:
            if power in a:
                out.add(r)
                break
            seen.add(power)
            power = ring.mul[power][r]
    return out


def _corpus_rings():
    from deltan.verifier import builtin_corpus
    return [entry.ring for entry in builtin_corpus().entries]


def _boolean_and_idealization_rings():
    """Z2^k for k <= 6, whose ideals are all principal and whose one unit is 1,
    and Z4 (+) Z4, a local ring whose principal ideals are not a chain."""
    rings = [modular(2)]
    for _ in range(5):
        rings.append(product(rings[-1], modular(2)))
    z4 = modular(4)
    return rings + [idealization(z4, make_module(z4, "regular")).ring]


def test_sum_and_product_kernels_match_the_pair_loop_on_the_corpus():
    from deltan.ideals import _product_mask, _sum_mask
    pairs = 0
    for ring in _corpus_rings():
        sets = [(I.mask, _index_set(ring, I.mask)) for I in enumerate_ideals(ring)]
        for k, (a_mask, a) in enumerate(sets):
            for b_mask, b in sets[k:]:
                assert _index_set(ring, _sum_mask(ring, a_mask, b_mask)) == \
                    pair_sum_reference(ring, a, b)
                assert _index_set(ring, _product_mask(ring, a_mask, b_mask)) == \
                    product_reference(ring, a, b)
                pairs += 1
    assert pairs == 588


def test_radical_kernel_matches_the_power_scan():
    from deltan.ideals import _radical_mask
    rings = _corpus_rings() + [modular(1024), poly_quotient(2, [0] * 9 + [1])]
    for ring in rings + _boolean_and_idealization_rings():
        for I in enumerate_ideals(ring):
            assert _index_set(ring, _radical_mask(ring, I.mask)) == \
                radical_reference(ring, _index_set(ring, I.mask))


def test_radical_needs_every_squaring():
    # x has nilpotency index 9 in Z2[x]/(x^9), and 2 has index 10 in Z1024:
    # r^(2^k) with 2^k < the index misses them in the nilradical
    ring = poly_quotient(2, [0] * 9 + [1])
    x = ring.from_payload((0, 1) + (0,) * 7)
    assert (x ** 8).idx != ring.zero_idx and (x ** 9).idx == ring.zero_idx
    assert nilradical(ring).contains(x)
    z1024 = modular(1024)
    assert (z1024.el(2) ** 9).idx != 0
    assert nilradical(z1024).contains(z1024.el(2))


def test_lattice_holds_every_principal_ideal():
    # units generate the whole ring, so only non-unit principals are enumerated
    for ring in _corpus_rings() + [product(modular(8), modular(9))]:
        masks = {I.mask for I in enumerate_ideals(ring)}
        for g in ring.list_elements():
            principal = {ring.mul[g.idx][r] for r in range(ring.size)}
            assert sum(1 << i for i in principal) in masks


def test_bits_and_mask_of_are_inverse():
    from deltan.ideals import _bits, _mask_of
    assert _bits(0) == [] and _mask_of(5, []) == 0
    for indices in ([0], [3], [1, 4, 70], list(range(0, 300, 7)), [299]):
        mask = sum(1 << i for i in indices)
        assert _bits(mask) == indices
        assert _mask_of(300, indices) == mask
        assert _mask_of(300, indices + indices[::-1]) == mask


# ---------------------------------------------------------------------------
# U(I) and Z_I on principal columns, against the full-column meet
# ---------------------------------------------------------------------------

def full_column_meet(ring, imask, xmask):
    """{r : rs in I for some s outside X}, scanning every column s."""
    members = _index_set(ring, imask)
    outside = [s for s in range(ring.size) if not xmask >> s & 1]
    return {r for r in range(ring.size)
            if any(ring.mul[r][s] in members for s in outside)}


def _small_ladder_rings():
    return [modular(64), poly_quotient(2, [0] * 6 + [1]), product(modular(8), modular(8)),
            modular(128), poly_quotient(2, [0] * 7 + [1]), product(modular(11), modular(13)),
            poly_quotient(5, [0, 0, 0, 1])]


def test_u_and_z_i_masks_match_the_full_column_meet():
    from deltan.ideals import _z_i_mask
    from deltan.predicates import _nil_mask, _u_mask
    from deltan.verifier import catalog
    checked = 0
    for ring in _corpus_rings() + _small_ladder_rings() + _boolean_and_idealization_rings():
        masks = {I.mask for I in enumerate_ideals(ring)}
        # every delta(I) is an ideal, R included, so the lattice holds them all
        assert ring.full_mask in masks
        assert all(mask in masks for delta in catalog(ring) for mask in delta.table.values())
        nil = _nil_mask(ring)
        for mask in masks:
            assert _index_set(ring, _z_i_mask(ring, mask)) == full_column_meet(ring, mask, mask)
            assert _index_set(ring, _u_mask(ring, mask)) == full_column_meet(ring, mask, nil)
            checked += 1
    assert checked == 343


def test_one_column_per_minimal_principal_ideal_outside_the_ideal():
    from deltan.ideals import _columns_outside
    rings = _corpus_rings() + [product(modular(8), modular(9))]
    for ring in rings + _boolean_and_idealization_rings():
        one = ring.one_idx
        principal = [frozenset(ring.mul[g]) for g in range(ring.size)]
        for X in enumerate_ideals(ring):
            members = _index_set(ring, X.mask)
            # each non-unit principal ideal not inside X, by its least generator
            outside = {}
            for g in range(ring.size):
                if one not in principal[g] and not principal[g] <= members:
                    outside.setdefault(principal[g], g)
            minimal = [g for P, g in outside.items() if not any(Q < P for Q in outside)]
            # 1 stands for the units only when no non-unit one lies outside a proper X
            expected = minimal or ([one] if X.is_proper else [])
            cols = _columns_outside(ring, X.mask)
            assert sorted(cols) == sorted(expected), (ring.key, X)
            sizes = [len(principal[a]) for a in cols]
            assert sizes == sorted(sizes)


def test_the_minimal_columns_of_z2_8_at_0_and_of_z64_x_z64_at_the_nilradical():
    from deltan.ideals import _columns_outside, _nil_mask
    ring = modular(2)
    for _ in range(7):
        ring = product(ring, modular(2))
    # the minimal nonzero ideals of Z2^8 are its 8 atoms, not its 255 nonzero ideals
    cols = _columns_outside(ring, 1 << ring.zero_idx)
    assert len(cols) == 8 and all(len(set(ring.mul[a])) == 2 for a in cols)
    big = product(modular(64), modular(64))
    # each principal ideal outside sqrt(0) = (2) x (2) holds R(1, 0) or R(0, 1)
    cols = _columns_outside(big, _nil_mask(big))
    assert sorted(big.element_repr(a) for a in cols) == ["(0,1)", "(1,0)"]


def test_zero_divisors_are_z_of_zero():
    for ring in _corpus_rings() + [modular(128), product(modular(11), modular(13))]:
        n, zero = ring.size, ring.zero_idx
        zdiv = {r for r in range(n)
                if any(ring.mul[r][s] == zero for s in range(n) if s != zero)}
        rec = special_sets(ring)
        assert {e.idx for e in rec.zero_divisors} == zdiv
        assert {e.idx for e in rec.regular_elements} == set(range(n)) - zdiv


# ---------------------------------------------------------------------------
# the sum closure on lattices larger than the corpus's, and integer factoring
# ---------------------------------------------------------------------------

def _divisor_count(n):
    return sum(1 for d in range(1, n + 1) if n % d == 0)


def _is_ideal(ring, mask):
    members = [i for i in range(ring.size) if mask >> i & 1]
    return (mask >> ring.zero_idx & 1
            and all(mask >> ring.add[a][b] & 1 for a in members for b in members)
            and all(mask >> ring.mul[r][a] & 1 for r in range(ring.size) for a in members))


def _subspace_count(q, n):
    """The number of subspaces of F_q^n, a sum of Gaussian binomials."""
    total = 0
    for k in range(n + 1):
        num = den = 1
        for i in range(k):
            num *= q ** n - q ** i
            den *= q ** k - q ** i
        total += num // den
    return total


def _z2_vector_module(k):
    spec = "regular"
    for _ in range(k - 1):
        spec = ("product", "regular", spec)
    return make_module(modular(2), spec)


def _z2_idealization(k):
    # the ideals of Z2(+)F2^k are the 0(+)N for the subspaces N of F2^k, and
    # the whole ring (each (1, m) is a unit); only 0(+)N with dim N <= 1 and
    # the whole ring are principal, so the closure builds the rest
    return idealization(modular(2), _z2_vector_module(k)).ring


def _product_of(*factors):
    ring = factors[-1]
    for factor in reversed(factors[:-1]):
        ring = product(factor, ring)
    return ring


@pytest.mark.parametrize("build, expected", [
    (lambda: _product_of(*[modular(2)] * 6), 2 ** 6),
    (lambda: _product_of(*[modular(6)] * 3), 4 ** 3),
    (lambda: _product_of(modular(12), modular(30)), 6 * 8),
    (lambda: _z2_idealization(4), _subspace_count(2, 4) + 1),
    (lambda: _product_of(_z2_idealization(3), modular(2), modular(2)),
     (_subspace_count(2, 3) + 1) * 2 * 2),
], ids=["Z2^6", "Z6^3", "Z12xZ30", "Z2(+)F2^4", "Z2(+)F2^3xZ2xZ2"])
def test_lattice_closure_counts_every_ideal_of_a_large_lattice(build, expected):
    # an ideal of R1 x R2 is I1 x I2, so a product's count is the product of
    # its factors' counts, and Z_n has one ideal per divisor of n; that many
    # distinct ideals are the whole lattice
    ring = build()
    masks = [I.mask for I in enumerate_ideals(ring)]
    assert len(set(masks)) == len(masks) == expected > 40
    assert all(_is_ideal(ring, m) for m in masks)
    assert masks == sorted(masks, key=lambda m: (m.bit_count(), m))


def test_submodule_closure_counts_every_subspace():
    for k in range(1, 5):
        assert len(enumerate_submodules(_z2_vector_module(k))) == _subspace_count(2, k)
    assert _subspace_count(2, 4) == 67


def test_lattice_of_z_n_has_one_ideal_per_divisor():
    for n in range(2, 121):
        assert len(enumerate_ideals(modular(n))) == _divisor_count(n), n


def test_integer_factoring_matches_a_divisor_scan():
    from deltan.ideals import (_is_prime_int, _is_prime_power, _prime_factors,
                               _radical_of_int)
    primes = [p for p in range(2, 401) if all(p % d for d in range(2, p))]
    assert _radical_of_int(0) == 0 and _radical_of_int(1) == 1
    for n in range(401):
        factors = [p for p in primes if n and n % p == 0]
        radical_n = 1
        for p in factors:
            radical_n *= p
        if n:
            assert _prime_factors(n) == factors, n
            assert _radical_of_int(n) == radical_n, n
        assert _is_prime_int(n) == (n in primes), n
        assert _is_prime_power(n) == (n >= 2 and len(factors) == 1), n


def test_trial_division_factors_below_its_bound_and_refuses_above_it():
    """The primes below 10^6 leave a part of n that is 1 or a prime when it is
    below 10^12; an n that leaves a larger one makes no ideal of ZZ."""
    from deltan.ideals import _prime_factors, _trial_primes
    zz = integers()
    sieve = bytearray([1]) * 10 ** 6  # the sieve of Eratosthenes, whole, as the oracle
    sieve[:2] = b"\0\0"
    for p in range(2, 1000):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, 10 ** 6, p)))
    assert list(_trial_primes()) == [p for p in range(10 ** 6) if sieve[p]]
    assert _prime_factors(999999999989) == [999999999989]
    assert _prime_factors(2 * 999999999989) == [2, 999999999989]
    assert _prime_factors(10 ** 12) == [2, 5]
    assert _prime_factors(2 ** 4000) == [2] and _prime_factors(10 ** 4299) == [2, 5]
    assert classify_ideal(integer_ideal(zz, 999999999989)).is_maximal
    assert ideal_from_generators(zz, [2 * 999999999989]).n == 2 * 999999999989
    # a prime above the bound, and a product of two primes above 10^6
    for n in (1000000000039, 1000003 * 1000033):
        with pytest.raises(InvalidSpecError, match=f"cannot factor {n}: trial division"):
            integer_ideal(zz, n)
        with pytest.raises(InvalidSpecError, match=f"cannot factor {n}"):
            ideal_from_generators(zz, [-n])
    with pytest.raises(InvalidSpecError, match="cannot factor a 4300-digit integer"):
        integer_ideal(zz, 10 ** 4299 + 1)
    # the primes above 10^6 that divide are those the literals left, held by ZZ;
    # no integer past the primes below 10^6 is tried
    for q in (1000003, 1000033):
        integer_ideal(zz, q)
    assert _prime_factors(1000003 ** 5 * 1000033) == [1000003, 1000033]
    for n in (1000000000039, 1000037 * 1000039):  # no literal left these primes
        with pytest.raises(InvalidSpecError, match=f"cannot factor {n}: trial division"):
            _prime_factors(n)


# the literal (P) reads every prime below 10^6; (2P) and (3P) then divide out the
# held P and read only the primes up to sqrt(3); (Q) reads every prime again
SIEVE_ONCE = """
import time
from deltan import ideals, integer_ideal, integers
sieved, sieve = [], ideals._sieved
ideals._sieved = lambda lo, hi, primes: sieved.append(lo) or sieve(lo, hi, primes)
zz, P, Q = integers(), 999999999989, 999999999959
for n in (P, 2 * P, 3 * P, Q):
    start = time.perf_counter()
    integer_ideal(zz, n)
    print(time.perf_counter() - start, *sieved)
"""


def test_the_primes_below_10_6_are_sieved_once_a_process():
    """In a fresh interpreter, which has sieved nothing yet: each block [lo, 2 lo)
    from 1000 up is sieved once, by the first literal, though a later one reads
    them all again, and two literals of the held P take under 1 ms each."""
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", SIEVE_ONCE], cwd=root,
                          env=dict(os.environ, PYTHONPATH=str(root / "src")),
                          capture_output=True, text=True, check=True, timeout=60)
    blocks = [str(1000 << k) for k in range(10)]  # 1000 * 2^9 < 10^6 <= 1000 * 2^10
    lines = [line.split() for line in proc.stdout.splitlines()]
    assert [line[1:] for line in lines] == [blocks] * 4
    assert all(float(line[0]) < 0.001 for line in lines[1:3]), lines


def test_a_held_prime_divided_out_first_admits_what_trial_division_admits():
    """A literal that a held prime Q divides is read as n / Q, and is admitted iff
    trial division by every prime below 10^6 leaves less than 10^12 of n."""
    from deltan.ideals import _held_primes, _trial_division, _trial_primes
    zz, Q = integers(), 1000000007
    integer_ideal(zz, Q)
    admitted = (7 * Q, 997 ** 3 * Q, 2 ** 40 * Q)
    for n in admitted + (Q * Q, 7 * Q * Q, 1000003 * Q, 1000000009 * Q):
        assert (_trial_division(n, _trial_primes())[1] < 10 ** 12) == (n in admitted), n
        if n in admitted:
            assert integer_ideal(zz, n).n == n
        else:
            with pytest.raises(InvalidSpecError, match=f"cannot factor {n}: trial division"):
                integer_ideal(zz, n)
    assert Q in _held_primes(zz) and not _held_primes(zz) & {7 * Q, 1000000009}


def test_a_zz_ideal_built_from_accepted_ones_is_accepted():
    """The primes of a product, lcm, gcd, colon or radical of nZ and mZ divide
    n or m, so the result is factored from theirs, though trial division
    would leave a part above 10^12."""
    from deltan.ideals import _prime_factors
    zz = integers()
    p, q = 999999999989, 999999999959
    I, J = integer_ideal(zz, p), integer_ideal(zz, q)
    square, pq = ideal_combine("product", I, I), ideal_combine("intersect", I, J)
    assert (square.n, pq.n) == (p * p, p * q)
    assert _prime_factors(p * p) == [p] and _prime_factors(p * q) == [q, p]
    assert radical(square) is I and colon(square, I) is I and colon(pq, J) is I
    assert ideal_combine("sum", square, pq) is I and ideal_combine("product", I, J) is pq
    assert classify_ideal(square).is_primary and not classify_ideal(pq).is_prime
    six_square = ideal_combine("product", square, integer_ideal(zz, 6))
    assert _prime_factors(six_square.n) == [2, 3, p]
    with pytest.raises(InvalidSpecError, match=f"cannot factor {q * q}"):
        integer_ideal(zz, q * q)  # a literal is still trial-divided


def test_prime_and_primary_match_a_brute_force_oracle():
    from deltan import modular, poly_quotient, product
    from deltan.verifier import builtin_corpus
    rings = [e.ring for e in builtin_corpus().entries] + [
        product(modular(6), modular(10)), poly_quotient(3, [1, 0, 1]),
        product(product(modular(2), modular(2)), modular(2))]
    checked = 0
    for ring in rings:
        n, mul = ring.size, ring.mul
        powers = []  # r, r^2, .., r^n for every r
        for r in range(n):
            seq = [r]
            while len(seq) < n:
                seq.append(mul[seq[-1]][r])
            powers.append(seq)
        for I in enumerate_ideals(ring):
            members = {e.idx for e in I.elements()}
            radical = {r for r in range(n) if any(p in members for p in powers[r])}
            pairs = [(a, b) for a in range(n) if a not in members
                     for b in range(n) if mul[a][b] in members]
            flags = classify_ideal(I)
            assert flags.is_prime == (I.is_proper and all(b in members for _, b in pairs))
            assert flags.is_primary == (I.is_proper and all(b in radical for _, b in pairs))
            checked += 1
    assert len(rings) == 35 and checked == 182


# ---------------------------------------------------------------------------
# the lattice by local factors against the closure over the whole ring
# ---------------------------------------------------------------------------

def _closure_lattice(ring):
    """The lattice as one closure of every non-unit principal ideal, plus R."""
    from deltan.ideals import _principal_columns, _sum_closure
    principals = sorted(_principal_columns(ring))
    return _sum_closure(ring, [1 << ring.zero_idx, ring.full_mask, *principals], principals)


def _assert_factored_lattice(ring):
    from deltan.ideals import _local_components
    from deltan.rings import classify_ring
    assert [I.mask for I in enumerate_ideals(ring)] == _closure_lattice(ring), ring.key
    assert classify_ring(ring).is_quasi_local == (len(_local_components(ring)) == 1)


def _corpus_quotients_and_localizations():
    """The 291 corpus rings, their proper quotients and their localizations."""
    from deltan.constructions import localize, quotient_ring
    from deltan.verifier import Context, builtin_corpus
    ctx = Context(builtin_corpus())
    rings = []
    for entry in ctx.entries:
        ring = entry.ring
        rings.append(ring)
        rings += [quotient_ring(ring, J).ring for J in enumerate_ideals(ring) if J.is_proper]
        rings += [localize(ring, sset).ring for sset in ctx.mult_sets(ring)]
    assert len(rings) == 291
    return rings


def test_factored_lattice_matches_the_closure_on_corpus_quotients_and_localizations():
    from deltan.ideals import _local_components
    rings = _corpus_quotients_and_localizations()
    for ring in rings:
        _assert_factored_lattice(ring)
    assert sum(len(_local_components(r)) > 1 for r in rings) == 49


@st.composite
def _small_rings(draw, cap=64, depth=2):
    """A ring of at most ``cap`` elements: Z_n, Z2[x]/(x^2), Z3[x]/(x^2), or a
    product, quotient or idealization of smaller such rings."""
    from math import isqrt
    from deltan.constructions import quotient_ring
    kinds = ["atom"] + (["product", "quotient", "idealization"] if depth and cap >= 4 else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "product":
        left = draw(_small_rings(cap // 2, depth - 1))
        return product(left, draw(_small_rings(cap // left.size, depth - 1)))
    if kind == "quotient":
        base = draw(_small_rings(cap, depth - 1))
        J = ideal_from_generators(base, [base.el(draw(st.integers(0, base.size - 1)))])
        return quotient_ring(base, J).ring if J.is_proper else base
    if kind == "idealization":
        base = draw(_small_rings(isqrt(cap), depth - 1))
        I = ideal_from_generators(base, [base.el(draw(st.integers(0, base.size - 1)))])
        spec = ("quotient", I) if I.is_proper and draw(st.booleans()) else "regular"
        return idealization(base, make_module(base, spec)).ring
    if cap >= 9 and draw(st.booleans()):
        return poly_quotient(draw(st.sampled_from([2, 3])), [0, 0, 1])
    return modular(draw(st.integers(2, min(cap, 64))))


@settings(max_examples=60, deadline=None)
@given(_small_rings())
def test_factored_lattice_matches_the_closure_on_generated_rings(ring):
    assert ring.size <= 64
    _assert_factored_lattice(ring)


# ---------------------------------------------------------------------------
# units and principal ideals read off the ring's structure, against row scans
# ---------------------------------------------------------------------------

def principal_columns_reference(ring):
    """{Ra: the least a generating it} over the a without 1 in their row."""
    one, columns = ring.one_idx, {}
    for g, row in enumerate(ring.mul):
        if one not in row:
            columns.setdefault(sum(1 << i for i in set(row)), g)
    return columns


def _assert_units_and_principal_columns(ring):
    from deltan.ideals import _principal_columns, _unit_mask
    units = {a for a, row in enumerate(ring.mul) if ring.one_idx in row}
    assert _index_set(ring, _unit_mask(ring)) == units, ring.key
    # the same classes, each at its least generator, in the same order
    assert list(_principal_columns(ring).items()) == list(
        principal_columns_reference(ring).items()), ring.key


def test_units_and_principal_columns_match_the_row_scan_on_corpus_quotients_and_localizations():
    for ring in _corpus_quotients_and_localizations():
        _assert_units_and_principal_columns(ring)


@settings(max_examples=60, deadline=None)
@given(_small_rings())
def test_units_and_principal_columns_match_the_row_scan_on_generated_rings(ring):
    assert ring.size <= 64
    _assert_units_and_principal_columns(ring)


@pytest.mark.parametrize("name, classes, idempotents", [
    ("Z4096", 12, 1), ("Z64 x Z64", 48, 3)])
def test_principal_columns_build_one_mask_per_class_of_associates(monkeypatch, name, classes,
                                                                  idempotents):
    # a fresh ring, not the cached one, so nothing is memoised on it yet; the
    # two rings have 2048 and 3072 non-units, so one mask per non-unit shows
    from deltan import ideals
    from deltan.rings import _build_modular, _product
    ring = (_build_modular(4096) if name == "Z4096"
            else _product.__wrapped__(modular(64), modular(64)))
    calls = []

    def counted(ring, g, _mask=ideals._principal_mask):
        calls.append(g)
        return _mask(ring, g)
    monkeypatch.setattr(ideals, "_principal_mask", counted)
    assert len(ideals._principal_columns(ring)) == classes
    # one mask per nonzero idempotent e, Re, to find the local factors
    assert len(calls) == classes + idempotents
