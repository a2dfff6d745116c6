"""Quotients, modules, idealizations, localizations, homomorphisms."""

from math import gcd
from operator import indexOf

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from deltan import (ConstructionError, CrossRingError, HomomorphismError, InfiniteRingError,
                    InvalidSpecError,
                    apply_expansion, classify_ring, delta0, delta1,
                    derive_quotient_expansion, enumerate_ideals,
                    full_expansion, ideal_from_generators, image_ideal,
                    integer_ideal, integers, is_delta_gamma_homomorphism,
                    localize, make_homomorphism, make_module, modular,
                    mult_closure, mult_set, nilradical, poly_quotient,
                    preimage_ideal, product, quotient_ring, radical,
                    zero_ideal)
from deltan.constructions import (Homomorphism, MultiplicativeSet, _coset_quotient,
                                  enumerate_submodules, idealization, product_projections)
from deltan.verifier import Context, builtin_corpus
from test_ideals import _boolean_and_idealization_rings


# ---------------------------------------------------------------------------
# quotient rings
# ---------------------------------------------------------------------------

def test_quotient_z12_by_six_is_z6_arithmetic():
    z12 = modular(12)
    six = nilradical(z12)
    rec = quotient_ring(z12, six)
    q = rec.ring
    assert q.size == 6
    z6 = modular(6)
    # reps are 0..5; index map payload -> payload matches Z6's tables
    for a in range(6):
        for b in range(6):
            assert q.elements[q.add[a][b]] == z6.elements[z6.add[a][b]]
            assert q.elements[q.mul[a][b]] == z6.elements[z6.mul[a][b]]
    assert rec.projection.kernel == six


def test_quotient_by_zero_is_bijective_copy():
    z8 = modular(8)
    rec = quotient_ring(z8, zero_ideal(z8))
    assert rec.ring.size == 8
    assert rec.projection.is_injective() and rec.projection.is_surjective()


def test_quotient_poly_by_maximal_is_field():
    ring = poly_quotient(4, [0, 0, 0, 1])
    m = ideal_from_generators(ring, [ring.from_payload((2, 0, 0)),
                                     ring.from_payload((0, 1, 0))])
    assert m.size == 32
    rec = quotient_ring(ring, m)
    assert rec.ring.size == 2
    assert classify_ring(rec.ring).is_field


def test_quotient_by_whole_ring_rejected():
    z6 = modular(6)
    from deltan import unit_ideal
    with pytest.raises(ConstructionError):
        quotient_ring(z6, unit_ideal(z6))


def test_quotient_integers():
    zz = integers()
    rec = quotient_ring(zz, integer_ideal(zz, 6))
    assert rec.ring.key == "Z6"
    assert rec.projection(zz.el(14)).idx == 2
    assert rec.projection.kernel.n == 6
    ident = quotient_ring(zz, zero_ideal(zz))
    assert ident.ring is zz


# ---------------------------------------------------------------------------
# modules and submodules
# ---------------------------------------------------------------------------

def test_regular_module_submodules_are_ideals():
    z8 = modular(8)
    module = make_module(z8, "regular")
    subs = enumerate_submodules(module)
    assert len(subs) == len(enumerate_ideals(z8)) == 4


def test_quotient_module():
    z8 = modular(8)
    four = ideal_from_generators(z8, [z8.el(4)])
    module = make_module(z8, ("quotient", four))
    assert module.size == 4
    assert len(enumerate_submodules(module)) == 3


def test_zero_module_rejected():
    z8 = modular(8)
    from deltan import unit_ideal
    with pytest.raises(ConstructionError):
        make_module(z8, ("quotient", unit_ideal(z8)))


def test_quotient_module_by_a_non_ideal_is_refused_before_any_ideal_is_interned():
    # {0, 3} is no ideal of Z8, as 3 generates Z8; an Ideal interned for it
    # would stay in Z8's cache and print as (3)
    from deltan.errors import InvalidSpecError
    from deltan.ideals import _mk_ideal
    z8 = modular(8)

    def snapshot():  # the memo tables are dicts filled in place
        return {k: dict(v) if isinstance(v, dict) else v for k, v in z8._cache.items()}
    before = snapshot()
    with pytest.raises(InvalidSpecError, match=r"indices \[0, 3\] are not an ideal of Z8"):
        make_module(z8, ("quotient", (0, 3)))
    with pytest.raises(InvalidSpecError, match=r"indices \[0, 8\] are not elements of Z8"):
        make_module(z8, ("quotient", (0, 8)))
    assert snapshot() == before
    assert 0b1001 not in _mk_ideal.table(z8)
    assert make_module(z8, ("quotient", (4, 0))).name == "Z8/(4)"


def test_product_module():
    z2 = modular(2)
    module = make_module(z2, ("product", "regular", "regular"))
    assert module.size == 4
    assert module.name == module.key == "(Z2 + Z2)"
    nested = make_module(z2, ("product", ("product", "regular", "regular"), "regular"))
    assert nested.key == "((Z2 + Z2) + Z2)"
    assert len(enumerate_submodules(module)) == 5  # subgroups of Z2 x Z2


def test_modules_over_integers_rejected():
    with pytest.raises(InfiniteRingError):
        make_module(integers(), "regular")


# ---------------------------------------------------------------------------
# idealization
# ---------------------------------------------------------------------------

def test_idealization_radical_formula():
    z2 = modular(2)
    rec = idealization(z2, make_module(z2, "regular"))
    assert rec.ring.size == 4
    rad = radical(zero_ideal(rec.ring))
    assert {e.payload for e in rad.elements()} == {(0, 0), (0, 1)}


def test_homogeneous_ideal_sizes():
    z4 = modular(4)
    module = make_module(z4, "regular")
    rec = idealization(z4, module)
    two = ideal_from_generators(z4, [z4.el(2)])
    full_sub = enumerate_submodules(module)[-1]
    W = rec.homogeneous_ideal(two, full_sub)
    assert W.size == 8
    # I = R with N = M gives the whole ring
    from deltan import unit_ideal
    assert not rec.homogeneous_ideal(unit_ideal(z4), full_sub).is_proper


def test_homogeneous_ideal_requires_im_in_n():
    z4 = modular(4)
    module = make_module(z4, "regular")
    rec = idealization(z4, module)
    two = ideal_from_generators(z4, [z4.el(2)])
    zero_sub = enumerate_submodules(module)[0]
    with pytest.raises(ConstructionError):
        rec.homogeneous_ideal(two, zero_sub)


def test_the_localization_kernel_is_the_saturation_of_zero():
    # ker(R -> S^-1 R) = {a : ua = 0 for some u in S}, by a scan of every pair,
    # on the corpus, on Z2^k for k <= 6 and on Z4 (+) Z4
    ctx, checked = Context(builtin_corpus()), 0
    for ring in [entry.ring for entry in ctx.entries] + _boolean_and_idealization_rings():
        zero = ring.zero_idx
        for sset in ctx.mult_sets(ring):
            kernel = {a for a in range(ring.size)
                      if any(ring.mul[u][a] == zero for u in sset.indices)}
            assert {e.idx for e in localize(ring, sset).kernel.elements()} == kernel
            checked += 1
    assert checked == 257


def test_idealization_has_non_homogeneous_ideals():
    z4 = modular(4)
    rec = idealization(z4, make_module(z4, "regular"))
    non_homog = rec.non_homogeneous_ideals()
    assert non_homog  # e.g. the ideal generated by (2,1)
    for W in non_homog:
        homog, I, N = rec.split(W)
        assert not homog


def _corpus_idealizations():
    recs = [rec for rec, _ in Context(builtin_corpus()).idealization_instances()]
    assert [rec.ring.key for rec in recs] == ["Z2 (+) Z2", "Z4 (+) Z4", "Z8 (+) Z8/(4)"]
    return recs


def test_idealization_and_product_module_tables_match_the_per_cell_formulas():
    # the gathered tables against (r1,m1)(r2,m2) = (r1 r2, r1 m2 + r2 m1) and
    # r(m1, m2) = (r m1, r m2), cell by cell, on list rows and on 'H' rows
    z2, z4, z17 = modular(2), modular(4), modular(17)
    two = ideal_from_generators(z4, [z4.el(2)])
    products = [(z2, "regular", ("product", "regular", "regular")),
                (z4, "regular", ("quotient", two)), (z17, "regular", "regular")]
    recs = _corpus_idealizations() + [idealization(z17, make_module(z17, "regular"))] + [
        idealization(ring, make_module(ring, ("product", *specs)))
        for ring, *specs in products[:2]]
    assert max(rec.ring.size for rec in recs) == 289
    for rec in recs:
        base, module, size = rec.base, rec.module, rec.ring.size
        s, act, madd = module.size, module.action, module.add
        for i, row in enumerate(rec.ring.mul):
            r1, m1 = divmod(i, s)
            assert list(row) == [base.mul[r1][j // s] * s + madd[act[r1][j % s]][act[j // s][m1]]
                                 for j in range(size)], (rec.ring, i)
    for ring, spec1, spec2 in products:
        module = make_module(ring, ("product", spec1, spec2))
        m1, m2 = make_module(ring, spec1), make_module(ring, spec2)
        s2 = m2.size
        for r, row in enumerate(module.action):
            assert list(row) == [m1.action[r][i // s2] * s2 + m2.action[r][i % s2]
                                 for i in range(module.size)], (module, r)


def submodule_oracle(module):
    """Every set holding 0 and closed under + and the action, by brute force."""
    out = []
    for mask in range(1 << module.size):
        members = [m for m in range(module.size) if mask >> m & 1]
        if (mask >> module.zero_idx & 1
                and all(mask >> module.add[a][b] & 1 for a in members for b in members)
                and all(mask >> row[m] & 1 for row in module.action for m in members)):
            out.append(mask)
    return sorted(out, key=lambda m: (m.bit_count(), m))


def test_submodules_match_a_subgroup_and_action_oracle():
    z2, z3, z4 = modular(2), modular(3), modular(4)
    two = ideal_from_generators(z4, [z4.el(2)])
    modules = [rec.module for rec in _corpus_idealizations()] + [
        make_module(z2, ("product", "regular", ("product", "regular", "regular"))),
        make_module(z3, ("product", "regular", "regular")),
        make_module(z4, ("product", "regular", ("quotient", two))),
        make_module(modular(8), "regular"),
    ]
    for module in modules:
        got = [N.mask for N in enumerate_submodules(module)]
        assert got == submodule_oracle(module), module


def test_split_matches_an_element_level_oracle_on_every_corpus_idealization_ideal():
    # I is the set of first coordinates of W, N = {m : (0, m) in W}, and W is
    # homogeneous iff W = I(+)N
    for rec in _corpus_idealizations():
        base, module = rec.base, rec.module
        r_of = {p: i for i, p in enumerate(base.elements)}
        m_of = {p: i for i, p in enumerate(module.elements)}
        non_homogeneous = []
        for W in enumerate_ideals(rec.ring):
            pairs = {(r_of[r], m_of[m]) for r, m in (e.payload for e in W.elements())}
            first = {r for r, _ in pairs}
            block = {m for r, m in pairs if r == base.zero_idx}
            homogeneous = pairs == {(r, m) for r in first for m in block}
            got, I, N = rec.split(W)
            assert got == homogeneous, (rec.ring, W)
            assert {e.idx for e in I.elements()} == first, (rec.ring, W)
            assert {m for m in range(module.size) if N.contains_idx(m)} == block
            if not homogeneous:
                non_homogeneous.append(W)
        assert rec.non_homogeneous_ideals() == tuple(non_homogeneous)
        assert non_homogeneous or module.size == 2


def test_im_inside_reads_the_idealization_product():
    # (r, 0)(0, m) = (0, rm): IM lies in N iff each such product has its
    # second coordinate in N
    for rec in _corpus_idealizations():
        base, module, ring = rec.base, rec.module, rec.ring
        m_of = {p: i for i, p in enumerate(module.elements)}
        zero_r, zero_m = base.elements[base.zero_idx], module.elements[module.zero_idx]

        def rm(r, m):
            return (ring.from_payload((r, zero_m)) * ring.from_payload((zero_r, m))).payload[1]

        for I in enumerate_ideals(base):
            for N in enumerate_submodules(module):
                inside = all(N.contains_idx(m_of[rm(r.payload, m)])
                             for r in I.elements() for m in module.elements)
                assert rec.im_inside(I.mask, N.mask) == inside, (rec.ring, I, N)
                if inside:
                    assert rec.homogeneous_ideal(I, N).mask == \
                        rec.homogeneous_mask(I.mask, N.mask)
                else:
                    with pytest.raises(ConstructionError):
                        rec.homogeneous_ideal(I, N)


def test_canonical_projections_are_homomorphisms():
    # the internal maps skip validation; validate them here, and check that
    # each reads the right coordinate of the pair
    corpus = builtin_corpus()
    products = [e.ring for e in corpus.entries if e.ring.origin[0] == "product"]
    assert len(products) == 3
    for ring in products:
        _, left, right = ring.origin
        for k, (p, factor) in enumerate(zip(product_projections(ring), (left, right))):
            Homomorphism(ring, factor, mapping=p.mapping)
            assert [factor.elements[p.mapping[i]] for i in range(ring.size)] == \
                [pair[k] for pair in ring.elements]
    for rec in _corpus_idealizations():
        pi = rec.projection
        Homomorphism(rec.ring, rec.base, mapping=pi.mapping)
        assert [rec.base.elements[pi.mapping[i]] for i in range(rec.ring.size)] == \
            [pair[0] for pair in rec.ring.elements]


# ---------------------------------------------------------------------------
# localization
# ---------------------------------------------------------------------------

def test_localize_z12_at_powers_of_four():
    z12 = modular(12)
    rec = localize(z12, MultiplicativeSet(z12, (1, 4)))
    assert rec.ring.size == 3
    assert {e.idx for e in rec.kernel.elements()} == {0, 3, 6, 9}
    assert rec.canonical.kernel == rec.kernel


def test_localize_at_one_is_isomorphic_copy():
    z6 = modular(6)
    rec = localize(z6, MultiplicativeSet(z6, (1,)))
    assert rec.ring.size == 6
    assert rec.canonical.is_injective() and rec.canonical.is_surjective()


def test_localize_at_units_is_bijective():
    z6 = modular(6)
    rec = localize(z6, MultiplicativeSet(z6, (1, 5)))
    assert rec.canonical.is_injective() and rec.canonical.is_surjective()


def test_extend_contract():
    z12 = modular(12)
    rec = localize(z12, MultiplicativeSet(z12, (1, 4)))
    zero_ext = rec.extend(zero_ideal(z12))
    assert zero_ext.is_zero
    assert {e.idx for e in rec.contract(zero_ext).elements()} == {0, 3, 6, 9}
    # S^-1 I = {i/s} equals the ideal generated by the canonical image of I,
    # on every localization the default verification builds
    ctx = Context(builtin_corpus())
    checked = 0
    for entry in ctx.entries:
        for sset in ctx.mult_sets(entry.ring):
            rec = localize(entry.ring, sset)
            for I in enumerate_ideals(entry.ring):
                image = [rec.canonical.apply(a) for a in I.elements()]
                assert (rec.canonical.image_mask(I.mask)
                        == ideal_from_generators(rec.ring, image).mask)
                checked += 1
    assert checked == 826


def test_multiplicative_set_validation():
    z12 = modular(12)
    with pytest.raises(ConstructionError):
        MultiplicativeSet(z12, (1, 2))   # 2*2 = 4 escapes
    with pytest.raises(ConstructionError):
        MultiplicativeSet(z12, (4,))     # missing 1
    closed = mult_closure(z12, [z12.el(2)])
    assert set(closed.indices) == {1, 2, 4, 8}
    with pytest.raises(ConstructionError):
        localize(z12, mult_closure(z12, [z12.el(6)]))  # 0 lands in S


@pytest.mark.parametrize("bad", [-5, 7, "a", True, 1.0])
def test_multiplicative_set_refuses_non_element_indices(bad):
    """A negative index would read a table row from the end, a bool or a float
    would be read as an index, and the ring would be localized under a second
    name; each is refused before any read."""
    with pytest.raises(InvalidSpecError, match="not elements of Z6"):
        MultiplicativeSet(modular(6), (1, bad))


def test_mult_set_constructor():
    z12 = modular(12)
    s = mult_set(z12, [z12.el(4)])
    assert set(s.indices) == {1, 4}


@pytest.mark.parametrize("build", [mult_set, mult_closure])
def test_a_multiplicative_set_refuses_a_foreign_element_and_the_integers(build):
    # an element of Z4 was read by its index in Z6 ({1, 3}), one of Z6 past Z4's
    # rows (an IndexError); ZZ has no table to close a set in (a TypeError)
    with pytest.raises(CrossRingError, match=r"element lives in another ring \(Z4\) than Z6"):
        build(modular(6), [modular(4).el(3)])
    with pytest.raises(CrossRingError, match=r"element lives in another ring \(Z6\) than Z4"):
        build(modular(4), [modular(6).el(5)])
    with pytest.raises(InfiniteRingError, match="finite-ring data"):
        build(integers(), [3])


# ---------------------------------------------------------------------------
# homomorphisms
# ---------------------------------------------------------------------------

def test_projection_preimage_is_kernel():
    z12 = modular(12)
    six = nilradical(z12)
    rec = quotient_ring(z12, six)
    pre = preimage_ideal(rec.projection, zero_ideal(rec.ring))
    assert pre == six


def test_diagonal_embedding():
    z2 = modular(2)
    ring = product(z2, z2)
    f = make_homomorphism(z2, ring, lambda a: ring.from_payload((a.payload, a.payload)))
    assert f.is_injective() and not f.is_surjective()
    right = ideal_from_generators(ring, [ring.from_payload((1, 0))])
    assert preimage_ideal(f, right).is_zero


def test_identity_hom_transport():
    z12 = modular(12)
    ident = make_homomorphism(z12, z12, list(range(12)))
    for I in enumerate_ideals(z12):
        assert image_ideal(ident, I) == I
        assert preimage_ideal(ident, I) == I


def test_invalid_map_rejected():
    z4, z2 = modular(4), modular(2)
    with pytest.raises(HomomorphismError):
        make_homomorphism(z4, z2, [0, 1, 1, 0])  # not additive (1+1 -> 1+1=0 vs 2->1)
    with pytest.raises(HomomorphismError):
        make_homomorphism(z4, z2, [0, 0, 0, 0])  # 1 not sent to 1


def test_partial_or_malformed_maps_are_refused_before_any_read():
    """A map that misses a source element, or sends one to what is not an
    element of the target, is a ``HomomorphismError``, not a raw exception."""
    z4, z2 = modular(4), modular(2)
    for mapping in ({}, {z4.el(0): 0}, [0, 1], None, "0101"):
        with pytest.raises(HomomorphismError, match="map must be total on the source elements"):
            make_homomorphism(z4, z2, mapping)
    for mapping in (lambda a: "x", [0, 1, 2, 1], [0, True, 0, True], lambda a: 1.0):
        with pytest.raises(HomomorphismError, match=r"an image of the map is .*, not an element"):
            make_homomorphism(z4, z2, mapping)
        if isinstance(mapping, list):  # the class checks its mapping the same way
            with pytest.raises(HomomorphismError, match="not an element index 0..1"):
                Homomorphism(z4, z2, mapping=mapping)
    for mapping in (5, "0101", {0: 0, 1: 1, 2: 0, 3: 1}, [0, 1]):
        with pytest.raises(HomomorphismError, match="map must be total on the source elements"):
            Homomorphism(z4, z2, mapping=mapping)
    for mapping in ({a: a.idx % 2 for a in z4.list_elements()}, (0, 1, 0, 1),
                    lambda a: z2.el(a.idx % 2)):
        assert make_homomorphism(z4, z2, mapping).mapping == [0, 1, 0, 1]


def test_image_ideal_requires_surjective():
    z2 = modular(2)
    ring = product(z2, z2)
    f = make_homomorphism(z2, ring, lambda a: ring.from_payload((a.payload, a.payload)))
    with pytest.raises(HomomorphismError):
        image_ideal(f, zero_ideal(z2))


def test_delta_gamma_homomorphism():
    z12 = modular(12)
    six = nilradical(z12)
    rec = quotient_ring(z12, six)
    # radical expansions along any homomorphism
    assert is_delta_gamma_homomorphism(rec.projection, delta1(z12), delta1(rec.ring))
    # identity expansions along a projection
    assert is_delta_gamma_homomorphism(rec.projection, delta0(z12), delta0(rec.ring))
    # full on the source vs identity on the target fails
    z8 = modular(8)
    four = ideal_from_generators(z8, [z8.el(4)])
    rec8 = quotient_ring(z8, four)
    assert not is_delta_gamma_homomorphism(rec8.projection, full_expansion(z8),
                                           delta0(rec8.ring))


def test_delta_gamma_integers_reduction():
    zz = integers()
    rec = quotient_ring(zz, integer_ideal(zz, 6))
    assert is_delta_gamma_homomorphism(rec.projection, delta1(zz), delta1(rec.ring))
    assert is_delta_gamma_homomorphism(rec.projection, delta0(zz), delta0(rec.ring))


def test_image_of_an_integer_ideal_under_a_reduction_is_generated_by_f_of_n():
    zz = integers()
    f = quotient_ring(zz, integer_ideal(zz, 6)).projection
    for m in range(13):
        image = image_ideal(f, integer_ideal(zz, m))
        assert {e.idx for e in image.elements()} == {m * k % 6 for k in range(6)}, m
        assert preimage_ideal(f, image) == integer_ideal(zz, gcd(m, 6))
    # the quotient by (0) is the identity of ZZ
    ident = quotient_ring(zz, integer_ideal(zz, 0)).projection
    assert image_ideal(ident, integer_ideal(zz, 4)) == integer_ideal(zz, 4)


def test_quotient_derived_expansions_refuse_the_integers():
    zz = integers()
    with pytest.raises(InfiniteRingError, match="finite rings only"):
        derive_quotient_expansion(delta0(zz), integer_ideal(zz, 6))


# ---------------------------------------------------------------------------
# memoised ideal transport against plain loops
# ---------------------------------------------------------------------------

def _mask(indices):
    return sum(1 << i for i in set(indices))


def test_memoised_transport_matches_plain_loops_on_the_corpus():
    ctx = Context(builtin_corpus())
    records = [localize(entry.ring, sset)
               for entry in ctx.entries for sset in ctx.mult_sets(entry.ring)]
    family = [f for f, _ in ctx.hom_instances()]
    assert (len(family), len(records)) == (157, 135)
    homs = family + [rec.canonical for rec in records]
    for _ in range(2):  # the second pass reads the memo
        for f in homs:
            f_map = f.mapping
            for I in enumerate_ideals(f.source):
                assert f.image_mask(I.mask) == _mask(f_map[i] for i in range(f.source.size)
                                                      if I.mask >> i & 1)
            for K in enumerate_ideals(f.target):
                assert f.preimage_mask(K.mask) == _mask(i for i in range(f.source.size)
                                                         if K.mask >> f_map[i] & 1)
        for rec in records:
            for K in enumerate_ideals(rec.ring):
                assert rec.canonical.preimage_mask(K.mask) == _mask(
                    i for i, v in enumerate(rec.canonical.mapping) if K.mask >> v & 1)


# ---------------------------------------------------------------------------
# delta-gamma transport on masks against the Ideal-level loop
# ---------------------------------------------------------------------------

def _ideal_level_delta_gamma(f, delta, gamma):
    """delta(f^-1(J)) = f^-1(gamma(J)) for every ideal J, on Ideal objects."""
    for J in enumerate_ideals(f.target):
        if apply_expansion(delta, preimage_ideal(f, J)) != \
           preimage_ideal(f, apply_expansion(gamma, J)):
            return False
    return True


def test_delta_gamma_transport_matches_the_ideal_level_loop():
    ctx = Context(builtin_corpus())
    verdicts = []
    for f, pairs in ctx.hom_instances():
        for delta, gamma in pairs + ((delta1(f.source), delta1(f.target)),):
            expected = _ideal_level_delta_gamma(f, delta, gamma)
            assert is_delta_gamma_homomorphism(f, delta, gamma) == expected, (f, delta, gamma)
            verdicts.append(expected)
    diagonal = [f for f, _ in ctx.hom_instances() if f.source.key == "Z2"
                and f.target.key == "Z2 x Z2"]
    assert len(diagonal) == 1
    assert len(verdicts) == 2569 and True in verdicts and False in verdicts


# ---------------------------------------------------------------------------
# coset-keyed localization against the partition of R x S
# ---------------------------------------------------------------------------

def _partition_localization(ring, sset):
    """Classes of R x S by a scan over the classes found so far: (r, s) joins
    the first class whose representative (r2, s2) has rs2 - r2s in the
    saturation kernel; returns (class_of, representatives, add, mul)."""
    n, add, mul, neg = ring.size, ring.add, ring.mul, ring.neg
    s_list = list(sset.indices)
    ker = 0
    for a in range(n):
        if any(mul[u][a] == ring.zero_idx for u in s_list):
            ker |= 1 << a
    class_of, reps = {}, []
    for r in range(n):
        for s in s_list:
            found = next((ci for ci, (r2, s2) in enumerate(reps)
                          if ker >> add[mul[r][s2]][neg[mul[r2][s]]] & 1), None)
            if found is None:
                reps.append((r, s))
                found = len(reps) - 1
            class_of[(r, s)] = found
    addq = [[class_of[(add[mul[r1][s2]][mul[r2][s1]], mul[s1][s2])] for r2, s2 in reps]
            for r1, s1 in reps]
    mulq = [[class_of[(mul[r1][r2], mul[s1][s2])] for r2, s2 in reps] for r1, s1 in reps]
    return class_of, reps, addq, mulq


def _assert_same_localization(ring, sset):
    """The oracle's classes, each sent through the canonical map as r/s =
    q(r)q(s)^-1, are the localization's: every pair of a class lands on one
    index, the classes land on every index once, and the oracle's tables are
    the localization's under that bijection."""
    rec = localize(ring, sset)
    class_of, reps, addq, mulq = _partition_localization(ring, sset)
    q, mul, one = rec.canonical.mapping, rec.ring.mul, rec.ring.one_idx
    index = {(r, s): mul[q[r]][indexOf(mul[q[s]], one)] for r, s in class_of}
    to_loc = [index[pair] for pair in reps]
    assert {pair: to_loc[c] for pair, c in class_of.items()} == index, (ring, sset)
    assert sorted(to_loc) == list(range(rec.ring.size)), (ring, sset)
    for table, oracle in ((rec.ring.add, addq), (rec.ring.mul, mulq)):
        assert [[table[x][y] for y in to_loc] for x in to_loc] == \
            [[to_loc[c] for c in row] for row in oracle], (ring, sset)


def _corpus_localizations():
    ctx = Context(builtin_corpus())
    pairs = [(entry.ring, sset) for entry in ctx.entries
             for sset in ctx.mult_sets(entry.ring)]
    assert len(pairs) == 135
    return pairs


def test_coset_localization_matches_the_partition_on_the_corpus():
    for ring, sset in _corpus_localizations():
        _assert_same_localization(ring, sset)


def test_a_localization_is_numbered_as_r_mod_ker():
    # S^-1 R is R/ker, the classes numbered by least base index, each the base
    # element at that index; it is R on R's own tables exactly when ker = 0
    for ring, sset in _corpus_localizations():
        rec = localize(ring, sset)
        reps, q = _coset_quotient(ring, rec.kernel.mask)
        assert rec.canonical.mapping == q, (ring, sset)
        assert rec.ring.elements == [ring.elements[r] for r in reps], (ring, sset)
        assert [rec.ring.element_repr(c) for c in range(rec.ring.size)] == \
            [ring.element_repr(r) for r in reps], (ring, sset)
        assert (rec.ring.add is ring.add) == rec.kernel.is_zero, (ring, sset)


@st.composite
def _closures(draw):
    """(Z_n or Z_a x Z_b with at most 64 elements, closure of one element)."""
    a = draw(st.integers(2, 64))
    ring = modular(a)
    if a <= 32 and draw(st.booleans()):
        ring = product(ring, modular(draw(st.integers(2, 64 // a))))
    return ring, mult_closure(ring, [ring.el(draw(st.integers(0, ring.size - 1)))])


@settings(max_examples=60, deadline=None)
@given(_closures())
def test_coset_localization_matches_the_partition_on_generated_rings(case):
    ring, sset = case
    assume(ring.zero_idx not in sset.indices)
    _assert_same_localization(ring, sset)


def _preserves_both_on_all_pairs(src, tgt, f):
    """The n^2 reference: f(a+b) = f(a)+f(b) and f(ab) = f(a)f(b) for all a, b."""
    pairs = [(a, b) for a in range(src.size) for b in range(src.size)]
    return (all(f[src.add[a][b]] == tgt.add[f[a]][f[b]] for a, b in pairs)
            and all(f[src.mul[a][b]] == tgt.mul[f[a]][f[b]] for a, b in pairs))


def test_make_homomorphism_agrees_with_the_pair_reference():
    import random
    rng = random.Random(15)
    small = [modular(2), modular(3), modular(4), modular(6), product(modular(2), modular(2)),
             product(modular(2), modular(3)), poly_quotient(2, [0, 0, 1])]
    dual = poly_quotient(2, [0, 0, 1])  # Z2[x]/(x^2); x -> 1 is additive, not multiplicative
    cases = [(dual, dual, [0, 1, 1, 0])]
    for _ in range(1500):  # random maps with 0 -> 0 and 1 -> 1
        src, tgt = rng.choice(small), rng.choice(small)
        f = [rng.randrange(tgt.size) for _ in range(src.size)]
        f[src.zero_idx], f[src.one_idx] = tgt.zero_idx, tgt.one_idx
        cases.append((src, tgt, f))
    for entry in builtin_corpus().entries:
        ring = entry.ring
        identity = list(range(ring.size))
        cases.append((ring, ring, identity))
        corrupted = identity[:]  # one cell moved, 0 and 1 kept
        cell = rng.choice([i for i in identity if i not in (ring.zero_idx, ring.one_idx)]
                          or [None])
        if cell is not None:
            corrupted[cell] = rng.choice([i for i in identity if i != cell])
            cases.append((ring, ring, corrupted))
        for J in enumerate_ideals(ring):
            if J.is_proper:
                rec = quotient_ring(ring, J)
                cases.append((ring, rec.ring, list(rec.projection.mapping)))
    accepted = rejected = 0
    for src, tgt, f in cases:
        if _preserves_both_on_all_pairs(src, tgt, f):
            make_homomorphism(src, tgt, f)
            accepted += 1
        else:
            with pytest.raises(HomomorphismError):
                make_homomorphism(src, tgt, f)
            rejected += 1
    assert accepted >= 30 and rejected >= 30, (accepted, rejected)


# ---------------------------------------------------------------------------
# module actions against the ring, element by element
# ---------------------------------------------------------------------------

def _congruent(ring, mask, a, b):
    """a - b lies in the ideal ``mask``."""
    return bool(mask >> ring.add[a][ring.neg[b]] & 1)


def test_module_actions_agree_with_ring_multiplication_on_the_corpus():
    """r.m is r*m in the regular module, a representative of the coset of r
    times m's representative in R/I, and both componentwise in a product."""
    checked = 0
    for entry in builtin_corpus().entries:
        ring = entry.ring
        n, mul, index = ring.size, ring.mul, ring.from_payload
        regular = make_module(ring, "regular")
        assert regular.add is ring.add
        assert all(row is ring_row for row, ring_row in zip(regular.action, mul))
        assert all(regular.elements[regular.action[r][m]] == ring.elements[mul[r][m]]
                   for r in range(n) for m in range(n))
        for I in enumerate_ideals(ring):
            if not I.is_proper:
                continue
            module = make_module(ring, ("quotient", I))
            reps = [index(p).idx for p in module.elements]
            assert module.size * I.size == n
            assert not any(_congruent(ring, I.mask, a, b) for a in reps for b in reps if a < b)
            for r in range(n):
                for m, rep in enumerate(reps):
                    assert _congruent(ring, I.mask, mul[r][rep], reps[module.action[r][m]])
                    checked += 1
        nil = nilradical(ring)
        pair = make_module(ring, ("product", "regular", ("quotient", nil)))
        for r in range(n):
            for i, (a, b) in enumerate(pair.elements):
                a2, b2 = pair.elements[pair.action[r][i]]
                assert a2 == ring.elements[mul[r][index(a).idx]]
                assert _congruent(ring, nil.mask, mul[r][index(b).idx], index(b2).idx)
                checked += 1
    assert checked == 95104

