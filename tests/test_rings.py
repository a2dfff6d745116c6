"""Ring construction, arithmetic, enumeration, and classification."""

import gc
import operator
import random
import tracemalloc
import weakref
from array import array

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from deltan import (ConstructionError, CrossRingError, DslError, InfiniteRingError,
                    InvalidSpecError, arithmetic, check_ring_axioms,
                    classify_element, classify_ring, integers, localize, modular,
                    mult_closure, poly_quotient, product)
from deltan.ideals import (_lattice, _product_mask, _product_pair, _sum_mask, _sum_pair,
                           enumerate_ideals, ideal_from_generators)
from deltan.rings import Ring, _additive_generators, _build_modular, _product, memo, ring_key
from deltan.constructions import Module, idealization, make_module, quotient_ring
from deltan.dsl import bind_ring, parse_spec, ring_to_dsl


def test_modular_sizes():
    assert modular(6).size == 6
    assert modular(2).size == 2


def test_poly_quotient_size():
    ring = poly_quotient(4, [0, 0, 0, 1])  # x^3 over Z4, free module basis 1, x, x^2
    assert ring.size == 64


def test_product_size():
    assert product(modular(4), modular(9)).size == 36


def _z8_idealization(module):
    z8 = modular(8)
    return idealization(z8, make_module(z8, module)).ring


# one ring of each recipe kind: (constructor, key, DSL text or None when it has none)
RECIPE_RINGS = {
    "modular": (lambda: modular(6), "Z6", "Z6"),
    "poly_quotient": (lambda: poly_quotient(4, [0, 0, 1]), "Z4[x]/(x^2)", "Z4[x]/(x^2)"),
    "integer": (integers, "ZZ", "ZZ"),
    "product": (lambda: product(modular(2), modular(4)), "prod(Z2,Z4)", "Z2 x Z4"),
    "quotient": (lambda: quotient_ring(modular(12), ideal_from_generators(
        modular(12), [4])).ring, "quot(Z12,[0,4,8])", "quot(Z12,(4))"),
    "idealization": (lambda: _z8_idealization(("quotient", (0, 4))),
                     "idz(Z8,quot[0,4])", "Z8 (+) Z8/(4)"),
    "idealization by a product module": (
        lambda: _z8_idealization(("product", "regular", ("quotient", (0, 4)))),
        "idz(Z8,prod(regular,quot[0,4]))", None),
    "localization": (lambda: localize(modular(12), mult_closure(modular(12), [3])).ring,
                     "loc(Z12,[1,3,9])", "loc(Z12,{1,3,9})"),
}


@pytest.mark.parametrize("build, key, text", RECIPE_RINGS.values(), ids=RECIPE_RINGS)
def test_each_recipe_pins_its_key_and_dsl_text(build, key, text):
    ring = build()
    assert build() is ring
    assert ring.key == ring_key(ring.origin) == key
    if text is None:
        with pytest.raises(DslError, match="product modules have no DSL spelling"):
            ring_to_dsl(ring)
    else:
        assert ring_to_dsl(ring) == text
        assert bind_ring(parse_spec(text)) is ring


def test_constructors_refuse_operands_that_are_not_rings():
    for left, right in ((2, 3), (modular(2), "Z3"), (None, modular(2))):
        with pytest.raises(InvalidSpecError, match="product factors must be rings; got"):
            product(left, right)
    for base in ("Z4", 1, None, 4.0, product(modular(2), modular(2)), integers()):
        with pytest.raises(InvalidSpecError):
            poly_quotient(base, [0, 1, 1])
    for modulus in ("x^2", None, 3, [0, 0.5, 1], [1.0, 0, 1], [True, 0, 1]):
        with pytest.raises(InvalidSpecError, match="modulus must be a list of ints; got"):
            poly_quotient(4, modulus)
    assert poly_quotient(4, (1, 0, 1)) is poly_quotient(4, [1, 0, 1])


def test_memo_returns_the_stored_value_without_recomputing():
    calls = []

    @memo
    def squares(ring, k):
        calls.append(k)
        return [ring.size * k]

    z6 = modular(6)
    first = squares(z6, 2)
    assert squares(z6, 2) is first and calls == [2]
    assert squares.__name__ == "squares"
    assert _lattice(z6) is _lattice(z6)


def test_memo_entries_stay_on_their_own_ring():
    z6 = modular(6)
    lattice = enumerate_ideals(z6)
    twin = _build_modular(6)  # same key, not interned
    assert twin != z6 and twin is not z6
    assert twin._cache == {}
    assert [I.mask for I in enumerate_ideals(twin)] == [I.mask for I in lattice]
    assert _lattice(twin) == _lattice(z6) and _lattice(twin) is not _lattice(z6)


def test_sum_and_product_keep_one_entry_per_unordered_pair():
    ring = _build_modular(12)
    a, b = 1 << 0 | 1 << 4 | 1 << 8, 1 << 0 | 1 << 6
    for op, pair in ((_sum_mask, _sum_pair), (_product_mask, _product_pair)):
        assert op(ring, a, b) == op(ring, b, a)
        # one table, of the smaller mask, holding the larger one
        assert [k for k in ring._cache if k[0] is pair.__wrapped__] == [(pair.__wrapped__, b)]
        assert list(pair.table(ring, b)) == [a]


def test_modular_arithmetic():
    z6 = modular(6)
    assert arithmetic(z6, "add", z6.el(2), z6.el(3)) == z6.el(5)
    assert arithmetic(z6, "mul", z6.el(2), z6.el(3)) == z6.el(0)
    assert arithmetic(z6, "neg", z6.el(2)) == z6.el(4)


def test_poly_unit_product():
    ring = poly_quotient(4, [0, 0, 0, 1])
    a = ring.from_payload((1, 1, 0))      # 1+x
    b = ring.from_payload((1, 3, 1))      # 1+3x+x^2
    assert a * b == ring.one


def test_idealization_cross_term_vanishes():
    z2 = modular(2)
    rec = idealization(z2, make_module(z2, "regular"))
    a = rec.ring.from_payload((0, 1))
    assert a * a == rec.ring.zero


def test_list_elements():
    z4 = modular(4)
    assert [e.idx for e in z4.list_elements()] == [0, 1, 2, 3]
    z2 = modular(2)
    rec = idealization(z2, make_module(z2, "regular"))
    assert len(rec.ring.list_elements()) == 4
    with pytest.raises(InfiniteRingError):
        integers().list_elements()


def test_cross_ring_rejected():
    with pytest.raises(CrossRingError):
        modular(4).el(1) + modular(6).el(1)


def test_classify_element_z8():
    z8 = modular(8)
    cls = classify_element(z8, z8.el(2))
    assert cls.is_nilpotent and cls.nilpotency_index == 3
    assert cls.is_zero_divisor and not cls.is_unit


def test_classify_element_unit():
    z6 = modular(6)
    cls = classify_element(z6, z6.el(5))
    assert cls.is_unit and cls.is_regular and not cls.is_zero_divisor


def test_classify_element_integers():
    zz = integers()
    cls = classify_element(zz, zz.el(7))
    assert cls.is_regular and not cls.is_unit and not cls.is_nilpotent
    assert classify_element(zz, zz.el(-1)).is_unit


def test_classify_ring_z8():
    rc = classify_ring(modular(8))
    assert rc.is_quasi_local and not rc.is_reduced and not rc.is_field
    assert rc.maximal_ideal.size == 4  # 2Z8


def test_classify_ring_boolean_product():
    rc = classify_ring(product(modular(2), modular(2)))
    assert rc.is_von_neumann_regular and rc.is_boolean
    assert not rc.is_integral_domain and not rc.is_field


def test_classify_ring_field():
    rc = classify_ring(modular(7))
    assert rc.is_field and rc.is_integral_domain and rc.is_reduced
    assert rc.is_von_neumann_regular


def test_classify_ring_integers():
    rc = classify_ring(integers())
    assert rc.is_integral_domain and rc.is_reduced
    assert not (rc.is_field or rc.is_von_neumann_regular or rc.is_quasi_local)


def test_irreducible_poly_gives_field():
    assert classify_ring(poly_quotient(2, [1, 1, 1])).is_field
    assert classify_ring(poly_quotient(3, [1, 0, 1])).is_field


def test_invalid_specs():
    with pytest.raises(InvalidSpecError):
        modular(1)
    with pytest.raises(InvalidSpecError):
        poly_quotient(4, [1, 2])          # leading coefficient 2 is not a unit mod 4
    with pytest.raises(InvalidSpecError):
        poly_quotient(4, [3])             # degree 0
    with pytest.raises(InvalidSpecError):
        poly_quotient(product(modular(2), modular(2)), [0, 1, 1])


def test_size_guard_on_a_modulus_of_large_degree():
    # 2^20000 has more digits than an int may be printed with
    with pytest.raises(InvalidSpecError, match=r"x\^20000\) would have 2\^20000 elements"):
        poly_quotient(2, [0] * 20000 + [1])
    with pytest.raises(InvalidSpecError, match=r"would have 3\^13 elements"):
        poly_quotient(3, [0] * 13 + [1])


def test_size_guard_on_products_and_idealizations():
    with pytest.raises(InvalidSpecError, match="limited to 4096"):
        product(modular(128), modular(64))
    with pytest.raises(InvalidSpecError, match="limited to 4096"):
        idealization(modular(128), make_module(modular(128), "regular"))
    with pytest.raises(InvalidSpecError, match="limited to 4096"):
        make_module(modular(17), ("product", "regular", ("product", "regular", "regular")))


def test_unit_leading_coefficient_normalizes():
    # 3x^2+1 over Z4: 3 is a unit, the modulus normalizes to x^2+3
    ring = poly_quotient(4, [1, 0, 3])
    assert ring.origin == ("poly_quotient", 4, (3, 0, 1))
    assert ring.size == 16


def test_axiom_check_runs_on_corpus_rings():
    # every builder's output from the corpus passes the check its recipe skips
    rings = _builder_outputs()
    kinds = {ring.origin[0] for ring in rings}
    assert kinds == {"modular", "poly_quotient", "product", "quotient", "localization",
                     "idealization"}
    assert len(rings) > 300
    for ring in rings:
        assert check_ring_axioms(ring) == ring.neg, ring.key


def test_unit_xor_zero_divisor():
    for ring in (modular(12), modular(16), poly_quotient(4, [0, 0, 1]),
                 product(modular(2), modular(4))):
        for a in ring.list_elements():
            cls = classify_element(ring, a)
            assert cls.is_unit != (cls.is_zero or cls.is_zero_divisor)
            assert cls.is_regular == cls.is_unit
            if cls.is_nilpotent:
                assert cls.is_zero or cls.is_zero_divisor


def test_field_implies_vnr_on_sample():
    for n in (2, 3, 5, 7, 11, 13):
        rc = classify_ring(modular(n))
        assert rc.is_field and rc.is_von_neumann_regular


def test_element_payloads_are_canonical():
    ring = poly_quotient(4, [0, 0, 0, 1])
    a = ring.from_payload((2, 1, 3))
    assert a.payload == (2, 1, 3)
    with pytest.raises(InvalidSpecError):
        ring.from_payload((4, 0, 0))      # not reduced mod 4


# ---------------------------------------------------------------------------
# the exact axiom check against corrupted tables
# ---------------------------------------------------------------------------

def _z8_mod_4():
    z8 = modular(8)
    return quotient_ring(z8, ideal_from_generators(z8, [z8.el(4)])).ring


def _z4_idealization():
    z4 = modular(4)
    return idealization(z4, make_module(z4, "regular")).ring


# ring builder and the cell pair to corrupt, by name
MUTATION_RINGS = {
    "Z12": (lambda: modular(12), 5, 7),
    "Z300": (lambda: modular(300), 17, 19),       # above 256 elements
    "Z300 row 0": (lambda: modular(300), 0, 151),
    "Z300 row 1": (lambda: modular(300), 1, 222),
    "Z300 late row": (lambda: modular(300), 298, 263),  # a row read backwards
    # 6 is not in (4) nor 4 in (6): of the checks on + only associativity reads them
    "Z300 (4, 6)": (lambda: modular(300), 4, 6),
    "Z4[x]/(x^2)": (lambda: poly_quotient(4, [0, 0, 1]), 6, 9),
    "Z2 x Z6": (lambda: product(modular(2), modular(6)), 4, 9),
    "Z4(+)Z4": (_z4_idealization, 6, 11),
}


def _with_tables(ring, add, mul, zero=None, one=None):
    """A ring on these tables under a recipe that names tables only: the axiom
    check takes the general route (a product's own route trusts its recipe)."""
    return Ring(("modular", len(add)), elements=list(range(len(add))), add=add, mul=mul,
                zero=ring.zero_idx if zero is None else zero,
                one=ring.one_idx if one is None else one)


@pytest.mark.parametrize("table", ["add", "mul"])
@pytest.mark.parametrize("build, a, b", MUTATION_RINGS.values(), ids=MUTATION_RINGS)
def test_axiom_check_rejects_one_corrupted_cell_pair(build, a, b, table):
    ring = build()
    add = [list(row) for row in ring.add]
    mul = [list(row) for row in ring.mul]
    cells = add if table == "add" else mul
    cells[a][b] = cells[b][a] = (cells[a][b] + 1) % ring.size
    with pytest.raises(InvalidSpecError):
        _with_tables(ring, add, mul)


@pytest.mark.parametrize("table", ["add", "action"])
@pytest.mark.parametrize("spec", ["regular", ("quotient", (0, 4))])
def test_module_check_rejects_one_corrupted_cell_pair(spec, table):
    z8 = modular(8)
    module = make_module(z8, spec)
    add = [list(row) for row in module.add]
    action = [list(row) for row in module.action]
    cells = add if table == "add" else action
    cells[2][3] = cells[3][2] = (cells[2][3] + 1) % module.size
    with pytest.raises(ConstructionError):
        Module(z8, module.recipe, module.elements, add, action, module.zero_idx, None)


def test_module_check_rejects_action_not_additive_in_m():
    # Z2 x Z2 on Z2^3 by (1,0).m = P(m), (0,1).m = m + P(m), with P fixing
    # 1 and 2 and killing the rest: unital, additive in r and associative,
    # but P(1) + P(2) != P(3)
    r22 = product(modular(2), modular(2))
    add = [[m ^ k for k in range(8)] for m in range(8)]
    p = [m if m in (1, 2) else 0 for m in range(8)]
    action = [[0] * 8, [m ^ p[m] for m in range(8)], p, list(range(8))]
    assert not _is_module_n3(r22, add, action, 0)
    with pytest.raises(ConstructionError, match="not additive in m"):
        Module(r22, ("regular",), list(range(8)), add, action, 0, None)


def test_axiom_checks_reject_structures_one_axiom_short():
    # Z3 with a wrong element named 0 or 1
    z3 = modular(3)
    for zero, one, message in ((2, 1, "additive identity"), (0, 2, "multiplicative identity")):
        assert not _is_ring_n3(z3.add, z3.mul, zero, one)
        with pytest.raises(InvalidSpecError, match=message):
            Ring(z3.origin, elements=z3.elements, add=z3.add, mul=z3.mul, zero=zero, one=one)
    # the Boolean semiring ({0,1}, or, and): every ring axiom but additive inverses
    add, mul = [[0, 1], [1, 1]], [[0, 0], [0, 1]]
    assert not _is_ring_n3(add, mul, 0, 1)
    with pytest.raises(InvalidSpecError, match="additive inverse"):
        Ring(("modular", 2), elements=[0, 1], add=add, mul=mul)
    # upper triangular 2x2 matrices over Z2, [[a,b],[0,c]] as 4a+2b+c: a ring,
    # but not a commutative one
    def matmul(i, j):
        (a, b, c), (x, y, z) = (i >> 2, i >> 1 & 1, i & 1), (j >> 2, j >> 1 & 1, j & 1)
        return (a & x) << 2 | ((a & y) ^ (b & z)) << 1 | (c & z)

    add = [[i ^ j for j in range(8)] for i in range(8)]
    mul = [[matmul(i, j) for j in range(8)] for i in range(8)]
    assert not _is_ring_n3(add, mul, 0, 5)
    with pytest.raises(InvalidSpecError, match="not commutative"):
        Ring(("modular", 8), elements=list(range(8)), add=add, mul=mul, zero=0, one=5)
    # Z4 acting on itself by zero: a module but for 1.m = m
    z4 = modular(4)
    action = [[0] * 4 for _ in range(4)]
    assert not _is_module_n3(z4, z4.add, action, 0)
    with pytest.raises(ConstructionError, match="not unital"):
        Module(z4, ("regular",), z4.elements, z4.add, action, 0, None)


def _is_abelian_group_n3(add, zero):
    r = range(len(add))
    return all(add[zero][a] == a and zero in add[a] for a in r) and all(
        add[a][b] == add[b][a] and add[add[a][b]][c] == add[a][add[b][c]]
        for a in r for b in r for c in r)


def _is_ring_n3(add, mul, zero, one):
    """Plain reference: every axiom on every pair and triple."""
    r = range(len(add))
    return (zero != one and _is_abelian_group_n3(add, zero)
            and all(mul[one][a] == a for a in r)
            and all(mul[a][b] == mul[b][a]
                    and mul[mul[a][b]][c] == mul[a][mul[b][c]]
                    and mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]]
                    for a in r for b in r for c in r))


def _is_module_n3(ring, add, act, zero):
    rr, mr = range(ring.size), range(len(add))
    return (_is_abelian_group_n3(add, zero)
            and all(act[ring.one_idx][m] == m for m in mr)
            and all(act[r][add[m][k]] == add[act[r][m]][act[r][k]]
                    for r in rr for m in mr for k in mr)
            and all(act[ring.add[r][s]][m] == add[act[r][m]][act[s][m]]
                    and act[ring.mul[r][s]][m] == act[r][act[s][m]]
                    for r in rr for s in rr for m in mr))


def _relabel(table, perm):
    """The table of the same operation on the elements renamed by perm."""
    out = [[None] * len(table) for _ in table]
    for a, row in enumerate(table):
        for b, c in enumerate(row):
            out[perm[a]][perm[b]] = perm[c]
    return out


def _corrupt(rng, tables):
    """Overwrite one or two cells; in a square table, a symmetric pair."""
    for _ in range(rng.randint(1, 2)):
        cells = rng.choice(tables)
        a, b = rng.randrange(len(cells)), rng.randrange(len(cells[0]))
        cells[a][b] = rng.randrange(len(cells[0]))
        if len(cells) == len(cells[0]):
            cells[b][a] = cells[a][b]


def _bilinear_mul(rng, d):
    """A random commutative unital bilinear product on Z2^d (elements as bit
    masks, basis vector 1 the identity): distributive by construction, and
    associative only sometimes."""
    basis = {(0, j): 1 << j for j in range(d)}
    for i in range(1, d):
        for j in range(i, d):
            basis[i, j] = rng.randrange(1 << d)
    out = []
    for a in range(1 << d):
        row = []
        for b in range(1 << d):
            c = 0
            for i in range(d):
                for j in range(d):
                    if a >> i & 1 and b >> j & 1:
                        c ^= basis[min(i, j), max(i, j)]
            row.append(c)
        out.append(row)
    return out


def _permutation_group(gens):
    """The composition table of the permutation group generated by gens,
    with the identity permutation at index 0."""
    elems = [tuple(range(len(gens[0])))]
    for p in elems:  # grows while it is read
        for g in gens:
            q = tuple(p[i] for i in g)
            if q not in elems:
                elems.append(q)
    index = {p: i for i, p in enumerate(elems)}
    return [[index[tuple(p[i] for i in q)] for q in elems] for p in elems]


SMALL_RINGS = [lambda: modular(12), lambda: modular(16), lambda: modular(15),
               lambda: poly_quotient(2, [0, 0, 0, 0, 1]),
               lambda: poly_quotient(2, [1, 1, 1]), lambda: poly_quotient(2, [0, 0, 1]),
               lambda: product(modular(2), modular(2)),
               lambda: product(modular(2), modular(8)), _z4_idealization]
CYCLIC_RINGS = [lambda: modular(n) for n in (5, 8, 9, 12, 15, 16)]
# tables of the builders other than Z_n and products, as they are built
BUILT_RINGS = [lambda: poly_quotient(3, [1, 0, 1]), lambda: poly_quotient(2, [1, 1, 0, 1]),
               lambda: poly_quotient(4, [0, 0, 1]), _z8_mod_4,
               lambda: quotient_ring(poly_quotient(2, [0, 0, 0, 1]),
                                     ideal_from_generators(poly_quotient(2, [0, 0, 0, 1]),
                                                           [(0, 0, 1)])).ring,
               _z4_idealization, lambda: _z8_idealization(("quotient", (0, 4)))]
# S3 and the dihedral group of order 8
NON_ABELIAN_GROUPS = [_permutation_group([(1, 0, 2), (1, 2, 0)]),
                      _permutation_group([(1, 2, 3, 0), (3, 2, 1, 0)])]


def _axiom_case(rng, kind, rings, cyclic, built):
    """(add, mul, zero, one, the failure message expected when the tables are
    not a ring) for one case of the given kind."""
    if kind == "one-cell":
        # a builder's own tables, one cell of one of them changed
        ring = rng.choice(built)
        add, mul = [list(row) for row in ring.add], [list(row) for row in ring.mul]
        cells = rng.choice([add, mul])
        a, b = rng.randrange(ring.size), rng.randrange(ring.size)
        cells[a][b] = rng.choice([x for x in range(ring.size) if x != cells[a][b]])
        return add, mul, ring.zero_idx, ring.one_idx, None
    if kind == "bilinear":
        # commutative, unital and distributive: only associativity can fail
        mul = _bilinear_mul(rng, rng.choice([2, 3, 4]))
        add = [[a ^ b for b in range(len(mul))] for a in range(len(mul))]
        return add, mul, 0, 1, "multiplication is not associative"
    if kind == "non-abelian":
        # a group table, relabelled, as the addition
        group = rng.choice(NON_ABELIAN_GROUPS)
        perm = list(range(len(group)))
        rng.shuffle(perm)
        mul = [[perm[0]] * len(group) for _ in group]
        return _relabel(group, perm), mul, perm[0], perm[1], "addition is not commutative"
    ring = rng.choice(rings if kind == "relabelled" else cyclic)
    perm = list(range(ring.size))
    if kind != "cyclic":
        rng.shuffle(perm)
    zero, one = perm[ring.zero_idx], perm[ring.one_idx]
    add, mul = _relabel(ring.add, perm), _relabel(ring.mul, perm)
    if kind == "relabelled":
        if rng.random() < 0.8:
            _corrupt(rng, [add, mul])
        return add, mul, zero, one, None
    if kind == "cyclic":
        # Z_n as built, so its additive generators are [1]; one cell of the
        # product in half of the cases
        if rng.random() < 0.5:
            a, b = rng.randrange(ring.size), rng.randrange(ring.size)
            mul[a][b] = rng.randrange(ring.size)
        return add, mul, zero, one, None
    if kind == "column":
        # a.1 != a for one a, while 1.a = a everywhere: the row of 1 is the
        # identity, and the table is not commutative
        a = rng.choice([x for x in range(ring.size) if x != one])
        mul[a][one] = rng.choice([x for x in range(ring.size) if x != a])
        return add, mul, zero, one, "multiplication is not commutative"
    # kind == "add-assoc": a symmetric pair of sums a+b moved off 0, so that
    # identity, inverses and commutativity hold and only associativity can fail
    a = rng.choice([x for x in range(ring.size) if x != zero])
    b = rng.choice([x for x in range(ring.size) if x != zero and add[a][x] != zero])
    add[a][b] = add[b][a] = rng.choice(
        [x for x in range(ring.size) if x not in (zero, add[a][b])])
    return add, mul, zero, one, "addition is not associative"


AXIOM_CASE_KINDS = ("bilinear", "relabelled", "relabelled", "cyclic", "column",
                    "add-assoc", "non-abelian", "one-cell")


def test_axiom_check_agrees_with_n3_reference():
    rng = random.Random(20211)
    rings = [build() for build in SMALL_RINGS]
    cyclic = [build() for build in CYCLIC_RINGS]
    built = [build() for build in BUILT_RINGS]
    verdicts = {True: 0, False: 0}
    generated_by_one = {True: 0, False: 0}
    for case in range(480):
        kind = AXIOM_CASE_KINDS[case % len(AXIOM_CASE_KINDS)]
        add, mul, zero, one, message = _axiom_case(rng, kind, rings, cyclic, built)
        expected = _is_ring_n3(add, mul, zero, one)
        try:
            Ring(("modular", len(add)), elements=list(range(len(add))), add=add, mul=mul,
                 zero=zero, one=one)
            failure = None
        except InvalidSpecError as exc:
            failure = str(exc)
        assert (failure is None) == expected, (kind, failure)
        if failure is not None and message is not None:
            assert failure.endswith(message), (kind, failure)
        verdicts[expected] += 1
        if _additive_generators(add, zero, one) == [one]:
            generated_by_one[expected] += 1
    assert min(verdicts.values()) >= 30
    assert min(generated_by_one.values()) >= 30


def test_module_check_agrees_with_n3_reference():
    rng = random.Random(20212)
    z4, z8 = modular(4), modular(8)
    modules = [make_module(z4, "regular"), make_module(z8, ("quotient", (0, 2, 4, 6))),
               make_module(z4, ("product", "regular", ("quotient", (0, 2)))),
               make_module(z8, ("quotient", (0, 4)))]
    twisted = [make_module(poly_quotient(2, f), "regular") for f in ([0, 0, 1], [1, 1, 1])]
    verdicts = {True: 0, False: 0}
    for case in range(180):
        module = rng.choice(twisted if case % 3 == 0 else modules)
        add = [list(row) for row in module.add]
        action = [list(row) for row in module.action]
        if case % 3 == 0:
            # r.m = phi(r)m for an additive phi with phi(1) = 1 and phi(x) random:
            # additive in r and in m, associative only when phi is multiplicative
            t = rng.randrange(4)
            phi = [module.ring.add[i & 1][t if i & 2 else 0] for i in range(4)]
            action = [module.ring.mul[phi[r]][:] for r in range(4)]
        elif rng.random() < 0.8:
            _corrupt(rng, [add, action])
        expected = _is_module_n3(module.ring, add, action, module.zero_idx)
        try:
            Module(module.ring, module.recipe, module.elements, add, action,
                   module.zero_idx, None)
            accepted = True
        except ConstructionError:
            accepted = False
        assert accepted == expected
        verdicts[expected] += 1
    assert min(verdicts.values()) >= 20


def test_poly_quotient_tables_match_coefficient_arithmetic():
    from deltan.rings import _poly_mul_reduce
    from deltan.verifier import builtin_corpus
    rings = [e.ring for e in builtin_corpus().entries if e.ring.origin[0] == "poly_quotient"]
    rings += [poly_quotient(2, [0] * 7 + [1]), poly_quotient(5, [0, 0, 0, 1]),
              poly_quotient(3, [1, 2, 0, 1])]
    assert len(rings) == 9
    for ring in rings:
        _, n, modulus = ring.origin
        index = {p: i for i, p in enumerate(ring.elements)}
        for i, a in enumerate(ring.elements):
            assert ring.add[i] == [index[tuple((x + y) % n for x, y in zip(a, b))]
                                   for b in ring.elements]
            assert ring.mul[i] == [index[_poly_mul_reduce(a, b, n, modulus)]
                                   for b in ring.elements]


@pytest.mark.parametrize("n", [2, 3, 8, 11, 13, 300])
def test_modular_tables_match_the_residue_formulas(n):
    ring = modular(n)  # rows are arrays above 256 elements: compared as lists
    assert [list(row) for row in ring.add] == [[(i + j) % n for j in range(n)] for i in range(n)]
    assert [list(row) for row in ring.mul] == [[(i * j) % n for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("sizes", [range(2, 301), [1009, 1021], [4096]],
                         ids=["2-300", "1009,1021", "4096"])
def test_modular_cells_and_negation_are_the_residues_themselves(sizes):
    # up to 256 elements every cell is the element int, not an equal copy: `is`,
    # not ==; above, a row is a view of 'H' cells and holds no int object to compare
    for n in sizes:
        ring = _build_modular(n)  # not interned
        elems = ring.elements
        assert elems == list(range(n))
        assert len(ring.add) == len(ring.mul) == n
        same = operator.is_ if n <= 256 else operator.eq
        for i, add_row, mul_row in zip(elems, ring.add, ring.mul):
            assert len(add_row) == len(mul_row) == n
            assert all(map(same, add_row, [elems[(i + j) % n] for j in elems]))
            assert all(map(same, mul_row, [elems[i * j % n] for j in elems]))
        assert ring.neg == [-i % n for i in elems]


# the two factor builders of a product, by "left-right" name (a-b for Z_a x Z_b)
PAIR_PRODUCTS = {
    "2-3": (lambda: modular(2), lambda: modular(3)),
    "8-8": (lambda: modular(8), lambda: modular(8)),
    "11-13": (lambda: modular(11), lambda: modular(13)),
    "Z6-Z3[x]/(x^2+1)": (lambda: modular(6), lambda: poly_quotient(3, [1, 0, 1])),
    "(Z2 x Z3)-Z4": (lambda: product(modular(2), modular(3)), lambda: modular(4)),
    "Z3-(Z2 x Z2[x]/(x^2))": (lambda: modular(3),
                              lambda: product(modular(2), poly_quotient(2, [0, 0, 1]))),
    "Z8/(4)-Z5": (_z8_mod_4, lambda: modular(5)),
    # skewed shapes: many blocks of two cells, and two blocks of many cells
    "128-2": (lambda: modular(128), lambda: modular(2)),
    "2-128": (lambda: modular(2), lambda: modular(128)),
}


@pytest.mark.parametrize("build_left, build_right", PAIR_PRODUCTS.values(), ids=PAIR_PRODUCTS)
def test_product_tables_match_the_pair_formula(build_left, build_right):
    # (x1, y1) + (x2, y2) = (x1 + x2, y1 + y2), and the same for products, read
    # off the factors' elements: the product's own axiom check trusts this
    left, right = build_left(), build_right()
    ring = product(left, right)
    assert ring.origin == ("product", left, right)
    assert len(ring.elements) == left.size * right.size
    index = {p: i for i, p in enumerate(ring.elements)}
    pairs = [(left.from_payload(x), right.from_payload(y)) for x, y in ring.elements]
    for i, (x1, y1) in enumerate(pairs):
        assert ring.add[i] == [index[((x1 + x2).payload, (y1 + y2).payload)]
                               for x2, y2 in pairs]
        assert ring.mul[i] == [index[((x1 * x2).payload, (y1 * y2).payload)]
                               for x2, y2 in pairs]
    assert ring.elements[ring.zero_idx] == (left.zero.payload, right.zero.payload)
    assert ring.elements[ring.one_idx] == (left.one.payload, right.one.payload)
    # -(x, y) = (-x, -y), and it is the inverse that the table holds
    assert ring.neg == [index[((-x).payload, (-y).payload)] for x, y in pairs]
    assert all(ring.add[i][ring.neg[i]] == ring.zero_idx for i in range(ring.size))


def test_product_axiom_check_runs_on_the_factors_only(monkeypatch):
    from deltan import rings
    sizes = []
    for name in ("_group_failure", "_associative_on", "_additive_on", "_commutative"):
        def counted(table, *args, _pass=getattr(rings, name)):
            sizes.append(len(table))
            return _pass(table, *args)
        monkeypatch.setattr(rings, name, counted)
    z31 = modular(31)
    ring = rings._product.__wrapped__(z31, z31)  # not memoised
    assert ring.size == 961
    # Z31 may be checked here, if no earlier test built it; the product is not
    assert max(sizes, default=0) <= 31


def test_a_product_origin_over_other_tables_takes_the_full_check():
    # the factor-only route goes by the tables that _product_tables made, not by an origin
    z2 = modular(2)
    real = product(z2, z2)
    twin = dict(elements=real.elements, add=[list(row) for row in real.add], zero=0, one=3)
    with pytest.raises(InvalidSpecError, match="1 is not a multiplicative identity"):
        Ring(("product", z2, z2), mul=[[0] * 4 for _ in range(4)], **twin)
    assert Ring(("product", z2, z2), mul=[list(row) for row in real.mul], **twin).neg == real.neg


@pytest.mark.parametrize("build", [
    lambda: modular(300),
    lambda: product(modular(17), modular(19)),
    lambda: poly_quotient(17, [0, 0, 1]),
    lambda: modular(256),
    lambda: product(modular(13), modular(19)),
    lambda: poly_quotient(16, [0, 0, 1]),
], ids=["Z300", "Z17 x Z19", "Z17[x]/(x^2)", "Z256", "Z13 x Z19", "Z16[x]/(x^2)"])
def test_table_cells_share_one_int_per_element(build):
    # list rows, up to 256 elements, share one int object per element; above,
    # rows of 2-byte 'H' cells (arrays, or Z_n's views) hold no int object at all
    ring = build()
    for table in (ring.add, ring.mul):
        if ring.size <= 256:
            assert len({id(cell) for row in table for cell in row}) <= ring.size
        else:
            assert set(map(_cell_layout, table)) == {("H", 2, ring.size)}


def _cell_layout(row):
    """(format, itemsize, length) of a row of buffer cells."""
    cells = memoryview(row)
    return cells.format, cells.itemsize, len(cells)


@pytest.mark.parametrize("n", [257, 300, 1021])
def test_modular_rows_are_read_only_views_of_two_shared_runs(n):
    # every row aliases its run, so a write through one row would change many
    ring = _build_modular(n)  # not interned
    for table, cells in ((ring.add, 2 * n), (ring.mul, n * n)):
        run = table[0].obj
        assert len(run) == cells
        for i, row in enumerate(table):
            assert type(row) is memoryview and row.readonly and row.obj is run
            with pytest.raises(TypeError):
                row[i % n] = 0


def _cut_pairs():
    """(at 256 elements, above 256) for each builder: Z_n, Z_n[x]/(f), a
    product, a quotient, a localization (at the powers of 3, so R/ker with ker
    nonzero, not R's own tables) and an idealization."""
    z256, z512, z600, z768, z1542 = (modular(n) for n in (256, 512, 600, 768, 1542))
    return {
        "modular": (z256, modular(257)),
        "poly_quotient": (poly_quotient(2, [0] * 8 + [1]), poly_quotient(257, [0, 1])),
        "product": (product(modular(16), modular(16)), product(modular(3), modular(86))),
        "quotient": (quotient_ring(z512, ideal_from_generators(z512, [z512.el(256)])).ring,
                     quotient_ring(z600, ideal_from_generators(z600, [z600.el(300)])).ring),
        "localization": (localize(z768, mult_closure(z768, [z768.el(3)])).ring,
                         localize(z1542, mult_closure(z1542, [z1542.el(3)])).ring),
        "idealization": (idealization(modular(16), make_module(modular(16), "regular")).ring,
                         idealization(modular(17), make_module(modular(17), "regular")).ring),
    }


def test_table_rows_are_lists_up_to_256_elements_and_arrays_above():
    for name, (small, large) in _cut_pairs().items():
        assert small.size == 256 and 256 < large.size <= 600, name
        for table in (small.add, small.mul):
            assert all(type(row) is list for row in table), name
        for table in (large.add, large.mul):
            assert set(map(_cell_layout, table)) == {("H", 2, large.size)}, name
    for ring, module_type in ((modular(16), list), (modular(17), array)):
        module = make_module(ring, ("product", "regular", "regular"))
        assert module.size == ring.size ** 2
        assert all(type(row) is module_type for row in module.add + module.action)


@pytest.mark.parametrize("build, bound", [
    (lambda: _build_modular(1009), 2_700_000),
    (lambda: _product.__wrapped__(modular(31), modular(31)), 5_000_000),
], ids=["Z1009", "Z31 x Z31"])
def test_a_ring_above_256_elements_holds_its_tables_in_2_byte_cells(build, bound):
    # two 1009^2 tables of 8-byte list slots would hold 16 MB, of 2-byte cells
    # 4 MB; Z1009's rows are views of one 1009^2-cell run (2.04 MB) and one of
    # 2018 cells, about 0.4 MB of view objects on top
    modular(31)  # the factors are built before the count starts
    tracemalloc.start()
    try:
        ring = build()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert ring.size in (1009, 961)
    assert held <= bound, held


# the passes over a whole table that the axiom checks of rings and modules run
AXIOM_PASSES = ("_associative_on", "_additive_on", "_commutative")


def _evaluations(monkeypatch, names=("_associative_on",)):
    """Record, by name, each call of the passes ``names`` in rings and in
    constructions, which imports them."""
    from deltan import constructions, rings
    seen = []
    for name in names:
        def recorded(*args, _name=name, _pass=getattr(rings, name)):
            seen.append(_name)
            return _pass(*args)
        for module in (rings, constructions):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, recorded)
    return seen


def test_modular_tables_are_proved_by_their_recipe(monkeypatch):
    seen = _evaluations(monkeypatch, AXIOM_PASSES)
    ring = _build_modular(12)
    assert seen == []
    assert ring.neg == [-i % 12 for i in range(12)]


@pytest.mark.parametrize("unit", [5, 7, 11])
def test_generated_by_one_without_the_successor_row(monkeypatch, unit):
    # Z12 relabelled by x -> unit * x: 1 still generates the additive group
    # (G = [1]), but the row of 1 is x -> x + unit, not the index successor;
    # such tables take the general route, associativity of + and of x on G
    z12 = modular(12)
    perm = [unit * x % 12 for x in range(12)]
    add, mul = _relabel(z12.add, perm), _relabel(z12.mul, perm)
    one = perm[z12.one_idx]
    assert _additive_generators(add, 0, one) == [one] and add[one] != list(range(1, 12)) + [0]
    seen = _evaluations(monkeypatch)
    ring = _with_tables(z12, add, mul, zero=0, one=one)
    assert seen == ["_associative_on", "_associative_on"]
    label_of = {k: x for x, k in enumerate(perm)}
    assert ring.neg == [perm[-label_of[k] % 12] for k in range(12)]
    for corrupted in ("add", "mul"):
        tables = {"add": [list(row) for row in add], "mul": [list(row) for row in mul]}
        cells = tables[corrupted]
        cells[3][8] = cells[8][3] = (cells[3][8] + 1) % 12
        with pytest.raises(InvalidSpecError):
            _with_tables(z12, tables["add"], tables["mul"], zero=0, one=one)


# ---------------------------------------------------------------------------
# builders prove their tables by recipe; the general check guards them here
# ---------------------------------------------------------------------------

def _ladder_rings():
    """The rings of the benchmark's ring ladder, 64 to 1021 elements."""
    return [modular(64), poly_quotient(2, [0] * 6 + [1]), product(modular(8), modular(8)),
            modular(128), poly_quotient(2, [0] * 7 + [1]), product(modular(11), modular(13)),
            poly_quotient(5, [0, 0, 0, 1]), modular(512), modular(1009), modular(1021),
            product(modular(31), modular(31))]


def test_builders_run_no_axiom_pass(monkeypatch):
    from deltan import rings, verifier
    cached = modular(64)
    monkeypatch.setattr(rings, "_RING_CACHE", {})  # every builder runs afresh
    seen = _evaluations(monkeypatch, AXIOM_PASSES)
    corpus = verifier.builtin_corpus.__wrapped__()
    ladder = _ladder_rings()
    assert len(corpus.entries) == 32 and len(ladder) == 11 and ladder[0] is not cached
    assert seen == []


def _builder_outputs():
    """Every ring of at most 256 elements that the builders make from the
    default corpus: the corpus rings, the quotients by every proper ideal, the
    localizations at the claims' multiplicative sets, and idealizations by the
    regular module and by R/I for every proper I."""
    from deltan.verifier import Context, builtin_corpus
    corpus = builtin_corpus()
    ctx = Context(corpus)
    out = []
    for entry in corpus.entries:
        ring = entry.ring
        out.append(ring)
        proper = [I for I in enumerate_ideals(ring) if I.is_proper]
        out += [quotient_ring(ring, I).ring for I in proper]
        out += [localize(ring, s).ring for s in ctx.mult_sets(ring)
                if ring.zero_idx not in s.indices]
        if ring.size <= 16:
            out += [idealization(ring, make_module(ring, spec)).ring
                    for spec in ["regular"] + [("quotient", I) for I in proper]]
    return [ring for ring in out if ring.size <= 256]


@st.composite
def _built_rings(draw, depth=2):
    """A ring of at most 256 elements, built by deltan's builders from a drawn recipe."""
    kinds = ["modular", "poly_quotient"]
    kind = draw(st.sampled_from(kinds + ["product", "quotient", "localization",
                                         "idealization"] if depth else kinds))
    if kind == "modular":
        return modular(draw(st.integers(2, 40)))
    if kind == "poly_quotient":
        n = draw(st.integers(2, 6))
        d = draw(st.integers(1, {2: 5, 3: 3, 4: 3, 5: 3}.get(n, 2)))
        return poly_quotient(n, draw(st.lists(st.integers(0, n - 1), min_size=d,
                                              max_size=d)) + [1])
    base = draw(_built_rings(depth - 1))
    if kind == "product":
        other = draw(_built_rings(depth - 1))
        assume(base.size * other.size <= 256)
        return product(base, other)
    proper = [I for I in enumerate_ideals(base) if I.is_proper]
    if kind == "quotient":
        return quotient_ring(base, draw(st.sampled_from(proper))).ring
    if kind == "localization":
        sset = mult_closure(base, [base.el(draw(st.integers(0, base.size - 1)))])
        assume(base.zero_idx not in sset.indices)
        return localize(base, sset).ring
    module = make_module(base, draw(st.sampled_from(
        ["regular"] + [("quotient", I) for I in proper])))
    assume(base.size * module.size <= 256)
    return idealization(base, module).ring


@settings(max_examples=80, deadline=None)
@given(_built_rings())
def test_drawn_builder_outputs_pass_the_general_check(ring):
    assert check_ring_axioms(ring) == ring.neg


def test_builder_outputs_above_256_elements_pass_the_general_check():
    # their rows hold 'H' cells (arrays, or Z_n's views), which never equal a
    # list: the check compares rows by their cells
    z17 = modular(17)
    izr = idealization(z17, make_module(z17, "regular")).ring
    z600 = modular(600)
    rings = [modular(300), product(z17, modular(19)), poly_quotient(17, [0, 0, 1]), izr,
             quotient_ring(z600, ideal_from_generators(z600, [z600.el(300)])).ring,
             localize(izr, mult_closure(izr, [izr.el(16 * 17)])).ring]
    for ring in rings:
        assert ring.size > 256 and _cell_layout(ring.mul[0]) == ("H", 2, ring.size)
        assert check_ring_axioms(ring) == ring.neg
        assert Ring(ring.origin, elements=ring.elements, add=ring.add, mul=ring.mul,
                    zero=ring.zero_idx, one=ring.one_idx).neg == ring.neg


def test_a_trivial_congruence_shares_the_base_tables():
    # R/(0), {1}^-1 R and the localization at the units are R on R's own lists,
    # as ker = 0; at 3 the classes are fewer
    z12 = modular(12)
    for ring in (quotient_ring(z12, ideal_from_generators(z12, [])).ring,
                 localize(z12, mult_closure(z12, [])).ring,
                 localize(z12, mult_closure(z12, [5, 7])).ring):
        assert ring.add is z12.add and ring.mul is z12.mul and ring.neg == z12.neg
    ring = localize(z12, mult_closure(z12, [3])).ring
    assert ring.size == 4 and ring.add is not z12.add


def test_a_degree_1_polynomial_quotient_shares_the_tables_of_z_n(monkeypatch):
    # Z_n[x]/(x + c) is Z_n, the constant (a,) at index a; above 256 elements too.
    # The quotient holds its Z_n, so modular(n) is the Z_n whose tables it shares
    # whichever was built first, also once nothing else holds Z_n
    for n, c in ((12, 5), (300, 1)):
        for quotient_first in (False, True):
            monkeypatch.setattr("deltan.rings._RING_CACHE", weakref.WeakValueDictionary())
            first = poly_quotient(n, [c, 1]) if quotient_first else modular(n)
            gc.collect()
            zn, ring = modular(n), poly_quotient(n, [c, 1])
            assert ring.elements == [(a,) for a in range(n)] and ring.one_idx == zn.one_idx
            assert ring.add is zn.add and ring.mul is zn.mul and ring.neg is zn.neg
            assert ([I.mask for I in enumerate_ideals(ring)]
                    == [I.mask for I in enumerate_ideals(zn)])
            del first, zn
            gc.collect()
            assert modular(n).add is ring.add


# the builders and one cell pair to corrupt in a copy of their tables
FORGED_ORIGINS = {
    "modular": (lambda: modular(12), 5, 7),
    "poly_quotient": (lambda: poly_quotient(3, [1, 0, 1]), 4, 8),
    "product": (lambda: product(modular(2), modular(6)), 4, 9),
    "quotient": (_z8_mod_4, 1, 3),
    "localization": (lambda: localize(modular(12), mult_closure(modular(12), [3])).ring, 1, 2),
    "idealization": (_z4_idealization, 6, 11),
}


@pytest.mark.parametrize("table", ["add", "mul"])
@pytest.mark.parametrize("build, a, b", FORGED_ORIGINS.values(), ids=FORGED_ORIGINS)
def test_forged_tables_under_a_builder_origin_are_refused(build, a, b, table):
    ring = build()
    tables = {"add": [row[:] for row in ring.add], "mul": [row[:] for row in ring.mul]}
    cells = tables[table]
    cells[a][b] = cells[b][a] = (cells[a][b] + 1) % ring.size
    with pytest.raises(InvalidSpecError):
        Ring(ring.origin, elements=ring.elements, zero=ring.zero_idx, one=ring.one_idx,
             **tables)
    # the same tables unforged pass, under the same origin
    assert Ring(ring.origin, elements=ring.elements, add=ring.add, mul=ring.mul,
                zero=ring.zero_idx, one=ring.one_idx).neg == ring.neg


# one malformed table of Z2 each, with the message that names its first bad cell
MALFORMED_Z2 = {
    "a cell of 5": ("add", [[0, 1], [5, 0]], r"add\[1\]\[0\] is 5, not an element index 0..1"),
    "a short row": ("add", [[0, 1], [1]], "add is not 2 rows of 2 cells"),
    "an extra row": ("mul", [[0, 0], [0, 1], [0, 1]], "mul is not 2 rows of 2 cells"),
    "a str cell": ("mul", [[0, "0"], [0, 1]], r"mul\[0\]\[1\] is '0'"),
    # a negative index would wrap round to the last row
    "a negative cell": ("add", [[0, -2], [1, 0]], r"add\[0\]\[1\] is -2"),
    # True == 1, so the axioms alone would accept it
    "a bool cell": ("mul", [[0, 0], [0, True]], r"mul\[1\]\[1\] is True"),
}


@pytest.mark.parametrize("name, table, message", MALFORMED_Z2.values(), ids=MALFORMED_Z2)
def test_ring_refuses_a_malformed_table_naming_the_first_bad_cell(name, table, message):
    tables = {"add": [[0, 1], [1, 0]], "mul": [[0, 0], [0, 1]], name: table}
    with pytest.raises(InvalidSpecError, match=message):
        Ring(("modular", 2), elements=[0, 1], **tables)


# zero=5 and one=7 would be read as table rows in the axiom check; True == 1 would pass it
@pytest.mark.parametrize("name, value", [("zero", 5), ("one", 7), ("one", True)])
def test_ring_refuses_a_zero_or_one_that_is_not_an_element_index(name, value):
    with pytest.raises(InvalidSpecError, match=rf"{name} is {value!r}, not an element index 0..1"):
        Ring(("modular", 2), elements=[0, 1], add=[[0, 1], [1, 0]], mul=[[0, 0], [0, 1]],
             **{name: value})


def test_module_refuses_a_zero_outside_its_elements():
    with pytest.raises(ConstructionError, match="zero is 9, not an element index 0..1"):
        Module(modular(2), ("regular",), [0, 1], [[0, 1], [1, 0]], [[0, 0], [0, 1]], 9, None)


def test_module_refuses_a_cell_outside_its_elements():
    with pytest.raises(ConstructionError, match=r"action\[1\]\[0\] is 7"):
        Module(modular(2), ("regular",), [0, 1], [[0, 1], [1, 0]], [[0, 0], [7, 1]], 0, None)


def test_a_callers_tables_are_stored_in_the_builders_row_type():
    z300 = modular(300)
    ring = Ring(z300.origin, elements=z300.elements, add=[list(row) for row in z300.add],
                mul=[list(row) for row in z300.mul])
    assert all(type(row) is array and row.typecode == "H" for row in ring.add + ring.mul)
    assert ring.add == z300.add and ring.mul == z300.mul
    small = Ring(("modular", 2), elements=[0, 1], add=((0, 1), (1, 0)), mul=((0, 0), (0, 1)))
    assert small.add == [[0, 1], [1, 0]] and small.mul == [[0, 0], [0, 1]]


# ---------------------------------------------------------------------------
# element and ring flags against a brute-force oracle
# ---------------------------------------------------------------------------

def _flag_oracle_rings():
    from deltan.verifier import builtin_corpus
    return [e.ring for e in builtin_corpus().entries] + [
        product(modular(6), modular(10)), poly_quotient(3, [1, 0, 1]),
        product(product(modular(2), modular(2)), modular(2))]


def test_element_and_ring_flags_match_a_brute_force_oracle():
    from deltan.rings import ElementClass
    rings = _flag_oracle_rings()
    checked = 0
    for ring in rings:
        n, mul, zero, one = ring.size, ring.mul, ring.zero_idx, ring.one_idx
        elems = range(n)
        units, nilpotents, idempotents = set(), set(), set()
        for a in elems:
            # the least k >= 1 with a^k = 0, by repeated multiplication
            power, index = a, None
            for k in range(1, n + 1):
                if power == zero:
                    index = k
                    break
                power = mul[power][a]
            kills = any(mul[a][x] == zero for x in elems if x != zero)
            unit = any(mul[a][x] == one for x in elems)
            expected = ElementClass(
                is_zero=a == zero, is_unit=unit, is_nilpotent=index is not None,
                nilpotency_index=index, is_zero_divisor=a != zero and kills,
                is_regular=a != zero and not kills, is_idempotent=mul[a][a] == a)
            assert classify_element(ring, ring.el(a)) == expected, (ring.key, a)
            units |= {a} if unit else set()
            nilpotents |= {a} if index is not None else set()
            idempotents |= {a} if mul[a][a] == a else set()
            checked += 1
        nonzero = [a for a in elems if a != zero]
        rc = classify_ring(ring)
        assert rc.is_field == (set(nonzero) <= units), ring.key
        assert rc.is_integral_domain == all(mul[a][b] != zero
                                            for a in nonzero for b in nonzero), ring.key
        assert rc.is_reduced == (nilpotents == {zero}), ring.key
        assert rc.is_von_neumann_regular == all(
            any(mul[mul[a][a]][x] == a for x in elems) for a in elems), ring.key
        assert rc.is_boolean == (idempotents == set(elems)), ring.key
    assert len(rings) == 35 and checked == 600


def test_oversized_moduli_are_refused_before_their_key_is_printed():
    from deltan.ideals import integer_ideal
    huge = 10 ** 5000  # more digits than an int may be converted to a string with
    zz = integers()
    for build in (lambda: modular(huge), lambda: poly_quotient(huge, [0, 1]),
                  lambda: quotient_ring(zz, integer_ideal(zz, huge))):
        with pytest.raises(InvalidSpecError, match="n of 5001 digits"):
            build()
    with pytest.raises(InvalidSpecError, match=r"n of 4 digits, would have n\^3 elements"):
        poly_quotient(4097, [0, 0, 0, 1])


HUGE = 10 ** 5000  # more digits than an int may be converted to a string with


def test_poly_quotient_with_a_huge_modulus_and_a_non_unit_lead_is_refused_by_size():
    # the leading-coefficient message would print n; a modulus too long to
    # print is refused by its size instead
    with pytest.raises(InvalidSpecError, match=r"degree 1, n of 5001 digits, would have n\^1"):
        poly_quotient(HUGE, [1, 2])


def test_modular_refuses_a_huge_modulus_before_its_key():
    with pytest.raises(InvalidSpecError, match="Z_n, n of 5001 digits, would have n elements"):
        modular(HUGE)


def test_product_refuses_a_huge_modular_factor_before_its_key():
    # a factor that is an int, not a ring, is refused by its type, not printed
    with pytest.raises(InvalidSpecError, match="product factors must be rings; got int"):
        product(modular(2), HUGE)
