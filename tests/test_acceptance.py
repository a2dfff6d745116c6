"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; any assertion failure prints FAIL for its criterion and fails the test.
"""

import time
from contextlib import contextmanager

from deltan import (classify_ideal, classify_ring, delta_n_spectrum,
                    delta_n_witness, delta_plus, delta0, delta1,
                    derive_product_expansion,
                    enumerate_ideals, ideal_from_generators, integer_ideal,
                    integers, is_delta_n_ideal, modular, nilradical,
                    poly_quotient, product, profile_expansion, radical,
                    zero_ideal, colon)
from deltan.ideals import _bits
from deltan.verifier import builtin_corpus, catalog, run_claims


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"\n[criterion {number:02d}] {name}: FAIL")
        raise
    else:
        print(f"\n[criterion {number:02d}] {name}: PASS")


def _report(claim_id):
    return run_claims(claim_ids=[claim_id])[0]


def test_c01_four_method_agreement_under_60s():
    with criterion(1, "four-way equivalence over the full corpus, under 60s"):
        start = time.monotonic()
        rep = _report("thm-four-equivalents")
        elapsed = time.monotonic() - start
        assert rep.failed == 0 and rep.hypothesis_not_met == 0
        assert rep.instances_checked > 1500
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_c02_z6_inline_counterexample():
    with criterion(2, "Z6 zero ideal fails delta0/delta1 with witness (2, 3)"):
        z6 = modular(6)
        zero = zero_ideal(z6)
        for delta in (delta0(z6), delta1(z6)):
            assert not is_delta_n_ideal(zero, delta)
            a, b = delta_n_witness(zero, delta)
            assert (a.idx, b.idx) == (2, 3)
        assert _report("ex-z6-zero-not-n").failed == 0


def test_c03_integer_delta_plus_example():
    with criterion(3, "pZ is delta_plus(qZ)-n but not delta0/delta1-n, p,q <= 100"):
        zz = integers()
        d0, d1 = delta0(zz), delta1(zz)
        primes = [n for n in range(2, 101)
                  if all(n % p for p in range(2, n) if p * p <= n)]
        for p in primes:
            I = integer_ideal(zz, p)
            for q in primes:
                if p == q:
                    continue
                dp = delta_plus(zz, integer_ideal(zz, q))
                assert is_delta_n_ideal(I, dp)
                assert not is_delta_n_ideal(I, d0)
                assert not is_delta_n_ideal(I, d1)
        assert _report("ex-int-delta-plus").failed == 0


def _every_ideal_conditions(ring):
    expansions = catalog(ring)
    lattice = enumerate_ideals(ring)
    principal = {}
    for a in ring.list_elements():
        P = ideal_from_generators(ring, [a])
        if P.is_proper:
            principal[P.mask] = P
    c1 = all(is_delta_n_ideal(P, d) for d in expansions for P in principal.values())
    c2 = all(is_delta_n_ideal(I, d) for d in expansions
             for I in lattice if I.is_proper)
    nil = nilradical(ring)
    c3 = [I for I in lattice if classify_ideal(I).is_prime] == [nil]
    rc = classify_ring(ring)
    c4 = rc.is_quasi_local and rc.maximal_ideal == nil
    return (c1, c2, c3, c4)


def test_c04_every_ideal_equivalence():
    with criterion(4, "every-ideal equivalence: listed rings, no mixed outcomes"):
        all_true = [modular(4), modular(8), modular(9), modular(27), modular(32),
                    poly_quotient(2, [0, 0, 0, 1])]
        all_false = [modular(6), modular(10), modular(12),
                     product(modular(2), modular(2))]
        for ring in all_true:
            assert _every_ideal_conditions(ring) == (True,) * 4, ring.key
        for ring in all_false:
            assert _every_ideal_conditions(ring) == (False,) * 4, ring.key
        for entry in builtin_corpus().entries:
            conds = _every_ideal_conditions(entry.ring)
            assert len(set(conds)) == 1, (entry.ring.key, conds)
        assert _report("thm-every-ideal-quasilocal").failed == 0


def test_c05_existence_equivalence():
    with criterion(5, "existence equivalence under the colon hypothesis"):
        rep = _report("thm-existence")
        assert rep.failed == 0
        assert rep.holds > 0 and rep.hypothesis_not_met > 0
        z12, z8 = modular(12), modular(8)
        assert delta_n_spectrum(z12, delta0(z12)).all == ()
        spec8 = delta_n_spectrum(z8, delta0(z8))
        assert [I.size for I in spec8.all] == [1, 2, 4]
        assert spec8.maximal_members == (nilradical(z8),)
        assert profile_expansion(delta0(z12)).colon_condition
        assert profile_expansion(delta0(z8)).colon_condition


def test_c06_product_obstruction():
    with criterion(6, "no delta_x-n-ideal with a proper component value"):
        rep = _report("rem-product-obstruction")
        assert rep.failed == 0 and rep.holds > 0
        # direct scan: every spectrum member has both component values improper
        from deltan.verifier import Context
        ctx = Context(builtin_corpus())
        for key in ("prod(Z2,Z2)", "prod(Z4,Z9)", "prod(Z2,Z4)"):
            ring = next(e.ring for e in ctx.entries if e.ring.key == key)
            _, left, right = ring.origin
            sr = right.size
            for d1 in catalog(left):
                for d2 in catalog(right):
                    dx = derive_product_expansion(d1, d2)
                    for I in delta_n_spectrum(ring, dx).all:
                        m1 = m2 = 0
                        for idx in _bits(I.mask):
                            m1 |= 1 << (idx // sr)
                            m2 |= 1 << (idx % sr)
                        assert d1.table[m1] == left.full_mask
                        assert d2.table[m2] == right.full_mask


def test_c07_idealization_equivalence():
    with criterion(7, "idealization equivalence, exhaustive homogeneous scan"):
        rep = _report("prop-idealization-transfer")
        assert rep.failed == 0
        # the two larger idealization rings contribute nontrivially
        corpus_keys = [e.ring.key for e in builtin_corpus().entries]
        assert "idz(Z4,regular)" in corpus_keys
        assert "idz(Z8,quot[0,4])" in corpus_keys
        assert rep.instances_checked >= 100


def test_c08_quotient_and_localization_transfer():
    with criterion(8, "quotient and localization transfer, zero failures"):
        for claim_id in ("cor-quotient-forward", "cor-quotient-back-nilpotent",
                         "cor-quotient-back-delta-n", "prop-loc-forward",
                         "prop-loc-backward"):
            rep = _report(claim_id)
            assert rep.failed == 0, claim_id
            assert rep.hypothesis_not_met > 0, claim_id
            print(f"  {claim_id}: checked={rep.instances_checked} "
                  f"holds={rep.holds} hypothesis_not_met={rep.hypothesis_not_met}")


def test_c09_von_neumann_equivalence():
    with criterion(9, "field iff von Neumann regular and (0) delta-n"):
        rep = _report("thm-von-neumann-field")
        assert rep.failed == 0
        ring = product(modular(2), modular(2))
        rc = classify_ring(ring)
        assert rc.is_von_neumann_regular and not rc.is_field
        zero = zero_ideal(ring)
        zero_fixed = [d for d in catalog(ring)
                      if profile_expansion(d).zero_fixed]
        assert zero_fixed
        for d in zero_fixed:
            assert not is_delta_n_ideal(zero, d), d.name()


def test_c10_example_audit():
    with criterion(10, "the (x+1) ideal of Z4[x]/(x^3) is the unit ideal"):
        ring = poly_quotient(4, [0, 0, 0, 1])
        a = ring.from_payload((1, 1, 0))
        b = ring.from_payload((1, 3, 1))
        assert a * b == ring.one
        J = ideal_from_generators(ring, [a])
        assert not J.is_proper
        rep = _report("audit-example-unit-ideal")
        assert rep.failed == 0
        assert any("inconsistent with the computation" in n for n in rep.notes)


def _brute_force_ideal_masks(ring):
    n = ring.size
    add, mul = ring.add, ring.mul
    zero = ring.zero_idx
    out = []
    for mask in range(1, 1 << n):
        if not mask >> zero & 1:
            continue
        bits = [i for i in range(n) if mask >> i & 1]
        ok = True
        for a in bits:
            row = add[a]
            for b in bits:
                if not mask >> row[b] & 1:
                    ok = False
                    break
            if not ok:
                break
            for r in range(n):
                if not mask >> mul[r][a] & 1:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(mask)
    return sorted(out)


def test_c11_oracle_equivalence():
    with criterion(11, "lattice, radical, colon match brute-force oracles (<=16)"):
        for entry in builtin_corpus().entries:
            ring = entry.ring
            if ring.size > 16:
                continue
            lattice_masks = sorted(I.mask for I in enumerate_ideals(ring))
            assert lattice_masks == _brute_force_ideal_masks(ring), ring.key
            for I in enumerate_ideals(ring):
                rad_oracle = set()
                for r in ring.list_elements():
                    power = r
                    for _ in range(ring.size):
                        if I.contains(power):
                            rad_oracle.add(r.idx)
                            break
                        power = power * r
                assert {e.idx for e in radical(I).elements()} == rad_oracle
                for x in ring.list_elements():
                    col_oracle = {r.idx for r in ring.list_elements()
                                  if I.contains(r * x)}
                    assert {e.idx for e in colon(I, x).elements()} == col_oracle


def test_c12_zero_divisor_criterion():
    with criterion(12, "sqrt(0) delta-n iff quotient zero divisors delta_q-nilpotent"):
        rep = _report("prop-zero-divisor-quotient")
        assert rep.failed == 0 and rep.hypothesis_not_met == 0
        assert rep.instances_checked > 300
