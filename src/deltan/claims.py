"""Executable claim registry for the delta-n-ideal theory.

Each claim pairs a formal statement with a checker that quantifies over corpus
instances and yields one verdict per instance: ``holds``, ``skip`` (hypothesis
not met), or ``fail`` with a concrete witness.  Checkers are deterministic:
corpus order, catalog order, lattice order, element order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import constructions, ideals, predicates
from .constructions import (enumerate_submodules, localize, preimage_ideal,
                            image_ideal, is_delta_gamma_homomorphism,
                            quotient_ring)
from .expansions import (apply_expansion, compose_expansions, delta0, delta1,
                         delta_plus, derive_idealization_expansion,
                         derive_localized_expansion, derive_product_expansion,
                         derive_quotient_expansion, localization_value_collisions,
                         profile_expansion)
from .ideals import (_bits, _colon_mask, _mk_ideal, _z_i_mask,
                     classify_ideal, enumerate_ideals, ideal_combine,
                     ideal_from_generators, integer_ideal, nilradical, radical,
                     special_sets, zero_ideal)
from .predicates import (delta_n_spectrum, delta_n_witness, is_delta_n_ideal,
                         is_delta_primary, is_n_ideal, n_ideal_witness)
from .rings import classify_ring, memo, modular, poly_quotient


HOLDS, SKIP, FAIL = "holds", "skip", "fail"


@dataclass(frozen=True)
class Witness:
    ring: str = ""
    expansion: str = ""
    ideal: str = ""
    elements: str = ""
    detail: str = ""

    def to_dict(self):
        return {"ring": self.ring, "expansion": self.expansion,
                "ideal": self.ideal, "elements": self.elements,
                "detail": self.detail}

    def text(self):
        parts = []
        for label, value in (("ring", self.ring), ("expansion", self.expansion),
                             ("ideal", self.ideal), ("elements", self.elements),
                             ("detail", self.detail)):
            if value:
                parts.append(f"{label}={value}")
        return "; ".join(parts)


@dataclass(frozen=True)
class Claim:
    id: str
    title: str
    statement: str
    quantifies: str
    self_test: bool = False
    notes: tuple = field(default_factory=tuple)


@memo
def _proper(ring):
    return tuple(I for I in enumerate_ideals(ring) if I.is_proper)


def _dn(I, delta):
    return is_delta_n_ideal(I, delta)


def _wit(ring, delta=None, ideal=None, elements=None, detail=""):
    return Witness(
        ring=ring.key,
        expansion=delta.name() if delta is not None else "",
        ideal=repr(ideal) if ideal is not None else "",
        elements=elements or "",
        detail=detail,
    )


def _pair_repr(a, b):
    return f"a={a!r}, b={b!r}"


# ---------------------------------------------------------------------------
# single-ring claims
# ---------------------------------------------------------------------------

def _check_four_equivalents(ctx):
    for entry in ctx.entries:
        ring = entry.ring
        for delta in entry.expansions:
            for I in _proper(ring):
                values = [is_delta_n_ideal(I, delta, method=m)
                          for m in predicates.DELTA_N_METHODS]
                if len(set(values)) == 1:
                    yield HOLDS, None
                else:
                    detail = ", ".join(f"{m}={v}" for m, v in
                                       zip(predicates.DELTA_N_METHODS, values))
                    yield FAIL, _wit(ring, delta, I, detail=detail)


def _check_subset_nilradical(ctx):
    for entry in ctx.entries:
        ring = entry.ring
        nil = nilradical(ring)
        for delta in entry.expansions:
            for I in _proper(ring):
                if apply_expansion(delta, I).is_proper and _dn(I, delta):
                    if I.issubset(nil):
                        yield HOLDS, None
                    else:
                        yield FAIL, _wit(ring, delta, I,
                                         detail="I is not inside sqrt(0)")
                else:
                    yield SKIP, None


def _check_z6_counterexample(ctx):
    ring = modular(6)
    zero = zero_ideal(ring)
    for delta in (delta0(ring), delta1(ring)):
        wit = delta_n_witness(zero, delta)
        if wit is None:
            yield FAIL, _wit(ring, delta, zero, detail="(0) was judged delta-n")
        elif (wit[0].idx, wit[1].idx) != (2, 3):
            yield FAIL, _wit(ring, delta, zero, elements=_pair_repr(*wit),
                             detail="expected witness a=2, b=3")
        else:
            yield HOLDS, None


def _check_primary_to_delta_n(ctx):
    for entry in ctx.entries:
        ring = entry.ring
        nil = nilradical(ring)
        for delta in entry.expansions:
            for I in _proper(ring):
                if I.issubset(nil) and is_delta_primary(I, delta):
                    if _dn(I, delta):
                        yield HOLDS, None
                    else:
                        yield FAIL, _wit(ring, delta, I,
                                         elements=_pair_repr(*delta_n_witness(I, delta)))
                else:
                    yield SKIP, None


def _check_nilradical_primary_iff(ctx):
    for entry in ctx.entries:
        ring = entry.ring
        nil = nilradical(ring)
        for delta in entry.expansions:
            if is_delta_primary(nil, delta) == _dn(nil, delta):
                yield HOLDS, None
            else:
                yield FAIL, _wit(ring, delta, nil,
                                 detail="delta-primary and delta-n disagree at sqrt(0)")


def _primes_up_to(bound):
    out = []
    for n in range(2, bound + 1):
        if all(n % p for p in out if p * p <= n):
            out.append(n)
    return out


def _check_integer_delta_plus(ctx):
    zz = ctx.zz
    d0, d1 = delta0(zz), delta1(zz)
    primes = _primes_up_to(100)
    for p in primes:
        I = integer_ideal(zz, p)
        for q in primes:
            if p == q:
                continue
            dp = delta_plus(zz, integer_ideal(zz, q))
            ok = (_dn(I, dp) and not _dn(I, d0) and not _dn(I, d1)
                  and not is_n_ideal(I))
            if ok:
                yield HOLDS, None
            else:
                yield FAIL, _wit(zz, dp, I, detail=f"p={p}, q={q}")


def _check_primary_iff_subset(ctx):
    for entry in ctx.entries:
        ring = entry.ring
        nil = nilradical(ring)
        for delta in entry.expansions:
            for I in _proper(ring):
                if apply_expansion(delta, I).is_proper and is_delta_primary(I, delta):
                    if _dn(I, delta) == I.issubset(nil):
                        yield HOLDS, None
                    else:
                        yield FAIL, _wit(ring, delta, I)
                else:
                    yield SKIP, None


def _check_prime_iff_nilradical(ctx):
    for entry in ctx.entries:
        ring = entry.ring
        nil = nilradical(ring)
        for delta in entry.expansions:
            for I in _proper(ring):
                if classify_ideal(I).is_prime and apply_expansion(delta, I).is_proper:
                    if _dn(I, delta) == (I == nil):
                        yield HOLDS, None
                    else:
                        yield FAIL, _wit(ring, delta, I)
                else:
                    yield SKIP, None


def _check_every_ideal_quasilocal(ctx):
    for entry in ctx.entries:
        ring = entry.ring
        lattice = enumerate_ideals(ring)
        principal = []
        seen = set()
        for a in ring.list_elements():
            P = ideal_from_generators(ring, [a])
            if P.is_proper and P.mask not in seen:
                seen.add(P.mask)
                principal.append(P)
        c1 = all(_dn(P, d) for d in entry.expansions for P in principal)
        c2 = all(_dn(I, d) for d in entry.expansions for I in lattice if I.is_proper)
        nil = nilradical(ring)
        primes = [I for I in lattice if classify_ideal(I).is_prime]
        c3 = primes == [nil]
        rc = classify_ring(ring)
        c4 = rc.is_quasi_local and rc.maximal_ideal == nil
        if c1 == c2 == c3 == c4:
            yield HOLDS, None
        else:
            yield FAIL, _wit(ring, detail=f"principal={c1}, all={c2}, "
                                          f"unique-prime={c3}, quasi-local={c4}")


def _check_domain_only_zero(ctx):
    zz = ctx.zz
    for delta in (delta0(zz), delta1(zz)):
        for n in range(0, 1001):
            if n == 1:
                continue
            I = integer_ideal(zz, n)
            if _dn(I, delta) == (n == 0):
                yield HOLDS, None
            else:
                yield FAIL, _wit(zz, delta, I)


def _check_von_neumann_field(ctx):
    for entry in ctx.entries:
        ring = entry.ring
        rc = classify_ring(ring)
        zero = zero_ideal(ring)
        for delta in entry.expansions:
            if not profile_expansion(delta).zero_fixed:
                yield SKIP, None
                continue
            rhs = rc.is_von_neumann_regular and _dn(zero, delta)
            if rc.is_field == rhs:
                yield HOLDS, None
            else:
                yield FAIL, _wit(ring, delta, zero,
                                 detail=f"field={rc.is_field}, vnr-and-zero-delta-n={rhs}")


def _colon_hypothesis_at(ring, delta, I):
    """Per-ideal colon hypothesis: inclusion over x outside delta(I), and
    delta(I:x) proper over x outside I."""
    dmask = delta.table[I.mask]
    full = ring.full_mask
    for x in range(ring.size):
        cx = _colon_mask(ring, I.mask, x)
        if not (dmask >> x & 1):
            if _colon_mask(ring, dmask, x) & ~delta.table[cx]:
                return False
        if not (I.mask >> x & 1) and delta.table[cx] == full:
            return False
    return True


def _check_colon_stable(ctx):
    for entry in ctx.entries:
        ring = entry.ring
        full = ring.full_mask
        for delta in entry.expansions:
            table = delta.table
            is_radical = delta.kind == "delta1"
            for I in _proper(ring):
                if not _dn(I, delta):
                    continue
                dmask = table[I.mask]
                for x in range(ring.size):
                    if dmask >> x & 1:
                        continue
                    cx = _colon_mask(ring, I.mask, x)
                    inclusion = not (_colon_mask(ring, dmask, x) & ~table[cx])
                    proper_val = table[cx] != full
                    if not is_radical and not (inclusion and proper_val):
                        yield SKIP, None
                        continue
                    Ix = _mk_ideal(ring, cx)
                    ok = _dn(Ix, delta)
                    if is_radical:
                        ok = ok and inclusion and proper_val
                    if ok:
                        yield HOLDS, None
                    else:
                        yield FAIL, _wit(ring, delta, I,
                                         elements=f"x={ring.element_repr(x)}",
                                         detail=f"(I:x)={Ix!r}")


def _check_maximal_is_nilradical(ctx):
    for entry in ctx.entries:
        ring = entry.ring
        nil = nilradical(ring)
        for delta in entry.expansions:
            spectrum = delta_n_spectrum(ring, delta)
            for I in spectrum.maximal_members:
                if not _colon_hypothesis_at(ring, delta, I):
                    yield SKIP, None
                    continue
                if I == nil and classify_ideal(I).is_prime:
                    yield HOLDS, None
                else:
                    yield FAIL, _wit(ring, delta, I,
                                     detail="maximal member is not the prime nilradical")


def _check_existence(ctx):
    for entry in ctx.entries:
        ring = entry.ring
        nil = nilradical(ring)
        for delta in entry.expansions:
            if not profile_expansion(delta).colon_condition:
                yield SKIP, None
                continue
            nonempty = bool(delta_n_spectrum(ring, delta).all)
            prime = classify_ideal(nil).is_prime
            primary = is_delta_primary(nil, delta)
            if nonempty == prime == primary:
                yield HOLDS, None
            else:
                yield FAIL, _wit(ring, delta,
                                 detail=f"spectrum-nonempty={nonempty}, "
                                        f"nilradical-prime={prime}, "
                                        f"nilradical-delta-primary={primary}")


def _check_idem_colon_expansion(ctx):
    for entry in ctx.entries:
        ring = entry.ring
        nil_mask = nilradical(ring).mask
        for delta in entry.expansions:
            table = delta.table
            for I in _proper(ring):
                if table[table[I.mask]] != table[I.mask] or not _dn(I, delta):
                    yield SKIP, None
                    continue
                for a in range(ring.size):
                    if nil_mask >> a & 1:
                        continue
                    ca = _colon_mask(ring, I.mask, a)
                    if table[ca] == table[I.mask]:
                        yield HOLDS, None
                    else:
                        yield FAIL, _wit(ring, delta, I,
                                         elements=f"a={ring.element_repr(a)}")


def _check_idem_value_n_iff(ctx):
    for entry in ctx.entries:
        ring = entry.ring
        for delta in entry.expansions:
            table = delta.table
            for I in _proper(ring):
                d_val = apply_expansion(delta, I)
                if table[table[I.mask]] != table[I.mask] or not d_val.is_proper:
                    yield SKIP, None
                    continue
                if is_n_ideal(d_val) == _dn(d_val, delta):
                    yield HOLDS, None
                else:
                    yield FAIL, _wit(ring, delta, I, detail=f"delta(I)={d_val!r}")


def _check_idem_cancellation(ctx):
    for entry in ctx.entries:
        ring = entry.ring
        nil_mask = nilradical(ring).mask
        proper = _proper(ring)
        lattice = enumerate_ideals(ring)
        for delta in entry.expansions:
            table = delta.table
            for I in proper:
                if table[table[I.mask]] != table[I.mask] or not _dn(I, delta):
                    continue
                for J in proper:
                    if table[table[J.mask]] != table[J.mask] or not _dn(J, delta):
                        continue
                    for K in lattice:
                        if K.mask & ~nil_mask == 0:
                            continue
                        if ideals._product_mask(ring, I.mask, K.mask) != \
                           ideals._product_mask(ring, J.mask, K.mask):
                            continue
                        if table[I.mask] == table[J.mask]:
                            yield HOLDS, None
                        else:
                            yield FAIL, _wit(
                                ring, delta, I,
                                detail=f"J={J!r}, K={K!r}: delta values differ")


def _check_idem_absorption(ctx):
    for entry in ctx.entries:
        ring = entry.ring
        nil_mask = nilradical(ring).mask
        lattice = enumerate_ideals(ring)
        for delta in entry.expansions:
            table = delta.table
            for I in _proper(ring):
                if table[table[I.mask]] != table[I.mask] or not _dn(I, delta):
                    continue
                for K in lattice:
                    if K.mask & ~nil_mask == 0:
                        continue
                    ik = _mk_ideal(ring, ideals._product_mask(ring, I.mask, K.mask))
                    if table[table[ik.mask]] != table[ik.mask] or not _dn(ik, delta):
                        continue
                    if table[ik.mask] == table[I.mask]:
                        yield HOLDS, None
                    else:
                        yield FAIL, _wit(ring, delta, I,
                                         detail=f"K={K!r}, IK={ik!r}")


def _check_zero_divisor_quotient(ctx):
    for entry in ctx.entries:
        ring = entry.ring
        nil = nilradical(ring)
        rec = quotient_ring(ring, nil)
        qzero_divisors = special_sets(rec.ring).zero_divisors
        for delta in entry.expansions:
            dq = derive_quotient_expansion(delta, nil)
            dq_nilpotents = apply_expansion(dq, zero_ideal(rec.ring))
            lhs = _dn(nil, delta)
            rhs = all(dq_nilpotents.contains(z) for z in sorted(qzero_divisors,
                                                                key=lambda e: e.idx))
            if lhs == rhs:
                yield HOLDS, None
            else:
                yield FAIL, _wit(ring, delta, nil,
                                 detail=f"sqrt(0) delta-n={lhs}, "
                                        f"zero-divisors delta_q-nilpotent={rhs}")


def _check_expansion_value_n(ctx):
    for entry in ctx.entries:
        ring = entry.ring
        for delta in entry.expansions:
            for I in _proper(ring):
                d_val = apply_expansion(delta, I)
                if d_val.is_proper and is_n_ideal(d_val):
                    if _dn(I, delta):
                        yield HOLDS, None
                    else:
                        yield FAIL, _wit(ring, delta, I)
                else:
                    yield SKIP, None


def _check_radical_value_n_iff(ctx):
    for entry in ctx.entries:
        ring = entry.ring
        d1 = delta1(ring)
        for I in _proper(ring):
            if _dn(I, d1) == is_n_ideal(radical(I)):
                yield HOLDS, None
            else:
                yield FAIL, _wit(ring, d1, I, detail=f"sqrt(I)={radical(I)!r}")


def _check_pointwise_monotone(ctx):
    for entry in ctx.entries:
        ring = entry.ring
        for delta in entry.expansions:
            for gamma in entry.expansions:
                if any(delta.table[I.mask] & ~gamma.table[I.mask]
                       for I in enumerate_ideals(ring)):
                    yield SKIP, None
                    continue
                bad = None
                for I in _proper(ring):
                    if _dn(I, delta) and not _dn(I, gamma):
                        bad = I
                        break
                if bad is None:
                    yield HOLDS, None
                else:
                    yield FAIL, _wit(ring, delta, bad,
                                     detail=f"gamma={gamma.name()}")


def _check_compose_n_ideal(ctx):
    for entry in ctx.entries:
        ring = entry.ring
        for delta in entry.expansions:
            for gamma in entry.expansions:
                comp = compose_expansions(delta, gamma)
                for I in _proper(ring):
                    g_val = apply_expansion(gamma, I)
                    if g_val.is_proper and _dn(g_val, delta):
                        if _dn(I, comp):
                            yield HOLDS, None
                        else:
                            yield FAIL, _wit(ring, comp, I,
                                             detail=f"gamma(I)={g_val!r}")
                    else:
                        yield SKIP, None


def _check_radical_transfer(ctx):
    for entry in ctx.entries:
        ring = entry.ring
        for delta in entry.expansions:
            if not profile_expansion(delta).radical_commuting:
                yield SKIP, None
                continue
            for I in _proper(ring):
                if not _dn(I, delta):
                    yield SKIP, None
                    continue
                if _dn(radical(I), delta):
                    yield HOLDS, None
                else:
                    yield FAIL, _wit(ring, delta, I, detail=f"sqrt(I)={radical(I)!r}")


def _check_sandwich(ctx):
    for entry in ctx.entries:
        ring = entry.ring
        proper = _proper(ring)
        for delta in entry.expansions:
            table = delta.table
            for I in proper:
                if not _dn(I, delta):
                    continue
                for K in proper:
                    if K.mask & ~I.mask:
                        continue
                    for J in proper:
                        if J.mask & ~K.mask:
                            continue
                        if table[J.mask] != table[I.mask]:
                            yield SKIP, None
                            continue
                        if _dn(K, delta):
                            yield HOLDS, None
                        else:
                            yield FAIL, _wit(ring, delta, K,
                                             detail=f"J={J!r}, I={I!r}")


def _check_intersection(ctx):
    for entry in ctx.entries:
        ring = entry.ring
        proper = _proper(ring)
        for delta in entry.expansions:
            if not profile_expansion(delta).intersection_preserving:
                yield SKIP, None
                continue
            for I in proper:
                if not _dn(I, delta):
                    continue
                for J in proper:
                    if not _dn(J, delta):
                        continue
                    meet = ideal_combine("intersect", I, J)
                    if _dn(meet, delta):
                        yield HOLDS, None
                    else:
                        yield FAIL, _wit(ring, delta, meet,
                                         detail=f"I={I!r}, J={J!r}")


def _check_intersection_noncomparable(ctx):
    for entry in ctx.entries:
        ring = entry.ring
        proper = _proper(ring)
        for delta in entry.expansions:
            if not profile_expansion(delta).intersection_preserving:
                yield SKIP, None
                continue
            for I in proper:
                dI = apply_expansion(delta, I)
                if not (dI.is_proper and classify_ideal(dI).is_prime):
                    continue
                for J in proper:
                    dJ = apply_expansion(delta, J)
                    if not (dJ.is_proper and classify_ideal(dJ).is_prime):
                        continue
                    if dI.issubset(dJ) or dJ.issubset(dI):
                        continue
                    meet = ideal_combine("intersect", I, J)
                    if not _dn(meet, delta):
                        yield SKIP, None
                        continue
                    if _dn(I, delta) and _dn(J, delta):
                        yield HOLDS, None
                    else:
                        yield FAIL, _wit(ring, delta, meet,
                                         detail=f"I={I!r}, J={J!r}")


def _check_superfluous(ctx):
    for entry in ctx.entries:
        ring = entry.ring
        for delta in entry.expansions:
            for I in _proper(ring):
                if apply_expansion(delta, I).is_proper and _dn(I, delta):
                    if classify_ideal(I).is_superfluous:
                        yield HOLDS, None
                    else:
                        yield FAIL, _wit(ring, delta, I, detail="I is not superfluous")
                else:
                    yield SKIP, None


def _check_sum_delta_n(ctx):
    for entry in ctx.entries:
        ring = entry.ring
        proper = _proper(ring)
        for delta in entry.expansions:
            for I in proper:
                if not (apply_expansion(delta, I).is_proper and _dn(I, delta)):
                    continue
                for J in proper:
                    if not (apply_expansion(delta, J).is_proper and _dn(J, delta)):
                        continue
                    s = ideal_combine("sum", I, J)
                    if s.is_proper and _dn(s, delta):
                        yield HOLDS, None
                    else:
                        yield FAIL, _wit(ring, delta, s,
                                         detail=f"I={I!r}, J={J!r}")


# ---------------------------------------------------------------------------
# quotient transfer
# ---------------------------------------------------------------------------

def _quotient_instances(ctx, entry):
    ring = entry.ring
    for J in _proper(ring):
        rec = quotient_ring(ring, J)
        for delta in entry.expansions:
            dq = derive_quotient_expansion(delta, J)
            for I in enumerate_ideals(ring):
                if not I.is_proper or J.mask & ~I.mask:
                    continue
                img = _mk_ideal(rec.ring, rec.projection.image_mask(I.mask))
                yield ring, delta, J, I, rec, dq, img


def _check_quotient_forward(ctx):
    for entry in ctx.entries:
        for ring, delta, J, I, rec, dq, img in _quotient_instances(ctx, entry):
            if _dn(I, delta):
                if _dn(img, dq):
                    yield HOLDS, None
                else:
                    yield FAIL, _wit(ring, delta, I, detail=f"J={J!r}")
            else:
                yield SKIP, None


def _check_quotient_back_nilpotent(ctx):
    for entry in ctx.entries:
        nil = nilradical(entry.ring)
        for ring, delta, J, I, rec, dq, img in _quotient_instances(ctx, entry):
            if J.issubset(nil) and _dn(img, dq):
                if _dn(I, delta):
                    yield HOLDS, None
                else:
                    yield FAIL, _wit(ring, delta, I, detail=f"J={J!r}")
            else:
                yield SKIP, None


def _check_quotient_back_delta_n(ctx):
    for entry in ctx.entries:
        for ring, delta, J, I, rec, dq, img in _quotient_instances(ctx, entry):
            if (apply_expansion(delta, J).is_proper and _dn(J, delta)
                    and _dn(img, dq)):
                if _dn(I, delta):
                    yield HOLDS, None
                else:
                    yield FAIL, _wit(ring, delta, I, detail=f"J={J!r}")
            else:
                yield SKIP, None


# ---------------------------------------------------------------------------
# homomorphism transfer
# ---------------------------------------------------------------------------

def _check_hom_preimage(ctx):
    for f, pairs in ctx.hom_instances():
        if not f.is_injective():
            continue
        for delta, gamma in pairs:
            if not is_delta_gamma_homomorphism(f, delta, gamma):
                yield SKIP, None
                continue
            for J in _proper(f.target):
                if _dn(J, gamma):
                    pre = preimage_ideal(f, J)
                    if _dn(pre, delta):
                        yield HOLDS, None
                    else:
                        yield FAIL, Witness(
                            ring=f.source.key, expansion=delta.name(),
                            ideal=repr(pre),
                            detail=f"target {f.target.key}, J={J!r}, "
                                   f"gamma={gamma.name()}")
                else:
                    yield SKIP, None


def _check_hom_image(ctx):
    for f, pairs in ctx.hom_instances():
        if not f.is_surjective():
            continue
        ker = f.kernel
        for delta, gamma in pairs:
            if not is_delta_gamma_homomorphism(f, delta, gamma):
                yield SKIP, None
                continue
            for I in _proper(f.source):
                if ker.issubset(I) and _dn(I, delta):
                    img = image_ideal(f, I)
                    if not img.is_proper:
                        yield FAIL, Witness(ring=f.source.key,
                                            expansion=delta.name(), ideal=repr(I),
                                            detail="image is the whole ring")
                    elif _dn(img, gamma):
                        yield HOLDS, None
                    else:
                        yield FAIL, Witness(
                            ring=f.source.key, expansion=delta.name(),
                            ideal=repr(I),
                            detail=f"target {f.target.key}, f(I)={img!r}, "
                                   f"gamma={gamma.name()}")
                else:
                    yield SKIP, None


def _check_hom_epi_pushforward(ctx):
    for f, pairs in ctx.hom_instances():
        if not f.is_surjective():
            continue
        ker = f.kernel
        for delta, gamma in pairs:
            if not is_delta_gamma_homomorphism(f, delta, gamma):
                yield SKIP, None
                continue
            for I in enumerate_ideals(f.source):
                if not ker.issubset(I):
                    yield SKIP, None
                    continue
                lhs = apply_expansion(gamma, _mk_ideal(f.target, f.image_mask(I.mask)))
                rhs = _mk_ideal(f.target, f.image_mask(apply_expansion(delta, I).mask))
                if lhs == rhs:
                    yield HOLDS, None
                else:
                    yield FAIL, Witness(ring=f.source.key, expansion=delta.name(),
                                        ideal=repr(I),
                                        detail=f"gamma(f(I))={lhs!r} != f(delta(I))={rhs!r}")


def _check_radical_hom(ctx):
    for f, _pairs in ctx.hom_instances():
        if is_delta_gamma_homomorphism(f, delta1(f.source), delta1(f.target)):
            yield HOLDS, None
        else:
            yield FAIL, Witness(ring=f.source.key,
                                detail=f"radical expansions along {f!r}")


# ---------------------------------------------------------------------------
# products, idealizations, localizations
# ---------------------------------------------------------------------------

def _check_product_obstruction(ctx):
    for entry in ctx.entries:
        ring = entry.ring
        if ring.spec.kind != "product":
            continue
        _, left, right = ring.origin
        sr = right.size
        for d1 in ctx.catalog(left):
            for d2 in ctx.catalog(right):
                dx = derive_product_expansion(d1, d2)
                for I in _proper(ring):
                    m1 = m2 = 0
                    for idx in _bits(I.mask):
                        m1 |= 1 << (idx // sr)
                        m2 |= 1 << (idx % sr)
                    if d1.table[m1] == left.full_mask and \
                       d2.table[m2] == right.full_mask:
                        yield SKIP, None
                        continue
                    if _dn(I, dx):
                        yield FAIL, _wit(ring, dx, I,
                                         detail="delta-n despite a proper component value")
                    else:
                        yield HOLDS, None


def _check_idealization_transfer(ctx):
    for rec, base_catalog in ctx.idealization_instances():
        base, module = rec.base, rec.module
        submods = enumerate_submodules(module)
        act = module.action
        for delta in base_catalog:
            dplus = derive_idealization_expansion(delta, module)
            for I in _proper(base):
                for N in submods:
                    if any(not N.contains_idx(act[a][m])
                           for a in _bits(I.mask) for m in range(module.size)):
                        continue
                    W = rec.homogeneous_ideal(I, N)
                    if _dn(I, delta) == _dn(W, dplus):
                        yield HOLDS, None
                    else:
                        yield FAIL, Witness(ring=rec.ring.key,
                                            expansion=delta.name(), ideal=repr(I),
                                            detail=f"N={N!r}")


def _check_idealization_radical(ctx):
    for rec, _catalog in ctx.idealization_instances():
        base, module = rec.base, rec.module
        full_sub = constructions.Submodule(module, (1 << module.size) - 1)
        act = module.action
        for I in enumerate_ideals(base):
            for N in enumerate_submodules(module):
                if any(not N.contains_idx(act[a][m])
                       for a in _bits(I.mask) for m in range(module.size)):
                    continue
                W = rec.homogeneous_ideal(I, N)
                expected = rec.homogeneous_ideal(radical(I), full_sub)
                if radical(W) == expected:
                    yield HOLDS, None
                else:
                    yield FAIL, Witness(ring=rec.ring.key, ideal=repr(W),
                                        detail="radical is not sqrt(I)(+)M")


def _check_loc_forward(ctx):
    for entry in ctx.entries:
        ring = entry.ring
        for sset in ctx.mult_sets(ring):
            rec = localize(ring, sset)
            smask = 0
            for i in sset.indices:
                smask |= 1 << i
            for delta in entry.expansions:
                ds = derive_localized_expansion(delta, sset)
                for I in _proper(ring):
                    if I.mask & smask or not _dn(I, delta):
                        yield SKIP, None
                        continue
                    ext = rec.extend(I)
                    if ext.is_proper and _dn(ext, ds):
                        yield HOLDS, None
                    else:
                        yield FAIL, _wit(ring, delta, I,
                                         detail=f"S={sset!r}, extension={ext!r}")


def _check_loc_backward(ctx):
    for entry in ctx.entries:
        ring = entry.ring
        zdiv = special_sets(ring).zero_divisors
        zdiv_idx = {e.idx for e in zdiv}
        for sset in ctx.mult_sets(ring):
            if any(i in zdiv_idx for i in sset.indices):
                for delta in entry.expansions:
                    for I in _proper(ring):
                        yield SKIP, None
                continue
            rec = localize(ring, sset)
            smask = sum(1 << i for i in sset.indices)
            for delta in entry.expansions:
                ds = derive_localized_expansion(delta, sset)
                for I in _proper(ring):
                    if _z_i_mask(ring, delta.table[I.mask]) & smask:
                        yield SKIP, None
                        continue
                    ext = rec.extend(I)
                    if not (ext.is_proper and _dn(ext, ds)):
                        yield SKIP, None
                        continue
                    if _dn(I, delta):
                        yield HOLDS, None
                    else:
                        yield FAIL, _wit(ring, delta, I, detail=f"S={sset!r}")


def _check_loc_regular_contract(ctx):
    for entry in ctx.entries:
        ring = entry.ring
        regs = sorted(e.idx for e in special_sets(ring).regular_elements)
        sset = constructions.MultiplicativeSet(ring, tuple(regs))
        rec = localize(ring, sset)
        for delta in entry.expansions:
            ds = derive_localized_expansion(delta, sset)
            for K in _proper(rec.ring):
                if _dn(K, ds):
                    con = rec.contract(K)
                    if con.is_proper and _dn(con, delta):
                        yield HOLDS, None
                    else:
                        yield FAIL, _wit(ring, delta, con, detail=f"K={K!r}")
                else:
                    yield SKIP, None


def _check_loc_well_defined(ctx):
    for entry in ctx.entries:
        ring = entry.ring
        for sset in ctx.mult_sets(ring):
            for delta in entry.expansions:
                collisions = localization_value_collisions(delta, sset)
                if not collisions:
                    yield HOLDS, None
                else:
                    I, J = collisions[0]
                    yield FAIL, _wit(ring, delta, I,
                                     detail=f"S={sset!r}: same extension as {J!r} "
                                            f"but different delta extension")


# ---------------------------------------------------------------------------
# audits, conjecture recorder, self-tests
# ---------------------------------------------------------------------------

def _check_example_unit_ideal(ctx):
    ring = poly_quotient(4, [0, 0, 0, 1])
    a = ring.from_payload((1, 1, 0))
    b = ring.from_payload((1, 3, 1))
    if a * b == ring.one:
        yield HOLDS, None
    else:
        yield FAIL, _wit(ring, elements="(1+x)(1+3x+x^2)",
                         detail="product is not 1")
    J = ideal_from_generators(ring, [a])
    if not J.is_proper:
        yield HOLDS, None
    else:
        yield FAIL, _wit(ring, ideal=J, detail="(x+1) was computed proper")
    nil = nilradical(ring)
    two_x = ideal_from_generators(ring, [ring.from_payload((2, 0, 0)),
                                         ring.from_payload((0, 1, 0))])
    if nil == two_x and nil.size == 32:
        yield HOLDS, None
    else:
        yield FAIL, _wit(ring, ideal=nil, detail="sqrt(0) is not (2, x) of size 32")


def _check_conjecture_proper_n(ctx):
    for entry in ctx.entries:
        ring = entry.ring
        for delta in entry.expansions:
            for I in _proper(ring):
                if apply_expansion(delta, I).is_proper and _dn(I, delta):
                    if is_n_ideal(I):
                        yield HOLDS, None
                    else:
                        yield FAIL, _wit(ring, delta, I,
                                         elements=_pair_repr(*n_ideal_witness(I)),
                                         detail="separates delta-n from n-ideal")
                else:
                    yield SKIP, None


def _check_selftest_z6(ctx):
    ring = modular(6)
    for I in _proper(ring):
        wit = n_ideal_witness(I)
        if wit is None:
            yield HOLDS, None
        else:
            yield FAIL, _wit(ring, ideal=I, elements=_pair_repr(*wit))


def _check_selftest_z12(ctx):
    ring = modular(12)
    nil = nilradical(ring)
    outside = [a for a in ring.list_elements() if not nil.contains(a)]
    witness = None
    for a in outside:
        for b in outside:
            if nil.contains(a * b):
                witness = (a, b)
                break
        if witness:
            break
    if witness is None:
        yield HOLDS, None
    else:
        yield FAIL, _wit(ring, ideal=nil, elements=_pair_repr(*witness))


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def _claim(id, title, statement, quantifies, self_test=False, notes=()):
    return Claim(id, title, statement, quantifies, self_test, tuple(notes))


CLAIMS = (
    _claim("thm-four-equivalents", "Four equivalent delta-n criteria",
           "The definition, the colon criterion ((I:a) <= sqrt(0) for all a "
           "outside delta(I)), the element-ideal form, and the ideal-pair form "
           "decide the same class.",
           "every (ring, catalog expansion, proper ideal)"),
    _claim("prop-subset-nilradical", "Proper-expansion delta-n ideals are nil",
           "If delta(I) != R and I is a delta-n-ideal, then I <= sqrt(0).",
           "every (ring, expansion, proper ideal) meeting the hypothesis"),
    _claim("ex-z6-zero-not-n", "Inline counterexample in Z6",
           "In Z6 the zero ideal is neither a delta0- nor a delta1-n-ideal; "
           "the first witness pair is a=2, b=3.",
           "two fixed instances (delta0 and delta1 on Z6)"),
    _claim("prop-primary-to-delta-n", "delta-primary inside sqrt(0) is delta-n",
           "If I <= sqrt(0) is proper and delta-primary, then I is a delta-n-ideal.",
           "every (ring, expansion, proper ideal) meeting the hypothesis"),
    _claim("prop-nilradical-primary-iff", "At sqrt(0) the two classes agree",
           "sqrt(0) is delta-primary if and only if sqrt(0) is a delta-n-ideal.",
           "every (ring, expansion)"),
    _claim("ex-int-delta-plus", "Prime ideals of ZZ under the sum expansion",
           "For primes p != q, pZ is a delta_plus(qZ)-n-ideal of ZZ but not an "
           "n-ideal, delta0-n-ideal, or delta1-n-ideal.",
           "prime pairs p != q up to 100"),
    _claim("prop-delta-primary-iff-subset", "Primary + proper value: delta-n iff nil",
           "If I is delta-primary with delta(I) != R, then I is delta-n iff "
           "I <= sqrt(0).",
           "every (ring, expansion, proper ideal) meeting the hypothesis"),
    _claim("prop-prime-iff-nilradical", "Prime + proper value: delta-n iff I=sqrt(0)",
           "If I is prime with delta(I) != R, then I is delta-n iff I = sqrt(0).",
           "every (ring, expansion, prime proper ideal)"),
    _claim("thm-every-ideal-quasilocal", "Rings where every proper ideal is delta-n",
           "Equivalent: (1) every proper principal ideal is delta-n for every "
           "catalog expansion; (2) every proper ideal is; (3) sqrt(0) is the "
           "unique prime ideal; (4) the ring is quasi-local with maximal ideal "
           "sqrt(0).  Conditions 1-2 quantify over the whole catalog.",
           "every ring"),
    _claim("prop-domain-only-zero", "Integral domain: only (0) is delta-n",
           "On ZZ, for expansions with proper values on proper ideals (delta0, "
           "delta1), nZ is a delta-n-ideal iff n = 0; bounded check n <= 1000.",
           "n in 0..1000 for delta0 and delta1 on ZZ"),
    _claim("thm-von-neumann-field", "Field iff von Neumann regular + (0) delta-n",
           "For delta with delta(0) = 0: R is a field iff R is von Neumann "
           "regular and (0) is a delta-n-ideal.",
           "every (ring, zero-fixed expansion)"),
    _claim("lem-colon-stable", "Colon ideals inherit the delta-n property",
           "If I is delta-n and x is outside delta(I) with (delta(I):x) <= "
           "delta(I:x) != R, then (I:x) is delta-n; for delta1 the side "
           "conditions hold automatically.",
           "every (ring, expansion, delta-n ideal, element x outside delta(I))"),
    _claim("prop-maximal-is-nilradical", "Maximal delta-n ideals are sqrt(0)",
           "Under the colon hypothesis at I, every maximal member of the "
           "delta-n spectrum equals sqrt(0) and is prime.",
           "every (ring, expansion, maximal spectrum member)"),
    _claim("thm-existence", "Existence of a delta-n-ideal",
           "If delta satisfies the colon hypothesis globally, then: a "
           "delta-n-ideal exists iff sqrt(0) is prime iff sqrt(0) is "
           "delta-primary.",
           "every (ring, expansion) with the colon hypothesis"),
    _claim("prop-idem-colon-expansion", "Idempotent delta: delta(I:a) = delta(I)",
           "If delta(delta(I)) = delta(I), I is delta-n and a is outside "
           "sqrt(0), then delta(I:a) = delta(I).",
           "every (ring, expansion, delta-n ideal, non-nilpotent a)"),
    _claim("prop-idem-value-n-iff", "Idempotent delta: value is n iff delta-n",
           "If delta(delta(I)) = delta(I) and delta(I) is proper, then "
           "delta(I) is an n-ideal iff delta(I) is a delta-n-ideal.",
           "every (ring, expansion, proper ideal with idempotent proper value)"),
    _claim("prop-idem-cancellation", "Cancellation along a non-nil factor",
           "If IK = JK with I, J delta-n, delta idempotent at I and J, and K "
           "not inside sqrt(0), then delta(I) = delta(J).",
           "every (ring, expansion, ideal triple) meeting the hypothesis"),
    _claim("prop-idem-absorption", "Products absorb into delta(I)",
           "If IK and I are delta-n with delta idempotent at I and IK, and K "
           "not inside sqrt(0), then delta(IK) = delta(I).",
           "every (ring, expansion, ideal pair) meeting the hypothesis"),
    _claim("prop-zero-divisor-quotient", "Zero divisors of R/sqrt(0)",
           "sqrt(0) is a delta-n-ideal iff every zero divisor of R/sqrt(0) is "
           "delta_q-nilpotent (lies in the derived expansion of the zero ideal).",
           "every (ring, expansion)"),
    _claim("prop-expansion-value-n", "n-ideal values pull back",
           "If delta(I) is proper and an n-ideal, then I is a delta-n-ideal.",
           "every (ring, expansion, proper ideal) meeting the hypothesis"),
    _claim("prop-radical-value-n-iff", "Quasi n-ideals via sqrt(I)",
           "I is a quasi n-ideal iff sqrt(I) is an n-ideal.",
           "every (ring, proper ideal)"),
    _claim("prop-pointwise-monotone", "Pointwise-larger expansions preserve the class",
           "If delta(I) <= gamma(I) for every ideal I, then every "
           "delta-n-ideal is a gamma-n-ideal.",
           "every (ring, ordered expansion pair)"),
    _claim("prop-compose-n-ideal", "Composition transfer",
           "If gamma(I) is proper and a delta-n-ideal, then I is a "
           "(delta o gamma)-n-ideal.",
           "every (ring, expansion pair, proper ideal)"),
    _claim("prop-radical-transfer", "sqrt of a delta-n-ideal",
           "If sqrt(delta(I)) = delta(sqrt(I)) holds tablewise and I is "
           "delta-n, then sqrt(I) is delta-n.",
           "every (ring, radical-commuting expansion, delta-n ideal)"),
    _claim("prop-sandwich", "Sandwiched ideals",
           "If J <= K <= I are proper, I is delta-n and delta(J) = delta(I), "
           "then K is delta-n.",
           "every (ring, expansion, chain J <= K <= I)"),
    _claim("prop-intersection", "Intersections under intersection-preserving delta",
           "If delta preserves intersections, finite intersections of "
           "delta-n-ideals are delta-n-ideals.",
           "every (ring, intersection-preserving expansion, delta-n pair)"),
    _claim("prop-intersection-noncomparable", "Non-comparable prime values",
           "If delta preserves intersections, delta(I1), delta(I2) are "
           "non-comparable primes and the intersection is delta-n, then each "
           "I_k is delta-n.",
           "every (ring, expansion, qualifying ideal pair)"),
    _claim("lem-superfluous", "delta-n ideals with proper value are superfluous",
           "If I is delta-n with delta(I) != R, then no proper J satisfies "
           "I + J = R.",
           "every (ring, expansion, proper ideal) meeting the hypothesis"),
    _claim("prop-sum-delta-n", "Sums of delta-n ideals",
           "If I and J are delta-n with delta(I) != R and delta(J) != R, then "
           "I + J is a (proper) delta-n-ideal.",
           "every (ring, expansion, qualifying ideal pair)"),
    _claim("cor-quotient-forward", "delta-n passes to quotients",
           "If J <= I are proper and I is delta-n, then I/J is a "
           "delta_q-n-ideal of R/J.",
           "every (ring, expansion, proper J <= I)"),
    _claim("cor-quotient-back-nilpotent", "Lifting along nil J",
           "If I/J is delta_q-n and J <= sqrt(0), then I is delta-n.",
           "every (ring, expansion, proper J <= I)"),
    _claim("cor-quotient-back-delta-n", "Lifting along a delta-n J",
           "If I/J is delta_q-n, J is delta-n and delta(J) != R, then I is "
           "delta-n.",
           "every (ring, expansion, proper J <= I)"),
    _claim("prop-hom-preimage", "Preimages along monomorphisms",
           "For an injective delta-gamma-homomorphism, the preimage of a "
           "gamma-n-ideal is a delta-n-ideal.",
           "every (family hom, expansion pair, target proper ideal)"),
    _claim("prop-hom-image", "Images along epimorphisms",
           "For a surjective delta-gamma-homomorphism and I >= ker(f) proper "
           "delta-n, the image f(I) is a gamma-n-ideal.",
           "every (family epimorphism, expansion pair, source proper ideal)"),
    _claim("prop-hom-epi-pushforward", "Pushforward identity",
           "For a surjective delta-gamma-homomorphism and I >= ker(f): "
           "gamma(f(I)) = f(delta(I)).",
           "every (family epimorphism, expansion pair, ideal I >= ker)"),
    _claim("prop-radical-hom", "Radical expansions along any homomorphism",
           "Every ring homomorphism is a delta1-gamma1-homomorphism for the "
           "radical expansions on both sides.",
           "every family homomorphism"),
    _claim("rem-product-obstruction", "No delta-n-ideals with a proper component",
           "On R1 x R2 with delta_x componentwise: an ideal I1 x I2 with "
           "delta_1(I1) != R1 or delta_2(I2) != R2 is never delta_x-n.",
           "every (product ring, component expansion pair, proper ideal)"),
    _claim("prop-idealization-transfer", "Idealization equivalence",
           "For IM <= N: I is delta-n in R iff I(+)N is delta_(+)-n in R(+)M.",
           "every (idealization, base expansion, homogeneous pair)"),
    _claim("prop-idealization-radical", "Radical of a homogeneous ideal",
           "sqrt(I(+)N) = sqrt(I)(+)M in every idealization ring.",
           "every (idealization, homogeneous pair)"),
    _claim("prop-loc-forward", "Localization of a delta-n-ideal",
           "If I is delta-n with I and S disjoint, then S^-1 I is a "
           "delta_S-n-ideal of S^-1 R.",
           "every (ring, multiplicative set, expansion, proper ideal)"),
    _claim("prop-loc-backward", "Descending from the localization",
           "If S misses Z(R) and Z_delta(I)(R) and S^-1 I is delta_S-n, then "
           "I is delta-n.",
           "every (ring, multiplicative set, expansion, proper ideal)"),
    _claim("prop-loc-regular-contract", "Contraction from the regular localization",
           "Localizing at the regular elements (units, on finite rings): "
           "every delta_S-n-ideal contracts to a delta-n-ideal.",
           "every (ring, expansion, proper localized ideal)"),
    _claim("audit-loc-well-defined", "Representative independence of delta_S",
           "No base-ideal pair on the corpus has equal extensions but "
           "different extended delta-values; the derived expansion always "
           "contracts first, so it is a function regardless.",
           "every (ring, multiplicative set, expansion)"),
    _claim("audit-example-unit-ideal", "The ideal (x+1) in Z4[x]/(x^3) is the unit ideal",
           "(1+x)(1+3x+x^2) = 1, so the ideal generated by x+1 is the whole "
           "ring and sqrt(0) = (2, x) has 32 elements; any account treating "
           "(x+1) as a proper ideal of this ring is inconsistent with the "
           "computed algebra.",
           "three fixed computations on Z4[x]/(x^3)",
           notes=("flagged: the motivating example of a delta-n-but-not-n "
                  "ideal presumes (x+1) proper, which is inconsistent with "
                  "the computation ((1+x)(1+3x+x^2)=1); the properness guard "
                  "therefore rejects that ideal",)),
    _claim("conj-proper-delta-n-is-n", "Recorded conjecture: proper values force n-ideals",
           "On every finite corpus instance, a delta-n-ideal with delta(I) != "
           "R is also an n-ideal (recorded observation; the separating "
           "examples in the source theory all have delta(I) = R).",
           "every (ring, expansion, proper ideal) meeting the hypothesis"),
    _claim("selftest-z6-all-n-ideals", "Self-test: inverted claim about Z6",
           "Deliberately false: every proper ideal of Z6 is an n-ideal.  Used "
           "to exercise the witness machinery; the first witness must be "
           "ideal (0) with a=2, b=3.",
           "proper ideals of Z6", self_test=True),
    _claim("selftest-z12-nilradical-prime", "Self-test: inverted claim about Z12",
           "Deliberately false: sqrt(0) is a prime ideal of Z12.",
           "one fixed instance", self_test=True),
)


CHECKERS = {
    "thm-four-equivalents": _check_four_equivalents,
    "prop-subset-nilradical": _check_subset_nilradical,
    "ex-z6-zero-not-n": _check_z6_counterexample,
    "prop-primary-to-delta-n": _check_primary_to_delta_n,
    "prop-nilradical-primary-iff": _check_nilradical_primary_iff,
    "ex-int-delta-plus": _check_integer_delta_plus,
    "prop-delta-primary-iff-subset": _check_primary_iff_subset,
    "prop-prime-iff-nilradical": _check_prime_iff_nilradical,
    "thm-every-ideal-quasilocal": _check_every_ideal_quasilocal,
    "prop-domain-only-zero": _check_domain_only_zero,
    "thm-von-neumann-field": _check_von_neumann_field,
    "lem-colon-stable": _check_colon_stable,
    "prop-maximal-is-nilradical": _check_maximal_is_nilradical,
    "thm-existence": _check_existence,
    "prop-idem-colon-expansion": _check_idem_colon_expansion,
    "prop-idem-value-n-iff": _check_idem_value_n_iff,
    "prop-idem-cancellation": _check_idem_cancellation,
    "prop-idem-absorption": _check_idem_absorption,
    "prop-zero-divisor-quotient": _check_zero_divisor_quotient,
    "prop-expansion-value-n": _check_expansion_value_n,
    "prop-radical-value-n-iff": _check_radical_value_n_iff,
    "prop-pointwise-monotone": _check_pointwise_monotone,
    "prop-compose-n-ideal": _check_compose_n_ideal,
    "prop-radical-transfer": _check_radical_transfer,
    "prop-sandwich": _check_sandwich,
    "prop-intersection": _check_intersection,
    "prop-intersection-noncomparable": _check_intersection_noncomparable,
    "lem-superfluous": _check_superfluous,
    "prop-sum-delta-n": _check_sum_delta_n,
    "cor-quotient-forward": _check_quotient_forward,
    "cor-quotient-back-nilpotent": _check_quotient_back_nilpotent,
    "cor-quotient-back-delta-n": _check_quotient_back_delta_n,
    "prop-hom-preimage": _check_hom_preimage,
    "prop-hom-image": _check_hom_image,
    "prop-hom-epi-pushforward": _check_hom_epi_pushforward,
    "prop-radical-hom": _check_radical_hom,
    "rem-product-obstruction": _check_product_obstruction,
    "prop-idealization-transfer": _check_idealization_transfer,
    "prop-idealization-radical": _check_idealization_radical,
    "prop-loc-forward": _check_loc_forward,
    "prop-loc-backward": _check_loc_backward,
    "prop-loc-regular-contract": _check_loc_regular_contract,
    "audit-loc-well-defined": _check_loc_well_defined,
    "audit-example-unit-ideal": _check_example_unit_ideal,
    "conj-proper-delta-n-is-n": _check_conjecture_proper_n,
    "selftest-z6-all-n-ideals": _check_selftest_z6,
    "selftest-z12-nilradical-prime": _check_selftest_z12,
}

CLAIMS_BY_ID = {c.id: c for c in CLAIMS}
