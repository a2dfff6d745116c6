"""Executable claim registry for the delta-n-ideal theory.

Each claim pairs a formal statement with a checker that quantifies over corpus
instances and yields one verdict per instance: ``holds``, ``skip`` (hypothesis
not met), or ``fail`` with a concrete witness.  Checkers are deterministic:
corpus order, catalog order, lattice order, element order.

A claim is declared once, by the ``@_claim`` decorator on its checker; the
registry ``CLAIMS`` is in definition order, which is the report order.  A
checker whose claim reads "if hypothesis, then conclusion" over one instance
at a time hands an instance generator, the hypothesis, the conclusion and the
witness to the verdict kernel ``_verdicts``.  An instance outside the claim's
quantifier is never yielded; an instance that fails the hypothesis is a skip.
Checkers over pairs, chains, maps and constructions keep their own loops.

Checkers work on masks.  A loop over one (ring, delta) reads its delta-n set
``dn`` once and tests ``I.mask in dn``: a catalog expansion's is built once
per run, in the scopes of its corpus entry, and a derived expansion's where it
is used, straight off the base tables for a composition or a localization, for
which no expansion is interned (``predicates._composed_dn``, ``_localized_dn``).
Values come from the expansion tables, and colons, images, preimages and
extensions from the kernels' memo tables (``fn.table``), bound once per loop;
``Ideal`` objects are built only for the witness of a failure.
"""

from __future__ import annotations

from collections import namedtuple

from . import constructions, predicates
from .constructions import (Homomorphism, enumerate_submodules, is_delta_gamma_homomorphism,
                            localize, product_projections, quotient_ring)
from .expansions import (_colon_violation, catalog, compose_expansions, delta0, delta1,
                         delta_plus, derive_idealization_expansion, derive_product_expansion,
                         derive_quotient_expansion, localization_value_collisions,
                         profile_expansion)
from .ideals import (_colon_mask, _ideal_class, _is_prime_int, _mk_ideal,
                     _principal_columns, _product_mask, _radical_mask, _sum_mask, _z_i_mask,
                     classify_ideal, enumerate_ideals, ideal_from_generators,
                     integer_ideal, nilradical, radical, special_sets, zero_ideal)
from .predicates import (_composed_dn, _localized_dn, _nil_mask, _spectrum, delta_n_masks,
                         delta_n_witness, is_delta_n_ideal, is_delta_primary, is_n_ideal,
                         n_ideal_witness)
from .rings import classify_ring, memo, modular, poly_quotient


HOLDS, SKIP, FAIL = "holds", "skip", "fail"


class Witness(namedtuple("Witness", "ring expansion ideal elements detail",
                          defaults=("",) * 5)):
    __slots__ = ()

    def to_dict(self):
        return self._asdict()

    def text(self):
        return "; ".join(f"{label}={value}" for label, value in self.to_dict().items()
                         if value)


Claim = namedtuple("Claim", "id title statement quantifies self_test notes",
                   defaults=(False, ()))


CLAIMS = []  # in report order
# claim id -> checker; the runner looks checkers up here at call time
CHECKERS = {}


def _claim(id, title, statement, quantifies, self_test=False, notes=()):
    """Register the decorated checker as the checker of a new claim."""
    def register(checker):
        CLAIMS.append(Claim(id, title, statement, quantifies, self_test, tuple(notes)))
        CHECKERS[id] = checker
        return checker
    return register


def _verdicts(instances, hyp, concl, witness):
    """The verdict kernel: one verdict per instance, in the order ``instances``
    yields them.  SKIP where ``hyp`` fails, HOLDS where ``concl`` holds, and
    otherwise FAIL with ``witness``, built only then.  The three callables
    take the fields of an instance as their arguments."""
    for inst in instances:
        if not hyp(*inst):
            yield SKIP, None
        elif concl(*inst):
            yield HOLDS, None
        else:
            yield FAIL, witness(*inst)


def _no_hypothesis(*inst):
    return True


@memo
def _proper(ring):
    return tuple(I for I in enumerate_ideals(ring) if I.is_proper)


_dn = is_delta_n_ideal


def _expansions(ctx):
    """(scope, sqrt(0)) for each corpus ring and catalog expansion."""
    for entry in ctx.entries:
        nil = nilradical(entry.ring)
        for scope in _scopes(ctx, entry):
            yield scope, nil


def _by_expansion(ctx):
    """The scope of each corpus ring and catalog expansion."""
    for entry in ctx.entries:
        yield from _scopes(ctx, entry)


# one (ring, delta) with what its hypotheses and conclusions read, so that
# a verdict reads attributes rather than calling a memoised function
_Scope = namedtuple("_Scope", "ring delta dn proper table full nil n_masks")


@memo
def _scopes(ctx, entry):
    """The scope of each catalog expansion of one corpus entry, built once per
    run; ``n_masks``, the proper n-ideals, is the delta-n set of delta0's scope."""
    ring = entry.ring
    nil, dns = _nil_mask(ring), [delta_n_masks(d) for d in entry.expansions]
    n_masks = dns[entry.expansions.index(delta0(ring))]
    return [_Scope(ring, d, dn, _proper(ring), d.table, ring.full_mask, nil, n_masks)
            for d, dn in zip(entry.expansions, dns)]


@memo
def _catalog_dns(ctx):
    """{catalog expansion: its delta-n set}, from the scopes."""
    return {s.delta: s.dn for s in _by_expansion(ctx)}


def _dn_set(dns, delta):
    """The delta-n set of delta: its scope's in ``dns`` for a catalog expansion, else built."""
    return dns[delta] if delta in dns else delta_n_masks(delta)


def _ideals(ctx):
    """(scope, I) for each corpus ring, catalog expansion and proper ideal I."""
    for scope in _by_expansion(ctx):
        for I in scope.proper:
            yield scope, I


def _delta_n_proper_value(s, I):
    """The recurring hypothesis: I is delta-n and delta(I) != R."""
    return s.table[I.mask] != s.full and I.mask in s.dn


def _idempotent_delta_n(delta, dn, mask):
    """delta(delta(I)) = delta(I) and I is delta-n, at the ideal with this mask."""
    return delta.table[delta.table[mask]] == delta.table[mask] and mask in dn


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

@_claim("thm-four-equivalents", "Four equivalent delta-n criteria",
        "The definition, the colon criterion ((I:a) <= sqrt(0) for all a "
        "outside delta(I)), the element-ideal form, and the ideal-pair form "
        "decide the same class.",
        "every (ring, catalog expansion, proper ideal)")
def _check_four_equivalents(ctx):
    for entry in ctx.entries:
        ring, proper = entry.ring, _proper(entry.ring)
        for delta in entry.expansions:
            for I in proper:
                values = [is_delta_n_ideal(I, delta, method=m)
                          for m in predicates.DELTA_N_METHODS]
                if len(set(values)) == 1:
                    yield HOLDS, None
                else:
                    detail = ", ".join(f"{m}={v}" for m, v in
                                       zip(predicates.DELTA_N_METHODS, values))
                    yield FAIL, _wit(ring, delta, I, detail=detail)


@_claim("prop-subset-nilradical", "Proper-expansion delta-n ideals are nil",
        "If delta(I) != R and I is a delta-n-ideal, then I <= sqrt(0).",
        "every (ring, expansion, proper ideal) meeting the hypothesis")
def _check_subset_nilradical(ctx):
    return _verdicts(_ideals(ctx), _delta_n_proper_value,
                     lambda s, I: I.mask & ~s.nil == 0,
                     lambda s, I: _wit(s.ring, s.delta, I, detail="I is not inside sqrt(0)"))


@_claim("ex-z6-zero-not-n", "Inline counterexample in Z6",
        "In Z6 the zero ideal is neither a delta0- nor a delta1-n-ideal; "
        "the first witness pair is a=2, b=3.",
        "two fixed instances (delta0 and delta1 on Z6)")
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


@_claim("prop-primary-to-delta-n", "delta-primary inside sqrt(0) is delta-n",
        "If I <= sqrt(0) is proper and delta-primary, then I is a delta-n-ideal.",
        "every (ring, expansion, proper ideal) meeting the hypothesis")
def _check_primary_to_delta_n(ctx):
    return _verdicts(_ideals(ctx),
                     lambda s, I: I.mask & ~s.nil == 0 and is_delta_primary(I, s.delta),
                     lambda s, I: I.mask in s.dn,
                     lambda s, I: _wit(s.ring, s.delta, I,
                                       elements=_pair_repr(*delta_n_witness(I, s.delta))))


@_claim("prop-nilradical-primary-iff", "At sqrt(0) the two classes agree",
        "sqrt(0) is delta-primary if and only if sqrt(0) is a delta-n-ideal.",
        "every (ring, expansion)")
def _check_nilradical_primary_iff(ctx):
    return _verdicts(_expansions(ctx), _no_hypothesis,
                     lambda s, nil: is_delta_primary(nil, s.delta) == _dn(nil, s.delta),
                     lambda s, nil: _wit(s.ring, s.delta, nil, detail="delta-primary "
                                         "and delta-n disagree at sqrt(0)"))


@_claim("ex-int-delta-plus", "Prime ideals of ZZ under the sum expansion",
        "For primes p != q, pZ is a delta_plus(qZ)-n-ideal of ZZ but not an "
        "n-ideal, delta0-n-ideal, or delta1-n-ideal.",
        "prime pairs p != q up to 100")
def _check_integer_delta_plus(ctx):
    zz = ctx.zz
    d0, d1 = delta0(zz), delta1(zz)
    primes = [p for p in range(2, 101) if _is_prime_int(p)]
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


@_claim("prop-delta-primary-iff-subset", "Primary + proper value: delta-n iff nil",
        "If I is delta-primary with delta(I) != R, then I is delta-n iff "
        "I <= sqrt(0).",
        "every (ring, expansion, proper ideal) meeting the hypothesis")
def _check_primary_iff_subset(ctx):
    return _verdicts(_ideals(ctx),
                     lambda s, I: s.table[I.mask] != s.full and is_delta_primary(I, s.delta),
                     lambda s, I: (I.mask in s.dn) == (I.mask & ~s.nil == 0),
                     lambda s, I: _wit(s.ring, s.delta, I))


@_claim("prop-prime-iff-nilradical", "Prime + proper value: delta-n iff I=sqrt(0)",
        "If I is prime with delta(I) != R, then I is delta-n iff I = sqrt(0).",
        "every (ring, expansion, prime proper ideal)")
def _check_prime_iff_nilradical(ctx):
    return _verdicts(_ideals(ctx),
                     lambda s, I: classify_ideal(I).is_prime and s.table[I.mask] != s.full,
                     lambda s, I: (I.mask in s.dn) == (I.mask == s.nil),
                     lambda s, I: _wit(s.ring, s.delta, I))


@_claim("thm-every-ideal-quasilocal", "Rings where every proper ideal is delta-n",
        "Equivalent: (1) every proper principal ideal is delta-n for every "
        "catalog expansion; (2) every proper ideal is; (3) sqrt(0) is the "
        "unique prime ideal; (4) the ring is quasi-local with maximal ideal "
        "sqrt(0).  Conditions 1-2 quantify over the whole catalog.",
        "every ring")
def _check_every_ideal_quasilocal(ctx):
    for entry in ctx.entries:
        ring = entry.ring
        dns = [s.dn for s in _scopes(ctx, entry)]
        # the non-unit principal ideals are the proper ones
        c1 = all(p in dn for dn in dns for p in _principal_columns(ring))
        c2 = all(I.mask in dn for dn in dns for I in _proper(ring))
        nil = nilradical(ring)
        primes = [I for I in enumerate_ideals(ring) if classify_ideal(I).is_prime]
        c3 = primes == [nil]
        rc = classify_ring(ring)
        c4 = rc.is_quasi_local and rc.maximal_ideal == nil
        if c1 == c2 == c3 == c4:
            yield HOLDS, None
        else:
            yield FAIL, _wit(ring, detail=f"principal={c1}, all={c2}, "
                                          f"unique-prime={c3}, quasi-local={c4}")


@_claim("prop-domain-only-zero", "Integral domain: only (0) is delta-n",
        "On ZZ, for expansions with proper values on proper ideals (delta0, "
        "delta1), nZ is a delta-n-ideal iff n = 0; bounded check n <= 1000.",
        "n in 0..1000 for delta0 and delta1 on ZZ")
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


@_claim("thm-von-neumann-field", "Field iff von Neumann regular + (0) delta-n",
        "For delta with delta(0) = 0: R is a field iff R is von Neumann "
        "regular and (0) is a delta-n-ideal.",
        "every (ring, zero-fixed expansion)")
def _check_von_neumann_field(ctx):
    return _verdicts(
        _expansions(ctx),
        lambda s, nil: profile_expansion(s.delta).zero_fixed,
        lambda s, nil: classify_ring(s.ring).is_field == (
            classify_ring(s.ring).is_von_neumann_regular and _dn(zero_ideal(s.ring), s.delta)),
        # a failure means the two sides differ
        lambda s, nil: _wit(
            s.ring, s.delta, zero_ideal(s.ring),
            detail=f"field={classify_ring(s.ring).is_field}, "
                   f"vnr-and-zero-delta-n={not classify_ring(s.ring).is_field}"))


@_claim("lem-colon-stable", "Colon ideals inherit the delta-n property",
        "If I is delta-n and x is outside delta(I) with (delta(I):x) <= "
        "delta(I:x) != R, then (I:x) is delta-n; for delta1 the side "
        "conditions hold automatically.",
        "every (ring, expansion, delta-n ideal, element x outside delta(I))")
def _check_colon_stable(ctx):
    for ring, delta, dn, proper, table, full, *_ in _by_expansion(ctx):
        is_radical = delta.kind == "delta1"
        for I in proper:
            if I.mask not in dn:
                continue
            dmask = table[I.mask]
            colons, d_colons = _colon_mask.table(ring, I.mask), _colon_mask.table(ring, dmask)
            for x in range(ring.size):
                if dmask >> x & 1:
                    continue
                cx = colons[x]
                # (delta(I):x) <= delta(I:x) != R; a hypothesis, except for delta1
                side = not (d_colons[x] & ~table[cx]) and table[cx] != full
                if not (side or is_radical):
                    yield SKIP, None
                elif side and cx in dn:
                    yield HOLDS, None
                else:
                    yield FAIL, _wit(ring, delta, I,
                                     elements=f"x={ring.element_repr(x)}",
                                     detail=f"(I:x)={_mk_ideal(ring, cx)!r}")


@_claim("prop-maximal-is-nilradical", "Maximal delta-n ideals are sqrt(0)",
        "Under the colon hypothesis at I, every maximal member of the "
        "delta-n spectrum equals sqrt(0) and is prime.",
        "every (ring, expansion, maximal spectrum member)")
def _check_maximal_is_nilradical(ctx):
    for s, nil in _expansions(ctx):
        for I in _spectrum(s.ring, s.dn).maximal_members:
            if _colon_violation(s.delta, I.mask) is not None:
                yield SKIP, None
            elif I is nil and classify_ideal(I).is_prime:
                yield HOLDS, None
            else:
                yield FAIL, _wit(s.ring, s.delta, I,
                                 detail="maximal member is not the prime nilradical")


def _existence_conditions(s, nil):
    """A delta-n-ideal exists; sqrt(0) is prime; sqrt(0) is delta-primary."""
    return bool(s.dn), classify_ideal(nil).is_prime, is_delta_primary(nil, s.delta)


@_claim("thm-existence", "Existence of a delta-n-ideal",
        "If delta satisfies the colon hypothesis globally, then: a "
        "delta-n-ideal exists iff sqrt(0) is prime iff sqrt(0) is "
        "delta-primary.",
        "every (ring, expansion) with the colon hypothesis")
def _check_existence(ctx):
    return _verdicts(
        _expansions(ctx),
        lambda s, nil: profile_expansion(s.delta).colon_condition,
        lambda s, nil: len(set(_existence_conditions(s, nil))) == 1,
        lambda s, nil: _wit(s.ring, s.delta, detail=(
            "spectrum-nonempty={}, nilradical-prime={}, nilradical-delta-primary={}"
            .format(*_existence_conditions(s, nil)))))


@_claim("prop-idem-colon-expansion", "Idempotent delta: delta(I:a) = delta(I)",
        "If delta(delta(I)) = delta(I), I is delta-n and a is outside "
        "sqrt(0), then delta(I:a) = delta(I).",
        "every (ring, expansion, delta-n ideal, non-nilpotent a)")
def _check_idem_colon_expansion(ctx):
    for ring, delta, dn, proper, table, _, nil, _ in _by_expansion(ctx):
        for I in proper:
            if not _idempotent_delta_n(delta, dn, I.mask):
                yield SKIP, None
                continue
            colons = _colon_mask.table(ring, I.mask)
            for a in range(ring.size):
                if nil >> a & 1:
                    continue
                if table[colons[a]] == table[I.mask]:
                    yield HOLDS, None
                else:
                    yield FAIL, _wit(ring, delta, I, elements=f"a={ring.element_repr(a)}")


@_claim("prop-idem-value-n-iff", "Idempotent delta: value is n iff delta-n",
        "If delta(delta(I)) = delta(I) and delta(I) is proper, then "
        "delta(I) is an n-ideal iff delta(I) is a delta-n-ideal.",
        "every (ring, expansion, proper ideal with idempotent proper value)")
def _check_idem_value_n_iff(ctx):
    return _verdicts(_ideals(ctx),
                     lambda s, I: s.table[s.table[I.mask]] == s.table[I.mask] != s.full,
                     lambda s, I: (s.table[I.mask] in s.n_masks) == (s.table[I.mask] in s.dn),
                     lambda s, I: _wit(s.ring, s.delta, I, detail="delta(I)="
                                       f"{_mk_ideal(s.ring, s.table[I.mask])!r}"))


@_claim("prop-idem-cancellation", "Cancellation along a non-nil factor",
        "If IK = JK with I, J delta-n, delta idempotent at I and J, and K "
        "not inside sqrt(0), then delta(I) = delta(J).",
        "every (ring, expansion, ideal triple) meeting the hypothesis")
def _check_idem_cancellation(ctx):
    for ring, delta, dn, proper, table, _, nil, _ in _by_expansion(ctx):
        qualifying = [I for I in proper if _idempotent_delta_n(delta, dn, I.mask)]
        ks = [K for K in enumerate_ideals(ring) if K.mask & ~nil]
        # IK for each qualifying I and each K outside sqrt(0), in lattice order
        products = {I: [_product_mask(ring, I.mask, K.mask) for K in ks] for I in qualifying}
        for I in qualifying:
            for J in qualifying:
                for K, ik, jk in zip(ks, products[I], products[J]):
                    if ik != jk:
                        continue
                    if table[I.mask] == table[J.mask]:
                        yield HOLDS, None
                    else:
                        yield FAIL, _wit(ring, delta, I,
                                         detail=f"J={J!r}, K={K!r}: delta values differ")


@_claim("prop-idem-absorption", "Products absorb into delta(I)",
        "If IK and I are delta-n with delta idempotent at I and IK, and K "
        "not inside sqrt(0), then delta(IK) = delta(I).",
        "every (ring, expansion, ideal pair) meeting the hypothesis")
def _check_idem_absorption(ctx):
    for ring, delta, dn, proper, table, _, nil, _ in _by_expansion(ctx):
        lattice = enumerate_ideals(ring)
        for I in proper:
            if not _idempotent_delta_n(delta, dn, I.mask):
                continue
            for K in lattice:
                if K.mask & ~nil == 0:
                    continue
                ik = _product_mask(ring, I.mask, K.mask)
                if not _idempotent_delta_n(delta, dn, ik):
                    continue
                if table[ik] == table[I.mask]:
                    yield HOLDS, None
                else:
                    yield FAIL, _wit(ring, delta, I,
                                     detail=f"K={K!r}, IK={_mk_ideal(ring, ik)!r}")


def _zero_divisors_delta_q_nilpotent(delta, nil):
    """Every zero divisor of R/sqrt(0) lies in delta_q((0))."""
    qring = quotient_ring(delta.ring, nil).ring
    qzero = 1 << qring.zero_idx
    return _z_i_mask(qring, qzero) & ~derive_quotient_expansion(delta, nil).table[qzero] == 0


@_claim("prop-zero-divisor-quotient", "Zero divisors of R/sqrt(0)",
        "sqrt(0) is a delta-n-ideal iff every zero divisor of R/sqrt(0) is "
        "delta_q-nilpotent (lies in the derived expansion of the zero ideal).",
        "every (ring, expansion)")
def _check_zero_divisor_quotient(ctx):
    return _verdicts(
        _expansions(ctx), _no_hypothesis,
        lambda s, nil: _dn(nil, s.delta) == _zero_divisors_delta_q_nilpotent(s.delta, nil),
        # a failure means the two sides differ
        lambda s, nil: _wit(
            s.ring, s.delta, nil, detail=f"sqrt(0) delta-n={_dn(nil, s.delta)}, "
                                         f"zero-divisors delta_q-nilpotent="
                                         f"{not _dn(nil, s.delta)}"))


@_claim("prop-expansion-value-n", "n-ideal values pull back",
        "If delta(I) is proper and an n-ideal, then I is a delta-n-ideal.",
        "every (ring, expansion, proper ideal) meeting the hypothesis")
def _check_expansion_value_n(ctx):
    return _verdicts(_ideals(ctx),
                     lambda s, I: s.table[I.mask] in s.n_masks,
                     lambda s, I: I.mask in s.dn,
                     lambda s, I: _wit(s.ring, s.delta, I))


@_claim("prop-radical-value-n-iff", "Quasi n-ideals via sqrt(I)",
        "I is a quasi n-ideal iff sqrt(I) is an n-ideal.",
        "every (ring, proper ideal)")
def _check_radical_value_n_iff(ctx):
    for entry in ctx.entries:
        ring = entry.ring
        d1 = delta1(ring)
        scope = next(s for s in _scopes(ctx, entry) if s.delta is d1)
        for I in _proper(ring):
            if (I.mask in scope.dn) == (d1.table[I.mask] in scope.n_masks):
                yield HOLDS, None
            else:
                yield FAIL, _wit(ring, d1, I, detail=f"sqrt(I)={radical(I)!r}")


@_claim("prop-pointwise-monotone", "Pointwise-larger expansions preserve the class",
        "If delta(I) <= gamma(I) for every ideal I, then every "
        "delta-n-ideal is a gamma-n-ideal.",
        "every (ring, ordered expansion pair)")
def _check_pointwise_monotone(ctx):
    for entry in ctx.entries:
        ring = entry.ring
        lattice = enumerate_ideals(ring)
        dns, proper = [s.dn for s in _scopes(ctx, entry)], _proper(ring)
        for delta, dn in zip(entry.expansions, dns):
            for gamma, dn_g in zip(entry.expansions, dns):
                if any(delta.table[I.mask] & ~gamma.table[I.mask] for I in lattice):
                    yield SKIP, None
                    continue
                bad = next((I for I in proper
                            if I.mask in dn and I.mask not in dn_g), None)
                if bad is None:
                    yield HOLDS, None
                else:
                    yield FAIL, _wit(ring, delta, bad,
                                     detail=f"gamma={gamma.name()}")


@_claim("prop-compose-n-ideal", "Composition transfer",
        "If gamma(I) is proper and a delta-n-ideal, then I is a "
        "(delta o gamma)-n-ideal.",
        "every (ring, expansion pair, proper ideal)")
def _check_compose_n_ideal(ctx):
    for entry in ctx.entries:
        ring, proper = entry.ring, _proper(entry.ring)
        for delta, dn in zip(entry.expansions, (s.dn for s in _scopes(ctx, entry))):
            for gamma in entry.expansions:
                g_table, dn_comp = gamma.table, _composed_dn(delta, gamma)
                for I in proper:
                    if g_table[I.mask] not in dn:
                        yield SKIP, None
                    elif I.mask in dn_comp:
                        yield HOLDS, None
                    else:
                        g_val = _mk_ideal(ring, g_table[I.mask])
                        yield FAIL, _wit(ring, compose_expansions(delta, gamma), I,
                                         detail=f"gamma(I)={g_val!r}")


@_claim("prop-radical-transfer", "sqrt of a delta-n-ideal",
        "If sqrt(delta(I)) = delta(sqrt(I)) holds tablewise and I is "
        "delta-n, then sqrt(I) is delta-n.",
        "every (ring, radical-commuting expansion, delta-n ideal)")
def _check_radical_transfer(ctx):
    for ring, delta, dn, proper, *_ in _by_expansion(ctx):
        if not profile_expansion(delta).radical_commuting:
            yield SKIP, None
            continue
        for I in proper:
            if I.mask not in dn:
                yield SKIP, None
            elif _radical_mask(ring, I.mask) in dn:
                yield HOLDS, None
            else:
                yield FAIL, _wit(ring, delta, I, detail=f"sqrt(I)={radical(I)!r}")


@_claim("prop-sandwich", "Sandwiched ideals",
        "If J <= K <= I are proper, I is delta-n and delta(J) = delta(I), "
        "then K is delta-n.",
        "every (ring, expansion, chain J <= K <= I)")
def _check_sandwich(ctx):
    for ring, delta, dn, proper, table, *_ in _by_expansion(ctx):
        for I in proper:
            if I.mask not in dn:
                continue
            for K in proper:
                if K.mask & ~I.mask:
                    continue
                for J in proper:
                    if J.mask & ~K.mask:
                        continue
                    if table[J.mask] != table[I.mask]:
                        yield SKIP, None
                    elif K.mask in dn:
                        yield HOLDS, None
                    else:
                        yield FAIL, _wit(ring, delta, K, detail=f"J={J!r}, I={I!r}")


@_claim("prop-intersection", "Intersections under intersection-preserving delta",
        "If delta preserves intersections, finite intersections of "
        "delta-n-ideals are delta-n-ideals.",
        "every (ring, intersection-preserving expansion, delta-n pair)")
def _check_intersection(ctx):
    for ring, delta, dn, proper, *_ in _by_expansion(ctx):
        if not profile_expansion(delta).intersection_preserving:
            yield SKIP, None
            continue
        members = [I for I in proper if I.mask in dn]
        for I in members:
            for J in members:
                if I.mask & J.mask in dn:
                    yield HOLDS, None
                else:
                    yield FAIL, _wit(ring, delta, _mk_ideal(ring, I.mask & J.mask),
                                     detail=f"I={I!r}, J={J!r}")


@_claim("prop-intersection-noncomparable", "Non-comparable prime values",
        "If delta preserves intersections, delta(I1), delta(I2) are "
        "non-comparable primes and the intersection is delta-n, then each "
        "I_k is delta-n.",
        "every (ring, expansion, qualifying ideal pair)")
def _check_intersection_noncomparable(ctx):
    for ring, delta, dn, proper, table, *_ in _by_expansion(ctx):
        if not profile_expansion(delta).intersection_preserving:
            yield SKIP, None
            continue
        classes = _ideal_class.table(ring)
        for I in proper:
            dI = table[I.mask]
            if not classes[dI].is_prime:
                continue
            for J in proper:
                dJ = table[J.mask]
                if not classes[dJ].is_prime or dI & ~dJ == 0 or dJ & ~dI == 0:
                    continue
                meet = I.mask & J.mask
                if meet not in dn:
                    yield SKIP, None
                elif I.mask in dn and J.mask in dn:
                    yield HOLDS, None
                else:
                    yield FAIL, _wit(ring, delta, _mk_ideal(ring, meet),
                                     detail=f"I={I!r}, J={J!r}")


@_claim("lem-superfluous", "delta-n ideals with proper value are superfluous",
        "If I is delta-n with delta(I) != R, then no proper J satisfies "
        "I + J = R.",
        "every (ring, expansion, proper ideal) meeting the hypothesis")
def _check_superfluous(ctx):
    return _verdicts(_ideals(ctx), _delta_n_proper_value,
                     lambda s, I: classify_ideal(I).is_superfluous,
                     lambda s, I: _wit(s.ring, s.delta, I, detail="I is not superfluous"))


@_claim("prop-sum-delta-n", "Sums of delta-n ideals",
        "If I and J are delta-n with delta(I) != R and delta(J) != R, then "
        "I + J is a (proper) delta-n-ideal.",
        "every (ring, expansion, qualifying ideal pair)")
def _check_sum_delta_n(ctx):
    for ring, delta, dn, proper, table, full, *_ in _by_expansion(ctx):
        qualifying = [I for I in proper if table[I.mask] != full and I.mask in dn]
        for I in qualifying:
            for J in qualifying:
                s = _sum_mask(ring, I.mask, J.mask)
                if s in dn:
                    yield HOLDS, None
                else:
                    yield FAIL, _wit(ring, delta, _mk_ideal(ring, s),
                                     detail=f"I={I!r}, J={J!r}")


# ---------------------------------------------------------------------------
# quotient transfer
# ---------------------------------------------------------------------------

@memo
def _quotient_groups(ctx):
    """(scope of (ring, delta), J, [(I, mask of I/J) for proper I >= J], delta_q-n
    set of R/J) for each corpus ring, proper J and catalog expansion; one list a run."""
    out = []
    for entry in ctx.entries:
        ring = entry.ring
        scopes, proper = _scopes(ctx, entry), _proper(ring)
        for J in proper:
            images = Homomorphism.image_mask.table(quotient_ring(ring, J).projection)
            above = [(I, images[I.mask]) for I in proper if J.mask & ~I.mask == 0]
            out += [(s, J, above, delta_n_masks(derive_quotient_expansion(s.delta, J)))
                    for s in scopes]
    return out


def _quotient_instances(ctx):
    """(scope, J, I, mask of I/J, delta_q-n set of R/J), group by group."""
    for s, J, above, dn_q in _quotient_groups(ctx):
        for I, img in above:
            yield s, J, I, img, dn_q


def _quotient_witness(s, J, I, img, dn_q):
    return _wit(s.ring, s.delta, I, detail=f"J={J!r}")


@_claim("cor-quotient-forward", "delta-n passes to quotients",
        "If J <= I are proper and I is delta-n, then I/J is a "
        "delta_q-n-ideal of R/J.",
        "every (ring, expansion, proper J <= I)")
def _check_quotient_forward(ctx):
    return _verdicts(_quotient_instances(ctx),
                     lambda s, J, I, img, dn_q: I.mask in s.dn,
                     lambda s, J, I, img, dn_q: img in dn_q,
                     _quotient_witness)


@_claim("cor-quotient-back-nilpotent", "Lifting along nil J",
        "If I/J is delta_q-n and J <= sqrt(0), then I is delta-n.",
        "every (ring, expansion, proper J <= I)")
def _check_quotient_back_nilpotent(ctx):
    return _verdicts(_quotient_instances(ctx),
                     lambda s, J, I, img, dn_q: J.mask & ~s.nil == 0 and img in dn_q,
                     lambda s, J, I, img, dn_q: I.mask in s.dn,
                     _quotient_witness)


@_claim("cor-quotient-back-delta-n", "Lifting along a delta-n J",
        "If I/J is delta_q-n, J is delta-n and delta(J) != R, then I is "
        "delta-n.",
        "every (ring, expansion, proper J <= I)")
def _check_quotient_back_delta_n(ctx):
    return _verdicts(_quotient_instances(ctx),
                     lambda s, J, I, img, dn_q: (s.table[J.mask] != s.full and J.mask in s.dn
                                                 and img in dn_q),
                     lambda s, J, I, img, dn_q: I.mask in s.dn,
                     _quotient_witness)


# ---------------------------------------------------------------------------
# homomorphism transfer
# ---------------------------------------------------------------------------

@_claim("prop-hom-preimage", "Preimages along monomorphisms",
        "For an injective delta-gamma-homomorphism, the preimage of a "
        "gamma-n-ideal is a delta-n-ideal.",
        "every (family hom, expansion pair, target proper ideal)")
def _check_hom_preimage(ctx):
    dns = _catalog_dns(ctx)
    for f, pairs in ctx.hom_instances():
        if not f.is_injective():
            continue
        preimages, proper = Homomorphism.preimage_mask.table(f), _proper(f.target)
        for delta, gamma in pairs:
            if not is_delta_gamma_homomorphism(f, delta, gamma):
                yield SKIP, None
                continue
            dn, dn_g = _dn_set(dns, delta), _dn_set(dns, gamma)
            for J in proper:
                if J.mask not in dn_g:
                    yield SKIP, None
                elif preimages[J.mask] in dn:
                    yield HOLDS, None
                else:
                    pre = _mk_ideal(f.source, preimages[J.mask])
                    yield FAIL, _wit(f.source, delta, pre,
                                     detail=f"target {f.target.key}, J={J!r}, "
                                            f"gamma={gamma.name()}")


@_claim("prop-hom-image", "Images along epimorphisms",
        "For a surjective delta-gamma-homomorphism and I >= ker(f) proper "
        "delta-n, the image f(I) is a gamma-n-ideal.",
        "every (family epimorphism, expansion pair, source proper ideal)")
def _check_hom_image(ctx):
    dns = _catalog_dns(ctx)
    for f, pairs in ctx.hom_instances():
        if not f.is_surjective():
            continue
        ker, full = f.kernel.mask, f.target.full_mask
        images, proper = Homomorphism.image_mask.table(f), _proper(f.source)
        for delta, gamma in pairs:
            if not is_delta_gamma_homomorphism(f, delta, gamma):
                yield SKIP, None
                continue
            dn, dn_g = _dn_set(dns, delta), _dn_set(dns, gamma)
            for I in proper:
                if ker & ~I.mask or I.mask not in dn:
                    yield SKIP, None
                    continue
                img = images[I.mask]
                if img == full:
                    yield FAIL, _wit(f.source, delta, I, detail="image is the whole ring")
                elif img in dn_g:
                    yield HOLDS, None
                else:
                    yield FAIL, _wit(f.source, delta, I,
                                     detail=f"target {f.target.key}, "
                                            f"f(I)={_mk_ideal(f.target, img)!r}, "
                                            f"gamma={gamma.name()}")


@_claim("prop-hom-epi-pushforward", "Pushforward identity",
        "For a surjective delta-gamma-homomorphism and I >= ker(f): "
        "gamma(f(I)) = f(delta(I)).",
        "every (family epimorphism, expansion pair, ideal I >= ker)")
def _check_hom_epi_pushforward(ctx):
    for f, pairs in ctx.hom_instances():
        if not f.is_surjective():
            continue
        ker, images = f.kernel.mask, Homomorphism.image_mask.table(f)
        lattice = enumerate_ideals(f.source)
        for delta, gamma in pairs:
            if not is_delta_gamma_homomorphism(f, delta, gamma):
                yield SKIP, None
                continue
            for I in lattice:
                if ker & ~I.mask:
                    yield SKIP, None
                    continue
                lhs = gamma.table[images[I.mask]]
                rhs = images[delta.table[I.mask]]
                if lhs == rhs:
                    yield HOLDS, None
                else:
                    yield FAIL, _wit(f.source, delta, I,
                                     detail=f"gamma(f(I))={_mk_ideal(f.target, lhs)!r}"
                                            f" != f(delta(I))={_mk_ideal(f.target, rhs)!r}")


@_claim("prop-radical-hom", "Radical expansions along any homomorphism",
        "Every ring homomorphism is a delta1-gamma1-homomorphism for the "
        "radical expansions on both sides.",
        "every family homomorphism")
def _check_radical_hom(ctx):
    for f, _pairs in ctx.hom_instances():
        if is_delta_gamma_homomorphism(f, delta1(f.source), delta1(f.target)):
            yield HOLDS, None
        else:
            yield FAIL, _wit(f.source, detail=f"radical expansions along {f!r}")


# ---------------------------------------------------------------------------
# products, idealizations, localizations
# ---------------------------------------------------------------------------

@_claim("rem-product-obstruction", "No delta-n-ideals with a proper component",
        "On R1 x R2 with delta_x componentwise: an ideal I1 x I2 with "
        "delta_1(I1) != R1 or delta_2(I2) != R2 is never delta_x-n.",
        "every (product ring, component expansion pair, proper ideal)")
def _check_product_obstruction(ctx):
    for entry in ctx.entries:
        ring = entry.ring
        if ring.origin[0] != "product":
            continue
        _, left, right = ring.origin
        p1, p2 = (Homomorphism.image_mask.table(p) for p in product_projections(ring))
        for d1 in catalog(left):
            for d2 in catalog(right):
                dx = derive_product_expansion(d1, d2)
                dn = delta_n_masks(dx)
                for I in _proper(ring):
                    if d1.table[p1[I.mask]] == left.full_mask and \
                       d2.table[p2[I.mask]] == right.full_mask:
                        yield SKIP, None
                    elif I.mask in dn:
                        yield FAIL, _wit(ring, dx, I,
                                         detail="delta-n despite a proper component value")
                    else:
                        yield HOLDS, None


def _homogeneous_pairs(rec, ideals):
    """(I, N) for each I of ``ideals`` and each submodule N of the idealization's
    module with IM <= N, so that I(+)N is an ideal of R(+)M."""
    for I in ideals:
        for N in enumerate_submodules(rec.module):
            if rec.im_inside(I.mask, N.mask):
                yield I, N


@_claim("prop-idealization-transfer", "Idealization equivalence",
        "For IM <= N: I is delta-n in R iff I(+)N is delta_(+)-n in R(+)M.",
        "every (idealization, base expansion, homogeneous pair)")
def _check_idealization_transfer(ctx):
    dns = _catalog_dns(ctx)
    for rec, base_catalog in ctx.idealization_instances():
        for delta in base_catalog:
            dn = _dn_set(dns, delta)
            dn_plus = delta_n_masks(derive_idealization_expansion(delta, rec.module))
            for I, N in _homogeneous_pairs(rec, _proper(rec.base)):
                if (I.mask in dn) == (rec.homogeneous_mask(I.mask, N.mask) in dn_plus):
                    yield HOLDS, None
                else:
                    yield FAIL, _wit(rec.ring, delta, I, detail=f"N={N!r}")


@_claim("prop-idealization-radical", "Radical of a homogeneous ideal",
        "sqrt(I(+)N) = sqrt(I)(+)M in every idealization ring.",
        "every (idealization, homogeneous pair)")
def _check_idealization_radical(ctx):
    for rec, _catalog in ctx.idealization_instances():
        base, full_m = rec.base, (1 << rec.module.size) - 1
        for I, N in _homogeneous_pairs(rec, enumerate_ideals(base)):
            W = rec.homogeneous_mask(I.mask, N.mask)
            expected = rec.homogeneous_mask(_radical_mask(base, I.mask), full_m)
            if _radical_mask(rec.ring, W) == expected:
                yield HOLDS, None
            else:
                yield FAIL, _wit(rec.ring, ideal=_mk_ideal(rec.ring, W),
                                 detail="radical is not sqrt(I)(+)M")


@_claim("prop-loc-forward", "Localization of a delta-n-ideal",
        "If I is delta-n with I and S disjoint, then S^-1 I is a "
        "delta_S-n-ideal of S^-1 R.",
        "every (ring, multiplicative set, expansion, proper ideal)")
def _check_loc_forward(ctx):
    for entry in ctx.entries:
        ring = entry.ring
        for sset in ctx.mult_sets(ring):
            rec = localize(ring, sset)
            extend = Homomorphism.image_mask.table(rec.canonical)
            smask = sum(1 << i for i in sset.indices)
            for _, delta, dn, proper, *_ in _scopes(ctx, entry):
                dn_s = _localized_dn(delta, sset)
                for I in proper:
                    if I.mask & smask or I.mask not in dn:
                        yield SKIP, None
                    elif extend[I.mask] in dn_s:
                        yield HOLDS, None
                    else:
                        ext = _mk_ideal(rec.ring, extend[I.mask])
                        yield FAIL, _wit(ring, delta, I,
                                         detail=f"S={sset!r}, extension={ext!r}")


@_claim("prop-loc-backward", "Descending from the localization",
        "If S misses Z(R) and Z_delta(I)(R) and S^-1 I is delta_S-n, then "
        "I is delta-n.",
        "every (ring, multiplicative set, expansion, proper ideal)")
def _check_loc_backward(ctx):
    for entry in ctx.entries:
        ring = entry.ring
        zdiv = _z_i_mask(ring, 1 << ring.zero_idx)  # the zero divisors
        z_is = _z_i_mask.table(ring)
        for sset in ctx.mult_sets(ring):
            smask = sum(1 << i for i in sset.indices)
            if zdiv & smask:  # a hypothesis fails at every (delta, I)
                yield from [(SKIP, None)] * (len(entry.expansions) * len(_proper(ring)))
                continue
            extend = Homomorphism.image_mask.table(localize(ring, sset).canonical)
            for _, delta, dn, proper, *_ in _scopes(ctx, entry):
                dn_s = _localized_dn(delta, sset)
                for I in proper:
                    if z_is[delta.table[I.mask]] & smask or extend[I.mask] not in dn_s:
                        yield SKIP, None
                    elif I.mask in dn:
                        yield HOLDS, None
                    else:
                        yield FAIL, _wit(ring, delta, I, detail=f"S={sset!r}")


@_claim("prop-loc-regular-contract", "Contraction from the regular localization",
        "Localizing at the regular elements (units, on finite rings): "
        "every delta_S-n-ideal contracts to a delta-n-ideal.",
        "every (ring, expansion, proper localized ideal)")
def _check_loc_regular_contract(ctx):
    for entry in ctx.entries:
        ring = entry.ring
        regs = sorted(e.idx for e in special_sets(ring).regular_elements)
        sset = constructions.MultiplicativeSet(ring, tuple(regs))
        rec = localize(ring, sset)
        contract, proper = Homomorphism.preimage_mask.table(rec.canonical), _proper(rec.ring)
        for delta, dn in zip(entry.expansions, (s.dn for s in _scopes(ctx, entry))):
            dn_s = _localized_dn(delta, sset)
            for K in proper:
                if K.mask not in dn_s:
                    yield SKIP, None
                elif contract[K.mask] in dn:
                    yield HOLDS, None
                else:
                    yield FAIL, _wit(ring, delta, _mk_ideal(ring, contract[K.mask]),
                                     detail=f"K={K!r}")


@_claim("audit-loc-well-defined", "Representative independence of delta_S",
        "No base-ideal pair on the corpus has equal extensions but "
        "different extended delta-values; the derived expansion always "
        "contracts first, so it is a function regardless.",
        "every (ring, multiplicative set, expansion)")
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

@_claim("audit-example-unit-ideal", "The ideal (x+1) in Z4[x]/(x^3) is the unit ideal",
        "(1+x)(1+3x+x^2) = 1, so the ideal generated by x+1 is the whole "
        "ring and sqrt(0) = (2, x) has 32 elements; any account treating "
        "(x+1) as a proper ideal of this ring is inconsistent with the "
        "computed algebra.",
        "three fixed computations on Z4[x]/(x^3)",
        notes=("flagged: the motivating example of a delta-n-but-not-n "
               "ideal presumes (x+1) proper, which is inconsistent with "
               "the computation ((1+x)(1+3x+x^2)=1); the properness guard "
               "therefore rejects that ideal",))
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


@_claim("conj-proper-delta-n-is-n", "Recorded conjecture: proper values force n-ideals",
        "On every finite corpus instance, a delta-n-ideal with delta(I) != "
        "R is also an n-ideal (recorded observation; the separating "
        "examples in the source theory all have delta(I) = R).",
        "every (ring, expansion, proper ideal) meeting the hypothesis")
def _check_conjecture_proper_n(ctx):
    return _verdicts(_ideals(ctx), _delta_n_proper_value,
                     lambda s, I: I.mask in s.n_masks,
                     lambda s, I: _wit(s.ring, s.delta, I,
                                       elements=_pair_repr(*n_ideal_witness(I)),
                                       detail="separates delta-n from n-ideal"))


@_claim("selftest-z6-all-n-ideals", "Self-test: inverted claim about Z6",
        "Deliberately false: every proper ideal of Z6 is an n-ideal.  Used "
        "to exercise the witness machinery; the first witness must be "
        "ideal (0) with a=2, b=3.",
        "proper ideals of Z6", self_test=True)
def _check_selftest_z6(ctx):
    ring = modular(6)
    for I in _proper(ring):
        wit = n_ideal_witness(I)
        if wit is None:
            yield HOLDS, None
        else:
            yield FAIL, _wit(ring, ideal=I, elements=_pair_repr(*wit))


@_claim("selftest-z12-nilradical-prime", "Self-test: inverted claim about Z12",
        "Deliberately false: sqrt(0) is a prime ideal of Z12.",
        "one fixed instance", self_test=True)
def _check_selftest_z12(ctx):
    ring = modular(12)
    nil = nilradical(ring)
    outside = [a for a in ring.list_elements() if not nil.contains(a)]
    witness = next(((a, b) for a in outside for b in outside if nil.contains(a * b)), None)
    if witness is None:
        yield HOLDS, None
    else:
        yield FAIL, _wit(ring, ideal=nil, elements=_pair_repr(*witness))


CLAIMS = tuple(CLAIMS)
CLAIMS_BY_ID = {c.id: c for c in CLAIMS}
