"""Executable claim registry for the delta-n-ideal theory.

Each claim pairs a formal statement with a checker that quantifies over corpus
instances and yields one value per instance: the constant ``HOLDS``, the
constant ``SKIP`` (hypothesis not met), or the ``Witness`` of a failure.
Checkers are deterministic: corpus, catalog, lattice and element order.

A claim is declared once, by the ``@_claim`` decorator on its checker; the
registry ``CLAIMS`` is in definition order, which is the report order.  A
checker whose claim reads "if hypothesis, then conclusion" over one instance
at a time hands an instance generator, the hypothesis, the conclusion and the
witness to the verdict kernel ``_verdicts``.  An instance outside the claim's
quantifier is never yielded; an instance that fails the hypothesis is a skip.
Checkers over pairs, chains, maps and constructions keep their own loops.

Checkers work on masks: an ideal is its mask in the one lattice,
``ideals._lattice``, and ``_proper`` drops R.  A loop over one (ring, delta)
reads its delta-n set ``dn`` once and tests ``m in dn``.  The set of an
interned expansion, a catalog one or one derived to a quotient, a product or
an idealization, is built once per run, in the run's one table ``_dn``; a
composition's or a localization's, for which no expansion is interned, is
built where it is used, straight off the base tables
(``predicates._composed_dn``, ``_localized_dn``).  Values come from the
expansion tables, and colons, images, preimages and extensions from the
kernels' memo tables (``fn.table``), bound once per loop; a rule that a public
predicate states is read through the mask helper it calls, such as
``predicates._delta_primary``.  An ``Ideal`` is built only for the witness of a
failure, for an API that takes one (``quotient_ring``), and where a claim
cross-checks the public predicates on purpose (``thm-four-equivalents``,
``ex-z6-zero-not-n``, the claims on ZZ, the self-tests).
"""

from __future__ import annotations

from collections import namedtuple

from . import constructions, predicates
from .constructions import (Homomorphism, enumerate_submodules, is_delta_gamma_homomorphism,
                            localize, product_projections, quotient_ring)
from .errors import UnknownClaimError
from .expansions import (_colon_violation, catalog, compose_expansions, delta0, delta1,
                         delta_plus, derive_idealization_expansion, derive_product_expansion,
                         derive_quotient_expansion, localization_value_collisions,
                         profile_expansion)
from .ideals import (_bits, _colon_mask, _ideal_class, _is_prime_int, _lattice, _mk_ideal,
                     _nil_mask, _principal_columns, _product_mask, _radical_mask, _sum_mask,
                     _z_i_mask, ideal_from_generators, integer_ideal, nilradical, zero_ideal)
from .predicates import (_composed_dn, _delta_primary, _localized_dn, _spectrum, delta_n_masks,
                         delta_n_witness, is_delta_n_ideal, is_n_ideal, n_ideal_witness)
from .rings import classify_ring, memo, modular, poly_quotient


HOLDS, SKIP = "holds", "skip"


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
    otherwise the failure's ``witness``, built only then.  The three callables
    take the fields of an instance as their arguments."""
    for inst in instances:
        if not hyp(*inst):
            yield SKIP
        elif concl(*inst):
            yield HOLDS
        else:
            yield witness(*inst)


def _no_hypothesis(*inst):
    return True


@memo
def _proper(ring):
    """The masks of the proper ideals, in lattice order."""
    return tuple(m for m in _lattice(ring) if m != ring.full_mask)


def _by_expansion(ctx):
    """The scope of each corpus ring and catalog expansion."""
    for entry in ctx.entries:
        yield from _scopes(ctx, entry)


# one (ring, delta) with what its hypotheses and conclusions read, so that
# a verdict reads attributes rather than calling a memoised function
_Scope = namedtuple("_Scope", "ring delta dn proper table full nil n_masks")


@memo
def _dn(ctx, delta):
    """The delta-n set of an interned expansion, built once per run: the one
    place a checker gets it from."""
    return delta_n_masks(delta)


@memo
def _scopes(ctx, entry):
    """The scope of each catalog expansion of one corpus entry, built once per
    run; ``n_masks``, the proper n-ideals, is the delta-n set of delta0."""
    ring = entry.ring
    nil, n_masks = _nil_mask(ring), _dn(ctx, delta0(ring))
    return [_Scope(ring, d, _dn(ctx, d), _proper(ring), d.table, ring.full_mask, nil, n_masks)
            for d in entry.expansions]


def _ideals(ctx):
    """(scope, m) for each corpus ring, catalog expansion and proper ideal mask m."""
    for scope in _by_expansion(ctx):
        for m in scope.proper:
            yield scope, m


def _delta_n_proper_value(s, m):
    """The recurring hypothesis: the ideal m is delta-n and delta(m) != R."""
    return s.table[m] != s.full and m in s.dn


def _idempotent_delta_n(delta, dn, mask):
    """delta(delta(I)) = delta(I) and I is delta-n, at the ideal with this mask."""
    return delta.table[delta.table[mask]] == delta.table[mask] and mask in dn


def _wit(ring, delta=None, ideal=None, elements=None, detail=""):
    """A witness on ``ring``; ``ideal`` is an ``Ideal``, or the mask of an ideal of ``ring``."""
    if isinstance(ideal, int):
        ideal = _mk_ideal(ring, ideal)
    return Witness(
        ring=ring.key,
        expansion=delta.name() if delta is not None else "",
        ideal=repr(ideal) if ideal is not None else "",
        elements=elements or "",
        detail=detail,
    )


def _named(ring, *labelled):
    """The ideals of ``ring`` given as (label, mask) pairs, printed as 'J=(2), K=(3)'."""
    return ", ".join(f"{label}={_mk_ideal(ring, m)!r}" for label, m in labelled)


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
    methods = predicates.DELTA_N_METHODS
    for entry in ctx.entries:
        ring, proper = entry.ring, [_mk_ideal(entry.ring, m) for m in _proper(entry.ring)]
        for delta in entry.expansions:
            for I in proper:
                values = [is_delta_n_ideal(I, delta, method=m) for m in methods]
                if len(set(values)) == 1:
                    yield HOLDS
                else:
                    detail = ", ".join(f"{m}={v}" for m, v in zip(methods, values))
                    yield _wit(ring, delta, I, detail=detail)


@_claim("prop-subset-nilradical", "Proper-expansion delta-n ideals are nil",
        "If delta(I) != R and I is a delta-n-ideal, then I <= sqrt(0).",
        "every (ring, expansion, proper ideal) meeting the hypothesis")
def _check_subset_nilradical(ctx):
    return _verdicts(_ideals(ctx), _delta_n_proper_value,
                     lambda s, m: m & ~s.nil == 0,
                     lambda s, m: _wit(s.ring, s.delta, m, detail="I is not inside sqrt(0)"))


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
            yield _wit(ring, delta, zero, detail="(0) was judged delta-n")
        elif (wit[0].idx, wit[1].idx) != (2, 3):
            yield _wit(ring, delta, zero, elements=_pair_repr(*wit),
                       detail="expected witness a=2, b=3")
        else:
            yield HOLDS


@_claim("prop-primary-to-delta-n", "delta-primary inside sqrt(0) is delta-n",
        "If I <= sqrt(0) is proper and delta-primary, then I is a delta-n-ideal.",
        "every (ring, expansion, proper ideal) meeting the hypothesis")
def _check_primary_to_delta_n(ctx):
    return _verdicts(_ideals(ctx),
                     lambda s, m: m & ~s.nil == 0 and _delta_primary(s.ring, m, s.table[m]),
                     lambda s, m: m in s.dn,
                     lambda s, m: _wit(s.ring, s.delta, m, elements=_pair_repr(
                         *delta_n_witness(_mk_ideal(s.ring, m), s.delta))))


@_claim("prop-nilradical-primary-iff", "At sqrt(0) the two classes agree",
        "sqrt(0) is delta-primary if and only if sqrt(0) is a delta-n-ideal.",
        "every (ring, expansion)")
def _check_nilradical_primary_iff(ctx):
    # zip makes one-field instances (s,) of the scopes
    return _verdicts(zip(_by_expansion(ctx)), _no_hypothesis,
                     lambda s: _delta_primary(s.ring, s.nil, s.table[s.nil]) == (s.nil in s.dn),
                     lambda s: _wit(s.ring, s.delta, s.nil,
                                    detail="delta-primary and delta-n disagree at sqrt(0)"))


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
            ok = (is_delta_n_ideal(I, dp) and not is_delta_n_ideal(I, d0)
                  and not is_delta_n_ideal(I, d1) and not is_n_ideal(I))
            if ok:
                yield HOLDS
            else:
                yield _wit(zz, dp, I, detail=f"p={p}, q={q}")


@_claim("prop-delta-primary-iff-subset", "Primary + proper value: delta-n iff nil",
        "If I is delta-primary with delta(I) != R, then I is delta-n iff "
        "I <= sqrt(0).",
        "every (ring, expansion, proper ideal) meeting the hypothesis")
def _check_primary_iff_subset(ctx):
    return _verdicts(_ideals(ctx),
                     lambda s, m: s.table[m] != s.full and _delta_primary(s.ring, m, s.table[m]),
                     lambda s, m: (m in s.dn) == (m & ~s.nil == 0),
                     lambda s, m: _wit(s.ring, s.delta, m))


@_claim("prop-prime-iff-nilradical", "Prime + proper value: delta-n iff I=sqrt(0)",
        "If I is prime with delta(I) != R, then I is delta-n iff I = sqrt(0).",
        "every (ring, expansion, prime proper ideal)")
def _check_prime_iff_nilradical(ctx):
    return _verdicts(_ideals(ctx),
                     lambda s, m: _ideal_class(s.ring, m).is_prime and s.table[m] != s.full,
                     lambda s, m: (m in s.dn) == (m == s.nil),
                     lambda s, m: _wit(s.ring, s.delta, m))


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
        c2 = all(m in dn for dn in dns for m in _proper(ring))
        nil, classes = _nil_mask(ring), _ideal_class.table(ring)
        c3 = [m for m in _lattice(ring) if classes[m].is_prime] == [nil]
        # quasi-local: one maximal ideal, which is sqrt(0) when sqrt(0) is maximal
        c4 = classify_ring(ring).is_quasi_local and classes[nil].is_maximal
        if c1 == c2 == c3 == c4:
            yield HOLDS
        else:
            yield _wit(ring, detail=f"principal={c1}, all={c2}, "
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
            if is_delta_n_ideal(I, delta) == (n == 0):
                yield HOLDS
            else:
                yield _wit(zz, delta, I)


@_claim("thm-von-neumann-field", "Field iff von Neumann regular + (0) delta-n",
        "For delta with delta(0) = 0: R is a field iff R is von Neumann "
        "regular and (0) is a delta-n-ideal.",
        "every (ring, zero-fixed expansion)")
def _check_von_neumann_field(ctx):
    return _verdicts(
        zip(_by_expansion(ctx)),
        lambda s: profile_expansion(s.delta).zero_fixed,
        lambda s: classify_ring(s.ring).is_field == (
            classify_ring(s.ring).is_von_neumann_regular and (1 << s.ring.zero_idx) in s.dn),
        # a failure means the two sides differ
        lambda s: _wit(
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
        for m in proper:
            if m not in dn:
                continue
            dmask = table[m]
            colons, d_colons = _colon_mask.table(ring, m), _colon_mask.table(ring, dmask)
            for x in range(ring.size):
                if dmask >> x & 1:
                    continue
                cx = colons[x]
                # (delta(I):x) <= delta(I:x) != R; a hypothesis, except for delta1
                side = not (d_colons[x] & ~table[cx]) and table[cx] != full
                if not (side or is_radical):
                    yield SKIP
                elif side and cx in dn:
                    yield HOLDS
                else:
                    yield _wit(ring, delta, m, elements=f"x={ring.element_repr(x)}",
                               detail=_named(ring, ("(I:x)", cx)))


@_claim("prop-maximal-is-nilradical", "Maximal delta-n ideals are sqrt(0)",
        "Under the colon hypothesis at I, every maximal member of the "
        "delta-n spectrum equals sqrt(0) and is prime.",
        "every (ring, expansion, maximal spectrum member)")
def _check_maximal_is_nilradical(ctx):
    for s in _by_expansion(ctx):
        for m in _spectrum(s.ring, s.dn)[1]:  # the maximal members
            if _colon_violation(s.delta, m) is not None:
                yield SKIP
            elif m == s.nil and _ideal_class(s.ring, m).is_prime:
                yield HOLDS
            else:
                yield _wit(s.ring, s.delta, m, detail="maximal member is not the prime nilradical")


def _existence_conditions(s):
    """A delta-n-ideal exists; sqrt(0) is prime; sqrt(0) is delta-primary."""
    return (bool(s.dn), _ideal_class(s.ring, s.nil).is_prime,
            _delta_primary(s.ring, s.nil, s.table[s.nil]))


@_claim("thm-existence", "Existence of a delta-n-ideal",
        "If delta satisfies the colon hypothesis globally, then: a "
        "delta-n-ideal exists iff sqrt(0) is prime iff sqrt(0) is "
        "delta-primary.",
        "every (ring, expansion) with the colon hypothesis")
def _check_existence(ctx):
    return _verdicts(
        zip(_by_expansion(ctx)),
        lambda s: profile_expansion(s.delta).colon_condition,
        lambda s: len(set(_existence_conditions(s))) == 1,
        lambda s: _wit(s.ring, s.delta, detail=(
            "spectrum-nonempty={}, nilradical-prime={}, nilradical-delta-primary={}"
            .format(*_existence_conditions(s)))))


@_claim("prop-idem-colon-expansion", "Idempotent delta: delta(I:a) = delta(I)",
        "If delta(delta(I)) = delta(I), I is delta-n and a is outside "
        "sqrt(0), then delta(I:a) = delta(I).",
        "every (ring, expansion, delta-n ideal, non-nilpotent a)")
def _check_idem_colon_expansion(ctx):
    for ring, delta, dn, proper, table, _, nil, _ in _by_expansion(ctx):
        for m in proper:
            if not _idempotent_delta_n(delta, dn, m):
                yield SKIP
                continue
            colons = _colon_mask.table(ring, m)
            for a in range(ring.size):
                if nil >> a & 1:
                    continue
                if table[colons[a]] == table[m]:
                    yield HOLDS
                else:
                    yield _wit(ring, delta, m, elements=f"a={ring.element_repr(a)}")


@_claim("prop-idem-value-n-iff", "Idempotent delta: value is n iff delta-n",
        "If delta(delta(I)) = delta(I) and delta(I) is proper, then "
        "delta(I) is an n-ideal iff delta(I) is a delta-n-ideal.",
        "every (ring, expansion, proper ideal with idempotent proper value)")
def _check_idem_value_n_iff(ctx):
    return _verdicts(_ideals(ctx),
                     lambda s, m: s.table[s.table[m]] == s.table[m] != s.full,
                     lambda s, m: (s.table[m] in s.n_masks) == (s.table[m] in s.dn),
                     lambda s, m: _wit(s.ring, s.delta, m,
                                       detail=_named(s.ring, ("delta(I)", s.table[m]))))


@_claim("prop-idem-cancellation", "Cancellation along a non-nil factor",
        "If IK = JK with I, J delta-n, delta idempotent at I and J, and K "
        "not inside sqrt(0), then delta(I) = delta(J).",
        "every (ring, expansion, ideal triple) meeting the hypothesis")
def _check_idem_cancellation(ctx):
    for ring, delta, dn, proper, table, _, nil, _ in _by_expansion(ctx):
        qualifying = [m for m in proper if _idempotent_delta_n(delta, dn, m)]
        ks = [k for k in _lattice(ring) if k & ~nil]
        # IK for each qualifying I and each K outside sqrt(0), in lattice order
        products = {i: [_product_mask(ring, i, k) for k in ks] for i in qualifying}
        for i in qualifying:
            for j in qualifying:
                for k, ik, jk in zip(ks, products[i], products[j]):
                    if ik != jk:
                        continue
                    if table[i] == table[j]:
                        yield HOLDS
                    else:
                        yield _wit(ring, delta, i, detail=_named(ring, ("J", j), ("K", k))
                                   + ": delta values differ")


@_claim("prop-idem-absorption", "Products absorb into delta(I)",
        "If IK and I are delta-n with delta idempotent at I and IK, and K "
        "not inside sqrt(0), then delta(IK) = delta(I).",
        "every (ring, expansion, ideal pair) meeting the hypothesis")
def _check_idem_absorption(ctx):
    for ring, delta, dn, proper, table, _, nil, _ in _by_expansion(ctx):
        lattice = _lattice(ring)
        for i in proper:
            if not _idempotent_delta_n(delta, dn, i):
                continue
            for k in lattice:
                if k & ~nil == 0:
                    continue
                ik = _product_mask(ring, i, k)
                if not _idempotent_delta_n(delta, dn, ik):
                    continue
                if table[ik] == table[i]:
                    yield HOLDS
                else:
                    yield _wit(ring, delta, i, detail=_named(ring, ("K", k), ("IK", ik)))


def _zero_divisors_delta_q_nilpotent(delta):
    """Every zero divisor of R/sqrt(0) lies in delta_q((0))."""
    nil = nilradical(delta.ring)
    qring = quotient_ring(delta.ring, nil).ring
    qzero = 1 << qring.zero_idx
    return _z_i_mask(qring, qzero) & ~derive_quotient_expansion(delta, nil).table[qzero] == 0


@_claim("prop-zero-divisor-quotient", "Zero divisors of R/sqrt(0)",
        "sqrt(0) is a delta-n-ideal iff every zero divisor of R/sqrt(0) is "
        "delta_q-nilpotent (lies in the derived expansion of the zero ideal).",
        "every (ring, expansion)")
def _check_zero_divisor_quotient(ctx):
    return _verdicts(
        zip(_by_expansion(ctx)), _no_hypothesis,
        lambda s: (s.nil in s.dn) == _zero_divisors_delta_q_nilpotent(s.delta),
        # a failure means the two sides differ
        lambda s: _wit(s.ring, s.delta, s.nil, detail=f"sqrt(0) delta-n={s.nil in s.dn}, "
                       f"zero-divisors delta_q-nilpotent={s.nil not in s.dn}"))


@_claim("prop-expansion-value-n", "n-ideal values pull back",
        "If delta(I) is proper and an n-ideal, then I is a delta-n-ideal.",
        "every (ring, expansion, proper ideal) meeting the hypothesis")
def _check_expansion_value_n(ctx):
    return _verdicts(_ideals(ctx),
                     lambda s, m: s.table[m] in s.n_masks,
                     lambda s, m: m in s.dn,
                     lambda s, m: _wit(s.ring, s.delta, m))


@_claim("prop-radical-value-n-iff", "Quasi n-ideals via sqrt(I)",
        "I is a quasi n-ideal iff sqrt(I) is an n-ideal.",
        "every (ring, proper ideal)")
def _check_radical_value_n_iff(ctx):
    for entry in ctx.entries:
        ring, d1 = entry.ring, delta1(entry.ring)
        dn, n_masks = _dn(ctx, d1), _dn(ctx, delta0(ring))
        for m in _proper(ring):
            if (m in dn) == (d1.table[m] in n_masks):
                yield HOLDS
            else:
                yield _wit(ring, d1, m, detail=_named(ring, ("sqrt(I)", d1.table[m])))


@_claim("prop-pointwise-monotone", "Pointwise-larger expansions preserve the class",
        "If delta(I) <= gamma(I) for every ideal I, then every "
        "delta-n-ideal is a gamma-n-ideal.",
        "every (ring, ordered expansion pair)")
def _check_pointwise_monotone(ctx):
    for entry in ctx.entries:
        ring = entry.ring
        lattice = _lattice(ring)
        dns, proper = [s.dn for s in _scopes(ctx, entry)], _proper(ring)
        for delta, dn in zip(entry.expansions, dns):
            for gamma, dn_g in zip(entry.expansions, dns):
                if any(delta.table[m] & ~gamma.table[m] for m in lattice):
                    yield SKIP
                    continue
                bad = next((m for m in proper if m in dn and m not in dn_g), None)
                if bad is None:
                    yield HOLDS
                else:
                    yield _wit(ring, delta, bad, detail=f"gamma={gamma.name()}")


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
                for m in proper:
                    if g_table[m] not in dn:
                        yield SKIP
                    elif m in dn_comp:
                        yield HOLDS
                    else:
                        yield _wit(ring, compose_expansions(delta, gamma), m,
                                   detail=_named(ring, ("gamma(I)", g_table[m])))


@_claim("prop-radical-transfer", "sqrt of a delta-n-ideal",
        "If sqrt(delta(I)) = delta(sqrt(I)) holds tablewise and I is "
        "delta-n, then sqrt(I) is delta-n.",
        "every (ring, radical-commuting expansion, delta-n ideal)")
def _check_radical_transfer(ctx):
    for ring, delta, dn, proper, *_ in _by_expansion(ctx):
        if not profile_expansion(delta).radical_commuting:
            yield SKIP
            continue
        for m in proper:
            if m not in dn:
                yield SKIP
            elif (root := _radical_mask(ring, m)) in dn:
                yield HOLDS
            else:
                yield _wit(ring, delta, m, detail=_named(ring, ("sqrt(I)", root)))


@_claim("prop-sandwich", "Sandwiched ideals",
        "If J <= K <= I are proper, I is delta-n and delta(J) = delta(I), "
        "then K is delta-n.",
        "every (ring, expansion, chain J <= K <= I)")
def _check_sandwich(ctx):
    for ring, delta, dn, proper, table, *_ in _by_expansion(ctx):
        for i in proper:
            if i not in dn:
                continue
            for k in proper:
                if k & ~i:
                    continue
                for j in proper:
                    if j & ~k:
                        continue
                    if table[j] != table[i]:
                        yield SKIP
                    elif k in dn:
                        yield HOLDS
                    else:
                        yield _wit(ring, delta, k, detail=_named(ring, ("J", j), ("I", i)))


@_claim("prop-intersection", "Intersections under intersection-preserving delta",
        "If delta preserves intersections, finite intersections of "
        "delta-n-ideals are delta-n-ideals.",
        "every (ring, intersection-preserving expansion, delta-n pair)")
def _check_intersection(ctx):
    for ring, delta, dn, proper, *_ in _by_expansion(ctx):
        if not profile_expansion(delta).intersection_preserving:
            yield SKIP
            continue
        members = [m for m in proper if m in dn]
        for i in members:
            for j in members:
                if i & j in dn:
                    yield HOLDS
                else:
                    yield _wit(ring, delta, i & j, detail=_named(ring, ("I", i), ("J", j)))


@_claim("prop-intersection-noncomparable", "Non-comparable prime values",
        "If delta preserves intersections, delta(I1), delta(I2) are "
        "non-comparable primes and the intersection is delta-n, then each "
        "I_k is delta-n.",
        "every (ring, expansion, qualifying ideal pair)")
def _check_intersection_noncomparable(ctx):
    for ring, delta, dn, proper, table, *_ in _by_expansion(ctx):
        if not profile_expansion(delta).intersection_preserving:
            yield SKIP
            continue
        classes = _ideal_class.table(ring)
        for i in proper:
            dI = table[i]
            if not classes[dI].is_prime:
                continue
            for j in proper:
                dJ = table[j]
                if not classes[dJ].is_prime or dI & ~dJ == 0 or dJ & ~dI == 0:
                    continue
                if i & j not in dn:
                    yield SKIP
                elif i in dn and j in dn:
                    yield HOLDS
                else:
                    yield _wit(ring, delta, i & j, detail=_named(ring, ("I", i), ("J", j)))


@_claim("lem-superfluous", "delta-n ideals with proper value are superfluous",
        "If I is delta-n with delta(I) != R, then no proper J satisfies "
        "I + J = R.",
        "every (ring, expansion, proper ideal) meeting the hypothesis")
def _check_superfluous(ctx):
    return _verdicts(_ideals(ctx), _delta_n_proper_value,
                     lambda s, m: _ideal_class(s.ring, m).is_superfluous,
                     lambda s, m: _wit(s.ring, s.delta, m, detail="I is not superfluous"))


@_claim("prop-sum-delta-n", "Sums of delta-n ideals",
        "If I and J are delta-n with delta(I) != R and delta(J) != R, then "
        "I + J is a (proper) delta-n-ideal.",
        "every (ring, expansion, qualifying ideal pair)")
def _check_sum_delta_n(ctx):
    for ring, delta, dn, proper, table, full, *_ in _by_expansion(ctx):
        qualifying = [m for m in proper if table[m] != full and m in dn]
        for i in qualifying:
            for j in qualifying:
                s = _sum_mask(ring, i, j)
                if s in dn:
                    yield HOLDS
                else:
                    yield _wit(ring, delta, s, detail=_named(ring, ("I", i), ("J", j)))


# ---------------------------------------------------------------------------
# quotient transfer
# ---------------------------------------------------------------------------

@memo
def _quotient_groups(ctx):
    """(scope of (ring, delta), J, [(I, mask of I/J) for proper I >= J], delta_q-n set
    of R/J), ideals as masks, for each ring, proper J and expansion; one list a run."""
    out = []
    for entry in ctx.entries:
        ring = entry.ring
        scopes, proper = _scopes(ctx, entry), _proper(ring)
        for j in proper:
            J = _mk_ideal(ring, j)  # for the quotient's API
            images = Homomorphism.image_mask.table(quotient_ring(ring, J).projection)
            above = [(i, images[i]) for i in proper if j & ~i == 0]
            out += [(s, j, above, _dn(ctx, derive_quotient_expansion(s.delta, J)))
                    for s in scopes]
    return out


def _quotient_instances(ctx):
    """(scope, J, I, mask of I/J, delta_q-n set of R/J), group by group."""
    for s, j, above, dn_q in _quotient_groups(ctx):
        for i, img in above:
            yield s, j, i, img, dn_q


def _quotient_witness(s, j, i, img, dn_q):
    return _wit(s.ring, s.delta, i, detail=_named(s.ring, ("J", j)))


@_claim("cor-quotient-forward", "delta-n passes to quotients",
        "If J <= I are proper and I is delta-n, then I/J is a "
        "delta_q-n-ideal of R/J.",
        "every (ring, expansion, proper J <= I)")
def _check_quotient_forward(ctx):
    return _verdicts(_quotient_instances(ctx),
                     lambda s, j, i, img, dn_q: i in s.dn,
                     lambda s, j, i, img, dn_q: img in dn_q,
                     _quotient_witness)


@_claim("cor-quotient-back-nilpotent", "Lifting along nil J",
        "If I/J is delta_q-n and J <= sqrt(0), then I is delta-n.",
        "every (ring, expansion, proper J <= I)")
def _check_quotient_back_nilpotent(ctx):
    return _verdicts(_quotient_instances(ctx),
                     lambda s, j, i, img, dn_q: j & ~s.nil == 0 and img in dn_q,
                     lambda s, j, i, img, dn_q: i in s.dn,
                     _quotient_witness)


@_claim("cor-quotient-back-delta-n", "Lifting along a delta-n J",
        "If I/J is delta_q-n, J is delta-n and delta(J) != R, then I is "
        "delta-n.",
        "every (ring, expansion, proper J <= I)")
def _check_quotient_back_delta_n(ctx):
    return _verdicts(_quotient_instances(ctx),
                     lambda s, j, i, img, dn_q: s.table[j] != s.full and j in s.dn and img in dn_q,
                     lambda s, j, i, img, dn_q: i in s.dn,
                     _quotient_witness)


# ---------------------------------------------------------------------------
# homomorphism transfer
# ---------------------------------------------------------------------------

@_claim("prop-hom-preimage", "Preimages along monomorphisms",
        "For an injective delta-gamma-homomorphism, the preimage of a "
        "gamma-n-ideal is a delta-n-ideal.",
        "every (family hom, expansion pair, target proper ideal)")
def _check_hom_preimage(ctx):
    for f, pairs in ctx.hom_instances():
        if not f.is_injective():
            continue
        preimages, proper = Homomorphism.preimage_mask.table(f), _proper(f.target)
        for delta, gamma in pairs:
            if not is_delta_gamma_homomorphism(f, delta, gamma):
                yield SKIP
                continue
            dn, dn_g = _dn(ctx, delta), _dn(ctx, gamma)
            for k in proper:
                if k not in dn_g:
                    yield SKIP
                elif preimages[k] in dn:
                    yield HOLDS
                else:
                    yield _wit(f.source, delta, preimages[k],
                               detail=f"target {f.target.key}, "
                                      f"{_named(f.target, ('J', k))}, gamma={gamma.name()}")


@_claim("prop-hom-image", "Images along epimorphisms",
        "For a surjective delta-gamma-homomorphism and I >= ker(f) proper "
        "delta-n, the image f(I) is a gamma-n-ideal.",
        "every (family epimorphism, expansion pair, source proper ideal)")
def _check_hom_image(ctx):
    for f, pairs in ctx.hom_instances():
        if not f.is_surjective():
            continue
        ker, full = f.kernel.mask, f.target.full_mask
        images, proper = Homomorphism.image_mask.table(f), _proper(f.source)
        for delta, gamma in pairs:
            if not is_delta_gamma_homomorphism(f, delta, gamma):
                yield SKIP
                continue
            dn, dn_g = _dn(ctx, delta), _dn(ctx, gamma)
            for m in proper:
                if ker & ~m or m not in dn:
                    yield SKIP
                    continue
                if (img := images[m]) == full:
                    yield _wit(f.source, delta, m, detail="image is the whole ring")
                elif img in dn_g:
                    yield HOLDS
                else:
                    yield _wit(f.source, delta, m,
                               detail=f"target {f.target.key}, "
                                      f"{_named(f.target, ('f(I)', img))}, gamma={gamma.name()}")


@_claim("prop-hom-epi-pushforward", "Pushforward identity",
        "For a surjective delta-gamma-homomorphism and I >= ker(f): "
        "gamma(f(I)) = f(delta(I)).",
        "every (family epimorphism, expansion pair, ideal I >= ker)")
def _check_hom_epi_pushforward(ctx):
    for f, pairs in ctx.hom_instances():
        if not f.is_surjective():
            continue
        ker, images = f.kernel.mask, Homomorphism.image_mask.table(f)
        lattice = _lattice(f.source)
        for delta, gamma in pairs:
            if not is_delta_gamma_homomorphism(f, delta, gamma):
                yield SKIP
                continue
            for m in lattice:
                if ker & ~m:
                    yield SKIP
                    continue
                lhs = gamma.table[images[m]]
                rhs = images[delta.table[m]]
                if lhs == rhs:
                    yield HOLDS
                else:
                    yield _wit(f.source, delta, m,
                               detail=_named(f.target, ("gamma(f(I))", lhs)) + " != "
                                      + _named(f.target, ("f(delta(I))", rhs)))


@_claim("prop-radical-hom", "Radical expansions along any homomorphism",
        "Every ring homomorphism is a delta1-gamma1-homomorphism for the "
        "radical expansions on both sides.",
        "every family homomorphism")
def _check_radical_hom(ctx):
    for f, _pairs in ctx.hom_instances():
        if is_delta_gamma_homomorphism(f, delta1(f.source), delta1(f.target)):
            yield HOLDS
        else:
            yield _wit(f.source, detail=f"radical expansions along {f!r}")


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
                dn = _dn(ctx, dx)
                for m in _proper(ring):
                    if d1.table[p1[m]] == left.full_mask and d2.table[p2[m]] == right.full_mask:
                        yield SKIP
                    elif m in dn:
                        yield _wit(ring, dx, m, detail="delta-n despite a proper component value")
                    else:
                        yield HOLDS


def _homogeneous_pairs(rec, masks):
    """(I, N, the mask of I(+)N) for each ideal I of ``masks`` and each submodule
    N of the idealization's module with IM <= N, so that I(+)N is an ideal of R(+)M."""
    submodules = [(N.mask, N) for N in enumerate_submodules(rec.module)]
    for i in masks:
        for n, N in submodules:
            if rec.im_inside(i, n):
                yield i, N, rec.homogeneous_mask(i, n)


@_claim("prop-idealization-transfer", "Idealization equivalence",
        "For IM <= N: I is delta-n in R iff I(+)N is delta_(+)-n in R(+)M.",
        "every (idealization, base expansion, homogeneous pair)")
def _check_idealization_transfer(ctx):
    for rec, base_catalog in ctx.idealization_instances():
        for delta in base_catalog:
            dn = _dn(ctx, delta)
            dn_plus = _dn(ctx, derive_idealization_expansion(delta, rec.module))
            for i, N, w in _homogeneous_pairs(rec, _proper(rec.base)):
                if (i in dn) == (w in dn_plus):
                    yield HOLDS
                else:
                    yield _wit(rec.ring, delta, _mk_ideal(rec.base, i), detail=f"N={N!r}")


@_claim("prop-idealization-radical", "Radical of a homogeneous ideal",
        "sqrt(I(+)N) = sqrt(I)(+)M in every idealization ring.",
        "every (idealization, homogeneous pair)")
def _check_idealization_radical(ctx):
    for rec, _catalog in ctx.idealization_instances():
        base, full_m = rec.base, (1 << rec.module.size) - 1
        for i, N, w in _homogeneous_pairs(rec, _lattice(base)):
            expected = rec.homogeneous_mask(_radical_mask(base, i), full_m)
            if _radical_mask(rec.ring, w) == expected:
                yield HOLDS
            else:
                yield _wit(rec.ring, ideal=w, detail="radical is not sqrt(I)(+)M")


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
                for m in proper:
                    if m & smask or m not in dn:
                        yield SKIP
                    elif extend[m] in dn_s:
                        yield HOLDS
                    else:
                        yield _wit(ring, delta, m, detail=f"S={sset!r}, "
                                   + _named(rec.ring, ("extension", extend[m])))


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
                yield from [SKIP] * (len(entry.expansions) * len(_proper(ring)))
                continue
            extend = Homomorphism.image_mask.table(localize(ring, sset).canonical)
            for _, delta, dn, proper, *_ in _scopes(ctx, entry):
                dn_s = _localized_dn(delta, sset)
                for m in proper:
                    if z_is[delta.table[m]] & smask or extend[m] not in dn_s:
                        yield SKIP
                    elif m in dn:
                        yield HOLDS
                    else:
                        yield _wit(ring, delta, m, detail=f"S={sset!r}")


@_claim("prop-loc-regular-contract", "Contraction from the regular localization",
        "Localizing at the regular elements (units, on finite rings): "
        "every delta_S-n-ideal contracts to a delta-n-ideal.",
        "every (ring, expansion, proper localized ideal)")
def _check_loc_regular_contract(ctx):
    for entry in ctx.entries:
        ring = entry.ring
        # the regular elements, those outside the zero divisors Z_(0)
        regs = _bits(ring.full_mask & ~_z_i_mask(ring, 1 << ring.zero_idx))
        sset = constructions.MultiplicativeSet(ring, tuple(regs))
        rec = localize(ring, sset)
        contract, proper = Homomorphism.preimage_mask.table(rec.canonical), _proper(rec.ring)
        for delta, dn in zip(entry.expansions, (s.dn for s in _scopes(ctx, entry))):
            dn_s = _localized_dn(delta, sset)
            for k in proper:
                if k not in dn_s:
                    yield SKIP
                elif contract[k] in dn:
                    yield HOLDS
                else:
                    yield _wit(ring, delta, contract[k], detail=_named(rec.ring, ("K", k)))


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
                    yield HOLDS
                else:
                    I, J = collisions[0]
                    yield _wit(ring, delta, I,
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
        yield HOLDS
    else:
        yield _wit(ring, elements="(1+x)(1+3x+x^2)", detail="product is not 1")
    J = ideal_from_generators(ring, [a])
    if not J.is_proper:
        yield HOLDS
    else:
        yield _wit(ring, ideal=J, detail="(x+1) was computed proper")
    nil = nilradical(ring)
    two_x = ideal_from_generators(ring, [ring.from_payload((2, 0, 0)),
                                         ring.from_payload((0, 1, 0))])
    if nil == two_x and nil.size == 32:
        yield HOLDS
    else:
        yield _wit(ring, ideal=nil, detail="sqrt(0) is not (2, x) of size 32")


@_claim("conj-proper-delta-n-is-n", "Recorded conjecture: proper values force n-ideals",
        "On every finite corpus instance, a delta-n-ideal with delta(I) != "
        "R is also an n-ideal (recorded observation; the separating "
        "examples in the source theory all have delta(I) = R).",
        "every (ring, expansion, proper ideal) meeting the hypothesis")
def _check_conjecture_proper_n(ctx):
    return _verdicts(_ideals(ctx), _delta_n_proper_value,
                     lambda s, m: m in s.n_masks,
                     lambda s, m: _wit(s.ring, s.delta, m,
                                       elements=_pair_repr(*n_ideal_witness(_mk_ideal(s.ring, m))),
                                       detail="separates delta-n from n-ideal"))


@_claim("selftest-z6-all-n-ideals", "Self-test: inverted claim about Z6",
        "Deliberately false: every proper ideal of Z6 is an n-ideal.  Used "
        "to exercise the witness machinery; the first witness must be "
        "ideal (0) with a=2, b=3.",
        "proper ideals of Z6", self_test=True)
def _check_selftest_z6(ctx):
    ring = modular(6)
    for I in (_mk_ideal(ring, m) for m in _proper(ring)):
        wit = n_ideal_witness(I)
        if wit is None:
            yield HOLDS
        else:
            yield _wit(ring, ideal=I, elements=_pair_repr(*wit))


@_claim("selftest-z12-nilradical-prime", "Self-test: inverted claim about Z12",
        "Deliberately false: sqrt(0) is a prime ideal of Z12.",
        "one fixed instance", self_test=True)
def _check_selftest_z12(ctx):
    ring = modular(12)
    nil = nilradical(ring)
    outside = [a for a in ring.list_elements() if not nil.contains(a)]
    witness = next(((a, b) for a in outside for b in outside if nil.contains(a * b)), None)
    if witness is None:
        yield HOLDS
    else:
        yield _wit(ring, ideal=nil, elements=_pair_repr(*witness))


CLAIMS = tuple(CLAIMS)
CLAIMS_BY_ID = {c.id: c for c in CLAIMS}


def _claim_of(claim_id):
    """The registered claim ``claim_id``; an unknown id raises UnknownClaimError."""
    claim = CLAIMS_BY_ID.get(claim_id)
    if claim is None:
        raise UnknownClaimError(f"unknown claim id {claim_id!r}")
    return claim
