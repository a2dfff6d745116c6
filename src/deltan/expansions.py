"""Ideal-expansion functions: the catalog, derived expansions, and hypothesis profiles.

An expansion assigns to every ideal I an ideal delta(I) with I <= delta(I),
monotonically in I.  On finite rings an expansion is a precomputed table over
the full ideal lattice, and both axioms are verified exhaustively at
construction time: extensivity at every ideal, monotonicity on the covering
pairs of proper ideals, which implies it on all pairs (I <= J is a chain of
covers).  On the integer ring an expansion is a closed form on the generator n
of nZ.  On nonzero n each catalog kind, and so each composition, acts on one
prime exponent of n at a time, which makes its hypothesis profile a finite,
exact check (``_integer_profile``).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

from .constructions import (Homomorphism, idealization, localize, product_projections,
                           quotient_ring)
from .errors import ExpansionAxiomError
from .ideals import (Ideal, _bits, _colon_mask, _int_colon, _is_prime_int, _mk_ideal,
                     _prime_factors, _radical_mask, _radical_of_int, _sum_mask,
                     colon, enumerate_ideals, integer_ideal, nilradical)
from .rings import _same_ring, memo, product


class Expansion:
    """A validated ideal-to-ideal map carrying its construction recipe.

    Expansions are built only by ``_finish``, which only memoised
    constructors call, keyed on the ring or base expansions and the interned
    parameters: one object per recipe, compared by identity.  ``name()`` is
    for printing only.
    """

    def __init__(self, ring, recipe, table=None, int_fn=None):
        self.ring = ring
        self.recipe = recipe
        self.table = table  # mask -> mask over the finite lattice
        self.int_fn = int_fn  # n -> n closed form on ZZ
        self._cache = {}

    @property
    def kind(self):
        return self.recipe[0]

    def name(self):
        """Deterministic serialization, e.g. ``delta_plus(gens=[3])``."""
        k = self.recipe[0]
        if k in ("delta0", "delta1", "full"):
            return k
        if k in ("delta_plus", "delta_star"):
            reprs = ", ".join(self.ring.element_repr(g.idx) for g in self.recipe[1].gens)
            return f"{k}(gens=[{reprs}])"
        if k == "compose":
            return f"compose({self.recipe[1].name()}, {self.recipe[2].name()})"
        if k == "quotient_derived":
            base, J = self.recipe[1], self.recipe[2]
            return f"quotient_derived(base={base.name()}, modulo={J!r})"
        if k == "product_derived":
            return f"product_derived({self.recipe[1].name()}, {self.recipe[2].name()})"
        if k == "idealization_derived":
            return f"idealization_derived(base={self.recipe[1].name()})"
        if k == "localization_derived":
            base, sset = self.recipe[1], self.recipe[2]
            elems = ", ".join(base.ring.element_repr(i) for i in sset.indices)
            return f"localization_derived(base={base.name()}, s=[{elems}])"
        raise ValueError(f"unknown expansion recipe {k!r}")

    def __repr__(self):
        return f"Expansion({self.name()} on {self.ring.key})"

    def __call__(self, I):
        return apply_expansion(self, I)


@memo
def _lattice_covers(ring):
    """(the lattice masks in lattice order, their set, the covering pairs
    I < J of proper ideals), memoised per ring.

    In a finite lattice I <= J is a chain of covers, all proper when J is, and
    delta(I) <= R = delta(R) always, so an expansion that is monotone on these
    pairs is monotone on all pairs.  The lattice is ordered by size, so the
    strict supersets of I are visited by size: each one is a cover unless it
    contains a cover already found.
    """
    masks = tuple(I.mask for I in enumerate_ideals(ring))
    proper = masks[:-1]  # the whole ring comes last
    # up[x]: bit y set iff proper[x] <= proper[y], which needs y >= x
    up = [sum(1 << y for y, j in enumerate(proper[x:], x) if i & ~j == 0)
          for x, i in enumerate(proper)]
    covers = []
    for x, i in enumerate(proper):
        reach = 1 << x  # i and the proper ideals above a cover found so far
        for y in _bits(up[x]):
            if not reach >> y & 1:
                covers.append((i, proper[y]))
                reach |= up[y]
    return masks, frozenset(masks), tuple(covers)


def _validate_axioms(ring, table):
    masks, members, covers = _lattice_covers(ring)
    for m in masks:
        v = table[m]
        if v not in members:
            raise ExpansionAxiomError(
                f"the value at {_mk_ideal(ring, m)!r} is not an ideal of {ring.key}")
        if m & ~v:
            raise ExpansionAxiomError(
                f"extensivity fails at {_mk_ideal(ring, m)!r} on {ring.key}")
    for i, j in covers:
        if table[i] & ~table[j]:
            raise ExpansionAxiomError(
                f"monotonicity fails at {_mk_ideal(ring, i)!r} <= "
                f"{_mk_ideal(ring, j)!r} on {ring.key}")


def _finish(ring, recipe, table=None, int_fn=None):
    """The expansion of a recipe: a validated table, or a closed form on ZZ."""
    if table is not None:
        _validate_axioms(ring, table)
    return Expansion(ring, recipe, table, int_fn)


def make_expansion(ring, kind, param=None):
    """Build a catalog expansion: delta0, delta1, full, delta_plus(J), delta_star(P)."""
    if kind == "delta0":
        return delta0(ring)
    if kind == "delta1":
        return delta1(ring)
    if kind == "full":
        return full_expansion(ring)
    if kind == "delta_plus":
        return delta_plus(ring, param)
    if kind == "delta_star":
        return delta_star(ring, param)
    if kind == "compose":
        return compose_expansions(param[0], param[1])
    raise ValueError(f"unknown expansion kind {kind!r}")


def _check_param(ring, J):
    _same_ring(ring, J.ring if isinstance(J, Ideal) else None, "parameter ideal")


@memo
def delta0(ring):
    if not ring.is_finite:
        return _finish(ring, ("delta0",), int_fn=lambda n: n)
    table = {I.mask: I.mask for I in enumerate_ideals(ring)}
    return _finish(ring, ("delta0",), table)


@memo
def delta1(ring):
    if not ring.is_finite:
        return _finish(ring, ("delta1",), int_fn=_radical_of_int)
    table = {I.mask: _radical_mask(ring, I.mask) for I in enumerate_ideals(ring)}
    return _finish(ring, ("delta1",), table)


@memo
def full_expansion(ring):
    if not ring.is_finite:
        return _finish(ring, ("full",), int_fn=lambda n: 1)
    full = ring.full_mask
    table = {I.mask: full for I in enumerate_ideals(ring)}
    return _finish(ring, ("full",), table)


@memo
def delta_plus(ring, J):
    _check_param(ring, J)
    if not ring.is_finite:
        return _finish(ring, ("delta_plus", J), int_fn=lambda n, q=J.n: gcd(n, q))
    table = {I.mask: _sum_mask(ring, I.mask, J.mask) for I in enumerate_ideals(ring)}
    return _finish(ring, ("delta_plus", J), table)


@memo
def delta_star(ring, P):
    _check_param(ring, P)
    if not ring.is_finite:
        return _finish(ring, ("delta_star", P), int_fn=lambda n, m=P.n: _int_colon(n, m))
    table = {I.mask: colon(I, P).mask for I in enumerate_ideals(ring)}
    return _finish(ring, ("delta_star", P), table)


@memo
def catalog(ring):
    """The per-ring expansion catalog in deterministic order."""
    lattice = enumerate_ideals(ring)
    out = [delta0(ring), delta1(ring), full_expansion(ring)]
    out.extend(delta_plus(ring, J) for J in lattice if J.is_proper)
    out.extend(delta_star(ring, P) for P in lattice if not P.is_zero)
    out.append(compose_expansions(delta1(ring), delta_plus(ring, nilradical(ring))))
    return tuple(out)


@memo
def compose_expansions(outer, inner):
    """(outer o inner)(I) = outer(inner(I)); the axioms survive composition."""
    _same_ring(outer.ring, inner.ring, "inner expansion")
    ring = outer.ring
    if not ring.is_finite:
        fo, fi = outer.int_fn, inner.int_fn
        return _finish(ring, ("compose", outer, inner), int_fn=lambda n: fo(fi(n)))
    table = {m: outer.table[v] for m, v in inner.table.items()}
    return _finish(ring, ("compose", outer, inner), table)


def apply_expansion(delta, I):
    _same_ring(delta.ring, I.ring, "ideal")
    if not delta.ring.is_finite:
        return integer_ideal(delta.ring, delta.int_fn(I.n))
    return _mk_ideal(delta.ring, delta.table[I.mask])


# ---------------------------------------------------------------------------
# derived expansions on constructed rings: each moves delta along the
# canonical map of its construction (contract, apply delta, transport back)
# ---------------------------------------------------------------------------

def _pushforward(f, delta):
    """The table K -> f(delta(f^-1 K)) over the ideals K of the target of a
    surjection f."""
    images, preimages = Homomorphism.image_mask.table(f), Homomorphism.preimage_mask.table(f)
    return {K.mask: images[delta.table[preimages[K.mask]]] for K in enumerate_ideals(f.target)}


@memo
def derive_quotient_expansion(delta, J):
    """Push delta to R/J: the value on K/J is delta(K)/J for the full preimage K."""
    rec = quotient_ring(delta.ring, J)
    return _finish(rec.ring, ("quotient_derived", delta, J), _pushforward(rec.projection, delta))


@memo
def derive_product_expansion(d1, d2):
    """Componentwise expansion on R1 x R2 along the projections p1, p2:
    delta_x(I) = p1^-1(d1(p1 I)) & p2^-1(d2(p2 I)).  Every ideal of the product
    splits, I = p1^-1(p1 I) & p2^-1(p2 I), and the table checks it."""
    ring = product(d1.ring, d2.ring)
    p1, p2 = product_projections(ring)
    table = {}
    for I in enumerate_ideals(ring):
        m1, m2 = p1.image_mask(I.mask), p2.image_mask(I.mask)
        if p1.preimage_mask(m1) & p2.preimage_mask(m2) != I.mask:
            raise ExpansionAxiomError(
                f"ideal {I!r} of {ring.key} does not split componentwise")
        table[I.mask] = p1.preimage_mask(d1.table[m1]) & p2.preimage_mask(d2.table[m2])
    return _finish(ring, ("product_derived", d1, d2), table)


@memo
def derive_idealization_expansion(delta, module):
    """Expansion on R(+)M along pi: R(+)M -> R, W -> pi^-1(delta(pi W)), so
    I(+)N goes to delta(I)(+)M.

    Lattice ideals that are not of the homogeneous I(+)N shape are first
    homogenized (projection to R, second slot widened to all of M); the
    idealization record flags those ideals separately.
    """
    rec = idealization(delta.ring, module)
    pi = rec.projection
    images, preimages = Homomorphism.image_mask.table(pi), Homomorphism.preimage_mask.table(pi)
    table = {W.mask: preimages[delta.table[images[W.mask]]] for W in enumerate_ideals(rec.ring)}
    return _finish(rec.ring, ("idealization_derived", delta), table)


@memo
def derive_localized_expansion(delta, sset):
    """Push delta to S^-1 R along r -> r/1, as to a quotient: S^-1 R is R/ker.
    The value on K extends delta of the contraction of K, the largest ideal
    extending to K, so it does not depend on a representative."""
    rec = localize(delta.ring, sset)
    return _finish(rec.ring, ("localization_derived", delta, sset),
                   _pushforward(rec.canonical, delta))


def localization_value_collisions(delta, sset):
    """Base-ideal pairs with equal extensions but different extended delta-values.

    Such a pair would witness that the textbook formula delta_S(S^-1 I) =
    S^-1(delta(I)) depends on the representative I; the derived expansion
    above sidesteps this by always contracting first.  Returns a list of
    (I, I') pairs found on the base lattice.
    """
    extend = Homomorphism.image_mask.table(localize(delta.ring, sset).canonical)
    by_ext = {}
    out = []
    for I in enumerate_ideals(delta.ring):
        ext = extend[I.mask]
        dval = extend[delta.table[I.mask]]
        prev = by_ext.get(ext)
        if prev is None:
            by_ext[ext] = (I, dval)
        elif prev[1] != dval:
            out.append((prev[0], I))
    return out


# ---------------------------------------------------------------------------
# hypothesis profile
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExpansionProfile:
    intersection_preserving: bool
    idempotent_on_all: bool
    zero_fixed: bool
    radical_commuting: bool
    colon_condition: bool
    witnesses: tuple  # (flag_name, description) pairs for the failing flags


def _colon_violation(delta, jmask):
    """The colon hypothesis at one ideal J: None if it holds, else (x, clause)
    for the first x breaking a clause, tested in this order for each x:
    (delta(J):x) <= delta(J:x) for x outside delta(J), delta(J:x) != R for x outside J."""
    ring, table = delta.ring, delta.table
    dj, full = table[jmask], ring.full_mask
    j_colons, d_colons = _colon_mask.table(ring, jmask), _colon_mask.table(ring, dj)
    for x in range(ring.size):
        jx = j_colons[x]
        if not (dj >> x & 1) and d_colons[x] & ~table[jx]:
            return x, "(delta(J):x) not within delta(J:x)"
        if not (jmask >> x & 1) and table[jx] == full:
            return x, "delta(J:x) is the whole ring"
    return None


@memo
def profile_expansion(delta):
    """Decide the five hypothesis flags: exhaustive tablewise on finite rings,
    on prime-exponent test points on ZZ.

    ``colon_condition`` is the global colon hypothesis: for every ideal J,
    (delta(J):x) <= delta(J:x) for all x outside delta(J), and delta(J:x)
    stays proper for all x outside J.  Reading the properness clause over
    x outside J (rather than outside delta(J)) keeps the hypothesis false
    for expansions that send a proper ideal to the whole ring; under the
    fully literal quantifier those expansions make the existence
    characterization fail, so this is the reading the checks rely on.
    """
    ring = delta.ring
    if not ring.is_finite:
        return _integer_profile(delta)
    lattice = enumerate_ideals(ring)
    table = delta.table
    zero_mask = 1 << ring.zero_idx
    witnesses = []

    ip = True
    for I in lattice:
        for J in lattice:
            if table[I.mask & J.mask] != table[I.mask] & table[J.mask]:
                ip = False
                witnesses.append(("intersection_preserving",
                                  f"I={I!r}, J={J!r}"))
                break
        if not ip:
            break

    idem = True
    for I in lattice:
        if table[table[I.mask]] != table[I.mask]:
            idem = False
            witnesses.append(("idempotent_on_all", f"I={I!r}"))
            break

    zf = table[zero_mask] == zero_mask
    if not zf:
        witnesses.append(("zero_fixed", "delta(0) != (0)"))

    rc, radicals = True, _radical_mask.table(ring)
    for I in lattice:
        if radicals[table[I.mask]] != table[radicals[I.mask]]:
            rc = False
            witnesses.append(("radical_commuting", f"I={I!r}"))
            break

    violation = next(((J, v) for J in lattice if (v := _colon_violation(delta, J.mask))), None)
    colon = violation is None
    if not colon:
        J, (x, clause) = violation
        witnesses.append(("colon_condition", f"{clause} for J={J!r}, x={ring.element_repr(x)}"))

    return ExpansionProfile(ip, idem, zf, rc, colon, tuple(witnesses))


def _int_atoms(delta):
    """(the nonzero parameters, the number of delta1 occurrences) of a ZZ recipe."""
    if delta.kind == "compose":
        (p1, r1), (p2, r2) = map(_int_atoms, delta.recipe[1:])
        return p1 + p2, r1 + r2
    if delta.kind in ("delta_plus", "delta_star") and delta.recipe[1].n:
        return (delta.recipe[1].n,), 0
    return (), int(delta.kind == "delta1")


def _valuation(n, p):
    """v_p(n), the exponent of the prime p in n >= 1."""
    e = 0
    while n % p == 0:
        n, e = n // p, e + 1
    return e


def _int_test_points(delta):
    """0 and every p^a * q^b, p and q among the primes of the nonzero parameters
    and the two least primes dividing none, a <= 2(S_p + r + 1) + 1 with S_p
    the sum of v_p over the parameter occurrences and r the delta1 count."""
    params, r = _int_atoms(delta)
    primes = sorted({p for n in params for p in _prime_factors(n)})
    p = 2
    for _ in range(2):
        while not _is_prime_int(p) or any(n % p == 0 for n in params):
            p += 1
        primes.append(p)
        p += 1
    powers = [[p ** a for a in range(2 * (sum(_valuation(n, p) for n in params) + r + 1) + 2)]
              for p in primes]
    return sorted({0} | {x * y for i, xs in enumerate(powers)
                         for ys in powers[i + 1:] for x in xs for y in ys})


def _integer_profile(delta):
    """The five flags on ZZ, decided exactly on ``_int_test_points``.

    A nonzero ideal nZ is its exponent vector (v_p(n)).  On nonzero n each
    catalog kind acts on one exponent e at a time: delta1 as min(e, 1),
    delta_plus(q) as min(e, v_p(q)), delta_star(m) as max(e - v_p(m), 0);
    delta_plus(0) is the identity, and delta_star(0) and full send every ideal
    to ZZ.  Each kind fixes exponent 0 and keeps n nonzero, so a recipe acts on
    nonzero n by one monotone map f_p per prime, with f_p(0) = 0.  Past
    e = S_p + r + 1 every clamp of the chain has fired and no shift has reached
    0, so f_p is constant or a shift by S_p; all primes dividing no parameter
    share one f_p.  The zero ideal is one more point.  A flag nests delta at
    most twice, so a condition on one coordinate, if met at all, is met with
    exponents at most 2(S_p + r + 1), and by flag:
    - zero_fixed reads delta(0);
    - idempotent_on_all and radical_commuting (rad is min(e, 1)) hold at
      nonzero n iff they hold on each coordinate alone;
    - intersection_preserving: lcm is max per coordinate, which a monotone
      f_p preserves, so only a pair (0, m) can fail, when f(m) does not
      divide delta(0) at one coordinate;
    - colon_condition, with (J : x) = J / gcd(J, x) and x = 0 in every ideal:
      the first clause needs x outside delta(J) at one prime and the failed
      containment at that or another one; the second needs x outside J at one
      prime and delta(J:x) = ZZ, every coordinate 0.  At J = 0, (0 : x) = 0.
    So zeroing the other coordinates keeps a violation on at most two primes,
    and two primes dividing no parameter stand for all of them.
    """
    fn = delta.int_fn
    points = _int_test_points(delta)
    witnesses = []

    def has(a, b):  # aZ contains b
        return b % a == 0 if a else b == 0

    ip = idem = rc = colon = True
    zf = fn(0) == 0
    if not zf:
        witnesses.append(("zero_fixed", f"delta(0) = ({fn(0)})"))
    for i, n in enumerate(points):
        if idem and fn(fn(n)) != fn(n):
            idem = False
            witnesses.append(("idempotent_on_all", f"I=({n})"))
        if rc and _radical_of_int(fn(n)) != fn(_radical_of_int(n)):
            rc = False
            witnesses.append(("radical_commuting", f"I=({n})"))
        if ip and n == 0:  # only a pair (0, m) can fail, see above
            for m in points:
                if fn(lcm(n, m)) != lcm(fn(n), fn(m)):
                    ip = False
                    witnesses.append(("intersection_preserving", f"I=({n}), J=({m})"))
                    break
        if colon and n != 1:
            dn = fn(n)
            for m in points[1:]:
                rhs = fn(_int_colon(n, m))
                if not has(dn, m) and not has(rhs, _int_colon(dn, m)):
                    clause = "(delta(J):x) not within delta(J:x)"
                elif not has(n, m) and rhs == 1:
                    clause = "delta(J:x) is the whole ring"
                else:
                    continue
                colon = False
                witnesses.append(("colon_condition", f"{clause} for J=({n}), x={m}"))
                break
        if not (ip or idem or rc or colon):
            break
    return ExpansionProfile(ip, idem, zf, rc, colon, tuple(witnesses))
