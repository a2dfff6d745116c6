"""Ideal-expansion functions: the catalog, derived expansions, and hypothesis profiles.

An expansion assigns to every ideal I an ideal delta(I) with I <= delta(I),
monotonically in I.  On finite rings an expansion is a precomputed table over
the full ideal lattice, and both axioms are verified exhaustively at
construction time: extensivity at every ideal, monotonicity on the covering
pairs of proper ideals, which implies it on all pairs (I <= J is a chain of
covers).  On the integer ring the catalog kinds have closed forms
on the parameter n of nZ.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import CrossRingError, ExpansionAxiomError
from .ideals import (Ideal, _bits, _colon_mask, _int_colon, _mk_ideal,
                     _radical_mask, _radical_of_int, _sum_mask, colon,
                     enumerate_ideals, integer_ideal, nilradical)
from .rings import memo


class Expansion:
    """A validated ideal-to-ideal map carrying its construction recipe."""

    def __init__(self, ring, recipe, table=None, int_fn=None):
        self.ring = ring
        self.recipe = recipe
        self.table = table  # mask -> mask over the finite lattice
        self.int_fn = int_fn  # n -> n closed form on ZZ
        self._cache = {}
        self._key = None  # (ring key, name()), built on first comparison

    @property
    def kind(self):
        return self.recipe[0]

    def name(self):
        """Deterministic serialization, e.g. ``delta_plus(gens=[3])``."""
        k = self.recipe[0]
        if k in ("delta0", "delta1", "full"):
            return k
        if k in ("delta_plus", "delta_star"):
            gens = self.recipe[1].gens
            reprs = ", ".join(self.ring.element_repr(g.idx) for g in gens) if gens else "0"
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

    def key(self):
        if self._key is None:
            self._key = (self.ring.key, self.name())
        return self._key

    def __eq__(self, other):
        return isinstance(other, Expansion) and other.key() == self.key()

    def __hash__(self):
        return hash(self.key())

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


def _finish(ring, recipe, table):
    _validate_axioms(ring, table)
    return Expansion(ring, recipe, table=table)


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
    if not isinstance(J, Ideal) or J.ring.key != ring.key:
        raise CrossRingError("parameter ideal belongs to a different ring")


@memo
def delta0(ring):
    if not ring.is_finite:
        return Expansion(ring, ("delta0",), int_fn=lambda n: n)
    table = {I.mask: I.mask for I in enumerate_ideals(ring)}
    return _finish(ring, ("delta0",), table)


@memo
def delta1(ring):
    if not ring.is_finite:
        return Expansion(ring, ("delta1",), int_fn=_radical_of_int)
    table = {I.mask: _radical_mask(ring, I.mask) for I in enumerate_ideals(ring)}
    return _finish(ring, ("delta1",), table)


@memo
def full_expansion(ring):
    if not ring.is_finite:
        return Expansion(ring, ("full",), int_fn=lambda n: 1)
    full = ring.full_mask
    table = {I.mask: full for I in enumerate_ideals(ring)}
    return _finish(ring, ("full",), table)


def delta_plus(ring, J):
    _check_param(ring, J)
    if not ring.is_finite:
        q = J.n
        return Expansion(ring, ("delta_plus", J), int_fn=lambda n, q=q: gcd(n, q))
    table = {I.mask: _sum_mask(ring, I.mask, J.mask) for I in enumerate_ideals(ring)}
    return _finish(ring, ("delta_plus", J), table)


def delta_star(ring, P):
    _check_param(ring, P)
    if not ring.is_finite:
        return Expansion(ring, ("delta_star", P), int_fn=lambda n, m=P.n: _int_colon(n, m))
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
    if outer.ring.key != inner.ring.key:
        raise CrossRingError("cannot compose expansions on different rings")
    ring = outer.ring
    if not ring.is_finite:
        fo, fi = outer.int_fn, inner.int_fn
        return Expansion(ring, ("compose", outer, inner), int_fn=lambda n: fo(fi(n)))
    table = {m: outer.table[v] for m, v in inner.table.items()}
    return _finish(ring, ("compose", outer, inner), table)


def apply_expansion(delta, I):
    if I.ring.key != delta.ring.key:
        raise CrossRingError("ideal belongs to a different ring")
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
    return {K.mask: f.image_mask(delta.table[f.preimage_mask(K.mask)])
            for K in enumerate_ideals(f.target)}


@memo
def derive_quotient_expansion(delta, J):
    """Push delta to R/J: the value on K/J is delta(K)/J for the full preimage K."""
    from .constructions import quotient_ring
    rec = quotient_ring(delta.ring, J)
    return _finish(rec.ring, ("quotient_derived", delta, J), _pushforward(rec.projection, delta))


@memo
def derive_product_expansion(d1, d2):
    """Componentwise expansion on R1 x R2 along the projections p1, p2:
    delta_x(I) = p1^-1(d1(p1 I)) & p2^-1(d2(p2 I)).  Every ideal of the product
    splits, I = p1^-1(p1 I) & p2^-1(p2 I), and the table checks it."""
    from .constructions import product_projections
    from .rings import product
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
    from .constructions import idealization
    rec = idealization(delta.ring, module)
    pi = rec.projection
    table = {W.mask: pi.preimage_mask(delta.table[pi.image_mask(W.mask)])
             for W in enumerate_ideals(rec.ring)}
    return _finish(rec.ring, ("idealization_derived", delta), table)


@memo
def derive_localized_expansion(delta, sset):
    """Push delta to S^-1 R along r -> r/1, as to a quotient: S^-1 R is R/ker.
    The value on K extends delta of the contraction of K, the largest ideal
    extending to K, so it does not depend on a representative."""
    from .constructions import localize
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
    from .constructions import localize
    rec = localize(delta.ring, sset)
    by_ext = {}
    out = []
    for I in enumerate_ideals(delta.ring):
        ext = rec.extend_mask(I.mask)
        dval = rec.extend_mask(delta.table[I.mask])
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
    for x in range(ring.size):
        jx = _colon_mask(ring, jmask, x)
        if not (dj >> x & 1) and _colon_mask(ring, dj, x) & ~table[jx]:
            return x, "(delta(J):x) not within delta(J:x)"
        if not (jmask >> x & 1) and table[jx] == full:
            return x, "delta(J:x) is the whole ring"
    return None


@memo
def profile_expansion(delta):
    """Decide the five hypothesis flags (exhaustive tablewise on finite rings).

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

    rc = True
    for I in lattice:
        if _radical_mask(ring, table[I.mask]) != table[_radical_mask(ring, I.mask)]:
            rc = False
            witnesses.append(("radical_commuting", f"I={I!r}"))
            break

    violation = next(((J, v) for J in lattice if (v := _colon_violation(delta, J.mask))), None)
    colon = violation is None
    if not colon:
        J, (x, clause) = violation
        witnesses.append(("colon_condition", f"{clause} for J={J!r}, x={ring.element_repr(x)}"))

    return ExpansionProfile(ip, idem, zf, rc, colon, tuple(witnesses))


_INT_PROFILE_BOUND = 240


def _integer_profile(delta):
    """Closed-form flags for the catalog kinds on ZZ; bounded scan for compose.

    The positive flags for delta0/delta1/delta_plus/delta_star follow from the
    divisor lattice being distributive and from gcd/radical identities; the
    failing flags carry a concrete witness found by a small search.  Composite
    recipes are decided by scanning parameters up to _INT_PROFILE_BOUND, which
    is a bounded (documented) decision rather than a proof.
    """
    kind = delta.kind
    witnesses = []

    def falsify(flag, desc):
        witnesses.append((flag, desc))
        return False

    if kind == "delta0":
        return ExpansionProfile(True, True, True, True, True, ())
    if kind == "delta1":
        colon = falsify("colon_condition",
                        "(delta(J):x) not within delta(J:x) for J=(12), x=2")
        return ExpansionProfile(True, True, True, True, colon, tuple(witnesses))
    if kind == "full":
        zf = falsify("zero_fixed", "delta(0) = ZZ")
        colon = falsify("colon_condition", "delta(J:x) is the whole ring for J=(2), x=1")
        return ExpansionProfile(True, True, zf, True, colon, tuple(witnesses))
    if kind == "delta_plus":
        q = delta.recipe[1].n
        if q == 0:
            return ExpansionProfile(True, True, True, True, True, ())
        zf = falsify("zero_fixed", f"delta(0) = ({q})")
        n = 2 if q == 1 else q + 1
        while gcd(n, q) != 1:
            n += 1
        colon = falsify("colon_condition",
                        f"delta(J:x) is the whole ring for J=({n}), x=1")
        return ExpansionProfile(True, True, zf, True, colon, tuple(witnesses))
    if kind == "delta_star":
        m = delta.recipe[1].n
        if m == 0:  # (I : (0)) = ZZ for every I
            zf = falsify("zero_fixed", "delta(0) = ZZ")
            colon = falsify("colon_condition",
                            "delta(J:x) is the whole ring for J=(2), x=1")
            return ExpansionProfile(True, True, zf, True, colon, tuple(witnesses))
        if m == 1:
            return ExpansionProfile(True, True, True, True, True, ())
        idem = falsify("idempotent_on_all", f"I=({m * m})")
        rc = falsify("radical_commuting", f"I=({m * m})")
        colon = falsify("colon_condition",
                        f"delta(J:x) is the whole ring for J=({m}), x=1")
        return ExpansionProfile(True, idem, True, rc, colon, tuple(witnesses))
    if kind == "compose":
        return _integer_profile_bounded(delta)
    raise ValueError(f"no integer profile for expansion kind {kind!r}")


def _integer_profile_bounded(delta):
    fn = delta.int_fn
    bound = _INT_PROFILE_BOUND
    witnesses = []

    def lcm(a, b):
        return 0 if a == 0 or b == 0 else a * b // gcd(a, b)

    def divides(a, b):
        # aZ contains bZ, with 0 standing for the zero ideal
        return b == 0 if a == 0 else b % a == 0

    ip = idem = rc = colon = True
    zf = fn(0) == 0
    if not zf:
        witnesses.append(("zero_fixed", f"delta(0) = ({fn(0)})"))
    for n in range(bound + 1):
        if idem and fn(fn(n)) != fn(n):
            idem = False
            witnesses.append(("idempotent_on_all", f"I=({n})"))
        if rc and _radical_of_int(fn(n)) != fn(_radical_of_int(n)):
            rc = False
            witnesses.append(("radical_commuting", f"I=({n})"))
        if ip:
            for m in range(n, bound + 1):
                if fn(lcm(n, m)) != lcm(fn(n), fn(m)):
                    ip = False
                    witnesses.append(("intersection_preserving", f"I=({n}), J=({m})"))
                    break
        if colon and n != 1:
            dn = fn(n)
            for m in range(1, bound + 1):
                in_j = n != 0 and m % n == 0
                in_dj = dn == 1 or (dn != 0 and m % dn == 0)
                rhs = fn(n // gcd(n, m) if n else 0)
                if not in_dj:
                    lhs = dn // gcd(dn, m) if dn else 0
                    if not divides(rhs, lhs):
                        colon = False
                        witnesses.append((
                            "colon_condition",
                            f"(delta(J):x) not within delta(J:x) for J=({n}), x={m}"))
                        break
                if not in_j and rhs == 1:
                    colon = False
                    witnesses.append((
                        "colon_condition",
                        f"delta(J:x) is the whole ring for J=({n}), x={m}"))
                    break
        if not (ip or idem or rc or colon):
            break
    return ExpansionProfile(ip, idem, zf, rc, colon, tuple(witnesses))
