"""Ideal-expansion functions: the catalog, derived expansions, and hypothesis profiles.

An expansion assigns to every ideal I an ideal delta(I) with I <= delta(I),
monotonically in I.  On finite rings an expansion is a precomputed table over
the full ideal lattice; on the integer ring it is a closed form on the
generator n of nZ.  Every expansion is built from a recipe that keeps both
axioms, so no table is checked at run time.  The catalog kinds, each built by
``_catalog_kind``, are expansions by their definitions: delta0(I) = I;
delta1(I) = rad(I), which contains I and grows with I; full(I) = R;
delta_plus(J)(I) = I + J; and delta_star(P)(I) = (I : P) = {r : rP <= I},
which contains I since I is an ideal and grows with I.  Each value is an
ideal, as rad(I), I + J and (I : P) are.  A derived expansion is carried along
a surjection by ``_pushforward`` or ``_pullback``, which say why it stays one.
On nonzero n each catalog kind, and so each composition, acts on one prime
exponent of n at a time, which makes its hypothesis profile a finite, exact
check (``_integer_profile``).
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd, lcm

from .constructions import (Homomorphism, idealization, localize, product_projections,
                           quotient_ring)
from .errors import InfiniteRingError
from .ideals import (Ideal, _colon_mask, _colon_meet, _int_colon, _int_ideal, _is_prime_int,
                     _lattice, _mk_ideal, _prime_factors, _radical_mask, _radical_of_int,
                     _sum_mask, enumerate_ideals, nilradical)
from .rings import _same_ring, memo, product


class Expansion:
    """An ideal-to-ideal map carrying its construction recipe.

    Expansions are built only through the memoised constructors (the catalog
    kinds through ``_catalog_kind``), keyed on the ring or base expansions and
    the interned parameters: one object per recipe, compared by identity.
    Every recipe keeps the two axioms (see the module docstring), so the table
    is taken as it is.  ``name()`` is for printing.
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


def make_expansion(ring, kind, param=None):
    """Build an expansion by kind: delta0, delta1, full, delta_plus(J) or
    delta_star(P) from the catalog, or compose with param = (outer, inner)."""
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


def _catalog_kind(ring, recipe, value, int_fn):
    """The catalog expansion ``recipe``: the closed form ``int_fn`` on ZZ, and on
    a finite ring the table {m: value(m)} over the masks of its ideal lattice."""
    if not ring.is_finite:
        return Expansion(ring, recipe, int_fn=int_fn)
    return Expansion(ring, recipe, {m: value(m) for m in _lattice(ring)})


@memo
def delta0(ring):
    return _catalog_kind(ring, ("delta0",), lambda m: m, lambda n: n)


@memo
def delta1(ring):
    return _catalog_kind(ring, ("delta1",), lambda m: _radical_mask(ring, m), _radical_of_int)


@memo
def full_expansion(ring):
    return _catalog_kind(ring, ("full",), lambda m: ring.full_mask, lambda n: 1)


@memo
def delta_plus(ring, J):
    _same_ring(ring, J, Ideal, "parameter ideal")
    return _catalog_kind(ring, ("delta_plus", J), lambda m: _sum_mask(ring, m, J.mask),
                         lambda n, q=J.n: gcd(n, q))


@memo
def delta_star(ring, P):
    _same_ring(ring, P, Ideal, "parameter ideal")
    return _catalog_kind(ring, ("delta_star", P), lambda m: _colon_meet(ring, m, P.gens),
                         lambda n, m=P.n: _int_colon(n, m))


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
    """(outer o inner)(I) = outer(inner(I)), an expansion: I <= inner(I) <=
    outer(inner(I)), and I <= J gives inner(I) <= inner(J), so outer(inner(I))
    <= outer(inner(J))."""
    _same_ring(outer.ring, inner, Expansion, "inner expansion")
    ring = outer.ring
    if not ring.is_finite:
        fo, fi = outer.int_fn, inner.int_fn
        return Expansion(ring, ("compose", outer, inner), int_fn=lambda n: fo(fi(n)))
    table = {m: outer.table[v] for m, v in inner.table.items()}
    return Expansion(ring, ("compose", outer, inner), table)


def apply_expansion(delta, I):
    _same_ring(None, delta, Expansion, "expansion")
    _same_ring(delta.ring, I, Ideal, "ideal")
    if not delta.ring.is_finite:
        return _int_ideal(delta.ring, delta.int_fn(I.n))
    return _mk_ideal(delta.ring, delta.table[I.mask])


# ---------------------------------------------------------------------------
# derived expansions on constructed rings: each moves delta along the
# canonical map of its construction (contract, apply delta, transport back)
# ---------------------------------------------------------------------------

def _pushforward(f, delta):
    """The table K -> f(delta(f^-1 K)) over the ideals K of the target of a
    surjection f, an expansion: the image of an ideal under a surjective
    homomorphism is an ideal, K = f(f^-1 K) <= f(delta(f^-1 K)), and each of
    f^-1, delta and f keeps inclusions.  R/J and S^-1 R (which is R/ker) read
    their derived expansions this way."""
    images, preimages = Homomorphism.image_mask.table(f), Homomorphism.preimage_mask.table(f)
    return {k: images[delta.table[preimages[k]]] for k in _lattice(f.target)}


def _pullback(f, delta):
    """The table W -> f^-1(delta(f W)) over the ideals W of the source of a
    surjection f, an expansion: f W is an ideal as f is onto, so are its
    delta-value and that value's preimage; W <= f^-1(f W) <= f^-1(delta(f W)),
    and each of f, delta and f^-1 keeps inclusions.  R(+)M reads its derived
    expansion this way, and R1 x R2 the meet of two such tables."""
    images, preimages = Homomorphism.image_mask.table(f), Homomorphism.preimage_mask.table(f)
    return {w: preimages[delta.table[images[w]]] for w in _lattice(f.source)}


@memo
def derive_quotient_expansion(delta, J):
    """Push delta to R/J along its projection (``_pushforward``): the value on
    K/J is delta(K)/J for the full preimage K.  ZZ has no table to push."""
    if not delta.ring.is_finite:
        raise InfiniteRingError("derived expansions are supported over finite rings only")
    rec = quotient_ring(delta.ring, J)
    return Expansion(rec.ring, ("quotient_derived", delta, J), _pushforward(rec.projection, delta))


@memo
def derive_product_expansion(d1, d2):
    """Componentwise expansion on R1 x R2, the meet of the pullbacks along the
    projections p1, p2 (``_pullback``): delta_x(I) = p1^-1(d1(p1 I)) &
    p2^-1(d2(p2 I)) = d1(I1) x d2(I2).  A meet of expansions is one: it
    contains I and keeps inclusions, and a meet of ideals is an ideal."""
    ring = product(d1.ring, d2.ring)
    p1, p2 = product_projections(ring)
    t1, t2 = _pullback(p1, d1), _pullback(p2, d2)
    return Expansion(ring, ("product_derived", d1, d2), {m: v & t2[m] for m, v in t1.items()})


@memo
def derive_idealization_expansion(delta, module):
    """Pull delta back to R(+)M along pi: R(+)M -> R (``_pullback``), so I(+)N
    goes to delta(I)(+)M.  A lattice ideal W not of the homogeneous I(+)N shape
    goes the same way, to delta(pi(W))(+)M.  The idealization claims range over
    the homogeneous ideals I(+)N alone, which they build from the pairs (I, N)."""
    rec = idealization(delta.ring, module)
    return Expansion(rec.ring, ("idealization_derived", delta), _pullback(rec.projection, delta))


@memo
def derive_localized_expansion(delta, sset):
    """Push delta to S^-1 R along r -> r/1, as to a quotient (``_pushforward``):
    S^-1 R is R/ker.  The value on K extends delta of the contraction of K, the
    largest ideal extending to K, so it does not depend on a representative."""
    rec = localize(delta.ring, sset)
    return Expansion(rec.ring, ("localization_derived", delta, sset),
                     _pushforward(rec.canonical, delta))


def localization_value_collisions(delta, sset):
    """Base-ideal pairs with equal extensions but different extended delta-values.

    Such a pair would witness that the textbook formula delta_S(S^-1 I) =
    S^-1(delta(I)) depends on the representative I; the derived expansion
    above sidesteps this by always contracting first.  Returns a list of
    (I, I') pairs found on the base lattice.
    """
    extend = Homomorphism.image_mask.table(localize(delta.ring, sset).canonical)
    first, out = {}, []  # extension -> (the first I with it, its extended delta-value)
    for i in _lattice(delta.ring):
        dval = extend[delta.table[i]]
        j, jval = first.setdefault(extend[i], (i, dval))
        if jval != dval:
            out.append((_mk_ideal(delta.ring, j), _mk_ideal(delta.ring, i)))
    return out


# ---------------------------------------------------------------------------
# hypothesis profile
# ---------------------------------------------------------------------------

# witnesses holds (flag_name, description) pairs for the failing flags, in field order
ExpansionProfile = namedtuple("ExpansionProfile", "intersection_preserving idempotent_on_all "
                                                  "zero_fixed radical_commuting colon_condition "
                                                  "witnesses")


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


def _profile(scans):
    """The profile of one violation scan per flag, in field order, each read up
    to its first item: a flag holds when its scan is empty, else that item is its witness."""
    flags, found = [], []
    for name, scan in zip(ExpansionProfile._fields, scans):
        witness = next(iter(scan), None)
        flags.append(witness is None)
        if witness is not None:
            found.append((name, witness))
    return ExpansionProfile(*flags, tuple(found))


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
    lattice = _lattice(ring)
    table, radicals, ideal = delta.table, _radical_mask.table(ring), _mk_ideal.table(ring)
    zero_mask = 1 << ring.zero_idx
    return _profile((
        (f"I={ideal[i]!r}, J={ideal[j]!r}" for i in lattice for j in lattice
         if table[i & j] != table[i] & table[j]),
        (f"I={ideal[i]!r}" for i in lattice if table[table[i]] != table[i]),
        () if table[zero_mask] == zero_mask else ("delta(0) != (0)",),
        (f"I={ideal[i]!r}" for i in lattice if radicals[table[i]] != table[radicals[i]]),
        (f"{v[1]} for J={ideal[j]!r}, x={ring.element_repr(v[0])}" for j in lattice
         if (v := _colon_violation(delta, j)))))


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
    """0 and every p^a * q^b, ascending, p and q among the primes of the nonzero
    parameters and the two least primes dividing none, a <= 2(S_p + r + 1) + 1
    with S_p the sum of v_p over the parameter occurrences and r the delta1 count."""
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
    and two primes dividing no parameter stand for all of them.  Points and
    images are 0 or products of the points' primes: ``_radical_of_int`` factors them at once.
    """
    fn = delta.int_fn
    points = _int_test_points(delta)

    def has(a, b):  # aZ contains b
        return b % a == 0 if a else b == 0

    def colon_violations():
        for n in points:
            if n == 1:
                continue
            dn = fn(n)
            for m in points[1:]:
                rhs = fn(_int_colon(n, m))
                if not has(dn, m) and not has(rhs, _int_colon(dn, m)):
                    yield f"(delta(J):x) not within delta(J:x) for J=({n}), x={m}"
                elif not has(n, m) and rhs == 1:
                    yield f"delta(J:x) is the whole ring for J=({n}), x={m}"

    return _profile((
        # only a pair (0, m) can fail, see above
        (f"I=(0), J=({m})" for m in points if fn(lcm(0, m)) != lcm(fn(0), fn(m))),
        (f"I=({n})" for n in points if fn(fn(n)) != fn(n)),
        () if fn(0) == 0 else (f"delta(0) = ({fn(0)})",),
        (f"I=({n})" for n in points
         if _radical_of_int(fn(n)) != fn(_radical_of_int(n))),
        colon_violations()))
