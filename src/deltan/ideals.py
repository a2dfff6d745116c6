"""Ideals of finite rings (bitmask element sets) and of the integer ring (n for nZ).

Finite ideals are stored as bitmasks over the ring's element indices, so the
derived operators (sum, product, intersection, colon, radical) and the lattice
enumeration are exact set computations.  Integer ideals are a single
nonnegative integer n standing for nZ (0 is the zero ideal, 1 is the whole
ring), with closed-form arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import CrossRingError, InfiniteRingError
from .rings import Element, memo


def _bits(mask):
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


def _full_mask(ring):
    return (1 << ring.size) - 1


def _add_close(ring, a_mask, b_mask):
    """Elementwise sum {a+b} of two subgroup masks (already a subgroup)."""
    add = ring.add
    out = 0
    for i in _bits(a_mask):
        row = add[i]
        for j in _bits(b_mask):
            out |= 1 << row[j]
    return out


def _principal_mask(ring, g):
    mul = ring.mul
    out = 0
    row = mul[g]
    for r in range(ring.size):
        out |= 1 << row[r]
    return out


def _radical_of_int(n):
    """Product of the distinct prime divisors of n (0 -> 0, 1 -> 1)."""
    if n in (0, 1):
        return n
    out, rest, p = 1, n, 2
    while p * p <= rest:
        if rest % p == 0:
            out *= p
            while rest % p == 0:
                rest //= p
        p += 1
    if rest > 1:
        out *= rest
    return out


def _is_prime_int(n):
    if n < 2:
        return False
    p = 2
    while p * p <= n:
        if n % p == 0:
            return False
        p += 1
    return True


def _is_prime_power(n):
    if n < 2:
        return False
    p = 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            return n == 1
        p += 1
    return True


class Ideal:
    """An ideal of a specific ring, deduplicated by its canonical element set.

    ``gens=None`` (finite rings only) defers the generators to their first use.
    """

    __slots__ = ("ring", "_gens", "mask", "n")

    def __init__(self, ring, gens, mask=None, n=None):
        self.ring = ring
        self._gens = None if gens is None else tuple(gens)
        self.mask = mask
        self.n = n

    @property
    def gens(self):
        if self._gens is None:
            self._gens = _greedy_gens(self.ring, self.mask)
        return self._gens

    @property
    def is_finite(self):
        return self.mask is not None

    @property
    def size(self):
        if not self.is_finite:
            raise InfiniteRingError("integer ideals have no finite element count")
        return self.mask.bit_count()

    @property
    def is_proper(self):
        if self.is_finite:
            return self.mask != _full_mask(self.ring)
        return self.n != 1

    @property
    def is_zero(self):
        if self.is_finite:
            return self.mask == (1 << self.ring.zero_idx)
        return self.n == 0

    def elements(self):
        if not self.is_finite:
            raise InfiniteRingError("integer ideals are not enumerable")
        return [Element(self.ring, i) for i in _bits(self.mask)]

    def contains(self, a):
        if a.ring.key != self.ring.key:
            raise CrossRingError("element and ideal live in different rings")
        if self.is_finite:
            return bool(self.mask >> a.idx & 1)
        return self.n == 0 and a.idx == 0 or self.n != 0 and a.idx % self.n == 0

    def issubset(self, other):
        if other.ring.key != self.ring.key:
            raise CrossRingError("ideals live in different rings")
        if self.is_finite:
            return self.mask & ~other.mask == 0
        if self.n == 0:
            return True
        return other.n != 0 and self.n % other.n == 0

    def key(self):
        return (self.ring.key, self.mask if self.is_finite else ("Z", self.n))

    def __eq__(self, other):
        return isinstance(other, Ideal) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        if not self.gens:
            return "(0)"
        return "(" + ", ".join(self.ring.element_repr(g.idx) for g in self.gens) + ")"


def _greedy_gens(ring, mask):
    zero_mask = 1 << ring.zero_idx
    gens, cur = [], zero_mask
    for i in _bits(mask):
        if not (cur >> i & 1):
            gens.append(i)
            cur = _add_close(ring, cur, _principal_mask(ring, i))
            if cur == mask:
                break
    return tuple(Element(ring, i) for i in gens)


def _mk_ideal(ring, mask, gens=None):
    return Ideal(ring, gens, mask=mask)


def zero_ideal(ring):
    if not ring.is_finite:
        return Ideal(ring, (ring.el(0),), n=0)
    return Ideal(ring, (), mask=1 << ring.zero_idx)


def unit_ideal(ring):
    if not ring.is_finite:
        return Ideal(ring, (ring.el(1),), n=1)
    return _mk_ideal(ring, _full_mask(ring))


def integer_ideal(ring, n):
    n = abs(int(n))
    return Ideal(ring, (ring.el(n),), n=n)


def ideal_from_generators(ring, gens):
    """Smallest ideal containing the generators (gcd on the integer backend)."""
    elems = []
    for g in gens:
        if isinstance(g, Element):
            if g.ring.key != ring.key:
                raise CrossRingError("generator belongs to a different ring")
            elems.append(g)
        else:
            elems.append(ring.from_payload(g))
    if not ring.is_finite:
        n = 0
        for g in elems:
            n = gcd(n, abs(g.idx))
        return integer_ideal(ring, n)
    mask = 1 << ring.zero_idx
    for g in elems:
        mask = _add_close(ring, mask, _principal_mask(ring, g.idx))
    return _mk_ideal(ring, mask, gens=tuple(elems) if mask != 1 << ring.zero_idx else ())


def ideal_contains(I, a):
    return I.contains(a)


def ideal_combine(op, I, J):
    """sum / product / intersect of two ideals of the same ring."""
    if I.ring.key != J.ring.key:
        raise CrossRingError("ideals live in different rings")
    ring = I.ring
    if not ring.is_finite:
        a, b = I.n, J.n
        if op == "sum":
            return integer_ideal(ring, gcd(a, b))
        if op == "product":
            return integer_ideal(ring, a * b)
        if op == "intersect":
            return integer_ideal(ring, 0 if a == 0 or b == 0 else a * b // gcd(a, b))
        raise ValueError(f"unknown ideal operation {op!r}")
    if op == "sum":
        return _mk_ideal(ring, _sum_mask(ring, I.mask, J.mask))
    if op == "product":
        return _mk_ideal(ring, _product_mask(ring, I.mask, J.mask))
    if op == "intersect":
        return _mk_ideal(ring, I.mask & J.mask)
    raise ValueError(f"unknown ideal operation {op!r}")


def _sum_mask(ring, a, b):
    return _sum_pair(ring, a, b) if a <= b else _sum_pair(ring, b, a)


@memo
def _sum_pair(ring, a, b):
    return _add_close(ring, a, b)


def _product_mask(ring, a, b):
    return _product_pair(ring, a, b) if a <= b else _product_pair(ring, b, a)


@memo
def _product_pair(ring, a, b):
    mul = ring.mul
    prods = 1 << ring.zero_idx
    for i in _bits(a):
        row = mul[i]
        for j in _bits(b):
            prods |= 1 << row[j]
    # close the pairwise products additively (they are already R-stable)
    cur = prods
    while True:
        nxt = _add_close(ring, cur, cur)
        if nxt == cur:
            break
        cur = nxt
    return cur


@memo
def _colon_mask(ring, imask, x):
    mul = ring.mul
    out = 0
    for r in range(ring.size):
        if imask >> mul[r][x] & 1:
            out |= 1 << r
    return out


def colon(I, divisor):
    """(I : x) for an element x, or (I : J) for an ideal J."""
    ring = I.ring
    if isinstance(divisor, Ideal):
        if divisor.ring.key != ring.key:
            raise CrossRingError("ideals live in different rings")
        if not ring.is_finite:
            n, m = I.n, divisor.n
            if m == 0:
                return unit_ideal(ring)
            return integer_ideal(ring, n // gcd(n, m) if n else 0)
        mask = _full_mask(ring)
        for g in (divisor.gens or (ring.zero,)):
            mask &= _colon_mask(ring, I.mask, g.idx)
        return _mk_ideal(ring, mask)
    if divisor.ring.key != ring.key:
        raise CrossRingError("element and ideal live in different rings")
    if not ring.is_finite:
        n, v = I.n, abs(divisor.idx)
        if v == 0:
            return unit_ideal(ring)
        return integer_ideal(ring, n // gcd(n, v) if n else 0)
    return _mk_ideal(ring, _colon_mask(ring, I.mask, divisor.idx))


@memo
def _radical_mask(ring, imask):
    mul, n = ring.mul, ring.size
    out = 0
    for r in range(n):
        power = r
        for _ in range(n):
            if imask >> power & 1:
                out |= 1 << r
                break
            power = mul[power][r]
    return out


def radical(I):
    """Elements with some positive power in I (exponent bound: the ring size)."""
    ring = I.ring
    if not ring.is_finite:
        return integer_ideal(ring, _radical_of_int(I.n))
    return _mk_ideal(ring, _radical_mask(ring, I.mask))


def nilradical(ring):
    return radical(zero_ideal(ring))


@memo
def enumerate_ideals(ring):
    """The complete ideal lattice, ordered by (size, element set); cached per ring.

    Computed as the closure of all principal ideals under pairwise ideal sum.
    """
    if not ring.is_finite:
        raise InfiniteRingError("integer ideals are parameterized by n, not enumerated")
    principals = sorted({_principal_mask(ring, g) for g in range(ring.size)})
    seen = {1 << ring.zero_idx}
    seen.update(principals)
    frontier = sorted(seen)
    while frontier:
        fresh = []
        for a in frontier:
            for p in principals:
                s = _sum_mask(ring, a, p)
                if s not in seen:
                    seen.add(s)
                    fresh.append(s)
        frontier = fresh
    return tuple(_mk_ideal(ring, m) for m in sorted(seen, key=lambda m: (m.bit_count(), m)))


@dataclass(frozen=True)
class IdealClass:
    is_proper: bool
    is_prime: bool
    is_maximal: bool
    is_primary: bool
    is_superfluous: bool


def classify_ideal(I):
    """Prime / maximal / primary / superfluous flags, decided on the lattice."""
    ring = I.ring
    if not ring.is_finite:
        n = I.n
        proper = n != 1
        return IdealClass(
            is_proper=proper,
            is_prime=proper and (n == 0 or _is_prime_int(n)),
            is_maximal=_is_prime_int(n),
            is_primary=proper and (n == 0 or _is_prime_power(n)),
            is_superfluous=n == 0,
        )
    return _ideal_class(ring, I.mask)


@memo
def _ideal_class(ring, imask):
    full = _full_mask(ring)
    proper = imask != full
    mul, n = ring.mul, ring.size
    outside = [a for a in range(n) if not (imask >> a & 1)]
    prime = proper and all(not (imask >> mul[a][b] & 1) for a in outside for b in outside)
    radm = _radical_mask(ring, imask)
    primary = proper and all(
        radm >> b & 1
        for a in outside
        for b in range(n)
        if imask >> mul[a][b] & 1
    )
    lattice = enumerate_ideals(ring)
    maximal = proper and not any(
        J.mask != full and J.mask != imask and imask & ~J.mask == 0 for J in lattice)
    superfluous = proper and all(
        _sum_mask(ring, imask, J.mask) != full for J in lattice if J.mask != full)
    return IdealClass(proper, prime, maximal, primary, superfluous)


@memo
def maximal_ideals(ring):
    return tuple(I for I in enumerate_ideals(ring) if classify_ideal(I).is_maximal)


class IntegerSet:
    """A (possibly infinite) subset of the integers given by a membership test."""

    def __init__(self, description, predicate):
        self.description = description
        self._predicate = predicate

    def __contains__(self, value):
        if isinstance(value, Element):
            value = value.idx
        return bool(self._predicate(value))

    def __repr__(self):
        return f"IntegerSet({self.description})"


def _meet_mask(ring, imask, cols):
    """Mask of the r with rs in I for some s in cols."""
    members = set(_bits(imask))
    out = 0
    for r, row in enumerate(ring.mul):
        if not members.isdisjoint(map(row.__getitem__, cols)):
            out |= 1 << r
    return out


@memo
def _z_i_mask(ring, imask):
    """Z_I = {r : rs in I for some s outside I}, memoised per ring."""
    outside = [s for s in range(ring.size) if not imask >> s & 1]
    return _meet_mask(ring, imask, outside)


@dataclass(frozen=True)
class SpecialSets:
    nilradical: Ideal
    jacobson: Ideal
    zero_divisors: object
    regular_elements: object
    z_i: object


def special_sets(ring, I=None):
    """Nilradical, Jacobson radical, zero divisors, regular elements and Z_I.

    ``zero_divisors`` follows the set formula {r : rs = 0 for some s != 0}, so
    it contains 0 whenever the ring is nonzero; ``Z_I`` is {r : rs in I for
    some s outside I} (s ranges over R minus I, not over nonzero elements).
    """
    if I is None:
        I = zero_ideal(ring)
    if I.ring.key != ring.key:
        raise CrossRingError("ideal belongs to a different ring")
    if not ring.is_finite:
        n = I.n
        if n == 1:
            z_i = frozenset()
        elif n == 0:
            z_i = frozenset({ring.el(0)})
        else:
            z_i = IntegerSet(f"integers sharing a prime factor with {n}",
                             lambda v, n=n: gcd(v, n) > 1)
        return SpecialSets(
            nilradical=integer_ideal(ring, 0),
            jacobson=integer_ideal(ring, 0),
            zero_divisors=frozenset({ring.el(0)}),
            regular_elements=IntegerSet("all nonzero integers", lambda v: v != 0),
            z_i=z_i,
        )
    mul, n, zero = ring.mul, ring.size, ring.zero_idx
    nil = nilradical(ring)
    jac_mask = _full_mask(ring)
    for M in maximal_ideals(ring):
        jac_mask &= M.mask
    zero_div = frozenset(
        Element(ring, r) for r in range(n)
        if any(mul[r][s] == zero for s in range(n) if s != zero))
    regular = frozenset(
        Element(ring, r) for r in range(n)
        if not any(mul[r][s] == zero for s in range(n) if s != zero))
    z_i = frozenset(Element(ring, r) for r in _bits(_z_i_mask(ring, I.mask)))
    return SpecialSets(
        nilradical=nil,
        jacobson=_mk_ideal(ring, jac_mask),
        zero_divisors=zero_div,
        regular_elements=regular,
        z_i=z_i,
    )
