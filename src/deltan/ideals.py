"""Ideals of finite rings (bitmask element sets) and of the integer ring (n for nZ).

Finite ideals are stored as bitmasks over the ring's element indices, so the
derived operators (sum, product, intersection, colon, radical) and the lattice
enumeration are exact set computations.  Integer ideals are a single
nonnegative integer n standing for nZ (0 is the zero ideal, 1 is the whole
ring), with closed-form arithmetic.  Each ideal is one interned object (see
``Ideal``), so ideals compare by identity.
"""

from __future__ import annotations

from array import array
from collections import namedtuple
from itertools import chain, compress, count, islice, takewhile
from math import gcd, lcm, prod

from .errors import InfiniteRingError, InvalidSpecError
from .rings import Element, _digits, _own_element, _same_ring, integers, memo

_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def _bits(mask):
    """The indices of the set bits of ``mask``, ascending."""
    return list(compress(count(), bin(mask)[:1:-1].encode().translate(_BIT_BYTES)))


def _mask_of(size, indices):
    """The bitmask of a collection of indices below ``size``, in O(size + len) time."""
    digits = bytearray(b"0") * size
    for i in indices:
        digits[i] = 49  # ord("1")
    return int(digits[::-1], 2)


def _add_close(ring, a_mask, b_mask):
    """A + B for subgroups A and B of a ring or module: the larger, A | B, when one
    holds the other, else the union of the cosets b + A.  A b already covered lies
    in an earlier coset b' + A, and then b + A = b' + A because A is a subgroup, so
    it is skipped: the cost is |A + B| lookups plus one pass over B, not |A| * |B|.
    """
    if a_mask & ~b_mask == 0 or b_mask & ~a_mask == 0:
        return a_mask | b_mask
    add = ring.add
    a_bits = _bits(a_mask)
    covered = set()
    for b in _bits(b_mask):
        if b not in covered:
            covered.update(map(add[b].__getitem__, a_bits))
    return _mask_of(ring.size, covered)


def _principal_mask(ring, g):
    return _mask_of(ring.size, set(ring.mul[g]))


def _preimage_mask(imask, seq):
    """Mask of the positions r with ``seq[r]`` in the set ``imask``."""
    members = set(_bits(imask))
    return _mask_of(len(seq), compress(count(), map(members.__contains__, seq)))


# trial division by the primes below _TRIAL_BOUND factors every n whose part free
# of them is below _TRIAL_BOUND ** 2: that part has no prime factor below its
# square root, so it is 1 or a prime
_TRIAL_BOUND = 10 ** 6

def _sieved(lo, hi, primes):
    """The integers in [lo, hi) that none of ``primes`` divides, ascending: the
    primes in [lo, hi) when ``primes`` holds every prime up to the square root
    of hi - 1, each below lo."""
    block = bytearray([1]) * (hi - lo)
    for p in primes:
        first = -lo % p
        block[first::p] = bytes(len(range(first, hi - lo, p)))
    return compress(range(lo, hi), block)


# the primes below 1000, which sieve every block of integers below _TRIAL_BOUND
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
_SMALL_PRIMES += tuple(_sieved(32, 1000, _SMALL_PRIMES))


# the primes below _TRIAL_BOUND sieved so far, ascending (an array('I'), 314 KB once
# full, against 2.8 MB as a tuple of ints), and the blocks [lo, 2 lo) of the rest
_PRIMES = array("I", _SMALL_PRIMES)
_BLOCKS = (_sieved(lo, min(2 * lo, _TRIAL_BOUND), _SMALL_PRIMES)
           for lo in takewhile(_TRIAL_BOUND.__gt__, (1000 << k for k in count())))


def _trial_primes():
    """The primes below _TRIAL_BOUND, ascending: _PRIMES, grown by the next of
    _BLOCKS, sieved once, only when a division reads past the primes before it."""
    read = 0
    for block in chain([()], _BLOCKS):
        _PRIMES.extend(block)
        yield from islice(_PRIMES, read, None)
        read = len(_PRIMES)


def _trial_division(n, divisors):
    """(the divisors that divide n >= 1, ascending, the part of n they leave):
    each divided out in full, the ascending ``divisors`` tried while their
    square is at most the part left."""
    out = []
    for p in divisors:
        if p * p > n:
            break
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
    return out, n


def _prime_factors(n):
    """The distinct primes dividing n >= 1, ascending, memoised on ZZ: the flags,
    the radical and the expansions of nZ each ask for those of n."""
    return _int_prime_factors(integers(), n)


@memo
def _held_primes(zz):
    """The primes of at least _TRIAL_BOUND that trial division left of nZ literals."""
    return set()


def _cannot_factor(n):
    shown = n if n < 10 ** 40 else f"a {_digits(n)}-digit integer"
    return InvalidSpecError(f"cannot factor {shown}: trial division by the primes "
                            f"below 10^6 leaves a part of at least 10^12")


@memo
def _int_prime_factors(zz, n):
    """Division by ZZ's held primes, then by the primes below _TRIAL_BOUND; a part
    left of at least _TRIAL_BOUND ** 2 is refused.  Every prime of an nZ is below
    _TRIAL_BOUND or held, as a closed form's primes divide its operands' or parameters'."""
    held, rest = [q for q in _held_primes(zz) if n % q == 0], n
    for q in held:
        while rest % q == 0:
            rest //= q
    out, rest = _trial_division(rest, _trial_primes())
    if rest >= _TRIAL_BOUND ** 2:
        raise _cannot_factor(n)
    return sorted(out + held + [rest] if rest > 1 else out + held)


def _radical_of_int(n):
    """Product of the distinct prime divisors of n (0 -> 0, 1 -> 1)."""
    return prod(_prime_factors(n)) if n else 0


def _is_prime_int(n):
    return n >= 2 and _prime_factors(n) == [n]


def _is_prime_power(n):
    return n >= 2 and len(_prime_factors(n)) == 1


class Ideal:
    """An ideal of a specific ring: the one object for its element set.

    Ideals are built only by ``_mk_ideal`` (finite rings, by mask) and
    ``_int_ideal`` (the integers, by n for nZ), both memoised per ring, so
    equal ideals are the same object and compare by identity.  Generators are
    not part of the value: ``gens`` is the greedy generating set of the mask
    (``(n,)`` on the integers), computed on first read, for printing.
    """

    __slots__ = ("ring", "_gens", "mask", "n")

    def __init__(self, ring, mask=None, n=None):
        self.ring = ring
        self._gens = None
        self.mask = mask
        self.n = n

    @property
    def gens(self):
        if self._gens is None:
            self._gens = (_greedy_gens(self.ring, self.mask) if self.is_finite
                          else (Element(self.ring, self.n),))
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
        if self.mask is not None:
            return self.mask != self.ring.full_mask
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
        _same_ring(self.ring, a, "element")
        if self.is_finite:
            return bool(self.mask >> a.idx & 1)
        return self.n == 0 and a.idx == 0 or self.n != 0 and a.idx % self.n == 0

    def issubset(self, other):
        _same_ring(self.ring, other, "ideal")
        if self.is_finite:
            return self.mask & ~other.mask == 0
        if self.n == 0:
            return True
        return other.n != 0 and self.n % other.n == 0

    def __repr__(self):
        return "(" + ", ".join(self.ring.element_repr(g.idx) for g in self.gens) + ")"


def _greedy_gens(ring, mask):
    """The greedy generators of ``mask``: each element, ascending, outside the
    ideal of those before it; the zero element alone for (0)."""
    zero_mask = 1 << ring.zero_idx
    gens, cur = [], zero_mask
    for i in _bits(mask):
        if not (cur >> i & 1):
            gens.append(i)
            cur = _add_close(ring, cur, _principal_mask(ring, i))
            if cur == mask:
                break
    return tuple(Element(ring, i) for i in gens or [ring.zero_idx])


@memo
def _mk_ideal(ring, mask):
    return Ideal(ring, mask=mask)


@memo
def _int_ideal(ring, n):
    """nZ, interned: literals pass ``integer_ideal`` first, operator results come here."""
    return Ideal(ring, n=n)


def zero_ideal(ring):
    if not ring.is_finite:
        return _int_ideal(ring, 0)
    return _mk_ideal(ring, 1 << ring.zero_idx)


def unit_ideal(ring):
    if not ring.is_finite:
        return _int_ideal(ring, 1)
    return _mk_ideal(ring, ring.full_mask)


def integer_ideal(ring, n):
    """nZ in the integer ring, the door of every literal n: an n not yet interned must
    leave 1 or a prime below _TRIAL_BOUND ** 2 by trial division, held if >= _TRIAL_BOUND.
    A held q | n is divided out once first, as n leaves q iff n / q leaves a part below
    _TRIAL_BOUND (q^2 | n leaves one of at least q), so n / q is divided, not n."""
    _same_ring(ring, integers().zero, "integer ideal")  # it lives in ZZ, as its elements do
    if type(n) is not int:  # no bool, float or str: int() would round or parse them
        raise InvalidSpecError(f"integer ideal generator {n!r} is not an int")
    n = abs(n)
    if n not in _int_ideal.table(ring):
        q = next((q for q in _held_primes(ring) if n % q == 0), 1) if n else 1
        rest = _trial_division((n or 1) // q, _trial_primes())[1]
        if rest >= (_TRIAL_BOUND if q > 1 else _TRIAL_BOUND ** 2):
            raise _cannot_factor(n)
        if rest >= _TRIAL_BOUND:
            _held_primes(ring).add(rest)
    return _int_ideal(ring, n)


def ideal_from_generators(ring, gens):
    """Smallest ideal containing the generators (gcd on the integer backend)."""
    elems = [_own_element(ring, g, "generator") for g in gens]
    if not ring.is_finite:
        return integer_ideal(ring, gcd(*(g.idx for g in elems)))
    return _mk_ideal(ring, _generated_mask(ring, [g.idx for g in elems]))


def _generated_mask(ring, indices):
    """The mask of the ideal of a finite ring generated by the elements ``indices``."""
    mask = 1 << ring.zero_idx
    for g in indices:
        if not mask >> g & 1:
            mask = _add_close(ring, mask, _principal_mask(ring, g))
    return mask


def ideal_contains(I, a):
    return I.contains(a)


def ideal_combine(op, I, J):
    """sum / product / intersect of two ideals of the same ring."""
    _same_ring(I.ring, J, "ideal")
    if op not in ("sum", "product", "intersect"):
        raise ValueError(f"unknown ideal operation {op!r}")
    ring = I.ring
    if not ring.is_finite:  # nZ + mZ, nZ mZ and nZ & mZ are gcd(n, m), nm and lcm(n, m) Z
        combine = {"sum": gcd, "product": int.__mul__, "intersect": lcm}[op]
        return _int_ideal(ring, combine(I.n, J.n))
    if op == "sum":
        return _mk_ideal(ring, _sum_mask(ring, I.mask, J.mask))
    if op == "product":
        return _mk_ideal(ring, _product_mask(ring, I.mask, J.mask))
    return _mk_ideal(ring, I.mask & J.mask)


def _sum_mask(ring, a, b):
    return _sum_pair(ring, a, b) if a <= b else _sum_pair(ring, b, a)


@memo
def _sum_pair(ring, a, b):
    return _add_close(ring, a, b)


def _product_mask(ring, a, b):
    return _product_pair(ring, a, b) if a <= b else _product_pair(ring, b, a)


@memo
def _product_pair(ring, a, b):
    """IJ: the pairwise products ij form an R-stable set (r(ij) = (ri)j), so IJ,
    their additive closure, is the sum of their principal ideals."""
    mul = ring.mul
    b_bits = _bits(b)
    prods = set()
    for i in _bits(a):
        prods.update(map(mul[i].__getitem__, b_bits))
    return _generated_mask(ring, prods)


def _column_preimage(ring, imask, seq):
    """{r : seq[r] in I} as the union of the principal columns Ra with seq[a] in I,
    for a ``seq`` whose preimage of I is a proper ideal, with seq[ua] in I iff seq[a]
    is for every unit u: the ideal is the union of the Rb over its members b, and
    Rb is the column of its least member a, b = ua (``_principal_columns``)."""
    out = 0
    for p, a in _principal_columns(ring).items():
        if imask >> seq[a] & 1:
            out |= p
    return out


@memo
def _colon_mask(ring, imask, x):
    """(I : x) = {b : xb in I}: R when x is in I, else a proper ideal, x(ua) in I iff xa is."""
    return ring.full_mask if imask >> x & 1 else _column_preimage(ring, imask, ring.mul[x])


def _int_colon(n, m):
    """(nZ : m) = (n / gcd(n, m))Z, and Z when m = 0, as the generator."""
    return n // gcd(n, m) if m else 1


def colon(I, divisor):
    """(I : x) for an element x, or (I : J) for an ideal J, the meet of the
    (I : g) over the generators g of J."""
    ring = I.ring
    is_ideal = isinstance(divisor, Ideal)
    _same_ring(ring, divisor, "divisor")
    if not ring.is_finite:
        return _int_ideal(ring, _int_colon(I.n, divisor.n if is_ideal else divisor.idx))
    gens = divisor.gens if is_ideal else (divisor,)
    return _mk_ideal(ring, _colon_meet(ring, I.mask, gens))


def _colon_meet(ring, imask, gens):
    """(I : J) for the ideal J that the elements ``gens`` generate: the meet of the (I : g)."""
    mask = ring.full_mask
    for g in gens:
        mask &= _colon_mask(ring, imask, g.idx)
    return mask


@memo
def _power_map(ring):
    """r -> r^(2^k) for every element r, k = (n - 1).bit_length() the least k with
    2^k >= n: the list of squares, built once, composed with itself k times."""
    powers = squares = [row[r] for r, row in enumerate(ring.mul)]
    for _ in range((ring.size - 1).bit_length() - 1):
        powers = list(map(squares.__getitem__, powers))
    return powers


@memo
def _radical_mask(ring, imask):
    """sqrt(I): R when I = R, else a proper ideal, with (ua)^(2^k) = u^(2^k) a^(2^k)
    in I iff a^(2^k) is (k as in ``radical``)."""
    return imask if imask == ring.full_mask else _column_preimage(ring, imask, _power_map(ring))


def radical(I):
    """Elements with some positive power in I.

    On a finite ring of n elements, r is in the radical iff r^(2^k) is in I for
    the least k with 2^k >= n.  If r + I is nilpotent in R/I, its powers up to
    its nilpotency index m are distinct and all but the last nonzero, so
    m <= |R/I| <= n <= 2^k; and I absorbs every higher power of r.
    """
    ring = I.ring
    if not ring.is_finite:
        return _int_ideal(ring, _radical_of_int(I.n))
    return _mk_ideal(ring, _radical_mask(ring, I.mask))


def nilradical(ring):
    return radical(zero_ideal(ring))


def _nil_mask(ring):  # sqrt(0) of a finite ring
    return _radical_mask(ring, 1 << ring.zero_idx)


@memo
def _unit_mask(ring):
    """a is a unit iff a^(2^k) e != 0 for every primitive idempotent e: R is the
    product of the local rings Re, whose maximal ideals are nil (k as in ``radical``)."""
    mul, zero, idempotents = ring.mul, ring.zero_idx, _local_components(ring).values()
    return _mask_of(ring.size, compress(count(), (
        all(mul[p][e] != zero for e in idempotents) for p in _power_map(ring))))


@memo
def _principal_columns(ring):
    """{Ra: the least a generating it} over the non-units a, memoised per ring: one mask
    per class of associates, as Ra = Rb iff b = ua for a unit u (in each local factor,
    a = sra forces a = 0 or sr, so r, to be a unit), built from its least member."""
    mul, columns, units = ring.mul, {}, _bits(_unit_mask(ring))
    done = set(units)
    for g in range(ring.size):
        if g not in done:
            columns[_principal_mask(ring, g)] = g
            done.update(map(mul[g].__getitem__, units))
    return columns


@memo
def _columns_outside(ring, xmask):
    """The least generators of the minimal principal ideals not inside the ideal X,
    by increasing size; 1 for the units when no non-unit one is outside a proper X.

    A union of the (I : a) over the a outside X needs only these: a is outside X
    iff Ra is, and such an Ra holds a minimal one, Rb; b = ta puts (I : a) inside
    (I : b).  R, which every unit generates, holds every column.  Taken by size,
    a column is minimal iff it holds none kept before it.
    """
    kept = {}
    for p, a in sorted(_principal_columns(ring).items(), key=lambda pa: pa[0].bit_count()):
        if p & ~xmask and all(k & ~p for k in kept):
            kept[p] = a
    if not kept and not xmask >> ring.one_idx & 1:
        return [ring.one_idx]
    return list(kept.values())


def _colon_union(ring, imask, elements):
    """The union of the (I : a) over the a in ``elements``."""
    colons, out = _colon_mask.table(ring, imask), 0
    for a in elements:
        out |= colons[a]
    return out


def _sum_closure(owner, seeds, gens):
    """The closure of the masks ``seeds`` under adding a mask of ``gens``: the
    subgroups of a ring or module that are sums of a seed and some gens,
    ordered by (size, element set)."""
    seen = set(seeds)
    frontier = sorted(seen)
    while frontier:
        fresh = []
        for a in frontier:
            for g in gens:
                s = _sum_mask(owner, a, g)
                if s not in seen:
                    seen.add(s)
                    fresh.append(s)
        frontier = fresh
    return sorted(seen, key=lambda m: (m.bit_count(), m))


@memo
def _local_components(ring):
    """{Re: e} over the primitive idempotents e: Rf lies inside Re exactly
    when f = fe, so the Re are the minimal Re of the nonzero idempotents e.
    A local ring has one, R = R1."""
    components = {}
    for m, e in sorted(((_principal_mask(ring, e), e) for e, row in enumerate(ring.mul)
                        if row[e] == e != ring.zero_idx), key=lambda me: me[0].bit_count()):
        if all(c & ~m for c in components):
            components[m] = e
    return components


@memo
def _lattice(ring):
    """The complete ideal lattice as masks, ordered by (size, element set), per ring.

    A finite ring is the product of its local factors Re (Atiyah-Macdonald,
    Thm 8.7) and each ideal I the direct sum of the Ie, so the lattice is the
    sums of one ideal of each factor.  Each ideal is the sum of the principal
    ideals of its elements, so those inside Re are the closure of Re and the
    non-unit principal ideals inside it under pairwise sum.
    """
    if not ring.is_finite:
        raise InfiniteRingError("integer ideals are parameterized by n, not enumerated")
    principals = sorted(_principal_columns(ring))
    masks = [1 << ring.zero_idx]
    for c in _local_components(ring):
        inside = [p for p in principals if p & ~c == 0]
        factor = _sum_closure(ring, [c, *inside], inside)
        # (0) + B = B, so the first factor, the only one of a local ring, is its lattice
        masks = [_add_close(ring, a, b) for a in masks for b in factor] if masks[1:] else factor
    return tuple(sorted(masks, key=lambda m: (m.bit_count(), m)))


def enumerate_ideals(ring):
    """The complete ideal lattice as interned ideals, in ``_lattice`` order."""
    return tuple(_mk_ideal(ring, m) for m in _lattice(ring))


IdealClass = namedtuple("IdealClass", "is_proper is_prime is_maximal is_primary is_superfluous")


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
    """The flags of the ideal I, prime and primary read off Z_I.

    Let Z_I = {b : ab in I for some a outside I}.  A proper I is prime iff
    ab in I with a outside I forces b into I, that is, iff Z_I <= I, and
    primary iff it forces b into sqrt(I), that is, iff Z_I <= sqrt(I); as
    ab = ba, it does not matter which factor lies outside I.  Maximal and
    superfluous are read off the lattice.
    """
    full = ring.full_mask
    proper = imask != full
    z_i = _z_i_mask(ring, imask)
    prime = proper and z_i & ~imask == 0
    primary = proper and z_i & ~_radical_mask(ring, imask) == 0
    lattice = _lattice(ring)
    maximal = proper and not any(
        j != full and j != imask and imask & ~j == 0 for j in lattice)
    superfluous = proper and all(_sum_mask(ring, imask, j) != full for j in lattice if j != full)
    return IdealClass(proper, prime, maximal, primary, superfluous)


@memo
def maximal_ideals(ring):
    return tuple(_mk_ideal(ring, m) for m in _lattice(ring) if _ideal_class(ring, m).is_maximal)


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


@memo
def _z_i_mask(ring, imask):
    """Z_I = {r : rs in I for some s outside I}, memoised per ring."""
    return _colon_union(ring, imask, _columns_outside(ring, imask))


# the two radicals are ideals
SpecialSets = namedtuple("SpecialSets", "nilradical jacobson zero_divisors regular_elements z_i")


def special_sets(ring, I=None):
    """Nilradical, Jacobson radical, zero divisors, regular elements and Z_I.

    ``zero_divisors`` follows the set formula {r : rs = 0 for some s != 0}, so
    it contains 0 whenever the ring is nonzero; ``Z_I`` is {r : rs in I for
    some s outside I} (s ranges over R minus I, not over nonzero elements).
    """
    if I is None:
        I = zero_ideal(ring)
    _same_ring(ring, I, "ideal")
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
    jac_mask = ring.full_mask
    for M in maximal_ideals(ring):
        jac_mask &= M.mask
    # the zero divisors are Z_(0), and the regular elements the rest of R
    zdiv_mask = _z_i_mask(ring, 1 << ring.zero_idx)
    return SpecialSets(
        nilradical=nilradical(ring),
        jacobson=_mk_ideal(ring, jac_mask),
        zero_divisors=_element_set(ring, zdiv_mask),
        regular_elements=_element_set(ring, ring.full_mask & ~zdiv_mask),
        z_i=_element_set(ring, _z_i_mask(ring, I.mask)),
    )


def _element_set(ring, mask):
    return frozenset(Element(ring, r) for r in _bits(mask))
