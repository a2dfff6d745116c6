"""Commutative rings with identity: finite table backends plus a symbolic integer ring.

Finite rings carry a stable element enumeration (index 0 .. size-1), dense
addition/multiplication tables over indices, and canonical element payloads
(residues, coefficient tuples, pairs, ...); every table row holds 2-byte 'H'
cells (MAX_RING_SIZE < 2^16): an array('H'), or a read-only memoryview, on Z_n
of the one run that all rows of both its tables share (a product row read
forward or backward), and in the sum of a product Z_n x R of one run per row of
R (``_join_tables``).  Readers index, slice and iterate a row, whatever its
type.  The integer ring is symbolic: its "indices" are the integer values
themselves and enumeration is refused.

Every finite ring's tables are proved to be a commutative ring, once.  A
ring that deltan builds itself is proved by its recipe: each builder
(``_build_modular``, ``_build_poly_quotient``, ``_product``, and in
``constructions`` the quotients, localizations and idealizations) gives the
proof in its docstring and hands its tables, with the negation table its recipe
gives, to ``_proved``, which runs no axiom pass.  Tables that a caller hands to
``Ring(...)`` are checked for shape and stored in 2-byte cells, then take the
exact check ``check_ring_axioms``, whatever their origin says, in O(n^2 k), k
the size of a greedy additive generating set.  Table builders refuse, before
allocating anything, a ring or module of more than ``MAX_RING_SIZE`` elements.
"""

from __future__ import annotations

import functools
import struct
import weakref
from array import array
from collections import namedtuple
from itertools import count
from operator import indexOf, itemgetter

from .errors import CrossRingError, InfiniteRingError, InvalidSpecError

# the largest table-backed ring or module: Z64 x Z64; its two tables hold 2 * 4096^2 cells
MAX_RING_SIZE = 4096

_MAX_DIGITS = 4300  # the longest int CPython converts to or from a string by default


class _Table(dict):
    """{x: fn(owner, *prefix, x)}, ``args`` being (owner, *prefix); a missing x is
    computed and stored when it is read.  A table and its owner refer to each
    other, so the cycle collector frees them together."""
    __slots__ = ("fn", "args")

    def __missing__(self, x):
        value = self[x] = self.fn(*self.args, x)
        return value


def memo(fn):
    """Memoise ``fn(owner, *prefix, x)`` in ``owner._cache``, one table {x: value} per
    prefix under the key ``(fn, *prefix)``, and ``fn(owner)`` under ``(fn,)``.  The
    wrapper reads and fills the table that ``fn.table(owner, *prefix)`` returns, so a
    hot loop binds it once and reads ``table[x]``: a value is stored once and a stored
    0 is a hit.  Entries live on the owner, so two owners never share them."""
    key = (fn,)

    def table(owner, *prefix):
        made = owner._cache.get(key + prefix)
        if made is None:
            made = owner._cache[key + prefix] = _Table()
            made.fn, made.args = fn, (owner, *prefix)
        return made

    if fn.__code__.co_argcount == 1:  # fn(owner) has no table
        @functools.wraps(fn)
        def cached(owner):
            try:
                return owner._cache[key]
            except KeyError:
                value = owner._cache[key] = fn(owner)
                return value
        return cached
    if fn.__code__.co_argcount == 2:  # no prefix: one table per owner
        def cached(owner, x):
            made = owner._cache.get(key)
            return (made if made is not None else table(owner))[x]
    else:
        def cached(owner, *args):
            made = owner._cache.get(key + args[:-1])
            return (made if made is not None else table(owner, *args[:-1]))[args[-1]]

    cached = functools.wraps(fn)(cached)
    cached.table = table
    return cached


def _check_size(key, size, shown=None):
    """Refuse a table of more than MAX_RING_SIZE elements before it is allocated;
    ``shown`` spells the size in the message, for sizes too large to print."""
    if size > MAX_RING_SIZE:
        raise InvalidSpecError(f"{key} would have {shown or size} elements; "
                               f"table-backed rings and modules are limited to {MAX_RING_SIZE}")


def _digits(n):
    """The decimal digits of n >= 1, counted without converting n to a string:
    (bits - 1) * 0.30102 is at most log10(n)."""
    return next(k for k in count((n.bit_length() - 1) * 30102 // 100000) if 10 ** k > n)


def _check_modulus(n, degree=None):
    """Refuse Z_n, or Z_n[x]/(f) with deg f = degree, when n > MAX_RING_SIZE, before
    a key is formatted: the message counts the digits of n, too many to print."""
    if n > MAX_RING_SIZE:
        name, size = ("Z_n", "n") if degree is None else (f"Z_n[x]/(f) of degree {degree}",
                                                           f"n^{degree}")
        _check_size(f"{name}, n of {_digits(n)} digits,", n, size)


# ---------------------------------------------------------------------------
# polynomial coefficient helpers (ascending tuples over Z_n)
# ---------------------------------------------------------------------------

def poly_repr(coeffs, descending=False):
    """Render an ascending coefficient tuple, e.g. (1, 3, 1) -> ``1+3x+x^2``."""
    terms = []
    indexed = list(enumerate(coeffs))
    if descending:
        indexed.reverse()
    for i, c in indexed:
        if c == 0:
            continue
        if i == 0:
            terms.append(str(c))
        elif i == 1:
            terms.append("x" if c == 1 else f"{c}x")
        else:
            terms.append(f"x^{i}" if c == 1 else f"{c}x^{i}")
    return "+".join(terms) if terms else "0"


def _poly_normalize(n, coeffs):
    """Validate and return a monic ascending modulus tuple over Z_n."""
    coeffs = [c % n for c in coeffs]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if len(coeffs) < 2:
        raise InvalidSpecError("modulus must have degree >= 1")
    lead = coeffs[-1]
    try:
        inv = pow(lead, -1, n)
    except ValueError:
        if _digits(n) > _MAX_DIGITS:  # n cannot be printed: refuse it by its size
            _check_modulus(n, len(coeffs) - 1)
        raise InvalidSpecError(
            f"modulus leading coefficient {lead} is not a unit mod {n}") from None
    return tuple((c * inv) % n for c in coeffs)


def _poly_mul_reduce(a, b, n, modulus):
    """Multiply two ascending coefficient tuples and reduce by the monic modulus."""
    d = len(modulus) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                prod[i + j] = (prod[i + j] + ca * cb) % n
    for k in range(len(prod) - 1, d - 1, -1):
        c = prod[k]
        if c:
            prod[k] = 0
            base = k - d
            for i in range(d):
                prod[base + i] = (prod[base + i] - c * modulus[i]) % n
    out = prod[:d] + [0] * (d - len(prod))
    return tuple(out[:d])


# ---------------------------------------------------------------------------
# rings and elements
# ---------------------------------------------------------------------------

def _bracketed(kind, key):
    """The name ``key`` of a ring that a recipe of kind ``kind`` builds, as the DSL
    reads an operand: bracketed when it is a product or an idealization, whose
    operators bind to the left."""
    return f"({key})" if kind in ("product", "idealization") else key


def _product_key(left, right_kind, right):
    """``L x R``, the product of the rings named ``left`` and ``right``, of kind ``right_kind``."""
    return f"{left} x {_bracketed(right_kind, right)}"


def _gens_text(I):
    """The greedy generators of the finite ideal I, comma-separated."""
    return ",".join(I.ring.element_repr(g.idx) for g in I.gens)


def ring_key(origin):
    """The name of the ring that the recipe ``origin`` builds, its DSL text:
    ``Z6``, ``Z4[x]/(x^2)``, ``ZZ``, ``Z2 x Z4``, ``quot(Z12,(4))``,
    ``Z8 (+) Z8/(4)`` or ``loc(Z12,{1,3,9})``, a quotient named by the greedy
    generators of its ideal, an idealization by its module's name and a
    localization by the elements of its set, so that ``dsl.parse_spec`` and
    ``dsl.bind_ring`` read it back to the ring.  A product module has no DSL
    spelling, and its name (``constructions._module_name``) fails to parse."""
    kind = origin[0]
    if kind == "modular":
        return f"Z{origin[1]}"
    if kind == "poly_quotient":
        return f"Z{origin[1]}[x]/({poly_repr(origin[2], descending=True)})"
    if kind == "integer":
        return "ZZ"
    _, base, operand = origin
    if kind == "product":
        return _product_key(base.key, operand.origin[0], operand.key)
    if kind == "quotient":
        return f"quot({base.key},({_gens_text(operand)}))"
    if kind == "idealization":
        return f"{_bracketed(base.origin[0], base.key)} (+) {operand.name}"
    return f"loc({base.key},{{{','.join(map(base.element_repr, operand.indices))}}})"


class Ring:
    """A commutative ring with identity, finite (tables) or the symbolic integers.

    ``origin`` is the recipe the ring was built by: ``("modular", n)``,
    ``("poly_quotient", n, modulus)``, ``("integer",)``, or a derived ring's
    ``("product", R1, R2)``, ``("quotient", R, J)``, ``("idealization", R, M)``
    or ``("localization", R, S)``.  One object per recipe while it is in use,
    so rings compare by identity: a base ring is cached weakly by
    ``_cached_ring``, a derived ring is memoised by its construction on its
    operands, which its origin holds, and a ring that nothing refers to is freed
    with everything built on it.  ``key`` is the ring's name, its DSL text
    (``ring_key``), in every message, ``repr`` and witness.  Finite tables
    passed here are checked for shape by ``_checked_table``, their 0 and 1 by
    ``_check_index``, then take ``check_ring_axioms``."""

    def __init__(self, origin, *, elements=None, add=None, mul=None, zero=0, one=1,
                 repr_fn=None):
        self._fill(origin, elements, add, mul, zero, one, repr_fn)
        if elements is not None:
            n = len(elements)
            self.add = _checked_table(add, n, n, f"{self.key}: add")
            self.mul = _checked_table(mul, n, n, f"{self.key}: mul")
            _check_index(zero, n, f"{self.key}: zero")
            _check_index(one, n, f"{self.key}: one")
            self.neg = check_ring_axioms(self)

    def _fill(self, origin, elements, add, mul, zero, one, repr_fn):
        self.origin = origin
        self.key = ring_key(origin)
        self.elements = elements
        self.add = add
        self.mul = mul
        self.zero_idx = zero
        self.one_idx = one
        self._repr_fn = repr_fn
        self._cache = {}
        self.full_mask = None  # the mask of every element, on finite rings
        if elements is not None:
            self.full_mask = (1 << len(elements)) - 1
            self._index = {p: i for i, p in enumerate(elements)}

    # -- basic shape ----------------------------------------------------

    @property
    def is_finite(self):
        return self.elements is not None

    @property
    def size(self):
        """Number of elements, or None on the infinite integer backend."""
        return len(self.elements) if self.is_finite else None

    def __repr__(self):
        return f"Ring({self.key})"

    # -- elements --------------------------------------------------------

    def el(self, idx):
        """Element from its index (finite) or integer value (ZZ), an int (not a bool)."""
        if type(idx) is not int:
            raise InvalidSpecError(f"element index {idx!r} of {self.key} is not an int")
        if self.is_finite and not (0 <= idx < len(self.elements)):
            raise InvalidSpecError(f"element index {idx} out of range for {self.key}")
        return Element(self, idx)

    def from_payload(self, payload):
        if not self.is_finite:  # a payload of ZZ is its value, an int
            return self.el(payload)
        try:
            idx = self._index[payload]
        except (KeyError, TypeError):
            idx = None
        # a dict finds True or 1.0 under the payload 1: only a payload of the same types is one
        if idx is None or not _alike(payload, self.elements[idx]):
            raise InvalidSpecError(f"{payload!r} is not a canonical element of {self.key}")
        return Element(self, idx)

    @property
    def zero(self):
        return Element(self, 0 if not self.is_finite else self.zero_idx)

    @property
    def one(self):
        return Element(self, 1 if not self.is_finite else self.one_idx)

    def list_elements(self):
        """All elements in the stable enumeration order (finite backends only)."""
        if not self.is_finite:
            raise InfiniteRingError("infinite backend: the integer ring refuses enumeration")
        return [Element(self, i) for i in range(len(self.elements))]

    def element_repr(self, idx):
        if not self.is_finite:
            return str(idx)
        if self._repr_fn is not None:
            return self._repr_fn(self.elements[idx])
        return str(self.elements[idx])

    # -- index arithmetic (finite) / value arithmetic (ZZ) ---------------

    def add_idx(self, i, j):
        return self.add[i][j] if self.is_finite else i + j

    def mul_idx(self, i, j):
        return self.mul[i][j] if self.is_finite else i * j

    def neg_idx(self, i):
        return self.neg[i] if self.is_finite else -i


def _alike(x, y):
    """Whether the equal values x and y are of the same types all through."""
    return type(x) is type(y) and (type(x) is not tuple or all(map(_alike, x, y)))


def _same_ring(ring, operand, kind, what, attr="ring"):
    """Refuse the operand ``what`` unless it lives in ``ring``, its ``attr`` (a
    submodule's is ``module``), and is a ``kind``, a class or a tuple of classes:
    rings and modules are told apart by identity.  An operand that is no deltan
    object, or None, lives in no ring; ``ring`` None checks the kind alone."""
    other = getattr(operand, attr, None)
    if other is not ring and ring is not None:
        where = "no ring" if other is None else other.key
        raise CrossRingError(f"{what} lives in another ring ({where}) than {ring.key}")
    if not isinstance(operand, kind):
        names = " or ".join(k.__name__ for k in (kind if type(kind) is tuple else (kind,)))
        raise CrossRingError(f"{what} must be {names}, not {type(operand).__name__}")


class Element:
    """An immutable element of a specific ring, compared by ring and index."""

    __slots__ = ("ring", "idx")

    def __init__(self, ring, idx):
        self.ring = ring
        self.idx = idx

    @property
    def payload(self):
        return self.ring.elements[self.idx] if self.ring.is_finite else self.idx

    def __add__(self, other):
        _same_ring(self.ring, other, Element, "operand")
        return Element(self.ring, self.ring.add_idx(self.idx, other.idx))

    def __neg__(self):
        return Element(self.ring, self.ring.neg_idx(self.idx))

    def __sub__(self, other):
        _same_ring(self.ring, other, Element, "operand")
        return self + (-other)

    def __mul__(self, other):
        _same_ring(self.ring, other, Element, "operand")
        return Element(self.ring, self.ring.mul_idx(self.idx, other.idx))

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative powers are not defined in a ring")
        out = self.ring.one
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        return isinstance(other, Element) and other.ring is self.ring and other.idx == self.idx

    def __hash__(self):
        return hash((self.ring, self.idx))

    def __repr__(self):
        return self.ring.element_repr(self.idx)


def _own_element(ring, x, what):
    """``x``, an element of ``ring`` or a payload of one, as an element of ``ring``;
    an element of another ring is refused as the operand ``what``."""
    if isinstance(x, Element):
        _same_ring(ring, x, Element, what)
        return x
    return ring.from_payload(x)


def arithmetic(ring, op, a, b=None):
    """Apply ``add``/``mul``/``neg`` to elements of ``ring`` (contract form)."""
    _same_ring(ring, a, Element, "operand")  # the operators check b against a
    if op == "add":
        return a + b
    if op == "mul":
        return a * b
    if op == "neg":
        return -a
    raise ValueError(f"unknown ring operation {op!r}")


def list_elements(ring):
    return ring.list_elements()


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

# the ring of each base recipe, Z_n, Z_n[x]/(f) and ZZ, one object per recipe
# while it is in use: the cache holds it weakly, so a ring that nothing refers to
# is freed with every ring, memo table and ideal built on it (a derived ring is
# memoised on its operands, which its origin holds)
_RING_CACHE = weakref.WeakValueDictionary()


def _cached_ring(origin):
    """The one ring of a base recipe, built on first use."""
    ring = _RING_CACHE.get(origin)
    if ring is None:
        if origin[0] == "modular":
            ring = _build_modular(origin[1])
        elif origin[0] == "poly_quotient":
            ring = _build_poly_quotient(origin[1], origin[2])
        else:
            ring = Ring(origin)
        _RING_CACHE[origin] = ring
    return ring


def modular(n):
    if not isinstance(n, int) or n < 2:
        raise InvalidSpecError("modular ring needs an integer modulus n >= 2")
    _check_modulus(n)  # before n is formatted, in this ring's name or another's
    return _cached_ring(("modular", n))


def poly_quotient(base, modulus):
    """Quotient of Z_n[x] by a monic modulus, given as an ascending coefficient
    list; the base is the ring Z_n or the int n."""
    if isinstance(base, Ring):
        if base.origin[0] != "modular":
            raise InvalidSpecError("poly_quotient requires a modular base ring")
        base = base.origin[1]
    if not isinstance(base, int) or base < 2:
        raise InvalidSpecError("modular ring needs an integer modulus n >= 2")
    bad = (type(modulus) if not isinstance(modulus, (list, tuple))
           else next((type(c) for c in modulus if type(c) is not int), None))
    if bad is not None:  # named by its type, as product names a factor
        raise InvalidSpecError(f"poly_quotient modulus must be a list of ints; got {bad.__name__}")
    modulus = _poly_normalize(base, modulus)
    _check_modulus(base, len(modulus) - 1)
    return _cached_ring(("poly_quotient", base, modulus))


def integers():
    return _cached_ring(("integer",))


def _proved(cls, *fields, **checked):
    """A ``Ring``, ``constructions.Module`` or ``constructions.Homomorphism`` on
    tables its builder has proved by recipe (each caller gives its proof), with
    no check: ``_fill`` stores ``fields``, and ``checked`` what the check would
    return (a ring's ``neg``), set one by one as ``__init__`` sets it: writing
    through ``vars`` detaches the values from the class's shared layout and
    slows every attribute read."""
    made = cls.__new__(cls)
    made._fill(*fields)
    for name, value in checked.items():
        setattr(made, name, value)
    return made


def _table(size, rows):
    """The table of ``rows``, each ``size`` indices, packed into an array('H')
    as it comes."""
    pack = struct.Struct(f"{size}H").pack  # 2.5 times as fast as array("H", row)
    return [array("H", pack(*row))[:] for row in rows]  # [:] drops frombytes' slack


def _build_modular(n):
    """Z/nZ on the residues 0..n-1, -x being n - x.  Every row slices one run, the
    residues in 'H' cells written h + 2 times, h = n // 2, the last n cells then
    set to 0: cell p < (h+1)n is p mod n.  Sum row i is run[i:i + n], as
    i + j < 2n <= (h+1)n, n >= 2.  Product row 0 is the zero block run[-n:], row
    i <= h is run[0:i*n:i], cell j at ij <= (n-1)h < (h+1)n, and row i > h,
    m = n - i, is run[mn:0:-m], read backwards: cell j at m(n - j) = -mj = ij
    (mod n), from mn down to m > 0, mn < (h+1)n as m <= h.  So the run holds
    n(h + 2) cells, not n^2 + 2n: row n - i is row i backwards.  Every row of
    both tables is a view of the run, read-only as the run is every row's."""
    elems, h = list(range(n)), n // 2
    run = array("H", elems) * (h + 2)
    run[-n:] = run[:1] * n  # as many zeros as cells they replace: written in place
    run = memoryview(run).toreadonly()
    add = [run[i:i + n] for i in elems]
    mul = [run[-n:]] + [run[0:i * n:i] if i <= h else run[(n - i) * n:0:i - n]
                        for i in elems[1:]]
    return _proved(Ring, ("modular", n), elems, add, mul, 0, 1 % n, str,
                   neg=elems[:1] + elems[:0:-1])


def _build_poly_quotient(n, modulus):
    """Z_n[x]/(f), f monic of degree d, a ring as the quotient of Z_n[x] by an
    ideal; it is the free Z_n-module on 1, x, .., x^(d-1), and the coefficients
    (a_0, .., a_{d-1}) sit at index sum a_k n^k.  So the additive group is
    (Z_n)^d, the tables of its high and low digits joined like a product's,
    and -a is digitwise, joined likewise.  x*a shifts the low d-1 digits up and
    adds a_{d-1} (x^d - f).  Row a is filled block by block: b = c n^k + b',
    b' < n^k, is c x^k + b', so ab = c(a x^k) + ab', and the block of c is the
    row of c(a x^k) in the sum, read at the cells ab' done.

    A modulus x + c of degree 1 gives Z_n itself: x = -c in the quotient, so each
    class holds one constant, a -> (a,) is a ring isomorphism from Z_n, and (a,)
    sits at index a.  The sum, product and negation tables of the two rings are
    then equal cell for cell, and the ring takes the tables of the cached Z_n
    and holds Z_n in its ``_cache``, so that while the quotient is in use,
    ``modular(n)`` returns the Z_n whose tables it shares, whichever was built
    first."""
    origin = ("poly_quotient", n, modulus)
    d = len(modulus) - 1
    # n^d > MAX_RING_SIZE once d >= 13, as n >= 2: the power is never taken there
    size = n ** min(d, MAX_RING_SIZE.bit_length())
    _check_size(ring_key(origin), size, f"{n}^{d}")
    elems = []
    for i in range(size):
        v, digits = i, []
        for _ in range(d):
            digits.append(v % n)
            v //= n
        elems.append(tuple(digits))
    if d == 1:
        zn = _cached_ring(("modular", n))
        ring = _proved(Ring, origin, elems, zn.add, zn.mul, 0, zn.one_idx, poly_repr,
                       neg=zn.neg)
        ring._cache[(modular,)] = zn
        return ring
    index = {p: i for i, p in enumerate(elems)}
    digit = list(range(n))
    digit_neg = digit[:1] + digit[:0:-1]

    def sums(k):  # the table of (Z_n)^k: its k - k // 2 high digits joined to the rest
        if k == 1:  # Z_n's, slices of the digits written twice, read only by the joins
            twice = digit * 2
            return [twice[i:i + n] for i in digit]
        return _join_tables(sums(k - k // 2), sums(k // 2))
    add, neg = sums(d), digit_neg
    for _ in range(d - 1):
        neg = [a * n + b for a in neg for b in digit_neg]
    top = n ** (d - 1)
    wrap = [index[tuple(-c * m % n for m in modulus[:d])] for c in range(n)]
    times_x = [add[i % top * n][wrap[i // top]] for i in range(size)]

    def rows():  # the product, row by row
        for a in range(size):
            row, multiple = [0] * size, 0
            for c in range(1, n):  # the block of c at k = 0 is c a
                row[c] = multiple = add[multiple][a]
            power, width = times_x[a], n  # power is a x^k, row[:width] done
            for _ in range(1, d):
                get, multiple = itemgetter(*row[:width]), 0
                for c in range(1, n):
                    multiple = add[multiple][power]
                    row[c * width:(c + 1) * width] = get(add[multiple])
                power, width = times_x[power], width * n
            yield row
    mul = _table(size, rows())
    one = index[tuple([1 % n] + [0] * (d - 1))]
    return _proved(Ring, origin, elems, add, mul, 0, one, poly_repr, neg=neg)


def _blocks(right, count):
    """B[b][c] for each row b of the right table and c < count: the cells
    c * sr + e, e running over row b, as the bytes of 2-byte 'H' cells, one
    ``itemgetter(*row_b)`` gather over range(c * sr, (c + 1) * sr) and one pack."""
    sr = len(right)
    assert sr >= 2  # itemgetter of one index returns a bare int; Z1 and zero modules are refused
    pack = struct.Struct(f"{sr}H").pack
    spans = [range(c * sr, (c + 1) * sr) for c in range(count)]
    return [[pack(*get(span)) for span in spans] for get in (itemgetter(*row) for row in right)]


def _join_tables(left, right, cyclic=False):
    """The table of a product of two factor tables, index a * sr + b for (a, b):
    cell c * sr + e of row (a, b) is left[a][c] * sr + right[b][e], so row
    (a, b) is the blocks B[b][c] of ``_blocks``, c running over left row a,
    one bytes join read into an array('H') and copied, which drops the slack.
    ``cyclic`` says that ``left`` is Z_n's sum table, cell c of row a being
    (a + c) mod n: then cell c * sr + e of row (a, b) is
    ((a + c) mod n) * sr + right[b][e], which is cell (a + c) * sr + e of
    run_b, the n blocks B[b][0..n) written twice, as (a + c) < 2n.  So row
    (a, b) is the window [a * sr, a * sr + n * sr) of a memoryview of run_b
    cast to 'H', read-only as bytes are, and the sr runs hold 2 * size * sr
    cells, not size^2.
    """
    sr = len(right)
    size = len(left) * sr
    blocks = _blocks(right, len(left))
    if cyclic:
        runs = [memoryview(b"".join(block) * 2).cast("H") for block in blocks]
        return [run[a * sr:a * sr + size] for a in range(len(left)) for run in runs]
    return [array("H", b"".join(map(block.__getitem__, lrow)))[:]  # [:] drops the slack
            for lrow in left for block in blocks]


def product(left, right):
    """R1 x R2, one ring per pair of factor rings."""
    for factor in (left, right):
        if not isinstance(factor, Ring):  # named by its type: an int may be too long to print
            raise InvalidSpecError(f"product factors must be rings; got "
                                   f"{type(factor).__name__}")
    return _product(left, right)


@memo
def _product(left, right):
    """R1 x R2 on the pairs (a, b), at index a * |R2| + b: its tables are
    ``_join_tables`` of the factors' (the sum, when R1 is Z_n, as windows of one
    run per row of R2's sum), with 0 = (0, 0) and 1 = (1, 1).  Every axiom holds
    in R1 x R2 iff it holds in R1 and in R2, componentwise, and both factors
    are proved rings, so it is a ring; -(a, b) = (-a, -b)."""
    if not (left.is_finite and right.is_finite):
        raise InvalidSpecError("product components must be finite rings")
    origin = ("product", left, right)
    _check_size(ring_key(origin), left.size * right.size)
    sr = right.size
    return _proved(Ring, origin, [(a, b) for a in left.elements for b in right.elements],
                   _join_tables(left.add, right.add, left.origin[0] == "modular"),
                   _join_tables(left.mul, right.mul),
                   left.zero_idx * sr + right.zero_idx, left.one_idx * sr + right.one_idx,
                   _pair_repr(left._repr_fn or str, right._repr_fn or str),
                   neg=[a * sr + b for a in left.neg for b in right.neg])


def _pair_repr(left_fn, right_fn):
    """The printer of pairs (a, b) as ``(a,b)``, each side by its own printer."""
    return lambda p: f"({left_fn(p[0])},{right_fn(p[1])})"


# ---------------------------------------------------------------------------
# the checks of tables a caller passes to Ring(...)
# ---------------------------------------------------------------------------

def _checked_table(table, length, size, what, error=InvalidSpecError):
    """A caller's ``table`` in 2-byte cells, once it is ``length`` rows of
    ``size`` ints (not bools) in 0..size-1; else raise ``error`` at the first bad one."""
    if len(table) != length or any(len(row) != size for row in table):
        raise error(f"{what} is not {length} rows of {size} cells")
    indices = set(range(size))
    for i, row in enumerate(table):
        if not {int}.issuperset(map(type, row)) or not indices.issuperset(row):
            j = next(j for j, c in enumerate(row) if type(c) is not int or c not in indices)
            raise error(f"{what}[{i}][{j}] is {row[j]!r}, not an element index 0..{size - 1}")
    return _table(size, table)


def _check_index(value, size, what, error=InvalidSpecError):
    """Raise ``error`` unless ``value`` is an int (not a bool) in 0..size-1."""
    if type(value) is not int or not 0 <= value < size:
        raise error(f"{what} is {value!r}, not an element index 0..{size - 1}")


def check_ring_axioms(ring):
    """Verify the commutative-ring axioms on a finite ring's tables exactly;
    raise on violation, and return the negation table, whose entry x is the
    index of -x.  It reads the tables alone, never the origin.

    Pairs are checked exhaustively, and (a+c)+b = a+(c+b), c+a = a+c,
    a(c+b) = ac+ab and (ac)b = a(cb) for all a, b but only for c in a greedy
    additive generating set G that starts at 1.  That suffices: for each
    identity in turn, the c that satisfy it for all a, b are closed under
    addition, so all c do.  For + this is Light's associativity test; given
    associativity, the c that commute with every a are closed under + too,
    (c+d)+a = c+(a+d) = (a+c)+d = a+(c+d), and so are the c that distribute,
    a((c+d)+b) = ac+(ad+ab) = a(c+d)+ab; given commutativity and
    distributivity, so are the c that associate.  Cost O(n^2 |G|), O(n^2) when
    1 generates the additive group, as in Z_n.  One ``indexOf(row, 0)`` pass finds
    the inverses and is the negation table.
    """
    n, add, mul, zero, one = ring.size, ring.add, ring.mul, ring.zero_idx, ring.one_idx
    gens = _additive_generators(add, zero, one)
    neg = _negation(add, zero)
    failure = (zero == one and "ring must have 0 != 1"
               or _group_failure(add, zero, gens, neg)
               or list(mul[one]) != list(range(n)) and "1 is not a multiplicative identity"
               or not _commutative(mul) and "multiplication is not commutative"
               or not _additive_on(mul, add, add, gens) and "distributivity fails"
               or not _associative_on(mul, mul, gens) and "multiplication is not associative")
    if failure:
        raise InvalidSpecError(f"{ring.key}: {failure}")
    return neg


def _additive_generators(add, zero, first=None):
    """A greedy G, starting at ``first`` when given, such that every element
    is a sum (..(g1+g2)+..)+gj of generators."""
    gens, reached = [], set()
    rest = [i for i in range(len(add)) if i != zero]
    for c in ([] if first is None else [first]) + rest + [zero]:
        if c not in reached:
            gens.append(c)
            reached, frontier = set(gens), gens
            while frontier:
                frontier = {add[x][g] for x in frontier for g in gens} - reached
                reached |= frontier
    return gens


def _negation(add, zero):
    """The index of -x for each x, or None when some x has no additive inverse."""
    try:
        return [indexOf(row, zero) for row in add]
    except ValueError:
        return None


def _group_failure(add, zero, gens, neg):
    """Why (add, zero) is not an abelian group generated by gens, or a false value.

    ``neg`` is ``_negation(add, zero)``.  Associativity and commutativity are
    checked on the generators only (see check_ring_axioms), commutativity after
    associativity, which its proof uses.
    """
    return (list(add[zero]) != list(range(len(add))) and "0 is not an additive identity"
            or neg is None and "an element has no additive inverse"
            or not _associative_on(add, add, gens) and "addition is not associative"
            or not all(list(add[g]) == list(map(itemgetter(g), add)) for g in gens)
            and "addition is not commutative")


def _commutative(table):
    return all(list(map(itemgetter(i), table[i:])) == list(row[i:]) for i, row in enumerate(table))


def _associative_on(act, mul, gens):
    """(x*g).y = x.(g.y) for all x, y and g in gens, ``.`` being ``act``."""
    getters = [(g, itemgetter(*act[g])) for g in gens]
    return all(tuple(act[row[g]]) == get(act_x)
               for row, act_x in zip(mul, act) for g, get in getters)


def _additive_on(maps, dom_add, cod_add, gens):
    """f(g+x) = f(g)+f(x) for every map f (a list), all x and g in gens; given
    product tables for dom_add and cod_add, f(gx) = f(g)f(x)."""
    getters = [(g, itemgetter(*dom_add[g])) for g in gens]
    return all(get(f) == itemgetter(*f)(cod_add[f[g]]) for f in maps for g, get in getters)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

# nilpotency_index is an int or None
ElementClass = namedtuple("ElementClass", "is_zero is_unit is_nilpotent nilpotency_index "
                                          "is_zero_divisor is_regular is_idempotent")

# maximal_ideal is the unique maximal ideal when quasi-local, else None
RingClass = namedtuple("RingClass", "is_field is_integral_domain is_reduced "
                                    "is_von_neumann_regular is_boolean is_quasi_local "
                                    "maximal_ideal")


def classify_element(ring, a):
    """Flags for one element: unit, nilpotent (with index), zero divisor, ...

    On a finite ring a is a unit iff it lies in ``ideals._unit_mask``, a zero divisor iff a != 0
    lies in Z_(0) = {r : rs = 0 for some s != 0}, and regular iff a is not in
    Z_(0), which holds 0 as 0 != 1."""
    _same_ring(ring, a, Element, "element")
    if not ring.is_finite:
        v = a.idx
        return ElementClass(
            is_zero=v == 0,
            is_unit=v in (1, -1),
            is_nilpotent=v == 0,
            nilpotency_index=1 if v == 0 else None,
            is_zero_divisor=False,
            is_regular=v != 0,
            is_idempotent=v in (0, 1),
        )
    from .ideals import _unit_mask, _z_i_mask  # ideals imports this module
    i = a.idx
    mul, zero, n = ring.mul, ring.zero_idx, ring.size
    is_zero = i == zero
    power, nil_index = i, None
    for k in range(1, n + 1):
        if power == zero:
            nil_index = k
            break
        power = mul[power][i]
    in_z0 = bool(_z_i_mask(ring, 1 << zero) >> i & 1)
    return ElementClass(
        is_zero=is_zero,
        is_unit=bool(_unit_mask(ring) >> i & 1),
        is_nilpotent=nil_index is not None,
        nilpotency_index=nil_index,
        is_zero_divisor=in_z0 and not is_zero,
        is_regular=not in_z0,
        is_idempotent=mul[i][i] == i,
    )


def classify_ring(ring):
    """Ring-level flags, exhaustively decided on finite backends."""
    if not ring.is_finite:
        return RingClass(is_field=False, is_integral_domain=True, is_reduced=True,
                         is_von_neumann_regular=False, is_boolean=False,
                         is_quasi_local=False, maximal_ideal=None)
    return _finite_ring_class(ring)


@memo
def _finite_ring_class(ring):
    """The ring flags, read off the ideal lattice and Z_(0).

    A ring with 0 != 1 is a field iff its only ideals are (0) and R, as every
    nonzero a generates R exactly when it is a unit.  It is a domain iff
    Z_(0) = {r : rs = 0 for some s != 0} is {0}, and von Neumann regular iff
    every a is a^2 x for some x, that is, iff a lies in the row of a^2.
    """
    from . import ideals  # ideals imports this module
    mul, zero = ring.mul, ring.zero_idx
    maximals = ideals.maximal_ideals(ring)
    quasi_local = len(maximals) == 1
    return RingClass(
        is_field=len(ideals._lattice(ring)) == 2,
        is_integral_domain=ideals._z_i_mask(ring, 1 << zero) == 1 << zero,
        is_reduced=ideals.nilradical(ring).size == 1,
        is_von_neumann_regular=all(a in mul[row[a]] for a, row in enumerate(mul)),
        is_boolean=all(row[a] == a for a, row in enumerate(mul)),
        is_quasi_local=quasi_local,
        maximal_ideal=maximals[0] if quasi_local else None,
    )
