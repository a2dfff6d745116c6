"""Commutative rings with identity: finite table backends plus a symbolic integer ring.

Finite rings carry a stable element enumeration (index 0 .. size-1), dense
addition/multiplication tables over indices, and canonical element payloads
(residues, coefficient tuples, pairs, ...).  The integer ring is symbolic: its
"indices" are the integer values themselves and enumeration is refused.

Z_n's tables are filled at slice speed: row i of the sum is one slice of the
residues written twice, row i of the product (i <= n/2) a few strided slices
of the residues written _STRIDE_REPS times, and row n-i the reverse of row i.

Every finite constructor runs an exact ring-axiom self check,
``check_ring_axioms``, which proves the axioms from the ring's structure and
returns the negation table: a product through its two factors, with no pass
over its own tables, and negation read off theirs; a ring whose additive group
is generated by 1 (every Z_n) in O(n^2) table lookups, with no pass for the
commutativity or associativity of multiplication, and on Z_n's own tables two
of its identities evaluated as row rotations and -x read as n - x; any other
ring in O(n^2 k), k the size of a greedy additive generating set.  Table
builders refuse, before allocating anything, a ring or module of more than
``MAX_RING_SIZE`` elements.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import chain, count
from operator import itemgetter

from .errors import CrossRingError, InfiniteRingError, InvalidSpecError

# the largest table-backed ring or module: Z64 x Z64; its two tables hold 2 * 4096^2 cells
MAX_RING_SIZE = 4096

_MAX_DIGITS = 4300  # the longest int CPython converts to or from a string by default

# copies of the residues 0..n-1 that one strided slice of Z_n's product table
# runs over: row i takes about i / _STRIDE_REPS slices
_STRIDE_REPS = 32


def memo(fn):
    """Memoise ``fn(owner, *args)`` in ``owner._cache`` under the key ``(fn, *args)``.

    Entries live on the owner object (a ring, module, expansion, ...), so two
    owners never share them, even when their keys are equal.
    """
    @functools.wraps(fn)
    def cached(owner, *args):
        key = (fn,) + args
        try:
            return owner._cache[key]
        except KeyError:
            pass
        value = owner._cache[key] = fn(owner, *args)
        return value

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

def poly_repr(coeffs, var="x", descending=False):
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
            terms.append(var if c == 1 else f"{c}{var}")
        else:
            terms.append(f"{var}^{i}" if c == 1 else f"{c}{var}^{i}")
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

def _index_text(indices):
    """Element indices, comma-separated."""
    return ",".join(map(str, indices))


def ring_key(origin):
    """The name of the ring that the recipe ``origin`` builds: ``Z6``,
    ``Z4[x]/(x^2)``, ``ZZ``, ``prod(Z2,Z4)``, ``quot(Z12,[0,4,8])``,
    ``idz(Z8,quot[0,4])`` or ``loc(Z12,[1,3,9])``, a derived ring named by its
    base and the element indices of its ideal, module or multiplicative set."""
    kind = origin[0]
    if kind == "modular":
        return f"Z{origin[1]}"
    if kind == "poly_quotient":
        return f"Z{origin[1]}[x]/({poly_repr(origin[2], descending=True)})"
    if kind == "integer":
        return "ZZ"
    _, base, operand = origin
    if kind == "product":
        return f"prod({base.key},{operand.key})"
    if kind == "quotient":
        return f"quot({base.key},[{_index_text(e.idx for e in operand.elements())}])"
    if kind == "idealization":
        return f"idz({base.key},{operand.name})"
    return f"loc({base.key},[{_index_text(operand.indices)}])"


class Ring:
    """A commutative ring with identity, finite (tables) or the symbolic integers.

    ``origin`` is the recipe the ring was built by: ``("modular", n)``,
    ``("poly_quotient", n, modulus)``, ``("integer",)``, or a derived ring's
    ``("product", R1, R2)``, ``("quotient", R, J)``, ``("idealization", R, M)``
    or ``("localization", R, S)``.  One object per recipe, cached by
    ``_cached_ring`` or memoised by its construction on its operands, so rings
    compare by identity; ``key`` is the ring's name."""

    def __init__(self, origin, *, elements=None, add=None, mul=None, zero=0, one=1,
                 repr_fn=None):
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
            self.neg = check_ring_axioms(self)

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
        """Element from its index (finite) or integer value (ZZ)."""
        if self.is_finite and not (0 <= idx < len(self.elements)):
            raise InvalidSpecError(f"element index {idx} out of range for {self.key}")
        return Element(self, idx)

    def from_payload(self, payload):
        if not self.is_finite:
            return Element(self, int(payload))
        try:
            return Element(self, self._index[payload])
        except (KeyError, TypeError):
            raise InvalidSpecError(f"{payload!r} is not a canonical element of {self.key}")

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


def _same_ring(ring, other, what):
    """Refuse the operand ``what``, which lives in ``other`` (None: in no ring),
    unless ``other`` is ``ring``: rings and modules are told apart by identity."""
    if other is not ring:
        where = "no ring" if other is None else other.key
        raise CrossRingError(f"{what} lives in another ring ({where}) than {ring.key}")


class Element:
    """An immutable element of a specific ring, compared by ring and index."""

    __slots__ = ("ring", "idx")

    def __init__(self, ring, idx):
        self.ring = ring
        self.idx = idx

    @property
    def payload(self):
        return self.ring.elements[self.idx] if self.ring.is_finite else self.idx

    def _operand(self, other):
        _same_ring(self.ring, other.ring if isinstance(other, Element) else None, "operand")
        return other

    def __add__(self, other):
        other = self._operand(other)
        return Element(self.ring, self.ring.add_idx(self.idx, other.idx))

    def __neg__(self):
        return Element(self.ring, self.ring.neg_idx(self.idx))

    def __sub__(self, other):
        return self + (-self._operand(other))

    def __mul__(self, other):
        other = self._operand(other)
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


def arithmetic(ring, op, a, b=None):
    """Apply ``add``/``mul``/``neg`` to elements of ``ring`` (contract form)."""
    _same_ring(ring, a.ring, "operand")  # the operators check b against a
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

# the rings of the base recipes, Z_n, Z_n[x]/(f) and ZZ, by recipe; a derived
# ring is memoised by its construction on its operands
_RING_CACHE = {}


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
    modulus = _poly_normalize(base, list(modulus))
    _check_modulus(base, len(modulus) - 1)
    return _cached_ring(("poly_quotient", base, modulus))


def integers():
    return _cached_ring(("integer",))


def _build_modular(n):
    elems = list(range(n))
    twice = elems + elems
    add = [twice[i:i + n] for i in elems]
    # row i of the product, i*j mod n, is read off the residues repeated
    # _STRIDE_REPS times by strided slices, each one starting at the residue
    # where the last ran out, into a row allocated at its final length; row
    # n-i is -row i, row i reversed and rotated right by one, as (n-i)j = i(n-j)
    residues = elems * _STRIDE_REPS
    mul = [elems[:1] * n]
    for i in range(1, n // 2 + 1):
        row, j = elems[:1] * n, 0
        while j < n:
            start = j * i % n
            cells = residues[start:start + (n - j) * i:i]
            row[j:j + len(cells)] = cells
            j += len(cells)
        mul.append(row)
    for i in range(n // 2 + 1, n):
        row = mul[n - i][::-1]
        row.insert(0, row.pop())
        mul.append(row)
    return Ring(("modular", n), elements=elems, add=add, mul=mul, zero=0, one=1 % n,
                repr_fn=str)


def _build_poly_quotient(n, modulus):
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
    index = {p: i for i, p in enumerate(elems)}
    # index i has digits (a_0, .., a_{d-1}) base n, so the additive group is
    # that of (Z_n)^d, with the low digit as the right factor; and x*a shifts
    # the low d-1 digits up and adds a_{d-1} * (x^d - modulus)
    digit = list(range(n))
    digit_add = [digit[i:] + digit[:i] for i in digit]
    add = digit_add
    for _ in range(d - 1):
        add = _join_tables(add, digit_add)
    top = n ** (d - 1)
    wrap = [index[tuple(-c * m % n for m in modulus[:d])] for c in range(n)]
    times_x = [add[i % top * n][wrap[i // top]] for i in range(size)]
    mul = []
    for a in range(size):
        # Horner in b: a*b = a*b_0 + x*(a*b'), b' = (b - b_0)/x sitting at index b // n
        row = [0] * size
        for b in range(1, n):
            row[b] = add[row[b - 1]][a]
        for b in range(n, size):
            row[b] = add[row[b % n]][times_x[row[b // n]]]
        mul.append(row)
    one = index[tuple([1 % n] + [0] * (d - 1))]
    return Ring(origin, elements=elems, add=add, mul=mul, zero=0, one=one,
                repr_fn=poly_repr)


def _join_tables(left, right):
    """The table of a product of two factor tables, index a * sr + b for (a, b).

    Row (a, b) is the chain, over the cells c of left row a, of the block
    [c * sr + e for e in right row b].  The n blocks are built once, and their
    cells are taken from one list of ints, so no cell holds an int of its own.
    """
    sr = len(right)
    idx = list(range(len(left) * sr))
    segments = [idx[c:c + sr] for c in range(0, len(idx), sr)]
    blocks = [[list(map(seg.__getitem__, rrow)) for seg in segments] for rrow in right]
    return [list(chain.from_iterable(map(block.__getitem__, lrow)))
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
    if not (left.is_finite and right.is_finite):
        raise InvalidSpecError("product components must be finite rings")
    origin = ("product", left, right)
    sr = right.size
    _check_size(ring_key(origin), left.size * sr)
    elems = [(a, b) for a in left.elements for b in right.elements]
    add = _join_tables(left.add, right.add)
    mul = _join_tables(left.mul, right.mul)
    zero = left.zero_idx * sr + right.zero_idx
    one = left.one_idx * sr + right.one_idx
    return Ring(origin, elements=elems, add=add, mul=mul, zero=zero, one=one,
                repr_fn=_pair_repr(left._repr_fn or str, right._repr_fn or str))


def _pair_repr(left_fn, right_fn):
    """The printer of pairs (a, b) as ``(a,b)``, each side by its own printer."""
    return lambda p: f"({left_fn(p[0])},{right_fn(p[1])})"


# ---------------------------------------------------------------------------
# axiom self-check
# ---------------------------------------------------------------------------

def check_ring_axioms(ring):
    """Verify the commutative-ring axioms on a finite ring exactly; raise on
    violation, and return the negation table, whose entry x is the index of -x.

    The check proves the axioms from the ring's structure, by one of three routes.

    Products through their factors.  A ring whose origin is ("product", R1, R2)
    was built by ``_product``: its tables are ``_join_tables`` of the
    factors' tables, 0 = (0, 0) and 1 = (1, 1).  Every axiom holds in R1 x R2
    iff it holds in R1 and in R2, componentwise, so the check runs on the two
    factors and on no table of the product (cost: the factors' checks).  So is
    negation, -(a, b) = (-a, -b), read off the factors' negation tables.  The
    route trusts the recipe: tables given under any other recipe get the full
    check.

    Any other ring: pairs are checked exhaustively, and (a+c)+b = a+(c+b),
    c+a = a+c, a(c+b) = ac+ab and (ac)b = a(cb) for all a, b but only for c in
    a greedy additive generating set G that starts at 1.  That suffices: for
    each identity in turn, the c that satisfy it for all a, b are closed under
    addition, so all c do.  For + this is Light's associativity test; given
    associativity, the c that commute with every a are closed under + too,
    (c+d)+a = c+(a+d) = (a+c)+d = a+(c+d), and so are the c that distribute,
    a((c+d)+b) = ac+(ad+ab) = a(c+d)+ab; given commutativity and
    distributivity, so are the c that associate.  Cost O(n^2 |G|).  One
    ``row.index(0)`` pass finds the inverses and is the negation table.

    Rings whose additive group is generated by 1 (G = [1], every Z_n).  After
    the additive group and the identity row, check the identity column and
    a(1+x) = a + ax for all a, x, and nothing more.  Every b is k_b * 1, so by
    induction ab = k_b * a = (k_a k_b) * 1, which is symmetric in a, b, and
    (ab)c = (k_a k_b k_c) * 1 = a(bc): multiplication is commutative and
    associative without a pass of its own.  Cost O(n^2).

    When moreover 0 is index 0 and the row of 1 is the index successor
    x -> x+1 mod n (a cyclic table: every ring ``_build_modular`` builds), the
    sides x+(1+y) of (x+1)+y = x+(1+y) and a(1+x) of a(1+x) = a + ax, as y and
    x run, are rows x and a composed with that successor, and are evaluated as
    the rotations ``row[1:] + row[:1]``.  Composing with the row of 1 is what
    the other rings do, and it reads the same cells and yields the same list
    when that row is the successor, so the two evaluations agree.  On a table
    that passes, induction from 0 + y = y and (x+1)+y = x+(y+1) makes x+y
    the index sum mod n, so -x is n - x: that is the negation table once
    x + (n - x) = 0 has been read for every x (a table where it fails takes
    the ``row.index`` pass, so it is refused with the same message).
    """
    if ring.origin[0] == "product":
        left, right = ring.origin[1:]
        sr = right.size
        right_neg = check_ring_axioms(right)
        return [a * sr + b for a in check_ring_axioms(left) for b in right_neg]
    n, add, mul, zero, one = ring.size, ring.add, ring.mul, ring.zero_idx, ring.one_idx
    gens = _additive_generators(add, zero, one)
    cyclic = _is_cyclic(add, zero, gens)
    neg = _negation(add, zero, cyclic)
    identity = list(range(n))
    failure = (zero == one and "ring must have 0 != 1"
               or _group_failure(add, zero, gens, neg, cyclic)
               or mul[one] != identity and "1 is not a multiplicative identity")
    if not failure and gens == [one]:
        failure = (list(map(itemgetter(one), mul)) != identity
                   and "1 is not a multiplicative identity"
                   or not (_rotation_additive(mul, add) if cyclic
                           else _additive_on(mul, add, add, gens))
                   and "distributivity fails")
    elif not failure:
        failure = (not _commutative(mul) and "multiplication is not commutative"
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


def _is_cyclic(add, zero, gens):
    """Whether 0 is index 0, G = [1] and 1 + x is x + 1 mod n on indices."""
    return zero == 0 and gens == [1] and add[1] == list(range(1, len(add))) + [0]


def _negation(add, zero, cyclic=False):
    """The index of -x for each x, or None when some x has no additive inverse."""
    if cyclic:
        neg = [0] + list(range(len(add) - 1, 0, -1))
        if all(row[x] == zero for row, x in zip(add, neg)):
            return neg
    try:
        return [row.index(zero) for row in add]
    except ValueError:
        return None


def _group_failure(add, zero, gens, neg, cyclic=False):
    """Why (add, zero) is not an abelian group generated by gens, or a false value.

    ``neg`` is ``_negation(add, zero, cyclic)``.  Associativity and
    commutativity are checked on the generators only (see check_ring_axioms),
    commutativity after associativity, which its proof uses.
    """
    return (add[zero] != list(range(len(add))) and "0 is not an additive identity"
            or neg is None and "an element has no additive inverse"
            or not (_rotation_associative(add) if cyclic else _associative_on(add, add, gens))
            and "addition is not associative"
            or not all(add[g] == list(map(itemgetter(g), add)) for g in gens)
            and "addition is not commutative")


def _commutative(table):
    return all(list(map(itemgetter(i), table[i:])) == row[i:] for i, row in enumerate(table))


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


def _rotation_associative(add):
    """(x+1)+y = x+(1+y) for all x, y on a cyclic table, x+(1+y) being row x
    rotated left by one (see check_ring_axioms)."""
    return all(add[row[1]] == row[1:] + row[:1] for row in add)


def _rotation_additive(maps, add):
    """f(1+x) = f(1)+f(x) for every map f and all x on a cyclic table, f(1+x)
    being f rotated left by one (see check_ring_axioms)."""
    return all(tuple(f[1:] + f[:1]) == itemgetter(*f)(add[f[1]]) for f in maps)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ElementClass:
    is_zero: bool
    is_unit: bool
    is_nilpotent: bool
    nilpotency_index: object  # int or None
    is_zero_divisor: bool
    is_regular: bool
    is_idempotent: bool


@dataclass(frozen=True)
class RingClass:
    is_field: bool
    is_integral_domain: bool
    is_reduced: bool
    is_von_neumann_regular: bool
    is_boolean: bool
    is_quasi_local: bool
    maximal_ideal: object  # the unique maximal ideal when quasi-local, else None


def classify_element(ring, a):
    """Flags for one element: unit, nilpotent (with index), zero divisor, ...

    On a finite ring a is a unit iff 1 is in its row, a zero divisor iff a != 0
    lies in Z_(0) = {r : rs = 0 for some s != 0}, and regular iff a is not in
    Z_(0), which holds 0 as 0 != 1."""
    _same_ring(ring, a.ring, "element")
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
    from .ideals import _z_i_mask  # ideals imports this module
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
        is_unit=ring.one_idx in mul[i],
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
        is_field=len(ideals.enumerate_ideals(ring)) == 2,
        is_integral_domain=ideals._z_i_mask(ring, 1 << zero) == 1 << zero,
        is_reduced=ideals.nilradical(ring).size == 1,
        is_von_neumann_regular=all(a in mul[row[a]] for a, row in enumerate(mul)),
        is_boolean=all(row[a] == a for a, row in enumerate(mul)),
        is_quasi_local=quasi_local,
        maximal_ideal=maximals[0] if quasi_local else None,
    )
