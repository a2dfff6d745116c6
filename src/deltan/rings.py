"""Commutative rings with identity: finite table backends plus a symbolic integer ring.

Finite rings carry a stable element enumeration (index 0 .. size-1), dense
addition/multiplication tables over indices, and canonical element payloads
(residues, coefficient tuples, pairs, ...).  The integer ring is symbolic: its
"indices" are the integer values themselves and enumeration is refused.

Every finite constructor runs an exact ring-axiom self check in O(n^2 k) table
lookups, k the size of a greedy additive generating set (see
``check_ring_axioms``).  Table builders refuse, before allocating anything, a
ring or module of more than ``MAX_RING_SIZE`` elements.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter

from .errors import CrossRingError, InfiniteRingError, InvalidSpecError

# the largest table-backed ring or module: Z64 x Z64; its two tables hold 2 * 4096^2 cells
MAX_RING_SIZE = 4096


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


def _check_size(key, size):
    """Refuse a table of more than MAX_RING_SIZE elements before it is allocated."""
    if size > MAX_RING_SIZE:
        raise InvalidSpecError(f"{key} would have {size} elements; "
                               f"table-backed rings and modules are limited to {MAX_RING_SIZE}")


# ---------------------------------------------------------------------------
# ring specifications (construction recipes)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModularSpec:
    n: int

    kind = "modular"

    def key(self):
        return f"Z{self.n}"


@dataclass(frozen=True)
class PolyQuotientSpec:
    base: ModularSpec
    modulus: tuple  # ascending coefficients, monic, degree >= 1

    kind = "poly_quotient"

    def key(self):
        return f"{self.base.key()}[x]/({poly_repr(self.modulus, descending=True)})"


@dataclass(frozen=True)
class ProductSpec:
    left: object
    right: object

    kind = "product"

    def key(self):
        return f"prod({self.left.key()},{self.right.key()})"


@dataclass(frozen=True)
class IntegerSpec:
    kind = "integer"

    def key(self):
        return "ZZ"


@dataclass(frozen=True)
class QuotientSpec:
    """Derived: base ring modulo the ideal given by its sorted element indices."""

    base: object
    ideal_elems: tuple

    kind = "quotient"

    def key(self):
        elems = ",".join(str(i) for i in self.ideal_elems)
        return f"quot({self.base.key()},[{elems}])"


@dataclass(frozen=True)
class IdealizationSpec:
    """Derived: base ring extended by a module along the square-zero product."""

    base: object
    module: object  # a module spec from the constructions module

    kind = "idealization"

    def key(self):
        return f"idz({self.base.key()},{self.module.key()})"


@dataclass(frozen=True)
class LocalizationSpec:
    """Derived: fractions of the base ring over the multiplicative set."""

    base: object
    denominators: tuple  # sorted element indices of S

    kind = "localization"

    def key(self):
        elems = ",".join(str(i) for i in self.denominators)
        return f"loc({self.base.key()},[{elems}])"


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

class Ring:
    """A commutative ring with identity, finite (tables) or the symbolic integers."""

    def __init__(self, spec, *, elements=None, add=None, mul=None, zero=0, one=1,
                 repr_fn=None, origin=None):
        self.spec = spec
        self.key = spec.key()
        self.elements = elements
        self.add = add
        self.mul = mul
        self.zero_idx = zero
        self.one_idx = one
        self.origin = origin
        self._repr_fn = repr_fn
        self._cache = {}
        self.full_mask = None  # the mask of every element, on finite rings
        if elements is not None:
            self.full_mask = (1 << len(elements)) - 1
            self._index = {p: i for i, p in enumerate(elements)}
            check_ring_axioms(self)
            self.neg = [row.index(zero) for row in add]

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

    def __eq__(self, other):
        return isinstance(other, Ring) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

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


class Element:
    """An immutable element of a specific ring, compared by canonical form."""

    __slots__ = ("ring", "idx")

    def __init__(self, ring, idx):
        self.ring = ring
        self.idx = idx

    @property
    def payload(self):
        return self.ring.elements[self.idx] if self.ring.is_finite else self.idx

    def _same_ring(self, other):
        if not isinstance(other, Element) or other.ring.key != self.ring.key:
            raise CrossRingError(
                f"cannot combine elements of {self.ring.key} and "
                f"{getattr(getattr(other, 'ring', None), 'key', type(other).__name__)}")
        return other

    def __add__(self, other):
        other = self._same_ring(other)
        return Element(self.ring, self.ring.add_idx(self.idx, other.idx))

    def __neg__(self):
        return Element(self.ring, self.ring.neg_idx(self.idx))

    def __sub__(self, other):
        return self + (-self._same_ring(other))

    def __mul__(self, other):
        other = self._same_ring(other)
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
        return (isinstance(other, Element) and other.ring.key == self.ring.key
                and other.idx == self.idx)

    def __hash__(self):
        return hash((self.ring.key, self.idx))

    def __repr__(self):
        return self.ring.element_repr(self.idx)


def arithmetic(ring, op, a, b=None):
    """Apply ``add``/``mul``/``neg`` to elements of ``ring`` (contract form)."""
    if a.ring.key != ring.key or (b is not None and b.ring.key != ring.key):
        raise CrossRingError("operands must belong to the given ring")
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

_RING_CACHE = {}


def register_ring(ring):
    """Make a derived ring discoverable by construct_ring on its own spec."""
    _RING_CACHE.setdefault(ring.key, ring)


def construct_ring(spec):
    """Build (or fetch from cache) the ring described by ``spec``."""
    key = spec.key()
    hit = _RING_CACHE.get(key)
    if hit is not None:
        return hit
    if isinstance(spec, ModularSpec):
        ring = _build_modular(spec)
    elif isinstance(spec, PolyQuotientSpec):
        ring = _build_poly_quotient(spec)
    elif isinstance(spec, ProductSpec):
        ring = _build_product(spec)
    elif isinstance(spec, IntegerSpec):
        ring = Ring(spec)
    elif isinstance(spec, (QuotientSpec, IdealizationSpec, LocalizationSpec)):
        from . import constructions
        ring = constructions.build_derived_ring(spec)
    else:
        raise InvalidSpecError(f"unknown ring spec {spec!r}")
    _RING_CACHE[key] = ring
    return ring


def modular(n):
    if not isinstance(n, int) or n < 2:
        raise InvalidSpecError("modular ring needs an integer modulus n >= 2")
    return construct_ring(ModularSpec(n))


def poly_quotient(base, modulus):
    """Quotient of Z_n[x] by a monic modulus, given as an ascending coefficient list."""
    if isinstance(base, Ring):
        base = base.spec
    if isinstance(base, int):
        base = ModularSpec(base)
    if not isinstance(base, ModularSpec):
        raise InvalidSpecError("poly_quotient requires a modular base ring")
    if base.n < 2:
        raise InvalidSpecError("modular ring needs an integer modulus n >= 2")
    return construct_ring(PolyQuotientSpec(base, _poly_normalize(base.n, list(modulus))))


def product(left, right):
    if isinstance(left, Ring):
        left = left.spec
    if isinstance(right, Ring):
        right = right.spec
    return construct_ring(ProductSpec(left, right))


def integers():
    return construct_ring(IntegerSpec())


def _build_modular(spec):
    n = spec.n
    if n < 2:
        raise InvalidSpecError("modular ring needs an integer modulus n >= 2")
    _check_size(spec.key(), n)
    elems = list(range(n))
    add = [elems[i:] + elems[:i] for i in elems]
    mul = [[elems[i * j % n] for j in elems] for i in elems]
    return Ring(spec, elements=elems, add=add, mul=mul, zero=0, one=1 % n, repr_fn=str)


def _build_poly_quotient(spec):
    n = spec.base.n
    if n < 2:
        raise InvalidSpecError("modular ring needs an integer modulus n >= 2")
    modulus = spec.modulus
    d = len(modulus) - 1
    size = n ** d
    _check_size(spec.key(), size)
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
    return Ring(spec, elements=elems, add=add, mul=mul, zero=0, one=one,
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


def _build_product(spec):
    left = construct_ring(spec.left)
    right = construct_ring(spec.right)
    if not (left.is_finite and right.is_finite):
        raise InvalidSpecError("product components must be finite rings")
    sr = right.size
    _check_size(spec.key(), left.size * sr)
    elems = [(a, b) for a in left.elements for b in right.elements]
    add = _join_tables(left.add, right.add)
    mul = _join_tables(left.mul, right.mul)
    zero = left.zero_idx * sr + right.zero_idx
    one = left.one_idx * sr + right.one_idx

    def pair_repr(p):
        return f"({left._repr_fn(p[0]) if left._repr_fn else p[0]}," \
               f"{right._repr_fn(p[1]) if right._repr_fn else p[1]})"

    return Ring(spec, elements=elems, add=add, mul=mul, zero=zero, one=one,
                repr_fn=pair_repr, origin=("product", left, right))


# ---------------------------------------------------------------------------
# axiom self-check
# ---------------------------------------------------------------------------

def check_ring_axioms(ring):
    """Verify the commutative-ring axioms on a finite ring exactly; raise on violation.

    Pairs are checked exhaustively; (a+c)+b = a+(c+b), a(c+b) = ac+ab and
    (ac)b = a(cb) for all a, b but only for c in a greedy additive generating
    set G, in O(n^2 |G|).  That suffices: for each identity in turn, the c that
    satisfy it for all a, b are closed under addition (Light's associativity
    test; the others use associativity, then distributivity), so all c do.
    """
    n, add, mul, zero, one = ring.size, ring.add, ring.mul, ring.zero_idx, ring.one_idx
    gens = _additive_generators(add, zero)
    failure = (zero == one and "ring must have 0 != 1"
               or _group_failure(add, zero, gens)
               or mul[one] != list(range(n)) and "1 is not a multiplicative identity"
               or not _commutative(mul) and "multiplication is not commutative"
               or not _additive_on(mul, add, add, gens) and "distributivity fails"
               or not _associative_on(mul, mul, gens) and "multiplication is not associative")
    if failure:
        raise InvalidSpecError(f"{ring.key}: {failure}")


def _additive_generators(add, zero):
    """A greedy G such that every element is a sum (..(g1+g2)+..)+gj of generators."""
    gens, reached = [], set()
    for c in [i for i in range(len(add)) if i != zero] + [zero]:
        if c not in reached:
            gens.append(c)
            reached, frontier = set(gens), gens
            while frontier:
                frontier = {add[x][g] for x in frontier for g in gens} - reached
                reached |= frontier
    return gens


def _group_failure(add, zero, gens):
    """Why (add, zero) is not an abelian group generated by gens, or a false value."""
    return (add[zero] != list(range(len(add))) and "0 is not an additive identity"
            or not all(zero in row for row in add) and "an element has no additive inverse"
            or not _commutative(add) and "addition is not commutative"
            or not _associative_on(add, add, gens) and "addition is not associative")


def _commutative(table):
    return all(list(map(itemgetter(i), table[i:])) == row[i:] for i, row in enumerate(table))


def _associative_on(act, mul, gens):
    """(x*g).y = x.(g.y) for all x, y and g in gens, ``.`` being ``act``."""
    getters = [(g, itemgetter(*act[g])) for g in gens]
    return all(tuple(act[row[g]]) == get(act_x)
               for row, act_x in zip(mul, act) for g, get in getters)


def _additive_on(maps, dom_add, cod_add, gens):
    """f(g+x) = f(g)+f(x) for every map f (a list), all x and g in gens."""
    getters = [(g, itemgetter(*dom_add[g])) for g in gens]
    return all(get(f) == itemgetter(*f)(cod_add[f[g]]) for f in maps for g, get in getters)


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
    """Flags for one element: unit, nilpotent (with index), zero divisor, ..."""
    if a.ring.key != ring.key:
        raise CrossRingError("element does not belong to the given ring")
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
    i = a.idx
    mul, zero, one, n = ring.mul, ring.zero_idx, ring.one_idx, ring.size
    row = mul[i]
    is_zero = i == zero
    is_unit = any(row[j] == one for j in range(n))
    power, nil_index = i, None
    for k in range(1, n + 1):
        if power == zero:
            nil_index = k if i != zero else 1
            break
        power = mul[power][i]
    is_nilpotent = nil_index is not None or is_zero
    if is_zero:
        nil_index = 1
    is_zero_divisor = (not is_zero) and any(
        row[j] == zero for j in range(n) if j != zero)
    is_regular = not any(row[j] == zero for j in range(n) if j != zero) and not is_zero
    return ElementClass(
        is_zero=is_zero,
        is_unit=is_unit,
        is_nilpotent=is_nilpotent,
        nilpotency_index=nil_index if is_nilpotent else None,
        is_zero_divisor=is_zero_divisor,
        is_regular=is_regular,
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
    n, mul, zero, one = ring.size, ring.mul, ring.zero_idx, ring.one_idx
    nonzero = [i for i in range(n) if i != zero]
    is_field = all(any(mul[a][x] == one for x in range(n)) for a in nonzero)
    is_domain = all(mul[a][b] != zero for a in nonzero for b in nonzero)
    is_vnr = all(any(mul[mul[a][a]][x] == a for x in range(n)) for a in range(n))
    is_boolean = all(mul[a][a] == a for a in range(n))

    from . import ideals
    nil = ideals.nilradical(ring)
    is_reduced = nil.size == 1
    maximals = ideals.maximal_ideals(ring)
    quasi_local = len(maximals) == 1
    return RingClass(
        is_field=is_field,
        is_integral_domain=is_domain,
        is_reduced=is_reduced,
        is_von_neumann_regular=is_vnr,
        is_boolean=is_boolean,
        is_quasi_local=quasi_local,
        maximal_ideal=maximals[0] if quasi_local else None,
    )
