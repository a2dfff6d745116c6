"""Derived rings and their canonical maps: quotients, products, idealizations, localizations.

Also houses finite unitary modules (for idealizations), multiplicative sets,
and validated ring homomorphisms with ideal image/preimage transport.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from .errors import (ConstructionError, CrossRingError, HomomorphismError,
                     InfiniteRingError, InvalidSpecError)
from .ideals import (Ideal, _bits, _mask_of, _meet_mask, _mk_ideal, _preimage_mask,
                     _sum_closure, enumerate_ideals, integer_ideal)
from .rings import (Element, IdealizationSpec, LocalizationSpec, QuotientSpec, Ring,
                    _additive_generators, _additive_on, _associative_on, _check_size,
                    _group_failure, _join_tables, _negation, _pair_repr, construct_ring, memo,
                    modular, register_ring)


# ---------------------------------------------------------------------------
# modules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegularModuleSpec:
    def key(self):
        return "regular"


@dataclass(frozen=True)
class QuotientModuleSpec:
    ideal_elems: tuple

    def key(self):
        return "quot[" + ",".join(str(i) for i in self.ideal_elems) + "]"


@dataclass(frozen=True)
class ProductModuleSpec:
    left: object
    right: object

    def key(self):
        return f"prod({self.left.key()},{self.right.key()})"


class Module:
    """A finite unitary module over a finite ring, with a validated action table."""

    def __init__(self, ring, spec, elements, add, action, zero, repr_fn):
        self.ring = ring
        self.spec = spec
        self.key = f"{ring.key}(+){spec.key()}"
        self.elements = elements
        self.add = add
        self.action = action  # action[r_idx][m_idx] -> m_idx
        self.zero_idx = zero
        self._repr_fn = repr_fn
        self._cache = {}
        self.base_to_module = None  # base-ring index -> module index, when meaningful
        _check_module_axioms(self)

    @property
    def size(self):
        return len(self.elements)

    def element_repr(self, idx):
        return self._repr_fn(self.elements[idx]) if self._repr_fn else str(self.elements[idx])

    def __eq__(self, other):
        return isinstance(other, Module) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"Module({self.key})"


def _check_module_axioms(module):
    """The module axioms, exactly, checking r(m+g), (r+h)m and (rh)m only on the
    additive generators g of the module and h of the ring (see check_ring_axioms)."""
    ring, add, act, size = module.ring, module.add, module.action, module.size
    zero = module.zero_idx
    gens, rgens = (_additive_generators(t.add, t.zero_idx) for t in (module, ring))
    columns = (list(map(itemgetter(m), act)) for m in range(size))
    failure = (_group_failure(add, zero, gens, _negation(add, zero))
               or act[ring.one_idx] != list(range(size)) and "action is not unital"
               or not _additive_on(act, add, add, gens) and "action not additive in m"
               or not _additive_on(columns, ring.add, add, rgens) and "action not additive in r"
               or not _associative_on(act, ring.mul, rgens) and "action not associative")
    if failure:
        raise ConstructionError(f"{module.key}: {failure}")


def make_module(ring, spec):
    """Build the regular module, a quotient module R/I, or a product of modules."""
    if not ring.is_finite:
        raise InfiniteRingError("modules are supported over finite rings only")
    return _build_module(ring, _normalize_module_spec(ring, spec))


@memo
def _build_module(ring, spec):
    """R and R/I are modules through a canonical surjection of rings q: R -> T,
    the identity onto R or the projection onto R/I (R/ker q, built by
    ``_coset_ring`` like S^-1 R): the module is T's additive group with
    r.m = q(r)m, so its tables are T's own rows, r acting by T's row of q(r)."""
    if isinstance(spec, RegularModuleSpec):
        target, q = ring, list(range(ring.size))
    elif isinstance(spec, QuotientModuleSpec):
        mask = _mask_of(ring.size, spec.ideal_elems)
        if mask == ring.full_mask:
            raise ConstructionError("quotient by the whole ring gives the zero module")
        proj = quotient_ring(ring, _mk_ideal(ring, mask)).projection
        target, q = proj.target, proj.mapping
    elif isinstance(spec, ProductModuleSpec):
        m1 = _build_module(ring, spec.left)
        m2 = _build_module(ring, spec.right)
        s2 = m2.size
        size = m1.size * s2
        _check_size(f"{ring.key}(+){spec.key()}", size)
        elems = [(a, b) for a in m1.elements for b in m2.elements]
        action = [[m1.action[r][i // s2] * s2 + m2.action[r][i % s2]
                   for i in range(size)] for r in range(ring.size)]
        return Module(ring, spec, elems, _join_tables(m1.add, m2.add), action,
                      m1.zero_idx * s2 + m2.zero_idx,
                      _pair_repr(m1._repr_fn or str, m2._repr_fn or str))
    else:
        raise InvalidSpecError(f"unknown module spec {spec!r}")
    module = Module(ring, spec, target.elements, target.add, [target.mul[c] for c in q],
                    target.zero_idx, target._repr_fn)
    module.base_to_module = q
    return module


def _normalize_module_spec(ring, spec):
    if spec == "regular" or isinstance(spec, RegularModuleSpec):
        return RegularModuleSpec()
    if isinstance(spec, (QuotientModuleSpec, ProductModuleSpec)):
        return spec
    if isinstance(spec, tuple) and spec and spec[0] == "quotient":
        ideal = spec[1]
        if isinstance(ideal, Ideal):
            if ideal.ring.key != ring.key:
                raise CrossRingError("quotient-module ideal lives in a different ring")
            return QuotientModuleSpec(tuple(_bits(ideal.mask)))
        return QuotientModuleSpec(tuple(sorted(ideal)))
    if isinstance(spec, tuple) and spec and spec[0] == "product":
        return ProductModuleSpec(_normalize_module_spec(ring, spec[1]),
                                 _normalize_module_spec(ring, spec[2]))
    raise InvalidSpecError(f"unknown module spec {spec!r}")


def _coset_quotient(ring, mask):
    """(reps, q) for the cosets of the additive subgroup ``mask``: reps holds the
    least index of each coset, ascending, and q[i] the position in reps of the
    coset of i, so q is the quotient map on indices."""
    add, bits = ring.add, _bits(mask)
    reps, q = [], [None] * ring.size
    for i in range(ring.size):
        if q[i] is None:  # every smaller index of this coset would have set it
            for c in map(add[i].__getitem__, bits):
                q[c] = len(reps)
            reps.append(i)
    return reps, q


class Submodule:
    """A submodule given by its canonical element mask."""

    __slots__ = ("module", "mask")

    def __init__(self, module, mask):
        self.module = module
        self.mask = mask

    @property
    def size(self):
        return self.mask.bit_count()

    def contains_idx(self, idx):
        return bool(self.mask >> idx & 1)

    def __eq__(self, other):
        return (isinstance(other, Submodule) and other.module.key == self.module.key
                and other.mask == self.mask)

    def __hash__(self):
        return hash((self.module.key, self.mask))

    def __repr__(self):
        elems = ", ".join(self.module.element_repr(i) for i in _bits(self.mask))
        return f"<{elems}>"


@memo
def enumerate_submodules(module):
    """All submodules: closure of the cyclic submodules under pairwise sum."""
    act = module.action
    cyclic = sorted({_mask_of(module.size, set(map(itemgetter(m), act)))
                     for m in range(module.size)})
    seeds = [1 << module.zero_idx, *cyclic]
    return tuple(Submodule(module, m) for m in _sum_closure(module, seeds, cyclic))


# ---------------------------------------------------------------------------
# homomorphisms
# ---------------------------------------------------------------------------

class Homomorphism:
    """A validated unital ring homomorphism with ideal transport helpers."""

    def __init__(self, source, target, mapping=None, int_fn=None, kernel=None,
                 check=True):
        self.source = source
        self.target = target
        self.mapping = mapping
        self.int_fn = int_fn
        self._kernel = kernel
        self._cache = {}
        if mapping is not None and check:
            self._validate()

    def _validate(self):
        """Totality, 1 -> 1 and 0 -> 0, then f(g+x) = f(g)+f(x) and f(gx) = f(g)f(x)
        for all x but only for g in an additive generating set G of the source.

        That suffices, by the argument of check_ring_axioms: the c with
        f(c+x) = f(c)+f(x) for all x are closed under +, as f((c+d)+x) =
        f(c)+(f(d)+f(x)) = f(c+d)+f(x); and, f being additive, so are the c with
        f(cx) = f(c)f(x) for all x, as f((c+d)x) = f(cx)+f(dx) = f(c+d)f(x).
        A map that breaks both identities is reported as breaking addition.
        """
        src, tgt, f = self.source, self.target, self.mapping
        if len(f) != src.size:
            raise HomomorphismError("map must be total on the source elements")
        if f[src.one_idx] != tgt.one_idx:
            raise HomomorphismError("map does not send 1 to 1")
        if f[src.zero_idx] != tgt.zero_idx:
            raise HomomorphismError("map does not send 0 to 0")
        gens = _additive_generators(src.add, src.zero_idx, src.one_idx)
        if not _additive_on([f], src.add, tgt.add, gens):
            raise HomomorphismError("map does not preserve addition")
        if not _additive_on([f], src.mul, tgt.mul, gens):
            raise HomomorphismError("map does not preserve multiplication")

    def apply(self, a):
        if a.ring.key != self.source.key:
            raise CrossRingError("element does not belong to the source ring")
        if self.mapping is not None:
            return Element(self.target, self.mapping[a.idx])
        return Element(self.target, self.int_fn(a.idx))

    __call__ = apply

    @property
    def kernel(self):
        if self._kernel is None:
            self._kernel = _mk_ideal(self.source, self.preimage_mask(1 << self.target.zero_idx))
        return self._kernel

    def is_surjective(self):
        if self.mapping is None:
            return True  # only the mod-n reductions are built in closed form
        return len(set(self.mapping)) == self.target.size

    def is_injective(self):
        if self.mapping is None:
            return False
        return len(set(self.mapping)) == self.source.size

    @memo
    def image_mask(self, src_mask):
        return _mask_of(self.target.size, map(self.mapping.__getitem__, _bits(src_mask)))

    @memo
    def preimage_mask(self, tgt_mask):
        return _preimage_mask(tgt_mask, self.mapping)

    def __repr__(self):
        return f"Homomorphism({self.source.key} -> {self.target.key})"


@memo
def product_projections(ring):
    """The projections p1: R1 x R2 -> R1 and p2: R1 x R2 -> R2 of a product ring."""
    _, left, right = ring.origin
    idx, sr = range(ring.size), right.size
    return (Homomorphism(ring, left, mapping=[i // sr for i in idx], check=False),
            Homomorphism(ring, right, mapping=[i % sr for i in idx], check=False))


def make_homomorphism(source, target, mapping):
    """Validate and wrap a total element map as a homomorphism.

    ``mapping`` may be a callable on elements, a dict keyed by source
    elements, or a list of target elements/indices in enumeration order.
    """
    if not source.is_finite:
        raise InfiniteRingError("explicit maps need a finite source; use quotient_ring "
                                "for the mod-n reductions")
    table = []
    for a in source.list_elements():
        if callable(mapping):
            v = mapping(a)
        elif isinstance(mapping, dict):
            v = mapping[a]
        else:
            v = mapping[a.idx]
        table.append(v.idx if isinstance(v, Element) else int(v))
    return Homomorphism(source, target, mapping=table)


def image_ideal(f, I):
    """f(I) as an ideal of the target; requires f surjective."""
    if I.ring.key != f.source.key:
        raise CrossRingError("ideal does not live in the source ring")
    if not f.is_surjective():
        raise HomomorphismError("image_ideal requires a surjective homomorphism")
    return _mk_ideal(f.target, f.image_mask(I.mask))


def preimage_ideal(f, K):
    """f^{-1}(K) as an ideal of the source (always an ideal)."""
    if K.ring.key != f.target.key:
        raise CrossRingError("ideal does not live in the target ring")
    if f.mapping is not None:
        return _mk_ideal(f.source, f.preimage_mask(K.mask))
    if not f.target.is_finite:
        return K  # identity reduction ZZ -> ZZ
    # mod-n reduction: the preimage of the subgroup dZ_n is dZ
    payloads = sorted(f.target.elements[i] for i in _bits(K.mask))
    d = payloads[1] if len(payloads) > 1 else f.kernel.n
    return integer_ideal(f.source, d)


@memo
def is_delta_gamma_homomorphism(f, delta, gamma):
    """delta(f^{-1}(J)) = f^{-1}(gamma(J)) for every ideal J of the target.

    A table-backed map compares the masks; the mod-n reductions compare ideals.
    """
    if delta.ring.key != f.source.key or gamma.ring.key != f.target.key:
        raise CrossRingError("expansions must live on the map's source and target")
    if f.mapping is not None:
        pre, dt, gt = f.preimage_mask, delta.table, gamma.table
        return all(dt[pre(J.mask)] == pre(gt[J.mask]) for J in enumerate_ideals(f.target))
    from .expansions import apply_expansion
    for J in enumerate_ideals(f.target):
        pre = preimage_ideal(f, J)
        lhs = apply_expansion(delta, pre)
        rhs = preimage_ideal(f, apply_expansion(gamma, J))
        if lhs != rhs:
            return False
    return True


# ---------------------------------------------------------------------------
# quotient rings
# ---------------------------------------------------------------------------

@dataclass
class QuotientRecord:
    ring: Ring
    projection: Homomorphism


def quotient_ring(ring, J):
    """R/J with the canonical projection; coset reps are least in base order."""
    if J.ring.key != ring.key:
        raise CrossRingError("ideal lives in a different ring")
    if not J.is_proper:
        raise ConstructionError("cannot quotient by the whole ring")
    if not ring.is_finite:
        n = J.n
        if n == 0:
            ident = Homomorphism(ring, ring, int_fn=lambda v: v,
                                 kernel=integer_ideal(ring, 0))
            return QuotientRecord(ring=ring, projection=ident)
        target = modular(n)
        proj = Homomorphism(ring, target, int_fn=lambda v, n=n: v % n,
                            kernel=integer_ideal(ring, n))
        return QuotientRecord(ring=target, projection=proj)
    return _finite_quotient(ring, J)


@memo
def _finite_quotient(ring, J):
    reps, q = _coset_quotient(ring, J.mask)
    qring, proj = _coset_ring(ring, QuotientSpec(ring.spec, tuple(_bits(J.mask))), reps, q,
                              [ring.elements[r] for r in reps], ring._repr_fn or str,
                              ("quotient", ring, J))
    return QuotientRecord(ring=qring, projection=proj)


def _coset_ring(ring, spec, reps, q, elems, repr_fn, origin):
    """The ring on the classes of a congruence of ``ring``, and its canonical map.

    q[x] is the class of the base index x, and reps[c] one base index in class
    c.  q respects + and *, so the class of a+b (of ab) is q[a+b] (q[ab]) for
    any a, b in the two classes, and the tables are filled over reps alone.
    The congruence is mod J for R/J, and mod the saturation kernel for S^-1 R,
    which is R/ker on a finite ring (see ``localize``).
    """
    add, mul = ring.add, ring.mul
    qring = Ring(spec, elements=elems, add=[[q[add[a][b]] for b in reps] for a in reps],
                 mul=[[q[mul[a][b]] for b in reps] for a in reps],
                 zero=q[ring.zero_idx], one=q[ring.one_idx], repr_fn=repr_fn, origin=origin)
    register_ring(qring)
    return qring, Homomorphism(ring, qring, mapping=q, check=False)


# ---------------------------------------------------------------------------
# idealization R(+)M
# ---------------------------------------------------------------------------

class IdealizationRecord:
    def __init__(self, ring, base, module):
        self.ring = ring
        self.base = base
        self.module = module
        # pi: R(+)M -> R, (r, m) -> r; the pair (r, m) has index r * |M| + m
        self.projection = Homomorphism(
            ring, base, mapping=[i // module.size for i in range(ring.size)], check=False)

    def im_inside(self, imask, nmask):
        """Whether IM lies inside N, which makes I(+)N an ideal of R(+)M."""
        act = self.module.action
        return all(nmask >> x & 1 for a in _bits(imask) for x in act[a])

    def homogeneous_ideal(self, I, N):
        """The ideal I(+)N of R(+)M; valid exactly when I*M lies inside N."""
        if I.ring.key != self.base.key:
            raise CrossRingError("ideal lives in a different ring")
        if N.module.key != self.module.key:
            raise CrossRingError("submodule belongs to a different module")
        if not self.im_inside(I.mask, N.mask):
            raise ConstructionError("I(+)N is an ideal of R(+)M only when IM lies inside N")
        return _mk_ideal(self.ring, self.homogeneous_mask(I.mask, N.mask))

    def homogeneous_mask(self, imask, nmask):
        """The mask of I(+)N: the block of each a in I holds N's mask."""
        msize = self.module.size
        mask = 0
        for a in _bits(imask):
            mask |= nmask << (a * msize)
        return mask

    def split(self, W):
        """(is_homogeneous, I, N) for an ideal W of R(+)M: I = pi(W), N the block
        of W at 0 ({m : (0, m) in W}), and W homogeneous iff W = I(+)N."""
        if W.ring.key != self.ring.key:
            raise CrossRingError("ideal lives in a different idealization")
        msize = self.module.size
        imask = self.projection.image_mask(W.mask)
        nmask = W.mask >> (self.base.zero_idx * msize) & ((1 << msize) - 1)
        homogeneous = self.homogeneous_mask(imask, nmask) == W.mask
        return (homogeneous, _mk_ideal(self.base, imask), Submodule(self.module, nmask))

    def non_homogeneous_ideals(self):
        """Lattice ideals that are not of the I(+)N shape (flagged in reports)."""
        out = []
        for W in enumerate_ideals(self.ring):
            homog, _, _ = self.split(W)
            if not homog:
                out.append(W)
        return tuple(out)


@memo
def idealization(ring, module):
    """The ring on pairs (r, m) with (r1,m1)(r2,m2) = (r1 r2, r1 m2 + r2 m1)."""
    if not ring.is_finite:
        raise InfiniteRingError("idealization is supported over finite rings only")
    if module.ring.key != ring.key:
        raise CrossRingError("module is defined over a different ring")
    msize = module.size
    size = ring.size * msize
    spec = IdealizationSpec(ring.spec, module.spec)
    _check_size(spec.key(), size)
    elems = [(ring.elements[r], module.elements[m])
             for r in range(ring.size) for m in range(msize)]
    rmul, madd, act = ring.mul, module.add, module.action
    # the additive group of R(+)M is R x M
    mul = [[rmul[i // msize][j // msize] * msize
            + madd[act[i // msize][j % msize]][act[j // msize][i % msize]]
            for j in range(size)] for i in range(size)]
    izr = Ring(spec, elements=elems, add=_join_tables(ring.add, madd), mul=mul,
               zero=ring.zero_idx * msize + module.zero_idx,
               one=ring.one_idx * msize + module.zero_idx,
               repr_fn=_pair_repr(ring._repr_fn or str, module._repr_fn or str),
               origin=("idealization", ring, module))
    register_ring(izr)
    return IdealizationRecord(izr, ring, module)


# ---------------------------------------------------------------------------
# localization S^{-1} R
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MultiplicativeSet:
    ring: Ring
    indices: tuple

    def __post_init__(self):
        ring = self.ring
        if not ring.is_finite:
            raise InfiniteRingError("multiplicative sets are finite-ring data here")
        idx = set(self.indices)
        if ring.one_idx not in idx:
            raise ConstructionError("a multiplicative set must contain 1")
        for a in idx:
            for b in idx:
                if ring.mul[a][b] not in idx:
                    raise ConstructionError(
                        f"set is not multiplicatively closed: "
                        f"{ring.element_repr(a)}*{ring.element_repr(b)} escapes")
        object.__setattr__(self, "indices", tuple(sorted(idx)))

    def elements(self):
        return [Element(self.ring, i) for i in self.indices]

    def __repr__(self):
        elems = ", ".join(self.ring.element_repr(i) for i in self.indices)
        return "{" + elems + "}"


def mult_set(ring, elems):
    idx = [e.idx if isinstance(e, Element) else ring.from_payload(e).idx for e in elems]
    return MultiplicativeSet(ring, tuple(sorted(set(idx) | {ring.one_idx})))


def mult_closure(ring, elems):
    """Smallest multiplicative set containing 1 and the given elements."""
    idx = {ring.one_idx}
    idx.update(e.idx if isinstance(e, Element) else ring.from_payload(e).idx
               for e in elems)
    while True:
        fresh = {ring.mul[a][b] for a in idx for b in idx} - idx
        if not fresh:
            break
        idx |= fresh
    return MultiplicativeSet(ring, tuple(sorted(idx)))


@dataclass
class LocalizationRecord:
    ring: Ring
    base: Ring
    sset: MultiplicativeSet
    canonical: Homomorphism
    kernel: Ideal
    class_of: dict  # (numerator idx, denominator idx) -> class idx

    def extend_mask(self, base_mask):
        """S^-1 I = {i/s} = {(it)/1 : i in I}, t an inverse of s mod ker, as a
        mask of the localization: the canonical image of I."""
        return self.canonical.image_mask(base_mask)

    def contract_mask(self, loc_mask):
        return self.canonical.preimage_mask(loc_mask)

    def extend(self, I):
        if I.ring.key != self.base.key:
            raise CrossRingError("ideal lives in a different ring")
        return _mk_ideal(self.ring, self.extend_mask(I.mask))

    def contract(self, K):
        if K.ring.key != self.ring.key:
            raise CrossRingError("ideal lives in a different localization")
        return _mk_ideal(self.base, self.contract_mask(K.mask))


@memo
def localize(ring, sset):
    """S^{-1}R as R/ker, ker the saturation kernel {a : ua = 0 for some u in S}.

    (r,s) ~ (r',s') iff u(rs' - r's) = 0 for some u in S, that is, iff
    rs' - r's lies in ker.  Each s in S is a unit mod ker: sa in ker gives
    (us)a = 0 with us in S, so s is a non-zero-divisor of the finite ring R/ker.
    With st = 1 mod ker, (r,s) ~ (r',s') iff rt = r't' mod ker, so the class
    of (r,s) is the coset of rt, and r/s -> rt + ker is a ring isomorphism
    S^-1 R -> R/ker that turns r -> r/1 into the projection.  The tables are
    those of R/ker, filled by ``_coset_ring`` like a quotient's.  Classes are
    numbered by first appearance in (r, s) order, and the first pair of each
    class is its representative.
    """
    if not ring.is_finite:
        raise InfiniteRingError("localization is supported over finite rings only")
    if sset.ring.key != ring.key:
        raise CrossRingError("multiplicative set belongs to a different ring")
    n, mul, zero = ring.size, ring.mul, ring.zero_idx
    s_list = list(sset.indices)
    if zero in s_list:
        raise ConstructionError("0 in S collapses the localization to the zero ring")
    ker = _meet_mask(ring, 1 << zero, s_list)
    _, coset = _coset_quotient(ring, ker)
    one = coset[ring.one_idx]
    inverse = [next(t for t in range(n) if coset[mul[s][t]] == one) for s in s_list]
    class_of, number, reps, pairs = {}, {}, [], []
    for r in range(n):
        for s, t in zip(s_list, inverse):
            x = mul[r][t]
            c = class_of[(r, s)] = number.setdefault(coset[x], len(reps))
            if c == len(reps):  # the first pair of a new class
                reps.append(x)
                pairs.append((r, s))
    lring, canonical = _coset_ring(
        ring, LocalizationSpec(ring.spec, sset.indices), reps, [number[c] for c in coset],
        [(ring.elements[r], ring.elements[s]) for r, s in pairs],
        lambda p, rrepr=ring._repr_fn or str: f"{rrepr(p[0])}/{rrepr(p[1])}",
        ("localization", ring, sset))
    return LocalizationRecord(lring, ring, sset, canonical, _mk_ideal(ring, ker), class_of)


# ---------------------------------------------------------------------------
# derived-ring dispatch for construct_ring
# ---------------------------------------------------------------------------

def build_derived_ring(spec):
    base = construct_ring(spec.base)
    if isinstance(spec, QuotientSpec):
        return quotient_ring(base, _mk_ideal(base, _mask_of(base.size, spec.ideal_elems))).ring
    if isinstance(spec, IdealizationSpec):
        return idealization(base, make_module(base, spec.module)).ring
    if isinstance(spec, LocalizationSpec):
        return localize(base, MultiplicativeSet(base, spec.denominators)).ring
    raise InvalidSpecError(f"unknown derived spec {spec!r}")
