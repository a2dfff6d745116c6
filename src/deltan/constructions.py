"""Derived rings and their canonical maps: quotients, products, idealizations, localizations.

Also houses finite unitary modules (for idealizations), multiplicative sets,
and validated ring homomorphisms with ideal image/preimage transport.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable
from operator import getitem, itemgetter

from .errors import ConstructionError, HomomorphismError, InfiniteRingError, InvalidSpecError
from .ideals import (Ideal, _bits, _colon_union, _generated_mask, _lattice, _mask_of, _mk_ideal,
                     _preimage_mask, _sum_closure, enumerate_ideals, ideal_from_generators,
                     integer_ideal)
from .rings import (Element, Ring, _additive_generators, _additive_on, _associative_on,
                    _bracketed, _check_index, _check_size, _checked_table, _gens_text,
                    _group_failure, _join_tables, _negation, _own_element, _pair_repr, _proved,
                    _same_ring, _table, memo, modular, ring_key)


# ---------------------------------------------------------------------------
# modules
# ---------------------------------------------------------------------------

class Module:
    """A finite unitary module over a finite ring, with a validated action table;
    one object per (ring, recipe), built by the memoised ``_build_module``.

    ``recipe`` is ``("regular",)``, ``("quotient", I)`` for R/I or
    ``("product", recipe1, recipe2)``, and ``name`` and ``key`` its text,
    ``_module_name``, e.g. ``Z8/(4)``.
    Tables passed here are checked; ``_build_module`` proves its own by recipe."""

    def __init__(self, ring, recipe, elements, add, action, zero, repr_fn):
        self._fill(ring, recipe, elements, add, action, zero, repr_fn)
        size, what = len(elements), f"{self.key}: "
        self.add = _checked_table(add, size, size, what + "add", ConstructionError)
        self.action = _checked_table(action, ring.size, size, what + "action", ConstructionError)
        _check_index(zero, size, what + "zero", ConstructionError)
        _check_module_axioms(self)

    def _fill(self, ring, recipe, elements, add, action, zero, repr_fn):
        self.ring = ring
        self.recipe = recipe
        self.name = self.key = _module_name(ring, recipe)
        self.elements = elements
        self.add = add
        self.action = action  # action[r_idx][m_idx] -> m_idx
        self.zero_idx = zero
        self._repr_fn = repr_fn
        self._cache = {}
        self.base_to_module = None  # base-ring index -> module index, when meaningful

    @property
    def size(self):
        return len(self.elements)

    def element_repr(self, idx):
        return self._repr_fn(self.elements[idx]) if self._repr_fn else str(self.elements[idx])

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
               or list(act[ring.one_idx]) != list(range(size)) and "action is not unital"
               or not _additive_on(act, add, add, gens) and "action not additive in m"
               or not _additive_on(columns, ring.add, add, rgens) and "action not additive in r"
               or not _associative_on(act, ring.mul, rgens) and "action not associative")
    if failure:
        raise ConstructionError(f"{module.key}: {failure}")


def _module_name(ring, recipe):
    """The DSL text of a module recipe over ``ring``: ``Z8`` for the regular
    module and ``Z8/(4)`` for a quotient module, the ring spelled as an operand.
    A product module has no DSL spelling: ``(M1 + M2)`` names it, a text that
    the parser refuses, so that no name of a ring over it binds another ring."""
    if recipe[0] == "product":
        return f"({_module_name(ring, recipe[1])} + {_module_name(ring, recipe[2])})"
    atom = _bracketed(ring.origin[0], ring.key)
    return atom if recipe[0] == "regular" else f"{atom}/({_gens_text(recipe[1])})"


def make_module(ring, spec):
    """Build the regular module (``"regular"``), a quotient module R/I
    (``("quotient", I)``, I an ideal or its element indices), or a product of
    modules (``("product", spec1, spec2)``)."""
    if not ring.is_finite:
        raise InfiniteRingError("modules are supported over finite rings only")
    return _build_module(ring, _module_recipe(ring, spec))


@memo
def _build_module(ring, recipe):
    """R and R/I are modules through a canonical surjection of rings q: R -> T,
    the identity onto R or the projection onto R/I (built by ``_coset_ring``,
    as S^-1 R = R/ker is): the module is T's additive group with
    r.m = q(r)m, so its tables are T's own rows, r acting by T's row of q(r).
    T is a proved ring and q a homomorphism, so the module axioms hold:
    r(m+k) = q(r)m + q(r)k, (r+s)m = (q(r)+q(s))m, (rs)m = q(r)(q(s)m) and
    1m = m.  M1 x M2 acts componentwise on the join of the two additive
    tables, and each axiom holds in it iff it holds in M1 and in M2."""
    if recipe[0] == "product":
        m1 = _build_module(ring, recipe[1])
        m2 = _build_module(ring, recipe[2])
        s2 = m2.size
        size = m1.size * s2
        _check_size(_module_name(ring, recipe), size)
        elems = [(a, b) for a in m1.elements for b in m2.elements]
        action = _table(size, ([a * s2 + b for a in m1.action[r] for b in m2.action[r]]
                               for r in range(ring.size)))
        return _proved(Module, ring, recipe, elems, _join_tables(m1.add, m2.add), action,
                       m1.zero_idx * s2 + m2.zero_idx,
                       _pair_repr(m1._repr_fn or str, m2._repr_fn or str))
    if recipe[0] == "regular":
        target, q = ring, list(range(ring.size))
    else:
        if not recipe[1].is_proper:
            raise ConstructionError("quotient by the whole ring gives the zero module")
        proj = quotient_ring(ring, recipe[1]).projection
        target, q = proj.target, proj.mapping
    module = _proved(Module, ring, recipe, target.elements, target.add,
                     [target.mul[c] for c in q], target.zero_idx, target._repr_fn)
    module.base_to_module = q
    return module


def _module_recipe(ring, spec):
    """The normalised recipe of a module spec, with its ideals as ideal objects."""
    if spec == "regular":
        return ("regular",)
    if isinstance(spec, tuple) and spec and spec[0] == "quotient":
        ideal = spec[1]
        if not isinstance(ideal, Iterable):  # an Ideal, or no indices: that lives in no ring
            _same_ring(ring, ideal if isinstance(ideal, Ideal) else None, "quotient-module ideal")
            return ("quotient", ideal)
        # checked before it is interned, so a non-ideal leaves no Ideal behind
        if not all(type(i) is int and 0 <= i < ring.size for i in ideal):  # no bool
            raise InvalidSpecError(f"quotient-module indices {list(ideal)} "
                                   f"are not elements of {ring.key}")
        mask = _mask_of(ring.size, ideal)
        if _generated_mask(ring, _bits(mask)) != mask:
            raise InvalidSpecError(f"quotient-module indices {sorted(ideal)} "
                                   f"are not an ideal of {ring.key}")
        return ("quotient", _mk_ideal(ring, mask))
    if isinstance(spec, tuple) and spec and spec[0] == "product":
        return ("product", _module_recipe(ring, spec[1]), _module_recipe(ring, spec[2]))
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
    """A submodule given by its element mask: the one object for that mask,
    built only by the memoised ``_submodule``, so submodules compare by identity."""

    __slots__ = ("module", "mask")

    def __init__(self, module, mask):
        self.module = module
        self.mask = mask

    @property
    def size(self):
        return self.mask.bit_count()

    def contains_idx(self, idx):
        return bool(self.mask >> idx & 1)

    def __repr__(self):
        elems = ", ".join(self.module.element_repr(i) for i in _bits(self.mask))
        return f"<{elems}>"


@memo
def _submodule(module, mask):
    return Submodule(module, mask)


@memo
def enumerate_submodules(module):
    """All submodules: closure of the cyclic submodules under pairwise sum."""
    act = module.action
    cyclic = sorted({_mask_of(module.size, set(map(itemgetter(m), act)))
                     for m in range(module.size)})
    seeds = [1 << module.zero_idx, *cyclic]
    return tuple(_submodule(module, m) for m in _sum_closure(module, seeds, cyclic))


# ---------------------------------------------------------------------------
# homomorphisms
# ---------------------------------------------------------------------------

class Homomorphism:
    """A unital ring homomorphism with ideal transport helpers.

    A mapping passed here is checked; the canonical maps deltan builds by
    recipe (projections, identities, embeddings) go through ``_proved``."""

    def __init__(self, source, target, mapping=None, int_fn=None, kernel=None):
        self._fill(source, target, mapping, int_fn, kernel)
        if mapping is not None:
            self._validate()

    def _fill(self, source, target, mapping, int_fn=None, kernel=None):
        self.source = source
        self.target = target
        self.mapping = mapping
        self.int_fn = int_fn
        self._kernel = kernel
        self._cache = {}

    def _validate(self):
        """Totality, each image an element index of the target, 1 -> 1 and 0 -> 0,
        then f(g+x) = f(g)+f(x) and f(gx) = f(g)f(x) for all x but only for g in
        an additive generating set G of the source.

        That suffices, by the argument of check_ring_axioms: the c with
        f(c+x) = f(c)+f(x) for all x are closed under +, as f((c+d)+x) =
        f(c)+(f(d)+f(x)) = f(c+d)+f(x); and, f being additive, so are the c with
        f(cx) = f(c)f(x) for all x, as f((c+d)x) = f(cx)+f(dx) = f(c+d)f(x).
        A map that breaks both identities is reported as breaking addition.
        """
        src, tgt, f = self.source, self.target, self.mapping
        if not isinstance(f, (list, tuple)) or len(f) != src.size:
            raise HomomorphismError("map must be total on the source elements")
        for v in f:
            _check_index(v, tgt.size, "an image of the map", HomomorphismError)
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
        _same_ring(self.source, a, "element")
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
    """The projections p1: R1 x R2 -> R1 and p2: R1 x R2 -> R2 of a product ring,
    homomorphisms as the tables of R1 x R2 are componentwise (``rings._product``):
    (a, b) sits at index a * |R2| + b."""
    _, left, right = ring.origin
    idx, sr = range(ring.size), right.size
    return (_proved(Homomorphism, ring, left, [i // sr for i in idx]),
            _proved(Homomorphism, ring, right, [i % sr for i in idx]))


def make_homomorphism(source, target, mapping):
    """Validate and wrap a total element map as a homomorphism: ``mapping`` is a
    callable on elements, a dict keyed by source elements, or a list of target
    elements or indices in enumeration order."""
    if not source.is_finite:
        raise InfiniteRingError("explicit maps need a finite source; use quotient_ring "
                                "for the mod-n reductions")
    elements = source.list_elements()
    if callable(mapping):
        mapping = [mapping(a) for a in elements]
    elif isinstance(mapping, dict) and all(a in mapping for a in elements):
        mapping = [mapping[a] for a in elements]
    if not isinstance(mapping, (list, tuple)):  # Homomorphism checks the length
        raise HomomorphismError("map must be total on the source elements")
    for v in mapping:
        if isinstance(v, Element):
            _same_ring(target, v, "an image of the map")
    table = [v.idx if isinstance(v, Element) else v for v in mapping]
    return Homomorphism(source, target, mapping=table)


def image_ideal(f, I):
    """f(I) as an ideal of the target, f surjective; on ZZ, the ideal f(n) generates."""
    _same_ring(f.source, I, "ideal")
    if not f.is_surjective():
        raise HomomorphismError("image_ideal requires a surjective homomorphism")
    if f.mapping is None:
        return ideal_from_generators(f.target, [f(f.source.el(I.n))])
    return _mk_ideal(f.target, f.image_mask(I.mask))


def preimage_ideal(f, K):
    """f^{-1}(K) as an ideal of the source (always an ideal)."""
    _same_ring(f.target, K, "ideal")
    if f.mapping is not None:
        return _mk_ideal(f.source, f.preimage_mask(K.mask))
    if not f.target.is_finite:
        return K  # identity reduction ZZ -> ZZ
    # mod-n reduction: the preimage of the subgroup dZ_n is dZ
    payloads = sorted(f.target.elements[i] for i in _bits(K.mask))
    d = payloads[1] if len(payloads) > 1 else f.kernel.n
    return integer_ideal(f.source, d)


def is_delta_gamma_homomorphism(f, delta, gamma):
    """delta(f^{-1}(J)) = f^{-1}(gamma(J)) for every ideal J of the target.

    A table-backed map compares the masks, its verdicts one memo table keyed
    by the pair (delta, gamma); a mod-n reduction compares generators n of ZZ.
    """
    _same_ring(f.source, delta, "source expansion")
    _same_ring(f.target, gamma, "target expansion")
    if f.mapping is not None:
        return _mask_verdict(f, (delta, gamma))
    return all(delta.int_fn(preimage_ideal(f, _mk_ideal(f.target, k)).n)
               == preimage_ideal(f, _mk_ideal(f.target, gamma.table[k])).n
               for k in _lattice(f.target))


@memo
def _mask_verdict(f, pair):
    (delta, gamma), pre = pair, Homomorphism.preimage_mask.table(f)
    return all(delta.table[pre[k]] == pre[gamma.table[k]] for k in _lattice(f.target))


# ---------------------------------------------------------------------------
# quotient rings
# ---------------------------------------------------------------------------

QuotientRecord = namedtuple("QuotientRecord", "ring projection")


def quotient_ring(ring, J):
    """R/J with the canonical projection; coset reps are least in base order."""
    _same_ring(ring, J, "ideal")
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
    """R/J, proved by ``_coset_ring``: every ``Ideal`` has an ideal mask, made by
    the ideal operators or checked before it is interned (``_module_recipe``)."""
    qring, proj = _coset_ring(ring, ("quotient", ring, J), J.mask)
    return QuotientRecord(ring=qring, projection=proj)


def _coset_ring(ring, origin, mask):
    """R/J for the ideal mask of J, and its canonical map q.

    The classes are the cosets of J, numbered by ``_coset_quotient`` by their
    least base index, and each is the base element at that index, printed as
    the base prints it.  J is an ideal, so R/J is a ring and q a homomorphism
    onto it (for S^-1 R, which is R/ker, see ``localize``): the class of a+b
    (ab, -a) is q[a+b] (q[ab], q[-a]) for any a, b in the two classes.  The
    tables, filled over reps alone, are proved, and R's own when J = 0.
    """
    reps, q = _coset_quotient(ring, mask)
    elems, add, mul = ring.elements, ring.add, ring.mul
    if len(reps) < ring.size:
        elems = [elems[r] for r in reps]
        get = itemgetter(*reps)  # row c is q(row reps[c] at reps), gathered in C
        add, mul = (_table(len(reps), (itemgetter(*get(row))(q)
                                       for row in map(table.__getitem__, reps)))
                    for table in (add, mul))
    qring = _proved(Ring, origin, elems, add, mul, q[ring.zero_idx], q[ring.one_idx],
                    ring._repr_fn, neg=[q[ring.neg[r]] for r in reps])
    return qring, _proved(Homomorphism, ring, qring, q)


# ---------------------------------------------------------------------------
# idealization R(+)M
# ---------------------------------------------------------------------------

class IdealizationRecord:
    def __init__(self, ring, base, module):
        self.ring = ring
        self.base = base
        self.module = module
        # pi: R(+)M -> R, (r, m) -> r, a homomorphism as R(+)M adds componentwise
        # and (r1, m1)(r2, m2) has first slot r1 r2; (r, m) has index r * |M| + m
        self.projection = _proved(Homomorphism, ring, base,
                                  [i // module.size for i in range(ring.size)])

    def im_inside(self, imask, nmask):
        """Whether IM lies inside N, which makes I(+)N an ideal of R(+)M."""
        act = self.module.action
        return all(nmask >> x & 1 for a in _bits(imask) for x in act[a])

    def homogeneous_ideal(self, I, N):
        """The ideal I(+)N of R(+)M; valid exactly when I*M lies inside N."""
        _same_ring(self.base, I, "ideal")
        _same_ring(self.module, N, "submodule", "module")
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
        _same_ring(self.ring, W, "ideal")
        msize = self.module.size
        imask = self.projection.image_mask(W.mask)
        nmask = W.mask >> (self.base.zero_idx * msize) & ((1 << msize) - 1)
        homogeneous = self.homogeneous_mask(imask, nmask) == W.mask
        return (homogeneous, _mk_ideal(self.base, imask), _submodule(self.module, nmask))

    def non_homogeneous_ideals(self):
        """Lattice ideals that are not of the I(+)N shape, which no claim ranges
        over: the idealization claims build the homogeneous ideals from (I, N)."""
        return tuple(W for W in enumerate_ideals(self.ring) if not self.split(W)[0])


@memo
def idealization(ring, module):
    """R(+)M, the ring on pairs (r, m) with (r1,m1)(r2,m2) = (r1 r2, r1 m2 + r2 m1):
    Nagata's idealization, a commutative ring with 1 = (1, 0) for every module
    M over a ring R.  The pair (r, m) sits at index r * |M| + m, the additive
    tables of R and M are joined like a product's, and -(r, m) = (-r, -m), -m
    being (-1)m, M's row of -1 in the action.  The product is gathered in the
    sum, as (r1,m1)(r2,m2) = (r1 r2, r1 m2) + (0, r2 m1): at (r2, m2), left[r1]
    holds the index of the first term and right[m1] the row of the second."""
    if not ring.is_finite:
        raise InfiniteRingError("idealization is supported over finite rings only")
    _same_ring(ring, module, "module")
    msize = module.size
    size = ring.size * msize
    origin = ("idealization", ring, module)
    _check_size(ring_key(origin), size)
    elems = [(ring.elements[r], module.elements[m])
             for r in range(ring.size) for m in range(msize)]
    rmul, act, rsize = ring.mul, module.action, ring.size
    # the additive group of R(+)M is R x M, whose sum is views of runs when R is Z_n
    add = _join_tables(ring.add, module.add, ring.origin[0] == "modular")
    left = [[a * msize + x for a in rmul[r] for x in act[r]] for r in range(rsize)]
    right = [[add[ring.zero_idx * msize + act[r2][m]] for r2 in range(rsize)
              for _ in range(msize)] for m in range(msize)]
    mul = _table(size, (map(getitem, right[m], left[r])
                        for r in range(rsize) for m in range(msize)))
    izr = _proved(Ring, origin, elems, add, mul,
                  ring.zero_idx * msize + module.zero_idx,
                  ring.one_idx * msize + module.zero_idx,
                  _pair_repr(ring._repr_fn or str, module._repr_fn or str),
                  neg=[a * msize + m for a in ring.neg for m in act[ring.neg[ring.one_idx]]])
    return IdealizationRecord(izr, ring, module)


# ---------------------------------------------------------------------------
# localization S^{-1} R
# ---------------------------------------------------------------------------

class MultiplicativeSet(namedtuple("MultiplicativeSet", "ring indices")):
    """A multiplicatively closed set of element indices holding 1, checked when
    made and stored sorted without repeats."""
    __slots__ = ()

    def __new__(cls, ring, indices):
        if not ring.is_finite:
            raise InfiniteRingError("multiplicative sets are finite-ring data here")
        if not all(type(i) is int and 0 <= i < ring.size for i in indices):  # no bool
            raise InvalidSpecError(f"multiplicative-set indices {list(indices)} "
                                   f"are not elements of {ring.key}")
        idx = set(indices)
        if ring.one_idx not in idx:
            raise ConstructionError("a multiplicative set must contain 1")
        for a in idx:
            for b in idx:
                if ring.mul[a][b] not in idx:
                    raise ConstructionError(
                        f"set is not multiplicatively closed: "
                        f"{ring.element_repr(a)}*{ring.element_repr(b)} escapes")
        return super().__new__(cls, ring, tuple(sorted(idx)))

    def elements(self):
        return [Element(self.ring, i) for i in self.indices]

    def __repr__(self):
        elems = ", ".join(self.ring.element_repr(i) for i in self.indices)
        return "{" + elems + "}"


def _set_indices(ring, elems):
    """The indices of ``elems``, elements of the finite ``ring`` or payloads; ZZ is
    refused before any table is read."""
    if not ring.is_finite:
        raise InfiniteRingError("multiplicative sets are finite-ring data here")
    return {_own_element(ring, e, "element").idx for e in elems}


def mult_set(ring, elems):
    return MultiplicativeSet(ring, tuple(sorted(_set_indices(ring, elems) | {ring.one_idx})))


def mult_closure(ring, elems):
    """Smallest multiplicative set containing 1 and the given elements."""
    idx = _set_indices(ring, elems) | {ring.one_idx}
    while True:
        fresh = {ring.mul[a][b] for a in idx for b in idx} - idx
        if not fresh:
            break
        idx |= fresh
    return MultiplicativeSet(ring, tuple(sorted(idx)))


class LocalizationRecord(namedtuple("LocalizationRecord", "ring base sset canonical kernel")):
    """S^-1 R (``ring``) over R (``base``) with its canonical map and its kernel."""
    __slots__ = ()

    def extend(self, I):
        """S^-1 I = {i/s} = {(it)/1 : i in I}, t an inverse of s mod ker: the
        canonical image of I."""
        _same_ring(self.base, I, "ideal")
        return _mk_ideal(self.ring, self.canonical.image_mask(I.mask))

    def contract(self, K):
        _same_ring(self.ring, K, "ideal")
        return _mk_ideal(self.base, self.canonical.preimage_mask(K.mask))


@memo
def localize(ring, sset):
    """S^{-1}R as R/ker, ker the saturation kernel {a : ua = 0 for some u in S}, the
    union of the annihilators (0 : u) over u in S.

    (r,s) ~ (r',s') iff u(rs' - r's) = 0 for some u in S, that is, iff
    rs' - r's lies in ker.  Each s in S is a unit mod ker: sa in ker gives
    (us)a = 0 with us in S, so s is a non-zero-divisor of the finite ring R/ker.
    With st = 1 mod ker, (r,s) ~ (r',s') iff rt = r't' mod ker, so the class
    of (r,s) is the coset of rt, and r/s -> rt + ker is a ring isomorphism
    S^-1 R -> R/ker that turns r -> r/1 into the projection.  The tables are
    those of R/ker, built by ``_coset_ring`` as a quotient's are (ker is an
    ideal: ua = vb = 0 give uv(a+b) = 0 and u(ra) = 0), so each class is the
    base element r of least index in it, standing for r/1, and r/s is
    q(r)q(s)^-1 for the canonical map q.
    """
    if not ring.is_finite:
        raise InfiniteRingError("localization is supported over finite rings only")
    _same_ring(ring, sset, "multiplicative set")
    zero = ring.zero_idx
    if zero in sset.indices:
        raise ConstructionError("0 in S collapses the localization to the zero ring")
    ker = _colon_union(ring, 1 << zero, sset.indices)
    lring, canonical = _coset_ring(ring, ("localization", ring, sset), ker)
    return LocalizationRecord(lring, ring, sset, canonical, _mk_ideal(ring, ker))
