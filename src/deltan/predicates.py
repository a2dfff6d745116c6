"""Ideal-class predicates: delta-primary, n-ideal, delta-n-ideal, spectra.

A proper ideal I is delta-n when ab in I with a outside the nilradical forces
b into delta(I).  The production test is the paper's colon characterization:
I is delta-n iff U(I) = union of (I:a) over a outside the nilradical lies in
delta(I).  (I : a) shrinks as Ra grows, so that union runs over the a of the
minimal principal ideals outside the nilradical (``_columns_outside``: two
on Z64 x Z64, in place of its 3072 elements outside the nilradical).  U(I) is computed once
per ideal and each (I, delta) decision is one mask AND; witnesses are
extracted by the definition scan only when that AND fails.  ``_delta_n_set``
makes that AND once per proper ideal, against a per-ring {I: U(I)} table,
over an expansion's table (``delta_n_masks``) or a one-shot map's.  Three
independent decision methods (the colon criterion ((I:a) inside the
nilradical for a outside delta(I)), the element/ideal form, and the
ideal-pair form) are cross-checked against it by the verifier; their
verdicts are memoised per (ring, I, delta(I), method).  delta-primary is
decided the same way: Z_I, the b that some a outside I sends into I, is the
same union over the minimal principal ideals outside I, and I is
delta-primary iff Z_I <= delta(I).  The integer backend uses the exact closed
criterion (nZ is delta-n iff n = 0 or delta(nZ) = ZZ, since n*1 lands in nZ
with n outside the nilradical).
"""

from __future__ import annotations

from collections import namedtuple

from .constructions import localize
from .errors import ImproperIdealError, InfiniteRingError
from .ideals import (IntegerSet, _bits, _colon_mask, _colon_union, _columns_outside, _lattice,
                     _mask_of, _mk_ideal, _nil_mask, _prime_factors, _product_mask, _z_i_mask,
                     zero_ideal)
from .expansions import _pushforward, apply_expansion, delta0, delta1
from .rings import _same_ring, memo

DELTA_N_METHODS = ("definition", "colon_criterion", "element_ideal", "ideal_pairs")


def _guard(I, delta=None):
    if delta is not None:
        _same_ring(I.ring, delta, "expansion")
    if not I.is_proper:
        raise ImproperIdealError(
            "this ideal class is defined for proper ideals only; got the whole ring")


@memo
def _u_mask(ring, imask):
    """U(I) = {b : ab in I for some a outside the nilradical}, memoised per ring."""
    return _colon_union(ring, imask, _columns_outside(ring, _nil_mask(ring)))


@memo
def _u_table(ring):
    """{I mask: U(I)} over the proper ideals, in lattice order, memoised per ring."""
    full = ring.full_mask
    return {m: _u_mask(ring, m) for m in _lattice(ring) if m != full}


@memo
def _aj_mask(ring, a, jmask):
    return _mask_of(ring.size, map(ring.mul[a].__getitem__, _bits(jmask)))


# ---------------------------------------------------------------------------
# delta-primary and n-ideal
# ---------------------------------------------------------------------------

def is_delta_primary(I, delta):
    """ab in I and a outside I force b into delta(I).

    The b that some a outside I sends into I form Z_I, by commutativity, so
    on a finite ring this is the one AND Z_I <= delta(I).
    """
    _guard(I, delta)
    ring = I.ring
    if not ring.is_finite:
        return _int_primary_witness(ring, I.n, delta.int_fn(I.n)) is None
    return _delta_primary(ring, I.mask, delta.table[I.mask])


def _delta_primary(ring, imask, dmask):
    """The delta-primary rule on masks: Z_I <= delta(I), for I = imask, delta(I) = dmask."""
    return _z_i_mask(ring, imask) & ~dmask == 0


def delta_primary_witness(I, delta):
    """First (a, b) violating the delta-primary condition, or None."""
    _guard(I, delta)
    ring = I.ring
    if not ring.is_finite:
        return _int_primary_witness(ring, I.n, delta.int_fn(I.n))
    imask, dmask = I.mask, delta.table[I.mask]
    if _delta_primary(ring, imask, dmask):
        return None
    return _scan_witness(ring, imask, imask, dmask)


def _int_primary_witness(ring, n, d):
    if n == 0 or d == 1:
        return None
    # primary fails iff some prime s of n is not divisible by d; then
    # (n/s) * s lands in nZ with n/s outside nZ and s outside dZ
    for s in _prime_factors(n):
        if s % d != 0:
            return (ring.el(n // s), ring.el(s))
    return None


def is_n_ideal(I):
    """ab in I forces a into the nilradical or b into I: delta0-n."""
    return n_ideal_witness(I) is None


def n_ideal_witness(I):
    return delta_n_witness(I, delta0(I.ring))


def _definition_witness(ring, imask, dmask):
    """First (a, b) with ab in I, a not nilpotent, b outside the target set."""
    return _scan_witness(ring, _nil_mask(ring), imask, dmask)


def _scan_witness(ring, skip, imask, dmask):
    """First (a, b), a-major, with a outside ``skip``, ab in I and b outside the
    target set."""
    mul = ring.mul
    for a in range(ring.size):
        if skip >> a & 1:
            continue
        row = mul[a]
        for b in range(ring.size):
            if imask >> row[b] & 1 and not (dmask >> b & 1):
                return (ring.el(a), ring.el(b))
    return None


# ---------------------------------------------------------------------------
# delta-n-ideal, four ways
# ---------------------------------------------------------------------------

def is_delta_n_ideal(I, delta, method="definition"):
    """Decide the delta-n property by the requested method.

    ``definition`` (the default) is the one-AND test U(I) <= delta(I).  It is
    the hottest call of a verification, so a proper ideal of a finite ring
    in the expansion's ring takes it after one identity and one mask compare;
    every other input goes through ``_guard`` and the method check.
    """
    ring = I.ring
    imask = I.mask
    if (method == "definition" and imask is not None and imask != ring.full_mask
            and delta.ring is ring):
        return _u_mask(ring, imask) & ~delta.table[imask] == 0
    _guard(I, delta)
    if method not in DELTA_N_METHODS:
        raise ValueError(f"unknown decision method {method!r}")
    if imask is None:
        return I.n == 0 or delta.int_fn(I.n) == 1
    return _decide(ring, imask, delta.table[imask], method)


@memo
def _decide(ring, imask, dmask, method):
    """The three cross-check methods, each an independent exhaustive scan.

    A verdict depends on (ring, I, delta(I), method) alone, so it is memoised
    on exactly that key: each distinct input is scanned once.  Each scan tests
    the free mask condition (a J or K outside delta(I), a J outside the
    nilradical) before it computes the product that the condition guards, so
    a pair that cannot be a counterexample costs no product.
    """
    nil = _nil_mask(ring)
    # the a outside delta(I), and the J outside it, bind a table only when some exist
    if method == "colon_criterion":
        outside = _bits(ring.full_mask & ~dmask)
        colons = _colon_mask.table(ring, imask) if outside else None
        return not any(colons[a] & ~nil for a in outside)
    if method == "element_ideal":
        outside = [j for j in _lattice(ring) if j & ~dmask]
        for a in _bits(ring.full_mask & ~nil) if outside else ():
            aj = _aj_mask.table(ring, a)
            if any(aj[j] & ~imask == 0 for j in outside):
                return False
        return True
    # ideal_pairs: JK <= I forces J inside the nilradical or K inside delta(I)
    lattice = _lattice(ring)
    for j in lattice:
        if j & ~nil == 0:
            continue
        for k in lattice:
            if k & ~dmask and _product_mask(ring, j, k) & ~imask == 0:
                return False
    return True


def _delta_n_set(ring, value):
    """The delta-n set of the map ``value`` (mask -> mask) on a finite ring: the
    proper masks m with U(m) <= value[m], one AND per proper ideal.  A map that a
    claim reads once is passed as a transient table, with no ``Expansion`` built."""
    return {m for m, u in _u_table(ring).items() if u & ~value[m] == 0}


def _composed_dn(delta, gamma):
    """The delta-n set of delta o gamma, I -> delta(gamma(I)) (``compose_expansions``)."""
    table = delta.table
    return _delta_n_set(delta.ring, {m: table[v] for m, v in gamma.table.items()})


def _localized_dn(delta, sset):
    """The delta_S-n set of S^-1 R, delta pushed as ``derive_localized_expansion`` does."""
    rec = localize(delta.ring, sset)
    return _delta_n_set(rec.ring, _pushforward(rec.canonical, delta))


def delta_n_masks(delta):
    """The masks of the proper delta-n ideals of a finite ring, ``_delta_n_set``
    over the expansion's table.  Not memoised here, as a set kept per expansion
    for the process would outlive its use: the claims keep one per expansion for
    a run, in their per-run table ``claims._dn``, and test ``m in dn`` (m of
    ``_lattice``)."""
    if not delta.ring.is_finite:
        raise InfiniteRingError("delta-n sets are enumerated on finite rings only")
    return _delta_n_set(delta.ring, delta.table)


def delta_n_witness(I, delta):
    """First (a, b) violating the delta-n definition, or None."""
    _guard(I, delta)
    ring = I.ring
    if not ring.is_finite:
        if I.n == 0 or delta.int_fn(I.n) == 1:
            return None
        return (ring.el(I.n), ring.el(1))
    imask, dmask = I.mask, delta.table[I.mask]
    if _u_mask(ring, imask) & ~dmask == 0:
        return None
    return _definition_witness(ring, imask, dmask)


def is_quasi_n_ideal(I):
    """delta-n for the radical expansion."""
    return quasi_n_witness(I) is None


def quasi_n_witness(I):
    return delta_n_witness(I, delta1(I.ring))


# ---------------------------------------------------------------------------
# spectra and delta-nilpotents
# ---------------------------------------------------------------------------

DeltaNSpectrum = namedtuple("DeltaNSpectrum", "all maximal_members")


def delta_n_spectrum(ring, delta):
    """All proper delta-n ideals and the maximal ones: ``_spectrum``'s masks as ideals."""
    if not ring.is_finite:
        raise InfiniteRingError("spectra are enumerated on finite rings only")
    _same_ring(ring, delta, "expansion")
    return DeltaNSpectrum(*(tuple(_mk_ideal(ring, m) for m in masks)
                            for masks in _spectrum(ring, delta_n_masks(delta))))


def _spectrum(ring, dn):
    """The spectrum of the delta-n set ``dn`` as masks: its members in lattice
    order and the maximal ones among them under inclusion."""
    members = [m for m in _lattice(ring) if m in dn]
    return members, [m for m in members if not any(n != m and m & ~n == 0 for n in members)]


def delta_nilpotents(ring, delta):
    """The element set of delta(zero ideal)."""
    _same_ring(ring, delta, "expansion")
    value = apply_expansion(delta, zero_ideal(ring))
    if ring.is_finite:
        return frozenset(value.elements())
    if value.n == 0:
        return frozenset({ring.el(0)})
    return IntegerSet(f"multiples of {value.n}",
                      lambda v, n=value.n: v % n == 0)
