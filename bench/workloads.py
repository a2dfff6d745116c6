"""Workload inputs: the ring ladder and the seeded stream of CLI queries.

This module never imports ``deltan``: it describes inputs and the facts the
checks compare against, computed with its own integer and polynomial
arithmetic, so the tests can run it without the program.
"""

from __future__ import annotations

import itertools
import random
from math import gcd

def workload_rng(workload, seed):
    """The one random stream a workload draws from; string seeding is stable."""
    return random.Random(f"{workload}:{seed}")


# ---------------------------------------------------------------------------
# integer and polynomial arithmetic
# ---------------------------------------------------------------------------

def prime_factors(n):
    """{p: exponent} for n >= 1."""
    out, p = {}, 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def tau(n):
    """Number of divisors of n, which is the number of ideals of Z_n."""
    count = 1
    for e in prime_factors(n).values():
        count *= e + 1
    return count


def is_prime_power(n):
    return len(prime_factors(n)) == 1


def poly_text(coeffs):
    """Ascending coefficients -> DSL text in descending order, e.g. x^2+3x+1."""
    terms = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        if i == 0:
            terms.append(str(c))
        elif i == 1:
            terms.append("x" if c == 1 else f"{c}x")
        else:
            terms.append(f"x^{i}" if c == 1 else f"{c}x^{i}")
    return "+".join(terms) if terms else "0"


def poly_eval(coeffs, x, n):
    value = 0
    for c in reversed(coeffs):
        value = (value * x + c) % n
    return value


def _poly_mulmod(a, b, n, f):
    """Product of two residues (ascending, length d) modulo the monic f over Z_n."""
    d = len(f) - 1
    prod = [0] * (2 * d - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                prod[i + j] = (prod[i + j] + ca * cb) % n
    for k in range(len(prod) - 1, d - 1, -1):
        c = prod[k]
        if c:
            prod[k] = 0
            for i in range(d):
                prod[k - d + i] = (prod[k - d + i] - c * f[i]) % n
    return tuple(prod[:d])


def poly_ring_idempotents(n, f):
    """Idempotent count of Z_n[x]/(f) by squaring every element."""
    d = len(f) - 1
    count = 0
    for code in range(n ** d):
        e, v = [], code
        for _ in range(d):
            e.append(v % n)
            v //= n
        e = tuple(e)
        if _poly_mulmod(e, e, n, f) == e:
            count += 1
    return count


# ---------------------------------------------------------------------------
# ring models: the isomorphism type of a queried ring, for the checks
# ---------------------------------------------------------------------------
#   ("Z", n)         Z_n
#   ("P", n, f)      Z_n[x]/(f), f monic ascending
#   ("X", a, b)      Z_a x Z_b
#   ("I", base, M)   base (+) M, where the module M is a quotient ring of base
#                    (("Z", g) for Z_n/(g), or base itself) acted on by reduction

def model_is_local(model):
    """True when the ring has no idempotent other than 0 and 1."""
    kind = model[0]
    if kind == "Z":
        return is_prime_power(model[1])
    if kind == "P":
        return poly_ring_idempotents(model[1], model[2]) == 2
    if kind == "X":
        return False
    if kind == "I":
        # (e, m)^2 = (e, m) forces e idempotent, and then m = 2em has one solution
        return model_is_local(model[1])
    raise ValueError(f"unknown ring model {model!r}")


def model_arith(model):
    """(elements, add, mul) of the ring, with the benchmark's own arithmetic."""
    kind = model[0]
    if kind == "Z":
        n = model[1]
        return list(range(n)), (lambda x, y: (x + y) % n), (lambda x, y: x * y % n)
    if kind == "X":
        ea, aa, ma = model_arith(("Z", model[1]))
        eb, ab, mb = model_arith(("Z", model[2]))
        return ([(x, y) for x in ea for y in eb],
                lambda u, v: (aa(u[0], v[0]), ab(u[1], v[1])),
                lambda u, v: (ma(u[0], v[0]), mb(u[1], v[1])))
    if kind == "P":
        n, f = model[1], model[2]
        return (list(itertools.product(range(n), repeat=len(f) - 1)),
                lambda u, v: tuple((a + b) % n for a, b in zip(u, v)),
                lambda u, v: _poly_mulmod(u, v, n, f))
    if kind == "I":
        base, module = model[1], model[2]
        eb, ab, mb = model_arith(base)
        em, am, mm = model_arith(module)
        reduce = (lambda r: r) if module == base else (lambda r: r % module[1])
        # (r, m)(s, k) = (rs, rk + sm)
        return ([(r, m) for r in eb for m in em],
                lambda u, v: (ab(u[0], v[0]), am(u[1], v[1])),
                lambda u, v: (mb(u[0], v[0]),
                              am(mm(reduce(u[0]), v[1]), mm(reduce(v[0]), u[1]))))
    raise ValueError(f"unknown ring model {model!r}")


def count_ideals(model):
    """Ideal count by brute force: every ideal is a sum of principal ideals Rx."""
    elems, add, mul = model_arith(model)
    index = {e: i for i, e in enumerate(elems)}
    add_table = [[index[add(x, y)] for y in elems] for x in elems]
    principals = {frozenset(index[mul(r, x)] for r in elems) for x in elems}
    ideals = set(principals)
    frontier = list(ideals)
    while frontier:
        ideal = frontier.pop()
        for p in principals:
            if p <= ideal:
                continue
            total = set(ideal)
            for a in p:  # ideal + p is the union of the cosets a + ideal
                if a not in total:
                    total.update(add_table[a][b] for b in ideal)
            total = frozenset(total)
            if total not in ideals:
                ideals.add(total)
                frontier.append(total)
    return len(ideals)


def model_lattice_size(model):
    """Closed-form ideal count, or None where the benchmark knows none."""
    kind = model[0]
    if kind == "Z":
        return tau(model[1])
    if kind == "X":
        return tau(model[1]) * tau(model[2])
    if kind == "P":
        n, f = model[1], model[2]
        if prime_factors(n) == {n: 1} and not any(f[:-1]):
            return len(f)  # Z_p[x]/(x^k) is a chain of k+1 ideals
        if is_field_model(model):
            return 2
    return None


def is_field_model(model):
    if model[0] == "Z":
        return prime_factors(model[1]) == {model[1]: 1}
    if model[0] == "P":
        n, f = model[1], model[2]
        if prime_factors(n) != {n: 1}:
            return False
        d = len(f) - 1
        # a field iff f has no monic factor of degree <= d/2 over Z_p
        for k in range(1, d // 2 + 1):
            for code in range(n ** k):
                g, v = [], code
                for _ in range(k):
                    g.append(v % n)
                    v //= n
                if _poly_divides(g + [1], list(f), n):
                    return False
        return True
    return False


def _poly_divides(g, f, p):
    """Monic g divides f over the prime field Z_p."""
    rem = list(f)
    dg = len(g) - 1
    for k in range(len(rem) - 1, dg - 1, -1):
        c = rem[k] % p
        if c:
            for i in range(dg + 1):
                rem[k - dg + i] = (rem[k - dg + i] - c * g[i]) % p
    return all(c % p == 0 for c in rem[:dg])


# ---------------------------------------------------------------------------
# ring-ladder: rings from 64 to about 1024 elements
# ---------------------------------------------------------------------------
# Each entry names a ring built with the public constructors of deltan.rings:
# ("Z", n) -> modular(n), ("P", p, k) -> poly_quotient(p, x^k),
# ("X", a, b) -> product(modular(a), modular(b)).  The steps, and the layer
# each one loads: 64 elements (everything small); 125-143 elements (the n^3
# ring-axiom check, exhaustive up to 256 elements); 512 elements (the n^2
# definition scan over 198 decisions); about 1000 elements (tables and the
# principal ideals of large rings with few ideals).  Left out: Z16 x Z32
# (its 1798 decisions alone take longer than the rest of the ladder) and
# Z64 x Z64 (it does not finish in 90 s).

LADDER = (
    ("Z", 64), ("P", 2, 6), ("X", 8, 8),
    ("Z", 128), ("P", 2, 7), ("X", 11, 13), ("P", 5, 3),
    ("Z", 512),
    ("Z", 1009), ("Z", 1021), ("X", 31, 31),
)


def ladder_label(entry):
    if entry[0] == "Z":
        return f"Z{entry[1]}"
    if entry[0] == "P":
        return f"Z{entry[1]}[x]/(x^{entry[2]})"
    return f"Z{entry[1]} x Z{entry[2]}"


def ladder_model(entry):
    if entry[0] == "Z":
        return ("Z", entry[1])
    if entry[0] == "P":
        return ("P", entry[1], (0,) * entry[2] + (1,))
    return ("X", entry[1], entry[2])


def ladder_order(seed):
    """The ladder in the seed's order; every seed runs the same rings."""
    order = list(LADDER)
    workload_rng("ring-ladder", seed).shuffle(order)
    return order


# ---------------------------------------------------------------------------
# cli-queries: one-off classify / ideals queries over every DSL backend
# ---------------------------------------------------------------------------
# The size of a query is the element count of the largest ring it builds
# (the base ring for quotients and localizations).  Every backend has the
# same number of slots in each band, and each slot a fixed size, so a query's
# cost class is the same for every seed; the seed draws the ring among those
# of the slot's backend and size, the ideal, the expansion's parameters, and
# the order.  Slots alternate classify / ideals, and the classify slots of a
# backend cycle through the expansion forms.

BANDS = ("16-31", "32-63", "64-95", "96-128")

SLOT_SIZES = {
    "zn": ((16, 18, 20, 21, 22, 26), (33, 35, 39, 45, 51, 57),
           (66, 70, 78, 91), (96, 99, 105)),
    "poly": ((16, 16, 25, 27, 16, 25), (32, 36, 49, 32, 36, 49),
             (64, 64, 81, 81), (100, 100, 121)),
    "prod": ((16, 18, 20, 24, 28, 30), (32, 36, 40, 48, 54, 60),
             (64, 72, 80, 90), (96, 98, 100)),
    "idz": ((16, 18, 20, 24, 25, 27), (32, 36, 40, 48, 49, 50),
            (64, 72, 81, 90), (98, 100, 108)),
    "quot": ((16, 20, 24, 25, 27, 28), (34, 38, 42, 46, 52, 62),
             (68, 76, 86, 94), (98, 102, 106)),
    "loc": ((18, 20, 24, 26, 28, 30), (40, 44, 48, 56, 58, 60),
            (72, 80, 84, 90), (100, 104, 110)),
}

BACKENDS = tuple(SLOT_SIZES)
DELTA_FORMS = ("d0", "d1", "full", "d+", "d*", "compose")
HEAVY = 32  # rings this large are never shared between two queries of a run


class _Ring:
    """A drawn ring: DSL text, its model, and how to name its elements."""

    def __init__(self, text, model, builds, element, nonunit):
        self.text = text
        self.model = model
        self.builds = builds      # (label, size) of every ring the query builds
        self.element = element    # rng -> element text
        self.nonunit = nonunit    # rng -> text of a non-unit element


def _zn_elements(n):
    nonunits = [k for k in range(n) if gcd(k, n) > 1]
    return (lambda rng: str(rng.randrange(n)),
            lambda rng: str(rng.choice(nonunits)))


def _poly_parts(n, f):
    """Element and non-unit drawers for Z_n[x]/(f).

    Non-units: 0, constants sharing a prime with n, and x+c with
    gcd(f(-c), n) > 1 (then x+c lies in the maximal ideal (p, x+c)).
    """
    d = len(f) - 1
    nonunits = ["0"] + [str(c) for c in range(1, n) if gcd(c, n) > 1]
    for c in range(n):
        if gcd(poly_eval(f, -c % n, n), n) > 1:
            nonunits.append(poly_text((c, 1)))

    def element(rng):
        return poly_text(tuple(rng.randrange(n) for _ in range(d)))

    return element, (lambda rng: rng.choice(nonunits))


def _monic(rng, n, d):
    return tuple(rng.randrange(n) for _ in range(d)) + (1,)


def _poly_ring_text(n, f):
    return f"Z{n}[x]/({poly_text(f)})"


def _draw_zn(rng, size):
    element, nonunit = _zn_elements(size)
    return [_Ring(f"Z{size}", ("Z", size), ((f"Z{size}", size),), element, nonunit)]


def _poly_shapes(size):
    return [(n, d) for n in range(2, size + 1) for d in range(2, 8) if n ** d == size]


def _draw_poly(rng, size):
    out = []
    for n, d in _poly_shapes(size):
        for _ in range(4):
            f = _monic(rng, n, d)
            element, nonunit = _poly_parts(n, f)
            text = _poly_ring_text(n, f)
            out.append(_Ring(text, ("P", n, f), ((text, size),), element, nonunit))
    return out


def _draw_prod(rng, size):
    out = []
    for a in range(2, 32):
        b, r = divmod(size, a)
        if r or not 2 <= b < 32:
            continue
        ea, na = _zn_elements(a)
        eb, nb = _zn_elements(b)

        def element(rng, ea=ea, eb=eb):
            return f"({ea(rng)},{eb(rng)})"

        def nonunit(rng, ea=ea, eb=eb, na=na, nb=nb):
            if rng.random() < 0.5:
                return f"({na(rng)},{eb(rng)})"
            return f"({ea(rng)},{nb(rng)})"

        text = f"Z{a} x Z{b}"
        out.append(_Ring(text, ("X", a, b),
                         ((f"Z{a}", a), (f"Z{b}", b), (text, size)),
                         element, nonunit))
    return out


def _draw_idz(rng, size):
    out = []
    for n in range(2, size + 1):
        g, r = divmod(size, n)
        if r == 0 and g >= 2 and n % g == 0:
            ebase, nbase = _zn_elements(n)
            text = f"Z{n} (+) Z{n}" if g == n else f"Z{n} (+) Z{n}/({g})"

            def element(rng, ebase=ebase):
                return f"({ebase(rng)},{ebase(rng)})"

            def nonunit(rng, ebase=ebase, nbase=nbase):
                return f"({nbase(rng)},{ebase(rng)})"

            out.append(_Ring(text, ("I", ("Z", n), ("Z", g)),
                             ((f"Z{n}", n), (text, size)),
                             element, nonunit))
    for n, d in _poly_shapes(int(round(size ** 0.5))):
        if (n ** d) ** 2 != size:
            continue
        for _ in range(3):
            f = _monic(rng, n, d)
            ebase, nbase = _poly_parts(n, f)
            base = _poly_ring_text(n, f)
            text = f"{base} (+) {base}"

            def element(rng, ebase=ebase):
                return f"({ebase(rng)},{ebase(rng)})"

            def nonunit(rng, ebase=ebase, nbase=nbase):
                return f"({nbase(rng)},{ebase(rng)})"

            out.append(_Ring(text, ("I", ("P", n, f), ("P", n, f)),
                             ((base, n ** d), (text, size)), element, nonunit))
    return out


def _draw_quot(rng, size):
    out = []
    ebase, _ = _zn_elements(size)
    for d in range(2, size):
        if size % d:
            continue
        _, nonunit = _zn_elements(d)
        text = f"quot(Z{size},({d}))"
        out.append(_Ring(text, ("Z", d), ((f"Z{size}", size), (text, d)),
                         ebase, nonunit))
    for n, k in _poly_shapes(size):
        for _ in range(3):
            f = _monic(rng, n, k)
            base = _poly_ring_text(n, f)
            ebase_p, _ = _poly_parts(n, f)
            for q in range(2, n):
                if n % q == 0:
                    fq = tuple(c % q for c in f)
                    _, nonunit = _poly_parts(q, fq)
                    text = f"quot({base},({q}))"
                    out.append(_Ring(text, ("P", q, fq),
                                     ((base, size), (text, q ** k)), ebase_p, nonunit))
            for c in range(n):
                g = gcd(poly_eval(f, -c % n, n), n)
                if g > 1:
                    _, nonunit = _zn_elements(g)
                    text = f"quot({base},({poly_text((c, 1))}))"
                    out.append(_Ring(text, ("Z", g), ((base, size), (text, g)),
                                     ebase_p, nonunit))
                    break
    return out


def _closure(s, m):
    out, x = {1}, s % m
    while x not in out:
        out.add(x)
        x = x * s % m
    return tuple(sorted(out))


def _draw_loc(rng, size):
    out, seen = [], set()
    radical = 1
    for p in prime_factors(size):
        radical *= p
    ebase, _ = _zn_elements(size)
    for s in range(2, size):
        if gcd(s, size) == 1 or s % radical == 0:
            continue  # units give back Z_m; nilpotents put 0 in S
        sset = _closure(s, size)
        if sset in seen:
            continue
        seen.add(sset)
        m2 = 1
        for p, e in prime_factors(size).items():
            if s % p:
                m2 *= p ** e
        _, nonunit = _zn_elements(m2)
        text = f"loc(Z{size},{{{','.join(str(x) for x in sset)}}})"
        out.append(_Ring(text, ("Z", m2), ((f"Z{size}", size), (text, m2)),
                         ebase, nonunit))
    return out


_DRAW = {"zn": _draw_zn, "poly": _draw_poly, "prod": _draw_prod,
         "idz": _draw_idz, "quot": _draw_quot, "loc": _draw_loc}


def _delta_text(form, ring, rng):
    if form in ("d0", "d1", "full"):
        return form
    if form == "d+":
        return f"d+(({ring.element(rng)}))"
    if form == "d*":
        return f"d*(({ring.element(rng)}))"
    pattern = rng.randrange(3)
    if pattern == 0:
        return f"d1 o d+(({ring.element(rng)}))"
    if pattern == 1:
        return f"d+(({ring.element(rng)})) o d1"
    return f"d*(({ring.element(rng)})) o d0"


def slot_plan():
    """(backend, band, size, kind, delta form or None) for every slot, in order."""
    plan = []
    for backend in BACKENDS:
        forms = 0
        for band, sizes in zip(BANDS, SLOT_SIZES[backend]):
            for i, size in enumerate(sizes):
                if i % 2 == 0:
                    plan.append((backend, band, size, "classify",
                                 DELTA_FORMS[forms % len(DELTA_FORMS)]))
                    forms += 1
                else:
                    plan.append((backend, band, size, "ideals", None))
    return plan


def generate_queries(seed):
    """The seed's query list: same slots for every seed, seed-drawn inputs.

    No two queries share a ring spec, nor any ring of HEAVY or more elements,
    so no query finds an earlier query's ring in the program's caches.
    """
    rng = workload_rng("cli-queries", seed)
    used = set()
    queries = []
    for backend, band, size, kind, form in slot_plan():
        pool = [r for r in _DRAW[backend](rng, size)
                if r.text not in used
                and not any(label in used for label, n in r.builds if n >= HEAVY)]
        if not pool:
            raise RuntimeError(f"no {backend} ring of size {size} left to draw")
        ring = rng.choice(pool)
        used.add(ring.text)
        used.update(label for label, n in ring.builds if n >= HEAVY)
        if kind == "ideals":
            argv = ["ideals", ring.text]
        else:
            argv = ["classify", ring.text, f"({ring.nonunit(rng)})",
                    "--delta", _delta_text(form, ring, rng)]
        queries.append({"backend": backend, "band": band, "size": size,
                        "kind": kind, "form": form, "argv": argv,
                        "model": ring.model})
    rng.shuffle(queries)
    return queries
