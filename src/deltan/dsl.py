"""A little textual language for rings, ideals, and expansions.

    ring      := atom { "x" atom | "(+)" module }          (left associative)
    atom      := "ZZ" | "Z"<int> [ "[x]/(" poly ")" ] | "(" ring ")"
               | "loc(" ring "," elemset ")" | "quot(" ring "," idealexpr ")"
    module    := atom [ "/" idealexpr ]                     (over the base ring)
    poly      := "[" int {"," int} "]"                      (ascending coefficients)
               | term { ("+"|"-") term }                    (e.g. x^3, x^2+x+1)
    idealexpr := "(" [ elem {"," elem} ] ")"
    elemset   := "{" elem {"," elem} "}"
    elem      := value [ "/" value ]                        (r/s: in a localization only)
    value     := "(" elem "," elem ")" | "(" elem ")" | [-]int | poly-term-sum
    expansion := exp { "o" exp };  exp := "d0" | "d1" | "full"
               | "d+(" idealexpr ")" | "d*(" idealexpr ")"

Whitespace is insignificant.  Integer literals have at most 4300 digits and
exponents of x are at most 4096; larger ones are refused where they stand.
Parse errors carry line/column and the expected token set; binding errors,
which have no source position, carry neither.  An element of a quotient or a
localization is named by a base element, its image under the canonical
surjection, and one of a localization also by a fraction r/s of base
elements, bracketed as (r)/(s) where r and s are fractions themselves.
``ring_to_dsl`` prints a constructed ring, ``repr`` an ideal and
``print_expansion`` a parsed expansion in their canonical spellings, and
parsing a printed form reproduces the same bound objects.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import DslError
from .constructions import (MultiplicativeSet, _reads_fractions, idealization, localize,
                            make_module, quotient_ring)
from .expansions import (compose_expansions, delta0, delta1, delta_plus,
                         delta_star, full_expansion)
from .ideals import ideal_from_generators
from .rings import (_MAX_DIGITS, MAX_RING_SIZE, _poly_mul_reduce, integers, modular,
                    poly_quotient, poly_repr, product)

# the longest integer literal read is _MAX_DIGITS long (CPython's default limit
# on converting a digit string to an int); the largest exponent of x is
# MAX_RING_SIZE, as a polynomial is held densely, one coefficient per degree
_MAX_EXPONENT = MAX_RING_SIZE


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RInt:
    pass


@dataclass(frozen=True)
class RMod:
    n: int


@dataclass(frozen=True)
class RPoly:
    n: int
    coeffs: tuple  # ascending


@dataclass(frozen=True)
class RProd:
    left: object
    right: object


@dataclass(frozen=True)
class RIdz:
    base: object
    module: object  # MReg or MQuot


@dataclass(frozen=True)
class RLoc:
    base: object
    elems: tuple


@dataclass(frozen=True)
class RQuot:
    base: object
    gens: tuple


@dataclass(frozen=True)
class MReg:
    ring: object


@dataclass(frozen=True)
class MQuot:
    ring: object
    gens: tuple


@dataclass(frozen=True)
class EInt:
    value: int


@dataclass(frozen=True)
class EPoly:
    coeffs: tuple  # ascending


@dataclass(frozen=True)
class EPair:
    left: object
    right: object


@dataclass(frozen=True)
class EFrac:
    left: object  # the numerator r of r/s
    right: object


@dataclass(frozen=True)
class XAtom:
    kind: str  # d0 | d1 | full | d+ | d*
    gens: tuple = ()


@dataclass(frozen=True)
class XCompose:
    outer: object
    inner: object


# ---------------------------------------------------------------------------
# tokenizer / parser
# ---------------------------------------------------------------------------

# the word alternatives are the closed keyword set, longest-prefix first, so
# spellings like "Z4xZ9" lex exactly as "Z4 x Z9" (whitespace-insensitive)
_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<idz>\(\+\))"
    r"|(?P<int>\d+)"
    r"|(?P<word>ZZ|Z\d+|loc|quot|full|d[01]|d|x|o|[A-Za-z][A-Za-z0-9]*)"
    r"|(?P<sym>[()\[\]{},+\-^/*])")


class _Parser:
    def __init__(self, text):
        self.text = text
        self.toks = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None:
                self._fail_at(pos, f"unrecognized character {text[pos]!r}", ())
            if m.lastgroup != "ws":
                self.toks.append((m.lastgroup, m.group(), pos))
            pos = m.end()
        self.i = 0

    def _line_col(self, offset):
        line = self.text.count("\n", 0, offset) + 1
        last_nl = self.text.rfind("\n", 0, offset)
        return line, offset - last_nl if last_nl >= 0 else offset + 1

    def _fail_at(self, offset, message, expected):
        line, col = self._line_col(offset)
        raise DslError(message, line=line, column=col, expected=expected)

    def fail(self, message, expected=()):
        offset = self.toks[self.i][2] if self.i < len(self.toks) else len(self.text)
        self._fail_at(offset, message, expected)

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else (None, None, len(self.text))

    def at(self, kind, value=None):
        k, v, _ = self.peek()
        return k == kind and (value is None or v == value)

    def take(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect(self, kind, value=None):
        k, v, off = self.peek()
        if k != kind or (value is not None and v != value):
            want = value if value is not None else kind
            self.fail(f"unexpected {v!r}" if v is not None else "unexpected end of input",
                      expected=(want,))
        return self.take()

    def done(self):
        if self.i != len(self.toks):
            self.fail(f"unexpected {self.peek()[1]!r} after a complete expression",
                      expected=("end of input",))


def _check_digits(p, digits):
    """Refuse, at the current token, a literal too long to convert."""
    if len(digits) > _MAX_DIGITS:
        p.fail(f"integer literal of {len(digits)} digits; at most {_MAX_DIGITS} are read")


def _parse_int(p):
    if p.at("int"):
        _check_digits(p, p.peek()[1])
    return int(p.expect("int")[1])


def _parse_exponent(p):
    if p.at("int") and len(p.peek()[1]) <= _MAX_DIGITS and int(p.peek()[1]) > _MAX_EXPONENT:
        p.fail(f"exponent {p.peek()[1]} is above {_MAX_EXPONENT}")
    return _parse_int(p)


def _parse_poly(p):
    if p.at("sym", "["):
        p.take()
        coeffs = [_parse_int(p)]
        while p.at("sym", ","):
            p.take()
            coeffs.append(_parse_int(p))
        p.expect("sym", "]")
        return tuple(coeffs)
    return _parse_term_sum(p)


def _parse_term_sum(p):
    coeffs = {}
    sign = 1
    while True:
        c, d = _parse_term(p)
        coeffs[d] = coeffs.get(d, 0) + sign * c
        if p.at("sym", "+"):
            p.take()
            sign = 1
        elif p.at("sym", "-"):
            p.take()
            sign = -1
        else:
            break
    top = max(coeffs) if coeffs else 0
    return tuple(coeffs.get(i, 0) for i in range(top + 1))


def _parse_term(p):
    coeff = 1
    saw_coeff = False
    if p.at("int"):
        coeff = _parse_int(p)
        saw_coeff = True
    if p.at("word", "x"):
        p.take()
        if p.at("sym", "^"):
            p.take()
            return coeff, _parse_exponent(p)
        return coeff, 1
    if not saw_coeff:
        p.fail("expected a polynomial term", expected=("integer", "x"))
    return coeff, 0


def _parse_elem(p):
    value = _parse_value(p)
    if p.at("sym", "/"):
        p.take()
        return EFrac(value, _parse_value(p))
    return value


def _parse_value(p):
    if p.at("sym", "("):
        p.take()
        left = _parse_elem(p)
        if p.at("sym", ")"):  # a bracketed element
            p.take()
            return left
        p.expect("sym", ",")
        right = _parse_elem(p)
        p.expect("sym", ")")
        return EPair(left, right)
    neg = False
    if p.at("sym", "-"):
        p.take()
        neg = True
    coeffs = _parse_term_sum(p)
    if neg:
        coeffs = tuple(-c for c in coeffs)
    if len(coeffs) == 1:
        return EInt(coeffs[0])
    return EPoly(coeffs)


def _parse_idealexpr(p):
    p.expect("sym", "(")
    gens = []
    if not p.at("sym", ")"):
        gens.append(_parse_elem(p))
        while p.at("sym", ","):
            p.take()
            gens.append(_parse_elem(p))
    p.expect("sym", ")")
    return tuple(gens)


def _parse_elemset(p):
    p.expect("sym", "{")
    elems = [_parse_elem(p)]
    while p.at("sym", ","):
        p.take()
        elems.append(_parse_elem(p))
    p.expect("sym", "}")
    return tuple(elems)


def _parse_ring_atom(p):
    k, v, _ = p.peek()
    if k == "word" and v == "ZZ":
        p.take()
        return RInt()
    if k == "word" and v and v[0] == "Z" and v[1:].isdigit():
        _check_digits(p, v[1:])
        p.take()
        n = int(v[1:])
        if p.at("sym", "["):
            p.take()
            p.expect("word", "x")
            p.expect("sym", "]")
            p.expect("sym", "/")
            p.expect("sym", "(")
            poly = _parse_poly(p)
            p.expect("sym", ")")
            return RPoly(n, poly)
        return RMod(n)
    if k == "word" and v == "loc":
        p.take()
        p.expect("sym", "(")
        base = parse_ring(p)
        p.expect("sym", ",")
        elems = _parse_elemset(p)
        p.expect("sym", ")")
        return RLoc(base, elems)
    if k == "word" and v == "quot":
        p.take()
        p.expect("sym", "(")
        base = parse_ring(p)
        p.expect("sym", ",")
        gens = _parse_idealexpr(p)
        p.expect("sym", ")")
        return RQuot(base, gens)
    if k == "sym" and v == "(":
        p.take()
        ring = parse_ring(p)
        p.expect("sym", ")")
        return ring
    p.fail(f"expected a ring expression, got {v!r}" if v else
           "expected a ring expression",
           expected=("ZZ", "Z<n>", "(", "loc(", "quot("))


def _parse_module(p):
    atom = _parse_ring_atom(p)
    if p.at("sym", "/"):
        p.take()
        gens = _parse_idealexpr(p)
        return MQuot(atom, gens)
    return MReg(atom)


def parse_ring(p):
    node = _parse_ring_atom(p)
    while True:
        if p.at("word", "x"):
            p.take()
            node = RProd(node, _parse_ring_atom(p))
        elif p.at("idz"):
            p.take()
            node = RIdz(node, _parse_module(p))
        else:
            return node


def _parse_expansion_atom(p):
    k, v, _ = p.peek()
    if k == "word" and v in ("d0", "d1", "full"):
        p.take()
        return XAtom(v)
    if k == "word" and v == "d":
        p.take()
        if p.at("sym", "+") or p.at("sym", "*"):
            kind = "d" + p.take()[1]
            p.expect("sym", "(")
            gens = _parse_idealexpr(p)
            p.expect("sym", ")")
            return XAtom(kind, gens)
        p.fail("expected '+' or '*' after 'd'", expected=("+", "*"))
    p.fail("expected an expansion", expected=("d0", "d1", "full", "d+(", "d*("))


def parse_expansion_text(text):
    p = _Parser(text)
    node = _parse_expansion_atom(p)
    while p.at("word", "o"):
        p.take()
        node = XCompose(node, _parse_expansion_atom(p))
    p.done()
    return node


def parse_ideal_text(text):
    p = _Parser(text)
    gens = _parse_idealexpr(p)
    p.done()
    return gens


def parse_spec(text):
    """Parse a ring expression into its AST for ``bind_ring`` (diagnostics carry
    line/column)."""
    p = _Parser(text)
    ring = parse_ring(p)
    p.done()
    return ring


# ---------------------------------------------------------------------------
# binding: AST -> constructed objects
# ---------------------------------------------------------------------------

def bind_ring(ast):
    if isinstance(ast, RInt):
        return integers()
    if isinstance(ast, RMod):
        return modular(ast.n)
    if isinstance(ast, RPoly):
        return poly_quotient(ast.n, list(ast.coeffs))
    if isinstance(ast, RProd):
        return product(bind_ring(ast.left), bind_ring(ast.right))
    if isinstance(ast, RIdz):
        base = bind_ring(ast.base)
        mod_ast = ast.module
        mod_base = bind_ring(mod_ast.ring)
        if mod_base is not base:
            raise DslError(f"module base {mod_base.key} differs from ring {base.key}")
        if isinstance(mod_ast, MReg):
            module = make_module(base, "regular")
        else:
            module = make_module(base, ("quotient", bind_ideal(base, mod_ast.gens)))
        return idealization(base, module).ring
    if isinstance(ast, RLoc):
        base = bind_ring(ast.base)
        elems = [bind_element(base, e) for e in ast.elems]
        sset = MultiplicativeSet(base, tuple(sorted({e.idx for e in elems})))
        return localize(base, sset).ring
    if isinstance(ast, RQuot):
        base = bind_ring(ast.base)
        return quotient_ring(base, bind_ideal(base, ast.gens)).ring
    raise DslError(f"cannot bind ring AST {ast!r}")


def bind_element(ring, ast):
    """The element an AST names in ``ring``.  Every element of a quotient, and
    every element but a fraction r/s of a localization, is named as the image
    of the base element it names under the canonical surjection."""
    if isinstance(ast, EFrac) and not _reads_fractions(ring):
        raise DslError(f"fractions r/s name elements of a localization only, not of {ring.key}")
    kind = ring.origin[0]
    if kind == "quotient":
        _, base, J = ring.origin
        return quotient_ring(base, J).projection(bind_element(base, ast))
    if kind == "localization":
        _, base, sset = ring.origin
        rec = localize(base, sset)
        if not isinstance(ast, EFrac):
            return rec.canonical(bind_element(base, ast))
        r, s = bind_element(base, ast.left), bind_element(base, ast.right)
        if s.idx not in sset.indices:
            raise DslError(f"denominator {s!r} is not in the multiplicative set")
        return ring.el(rec.class_of[(r.idx, s.idx)])
    if isinstance(ast, EPair):
        if kind == "product":
            _, left, right = ring.origin
            a = bind_element(left, ast.left)
            b = bind_element(right, ast.right)
            return ring.from_payload((a.payload, b.payload))
        if kind == "idealization":
            _, base, module = ring.origin
            r = bind_element(base, ast.left)
            m = _bind_module_element(module, ast.right)
            return ring.el(r.idx * module.size + m)
        raise DslError(f"pair elements do not exist in {ring.key}")
    if isinstance(ast, EInt):
        if not ring.is_finite:
            return ring.el(ast.value)
        if kind == "modular":
            return ring.el(ast.value % ring.size)
        if kind == "poly_quotient":
            return _poly_element(ring, (ast.value,))
        raise DslError(f"plain integers do not name elements of {ring.key}")
    if isinstance(ast, EPoly):
        if kind == "poly_quotient":
            return _poly_element(ring, ast.coeffs)
        raise DslError(f"polynomial elements do not exist in {ring.key}")
    raise DslError(f"cannot bind element AST {ast!r}")


def _poly_element(ring, coeffs):
    _, n, modulus = ring.origin
    raw = tuple(c % n for c in coeffs) or (0,)
    return ring.from_payload(_poly_mul_reduce(raw, (1,), n, modulus))


def _bind_module_element(module, ast):
    # R and R/I name their elements by base elements, pairs only over a pair ring
    if module.base_to_module is None or isinstance(ast, EPair) and (
            module.ring.origin[0] not in ("product", "idealization")):
        raise DslError("this module's elements are not expressible in the DSL")
    base_elem = bind_element(module.ring, ast)
    return module.base_to_module[base_elem.idx]


def bind_ideal(ring, gens_ast):
    return ideal_from_generators(ring, [bind_element(ring, g) for g in gens_ast])


def bind_expansion(ring, ast):
    if isinstance(ast, XCompose):
        return compose_expansions(bind_expansion(ring, ast.outer),
                                  bind_expansion(ring, ast.inner))
    if ast.kind == "d0":
        return delta0(ring)
    if ast.kind == "d1":
        return delta1(ring)
    if ast.kind == "full":
        return full_expansion(ring)
    if ast.kind == "d+":
        return delta_plus(ring, bind_ideal(ring, ast.gens))
    if ast.kind == "d*":
        return delta_star(ring, bind_ideal(ring, ast.gens))
    raise DslError(f"cannot bind expansion AST {ast!r}")


# ---------------------------------------------------------------------------
# printers (canonical forms; parse o print is the identity)
# ---------------------------------------------------------------------------

def print_elem(ast):
    if isinstance(ast, EPair):
        return f"({print_elem(ast.left)},{print_elem(ast.right)})"
    if isinstance(ast, EFrac):
        return "/".join(f"({print_elem(side)})" if isinstance(side, EFrac) else print_elem(side)
                        for side in (ast.left, ast.right))
    if isinstance(ast, EInt):
        return str(ast.value)
    return poly_repr(ast.coeffs, descending=True)


def print_expansion(ast):
    if isinstance(ast, XCompose):
        return f"{print_expansion(ast.outer)} o {print_expansion(ast.inner)}"
    if ast.kind in ("d0", "d1", "full"):
        return ast.kind
    gens = ",".join(print_elem(e) for e in ast.gens) or "0"
    return f"{ast.kind}(({gens}))"


def _gens_text(I):
    """The generators of a finite ideal as DSL element text."""
    return ",".join(I.ring.element_repr(g.idx) for g in I.gens)


def _atom_dsl(ring):
    """The DSL text of a ring where the grammar reads an atom: bracketed when
    the ring is a product or an idealization."""
    text = ring_to_dsl(ring)
    return f"({text})" if ring.origin[0] in ("product", "idealization") else text


def ring_to_dsl(ring):
    """Canonical DSL text for a constructed ring, read off its recipe."""
    kind = ring.origin[0]
    if kind in ("integer", "modular", "poly_quotient"):
        return ring.key  # the name of a base recipe is its DSL text
    _, base, operand = ring.origin
    text = ring_to_dsl(base)
    if kind == "product":
        return f"{text} x {_atom_dsl(operand)}"
    if kind == "idealization":
        text = _atom_dsl(base)  # the module's ring is an atom, and spelled as the base
        if operand.recipe[0] == "regular":
            return f"{text} (+) {text}"
        if operand.recipe[0] == "quotient":
            return f"{text} (+) {text}/({_gens_text(operand.recipe[1])})"
        raise DslError("product modules have no DSL spelling")
    if kind == "quotient":
        return f"quot({text},({_gens_text(operand)}))"
    elems = ",".join(base.element_repr(i) for i in operand.indices)
    return f"loc({text},{{{elems}}})"
