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
    value     := "(" elem "," elem ")" | "(" elem ")" | ["-"] poly-term-sum
                                                    (the "-" negates the first term)
    expansion := exp { "o" exp };  exp := "d0" | "d1" | "full"
               | "d+(" idealexpr ")" | "d*(" idealexpr ")"

Whitespace is insignificant.  Integer literals have at most 4300 digits and
exponents of x are at most 4096; larger ones are refused where they stand.
An expression nests at most 100 levels deep, each open bracket and each
operator x, (+) or o read so far counting one level; the token that would
go deeper is refused, so no input exhausts the interpreter's stack.  Parse
errors carry line/column and the expected token set; binding errors, which
have no source position, carry neither.

The parser returns recipes, plain tuples with the tags of the objects they
name and unbound operands: rings as ``Ring.origin`` spells them,
``("integer",)``, ``("modular", n)``, ``("poly_quotient", n, coeffs)``,
``("product", L, R)``, ``("quotient", base, gens)``, ``("localization",
base, elems)`` and ``("idealization", base, module)``, a module being
``("regular", ring)`` or ``("quotient", ring, gens)``; expansions as
``Expansion.recipe`` spells them, ``("delta0",)``, ``("delta1",)``,
``("full",)``, ``("delta_plus", gens)``, ``("delta_star", gens)`` and
``("compose", outer, inner)``; and elements as ``("int", v)``, ``("poly",
coeffs)``, ``("pair", a, b)`` and ``("frac", r, s)``.  The ``bind_*``
functions build what a recipe names in a ring.  An element of a quotient or
a localization is named by a base element, its image under the canonical
surjection, and prints as the base element of least index that it is the
image of, so a printed element is as long at every level of nesting.  An
element of a localization, or of a quotient of one, may also be named by a
fraction r/s of base elements, bracketed as (r)/(s) where r and s are
fractions themselves.
A ring's ``key`` (``rings.ring_key``) is its canonical spelling, ``repr``
an ideal's and ``print_expansion`` a parsed expansion's, and parsing a
printed form reproduces the same bound objects.
"""

from __future__ import annotations

import re
from operator import indexOf

from .errors import DslError, InvalidSpecError
from .constructions import (MultiplicativeSet, idealization, localize, make_module,
                            quotient_ring)
from .expansions import make_expansion
from .ideals import ideal_from_generators
from .rings import (_MAX_DIGITS, MAX_RING_SIZE, _bracketed, _check_size, _poly_mul_reduce,
                    _poly_normalize, _product_key, integers, modular, poly_quotient, poly_repr,
                    product, ring_key)

# the longest integer literal read is _MAX_DIGITS long (CPython's default limit
# on converting a digit string to an int); the largest exponent of x is
# MAX_RING_SIZE, as a polynomial is held densely, one coefficient per degree
_MAX_EXPONENT = MAX_RING_SIZE

# parsing recurses once per open bracket, and binding and printing once per
# bracket or operator, so this bound keeps both far inside the default
# recursion limit
_MAX_NESTING = 100

# the expansion words and the Expansion.recipe tags they name
_EXPANSION_TAGS = {"d0": "delta0", "d1": "delta1", "full": "full",
                   "d+": "delta_plus", "d*": "delta_star"}
_EXPANSION_WORDS = {tag: word for word, tag in _EXPANSION_TAGS.items()}


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
        self.depth = 0  # open brackets plus operators read

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
        if tok[1] == "(":
            self.nest()
        elif tok[1] == ")":
            self.depth -= 1
        self.i += 1
        return tok

    def nest(self):
        """Go one level deeper at the current token, refusing it past _MAX_NESTING."""
        self.depth += 1
        if self.depth > _MAX_NESTING:
            self.fail(f"nested more than {_MAX_NESTING} levels deep")

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


def _parse_list(p, parse_item, close):
    """item {"," item} and the closing bracket, after the opening one."""
    items = [parse_item(p)]
    while p.at("sym", ","):
        p.take()
        items.append(parse_item(p))
    p.expect("sym", close)
    return tuple(items)


def _parse_poly(p):
    if p.at("sym", "["):
        p.take()
        return _parse_list(p, _parse_int, "]")
    return _parse_term_sum(p)


def _parse_term_sum(p, sign=1):
    coeffs = {}
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
        return ("frac", value, _parse_value(p))
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
        return ("pair", left, right)
    sign = 1
    if p.at("sym", "-"):  # the sign of the first term
        p.take()
        sign = -1
    coeffs = _parse_term_sum(p, sign)
    return ("int", coeffs[0]) if len(coeffs) == 1 else ("poly", coeffs)


def _parse_idealexpr(p):
    p.expect("sym", "(")
    if p.at("sym", ")"):
        p.take()
        return ()
    return _parse_list(p, _parse_elem, ")")


def _parse_ring_atom(p):
    k, v, _ = p.peek()
    if k == "word" and v == "ZZ":
        p.take()
        return ("integer",)
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
            return ("poly_quotient", n, poly)
        return ("modular", n)
    if k == "word" and v in ("loc", "quot"):
        p.take()
        p.expect("sym", "(")
        base = parse_ring(p)
        p.expect("sym", ",")
        if v == "loc":
            p.expect("sym", "{")
            node = ("localization", base, _parse_list(p, _parse_elem, "}"))
        else:
            node = ("quotient", base, _parse_idealexpr(p))
        p.expect("sym", ")")
        return node
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
        return ("quotient", atom, gens)
    return ("regular", atom)


def parse_ring(p):
    node = _parse_ring_atom(p)
    while p.at("word", "x") or p.at("idz"):
        p.nest()
        if p.take()[0] == "idz":
            node = ("idealization", node, _parse_module(p))
        else:
            node = ("product", node, _parse_ring_atom(p))
    return node


def _parse_expansion_atom(p):
    k, v, _ = p.peek()
    if k == "word" and v in ("d0", "d1", "full"):
        p.take()
        return (_EXPANSION_TAGS[v],)
    if k == "word" and v == "d":
        p.take()
        if p.at("sym", "+") or p.at("sym", "*"):
            tag = _EXPANSION_TAGS["d" + p.take()[1]]
            p.expect("sym", "(")
            gens = _parse_idealexpr(p)
            p.expect("sym", ")")
            return (tag, gens)
        p.fail("expected '+' or '*' after 'd'", expected=("+", "*"))
    p.fail("expected an expansion", expected=("d0", "d1", "full", "d+(", "d*("))


def parse_expansion_text(text):
    p = _Parser(text)
    node = _parse_expansion_atom(p)
    while p.at("word", "o"):
        p.nest()
        p.take()
        node = ("compose", node, _parse_expansion_atom(p))
    p.done()
    return node


def parse_ideal_text(text):
    p = _Parser(text)
    gens = _parse_idealexpr(p)
    p.done()
    return gens


def parse_spec(text):
    """Parse a ring expression into its recipe for ``bind_ring`` (diagnostics
    carry line/column)."""
    p = _Parser(text)
    ring = parse_ring(p)
    p.done()
    return ring


# ---------------------------------------------------------------------------
# binding: recipes -> constructed objects
# ---------------------------------------------------------------------------

def _sized(ast):
    """(size, key) of the ring that a recipe of Z_n, Z_n[x]/(f), products and
    regular idealizations names, read off the recipe, the key as ``ring_key``
    spells it, refusing a product or an idealization as its constructor would
    but before its operands are built; None for any other recipe, and where a
    constructor refuses the recipe first."""
    kind = ast[0]
    if kind in ("modular", "poly_quotient"):
        n = ast[1]
        if not 2 <= n <= MAX_RING_SIZE:
            return None
        try:
            origin = ast if kind == "modular" else (kind, n, _poly_normalize(n, list(ast[2])))
        except InvalidSpecError:
            return None
        size = n ** (len(origin[2]) - 1) if kind == "poly_quotient" else n
        return (size, ring_key(origin)) if size <= MAX_RING_SIZE else None
    if kind not in ("product", "idealization"):
        return None
    left = _sized(ast[1])
    right = left and _sized(ast[2] if kind == "product" else ast[2][1])
    if right is None:
        return None
    if kind == "idealization" and left[1] != right[1]:
        raise DslError(f"module base {right[1]} differs from ring {left[1]}")
    if kind == "idealization" and ast[2][0] != "regular":
        return None
    if kind == "product":
        key = _product_key(left[1], ast[2][0], right[1])
    else:  # R (+) R, its module spelled as its ring
        atom = _bracketed(ast[1][0], left[1])
        key = f"{atom} (+) {atom}"
    _check_size(key, left[0] * right[0])
    return left[0] * right[0], key


def bind_ring(ast):
    """The ring that a parsed ring recipe names."""
    kind = ast[0]
    if kind == "integer":
        return integers()
    if kind == "modular":
        return modular(ast[1])
    if kind == "poly_quotient":
        return poly_quotient(ast[1], list(ast[2]))
    if kind == "product":
        return _bind_product(ast)
    _sized(ast)  # an idealization too large to build is refused before its operands are built
    base = bind_ring(ast[1])
    if kind == "idealization":
        module = ast[2]
        mod_base = bind_ring(module[1])
        if mod_base is not base:
            raise DslError(f"module base {mod_base.key} differs from ring {base.key}")
        spec = ("regular" if module[0] == "regular"
                else ("quotient", bind_ideal(base, module[2])))
        return idealization(base, make_module(base, spec)).ring
    if kind == "localization":
        elems = [bind_element(base, e) for e in ast[2]]
        sset = MultiplicativeSet(base, tuple(sorted({e.idx for e in elems})))
        return localize(base, sset).ring
    return quotient_ring(base, bind_ideal(base, ast[2])).ring


def _bind_product(ast):
    """L x R, an operand that ``_sized`` cannot size (a quotient, a localization)
    bound first, so that a product too large is refused, as ``product`` would
    refuse it, before an operand sized by its recipe is built."""
    sides = []  # per operand, in order: ((size, name), None) or (None, its bound ring)
    for side in ast[1:]:
        size = _sized(side)
        sides.append((size, None if size else bind_ring(side)))
    if all(size or ring.is_finite for size, ring in sides):
        (ls, lk), (rs, rk) = (size or (ring.size, ring.key) for size, ring in sides)
        _check_size(_product_key(lk, ast[2][0], rk), ls * rs)
    return product(*(ring or bind_ring(side) for (_, ring), side in zip(sides, ast[1:])))


def bind_element(ring, ast):
    """The element a parsed element names in ``ring``.  Every element of a
    quotient, and every element but a fraction r/s of a localization, is named
    as the image of the base element it names under the canonical surjection
    q; r/s names q(r) q(s)^-1, q(s) being a unit of the localization."""
    tag = ast[0]
    inner = ring
    while tag == "frac" and inner.origin[0] == "quotient":  # a quotient of a localization
        inner = inner.origin[1]
    if tag == "frac" and inner.origin[0] != "localization":
        raise DslError(f"fractions r/s name elements of a localization only, not of {ring.key}")
    kind = ring.origin[0]
    if kind == "quotient":
        _, base, J = ring.origin
        return quotient_ring(base, J).projection(bind_element(base, ast))
    if kind == "localization":
        _, base, sset = ring.origin
        rec = localize(base, sset)
        if tag != "frac":
            return rec.canonical(bind_element(base, ast))
        r, s = bind_element(base, ast[1]), bind_element(base, ast[2])
        if s.idx not in sset.indices:
            raise DslError(f"denominator {s!r} is not in the multiplicative set")
        q = rec.canonical.mapping
        return ring.el(ring.mul[q[r.idx]][indexOf(ring.mul[q[s.idx]], ring.one_idx)])
    if tag == "pair":
        if kind == "product":
            _, left, right = ring.origin
            a = bind_element(left, ast[1])
            b = bind_element(right, ast[2])
            return ring.from_payload((a.payload, b.payload))
        if kind == "idealization":
            _, base, module = ring.origin
            r = bind_element(base, ast[1])
            m = _bind_module_element(module, ast[2])
            return ring.el(r.idx * module.size + m)
        raise DslError(f"pair elements do not exist in {ring.key}")
    if tag == "int":
        if not ring.is_finite:
            return ring.el(ast[1])
        if kind == "modular":
            return ring.el(ast[1] % ring.size)
        if kind == "poly_quotient":
            return _poly_element(ring, ast[1:])
        raise DslError(f"plain integers do not name elements of {ring.key}")
    if kind == "poly_quotient":
        return _poly_element(ring, ast[1])
    raise DslError(f"polynomial elements do not exist in {ring.key}")


def _poly_element(ring, coeffs):
    _, n, modulus = ring.origin
    raw = tuple(c % n for c in coeffs) or (0,)
    return ring.from_payload(_poly_mul_reduce(raw, (1,), n, modulus))


def _bind_module_element(module, ast):
    # R and R/I name their elements by base elements, pairs only over a pair ring
    if module.base_to_module is None or ast[0] == "pair" and (
            module.ring.origin[0] not in ("product", "idealization")):
        raise DslError("this module's elements are not expressible in the DSL")
    base_elem = bind_element(module.ring, ast)
    return module.base_to_module[base_elem.idx]


def bind_ideal(ring, gens_ast):
    return ideal_from_generators(ring, [bind_element(ring, g) for g in gens_ast])


def bind_expansion(ring, ast):
    """The expansion of ``ring`` that a parsed expansion recipe names, built by
    ``make_expansion`` from the recipe's tag and its bound operands."""
    kind = ast[0]
    if kind == "compose":
        param = (bind_expansion(ring, ast[1]), bind_expansion(ring, ast[2]))
    else:
        param = bind_ideal(ring, ast[1]) if len(ast) > 1 else None
    return make_expansion(ring, kind, param)


# ---------------------------------------------------------------------------
# printers (canonical forms; parse o print is the identity)
# ---------------------------------------------------------------------------

def print_elem(ast):
    tag = ast[0]
    if tag == "pair":
        return f"({print_elem(ast[1])},{print_elem(ast[2])})"
    if tag == "frac":
        return "/".join(f"({print_elem(side)})" if side[0] == "frac" else print_elem(side)
                        for side in ast[1:])
    if tag == "int":
        return str(ast[1])
    return poly_repr(ast[1], descending=True)


def print_expansion(ast):
    kind = ast[0]
    if kind == "compose":
        return f"{print_expansion(ast[1])} o {print_expansion(ast[2])}"
    if len(ast) == 1:
        return _EXPANSION_WORDS[kind]
    gens = ",".join(print_elem(e) for e in ast[1]) or "0"
    return f"{_EXPANSION_WORDS[kind]}(({gens}))"
