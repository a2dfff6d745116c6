"""Parser/printer round-trips and diagnostics for the little language."""

import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltan import DeltanError, DslError, localize, modular, mult_closure, quotient_ring
from deltan.cli import main
from deltan.constructions import idealization, make_module
from deltan.ideals import unit_ideal
from deltan.rings import integers, poly_quotient, product
from deltan.dsl import (bind_element, bind_expansion, bind_ideal, bind_ring,
                        parse_expansion_text, parse_ideal_text, parse_spec,
                        print_elem, print_expansion)
from deltan.ideals import enumerate_ideals, nilradical
from deltan.verifier import builtin_corpus

ROOT = Path(__file__).resolve().parent.parent


def test_parse_poly_quotient():
    ring = bind_ring(parse_spec("Z4[x]/(x^3)"))
    assert ring.key == "Z4[x]/(x^3)" and ring.size == 64
    # coefficient-list form of the same modulus
    assert bind_ring(parse_spec("Z4[x]/([0,0,0,1])")) is ring


def test_parse_product():
    ring = bind_ring(parse_spec("Z4 x Z9"))
    assert ring.size == 36


def test_parse_idealization_and_loc_quot():
    assert bind_ring(parse_spec("Z2 (+) Z2")).size == 4
    assert bind_ring(parse_spec("Z8 (+) Z8/(4)")).size == 32
    assert bind_ring(parse_spec("loc(Z12,{1,4})")).size == 3
    assert bind_ring(parse_spec("quot(Z12,(6))")).size == 6
    assert not bind_ring(parse_spec("ZZ")).is_finite


def test_whitespace_insensitive():
    a = bind_ring(parse_spec("Z4xZ9"))
    b = bind_ring(parse_spec("  Z4   x   Z9 "))
    assert a is b


def test_syntax_error_position():
    with pytest.raises(DslError) as err:
        parse_spec("Z6 )")
    assert err.value.line == 1 and err.value.column == 4
    assert "end of input" in err.value.expected


def test_error_expected_set():
    with pytest.raises(DslError) as err:
        parse_spec("foo")
    assert "ZZ" in err.value.expected and "Z<n>" in err.value.expected


def test_semantic_error_reported_after_binding():
    with pytest.raises(DslError):
        bind_ideal(modular(6), parse_ideal_text("((1,0))"))  # pairs need a product


def test_ideal_binding():
    z12 = modular(12)
    I = bind_ideal(z12, parse_ideal_text("(4,6)"))
    assert {e.idx for e in I.elements()} == {0, 2, 4, 6, 8, 10}
    assert bind_ideal(z12, parse_ideal_text("()")).is_zero
    assert bind_ideal(z12, parse_ideal_text("(0)")).is_zero


def test_poly_element_binding():
    ring = bind_ring(parse_spec("Z4[x]/(x^3)"))
    I = bind_ideal(ring, parse_ideal_text("(2, x)"))
    assert I.size == 32
    # reduction happens for degrees above the modulus
    J = bind_ideal(ring, parse_ideal_text("(x^3)"))
    assert J.is_zero


def test_expansion_binding():
    z12 = modular(12)
    d = bind_expansion(z12, parse_expansion_text("d+((2))"))
    assert d.name() == "delta_plus(gens=[2])"
    comp = bind_expansion(z12, parse_expansion_text("d1 o d+((2))"))
    assert comp.kind == "compose"
    assert bind_expansion(z12, parse_expansion_text("full")).kind == "full"


def test_ring_round_trip_on_corpus():
    for entry in builtin_corpus().entries:
        assert bind_ring(parse_spec(entry.ring.key)) is entry.ring


LIVE_RINGS_PARSE_BACK = """
import collections, gc, json
from deltan.dsl import bind_ring, parse_spec
from deltan.rings import Ring
from deltan.verifier import builtin_corpus, run_claims
corpus = builtin_corpus()
run_claims(corpus=corpus)
kinds = collections.Counter()
for ring in [o for o in gc.get_objects() if isinstance(o, Ring)]:
    assert bind_ring(parse_spec(ring.key)) is ring, ring.key
    kinds[ring.origin[0]] += 1
print(json.dumps(kinds))
"""


def test_every_ring_a_default_verification_builds_parses_back_to_itself():
    """The corpus rings and every quotient, localization, product and
    idealization the claims build on them: each ring alive after a default
    verification, in a fresh interpreter, is named by a key that binds to it."""
    proc = subprocess.run([sys.executable, "-c", LIVE_RINGS_PARSE_BACK],
                          cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                          capture_output=True, text=True, check=True)
    kinds = json.loads(proc.stdout)
    assert set(kinds) == {"modular", "poly_quotient", "integer", "product", "quotient",
                          "idealization", "localization"}
    assert kinds["quotient"] > 100 and kinds["localization"] > 100, kinds


def test_expansion_print_parse_round_trip():
    for text in ("d0", "d1", "full", "d+((3))", "d*((2,4))", "d1 o d+((2))",
                 "d0 o d1 o full"):
        printed = print_expansion(parse_expansion_text(text))
        assert print_expansion(parse_expansion_text(printed)) == printed


@settings(max_examples=40)
@given(st.integers(2, 40))
def test_modular_round_trip(n):
    text = f"Z{n}"
    assert bind_ring(parse_spec(text)).key == text
    assert bind_ring(parse_spec(text)).size == n


def test_unrecognized_character():
    with pytest.raises(DslError) as err:
        parse_spec("Z6 @")
    assert err.value.column == 4


def _element(ring, text):
    return bind_element(ring, parse_ideal_text(f"({text})")[0])


def test_idealization_elements_bind_through_the_module():
    # over the regular module m names itself; over R/I it names its coset,
    # printed by its least representative
    regular = bind_ring(parse_spec("Z4 (+) Z4"))
    a = _element(regular, "(3,2)")
    assert (a.idx, a.payload, repr(a)) == (3 * 4 + 2, (3, 2), "(3,2)")
    quotient = bind_ring(parse_spec("Z8 (+) Z8/(4)"))
    b = _element(quotient, "(3,6)")
    assert (b.payload, repr(b)) == ((3, 2), "(3,2)")
    assert _element(quotient, "(5,-1)").payload == (5, 3)
    assert bind_ideal(quotient, parse_ideal_text("((0,1))")).size == 4


def test_module_elements_must_be_base_elements():
    ring = bind_ring(parse_spec("Z4 (+) Z4"))
    with pytest.raises(DslError, match="not expressible"):
        _element(ring, "(1,(1,1))")


def _with_derived_rings(ring):
    """The ring, its quotients by its least nonzero and its last proper ideal,
    and its localization at the powers of its last element that is neither
    nilpotent nor a unit (at {1} when there is none)."""
    lattice = enumerate_ideals(ring)
    yield ring
    for J in dict.fromkeys((lattice[1], lattice[-2])):
        if J.is_proper:
            yield quotient_ring(ring, J).ring
    nil = nilradical(ring).mask
    a = next((a for a in reversed(range(ring.size))
              if not nil >> a & 1 and ring.one_idx not in ring.mul[a]), ring.one_idx)
    yield localize(ring, mult_closure(ring, [ring.el(a)])).ring


@pytest.mark.parametrize("entry", builtin_corpus().entries, ids=lambda e: e.ring.key)
def test_printed_rings_and_ideals_parse_back_to_themselves(entry):
    for ring in _with_derived_rings(entry.ring):
        assert bind_ring(parse_spec(ring.key)) is ring
        for I in enumerate_ideals(ring):
            assert bind_ideal(ring, parse_ideal_text(repr(I))) is I, (ring.key, I)


NESTED_LOCALIZATIONS = ["loc(loc(Z12,{1,3,9}),{1})",
                        "loc(loc(loc(Z12,{1,3,9}),{1}),{1})",
                        "loc(quot(loc(Z12,{1,5}),(3)),{1})",
                        "loc(Z2 x loc(Z4,{1,3}),{(1,1)})"]


@pytest.mark.parametrize("text", NESTED_LOCALIZATIONS)
def test_a_localization_over_fractions_prints_and_reads_bracketed_sides(text):
    # an element of a localization prints as the base element it names, so a
    # localization over a localization prints and reads no fraction at all
    ring = bind_ring(parse_spec(text))
    assert ring.key == text
    for I in enumerate_ideals(ring):
        assert bind_ideal(ring, parse_ideal_text(repr(I))) is I, (ring.key, I)


def _nested_localization(levels):
    return "loc(" * levels + "Z6" + ",{1})" * levels


def test_nested_localizations_print_in_linear_length(capsys):
    text = _nested_localization(18)
    assert main(["ideals", text]) == 0
    assert len(capsys.readouterr().out.encode()) < 20_000
    ring = bind_ring(parse_spec(text))
    assert ring.key == text
    for I in enumerate_ideals(ring):
        assert bind_ideal(ring, parse_ideal_text(repr(I))) is I, (ring.key, I)
    start = time.perf_counter()
    assert main(["classify", _nested_localization(99), "(3)", "--delta", "d1"]) == 0
    assert time.perf_counter() - start < 1.0
    assert "ideal: (3) (2 elements)" in capsys.readouterr().out


def _bracketed_ring(text):
    """The ring a bracketed text names, built through the API, not the parser."""
    from deltan import product
    from deltan.constructions import idealization, make_module
    z2, z3 = modular(2), modular(3)
    right = product(z3, z2)
    return {
        "Z2 x (Z3 x Z2)": lambda: product(z2, right),
        "Z2 x (Z2 (+) Z2)": lambda: product(z2, idealization(z2, make_module(z2, "regular")).ring),
        "(Z3 x Z2) (+) (Z3 x Z2)": lambda: idealization(right, make_module(right, "regular")).ring,
        "(Z3 x Z2) (+) (Z3 x Z2)/((0,1))":
            lambda: idealization(right, make_module(right, ("quotient", (0, 1)))).ring,
    }[text]()


@pytest.mark.parametrize("text", ["Z2 x (Z3 x Z2)", "Z2 x (Z2 (+) Z2)",
                                  "(Z3 x Z2) (+) (Z3 x Z2)", "(Z3 x Z2) (+) (Z3 x Z2)/((0,1))"])
def test_a_product_operand_prints_and_reads_bracketed(text):
    ring = _bracketed_ring(text)
    assert ring.key == text
    assert bind_ring(parse_spec(text)) is ring
    for I in enumerate_ideals(ring):
        assert bind_ideal(ring, parse_ideal_text(repr(I))) is I, (ring.key, I)


def test_brackets_group_a_product_and_change_nothing_else():
    right_nested = bind_ring(parse_spec("Z2 x (Z3 x Z2)"))
    assert bind_ring(parse_spec("Z2 x Z3 x Z2")) is not right_nested
    assert bind_ring(parse_spec("Z2 x Z3 x Z2")).key == "Z2 x Z3 x Z2"
    assert bind_ring(parse_spec("((Z6))")) is modular(6)
    with pytest.raises(DslError) as err:
        parse_spec("(Z6")
    assert err.value.expected == (")",)


def test_bracketed_elements():
    ring = bind_ring(parse_spec(NESTED_LOCALIZATIONS[0]))
    assert ring.element_repr(ring.zero_idx) == "0"
    assert _element(ring, "(0/1)/(1/1)") == ring.zero
    assert _element(ring, "(2/1)/(1/1)") == _element(ring, "(2)/1") == _element(ring, "2")
    # the unbracketed form reads as one fraction and stops at the second "/"
    with pytest.raises(DslError) as err:
        parse_ideal_text("(0/1/1/1)")
    assert err.value.column == 5
    nested = parse_ideal_text("((0/1)/(1/1))")
    assert parse_ideal_text(f"({print_elem(nested[0])})") == nested
    assert _element(modular(6), "((3))") == _element(modular(6), "3")


def test_fractions_name_elements_of_a_localization_only():
    ring = bind_ring(parse_spec("loc(Z12,{1,3,9})"))
    assert _element(ring, "2/1") == _element(ring, "2")
    assert _element(ring, "2/3") == _element(ring, "6") == _element(ring, "6/9")
    # 6 lies in the class of 2 mod ker = (4), and the class is the base element 2
    assert _element(ring, "2/3").payload == 2 and repr(_element(ring, "6")) == "2"
    # a pair in a localization names a base pair, never a fraction
    with pytest.raises(DslError, match="pair elements do not exist in Z12"):
        _element(ring, "(2,1)")
    over_product = bind_ring(parse_spec("loc(Z2 x Z4,{(1,1),(1,3)})"))
    assert _element(over_product, "(1,0)") == _element(over_product, "(1,0)/(1,1)")
    assert _element(over_product, "(1,0)/(1,3)").payload == (1, 0)
    # a fraction names an element of a quotient of a localization through the base
    quotient = bind_ring(parse_spec("quot(loc(Z12,{1,3,9}),(2/1))"))
    assert _element(quotient, "1/3").payload == 1
    # above 256 elements too, where a row is a view into Z_n's shared runs (ker = 0)
    field = bind_ring(parse_spec("loc(Z1021,{1,1020})"))
    assert _element(field, "3/1020") == _element(field, "1018")
    for text in ("Z12", "Z2 x Z2", "quot(Z12,(4))"):
        ring_of_text = bind_ring(parse_spec(text))
        with pytest.raises(DslError, match=re.escape(
                f"fractions r/s name elements of a localization only, not of {ring_of_text.key}")):
            bind_ideal(ring_of_text, parse_ideal_text("(2/1)"))
    with pytest.raises(DslError, match="not in the multiplicative set"):
        _element(ring, "1/2")


def test_binding_errors_carry_no_source_position():
    with pytest.raises(DslError) as err:
        bind_ideal(bind_ring(parse_spec("Z2 x Z2")), parse_ideal_text("(5)"))
    assert err.value.line is None and str(err.value) == (
        "plain integers do not name elements of Z2 x Z2")


def test_a_leading_minus_negates_the_first_term_only():
    assert parse_ideal_text("(-x+3)") == parse_ideal_text("(3-x)") == (("poly", (3, -1)),)
    assert parse_ideal_text("(-x-3)") == (("poly", (-3, -1)),)
    assert parse_ideal_text("(-5)") == (("int", -5),)
    ring = bind_ring(parse_spec("Z9[x]/(x^2)"))
    assert repr(bind_ideal(ring, parse_ideal_text("(-x+3)"))) == "(6+x)"


# text nested k levels deep, and the column of its 101st level when k > 100
NESTINGS = {
    "ring brackets": (parse_spec, lambda k: "(" * k + "Z6" + ")" * k, 101),
    "element brackets": (parse_ideal_text, lambda k: "(" * k + "1" + ")" * k, 101),
    "products": (parse_spec, lambda k: "Z2" + " x Z2" * k, 504),
    "idealizations": (parse_spec, lambda k: "Z2" + " (+) Z2" * k, 704),
    "compositions": (parse_expansion_text, lambda k: "d0" + " o d0" * k, 504),
    "brackets and products": (parse_spec, lambda k: "(" * 50 + "Z2" + " x Z2" * (k - 50)
                              + ")" * 50, 304),
}


@pytest.mark.parametrize("kind", NESTINGS)
def test_nesting_deeper_than_100_levels_is_refused_at_its_token(kind):
    parse, text, column = NESTINGS[kind]
    parse(text(100))
    with pytest.raises(DslError, match="nested more than 100 levels deep") as err:
        parse(text(101))
    assert err.value.column == column


def test_the_deepest_nesting_binds():
    z6 = modular(6)
    assert bind_ring(parse_spec("(" * 100 + "Z6" + ")" * 100)) is z6
    assert bind_ideal(z6, parse_ideal_text("(" * 100 + "2" + ")" * 100)).size == 3
    chain = bind_expansion(z6, parse_expansion_text("d0" + " o d0" * 100))
    assert chain.recipe[0] == "compose" and chain.table == bind_expansion(z6, ("delta0",)).table


def _query_texts():
    """The ring and --delta texts of the locked command-line queries."""
    queries = Path(__file__).resolve().parent / "data" / "cli_queries.txt"
    for line in queries.read_text(encoding="utf-8").splitlines():
        argv = json.loads(line)
        if argv[0] in ("ideals", "classify") and len(argv) > 1:
            delta = argv[argv.index("--delta") + 1] if "--delta" in argv else None
            yield argv[1], delta


def test_parsed_tags_are_the_tags_of_the_recipes_they_bind_to():
    bound = 0
    for ring_text, delta_text in _query_texts():
        try:
            ring = bind_ring(parse_spec(ring_text))
        except DeltanError:
            continue
        assert parse_spec(ring_text)[0] == ring.origin[0], ring_text
        if delta_text is not None:
            try:
                delta = bind_expansion(ring, parse_expansion_text(delta_text))
            except DeltanError:
                continue
            assert parse_expansion_text(delta_text)[0] == delta.recipe[0], delta_text
            bound += 1
    assert bound > 400


@pytest.mark.parametrize("text, message", [
    ("Z16[x]/(x^3) x Z3", "Z16[x]/(x^3) x Z3 would have 12288 elements"),
    ("Z4096 x Z2", "Z4096 x Z2 would have 8192 elements"),
    ("Z2 x Z8[x]/(x^4)", "Z2 x Z8[x]/(x^4) would have 8192 elements"),
    ("Z64 x Z64 x Z2", "Z64 x Z64 x Z2 would have 8192 elements"),
    ("quot(Z4096 x Z2, (0))", "Z4096 x Z2 would have 8192 elements"),
    ("(Z2 (+) Z2) x Z2048", "Z2 (+) Z2 x Z2048 would have 8192 elements"),
    ("Z65 (+) Z65", "Z65 (+) Z65 would have 4225 elements"),
    ("Z2 (+) Z16[x]/(x^3)", "module base Z16[x]/(x^3) differs from ring Z2"),
])
def test_a_product_too_large_to_build_is_refused_before_its_operands_are_built(
        monkeypatch, text, message):
    """The size of a recipe of Z_n, Z_n[x]/(f), products and regular
    idealizations is read off the recipe, so no operand of a product or an
    idealization that is too large is built: the refusal is its constructor's own."""
    from deltan import rings
    built = []
    monkeypatch.setattr(rings, "_cached_ring", lambda origin: built.append(origin))
    with pytest.raises(DeltanError) as err:
        bind_ring(parse_spec(text))
    assert str(err.value).startswith(message) and built == []


@pytest.mark.parametrize("text, message, unbuilt", [
    ("Z16[x]/(x^3) x quot(Z3,(0))", "Z16[x]/(x^3) x quot(Z3,(0)) would have 12288 elements",
     ("poly_quotient", 16, (0, 0, 0, 1))),
    ("quot(Z4,(2)) x Z4096", "quot(Z4,(2)) x Z4096 would have 8192 elements",
     ("modular", 4096)),
    ("loc(Z6,{1}) x (Z64 x Z64)", "loc(Z6,{1}) x (Z64 x Z64) would have 24576 elements",
     ("modular", 64)),
])
def test_a_product_is_sized_by_its_built_operand_before_the_other_is_built(
        monkeypatch, text, message, unbuilt):
    """A quotient or a localization is sized only once it is built, so it is
    bound first, and the product is refused before its operand sized by its
    recipe is built, with the message of the product constructor."""
    from deltan import rings
    built = []
    monkeypatch.setattr(rings, "_cached_ring",
                        lambda origin, _build=rings._cached_ring:
                        built.append(origin) or _build(origin))
    with pytest.raises(DeltanError) as err:
        bind_ring(parse_spec(text))
    assert str(err.value) == (f"{message}; table-backed rings and modules are "
                              f"limited to 4096")
    assert built and unbuilt not in built


@pytest.mark.parametrize("text, build", [
    ("Z64 x Z65", lambda: product(modular(64), modular(65))),
    ("Z65 (+) Z65", lambda: idealization(modular(65), make_module(modular(65), "regular"))),
    ("Z2 x Z2[x]/(x^6) x Z65",
     lambda: product(product(modular(2), poly_quotient(2, [0] * 6 + [1])), modular(65))),
    ("Z100000 x (Z64 x Z128)", lambda: modular(100000)),
    ("quot(Z6,(1)) x (Z64 x Z128)", lambda: quotient_ring(modular(6), unit_ideal(modular(6)))),
    ("Z6[x]/(2x^2+1) x Z4096 x Z2", lambda: poly_quotient(6, [1, 0, 2])),
    ("ZZ x Z64 x Z65", lambda: product(integers(), modular(64))),
])
def test_a_refusal_before_the_build_is_the_one_the_constructors_give_first(text, build):
    """An operand that its own constructor refuses, or whose size is known only
    once it is built, is bound first, as it was before any size was read."""
    with pytest.raises(DeltanError) as want:
        build()
    with pytest.raises(DeltanError) as got:
        bind_ring(parse_spec(text))
    assert str(got.value) == str(want.value)
