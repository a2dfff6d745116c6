"""Parser/printer round-trips and diagnostics for the little language."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltan import DslError, modular
from deltan.dsl import (bind_expansion, bind_ideal, bind_ring,
                        parse_expansion_text, parse_ideal_text, parse_spec,
                        print_expansion, ring_to_dsl)
from deltan.verifier import builtin_corpus


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
        text = ring_to_dsl(entry.ring)
        assert bind_ring(parse_spec(text)).key == entry.ring.key
        assert ring_to_dsl(bind_ring(parse_spec(text))) == text


def test_expansion_print_parse_round_trip():
    for text in ("d0", "d1", "full", "d+((3))", "d*((2,4))", "d1 o d+((2))",
                 "d0 o d1 o full"):
        printed = print_expansion(parse_expansion_text(text))
        assert print_expansion(parse_expansion_text(printed)) == printed


@settings(max_examples=40)
@given(st.integers(2, 40))
def test_modular_round_trip(n):
    text = f"Z{n}"
    assert ring_to_dsl(bind_ring(parse_spec(text))) == text
    assert bind_ring(parse_spec(text)).size == n


def test_unrecognized_character():
    with pytest.raises(DslError) as err:
        parse_spec("Z6 @")
    assert err.value.column == 4
