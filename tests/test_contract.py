"""The command-line contract under a grammar fuzzer.

Queries are drawn from a grammar of the ring language (Z_n, Z_n[x]/(f),
products, ``quot``, ``loc`` and ``(+)``, on rings of at most 256 elements),
with ideals and expansions of those rings, and one character of an argument
is sometimes deleted, inserted or replaced.  Every query goes through
``cli.main`` for ``ideals``, ``classify`` and ``explain``, and must:

- exit 0 or 2, never 3 (an internal error);
- on exit 2, write exactly one ``error:`` line and nothing else;
- on exit 0, print a ring key and ideals that bind back to the very objects
  the query named;
- answer within QUERY_S seconds, the whole file within FILE_S seconds.

The draws are derandomized, so every run sends the same queries.
"""

import contextlib
import io
import re
import time
from collections import namedtuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltan.claims import CLAIMS
from deltan.cli import main
from deltan.dsl import (bind_expansion, bind_ideal, bind_ring, parse_expansion_text,
                        parse_ideal_text, parse_spec)
from deltan.expansions import apply_expansion
from deltan.ideals import enumerate_ideals

MAX_SIZE = 256
QUERY_S = 20
FILE_S = 15
# the characters a mutation inserts or writes over another
ALPHABET = "Zx()[]{},+-^/ o0123456789dfulq"
FUZZ = settings(max_examples=300, derandomize=True, database=None, deadline=None)


@pytest.fixture(scope="module", autouse=True)
def _file_clock():
    start = time.perf_counter()
    yield
    assert time.perf_counter() - start < FILE_S


# ---------------------------------------------------------------------------
# the grammar
# ---------------------------------------------------------------------------

# a drawn ring: its text, a bound on its size, its kind, the texts of its 0 and
# 1, and a strategy of the texts of its elements
Drawn = namedtuple("Drawn", "text size kind zero one elements")

def _poly_text(coeffs):
    """The polynomial with ascending ``coeffs``, highest term first; 0 for none."""
    terms = [("" if c == 1 and d else str(c)) + ("x" if d else "") + (f"^{d}" if d > 1 else "")
             for d, c in reversed(list(enumerate(coeffs))) if c]
    return "+".join(terms) or "0"


def _operand(ring):
    """The ring's text as the operand of x or (+), which bind to the left."""
    return f"({ring.text})" if ring.kind in ("product", "idealization") else ring.text


@st.composite
def _rings(draw, budget=MAX_SIZE, depth=2):
    kinds = ["modular", "poly"] + (["product", "quot", "loc", "idealization"]
                                  if depth and budget >= 4 else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "modular":
        n = draw(st.integers(2, min(budget, 16)))
        return Drawn(f"Z{n}", n, kind, "0", "1", st.integers(0, n - 1).map(str))
    if kind == "poly":
        n = draw(st.integers(2, min(budget, 4)))
        degree = draw(st.integers(1, max(d for d in (1, 2, 3, 4) if n ** d <= budget)))
        lower = draw(st.lists(st.integers(0, n - 1), min_size=degree, max_size=degree))
        elements = st.lists(st.integers(0, n - 1), max_size=degree).map(_poly_text)
        return Drawn(f"Z{n}[x]/({_poly_text(lower + [1])})", n ** degree, kind, "0", "1", elements)
    if kind == "product":
        left = draw(_rings(budget // 2, depth - 1))
        right = draw(_rings(budget // left.size, depth - 1))
        pairs = st.tuples(left.elements, right.elements).map(lambda p: f"({p[0]},{p[1]})")
        return Drawn(f"{left.text} x {_operand(right)}", left.size * right.size, kind,
                     f"({left.zero},{right.zero})", f"({left.one},{right.one})", pairs)
    if kind == "idealization":
        base = draw(_rings(int(budget ** 0.5), depth - 1))
        module = _operand(base)
        if draw(st.booleans()):
            module += "/" + draw(_ideals(base))
        pairs = st.tuples(base.elements, base.elements).map(lambda p: f"({p[0]},{p[1]})")
        return Drawn(f"{base.text} (+) {module}", base.size ** 2, kind,
                     f"({base.zero},{base.zero})", f"({base.one},{base.zero})", pairs)
    base = draw(_rings(budget, depth - 1))
    # elements of a quotient or a localization are named by base elements
    if kind == "quot":
        return base._replace(text=f"quot({base.text},{draw(_ideals(base))})", kind=kind)
    units = draw(st.lists(base.elements, max_size=2))
    return base._replace(text=f"loc({base.text},{{{','.join([base.one, *units])}}})", kind=kind)


def _ideals(ring):
    return st.lists(ring.elements, max_size=2).map(lambda gens: f"({','.join(gens)})")


@st.composite
def _expansions(draw, ring, depth=1):
    word = draw(st.sampled_from(["d0", "d1", "full", "d+", "d*"] + ["o"] * depth))
    if word == "o":
        return f"{draw(_expansions(ring, 0))} o {draw(_expansions(ring, 0))}"
    return f"{word}({draw(_ideals(ring))})" if word in ("d+", "d*") else word


@st.composite
def _mutated(draw, text):
    """``text`` with one character deleted, inserted or replaced."""
    op = draw(st.sampled_from(["delete", "insert", "replace"] if text else ["insert"]))
    i = draw(st.integers(0, len(text) - (op != "insert")))
    c = draw(st.sampled_from(ALPHABET))
    return text[:i] + (c if op != "delete" else "") + text[i + (op != "insert"):]


@st.composite
def _queries(draw):
    """A query, and half the time the same query with one argument mutated."""
    command = draw(st.sampled_from(["ideals", "classify", "classify", "explain"]))
    if command == "explain":
        argv = [command, draw(st.sampled_from([c.id for c in CLAIMS]))]
    else:
        ring = draw(_rings())
        argv = [command, ring.text]
        if command == "classify":
            argv.append(draw(_ideals(ring)))
            if draw(st.booleans()):
                argv += ["--delta", draw(_expansions(ring))]
    if draw(st.booleans()):
        i = draw(st.sampled_from([i for i, arg in enumerate(argv) if i and arg != "--delta"]))
        argv[i] = draw(_mutated(argv[i]))
    return argv


# ---------------------------------------------------------------------------
# the contract
# ---------------------------------------------------------------------------

def _run(argv):
    """(exit code, stdout, stderr) of one query, which must answer in QUERY_S."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert time.perf_counter() - start < QUERY_S, argv
    return code, out.getvalue(), err.getvalue()


def _binds_back(argv, out):
    """The printed ring key and ideals bind to the objects the query names."""
    ring = bind_ring(parse_spec(argv[1]))
    if argv[0] == "ideals":
        key = re.match(r"ideal lattice of (.*) \(\d+ ideals\):$", out, re.M).group(1)
        printed = re.findall(r"^  size +\d+   generators (.*)$", out, re.M)
        assert len(printed) == len(enumerate_ideals(ring))
        for text, I in zip(printed, enumerate_ideals(ring)):
            assert bind_ideal(ring, parse_ideal_text(text)) is I, (argv, text)
    else:
        ideal = bind_ideal(ring, parse_ideal_text(argv[2]))
        key = re.search(r"^ring: (.*) \((?:\d+ elements|infinite)\)$", out, re.M).group(1)
        text = re.search(r"^ideal: (\(.*?\))(?: \(\d+ elements\))?$", out, re.M).group(1)
        assert bind_ideal(ring, parse_ideal_text(text)) is ideal, (argv, text)
        if len(argv) > 3:
            delta = bind_expansion(ring, parse_expansion_text(argv[4]))
            text = re.search(r"^delta\(I\): (.*)$", out, re.M).group(1)
            assert bind_ideal(ring, parse_ideal_text(text)) is apply_expansion(delta, ideal)
    assert bind_ring(parse_spec(key)) is ring, (argv, key)


@FUZZ
@given(_queries())
def test_every_query_exits_0_or_2_and_what_it_prints_binds_back(argv):
    code, out, err = _run(argv)
    assert code in (0, 2), (argv, err)
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
        return
    assert err == ""
    if argv[0] != "explain":
        _binds_back(argv, out)


def test_verify_on_a_one_ring_corpus_file(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("# one ring\nquot(Z2 x Z8,((0,4)))\n", encoding="utf-8")
    code, out, err = _run(["verify", "--corpus", str(path)])
    assert code == 0 and err == "" and "claim verification report" in out
