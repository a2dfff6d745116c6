"""The forms in which the benchmark harness calls deltan.

``bench/spans.py``, ``bench/worker.py`` and ``bench/tests`` call into deltan
in forms that no other test here pins, and parse the command line's output
with their own patterns.  Each test below makes one of those calls in the same
form, so that a change that breaks one fails here, not in a benchmark run.
"""

import contextlib
import io
import re

from deltan import claims, cli, expansions, ideals, predicates, verifier
from deltan.rings import modular

# bench/worker.py's patterns for the flag rows of classify and the header of ideals
_FLAG = re.compile(r"^(n-ideal|quasi n-ideal|proper|delta-n-ideal \((\w+)\)): (true|false)",
                   re.MULTILINE)
_HEADER = re.compile(r"\((\d+) ideals\):$", re.MULTILINE)


def test_the_delta_n_method_is_taken_positionally():
    # bench/spans.py's traced wrapper passes (I, delta, method)
    ring = modular(12)
    delta = expansions.delta1(ring)
    for I in ideals.enumerate_ideals(ring):
        if I.is_proper:
            for method in predicates.DELTA_N_METHODS:
                assert (predicates.is_delta_n_ideal(I, delta, method)
                        == predicates.is_delta_n_ideal(I, delta, method=method)
                        == predicates.is_delta_n_ideal(I, delta))


def test_the_verifier_runs_the_checkers_that_the_harness_wraps_in_place():
    # bench/worker.py replaces each entry of verifier.CHECKERS by a timing
    # wrapper, runs run_claims, and puts the originals back
    assert verifier.CHECKERS is claims.CHECKERS
    assert verifier.enumerate_ideals is ideals.enumerate_ideals  # bench/tests patches it
    ring = modular(6)
    assert [d.name() for d in verifier.catalog(ring)][:3] == ["delta0", "delta1", "full"]
    checkers = verifier.CHECKERS
    originals = dict(checkers)
    seen = []

    def timed(checker):
        def wrapper(ctx):
            for verdict in checker(ctx):
                seen.append(verdict)
                yield verdict
        return wrapper

    for claim_id, checker in originals.items():
        checkers[claim_id] = timed(checker)
    try:
        corpus = verifier.Corpus((verifier.CorpusEntry(ring, verifier.catalog(ring)),))
        reports = verifier.run_claims(corpus=corpus)
    finally:
        checkers.update(originals)
    assert checkers == originals
    assert len(seen) == sum(r.instances_checked for r in reports) > 0
    for rep in reports:
        assert rep.holds + rep.hypothesis_not_met + rep.failed == rep.instances_checked
        assert rep.failed == 0 and rep.witnesses == ()


def test_the_delta_n_spectrum_lists_its_ideals_under_all():
    # bench/worker.py compares {I.mask for I in spectrum.all} with its decisions
    ring = modular(12)
    delta = expansions.delta1(ring)
    spectrum = predicates.delta_n_spectrum(ring, delta)
    assert {I.mask for I in spectrum.all} == {
        I.mask for I in ideals.enumerate_ideals(ring)
        if I.is_proper and predicates.is_delta_n_ideal(I, delta, "definition")}


def _main(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def test_classify_and_ideals_print_the_rows_the_harness_parses():
    code, text = _main(["classify", "Z12", "(2)", "--delta", "d1"])
    assert code == 0
    flags, methods = {}, {}
    for m in _FLAG.finditer(text):
        if m.group(2):
            methods[m.group(2)] = m.group(3) == "true"
        else:
            flags[m.group(1)] = m.group(3) == "true"
    assert flags == {"proper": True, "n-ideal": False, "quasi n-ideal": False}
    assert list(methods) == list(predicates.DELTA_N_METHODS) and len(methods) == 4
    assert set(methods.values()) == {False}
    code, text = _main(["ideals", "Z12"])
    assert code == 0 and [int(n) for n in _HEADER.findall(text)] == [6]
