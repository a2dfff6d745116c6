"""Corpus contents, claim runner behavior, reports, determinism."""

import hashlib
import json
from pathlib import Path

import pytest

from deltan import (DeltanError, InfiniteRingError, UnknownClaimError, delta0, delta1,
                    delta_n_spectrum, enumerate_ideals, full_expansion, modular)
from deltan.claims import CLAIMS
from deltan.dsl import bind_ring, parse_spec
from deltan.verifier import (Corpus, CorpusEntry, builtin_corpus, catalog,
                             claim_ids, find_counterexample, load_corpus, render_json,
                             render_text, run_claims)


def test_corpus_contents():
    corpus = builtin_corpus()
    keys = [e.ring.key for e in corpus.entries]
    assert len(keys) == 32
    assert "Z4[x]/(x^3)" in keys
    assert "Z6" in keys
    assert "Z4 x Z9" in keys
    assert "Z8 (+) Z8/(4)" in keys
    for e in corpus.entries:
        assert e.ring.size <= 64
        names = [d.name() for d in e.expansions]
        assert names[0] == "delta0" and names[1] == "delta1" and names[2] == "full"
        assert names[-1].startswith("compose(delta1, delta_plus")
        assert len(names) == len(set(names))


def test_corpus_z6_has_delta1():
    corpus = builtin_corpus()
    z6 = next(e for e in corpus.entries if e.ring.key == "Z6")
    assert any(d.name() == "delta1" for d in z6.expansions)


def test_catalog_covers_parameter_ideals():
    z12 = modular(12)
    cat = catalog(z12)
    plus = [d for d in cat if d.kind == "delta_plus"]
    star = [d for d in cat if d.kind == "delta_star"]
    assert len(plus) == 5   # every proper ideal of Z12
    assert len(star) == 5   # every nonzero ideal of Z12


def test_run_claims_default_excludes_self_tests():
    names = claim_ids()
    assert "selftest-z6-all-n-ideals" not in names
    assert "thm-four-equivalents" in names
    assert len(names) == len([c for c in CLAIMS if not c.self_test])


def test_unknown_claim_id():
    with pytest.raises(UnknownClaimError):
        run_claims(claim_ids=["no-such-claim"])
    with pytest.raises(UnknownClaimError):
        find_counterexample("no-such-claim")


def test_report_count_invariant():
    reports = run_claims(claim_ids=["prop-subset-nilradical", "thm-existence"])
    for rep in reports:
        assert rep.holds + rep.hypothesis_not_met + rep.failed == rep.instances_checked
        assert len(rep.witnesses) == min(rep.failed, 5)


def test_hypothesis_gated_claim_has_no_witness():
    assert find_counterexample("prop-intersection-noncomparable") is None


def test_product_obstruction_has_no_witness():
    assert find_counterexample("rem-product-obstruction") is None


def test_selftest_claims_produce_witnesses():
    w = find_counterexample("selftest-z6-all-n-ideals")
    assert w is not None
    assert w.ideal == "(0)" and w.elements == "a=2, b=3"
    w2 = find_counterexample("selftest-z12-nilradical-prime")
    assert w2 is not None and w2.elements == "a=2, b=3"


def test_selftest_counts_every_failure():
    reports = run_claims(claim_ids=["selftest-z6-all-n-ideals"], witness_cap=2)
    rep = reports[0]
    assert rep.failed == 3          # none of the three proper ideals is an n-ideal
    assert len(rep.witnesses) == 2  # capped
    assert rep.holds + rep.hypothesis_not_met + rep.failed == rep.instances_checked


def test_reports_deterministic():
    ids = ["thm-existence", "prop-loc-forward", "prop-maximal-is-nilradical"]
    assert render_json(run_claims(claim_ids=ids)) == render_json(run_claims(claim_ids=ids))


def test_json_schema():
    reports = run_claims(claim_ids=["audit-example-unit-ideal"])
    payload = json.loads(render_json(reports))
    assert isinstance(payload, list) and len(payload) == 1
    rec = payload[0]
    assert set(rec) == {"claim_id", "title", "instances_checked", "holds",
                        "hypothesis_not_met", "failed", "failures", "notes"}
    assert rec["failed"] == 0 and rec["failures"] == []
    assert any("inconsistent" in note for note in rec["notes"])


def test_render_text_mentions_counts():
    reports = run_claims(claim_ids=["thm-existence"])
    text = render_text(reports)
    assert "thm-existence" in text
    assert "hypothesis_not_met=" in text
    assert "total failures: 0" in text


def test_every_claim_has_checker_and_metadata():
    from deltan import claims, verifier
    from deltan.claims import CHECKERS
    for claim in CLAIMS:
        assert claim.id in CHECKERS
        assert claim.statement and claim.title and claim.quantifies
    ids = [c.id for c in CLAIMS]
    assert len(set(ids)) == len(ids)
    # one registry: declaration order is report order, and the runner reads
    # the very dict the checkers were registered in
    assert list(CHECKERS) == ids
    assert verifier.CHECKERS is claims.CHECKERS


def test_full_default_suite_has_zero_failures(default_verification):
    _, _, reports, _ = default_verification
    assert len(reports) == len([c for c in CLAIMS if not c.self_test])
    for rep in reports:
        assert rep["failed"] == 0, rep["claim_id"]
        assert rep["holds"] + rep["hypothesis_not_met"] == rep["instances_checked"]


def test_default_report_is_byte_identical_to_the_committed_digest(default_verification):
    """The default ``verify --json`` report is pinned by its SHA-256, so any
    change that alters a count, a witness or the layout shows here."""
    *_, text = default_verification
    digest_file = Path(__file__).resolve().parents[1] / "bench" / "verify_default.sha256"
    expected = digest_file.read_text(encoding="utf-8").split()[0]
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == expected


# ---------------------------------------------------------------------------
# isomorphic constructions agree
# ---------------------------------------------------------------------------

# each pair with its (element count, lattice size, delta0 / delta1 / full
# spectrum sizes)
ISOMORPHIC_PAIRS = [("quot(Z12,(4))", "Z4", (4, 3, [2, 2, 2])),
                    ("Z2 x Z3", "Z6", (6, 4, [0, 0, 3])),
                    ("loc(Z6,{1,3})", "Z2", (2, 2, [1, 1, 1])),
                    ("Z4 x Z9", "Z36", (36, 9, [0, 0, 8])),
                    ("Z2 x Z2", "Z2[x]/(x^2+x)", (4, 4, [0, 0, 3]))]


def _invariants(text):
    """Element count, lattice size, delta0 / delta1 / full spectrum sizes, and
    the per-claim counts of a one-ring corpus.  rem-product-obstruction is
    left out: it quantifies over rings built as products only."""
    ring = bind_ring(parse_spec(text))
    spectra = [len(delta_n_spectrum(ring, d(ring)).all)
               for d in (delta0, delta1, full_expansion)]
    reports = run_claims(Corpus(entries=(CorpusEntry(ring, catalog(ring)),)))
    counts = {r.claim_id: (r.instances_checked, r.holds, r.hypothesis_not_met, r.failed)
              for r in reports if r.claim_id != "rem-product-obstruction"}
    return (ring.size, len(enumerate_ideals(ring)), spectra), counts


@pytest.mark.parametrize("left, right, expected", ISOMORPHIC_PAIRS)
def test_isomorphic_constructions_have_equal_invariants(left, right, expected):
    sizes, counts = _invariants(left)
    assert sizes == expected
    assert _invariants(right) == (sizes, counts)
    assert len(counts) == len(claim_ids()) - 1
    assert sum(c[0] for c in counts.values()) > 0


def test_load_corpus_reads_one_ring_a_line(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("# a comment\n\n  Z6  \nZ2 x Z2\n# Z8\n")
    corpus = load_corpus(path)
    assert [e.ring.key for e in corpus.entries] == ["Z6", "Z2 x Z2"]
    for e in corpus.entries:
        assert e.expansions == catalog(e.ring)


@pytest.mark.parametrize("name", ["missing.txt", ""])
def test_load_corpus_reports_an_unreadable_file(tmp_path, name):
    with pytest.raises(DeltanError, match="^cannot read corpus file "):
        load_corpus(tmp_path / name)


def test_load_corpus_reports_an_undecodable_file(tmp_path):
    path = tmp_path / "corpus.bin"
    path.write_bytes(b"\xff\xfe")
    with pytest.raises(DeltanError, match="^cannot read corpus file .*codec"):
        load_corpus(path)


def test_load_corpus_rejects_an_infinite_ring(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("Z6\nZZ\n")
    with pytest.raises(InfiniteRingError, match="finite rings only"):
        load_corpus(path)


@pytest.mark.parametrize("text, first, again", [("Z6\nZ6\n", 1, 2),
                                                 ("Z4xZ9\n# a comment\n\nZ4 x Z9\n", 1, 4)])
def test_load_corpus_rejects_a_ring_listed_twice(tmp_path, text, first, again):
    # two spellings of one ring are one ring: its counts would double
    path = tmp_path / "corpus.txt"
    path.write_text(text)
    key = bind_ring(parse_spec(text.split("\n")[0])).key
    with pytest.raises(DeltanError) as info:
        load_corpus(path)
    assert str(info.value) == (f"corpus file {path}: ring {key} on line {again} "
                               f"is already listed on line {first}")


def test_run_claims_rejects_a_negative_witness_cap():
    with pytest.raises(ValueError, match="^witness_cap must be at least 0, got -3$"):
        run_claims(claim_ids=["selftest-z6-all-n-ideals"], witness_cap=-3)
    [report] = run_claims(claim_ids=["selftest-z6-all-n-ideals"], witness_cap=0)
    assert (report.failed, report.witnesses) == (3, ())
