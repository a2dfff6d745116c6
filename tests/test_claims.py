"""Claim checkers on masks: every failure branch runs and builds its witness.

No checker fails on the default corpus, so the witness code would otherwise
run only on a real counterexample.  Here the delta-n sets the checkers read
are replaced by wrong ones (empty, inverted, every proper ideal, the zero
ideal alone or every nonzero proper ideal, chosen apart for base and derived
expansions).  The homomorphism checkers are also given identity maps paired
with every (delta, gamma), and the radical checker a radical that is the
identity.
"""

from itertools import product as pairs_of

import pytest

from deltan import claims, enumerate_ideals, modular, product
from deltan.claims import CHECKERS, FAIL
from deltan.constructions import Homomorphism, idealization, make_module
from deltan.verifier import Context, Corpus, CorpusEntry, catalog

CONVERTED = (
    "prop-subset-nilradical", "prop-primary-to-delta-n", "prop-delta-primary-iff-subset",
    "prop-prime-iff-nilradical", "thm-every-ideal-quasilocal", "lem-colon-stable",
    "thm-existence", "prop-idem-colon-expansion", "prop-idem-value-n-iff",
    "prop-idem-cancellation", "prop-idem-absorption", "prop-expansion-value-n",
    "prop-radical-value-n-iff", "prop-pointwise-monotone", "prop-compose-n-ideal",
    "prop-radical-transfer", "prop-sandwich", "prop-intersection",
    "prop-intersection-noncomparable", "lem-superfluous", "prop-sum-delta-n",
    "cor-quotient-forward", "cor-quotient-back-nilpotent", "cor-quotient-back-delta-n",
    "prop-hom-preimage", "prop-hom-image", "prop-hom-epi-pushforward",
    "rem-product-obstruction", "prop-idealization-transfer", "prop-idealization-radical",
    "prop-loc-forward", "prop-loc-backward", "prop-loc-regular-contract",
    "conj-proper-delta-n-is-n",
)

# claims about a whole ring: their failures name the ring, not one ideal
RING_LEVEL = {"thm-every-ideal-quasilocal", "thm-existence"}

REAL = claims.delta_n_masks


def _proper(delta):
    return {I.mask for I in enumerate_ideals(delta.ring) if I.is_proper}


def _zero(delta):
    return _proper(delta) & {1 << delta.ring.zero_idx}


MODES = {
    "real": REAL,
    "empty": lambda delta: set(),
    "inverted": lambda delta: _proper(delta) - REAL(delta),
    "all": _proper,
    "zero": _zero,
    "nonzero": lambda delta: _proper(delta) - _zero(delta),
}


def _small_context():
    z2 = modular(2)
    rings = (modular(4), modular(6), modular(8), product(z2, z2),
             idealization(z2, make_module(z2, "regular")).ring)
    return Context(Corpus(tuple(CorpusEntry(r, catalog(r)) for r in rings)))


def _mismatched_homs(ctx):
    """Each identity map paired with every (delta, gamma) of its catalog."""
    out = []
    for entry in ctx.entries:
        ring = entry.ring
        ident = Homomorphism(ring, ring, mapping=list(range(ring.size)))
        out.append((ident, tuple(pairs_of(entry.expansions, repeat=2))))
    return out


def _failures(monkeypatch, claim_id, base, derived, fault):
    ctx = _small_context()
    with monkeypatch.context() as m:
        m.setattr(claims, "delta_n_masks", lambda delta: MODES[
            derived if delta.kind.endswith("_derived") else base](delta))
        if fault == "n-ideals":
            # the scopes read the n-ideals off delta0's set: break that set alone
            m.setattr(claims, "delta_n_masks", lambda delta: MODES[
                "inverted" if delta.kind == "delta0" else "real"](delta))
        # a forced failure has no real witness pair; the scan is stubbed out
        m.setattr(claims, "delta_n_witness", lambda I, delta: (I.ring.zero, I.ring.one))
        m.setattr(claims, "n_ideal_witness", lambda I: (I.ring.zero, I.ring.one))
        if fault == "homs":
            m.setattr(ctx, "hom_instances", lambda: _mismatched_homs(ctx))
            m.setattr(claims, "is_delta_gamma_homomorphism", lambda f, d, g: True)
        if fault == "radical":
            m.setattr(claims, "_radical_mask", lambda ring, imask: imask)
        return [w for status, w in CHECKERS[claim_id](ctx) if status == FAIL]


@pytest.mark.parametrize("claim_id", CONVERTED)
def test_every_failure_branch_builds_its_witness(monkeypatch, claim_id):
    failures = []
    for base, derived in pairs_of(MODES, repeat=2):
        failures += _failures(monkeypatch, claim_id, base, derived, None)
    for fault in ("homs", "radical", "n-ideals"):
        failures += _failures(monkeypatch, claim_id, "real", "real", fault)
    assert failures, claim_id
    for w in failures:
        assert w.ring, (claim_id, w)
        assert w.ideal or claim_id in RING_LEVEL, (claim_id, w)


def test_verdict_kernel_keeps_skips_apart_from_holds_and_failures():
    """A failed hypothesis is a skip whatever the conclusion says, and the
    witness is built for failures only, in instance order."""
    built = []
    verdicts = list(claims._verdicts(iter([(n,) for n in range(6)]),
                                     lambda n: n % 2 == 0, lambda n: n < 4,
                                     lambda n: built.append(n) or f"w{n}"))
    assert verdicts == [("holds", None), ("skip", None), ("holds", None),
                        ("skip", None), ("fail", "w4"), ("skip", None)]
    assert built == [4]


@pytest.mark.parametrize("claim_id", ["prop-nilradical-primary-iff", "thm-von-neumann-field",
                                      "prop-zero-divisor-quotient"])
def test_single_decision_checkers_build_their_witness(monkeypatch, claim_id):
    """These read one delta-n decision per (ring, delta); inverting it forces failures."""
    real = claims._dn
    monkeypatch.setattr(claims, "_dn", lambda I, delta: not real(I, delta))
    failures = [w for status, w in CHECKERS[claim_id](_small_context()) if status == FAIL]
    assert failures
    for w in failures:
        assert w.ring and w.expansion and w.ideal, (claim_id, w)


def test_one_run_builds_each_catalog_delta_n_set_once(monkeypatch):
    """The scopes of a corpus entry are built once per run and every checker,
    the spectrum and the n-ideal sets included, reads the catalog sets from
    them; only derived expansions build their own."""
    from deltan import predicates
    from deltan.verifier import builtin_corpus, run_claims
    built = []
    for module in (claims, predicates):
        monkeypatch.setattr(module, "delta_n_masks",
                            lambda delta: built.append(delta) or REAL(delta))
    catalog_ids = {id(d) for entry in builtin_corpus().entries for d in entry.expansions}
    run_claims()
    from_catalog = [d for d in built if id(d) in catalog_ids]
    assert len(catalog_ids) == len(from_catalog) == 376
    assert {id(d) for d in from_catalog} == catalog_ids
    assert all(d.kind.endswith("_derived") or d.kind == "compose"
               for d in built if id(d) not in catalog_ids)
