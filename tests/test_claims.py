"""Claim checkers on masks: every verdict branch runs, and every failure branch
builds its witness.

No checker fails on the default corpus, so the witness code would otherwise
run only on a real counterexample.  Here the delta-n sets the checkers read
are replaced by wrong ones (empty, inverted, every proper ideal, the zero
ideal alone or every nonzero proper ideal, chosen apart for base and derived
expansions).  The homomorphism checkers are also given identity maps paired
with every (delta, gamma), and the radical checker a radical that is the
identity.  A claim that reads no delta-n set gets the faults ``FAULTS`` names:
each patches one module name that its checker reads.  One test traces
claims.py over all of these runs and asserts that every ``yield`` and every
lambda of every checker runs, but those ``UNREACHED`` lists with a reason.
"""

import ast
import re
import sys
from collections import Counter, defaultdict
from itertools import product as pairs_of
from pathlib import Path
from types import SimpleNamespace

import pytest

from deltan import (claims, compose_expansions, derive_localized_expansion, enumerate_ideals,
                    modular, poly_quotient, product, rings, unit_ideal, zero_ideal)
from deltan.claims import CHECKERS, CLAIMS, HOLDS, SKIP
from deltan.constructions import Homomorphism, MultiplicativeSet, idealization, make_module
from deltan.dsl import bind_ring, parse_spec
from deltan.expansions import Expansion
from deltan.ideals import special_sets
from deltan.verifier import Context, Corpus, CorpusEntry, builtin_corpus, catalog, run_claims

CONVERTED = (
    "prop-subset-nilradical", "prop-primary-to-delta-n", "prop-delta-primary-iff-subset",
    "prop-prime-iff-nilradical", "thm-every-ideal-quasilocal", "lem-colon-stable",
    "prop-maximal-is-nilradical", "thm-existence", "prop-idem-colon-expansion",
    "prop-idem-value-n-iff", "prop-idem-cancellation", "prop-idem-absorption",
    "prop-expansion-value-n", "prop-radical-value-n-iff", "prop-pointwise-monotone",
    "prop-compose-n-ideal", "prop-radical-transfer", "prop-sandwich", "prop-intersection",
    "prop-intersection-noncomparable", "lem-superfluous", "prop-sum-delta-n",
    "cor-quotient-forward", "cor-quotient-back-nilpotent", "cor-quotient-back-delta-n",
    "prop-hom-preimage", "prop-hom-image", "prop-hom-epi-pushforward",
    "rem-product-obstruction", "prop-idealization-transfer", "prop-idealization-radical",
    "prop-loc-forward", "prop-loc-backward", "prop-loc-regular-contract",
    "conj-proper-delta-n-is-n", "prop-nilradical-primary-iff", "thm-von-neumann-field",
    "prop-zero-divisor-quotient",
)

# claim id -> the faults that make its failure branches run, beyond the
# wrong delta-n sets that a CONVERTED claim is given
FAULTS = {
    "thm-four-equivalents": ("definition-only",),
    "ex-z6-zero-not-n": (None, "no-witness"),  # with no fault, the stub pair (0, 1) is not (2, 3)
    "ex-int-delta-plus": ("definition-only",),
    "prop-domain-only-zero": ("definition-only",),
    "prop-hom-preimage": ("not-delta-gamma",),
    "prop-hom-image": ("full-images", "not-delta-gamma"),
    "prop-hom-epi-pushforward": ("not-delta-gamma",),
    "prop-radical-hom": ("not-delta-gamma",),
    "audit-loc-well-defined": ("collisions",),
    "audit-example-unit-ideal": ("unit-product", "proper-generators"),
}

# claims whose failures name no ideal: two about a whole ring, one about a
# homomorphism, and an audit whose first check is a product of two elements
NO_IDEAL = {"thm-every-ideal-quasilocal", "thm-existence", "prop-radical-hom",
            "audit-example-unit-ideal"}
# claims whose failures name no expansion: one about every catalog expansion at
# once, one about the radical alone, one about the radical expansions of a
# homomorphism, and an audit of one ring's arithmetic
NO_EXPANSION = {"thm-every-ideal-quasilocal", "prop-idealization-radical", "prop-radical-hom",
                "audit-example-unit-ideal"}

# (checker, source line) -> why no run here reaches that verdict branch
UNREACHED = {
    ("_check_selftest_z6", "yield HOLDS"):
        "a self-test states a false claim on a fixed ring, Z6, on purpose",
    ("_check_selftest_z12", "yield HOLDS"):
        "a self-test states a false claim on a fixed ring, Z12, on purpose",
}

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
    # Z4[x]/(x^2): some of its delta_plus expansions do not preserve intersections
    rings = (modular(4), modular(6), modular(8), product(z2, z2),
             idealization(z2, make_module(z2, "regular")).ring, poly_quotient(4, [0, 0, 1]))
    return Context(Corpus(tuple(CorpusEntry(r, catalog(r)) for r in rings)))


def _mismatched_homs(ctx):
    """Each identity map paired with every (delta, gamma) of its catalog."""
    out = []
    for entry in ctx.entries:
        ring = entry.ring
        ident = Homomorphism(ring, ring, mapping=list(range(ring.size)))
        out.append((ident, tuple(pairs_of(entry.expansions, repeat=2))))
    return out


def _full_images(f):
    """An image table that sends every ideal onto the whole target."""
    return defaultdict(lambda: f.target.full_mask)


def _patch_fault(m, ctx, fault):
    """Apply one fault of ``FAULTS``, or of the delta-n-set runs, to ``m``."""
    if fault == "n-ideals":
        # the scopes read the n-ideals off delta0's set: break that set alone
        m.setattr(claims, "delta_n_masks", lambda delta: MODES[
            "inverted" if delta.kind == "delta0" else "real"](delta))
    if fault == "homs":
        m.setattr(ctx, "hom_instances", lambda: _mismatched_homs(ctx))
        m.setattr(claims, "_mask_verdict", lambda f, pair: True)
    if fault == "radical":
        m.setattr(claims, "_radical_mask", lambda ring, imask: imask)
    if fault == "definition-only":  # the four methods disagree wherever they are asked
        m.setattr(claims, "is_delta_n_ideal",
                  lambda I, delta, method="definition": method == "definition")
    if fault == "no-witness":
        m.setattr(claims, "delta_n_witness", lambda I, delta: None)
    if fault == "full-images":
        m.setattr(claims, "Homomorphism", SimpleNamespace(
            image_mask=SimpleNamespace(table=_full_images)))
    if fault == "not-delta-gamma":
        m.setattr(claims, "_mask_verdict", lambda f, pair: False)
    if fault == "collisions":
        m.setattr(claims, "localization_value_collisions",
                  lambda delta, sset: [(zero_ideal(delta.ring), unit_ideal(delta.ring))])
    if fault == "unit-product":  # in Z4[x]/(x^3+2), (1+x)(1+3x+x^2) = 3
        m.setattr(claims, "poly_quotient", lambda n, modulus: poly_quotient(4, [2, 0, 0, 1]))
    if fault == "proper-generators":
        m.setattr(claims, "ideal_from_generators", lambda ring, gens: zero_ideal(ring))


def _verdicts(monkeypatch, claim_id, base, derived, fault):
    """Every verdict of one claim on the small context, with the delta-n sets of
    base and derived expansions given by ``MODES`` and ``fault`` applied."""
    ctx = _small_context()
    with monkeypatch.context() as m:
        m.setattr(claims, "delta_n_masks", lambda delta: MODES[
            derived if delta.kind.endswith("_derived") else base](delta))
        # compositions and localizations read their sets through that patch too
        m.setattr(claims, "_composed_dn",
                  lambda d, g: claims.delta_n_masks(compose_expansions(d, g)))
        m.setattr(claims, "_localized_dn",
                  lambda d, sset: claims.delta_n_masks(derive_localized_expansion(d, sset)))
        # a forced failure has no real witness pair; the scan is stubbed out
        m.setattr(claims, "delta_n_witness", lambda I, delta: (I.ring.zero, I.ring.one))
        m.setattr(claims, "n_ideal_witness", lambda I: (I.ring.zero, I.ring.one))
        _patch_fault(m, ctx, fault)
        return list(CHECKERS[claim_id](ctx))


def _runs(claim_id):
    """The (base, derived, fault) runs that make the failure branches of a claim run."""
    runs = [(base, derived, None) for base, derived in pairs_of(MODES, repeat=2)
            if claim_id in CONVERTED]
    runs += [("real", "real", fault) for fault in ("homs", "radical", "n-ideals")
             if claim_id in CONVERTED]
    return runs + [("real", "real", fault) for fault in FAULTS.get(claim_id, ())]


def _failures(verdicts):
    return [v for v in verdicts if v is not HOLDS and v is not SKIP]


@pytest.mark.parametrize("claim_id", CONVERTED + tuple(c for c in FAULTS if c not in CONVERTED))
def test_every_failure_branch_builds_its_witness(monkeypatch, claim_id):
    failures = []
    for run in _runs(claim_id):
        failures += _failures(_verdicts(monkeypatch, claim_id, *run))
    assert failures, claim_id
    for w in failures:
        assert isinstance(w, claims.Witness) and w.ring, (claim_id, w)
        assert w.expansion or claim_id in NO_EXPANSION, (claim_id, w)
        assert w.ideal or claim_id in NO_IDEAL, (claim_id, w)


@pytest.mark.parametrize("claim_id, base, derived", [("prop-hom-preimage", "empty", "all"),
                                                     ("prop-hom-image", "all", "empty")])
def test_a_hom_witness_names_its_quotient_target_by_a_key_that_parses_back(
        monkeypatch, claim_id, base, derived):
    """Made to fail, each homomorphism claim names the target ring of a
    projection in its detail by that ring's key, which binds to a ring of that key."""
    targets = set()
    for w in _failures(_verdicts(monkeypatch, claim_id, base, derived, None)):
        key = re.match(r"target (.+?), (?:J|f\(I\))=", w.detail).group(1)
        for name in (w.ring, key):
            assert bind_ring(parse_spec(name)).key == name, (claim_id, w)
        if key.startswith("quot("):
            targets.add(key)
    assert len(targets) > 5, targets


def _branches():
    """((checker, stripped source line), (code name, line number)) for each
    ``yield`` and each lambda in ``_verdicts`` and in the checkers that
    ``@_claim`` registers."""
    source = Path(claims.__file__).read_text(encoding="utf-8")
    lines, out = source.splitlines(), []
    for fn in ast.parse(source).body:
        if isinstance(fn, ast.FunctionDef) and (fn.name == "_verdicts" or any(
                isinstance(d, ast.Call) and d.func.id == "_claim" for d in fn.decorator_list)):
            for node in ast.walk(fn):
                if isinstance(node, (ast.Yield, ast.YieldFrom, ast.Lambda)):
                    kind = "<lambda>" if isinstance(node, ast.Lambda) else fn.name
                    out.append(((fn.name, lines[node.lineno - 1].strip()), (kind, node.lineno)))
    return out


def _codes(code):
    """``code`` and the code objects nested in it: its lambdas and generator expressions."""
    yield code
    for const in code.co_consts:
        if isinstance(const, type(code)):
            yield from _codes(const)


def test_every_verdict_branch_runs(monkeypatch):
    """Traced over a plain run of every claim on the small context and the runs
    of ``_runs``, each verdict branch of claims.py runs, but those ``UNREACHED``
    lists.  The trace keeps each (code name, line) that runs in a checker or in
    ``_verdicts``, and the first line of each lambda of theirs that is called; a
    claim's runs stop once every branch of its checker has run."""
    branches = _branches()
    assert len(branches) > 100
    checkers = {claims._verdicts.__code__, *(f.__code__ for f in CHECKERS.values())}
    lambdas = {c for f in checkers for c in _codes(f) if c.co_name == "<lambda>"}
    reached = set()

    def lines(frame, event, arg):
        reached.add((frame.f_code.co_name, frame.f_lineno))
        return lines

    def calls(frame, event, arg):
        if frame.f_code in lambdas:
            reached.add(("<lambda>", frame.f_code.co_firstlineno))
        return lines if frame.f_code in checkers else None

    before = sys.gettrace()
    sys.settrace(calls)
    try:
        for claim in CLAIMS:
            name = CHECKERS[claim.id].__name__
            mine = [at for (checker, _), at in branches if checker == name]
            list(CHECKERS[claim.id](_small_context()))
            for run in _runs(claim.id):
                if reached.issuperset(mine):
                    break
                _verdicts(monkeypatch, claim.id, *run)
    finally:
        sys.settrace(before)
    unreached = [key for key, at in branches if at not in reached]
    assert sorted(unreached) == sorted(UNREACHED), unreached


def test_verdict_kernel_keeps_skips_apart_from_holds_and_failures():
    """A failed hypothesis is a skip whatever the conclusion says, and the
    witness is built for failures only, in instance order."""
    built = []
    verdicts = list(claims._verdicts(iter([(n,) for n in range(6)]),
                                     lambda n: n % 2 == 0, lambda n: n < 4,
                                     lambda n: built.append(n) or f"w{n}"))
    assert verdicts == [HOLDS, SKIP, HOLDS, SKIP, "w4", SKIP]
    assert built == [4]


def test_one_run_builds_each_interned_delta_n_set_once(monkeypatch):
    """Every checker, the spectrum and the n-ideal sets included, reads the
    delta-n set of an interned expansion from the run's one table, so a run
    builds each once: the 376 of the catalog and 2,148 derived ones.  Before
    that table, the homomorphism claims rebuilt the quotient-derived sets."""
    from deltan import predicates
    built = Counter()  # expansions compare by identity
    for module in (claims, predicates):
        monkeypatch.setattr(module, "delta_n_masks",
                            lambda delta: built.update([delta]) or REAL(delta))
    catalog = {d for entry in builtin_corpus().entries for d in entry.expansions}
    run_claims()
    assert len(built) == 2524 and set(built.values()) == {1}
    assert len(catalog) == 376 and catalog <= built.keys()
    assert all(d.kind.endswith("_derived") for d in built.keys() - catalog)


# ---------------------------------------------------------------------------
# compositions and localizations read off the base tables
# ---------------------------------------------------------------------------

def _regular_set(ring):
    """The regular elements, the multiplicative set of ``prop-loc-regular-contract``."""
    regular = sorted(e.idx for e in special_sets(ring).regular_elements)
    return MultiplicativeSet(ring, tuple(regular))


def test_composed_and_localized_sets_match_the_interned_expansions():
    """The sets that the composition and localization checkers read equal the
    delta-n sets of the interned ``compose_expansions`` and
    ``derive_localized_expansion``, on every pair and multiplicative set."""
    ctx = Context(builtin_corpus())
    for entry in ctx.entries:
        cat = entry.expansions
        for delta in cat:
            for gamma in cat:
                assert (claims._composed_dn(delta, gamma)
                        == claims.delta_n_masks(compose_expansions(delta, gamma))), (delta, gamma)
        for sset in (*ctx.mult_sets(entry.ring), _regular_set(entry.ring)):
            for delta in cat:
                assert (claims._localized_dn(delta, sset)
                        == claims.delta_n_masks(derive_localized_expansion(delta, sset))), \
                    (delta, sset)


def _corrupted_entry(ring):
    """The catalog of ``ring`` with delta1 sending the largest proper ideal to
    (0), which no expansion does, so that compositions through it fail."""
    cat = list(catalog(ring))
    table = dict(cat[1].table)
    table[[I.mask for I in enumerate_ideals(ring) if I.is_proper][-1]] = 1 << ring.zero_idx
    cat[1] = Expansion(ring, ("delta1",), table)
    return CorpusEntry(ring, tuple(cat))


def test_compose_witnesses_on_a_corrupted_catalog():
    """Every failure of the composition claim, as the checker reported it when
    it read the interned composition's set."""
    ctx = Context(Corpus((_corrupted_entry(modular(8)), _corrupted_entry(modular(12)))))
    texts = [w.text() for w in _failures(CHECKERS["prop-compose-n-ideal"](ctx))]
    assert texts == [
        f"ring=Z8; expansion=compose({outer}, delta1); ideal=(2); detail=gamma(I)=(0)"
        for outer in ("delta0", "delta_plus(gens=[0])", "delta_plus(gens=[4])",
                      "delta_star(gens=[2])", "delta_star(gens=[1])")]


def test_a_default_verification_interns_no_one_shot_expansion(monkeypatch):
    """A run interns no localization-derived expansion and no composition but
    each catalog's own: the claims read those sets off the base tables."""
    built = []

    def record(self, *args, _init=Expansion.__init__, **kwargs):
        _init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(rings, "_RING_CACHE", {})  # so the run builds every expansion
    monkeypatch.setattr(Expansion, "__init__", record)
    corpus = builtin_corpus.__wrapped__()
    run_claims(corpus=corpus)
    assert len(built) <= 2675
    assert not [d for d in built if d.kind == "localization_derived"]
    own = [d for entry in corpus.entries for d in entry.expansions if d.kind == "compose"]
    assert len(own) == len(corpus.entries)
    assert [d for d in built if d.kind == "compose"] == own
