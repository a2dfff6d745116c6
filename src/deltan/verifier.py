"""The default corpus, the claim runner, and report rendering.

The corpus is a fixed, deterministic list of small rings, each paired with its
expansion catalog: delta0, delta1, full, delta_plus(J) for every proper J,
delta_star(P) for every nonzero P, and one composition delta1 o
delta_plus(sqrt(0)).  ``run_claims`` counts each claim's verdicts over the corpus,
``HOLDS``, ``SKIP`` or a failure's ``Witness``, and keeps the first witnesses.
"""

from __future__ import annotations

import functools
import json
from collections import namedtuple

from .claims import CHECKERS, CLAIMS, HOLDS, SKIP, _claim_of
from .constructions import (Homomorphism, MultiplicativeSet, idealization,
                            make_module, mult_closure, quotient_ring)
from .dsl import bind_ring, parse_spec
from .errors import DeltanError, InfiniteRingError
from .expansions import catalog, derive_quotient_expansion
from .ideals import _bits, _nil_mask, _unit_mask, enumerate_ideals, ideal_from_generators
from .rings import _proved, integers, memo, modular, poly_quotient, product


CorpusEntry = namedtuple("CorpusEntry", "ring expansions")
Corpus = namedtuple("Corpus", "entries")


def _corpus_rings():
    rings = [modular(n) for n in list(range(2, 17)) + [24, 27, 32, 36, 64]]
    rings += [
        poly_quotient(4, [0, 0, 1]),
        poly_quotient(4, [0, 0, 0, 1]),
        poly_quotient(2, [0, 0, 1]),
        poly_quotient(2, [0, 0, 0, 1]),
        poly_quotient(2, [1, 1, 1]),
        poly_quotient(3, [0, 0, 1]),
        product(modular(2), modular(2)),
        product(modular(4), modular(9)),
        product(modular(2), modular(4)),
    ]
    z2, z4, z8 = modular(2), modular(4), modular(8)
    rings += [idealization(z, make_module(z, "regular")).ring for z in (z2, z4)]
    four = ideal_from_generators(z8, [z8.el(4)])
    rings.append(idealization(z8, make_module(z8, ("quotient", four))).ring)
    return rings


@functools.cache
def builtin_corpus():
    """The deterministic default corpus (32 rings, catalogs attached), built
    once per process and kept for it on purpose: every verification reads it,
    so its rings and their memo tables are never freed.  A verification interns
    on them no composition or localized expansion: it reads each once, for its
    delta-n set, straight off the base tables."""
    return Corpus(entries=tuple(
        CorpusEntry(ring=r, expansions=catalog(r)) for r in _corpus_rings()))


def load_corpus(path):
    """Corpus from a text file: one ring expression per line, '#' comments.

    A ring listed twice, in any spelling, is a ``DeltanError`` naming both lines.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [line.strip() for line in fh]
    except (OSError, UnicodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise DeltanError(f"cannot read corpus file {path}: {reason}") from None
    entries, first_line = [], {}  # ring -> the line that first lists it
    for number, line in enumerate(lines, 1):
        if not line or line.startswith("#"):
            continue
        ring = bind_ring(parse_spec(line))
        if not ring.is_finite:
            raise InfiniteRingError("corpus files may contain finite rings only")
        first = first_line.setdefault(ring, number)
        if first != number:
            raise DeltanError(f"corpus file {path}: ring {ring.key} on line {number} "
                              f"is already listed on line {first}")
        entries.append(CorpusEntry(ring=ring, expansions=catalog(ring)))
    return Corpus(entries=tuple(entries))


# ---------------------------------------------------------------------------
# evaluation context shared by the checkers
# ---------------------------------------------------------------------------

class Context:
    def __init__(self, corpus):
        self.entries = corpus.entries
        self.zz = integers()
        self._cache = {}

    @memo
    def mult_sets(self, ring):
        """Deterministic family: {1}, the units, and the closure of each
        non-unit non-nilpotent element (deduplicated)."""
        unit_mask, family = _unit_mask(ring), {}
        for sset in [MultiplicativeSet(ring, (ring.one_idx,)),
                     MultiplicativeSet(ring, tuple(_bits(unit_mask)))] + [
                mult_closure(ring, [ring.el(a)])
                for a in _bits(ring.full_mask & ~(unit_mask | _nil_mask(ring)))]:
            family.setdefault(sset.indices, sset)
        return tuple(family.values())

    def idealization_instances(self):
        """(record, catalog of the base) for each corpus idealization R(+)M."""
        return [(idealization(*ring.origin[1:]), catalog(ring.origin[1]))
                for ring in (e.ring for e in self.entries) if ring.origin[0] == "idealization"]

    @memo
    def hom_instances(self):
        """Family homomorphisms with their expansion-pair candidates.

        Identities pair each catalog delta with itself; projections pair delta
        with its quotient-derived expansion; the diagonal embedding of Z2 into
        Z2 x Z2 is scanned against the full catalog product.  The identities
        and the diagonal a -> (a, a), a product's tables being componentwise,
        are homomorphisms by their recipe and take ``_proved``.
        """
        out = []
        for entry in self.entries:
            ring = entry.ring
            ident = _proved(Homomorphism, ring, ring, list(range(ring.size)))
            out.append((ident, tuple((d, d) for d in entry.expansions)))
            for J in enumerate_ideals(ring):
                if not J.is_proper:
                    continue
                rec = quotient_ring(ring, J)
                pairs = tuple((d, derive_quotient_expansion(d, J))
                              for d in entry.expansions)
                out.append((rec.projection, pairs))
        z2 = modular(2)
        z2xz2 = product(z2, z2)
        if {z2, z2xz2} <= {e.ring for e in self.entries}:
            diag = _proved(Homomorphism, z2, z2xz2,
                           [z2xz2.from_payload((a, a)).idx for a in z2.elements])
            pairs = tuple((d, g) for d in catalog(z2)
                          for g in catalog(z2xz2))
            out.append((diag, pairs))
        return out


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

class ClaimReport(namedtuple("ClaimReport", "claim_id title instances_checked holds "
                                             "hypothesis_not_met failed witnesses notes")):
    __slots__ = ()

    def to_dict(self):
        return {
            "claim_id": self.claim_id,
            "title": self.title,
            "instances_checked": self.instances_checked,
            "holds": self.holds,
            "hypothesis_not_met": self.hypothesis_not_met,
            "failed": self.failed,
            "failures": [w.to_dict() for w in self.witnesses],
            "notes": list(self.notes),
        }


def claim_ids(include_self_tests=False):
    return [c.id for c in CLAIMS if include_self_tests or not c.self_test]


def _selected_claims(claim_ids):
    """The claims ``claim_ids`` names, every one but the self-tests for None; an
    unknown id or one listed twice is refused."""
    if claim_ids is None:
        return [c for c in CLAIMS if not c.self_test]
    selected = []
    for cid in claim_ids:
        claim = _claim_of(cid)
        if claim in selected:
            raise DeltanError(f"claim id {cid!r} is listed twice")
        selected.append(claim)
    return selected


def run_claims(corpus=None, claim_ids=None, witness_cap=5):
    """Evaluate claims over the corpus; self-tests run only when named explicitly."""
    if witness_cap < 0:
        raise ValueError(f"witness_cap must be at least 0, got {witness_cap}")
    selected = _selected_claims(claim_ids)
    ctx = Context(corpus if corpus is not None else builtin_corpus())
    reports = []
    for claim in selected:
        holds = skips = failed = 0
        witnesses = []
        for verdict in CHECKERS[claim.id](ctx):
            if verdict is HOLDS:
                holds += 1
            elif verdict is SKIP:
                skips += 1
            else:  # a failure's witness
                failed += 1
                if len(witnesses) < witness_cap:
                    witnesses.append(verdict)
        reports.append(ClaimReport(
            claim_id=claim.id, title=claim.title, instances_checked=holds + skips + failed,
            holds=holds, hypothesis_not_met=skips, failed=failed,
            witnesses=tuple(witnesses), notes=claim.notes))
    return reports


def find_counterexample(claim_id, corpus=None):
    """First failure witness of one claim in deterministic order, or None."""
    _claim_of(claim_id)
    ctx = Context(corpus if corpus is not None else builtin_corpus())
    return next((v for v in CHECKERS[claim_id](ctx) if v is not HOLDS and v is not SKIP), None)


def render_text(reports):
    lines = ["claim verification report", "=" * 25]
    total_failed = 0
    for rep in reports:
        status = "ok" if rep.failed == 0 else "FAIL"
        total_failed += rep.failed
        lines.append(f"[{status:4}] {rep.claim_id}: checked={rep.instances_checked} "
                     f"holds={rep.holds} hypothesis_not_met={rep.hypothesis_not_met} "
                     f"failures={rep.failed}")
        for note in rep.notes:
            lines.append(f"       note: {note}")
        for w in rep.witnesses:
            lines.append(f"       witness: {w.text()}")
    lines.append("-" * 25)
    lines.append(f"claims: {len(reports)}, total failures: {total_failed}")
    return "\n".join(lines) + "\n"


def render_json(reports):
    payload = [rep.to_dict() for rep in reports]
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
