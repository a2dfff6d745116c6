"""The records deltan returns are namedtuples: their fields, in the order that
positional callers rely on, keyword construction, immutability and repr."""

import pytest

from deltan import modular
from deltan.claims import Claim, Witness
from deltan.constructions import LocalizationRecord, MultiplicativeSet, QuotientRecord
from deltan.expansions import ExpansionProfile
from deltan.ideals import IdealClass, SpecialSets
from deltan.predicates import DeltaNSpectrum
from deltan.rings import ElementClass, RingClass
from deltan.verifier import ClaimReport, Corpus, CorpusEntry

RECORDS = {
    ElementClass: "is_zero is_unit is_nilpotent nilpotency_index is_zero_divisor is_regular "
                  "is_idempotent",
    RingClass: "is_field is_integral_domain is_reduced is_von_neumann_regular is_boolean "
               "is_quasi_local maximal_ideal",
    IdealClass: "is_proper is_prime is_maximal is_primary is_superfluous",
    SpecialSets: "nilradical jacobson zero_divisors regular_elements z_i",
    DeltaNSpectrum: "all maximal_members",
    ExpansionProfile: "intersection_preserving idempotent_on_all zero_fixed radical_commuting "
                      "colon_condition witnesses",
    QuotientRecord: "ring projection",
    MultiplicativeSet: "ring indices",
    LocalizationRecord: "ring base sset canonical kernel",
    CorpusEntry: "ring expansions",
    Corpus: "entries",
    ClaimReport: "claim_id title instances_checked holds hypothesis_not_met failed witnesses "
                 "notes",
    Witness: "ring expansion ideal elements detail",
    Claim: "id title statement quantifies self_test notes",
}


@pytest.mark.parametrize("cls, fields", RECORDS.items(), ids=[c.__name__ for c in RECORDS])
def test_record_fields_keywords_immutability_and_repr(cls, fields):
    assert cls._fields == tuple(fields.split())
    # field k holds k, but a multiplicative set's fields are checked
    values = ({"ring": modular(6), "indices": (1, 5)} if cls is MultiplicativeSet
              else {name: k for k, name in enumerate(cls._fields)})
    record = cls(**values)
    assert record == tuple(values.values())
    for name in (*cls._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    if cls is not MultiplicativeSet:
        shown = ", ".join(f"{name}={value!r}" for name, value in values.items())
        assert repr(record) == f"{cls.__name__}({shown})"


def test_witness_and_claim_defaults():
    assert Witness() == ("",) * 5
    claim = Claim("id", "title", "statement", "quantifies")
    assert claim.self_test is False and claim.notes == ()


def test_witness_text_keeps_the_field_order():
    witness = Witness(detail="d", ring="Z6", ideal="(2)")
    assert list(witness.to_dict()) == list(Witness._fields)
    assert witness.text() == "ring=Z6; ideal=(2); detail=d"


def test_multiplicative_set_stores_sorted_indices_without_repeats():
    z6 = modular(6)
    sset = MultiplicativeSet(z6, [5, 1, 5, 1])
    assert sset.indices == (1, 5) and sset == (z6, (1, 5))
    assert [e.idx for e in sset.elements()] == [1, 5]
    assert repr(sset) == "{1, 5}"
