"""The library's record types: every one is immutable, equal and hashed by
its field values within its type, prints as Name(field=value, ...), and the
three that validate reject bad input the same way whether built
positionally or by keyword."""

import re

import pytest

from normsums.classdata import congruence_for, rep_for
from normsums.quadfield import RingElement, make_field
from normsums.repsearch import LatticeQuery, find_certificate, g_invariant, min_terms
from normsums.universality import DiagonalForm, MixedSum, TermKind
from normsums.verify import ClassCheck, DiffReport, FieldReport, expected_row

F5 = "FieldParams(d=5, omega_branch=<OmegaBranch.SQRT_MINUS_D: 'SqrtMinusD'>, class_number=2)"
Q5 = f"LatticeQuery(field={F5}, class_index=2, r=6)"
CHECK = "ClassCheck(class_index=2, k=2, computed_exceptions=(1,), expected_exceptions=(1,), match=True)"


def _check():
    return ClassCheck(2, 2, (1,), (1,), True)


# (a record built as the library builds it, its repr, bad fields by keyword
# with the exception and message each raises)
RECORDS = [
    (lambda: make_field(5), F5, []),
    (lambda: RingElement(1, -2), "RingElement(a=1, b=-2)", []),
    (lambda: rep_for(make_field(5), 2), "IdealClassRep(class_index=2, k=2, s=1, t=1)", []),
    (lambda: congruence_for(make_field(5), rep_for(make_field(5), 2)), "CongruenceCondition(k=2, beta=1)", []),
    (lambda: LatticeQuery(make_field(5), 2, 6), Q5, [
        ({"field": make_field(5), "class_index": 3, "r": 6}, ValueError,
         "class_index 3 out of range for d=5 (class number 2)"),
        ({"field": make_field(5), "class_index": True, "r": 6}, TypeError, "class_index must be an integer, got bool"),
        ({"field": make_field(5), "class_index": 2, "r": 0}, ValueError, "r must be positive, got 0"),
        ({"field": make_field(5), "class_index": 2, "r": True}, TypeError, "r must be an integer, got bool"),
        # the class is checked before r
        ({"field": make_field(5), "class_index": 3, "r": True}, ValueError,
         "class_index 3 out of range for d=5 (class number 2)"),
    ]),
    (lambda: find_certificate(LatticeQuery(make_field(5), 2, 6), 2),
     f"RepCertificate(query={Q5}, m=2, gammas=(RingElement(a=1, b=1), RingElement(a=1, b=1)))", []),
    (lambda: min_terms(LatticeQuery(make_field(5), 2, 6)), "MinTermsResult(outcome='representable', m=2)", []),
    (lambda: g_invariant(make_field(5), 300),
     f"GInvariantResult(g=3, witness=LatticeQuery(field={F5}, class_index=1, r=3), stable=True)", []),
    (lambda: DiagonalForm((1, 2)), "DiagonalForm(coefficients=(1, 2))", [
        ({"coefficients": ()}, ValueError, "coefficients must not be empty"),
        ({"coefficients": (1, 0)}, ValueError, "coefficient must be positive, got 0"),
        ({"coefficients": (1, True)}, TypeError, "coefficient must be an integer, got bool"),
    ]),
    (lambda: MixedSum(((TermKind.SQUARE, 1), (TermKind.TRIANGULAR, 2))),
     "MixedSum(terms=((<TermKind.SQUARE: 'Square'>, 1), (<TermKind.TRIANGULAR: 'Triangular'>, 2)))", [
        ({"terms": ()}, ValueError, "terms must not be empty"),
        ({"terms": ((TermKind.SQUARE, -1),)}, ValueError, "weight must be positive, got -1"),
        ({"terms": ((TermKind.SQUARE, 2.0),)}, TypeError, "weight must be an integer, got float"),
    ]),
    (lambda: expected_row(5),
     "ExpectedRow(d=5, class_number=2, k_per_class=(2,), threshold=2, beyond_threshold=(), expected_g=3)", []),
    (_check, CHECK, []),
    (lambda: FieldReport(5, 2, "match", (), 3, 3, 1, 3, True, True, 0.5, (_check(),)),
     "FieldReport(d=5, class_number=2, status='match', details=(), g_expected=3, g_computed=3, "
     "witness_class_index=1, witness_r=3, stable=True, exceptions_match=True, runtime_seconds=0.5, "
     f"classes=({CHECK},))", []),
    (lambda: DiffReport(2, 300, (), 0.25), "DiffReport(class_number=2, r_max=300, fields=(), runtime_seconds=0.25)", []),
]


@pytest.mark.parametrize("build, text, bad", RECORDS, ids=[text.split("(", 1)[0] for _, text, _ in RECORDS])
def test_record_semantics(build, text, bad):
    record = build()
    cls = type(record)
    assert repr(record) == text
    # rebuilt from its own field values, positionally and by keyword
    fields = {name: getattr(record, name) for name in cls.__match_args__}
    for twin in (cls(*fields.values()), cls(**fields)):
        assert type(twin) is cls
        assert twin == record and hash(twin) == hash(record)
    for name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)
    with pytest.raises(AttributeError):
        record.extra = 1
    for kwargs, exc, message in bad:
        for attempt in (lambda: cls(*kwargs.values()), lambda: cls(**kwargs)):
            with pytest.raises(exc, match=f"^{re.escape(message)}$"):
                attempt()
