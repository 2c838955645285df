"""Sums of norms in imaginary quadratic fields Q(sqrt(-d)) with class
number 1, 2 or 3: which unary Hermitian lattices are sums of norms, the
minimum number of norms each needs, and the uniform bound g over a field.
"""

from .quadfield import (
    CLASS_NUMBER_1_FIELDS,
    CLASS_NUMBER_2_FIELDS,
    CLASS_NUMBER_3_FIELDS,
    SUPPORTED_FIELDS,
    FieldParams,
    NotSquarefree,
    OmegaBranch,
    Overflow,
    RingElement,
    UnsupportedField,
    conjugate,
    make_field,
    norm,
)
from .classdata import (
    CongruenceCondition,
    IdealClassRep,
    class_reps,
    condition_display,
    congruence_for,
    rep_for,
)
from .repsearch import (
    GInvariantResult,
    LatticeQuery,
    MinTermsResult,
    RepCertificate,
    exceptional_set,
    find_certificate,
    g_invariant,
    min_count_table,
    min_terms,
)
from .universality import (
    FIFTEEN,
    TWO_NINETY,
    DiagonalForm,
    MixedSum,
    TermKind,
    check_criterion,
    m_d,
    norm_sum_first_gap,
    sun_polynomial_universal,
    universal_up_to,
)
from .verify import (
    DiffReport,
    ExpectedRow,
    FieldReport,
    expected_row,
    recheck_certificate,
    report_table,
    report_to_json,
    verify_all,
    verify_field,
)

__version__ = "0.1.0"
