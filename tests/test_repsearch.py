"""Representation search: value enumeration, minimum counts, certificates.

FROZEN_MIN_TERMS was produced by tests/_oracle.py (depth-first search with
its own value enumeration) and is pinned here; min_terms must agree.
"""

import collections
import json
import math
import random
import re
import time
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from _oracle import (
    oracle_layers,
    oracle_least_split,
    oracle_min_terms,
    oracle_values,
    oracle_witness,
    oracle_witnesses,
)
from normsums import cli, repsearch
from normsums import verify as verify_mod
from normsums.classdata import class_form, class_number_fields, class_reps, rep_for
from normsums.quadfield import SUPPORTED_FIELDS, Overflow, RingElement, conjugate, make_field, norm
from normsums.repsearch import (
    LatticeQuery,
    MinTermsResult,
    check_tables,
    exceptional_set,
    find_certificate,
    g_invariant,
    min_count_table,
    min_terms,
    reach_layers,
)
from normsums.universality import m_d, norm_sum_first_gap
from normsums.verify import recheck_certificate, verify_all, verify_field

# (d, class_index, r, minimum count or None when unrepresentable)
FROZEN_MIN_TERMS = [
    (5, 2, 3, 1), (5, 2, 4, 2), (5, 2, 6, 2),
    (10, 2, 2, 1), (10, 2, 5, 1),
    (13, 2, 7, 1),
    (35, 2, 3, 1), (35, 2, 5, 1), (35, 2, 8, 2),
    (51, 2, 11, 1), (51, 2, 12, 1),
    (91, 2, 5, 1), (91, 2, 16, None),
    (115, 2, 19, 3),
    (123, 2, 3, 1),
    (187, 2, 7, 1), (187, 2, 38, 4),
    (403, 2, 11, 1), (403, 2, 13, 1),
    (427, 2, 14, 2),
    (23, 2, 2, 1), (23, 3, 2, 1),
    (31, 2, 4, 1),
    (59, 3, 5, 1),
    (107, 2, 6, 2),
    (139, 3, 10, 2),
    (211, 2, 10, 2),
    (283, 3, 11, 1),
    (307, 2, 28, 1),
    (331, 3, 15, 3),
    (379, 2, 19, 1),
    (499, 3, 29, 1),
    (547, 2, 13, 1),
    (643, 3, 28, 1),
    (883, 2, 17, 1),
    (907, 3, 81, 5),
    (1, 1, 7, 2), (2, 1, 5, 2), (3, 1, 10, 2), (7, 1, 7, 1),
    (11, 1, 14, 2), (19, 1, 7, 1), (43, 1, 7, 4), (67, 1, 23, 1),
    (163, 1, 30, 3),
]


def _query(d, class_index, r):
    return LatticeQuery(make_field(d), class_index, r)


@pytest.fixture(autouse=True)
def _no_tables(monkeypatch):
    # every query keeps its class's layers and value mask in _TABLES, and
    # every enumeration its residue masks in _RESIDUES: all
    # the kernel keeps between calls.  Each test starts with neither, so
    # no answer depends on the order tests run in
    monkeypatch.setattr(repsearch, "_TABLES", {})
    monkeypatch.setattr(repsearch, "_RESIDUES", {})


def _single_norms(d, class_index, bound):
    """Each admissible norm n = r*k up to bound, ascending, mapped to the
    gamma of its one-summand certificate.  r runs down, so the first query
    enumerates the value mask up to bound // k and the rest read it."""
    f = make_field(d)
    k = rep_for(f, class_index).k
    certs = (find_certificate(LatticeQuery(f, class_index, r), 1) for r in range(bound // k, 0, -1))
    return {c.query.r * k: c.gammas[0] for c in reversed([c for c in certs if c is not None])}


def test_query_validation():
    with pytest.raises(ValueError):
        _query(5, 3, 1)
    with pytest.raises(ValueError):
        _query(5, 0, 1)
    with pytest.raises(ValueError):
        _query(5, 2, 0)
    # a bool or a non-int is rejected, as make_field rejects it for d
    for class_index, r in ((True, 3), (2, True), (2.0, 3), (2, 2.5), (2, "3")):
        with pytest.raises(TypeError):
            _query(35, class_index, r)
    q = _query(35, 2, 3)
    assert q.k == 5
    # every count, width and limit goes through require_int: a bool, a
    # float or a str raises TypeError before any table is built, and a
    # value out of range keeps its ValueError and message (None: no range)
    f = make_field(35)
    entry_points = [
        (make_field, 0, "d must be positive, got 0"),
        (lambda r: _query(35, 2, r), -2, "r must be positive, got -2"),
        (lambda m: find_certificate(q, m), 0, "m must be positive, got 0"),
        (lambda r_max: min_count_table(f, 2, r_max), 0, "r_max must be positive, got 0"),
        (lambda r_max: exceptional_set(f, 2, r_max), -1, "r_max must be positive, got -1"),
        (lambda r_max: check_tables([f], r_max), None, None),
        (lambda r_max: g_invariant(f, r_max), 0, "r_max=0 too small: need at least"),
        (lambda r_max: verify_field(35, r_max), 0, "r_max=0 too small: exception 4 > 0"),
        (lambda r_max: verify_all(2, r_max), None, None),
    ]
    for call, out_of_range, message in entry_points:
        for value in (True, 2.0, "3"):
            with pytest.raises(TypeError, match="must be an integer"):
                call(value)
        if out_of_range is not None:
            with pytest.raises(ValueError, match=message):
                call(out_of_range)
    assert repsearch._TABLES == {}


def test_single_norm_examples():
    # 9 = N(3) is excluded: 3 fails the parity condition for this class
    assert _single_norms(5, 2, 10) == {4: RingElement(2, 0), 6: RingElement(1, 1)}
    assert _single_norms(51, 2, 30) == {15: RingElement(2, -1), 25: RingElement(5, 0)}
    # below the smallest admissible norm there is none
    assert _single_norms(5, 2, 3) == {}


def test_single_norm_canonical_witnesses():
    assert _single_norms(907, 2, 300) == {169: RingElement(13, 0), 247: RingElement(5, -1), 299: RingElement(8, 1)}
    assert _single_norms(907, 3, 300)[299] == RingElement(9, -1)


ALL_CLASSES = [(d, rep.class_index) for d in SUPPORTED_FIELDS for rep in class_reps(make_field(d))]


@given(st.sampled_from(ALL_CLASSES), st.integers(min_value=1, max_value=400))
def test_single_norms_match_oracle_box_scan(field_class, bound):
    d, class_index = field_class
    expected = oracle_witnesses(d, class_index, bound)
    # every admissible norm is k times a value of the class form
    assert all(v % _query(d, class_index, 1).k == 0 for v in expected)
    got = _single_norms(d, class_index, bound)
    # the same values, each with the oracle's canonical witness
    assert {v: (w.a, w.b) for v, w in got.items()} == expected
    assert list(got) == list(expected)


CLASS_FORMS = [class_form(make_field(d), rep_for(make_field(d), class_index))[:3] for d, class_index in ALL_CLASSES]
NORM_FORMS = [make_field(d).form_coefficients() for d in SUPPORTED_FIELDS]

# every class form, then forms whose b is another multiple of a, or no
# multiple at all
ENUMERATED_FORMS = sorted(set(CLASS_FORMS)) + [
    (2, 4, 3), (2, -4, 3), (1, 3, 3), (1, -3, 3), (2, 6, 5), (2, -6, 5),
    (2, 1, 3), (3, 2, 5), (3, -2, 5), (5, 3, 2), (4, 7, 5)]


def _mask(values, width):
    """A first layer for reach_layers over [0, width]: bit 0, the empty
    sum, and bit v for each value v <= width, a repeated value once."""
    return sum(1 << v for v in {0, *values} if v <= width)


def _form_values(a, b, c, bound):
    """The form's values in [1, bound], ascending, read off _value_mask."""
    return _bits(repsearch._value_mask(a, b, c, bound), bound)


def _bits(mask, top):
    """The set bits of mask in [1, top], ascending."""
    digits = format(mask & ((2 << top) - 1), "b")[::-1]
    return [v for v in range(1, len(digits)) if digits[v] == "1"]


def _cut(layers, width):
    """The layers that a build at width gives, read off wider ones: each
    cut to [0, width], and the repeats past the first fixpoint dropped (a
    layer that the window shows equal to the one before adds nothing to
    the window later either, as every part of a sum is at most the sum);
    none below width 0."""
    if width < 0:
        return []
    cut = [layer & ((2 << width) - 1) for layer in layers]
    while len(cut) > 1 and cut[-1] == cut[-2]:
        cut.pop()
    return cut


def _count_bytes(f, class_index, width):
    """Byte r is r's least count, 0 when no count reaches it, for r in
    [0, width], as min_count_table reads the class's layers."""
    return bytes(1) + bytes(m or 0 for m in min_count_table(f, class_index, width))


def test_value_mask_matches_a_box_scan_at_every_width():
    # a plain box scan with its own bounds (4a*Q >= D*y^2 and
    # 4c*Q >= D*x^2) must give the same mask at every width, for every
    # enumerated form: rows with either sign of the residue, forms where a
    # divides b, and widths below a, where row 0 holds no value
    top = 400
    for a, b, c in ENUMERATED_FORMS:
        disc = 4 * a * c - b * b
        xmax, ymax = math.isqrt(4 * c * top // disc), math.isqrt(4 * a * top // disc)
        scan = {q for x in range(-xmax, xmax + 1) for y in range(-ymax, ymax + 1)
                if 0 < (q := a * x * x + b * x * y + c * y * y) <= top}
        for width in range(1, top + 1):
            assert repsearch._value_mask(a, b, c, width) == _mask(scan, width), (a, b, c, width)


@pytest.mark.parametrize("width", [1500, 6000])
def test_value_mask_matches_the_oracle_on_every_class(width):
    # the oracle lists the admissible norms, k times the class form's values
    for d, class_index in ALL_CLASSES:
        f = make_field(d)
        rep = rep_for(f, class_index)
        norms = oracle_values(d, class_index, rep.k * width)
        assert repsearch._value_mask(*class_form(f, rep)[:3], width) == _mask([n // rep.k for n in norms], width)


@pytest.mark.parametrize("order", ["rising", "falling", "shuffled"])
def test_value_mask_on_warm_residues_equals_a_cold_call(order):
    # each residue mask is kept at the widest bound asked for so far and
    # read at a narrower one by one shift, shared by every form with the
    # same leading coefficient; in any order of widths, below a and at 1
    # included, each mask must equal one built from an empty cache
    forms = CLASS_FORMS + NORM_FORMS
    calls = [(w, i) for w in [*range(1, 16), 40, 399, 400, 1500] for i in range(len(forms))]
    cold = {}
    for w, i in calls:
        repsearch._RESIDUES.clear()
        cold[w, i] = repsearch._value_mask(*forms[i], w)
    if order == "falling":
        calls.reverse()
    elif order == "shuffled":
        random.Random(27).shuffle(calls)
    repsearch._RESIDUES.clear()
    for w, i in calls:
        assert repsearch._value_mask(*forms[i], w) == cold[w, i], (forms[i], w)
    assert {limit for limit, _ in repsearch._RESIDUES.values()} == {1500}


def test_value_mask_refuses_over_budget_before_its_first_row(monkeypatch):
    # the rows are counted by one isqrt after the check: with the budget one
    # below the estimate, none is taken and the residue masks kept from a
    # narrower call stay as they were; at the estimate the mask is built,
    # and each residue mask it reads is rebuilt at the wider bound
    form = class_form(make_field(907), rep_for(make_field(907), 2))[:3]
    repsearch._value_mask(*form, 300)
    kept = dict(repsearch._RESIDUES)
    monkeypatch.setattr(repsearch, "_WORK_BUDGET", repsearch._work_estimate(*form, 3000) - 1)

    def enumerated(*args):
        raise AssertionError("a form was enumerated before the work check")

    with monkeypatch.context() as patch:
        patch.setattr(repsearch, "isqrt", enumerated)
        with pytest.raises(Overflow, match="width 3000 would take an estimated"):
            repsearch._value_mask(*form, 3000)
    assert repsearch._RESIDUES == kept
    assert {limit for limit, _ in kept.values()} == {300}
    monkeypatch.setattr(repsearch, "_WORK_BUDGET", repsearch._work_estimate(*form, 3000))
    assert repsearch._value_mask(*form, 3000) & 1 << 13
    assert repsearch._RESIDUES.keys() >= kept.keys()
    assert {limit for limit, _ in repsearch._RESIDUES.values()} == {3000}


def test_the_widest_admitted_point_query():
    # d=907 class 2 at r = 779903, the widest value mask admitted (212 rows
    # of 779904 bits): its minimum and its certificate at m = 3 are pinned,
    # as the CI step pins the CLI's line
    q = _query(907, 2, 779903)
    assert min_terms(q).m == 2
    cert = find_certificate(q, 3)
    assert cert.to_json_dict()["gammas"] == [[13, 0], [47, 1], [1869, 167]]
    assert recheck_certificate(cert.to_json_dict()) == []


@given(
    st.sampled_from([(5, 2), (35, 2), (23, 3), (907, 2)]),
    st.integers(min_value=1, max_value=400),
)
def test_witnesses_are_valid_and_nonzero(field_class, bound):
    d, class_index = field_class
    f = make_field(d)
    for v, w in _single_norms(d, class_index, bound).items():
        assert (w.a, w.b) != (0, 0)
        assert norm(f, w) == v


def test_min_terms_frozen_oracle_values():
    for d, class_index, r, expected in FROZEN_MIN_TERMS:
        res = min_terms(_query(d, class_index, r))
        if expected is None:
            assert not res.is_representable, (d, class_index, r)
            assert res.m is None
        else:
            assert res.is_representable
            assert res.m == expected, (d, class_index, r)


def test_min_terms_known_examples():
    assert min_terms(_query(35, 2, 3)).m == 1
    assert min_terms(_query(35, 2, 4)) == MinTermsResult("unrepresentable")
    assert min_terms(_query(51, 2, 6)).m == 2
    assert min_terms(_query(907, 2, 81)).m == 5
    assert min_terms(_query(907, 3, 81)).m == 5
    assert not min_terms(_query(5, 2, 1)).is_representable


def test_min_count_table_matches_min_terms():
    f = make_field(35)
    table = min_count_table(f, 2, 40)
    assert len(table) == 40
    for r in range(1, 41):
        res = min_terms(_query(35, 2, r))
        assert table[r - 1] == (res.m if res.is_representable else None)


def test_table_grows_and_serves_smaller_windows():
    # one table per (d, class): a smaller window after a larger one cuts
    # its layers, a larger one rebuilds them; each answer must equal a cold build
    f = make_field(907)
    windows = (300, 50, 600)
    repsearch._TABLES.clear()
    warm = [(min_count_table(f, 2, n), exceptional_set(f, 2, n)) for n in windows]
    layers, reach, width, values = repsearch._TABLES[(907, 2)]
    assert reach == width == 600 and layers == reach_layers(values, 600)
    for n, got in zip(windows, warm):
        repsearch._TABLES.clear()
        assert got == (min_count_table(f, 2, n), exceptional_set(f, 2, n)), n


def test_class_the_field_lacks_raises_with_its_pair_cached():
    # class 3 reads the (d, 2) table, but only where the field has a class 3
    f = make_field(5)
    exceptional_set(f, 2, 100)
    assert (5, 2) in repsearch._TABLES
    with pytest.raises(ValueError, match="class_index 3 out of range for d=5"):
        exceptional_set(f, 3, 100)
    with pytest.raises(ValueError):
        min_count_table(f, 3, 50)


def test_find_certificate_goldens():
    cert = find_certificate(_query(35, 2, 3), 1)
    assert cert.gammas == (RingElement(2, 1),)
    assert cert.to_json_dict()["check"] == 15

    cert = find_certificate(_query(23, 3, 2), 1)
    assert cert.gammas == (RingElement(2, 0),)

    cert = find_certificate(_query(51, 2, 6), 2)
    assert [(g.a, g.b) for g in cert.gammas] == [(2, -1), (2, -1)]
    assert cert.to_json_dict()["check"] == 30

    cert = find_certificate(_query(187, 2, 105), 2)
    assert [(g.a, g.b) for g in cert.gammas] == [(12, -2), (20, -1)]
    assert cert.to_json_dict()["check"] == 735

    cert = find_certificate(_query(907, 2, 81), 5)
    assert [(g.a, g.b) for g in cert.gammas] == [(13, 0), (13, 0), (13, 0), (5, -1), (8, 1)]
    assert cert.to_json_dict()["check"] == 1053


def test_find_certificate_exact_count_contract():
    # r=2 over the d=5 nonprincipal class: target 4 is N(2) and nothing else
    assert find_certificate(_query(5, 2, 2), 1).gammas == (RingElement(2, 0),)
    assert find_certificate(_query(5, 2, 2), 2) is None
    # target 12 splits as 6+6 but not as a single norm
    assert find_certificate(_query(5, 2, 6), 1) is None
    cert = find_certificate(_query(5, 2, 6), 2)
    assert [(g.a, g.b) for g in cert.gammas] == [(1, 1), (1, 1)]
    assert find_certificate(_query(5, 2, 6), 3).gammas == (RingElement(2, 0),) * 3
    # unrepresentable stays empty at any count
    for m in range(1, 5):
        assert find_certificate(_query(5, 2, 1), m) is None
    with pytest.raises(ValueError):
        find_certificate(_query(5, 2, 2), 0)
    for m in (True, 1.0, 2.5):
        with pytest.raises(TypeError):
            find_certificate(_query(5, 2, 2), m)


CERTIFICATE_GOLDENS = Path(__file__).resolve().parent / "goldens" / "find_certificate.txt"


def _certificate_goldens():
    """(query, m, summands as a,b strings or "-") for every golden line:
    all 93 classes at ten r and up to eight m each, recorded before
    certificates read the cached min-count table."""
    for line in CERTIFICATE_GOLDENS.read_text().splitlines():
        if not line.startswith("#"):
            d, class_index, r, m, *summands = line.split()
            yield _query(int(d), int(class_index), int(r)), int(m), summands


def _summands(cert):
    return ["-"] if cert is None else [f"{g.a},{g.b}" for g in cert.gammas]


def test_certificates_match_goldens_cold_and_warm():
    # cold: no table cached, so every call layers the shifted values;
    # warm: min_terms has cached the class's table, which decides every m
    # up to the minimum; both give the one recorded answer
    for q, m, want in _certificate_goldens():
        repsearch._TABLES.clear()
        assert _summands(find_certificate(q, m)) == want, (q, m)
    for q, m, want in _certificate_goldens():
        min_terms(q)
        assert _summands(find_certificate(q, m)) == want, (q, m)


def test_cached_table_answers_up_to_the_minimum_without_a_build(monkeypatch):
    queries = [_query(d, class_index, r) for d, class_index in ALL_CLASSES for r in (1, 7, 88, 1201, 5000)]
    minima = [min_terms(q).m or 0 for q in queries]

    def no_build(*args):
        raise AssertionError("a cached table was enumerated or layered again")

    # every enumeration goes through _value_mask
    monkeypatch.setattr(repsearch, "_value_mask", no_build)
    monkeypatch.setattr(repsearch, "reach_layers", no_build)
    # the patched names are the ones a build reaches: a wider point query
    # enumerates, and a certificate above the minimum layers
    for build in (lambda: min_terms(_query(907, 2, 5001)), lambda: find_certificate(_query(907, 2, 5000), 6)):
        with pytest.raises(AssertionError, match="enumerated or layered again"):
            build()
    for q, least in zip(queries, minima):
        # m below the minimum and any m for an unrepresentable r are None
        for m in range(1, least):
            assert find_certificate(q, m) is None, (q, m)
        if not least:
            assert find_certificate(q, 1) is None and find_certificate(q, 3) is None
            continue
        cert = find_certificate(q, least)
        assert len(cert.gammas) == least and recheck_certificate(cert.to_json_dict()) == [], q


def test_point_tables_hold_one_exactly_at_the_form_values():
    # find_certificate above the minimum reads the values off the mask
    # _point_table returns, whether or not the layers reach r: its bits up
    # to r are 0 and the form values, and layer 1 adds exactly those to
    # layer 0
    for d, class_index in ALL_CLASSES:
        f = make_field(d)
        key = repsearch._table_key(f, class_index)
        repsearch._TABLES.clear()
        for r in (7, 1201, 88, 3000, 5000):
            if r == 3000:
                min_count_table(f, class_index, 2000)
            values = _form_values(*class_form(f, rep_for(f, class_index))[:3], r)
            _, _, layers, mask = repsearch._point_table(_query(d, class_index, r))
            assert mask & 1 and _bits(mask, r) == values, (d, class_index, r)
            top = min(r, repsearch._TABLES[key][1])
            ones = _bits(layers[1] ^ layers[0], top) if len(layers) > 1 else []
            assert ones == [v for v in values if v <= top], (d, class_index, r)


def test_widened_masks_equal_one_cold_query():
    # point queries at growing r widen the value mask; the entry they leave
    # holds the mask a cold query at the last r leaves, plus the layers
    # that a query needing three or more values, or a count table run in
    # between (to 500 inside the mask, or to 2000 past it), built and kept
    for d, class_index in ALL_CLASSES:
        f = make_field(d)
        key = repsearch._table_key(f, class_index)
        repsearch._TABLES.clear()
        layers = repsearch._layer_table(f, class_index, 5000)
        repsearch._TABLES.clear()
        min_terms(_query(d, class_index, 5000))
        cold = repsearch._TABLES[key][2:]
        assert cold == (5000, repsearch._value_mask(*class_form(f, rep_for(f, class_index))[:3], 5000))
        for between in (None, 500, 2000):
            repsearch._TABLES.clear()
            for r in (7, 88, 1201, 5000):
                if r == 5000 and between:
                    min_count_table(f, class_index, between)
                min_terms(_query(d, class_index, r))
            kept, reach, width, mask = repsearch._TABLES[key]
            assert reach >= (between or -1), (d, class_index, between)
            assert kept == _cut(layers, reach) and (width, mask) == cold, (d, class_index, between)


def test_widening_is_admitted_at_the_new_width(monkeypatch):
    # one more byte past cached marks, but the budget is checked at the new
    # width, before any row is counted, and a refusal keeps the cached table
    # as it was
    q = _query(907, 2, 3000)
    min_terms(_query(907, 2, 2999))
    cached = repsearch._TABLES[(907, 2)]
    form = class_form(q.field, rep_for(q.field, 2))[:3]
    monkeypatch.setattr(repsearch, "_WORK_BUDGET", repsearch._work_estimate(*form, 3000) - 1)

    def enumerated(*args):
        raise AssertionError("a form was enumerated before the work check")

    monkeypatch.setattr(repsearch, "isqrt", enumerated)
    with pytest.raises(Overflow, match="width 3000"):
        min_terms(q)
    assert repsearch._TABLES == {(907, 2): cached}


def test_unreachable_remainder_with_more_than_255_summands_is_none():
    # r = m*vmin + 1 leaves the remainder 1, which no shifted value reaches
    # when vmin + 1 is not a value: the layers stop at a fixpoint long
    # before m - 1, and the answer is None, cold and warm
    checked = 0
    for d, class_index in ALL_CLASSES:
        f = make_field(d)
        values = _form_values(*class_form(f, rep_for(f, class_index))[:3], 1000)
        if values[0] + 1 in values:
            continue
        for m in (256, 257, 300):
            q = _query(d, class_index, m * values[0] + 1)
            repsearch._TABLES.clear()
            assert find_certificate(q, m) is None, (q, m)
            min_terms(q)
            assert find_certificate(q, m) is None, (q, m)
        checked += 1
    assert checked > 80


def _layers():
    """The layers cached per key with their reach, for the keys with
    layers built."""
    return {key: (layers, reach) for key, (layers, reach, _, _) in repsearch._TABLES.items() if layers}


def test_cold_certificate_builds_counts_only_past_two_values():
    # a cold call reads the value mask when r needs one or two values and
    # builds no layers; for r that needs three or more values (115, 2,
    # 19 and 907, 2, 673901 need 3; 187, 2, 38 needs 4) or none (91, 2,
    # 16) it builds the queried class's layers up to r; every other key's
    # cached layers are left as they were
    three_or_none = {(115, 2, 19), (907, 2, 673901), (187, 2, 38), (91, 2, 16)}
    min_count_table(make_field(5), 2, 100)
    for d, class_index, r, m, found in (
        (1, 1, 5000, 2, True), (907, 3, 1201, 3, True), (23, 2, 300, 7, True), (5, 1, 50, 1, False),
        (115, 2, 19, 2, False), (115, 2, 19, 3, True), (115, 2, 19, 4, False), (907, 2, 673901, 4, True),
        (187, 2, 38, 3, False), (187, 2, 38, 4, True), (91, 2, 16, 1, False), (91, 2, 16, 3, False),
    ):
        key = repsearch._table_key(make_field(d), class_index)
        before = {k: kept for k, kept in _layers().items() if k != key}
        cert = find_certificate(_query(d, class_index, r), m)
        assert (cert is not None) == found, (d, class_index, r, m)
        _, reach, width, _ = repsearch._TABLES[key]
        assert reach == (r if (d, class_index, r) in three_or_none else -1) and width >= r, (d, class_index, r, m)
        assert {k: kept for k, kept in _layers().items() if k != key} == before, (d, class_index)


def test_point_queries_match_the_min_count_table():
    # every class from a cold cache: each r <= 200 on a cache emptied
    # before it, so its mask ends at bit r; then r = 1500 down to 1, each
    # on the mask a cold certificate query left at 1500, so every r is
    # read off that mask or off layers built at r itself
    for d, class_index in ALL_CLASSES:
        f = make_field(d)
        want = min_count_table(f, class_index, 1500)
        for r in range(1, 201):
            repsearch._TABLES.clear()
            assert min_terms(_query(d, class_index, r)).m == want[r - 1], (d, class_index, r)
        repsearch._TABLES.clear()
        find_certificate(_query(d, class_index, 1500), 1)
        key = repsearch._table_key(f, class_index)
        entry = repsearch._TABLES[key]
        assert entry[:3] == ([], -1, 1500)
        for r in range(1500, 0, -1):
            repsearch._TABLES[key] = entry
            assert min_terms(_query(d, class_index, r)).m == want[r - 1], (d, class_index, r)


def test_certificates_off_the_mask_equal_the_count_walk():
    # at a minimum of 1 or 2 a cold call reads the values off the value
    # mask and builds no layers; it gives the certificate that the walk on
    # the cached layers gives
    checked = 0
    for d, class_index in ALL_CLASSES:
        f = make_field(d)
        key = repsearch._table_key(f, class_index)
        repsearch._TABLES.clear()
        counts = min_count_table(f, class_index, 20000)
        cases = [(_query(d, class_index, r), counts[r - 1]) for r in (*range(1, 121), 300, 1201, 5000, 20000)]
        warm = [(q, least, find_certificate(q, least)) for q, least in cases if least in (1, 2)]
        for q, least, cert in warm:
            repsearch._TABLES.clear()
            assert find_certificate(q, least) == cert, q
            if least == 2:
                assert find_certificate(q, 1) is None, q
            assert list(repsearch._TABLES) == [key] and repsearch._TABLES[key][0] == [], q
        checked += len(warm)
    assert checked == 8610


def test_counts_one_and_two_build_no_layers(monkeypatch):
    # a query whose r needs one or two values enumerates once and reads the
    # value mask alone: no reach_layers and no layers kept; no query calls
    # _decode, which only min_count_table runs
    calls = []

    def spy(stage):
        def wrapped(*args):
            calls.append(stage.__name__)
            return stage(*args)
        return wrapped

    for stage in (repsearch._value_mask, reach_layers, repsearch._decode):
        monkeypatch.setattr(repsearch, stage.__name__, spy(stage))
    for d, class_index, r, least in ((35, 2, 3, 1), (5, 2, 6, 2), (1, 1, 7, 2), (907, 2, 779903, 2), (907, 3, 4997, 1)):
        q = _query(d, class_index, r)
        assert min_terms(q).m == least
        cert = find_certificate(q, least)
        assert len(cert.gammas) == least and recheck_certificate(cert.to_json_dict()) == []
        if least == 2:
            assert find_certificate(q, 1) is None
        assert calls == ["_value_mask"] and [layers for layers, *_ in repsearch._TABLES.values()] == [[]], q
        calls.clear()
        repsearch._TABLES.clear()
    # above the minimum the values are read off the mask, not enumerated
    # again, then shifted and layered, and no layers are kept
    assert len(find_certificate(_query(5, 2, 6), 3).gammas) == 3
    assert calls == ["_value_mask", "reach_layers"]
    assert repsearch._TABLES[(5, 2)][0] == []
    calls.clear()
    # r that needs three or more values, or none, enumerates the mask and
    # then builds the layers at r, once, from that mask; the certificate
    # reads those layers
    for d, class_index, r, least in ((115, 2, 19, 3), (187, 2, 38, 4), (91, 2, 16, None)):
        q = _query(d, class_index, r)
        assert min_terms(q).m == least
        assert (find_certificate(q, least or 1) is None) == (least is None)
        assert calls == ["_value_mask", "reach_layers"]
        _, reach, width, _ = repsearch._TABLES[(d, class_index)]
        assert reach == width == r
        calls.clear()
    # inside a mask already wide enough, such an r layers the mask cut to r
    # and enumerates nothing
    assert min_terms(_query(907, 2, 3000)).m == 2 and calls == ["_value_mask"]
    calls.clear()
    assert min_terms(_query(907, 3, 81)).m == 5 and calls == ["reach_layers"]
    _, reach, width, _ = repsearch._TABLES[(907, 2)]
    assert reach == 81 and width == 3000


def test_no_reader_but_min_count_table_decodes(monkeypatch, capsys):
    # verify, the g and exceptional commands, point queries that walk the
    # layers (d=907 class 2 needs 3 values at r = 2721) and a certificate
    # on the shifted path read the layers as masks: with _decode raising,
    # each still answers, and min_count_table, its one caller, still works
    # once it is restored
    def no_decode(*args):
        raise AssertionError("a reader decoded the layers")

    with monkeypatch.context() as patch:
        patch.setattr(repsearch, "_decode", no_decode)
        patch.setattr(verify_mod, "_usable_cpus", lambda: 1)
        assert verify_all(2, 300).all_match and verify_all(3, 300).all_match
        assert cli.main(["g", "-d", "907", "--r-max", "300"]) == 0
        assert cli.main(["exceptional", "-d", "403", "--class", "2", "--r-max", "150"]) == 0
        q = _query(907, 2, 2721)
        assert min_terms(q).m == 3
        cert = find_certificate(q, 3)
        assert recheck_certificate(cert.to_json_dict()) == []
        shifted = find_certificate(q, 4)
        assert len(shifted.gammas) == 4 and recheck_certificate(shifted.to_json_dict()) == []
        with pytest.raises(AssertionError, match="decoded the layers"):
            min_count_table(q.field, 2, 100)
    lines = capsys.readouterr().out.splitlines()
    assert [json.loads(line)["g"] for line in lines[:1]] == [5]
    assert json.loads(lines[1])["exceptional"] == exceptional_set(make_field(403), 2, 150)
    assert min_count_table(q.field, 2, 2721)[2720] == 3


def test_a_query_reads_the_mask_until_counts_reach_r(monkeypatch):
    # min_terms and then find_certificate at the minimum read the same pair
    # off the mask; counts built short of r leave that answer, counts built
    # past r give it by the walk, and a refused query keeps nothing
    f = make_field(907)
    q = _query(907, 2, 3000)
    assert min_terms(q).m == 2
    cert = find_certificate(q, 2)
    assert recheck_certificate(cert.to_json_dict()) == []
    min_count_table(f, 2, 1000)
    assert find_certificate(q, 2) == cert and repsearch._point_table(q)[1] is not None
    min_count_table(f, 2, 4000)
    assert find_certificate(q, 2) == cert and repsearch._point_table(q)[1] is None
    repsearch._TABLES.clear()
    monkeypatch.setattr(repsearch, "_WORK_BUDGET", 0)
    with pytest.raises(Overflow):
        min_terms(q)
    with pytest.raises(Overflow):
        find_certificate(q, 2)
    assert repsearch._TABLES == {}


def test_each_class_keeps_its_own_entry():
    # queries on two classes in turn each keep their own mask, and a layer
    # build on one writes its layers beside its wider mask and leaves the
    # other entry as it was
    queries = [_query(907, 2, 3000), _query(5, 2, 6)]
    assert [min_terms(q).m for q in queries] == [2, 2]
    certs = [find_certificate(q, 2) for q in queries]
    assert all(recheck_certificate(c.to_json_dict()) == [] for c in certs)
    assert [repsearch._TABLES[key][:3] for key in ((907, 2), (5, 2))] == [([], -1, 3000), ([], -1, 6)]
    small = repsearch._TABLES[(5, 2)]
    mask = repsearch._TABLES[(907, 2)][3]
    min_count_table(make_field(907), 2, 1000)
    layers, reach, width, values = repsearch._TABLES[(907, 2)]
    assert (reach, width, values) == (1000, 3000, mask) and layers == reach_layers(mask & ((2 << 1000) - 1), 1000)
    assert repsearch._TABLES[(5, 2)] == small
    assert [find_certificate(q, 2) for q in queries] == certs


def test_a_widest_point_query_keeps_no_byte_per_r():
    # r = 779903 is the widest width admitted for d=907 class 2, and it
    # needs two values: min_terms and certificates at m = 1, 2 and 3 keep
    # the value mask alone, at most r + 1 bits, and no layers
    q = _query(907, 2, 779903)
    assert min_terms(q).m == 2 and find_certificate(q, 1) is None
    assert [len(find_certificate(q, m).gammas) for m in (2, 3)] == [2, 3]
    layers, reach, width, values = repsearch._TABLES[(907, 2)]
    assert (layers, reach) == ([], -1) and width == 779903 and values.bit_length() <= 779904


def test_witnesses_match_the_oracle_at_every_value():
    # every value up to 2000 of d=907 classes 2 and 3, of a class whose
    # rows are clamped to their middle (35, 2: A = 5 divides B = -5) and of
    # a principal class, row-0 values A*x^2 included, gets the oracle's
    # canonical witness; a number that is not a value raises
    for d, class_index in ((907, 2), (907, 3), (35, 2), (1, 1)):
        f = make_field(d)
        rep = rep_for(f, class_index)
        form = class_form(f, rep)
        values = _form_values(*form[:3], 2000)
        expected = oracle_witnesses(d, class_index, rep.k * 2000)
        assert [n // rep.k for n in expected] == values
        assert {form[0] * x * x for x in range(1, math.isqrt(2000 // form[0]) + 1)} <= set(values)
        for n, (a, b) in expected.items():
            assert repsearch._witness(form, rep.k, n // rep.k) == RingElement(a, b), (d, class_index, n)
        gap = next(v for v in range(1, 2001) if v not in values)
        with pytest.raises(ValueError, match="is not a value"):
            repsearch._witness(form, rep.k, gap)


def test_each_distinct_summand_is_solved_once(monkeypatch):
    # 81 = 13 + 13 + 13 + 19 + 23 for d=907 class 2: three distinct values
    solved = []
    witness = repsearch._witness
    monkeypatch.setattr(repsearch, "_witness", lambda form, k, v: solved.append(v) or witness(form, k, v))
    cert = find_certificate(_query(907, 2, 81), 5)
    assert [(g.a, g.b) for g in cert.gammas] == [(13, 0), (13, 0), (13, 0), (5, -1), (8, 1)]
    assert sorted(solved) == sorted(set(solved)) and len(solved) == 3


certificate_cases = st.tuples(
    st.sampled_from([(5, 2), (35, 2), (51, 2), (23, 2), (23, 3), (187, 2), (907, 2), (907, 3), (7, 1)]),
    st.integers(min_value=1, max_value=40),
)


@given(certificate_cases)
def test_certificates_recheck_cleanly(case):
    (d, class_index), r = case
    q = _query(d, class_index, r)
    res = min_terms(q)
    if not res.is_representable:
        return
    cert = find_certificate(q, res.m)
    assert cert is not None
    assert cert.m == res.m == len(cert.gammas)
    assert recheck_certificate(cert.to_json_dict()) == []
    # gammas come sorted by value then coordinates and sum to the target
    f = make_field(d)
    norms = [norm(f, g) for g in cert.gammas]
    assert norms == sorted(norms)
    assert sum(norms) == q.r * q.k
    # each summand is its norm's canonical witness
    for g, n in zip(cert.gammas, norms):
        assert (g.a, g.b) == oracle_witness(d, class_index, n)


@given(certificate_cases, st.integers(min_value=1, max_value=6))
def test_certificate_is_the_oracles_least_split(case, m):
    # m runs above and below the minimum: None exactly when no split exists
    # cold (shifted values layered), then warm (the cached table read)
    (d, class_index), r = case
    q = _query(d, class_index, r)
    repsearch._TABLES.clear()
    cert = find_certificate(q, m)
    min_terms(q)
    assert find_certificate(q, m) == cert
    split = oracle_least_split(d, class_index, r, m)
    if split is None:
        assert cert is None
    else:
        f = make_field(d)
        assert sorted(norm(f, g) for g in cert.gammas) == split


def test_certificate_with_thousands_of_summands():
    cert = find_certificate(_query(1, 1, 5000), 2000)
    assert cert is not None and len(cert.gammas) == 2000
    assert recheck_certificate(cert.to_json_dict()) == []


@given(certificate_cases)
def test_min_terms_agrees_with_oracle(case):
    (d, class_index), r = case
    res = min_terms(_query(d, class_index, r))
    got = res.m if res.is_representable else None
    oracle = oracle_min_terms(d, class_index, r, m_max=6)
    if got is not None and got <= 6:
        assert oracle == got
    elif got is None:
        assert oracle is None


@given(certificate_cases)
def test_padding_monotonicity(case):
    # appending gamma = k turns an r-certificate into an (r+k)-certificate
    (d, class_index), r = case
    res = min_terms(_query(d, class_index, r))
    if not res.is_representable:
        return
    k = _query(d, class_index, r).k
    padded = min_terms(_query(d, class_index, r + k))
    assert padded.is_representable
    assert padded.m <= res.m + 1


def test_norm_multiples_need_no_more_values():
    # scaling law: if r*k = N(gamma_1) + ... + N(gamma_m) and n = N(pi) for pi
    # in O, then n*r*k = N(pi*gamma_1) + ... + N(pi*gamma_m) with each
    # pi*gamma_i in the class ideal, so 1 <= count(n*r) <= count(r); checked
    # with the first 40 norms n >= 2 of each field, the principal class's
    # count-1 entries, on the 77 tables (class 3 reads class 2's)
    width = 3000
    pairs = 0
    for d, class_index in ALL_CLASSES:
        if class_index == 3:
            continue
        f = make_field(d)
        principal = _count_bytes(f, 1, width)
        norms = [n for n in range(2, width + 1) if principal[n] == 1][:40]
        table = _count_bytes(f, class_index, width)
        for r in range(1, width + 1):
            if table[r]:
                for n in norms:
                    if n * r > width:
                        break
                    assert 1 <= table[n * r] <= table[r], (d, class_index, n, r)
                    pairs += 1
    assert pairs == 219258


def test_anisotropic_primes_descend():
    # descent: let p be an odd prime, p = 3 (mod 4), with p || D = 4AC - B^2,
    # and take an equivalent form with p not dividing A (same values).  Then
    # 4A*Q(x, y) = X^2 + D*y^2 with X = 2A*x + B*y.  If Q(u) + Q(v) = 0
    # (mod p^2), then X_u^2 + X_v^2 = 0 (mod p), and -1 is no square mod p,
    # so p | X_u and p | X_v; then D*(y_u^2 + y_v^2) = 0 (mod p^2) with
    # p || D gives p | y_u and p | y_v, and so p | x_u and p | x_v.  Hence
    # p | u and p | v, Q(u) + Q(v) = p^2*(Q(u/p) + Q(v/p)), and p^2*r is a
    # sum of at most two values exactly when r is (v = 0 covers one).  With
    # the scaling law above (p^2 = N(p) is a norm): count(p^2*r) = count(r)
    # when 1 <= count(r) <= 3, count(p^2*r) >= 3 when count(r) >= 3, and
    # count(p^2*r) is 0 or at least 3 when r is unreachable; checked on the
    # 77 tables (class 3 reads class 2's), p from 3 to 47 at this width
    width = 3000
    pairs = 0
    for d, class_index in ALL_CLASSES:
        if class_index == 3:
            continue
        f = make_field(d)
        a, b, c, _ = class_form(f, rep_for(f, class_index))
        disc = 4 * a * c - b * b
        table = _count_bytes(f, class_index, width)
        for p in range(3, math.isqrt(width) + 1, 4):
            if disc % p or disc % (p * p) == 0 or any(p % q == 0 for q in range(3, math.isqrt(p) + 1, 2)):
                continue
            for r in range(1, width // (p * p) + 1):
                count, scaled = table[r], table[p * p * r]
                if 1 <= count <= 3:
                    assert scaled == count, (d, class_index, p, r)
                else:
                    assert scaled >= 3 or (count == 0 and scaled == 0), (d, class_index, p, r)
                pairs += 1
    assert pairs == 4253


def test_exceptional_set_examples():
    f35 = make_field(35)
    assert exceptional_set(f35, 2, 100) == [1, 2, 4]
    assert exceptional_set(make_field(1), 1, 50) == []
    f403 = make_field(403)
    exc = exceptional_set(f403, 2, 150)
    assert exc[:12] == [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 14]
    assert 82 in exc and 83 not in exc
    with pytest.raises(ValueError):
        exceptional_set(f35, 2, 0)


def test_exceptional_set_reads_only_its_window():
    # windows ending on, just past and just before an exceptional r, read
    # cold and then from a longer cached table
    for d, class_index in ((35, 2), (403, 2), (907, 3), (1, 1)):
        f = make_field(d)
        for r_max in (1, 3, 4, 5, 82, 83, 150, 600, 150, 4, 1):
            counts = min_count_table(f, class_index, r_max)
            expected = [r for r, m in enumerate(counts, 1) if m is None]
            assert exceptional_set(f, class_index, r_max) == expected, (d, class_index, r_max)


def test_width_300_proves_every_exceptional_set():
    # with vmin the least form value, if every r in [R, R + vmin) is a sum
    # of values then so is every r >= R (add vmin), so a table whose
    # layers cover that window decides the exceptional set for all r; R is
    # one past the last exception, and 1 when there is none, so the empty
    # sum at bit 0 stays out of the window
    windows = {}
    for d, class_index in ALL_CLASSES:
        layers = repsearch._layer_table(make_field(d), class_index, 300)
        values = layers[1] - 1
        vmin = (values & -values).bit_length() - 1
        R = max(1, (~layers[-1] & ((2 << 300) - 2)).bit_length())
        assert 0 < vmin and R + vmin <= 301, (d, class_index)
        assert layers[-1] >> R & ((1 << vmin) - 1) == (1 << vmin) - 1, (d, class_index)
        windows[d, class_index] = (R + vmin - 1, R, vmin)
    assert len(windows) == 93
    assert max(windows.values()) == windows[427, 2] == (95, 89, 7)


def test_g_invariant_examples():
    g5 = g_invariant(make_field(5), 300)
    assert g5.g == 3 and g5.stable
    g15 = g_invariant(make_field(15), 300)
    assert g15.g == 3 and g15.stable
    g907 = g_invariant(make_field(907), 300)
    assert g907.g == 5 and g907.stable
    assert (g907.witness.class_index, g907.witness.r) == (2, 81)
    # g = 5 first shows at r = 81, so it is stable from r_max = 162 on
    assert [g_invariant(make_field(907), r_max).stable for r_max in (100, 161, 162)] == [False, False, True]
    g1 = g_invariant(make_field(1), 300)
    assert g1.g == 2 and g1.stable
    assert (g1.witness.class_index, g1.witness.r) == (1, 3)


def test_g_and_exceptions_equal_the_count_windows():
    # g_invariant and exceptional_set read the layers; each must give what
    # the decoded count windows give by the definitions: g the largest
    # count over the classes, the witness the first class holding it at
    # its least r, stable when some class holds it at r <= r_max // 2, and
    # the exceptions the r with no count; every class-number-2 and -3
    # field, at windows around d=907's g = 5 first shown at r = 81 and
    # past it, read off layers built at r_max and off layers built at 1500
    fields = [*class_number_fields(2), *class_number_fields(3)]
    assert len(fields) == 34
    for d in fields:
        f = make_field(d)
        reps = class_reps(f)
        for r_max in (27, 80, 100, 161, 162, 300, 1500):
            repsearch._TABLES.clear()
            windows = [[m or 0 for m in min_count_table(f, rep.class_index, r_max)] for rep in reps]
            g = max(map(max, windows))
            witness = next(_query(d, rep.class_index, window.index(g) + 1)
                           for rep, window in zip(reps, windows) if g in window)
            stable = any(g in window[: r_max // 2] for window in windows)
            exceptions = [[r for r, m in enumerate(window, 1) if not m] for window in windows]
            for wider in (False, True):
                if wider:
                    g_invariant(f, 1500)
                got = g_invariant(f, r_max)
                assert (got.g, got.witness, got.stable) == (g, witness, stable), (d, r_max, wider)
                assert [exceptional_set(f, rep.class_index, r_max) for rep in reps] == exceptions, (d, r_max, wider)


def test_g_invariant_window_guard():
    # needs room for 2k+1 targets, k=13 here
    with pytest.raises(ValueError):
        g_invariant(make_field(907), 20)
    assert g_invariant(make_field(907), 27).g >= 4


def test_work_bound_overflow():
    t0 = time.perf_counter()
    with pytest.raises(Overflow, match="word-shifts"):
        min_terms(_query(1, 1, 10**7))
    with pytest.raises(Overflow):
        find_certificate(_query(1, 1, 10**7), 3)
    with pytest.raises(Overflow):
        exceptional_set(make_field(5), 2, 10**7)
    # the budget is checked before anything of width r is allocated
    with pytest.raises(Overflow):
        find_certificate(_query(1, 1, 10**12), 1)
    with pytest.raises(Overflow):
        min_terms(_query(1, 1, 10**12))
    assert time.perf_counter() - t0 < 1


def test_work_is_checked_once_per_build(monkeypatch):
    # a cache hit reads a prefix of a table whose build was admitted, so no
    # budget applies to it; a command's sum over its tables is checked first
    f = make_field(35)
    assert exceptional_set(f, 2, 300)[:3] == [1, 2, 4]
    monkeypatch.setattr(repsearch, "_WORK_BUDGET", 0)
    assert exceptional_set(f, 2, 200)[:3] == [1, 2, 4]
    with pytest.raises(Overflow, match="2 tables of width 300"):
        g_invariant(f, 300)


def _widest_admitted(form):
    """The widest width that _value_mask admits for the form; the estimate
    grows with the width, so a doubling and a bisection find it."""
    def admitted(width):
        return repsearch._work_estimate(*form, width) <= repsearch._WORK_BUDGET

    lo, hi = 1, 2
    while admitted(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if admitted(mid) else (lo, mid)
    return lo


def _widest_admitted_widths():
    """(field, class_index, key, width) for each _TABLES key, width the
    widest that _value_mask admits for the key's form."""
    for d in SUPPORTED_FIELDS:
        f = make_field(d)
        for rep in class_reps(f):
            key = repsearch._table_key(f, rep.class_index)
            if key == (d, rep.class_index):
                yield f, rep.class_index, key, _widest_admitted(class_form(f, rep)[:3])


def test_table_cache_is_bounded_in_bytes():
    # a key's layers of width w are one mask per count up to its largest
    # count in [0, w], plus layer 0, each of w // 8 + 1 bytes, beside a
    # value mask of width w; the largest count only grows with w, and
    # either is widened only to a width _value_mask admits, so the build at
    # each key's widest admitted width bounds the cache in bytes with no
    # eviction; a refused query or table keeps nothing
    table_bytes = {}
    masks = {}
    for f, class_index, key, width in _widest_admitted_widths():
        q = LatticeQuery(f, class_index, width + 1)
        for build in (lambda: min_count_table(f, class_index, width + 1), lambda: min_terms(q),
                      lambda: find_certificate(q, 2)):
            with pytest.raises(Overflow):
                build()
        assert repsearch._TABLES == {}
        masks[key] = len(repsearch._layer_table(f, class_index, width))
        repsearch._TABLES.clear()
        table_bytes[key] = (masks[key] + 1) * (width // 8 + 1)
    assert len(table_bytes) == 77
    assert sorted(collections.Counter(masks.values()).items()) == [(3, 6), (4, 17), (5, 53), (6, 1)]
    assert sum(table_bytes.values()) == 26724603
    assert max(table_bytes.values()) == table_bytes[(907, 2)] == 7 * 97488
    # the formula against what a built entry keeps: no more layers than at
    # the widest width, each of at most w + 1 bits, and a mask of at most
    # w + 1 bits, so each at most w // 8 + 1 bytes
    for w in (300, 3000):
        for d, class_index in ((907, 2), (907, 3), (5, 2), (23, 2), (403, 2)):
            f = make_field(d)
            key = repsearch._table_key(f, class_index)
            min_count_table(f, class_index, w)
            layers, reach, width, values = repsearch._TABLES[key]
            assert (reach, width) == (w, w) and len(layers) <= masks[key], (d, class_index)
            assert all(layer.bit_length() <= w + 1 for layer in layers), (d, class_index)
            assert values & 1 and values.bit_length() <= w + 1, (d, class_index)
        assert sorted(repsearch._TABLES) == [(5, 2), (23, 2), (403, 2), (907, 2)]


def test_residue_cache_is_bounded_in_bytes():
    # a residue mask of limit w takes w // 8 + 1 bytes, and its key (a, r),
    # r = |rho| of some row of a form with leading coefficient a, is only
    # rebuilt at the bound of an admitted call; so the widest width
    # admitted for any form with that a bounds the key, and the cache in
    # bytes, with no eviction; a refused call keeps nothing
    widest = {}
    keys = set()
    for a, b, c in CLASS_FORMS + NORM_FORMS:
        width = _widest_admitted((a, b, c))
        with pytest.raises(Overflow):
            repsearch._value_mask(a, b, c, width + 1)
        widest[a] = max(widest.get(a, 0), width)
        # rho depends on y mod 2a only
        keys |= {(a, abs((b * y + a - 1) % (2 * a) - a + 1)) for y in range(2 * a)}
    assert repsearch._RESIDUES == {}
    assert widest == {1: 774591, 2: 554123, 3: 574241, 5: 671377, 7: 715409, 11: 687487, 13: 779903}
    assert len(keys) == sum(a + 1 for a in widest) == 49
    assert sum(widest[a] // 8 + 1 for a, _ in keys) == 4303588


def _assert_layout(f, class_index):
    """The class's cached entry holds its value mask up to its width and,
    up to where they reach, its layers, mask for mask against the
    oracle's layers over that width."""
    layers, reach, width, values = repsearch._TABLES[repsearch._table_key(f, class_index)]
    form = class_form(f, rep_for(f, class_index))[:3]
    assert values == repsearch._value_mask(*form, width)
    assert layers == _cut(oracle_layers(_form_values(*form, width), width), reach)


def test_one_entry_holds_layers_and_a_mask():
    # point queries at r needing one or two values enumerate the mask from
    # an empty cache and build no layers; layers built at r keep the wider
    # mask (r = 50 is reached by no number of values), a mask widened past
    # the layers keeps them, and a wider count table replaces both
    f = make_field(907)
    steps = [
        (lambda: min_terms(_query(907, 3, 13)), -1, 13),
        (lambda: min_terms(_query(907, 3, 26)), -1, 26),
        (lambda: min_terms(_query(907, 2, 3000)), -1, 3000),
        (lambda: min_terms(_query(907, 3, 50)), 50, 3000),
        (lambda: find_certificate(_query(907, 3, 5000), 2), 50, 5000),
        (lambda: min_count_table(f, 2, 3000), 3000, 5000),
        (lambda: exceptional_set(f, 3, 6000), 6000, 6000),
    ]
    for step, reach, width in steps:
        step()
        assert list(repsearch._TABLES) == [(907, 2)]
        assert repsearch._TABLES[(907, 2)][1:3] == (reach, width)
        _assert_layout(f, 3)


def test_every_enumeration_is_admitted_before_its_first_point(monkeypatch):
    # the budget check lives in _value_mask, so no caller can enumerate
    # without it: with no budget, each entry point must refuse before the
    # form's rows are counted
    monkeypatch.setattr(repsearch, "_WORK_BUDGET", 0)

    def enumerated(*args):
        raise AssertionError("a form was enumerated before the work check")

    monkeypatch.setattr(repsearch, "isqrt", enumerated)
    f = make_field(907)
    calls = [
        lambda: min_terms(_query(907, 2, 50)),
        lambda: find_certificate(_query(907, 2, 50), 3),
        lambda: exceptional_set(f, 3, 50),
        lambda: find_certificate(_query(907, 3, 500), 2),
        lambda: m_d(f),
        lambda: norm_sum_first_gap(f, 3, 100),
    ]
    for call in calls:
        with pytest.raises(Overflow, match="would take an estimated"):
            call()


@pytest.mark.parametrize("width", [300, 3000])
def test_work_bound_covers_every_class(width, monkeypatch):
    # for the class form's values V and the certificate walk's shifted
    # values V'' (v - vmin), a build up to a fixpoint takes no more than
    # _PASS_BOUND passes; the estimate is at least the half-plane points
    # x words x _PASS_BOUND and at least values x words x passes, so with
    # the budget one below either, _value_mask must refuse; a lowered
    # budget refuses this test's own enumeration too, so each class starts
    # from the real one
    words = width // 64 + 1
    budget = repsearch._WORK_BUDGET
    for d, class_index in ALL_CLASSES:
        monkeypatch.setattr(repsearch, "_WORK_BUDGET", budget)
        f = make_field(d)
        a, b, c, _ = class_form(f, rep_for(f, class_index))
        values = _form_values(a, b, c, width)
        loads = [_half_plane_points(a, b, c, width) * repsearch._PASS_BOUND]
        for vs in (values, [v - values[0] for v in values[1:]]):
            passes = len(reach_layers(_mask(vs, width), width))
            assert passes <= repsearch._PASS_BOUND, (d, class_index)
            loads.append(len(vs) * passes)
        for load in loads:
            monkeypatch.setattr(repsearch, "_WORK_BUDGET", load * words - 1)
            with pytest.raises(Overflow, match=f"width {width} would take an estimated"):
                repsearch._value_mask(a, b, c, width)


def _half_plane_points(a, b, c, width):
    """The points of the half plane y > 0 or (y = 0, x > 0) where the form
    is at most width, row by row: by 4a*Q = (2a*x + b*y)^2 + D*y^2, row y
    holds the x with |2a*x + b*y| <= sqrt(4a*width - D*y^2)."""
    disc = 4 * a * c - b * b
    points = 0
    for y in range(math.isqrt(4 * a * width // disc) + 1):
        u = math.isqrt(4 * a * width - disc * y * y)
        points += (u - b * y) // (2 * a) + 1 - (1 if y == 0 else -((u + b * y) // (2 * a)))
    return points


@pytest.mark.parametrize("width", [10, 100, 300, 3000, 30000])
def test_work_bound_charges_each_pass_its_recounts(width):
    # the estimate charges a pass one word-shift of the mask per point of
    # the half plane; a pass over n values does at most n shifts and
    # tests and at most n // 16 + 5 popcounts, one before the pass and one
    # per recount, each over as many words, so the points must cover
    # n + n // 16 + 5.  The least ratio measured is 1.07, d=883 class 2 at
    # width 3000: measured slack, not a proof
    charge = (width // 64 + 1) * repsearch._PASS_BOUND
    for d, class_index in ALL_CLASSES:
        f = make_field(d)
        form = class_form(f, rep_for(f, class_index))[:3]
        points, rest = divmod(repsearch._work_estimate(*form, width), charge)
        n = repsearch._value_mask(*form, width).bit_count() - 1
        assert rest == 0 and points >= n + n // 16 + 5, (d, class_index)


def test_admitted_widths_are_pinned():
    # the estimate bounds the dense passes, so a cheaper loop leaves every
    # admitted width where it was
    for d, class_index, width in ((907, 2, 779903), (1, 1, 201407)):
        f = make_field(d)
        form = class_form(f, rep_for(f, class_index))[:3]
        assert repsearch._work_estimate(*form, width) <= repsearch._WORK_BUDGET
        with pytest.raises(Overflow):
            repsearch._value_mask(*form, width + 1)
    # a class-number-3 field builds two tables, class 3 reading class 2's
    for class_number, r_max in ((2, 68423), (3, 87679)):
        fields = [make_field(d) for d in class_number_fields(class_number)]
        check_tables(fields, r_max)
        with pytest.raises(Overflow):
            check_tables(fields, r_max + 1)


def _first_sparse_layer(masks, values, width):
    """The first layer that leaves fewer bits of [0, width] unset than
    there are values, or None: a pass from it may switch to testing unset
    bits one at a time at its first recount, after one shift, once a
    batch of shifts clears fewer bits than it has shifts.  The values are
    distinct, ascending and in [1, width], as reach_layers reads them off
    its first layer."""
    return next((j for j in range(1, len(masks)) if width + 1 - masks[j].bit_count() < len(values)), None)


caps = st.none() | st.integers(min_value=-3, max_value=12)


@given(st.lists(st.integers(min_value=0, max_value=80), max_size=60), st.integers(min_value=0, max_value=400), caps)
def test_layers_race_oracle_on_random_values(values, width, cap):
    assert reach_layers(_mask(values, width), width, cap) == oracle_layers(values, width, cap)


@pytest.mark.parametrize("values, width", [
    ([], 0), ([], 50), ([0], 50), ([0, 0, 0], 50), ([51, 90], 50), ([7], 0),
    ([3, 3, 3, 5, 5], 40), ([0, 4, 4, 60, 6, 0], 40), ([40], 40), ([41, 40, 0, 40], 40),
    ([*range(1, 17), *range(92, 1277, 16)], 1280),
])
def test_layers_on_edge_value_lists(values, width):
    # no values, value 0, duplicates, values above width and caps below 1
    # leave layer 1 equal to layer 0 or never build it; the last list, a
    # run and a tail too short for the pass to layer 2 to switch before
    # its last value, shifts by every value and never tests
    for cap in (None, -5, -1, 0, 1, 2, 3):
        assert reach_layers(_mask(values, width), width, cap) == oracle_layers(values, width, cap), cap


def _shifts_before_tests(cur, values, width, batch_rule=True):
    """How many values a pass from layer cur shifts by before it tests the
    bits still unset, values distinct, ascending and in [1, width] as
    reach_layers reads them off its first layer, by its rule: none when
    cur is full; otherwise recount the unset bits of [0, width] after
    shift 1, 2, 4, 8 and then every 16th shift, and switch at a recount
    once fewer are unset than values are left and the last batch of
    shifts, those since the previous recount, cleared fewer bits than it
    had shifts.  With batch_rule false the model drops the batch test and
    switches at the first recount with fewer unset than values left."""
    window = (1 << (width + 1)) - 1
    grown, unset = cur, width + 1 - cur.bit_count()
    if not unset:
        return 0
    last = 0
    for i, v in enumerate(values, 1):
        grown |= (cur << v) & window
        if i in (1, 2, 4, 8) or i % 16 == 0:
            before, unset = unset, width + 1 - grown.bit_count()
            if unset < len(values) - i and (not batch_rule or before - unset < i - last):
                return i
            last = i
    return len(values)


def _best_of_three(layers, masks, *args):
    """The least of three timings of layers(*args), each checked against
    masks."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        assert layers(*args) == masks
        times.append(time.perf_counter() - start)
    return min(times)


@st.composite
def mid_pass_lists(draw):
    """Values 1..k and every s-th number above k + o (3 <= s <= k, o < s),
    with a few tail values dropped and a few values in [0, width + 40]
    added, in ascending order; width >= 160*s keeps the tail above 140
    values.  Layer 1 leaves more bits unset than there are values, and the
    run fills the tail's gaps within 15 shifts, so by shift 48 a batch of
    shifts clears fewer bits than it has shifts, and more values are left
    than bits unset: the pass to layer 2 switches to testing unset bits
    part of the way through its values.  At 80*s a short tail could run
    out first (k=16, s=16, width 1280: all 91 values shifted)."""
    k = draw(st.integers(min_value=3, max_value=40))
    s = draw(st.integers(min_value=3, max_value=min(k, 16)))
    o = draw(st.integers(min_value=0, max_value=s - 1))
    width = draw(st.integers(min_value=160 * s, max_value=3000))
    tail = list(range(k + 1 + o, width + 1, s))
    dropped = draw(st.sets(st.sampled_from(tail), max_size=4))
    extra = draw(st.lists(st.integers(min_value=0, max_value=width + 40), max_size=8))
    return sorted([*range(1, k + 1), *(t for t in tail if t not in dropped), *extra]), width


@given(mid_pass_lists(), caps)
def test_layers_race_oracle_when_the_switch_lands_mid_pass(case, cap):
    values, width = case
    layer1 = oracle_layers(values, width, 1)[1]
    distinct = sorted({v for v in values if 0 < v <= width})
    assert 0 < _shifts_before_tests(layer1, distinct, width) < len(distinct)
    assert reach_layers(_mask(values, width), width, cap) == oracle_layers(values, width, cap)


def test_mid_pass_switch_costs_a_fraction_of_a_full_pass():
    # layer 1 leaves 96% of [0, width] unset, more bits than the 4029
    # values, and shifting by 1..24 fills the tail's gaps: shifts 17-32
    # still clear thousands of bits, shifts 33-48 none, so the pass to
    # layer 2 shifts by 48 values and has no bit left to test, where a
    # full pass shifts by all of them and testing every bit unset in
    # layer 1 costs more still
    width = 100000
    values = [*range(1, 31), *range(50, width + 1, 25)]
    masks = oracle_layers(values, width, 2)
    assert _shifts_before_tests(masks[1], values, width) == 48
    fast = _best_of_three(reach_layers, masks, _mask(values, width), width, 2)
    assert 5 * fast < _best_of_three(oracle_layers, masks, values, width, 2)


@pytest.mark.parametrize("values, width, old, new", [
    ([*range(1, 31), *range(50, 100001, 25)], 100000, 32, 48),
    ([*range(1, 13), *range(20, 20001, 10)], 20000, 8, 32),
    ([*range(1, 17), *range(20, 5001, 16)], 5000, 16, 32),
    ([*range(1, 8), *range(10, 3001, 7)], 3000, 8, 16),
])
def test_layers_race_oracle_when_the_batch_test_defers_the_switch(values, width, old, new):
    # at recount old fewer bits are unset than values are left, but the
    # batch ending there still filled the tail's gaps, clearing more bits
    # than it had shifts, so the pass to layer 2 shifts on to recount new
    layer1 = oracle_layers(values, width, 1)[1]
    assert _shifts_before_tests(layer1, values, width, batch_rule=False) == old
    assert _shifts_before_tests(layer1, values, width) == new
    for cap in (None, 0, 1, 2, 3):
        assert reach_layers(_mask(values, width), width, cap) == oracle_layers(values, width, cap), cap


def test_class_form_layers_cost_a_small_fraction_of_full_passes():
    # the pass to layer 2 over the 7785 values of d=23 class 2 has fewer
    # bits unset than values left after 4 shifts, but still 5732, each
    # test an AND over up to width + 1 bits; the batches keep clearing
    # more bits than they have shifts until shift 96, which leaves 68
    width = 30000
    f = make_field(23)
    values = _form_values(*class_form(f, rep_for(f, 2))[:3], width)
    masks = oracle_layers(values, width)
    assert _shifts_before_tests(masks[1], values, width, batch_rule=False) == 4
    assert _shifts_before_tests(masks[1], values, width) == 96
    fast = _best_of_three(reach_layers, masks, masks[1], width)
    assert 15 * fast < _best_of_three(oracle_layers, masks, values, width)


def test_a_pass_from_a_dense_layer_shifts_before_it_tests(monkeypatch):
    # layer 2 of the d=403 norm form's 2090 values at width 30000 leaves
    # 354 bits unset, fewer than the values; the pass to layer 3 shifts by
    # 1, 2, 4 and 8 values, each batch but the last clearing more bits than
    # it had shifts, and tests the 15 bits still unset, none of them in
    # layer 3, where testing at once would test all 354.  The pass to
    # layer 2 recounts every 16 shifts after shift 16, and shifts 145-160
    # clear one bit, so it tests the 675 bits left after 160 shifts.  The
    # kernel's shifts are counted as the values it reads off its first
    # layer, one pass per finditer, and match the model's; the pass from
    # the full layer 4 reads none
    width = 30000
    window = (1 << (width + 1)) - 1
    values = _form_values(*make_field(403).form_coefficients(), width)
    masks = oracle_layers(values, width)
    assert len(values) == 2090 and width + 1 - masks[2].bit_count() == 354
    grown = masks[2]
    for v in values[:8]:
        grown |= (masks[2] << v) & window
    assert width + 1 - grown.bit_count() == width + 1 - masks[3].bit_count() == 15
    shifts = []

    def finditer(digits, start):
        shifts.append(0)
        for value in re.compile("1").finditer(digits, start):
            shifts[-1] += 1
            yield value

    monkeypatch.setattr(repsearch, "re", SimpleNamespace(compile=lambda pattern: SimpleNamespace(finditer=finditer)))
    assert reach_layers(masks[1], width) == masks
    assert len(masks) == 5 and masks[4] == window
    assert shifts == [_shifts_before_tests(masks[j], values, width) for j in (1, 2, 3)]
    assert shifts == [160, 8, 2]


@given(
    st.sampled_from([3, 5]),
    st.lists(st.integers(min_value=1, max_value=60), min_size=1, max_size=30),
    st.integers(min_value=100, max_value=600),
    caps,
)
def test_layers_race_oracle_on_the_dense_path(p, xs, width, cap):
    # only multiples of p are reachable, so at least 2/3 of [1, width] stays
    # unset, more bits than there are values: every pass shifts every value
    values = [p * x for x in xs]
    masks = oracle_layers(values, width, cap)
    assert _first_sparse_layer(masks, sorted({v for v in values if v <= width}), width) is None
    assert reach_layers(_mask(values, width), width, cap) == masks


def _class_value_lists(d, class_index, width):
    """The class form's values up to width and, as find_certificate layers
    them, the shifted values v - vmin of the others."""
    f = make_field(d)
    values = _form_values(*class_form(f, rep_for(f, class_index))[:3], width)
    return [values, [v - values[0] for v in values[1:]]]


@given(st.sampled_from(ALL_CLASSES), st.integers(min_value=1, max_value=3000), caps)
def test_layers_race_oracle_on_class_forms(field_class, width, cap):
    for values in _class_value_lists(*field_class, width):
        assert reach_layers(_mask(values, width), width, cap) == oracle_layers(values, width, cap)


def test_class_forms_switch_to_unset_bit_tests_after_layer_two_or_three():
    # at width 3000, layer 2 leaves fewer bits unset than there are values,
    # for both value lists of 87 of the 93 classes; layer 3 does elsewhere
    width = 3000
    switches = []
    for d, class_index in ALL_CLASSES:
        for values in _class_value_lists(d, class_index, width):
            masks = oracle_layers(values, width)
            assert reach_layers(_mask(values, width), width) == masks, (d, class_index)
            switches.append(_first_sparse_layer(masks, values, width))
    assert sorted(set(switches)) == [2, 3]
    assert switches.count(2) == 2 * 87


def _transferred(cert):
    """The certificate's JSON with each summand conjugated and the query
    moved to the paired class, in canonical (norm, a, b) order."""
    f = cert.query.field
    moved = cert.to_json_dict()
    moved["class_index"] = 5 - cert.query.class_index
    image = sorted((conjugate(f, g) for g in cert.gammas), key=lambda g: (norm(f, g), g.a, g.b))
    moved["gammas"] = [[g.a, g.b] for g in image]
    return moved


def test_transfer_certificate_between_paired_classes():
    cert = find_certificate(_query(23, 2, 3), 1)
    assert [(g.a, g.b) for g in cert.gammas] == [(1, -1)]
    moved = _transferred(cert)
    assert moved["class_index"] == 3
    assert moved["gammas"] == [[0, 1]]
    assert recheck_certificate(moved) == []
    # the image is valid and in canonical order, but a conjugate need not
    # be the canonical witness of its norm: class 2 itself gives (2, -3)
    cert = find_certificate(_query(907, 3, 274), 2)
    assert [(g.a, g.b) for g in cert.gammas] == [(39, 0), (1, -3)]
    moved = _transferred(cert)
    assert moved["gammas"] == [[39, 0], [-2, 3]]
    assert recheck_certificate(moved) == []
    assert [(g.a, g.b) for g in find_certificate(_query(907, 2, 274), 2).gammas] == [(39, 0), (2, -3)]
