"""Representation search: value enumeration, minimum counts, certificates.

FROZEN_MIN_TERMS was produced by tests/_oracle.py (depth-first search with
its own value enumeration) and is pinned here; min_terms must agree.
"""

import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from _oracle import oracle_layers, oracle_least_split, oracle_min_terms, oracle_witness, oracle_witnesses
from normsums import repsearch
from normsums.classdata import class_form, class_number_fields, class_reps, rep_for
from normsums.quadfield import SUPPORTED_FIELDS, Overflow, RingElement, make_field, norm
from normsums.repsearch import (
    LatticeQuery,
    MinTermsResult,
    check_tables,
    check_work,
    enumerate_norm_values,
    exceptional_set,
    find_certificate,
    form_values,
    g_invariant,
    min_count_table,
    min_terms,
    reach_layers,
    transfer_certificate,
)
from normsums.verify import recheck_certificate

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


def test_query_validation():
    with pytest.raises(ValueError):
        _query(5, 3, 1)
    with pytest.raises(ValueError):
        _query(5, 0, 1)
    with pytest.raises(ValueError):
        _query(5, 2, 0)
    q = _query(35, 2, 3)
    assert q.k == 5 and q.target == 15


def test_enumerate_norm_values_examples():
    f5 = make_field(5)
    vs = enumerate_norm_values(f5, rep_for(f5, 2), 10)
    # 9 = N(3) is excluded: 3 fails the parity condition for this class
    assert vs.values == (4, 6)
    assert vs.witness_for(6) == RingElement(1, 1)
    assert vs.witness_for(4) == RingElement(2, 0)
    # below, between and above the values, and past the bound
    for n in (1, 5, 9, 10, 12):
        with pytest.raises(ValueError, match="not an admissible norm value"):
            vs.witness_for(n)

    f51 = make_field(51)
    vs = enumerate_norm_values(f51, rep_for(f51, 2), 30)
    assert 15 in vs.values and 25 in vs.values
    assert vs.witness_for(15) == RingElement(2, -1)
    assert vs.witness_for(25) == RingElement(5, 0)

    # below the smallest admissible norm the set is empty
    vs = enumerate_norm_values(f5, rep_for(f5, 2), 3)
    assert vs.values == ()

    with pytest.raises(ValueError):
        enumerate_norm_values(f5, rep_for(f5, 2), 0)


def test_enumerate_norm_values_canonical_witnesses():
    f907 = make_field(907)
    vs = enumerate_norm_values(f907, rep_for(f907, 2), 300)
    assert vs.witness_for(247) == RingElement(5, -1)
    assert vs.witness_for(169) == RingElement(13, 0)
    assert vs.witness_for(299) == RingElement(8, 1)
    vs3 = enumerate_norm_values(f907, rep_for(f907, 3), 300)
    assert vs3.witness_for(299) == RingElement(9, -1)


ALL_CLASSES = [(d, rep.class_index) for d in SUPPORTED_FIELDS for rep in class_reps(make_field(d))]


@given(st.sampled_from(ALL_CLASSES), st.integers(min_value=1, max_value=400))
def test_enumerate_matches_oracle_box_scan(field_class, bound):
    d, class_index = field_class
    f = make_field(d)
    rep = rep_for(f, class_index)
    expected = oracle_witnesses(d, class_index, bound)
    # every admissible norm is k times a value of the class form
    assert all(v % rep.k == 0 for v in expected)
    vs = enumerate_norm_values(f, rep, bound)
    # the same values, each with the oracle's canonical witness
    assert {v: (w.a, w.b) for v, w in zip(vs.values, vs.witnesses)} == expected
    assert list(vs.values) == list(expected)


@given(
    st.sampled_from([(5, 2), (35, 2), (23, 3), (907, 2)]),
    st.integers(min_value=1, max_value=400),
)
def test_witnesses_are_valid_and_nonzero(field_class, bound):
    d, class_index = field_class
    f = make_field(d)
    vs = enumerate_norm_values(f, rep_for(f, class_index), bound)
    assert len(vs.values) == len(vs.witnesses)
    for v, w in zip(vs.values, vs.witnesses):
        assert not w.is_zero()
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
    assert min_terms(_query(35, 2, 4)) == MinTermsResult.unrepresentable()
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
    # one table per (d, class): a smaller window after a larger one reads a
    # prefix of it, a larger one rebuilds it; each answer must equal a cold build
    f = make_field(907)
    windows = (300, 50, 600)
    repsearch._TABLES.clear()
    warm = [(min_count_table(f, 2, n), exceptional_set(f, 2, n)) for n in windows]
    assert len(repsearch._TABLES[(907, 2)]) == 601
    for n, got in zip(windows, warm):
        repsearch._TABLES.clear()
        assert got == (min_count_table(f, 2, n), exceptional_set(f, 2, n)), n


def test_class_the_field_lacks_raises_with_its_pair_cached(monkeypatch):
    # class 3 reads the (d, 2) table, but only where the field has a class 3
    monkeypatch.setattr(repsearch, "_TABLES", {})
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
    assert sum(norms) == q.target
    # each summand is its norm's canonical witness
    for g, n in zip(cert.gammas, norms):
        assert (g.a, g.b) == oracle_witness(d, class_index, n)


@given(certificate_cases, st.integers(min_value=1, max_value=6))
def test_certificate_is_the_oracles_least_split(case, m):
    # m runs above and below the minimum: None exactly when no split exists
    (d, class_index), r = case
    cert = find_certificate(_query(d, class_index, r), m)
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


def test_g_invariant_examples():
    g5 = g_invariant(make_field(5), 300)
    assert g5.g == 3 and g5.stable
    g15 = g_invariant(make_field(15), 300)
    assert g15.g == 3 and g15.stable
    g907 = g_invariant(make_field(907), 300)
    assert g907.g == 5 and g907.stable
    assert (g907.witness.class_index, g907.witness.r) == (2, 81)
    g1 = g_invariant(make_field(1), 300)
    assert g1.g == 2 and g1.stable
    assert (g1.witness.class_index, g1.witness.r) == (1, 3)


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
    with pytest.raises(Overflow):
        enumerate_norm_values(make_field(1), rep_for(make_field(1), 1), 10**12)
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


@pytest.mark.parametrize("width", [300, 3000])
def test_work_bound_covers_every_class(width, monkeypatch):
    # for the class form's values V and the certificate walk's shifted
    # values V'' (v - vmin), a build up to a fixpoint takes no more than
    # _PASS_BOUND passes; the estimate is at least the half-plane points
    # x words x _PASS_BOUND and at least values x words x passes, so with
    # the budget one below either, check_work must refuse
    words = width // 64 + 1
    for d, class_index in ALL_CLASSES:
        f = make_field(d)
        a, b, c, _ = class_form(f, rep_for(f, class_index))
        values = form_values(a, b, c, width)
        points = sum(hi - lo + 1 for _, lo, hi in repsearch._form_rows(a, b, c, width))
        loads = [points * repsearch._PASS_BOUND]
        for vs in (values, [v - values[0] for v in values[1:]]):
            passes = len(reach_layers(vs, width))
            assert passes <= repsearch._PASS_BOUND, (d, class_index)
            loads.append(len(vs) * passes)
        for load in loads:
            monkeypatch.setattr(repsearch, "_WORK_BUDGET", load * words - 1)
            with pytest.raises(Overflow):
                check_work(a, b, c, width)


def test_admitted_widths_are_pinned():
    # the estimate bounds the dense passes, so a cheaper loop leaves every
    # admitted width where it was
    for d, class_index, width in ((907, 2, 779903), (1, 1, 201407)):
        f = make_field(d)
        form = class_form(f, rep_for(f, class_index))[:3]
        check_work(*form, width)
        with pytest.raises(Overflow):
            check_work(*form, width + 1)
    for class_number, r_max in ((2, 68423), (3, 71570)):
        fields = [make_field(d) for d in class_number_fields(class_number)]
        check_tables(fields, r_max)
        with pytest.raises(Overflow):
            check_tables(fields, r_max + 1)


def _first_sparse_layer(masks, values, width):
    """The first layer after which reach_layers tests unset bits one at a
    time (fewer unset in [1, width] than values), or None."""
    return next((j for j in range(1, len(masks)) if width + 1 - masks[j].bit_count() < len(values)), None)


caps = st.none() | st.integers(min_value=0, max_value=12)


@given(st.lists(st.integers(min_value=0, max_value=80), max_size=60), st.integers(min_value=0, max_value=400), caps)
def test_layers_race_oracle_on_random_values(values, width, cap):
    assert reach_layers(values, width, cap) == oracle_layers(values, width, cap)


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
    assert _first_sparse_layer(masks, values, width) is None
    assert reach_layers(values, width, cap) == masks


def _class_value_lists(d, class_index, width):
    """The class form's values up to width and, as find_certificate layers
    them, the shifted values v - vmin of the others."""
    f = make_field(d)
    values = form_values(*class_form(f, rep_for(f, class_index))[:3], width)
    return [values, [v - values[0] for v in values[1:]]]


@given(st.sampled_from(ALL_CLASSES), st.integers(min_value=1, max_value=3000), caps)
def test_layers_race_oracle_on_class_forms(field_class, width, cap):
    for values in _class_value_lists(*field_class, width):
        assert reach_layers(values, width, cap) == oracle_layers(values, width, cap)


def test_class_forms_switch_to_unset_bit_tests_after_layer_two_or_three():
    # at width 3000, layer 2 leaves fewer bits unset than there are values,
    # for both value lists of 87 of the 93 classes; layer 3 does elsewhere
    width = 3000
    switches = []
    for d, class_index in ALL_CLASSES:
        for values in _class_value_lists(d, class_index, width):
            masks = oracle_layers(values, width)
            assert reach_layers(values, width) == masks, (d, class_index)
            switches.append(_first_sparse_layer(masks, values, width))
    assert sorted(set(switches)) == [2, 3]
    assert switches.count(2) == 2 * 87


def test_transfer_certificate_between_paired_classes():
    cert = find_certificate(_query(23, 2, 3), 1)
    assert [(g.a, g.b) for g in cert.gammas] == [(1, -1)]
    moved = transfer_certificate(cert)
    assert moved.query.class_index == 3
    assert [(g.a, g.b) for g in moved.gammas] == [(0, 1)]
    assert recheck_certificate(moved.to_json_dict()) == []
    # conjugating twice restores the original
    assert transfer_certificate(moved) == cert
    with pytest.raises(ValueError):
        transfer_certificate(find_certificate(_query(35, 2, 3), 1))


@given(st.sampled_from([23, 59, 139, 283, 907]), st.integers(min_value=1, max_value=40))
def test_transfer_preserves_validity_both_ways(d, r):
    for src in (2, 3):
        q = _query(d, src, r)
        res = min_terms(q)
        if not res.is_representable:
            continue
        cert = find_certificate(q, res.m)
        moved = transfer_certificate(cert)
        assert moved.query.class_index == 5 - src
        assert moved.m == cert.m
        assert recheck_certificate(moved.to_json_dict()) == []
