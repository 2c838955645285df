"""End-to-end checks: every shipped table and invariant recomputes from scratch.

Each test here recomputes one headline result with the library and compares
against the frozen expected data; the timed ones also enforce a runtime budget
so regressions in the search kernels get caught.
"""

import time

from _oracle import oracle_min_terms
from normsums.classdata import class_form, class_number_fields, class_reps, rep_for
from normsums.quadfield import SUPPORTED_FIELDS, RingElement, make_field, norm
from normsums.repsearch import (
    LatticeQuery,
    find_certificate,
    form_values,
    min_count_table,
    min_terms,
    transfer_certificate,
)
from normsums.universality import (
    FIFTEEN,
    TWO_NINETY,
    DiagonalForm,
    check_criterion,
    m_d,
    three_norm_witness_table,
)
from normsums.verify import recheck_certificate, verify_all


def test_class_number_two_tables_reproduce_within_30s():
    start = time.perf_counter()
    report = verify_all(2, r_max=300)
    elapsed = time.perf_counter() - start
    assert report.total == 18
    assert report.all_match, [f.details for f in report.fields if f.status != "match"]
    assert report.all_stable
    assert elapsed < 30.0


def test_class_number_three_tables_reproduce_within_30s():
    start = time.perf_counter()
    report = verify_all(3, r_max=300)
    elapsed = time.perf_counter() - start
    assert report.total == 16
    assert report.all_match, [f.details for f in report.fields if f.status != "match"]
    assert report.all_stable

    # the uniform bound column: 3 once, 5 once, 4 everywhere else
    gs = {f.d: f.g_computed for f in report.fields}
    assert gs[23] == 3 and gs[907] == 5
    assert all(g == 4 for d, g in gs.items() if d not in (23, 907))

    # the d=907 maximum is attained at r=81 and needs exactly five summands
    q = LatticeQuery(make_field(907), 2, 81)
    assert min_terms(q).m == 5
    assert find_certificate(q, 4) is None
    cert = find_certificate(q, 5)
    assert cert is not None and recheck_certificate(cert.to_json_dict()) == []
    assert elapsed < 30.0


def test_minimum_norm_count_closed_form_within_10s():
    start = time.perf_counter()
    expected = {d: 2 for d in (1, 2, 3, 7, 11)}
    expected.update({d: 3 for d in (5, 6, 15, 19, 23)})
    for d in SUPPORTED_FIELDS:
        assert m_d(make_field(d)) == expected.get(d, 4), d
    table = three_norm_witness_table()
    assert len(table) == 16 and all(w.ok for w in table)
    assert time.perf_counter() - start < 10.0


def test_scaled_multiples_need_at_most_m_d():
    # r a multiple of k scales back to an integral lattice; m_d must cover it
    for d in class_number_fields(2) + class_number_fields(3):
        f = make_field(d)
        bound = m_d(f)
        for rep in class_reps(f)[1:]:
            for r in range(rep.k, 301, rep.k):
                res = min_terms(LatticeQuery(f, rep.class_index, r))
                assert res.is_representable, (d, rep.class_index, r)
                assert res.m <= bound, (d, rep.class_index, r, res.m)


def test_paired_classes_agree_and_certificates_transfer():
    for d in class_number_fields(3):
        f = make_field(d)
        # class 3 reads class 2's table; each class's own form takes the same values
        form2, form3 = (class_form(f, rep_for(f, ci))[:3] for ci in (2, 3))
        for width in (300, 3000):
            assert form_values(*form2, width) == form_values(*form3, width), (d, width)
        table2 = min_count_table(f, 2, 300)
        # move witnesses across the pairing both ways and recheck from scratch
        for r in range(1, 61):
            if table2[r - 1] is None:
                continue
            for src in (2, 3):
                q = LatticeQuery(f, src, r)
                cert = find_certificate(q, table2[r - 1])
                assert cert is not None
                moved = transfer_certificate(cert)
                assert moved.query.class_index == 5 - src
                assert recheck_certificate(moved.to_json_dict()) == []


def test_nonprincipal_classes_never_represent_one():
    for d in class_number_fields(2) + class_number_fields(3):
        f = make_field(d)
        for rep in class_reps(f)[1:]:
            res = min_terms(LatticeQuery(f, rep.class_index, 1))
            assert not res.is_representable, (d, rep.class_index)


def test_reachability_table_matches_exhaustive_search_within_60s():
    start = time.perf_counter()
    checked = 0
    for d in SUPPORTED_FIELDS:
        f = make_field(d)
        for rep in class_reps(f):
            for r in range(1, 61):
                res = min_terms(LatticeQuery(f, rep.class_index, r))
                got = res.m if res.is_representable else None
                oracle = oracle_min_terms(d, rep.class_index, r, m_max=6)
                if got is None or got > 6:
                    assert oracle is None, (d, rep.class_index, r)
                else:
                    assert oracle == got, (d, rep.class_index, r)
                checked += 1
    assert checked == (9 + 2 * 18 + 3 * 16) * 60
    assert time.perf_counter() - start < 60.0


def test_universality_criteria_for_diagonal_forms():
    assert FIFTEEN.numbers == (1, 2, 3, 5, 6, 7, 10, 14, 15)
    assert TWO_NINETY.numbers[-1] == 290 and len(TWO_NINETY.numbers) == 29
    assert check_criterion(DiagonalForm((1, 1, 1, 1)), FIFTEEN)
    assert check_criterion(DiagonalForm((1, 1, 1, 5)), FIFTEEN)
    assert check_criterion(DiagonalForm((1, 1, 1, 6, 6)), FIFTEEN)
    assert not check_criterion(DiagonalForm((1, 1, 1)), FIFTEEN)


def test_spot_identities_revalidate():
    # 30 = 15 + 15 over the d=51 nonprincipal class
    cert = find_certificate(LatticeQuery(make_field(51), 2, 6), 2)
    assert [(g.a, g.b) for g in cert.gammas] == [(2, -1), (2, -1)]
    assert cert.to_json_dict()["check"] == 30
    assert recheck_certificate(cert.to_json_dict()) == []

    # 735 = 308 + 427 over the d=187 nonprincipal class
    cert = find_certificate(LatticeQuery(make_field(187), 2, 105), 2)
    assert [(g.a, g.b) for g in cert.gammas] == [(12, -2), (20, -1)]
    assert cert.to_json_dict()["check"] == 735
    assert recheck_certificate(cert.to_json_dict()) == []

    # 1053 = 169 + 169 + 169 + 247 + 299 over d=907, class 2
    cert = find_certificate(LatticeQuery(make_field(907), 2, 81), 5)
    gammas = [(g.a, g.b) for g in cert.gammas]
    assert gammas == [(13, 0), (13, 0), (13, 0), (5, -1), (8, 1)]
    f = make_field(907)
    assert [norm(f, RingElement(a, b)) for a, b in gammas] == [169, 169, 169, 247, 299]
    assert recheck_certificate(cert.to_json_dict()) == []
