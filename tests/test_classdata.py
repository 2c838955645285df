"""Ideal class representatives and congruence admissibility.

The rep tables are retyped here as an independent second entry; a typo in
either copy shows up as a mismatch.
"""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from normsums import classdata
from normsums.classdata import (
    class_form,
    class_number_fields,
    class_reps,
    condition_display,
    congruence_for,
    rep_for,
    reps_as_rows,
)
from normsums.quadfield import RingElement, make_field, norm


def predicate_holds(c, a, b):
    """Whether gamma = a + b*omega meets the class constraint k | a + beta*b."""
    return (a + c.beta * b) % c.k == 0


def odd_sqrt_of_minus_d(f):
    """n = 2*s + 1 off the class-2 representative of a class-number-3
    field, an odd square root of -d mod k."""
    return 2 * rep_for(f, 2).s + 1


# second transcription of the nonprincipal rep data: d -> (k, s) with t = 1
CLASS2_ROWS = {
    5: (2, 1), 6: (2, 0), 10: (2, 0), 13: (2, 1), 15: (2, 1), 22: (2, 0),
    35: (5, 2), 37: (2, 1), 51: (5, 1), 58: (2, 0), 91: (7, 3), 115: (5, -3),
    123: (3, 1), 187: (7, -2), 235: (5, 2), 267: (3, 1), 403: (11, 6), 427: (7, 3),
}

# d -> (k, s_class2, s_class3) with t = 1 throughout
CLASS3_ROWS = {
    23: (2, 0, -1), 31: (2, 0, -1), 59: (3, 0, -1), 83: (3, 0, -1),
    107: (3, 0, -1), 139: (5, 0, -1), 211: (5, 1, -2), 283: (7, 2, -3),
    307: (7, 0, -1), 331: (5, 1, -2), 379: (5, 0, -1), 499: (5, 0, -1),
    547: (11, 2, -3), 643: (7, 0, -1), 883: (13, 0, -1), 907: (13, 4, -5),
}


def test_class3_pairs_follow_the_least_odd_root_convention():
    # the one convention of the data that class_form's guard does not
    # check: s3 = -1 - s2 with s2 >= 0, and n = 2*s2 + 1 is the least
    # positive odd n with k | n^2 + d
    fields = class_number_fields(3)
    for d in fields:
        f = make_field(d)
        _, r2, r3 = class_reps(f)
        assert r3.s == -1 - r2.s and r2.s >= 0, d
        n = odd_sqrt_of_minus_d(f)
        assert [m for m in range(1, n + 1, 2) if (m * m + d) % r2.k == 0] == [n], d
    assert len(fields) == 16


def test_class_number_fields():
    assert class_number_fields(2) == tuple(sorted(CLASS2_ROWS))
    assert class_number_fields(3) == tuple(sorted(CLASS3_ROWS))


def test_class_reps_match_second_transcription():
    for d, (k, s) in CLASS2_ROWS.items():
        reps = class_reps(make_field(d))
        assert [r.class_index for r in reps] == [1, 2]
        assert (reps[0].k, reps[0].s, reps[0].t) == (1, 0, 0)
        assert (reps[1].k, reps[1].s, reps[1].t) == (k, s, 1)
    for d, (k, s2, s3) in CLASS3_ROWS.items():
        reps = class_reps(make_field(d))
        assert [r.class_index for r in reps] == [1, 2, 3]
        assert (reps[1].k, reps[1].s, reps[1].t) == (k, s2, 1)
        assert (reps[2].k, reps[2].s, reps[2].t) == (k, s3, 1)


def test_class_reps_principal_only_for_class_number_one():
    reps = class_reps(make_field(43))
    assert len(reps) == 1 and reps[0].class_index == 1


def test_rep_norm_divisibility():
    # k must divide N(s + t*omega) for the congruence to cut out an ideal
    for d in sorted(CLASS2_ROWS) + sorted(CLASS3_ROWS):
        f = make_field(d)
        for rep in class_reps(f)[1:]:
            assert norm(f, RingElement(rep.s, rep.t)) % rep.k == 0


def test_rep_for():
    f = make_field(35)
    rep = rep_for(f, 2)
    assert (rep.k, rep.s, rep.t) == (5, 2, 1)
    with pytest.raises(ValueError):
        rep_for(f, 3)


def test_predicate_examples():
    f5 = make_field(5)
    c = congruence_for(f5, rep_for(f5, 2))
    assert predicate_holds(c, 1, 1)
    assert not predicate_holds(c, 1, 0)
    f35 = make_field(35)
    c35 = congruence_for(f35, rep_for(f35, 2))
    assert predicate_holds(c35, 2, 1)
    assert not predicate_holds(c35, 1, 0)


def test_principal_predicate_always_true():
    f = make_field(187)
    c = congruence_for(f, rep_for(f, 1))
    assert all(predicate_holds(c, a, b) for a in range(-3, 4) for b in range(-3, 4))


def _admissible_grid(c, k):
    return {(a, b) for a in range(k) for b in range(k) if predicate_holds(c, a, b)}


def test_known_single_constraint_equivalents():
    # spot equivalences, each checked over a full residue period
    cases = {
        5: lambda a, b: (a + b) % 2 == 0,
        6: lambda a, b: a % 2 == 0,
        15: lambda a, b: a % 2 == 0,
        91: lambda a, b: (a + 4 * b) % 7 == 0,
        115: lambda a, b: (a - 2 * b) % 5 == 0,
        187: lambda a, b: (a - b) % 7 == 0,
        403: lambda a, b: (a + 7 * b) % 11 == 0,
    }
    for d, pred in cases.items():
        f = make_field(d)
        rep = rep_for(f, 2)
        c = congruence_for(f, rep)
        for a in range(2 * rep.k):
            for b in range(2 * rep.k):
                assert predicate_holds(c, a, b) == pred(a, b), (d, a, b)


def _ideal_residues(d, k, s, t):
    """(a, b) mod k of every a + b*omega in the conjugate ideal
    (k, s + q*t - t*omega), the gammas with gamma*(s + t*omega) in k*O:
    its Z-span is k, k*omega, g and g*omega for g = s + q*t - t*omega,
    with omega^2 = q*omega - c worked out here from d."""
    q, c = (1, (1 + d) // 4) if d % 4 == 3 else (0, d)
    g1, g2 = (s + q * t, -t), (c * t, s)
    return {((x * g1[0] + y * g2[0]) % k, (x * g1[1] + y * g2[1]) % k) for x in range(k) for y in range(k)}


def test_predicate_is_ideal_membership_everywhere():
    classes = 0
    for d in sorted(CLASS2_ROWS) + sorted(CLASS3_ROWS):
        f = make_field(d)
        for rep in class_reps(f)[1:]:
            classes += 1
            c = congruence_for(f, rep)
            members = _ideal_residues(d, rep.k, rep.s, rep.t)
            for a in range(rep.k):
                for b in range(rep.k):
                    assert predicate_holds(c, a, b) == ((a, b) in members), (d, rep.class_index, a, b)
    assert classes == 50


def test_mistyped_representative_is_caught(monkeypatch):
    # (5, 1) for d=35: N(1 + omega) = 11, which 5 does not divide
    def clear():
        class_reps.cache_clear()
        class_form.cache_clear()

    clear()
    monkeypatch.setitem(classdata._CLASS2_REPS, 35, (5, 1))
    try:
        f = make_field(35)
        with pytest.raises(ValueError, match="d=35 class 2: k=5 does not divide"):
            class_form(f, rep_for(f, 2))
    finally:
        monkeypatch.undo()
        clear()
    f = make_field(35)
    assert class_form(f, rep_for(f, 2)) == (5, -5, 3, 3)


def test_condition_display_strings():
    def disp(d, idx):
        f = make_field(d)
        return condition_display(congruence_for(f, rep_for(f, idx)))

    assert disp(5, 1) == "always"
    assert disp(5, 2) == "2|(a+b)"
    assert disp(15, 2) == "2|a"
    assert disp(35, 2) == "5|(a+3b)"
    assert disp(23, 2) == "2|(a+b)"
    assert disp(23, 3) == "2|a"
    assert disp(907, 2) == "13|(a+5b)"
    assert disp(907, 3) == "13|(a+9b)"


@given(
    st.sampled_from(sorted(CLASS2_ROWS) + sorted(CLASS3_ROWS)),
    st.integers(min_value=-200, max_value=200),
    st.integers(min_value=-200, max_value=200),
)
def test_predicate_is_k_periodic_and_symmetric(d, a, b):
    f = make_field(d)
    for rep in class_reps(f)[1:]:
        c = congruence_for(f, rep)
        v = predicate_holds(c, a, b)
        assert predicate_holds(c, a + rep.k, b) == v
        assert predicate_holds(c, a, b + rep.k) == v
        assert predicate_holds(c, -a, -b) == v
        # scaling by k lands every element in the admissible set
        assert predicate_holds(c, rep.k * a, rep.k * b)


def test_paired_class_predicates_swap_under_conjugation():
    # the a -> a+b, b -> -b involution exchanges the two nonprincipal classes
    for d in sorted(CLASS3_ROWS):
        f = make_field(d)
        c2 = congruence_for(f, rep_for(f, 2))
        c3 = congruence_for(f, rep_for(f, 3))
        k = rep_for(f, 2).k
        for a in range(-k, 2 * k):
            for b in range(-k, 2 * k):
                assert predicate_holds(c2, a, b) == predicate_holds(c3, a + b, -b), (d, a, b)


def test_odd_sqrt_of_minus_d():
    assert odd_sqrt_of_minus_d(make_field(23)) == 1
    assert odd_sqrt_of_minus_d(make_field(211)) == 3
    assert odd_sqrt_of_minus_d(make_field(283)) == 5
    assert odd_sqrt_of_minus_d(make_field(547)) == 5
    assert odd_sqrt_of_minus_d(make_field(907)) == 9


def test_odd_sqrt_is_minimal_odd_square_root():
    for d in sorted(CLASS3_ROWS):
        f = make_field(d)
        k = rep_for(f, 2).k
        n = odd_sqrt_of_minus_d(f)
        assert n % 2 == 1 and 1 <= n < 2 * k
        assert (n * n + d) % k == 0
        # nothing odd and smaller works
        for m in range(1, n, 2):
            assert (m * m + d) % k != 0, (d, m)


def test_odd_sqrt_determines_both_conditions():
    # with n the odd square root of -d mod k, the two nonprincipal conditions
    # collapse to k|(a + (n+1)/2 b) and k|(a - (n-1)/2 b)
    for d in sorted(CLASS3_ROWS):
        f = make_field(d)
        k = rep_for(f, 2).k
        n = odd_sqrt_of_minus_d(f)
        c2 = congruence_for(f, rep_for(f, 2))
        c3 = congruence_for(f, rep_for(f, 3))
        for a in range(k):
            for b in range(k):
                assert predicate_holds(c2, a, b) == ((a + (n + 1) // 2 * b) % k == 0)
                assert predicate_holds(c3, a, b) == ((a - (n - 1) // 2 * b) % k == 0)


def test_reps_as_rows_shape():
    rows = reps_as_rows()
    assert len(rows) == 9 + 2 * 18 + 3 * 16
    assert list(rows[0].keys()) == ["d", "class_index", "k", "s", "t"]
    by_key = {(r["d"], r["class_index"]): r for r in rows}
    assert by_key[(35, 2)] == {"d": 35, "class_index": 2, "k": 5, "s": 2, "t": 1}
    assert by_key[(907, 3)] == {"d": 907, "class_index": 3, "k": 13, "s": -5, "t": 1}


def _gauss_reduce(a, b, c):
    """The reduced form equivalent to the positive definite form
    a*x^2 + b*x*y + c*y^2: |b| <= a <= c, with b >= 0 when |b| = a or
    a = c.  Each step moves b into (-a, a] by x -> x + n*y, then swaps a
    and c by (x, y) -> (-y, x) while c < a, or c = a with b < 0."""
    while True:
        n = (a - b) // (2 * a)
        b, c = b + 2 * a * n, (a * n + b) * n + c
        if a < c or (a == c and b >= 0):
            return a, b, c
        a, b, c = c, -b, a


def _reduced_forms(disc):
    """The primitive reduced forms of the negative discriminant disc: a up
    to sqrt(|disc|/3), b in (-a, a], c = (b^2 - disc)/(4a) at least a, and
    b >= 0 when a = c (Cohen, A Course in Computational Algebraic Number
    Theory, 5.3)."""
    forms = set()
    for a in range(1, math.isqrt(-disc // 3) + 1):
        for b in range(-a + 1, a + 1):
            c, rest = divmod(b * b - disc, 4 * a)
            if not rest and c >= a and not (a == c and b < 0) and math.gcd(a, b, c) == 1:
                forms.add((a, b, c))
    return forms


def test_class_forms_reduce_onto_the_reduced_forms():
    # each class of a class-number-2 or -3 field is a distinct class of
    # forms, so the class forms reduce one to one onto the field's
    # primitive reduced forms; classes 2 and 3 are inverse, so class 3
    # reduces to the inverse (a, -b, c) of class 2's reduced form
    inverses = 0
    for class_number in (2, 3):
        for d in class_number_fields(class_number):
            f = make_field(d)
            disc = -d if d % 4 == 3 else -4 * d
            forms = [class_form(f, rep)[:3] for rep in class_reps(f)]
            assert all(b * b - 4 * a * c == disc for a, b, c in forms), d
            reduced = [_gauss_reduce(*form) for form in forms]
            assert len(set(reduced)) == len(reduced) == class_number, d
            assert set(reduced) == _reduced_forms(disc), d
            if class_number == 3:
                a, b, c = reduced[1]
                assert reduced[2] == _gauss_reduce(a, -b, c), d
                inverses += 1
    assert inverses == 16
