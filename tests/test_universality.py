"""Coverage tools: criterion sets, mixed square/triangular sums, m_d."""

import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracle import oracle_layers, oracle_represents, oracle_values
from normsums.quadfield import SUPPORTED_FIELDS, Overflow, make_field
from normsums.universality import (
    FIFTEEN,
    TWO_NINETY,
    DiagonalForm,
    MixedSum,
    TermKind,
    check_criterion,
    is_sum_of_three_squares,
    m_d,
    norm_sum_first_gap,
    represents_bounded,
    sun_polynomial_universal,
    three_norm_sum,
    three_norm_witness_table,
    triangular,
    universal_up_to,
)


def test_criterion_sets_frozen():
    assert FIFTEEN.numbers == (1, 2, 3, 5, 6, 7, 10, 14, 15)
    assert TWO_NINETY.numbers == (
        1, 2, 3, 5, 6, 7, 10, 13, 14, 15, 17, 19, 21, 22, 23, 26, 29, 30, 31,
        34, 35, 37, 42, 58, 93, 110, 145, 203, 290,
    )


def test_triangular():
    assert [triangular(x) for x in range(6)] == [0, 1, 3, 6, 10, 15]
    for x in range(-50, 50):
        assert 2 * triangular(x) == x * x + x
        assert triangular(x) == triangular(-x - 1)


def test_represents_bounded_examples():
    three_squares = DiagonalForm((1, 1, 1))
    ok, wit = represents_bounded(three_squares, 6)
    assert ok and sum(c * x * x for c, x in zip((1, 1, 1), wit)) == 6
    ok, wit = represents_bounded(three_squares, 7)
    assert not ok and wit is None

    mixed = MixedSum(((TermKind.TRIANGULAR, 2), (TermKind.SQUARE, 1), (TermKind.SQUARE, 1)))
    ok, wit = represents_bounded(mixed, 5)
    assert ok
    t, x, y = wit
    assert 2 * triangular(t) + x * x + y * y == 5


def _oracle_terms(form):
    if isinstance(form, DiagonalForm):
        return [("Square", c) for c in form.coefficients]
    return [(kind.value, w) for kind, w in form.terms]


_forms = st.one_of(
    st.lists(st.integers(1, 7), min_size=1, max_size=5).map(lambda cs: DiagonalForm(tuple(cs))),
    st.lists(st.tuples(st.sampled_from(TermKind), st.integers(1, 7)), min_size=1, max_size=5).map(
        lambda ts: MixedSum(tuple(ts))
    ),
)


@settings(max_examples=300)
@given(_forms, st.integers(min_value=-1, max_value=400))
def test_represents_bounded_matches_oracle(form, n):
    # coverage masks against the oracle's depth-first search: the same
    # verdict and the same, lexicographically least, witness
    assert represents_bounded(form, n) == oracle_represents(_oracle_terms(form), n)


def test_represents_bounded_answers_fast_at_any_size():
    t0 = time.perf_counter()
    # odd n, even coefficients: a miss the depth-first search takes minutes on
    assert represents_bounded(DiagonalForm((2,) * 5), 8001) == (False, None)
    # 1200 terms, past the recursion limit of a search per term; the least
    # witness leaves everything to the last two terms, 5 = 1^2 + 2^2
    assert represents_bounded(DiagonalForm((1,) * 1200), 5) == (True, (0,) * 1198 + (1, 2))
    assert time.perf_counter() - t0 < 1


def test_coverage_over_budget_raises_before_work():
    form = MixedSum(((TermKind.SQUARE, 1), (TermKind.TRIANGULAR, 1)))
    for check in (
        lambda: represents_bounded(form, 10**12),
        lambda: universal_up_to(form, 10**12),
        lambda: sun_polynomial_universal(10**12),
    ):
        t0 = time.perf_counter()
        with pytest.raises(Overflow, match="estimated"):
            check()
        assert time.perf_counter() - t0 < 1


@given(st.integers(min_value=0, max_value=300))
def test_witness_evaluates_to_target(n):
    form = MixedSum(((TermKind.SQUARE, 1), (TermKind.TRIANGULAR, 4), (TermKind.SQUARE, 2)))
    ok, wit = represents_bounded(form, n)
    if ok:
        x, t, y = wit
        assert x * x + 4 * triangular(t) + 2 * y * y == n


def test_check_criterion_diagonal_forms():
    assert check_criterion(DiagonalForm((1, 1, 1, 1)), FIFTEEN)
    assert check_criterion(DiagonalForm((1, 1, 1, 5)), FIFTEEN)
    assert check_criterion(DiagonalForm((1, 1, 1, 6, 6)), FIFTEEN)
    assert not check_criterion(DiagonalForm((1, 1, 1)), FIFTEEN)
    # the members that break the three-square form are exactly those = 7 mod 8
    misses = {n for n in FIFTEEN.numbers if not represents_bounded(DiagonalForm((1, 1, 1)), n)[0]}
    assert misses == {7, 15}


def test_three_squares_against_brute_force():
    limit = 10**4
    reachable = bytearray(limit + 1)
    squares = [x * x for x in range(math.isqrt(limit) + 1)]
    two = set()
    for s1 in squares:
        for s2 in squares:
            if s1 + s2 > limit:
                break
            two.add(s1 + s2)
    for t in two:
        for s in squares:
            if t + s > limit:
                break
            reachable[t + s] = 1
    for n in range(limit + 1):
        assert is_sum_of_three_squares(n) == bool(reachable[n]), n


def test_universal_up_to():
    mixed = MixedSum(((TermKind.TRIANGULAR, 2), (TermKind.SQUARE, 1), (TermKind.SQUARE, 1)))
    assert universal_up_to(mixed, 10**4) == (True, None)
    assert universal_up_to(DiagonalForm((1, 1)), 100) == (False, 3)
    assert universal_up_to(DiagonalForm((2,)), 100) == (False, 1)


@given(st.integers(min_value=1, max_value=500))
def test_universal_up_to_agrees_with_search(n):
    form = MixedSum(((TermKind.SQUARE, 1), (TermKind.SQUARE, 1), (TermKind.TRIANGULAR, 4)))
    terms = _oracle_terms(form)
    ok, gap = universal_up_to(form, n)
    if ok:
        assert oracle_represents(terms, n)[0]
    else:
        assert gap <= n and not oracle_represents(terms, gap)[0]


def test_sun_polynomial_universal():
    assert sun_polynomial_universal(10**4)


def test_three_norm_sum_polynomial():
    # d=15 row: N(1+omega) + N(1) + N(0) style identities evaluate directly
    assert three_norm_sum(15, (1, 1, 1, 0, 0, 0)) == 7
    assert three_norm_sum(27, (0, 1, 0, 0, 0, 0)) == 7
    with pytest.raises(ValueError):
        three_norm_sum(5, (1, 0, 0, 0, 0, 0))
    # exactly six coordinates: extra entries are not dropped, short
    # tuples do not index past the end
    for coords in ((1,) * 8, (1,) * 3, ()):
        with pytest.raises(ValueError, match="6 coordinates"):
            three_norm_sum(15, coords)
    # d = -1 is 3 mod 4 but gives no positive definite form
    for d in (-1, -5):
        with pytest.raises(ValueError, match="positive"):
            three_norm_sum(d, (1,) * 6)
    # True is 1 mod 4 and 27.0 is 3 mod 4, but neither is an int d
    for d in (True, 2.0, "3", 27.0):
        with pytest.raises(TypeError, match="d must be an integer"):
            three_norm_sum(d, (1,) * 6)


def test_three_norm_witness_table():
    table = three_norm_witness_table()
    assert len(table) == 16
    assert {w.d for w in table} == {15, 19, 23, 27}
    assert sorted({w.expected for w in table}) == [7, 15, 23, 31]
    assert all(w.ok and w.actual == w.expected for w in table)
    # each (d, target) pair appears exactly once
    assert len({(w.d, w.expected) for w in table}) == 16


EXPECTED_M_D = {d: 2 for d in (1, 2, 3, 7, 11)}
EXPECTED_M_D.update({d: 3 for d in (5, 6, 15, 19, 23)})
for _d in SUPPORTED_FIELDS:
    EXPECTED_M_D.setdefault(_d, 4)


def _least_full_layer(layers, criterion):
    return next(j for j, mask in enumerate(layers) if all(mask >> n & 1 for n in criterion.numbers))


def test_m_d_all_fields():
    # m_d reads the kernel's layers at width 290; three routes confirm it
    # on every field: the transcribed values, bounded coverage scans
    # (m_d norms cover [1, 10^4], m_d - 1 miss something in [1, 100]),
    # and the least oracle layer holding every TWO_NINETY number
    width = TWO_NINETY.numbers[-1]
    for d in SUPPORTED_FIELDS:
        f = make_field(d)
        count = m_d(f)
        assert count == EXPECTED_M_D[d], d
        assert norm_sum_first_gap(f, count, 10**4) is None, d
        assert norm_sum_first_gap(f, count - 1, 100) is not None, d
        assert _least_full_layer(oracle_layers(oracle_values(d, 1, width), width), TWO_NINETY) == count, d


def test_norm_sum_first_gap_examples():
    f10 = make_field(10)
    # three copies of the d=10 norm form miss something small; four do not
    gap = norm_sum_first_gap(f10, 3, 10**3)
    assert gap is not None and gap <= 100
    assert norm_sum_first_gap(f10, 4, 10**4) is None
    f1 = make_field(1)
    # one Gaussian norm is a sum of two squares: 3 is the first miss;
    # two norms make four squares, so nothing is missed
    assert norm_sum_first_gap(f1, 1, 10**3) == 3
    assert norm_sum_first_gap(f1, 2, 10**3) is None


def test_norm_sum_first_gap_rejects_an_empty_window_and_negative_copies():
    # a gap must lie in [1, limit], and no count of norms is negative
    f = make_field(5)
    for limit in (0, -1):
        with pytest.raises(ValueError, match="limit must be positive"):
            norm_sum_first_gap(f, 2, limit)
    with pytest.raises(ValueError, match="copies must be nonnegative, got -1"):
        norm_sum_first_gap(f, -1, 100)
    with pytest.raises(ValueError, match="limit must be positive, got 0"):
        sun_polynomial_universal(0)
    # a count or a limit is an int, and a bool is not one: 2.5 copies are
    # not two, and True is not a limit of 1
    for value in (True, 2.0, "3", 2.5):
        with pytest.raises(TypeError, match="copies must be an integer"):
            norm_sum_first_gap(f, value, 100)
        with pytest.raises(TypeError, match="limit must be an integer"):
            norm_sum_first_gap(f, 2, value)
        with pytest.raises(TypeError, match="limit must be an integer"):
            sun_polynomial_universal(value)
    # zero copies sum to 0 only, so 1 is the first gap
    assert norm_sum_first_gap(f, 0, 100) == 1


def test_gap_agrees_with_direct_search():
    # dual route: bitset composition vs per-target diagonal-form search
    f = make_field(10)
    gap = norm_sum_first_gap(f, 3, 10**3)
    terms = [("Square", c) for c in (1, 10, 1, 10, 1, 10)]
    assert not oracle_represents(terms, gap)[0]
    for n in range(gap):
        assert oracle_represents(terms, n)[0], n


def test_fifteen_theorem_gives_m_d_on_classically_integral_norm_forms():
    # a^2 + d*b^2 (d not 3 mod 4) is classically integral, so the 15
    # theorem applies too; the half-integer forms are left out, as no
    # theorem backs FIFTEEN there
    width = FIFTEEN.numbers[-1]
    classical = [d for d in SUPPORTED_FIELDS if d % 4 != 3]
    assert classical
    for d in classical:
        layers = oracle_layers(oracle_values(d, 1, width), width)
        assert _least_full_layer(layers, FIFTEEN) == m_d(make_field(d)), d


def test_form_validation():
    with pytest.raises(ValueError, match="coefficients must not be empty"):
        DiagonalForm(())
    with pytest.raises(ValueError, match="terms must not be empty"):
        MixedSum(())
    with pytest.raises(ValueError, match="coefficient must be positive, got 0"):
        DiagonalForm((0, 1))
    with pytest.raises(ValueError, match="weight must be positive, got -1"):
        MixedSum(((TermKind.SQUARE, -1),))
    form = DiagonalForm((1, 2))
    with pytest.raises(ValueError, match="limit must be positive, got 0"):
        universal_up_to(form, 0)
    # a negative n is a value the form does not take, not an error
    assert represents_bounded(form, -1) == (False, None)
    for value in (True, 2.0, "3"):
        with pytest.raises(TypeError, match="coefficient must be an integer"):
            DiagonalForm((1, value))
        with pytest.raises(TypeError, match="weight must be an integer"):
            MixedSum(((TermKind.SQUARE, 1), (TermKind.TRIANGULAR, value)))
        with pytest.raises(TypeError, match="limit must be an integer"):
            universal_up_to(form, value)
        with pytest.raises(TypeError, match="n must be an integer"):
            represents_bounded(form, value)
