"""Coverage tools: criterion sets, mixed square/triangular sums, m_d, and
the small-discriminant lemmas (Legendre's three-square rule, the 16
three-norm identities) checked directly."""

import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracle import oracle_layers, oracle_represents, oracle_values
from normsums import universality
from normsums.quadfield import SUPPORTED_FIELDS, Overflow, make_field
from normsums.universality import (
    FIFTEEN,
    TWO_NINETY,
    DiagonalForm,
    MixedSum,
    TermKind,
    _check_coverage,
    _form_terms,
    _progression,
    _progression_size,
    check_criterion,
    m_d,
    norm_sum_first_gap,
    sun_polynomial_universal,
    universal_up_to,
)


def test_criterion_sets_frozen():
    assert FIFTEEN == (1, 2, 3, 5, 6, 7, 10, 14, 15)
    assert TWO_NINETY == (
        1, 2, 3, 5, 6, 7, 10, 13, 14, 15, 17, 19, 21, 22, 23, 26, 29, 30, 31,
        34, 35, 37, 42, 58, 93, 110, 145, 203, 290,
    )


def test_progressions_enumerate_each_term_within_the_budget_count():
    # each coverage term as (first, step, q): squares and triangular
    # numbers of weight w, and both branches p*x^2 +- x of Sun's terms;
    # the enumerator yields q's values up to the bound, and the budget's
    # count covers them
    shapes = [(w, 2 * w, lambda x, w=w: w * x * x) for w in range(1, 8)]
    shapes += [(w, w, lambda x, w=w: w * x * (x + 1) // 2) for w in range(1, 8)]
    shapes += [(p + s, 2 * p, lambda x, p=p, s=s: p * x * x + s * x) for p in range(2, 8) for s in (1, -1)]
    top = 2000
    for first, step, q in shapes:
        values = [q(x) for x in range(70)]
        assert values == sorted(values) and values[-1] > top, (first, step)
        for bound in range(top + 1):
            got = list(_progression(first, step, bound))
            assert got == [v for v in values if v <= bound], (first, step, bound)
            assert len(got) <= _progression_size(step, bound), (first, step, bound)


def test_single_number_coverage_examples():
    three_squares = DiagonalForm((1, 1, 1))
    assert check_criterion(three_squares, (6,))
    assert not check_criterion(three_squares, (7,))
    mixed = MixedSum(((TermKind.TRIANGULAR, 2), (TermKind.SQUARE, 1), (TermKind.SQUARE, 1)))
    assert check_criterion(mixed, (5,))


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
def test_coverage_matches_oracle(form, n):
    # the coverage mask against the oracle's depth-first search
    assert check_criterion(form, (n,)) == oracle_represents(_oracle_terms(form), n)


def test_coverage_answers_fast_at_any_size():
    t0 = time.perf_counter()
    # odd n, even coefficients: a miss the depth-first search takes minutes on
    assert not check_criterion(DiagonalForm((2,) * 5), (8001,))
    # 1200 terms, past the recursion limit of a search per term
    assert check_criterion(DiagonalForm((1,) * 1200), (5,))
    assert time.perf_counter() - t0 < 1


def test_coverage_over_budget_raises_before_work():
    form = MixedSum(((TermKind.SQUARE, 1), (TermKind.TRIANGULAR, 1)))
    for check in (
        lambda: check_criterion(form, (10**12,)),
        lambda: universal_up_to(form, 10**12),
        lambda: sun_polynomial_universal(10**12),
        # its first gap, 1, lies in [1, 290], yet the budget is judged at
        # the limit before that window is scanned
        lambda: universal_up_to(DiagonalForm((3, 4, 4, 5)), 10**12),
    ):
        t0 = time.perf_counter()
        with pytest.raises(Overflow, match="estimated"):
            check()
        assert time.perf_counter() - t0 < 1


def test_coverage_admits_the_documented_limits():
    # the README's widest admitted limits: four unit squares and Sun's
    # polynomial fit the budget at them and are refused one past them
    four_squares = DiagonalForm((1, 1, 1, 1))
    sun = [((p + 1, 2 * p), (p - 1, 2 * p)) for p in (2, 3, 3)]
    _check_coverage(_form_terms(four_squares), 29465919)
    _check_coverage(sun, 30905521)
    with pytest.raises(Overflow, match="bound 29465920"):
        universal_up_to(four_squares, 29465920)
    with pytest.raises(Overflow, match="bound 30905522"):
        sun_polynomial_universal(30905522)


@settings(max_examples=200)
@given(_forms, st.integers(min_value=1, max_value=600))
def test_universal_up_to_matches_oracle_first_gap(form, limit):
    # limits on both sides of the [1, 290] window scanned first
    terms = _oracle_terms(form)
    gap = next((n for n in range(1, limit + 1) if not oracle_represents(terms, n)), None)
    assert universal_up_to(form, limit) == (gap is None, gap)


def test_a_gap_up_to_290_needs_no_scan_to_the_limit(monkeypatch):
    # the bound of every _coverage_mask call, in order
    bounds = []
    build = universality._coverage_mask

    def spy(terms, bound):
        bounds.append(bound)
        return build(terms, bound)

    monkeypatch.setattr(universality, "_coverage_mask", spy)
    # misses 1: the window answers alone
    assert universal_up_to(DiagonalForm((3, 4, 4, 5)), 10**5) == (False, 1)
    assert bounds == [290]
    bounds.clear()
    # covers [1, 10^5]: the window, then the full scan
    assert universal_up_to(DiagonalForm((1, 1, 3, 4)), 10**5) == (True, None)
    assert bounds == [290, 10**5]
    bounds.clear()
    # a limit inside the window is scanned once
    assert universal_up_to(DiagonalForm((1, 1, 3, 4)), 200) == (True, None)
    assert universal_up_to(DiagonalForm((3, 4, 4, 5)), 200) == (False, 1)
    assert sun_polynomial_universal(200) == (True, None)
    assert bounds == [200, 200, 200]
    bounds.clear()
    assert sun_polynomial_universal(10**4) == (True, None)
    assert bounds == [290, 10**4]


def test_check_criterion_diagonal_forms():
    assert check_criterion(DiagonalForm((1, 1, 1, 1)), FIFTEEN)
    assert check_criterion(DiagonalForm((1, 1, 1, 5)), FIFTEEN)
    assert check_criterion(DiagonalForm((1, 1, 1, 6, 6)), FIFTEEN)
    assert not check_criterion(DiagonalForm((1, 1, 1)), FIFTEEN)
    # the members that break the three-square form are exactly those = 7 mod 8
    misses = {n for n in FIFTEEN if not check_criterion(DiagonalForm((1, 1, 1)), (n,))}
    assert misses == {7, 15}


def _is_sum_of_three_squares(n):
    # Legendre: n >= 0 is a sum of three squares iff it is not 4^a * (8b + 7)
    while n % 4 == 0 and n > 0:
        n //= 4
    return n % 8 != 7


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
        assert _is_sum_of_three_squares(n) == bool(reachable[n]), n


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
        assert oracle_represents(terms, n)
    else:
        assert gap <= n and not oracle_represents(terms, gap)


def test_sun_polynomial_universal():
    assert sun_polynomial_universal(10**4) == (True, None)
    # every window against a brute force over a, b, c: each term is
    # nonnegative and over 400 once |x| > 14, so |x| <= 20 gives every sum
    # up to 400
    r = range(-20, 21)
    values = {2 * a * a + a + 3 * b * b + b + 3 * c * c + c for a in r for b in r for c in r}
    for limit in range(1, 401):
        gap = next((n for n in range(1, limit + 1) if n not in values), None)
        assert sun_polynomial_universal(limit) == (gap is None, gap), limit


# Identities showing 7, 15, 23 and 31 as sums of three norms
# a^2 + a*b + ((1+d)/4)*b^2 for d = 15, 19, 23, 27: the inputs
# (a1, b1, a2, b2, a3, b3) and the value each must produce.
THREE_NORM_IDENTITIES = (
    (15, (1, 1, 1, 0, 0, 0), 7),
    (15, (2, 1, 1, 0, 2, 0), 15),
    (15, (1, 1, 1, 0, 4, 0), 23),
    (15, (1, 1, 5, 0, 0, 0), 31),
    (19, (1, 1, 0, 0, 0, 0), 7),
    (19, (1, 1, 2, 0, 2, 0), 15),
    (19, (1, 1, 4, 0, 0, 0), 23),
    (19, (5, 0, 1, 0, 0, 1), 31),
    (23, (1, 0, 0, 1, 0, 0), 7),
    (23, (1, 0, 0, 1, 1, 1), 15),
    (23, (1, 0, 0, 1, 4, 0), 23),
    (23, (5, 0, 0, 1, 0, 0), 31),
    (27, (0, 1, 0, 0, 0, 0), 7),
    (27, (0, 1, 2, 0, 2, 0), 15),
    (27, (0, 1, 4, 0, 0, 0), 23),
    (27, (2, 1, 3, 0, 3, 0), 31),
)


def test_three_norm_identities():
    # each (d, target) pair appears exactly once, and every identity
    # holds by direct evaluation (d = 27 is no field: plain polynomials)
    assert sorted((d, n) for d, _, n in THREE_NORM_IDENTITIES) == [
        (d, n) for d in (15, 19, 23, 27) for n in (7, 15, 23, 31)
    ]
    for d, coords, expected in THREE_NORM_IDENTITIES:
        c = (1 + d) // 4
        pairs = zip(coords[::2], coords[1::2])
        assert sum(a * a + a * b + c * b * b for a, b in pairs) == expected, (d, coords)


EXPECTED_M_D = {d: 2 for d in (1, 2, 3, 7, 11)}
EXPECTED_M_D.update({d: 3 for d in (5, 6, 15, 19, 23)})
for _d in SUPPORTED_FIELDS:
    EXPECTED_M_D.setdefault(_d, 4)


def _least_full_layer(layers, criterion):
    return next(j for j, mask in enumerate(layers) if all(mask >> n & 1 for n in criterion))


def test_m_d_all_fields():
    # m_d reads the kernel's layers at width 290; three routes confirm it
    # on every field: the transcribed values, bounded coverage scans
    # (m_d norms cover [1, 10^4], m_d - 1 miss something in [1, 100]),
    # and the least oracle layer holding every TWO_NINETY number
    width = TWO_NINETY[-1]
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
    assert not oracle_represents(terms, gap)
    for n in range(gap):
        assert oracle_represents(terms, n), n


def test_fifteen_theorem_gives_m_d_on_classically_integral_norm_forms():
    # a^2 + d*b^2 (d not 3 mod 4) is classically integral, so the 15
    # theorem applies too; the half-integer forms are left out, as no
    # theorem backs FIFTEEN there
    width = FIFTEEN[-1]
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
    assert not check_criterion(form, (-1,))
    for value in (True, 2.0, "3"):
        with pytest.raises(TypeError, match="coefficient must be an integer"):
            DiagonalForm((1, value))
        with pytest.raises(TypeError, match="weight must be an integer"):
            MixedSum(((TermKind.SQUARE, 1), (TermKind.TRIANGULAR, value)))
        with pytest.raises(TypeError, match="limit must be an integer"):
            universal_up_to(form, value)
