"""Field construction, norms, and the conjugation involution."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from normsums.quadfield import (
    CLASS_NUMBER_1_FIELDS,
    CLASS_NUMBER_2_FIELDS,
    CLASS_NUMBER_3_FIELDS,
    INT64_MAX,
    SUPPORTED_FIELDS,
    NotSquarefree,
    OmegaBranch,
    Overflow,
    RingElement,
    UnsupportedField,
    conjugate,
    isqrt_floor,
    make_field,
    norm,
)

supported = st.sampled_from(SUPPORTED_FIELDS)
coords = st.integers(min_value=-1000, max_value=1000)


def test_field_lists_are_disjoint_and_sorted():
    all_ds = set(CLASS_NUMBER_1_FIELDS) | set(CLASS_NUMBER_2_FIELDS) | set(CLASS_NUMBER_3_FIELDS)
    assert len(all_ds) == 9 + 18 + 16
    assert SUPPORTED_FIELDS == tuple(sorted(all_ds))


def reduced_form_count(disc: int) -> int:
    """Number of primitive reduced forms (a, b, c) of discriminant
    disc < 0: |b| <= a <= c, b >= 0 when |b| = a or a = c.  For the
    field discriminant of Q(sqrt(-d)) that is the class number."""
    count = 0
    a = 1
    while 3 * a * a <= -disc:
        for b in range(-a + 1, a + 1):
            c, rem = divmod(b * b - disc, 4 * a)
            if not rem and c >= a and not (a == c and b < 0) and math.gcd(a, b, c) == 1:
                count += 1
        a += 1
    return count


def test_field_lists_are_every_field_of_class_number_at_most_3_up_to_2000():
    # counted from reduced forms, with no field code; past 2000 the lists
    # rest on the theorems that close them: Heegner-Baker-Stark (h = 1),
    # Baker and Stark (h = 2), Oesterle and Watkins (h = 3)
    by_class_number: dict[int, list[int]] = {1: [], 2: [], 3: []}
    for d in range(1, 2001):
        if any(d % (p * p) == 0 for p in range(2, math.isqrt(d) + 1)):
            continue
        h = reduced_form_count(-d if d % 4 == 3 else -4 * d)
        if h <= 3:
            by_class_number[h].append(d)
    assert by_class_number == {1: list(CLASS_NUMBER_1_FIELDS), 2: list(CLASS_NUMBER_2_FIELDS),
                               3: list(CLASS_NUMBER_3_FIELDS)}
    assert [reduced_form_count(disc) for disc in (-3, -4, -20, -23, -907)] == [1, 1, 2, 3, 3]


def test_make_field_branch_selection():
    f = make_field(5)
    assert f.omega_branch is OmegaBranch.SQRT_MINUS_D and f.class_number == 2
    f = make_field(23)
    assert f.omega_branch is OmegaBranch.HALF_ONE_PLUS_SQRT_MINUS_D and f.class_number == 3
    assert make_field(1).class_number == 1
    assert make_field(163).omega_branch is OmegaBranch.HALF_ONE_PLUS_SQRT_MINUS_D


def test_make_field_rejects_bad_input():
    with pytest.raises(NotSquarefree):
        make_field(4)
    with pytest.raises(NotSquarefree):
        make_field(50)
    with pytest.raises(NotSquarefree):
        make_field(12)
    # squarefree but class number too large
    with pytest.raises(UnsupportedField):
        make_field(21)
    with pytest.raises(UnsupportedField):
        make_field(105)
    with pytest.raises(ValueError):
        make_field(0)
    with pytest.raises(ValueError):
        make_field(-3)
    with pytest.raises(TypeError):
        make_field(5.0)


def test_form_coefficients():
    assert make_field(5).form_coefficients() == (1, 0, 5)
    assert make_field(23).form_coefficients() == (1, 1, 6)
    assert make_field(35).form_coefficients() == (1, 1, 9)


def test_norm_examples():
    assert norm(make_field(5), RingElement(1, 1)) == 6
    assert norm(make_field(23), RingElement(1, -1)) == 6
    assert norm(make_field(35), RingElement(2, 1)) == 15
    assert norm(make_field(907), RingElement(5, -1)) == 247
    assert norm(make_field(1), RingElement(0, 0)) == 0


def test_norm_overflow_guard():
    f = make_field(1)
    big = isqrt_floor(INT64_MAX)
    # at the boundary the value still fits
    assert norm(f, RingElement(big, 0)) == big * big
    with pytest.raises(Overflow):
        norm(f, RingElement(2**32, 2**32))


def test_conjugate_examples():
    f23 = make_field(23)
    assert conjugate(f23, RingElement(2, -1)) == RingElement(1, 1)
    assert conjugate(f23, RingElement(3, 0)) == RingElement(3, 0)
    f5 = make_field(5)
    assert conjugate(f5, RingElement(2, 1)) == RingElement(2, -1)


@given(supported, coords, coords)
def test_conjugate_is_norm_preserving_involution(d, a, b):
    f = make_field(d)
    e = RingElement(a, b)
    c = conjugate(f, e)
    assert conjugate(f, c) == e
    assert norm(f, c) == norm(f, e)


@given(supported, coords, coords)
def test_norm_central_symmetry(d, a, b):
    f = make_field(d)
    assert norm(f, RingElement(a, b)) == norm(f, RingElement(-a, -b))


@given(supported, coords)
def test_norm_of_rational_integer_is_square(d, a):
    assert norm(make_field(d), RingElement(a, 0)) == a * a


@given(supported, coords, coords)
def test_four_norm_identity(d, a, b):
    # 4*N(a + b*omega) == (2a + b)^2 + d*b^2 on the half-integer branch,
    # and (2a)^2 + d*(2b)^2 on the other
    f = make_field(d)
    n = norm(f, RingElement(a, b))
    if f.is_half_branch:
        assert 4 * n == (2 * a + b) ** 2 + d * b * b
    else:
        assert n == a * a + d * b * b


@given(supported, coords, coords)
def test_norm_positive_definite(d, a, b):
    f = make_field(d)
    n = norm(f, RingElement(a, b))
    if (a, b) == (0, 0):
        assert n == 0
    else:
        assert n >= 1


def test_isqrt_floor():
    assert isqrt_floor(0) == 0
    assert isqrt_floor(-7) == 0
    assert isqrt_floor(24) == 4
    assert isqrt_floor(25) == 5
    for n in range(2000):
        assert isqrt_floor(n) == math.isqrt(n)
