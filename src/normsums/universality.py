"""Universality toolbox: bounded coverage checks for diagonal forms and
mixed triangular/square sums against a criterion set, and the minimum
unconstrained-norm count m_d per field.

The deep classification results behind the criterion sets (which finite
set of integers certifies universality of a quadratic form) are taken as
given; this module only applies them.  m_d rests on the 290 theorem: it
is the least layer of the norm form's reach_layers at width 290 that
holds every TWO_NINETY number, with no cross-check at run time (the
bounded coverage scans that confirm it live in the tests).  Every
coverage check reads one bitmask, a Python big int holding every sum of
one value per term.  A term's values are those of one or two quadratics
in x >= 0 with q(0) = 0, each given by its first difference and the
constant step of its differences: a square of weight w is (w, 2w), a
triangular number (w, w), and Sun's p*x^2 + x over all integers x is
(p + 1, 2p) and (p - 1, 2p).  One enumerator draws them all, and the
step alone bounds how many there are, so the cost is checked against
the work budget of repsearch before any value is enumerated.  The
depth-first searches that cross-check it live only in tests/_oracle.py.
"""

import enum
from collections import namedtuple
from collections.abc import Iterator
from itertools import accumulate, count, takewhile
from math import isqrt

from .quadfield import FieldParams, require_int
from .repsearch import _check_budget, _value_mask, reach_layers


class TermKind(enum.Enum):
    SQUARE = "Square"
    TRIANGULAR = "Triangular"


class DiagonalForm(namedtuple("DiagonalForm", "coefficients")):
    """Sum of c_i * x_i^2 over integer x_i, every c_i a positive int."""

    __slots__ = ()

    def __new__(cls, coefficients: tuple[int, ...]):
        if not coefficients:
            raise ValueError("coefficients must not be empty")
        for c in coefficients:
            require_int("coefficient", c, least=1)
        return super().__new__(cls, coefficients)


class MixedSum(namedtuple("MixedSum", "terms")):
    """Sum of weighted squares and weighted triangular numbers T_x = x(x+1)/2,
    every weight a positive int."""

    __slots__ = ()

    def __new__(cls, terms: tuple[tuple[TermKind, int], ...]):
        if not terms:
            raise ValueError("terms must not be empty")
        for _, w in terms:
            require_int("weight", w, least=1)
        return super().__new__(cls, terms)


# the criterion numbers of the 15 and 290 theorems
FIFTEEN = (1, 2, 3, 5, 6, 7, 10, 14, 15)
TWO_NINETY = (1, 2, 3, 5, 6, 7, 10, 13, 14, 15, 17, 19, 21, 22, 23, 26, 29, 30,
              31, 34, 35, 37, 42, 58, 93, 110, 145, 203, 290)


def _progression(first: int, step: int, bound: int) -> Iterator[int]:
    """The values up to bound, at x = 0, 1, 2, ..., of the quadratic q with
    q(0) = 0 and q(x + 1) - q(x) = first + step*x, in order (first >= 0,
    step >= 1); _progression_size bounds how many there are."""
    return takewhile(bound.__ge__, accumulate(count(first, step), initial=0))


def _progression_size(step: int, bound: int) -> int:
    # q(x) >= step*x*(x - 1)/2 >= step*(x - 1)^2/2, so q(x) <= bound gives
    # x <= isqrt(2*bound // step) + 1
    return isqrt(2 * bound // step) + 2


def _coverage_mask(terms: list[tuple[tuple[int, int], ...]], bound: int) -> int:
    """The bitmask of all sums v_0 + ... + v_{n-1} <= bound, v_j a value of
    term j: of any of the term's progressions (first, step).

    The cost, one shift of a mask of bound // 64 + 1 words per value, is
    bounded by _progression_size and judged before any value is drawn:
    over the work budget raises Overflow with the estimate.
    """
    size = sum(_progression_size(step, bound) for term in terms for _, step in term)
    _check_budget(size * (bound // 64 + 1), f"bound {bound}")
    mask = 1
    window = (1 << (bound + 1)) - 1
    for term in terms:
        acc = 0
        for first, step in term:
            for v in _progression(first, step, bound):
                acc |= mask << v
        mask = acc & window
    return mask


def _form_mask(form: DiagonalForm | MixedSum, bound: int) -> int:
    # w*x^2 steps by w, 3w, 5w, ... and w*x(x + 1)/2 by w, 2w, 3w, ...; x >= 0
    # is exhaustive because x^2 = (-x)^2 and x(x + 1) = (-x - 1)(-x)
    terms = form.terms if isinstance(form, MixedSum) else ((TermKind.SQUARE, c) for c in form.coefficients)
    return _coverage_mask([((w, 2 * w if kind is TermKind.SQUARE else w),) for kind, w in terms], bound)


def check_criterion(form: DiagonalForm | MixedSum, criterion: tuple[int, ...]) -> bool:
    """Whether the form represents every member of the criterion set.

    Eligibility of the form for the criterion (diagonal integral vs
    integer-valued) is the caller's responsibility.
    """
    mask = _form_mask(form, max((0, *criterion)))
    return all(n >= 0 and mask >> n & 1 for n in criterion)


def _first_gap(mask: int, limit: int) -> int | None:
    """Least n in [1, limit] whose bit is unset in mask, else None."""
    missing = ~mask & ((1 << (limit + 1)) - 2)
    return (missing & -missing).bit_length() - 1 if missing else None


def universal_up_to(form: DiagonalForm | MixedSum, limit: int) -> tuple[bool, int | None]:
    """Whether the form represents every n in [1, limit]; first gap if not."""
    require_int("limit", limit, least=1)
    gap = _first_gap(_form_mask(form, limit), limit)
    return (gap is None, gap)


def sun_polynomial_universal(limit: int) -> tuple[bool, int | None]:
    """Coverage of 2a^2+a + 3b^2+b + 3c^2+c over all integers a, b, c
    (negatives included) on [1, limit]; first gap if any."""
    require_int("limit", limit, least=1)
    # p*x^2 + x steps by p + 1, 3p + 1, ... from x = 0 up and by p - 1,
    # 3p - 1, ... from x = 0 down
    mask = _coverage_mask([((p + 1, 2 * p), (p - 1, 2 * p)) for p in (2, 3, 3)], limit)
    gap = _first_gap(mask, limit)
    return (gap is None, gap)


def norm_sum_first_gap(f: FieldParams, copies: int, limit: int) -> int | None:
    """First n in [1, limit] not a sum of `copies` norms of the ring, else None.

    Summands may be zero (fewer norms always allowed), matching the reading
    of m_d as 'sums of at most m_d norms'.  The norms are the values of the
    principal class form, layered by the same kernel as the class searches,
    behind the same work check (Overflow over budget).
    """
    require_int("limit", limit, least=1)
    require_int("copies", copies, least=0)
    return _first_gap(reach_layers(_value_mask(*f.form_coefficients(), limit), limit, copies)[-1], limit)


def m_d(f: FieldParams) -> int:
    """Smallest number of norms of the ring whose sums cover all positive
    integers.

    m copies of the norm form make a positive definite, integer-valued
    form in 2m variables, so by the 290 theorem (Bhargava-Hanke) they
    represent every positive integer exactly when they represent the 29
    numbers of TWO_NINETY.  m_d is the least layer of reach_layers at
    width 290 that holds all of them.  No cap is needed: 1 and every
    square are norms, so by Lagrange layer 4 is full, and reach_layers
    stops only at a repeated layer.
    """
    width = TWO_NINETY[-1]
    masks = reach_layers(_value_mask(*f.form_coefficients(), width), width)
    return next(j for j, mask in enumerate(masks) if all(mask >> n & 1 for n in TWO_NINETY))
