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
one value per term.  Its cost is bounded from the terms alone and
checked against the work budget of repsearch before any value is
enumerated.  The depth-first searches that cross-check it live only in
tests/_oracle.py.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable
from math import isqrt
from typing import NamedTuple

from .quadfield import FieldParams, require_int
from .repsearch import _check_budget, form_values, reach_layers


class TermKind(enum.Enum):
    SQUARE = "Square"
    TRIANGULAR = "Triangular"


class _DiagonalFormFields(NamedTuple):
    coefficients: tuple[int, ...]


class DiagonalForm(_DiagonalFormFields):
    """Sum of c_i * x_i^2 over integer x_i, every c_i a positive int."""

    __slots__ = ()

    def __new__(cls, coefficients: tuple[int, ...]):
        if not coefficients:
            raise ValueError("coefficients must not be empty")
        for c in coefficients:
            require_int("coefficient", c, least=1)
        return super().__new__(cls, coefficients)


class _MixedSumFields(NamedTuple):
    terms: tuple[tuple[TermKind, int], ...]


class MixedSum(_MixedSumFields):
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


def triangular(x: int) -> int:
    return x * (x + 1) // 2


def _term_values(kind: TermKind, weight: int, bound: int) -> list[int]:
    # all attainable values of one term, 0 included, up to bound: x >= 0
    # is exhaustive because x^2 = (-x)^2 and T_x = T_{-x-1}
    vals = []
    x = 0
    while True:
        v = weight * (x * x if kind is TermKind.SQUARE else triangular(x))
        if v > bound:
            break
        vals.append(v)
        x += 1
    return vals


def _terms(form: DiagonalForm | MixedSum) -> tuple[tuple[TermKind, int], ...]:
    if isinstance(form, DiagonalForm):
        return tuple((TermKind.SQUARE, c) for c in form.coefficients)
    return form.terms


def _coverage_mask(counts: list[int], value_lists: Iterable[list[int]], bound: int) -> int:
    """The bitmask of all sums v_0 + ... + v_{n-1} <= bound with v_j from
    list j of the n value lists.

    counts[j] bounds the length of list j, so the cost, at most sum(counts)
    shifts of a mask of bound // 64 + 1 words, is judged before anything
    is drawn from value_lists (which may be lazy): over the work budget
    raises Overflow with the estimate.
    """
    _check_budget(sum(counts) * (bound // 64 + 1), f"bound {bound}")
    mask = 1
    window = (1 << (bound + 1)) - 1
    for vals in value_lists:
        acc = 0
        for v in vals:
            acc |= mask << v
        mask = acc & window
    return mask


def _form_mask(form: DiagonalForm | MixedSum, bound: int) -> int:
    # a square or triangular term of weight w has at most
    # isqrt(2*bound // w) + 2 values up to bound
    terms = _terms(form)
    return _coverage_mask([isqrt(2 * bound // w) + 2 for _, w in terms],
                          (_term_values(kind, w, bound) for kind, w in terms), bound)


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

    def poly_values(p: int) -> list[int]:
        # p*x^2 + x over x in Z, nonnegative values up to limit
        vals = set()
        x = 0
        while p * x * x - x <= limit:
            for v in (p * x * x + x, p * x * x - x):
                if 0 <= v <= limit:
                    vals.add(v)
            x += 1
        return sorted(vals)

    # p*x^2 + x and p*x^2 - x at |x| <= isqrt(limit // p) + 1: at most
    # 2*isqrt(limit // p) + 3 values
    ps = (2, 3, 3)
    mask = _coverage_mask([2 * isqrt(limit // p) + 3 for p in ps], (poly_values(p) for p in ps), limit)
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
    values = form_values(*f.form_coefficients(), limit)
    return _first_gap(reach_layers(values, limit, copies)[-1], limit)


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
    masks = reach_layers(form_values(*f.form_coefficients(), width), width)
    return next(j for j, mask in enumerate(masks) if all(mask >> n & 1 for n in TWO_NINETY))
