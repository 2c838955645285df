"""Independent reference implementations used only by the test suite.

Deliberately separate from the library's search code: the admissible
coordinate pairs come from a plain box scan with its own loop bounds, the
congruences are evaluated in raw two-constraint form straight off the
representative constants, the canonical witness of a norm is the least
(|b|, |a|, a < 0, b < 0) over that scan, and the least split into exactly
m norms, and with it the minimum count, comes from a top-down exact-m
depth-first search instead of the library's bottom-up layered
reachability, which serves its counts and certificates alike.  Whether a
diagonal square/triangular form takes a value comes from a depth-first
search over the variables in turn, where the library reads a coverage
bitmask.  These are the only depth-first searches
in the project.  The layer masks themselves come from the plain dense
loop, which shifts by every value on every pass, where the library tests
the unset bits one at a time once they are fewer than the values left
and a batch of shifts clears fewer bits than it has shifts.  This module
imports neither the search kernel (normsums.repsearch) nor the coverage
checks (normsums.universality).
Agreement between the two routes is what the equivalence tests assert;
sharing the algorithms would make that assertion circular.
"""

from __future__ import annotations

import math

from normsums.classdata import class_reps
from normsums.quadfield import make_field


def oracle_witnesses(d: int, class_index: int, bound: int) -> dict[int, tuple[int, int]]:
    """Every admissible norm value up to bound, by box scan, mapped to the
    canonical coordinates (a, b) of that norm: the least key
    (|b|, |a|, a < 0, b < 0) over the scan."""
    f = make_field(d)
    rep = class_reps(f)[class_index - 1]
    k, s, t = rep.k, rep.s, rep.t
    best: dict[int, tuple] = {}

    def consider(a: int, b: int, n: int) -> None:
        key = (abs(b), abs(a), a < 0, b < 0)
        if n not in best or key < best[n][0]:
            best[n] = (key, (a, b))

    if d % 4 == 3:
        c = (1 + d) // 4
        # N(a,b) = (a + b/2)^2 + d*b^2/4, so |b| <= 2*sqrt(bound/d)
        bb = math.isqrt(4 * bound // d) + 1
        amax = math.isqrt(bound) + bb // 2 + 2
        for b in range(-bb, bb + 1):
            for a in range(-amax, amax + 1):
                n = a * a + a * b + c * b * b
                if not 0 < n <= bound:
                    continue
                if (s * a - c * t * b) % k == 0 and (t * a + (s + t) * b) % k == 0:
                    consider(a, b, n)
    else:
        amax = math.isqrt(bound)
        bmax = math.isqrt(bound // d)
        for b in range(-bmax, bmax + 1):
            for a in range(-amax, amax + 1):
                n = a * a + d * b * b
                if not 0 < n <= bound:
                    continue
                if (s * a - d * t * b) % k == 0 and (t * a + s * b) % k == 0:
                    consider(a, b, n)
    return {n: best[n][1] for n in sorted(best)}


def oracle_values(d: int, class_index: int, bound: int) -> list[int]:
    """Admissible norm values up to bound, by box scan."""
    return list(oracle_witnesses(d, class_index, bound))


def oracle_witness(d: int, class_index: int, n: int) -> tuple[int, int] | None:
    """Canonical coordinates (a, b) of an admissible gamma of norm n, or
    None when there is none."""
    return oracle_witnesses(d, class_index, n).get(n)


def oracle_layers(values: list[int], width: int, cap: int | None = None) -> list[int]:
    """Cumulative reachability bitmasks over [0, width]: entry j has bit n
    set iff n is a sum of at most j of the values.  Every pass ORs in the
    previous mask shifted by every value; the list ends after cap passes
    or at the first pass that adds nothing, whose mask is the last entry."""
    window = (1 << (width + 1)) - 1
    masks = [1]
    while cap is None or len(masks) <= cap:
        prev = masks[-1]
        grown = prev
        for v in values:
            grown |= (prev << v) & window
        if grown == prev:
            break
        masks.append(grown)
    return masks


def oracle_least_split(d: int, class_index: int, r: int, m: int) -> list[int] | None:
    """The first split of r*k into exactly m admissible norms that a
    depth-first search over the box-scan values meets, as an ascending
    list, or None when there is none.  The search tries values in ascending
    order and never below the previous pick, so its first hit is the
    lexicographically least nondecreasing split."""
    f = make_field(d)
    rep = class_reps(f)[class_index - 1]
    target = r * rep.k
    values = oracle_values(d, class_index, target)
    if not values:
        return None
    vmax = values[-1]
    dead: set[tuple[int, int, int]] = set()
    split: list[int] = []

    def search(remaining: int, slots: int, start: int) -> bool:
        if slots == 0:
            return remaining == 0
        if remaining > slots * vmax:
            return False
        key = (remaining, slots, start)
        if key in dead:
            return False
        for i in range(start, len(values)):
            v = values[i]
            if v * slots > remaining:
                break
            split.append(v)
            if search(remaining - v, slots - 1, i):
                return True
            split.pop()
        dead.add(key)
        return False

    return split if search(target, m, 0) else None


def oracle_min_terms(d: int, class_index: int, r: int, m_max: int = 6) -> int | None:
    """Smallest m <= m_max with r*k a sum of m admissible values, else None.

    None means 'not with m_max or fewer summands'; callers comparing
    against the exact search must account for that cutoff.
    """
    for m in range(1, m_max + 1):
        if oracle_least_split(d, class_index, r, m) is not None:
            return m
    return None


def oracle_represents(terms, n: int) -> bool:
    """Whether sum w_i * (x_i^2 or T_{x_i}) over the terms (kind, w_i),
    kind "Square" or "Triangular", takes the value n with every x_i >= 0,
    by a depth-first search over x_0, x_1, ... in ascending order."""
    parts = list(terms)

    def search(i: int, remaining: int) -> bool:
        if i == len(parts):
            return remaining == 0
        kind, w = parts[i]
        x = 0
        while True:
            v = w * (x * x if kind == "Square" else x * (x + 1) // 2)
            if v > remaining:
                return False
            if search(i + 1, remaining - v):
                return True
            x += 1

    return n >= 0 and search(0, n)
