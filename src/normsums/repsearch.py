"""Representability searches: minimum summand counts, certificates,
exceptional sets, and the uniform invariant g.

Everything runs on integers.  A lattice with h(v^r) = r/k is a sum of m
scaled norms N(gamma/k) exactly when r*k is a sum of m congruence-
admissible norm values N(gamma).  Each admissible norm is k times a value
of the class's binary form A*x^2 + B*x*y + C*y^2 (classdata.class_form),
so the search asks instead whether r is a sum of m form values, in
r-space, with no congruence test in the loop.  The one enumerator,
_value_mask, gives the values up to a bound as one bitmask, bit v for
each value v and for the empty sum 0.  By 4A*Q = (2A*x + B*y)^2 + D*y^2
with D = 4AC - B^2, the values of row y are a base of the row plus the
numbers A*i^2 + r*i over every integer i, r one of at most A + 1
residues.  The mask of those numbers depends on (A, r) alone, so it is
built once per process, at the widest bound asked for so far, and kept
in _RESIDUES: every form here has one of seven leading coefficients, so
at most 49 keys, 4.3 MB at the widest admitted bounds.  A narrower bound
reads it with one shift, so each row costs one shift and one OR, with no
Python code per point or per value once its residue masks are built.

Minimum counts come from a layered reachability table: layer j is the
bitmask of all r reachable as a sum of at most j form values.  The
layers grow monotonically and the first repeated layer is a fixpoint, at
which point every bit still unset is unreachable by any number of
summands; that makes Unrepresentable an exact verdict, not a timeout.
Layer 1 is the value mask itself.  Each later pass, from a sparse layer
as from a dense one, shifts the layer by the values in order, counting
the unset bits after shift 1, 2, 4, 8, 16 and then every 16 shifts,
until at a count fewer bits are unset than values are left and the
shifts since the last count cleared fewer bits than there were shifts;
for a class form's values at width 30000 that takes 48 to 288 shifts out
of thousands from layer 1, and a few from a nearly full layer.
Then the pass tests each r still unset alone, one AND against the
reversed first layer, and ORs the hits in with one parse, so it never
costs more than a full pass and the work bound below still holds.
Each layer's new bits are decoded once into per-r min-counts, one byte
per r.  One entry is kept per (field, class), the inverse classes 2 and
3 of a class-number-3 field sharing one.  It holds two things, each with
one meaning: counts, the min-count bytes from r = 0 up to where they were
built, and values, the class's value mask up to its width, never
narrower than the counts.  The counts are rebuilt only when a larger
r_max is asked for; smaller windows read a prefix of them.  A rebuild
layers the kept mask, cut to r_max, where it is that wide already, and
enumerates the class only where it is narrower.  min_count_table,
exceptional_set and g_invariant always read the counts; g_invariant
finds the largest count by one bytes search per count (_max_count).

A point query at r (min_terms, find_certificate) needs only r's count, and
almost every r needs one or two values.  One helper, _point_table, gives
that count exactly.  Unless the counts reach r, it reads the value mask,
enumerated afresh up to r when the kept one is narrower, with no
layering.  The mask ANDed with itself read backwards from r, cut to
[0, r // 2], has bit u set exactly when u and r - u are both values (0
counting as one): bit 0 says r is a value, and otherwise the lowest bit
gives the lexicographically least pair.  Any other r needs three or more
values or none, and the helper builds the counts up to r from the mask:
the class is not enumerated again.

Certificates come from the answer that gave the minimum: m below it (or
any m, if r is unreachable) has no certificate, and m equal to it takes
the values the AND found, or walks the counts, with no further
enumeration or layer build.  Above the minimum, exactly m form values sum
to r exactly when at most m of the shifted values v - vmin (v > vmin,
vmin the least value) sum to r - m*vmin.  The shifted values are read
off the class's value mask, with no enumeration: shifted down by vmin,
its bit 0 is the empty sum; they are layered up to m - 1 times and
decoded into a table that is not kept, and the certificate opens with
m - c copies of vmin, c the least count of shifted values reaching the
remainder.  The walk then takes the rest in order, each the least value
in a window whose remainder needs exactly the slots left, found by one
bytes search over the window.
Congruences stay at the edges: only the distinct values a certificate
picks get (a, b) coordinates, solved once each from the form's (x, y) by
a = k*x - beta*y, b = y; each row costs one isqrt, a test that it holds
a point of the value, and x is derived only where it does.

Work is known before it starts: _value_mask bounds the word-shifts of a
layer build from the form and the width alone, and raises Overflow over
budget before its first row, so no enumeration escapes the check;
check_tables sums that bound over every table a command will build, once,
before its first build.
"""

import re
from collections import namedtuple
from math import isqrt

from .classdata import class_form, class_reps, rep_for
from .quadfield import (
    FieldParams,
    Overflow,
    RingElement,
    isqrt_floor,
    norm,
    require_int,
)

# Upper bound on the passes of reach_layers over the values of any class
# form, or over their shifted values, up to a fixpoint (measured at most
# 10, for d=403 class 2, at widths 100 to 60000), and the most
# word-shifts _value_mask admits.  The widest count build admitted, d=907
# class 2 at 779903 (an estimate of 9.9998e9), takes 0.08-0.13 s from
# empty caches on a 2-vCPU Intel Xeon VM: every pass shifts by a few
# batches of values and tests the bits still unset, far fewer operations
# than the full passes the estimate charges.
_PASS_BOUND = 10
_WORK_BUDGET = 10**10

# The most shifts a pass of reach_layers makes between two recounts of
# its unset bits: it recounts after shift 1, 2, 4, 8, 16 and then every 16
# shifts.  On a 2-vCPU Intel Xeon VM (best of 15 in one process) the 43
# norm forms' layerings at width 30000, capped at m_d, took 23.0-24.7 ms
# with 16, against 29.0-30.5 ms recounting at every power of two.  Against
# 16, stride 8 and 64 were slower on those, and 32 was no faster on them
# and slower on the class forms' tables at 1500 to 6000.
_RECOUNT_STRIDE = 16

# (d, class_index) -> (counts, width, values): byte r of counts is the
# least number of form values summing to r, 0 when no number does, for
# every r it covers (b"" when no counts are built); values is the class's
# _value_mask up to width, and width >= len(counts) - 1.  Class 3 reads
# (d, 2).  Neither is wider than _value_mask admits for the class, so the
# 77 keys take at most 41594837 bytes, a mask of width w counted as
# w // 8 + 1 bytes; CPython's 30-bit digits in 4 bytes make a mask about
# 6.7% larger than that, 104012 bytes against 97488 for d=907 class 2
_TABLES: dict[tuple[int, int], tuple[bytes, int, int]] = {}

# (a, r) -> (limit, mask): bit limit - n of mask is set for each number
# n = a*i^2 + r*i <= limit over the integers i, r a residue of a row of a
# form with leading coefficient a (_value_mask), so every such form reads
# it.  A key is only rebuilt, at the wider bound of an admitted call, so
# limit never passes the widest width _value_mask admits for a form with
# that a: at most 49 keys and 4303588 bytes over every supported field,
# a mask counted as w // 8 + 1 bytes as for _TABLES, so about 6.7% short
# of what CPython's 30-bit digits take
_RESIDUES: dict[tuple[int, int], tuple[int, int]] = {}


class LatticeQuery(namedtuple("LatticeQuery", "field class_index r")):
    """The lattice of class class_index scaled by r, checked on
    construction: a class the field lacks or an r that is not a positive
    int raises before the record exists."""

    __slots__ = ()

    def __new__(cls, field: FieldParams, class_index: int, r: int):
        rep_for(field, class_index)
        require_int("r", r, least=1)
        return super().__new__(cls, field, class_index, r)

    @property
    def k(self) -> int:
        return rep_for(self.field, self.class_index).k


class RepCertificate(namedtuple("RepCertificate", "query m gammas")):
    """m RingElements, gammas, whose admissible norms sum to query.r*query.k."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        f = self.query.field
        return {
            "d": f.d,
            "class_index": self.query.class_index,
            "k": self.query.k,
            "r": self.query.r,
            "m": self.m,
            "gammas": [[g.a, g.b] for g in self.gammas],
            "check": sum(norm(f, g) for g in self.gammas),
        }


class MinTermsResult(namedtuple("MinTermsResult", "outcome m", defaults=(None,))):
    """outcome is "representable", with the least count m, or
    "unrepresentable", with m None."""

    __slots__ = ()

    @property
    def is_representable(self) -> bool:
        return self.outcome == "representable"


# byte i with its bits in reverse order
_REVERSED_BITS = bytes(int(f"{i:08b}"[::-1], 2) for i in range(256))


def _reversed(mask: int, width: int) -> int:
    """mask over [0, width] read backwards: bit n moves to bit width - n.
    Its bytes, big-endian, each with its bits reversed, read little-endian
    reverse all of its 8*size bits, and the shift drops the padding."""
    size = width // 8 + 1
    return int.from_bytes(mask.to_bytes(size, "big").translate(_REVERSED_BITS), "little") >> (8 * size - 1 - width)


def _value_mask(a: int, b: int, c: int, bound: int) -> int:
    """Bit v is set for v = 0 and for every value v <= bound of the positive
    definite form a*x^2 + b*x*y + c*y^2.  Raises Overflow before its first
    row unless layering the values up to bound fits the work budget
    (_work_estimate).

    By 4a*Q = t^2 + D*y^2 with t = 2a*x + b*y and D = 4ac - b^2, row y
    takes t = rho + 2a*i for every integer i, rho the residue of b*y mod 2a
    in (-a, a], so its values are the row's base (rho^2 + D*y^2)/(4a) plus
    a*i^2 + |rho|*i (i -> -i turns rho to -rho), none negative as |rho| <= a.
    Row -y repeats row y, and no row past sqrt(4a*bound/D) holds a value up
    to bound.  The numbers n = a*i^2 + r*i up to a limit form one mask per
    (a, r), with n at bit limit - n, kept in _RESIDUES for every form with
    leading coefficient a: shifted down by limit - bound plus a row's base,
    the mask drops the values past bound by itself, so each row is one
    shift and one OR.  A key missing or narrower than bound is built at
    bound by about 2*sqrt(bound/a) Python steps, only after the budget
    check, so a refused call writes nothing and no key grows past the
    widest width admitted for a form with that a.  The rows run downward,
    so the sum grows with the shifted masks, and is read backwards once at
    the end.
    """
    _check_budget(_work_estimate(a, b, c, bound), f"width {bound}")
    disc = 4 * a * c - b * b
    # r -> (the key's mask, its limit - bound)
    residue_masks: dict[int, tuple[int, int]] = {}
    acc = 0
    for y in range(isqrt(4 * a * bound // disc), -1, -1):
        rho = (b * y + a - 1) % (2 * a) - a + 1
        r = abs(rho)
        if r not in residue_masks:
            limit, mask = _RESIDUES.get((a, r), (-1, 0))
            if limit < bound:
                marks = bytearray(bound // 8 + 1)
                top = isqrt(bound // a) + 1  # a*i^2 + r*i > bound for |i| > top
                for i in range(-top, top + 1):
                    n = bound - (a * i + r) * i
                    if n >= 0:
                        marks[n >> 3] |= 1 << (n & 7)
                limit, mask = _RESIDUES[a, r] = bound, int.from_bytes(marks, "little")
            residue_masks[r] = mask, limit - bound
        mask, drop = residue_masks[r]
        acc |= mask >> (drop + (rho * rho + disc * y * y) // (4 * a))
    return _reversed(acc, bound)


def _work_estimate(a: int, b: int, c: int, width: int) -> int:
    """Word-shifts of layering the values of the form up to width, bounded
    before any row is enumerated.

    The estimate is points x words x passes: the form's half-plane points
    up to width bound its distinct values, each pass shifts every value's
    copy of a (width + 1)-bit mask, and no build takes more than
    _PASS_BOUND passes.  Row y of the half plane holds at most u_y/a + 1
    points, with u_y = sqrt(4a*width - D*y^2) falling in y, so the rows
    hold at most the half ellipse's area pi*width/sqrt(D), plus row 0 once
    more, plus one point per row.  Integer arithmetic (pi < 355/113) keeps
    the bound exact for any width.  A pass of reach_layers that switches
    to testing unset bits stays within it too: every pass starts with
    shifts, from a sparse layer as from a dense one, and switches only
    when fewer bits are unset than values are left, so for n values it
    does i shifts and then fewer than n - i ANDs, each on at most
    width + 1 bits, so no more operations than a full pass, plus O(width)
    string work and at most i // 16 + 5 popcounts, one before the shifts
    and one at each recount (every _RECOUNT_STRIDE shifts past shift 16).
    The points measured cover n + n // 16 + 5 for every class form at
    widths 10 to 30000, the least ratio 1.07 (d=883 class 2 at 3000), so
    the charge covers the popcounts too, by measurement, not proof.  The
    enumeration itself is one shift and one OR per row plus, for each
    residue mask not already in _RESIDUES at least as wide, about
    2*sqrt(width/a) Python steps.
    """
    disc = 4 * a * c - b * b
    area = 355 * (isqrt_floor(width * width // disc) + 1) // 113 + 1
    points = area + isqrt_floor(4 * a * width) // a + 1 + isqrt_floor(4 * a * width // disc) + 1
    return points * (width // 64 + 1) * _PASS_BOUND


def _check_budget(estimate: int, what: str) -> None:
    if estimate > _WORK_BUDGET:
        raise Overflow(f"{what} would take an estimated {estimate} word-shifts, over the budget of {_WORK_BUDGET}")


def check_tables(fields: list[FieldParams], r_max: int) -> None:
    """Raise Overflow unless the tables of every class of the fields, each
    up to r_max, fit the work budget together.  A command that builds
    several tables checks their sum once, before its first build; a table
    two classes share is charged once."""
    require_int("r_max", r_max)
    forms = [class_form(f, rep)[:3] for f in fields for rep in class_reps(f)
             if _table_key(f, rep.class_index) == (f.d, rep.class_index)]
    _check_budget(sum(_work_estimate(*form, r_max) for form in forms), f"{len(forms)} tables of width {r_max}")


def _witness(form: tuple[int, int, int, int], k: int, v: int) -> RingElement:
    """The canonical gamma of norm k*v, for a value v of the class form
    (A, B, C, beta).  A point of value v in row y of the half plane
    solves (2A*x + B*y)^2 = 4A*v - D*y^2 with D = 4AC - B^2, so the row
    holds one only when the right side is a perfect square u^2, tested
    with one isqrt; x = (u - B*y)/(2A) or (-u - B*y)/(2A) where 2A
    divides.  The first row holding one gives the least |b|; of its points
    the one with the least |a|, a = k*x - beta*y, wins (a >= 0 on a tie),
    and the pair's sign is flipped so that a >= 0.  In row 0 that keeps
    x > 0 of the points x and -x, the half plane's own point."""
    fa, fb, fc, beta = form
    disc = 4 * fa * fc - fb * fb
    two_a = 2 * fa
    for y in range(isqrt_floor(4 * fa * v // disc) + 1):
        square = 4 * fa * v - disc * y * y
        u = isqrt(square)
        if u * u != square:
            continue
        xs = [(s - fb * y) // two_a for s in (u, -u) if (s - fb * y) % two_a == 0]
        if xs:
            a = min((k * x - beta * y for x in xs), key=lambda a: (abs(a), a < 0))
            return RingElement(a, y) if a >= 0 else RingElement(-a, -y)
    raise ValueError(f"{v} is not a value of the form {form[:3]}")


def reach_layers(first: int, width: int, cap: int | None = None) -> list[int]:
    """Cumulative reachability bitmasks over [0, width]: masks[j] has bit n
    set iff n is a sum of at most j of the values, the n >= 1 whose bit is
    set in first, a mask over [0, width] with bit 0 set for the empty sum
    (as _value_mask gives it).  Stops after cap layers, or at the first
    repeated layer, which is left as the last entry: a fixpoint, so a bit
    unset there is unreachable outright.

    Layer 1 is first.  One format of it, read backwards, holds a 1 at
    character v for every value v, found in ascending order one at a time
    as a pass needs them, and _reversed gives rev, which holds bit width - v
    for every value v and for 0.  Every later pass shifts the layer by the
    values in order, recounting the unset bits of [0, width] in the growing
    layer after shift 1, 2, 4, 8, 16 and then every _RECOUNT_STRIDE
    shifts, and stops shifting at the first recount where fewer are unset
    than values are left and the batch of shifts since the previous
    recount cleared fewer bits than it had shifts, so it learns that its
    shifts have stopped paying at most 16 shifts late (the d=403 norm
    form's pass to layer 2 at width 30000 switches after 160 shifts of
    its 2090 values).  A pass from a nearly full layer starts so too: its
    first few batches clear most of the bits still unset (the same form
    goes to layer 3 by 8 shifts and 15 tests, not 354 tests).  Then it
    tests each r still unset alone: r joins the layer exactly
    when the old layer meets rev >> (width - r).  The hits are collected
    in one string and ORed in with one parse, so a pass does i shifts and
    fewer than n - i tests of width + 1 bits for n values, never more
    than a full pass's n shifts.
    """
    window = (1 << (width + 1)) - 1
    digits = format(first, "b")[::-1]
    nvalues = first.bit_count() - 1
    rev = _reversed(first, width)
    masks = [1]
    while cap is None or len(masks) <= cap:
        cur = masks[-1]
        if cur == 1:
            nxt = first
        else:
            nxt = cur
            shifted = 0
            left = width + 1 - cur.bit_count()
            if left:
                due = batch = 1
                for shifted, value in enumerate(re.compile("1").finditer(digits, 1), 1):
                    nxt |= (cur << value.start()) & window
                    if shifted == due:
                        # the last batch, the batch shifts since the
                        # previous recount, cleared before - left; batches
                        # double up to _RECOUNT_STRIDE shifts
                        before, left = left, width + 1 - nxt.bit_count()
                        if left < nvalues - shifted and before - left < batch:
                            break
                        batch = shifted if shifted < _RECOUNT_STRIDE else _RECOUNT_STRIDE
                        due += batch
            if shifted < nvalues:
                # character c of unset is bit len(unset) - 1 - c
                unset = format(~nxt & window, "b")
                hits = bytearray(b"0") * len(unset)
                base = rev >> (width + 1 - len(unset))
                c = unset.find("1")
                while c >= 0:
                    if cur & (base >> c):
                        hits[c] = 49
                    c = unset.find("1", c + 1)
                nxt |= int(hits, 2)
        if nxt == cur:
            break
        masks.append(nxt)
    return masks


def _decode(masks: list[int], width: int) -> bytes:
    """Byte n is the least j with bit n set in masks[j], 0 if there is
    none (and for n = 0).  Layer j's new bits become bytes of value j in one
    pass over a binary string."""
    acc = 0
    for j in range(1, len(masks)):
        bits = format(masks[j] ^ masks[j - 1], "b").encode()
        acc |= int.from_bytes(bits.translate(bytes.maketrans(b"01", bytes((0, j)))), "big")
    return acc.to_bytes(width + 1, "little")


def _table_key(f: FieldParams, class_index: int) -> tuple[int, int]:
    """The _TABLES key of a class.  Class 3 of a class-number-3 field is
    the inverse of class 2, so their forms take the same values and share
    the key (d, 2)."""
    return (f.d, 2 if class_index == 3 else class_index)


def _count_table(f: FieldParams, class_index: int, r_max: int) -> bytes:
    """The class's min-counts, covering at least [0, r_max].  Class 3 of a
    class-number-3 field reads class 2's, kept under (d, 2).  A rebuild
    layers the class's value mask up to r_max: the kept mask cut to r_max
    when its width reaches r_max, else a new one from _value_mask, kept in
    place of the narrower one.  Cutting needs no budget check of its own: a
    mask of width W was admitted by _value_mask at W, and the estimate
    grows with the width, so a build up to r_max <= W is admitted too."""
    require_int("r_max", r_max, least=1)
    rep = rep_for(f, class_index)  # a class the field lacks raises before any cache read
    key = _table_key(f, class_index)
    counts, width, values = _TABLES.get(key, (b"", -1, 0))
    if len(counts) <= r_max:
        if width < r_max:
            width, values = r_max, _value_mask(*class_form(f, rep)[:3], r_max)
        counts = _decode(reach_layers(values & ((2 << r_max) - 1), r_max), r_max)
        _TABLES[key] = (counts, width, values)
    return counts


def _point_table(q: LatticeQuery) -> tuple[int, list[int] | None, bytes, int]:
    """The least number of form values summing to q.r, 0 when no number
    does; when the value mask gave it, the least that many values summing
    to q.r, else None (_walk reads them off the counts); and the class's
    counts and value mask, the mask covering q.r and the counts too unless
    the mask gave the answer.

    The class's counts answer when they reach r.  Otherwise the mask does,
    enumerated afresh up to r if the kept one is narrower: both, the mask
    ANDed with itself read backwards from r and cut to [0, r // 2], has
    bit u set exactly when u and r - u are values or 0.  r needs one value
    when bit 0 is set, and otherwise two, u and r - u for the lowest set
    bit u, when both is not 0.  Any other r needs three or more values or
    none, and _count_table builds the counts up to r from the mask.
    This is the one place where a point query enumerates or builds counts.
    """
    key = _table_key(q.field, q.class_index)
    counts, width, values = _TABLES.get(key, (b"", -1, 0))
    if len(counts) > q.r:
        return counts[q.r], None, counts, values
    if width < q.r:
        # enumerating first checks the budget before any allocation
        values = _value_mask(*class_form(q.field, rep_for(q.field, q.class_index))[:3], q.r)
        _TABLES[key] = (counts, q.r, values)
    both = values & _reversed(values & ((2 << q.r) - 1), q.r) & ((2 << q.r // 2) - 1)
    if both:
        u = (both & -both).bit_length() - 1
        picks = [u, q.r - u] if u else [q.r]
        return len(picks), picks, counts, values
    counts = _count_table(q.field, q.class_index, q.r)
    return counts[q.r], None, counts, values


def min_terms(q: LatticeQuery) -> MinTermsResult:
    """Exact minimum number of admissible norms summing to r*k, or the
    exact verdict that no number of norms works, as _point_table gives
    it."""
    m = _point_table(q)[0]
    if not m:
        return MinTermsResult("unrepresentable")
    return MinTermsResult("representable", m)


def _walk(table: bytes, rem: int, count: int) -> list[int] | None:
    """The least nondecreasing count values summing to rem, or None.  Byte
    n of table (n <= rem) is the least number of values summing to n, so
    byte 1 marks a value; rem needs no fewer than count values, and is a
    value if count is 1.

    Each pick u is the least value in [previous pick, rem // (slots + 1)]
    whose remainder needs exactly the slots left after it: fewer would let
    rem take fewer than count, and none of the later picks, each at least
    u, is smaller.  One bytes search finds it: the window translated to
    "is a value" and the mirrored window to "needs exactly slots", ANDed
    as ints; the lowest set byte is the pick.  The last pick is what
    remains, a value because the pick before it left one.
    """
    picks: list[int] = []
    u = 1
    for slots in range(count - 1, 0, -1):
        hi = rem // (slots + 1)
        is_value = table[u : hi + 1].translate(bytes(1) + b"\1" + bytes(254))
        # read big-endian, byte rem - u of the mirrored window lands at u's place
        needs = table[rem - hi : rem - u + 1].translate(bytes(slots) + b"\1" + bytes(255 - slots))
        both = int.from_bytes(is_value, "little") & int.from_bytes(needs, "big")
        if not both:
            return None
        u += ((both & -both).bit_length() - 1) // 8
        picks.append(u)
        rem -= u
    return picks + [rem] if count else picks


def find_certificate(q: LatticeQuery, m: int) -> RepCertificate | None:
    """Lexicographically least certificate with exactly m summands, or None.

    Exactly m is a sharper contract than m >= minimum: padding is not
    always possible, so each m is decided on its own.  The certificate is
    canonical: the multiset of form values is the lexicographically least
    nondecreasing sequence summing to r (so the norms, k times those
    values, are the least summing to r*k), each value is realized by its
    canonical witness, the admissible gamma = a + b*omega of that norm
    with the least key (|b|, |a|, a < 0, b < 0) (_witness), and the
    summands follow that sequence, already in (norm, a, b) order since
    equal values share a witness.

    The minimum comes from _point_table, as for min_terms.  m below it
    (or any m, if r is unreachable) has no certificate, and m equal to it
    takes the values the value mask gave, or walks the counts that gave
    it.  A larger m takes the shifted path, exact for any m: exactly m
    values sum to r exactly when at most m of the shifted values v - vmin
    (v > vmin, vmin the least value) sum to rem = r - m*vmin.  The shifted
    values are read off the class's value mask, which covers r: shifted
    down by vmin and cut to rem, its bit 0 the empty sum; they are layered
    up to m - 1 times and decoded into a table.  If c shifted values at
    the least reach rem (c = m when m - 1 layers do not), the least
    sequence is m - c copies of vmin and then the walk's c picks, each
    plus vmin.  Layers that reach a fixpoint before m - 1 without reaching
    rem leave no certificate at all.  Each distinct value's witness is
    solved once.
    """
    require_int("m", m, least=1)
    least, picks, counts, values = _point_table(q)
    if not least or m < least:
        return None
    f = q.field
    rep = rep_for(f, q.class_index)
    form = class_form(f, rep)
    if m == least:
        seq = picks if picks is not None else _walk(counts, q.r, m)
    else:
        nonzero = values - 1  # the values without the empty sum
        vmin = (nonzero & -nonzero).bit_length() - 1
        if m * vmin > q.r:
            return None
        rem = q.r - m * vmin
        masks = reach_layers((values >> vmin) & ((2 << rem) - 1), rem, m - 1)
        table = _decode(masks, rem)
        if rem and not table[rem] and len(masks) < m:
            return None  # a fixpoint before m - 1 layers: no count reaches rem
        c = table[rem] or (m if rem else 0)
        picks = _walk(table, rem, c)
        if picks is None:
            return None
        seq = [vmin] * (m - c) + [vmin + u for u in picks]
    witnesses = {v: _witness(form, rep.k, v) for v in set(seq)}
    return RepCertificate(query=q, m=m, gammas=tuple(witnesses[v] for v in seq))


def min_count_table(f: FieldParams, class_index: int, r_max: int) -> tuple[int | None, ...]:
    """min_terms for every r in [1, r_max] from one shared layer table;
    entry r-1 is the minimum count or None for unrepresentable."""
    return tuple(m or None for m in _count_table(f, class_index, r_max)[1 : r_max + 1])


def exceptional_set(f: FieldParams, class_index: int, r_max: int) -> list[int]:
    """All r in [1, r_max] whose lattice is a sum of norms for no m at all."""
    table = _count_table(f, class_index, r_max)
    gaps = []
    r = table.find(0, 1, r_max + 1)
    while r >= 0:
        gaps.append(r)
        r = table.find(0, r + 1, r_max + 1)
    return gaps


# g, the LatticeQuery first attaining it, and whether r <= r_max/2 attained it
GInvariantResult = namedtuple("GInvariantResult", "g witness stable")


def g_invariant(f: FieldParams, r_max: int) -> GInvariantResult:
    """Largest minimum summand count over every class and every representable
    r <= r_max; witness is the first (class, r) attaining it.  g >= 1: the
    principal class represents r = 1 by N(1) = 1.

    stable reports whether the running maximum was already attained on
    r <= r_max/2, i.e. the upper half changed nothing.  That is a
    stabilization heuristic for the finite window, not a proof.

    Requires r_max >= 2*k + 1 so padding by the always-admissible
    gamma = k (form value k, norm k^2) has room to act within the window.
    """
    check_tables([f], r_max)
    reps = class_reps(f)
    kmax = max(rep.k for rep in reps)
    if r_max < 2 * kmax + 1:
        raise ValueError(f"r_max={r_max} too small: need at least 2*k+1 = {2 * kmax + 1} for k={kmax}")
    windows = [(rep.class_index, _count_table(f, rep.class_index, r_max)[1 : r_max + 1])
               for rep in reps]
    g = _max_count([window for _, window in windows])
    class_index, window = next((ci, window) for ci, window in windows if g in window)
    half_max = _max_count([window[: r_max // 2] for _, window in windows])
    witness = LatticeQuery(field=f, class_index=class_index, r=window.index(g) + 1)
    return GInvariantResult(g=g, witness=witness, stable=half_max == g)


def _max_count(windows: list[bytes]) -> int:
    """The largest byte of the windows, each a min-count table's bytes
    from r = 1 up, found by one C-level search per count instead of a
    Python loop over every byte.

    The counts in such a window run 1, 2, ..., its largest with no gap:
    if r needs exactly j + 1 >= 2 values, dropping one of them leaves
    r' < r, in the window, a sum of j values that needs exactly j (fewer
    would let r take fewer than j + 1).  So the counts present over all
    the windows run without a gap too, and the first count absent from
    every window is one past the largest.
    """
    g = 0
    while any(g + 1 in window for window in windows):
        g += 1
    return g
