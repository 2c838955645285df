"""Representability searches: minimum summand counts, certificates,
exceptional sets, and the uniform invariant g.

Everything runs on integers.  A lattice with h(v^r) = r/k is a sum of m
scaled norms N(gamma/k) exactly when r*k is a sum of m congruence-
admissible norm values N(gamma).  Each admissible norm is k times a value
of the class's binary form A*x^2 + B*x*y + C*y^2 (classdata.class_form),
so the search asks instead whether r is a sum of m form values, in
r-space, with no congruence test in the loop.

Minimum counts come from a layered reachability table: layer j is the
bitmask of all r reachable as a sum of at most j form values.  The
layers grow monotonically and the first repeated layer is a fixpoint, at
which point every bit still unset is unreachable by any number of
summands; that makes Unrepresentable an exact verdict, not a timeout.
A pass shifts the layer by every value until fewer bits are unset than
there are values; layer 2, the values of a quaternary form, usually gets
there.  Each later pass tests only the unset r, one AND each against the
reversed first layer, so it never costs more than a full pass and the
work bound below still holds.
Each layer's new bits are decoded once into a per-r min-count table, one
byte per r.  One table is kept per (field, class), the inverse classes 2
and 3 of a class-number-3 field sharing one, rebuilt only when a larger
r_max is asked for; smaller windows read a prefix of it.

Certificates walk back through the same layers.  Exactly m form values
sum to r exactly when at most m of the shifted values v - vmin (v > vmin,
vmin the least value) sum to r - m*vmin; the layers of the shifted values
are decoded into a table, and each slot in turn takes the least shifted
value whose remainder the slots left can still reach.  Congruences stay at
the edges: only the summands a certificate picks get (a, b) coordinates,
solved from the form's (x, y) by a = k*x - beta*y, b = y.

Work is known before it starts: check_work bounds the word-shifts of a
layer build from the form and the width alone, check_tables sums that
bound over every table a command will build, and an input over budget
raises Overflow before anything is enumerated.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from .classdata import IdealClassRep, class_form, class_reps, rep_for
from .quadfield import (
    FieldParams,
    Overflow,
    RingElement,
    conjugate,
    isqrt_floor,
    norm,
)

# Upper bound on the passes of reach_layers over the values of any class
# form, or over their shifted values, up to a fixpoint (measured at most
# 10, for d=403 class 2, at widths 100 to 60000), and the most
# word-shifts check_work admits: about 36 s at 3.6 ns per word-shift on
# an Intel Xeon core.
_PASS_BOUND = 10
_WORK_BUDGET = 10**10

# (d, class_index) -> min-count table: byte r is the least number of form
# values summing to r, 0 when no number does; class 3 reads (d, 2)
_TABLES: dict[tuple[int, int], bytes] = {}


@dataclass(frozen=True)
class LatticeQuery:
    field: FieldParams
    class_index: int
    r: int

    def __post_init__(self):
        if not 1 <= self.class_index <= self.field.class_number:
            raise ValueError(
                f"class_index {self.class_index} out of range for d={self.field.d} "
                f"(class number {self.field.class_number})"
            )
        if self.r < 1:
            raise ValueError(f"r must be positive, got {self.r}")

    @property
    def k(self) -> int:
        return rep_for(self.field, self.class_index).k

    @property
    def target(self) -> int:
        return self.r * self.k


@dataclass(frozen=True)
class NormValueSet:
    k: int
    bound: int
    values: tuple[int, ...]
    witnesses: tuple[RingElement, ...]

    def witness_for(self, value: int) -> RingElement:
        i = bisect_left(self.values, value)
        if i == len(self.values) or self.values[i] != value:
            raise ValueError(f"{value} is not an admissible norm value up to {self.bound}")
        return self.witnesses[i]


@dataclass(frozen=True)
class RepCertificate:
    query: LatticeQuery
    m: int
    gammas: tuple[RingElement, ...]

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


@dataclass(frozen=True)
class MinTermsResult:
    outcome: str  # "representable" | "unrepresentable"
    m: int | None = None

    @property
    def is_representable(self) -> bool:
        return self.outcome == "representable"

    @staticmethod
    def representable(m: int) -> "MinTermsResult":
        return MinTermsResult("representable", m)

    @staticmethod
    def unrepresentable() -> "MinTermsResult":
        return MinTermsResult("unrepresentable")


def _form_rows(a: int, b: int, c: int, bound: int):
    """Rows (y, x_lo, x_hi) covering the points of the half plane y > 0 or
    (y = 0, x > 0) where the positive definite form a*x^2 + b*x*y + c*y^2
    is at most bound.  Every value there is positive, and the other half
    plane repeats them.  The ranges come from 4a*Q = (2a*x + b*y)^2 + D*y^2
    with D = 4ac - b^2."""
    disc = 4 * a * c - b * b
    two_a = 2 * a
    for y in range(isqrt_floor(4 * a * bound // disc) + 1):
        u = isqrt_floor(4 * a * bound - disc * y * y)
        yield y, (1 if y == 0 else -((u + b * y) // two_a)), (u - b * y) // two_a


def form_values(a: int, b: int, c: int, bound: int) -> list[int]:
    """Distinct values in [1, bound] of the form a*x^2 + b*x*y + c*y^2,
    ascending."""
    vals: set[int] = set()
    for y, lo, hi in _form_rows(a, b, c, bound):
        by, cyy = b * y, c * y * y
        vals.update([(a * x + by) * x + cyy for x in range(lo, hi + 1)])
    return sorted(vals)


def _work_estimate(a: int, b: int, c: int, width: int) -> int:
    """Word-shifts of layering the values of the form up to width, bounded
    before any value is enumerated.

    The estimate is points x words x passes: the form's half-plane points
    up to width bound its distinct values, each pass shifts every value's
    copy of a (width + 1)-bit mask, and no build takes more than
    _PASS_BOUND passes.  Row y of _form_rows holds at most u_y/a + 1
    points, with u_y = sqrt(4a*width - D*y^2) falling in y, so the rows
    hold at most the half ellipse's area pi*width/sqrt(D), plus row 0 once
    more, plus one point per row.  Integer arithmetic (pi < 355/113) keeps
    the bound exact for any width.  A pass of reach_layers that tests
    unset bits one at a time stays within it too: it does fewer ANDs, each
    on at most width + 1 bits, than the values a full pass would shift.
    """
    disc = 4 * a * c - b * b
    area = 355 * (isqrt_floor(width * width // disc) + 1) // 113 + 1
    points = area + isqrt_floor(4 * a * width) // a + 1 + isqrt_floor(4 * a * width // disc) + 1
    return points * (width // 64 + 1) * _PASS_BOUND


def _check_budget(estimate: int, what: str) -> None:
    if estimate > _WORK_BUDGET:
        raise Overflow(f"{what} would take an estimated {estimate} word-shifts, over the budget of {_WORK_BUDGET}")


def check_work(a: int, b: int, c: int, width: int) -> None:
    """Raise Overflow unless layering the values of the form up to width
    fits the work budget, judged before any value is enumerated."""
    _check_budget(_work_estimate(a, b, c, width), f"width {width}")


def check_tables(fields: list[FieldParams], r_max: int) -> None:
    """Raise Overflow unless the tables of every class of the fields, each
    up to r_max, fit the work budget together.  A command that builds
    several tables checks their sum once, before its first build."""
    forms = [class_form(f, rep)[:3] for f in fields for rep in class_reps(f)]
    _check_budget(sum(_work_estimate(*form, r_max) for form in forms), f"{len(forms)} tables of width {r_max}")


def _witness(form: tuple[int, int, int, int], k: int, v: int) -> RingElement:
    """The canonical gamma of norm k*v, for a value v of the class form
    (A, B, C, beta).  A point of value v solves (2A*x + B*y)^2 =
    4A*v - D*y^2 with D = 4AC - B^2, so it sits at an end of its row of
    the half plane up to v.  The first row holding one gives the least |b|; of its points the
    one with the least |a|, a = k*x - beta*y, wins (a >= 0 on a tie), and
    the pair's sign is flipped so that a >= 0."""
    fa, fb, fc, beta = form
    for y, lo, hi in _form_rows(fa, fb, fc, v):
        xs = [x for x in (lo, hi) if (fa * x + fb * y) * x + fc * y * y == v]
        if xs:
            a = min((k * x - beta * y for x in xs), key=lambda a: (abs(a), a < 0))
            return RingElement(a, y) if a >= 0 else RingElement(-a, -y)
    raise ValueError(f"{v} is not a value of the form {form[:3]}")


def enumerate_norm_values(f: FieldParams, rep: IdealClassRep, bound: int) -> NormValueSet:
    """All positive admissible norm values up to bound, with one canonical
    coordinate witness each.

    The values are k times the class form's values.  A value's witness is
    the admissible gamma = a + b*omega of that norm with the least key
    (|b|, |a|, a < 0, b < 0): small |b|, then small |a|, then nonnegative
    a, then nonnegative b.
    """
    if bound < 1:
        raise ValueError(f"bound must be positive, got {bound}")
    form = class_form(f, rep)
    check_work(*form[:3], bound // rep.k)
    values = form_values(*form[:3], bound // rep.k)
    witnesses = tuple(_witness(form, rep.k, v) for v in values)
    return NormValueSet(k=rep.k, bound=bound, values=tuple(rep.k * v for v in values), witnesses=witnesses)


def reach_layers(values: list[int], width: int, cap: int | None = None) -> list[int]:
    """Cumulative reachability bitmasks over [0, width]: masks[j] has bit n
    set iff n is a sum of at most j of the values.  Stops after cap layers,
    or at the first repeated layer, which is left as the last entry: a
    fixpoint, so a bit unset there is unreachable outright.

    The first pass, and each pass until fewer bits of [1, width] are
    unset than there are values, ORs in the mask shifted by every value.
    From then on a pass tests each unset r alone: r joins the layer
    exactly when the mask meets rev >> (width - r), where rev holds bit
    width - v for every value v up to width (layer 1 reversed, built
    once).  Such a pass does fewer ANDs than the shifts a full pass would
    do, so no pass costs more than a full one.
    """
    window = (1 << (width + 1)) - 1
    masks = [1]
    rev = 0
    while cap is None or len(masks) <= cap:
        cur = masks[-1]
        nxt = cur
        if len(masks) > 1 and width + 1 - cur.bit_count() < len(values):
            if not rev:
                rev = int(format(masks[1], "b").zfill(width + 1)[::-1], 2)
            # character r of the reversed string is bit r
            unset = format(~cur & window, "b")[::-1]
            r = unset.find("1")
            while r >= 0:
                if cur & (rev >> (width - r)):
                    nxt |= 1 << r
                r = unset.find("1", r + 1)
        else:
            for v in values:
                nxt |= (cur << v) & window
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


def _count_table(f: FieldParams, class_index: int, r_max: int) -> bytes:
    """The class's min-count table, covering at least [0, r_max].  Class 3
    of a class-number-3 field reads class 2's table, kept under (d, 2)."""
    if r_max < 1:
        raise ValueError(f"r_max must be positive, got {r_max}")
    rep_for(f, class_index)  # a class the field lacks raises before any cache read
    # class 3 is the inverse of class 2, so their forms take the same values
    key = (f.d, 2 if class_index == 3 else class_index)
    table = _TABLES.get(key)
    if table is None or len(table) <= r_max:
        # a hit reads a prefix of a table whose build was already admitted
        fa, fb, fc, _ = class_form(f, rep_for(f, key[1]))
        check_work(fa, fb, fc, r_max)
        table = _decode(reach_layers(form_values(fa, fb, fc, r_max), r_max), r_max)
        _TABLES[key] = table
    return table


def min_terms(q: LatticeQuery) -> MinTermsResult:
    """Exact minimum number of admissible norms summing to r*k, or the
    exact verdict that no number of norms works."""
    m = _count_table(q.field, q.class_index, q.r)[q.r]
    if not m:
        return MinTermsResult.unrepresentable()
    return MinTermsResult.representable(m)


def find_certificate(q: LatticeQuery, m: int) -> RepCertificate | None:
    """Lexicographically least certificate with exactly m summands, or None.

    Exactly m is a sharper contract than m >= minimum: padding is not
    always possible, so each m is decided on its own.  The certificate is
    canonical: the multiset of form values is the lexicographically least
    nondecreasing sequence summing to r (so the norms, k times those
    values, are the least summing to r*k), each value is realized by its
    enumerate_norm_values witness, and the summands are sorted by
    (norm, a, b).

    Each slot takes the least shifted value u (0 for vmin itself) whose
    remainder the slots after it can reach; a smaller value at a later
    slot could have served this one, so the picks never decrease.
    """
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    f = q.field
    rep = rep_for(f, q.class_index)
    form = class_form(f, rep)
    check_work(*form[:3], q.r)
    values = form_values(*form[:3], q.r)
    if not values or m * values[0] > q.r:
        return None
    vmin = values[0]
    rem = q.r - m * vmin
    steps = [0] + [v - vmin for v in values[1:] if v - vmin <= rem]
    # byte n: least count of shifted values summing to n, up to m - 1; the
    # first slot tests rem itself against the m - 1 slots after it.  No
    # index goes negative: every step starts <= rem, and once the first
    # slot has a pick each later slot has one no larger than its rem.
    table = _decode(reach_layers(steps[1:], rem, m - 1), rem)
    seq: list[int] = []
    i, n = 0, len(steps)
    for slots in range(m - 1, -1, -1):
        while i < n and not (steps[i] == rem or 0 < table[rem - steps[i]] <= slots):
            i += 1
        if i == n:
            return None
        seq.append(vmin + steps[i])
        rem -= steps[i]
    gammas = sorted(
        (_witness(form, rep.k, v) for v in seq),
        key=lambda g: (norm(f, g), g.a, g.b),
    )
    return RepCertificate(query=q, m=m, gammas=tuple(gammas))


def min_count_table(f: FieldParams, class_index: int, r_max: int) -> tuple[int | None, ...]:
    """min_terms for every r in [1, r_max] from one shared layer table;
    entry r-1 is the minimum count or None for unrepresentable."""
    return tuple(m or None for m in _count_table(f, class_index, r_max)[1 : r_max + 1])


def exceptional_set(f: FieldParams, class_index: int, r_max: int) -> list[int]:
    """All r in [1, r_max] whose lattice is a sum of norms for no m at all."""
    table = _count_table(f, class_index, r_max)
    return [r for r in range(1, r_max + 1) if not table[r]]


@dataclass(frozen=True)
class GInvariantResult:
    g: int
    witness: LatticeQuery
    stable: bool


def g_invariant(f: FieldParams, r_max: int) -> GInvariantResult:
    """Largest minimum summand count over every class and every representable
    r <= r_max; witness is the first (class, r) attaining it.

    stable reports whether the running maximum was already attained on
    r <= r_max/2, i.e. the upper half changed nothing.  That is a
    stabilization heuristic for the finite window, not a proof.

    Requires r_max >= 2*k + 1 so padding by the always-admissible
    gamma = k (form value k, norm k^2) has room to act within the window.
    """
    reps = class_reps(f)
    kmax = max(rep.k for rep in reps)
    if r_max < 2 * kmax + 1:
        raise ValueError(f"r_max={r_max} too small: need at least 2*k+1 = {2 * kmax + 1} for k={kmax}")
    check_tables([f], r_max)
    windows = [(rep.class_index, _count_table(f, rep.class_index, r_max)[1 : r_max + 1])
               for rep in reps]
    g = max(max(window) for _, window in windows)
    if not g:
        raise RuntimeError(f"no representable r <= {r_max} for d={f.d}; window too small")
    class_index, window = next((ci, window) for ci, window in windows if g in window)
    half_max = max(max(window[: r_max // 2]) for _, window in windows)
    witness = LatticeQuery(field=f, class_index=class_index, r=window.index(g) + 1)
    return GInvariantResult(g=g, witness=witness, stable=half_max == g)


def transfer_certificate(cert: RepCertificate) -> RepCertificate:
    """Map a certificate between the two paired non-principal classes of a
    class-number-3 field by conjugating every summand: (a, b) -> (a+b, -b).

    Norms are preserved, so the image certifies the same r in the other
    class; summands are re-sorted to keep the canonical order.
    """
    q = cert.query
    f = q.field
    if f.class_number != 3 or q.class_index not in (2, 3):
        raise ValueError("certificate transfer only applies to the paired classes of a class-number-3 field")
    other = 5 - q.class_index
    new_q = LatticeQuery(field=f, class_index=other, r=q.r)
    gammas = sorted(
        (conjugate(f, g) for g in cert.gammas),
        key=lambda g: (norm(f, g), g.a, g.b),
    )
    return RepCertificate(query=new_q, m=cert.m, gammas=tuple(gammas))
