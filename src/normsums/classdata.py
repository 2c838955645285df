"""Ideal class representatives and their congruence predicates.

Every supported field with class number 2 or 3 carries one ideal class
representative per non-principal class, written U = (k, s + t*omega)
with U*conj(U) = k*O and h(v) = 1/k.  The (k, s, t) values are stored
as data constants: computing them would drag in ideal arithmetic that
the rest of the library never needs, and the representative tables are
the ground truth everything else is checked against.

A summand gamma = a + b*omega is admissible for a class exactly when
k | a + beta*b, with beta = s + q*t mod k read off the representative
and the field's norm form (1, q, c) (see congruence_for for why one
constraint is exact).  That makes the admissible set the lattice
(a, b) = (k*x - beta*y, y), on which N(gamma)/k is the binary quadratic
form A*x^2 + B*x*y + C*y^2 of class_form, with the field's
discriminant: the ideal class <-> form class correspondence.  The
search runs on that form; the congruence is only needed at the edges
(display, (a, b) coordinates of certificates, recheck).
"""

from collections import namedtuple
from functools import cache

from .quadfield import (
    CLASS_NUMBER_2_FIELDS,
    CLASS_NUMBER_3_FIELDS,
    SUPPORTED_FIELDS,
    FieldParams,
    make_field,
    require_int,
)

# Non-principal representative (k, s) with t = 1 for each class-number-2 field.
_CLASS2_REPS: dict[int, tuple[int, int]] = {
    5: (2, 1),
    6: (2, 0),
    10: (2, 0),
    13: (2, 1),
    15: (2, 1),
    22: (2, 0),
    35: (5, 2),
    37: (2, 1),
    51: (5, 1),
    58: (2, 0),
    91: (7, 3),
    115: (5, -3),
    123: (3, 1),
    187: (7, -2),
    235: (5, 2),
    267: (3, 1),
    403: (11, 6),
    427: (7, 3),
}

# (k, s2, s3) with t = 1 for both non-principal classes of each
# class-number-3 field.  The pair always satisfies s2 + s3 = -1.
_CLASS3_REPS: dict[int, tuple[int, int, int]] = {
    23: (2, 0, -1),
    31: (2, 0, -1),
    59: (3, 0, -1),
    83: (3, 0, -1),
    107: (3, 0, -1),
    139: (5, 0, -1),
    211: (5, 1, -2),
    283: (7, 2, -3),
    307: (7, 0, -1),
    331: (5, 1, -2),
    379: (5, 0, -1),
    499: (5, 0, -1),
    547: (11, 2, -3),
    643: (7, 0, -1),
    883: (13, 0, -1),
    907: (13, 4, -5),
}


# the representative U = (k, s + t*omega) of class class_index
IdealClassRep = namedtuple("IdealClassRep", "class_index k s t")


class CongruenceCondition(namedtuple("CongruenceCondition", "k beta")):
    """The constraint k | (a + beta*b), with 0 <= beta < k."""

    __slots__ = ()


@cache
def class_reps(f: FieldParams) -> tuple[IdealClassRep, ...]:
    """All ideal class representatives of f, class_index ascending.

    class_index 1 is the principal class, by convention (k, s, t) = (1, 0, 0).
    Built once per field: the tuple is shared by every caller.
    """
    reps = [IdealClassRep(class_index=1, k=1, s=0, t=0)]
    if f.class_number == 2:
        k, s = _CLASS2_REPS[f.d]
        reps.append(IdealClassRep(class_index=2, k=k, s=s, t=1))
    elif f.class_number == 3:
        k, s2, s3 = _CLASS3_REPS[f.d]
        reps.append(IdealClassRep(class_index=2, k=k, s=s2, t=1))
        reps.append(IdealClassRep(class_index=3, k=k, s=s3, t=1))
    return tuple(reps)


def rep_for(f: FieldParams, class_index: int) -> IdealClassRep:
    require_int("class_index", class_index)
    reps = class_reps(f)
    if not 1 <= class_index <= len(reps):
        raise ValueError(f"class_index {class_index} out of range for d={f.d} (class number {f.class_number})")
    return reps[class_index - 1]


def congruence_for(f: FieldParams, rep: IdealClassRep) -> CongruenceCondition:
    """The divisibility condition an admissible summand gamma = a + b*omega
    satisfies for this class: k | a + beta*b.

    gamma is admissible when gamma*(s + t*omega) lies in k*O, that is when
    gamma lies in conj(U), whose norms are those of U.  With t = 1
    (every non-principal representative) and the norm form
    a^2 + q*a*b + c*b^2 of the field, that is the pair

        k | (s*a - c*b)    and    k | (a + (s + q)*b),

    and the first is s times the second minus N(s + omega)*b.  class_form
    checks k | N(omega - beta), and N(omega - beta) = N(s + omega) (mod k)
    for beta = s + q mod k, so the second constraint alone decides.  For
    the principal class k = 1 and the condition holds vacuously.
    """
    return CongruenceCondition(rep.k, class_form(f, rep)[3])


@cache
def class_form(f: FieldParams, rep: IdealClassRep) -> tuple[int, int, int, int]:
    """The class's admissible norms divided by k, as a binary form.

    With beta = s + q*t mod k, every admissible gamma is
    (a, b) = (k*x - beta*y, y) for integers x, y, and
    N(gamma)/k = A*x^2 + B*x*y + C*y^2.  Returns (A, B, C, beta); the
    principal class gives the norm form itself, (1, q, c, 0).  Raises
    ValueError when k does not divide N(-beta + omega), the one runtime
    guard against a mistyped representative.
    """
    _, q, c = f.form_coefficients()
    k = rep.k
    beta = (rep.s + q * rep.t) % k
    big_c, rem = divmod(beta * beta - q * beta + c, k)
    if rem:
        raise ValueError(f"d={f.d} class {rep.class_index}: k={k} does not divide N({-beta}+omega)")
    return (k, q - 2 * beta, big_c, beta)


def condition_display(c: CongruenceCondition) -> str:
    """Human-readable form: 'always', '2|a', '2|(a+b)' or '5|(a+3b)'."""
    if c.k == 1:
        return "always"
    if c.beta == 0:
        return f"{c.k}|a"
    return f"{c.k}|(a+{'' if c.beta == 1 else c.beta}b)"


def reps_as_rows() -> list[dict]:
    """Every representative as a flat row dict (column order d, then
    IdealClassRep's fields class_index, k, s, t), for JSON and CSV export."""
    return [{"d": d, **rep._asdict()} for d in SUPPORTED_FIELDS for rep in class_reps(make_field(d))]


def class_number_fields(class_number: int) -> tuple[int, ...]:
    if class_number == 2:
        return CLASS_NUMBER_2_FIELDS
    if class_number == 3:
        return CLASS_NUMBER_3_FIELDS
    raise ValueError(f"class_number must be 2 or 3, got {class_number}")
