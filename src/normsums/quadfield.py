"""Arithmetic of the ring of integers O = Z + Z*omega of Q(sqrt(-d)).

The basis element omega depends on d mod 4:

    omega = sqrt(-d)          if d = 1, 2 (mod 4)
    omega = (1+sqrt(-d))/2    if d = 3 (mod 4)

Elements are stored as coordinate pairs (a, b) meaning a + b*omega.  The
norm is then an integer quadratic form in (a, b), the one that
FieldParams.form_coefficients returns:

    a^2 + d*b^2                     on the sqrt(-d) branch
    a^2 + a*b + ((1+d)/4)*b^2       on the half-integer branch

Only fields with class number 1, 2 or 3 are supported; the membership
lists are compiled-in constants.  Norms are computed exactly in Python
integers but the library promises results fit in signed 64 bits, so any
larger value raises Overflow instead of being returned.
"""

import enum
import math
from typing import NamedTuple

INT64_MAX = 2**63 - 1


class NotSquarefree(ValueError):
    """d is divisible by a square larger than 1."""


class UnsupportedField(ValueError):
    """d is squarefree but Q(sqrt(-d)) has class number outside {1, 2, 3}."""


class Overflow(OverflowError):
    """A computed value left the signed 64-bit contract."""


class OmegaBranch(enum.Enum):
    SQRT_MINUS_D = "SqrtMinusD"
    HALF_ONE_PLUS_SQRT_MINUS_D = "HalfOnePlusSqrtMinusD"


# Squarefree d with h(Q(sqrt(-d))) = 1, 2, 3.  These lists are data, not
# something we compute: class numbers for other d are out of scope.
CLASS_NUMBER_1_FIELDS = (1, 2, 3, 7, 11, 19, 43, 67, 163)
CLASS_NUMBER_2_FIELDS = (5, 6, 10, 13, 15, 22, 35, 37, 51, 58, 91, 115, 123, 187, 235, 267, 403, 427)
CLASS_NUMBER_3_FIELDS = (23, 31, 59, 83, 107, 139, 211, 283, 307, 331, 379, 499, 547, 643, 883, 907)

SUPPORTED_FIELDS = tuple(sorted(CLASS_NUMBER_1_FIELDS + CLASS_NUMBER_2_FIELDS + CLASS_NUMBER_3_FIELDS))

# Largest d that make_field trial-divides to tell NotSquarefree from
# UnsupportedField; the division runs to sqrt(d), about 0.1 s at 10^12.
MAX_CHECKED_D = 10**12


class FieldParams(NamedTuple):
    d: int
    omega_branch: OmegaBranch
    class_number: int

    @property
    def is_half_branch(self) -> bool:
        return self.omega_branch is OmegaBranch.HALF_ONE_PLUS_SQRT_MINUS_D

    def form_coefficients(self) -> tuple[int, int, int]:
        """Coefficients (1, q, c) with norm(a, b) = a^2 + q*a*b + c*b^2.
        The one place the omega branch is decided: q is the trace of omega
        and c its norm."""
        if self.is_half_branch:
            return (1, 1, (1 + self.d) // 4)
        return (1, 0, self.d)


class RingElement(NamedTuple):
    a: int
    b: int


def _is_squarefree(n: int) -> bool:
    if n % 4 == 0:
        return False
    p = 3
    while p * p <= n:
        if n % (p * p) == 0:
            return False
        while n % p == 0:
            n //= p
        p += 2
    return True


def require_int(name: str, value: object, least: int | None = None) -> None:
    """Raise TypeError unless value is an int; a bool is not one here.
    With least 1 or 0, raise ValueError when value is below it: "must be
    positive" or "must be nonnegative"."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be {'positive' if least else 'nonnegative'}, got {value}")


def make_field(d: int) -> FieldParams:
    """Build FieldParams for Q(sqrt(-d)), validating d.

    Raises NotSquarefree for square-divisible d and UnsupportedField for
    squarefree d outside the class-number-1/2/3 lists.  A d above
    MAX_CHECKED_D, far past every supported field, raises ValueError
    without the trial division.
    """
    require_int("d", d, least=1)
    if d in CLASS_NUMBER_1_FIELDS:
        h = 1
    elif d in CLASS_NUMBER_2_FIELDS:
        h = 2
    elif d in CLASS_NUMBER_3_FIELDS:
        h = 3
    elif d > MAX_CHECKED_D:
        raise ValueError(f"d={d} exceeds {MAX_CHECKED_D}; every supported field has d <= {SUPPORTED_FIELDS[-1]}")
    else:
        if not _is_squarefree(d):
            raise NotSquarefree(f"d={d} is divisible by a square > 1")
        raise UnsupportedField(f"Q(sqrt(-{d})) has class number outside {{1, 2, 3}}")
    branch = OmegaBranch.HALF_ONE_PLUS_SQRT_MINUS_D if d % 4 == 3 else OmegaBranch.SQRT_MINUS_D
    return FieldParams(d=d, omega_branch=branch, class_number=h)


def norm(f: FieldParams, e: RingElement) -> int:
    """N(a + b*omega) as a nonnegative integer; Overflow past 2^63 - 1."""
    a, b = e.a, e.b
    _, q, c = f.form_coefficients()
    n = a * a + q * a * b + c * b * b
    if n > INT64_MAX:
        raise Overflow(f"norm {n} exceeds the 64-bit contract")
    return n


def conjugate(f: FieldParams, e: RingElement) -> RingElement:
    """Coordinates of the complex conjugate in the basis {1, omega}.

    omega + conj(omega) is the trace q of the norm form (1, q, c), so
    conj(a + b*omega) = (a + q*b) - b*omega.  An involution, and it
    preserves the norm.
    """
    _, q, _ = f.form_coefficients()
    return RingElement(e.a + q * e.b, -e.b)


def isqrt_floor(n: int) -> int:
    """floor(sqrt(n)) for n >= 0, 0 for negative n (loop-bound helper)."""
    if n < 0:
        return 0
    return math.isqrt(n)
