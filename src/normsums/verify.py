"""Expected-results tables and the verification driver.

The published exceptional sets and uniform bounds for every class-number
2 and 3 field are transcribed here as data: threshold (smallest
representable r), the finite exception list past the threshold, and the
uniform invariant g.  Transcription is the riskiest step in the whole
pipeline, so the tables carry a dedicated count checklist in the test
suite, re-serialize through a canonical renderer for golden comparison,
and are diffed wholesale against recomputation.

verify_field recomputes one field with the search machinery and reports
match/mismatch with named offending values, per class (the inverse pair
of a class-number-3 field reads one table); verify_all sweeps a class
number over a process pool of one worker per usable CPU, at most one per
field.  The module also hosts the independent certificate checker: it
works on the JSON serialization of a certificate and reimplements norms
and congruences from scratch so a bug in the search cannot vouch for
itself.
"""

from __future__ import annotations

import functools
import os
import time
from dataclasses import asdict, dataclass

from .classdata import class_number_fields, class_reps, reps_as_rows
from .quadfield import make_field
from .repsearch import check_tables, exceptional_set, g_invariant

# d -> (k, threshold, exceptions beyond the threshold, g), class number 2
_EXPECTED_CLASS2: dict[int, tuple[int, int, tuple[int, ...], int]] = {
    5: (2, 2, (), 3),
    6: (2, 2, (), 3),
    10: (2, 2, (3,), 4),
    13: (2, 2, (3, 5), 4),
    15: (2, 2, (), 3),
    22: (2, 2, (3, 5, 7, 9), 4),
    35: (5, 3, (4,), 4),
    37: (2, 2, (3, 5, 7, 9, 11, 13, 15, 17), 4),
    51: (5, 3, (4, 7), 4),
    58: (2, 2, (3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23, 25, 27), 4),
    91: (7, 5, (6, 8, 9, 11, 16), 4),
    115: (5, 5, (6, 8, 9, 11, 13, 16, 18), 4),
    123: (3, 3, (4, 5, 7, 8, 10, 13, 16, 19), 4),
    187: (7, 7, (8, 9, 10, 12, 13, 15, 16, 19, 20, 23, 26, 27, 30, 37), 4),
    235: (5, 5, (6, 7, 8, 9, 11, 12, 14, 16, 17, 19, 21, 22, 24, 27, 29, 32, 34, 37, 42), 4),
    267: (3, 3, (4, 5, 7, 8, 10, 11, 13, 14, 16, 17, 19, 20, 22, 25, 28, 31, 34, 37, 40, 43), 4),
    403: (11, 11, (12, 14, 15, 16, 17, 18, 19, 20, 21, 23, 25, 27, 28, 29, 30, 32, 34, 36, 38,
                   40, 41, 43, 45, 47, 49, 51, 54, 56, 58, 60, 67, 69, 71, 80, 82), 4),
    427: (7, 7, (8, 9, 10, 11, 12, 13, 15, 16, 18, 19, 20, 22, 23, 25, 26, 27, 29, 30, 32, 33,
                 36, 37, 39, 40, 43, 44, 46, 47, 50, 53, 54, 57, 60, 64, 67, 71, 74, 81, 88), 4),
}

# same layout, class number 3; both non-principal classes share the row
_EXPECTED_CLASS3: dict[int, tuple[int, int, tuple[int, ...], int]] = {
    23: (2, 2, (), 3),
    31: (2, 2, (3,), 4),
    59: (3, 3, (4,), 4),
    83: (3, 3, (4, 5, 8), 4),
    107: (3, 3, (4, 5, 7, 8, 10), 4),
    139: (5, 5, (6, 8, 9), 4),
    211: (5, 5, (6, 7, 8, 9, 12, 14, 17), 4),
    283: (7, 7, (8, 9, 10, 12, 15, 16, 17, 19), 4),
    307: (7, 7, (8, 9, 10, 12, 13, 15, 16, 20, 23, 27), 4),
    331: (5, 5, (6, 7, 8, 9, 11, 12, 13, 14, 16, 18, 21, 23, 26, 28, 33), 4),
    379: (5, 5, (6, 7, 8, 9, 11, 12, 13, 14, 16, 17, 18, 21, 22, 26, 27, 31, 32, 36), 4),
    499: (5, 5, (6, 7, 8, 9, 11, 12, 13, 14, 16, 17, 18, 19, 21, 22, 23, 24, 26, 27, 28, 32,
                 33, 37, 38, 42), 4),
    547: (11, 11, (12, 14, 15, 16, 17, 18, 20, 21, 23, 25, 27, 28, 31, 34, 36), 4),
    643: (7, 7, (8, 9, 10, 11, 12, 13, 15, 16, 17, 18, 19, 20, 22, 24, 25, 26, 27, 32, 33, 34,
                 39, 40, 41, 47, 48, 55), 4),
    883: (13, 13, (14, 15, 16, 18, 19, 20, 21, 22, 23, 24, 25, 27, 28, 32, 33, 35, 36, 37, 38,
                   40, 41, 45, 49, 50, 53, 54, 66), 4),
    907: (13, 13, (14, 15, 16, 17, 18, 20, 21, 22, 24, 25, 27, 28, 29, 30, 31, 33, 34, 35, 37,
                   40, 43, 44, 47, 48, 50, 56, 63), 5),
}


@dataclass(frozen=True)
class ExpectedRow:
    d: int
    class_number: int
    k_per_class: tuple[int, ...]
    threshold: int
    beyond_threshold: tuple[int, ...]
    expected_g: int

    @property
    def expected_exceptions(self) -> tuple[int, ...]:
        """Full exceptional set: everything below the threshold plus the
        finite list past it."""
        return tuple(range(1, self.threshold)) + self.beyond_threshold


def expected_row(d: int) -> ExpectedRow:
    """Transcribed expected results for one class-number-2 or -3 field."""
    if d in _EXPECTED_CLASS2:
        k, threshold, beyond, g = _EXPECTED_CLASS2[d]
        return ExpectedRow(d, 2, (k,), threshold, beyond, g)
    if d in _EXPECTED_CLASS3:
        k, threshold, beyond, g = _EXPECTED_CLASS3[d]
        return ExpectedRow(d, 3, (k, k), threshold, beyond, g)
    raise ValueError(f"no expected-results row for d={d} (need class number 2 or 3)")


def describe_expected(d: int) -> str:
    """Canonical one-line rendering of an expected row, golden-tested:
    'r/5 for r >= 3 and r != 4, 7; g = 4'."""
    row = expected_row(d)
    k = row.k_per_class[0]
    text = f"r/{k} for r >= {row.threshold}"
    if row.beyond_threshold:
        text += " and r != " + ", ".join(str(r) for r in row.beyond_threshold)
    return f"{text}; g = {row.expected_g}"


@dataclass(frozen=True)
class ClassCheck:
    class_index: int
    k: int
    computed_exceptions: tuple[int, ...]
    expected_exceptions: tuple[int, ...]
    match: bool


@dataclass(frozen=True)
class FieldReport:
    d: int
    class_number: int
    status: str  # "match" | "mismatch"
    details: tuple[str, ...]
    g_expected: int
    g_computed: int
    witness_class_index: int
    witness_r: int
    stable: bool
    exceptions_match: bool
    runtime_seconds: float
    classes: tuple[ClassCheck, ...]


@dataclass(frozen=True)
class DiffReport:
    class_number: int
    r_max: int
    fields: tuple[FieldReport, ...]
    runtime_seconds: float

    @property
    def matches(self) -> int:
        return sum(1 for fr in self.fields if fr.status == "match")

    @property
    def total(self) -> int:
        return len(self.fields)

    @property
    def all_match(self) -> bool:
        return self.matches == self.total

    @property
    def all_stable(self) -> bool:
        return all(fr.stable for fr in self.fields)


def verify_field(d: int, r_max: int = 300) -> FieldReport:
    """Recompute one field's exceptional sets and uniform invariant and diff
    them against the transcribed row.

    Mismatches are report content, not errors; but an r_max window too
    small to contain the expected exceptions plus padding headroom is a
    caller error and raises ValueError.  For class-number-3 fields both
    non-principal classes get a ClassCheck; they read one shared table,
    since the inverse classes' forms take the same values.
    """
    row = expected_row(d)
    f = make_field(d)
    k = row.k_per_class[0]
    max_exc = max(row.expected_exceptions) if row.expected_exceptions else 0
    if r_max < max_exc:
        raise ValueError(f"r_max={r_max} too small: exception {max_exc} > {r_max}")
    if r_max < max_exc + 2 * k:
        raise ValueError(
            f"r_max={r_max} leaves no padding headroom past exception {max_exc} (need >= {max_exc + 2 * k})"
        )
    check_tables([f], r_max)

    t0 = time.perf_counter()
    details: list[str] = []
    checks: list[ClassCheck] = []
    expected = row.expected_exceptions
    for rep in class_reps(f)[1:]:
        computed = tuple(exceptional_set(f, rep.class_index, r_max))
        ok = computed == expected
        if not ok:
            extra = sorted(set(computed) - set(expected))
            missing = sorted(set(expected) - set(computed))
            if extra:
                details.append(f"d={d} class {rep.class_index}: computed exceptional r {extra} not expected")
            if missing:
                details.append(f"d={d} class {rep.class_index}: expected exceptional r {missing} not computed")
        if rep.k != k:
            details.append(f"d={d} class {rep.class_index}: table k={rep.k} != expected k={k}")
        checks.append(ClassCheck(rep.class_index, rep.k, computed, expected, ok))

    ginv = g_invariant(f, r_max)
    if ginv.g != row.expected_g:
        details.append(f"d={d}: g computed {ginv.g} != expected {row.expected_g}")

    exceptions_match = all(c.match for c in checks)
    status = "match" if not details else "mismatch"
    return FieldReport(
        d=d,
        class_number=f.class_number,
        status=status,
        details=tuple(details),
        g_expected=row.expected_g,
        g_computed=ginv.g,
        witness_class_index=ginv.witness.class_index,
        witness_r=ginv.witness.r,
        stable=ginv.stable,
        exceptions_match=exceptions_match,
        runtime_seconds=time.perf_counter() - t0,
        classes=tuple(checks),
    )


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS reports
    one, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def verify_all(class_number: int, r_max: int = 300) -> DiffReport:
    """verify_field over every field of the class number.

    The fields fan out over a process pool of one worker per usable CPU,
    at most one per field, and run in this process when that is one
    worker.  Results stay in d order either way.
    """
    fields = class_number_fields(class_number)
    check_tables([make_field(d) for d in fields], r_max)
    t0 = time.perf_counter()
    workers = min(_usable_cpus(), len(fields))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(verify_field, fields, [r_max] * len(fields)))
    else:
        reports = [verify_field(d, r_max) for d in fields]
    return DiffReport(
        class_number=class_number,
        r_max=r_max,
        fields=tuple(reports),
        runtime_seconds=time.perf_counter() - t0,
    )


def report_to_json(report: DiffReport) -> dict:
    doc = asdict(report)
    doc["matches"] = report.matches
    doc["total"] = report.total
    doc["all_match"] = report.all_match
    doc["all_stable"] = report.all_stable
    return doc


def report_table(report: DiffReport) -> str:
    """Human-readable summary, one row per field."""
    header = f"{'d':>5}  {'class':>5}  {'g_expected':>10}  {'g_computed':>10}  {'exceptions_match':>16}  {'stable':>6}"
    lines = [header, "-" * len(header)]
    for fr in report.fields:
        lines.append(
            f"{fr.d:>5}  {fr.class_number:>5}  {fr.g_expected:>10}  {fr.g_computed:>10}  "
            f"{str(fr.exceptions_match).lower():>16}  {str(fr.stable).lower():>6}"
        )
    lines.append(f"{report.matches}/{report.total} match, all_stable={str(report.all_stable).lower()}")
    for fr in report.fields:
        for detail in fr.details:
            lines.append(f"  ! {detail}")
    return "\n".join(lines)


@functools.cache
def _rep_rows() -> dict[tuple[int, int], tuple[int, int, int]]:
    """(d, class_index) -> (k, s, t) of every representative data row."""
    return {(row["d"], row["class_index"]): (row["k"], row["s"], row["t"]) for row in reps_as_rows()}


def recheck_certificate(doc: dict) -> list[str]:
    """Independent validation of a serialized certificate.

    Reimplements norms and congruence checks directly from the class
    representative data rows, sharing no code with the search: norms on
    the half-integer branch come from the integer identity
    4N = (2a+b)^2 + d*b^2, and the congruences are evaluated in raw
    two-constraint form.  Returns a list of problems, empty when valid, or
    one "malformed" problem for a document of the wrong shape (a bool is
    not an int there).
    """
    problems: list[str] = []
    keys = ("d", "class_index", "k", "r", "m", "check")
    try:
        d, class_index, k, r, m, check = (doc[key] for key in keys)
        gammas = doc["gammas"]
    except (KeyError, TypeError) as exc:
        return [f"malformed certificate document: {exc!r}"]
    bad = [f"{key}={doc[key]!r} is not an int" for key in keys if type(doc[key]) is not int]
    if not isinstance(gammas, list):
        bad.append(f"gammas={gammas!r} is not a list")
    else:
        bad += [f"gammas entry {g!r} is not a pair of ints" for g in gammas
                if not (isinstance(g, (list, tuple)) and len(g) == 2 and all(type(x) is int for x in g))][:1]
    if bad:
        return ["malformed certificate document: " + "; ".join(bad)]

    row = _rep_rows().get((d, class_index))
    if row is None:
        return [f"no class representative for d={d} class {class_index}"]
    kk, s, t = row
    if kk != k:
        problems.append(f"certificate k={k} but table has k={kk}")

    if m != len(gammas):
        problems.append(f"m={m} but {len(gammas)} summands")

    half_branch = d % 4 == 3
    total = 0
    for a, b in gammas:
        if a == 0 and b == 0:
            problems.append("zero summand")
            continue
        if half_branch:
            four_n = (2 * a + b) ** 2 + d * b * b
            if four_n % 4 != 0:
                problems.append(f"({a},{b}): (2a+b)^2 + d*b^2 = {four_n} not divisible by 4")
                continue
            n = four_n // 4
            c = (1 + d) // 4
            ok = (s * a - c * t * b) % kk == 0 and (t * a + (s + t) * b) % kk == 0
        else:
            n = a * a + d * b * b
            ok = (s * a - d * t * b) % kk == 0 and (t * a + s * b) % kk == 0
        if not ok:
            problems.append(f"({a},{b}) fails the class congruence")
        total += n

    if total != r * kk:
        problems.append(f"norms sum to {total}, need r*k = {r * kk}")
    if check != total:
        problems.append(f"stored check {check} != recomputed sum {total}")
    return problems
