"""Expected-results tables and the verification driver.

The published exceptional sets and uniform bounds for every class-number
2 and 3 field are transcribed here as data: threshold (smallest
representable r), the finite exception list past the threshold, and the
uniform invariant g.  Transcription is the riskiest step in the whole
pipeline, so the tables carry a dedicated count checklist and a partial
second transcription in the test suite, and are diffed wholesale against
recomputation.

verify_field recomputes one field with the search machinery and reports
match/mismatch with named offending values, per class (the inverse pair
of a class-number-3 field reads one table); verify_all sweeps a class
number in n shares, one per usable CPU and at most one per field.  Share
i holds the fields i, i + n, i + 2n, ...; this process verifies share 0
itself and the first n - 1 workers of a pool the others, so one CPU, or
a platform without os.fork, forks no worker.  The pool only grows: a
call forks the workers it lacks and keeps them for the later calls of
this process, so a session of verify_all calls forks each worker once.
Each call sends worker i its share down the worker's task pipe and reads
back one list of reports, or the exception that stopped it, from its
result pipe.  Only this process holds the write end of a task pipe, no
worker does, so a worker exits when this process closes its pipe, at
exit, or dies.  The module also hosts the independent certificate
checker: it works on the JSON serialization of a certificate and
reimplements norms and congruences from scratch so a bug in the search
cannot vouch for itself.
"""

import _thread
import atexit
import functools
import os
import time
from collections import namedtuple

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


class ExpectedRow(namedtuple("ExpectedRow", "d class_number k_per_class threshold beyond_threshold expected_g")):
    """One field's transcribed row: k per non-principal class, the least
    representable r, the exceptions past it and the uniform bound g."""

    __slots__ = ()

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


ClassCheck = namedtuple("ClassCheck", "class_index k computed_exceptions expected_exceptions match")

# status is "match" or "mismatch"; classes holds one ClassCheck per
# non-principal class
FieldReport = namedtuple("FieldReport", "d class_number status details g_expected g_computed witness_class_index "
                                        "witness_r stable exceptions_match runtime_seconds classes")


class DiffReport(namedtuple("DiffReport", "class_number r_max fields runtime_seconds")):
    """verify_all's result: one FieldReport per field, in d order."""

    __slots__ = ()

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


def _check_window(row: ExpectedRow, r_max: int) -> None:
    """Raise ValueError unless [1, r_max] holds the row's expected
    exceptions plus a padding headroom of 2k past the last one."""
    k = row.k_per_class[0]
    max_exc = max(row.expected_exceptions) if row.expected_exceptions else 0
    if r_max < max_exc:
        raise ValueError(f"r_max={r_max} too small: exception {max_exc} > {r_max}")
    if r_max < max_exc + 2 * k:
        raise ValueError(
            f"r_max={r_max} leaves no padding headroom past exception {max_exc} (need >= {max_exc + 2 * k})"
        )


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
    check_tables([f], r_max)
    _check_window(row, r_max)
    k = row.k_per_class[0]

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
    one, else the machine's count; 1 where it cannot fork workers."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# the fan-out pool, one (pid, task pipe write end, result pipe read end)
# per worker, empty until a call needs a worker.  A call holds the lock
# while it uses the pool, so the messages of two threads' calls never
# share a pipe
_POOL: list[tuple[int, int, int]] = []
_POOL_LOCK = _thread.allocate_lock()  # _thread is always loaded, threading is not


def _pool(workers: int) -> list[tuple[int, int, int]]:
    """The pool's first workers, forking the ones it lacks: the pool only
    grows, and a call that wants fewer workers leaves the rest idle."""
    while len(_POOL) < workers:
        _POOL.append(_fork_worker(_POOL))
    return _POOL[:workers]


def _fork_worker(siblings: list[tuple[int, int, int]]) -> tuple[int, int, int]:
    """Fork one worker serving its own task pipe.  The child closes this
    process's ends of its own pipes and of its siblings', so no worker
    keeps another's task pipe open, and it never returns: os._exit skips
    this process's exit hooks and its unflushed output."""
    task_r, task_w = os.pipe()
    result_r, result_w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        for fd in (task_r, task_w, result_r, result_w):
            os.close(fd)
        raise
    if pid == 0:
        try:
            for fd in (task_w, result_r, *(fd for _, *ends in siblings for fd in ends)):
                os.close(fd)
            _serve(task_r, result_w)
        finally:
            os._exit(0)
    os.close(task_r)
    os.close(result_w)
    return pid, task_w, result_r


def _serve(tasks: int, results: int) -> None:
    """A worker's loop: for each (fields, r_max) message, verify_field on
    each field, looked up at call time, and send back the reports or the
    exception that stopped them.  Returns at end of file."""
    import pickle

    with open(tasks, "rb") as inbox, open(results, "wb") as outbox:
        while True:
            try:
                fields, r_max = pickle.load(inbox)
            except EOFError:
                return
            try:
                reply = [verify_field(d, r_max) for d in fields]
            except BaseException as exc:
                reply = exc
            pickle.dump(reply, outbox)
            outbox.flush()


def _fan_out(fields: tuple[int, ...], r_max: int, n: int) -> list[FieldReport]:
    """The fields' reports in their order, in n shares: share i is
    fields[i::n].  Shares 1 to n - 1 go to the pool's first n - 1 workers,
    share 0 is verified here while they run, and then their replies are
    read back in order.  pickle is loaded before any fork, so a new
    worker has it already; at n = 1 no worker is used, nothing forks and
    pickle is not loaded.  This process's share runs with the module state
    of the moment, the workers' with the state they were forked with."""
    if n > 1:
        import pickle
    pool = _pool(n - 1)
    reports: list = [None] * len(fields)
    try:
        for i, (pid, tasks, _) in enumerate(pool, 1):
            # a few hundred bytes, under PIPE_BUF, so one write sends it whole
            os.write(tasks, pickle.dumps((fields[i::n], r_max)))
    except BrokenPipeError:
        raise ChildProcessError(f"verify worker {pid} exited") from None
    reports[::n] = [verify_field(d, r_max) for d in fields[::n]]
    for i, (pid, _, results) in enumerate(pool, 1):
        with open(results, "rb", closefd=False) as inbox:
            try:
                reply = pickle.load(inbox)
            except EOFError:
                raise ChildProcessError(f"verify worker {pid} exited") from None
        if isinstance(reply, BaseException):
            raise reply
        reports[i::n] = reply
    return reports


@atexit.register
def _shutdown_pool() -> None:
    """Stop the pool and forget it: close its pipes, so each worker reads
    end of file and exits, then reap every worker."""
    global _POOL
    pool, _POOL = _POOL, []
    for _, tasks, results in pool:
        os.close(tasks)
        os.close(results)
    for pid, _, _ in pool:
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:  # reaped already, e.g. with SIGCHLD ignored
            pass


def verify_all(class_number: int, r_max: int = 300) -> DiffReport:
    """verify_field over every field of the class number.

    The fields go in n shares, one per usable CPU and at most one per
    field: share i is fields i, i + n, i + 2n, ...  This process
    verifies share 0 itself and the first n - 1 workers of the pool the
    others, each worker getting its share in one message and sending
    back its reports in one message; results are put back in d order.
    So one CPU, or a platform without os.fork, forks no worker.  The
    work budget and every field's window are checked before any worker
    is forked or used.

    The pool outlives the call and only grows: a later call uses its
    first workers, forking only those it lacks, and leaves the rest
    idle.  So each worker is forked once, with the module state of that
    moment, while this process's share reads the state of each call;
    each worker keeps its own repsearch tables between calls (at most
    36973171 bytes per worker).  An exception in any share is raised
    here with its type; a worker that dies fails the call with
    ChildProcessError.  A call that fails stops the pool, reaping every
    worker, before it raises, and the next call forks a fresh one.
    """
    fields = class_number_fields(class_number)
    check_tables([make_field(d) for d in fields], r_max)
    for d in fields:
        _check_window(expected_row(d), r_max)
    t0 = time.perf_counter()
    with _POOL_LOCK:
        try:
            reports = _fan_out(fields, r_max, min(_usable_cpus(), len(fields)))
        except BaseException:
            _shutdown_pool()
            raise
    return DiffReport(
        class_number=class_number,
        r_max=r_max,
        fields=tuple(reports),
        runtime_seconds=time.perf_counter() - t0,
    )


def report_to_json(report: DiffReport) -> dict:
    """The report as nested dicts, each record's fields in order, plus
    its summary counts."""
    doc = report._asdict()
    doc["fields"] = tuple({**fr._asdict(), "classes": tuple(c._asdict() for c in fr.classes)}
                          for fr in report.fields)
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
    two-constraint form.  r and m must be positive, as for any query and
    certificate of the search.  Returns a list of problems, empty when
    valid, or one "malformed" problem for a document of the wrong shape (a
    bool is not an int there).
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

    if r < 1:
        problems.append(f"r={r} is not positive")
    if m < 1:
        problems.append(f"m={m} is not positive")
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
