"""The three benchmark workloads: seeded op lists and the code that runs
and checks them inside a worker process.

Op lists are plain JSON data made in the parent from the seed, each op
carrying the answer the seed commit gave for it (see make_expected.py).
The runners call the library through module attributes at call time, so
the tracer's wrappers, installed after import, see every call.

Why each workload exists:

* tables: the paper's tables through `normsums verify` at the default
  --jobs.  The only workload that uses the verify driver and the process
  pool; most of its time is the layered bitset table and the per-bit
  min-count extraction.  Windows grow on the same (d, class) so a
  growable table would show.  Deterministic: the seed is unused.
* queries: one closed-loop client asking point queries.  Every distinct
  target builds its own table, so enumeration dominates; the only
  workload with certificates, m-1 probes and the independent recheck.
* coverage: m_d and the universality checks, which run only in
  `universality`, with its own enumerator and gap scan.  A repsearch
  change should leave it unchanged.
"""

from __future__ import annotations

import bisect
import contextlib
import hashlib
import io
import json
import math
import random
import time
from pathlib import Path

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

WORKLOADS = ("tables", "queries", "coverage")

# tables: (class number, r_max) in session order; fields per class number
TABLE_CALLS = tuple((n, r) for n in (2, 3) for r in (1500, 3000, 6000))
FIELDS_PER_CLASS_NUMBER = {2: 18, 3: 16}

# queries: r is log-uniform on [1, R_LIMIT]; below SMALL_R it is exact,
# above it snaps to the nearest point of a geometric grid whose answers
# the seed commit recorded.
R_LIMIT = 20000
SMALL_R = 25
GRID_POINTS = 64
FRESH_PER_CLASS = 10  # plus one exact repeat of an earlier query
PROBE_EVERY = 10  # every 10th representable query with m >= 2 asks m-1

# coverage
COVER_LIMIT = 30000
UNIVERSAL_LIMIT = 10**5
FORMS_PER_STRATUM = 3


def r_grid() -> list[int]:
    """Geometric grid on [SMALL_R, R_LIMIT] for the large-r queries."""
    ratio = R_LIMIT / SMALL_R
    return sorted({round(SMALL_R * ratio ** (i / (GRID_POINTS - 1))) for i in range(GRID_POINTS)})


def answer_hash(d: int, class_index: int, r: int, outcome: str, m: int | None, gammas: list) -> str:
    doc = [d, class_index, r, outcome, m, gammas]
    return hashlib.sha256(json.dumps(doc, separators=(",", ":")).encode()).hexdigest()[:8]


def load_expected(workload: str) -> dict:
    with open(EXPECTED_DIR / f"{workload}.json") as fh:
        return json.load(fh)


def closed_form_m_d(d: int) -> int:
    if d in (1, 2, 3, 7, 11):
        return 2
    if d in (5, 6, 15, 19, 23):
        return 3
    return 4


# ---------------------------------------------------------------- op lists


def make_ops(workload: str, seed: int) -> list:
    if workload == "tables":
        return [[n, r, FIELDS_PER_CLASS_NUMBER[n]] for n, r in TABLE_CALLS]
    if workload == "queries":
        return queries_ops(seed, load_expected("queries"))
    if workload == "coverage":
        return coverage_ops(seed, load_expected("coverage"))
    raise ValueError(f"unknown workload {workload!r}")


def _pick_r(u: float, grid: list[int], log_grid: list[float]) -> int:
    x = R_LIMIT**u
    if x < SMALL_R:
        return int(x)
    lx = math.log(x)
    i = bisect.bisect_left(log_grid, lx)
    if i == len(grid) or (i > 0 and lx - log_grid[i - 1] < log_grid[i] - lx):
        i -= 1
    return grid[i]


def queries_ops(seed: int, expected: dict) -> list:
    """About 1000 queries over all 93 classes as [d, class, r, m, hash].

    Each class gets FRESH_PER_CLASS queries, one in each tenth of [0, 1)
    for u in r = R_LIMIT**u, plus one exact repeat of one of them.  The
    top tenth is not drawn: the classes take evenly spaced points of it in
    a fixed order, so the heaviest queries, which set the tail latency, are
    the same for every seed.  A class's queries form two short sessions,
    and all sessions are shuffled together."""
    rng = random.Random(f"queries:{seed}")
    grid = [r for r in expected["r"] if r >= SMALL_R]
    log_grid = [math.log(r) for r in grid]
    classes = list(expected["answers"])
    top_rank = random.Random("queries:top").sample(range(len(classes)), len(classes))
    sessions = []
    for c, key in enumerate(classes):
        d, ci = map(int, key.split(":"))
        answers = dict(zip(expected["r"], (a.split(":") for a in expected["answers"][key].split())))
        offsets = [rng.random() for _ in range(FRESH_PER_CLASS - 1)]
        offsets.append((top_rank[c] + 0.5) / len(classes))
        rs = [_pick_r((j + x) / FRESH_PER_CLASS, grid, log_grid) for j, x in enumerate(offsets)]
        rs.append(rng.choice(rs))
        rng.shuffle(rs)
        ops = []
        for r in rs:
            m, h = answers[r]
            ops.append([d, ci, r, int(m), h])
        cut = rng.randint(3, len(ops) - 3)
        sessions += [ops[:cut], ops[cut:]]
    rng.shuffle(sessions)
    return [op for s in sessions for op in s]


def coverage_ops(seed: int, expected: dict) -> list:
    """m_d and its extended gap for all 43 fields, then seeded forms.

    The forms are drawn FORMS_PER_STRATUM from each of four strata
    (diagonal or mixed, covering [1, 10^5] or not), so every seed does the
    same number of full-length coverage scans."""
    rng = random.Random(f"coverage:{seed}")
    fields = list(expected["fields"])
    rng.shuffle(fields)
    ops = [["m_d", d, closed_form_m_d(d)] for d in fields]
    ops += [["gap", d, None] for d in fields]
    strata: dict[tuple, list] = {}
    for entry in expected["forms"]:
        strata.setdefault((next(iter(entry["form"])), entry["universal"][0]), []).append(entry)
    forms = [e for key in sorted(strata) for e in rng.sample(strata[key], FORMS_PER_STRATUM)]
    rng.shuffle(forms)
    ops += [["universal", e["form"], e["universal"]] for e in forms]
    ops.append(["sun", None, expected["sun"]])
    ops += [["criterion", e["form"], e["criterion"]] for e in forms]
    return ops


# ---------------------------------------------------------------- runners


class OpLog:
    """Latencies of ops that passed their check, and the failures.  With
    probes given, the runners take a host-speed probe between ops when one
    is due (see hostspeed.py), outside every op's timing, or, where the op
    runs in the verify pool, on a thread while this process waits."""

    def __init__(self, probes=None):
        self.probes = probes
        self.attempted = 0
        self.latencies: list[float] = []
        self.starts: list[float] = []
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    def passed(self, start: float, latency: float) -> None:
        self.starts.append(start)
        self.latencies.append(latency)

    def between_ops(self) -> None:
        if self.probes is not None:
            self.probes.between_ops()

    def probing_while_waiting(self):
        if self.probes is None:
            return contextlib.nullcontext()
        return self.probes.while_waiting()


def run_ops(workload: str, ops: list, log: OpLog) -> None:
    {"tables": run_tables, "queries": run_queries, "coverage": run_coverage}[workload](ops, log)


def run_tables(ops: list, log: OpLog) -> None:
    from normsums import cli

    for n, r_max, nfields in ops:
        log.attempted += nfields
        out = io.StringIO()
        try:
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(out), log.probing_while_waiting():
                code = cli.main(["verify", "--class-number", str(n), "--r-max", str(r_max)])
            per_field = (time.perf_counter() - t0) / nfields
            fields = json.loads(out.getvalue())["fields"]
        except Exception as exc:
            for _ in range(nfields):
                log.fail(f"verify {n} {r_max}: {exc!r}")
            continue
        if len(fields) != nfields:
            log.fail(f"verify {n} {r_max}: {len(fields)} fields, expected {nfields}")
        for fr in fields:
            if code != 0 or fr["status"] != "match":
                log.fail(f"verify {n} {r_max} d={fr['d']}: exit {code}, status {fr['status']}")
            else:
                log.passed(t0, per_field)


def run_queries(ops: list, log: OpLog) -> None:
    from normsums import quadfield, repsearch, verify

    representable_multi = 0

    def query(d: int, ci: int, r: int, exp_m: int, exp_hash: str) -> list[str]:
        nonlocal representable_multi
        problems = []
        q = repsearch.LatticeQuery(quadfield.make_field(d), ci, r)
        res = repsearch.min_terms(q)
        gammas: list = []
        if res.is_representable:
            cert = repsearch.find_certificate(q, res.m)
            if cert is None:
                return [f"no certificate with m={res.m}"]
            doc = cert.to_json_dict()
            gammas = doc["gammas"]
            problems += verify.recheck_certificate(doc)
            if cert.m != res.m:
                problems.append(f"certificate m={cert.m} != min_terms m={res.m}")
            if res.m >= 2:
                representable_multi += 1
                if representable_multi % PROBE_EVERY == 0 and repsearch.find_certificate(q, res.m - 1) is not None:
                    problems.append(f"certificate found with m-1={res.m - 1}")
        if answer_hash(d, ci, r, res.outcome, res.m, gammas) != exp_hash or (res.m or 0) != exp_m:
            problems.append(f"answer {res.outcome} m={res.m} differs from the seed commit's (m={exp_m})")
        return problems

    for op in ops:
        log.attempted += 1
        t0 = time.perf_counter()
        try:
            problems = query(*op)
        except Exception as exc:
            problems = [repr(exc)]
        dt = time.perf_counter() - t0
        log.between_ops()
        if problems:
            log.fail(f"d={op[0]} class {op[1]} r={op[2]}: {problems[0]}")
        else:
            log.passed(t0, dt)


def make_form(spec: dict):
    from normsums import universality

    if "diag" in spec:
        return universality.DiagonalForm(tuple(spec["diag"]))
    return universality.MixedSum(tuple((universality.TermKind(k), w) for k, w in spec["mixed"]))


def run_coverage(ops: list, log: OpLog) -> None:
    from normsums import quadfield, universality

    def check(kind: str, key):
        if kind == "m_d":
            return universality.m_d(quadfield.make_field(key))
        if kind == "gap":
            f = quadfield.make_field(key)
            return universality.norm_sum_first_gap(f, universality.m_d(f), COVER_LIMIT)
        if kind == "universal":
            return list(universality.universal_up_to(make_form(key), UNIVERSAL_LIMIT))
        if kind == "sun":
            return list(universality.sun_polynomial_universal(UNIVERSAL_LIMIT))
        if kind == "criterion":
            criterion = universality.FIFTEEN if "diag" in key else universality.TWO_NINETY
            return universality.check_criterion(make_form(key), criterion)
        raise ValueError(f"unknown coverage op {kind!r}")

    for kind, key, exp in ops:
        log.attempted += 1
        t0 = time.perf_counter()
        try:
            got = check(kind, key)
        except Exception as exc:
            got = repr(exc)
        dt = time.perf_counter() - t0
        log.between_ops()
        if got != exp:
            log.fail(f"{kind} {key}: got {got!r}, expected {exp!r}")
        else:
            log.passed(t0, dt)
