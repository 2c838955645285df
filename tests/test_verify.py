"""Expected-result tables, the field verifier, and the certificate rechecker."""

import json
import multiprocessing
import os
import signal
import subprocess
import sys

import pytest

from normsums.classdata import class_number_fields, class_reps
from normsums.quadfield import make_field
from normsums.repsearch import LatticeQuery, find_certificate, min_terms
from normsums.verify import (
    expected_row,
    recheck_certificate,
    report_table,
    report_to_json,
    verify_all,
    verify_field,
)
from normsums import repsearch
from normsums import verify as verify_mod


@pytest.fixture(autouse=True)
def each_test_starts_and_ends_with_no_pool():
    # verify_all keeps its pool between calls, so no test may be served by
    # a pool, or a patched-in stand-in executor, that an earlier one built
    verify_mod._shutdown_pool()
    yield
    verify_mod._shutdown_pool()


# number of exceptional r beyond the k-1 run at the bottom, per field
BEYOND_COUNTS = {
    5: 0, 6: 0, 10: 1, 13: 2, 15: 0, 22: 4, 35: 1, 37: 8, 51: 2, 58: 13,
    91: 5, 115: 7, 123: 8, 187: 14, 235: 19, 267: 20, 403: 35, 427: 39,
    23: 0, 31: 1, 59: 1, 83: 3, 107: 5, 139: 3, 211: 7, 283: 8, 307: 10,
    331: 15, 379: 18, 499: 24, 547: 15, 643: 26, 883: 27, 907: 27,
}

DESCRIPTIONS = {
    5: "r/2 for r >= 2; g = 3",
    10: "r/2 for r >= 2 and r != 3; g = 4",
    35: "r/5 for r >= 3 and r != 4; g = 4",
    51: "r/5 for r >= 3 and r != 4, 7; g = 4",
    115: "r/5 for r >= 5 and r != 6, 8, 9, 11, 13, 16, 18; g = 4",
    403: (
        "r/11 for r >= 11 and r != 12, 14, 15, 16, 17, 18, 19, 20, 21, 23, 25, "
        "27, 28, 29, 30, 32, 34, 36, 38, 40, 41, 43, 45, 47, 49, 51, 54, 56, "
        "58, 60, 67, 69, 71, 80, 82; g = 4"
    ),
    23: "r/2 for r >= 2; g = 3",
    31: "r/2 for r >= 2 and r != 3; g = 4",
    547: (
        "r/11 for r >= 11 and r != 12, 14, 15, 16, 17, 18, 20, 21, 23, 25, 27, "
        "28, 31, 34, 36; g = 4"
    ),
    907: (
        "r/13 for r >= 13 and r != 14, 15, 16, 17, 18, 20, 21, 22, 24, 25, 27, "
        "28, 29, 30, 31, 33, 34, 35, 37, 40, 43, 44, 47, 48, 50, 56, 63; g = 5"
    ),
}


def test_expected_row_spot_values():
    row = expected_row(13)
    assert row.class_number == 2
    assert row.k_per_class == (2,)
    assert row.threshold == 2
    assert row.beyond_threshold == (3, 5)
    assert row.expected_g == 4
    assert row.expected_exceptions == (1, 3, 5)

    row = expected_row(35)
    assert row.expected_exceptions == (1, 2, 4)

    row = expected_row(907)
    assert row.class_number == 3
    assert row.k_per_class == (13, 13)
    assert row.expected_g == 5
    assert row.expected_exceptions[:5] == (1, 2, 3, 4, 5)

    with pytest.raises(ValueError):
        expected_row(7)


def test_expected_rows_exist_for_all_tabled_fields():
    for d in class_number_fields(2) + class_number_fields(3):
        row = expected_row(d)
        ks = tuple(rep.k for rep in class_reps(make_field(d))[1:])
        assert row.k_per_class == ks, d
        # the threshold is k except for three fields whose run stops early
        expected_threshold = {35: 3, 51: 3, 91: 5}.get(d, row.k_per_class[0])
        assert row.threshold == expected_threshold, d
        assert all(x > row.threshold for x in row.beyond_threshold)
        assert len(row.beyond_threshold) == BEYOND_COUNTS[d], d


def test_expected_rows_match_second_transcription():
    # DESCRIPTIONS retypes ten rows as 'r/5 for r >= 3 and r != 4, 7; g = 4'
    for d, expected in DESCRIPTIONS.items():
        row = expected_row(d)
        text = f"r/{row.k_per_class[0]} for r >= {row.threshold}"
        if row.beyond_threshold:
            text += " and r != " + ", ".join(str(r) for r in row.beyond_threshold)
        assert f"{text}; g = {row.expected_g}" == expected, d


def test_verify_field_matches():
    for d in (5, 10, 51, 23, 907):
        rep = verify_field(d)
        assert rep.status == "match"
        assert rep.exceptions_match and rep.stable
        assert rep.g_computed == rep.g_expected == expected_row(d).expected_g
        assert rep.runtime_seconds > 0
        for check in rep.classes:
            assert check.match
            assert check.computed_exceptions == check.expected_exceptions


def test_verify_field_witness_location():
    rep = verify_field(907)
    assert (rep.witness_class_index, rep.witness_r) == (2, 81)
    assert rep.g_computed == 5


def test_verify_field_window_guards():
    with pytest.raises(ValueError) as e:
        verify_field(403, r_max=50)
    assert "exception 82 > 50" in str(e.value)
    with pytest.raises(ValueError) as e:
        verify_field(403, r_max=95)
    assert "headroom" in str(e.value) and "104" in str(e.value)
    # exactly at the minimum the check runs
    assert verify_field(403, r_max=104).status == "match"


def test_verify_field_detects_planted_mismatch(monkeypatch):
    # entries are (k, threshold, beyond_threshold, g); plant a wrong exception
    monkeypatch.setitem(verify_mod._EXPECTED_CLASS2, 10, (2, 2, (3, 7), 4))
    rep = verify_field(10)
    assert rep.status == "mismatch"
    assert not rep.exceptions_match
    assert any("7" in line for line in rep.details)


def test_verify_field_detects_planted_g_mismatch(monkeypatch):
    monkeypatch.setitem(verify_mod._EXPECTED_CLASS2, 10, (2, 2, (3,), 3))
    rep = verify_field(10)
    assert rep.status == "mismatch"
    assert rep.exceptions_match
    assert any("g computed" in line for line in rep.details)


def test_verify_all_class2():
    report = verify_all(2, r_max=300)
    assert report.total == 18
    assert report.matches == 18
    assert report.all_match and report.all_stable


def test_verify_all_class3_parallel(monkeypatch):
    # two usable CPUs run a real two-worker pool on any host
    monkeypatch.setattr(verify_mod, "_usable_cpus", lambda: 2)
    report = verify_all(3, r_max=300)
    assert report.total == 16
    assert report.matches == 16
    assert report.all_match and report.all_stable
    assert [fr.d for fr in report.fields] == list(class_number_fields(3))


def test_usable_cpus_follows_affinity(monkeypatch):
    monkeypatch.setattr(verify_mod.os, "cpu_count", lambda: 64)
    monkeypatch.setattr(verify_mod.os, "sched_getaffinity", lambda pid: {0, 5}, raising=False)
    assert verify_mod._usable_cpus() == 2
    monkeypatch.delattr(verify_mod.os, "sched_getaffinity", raising=False)
    assert verify_mod._usable_cpus() == 64
    monkeypatch.setattr(verify_mod.os, "cpu_count", lambda: None)
    assert verify_mod._usable_cpus() == 1


def test_verify_all_pool_clamped_to_field_count(monkeypatch):
    # the pool is one worker per usable CPU but never more workers than
    # fields, and one CPU builds no pool; the stand-in executor records
    # the size and maps in this process
    import concurrent.futures

    sizes = []

    class SerialExecutor:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def shutdown(self):
            pass

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialExecutor)
    monkeypatch.setattr(verify_mod, "_usable_cpus", lambda: 10_000)
    report = verify_all(3, r_max=300)
    assert sizes == [16]
    assert report.matches == report.total == 16
    monkeypatch.setattr(verify_mod, "_usable_cpus", lambda: 3)
    verify_all(2, r_max=300)
    assert sizes == [16, 3]
    monkeypatch.setattr(verify_mod, "_usable_cpus", lambda: 1)
    report = verify_all(2, r_max=300)
    assert sizes == [16, 3]
    assert report.matches == report.total == 18


def _pids(processes) -> set[int]:
    return {p.pid for p in processes}


def test_verify_all_keeps_one_pool_between_calls(monkeypatch):
    # calls that want the same number of workers construct one executor,
    # and the same worker processes run them all
    import concurrent.futures

    built = []

    class CountingExecutor(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            built.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingExecutor)
    monkeypatch.setattr(verify_mod, "_usable_cpus", lambda: 2)
    assert verify_all(2, r_max=300).all_match
    workers = _pids(multiprocessing.active_children())
    report = verify_all(3, r_max=300)
    assert report.matches == report.total == 16
    assert built == [2]
    assert len(workers) == 2 and _pids(multiprocessing.active_children()) == workers


def _field_kills_its_worker(d, r_max):
    # verify_field, except that the worker running d=13 dies at once
    if d == 13:
        os.kill(os.getpid(), signal.SIGKILL)
    return verify_field(d, r_max)


def test_a_killed_worker_fails_its_call_and_the_next_call_gets_a_fresh_pool(monkeypatch):
    from concurrent.futures.process import BrokenProcessPool

    monkeypatch.setattr(verify_mod, "_usable_cpus", lambda: 2)
    assert verify_all(2, r_max=300).all_match
    killed_pool = _pids(multiprocessing.active_children())
    monkeypatch.setattr(verify_mod, "verify_field", _field_kills_its_worker)
    with pytest.raises(BrokenProcessPool):
        verify_all(2, r_max=300)
    assert verify_mod._POOL is None and multiprocessing.active_children() == []
    monkeypatch.setattr(verify_mod, "verify_field", verify_field)
    report = verify_all(2, r_max=300)
    assert report.matches == report.total == 18
    assert [fr.d for fr in report.fields] == list(class_number_fields(2))
    assert not killed_pool & _pids(multiprocessing.active_children())


def test_a_session_of_calls_exits_clean_and_leaves_no_worker():
    # the pool is shut down at exit: nothing on stderr, even with warnings
    # as errors, and no worker left once the exit hooks have run.  atexit
    # runs its hooks last registered first, so the count registered before
    # verify is imported runs after verify's shutdown hook, and before
    # multiprocessing's own exit hook, registered first, joins any child
    code = (
        "import atexit, multiprocessing, multiprocessing.util\n"
        "atexit.register(lambda: print(len(multiprocessing.active_children())))\n"
        "from normsums import verify\n"
        "verify._usable_cpus = lambda: 2\n"
        "for class_number, r_max in ((2, 300), (3, 300), (2, 600)):\n"
        "    assert verify.verify_all(class_number, r_max).all_match\n"
        "print(len(multiprocessing.active_children()))\n"
    )
    done = subprocess.run([sys.executable, "-W", "error", "-c", code], capture_output=True, text=True, timeout=300)
    assert (done.returncode, done.stderr, done.stdout.split()) == (0, "", ["2", "0"])


def test_verify_all_checks_every_window_before_any_pool(monkeypatch):
    # a window too small for any field is the caller's error, raised with
    # verify_field's message before a worker starts
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(verify_mod, "_usable_cpus", lambda: 2)
    with pytest.raises(ValueError, match=r"^r_max=0 too small: exception 1 > 0$"):
        verify_all(3, 0)
    with pytest.raises(ValueError, match=r"^r_max=10 leaves no padding headroom past exception 9 \(need >= 13\)$"):
        verify_all(2, 10)


def test_verify_all_class3_builds_no_class3_table(monkeypatch):
    # the inverse classes share the (d, 2) table: 16 fields build a
    # principal and a class 2 table each, and both classes are still reported
    builds = []
    real = repsearch._decode

    def counting(masks, width):
        builds.append(width)
        return real(masks, width)

    monkeypatch.setattr(verify_mod, "_usable_cpus", lambda: 1)
    monkeypatch.setattr(repsearch, "_TABLES", {})
    monkeypatch.setattr(repsearch, "_decode", counting)
    report = verify_all(3, r_max=300)
    assert report.all_match
    assert len(builds) == 32
    assert sorted(repsearch._TABLES) == [(d, ci) for d in class_number_fields(3) for ci in (1, 2)]
    assert all([c.class_index for c in fr.classes] == [2, 3] for fr in report.fields)


def test_report_serialization():
    report = verify_all(2, r_max=300)
    doc = report_to_json(report)
    json.dumps(doc)  # must be serializable as-is
    assert doc["class_number"] == 2
    assert doc["matches"] == 18 and doc["total"] == 18
    assert doc["all_match"] is True
    assert len(doc["fields"]) == 18
    text = report_table(report)
    assert "18/18" in text
    assert "907" not in text  # class-3 field stays out of the class-2 table
    assert "403" in text


def _valid_cert_doc():
    cert = find_certificate(LatticeQuery(make_field(35), 2, 3), 1)
    return cert.to_json_dict()


def test_recheck_certificate_accepts_valid():
    assert recheck_certificate(_valid_cert_doc()) == []
    q = LatticeQuery(make_field(907), 2, 81)
    cert = find_certificate(q, min_terms(q).m)
    assert recheck_certificate(cert.to_json_dict()) == []


def test_recheck_certificate_rejects_tampering():
    doc = _valid_cert_doc()

    bad = dict(doc, check=doc["check"] + 1)
    assert any("check" in p for p in recheck_certificate(bad))

    bad = dict(doc, gammas=[[1, 0]])
    assert recheck_certificate(bad) != []

    bad = dict(doc, gammas=doc["gammas"] + [[0, 0]], m=doc["m"] + 1)
    problems = recheck_certificate(bad)
    assert problems != []

    bad = dict(doc, m=doc["m"] + 1)
    assert any("m" in p for p in recheck_certificate(bad))

    bad = dict(doc, r=doc["r"] + 1)
    assert recheck_certificate(bad) != []


def test_recheck_certificate_rejects_congruence_violation():
    # (-1, 1) has norm 4, exactly the target, but odd a fails admissibility
    doc = {
        "d": 15, "class_index": 2, "k": 2, "r": 2, "m": 1,
        "gammas": [[-1, 1]], "check": 4,
    }
    problems = recheck_certificate(doc)
    assert problems != []
    # the sum itself is fine, so the complaint is about the congruence
    assert all("sum" not in p for p in problems)


def test_recheck_certificate_rejects_zero_summand():
    doc = {
        "d": 15, "class_index": 2, "k": 2, "r": 2, "m": 2,
        "gammas": [[2, 0], [0, 0]], "check": 4,
    }
    assert any("zero" in p for p in recheck_certificate(doc))


@pytest.mark.parametrize("doc, problems", [
    # every sum checks out, but no query has r < 1 and no certificate m < 1
    ({"d": 5, "class_index": 2, "k": 2, "r": 0, "m": 0, "gammas": [], "check": 0},
     ["r=0 is not positive", "m=0 is not positive"]),
    ({"d": 5, "class_index": 2, "k": 2, "r": -1, "m": 0, "gammas": [], "check": 0},
     ["r=-1 is not positive", "m=0 is not positive", "norms sum to 0, need r*k = -2"]),
    ({"d": 35, "class_index": 2, "k": 5, "r": 3, "m": 0, "gammas": [], "check": 0},
     ["m=0 is not positive", "norms sum to 0, need r*k = 15"]),
])
def test_recheck_certificate_rejects_a_count_below_one(doc, problems):
    assert recheck_certificate(doc) == problems


def test_recheck_certificate_unknown_class_representative():
    doc = _valid_cert_doc()
    # d=21 is not a supported field and d=5 has no class 3
    for d, class_index in ((21, 2), (5, 3)):
        problems = recheck_certificate(dict(doc, d=d, class_index=class_index))
        assert problems == [f"no class representative for d={d} class {class_index}"]


@pytest.mark.parametrize(
    "change, problem",
    [
        ({"gammas": [[1]]}, "gammas entry [1] is not a pair of ints"),
        ({"gammas": [1]}, "gammas entry 1 is not a pair of ints"),
        ({"gammas": 5}, "gammas=5 is not a list"),
        ({"gammas": "ab"}, "gammas='ab' is not a list"),
        ({"gammas": [["x", "y"]]}, "gammas entry ['x', 'y'] is not a pair of ints"),
        ({"gammas": [[True, True]]}, "gammas entry [True, True] is not a pair of ints"),
        ({"gammas": [[1, 0], [1, 2, 3]]}, "gammas entry [1, 2, 3] is not a pair of ints"),
        ({"r": "3"}, "r='3' is not an int"),
        ({"d": [5]}, "d=[5] is not an int"),
        ({"d": 35.0}, "d=35.0 is not an int"),
        ({"class_index": True}, "class_index=True is not an int"),
        ({"k": None}, "k=None is not an int"),
        ({"m": False}, "m=False is not an int"),
        ({"check": 1.5}, "check=1.5 is not an int"),
        ({"r": "3", "gammas": 5}, "r='3' is not an int; gammas=5 is not a list"),
    ],
)
def test_recheck_certificate_reports_a_malformed_document(change, problem):
    # a document of the wrong shape is one problem, never an exception
    assert recheck_certificate(dict(_valid_cert_doc(), **change)) == [f"malformed certificate document: {problem}"]


@pytest.mark.parametrize("doc", [None, [1], "doc", {}, {"d": 35}])
def test_recheck_certificate_reports_a_missing_key(doc):
    problems = recheck_certificate(doc)
    assert len(problems) == 1 and problems[0].startswith("malformed certificate document: ")
