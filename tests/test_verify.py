"""Expected-result tables, the field verifier, and the certificate rechecker."""

import errno
import json
import os
import signal
import subprocess
import sys
import threading
import time

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
    # a pool that an earlier one forked
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
    # two usable CPUs run a real one-worker pool beside this process on any host
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
    # no fork, no workers: the fields run in this process
    monkeypatch.setattr(verify_mod.os, "cpu_count", lambda: 64)
    monkeypatch.delattr(verify_mod.os, "fork", raising=False)
    assert verify_mod._usable_cpus() == 1


def _pool_pids() -> list[int]:
    return [pid for pid, _, _ in verify_mod._POOL]


def _is_live_child(pid: int) -> bool:
    # True for a child of this process that has not exited; a child that
    # was reaped is no longer ours, and waitpid says so
    try:
        return os.waitpid(pid, os.WNOHANG) == (0, 0)
    except ChildProcessError:
        return False


def _no_fork():
    raise AssertionError("a worker was forked")


def test_verify_all_pool_clamped_to_field_count(monkeypatch):
    # a call has one share per usable CPU but never more shares than
    # fields, and uses one worker fewer, so one CPU forks no worker.  The
    # pool only grows: a call that wants fewer workers than it has forks
    # none, runs on the first ones and leaves the rest idle, alive
    forks = []
    real_fork = verify_mod._fork_worker

    def counting_fork(siblings):
        forks.append(len(siblings))
        return real_fork(siblings)

    used = []
    real_pool = verify_mod._pool

    def recording_pool(workers):
        pool = real_pool(workers)
        used.append([pid for pid, _, _ in pool])
        return pool

    monkeypatch.setattr(verify_mod, "_fork_worker", counting_fork)
    monkeypatch.setattr(verify_mod, "_pool", recording_pool)
    monkeypatch.setattr(verify_mod, "_usable_cpus", lambda: 10_000)
    report = verify_all(3, r_max=300)
    assert report.matches == report.total == 16
    fifteen = _pool_pids()
    assert forks == list(range(15)) and used == [fifteen] and len(set(fifteen)) == 15
    monkeypatch.setattr(verify_mod, "_usable_cpus", lambda: 3)
    report = verify_all(2, r_max=300)
    assert report.matches == report.total == 18
    assert len(forks) == 15 and used[1] == fifteen[:2] and _pool_pids() == fifteen
    assert all(map(_is_live_child, fifteen))
    pool = verify_mod._POOL
    verify_mod._shutdown_pool()
    assert verify_mod._POOL == [] and not any(map(_is_live_child, fifteen))
    for fd in (fd for _, *ends in pool for fd in ends):
        with pytest.raises(OSError):
            os.fstat(fd)  # closed, not leaked
    monkeypatch.setattr(verify_mod, "_usable_cpus", lambda: 1)
    monkeypatch.setattr(verify_mod.os, "fork", _no_fork)
    report = verify_all(2, r_max=300)
    assert len(forks) == 15 and used[2] == [] and verify_mod._POOL == []
    assert report.matches == report.total == 18


def test_verify_all_keeps_one_pool_between_calls(monkeypatch):
    # calls that want the same number of workers fork them once, and the
    # same worker processes, still alive, run them all
    forks = []
    real_fork = verify_mod._fork_worker

    def counting_fork(siblings):
        forks.append(len(siblings))
        return real_fork(siblings)

    monkeypatch.setattr(verify_mod, "_fork_worker", counting_fork)
    monkeypatch.setattr(verify_mod, "_usable_cpus", lambda: 3)
    assert verify_all(2, r_max=300).all_match
    workers = _pool_pids()
    report = verify_all(3, r_max=300)
    assert report.matches == report.total == 16
    assert [fr.d for fr in report.fields] == list(class_number_fields(3))
    assert forks == [0, 1]
    assert len(set(workers)) == 2 and _pool_pids() == workers and all(map(_is_live_child, workers))


def test_a_killed_worker_fails_its_call_and_the_next_call_gets_a_fresh_pool(monkeypatch):
    # three shares: this process and two workers, one of which is killed
    monkeypatch.setattr(verify_mod, "_usable_cpus", lambda: 3)
    assert verify_all(2, r_max=300).all_match
    killed_pool = _pool_pids()
    os.kill(killed_pool[1], signal.SIGKILL)
    with pytest.raises(ChildProcessError, match=rf"^verify worker {killed_pool[1]} exited$"):
        verify_all(2, r_max=300)
    assert verify_mod._POOL == [] and not any(map(_is_live_child, killed_pool))
    report = verify_all(2, r_max=300)
    assert report.matches == report.total == 18
    assert [fr.d for fr in report.fields] == list(class_number_fields(2))
    assert not set(killed_pool) & set(_pool_pids())


def test_calls_from_several_threads_each_get_their_own_reports(monkeypatch):
    # more calling threads than workers and CPUs, alternating class
    # numbers on one pool: every call returns its own fields in d order.
    # The pool is forked before the threads start, as forking a process
    # that runs other threads is deprecated
    monkeypatch.setattr(verify_mod, "_usable_cpus", lambda: 2)
    assert verify_all(2, r_max=300).all_match
    results = []

    def calls(first):
        for class_number in (first, 5 - first, first):
            report = verify_all(class_number, r_max=300)
            results.append([fr.d for fr in report.fields] == list(class_number_fields(class_number)))

    threads = [threading.Thread(target=calls, args=(2 + i % 2,), daemon=True) for i in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert results == [True] * 18


def _lowest_free_fd() -> int:
    fd = os.open(os.devnull, os.O_RDONLY)
    os.close(fd)
    return fd


def test_a_failed_fork_leaves_no_pool_and_no_open_pipe(monkeypatch):
    # the second fork fails as it does at a process limit: the call
    # raises that error, the first worker is reaped, and no pipe end of
    # either worker stays open here
    real_fork = os.fork
    forked = []

    def second_fork_fails():
        if forked:
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
        forked.append(real_fork())
        return forked[-1]

    monkeypatch.setattr(verify_mod, "_usable_cpus", lambda: 3)  # a pool of two workers
    free = _lowest_free_fd()
    monkeypatch.setattr(verify_mod.os, "fork", second_fork_fails)
    with pytest.raises(BlockingIOError):
        verify_all(2, r_max=300)
    monkeypatch.setattr(verify_mod.os, "fork", real_fork)
    assert verify_mod._POOL == [] and len(forked) == 1 and not _is_live_child(forked[0])
    assert _lowest_free_fd() == free


def test_an_exception_in_a_worker_is_raised_with_its_type(monkeypatch):
    # a worker sends back the exception that stopped its fields; the call
    # raises it and stops the pool.  The workers are forked after the
    # patch, so they run the patched verify_field
    def field_raises(d, r_max):
        if d == 13:
            raise KeyError(d)
        return verify_field(d, r_max)

    assert 13 in class_number_fields(2)[1::2]  # the worker's share, not this process's
    monkeypatch.setattr(verify_mod, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(verify_mod, "verify_field", field_raises)
    with pytest.raises(KeyError, match="^13$"):
        verify_all(2, r_max=300)
    assert verify_mod._POOL == []


def test_the_calling_process_verifies_share_0(monkeypatch):
    # the workers keep the module state they were forked with, while this
    # process's share reads the state of each call: rows planted wrong
    # here after the pool forked fail exactly the fields of share 0
    monkeypatch.setattr(verify_mod, "_usable_cpus", lambda: 2)
    assert verify_all(2, r_max=300).all_match
    worker = _pool_pids()
    planted = {d: (k, threshold, beyond, g + 1) for d, (k, threshold, beyond, g) in verify_mod._EXPECTED_CLASS2.items()}
    monkeypatch.setattr(verify_mod, "_EXPECTED_CLASS2", planted)
    report = verify_all(2, r_max=300)
    fields = class_number_fields(2)
    assert [fr.d for fr in report.fields] == list(fields)
    assert [fr.d for fr in report.fields if fr.status == "mismatch"] == list(fields[0::2])
    assert _pool_pids() == worker


def test_an_exception_in_the_calling_process_share_stops_the_pool(monkeypatch):
    # the call raises it with its type, after the workers were sent their
    # shares; the pool is stopped, every worker reaped, no pipe left open
    def field_raises(d, r_max):
        if d == 58:
            raise KeyError(d)
        return verify_field(d, r_max)

    assert 58 in class_number_fields(2)[0::3]
    free = _lowest_free_fd()
    monkeypatch.setattr(verify_mod, "_usable_cpus", lambda: 3)
    assert verify_all(2, r_max=300).all_match
    workers = _pool_pids()
    monkeypatch.setattr(verify_mod, "verify_field", field_raises)
    with pytest.raises(KeyError, match="^58$"):
        verify_all(2, r_max=300)
    assert verify_mod._POOL == [] and len(workers) == 2 and not any(map(_is_live_child, workers))
    assert _lowest_free_fd() == free


def test_one_cpu_forks_no_worker_and_loads_no_pickle():
    # at one share the pool is empty: the fields run in the calling
    # process, which neither forks nor pickles anything
    code = (
        "import os, sys\n"
        "from normsums import verify\n"
        "def no_fork():\n"
        "    raise AssertionError('a worker was forked')\n"
        "os.fork = no_fork\n"
        "verify._usable_cpus = lambda: 1\n"
        "assert verify.verify_all(2, 300).all_match and verify._POOL == []\n"
        "print('pickle' in sys.modules)\n"
    )
    done = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr, done.stdout) == (0, "", "False\n")


def test_a_session_of_calls_exits_clean_and_leaves_no_worker():
    # the pool is shut down at exit: nothing on stderr, even in dev mode
    # with warnings as errors (a pipe left open would warn), and no child
    # left once the exit hooks have run.  atexit runs its hooks last
    # registered first, so the check registered before verify is imported
    # runs after verify's shutdown hook; waitpid(-1) finds no child at all
    code = (
        "import atexit, os\n"
        "def children():\n"
        "    try:\n"
        "        os.waitpid(-1, os.WNOHANG)\n"
        "    except ChildProcessError:\n"
        "        return 'none'\n"
        "    return 'some'\n"
        "atexit.register(lambda: print(children()))\n"
        "from normsums import verify\n"
        "verify._usable_cpus = lambda: 3\n"
        "for class_number, r_max in ((2, 300), (3, 300), (2, 600)):\n"
        "    assert verify.verify_all(class_number, r_max).all_match\n"
        "print(len(verify._POOL), children())\n"
    )
    done = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr, done.stdout.split()) == (0, "", ["2", "some", "none"])


def _gone(pid: int) -> bool:
    # exited: no such process, or a zombie no one has reaped yet
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads open files from /proc")
def test_each_worker_holds_only_its_own_pipes(monkeypatch):
    # of the pool's pipes, worker i holds only the child ends of its own
    # two: no write end of any task pipe, its own or a sibling's, stays
    # open in a worker, so closing a task pipe here ends that worker
    monkeypatch.setattr(verify_mod, "_usable_cpus", lambda: 3)
    assert verify_all(2, r_max=300).all_match
    pipes = [(os.fstat(tasks).st_ino, os.fstat(results).st_ino) for _, tasks, results in verify_mod._POOL]
    pool_pipes = {ino for pair in pipes for ino in pair}
    for (pid, _, _), own in zip(verify_mod._POOL, pipes):
        held = {os.readlink(f"/proc/{pid}/fd/{fd}") for fd in os.listdir(f"/proc/{pid}/fd")}
        assert {ino for ino in pool_pipes if f"pipe:[{ino}]" in held} == set(own)
        assert sum(link in {f"pipe:[{ino}]" for ino in own} for link in held) == 2


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads process states from /proc")
def test_workers_exit_when_their_session_is_killed():
    # a session killed by SIGKILL runs no exit hook, so its workers see
    # end of file on their task pipes only if no worker holds the write
    # end of any task pipe open
    code = (
        "import os, signal\n"
        "from normsums import verify\n"
        "verify._usable_cpus = lambda: 3\n"
        "assert verify.verify_all(2, 300).all_match\n"
        "print(*(pid for pid, _, _ in verify._POOL), flush=True)\n"
        "os.kill(os.getpid(), signal.SIGKILL)\n"
    )
    proc = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, text=True)
    workers = []
    try:
        workers += map(int, proc.stdout.readline().split())
        assert proc.wait(timeout=60) == -signal.SIGKILL
        assert len(workers) == 2
        deadline = time.monotonic() + 5
        while not all(map(_gone, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert [pid for pid in workers if not _gone(pid)] == []
    finally:
        proc.stdout.close()
        for pid in workers:
            if not _gone(pid):
                os.kill(pid, signal.SIGKILL)


def test_verify_all_checks_every_window_before_any_pool(monkeypatch):
    # a window too small for any field is the caller's error, raised with
    # verify_field's message before a worker starts
    def no_pool(workers):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(verify_mod, "_pool", no_pool)
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
