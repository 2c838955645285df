"""Tests of the benchmark's own logic.

    python3 -m pytest bench/tests -q
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import layertrace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize(
    "n, expected",
    [(100, 90), (102, 90), (111, 90), (999, 90), (1000, 99), (1023, 99), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    p = run.tail_percentile(n)
    assert p == expected
    values = list(range(n))
    beyond = [v for v in values if v > run.percentile(values, p)]
    assert len(beyond) >= 10


def test_tail_percentile_refuses_too_few_samples():
    with pytest.raises(run.BenchError):
        run.tail_percentile(99)


def test_self_time_subtracts_union_of_children():
    spans = [
        (1, 0, "outer", 0.0, 10.0),
        # two children overlap, as spans from two pool workers do
        (2, 1, "inner", 1.0, 3.0),
        (3, 1, "inner", 2.0, 5.0),
        (4, 1, "inner", 6.0, 7.0),
        (5, 3, "leaf", 2.5, 3.5),
        (6, 0, "outer", 20.0, 21.0),  # repeated top-level span
    ]
    times = layertrace.self_times(spans)
    assert times["outer"][0] == 2
    assert times["outer"][1] == pytest.approx(10 - 5 + 1)
    assert times["inner"][0] == 3
    assert times["inner"][1] == pytest.approx(2 + (3 - 1) + 1)
    assert times["leaf"] == [1, pytest.approx(1.0)]


@pytest.mark.parametrize("workload", ["queries", "coverage"])
def test_seed_fixes_the_op_list(workload):
    first = workloads.make_ops(workload, 7)
    assert workloads.make_ops(workload, 7) == first
    assert workloads.make_ops(workload, 8) != first


def test_queries_cover_every_class_with_repeats():
    ops = workloads.make_ops("queries", 3)
    classes = {(d, ci) for d, ci, *_ in ops}
    assert len(classes) == 93
    distinct = {(d, ci, r) for d, ci, r, *_ in ops}
    assert 0.05 <= 1 - len(distinct) / len(ops) <= 0.2


def test_wrong_query_answer_counts_as_failed():
    ops = workloads.make_ops("queries", 1)
    good = next(op for op in ops if op[3] >= 2)
    wrong_m = good[:3] + [good[3] + 1, good[4]]
    wrong_hash = good[:4] + ["00000000"]
    log = workloads.OpLog()
    workloads.run_queries([good, wrong_m, wrong_hash], log)
    assert log.failed == 2
    assert len(log.latencies) == 1


def test_wrong_coverage_verdict_counts_as_failed():
    log = workloads.OpLog()
    workloads.run_coverage([["m_d", 5, 3], ["m_d", 7, 3], ["gap", 7, None]], log)
    assert log.failed == 1
    assert "m_d 7" in log.errors[0]


def test_traced_round_reaches_pool_workers(tmp_path):
    names = [
        "verify.verify_field.calls",
        "verify.verify_all.self_s",
        "repsearch.target_bits",
        "repsearch.removed_in_a_later_change.calls",
    ]
    job = {
        "workload": "tables",
        "ops": [[2, 300, 18]],
        "mode": "spans",
        "layers": layertrace.layers_for(names),
        "metrics": names,
        "trace_dir": str(tmp_path),
    }
    _, res = run.run_round(job)
    assert res["failed"] == 0
    assert res["absent"] == ["repsearch.removed_in_a_later_change"]
    layers = res["layers"]
    assert layers["verify.verify_field.calls"] == 18
    assert layers["verify.verify_all.self_s"] > 0
    assert layers["repsearch.removed_in_a_later_change.calls"] == 0
    # exceptional_set on each nonprincipal class and g_invariant on all
    # classes of every class-number-2 field, all at r_max 300
    ks = {5: 2, 6: 2, 10: 2, 13: 2, 15: 2, 22: 2, 35: 5, 37: 2, 51: 5, 58: 2,
          91: 7, 115: 5, 123: 3, 187: 7, 235: 5, 267: 3, 403: 11, 427: 7}
    assert layers["repsearch.target_bits"] == sum(300 * (k + 1 + k) for k in ks.values())


def test_heap_round_records_no_spans(tmp_path):
    job = {
        "workload": "tables",
        "ops": [[2, 300, 18]],
        "mode": "heap",
        "layers": layertrace.layers_for(["verify.verify_field.calls"]),
        "metrics": ["verify.verify_field.calls"],
        "trace_dir": str(tmp_path),
    }
    _, res = run.run_round(job)
    assert res["failed"] == 0
    assert res["heap_peak_bytes"] > 0
    docs = [json.loads(line) for path in tmp_path.glob("*.jsonl") for line in path.read_text().splitlines()]
    assert docs, "the pool workers reported no heap peak"
    assert all(doc["spans"] == [] and doc["counts"] == {} and doc["heap_peak"] > 0 for doc in docs)


def test_op_is_scaled_by_the_probes_around_it():
    import hostspeed

    probes = hostspeed.Probes()
    nominal = hostspeed.NOMINAL_PROBE_S
    # the host runs at nominal speed until t=1, then at half speed
    probes.ends = [0.1 * i for i in range(21)]
    probes.times = [nominal if t < 1.0 else 2 * nominal for t in probes.ends]
    fast, slow, spanning = probes.scales([(0.3, 0.01), (1.5, 0.01), (0.0, 2.0)])
    assert fast == pytest.approx(1.0)
    assert slow == pytest.approx(0.5)
    assert spanning == pytest.approx(0.5)  # the median of all 21 probes
    # an op with no probe near it falls back to every probe of the round
    assert probes.scales([(10.0, 0.01)]) == [pytest.approx(0.5)]
