"""Benchmark of normsums: three seeded workloads, checked outputs, and an
optional traced run that splits the time by module.

    python3 bench/run.py --workload tables|queries|coverage \
        --seed N --seconds S --trace 0|1

Every round runs in a fresh worker process (bench/worker.py), so the
library's caches start cold as they do for every CLI call and every new
session.  One worker is one closed-loop client; the only other processes
are the pool that `normsums verify` starts itself.

--trace 0 repeats rounds until S seconds have passed and reports the
end-to-end metrics of BENCHMARK.json: times as medians over the rounds,
latency percentiles over the ops of all rounds, every time scaled to a
nominal host speed by a probe the worker takes between ops (hostspeed.py).
--trace 1 alternates untraced and traced rounds for S/3 seconds and then
runs one round under tracemalloc, and reports the per-layer metrics.
The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import hostspeed
import layertrace
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER_TIMEOUT_S = 150
# set-up time is short and moves with host speed, so it takes many samples,
# spread evenly over the run
SETUP_SAMPLES = 61
# tracemalloc slows the queries workload about twelvefold, so its heap
# round runs only the first ops
HEAP_OPS = {"queries": 128}
TAIL_PERCENTILES = (90, 99, 99.9)


class BenchError(RuntimeError):
    pass


def nearest_rank(p: float, n: int) -> int:
    return max(1, math.ceil(Fraction(str(p)) * n / 100))


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    return sorted(values)[nearest_rank(p, len(values)) - 1]


def tail_percentile(n: int) -> float:
    """Highest percentile of TAIL_PERCENTILES with at least ten of n
    samples beyond its nearest rank."""
    fitting = [p for p in TAIL_PERCENTILES if n - nearest_rank(p, n) >= 10]
    if not fitting:
        raise BenchError(f"{n} samples: too few for a tail percentile")
    return fitting[-1]


def spawn() -> tuple[subprocess.Popen, float]:
    """Start a worker; return it with the seconds until normsums imported."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py")],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        cwd=ROOT,
        env=env,
        text=True,
        start_new_session=True,
    )
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise BenchError("worker failed to import normsums")
    return proc, setup


def run_round(job: dict) -> tuple[float, dict]:
    proc, setup = spawn()
    try:
        out, _ = proc.communicate(json.dumps(job), timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchError(f"worker exceeded {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    return setup, json.loads(out.strip().splitlines()[-1])


class Run:
    """Rounds of one workload on one op list, with their checks."""

    def __init__(self, workload: str, seed: int, spec: dict):
        self.workload = workload
        self.ops = workloads.make_ops(workload, seed)
        self.spec = spec
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.host: dict[str, float] = {}
        self.scaled_walls: list[float] = []

    def round(self, mode: str, ops: list | None = None) -> tuple[float, dict]:
        ops = self.ops if ops is None else ops
        metric_names = [m["name"] for m in self.spec["per_layer"]]
        trace_dir = tempfile.mkdtemp(prefix=".trace-", dir=HERE) if mode != "plain" else None
        job = {
            "workload": self.workload,
            "ops": ops,
            "mode": mode,
            "layers": layertrace.layers_for(metric_names),
            "metrics": metric_names,
            "trace_dir": trace_dir,
        }
        try:
            setup, res = run_round(job)
        finally:
            if trace_dir:
                shutil.rmtree(trace_dir)
        self.attempted += res["attempted"]
        self.failed += res["failed"]
        self.errors += res["errors"]
        return setup, res

    def timed(self, seconds: float) -> dict[str, float]:
        """End-to-end metrics, every time scaled to the nominal host speed
        by the probe its worker took (see hostspeed.py)."""
        setups, rounds = [], []
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < seconds:
            setup, res = self.round("plain")
            setups.append((setup, res["setup_probe_s"]))
            rounds.append(res)
            # set-up-only workers, spread over the run so that the set-up
            # median does not rest on one stretch of host speed
            due = SETUP_SAMPLES * min(1.0, (time.perf_counter() - start) / seconds)
            while len(setups) < due:
                setups.append(spawn_and_stop())
        while len(setups) < SETUP_SAMPLES:
            setups.append(spawn_and_stop())
        self.ops_per_round = rounds[0]["attempted"]
        # the rule picks the percentile from one round's ops, so it does not
        # depend on how many rounds fit; latencies of all rounds are pooled
        tail = tail_percentile(self.ops_per_round)
        walls = [r["scaled_wall_s"] for r in rounds]
        if self.workload == "tables":
            # the pool runs a call's fields side by side, so no field's own
            # latency can be seen: each field gets its round's time per field
            latencies = [w / r["attempted"] for r, w in zip(rounds, walls) for _ in r["scaled_latencies"]]
        else:
            latencies = [x for r in rounds for x in r["scaled_latencies"]]
        if not latencies:
            raise BenchError("no op passed its check")
        self.samples = {"rounds": len(rounds), "set-up samples": len(setups)}
        self.round_walls = [r["wall_s"] for r in rounds]
        med = statistics.median
        self.host = {
            "probe_us": med(r["probe_s"] for r in rounds) * 1e6,
            "raw setup_s": med(raw for raw, _ in setups),
            "raw wall_s": med(self.round_walls),
        }
        self.scaled_walls = walls
        return {
            "setup_s": med(raw * hostspeed.scale(probe) for raw, probe in setups),
            "wall_s": med(walls),
            "ops_per_s": med((r["attempted"] - r["failed"]) / w for r, w in zip(rounds, walls)),
            "op_p50_ms": percentile(latencies, 50) * 1e3,
            f"op_p{tail:g}_ms": percentile(latencies, tail) * 1e3,
            "peak_rss_mb": med(r["peak_rss_kb"] / 1024 for r in rounds),
        }

    def traced(self, seconds: float) -> dict[str, float]:
        plain, spans = [], []
        start = time.perf_counter()
        while not spans or time.perf_counter() - start < seconds / 3:
            plain.append(self.round("plain")[1])
            spans.append(self.round("spans")[1])
        heap_ops = self.ops[: HEAP_OPS.get(self.workload)]
        heap = self.round("heap", heap_ops)[1]
        self.ops_per_round = spans[0]["attempted"]
        self.absent = spans[0]["absent"]
        self.samples = {"traced rounds": len(spans), "untraced rounds": len(plain), "heap round ops": len(heap_ops)}
        self.round_walls = [r["wall_s"] for r in plain + spans]
        med = statistics.median
        metrics = {name: med(r["layers"][name] for r in spans) for name in spans[0]["layers"]}
        # host noise only adds time, so the fastest round of each kind is
        # the best estimate of its cost
        metrics["trace.overhead_s"] = min(r["wall_s"] for r in spans) - min(r["wall_s"] for r in plain)
        metrics["trace.heap_peak_mb"] = heap["heap_peak_bytes"] / 2**20
        return metrics


def spawn_and_stop() -> tuple[float, float]:
    """Set-up time of a worker that does nothing else, and its probe."""
    proc, setup = spawn()
    try:
        out, _ = proc.communicate("", timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchError(f"set-up worker exceeded {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchError(f"set-up worker exited with {proc.returncode}")
    return setup, json.loads(out.strip().splitlines()[-1])["setup_probe_s"]


def report(run: Run, metrics: dict, units: dict, trace: bool) -> None:
    samples = ", ".join(f"{key} {n}" for key, n in run.samples.items())
    print(f"workload {run.workload}: {run.ops_per_round} ops per round; {samples}")
    print("  raw wall_s of each round: " + " ".join(f"{w:.3f}" for w in run.round_walls))
    if run.host:
        print("  scaled wall_s of each round: " + " ".join(f"{w:.3f}" for w in run.scaled_walls))
        host = ", ".join(f"{key} {value:.6g}" for key, value in run.host.items())
        print(f"  host speed: {host}; times below are scaled to a probe of {hostspeed.NOMINAL_PROBE_S * 1e6:g} us")
    for name, value in metrics.items():
        if name in units:
            unit, note = units[name], ""
        else:  # the tail latency, printed but not a metric of BENCHMARK.json
            unit, note = "ms", "  (printed only, see bench/README.md)"
        if trace and name.rsplit(".", 1)[0] in run.absent:
            note = "  absent"
        print(f"  {name:<44} {value:>14.6g} {unit}{note}")
    ratio = run.failed / run.attempted if run.attempted else 0.0
    print(f"  {'failed_ratio':<44} {ratio:>14.6g} 1  ({run.failed} of {run.attempted})")
    for error in run.errors[:5]:
        print(f"  ! {error}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "normsums" / "__init__.py").is_file():
        print(f"error: no normsums sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}

    run = Run(args.workload, args.seed, spec)
    try:
        metrics = run.traced(args.seconds) if args.trace else run.timed(args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report(run, metrics, units, args.trace)
    metrics = {name: metrics[name] for name in units}
    print(
        json.dumps(
            {
                "correct": run.failed == 0,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
