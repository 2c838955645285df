"""One benchmark round in a fresh process, so the library's caches start
cold as they do for every CLI call.

Protocol: the worker imports normsums and prints "ready" (the parent
times spawn-to-ready as set-up), then reads one JSON job from stdin:

    {"workload": ..., "ops": [...], "mode": "plain" | "spans" | "heap",
     "layers": [...], "metrics": [...], "trace_dir": ...}

runs and checks the ops, and prints one JSON result line.  An empty
stdin ends the worker after set-up, with one JSON line that holds only the
host-speed probe taken right after set-up (see hostspeed.py).  "spans" installs the tracer; "heap"
runs tracemalloc, which slows the work several times over, and installs
the tracer's wrappers without recording spans, only so that pool workers
report their heap peaks.
"""

import sys

import normsums  # noqa: F401  (set-up ends when this import returns)

print("ready", flush=True)

import hostspeed  # noqa: E402

# host speed just after set-up, to scale the set-up time by
probes = hostspeed.Probes()
probes.take(hostspeed.SETUP_PROBES)
setup_probe_s = probes.median()

import json  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402

import normsums.cli  # noqa: E402,F401  (imported before tracing so its bindings get wrapped)

import layertrace  # noqa: E402
import workloads  # noqa: E402


def peak_rss_kb() -> int:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children)


def main() -> None:
    text = sys.stdin.read()
    if not text:  # a set-up probe
        print(json.dumps({"setup_probe_s": setup_probe_s}), flush=True)
        return
    job = json.loads(text)
    workload, ops, mode = job["workload"], job["ops"], job["mode"]
    tracer = None
    if mode != "plain":
        tracer = layertrace.Tracer(job["trace_dir"], record=mode == "spans")
        tracer.install(job["layers"])
    if mode == "heap":
        tracemalloc.start()
    round_probes = hostspeed.Probes()
    log = workloads.OpLog(round_probes)
    t0 = time.perf_counter()
    workloads.run_ops(workload, ops, log)
    wall = time.perf_counter() - t0 - round_probes.spent
    round_probes.take()  # so that even a one-op round has a probe
    scales = round_probes.scales(list(zip(log.starts, log.latencies)))
    latencies = [x * k for x, k in zip(log.latencies, scales)]
    # the round's time scaled as its ops were, weighted by their time
    wall_scale = sum(latencies) / sum(log.latencies) if latencies else hostspeed.scale(round_probes.median())
    result = {
        "setup_probe_s": setup_probe_s,
        "probe_s": round_probes.median(),
        "wall_s": wall,
        "scaled_wall_s": wall * wall_scale,
        "scaled_latencies": latencies,
        "attempted": log.attempted,
        "failed": log.failed,
        "errors": log.errors,
        "peak_rss_kb": peak_rss_kb(),
    }
    if tracer is not None:
        spans, counts, heap = tracer.collect()
        result["absent"] = tracer.absent
        result["heap_peak_bytes"] = heap
        if mode == "spans":
            result["layers"] = layertrace.layer_metrics(job["metrics"], spans, counts)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
