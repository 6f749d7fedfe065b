#!/usr/bin/env python3
"""Host benchmark for the VODSM simulator.

Builds the simulator and the workload driver (perfbench/CMakeLists.txt),
then runs one workload, each repetition in a fresh process, and prints every
metric by name with its unit. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --workload is_vc_sd_64p --seed 0 \\
        --seconds 45 --trace 0

--trace 0 reports the end-to-end metrics of untraced runs; --trace 1 runs
untraced/traced process pairs and reports the per-layer metrics. Seed 0
gives the inputs of the committed baselines and turns on the cross-check
against BENCH_scaling.json / BENCH_tables.json. See perfbench/README.md.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_SEED = 0

# The committed baseline each workload's default-seed cells must reproduce,
# and the fewest measured repetitions in a --trace 0 run. On a shared host
# one process's time swings by a quarter or more, so the median always
# takes several samples.
WORKLOADS = {
    "is_vc_sd_64p": ("BENCH_scaling.json", 5),
    "gauss_lrc_d_16p": ("BENCH_tables.json", 3),
}

# Setup-only processes per run, on top of the setup every measured process
# pays; setup_s is the median of all of them.
SETUP_REPEATS = 15

# The whole run, build check included, must end well inside 180 s.
BUDGET_S = 165

# name -> unit. End-to-end metrics come from --trace 0 runs.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_s": "sim_s",
}

# Per-layer metrics from --trace 1 runs. Counts repeat exactly run to run;
# the rest are host costs (medians over the run's process pairs).
PER_LAYER_COUNTS = {
    "sim.events": "count",
    "net.messages": "count",
    "net.frames": "count",
    "net.payload_mb": "MB",
    "net.wire_mb": "MB",
    "net.goodput_ratio": "ratio",
    "net.retransmissions": "count",
    "net.drops": "count",
    "mem.twins": "count",
    "mem.diffs_created": "count",
    "mem.diffs_applied": "count",
    "mem.diff_mb": "MB",
    "mem.peak_twin_mb": "MB",
    "mem.peak_diff_mb": "MB",
    "dsm.page_faults": "count",
    "dsm.diff_requests": "count",
    "dsm.notices": "count",
    "dsm.acquires": "count",
    "dsm.barriers": "count",
    "dsm.barrier_wait_s": "sim_s",
    "dsm.acquire_wait_s": "sim_s",
    "dsm.fault_diff_s": "sim_s",
    "obs.trace_events": "count",
    "obs.trace_mb": "MB",
}
PER_LAYER_COSTS = {
    "sim.ns_per_event": "ns",
    "sim.run_share": "ratio",
    "net.ns_per_msg": "ns",
    "net.run_share": "ratio",
    "mem.ns_per_diff_page": "ns",
    "mem.run_share": "ratio",
    "dsm_vopp.run_share": "ratio",
    "vopp.run_s": "s",
    "apps.check_s": "s",
    "obs.record_overhead": "ratio",
    "obs.breakdown_s": "s",
    "obs.critpath_s": "s",
    "obs.pageheat_s": "s",
    "obs.profile_s": "s",
    "harness.busy_ratio": "ratio",
    "harness.max_cell_s": "s",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


def build(build_dir):
    """Configures and builds the workload driver from source."""
    out = sys.stderr
    rc = subprocess.call(
        ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], stdout=out, stderr=out)
    if rc != 0:
        raise BenchError("cmake configure failed (exit %d)" % rc)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    rc = subprocess.call(["cmake", "--build", build_dir, "-j", jobs],
                         stdout=out, stderr=out)
    if rc != 0:
        raise BenchError("build failed (exit %d)" % rc)
    return os.path.join(build_dir, "vodsm_perfbench")


def child_env():
    # Pin the host knobs: cell sharding and the engine schedule come from
    # the workload definition, never from the caller's environment.
    env = dict(os.environ)
    env.pop("VODSM_JOBS", None)
    env.pop("VODSM_SIM_THREADS", None)
    return env


def run_child(binary, build_dir, args, deadline):
    """Runs one workload process; returns (result, spawn time, rusage)."""
    with tempfile.TemporaryFile(dir=build_dir) as out:
        spawned = time.monotonic()
        proc = subprocess.Popen([binary] + args, stdout=out, env=child_env())
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid != 0:
                break
            if time.monotonic() > deadline:
                proc.kill()
                os.wait4(proc.pid, 0)
                proc.returncode = -9
                raise BenchError("%s did not finish within the run's time "
                                 "budget" % " ".join(args))
            time.sleep(0.01)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        lines = out.read().decode(errors="replace").strip().splitlines()
    if not lines:
        raise BenchError("%s printed no result (exit %d)" %
                         (" ".join(args), proc.returncode))
    result = json.loads(lines[-1])
    if proc.returncode != 0 and not result.get("errors"):
        raise BenchError("%s exited %d" % (" ".join(args), proc.returncode))
    return result, spawned, usage


def another_rep(start, took, reps, min_reps, seconds, deadline):
    """One more repetition if the minimum is not met yet, or if one as long
    as the last still ends inside the measured seconds."""
    now = time.monotonic()
    if now + 1.2 * took > deadline:
        return False
    return reps < min_reps or now - start + took <= seconds


def cell_key(cell):
    return (cell["id"], cell["sim_seconds"], cell["messages"],
            cell["payload_bytes"])


def cross_check(workload, cells):
    """Default-seed cells must match the committed baseline exactly."""
    baseline = WORKLOADS[workload][0]
    path = os.path.join(ROOT, baseline)
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        return ["cannot read %s: %s" % (path, e)]
    # A cell id may appear in more than one table; every copy must match.
    committed = {}
    for table in doc["tables"]:
        for c in table["cells"]:
            committed.setdefault(c["id"], []).append(c)
    problems = []
    for got in cells:
        if got["id"] not in committed:
            problems.append("%s is not in %s" % (got["id"], baseline))
        for want in committed.get(got["id"], []):
            # The baselines print simulated seconds with six decimals.
            if ("%.6f" % want["sim_seconds"] != "%.6f" % got["sim_seconds"] or
                    want["messages"] != got["messages"] or
                    want["payload_bytes"] != got["payload_bytes"]):
                problems.append(
                    "%s: sim %.6f s / %d msgs / %d B, committed %.6f s / "
                    "%d msgs / %d B" % (got["id"], got["sim_seconds"],
                                        got["messages"], got["payload_bytes"],
                                        want["sim_seconds"], want["messages"],
                                        want["payload_bytes"]))
    return problems


class Tally:
    """Cells attempted and failed over every process of the run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, result):
        self.attempted += result.get("attempted", 0)
        self.failed += result.get("failed", 0)
        self.problems += result.get("errors", [])


def run_end_to_end(binary, build_dir, a, deadline, tally, record):
    base = ["--workload=" + a.workload, "--seed=%d" % a.seed]
    min_reps = WORKLOADS[a.workload][1]
    setups = []
    for _ in range(SETUP_REPEATS):
        r, spawned, _ = run_child(binary, build_dir, base + ["--mode=setup"],
                                  deadline)
        setups.append(r["first_cell_at"] - spawned)
        record["host"] = r["host"]
    reps = []
    start = time.monotonic()
    while True:
        t = time.monotonic()
        r, spawned, usage = run_child(binary, build_dir,
                                      base + ["--mode=run"], deadline)
        tally.add(r)
        setups.append(r["first_cell_at"] - spawned)
        reps.append({"wall_s": r["wall_s"], "sim_s": r["sim_s"],
                     "peak_rss_mb": usage.ru_maxrss / 1024.0,
                     "cells": r["cells"]})
        if not another_rep(start, time.monotonic() - t, len(reps), min_reps,
                           a.seconds, deadline):
            break
    # Simulated results are deterministic: every repetition must agree.
    if any([cell_key(c) for c in rep["cells"]] !=
           [cell_key(c) for c in reps[0]["cells"]] for rep in reps):
        tally.problems.append("repetitions disagree on simulated results")
    record["setup_s_samples"] = setups
    record["reps"] = [{k: v for k, v in rep.items() if k != "cells"}
                      for rep in reps]
    metrics = {
        "wall_s": statistics.median(rep["wall_s"] for rep in reps),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reps),
        "sim_s": reps[0]["sim_s"],
    }
    return metrics, reps[0]["cells"]


def run_per_layer(binary, build_dir, a, deadline, tally, record, spans):
    base = ["--workload=" + a.workload, "--seed=%d" % a.seed]
    pairs = []
    start = time.monotonic()
    while True:
        t = time.monotonic()
        plain, _, _ = run_child(binary, build_dir, base + ["--mode=run"],
                                deadline)
        tally.add(plain)
        extra = ["--spans=" + spans] if not pairs else []
        traced, _, _ = run_child(binary, build_dir,
                                 base + ["--mode=traced"] + extra, deadline)
        tally.add(traced)
        record["host"] = traced["host"]
        if tally.failed or "counts" not in traced:
            raise BenchError("cells failed: %s" % "; ".join(tally.problems))
        # Observation must not perturb the simulation.
        if ([cell_key(c) for c in plain["cells"]] !=
                [cell_key(c) for c in traced["cells"]]):
            tally.problems.append("traced cells differ from untraced cells")
        pairs.append((plain, traced))
        if not another_rep(start, time.monotonic() - t, len(pairs), 1,
                           a.seconds, deadline):
            break
    counts = pairs[0][1]["counts"]
    if any(traced["counts"] != counts for _, traced in pairs):
        tally.problems.append("per-layer counts differ between repetitions")

    def costs(plain, traced):
        c = traced["counts"]
        t = traced["timings"]
        run_ns = plain["run_s"] * 1e9
        sim_share = c["sim.events"] * t["sim.ns_per_event"] / run_ns
        net_share = c["net.messages"] * t["net.ns_per_msg"] / run_ns
        mem_share = (c["mem.diff_pages"] * t["mem.ns_per_diff_create"] +
                     c["mem.diffs_applied"] * t["mem.ns_per_diff_apply"]
                     ) / run_ns
        return {
            "sim.ns_per_event": t["sim.ns_per_event"],
            "sim.run_share": sim_share,
            "net.ns_per_msg": t["net.ns_per_msg"],
            "net.run_share": net_share,
            "mem.ns_per_diff_page": (t["mem.ns_per_diff_create"] +
                                     t["mem.ns_per_diff_apply"]),
            "mem.run_share": mem_share,
            "dsm_vopp.run_share": 1.0 - sim_share - net_share - mem_share,
            "vopp.run_s": plain["run_s"],
            "apps.check_s": (plain["check_s"] + traced["check_s"]) / 2,
            "obs.record_overhead": t["traced_run_s"] / plain["run_s"] - 1.0,
            "obs.breakdown_s": t["obs.breakdown_s"],
            "obs.critpath_s": t["obs.critpath_s"],
            "obs.pageheat_s": t["obs.pageheat_s"],
            "obs.profile_s": t["obs.profile_s"],
            "harness.busy_ratio": t["harness.busy_ratio"],
            "harness.max_cell_s": t["harness.max_cell_s"],
        }

    per_pair = [costs(p, t) for p, t in pairs]
    record["pairs"] = per_pair
    metrics = {name: counts[name] for name in PER_LAYER_COUNTS}
    for name in PER_LAYER_COSTS:
        metrics[name] = statistics.median(c[name] for c in per_pair)
    return metrics, pairs[0][1]["cells"]


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=45)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()
    if a.seed < 0 or a.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    try:
        binary = build(build_dir)
    except BenchError as e:
        log("perfbench: %s" % e)
        return 1
    deadline = time.monotonic() + BUDGET_S

    results_dir = os.path.join(build_dir, "perfbench-results")
    os.makedirs(results_dir, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (a.workload, a.seed, a.trace)
    record = {"workload": a.workload, "seed": a.seed, "seconds": a.seconds,
              "trace": a.trace}
    tally = Tally()
    try:
        if a.trace:
            units = dict(PER_LAYER_COUNTS, **PER_LAYER_COSTS)
            metrics, cells = run_per_layer(
                binary, build_dir, a, deadline, tally, record,
                os.path.join(results_dir, stem + ".spans.json"))
        else:
            units = END_TO_END
            metrics, cells = run_end_to_end(binary, build_dir, a, deadline,
                                            tally, record)
    except BenchError as e:
        log("perfbench: %s" % e)
        for problem in tally.problems:
            log("perfbench: %s" % problem)
        return 1

    if a.seed == DEFAULT_SEED:
        mismatches = cross_check(a.workload, cells)
        record["cross_check"] = mismatches or "ok"
        tally.problems += ["cross-check: " + m for m in mismatches]
    if any(not math.isfinite(v) for v in metrics.values()):
        tally.problems.append("non-finite metric")
    correct = tally.failed == 0 and not tally.problems

    host = record["host"]
    print("perfbench: workload=%s seed=%d seconds=%d trace=%d" %
          (a.workload, a.seed, a.seconds, a.trace))
    print("host: nproc=%d mem_total_mb=%.0f compiler=%s build_type=%s" %
          (host["nproc"], host["mem_total_mb"], host["compiler"],
           host["build_type"]))
    for name, value in metrics.items():
        print("%-22s %18.6f %s" % (name, value, units[name]))
    error_rate = tally.failed / max(tally.attempted, 1)
    print("%-22s %18.6f share (%d of %d cells failed)" %
          ("error_rate", error_rate, tally.failed, tally.attempted))
    if "cross_check" in record:
        print("cross-check vs %s: %s" % (
            WORKLOADS[a.workload][0],
            "ok" if record["cross_check"] == "ok" else "MISMATCH"))
    for problem in tally.problems:
        print("problem: %s" % problem)

    record.update(metrics=metrics, error_rate=error_rate, correct=correct,
                  problems=tally.problems)
    with open(os.path.join(results_dir, stem + ".json"), "w") as f:
        json.dump(record, f, indent=1)
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
