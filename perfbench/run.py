#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the rdmadl simulator.

Builds perfbench/workloads.cc against the library sources (CMake, into
.bench_build/perfbench), runs one workload and prints its metrics; the last
line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py              # every workload, both modes
    python3 perfbench/run.py --selftest   # same-seed determinism check

--trace 0 reports the end-to-end metrics, measured with tracing off.
--trace 1 reports the per-layer metrics: counters from an untraced instance
plus virtual-time splits from a second, traced instance that runs the same
steps; every virtual-clock value and count of the two must agree exactly.
README.md in this directory defines every metric and workload.
"""

import argparse
import bisect
import json
import os
import statistics
import subprocess
import sys

sys.dont_write_bytecode = True

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")

WORKLOADS = ["ps-inception-8", "allreduce-auto-1000", "ps-vgg16-congested-16"]

# Set-ups per end-to-end run; setup_s is their median.
SETUP_REPS = 3

# Host times are scaled to this machine speed: seconds the calibration kernel
# in workloads.cc takes on a quiet 4-vCPU Xeon VM. Each set-up and step is
# multiplied by this over the kernel's time measured beside it (README.md).
CALIBRATION_REFERENCE_S = 0.020

# allreduce-auto-1000's warm-up op is BENCH_7.json's hier-4MiB / rack32-o4 /
# 1000-host row (virtual_ms printed to six significant digits, QPs, lanes).
HISTORY = {"virtual_ms": "6.82455", "nic.qps": 12000, "pool.lanes": 4500}

# Counters read as levels, never differenced: resource gauges, and the
# set-up-time counters, whose totals since construction are the point.
GAUGES = {"nic.qps", "nic.max_qps", "pool.lanes", "pool.hits", "pool.creates",
          "nic.registrations", "coll.setup_rpcs", "net.peak_backlog_ns"}

# The virtual-clock values and counters of one instance: two instances run
# with the same seed and steps must agree on all of them exactly.
MODEL_KEYS = ("warmup_virtual_ms", "step_virtual_ms", "after_warmup", "before", "counted",
              "after")


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures and builds the binary; False if that fails."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: library sources not found under", ROOT)
        return False
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache) as f:
            if "CMAKE_HOME_DIRECTORY:INTERNAL=" + SOURCE + "\n" not in f.read():
                subprocess.run(["cmake", "-E", "rm", "-rf", BUILD], check=False)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", SOURCE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("perfbench: build failed:", " ".join(cmd))
            return False
    return True


def run_binary(workload, seed, seconds, extra):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd + extra, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{BINARY} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def delta(sample, end, name):
    value = sample[end].get(name, 0.0)
    return value if name in GAUGES else value - sample["before"].get(name, 0.0)


def ratio(num, den):
    return num / den if den else 0.0


def checks_of(raw, sample):
    """Output checks of one binary run: name -> passed."""
    checks = {"counted_steps_ran": bool(sample["counted"])}
    checks.update(sample["checks"])
    checks.update(raw["standalone_checks"])
    if raw["workload"] == "allreduce-auto-1000":
        warm = sample["after_warmup"]
        checks["history_bench7"] = (
            "%.6g" % sample["warmup_virtual_ms"] == HISTORY["virtual_ms"]
            and warm.get("nic.qps") == HISTORY["nic.qps"]
            and warm.get("pool.lanes") == HISTORY["pool.lanes"])
    return checks


def outcome(raw, samples, checks):
    """(attempted, failed): every step attempted plus every output check."""
    attempted = len(checks)
    failed = sum(1 for ok in checks.values() if not ok)
    for s in samples:
        attempted += len(s["setup_s"]) + len(s["step_host_s"]) + s["steps_failed"]
        failed += s["steps_failed"]
        if s["failure"]:
            log("perfbench: failure:", s["failure"])
            if not s["steps_failed"]:  # Failed outside a timed step (set-up).
                attempted += 1
                failed += 1
    return attempted, failed


def calibrated(times, calibration):
    """Scales each host time by the reference over the mean of the two
    calibration runs around it."""
    return [t * CALIBRATION_REFERENCE_S / ((calibration[i] + calibration[i + 1]) / 2)
            for i, t in enumerate(times)]


def median(values):
    return statistics.median(values) if values else 0.0


def host_steps(sample):
    return calibrated(sample["step_host_s"], sample["calibration_s"])


def setups(sample, key="setup_s"):
    return calibrated(sample[key], sample["setup_calibration_s"])


def virtual_ms_per_step(sample):
    """Interquartile mean of the counted steps' virtual times: the middle half
    of the sorted values, averaged. A few unlucky orderings cannot swing it,
    as they would a mean, and unlike a median it does not sit on one of the
    few discrete values a seed-jittered step takes."""
    counted = sorted(sample["step_virtual_ms"][:sample["counted_steps"]])
    cut = len(counted) // 4
    middle = counted[cut:len(counted) - cut]
    return sum(middle) / len(middle) if middle else 0.0


def end_to_end(raw):
    s = raw["untraced"]
    metrics = {
        "virtual_step_ms": (virtual_ms_per_step(s), "ms"),
        "host_step_s": (median(host_steps(s)), "s"),
        "setup_s": (median(setups(s)), "s"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
    }
    # Printed only: the raw host times, and the kernel time they were scaled by.
    extra = {
        "host_step_s uncalibrated": (median(s["step_host_s"]), "s"),
        "setup_s uncalibrated": (median(s["setup_s"]), "s"),
        "calibration kernel": (median(s["calibration_s"]) * 1e3, "ms"),
    }
    checks = checks_of(raw, s)
    return metrics, checks, [s], extra


def spans_by_track(trace_path):
    with open(trace_path) as f:
        events = json.load(f)["traceEvents"]
    names = {e["tid"]: e["args"]["name"] for e in events if e.get("ph") == "M"}
    tracks = {}
    for e in events:
        if e.get("ph") == "X":
            start = e["ts"] * 1e3  # ns
            end = start + e["dur"] * 1e3
            tracks.setdefault(names[e["tid"]], []).append((start, end, e["name"]))
    return tracks


def covered(spans, lo, hi):
    """Length of the union of |spans| clipped to [lo, hi]."""
    total, end = 0.0, lo
    for start, stop in sorted((max(a, lo), min(b, hi)) for a, b in spans):
        if stop <= max(start, end):
            continue
        total += stop - max(start, end)
        end = stop
    return total


def traced_splits(raw, trace_path, counted):
    """Virtual-time shares of the first |counted| traced steps, per layer, and
    the same splits in ms for the human-readable table."""
    out = {"runtime.compute_busy_share": 0.0, "runtime.compute_idle_share": 0.0,
           "collective.tree_share": 0.0, "collective.ring_share": 0.0}
    ms = {}
    if trace_path is None:  # The traced instance never ran a step.
        return out, ms
    tracks = spans_by_track(trace_path)
    if raw["workload"].startswith("ps-"):
        steps = sorted((a, b) for a, b, _ in tracks.get("session", []))[:counted]
        workers = [[(a, b) for a, b, _ in spans] for track, spans in tracks.items()
                   if track.startswith("worker:") and track.endswith(" compute")]
        busy = [max(covered(w, lo, hi) for w in workers) for lo, hi in steps]
        shares = [b / (hi - lo) for b, (lo, hi) in zip(busy, steps)]
        out["runtime.compute_busy_share"] = statistics.median(shares)
        out["runtime.compute_idle_share"] = 1.0 - out["runtime.compute_busy_share"]
        ms["runtime.compute_busy_ms"] = statistics.median(busy) / 1e6
        ms["runtime.compute_idle_ms"] = statistics.median(
            (hi - lo) - b for b, (lo, hi) in zip(busy, steps)) / 1e6
    else:
        ops = sorted((a, b) for a, b, _ in tracks.get("collective", []))[:counted]
        starts = [lo for lo, _ in ops]
        for phase, key in (("h-tree", "tree"), ("h-ring", "ring")):
            # (op, rank track) -> that rank's spans of this phase inside the op.
            spans_in = {}
            for track, spans in tracks.items():
                if "ring[" not in track:
                    continue
                for a, b, name in spans:
                    op = bisect.bisect_right(starts, a) - 1
                    if name.startswith(phase) and 0 <= op:
                        spans_in.setdefault((op, track), []).append((a, b))
            per_op = []
            for op, (lo, hi) in enumerate(ops):
                times = [covered(v, lo, hi) for (o, _), v in spans_in.items() if o == op]
                per_op.append(median(times))
            shares = [t / (hi - lo) for t, (lo, hi) in zip(per_op, ops)]
            out[f"collective.{key}_share"] = median(shares)
            ms[f"collective.{key}_ms"] = median(per_op) / 1e6
    return out, ms


def per_layer(raw, trace_path):
    s, t = raw["untraced"], raw["traced"]
    checks = checks_of(raw, s)
    checks.update({"traced_" + k: v for k, v in t["checks"].items()})
    # Tracing must not perturb the model: same virtual times, same counts.
    checks["trace_reproduces_model"] = bool(t["step_virtual_ms"]) and all(
        s[k] == t[k] for k in MODEL_KEYS)
    n = s["counted_steps"]
    d = lambda name: delta(s, "counted", name)
    per_step = lambda name: ratio(d(name), n)
    step_ns = virtual_ms_per_step(s) * 1e6 * n
    sends = d("comm.zero_copy_sends") + d("comm.fallback_sends")
    polls = d("exec.polls")
    window_events = delta(s, "after", "sim.events")
    host_plain = host_steps(s)
    m = {
        "sim.events_per_step": (per_step("sim.events"), "count"),
        "sim.host_ns_per_event": (ratio(sum(host_plain) * 1e9, window_events), "ns"),
        "sim.tracer_overhead": (ratio(median(host_steps(t)), median(host_plain)), "ratio"),
        "setup.construct_s": (median(setups(s, "construct_s")), "s"),
        "setup.warmup_step_s": (median(setups(s, "warmup_s")), "s"),
        "collective.chunk_writes_per_op": (per_step("coll.chunk_writes"), "count"),
        "collective.mb_per_op": (per_step("coll.bytes") / 2**20, "MB"),
        "collective.setup_rpcs": (d("coll.setup_rpcs"), "count"),
        "runtime.nodes_per_step": (per_step("exec.nodes"), "count"),
        "runtime.recv_polls_per_step": (per_step("exec.polls"), "count"),
        "runtime.recv_poll_hit_ratio": (ratio(polls - d("exec.failed_polls"), polls), "ratio"),
        "comm.sends_per_step": (ratio(sends, n), "count"),
        "comm.zero_copy_share": (ratio(d("comm.zero_copy_sends"), sends), "ratio"),
        "comm.coalesced_share": (ratio(d("comm.coalesced_sends"), sends), "ratio"),
        "comm.striped_share": (ratio(d("comm.striped_sends"), sends), "ratio"),
        "comm.fallback_sends": (d("comm.fallback_sends"), "count"),
        "rdma.wrs_per_step": (per_step("nic.wrs"), "count"),
        "rdma.doorbells_per_step": (per_step("nic.doorbells"), "count"),
        "rdma.wrs_per_doorbell": (ratio(d("nic.wrs"), d("nic.doorbells")), "ratio"),
        "rdma.write_mb_per_step": (per_step("nic.write_bytes") / 2**20, "MB"),
        "rdma.retransmissions_per_step": (per_step("nic.retransmissions"), "count"),
        "rdma.cnps_per_step": (per_step("nic.cnps"), "count"),
        "rdma.dcqcn_decreases_per_step": (per_step("nic.dcqcn_decreases"), "count"),
        "rdma.pacing_share": (ratio(d("nic.pacing_ns"), step_ns), "ratio"),
        "rdma.qps_total": (d("nic.qps"), "count"),
        "rdma.max_nic_qps": (d("nic.max_qps"), "count"),
        "rdma.qp_pool_lanes": (d("pool.lanes"), "count"),
        "rdma.qp_pool_hit_ratio": (
            ratio(d("pool.hits"), d("pool.hits") + d("pool.creates")), "ratio"),
        "rdma.mr_registrations": (d("nic.registrations"), "count"),
        "net.transfers_per_step": (per_step("net.transfers"), "count"),
        "net.mb_per_step": (per_step("net.bytes") / 2**20, "MB"),
        "net.ecn_marks_per_step": (per_step("net.ecn_marks"), "count"),
        "net.pause_share": (ratio(d("net.paused_ns"), step_ns), "ratio"),
        "net.peak_backlog_share": (ratio(d("net.peak_backlog_ns"), step_ns / max(n, 1)), "ratio"),
        "net.overflow_drops": (d("net.overflow_drops"), "count"),
    }
    splits, extra = traced_splits(raw, trace_path if t["step_virtual_ms"] else None, n)
    m.update({k: (v, "ratio") for k, v in splits.items()})
    return m, checks, [s, t], extra


def measure(workload, seed, seconds, trace):
    """One benchmark run: (result object, human-readable lines)."""
    if trace:
        trace_path = os.path.join(BUILD, f"trace-{workload}.json")
        raw = run_binary(workload, seed, seconds, ["--setup-reps", "1", "--trace-out", trace_path])
        metrics, checks, samples, traced_ms = per_layer(raw, trace_path)
        extra = {k: (v, "ms   (traced, virtual)") for k, v in traced_ms.items()}
    else:
        raw = run_binary(workload, seed, seconds, ["--setup-reps", str(SETUP_REPS)])
        metrics, checks, samples, extra = end_to_end(raw)
    attempted, failed = outcome(raw, samples, checks)
    s = raw["untraced"]
    lines = [f"== {workload}  seed {seed}  {'traced per-layer' if trace else 'end-to-end'} ==",
             f"   {len(s['step_host_s'])} timed steps ({s['counted_steps']} counted), "
             f"{len(s['setup_s'])} set-ups"]
    for name, (value, unit) in metrics.items():
        lines.append(f"   {name:<32} {value:>16.6f} {unit}")
    for name, (value, unit) in extra.items():
        lines.append(f"   {name:<32} {value:>16.6f} {unit}")
    if not trace:
        lines.append(f"   {'error_rate':<32} {ratio(failed, attempted):>16.6f} ratio")
    for name, ok in checks.items():
        if not ok:
            lines.append(f"   CHECK FAILED: {name}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, lines


def selftest(seed):
    """Two short same-seed runs per workload must agree on every virtual-clock
    value and every count."""
    ok = True
    for workload in WORKLOADS:
        runs = [run_binary(workload, seed, 1, ["--setup-reps", "1", "--steps", "2"])
                for _ in range(2)]
        a, b = (r["untraced"] for r in runs)
        same = bool(a["step_virtual_ms"]) and not a["failure"] and all(
            a[k] == b[k] for k in MODEL_KEYS)
        print(f"selftest {workload}: {'identical' if same else 'DIFFERENT'}")
        ok = ok and same
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=16)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not build():
        return 1
    if args.selftest:
        return 0 if selftest(args.seed) else 1
    if args.workload is None:
        all_correct = True
        for workload in WORKLOADS:
            for trace in (0, 1):
                result, lines = measure(workload, args.seed, args.seconds, trace)
                print("\n".join(lines), flush=True)
                all_correct = all_correct and result["correct"]
        return 0 if all_correct else 1
    result, lines = measure(args.workload, args.seed, args.seconds, args.trace)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
