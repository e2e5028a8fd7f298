#!/usr/bin/env python3
"""Wall-clock benchmark of the network QoS monitor, with a per-layer ledger.

Usage (from the repository root):

    python3 wallbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the benchmark binary (wallbench/CMakeLists.txt) into $CARGO_TARGET_DIR, or
.bench_build when unset, runs one workload for S seconds and prints, as
its last stdout line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics: the mean host time per
simulated 2 s poll interval and the median set-up time, each phase
scaled by a reference task timed just before it (README.md).
--trace 1 samples call stacks while simulating and reports the per-layer
ledger:
host ms per simulated second spent in each layer of src/ (attributed to
the innermost frame whose source file lies in that layer; the layers sum
to ledger_ms), plus work and allocation counts. README.md has the
details.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = (HERE.parent / "src").resolve()

WORKLOADS = ("fabric_poll", "testbed_query", "hidden_cross_probe")

# Source files (relative to src/) -> layer; the first matching prefix
# wins. Time in operator new/delete (wallbench/heap.cpp, and malloc and
# free beneath it) is the "alloc" layer; the rest of the benchmark's own
# code counts as "other". Frames elsewhere (standard library, topology,
# spec) pass the sample on to their caller; a stack with no frame in a
# layer also counts as "other".
LAYERS = (
    ("ber", ("snmp/ber", "snmp/pdu", "snmp/value", "snmp/oid")),
    ("agent", ("snmp/agent", "snmp/mib", "snmp/bridge", "snmp/deploy")),
    ("snmp_client", ("snmp/",)),
    ("store", ("monitor/stats_db", "history/")),
    ("modules", ("monitor/module",)),
    ("monitor", ("monitor/",)),
    ("netsim", ("netsim/",)),
    ("obs", ("obs/",)),
    ("query", ("query/",)),
    ("probe", ("probe/",)),
    ("loadgen", ("loadgen/",)),
    ("common", ("common/",)),
)
LAYER_NAMES = [name for name, _ in LAYERS] + ["alloc", "other"]

BINARY_TIMEOUT_S = 150

# Host ms of the binary's reference task (main.cpp reference_ms) on the
# benchmark's home host when calm: 2.0 GHz Xeon (Sapphire Rapids), cloud
# VM. End-to-end times are reported at that speed.
REFERENCE_MS = 0.8


def fail(message):
    print(f"wallbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures once, then (re)builds the benchmark binary; returns its path."""
    if not (build_dir / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", *generator, "-S", str(HERE), "-B", str(build_dir)]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    compile_cmd = ["cmake", "--build", str(build_dir), "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return build_dir / "wallbench"


def layer_of(path):
    path = Path(path).resolve()
    if path == HERE / "heap.cpp":
        return "alloc"
    if path.is_relative_to(HERE):
        return "other"
    if not path.is_relative_to(SRC):
        return None
    relative = path.relative_to(SRC).as_posix()
    for name, prefixes in LAYERS:
        if relative.startswith(prefixes):
            return name
    return None


def symbolize(exe, addresses):
    """Address -> layer of its innermost inlined frame in src/, or None."""
    if not addresses:
        return {}
    query = "\n".join(f"0x{a}" for a in addresses) + "\n"
    out = subprocess.run(
        ["addr2line", "-e", str(exe), "-a", "-i"],
        input=query, capture_output=True, text=True, check=True).stdout
    layers = {}
    current = None
    for line in out.splitlines():
        if line.startswith("0x"):
            current = format(int(line, 16), "x")
            layers[current] = None
        elif current is not None and layers[current] is None:
            layers[current] = layer_of(line.split(":")[0])
    return layers


def ledger(exe, stacks_path):
    """Sample counts per layer from the stack file the binary wrote."""
    stacks = []
    for line in stacks_path.read_text().splitlines():
        count, *pcs = line.split()
        stacks.append((int(count), pcs))
    layers = symbolize(exe, sorted({pc for _, pcs in stacks for pc in pcs}))
    counts = dict.fromkeys(LAYER_NAMES, 0)
    for count, pcs in stacks:
        layer = next((layers[pc] for pc in pcs if layers.get(pc)), "other")
        counts[layer] += count
    return counts


def metric(value, unit):
    return {"value": value, "unit": unit}


def at_reference(times, reference_ms):
    """Phase times scaled to the host speed at which the reference task
    takes REFERENCE_MS."""
    return [t * REFERENCE_MS / r for t, r in zip(times, reference_ms)]


def end_to_end(raw):
    intervals = at_reference(raw["interval_ms"], raw["interval_ref_ms"])
    setups = [sum(at_reference(phases, refs))
              for phases, refs in zip(raw["setup_s"], raw["setup_ref_ms"])]
    return {
        "interval_ms": metric(statistics.mean(intervals), "ms"),
        "setup_s": metric(statistics.median(setups), "s"),
    }


def per_layer(raw, counts):
    sim_s = raw["sim_seconds"]
    # The sampler's own handler time is taken out, so the layers add up
    # to what the untraced run measures (less cache disturbance).
    run_s = raw["run_seconds"] - raw["sampler_seconds"]
    traced_ms = 1000.0 * run_s / sim_s
    samples = sum(counts.values())
    metrics = {
        f"{name}_ms": metric(traced_ms * n / samples if samples else 0.0,
                             "ms/sim_s")
        for name, n in counts.items()
    }
    polls = max(raw["polls"], 1)
    metrics.update({
        "ledger_ms": metric(traced_ms, "ms/sim_s"),
        "interval_ms_p50": metric(statistics.median(raw["interval_ms"]), "ms"),
        "samples": metric(samples, "count"),
        "trace_overhead_pct": metric(
            100.0 * raw["sampler_seconds"] / run_s, "%"),
        "events_per_sim_s": metric(raw["events"] / sim_s, "1/sim_s"),
        "ns_per_event": metric(
            1e9 * run_s / max(raw["events"], 1), "ns"),
        "polls_per_sim_s": metric(raw["polls"] / sim_s, "1/sim_s"),
        "queries_per_sim_s": metric(raw["queries"] / sim_s, "1/sim_s"),
        "probes_per_sim_s": metric(raw["probes"] / sim_s, "1/sim_s"),
        "allocs_per_sim_s": metric(raw["allocs"] / sim_s, "1/sim_s"),
        "alloc_bytes_per_sim_s": metric(raw["alloc_bytes"] / sim_s, "B/sim_s"),
        "allocs_per_poll": metric(raw["allocs"] / polls, "count"),
        "pool_reuse_pct": metric(
            100.0 * raw["pool_reuses"] / max(raw["pool_acquires"], 1), "%"),
    })
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (build_root / "wallbench").resolve()
    exe = build(build_dir)

    stacks_path = build_dir / f"stacks-{os.getpid()}.txt"
    command = [str(exe), "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--stacks", str(stacks_path)]
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark binary timed out")
    sys.stderr.write(done.stderr)
    if done.returncode != 0 or not done.stdout.strip():
        fail(f"benchmark binary exited with {done.returncode}")
    raw = json.loads(done.stdout.strip().splitlines()[-1])

    if args.trace:
        counts = ledger(exe, stacks_path)
        stacks_path.unlink()
        metrics = per_layer(raw, counts)
    else:
        metrics = end_to_end(raw)
    if raw["problem"]:
        print(f"wallbench: incorrect output: {raw['problem']}",
              file=sys.stderr)
    attempted = raw["polls"] + raw["queries"] + raw["probes"]
    failed = (raw["poll_failures"] + raw["query_failures"]
              + raw["probe_failures"])
    print(json.dumps({
        "correct": not raw["problem"],
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
