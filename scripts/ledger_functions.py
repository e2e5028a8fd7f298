#!/usr/bin/env python3
"""Function-level breakdown of the wallbench per-layer ledger.

Usage (from the repository root):

    python3 scripts/ledger_functions.py --workload NAME --seed N \\
        --seconds S [--top K]

Builds the wallbench binary the way wallbench/run.py does, runs one
workload with --trace 1, and resolves every sampled address with
`addr2line -f -i -C`. It prints each layer's share of the samples with
the functions that hold it by self samples, then the functions with the
most inclusive samples.

A sample's self function is the innermost frame whose source file lies
in a layer: the frame wallbench/run.py charges the sample to. A
function's inclusive samples are those with the function anywhere in
their in-layer frames. The script exits non-zero unless its per-layer
totals equal wallbench/run.py's ledger() on the same stacks file.
"""

import argparse
import collections
import json
import os
import subprocess
import sys
from pathlib import Path

# Import wallbench/run.py without leaving a __pycache__ in wallbench/.
sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "wallbench"))
import run  # noqa: E402

NAME_WIDTH = 100


def frames_of(exe, addresses):
    """Address -> its inlined frames in a layer, innermost first, as
    (layer, function) pairs."""
    query = "\n".join(f"0x{a}" for a in addresses) + "\n"
    out = subprocess.run(
        ["addr2line", "-e", str(exe), "-a", "-f", "-i", "-C"],
        input=query, capture_output=True, text=True, check=True).stdout
    frames = {}
    current = None
    function = None
    # After each address line, addr2line prints one (function, file:line)
    # pair per inlined frame. Neither line of a pair starts with "0x".
    for line in out.splitlines():
        if function is None and line.startswith("0x"):
            current = format(int(line, 16), "x")
            frames[current] = []
        elif function is None:
            function = line
        else:
            layer = run.layer_of(line.split(":")[0])
            if layer is not None:
                frames[current].append((layer, function))
            function = None
    return frames


def read_stacks(path):
    stacks = []
    for line in path.read_text().splitlines():
        count, *pcs = line.split()
        stacks.append((int(count), pcs))
    return stacks


def attribute(stacks, frames):
    """Per-layer totals, self samples per (layer, function), and
    inclusive samples per (layer, function)."""
    totals = dict.fromkeys(run.LAYER_NAMES, 0)
    self_samples = collections.Counter()
    inclusive = collections.Counter()
    for count, pcs in stacks:
        in_layer = [frame for pc in pcs for frame in frames.get(pc, ())]
        charged = in_layer[0] if in_layer else ("other", "(no layer)")
        totals[charged[0]] += count
        self_samples[charged] += count
        for frame in set(in_layer):
            inclusive[frame] += count
    return totals, self_samples, inclusive


def short(name):
    return name if len(name) <= NAME_WIDTH else name[:NAME_WIDTH - 3] + "..."


def report(title, totals, self_samples, inclusive, top):
    samples = sum(totals.values())
    print(f"{title}: {samples} samples")
    if samples == 0:
        return
    print("\nself samples by layer, then by function (% of all samples)")
    for layer, count in sorted(totals.items(), key=lambda kv: -kv[1]):
        if count == 0:
            continue
        print(f"\n{layer:<12} {count:>8} {100.0 * count / samples:6.1f}%")
        functions = [(function, n) for (owner, function), n
                     in self_samples.most_common() if owner == layer]
        for function, n in functions[:top]:
            print(f"  {100.0 * n / samples:6.1f}%  {short(function)}")
    print(f"\ntop {top} functions by inclusive samples (% of all samples)")
    for (layer, function), n in inclusive.most_common(top):
        print(f"  {100.0 * n / samples:6.1f}%  {layer:<12} {short(function)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=run.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--top", type=int, default=8,
                        help="functions listed per layer and inclusive")
    args = parser.parse_args()

    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (build_root / "wallbench").resolve()
    exe = run.build(build_dir)

    stacks_path = build_dir / f"stacks-functions-{os.getpid()}.txt"
    command = [str(exe), "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds),
               "--trace", "1", "--stacks", str(stacks_path)]
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=run.BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        run.fail("benchmark binary timed out")
    sys.stderr.write(done.stderr)
    if done.returncode != 0 or not done.stdout.strip():
        run.fail(f"benchmark binary exited with {done.returncode}")
    raw = json.loads(done.stdout.strip().splitlines()[-1])
    try:
        stacks = read_stacks(stacks_path)
        addresses = sorted({pc for _, pcs in stacks for pc in pcs})
        frames = frames_of(exe, addresses) if addresses else {}
        totals, self_samples, inclusive = attribute(stacks, frames)
        expected = run.ledger(exe, stacks_path)
    finally:
        stacks_path.unlink(missing_ok=True)

    report(f"{args.workload}, seed {args.seed}, {args.seconds:g} s",
           totals, self_samples, inclusive, args.top)
    if raw["problem"]:
        print(f"ledger_functions: incorrect output: {raw['problem']}",
              file=sys.stderr)
    if totals != expected:
        print("ledger_functions: per-layer totals differ from "
              f"wallbench/run.py's ledger:\n  here:   {totals}\n"
              f"  ledger: {expected}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
