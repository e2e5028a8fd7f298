#!/usr/bin/env python3
"""Gate bench results against a committed baseline.

Three modes, selected by flag:

  --current FILE    scale_monitor artifacts: rows matched by
                    (interfaces, shards), metrics poll_round_p95 and
                    rss_per_interface, default tolerance 10%; and
                    snmp_bytes_per_poll, an exact count.
  --shootout FILE   probe_shootout artifacts: rows matched by
                    (scenario, estimator), metric
                    poll_round_p95_seconds — the monitor's poll-round
                    p95 while that estimator injects probe traffic —
                    default tolerance 5%.
  --prom FILE...    the .metrics.prom files the fig benches write: rows
                    matched by bench name (the file name before
                    ".metrics.prom"), metric netqos_sim_events_total, an
                    exact count.

The metrics are *simulated* quantities from a deterministic
discrete-event run, so they are machine-independent. For a measured
metric, the tolerance only absorbs intentional-but-small behaviour
drift: a current value more than --tolerance above baseline fails. An
exact count repeats to the last digit, so it fails if it rises at all,
whatever --tolerance says; a count that falls is recorded by updating
the baseline. Improvements are reported and always pass. A current row
that lacks a gated metric, or holds NaN or an infinity for it, fails.

Usage:
  scripts/perf_check.py --baseline bench/baselines/scale_monitor_1k.jsonl \\
      --current artifacts/scale_monitor.jsonl [--tolerance 0.10]
  scripts/perf_check.py --baseline bench/baselines/probe_shootout.jsonl \\
      --shootout artifacts/probe_shootout.jsonl [--tolerance 0.05]
  scripts/perf_check.py --baseline bench/baselines/sim_events.jsonl \\
      --prom artifacts/fig4_table2.metrics.prom ...
"""
import argparse
import json
import math
import os
import sys

# Metric -> True for an exact count (gated at zero tolerance).
SCALE_METRICS = {"poll_round_p95": False, "rss_per_interface": False,
                 "snmp_bytes_per_poll": True}
SHOOTOUT_METRICS = {"poll_round_p95_seconds": False}
PROM_METRICS = {"netqos_sim_events_total": True}
PROM_SUFFIX = ".metrics.prom"


def read_lines(path):
    try:
        with open(path, encoding="utf-8") as f:
            return f.read().splitlines()
    except OSError as e:
        sys.exit(f"error: cannot read {path}: {e.strerror}")


def load(path, key_of):
    rows = {}
    for line in read_lines(path):
        line = line.strip()
        if not line:
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as e:
            sys.exit(f"error: {path}: {e}: {line}")
        key = key_of(row)
        if key is None:
            continue
        rows[key] = row
    if not rows:
        sys.exit(f"error: no matching rows in {path}")
    return rows


def load_prom(paths):
    """One row per .metrics.prom file: its bench name and PROM_METRICS."""
    rows = {}
    for path in paths:
        name = os.path.basename(path)
        if not name.endswith(PROM_SUFFIX):
            sys.exit(f"error: {path} is not a {PROM_SUFFIX} file")
        row = {"bench": name[:-len(PROM_SUFFIX)]}
        for line in read_lines(path):
            fields = line.split()
            if len(fields) == 2 and fields[0] in PROM_METRICS:
                row[fields[0]] = float(fields[1])
        rows[row["bench"]] = row
    return rows


def scale_key(row):
    if row.get("bench") != "scale_monitor":
        return None
    return (row["interfaces"], row["shards"])


def shootout_key(row):
    if "scenario" not in row or "estimator" not in row:
        return None
    return (row["scenario"], row["estimator"])


def bench_key(row):
    return row.get("bench")


def is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def compare(base, cur, exact, tolerance):
    """Returns (line, failed) for one metric of one row."""
    if not is_number(base) or not math.isfinite(base):
        return f"baseline value {base!r} is not a finite number", True
    if cur is None:
        return "missing from current results", True
    if not is_number(cur) or not math.isfinite(cur):
        return f"current value {cur!r} is not a finite number", True
    if exact:
        failed = cur > base
        return (f"baseline {base:.10g} current {cur:.10g} (exact count, "
                f"{cur - base:+.10g}{', no rise allowed' if failed else ''})",
                failed)
    if base <= 0:
        return f"baseline {base:.6g} current {cur:.6g} (not gated)", False
    delta = (cur - base) / base
    failed = delta > tolerance
    return (f"baseline {base:.6g} current {cur:.6g} ({delta:+.1%}"
            f"{f', tolerance {tolerance:.0%}' if failed else ''})", failed)


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--baseline", required=True)
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--current", help="scale_monitor JSONL to gate")
    source.add_argument("--shootout", help="probe_shootout JSONL to gate")
    source.add_argument("--prom", nargs="+",
                        help="fig bench .metrics.prom files to gate")
    parser.add_argument("--tolerance", type=float, default=None,
                        help="allowed relative regression of a measured "
                             "metric (default 0.10, or 0.05 for --shootout)")
    args = parser.parse_args()

    if args.prom:
        key_of, metrics = bench_key, PROM_METRICS
        current = load_prom(args.prom)
        tolerance = 0.0  # unused: every --prom metric is an exact count
    elif args.shootout:
        key_of, metrics = shootout_key, SHOOTOUT_METRICS
        current = load(args.shootout, key_of)
        tolerance = 0.05 if args.tolerance is None else args.tolerance
    else:
        key_of, metrics = scale_key, SCALE_METRICS
        current = load(args.current, key_of)
        tolerance = 0.10 if args.tolerance is None else args.tolerance

    baseline = load(args.baseline, key_of)

    failures = []
    for key, base_row in sorted(baseline.items()):
        cur_row = current.get(key)
        if cur_row is None:
            failures.append(f"{key}: missing from current results")
            continue
        for metric, exact in metrics.items():
            if metric not in base_row:
                continue  # not gated by this baseline
            line, failed = compare(base_row[metric], cur_row.get(metric),
                                   exact, tolerance)
            print(f"{key} {metric}: {line} {'FAIL' if failed else 'ok'}")
            if failed:
                failures.append(f"{key} {metric}: {line}")

    if failures:
        print("\nperf_check FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("\nperf_check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
