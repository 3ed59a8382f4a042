#!/usr/bin/env python3
"""Data-path regression gate.

Compares a freshly produced BENCH_datapath.json against the reference
committed in the repository and fails when:
  * bytes-per-bridge-step of the delta path on the Fig-6 jungle scenario
    regressed beyond the tolerance,
  * virtual seconds per iteration of the pipelined path on the deep-WAN
    topology regressed beyond the tolerance,
  * the delta exchange no longer saves >= 2x bytes over the synchronous
    baseline, or
  * the pipelined path is no longer faster than the synchronous one on the
    deep-WAN topology.

Usage: check_datapath.py NEW_JSON REF_JSON
"""

import json
import sys

# Simulated byte counts and virtual times are deterministic; 5% headroom.
TOLERANCE = 1.05


def rows_by_name(doc):
    return {row["name"]: row for row in doc["benchmarks"]}


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with open(sys.argv[1]) as handle:
        new = json.load(handle)
    with open(sys.argv[2]) as handle:
        ref = json.load(handle)
    new_rows, ref_rows = rows_by_name(new), rows_by_name(ref)
    failures = []

    name = "fig6_jungle_delta"
    new_bytes = new_rows[name]["wan_ipl_bytes_per_step"]
    ref_bytes = ref_rows[name]["wan_ipl_bytes_per_step"]
    print(f"{name}: {new_bytes:.0f} B/step (ref {ref_bytes:.0f})")
    if new_bytes > ref_bytes * TOLERANCE:
        failures.append(
            f"bytes-per-bridge-step regressed: {new_bytes:.0f} > "
            f"{ref_bytes:.0f} * {TOLERANCE}")

    name = "deepwan_pipelined"
    new_secs = new_rows[name]["seconds_per_iteration"]
    ref_secs = ref_rows[name]["seconds_per_iteration"]
    print(f"{name}: {new_secs:.4f} virt s/iteration (ref {ref_secs:.4f})")
    if new_secs > ref_secs * TOLERANCE:
        failures.append(
            f"deep-WAN pipelined iteration regressed: {new_secs:.4f} > "
            f"{ref_secs:.4f} * {TOLERANCE}")

    ratio = new["fig6_bytes_ratio_sync_over_delta"]
    print(f"fig6 bytes ratio sync/delta: {ratio:.2f}x")
    if ratio < 2.0:
        failures.append(f"delta exchange saves only {ratio:.2f}x (< 2x)")

    speedup = new["deepwan_speedup_sync_over_pipelined"]
    print(f"deep-WAN speedup sync/pipelined: {speedup:.2f}x")
    if speedup <= 1.0:
        failures.append(
            f"pipelined path not faster on deep WAN ({speedup:.2f}x)")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        sys.exit(1)
    print("data path OK")


if __name__ == "__main__":
    main()
