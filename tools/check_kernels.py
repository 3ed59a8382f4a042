#!/usr/bin/env python3
"""SIMD kernel regression gate.

Compares a freshly produced BENCH_kernels.json against the reference
committed in the repository and fails when:
  * any vector path drifts from its scalar reference beyond the physics
    tolerance (lane reassociation explains ~1e-15; anything above 1e-12
    means the vector arithmetic no longer mirrors the scalar loop),
  * a hermite vector path differs from its scalar reference at all: its
    i-lane tile and its symmetric kernel run the scalar operation order in
    every lane, so any deviation means a reassociation or an FMA
    contraction crept in,
  * the hermite vector tile (row name hermite_jblock, kept for the
    trajectory) or the symmetric kernel (hermite_symmetric) stops beating
    its scalar reference by a real margin, or
  * the sph/bhtree vector paths regress below parity (their SIMD share of
    the whole evolve is small, so they gate on non-regression, not on a
    large speedup).

Wall-clock speedups are noisy on shared CI runners, so the speedup floors
carry generous headroom below the committed reference values; the deviation
gate is exact arithmetic and carries none.

Usage: check_kernels.py NEW_JSON REF_JSON
"""

import json
import sys

MAX_REL_DEV = 1e-12       # lane reassociation only; observed ~1e-15
# max_rel_dev must be exactly 0
BIT_IDENTICAL = {"hermite_jblock", "hermite_symmetric"}
SPEEDUP_FLOORS = {
    "hermite_jblock": 1.2,  # the SoA j-tile loop is the SIMD showcase
    "hermite_symmetric": 1.2,  # the fault explorer's 128-body models
    "sph_density": 0.85,    # gather pass is a small share of evolve
    "bhtree_leaf": 0.85,    # near-leaf lanes amortized over tree walk
}


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

    for name, floor in SPEEDUP_FLOORS.items():
        if name not in new_rows:
            failures.append(f"missing benchmark row: {name}")
            continue
        row = new_rows[name]
        ref_speedup = ref_rows.get(name, {}).get("simd_speedup", float("nan"))
        speedup = row["simd_speedup"]
        dev = row["max_rel_dev"]
        print(f"{name} ({row.get('isa', '?')} x{row.get('lanes', '?')}): "
              f"{speedup:.2f}x vs scalar (ref {ref_speedup:.2f}x, "
              f"floor {floor}), dev={dev:.3g}")
        if speedup < floor:
            failures.append(
                f"{name} vector path too slow: {speedup:.2f}x < {floor}x")
        if dev > MAX_REL_DEV:
            failures.append(
                f"{name} deviates from scalar reference: {dev:.3g} > "
                f"{MAX_REL_DEV}")
        if name in BIT_IDENTICAL and dev != 0:
            failures.append(
                f"{name} is not bit-identical to its scalar reference: "
                f"dev {dev:.3g} != 0")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        sys.exit(1)
    print("simd kernels OK")


if __name__ == "__main__":
    main()
