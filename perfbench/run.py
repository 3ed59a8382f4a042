#!/usr/bin/env python3
"""The jungle benchmark: one command per workload run.

    python3 perfbench/run.py --workload fig12-jungle --seed 7 --seconds 20 --trace 0

Builds perfbench/ (which compiles the simulator from src/) into
.bench_build/perfbench, pins the kernel thread pool (JUNGLE_THREADS) to at
most four lanes and no more than the cores this process may use, runs the
workload through jungle_bench, checks its outputs against
perfbench/reference.json, and prints as its last stdout line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (--trace 0) or the per-layer ledger
(--trace 1). Run from the repository root. `--write-reference` re-pins
the reference fingerprints at the default seed; do that only after a
change that is meant to alter the physics.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "jungle_bench")
REFERENCE = os.path.join(HERE, "reference.json")
WORKLOADS = ("fig12-jungle", "sharded-gravity", "deepwan-coupling", "fault-sweep")
MAX_LANES = 4
# Fingerprints (per-model energy and mass-weighted second moment) must
# match the pinned ones to this relative tolerance. The simulator is
# deterministic; the slack only absorbs last-bit differences a different
# libm could make. A 5% change of phiGRAPE's eta moves the golden check's
# fingerprint by 8e-12.
FINGERPRINT_RTOL = 1e-13
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    jobs = str(lanes())
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, env=env, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs,
                    "--target", "jungle_bench"],
                   stdout=sys.stderr, env=env, check=True)


def lanes():
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count() or 1
    return max(1, min(MAX_LANES, usable))


def run_bench(workload, seed, seconds, trace):
    env = dict(os.environ, JUNGLE_THREADS=str(lanes()), JUNGLE_LOG="error")
    proc = subprocess.run(
        [BINARY, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=sys.stderr, env=env, text=True,
        timeout=RUN_TIMEOUT_S, check=False)
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        log(line)
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"jungle_bench exited with {proc.returncode}")
    return json.loads(lines[-1])


def same_fingerprint(got, want):
    if len(got) != len(want):
        return False
    return all(abs(g - w) <= FINGERPRINT_RTOL * abs(w)
               for g, w in zip(got, want))


def check_reference(raw):
    """Failures of the run against the pinned fingerprints."""
    failures = []
    try:
        with open(REFERENCE) as handle:
            pinned = json.load(handle)["workloads"][raw["workload"]]
    except (OSError, KeyError, ValueError) as error:
        return [f"no reference for {raw['workload']}: {error}"]
    if not same_fingerprint(raw["golden"], pinned["golden"]):
        failures.append("golden check: default-seed fingerprint "
                        f"{raw['golden']} differs from {pinned['golden']}")
    if raw["seed"] == raw["default_seed"]:
        for index, (got, want) in enumerate(zip(raw["pinned"],
                                                pinned["pinned"])):
            for phase in ("start", "end"):
                if not same_fingerprint(got[phase], want[phase]):
                    failures.append(f"realization {index} {phase} fingerprint "
                                    f"{got[phase]} differs from {want[phase]}")
    return failures


def write_reference():
    pinned = {}
    for workload in WORKLOADS:
        raw = run_bench(workload, 1, 1, 0)
        if raw["failed"]:
            raise RuntimeError(f"{workload}: {raw['failures']}")
        pinned[workload] = {"golden": raw["golden"], "pinned": raw["pinned"]}
        log(f"pinned {workload}")
    with open(REFERENCE, "w") as handle:
        json.dump({"default_seed": 1, "workloads": pinned}, handle, indent=1)
        handle.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not args.write_reference and args.workload is None:
        parser.error("--workload is required")

    try:
        build()
        if args.write_reference:
            write_reference()
            return 0
        raw = run_bench(args.workload, args.seed, args.seconds, args.trace)
    except (OSError, subprocess.SubprocessError, RuntimeError,
            ValueError) as error:
        log(f"benchmark failed: {error}")
        return 1

    failures = list(raw["failures"])
    reference_failures = check_reference(raw)
    failures += reference_failures
    failed = raw["failed"] + len(reference_failures)
    for failure in failures:
        log(f"FAILED: {failure}")
    metrics = raw["metrics"]
    print(f"{raw['workload']} seed {raw['seed']} trace {args.trace}: "
          f"{raw['lanes']} kernel lanes, {raw['attempted']} runs attempted, "
          f"{failed} failed, {raw['step_samples']} step samples")
    for name, metric in metrics.items():
        print(f"  {name:30s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": raw["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
