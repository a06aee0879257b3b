#!/usr/bin/env python3
"""Whole-campaign benchmark of the RISC I reproduction.

Run from the root of a checkout:

    python3 campaign_bench/run.py --workload r1_campaign --seed 1 \
        --seconds 18 --trace 0

Builds campaign_bench (this directory's CMake package, which compiles
the repository's libraries from ../src) into .bench_build/, runs one
measurement of the workload, appends the result with a host
fingerprint to .bench_results/results.jsonl, and prints report lines
followed by one JSON line: {"correct", "attempted", "failed",
"metrics"}. --trace 0 reports the end-to-end metrics of BENCHMARK.json,
--trace 1 the per-layer ones. NOTES.md says what each workload and
metric is for.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "campaign_bench")
RESULTS = os.path.join(ROOT, ".bench_results")
EXE = os.path.join(BUILD, "campaign_bench")

# setup_s is the median of the main run's set-up and this many
# set-up-only runs of the same workload.
SETUP_PROBES = 20
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print("campaign_bench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "campaign_bench",
                  "-j", jobs])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT,
                                  timeout=max(1, deadline - time.monotonic()))
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build failed: %s" % e)
        if done.returncode != 0:
            sys.stderr.write(done.stdout.decode(errors="replace")[-4000:])
            fail("build failed: %s" % " ".join(cmd))


def run_exe(args):
    """Run campaign_bench once; return (parsed last line, report lines)."""
    t0 = time.monotonic_ns()
    try:
        done = subprocess.run([EXE] + args + ["--t0-ns", str(t0),
                                              "--out-dir", RESULTS],
                              stdout=subprocess.PIPE, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("timed out after %d s" % RUN_TIMEOUT_S)
    if done.returncode != 0:
        fail("exited with code %d" % done.returncode,
             done.returncode if done.returncode == 77 else 1)
    lines = done.stdout.decode().splitlines()
    if not lines:
        fail("printed no result")
    return json.loads(lines[-1]), lines[:-1]


def fingerprint(build_info):
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                timeout=30).stdout.decode().strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    # A checkout without git history still identifies its sources.
    digest = hashlib.sha256()
    for top in ("src", "campaign_bench"):
        for base, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return {"cpu_model": model, "vcpus": len(os.sched_getaffinity(0)),
            "compiler": build_info.get("compiler"),
            "build_type": build_info.get("build_type"),
            "commit": commit, "source_sha256": digest.hexdigest()}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %s" % args.workload, 2)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build()
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds)]
    out, report = run_exe(common + ["--trace", str(args.trace)])
    metrics = out["metrics"]
    if not args.trace:
        setups = [metrics["setup_s"]["value"]]
        for _ in range(SETUP_PROBES):
            probe, _ = run_exe(common + ["--trace", "0", "--setup-probe"])
            setups.append(probe["metrics"]["setup_s"]["value"])
        metrics["setup_s"] = {"value": statistics.median(setups),
                              "unit": "s", "samples": len(setups)}

    final = {}
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            if not args.trace:
                fail("campaign_bench did not report %s" % m["name"])
            # A layer the workload does not exercise reads 0.
            got = {"value": 0, "unit": m["unit"], "samples": 0}
        if got["unit"] != m["unit"]:
            fail("%s: unit %s, BENCHMARK.json says %s"
                 % (m["name"], got["unit"], m["unit"]))
        final[m["name"]] = got

    record = {"time_unix": time.time(), "workload": args.workload,
              "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "host": fingerprint(out.get("build", {})),
              "correct": out["correct"], "attempted": out["attempted"],
              "failed": out["failed"], "metrics": final,
              "report": report}
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, "results.jsonl"), "a") as f:
        f.write(json.dumps(record) + "\n")

    for line in report:
        print(line)
    host = record["host"]
    print("# host: %s, %d vCPUs, %s %s, commit %s, sources %s"
          % (host["cpu_model"], host["vcpus"], host["compiler"],
             host["build_type"], host["commit"] or "n/a",
             host["source_sha256"][:16]))
    for name, m in final.items():
        print("# %-28s %14.6g %-8s n=%d" % (name, m["value"], m["unit"],
                                          m["samples"]))
    print(json.dumps({
        "correct": out["correct"], "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in final.items()}}))


if __name__ == "__main__":
    main()
