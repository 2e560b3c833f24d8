#!/usr/bin/env python3
"""The repository benchmark.

Builds the perfbench program from this checkout's sources (CMake, into
.bench_build/), runs one workload and prints, as its last line, one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end set of BENCHMARK.json, with --trace 1 the
per-layer set. Exits non-zero when the build fails, a metric is missing,
or any output check failed.

    python3 perfbench/run.py --workload serve-wide --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Each run also leaves .bench_build/results/<workload>-seed<n>-trace<t>.json
(fingerprint, counts, every metric) and, traced, the span log next to it.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS_DIR = os.path.join(ROOT, ".bench_build", "results")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)


def run_quiet(cmd, timeout):
    """Runs a build step; on failure shows its output and exits."""
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              timeout=timeout, cwd=ROOT)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build step failed: %s" % e)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode(errors="replace")[-4000:])
        fail("build step failed: " + " ".join(cmd))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources under src/ in %s" % ROOT)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_quiet(cmd, 300)
    jobs = str(os.cpu_count() or 1)
    run_quiet(["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs], 900)


def source_id():
    """Content hash of the library and benchmark sources, plus the git
    commit when the checkout is a repository of its own."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    ident = "content:" + digest.hexdigest()[:12]
    if os.path.isdir(os.path.join(ROOT, ".git")):
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        try:
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                                 stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                 env=env, timeout=10).stdout.decode().strip()
            if sha:
                ident = "git:" + sha + "+" + ident
        except (OSError, subprocess.TimeoutExpired):
            pass
    return ident


def run_workload(workload, args, wanted, ident):
    """Runs one workload; returns (result line dict, ok)."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    prefix = os.path.join(RESULTS_DIR, "%s-seed%d-trace%d" % (workload, args.seed, args.trace))
    cmd = [BINARY, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--source-id", ident, "--out", prefix]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    raw = None
    for line in proc.stdout.decode(errors="replace").splitlines():
        if line.startswith("perfbench-result "):
            raw = json.loads(line[len("perfbench-result "):])
        else:
            print(line)
    if proc.returncode != 0 or raw is None:
        fail("%s exited with code %d" % (workload, proc.returncode))

    metrics = {}
    for spec in wanted:
        got = raw["metrics"].get(spec["name"])
        if got is None or not isinstance(got["value"], (int, float)) \
                or not math.isfinite(got["value"]):
            fail("%s: metric %s missing" % (workload, spec["name"]))
        if got["unit"] != spec["unit"]:
            fail("%s: metric %s in %s, expected %s" % (workload, spec["name"], got["unit"],
                                                        spec["unit"]))
        metrics[spec["name"]] = {"value": got["value"], "unit": got["unit"]}
    correct = raw["failed"] == 0 and raw["attempted"] >= 1
    return {"correct": correct, "attempted": raw["attempted"], "failed": raw["failed"],
            "metrics": metrics}, correct


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build()
    ident = source_id()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    workloads = names if args.workload == "all" else [args.workload]
    all_ok = True
    lines = []
    for workload in workloads:
        line, ok = run_workload(workload, args, wanted, ident)
        all_ok = all_ok and ok
        lines.append(line)
        if len(workloads) > 1:
            print("%s: %s" % (workload, json.dumps(line)))
    if len(lines) == 1:
        final = lines[0]
    else:
        final = {"correct": all_ok,
                 "attempted": sum(l["attempted"] for l in lines),
                 "failed": sum(l["failed"] for l in lines),
                 "metrics": {"%s/%s" % (w, k): v
                             for w, l in zip(workloads, lines) for k, v in l["metrics"].items()}}
    sys.stdout.flush()
    print(json.dumps(final))
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
