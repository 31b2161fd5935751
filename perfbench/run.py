#!/usr/bin/env python3
"""Anytime-query benchmark: builds storm_perfbench from the checkout's
sources and runs one workload.

    python3 perfbench/run.py --workload explore_local --seed 1 \
        --seconds 10 --trace 0

Run it from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under the checkout. The last line of stdout is the
result: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are BENCHMARK.json's end_to_end list, with --trace 1 its per_layer
list; a per-layer metric whose layer the workload never reaches reads 0.
The line before it is {"meta": ...}: git sha or source hash, build type,
compiler, nproc, seed, sizes, thread counts and library defaults.
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
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no storm sources at src/ next to perfbench/")
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_root):
        build_root = os.path.join(ROOT, build_root)
    build_dir = os.path.join(build_root, "perfbench")
    configure = ["cmake", "-S", HERE, "-B", build_dir]
    if shutil.which("ninja") and not os.path.isfile(
            os.path.join(build_dir, "Makefile")):
        configure += ["-G", "Ninja"]
    jobs = str(os.cpu_count() or 1)
    for cmd in (configure, ["cmake", "--build", build_dir, "-j", jobs,
                            "--target", "storm_perfbench"]):
        # Build chatter goes to stderr: stdout carries only the result.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "storm_perfbench")


def source_identity():
    """The git sha when the checkout is a repository, and always a hash of
    the sources the binary was built from."""
    sha = "unavailable"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            sha = out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return sha, digest.hexdigest()


def tagged_json(lines, tag):
    for line in lines:
        if line.startswith(tag + " "):
            return json.loads(line[len(tag) + 1:])
    fail("missing " + tag + " line in the benchmark output")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run timed out")
    if done.returncode != 0:
        fail("storm_perfbench exited with %d" % done.returncode)
    lines = done.stdout.splitlines()
    build_facts = tagged_json(lines, "PERFBENCH_BUILD")
    meta = tagged_json(lines, "PERFBENCH_META")
    result = tagged_json(lines, "PERFBENCH_RESULT")

    metrics = {}
    emitted = result["metrics"]
    for m in wanted:
        got = emitted.pop(m["name"], None)
        if got is None:
            if not args.trace:
                fail("end-to-end metric %s not measured" % m["name"])
            got = {"value": 0.0, "unit": m["unit"]}  # layer not on this path
        if got["unit"] != m["unit"]:
            fail("metric %s has unit %s, expected %s" %
                 (m["name"], got["unit"], m["unit"]))
        if got["value"] is None or not math.isfinite(got["value"]):
            fail("metric %s is not a finite number" % m["name"])
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    if emitted:
        fail("metrics missing from BENCHMARK.json: " + ", ".join(emitted))

    git_sha, source_sha = source_identity()
    meta.update(build_facts)
    meta.update({"git_sha": git_sha, "source_sha256": source_sha,
                 "nproc": os.cpu_count(), "seed": args.seed,
                 "seconds": args.seconds, "trace": args.trace})
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    sys.stdout.flush()


if __name__ == "__main__":
    main()
