#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/test_smoke.py [--seed 2] [--workload NAME ...]

Runs every workload (or the named ones) once untraced and once traced on a
seed the benchmark was not tuned on, and checks what run.py itself does not
(run.py already refuses a missing, unknown, wrong-unit or non-finite metric):
  - the run is correct and no operation failed;
  - every end-to-end metric is positive;
  - every reported p99 rests on at least 1000 samples (ten beyond it).
Then checks that run.py fails without printing a result in a directory that
holds only BENCHMARK.json and perfbench/.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(args, cwd):
    return subprocess.run([sys.executable, "perfbench/run.py"] + args,
                          cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def check_run(spec, workload, seed, trace, errors):
    tag = "%s --trace %d" % (workload, trace)
    done = run(["--workload", workload, "--seed", str(seed), "--seconds",
                str(spec["run_seconds"]), "--trace", str(trace)], ROOT)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        errors.append("%s: exit %d\n%s" % (tag, done.returncode,
                                           done.stderr[-3000:]))
        return
    result = json.loads(lines[-1])
    meta = json.loads(lines[-2])["meta"]
    if result["correct"] is not True or result["failed"] != 0:
        errors.append("%s: correct=%s failed=%s (%s)" %
                      (tag, result["correct"], result["failed"],
                       meta.get("correctness")))
    if not trace:
        for name, got in result["metrics"].items():
            if got["value"] <= 0:
                errors.append("%s: end-to-end %s is not positive" %
                              (tag, name))
    for name, count in meta.get("p99_samples", {}).items():
        if name in result["metrics"] and count < 1000:
            errors.append("%s: %s rests on %d samples (< 1000)" %
                          (tag, name, count))
    print("ok " if not errors else ".. ", tag, meta.get("correctness"),
          flush=True)


def check_bare_dir(errors):
    """The benchmark must refuse, without a result, to run without src/."""
    bare = os.path.join(ROOT, ".bench_build", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "explore_local", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=bare, capture_output=True,
                          text=True, timeout=180, env=env)
    if done.returncode == 0 or '"metrics"' in done.stdout:
        errors.append("bare directory: run.py did not fail cleanly")
    shutil.rmtree(bare, ignore_errors=True)
    print("ok " if not errors else "..", "bare directory refused", flush=True)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=2)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    errors = []
    for workload in workloads:
        for trace in (0, 1):
            check_run(spec, workload, args.seed, trace, errors)
    check_bare_dir(errors)
    for e in errors:
        print("FAIL:", e)
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
