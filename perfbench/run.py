#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (which compiles the library under src/) into the
directory named by $CARGO_TARGET_DIR, default .bench_build, runs one
workload, and prints '#' information lines followed by one JSON result
line. With --trace 0 the result holds every end-to-end metric listed in
BENCHMARK.json; with --trace 1 every per-layer metric, where a layer the
workload does not exercise reads 0. Exits non-zero, without a result,
when the sources are missing, the build fails, or the run does.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170
BUILD_JOBS = "4"


def die(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def source_id():
    """Git commit when the tree is a repository, else a digest of src/."""
    try:
        out = subprocess.run(["git", "--git-dir", os.path.join(ROOT, ".git"),
                              "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return "git:" + out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "sha256:" + digest.hexdigest()[:16]


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("library sources not found under " + os.path.join(ROOT, "src"))
    if shutil.which("cmake") is None:
        die("cmake not found")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            die("configure failed")
    step = ["cmake", "--build", build_dir, "--target", "perfbench",
            "-j", BUILD_JOBS]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        die("build failed")
    return os.path.join(build_dir, "perfbench")


def complete(result, spec, traced):
    """Checks the result against BENCHMARK.json and keeps its metrics."""
    wanted = spec["per_layer"] if traced else spec["end_to_end"]
    metrics = result.get("metrics", {})
    out = {}
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            if not traced:
                die("workload did not report " + m["name"])
            got = {"value": 0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            die("%s reported in %s, declared in %s"
                % (m["name"], got["unit"], m["unit"]))
        out[m["name"]] = got
    result["metrics"] = out
    return result


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        die("BENCHMARK.json not found")
    with open(spec_path) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        die("unknown workload " + args.workload)

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(build_dir)
    work_dir = os.path.join(build_dir, "work")
    os.makedirs(work_dir, exist_ok=True)

    print("# host: %s %s, python %s, nproc %d"
          % (platform.system(), platform.machine(),
             platform.python_version(), os.cpu_count() or 0))
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--work-dir", work_dir, "--source-id", source_id()]
    try:
        run = subprocess.run(command, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        die("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(run.stderr)
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0 or not lines or not lines[-1].startswith("{"):
        die("run failed with exit code %d" % run.returncode)
    for line in lines[:-1]:
        print(line)
    result = complete(json.loads(lines[-1]), spec, args.trace == "1")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
