#!/usr/bin/env python3
"""Builds d2bench from this checkout's sources and runs one workload.

    python3 d2bench/run.py --workload lmbe-read --seed 1 --seconds 12 --trace 0

The build goes to .bench_build/ (configured once, rebuilt incrementally on
every run); scratch data, results and traces go to .bench_out/. The last
line of stdout is the benchmark's JSON result. Build failures exit non-zero
without printing a result.

    python3 d2bench/run.py --smoke [--binary PATH]

runs every workload at tiny scale with tracing on, and checks that the run
is correct and reports every metric BENCHMARK.json names.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(ROOT, ".bench_out")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (first time) and builds; returns the binary path or None."""
    steps = []
    # Configure until a build system exists (a failed configure leaves a
    # cache but no Makefile).
    if not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "d2bench"), "-B",
                      BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j",
                  str(len(os.sched_getaffinity(0)))])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("d2bench: build failed: " + " ".join(cmd))
            return None
    return os.path.join(BUILD_DIR, "d2bench")


def source_id():
    """The git commit when ROOT is a git checkout, else a digest of the
    sources."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True)
            if rev.returncode == 0:
                return "git:" + rev.stdout.strip()
        except OSError:
            pass
    digest = hashlib.sha1()
    for top in ("src", "tools", "d2bench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-sha1:" + digest.hexdigest()[:16]


def smoke(binary):
    """Tiny traced run of every workload; checks correctness and names."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    result_path = os.path.join(OUT_DIR, "smoke-result.json")
    proc = subprocess.run(
        [binary, "--workload", "all", "--seed", "1", "--smoke", "--trace", "1",
         "--work-dir", OUT_DIR, "--out", result_path,
         "--trace-out", os.path.join(OUT_DIR, "smoke-trace.json")],
        capture_output=True, text=True)
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        log("smoke: d2bench exited %d\n%s" % (proc.returncode, proc.stderr))
        return 1
    with open(result_path) as f:
        result = json.load(f)
    missing = []
    for workload in spec["workloads"]:
        got = result["workloads"].get(workload["name"])
        if got is None:
            missing.append(workload["name"])
            continue
        for metric in spec["end_to_end"]:
            if metric["name"] not in got["e2e"]:
                missing.append(workload["name"] + "/" + metric["name"])
        for metric in spec["per_layer"]:
            if metric["name"] not in got["per_layer"]:
                missing.append(workload["name"] + "/" + metric["name"])
    if missing:
        log("smoke: metrics missing from the output: " + ", ".join(missing))
        return 1
    print("smoke: ok")
    return 0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--binary", help="use this d2bench instead of building")
    args = parser.parse_args()

    binary = args.binary or build()
    if binary is None:
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.smoke:
        return smoke(binary)
    if not args.workload:
        parser.error("--workload is required")
    tag = "%s-seed%d-trace%s" % (args.workload, args.seed, args.trace)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--work-dir", OUT_DIR, "--commit", source_id(),
           "--out", os.path.join(OUT_DIR, "result-%s.json" % tag)]
    if args.trace == "1":
        cmd += ["--trace-out", os.path.join(OUT_DIR, "trace-%s.json" % tag)]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
