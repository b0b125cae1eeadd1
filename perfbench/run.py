#!/usr/bin/env python3
"""Entry point of the MRTS benchmark.

Builds perfbench/ (and with it the runtime's libraries from src/) in
Release mode under .bench_build/, runs one workload through the
mrts_perfbench program, and prints its result as the last line of stdout:

    python3 perfbench/run.py --workload oupdr_spill --seed 1 --seconds 35 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones (see
BENCHMARK.json). The line before the result is `meta {...}`: build type,
nproc, whether tracing is compiled in, commit, source digest and the
workload's facts. --quick (small inputs) and --perturb (corrupt every
result before its check) exist for smoke_test.py.

Everything the run writes stays inside the checkout: the build tree and the
spill files live under .bench_build/, and the spill directory is removed
when the run ends.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "mrts_perfbench")
# Time one run may take: three times --seconds plus a minute, and at least
# 170 s, since the warm-up and peak-RSS reps add fixed costs to short runs.
MIN_RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def die(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def private_env(tmp):
    env = dict(os.environ)
    env["TMPDIR"] = tmp
    return env


def build():
    """Configures once, then lets the build tool decide what is stale."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("runtime sources (src/) not found next to perfbench/")
    tmp = os.path.join(BUILD_ROOT, "tmp-build")
    os.makedirs(tmp, exist_ok=True)
    env = private_env(tmp)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "mrts_perfbench",
                  "-j", jobs])
    try:
        for cmd in steps:
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  env=env, timeout=BUILD_TIMEOUT_S)
            if proc.returncode != 0:
                die("build step failed: " + " ".join(cmd))
    except subprocess.TimeoutExpired:
        die("build timed out")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def source_digest():
    """sha256 over the files the binary is built from, in path order."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                if name.endswith(".pyc"):
                    continue
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run(args):
    tmp = os.path.join(BUILD_ROOT, "tmp-run-%d" % os.getpid())
    os.makedirs(tmp, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.quick:
        cmd.append("--quick")
    if args.perturb:
        cmd.append("--perturb")
    timeout = max(MIN_RUN_TIMEOUT_S, 3 * args.seconds + 60)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              env=private_env(tmp), text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        die("workload run exceeded %g s" % timeout)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if proc.returncode != 0:
        die("mrts_perfbench exited with code %d" % proc.returncode)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    meta_lines = [l for l in lines if l.startswith("meta ")]
    if not lines or not meta_lines:
        die("mrts_perfbench printed no result")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        die("malformed result line: " + lines[-1])
    meta = json.loads(meta_lines[-1][len("meta "):])
    meta["commit"] = commit()
    meta["source_sha256"] = source_digest()
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps(result))


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--quick", action="store_true")
    p.add_argument("--perturb", action="store_true")
    args = p.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        die("--seed must be >= 0 and --seconds > 0")
    build()
    run(args)


if __name__ == "__main__":
    main()
