#!/usr/bin/env python3
"""Smoke test of the benchmark itself:  python3 perfbench/smoke_test.py

For every workload, a --quick run (small inputs) with --trace 0 and one with
--trace 1 must pass their output checks and print every metric that
BENCHMARK.json names, with its unit. Each end-to-end value must be above 0.
Each per-layer value must not be 0 (obs.trace_overhead_pct may be negative),
except for metrics that the run's meta line lists as not applicable or that
may be 0 on a correct run (MAY_BE_ZERO): a metric read from a span or
counter that was renamed away would otherwise print a silent 0. A
--perturb run, which corrupts each result before its check (a swapped
subdomain pair, or a hop total off by one), must count every rep as a
failed operation. A copy of the benchmark without the runtime sources next
to it must fail without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Per-layer metrics that may read 0 on a correct run.
MAY_BE_ZERO = {"obs.trace_dropped", "simnet.retransmits", "core.spills_elided",
               "core.overlap_pct"}


def run(root, *extra):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--seed", "7", "--seconds", "1"] + list(extra)
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    return proc.returncode, lines, proc.stderr


def meta_of(lines):
    metas = [l for l in lines[:-1] if l.startswith("meta ")]
    return json.loads(metas[-1][len("meta "):]) if metas else None


def result_of(lines):
    """The result line, or None when it breaks the output format."""
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    keys = ["attempted", "correct", "failed", "metrics"]
    if not isinstance(result, dict) or sorted(result) != keys:
        return None
    if not isinstance(result["failed"], int):
        return None
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return None
    return result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    errors = []

    def expect(cond, what):
        if not cond:
            errors.append(what)
            print("FAIL: " + what, file=sys.stderr)

    for w in (x["name"] for x in spec["workloads"]):
        for trace, defs in (("0", spec["end_to_end"]),
                            ("1", spec["per_layer"])):
            rc, lines, err = run(ROOT, "--workload", w, "--trace", trace,
                                 "--quick")
            label = "%s --trace %s" % (w, trace)
            r = result_of(lines) if rc == 0 and lines else None
            expect(r is not None,
                   label + ": exit %d, no result\n%s" % (rc, err[-2000:]))
            if r is None:
                continue
            expect(r["correct"] and r["failed"] == 0,
                   label + ": checks failed\n" + err[-2000:])
            meta = meta_of(lines)
            expect(meta is not None, label + ": no meta line")
            if meta is None:
                continue
            may_be_zero = MAY_BE_ZERO | set(meta.get("not_applicable", []))
            got = r["metrics"]
            want = {d["name"]: d["unit"] for d in defs}
            expect(sorted(got) == sorted(want),
                   label + ": metric names differ: %s" %
                   sorted(set(got) ^ set(want)))
            for name, unit in want.items():
                m = got.get(name, {})
                expect(m.get("unit") == unit, label + ": %s unit" % name)
                expect(isinstance(m.get("value"), (int, float)),
                       label + ": %s value" % name)
                value = m.get("value", 0)
                if trace == "0":
                    expect(value > 0, label + ": %s is not above 0" % name)
                elif name not in may_be_zero:
                    expect(value != 0, label + ": %s is 0" % name)

        rc, lines, err = run(ROOT, "--workload", w, "--trace", "0", "--quick",
                             "--perturb")
        label = w + " --perturb"
        r = result_of(lines) if rc == 0 and lines else None
        expect(r is not None, label + ": exit %d, no result" % rc)
        if r is not None:
            expect(not r["correct"] and r["failed"] == r["attempted"],
                   label + ": wrong results not counted as failed: %s" % r)

    bare = os.path.join(ROOT, ".bench_build", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        rc, lines, _ = run(bare, "--workload", "hop_storm", "--trace", "0")
        expect(rc != 0 and not any(l.startswith("{") for l in lines),
               "benchmark without src/ must fail without a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print("smoke test: %s" % ("FAILED" if errors else "ok"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
