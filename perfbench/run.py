#!/usr/bin/env python3
"""Builds the pipeline benchmark from source and runs it.

Run from the repository root:

    python3 perfbench/run.py --workload zebra_wide --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 1

The build goes to .bench_build/ and per-run details (machine stamp,
reference source, errors, result) to .bench_build/results/; nothing else
is written.  The last line of standard output is the JSON result:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
`--workload all` runs every workload in BENCHMARK.json and ends with one
result whose metric names are prefixed with the workload.  The exit code
is non-zero on a build failure, a wrong answer, a traced stage sum off by
more than 2%, or metrics that do not match BENCHMARK.json.
"""

import argparse
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
PIPELINE_BENCH = os.path.join(BUILD_DIR, "pipeline_bench")
REFERENCES = os.path.join(BENCH_DIR, "references.txt")
# A run must end within 180 s; leave room for start-up.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840
NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def child_env():
    """The environment for the build and pipeline_bench: temporary files
    stay inside the build directory."""
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build():
    """Configures once, then builds pipeline_bench incrementally."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-G", "Unix Makefiles",
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "pipeline_bench",
                  "-j", jobs])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=child_env(),
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step %s failed: %s" % (cmd[:2], e))
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            fail("build step %s exited %d" % (cmd[:2], proc.returncode))


def check_result(result, kind, declared):
    """Problems with a result line against the declared `kind` metrics."""
    problems = []
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return ["result %.80r lacks the keys %s" %
                (result, sorted(RESULT_KEYS))]
    metrics = result["metrics"]
    for name, metric in metrics.items():
        if not NAME_RE.match(name):
            problems.append("metric name %r" % name)
        if name in declared and metric.get("unit") != declared[name]:
            problems.append("%s unit %r, declared %r" %
                            (name, metric.get("unit"), declared[name]))
    if set(metrics) != set(declared):
        problems.append("metrics %s differ from BENCHMARK.json's %s" %
                        (sorted(set(metrics) ^ set(declared)), kind))
    return problems


def run_one(workload, seed, seconds, trace, kind, declared):
    """Runs one workload; returns (exit code, output lines, result)."""
    os.makedirs(os.path.join(BUILD_DIR, "results"), exist_ok=True)
    out = os.path.join(BUILD_DIR, "results",
                       "%s-seed%d-trace%d.json" % (workload, seed, trace))
    cmd = [PIPELINE_BENCH, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--references", REFERENCES, "--out", out]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(),
                              stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(proc.stdout)
        fail("%s printed no result (exit %d)" % (workload, proc.returncode))
    problems = check_result(result, kind, declared)
    if problems:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail("%s: %s" % (workload, "; ".join(problems)))
    return proc.returncode, lines, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 0:
        fail("--seed and --seconds must not be negative")

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    if any(w not in names for w in workloads):
        fail("unknown workload %r; known: %s" %
             (args.workload, ", ".join(names)))
    kind = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in spec[kind]}

    build()
    code = 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        rc, lines, result = run_one(workload, args.seed, args.seconds,
                                    args.trace, kind, declared)
        code = code or rc
        if len(workloads) == 1:
            sys.stdout.write("\n".join(lines) + "\n")
            return rc
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][workload + "." + name] = metric
    print(json.dumps(combined))
    return code


if __name__ == "__main__":
    sys.exit(main())
