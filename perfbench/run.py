#!/usr/bin/env python3
"""The repository benchmark: build the program, run one workload, check it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload mail_event --seed 1 --seconds 20 --trace 0

It builds perfbench_workload (and the program's libraries, from src/) into
$CARGO_TARGET_DIR or .bench_build, runs the workload, pins the measured
program (commit or source digest, build type, compiler, nproc, seed, every
PSF_* variable), writes the full record to .bench_out/, prints a readable
summary to stderr and, as the last line of stdout, one JSON object with the
keys correct, attempted, failed and metrics. --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer metrics.

A run with a PSF_* variable set, an unoptimised build, or more OS threads
than nproc does not measure the default program and reports correct: false.
A run the machine disturbed (mail_event's generator ran late) is marked
valid: false in the record and on stderr; its outputs were still checked.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OPTIMISED = {"Release", "RelWithDebInfo"}
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def build(build_root):
    build_dir = os.path.join(build_root, "perfbench")
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", build_dir, "--target", "perfbench_workload",
         "-j", str(os.cpu_count() or 1)],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    return build_dir


def cmake_cache(build_dir):
    cache = {}
    with open(os.path.join(build_dir, "CMakeCache.txt"), encoding="utf-8") as f:
        for line in f:
            if "=" in line and ":" in line and not line.startswith(("#", "//")):
                key, value = line.rstrip("\n").split("=", 1)
                cache[key.split(":", 1)[0]] = value
    return cache


def source_digest():
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()


def compiler_version(compiler):
    try:
        out = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True, timeout=10)
        return out.stdout.splitlines()[0] if out.stdout else compiler
    except (OSError, subprocess.SubprocessError):
        return compiler or "unknown"


def commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no program sources under {ROOT}/src; run from a full checkout")
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        fail(f"unknown workload {args.workload!r}")

    build_root = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    if not os.path.isabs(build_root):
        build_root = os.path.join(ROOT, build_root)
    build_dir = build(build_root)
    cache = cmake_cache(build_dir)

    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    command = [os.path.join(build_dir, "perfbench_workload"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", out_dir]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        fail(f"{args.workload} exited with {run.returncode}")
    report = json.loads(lines[-1])

    psf_env = {k: v for k, v in sorted(os.environ.items()) if k.startswith("PSF_")}
    invalid = list(report["invalid_reasons"])
    if psf_env:
        invalid.append("PSF_* variables set: " + ", ".join(psf_env))
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    if build_type not in OPTIMISED:
        invalid.append(f"unoptimised build type {build_type!r}")

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    metrics = {}
    for metric in wanted:
        name = metric["name"]
        if name in report["metrics"]:
            metrics[name] = {"value": report["metrics"][name]["value"], "unit": metric["unit"]}
        elif args.trace:
            # A layer this workload does not load (README.md, "Layers").
            metrics[name] = {"value": 0, "unit": metric["unit"]}
        else:
            fail(f"{args.workload} did not report end-to-end metric {name}")

    disturbed = report["disturbed"]
    correct = not invalid and not report["check_failures"]
    attempted = max(1, int(report["attempted"]))
    failed = int(report["failed"])
    record = {
        "pin": {
            "commit": commit(),
            "source_sha256": source_digest(),
            "build_type": build_type,
            "compiler": compiler_version(cache.get("CMAKE_CXX_COMPILER", "")),
            "nproc": os.cpu_count(),
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "psf_env": psf_env,
        },
        "valid": not invalid and not disturbed,
        "invalid_reasons": invalid,
        "disturbed": disturbed,
        "check_failures": report["check_failures"],
        "fail_ratio": failed / attempted,
        "info": report["info"],
        "all_metrics": report["metrics"],
    }
    record_path = os.path.join(
        out_dir, f"result-{args.workload}-{args.seed}-trace{args.trace}.json")
    with open(record_path, "w", encoding="utf-8") as f:
        json.dump(record, f, indent=2, sort_keys=True)

    print(f"== {args.workload} seed={args.seed} trace={args.trace} "
          f"valid={not invalid and not disturbed} "
          f"checks_ok={not report['check_failures']}", file=sys.stderr)
    for reason in invalid:
        print(f"   INVALID: {reason}", file=sys.stderr)
    for reason in disturbed:
        print(f"   DISTURBED: {reason}", file=sys.stderr)
    for miss in report["check_failures"]:
        print(f"   CHECK FAILED: {miss}", file=sys.stderr)
    print(f"   attempted={attempted} failed={failed} fail_ratio={failed / attempted:.6g}",
          file=sys.stderr)
    # Every metric the workload measured; '*' marks the ones in the result
    # line (BENCHMARK.json), which the regression gate compares.
    for name, metric in sorted(report["metrics"].items()):
        mark = "*" if name in metrics else " "
        print(f" {mark} {name} = {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    for key, value in sorted(report["info"].items()):
        print(f"   [{key}] {value}", file=sys.stderr)

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
