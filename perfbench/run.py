#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --stream-rate 1100000 \\
        --workload <bigjob-window|fleet-window|fleet-stream|all> \\
        --seed N --seconds S --trace 0|1

Builds perfbench (Release, against this checkout's library sources) into
.bench_build/perfbench on first use, runs one workload and prints the run
context line followed, as the last line, by the JSON result of the run.
`--workload all` runs every workload in turn and prints one result line
per workload. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(".bench_build", "perfbench")
WORKLOADS = ["bigjob-window", "fleet-window", "fleet-stream"]
RUN_TIMEOUT_S = 175


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configure (once) and build the benchmark binary; returns its path."""
    for needed in ("CMakeLists.txt", "src", "include"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("no library sources in this checkout (missing %s)" % needed)
    os.makedirs(os.path.join(ROOT, BUILD_DIR), exist_ok=True)
    log_path = os.path.join(ROOT, BUILD_DIR, "build.log")
    steps = []
    if not os.path.exists(os.path.join(ROOT, BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, cwd=ROOT, stdout=log,
                              stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(step))
    return os.path.join(ROOT, BUILD_DIR, "perfbench")


def revision():
    """Git revision when this is a git checkout, plus a digest of the
    sources, which identifies the code either way."""
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        git = rev.stdout.strip() if rev.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        git = None
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "include", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return git or "none (not a git checkout)", digest.hexdigest()[:16]


def run(binary, args, workload):
    work_dir = os.path.join(".bench_build", "run", workload)
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--stream-rate", str(args.stream_rate), "--work-dir", work_dir]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    lines = proc.stdout.splitlines()
    context = {}
    for line in lines:
        if line.startswith("context "):
            context = json.loads(line[len("context "):])
    git, source = revision()
    context.update({"git_revision": git, "source_digest": source,
                    "stream_rate": args.stream_rate})
    print("context " + json.dumps(context, sort_keys=True))
    result = lines[-1] if lines and lines[-1].startswith("{") else None
    return proc.returncode, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--stream-rate", type=float, required=True,
                        help="fleet-stream nominal open-loop rate, flows/s")
    args = parser.parse_args()

    binary = build()
    if args.workload != "all":
        code, result = run(binary, args, args.workload)
        if result is not None:
            print(result)
        sys.exit(code)
    worst = 0
    for workload in WORKLOADS:
        code, result = run(binary, args, workload)
        print("%s %s" % (workload, result))
        worst = max(worst, code)
    sys.exit(worst)


if __name__ == "__main__":
    main()
