#!/usr/bin/env python3
"""Build and run the dnslocate repository benchmark.

    python3 perfbench/run.py --workload campaign|hostile|daemon \\
        --seed N --seconds S --trace 0|1 [--smoke] [--corrupt-reference]

Run it from the root of a checkout. It builds the libraries under src/ and
the two benchmark binaries into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), runs the workload, and prints one JSON object as the
last line of stdout: every end-to-end metric with --trace 0, every per-layer
metric with --trace 1. The exit status is 0 only when every output was
correct. See perfbench/README.md.

--trace 1 makes three runs: a short untraced run for the tracing-overhead
baseline, the traced run, and a second traced run whose exact counts
(allocations, attempts, bytes, drops) must equal the first's.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"dnslocate sources not found at {os.path.join(ROOT, 'src')}")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", bdir, "-j", jobs, "--target", "perfbench", "perfbench_traced"]]
    # Once configured, the build step re-runs CMake itself when a list file changes.
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-8000:])
            fail("build failed: " + " ".join(step))


def run(binary, args):
    """Run a benchmark binary; return (exit code, stdout lines, parsed result or None)."""
    try:
        done = subprocess.run([binary] + args, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{os.path.basename(binary)} did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return done.returncode, lines, result


def exact_names(lines):
    for line in lines:
        if line.startswith("# exact:"):
            return line[len("# exact:"):].split()
    return []


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=["campaign", "hostile", "daemon"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs: the benchmark's own tests")
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="damage one reference output; the correctness gate must fail")
    args = parser.parse_args()

    bdir = build_dir()
    build(bdir)
    work = os.path.join(bdir, "work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--work-dir", work]
    if args.smoke:
        common.append("--smoke")
    if args.corrupt_reference:
        common.append("--corrupt-reference")
    untraced = os.path.join(bdir, "perfbench")
    traced = os.path.join(bdir, "perfbench_traced")

    try:
        if args.trace == 0:
            code, lines, result = run(untraced, common + ["--seconds", str(args.seconds)])
            if result is None:
                fail(f"perfbench exited {code} without a result")
            print("\n".join(lines))
            return code

        # The untraced baseline the tracing overhead is measured against.
        code, _, base = run(untraced, common + ["--seconds", str(max(1.0, args.seconds / 2))])
        if base is None:
            fail(f"untraced baseline exited {code} without a result")
        rate = base["metrics"]["probes_per_s"]["value"]
        code, lines, result = run(traced, common + ["--seconds", str(args.seconds),
                                                    "--untraced-probes-per-s", repr(rate)])
        if result is None:
            fail(f"perfbench_traced exited {code} without a result")
        # Keep the span trace of the traced run; the work directory goes.
        trace_file = f"trace-{args.workload}.json"
        if os.path.exists(os.path.join(work, trace_file)):
            os.replace(os.path.join(work, trace_file), os.path.join(bdir, trace_file))
        code2, _, again = run(traced, common + ["--seconds", str(args.seconds), "--counts-only"])
        if again is None:
            fail(f"second traced run exited {code2} without a result")

        # Self-check: every exact count repeats between the two traced runs.
        names = exact_names(lines)
        mismatched = [n for n in names
                      if result["metrics"][n]["value"] != again["metrics"][n]["value"]]
        for name in mismatched:
            print(f"# count {name} did not repeat: {result['metrics'][name]['value']} then "
                  f"{again['metrics'][name]['value']}")
        print(f"# count self-check: {len(names) - len(mismatched)}/{len(names)} counts repeated")
        ok = (base["correct"] and result["correct"] and again["correct"] and bool(names)
              and not mismatched)
        result["correct"] = ok
        if not ok and result["failed"] == 0:
            result["failed"] = 1
        print("\n".join(lines[:-1]))
        print(json.dumps(result))
        return 0 if ok else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
