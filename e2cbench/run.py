#!/usr/bin/env python3
"""Entry point of the repository benchmark (see BENCHMARK.json).

    python3 e2cbench/run.py --workload megarun|overload|sweep|serve \
        --seed N --seconds S --trace 0|1
    python3 e2cbench/run.py --selftest

Run from the repository root. The first call builds the simulator and the
benchmark binary from source into .bench_build/ (or $CARGO_TARGET_DIR when
set); later calls only re-check the build. Each workload then runs in its own
process, which prints the result object as its last stdout line. This script
checks that object against BENCHMARK.json and prints it as the last line.
Build and progress output go to stderr.

Exit codes: 0 a result was printed; 1 the build or the run failed; 2 invalid
arguments or a checkout without the simulator sources.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def run_group(command, timeout, **kwargs):
    """Runs command in its own process group; on timeout kills the whole group
    (the serve workload forks a service and its workers) and waits for it."""
    process = subprocess.Popen(command, start_new_session=True, **kwargs)
    try:
        out, _ = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise
    return process.returncode, out


def build(build_dir):
    binary = os.path.join(build_dir, "e2cbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        code, _ = run_group(configure, BUILD_TIMEOUT_S, stdout=sys.stderr)
        if code != 0:
            raise RuntimeError("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    code, _ = run_group(["cmake", "--build", build_dir, "--target", "e2cbench", "-j", jobs],
                        BUILD_TIMEOUT_S, stdout=sys.stderr)
    if code != 0 or not os.path.isfile(binary):
        raise RuntimeError("build failed")
    return binary


def check_result(result, spec, trace):
    """Validates the benchmark binary's result object against BENCHMARK.json."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result["metrics"]
    units = {m["name"]: m["unit"] for m in wanted}
    extra = sorted(set(metrics) - set(units))
    if extra:
        raise RuntimeError("metrics not declared in BENCHMARK.json: " + ", ".join(extra))
    for name, unit in units.items():
        if name not in metrics:
            raise RuntimeError("metric %s missing" % name)
        if metrics[name]["unit"] != unit:
            raise RuntimeError("metric %s has unit %s, BENCHMARK.json says %s"
                               % (name, metrics[name]["unit"], unit))
    result["metrics"] = {m["name"]: metrics[m["name"]] for m in wanted}
    return result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no simulator sources under %s; nothing to benchmark" % os.path.join(ROOT, "src"))
        return 2

    out_dir = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    out_dir = os.path.join(ROOT, out_dir)
    binary = build(os.path.join(out_dir, "e2cbench"))
    # Relative to the root: the serve socket path must stay short.
    work_dir = os.path.relpath(os.path.join(out_dir, "run"), ROOT)
    if args.selftest:
        code, _ = run_group([binary, "--selftest", "--work-dir", work_dir], RUN_TIMEOUT_S,
                            cwd=ROOT, stdout=sys.stderr)
        return code

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--digest-dir", os.path.join(out_dir, "digests"), "--work-dir", work_dir]
    if args.trace:
        command += ["--trace-out", os.path.join(out_dir, "traces",
                                                "%s-%d.jsonl" % (args.workload, args.seed))]
    code, out = run_group(command, RUN_TIMEOUT_S, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        log("%s exited with code %d" % (args.workload, code))
        return 1
    result = check_result(json.loads(lines[-1]), spec, args.trace == 1)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as error:
        log(str(error))
        sys.exit(1)
