#!/usr/bin/env python3
"""Parent-vs-change benchmark comparison in alternating pairs.

    tools/ab_bench.py PARENT CHANGE [--workload W ...] [--pairs N] [--seconds S]
                      [--seed K] [--traced] [--worktrees DIR]
    tools/ab_bench.py --selftest [--worktrees DIR]

PARENT and CHANGE are git revisions of this repository. Each is checked out
into its own detached `git worktree` under the worktrees directory and built
there once by e2cbench/run.py (into the worktree's .bench_build/). An
untimed warm-up run per side builds the binary and records the workload's
digest. Then each pair runs both sides back to back, parent first in even
pairs and change first in odd ones, so a drift of the host's speed loads
both sides alike.

For every end-to-end metric of BENCHMARK.json the script prints both
medians, both interquartile ranges (IQR), the relative change (positive is
better), the pairs the change won and a verdict against the metric's bound:
"within bound", "better past bound" or "WORSE past bound". It flags a metric
as "spread" when either side's IQR is wider than its bound times the parent's
median, since such a run cannot resolve a move of the bound's size; and as
"resolved" when its median moved past the bound by more than the parent's
IQR and the change moved the same way in at least 9 in 10 pairs (for a gain,
the rule a performance claim has to meet). With --traced it also runs traced
pairs and prints the direction of every per-layer metric. Last, it prints
one summary line per workload.

Exit codes: 0 compared; 1 a run failed, reported failed operations, or the
two sides' digests differ (the change moved simulated output); 2 bad
arguments. --selftest compares HEAD with itself in 7 alternating pairs of
1 s runs on every workload and also exits 1 if any metric is resolved past
its bound. (On a shared host one run's rate can swing by a third, so two
medians of the same code can land past a bound; a move in 9 of 10 pairs
cannot come from code that did not change.)

Worktrees this script adds are removed when it ends unless --worktrees is
given, in which case they stay (with their builds) for the next call.
"""
import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 1200  # the first run of a side includes its build


def log(message):
    print("ab_bench: " + message, file=sys.stderr, flush=True)


def git(*args):
    return subprocess.run(["git", "-C", ROOT] + list(args), check=True, text=True,
                          stdout=subprocess.PIPE).stdout.strip()


class Side:
    """One revision checked out and built in its own worktree."""

    def __init__(self, name, revision, worktrees):
        self.name = name
        self.commit = git("rev-parse", "--verify", revision + "^{commit}")
        self.dir = os.path.join(worktrees, self.commit[:12])
        self.added = False
        if not os.path.isdir(self.dir):
            git("worktree", "add", "--detach", self.dir, self.commit)
            self.added = True

    def run(self, workload, seed, seconds, trace):
        command = [sys.executable, os.path.join("e2cbench", "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace)]
        env = dict(os.environ)
        env.pop("CARGO_TARGET_DIR", None)  # each side builds in its own worktree
        done = subprocess.run(command, cwd=self.dir, env=env, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            raise RuntimeError("%s (%s) %s run exited with code %d:\n%s"
                               % (self.name, self.commit[:12], workload, done.returncode,
                                  "\n".join(done.stderr.strip().splitlines()[-20:])))
        result = json.loads(lines[-1])
        if not result.get("correct") or result.get("failed", 0) != 0:
            raise RuntimeError("%s (%s) %s run was incorrect or had failed operations: %s"
                               % (self.name, self.commit[:12], workload, lines[-1]))
        return {name: entry["value"] for name, entry in result["metrics"].items()}

    def digest(self, workload, seed):
        path = os.path.join(self.dir, ".bench_build", "digests",
                            "%s-%d.digest" % (workload, seed))
        with open(path) as f:
            return f.read().strip()

    def remove(self):
        if self.added:
            git("worktree", "remove", "--force", self.dir)
            self.added = False


def quartiles(values):
    """Lower quartile, median and upper quartile (linear interpolation)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def relative(parent, change, better):
    """Relative move of the change's median from the parent's; > 0 is better."""
    if parent == 0:
        if change == 0:
            return 0.0
        improved = change > 0 if better == "higher" else change < 0
        return math.inf if improved else -math.inf
    moved = (change - parent) / abs(parent)
    return moved if better == "higher" else -moved


def compare(spec, parent_runs, change_runs):
    """Per-metric comparison of paired runs: a list of dicts."""
    rows = []
    for metric in spec:
        name, better = metric["name"], metric["better"]
        if name not in parent_runs[0] or name not in change_runs[0]:
            continue
        parent = [run[name] for run in parent_runs]
        change = [run[name] for run in change_runs]
        p1, p_med, p3 = quartiles(parent)
        c1, c_med, c3 = quartiles(change)
        wins = sum(1 for p, c in zip(parent, change) if relative(p, c, better) > 0)
        losses = sum(1 for p, c in zip(parent, change) if relative(p, c, better) < 0)
        row = {"name": name, "unit": metric["unit"], "better": better,
               "parent": p_med, "parent_iqr": p3 - p1, "change": c_med, "change_iqr": c3 - c1,
               "rel": relative(p_med, c_med, better), "wins": wins, "pairs": len(parent)}
        bound = metric.get("bound")
        if bound is not None:
            row["bound"] = bound
            if row["rel"] < -bound:
                row["verdict"] = "WORSE past bound"
            elif row["rel"] > bound:
                row["verdict"] = "better past bound"
            else:
                row["verdict"] = "within bound"
            row["spread"] = max(row["parent_iqr"], row["change_iqr"]) > bound * abs(p_med)
            consistent = math.ceil(0.9 * len(parent))
            row["resolved"] = (abs(c_med - p_med) > row["parent_iqr"] and
                               (wins >= consistent if row["rel"] > bound else
                                losses >= consistent if row["rel"] < -bound else False))
        rows.append(row)
    return rows


def fmt(value):
    return "%.4g" % value


def print_rows(title, rows):
    print(title)
    for row in rows:
        line = "  %-24s %10s [IQR %s] -> %10s [IQR %s] %+7.1f%%  wins %d/%d" % (
            row["name"], fmt(row["parent"]), fmt(row["parent_iqr"]), fmt(row["change"]),
            fmt(row["change_iqr"]), 100.0 * row["rel"], row["wins"], row["pairs"])
        if "verdict" in row:
            line += "  %s (bound %g)" % (row["verdict"], row["bound"])
            if row["spread"]:
                line += ", spread"
            if row["resolved"]:
                line += ", resolved"
        else:
            line += "  %s" % ("better" if row["rel"] > 0 else "worse" if row["rel"] < 0
                              else "unchanged")
        print(line)


def summary(workload, args, rows, digest):
    parts = []
    for row in rows:
        parts.append("%s %s -> %s %s (%+.1f%%, %d/%d wins%s)" % (
            row["name"], fmt(row["parent"]), fmt(row["change"]), row["unit"],
            100.0 * row["rel"], row["wins"], row["pairs"],
            ", " + row["verdict"] if "verdict" in row else ""))
    return "%s seed %d, %d alternating pairs x %g s, digest %s: %s" % (
        workload, args.seed, args.pairs, args.seconds, digest, "; ".join(parts))


def run_pairs(parent, change, workload, args, trace):
    parent_runs, change_runs = [], []
    for pair in range(args.pairs):
        order = [(parent, parent_runs), (change, change_runs)]
        if pair % 2 == 1:
            order.reverse()
        for side, runs in order:
            runs.append(side.run(workload, args.seed, args.seconds, trace))
        log("%s%s pair %d/%d done" % (workload, " traced" if trace else "", pair + 1,
                                      args.pairs))
    return parent_runs, change_runs


def compare_revisions(args, spec):
    """Runs the comparison; returns the metrics resolved past their bound."""
    outside = []
    parent = Side("parent", args.parent, args.worktrees)
    change = Side("change", args.change, args.worktrees)
    try:
        print("parent %s, change %s" % (parent.commit[:12], change.commit[:12]))
        lines = []
        for workload in args.workload:
            for side in (parent, change):
                log("%s: warm-up run of %s (builds it the first time)" % (workload, side.name))
                side.run(workload, args.seed, 0.0, 0)
            digests = (parent.digest(workload, args.seed), change.digest(workload, args.seed))
            if digests[0] != digests[1]:
                raise RuntimeError("%s seed %d digests differ: parent %s, change %s"
                                   % (workload, args.seed, digests[0], digests[1]))
            rows = compare(spec["end_to_end"], *run_pairs(parent, change, workload, args, 0))
            print_rows("%s (seed %d, digest %s) end to end:" % (workload, args.seed, digests[0]),
                       rows)
            outside += ["%s.%s" % (workload, row["name"]) for row in rows if row["resolved"]]
            if args.traced:
                traced = compare(spec["per_layer"],
                                 *run_pairs(parent, change, workload, args, 1))
                print_rows("%s per layer (traced):" % workload, traced)
            lines.append(summary(workload, args, rows, digests[0]))
        print("summary:")
        for line in lines:
            print("  " + line)
    finally:
        if not args.keep:
            for side in (parent, change):
                side.remove()
    return outside


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", nargs="?")
    parser.add_argument("change", nargs="?")
    parser.add_argument("--workload", action="append", choices=workloads,
                        help="workload to compare (repeatable; default: all)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--traced", action="store_true", help="also run traced pairs")
    parser.add_argument("--worktrees", help="directory for the worktrees (kept)")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        args.parent = args.change = "HEAD"
        args.pairs, args.seconds, args.traced = 7, 1.0, False
    if args.parent is None or args.change is None:
        parser.error("PARENT and CHANGE are required")
    if args.pairs < 1 or args.seconds < 0 or args.seed < 0:
        parser.error("--pairs must be >= 1, --seconds and --seed >= 0")
    args.workload = args.workload or workloads
    args.keep = args.worktrees is not None
    if args.keep:
        os.makedirs(args.worktrees, exist_ok=True)
    else:
        args.worktrees = tempfile.mkdtemp(prefix="ab_bench-")
    try:
        outside = compare_revisions(args, spec)
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as error:
        log(str(error))
        return 1
    finally:
        if not args.keep:
            shutil.rmtree(args.worktrees, ignore_errors=True)
            git("worktree", "prune")
    if args.selftest:
        if outside:
            log("selftest: HEAD against itself resolved a move past a bound: "
                + ", ".join(outside))
            return 1
        log("selftest passed: no metric resolved past its bound, digests equal")
    return 0


if __name__ == "__main__":
    sys.exit(main())
