#!/usr/bin/env python3
"""The benchmark gate: a change against its parent, on every workload.

    python3 tools/perf_gate.py PARENT_DIR CHANGE_DIR

PARENT_DIR and CHANGE_DIR are two checkouts (CI makes the parent with
`git worktree add PARENT_DIR HEAD^`). For each workload that the parent's
BENCHMARK.json declares, the gate runs that file's `command`
(`python3 perfbench/run.py`) in both checkouts: three pairs of runs of
`run_seconds` each, with the side that goes first alternating between
pairs. Pair i runs seed i + 1 on both sides. Each checkout builds into its
own `.bench_build` (the gate unsets CARGO_TARGET_DIR, which run.py would
otherwise share between them).

The gate fails when a run exits non-zero, prints no result, reports
`correct: false` or `failed > 0`, or when an `end_to_end` metric's median
over the change's runs is worse than the parent's median by more than that
metric's `bound` (a share of the parent's median; `better` gives the
direction). Bounds come from the parent's BENCHMARK.json, so a change
cannot loosen its own gate.

Stdout carries one JSON line per run ({workload, side, pair, seed, exit,
result}, where result is run.py's last stdout line or null); progress and
the verdict go to stderr. Exit status: 0 pass, 1 fail, 2 usage error.
"""

import json
import os
import statistics
import subprocess
import sys

RUNS = 3
SIDES = ("parent", "change")


def log(msg):
    print("perf_gate: " + msg, file=sys.stderr, flush=True)


def run_once(config, checkout, workload, seed):
    """One run of the benchmark command in `checkout`: (exit, result)."""
    cmd = list(config["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(config["run_seconds"])]
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    proc = subprocess.run(cmd, cwd=checkout, env=env, stdout=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def value(result, metric):
    try:
        return float(result["metrics"][metric]["value"])
    except (KeyError, TypeError, ValueError):
        return None


def compare(config, runs):
    """The gate's verdict as a pure function of the runs (dicts shaped like
    the stdout lines) and the BENCHMARK.json `config`: (report, failures),
    two lists of lines. The gate passes when `failures` is empty."""
    report, failures = [], []
    for workload in (w["name"] for w in config["workloads"]):
        mine = [r for r in runs if r["workload"] == workload]
        broken = False
        for r in mine:
            where = "%s: %s run %d (seed %d)" % (workload, r["side"],
                                                 r["pair"], r["seed"])
            result = r["result"]
            if r["exit"] != 0:
                failures.append("%s exited %d" % (where, r["exit"]))
            if not isinstance(result, dict):
                failures.append("%s printed no result" % where)
                broken = True
                continue
            if result.get("correct") is not True:
                failures.append("%s reports correct: %s" %
                                (where, json.dumps(result.get("correct"))))
            if result.get("failed", 0) != 0:
                failures.append("%s reports failed: %s" %
                                (where, result.get("failed")))
        if broken:
            continue
        for metric in config["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            med = {}
            for side in SIDES:
                vals = [value(r["result"], name) for r in mine
                        if r["side"] == side]
                if not vals or None in vals:
                    failures.append("%s: %s missing from a %s run" %
                                    (workload, name, side))
                    break
                med[side] = statistics.median(vals)
            else:
                parent, change = med["parent"], med["change"]
                if metric["better"] == "lower":
                    worse = change > parent * (1 + bound)
                else:
                    worse = change < parent * (1 - bound)
                delta = (change - parent) / parent if parent else 0.0
                line = "%s: %s parent %.4g, change %.4g %s (%+.1f%%, %s is " \
                       "better, bound %.0f%%)" % (
                           workload, name, parent, change, metric["unit"],
                           100 * delta, metric["better"], 100 * bound)
                report.append(line)
                if worse:
                    failures.append(line)
    return report, failures


def main(argv):
    if len(argv) != 3:
        print("usage: python3 tools/perf_gate.py PARENT_DIR CHANGE_DIR",
              file=sys.stderr)
        return 2
    parent_dir, change_dir = (os.path.abspath(p) for p in argv[1:])
    dirs = {"parent": parent_dir, "change": change_dir}
    try:
        with open(os.path.join(parent_dir, "BENCHMARK.json")) as f:
            config = json.load(f)
    except (OSError, ValueError) as e:
        log("cannot read the parent's BENCHMARK.json: %s" % e)
        return 2

    runs = []
    for workload in (w["name"] for w in config["workloads"]):
        for pair in range(RUNS):
            seed = pair + 1
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for side in order:
                log("%s pair %d: %s" % (workload, pair, side))
                code, result = run_once(config, dirs[side], workload, seed)
                run = {"workload": workload, "side": side, "pair": pair,
                       "seed": seed, "exit": code, "result": result}
                print(json.dumps(run), flush=True)
                runs.append(run)

    report, failures = compare(config, runs)
    for line in report:
        log(line)
    for line in failures:
        log("FAIL " + line)
    log("FAIL" if failures else "pass")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
