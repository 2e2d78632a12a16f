#!/usr/bin/env python3
"""The llhsc benchmark, one command:

    python3 perfbench/run.py --workload board-cold|product-line|daemon-mixed \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. It builds the benchmark binary and llhscd
from the checkout's sources (perfbench/CMakeLists.txt) into
$CARGO_TARGET_DIR, or .bench_build when that is unset, generates the seeded
inputs with their known answers (perfbench/gen.py), and runs the binary.
The last line of stdout is the result object; see perfbench/README.md.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("board-cold", "product-line", "daemon-mixed")


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build(build_dir):
    cmake_dir = os.path.join(build_dir, "cmake")
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", cmake_dir],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", cmake_dir, "-j",
                    str(os.cpu_count() or 1)], stdout=sys.stderr, check=True)
    return cmake_dir


def inputs(build_dir, seed):
    """Generated inputs, cached per seed and generator version."""
    with open(os.path.join(HERE, "gen.py"), "rb") as f:
        version = hashlib.sha256(f.read()).hexdigest()[:12]
    out = os.path.join(build_dir, "inputs", "%s-%d" % (version, seed))
    if not os.path.isfile(os.path.join(out, "manifest.json")):
        tmp = out + ".tmp"
        subprocess.run([sys.executable, os.path.join(HERE, "gen.py"),
                        "--seed", str(seed), "--out", tmp], check=True)
        os.replace(tmp, out)
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("llhsc sources not found in %s; run from a full checkout" % ROOT)
        return 2
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    try:
        cmake_dir = build(build_dir)
        input_dir = inputs(build_dir, args.seed)
    except subprocess.CalledProcessError as e:
        log("set-up failed: %s" % e)
        return 1
    # Sockets, daemon logs and profiles of this run; the traced run's span
    # file moves up to build_dir/run when the binary is done.
    run_dir = os.path.join(build_dir, "run")
    workdir = os.path.join(run_dir, str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)

    # Relative paths keep the daemon's socket path short.
    rel = lambda p: os.path.relpath(p, ROOT)
    cmd = [os.path.join(cmake_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--inputs", rel(input_dir), "--workdir", rel(workdir),
           "--llhscd", os.path.join(cmake_dir, "llhscd")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=170)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        log("the benchmark did not finish in time")
        code = 1
    stop_leftover_daemons(rel(workdir))
    for name in os.listdir(workdir):
        if name.startswith("spans-"):
            os.replace(os.path.join(workdir, name),
                       os.path.join(run_dir, name))
    shutil.rmtree(workdir, ignore_errors=True)
    return code


def stop_leftover_daemons(workdir):
    """The benchmark drains every llhscd it starts; should it die first, end
    any daemon it left behind (its socket lies in `workdir`) and wait for
    it to go."""
    def leftovers():
        pids = []
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open("/proc/%s/cmdline" % entry, "rb") as f:
                    argv = f.read().decode(errors="replace").split("\0")
            except OSError:
                continue
            if (os.path.basename(argv[0]) == "llhscd" and
                    any(a.startswith(workdir + "/") for a in argv)):
                pids.append(int(entry))
        return pids

    for sig in (signal.SIGTERM, signal.SIGKILL):
        pids = leftovers()
        if not pids:
            return
        log("stopping leftover llhscd %s" % pids)
        for pid in pids:
            try:
                os.kill(pid, sig)
            except OSError:
                pass
        deadline = time.monotonic() + 10
        while leftovers() and time.monotonic() < deadline:
            time.sleep(0.05)


if __name__ == "__main__":
    sys.exit(main())
