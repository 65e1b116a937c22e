#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <orb_echo|control_loop|remote_stream|all>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds
perfbench/ (which compiles ../src) in Release mode into the directory named
by CARGO_TARGET_DIR, or .bench_build when it is unset; later runs only
check that the build is current. The perfbench binary prints a report and, as
its last line, one JSON result object; this script passes its output
through unchanged and exits with its exit code. Span files and per-run
artifacts (with the host block) land in <build dir>/out/.
"""
import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880
WORKLOADS = ["orb_echo", "control_loop", "remote_stream"]


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(out):
    """Configure (once) and build; returns the binary path or None."""
    log_path = os.path.join(out, "build.log")
    os.makedirs(out, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    with open(log_path, "a") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    cwd=ROOT, timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as exc:
                print(f"perfbench: build step failed: {exc}", file=sys.stderr)
                return None
            if rc != 0:
                print(f"perfbench: build failed ({' '.join(cmd)}); see {log_path}",
                      file=sys.stderr)
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                return None
    binary = os.path.join(out, "perfbench")
    return binary if os.access(binary, os.X_OK) else None


def run_one(binary, workload, args, artifacts):
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", artifacts]
    if args.inject:
        cmd += ["--inject", args.inject]
    sys.stdout.flush()
    # Own process group, so a hung run (and its echo peer) can be stopped
    # as a whole.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return 4
    except KeyboardInterrupt:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"],
                    help="one workload, or all three in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--inject", default="",
                    help="self-test only: plant a fault a check must catch")
    args = ap.parse_args()

    out = build_dir()
    binary = build(out)
    if binary is None:
        return 2
    artifacts = os.path.join(out, "out")
    os.makedirs(artifacts, exist_ok=True)
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    return max(run_one(binary, w, args, artifacts) for w in workloads)

if __name__ == "__main__":
    sys.exit(main())
