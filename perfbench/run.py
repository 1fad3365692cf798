#!/usr/bin/env python3
"""Build the perfbench package and run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <offline-paper|ingest-bulk|serve-closed>
                             --seed <n> --seconds <s> --trace <0|1>

Builds `perfbench/` in release mode (into $CARGO_TARGET_DIR, default
`.bench_build/`), runs the workload, and passes its standard output
through: a decision line, then the result line
`{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`.
Exits non-zero without a result line when the build or the run fails.

`--tiny` shrinks every input (self-test); `--inject-fault` plants one
wrong expected output, which the run must count as a failed op.
"""

import argparse
import os
import signal
import subprocess
import sys
import time

WORKLOADS = ("offline-paper", "ingest-bulk", "serve-closed")
# A run must end within 180 s (plus the build on a fresh checkout); stop
# a runaway workload before that.
RUN_DEADLINE_S = 170


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--inject-fault", action="store_true")
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    target = os.path.join(root, env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    started = time.monotonic()
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(root, "perfbench", "Cargo.toml")],
        cwd=root, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    out_dir = os.path.join(target, "perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [os.path.join(target, "release", "perfbench"), "run",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir]
    if args.tiny:
        cmd.append("--tiny")
    if args.inject_fault:
        cmd.append("--inject-fault")
    # Own process group, so a timeout also stops the server child.
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                            start_new_session=True)

    def stop(signum, _frame):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        # An up-to-date build takes about a second and counts against the
        # deadline; a real (first) build does not.
        build_s = time.monotonic() - started
        budget = RUN_DEADLINE_S - build_s if build_s < 30 else RUN_DEADLINE_S
        stdout, _ = proc.communicate(timeout=budget)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: the run did not finish in time", file=sys.stderr)
        return 3
    if proc.returncode != 0:
        print(f"perfbench: the run exited with {proc.returncode}", file=sys.stderr)
        return proc.returncode if proc.returncode > 0 else 4
    sys.stdout.write(stdout.decode())
    return 0


if __name__ == "__main__":
    sys.exit(main())
