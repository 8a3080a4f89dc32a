#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload serve-repeat --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  Builds the `pebblyn` daemon binary from
the repository's workspace and the benchmark package in `perfbench/`
(both into $CARGO_TARGET_DIR, default `.bench_build`), then runs the
benchmark binary, whose last line of output is the JSON result.  Spans of
traced runs, daemon sockets and other run files go to `.bench_out/`.
"""

import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    os.chdir(ROOT)
    for needed in ("Cargo.toml", "crates", os.path.join("perfbench", "Cargo.toml")):
        if not os.path.exists(needed):
            sys.exit(f"perfbench: {needed} is missing; run from a full checkout")
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    threads = str(min(os.cpu_count() or 1, 2))
    env["PEBBLYN_THREADS"] = threads
    builds = [
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", "Cargo.toml", "-p", "pebblyn-cli", "--bin", "pebblyn"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in builds:
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit(f"perfbench: build failed: {' '.join(cmd)}")
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "perfbench"), *sys.argv[1:],
           "--pebblyn", os.path.join(release, "pebblyn"), "--out", ".bench_out"]
    # The benchmark and the daemon it starts run in a process group of
    # their own, so whatever ends this script also ends them.
    proc = subprocess.Popen(cmd, env=env, start_new_session=True)

    def stop(signum, _frame):
        # Popen.wait is not reentrant: reap with os.waitpid directly.
        os.killpg(proc.pid, signal.SIGKILL)
        os.waitpid(proc.pid, 0)
        os._exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    code = proc.wait()
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    sys.exit(code)


if __name__ == "__main__":
    main()
