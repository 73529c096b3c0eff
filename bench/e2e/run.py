#!/usr/bin/env python3
"""Build bench_e2e from source and run one workload.

    python3 bench/e2e/run.py --workload single_link --seed 1 --seconds 12 --trace 0

Run from the repository root. The first call configures and builds
`bench/e2e` (its own CMake project, which adds the repository root as an
EXCLUDE_FROM_ALL subdirectory) under $CARGO_TARGET_DIR, default
`.bench_build`; later calls only let the build check that it is up to date.
Every argument is passed to the benchmark binary, whose standard output is
passed through: its last line is the JSON result. Build output goes to
standard error. Exits non-zero, printing no result, when the build fails.
"""

import fcntl
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
JOBS = str(os.cpu_count() or 2)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "bench_e2e"


def build(out):
    out.mkdir(parents=True, exist_ok=True)
    # One build at a time per build directory.
    with open(out / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (out / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(out), "--target", "bench_e2e",
                      "-j", JOBS])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              cwd=ROOT).returncode != 0:
                return False
    return True


def main():
    out = build_dir()
    if not build(out):
        print("run.py: building bench_e2e failed", file=sys.stderr)
        return 1
    child = subprocess.Popen([str(out / "bench_e2e")] + sys.argv[1:],
                             cwd=ROOT)

    def forward(signum, _frame):
        child.send_signal(signum)

    signal.signal(signal.SIGTERM, forward)
    signal.signal(signal.SIGINT, forward)
    return child.wait()


if __name__ == "__main__":
    sys.exit(main())
