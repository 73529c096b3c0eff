#!/usr/bin/env python3
"""Record or check the quick seed-1 bench_e2e figures CI holds each run to.

    python3 tools/e2e_smoke.py record
    python3 tools/e2e_smoke.py check single_link=/tmp/e2e_single.txt ...

`record` runs the three workloads at smoke size (`bench/e2e/run.py
--workload W --seed 1 --quick`) and writes their end-to-end figures to
bench/data/E2E_smoke.json. Run it from the repository root after a change
that moves them on purpose, and commit the file.

`check` reads the saved standard output of such runs (their last line is
the JSON result) and compares each against the recorded figures. Every
figure repeats exactly for a seed on any host except allocs_per_key (the
C++ library's own blocks), so the bands are tight: virt_ttk_mean_ms and
wire_bytes_per_key at most 1% above the record, established_frac at most
0.005 and kar_pre at most 0.001 below it, and allocs_per_key at most 15%
above it. Exits 1 when any figure is out of its band.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SNAPSHOT = ROOT / "bench" / "data" / "E2E_smoke.json"
WORKLOADS = ("gateway_predict", "gateway_lossy", "single_link")
COMMAND = "python3 tools/e2e_smoke.py record"

# name: (kind, band); "max" figures may rise by a factor, "min" ones fall
# by an amount.
BANDS = {
    "allocs_per_key": ("max", 1.15),
    "virt_ttk_mean_ms": ("max", 1.01),
    "wire_bytes_per_key": ("max", 1.01),
    "established_frac": ("min", 0.005),
    "kar_pre": ("min", 0.001),
}


def metrics_of(stdout):
    """The figures in a bench_e2e run's last output line."""
    result = json.loads(stdout.strip().splitlines()[-1])
    return {name: result["metrics"][name]["value"] for name in BANDS}


def record():
    figures = {}
    for workload in WORKLOADS:
        run = subprocess.run(
            [sys.executable, "bench/e2e/run.py", "--workload", workload,
             "--seed", "1", "--quick"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        figures[workload] = metrics_of(run.stdout)
    SNAPSHOT.write_text(json.dumps(
        {"regenerate": COMMAND, "seed": 1, "quick": True,
         "workloads": figures}, indent=2) + "\n")
    print(f"wrote {SNAPSHOT.relative_to(ROOT)}")
    return 0


def check(pairs):
    recorded = json.loads(SNAPSHOT.read_text())["workloads"]
    failed = False
    for pair in pairs:
        workload, _, path = pair.partition("=")
        got = metrics_of(Path(path).read_text())
        for name, (kind, band) in BANDS.items():
            want = recorded[workload][name]
            limit = want * band if kind == "max" else want - band
            ok = got[name] <= limit if kind == "max" else got[name] >= limit
            print(f"{workload}: {name} {got[name]:.4f} (limit {limit:.4f})",
                  "ok" if ok else "OUT OF BAND")
            failed |= not ok
    if failed:
        print(f"if the move is intended, re-record with: {COMMAND}")
    return 1 if failed else 0


def main(argv):
    if argv[:1] == ["record"] and len(argv) == 1:
        return record()
    if argv[:1] == ["check"] and len(argv) > 1 and all(
            a.partition("=")[0] in WORKLOADS for a in argv[1:]):
        return check(argv[1:])
    print(__doc__.strip().splitlines()[0], file=sys.stderr)
    print("usage: e2e_smoke.py record | check WORKLOAD=OUTPUT...",
          file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
