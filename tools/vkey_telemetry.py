#!/usr/bin/env python3
"""vkey_telemetry.py — validate telemetry JSONL and gate soak regressions.

Two jobs, matching the two artifacts the soak/bench drivers emit:

validate FILE...
    Structural check of a `--telemetry-out` JSONL document (schema
    "vkey-telemetry/1", see src/common/telemetry.h): one header line, zero or
    more delta-encoded sample lines, one summary line. Verifies the header
    fields, that sample seq numbers are consecutive and t_ms is
    non-decreasing, that every counter delta is a number, every gauge is the
    {value, high, low} triple, every histogram entry carries exactly
    {dcount, p50, p90, p99, overflow, max}, and that the summary's
    samples/retained/dropped/last_t_ms agree with the lines actually present.

check FRESH --baseline BASELINE
    Perf-regression gate over BENCH_soak.json scalars: compares a fresh soak
    snapshot against a committed baseline of the same scale (in CI the
    `bench_soak --quick` run against bench/data/SOAK_smoke.json) with
    per-key tolerance bands. A pair whose `quick` flags differ is itself a
    finding: queue depth and tail amortization move the scale-bound
    scalars (overall p99, keys/s) between scales, so only same-scale runs
    compare. Absolute totals (establishments, virtual_hours, rekeys) are
    deliberately not compared. `steady_live_growth_blocks` is exact: any
    steady-state heap growth at all fails the gate, in CI just like in the
    harness itself.

Both subcommands print one line per finding and exit 1 when anything fails,
0 when clean, 2 on usage/IO errors. `--self-test` replays both directions
(known-good must pass, each seeded corruption must fail) with no files.
"""

import argparse
import json
import sys
from pathlib import Path

SCHEMA = "vkey-telemetry/1"

SAMPLE_KEYS = {"seq", "t_ms", "counters", "gauges", "hists"}
GAUGE_KEYS = {"value", "high", "low"}
HIST_KEYS = {"dcount", "p50", "p90", "p99", "overflow", "max"}

# Tolerance bands for `check`, keyed by BENCH_soak.json scalar name.
#   exact — fresh must equal the given value (allocation-growth gate)
#   min   — fresh must be >= the given value
#   ratio — fresh/baseline must lie in [1/band, band]
# Both runs are bit-deterministic at one scale, so the ratio bands absorb
# no run-to-run noise, only real drift (and libstdc++ or host differences
# in the allocation count). A fresh run outside a band means one of the
# lanes moved — including an improvement big enough that the committed
# baseline is stale and should be regenerated (docs/OPERATIONS.md
# section 9).
TOLERANCES = {
    "steady_allocs_per_key": ("ratio", 1.2),
    "steady_p99_ttk_lossless_ms": ("ratio", 1.25),
    "steady_live_growth_blocks": ("exact", 0.0),
    "established_rate": ("min", 0.999),
    "steady_keys_per_vsecond": ("ratio", 1.3),
    "steady_p99_ttk_ms": ("ratio", 1.5),
}


def is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def validate_lines(lines, origin="<memory>"):
    """Validate one JSONL document given as a list of text lines.

    Returns a list of finding strings (empty = valid).
    """
    findings = []

    def bad(lineno, msg):
        findings.append(f"{origin}:{lineno}: {msg}")

    rows = []
    for i, raw in enumerate(lines, start=1):
        if not raw.strip():
            bad(i, "blank line (JSONL documents have no blank lines)")
            continue
        try:
            rows.append((i, json.loads(raw)))
        except json.JSONDecodeError as e:
            bad(i, f"not valid JSON: {e}")
    if findings:
        return findings
    if len(rows) < 2:
        bad(len(rows), "document needs at least a header and a summary line")
        return findings

    # -- header ------------------------------------------------------------
    lineno, header = rows[0]
    if not isinstance(header, dict) or header.get("schema") != SCHEMA:
        bad(lineno, f'header must carry "schema": "{SCHEMA}"')
        return findings
    if not isinstance(header.get("source"), str):
        bad(lineno, 'header "source" must be a string')
    flt = header.get("filter")
    if not isinstance(flt, list) or not all(isinstance(p, str) for p in flt):
        bad(lineno, 'header "filter" must be a list of prefix strings')
    cap = header.get("ring_capacity")
    if not is_number(cap) or cap < 1:
        bad(lineno, 'header "ring_capacity" must be a positive number')
    if not isinstance(header.get("annotations"), dict):
        bad(lineno, 'header "annotations" must be an object')

    # -- summary -----------------------------------------------------------
    lineno, tail = rows[-1]
    summary = tail.get("summary") if isinstance(tail, dict) else None
    if not isinstance(summary, dict):
        bad(lineno, 'last line must be the {"summary": {...}} line')
        return findings
    for key in ("samples", "retained", "dropped", "last_t_ms"):
        if not is_number(summary.get(key)):
            bad(lineno, f'summary "{key}" must be a number')
    samples = rows[1:-1]
    if is_number(summary.get("retained")) and summary["retained"] != len(samples):
        bad(lineno, f'summary "retained" is {summary["retained"]} '
                    f"but {len(samples)} sample lines are present")
    if (is_number(summary.get("samples")) and is_number(summary.get("dropped"))
            and summary["samples"] != summary["dropped"] + len(samples)):
        bad(lineno, 'summary "samples" != "dropped" + retained lines')

    # -- samples -----------------------------------------------------------
    prev_seq = None
    prev_t = None
    for lineno, s in samples:
        if not isinstance(s, dict) or set(s) != SAMPLE_KEYS:
            bad(lineno, f"sample keys must be exactly {sorted(SAMPLE_KEYS)}")
            continue
        if not is_number(s["seq"]) or not is_number(s["t_ms"]):
            bad(lineno, '"seq" and "t_ms" must be numbers')
            continue
        if prev_seq is not None and s["seq"] != prev_seq + 1:
            bad(lineno, f'seq {s["seq"]} does not follow {prev_seq} '
                        "(retained samples must be consecutive)")
        if prev_t is not None and s["t_ms"] < prev_t:
            bad(lineno, f't_ms {s["t_ms"]} went backwards from {prev_t}')
        prev_seq, prev_t = s["seq"], s["t_ms"]

        counters = s["counters"]
        if not isinstance(counters, dict):
            bad(lineno, '"counters" must be an object')
        else:
            for name, v in counters.items():
                if not is_number(v):
                    bad(lineno, f'counter "{name}" delta must be a number')
        gauges = s["gauges"]
        if not isinstance(gauges, dict):
            bad(lineno, '"gauges" must be an object')
        else:
            for name, g in gauges.items():
                if (not isinstance(g, dict) or set(g) != GAUGE_KEYS
                        or not all(is_number(g[k]) for k in GAUGE_KEYS)):
                    bad(lineno, f'gauge "{name}" must be a numeric '
                                "{value, high, low} triple")
        hists = s["hists"]
        if not isinstance(hists, dict):
            bad(lineno, '"hists" must be an object')
        else:
            for name, h in hists.items():
                if (not isinstance(h, dict) or set(h) != HIST_KEYS
                        or not all(is_number(h[k]) for k in HIST_KEYS)):
                    bad(lineno, f'histogram "{name}" must carry exactly '
                                "{dcount, p50, p90, p99, overflow, max}")
                    continue
                if h["dcount"] < 1:
                    bad(lineno, f'histogram "{name}" emitted with dcount < 1 '
                                "(unchanged instruments must be omitted)")
                if h["overflow"] < 0:
                    bad(lineno, f'histogram "{name}" overflow is negative')

    if samples and not findings:
        last_t = samples[-1][1]["t_ms"]
        if is_number(summary.get("last_t_ms")) and summary["last_t_ms"] != last_t:
            bad(rows[-1][0], f'summary "last_t_ms" is {summary["last_t_ms"]} '
                             f"but the last sample is at {last_t}")
    return findings


def check_scalars(fresh_doc, baseline_doc):
    """Compare soak snapshot scalars against the baseline tolerance bands.

    Returns a list of finding strings (empty = within bands).
    """
    findings = []
    fresh = fresh_doc.get("scalars", {})
    base = baseline_doc.get("scalars", {})
    fresh_quick = bool(fresh_doc.get("quick"))
    if fresh_quick != bool(baseline_doc.get("quick")):
        findings.append(f"fresh run quick={str(fresh_quick).lower()} but "
                        f"baseline quick={str(not fresh_quick).lower()}: "
                        f"compare runs of one scale")
    gates = fresh_doc.get("notes", {}).get("gates_passed")
    if gates != "yes":
        findings.append(f'fresh run notes.gates_passed is {gates!r}, not "yes"')
    for key, (kind, band) in TOLERANCES.items():
        if not is_number(fresh.get(key)):
            findings.append(f'fresh snapshot is missing scalar "{key}"')
            continue
        f = fresh[key]
        if kind == "exact":
            if f != band:
                findings.append(f"{key}: {f} (must be exactly {band})")
        elif kind == "min":
            if f < band:
                findings.append(f"{key}: {f} below the floor {band}")
        else:  # ratio vs baseline
            if not is_number(base.get(key)):
                findings.append(f'baseline is missing scalar "{key}"')
                continue
            b = base[key]
            if b <= 0:
                findings.append(f'baseline "{key}" is {b}, cannot form a ratio')
                continue
            lo, hi = 1.0 / band, band
            ratio = f / b
            if not (lo <= ratio <= hi):
                findings.append(
                    f"{key}: {f:.4g} vs baseline {b:.4g} "
                    f"(ratio {ratio:.3f} outside [{lo:.3f}, {hi:.3g}])")
    return findings


# --------------------------------------------------------------------------
# self-test: known-good must pass, each seeded corruption must fail.

GOOD_JSONL = [
    json.dumps({"schema": SCHEMA, "source": "self-test",
                "filter": ["gateway."], "ring_capacity": 8,
                "annotations": {"seed": "1"}}),
    json.dumps({"seq": 3, "t_ms": 1000, "counters": {"gateway.admitted": 4},
                "gauges": {"gateway.queued_sessions":
                           {"value": 2, "high": 5, "low": 0}},
                "hists": {"gateway.ttk_ms": {"dcount": 4, "p50": 10.0,
                                             "p90": 20.0, "p99": 30.0,
                                             "overflow": 0, "max": 25.0}}}),
    json.dumps({"seq": 4, "t_ms": 2000, "counters": {}, "gauges": {},
                "hists": {}}),
    json.dumps({"summary": {"samples": 5, "retained": 2, "dropped": 3,
                            "last_t_ms": 2000}}),
]


def _corrupt(mutate):
    doc = [json.loads(line) for line in GOOD_JSONL]
    mutate(doc)
    return [json.dumps(line) for line in doc]


def _set(doc, line, key, value):
    doc[line][key] = value


CORRUPTIONS = {
    "schema tag": lambda d: _set(d, 0, "schema", "vkey-telemetry/0"),
    "seq gap": lambda d: _set(d, 2, "seq", 9),
    "time reversal": lambda d: _set(d, 2, "t_ms", 500),
    "extra sample key": lambda d: _set(d, 2, "threads", 4),
    "gauge shape": lambda d: _set(d, 1, "gauges",
                                  {"gateway.queued_sessions": {"value": 2}}),
    "hist shape": lambda d: d[1]["hists"]["gateway.ttk_ms"].pop("overflow"),
    "string counter": lambda d: _set(d, 1, "counters",
                                     {"gateway.admitted": "4"}),
    "retained mismatch": lambda d: _set(d, 3, "summary",
                                        {"samples": 5, "retained": 7,
                                         "dropped": 3, "last_t_ms": 2000}),
    "last_t_ms mismatch": lambda d: _set(d, 3, "summary",
                                         {"samples": 5, "retained": 2,
                                          "dropped": 3, "last_t_ms": 1}),
}

GOOD_SCALARS = {
    "steady_keys_per_vsecond": 50.0,
    "steady_p99_ttk_ms": 2000.0,
    "steady_p99_ttk_lossless_ms": 1000.0,
    "steady_allocs_per_key": 400.0,
    "steady_live_growth_blocks": 0.0,
    "established_rate": 1.0,
}


def _soak_doc(quick=False, **overrides):
    scalars = dict(GOOD_SCALARS)
    scalars.update(overrides)
    return {"quick": quick, "scalars": scalars,
            "notes": {"gates_passed": "yes"}}


CHECK_FAILURES = {
    "throughput collapse": _soak_doc(steady_keys_per_vsecond=20.0),
    "latency blowup": _soak_doc(steady_p99_ttk_ms=9000.0),
    "lossless latency creep": _soak_doc(steady_p99_ttk_lossless_ms=1300.0),
    "alloc regression": _soak_doc(steady_allocs_per_key=500.0),
    "steady-state leak": _soak_doc(steady_live_growth_blocks=3.0),
    "failed establishments": _soak_doc(established_rate=0.95),
    # A quick run against a full-scale baseline (or the reverse) compares
    # nothing, however close its scalars land.
    "scale mismatch": _soak_doc(quick=True),
}


def self_test():
    failures = []
    if validate_lines(GOOD_JSONL):
        failures.append("known-good JSONL did not validate")
    for name, mutate in CORRUPTIONS.items():
        if not validate_lines(_corrupt(mutate)):
            failures.append(f"corruption not caught: {name}")
    baseline = _soak_doc()
    if check_scalars(_soak_doc(steady_keys_per_vsecond=55.0), baseline):
        failures.append("in-band fresh run did not pass check")
    # Each case moves one scalar out of its band (or the scale off the
    # baseline's) and must fail on that alone, so a second finding would
    # hide a broken check of the first.
    for name, fresh in CHECK_FAILURES.items():
        findings = check_scalars(fresh, baseline)
        if not findings:
            failures.append(f"regression not caught: {name}")
        elif len(findings) > 1:
            failures.append(f"regression {name} fails {len(findings)} "
                            f"checks, not one: {findings}")
    gates_no = _soak_doc()
    gates_no["notes"]["gates_passed"] = "NO"
    if not check_scalars(gates_no, baseline):
        failures.append("gates_passed=NO not caught")
    for f in failures:
        print(f"self-test FAIL: {f}")
    if not failures:
        print(f"self-test OK ({len(CORRUPTIONS)} corruptions, "
              f"{len(CHECK_FAILURES) + 1} regressions caught)")
    return 0 if not failures else 1


# --------------------------------------------------------------------------


def load_json(path):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as e:
        print(f"{path}: cannot load: {e}", file=sys.stderr)
        sys.exit(2)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--self-test", action="store_true",
                        help="replay the built-in good/bad corpus and exit")
    sub = parser.add_subparsers(dest="cmd")
    v = sub.add_parser("validate", help="validate telemetry JSONL documents")
    v.add_argument("files", nargs="+")
    c = sub.add_parser("check",
                       help="gate a fresh BENCH_soak.json against a baseline")
    c.add_argument("fresh")
    c.add_argument("--baseline", required=True)
    args = parser.parse_args(argv)

    if args.self_test:
        return self_test()
    if args.cmd == "validate":
        total = 0
        for path in args.files:
            try:
                lines = Path(path).read_text().splitlines()
            except OSError as e:
                print(f"{path}: cannot read: {e}", file=sys.stderr)
                return 2
            findings = validate_lines(lines, origin=path)
            for f in findings:
                print(f)
            total += len(findings)
            if not findings:
                n = max(0, len([ln for ln in lines if ln.strip()]) - 2)
                print(f"{path}: OK ({n} samples)")
        return 0 if total == 0 else 1
    if args.cmd == "check":
        findings = check_scalars(load_json(args.fresh),
                                 load_json(args.baseline))
        for f in findings:
            print(f"check: {f}")
        if not findings:
            print(f"check: {args.fresh} within tolerance of {args.baseline}")
        return 0 if not findings else 1
    parser.print_help()
    return 2


if __name__ == "__main__":
    sys.exit(main())
