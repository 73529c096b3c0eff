#!/usr/bin/env python3
"""vkey_secretflow.py — secret-flow taint analyzer for the Vehicle-Key tree.

Tracks key material from its birthplaces (the privacy-amplified secret, HKDF
extract/expand outputs, KeySchedule epoch keys, HMAC keys, AES round keys)
through assignments and calls, and reports any flow into an observable sink:
trace spans, flight-recorder events, metrics, JSON snapshots, bench-io
artifacts, streams/printf, hex encoders, or unsealed wire frames. The runtime
counterpart is `crypto::SecretBuffer` (src/crypto/secret_buffer.h): bytes live
inside a zeroizing container whose only escape hatch is `expose()`, and the
analyzer treats everything downstream of `expose()` as still secret — sealing
(`KeySchedule::seal`) and keyed primitives (HMAC/HKDF/AES) are the sanctioned
consumers, observability is not.

The analyzer is a zero-dependency tokenizer (same family as vkey_lint.py):
it needs no compiler front end, only Python.

Taint model
-----------
sources
    * calls: hkdf_extract / hkdf_expand / ratchet_secret /
      derive_epoch_keys / amplify / expose / expose_mut
    * declarations of `SecretBuffer` variables
    * identifiers whose name marks them as key material (secret, prk, okm,
      ikm, ipad, opad, keystream, round_keys, *_key / key_bytes families)
propagation
    assignment and declaration-with-initializer: if the right-hand side
    mentions a tainted identifier or a source call, the left-hand side is
    tainted. Stream insertion (`detail << x`, how a FlightDetail is
    formatted) propagates the same way into the identifier it starts
    from. Taint is scoped by brace depth (function-local).
sinks (rule ids)
    secret-to-trace             ScopedTimer::attr, TraceLog::instant/record
    secret-to-flight-recorder   FlightRecorder::record
    secret-to-metrics           Histogram::observe / Gauge::set
    secret-to-telemetry         telemetry Sampler::annotate header side-channel
    secret-to-json              to_json(), json::Value construction, dump()
    secret-to-snapshot          bench_io:: writers
    secret-to-stream            cout/cerr/clog, printf family, std::format
    secret-to-hex               to_hex() on key material
    secret-to-frame             FrameWriter::put_bytes on unsealed secrets
    suppression-missing-reason  a vkey-secret suppression without a reason

Suppressions
------------
A deliberate declassification carries an inline comment:

    // vkey-secret: allow(<rule>) -- <why this is not a leak>

The `-- reason` clause is mandatory; a bare `allow(...)` is fail-closed (it
does NOT silence the finding) and additionally reports
`suppression-missing-reason`. Whole-file exemptions live in ALLOWLIST below,
each with a written reason printed by --explain.

Self-test
---------
`--self-test` replays the analyzer over tools/secretflow_fixtures/, a tree of
known-bad snippets annotated with `// expect: <rule>[, <rule>]` lines, and
fails unless the produced findings match the annotations exactly — both
directions: every expected finding fires, no unexpected finding appears.
"""

import argparse
import re
import sys
from pathlib import Path

SCAN_DIRS = ("src",)
SOURCE_SUFFIXES = {".cpp", ".h", ".hpp", ".cc"}

RULES = {
    "secret-to-trace": "key material flows into a trace span attribute/event",
    "secret-to-flight-recorder": "key material flows into a flight-recorder "
                                 "event",
    "secret-to-metrics": "key material flows into a metrics instrument",
    "secret-to-telemetry": "key material flows into a telemetry annotation",
    "secret-to-json": "key material flows into a JSON value / dump",
    "secret-to-snapshot": "key material flows into a bench-io artifact",
    "secret-to-stream": "key material flows into a stream/printf/format call",
    "secret-to-hex": "key material is hex-encoded outside tests",
    "secret-to-frame": "key material written into an unsealed wire frame",
    "suppression-missing-reason": "vkey-secret suppression lacks a reason",
}

# path (repo-relative, POSIX) -> {rule: reason}; printed by --explain.
ALLOWLIST = {
    "src/protocol/wire.cpp": {
        "secret-to-frame": (
            "the codec serializes already-sealed Message payloads; "
            "plaintext never reaches encode()"
        ),
    },
}

# Calls whose return value is key material, and the SecretBuffer escape
# hatch. `expose` keeps the taint: leaving the container is not leaving the
# secret domain.
SOURCE_CALL = re.compile(
    r"(?:\b(?:hkdf_extract|hkdf_expand|ratchet_secret|derive_epoch_keys|"
    r"amplify)\s*\()"
    r"|(?:\.\s*expose(?:_mut)?\s*\(\s*\))"
)

# A declaration that mints a secret container.
SECRET_DECL = re.compile(
    r"\b(?:crypto\s*::\s*)?SecretBuffer\b[^;(]*?\b(\w+)\s*[,)({=;]")

# Identifiers that are key material by naming convention, tracked-state or
# not. Tight on purpose: `rekeys`, `session_id`, `keys()` must not match.
SECRET_NAME = re.compile(
    r"^(?:secret_?|prk|okm|ikm|ipad|opad|keystream|amplified(?:_\w+)?|"
    r"round_keys?_?|key_bytes|raw_key_?|\w*_secret_?|"
    r"\w*(?:aes|mac|enc|confirm|pairwise|group|epoch)_keys?_?)$"
)

# Assignment / declaration-with-init: capture the variable the value lands
# in. Handles `auto x = ...`, `dir.enc = ...`, `type x = ...`.
ASSIGN = re.compile(r"(?:^|[;{(,])\s*(?:[\w:<>,&*\s]+?\s)?([\w.]+)\s*=(?!=)\s*(.+)")

# Stream insertion into a local at the start of a statement: `detail <<
# ...` (a FlightDetail being formatted) carries whatever is inserted.
INSERT = re.compile(r"(?:^|[;{])\s*\(*\s*([\w.]+)\s*<<(?!=)\s*(.+)")

SINKS = [
    ("secret-to-trace", re.compile(r"\.\s*attr\s*\("),
     "trace span attributes are exported in chrome-trace dumps; attach "
     "lengths or digest *indices*, never key bytes"),
    ("secret-to-trace", re.compile(r"\binstant\s*\("),
     "trace instants are exported in chrome-trace dumps"),
    ("secret-to-flight-recorder", re.compile(r"(?:\.|->)\s*record\s*\("),
     "flight-recorder events travel with AttemptReport and are dumped on "
     "failure; record outcomes, never key bytes"),
    ("secret-to-metrics", re.compile(r"\.\s*observe\s*\("),
     "metrics snapshots are serialized to JSON"),
    # Before the json/hex rules: `annotate("k", to_hex(x))` should name the
    # telemetry sink, not the encoding it rode in on.
    ("secret-to-telemetry", re.compile(r"(?:\.|->)\s*annotate\s*\("),
     "telemetry annotations land in the JSONL header line; annotate run "
     "parameters (seed, lanes, interval), never key bytes"),
    ("secret-to-json", re.compile(r"\bto_json\s*\(|json\s*::\s*Value\s*[({]|"
                                  r"\.\s*dump\s*\("),
     "JSON values end up in snapshots and logs"),
    ("secret-to-snapshot", re.compile(r"\bbench_io\s*::\s*\w+\s*\("),
     "bench-io artifacts are committed byte-for-byte"),
    ("secret-to-stream", re.compile(r"\b(?:cout|cerr|clog)\b|"
                                    r"\b(?:f|s|sn)?printf\s*\(|"
                                    r"std\s*::\s*format\s*\("),
     "streams and printf leave secrets in terminal scrollback and CI logs"),
    ("secret-to-hex", re.compile(r"\bto_hex\s*\("),
     "hex encoding is a serialization; only tests may render key material"),
    ("secret-to-frame", re.compile(r"\.\s*put_bytes\s*\("),
     "frame payloads ride the radio in the clear unless sealed; pass "
     "secrets through KeySchedule::seal first"),
]

SUPPRESS = re.compile(
    r"//\s*vkey-secret:\s*allow\(([\w, -]+)\)(?:\s*--\s*(\S.*\S|\S))?")
EXPECT = re.compile(r"//\s*expect:\s*([\w, -]+)")
IDENT = re.compile(r"[A-Za-z_]\w*")
BLOCK_COMMENT = re.compile(r"/\*.*?\*/", re.DOTALL)
STRING_LIT = re.compile(r'"(?:[^"\\\n]|\\.)*"')
CHAR_LIT = re.compile(r"'(?:[^'\\\n]|\\.)*'")

# Words that appear in sink expressions themselves and must not count as
# tainted identifiers (sink names, std plumbing, common locals).
NEUTRAL = {
    "annotate",
    "attr", "instant", "record", "observe", "dump", "to_json", "to_hex",
    "put_bytes", "std", "cout", "cerr", "clog", "printf", "fprintf",
    "snprintf", "sprintf", "format", "json", "Value", "bench_io",
}


class Finding:
    def __init__(self, path, line, rule, detail):
        self.path = path
        self.line = line
        self.rule = rule
        self.detail = detail

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.detail}"


def code_view(line):
    """Line with string/char literals blanked and trailing // removed."""
    line = STRING_LIT.sub('""', line)
    line = CHAR_LIT.sub("''", line)
    idx = line.find("//")
    if idx >= 0:
        line = line[:idx]
    return line


def block_comment_lines(text):
    inside = set()
    for m in BLOCK_COMMENT.finditer(text):
        start = text.count("\n", 0, m.start()) + 1
        end = text.count("\n", 0, m.end()) + 1
        inside.update(range(start, end + 1))
    return inside


def is_secret_name(name):
    return bool(SECRET_NAME.match(name))


def scan_text(text, rel):
    """Tokenizer taint pass over one translation unit. Returns Findings."""
    lines = text.split("\n")
    blocked = block_comment_lines(text)
    findings = []
    # tainted identifier -> (brace depth at introduction, origin)
    taint = {}
    depth = 0

    def tainted_idents(code):
        hits = []
        for ident in IDENT.findall(code):
            if ident in NEUTRAL:
                continue
            if ident in taint:
                hits.append((ident, taint[ident][1]))
            elif is_secret_name(ident):
                hits.append((ident, "secret-named identifier"))
        return hits

    def suppressed(raw, rule, lineno):
        # Accept a suppression on the flagged line itself or in the block
        # of pure-comment lines immediately above it (long declarations
        # cannot always fit a trailing comment).
        candidates = [raw]
        j = lineno - 2  # 0-based index of the preceding line
        while j >= 0 and lines[j].strip().startswith("//"):
            candidates.append(lines[j])
            j -= 1
        for cand in candidates:
            m = SUPPRESS.search(cand)
            if not m:
                continue
            rules = {r.strip() for r in m.group(1).split(",")}
            if rule not in rules:
                continue
            if not m.group(2):
                # Fail closed: a reason-less suppression silences nothing
                # and is itself a finding (reported at its own line).
                continue
            return True
        return False

    def check(rule, lineno, raw, detail):
        if rule in ALLOWLIST.get(rel, {}):
            return
        if suppressed(raw, rule, lineno):
            return
        findings.append(Finding(rel, lineno, rule, detail))

    reported_missing_reason = set()
    for i, raw in enumerate(lines, start=1):
        if i in blocked:
            continue
        code = code_view(raw)

        m = SUPPRESS.search(raw)
        if m and not m.group(2) and i not in reported_missing_reason:
            reported_missing_reason.add(i)
            check("suppression-missing-reason", i, "",
                  f"allow({m.group(1).strip()}) without `-- reason`; "
                  "declassifications must say why (fail-closed: the "
                  "finding is NOT silenced)")

        if not code.strip():
            depth += code.count("{") - code.count("}")
            continue

        # -- taint introduction & propagation ----------------------------
        dm = SECRET_DECL.search(code)
        if dm:
            taint[dm.group(1)] = (depth, "SecretBuffer declaration")
        am = ASSIGN.search(code)
        if am:
            lhs = am.group(1).split(".")[-1]
            rhs = am.group(2).split(";")[0]  # stop at for-loop headers
            if SOURCE_CALL.search(rhs):
                taint[lhs] = (depth, "key-derivation call")
            elif any(ident in taint or is_secret_name(ident)
                     for ident in IDENT.findall(rhs)
                     if ident not in NEUTRAL):
                taint[lhs] = (depth, "assigned from tainted value")
            elif lhs in taint and not is_secret_name(lhs):
                # Clean reassignment: the old secret value is gone.
                del taint[lhs]
        im = INSERT.search(code)
        if im:
            rhs = im.group(2).split(";")[0]
            if SOURCE_CALL.search(rhs) or any(
                    ident in taint or is_secret_name(ident)
                    for ident in IDENT.findall(rhs) if ident not in NEUTRAL):
                taint[im.group(1).split(".")[-1]] = (
                    depth, "formatted from tainted value")

        # -- sinks -------------------------------------------------------
        for rule, pat, why in SINKS:
            if not pat.search(code):
                continue
            hits = tainted_idents(code)
            direct = SOURCE_CALL.search(code)
            if not hits and not direct:
                continue
            if hits:
                ident, origin = hits[0]
                detail = f"`{ident}` ({origin}) reaches sink: {why}"
            else:
                detail = f"key-derivation result reaches sink inline: {why}"
            check(rule, i, raw, detail)
            break  # one finding per line is enough signal

        # -- scope maintenance -------------------------------------------
        depth += code.count("{") - code.count("}")
        if depth < 0:
            depth = 0
        dead = [v for v, (d, _) in taint.items() if d > depth]
        for v in dead:
            del taint[v]

    return findings


def scan_file(path, root):
    try:
        rel = path.resolve().relative_to(root).as_posix()
    except ValueError:
        rel = path.as_posix()
    text = path.read_text(encoding="utf-8", errors="replace")
    return scan_text(text, rel)


def collect_files(root, paths):
    if paths:
        return [Path(p) for p in paths]
    files = []
    for d in SCAN_DIRS:
        base = root / d
        if base.is_dir():
            files.extend(p for p in sorted(base.rglob("*"))
                         if p.suffix in SOURCE_SUFFIXES)
    return files


def run_self_test(fixtures_dir):
    """Replay the analyzer over the known-bad fixture tree.

    Each fixture line may carry `// expect: rule[, rule]`. The test passes
    only if produced findings == expected findings, per (file, line, rule).
    """
    fixtures = sorted(fixtures_dir.rglob("*.cpp"))
    if not fixtures:
        print(f"vkey_secretflow: self-test found no fixtures under "
              f"{fixtures_dir}", file=sys.stderr)
        return 1
    failures = 0
    total_expected = 0
    for f in fixtures:
        rel = f.name
        text = f.read_text(encoding="utf-8")
        expected = set()
        for i, raw in enumerate(text.split("\n"), start=1):
            m = EXPECT.search(raw)
            if m:
                for rule in m.group(1).split(","):
                    expected.add((rel, i, rule.strip()))
        got = {(rel, fi.line, fi.rule) for fi in scan_text(text, rel)}
        total_expected += len(expected)
        for miss in sorted(expected - got):
            failures += 1
            print(f"self-test MISS: expected {miss[0]}:{miss[1]} "
                  f"[{miss[2]}] but the analyzer stayed silent")
        for extra in sorted(got - expected):
            failures += 1
            print(f"self-test EXTRA: unexpected {extra[0]}:{extra[1]} "
                  f"[{extra[2]}]")
    if failures:
        print(f"vkey_secretflow: self-test FAILED "
              f"({failures} mismatch(es) across {len(fixtures)} fixtures)",
              file=sys.stderr)
        return 1
    print(f"vkey_secretflow: self-test ok "
          f"({total_expected} findings across {len(fixtures)} fixtures)")
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(
        description=__doc__.split("\n", 1)[0])
    ap.add_argument("--root", default=".", help="repository root")
    ap.add_argument("--explain", action="store_true",
                    help="print allowlist reasons for scanned files")
    ap.add_argument("--self-test", action="store_true",
                    help="verify the analyzer against the known-bad "
                         "fixture tree and exit")
    ap.add_argument("--fixtures", default="tools/secretflow_fixtures",
                    help="fixture tree for --self-test")
    ap.add_argument("paths", nargs="*",
                    help="specific files to scan (default: src/)")
    args = ap.parse_args(argv)

    root = Path(args.root).resolve()

    if args.self_test:
        return run_self_test((root / args.fixtures).resolve()
                             if not Path(args.fixtures).is_absolute()
                             else Path(args.fixtures))

    files = collect_files(root, args.paths)
    findings = []
    for f in files:
        findings.extend(scan_file(f, root))
        if args.explain:
            try:
                rel = f.resolve().relative_to(root).as_posix()
            except ValueError:
                rel = f.as_posix()
            for rule, reason in ALLOWLIST.get(rel, {}).items():
                print(f"note: {rel} exempt from [{rule}]: {reason}")

    for fi in findings:
        print(fi)
    if findings:
        print(f"vkey_secretflow: {len(findings)} finding(s) in "
              f"{len({fi.path for fi in findings})} file(s)",
              file=sys.stderr)
        return 1
    print(f"vkey_secretflow: clean ({len(files)} files scanned)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
