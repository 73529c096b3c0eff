#!/usr/bin/env python3
"""vkey_lint.py — repo-invariant linter for the Vehicle-Key tree.

Enforces determinism and hygiene rules that clang-tidy cannot express.
Zero dependencies; run it directly or via `cmake --build build --target lint`.

Rules
-----
wall-clock
    No wall-clock reads (`std::chrono::*_clock::now`, `time()`, `clock()`,
    `gettimeofday`, ...) in library (`src/`) or test (`tests/`) code.
    Protocol/nn/core code must take time from the PR-1 `SimClock` (or the
    pluggable `trace::NowFn`) so sessions are bit-reproducible; the single
    sanctioned wall-clock entry point is `trace::wall_now_ms()` in
    `src/common/trace.cpp`. Benches and examples measure real elapsed time
    and are exempt.

unseeded-random
    No `rand()`, `srand()`, `std::random_device`, `std::mt19937`, or
    `<random>` anywhere in `src/` or `tests/`. All randomness must flow
    through the explicitly seeded generator in `common/rng.h`, otherwise
    the paper's KAR/Eve numbers stop being reproducible.

iostream-in-lib
    No `<iostream>` in library targets (`src/`): global stream objects add
    static-init order hazards and the library reports through the metrics /
    table / json layers, never by printing. Benches, examples and tests are
    driver code and may print.

raw-thread
    No `std::thread` / `std::jthread` construction in library (`src/`) code
    outside `common/parallel`. Ad-hoc threads bypass the determinism
    contract (per-index purity, ordered reduction — DESIGN.md "Parallel
    execution & determinism contract") and the pool's queue-depth/task
    accounting; fan work out through `parallel::parallel_for` instead.
    Qualified statics like `std::thread::hardware_concurrency()` are fine.
    Tests, benches, examples and tools drive the library from outside and
    may spawn threads.

bounded-reader
    No raw byte parsing in the protocol layer (`src/protocol/`): no
    `reinterpret_cast` and no `.data()` at all. A raw pointer into a buffer
    is how `read(p)` / `read(p + 4)` helpers walk past a short payload, and
    `.data() + offset` is only one spelling of it. Wire bytes are parsed
    exclusively through the bounds-checked `wire::FrameReader` / built
    through `wire::FrameWriter`; hand-rolled pointer walks are how
    length-field bugs become buffer overruns. The codec itself
    (`src/protocol/wire.*`) is the single sanctioned owner of raw byte
    access.

sim-clock-owner
    No `SimClock` construction in the protocol layer (`src/protocol/`)
    outside its two owners. The gateway engine owns THE shared lifecycle
    timeline (`gateway.h`), and the reliability supervisor
    `run_reliable_key_agreement` mints the private sub-clock of each key
    agreement (`reliability.cpp`, an inline
    `// vkey-lint: allow(sim-clock-owner)` suppression; DESIGN.md "Gateway
    engine"). Everything else takes a `SimClock&` from its caller. A layer
    that quietly news up its own clock forks the timeline — its events can
    never interleave with the rest of the gateway, which is exactly the
    multi-session bug the shared queue exists to prevent. Tests, benches
    and examples construct clocks freely.

protocol-syndrome-only
    The protocol layer (`src/protocol/`) runs on the public syndrome code
    alone: it names no `AutoencoderReconciler`, `decode_guided` or
    `reconcile_one_shot`. Sessions, the reliability supervisor, the gateway
    and the attacks take a `const core::SyndromeCode&`, whose decode reads
    only the public encoder, so nothing that only runs the protocol builds
    or trains a decoder. The trained decoder and the two decodes that run it
    belong to the paper's figures (Fig. 11, Fig. 15, the ablations; see
    `core/reconciler.h`).

no-raw-memcmp-on-secrets
    No `memcmp` in the key-lifecycle layers (`src/crypto/`, `src/protocol/`).
    memcmp short-circuits on the first differing byte, so comparing MACs or
    keys with it leaks a timing oracle (the classic remote-timing HMAC
    bypass). All comparisons in those layers go through
    `crypto::constant_time_equal` (src/crypto/secret_buffer.h), whose
    OR-accumulator touches every byte regardless of where the mismatch is.
    `secret_buffer.cpp` is the single sanctioned comparison owner. Code
    outside the secret layers and tests comparing public vectors are
    unaffected.

fp-exact
    No floating-point mode that contracts or reassociates. The blocked NN
    kernels, and through them the trained weights, every KAR and Eve number
    and every 1-vs-N-lane byte-diff, are bit-identical to the naive
    reference loops only because each sum keeps its order and each multiply
    and add round separately. In `CMakeLists.txt` and `*.cmake` files:
    `-ffast-math`, `-Ofast`, `-ffp-contract=fast|on`, `-fassociative-math`,
    `-freciprocal-math`, `-funsafe-math-optimizations`. In sources:
    `#pragma STDC FP_CONTRACT ON`, and a `#pragma GCC optimize`,
    `__attribute__((optimize(...)))` or `[[gnu::optimize(...)]]` naming any
    of those modes. (`-ffp-contract=off` and `-fno-math-errno` change no
    value and are fine.)

pragma-once
    Every header's first preprocessor directive must be `#pragma once`.

using-namespace-in-header
    No `using namespace` at any scope in a header: it leaks into every
    includer.

Suppressions
------------
A violating line may carry a trailing `// vkey-lint: allow(<rule>)` comment;
use it only with a justification nearby. Per-file exemptions live in
ALLOWLIST below, each with a reason.
"""

import argparse
import re
import sys
from pathlib import Path

LINT_DIRS = ("src", "tests", "bench", "examples", "tools")
SOURCE_SUFFIXES = {".cpp", ".h", ".hpp", ".cc"}

# path (repo-relative, POSIX) -> {rule: reason}. Reasons are printed with
# --explain so the allowlist stays self-documenting.
ALLOWLIST = {
    "src/common/trace.cpp": {
        "wall-clock": (
            "wall_now_ms() is the single sanctioned wall-clock entry point; "
            "everything else routes through trace::NowFn / SimClock"
        ),
    },
    "src/common/parallel.cpp": {
        "raw-thread": (
            "the deterministic pool is the single sanctioned owner of "
            "worker threads; everything else borrows lanes via parallel_for"
        ),
    },
    "src/protocol/wire.h": {
        "bounded-reader": (
            "the frame codec is the single sanctioned owner of raw wire "
            "bytes; everything else parses through FrameReader"
        ),
    },
    "src/protocol/wire.cpp": {
        "bounded-reader": (
            "the frame codec is the single sanctioned owner of raw wire "
            "bytes; everything else parses through FrameReader"
        ),
    },
    "src/protocol/gateway.h": {
        "sim-clock-owner": (
            "the gateway engine is the clock authority: it owns the shared "
            "lifecycle timeline every session's events interleave on"
        ),
    },
    "src/crypto/secret_buffer.cpp": {
        "no-raw-memcmp-on-secrets": (
            "the zeroizing container is the single sanctioned comparison "
            "owner; constant_time_equal lives here"
        ),
    },
}

# Directories exempt from a rule wholesale.
RULE_EXEMPT_DIRS = {
    "wall-clock": ("bench", "examples", "tools"),
    "unseeded-random": ("bench", "examples", "tools"),
    "iostream-in-lib": ("bench", "examples", "tests", "tools"),
    "raw-thread": ("bench", "examples", "tests", "tools"),
}

WALL_CLOCK_PATTERNS = [
    re.compile(r"std\s*::\s*chrono\s*::\s*steady_clock"),
    re.compile(r"std\s*::\s*chrono\s*::\s*system_clock"),
    re.compile(r"std\s*::\s*chrono\s*::\s*high_resolution_clock"),
    re.compile(r"(?<![\w:])(?:std\s*::\s*)?time\s*\(\s*(?:nullptr|NULL|0|&)"),
    re.compile(r"(?<![\w:])(?:std\s*::\s*)?clock\s*\(\s*\)"),
    re.compile(r"(?<![\w:])gettimeofday\s*\("),
    re.compile(r"(?<![\w:])clock_gettime\s*\("),
    re.compile(r"(?<![\w:])(?:std\s*::\s*)?(?:localtime|gmtime)\s*\("),
]

RANDOM_PATTERNS = [
    re.compile(r"(?<![\w:])(?:std\s*::\s*)?s?rand\s*\(\s*\)"),
    re.compile(r"(?<![\w:])(?:std\s*::\s*)?srand\s*\("),
    re.compile(r"std\s*::\s*random_device"),
    re.compile(r"std\s*::\s*(?:mt19937|minstd_rand|default_random_engine)"),
    re.compile(r"#\s*include\s*<random>"),
]

# `std::thread` / `std::jthread` as a type, but not qualified statics such
# as `std::thread::hardware_concurrency()`.
RAW_THREAD_PATTERN = re.compile(r"std\s*::\s*j?thread\b(?!\s*::)")

# Raw byte access in protocol code: type-punning casts and any raw pointer
# taken from a buffer's .data(). Scoped to src/protocol/ (see
# BOUNDED_READER_SCOPE); the wire codec is allowlisted.
BOUNDED_READER_PATTERNS = [
    re.compile(r"(?<![\w:])reinterpret_cast\s*<"),
    re.compile(r"\.data\s*\(\s*\)"),
]
BOUNDED_READER_SCOPE = "src/protocol/"

# SimClock construction (by value, new, or make_unique/make_shared) in
# protocol code: only the gateway engine and the reliability supervisor may
# mint timelines. References and parameters (`SimClock&`) pass an existing
# clock and are fine.
SIM_CLOCK_OWNER_PATTERNS = [
    re.compile(r"(?<![\w:])SimClock\s+\w+\s*[;{(=]"),
    re.compile(r"(?<![\w:])new\s+SimClock\b"),
    re.compile(r"make_(?:unique|shared)\s*<\s*SimClock\b"),
]
SIM_CLOCK_OWNER_SCOPE = "src/protocol/"

# The trained half of the reconciler, named in protocol code: sessions and
# attacks run on core::SyndromeCode alone (protocol-syndrome-only).
PROTOCOL_SYNDROME_ONLY_PATTERN = re.compile(
    r"\b(?:AutoencoderReconciler|decode_guided|reconcile_one_shot)\b")
PROTOCOL_SYNDROME_ONLY_SCOPE = "src/protocol/"

# memcmp in the key-lifecycle layers: short-circuit comparison is a timing
# oracle when the operands are MACs or keys. constant_time_equal
# (src/crypto/secret_buffer.h) is the sanctioned comparator there.
MEMCMP_PATTERN = re.compile(r"(?<![\w:])(?:std\s*::\s*)?memcmp\s*\(")
MEMCMP_SCOPES = ("src/crypto/", "src/protocol/")

# Floating-point modes that contract or reassociate (fp-exact). The same
# mode names are matched inside optimize pragmas/attributes, where they are
# written without the leading "-f" ("fast-math", "Ofast", ...).
FP_UNSAFE_MODE = (r"(?:(?<!no-)fast-math|Ofast|fp-contract=(?:fast|on)"
                  r"|(?<!no-)associative-math|(?<!no-)reciprocal-math"
                  r"|(?<!no-)unsafe-math-optimizations)")
FP_UNSAFE_FLAG = re.compile(r"(?<![\w-])-(?:f|O)?" + FP_UNSAFE_MODE + r"\b")
FP_CONTRACT_PRAGMA = re.compile(r"#\s*pragma\s+STDC\s+FP_CONTRACT\s+ON\b")
FP_OPTIMIZE_SITE = re.compile(
    r"#\s*pragma\s+GCC\s+optimize\b|__attribute__\s*\(\(\s*(?:__)?optimize"
    r"|\[\[\s*gnu\s*::\s*(?:__)?optimize")
FP_OPTIMIZE_MODE = re.compile(FP_UNSAFE_MODE)

IOSTREAM_PATTERN = re.compile(r"#\s*include\s*<iostream>")
USING_NAMESPACE_PATTERN = re.compile(r"(?<![\w:])using\s+namespace\s+[\w:]+")
SUPPRESS_PATTERN = re.compile(r"//\s*vkey-lint:\s*allow\(([\w, -]+)\)")
PREPROC_PATTERN = re.compile(r"^\s*#\s*(\w+)")

BLOCK_COMMENT = re.compile(r"/\*.*?\*/", re.DOTALL)
STRING_LIT = re.compile(r'"(?:[^"\\\n]|\\.)*"')


class Violation:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def top_dir(rel):
    return rel.split("/", 1)[0]


def rule_applies(rule, rel):
    if top_dir(rel) in RULE_EXEMPT_DIRS.get(rule, ()):
        return False
    return rule not in ALLOWLIST.get(rel, {})


def strippable_positions(text):
    """Line numbers (1-based) fully inside block comments."""
    inside = set()
    for m in BLOCK_COMMENT.finditer(text):
        start = text.count("\n", 0, m.start()) + 1
        end = text.count("\n", 0, m.end()) + 1
        for ln in range(start, end + 1):
            inside.add(ln)
    return inside


def code_view(line):
    """The line with string literals and trailing // comment removed."""
    line = STRING_LIT.sub('""', line)
    idx = line.find("//")
    if idx >= 0:
        line = line[:idx]
    return line


def scan_file(path, rel, explain):
    text = path.read_text(encoding="utf-8", errors="replace")
    lines = text.split("\n")
    block_lines = strippable_positions(text)
    out = []

    def check(rule, lineno, raw, message):
        if not rule_applies(rule, rel):
            return
        m = SUPPRESS_PATTERN.search(raw)
        if m and rule in {r.strip() for r in m.group(1).split(",")}:
            return
        out.append(Violation(rel, lineno, rule, message))

    is_header = path.suffix in {".h", ".hpp"}
    saw_pragma_once = False
    first_directive = None

    for i, raw in enumerate(lines, start=1):
        if i in block_lines:
            continue
        code = code_view(raw)
        if not code.strip():
            continue

        d = PREPROC_PATTERN.match(code)
        if d and first_directive is None:
            first_directive = (i, d.group(1), code.strip())
        if "#pragma once" in code:
            saw_pragma_once = True

        for pat in WALL_CLOCK_PATTERNS:
            if pat.search(code):
                check("wall-clock", i, raw,
                      "wall-clock read in deterministic code; use SimClock / "
                      "trace::NowFn (see DESIGN.md determinism rules)")
                break
        for pat in RANDOM_PATTERNS:
            if pat.search(code):
                check("unseeded-random", i, raw,
                      "randomness outside common/rng.h; seeded Rng only")
                break
        if RAW_THREAD_PATTERN.search(code):
            check("raw-thread", i, raw,
                  "raw std::thread in a library target; fan out through "
                  "parallel::parallel_for (common/parallel) so the "
                  "determinism contract holds")
        if rel.startswith(BOUNDED_READER_SCOPE):
            for pat in BOUNDED_READER_PATTERNS:
                if pat.search(code):
                    check("bounded-reader", i, raw,
                          "raw byte access in protocol code; parse wire "
                          "bytes through wire::FrameReader (bounds-checked) "
                          "instead of casts/pointer arithmetic")
                    break
        if rel.startswith(MEMCMP_SCOPES) and MEMCMP_PATTERN.search(code):
            check("no-raw-memcmp-on-secrets", i, raw,
                  "memcmp in a key-lifecycle layer is a timing oracle; "
                  "compare through crypto::constant_time_equal "
                  "(src/crypto/secret_buffer.h)")
        if rel.startswith(SIM_CLOCK_OWNER_SCOPE):
            for pat in SIM_CLOCK_OWNER_PATTERNS:
                if pat.search(code):
                    check("sim-clock-owner", i, raw,
                          "private SimClock construction in protocol code; "
                          "the gateway engine owns the shared timeline and "
                          "the reliability supervisor each agreement's "
                          "sub-clock — take a SimClock& from the caller "
                          "instead")
                    break
        if (rel.startswith(PROTOCOL_SYNDROME_ONLY_SCOPE)
                and PROTOCOL_SYNDROME_ONLY_PATTERN.search(code)):
            check("protocol-syndrome-only", i, raw,
                  "the protocol runs on core::SyndromeCode alone; the "
                  "trained decoder and the decodes that run it belong to the "
                  "paper's figures (core/reconciler.h)")
        # Pragmas and attributes carry their mode as a string literal, so
        # these read the line with only its trailing comment removed.
        line = raw.split("//", 1)[0]
        if FP_CONTRACT_PRAGMA.search(line) or (
                FP_OPTIMIZE_SITE.search(line)
                and FP_OPTIMIZE_MODE.search(line)):
            check("fp-exact", i, raw,
                  "contracting/reassociating floating-point mode; the NN "
                  "kernels' bit-exactness needs every sum in order and "
                  "no FMA fusion (DESIGN.md \"NN kernel core\")")
        if IOSTREAM_PATTERN.search(code):
            check("iostream-in-lib", i, raw,
                  "<iostream> in a library target; report via metrics/"
                  "table/json instead")
        if is_header and USING_NAMESPACE_PATTERN.search(code):
            check("using-namespace-in-header", i, raw,
                  "`using namespace` leaks into every includer")

    if is_header:
        if not saw_pragma_once:
            check("pragma-once", 1, "", "header lacks `#pragma once`")
        elif first_directive and first_directive[1] != "pragma":
            check("pragma-once", first_directive[0], "",
                  "`#pragma once` must be the first preprocessor directive "
                  f"(found `{first_directive[2]}` first)")

    if explain and rel in ALLOWLIST:
        for rule, reason in ALLOWLIST[rel].items():
            print(f"note: {rel} exempt from [{rule}]: {reason}")
    return out


def cmake_code(line):
    """A CMake line without its `#` comment (quoted `#` kept)."""
    quoted = False
    for idx, ch in enumerate(line):
        if ch == '"':
            quoted = not quoted
        elif ch == "#" and not quoted:
            return line[:idx]
    return line


def scan_cmake(path, rel):
    """fp-exact over a CMake file: no flag that enables fast-math,
    contraction or reassociation."""
    out = []
    text = path.read_text(encoding="utf-8", errors="replace")
    for i, raw in enumerate(text.split("\n"), start=1):
        m = FP_UNSAFE_FLAG.search(cmake_code(raw))
        if m and rule_applies("fp-exact", rel):
            out.append(Violation(
                rel, i, "fp-exact",
                f"`{m.group(0)}` lets the compiler contract or reassociate "
                "floating point; the NN kernels' bit-exactness needs "
                "-ffp-contract=off and no fast-math (DESIGN.md \"NN kernel "
                "core\")"))
    return out


def is_cmake(path):
    return path.name == "CMakeLists.txt" or path.suffix == ".cmake"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--root", default=".", help="repository root")
    ap.add_argument("--explain", action="store_true",
                    help="print allowlist reasons for scanned files")
    ap.add_argument("paths", nargs="*",
                    help="specific files to lint (default: whole tree)")
    args = ap.parse_args(argv)

    root = Path(args.root).resolve()
    if args.paths:
        files = [Path(p).resolve() for p in args.paths]
    else:
        files = sorted(p for p in root.iterdir() if is_cmake(p))
        for d in LINT_DIRS:
            base = root / d
            if base.is_dir():
                files.extend(p for p in sorted(base.rglob("*"))
                             if p.suffix in SOURCE_SUFFIXES or is_cmake(p))

    violations = []
    for f in files:
        try:
            rel = f.relative_to(root).as_posix()
        except ValueError:
            rel = f.as_posix()
        if is_cmake(f):
            violations.extend(scan_cmake(f, rel))
        else:
            violations.extend(scan_file(f, rel, args.explain))

    for v in violations:
        print(v)
    if violations:
        print(f"vkey_lint: {len(violations)} violation(s) in "
              f"{len({v.path for v in violations})} file(s)", file=sys.stderr)
        return 1
    print(f"vkey_lint: clean ({len(files)} files checked)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
