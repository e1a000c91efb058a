#!/usr/bin/env python3
"""snslint — determinism + static-contract lint for the Spread-n-Share stack.

The repo's central claim (PR 3) is that a scheduling run is a pure function
of its inputs: same workload + same seed => bit-identical schedule. This
checker flags the C++ constructs that quietly break that property, plus
(PR 10) the static contracts around the engine's hot paths: no heap
allocation, no escaping exceptions, no unannotated shared state. It needs
no clang on the box and runs in milliseconds under ctest.

Since v2 the core is a real single-pass C++ tokenizer (comments, string /
char literals and raw strings are lexed, not regex-guessed), and function
scopes are tracked by brace matching — the rule layer then runs over
literal-free source text, so prose in comments and log strings can never
trip a rule, including raw strings and multi-line literals the old
line-regex scanner mishandled.

Rules
-----
  unordered-iteration   iterating a std::unordered_{map,set} — iteration
                        order is hash-seed and libstdc++-version dependent,
                        so anything order-sensitive derived from the walk
                        (output order, tie-breaks, accumulation) diverges
                        across builds.
  unordered-decision-path
                        ANY std::unordered_* mention (not just iteration)
                        in the event engine's ordering core — the files
                        matching DECISION_PATH_GLOBS (the finish-time
                        calendar, DESIGN.md section 11). The calendar is
                        the completion-ordering authority: it must be
                        bit-deterministic and allocation-free at steady
                        state, and hash containers break both (iteration
                        order aside, rehash timing and bucket growth are
                        implementation-defined). Flat vectors indexed by
                        dense JobId are the idiom there.
  float-accumulation    compound float accumulation (`+=`/`-=` on a
                        float/double) inside a loop over an unordered
                        container: the sum depends on iteration order.
  wall-clock            std::chrono::{system,steady,high_resolution}_clock,
                        time(), gettimeofday, clock_gettime — wall time in
                        scheduler logic makes replays non-reproducible.
  flight-rollup-determinism
                        ANY std::unordered_* mention or wall-clock call in
                        the interference flight recorder (files matching
                        FLIGHT_ROLLUP_GLOBS — sns/flight, DESIGN.md
                        section 12). The recorder's rollups and renderers
                        are byte-compared across runs and simulator
                        settings, so hash-order iteration or real time
                        anywhere in the module breaks the equivalence
                        suite; ascending-id vectors and simulated time are
                        the idiom there.
  span-wall-clock       std::chrono::{system,high_resolution}_clock in
                        span/phase timing code (sns/xray, sns/telemetry):
                        cost attribution must use the monotonic
                        steady_clock — system_clock jumps under NTP slew
                        and high_resolution_clock may alias it, producing
                        negative or wildly wrong span durations.
  raw-rand              rand()/srand()/std::random_device — unseeded or
                        process-global randomness; use sns::util::Rng with
                        an explicit seed.
  uninit-member         scalar data member declared without an initializer
                        (`int x_;`) — reads of indeterminate values are UB
                        and differ run to run.
  hot-path-allocation   a definite heap allocation (`new`, make_unique/
                        make_shared, std::to_string, a fresh std::
                        container/string/function local) lexically inside
                        a function body marked SNS_HOT_PATH(...). The
                        runtime contract (tests/alloc) catches container
                        *growth*; this rule catches the constructs that
                        allocate on every activation, before they ever run.
  unannotated-shared-state
                        a raw std::mutex / condition_variable / shared_
                        mutex declaration: cross-thread state must use
                        sns::util::Mutex (the Clang-capability-annotated
                        wrapper, src/sns/util/mutex.hpp) so
                        -Wthread-safety can machine-check lock discipline.
  exception-escape-hot-path
                        a `throw` lexically inside an SNS_HOT_PATH(...)
                        body: the engine's per-event paths are on the
                        decision latency budget and unwind across cached
                        scratch state; contract failures go through
                        SNS_REQUIRE at the boundary, not ad-hoc throws
                        mid-path.

Suppression
-----------
  * inline, same or preceding line:   // snslint: allow(rule)
  * allowlist file, one entry per line:   <rule> <path-glob>  [# comment]

With --check-stale-allowlist, an allowlist entry whose rule is active but
which suppressed nothing fails the run with the entry's file:line — dead
suppressions otherwise hide future regressions at the same path.

Usage
-----
  snslint.py [--compile-commands build/compile_commands.json]
             [--root REPO_ROOT] [--allowlist FILE]
             [--check-stale-allowlist] PATH_OR_MODULE...

Positional args are files, directories, or (with --compile-commands)
module prefixes like `sns/sched` resolved against the compilation database
plus the headers under `<root>/src/<module>`. Exits 1 if any finding
survives suppression, 0 otherwise.
"""

import argparse
import bisect
import fnmatch
import json
import os
import re
import sys

RULES = (
    "unordered-iteration",
    "unordered-decision-path",
    "flight-rollup-determinism",
    "float-accumulation",
    "wall-clock",
    "span-wall-clock",
    "raw-rand",
    "uninit-member",
    "hot-path-allocation",
    "unannotated-shared-state",
    "exception-escape-hot-path",
)

# Files held to the stricter unordered-decision-path rule (matched against
# the display path with / separators). The finish-time calendar orders
# every completion in the simulator; see the rule's docstring entry.
DECISION_PATH_GLOBS = (
    "*/sns/sched/finish_calendar*",
    "sns/sched/finish_calendar*",
)

# Files held to the flight-rollup-determinism rule: the interference
# flight recorder's rollup/render code, whose output is byte-compared by
# the equivalence suite.
FLIGHT_ROLLUP_GLOBS = (
    "*/sns/flight/*",
    "sns/flight/*",
)

ALLOW_RE = re.compile(r"//\s*snslint:\s*allow\(([a-z0-9_,\- ]+)\)")

UNORDERED_ANY_RE = re.compile(r"std::unordered_\w+")
UNORDERED_DECL_RE = re.compile(
    r"std::unordered_(?:map|set|multimap|multiset)\s*<[^;{]*>\s*"
    r"[&*]?\s*(\w+)\s*[;={,)]"
)
RANGE_FOR_RE = re.compile(r"\bfor\s*\(([^;)]*):([^)]*)\)")
# Only begin(): an `.end()` alone is the harmless `find() != end()`
# membership idiom; every real iterator walk names `.begin()` somewhere.
BEGIN_CALL_RE = re.compile(r"\b(\w+)\s*\.\s*c?begin\s*\(")
FLOAT_DECL_RE = re.compile(r"\b(?:double|float)\s+(\w+)\s*[;={]")
COMPOUND_ACC_RE = re.compile(r"\b(\w+)\s*[+\-]=")

WALL_CLOCK_RE = re.compile(
    r"std::chrono::(?:system_clock|steady_clock|high_resolution_clock)"
    r"|\bgettimeofday\s*\(|\bclock_gettime\s*\("
    r"|(?<![\w:.])time\s*\(\s*(?:NULL|nullptr|0)?\s*\)"
)
# Only the non-monotonic (or potentially aliased) clocks: steady_clock is
# exactly what span timing should use, so it stays clean under this rule.
SPAN_WALL_CLOCK_RE = re.compile(
    r"std::chrono::(?:system_clock|high_resolution_clock)"
)
RAW_RAND_RE = re.compile(
    r"(?<![\w:.])s?rand\s*\(|std::random_device|(?<!\w)std::rand\b"
)
# Scalar member without `=` or `{...}`: relies on the `trailing _` member
# naming convention, which holds across the sns:: tree.
UNINIT_MEMBER_RE = re.compile(
    r"^\s*(?:(?:unsigned|signed|const|volatile|mutable)\s+)*"
    r"(?:int|long|short|char|bool|float|double|std::size_t|std::ptrdiff_t|"
    r"std::u?int(?:8|16|32|64)_t|std::uintptr_t)\s+"
    r"(\w+_)\s*;\s*(?://.*)?$"
)

# ---- static-contract rules (PR 10) -----------------------------------------

HOT_MARKER_RE = re.compile(r"\bSNS_HOT_PATH\s*\(")
# Definite per-activation allocations. Container *growth* calls
# (push_back into reserved capacity etc.) are deliberately not here —
# whether they allocate depends on warm state, which is the runtime
# contract's job (tests/alloc/test_steady_state.cpp).
HOT_ALLOC_RE = re.compile(
    r"(?<![\w.:])new\b"
    r"|std::make_unique\b|std::make_shared\b|std::to_string\b"
    r"|\bstd::string\s*\("
)
# A fresh standard container/string/function local: constructed (and on
# any content, heap-backed) every activation.
HOT_LOCAL_CONTAINER_RE = re.compile(
    r"^\s*(?:const\s+)?std::(?:vector|deque|list|map|set|multimap|multiset|"
    r"unordered_\w+|string|function)\s*(?:<[^;&]*>)?\s+\w+\s*[;={(]"
)
THROW_RE = re.compile(r"\bthrow\b")
RAW_SYNC_RE = re.compile(
    r"std::(?:recursive_|shared_|timed_|recursive_timed_)?mutex\b"
    r"|std::condition_variable(?:_any)?\b"
)


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


# ---- tokenizer -------------------------------------------------------------

RAW_PREFIX_RE = re.compile(r"(?:u8|[uUL])?R$")


def _scan_quoted(text, i, quote):
    """End offset (exclusive) of the literal opened at text[i] == quote.
    Stops at an unescaped newline: like the compiler, an unterminated
    literal does not leak into the next line."""
    j = i + 1
    n = len(text)
    while j < n:
        c = text[j]
        if c == "\\":
            j += 2
            continue
        if c == quote:
            return j + 1
        if c == "\n":
            return j
        j += 1
    return n


def _scan_raw_string(text, i):
    """End offset of the raw string whose opening quote is at text[i].
    R"delim( ... )delim" — no escapes, may span lines."""
    n = len(text)
    paren = text.find("(", i + 1)
    if paren == -1 or paren - i - 1 > 16 or "\n" in text[i + 1:paren]:
        return _scan_quoted(text, i, '"')  # malformed: fall back
    closer = ")" + text[i + 1:paren] + '"'
    end = text.find(closer, paren + 1)
    return n if end == -1 else end + len(closer)


def tokenize(text):
    """Single-pass C++ lexer: list of (kind, start, end) offset triples,
    kind in {id, num, punct, str, chr, raw_str, comment}. Whitespace is
    skipped. Raw strings, escapes, digit separators and block comments are
    lexed for real — the rule layer never guesses about literal bounds."""
    toks = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c in " \t\r\n\v\f":
            i += 1
            continue
        two = text[i:i + 2]
        if two == "//":
            j = text.find("\n", i)
            j = n if j == -1 else j
            toks.append(("comment", i, j))
            i = j
        elif two == "/*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            toks.append(("comment", i, j))
            i = j
        elif c == '"':
            prev = toks[-1] if toks else None
            if (prev is not None and prev[0] == "id" and prev[2] == i
                    and RAW_PREFIX_RE.search(text[prev[1]:prev[2]])):
                j = _scan_raw_string(text, i)
                toks.append(("raw_str", i, j))
            else:
                j = _scan_quoted(text, i, '"')
                toks.append(("str", i, j))
            i = j
        elif c == "'":
            prev = toks[-1] if toks else None
            if (prev is not None and prev[0] == "num" and prev[2] == i
                    and i + 1 < n and text[i + 1].isalnum()):
                # Digit separator (1'000'000): extend the number token.
                j = i + 1
                while j < n and (text[j].isalnum() or text[j] in "._"
                                 or (text[j] == "'" and j + 1 < n
                                     and text[j + 1].isalnum())):
                    j += 1
                toks[-1] = ("num", prev[1], j)
                i = j
            else:
                j = _scan_quoted(text, i, "'")
                toks.append(("chr", i, j))
                i = j
        elif c.isalpha() or c == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("id", i, j))
            i = j
        elif c.isdigit() or (c == "." and text[i + 1:i + 2].isdigit()):
            j = i + 1
            while j < n:
                ch = text[j]
                if ch.isalnum() or ch in "._":
                    j += 1
                elif ch in "+-" and text[j - 1] in "eEpP":
                    j += 1
                elif ch == "'" and j + 1 < n and text[j + 1].isalnum():
                    j += 2
                else:
                    break
            toks.append(("num", i, j))
            i = j
        else:
            toks.append(("punct", i, i + 1))
            i += 1
    return toks


def strip_code(lines):
    """Per-line code with comments and string/char literal payloads blanked
    out (same length, so column positions survive — rule regexes then run
    over literal-free text). Built on the tokenizer: raw strings and
    multi-line literals blank correctly, which the old per-line scanner
    could not do."""
    text = "\n".join(lines)
    out = list(text)
    for kind, s, e in tokenize(text):
        if kind == "comment":
            for k in range(s, e):
                if out[k] != "\n":
                    out[k] = " "
        elif kind in ("str", "chr", "raw_str"):
            # Keep the delimiters (so `"` still reads as a literal bound),
            # blank everything between them.
            for k in range(s + 1, e):
                if out[k] != "\n":
                    out[k] = " "
            if e - 1 > s and text[e - 1] == text[s]:
                out[e - 1] = text[e - 1]
    return "".join(out).split("\n")


def hot_path_ranges(code):
    """[lo, hi) line-index ranges of the innermost brace blocks containing
    an SNS_HOT_PATH(...) marker — i.e. the marked function bodies. Runs on
    blanked code, so markers in comments/strings don't count; markers on
    preprocessor lines (the macro's own #define) don't either."""
    text = "\n".join(code)
    line_starts = [0]
    for k, ch in enumerate(text):
        if ch == "\n":
            line_starts.append(k + 1)

    def line_of(pos):
        return bisect.bisect_right(line_starts, pos) - 1

    markers = []
    for m in HOT_MARKER_RE.finditer(text):
        if not code[line_of(m.start())].lstrip().startswith("#"):
            markers.append(m.start())
    if not markers:
        return []

    unassigned = set(markers)
    ranges = []
    stack = []
    for pos, ch in enumerate(text):
        if ch == "{":
            stack.append(pos)
        elif ch == "}" and stack:
            open_pos = stack.pop()
            inside = {m for m in unassigned if open_pos < m < pos}
            if inside:
                ranges.append((line_of(open_pos), line_of(pos) + 1))
                unassigned -= inside
    if unassigned:
        # Marker outside any closed block (truncated file): cover the rest.
        lo = min(line_of(m) for m in unassigned)
        ranges.append((lo, len(code)))
    return sorted(ranges)


def inline_allowed(lines, idx, rule):
    """`// snslint: allow(rule)` on the flagged line or the line above."""
    for j in (idx, idx - 1):
        if j < 0:
            continue
        m = ALLOW_RE.search(lines[j])
        if m and rule in [r.strip() for r in m.group(1).split(",")]:
            return True
    return False


def block_range(code, start):
    """Line range [start, end) of the brace block opened at/after `start`
    (the body of a loop header). Falls back to the single next line for
    braceless bodies."""
    depth = 0
    opened = False
    for i in range(start, len(code)):
        for c in code[i]:
            if c == "{":
                depth += 1
                opened = True
            elif c == "}":
                depth -= 1
                if opened and depth == 0:
                    return start, i + 1
        if not opened and i > start:
            return start, i + 1  # `for (...) stmt;` without braces
    return start, len(code)


def scan_file(path, display_path):
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            lines = f.read().splitlines()
    except OSError as e:
        return [Finding(display_path, 0, "io", str(e))]

    code = strip_code(lines)
    findings = []

    flagged = set()

    def add(idx, rule, message):
        if (idx, rule) in flagged or inline_allowed(lines, idx, rule):
            return
        flagged.add((idx, rule))
        findings.append(Finding(display_path, idx + 1, rule, message))

    unordered_names = set()
    float_names = set()

    def harvest(stripped):
        for ln in stripped:
            for m in UNORDERED_DECL_RE.finditer(ln):
                unordered_names.add(m.group(1))
            for m in FLOAT_DECL_RE.finditer(ln):
                float_names.add(m.group(1))

    harvest(code)
    # Members are declared in the companion header, used in the .cpp: a
    # foo.cpp next to a foo.hpp/h inherits the header's declared names so
    # `for (... : member_)` in the source still resolves.
    base, ext = os.path.splitext(path)
    if ext in (".cpp", ".cc", ".cxx"):
        for hext in (".hpp", ".h", ".hh", ".hxx"):
            try:
                with open(base + hext, encoding="utf-8",
                          errors="replace") as hf:
                    harvest(strip_code(hf.read().splitlines()))
            except OSError:
                continue

    is_header = path.endswith((".h", ".hpp", ".hh", ".hxx"))
    norm_disp = display_path.replace(os.sep, "/")
    on_decision_path = any(
        fnmatch.fnmatch(norm_disp, g) for g in DECISION_PATH_GLOBS)
    on_flight_rollup = any(
        fnmatch.fnmatch(norm_disp, g) for g in FLIGHT_ROLLUP_GLOBS)

    hot_lines = set()
    for lo, hi in hot_path_ranges(code):
        hot_lines.update(range(lo, hi))

    for idx, ln in enumerate(code):
        if on_decision_path and UNORDERED_ANY_RE.search(ln):
            add(idx, "unordered-decision-path",
                f"'{UNORDERED_ANY_RE.search(ln).group(0)}' on the "
                "calendar/decision path; use flat vectors indexed by "
                "dense JobId (hash order and rehash timing are "
                "implementation-defined)")
        if on_flight_rollup:
            m = UNORDERED_ANY_RE.search(ln) or WALL_CLOCK_RE.search(ln)
            if m:
                add(idx, "flight-rollup-determinism",
                    f"'{m.group(0).strip()}' in flight-recorder rollup "
                    "code; rollups are byte-compared across runs and opt "
                    "flags — use ascending-id vectors and simulated time")
        # unordered-iteration: range-for over a known unordered name (or an
        # inline construction), or explicit .begin()/.end() on one.
        for m in RANGE_FOR_RE.finditer(ln):
            expr = m.group(2)
            tokens = set(re.findall(r"\w+", expr))
            if tokens & unordered_names or "unordered_map" in expr or \
                    "unordered_set" in expr:
                add(idx, "unordered-iteration",
                    f"iteration order over '{expr.strip()}' is "
                    "hash-seed dependent")
                # float-accumulation: order-dependent sums in this body.
                lo, hi = block_range(code, idx)
                for j in range(lo, hi):
                    for am in COMPOUND_ACC_RE.finditer(code[j]):
                        if am.group(1) in float_names:
                            add(j, "float-accumulation",
                                f"'{am.group(1)} {code[j][am.end(1):].strip()[:2]}' "
                                "inside an unordered-container loop: the sum "
                                "depends on iteration order")
        for m in BEGIN_CALL_RE.finditer(ln):
            if m.group(1) in unordered_names:
                add(idx, "unordered-iteration",
                    f"'{m.group(0).strip()})' walks an unordered container "
                    "in hash order")

        if WALL_CLOCK_RE.search(ln):
            add(idx, "wall-clock",
                "wall-clock time in scheduler code breaks replay "
                "determinism; thread simulated time through instead")
        if SPAN_WALL_CLOCK_RE.search(ln):
            add(idx, "span-wall-clock",
                "span timing must use the monotonic std::chrono::"
                "steady_clock; system_clock jumps under NTP and "
                "high_resolution_clock may alias it")
        if RAW_RAND_RE.search(ln):
            add(idx, "raw-rand",
                "process-global / nondeterministic randomness; use "
                "sns::util::Rng with an explicit seed")
        if is_header:
            m = UNINIT_MEMBER_RE.match(ln)
            if m:
                add(idx, "uninit-member",
                    f"scalar member '{m.group(1)}' has no initializer; "
                    "reads before assignment are indeterminate")

        if RAW_SYNC_RE.search(ln):
            add(idx, "unannotated-shared-state",
                f"raw '{RAW_SYNC_RE.search(ln).group(0)}' declaration; use "
                "sns::util::Mutex / util::CondVar (thread-annotations "
                "wrappers) so clang -Wthread-safety can check the lock "
                "discipline around the state it guards")

        if idx in hot_lines:
            m = HOT_ALLOC_RE.search(ln) or HOT_LOCAL_CONTAINER_RE.match(ln)
            if m:
                add(idx, "hot-path-allocation",
                    f"'{m.group(0).strip()[:40]}' allocates on every "
                    "activation of an SNS_HOT_PATH body; hoist it to setup "
                    "or a warm scratch member (the runtime gate in "
                    "tests/alloc enforces heap silence at steady state)")
            if THROW_RE.search(ln):
                add(idx, "exception-escape-hot-path",
                    "'throw' inside an SNS_HOT_PATH body unwinds across "
                    "warm scratch state on the decision latency budget; "
                    "use SNS_REQUIRE at the boundary or return a status")

    return findings


class AllowEntry:
    """One `<rule> <glob>` allowlist line, with provenance for staleness
    reporting. Indexable like the bare (rule, glob) tuples tests pass."""

    def __init__(self, rule, glob, source=None, lineno=0):
        self.rule = rule
        self.glob = glob
        self.source = source
        self.lineno = lineno
        self.used = False

    def __getitem__(self, i):
        return (self.rule, self.glob)[i]

    def __repr__(self):
        return f"AllowEntry({self.rule!r}, {self.glob!r})"


def load_allowlist(path):
    entries = []
    with open(path, encoding="utf-8") as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2 or parts[0] not in RULES:
                raise SystemExit(
                    f"{path}:{lineno}: bad allowlist entry {raw.strip()!r} "
                    "(want: <rule> <path-glob>)")
            entries.append(AllowEntry(parts[0], parts[1], path, lineno))
    return entries


def allowlisted(entries, finding):
    norm = finding.path.replace(os.sep, "/")
    for entry in entries:
        rule, glob = entry[0], entry[1]
        if rule == finding.rule and (
                fnmatch.fnmatch(norm, glob) or fnmatch.fnmatch(norm, "*/" + glob)):
            if isinstance(entry, AllowEntry):
                entry.used = True
            return True
    return False


def stale_entries(entries, active):
    """Allowlist entries whose rule ran but which suppressed nothing —
    dead weight that would silently excuse a future regression."""
    return [e for e in entries
            if isinstance(e, AllowEntry) and e.rule in active and not e.used]


def collect_files(args):
    """(abs_path, display_path) pairs: explicit files/dirs, plus module
    prefixes resolved via compile_commands + the module's headers."""
    root = os.path.abspath(args.root)
    seen = {}

    def add(p):
        ap = os.path.abspath(p)
        if ap.endswith((".cpp", ".cc", ".cxx", ".h", ".hpp", ".hh", ".hxx")):
            disp = os.path.relpath(ap, root) if ap.startswith(root + os.sep) else ap
            seen[ap] = disp

    cc_files = []
    if args.compile_commands:
        with open(args.compile_commands, encoding="utf-8") as f:
            for entry in json.load(f):
                p = entry["file"]
                if not os.path.isabs(p):
                    p = os.path.join(entry.get("directory", "."), p)
                cc_files.append(os.path.abspath(p))

    for target in args.paths:
        if os.path.isfile(target):
            add(target)
            continue
        if os.path.isdir(target):
            for dirpath, _, names in os.walk(target):
                for n in sorted(names):
                    add(os.path.join(dirpath, n))
            continue
        # Module prefix like `sns/sched`: TUs from the compilation database
        # plus every header in the module directory.
        prefix = os.path.join(root, "src", target) + os.sep
        matched = False
        for p in cc_files:
            if p.startswith(prefix):
                add(p)
                matched = True
        mod_dir = os.path.join(root, "src", target)
        if os.path.isdir(mod_dir):
            matched = True
            for dirpath, _, names in os.walk(mod_dir):
                for n in sorted(names):
                    if n.endswith((".h", ".hpp", ".hh", ".hxx")):
                        add(os.path.join(dirpath, n))
        if not matched:
            raise SystemExit(f"snslint: nothing matches '{target}' "
                             f"(not a file, directory, or module under {root}/src)")
    return sorted(seen.items())


def main(argv=None):
    ap = argparse.ArgumentParser(prog="snslint", add_help=True)
    ap.add_argument("--compile-commands", help="compile_commands.json path")
    ap.add_argument("--root", default=".", help="repo root for module prefixes")
    ap.add_argument("--allowlist", help="allowlist file (<rule> <glob> lines)")
    ap.add_argument("--rules", help="comma-separated subset of rules to run")
    ap.add_argument("--check-stale-allowlist", action="store_true",
                    help="fail if an active-rule allowlist entry suppressed "
                         "nothing (reported with the entry's file:line)")
    ap.add_argument("paths", nargs="+", metavar="PATH_OR_MODULE")
    args = ap.parse_args(argv)

    active = set(RULES)
    if args.rules:
        active = {r.strip() for r in args.rules.split(",")}
        bad = active - set(RULES)
        if bad:
            raise SystemExit(f"snslint: unknown rule(s): {', '.join(sorted(bad))}")

    entries = load_allowlist(args.allowlist) if args.allowlist else []

    files = collect_files(args)
    findings = []
    for ap_, disp in files:
        for f in scan_file(ap_, disp):
            if f.rule in active and not allowlisted(entries, f):
                findings.append(f)

    for f in findings:
        print(f)
    stale = stale_entries(entries, active) if args.check_stale_allowlist else []
    for e in stale:
        print(f"{e.source}:{e.lineno}: stale allowlist entry "
              f"'{e.rule} {e.glob}' suppressed nothing — remove it, or fix "
              "the glob if it was meant to match")
    print(f"snslint: {len(files)} file(s), {len(findings)} finding(s), "
          f"{len(stale)} stale allowlist entr(y/ies)"
          if args.check_stale_allowlist else
          f"snslint: {len(files)} file(s), {len(findings)} finding(s)",
          file=sys.stderr)
    return 1 if findings or stale else 0


if __name__ == "__main__":
    sys.exit(main())
