#!/usr/bin/env python3
"""menos_lint — repo-specific invariants the compiler cannot see.

Rules (see docs/ANALYSIS.md for rationale and examples):

  raw-alloc              No malloc/calloc/realloc/free, raw `new T[...]`, or
                         `::operator new` in src/ outside src/gpusim/ — all
                         tensor-sized storage must flow through the Device
                         layer so the byte accounting the paper's claims
                         rest on stays exact.
  iostream-side-channel  No std::cout/std::cerr/std::clog or printf-family
                         calls in src/ outside src/util/logging.* — output
                         goes through MENOS_LOG so it is leveled, atomic,
                         and silenceable in tests.
  raw-mutex              No std::mutex / std::condition_variable /
                         std::lock_guard / std::unique_lock in src/ outside
                         src/util/mutex.h — Clang's thread-safety analysis
                         only sees the annotated util::Mutex wrappers.
  mutex-annotation       Every util::Mutex member must be referenced by at
                         least one MENOS_GUARDED_BY / MENOS_PT_GUARDED_BY /
                         MENOS_REQUIRES in the same file, i.e. the mutex
                         demonstrably guards something. A mutex that
                         legitimately guards no member (it serializes an
                         action) carries a NOLINT with a comment saying so.
  pragma-once            Every header in src/, tests/, bench/ uses
                         `#pragma once`.
  nondeterminism         No std::rand/srand/std::random_device in src/
                         outside src/util/rng.* — every experiment must be
                         reproducible from a single util::Rng seed.
  raw-thread             No std::thread / std::jthread / std::async in src/
                         outside src/util/ — concurrency is owned by the
                         shared serving core (util::TaskPool + Strand, the
                         net::Poller service thread). Per-session threads
                         are exactly what the event-driven refactor removed;
                         the few legitimate infrastructure threads carry a
                         NOLINT with a justification.
  raw-close              No ::close()/::shutdown() in src/ outside src/net/
                         — file descriptors are transport-layer property.
                         The TCP transport defers the real close until
                         blocked receives drain (the fd-reuse race of
                         docs/FAULTS.md); a stray ::close() elsewhere
                         reintroduces exactly that bug.
  check-side-effect      No side effects (++, --, assignment, .pop()/.take())
                         inside MENOS_CHECK/MENOS_DCHECK arguments. DCHECK
                         compiles out in Release builds, so a side effect in
                         its argument makes Debug and Release behave
                         differently — the worst possible heisenbug.
  raw-sleep              No std::this_thread::sleep_for/sleep_until in src/
                         outside src/net/link.cc — link delay, jitter and
                         loss have one model (net::condition_connection);
                         a sleep anywhere else is a second, unseeded one.
                         The few deliberate waits (retry backoff, compute
                         emulation) carry a NOLINT saying so.
  mutex-name             Every util::Mutex member in src/ carries a lock
                         class name (and usually a rank) for the deadlock
                         detector: `Mutex m_{"area.role", N};`. A mutex
                         named dynamically in its constructor (the device
                         decorators) carries a NOLINT saying so.

Suppression: append `// NOLINT(<rule>)` to the offending line, or put
`// NOLINTNEXTLINE(<rule>)` on the line above it. A bare NOLINT (no rule
list) suppresses every rule on that line. Suppressions should say *why* —
the linter does not check that, reviewers do.

Usage:
  tools/menos_lint.py [--root REPO_ROOT]   lint the tree (exit 1 on findings)
  tools/menos_lint.py --self-test          prove each rule fires on a seeded
                                           violation (exit 1 on regression)
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import tempfile
from pathlib import Path

# ---------------------------------------------------------------------------
# Helpers


def strip_comments(text: str) -> str:
    """Blank out // and /* */ comments, preserving line structure.

    Lint rules match *code*; prose is allowed to mention std::mutex. String
    literals are not parsed — a rule pattern inside a string would be a
    false positive we accept for a 300-line linter.
    """
    out = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if ch == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                i += 1
        elif ch == "/" and nxt == "*":
            i += 2
            while i + 1 < n and not (text[i] == "*" and text[i + 1] == "/"):
                if text[i] == "\n":
                    out.append("\n")
                i += 1
            i = min(i + 2, n)
        elif ch == '"':
            # Skip string literals so quoted examples don't trip rules.
            out.append(ch)
            i += 1
            while i < n and text[i] != '"':
                if text[i] == "\\":
                    i += 1
                if i < n and text[i] == "\n":
                    out.append("\n")
                i += 1
            if i < n:
                out.append('"')
                i += 1
        else:
            out.append(ch)
            i += 1
    return "".join(out)


NOLINT_RE = re.compile(r"NOLINT(?:NEXTLINE)?(?:\(([^)]*)\))?")


def suppressed(raw_lines: list[str], lineno: int, rule: str) -> bool:
    """True if `rule` is NOLINT-suppressed for 1-based line `lineno`."""
    candidates = []
    if lineno - 1 < len(raw_lines):
        candidates.append((raw_lines[lineno - 1], False))
    if lineno - 2 >= 0:
        candidates.append((raw_lines[lineno - 2], True))
    for line, needs_nextline in candidates:
        for m in NOLINT_RE.finditer(line):
            is_nextline = "NOLINTNEXTLINE" in m.group(0)
            if needs_nextline != is_nextline:
                continue
            rules = m.group(1)
            if rules is None or rule in [r.strip() for r in rules.split(",")]:
                return True
    return False


class Finding:
    def __init__(self, path: Path, lineno: int, rule: str, message: str):
        self.path, self.lineno, self.rule, self.message = path, lineno, rule, message

    def __str__(self) -> str:
        return f"{self.path}:{self.lineno}: [{self.rule}] {self.message}"

    def github_annotation(self) -> str:
        """A GitHub Actions `::error` workflow command for this finding, so
        CI failures surface inline on the PR diff. The message data must
        escape %, CR and LF per the workflow-command encoding."""
        msg = f"[{self.rule}] {self.message}"
        msg = msg.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")
        return f"::error file={self.path},line={self.lineno}::{msg}"


# ---------------------------------------------------------------------------
# Rules. Each rule is a function (path, raw_text) -> list[Finding].

RAW_ALLOC_RE = re.compile(
    r"\bmalloc\s*\(|\bcalloc\s*\(|\brealloc\s*\(|\bfree\s*\("
    r"|\bnew\s+[A-Za-z_][\w:<>,* ]*\["
    r"|::operator new\b"
)
IOSTREAM_RE = re.compile(
    r"std::cout\b|std::cerr\b|std::clog\b"
    r"|\b(?:printf|fprintf|puts|fputs|putchar)\s*\("
)
RAW_MUTEX_RE = re.compile(
    r"std::(?:mutex|recursive_mutex|shared_mutex|condition_variable(?:_any)?"
    r"|lock_guard|unique_lock|scoped_lock|shared_lock)\b"
)
NONDET_RE = re.compile(r"std::rand\b|\bsrand\s*\(|std::random_device\b")
RAW_THREAD_RE = re.compile(r"std::j?thread\b(?!::)|std::async\s*\(")
RAW_CLOSE_RE = re.compile(r"::close\s*\(|::shutdown\s*\(")
RAW_SLEEP_RE = re.compile(r"\bsleep_(?:for|until)\s*\(")
MUTEX_MEMBER_RE = re.compile(
    r"^\s*(?:mutable\s+)?(?:(?:menos::)?util::)?Mutex\s+(\w+)\s*"
    r"(\{[^}]*\})?\s*;"
)
CHECK_MACRO_RE = re.compile(r"\bMENOS_D?CHECK(?:_MSG)?\s*\(")
# ++/--, assignment or compound assignment (== <= >= != are comparisons),
# and consuming calls: .pop()/.pop_front()/.take()/... via . or ->.
SIDE_EFFECT_RE = re.compile(
    r"\+\+|--|(?<![=!<>])=(?!=)|(?:\.|->)\s*(?:pop\w*|take\w*)\s*\("
)
KERNEL_SCRATCH_RE = re.compile(
    r"std::vector\s*<\s*float\s*>|std::aligned_alloc\s*\("
    r"|std::make_unique\s*<\s*float\s*\[\]|alloca\s*\("
    r"|\bmmap\s*\("
)


def check_pattern_rule(path, raw, rule, regex, exempt, message):
    if exempt(path):
        return []
    raw_lines = raw.splitlines()
    findings = []
    for lineno, line in enumerate(strip_comments(raw).splitlines(), start=1):
        if regex.search(line) and not suppressed(raw_lines, lineno, rule):
            findings.append(Finding(path, lineno, rule, message))
    return findings


def check_raw_alloc(path: Path, raw: str) -> list:
    return check_pattern_rule(
        path, raw, "raw-alloc", RAW_ALLOC_RE,
        exempt=lambda p: "gpusim" in p.parts or "src" not in p.parts,
        message="raw heap allocation — storage must go through the gpusim "
                "Device layer so byte accounting stays exact")


def check_iostream(path: Path, raw: str) -> list:
    return check_pattern_rule(
        path, raw, "iostream-side-channel", IOSTREAM_RE,
        exempt=lambda p: "src" not in p.parts or
        (p.parts[-2:] == ("util", "logging.h")) or
        (p.parts[-2:] == ("util", "logging.cc")),
        message="direct console output — use MENOS_LOG (util/logging.h) so "
                "output is leveled, atomic and silenceable")


def check_raw_mutex(path: Path, raw: str) -> list:
    return check_pattern_rule(
        path, raw, "raw-mutex", RAW_MUTEX_RE,
        exempt=lambda p: "src" not in p.parts or
        p.parts[-2:] == ("util", "mutex.h"),
        message="raw standard-library locking — use util::Mutex/MutexLock/"
                "CondVar so Clang thread-safety analysis sees the lock")


def check_nondeterminism(path: Path, raw: str) -> list:
    return check_pattern_rule(
        path, raw, "nondeterminism", NONDET_RE,
        exempt=lambda p: "src" not in p.parts or
        (len(p.parts) >= 2 and p.parts[-2] == "util"
         and p.parts[-1].startswith("rng")),
        message="unseeded randomness — all randomness flows through "
                "util::Rng so experiments reproduce from one seed")


def check_raw_thread(path: Path, raw: str) -> list:
    return check_pattern_rule(
        path, raw, "raw-thread", RAW_THREAD_RE,
        exempt=lambda p: "src" not in p.parts or "util" in p.parts,
        message="raw thread spawn — sessions are event handlers on the "
                "shared executor (util::TaskPool/Strand); infrastructure "
                "threads live in src/util or carry a justified NOLINT")


def check_raw_close(path: Path, raw: str) -> list:
    return check_pattern_rule(
        path, raw, "raw-close", RAW_CLOSE_RE,
        exempt=lambda p: "src" not in p.parts or "net" in p.parts,
        message="raw ::close()/::shutdown() — file descriptors belong to "
                "src/net, whose deferred-close protocol prevents the "
                "fd-reuse race (docs/FAULTS.md)")


def check_raw_sleep(path: Path, raw: str) -> list:
    return check_pattern_rule(
        path, raw, "raw-sleep", RAW_SLEEP_RE,
        exempt=lambda p: "src" not in p.parts or
        p.parts[-2:] == ("net", "link.cc"),
        message="raw sleep — frame delay belongs to net::condition_connection "
                "(src/net/link.cc); other deliberate waits carry a justified "
                "NOLINT")


def check_mutex_annotation(path: Path, raw: str) -> list:
    if "src" not in path.parts or path.parts[-2:] == ("util", "mutex.h"):
        return []
    # The memory subsystem is all lock-ordering subtlety (allocator inside
    # engine inside scheduler callbacks), so src/mem is held to the strict
    # form of the rule: every mutex must be annotated; NOLINT is no escape.
    strict = len(path.parts) >= 2 and path.parts[0] == "src" and \
        path.parts[1] == "mem"
    raw_lines = raw.splitlines()
    stripped = strip_comments(raw)
    findings = []
    for lineno, line in enumerate(stripped.splitlines(), start=1):
        m = MUTEX_MEMBER_RE.match(line)
        if not m:
            continue
        name = m.group(1)
        if not strict and suppressed(raw_lines, lineno, "mutex-annotation"):
            continue
        uses = re.compile(
            r"MENOS_(?:GUARDED_BY|PT_GUARDED_BY|REQUIRES)\(\s*\*?"
            + re.escape(name))
        if not uses.search(stripped):
            if strict:
                message = (
                    f"mutex '{name}' has no MENOS_GUARDED_BY/MENOS_REQUIRES "
                    f"reference in this file — src/mem mutexes must be "
                    f"annotated (NOLINT does not exempt here)")
            else:
                message = (
                    f"mutex '{name}' has no MENOS_GUARDED_BY/MENOS_REQUIRES "
                    f"reference in this file — annotate what it guards, or "
                    f"NOLINT with a comment saying what it serializes")
            findings.append(Finding(path, lineno, "mutex-annotation", message))
    return findings


def check_kernel_scratch(path: Path, raw: str) -> list:
    # The matmul kernels pack panels on every call; ad-hoc heap scratch
    # there is unaligned (vector loads degrade) and reallocates per call.
    # util/aligned.h::scratch_floats is the sanctioned per-thread buffer,
    # and util::PageBuffer the one home of page-mapped panel memory (a
    # frozen weight's panels packed once), so no mmap here either.
    return check_pattern_rule(
        path, raw, "kernel-scratch", KERNEL_SCRATCH_RE,
        exempt=lambda p: p.parts[-2:] not in (("tensor", "kernels.cc"),
                                              ("tensor", "kernels.h")),
        message="ad-hoc scratch in the matmul kernels — pack panels into "
                "util::scratch_floats, or a util::PageBuffer for panels "
                "kept across calls (util/aligned.h), so scratch is "
                "vector-aligned and reused across calls")


def blank_strings(text: str) -> str:
    """Replace the contents of string/char literals with spaces.

    strip_comments keeps literals so quoted examples don't trip line rules;
    the side-effect scan must not match `--flag` or `pop()` inside one.
    """
    out = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in "\"'":
            quote = ch
            out.append(ch)
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    out.append(" ")
                    i += 1
                out.append("\n" if text[i] == "\n" else " ")
                i += 1
            if i < n:
                out.append(quote)
                i += 1
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def extract_balanced(text: str, open_idx: int):
    """The argument text between the paren at `open_idx` and its match.

    Skips parens inside string/char literals. Returns None when the file
    ends before the parens balance (macro split by preprocessor games).
    """
    depth = 0
    i, n = open_idx, len(text)
    while i < n:
        ch = text[i]
        if ch in "\"'":
            quote = ch
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    i += 1
                i += 1
        elif ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0:
                return text[open_idx + 1:i]
        i += 1
    return None


def check_check_side_effect(path: Path, raw: str) -> list:
    # The macro definitions themselves (do-while plumbing) are exempt; every
    # *use* in src/, tests/ and bench/ is held to the rule.
    if path.parts[-2:] == ("util", "check.h"):
        return []
    raw_lines = raw.splitlines()
    stripped = strip_comments(raw)
    findings = []
    for m in CHECK_MACRO_RE.finditer(stripped):
        macro = m.group(0).rstrip("( \t\n")
        arg = extract_balanced(stripped, m.end() - 1)
        if arg is None:
            continue
        lineno = stripped.count("\n", 0, m.start()) + 1
        if suppressed(raw_lines, lineno, "check-side-effect"):
            continue
        if SIDE_EFFECT_RE.search(blank_strings(arg)):
            findings.append(Finding(
                path, lineno, "check-side-effect",
                f"side effect in {macro}(...) argument — DCHECKs compile "
                f"out in Release, so the effect silently disappears; hoist "
                f"it onto its own statement"))
    return findings


def check_mutex_name(path: Path, raw: str) -> list:
    if "src" not in path.parts or path.parts[-2:] == ("util", "mutex.h"):
        return []
    raw_lines = raw.splitlines()
    findings = []
    for lineno, line in enumerate(strip_comments(raw).splitlines(), start=1):
        m = MUTEX_MEMBER_RE.match(line)
        if not m:
            continue
        init = m.group(2)
        if init is not None and '"' in init:
            continue  # named (and possibly ranked) — what the rule wants
        if suppressed(raw_lines, lineno, "mutex-name"):
            continue
        findings.append(Finding(
            path, lineno, "mutex-name",
            f"mutex '{m.group(1)}' has no lock-class name — the deadlock "
            f"detector needs `Mutex m_{{\"area.role\", rank}};` "
            f"(docs/ANALYSIS.md); constructor-named mutexes carry a "
            f"NOLINT with the reason"))
    return findings


def check_pragma_once(path: Path, raw: str) -> list:
    if path.suffix != ".h":
        return []
    if "#pragma once" in raw:
        return []
    if suppressed(raw.splitlines(), 1, "pragma-once"):
        return []
    return [Finding(path, 1, "pragma-once",
                    "header missing '#pragma once'")]


ALL_RULES = [
    check_raw_alloc,
    check_iostream,
    check_raw_mutex,
    check_nondeterminism,
    check_raw_thread,
    check_raw_close,
    check_raw_sleep,
    check_mutex_annotation,
    check_kernel_scratch,
    check_check_side_effect,
    check_mutex_name,
    check_pragma_once,
]

LINT_DIRS = ("src", "tests", "bench")
EXTENSIONS = (".h", ".cc", ".cpp")


def lint_tree(root: Path) -> list:
    findings = []
    for d in LINT_DIRS:
        base = root / d
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix not in EXTENSIONS or not path.is_file():
                continue
            raw = path.read_text(encoding="utf-8", errors="replace")
            rel = path.relative_to(root)
            for rule in ALL_RULES:
                findings.extend(rule(rel, raw))
    return findings


# ---------------------------------------------------------------------------
# Self-test: each rule must fire on a seeded violation and stay quiet on the
# suppressed/clean twin. This is what keeps the linter honest as it grows.

SELF_TEST_CASES = [
    # (relative path, contents, expected rule or None)
    ("src/tensor/bad_alloc.cc", "void* p = malloc(128);\n", "raw-alloc"),
    ("src/tensor/bad_new.cc", "float* p = new float[64];\n", "raw-alloc"),
    ("src/gpusim/ok_alloc.cc", "void* p = malloc(128);\n", None),
    ("src/core/bad_print.cc",
     '#include <iostream>\nvoid f() { std::cout << "x"; }\n',
     "iostream-side-channel"),
    ("src/core/ok_log.cc", 'void f() { MENOS_LOG(Info) << "x"; }\n', None),
    ("src/net/bad_mutex.cc", "#include <mutex>\nstd::mutex m;\n", "raw-mutex"),
    ("src/net/ok_mutex.cc",
     'struct S { util::Mutex mu_{"net.s"}; int x MENOS_GUARDED_BY(mu_); };\n',
     None),
    ("src/sched/bad_unannotated.h",
     "#pragma once\nclass C {\n  mutable util::Mutex mutex_;\n  int x_;\n};\n",
     "mutex-annotation"),
    ("src/sched/ok_suppressed.h",
     "#pragma once\nclass C {\n  // serializes connect(), guards nothing\n"
     '  util::Mutex mutex_{"sched.c"};  // NOLINT(mutex-annotation)\n};\n',
     None),
    # src/mem is strict: the same NOLINT that exempts src/sched still fires.
    ("src/mem/bad_nolint.h",
     "#pragma once\nclass C {\n  // serializes something, honest!\n"
     "  util::Mutex mutex_;  // NOLINT(mutex-annotation)\n};\n",
     "mutex-annotation"),
    ("src/mem/ok_annotated.h",
     '#pragma once\nclass C {\n  mutable util::Mutex mutex_{"mem.c", 52};\n'
     "  int x_ MENOS_GUARDED_BY(mutex_);\n};\n", None),
    ("src/util/bad_header.h", "struct X {};\n", "pragma-once"),
    ("src/core/bad_thread.cc",
     "#include <thread>\nstd::thread t([] {});\n", "raw-thread"),
    ("src/sched/bad_jthread.cc",
     "#include <thread>\nstd::jthread t([] {});\n", "raw-thread"),
    ("src/core/bad_async.cc",
     "#include <future>\nauto f = std::async([] {});\n", "raw-thread"),
    ("src/util/ok_pool_thread.cc",
     "#include <thread>\nstd::thread t([] {});\n",
     None),  # src/util is the sanctioned home for thread spawns
    ("src/core/ok_hw_concurrency.cc",
     "int n = (int)std::thread::hardware_concurrency();\n",
     None),  # querying parallelism is not spawning a thread
    ("src/core/ok_thread_nolint.cc",
     "std::thread t([] {});  // NOLINT(raw-thread) accept loop, one/server\n",
     None),
    ("tests/ok_test_thread.cc",
     "#include <thread>\nstd::thread t([] {});\n",
     None),  # test drivers may spawn client threads
    ("src/core/bad_rand.cc", "int r = std::rand();\n", "nondeterminism"),
    ("src/core/bad_close.cc",
     "#include <unistd.h>\nvoid f(int fd) { ::close(fd); }\n", "raw-close"),
    ("src/sched/bad_shutdown.cc",
     "void f(int fd) { ::shutdown(fd, 2); }\n", "raw-close"),
    ("src/net/ok_close.cc",
     "#include <unistd.h>\nvoid f(int fd) { ::close(fd); }\n",
     None),  # the transport layer owns fd lifecycle
    ("src/core/ok_close_comment.cc",
     "// transports must ::close() via FdGuard, see src/net/tcp.cc\n",
     None),  # prose may name the banned call
    ("src/core/ok_close_nolint.cc",
     "void f(int fd) { ::close(fd); }  // NOLINT(raw-close) inherited fd\n",
     None),
    ("src/net/bad_sleep.cc",
     "void f() { std::this_thread::sleep_for(std::chrono::seconds(1)); }\n",
     "raw-sleep"),  # a second delay path beside the link model
    ("src/core/bad_sleep_until.cc",
     "void f(T t) { std::this_thread::sleep_until(t); }\n", "raw-sleep"),
    ("src/net/link.cc",
     "void f() { std::this_thread::sleep_for(std::chrono::seconds(1)); }\n",
     None),  # the one link-delay seam
    ("src/core/ok_sleep_nolint.cc",
     "void f() { std::this_thread::sleep_for(d); }"
     "  // NOLINT(raw-sleep) retry backoff\n",
     None),
    ("tests/ok_test_sleep.cc",
     "void f() { std::this_thread::sleep_for(d); }\n",
     None),  # test drivers may wait on wall-clock time
    ("src/util/rng_extra.cc", "#include <random>\nstd::random_device rd;\n",
     None),  # rng* files are the sanctioned home for entropy
    ("src/core/ok_comment.cc", "// std::mutex is banned here, use util::Mutex\n",
     None),  # prose may name banned constructs
    ("src/core/ok_nextline.cc",
     "// NOLINTNEXTLINE(nondeterminism)\nint r = std::rand();\n", None),
    ("src/tensor/kernels.cc",
     "void pack() { std::vector<float> tmp(64); }\n", "kernel-scratch"),
    ("src/tensor/kernels.cc",
     "float* panels(std::size_t n) {\n"
     "  return static_cast<float*>(::mmap(nullptr, n, 3, 0x22, -1, 0));\n"
     "}\n", "kernel-scratch"),  # panel memory only via util::PageBuffer
    ("src/util/aligned.h",
     "#pragma once\n"
     "void* p = ::mmap(nullptr, n, PROT_READ, MAP_PRIVATE, -1, 0);\n",
     None),  # the sanctioned home of page-mapped panels
    ("src/tensor/kernels.h",
     "#pragma once\nvoid pack() { float* t = util::scratch_floats(0, 64); }\n",
     None),  # the sanctioned scratch API
    ("src/tensor/ops_scratch.cc",
     "void f() { std::vector<float> tmp(8); }\n",
     None),  # rule is scoped to the kernel files
    ("src/core/bad_check_incr.cc",
     "void f(int i) { MENOS_DCHECK(i++ < 4); }\n", "check-side-effect"),
    ("src/core/bad_check_assign.cc",
     'void f(int x) { MENOS_CHECK_MSG(x = next(), "got " << x); }\n',
     "check-side-effect"),
    ("src/sched/bad_check_pop.cc",
     "void f(Queue& q) {\n  MENOS_CHECK(\n      q.pending() != 0 &&\n"
     "      q.take().has_value());\n}\n",
     "check-side-effect"),  # multi-line argument, consuming call
    ("src/core/ok_check_compare.cc",
     "void f(int a, int b) { MENOS_DCHECK(a == b && a <= 4 && b >= -1); }\n",
     None),  # comparisons and unary minus are not side effects
    ("src/core/ok_check_string.cc",
     'void f(bool ok) { MENOS_CHECK_MSG(ok, "pass --retry or q.pop()"); }\n',
     None),  # literals may name side effects
    ("src/core/ok_check_nolint.cc",
     "void f(int i) { MENOS_CHECK(i++ < 4); }"
     "  // NOLINT(check-side-effect) counted probe, Release keeps CHECK\n",
     None),
    ("src/core/bad_unnamed_mutex.h",
     "#pragma once\nclass C {\n  util::Mutex mutex_;\n"
     "  int x_ MENOS_GUARDED_BY(mutex_);\n};\n", "mutex-name"),
    ("src/core/ok_ctor_named_mutex.h",
     "#pragma once\nclass C {\n  // lock class named in the constructor "
     "via decorator_lock_name()\n"
     "  util::Mutex mutex_;  // NOLINT(mutex-name)\n"
     "  int x_ MENOS_GUARDED_BY(mutex_);\n};\n", None),
    ("tests/ok_unnamed_mutex.cc",
     "struct S { util::Mutex mu_; int x MENOS_GUARDED_BY(mu_); };\n",
     None),  # mutex-name is a src/ rule; test fixtures may stay anonymous
]


def self_test() -> int:
    failures = []
    with tempfile.TemporaryDirectory(prefix="menos_lint_selftest_") as tmp:
        root = Path(tmp)
        for rel, contents, _ in SELF_TEST_CASES:
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(contents, encoding="utf-8")
        findings = lint_tree(root)
        by_file = {}
        for f in findings:
            by_file.setdefault(str(f.path), set()).add(f.rule)
        for rel, _, expected in SELF_TEST_CASES:
            got = by_file.get(rel, set())
            if expected is None and got:
                failures.append(f"{rel}: expected clean, got {sorted(got)}")
            elif expected is not None and expected not in got:
                failures.append(f"{rel}: expected [{expected}], got {sorted(got)}")
    # The CI annotation path: exact workflow-command format, data escaped.
    annotation = Finding(
        Path("src/a.cc"), 3, "raw-alloc", "50% worse\nsecond line").github_annotation()
    expected_annotation = (
        "::error file=src/a.cc,line=3::[raw-alloc] 50%25 worse%0Asecond line")
    if annotation != expected_annotation:
        failures.append(
            f"github_annotation: expected {expected_annotation!r}, "
            f"got {annotation!r}")
    if failures:
        print("menos_lint self-test FAILED:")
        for f in failures:
            print(f"  {f}")
        return 1
    print(f"menos_lint self-test OK ({len(SELF_TEST_CASES)} cases)")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent,
                        help="repository root (default: the repo this "
                             "script lives in)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify every rule fires on a seeded violation")
    args = parser.parse_args()

    if args.self_test:
        return self_test()

    findings = lint_tree(args.root)
    annotate = os.environ.get("GITHUB_ACTIONS") == "true"
    for f in findings:
        print(f)
        if annotate:
            print(f.github_annotation())
    if findings:
        print(f"menos_lint: {len(findings)} finding(s)")
        return 1
    print("menos_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
