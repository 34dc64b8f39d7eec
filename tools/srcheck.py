#!/usr/bin/env python3
"""srcheck: AST-grounded contract analysis for the SR-tree codebase.

srlint (tools/srlint.py) checks contracts that are visible to a regex.
srcheck checks the ones that are not — rules about *expressions, scopes,
and lifetimes*, which need (at least) a tokenizer with scope tracking and,
where available, a real clang AST:

  C1  Status discipline: no call that returns Status/StatusOr may discard
      the result. The compile-time half is the [[nodiscard]] attribute on
      the Status/StatusOr classes plus -Werror=unused-result (top-level
      CMakeLists.txt); srcheck closes the gaps the compiler cannot see:
        * a `(void)`-cast discard without the project's waiver comment
              (void)index.Insert(p, oid);  // srcheck: allow(C1) <reason>
          (the comment is what makes every deliberate discard greppable);
        * a Status/StatusOr class *declared without* [[nodiscard]] — the
          anchor that keeps the whole rule enforceable;
        * naked discards in code the build does not compile (fixtures,
          dead-configured sources).

  C2  Pin lifetime: no raw pointer derived from a BufferPool::PageGuard
      (i.e. from its data()) may escape the pin's scope — returned, stored
      into a member, or captured by a lambda that is not invoked on the
      spot. Once the guard dies the frame is evictable and the pointer is
      a use-after-evict race. Moving the *guard itself* (which transfers
      the pin) is allowed; only the implementation of the pin protocol
      (src/storage/buffer_pool.{h,cc}) is exempt.

  C3  Narrowing-free serialization: src/storage/ compiles with
      -Wconversion -Wsign-conversion promoted to errors (scoped in
      src/CMakeLists.txt), so every implicit narrowing or sign change in
      the image codec / CRC path is a build break. srcheck verifies that
      wiring (CMakeLists text and, when present, compile_commands.json)
      and additionally scans storage sources for assignments that narrow
      a size/64-bit expression into a small integer without a spelled-out
      static_cast.

  C4  TSA completeness: a member field written while a srtree::MutexLock
      on some mutex is in scope must be declared GUARDED_BY that mutex.
      Heuristic by design (the compiler's -Wthread-safety checks the
      annotations that exist; this rule hunts for the ones that are
      *missing*). Waivers: the in-line form below, or the static list
      C4_STATIC_WAIVERS in this file — which must shrink, not grow; a
      stale entry is itself a finding.

  C5  Epoch/snapshot lifetime (C2 generalized from pins to epochs): no
      pointer, reference, or snapshot *view* derived from a
      PageFile::Snapshot / PinnedSnapshot / IndexSnapshot / VersionState
      or from an EpochGuard-protected object may outlive the guard or
      snapshot scope it was acquired under — returned, stored into a
      member, or captured by a lambda that is not invoked on the spot.
      Owning handles (unique_ptr/shared_ptr<IndexSnapshot>, whose
      destructor releases the guard) may be moved or shared freely; it is
      the raw views (`snapshot.get()`, `&snap`, a by-value
      PageFile::Snapshot) that dangle once the guard dies. The zero-copy
      page pointer a snapshot hands out (`snap.ReadInPlace(...)`, the
      pinned version's own buffer) is such a view, and so are the
      writer's raw page pointers — the working buffer `file.StageWrite(id)`
      returns and the writer's in-place `file.ReadInPlace(...)`, which the
      next copy-on-write or Commit invalidates: each may be used in scope,
      never returned, stored into a member, or captured by a deferred
      lambda. Only the snapshot/epoch protocol implementation
      (src/storage/page_file.*, src/storage/epoch.*) is exempt.

  C6  Lock-order graph: a whole-program analysis extracts every nested
      acquisition — a MutexLock taken while another MutexLock (or a
      REQUIRES-declared capability) is held, directly or through a call
      chain across translation units — into a global acquisition graph.
      A cycle in that graph is a potential deadlock and fails the run.
      The graph is also a checked-in artifact, docs/lock_order.json
      (regenerate with --emit-lock-order); the repo-wide run fails when
      the checked-in graph is stale, so lock-ordering changes are always
      visible in diffs. `--check-lock-order` runs just this rule (the
      `srcheck_lockorder_fresh` ctest).

  C7  Commit-protocol completeness: in src/ writer paths, every
      control-flow path that stages a page update (PageFile::StageWrite,
      directly or through a helper) must reach exactly one Commit — or an
      explicit discard/rollback — before control can escape back to the
      caller, and Commit may only be called with writer_mu_ held (a
      MutexLock in scope or a REQUIRES(writer_mu_) precondition). The
      analysis builds per-function summaries (stages / commits /
      discharges, transitively through the call graph) and checks that
      no staging call chain escapes uncommitted, that no path returns
      between StageWrite and Commit, and that no path commits twice.
      src/storage/ is the protocol's own implementation and is exempt.

  C8  Guarded-coverage ratchet: every mutable data member of a class that
      owns a Mutex must be GUARDED_BY a mutex, std::atomic, const, of an
      internally-synchronized type (a Mutex/CondVar/CAPABILITY class or
      another mutex-owning class, which polices itself), or carry an
      explicit UNGUARDED_OK("contract") annotation naming the out-of-band
      contract that makes it safe (src/base/thread_annotations.h).
      Pre-existing gaps live in tools/srcheck_c8_baseline.json, which is
      shrink-only: a baseline entry whose member became compliant (or
      disappeared) is itself a finding, and src/storage/ + src/engine/
      admit no baseline entries at all — coverage there can only move
      through real annotations.

Waivers. A finding is waived in place with a comment naming the rule and a
non-empty reason:

    cached_ = p;  // srcheck: allow(C4) single-threaded init before spawn

A waiver without a reason does not count. `--list-waivers` prints every
waiver in the tree so reviews can watch the list shrink.

Engines. With python libclang installed (CI: apt `python3-clang`), C1/C2/C5
run on the clang AST driven by <build>/compile_commands.json. Without it,
a built-in tokenizer/scope engine covers the same rules (same fixtures,
same waiver forms) and a loud notice marks the reduced depth — the local
build never breaks just because LLVM is absent. C3/C4 and the
whole-program rules C6/C7/C8 are token-grounded in both engines (their
program-wide function/class segmentation is shared); for C3 the *compiler*
is the AST authority and srcheck verifies the -Werror wiring that keeps
it so.

Usage:
  tools/srcheck.py [--root DIR] [--build-dir DIR] [--engine auto|clang|textual]
  tools/srcheck.py --self-test          verify every rule against the
                                        fixture tree in srcheck_testdata/
  tools/srcheck.py --list-waivers       print all active waivers
  tools/srcheck.py --emit-lock-order    regenerate docs/lock_order.json
  tools/srcheck.py --check-lock-order   C6 only: cycles + artifact freshness

Exit status: 0 clean, 1 findings, 2 usage/internal error.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import re
import subprocess
import sys
from typing import Iterable, NamedTuple

FIRST_PARTY_DIRS = ("src", "tests", "bench", "tools", "examples")
SOURCE_SUFFIXES = (".h", ".hpp", ".cc", ".cpp")
FIXTURE_DIRS = ("srlint_testdata", "srcheck_testdata")

RULES = ("C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8")
WAIVER_RE = re.compile(r"srcheck:\s*allow\((C[1-8])\)\s+(\S.*)")
EXPECT_RE = re.compile(r"srcheck-expect\((C[1-8])\)")

# C2: the pin protocol's own implementation hands guards and frame
# pointers around by construction; everything outside goes through the
# public PageGuard surface.
C2_ALLOWED_FILES = {
    "src/storage/buffer_pool.h",
    "src/storage/buffer_pool.cc",
}

# C5: the snapshot/epoch protocol's own implementation builds the views it
# hands out; everything outside goes through AcquireSnapshot + EpochGuard.
C5_ALLOWED_FILES = {
    "src/storage/page_file.h",
    "src/storage/page_file.cc",
    "src/storage/epoch.h",
    "src/storage/epoch.cc",
}

# C5 type vocabulary. "Views" are non-owning and dangle when the guard
# dies; "owners" (smart pointers to a snapshot object whose destructor
# releases the guard) may be shared/moved freely.
C5_GUARD_TYPES = ("EpochGuard",)
C5_VIEW_TYPES = ("PinnedSnapshot", "IndexSnapshot", "VersionState",
                 "Snapshot")
C5_OWNER_MARKERS = ("unique_ptr", "shared_ptr")
# Calls that hand out a raw page pointer. A snapshot's ReadInPlace points
# into the pinned version's buffer and is valid only while the EpochGuard
# lives; the writer's PageFile::ReadInPlace and the buffer StageWrite(id)
# returns point into working state that the next copy-on-write, Commit or
# Load replaces (and, once published, must never be written again).
C5_PAGE_POINTER_CALLS = ("ReadInPlace", "StageWrite")

# C6: the lock-order artifact. Regenerate with --emit-lock-order whenever
# the repo-wide run reports it stale.
LOCK_ORDER_ARTIFACT = "docs/lock_order.json"

# C7: commit-protocol vocabulary. A "discharge" releases a staged update
# without publishing it (rollback paths).
C7_STAGE_NAME = "StageWrite"
C7_COMMIT_NAME = "Commit"
C7_DISCHARGE_RE = re.compile(r"(Rollback|Discard|Abort)", re.IGNORECASE)
C7_WRITER_MUTEX = "writer_mu_"
C7_ALLOWED_PREFIX = "src/storage/"

# C8: the shrink-only coverage baseline, and the directories where even
# baseline entries are banned (annotations only).
C8_BASELINE_FILE = "tools/srcheck_c8_baseline.json"
C8_NO_BASELINE_DIRS = ("src/storage/", "src/engine/")
# Types that synchronize themselves; members of these types need no guard.
C8_SYNC_TYPES = {"Mutex", "MutexLock", "CondVar"}
C8_ANNOTATION = "UNGUARDED_OK"

# C4 static waiver list. Policy: this list must SHRINK, not grow — add a
# new entry only with a PR-reviewed justification here, and remove entries
# as the fields gain annotations. Entries are "file.cc::member_". A stale
# entry (no longer demanded) is reported so dead waivers cannot linger.
C4_STATIC_WAIVERS: dict[str, str] = {
    # (empty — keep it that way)
}

PIN_TYPES = ("PageGuard",)

STATEMENT_KEYWORDS = {
    "return", "if", "for", "while", "switch", "case", "do", "else", "goto",
    "delete", "new", "throw", "using", "typedef", "template", "public",
    "private", "protected", "namespace", "class", "struct", "enum", "union",
    "extern", "friend", "static_assert", "break", "continue", "default",
    "co_return", "co_await", "try", "catch", "operator", "static", "const",
    "constexpr", "inline", "virtual", "explicit", "typename",
}

ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=",
              ">>="}

MUTATING_METHODS = {
    "push_back", "pop_back", "emplace_back", "push_front", "pop_front",
    "insert", "erase", "clear", "resize", "splice", "assign", "swap",
    "emplace", "reset",
}

# Small fixed-width integer types a storage-layer expression must not
# implicitly narrow into (C3 heuristic).
NARROW_TYPES = {"uint8_t", "uint16_t", "uint32_t", "int8_t", "int16_t",
                "int32_t", "int", "short", "unsigned"}
WIDE_TYPES = {"size_t", "uint64_t", "int64_t", "ptrdiff_t", "ssize_t",
              "long"}


class Finding(NamedTuple):
    rel: str
    lineno: int
    rule: str
    message: str


class Token(NamedTuple):
    text: str
    line: int


# ---------------------------------------------------------------------------
# Lexing: blank comments/strings (same state machine as srlint), blank
# preprocessor lines (with continuations), then tokenize with positions.

def strip_comments_and_strings(text: str) -> str:
    out = []
    i, n = 0, len(text)
    NORMAL, LINE_COMMENT, BLOCK_COMMENT, STRING, CHAR = range(5)
    state = NORMAL
    raw_end = ""
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == NORMAL:
            if c == "/" and nxt == "/":
                state, i = LINE_COMMENT, i + 2
                out.append("  ")
            elif c == "/" and nxt == "*":
                state, i = BLOCK_COMMENT, i + 2
                out.append("  ")
            elif c == '"':
                m = re.match(r'R"([^\s()\\]{0,16})\(', text[i - 1: i + 18]) \
                    if i > 0 and text[i - 1] == "R" else None
                if m:
                    raw_end = ")" + m.group(1) + '"'
                    state = STRING
                    skip = 1 + len(m.group(1)) + 1
                    out.append(" " * skip)
                    i += skip
                else:
                    raw_end = ""
                    state = STRING
                    out.append(" ")
                    i += 1
            elif c == "'":
                state, i = CHAR, i + 1
                out.append(" ")
            else:
                out.append(c)
                i += 1
        elif state == LINE_COMMENT:
            out.append(c if c == "\n" else " ")
            if c == "\n":
                state = NORMAL
            i += 1
        elif state == BLOCK_COMMENT:
            if c == "*" and nxt == "/":
                state, i = NORMAL, i + 2
                out.append("  ")
            else:
                out.append(c if c == "\n" else " ")
                i += 1
        elif state == STRING:
            if raw_end:
                if text.startswith(raw_end, i):
                    state = NORMAL
                    out.append(" " * len(raw_end))
                    i += len(raw_end)
                else:
                    out.append(c if c == "\n" else " ")
                    i += 1
            elif c == "\\" and nxt:
                out.append("  ")
                i += 2
            elif c == '"':
                state, i = NORMAL, i + 1
                out.append(" ")
            else:
                out.append(c if c == "\n" else " ")
                i += 1
        else:  # CHAR
            if c == "\\" and nxt:
                out.append("  ")
                i += 2
            elif c == "'":
                state, i = NORMAL, i + 1
                out.append(" ")
            else:
                out.append(" ")
                i += 1
    return "".join(out)


def blank_preprocessor(code: str) -> str:
    """Blank #-directive lines (and their backslash continuations)."""
    lines = code.split("\n")
    out = []
    in_directive = False
    for line in lines:
        if in_directive or re.match(r"\s*#", line):
            in_directive = line.rstrip().endswith("\\")
            out.append("")
        else:
            in_directive = False
            out.append(line)
    return "\n".join(out)


TOKEN_RE = re.compile(
    r"[A-Za-z_]\w*|\d[\w.]*|::|->|\+\+|--|<<=|>>=|<=|>=|==|!=|\+=|-=|\*=|"
    r"/=|%=|&=|\|=|\^=|&&|\|\||<<|>>|[{}()\[\];,.:=<>+\-*/%&|^!~?]")


def tokenize(code: str) -> list[Token]:
    tokens = []
    for lineno, line in enumerate(code.split("\n"), start=1):
        for m in TOKEN_RE.finditer(line):
            tokens.append(Token(m.group(0), lineno))
    return tokens


def statements(tokens: list[Token]) -> Iterable[list[Token]]:
    """Token runs between statement boundaries ({, }, and top-level ;)."""
    stmt: list[Token] = []
    paren = 0
    for tok in tokens:
        if tok.text == "(":
            paren += 1
        elif tok.text == ")":
            paren = max(0, paren - 1)
        if tok.text in "{}" and paren == 0:
            if stmt:
                yield stmt
            stmt = []
            continue
        stmt.append(tok)
        if tok.text == ";" and paren == 0:
            yield stmt
            stmt = []
    if stmt:
        yield stmt


def collect_waivers(raw_lines: list[str]) -> dict[int, dict[str, str]]:
    waived: dict[int, dict[str, str]] = {}
    for lineno, line in enumerate(raw_lines, start=1):
        for m in WAIVER_RE.finditer(line):
            waived.setdefault(lineno, {})[m.group(1)] = m.group(2).strip()
    return waived


# ---------------------------------------------------------------------------
# C1 — Status discipline (textual engine).

STATUS_FN_RE = re.compile(
    r"\bStatus(?:Or\s*<[^;{}()]*>)?[&\s]+(?:[A-Za-z_]\w*::)*"
    r"([A-Za-z_]\w*)\s*\(")

STATUS_CLASS_RE = re.compile(
    r"^\s*class\s+(?:\[\[\s*nodiscard\s*\]\]\s+)?(Status|StatusOr)\b"
    r"[^;]*\{")
NODISCARD_RE = re.compile(r"\[\[\s*nodiscard\s*\]\]")


def collect_status_fn_names(stripped_by_rel: dict[str, str]) -> set[str]:
    names: set[str] = set()
    for code in stripped_by_rel.values():
        for m in STATUS_FN_RE.finditer(code):
            names.add(m.group(1))
    names.discard("operator")
    return names


def call_name(stmt: list[Token]) -> str | None:
    """Outermost trailing call of an expression statement, if any."""
    depth = 0
    last = None
    for i, tok in enumerate(stmt):
        if tok.text == "(":
            if depth == 0 and i > 0 and re.match(r"[A-Za-z_]\w*$",
                                                 stmt[i - 1].text):
                last = stmt[i - 1].text
            depth += 1
        elif tok.text == ")":
            depth -= 1
    return last


def is_declaration(stmt: list[Token]) -> bool:
    """Two adjacent identifiers before any '(' or '=' suggest a decl."""
    prev_id = False
    for tok in stmt:
        if tok.text in ("(", "="):
            return False
        if re.match(r"[A-Za-z_]\w*$", tok.text):
            if prev_id and tok.text not in STATEMENT_KEYWORDS:
                return True
            prev_id = tok.text not in STATEMENT_KEYWORDS or \
                tok.text in ("const", "static", "constexpr", "auto")
        elif tok.text in ("::", "<", ">", ",", "*", "&", "[", "]"):
            pass  # qualifiers/template args keep the decl prefix going
        else:
            prev_id = False  # '.', '->', operators: expression context
    return False


def check_c1(rel: str, stripped: str, tokens: list[Token],
             raw_lines: list[str], status_names: set[str],
             waivers: dict[int, dict[str, str]]) -> Iterable[Finding]:
    # Anchor check: a Status/StatusOr class definition must be [[nodiscard]]
    # — removing the attribute re-opens every discard the compiler catches.
    for lineno, line in enumerate(stripped.split("\n"), start=1):
        m = STATUS_CLASS_RE.match(line)
        if m and not NODISCARD_RE.search(line):
            yield Finding(
                rel, lineno, "C1",
                f"class {m.group(1)} is not [[nodiscard]]; the attribute is "
                f"what makes every dropped error a compile error")

    for stmt in statements(tokens):
        if not stmt or stmt[-1].text != ";":
            continue
        body = stmt[:-1]
        if not body:
            continue
        void_cast = (len(body) > 3 and body[0].text == "(" and
                     body[1].text == "void" and body[2].text == ")")
        if void_cast:
            body = body[3:]
        if not body or body[0].text in STATEMENT_KEYWORDS:
            continue
        if not void_cast:
            depth = 0
            has_assign = False
            for tok in body:
                if tok.text == "(":
                    depth += 1
                elif tok.text == ")":
                    depth -= 1
                elif depth == 0 and tok.text in ASSIGN_OPS | {"++", "--"}:
                    has_assign = True
                    break
            if has_assign or body[-1].text != ")":
                continue
            if is_declaration(body):
                continue
        name = call_name(body)
        if name is None or name not in status_names:
            continue
        span = range(stmt[0].line, stmt[-1].line + 1)
        if any("C1" in waivers.get(ln, {}) for ln in span):
            continue
        if void_cast:
            yield Finding(
                rel, body[0].line, "C1",
                f"(void)-discarded Status from {name}() without the waiver "
                f"comment; write `// srcheck: allow(C1) <reason>` on the "
                f"call line")
        else:
            yield Finding(
                rel, body[0].line, "C1",
                f"discarded Status from {name}(); handle the error or "
                f"(void)-waive it with `// srcheck: allow(C1) <reason>`")


# ---------------------------------------------------------------------------
# C2 — pin-lifetime escapes (textual engine).

TYPE_KEYWORDS = {"const", "int", "char", "unsigned", "signed", "long",
                 "short", "float", "double", "void", "auto", "size_t",
                 "uint8_t", "uint16_t", "uint32_t", "uint64_t", "int32_t",
                 "int64_t", "bool", "PageId", "IoStatsDelta"}


class _Tracked(NamedTuple):
    name: str
    depth: int
    line: int
    kind: str  # "pin" or "ptr"


def _looks_like_param_list(tokens: list[Token], open_idx: int) -> bool:
    depth = 0
    prev_id = None
    saw_any = False
    for tok in tokens[open_idx:]:
        if tok.text == "(":
            depth += 1
            continue
        if tok.text == ")":
            depth -= 1
            if depth == 0:
                # `()` is a function declarator (even as an initializer it
                # is the most-vexing-parse function declaration).
                return not saw_any
            continue
        saw_any = True
        if depth == 1:
            if tok.text in TYPE_KEYWORDS or tok.text == "&&":
                return True
            if tok.text in ("*", "&") and prev_id:
                return True  # "Type*" / "Type&" reference parameter
            if re.match(r"[A-Za-z_]\w*$", tok.text):
                if prev_id:
                    return True  # "Type name" pair
                prev_id = tok.text
            else:
                prev_id = None
    return False


def check_c2(rel: str, tokens: list[Token],
             waivers: dict[int, dict[str, str]]) -> Iterable[Finding]:
    if rel in C2_ALLOWED_FILES:
        return
    depth = 0
    tracked: list[_Tracked] = []
    i = 0
    n = len(tokens)

    def live_names() -> dict[str, str]:
        return {t.name: t.kind for t in tracked}

    def match_brace(start: int) -> int:
        d = 0
        for j in range(start, n):
            if tokens[j].text == "{":
                d += 1
            elif tokens[j].text == "}":
                d -= 1
                if d == 0:
                    return j
        return n - 1

    def match_paren(start: int) -> int:
        d = 0
        for j in range(start, n):
            if tokens[j].text == "(":
                d += 1
            elif tokens[j].text == ")":
                d -= 1
                if d == 0:
                    return j
        return n - 1

    findings: list[Finding] = []
    while i < n:
        tok = tokens[i]
        if tok.text == "{":
            depth += 1
        elif tok.text == "}":
            depth -= 1
            tracked = [t for t in tracked if t.depth <= depth]
        elif tok.text in PIN_TYPES:
            # `PageGuard pin(...)` / `PageGuard g = ...` declarations; skip
            # function declarations returning a guard.
            j = i + 1
            while j < n and tokens[j].text in ("&", "&&", "*"):
                j += 1
            if j < n and re.match(r"[A-Za-z_]\w*$", tokens[j].text) and \
                    tokens[j].text not in STATEMENT_KEYWORDS:
                nxt = tokens[j + 1].text if j + 1 < n else ""
                is_fn = nxt == "(" and _looks_like_param_list(tokens, j + 1)
                if nxt in ("=", ";", "(", "{") and not is_fn:
                    tracked.append(_Tracked(tokens[j].text, depth,
                                            tokens[j].line, "pin"))
        elif tok.text == "auto":
            # `auto g = <expr>.Pin(...)` / `= pin.data()` declarations.
            j = i + 1
            while j < n and tokens[j].text in ("&", "&&", "*", "const"):
                j += 1
            if j + 1 < n and re.match(r"[A-Za-z_]\w*$", tokens[j].text) and \
                    tokens[j + 1].text == "=":
                k = j + 2
                rhs = []
                while k < n and tokens[k].text != ";":
                    rhs.append(tokens[k].text)
                    k += 1
                rhs_s = " ".join(rhs)
                if re.search(r"(\.|->) Pin \(", rhs_s):
                    tracked.append(_Tracked(tokens[j].text, depth,
                                            tokens[j].line, "pin"))
                elif any(re.search(rf"\b{t.name} (\.|->) data \(", rhs_s)
                         for t in tracked):
                    tracked.append(_Tracked(tokens[j].text, depth,
                                            tokens[j].line, "ptr"))
        elif tok.text == "data" and i >= 2 and \
                tokens[i - 1].text in (".", "->") and \
                tokens[i - 2].text in live_names():
            # Pointer derived from a live pin: find what it is bound to by
            # looking backwards for `name =` on the same statement.
            j = i - 3
            while j >= 0 and tokens[j].text not in (";", "{", "}"):
                if tokens[j].text == "=" and j >= 1 and \
                        re.match(r"[A-Za-z_]\w*$", tokens[j - 1].text):
                    target = tokens[j - 1].text
                    this_member = (j >= 3 and tokens[j - 2].text == "->" and
                                   tokens[j - 3].text == "this")
                    member_store = target.endswith("_") or this_member
                    preceded = (j >= 2 and
                                tokens[j - 2].text in (".", "->") and
                                not this_member)
                    if member_store and not preceded:
                        if "C2" not in waivers.get(tok.line, {}):
                            findings.append(Finding(
                                rel, tok.line, "C2",
                                f"page pointer from {tokens[i-2].text}."
                                f"data() stored into member '{target}', "
                                f"outliving the pin"))
                    elif not preceded:
                        tracked.append(_Tracked(target, depth, tok.line,
                                                "ptr"))
                    break
                j -= 1
        elif tok.text == "return":
            j = i + 1
            names = live_names()
            while j < n and tokens[j].text != ";":
                t = tokens[j]
                is_data_on_pin = (
                    t.text == "data" and j >= 2 and
                    tokens[j - 1].text in (".", "->") and
                    names.get(tokens[j - 2].text) == "pin")
                is_derived = names.get(t.text) == "ptr"
                if is_data_on_pin or is_derived:
                    if "C2" not in waivers.get(t.line, {}):
                        findings.append(Finding(
                            rel, t.line, "C2",
                            "returning a page pointer derived from a "
                            "pinned frame; the pin dies with this scope"))
                    break
                j += 1
            while j < n and tokens[j].text != ";":
                j += 1
            i = j
        elif tok.text == "[" and (
                i == 0 or tokens[i - 1].text in
                ("=", "(", ",", "return", "{", ";", "&&", "||", "!", ":")):
            # Lambda introducer. Flag captures/uses of pin-derived state in
            # a lambda that is not invoked immediately.
            close = None
            d = 0
            for j in range(i, n):
                if tokens[j].text == "[":
                    d += 1
                elif tokens[j].text == "]":
                    d -= 1
                    if d == 0:
                        close = j
                        break
            if close is not None:
                j = close + 1
                if j < n and tokens[j].text == "(":
                    j = match_paren(j) + 1
                while j < n and tokens[j].text not in ("{", ";", ")", ","):
                    j += 1
                if j < n and tokens[j].text == "{":
                    body_end = match_brace(j)
                    names = live_names()
                    used = [tokens[k].text for k in range(i, body_end + 1)
                            if tokens[k].text in names]
                    invoked = (body_end + 1 < n and
                               tokens[body_end + 1].text == "(")
                    if used and not invoked:
                        if "C2" not in waivers.get(tok.line, {}):
                            findings.append(Finding(
                                rel, tok.line, "C2",
                                f"lambda captures pin-derived state "
                                f"('{used[0]}') and may outlive the pin; "
                                f"invoke it in place or copy the bytes"))
                    if used:
                        i = body_end
        elif tok.text in ASSIGN_OPS and i >= 1:
            # `member_ = derived;` / `member_ = std::move(guard);`
            lhs = tokens[i - 1].text
            this_member = (i >= 3 and tokens[i - 2].text == "->" and
                           tokens[i - 3].text == "this")
            preceded = (i >= 2 and tokens[i - 2].text in (".", "->") and
                        not this_member)
            if re.match(r"[A-Za-z_]\w*$", lhs) and \
                    (lhs.endswith("_") or this_member) and not preceded:
                names = live_names()
                j = i + 1
                while j < n and tokens[j].text != ";":
                    if tokens[j].text in names:
                        if "C2" not in waivers.get(tokens[j].line, {}):
                            findings.append(Finding(
                                rel, tokens[j].line, "C2",
                                f"pin-derived '{tokens[j].text}' stored "
                                f"into member '{lhs}', outliving the pin's "
                                f"scope"))
                        break
                    j += 1
        i += 1
    yield from findings


# ---------------------------------------------------------------------------
# C5 — epoch/snapshot lifetime escapes (textual engine).
#
# Tracked kinds:
#   guard  an EpochGuard object; must not be captured by an escaping lambda
#   view   a non-owning snapshot value/reference (PageFile::Snapshot,
#          PinnedSnapshot&, a raw IndexSnapshot*...) — dies with the guard
#   owner  unique_ptr/shared_ptr<...Snapshot...> — owns its guard, may move
#   ptr    a raw pointer laundered out of an owner via .get() / &view, or
#          a raw page pointer bound from snap.ReadInPlace(...) or
#          file.StageWrite(id)

def _c5_decl_kind(texts_before: list[str], type_tok: str) -> str:
    """Classify a snapshot-type declaration as owner or view from the
    tokens earlier in the same statement (smart-pointer wrapper => owner)."""
    for t in reversed(texts_before):
        if t in (";", "{", "}",):
            break
        if t in C5_OWNER_MARKERS:
            return "owner"
    del type_tok
    return "view"


def check_c5(rel: str, tokens: list[Token],
             waivers: dict[int, dict[str, str]]) -> Iterable[Finding]:
    if rel in C5_ALLOWED_FILES:
        return
    depth = 0
    tracked: list[_Tracked] = []
    i = 0
    n = len(tokens)

    def kinds() -> dict[str, str]:
        return {t.name: t.kind for t in tracked}

    def match_brace(start: int) -> int:
        d = 0
        for j in range(start, n):
            if tokens[j].text == "{":
                d += 1
            elif tokens[j].text == "}":
                d -= 1
                if d == 0:
                    return j
        return n - 1

    def match_paren(start: int) -> int:
        d = 0
        for j in range(start, n):
            if tokens[j].text == "(":
                d += 1
            elif tokens[j].text == ")":
                d -= 1
                if d == 0:
                    return j
        return n - 1

    def stmt_start(idx: int) -> int:
        j = idx - 1
        while j >= 0 and tokens[j].text not in (";", "{", "}"):
            j -= 1
        return j + 1

    findings: list[Finding] = []
    paren = 0
    while i < n:
        tok = tokens[i]
        if tok.text == "(":
            paren += 1
        elif tok.text == ")":
            paren = max(0, paren - 1)
        elif tok.text == "{":
            depth += 1
        elif tok.text == "}":
            depth -= 1
            tracked = [t for t in tracked if t.depth <= depth]
        elif paren == 0 and (tok.text in C5_GUARD_TYPES or
                             tok.text in C5_VIEW_TYPES):
            # `EpochGuard guard(...)` / `PageFile::Snapshot snap = ...` /
            # `const IndexSnapshot* p = ...` declarations at statement
            # scope. Parameters (inside parens) and function declarators
            # are excluded.
            is_guard = tok.text in C5_GUARD_TYPES
            j = i + 1
            while j < n and tokens[j].text in ("&", "&&", "*", ">", "const"):
                j += 1
            if j < n and re.match(r"[A-Za-z_]\w*$", tokens[j].text) and \
                    tokens[j].text not in STATEMENT_KEYWORDS:
                nxt = tokens[j + 1].text if j + 1 < n else ""
                is_fn = nxt == "(" and _looks_like_param_list(tokens, j + 1)
                if nxt in ("=", ";", "(", "{") and not is_fn:
                    before = [t.text for t in tokens[stmt_start(i):i]]
                    kind = "guard" if is_guard else \
                        _c5_decl_kind(before, tok.text)
                    tracked.append(_Tracked(tokens[j].text, depth,
                                            tokens[j].line, kind))
        elif tok.text == "auto":
            # `auto snap = x.AcquireSnapshot(guard);` (view — the overload
            # taking a guard returns a non-owning PageFile::Snapshot),
            # `auto snap = index->AcquireSnapshot();` (owner — returns a
            # unique_ptr), `auto p = owner.get();` (laundered raw pointer).
            j = i + 1
            while j < n and tokens[j].text in ("&", "&&", "*", "const"):
                j += 1
            if j + 1 < n and re.match(r"[A-Za-z_]\w*$", tokens[j].text) and \
                    tokens[j + 1].text == "=":
                k = j + 2
                rhs = []
                while k < n and tokens[k].text != ";":
                    rhs.append(tokens[k].text)
                    k += 1
                rhs_s = " ".join(rhs)
                m = re.search(r"AcquireSnapshot \( (\))?", rhs_s)
                if m:
                    kind = "owner" if m.group(1) else "view"
                    tracked.append(_Tracked(tokens[j].text, depth,
                                            tokens[j].line, kind))
                elif any(re.search(rf"\b{t.name} (\.|->) get \(", rhs_s)
                         for t in tracked if t.kind == "owner"):
                    tracked.append(_Tracked(tokens[j].text, depth,
                                            tokens[j].line, "ptr"))
        elif tok.text == "return":
            names = kinds()
            j = i + 1
            expr = []
            while j < n and tokens[j].text != ";":
                expr.append(tokens[j])
                j += 1
            leak = None
            if len(expr) == 1 and names.get(expr[0].text) in \
                    ("view", "ptr"):
                leak = expr[0]
            elif (len(expr) == 2 and expr[0].text == "&" and
                  names.get(expr[1].text) in ("view", "owner")):
                leak = expr[1]
            elif (len(expr) >= 4 and
                  names.get(expr[0].text) in ("view", "owner") and
                  expr[1].text in (".", "->") and expr[2].text == "get"):
                leak = expr[0]
            else:
                for k, t in enumerate(expr):
                    if names.get(t.text) == "ptr" or (
                            t.text in C5_PAGE_POINTER_CALLS and k >= 1 and
                            expr[k - 1].text in (".", "->")):
                        leak = t
                        break
            if leak is not None and "C5" not in waivers.get(leak.line, {}):
                findings.append(Finding(
                    rel, leak.line, "C5",
                    f"returning snapshot view '{leak.text}' that dies with "
                    f"its epoch guard at end of scope; return the owning "
                    f"handle (unique_ptr/shared_ptr) instead"))
            i = j
        elif tok.text in C5_PAGE_POINTER_CALLS and i >= 1 and \
                tokens[i - 1].text in (".", "->"):
            # `const char* page = snap.ReadInPlace(...)` /
            # `char* page = file_.StageWrite(id)`: find what the pointer is
            # bound to by looking backwards for `name =` on the same
            # statement. A member target outlives the page; a local one is
            # tracked like any other view.
            j = i - 2
            while j >= 0 and tokens[j].text not in (";", "{", "}"):
                if tokens[j].text == "=" and j >= 1 and \
                        re.match(r"[A-Za-z_]\w*$", tokens[j - 1].text):
                    target = tokens[j - 1].text
                    this_member = (j >= 3 and tokens[j - 2].text == "->" and
                                   tokens[j - 3].text == "this")
                    preceded = (j >= 2 and
                                tokens[j - 2].text in (".", "->") and
                                not this_member)
                    if (target.endswith("_") or this_member) and \
                            not preceded:
                        if "C5" not in waivers.get(tok.line, {}):
                            findings.append(Finding(
                                rel, tok.line, "C5",
                                f"raw page pointer from {tok.text}() "
                                f"stored into member '{target}', outliving "
                                f"the page it points into; copy the bytes "
                                f"instead"))
                    elif not preceded:
                        tracked.append(_Tracked(target, depth, tok.line,
                                                "ptr"))
                    break
                j -= 1
        elif tok.text == "[" and (
                i == 0 or tokens[i - 1].text in
                ("=", "(", ",", "return", "{", ";", "&&", "||", "!", ":")):
            # Lambda introducer: capturing a guard or view in a lambda that
            # is not invoked on the spot defers the use past the scope.
            close = None
            d = 0
            for j in range(i, n):
                if tokens[j].text == "[":
                    d += 1
                elif tokens[j].text == "]":
                    d -= 1
                    if d == 0:
                        close = j
                        break
            if close is not None:
                j = close + 1
                if j < n and tokens[j].text == "(":
                    j = match_paren(j) + 1
                while j < n and tokens[j].text not in ("{", ";", ")", ","):
                    j += 1
                if j < n and tokens[j].text == "{":
                    body_end = match_brace(j)
                    names = {t.name for t in tracked
                             if t.kind in ("guard", "view", "ptr")}
                    used = [tokens[k].text for k in range(i, body_end + 1)
                            if tokens[k].text in names]
                    invoked = (body_end + 1 < n and
                               tokens[body_end + 1].text == "(")
                    if used and not invoked:
                        if "C5" not in waivers.get(tok.line, {}):
                            findings.append(Finding(
                                rel, tok.line, "C5",
                                f"lambda captures epoch-scoped state "
                                f"('{used[0]}') and may outlive the guard; "
                                f"invoke it in place or hand it an owning "
                                f"snapshot handle"))
                    if used:
                        i = body_end
        elif tok.text in ASSIGN_OPS and i >= 1:
            # `member_ = view;` / `member_ = owner.get();` / `m_ = &view;`
            lhs = tokens[i - 1].text
            this_member = (i >= 3 and tokens[i - 2].text == "->" and
                           tokens[i - 3].text == "this")
            preceded = (i >= 2 and tokens[i - 2].text in (".", "->") and
                        not this_member)
            if re.match(r"[A-Za-z_]\w*$", lhs) and \
                    (lhs.endswith("_") or this_member) and not preceded:
                names = kinds()
                j = i + 1
                leak = None
                while j < n and tokens[j].text != ";":
                    t = tokens[j]
                    k = names.get(t.text)
                    if k in ("view", "ptr"):
                        leak = t
                        break
                    if k == "owner":
                        nxt2 = [tokens[j + 1].text if j + 1 < n else "",
                                tokens[j + 2].text if j + 2 < n else ""]
                        if nxt2[0] in (".", "->") and nxt2[1] == "get":
                            leak = t
                            break
                        if j >= 1 and tokens[j - 1].text == "&":
                            leak = t
                            break
                        # plain owner copy/move keeps the guard alive: ok
                    j += 1
                if leak is not None and \
                        "C5" not in waivers.get(leak.line, {}):
                    findings.append(Finding(
                        rel, leak.line, "C5",
                        f"epoch-scoped snapshot '{leak.text}' stored into "
                        f"member '{lhs}', outliving its guard; store an "
                        f"owning handle (shared_ptr) instead"))
        i += 1
    yield from findings


# ---------------------------------------------------------------------------
# C3 — narrowing-free serialization.

def storage_sources_from_cmake(cmake_text: str) -> list[str]:
    return re.findall(r"\bstorage/\w+\.cc\b", cmake_text)


def check_c3_wiring(root: pathlib.Path,
                    build_dir: pathlib.Path | None) -> Iterable[Finding]:
    cml = root / "src" / "CMakeLists.txt"
    if not cml.is_file():
        return
    text = cml.read_text(encoding="utf-8")
    sources = set(storage_sources_from_cmake(
        text.split("set_source_files_properties", 1)[0]))
    block = ""
    m = re.search(r"set_source_files_properties\((.*?)\)\s*$", text,
                  re.DOTALL | re.MULTILINE)
    if m:
        block = m.group(0)
    flagged = set(storage_sources_from_cmake(block))
    has_flags = ("-Werror=conversion" in block and
                 "-Werror=sign-conversion" in block)
    lineno = text[:m.start()].count("\n") + 1 if m else 1
    for src in sorted(sources - flagged) if has_flags else sorted(sources):
        yield Finding(
            "src/CMakeLists.txt", lineno, "C3",
            f"{src} does not compile with -Werror=conversion "
            f"-Werror=sign-conversion; the storage codec must reject "
            f"implicit narrowing (scope it in set_source_files_properties)")
    # Double-check the configured build agrees (catches a stale cache or a
    # generator that dropped the per-source options).
    db = (build_dir or root / "build") / "compile_commands.json"
    if db.is_file():
        try:
            entries = json.loads(db.read_text(encoding="utf-8"))
        except ValueError:
            return
        for entry in entries:
            f = entry.get("file", "")
            if "/src/storage/" not in f.replace("\\", "/"):
                continue
            cmd = entry.get("command", "") or " ".join(
                entry.get("arguments", []))
            if "-Wconversion" not in cmd:
                rel = "src/storage/" + f.replace("\\", "/").rsplit(
                    "/src/storage/", 1)[1]
                yield Finding(
                    rel, 1, "C3",
                    "configured build compiles this storage TU without "
                    "-Wconversion; re-run cmake so the scoped options take "
                    "effect")


def check_c3_file(rel: str, tokens: list[Token],
                  waivers: dict[int, dict[str, str]]) -> Iterable[Finding]:
    if "src/storage/" not in ("/" + rel):
        return
    wide_locals: set[str] = set()
    for stmt in statements(tokens):
        texts = [t.text for t in stmt]
        # Track locals of wide integer types.
        for w in WIDE_TYPES:
            if w in texts:
                k = texts.index(w)
                if k + 1 < len(texts) and \
                        re.match(r"[A-Za-z_]\w*$", texts[k + 1]):
                    wide_locals.add(texts[k + 1])
        # `narrow x = <wide expr>;` without a static_cast.
        if len(texts) < 4 or texts[0] not in NARROW_TYPES:
            continue
        if "=" not in texts or "static_cast" in texts:
            continue
        eq = texts.index("=")
        if eq < 1 or not re.match(r"[A-Za-z_]\w*$", texts[eq - 1]):
            continue
        # "unsigned long"/"long long"/wide typedefs in the declared type
        # make the destination wide — not a narrowing.
        if any(t in WIDE_TYPES or t in ("long", "double", "float")
               for t in texts[:eq - 1]):
            continue
        rhs = texts[eq + 1:]
        rhs_s = " ".join(rhs)
        is_wide = (re.search(r"\. size \( \)", rhs_s) or
                   re.search(r"\. length \( \)", rhs_s) or
                   "sizeof" in rhs or
                   any(x in wide_locals for x in rhs))
        if is_wide:
            line = stmt[0].line
            if "C3" not in waivers.get(line, {}):
                yield Finding(
                    rel, line, "C3",
                    f"implicit narrowing of a size/64-bit expression into "
                    f"{texts[0]}; spell the truncation with "
                    f"static_cast<{texts[0]}>(...) after a bounds check")


# ---------------------------------------------------------------------------
# C4 — GUARDED_BY completeness.

class _Demand(NamedTuple):
    rel: str
    lineno: int
    member: str
    mutex: str


def c4_demands(rel: str, tokens: list[Token]) -> Iterable[_Demand]:
    depth = 0
    locks: list[tuple[str, int]] = []  # (mutex, depth at decl)
    n = len(tokens)
    i = 0
    while i < n:
        tok = tokens[i]
        if tok.text == "{":
            depth += 1
        elif tok.text == "}":
            depth -= 1
            locks = [lk for lk in locks if lk[1] <= depth]
        elif tok.text == "MutexLock":
            # Only the canonical `MutexLock <var>(<mu-expr>);` acquires a
            # region. Ctor declarations (`explicit MutexLock(Mutex& mu)`),
            # the class definition, and MutexLock-typed parameters all lack
            # the <identifier>( shape right after the type name.
            if i + 3 < n and re.match(r"[A-Za-z_]\w*$", tokens[i + 1].text) \
                    and tokens[i + 1].text not in STATEMENT_KEYWORDS \
                    and tokens[i + 2].text == "(" \
                    and tokens[i + 3].text != ")":
                d = 0
                mu = None
                for k in range(i + 2, n):
                    t = tokens[k].text
                    if t == "(":
                        d += 1
                    elif t == ")":
                        d -= 1
                        if d == 0:
                            break
                    elif t == "," and d == 1:
                        break
                    elif re.match(r"[A-Za-z_]\w*$", t):
                        mu = t
                if mu:
                    locks.append((mu, depth))
        elif locks and re.match(r"[A-Za-z_]\w*$", tok.text) and \
                tok.text.endswith("_"):
            prev = tokens[i - 1].text if i >= 1 else ""
            this_member = (prev == "->" and i >= 2 and
                           tokens[i - 2].text == "this")
            if prev in (".", "->") and not this_member:
                i += 1
                continue
            # Skip subscripts to find the operator applied to the member.
            j = i + 1
            while j < n and tokens[j].text == "[":
                d = 0
                while j < n:
                    if tokens[j].text == "[":
                        d += 1
                    elif tokens[j].text == "]":
                        d -= 1
                        if d == 0:
                            break
                    j += 1
                j += 1
            nxt = tokens[j].text if j < n else ""
            is_write = (nxt in ASSIGN_OPS or nxt in ("++", "--") or
                        prev in ("++", "--"))
            if not is_write and nxt in (".", "->") and j + 2 < n and \
                    tokens[j + 1].text in MUTATING_METHODS and \
                    tokens[j + 2].text == "(":
                is_write = True
            if is_write:
                yield _Demand(rel, tok.line, tok.text, locks[-1][0])
        i += 1


def _norm_mutex(expr: str) -> str:
    return expr.strip().split(".")[-1].split("->")[-1].strip()


def c4_lookup_guard(member: str, decl_texts: list[str]) -> str | None:
    """Returns the guarding mutex, "" if declared unguarded, None if the
    declaration is not visible."""
    guard_re = re.compile(
        rf"\b{re.escape(member)}\b\s*(?:\[[^\]]*\])?\s+GUARDED_BY\s*"
        rf"\(([^)]*)\)")
    decl_re = re.compile(
        rf"^\s*(?!(?:return|delete|throw|new|else|case|goto|co_return)\b)"
        rf"(?:mutable\s+)?[A-Za-z_][\w:<>,\s*&\.]*[\s*&]"
        rf"{re.escape(member)}\s*(?:\[[^\]]*\])?\s*(?:=[^=]|;|\{{)",
        re.MULTILINE)
    # An annotated declaration anywhere beats an unannotated decl-looking
    # line elsewhere (e.g. `stats = member_;` statements in the .cc).
    for text in decl_texts:
        m = guard_re.search(text)
        if m:
            return _norm_mutex(m.group(1))
    for text in decl_texts:
        if decl_re.search(text):
            return ""
    return None


def check_c4(root: pathlib.Path, files: list[str],
             stripped_by_rel: dict[str, str],
             tokens_by_rel: dict[str, list[Token]],
             waivers_by_rel: dict[str, dict[int, dict[str, str]]],
             ) -> Iterable[Finding]:
    used_waivers: set[str] = set()
    for rel in files:
        for demand in c4_demands(rel, tokens_by_rel[rel]):
            if "C4" in waivers_by_rel[rel].get(demand.lineno, {}):
                continue
            key = f"{rel}::{demand.member}"
            if key in C4_STATIC_WAIVERS:
                used_waivers.add(key)
                continue
            # Declaration search: same file, then sibling headers.
            rel_path = pathlib.PurePosixPath(rel)
            candidates = [rel]
            sibling = str(rel_path.with_suffix(".h"))
            if sibling != rel and sibling in stripped_by_rel:
                candidates.append(sibling)
            for other in files:
                if other not in candidates and \
                        str(pathlib.PurePosixPath(other).parent) == \
                        str(rel_path.parent) and other.endswith(".h"):
                    candidates.append(other)
            guard = c4_lookup_guard(
                demand.member, [stripped_by_rel[c] for c in candidates])
            if guard is None:
                continue  # declaration not visible — out of heuristic reach
            if guard == "":
                yield Finding(
                    rel, demand.lineno, "C4",
                    f"'{demand.member}' is written under MutexLock("
                    f"{demand.mutex}) but its declaration has no "
                    f"GUARDED_BY({demand.mutex}) annotation")
            elif guard != _norm_mutex(demand.mutex):
                yield Finding(
                    rel, demand.lineno, "C4",
                    f"'{demand.member}' is written under MutexLock("
                    f"{demand.mutex}) but is GUARDED_BY({guard})")
    for key in sorted(set(C4_STATIC_WAIVERS) - used_waivers):
        yield Finding(
            "tools/srcheck.py", 1, "C4",
            f"stale C4 waiver '{key}': the member is no longer written "
            f"under a lock — delete the entry (the list must shrink)")


# ---------------------------------------------------------------------------
# Whole-program infrastructure shared by C6/C7: a token-level function
# segmenter (name, REQUIRES set, body span) and a body scanner that tracks
# the set of mutexes held (MutexLock scopes + REQUIRES preconditions) at
# every acquisition and call site. Functions are merged across translation
# units *by name* — the same approximation the codebase's single-namespace
# layout makes sound in practice, and the reason srcheck can see that
# `CommitState()` (declared REQUIRES(writer_mu_) in the header) satisfies
# C7 at its definition in the .cc.

FN_ANNOTATIONS = {
    "REQUIRES", "REQUIRES_SHARED", "EXCLUDES", "ACQUIRE", "ACQUIRE_SHARED",
    "RELEASE", "RELEASE_SHARED", "RELEASE_GENERIC", "TRY_ACQUIRE",
    "TRY_ACQUIRE_SHARED", "ASSERT_CAPABILITY", "ASSERT_SHARED_CAPABILITY",
    "RETURN_CAPABILITY", "NO_THREAD_SAFETY_ANALYSIS",
}

IDENT_RE = re.compile(r"[A-Za-z_]\w*$")


class _Func(NamedTuple):
    rel: str
    name: str
    line: int
    requires: tuple[str, ...]
    body: tuple[int, int]  # token index range (start, end), exclusive


class _CallEvent(NamedTuple):
    callee: str
    held: tuple[str, ...]
    line: int


class _Acquire(NamedTuple):
    mutex: str
    held: tuple[str, ...]
    line: int


class _Program(NamedTuple):
    funcs: list[_Func]
    decl_requires: dict[str, set[str]]
    scans: list[tuple[_Func, list[_Acquire], list[_CallEvent]]]


def _match_fwd(tokens: list[Token], start: int, open_t: str,
               close_t: str) -> int:
    d = 0
    for j in range(start, len(tokens)):
        t = tokens[j].text
        if t == open_t:
            d += 1
        elif t == close_t:
            d -= 1
            if d == 0:
                return j
    return len(tokens) - 1


def _mutex_names(tokens: list[Token], start: int, end: int) -> list[str]:
    """Last identifier of each comma-separated group in tokens[start:end)
    (so `REQUIRES(writer_mu_)` -> writer_mu_, `shard.mu` -> mu). Negated
    capabilities (`!mu`) name what must NOT be held and are skipped."""
    names: list[str] = []
    group: list[str] = []
    d = 0
    for j in range(start, end):
        t = tokens[j].text
        if t in "([":
            d += 1
        elif t in ")]":
            d -= 1
        elif t == "," and d == 0:
            if "!" not in group:
                ids = [g for g in group if IDENT_RE.match(g)]
                if ids:
                    names.append(ids[-1])
            group = []
            continue
        group.append(t)
    if group and "!" not in group:
        ids = [g for g in group if IDENT_RE.match(g)]
        if ids:
            names.append(ids[-1])
    return names


def parse_functions(rel: str, tokens: list[Token]
                    ) -> tuple[list[_Func], dict[str, set[str]]]:
    """Segment a token stream into function definitions and collect the
    REQUIRES sets of function *declarations* (headers carry the annotation;
    definitions usually do not repeat it)."""
    funcs: list[_Func] = []
    decl_requires: dict[str, set[str]] = {}
    n = len(tokens)
    i = 0
    while i < n:
        tok = tokens[i]
        if not IDENT_RE.match(tok.text) or \
                tok.text in STATEMENT_KEYWORDS or \
                tok.text in FN_ANNOTATIONS or \
                i + 1 >= n or tokens[i + 1].text != "(":
            i += 1
            continue
        close = _match_fwd(tokens, i + 1, "(", ")")
        name = tok.text
        if i >= 1 and tokens[i - 1].text == "~":
            name = "~" + name
        j = close + 1
        requires: list[str] = []
        body_start = None
        is_decl = False
        while j < n:
            t = tokens[j].text
            if t in ("const", "noexcept", "override", "final", "mutable",
                     "&", "&&", "try"):
                j += 1
            elif t == "->":
                j += 1
                while j < n and tokens[j].text not in ("{", ";"):
                    j += 1
            elif t in FN_ANNOTATIONS:
                if j + 1 < n and tokens[j + 1].text == "(":
                    pc = _match_fwd(tokens, j + 1, "(", ")")
                    if t in ("REQUIRES", "REQUIRES_SHARED"):
                        requires.extend(_mutex_names(tokens, j + 2, pc))
                    j = pc + 1
                else:
                    j += 1
            elif t == "=":
                is_decl = True  # `= 0;` / `= default;` / `= delete;`
                break
            elif t == ":":
                # Constructor init list: scan for the body '{' (skipping
                # member brace-inits, whose '{' follows an identifier).
                j += 1
                d = 0
                while j < n:
                    tt = tokens[j].text
                    if tt == "(":
                        d += 1
                    elif tt == ")":
                        d -= 1
                    elif tt == "{" and d == 0:
                        prev = tokens[j - 1].text if j >= 1 else ""
                        if IDENT_RE.match(prev) or prev == ">":
                            j = _match_fwd(tokens, j, "{", "}") + 1
                            if j < n and tokens[j].text == ",":
                                j += 1
                            continue
                        body_start = j
                        break
                    elif tt == ";" and d == 0:
                        is_decl = True
                        break
                    j += 1
                break
            elif t == "{":
                body_start = j
                break
            elif t == ";":
                is_decl = True
                break
            else:
                break
        if body_start is not None:
            body_end = _match_fwd(tokens, body_start, "{", "}")
            funcs.append(_Func(rel, name, tok.line, tuple(requires),
                               (body_start + 1, body_end)))
            i = body_end
        elif is_decl and requires:
            decl_requires.setdefault(name, set()).update(requires)
            i = j
        else:
            i = close
        i += 1
    return funcs, decl_requires


def scan_body(tokens: list[Token], span: tuple[int, int],
              requires: Iterable[str]
              ) -> tuple[list[_Acquire], list[_CallEvent]]:
    start, end = span
    held: list[tuple[str, int]] = [(m, -1) for m in sorted(set(requires))]
    depth = 0
    acquires: list[_Acquire] = []
    calls: list[_CallEvent] = []
    i = start
    while i < end:
        t = tokens[i].text
        if t == "{":
            depth += 1
        elif t == "}":
            depth -= 1
            held = [h for h in held if h[1] <= depth]
        elif t == "MutexLock":
            # Canonical `MutexLock <var>(<mu-expr>);` only (same shape
            # filter as C4).
            if i + 3 < end and IDENT_RE.match(tokens[i + 1].text) \
                    and tokens[i + 1].text not in STATEMENT_KEYWORDS \
                    and tokens[i + 2].text == "(" \
                    and tokens[i + 3].text != ")":
                close = _match_fwd(tokens, i + 2, "(", ")")
                names = _mutex_names(tokens, i + 3, close)
                if names:
                    mu = names[0]
                    acquires.append(_Acquire(
                        mu, tuple(h[0] for h in held), tokens[i].line))
                    held.append((mu, depth))
                i = close
        elif IDENT_RE.match(t) and t not in STATEMENT_KEYWORDS and \
                t != "MutexLock" and i + 1 < end and \
                tokens[i + 1].text == "(":
            calls.append(_CallEvent(t, tuple(h[0] for h in held),
                                    tokens[i].line))
        i += 1
    return acquires, calls


def parse_program(analysis: "Analysis") -> _Program:
    """Parse every src/ file (two passes: declarations' REQUIRES first,
    then body scans seeded with the merged REQUIRES sets)."""
    funcs: list[_Func] = []
    decl_requires: dict[str, set[str]] = {}
    for rel in analysis.files:
        if not rel.startswith("src/"):
            continue
        fs, dr = parse_functions(rel, analysis.tokens_by_rel[rel])
        funcs.extend(fs)
        for k, v in dr.items():
            decl_requires.setdefault(k, set()).update(v)
    scans = []
    for fn in funcs:
        req = set(fn.requires) | decl_requires.get(fn.name, set())
        acq, calls = scan_body(analysis.tokens_by_rel[fn.rel], fn.body, req)
        scans.append((fn, acq, calls))
    return _Program(funcs, decl_requires, scans)


def _transitive_acquires(program: _Program) -> dict[str, set[str]]:
    direct: dict[str, set[str]] = {}
    callees: dict[str, set[str]] = {}
    for fn, acq, calls in program.scans:
        direct.setdefault(fn.name, set()).update(a.mutex for a in acq)
        callees.setdefault(fn.name, set()).update(c.callee for c in calls)
    trans = {k: set(v) for k, v in direct.items()}
    changed = True
    while changed:
        changed = False
        for name, cs in callees.items():
            cur = trans.setdefault(name, set())
            for c in cs:
                extra = trans.get(c)
                if extra and not extra <= cur:
                    cur |= extra
                    changed = True
    return trans


# ---------------------------------------------------------------------------
# C6 — global lock-order graph.

def build_lock_graph(program: _Program) -> dict[tuple[str, str], set[str]]:
    """Edges (held, acquires) -> sites. Direct edges come from a MutexLock
    nested under held locks; interprocedural edges from a call, made while
    holding locks, to a function that (transitively) acquires. Same-name
    self-edges are suppressed: the by-name abstraction cannot tell two
    instances of `mu` apart, and the codebase's per-object locks make
    them overwhelmingly distinct objects."""
    trans = _transitive_acquires(program)
    edges: dict[tuple[str, str], set[str]] = {}
    for fn, acq, calls in program.scans:
        for a in acq:
            for h in a.held:
                if h != a.mutex:
                    edges.setdefault((h, a.mutex), set()).add(
                        f"{fn.rel}:{a.line}")
        for c in calls:
            if not c.held:
                continue
            for mu in sorted(trans.get(c.callee, ())):
                for h in c.held:
                    if h != mu:
                        edges.setdefault((h, mu), set()).add(
                            f"{fn.rel}:{c.line} (via {c.callee})")
    return edges


def lock_order_json(edges: dict[tuple[str, str], set[str]]) -> str:
    nodes = sorted({a for a, _ in edges} | {b for _, b in edges})
    payload = {
        "_comment": "Lock-acquisition order extracted by tools/srcheck.py "
                    "(rule C6). An edge means the 'held' mutex is held "
                    "while 'acquires' is taken at the listed sites. Do not "
                    "edit by hand; regenerate with "
                    "`tools/srcheck.py --emit-lock-order` whenever the "
                    "repo-wide run reports it stale.",
        "nodes": nodes,
        "edges": [
            {"held": a, "acquires": b, "sites": sorted(edges[(a, b)])}
            for a, b in sorted(edges)
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _sccs(nodes: list[str],
          adj: dict[str, set[str]]) -> list[list[str]]:
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    stack: list[str] = []
    on: set[str] = set()
    out: list[list[str]] = []
    counter = [0]

    def strong(v: str) -> None:
        index[v] = low[v] = counter[0]
        counter[0] += 1
        stack.append(v)
        on.add(v)
        for w in sorted(adj.get(v, ())):
            if w not in index:
                strong(w)
                low[v] = min(low[v], low[w])
            elif w in on:
                low[v] = min(low[v], index[w])
        if low[v] == index[v]:
            comp = []
            while True:
                w = stack.pop()
                on.discard(w)
                comp.append(w)
                if w == v:
                    break
            out.append(comp)

    for v in nodes:
        if v not in index:
            strong(v)
    return out


def _site_loc(site: str) -> tuple[str, int]:
    rel, _, rest = site.partition(":")
    return rel, int(rest.split()[0])


def check_c6(root: pathlib.Path, analysis: "Analysis", program: _Program,
             check_artifact: bool = True) -> Iterable[Finding]:
    edges = build_lock_graph(program)
    adj: dict[str, set[str]] = {}
    for a, b in edges:
        adj.setdefault(a, set()).add(b)
    nodes = sorted(adj.keys() | {b for _, b in edges})
    for comp in _sccs(nodes, adj):
        if len(comp) < 2:
            continue
        cyc = " -> ".join(sorted(comp))
        in_cycle = {e for e in edges if e[0] in comp and e[1] in comp}
        for a, b in sorted(in_cycle):
            for site in sorted(edges[(a, b)]):
                rel, lineno = _site_loc(site)
                if "C6" in analysis.waivers_by_rel.get(rel, {}).get(
                        lineno, {}):
                    continue
                yield Finding(
                    rel, lineno, "C6",
                    f"lock-order cycle ({cyc}): '{b}' is acquired here "
                    f"while '{a}' is held, but the reverse nesting also "
                    f"exists — a potential deadlock; pick one global "
                    f"order")
    if check_artifact:
        artifact = root / LOCK_ORDER_ARTIFACT
        want = lock_order_json(edges)
        if not artifact.is_file():
            yield Finding(
                LOCK_ORDER_ARTIFACT, 1, "C6",
                "lock-order artifact is missing; generate it with "
                "`tools/srcheck.py --emit-lock-order` and check it in")
        elif artifact.read_text(encoding="utf-8") != want:
            yield Finding(
                LOCK_ORDER_ARTIFACT, 1, "C6",
                "lock-order artifact is stale — the acquisition graph "
                "changed; regenerate with `tools/srcheck.py "
                "--emit-lock-order` so reviewers see the ordering diff")


# ---------------------------------------------------------------------------
# C7 — commit-protocol completeness.

def _c7_summaries(program: _Program) -> tuple[dict[str, bool],
                                              dict[str, bool]]:
    """(stages, resolves) per function name, transitively: does calling
    this function stage a write / publish-or-discard staged writes?"""
    stages: dict[str, bool] = {}
    resolves: dict[str, bool] = {}
    callees: dict[str, set[str]] = {}
    for fn, _, calls in program.scans:
        st = stages.setdefault(fn.name, False)
        rs = resolves.setdefault(fn.name, False)
        for c in calls:
            if c.callee == C7_STAGE_NAME:
                st = True
            if c.callee == C7_COMMIT_NAME or \
                    C7_DISCHARGE_RE.search(c.callee):
                rs = True
        stages[fn.name] = st
        resolves[fn.name] = rs
        callees.setdefault(fn.name, set()).update(c.callee for c in calls)
    changed = True
    while changed:
        changed = False
        for name, cs in callees.items():
            for c in cs:
                if stages.get(c) and not stages[name]:
                    stages[name] = True
                    changed = True
                if resolves.get(c) and not resolves[name]:
                    resolves[name] = True
                    changed = True
    return stages, resolves


def check_c7(analysis: "Analysis", program: _Program) -> Iterable[Finding]:
    stages, resolves = _c7_summaries(program)
    callers: dict[str, set[str]] = {}
    for fn, _, calls in program.scans:
        for c in calls:
            if c.callee != fn.name:
                callers.setdefault(c.callee, set()).add(fn.name)

    def waived(rel: str, line: int) -> bool:
        return "C7" in analysis.waivers_by_rel.get(rel, {}).get(line, {})

    seen_defs: set[str] = set()
    for fn, _, calls in program.scans:
        if fn.rel.startswith(C7_ALLOWED_PREFIX):
            continue  # the protocol's own implementation
        tokens = analysis.tokens_by_rel[fn.rel]

        # Root check: a function nobody (in src/) calls that stages but
        # never commits/discards leaks staged pages into the working state.
        if fn.name not in seen_defs and not callers.get(fn.name) and \
                stages.get(fn.name) and not resolves.get(fn.name):
            seen_defs.add(fn.name)
            site = next((c.line for c in calls
                         if c.callee == C7_STAGE_NAME or
                         stages.get(c.callee)), fn.line)
            if not waived(fn.rel, site):
                yield Finding(
                    fn.rel, site, "C7",
                    f"'{fn.name}' stages page writes (via "
                    f"{C7_STAGE_NAME}) but no path reaches Commit or a "
                    f"discard/rollback — staged pages would leak into the "
                    f"next commit")

        # Commit-under-writer_mu_: every direct Commit call needs the
        # writer capability (MutexLock in scope or REQUIRES precondition).
        for c in calls:
            if c.callee == C7_COMMIT_NAME and \
                    C7_WRITER_MUTEX not in c.held:
                if not waived(fn.rel, c.line):
                    yield Finding(
                        fn.rel, c.line, "C7",
                        f"Commit called without {C7_WRITER_MUTEX} held; "
                        f"publication must be serialized by the writer "
                        f"lock (MutexLock or REQUIRES"
                        f"({C7_WRITER_MUTEX}))")

        # Intra-path walk: once a path stages (directly or through a
        # helper), it must not return before a Commit/discard, and must
        # not commit twice without staging in between. Linear over the
        # body; exclusive branches are approximated by clearing the
        # "resolved" state at the enclosing brace boundary.
        has_stage = any(c.callee == C7_STAGE_NAME or stages.get(c.callee)
                        for c in calls)
        has_resolve = any(c.callee == C7_COMMIT_NAME or
                          C7_DISCHARGE_RE.search(c.callee) or
                          resolves.get(c.callee) for c in calls)
        if not (has_stage and has_resolve):
            continue
        start, end = fn.body
        depth = 0
        staged = False
        resolve_depth: int | None = None
        i = start
        while i < end:
            t = tokens[i].text
            if t == "{":
                depth += 1
            elif t == "}":
                depth -= 1
                if resolve_depth is not None and depth < resolve_depth:
                    resolve_depth = None
            elif IDENT_RE.match(t) and i + 1 < end and \
                    tokens[i + 1].text == "(":
                st = t == C7_STAGE_NAME or (
                    stages.get(t, False) and not resolves.get(t, False))
                rs = t == C7_COMMIT_NAME or \
                    bool(C7_DISCHARGE_RE.search(t)) or \
                    (resolves.get(t, False) and not stages.get(t, False))
                if st:
                    staged = True
                elif rs:
                    if t == C7_COMMIT_NAME and not staged and \
                            resolve_depth is not None and \
                            not waived(fn.rel, tokens[i].line):
                        yield Finding(
                            fn.rel, tokens[i].line, "C7",
                            "this path commits twice for one staged "
                            "mutation; each mutation publishes through "
                            "exactly one Commit")
                    staged = False
                    resolve_depth = depth
            elif t == "return" and staged:
                if not waived(fn.rel, tokens[i].line):
                    yield Finding(
                        fn.rel, tokens[i].line, "C7",
                        "returning with staged writes uncommitted; every "
                        "path from StageWrite must reach Commit or a "
                        "discard/rollback before control escapes")
                # Report once per path; fall through to keep scanning.
                staged = False
            i += 1
        if staged and not waived(fn.rel, tokens[end].line
                                 if end < len(tokens) else fn.line):
            yield Finding(
                fn.rel, tokens[end].line if end < len(tokens) else fn.line,
                "C7",
                f"'{fn.name}' can fall off the end with staged writes "
                f"uncommitted; finish the path with Commit or a "
                f"discard/rollback")


# ---------------------------------------------------------------------------
# C8 — guarded-coverage ratchet.

class _Member(NamedTuple):
    rel: str
    cls: str
    name: str
    line: int
    compliant: bool
    why: str


def parse_classes(rel: str, tokens: list[Token]
                  ) -> list[tuple[str, tuple[int, int], int, bool]]:
    """(name, body span, line, is_capability) for every class/struct
    definition in the stream (nested ones included as their own entries)."""
    out = []
    n = len(tokens)
    i = 0
    while i < n:
        t = tokens[i].text
        if t not in ("class", "struct") or \
                (i >= 1 and tokens[i - 1].text == "enum"):
            i += 1
            continue
        j = i + 1
        is_capability = False
        name = None
        while j < n:
            tt = tokens[j].text
            if tt in ("CAPABILITY", "SCOPED_CAPABILITY"):
                is_capability = True
                if j + 1 < n and tokens[j + 1].text == "(":
                    j = _match_fwd(tokens, j + 1, "(", ")") + 1
                else:
                    j += 1
            elif tt == "alignas" and j + 1 < n and \
                    tokens[j + 1].text == "(":
                j = _match_fwd(tokens, j + 1, "(", ")") + 1
            elif IDENT_RE.match(tt) and tt != "final":
                name = tt
                j += 1
            elif tt == "final":
                j += 1
            elif tt == ":":
                # base-class list: scan to the body '{'
                while j < n and tokens[j].text != "{":
                    j += 1
                break
            else:
                break
        if name is None or j >= n or tokens[j].text != "{":
            i += 1
            continue
        body_end = _match_fwd(tokens, j, "{", "}")
        out.append((name, (j + 1, body_end), tokens[i].line,
                    is_capability))
        i = j + 1  # descend into the body so nested classes are found
    return out


C8_MEMBER_SKIP = {"static", "using", "friend", "typedef", "template",
                  "enum", "class", "struct", "operator", "virtual",
                  "explicit", "public", "private", "protected"}
C8_ANNOT_MACROS = {"GUARDED_BY", "PT_GUARDED_BY", "UNGUARDED_OK",
                   "ACQUIRED_AFTER", "ACQUIRED_BEFORE"}


def _class_member_stmts(tokens: list[Token], span: tuple[int, int]
                        ) -> Iterable[list[Token]]:
    """Member-declaration statements at depth 0 of a class body (method
    bodies, nested classes, and brace initializers skipped over)."""
    start, end = span
    stmt: list[Token] = []
    i = start
    while i < end:
        t = tokens[i].text
        if t == "{":
            close = _match_fwd(tokens, i, "{", "}")
            if close + 1 < end and tokens[close + 1].text == ";":
                # brace initializer `x_{...};` or nested `class C {...};`
                if stmt:
                    yield stmt
                stmt = []
                i = close + 2
                continue
            stmt = []  # method definition body: not a member decl
            i = close + 1
            continue
        if t == ";":
            if stmt:
                yield stmt
            stmt = []
        elif t == ":" and stmt and \
                stmt[-1].text in ("public", "private", "protected"):
            stmt = []
        else:
            stmt.append(tokens[i])
        i += 1


def _strip_annotations(stmt: list[Token]) -> tuple[list[Token], set[str]]:
    """Remove `MACRO(...)` annotation groups; return (rest, macros seen)."""
    out: list[Token] = []
    seen: set[str] = set()
    i = 0
    n = len(stmt)
    while i < n:
        if stmt[i].text in C8_ANNOT_MACROS and i + 1 < n and \
                stmt[i + 1].text == "(":
            seen.add(stmt[i].text)
            close = _match_fwd(stmt, i + 1, "(", ")")
            i = close + 1
            continue
        out.append(stmt[i])
        i += 1
    return out, seen


class _DataMember(NamedTuple):
    decl: list[Token]       # type + declarator tokens (annotations gone)
    name_tok: Token
    type_texts: list[str]
    macros: set[str]


def _data_members(tokens: list[Token],
                  span: tuple[int, int]) -> list[_DataMember]:
    out: list[_DataMember] = []
    for stmt in _class_member_stmts(tokens, span):
        rest, macros = _strip_annotations(stmt)
        if not rest or rest[0].text in C8_MEMBER_SKIP:
            continue
        texts = [t.text for t in rest]
        if "operator" in texts:
            continue
        # A '(' in the stripped declaration (not behind '=') means a
        # function declarator, not a data member.
        eq = texts.index("=") if "=" in texts else len(texts)
        if "(" in texts[:eq]:
            continue
        decl = rest[:eq]
        # Array declarator: the name precedes the '['. Only brackets at
        # template-angle depth 0 count (`unique_ptr<char[]>` does not).
        angle = 0
        for k, t in enumerate(decl):
            if t.text == "<":
                angle += 1
            elif t.text == ">":
                angle = max(0, angle - 1)
            elif t.text == ">>":
                angle = max(0, angle - 2)
            elif t.text == "[" and angle == 0:
                decl = decl[:k]
                break
        ids = [t for t in decl if IDENT_RE.match(t.text) and
               t.text not in ("const", "mutable", "constexpr",
                              "volatile", "std")]
        if len(ids) < 2:
            continue  # need at least a type and a name
        name_tok = ids[-1]
        type_texts = [t.text for t in decl[:decl.index(name_tok)]]
        out.append(_DataMember(decl, name_tok, type_texts, macros))
    return out


def _owns_mutex(members: list[_DataMember]) -> bool:
    return any("Mutex" in m.type_texts for m in members)


def collect_members(rel: str, tokens: list[Token],
                    raw_lines: list[str],
                    sync_types: set[str]) -> list[_Member]:
    """Classify every data member of every mutex-owning class in `rel`."""
    members: list[_Member] = []
    for cls, span, _, _ in parse_classes(rel, tokens):
        data = _data_members(tokens, span)
        if not _owns_mutex(data):
            continue
        for m in data:
            name_tok, type_texts, macros = m.name_tok, m.type_texts, \
                m.macros
            compliant, why = True, ""
            if "GUARDED_BY" in macros or "PT_GUARDED_BY" in macros:
                why = "guarded"
            elif "UNGUARDED_OK" in macros:
                line_blob = " ".join(
                    raw_lines[max(0, name_tok.line - 1):
                              name_tok.line + 2])
                mm = re.search(r'UNGUARDED_OK\s*\(\s*"([^"]*)"', line_blob)
                if mm and mm.group(1).strip():
                    why = "unguarded-ok"
                else:
                    compliant = False
                    why = "UNGUARDED_OK without a non-empty contract string"
            elif "atomic" in type_texts:
                why = "atomic"
            elif "const" in [t.text for t in m.decl] or \
                    "constexpr" in [t.text for t in m.decl]:
                why = "const"
            elif "&" in type_texts:
                why = "reference"
            elif any(t in sync_types for t in type_texts):
                why = "sync-type"
            else:
                compliant = False
                why = "unguarded"
            members.append(_Member(rel, cls, name_tok.text, name_tok.line,
                                   compliant, why))
    return members


def c8_sync_types(analysis: "Analysis") -> set[str]:
    """Mutex/CondVar + CAPABILITY classes + mutex-owning classes (which
    police their own members and synchronize internally)."""
    sync = set(C8_SYNC_TYPES)
    for rel in analysis.files:
        if not rel.startswith("src/"):
            continue
        for cls, span, _, is_cap in parse_classes(
                rel, analysis.tokens_by_rel[rel]):
            if is_cap:
                sync.add(cls)
            elif _owns_mutex(_data_members(
                    analysis.tokens_by_rel[rel], span)):
                sync.add(cls)
    return sync


def load_c8_baseline(root: pathlib.Path) -> dict[str, str]:
    path = root / C8_BASELINE_FILE
    if not path.is_file():
        return {}
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
        entries = data.get("entries", {})
        return {str(k): str(v) for k, v in entries.items()}
    except ValueError:
        return {}


def check_c8(analysis: "Analysis", baseline: dict[str, str]
             ) -> Iterable[Finding]:
    sync = c8_sync_types(analysis)
    used: set[str] = set()
    for rel in analysis.files:
        if not rel.startswith("src/"):
            continue
        for m in collect_members(rel, analysis.tokens_by_rel[rel],
                                 analysis.raw_by_rel[rel], sync):
            key = f"{m.rel}::{m.cls}::{m.name}"
            if m.compliant:
                continue
            if "C8" in analysis.waivers_by_rel[rel].get(m.line, {}):
                continue
            if key in baseline:
                if any(rel.startswith(d) for d in C8_NO_BASELINE_DIRS):
                    yield Finding(
                        rel, m.line, "C8",
                        f"baseline entry '{key}' is banned under "
                        f"{'/'.join(C8_NO_BASELINE_DIRS)}: coverage there "
                        f"moves only through GUARDED_BY/atomic/"
                        f"UNGUARDED_OK annotations")
                else:
                    used.add(key)
                continue
            if m.why.startswith("UNGUARDED_OK"):
                yield Finding(rel, m.line, "C8",
                              f"member '{m.cls}::{m.name}': {m.why}")
            else:
                yield Finding(
                    rel, m.line, "C8",
                    f"mutable member '{m.name}' of mutex-owning class "
                    f"'{m.cls}' has no GUARDED_BY, is not atomic/const/"
                    f"internally-synchronized, and carries no "
                    f"UNGUARDED_OK(\"contract\") annotation")
    for key in sorted(set(baseline) - used):
        yield Finding(
            C8_BASELINE_FILE, 1, "C8",
            f"stale C8 baseline entry '{key}': the member is now "
            f"compliant or gone — delete the entry (the baseline only "
            f"shrinks)")


# ---------------------------------------------------------------------------
# Clang engine: precise C1/C2 on the real AST. Activated when python
# libclang is importable; C3/C4 stay token-grounded (see module docstring).

def load_libclang():
    try:
        from clang import cindex  # type: ignore
    except ImportError:
        return None
    try:
        cindex.Index.create()
        return cindex
    except Exception:  # library missing or version skew
        # CI pins python3-clang-18/libclang1-18 (see .github/workflows/
        # ci.yml); the older sonames keep local installs working.
        for name in ("libclang.so", "libclang-18.so", "libclang.so.18",
                     "libclang-18.so.18", "libclang-18.so.1",
                     "libclang-17.so", "libclang.so.17",
                     "libclang-16.so", "libclang.so.16",
                     "libclang-14.so", "libclang.so.14", "libclang-15.so"):
            try:
                cindex.Config.loaded = False
                cindex.Config.set_library_file(name)
                cindex.Index.create()
                return cindex
            except Exception:
                continue
    return None


def _canonical_status(type_obj) -> bool:
    s = type_obj.get_canonical().spelling
    s = s.replace("const", "").replace("&", "").strip()
    base = s.split("::")[-1]
    return base == "Status" or base.startswith("StatusOr<")


class ClangEngine:
    def __init__(self, cindex, root: pathlib.Path,
                 build_dir: pathlib.Path | None):
        self.cindex = cindex
        self.root = root.resolve()
        self.build_dir = build_dir
        self.index = cindex.Index.create()

    def _args_for(self, rel: str) -> list[str]:
        db_path = (self.build_dir or self.root / "build")
        db_file = db_path / "compile_commands.json"
        if db_file.is_file():
            try:
                db = self.cindex.CompilationDatabase.fromDirectory(
                    str(db_path))
                cmds = db.getCompileCommands(str(self.root / rel))
                if cmds:
                    args = list(cmds[0].arguments)[1:]
                    # Strip output/input and options clang rejects here.
                    cleaned, skip = [], False
                    for a in args:
                        if skip:
                            skip = False
                            continue
                        if a in ("-o", "-c"):
                            skip = a == "-o"
                            continue
                        if a == str(self.root / rel) or a.endswith(rel):
                            continue
                        cleaned.append(a)
                    return cleaned
            except Exception:
                pass
        return ["-std=c++20", "-x", "c++",
                f"-I{self.root}"]

    def parse(self, rel: str):
        path = str(self.root / rel)
        try:
            return self.index.parse(path, args=self._args_for(rel))
        except Exception:
            return None

    def check_file(self, rel: str, raw_lines: list[str],
                   waivers: dict[int, dict[str, str]],
                   status_names: set[str]) -> list[Finding] | None:
        del status_names  # the AST carries the real return types
        tu = self.parse(rel)
        if tu is None:
            return None
        ck = self.cindex.CursorKind
        findings: list[Finding] = []
        target = str((self.root / rel).resolve())

        def in_this_file(cursor) -> bool:
            loc = cursor.location
            return bool(loc.file) and str(
                pathlib.Path(loc.file.name).resolve()) == target

        def descendants(cursor):
            for child in cursor.get_children():
                yield child
                yield from descendants(child)

        def refs_any(cursor, names: set[str]) -> str | None:
            for d in descendants(cursor):
                if d.kind == ck.DECL_REF_EXPR and d.spelling in names:
                    return d.spelling
                if d.kind == ck.MEMBER_REF_EXPR and d.spelling == "data":
                    for dd in descendants(d):
                        if dd.kind == ck.DECL_REF_EXPR and \
                                dd.spelling in names:
                            return dd.spelling
            return None

        def add(line: int, rule: str, message: str):
            if rule in waivers.get(line, {}):
                return
            findings.append(Finding(rel, line, rule, message))

        def visit_compound(cursor):
            for child in cursor.get_children():
                k = child.kind
                if k == ck.CALL_EXPR and in_this_file(child) and \
                        child.type is not None and \
                        _canonical_status(child.type):
                    add(child.location.line, "C1",
                        f"discarded Status from {child.spelling or 'call'}"
                        f"(); handle the error or (void)-waive it with "
                        f"`// srcheck: allow(C1) <reason>`")
                elif k == ck.CSTYLE_CAST_EXPR and in_this_file(child):
                    for d in descendants(child):
                        if d.kind == ck.CALL_EXPR and d.type is not None \
                                and _canonical_status(d.type):
                            add(child.location.line, "C1",
                                f"(void)-discarded Status from "
                                f"{d.spelling or 'call'}() without the "
                                f"waiver comment; write `// srcheck: "
                                f"allow(C1) <reason>` on the call line")
                            break

        def visit_function(cursor):
            if rel in C2_ALLOWED_FILES:
                return
            pins: set[str] = set()
            derived: set[str] = set()
            for d in descendants(cursor):
                if d.kind == ck.VAR_DECL:
                    t = d.type.get_canonical().spelling
                    if any(p in t for p in PIN_TYPES):
                        pins.add(d.spelling)
                    elif pins and refs_any(d, pins):
                        if "*" in t or t == "auto":
                            derived.add(d.spelling)
            if not pins:
                return
            tracked = pins | derived
            for d in descendants(cursor):
                if not in_this_file(d):
                    continue
                if d.kind == ck.RETURN_STMT:
                    hit = refs_any(d, derived) or None
                    if hit is None:
                        for dd in descendants(d):
                            if dd.kind == ck.MEMBER_REF_EXPR and \
                                    dd.spelling == "data" and \
                                    refs_any(dd, pins):
                                hit = "data()"
                                break
                    if hit:
                        add(d.location.line, "C2",
                            "returning a page pointer derived from a "
                            "pinned frame; the pin dies with this scope")
                elif d.kind == ck.LAMBDA_EXPR:
                    hit = refs_any(d, tracked)
                    if hit:
                        add(d.location.line, "C2",
                            f"lambda captures pin-derived state ('{hit}') "
                            f"and may outlive the pin; invoke it in place "
                            f"or copy the bytes")
                elif d.kind == ck.BINARY_OPERATOR:
                    children = list(d.get_children())
                    if len(children) == 2 and \
                            children[0].kind == ck.MEMBER_REF_EXPR:
                        tokens = [t.spelling for t in d.get_tokens()]
                        if "=" in tokens:
                            hit = refs_any(children[1], tracked)
                            if hit:
                                add(d.location.line, "C2",
                                    f"pin-derived '{hit}' stored into "
                                    f"member '{children[0].spelling}', "
                                    f"outliving the pin's scope")

        def _unwrap(cursor):
            kids = list(cursor.get_children())
            while len(kids) == 1:
                cursor = kids[0]
                kids = list(cursor.get_children())
            return cursor

        def visit_function_c5(cursor):
            if rel in C5_ALLOWED_FILES:
                return
            guards: set[str] = set()
            views: set[str] = set()
            owners: set[str] = set()

            def zero_copy_read(cursor) -> str | None:
                """A snap.ReadInPlace(...) / file.StageWrite(id) call: a
                raw pointer into a page buffer (see C5_PAGE_POINTER_CALLS).
                Returns the call's name."""
                return next((d.spelling for d in descendants(cursor)
                             if d.kind == ck.MEMBER_REF_EXPR and
                             d.spelling in C5_PAGE_POINTER_CALLS), None)

            def this_member(cursor) -> bool:
                """A member of *this (implicit or explicit), not of some
                local object."""
                kids = list(cursor.get_children())
                return not kids or kids[0].kind == ck.CXX_THIS_EXPR

            for d in descendants(cursor):
                if d.kind != ck.VAR_DECL:
                    continue
                t = d.type.get_canonical().spelling
                snapshotish = ("Snapshot" in t or "VersionState" in t)
                if any(g in t for g in C5_GUARD_TYPES):
                    guards.add(d.spelling)
                elif snapshotish and any(o in t for o in C5_OWNER_MARKERS):
                    owners.add(d.spelling)
                elif snapshotish:
                    views.add(d.spelling)
                elif owners and "*" in t and refs_any(d, owners):
                    views.add(d.spelling)  # laundered raw pointer
                elif "*" in t and zero_copy_read(d):
                    views.add(d.spelling)  # zero-copy page pointer
            if not (guards or views or owners or zero_copy_read(cursor)):
                return
            escaping = guards | views

            def laundered(cursor) -> str | None:
                """A .get()/& that peels the raw pointer off an owner."""
                for d in descendants(cursor):
                    if d.kind == ck.MEMBER_REF_EXPR and \
                            d.spelling == "get":
                        for dd in descendants(d):
                            if dd.kind == ck.DECL_REF_EXPR and \
                                    dd.spelling in owners:
                                return dd.spelling
                    if d.kind == ck.UNARY_OPERATOR:
                        kids = list(d.get_children())
                        if kids:
                            hit = refs_any(kids[0], owners | views)
                            toks = [t.spelling for t in d.get_tokens()]
                            if hit and toks[:1] == ["&"]:
                                return hit
                return None

            for d in descendants(cursor):
                if not in_this_file(d):
                    continue
                if d.kind == ck.RETURN_STMT:
                    inner = _unwrap(d)
                    hit = None
                    if inner.kind == ck.DECL_REF_EXPR and \
                            inner.spelling in views:
                        hit = inner.spelling
                    elif zero_copy_read(d):
                        hit = zero_copy_read(d)
                    else:
                        hit = laundered(d)
                    if hit:
                        add(d.location.line, "C5",
                            f"returning snapshot view '{hit}' that dies "
                            f"with its epoch guard at end of scope; "
                            f"return the owning handle (unique_ptr/"
                            f"shared_ptr) instead")
                elif d.kind == ck.LAMBDA_EXPR:
                    hit = refs_any(d, escaping)
                    if hit:
                        add(d.location.line, "C5",
                            f"lambda captures epoch-scoped state "
                            f"('{hit}') and may outlive the guard; invoke "
                            f"it in place or hand it an owning snapshot "
                            f"handle")
                elif d.kind == ck.BINARY_OPERATOR:
                    children = list(d.get_children())
                    if len(children) == 2 and \
                            children[0].kind == ck.MEMBER_REF_EXPR:
                        toks = [t.spelling for t in d.get_tokens()]
                        if "=" in toks:
                            hit = refs_any(children[1], views) or \
                                laundered(children[1])
                            if not hit and this_member(children[0]):
                                hit = zero_copy_read(children[1])
                            if hit:
                                add(d.location.line, "C5",
                                    f"epoch-scoped snapshot '{hit}' "
                                    f"stored into member "
                                    f"'{children[0].spelling}', outliving "
                                    f"its guard; store an owning handle "
                                    f"(shared_ptr) instead")

        fn_kinds = {ck.FUNCTION_DECL, ck.CXX_METHOD, ck.CONSTRUCTOR,
                    ck.DESTRUCTOR, ck.FUNCTION_TEMPLATE}
        for cursor in descendants(tu.cursor):
            if not in_this_file(cursor):
                continue
            if cursor.kind == ck.COMPOUND_STMT:
                visit_compound(cursor)
            elif cursor.kind in fn_kinds and cursor.is_definition():
                visit_function(cursor)
                visit_function_c5(cursor)

        # The nodiscard anchor check stays textual (attributes are awkward
        # to read back through libclang).
        stripped = strip_comments_and_strings("\n".join(raw_lines))
        for lineno, line in enumerate(stripped.split("\n"), start=1):
            m = STATUS_CLASS_RE.match(line)
            if m and not NODISCARD_RE.search(line):
                add(lineno, "C1",
                    f"class {m.group(1)} is not [[nodiscard]]; the "
                    f"attribute is what makes every dropped error a "
                    f"compile error")
        return findings


# ---------------------------------------------------------------------------
# Discovery and driver (same shape as srlint).

def git_tracked(root: pathlib.Path) -> set[str]:
    try:
        out = subprocess.run(
            ["git", "ls-files", "--"] + [d for d in FIRST_PARTY_DIRS
                                         if (root / d).is_dir()],
            cwd=root, capture_output=True, text=True, check=True)
        return {line for line in out.stdout.splitlines()
                if line.endswith(SOURCE_SUFFIXES)}
    except (subprocess.CalledProcessError, FileNotFoundError):
        return set()


def walk_tree(root: pathlib.Path) -> set[str]:
    found = set()
    for d in FIRST_PARTY_DIRS:
        base = root / d
        if not base.is_dir():
            continue
        for p in base.rglob("*"):
            if p.suffix in SOURCE_SUFFIXES and p.is_file():
                found.add(p.relative_to(root).as_posix())
    return found


def discover(root: pathlib.Path) -> list[str]:
    files = git_tracked(root) or walk_tree(root)
    files = {f for f in files
             if not any(d in f for d in FIXTURE_DIRS)}
    return sorted(files)


class Analysis(NamedTuple):
    files: list[str]
    raw_by_rel: dict[str, list[str]]
    stripped_by_rel: dict[str, str]
    tokens_by_rel: dict[str, list[Token]]
    waivers_by_rel: dict[str, dict[int, dict[str, str]]]
    status_names: set[str]


def load_tree(root: pathlib.Path, files: list[str]) -> Analysis:
    raw_by_rel = {}
    stripped_by_rel = {}
    tokens_by_rel = {}
    waivers_by_rel = {}
    for rel in files:
        raw = (root / rel).read_text(encoding="utf-8", errors="replace")
        raw_by_rel[rel] = raw.splitlines()
        stripped = blank_preprocessor(strip_comments_and_strings(raw))
        stripped_by_rel[rel] = stripped
        tokens_by_rel[rel] = tokenize(stripped)
        waivers_by_rel[rel] = collect_waivers(raw_by_rel[rel])
    return Analysis(files, raw_by_rel, stripped_by_rel, tokens_by_rel,
                    waivers_by_rel, collect_status_fn_names(stripped_by_rel))


def run_checks(root: pathlib.Path, build_dir: pathlib.Path | None,
               analysis: Analysis, clang_engine: ClangEngine | None,
               wiring: bool = True) -> list[Finding]:
    findings: list[Finding] = []
    for rel in analysis.files:
        waivers = analysis.waivers_by_rel[rel]
        clang_done = False
        if clang_engine is not None:
            got = clang_engine.check_file(rel, analysis.raw_by_rel[rel],
                                          waivers, analysis.status_names)
            if got is not None:
                findings.extend(got)
                clang_done = True
        if not clang_done:
            findings.extend(check_c1(rel, analysis.stripped_by_rel[rel],
                                     analysis.tokens_by_rel[rel],
                                     analysis.raw_by_rel[rel],
                                     analysis.status_names, waivers))
            findings.extend(check_c2(rel, analysis.tokens_by_rel[rel],
                                     waivers))
            findings.extend(check_c5(rel, analysis.tokens_by_rel[rel],
                                     waivers))
        findings.extend(check_c3_file(rel, analysis.tokens_by_rel[rel],
                                      waivers))
    findings.extend(check_c4(root, analysis.files,
                             analysis.stripped_by_rel,
                             analysis.tokens_by_rel,
                             analysis.waivers_by_rel))
    program = parse_program(analysis)
    findings.extend(check_c6(root, analysis, program,
                             check_artifact=wiring))
    findings.extend(check_c7(analysis, program))
    findings.extend(check_c8(analysis, load_c8_baseline(root)))
    if wiring:
        findings.extend(check_c3_wiring(root, build_dir))
    return sorted(set(findings))


def pick_engine(requested: str) -> tuple[object | None, str]:
    cindex = load_libclang() if requested in ("auto", "clang") else None
    if requested == "clang" and cindex is None:
        print("srcheck.py: ERROR: --engine clang requested but python "
              "libclang is unavailable (pip install libclang, or apt "
              "python3-clang + libclang1)", file=sys.stderr)
        sys.exit(2)
    if requested == "auto" and cindex is None:
        print("srcheck.py: NOTICE: python libclang unavailable — C1/C2 run "
              "on the built-in tokenizer engine (reduced AST depth). CI "
              "runs the clang engine; install python3-clang + libclang1 "
              "to match locally.", file=sys.stderr)
    return cindex, ("clang" if cindex is not None else "textual")


def run_lint(root: pathlib.Path, build_dir: pathlib.Path | None,
             engine: str) -> int:
    cindex, engine_name = pick_engine(engine)
    files = discover(root)
    analysis = load_tree(root, files)
    clang_engine = ClangEngine(cindex, root, build_dir) if cindex else None
    findings = run_checks(root, build_dir, analysis, clang_engine)
    for f in findings:
        print(f"{f.rel}:{f.lineno}: [{f.rule}] {f.message}")
    print(f"srcheck.py [{engine_name} engine]: {len(files)} files, "
          f"{len(findings)} finding(s)")
    return 1 if findings else 0


def emit_lock_order(root: pathlib.Path,
                    out: pathlib.Path | None = None) -> int:
    files = discover(root)
    analysis = load_tree(root, files)
    edges = build_lock_graph(parse_program(analysis))
    path = out or (root / LOCK_ORDER_ARTIFACT)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(lock_order_json(edges), encoding="utf-8")
    print(f"srcheck.py: wrote {path} "
          f"({len(edges)} edge(s), "
          f"{len({a for a, _ in edges} | {b for _, b in edges})} "
          f"mutex(es))")
    return 0


def check_lock_order(root: pathlib.Path) -> int:
    files = discover(root)
    analysis = load_tree(root, files)
    program = parse_program(analysis)
    findings = sorted(set(check_c6(root, analysis, program)))
    for f in findings:
        print(f"{f.rel}:{f.lineno}: [{f.rule}] {f.message}")
    print(f"srcheck.py --check-lock-order: {len(findings)} finding(s)")
    return 1 if findings else 0


def list_waivers(root: pathlib.Path) -> int:
    files = discover(root)
    count = 0
    for rel in files:
        raw = (root / rel).read_text(encoding="utf-8", errors="replace")
        for lineno, line in enumerate(raw.splitlines(), start=1):
            for m in WAIVER_RE.finditer(line):
                print(f"{rel}:{lineno}: allow({m.group(1)}) — "
                      f"{m.group(2).strip()}")
                count += 1
    for key, reason in sorted(C4_STATIC_WAIVERS.items()):
        print(f"tools/srcheck.py: static C4 waiver {key} — {reason}")
        count += 1
    for key, reason in sorted(load_c8_baseline(root).items()):
        print(f"{C8_BASELINE_FILE}: C8 baseline {key} — {reason}")
        count += 1
    print(f"srcheck.py: {count} active waiver(s)")
    return 0


# ---------------------------------------------------------------------------
# Self-test: run the fixture tree, require findings == `srcheck-expect(Cn)`
# markers exactly (textual engine), and — when libclang is available — the
# clang engine must reproduce the same per-file rule coverage.

def run_self_test(engine: str) -> int:
    fixture_root = pathlib.Path(__file__).resolve().parent / \
        "srcheck_testdata"
    if not fixture_root.is_dir():
        print(f"srcheck.py: missing fixture tree {fixture_root}",
              file=sys.stderr)
        return 2
    files = sorted(walk_tree(fixture_root))
    analysis = load_tree(fixture_root, files)

    want: set[tuple[str, int, str]] = set()
    for rel in files:
        for lineno, line in enumerate(analysis.raw_by_rel[rel], start=1):
            for m in EXPECT_RE.finditer(line):
                want.add((rel, lineno, m.group(1)))

    got = {(f.rel, f.lineno, f.rule)
           for f in run_checks(fixture_root, None, analysis, None,
                               wiring=False)}
    ok = True
    for rel, lineno, rule in sorted(want - got):
        ok = False
        print(f"self-test: MISSED expected finding {rule} at "
              f"{rel}:{lineno}")
    for rel, lineno, rule in sorted(got - want):
        ok = False
        print(f"self-test: SPURIOUS finding {rule} at {rel}:{lineno}")
    for rule in RULES:
        if rule not in {r for _, _, r in want}:
            ok = False
            print(f"self-test: fixture tree seeds no {rule} violation")

    # C8 baseline mechanics, exercised with a synthetic baseline (the
    # fixture tree ships none, so the main run above already proved the
    # empty-baseline path): an entry suppresses its finding, an entry under
    # a no-baseline dir is rejected, and a stale entry is flagged.
    key_sup = "src/core/guard_coverage_bad.cc::LegacyCounters::value_"
    key_ban = ("src/engine/guard_coverage_banned_bad.cc::"
               "BannedCounters::value_")
    key_stale = "src/core/long_gone.cc::Ghost::member_"
    base = {key_sup: "pre-ratchet gap", key_ban: "should be rejected",
            key_stale: "file no longer exists"}
    got8 = list(check_c8(analysis, base))
    if any(f.rel == "src/core/guard_coverage_bad.cc" and
           "'value_'" in f.message for f in got8):
        ok = False
        print("self-test: C8 baseline entry failed to suppress "
              f"{key_sup}")
    if not any(key_ban in f.message and "banned" in f.message
               for f in got8):
        ok = False
        print("self-test: C8 baseline entry under src/engine/ was not "
              "rejected")
    if not any(key_stale in f.message and "stale" in f.message
               for f in got8):
        ok = False
        print("self-test: stale C8 baseline entry was not flagged")

    clang_note = "libclang not available, clang engine untested"
    if engine != "textual":
        cindex = load_libclang()
        if cindex is not None:
            clang_engine = ClangEngine(cindex, fixture_root, None)
            got_clang = {
                (f.rel, f.rule)
                for f in run_checks(fixture_root, None, analysis,
                                    clang_engine, wiring=False)}
            want_pairs = {(rel, rule) for rel, _, rule in want}
            for rel, rule in sorted(want_pairs - got_clang):
                ok = False
                print(f"self-test[clang]: MISSED {rule} in {rel}")
            for rel, rule in sorted(got_clang - want_pairs):
                ok = False
                print(f"self-test[clang]: SPURIOUS {rule} in {rel}")
            clang_note = "clang engine verified"
        elif engine == "clang":
            print("srcheck.py: ERROR: --engine clang but libclang "
                  "unavailable", file=sys.stderr)
            return 2
    print(f"srcheck.py --self-test: {len(files)} fixture files, "
          f"{len(want)} expected findings ({clang_note}), "
          f"{'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=pathlib.Path,
                        default=pathlib.Path(__file__).resolve().parent
                        .parent)
    parser.add_argument("--build-dir", type=pathlib.Path, default=None,
                        help="build tree holding compile_commands.json "
                             "(default: <root>/build if present)")
    parser.add_argument("--engine", choices=("auto", "clang", "textual"),
                        default="auto",
                        help="auto: clang AST when python libclang is "
                             "importable, else the built-in tokenizer")
    parser.add_argument("--self-test", action="store_true",
                        help="check every rule against srcheck_testdata/")
    parser.add_argument("--list-waivers", action="store_true",
                        help="print all active waivers and exit")
    parser.add_argument("--emit-lock-order", nargs="?", const="",
                        metavar="PATH", default=None,
                        help="regenerate the C6 lock-order artifact "
                             "(default: <root>/docs/lock_order.json)")
    parser.add_argument("--check-lock-order", action="store_true",
                        help="run only C6: cycle + artifact freshness "
                             "(the srcheck_lockorder_fresh ctest)")
    args = parser.parse_args()
    if args.self_test:
        return run_self_test(args.engine)
    if args.list_waivers:
        return list_waivers(args.root)
    if args.emit_lock_order is not None:
        out = pathlib.Path(args.emit_lock_order) if args.emit_lock_order \
            else None
        return emit_lock_order(args.root, out)
    if args.check_lock_order:
        return check_lock_order(args.root)
    return run_lint(args.root, args.build_dir, args.engine)


if __name__ == "__main__":
    sys.exit(main())
