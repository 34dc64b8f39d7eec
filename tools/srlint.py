#!/usr/bin/env python3
"""srlint: contract linter for project-specific API and layering rules.

tools/lint.py checks file *shape* (guards, include style); srlint checks
*contracts* that a plain compiler accepts but the project forbids:

  R1  deprecated-API calls: no member calls to the removed ResetIoStats()
      or NearestNeighbors()/NearestNeighborsBestFirst()/RangeSearch()
      wrappers, anywhere. They are gone from PointIndex; code uses
      Search() and per-query QueryResult::io deltas, or GetIoStats()
      snapshots. There is no allowlist — a legitimate exception carries an
      explicit waiver.
  R2  naked standard locks: no std::lock_guard / std::unique_lock /
      std::scoped_lock under src/ outside src/base/mutex.h. First-party
      state is locked through the annotated srtree::Mutex/MutexLock so
      -Wthread-safety sees every critical section; a naked std lock opts
      out of the analysis silently.
  R3  layering: src/engine/ and src/benchlib/ depend on the PointIndex
      interface (and the src/index/ factory), never on a concrete tree
      header. Including one re-couples the serving/bench layers to tree
      internals.
  R4  test registration: every file under tests/ that defines a gtest TEST
      must be listed in tests/CMakeLists.txt, otherwise it builds nowhere
      and silently stops running.
  R5  raw file streams on index images: no std::ifstream / std::ofstream /
      std::fstream under src/ outside src/storage/ (checksummed image I/O)
      and src/workload/ (text CSV datasets). Index images go through
      storage::AtomicWriteFile / IndexImageFile / ReadFileToString so every
      byte on disk is covered by the durability contract — a raw stream
      silently opts out of checksums, atomic rename, and fault injection.
  (R6, direct PageFile writes, is retired: PageFile has no in-place Write()
  any more, so the compiler rejects what it flagged.)
  R7  kernel bypass: no free SquaredDistance()/Distance() calls in the
      tree directories. Those wrappers are deprecated scalar shims; tree
      code computes distances through GetDistanceKernel() — the batched
      SoA forms on the search path, the single-point forms elsewhere — so
      every distance benefits from the dispatched implementation and the
      partial-distance-pruning contract (src/geometry/kernel.h).
  R8  tier isolation: src/statictier/ never includes a dynamic-tree
      header. The static tier composes its delta through the PointIndex
      interface and the src/index/ factory; a concrete tree include would
      couple the read-optimized tier to one tree's internals and defeat
      the point of the tiered split.
  R9  one traversal: under src/, no std::priority_queue and no declaration
      or definition of a SearchKnn*/SearchRange* function outside
      src/index/traversal.h (the one DFS, best-first and range traversal,
      templated over each tree's bound policy) and src/index/knn.h (the
      candidate heap). A per-tree copy of a search loop lets the trees'
      read counts drift apart, which breaks the paper's comparison.
  R10 one cache model: nothing includes src/storage/buffer_pool.h except
      the pool itself (src/storage/buffer_pool.{h,cc}) and tests/. Queries
      read pages in place from the pinned snapshot and caching is only
      simulated (PageFile::SimulateCache); a pool include under src/,
      bench/, tools/ or examples/ would put a second cache model back on a
      read path.

A finding on one line can be waived in place with a comment naming the rule
and a reason, e.g.

    std::lock_guard<std::mutex> lock(mu);  // srlint: allow(R2) vendored API

Discovery is git-based (tracked files under the first-party dirs) and
compile_commands-aware: entries from <build>/compile_commands.json are
unioned in, so generated or not-yet-tracked sources still get linted.

Usage:
  tools/srlint.py [--root DIR] [--build-dir DIR]   lint the repo
  tools/srlint.py --self-test                      run against the fixture
                                                   tree in srlint_testdata/

Exit status: 0 clean, 1 findings, 2 usage/internal error.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import re
import subprocess
import sys
from typing import NamedTuple

FIRST_PARTY_DIRS = ("src", "tests", "bench", "tools", "examples")
SOURCE_SUFFIXES = (".h", ".hpp", ".cc", ".cpp")

WAIVER_RE = re.compile(r"srlint:\s*allow\((R[1-9][0-9]?)\)")
# Self-test fixtures mark each finding they seed with srlint-expect(Rn).
EXPECT_RE = re.compile(r"srlint-expect\((R[1-9][0-9]?)\)")


class Finding(NamedTuple):
    rel: str
    lineno: int
    rule: str
    message: str


# --------------------------------------------------------------------------
# Tokenizer: blank out comments and string/char literals, preserving line
# structure and column positions, so the rule regexes never match inside
# either. Handles //, /* */, "..." with escapes, '...', and R"delim(...)".


def strip_comments_and_strings(text: str) -> str:
    out = []
    i, n = 0, len(text)
    NORMAL, LINE_COMMENT, BLOCK_COMMENT, STRING, CHAR = range(5)
    state = NORMAL
    raw_end = ""  # sentinel that terminates the current raw string
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == NORMAL:
            if c == "/" and nxt == "/":
                state = LINE_COMMENT
                out.append("  ")
                i += 2
            elif c == "/" and nxt == "*":
                state = BLOCK_COMMENT
                out.append("  ")
                i += 2
            elif c == '"':
                # R"delim( opens a raw string; plain " a normal one.
                m = re.match(r'R"([^\s()\\]{0,16})\(', text[i - 1 : i + 18]) \
                    if i > 0 and text[i - 1] == "R" else None
                if m:
                    raw_end = ")" + m.group(1) + '"'
                    state = STRING
                    skip = 1 + len(m.group(1)) + 1  # "delim(
                    out.append(" " * skip)
                    i += skip
                else:
                    raw_end = ""
                    state = STRING
                    out.append(" ")
                    i += 1
            elif c == "'":
                state = CHAR
                out.append(" ")
                i += 1
            else:
                out.append(c)
                i += 1
        elif state == LINE_COMMENT:
            if c == "\n":
                state = NORMAL
                out.append(c)
            else:
                out.append(" ")
            i += 1
        elif state == BLOCK_COMMENT:
            if c == "*" and nxt == "/":
                state = NORMAL
                out.append("  ")
                i += 2
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
                state = NORMAL
                out.append(" ")
                i += 1
            else:
                out.append(c if c == "\n" else " ")
                i += 1
        else:  # CHAR
            if c == "\\" and nxt:
                out.append("  ")
                i += 2
            elif c == "'":
                state = NORMAL
                out.append(" ")
                i += 1
            else:
                out.append(" ")
                i += 1
    return "".join(out)


# --------------------------------------------------------------------------
# Rules. Each takes (rel, code_lines) with comments/strings stripped and
# yields Finding tuples; per-line waivers are applied by the caller.

# Member-call syntax only (obj.X( / ptr->X(), so the definitions of these
# methods — which the project must keep — never match.
R1_CALL_RE = re.compile(
    r"(?:\.|->)\s*(ResetIoStats|NearestNeighborsBestFirst|NearestNeighbors|"
    r"RangeSearch)\s*\("
)
# No allowlist: the wrappers were removed from PointIndex, so every R1 hit
# is either dead-API resurrection or needs an explicit waiver.
R1_ALLOWED_FILES: set[str] = set()

R2_LOCK_RE = re.compile(r"\bstd\s*::\s*(lock_guard|unique_lock|scoped_lock)\b")
R2_ALLOWED_FILES = {"src/base/mutex.h"}

R3_CONSUMER_DIRS = ("src/engine/", "src/benchlib/")
R3_TREE_DIRS = (
    "src/core/",
    "src/kdb/",
    "src/rstar/",
    "src/vamsplit/",
    "src/xtree/",
)
R3_INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"')

R4_TEST_RE = re.compile(r"^\s*(TEST|TEST_F|TEST_P|TYPED_TEST)\s*\(")

R5_STREAM_RE = re.compile(r"\bstd\s*::\s*(ifstream|ofstream|fstream)\b")
R5_ALLOWED_DIRS = ("src/storage/", "src/workload/")

# Free-function calls (qualified or not): the lookbehind rejects member
# access (., ->) and longer identifiers, so sphere.MinDist(),
# cand.PruneDistance() and kernel_detail::ScalarSquaredL2() never match,
# while srtree::SquaredDistance() still does.
R7_CALL_RE = re.compile(r"(?<![\w.>])(SquaredDistance|Distance)\s*\(")
R7_TREE_DIRS = R3_TREE_DIRS

# The static tier talks to its dynamic delta through PointIndex and the
# factory only; the dirs it must never include are the dynamic trees'.
R8_CONSUMER_DIRS = ("src/statictier/",)
R8_TREE_DIRS = R3_TREE_DIRS

R9_ALLOWED_FILES = {"src/index/traversal.h", "src/index/knn.h"}
R9_QUEUE_RE = re.compile(r"\bstd\s*::\s*priority_queue\b")
# A name preceded by a type (a return type ending in an identifier, `>`,
# `*` or `&`, then whitespace) is a declaration or definition; calls are
# preceded by nothing, punctuation, `.`/`->` or `return`.
R9_DEFINE_RE = re.compile(
    r"(?:^|[^\w.>])(?!return\b)[A-Za-z_][\w:<>]*[\s*&]+"
    r"(?:\w+::)*(Search(?:Knn|Range)\w*)\s*\(")

R10_POOL_HEADER = "src/storage/buffer_pool.h"
R10_ALLOWED_FILES = {"src/storage/buffer_pool.h", "src/storage/buffer_pool.cc"}
R10_ALLOWED_DIRS = ("tests/",)


def check_r1(rel: str, lines: list[str]):
    if rel in R1_ALLOWED_FILES:
        return
    for lineno, line in enumerate(lines, start=1):
        for m in R1_CALL_RE.finditer(line):
            yield Finding(
                rel, lineno, "R1",
                f"call to deprecated {m.group(1)}(); use Search() / "
                f"GetIoStats() (see src/index/point_index.h)")


def check_r2(rel: str, lines: list[str]):
    if not rel.startswith("src/") or rel in R2_ALLOWED_FILES:
        return
    for lineno, line in enumerate(lines, start=1):
        m = R2_LOCK_RE.search(line)
        if m:
            yield Finding(
                rel, lineno, "R2",
                f"naked std::{m.group(1)}; lock first-party state with "
                f"srtree::MutexLock (src/base/mutex.h) so -Wthread-safety "
                f"sees the critical section")


def check_r3(rel: str, lines: list[str], raw_lines: list[str]):
    if not rel.startswith(R3_CONSUMER_DIRS):
        return
    # The stripped line proves the directive is real code (not commented
    # out), but the path itself is a string literal, so it is read from the
    # raw line.
    for lineno, (line, raw) in enumerate(zip(lines, raw_lines), start=1):
        if not re.match(r"^\s*#\s*include\b", line):
            continue
        m = R3_INCLUDE_RE.match(raw)
        if m and m.group(1).startswith(R3_TREE_DIRS):
            yield Finding(
                rel, lineno, "R3",
                f'include of tree header "{m.group(1)}"; this layer depends '
                f"on PointIndex / src/index/index_factory.h only")


def check_r4(rel: str, lines: list[str], registered: str):
    if not rel.startswith("tests/") or not rel.endswith((".cc", ".cpp")):
        return
    for lineno, line in enumerate(lines, start=1):
        if R4_TEST_RE.match(line):
            name = pathlib.PurePosixPath(rel).name
            if not re.search(rf"\b{re.escape(name)}\b", registered):
                yield Finding(
                    rel, lineno, "R4",
                    f"{name} defines tests but is not registered in "
                    f"tests/CMakeLists.txt, so they never run")
            return  # one finding per file is enough


def check_r5(rel: str, lines: list[str]):
    if not rel.startswith("src/") or rel.startswith(R5_ALLOWED_DIRS):
        return
    for lineno, line in enumerate(lines, start=1):
        m = R5_STREAM_RE.search(line)
        if m:
            yield Finding(
                rel, lineno, "R5",
                f"raw std::{m.group(1)} under src/; file I/O goes through "
                f"storage::AtomicWriteFile / IndexImageFile / "
                f"ReadFileToString (src/storage/image_io.h) so images keep "
                f"checksums and atomic-rename durability")


def check_r7(rel: str, lines: list[str]):
    if not rel.startswith(R7_TREE_DIRS):
        return
    for lineno, line in enumerate(lines, start=1):
        for m in R7_CALL_RE.finditer(line):
            yield Finding(
                rel, lineno, "R7",
                f"free {m.group(1)}() in tree code; compute distances "
                f"through GetDistanceKernel() — batched SoA forms on the "
                f"search path, SquaredL2()/L2() elsewhere "
                f"(src/geometry/kernel.h)")


def check_r8(rel: str, lines: list[str], raw_lines: list[str]):
    if not rel.startswith(R8_CONSUMER_DIRS):
        return
    for lineno, (line, raw) in enumerate(zip(lines, raw_lines), start=1):
        if not re.match(r"^\s*#\s*include\b", line):
            continue
        m = R3_INCLUDE_RE.match(raw)
        if m and m.group(1).startswith(R8_TREE_DIRS):
            yield Finding(
                rel, lineno, "R8",
                f'include of dynamic-tree header "{m.group(1)}"; the static '
                f"tier composes its delta through PointIndex / "
                f"src/index/index_factory.h only")


def check_r9(rel: str, lines: list[str]):
    if not rel.startswith("src/") or rel in R9_ALLOWED_FILES:
        return
    for lineno, line in enumerate(lines, start=1):
        if R9_QUEUE_RE.search(line):
            yield Finding(
                rel, lineno, "R9",
                "std::priority_queue outside src/index/traversal.h and "
                "src/index/knn.h; trees search through the one best-first "
                "traversal with a bound policy")
        m = R9_DEFINE_RE.search(line)
        if m:
            yield Finding(
                rel, lineno, "R9",
                f"per-tree {m.group(1)}(); trees search through the one "
                f"DFS / best-first / range traversal in "
                f"src/index/traversal.h with a bound policy")


def check_r10(rel: str, lines: list[str], raw_lines: list[str]):
    if rel in R10_ALLOWED_FILES or rel.startswith(R10_ALLOWED_DIRS):
        return
    for lineno, (line, raw) in enumerate(zip(lines, raw_lines), start=1):
        if not re.match(r"^\s*#\s*include\b", line):
            continue
        m = R3_INCLUDE_RE.match(raw)
        if m and m.group(1) == R10_POOL_HEADER:
            yield Finding(
                rel, lineno, "R10",
                f'include of "{R10_POOL_HEADER}"; queries read pages in '
                f"place (Snapshot::ReadInPlace) and the one cache model is "
                f"PageFile::SimulateCache")


# --------------------------------------------------------------------------
# Discovery and driver.


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


def compile_commands_files(root: pathlib.Path,
                           build_dir: pathlib.Path | None) -> set[str]:
    candidates = [build_dir] if build_dir else [root / "build"]
    for cand in candidates:
        db = cand / "compile_commands.json" if cand else None
        if db is None or not db.is_file():
            continue
        found = set()
        for entry in json.loads(db.read_text(encoding="utf-8")):
            path = pathlib.Path(entry["file"])
            if not path.is_absolute():
                path = pathlib.Path(entry["directory"]) / path
            try:
                rel = path.resolve().relative_to(root.resolve()).as_posix()
            except ValueError:
                continue  # outside the repo (system/third-party)
            if rel.startswith(tuple(d + "/" for d in FIRST_PARTY_DIRS)):
                found.add(rel)
        return found
    return set()


def discover(root: pathlib.Path,
             build_dir: pathlib.Path | None) -> list[str]:
    files = git_tracked(root) or walk_tree(root)
    files |= compile_commands_files(root, build_dir)
    # Fixture trees (ours and srcheck's) are linted only by their own
    # --self-test harnesses, never as repo code.
    files = {f for f in files
             if "srlint_testdata" not in f and "srcheck_testdata" not in f}
    return sorted(files)


def lint_files(root: pathlib.Path, files: list[str]) -> list[Finding]:
    cml = root / "tests" / "CMakeLists.txt"
    registered = cml.read_text(encoding="utf-8") if cml.is_file() else ""
    registered = strip_comments_and_strings_cmake(registered)

    findings: list[Finding] = []
    for rel in files:
        raw = (root / rel).read_text(encoding="utf-8", errors="replace")
        raw_lines = raw.splitlines()
        code_lines = strip_comments_and_strings(raw).splitlines()
        waived: dict[int, set[str]] = {}
        for lineno, line in enumerate(raw_lines, start=1):
            for m in WAIVER_RE.finditer(line):
                waived.setdefault(lineno, set()).add(m.group(1))
        for f in (*check_r1(rel, code_lines), *check_r2(rel, code_lines),
                  *check_r3(rel, code_lines, raw_lines),
                  *check_r4(rel, code_lines, registered),
                  *check_r5(rel, code_lines),
                  *check_r7(rel, code_lines),
                  *check_r8(rel, code_lines, raw_lines),
                  *check_r9(rel, code_lines),
                  *check_r10(rel, code_lines, raw_lines)):
            if f.rule not in waived.get(f.lineno, set()):
                findings.append(f)
    return sorted(findings)


def strip_comments_and_strings_cmake(text: str) -> str:
    return "\n".join(line.split("#", 1)[0] for line in text.splitlines())


def run_lint(root: pathlib.Path, build_dir: pathlib.Path | None) -> int:
    files = discover(root, build_dir)
    findings = lint_files(root, files)
    for f in findings:
        print(f"{f.rel}:{f.lineno}: [{f.rule}] {f.message}")
    print(f"srlint.py: {len(files)} files, {len(findings)} finding(s)")
    return 1 if findings else 0


# --------------------------------------------------------------------------
# Self-test: lint the fixture tree and require the findings to equal the
# `srlint-expect(Rn)` markers embedded in the fixtures, exactly. This checks
# both directions: every rule catches its seeded violation, and the waiver
# mechanism plus the allowlists suppress exactly what they should.


def run_self_test() -> int:
    fixture_root = pathlib.Path(__file__).resolve().parent / "srlint_testdata"
    if not fixture_root.is_dir():
        print(f"srlint.py: missing fixture tree {fixture_root}",
              file=sys.stderr)
        return 2
    files = sorted(walk_tree(fixture_root))
    got = {(f.rel, f.lineno, f.rule)
           for f in lint_files(fixture_root, files)}
    want = set()
    for rel in files:
        text = (fixture_root / rel).read_text(encoding="utf-8")
        for lineno, line in enumerate(text.splitlines(), start=1):
            for m in EXPECT_RE.finditer(line):
                want.add((rel, lineno, m.group(1)))
    ok = True
    for rel, lineno, rule in sorted(want - got):
        ok = False
        print(f"self-test: MISSED expected finding {rule} at {rel}:{lineno}")
    for rel, lineno, rule in sorted(got - want):
        ok = False
        print(f"self-test: SPURIOUS finding {rule} at {rel}:{lineno}")
    rules_seen = {rule for _, _, rule in want}
    for rule in ("R1", "R2", "R3", "R4", "R5", "R7", "R8", "R9", "R10"):
        if rule not in rules_seen:
            ok = False
            print(f"self-test: fixture tree seeds no {rule} violation")
    print(f"srlint.py --self-test: {len(files)} fixture files, "
          f"{len(want)} expected findings, "
          f"{'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=pathlib.Path,
                        default=pathlib.Path(__file__).resolve().parent.parent)
    parser.add_argument("--build-dir", type=pathlib.Path, default=None,
                        help="build tree holding compile_commands.json "
                             "(default: <root>/build if present)")
    parser.add_argument("--self-test", action="store_true",
                        help="lint the srlint_testdata fixture tree and "
                             "verify the findings match its markers")
    args = parser.parse_args()
    if args.self_test:
        return run_self_test()
    return run_lint(args.root, args.build_dir)


if __name__ == "__main__":
    sys.exit(main())
