#!/usr/bin/env python3
"""Structural lint for the SR-tree sources.

Checks (all cheap, no compiler needed):
  * Header guards follow SRTREE_<PATH>_H_ with the leading src/ stripped
    (src/storage/page_file.h -> SRTREE_STORAGE_PAGE_FILE_H_,
    tests/test_util.h -> SRTREE_TESTS_TEST_UTIL_H_).
  * Quoted #includes of first-party headers are repo-root-relative
    ("src/..." / "tests/..." / "bench/..."), never "../" or bare names.
  * No `using namespace` at any scope inside headers.

Also drives the other lint stages — tools/srlint.py (the project contract
linter: deprecated-API call sites, naked std locks, layering, test
registration), tools/srcheck.py (the AST-grounded contract checker:
Status discipline, pin/epoch lifetime escapes, storage narrowing,
lock-order, commit protocol, GUARDED_BY coverage), and, when a build
directory is supplied, clang-tidy via tools/run_clang_tidy.sh — so the
single `lint` entry point gates them all. Every stage runs even when an
earlier one fails; the exit code aggregates across stages and a per-stage
summary says exactly which ones need attention. srcheck falls back to its
built-in engine when python libclang is absent — it prints a loud NOTICE
but still runs every rule.

Usage: tools/lint.py [repo_root] [--build-dir DIR]
(exit 0 all stages clean, 1 when any stage found problems)
"""

import argparse
import pathlib
import re
import subprocess
import sys

from srlint import FIRST_PARTY_DIRS, git_tracked, walk_tree

HEADER_SUFFIXES = (".h", ".hpp")

INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"')
USING_NAMESPACE_RE = re.compile(r"^\s*using\s+namespace\b")
GUARD_IFNDEF_RE = re.compile(r"^\s*#\s*ifndef\s+(\S+)")
GUARD_DEFINE_RE = re.compile(r"^\s*#\s*define\s+(\S+)")


def expected_guard(rel_path: pathlib.PurePosixPath) -> str:
    parts = rel_path.parts
    if parts[0] == "src":
        parts = parts[1:]
    stem = "_".join(parts)
    stem = re.sub(r"[^A-Za-z0-9]", "_", stem)
    return f"SRTREE_{stem.upper()}_"


def tracked_sources(root: pathlib.Path) -> list[pathlib.PurePosixPath]:
    # Outside a git checkout (a `git archive` export) every source file
    # under the first-party dirs counts, as it does for srlint and srcheck.
    files = git_tracked(root) or walk_tree(root)
    return [pathlib.PurePosixPath(f) for f in sorted(files)]


def check_file(root: pathlib.Path, rel: pathlib.PurePosixPath) -> list[str]:
    problems = []
    lines = (root / rel).read_text(encoding="utf-8").splitlines()
    is_header = rel.suffix in HEADER_SUFFIXES

    if is_header:
        want = expected_guard(rel)
        ifndef = define = None
        for line in lines:
            if ifndef is None:
                m = GUARD_IFNDEF_RE.match(line)
                if m:
                    ifndef = m.group(1)
                continue
            m = GUARD_DEFINE_RE.match(line)
            if m:
                define = m.group(1)
            break
        if ifndef != want or define != want:
            got = ifndef if ifndef == define else f"{ifndef} / {define}"
            problems.append(f"{rel}: header guard is {got}, want {want}")

    for lineno, line in enumerate(lines, start=1):
        m = INCLUDE_RE.match(line)
        if m:
            inc = m.group(1)
            first = inc.split("/", 1)[0]
            if first not in FIRST_PARTY_DIRS:
                problems.append(
                    f"{rel}:{lineno}: quoted include \"{inc}\" is not "
                    f"repo-root-relative (expected src/..., tests/..., ...)")
        if is_header and USING_NAMESPACE_RE.match(line):
            problems.append(
                f"{rel}:{lineno}: `using namespace` in a header")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Structural lint + aggregated lint-stage driver")
    parser.add_argument(
        "root", nargs="?",
        default=str(pathlib.Path(__file__).resolve().parent.parent))
    parser.add_argument(
        "--build-dir", default=None,
        help="build tree holding compile_commands.json; enables the "
             "clang-tidy stage and feeds the compile database to srlint")
    args = parser.parse_args()
    root = pathlib.Path(args.root)

    problems = []
    files = tracked_sources(root)
    for rel in files:
        problems.extend(check_file(root, rel))
    for p in problems:
        print(p)
    print(f"lint.py: {len(files)} files, {len(problems)} problem(s)")

    failed = ["structural"] if problems else []

    here = pathlib.Path(__file__).resolve().parent
    srlint_cmd = [sys.executable, str(here / "srlint.py"),
                  "--root", str(root)]
    srcheck_cmd = [sys.executable, str(here / "srcheck.py"),
                   "--root", str(root)]
    if args.build_dir:
        srlint_cmd += ["--build-dir", args.build_dir]
        srcheck_cmd += ["--build-dir", args.build_dir]
    stages = [("srlint", srlint_cmd), ("srcheck", srcheck_cmd)]
    if args.build_dir:
        stages.append(("clang-tidy",
                       [str(here / "run_clang_tidy.sh"), args.build_dir]))

    # Run every stage regardless of earlier failures: one invocation, one
    # complete picture, one aggregated exit code.
    for name, cmd in stages:
        code = subprocess.run(cmd).returncode
        if code != 0:
            failed.append(name)

    for name in ["structural"] + [name for name, _ in stages]:
        state = "FAILED" if name in failed else "ok"
        print(f"lint.py: stage {name}: {state}")
    if failed:
        print(f"lint.py: {len(failed)} stage(s) failed: {', '.join(failed)}")
        return 1
    print("lint.py: all stages clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
