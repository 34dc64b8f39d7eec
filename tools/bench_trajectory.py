#!/usr/bin/env python3
"""Maintain the repo-root BENCH_*.json perf trajectories (ROADMAP item #3).

A bench run writes a point-in-time snapshot to bench/snapshots/BENCH_<x>.json
(`--json`, see bench/snapshots/README.md). The *trajectory* is the repo-root
BENCH_<x>.json: a checked-in history of those snapshots, one entry appended
per PR that re-runs the bench, so reviewers can see how the numbers moved
across the project's life instead of only the latest value:

    {"bench": "BENCH_<x>",
     "history": [{"label": ..., "stamp": {...}, "tables": [...]}, ...]}

An entry keeps its snapshot's machine stamp (nproc, CPU model, L3 bytes,
distance kernel, compiler, build type) when the snapshot has one.

`tools/bench_diff.py` understands both forms (a trajectory diffs as its most
recent entry).

Usage:
  bench_trajectory.py append SNAPSHOT TRAJECTORY --label LABEL
      Append SNAPSHOT's tables as a new history entry (creates the
      trajectory if missing; no-op when the latest entry is identical).
  bench_trajectory.py check SNAPSHOT TRAJECTORY
      Verify the trajectory's latest entry structurally matches SNAPSHOT.
  bench_trajectory.py check-all --root DIR
      For every DIR/bench/snapshots/BENCH_*.json there must be a DIR/
      BENCH_*.json trajectory whose latest entry structurally matches it,
      and every root trajectory must have a snapshot counterpart. This is
      the ctest freshness gate keeping the two in sync.

Exit status: 0 ok, 1 mismatch/missing, 2 usage or unreadable input.
"""

import argparse
import glob
import io
import json
import os
import sys

import bench_diff


def load_doc(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"bench_trajectory.py: cannot read {path}: {e}")


def load_snapshot(path):
    doc = load_doc(path)
    if not isinstance(doc.get("tables"), list):
        sys.exit(f"bench_trajectory.py: {path}: missing 'tables' list")
    return doc


def load_snapshot_tables(path):
    return load_snapshot(path)["tables"]


def write_atomic(path, doc):
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    os.replace(tmp, path)


def do_append(args):
    snapshot = load_snapshot(args.snapshot)
    tables = snapshot["tables"]
    if os.path.exists(args.trajectory):
        doc = load_doc(args.trajectory)
        history = doc.get("history")
        if not isinstance(history, list):
            sys.exit(f"bench_trajectory.py: {args.trajectory}: "
                     "missing 'history' list")
    else:
        doc = {"bench": os.path.splitext(
            os.path.basename(args.trajectory))[0], "history": []}
        history = doc["history"]
    if history and history[-1].get("tables") == tables:
        print(f"{args.trajectory}: latest entry already identical, no-op")
        return 0
    entry = {"label": args.label}
    if "stamp" in snapshot:
        entry["stamp"] = snapshot["stamp"]
    entry["tables"] = tables
    history.append(entry)
    write_atomic(args.trajectory, doc)
    print(f"{args.trajectory}: appended entry '{args.label}' "
          f"({len(history)} total)")
    return 0


def structural_match(snapshot_path, trajectory_path, out):
    base = load_snapshot_tables(snapshot_path)
    doc = load_doc(trajectory_path)
    history = doc.get("history")
    if not isinstance(history, list) or not history:
        print(f"MISSING {trajectory_path}: empty or missing 'history'",
              file=out)
        return False
    latest = history[-1].get("tables")
    if not isinstance(latest, list):
        print(f"MISSING {trajectory_path}: latest entry has no 'tables'",
              file=out)
        return False
    sink = io.StringIO()
    structural, _ = bench_diff.diff_tables(base, latest, sink)
    if structural:
        print(f"STALE {trajectory_path} vs {snapshot_path}:", file=out)
        for line in structural:
            print(f"  {line}", file=out)
        return False
    return True


def do_check(args):
    ok = structural_match(args.snapshot, args.trajectory, sys.stdout)
    if ok:
        print("trajectory is fresh")
    return 0 if ok else 1


def do_check_all(args):
    root = os.path.abspath(args.root)
    snapshots = sorted(
        glob.glob(os.path.join(root, "bench", "snapshots", "BENCH_*.json")))
    trajectories = sorted(glob.glob(os.path.join(root, "BENCH_*.json")))
    failures = 0
    seen = set()
    for snapshot in snapshots:
        name = os.path.basename(snapshot)
        seen.add(name)
        trajectory = os.path.join(root, name)
        if not os.path.exists(trajectory):
            print(f"MISSING {name}: snapshot has no repo-root trajectory "
                  f"(seed it with bench_trajectory.py append)")
            failures += 1
            continue
        if not structural_match(snapshot, trajectory, sys.stdout):
            failures += 1
    for trajectory in trajectories:
        name = os.path.basename(trajectory)
        if name not in seen:
            print(f"ORPHAN {name}: repo-root trajectory has no "
                  f"bench/snapshots counterpart")
            failures += 1
    total = len(snapshots)
    if failures == 0:
        print(f"all {total} trajectories fresh")
        return 0
    print(f"{failures} stale/missing of {total} snapshot(s)")
    return 1


def main(argv):
    parser = argparse.ArgumentParser(
        description="maintain repo-root bench trajectories")
    sub = parser.add_subparsers(dest="command", required=True)

    p_append = sub.add_parser("append")
    p_append.add_argument("snapshot")
    p_append.add_argument("trajectory")
    p_append.add_argument("--label", required=True,
                          help="history entry label (e.g. PR or commit)")
    p_append.set_defaults(func=do_append)

    p_check = sub.add_parser("check")
    p_check.add_argument("snapshot")
    p_check.add_argument("trajectory")
    p_check.set_defaults(func=do_check)

    p_all = sub.add_parser("check-all")
    p_all.add_argument("--root", default=".")
    p_all.set_defaults(func=do_check_all)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
