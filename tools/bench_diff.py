#!/usr/bin/env python3
"""Compare two bench JSON snapshots (bench/snapshots/*.json).

Usage: bench_diff.py BASE NEW [--fail-above PCT]

Tables are matched by title and rows positionally (bench output order is
deterministic). Non-numeric cells are treated as row labels and must match
exactly; numeric cells are reported as percentage deltas. Exit status:

  0  snapshots are structurally identical (labels, shapes) — numeric
     deltas, if any, are within --fail-above (default: unlimited, since
     wall-clock numbers are machine-dependent)
  1  structural mismatch: different tables, columns, row counts, or labels;
     or --fail-above was given, both snapshots carry a machine stamp and
     the stamps differ (their numbers come from different machines or
     builds, so comparing them would mean nothing). A structure-only diff
     reports differing stamps but does not fail on them. A snapshot
     without a stamp, as older entries are, compares with any.
  2  usage / unreadable input

The lint suite runs this as a self-diff smoke test over the checked-in
snapshots, so a malformed snapshot or a regression in this script fails
`ctest` before it reaches a reviewer.
"""

import argparse
import json
import sys


def load(path):
    """Returns (tables, stamp or None) of a snapshot or a trajectory's
    most recent entry."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"bench_diff.py: cannot read {path}: {e}")
    # A repo-root trajectory file (see tools/bench_trajectory.py) holds a
    # history of snapshots; diff against its most recent entry.
    history = doc.get("history")
    if isinstance(history, list) and history:
        doc = history[-1]
    tables = doc.get("tables")
    if not isinstance(tables, list):
        sys.exit(f"bench_diff.py: {path}: missing 'tables' list")
    return tables, doc.get("stamp")


def stamp_mismatches(base, new):
    """The fields two machine stamps disagree on; none when either is
    missing."""
    if base is None or new is None:
        return []
    return [f"{key}: {base.get(key)!r} -> {new.get(key)!r}"
            for key in sorted(set(base) | set(new))
            if base.get(key) != new.get(key)]


def as_number(cell):
    try:
        return float(cell)
    except (TypeError, ValueError):
        return None


def row_label(columns, row):
    parts = []
    for name, cell in zip(columns, row):
        if as_number(cell) is None or name in ("dim", "k", "threads"):
            parts.append(f"{name}={cell}")
    return " ".join(parts) or "row"


def diff_tables(base, new, out, allow_na=False):
    structural = []
    deltas = []  # (abs_pct, description)
    availability = 0
    base_by_title = {t.get("title"): t for t in base}
    new_by_title = {t.get("title"): t for t in new}
    for title in base_by_title:
        if title not in new_by_title:
            structural.append(f"table dropped: {title}")
    for title in new_by_title:
        if title not in base_by_title:
            structural.append(f"table added: {title}")

    for title, b in base_by_title.items():
        n = new_by_title.get(title)
        if n is None:
            continue
        if b.get("columns") != n.get("columns"):
            structural.append(
                f"{title}: columns {b.get('columns')} -> {n.get('columns')}")
            continue
        brows, nrows = b.get("rows", []), n.get("rows", [])
        if len(brows) != len(nrows):
            structural.append(
                f"{title}: row count {len(brows)} -> {len(nrows)}")
            continue
        columns = b.get("columns", [])
        for brow, nrow in zip(brows, nrows):
            label = row_label(columns, brow)
            for name, bcell, ncell in zip(columns, brow, nrow):
                bnum, nnum = as_number(bcell), as_number(ncell)
                if bnum is None or nnum is None:
                    if bcell == ncell:
                        continue
                    if allow_na and "n/a" in (bcell, ncell):
                        # A kernel implementation (dis)appeared — expected
                        # when snapshots come from different machines.
                        print(f"AVAILABILITY {title}: {label}: {name} "
                              f"'{bcell}' -> '{ncell}'", file=out)
                        availability += 1
                        continue
                    structural.append(
                        f"{title}: {label}: {name} '{bcell}' -> '{ncell}'")
                    continue
                if bnum == nnum:
                    continue
                pct = (100.0 * (nnum - bnum) / bnum) if bnum else float("inf")
                deltas.append((abs(pct),
                               f"{title}: {label}: {name} "
                               f"{bcell} -> {ncell} ({pct:+.1f}%)"))

    for line in structural:
        print(f"STRUCTURAL {line}", file=out)
    for _, line in sorted(deltas, reverse=True):
        print(line, file=out)
    if not structural and not deltas and not availability:
        print("snapshots identical", file=out)
    return structural, deltas


def main(argv):
    parser = argparse.ArgumentParser(
        description="diff two bench JSON snapshots")
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--fail-above", type=float, default=None,
                        metavar="PCT",
                        help="exit 1 when any numeric delta exceeds PCT%%")
    parser.add_argument("--allow-na", action="store_true",
                        help="treat numeric <-> 'n/a' cell transitions as "
                             "reported-but-ok (snapshots from machines with "
                             "different SIMD support)")
    args = parser.parse_args(argv)

    base_tables, base_stamp = load(args.base)
    new_tables, new_stamp = load(args.new)
    mismatches = stamp_mismatches(base_stamp, new_stamp)
    for line in mismatches:
        print(f"STAMP {line}")
    structural, deltas = diff_tables(base_tables, new_tables,
                                     sys.stdout, allow_na=args.allow_na)
    if structural:
        return 1
    if mismatches:
        if args.fail_above is not None:
            print("FAIL the snapshots come from different machines or "
                  "builds; their numbers do not compare")
            return 1
        print("WARNING the snapshots come from different machines or "
              "builds; only their structure compares")
    if args.fail_above is not None:
        worst = max((pct for pct, _ in deltas), default=0.0)
        if worst > args.fail_above:
            print(f"FAIL worst delta {worst:.1f}% > {args.fail_above}%")
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
