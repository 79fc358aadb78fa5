#!/usr/bin/env python3
"""Compare a bench --json report against a committed baseline.

Usage: bench_compare.py BASELINE.json CURRENT.json

Three checks, all hard failures (exit 1):

1. Missing rows: every row label in the baseline must also be in the
   current report. A bench that stops emitting a row would otherwise
   shrink the gate without anyone noticing; a row that is dropped on
   purpose must be dropped from the committed seed in the same commit.
   Rows only the current report has are allowed (a new row is gated once
   its seed is committed).

2. Missing fields: every field of a baseline row must also be in the
   current report's row of the same label, for the same reason — a
   counter a bench stops emitting would otherwise silently leave the
   gate. A field dropped on purpose is dropped from the seed in the same
   commit. Fields only the current row has are allowed.

3. Counter drift: every non-timing field must be exactly equal between the
   baseline and the current run, on the labels both reports contain. The
   match counters (join attempts, tokens created/deleted, pool hits, ...)
   are deterministic for a fixed workload and configuration, so any drift
   means the match layer's observable behavior changed — which is either a
   bug or a change that must refresh the committed seed JSON in the same
   commit.

Timing fields (`*_ms`, `*speedup*`) and scheduling-shaped high-water marks
(`pool.max_task_depth`, `pool.nested_batches`) are excluded from the
equality check; `host_cores` lives in the config block, which is not
compared. No timing is gated.
"""

import argparse
import json
import sys

# Fields whose values depend on wall-clock or scheduler behavior.
SKIP_SUFFIXES = ("_ms",)
SKIP_SUBSTRINGS = ("speedup",)
SKIP_FIELDS = {"label", "pool.max_task_depth", "pool.nested_batches"}


def is_timing_field(name):
    if name in SKIP_FIELDS:
        return True
    if any(name.endswith(s) for s in SKIP_SUFFIXES):
        return True
    return any(s in name for s in SKIP_SUBSTRINGS)


def rows_by_label(report):
    return {row["label"]: row for row in report.get("results", [])}


def check_missing_rows(baseline, current):
    cur_rows = rows_by_label(current)
    return sorted(label for label in rows_by_label(baseline)
                  if label not in cur_rows)


def check_missing_fields(baseline, current):
    cur_rows = rows_by_label(current)
    missing = []
    for label, row in sorted(rows_by_label(baseline).items()):
        cur = cur_rows.get(label)
        if cur is None:
            continue  # reported as a missing row
        missing.extend(f"[{label}] {field}" for field in sorted(row)
                       if field not in cur)
    return missing


def check_counter_drift(baseline, current):
    base_rows = rows_by_label(baseline)
    cur_rows = rows_by_label(current)
    shared = sorted(set(base_rows) & set(cur_rows))
    if not shared:
        print("bench_compare: no shared labels between baseline and "
              "current report — nothing to compare", file=sys.stderr)
        return ["no shared labels"]
    failures = []
    for label in shared:
        b, c = base_rows[label], cur_rows[label]
        for field in sorted(set(b) & set(c)):
            if is_timing_field(field):
                continue
            if b[field] != c[field]:
                failures.append(
                    f"[{label}] {field}: baseline={b[field]} "
                    f"current={c[field]}")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("current")
    args = parser.parse_args()

    with open(args.baseline) as f:
        baseline = json.load(f)
    with open(args.current) as f:
        current = json.load(f)

    if baseline.get("bench") != current.get("bench"):
        print(f"bench_compare: comparing different benches: "
              f"{baseline.get('bench')} vs {current.get('bench')}",
              file=sys.stderr)
        return 1

    missing = check_missing_rows(baseline, current)
    missing_fields = check_missing_fields(baseline, current)
    drift = check_counter_drift(baseline, current)

    for label in missing:
        print(f"MISSING ROW: {label}", file=sys.stderr)
    for field in missing_fields:
        print(f"MISSING FIELD: {field}", file=sys.stderr)
    for line in drift:
        print(f"COUNTER DRIFT: {line}", file=sys.stderr)
    if missing or missing_fields or drift:
        print(f"bench_compare: FAILED ({len(missing)} missing rows, "
              f"{len(missing_fields)} missing fields, "
              f"{len(drift)} drifted counters)", file=sys.stderr)
        return 1
    n = len(set(rows_by_label(baseline)) & set(rows_by_label(current)))
    print(f"bench_compare: OK ({n} shared rows, counters identical)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
