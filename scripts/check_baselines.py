#!/usr/bin/env python3
"""Diffs a fresh scripts/run_benches.sh output tree against the checked-in
baseline and fails loudly on regression.

Usage:
    scripts/run_benches.sh build               # writes bench-results/quick/
    scripts/check_baselines.py [quick|full] [--timing-tolerance PCT]
        [--timing-table 'TABLEGLOB[:COLUMNGLOB]' ...]

Comparison model (mirrors scripts/update_baselines.py):
  * Each CSV table's columns split into three classes:
      - parameter columns (PARAM_COLUMNS): identify a row across runs;
      - timing columns (TIMING_MARKERS in the name): machine-dependent,
        compared only when --timing-tolerance is given;
      - everything else: deterministic counters that must match EXACTLY
        across machines for identical code (digest-backed determinism),
        including the `digest` hex columns of the fig_engine_scale tables.
  * Rows are matched on their parameter values. Fresh rows with no
    baseline counterpart (e.g. extra thread counts on a bigger machine)
    are informational; baseline rows missing from the fresh run fail.
  * --timing-table restricts which timing columns the tolerance applies
    to: each spec is 'TABLEGLOB' or 'TABLEGLOB:COLUMNGLOB' (fnmatch), and
    only matching columns are compared. This is how CI gates a
    machine-robust ratio (fig_engine_scale_kernels:soa_speedup) without
    failing on raw wall-clock columns that vary across hosts.
  * Any "deterministic" column valued other than "yes" fails outright.
  * A baseline table with no fresh counterpart fails (a bench silently
    disappearing is itself a regression).

Exit status: 0 clean, 1 regression, 2 usage/environment error.
"""
import argparse
import csv
import fnmatch
import json
import sys
from pathlib import Path

# Fallback only: the baseline's own "timing_columns" manifest (written by
# scripts/update_baselines.py, the single owner of the timing
# classification) is authoritative when present.
TIMING_MARKERS = ("second", "cpu", "ms", "time", "/sec", "speedup", "rss", "resident")
PARAM_COLUMNS = {
    "groups", "threads", "sessions", "straggler", "scenario", "method",
    "metric", "objective", "group size", "m", "n", "data size", "speed",
    "buffer", "alpha", "graph", "nodes", "scale", "rounds", "retired",
    "shards", "kills", "faults", "budget_kb",
}


def classify(columns, manifest_timing):
    """Splits column indices into (params, counters, timings).

    `manifest_timing` is the baseline's timing_columns entry for this table
    (None when the baseline predates the manifest — then the name
    heuristics apply).
    """
    params, counters, timings = [], [], []
    for i, c in enumerate(columns):
        name = c.lower()
        if name in PARAM_COLUMNS:
            params.append(i)
        elif (c in manifest_timing if manifest_timing is not None
              else any(m in name for m in TIMING_MARKERS)):
            timings.append(i)
        else:
            counters.append(i)
    return params, counters, timings


def load_results(results_dir):
    tables = {}
    for path in sorted(results_dir.glob("*.csv")):
        with path.open(newline="") as f:
            rows = list(csv.reader(f))
        if rows:
            tables[path.stem] = {"columns": rows[0], "rows": rows[1:]}
    return tables


def timing_gated(table, column, specs):
    """True when --timing-table specs allow comparing this timing column.

    With no specs, every timing column is compared. Each spec is
    'TABLEGLOB' (all of the table's timing columns) or
    'TABLEGLOB:COLUMNGLOB'.
    """
    if not specs:
        return True
    for spec in specs:
        table_glob, _, column_glob = spec.partition(":")
        if fnmatch.fnmatch(table, table_glob) and (
                not column_glob or fnmatch.fnmatch(column, column_glob)):
            return True
    return False


def close_enough(a, b, tolerance_pct):
    try:
        fa, fb = float(a), float(b)
    except ValueError:
        return a == b
    if fa == fb:
        return True
    base = max(abs(fa), abs(fb), 1e-12)
    return abs(fa - fb) / base <= tolerance_pct / 100.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("scale", nargs="?", default="quick")
    parser.add_argument(
        "--timing-tolerance", type=float, default=None, metavar="PCT",
        help="also compare timing columns, failing when a fresh value "
             "deviates more than PCT%% from the baseline (default: timing "
             "is reported but never fails — bench hosts differ)")
    parser.add_argument(
        "--timing-table", action="append", default=[], metavar="SPEC",
        help="with --timing-tolerance, compare only timing columns matching "
             "SPEC ('TABLEGLOB' or 'TABLEGLOB:COLUMNGLOB', fnmatch; "
             "repeatable). Default: all timing columns.")
    parser.add_argument(
        "--results", type=Path, default=None,
        help="results directory (default: bench-results/<scale>)")
    args = parser.parse_args()

    repo = Path(__file__).resolve().parent.parent
    baseline_path = repo / "bench" / "baselines" / f"{args.scale}.json"
    results_dir = args.results or (repo / "bench-results" / args.scale)
    if not baseline_path.is_file():
        print(f"error: {baseline_path} not found", file=sys.stderr)
        return 2
    if not results_dir.is_dir():
        print(f"error: {results_dir} not found — run scripts/run_benches.sh "
              "first", file=sys.stderr)
        return 2

    baseline = json.loads(baseline_path.read_text())
    fresh = load_results(results_dir)
    failures = []
    notes = []
    checked_rows = 0

    for name, base_table in sorted(baseline.get("tables", {}).items()):
        if name not in fresh:
            failures.append(f"{name}: bench table missing from fresh results")
            continue
        fresh_table = fresh[name]
        if fresh_table["columns"] != base_table["columns"]:
            failures.append(
                f"{name}: column set changed "
                f"(baseline {base_table['columns']} vs fresh "
                f"{fresh_table['columns']}) — regenerate the baseline "
                "(scripts/update_baselines.py) if intentional")
            continue
        columns = base_table["columns"]
        params, counters, timings = classify(
            columns, baseline.get("timing_columns", {}).get(name))
        if not params:
            # No recognizable parameter columns: match rows positionally.
            if len(fresh_table["rows"]) < len(base_table["rows"]):
                failures.append(
                    f"{name}: fresh run has {len(fresh_table['rows'])} "
                    f"row(s), baseline has {len(base_table['rows'])}")
            pairs = list(zip(base_table["rows"], fresh_table["rows"]))
        else:
            fresh_by_key = {}
            for row in fresh_table["rows"]:
                fresh_by_key.setdefault(
                    tuple(row[i] for i in params), []).append(row)
            pairs = []
            for row in base_table["rows"]:
                key = tuple(row[i] for i in params)
                matches = fresh_by_key.get(key)
                if not matches:
                    failures.append(
                        f"{name}: baseline row {key} missing from fresh run")
                    continue
                pairs.append((row, matches.pop(0)))
            extra = sum(len(v) for v in fresh_by_key.values())
            if extra:
                notes.append(f"{name}: {extra} fresh row(s) without a "
                             "baseline counterpart (informational)")

        for base_row, fresh_row in pairs:
            checked_rows += 1
            key = tuple(base_row[i] for i in params) if params else "row"
            for i in counters:
                if base_row[i] != fresh_row[i]:
                    failures.append(
                        f"{name} {key}: counter '{columns[i]}' changed "
                        f"{base_row[i]} -> {fresh_row[i]}")
            for i in timings:
                if (args.timing_tolerance is not None
                        and timing_gated(name, columns[i], args.timing_table)
                        and not close_enough(
                            base_row[i], fresh_row[i],
                            args.timing_tolerance)):
                    failures.append(
                        f"{name} {key}: timing '{columns[i]}' moved "
                        f"{base_row[i]} -> {fresh_row[i]} "
                        f"(> {args.timing_tolerance}%)")
            for i, c in enumerate(columns):
                if c.lower() == "deterministic" and fresh_row[i] != "yes":
                    failures.append(
                        f"{name} {key}: determinism check failed "
                        f"('{fresh_row[i]}')")

    for note in notes:
        print(f"note: {note}")
    print(f"checked {checked_rows} row(s) across "
          f"{len(baseline.get('tables', {}))} baseline table(s)")
    if failures:
        print(f"\nBASELINE REGRESSION ({len(failures)} finding(s)):",
              file=sys.stderr)
        for f in failures:
            print(f"  FAIL {f}", file=sys.stderr)
        return 1
    print("baselines OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
