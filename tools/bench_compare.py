#!/usr/bin/env python3
"""Compare two bench JSON runs; gate on within-run ratio floors.

Usage:
  tools/bench_compare.py BASELINE.json CANDIDATE.json [--threshold PCT]
                         [--require-speedup ROWSPEC:FACTOR]
                         [--require-geomean FLOOR]
                         [--require-method-ratio METHOD:FLOOR]

Two bench schemas are understood, keyed on the top-level "bench" field
(baseline and candidate must be the same kind):

  verify_throughput  rows matched on (app, method, mix, mode, memo,
                     workers_requested); throughput compared on
                     reports_per_s.
  sim_throughput     rows matched on (app, method, path) where path is
                     oracle/slot/fast; throughput compared on mips.

A row whose candidate throughput drops more than --threshold percent
(default 10) below the baseline is reported as a regression. That report
never fails the run: absolute MIPS/reports-per-s columns depend on the host
the bench ran on, so a slower runner flags nearly every row while the
within-run ratios reproduce. Rows present on only one side are reported
too (the grid legitimately grows and shrinks with modes).

The hard gate is the ratio-based assertions (--require-speedup,
--require-hit-rate, --require-geomean, --require-method-ratio). They are
computed *within* the candidate file, so they are host-independent; the
script exits nonzero only when one of them misses.

--require-geomean asserts that the candidate's geomean_speedup (the
fast-over-oracle wall-clock ratio a sim_throughput run reports) is at least
FLOOR, e.g. --require-geomean 3.0. Pass the candidate as both arguments to
gate on the floor alone without a baseline.

--require-method-ratio asserts, for one method of a sim_throughput file,
that the geomean over apps of the slot-over-fast wall-clock ratio (how much
superblock fusion buys that method within the candidate run) is at least
FLOOR, e.g. --require-method-ratio rap:1.03. Repeatable, one method each.

--require-speedup asserts a minimum ratio *within* the candidate file
between a memo=on row and its memo=off sibling, e.g.:

  --require-speedup gps/traces/clean/serial_shared:1.5

which enforces the memoization acceptance bar (memo-on reports_per_s must
be at least 1.5x memo-off on that repeated-workload row) without needing a
baseline file at all (pass the candidate as both arguments). A six-part
rowspec names the two memo variants explicitly, e.g.:

  --require-speedup gps/naive/clean/serial_shared/on/off:1.0

--require-hit-rate asserts a segment_hit_rate floor on a single candidate
row, named by a five-part rowspec (app/method/mix/mode/memo), e.g.:

  --require-hit-rate gps/traces/clean/serial_shared/on:0.9

which asserts the sub-path memo actually splices on the repeated TRACES
chain.

Wall-clock benches are noisy; compare like with like ("release" and "quick"
flags must match between the two files, or the comparison is refused).
"""

from __future__ import annotations

import argparse
import json
import math
import sys


# Per-schema row identity and throughput metric.
BENCH_KINDS = {
    "verify_throughput": {"metric": "reports_per_s"},
    "sim_throughput": {"metric": "mips"},
}


def row_key(row: dict, kind: str) -> tuple:
    if kind == "sim_throughput":
        return (row.get("app"), row.get("method"), row.get("path"))
    return (
        row.get("app"),
        row.get("method"),
        row.get("mix"),
        row.get("mode"),
        row.get("memo", "off"),
        row.get("workers_requested", row.get("workers", 1)),
    )


def fmt_key(key: tuple) -> str:
    if len(key) == 3:
        app, method, path = key
        return f"{app}/{method}/{path}"
    app, method, mix, mode, memo, workers = key
    return f"{app}/{method}/{mix}/{mode}/memo={memo}/w{workers}"


def load(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as err:
        sys.exit(f"error: cannot read {path}: {err}")
    if doc.get("bench") not in BENCH_KINDS:
        sys.exit(f"error: {path} is not a recognised bench file "
                 f"(want one of {sorted(BENCH_KINDS)})")
    return doc


def index_rows(doc: dict, path: str) -> dict:
    kind = doc.get("bench")
    rows = {}
    for row in doc.get("rows", []):
        key = row_key(row, kind)
        if key in rows:
            sys.exit(f"error: {path} has duplicate row {fmt_key(key)}")
        rows[key] = row
    return rows


def check_speedup(rows: dict, spec: str) -> list[str]:
    """ROWSPEC:FACTOR — ratio floor between two memo variants of one row.

    Four-part rowspec (app/method/mix/mode) compares memo=on vs memo=off;
    six-part (app/method/mix/mode/memoA/memoB) names the variants.
    """
    try:
        rowspec, factor_text = spec.rsplit(":", 1)
        parts = rowspec.split("/")
        if len(parts) == 4:
            app, method, mix, mode = parts
            memo_num, memo_den = "on", "off"
        else:
            app, method, mix, mode, memo_num, memo_den = parts
        factor = float(factor_text)
    except ValueError:
        sys.exit(f"error: bad --require-speedup spec: {spec!r} "
                 "(want app/method/mix/mode[/memoA/memoB]:factor)")
    num = den = None
    for key, row in rows.items():
        if key[:4] == (app, method, mix, mode):
            if key[4] == memo_num:
                num = row
            elif key[4] == memo_den:
                den = row
    if num is None or den is None:
        return [f"{rowspec}: missing memo={memo_num}/memo={memo_den} row pair"]
    failures = []
    ratio = num["reports_per_s"] / max(den["reports_per_s"], 1e-9)
    if ratio < factor:
        failures.append(
            f"{rowspec}: memo={memo_num} is {ratio:.2f}x memo={memo_den} "
            f"({num['reports_per_s']:.0f} vs {den['reports_per_s']:.0f} "
            f"reports/s), below the required {factor:.2f}x")
    return failures


def check_hit_rate(rows: dict, spec: str) -> list[str]:
    """ROWSPEC:FLOOR — minimum segment_hit_rate on one candidate row.

    Rowspec is five-part (app/method/mix/mode/memo). The gated metric is the
    sub-path (segment) tier alone; rate floors are hit-count ratios, so they
    are deterministic for a fixed chain, unlike wall-clock columns.
    """
    try:
        rowspec, floor_text = spec.rsplit(":", 1)
        app, method, mix, mode, memo = rowspec.split("/")
        floor = float(floor_text)
    except ValueError:
        sys.exit(f"error: bad --require-hit-rate spec: {spec!r} "
                 "(want app/method/mix/mode/memo:floor)")
    target = None
    for key, row in rows.items():
        if key[:5] == (app, method, mix, mode, memo):
            target = row
    if target is None:
        return [f"{rowspec}: no such row in candidate"]
    rate = target.get("segment_hit_rate", 0.0)
    if rate < floor:
        return [f"{rowspec}: segment_hit_rate {rate:.3f} below the "
                f"required {floor:.3f} floor"]
    return []


def check_method_ratio(rows: dict, spec: str) -> list[str]:
    """METHOD:FLOOR — geomean fast-over-slot speedup of one method's rows."""
    try:
        method, floor_text = spec.rsplit(":", 1)
        floor = float(floor_text)
    except ValueError:
        sys.exit(f"error: bad --require-method-ratio spec: {spec!r} "
                 "(want method:floor)")
    logs = []
    for (app, row_method, path), slot in rows.items():
        if row_method != method or path != "slot":
            continue
        fast = rows.get((app, method, "fast"))
        if fast is None:
            return [f"{method}: {app} has a slot row but no fast row"]
        logs.append(math.log(slot["wall_ns"] / max(fast["wall_ns"], 1)))
    if not logs:
        return [f"{method}: no slot/fast rows in candidate"]
    ratio = math.exp(sum(logs) / len(logs))
    print(f"{method}: fast-over-slot geomean {ratio:.3f}x over "
          f"{len(logs)} apps")
    if ratio < floor:
        return [f"{method}: fast-over-slot geomean {ratio:.3f}x below the "
                f"required {floor:.2f}x floor"]
    return []


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("candidate")
    parser.add_argument("--threshold", type=float, default=10.0,
                        help="reports_per_s drop reported as a regression, "
                             "percent (default: 10; report-only)")
    parser.add_argument("--require-speedup", action="append", default=[],
                        metavar="ROWSPEC:FACTOR",
                        help="assert memo-on/memo-off ratio within the "
                             "candidate, e.g. gps/traces/clean/"
                             "serial_shared:1.5 (repeatable)")
    parser.add_argument("--require-hit-rate", action="append", default=[],
                        metavar="ROWSPEC:FLOOR",
                        help="assert a segment_hit_rate floor on one "
                             "candidate row, e.g. gps/traces/clean/"
                             "serial_shared/on:0.9 (repeatable)")
    parser.add_argument("--require-geomean", type=float, default=None,
                        metavar="FLOOR",
                        help="assert the candidate's geomean_speedup is at "
                             "least FLOOR (sim_throughput files)")
    parser.add_argument("--require-method-ratio", action="append",
                        default=[], metavar="METHOD:FLOOR",
                        help="assert one method's fast-over-slot geomean "
                             "within the candidate, e.g. rap:1.03 "
                             "(sim_throughput files, repeatable)")
    args = parser.parse_args()

    base_doc = load(args.baseline)
    cand_doc = load(args.candidate)
    kind = base_doc.get("bench")
    if cand_doc.get("bench") != kind:
        sys.exit(f"error: bench kinds differ ({kind} vs "
                 f"{cand_doc.get('bench')})")
    metric = BENCH_KINDS[kind]["metric"]
    if kind != "verify_throughput" and (args.require_speedup or
                                        args.require_hit_rate):
        sys.exit("error: --require-speedup/--require-hit-rate apply to "
                 "verify_throughput files only")
    if ((args.require_geomean is not None or args.require_method_ratio) and
            kind != "sim_throughput"):
        sys.exit("error: --require-geomean/--require-method-ratio apply to "
                 "sim_throughput files only")
    for flag in ("release", "quick"):
        if base_doc.get(flag) != cand_doc.get(flag):
            sys.exit(f"error: refusing to compare: '{flag}' differs "
                     f"({base_doc.get(flag)} vs {cand_doc.get(flag)}) — "
                     "wall-clock rows are only comparable like for like")

    base = index_rows(base_doc, args.baseline)
    cand = index_rows(cand_doc, args.candidate)

    regressions = []
    improved = 0
    for key, base_row in sorted(base.items()):
        cand_row = cand.get(key)
        if cand_row is None:
            print(f"note: row only in baseline: {fmt_key(key)}")
            continue
        before = base_row[metric]
        after = cand_row[metric]
        if before <= 0:
            continue
        delta_pct = (after - before) * 100.0 / before
        if delta_pct < -args.threshold:
            regressions.append(
                f"{fmt_key(key)}: {before:.0f} -> {after:.0f} {metric} "
                f"({delta_pct:+.1f}%)")
        elif delta_pct > args.threshold:
            improved += 1
    for key in sorted(set(cand) - set(base)):
        print(f"note: new row in candidate: {fmt_key(key)}")

    speedup_failures = []
    for spec in args.require_speedup:
        speedup_failures.extend(check_speedup(cand, spec))
    hit_rate_failures = []
    for spec in args.require_hit_rate:
        hit_rate_failures.extend(check_hit_rate(cand, spec))
    geomean_failures = []
    if args.require_geomean is not None:
        geomean = cand_doc.get("geomean_speedup", 0.0)
        if geomean < args.require_geomean:
            geomean_failures.append(
                f"candidate geomean_speedup {geomean:.2f}x below the "
                f"required {args.require_geomean:.2f}x floor")

    method_failures = []
    for spec in args.require_method_ratio:
        method_failures.extend(check_method_ratio(cand, spec))

    print(f"compared {len(set(base) & set(cand))} rows: "
          f"{len(regressions)} regressed beyond {args.threshold:.0f}%, "
          f"{improved} improved beyond it (absolute rows are report-only)")
    for line in regressions:
        print(f"regression (report-only): {line}")
    for line in speedup_failures:
        print(f"SPEEDUP MISSED: {line}")
    for line in hit_rate_failures:
        print(f"HIT RATE MISSED: {line}")
    for line in geomean_failures:
        print(f"GEOMEAN MISSED: {line}")
    for line in method_failures:
        print(f"METHOD RATIO MISSED: {line}")
    return 1 if (speedup_failures or hit_rate_failures or
                 geomean_failures or method_failures) else 0


if __name__ == "__main__":
    sys.exit(main())
