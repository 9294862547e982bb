#!/usr/bin/env python3
"""Bench gate: every table cell and trace event count vs a checked-in baseline.

Runs each named harness once in smoke mode, with SVAGC_BENCH_SMOKE=1,
SVAGC_BENCH_JSON=1 and SVAGC_TRACE_OUT=<bench-dir>/<name>.trace.json and no
other SVAGC_* variable. A harness fails the gate when it exits non-zero,
prints a `{` line that is not a strict JSON table, prints no table, prints a
cell that reads as inf or nan, or writes a trace that is not the shape
telemetry::TraceToJson emits. Every table is then compared exactly with the
harness's entry in the baseline, {"tables": [...], "trace_events": N}: the
numbers are modeled cycles, deterministic on every host, so any change is a
real one. The gate leaves <name>.tables.json (the entry it compared) and
<name>.trace.json next to each binary.

When a change moves a harness's output on purpose, re-record that harness
and say why in CHANGES.md:

    python3 bench/check_regression.py --baseline bench/BENCH_baseline.json \
        --bench-dir build/bench --update-baseline fig19_plan_optimizer
"""

import argparse
import json
import math
import os
import re
import subprocess
import sys

TABLE_KEYS = {"id", "headers", "rows"}
DOC_KEYS = {"displayTimeUnit", "otherData", "traceEvents"}
EVENT_KEYS = {"name", "cat", "ph", "pid", "tid", "ts", "dur"}
# A unit a harness may print after a number: "1.5x", "42.0%", "3 ms".
UNIT_SUFFIX = re.compile(r"(x|%|\s+[A-Za-z/()]+)$")


class GateError(Exception):
    pass


def reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_loads(text):
    """json.loads without NaN/Infinity; trailing data is already an error."""
    return json.loads(text, parse_constant=reject_constant)


def is_non_finite(cell):
    try:
        return not math.isfinite(float(UNIT_SUFFIX.sub("", str(cell))))
    except ValueError:
        return False


def parse_tables(stdout):
    tables = []
    for n, line in enumerate(stdout.splitlines(), 1):
        if not line.startswith("{"):
            continue
        try:
            table = strict_loads(line)
        except ValueError as e:
            raise GateError(f"stdout line {n} is not strict JSON: {e}")
        if not isinstance(table, dict) or not TABLE_KEYS <= table.keys():
            raise GateError(f"stdout line {n} is not a table: {line}")
        for row in table["rows"]:
            for cell in row:
                if is_non_finite(cell):
                    raise GateError(
                        f"table '{table['id']}' row {row}: "
                        f"non-finite cell '{cell}'"
                    )
        tables.append(table)
    if not tables:
        raise GateError("printed no JSON table")
    return tables


def is_count(v):
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


def is_time(v):
    return (
        isinstance(v, (int, float))
        and not isinstance(v, bool)
        and math.isfinite(v)
        and v >= 0
    )


def check_trace(text):
    """Returns the event count of a trace in TraceToJson's exact shape."""
    try:
        doc = strict_loads(text)
    except ValueError as e:
        raise GateError(f"trace is not strict JSON: {e}")
    if not isinstance(doc, dict) or not doc.keys() <= DOC_KEYS:
        raise GateError(f"trace document keys are not within {DOC_KEYS}")
    if not isinstance(doc.get("traceEvents"), list):
        raise GateError("trace has no traceEvents array")
    for i, e in enumerate(doc["traceEvents"]):
        if not isinstance(e, dict) or e.keys() != EVENT_KEYS:
            raise GateError(f"trace event {i} keys are not {EVENT_KEYS}: {e}")
        ok = (
            e["ph"] == "X"
            and all(isinstance(e[k], str) and e[k] for k in ("name", "cat"))
            and is_count(e["pid"])
            and is_count(e["tid"])
            and is_time(e["ts"])
            and is_time(e["dur"])
        )
        if not ok:
            raise GateError(f"trace event {i} breaks the span schema: {e}")
    return len(doc["traceEvents"])


def run_harness(bench_dir, name):
    """Runs one harness and returns its baseline entry."""
    trace = os.path.join(bench_dir, f"{name}.trace.json")
    if os.path.exists(trace):
        os.remove(trace)
    env = {k: v for k, v in os.environ.items() if not k.startswith("SVAGC_")}
    env.update(
        SVAGC_BENCH_SMOKE="1", SVAGC_BENCH_JSON="1", SVAGC_TRACE_OUT=trace
    )
    proc = subprocess.run(
        [os.path.join(bench_dir, name)],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    if proc.returncode != 0:
        raise GateError(
            f"exited {proc.returncode}:\n{proc.stdout}{proc.stderr}"
        )
    entry = {"tables": parse_tables(proc.stdout), "trace_events": 0}
    if os.path.exists(trace):
        with open(trace) as f:
            entry["trace_events"] = check_trace(f.read())
    with open(os.path.join(bench_dir, f"{name}.tables.json"), "w") as f:
        json.dump(entry, f, indent=1)
        f.write("\n")
    return entry


def at(items, i):
    return items[i] if i < len(items) else None


def first_difference(want, got):
    """Names the first place where `got` differs from the baseline entry."""
    for t in range(max(len(want["tables"]), len(got["tables"]))):
        w, g = at(want["tables"], t), at(got["tables"], t)
        if w is None or g is None:
            return f"table {t}: {g and g['id']} (baseline {w and w['id']})"
        where = f"table '{w['id']}'"
        if (w["id"], w["headers"]) != (g["id"], g["headers"]):
            return f"{where}: now '{g['id']}' {g['headers']}"
        for r in range(max(len(w["rows"]), len(g["rows"]))):
            wr, gr = at(w["rows"], r), at(g["rows"], r)
            if wr is None or gr is None or len(wr) != len(gr):
                return f"{where} row {r}: {gr} (baseline {wr})"
            for c, (wc, gc) in enumerate(zip(wr, gr)):
                if wc != gc:
                    col = at(w["headers"], c)
                    return (
                        f"{where} row {r} '{wr[0]}' col '{col}': "
                        f"{gc} (baseline {wc})"
                    )
    return (
        f"{got['trace_events']} trace events "
        f"(baseline {want['trace_events']})"
    )


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    ap.add_argument("--baseline", required=True)
    ap.add_argument("--bench-dir", required=True)
    ap.add_argument(
        "--update-baseline",
        action="store_true",
        help="re-record the named harnesses in the baseline and keep every "
        "other entry",
    )
    ap.add_argument("harnesses", nargs="+")
    args = ap.parse_args()

    baseline = {}
    if os.path.exists(args.baseline):
        with open(args.baseline) as f:
            baseline = json.load(f)

    failures = []
    for name in args.harnesses:
        try:
            entry = run_harness(args.bench_dir, name)
        except (GateError, OSError, subprocess.TimeoutExpired) as e:
            failures.append(f"{name}: {e}")
            continue
        print(
            f"ran {name}: {len(entry['tables'])} table(s), "
            f"{entry['trace_events']} trace event(s)"
        )
        if args.update_baseline:
            baseline[name] = entry
        elif name not in baseline:
            failures.append(f"{name}: no baseline entry (--update-baseline)")
        elif entry != baseline[name]:
            diff = first_difference(baseline[name], entry)
            failures.append(f"{name}: {diff}")

    if failures:
        print(f"{len(failures)} harness(es) failed the bench gate:")
        for failure in failures:
            print(f"  {failure}")
        return 1
    if args.update_baseline:
        with open(args.baseline, "w") as f:
            json.dump(baseline, f, indent=1, sort_keys=True)
            f.write("\n")
        print(f"baseline updated: {args.baseline} ({len(args.harnesses)})")
    else:
        print(f"all {len(args.harnesses)} harnesses match the baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
