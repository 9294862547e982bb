#!/usr/bin/env python3
"""Self-test of the bench gate on stub harnesses.

Each stub is a shell script that prints fixed stdout, writes a fixed trace to
$SVAGC_TRACE_OUT and exits with a fixed code; it exits 9 instead if the gate
passed it any SVAGC_* variable besides the three it must set. The clean stub
is recorded with --update-baseline, every stub is checked against a copy of
that entry, and each stub but the clean one must fail with its own message.

Usage: gate_selftest.py path/to/check_regression.py
"""

import json
import os
import subprocess
import sys
import tempfile

TABLE = {"id": "t", "headers": ["arm", "GC(ms)", "gain"],
         "rows": [["a", "1.500", "2.0x"]]}
STDOUT = "cost profile: stub\n" + json.dumps(TABLE) + "\n"


def event(drop=None, **fields):
    e = {"name": "cycle", "cat": "gc", "ph": "X", "pid": 1, "tid": 0,
         "ts": 0, "dur": 1.5}
    e.update(fields)
    e.pop(drop, None)
    return json.dumps(e)


def trace(events=event(), head='"displayTimeUnit": "ms", '):
    return "{" + head + '"traceEvents": [' + events + "]}\n"


# name: (stdout, trace, exit code, phrase the gate must print; None = pass)
CASES = {
    "clean": (STDOUT, trace(), 0, None),
    "changed_cell": (STDOUT.replace("1.500", "1.501"), trace(), 0,
                     "col 'GC(ms)': 1.501 (baseline 1.500)"),
    "added_row": (STDOUT.replace('"2.0x"]', '"2.0x"], ["b", "1", "1x"]'),
                  trace(), 0, "row 1: ['b', '1', '1x'] (baseline None)"),
    "inf_cell": (STDOUT.replace("2.0x", "infx"), trace(), 0,
                 "non-finite cell 'infx'"),
    "nan_cell": (STDOUT.replace("1.500", "-nan"), trace(), 0,
                 "non-finite cell '-nan'"),
    "malformed_line": (STDOUT + '{"id": "u", "rows": [[NaN]]}\n', trace(), 0,
                       "stdout line 3 is not strict JSON"),
    "no_table": ("cost profile: stub\n", trace(), 0, "printed no JSON table"),
    "nonzero_exit": (STDOUT, trace(), 3, "exited 3"),
    "event_count": (STDOUT, trace(event() + ", " + event()), 0,
                    "2 trace events (baseline 1)"),
    "empty_trace": (STDOUT, "", 0, "trace is not strict JSON"),
    "array_trace": (STDOUT, "[]", 0, "document keys"),
    "no_trace_events": (STDOUT, '{"displayTimeUnit": "ms"}', 0,
                        "no traceEvents"),
    "unknown_doc_key": (STDOUT, trace(head='"surprise": [], '), 0,
                        "document keys"),
    "unknown_event_key": (STDOUT, trace(event(args={})), 0, "keys are not"),
    "ph_b": (STDOUT, trace(event(ph="B")), 0, "span schema"),
    "missing_key": (STDOUT, trace(event(drop="dur")), 0, "keys are not"),
    "fractional_tid": (STDOUT, trace(event(tid=0.5)), 0, "span schema"),
    "negative_pid": (STDOUT, trace(event(pid=-1)), 0, "span schema"),
    "empty_name": (STDOUT, trace(event(name="")), 0, "span schema"),
    "negative_dur": (STDOUT, trace(event(dur=-1)), 0, "span schema"),
    "trailing_garbage": (STDOUT, trace() + "garbage", 0,
                         "trace is not strict JSON"),
}


def write_stub(bench_dir, data_dir, name, stdout, trace_text, code):
    out, tr = (os.path.join(data_dir, name + ext) for ext in (".out", ".tr"))
    with open(out, "w") as f:
        f.write(stdout)
    with open(tr, "w") as f:
        f.write(trace_text)
    env = "\n".join(["SVAGC_BENCH_JSON=1", "SVAGC_BENCH_SMOKE=1",
                     f"SVAGC_TRACE_OUT={bench_dir}/{name}.trace.json"])
    stub = os.path.join(bench_dir, name)
    with open(stub, "w") as f:
        f.write(f"#!/bin/sh\n"
                f"[ \"$(env | grep '^SVAGC_' | sort)\" = '{env}' ] || exit 9\n"
                f"cat '{out}'\ncat '{tr}' > \"$SVAGC_TRACE_OUT\"\n"
                f"exit {code}\n")
    os.chmod(stub, 0o755)


def gate(checker, baseline, bench_dir, *args):
    env = dict(os.environ, SVAGC_SOAK_SCALE="10")
    proc = subprocess.run(
        [sys.executable, checker, "--baseline", baseline,
         "--bench-dir", bench_dir, *args],
        env=env, capture_output=True, text=True, timeout=60)
    return proc.returncode, proc.stdout + proc.stderr


def main():
    checker = os.path.abspath(sys.argv[1])
    errors = []
    with tempfile.TemporaryDirectory() as tmp:
        bench_dir, data_dir = os.path.join(tmp, "bench"), tmp
        os.mkdir(bench_dir)
        for name, (stdout, trace_text, code, _) in CASES.items():
            write_stub(bench_dir, data_dir, name, stdout, trace_text, code)
        baseline = os.path.join(tmp, "baseline.json")

        rc, out = gate(checker, baseline, bench_dir, "--update-baseline",
                       "clean", "inf_cell")
        if rc == 0 or os.path.exists(baseline):
            errors.append(f"update recorded a failing harness:\n{out}")
        rc, out = gate(checker, baseline, bench_dir, "--update-baseline",
                       "clean")
        clean = {"tables": [TABLE], "trace_events": 1}
        if rc != 0 or json.load(open(baseline))["clean"] != clean:
            print(f"update did not record the clean stub:\n{out}")
            return 1
        with open(baseline, "w") as f:
            json.dump({name: clean for name in CASES}, f)

        for name, (_, _, _, phrase) in CASES.items():
            rc, out = gate(checker, baseline, bench_dir, name)
            ok = rc == 0 if phrase is None else rc == 1 and phrase in out
            print(f"[{'ok' if ok else 'FAIL'}] {name}: exit {rc}")
            if not ok:
                errors.append(f"{name}: want {phrase or 'pass'}, got:\n{out}")
        for left in ("clean.tables.json", "clean.trace.json"):
            if not os.path.exists(os.path.join(bench_dir, left)):
                errors.append(f"the gate left no {left}")
    for error in errors:
        print(error)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
