#!/usr/bin/env python3
"""Self-tests of the two-clock benchmark, at a tiny size (about a minute).

    python3 svbench/selftest.py

Checks, for every workload in BENCHMARK.json:
  * --trace 0 prints every end-to-end metric, and --trace 1 every per-layer
    metric, by name with the unit BENCHMARK.json gives it, with no failed
    replay;
  * the traced run's per-layer self times sum to no more than the traced
    replay's wall time, and its modeled fingerprint equals the untraced one
    wherever the untraced replays agree with each other;
and once each:
  * svbench_metrics_test: a fleet's per-tenant values are summed over its
    tenants and its machine-wide values are read once;
  * a corrupted reference digest makes every replay fail (failed_pct = 100);
  * the same seed gives the same modeled results and another seed different
    ones;
  * an unknown workload exits non-zero without printing a result.
Exits non-zero on the first failed check.
"""
import json
import os
import re
import subprocess
import sys

import run as bench

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(*args):
    command = [sys.executable, os.path.join(HERE, "run.py"), *args]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def result(workload, trace, *extra, seed="1"):
    code, out, err = run("--workload", workload, "--seed", seed,
                         "--seconds", "1", "--trace", trace, "--tiny", *extra)
    if code != 0:
        sys.exit("FAIL %s --trace %s exited %d\n%s" % (workload, trace, code,
                                                        err[-2000:]))
    return json.loads(out.strip().splitlines()[-1]), out


def check(condition, message):
    if not condition:
        sys.exit("FAIL " + message)
    print("ok   " + message)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    out = bench.build_dir()
    check(bench.build(out) and subprocess.run(
        ["cmake", "--build", out, "--target", "svbench_metrics_test"],
        stdout=subprocess.DEVNULL).returncode == 0,
        "svbench_metrics_test builds")
    check(subprocess.run([os.path.join(out, "svbench_metrics_test")])
          .returncode == 0,
          "a fleet's machine-wide totals do not scale with its tenant count")

    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in ("0", "1"):
            res, out = result(workload, trace)
            units = {k: v["unit"] for k, v in res["metrics"].items()}
            check(units == expected[trace],
                  "%s --trace %s prints every metric with its unit"
                  % (workload, trace))
            check(res["correct"] and res["failed"] == 0 and
                  res["attempted"] >= 1,
                  "%s --trace %s: correct, %d of %d replays failed"
                  % (workload, trace, res["failed"], res["attempted"]))
            if trace == "1":
                pairs = re.findall(
                    r"traced replay: wall_ms=([\d.]+) self_sum_ms=([\d.]+)",
                    out)
                check(pairs and all(float(s) <= float(w) for w, s in pairs),
                      "%s self times sum to at most the traced wall time"
                      % workload)
                check("fingerprint DIFFERS" not in out,
                      "%s traced fingerprint check holds"
                      % workload)

    res, _ = result("large-swap", "1", "--corrupt-reference")
    check(res["metrics"]["failed_pct"]["value"] == 100 and
          res["failed"] == res["attempted"] and not res["correct"],
          "a corrupted reference digest reads as failed_pct = 100")

    def model(seed):
        res, _ = result("large-swap", "0", seed=seed)
        return {k: v["value"] for k, v in res["metrics"].items()
                if k.startswith("model_")}
    first, again, other = model("3"), model("3"), model("4")
    check(first == again, "the same seed gives the same modeled results")
    check(first != other, "another seed gives other modeled results")

    code, out, _ = run("--workload", "no-such-workload", "--seed", "1",
                       "--seconds", "1", "--trace", "0")
    check(code != 0 and "{" not in out,
          "an unknown workload exits non-zero without a result")
    print("all self-tests passed")


if __name__ == "__main__":
    main()
