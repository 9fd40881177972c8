#!/usr/bin/env python3
"""Self-test of the benchmark (run from the repository root):

  python3 perfbench/selftest.py [--seconds 2]

For every workload it checks that
  * two traced runs of one seed report bit-identical seed-exact counts
    (stored bytes, pages, ring requests, durable ops, hot/cold split);
  * a second seed runs clean, traced and untraced;
  * the metric names and units in BENCHMARK.json match the output (the
    driver reports no name or unit that BENCHMARK.json lacks, and every
    end-to-end metric), and the workload names match the ones run.py
    accepts;
  * the traced run writes a loadable Chrome trace whose spans cover at
    least 90% of the traced path.
Exits non-zero on the first failing check.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
import run  # noqa: E402  (the benchmark's own entry point)


def bench(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], cwd=ROOT, check=True, stdout=subprocess.PIPE,
        text=True).stdout.strip().splitlines()
    return json.loads(out[-2]), json.loads(out[-1])


def expect(ok, what):
    if not ok:
        print("FAIL:", what)
        sys.exit(1)
    print("ok:  ", what)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=float, default=2)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expect({w["name"] for w in spec["workloads"]} == set(run.WORKLOADS),
           "BENCHMARK.json workloads are the ones run.py accepts")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] +
             spec["per_layer"]}

    for w in run.WORKLOADS:
        ctx_a, res_a = bench(w, 1, args.seconds, 1)
        ctx_b, res_b = bench(w, 1, args.seconds, 1)
        expect(res_a["correct"] and res_b["correct"],
               "%s: traced runs are correct" % w)
        expect(ctx_a["counts"] and ctx_a["counts"] == ctx_b["counts"],
               "%s: seed-exact counts repeat bit for bit %s" %
               (w, ctx_a["counts"]))
        expect({k: v["unit"] for k, v in res_a["metrics"].items()} ==
               {m["name"]: m["unit"] for m in spec["per_layer"]},
               "%s: per-layer names and units match BENCHMARK.json" % w)
        coverage = res_a["metrics"]["trace.coverage"]["value"]
        expect(coverage >= 0.9, "%s: spans cover %.3f of the traced path" %
               (w, coverage))
        with open(os.path.join(ROOT, ctx_a["trace_file"])) as f:
            events = json.load(f)["traceEvents"]
        expect(len(events) > 0 and all(e["ph"] == "X" for e in events),
               "%s: Chrome trace loads (%d spans)" % (w, len(events)))

        ctx_c, res_c = bench(w, 2, args.seconds, 0)
        _, res_d = bench(w, 2, args.seconds, 1)
        expect(res_c["correct"] and res_d["correct"] and
               res_c["failed"] == 0, "%s: a second seed runs clean" % w)
        expect({k: v["unit"] for k, v in res_c["metrics"].items()} ==
               {m["name"]: m["unit"] for m in spec["end_to_end"]},
               "%s: end-to-end names and units match BENCHMARK.json" % w)
        expect(all(v["value"] > 0 for v in res_c["metrics"].values()),
               "%s: no end-to-end metric is zero" % w)
        expect(all(units[k] == v["unit"] for k, v in res_c["metrics"].items()),
               "%s: units agree" % w)
        expect(ctx_c["host"]["nproc"] >= sum(ctx_c["threads"].values()) and
               ctx_c["host"]["nproc"] >= ctx_c["noise"]["max_threads"],
               "%s: thread roles %s and the observed peak fit nproc" %
               (w, ctx_c["threads"]))
    print("selftest passed")


if __name__ == "__main__":
    main()
