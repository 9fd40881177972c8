#!/usr/bin/env python3
"""End-to-end benchmark of the PreSto data path.

Builds the benchmark driver (perfbench/CMakeLists.txt, which compiles the
system's libraries from ../src), runs one workload, and prints:

  * a host/provenance line (``{"host": ...}``) describing the machine, the
    source tree, the thread budget and the run's noise provenance;
  * as the last line, the result: ``{"correct", "attempted", "failed",
    "metrics"}`` -- the end-to-end metrics with ``--trace 0``, the
    per-layer metrics with ``--trace 1``.

Usage (from the repository root):

  python3 perfbench/run.py --workload train_rm1_cold --seed 1 \
      --seconds 20 --trace 0

The metric names and units are read from BENCHMARK.json at the
repository root, the only list of them. The driver reports every
end-to-end metric and the per-layer metrics of the layers the workload's
own path uses; this script reports the per-layer metrics of bypassed
layers as 0. A name or unit that is not in BENCHMARK.json, or a missing
end-to-end metric, marks the run incorrect.
"""
import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("train_rm1_cold", "train_rm5_hot", "serve_mixed")
# The whole run must end within 180 s; the driver gets what is left
# after the build, minus a margin for reporting.
RUN_LIMIT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_root():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return base if os.path.isabs(base) else os.path.join(ROOT, base)


def build(build_dir):
    """Configure (once) and build the driver; returns its path."""
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target",
                    "perfbench_driver", "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "perfbench_driver")


def source_digest():
    """sha256 over the system sources and the benchmark's own files."""
    h = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def host_info(path):
    info = {"nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "kernel": platform.release(),
            "python": platform.python_version()}
    try:
        with open("/proc/cpuinfo") as f:
            cpuinfo = f.read()
        for line in cpuinfo.splitlines():
            if line.startswith("model name"):
                info["cpu"] = line.split(":", 1)[1].strip()
                break
        flags = next((l.split(":", 1)[1].split() for l in cpuinfo.splitlines()
                      if l.startswith("flags")), [])
        info["simd_flags"] = [f for f in ("sse4_2", "avx2", "bmi2", "avx512f",
                                          "avx512bw", "avx512vbmi")
                              if f in flags]
        info["hypervisor"] = "hypervisor" in flags
        with open("/proc/meminfo") as f:
            info["mem_total_kib"] = int(f.readline().split()[1])
    except OSError:
        pass
    # Filesystem holding the segment stores (the disk the cold path reads).
    best = ""
    try:
        with open("/proc/mounts") as f:
            for line in f:
                dev, mnt, fstype = line.split()[:3]
                if path.startswith(mnt) and len(mnt) >= len(best):
                    best = mnt
                    info["disk"] = {"device": dev, "mount": mnt,
                                    "fstype": fstype}
    except OSError:
        pass
    return info


def expected_units():
    """(end-to-end, per-layer) metric name -> unit, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def check_metrics(metrics, want, fill_zero):
    """Errors of the driver's @metrics against the name -> unit map @want;
    with @fill_zero, names the driver did not report are added as 0."""
    errors = ["metric %s with unit %s is not in BENCHMARK.json" %
              (k, v["unit"])
              for k, v in sorted(metrics.items())
              if want.get(k) != v["unit"]]
    for name, unit in want.items():
        if name in metrics:
            continue
        if fill_zero:
            metrics[name] = {"value": 0, "unit": unit}
        else:
            errors.append("metric %s was not reported" % name)
    return errors


def main():
    start = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    e2e_units, layer_units = expected_units()
    broot = build_root()
    try:
        driver = build(os.path.join(broot, "perfbench"))
    except (OSError, subprocess.CalledProcessError) as err:
        log("build failed: %s" % err)
        return 1
    workdir = os.path.join(broot, "run-%s-%d" % (args.workload, os.getpid()))
    trace_dir = os.path.join(broot, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    trace_path = os.path.join(trace_dir, "%s-seed%d.json" %
                              (args.workload, args.seed))
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir, "--trace-out", trace_path]
    budget = max(1.0, RUN_LIMIT_S - (time.monotonic() - start))
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=budget)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        log("driver exited with code %d" % proc.returncode)
        return 1
    report = json.loads(proc.stdout.strip().splitlines()[-1])

    metrics = report["per_layer"] if args.trace else report["end_to_end"]
    name_errors = check_metrics(
        metrics, layer_units if args.trace else e2e_units,
        fill_zero=bool(args.trace))
    errors = list(report["errors"]) + name_errors
    failed = report["failed"] + (1 if name_errors else 0)
    attempted = report["attempted"] + 1

    context = {
        "host": host_info(workdir),
        "provenance": {"source_digest": source_digest(),
                       "build": report["build"],
                       "workload": args.workload, "seed": args.seed,
                       "seconds": args.seconds, "trace": args.trace},
        "threads": report["threads"],
        "noise": {k: report["context"].get(k, report["context"].get(
                      "untraced." + k))
                  for k in ("steal_share", "cpu_over_wall", "max_threads",
                            "nproc")},
        "counts": report["counts"],
        "context": report["context"],
        "errors": errors,
    }
    if args.trace:
        context["trace_file"] = os.path.relpath(trace_path, ROOT)
    reports = os.path.join(broot, "reports")
    os.makedirs(reports, exist_ok=True)
    with open(os.path.join(reports, "%s-seed%d-trace%d.json" % (
            args.workload, args.seed, args.trace)), "w") as f:
        json.dump({"context": context, "report": report}, f, indent=1)
    print(json.dumps(context, sort_keys=True))
    print(json.dumps({"correct": failed == 0 and report["correct"],
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
