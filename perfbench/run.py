#!/usr/bin/env python3
"""End-to-end benchmark of the ERT simulator (see README.md).

    python3 perfbench/run.py --workload cycloid2048_af --seed 1 --seconds 15 --trace 0

Builds the simulator and the `ertbench` program from source into
$CARGO_TARGET_DIR (default .bench_build), then measures one workload by
running `ertbench` processes, one simulation each, single-threaded.

--trace 0 prints the end-to-end metrics; --trace 1 runs traced/untraced pairs
and prints the per-layer metrics. Either way the program's outputs are
checked, a full report (medians, quartiles, samples, machine and build
details) is printed as a JSON line, and the last line of standard output is
the summary {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cycloid2048_af", "cycloid2048_f", "cycloid2048_f_churn",
             "chord2e17_af")
# Seeds of one run are seed * SEED_STRIDE + k, so runs with different
# --seed never share a simulation.
SEED_STRIDE = 1009
# Set-up is timed on one build before each measured simulation, and on at
# least SETUP_MIN_BUILDS builds.
SETUP_MIN_BUILDS = 3
# The layers may be priced at most this share of the traced wall above what
# the engine spent (median harness.self_share >= -tolerance): the replay
# runs after the traced run, and back-to-back runs of one simulation on the
# reference host differ by up to ~10%.
COVERAGE_TOLERANCE = 0.10

END_TO_END_UNITS = {
    "lookups_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "drop_share": "ratio",
    "sim_lookup_mean_s": "s",
    "sim_lookup_p99_s": "s",
    "sim_p99_congestion": "ratio",
    "sim_path_hops": "hops",
}
SIM_METRICS = ("sim_lookup_mean_s", "sim_lookup_p99_s", "sim_p99_congestion",
               "sim_path_hops")


def layer_unit(name):
    """Unit of a per-layer metric, from its name."""
    last = name.rsplit(".", 1)[-1]
    if last.endswith("_s"):
        return "s"
    if last == "ns" or name == "sim.ns_per_event":
        return "ns"
    if last.endswith(("share", "ratio")):
        return "ratio"
    return {
        "overlay.candidates_per_hop": "cands/hop",
        "ert.forward.probes_per_call": "probes/call",
        "sim.events_per_lookup": "events/lookup",
    }.get(name, "count")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configures (once) and builds ertbench; the build log goes to stderr."""
    bdir = build_dir()
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release", *gen])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", bdir, "--target", "ertbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(bdir, "ertbench")


def ertbench(exe, *args):
    """Runs one ertbench process and returns its JSON line."""
    p = subprocess.run([exe, *map(str, args)], capture_output=True, text=True)
    if p.returncode != 0:
        fail(f"ertbench {' '.join(map(str, args))} exited {p.returncode}: "
             + p.stderr.strip())
    return json.loads(p.stdout.strip().splitlines()[-1])


def summary(values):
    """Median and quartiles (statistics.quantiles, n=4) of the samples."""
    values = list(values)
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def repeat_for(seconds, minimum, step):
    """Calls step(k) for k = 0, 1, ... until `minimum` calls are done and
    one more would end past `seconds` (judged by the mean call so far)."""
    out = []
    t0 = time.perf_counter()
    while True:
        out.append(step(len(out)))
        elapsed = time.perf_counter() - t0
        if len(out) >= minimum and elapsed + elapsed / len(out) > seconds:
            return out


def settled(run):
    return run["completed"] + run["dropped"] == run["issued"]


def source_digest():
    """SHA-256 over the simulator and benchmark sources, so a result names
    the code it measured even where no git metadata exists."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, files in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for f in sorted(files):
                path = os.path.join(dirpath, f)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    p = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return p.stdout.strip() if p.returncode == 0 else "unknown"


def end_to_end_checks(runs, again):
    """Checks of an end-to-end measurement: every lookup settled, and the
    first seed, run again, repeats bit for bit."""
    return {
        "settled_equals_issued": all(settled(r) for r in runs + [again]),
        "repeat_checksum_identical": again["checksum"] == runs[0]["checksum"],
    }


def measure_end_to_end(exe, args, extra):
    seeds, builds, runs = [], [], []

    def build(seed):
        builds.append(ertbench(exe, "build", args.workload, seed, *extra))

    def build_and_run(k):
        # Builds interleave with the simulations so that both sample the same
        # stretch of host time.
        seeds.append(args.seed * SEED_STRIDE + k)
        build(seeds[-1])
        runs.append(ertbench(exe, "run", args.workload, seeds[-1], *extra))

    repeat_for(args.seconds, 1, build_and_run)
    for k in range(len(builds), SETUP_MIN_BUILDS):
        build(args.seed * SEED_STRIDE + k)
    again = ertbench(exe, "run", args.workload, seeds[0], *extra)
    checks = end_to_end_checks(runs, again)

    timed = runs + [again]
    samples = {
        "lookups_per_s": [(r["completed"] + r["dropped"]) / r["wall_s"] for r in timed],
        "setup_s": [b["build_s"] for b in builds],
        "peak_rss_mib": [r["peak_rss_kib"] / 1024.0 for r in timed],
        # Add-one estimate of dropped / issued: a run without drops reads
        # 1 / (issued + 1), not 0, so the bound stays a finite ratio.
        "drop_share": [(r["dropped"] + 1) / (r["issued"] + 1) for r in runs],
    }
    for name in SIM_METRICS:
        samples[name] = [r[name] for r in runs]
    detail = {"runs": [{"seed": s, "wall_s": r["wall_s"], "completed": r["completed"],
                        "dropped": r["dropped"], "checksum": r["checksum"]}
                       for r, s in zip(runs, seeds)],
              "repeat_wall_s": again["wall_s"], "builds_s": samples["setup_s"]}
    return samples, checks, timed, runs[0]["params"], detail


def layer_checks(pairs, adapts):
    """Checks of a traced measurement, over (untraced, traced) result pairs
    of the same seed."""
    traces = [t for _, t in pairs]
    checks = {
        "settled_equals_issued": all(settled(r) for pair in pairs for r in pair),
        # The tracer only observes: traced and untraced results are
        # identical, so the counts describe the measured program.
        "traced_equals_untraced": all(p["checksum"] == t["checksum"] for p, t in pairs),
        "trace_dropped_zero": all(t["trace_dropped"] == 0 for t in traces),
        # Attributed busy time plus harness.self_s is the traced wall by
        # construction; a layer priced above what the engine spent shows as
        # a negative remainder.
        "coverage": statistics.median(t["layers"]["harness.self_share"]
                                      for t in traces) >= -COVERAGE_TOLERANCE,
    }
    if adapts:
        checks["adapt_replay_exact"] = all(t["adapt_replay_exact"] for t in traces)
    return checks


def measure_layers(exe, args, extra, adapts):
    pairs = []

    def one(k):
        seed = args.seed * SEED_STRIDE + k
        plain = ertbench(exe, "run", args.workload, seed, *extra)
        traced = ertbench(exe, "trace", args.workload, seed, *extra)
        pairs.append((plain, traced))

    repeat_for(args.seconds, 1, one)
    checks = layer_checks(pairs, adapts)
    plains = [p for p, _ in pairs]
    traces = [t for _, t in pairs]

    samples = {}
    for name in traces[0]["layers"]:
        samples[name] = [t["layers"][name] for t in traces]
    samples["trace.overhead_share"] = [
        t["wall_s"] / p["wall_s"] - 1.0 for p, t in pairs]
    detail = {"pairs": [{"seed": t["params"]["seed"], "untraced_wall_s": p["wall_s"],
                         "traced_wall_s": t["wall_s"], "checksum": t["checksum"],
                         "trace_records": t["trace_emitted"]}
                        for p, t in pairs]}
    return samples, checks, plains + traces, traces[0]["params"], detail


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="toy-length workloads (the benchmark's own tests)")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    exe = build()
    info = ertbench(exe, "info")
    extra = ["--smoke"] if args.smoke else []
    if args.trace:
        samples, checks, sims, params, detail = measure_layers(
            exe, args, extra, adapts=args.workload.endswith("_af"))
        units = {name: layer_unit(name) for name in samples}
    else:
        samples, checks, sims, params, detail = measure_end_to_end(exe, args, extra)
        units = END_TO_END_UNITS

    stats = {name: {**summary(v), "unit": units[name]} for name, v in samples.items()}
    correct = all(checks.values())
    if not correct:
        print("perfbench: failed checks: "
              + ", ".join(k for k, ok in checks.items() if not ok), file=sys.stderr)
    attempted = sum(r["issued"] for r in sims)
    failed = sum(r["issued"] - r["completed"] - r["dropped"] for r in sims)
    params = {k: v for k, v in params.items() if k != "seed"}
    report = {
        "report": "perfbench", "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
        "hardware_concurrency": info["hardware_concurrency"],
        "build_type": info["build_type"], "commit": commit(),
        "source_sha256": source_digest(), "params": params,
        "checks": checks, "metrics": stats, "detail": detail,
    }
    print(json.dumps(report))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": s["median"], "unit": s["unit"]}
                    for name, s in stats.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
