#!/usr/bin/env python3
"""Benchmark suite runner: builds the suite driver, runs the workloads,
checks every output and reports every metric by name and unit.

Metric names, units, directions and bounds come from BENCHMARK.json at
the repository root; the workloads and their timing live in
suite_driver.cpp. Every rep is a fresh single-threaded process.

Whole suite (four workloads interleaved round-robin, then one traced
run per workload; exits nonzero on any failed check):

  python3 bench/suite/run.py [--reps 9] [--seed 5] [--out PATH]
  python3 bench/suite/run.py --smoke          # 1/16 nodes, 1 rep, < 30 s

One workload for a fixed time (the single-run interface; the last line
of stdout is one JSON object with correct/attempted/failed/metrics):

  python3 bench/suite/run.py --workload fig5_paper --seed 5 \\
      --seconds 30 --trace 0|1

--trace 0 reports the end-to-end metrics (median over the reps that fit
in --seconds); --trace 1 runs the traced rep and reports the per-layer
metrics. Claims are validated on the held-out seed 11 (see README.md).
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build" / "suite"
DRIVER = BUILD / "suite_driver"
RESULTS = BUILD / "results"
SMOKE_SCALE = 16
REP_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configure until a driver has been built, then build incrementally.
    Raises on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not DRIVER.exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD)],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                   check=True, stdout=sys.stderr)


def driver(mode, workload, seed, scale):
    """One fresh driver process; returns its JSON object."""
    cmd = [str(DRIVER), mode, "--workload", workload, "--seed", str(seed),
           "--scale", str(scale)]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=REP_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: "
                           f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------
# Statistics and checks
# ---------------------------------------------------------------------

def summarize(values):
    """Median, quartiles, min/max and n of one metric over reps."""
    values = sorted(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": values[0], "max": values[-1], "n": len(values),
            "values": values}


def rep_metrics(rep):
    """End-to-end metrics of one rep, keyed like BENCHMARK.json."""
    return {"wall_s": rep["wall_s"], "setup_s": rep["setup_s"],
            "events_per_s": (rep["events"] / rep["wall_s"]
                             if rep["wall_s"] > 0 else 0.0),
            "peak_rss_mb": rep["peak_rss_mb"]}


def check_reps(reps, traced=None):
    """Errors for one workload: each process's own errors, any rep digest
    differing from rep 1's, and a traced process whose untraced digest
    differs from the reps'. Returns (attempted, failed, errors)."""
    attempted = failed = 0
    errors = []
    reference = reps[0]["digest"] if reps else None
    for i, proc in enumerate(reps + ([traced] if traced else [])):
        attempted += proc["attempted"]
        failed += proc["failed"]
        errors += proc["errors"]
        if reference is not None and proc["digest"] != reference:
            what = "traced run" if proc is traced else f"rep {i + 1}"
            errors.append(f"{what} digest {proc['digest']} != rep 1 "
                          f"digest {reference}")
            failed += proc["runs"]
    return attempted, failed, errors


def source_digest():
    """sha256 over src/ and the suite itself: identifies the code measured
    when the checkout is not a git repository."""
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*")):
            if path.is_file():
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()


def git_commit():
    """HEAD of the checkout, or None when it is not a git repository (git
    is not asked, so it never searches the directories above)."""
    if not (ROOT / ".git").exists():
        return None
    commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                            capture_output=True, text=True)
    return commit.stdout.strip() if commit.returncode == 0 else None


def provenance(seed, procs):
    host_ref = [p["host_ref_s"] for p in procs]
    return {"commit": git_commit(),
            "source_sha256": source_digest(),
            "compiler": procs[0]["compiler"] if procs else None,
            "nproc": os.cpu_count(),
            "seed": seed,
            "host_ref_s": summarize(host_ref) if host_ref else None,
            "time": time.strftime("%Y-%m-%dT%H:%M:%S%z")}


def write_results(path, results):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        json.dump(results, f, indent=1, sort_keys=True)
        f.write("\n")
    log(f"wrote {path}")


# ---------------------------------------------------------------------
# Single-workload interface
# ---------------------------------------------------------------------

def run_one(spec, args):
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        log(f"unknown workload {args.workload!r}; known: {names}")
        return 2
    scale = SMOKE_SCALE if args.smoke else 1
    start = time.monotonic()
    if args.trace:
        traced = driver("traced", args.workload, args.seed, scale)
        procs = [traced]
        attempted, failed, errors = check_reps([], traced)
        metrics = {m["name"]: {"value": traced["layers"][m["name"]],
                               "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        # Start another rep only while it is expected to fit in the
        # window; the first always runs.
        procs = []
        while not procs or (time.monotonic() - start) * (
                len(procs) + 1) / len(procs) <= args.seconds:
            procs.append(driver("rep", args.workload, args.seed, scale))
        attempted, failed, errors = check_reps(procs)
        per_rep = [rep_metrics(p) for p in procs]
        metrics = {m["name"]: {
            "value": statistics.median(r[m["name"]] for r in per_rep),
            "unit": m["unit"]} for m in spec["end_to_end"]}
    for e in errors:
        log(f"CHECK FAILED [{args.workload}]: {e}")
    write_results(RESULTS / f"{args.workload}-seed{args.seed}-"
                  f"trace{args.trace}.json",
                  {"provenance": provenance(args.seed, procs),
                   "workload": args.workload, "trace": args.trace,
                   "processes": procs, "errors": errors,
                   "elapsed_s": time.monotonic() - start})
    print(json.dumps({"correct": not errors and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


# ---------------------------------------------------------------------
# Whole suite
# ---------------------------------------------------------------------

def run_suite(spec, args):
    names = [w["name"] for w in spec["workloads"]]
    scale = SMOKE_SCALE if args.smoke else 1
    reps = 1 if args.smoke else args.reps
    start = time.monotonic()
    by_workload = {n: [] for n in names}
    for r in range(reps):
        for name in names:
            rep = driver("rep", name, args.seed, scale)
            by_workload[name].append(rep)
            log(f"rep {r + 1}/{reps} {name}: wall {rep['wall_s']:.3f} s, "
                f"setup {rep['setup_s']:.3f} s, "
                f"host_ref {rep['host_ref_s']:.3f} s")
    traced = {}
    for name in names:
        traced[name] = driver("traced", name, args.seed, scale)
        log(f"traced {name}: wall {traced[name]['traced_wall_s']:.3f} s")

    results = {"provenance": provenance(
        args.seed, [p for n in names for p in by_workload[n]]),
        "scale": scale, "reps": reps, "workloads": {}}
    all_ok = True
    print(f"{'workload':<14} {'metric':<32} {'median':>14} "
          f"{'q1':>12} {'q3':>12} {'n':>3}  unit")
    for name in names:
        attempted, failed, errors = check_reps(by_workload[name],
                                               traced[name])
        per_rep = [rep_metrics(p) for p in by_workload[name]]
        e2e = {}
        for m in spec["end_to_end"]:
            s = summarize([r[m["name"]] for r in per_rep])
            e2e[m["name"]] = dict(s, unit=m["unit"])
            print(f"{name:<14} {m['name']:<32} {s['median']:>14.6g} "
                  f"{s['q1']:>12.6g} {s['q3']:>12.6g} {s['n']:>3}  "
                  f"{m['unit']}")
        layers = {m["name"]: {"value": traced[name]["layers"][m["name"]],
                              "unit": m["unit"]}
                  for m in spec["per_layer"]}
        for m in spec["per_layer"]:
            print(f"{name:<14} {m['name']:<32} "
                  f"{layers[m['name']]['value']:>14.6g} "
                  f"{'':>12} {'':>12} {1:>3}  {m['unit']}")
        print(f"{name:<14} {'ops_failed':<32} {failed:>14d} "
              f"{'':>12} {'':>12} {attempted:>3}  runs")
        for e in errors:
            print(f"CHECK FAILED [{name}]: {e}")
        all_ok = all_ok and not errors and failed == 0
        results["workloads"][name] = {
            "end_to_end": e2e, "per_layer": layers,
            "ops_failed": failed, "attempted": attempted,
            "digest": by_workload[name][0]["digest"],
            "errors": errors, "reps": by_workload[name],
            "traced": traced[name]}
    results["elapsed_s"] = time.monotonic() - start
    write_results(Path(args.out) if args.out
                  else RESULTS / ("smoke.json" if args.smoke
                                  else f"suite-seed{args.seed}.json"),
                  results)
    print("all checks passed" if all_ok else "CHECKS FAILED")
    return 0 if all_ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="run one workload for --seconds")
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reps", type=int, default=9)
    parser.add_argument("--smoke", action="store_true",
                        help="1/16 of the nodes, 1 rep (suite check)")
    parser.add_argument("--out", help="results JSON path (whole suite)")
    args = parser.parse_args()
    if args.reps < 1:
        parser.error("--reps must be >= 1")
    try:
        spec = load_spec()
        build()
        return run_one(spec, args) if args.workload else run_suite(spec,
                                                                   args)
    except (OSError, ValueError, KeyError, RuntimeError,
            subprocess.SubprocessError) as e:
        log(f"benchmark failed: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
