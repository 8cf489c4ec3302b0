#!/usr/bin/env python3
"""List the src/ functions that nothing reaches, and those only tests reach.

Builds the repository and the benchmark suite driver with `--coverage
-O0`, runs every bench and example at CI size plus the four suite
workloads (`suite_driver rep` and `traced` at `--scale 16`), snapshots
the coverage counters, then resets them and runs ctest. For each file
under src/ it prints

  unreached   functions no run executed, tests included;
  tests only  functions only the ctest phase executed.

With --lines it also prints, per file, the same two sets for source
lines, as ranges over the file's executable lines, and the totals.

Counts come from `gcov --json-format --stdout`; a function or line
compiled into several objects counts as reached when any object
executed it.

  python3 tools/unreached.py [--build-dir DIR] [--lines]

The builds go to DIR (default .coverage_build/; a rerun rebuilds only
what changed). The whole pass takes about 10 minutes on a 4-vCPU host,
8 when the builds are up to date.
"""

import argparse
import collections
import json
import os
import pathlib
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO / "src"

# Bench and example invocations at the sizes CI runs them (the traced
# runs at the byte-identity job's sizes, so the traces stay small enough
# to replay), each on one worker thread: threads share the coverage
# counters, and contending on them made a 4-thread bench_churn run ~20x
# slower. `{w}` is the scratch directory the exports go to.
WORKLOAD_COMMANDS = [
    "bench/bench_fig3_elapsed --runs 1",
    "bench/bench_fig4_locality --runs 1",
    "bench/bench_fig5_simulation --nodes 16 --runs 1 --threads 1"
    " --trace {w}/fig5.jsonl --metrics --spans {w}/fig5-spans.jsonl"
    " --timeseries {w}/fig5-ts.jsonl --sample-dt 10 --json {w}/fig5.json",
    "bench/bench_churn --nodes 16 --runs 1 --threads 1"
    " --trace {w}/churn.jsonl --json {w}/churn.json",
    "bench/bench_churn --nodes 16 --runs 1 --gray --calibrate --metrics"
    " --sample-dt 10 --threads 1 --trace {w}/gray.jsonl"
    " --timeseries {w}/gray-ts.jsonl --spans {w}/gray-spans.jsonl"
    " --lineage {w}/gray-lineage.jsonl --perfetto {w}/gray-perfetto.json"
    " --json {w}/gray.json",
    "bench/bench_rebalance --nodes 32 --jobs 3 --runs 1 --shift-lambda 8"
    " --shift-mu 4 --threads 1 --trace {w}/reb.jsonl --json {w}/reb.json",
    "bench/bench_ablation --runs 2 --json {w}/ablation.json",
    "bench/bench_model_validation",
    "bench/bench_table1_trace_stats",
    "examples/quickstart",
    "examples/volunteer_computing",
    "examples/storage_efficiency --nodes 32 --runs 2",
    "examples/rebalance",
    "examples/parallel_sweep --nodes 32 --runs 3 --threads 1",
    "examples/calibration_report",
    "examples/chaos_harness --seeds 10000 --ci",
    "examples/chaos_harness --seeds 8 --warn-only --ci"
    " --post-mortem {w}/postmortem.txt",
    "examples/trace_inspect {w}/fig5.jsonl --nodes 4"
    " --spans {w}/fig5-spans.jsonl",
    "examples/trace_inspect {w}/churn.jsonl --runs 6 --nodes 4",
    "examples/trace_inspect {w}/churn.jsonl --why-lost",
    "examples/trace_inspect {w}/gray.jsonl --runs 6 --nodes 4"
    " --lineage 0 --task 0 --perfetto {w}/inspect-perfetto.json",
    "examples/trace_inspect {w}/reb.jsonl --runs 4 --nodes 4",
]
SUITE_WORKLOADS = ["fig5_paper", "emu_fifo", "churn_gray", "fig5_observed"]


def run(cmd, cwd=None):
    print("+ " + " ".join(str(c) for c in cmd), file=sys.stderr, flush=True)
    subprocess.run(cmd, cwd=cwd, check=True, stdout=subprocess.DEVNULL)


def coverage_build(source, build):
    # bench/suite forces the Release build type, so -O0 replaces the
    # Release optimization flags in both trees.
    flags = [
        "-DCMAKE_BUILD_TYPE=Release",
        "-DCMAKE_CXX_FLAGS=--coverage",
        "-DCMAKE_CXX_FLAGS_RELEASE=-O0",
        "-DCMAKE_EXE_LINKER_FLAGS=--coverage",
    ]
    run(["cmake", "-S", source, "-B", build] + flags)
    # Counters left by an older build of a changed object would clash
    # with the test discovery run that the build itself makes.
    reset_counters(build)
    run(["cmake", "--build", build, "-j", str(os.cpu_count() or 1)])


def reset_counters(build):
    for gcda in pathlib.Path(build).rglob("*.gcda"):
        gcda.unlink()


def coverage_counts(builds):
    """Max execution counts over every object, for functions keyed by
    (file, line, name) and for lines keyed by (file, line).

    Every object counts, not only the library's: a function defined in a
    src/ header is emitted into the benches, examples and tests that
    call it. Only sources under src/ are kept."""
    counts = {}
    lines = {}
    for build in builds:
        for notes in sorted(pathlib.Path(build).rglob("*.gcno")):
            proc = subprocess.run(
                ["gcov", "--json-format", "--stdout", notes.name],
                cwd=notes.parent, check=True, capture_output=True,
                text=True)
            for line in proc.stdout.splitlines():
                if not line.startswith("{"):
                    continue
                for f in json.loads(line)["files"]:
                    path = (notes.parent / f["file"]).resolve()
                    # Skip sources outside src/, and the notes a reused
                    # build directory keeps for deleted sources.
                    if SRC not in path.parents or not path.is_file():
                        continue
                    rel = path.relative_to(SRC)
                    for fn in f["functions"]:
                        key = (str(rel), fn["start_line"],
                               fn.get("demangled_name", fn["name"]))
                        counts[key] = max(counts.get(key, 0),
                                          fn["execution_count"])
                    for ln in f["lines"]:
                        key = (str(rel), ln["line_number"])
                        lines[key] = max(lines.get(key, 0), ln["count"])
    return counts, lines


def line_ranges(executable, chosen):
    """Runs of `chosen` over the sorted `executable` lines, as text."""
    runs = []
    for line in executable:
        if line not in chosen:
            runs.append(None)
        elif runs and runs[-1] is not None:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}"
                     for a, b in filter(None, runs))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir", default=str(REPO / ".coverage_build"))
    parser.add_argument("--lines", action="store_true",
                        help="also list tests-only and unreached lines")
    args = parser.parse_args()

    root = pathlib.Path(args.build_dir).resolve()
    repo_build = root / "repo"
    suite_build = root / "suite"
    work = root / "work"
    work.mkdir(parents=True, exist_ok=True)
    coverage_build(REPO, repo_build)
    coverage_build(REPO / "bench" / "suite", suite_build)

    reset_counters(repo_build)
    reset_counters(suite_build)
    for command in WORKLOAD_COMMANDS:
        argv = command.format(w=work).split()
        run([str(repo_build / argv[0])] + argv[1:], cwd=work)
    for workload in SUITE_WORKLOADS:
        for mode in ("rep", "traced"):
            run([str(suite_build / "suite_driver"), mode, "--workload",
                 workload, "--seed", "1", "--scale", "16"], cwd=work)
    workloads, workload_lines = coverage_counts([repo_build, suite_build])

    reset_counters(repo_build)
    run(["ctest", "--test-dir", str(repo_build), "-j",
         str(os.cpu_count() or 1)])
    tests, test_lines = coverage_counts([repo_build])

    by_file = collections.defaultdict(lambda: ([], []))
    for key in sorted(set(workloads) | set(tests)):
        if workloads.get(key, 0) > 0:
            continue
        file, line, name = key
        by_file[file][0 if tests.get(key, 0) == 0 else 1].append(
            f"{line}: {name}")

    # Per file: every executable line, and the unreached and tests-only
    # ones.
    lines_by_file = collections.defaultdict(lambda: ([], set(), set()))
    if args.lines:
        for key in sorted(set(workload_lines) | set(test_lines)):
            file, line = key
            executable, unreached, tests_only = lines_by_file[file]
            executable.append(line)
            if workload_lines.get(key, 0) > 0:
                continue
            (unreached if test_lines.get(key, 0) == 0
             else tests_only).add(line)

    totals = [0, 0]
    for file in sorted(set(by_file) | set(lines_by_file)):
        unreached, tests_only = by_file[file]
        executable, lines_unreached, lines_tests_only = lines_by_file[file]
        if not (unreached or tests_only or lines_unreached
                or lines_tests_only):
            continue
        print(f"src/{file}")
        for label, names in (("unreached", unreached),
                             ("tests only", tests_only)):
            for name in names:
                print(f"  {label:10}  {name}")
        for i, (label, chosen) in enumerate(
                (("lines unreached", lines_unreached),
                 ("lines tests only", lines_tests_only))):
            totals[i] += len(chosen)
            if chosen:
                print(f"  {label:16}  {line_ranges(executable, chosen)}")
    if args.lines:
        print(f"lines: {totals[0]} unreached, {totals[1]} tests only")
    return 0


if __name__ == "__main__":
    sys.exit(main())
