#!/usr/bin/env python3
"""Noise-aware A/B of two commits from whole-suite results files.

Takes the results JSON of at least ten parent/change pairs, in pair
order; run the pairs alternating which side goes first. For every
(end-to-end metric, workload) it reports each side's median and
quartiles of the per-run medians and the pairs the change won (ties
count for neither), then a verdict:

  improved    the change wins >= 9/10 of the pairs and the medians
              differ by more than the parent's interquartile range
  unresolved  otherwise, when either side's IQR/median exceeds the
              metric's bound, unless every change run beats every
              parent run
  regressed   otherwise, when the change's median is worse than the
              parent's by more than the bound
  unchanged   otherwise

Deterministic outputs (the simulated-result digest, per-layer counts
and count ratios) must repeat exactly within each side; a difference
between the sides is reported, since a change that only claims speed
must not move them. The median host_ref_s of each side is printed so
host drift is visible next to the verdicts.

  python3 bench/suite/compare.py --parent P1.json ... P10.json \\
      --change C1.json ... C10.json

Exits 1 when any metric regressed or a side's deterministic outputs
differ between its runs, 2 on bad input.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def better(a, b, direction):
    """True when value a is strictly better than value b."""
    return a < b if direction == "lower" else a > b


def verdict(parent, change, metric):
    """(verdict, row) for one metric on one workload; parent[i] and
    change[i] are the medians of pair i."""
    direction, bound = metric["better"], metric["bound"]
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    wins = sum(better(c, p, direction) for p, c in zip(parent, change))
    worse_by = ((c_med - p_med) if direction == "lower"
                else (p_med - c_med)) / p_med
    spread = max((p_q3 - p_q1) / p_med, (c_q3 - c_q1) / c_med)
    all_better = all(better(c, p, direction)
                     for c in change for p in parent)
    if (wins >= WIN_SHARE * len(parent) and worse_by < 0
            and abs(c_med - p_med) > p_q3 - p_q1):
        result = "improved"
    elif spread > bound and not all_better:
        result = "unresolved"
    elif worse_by > bound:
        result = "regressed"
    else:
        result = "unchanged"
    row = {"parent": [p_med, p_q1, p_q3], "change": [c_med, c_q1, c_q3],
           "wins": wins, "pairs": len(parent), "worse_by": worse_by,
           "spread": spread, "bound": bound, "verdict": result}
    return result, row


def deterministic(results, workload, spec):
    """The outputs of one workload that must repeat exactly."""
    w = results["workloads"][workload]
    out = {"digest": w["digest"]}
    for m in spec["per_layer"]:
        if m["unit"] == "count" or m["name"].endswith("_ratio"):
            out[m["name"]] = w["per_layer"][m["name"]]["value"]
    return out


def host_ref(results):
    return results["provenance"]["host_ref_s"]["median"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args()
    if len(args.parent) != len(args.change):
        parser.error("--parent and --change need one file per pair")
    if len(args.parent) < MIN_PAIRS:
        parser.error(f"need at least {MIN_PAIRS} pairs, got "
                     f"{len(args.parent)}")
    try:
        with open(ROOT / "BENCHMARK.json") as f:
            spec = json.load(f)
        parents = [json.load(open(p)) for p in args.parent]
        changes = [json.load(open(c)) for c in args.change]
        workloads = [w["name"] for w in spec["workloads"]]
        for r in parents + changes:
            missing = set(workloads) - set(r["workloads"])
            if missing:
                raise KeyError(f"results lack workloads {sorted(missing)}")
    except (OSError, ValueError, KeyError) as e:
        print(f"compare: {e}", file=sys.stderr)
        return 2

    failed = False
    p_ref = statistics.median(host_ref(r) for r in parents)
    c_ref = statistics.median(host_ref(r) for r in changes)
    print(f"host_ref_s median: parent {p_ref:.4f} s, change {c_ref:.4f} s "
          f"({(c_ref - p_ref) / p_ref:+.1%} drift)")
    print(f"{'workload':<14} {'metric':<13} {'parent med [q1, q3]':>32} "
          f"{'change med [q1, q3]':>32} {'wins':>6} {'worse':>7} "
          f"{'spread':>7} {'bound':>6}  verdict")
    for name in workloads:
        for m in spec["end_to_end"]:
            parent = [r["workloads"][name]["end_to_end"][m["name"]]["median"]
                      for r in parents]
            change = [r["workloads"][name]["end_to_end"][m["name"]]["median"]
                      for r in changes]
            result, row = verdict(parent, change, m)
            failed = failed or result == "regressed"
            fmt = "{:.5g} [{:.5g}, {:.5g}]"
            print(f"{name:<14} {m['name']:<13} "
                  f"{fmt.format(*row['parent']):>32} "
                  f"{fmt.format(*row['change']):>32} "
                  f"{row['wins']:>3}/{row['pairs']:<2} "
                  f"{row['worse_by']:>+7.1%} {row['spread']:>7.1%} "
                  f"{row['bound']:>6.0%}  {result}")
        sides = {}
        for side, runs in (("parent", parents), ("change", changes)):
            outs = [deterministic(r, name, spec) for r in runs]
            if any(o != outs[0] for o in outs):
                print(f"{name}: {side} deterministic outputs differ "
                      f"between runs")
                failed = True
            sides[side] = outs[0]
        diff = sorted(k for k in sides["parent"]
                      if sides["parent"][k] != sides["change"][k])
        print(f"{name}: deterministic outputs "
              + (f"differ between sides: {', '.join(diff)}" if diff
                 else "identical across sides"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
