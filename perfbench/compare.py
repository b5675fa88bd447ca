#!/usr/bin/env python3
"""Compare two result sets written by ``suite.py``.

    python3 perfbench/compare.py base.json head.json

For every workload and metric, prints each side's median and quartiles and
the change of the median. End-to-end metrics are judged against their bound
in BENCHMARK.json:

  worse       the median got worse by more than the bound
  better      the median got better by more than the bound
  same        the medians differ by no more than the bound
  unresolved  either side's spread (q3 - q1 over the median) exceeds the
              bound; it reads "better" instead when every head run is better
              than every base run

Metrics without a bound (per-layer, failed_ratio, ue_iters_per_s) are
printed without a verdict. The exit code is 1 when a metric is worse or more
ops failed, else 0.
"""

import argparse
import json
import sys
from pathlib import Path

from suite import load_benchmark, metric_values, quartiles, spread


def verdict(base: list, head: list, bound: float, higher_is_better: bool) -> str:
    sign = 1.0 if higher_is_better else -1.0
    if max(spread(base), spread(head)) > bound:
        if min(sign * h for h in head) > max(sign * b for b in base):
            return "better"
        return "unresolved"
    base_med, head_med = quartiles(base)[1], quartiles(head)[1]
    change = sign * (head_med - base_med) / base_med
    if change < -bound:
        return "worse"
    if change > bound:
        return "better"
    return "same"


def compare(base: dict, head: dict) -> int:
    e2e = {m["name"]: m for m in load_benchmark()["end_to_end"]}
    status = 0
    workloads = dict.fromkeys(r["workload"] for r in base["runs"] + head["runs"])
    for trace in (0, 1):
        for workload in workloads:
            a = metric_values(base["runs"], workload, trace)
            b = metric_values(head["runs"], workload, trace)
            if not a or not b:
                continue
            print(f"\n{workload} (trace {trace})")
            print(f"  {'metric':44s} {'unit':>6} {'base q1/med/q3':>32} "
                  f"{'head q1/med/q3':>32} {'change':>8}  verdict")
            for name in dict.fromkeys(list(a) + list(b)):
                if name not in a or name not in b:
                    print(f"  {name:44s} only in {'base' if name in a else 'head'}")
                    continue
                unit, va = a[name]
                _, vb = b[name]
                qa, qb = quartiles(va), quartiles(vb)
                change = ((qb[1] - qa[1]) / qa[1] if qa[1]
                          else 0.0 if qb[1] == qa[1] else float("inf"))
                note = ""
                if trace == 0 and name in e2e:
                    m = e2e[name]
                    note = verdict(va, vb, m["bound"], m["better"] == "higher")
                    note += f" (bound {m['bound']:g})"
                    if note.startswith("worse"):
                        status = 1
                elif name == "failed_ratio" and qb[1] > qa[1]:
                    note, status = "more failures", 1
                print(f"  {name:44s} {unit:>6} "
                      f"{'/'.join(f'{q:.4g}' for q in qa):>32} "
                      f"{'/'.join(f'{q:.4g}' for q in qb):>32} {change:+8.1%}  {note}")
            if trace == 0:
                _digests(base["runs"], head["runs"], workload)
    return status


def _digests(base_runs: list, head_runs: list, workload: str) -> None:
    """Report whether outputs changed, on the seeds both sets ran."""
    def by_seed(runs):
        return {r["seed"]: r.get("info", {}).get("digest") for r in runs
                if r["workload"] == workload and r["trace"] == 0}
    a, b = by_seed(base_runs), by_seed(head_runs)
    common = sorted(set(a) & set(b))
    if not common:
        return
    changed = [seed for seed in common if a[seed] != b[seed]]
    if changed:
        print(f"  outputs differ on seeds {changed} of {common}")
    else:
        print(f"  outputs identical on seeds {common}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("head", type=Path)
    args = parser.parse_args(argv)
    return compare(json.loads(args.base.read_text()), json.loads(args.head.read_text()))


if __name__ == "__main__":
    sys.exit(main())
