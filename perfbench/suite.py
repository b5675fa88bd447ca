#!/usr/bin/env python3
"""Run the benchmark over several seeds and save the results as one set.

    python3 perfbench/suite.py --seeds 1 2 3 --out base.json
    python3 perfbench/suite.py --workloads cli_large --seeds 1 --trace 1

Each run is a separate ``run.py`` process, started one after another from the
checkout root. The table printed at the end gives, per workload and metric,
the median, quartiles and the interquartile spread as a share of the median.
``compare.py`` compares two saved sets.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    record = {"workload": workload, "seed": seed, "trace": trace,
              "exit_code": proc.returncode, "wall_s": wall}
    if proc.returncode != 0 or not lines:
        record["error"] = proc.stderr.strip()[-2000:]
        return record
    record["result"] = json.loads(lines[-1])
    record["info"] = next((json.loads(line[5:]) for line in lines
                           if line.startswith("info ")), {})
    if proc.stderr.strip():
        record["stderr"] = proc.stderr.strip()[-2000:]
    return record


def metric_values(records: list, workload: str, trace: int) -> dict:
    """name -> (unit, [values]) over the successful runs of one workload,
    including failed_ratio and ue_iters_per_s from the info line."""
    out: dict = {}
    for rec in records:
        if rec["workload"] != workload or rec["trace"] != trace or "result" not in rec:
            continue
        for name, m in rec["result"]["metrics"].items():
            if isinstance(m.get("value"), (int, float)):
                out.setdefault(name, (m["unit"], []))[1].append(m["value"])
        info = rec.get("info", {})
        if trace == 0:
            out.setdefault("failed_ratio", ("1", []))[1].append(info.get("failed_ratio"))
            if "ue_iters_per_s" in info:
                out.setdefault("ue_iters_per_s", ("1/s", []))[1].append(
                    info["ue_iters_per_s"])
    return out


def quartiles(values: list) -> tuple:
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values: list) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def print_table(records: list, bounds: dict) -> None:
    for trace in (0, 1):
        for workload in dict.fromkeys(r["workload"] for r in records):
            metrics = metric_values(records, workload, trace)
            if not metrics:
                continue
            runs = [r for r in records if r["workload"] == workload and r["trace"] == trace]
            ops = [r.get("info", {}).get("ops") for r in runs]
            print(f"\n{workload} (trace {trace}): {len(runs)} runs, ops per run {ops}")
            print(f"  {'metric':44s} {'unit':>6} {'q1':>12} {'median':>12} {'q3':>12}"
                  f" {'spread':>8} {'bound':>6}")
            for name, (unit, values) in metrics.items():
                q1, med, q3 = quartiles(values)
                bound = bounds.get(name) if trace == 0 else None
                print(f"  {name:44s} {unit:>6} {q1:12.6g} {med:12.6g} {q3:12.6g}"
                      f" {spread(values):8.4f} {bound if bound is not None else '':>6}")
            digests = {}
            for r in runs:
                digests.setdefault(r["seed"], set()).add(r.get("info", {}).get("digest"))
            unstable = [seed for seed, d in digests.items() if len(d) > 1]
            if unstable:
                print(f"  digest differs between runs of seeds {unstable}")
    for r in records:
        if "result" not in r:
            print(f"\n{r['workload']} seed {r['seed']} trace {r['trace']}: exit "
                  f"{r['exit_code']}\n{r.get('error', '')}")
        elif not r["result"]["correct"]:
            print(f"\n{r['workload']} seed {r['seed']} trace {r['trace']}: incorrect\n"
                  f"{r.get('stderr', '')}")


def main(argv=None) -> int:
    benchmark = load_benchmark()
    names = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, default=benchmark["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the result set to this JSON file")
    args = parser.parse_args(argv)

    records = []
    for workload in args.workloads:
        for seed in args.seeds:
            rec = run_one(workload, seed, args.seconds, args.trace)
            records.append(rec)
            status = ("ok" if rec.get("result", {}).get("correct")
                      else "FAILED" if "result" not in rec else "INCORRECT")
            print(f"{workload} seed {seed} trace {args.trace}: {status} "
                  f"({rec['wall_s']:.1f} s)", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps({"benchmark": benchmark, "runs": records},
                                             indent=1))
    print_table(records, {m["name"]: m["bound"] for m in benchmark["end_to_end"]})
    ok = all(r.get("result", {}).get("correct") for r in records)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
