#!/usr/bin/env python3
"""In-process A/B timing of two duplink trees on fig4 Monte Carlo passes or
on one-network runs.

Usage (from anywhere):

    python tools/ab_pass.py path/to/a/src path/to/b/src --seed 1 --rounds 20
    python tools/ab_pass.py path/to/a/src path/to/b/src --pass one --seed 1

Each tree's package is imported from its ``src/`` directory under its own
name (``duplink_a`` and ``duplink_b``), so both run in one process on the
same warm interpreter. Two passes are offered:

- ``fig4`` (the default) calls ``monte_carlo`` on each of the eight fig4
  points with eight explicit per-trial seeds (``SeedSequence([seed,
  point])``), as the benchmark's ``mc_backhaul`` workload does. Its digest
  covers the rows, floats compared by ``float.hex``.
- ``one`` runs ``run(m, "bdt", max_iter=50, sink=TraceCsv(m, buffer))`` on
  each of the two 160+40 ``generate_mixed`` networks of the benchmark's
  ``cli_large`` workload (8 relays, 12 picocells, seeds
  ``SeedSequence([seed, file])``), writing ``trace.csv`` to an in-memory
  buffer. Its digest covers the CSV bytes and each run's metrics. The
  networks are built once per side, outside the timing.

Each round times the two sides in turn, each the best of 3 passes, and
alternates which side goes first. Both sides must give the same digest, or
the script exits 1. The ratio of a round is A's time over B's, so above 1
means B is faster. The script prints every round, then the median ratio
with its quartiles and how many rounds B won.

Given the same tree twice, the script measures its own noise floor. On a
shared 2-core x86 VM six such null runs of 12 rounds read medians of 0.87
to 1.05, so read a ratio against null runs made at the same time.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import importlib.util
import io
import statistics
import sys
import time
from pathlib import Path

import numpy as np


def load(src: str, name: str):
    """The duplink package under ``src``, imported as ``name``, and its cli."""
    init = Path(src) / "duplink" / "__init__.py"
    if not init.is_file():
        sys.exit(f"error: no duplink package under {src}")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package, importlib.import_module(f"{name}.cli")


def fig4_pass(package, cli, seed: int):
    """A pass over the fig4 points, as a call that returns the sha256 of
    its rows."""
    return lambda: _fig4(package, cli, seed)


def _fig4(package, cli, seed: int) -> str:
    points, kwargs = cli.PRESETS["fig4"]()
    kwargs = dict(kwargs)
    policies = kwargs.pop("policies")
    h = hashlib.sha256()
    for idx, point in enumerate(points):
        seeds = [int(x) for x in np.random.SeedSequence([seed, idx]).generate_state(8)]
        for row in package.engine.monte_carlo([point], policies, trials=8, seeds=seeds,
                                              **kwargs):
            h.update(f"{row['policy']},{row['trial']},{float(row['eta_n_normalized']).hex()},"
                     f"{float(row['avg_total_power']).hex()},{bool(row['converged'])}\n"
                     .encode())
    return h.hexdigest()


def one_network_pass(package, cli, seed: int):
    """bdt runs on the two cli_large networks, each streaming trace.csv to a
    buffer, as a call that returns the sha256 of the CSV bytes and metrics."""
    networks = []
    for i in range(2):
        params = package.GenParams(n_ues=160, n_relays=8, n_picos=12,
                                   seed=int(np.random.SeedSequence([seed, i]).generate_state(1)[0]))
        networks.append(package.build_matrices(package.generate_mixed(params, 40)))

    def one() -> str:
        h = hashlib.sha256()
        for m in networks:
            buffer = io.StringIO()
            sink = package.engine.TraceCsv(m, buffer)
            trace = package.run(m, "bdt", max_iter=50, sink=sink)
            sink.flush()
            h.update(buffer.getvalue().encode())
            h.update(repr(sorted(trace.metrics.items())).encode())
        return h.hexdigest()

    return one


PASSES = {"fig4": fig4_pass, "one": one_network_pass}


def best_of(run_pass, repeats: int = 3) -> tuple[float, str]:
    """The fastest of ``repeats`` passes, in seconds, and their digest."""
    times, digests = [], set()
    for _ in range(repeats):
        start = time.perf_counter()
        digests.add(run_pass())
        times.append(time.perf_counter() - start)
    if len(digests) != 1:
        sys.exit("error: a tree's passes differ from each other")
    return min(times), digests.pop()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("src_a", help="src/ directory of tree A (the base)")
    ap.add_argument("src_b", help="src/ directory of tree B (the change)")
    ap.add_argument("--pass", dest="kind", choices=sorted(PASSES), default="fig4",
                    help="what a pass runs (default fig4)")
    ap.add_argument("--seed", type=int, default=1, help="benchmark seed of the passes")
    ap.add_argument("--rounds", type=int, default=20, help="timed rounds")
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be >= 1")

    sides = [PASSES[args.kind](*load(src, name), args.seed)
             for src, name in ((args.src_a, "duplink_a"), (args.src_b, "duplink_b"))]
    for side in sides:  # warm both: imports, caches, first allocations
        side()
    ratios = []
    for k in range(args.rounds):
        order = (0, 1) if k % 2 == 0 else (1, 0)
        result = {}
        for i in order:
            result[i] = best_of(sides[i])
        (t_a, d_a), (t_b, d_b) = result[0], result[1]
        if d_a != d_b:
            print(f"error: outputs differ in round {k}: {d_a} != {d_b}", file=sys.stderr)
            return 1
        ratios.append(t_a / t_b)
        print(f"round {k:2d}: A {t_a * 1e3:7.2f} ms  B {t_b * 1e3:7.2f} ms  "
              f"A/B {ratios[-1]:.3f}", flush=True)
    q1, median, q3 = (statistics.quantiles(ratios, n=4, method="inclusive")
                      if len(ratios) > 1 else ratios * 3)
    wins = sum(r > 1 for r in ratios)
    print(f"{args.kind} seed {args.seed}: median A/B {median:.3f} (q1 {q1:.3f}, q3 {q3:.3f}); "
          f"B faster in {wins} of {len(ratios)} rounds; digests equal")
    return 0


if __name__ == "__main__":
    sys.exit(main())
