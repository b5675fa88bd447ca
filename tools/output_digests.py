#!/usr/bin/env python3
"""Print one sha256 per duplink output, so two checkouts can be compared.

Usage (from anywhere):

    python tools/output_digests.py path/to/checkout/src > digests.txt
    python tools/output_digests.py path/to/base/src path/to/change/src

duplink is imported from the given ``src/`` directory and the demos are run
from the ``demos/`` directory next to it, so the same script checks any
checkout, including an older one. The manifest covers:

- ``trials.csv`` and ``summary.csv`` of the fig2b, fig3, fig4 and fig5
  presets at ``--trials 10 --seed 7``;
- the scenario files themselves, as ``save_scenario`` writes them, and the
  ``trace.csv``, ``metrics.json`` and ``equilibrium.json`` of ``duplink run``
  with every policy in ``POLICY_NAMES`` on each: both worked-example cases,
  a 21-UE ``generate`` file, a 24-UE ``generate`` file whose PoA separation
  takes a second layout draw, a 6+3 mixed file, a 0+5 file of fixed-SINR
  UEs only, a file with no UEs and so no gains, and two 160+40 mixed files
  (8 relays, 12 picocells), one whose combined iteration is contractive
  (seed 1) and one whose is not (seed 3);
- the same ``duplink run`` outputs on two re-dumps of the contractive
  160+40 file, one compact and one tab-indented, which must hash the same as
  the canonical file's (the script exits 1 if they do not);
- the rows of ``monte_carlo`` on every fig4 and fig5 point with an explicit
  list of 8 per-trial seeds (``SeedSequence([7, point])``), the call the
  benchmark makes, with floats written as ``float.hex()``;
- ``run`` on one stack of four 6+3 mixed networks (``generate_mixed`` seeds
  0-3), each row under its own policy from ``POLICY_NAMES``: every row's
  verdict and metrics, every per-link attribute of its last state (``p1``
  to ``rate2``) and every attribute of its last report (``eta_n`` to
  ``state``, ``v1`` and ``v2`` included), read by name and written as
  ``float.hex()``;
- the stdout of every demo.

Two manifests that ``diff`` clean mean byte-identical outputs. Given two
``src/`` directories, the script makes each tree's manifest in its own
process, one tree after the other, and compares them: it prints each
output whose digest differs (or that only one tree has) with both digests,
then a count, and exits 1 if any output differs. A manifest takes about
4 seconds per tree on a 2-core x86 VM; it is not part of the test suite.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

PRESETS = ("fig2b", "fig3", "fig4", "fig5")
SEED_LIST_PRESETS = ("fig4", "fig5")
RUN_OUTPUTS = ("trace.csv", "metrics.json", "equilibrium.json")
# Other layouts of the same file, as json.dumps keywords; read, they must
# give the canonical file's outputs.
REDUMPED = "mixed160+40_contractive"
REDUMPS = {"compact": {"separators": (",", ":")}, "tab": {"indent": "\t"}}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _file_sha(path: Path) -> str:
    return _sha(path.read_bytes()) if path.is_file() else "absent"


def _main_quiet(cli, argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def scenario_files(dl, work: Path) -> dict[str, Path]:
    """The scenario files the runs read, written with the checkout's own code."""
    large = dict(n_ues=160, n_relays=8, n_picos=12)
    scenarios = {
        "worked_high": dl.worked_example(),
        "worked_limited": dl.worked_example(dl.LIMITED_BACKHAUL),
        "gen21": dl.generate(dl.GenParams(n_ues=21, seed=7)),
        "mixed6+3": dl.generate_mixed(dl.GenParams(n_ues=6, seed=7), 3),
        "sep24": dl.generate(dl.GenParams(n_ues=24, n_relays=8, n_picos=0, eta_relay=50e6,
                                          eta_pico=50e6, min_poa_separation=400.0, seed=3)),
        "fixed0+5": dl.generate_mixed(dl.GenParams(n_ues=0, n_relays=2, n_picos=2, seed=3), 5),
        "empty0": dl.generate(dl.GenParams(n_ues=0, seed=3)),
        "mixed160+40_contractive": dl.generate_mixed(dl.GenParams(seed=1, **large), 40),
        "mixed160+40_noncontractive": dl.generate_mixed(dl.GenParams(seed=3, **large), 40),
    }
    paths = {}
    for name, s in scenarios.items():
        paths[name] = work / f"{name}.json"
        dl.save_scenario(s, paths[name])
    d = json.loads(paths[REDUMPED].read_text())
    for layout, kwargs in REDUMPS.items():
        paths[f"{REDUMPED}_{layout}"] = work / f"{REDUMPED}_{layout}.json"
        paths[f"{REDUMPED}_{layout}"].write_text(json.dumps(d, **kwargs))
    return paths


def seed_list_rows(cli, engine, preset: str):
    """(point index, rows) of ``monte_carlo`` on each point of the preset,
    with 8 explicit per-trial seeds."""
    import numpy as np

    points, kwargs = cli.PRESETS[preset]()
    kwargs = dict(kwargs)
    policies = kwargs.pop("policies")
    for idx, point in enumerate(points):
        seeds = [int(x) for x in np.random.SeedSequence([7, idx]).generate_state(8)]
        yield idx, engine.monte_carlo([point], policies, trials=len(seeds), seeds=seeds,
                                      **kwargs)


# What the stacked case hashes of each row's final state and report, by
# attribute name, so that checkouts storing them differently compare alike.
STATE_ATTRS = ("p1", "p2", "e1", "e2", "sinr1", "sinr2", "rate1", "rate2")
REPORT_ATTRS = ("eta_n", "load", "v", "gamma_relay_sum", "v1", "v2", "state")


def _hexes(value) -> list[str]:
    import numpy as np

    return [float(x).hex() for x in np.ravel(value).tolist()]


def stacked_mixed_rows(dl) -> list[str]:
    """One line per row of ``run`` on a stack of four mixed networks, each
    row under its own policy: its verdict, metrics, and every per-link
    attribute of its final state and every attribute of its final report."""
    ms = [dl.build_matrices(dl.generate_mixed(dl.GenParams(n_ues=6, seed=seed), 3))
          for seed in range(len(dl.POLICY_NAMES))]
    traces = dl.run(dl.stack_matrices(ms), list(dl.POLICY_NAMES))
    lines = []
    for policy, trace in zip(dl.POLICY_NAMES, traces):
        v = trace.verdict
        numbers = _hexes([trace.metrics["eta_n_final"], trace.metrics["eta_n_normalized"],
                          trace.metrics["avg_total_power"]])
        for obj, attrs in ((trace.state, STATE_ATTRS), (trace.report, REPORT_ATTRS)):
            numbers += [f"{name}={'/'.join(_hexes(getattr(obj, name)))}" for name in attrs]
        lines.append(",".join([policy, v.kind, str(v.iteration), str(v.period),
                               str(trace.metrics["iterations_run"]), *numbers]))
    return lines


def manifest(src: str) -> dict[str, str]:
    """The manifest of the tree ``src``, made by this script in a fresh
    process: the digest part of each line by output name."""
    proc = subprocess.run([sys.executable, __file__, src], capture_output=True, text=True,
                          check=False)
    if proc.returncode:
        sys.exit(f"error: the manifest of {src} failed:\n{proc.stderr}")
    return dict(line.split(" ", 1) for line in proc.stdout.splitlines())


def compare(base: str, change: str) -> int:
    """Print each output whose digests differ between the two trees; 1 if
    any does, else 0."""
    a, b = manifest(base), manifest(change)
    names = [*a, *(name for name in b if name not in a)]
    differ = [name for name in names if a.get(name) != b.get(name)]
    for name in differ:
        print(f"{name}\n  base   {a.get(name, 'absent')}\n  change {b.get(name, 'absent')}")
    print(f"{len(differ)} of {len(names)} outputs differ")
    return 1 if differ else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="+",
                        help="the src/ directory of a duplink checkout, or of a base and a change")
    args = parser.parse_args()
    if len(args.src) > 2:
        parser.error("give one or two src/ directories")
    if len(args.src) == 2:
        return compare(*args.src)
    src = Path(args.src[0]).resolve()
    sys.path.insert(0, str(src))
    import duplink as dl
    from duplink import cli, engine

    if Path(dl.__file__).resolve().parent != src / "duplink":
        sys.exit(f"error: imported duplink from {dl.__file__}, not {src}")

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for preset in PRESETS:
            out = work / "experiment" / preset
            code = _main_quiet(cli, ["experiment", "--preset", preset, "--trials", "10",
                                     "--seed", "7", "--out", str(out)])
            for name in ("trials.csv", "summary.csv"):
                print(f"experiment/{preset}/{name} exit={code} {_file_sha(out / name)}")

        outputs = {}
        for scenario, path in scenario_files(dl, work).items():
            print(f"scenario/{scenario}.json {_file_sha(path)}")
            for policy in dl.POLICY_NAMES:
                out = work / "run" / scenario / policy
                code = _main_quiet(cli, ["run", "--scenario", str(path), "--policy", policy,
                                         "--out", str(out)])
                for name in RUN_OUTPUTS:
                    outputs[scenario, policy, name] = f"exit={code} {_file_sha(out / name)}"
                    print(f"run/{scenario}/{policy}/{name} {outputs[scenario, policy, name]}")
        differ = [f"{REDUMPED}_{layout}/{policy}/{name}" for layout in REDUMPS
                  for policy in dl.POLICY_NAMES for name in RUN_OUTPUTS
                  if outputs[f"{REDUMPED}_{layout}", policy, name]
                  != outputs[REDUMPED, policy, name]]
        if differ:
            sys.exit(f"error: re-dumped files run differently: {', '.join(differ)}")

    for preset in SEED_LIST_PRESETS:
        for idx, rows in seed_list_rows(cli, engine, preset):
            text = "\n".join(
                f"{r['sweep_value']},{r['policy']},{r['trial']},"
                f"{float(r['eta_n_normalized']).hex()},{float(r['avg_total_power']).hex()},"
                f"{bool(r['converged'])}" for r in rows)
            print(f"seed_list/{preset}/point{idx} rows={len(rows)} {_sha(text.encode())}")

    rows = stacked_mixed_rows(dl)
    print(f"stacked/mixed6+3x4 rows={len(rows)} {_sha(chr(10).join(rows).encode())}")

    env = dict(os.environ, PYTHONPATH=str(src))
    for demo in sorted((src.parent / "demos").glob("*.py")):
        proc = subprocess.run([sys.executable, str(demo)], env=env, cwd=src.parent,
                              capture_output=True, check=False)
        print(f"demo/{demo.name} exit={proc.returncode} {_sha(proc.stdout)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
