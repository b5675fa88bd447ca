"""Command-line entry point.

Two subcommands:

  run         one simulation over a scenario JSON file; writes trace.csv,
              metrics.json, and equilibrium.json (predicted vs simulated
              fixed point, when the iteration matrix is contractive).
  experiment  seeded Monte Carlo presets sweeping tau/Z, UE count, backhaul
              scale, or small-cell count; writes trials.csv + summary.csv.

Exit codes: 0 success, 2 usage error (including an output that cannot be
written), 3 scenario validation error (including a missing gain, a
non-finite number and a link out of float range), 4 runtime numerical
failure. The default output directory can be set with DUPLINK_OUT.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .engine import SweepPoint, TraceCsv, aggregate, monte_carlo, run
from .equilibrium import build_system, closed_form_equilibrium, spectral_radius
from .metrics import build_matrices
from .network import load_scenario, validate_scenario
from .policies import POLICY_NAMES
from .scenarios import GenParams

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_NUMERICAL = 4

TRIAL_COLUMNS = ["preset", "sweep_var", "sweep_value", "policy", "trial",
                 "eta_n_normalized", "avg_total_power", "converged"]
SUMMARY_COLUMNS = ["preset", "sweep_var", "sweep_value", "policy", "n_trials",
                   "eta_n_normalized_mean", "eta_n_normalized_se",
                   "avg_total_power_mean", "avg_total_power_se", "converged_pct"]


def _default_out() -> str:
    return os.environ.get("DUPLINK_OUT", ".")


def _count(text: str, low: int = 1) -> int:
    """argparse type: an integer >= low."""
    try:
        value = int(text)
    except ValueError:
        value = low - 1
    if value < low:
        raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {text!r}")
    return value


def _positive(text: str) -> float:
    """argparse type: a finite number > 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text!r}")
    return value


def _write_rows(columns: list[str], rows: list[dict], path: Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)


def _out_dir(text: str) -> Path | None:
    """The output directory, created with its parents; None once the reason
    it cannot be is printed."""
    out = Path(text)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output dir: {exc}", file=sys.stderr)
        return None
    return out


def _write_outputs(out: Path, writers: dict) -> int:
    """Call each writer on its file in ``out``; exit 2 at the first that fails."""
    for name, write in writers.items():
        try:
            write(out / name)
        except OSError as exc:
            print(f"error: cannot write output: {out / name}: {exc.strerror}", file=sys.stderr)
            return EXIT_USAGE
    return EXIT_OK


def _equilibrium_payload(m, a, c, trace, policy: str) -> dict | None:
    """equilibrium.json: the predicted fixed point of the population's affine
    iteration (``a`` and ``c``), when contractive, next to where it ended.

    The prediction is the waterfilling fixed point, with fixed-SINR rows on
    single-link UEs; it describes ``policy`` only when that is ``wf`` (or
    ``mixed-fm``, the same update).
    """
    rho = spectral_radius(a)
    if rho >= 1.0:
        return None
    p1, p2 = closed_form_equilibrium(m, a, c, rho)
    mixed = not m.dual.all()
    payload = {"policy": policy, "prediction": "wf", "spectral_radius": rho}
    if not mixed:
        payload["spectral_radius_abs"] = spectral_radius(np.abs(a))
    payload.update({
        "mixed_population": mixed,
        "predicted_p1": [float(x) for x in p1],
        "predicted_p2": [float(x) for x in p2],
        "interior": bool(np.all(p1 > 0) and np.all(p1 < m.p_max)),
        "simulated_p1": [float(x) for x in trace.state.p1],
        "simulated_p2": [float(x) for x in trace.state.p2],
        "max_abs_error_p1": float(np.max(np.abs(trace.state.p1 - p1), initial=0.0)),
    })
    return payload


def cmd_run(args: argparse.Namespace) -> int:
    path = Path(args.scenario)
    if not path.is_file():
        print(f"error: scenario file not found: {path}", file=sys.stderr)
        return EXIT_USAGE
    try:
        scenario = load_scenario(path)
    except (json.JSONDecodeError, KeyError, TypeError, ValueError, RecursionError) as exc:
        print(f"error: cannot parse scenario: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    if args.tau is not None:
        scenario = replace(scenario, tau=args.tau)
    if args.z is not None:
        scenario = replace(scenario, z_factor=args.z)

    violations = validate_scenario(scenario)
    if not violations:
        try:
            mat = build_matrices(scenario)
            a, c = build_system(mat)
        except (KeyError, ValueError) as exc:  # a required gain is absent, or out of range
            violations = [exc.args[0]]
    if violations:
        print("scenario validation failed:", file=sys.stderr)
        for v in violations:
            print(f"  - {v}", file=sys.stderr)
        return EXIT_VALIDATION

    if (out := _out_dir(args.out)) is None:
        return EXIT_USAGE

    # trace.csv streams to a pending file, renamed once all is ready and removed on failure.
    pending = out / f".trace.csv.{os.getpid()}.tmp"
    try:
        with open(pending, "w", newline="") as fh:
            sink = TraceCsv(mat, fh)
            trace = run(mat, args.policy, max_iter=args.iters, eps=args.eps,
                        window=args.window, sink=sink)
            sink.flush()
        equilibrium = _equilibrium_payload(mat, a, c, trace, args.policy)
        v = trace.verdict
        payload = {**trace.metrics, "verdict": v.kind, "converged_at": v.iteration,
                   "oscillation_period": v.period}
        if code := _write_outputs(out, {
            "trace.csv": pending.replace,
            "metrics.json": lambda path: path.write_text(json.dumps(payload, indent=2)),
            "equilibrium.json": partial(Path.unlink, missing_ok=True) if equilibrium is None
            else lambda path: path.write_text(json.dumps(equilibrium, indent=2))}):
            return code
    except OSError as exc:  # writing the pending trace; _write_outputs reports its own
        print(f"error: cannot write output: {out / 'trace.csv'}: {exc.strerror}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        pending.unlink(missing_ok=True)
    print(f"{trace.verdict.kind} after {trace.metrics['iterations_run']} iterations; "
          f"eta_n = {trace.metrics['eta_n_final']:.4g} bit/s")
    return EXIT_OK


# --- experiment presets ---------------------------------------------------------
#
# Shared defaults: 3 relays at 100 Mbps, 4 picocells at 200 Mbps, macrocell at
# 1 Gbps, 200 m drop radius, path-loss exponent 3.7, 1/5 MHz channels,
# tau = 5 Mbps, Z = 0.9, 50 iterations (fig2b uses 100). Deviations per preset
# are listed below.


def _preset_fig2b() -> tuple[list[SweepPoint], dict]:
    """Convergence percentage over a (tau, Z) grid, 21 UEs, contractive
    scenarios only, 100 iterations, policies bdt and greedy."""
    points = []
    for tau_mbps in (1, 2, 5, 10, 20):
        for z in (0.5, 0.7, 0.9, 0.95):
            params = GenParams(n_ues=21, tau=tau_mbps * 1e6, z_factor=z)
            points.append(SweepPoint("tau_z", f"{tau_mbps}Mbps|Z{z}", params))
    return points, {"policies": ("bdt", "greedy"), "max_iter": 100,
                    "require_contractive": True}


def _preset_fig3() -> tuple[list[SweepPoint], dict]:
    """Network-size sweep at default backhaul."""
    points = [SweepPoint("n_ues", n, GenParams(n_ues=n))
              for n in (2, 4, 6, 8, 12, 16, 21)]
    return points, {"policies": ("bdt", "wf", "greedy"), "max_iter": 50}


def _preset_fig4() -> tuple[list[SweepPoint], dict]:
    """Backhaul-scale sweep at 21 UEs."""
    points = [SweepPoint("backhaul_scale", scale,
                         GenParams(n_ues=21, backhaul_scale=scale))
              for scale in (0.1, 0.2, 0.3, 0.5, 0.75, 1.0, 1.5, 2.0)]
    return points, {"policies": ("bdt", "wf", "greedy"), "max_iter": 50}


def _preset_fig5() -> tuple[list[SweepPoint], dict]:
    """Small-cell count sweep: 3 UEs per cell, 50 Mbps small-cell backhaul,
    cells kept at least two drop radii apart."""
    points = []
    for kind in ("n_picos", "n_relays"):
        for cells in (2, 4, 6, 8):
            params = GenParams(
                n_ues=3 * cells,
                n_relays=cells if kind == "n_relays" else 0,
                n_picos=cells if kind == "n_picos" else 0,
                eta_relay=50e6,
                eta_pico=50e6,
                min_poa_separation=400.0,
            )
            points.append(SweepPoint(kind, cells, params))
    return points, {"policies": ("bdt", "wf", "greedy"), "max_iter": 50}


PRESETS = {
    "fig2b": _preset_fig2b,
    "fig3": _preset_fig3,
    "fig4": _preset_fig4,
    "fig5": _preset_fig5,
}


def cmd_experiment(args: argparse.Namespace) -> int:
    points, kwargs = PRESETS[args.preset]()
    if (out := _out_dir(args.out)) is None:
        return EXIT_USAGE

    policies = kwargs.pop("policies")
    rows = monte_carlo(points, policies, trials=args.trials, seeds=args.seed, **kwargs)
    for row in rows:
        row["preset"] = args.preset
        row["converged"] = int(row["converged"])
    summary = aggregate(rows)
    for row in summary:
        row["preset"] = args.preset

    if code := _write_outputs(out, {
        "trials.csv": partial(_write_rows, TRIAL_COLUMNS, rows),
        "summary.csv": partial(_write_rows, SUMMARY_COLUMNS, summary)}):
        return code
    print(f"wrote {len(rows)} trial rows and {len(summary)} summary rows to {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="duplink",
        description="Uplink power allocation simulator for dual-connectivity "
                    "networks with capacity-limited backhaul",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one scenario")
    p_run.add_argument("--scenario", required=True, help="scenario JSON file")
    p_run.add_argument("--policy", required=True, choices=POLICY_NAMES)
    p_run.add_argument("--iters", type=_count, default=100)
    p_run.add_argument("--eps", type=_positive, default=1e-6,
                       help="convergence threshold on the power step (watts)")
    p_run.add_argument("--window", type=_count, default=5,
                       help="consecutive stable iterations required")
    p_run.add_argument("--tau", type=float, default=None,
                       help="override the scenario's rate-differential threshold")
    p_run.add_argument("--z", type=float, default=None,
                       help="override the scenario's power scaling factor")
    p_run.add_argument("--out", default=_default_out())
    p_run.set_defaults(func=cmd_run)

    p_exp = sub.add_parser("experiment", help="run a Monte Carlo preset")
    p_exp.add_argument("--preset", required=True, choices=sorted(PRESETS))
    p_exp.add_argument("--trials", type=_count, required=True)
    p_exp.add_argument("--seed", type=lambda text: _count(text, low=0), default=0)
    p_exp.add_argument("--out", default=_default_out())
    p_exp.set_defaults(func=cmd_experiment)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except (np.linalg.LinAlgError, FloatingPointError, RuntimeError) as exc:
        # The loader's RecursionError, a RuntimeError, is an exit 3 in cmd_run.
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
