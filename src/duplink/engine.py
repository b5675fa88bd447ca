"""Synchronous simulation of per-UE power adaptation.

Every iteration all UEs observe the same iteration-k quantities (powers,
effective interference, rate differentials, backhaul states), decide their
next powers simultaneously, and the engine then re-derives interference,
SINR and rates for the new power vector. A run stops early once the power
vector has been stable for a window of iterations, or is flagged as
oscillating when it revisits an earlier, non-adjacent iterate without
settling.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .backhaul import BackhaulReport, BackhaulState, rate_differentials
from .metrics import CrossGainMatrices, PowerState, build_matrices, compute_state
from .policies import POLICY_NAMES, bdt_update, fm_update, greedy_update, waterfill
from .scenarios import GenParams, generate

CONVERGED = "converged"
OSCILLATING = "oscillating"
MAX_ITERATIONS = "max_iterations"

_FEAS_SLACK = 1e-9

# A custom policy decides every UE at once: policy(m, now, report)
# returns the next (p1, p2) arrays, before the feasibility guard.
PolicyFn = Callable[[CrossGainMatrices, PowerState, BackhaulReport],
                    tuple[np.ndarray, np.ndarray]]
Policy = Union[str, PolicyFn]


@dataclass
class Verdict:
    kind: str
    iteration: Optional[int] = None   # iteration at which the run settled
    period: Optional[int] = None      # estimated cycle length when oscillating

    @property
    def converged(self) -> bool:
        return self.kind == CONVERGED


@dataclass
class Trace:
    states: list[PowerState]
    reports: list[BackhaulReport]
    verdict: Verdict
    metrics: dict


def _check_policy(policy: Policy) -> None:
    if not callable(policy) and policy not in POLICY_NAMES:
        raise ValueError(f"unknown policy {policy!r}; expected one of {POLICY_NAMES}")


def initial_state(m: CrossGainMatrices,
                  p0: Optional[tuple[np.ndarray, np.ndarray]] = None) -> PowerState:
    """Default start: each UE splits its budget equally over its links."""
    if p0 is not None:
        return compute_state(m, p0[0], p0[1])
    half = m.p_max / 2
    return compute_state(m, half, np.where(m.dual, half, 0.0))


def _dual_update(policy: str, m: CrossGainMatrices, now: PowerState,
                 report: BackhaulReport, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The named policy on the dual-connectivity rows ``d``."""
    budget = (m.p_max[d], now.e1[d], now.e2[d], m.w1[d], m.w2[d])
    if policy == "bdt":
        return bdt_update(report.state[d], now.p1[d], now.p2[d], *budget, m.z)
    if policy == "greedy":
        return greedy_update(*budget, np.maximum(report.v1[d], 0.0),
                             np.maximum(report.v2[d], 0.0))
    return waterfill(*budget)  # "wf" and "mixed-fm"


def step(
    m: CrossGainMatrices, now: PowerState, policy: Policy, report: BackhaulReport
) -> PowerState:
    """Apply the policy once to every UE, using iteration-k observations only:
    the powers ``now`` and their backhaul ``report``.

    A policy name applies to the dual-connectivity UEs; single-link UEs
    always run the fixed-SINR update. A callable decides every UE.
    """
    _check_policy(policy)
    if callable(policy):
        p1, p2 = (np.asarray(p, dtype=float) for p in policy(m, now, report))
    else:
        p1, p2 = np.zeros(m.n), np.zeros(m.n)
        p1[m.dual], p2[m.dual] = _dual_update(policy, m, now, report, m.dual)
        single = ~m.dual
        if single.any():
            p1[single] = fm_update(now.e1[single], m.beta[single], m.p_max[single])
    bad = ((p1 < -_FEAS_SLACK) | (p2 < -_FEAS_SLACK)
           | (p1 + p2 > m.p_max * (1 + _FEAS_SLACK)))
    if bad.any():
        i = int(np.argmax(bad))
        raise RuntimeError(
            f"policy returned infeasible powers for UE {m.ue_id[i]}: "
            f"({p1[i]}, {p2[i]}) with p_max {m.p_max[i]}"
        )
    p1 = np.minimum(np.maximum(p1, 0.0), m.p_max)
    p2 = np.minimum(np.maximum(p2, 0.0), m.p_max - p1)
    return compute_state(m, p1, p2)


def run(
    m: CrossGainMatrices,
    policy: Policy,
    max_iter: int = 100,
    eps: float = 1e-6,
    window: int = 5,
    p0: Optional[tuple[np.ndarray, np.ndarray]] = None,
) -> Trace:
    """Iterate the chosen policy and classify the outcome.

    ``policy`` is a name from ``POLICY_NAMES`` or a callable
    ``policy(m, now, report) -> (p1, p2)`` over all UEs.
    Convergence requires the infinity-norm power step to stay below ``eps``
    for ``window`` consecutive iterations. Oscillation is declared when the
    trajectory returns to within ``eps`` of an earlier, non-adjacent iterate
    while still moving.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if window < 1:
        raise ValueError("window must be >= 1")
    if not 0 < eps < math.inf:
        raise ValueError(f"eps must be finite and > 0, got {eps}")
    _check_policy(policy)

    states = [initial_state(m, p0)]
    reports = [rate_differentials(m, states[0].rate1, states[0].rate2)]
    verdict = Verdict(CONVERGED, iteration=0)
    n = m.n
    if n:  # an empty network has nothing to iterate
        verdict = Verdict(MAX_ITERATIONS)
        # Row k holds iterate k's powers, p1 then p2.
        powers = np.empty((max_iter + 1, 2 * n))
        powers[0, :n], powers[0, n:] = states[0].p1, states[0].p2
        stable = 0
        for k in range(max_iter):
            nxt = step(m, states[-1], policy, reports[-1])
            powers[k + 1, :n], powers[k + 1, n:] = nxt.p1, nxt.p2
            delta = float(np.max(np.abs(powers[k + 1] - powers[k])))
            states.append(nxt)
            reports.append(rate_differentials(m, nxt.rate1, nxt.rate2))

            stable = stable + 1 if delta < eps else 0
            if stable >= window:
                verdict = Verdict(CONVERGED, iteration=k + 1 - window + 1)
                break
            if delta >= eps:
                revisit = _find_revisit(powers[:k + 2], eps)
                if revisit is not None:
                    verdict = Verdict(OSCILLATING, period=revisit)
                    break

    trace = Trace(states, reports, verdict, {})
    trace.metrics = trace_metrics(trace, m)
    return trace


def _find_revisit(powers: np.ndarray, eps: float) -> Optional[int]:
    """Cycle length if the newest row matches an earlier non-adjacent one
    (the latest such row)."""
    k = powers.shape[0] - 1
    gaps = np.max(np.abs(powers[:k - 1] - powers[k]), axis=1, initial=0.0)
    hits = np.flatnonzero(gaps < eps)
    return int(k - hits[-1]) if hits.size else None


def trace_metrics(trace: Trace, m: CrossGainMatrices) -> dict:
    """Headline numbers of a finished run."""
    final = trace.states[-1]
    bandwidth = m.bandwidth_in_use
    eta_n = trace.reports[-1].eta_n
    totals = final.p1 + final.p2
    return {
        "eta_n_final": eta_n,
        "eta_n_normalized": eta_n / bandwidth if bandwidth > 0 else 0.0,
        "avg_total_power": float(np.mean(totals)) if m.n else 0.0,
        "iterations_run": len(trace.states) - 1,
    }


def trace_to_csv(trace: Trace, m: CrossGainMatrices, path: str | Path) -> None:
    """One row per iteration: k, per-UE powers/rates/state, network rate."""
    header = ["k"]
    for ue in m.ue_id.tolist():
        header += [f"p1_{ue}", f"p2_{ue}", f"rate1_{ue}", f"rate2_{ue}", f"state_{ue}"]
    header.append("eta_n")
    names = [""] + [state.name for state in BackhaulState]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for k, (st, rep) in enumerate(zip(trace.states, trace.reports)):
            row: list = [k]
            for p1, p2, r1, r2, code in zip(st.p1.tolist(), st.p2.tolist(),
                                            st.rate1.tolist(), st.rate2.tolist(),
                                            rep.state.tolist()):
                row += [repr(p1), repr(p2), repr(r1), repr(r2), names[code]]
            row.append(repr(rep.eta_n))
            writer.writerow(row)


# --- Monte Carlo sweeps ---------------------------------------------------------


@dataclass
class SweepPoint:
    sweep_var: str
    sweep_value: object
    params: GenParams


def _trial_seed(base_seed: int, point_idx: int, trial: int, attempt: int = 0) -> int:
    seq = np.random.SeedSequence([int(base_seed), point_idx, trial, attempt])
    return int(seq.generate_state(1)[0])


def monte_carlo(
    points: Sequence[SweepPoint],
    policies: Sequence[str],
    trials: int,
    seeds: int | Sequence[int],
    max_iter: int = 50,
    eps: float = 1e-6,
    window: int = 5,
    require_contractive: bool = False,
    max_attempts: int = 200,
) -> list[dict]:
    """Seeded sweep: every policy sees the same scenario in a given trial.

    ``seeds`` is either a base seed (per-trial seeds are derived from it) or
    an explicit per-trial seed list. With ``require_contractive`` the
    generator rejects scenarios whose waterfilling iteration matrix has a
    spectral radius of 1 or more, re-drawing deterministically.
    """
    from .equilibrium import build_system, spectral_radius

    if trials < 1:
        raise ValueError("trials must be >= 1")
    seed_list = list(seeds) if not isinstance(seeds, int) else None
    if seed_list is not None and len(seed_list) < trials:
        raise ValueError(f"need {trials} seeds, got {len(seed_list)}")

    rows = []
    for point_idx, point in enumerate(points):
        for trial in range(trials):
            for attempt in range(max_attempts):
                if seed_list is not None:
                    seed = _trial_seed(seed_list[trial], point_idx, 0, attempt)
                else:
                    seed = _trial_seed(seeds, point_idx, trial, attempt)
                mat = build_matrices(generate(replace(point.params, seed=seed)))
                if not require_contractive or spectral_radius(build_system(mat)[0]) < 1.0:
                    break
            else:
                raise RuntimeError(
                    f"no contractive scenario found for point {point.sweep_value!r}, "
                    f"trial {trial} after {max_attempts} attempts"
                )
            for policy in policies:
                trace = run(mat, policy, max_iter=max_iter, eps=eps, window=window)
                rows.append({
                    "sweep_var": point.sweep_var,
                    "sweep_value": point.sweep_value,
                    "policy": policy,
                    "trial": trial,
                    "eta_n_normalized": trace.metrics["eta_n_normalized"],
                    "avg_total_power": trace.metrics["avg_total_power"],
                    "converged": trace.verdict.converged,
                })
    return rows


def aggregate(rows: Sequence[dict]) -> list[dict]:
    """Mean, standard error and convergence percentage per (point, policy)."""
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        key = (row["sweep_var"], row["sweep_value"], row["policy"])
        groups.setdefault(key, []).append(row)

    def mean_se(values: list[float]) -> tuple[float, float]:
        arr = np.asarray(values, dtype=float)
        se = float(arr.std(ddof=1) / np.sqrt(len(arr))) if len(arr) > 1 else 0.0
        return float(arr.mean()), se

    out = []
    for key, grp in groups.items():
        eta_mean, eta_se = mean_se([g["eta_n_normalized"] for g in grp])
        pow_mean, pow_se = mean_se([g["avg_total_power"] for g in grp])
        out.append({
            "sweep_var": key[0],
            "sweep_value": key[1],
            "policy": key[2],
            "n_trials": len(grp),
            "eta_n_normalized_mean": eta_mean,
            "eta_n_normalized_se": eta_se,
            "avg_total_power_mean": pow_mean,
            "avg_total_power_se": pow_se,
            "converged_pct": 100.0 * sum(g["converged"] for g in grp) / len(grp),
        })
    return out
