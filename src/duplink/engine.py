"""Synchronous simulation of per-UE power adaptation.

Every iteration all UEs observe the same iteration-k quantities (powers,
effective interference, rate differentials, backhaul states), decide their
next powers simultaneously, and the engine then re-derives interference,
SINR and rates for the new power vector. A run stops early once the power
vector has been stable for a window of iterations, or is flagged as
oscillating when it revisits an earlier, non-adjacent iterate without
settling.

One loop serves every run: it advances a stack of networks in lockstep,
each row as if alone, and a one-network run is its one-row case. A Monte
Carlo sweep runs all trials and policies of a sweep point as one stack.

``step`` takes a policy name, one name per network of a stack, or a
callable. For names it first resolves a plan: which rule each UE runs, the
terms of the rules that do not change between iterations, and the checks
of the arguments that stay fixed (bandwidths and budgets of the dual UEs,
bdt's z, the SINR targets of the single-link UEs). ``run`` resolves the
plan once per batch, and so makes those checks before the first iteration;
networks that leave the batch take their rows of it with them. The checks
that depend on the iterate run at every step: effective interference > 0
for the rules, the power budget of each decision, and an active link's
interference in ``compute_state``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .backhaul import BackhaulReport, BackhaulState, rate_differentials
from .metrics import (CrossGainMatrices, PowerState, build_matrices, compute_state,
                      stack_matrices)
from .network import _reprs
from .policies import (POLICY_NAMES, _bdt, _bdt_coefficients, _check_beta, _check_budget,
                       _check_interference, _check_z, _fm, _greedy, _rate_cap, _waterfill)
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
    """A finished run. ``states`` and ``reports`` hold every iterate of a
    one-network run, and only the last one of a network run in a stack."""

    states: list[PowerState]
    reports: list[BackhaulReport]
    verdict: Verdict
    metrics: dict


def _policy_names(policy) -> list:
    """The distinct names in ``policy`` (a callable has none), in order of
    first use. ``policy`` is a callable, a policy name, or one policy name
    per network of a stack; ValueError on an unknown name."""
    if callable(policy):
        return []
    names = list(dict.fromkeys(np.atleast_1d(policy).tolist()))
    for name in names:
        if name not in POLICY_NAMES:
            raise ValueError(f"unknown policy {name!r}; expected one of {POLICY_NAMES}")
    return names


def initial_state(m: CrossGainMatrices,
                  p0: Optional[tuple[np.ndarray, np.ndarray]] = None) -> PowerState:
    """Default start: each UE splits its budget equally over its links."""
    if p0 is not None:
        return compute_state(m, p0[0], p0[1])
    half = m.p_max / 2
    return compute_state(m, half, np.where(m.dual, half, 0.0))


@dataclass
class _Plan:
    """A policy resolved for one batch of networks: the rule each UE runs
    and the terms of the rules that stay fixed while the batch iterates.
    A mask is None where no UE runs that rule."""

    custom: Optional[PolicyFn]  # a callable deciding every UE, else None
    cap: np.ndarray             # the feasibility ceiling p_max * (1 + slack)
    bdt: Optional[np.ndarray] = None
    greedy: Optional[np.ndarray] = None
    single: Optional[np.ndarray] = None
    w1p: Optional[np.ndarray] = None   # w1 * p_max
    wsum: Optional[np.ndarray] = None  # w1 + w2
    # bdt's coefficients of link y's next power in state s under the stack's
    # z at [y - 1, :, s - 1], (2, 3, 9); ``take`` keeps it whole.
    bdt_table: Optional[np.ndarray] = None

    def take(self, rows) -> _Plan:
        """The plan of the networks at ``rows`` (a mask) of the batch."""
        out = {f.name: getattr(self, f.name)[rows] for f in fields(self)
               if f.name not in ("custom", "bdt_table") and getattr(self, f.name) is not None}
        for rule in ("bdt", "greedy", "single"):
            if rule in out and not out[rule].any():
                out[rule] = None
        return replace(self, **out)


def _plan(m: CrossGainMatrices, policy) -> _Plan:
    """Resolve ``policy`` (see ``step``) on ``m``. The arguments of each
    rule that do not change between iterations are checked here, with the
    policy functions' messages: bandwidths and budgets of the dual UEs, bdt's
    z and the single-link UEs' SINR targets."""
    cap = m.p_max * (1 + _FEAS_SLACK)
    if callable(policy):
        return _Plan(policy, cap)
    _policy_names(policy)
    dual, per_row = m.dual, np.asarray(policy)[..., None]
    bdt, greedy, single = (mask if mask.any() else None for mask in
                           (dual & (per_row == "bdt"), dual & (per_row == "greedy"), ~dual))
    _check_budget(m.p_max[dual], m.w1[dual], m.w2[dual])
    bdt_table = None
    if bdt is not None:
        _check_z(z := np.asarray(m.z, dtype=float))
        bdt_table = np.moveaxis(_bdt_coefficients(np.arange(1, 10), z), 0, -1)
    if single is not None:
        _check_beta(m.beta[single])
    return _Plan(None, cap, bdt, greedy, single, w1p=m.w1 * m.p_max, wsum=m.w1 + m.w2,
                 bdt_table=bdt_table)


def _decide(plan: _Plan, m: CrossGainMatrices, now: PowerState,
            report: BackhaulReport) -> tuple[np.ndarray, np.ndarray]:
    """The named rules on every UE at once, each UE taking its own rule's
    result: waterfilling ("wf", "mixed-fm" and bdt's S1), bdt's table,
    greedy, and fixed-SINR on the single-link UEs."""
    _check_interference(now.e1, np.where(m.dual, now.e2, 1.0))
    p1, p2 = wf1, wf2 = _waterfill(m.p_max, now.e1, now.e2, m.w1, m.w2, plan.w1p, plan.wsum)
    if plan.bdt is not None:
        # Single-link UEs (state 0) pick S9's entry; it is dropped.
        c = plan.bdt_table.take(report.state - 1, axis=2)
        t1, t2 = _bdt(c, now.p1, now.p2, m.p_max)
        tabled = plan.bdt & (report.state != 1)
        p1, p2 = np.where(tabled, t1, p1), np.where(tabled, t2, p2)
    if plan.greedy is not None:
        c1 = _rate_cap(now.e1, m.w1, report.v1, plan.greedy)
        c2 = _rate_cap(now.e2, m.w2, report.v2, plan.greedy)
        g1, g2 = _greedy(m.p_max, c1, c2, wf1, wf2)
        p1, p2 = np.where(plan.greedy, g1, p1), np.where(plan.greedy, g2, p2)
    if plan.single is not None:
        p1 = np.where(plan.single, _fm(now.e1, m.beta, m.p_max), p1)
        p2 = np.where(plan.single, 0.0, p2)
    return p1, p2


def step(
    m: CrossGainMatrices, now: PowerState, policy: Policy, report: BackhaulReport
) -> PowerState:
    """Apply the policy once to every UE, using iteration-k observations only:
    the powers ``now`` and their backhaul ``report``.

    A policy name applies to the dual-connectivity UEs; single-link UEs
    always run the fixed-SINR update. A callable decides every UE. On a
    stack of networks (``stack_matrices``) ``policy`` may also hold one name
    per network. ``run`` resolves the policy once per batch and passes
    that on in its place.
    """
    plan = policy if isinstance(policy, _Plan) else _plan(m, policy)
    if plan.custom is not None:
        p1, p2 = (np.asarray(p, dtype=float) for p in plan.custom(m, now, report))
    else:
        p1, p2 = _decide(plan, m, now, report)
    bad = ~((p1 >= -_FEAS_SLACK) & (p2 >= -_FEAS_SLACK) & (p1 + p2 <= plan.cap))  # NaN too
    if bad.any():
        i = np.unravel_index(np.argmax(bad), bad.shape)
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
) -> Trace | list[Trace]:
    """Iterate the chosen policy and classify the outcome.

    ``policy`` is a name from ``POLICY_NAMES`` or a callable
    ``policy(m, now, report) -> (p1, p2)`` over all UEs.
    Convergence requires the infinity-norm power step to stay below ``eps``
    for ``window`` consecutive iterations. Oscillation is declared when the
    trajectory returns to within ``eps`` of an earlier, non-adjacent iterate
    while still moving.

    On a stack of networks (``stack_matrices``) ``policy`` is a name or one
    name per network, and the networks iterate in lockstep, each as if
    alone; a network leaves the batch once it has its verdict. The result
    is one Trace per network, holding only its last state and report.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if window < 1:
        raise ValueError("window must be >= 1")
    if not 0 < eps < math.inf:
        raise ValueError(f"eps must be finite and > 0, got {eps}")
    _policy_names(policy)  # rejects an unknown name before any work
    if m.d1.ndim == 2:
        if callable(policy):
            raise ValueError("a stack of networks takes policy names")
        names = np.broadcast_to(np.asarray(policy), m.d1.shape[:1])
        return _lockstep(m, names, max_iter, eps, window, p0, None)

    # One network is the one-row case, with its whole history kept.
    if callable(policy):
        custom = policy

        def policy(_, now, report):
            return [np.asarray(p, dtype=float)[None]
                    for p in custom(m, _row(now, 0), _row(report, 0))]

    if p0 is not None:
        p0 = tuple(np.asarray(p, dtype=float)[None] for p in p0)
    history: list = []
    [trace] = _lockstep(stack_matrices([m]), policy, max_iter, eps, window, p0, history)
    trace.states = [_row(state, 0) for state, _ in history]
    trace.reports = [_row(report, 0) for _, report in history]
    return trace


# Iterates the detector's buffer holds before it first grows. It doubles
# when full, so its memory follows the iterations actually run.
_HISTORY_START = 64


def _lockstep(m: CrossGainMatrices, policy, max_iter: int, eps: float, window: int,
              p0, history: Optional[list]) -> list[Trace]:
    """The iteration loop of ``run`` over the rows of a stack; appends every
    iterate's (state, report) to ``history`` when one is given."""
    b, n = m.d1.shape
    plan = _plan(m, policy)
    now = initial_state(m, p0)
    report = rate_differentials(m, now.rate1, now.rate2)
    if history is not None:
        history.append((now, report))
    traces: list = [None] * b
    rows = np.arange(b)           # the stack row of each network still running
    # powers[k, j] holds iterate k of the j-th running network: p1, then p2.
    powers = np.empty((min(max_iter, _HISTORY_START) + 1, b, 2 * n))
    powers[0, :, :n], powers[0, :, n:] = now.p1, now.p2
    stable = np.zeros(b, dtype=int)
    iterations = 0
    for k in range(max_iter if n else 0):  # an empty network has nothing to iterate
        now = step(m, now, plan, report)
        report = rate_differentials(m, now.rate1, now.rate2)
        if history is not None:
            history.append((now, report))
        iterations = k + 1
        if k + 1 == len(powers):
            grown = np.empty((min(2 * k, max_iter) + 1, *powers.shape[1:]))
            grown[:k + 1] = powers
            powers = grown
        newest = powers[k + 1]
        newest[:, :n], newest[:, n:] = now.p1, now.p2
        delta = np.abs(newest - powers[k]).max(axis=1)
        # hit[i, j]: iterate i (earlier and not adjacent) of network j lies
        # within eps of the newest one in every power.
        gaps = powers[:k] - newest
        hit = (np.abs(gaps, out=gaps) < eps).all(axis=2)

        stable = np.where(delta < eps, stable + 1, 0)
        converged = stable >= window
        oscillating = (delta >= eps) & hit.any(axis=0)
        done = converged | oscillating
        if done.any():
            # An oscillation's period counts back to the latest such iterate.
            period = 2 + np.argmax(hit[::-1], axis=0) if oscillating.any() else None
            for j in np.flatnonzero(done).tolist():
                verdict = (Verdict(CONVERGED, iteration=k + 2 - window) if converged[j]
                           else Verdict(OSCILLATING, period=int(period[j])))
                traces[rows[j]] = _final(m, now, report, j, verdict, iterations)
            keep = ~done
            rows, stable = rows[keep], stable[keep]
            if not rows.size:
                break
            m, now, report = m.take(keep), _take(now, keep), _take(report, keep)
            powers, plan = powers[:, keep], plan.take(keep)

    verdict = Verdict(MAX_ITERATIONS) if n else Verdict(CONVERGED, iteration=0)
    for j, row in enumerate(rows.tolist()):
        traces[row] = _final(m, now, report, j, verdict, iterations)
    return traces


_FIELDS = {cls: tuple(f.name for f in fields(cls)) for cls in (PowerState, BackhaulReport)}


def _take(obj, rows):
    """The given rows of a stacked PowerState or BackhaulReport."""
    return type(obj)(**{name: getattr(obj, name)[rows] for name in _FIELDS[type(obj)]})


def _row(obj, j: int):
    """Row ``j`` of a stacked PowerState or BackhaulReport, as one network's."""
    out = {}
    for name in _FIELDS[type(obj)]:
        value = getattr(obj, name)[j]
        out[name] = float(value) if value.ndim == 0 else value
    return type(obj)(**out)


def _final(m: CrossGainMatrices, now: PowerState, report: BackhaulReport, j: int,
           verdict: Verdict, iterations: int) -> Trace:
    """The Trace of stack row ``j`` at its last iterate, with the run's
    headline numbers as its metrics."""
    final, last = _row(now, j), _row(report, j)
    bandwidth = float(m.bandwidth_in_use[j])
    totals = final.p1 + final.p2
    metrics = {
        "eta_n_final": last.eta_n,
        "eta_n_normalized": last.eta_n / bandwidth if bandwidth > 0 else 0.0,
        "avg_total_power": float(np.mean(totals)) if totals.size else 0.0,
        "iterations_run": iterations,
    }
    return Trace([final], [last], verdict, metrics)


def trace_to_csv(trace: Trace, m: CrossGainMatrices, path: str | Path) -> None:
    """One row per iteration: k, per-UE powers/rates/state, network rate, as
    ``csv.writer`` writes each number's ``repr``; each distinct number is printed once."""
    n, k = m.ue_id.size, len(trace.states)
    header = ["k", *(f"{col}_{ue}" for ue in m.ue_id.tolist()
                     for col in ("p1", "p2", "rate1", "rate2", "state")), "eta_n"]
    names = np.array([""] + [state.name for state in BackhaulState], dtype=object)
    numbers = np.array([(s.p1, s.p2, s.rate1, s.rate2) for s in trace.states]).swapaxes(1, 2)
    bits, at = np.unique(numbers.view(np.int64), return_inverse=True)  # -0.0 != 0.0
    cells = np.array(_reprs(bits.view(float)), dtype=object)[at].reshape(k, n, 4)
    states = names[np.array([rep.state for rep in trace.reports], dtype=int).reshape(k, n, 1)]
    rows = np.concatenate([cells, states], axis=2).reshape(k, 5 * n).tolist()
    lines = [",".join(header), *(",".join([str(j), *row, repr(rep.eta_n)])
                                 for j, (row, rep) in enumerate(zip(rows, trace.reports)))]
    Path(path).write_text("\r\n".join(lines) + "\r\n", newline="")


# --- Monte Carlo sweeps ---------------------------------------------------------

_MAX_ATTEMPTS = 200  # draws of one trial before a contractive sweep gives up


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
    require_contractive: bool = False,
) -> list[dict]:
    """Seeded sweep: every policy sees the same scenario in a given trial.

    ``seeds`` is either a base seed (per-trial seeds are derived from it) or
    an explicit per-trial seed list. With ``require_contractive`` the
    generator rejects scenarios whose waterfilling iteration matrix has a
    spectral radius of 1 or more, re-drawing deterministically; RuntimeError
    after ``_MAX_ATTEMPTS`` draws of one trial. The trials x policies runs
    of a point, which share its tau and z, advance as one stack through
    ``run`` at its default ``eps`` and ``window``, with the results of
    separate runs.
    """
    from .equilibrium import build_system, spectral_radius

    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not policies:
        raise ValueError("need at least one policy")
    seed_list = list(seeds) if not isinstance(seeds, int) else None
    if seed_list is not None and len(seed_list) < trials:
        raise ValueError(f"need {trials} seeds, got {len(seed_list)}")

    rows = []
    for point_idx, point in enumerate(points):
        networks = []
        for trial in range(trials):
            for attempt in range(_MAX_ATTEMPTS):
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
                    f"trial {trial} after {_MAX_ATTEMPTS} attempts"
                )
            networks += [mat] * len(policies)
        traces = run(stack_matrices(networks), list(policies) * trials, max_iter=max_iter)
        for i, trace in enumerate(traces):
            rows.append({
                "sweep_var": point.sweep_var,
                "sweep_value": point.sweep_value,
                "policy": policies[i % len(policies)],
                "trial": i // len(policies),
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
