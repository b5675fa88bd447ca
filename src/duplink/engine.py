"""Synchronous simulation of per-UE power adaptation.

Every iteration all UEs observe the same iteration-k quantities (powers,
effective interference, rate differentials, backhaul states), decide their
next powers simultaneously, and the engine then re-derives interference,
SINR and rates for the new power vector. A run stops early once the power
vector has been stable for a window of iterations, or is flagged as
oscillating when it revisits an earlier, non-adjacent iterate without
settling.

One loop, ``run``'s, serves every run: it advances a stack of networks in
lockstep, each row as if alone, and one network runs unstacked as a batch
of one that hands every iterate to a sink, such as ``TraceCsv``. A Monte
Carlo sweep runs all trials and policies of a sweep point as one stack.

``step`` takes a policy name, one name per network of a stack, or a
callable. ``run`` resolves the network and the policy once into a batch
(``_Batch``: the resolved network plus which rule each UE runs and the
rules' fixed terms, once the names' shape and the arguments that stay
fixed are checked) and passes it as ``m`` to ``initial_state``, ``step``,
``compute_state`` and ``rate_differentials``, by their names in this
module, with the iterate as link pairs; only the batch passes a link pair
with its second array None. What a batch derives, and what it keeps when a
network leaves with its verdict, is stated in ``metrics._Links``; the
iterate and the report leave by ``metrics._take``. The checks that depend
on the iterate run at every step: the power budget of each decision, an
active link's interference in ``compute_state``, and, where some effective
interference is <= 0, the rules' check that it is > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

from .backhaul import BackhaulReport, BackhaulState, rate_differentials
from .metrics import (_PER_NETWORK, CrossGainMatrices, PowerState, _Links, _take,
                      build_matrices, compute_state)
from .network import _POSITIVE, _integers, _reprs
from .policies import (POLICY_NAMES, _bdt, _bdt_coefficients, _check_beta, _check_budget,
                       _check_interference, _check_z, _fm, _greedy, _rate_cap, _waterfill)
from .scenarios import GenParams, _draw

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
    """A finished run: its last state and report, verdict and headline numbers."""

    state: PowerState
    report: BackhaulReport
    verdict: Verdict
    metrics: dict


def initial_state(m: CrossGainMatrices,
                  p0: Optional[tuple[np.ndarray, np.ndarray]] = None) -> PowerState:
    """Default start: each UE splits its budget equally over its links.

    A given start ``p0 = (p1, p2)`` must have the networks' shape, be finite
    and >= 0, keep p1 + p2 within p_max (up to the policies' feasibility
    slack) and put no power on an absent second link; ValueError names the
    first UE that does not. ``run`` passes its batch in place of ``m``.
    """
    links, m = m, (m.m if isinstance(m, _Links) else m)
    if p0 is None:
        half = m.p_max / 2
        return compute_state(links, half, np.where(m.dual, half, 0.0))
    p1, p2 = (np.asarray(p, dtype=float) for p in p0)
    if p1.shape != m.p_max.shape or p2.shape != m.p_max.shape:
        raise ValueError(f"p0 must be two power vectors of shape {m.p_max.shape}")
    for bad, why in (
            (~(np.isfinite(p1) & np.isfinite(p2) & (p1 >= 0) & (p2 >= 0)),
             "powers must be finite and >= 0"),
            (~(p1 + p2 <= m.p_max * (1 + _FEAS_SLACK)), "p1 + p2 exceeds p_max"),
            (~m.dual & (p2 != 0), "a single-link UE's p2 must be 0")):
        if bad.any():
            i = np.unravel_index(np.argmax(bad), bad.shape)
            raise ValueError(f"p0 of UE {m.ue_id[i]}: {why}, got ({p1[i]}, {p2[i]}) "
                             f"with p_max {m.p_max[i]}")
    return compute_state(links, p1, p2)


class _Batch(_Links):
    """A policy resolved on a network or a stack: the network resolved
    (``_Links``) plus the rules, so that ``run`` passes it to ``step``,
    ``compute_state`` and ``rate_differentials``. Per row: the masks of the
    UEs that run bdt's table and greedy (None where no UE runs that rule),
    the feasibility ceiling ``cap`` = p_max * (1 + slack) and waterfilling's
    fixed terms ``w1p`` = w1 * p_max and ``wsum`` = w1 + w2. bdt's
    coefficients of link y's next power in state s under the stack's z sit
    at ``bdt_table[y - 1, :, s - 1]``, (2, 3, 9). A callable policy
    (``custom``) decides every UE of the one network ``m``. Under names, the
    network keeps ``f`` up to the last block read, so a leave copies no more.
    """

    def __init__(self, m: CrossGainMatrices, policy):
        """Resolve ``policy`` (see ``step``) on ``m``, checking the rules' fixed
        arguments with the policies' messages. ValueError unless the names
        are one name or, on a stack, one name per network, each known."""
        self.custom = policy if callable(policy) else None
        self.bdt = self.greedy = self.bdt_table = None
        if self.custom is None:
            names, batch = np.asarray(policy), m.p_max.shape[:-1]
            if names.shape not in ((), batch):
                count = len(names) if names.ndim == 1 else f"an array of shape {names.shape} of"
                where = f"a stack of {batch[0]} networks" if batch else "one network"
                raise ValueError(f"{count} policy names for {where}")
            for name in dict.fromkeys(names.ravel().tolist()):  # in order of first use
                if name not in POLICY_NAMES:
                    raise ValueError(f"unknown policy {name!r}; expected one of {POLICY_NAMES}")
            per_row = names[..., None]
            self.bdt, self.greedy = m.dual & (per_row == "bdt"), m.dual & (per_row == "greedy")
        super().__init__(m)
        if self.custom is not None:
            return
        _check_budget(m.p_max[m.dual], m.w1[m.dual], m.w2[m.dual])
        if self.bdt is not None:
            _check_z(z := np.asarray(m.z, dtype=float))
            self.bdt_table = _bdt_coefficients(np.arange(1, 10), z)
        if self.single is not None:
            _check_beta(m.beta[self.single])
        x, y = np.max([(-1, -1), *self.blocks], axis=0) + 1
        self.m = replace(m, f=m.f[..., :x, :y, :, :])

    def _derive(self, rows=None) -> None:
        super()._derive()
        m = self.m
        self.cap = m.p_max * (1 + _FEAS_SLACK)
        self.w1p, self.wsum = m.w1 * m.p_max, m.w1 + m.w2
        for rule in ("bdt", "greedy"):  # a take keeps the rows; a rule no UE runs is None
            if (mask := getattr(self, rule)) is not None:
                mask = mask if rows is None else mask.take(rows, axis=0)
                setattr(self, rule, mask if mask.any() else None)


def _decide(b: _Batch, now: PowerState, report: BackhaulReport) -> tuple[np.ndarray, np.ndarray]:
    """The named rules on every UE at once, each UE taking its own rule's
    result: waterfilling ("wf", "mixed-fm" and bdt's S1), bdt's table,
    greedy, and fixed-SINR on the single-link UEs."""
    m, e1, e2 = b.m, now.e1, now.e2
    if (now.e <= 0).any():
        _check_interference(e1, np.where(m.dual, e2, 1.0))
    p1, p2 = wf1, wf2 = _waterfill(m.p_max, e1, e2, m.w1, m.w2, b.w1p, b.wsum)
    if b.bdt is not None:
        # Single-link UEs (state 0) pick S9's entry; it is dropped.
        c = b.bdt_table.take(report.state - 1, axis=2)
        t1, t2 = _bdt(c, now.p1, now.p2, m.p_max)
        tabled = b.bdt & (report.state != 1)
        p1, p2 = np.where(tabled, t1, p1), np.where(tabled, t2, p2)
    if b.greedy is not None:  # both links' caps at once, on link pairs
        c = _rate_cap(now.e, m.w, report.v_links, b.greedy[..., None])
        g1, g2 = _greedy(m.p_max, c[..., 0], c[..., 1], wf1, wf2)
        p1, p2 = np.where(b.greedy, g1, p1), np.where(b.greedy, g2, p2)
    if (single := b.single) is not None:
        p1 = np.where(single, _fm(e1, m.beta, m.p_max), p1)
        p2 = np.where(single, 0.0, p2)
    return p1, p2


def step(
    m: CrossGainMatrices, now: PowerState, policy: Policy, report: BackhaulReport
) -> PowerState:
    """Apply the policy once to every UE, using iteration-k observations only:
    the powers ``now`` and their backhaul ``report``.

    A policy name applies to the dual-connectivity UEs; single-link UEs
    always run the fixed-SINR update. A callable decides every UE. On a
    stack of networks (``stack_matrices``) ``policy`` may also hold one name
    per network; any other shape of names raises ValueError. ``step``
    resolves ``m`` with the policy on every call; ``run`` resolves them once
    and passes that batch as ``m``, with ``policy`` None.
    """
    b = m if isinstance(m, _Batch) else _Batch(m, policy)
    if b.custom is not None:
        p1, p2 = (np.asarray(p, dtype=float) for p in b.custom(b.m, now, report))
    else:
        p1, p2 = _decide(b, now, report)
    p_max = b.m.p_max
    ok = (p1 >= -_FEAS_SLACK) & (p2 >= -_FEAS_SLACK) & (p1 + p2 <= b.cap)  # NaN fails
    if not ok.all():
        i = np.unravel_index(np.argmin(ok), ok.shape)
        raise RuntimeError(
            f"policy returned infeasible powers for UE {b.m.ue_id[i]}: "
            f"({p1[i]}, {p2[i]}) with p_max {p_max[i]}"
        )
    # The next powers, clipped into the budget, straight into a link pair.
    p = np.empty((*p_max.shape, 2))
    p1 = np.minimum(np.maximum(p1, 0.0), p_max, out=p[..., 0])
    np.minimum(np.maximum(p2, 0.0), p_max - p1, out=p[..., 1])
    return compute_state(b, p, None)


# Iterates the detector's buffer holds before it first grows. It doubles
# when full, so its memory follows the iterations actually run.
_HISTORY_START = 64


def run(
    m: CrossGainMatrices,
    policy: Policy,
    max_iter: int = 100,
    eps: float = 1e-6,
    window: int = 5,
    p0: Optional[tuple[np.ndarray, np.ndarray]] = None,
    sink: Optional[Callable[[PowerState, BackhaulReport], None]] = None,
) -> Trace | list[Trace]:
    """Iterate the chosen policy and classify the outcome.

    ``policy`` is a name from ``POLICY_NAMES`` or a callable
    ``policy(m, now, report) -> (p1, p2)`` over all UEs. ``max_iter`` and
    ``window`` are ints or numpy integers, and ``eps`` a number, never a
    bool (TypeError otherwise).
    Convergence requires the infinity-norm power step to stay below ``eps``
    for ``window`` consecutive iterations. Oscillation is declared when the
    trajectory returns to within ``eps`` of an earlier, non-adjacent iterate
    while still moving. The run starts at ``p0`` (see ``initial_state``).
    ``sink(state, report)``, if given, receives iterate 0 and each later one
    as the run makes it; the Trace keeps only the last.

    On a stack of networks (``stack_matrices``) ``policy`` is a name or one
    name per network, and the networks iterate in lockstep, each as if
    alone; a network leaves the batch once it has its verdict. The result
    is one Trace per network; a stack takes no sink. One loop serves both,
    one network being a batch of one (see the module docstring).
    """
    max_iter, window = _integers(max_iter=max_iter, window=window)
    if isinstance(eps, bool) or not isinstance(eps, (int, float, np.integer, np.floating)):
        raise TypeError(f"eps must be a number, got {eps!r}")
    eps = eps.item() if isinstance(eps, np.generic) else eps  # the value rule takes int or float
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if window < 1:
        raise ValueError("window must be >= 1")
    if not _POSITIVE.ok(eps):
        raise ValueError(_POSITIVE.error("eps", eps))
    if m.p_max.ndim > 1 and (callable(policy) or sink is not None):
        raise ValueError("a stack of networks takes policy names and no sink")
    n = m.n
    b = math.prod(m.p_max.shape[:-1])
    batch = _Batch(m, policy)
    now = initial_state(batch, p0)
    report = rate_differentials(batch, now.rate, None)
    if sink is not None:
        sink(now, report)
    traces: list = [None] * b
    rows = np.arange(b)           # the stack row of each network still running
    # powers[k, j] holds iterate k of the j-th running network: p1 and p2
    # of each UE in turn.
    powers = np.empty((min(max_iter, _HISTORY_START) + 1, b, 2 * n))
    powers[0] = now.p.reshape(b, 2 * n)
    stable = np.zeros(b, dtype=int)
    iterations = 0
    for k in range(max_iter if n else 0):  # an empty network has nothing to iterate
        now = step(batch, now, None, report)
        report = rate_differentials(batch, now.rate, None)
        if sink is not None:
            sink(now, report)
        iterations = k + 1
        if k + 1 == len(powers):
            grown = np.empty((min(2 * k, max_iter) + 1, *powers.shape[1:]))
            grown[:k + 1] = powers
            powers = grown
        newest = powers[k + 1]
        newest[...] = now.p.reshape(newest.shape)
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
                traces[rows[j]] = _trace(batch, now, report, j, verdict, iterations)
            keep = np.flatnonzero(~done)
            rows, stable = rows[keep], stable[keep]
            if not rows.size:
                break
            batch, powers = batch.take(keep), powers.take(keep, axis=1)
            now, report = _take(now, keep), _take(report, keep)

    verdict = Verdict(MAX_ITERATIONS) if n else Verdict(CONVERGED, iteration=0)
    for j, row in enumerate(rows.tolist()):
        traces[row] = _trace(batch, now, report, j, verdict, iterations)
    return traces if m.p_max.ndim > 1 else traces[0]


def _trace(batch: _Batch, now: PowerState, report: BackhaulReport, j: int,
           verdict: Verdict, iterations: int) -> Trace:
    """The Trace of batch row ``j`` at its last iterate, with the run's
    headline numbers as its metrics; a stack's row holds views of the
    batch's arrays."""
    one = batch.m.p_max.ndim == 1  # one network, not a stack
    final, last = (now, report) if one else (_take(now, j), _take(report, j))
    bandwidth = float(batch.m.bandwidth_in_use if one else batch.m.bandwidth_in_use[j])
    totals = final.p1 + final.p2
    metrics = {
        "eta_n_final": last.eta_n,
        "eta_n_normalized": last.eta_n / bandwidth if bandwidth > 0 else 0.0,
        "avg_total_power": float(np.mean(totals)) if totals.size else 0.0,
        "iterations_run": iterations,
    }
    return Trace(final, last, verdict, metrics)


_STATE_NAMES = np.array([""] + [state.name for state in BackhaulState], dtype=object)


class TraceCsv:
    """The trace.csv writer, a ``run`` sink: one row per iterate to the text
    file ``fh``, as ``csv.writer`` writes ``repr`` of each number. It holds up
    to 16 iterates, and writes them when full and on ``flush``, after the run."""

    def __init__(self, m: CrossGainMatrices, fh):
        self.fh, self.k, self.eta = fh, 0, []  # eta_n of each iterate held
        self.numbers = np.empty((16, 5, m.ue_id.size))  # and p1, p2, rate1, rate2, state code
        fh.write(",".join(["k", *(f"{col}_{ue}" for ue in m.ue_id.tolist() for col in
                                  ("p1", "p2", "rate1", "rate2", "state")), "eta_n"]) + "\r\n")

    def __call__(self, state: PowerState, report: BackhaulReport) -> None:
        self.numbers[len(self.eta)] = state.p1, state.p2, state.rate1, state.rate2, report.state
        self.eta.append(report.eta_n)
        if len(self.eta) == len(self.numbers):
            self.flush()

    def flush(self) -> None:
        """Write the buffered rows, each distinct number of a row printed once."""
        cells = np.empty((self.numbers.shape[2], 5), dtype=object)  # one row's UE cells
        for numbers, eta in zip(self.numbers, self.eta):
            bits, at = np.unique(numbers[:4].T.view(np.int64), return_inverse=True)  # -0.0 != 0.0
            cells[:, :4] = np.array(_reprs(bits.view(float)), dtype=object)[at.reshape(-1, 4)]
            cells[:, 4] = _STATE_NAMES[numbers[4].astype(int)]
            self.fh.write(",".join([str(self.k), *cells.ravel().tolist(), repr(eta)]) + "\r\n")
            self.k += 1
        self.eta.clear()


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
    an explicit per-trial seed list; ``trials`` and every seed are ints or
    numpy integers (TypeError otherwise). A point's trials are drawn and built as
    one batch (``build_matrices`` of the generator's batch record), each the
    network ``build_matrices(generate(...))`` gives, bit for bit. With
    ``require_contractive`` a trial whose waterfilling iteration matrix has a
    spectral radius of 1 or more is drawn again with the next attempt's
    seed, the rejected trials together; RuntimeError names the lowest trial
    still rejected after ``_MAX_ATTEMPTS`` draws. The trials x policies runs
    of a point, which share its tau and z, advance as one stack through
    ``run`` at its default ``eps`` and ``window``, with the results of
    separate runs.
    """
    from .equilibrium import build_system, spectral_radius

    (trials,) = _integers(trials=trials)
    if isinstance(seeds, Iterable):
        seed_list = _integers(**{f"seeds[{i}]": seed for i, seed in enumerate(seeds)})
    else:
        seed_list, (seeds,) = None, _integers(seeds=seeds)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not policies:
        raise ValueError("need at least one policy")
    if seed_list is not None and len(seed_list) < trials:
        raise ValueError(f"need {trials} seeds, got {len(seed_list)}")

    rows = []
    for point_idx, point in enumerate(points):
        m, todo = None, np.arange(trials)  # the trials still without a network
        for attempt in range(_MAX_ATTEMPTS):
            drawn = build_matrices(_draw(point.params, [
                _trial_seed(seed_list[t], point_idx, 0, attempt) if seed_list is not None
                else _trial_seed(seeds, point_idx, t, attempt) for t in todo.tolist()])[0])
            ok = (spectral_radius(build_system(drawn)[0]) < 1.0 if require_contractive
                  else np.ones(len(todo), dtype=bool))
            if m is None:
                m = drawn
            else:  # the re-drawn trials take their rows of the point's stack
                for name in _PER_NETWORK:
                    getattr(m, name)[todo[ok]] = getattr(drawn, name)[ok]
            todo = todo[~ok]
            if not todo.size:
                break
        else:
            raise RuntimeError(
                f"no contractive scenario found for point {point.sweep_value!r}, "
                f"trial {todo[0]} after {_MAX_ATTEMPTS} attempts"
            )
        # One row per trial and policy, the policies of a trial side by side.
        m = m.take(np.arange(trials).repeat(len(policies)))
        traces = run(m, list(policies) * trials, max_iter=max_iter)
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
