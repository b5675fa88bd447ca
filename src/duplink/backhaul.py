"""Backhaul load accounting: network capacity, rate differentials, UE states.

The end-to-end network capacity is the max-flow of the two-tier topology:
picocells forward directly to the backbone, relays forward through the
macrocell, so relay traffic competes with macrocell access traffic for the
macrocell backhaul. Because the graph is series-parallel the max flow
collapses to nested min() terms and needs no general-purpose solver.

A PoA's rate differential V is its backhaul capacity minus the access-rate
demand placed on it; V < 0 marks the backhaul as a bottleneck. Each UE's pair
(V on link 1, V on link 2) falls into one of nine states that drive the
backhaul-state transmission policy:

    S1  both >= 0              S2  link1 tolerable, link2 >= 0
    S3  link1 >= 0, link2 tolerable       S4  both tolerable
    S5  link1 >= 0, link2 overloaded      S6  link1 overloaded, link2 >= 0
    S7  link1 tolerable, link2 overloaded
    S8  link1 overloaded, link2 tolerable
    S9  both overloaded

where "tolerable" means -tau <= V < 0 and "overloaded" means V < -tau.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum, IntEnum

import numpy as np

from .metrics import CrossGainMatrices


class BackhaulState(IntEnum):
    """Backhaul state S1..S9; the value is the state code in report arrays."""

    __str__ = Enum.__str__  # "BackhaulState.S1" on every Python version

    S1 = 1
    S2 = 2
    S3 = 3
    S4 = 4
    S5 = 5
    S6 = 6
    S7 = 7
    S8 = 8
    S9 = 9


# State code by (category of V1, category of V2), with categories
# 0: V >= 0, 1: -tau <= V < 0, 2: V < -tau.
_STATE_TABLE = np.array([
    [1, 3, 5],
    [2, 4, 7],
    [6, 8, 9],
])


def _category(v, neg_tau):
    """0, 1 or 2 per the table above, for a scalar or an array of V, given
    -tau."""
    return 2 - (v >= neg_tau) - (v >= 0)


def classify_state(v1: float, v2: float, tau: float) -> BackhaulState:
    """Unique backhaul state for a pair of rate differentials."""
    if tau <= 0:
        raise ValueError("tau must be > 0")
    return BackhaulState(int(_STATE_TABLE[_category(v1, -tau), _category(v2, -tau)]))


@dataclass
class BackhaulReport:
    """Per-iteration snapshot of backhaul load and UE backhaul states.

    Per-PoA arrays are indexed by PoA index (PoA id - 1), per-UE arrays by
    UE index. The report of a stack of networks has a leading batch axis on
    every field, the scalars included.
    """

    eta_n: float               # end-to-end network capacity (max-flow)
    load: np.ndarray           # per PoA: access-rate demand
    v: np.ndarray              # per PoA: rate differential
    gamma_relay_sum: float     # relay traffic carried into the MBS
    v1: np.ndarray             # per UE: V of its link-1 PoA
    v2: np.ndarray             # per UE: V of its link-2 PoA, 0 without one
    state: np.ndarray          # per UE: BackhaulState code, 0 on single-link UEs


def _sum_left_to_right(x: np.ndarray) -> np.ndarray:
    """Sum over the last axis in index order, so that each row of a stack
    equals its network summed alone. numpy's ``sum`` adds one network's
    contiguous slice with unrolled partial sums, but a stack's
    ``carried[..., m.relays]`` is a strided block that it adds in index
    order. ``accumulate`` adds in index order in both cases, as Python's
    ``sum`` does."""
    if not x.shape[-1]:
        return np.zeros(x.shape[:-1])
    return np.add.accumulate(x, axis=-1)[..., -1]


def rate_differentials(
    m: CrossGainMatrices, rate1: np.ndarray, rate2: np.ndarray
) -> BackhaulReport:
    """Full backhaul report for one set of per-link access rates, with UE
    states classified by the tolerance ``m.tau``; ValueError unless tau > 0.

    Each PoA sums its links in UE order, link 1 before link 2; absent second
    links land in an extra last bin. ``eta_n`` is the end-to-end network
    capacity. Relay differentials use min(relay capacity, max(V_macro, 0)) as
    the effective ceiling: a relay cannot usefully carry more than the
    macrocell backhaul has head-room for. Overload is not clamped; the
    magnitude of a negative differential is what the adaptation policy
    reacts to. On a stack of networks (``stack_matrices``) every row is
    reported as if alone.
    """
    if m.tau <= 0:
        raise ValueError("tau must be > 0")
    index = m._bin_index
    shape = (*index.shape[:-2], m.n_poas + 1)  # the bins of one row, per row
    rates = np.empty(index.shape)
    rates[..., 0], rates[..., 1] = rate1, rate2
    load = np.bincount(index.ravel(), rates.ravel(), math.prod(shape)).reshape(shape)
    carried = np.minimum(m.capacity, load[..., :-1])
    gamma = _sum_left_to_right(carried[..., m.relays])
    eta_n = np.minimum(m.capacity[m.macro], load[..., m.macro] + gamma)
    eta_n = eta_n + _sum_left_to_right(carried[..., m.picos])
    v = np.zeros(load.shape)  # the last bin, where no PoA is, stays at V = 0
    v[..., :-1] = m.capacity - load[..., :-1]
    v[..., m.macro] -= gamma
    headroom = np.maximum(v[..., m.macro], 0.0)[..., None]
    v[..., m.relays] = np.minimum(m.capacity[m.relays], headroom) - load[..., m.relays]
    v_links = v.ravel()[index]  # V of each link's PoA, (..., n, 2)
    category = _category(v_links, -m.tau)
    state = np.where(m.dual, _STATE_TABLE[category[..., 0], category[..., 1]], 0)
    if len(shape) == 1:
        eta_n, gamma = float(eta_n), float(gamma)
    return BackhaulReport(eta_n=eta_n, load=load[..., :-1], v=v[..., :-1],
                          gamma_relay_sum=gamma, v1=v_links[..., 0], v2=v_links[..., 1],
                          state=state)
