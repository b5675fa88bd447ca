"""Backhaul load accounting: network capacity, rate differentials, UE states.

The end-to-end network capacity is the max-flow of the two-tier topology:
picocells forward directly to the backbone, relays forward through the
macrocell, so relay traffic competes with macrocell access traffic for the
macrocell backhaul. Because the graph is series-parallel the max flow
collapses to nested min() terms and needs no general-purpose solver; they
are written once, in ``metrics._max_flow``, which ``build_matrices`` also
calls for its float-range table.

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
A report holds each UE's pair as a (..., n, 2) link pair, ``v_links``.
``rate_differentials`` reads no coupling block of the network it resolves
(``metrics._Links``); ``run`` passes its batch as the network, with its
link-pair rates and None.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, IntEnum

import numpy as np

from .metrics import CrossGainMatrices, _link, _max_flow, _pair


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


# State code by (level of V1, level of V2), where a level counts the
# thresholds -tau and 0 that V reaches: 2 for V >= 0, 1 for -tau <= V < 0
# (tolerable), 0 for V < -tau (overloaded).
_STATE_TABLE = np.array([
    [9, 8, 6],
    [7, 4, 2],
    [5, 3, 1],
])


def _level(v, tau):
    """0, 1 or 2 per the table above, for a scalar or an array of V;
    ValueError unless tau > 0 (a NaN tau included)."""
    if not tau > 0:
        raise ValueError("tau must be > 0")
    return np.add(v >= -tau, v >= 0, dtype=np.int8)


def classify_state(v1: float, v2: float, tau: float) -> BackhaulState:
    """Unique backhaul state for a pair of rate differentials."""
    return BackhaulState(int(_STATE_TABLE[_level(v1, tau), _level(v2, tau)]))


@dataclass
class BackhaulReport:
    """Per-iteration snapshot of backhaul load and UE backhaul states.

    Per-PoA arrays are indexed by PoA index (PoA id - 1), per-UE arrays by
    UE index. The report of a stack of networks has a leading batch axis on
    every field, the scalars included. ``v1`` and ``v2`` are views of the
    columns of ``v_links``.
    """

    eta_n: float               # end-to-end network capacity (max-flow)
    load: np.ndarray           # per PoA: access-rate demand
    v: np.ndarray              # per PoA: rate differential
    gamma_relay_sum: float     # relay traffic carried into the MBS
    v_links: np.ndarray        # per UE and link x, (..., n, 2): V of its link-x PoA,
                               # 0 where the UE has no second link
    state: np.ndarray          # per UE: BackhaulState code, 0 on single-link UEs

    v1, v2 = _link("v_links", 1), _link("v_links", 2)


def rate_differentials(
    m: CrossGainMatrices, rate1: np.ndarray, rate2: np.ndarray
) -> BackhaulReport:
    """Full backhaul report for one set of per-link access rates, with UE
    states classified by the tolerance ``m.tau``; ValueError unless tau > 0
    (a NaN tau included).

    Each PoA sums its links in UE order, link 1 before link 2; absent second
    links land in an extra last bin. ``eta_n`` is the end-to-end network
    capacity. Relay differentials use min(relay capacity, max(V_macro, 0)) as
    the effective ceiling: a relay cannot usefully carry more than the
    macrocell backhaul has head-room for. Overload is not clamped; the
    magnitude of a negative differential is what the adaptation policy
    reacts to. On a stack of networks (``stack_matrices``) every row is
    reported as if alone. ValueError unless ``rate1`` and ``rate2`` both
    have the networks' shape.
    """
    k, rates = _pair(m, rate1, rate2, "rate")
    m = k.m
    load = np.bincount(k.index, rates.ravel(), k.bins).reshape(k.bin_shape)
    gamma, eta_n = _max_flow(m.capacity, load[..., :-1], m.relays, m.picos, m.macro)
    v = k.capacity_bins - load
    v[..., -1] = 0.0  # the last bin, where no PoA is, reads V = 0
    v[..., m.macro] -= gamma
    headroom = np.maximum(v[..., m.macro], 0.0)[..., None]
    v[..., m.relays] = np.minimum(m.capacity[m.relays], headroom) - load[..., m.relays]
    v_links = v.ravel()[k.index].reshape(rates.shape)  # V of each link's PoA
    level = _level(v_links, m.tau)
    state = _STATE_TABLE[level[..., 0], level[..., 1]]
    if k.single is not None:
        state = np.where(k.single, 0, state)
    if len(k.bin_shape) == 1:
        eta_n, gamma = float(eta_n), float(gamma)
    return BackhaulReport(eta_n=eta_n, load=load[..., :-1], v=v[..., :-1],
                          gamma_relay_sum=gamma, v_links=v_links, state=state)
