"""Per-link effective interference, SINR, and achievable rate.

The interference coupling of the whole network is condensed into four n x n
normalized cross-gain matrices. Entry ``f_xy[i, j]`` is the gain with which
UE j's transmission on its access link x lands in the receiver of UE i's
access link y, normalized by UE i's own link-y gain. It is zero on the
diagonal and whenever the two links use different channels, so

    e1 = d1 + f11 @ p1 + f21 @ p2
    e2 = d2 + f22 @ p2 + f12 @ p1

reproduces the scalar per-link interference sums exactly. ``d1``/``d2`` are
the noise powers normalized the same way.

Single-link UEs occupy regular rows/columns with their second-link entries
(d2, w2, and all f-columns involving link 2) identically zero.

``stack_matrices`` stacks networks of one layout, tau and z (one sweep
point) into one CrossGainMatrices whose per-network arrays gain a leading
batch axis, one row per network; tau and z stay scalars. ``compute_state``
and the backhaul and engine layers accept either form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from .network import Scenario


@dataclass
class CrossGainMatrices:
    """The network as arrays, built once per scenario by ``build_matrices``.

    Radio coupling: ``f11``..``f22``, ``d1``/``d2`` and ``w1``/``w2`` as
    described in the module docstring; ``lam`` is derived from the
    bandwidths.

    Topology: ``poa[i, x - 1]`` is the PoA index (PoA id - 1) of UE i's
    access link x; it is ``n_poas`` where UE i has no second link, so load
    put there lands on no PoA. ``dual`` flags dual-connectivity UEs,
    ``p_max`` holds the power budgets and ``beta`` the fixed SINR targets
    (0 on dual UEs).

    Backhaul: ``capacity`` per PoA index; ``relays`` and ``picos`` are the
    PoA indices of each kind in scenario order, ``macro`` the macrocell's.

    Scenario constants: ``tau`` and ``z`` of the backhaul-state policy,
    ``ue_id`` the UE ids in scenario order, and ``bandwidth_in_use`` the
    summed bandwidth of the channels some UE transmits on.

    On a stack (``stack_matrices``) every field but the backhaul layout
    (``capacity``, ``relays``, ``picos``, ``macro``) and the policy
    constants ``tau`` and ``z`` has a leading batch axis: ``f11`` is
    (B, n, n), ``d1`` is (B, n), ``bandwidth_in_use`` is (B,).
    """

    f11: np.ndarray
    f12: np.ndarray
    f21: np.ndarray
    f22: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    w1: np.ndarray
    w2: np.ndarray
    poa: np.ndarray
    dual: np.ndarray
    p_max: np.ndarray
    beta: np.ndarray
    capacity: np.ndarray
    relays: np.ndarray
    picos: np.ndarray
    macro: int
    tau: float
    z: float
    ue_id: np.ndarray
    bandwidth_in_use: float

    @property
    def lam(self) -> np.ndarray:
        return 1.0 / (self.w1 + self.w2)

    @property
    def n(self) -> int:
        return self.d1.shape[-1]

    @property
    def n_poas(self) -> int:
        return self.capacity.shape[0]

    @cached_property
    def _bin_index(self) -> np.ndarray:
        """The bin of every access link, (..., n, 2), derived once per object
        (``take`` and ``replace`` return new ones): row b's PoA p is bin
        b * (n_poas + 1) + p, and an absent second link lands in the row's
        last bin, so one bincount adds up the link loads of a whole stack."""
        batch = self.poa.shape[:-2]
        return self.poa + (self.n_poas + 1) * np.arange(math.prod(batch)).reshape(*batch, 1, 1)

    def take(self, rows) -> CrossGainMatrices:
        """The networks at ``rows`` (indices or a mask) of a stack."""
        return replace(self, **{name: getattr(self, name)[rows] for name in _PER_NETWORK})


# The backhaul layout and the policy constants, which every network of a
# stack shares; the other fields are stacked.
_SHARED = ("capacity", "relays", "picos", "macro", "tau", "z")
_PER_NETWORK = tuple(f.name for f in fields(CrossGainMatrices) if f.name not in _SHARED)


def stack_matrices(ms: Sequence[CrossGainMatrices]) -> CrossGainMatrices:
    """One CrossGainMatrices holding the networks ``ms`` as rows of a batch.

    The networks must have the same UE count, backhaul layout (relays,
    picocells, macrocell and capacities), tau and z, as the trials of one
    sweep point do; ValueError otherwise.
    """
    if not ms:
        raise ValueError("no networks to stack")
    first = ms[0]
    for m in ms[1:]:
        if m.n != first.n or not all(np.array_equal(getattr(m, name), getattr(first, name))
                                     for name in _SHARED):
            raise ValueError("stacked networks must share the UE count, the backhaul "
                             "layout (relays, picos, macro, capacity), tau and z")
    return replace(first, **{name: np.array([getattr(m, name) for m in ms])
                             for name in _PER_NETWORK})


@dataclass
class PowerState:
    """Transmit powers of one iteration plus the quantities derived from them."""

    p1: np.ndarray
    p2: np.ndarray
    e1: np.ndarray
    e2: np.ndarray
    sinr1: np.ndarray
    sinr2: np.ndarray
    rate1: np.ndarray
    rate2: np.ndarray


def build_matrices(s: Scenario) -> CrossGainMatrices:
    """Assemble the array form of a validated scenario.

    The own gain of every access link and the cross gain of every co-channel
    pair of links are found with one ``searchsorted`` on the sorted gain
    keys. Raises KeyError naming the first needed gain that is missing, and
    ValueError naming the first link whose normalized noise is zero or
    infinite, or which a cross-gain ratio reaches as infinite.
    """
    n = len(s.ues)
    n_poas = len(s.poas)
    # Per UE: id, then PoA id and channel id of link 1 and of link 2 (0
    # where there is no second link).
    ids = np.array([(u.id, u.poa_1, u.chan_1, u.poa_2 or 0, u.chan_2 or 0) for u in s.ues],
                   dtype=np.int64).reshape(n, 5)
    ue_id, link_poa, link_chan = ids[:, 0], ids[:, 1::2], ids[:, 2::2]
    # Access links in UE order, link 1 before link 2: UE index, link - 1,
    # UE id, PoA id, channel id.
    present = link_chan > 0
    row, x = present.nonzero()
    ue, poa_id, chan = ue_id[row], link_poa[present], link_chan[present]
    # Co-channel pairs: receiver link a, transmitter link b. A UE's two links
    # use distinct channels, so b is another UE's link unless b == a.
    same = chan[:, None] == chan
    np.fill_diagonal(same, False)
    a, b = np.divmod(np.flatnonzero(same), len(same))

    def code(ue_id, poa_id, chan_id):
        # One-to-one and increasing in the key: validated ids are 1..n,
        # 1..n_poas and 1..len(s.channels).
        return ((ue_id - 1) * n_poas + poa_id - 1) * len(s.channels) + chan_id - 1

    keys = code(*s.gains.keys.T)
    # Each link's own path, then each pair's path from b's UE to a's PoA.
    wanted = [np.concatenate((v, v[t])) for v, t in ((ue, b), (poa_id, a), (chan, a))]
    q = code(*wanted)
    at = np.searchsorted(keys, q)
    found = np.concatenate((keys, [-1]))[at] == q
    if not found.all():
        k = int(np.argmin(found))
        raise KeyError(f"missing {'own-link' if k < len(ue) else 'cross'} gain: UE "
                       f"{wanted[0][k]} -> PoA {wanted[1][k]} on channel {wanted[2][k]}")
    gains = s.gains.values[at]
    g_own, g_cross = gains[:len(ue)], gains[len(ue):]

    bandwidth = np.zeros(len(s.channels) + 1)  # by channel id
    capacity = np.zeros(n_poas)                # by PoA index
    for c in s.channels:
        bandwidth[c.id] = c.bandwidth
    for p in s.poas:
        capacity[p.id - 1] = p.backhaul_capacity
    w_link = bandwidth[chan]
    with np.errstate(over="ignore"):  # an overflow is reported below
        noise, ratio = s.noise_psd * w_link / g_own, g_cross / g_own[a]
    bad = np.concatenate((~((0 < noise) & (noise < math.inf)), ratio == math.inf))
    if bad.any():  # a run would end in NaN or a division by zero
        k = int(np.argmax(bad))
        what, j, v = (("normalized noise", k, noise[k]) if k < len(ue) else
                      ("a cross-gain ratio", a[k - len(ue)], ratio[k - len(ue)]))
        raise ValueError(f"UE {ue[j]} link {x[j] + 1}: {what} is {float(v)!r}, "
                         "out of floating-point range")
    f = np.zeros((2, 2, n, n))  # f[y - 1, x - 1] is f_yx
    f[x[b], x[a], row[a], row[b]] = ratio
    d, w = np.zeros((2, n)), np.zeros((2, n))
    w[x, row], d[x, row] = w_link, noise
    poa = np.full((n, 2), n_poas)
    poa[row, x] = poa_id - 1
    p_max, beta = np.array([(u.p_max, u.fixed_sinr_target or 0.0) for u in s.ues],
                           dtype=float).reshape(n, 2).T.copy()
    in_use = set(chan.tolist())
    return CrossGainMatrices(
        f11=f[0, 0], f12=f[0, 1], f21=f[1, 0], f22=f[1, 1],
        d1=d[0], d2=d[1], w1=w[0], w2=w[1],
        poa=poa,
        dual=link_poa[:, 1] > 0,
        p_max=p_max,
        beta=beta,
        capacity=capacity,
        relays=np.array([p.id - 1 for p in s.relays()], dtype=int),
        picos=np.array([p.id - 1 for p in s.picos()], dtype=int),
        macro=s.macro().id - 1,
        tau=s.tau,
        z=s.z_factor,
        ue_id=ue_id.copy(),
        bandwidth_in_use=float(sum(c.bandwidth for c in s.channels if c.id in in_use)),
    )


def _apply(f: np.ndarray, p: np.ndarray) -> np.ndarray:
    # A matrix-vector product per network. On this form a stacked product
    # gives the bits of each network's own f @ p; einsum does not.
    return (f @ p[..., None])[..., 0]


def effective_interference(
    m: CrossGainMatrices, p1: np.ndarray, p2: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Noise-plus-interference seen by each link, normalized by own gain."""
    p1 = np.asarray(p1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    if p1.shape != m.d1.shape or p2.shape != m.d1.shape:
        raise ValueError(f"power vectors must have shape {m.d1.shape}")
    e1 = m.d1 + _apply(m.f11, p1) + _apply(m.f21, p2)
    e2 = m.d2 + _apply(m.f22, p2) + _apply(m.f12, p1)
    return e1, e2


def _link(p: np.ndarray, e: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """SINR p/e (0 where e <= 0) and Shannon rate w * log2(1 + SINR) of one
    link per UE, for powers >= 0; the rate is zero where p or w is zero."""
    off = e <= 0
    if not off.any():
        sinr = p / e
    elif (off & (p > 0) & (w > 0)).any():
        raise ValueError("nonpositive effective interference on an active link")
    else:
        sinr = np.divide(p, e, out=np.zeros(p.shape), where=~off)
    return sinr, w * np.log2(1.0 + sinr)


def compute_state(m: CrossGainMatrices, p1: np.ndarray, p2: np.ndarray) -> PowerState:
    """PowerState with interference, SINR and rates derived from the powers.

    Raises ValueError when an active link (p > 0, w > 0) sees nonpositive
    effective interference.
    """
    p1 = np.asarray(p1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    e1, e2 = effective_interference(m, p1, p2)
    sinr1, rate1 = _link(p1, e1, m.w1)
    sinr2, rate2 = _link(p2, e2, m.w2)
    return PowerState(p1=p1, p2=p2, e1=e1, e2=e2, sinr1=sinr1, sinr2=sinr2,
                      rate1=rate1, rate2=rate2)
