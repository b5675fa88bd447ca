"""Per-link effective interference, SINR, and achievable rate.

The interference coupling of the whole network is condensed into four n x n
normalized cross-gain blocks. Entry ``f_xy[i, j]`` is the gain with which
UE j's transmission on its access link x lands in the receiver of UE i's
access link y, normalized by UE i's own link-y gain. It is zero on the
diagonal and whenever the two links use different channels, so

    e1 = d1 + f11 @ p1 + f21 @ p2
    e2 = d2 + f22 @ p2 + f12 @ p1

reproduces the scalar per-link interference sums exactly. ``d1``/``d2`` are
the noise powers normalized the same way. A ``CrossGainMatrices`` holds the
network as link pairs: ``f[..., x - 1, y - 1, :, :]`` is f_xy, and noise
``d``, bandwidths ``w`` and PoAs ``poa`` are (..., n, 2) arrays whose column
x - 1 holds link x; ``f11``..``w2`` are views. Only the blocks that hold a
nonzero are multiplied, in the order above; on a generated scenario that is
``f11`` alone, since no link-1 channel is a macrocell channel and macrocell
channels are private. ``compute_state`` derives SINR and rate of both links
in one pass, and a ``PowerState`` holds these link pairs as its fields.
How a call resolves the network it is given, and how rows of a stack are
taken, is stated once, in ``_Links`` and ``_take``.

Single-link UEs occupy regular rows/columns with their second-link entries
(d2, w2, and all f-blocks involving link 2) identically zero.

``build_matrices`` assembles these arrays from a ``ScenarioArrays`` record,
the generator's or a ``Scenario``'s, with the same bits for the same
network. It rejects a network on which some expression of a run could
leave the float range: one table holds each such expression at the corner
of the envelope d <= e <= worst where it is largest. Its backhaul sums come
from ``_max_flow``, the max-flow that ``rate_differentials`` forms, so the
table checks the sums a run adds. Given a batch record
(a sweep point's trials) it builds their stack in one pass, bit for bit
the stacked networks; one scenario is a batch of one. A stack
(``stack_matrices`` stacks built networks) holds networks of one layout,
tau and z; its per-network arrays (``_PER_NETWORK``) gain a leading batch
axis, and tau and z stay scalars. ``compute_state`` and the
backhaul and engine layers accept either form.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, fields, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from .network import Scenario, ScenarioArrays


def _link(pair: str, *links: int) -> property:
    """A read-only view of the field ``pair``'s column for link x, or, given
    links x and y, of its block f_xy."""
    at = (..., *(x - 1 for x in links), *(slice(None),) * (2 * len(links) - 2))
    return property(lambda self: getattr(self, pair)[at], doc=f"{pair} of link(s) {links}")


def _take(x, rows):
    """The rows ``rows`` of a stack's ``CrossGainMatrices``, ``PowerState``
    or ``BackhaulReport`` ``x``, as a new object of its type: the one take
    of a stack, for ``CrossGainMatrices.take``, a run's leaves and its
    finished rows. Every field but the network's shared ones (``_SHARED``)
    takes ``rows`` on its leading batch axis. Given indices or a mask, the
    fields are copies. Given one index, they are views, and a field with
    one value per network becomes a float, as on one network
    (``bandwidth_in_use``) or its report (``eta_n``)."""
    one = np.ndim(rows) == 0
    # The field names in order, without the cost of a fields(x) call.
    return type(x)(*(value if name in _SHARED else float(value[rows]) if one and value.ndim == 1
                     else value[rows]
                     for name in x.__dataclass_fields__ for value in (getattr(x, name),)))


@dataclass
class CrossGainMatrices:
    """The network as arrays, built once per scenario by ``build_matrices``.

    Radio coupling, as link pairs (see the module docstring): the blocks
    ``f``, (..., 2, 2, n, n), the normalized noise ``d`` and the bandwidths
    ``w``, (..., n, 2), with read-only views ``f11``..``f22``, ``d1``,
    ``d2``, ``w1`` and ``w2``; ``lam`` is derived from the bandwidths.

    Topology: ``poa[i, x - 1]`` is the PoA index (PoA id - 1) of UE i's
    access link x; it is the PoA count where UE i has no second link, so load
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
    constants ``tau`` and ``z`` has a leading batch axis: ``f`` is
    (B, 2, 2, n, n), ``d`` is (B, n, 2), ``bandwidth_in_use`` is (B,).
    """

    f: np.ndarray
    d: np.ndarray
    w: np.ndarray
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

    f11, f12, f21, f22 = _link("f", 1, 1), _link("f", 1, 2), _link("f", 2, 1), _link("f", 2, 2)
    d1, d2, w1, w2 = _link("d", 1), _link("d", 2), _link("w", 1), _link("w", 2)

    @property
    def lam(self) -> np.ndarray:
        return 1.0 / (self.w1 + self.w2)

    @property
    def n(self) -> int:
        return self.p_max.shape[-1]

    take = _take


# The backhaul layout and the policy constants, which every network of a
# stack shares; the other fields are stacked.
_SHARED = ("capacity", "relays", "picos", "macro", "tau", "z")
_PER_NETWORK = tuple(f.name for f in fields(CrossGainMatrices) if f.name not in _SHARED)

_BLOCKS = ((0, 0), (1, 0), (1, 1), (0, 1))  # f11, f21, f22, f12 as (x - 1, y - 1)


class _Links:
    """A network or a stack ``m`` resolved: what the layers read besides its
    arrays. This docstring states how a network is resolved and taken; the
    ``engine`` and ``backhaul`` docstrings and the README point here.

    A public call (``compute_state``, ``rate_differentials``, ``step``, ...)
    resolves the network it is given, so it sees an in-place edit of the
    arrays. ``run`` resolves its network once, as its ``_Batch``, which adds
    the rules; it reads the arrays in place, and an edit made while it runs
    reaches them but not what was derived from them. ``_derive`` sets all
    that follows from the arrays: the single-link mask ``single`` (None
    when every UE is dual); the bincount bin ``index`` of every link, where
    row b's PoA p is bin b * (PoAs + 1) + p and an absent second link lands
    in the row's last bin, so one bincount of ``bins`` adds up a stack's
    link loads; and the capacities by bin. ``blocks``, found when first
    read (``rate_differentials`` reads none), are the blocks f_xy, in the
    module docstring's order, that hold a nonzero in some row; a skipped
    block would add +0.0 to a sum that starts at d >= +0.0. ``take`` keeps
    rows of a stack: the network's (``_take``), then ``_derive`` again;
    ``blocks`` alone is kept as it was.
    """

    def __init__(self, m: CrossGainMatrices):
        self.m = m
        self._derive()

    def _derive(self, rows=None) -> None:
        """Set what follows from ``m``, whose ``rows`` a take kept."""
        m = self.m
        batch, per_row = m.poa.shape[:-2], len(m.capacity) + 1
        self.bins, self.bin_shape = math.prod(batch) * per_row, (*batch, per_row)
        self.single = None if m.dual.all() else ~m.dual
        self.index = (m.poa + np.arange(0, self.bins, per_row).reshape(*batch, 1, 1)).ravel()
        self.capacity_bins = np.concatenate((m.capacity, [0.0]))

    @cached_property
    def blocks(self) -> tuple:
        live = self.m.f.any(axis=(-2, -1)).reshape(-1, 2, 2).any(axis=0)
        return tuple(xy for xy in _BLOCKS if live[xy])

    def take(self, rows: np.ndarray):
        """The rows at the indices ``rows`` of a stack, as a new object."""
        out = copy.copy(self)
        out.m = _take(self.m, rows)
        out._derive(rows)
        return out


def stack_matrices(ms: Sequence[CrossGainMatrices]) -> CrossGainMatrices:
    """One CrossGainMatrices holding the networks ``ms`` as rows of a batch.

    The networks must have the same UE count, backhaul layout (relays,
    picocells, macrocell and capacities), tau and z, as the trials of one
    sweep point do; ValueError otherwise. A network given more than once
    is compared once.
    """
    if not ms:
        raise ValueError("no networks to stack")
    first = ms[0]
    for m in list({id(m): m for m in ms}.values())[1:]:
        if m.n != first.n or not all(np.array_equal(getattr(m, name), getattr(first, name))
                                     for name in _SHARED):
            raise ValueError("stacked networks must share the UE count, the backhaul "
                             "layout (relays, picos, macro, capacity), tau and z")
    return replace(first, **{name: np.array([getattr(m, name) for m in ms])
                             for name in _PER_NETWORK})


@dataclass
class PowerState:
    """Transmit powers of one iteration plus the quantities derived from
    them, as (..., n, 2) link pairs whose column x - 1 holds link x:
    powers ``p``, effective interference ``e``, ``sinr`` and ``rate``.
    ``p1``..``rate2`` are views of one column each."""

    p: np.ndarray
    e: np.ndarray
    sinr: np.ndarray
    rate: np.ndarray

    p1, p2, e1, e2 = _link("p", 1), _link("p", 2), _link("e", 1), _link("e", 2)
    sinr1, sinr2, rate1, rate2 = (_link("sinr", 1), _link("sinr", 2),
                                  _link("rate", 1), _link("rate", 2))


def _sum_left_to_right(x: np.ndarray) -> np.ndarray:
    """Sum over the last axis in index order, so that each row of a stack
    equals its network summed alone. numpy's ``sum`` adds one network's
    contiguous slice with unrolled partial sums, but a strided block of a
    stack (``carried[..., m.relays]``) in index order. ``accumulate`` adds
    in index order in both cases, as Python's ``sum`` does."""
    if not x.shape[-1]:
        return np.zeros(x.shape[:-1])
    return np.add.accumulate(x, axis=-1)[..., -1]


def _max_flow(capacity, load, relays, picos, macro) -> tuple[np.ndarray, np.ndarray]:
    """The relay traffic carried into the macrocell and eta_n, the max-flow
    of the two-tier backhaul, given the access load of each PoA by PoA index
    in the last axis: each small cell carries min(capacity, load), relays
    through the macrocell backhaul and picocells straight to the backbone."""
    carried = np.minimum(capacity, load)
    gamma = _sum_left_to_right(carried[..., relays])
    return gamma, (np.minimum(capacity[macro], load[..., macro] + gamma)
                   + _sum_left_to_right(carried[..., picos]))


def build_matrices(s: Scenario | ScenarioArrays) -> CrossGainMatrices:
    """Assemble the array form of a validated scenario, given as a
    ``Scenario`` (its record is read off it, ``ScenarioArrays.of``) or as
    the record itself, or the stack of a batch record, one row per scenario.

    The own gain of every access link and the cross gain of every co-channel
    pair of links are found with one ``searchsorted`` on the gain keys,
    offset by batch row. Raises KeyError naming the first needed gain that
    is missing, and ValueError naming the first link of the float-range
    table that is out of range: each row is an expression a run evaluates,
    at the corner of the interference envelope d <= e <= worst (every source
    at its p_max) that makes it largest, and normalized noise must also be
    nonzero. The first bad entry is the one of the lowest batch row, then
    table row, UE and link.
    """
    r = s if isinstance(s, ScenarioArrays) else ScenarioArrays.of(s)
    if one := r.links.ndim == 2:  # a batch of one, whose gain keys have no batch row
        r = r._replace(links=r.links[None], p_max=r.p_max[None], beta=r.beta[None],
                       chan_id=r.chan_id[None], bandwidth=np.array(r.bandwidth, dtype=float)[None])
    n_batch, n = r.links.shape[:2]
    n_poas = len(r.capacity)
    n_channels = r.chan_id.shape[1]
    # Per UE: id, then PoA id and channel id of link 1 and of link 2 (0
    # where there is no second link).
    ue_id, link_poa, link_chan = r.links[..., 0], r.links[..., 1::2], r.links[..., 2::2]
    # Access links in batch row, UE and link order: batch row, UE index,
    # link - 1, UE id, PoA id, channel id.
    present = link_chan > 0
    bi, row, x = present.nonzero()
    slot = np.flatnonzero(present)  # each link's place in a (n_batch, n, 2) link pair
    ui = slot // 2  # its UE's place in a (n_batch, n) array
    ue, poa_id, chan = ue_id.ravel()[ui], link_poa[present], link_chan[present]
    # Co-channel pairs of a row: receiver link a, transmitter link b. A UE's
    # two links use distinct channels, so b is another UE's link unless b == a.
    # An absent link gets a negative channel of its own, so it pairs with none.
    slots = np.where(present, link_chan, -1 - np.arange(2 * n).reshape(n, 2))
    same = slots.reshape(n_batch, 2 * n, 1) == slots.reshape(n_batch, 1, 2 * n)
    same.reshape(n_batch, -1)[:, ::2 * n + 1] = False  # the diagonal: a link with itself
    # Slot s = (batch row * n + UE index) * 2 + link - 1 holds link link[s].
    a, b = np.divmod(np.flatnonzero(same), 2 * n)  # slot of a; slot of b within its row
    link = np.cumsum(present) - 1
    a, b = link[a], link[a - a % (2 * n) + b]

    # A key's code (batch row, UE id, PoA id, channel id) @ radix is one-to-one
    # and increasing in the key: validated ids are 1..n, 1..n_poas and 1..n_channels.
    # The keys of one scenario lack the batch row, which is 0.
    radix = np.array([n * n_poas * n_channels, n_poas * n_channels, n_channels, 1])
    keys = r.gains.keys @ radix[-r.gains.keys.shape[1]:]
    # Each link's own path, then each pair's path from b's UE to a's PoA.
    wanted = [np.concatenate((v, v[t])) for v, t in ((bi, a), (ue, b), (poa_id, a), (chan, a))]
    q = radix @ np.array(wanted)
    at = np.searchsorted(keys, q)
    found = np.concatenate((keys, [-1]))[at] == q
    if not found.all():
        k = int(np.argmax(~found & (wanted[0] == wanted[0][~found].min())))
        raise KeyError(f"missing {'own-link' if k < len(ue) else 'cross'} gain: UE "
                       f"{wanted[1][k]} -> PoA {wanted[2][k]} on channel {wanted[3][k]}")
    gains = r.gains.values[at]
    g_own, g_cross = gains[:len(ue)], gains[len(ue):]

    bandwidth = np.zeros((n_batch, n_channels + 1))  # by batch row and channel id
    bandwidth[np.arange(n_batch)[:, None], r.chan_id] = r.bandwidth
    w_link = bandwidth[bi, chan]
    w, d = np.zeros((2, n_batch, n, 2))
    poa = np.full((n_batch, n, 2), n_poas)
    w.ravel()[slot], poa.ravel()[slot] = w_link, poa_id - 1
    p_max = r.p_max.ravel()[ui]
    w1, w2 = np.take(w.reshape(-1, 2), ui, axis=0).T  # each link's UE's bandwidths
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # reported below
        noise, ratio = r.noise_psd * w_link / g_own, g_cross / g_own[a]
        d.ravel()[slot] = noise
        # The envelope d <= e <= worst of each link's interference: worst has
        # every source at its p_max.
        worst = noise + np.bincount(a, ratio * p_max[b], minlength=len(ue))
        # Waterfilling's split with this link at its worst case and the other
        # at its noise: its least value on link 1, its greatest on link 2.
        e1, e2 = np.where(x, [other := d.ravel()[slot ^ 1], worst], [worst, other])
        rates = w_link * np.log2(1.0 + p_max / noise)  # each link's rate ceiling
        # The backhaul sums of rate_differentials, every link at its rate ceiling.
        load = np.bincount(bi * n_poas + poa_id - 1, rates, n_batch * n_poas).reshape(n_batch, -1)
        gamma, eta_n = _max_flow(r.capacity, load, r.relays, r.picos, r.macro)
        in_use = np.zeros((n_batch, n_channels + 1), dtype=bool)  # by batch row and channel id
        in_use[bi, chan] = True
        # Added in channel order, as the scenario lists them.
        bandwidth_in_use = _sum_left_to_right(np.where(
            in_use[np.arange(n_batch)[:, None], r.chan_id], r.bandwidth, 0.0))
        # The range table: each row, per link, what a run evaluates, at the
        # corner of the envelope that makes it largest. A network's sums are
        # on each of its links.
        table = [("normalized noise", noise), ("bandwidth times p_max", w_link * p_max),
                 ("worst-case effective interference", worst),
                 ("bandwidth plus the other link's bandwidth", (wsum := w1 + w2)),
                 ("SINR ceiling p_max / d", p_max / noise),
                 ("rate ceiling w * log2(1 + p_max / d)", rates),
                 ("waterfilling's split (w1 * p_max - w2 * e1 + w1 * e2) / (w1 + w2) at this "
                  "link's worst-case interference", (w1 * p_max - w2 * e1 + w1 * e2) / wsum),
                 ("fixed-SINR target beta times worst-case interference",
                  r.beta.ravel()[ui] * worst),
                 ("its PoA's load at every link's rate ceiling", load[bi, poa_id - 1]),
                 ("the macrocell's load plus relay traffic at every link's rate ceiling",
                  (load[:, r.macro] + gamma)[bi]),
                 ("eta_n at every link's rate ceiling", eta_n[bi]),
                 ("the sum of every UE's p_max", r.p_max.sum(axis=-1)[bi]),
                 ("the summed bandwidth of the channels in use", bandwidth_in_use[bi])]
    values = np.array([v for _, v in table])
    if not (np.isfinite(values).all() and noise.all()):
        # A run would leave the float range: name the first bad entry by batch
        # row, table row, UE and link.
        bad = ~np.isfinite(values)
        bad[0] |= noise == 0
        k, j = np.argwhere(bad & (bi == bi[bad.any(axis=0)][0]))[0]
        raise ValueError(f"UE {ue[j]} link {x[j] + 1}: {table[k][0]} is {float(values[k, j])!r}, "
                         "out of floating-point range")
    f = np.zeros((n_batch, 2, 2, n, n))  # f[row, x - 1, y - 1] is f_xy: link x into link y
    f[bi[a], x[b], x[a], row[a], row[b]] = ratio
    m = CrossGainMatrices(
        f=f, d=d, w=w, poa=poa, dual=link_poa[..., 1] > 0, p_max=r.p_max, beta=r.beta,
        capacity=r.capacity, relays=r.relays, picos=r.picos, macro=r.macro, tau=r.tau, z=r.z,
        ue_id=ue_id.copy(), bandwidth_in_use=bandwidth_in_use)
    return m.take(0) if one else m


def _apply(f: np.ndarray, p: np.ndarray) -> np.ndarray:
    # A matrix-vector product per network. On this form a stacked product
    # gives the bits of each network's own f @ p; einsum does not.
    return (f @ p[..., None])[..., 0]


def _pair(m, a1, a2, what: str) -> tuple[_Links, np.ndarray]:
    """The network ``m`` resolved, and ``a1`` and ``a2`` as the columns of
    one (..., n, 2) link pair; ValueError names ``what`` unless both have
    the networks' shape. Only an ``m`` resolved already, ``run``'s batch,
    may pass its link pair as ``a1`` with ``a2`` None."""
    links = m if isinstance(m, _Links) else _Links(m)
    if links is m and a2 is None:
        return links, a1
    a1, a2 = np.asarray(a1, dtype=float), np.asarray(a2, dtype=float)
    shape = links.m.p_max.shape
    if a1.shape != shape or a2.shape != shape:
        raise ValueError(f"{what} vectors must have shape {shape}")
    return links, np.stack((a1, a2), axis=-1)


def _interference(links: _Links, p: np.ndarray) -> np.ndarray:
    """e1 and e2 of the module docstring as one (..., n, 2) array, from the
    link-pair powers ``p`` and the coupling blocks that hold a nonzero."""
    e, f = links.m.d.copy(), links.m.f
    for x, y in links.blocks:
        e[..., y] += _apply(f[..., x, y, :, :], p[..., x])
    return e


def effective_interference(
    m: CrossGainMatrices, p1: np.ndarray, p2: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Noise-plus-interference seen by each link, normalized by own gain."""
    e = _interference(*_pair(m, p1, p2, "power"))
    return e[..., 0], e[..., 1]


def compute_state(m: CrossGainMatrices, p1: np.ndarray, p2: np.ndarray) -> PowerState:
    """PowerState with interference, SINR and rates derived from the powers,
    for both links in one pass over (..., n, 2) link pairs: SINR p/e (0
    where e <= 0) and Shannon rate w * log2(1 + SINR), zero where p or w is
    zero. Raises ValueError when an active link (p > 0, w > 0) sees
    nonpositive effective interference, or when ``p1`` and ``p2`` do not
    both have the networks' shape.
    """
    links, p = _pair(m, p1, p2, "power")
    e, w = _interference(links, p), links.m.w
    off = e <= 0
    if not off.any():
        sinr = p / e
    elif (off & (p > 0) & (w > 0)).any():
        raise ValueError("nonpositive effective interference on an active link")
    else:
        sinr = np.divide(p, e, out=np.zeros(p.shape), where=~off)
    return PowerState(p, e, sinr, w * np.log2(1.0 + sinr))
