"""Scenario construction: random two-tier topologies and a pinned 2-UE example.

Random topologies follow one recipe: the coverage area is split into equal
rectangular cells, one PoA per cell with the macrocell fixed at the center;
UEs are dropped uniformly in discs around the small cells (round-robin);
link 1 goes to the nearest small cell, link 2 to the macrocell. Channel
power gains are gain_scale * d^-alpha with an independent unit-mean
exponential fading draw per (transmitter, receiver PoA, channel); distances
are in meters with a 1 m reference distance.

Small-cell links draw their channels from a shared pool, each cell handing
its UEs the lowest pool channels still free at that cell; the reuse across
cells is what creates cross-cell interference. Macrocell links get one
private channel per UE, as required at a shared PoA, so all coupling runs
through the first links.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .network import UE, Channel, Gains, PoA, PoAKind, Scenario

AREA_X = 3000.0   # meters
AREA_Y = 3200.0


@dataclass
class GenParams:
    """Knobs of the random topology generator (defaults: desk-scale network)."""

    n_ues: int = 8
    n_relays: int = 3
    n_picos: int = 4
    radius_m: float = 200.0
    alpha: float = 3.7
    bandwidth_choices: tuple[float, ...] = (1e6, 5e6)
    eta_relay: float = 100e6
    eta_pico: float = 200e6
    eta_macro: float = 1000e6
    backhaul_scale: float = 1.0
    tau: float = 5e6
    z_factor: float = 0.9
    seed: int = 0
    p_max: float = 1.0
    noise_psd: float = 1e-19
    gain_scale: float = 100.0
    min_poa_separation: float = 0.0    # meters; 0 disables the separation retry


def _check_params(p: GenParams) -> None:
    if p.n_ues < 0 or p.n_relays < 0 or p.n_picos < 0:
        raise ValueError("counts must be >= 0")
    if p.n_relays + p.n_picos == 0 and p.n_ues > 0:
        raise ValueError("need at least one small cell to anchor first links")
    if p.radius_m <= 0:
        raise ValueError("radius_m must be > 0")
    if not 2.0 <= p.alpha <= 6.0:
        raise ValueError("alpha must be in [2, 6]")
    if p.backhaul_scale <= 0:
        raise ValueError("backhaul_scale must be > 0")


def _grid_cells(count: int) -> list[tuple[float, float, float, float]]:
    """Partition the area into `count` equal rectangles (xmin, ymin, w, h)."""
    rows = int(math.floor(math.sqrt(count)))
    while count % rows:
        rows -= 1
    cols = count // rows
    w = AREA_X / cols
    h = AREA_Y / rows
    cells = []
    for r in range(rows):
        for c in range(cols):
            cells.append((-AREA_X / 2 + c * w, -AREA_Y / 2 + r * h, w, h))
    return cells


def _place_poas(p: GenParams, rng: np.random.Generator) -> list[PoA]:
    n_poas = p.n_relays + p.n_picos + 1
    cells = _grid_cells(n_poas)
    # The macrocell sits exactly at the center; its cell is removed from the pool.
    center_idx = min(
        range(len(cells)),
        key=lambda i: (cells[i][0] + cells[i][2] / 2) ** 2 + (cells[i][1] + cells[i][3] / 2) ** 2,
    )
    small_cells = [c for i, c in enumerate(cells) if i != center_idx]

    def draw_positions():
        pos = []
        for xmin, ymin, w, h in small_cells:
            pos.append((xmin + rng.uniform(0, w), ymin + rng.uniform(0, h)))
        return pos

    positions = draw_positions()
    if p.min_poa_separation > 0:
        for _ in range(200):
            pts = positions + [(0.0, 0.0)]
            ok = all(
                math.dist(pts[a], pts[b]) >= p.min_poa_separation
                for a in range(len(pts))
                for b in range(a + 1, len(pts))
            )
            if ok:
                break
            positions = draw_positions()

    poas = []
    for k in range(p.n_relays):
        poas.append(PoA(id=k + 1, kind=PoAKind.RELAY, position=positions[k],
                        backhaul_capacity=p.eta_relay * p.backhaul_scale))
    for k in range(p.n_picos):
        poas.append(PoA(id=p.n_relays + k + 1, kind=PoAKind.PICOCELL,
                        position=positions[p.n_relays + k],
                        backhaul_capacity=p.eta_pico * p.backhaul_scale))
    poas.append(PoA(id=n_poas, kind=PoAKind.MACROCELL, position=(0.0, 0.0),
                    backhaul_capacity=p.eta_macro * p.backhaul_scale))
    return poas


def _disc_point(center: tuple[float, float], radius: float,
                rng: np.random.Generator) -> tuple[float, float]:
    r = radius * math.sqrt(rng.uniform())
    theta = rng.uniform(0.0, 2.0 * math.pi)
    return center[0] + r * math.cos(theta), center[1] + r * math.sin(theta)


def _nearest_small_cell(pos: tuple[float, float], poas: list[PoA]) -> int:
    small = [p for p in poas if p.kind is not PoAKind.MACROCELL]
    return min(small, key=lambda p: math.dist(pos, p.position)).id


def _pool_bandwidths(n_channels: int, choices: tuple[float, ...],
                     rng: np.random.Generator) -> list[float]:
    return [float(rng.choice(choices)) for _ in range(n_channels)]


def _assign_small_cell_channels(
    members: dict[int, list[int]],
    own_chan: dict[int, int],
    pool_ids: list[int],
) -> dict[int, int]:
    """Lowest pool channel per UE, distinct within a cell and from the UE's
    other channel. Raises if the pool cannot cover a cell."""
    out: dict[int, int] = {}
    for poa_id in sorted(members):
        used: set[int] = set()
        for ue_id in members[poa_id]:
            pick = next(
                (c for c in pool_ids if c not in used and c != own_chan.get(ue_id)),
                None,
            )
            if pick is None:
                raise ValueError(f"channel pool too small for PoA {poa_id}")
            out[ue_id] = pick
            used.add(pick)
    return out


def _fill_gains(poas: list[PoA], ues: list[UE], p: GenParams,
                rng: np.random.Generator) -> Gains:
    """One fading draw per (UE, PoA, channel in use at that PoA); each PoA
    draws its block in (channel, UE) order. Transposed and joined in PoA id
    order, the blocks hold the gains in key order (``ues`` is in id order)."""
    listeners: dict[int, set[int]] = {}
    for u in ues:
        listeners.setdefault(u.poa_1, set()).add(u.chan_1)
        if u.dual:
            listeners.setdefault(u.poa_2, set()).add(u.chan_2)
    blocks, poa_chan = [], []
    for poa in poas:
        chans = sorted(listeners.get(poa.id, ()))
        path = np.array([p.gain_scale * max(1.0, math.dist(u.position, poa.position))
                         ** -p.alpha for u in ues])
        blocks.append((path * rng.exponential(1.0, size=(len(chans), len(ues)))).T)
        poa_chan += [(poa.id, chan_id) for chan_id in chans]
    keys = np.empty((3, len(ues), len(poa_chan)), dtype=np.int64)
    keys[0] = np.array([u.id for u in ues], dtype=np.int64)[:, None]
    keys[1:] = np.array(poa_chan, dtype=np.int64).reshape(-1, 2).T[:, None]
    return Gains(keys.reshape(3, -1).T, np.concatenate(blocks, axis=1).ravel())


def _generate(p: GenParams, n_fixed: int,
              beta_range: tuple[float, float]) -> Scenario:
    _check_params(p)
    if n_fixed < 0:
        raise ValueError("n_fixed must be >= 0")
    rng = np.random.default_rng(p.seed)

    poas = _place_poas(p, rng)
    macro_id = p.n_relays + p.n_picos + 1
    small = [q for q in poas if q.id != macro_id]

    n_total = p.n_ues + n_fixed
    ue_positions = {
        i + 1: _disc_point(small[i % len(small)].position, p.radius_m, rng)
        for i in range(n_total)
    }
    dual_ids = list(range(1, p.n_ues + 1))
    fixed_ids = list(range(p.n_ues + 1, n_total + 1))
    link1_poa = {uid: _nearest_small_cell(pos, poas) for uid, pos in ue_positions.items()}

    # Shared pool for small-cell links (reused across cells); one private
    # channel per macrocell uplink, as reuse at a shared PoA is not allowed.
    max_cell_load = max(
        (sum(1 for uid in link1_poa if link1_poa[uid] == q.id) for q in small),
        default=0,
    )
    shared_ids = list(range(1, max_cell_load + 1))
    private_ids = [max_cell_load + k for k in range(1, p.n_ues + 1)]
    all_ids = shared_ids + private_ids
    bandwidths = _pool_bandwidths(len(all_ids), p.bandwidth_choices, rng)
    channels = [Channel(id=c, bandwidth=bandwidths[i]) for i, c in enumerate(all_ids)]
    link2_chan = {uid: private_ids[i] for i, uid in enumerate(dual_ids)}

    members: dict[int, list[int]] = {}
    for uid in sorted(link1_poa):
        members.setdefault(link1_poa[uid], []).append(uid)
    link1_chan = _assign_small_cell_channels(members, link2_chan, shared_ids)

    betas = {uid: float(rng.uniform(*beta_range)) for uid in fixed_ids}

    ues = []
    for uid in dual_ids:
        ues.append(UE(id=uid, position=ue_positions[uid], p_max=p.p_max,
                      poa_1=link1_poa[uid], chan_1=link1_chan[uid],
                      poa_2=macro_id, chan_2=link2_chan[uid]))
    for uid in fixed_ids:
        ues.append(UE(id=uid, position=ue_positions[uid], p_max=p.p_max,
                      poa_1=link1_poa[uid], chan_1=link1_chan[uid],
                      fixed_sinr_target=betas[uid]))

    return Scenario(
        poas=poas,
        ues=ues,
        channels=channels,
        gains=_fill_gains(poas, ues, p, rng),
        noise_psd=p.noise_psd,
        tau=p.tau,
        z_factor=p.z_factor,
        meta={"generator": "generate_mixed" if n_fixed else "generate",
              "seed": p.seed},
    )


def generate(p: GenParams) -> Scenario:
    """Random scenario, a deterministic function of ``p`` (including the seed)."""
    return _generate(p, 0, (1.0, 1.0))


def generate_mixed(p: GenParams, n_fixed: int,
                   beta_range: tuple[float, float] = (1.0, 4.0)) -> Scenario:
    """Random scenario mixing dual-connectivity UEs with single-link
    fixed-SINR UEs.

    ``p.n_ues`` dual UEs are joined by ``n_fixed`` single-link UEs whose SINR
    targets are drawn uniformly from ``beta_range``. Fixed-SINR UEs connect
    to their nearest small cell on channels from the same pool as the dual
    UEs' first links; macrocell channels stay private, so fixed-SINR
    transmissions never land in a macrocell-link receiver and vice versa.
    """
    return _generate(p, n_fixed, beta_range)


# --- pinned 2-UE example ------------------------------------------------------

HIGH_BACKHAUL = "high_backhaul"
LIMITED_BACKHAUL = "limited_backhaul"

# Backhaul capacities (relay, pico, macro) in bit/s. The limited values are
# chosen so that waterfilling overloads every backhaul by more than tau.
_EXAMPLE_BACKHAUL = {
    HIGH_BACKHAUL: (1e9, 1e9, 1e10),
    LIMITED_BACKHAUL: (20e6, 12e6, 30e6),
}


def worked_example(case: str = HIGH_BACKHAUL) -> Scenario:
    """Hand-built 2-UE / 3-PoA network used throughout the test suite.

    Geometry (km): macrocell (0,0), picocell (2,0), relay (-2,0),
    UE 1 (-2,-2), UE 2 (2,-2). UE 1 links to the relay (10 MHz channel) and
    the macrocell (5 MHz); UE 2 links to the macrocell (10 MHz) and the
    picocell (5 MHz). The two 10 MHz links share one channel and the two
    5 MHz links share the other, which is legal since the sharing links end
    at different PoAs. Fading is 1 on every path except UE 2's 5 MHz signal
    as received at the macrocell, where it is 0.5. Gains are
    100 * d_meters^-3.7 times fading.

    The two cases share this radio geometry and differ only in backhaul
    capacities.
    """
    if case not in _EXAMPLE_BACKHAUL:
        raise ValueError(f"unknown case {case!r}")
    eta_r, eta_p, eta_b = _EXAMPLE_BACKHAUL[case]

    alpha = 3.7
    scale = 100.0

    def pathgain(d_m: float, kappa: float = 1.0) -> float:
        return scale * d_m ** (-alpha) * kappa

    rs = PoA(id=1, kind=PoAKind.RELAY, position=(-2000.0, 0.0), backhaul_capacity=eta_r)
    pbs = PoA(id=2, kind=PoAKind.PICOCELL, position=(2000.0, 0.0), backhaul_capacity=eta_p)
    mbs = PoA(id=3, kind=PoAKind.MACROCELL, position=(0.0, 0.0), backhaul_capacity=eta_b)

    c10 = Channel(id=1, bandwidth=10e6)
    c5 = Channel(id=2, bandwidth=5e6)

    ue_a = UE(id=1, position=(-2000.0, -2000.0), p_max=1.0,
              poa_1=rs.id, chan_1=c10.id, poa_2=mbs.id, chan_2=c5.id)
    ue_b = UE(id=2, position=(2000.0, -2000.0), p_max=1.0,
              poa_1=mbs.id, chan_1=c10.id, poa_2=pbs.id, chan_2=c5.id)

    d_near = 2000.0                     # UE to its same-side PoA
    d_mbs = math.sqrt(2000.0 ** 2 + 2000.0 ** 2)
    d_far = math.sqrt(4000.0 ** 2 + 2000.0 ** 2)

    gains = Gains.from_rows([
        # own links
        [1, rs.id, c10.id, pathgain(d_near)],
        [1, mbs.id, c5.id, pathgain(d_mbs)],
        [2, mbs.id, c10.id, pathgain(d_mbs)],
        [2, pbs.id, c5.id, pathgain(d_near)],
        # cross paths on the shared channels
        [2, rs.id, c10.id, pathgain(d_far)],
        [1, mbs.id, c10.id, pathgain(d_mbs)],
        [2, mbs.id, c5.id, pathgain(d_mbs, kappa=0.5)],
        [1, pbs.id, c5.id, pathgain(d_far)],
    ])

    return Scenario(
        poas=[rs, pbs, mbs],
        ues=[ue_a, ue_b],
        channels=[c10, c5],
        gains=gains,
        noise_psd=1e-19,
        tau=5e6,
        z_factor=0.9,
        meta={"generator": "worked_example", "case": case},
    )

