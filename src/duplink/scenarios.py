"""Scenario construction: random two-tier topologies and a pinned 2-UE example.

Random topologies follow one recipe: the coverage area is split into equal
rectangular cells, one PoA per cell with the macrocell fixed at the center;
UEs are dropped uniformly in discs around the small cells (round-robin);
link 1 goes to the nearest small cell, link 2 to the macrocell. Channel
power gains are gain_scale * d^-alpha with an independent unit-mean
exponential fading draw per (transmitter, receiver PoA, channel); distances
are in meters with a 1 m reference distance.

Small-cell links share one channel pool, reused across cells, which is what
creates cross-cell interference: each UE takes the channel numbered by its
rank among its cell's UEs in id order, so the pool is as large as the
busiest cell. Macrocell links get one private channel per UE above the
pool, as required at a shared PoA, so all coupling runs through the first
links.

A scenario stores only the gains the model reads: each link's own path and
the path into it from every other UE on its channel. Fading is drawn for
every UE on every (PoA, channel) pair in use, stored or not, so the stream
and each stored gain do not depend on which paths are kept.

One seeded stream feeds every draw, in this order: the PoA points (the
whole layout again after a failed separation check), the UE drop points,
the bandwidth of every channel, the fixed-SINR targets, then the fading,
PoA by PoA. numpy does the draws and the exactly rounded arithmetic; the
transcendental functions (cos, sin, the distance and the path-loss power)
are Python ``math`` and ``**``, whose results do not depend on how numpy
was built. So the saved bytes are a function of the parameters alone.

Generation is a draw, then a wrap. The draw (``_draw``) is a batch, one
scenario per seed, each from its own seeded stream making the calls above
in that order; it returns the batch's ``ScenarioArrays`` record, what
``build_matrices`` reads, plus the PoA and UE points. Python ``math`` runs
in one pass over every trial's UEs and pairs, and the rest on (T, ...)
arrays, so a scenario's bits do not depend on the batch it is drawn in.
``generate`` and ``generate_mixed`` wrap a batch of one into the ``PoA``,
``UE`` and ``Channel`` objects of a ``Scenario``; ``generate_arrays``
returns its record alone; ``monte_carlo`` draws a sweep point's trials as
one batch. The cell grid depends only on the number of cells and is
computed once per count. Parameters are checked before any draw, each
value by the rule ``validate_scenario`` applies to the field it fills.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from itertools import combinations, repeat
from typing import Sequence

import numpy as np

from .network import (_CAPACITY, _FRACTION, _POSITIVE, UE, Channel, Gains, PoA, PoAKind, Scenario,
                      ScenarioArrays, _integers)

AREA_X = 3000.0   # meters
AREA_Y = 3200.0
_SEPARATION_DRAWS = 200  # layouts drawn before min_poa_separation gives up


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


def _capacities(p: GenParams) -> list:
    """The backhaul capacity of every PoA, in PoA id order, as its PoA holds it."""
    return ([p.eta_relay * p.backhaul_scale] * p.n_relays
            + [p.eta_pico * p.backhaul_scale] * p.n_picos + [p.eta_macro * p.backhaul_scale])


def _check_params(p: GenParams, n_fixed: int, beta_range: tuple[float, float]) -> None:
    """Raise TypeError or ValueError naming the first parameter out of
    range, before any draw. The counts, ``n_fixed`` and the seed are ints or
    numpy integers, never bools, and >= 0. A value that fills a scenario
    field must pass the value rule ``validate_scenario`` applies to that
    field (``network._POSITIVE``, ``_CAPACITY`` and ``_FRACTION``): each
    bandwidth choice (one or more), p_max, noise_psd, tau and gain_scale by
    the first, each capacity ``eta_* * backhaul_scale`` by the second and
    z_factor by the third. ``beta_range`` is two numbers low <= high, each
    by the first rule, and the distances are finite."""
    n_ues, n_relays, n_picos, n_fixed, seed = _integers(
        n_ues=p.n_ues, n_relays=p.n_relays, n_picos=p.n_picos, n_fixed=n_fixed, seed=p.seed)
    if n_ues < 0 or n_relays < 0 or n_picos < 0:
        raise ValueError("counts must be >= 0")
    if n_fixed < 0:
        raise ValueError("n_fixed must be >= 0")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed!r}")
    if n_relays + n_picos == 0 and n_ues + n_fixed > 0:
        raise ValueError("need at least one small cell to anchor first links")
    if not 0 < p.radius_m < math.inf:
        raise ValueError(f"radius_m must be > 0 and finite, got {p.radius_m!r}")
    if not math.isfinite(p.min_poa_separation):
        raise ValueError(f"min_poa_separation must be finite, got {p.min_poa_separation!r}")
    if not 2.0 <= p.alpha <= 6.0:
        raise ValueError("alpha must be in [2, 6]")
    if not p.backhaul_scale > 0:
        raise ValueError("backhaul_scale must be > 0")
    for name in ("eta_relay", "eta_pico", "eta_macro"):
        if not _CAPACITY.ok(cap := getattr(p, name) * p.backhaul_scale):
            raise ValueError(_CAPACITY.error(f"{name} * backhaul_scale", cap))
    for name, rule in (("p_max", _POSITIVE), ("noise_psd", _POSITIVE), ("tau", _POSITIVE),
                       ("gain_scale", _POSITIVE), ("z_factor", _FRACTION)):
        if not rule.ok(value := getattr(p, name)):
            raise ValueError(rule.error(name, value))
    choices = np.asarray(p.bandwidth_choices, dtype=float).tolist()
    if not (choices and all(map(_POSITIVE.ok, choices))):
        raise ValueError("bandwidth_choices must be one or more finite numbers > 0, "
                         f"got {p.bandwidth_choices!r}")
    try:
        low, high = beta_range
    except (TypeError, ValueError):
        raise ValueError(f"beta_range must be two numbers (low, high), "
                         f"got {beta_range!r}") from None
    if not (_POSITIVE.ok(low) and _POSITIVE.ok(high)):
        raise ValueError(f"beta_range must be finite numbers > 0, got {beta_range!r}")
    if low > high:
        raise ValueError(f"beta_range must have low <= high, got {beta_range!r}")


@cache
def _small_cells(count: int) -> tuple[np.ndarray, tuple[float, float]]:
    """Split the area into ``count`` equal rectangles, row-major; return the
    lower-left corners of all but the one centered nearest the origin (the
    macrocell's), and the rectangle size. Cached per count, the corners
    read-only."""
    rows = int(math.floor(math.sqrt(count)))
    while count % rows:
        rows -= 1
    cols = count // rows
    w, h = AREA_X / cols, AREA_Y / rows
    row, col = np.divmod(np.arange(count), cols)
    corners = np.column_stack([-AREA_X / 2 + col * w, -AREA_Y / 2 + row * h])
    center = np.argmin(((corners + (w / 2, h / 2)) ** 2).sum(axis=1))
    corners = np.delete(corners, center, axis=0)
    corners.flags.writeable = False
    return corners, (w, h)


def _poa_points(p: GenParams, rng: np.random.Generator) -> np.ndarray:
    """(n_poas - 1, 2) small-cell points in PoA id order, drawn again until
    every pair, the macrocell at the origin included, is at least
    ``min_poa_separation`` apart."""
    corners, extent = _small_cells(p.n_relays + p.n_picos + 1)
    for _ in range(_SEPARATION_DRAWS):
        points = corners + rng.uniform(0.0, extent, size=corners.shape)
        if p.min_poa_separation <= 0 or all(
                math.dist(a, b) >= p.min_poa_separation
                for a, b in combinations(points.tolist() + [[0.0, 0.0]], 2)):
            return points
    raise ValueError(f"no PoA layout keeps min_poa_separation={p.min_poa_separation} m "
                     f"in {_SEPARATION_DRAWS} draws")


def _draw(p: GenParams, seeds: Sequence[int], n_fixed: int = 0,
          beta_range: tuple[float, float] = (1.0, 1.0)
          ) -> tuple[ScenarioArrays, np.ndarray, np.ndarray]:
    """The seeded draws of a batch, one scenario per seed: the batch record,
    then the PoA and UE points, (T, n_poas, 2) and (T, n, 2)."""
    _check_params(p, n_fixed, beta_range)
    t, n = len(seeds), p.n_ues + n_fixed
    rngs = [np.random.default_rng(seed) for seed in seeds]
    macro = p.n_relays + p.n_picos + 1
    points = np.zeros((t, macro, 2))  # the macrocell last, at the origin
    points[:, :-1] = [_poa_points(p, rng) for rng in rngs]
    uv = np.array([rng.uniform(0.0, (1.0, 2.0 * math.pi), size=(n, 2)) for rng in rngs])
    # Dropped round-robin around the small cells; cos and sin are Python
    # math's, in one pass over every UE of the batch.
    angles = uv[..., 1].ravel().tolist()
    trig = np.array([list(map(math.cos, angles)), list(map(math.sin, angles))]).T.reshape(t, n, 2)
    ue = points[:, np.arange(n) % (macro - 1)] + p.radius_m * np.sqrt(uv[..., :1]) * trig
    # Python math.dist and libm pow per (UE, PoA) pair, not numpy's hypot and
    # power: numpy's SIMD builds round those differently from libm on some
    # inputs, which would tie the saved bytes to the numpy build.
    pairs = [zip(*np.broadcast_to(xy, (t, n, macro, 2)).reshape(-1, 2).T.tolist())
             for xy in (ue[:, :, None], points[:, None])]
    dist = np.array(list(map(math.dist, *pairs)))
    path = p.gain_scale * np.array(list(map(pow, np.maximum(dist, 1.0).tolist(),
                                            repeat(-p.alpha)))).reshape(t, n, macro)
    dist = dist.reshape(t, n, macro)
    dist[..., -1] = np.inf  # link 1 goes to a small cell
    poa_1 = dist.argmin(axis=2) + 1
    # The rank of each UE within its cell, from 1.
    chan_1 = np.tril(poa_1[..., None] == poa_1[:, None]).sum(axis=2)
    pool = chan_1.max(axis=1, initial=0)

    choices = np.asarray(p.bandwidth_choices, dtype=float)
    n_chan = pool + p.n_ues
    ids = np.arange(1, n_chan.max(initial=0) + 1)
    chan_id = np.where(ids <= n_chan[:, None], ids, 0)  # padded with id 0 past each pool
    bandwidth = np.zeros(chan_id.shape)  # and bandwidth 0
    bandwidth[chan_id > 0] = choices[np.concatenate(
        [rng.integers(len(choices), size=k) for rng, k in zip(rngs, n_chan.tolist())])]
    betas = np.array([rng.uniform(*beta_range, size=n_fixed) for rng in rngs])

    # One fading row per (PoA, channel) in use there, in key order. Each such
    # pair carries exactly one link, and the macrocell's links come last.
    first = np.stack([poa_1, chan_1], axis=2)
    rows = np.concatenate([
        np.take_along_axis(first, np.lexsort((chan_1, poa_1))[..., None], axis=1),
        np.stack(np.broadcast_arrays(macro, pool[:, None] + np.arange(1, p.n_ues + 1)), axis=2),
    ], axis=1)
    fading = np.array([rng.exponential(1.0, size=(n + p.n_ues, n)) for rng in rngs])
    # Keep (u, PoA, c) only where UE u transmits on channel c.
    dual = np.arange(n) < p.n_ues
    chan_2 = np.where(dual, pool[:, None] + np.arange(1, n + 1), 0)
    tb, ue_i, row = ((rows[:, None, :, 1] == chan_1[..., None])
                     | (rows[:, None, :, 1] == chan_2[..., None])).nonzero()
    poa, chan = rows[tb, row].T
    record = ScenarioArrays(
        links=np.stack(np.broadcast_arrays(np.arange(1, n + 1), poa_1, chan_1,
                                           np.where(dual, macro, 0), chan_2), axis=2),
        p_max=np.full((t, n), p.p_max, dtype=float),
        beta=np.concatenate([np.zeros((t, p.n_ues)), betas], axis=1),
        chan_id=chan_id,
        bandwidth=bandwidth,
        capacity=np.array(_capacities(p), dtype=float),
        relays=np.arange(p.n_relays),
        picos=np.arange(p.n_relays, p.n_relays + p.n_picos),
        macro=macro - 1,
        gains=Gains(np.column_stack([tb, ue_i + 1, poa, chan]),
                    path[tb, ue_i, poa - 1] * fading[tb, row, ue_i]),
        noise_psd=p.noise_psd,
        tau=p.tau,
        z=p.z_factor,
    )
    return record, points, ue


def _draw_one(p: GenParams, n_fixed: int, beta_range: tuple[float, float]
              ) -> tuple[ScenarioArrays, list, list]:
    """The draw of ``p.seed``, a batch of one: the scenario's record, then the
    PoA and UE positions, which only its objects hold, as [x, y] and (x, y)."""
    r, points, ue = _draw(p, [p.seed], n_fixed, beta_range)
    r = r._replace(links=r.links[0], p_max=r.p_max[0], beta=r.beta[0], chan_id=r.chan_id[0],
                   bandwidth=r.bandwidth[0].tolist(),
                   gains=Gains(r.gains.keys[:, 1:].copy(), r.gains.values))
    return r, points[0].tolist(), list(map(tuple, ue[0].tolist()))


def _generate(p: GenParams, n_fixed: int,
              beta_range: tuple[float, float]) -> Scenario:
    """The scenario of the draw, its objects built from the record and the
    positions."""
    r, poa_xy, ue_xy = _draw_one(p, n_fixed, beta_range)
    kinds = [PoAKind.RELAY] * p.n_relays + [PoAKind.PICOCELL] * p.n_picos + [PoAKind.MACROCELL]
    poas = [PoA(id=k + 1, kind=kind, position=tuple(xy), backhaul_capacity=cap)
            for k, (kind, xy, cap) in enumerate(zip(kinds, poa_xy, _capacities(p)))]
    channels = [Channel(id=c + 1, bandwidth=b) for c, b in enumerate(r.bandwidth)]
    ues = [UE(id=i, position=xy, p_max=p.p_max, poa_1=poa_1, chan_1=chan_1,
              **(dict(poa_2=poa_2, chan_2=chan_2) if poa_2 else dict(fixed_sinr_target=beta)))
           for (i, poa_1, chan_1, poa_2, chan_2), xy, beta
           in zip(r.links.tolist(), ue_xy, r.beta.tolist())]
    return Scenario(poas=poas, ues=ues, channels=channels, gains=r.gains, noise_psd=p.noise_psd,
                    tau=p.tau, z_factor=p.z_factor,
                    meta={"generator": "generate_mixed" if n_fixed else "generate",
                          "seed": p.seed})


def generate(p: GenParams) -> Scenario:
    """Random scenario, a deterministic function of ``p`` (including the seed)."""
    return _generate(p, 0, (1.0, 1.0))


def generate_arrays(p: GenParams) -> ScenarioArrays:
    """The record ``build_matrices`` reads off ``generate(p)``, from the same
    draw, without building the scenario's objects."""
    return _draw_one(p, 0, (1.0, 1.0))[0]


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

