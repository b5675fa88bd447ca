"""Shared helpers: independent oracles and synthetic system builders."""

import math
from dataclasses import replace

import numpy as np
import pytest

from duplink.engine import TraceCsv, run
from duplink.equilibrium import build_system, closed_form_equilibrium, spectral_radius
from duplink.metrics import CrossGainMatrices
from duplink.network import Gains
from duplink.policies import waterfill
from duplink.scenarios import GenParams, generate_mixed


def gain_dict(s):
    """The scenario's gains as a plain {(ue, poa, chan): value} dict."""
    return dict(zip(map(tuple, s.gains.keys.tolist()), s.gains.values.tolist()))


def with_gains(s, gains):
    """``s`` with its gains replaced by the {(ue, poa, chan): value} dict
    ``gains``; the way tests edit gains."""
    return replace(s, gains=Gains.from_rows([[*k, v] for k, v in gains.items()]))


def read_gain_keys(s):
    """The (ue, poa, chan) paths the model reads, straight from the UEs'
    links: into each link, from every UE with a link on its channel, the
    link's own UE included."""
    links = [(u.id, poa, chan) for u in s.ues
             for poa, chan in ((u.poa_1, u.chan_1), (u.poa_2, u.chan_2)) if chan is not None]
    return {(v, poa, chan) for _, poa, chan in links for v, _, c in links if c == chan}


def scalar_interference(s, p1, p2):
    """Effective interference computed the slow way, straight from the
    scenario: per (UE, link), sum co-channel received powers at the link's
    PoA on top of the noise power noise_psd * bandwidth, and normalize by
    the own gain. Gains are read through a plain dict. Independent of the
    matrix builder."""
    n = len(s.ues)
    e1 = np.zeros(n)
    e2 = np.zeros(n)
    p = {1: p1, 2: p2}
    gains = gain_dict(s)
    bandwidth = {c.id: c.bandwidth for c in s.channels}

    def link(ue, x):
        return (ue.poa_1, ue.chan_1) if x == 1 else (ue.poa_2, ue.chan_2)

    for i, ue_i in enumerate(s.ues):
        for x in ([1, 2] if ue_i.dual else [1]):
            poa_id, chan_id = link(ue_i, x)
            total = s.noise_psd * bandwidth[chan_id]
            for j, ue_j in enumerate(s.ues):
                if j == i:
                    continue
                for y in ([1, 2] if ue_j.dual else [1]):
                    _, chan_j = link(ue_j, y)
                    if chan_j == chan_id:
                        total += gains[(ue_j.id, poa_id, chan_id)] * p[y][j]
            own = gains[(ue_i.id, poa_id, chan_id)]
            (e1 if x == 1 else e2)[i] = total / own
    return e1, e2


def synthetic_topology(n):
    """Topology and scenario fields of CrossGainMatrices for synthetic
    systems: every UE dual with unit budget, link 1 to a picocell (PoA index
    0), link 2 to the macrocell (index 1), unlimited backhaul, UE ids 1..n."""
    return dict(poa=np.tile([0, 1], (n, 1)), dual=np.ones(n, dtype=bool),
                p_max=np.ones(n), beta=np.zeros(n), capacity=np.full(2, np.inf),
                relays=np.zeros(0, dtype=int), picos=np.array([0]), macro=1,
                tau=5e6, z=0.9, ue_id=np.arange(1, n + 1), bandwidth_in_use=2e7)


def fixed_ue_on_macro_channel():
    """A valid mixed scenario where a fixed-SINR UE's only link shares a
    channel with a dual UE's macrocell link (at a different PoA), so the
    dual UE's second-link power reaches the fixed UE's receiver: f21 has a
    nonzero entry in a fixed-SINR row. Generated files never do this."""
    s = generate_mixed(GenParams(n_ues=3, n_relays=2, n_picos=2, seed=11), 3, (1.5, 3.0))
    fixed = next(u for u in s.ues if not u.dual)
    dual = next(u for u in s.ues if u.dual)
    gains = gain_dict(s)
    for ue in (fixed.id, dual.id):
        gains[(ue, fixed.poa_1, dual.chan_2)] = gains[(ue, fixed.poa_1, fixed.chan_1)]
    # The fixed UE now also reaches the macrocell on that channel; generated
    # files hold no such path, so take it from the geometry.
    macro = s.macro()
    gains[(fixed.id, macro.id, dual.chan_2)] = 100.0 * math.dist(
        fixed.position, macro.position) ** -3.7
    ues = [replace(u, chan_1=dual.chan_2) if u is fixed else u for u in s.ues]
    return with_gains(replace(s, ues=ues), gains)


def interior_equilibrium(m):
    """Closed-form (p1*, p2*) when the population's affine system contracts
    to a point strictly inside (0, p_max), else None."""
    a, c = build_system(m)
    rho = spectral_radius(a)
    if rho >= 1.0:
        return None
    p1, p2 = closed_form_equilibrium(m, a, c, rho)
    return (p1, p2) if np.all(p1 > 0) and np.all(p1 < m.p_max) else None


def scalar_rate_differentials(s, rate1, rate2):
    """Rate differential per PoA id, straight from the scenario's PoA ids and
    kinds with per-UE loops and dicts. Independent of the array incidence."""
    load = {p.id: 0.0 for p in s.poas}
    for i, ue in enumerate(s.ues):
        load[ue.poa_1] += float(rate1[i])
        if ue.dual:
            load[ue.poa_2] += float(rate2[i])
    macro = s.macro()
    gamma = sum(min(r.backhaul_capacity, load[r.id]) for r in s.relays())
    v = {macro.id: macro.backhaul_capacity - load[macro.id] - gamma}
    for p in s.picos():
        v[p.id] = p.backhaul_capacity - load[p.id]
    for r in s.relays():
        v[r.id] = min(r.backhaul_capacity, max(v[macro.id], 0.0)) - load[r.id]
    return v


def run_collecting(m, policy, *sinks, **kwargs):
    """``run`` with a list sink, and with ``sinks`` too: the Trace and every
    iterate's (state, report)."""
    iterates = []

    def sink(state, report):
        iterates.append((state, report))
        for other in sinks:
            other(state, report)

    return run(m, policy, sink=sink, **kwargs), iterates


def write_trace_csv(m, iterates, path):
    """trace.csv of collected iterates, through the writer ``run`` streams to."""
    with open(path, "w", newline="") as fh:
        writer = TraceCsv(m, fh)
        for state, report in iterates:
            writer(state, report)
        writer.flush()


class RescaleOnceThenHold:
    """Custom policy: on the first step the first UE in scenario order scales
    its first-link power by z, and afterwards holds; every other UE
    waterfills."""

    def __init__(self, z):
        self.z = z
        self.fired = False

    def __call__(self, m, now, report):
        p1, p2 = waterfill(m.p_max, now.e1, now.e2, m.w1, m.w2)
        p1[0], p2[0] = now.p1[0], now.p2[0]
        if not self.fired:
            self.fired = True
            p1[0] = self.z * now.p1[0]
        return p1, p2


def random_system(rng, n, coupling=0.05):
    """Synthetic CrossGainMatrices with the structural invariants but
    otherwise arbitrary values; used for pure linear-algebra properties."""

    def cross(scale):
        f = scale * rng.random((n, n))
        np.fill_diagonal(f, 0.0)
        return f

    # Drawn in the order f11, f12, f21, f22, d1, d2, w1, w2.
    f11, f12, f21, f22 = (cross(coupling) for _ in range(4))
    d = [rng.uniform(1e-4, 0.1, size=n) for _ in range(2)]
    w = [rng.choice([1e6, 5e6, 10e6], size=n) for _ in range(2)]
    return CrossGainMatrices(
        f=np.array([[f11, f12], [f21, f22]]),
        d=np.stack(d, axis=-1),
        w=np.stack(w, axis=-1),
        **synthetic_topology(n),
    )


def gelfand_radius(m, iters=10000, seed=0):
    """Spectral radius via the growth rate of ||M^k x||, renormalizing each
    step so nothing under- or overflows. The first half of the iterations is
    burn-in; the log-gain is averaged over an even-length tail so dominant
    eigenvalue pairs of equal modulus (e.g. +/- lambda) average out exactly."""
    m = np.asarray(m, dtype=float)
    n = m.shape[0]
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    x /= np.linalg.norm(x)
    burn_in = iters // 2
    tail = iters - burn_in
    tail -= tail % 2
    log_gain = 0.0
    for k in range(burn_in + tail):
        y = m @ x
        norm = np.linalg.norm(y)
        if norm == 0.0:
            return 0.0
        if k >= burn_in:
            log_gain += math.log(norm)
        x = y / norm
    return math.exp(log_gain / tail)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
