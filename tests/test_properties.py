"""Property tests of the array wiring over small random networks.

The array engine must decide every UE exactly as the scalar policy call on
that UE's own observations would, with the rate differentials recomputed
from the scenario's PoA ids and the state from ``classify_state``. These
checks catch incidence and state-indexing errors that the scalar policy
tests cannot see.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duplink import (
    POLICY_NAMES,
    GenParams,
    bdt_update,
    build_matrices,
    classify_state,
    compute_state,
    fm_update,
    generate_mixed,
    greedy_update,
    rate_differentials,
    step,
    waterfill,
)

from conftest import scalar_rate_differentials
from test_backhaul import networkx_max_flow

PROPERTY_SETTINGS = settings(max_examples=30, deadline=None, derandomize=True,
                             database=None)


@st.composite
def networks(draw):
    """(scenario, seed for the powers and rates) with at most 12 UEs."""
    n_relays = draw(st.integers(0, 3))
    params = GenParams(
        n_ues=draw(st.integers(1, 10)),
        n_relays=n_relays,
        n_picos=draw(st.integers(0 if n_relays else 1, 3)),
        backhaul_scale=draw(st.floats(0.05, 3.0)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    return generate_mixed(params, draw(st.integers(0, 2))), draw(st.integers(0, 2**32 - 1))


def random_powers(s, rng):
    p_max = np.array([u.p_max for u in s.ues])
    dual = np.array([u.dual for u in s.ues])
    p1 = p_max * rng.uniform(0, 1, size=len(s.ues))
    return p1, np.where(dual, (p_max - p1) * rng.uniform(0, 1, size=len(s.ues)), 0.0)


def scalar_decision(policy, s, u, i, now, v):
    """Next (p1, p2) of UE u from scalar policy calls on its own values."""
    if not u.dual:
        return fm_update(float(now.e1[i]), u.fixed_sinr_target, u.p_max), 0.0
    bandwidth = {c.id: c.bandwidth for c in s.channels}
    budget = (u.p_max, float(now.e1[i]), float(now.e2[i]),
              bandwidth[u.chan_1], bandwidth[u.chan_2])
    if policy == "bdt":
        state = classify_state(v[u.poa_1], v[u.poa_2], s.tau)
        return bdt_update(state, float(now.p1[i]), float(now.p2[i]), *budget, s.z_factor)
    if policy == "greedy":
        return greedy_update(*budget, max(v[u.poa_1], 0.0), max(v[u.poa_2], 0.0))
    return waterfill(*budget)


@PROPERTY_SETTINGS
@given(networks())
def test_step_matches_scalar_policies_per_ue(network):
    s, seed = network
    m = build_matrices(s)
    now = compute_state(m, *random_powers(s, np.random.default_rng(seed)))
    v = scalar_rate_differentials(s, now.rate1, now.rate2)
    report = rate_differentials(m, now.rate1, now.rate2)
    for i, u in enumerate(s.ues):
        assert report.v1[i] == v[u.poa_1]
        if u.dual:
            assert report.v2[i] == v[u.poa_2]
            assert report.state[i] == classify_state(v[u.poa_1], v[u.poa_2], s.tau)
        else:
            assert report.v2[i] == 0.0 and report.state[i] == 0
    for policy in POLICY_NAMES:
        nxt = step(m, now, policy, report)
        for i, u in enumerate(s.ues):
            q1, q2 = scalar_decision(policy, s, u, i, now, v)
            q1 = min(max(q1, 0.0), u.p_max)
            q2 = min(max(q2, 0.0), u.p_max - q1)
            assert (nxt.p1[i], nxt.p2[i]) == (q1, q2), (policy, u.id)


@PROPERTY_SETTINGS
@given(networks())
def test_every_policy_returns_feasible_powers(network):
    s, seed = network
    m = build_matrices(s)
    now = compute_state(m, *random_powers(s, np.random.default_rng(seed)))
    report = rate_differentials(m, now.rate1, now.rate2)
    for policy in POLICY_NAMES:
        nxt = step(m, now, policy, report)
        assert np.all(nxt.p1 >= 0) and np.all(nxt.p2 >= 0)
        assert np.all(nxt.p1 + nxt.p2 <= m.p_max * (1 + 1e-12))
        assert np.all(nxt.p2[~m.dual] == 0.0)


@PROPERTY_SETTINGS
@given(networks())
def test_eta_n_matches_networkx_max_flow(network):
    # Single-link UEs get a nonzero second-link rate too: it must be ignored.
    s, seed = network
    rng = np.random.default_rng(seed)
    rate1, rate2 = rng.uniform(0, 80e6, size=(2, len(s.ues)))
    report = rate_differentials(build_matrices(s), rate1, rate2)
    assert report.eta_n == pytest.approx(networkx_max_flow(s, rate1, rate2), rel=1e-9)
