from dataclasses import replace

import numpy as np
import pytest

from duplink import (
    UE,
    BackhaulState,
    Channel,
    Gains,
    GenParams,
    PoA,
    PoAKind,
    Scenario,
    build_matrices,
    classify_state,
    generate,
    generate_mixed,
    rate_differentials,
    stack_matrices,
)

from conftest import scalar_rate_differentials


def capacity(s, rate1, rate2):
    return rate_differentials(build_matrices(s), rate1, rate2).eta_n


def report(s, rate1, rate2):
    return rate_differentials(build_matrices(s), rate1, rate2)


def flow_scenario(n_relays, n_picos, ue_links, eta_r=30e6, eta_p=200e6, eta_b=100e6):
    """Backhaul-only scenario skeleton: channels/gains are irrelevant here,
    each UE just needs PoA endpoints for its links."""
    poas = []
    for k in range(n_relays):
        poas.append(PoA(id=k + 1, kind=PoAKind.RELAY, position=(0, 0),
                        backhaul_capacity=eta_r))
    for k in range(n_picos):
        poas.append(PoA(id=n_relays + k + 1, kind=PoAKind.PICOCELL, position=(0, 0),
                        backhaul_capacity=eta_p))
    macro_id = n_relays + n_picos + 1
    poas.append(PoA(id=macro_id, kind=PoAKind.MACROCELL, position=(0, 0),
                    backhaul_capacity=eta_b))
    channels = [Channel(id=c + 1, bandwidth=1e6) for c in range(2 * len(ue_links))]
    ues = []
    for i, (poa1, poa2) in enumerate(ue_links):
        ues.append(UE(id=i + 1, position=(0, 0), p_max=1.0,
                      poa_1=poa1, chan_1=2 * i + 1, poa_2=poa2, chan_2=2 * i + 2))
    gains = Gains.from_rows([[u.id, poa, chan, 1e-6] for u in ues
                             for poa, chan in ((u.poa_1, u.chan_1), (u.poa_2, u.chan_2))])
    return Scenario(poas=poas, ues=ues, channels=channels, gains=gains,
                    noise_psd=1e-19, tau=5e6, z_factor=0.9)


def networkx_max_flow(s, rate1, rate2):
    """Generic max-flow oracle over the equivalent graph."""
    import networkx as nx

    g = nx.DiGraph()
    macro = s.macro()
    for i, u in enumerate(s.ues):
        g.add_edge(("src",), ("link", u.id, 1), capacity=float(rate1[i]))
        g.add_edge(("link", u.id, 1), ("poa", u.poa_1), capacity=float(rate1[i]))
        if u.dual:
            g.add_edge(("src",), ("link", u.id, 2), capacity=float(rate2[i]))
            g.add_edge(("link", u.id, 2), ("poa", u.poa_2), capacity=float(rate2[i]))
    for p in s.poas:
        if p.kind is PoAKind.PICOCELL:
            g.add_edge(("poa", p.id), ("sink",), capacity=p.backhaul_capacity)
        elif p.kind is PoAKind.RELAY:
            g.add_edge(("poa", p.id), ("poa", macro.id), capacity=p.backhaul_capacity)
    g.add_edge(("poa", macro.id), ("sink",), capacity=macro.backhaul_capacity)
    if ("src",) not in g:
        return 0.0
    value, _ = nx.maximum_flow(g, ("src",), ("sink",))
    return value


class TestNetworkCapacity:
    def test_single_ue_to_macro(self):
        s = flow_scenario(0, 0, [(1, 1)], eta_b=100e6)
        # both links on the macrocell, 10 Mbps total
        assert capacity(s, np.array([6e6]), np.array([4e6])) == pytest.approx(10e6)

    def test_macro_cap_binds(self):
        s = flow_scenario(0, 0, [(1, 1)], eta_b=10e6)
        assert capacity(s, np.array([50e6]), np.array([0.0])) == pytest.approx(10e6)

    def test_relay_capped_then_macro(self):
        # relay at 50 Mbps access, relay cap 30, macro cap 100 -> 30
        s = flow_scenario(1, 0, [(1, 2)], eta_r=30e6, eta_b=100e6)
        rate1 = np.array([50e6])
        rate2 = np.array([0.0])
        assert capacity(s, rate1, rate2) == pytest.approx(30e6)
        assert capacity(s, rate1, rate2) == pytest.approx(
            networkx_max_flow(s, rate1, rate2))

    @pytest.mark.parametrize("seed", range(8))
    def test_random_instance_against_max_flow_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n_r, n_p = int(rng.integers(0, 3)), int(rng.integers(0, 3))
        macro_id = n_r + n_p + 1
        n_ues = int(rng.integers(1, 7))
        links = []
        for _ in range(n_ues):
            poa1 = int(rng.integers(1, macro_id + 1))
            links.append((poa1, macro_id))
        s = flow_scenario(n_r, n_p, links,
                          eta_r=float(rng.uniform(5e6, 50e6)),
                          eta_p=float(rng.uniform(5e6, 100e6)),
                          eta_b=float(rng.uniform(20e6, 200e6)))
        rate1 = rng.uniform(0, 60e6, size=n_ues)
        rate2 = rng.uniform(0, 60e6, size=n_ues)
        ours = capacity(s, rate1, rate2)
        oracle = networkx_max_flow(s, rate1, rate2)
        assert ours == pytest.approx(oracle, rel=1e-9)

    def test_monotone_in_capacity_and_rates(self):
        s = flow_scenario(1, 1, [(1, 3), (2, 3)], eta_r=30e6, eta_p=40e6, eta_b=50e6)
        rate1 = np.array([20e6, 35e6])
        rate2 = np.array([10e6, 5e6])
        base = capacity(s, rate1, rate2)
        assert capacity(s, rate1 * 1.2, rate2) >= base
        s.poas[0] = PoA(id=1, kind=PoAKind.RELAY, position=(0, 0),
                        backhaul_capacity=60e6)
        assert capacity(s, rate1, rate2) >= base


class TestRateDifferentials:
    # Per-PoA arrays are indexed by PoA id - 1.
    def test_no_traffic(self):
        s = flow_scenario(1, 1, [(1, 3), (2, 3)], eta_r=30e6, eta_p=40e6, eta_b=50e6)
        rep = report(s, np.zeros(2), np.zeros(2))
        assert rep.v[0] == pytest.approx(min(30e6, 50e6))  # relay
        assert rep.v[1] == pytest.approx(40e6)             # pico
        assert rep.v[2] == pytest.approx(50e6)             # macro
        assert rep.gamma_relay_sum == 0.0
        assert rep.eta_n == 0.0

    def test_overloaded_pico_goes_negative(self):
        s = flow_scenario(0, 1, [(1, 2)], eta_p=200e6, eta_b=1e9)
        rep = report(s, np.array([250e6]), np.array([0.0]))
        assert rep.v[0] == pytest.approx(-50e6)

    def test_relay_uses_macro_headroom(self):
        # Macro nearly full: relay ceiling is the macro headroom, not eta_r.
        s = flow_scenario(1, 0, [(1, 2)], eta_r=30e6, eta_b=50e6)
        rate1 = np.array([10e6])   # relay access
        rate2 = np.array([45e6])   # macro access
        rep = report(s, rate1, rate2)
        gamma = min(30e6, 10e6)
        v_b = 50e6 - 45e6 - gamma
        assert rep.v[1] == pytest.approx(v_b)
        assert rep.v[0] == pytest.approx(min(30e6, max(v_b, 0.0)) - 10e6)
        assert rep.v[0] < 0  # overloaded despite eta_r headroom

    def test_negative_macro_headroom_clamps_to_zero(self):
        s = flow_scenario(1, 0, [(1, 2)], eta_r=30e6, eta_b=20e6)
        rep = report(s, np.array([5e6]), np.array([40e6]))
        assert rep.v[1] < 0
        assert rep.v[0] == pytest.approx(0.0 - 5e6)

    def test_relay_delta_linearity(self):
        # Below the relay cap, +delta carried traffic lowers V_b by delta.
        s = flow_scenario(1, 0, [(1, 2)], eta_r=30e6, eta_b=100e6)
        base = report(s, np.array([10e6]), np.array([0.0]))
        more = report(s, np.array([14e6]), np.array([0.0]))
        assert base.v[1] - more.v[1] == pytest.approx(4e6)

    def test_hand_evaluated_limited_case(self):
        # Independent spreadsheet-style evaluation of the v map. UE 1 links
        # (relay, macro), UE 2 links (macro, pico).
        s = flow_scenario(1, 1, [(1, 3), (3, 2)],
                          eta_r=20e6, eta_p=12e6, eta_b=30e6)
        rate1 = np.array([47e6, 2e6])
        rate2 = np.array([4e6, 28e6])
        rep = report(s, rate1, rate2)
        gamma = min(20e6, 47e6)
        v_b = 30e6 - (2e6 + 4e6) - gamma
        v_p = 12e6 - 28e6
        v_r = min(20e6, max(v_b, 0.0)) - 47e6
        assert rep.gamma_relay_sum == pytest.approx(gamma)
        assert rep.v[2] == pytest.approx(v_b)
        assert rep.v[1] == pytest.approx(v_p)
        assert rep.v[0] == pytest.approx(v_r)
        # per-link view matches the per-PoA map
        assert rep.v1[0] == rep.v[0]
        assert rep.v2[1] == rep.v[1]

    def test_states_follow_table(self):
        s = flow_scenario(1, 1, [(1, 3), (3, 2)],
                          eta_r=20e6, eta_p=12e6, eta_b=60e6)
        rep = report(s, np.array([47e6, 2e6]), np.array([4e6, 28e6]))
        assert rep.state[0] == classify_state(rep.v[0], rep.v[2], s.tau)
        assert rep.state[1] == classify_state(rep.v[2], rep.v[1], s.tau)

    def test_tau_is_read_from_the_matrices(self):
        m = build_matrices(flow_scenario(1, 1, [(1, 3), (3, 2)],
                                         eta_r=20e6, eta_p=12e6, eta_b=60e6))
        rate1, rate2 = np.array([47e6, 2e6]), np.array([4e6, 28e6])
        assert np.any(rate_differentials(m, rate1, rate2).state >= 5)
        wide = rate_differentials(replace(m, tau=1e12), rate1, rate2)
        assert np.all(wide.state <= 4)  # nothing is overloaded
        with pytest.raises(ValueError, match="tau must be > 0"):
            rate_differentials(replace(m, tau=0.0), rate1, rate2)


class TestClassifyState:
    @pytest.mark.parametrize("v1,v2,expected", [
        (1.0, 2.0, BackhaulState.S1),
        (-3.0, 1.0, BackhaulState.S2),
        (1.0, -3.0, BackhaulState.S3),
        (-3.0, -3.0, BackhaulState.S4),
        (1.0, -10.0, BackhaulState.S5),
        (-10.0, 1.0, BackhaulState.S6),
        (-3.0, -10.0, BackhaulState.S7),
        (-10.0, -3.0, BackhaulState.S8),
        (-10.0, -10.0, BackhaulState.S9),
    ])
    def test_reference_rows(self, v1, v2, expected):
        assert classify_state(v1, v2, 5.0) == expected

    def test_boundaries(self):
        # V = 0 belongs with ">= 0"; V = -tau belongs to the tolerable band;
        # anything representably below -tau is overloaded.
        assert classify_state(0.0, 0.0, 5.0) == BackhaulState.S1
        assert classify_state(-5.0, 0.0, 5.0) == BackhaulState.S2
        assert classify_state(-5.0, -5.0, 5.0) == BackhaulState.S4
        assert classify_state(-5.0 - 1e-12, -5.0, 5.0) == BackhaulState.S8
        next_down = np.nextafter(-5.0, -np.inf)
        assert classify_state(next_down, 0.0, 5.0) == BackhaulState.S6

    def test_partition_property_on_grid(self):
        tau = 5.0
        grid = [-12.0, -5.0 - 1e-9, -5.0, -4.999, -2.5, -1e-12, 0.0, 1e-12, 3.0, 40.0]
        seen = set()
        for v1 in grid:
            for v2 in grid:
                state = classify_state(v1, v2, tau)  # total: never raises
                seen.add(state)
        assert seen == set(BackhaulState)

    def test_partition_property_random(self, rng):
        for _ in range(2000):
            v1, v2 = rng.uniform(-20, 20, size=2)
            tau = rng.uniform(0.1, 10)
            assert classify_state(v1, v2, tau) in BackhaulState

    def test_tau_positive_required(self):
        with pytest.raises(ValueError):
            classify_state(0.0, 0.0, 0.0)


class TestGeneratedScenarioCapacity:
    @pytest.mark.parametrize("seed", range(4))
    def test_oracle_on_generated_scenarios(self, seed, rng):
        s = generate(GenParams(n_ues=6, seed=seed))
        rate1 = rng.uniform(0, 80e6, size=6)
        rate2 = rng.uniform(0, 80e6, size=6)
        assert capacity(s, rate1, rate2) == pytest.approx(
            networkx_max_flow(s, rate1, rate2), rel=1e-9)


class TestStackedReport:
    def test_rows_match_networks_alone_and_the_scalar_oracle(self, rng):
        # 9 relays and 12 picocells: from 8 terms on, numpy's sum adds one
        # network's contiguous slice in another order than a stack's strided
        # block, so a stack row would differ from its network alone.
        scenarios = [generate_mixed(GenParams(n_ues=30, n_relays=9, n_picos=12, seed=seed,
                                              backhaul_scale=0.3), 6) for seed in (1, 2, 3)]
        ms = [build_matrices(s) for s in scenarios]
        rate1 = rng.uniform(0, 40e6, size=(3, 36))
        rate2 = np.where([m.dual for m in ms], rng.uniform(0, 40e6, size=(3, 36)), 0.0)
        states = []
        for tau in (1e6, 5e6, 2e7):  # a stack shares tau: one stack per value
            stack = stack_matrices([replace(m, tau=tau) for m in ms])
            rep = rate_differentials(stack, rate1, rate2)
            states.append(rep.state)
            for i, (s, m) in enumerate(zip(scenarios, ms)):
                alone = rate_differentials(replace(m, tau=tau), rate1[i], rate2[i])
                assert (rep.eta_n[i] == alone.eta_n
                        and rep.gamma_relay_sum[i] == alone.gamma_relay_sum)
                for name in ("load", "v", "v1", "v2", "state"):
                    np.testing.assert_array_equal(getattr(rep, name)[i], getattr(alone, name))
                v = scalar_rate_differentials(s, rate1[i], rate2[i])
                assert alone.v.tolist() == [v[poa.id] for poa in s.poas]
        # tau reaches the states: the values do not all classify alike.
        assert any((a != b).any() for a, b in zip(states, states[1:]))
