import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from duplink import (
    UE,
    Channel,
    POLICY_NAMES,
    Gains,
    GenParams,
    PoA,
    PoAKind,
    Scenario,
    ScenarioArrays,
    build_matrices,
    compute_state,
    effective_interference,
    generate,
    generate_arrays,
    generate_mixed,
    initial_state,
    load_scenario,
    rate_differentials,
    save_scenario,
    stack_matrices,
    step,
    validate_scenario,
    worked_example,
)
from duplink.metrics import CrossGainMatrices, PowerState
from duplink.scenarios import _draw, _draw_one

from conftest import (fixed_ue_on_macro_channel, gain_dict, random_system,
                      scalar_interference, synthetic_topology, with_gains)


class TestWorkedExampleMatrices:
    """The pinned 2-UE example must reproduce the reference cross-gain
    entries {1, 0.5, 0.0509, 0.0509} and noise vectors [0.0164, 0.059] /
    [0.0295, 0.0082].

    With both first links sharing the 10 MHz channel and both second links
    sharing the 5 MHz channel, all coupling is same-link-index: the value 1
    sits at f11[UE2, UE1] (UE 1's macro-link signal received at the
    macrocell relative to UE 2's own macro gain), 0.5 at f22[UE1, UE2]
    (UE 2's faded 5 MHz signal at the macrocell), and the 0.0509 entries are
    the 4.47 km / 2 km path-loss ratios.
    """

    def test_matches_reference_values(self):
        m = build_matrices(worked_example())
        np.testing.assert_allclose(m.f11, [[0.0, 0.0509], [1.0, 0.0]], atol=1e-4)
        np.testing.assert_allclose(m.f22, [[0.0, 0.5], [0.0509, 0.0]], atol=1e-4)
        assert np.all(m.f12 == 0.0)
        assert np.all(m.f21 == 0.0)
        np.testing.assert_allclose(m.d1, [0.0164, 0.059], atol=5e-5)
        np.testing.assert_allclose(m.d2, [0.0295, 0.0082], atol=5e-5)
        np.testing.assert_allclose(m.w1, [10e6, 10e6])
        np.testing.assert_allclose(m.w2, [5e6, 5e6])

    def test_matches_geometry_oracle(self):
        # Re-derive every entry from scratch: gain = 100 * d^-3.7, noise =
        # 1e-19 * W, fading 1 except 0.5 on UE 2's 5 MHz path to the macrocell.
        g = lambda d, k=1.0: 100.0 * d ** -3.7 * k
        d_near, d_mbs, d_far = 2000.0, math.sqrt(8e6), math.sqrt(20e6)
        m = build_matrices(worked_example())
        assert m.f11[0, 1] == pytest.approx(g(d_far) / g(d_near), rel=1e-12)
        assert m.f11[1, 0] == pytest.approx(g(d_mbs) / g(d_mbs), rel=1e-12)
        assert m.f22[0, 1] == pytest.approx(g(d_mbs, 0.5) / g(d_mbs), rel=1e-12)
        assert m.f22[1, 0] == pytest.approx(g(d_far) / g(d_near), rel=1e-12)
        np.testing.assert_allclose(
            m.d1, [1e-12 / g(d_near), 1e-12 / g(d_mbs)], rtol=1e-12)
        np.testing.assert_allclose(
            m.d2, [5e-13 / g(d_mbs), 5e-13 / g(d_near)], rtol=1e-12)

    def test_zero_diagonal_and_nonnegativity(self):
        m = build_matrices(worked_example())
        for f in (m.f11, m.f12, m.f21, m.f22):
            assert np.all(np.diag(f) == 0.0)
            assert np.all(f >= 0.0)
        assert np.all(m.d1 > 0) and np.all(m.d2 > 0)


class TestBuildMatrices:
    def test_single_ue_has_no_interference(self):
        s = generate(GenParams(n_ues=1, n_relays=1, n_picos=0, seed=3))
        m = build_matrices(s)
        for f in (m.f11, m.f12, m.f21, m.f22):
            assert np.all(f == 0.0)
        assert m.d1[0] > 0 and m.d2[0] > 0

    def test_distinct_channels_mean_zero_matrices(self):
        # Two UEs in separate cells with all four channels distinct.
        s = worked_example()
        from duplink.network import Channel
        from dataclasses import replace
        s.channels.append(Channel(id=3, bandwidth=10e6))
        s.channels.append(Channel(id=4, bandwidth=5e6))
        s.ues[1] = replace(s.ues[1], chan_1=3, chan_2=4)
        gains = gain_dict(s)
        gains[(2, 3, 3)] = gains.pop((2, 3, 1))
        gains[(2, 2, 4)] = gains.pop((2, 2, 2))
        m = build_matrices(with_gains(s, gains))
        for f in (m.f11, m.f12, m.f21, m.f22):
            assert np.all(f == 0.0)

    def test_missing_gain_raises(self):
        s = worked_example()
        gains = gain_dict(s)
        del gains[(2, 1, 1)]  # cross path UE2 -> relay
        with pytest.raises(KeyError, match="cross gain: UE 2 -> PoA 1 on channel 1"):
            build_matrices(with_gains(s, gains))

    def test_single_link_rows_are_zeroed(self):
        s = generate_mixed(GenParams(n_ues=2, n_relays=2, n_picos=1, seed=7), n_fixed=2)
        m = build_matrices(s)
        for u in s.ues:
            if u.dual:
                continue
            i = u.id - 1
            assert m.d2[i] == 0.0 and m.w2[i] == 0.0
            assert np.all(m.f21[:, i] == 0.0)  # no second-link transmissions
            assert np.all(m.f22[:, i] == 0.0)
            assert np.all(m.f12[i, :] == 0.0)  # no second-link receiver
            assert np.all(m.f22[i, :] == 0.0)


def assert_same_bits(got: CrossGainMatrices, want: CrossGainMatrices) -> None:
    """Every field equal bit for bit: arrays by dtype, shape and bytes,
    scalars by type and ``float.hex``."""
    for f in fields(CrossGainMatrices):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), f.name
        else:
            assert (type(a), float(a).hex()) == (type(b), float(b).hex()), f.name


@st.composite
def record_inputs(draw):
    """(GenParams, n_fixed): small networks, with a small cell whenever
    there is a UE. At radius_m = 2 about a quarter of the UEs sit within
    the 1 m reference distance of their small cell."""
    n_ues, n_fixed, n_relays = draw(st.integers(0, 30)), draw(st.integers(0, 5)), \
        draw(st.integers(0, 4))
    params = GenParams(
        n_ues=n_ues,
        n_relays=n_relays,
        n_picos=draw(st.integers(0 if n_relays or not n_ues + n_fixed else 1, 4)),
        radius_m=draw(st.sampled_from([2.0, 200.0])),
        backhaul_scale=draw(st.floats(0.05, 4.0)),
        bandwidth_choices=draw(st.sampled_from([(1e6, 5e6), (2e5,), (1e6, 3e6, 1e7)])),
        min_poa_separation=draw(st.sampled_from([0.0, 300.0])),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    return params, n_fixed


class TestScenarioRecord:
    """``build_matrices`` of the generator's record (the path ``monte_carlo``
    takes) against ``build_matrices`` of the generated ``Scenario``, and of
    that scenario saved and loaded."""

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(inputs=record_inputs())
    @example(inputs=(GenParams(n_ues=21, backhaul_scale=0.5, seed=3), 0))  # mc_backhaul
    @example(inputs=(GenParams(n_ues=0, n_relays=2, n_picos=2, seed=3), 5))  # fixed-SINR only
    @example(inputs=(GenParams(n_ues=0, seed=1), 0))  # no UEs
    def test_record_path_builds_the_object_path_network(self, tmp_path_factory, inputs):
        p, n_fixed = inputs
        if n_fixed:
            s, record = generate_mixed(p, n_fixed), _draw_one(p, n_fixed, (1.0, 4.0))[0]
        else:
            s, record = generate(p), generate_arrays(p)
        want = build_matrices(s)
        assert_same_bits(build_matrices(record), want)
        assert_same_bits(build_matrices(ScenarioArrays.of(s)), want)
        path = tmp_path_factory.mktemp("record") / "scenario.json"
        save_scenario(s, path)
        assert_same_bits(build_matrices(load_scenario(path)), want)
        # Path loss, against the positions: alpha moves no draw, so each gain
        # at alpha = 2 is the one at 3.7 times max(1, d) ** 1.7.
        flat = generate_mixed(replace(p, alpha=2.0), n_fixed)
        d = np.array([math.dist(s.ues[u - 1].position, s.poas[q - 1].position)
                      for u, q, _ in s.gains.keys.tolist()])
        np.testing.assert_allclose(flat.gains.values,
                                   s.gains.values * np.maximum(1.0, d) ** 1.7, rtol=1e-12)

    def test_bandwidth_in_use_adds_in_channel_order(self, tmp_path):
        # Channels listed out of id order: 1 + 1e-16 + 1e-16 is 1.0 in the
        # listed order, and 1e-16 + 1e-16 + 1 = 1.0000000000000002 in id order.
        assert 1e-16 + 1e-16 + 1.0 != 1.0
        s = Scenario(
            poas=[PoA(1, PoAKind.RELAY, (-500.0, 0.0), 1e9),
                  PoA(2, PoAKind.PICOCELL, (500.0, 0.0), 1e9),
                  PoA(3, PoAKind.MACROCELL, (0.0, 0.0), 1e10)],
            ues=[UE(1, (-500.0, -100.0), 1.0, poa_1=1, chan_1=1, poa_2=3, chan_2=2),
                 UE(2, (500.0, -100.0), 1.0, poa_1=2, chan_1=1, poa_2=3, chan_2=3)],
            channels=[Channel(3, 1), Channel(1, 1e-16), Channel(2, 1e-16)],
            gains=Gains.from_rows([[1, 1, 1, 1e-10], [1, 2, 1, 1e-12], [1, 3, 2, 1e-11],
                                   [2, 1, 1, 1e-12], [2, 2, 1, 1e-10], [2, 3, 3, 1e-11]]),
            noise_psd=1e-19, tau=5e6, z_factor=0.9)
        assert validate_scenario(s) == []
        path = tmp_path / "scenario.json"
        save_scenario(s, path)
        for m in (build_matrices(s), build_matrices(ScenarioArrays.of(s)),
                  build_matrices(load_scenario(path))):
            assert m.bandwidth_in_use.hex() == (1.0).hex()
            assert m.w1.tolist() == [1e-16, 1e-16] and m.w2.tolist() == [1e-16, 1.0]


@st.composite
def batch_inputs(draw):
    """(GenParams, n_fixed, seeds): ``record_inputs`` at any path-loss
    exponent, drawn for one to six seeds. The last bandwidth choices are not
    whole numbers, so their sums round, and a sum in another order than the
    channel order shows in ``bandwidth_in_use``."""
    params, n_fixed = draw(record_inputs())
    seeds = draw(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=6))
    choices = draw(st.sampled_from([params.bandwidth_choices, (1e6 / 3, 7e5 + 0.1, 1e7 / 7)]))
    return (replace(params, alpha=draw(st.floats(2.0, 6.0)), bandwidth_choices=choices),
            n_fixed, seeds)


# 21+2 UEs dropped 600 m around their cells, so some join a busier cell: at
# these seeds the rows hold 26, 25, 25, 25, 26 and 25 channels and 152 to 172
# gains.
RAGGED = (GenParams(n_ues=21, radius_m=600.0), 2, [1, 2, 3, 4, 5, 6])


class TestBatchRecord:
    """``build_matrices`` of a batch record (``monte_carlo``'s path) against
    the stacked networks of its scenarios generated one at a time."""

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(inputs=batch_inputs())
    @example(inputs=RAGGED)
    @example(inputs=(GenParams(n_ues=0, n_relays=2, n_picos=2), 5, [3, 4]))  # fixed-SINR only
    @example(inputs=(GenParams(n_ues=0), 0, [1, 2, 3]))  # no UEs
    def test_batch_builds_the_stack_of_its_scenarios(self, inputs):
        p, n_fixed, seeds = inputs
        record = _draw(p, seeds, n_fixed, (1.0, 4.0))[0]
        alone = [generate_mixed(replace(p, seed=seed), n_fixed) if n_fixed
                 else generate(replace(p, seed=seed)) for seed in seeds]
        stack = build_matrices(record)
        assert_same_bits(stack, stack_matrices([build_matrices(s) for s in alone]))
        # Every generated channel is in use, and Python adds them in channel order.
        assert stack.bandwidth_in_use.tolist() == [sum(c.bandwidth for c in s.channels)
                                                   for s in alone]

    def test_ragged_example_is_ragged(self):
        p, n_fixed, seeds = RAGGED
        r = _draw(p, seeds, n_fixed, (1.0, 4.0))[0]
        assert (r.chan_id > 0).sum(axis=1).tolist() == [
            len(generate_mixed(replace(p, seed=seed), n_fixed).channels) for seed in seeds]
        assert len(set((r.chan_id > 0).sum(axis=1).tolist())) > 1
        assert len(set(np.bincount(r.gains.keys[:, 0]).tolist())) > 1


class TestEffectiveInterference:
    def test_zero_power_gives_noise_floor(self):
        m = build_matrices(worked_example())
        e1, e2 = effective_interference(m, np.zeros(2), np.zeros(2))
        np.testing.assert_array_equal(e1, m.d1)
        np.testing.assert_array_equal(e2, m.d2)

    def test_worked_example_hand_product(self):
        m = build_matrices(worked_example())
        e1, e2 = effective_interference(m, np.array([1.0, 1.0]), np.zeros(2))
        np.testing.assert_allclose(e1, m.d1 + m.f11 @ [1.0, 1.0], rtol=1e-15)
        np.testing.assert_array_equal(e2, m.d2)
        assert e1[1] == pytest.approx(m.d1[1] + 1.0, rel=1e-9)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_scalar_oracle(self, seed, rng):
        s = generate(GenParams(n_ues=5, n_relays=2, n_picos=2, seed=seed))
        m = build_matrices(s)
        p_max = np.array([u.p_max for u in s.ues])
        split = rng.uniform(0, 1, size=5)
        p1 = p_max * split
        p2 = p_max - p1
        e1, e2 = effective_interference(m, p1, p2)
        o1, o2 = scalar_interference(s, p1, p2)
        np.testing.assert_allclose(e1, o1, rtol=1e-12)
        np.testing.assert_allclose(e2, o2, rtol=1e-12)

    def test_mixed_population_scalar_oracle(self, rng):
        s = generate_mixed(GenParams(n_ues=3, n_relays=2, n_picos=2, seed=11), n_fixed=3)
        m = build_matrices(s)
        n = len(s.ues)
        p1 = rng.uniform(0, 1, size=n)
        p2 = np.where([u.dual for u in s.ues], rng.uniform(0, 0.5, size=n), 0.0)
        e1, e2 = effective_interference(m, p1, p2)
        o1, o2 = scalar_interference(s, p1, p2)
        np.testing.assert_allclose(e1, o1, rtol=1e-12)
        np.testing.assert_allclose(e2, o2, rtol=1e-12)

    def test_monotone_in_interferer_power(self, rng):
        s = generate(GenParams(n_ues=6, seed=21))
        m = build_matrices(s)
        p1 = rng.uniform(0, 0.5, size=6)
        p2 = rng.uniform(0, 0.5, size=6)
        e1, e2 = effective_interference(m, p1, p2)
        for j in range(6):
            for vec in (p1, p2):
                bumped_p1, bumped_p2 = p1.copy(), p2.copy()
                (bumped_p1 if vec is p1 else bumped_p2)[j] += 0.3
                b1, b2 = effective_interference(m, bumped_p1, bumped_p2)
                assert np.all(b1 >= e1 - 1e-15) and np.all(b2 >= e2 - 1e-15)

    def test_dimension_mismatch(self):
        m = build_matrices(worked_example())
        with pytest.raises(ValueError):
            effective_interference(m, np.zeros(3), np.zeros(3))


class TestLinkRates:
    """Rates from ``compute_state`` on one interference-free UE, so the
    effective interference of each link is its normalized noise."""

    def rates(self, w1, w2, p1, e1, p2=0.0, e2=1.0):
        n = 1
        m = CrossGainMatrices(
            f=np.zeros((2, 2, n, n)), d=np.array([[e1, e2]]), w=np.array([[w1, w2]]),
            **synthetic_topology(n),
        )
        st = compute_state(m, np.array([p1]), np.array([p2]))
        return st.rate1[0], st.rate2[0]

    def test_one_bit_per_hz(self):
        r1, r2 = self.rates(1e6, 1e6, p1=0.2, e1=0.2)
        assert r1 == pytest.approx(1e6)
        assert r2 == 0.0

    def test_two_bits_per_hz(self):
        r1, _ = self.rates(5e6, 1e6, p1=0.3, e1=0.1)
        assert r1 == pytest.approx(1e7)

    def test_zero_power_zero_rate(self):
        r1, r2 = self.rates(1e6, 5e6, p1=0.0, e1=0.5, p2=0.0, e2=0.5)
        assert r1 == 0.0 and r2 == 0.0

    def test_nonpositive_interference_rejected(self):
        with pytest.raises(ValueError, match="interference"):
            self.rates(1e6, 1e6, p1=0.1, e1=0.0)

    def test_rate_monotone_in_power_and_interference(self):
        base, _ = self.rates(1e6, 1e6, p1=0.2, e1=0.1)
        more_power, _ = self.rates(1e6, 1e6, p1=0.3, e1=0.1)
        more_noise, _ = self.rates(1e6, 1e6, p1=0.2, e1=0.2)
        assert more_power > base > more_noise


class TestComputeState:
    def test_sinr_consistency(self, rng):
        s = generate(GenParams(n_ues=4, seed=5))
        m = build_matrices(s)
        p1 = rng.uniform(0, 0.5, size=4)
        p2 = rng.uniform(0, 0.5, size=4)
        st = compute_state(m, p1, p2)
        np.testing.assert_allclose(st.sinr1 * st.e1, st.p1, rtol=1e-12)
        np.testing.assert_allclose(st.sinr2 * st.e2, st.p2, rtol=1e-12)

    def test_rates_match_shannon_formula_bitwise(self, rng):
        s = generate_mixed(GenParams(n_ues=6, seed=3), n_fixed=3)
        m = build_matrices(s)
        p1 = rng.uniform(0, 1, size=m.n) * (rng.random(m.n) < 0.8)
        p2 = np.where(m.dual, rng.uniform(0, 0.5, size=m.n), 0.0)
        st = compute_state(m, p1, p2)
        for p, e, w, rate in ((p1, st.e1, m.w1, st.rate1), (p2, st.e2, m.w2, st.rate2)):
            active = (p > 0) & (w > 0)
            expected = np.zeros(m.n)
            expected[active] = w[active] * np.log2(1.0 + p[active] / e[active])
            np.testing.assert_array_equal(rate, expected)


class TestLinkPairs:
    """A PowerState holds (..., n, 2) link pairs; p1..rate2 are views of
    their columns, and the state is nothing but its fields."""

    def test_fields_are_the_pairs(self):
        assert [f.name for f in fields(PowerState)] == ["p", "e", "sinr", "rate"]

    @pytest.mark.parametrize("stacked", [False, True], ids=["one", "stack"])
    def test_columns_are_views_of_the_pairs(self, stacked, rng):
        m = build_matrices(generate_mixed(GenParams(n_ues=5, seed=3), 2))
        if stacked:
            m = stack_matrices([m, m])
        state = initial_state(m)
        for pair in ("p", "e", "sinr", "rate"):
            whole = getattr(state, pair)
            assert whole.shape == (*m.d1.shape, 2)
            for x in (1, 2):
                column = getattr(state, f"{pair}{x}")
                assert np.shares_memory(column, whole[..., x - 1]), (pair, x)
                np.testing.assert_array_equal(column, whole[..., x - 1])
                at = (0,) * column.ndim
                column[at] = value = rng.uniform(10.0, 20.0)
                assert whole[at + (x - 1,)] == value, (pair, x)
                with pytest.raises(AttributeError):
                    setattr(state, f"{pair}{x}", column)

    def test_step_reads_only_the_fields(self):
        # A state rebuilt by ``replace`` carries nothing but its fields, and
        # steps to the same next state, alone and stacked.
        m = build_matrices(generate_mixed(GenParams(n_ues=6, seed=7, backhaul_scale=0.2), 3))
        stack = stack_matrices([m] * len(POLICY_NAMES))
        for net, policy in [(m, name) for name in POLICY_NAMES] + [(stack, list(POLICY_NAMES))]:
            state = initial_state(net)
            report = rate_differentials(net, state.rate1, state.rate2)
            for _ in range(3):
                nxt, again = step(net, state, policy, report), step(net, replace(state), policy,
                                                                    report)
                for f in fields(PowerState):
                    a, b = getattr(nxt, f.name), getattr(again, f.name)
                    assert a.shape == b.shape and a.tobytes() == b.tobytes(), f.name
                state, report = nxt, rate_differentials(net, nxt.rate1, nxt.rate2)


class TestPublicCalls:
    """A public call resolves the network it is given, and takes two vectors."""

    def test_in_place_edit_is_seen(self):
        m = build_matrices(worked_example())
        p1, p2 = np.array([0.3, 0.6]), np.array([0.7, 0.4])
        compute_state(m, p1, p2)
        m.d1[0] *= 2
        got, want = compute_state(m, p1, p2), compute_state(replace(m), p1, p2)
        for f in fields(PowerState):
            assert getattr(got, f.name).tobytes() == getattr(want, f.name).tobytes(), f.name
        assert got.e1[0] != compute_state(build_matrices(worked_example()), p1, p2).e1[0]

    @pytest.mark.parametrize("p1,p2", [
        (np.ones(2), None), (None, np.ones(2)), (np.ones(1), np.ones(1)), (1.0, 1.0),
        (np.ones(3), np.ones(3)), (np.ones(2), np.ones(3)), (np.ones((2, 2)), np.ones((2, 2))),
    ], ids=["p2-none", "p1-none", "short", "scalars", "long", "ragged", "stack-shaped"])
    def test_power_shapes_are_checked(self, p1, p2):
        m = build_matrices(worked_example())
        for call in (compute_state, effective_interference):
            with pytest.raises(ValueError, match=r"^power vectors must have shape \(2,\)$"):
                call(m, p1, p2)

    def test_stack_takes_stacked_vectors(self):
        stack = stack_matrices([build_matrices(worked_example())] * 3)
        with pytest.raises(ValueError, match=r"^power vectors must have shape \(3, 2\)$"):
            compute_state(stack, np.ones(2), np.ones(2))


def dense_state(m, p1, p2) -> dict:
    """e, SINR and rate of both links from all four coupling blocks, each
    link on its own: the formula of the metrics module docstring."""
    def apply(f, p):
        return (f @ p[..., None])[..., 0]

    e = (m.d1 + apply(m.f11, p1) + apply(m.f21, p2), m.d2 + apply(m.f22, p2) + apply(m.f12, p1))
    out = {}
    for x, p, e_x, w in ((1, p1, e[0], m.w1), (2, p2, e[1], m.w2)):
        sinr = np.divide(p, e_x, out=np.zeros(p.shape), where=e_x > 0)
        out.update({f"e{x}": e_x, f"sinr{x}": sinr, f"rate{x}": w * np.log2(1.0 + sinr)})
    return out


class TestNonzeroBlocks:
    """compute_state multiplies only the coupling blocks that hold a
    nonzero, both links in one pass, with the bits of the dense formula."""

    @pytest.mark.parametrize("make,nonzero", [
        (lambda rng: build_matrices(worked_example()), [True, False, False, True]),
        (lambda rng: build_matrices(generate(GenParams(n_ues=21, seed=7))),
         [True, False, False, False]),
        (lambda rng: build_matrices(generate_mixed(GenParams(n_ues=6, seed=7), 3)),
         [True, False, False, False]),
        (lambda rng: build_matrices(fixed_ue_on_macro_channel()), [True, True, True, False]),
        (lambda rng: random_system(rng, 9, coupling=0.2), [True, True, True, True]),
    ], ids=["worked", "gen21", "mixed6+3", "fixed_on_macro", "hand_built"])
    def test_state_equals_dense_formula_bitwise(self, rng, make, nonzero):
        m = make(rng)
        assert [bool(f.any()) for f in (m.f11, m.f12, m.f21, m.f22)] == nonzero
        for _ in range(5):
            p1 = rng.uniform(0.0, 1.0, m.n) * m.p_max
            p2 = np.where(m.dual, m.p_max - p1, 0.0)
            state, dense = compute_state(m, p1, p2), dense_state(m, p1, p2)
            for name, expected in dense.items():
                assert np.array_equal(getattr(state, name), expected), name

    def test_stack_rows_equal_networks_alone(self, rng):
        # A block is multiplied for the whole stack when any row holds a
        # nonzero in it; the rows where it is zero keep their bits.
        coupled = random_system(rng, 6, coupling=0.2)
        no_f12_f21, no_f22 = coupled.f.copy(), coupled.f.copy()
        no_f12_f21[[0, 1], [1, 0]] = 0.0
        no_f22[1, 1] = 0.0
        ms = [coupled, replace(coupled, f=no_f12_f21), replace(coupled, f=no_f22)]
        stack = stack_matrices(ms)
        p1 = rng.uniform(0.0, 1.0, (3, 6))
        state = compute_state(stack, p1, 1.0 - p1)
        for i, m in enumerate(ms):
            alone = compute_state(m, p1[i], 1.0 - p1[i])
            for name in ("e1", "e2", "sinr1", "sinr2", "rate1", "rate2"):
                assert np.array_equal(getattr(state, name)[i], getattr(alone, name)), name


class TestNetworkLinkPairs:
    """The network is held as link pairs; its per-link arrays are views."""

    def test_fields_hold_the_network_as_link_pairs(self):
        assert [f.name for f in fields(CrossGainMatrices)] == [
            "f", "d", "w", "poa", "dual", "p_max", "beta", "capacity", "relays", "picos",
            "macro", "tau", "z", "ue_id", "bandwidth_in_use"]

    @pytest.mark.parametrize("stacked", [False, True], ids=["one", "stack"])
    def test_per_link_arrays_are_views_of_the_pairs(self, stacked):
        m = build_matrices(fixed_ue_on_macro_channel())
        if stacked:
            m = stack_matrices([m, m])
        n = m.n
        assert m.f.shape == (*m.p_max.shape[:-1], 2, 2, n, n)
        assert m.d.shape == m.w.shape == m.poa.shape == (*m.p_max.shape, 2)
        views = {f"f{x}{y}": ("f", (..., x - 1, y - 1, slice(None), slice(None)))
                 for x in (1, 2) for y in (1, 2)}
        views.update({f"{pair}{x}": (pair, (..., x - 1)) for pair in "dw" for x in (1, 2)})
        for name, (pair, at) in views.items():
            view = getattr(m, name)
            assert np.shares_memory(view, getattr(m, pair)), name
            np.testing.assert_array_equal(view, getattr(m, pair)[at])
            with pytest.raises(AttributeError):
                setattr(m, name, view.copy())
        np.testing.assert_array_equal(m.lam, 1.0 / (m.w[..., 0] + m.w[..., 1]))


class TestStackedNetworks:
    """Each row of a stack computes the bits of its network alone."""

    @pytest.mark.parametrize("n", [2, 7, 21, 64, 200])
    def test_interference_rows_match_per_network_products_bitwise(self, n, rng):
        ms = [build_matrices(generate_mixed(GenParams(n_ues=n - n // 4, n_relays=3,
                                                      n_picos=4, seed=seed), n // 4))
              for seed in range(4)]
        stack = stack_matrices(ms)
        p1 = rng.uniform(0.0, 1.0, size=(4, n))
        p2 = np.where(stack.dual, rng.uniform(0.0, 1.0, size=(4, n)), 0.0)
        e1, e2 = effective_interference(stack, p1, p2)
        state = compute_state(stack, p1, p2)
        for i, m in enumerate(ms):
            np.testing.assert_array_equal(e1[i], m.d1 + m.f11 @ p1[i] + m.f21 @ p2[i])
            np.testing.assert_array_equal(e2[i], m.d2 + m.f22 @ p2[i] + m.f12 @ p1[i])
            alone = compute_state(m, p1[i], p2[i])
            for name in ("sinr1", "sinr2", "rate1", "rate2"):
                np.testing.assert_array_equal(getattr(state, name)[i], getattr(alone, name))

    def test_stack_keeps_layout_and_stacks_the_rest(self):
        for tau, z in ((5e6, 0.9), (2e6, 0.5)):  # a stack holds one tau and z
            ms = [build_matrices(generate(GenParams(n_ues=5, seed=seed, tau=tau, z_factor=z)))
                  for seed in (1, 2)]
            stack = stack_matrices(ms)
            assert stack.f11.shape == (2, 5, 5) and stack.poa.shape == (2, 5, 2)
            assert stack.bandwidth_in_use.shape == (2,)
            assert stack.n == 5 and stack.macro == ms[0].macro
            assert (stack.tau, stack.z) == (tau, z) and np.ndim(stack.tau) == np.ndim(stack.z) == 0
            np.testing.assert_array_equal(stack.capacity, ms[0].capacity)
            second = stack.take([1])
            np.testing.assert_array_equal(second.f21[0], ms[1].f21)
            assert second.bandwidth_in_use[0] == ms[1].bandwidth_in_use
            assert (second.tau, second.z) == (tau, z)
