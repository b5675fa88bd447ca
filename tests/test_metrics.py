import math

import numpy as np
import pytest

from duplink import (
    GenParams,
    build_matrices,
    compute_state,
    effective_interference,
    generate,
    generate_mixed,
    stack_matrices,
    worked_example,
)
from duplink.metrics import CrossGainMatrices

from conftest import gain_dict, scalar_interference, synthetic_topology, with_gains


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
            f11=np.zeros((n, n)), f12=np.zeros((n, n)),
            f21=np.zeros((n, n)), f22=np.zeros((n, n)),
            d1=np.array([e1]), d2=np.array([e2]),
            w1=np.array([w1]), w2=np.array([w2]),
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
