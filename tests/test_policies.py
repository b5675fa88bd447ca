import math

import numpy as np
import pytest

from duplink import (
    BackhaulState,
    bdt_update,
    fm_update,
    greedy_update,
    rate_cap_power,
    waterfill,
)


def rate_pair(p1, p2, e1, e2, w1, w2):
    return w1 * math.log2(1 + p1 / e1) + w2 * math.log2(1 + p2 / e2)


def waterfill_grid_oracle(p_max, e1, e2, w1, w2, points=2001):
    p1 = np.linspace(0.0, p_max, points)
    obj = w1 * np.log2(1 + p1 / e1) + w2 * np.log2(1 + (p_max - p1) / e2)
    best = int(np.argmax(obj))
    return p1[best], float(obj[best])


def psi(p1, p2, e1, e2, w1, w2, v1p, v2p):
    return (min(v1p, w1 * math.log2(1 + p1 / e1))
            + min(v2p, w2 * math.log2(1 + p2 / e2)))


def greedy_grid_oracle(p_max, e1, e2, w1, w2, v1p, v2p, points=401):
    """Best improvement on a simplex grid, then minimum total power among
    near-optimal grid points."""
    grid = np.linspace(0.0, p_max, points)
    p1g, p2g = np.meshgrid(grid, grid, indexing="ij")
    mask = p1g + p2g <= p_max + 1e-12
    vals = (np.minimum(v1p, w1 * np.log2(1 + p1g / e1))
            + np.minimum(v2p, w2 * np.log2(1 + p2g / e2)))
    vals = np.where(mask, vals, -np.inf)
    best = float(vals.max())
    tol = max(1e-9, 1e-9 * abs(best))
    near = (vals >= best - tol) & mask
    min_total = float((p1g + p2g)[near].min())
    return best, min_total


class TestWaterfill:
    def test_symmetric_split(self):
        assert waterfill(1.0, 0.1, 0.1, 1e6, 1e6) == pytest.approx((0.5, 0.5))

    def test_unequal_interference(self):
        # grid-search oracle pins the optimum at (0.4, 0.6)
        p1, p2 = waterfill(1.0, 0.3, 0.1, 1e6, 1e6)
        assert (p1, p2) == pytest.approx((0.4, 0.6))
        p1_grid, _ = waterfill_grid_oracle(1.0, 0.3, 0.1, 1e6, 1e6)
        assert p1 == pytest.approx(p1_grid, abs=1e-3)

    @pytest.mark.parametrize("p_max", [0.0, -1.0])
    def test_budget_must_be_positive(self, p_max):
        with pytest.raises(ValueError, match="^p_max must be > 0$"):
            waterfill(p_max, 0.1, 0.1, 1e6, 1e6)

    def test_hopeless_link_gets_nothing(self):
        p1, p2 = waterfill(1.0, 10.0, 0.1, 1e6, 1e6)
        assert p1 == 0.0 and p2 == 1.0

    def test_budget_exactness(self, rng):
        for _ in range(300):
            p_max = rng.uniform(0.1, 2.0)
            e1, e2 = rng.uniform(1e-4, 1.0, size=2)
            w1, w2 = rng.choice([1e6, 5e6, 10e6], size=2)
            p1, p2 = waterfill(p_max, e1, e2, w1, w2)
            assert p1 + p2 == pytest.approx(p_max, rel=1e-12)
            assert p1 >= 0 and p2 >= 0

    def test_interior_water_levels_match(self, rng):
        for _ in range(200):
            p_max = rng.uniform(0.5, 2.0)
            e1, e2 = rng.uniform(1e-3, 0.2, size=2)
            w1, w2 = rng.choice([1e6, 5e6], size=2)
            p1, p2 = waterfill(p_max, e1, e2, w1, w2)
            if 0 < p1 < p_max:
                assert (p1 + e1) / w1 == pytest.approx((p2 + e2) / w2, rel=1e-9)

    def test_beats_grid_oracle(self, rng):
        for _ in range(200):
            p_max = rng.uniform(0.1, 2.0)
            e1, e2 = rng.uniform(1e-4, 1.0, size=2)
            w1, w2 = rng.choice([1e6, 5e6, 10e6], size=2)
            p1, p2 = waterfill(p_max, e1, e2, w1, w2)
            mine = rate_pair(p1, p2, e1, e2, w1, w2)
            _, best = waterfill_grid_oracle(p_max, e1, e2, w1, w2)
            assert mine >= best * (1 - 1e-9) - 1e-9

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            waterfill(1.0, 0.0, 0.1, 1e6, 1e6)
        with pytest.raises(ValueError):
            waterfill(1.0, 0.1, 0.1, 0.0, 1e6)


class TestRateCapPower:
    def test_zero_rate(self):
        assert rate_cap_power(0.2, 1e6, 0.0) == 0.0

    def test_one_bit_per_hz(self):
        assert rate_cap_power(0.2, 1e6, 1e6) == pytest.approx(0.2)

    def test_two_bits_per_hz(self):
        assert rate_cap_power(0.1, 1e6, 2e6) == pytest.approx(0.3)

    def test_huge_rate_saturates(self):
        assert rate_cap_power(0.1, 1.0, 1e9) == math.inf

    def test_inverts_rate(self, rng):
        for _ in range(100):
            e = rng.uniform(1e-4, 1.0)
            w = rng.choice([1e6, 5e6])
            r = rng.uniform(0, 20) * w
            p = rate_cap_power(e, w, r)
            assert w * math.log2(1 + p / e) == pytest.approx(r, rel=1e-12)


class TestGreedyUpdate:
    def test_uncapped_reduces_to_waterfill(self):
        wf = waterfill(1.0, 0.2, 0.1, 1e6, 5e6)
        greedy = greedy_update(1.0, 0.2, 0.1, 1e6, 5e6, 1e15, 1e15)
        assert greedy == pytest.approx(wf)

    def test_no_headroom_means_silence(self):
        assert greedy_update(1.0, 0.1, 0.1, 1e6, 1e6, 0.0, 0.0) == (0.0, 0.0)

    def test_one_link_capped(self):
        # cap link 1 at 1 Mbps on a 1 MHz channel: exactly 0.1 W
        p1, p2 = greedy_update(1.0, 0.1, 0.1, 1e6, 1e6, 1e6, 1e15)
        assert p1 == pytest.approx(0.1)
        assert p2 == pytest.approx(0.9)  # remainder stays useful on link 2

    def test_both_capped_spends_minimum(self):
        p1, p2 = greedy_update(1.0, 0.1, 0.1, 1e6, 1e6, 1e6, 1e6)
        assert (p1, p2) == pytest.approx((0.1, 0.1))

    @pytest.mark.parametrize("seed", range(40))
    def test_against_two_dim_grid_oracle(self, seed):
        rng = np.random.default_rng(seed)
        p_max = rng.uniform(0.2, 1.5)
        e1, e2 = rng.uniform(1e-3, 0.5, size=2)
        w1, w2 = rng.choice([1e6, 5e6], size=2)
        v1p = float(rng.choice([0.0, rng.uniform(0, 10e6), 1e15]))
        v2p = float(rng.choice([0.0, rng.uniform(0, 10e6), 1e15]))
        p1, p2 = greedy_update(p_max, e1, e2, w1, w2, v1p, v2p)
        assert p1 >= -1e-12 and p2 >= -1e-12 and p1 + p2 <= p_max + 1e-9
        mine = psi(p1, p2, e1, e2, w1, w2, v1p, v2p)
        best, min_total = greedy_grid_oracle(p_max, e1, e2, w1, w2, v1p, v2p)
        scale = max(1.0, abs(best))
        assert mine >= best - 1e-6 * scale
        # stage 2: among optimal points, total power is minimal (grid slack)
        grid_step = p_max / 400
        assert p1 + p2 <= min_total + 2 * grid_step + 1e-9


class TestBdtUpdate:
    E = dict(e1=0.1, e2=0.1, w1=1e6, w2=1e6, z=0.9)

    @pytest.mark.parametrize("state", [0, 10, [1, 10]])
    def test_unknown_state(self, state):
        with pytest.raises(ValueError, match="^unknown state in "):
            bdt_update(state, 0.2, 0.3, 1.0, **self.E)

    def test_s1_waterfills(self):
        out = bdt_update(BackhaulState.S1, 0.2, 0.3, 1.0, **self.E)
        assert out == pytest.approx(waterfill(1.0, 0.1, 0.1, 1e6, 1e6))
        assert out == pytest.approx((0.5, 0.5))  # symmetric case

    def test_s2_holds_first_fills_second(self):
        assert bdt_update(BackhaulState.S2, 0.2, 0.3, 1.0, **self.E) == (0.2, 0.8)

    def test_s3_holds_second_fills_first(self):
        assert bdt_update(BackhaulState.S3, 0.2, 0.3, 1.0, **self.E) == (0.7, 0.3)

    def test_s4_holds_both(self):
        assert bdt_update(BackhaulState.S4, 0.21, 0.33, 1.0, **self.E) == (0.21, 0.33)

    def test_s5_scales_second_reallocates(self):
        p1, p2 = bdt_update(BackhaulState.S5, 0.2, 0.6, 1.0, **self.E)
        assert p2 == pytest.approx(0.54)
        assert p1 == pytest.approx(0.46)

    def test_s6_scales_first_reallocates(self):
        p1, p2 = bdt_update(BackhaulState.S6, 0.6, 0.2, 1.0, **self.E)
        assert p1 == pytest.approx(0.54)
        assert p2 == pytest.approx(0.46)

    def test_s7_s8_hold_one_scale_other(self):
        assert bdt_update(BackhaulState.S7, 0.2, 0.6, 1.0, **self.E) == \
            pytest.approx((0.2, 0.54))
        assert bdt_update(BackhaulState.S8, 0.6, 0.2, 1.0, **self.E) == \
            pytest.approx((0.54, 0.2))

    def test_s9_scales_both(self):
        assert bdt_update(BackhaulState.S9, 0.4, 0.6, 1.0, **self.E) == \
            pytest.approx((0.36, 0.54))

    def test_budget_usage_pattern(self, rng):
        # S2/S3/S5/S6 spend the whole budget; S7-S9 strictly shed power.
        for _ in range(100):
            p1 = rng.uniform(0.05, 0.5)
            p2 = rng.uniform(0.05, 0.5)
            for state in (BackhaulState.S2, BackhaulState.S3,
                          BackhaulState.S5, BackhaulState.S6):
                q1, q2 = bdt_update(state, p1, p2, 1.0, **self.E)
                assert q1 + q2 == pytest.approx(1.0)
                assert q1 >= 0 and q2 >= 0
            for state in (BackhaulState.S7, BackhaulState.S8, BackhaulState.S9):
                q1, q2 = bdt_update(state, p1, p2, 1.0, **self.E)
                assert q1 + q2 < p1 + p2
            q1, q2 = bdt_update(BackhaulState.S4, p1, p2, 1.0, **self.E)
            assert (q1, q2) == (p1, p2)

    def test_z_range_checked(self):
        with pytest.raises(ValueError):
            bdt_update(BackhaulState.S4, 0.1, 0.1, 1.0, 0.1, 0.1, 1e6, 1e6, 1.0)


class TestFmUpdate:
    def test_direct_product(self):
        assert fm_update(0.1, 2.0, 1.0) == pytest.approx(0.2)

    def test_clipped_at_budget(self):
        assert fm_update(0.6, 2.0, 1.0) == 1.0

    def test_fixed_point_hits_target(self):
        # at the fixed point p = beta * e, the SINR is beta exactly
        e, beta = 0.05, 3.0
        p = fm_update(e, beta, 1.0)
        assert p / e == pytest.approx(beta)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            fm_update(0.0, 2.0, 1.0)
        with pytest.raises(ValueError):
            fm_update(0.1, 0.0, 1.0)
