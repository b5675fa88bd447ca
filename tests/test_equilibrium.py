import math
from dataclasses import replace

import numpy as np
import pytest

from duplink import (
    GenParams,
    InapplicableCheck,
    build_matrices,
    build_system,
    closed_form_equilibrium,
    compute_state,
    effective_interference,
    generate,
    rescaling_sinr_bound_check,
    mixed_population_system,
    run,
    spectral_radius,
    waterfill,
    worked_example,
)
from conftest import RescaleOnceThenHold, gelfand_radius, random_system


class TestBuildSystem:
    def test_interference_free_reduction(self, rng):
        mat = random_system(rng, 5, coupling=0.0)
        p_max = np.ones(5)
        sys_ = build_system(mat, p_max)
        assert np.all(sys_.m == 0.0)
        expected = mat.lam * (mat.w1 * p_max - mat.w2 * mat.d1 + mat.w1 * mat.d2)
        np.testing.assert_allclose(sys_.n_vec, expected, rtol=1e-12)

    def test_cancellation_when_links_mirror(self, rng):
        mat = random_system(rng, 4, coupling=0.1)
        mat.w2 = mat.w1.copy()
        mat.lam = 1.0 / (mat.w1 + mat.w2)
        mat.f21 = mat.f11.copy()
        mat.f12 = mat.f22.copy()
        sys_ = build_system(mat, np.ones(4))
        np.testing.assert_allclose(sys_.m, 0.0, atol=1e-18)

    def test_worked_example_hand_evaluation(self):
        # Everything from scratch: gains from geometry, then the 2x2 system
        # entry by entry.
        g = lambda d, k=1.0: 100.0 * d ** -3.7 * k
        d_near, d_mbs, d_far = 2000.0, math.sqrt(8e6), math.sqrt(20e6)
        f11_ab = g(d_far) / g(d_near)
        f11_ba = 1.0
        f22_ab = 0.5
        f22_ba = g(d_far) / g(d_near)
        d1 = [1e-12 / g(d_near), 1e-12 / g(d_mbs)]
        d2 = [5e-13 / g(d_mbs), 5e-13 / g(d_near)]
        w1, w2, lam = 10e6, 5e6, 1.0 / 15e6
        # f12 = f21 = 0, so M = -lam*(w2*f11 + w1*f22), row-scaled
        m_hand = np.array([
            [0.0, -lam * (w2 * f11_ab + w1 * f22_ab)],
            [-lam * (w2 * f11_ba + w1 * f22_ba), 0.0],
        ])
        f22_mat = np.array([[0.0, f22_ab], [f22_ba, 0.0]])
        n_hand = lam * (w1 * 1.0 - w2 * np.array(d1) + w1 * np.array(d2)
                        + w1 * f22_mat @ np.ones(2))
        sys_ = build_system(build_matrices(worked_example()), np.ones(2))
        np.testing.assert_allclose(sys_.m, m_hand, rtol=1e-12)
        np.testing.assert_allclose(sys_.n_vec, n_hand, rtol=1e-12)

    def test_dimension_mismatch(self):
        mat = build_matrices(worked_example())
        with pytest.raises(ValueError):
            build_system(mat, np.ones(3))


class TestSpectralRadius:
    def test_zero_matrix(self):
        assert spectral_radius(np.zeros((4, 4))) == 0.0

    def test_diagonal(self):
        assert spectral_radius(np.diag([0.5, 0.2])) == pytest.approx(0.5)

    def test_worked_example_against_power_iteration(self):
        sys_ = build_system(build_matrices(worked_example()), np.ones(2))
        oracle = gelfand_radius(sys_.m, iters=10000)
        assert sys_.spectral_radius == pytest.approx(oracle, abs=1e-8)
        assert sys_.spectral_radius < 1.0

    def test_random_nonnegative_against_power_iteration(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 7))
            m = rng.random((n, n)) * rng.uniform(0.05, 0.5)
            assert spectral_radius(m) == pytest.approx(
                gelfand_radius(m, iters=4000), abs=1e-8)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            spectral_radius(np.ones((2, 3)))


class TestClosedFormEquilibrium:
    def test_identity_solve_when_uncoupled(self, rng):
        mat = random_system(rng, 4, coupling=0.0)
        sys_ = build_system(mat, np.ones(4))
        p1, p2 = closed_form_equilibrium(sys_, np.ones(4))
        np.testing.assert_allclose(p1, sys_.n_vec, rtol=1e-12)
        np.testing.assert_allclose(p2, 1.0 - p1, rtol=1e-12)

    def test_worked_example_matches_simulated_limit(self):
        s = worked_example()
        mat = build_matrices(s)
        sys_ = build_system(mat, np.ones(2))
        p1_star, _ = closed_form_equilibrium(sys_, np.ones(2))
        assert sys_.interior
        trace = run(s, "wf", max_iter=200, m=mat)
        assert trace.verdict.converged
        assert np.max(np.abs(trace.states[-1].p1 - p1_star)) < 1e-6

    def test_fixed_point_residual(self, rng):
        for _ in range(50):
            mat = random_system(rng, int(rng.integers(2, 6)), coupling=0.08)
            p_max = np.ones(mat.n)
            sys_ = build_system(mat, p_max)
            if sys_.spectral_radius >= 1.0:
                continue
            p1, _ = closed_form_equilibrium(sys_, p_max)
            residual = np.max(np.abs(p1 - sys_.n_vec - sys_.m @ p1))
            assert residual < 1e-9 * max(1.0, np.max(np.abs(p1)))

    def test_random_instances_match_simulation(self, rng):
        # 4-UE generated scenarios: simulated waterfilling must land on the
        # closed form whenever it contracts to an interior point.
        checked = 0
        seed = 0
        while checked < 10 and seed < 200:
            s = generate(GenParams(n_ues=4, seed=seed))
            seed += 1
            mat = build_matrices(s)
            p_max = np.array([u.p_max for u in s.ues])
            sys_ = build_system(mat, p_max)
            if sys_.spectral_radius >= 1.0:
                continue
            p1_star, _ = closed_form_equilibrium(sys_, p_max)
            if not sys_.interior:
                continue
            trace = run(s, "wf", max_iter=500, m=mat)
            assert np.max(np.abs(trace.states[-1].p1 - p1_star)) < 1e-6
            checked += 1
        assert checked == 10

    def test_neumann_iteration_from_random_starts(self, rng):
        # p1 <- n_vec + m p1 converges to the fixed point from anywhere in
        # [0, p_max] when the radius is below one.
        done = 0
        while done < 100:
            mat = random_system(rng, int(rng.integers(2, 8)), coupling=0.1)
            p_max = np.ones(mat.n)
            sys_ = build_system(mat, p_max)
            if sys_.spectral_radius >= 1.0:
                continue
            p1_star, _ = closed_form_equilibrium(sys_, p_max)
            p1 = rng.uniform(0, 1, size=mat.n)
            for _ in range(400):
                p1 = sys_.n_vec + sys_.m @ p1
            assert np.max(np.abs(p1 - p1_star)) < 1e-8 * max(1.0, np.max(np.abs(p1_star)))
            done += 1

    def test_requires_contraction(self, rng):
        mat = random_system(rng, 3, coupling=0.0)
        sys_ = build_system(mat, np.ones(3))
        sys_.spectral_radius = 1.5  # simulate a non-contractive system
        with pytest.raises(ValueError, match="contract"):
            closed_form_equilibrium(sys_, np.ones(3))


class TestMixedPopulationSystem:
    def test_all_dual_reduces_to_plain_system(self, rng):
        mat = random_system(rng, 4, coupling=0.05)
        sys_ = build_system(mat, np.ones(4))
        a, c = mixed_population_system(mat, sys_, np.zeros(4), np.zeros(4))
        np.testing.assert_array_equal(a, sys_.m)
        np.testing.assert_array_equal(c, sys_.n_vec)

    def test_all_fixed_reduces_to_classical_iteration(self, rng):
        mat = random_system(rng, 4, coupling=0.05)
        sys_ = build_system(mat, np.ones(4))
        beta = rng.uniform(1, 3, size=4)
        a, c = mixed_population_system(mat, sys_, np.ones(4), beta)
        np.testing.assert_allclose(a, beta[:, None] * mat.f11, rtol=1e-12)
        np.testing.assert_allclose(c, beta * mat.d1, rtol=1e-12)

    def test_all_fixed_equilibrium_hits_targets(self, rng):
        # classical fixed-target iteration: SINR of every UE equals beta
        for _ in range(20):
            mat = random_system(rng, 4, coupling=0.03)
            sys_ = build_system(mat, np.ones(4))
            beta = rng.uniform(1, 3, size=4)
            a, c = mixed_population_system(mat, sys_, np.ones(4), beta)
            if spectral_radius(a) >= 1.0:
                continue
            p1 = np.linalg.solve(np.eye(4) - a, c)
            e1 = mat.d1 + mat.f11 @ p1
            np.testing.assert_allclose(p1 / e1, beta, rtol=1e-6)

    def test_beta_and_q_consistency_enforced(self, rng):
        mat = random_system(rng, 3, coupling=0.0)
        sys_ = build_system(mat, np.ones(3))
        with pytest.raises(ValueError):
            mixed_population_system(mat, sys_, np.array([1.0, 0.0, 0.0]),
                                    np.array([2.0, 1.0, 0.0]))


def _rescaling_trace(seed, z=None):
    s = generate(GenParams(n_ues=2, n_relays=1, n_picos=1, seed=seed,
                           backhaul_scale=10.0))
    mat = build_matrices(s)
    p_max = np.array([u.p_max for u in s.ues])
    sys_ = build_system(mat, p_max)
    if sys_.spectral_radius >= 1.0 or (mat.f11[0, 1] == 0 and mat.f11[1, 0] == 0):
        return None, None
    p1_star, p2_star = closed_form_equilibrium(sys_, p_max)
    if not sys_.interior:
        return None, None
    z = s.z_factor if z is None else z
    trace = run(s, RescaleOnceThenHold(z), max_iter=4, eps=1e-15, window=10,
                p0=(p1_star, p2_star), m=mat)
    return trace, z


class TestRescalingSinrBound:
    def test_two_ue_construction_holds(self):
        found = 0
        for seed in range(40):
            trace, z = _rescaling_trace(seed)
            if trace is None:
                continue
            assert rescaling_sinr_bound_check(trace, z, ue_id=1, link=1, k=0) is True
            found += 1
        assert found >= 20

    def test_interference_free_rescale(self):
        # with constant interference the SINR only drops by z, beating z^2
        s = generate(GenParams(n_ues=1, n_relays=1, n_picos=0, seed=1,
                               backhaul_scale=10.0))
        mat = build_matrices(s)
        z = s.z_factor
        trace = run(s, RescaleOnceThenHold(z), max_iter=4, eps=1e-15,
                    window=10, m=mat)
        assert rescaling_sinr_bound_check(trace, z, ue_id=1, link=1, k=0) is True
        g0 = trace.states[0].sinr1[0]
        g2 = trace.states[2].sinr1[0]
        assert g2 == pytest.approx(z * g0, rel=1e-9)

    def test_trace_too_short_is_inapplicable(self):
        trace, z = _rescaling_trace(0)
        assert trace is not None
        with pytest.raises(InapplicableCheck):
            rescaling_sinr_bound_check(trace, z, ue_id=1, link=1, k=len(trace.states) - 2)

    def test_unrescaled_ue_is_inapplicable(self):
        trace, z = _rescaling_trace(0)
        with pytest.raises(InapplicableCheck):
            rescaling_sinr_bound_check(trace, z, ue_id=2, link=1, k=0)

    def test_bottleneck_link_is_inapplicable(self):
        trace, z = _rescaling_trace(0)
        # fake a negative differential at k=0 for UE 1 link 1
        trace.reports[0].v1[0] = -1.0
        with pytest.raises(InapplicableCheck):
            rescaling_sinr_bound_check(trace, z, ue_id=1, link=1, k=0)
