import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duplink import (
    GenParams,
    InapplicableCheck,
    build_matrices,
    build_system,
    closed_form_equilibrium,
    compute_state,
    generate,
    generate_mixed,
    rate_differentials,
    rescaling_sinr_bound_check,
    run,
    spectral_radius,
    step,
    worked_example,
)
from duplink.equilibrium import _components
from conftest import (
    RescaleOnceThenHold,
    fixed_ue_on_macro_channel,
    gelfand_radius,
    interior_equilibrium,
    random_system,
    run_collecting,
)


class TestBuildSystem:
    def test_interference_free_reduction(self, rng):
        mat = random_system(rng, 5, coupling=0.0)
        a, c = build_system(mat)
        assert np.all(a == 0.0)
        expected = mat.lam * (mat.w1 * mat.p_max - mat.w2 * mat.d1 + mat.w1 * mat.d2)
        np.testing.assert_allclose(c, expected, rtol=1e-12)

    def test_cancellation_when_links_mirror(self, rng):
        mat = random_system(rng, 4, coupling=0.1)
        mat.w[:, 1] = mat.w1
        mat.f[1, 0] = mat.f11
        mat.f[0, 1] = mat.f22
        a, _ = build_system(mat)
        np.testing.assert_allclose(a, 0.0, atol=1e-18)

    def test_replaced_bandwidths_match_a_rebuilt_network(self):
        # lam follows w1/w2, so a bandwidth sweep by dataclasses.replace
        # gives the same system as building the network with those channels.
        s = worked_example()
        mat = build_matrices(s)
        wide = build_matrices(replace(s, channels=[
            replace(ch, bandwidth=3 * ch.bandwidth + 1e6 * ch.id) for ch in s.channels]))
        swept = replace(mat, w=wide.w, d=wide.d)
        np.testing.assert_array_equal(swept.lam, 1.0 / (wide.w1 + wide.w2))
        for got, want in zip(build_system(swept), build_system(wide)):
            np.testing.assert_array_equal(got, want)

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
        a, c = build_system(build_matrices(worked_example()))
        np.testing.assert_allclose(a, m_hand, rtol=1e-12)
        np.testing.assert_allclose(c, n_hand, rtol=1e-12)


class TestSpectralRadius:
    def test_zero_matrix(self):
        assert spectral_radius(np.zeros((4, 4))) == 0.0

    def test_diagonal(self):
        assert spectral_radius(np.diag([0.5, 0.2])) == pytest.approx(0.5)

    def test_worked_example_against_power_iteration(self):
        a, _ = build_system(build_matrices(worked_example()))
        oracle = gelfand_radius(a, iters=10000)
        assert spectral_radius(a) == pytest.approx(oracle, abs=1e-8)
        assert spectral_radius(a) < 1.0

    def test_random_nonnegative_against_power_iteration(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 7))
            m = rng.random((n, n)) * rng.uniform(0.05, 0.5)
            assert spectral_radius(m) == pytest.approx(
                gelfand_radius(m, iters=4000), abs=1e-8)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            spectral_radius(np.ones((2, 3)))

    def test_eigenvalue_failure_is_named(self, monkeypatch):
        # No finite input makes eigvals fail, so numpy's call is patched.
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        monkeypatch.setattr(np.linalg, "eigvals", fail)
        with pytest.raises(np.linalg.LinAlgError,
                           match="^eigenvalue computation failed: Eigenvalues did not converge$"):
            spectral_radius(np.diag([0.5, 0.2]))


@st.composite
def permuted_blocks(draw, sparse=False):
    """A square matrix that is block-diagonal under a random permutation:
    blocks of 1 to 6 rows, some all zero. Entries of a ``sparse`` matrix
    are zero at random, so its components may be finer than its blocks."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=8))
    m = np.zeros((sum(sizes), sum(sizes)))
    start = 0
    for k in sizes:
        if draw(st.booleans()):
            block = m[start:start + k, start:start + k]
            block[:] = rng.uniform(-1.0, 1.0, (k, k))
            if sparse:
                block *= rng.random((k, k)) < 0.3
        start += k
    perm = rng.permutation(len(m))
    return m[np.ix_(perm, perm)]


class TestPerComponent:
    """spectral_radius and closed_form_equilibrium work per weakly connected
    component; scipy's labelling, the dense eigenvalues and the dense solve
    are the oracles."""

    @settings(max_examples=150, deadline=None)
    @given(permuted_blocks(sparse=True))
    def test_components_match_scipy(self, m):
        from scipy.sparse.csgraph import connected_components

        labels = np.empty(len(m), dtype=int)
        for k, idx in enumerate(_components(m)):
            assert np.all(np.diff(idx) > 0)
            labels[idx] = k
        _, expected = connected_components(m != 0, connection="weak")
        np.testing.assert_array_equal(labels, expected)

    @settings(max_examples=150, deadline=None)
    @given(permuted_blocks())
    def test_radius_matches_dense_eigenvalues(self, m):
        dense = float(np.max(np.abs(np.linalg.eigvals(m))))
        assert spectral_radius(m) == pytest.approx(dense, rel=1e-12, abs=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(permuted_blocks(sparse=True), min_size=1, max_size=5))
    def test_stacked_radii_match_each_alone(self, ms):
        # Zero-padded to one size; one eigenvalue call per component size
        # of the whole stack, and each radius with the bits of the largest
        # over its matrix's components, each component's eigenvalues taken
        # alone. A single matrix is a stack of one.
        n = max(len(m) for m in ms)
        stack = np.zeros((len(ms), n, n))
        for b, m in enumerate(ms):
            stack[b, :len(m), :len(m)] = m
        alone = np.array([max(float(np.max(np.abs(np.linalg.eigvals(a[np.ix_(idx, idx)]))))
                              for idx in _components(a)) for a in stack])
        eigvals, calls = np.linalg.eigvals, []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(np.linalg, "eigvals", lambda a: calls.append(a.shape) or eigvals(a))
            radii = spectral_radius(stack)
            sizes = {len(idx) for a in stack for idx in _components(a)}
            assert sorted(shape[1] for shape in calls) == sorted(sizes)
            for a, want in zip(stack, alone.tolist()):
                calls.clear()
                got = spectral_radius(a)
                assert type(got) is float
                assert np.float64(got).view(np.int64) == np.float64(want).view(np.int64)
                sizes = {len(idx) for idx in _components(a)}
                assert sorted(shape[1] for shape in calls) == sorted(sizes)
        np.testing.assert_array_equal(radii.view(np.int64), alone.view(np.int64))

    def test_empty_and_nonsquare(self):
        assert spectral_radius(np.zeros((0, 0))) == 0.0
        np.testing.assert_array_equal(spectral_radius(np.zeros((3, 0, 0))), np.zeros(3))
        for shape in ((3, 2), (2, 3, 2), (4,), (1, 2, 2, 2)):
            with pytest.raises(ValueError, match="square"):
                spectral_radius(np.ones(shape))

    @pytest.mark.parametrize("make", [
        worked_example,
        lambda: generate_mixed(GenParams(n_ues=160, n_relays=8, n_picos=12, seed=1), 40),
    ], ids=["worked", "mixed160+40"])
    def test_equilibrium_matches_dense_solve(self, make):
        m = build_matrices(make())
        a, c = build_system(m)
        rho = spectral_radius(a)
        assert rho == pytest.approx(np.max(np.abs(np.linalg.eigvals(a))), rel=1e-12)
        assert rho < 1.0
        p1, p2 = closed_form_equilibrium(m, a, c, rho)
        dense = np.linalg.solve(np.eye(m.n) - a, c)
        np.testing.assert_allclose(p1, dense, rtol=1e-12)
        np.testing.assert_allclose(p2, np.where(m.dual, m.p_max - dense, 0.0), rtol=1e-12)


class TestClosedFormEquilibrium:
    def test_identity_solve_when_uncoupled(self, rng):
        mat = random_system(rng, 4, coupling=0.0)
        a, c = build_system(mat)
        p1, p2 = closed_form_equilibrium(mat, a, c, spectral_radius(a))
        np.testing.assert_allclose(p1, c, rtol=1e-12)
        np.testing.assert_allclose(p2, 1.0 - p1, rtol=1e-12)

    def test_worked_example_matches_simulated_limit(self):
        mat = build_matrices(worked_example())
        equilibrium = interior_equilibrium(mat)
        assert equilibrium is not None
        p1_star, _ = equilibrium
        trace = run(mat, "wf", max_iter=200)
        assert trace.verdict.converged
        assert np.max(np.abs(trace.state.p1 - p1_star)) < 1e-6

    def test_fixed_point_residual(self, rng):
        for _ in range(50):
            mat = random_system(rng, int(rng.integers(2, 6)), coupling=0.08)
            a, c = build_system(mat)
            rho = spectral_radius(a)
            if rho >= 1.0:
                continue
            p1, _ = closed_form_equilibrium(mat, a, c, rho)
            residual = np.max(np.abs(p1 - c - a @ p1))
            assert residual < 1e-9 * max(1.0, np.max(np.abs(p1)))

    def test_random_instances_match_simulation(self, rng):
        # 4-UE generated scenarios: simulated waterfilling must land on the
        # closed form whenever it contracts to an interior point.
        checked = 0
        seed = 0
        while checked < 10 and seed < 200:
            mat = build_matrices(generate(GenParams(n_ues=4, seed=seed)))
            seed += 1
            equilibrium = interior_equilibrium(mat)
            if equilibrium is None:
                continue
            p1_star, _ = equilibrium
            trace = run(mat, "wf", max_iter=500)
            assert np.max(np.abs(trace.state.p1 - p1_star)) < 1e-6
            checked += 1
        assert checked == 10

    def test_neumann_iteration_from_random_starts(self, rng):
        # p1 <- c + a p1 converges to the fixed point from anywhere in
        # [0, p_max] when the radius is below one.
        done = 0
        while done < 100:
            mat = random_system(rng, int(rng.integers(2, 8)), coupling=0.1)
            a, c = build_system(mat)
            rho = spectral_radius(a)
            if rho >= 1.0:
                continue
            p1_star, _ = closed_form_equilibrium(mat, a, c, rho)
            p1 = rng.uniform(0, 1, size=mat.n)
            for _ in range(400):
                p1 = c + a @ p1
            assert np.max(np.abs(p1 - p1_star)) < 1e-8 * max(1.0, np.max(np.abs(p1_star)))
            done += 1

    def test_solve_failure_is_named(self, monkeypatch):
        # A contracting a makes I - a nonsingular, so numpy's solve is patched.
        mat = build_matrices(worked_example())
        a, c = build_system(mat)

        def fail(a, b):
            raise np.linalg.LinAlgError("Singular matrix")
        monkeypatch.setattr(np.linalg, "solve", fail)
        with pytest.raises(np.linalg.LinAlgError,
                           match=r"^\(I - M\) solve failed: Singular matrix$"):
            closed_form_equilibrium(mat, a, c, spectral_radius(a))

    def test_large_residual_is_named(self, monkeypatch):
        # A solve that is off by 1e-3 in every entry leaves that residual.
        mat = build_matrices(worked_example())
        a, c = build_system(mat)
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: solve(a, b) + 1e-3)
        with pytest.raises(np.linalg.LinAlgError, match="^fixed-point residual too large: "):
            closed_form_equilibrium(mat, a, c, spectral_radius(a))

    def test_requires_contraction(self, rng):
        mat = random_system(rng, 3, coupling=0.0)
        a, c = build_system(mat)
        with pytest.raises(ValueError, match="contract"):
            closed_form_equilibrium(mat, a, c, 1.5)  # a non-contractive radius


class TestMixedPopulationSystem:
    def test_all_dual_reduces_to_plain_system(self, rng):
        # A UE's row depends only on its own kind: the dual rows of a mixed
        # population are the all-dual system's rows, bit for bit.
        mat = random_system(rng, 4, coupling=0.05)
        a, c = build_system(mat)
        dual = np.array([True, False, True, False])
        mixed = replace(mat, dual=dual, beta=np.where(dual, 0.0, 2.0))
        a_mixed, c_mixed = build_system(mixed)
        np.testing.assert_array_equal(a_mixed[dual], a[dual])
        np.testing.assert_array_equal(c_mixed[dual], c[dual])

    def test_all_fixed_reduces_to_classical_iteration(self, rng):
        # Without dual UEs no second link transmits, so f21 is zero.
        mat = random_system(rng, 4, coupling=0.05)
        beta = rng.uniform(1, 3, size=4)
        no_f21 = mat.f.copy()
        no_f21[1, 0] = 0.0
        fixed = replace(mat, dual=np.zeros(4, dtype=bool), beta=beta, f=no_f21)
        a, c = build_system(fixed)
        np.testing.assert_allclose(a, beta[:, None] * mat.f11, rtol=1e-12)
        np.testing.assert_allclose(c, beta * mat.d1, rtol=1e-12)

    def test_all_fixed_equilibrium_hits_targets(self, rng):
        # classical fixed-target iteration: SINR of every UE equals beta
        for _ in range(20):
            mat = random_system(rng, 4, coupling=0.03)
            beta = rng.uniform(1, 3, size=4)
            no_f21 = mat.f.copy()
            no_f21[1, 0] = 0.0
            fixed = replace(mat, dual=np.zeros(4, dtype=bool), beta=beta, f=no_f21)
            a, c = build_system(fixed)
            rho = spectral_radius(a)
            if rho >= 1.0:
                continue
            p1, p2 = closed_form_equilibrium(fixed, a, c, rho)
            assert np.all(p2 == 0.0)
            e1 = mat.d1 + mat.f11 @ p1
            np.testing.assert_allclose(p1 / e1, beta, rtol=1e-6)

    def test_fixed_rows_include_link_2_coupling(self):
        # A dual UE's macrocell link shares the fixed-SINR UE's channel. At
        # the predicted fixed point the interference of that link counts, so
        # one synchronous mixed-fm step from it must not move the powers:
        # fixed-SINR UEs sit on their targets, dual UEs on their waterfill.
        mat = build_matrices(fixed_ue_on_macro_channel())
        fixed = ~mat.dual
        assert np.any(mat.f21[fixed] > 0)
        equilibrium = interior_equilibrium(mat)
        assert equilibrium is not None
        p1, p2 = equilibrium
        now = compute_state(mat, p1, p2)
        np.testing.assert_allclose(now.sinr1[fixed], mat.beta[fixed], rtol=1e-12)
        nxt = step(mat, now, "mixed-fm", rate_differentials(mat, now.rate1, now.rate2))
        np.testing.assert_allclose(nxt.p1, p1, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(nxt.p2, p2, rtol=1e-12, atol=1e-15)


def _rescaling_iterates(seed, reverse=False):
    """Run RescaleOnceThenHold from the interior fixed point of a 2-UE
    network and return its iterates and matrices, or (None, None) where the
    construction does not apply.
    ``reverse`` lists the UEs in descending id order."""
    s = generate(GenParams(n_ues=2, n_relays=1, n_picos=1, seed=seed,
                           backhaul_scale=10.0))
    if reverse:
        s = replace(s, ues=s.ues[::-1])
    mat = build_matrices(s)
    if mat.f11[0, 1] == 0 and mat.f11[1, 0] == 0:
        return None, None
    equilibrium = interior_equilibrium(mat)
    if equilibrium is None:
        return None, None
    _, iterates = run_collecting(mat, RescaleOnceThenHold(mat.z), max_iter=4, eps=1e-15,
                                 window=10, p0=equilibrium)
    return iterates, mat


class TestRescalingSinrBound:
    def test_two_ue_construction_holds(self):
        found = 0
        for seed in range(40):
            iterates, mat = _rescaling_iterates(seed)
            if iterates is None:
                continue
            assert rescaling_sinr_bound_check(iterates, mat, ue_id=1, link=1, k=0) is True
            found += 1
        assert found >= 20

    def test_interference_free_rescale(self):
        # with constant interference the SINR only drops by z, beating z^2
        mat = build_matrices(generate(GenParams(n_ues=1, n_relays=1, n_picos=0, seed=1,
                                                backhaul_scale=10.0)))
        z = mat.z
        _, iterates = run_collecting(mat, RescaleOnceThenHold(z), max_iter=4, eps=1e-15,
                                     window=10)
        assert rescaling_sinr_bound_check(iterates, mat, ue_id=1, link=1, k=0) is True
        g0 = iterates[0][0].sinr1[0]
        g2 = iterates[2][0].sinr1[0]
        assert g2 == pytest.approx(z * g0, rel=1e-9)

    def test_trace_too_short_is_inapplicable(self):
        iterates, mat = _rescaling_iterates(0)
        assert iterates is not None
        with pytest.raises(InapplicableCheck):
            rescaling_sinr_bound_check(iterates, mat, ue_id=1, link=1,
                                       k=len(iterates) - 2)

    def test_unrescaled_ue_is_inapplicable(self):
        iterates, mat = _rescaling_iterates(0)
        with pytest.raises(InapplicableCheck):
            rescaling_sinr_bound_check(iterates, mat, ue_id=2, link=1, k=0)

    def test_unknown_ue_is_inapplicable(self):
        iterates, mat = _rescaling_iterates(0)
        with pytest.raises(InapplicableCheck, match="unknown UE id 3"):
            rescaling_sinr_bound_check(iterates, mat, ue_id=3, link=1, k=0)

    def test_ue_ids_out_of_order(self):
        # UE 2 is listed first, so it is the one RescaleOnceThenHold rescales.
        iterates, mat = _rescaling_iterates(1, reverse=True)
        assert mat.ue_id.tolist() == [2, 1]
        assert rescaling_sinr_bound_check(iterates, mat, ue_id=2, link=1, k=0) is True
        with pytest.raises(InapplicableCheck, match="not rescaled"):
            rescaling_sinr_bound_check(iterates, mat, ue_id=1, link=1, k=0)

    def test_bottleneck_link_is_inapplicable(self):
        iterates, mat = _rescaling_iterates(0)
        # fake a negative differential at k=0 for UE 1 link 1
        iterates[0][1].v1[0] = -1.0
        with pytest.raises(InapplicableCheck):
            rescaling_sinr_bound_check(iterates, mat, ue_id=1, link=1, k=0)
