"""Acceptance suite: one test per criterion, each printing a summary line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Monte Carlo criteria use frozen seeds, so every run is identical.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from duplink import (
    GenParams,
    build_matrices,
    build_system,
    generate,
    generate_mixed,
    rate_differentials,
    rescaling_sinr_bound_check,
    run,
    spectral_radius,
    waterfill,
    worked_example,
)
from duplink.engine import SweepPoint, aggregate, monte_carlo
from duplink.scenarios import LIMITED_BACKHAUL

from conftest import RescaleOnceThenHold, interior_equilibrium, run_collecting


def report(n, text):
    print(f"\n[acceptance] criterion {n} PASS: {text}")


def contractive_networks(params, count, seed0=0):
    out = []
    seed = seed0
    while len(out) < count:
        m = build_matrices(generate(replace(params, seed=seed)))
        if spectral_radius(build_system(m)[0]) < 1.0:
            out.append(m)
        seed += 1
    return out


def test_criterion_1_fixed_point_reproduction():
    t0 = time.monotonic()
    m = build_matrices(worked_example())
    equilibrium = interior_equilibrium(m)
    assert equilibrium is not None
    p1_star, _ = equilibrium
    errs = {}
    for policy in ("bdt", "wf"):
        trace = run(m, policy, max_iter=100)
        assert trace.verdict.converged
        errs[policy] = float(np.max(np.abs(trace.state.p1 - p1_star)))
        assert errs[policy] < 1e-6
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    report(1, f"bdt/wf reach closed-form fixed point, max errors "
              f"{errs['bdt']:.2e}/{errs['wf']:.2e} W in {elapsed:.2f}s")


def test_criterion_2_greedy_instability():
    t0 = time.monotonic()
    m = build_matrices(worked_example(LIMITED_BACKHAUL))
    greedy = run(m, "greedy", max_iter=100)
    bdt = run(m, "bdt", max_iter=100)
    assert greedy.verdict.kind in ("oscillating", "max_iterations")
    assert bdt.verdict.converged
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    report(2, f"greedy verdict {greedy.verdict.kind} "
              f"(period {greedy.verdict.period}), bdt converged at iteration "
              f"{bdt.verdict.iteration} in {elapsed:.2f}s")


def test_criterion_3_convergence_percentage():
    # Scenario distribution: defaults with 10 UEs and backhaul scale 1.4,
    # where overloads are present but shallow enough to settle inside the
    # 100-iteration budget (deeper overloads converge too, just slower).
    t0 = time.monotonic()
    scens = contractive_networks(GenParams(n_ues=10, backhaul_scale=1.4), 200)
    z_grid = (0.5, 0.7, 0.9, 0.95)
    pct = {}
    for z in z_grid:
        converged = 0
        for m in scens:
            trace = run(replace(m, z=z), "bdt", max_iter=100)
            converged += trace.verdict.converged
        pct[z] = 100.0 * converged / len(scens)
    elapsed = time.monotonic() - t0
    assert pct[0.95] == 100.0
    for low, high in zip(z_grid, z_grid[1:]):
        assert pct[high] >= pct[low] - 3.0  # monotone up to sampling noise
    assert elapsed < 120.0
    report(3, f"bdt convergence over 200 contractive scenarios: "
              f"{ {z: round(p, 1) for z, p in pct.items()} } in {elapsed:.1f}s")


def test_criterion_4_power_saving():
    t0 = time.monotonic()
    points = [SweepPoint("backhaul_scale", scale,
                         GenParams(n_ues=21, backhaul_scale=scale))
              for scale in (0.1, 0.2, 0.3)]
    rows = monte_carlo(points, ("bdt", "wf"), trials=100, seeds=0, max_iter=50)
    summary = {(r["sweep_value"], r["policy"]): r for r in aggregate(rows)}
    ratios = {}
    for scale in (0.1, 0.2, 0.3):
        bdt, wf = summary[(scale, "bdt")], summary[(scale, "wf")]
        assert wf["avg_total_power_mean"] == pytest.approx(1.0, abs=1e-9)
        power_ratio = bdt["avg_total_power_mean"] / wf["avg_total_power_mean"]
        rate_ratio = bdt["eta_n_normalized_mean"] / wf["eta_n_normalized_mean"]
        assert power_ratio <= 0.55
        assert rate_ratio >= 0.95
        ratios[scale] = (round(power_ratio, 3), round(rate_ratio, 3))
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    report(4, f"bdt (power ratio, rate ratio) vs wf at low backhaul: {ratios} "
              f"in {elapsed:.1f}s")


def test_criterion_5_rate_ordering_small_networks():
    t0 = time.monotonic()
    points = [SweepPoint("n_ues", n, GenParams(n_ues=n)) for n in (2, 4, 6, 8)]
    rows = monte_carlo(points, ("bdt", "wf", "greedy"), trials=100, seeds=0,
                       max_iter=50)
    summary = {(r["sweep_value"], r["policy"]): r for r in aggregate(rows)}
    means = {}
    for n in (2, 4, 6, 8):
        bdt = summary[(n, "bdt")]["eta_n_normalized_mean"]
        wf = summary[(n, "wf")]["eta_n_normalized_mean"]
        greedy = summary[(n, "greedy")]["eta_n_normalized_mean"]
        assert bdt >= wf and bdt >= greedy
        means[n] = (round(bdt, 2), round(wf, 2), round(greedy, 2))
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    report(5, f"normalized rate means (bdt, wf, greedy) by n: {means} "
              f"in {elapsed:.1f}s")


def test_criterion_6_waterfilling_grid_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(1000):
        p_max = rng.uniform(0.05, 2.0)
        e1, e2 = rng.uniform(1e-4, 1.0, size=2)
        w1, w2 = rng.choice([1e6, 5e6, 10e6], size=2)
        p1, p2 = waterfill(p_max, e1, e2, w1, w2)
        mine = w1 * math.log2(1 + p1 / e1) + w2 * math.log2(1 + p2 / e2)
        grid = np.linspace(0.0, p_max, 2001)
        best = float(np.max(w1 * np.log2(1 + grid / e1)
                            + w2 * np.log2(1 + (p_max - grid) / e2)))
        rel_gap = (best - mine) / max(abs(best), 1e-12)
        worst = max(worst, rel_gap)
        assert rel_gap < 1e-6
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    report(6, f"1000 instances within 1e-6 of 2001-point grid "
              f"(worst gap {worst:.2e}) in {elapsed:.1f}s")


def test_criterion_7_max_flow_oracle_equivalence():
    import networkx as nx
    from test_backhaul import flow_scenario, networkx_max_flow

    t0 = time.monotonic()
    rng = np.random.default_rng(707)
    for _ in range(500):
        n_r, n_p = int(rng.integers(0, 4)), int(rng.integers(0, 4))
        macro_id = n_r + n_p + 1
        n_ues = int(rng.integers(1, 11))
        links = [(int(rng.integers(1, macro_id + 1)), macro_id)
                 for _ in range(n_ues)]
        s = flow_scenario(n_r, n_p, links,
                          eta_r=float(rng.uniform(1e6, 60e6)),
                          eta_p=float(rng.uniform(1e6, 120e6)),
                          eta_b=float(rng.uniform(10e6, 300e6)))
        rate1 = rng.uniform(0, 70e6, size=n_ues)
        rate2 = rng.uniform(0, 70e6, size=n_ues)
        ours = rate_differentials(build_matrices(s), rate1, rate2).eta_n
        oracle = networkx_max_flow(s, rate1, rate2)
        assert ours == pytest.approx(oracle, rel=1e-9)
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    report(7, f"500 random topologies match the generic max-flow solver "
              f"in {elapsed:.1f}s")


def test_criterion_8_mixed_population_equilibrium():
    t0 = time.monotonic()
    used = 0
    seed = 0
    worst_sinr = 0.0
    worst_p1 = 0.0
    while used < 100:
        s = generate_mixed(
            GenParams(n_ues=2, n_relays=2, n_picos=2, seed=seed), n_fixed=2)
        seed += 1
        m = build_matrices(s)
        equilibrium = interior_equilibrium(m)
        if equilibrium is None:
            continue
        p1_star, _ = equilibrium
        used += 1
        trace = run(m, "mixed-fm", max_iter=500, eps=1e-12)
        final = trace.state
        # SINR oracle straight from the scenario, not from the matrices
        fixed = np.array([not u.dual for u in s.ues])
        beta = np.array([u.fixed_sinr_target or 0.0 for u in s.ues])
        sinr_err = float(np.max(np.abs(final.sinr1[fixed] - beta[fixed])
                                / beta[fixed]))
        p1_err = float(np.max(np.abs(final.p1[~fixed] - p1_star[~fixed])))
        worst_sinr = max(worst_sinr, sinr_err)
        worst_p1 = max(worst_p1, p1_err)
        assert sinr_err < 1e-4
        assert p1_err < 1e-6
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    report(8, f"100 mixed scenarios: worst SINR error {worst_sinr:.2e}, "
              f"worst dual power error {worst_p1:.2e} in {elapsed:.1f}s")


def test_criterion_9_rescaling_sinr_bound():
    t0 = time.monotonic()
    used = 0
    seed = 0
    while used < 50:
        m = build_matrices(generate(GenParams(n_ues=2, n_relays=1, n_picos=1, seed=seed,
                                              backhaul_scale=10.0)))
        seed += 1
        if m.f11[0, 1] == 0 and m.f11[1, 0] == 0:
            continue
        equilibrium = interior_equilibrium(m)
        if equilibrium is None:
            continue
        used += 1
        _, iterates = run_collecting(m, RescaleOnceThenHold(m.z), max_iter=4, eps=1e-15,
                                     window=10, p0=equilibrium)
        assert rescaling_sinr_bound_check(iterates, m, ue_id=1, link=1, k=0) is True
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    report(9, f"SINR bound held on all 50 fading draws in {elapsed:.1f}s")
