import csv
import hashlib
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duplink import (
    BackhaulState,
    GenParams,
    build_matrices,
    build_system,
    closed_form_equilibrium,
    generate,
    generate_mixed,
    initial_state,
    run,
    save_scenario,
    spectral_radius,
    stack_matrices,
    step,
    worked_example,
)
from duplink.backhaul import rate_differentials
from duplink.cli import PRESETS, main
import duplink.engine
from duplink.engine import SweepPoint, _trial_seed, aggregate, monte_carlo
from duplink.scenarios import LIMITED_BACKHAUL

from conftest import random_system, run_collecting, with_gains, write_trace_csv


def report_of(m, state):
    return rate_differentials(m, state.rate1, state.rate2)


class TestStep:
    def test_matches_linear_system_in_waterfilling_regime(self):
        # one synchronous waterfilling step == c + a @ p1 while interior
        m = build_matrices(worked_example())
        a, c = build_system(m)
        state = initial_state(m)
        nxt = step(m, state, "wf", report_of(m, state))
        np.testing.assert_allclose(nxt.p1, c + a @ state.p1, rtol=1e-12)
        np.testing.assert_allclose(nxt.p2, 1.0 - nxt.p1, rtol=1e-12)

    def test_bdt_holds_in_tolerable_band(self):
        # drive the limited case to its resting point, then one more step
        # must leave the powers untouched (all UEs hold)
        m = build_matrices(worked_example(LIMITED_BACKHAUL))
        trace = run(m, "bdt", max_iter=100)
        assert trace.verdict.converged
        final = trace.state
        again = step(m, final, "bdt", trace.report)
        np.testing.assert_array_equal(again.p1, final.p1)
        np.testing.assert_array_equal(again.p2, final.p2)

    def test_single_ue_jumps_to_waterfill_in_one_step(self):
        m = build_matrices(generate(GenParams(n_ues=1, n_relays=1, n_picos=0, seed=2,
                                              backhaul_scale=100.0)))
        from duplink.policies import waterfill
        state = initial_state(m)
        nxt = step(m, state, "bdt", report_of(m, state))
        expected = waterfill(1.0, float(m.d1[0]), float(m.d2[0]),
                             float(m.w1[0]), float(m.w2[0]))
        assert (nxt.p1[0], nxt.p2[0]) == pytest.approx(expected)

    def test_infeasible_policy_rejected(self):
        def bad(m, now, report):
            return m.p_max, m.p_max

        def nan(m, now, report):  # NaN fails every comparison
            return now.p1 * np.nan, now.p2

        m = build_matrices(worked_example())
        for policy, powers in ((bad, "1.0, 1.0"), (nan, "nan, ")):
            with pytest.raises(RuntimeError, match=rf"infeasible powers for UE 1: \({powers}"):
                state = initial_state(m)
                step(m, state, policy, report_of(m, state))

    def test_deterministic(self):
        m = build_matrices(generate(GenParams(n_ues=6, seed=13)))
        state = initial_state(m)
        a = step(m, state, "greedy", report_of(m, state))
        b = step(m, state, "greedy", report_of(m, state))
        np.testing.assert_array_equal(a.p1, b.p1)
        np.testing.assert_array_equal(a.p2, b.p2)


class TestRun:
    def test_worked_example_converges_to_fixed_point(self):
        m = build_matrices(worked_example())
        a, c = build_system(m)
        p1_star, _ = closed_form_equilibrium(m, a, c, spectral_radius(a))
        for policy in ("bdt", "wf"):
            trace = run(m, policy, max_iter=100)
            assert trace.verdict.converged
            assert np.max(np.abs(trace.state.p1 - p1_star)) < 1e-6

    def test_greedy_oscillates_on_limited_backhaul(self):
        trace = run(build_matrices(worked_example(LIMITED_BACKHAUL)), "greedy", max_iter=100)
        assert trace.verdict.kind in ("oscillating", "max_iterations")

    def test_zero_ue_scenario_converges_immediately(self):
        s = worked_example()
        empty = with_gains(replace(s, ues=[]), {})
        trace = run(build_matrices(empty), "bdt")
        assert trace.verdict.converged and trace.verdict.iteration == 0
        assert trace.metrics["eta_n_final"] == 0.0

    def test_states_and_reports_equal_length(self):
        # The sink sees iterate 0 and every later one; the trace keeps the last.
        trace, iterates = run_collecting(build_matrices(worked_example()), "wf", max_iter=30)
        assert len(iterates) == trace.metrics["iterations_run"] + 1
        assert iterates[-1][0] is trace.state and iterates[-1][1] is trace.report

    def test_feasibility_preserved_every_iteration(self):
        for policy in ("bdt", "wf", "greedy"):
            for seed in (1, 2):
                m = build_matrices(generate(GenParams(n_ues=8, seed=seed, backhaul_scale=0.3)))
                _, iterates = run_collecting(m, policy, max_iter=40)
                for st, _ in iterates:
                    assert np.all(st.p1 >= 0) and np.all(st.p2 >= 0)
                    assert np.all(st.p1 + st.p2 <= 1.0 + 1e-9)

    def test_bdt_sheds_power_while_overloaded(self):
        # all-overloaded start: total power strictly decreases until states change
        _, iterates = run_collecting(build_matrices(worked_example(LIMITED_BACKHAUL)), "bdt",
                                     max_iter=100)
        totals = [float(np.sum(st.p1 + st.p2)) for st, _ in iterates]
        overloaded = [
            all(BackhaulState(code).name in ("S7", "S8", "S9") for code in rep.state)
            for _, rep in iterates
        ]
        saw_overload = False
        for k, flag in enumerate(overloaded[:-1]):
            if flag:
                saw_overload = True
                assert totals[k + 1] < totals[k]
        assert saw_overload

    def test_oscillation_period_is_the_latest_revisit(self):
        # Iterate 5 is within eps of iterates 1 and 3, which are eps apart
        # from each other: the period counts back to the latest, iterate 3.
        p1_by_step = [0.3, 0.4, 0.3 + 1.5e-6, 0.45, 0.3 + 0.75e-6, 0.2]
        steps = iter(p1_by_step)

        def scripted(m, now, report):
            p1 = np.full(m.n, next(steps))
            return p1, m.p_max - p1

        trace, iterates = run_collecting(build_matrices(worked_example()), scripted, max_iter=6)
        assert trace.verdict.kind == "oscillating" and trace.verdict.period == 2
        assert len(iterates) == 6

    def test_huge_max_iter_allocates_only_what_runs(self):
        # wf converges in a few iterations; the detector's history grows
        # with them instead of being sized for max_iter up front.
        m = build_matrices(worked_example())
        small, huge = run(m, "wf", max_iter=100), run(m, "wf", max_iter=10**11)
        assert huge.verdict == small.verdict and huge.verdict.converged
        assert huge.metrics == small.metrics

    def test_history_growth_keeps_verdicts(self):
        # A run of 357 iterations outgrows the detector's first buffer
        # several times. It ends the same whether max_iter caps the growth
        # or not, and alone or in a stack whose other row left early.
        m = build_matrices(generate(GenParams(n_ues=8, seed=0, backhaul_scale=0.1,
                                              z_factor=0.95)))
        long = run(m, "bdt", max_iter=400)
        assert long.verdict.converged and long.metrics["iterations_run"] == 357
        for trace in (run(m, "bdt", max_iter=5000),
                      run(stack_matrices([m, m]), ["wf", "bdt"], max_iter=400)[1]):
            assert trace.verdict == long.verdict
            assert trace.metrics == long.metrics
            np.testing.assert_array_equal(trace.state.p1, long.state.p1)

    def test_max_iter_respected(self):
        _, iterates = run_collecting(build_matrices(worked_example(LIMITED_BACKHAUL)), "greedy",
                                     max_iter=7)
        assert len(iterates) <= 8

    def test_invalid_max_iter(self):
        with pytest.raises(ValueError):
            run(build_matrices(worked_example()), "wf", max_iter=0)

    @pytest.mark.parametrize("window", [0, -3])
    def test_invalid_window(self, window):
        with pytest.raises(ValueError, match="window must be >= 1"):
            run(build_matrices(worked_example()), "wf", window=window)

    @pytest.mark.parametrize("eps", [0.0, -1.0, float("nan"), float("inf")])
    def test_invalid_eps(self, eps):
        with pytest.raises(ValueError, match="eps must be finite and > 0"):
            run(build_matrices(worked_example()), "wf", eps=eps)

    @pytest.mark.parametrize("eps", [True, "1e-6", None, [1e-6]])
    def test_eps_must_be_a_number(self, eps):
        # At the parent eps=True ran with eps 1.0, and "1e-6" failed with
        # "'<' not supported between instances of 'int' and 'str'".
        with pytest.raises(TypeError, match="^eps must be a number, got "):
            run(build_matrices(worked_example()), "wf", eps=eps)

    def test_numpy_eps(self):
        m = build_matrices(worked_example())
        got = run(m, "wf", eps=np.float32(1e-6))
        assert got.verdict == run(m, "wf", eps=float(np.float32(1e-6))).verdict
        assert run(m, "wf", eps=np.int64(1)).verdict == run(m, "wf", eps=1).verdict

    def test_unknown_policy_name(self):
        with pytest.raises(ValueError, match="unknown policy"):
            run(build_matrices(worked_example()), "anneal")

    @pytest.mark.parametrize("name,value", [
        ("window", 2.5), ("max_iter", 2.5), ("window", 5.0), ("max_iter", True),
        ("window", "5"), ("max_iter", np.float64(20.0))])
    def test_counts_must_be_integers(self, name, value):
        # A fractional window would count iterations in halves.
        with pytest.raises(TypeError, match=f"^{name} must be an integer, got "):
            run(build_matrices(worked_example()), "wf", **{name: value})

    def test_numpy_integer_counts(self):
        m = build_matrices(worked_example())
        got = run(m, "wf", max_iter=np.int64(40), window=np.int32(5))
        want = run(m, "wf", max_iter=40, window=5)
        assert got.verdict == want.verdict and got.metrics == want.metrics
        # The counts become Python ints, so the verdict encodes as JSON.
        assert type(got.verdict.iteration) is int
        assert type(got.metrics["iterations_run"]) is int


def mixed_network():
    """A network with both dual-connectivity and fixed-SINR UEs."""
    m = build_matrices(generate_mixed(GenParams(n_ues=4, seed=5), 2))
    assert m.dual.any() and not m.dual.all()
    return m


class TestConstantChecks:
    """A policy argument that is wrong for the whole run raises ValueError
    from ``run`` and from ``step``, with the policy function's message."""

    @staticmethod
    def raises_everywhere(m, policy, message):
        with pytest.raises(ValueError, match=message):
            run(m, policy, max_iter=5)
        with pytest.raises(ValueError, match=message):
            run(stack_matrices([m, m]), [policy, policy], max_iter=5)
        state = initial_state(m)
        with pytest.raises(ValueError, match=message):
            step(m, state, policy, report_of(m, state))

    def test_z_outside_unit_interval_under_bdt(self):
        m = replace(build_matrices(worked_example()), z=1.5)
        self.raises_everywhere(m, "bdt", r"z must be in \(0, 1\)")

    @pytest.mark.parametrize("beta", [0.0, -2.0])
    @pytest.mark.parametrize("policy", ["bdt", "wf", "greedy", "mixed-fm"])
    def test_nonpositive_beta_on_a_single_link_ue(self, policy, beta):
        m = mixed_network()
        self.raises_everywhere(replace(m, beta=np.where(m.dual, 0.0, beta)), policy,
                               "beta must be > 0")

    @pytest.mark.parametrize("policy", ["wf", "mixed-fm"])
    def test_zero_second_bandwidth_on_a_dual_ue(self, policy):
        m = build_matrices(worked_example())
        w = m.w.copy()
        w[0, 1] = 0.0
        self.raises_everywhere(replace(m, w=w), policy, "bandwidths must be > 0")


class TestMetrics:
    def test_single_ue_normalization(self):
        s = generate(GenParams(n_ues=1, n_relays=1, n_picos=0, seed=2,
                               backhaul_scale=100.0))
        trace = run(build_matrices(s), "wf", max_iter=50)
        in_use = {u.chan_1 for u in s.ues} | {u.chan_2 for u in s.ues}
        total_bw = sum(c.bandwidth for c in s.channels if c.id in in_use)
        assert trace.metrics["eta_n_normalized"] == pytest.approx(
            trace.metrics["eta_n_final"] / total_bw)

    def test_full_power_average(self):
        trace = run(build_matrices(worked_example()), "wf", max_iter=50)
        assert trace.metrics["avg_total_power"] == pytest.approx(1.0)

    def test_bdt_saves_power_on_limited_case(self):
        m = build_matrices(worked_example(LIMITED_BACKHAUL))
        bdt = run(m, "bdt", max_iter=100)
        wf = run(m, "wf", max_iter=100)
        assert bdt.metrics["avg_total_power"] < wf.metrics["avg_total_power"]


class TestTraceSerialization:
    def test_csv_schema_and_reparse(self, tmp_path):
        m = build_matrices(worked_example(LIMITED_BACKHAUL))
        _, iterates = run_collecting(m, "bdt", max_iter=20)
        path = tmp_path / "trace.csv"
        write_trace_csv(m, iterates, path)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(iterates)
        assert set(rows[0]) == {"k", "p1_1", "p2_1", "rate1_1", "rate2_1",
                                "state_1", "p1_2", "p2_2", "rate1_2",
                                "rate2_2", "state_2", "eta_n"}
        # values survive the round trip exactly (repr-encoded floats)
        assert float(rows[3]["p1_1"]) == iterates[3][0].p1[0]
        assert rows[0]["state_1"] in {f"S{i}" for i in range(1, 10)}


class TestMonteCarlo:
    def test_single_trial_equals_single_run(self):
        params = GenParams(n_ues=5, seed=0)
        points = [SweepPoint("n_ues", 5, params)]
        rows = monte_carlo(points, ["wf"], trials=1, seeds=123, max_iter=30)
        assert len(rows) == 1
        seed = _trial_seed(123, 0, 0, 0)
        trace = run(build_matrices(generate(replace(params, seed=seed))), "wf", max_iter=30)
        assert rows[0]["eta_n_normalized"] == trace.metrics["eta_n_normalized"]
        assert rows[0]["avg_total_power"] == trace.metrics["avg_total_power"]
        assert rows[0]["converged"] == trace.verdict.converged

    def test_deterministic_given_seed(self):
        points = [SweepPoint("backhaul_scale", 0.5,
                             GenParams(n_ues=4, backhaul_scale=0.5))]
        a = monte_carlo(points, ["bdt", "wf"], trials=3, seeds=7, max_iter=20)
        b = monte_carlo(points, ["bdt", "wf"], trials=3, seeds=7, max_iter=20)
        assert a == b

    def test_explicit_seed_list(self):
        points = [SweepPoint("n_ues", 4, GenParams(n_ues=4))]
        a = monte_carlo(points, ["wf"], trials=2, seeds=[11, 22], max_iter=15)
        b = monte_carlo(points, ["wf"], trials=2, seeds=[11, 22], max_iter=15)
        assert a == b
        with pytest.raises(ValueError):
            monte_carlo(points, ["wf"], trials=3, seeds=[11, 22])

    @pytest.mark.parametrize("kwargs,message", [
        (dict(trials=2.0), "trials must be an integer, got 2.0"),
        (dict(trials=True), "trials must be an integer, got True"),
        (dict(seeds=7.0), "seeds must be an integer, got 7.0"),
        (dict(seeds=[1.5, 2.5]), r"seeds\[0\] must be an integer, got 1.5"),
        (dict(seeds=[1, True]), r"seeds\[1\] must be an integer, got True"),
        (dict(seeds=np.array([1.0, 2.0])), r"seeds\[0\] must be an integer, got "),
        (dict(seeds="12"), r"seeds\[0\] must be an integer, got '1'"),
    ])
    def test_counts_and_seeds_must_be_integers(self, kwargs, message):
        points = [SweepPoint("n_ues", 4, GenParams(n_ues=4))]
        with pytest.raises(TypeError, match=message):
            monte_carlo(points, ["wf"], **{"trials": 2, "seeds": 7, **kwargs}, max_iter=5)

    def test_numpy_integer_seeds(self):
        points = [SweepPoint("n_ues", 4, GenParams(n_ues=4))]
        want = monte_carlo(points, ["wf"], trials=2, seeds=7, max_iter=15)
        assert monte_carlo(points, ["wf"], trials=np.int64(2), seeds=np.int64(7),
                           max_iter=15) == want
        listed = monte_carlo(points, ["wf"], trials=2, seeds=[11, 22], max_iter=15)
        assert monte_carlo(points, ["wf"], trials=2, seeds=np.array([11, 22]),
                           max_iter=15) == listed

    def test_policies_share_scenarios(self):
        points = [SweepPoint("n_ues", 4, GenParams(n_ues=4))]
        rows = monte_carlo(points, ["wf", "bdt"], trials=2, seeds=5, max_iter=15)
        assert len(rows) == 4
        by_trial = {}
        for r in rows:
            by_trial.setdefault(r["trial"], []).append(r["policy"])
        assert all(sorted(v) == ["bdt", "wf"] for v in by_trial.values())

    def test_contractive_filter(self):
        points = [SweepPoint("n_ues", 8, GenParams(n_ues=8))]
        rows = monte_carlo(points, ["wf"], trials=5, seeds=3, max_iter=10,
                           require_contractive=True)
        assert len(rows) == 5

    def test_aggregate(self):
        rows = [
            {"sweep_var": "x", "sweep_value": 1, "policy": "wf", "trial": 0,
             "eta_n_normalized": 2.0, "avg_total_power": 1.0, "converged": True},
            {"sweep_var": "x", "sweep_value": 1, "policy": "wf", "trial": 1,
             "eta_n_normalized": 4.0, "avg_total_power": 0.5, "converged": False},
        ]
        summary = aggregate(rows)
        assert len(summary) == 1
        agg = summary[0]
        assert agg["eta_n_normalized_mean"] == pytest.approx(3.0)
        assert agg["avg_total_power_mean"] == pytest.approx(0.75)
        assert agg["converged_pct"] == pytest.approx(50.0)
        assert agg["n_trials"] == 2
        assert agg["eta_n_normalized_se"] == pytest.approx(1.0)

    def test_trials_must_be_positive(self):
        with pytest.raises(ValueError):
            monte_carlo([SweepPoint("x", 1, GenParams(n_ues=2))], ["wf"],
                        trials=0, seeds=0)

    def test_needs_a_policy(self):
        with pytest.raises(ValueError, match="need at least one policy"):
            monte_carlo([SweepPoint("x", 1, GenParams(n_ues=2))], [], trials=1, seeds=0)

    def test_gives_up_without_a_contractive_draw(self, monkeypatch):
        # A spectral radius of exactly 1 is not contractive: every draw is
        # rejected, and the trial gives up after a fixed number of draws.
        import duplink.equilibrium

        radii = []  # one radius per draw, from one call per draw batch
        monkeypatch.setattr(duplink.equilibrium, "spectral_radius",
                            lambda a: radii.extend([1.0] * len(a)) or np.ones(len(a)))
        with pytest.raises(RuntimeError, match="no contractive scenario found for point 2, "
                                               "trial 0 after 200 attempts"):
            monte_carlo([SweepPoint("x", 2, GenParams(n_ues=2))], ["wf"], trials=1, seeds=0,
                        require_contractive=True)
        assert len(radii) == 200


def contractive_draws(point, trials, seeds):
    """The per-trial loop ``monte_carlo`` once ran under ``require_contractive``:
    each trial draws attempt after attempt until its waterfilling iteration
    contracts. Returns the accepted attempt of each trial, or raises at the
    first trial that runs out of attempts."""
    accepted = []
    for trial in range(trials):
        for attempt in range(duplink.engine._MAX_ATTEMPTS):
            m = build_matrices(generate(replace(point.params,
                                                seed=_trial_seed(seeds, 0, trial, attempt))))
            if spectral_radius(build_system(m)[0]) < 1.0:
                break
        else:
            raise RuntimeError(f"no contractive scenario found for point "
                               f"{point.sweep_value!r}, trial {trial} after "
                               f"{duplink.engine._MAX_ATTEMPTS} attempts")
        accepted.append(attempt)
    return accepted


class TestContractiveRedraws:
    """The rejected trials of a point are drawn again together, each with its
    next attempt's seed, and end as the per-trial loop's trials did."""

    # A 2 km drop radius rejects about a quarter of the draws: at base seed
    # 3 the six trials take attempts 2, 4, 1, 0, 2 and 0.
    point = SweepPoint("radius_m", 2000.0, GenParams(n_ues=21, radius_m=2000.0))

    def test_redraws_match_the_per_trial_loop(self, monkeypatch):
        accepted = contractive_draws(self.point, 6, 3)
        assert accepted == [2, 4, 1, 0, 2, 0]
        batches, draw = [], duplink.engine._draw
        monkeypatch.setattr(duplink.engine, "_draw",
                            lambda p, seeds: batches.append(list(seeds)) or draw(p, seeds))
        rows = monte_carlo([self.point], ("bdt", "wf"), trials=6, seeds=3, max_iter=30,
                           require_contractive=True)
        # Attempt k re-draws exactly the trials the loop had not accepted by then.
        assert batches == [[_trial_seed(3, 0, t, k) for t in range(6) if accepted[t] >= k]
                           for k in range(max(accepted) + 1)]
        # Trial order, each trial on the network of its accepted seed.
        expected = []
        for trial, attempt in enumerate(accepted):
            m = build_matrices(generate(replace(self.point.params,
                                                seed=_trial_seed(3, 0, trial, attempt))))
            for policy in ("bdt", "wf"):
                trace = run(m, policy, max_iter=30)
                expected.append((policy, trial, trace.metrics["eta_n_normalized"],
                                 trace.metrics["avg_total_power"], trace.verdict.converged))
        assert [(r["policy"], r["trial"], r["eta_n_normalized"], r["avg_total_power"],
                 r["converged"]) for r in rows] == expected

    def test_names_the_lowest_trial_out_of_attempts(self, monkeypatch):
        # With one attempt each, trials 1 and 3 of base seed 2 find no
        # contractive draw; the loop stopped at trial 1.
        monkeypatch.setattr(duplink.engine, "_MAX_ATTEMPTS", 1)
        with pytest.raises(RuntimeError) as want:
            contractive_draws(self.point, 6, 2)
        assert "trial 1 after 1 attempts" in str(want.value)
        with pytest.raises(RuntimeError) as got:
            monte_carlo([self.point], ("wf",), trials=6, seeds=2, require_contractive=True)
        assert str(got.value) == str(want.value)


def separate_runs(point, policies, trials, seeds, **kwargs):
    """The rows of ``monte_carlo`` with every trial and policy run alone,
    plus each run's verdict kind."""
    rows, kinds = [], set()
    for trial in range(trials):
        seed = _trial_seed(seeds, 0, trial, 0)
        m = build_matrices(generate(replace(point.params, seed=seed)))
        for policy in policies:
            trace = run(m, policy, **kwargs)
            kinds.add(trace.verdict.kind)
            rows.append({
                "sweep_var": point.sweep_var, "sweep_value": point.sweep_value,
                "policy": policy, "trial": trial,
                "eta_n_normalized": trace.metrics["eta_n_normalized"],
                "avg_total_power": trace.metrics["avg_total_power"],
                "converged": trace.verdict.converged,
            })
    return rows, kinds


class TestLockstep:
    """A stack of networks runs in lockstep with the results of separate runs."""

    def test_monte_carlo_rows_equal_separate_runs(self):
        # fig4 at backhaul scale 0.1: bdt runs to max_iter, greedy
        # oscillates and wf converges, so runs leave the batch at different
        # iterations and for each reason.
        point = PRESETS["fig4"]()[0][0]
        policies = ("bdt", "wf", "greedy")
        rows = monte_carlo([point], policies, trials=6, seeds=1, max_iter=50)
        expected, kinds = separate_runs(point, policies, 6, 1, max_iter=50)
        assert kinds == {"converged", "oscillating", "max_iterations"}
        assert rows == expected  # floats compared exactly

    def test_stacked_run_equals_separate_runs(self):
        # Mixed populations with one policy per row and a start p0, in one
        # stack per (tau, z), which a stack shares.
        base = [build_matrices(generate_mixed(GenParams(n_ues=5, seed=seed,
                                                        backhaul_scale=0.2), 2))
                for seed in (1, 2, 3, 4)]
        policies = ["greedy", "bdt", "wf", "bdt"]
        for tau, z in ((5e6, 0.9), (2e6, 0.5), (1e7, 0.7)):
            ms = [replace(m, tau=tau, z=z) for m in base]
            stack = stack_matrices(ms)
            p0 = (stack.p_max * 0.3, np.where(stack.dual, stack.p_max * 0.6, 0.0))
            traces = run(stack, policies, max_iter=40, p0=p0)
            assert len(traces) == 4
            for i, (m, policy, trace) in enumerate(zip(ms, policies, traces)):
                alone = run(m, policy, max_iter=40, p0=(p0[0][i], p0[1][i]))
                assert trace.verdict == alone.verdict
                assert trace.metrics == alone.metrics
                # Every field of the last state and report, bit for bit.
                for got, want in ((trace.state, alone.state), (trace.report, alone.report)):
                    for f in fields(want):
                        a, b = getattr(got, f.name), getattr(want, f.name)
                        assert type(a) is type(b), f.name
                        a, b = np.asarray(a), np.asarray(b)
                        assert (a.shape, a.dtype) == (b.shape, b.dtype), f.name
                        assert a.tobytes() == b.tobytes(), f.name

    def test_stack_rejects_other_layouts(self):
        base = build_matrices(generate(GenParams(n_ues=6, seed=1)))
        for other in (GenParams(n_ues=7, seed=1),                  # n
                      GenParams(n_ues=6, n_relays=2, seed=1),      # relays, picos, macro
                      GenParams(n_ues=6, backhaul_scale=0.5, seed=1),  # capacity
                      GenParams(n_ues=6, tau=2e6, seed=1),         # tau
                      GenParams(n_ues=6, z_factor=0.5, seed=1)):   # z
            o = build_matrices(generate(other))
            for ms in ([base, o], [base, base, o, o]):  # repeats are compared once
                with pytest.raises(ValueError, match="must share"):
                    stack_matrices(ms)
        with pytest.raises(ValueError, match="no networks"):
            stack_matrices([])

    def test_stack_takes_policy_names(self):
        stack = stack_matrices([build_matrices(worked_example())] * 2)
        with pytest.raises(ValueError, match="policy names"):
            run(stack, lambda m, now, report: (now.p1, now.p2))
        with pytest.raises(ValueError, match="unknown policy 'anneal'"):
            run(stack, ["wf", "anneal"])

    def test_stack_needs_one_policy_name_per_network(self):
        stack = stack_matrices([build_matrices(worked_example())] * 3)
        for names in (["wf", "bdt"], ["wf"] * 4):
            with pytest.raises(ValueError, match=f"^{len(names)} policy names for a stack "
                                                 "of 3 networks$"):
                run(stack, names)

    def test_names_are_one_name_or_one_per_network(self):
        # run and step take the same shapes: one name, or on a stack one name
        # per network.
        m = build_matrices(worked_example())
        stack = stack_matrices([m] * 3)
        for net, names, message in (
                (m, ["bdt"], "^1 policy names for one network$"),
                (m, ["wf", "greedy"], "^2 policy names for one network$"),
                (stack, ["wf"], "^1 policy names for a stack of 3 networks$"),
                (stack, [["wf"]] * 3,
                 r"^an array of shape \(3, 1\) of policy names for a stack of 3 networks$")):
            now = initial_state(net)
            report = rate_differentials(net, now.rate1, now.rate2)
            with pytest.raises(ValueError, match=message):
                run(net, names)
            with pytest.raises(ValueError, match=message):
                step(net, now, names, report)
        now = initial_state(stack)
        report = rate_differentials(stack, now.rate1, now.rate2)
        assert np.array_equal(step(stack, now, ["wf"] * 3, report).p, step(stack, now, "wf", report).p)

    def test_stack_takes_no_sink(self):
        stack = stack_matrices([build_matrices(worked_example())] * 2)
        with pytest.raises(ValueError, match="no sink"):
            run(stack, "wf", sink=lambda state, report: None)

    @settings(max_examples=8, deadline=None, derandomize=True, database=None)
    @given(n_ues=st.integers(1, 8), n_relays=st.integers(0, 3), n_picos=st.integers(1, 3),
           scale=st.floats(0.05, 2.0), z=st.floats(0.5, 0.95), seed=st.integers(0, 2**31))
    def test_batch_rows_equal_separate_runs(self, n_ues, n_relays, n_picos, scale, z, seed):
        params = GenParams(n_ues=n_ues, n_relays=n_relays, n_picos=n_picos,
                           backhaul_scale=scale, z_factor=z)
        point = SweepPoint("x", 0, params)
        policies = ("greedy", "bdt", "wf")
        rows = monte_carlo([point], policies, trials=3, seeds=seed, max_iter=30)
        assert rows == separate_runs(point, policies, 3, seed, max_iter=30)[0]


class TestStart:
    """A start p0 is checked before the first state is computed, on one
    network and on a stack, and the error names the first UE at fault."""

    @staticmethod
    def starts(m):
        """(p1, p2, message) of each bad start on ``m``: its UE 1 is at fault."""
        p_max = m.p_max
        first = np.zeros(p_max.shape, dtype=bool)
        first[..., 0] = True
        half = np.where(m.dual, p_max / 2, 0.0)
        return [
            (3 * p_max, 3 * p_max, r"p1 \+ p2 exceeds p_max, got \(3\.0, 3\.0\)"),
            (np.where(first, -0.1, half), half, r"powers must be finite and >= 0, got \(-0\.1,"),
            (np.where(first, np.nan, half), half, r"powers must be finite and >= 0, got \(nan,"),
            (half, np.where(first, np.inf, half), r"powers must be finite and >= 0, got .*, inf\)"),
        ]

    def test_one_network(self):
        m = build_matrices(worked_example())
        for p1, p2, message in self.starts(m):
            iterates = []
            with pytest.raises(ValueError, match=r"^p0 of UE 1: " + message):
                run(m, "bdt", p0=(p1, p2), sink=lambda *it: iterates.append(it))
            assert not iterates
            with pytest.raises(ValueError, match=r"^p0 of UE 1: " + message):
                initial_state(m, (p1, p2))

    def test_stack_names_the_row_at_fault(self):
        # Row 1 of the stack holds UE ids 101 and 102; row 0 starts well.
        m = build_matrices(worked_example())
        stack = stack_matrices([m, replace(m, ue_id=m.ue_id + 100)])
        good = (np.full(2, 0.5), np.full(2, 0.5))
        for p1, p2, message in self.starts(m):
            with pytest.raises(ValueError, match=r"^p0 of UE 101: " + message):
                run(stack, ["bdt", "wf"], p0=(np.stack([good[0], p1]), np.stack([good[1], p2])))

    def test_second_link_of_a_single_link_ue(self):
        m = mixed_network()
        single = int(np.argmax(~m.dual))
        p2 = np.where(m.dual, m.p_max / 2, 0.0)
        p2[single] = 0.25
        message = rf"^p0 of UE {m.ue_id[single]}: a single-link UE's p2 must be 0"
        with pytest.raises(ValueError, match=message):
            run(m, "mixed-fm", p0=(m.p_max / 2, p2))
        with pytest.raises(ValueError, match=message):
            run(stack_matrices([m, m]), "bdt", p0=(np.stack([m.p_max / 2] * 2),
                                                  np.stack([np.where(m.dual, 0.5, 0.0), p2])))

    def test_shape(self):
        m = build_matrices(worked_example())
        for p0 in ((np.ones(3), np.zeros(3)), (np.ones(2), np.zeros((1, 2)))):
            with pytest.raises(ValueError, match=r"p0 must be two power vectors of shape \(2,\)"):
                run(m, "wf", p0=p0)
        stack = stack_matrices([m, m])
        with pytest.raises(ValueError, match=r"shape \(2, 2\)"):
            run(stack, "wf", p0=(np.full(2, 0.5), np.full(2, 0.5)))

    def test_start_within_the_feasibility_slack_runs(self):
        # p1 + p2 may pass p_max by the policies' feasibility slack.
        m = build_matrices(worked_example())
        p1 = np.full(2, 0.25)
        trace = run(m, "wf", p0=(p1, m.p_max * (1 + 1e-10) - p1))
        assert trace.verdict.converged


class TestStackErrors:
    """A network in a stack fails as it fails alone: with the same
    exception, naming its own UE, at the same point of the run."""

    @staticmethod
    def nan_in_first_row_on_call(monkeypatch, call):
        """Make the waterfilling kernel return NaN for the first row of its
        batch from its ``call``-th call on."""
        waterfill, calls = duplink.engine._waterfill, []

        def patched(p_max, *args):
            p1, p2 = waterfill(p_max, *args)
            calls.append(None)
            if len(calls) >= call:
                p1 = p1.copy()
                p1[0] = np.nan
            return p1, p2

        monkeypatch.setattr(duplink.engine, "_waterfill", patched)

    def test_nan_decision_names_the_rows_ue(self, monkeypatch):
        # Alone, greedy oscillates at iteration 6, wf converges at 16 and
        # bdt at 43. At call 10 the batch's first row is stack row 1, the wf
        # row, whose UEs are 101 and 102.
        m = build_matrices(worked_example(LIMITED_BACKHAUL))
        stack = stack_matrices([m, replace(m, ue_id=m.ue_id + 100),
                                replace(m, ue_id=m.ue_id + 200)])
        self.nan_in_first_row_on_call(monkeypatch, 10)
        with pytest.raises(RuntimeError, match=r"^policy returned infeasible powers for UE 101: "
                                               r"\(nan, "):
            run(stack, ["greedy", "wf", "bdt"], max_iter=50, window=3)

    def test_nonpositive_tau(self):
        m = build_matrices(worked_example())
        for tau in (0.0, -1.0, float("nan")):
            bad = replace(m, tau=tau)
            iterates = []
            with pytest.raises(ValueError, match="^tau must be > 0$"):
                run(bad, "wf", sink=lambda *it: iterates.append(it))
            assert not iterates
            with pytest.raises(ValueError, match="^tau must be > 0$"):
                run(stack_matrices([bad, bad]), ["wf", "bdt"])

    def test_nonpositive_interference(self):
        # UE 1's link 1 sees e1 < 0. Active, the first state fails; idle, the
        # first state stands and the first decision fails.
        m = random_system(np.random.default_rng(3), 3, coupling=0.01)
        m = replace(m, d=np.column_stack(([-1.0, 0.01, 0.01], m.d2)))
        active = (np.full(3, 0.5), np.full(3, 0.5))
        idle = (np.array([0.0, 0.5, 0.5]), np.array([1.0, 0.5, 0.5]))
        stack = stack_matrices([replace(m, d=np.column_stack((np.full(3, 0.01), m.d2))), m])
        for p0, error, message, states in (
                (active, ValueError, "^nonpositive effective interference on an active link$", 0),
                (idle, ValueError, "^effective interference must be > 0$", 1)):
            iterates = []
            with pytest.raises(error, match=message):
                run(m, "wf", p0=p0, sink=lambda *it: iterates.append(it))
            assert len(iterates) == states
            with pytest.raises(error, match=message):
                run(stack, ["wf", "bdt"], p0=tuple(np.stack([x, x]) for x in p0))


class TestResolution:
    """``run`` resolves the network it is given when it starts, and calls
    the per-layer functions through ``duplink.engine``, where the benchmark's
    tracer hooks them."""

    def test_in_place_edit_is_seen(self):
        m = build_matrices(worked_example())
        initial_state(m)
        m.w1[0] *= 2  # as monte_carlo writes rows of a stack in place
        got, want = run(m, "wf", max_iter=400), run(replace(m), "wf", max_iter=400)
        assert got.verdict == want.verdict
        assert got.metrics == want.metrics
        assert got.state.p.tobytes() == want.state.p.tobytes()

    @pytest.mark.parametrize("stacked", [False, True], ids=["one", "stack"])
    def test_layer_calls_go_through_the_engine_namespace(self, monkeypatch, stacked):
        calls = dict.fromkeys(("compute_state", "rate_differentials", "step"), 0)
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(duplink.engine, name)):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(duplink.engine, name, counted)
        m = build_matrices(worked_example(LIMITED_BACKHAUL))
        if stacked:
            traces = run(stack_matrices([m] * 3), ["wf", "bdt", "greedy"], max_iter=100)
            assert [t.metrics["iterations_run"] for t in traces] == [18, 45, 6]
        else:
            assert run(m, "bdt", max_iter=100).metrics["iterations_run"] == 45
        assert calls == {"compute_state": 46, "rate_differentials": 46, "step": 45}

    def test_leaves_keep_the_blocks_found_at_the_start(self):
        # The batch looks for the coupling blocks that hold a nonzero once;
        # the rows that leave take their rows of the network with them, and
        # the rest keep the blocks found.
        scans = []

        class Counted(np.ndarray):
            def any(self, *args, **kwargs):
                scans.append(self.shape)
                return np.asarray(self).any(*args, **kwargs)

        m = build_matrices(worked_example(LIMITED_BACKHAUL))
        stack = stack_matrices([m] * 3)
        policies = ["wf", "bdt", "greedy"]
        traces = run(replace(stack, f=stack.f.view(Counted)), policies, max_iter=100)
        assert [t.metrics["iterations_run"] for t in traces] == [18, 45, 6]
        assert scans == [stack.f.shape]
        for got, want in zip(traces, run(stack, policies, max_iter=100)):
            assert got.state.p.tobytes() == want.state.p.tobytes()
            assert got.metrics == want.metrics
        # A generated stack couples link 1 alone, so its rows carry f11 alone.
        gen = stack_matrices([build_matrices(generate(GenParams(n_ues=5, seed=s))) for s in (1, 2)])
        assert duplink.engine._Batch(gen, "wf").m.f.shape == (2, 1, 1, 5, 5)


class TestEngineBytes:
    """The engine's output bits are pinned, so a change that moves the last
    bit of ``step``, ``compute_state`` or ``rate_differentials`` fails here.
    These are the ``seed_list/fig4/point0``, ``seed_list/fig4/point5`` and
    ``run/gen21/*/trace.csv``, ``run/mixed6+3/bdt/trace.csv`` and
    ``run/fixed0+5/bdt/trace.csv`` lines of ``tools/output_digests.py``."""

    @pytest.mark.parametrize("point,digest", [
        (0, "134920d8f25b033e39b2afb27a350beab24ff259c6730db8e95932c835effbb1"),
        (5, "d6abdf966f97d003d6c3183d19bdbddcf6bfadd41e7eee4e58114ae4367389f4"),
    ], ids=["scale0.1", "scale1.0"])
    def test_fig4_monte_carlo_rows_are_pinned(self, point, digest):
        points, kwargs = PRESETS["fig4"]()
        kwargs = dict(kwargs)
        policies = kwargs.pop("policies")
        seeds = [int(x) for x in np.random.SeedSequence([7, point]).generate_state(8)]
        rows = monte_carlo([points[point]], policies, trials=8, seeds=seeds, **kwargs)
        text = "\n".join(
            f"{r['sweep_value']},{r['policy']},{r['trial']},"
            f"{float(r['eta_n_normalized']).hex()},{float(r['avg_total_power']).hex()},"
            f"{bool(r['converged'])}" for r in rows)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("policy,digest", [
        ("bdt", "e974557e5a8d90b743ad5378566e88dd0a0a3bb06b60c5b0e39a17136a5be5fe"),
        ("wf", "0ae799d5bf5c961ab971e17a053957bb01d53a4e45dfc7d0ddd7fdbe3c7a562c"),
        ("greedy", "db2d4aad3e9b26eaae7f81d69b4e5a2ac4746a1dcd35d6411422f343e92c923e"),
    ], ids=["bdt", "wf", "greedy"])
    def test_gen21_trace_csv_is_pinned(self, tmp_path, policy, digest):
        path = tmp_path / "gen21.json"
        save_scenario(generate(GenParams(n_ues=21, seed=7)), path)
        out = tmp_path / "out"
        assert main(["run", "--scenario", str(path), "--policy", policy,
                     "--out", str(out)]) == 0
        assert hashlib.sha256((out / "trace.csv").read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("make,digest", [
        (lambda: generate_mixed(GenParams(n_ues=6, seed=7), 3),
         "a06298ec194816f799cef27a031e9055af447189c280ea37c800737dab1ca731"),
        (lambda: generate_mixed(GenParams(n_ues=0, n_relays=2, n_picos=2, seed=3), 5),
         "9f003d043b5c0fe73237a9650d0953fa25a9ccb13d1274636f9a0d946a9134cd"),
    ], ids=["mixed6+3", "fixed0+5"])
    def test_mixed_trace_csv_is_pinned(self, tmp_path, make, digest):
        # single-link UEs write an empty state cell
        path = tmp_path / "scenario.json"
        save_scenario(make(), path)
        out = tmp_path / "out"
        assert main(["run", "--scenario", str(path), "--policy", "bdt",
                     "--out", str(out)]) == 0
        assert hashlib.sha256((out / "trace.csv").read_bytes()).hexdigest() == digest
