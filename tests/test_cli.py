import csv
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from dataclasses import replace
from itertools import islice
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import duplink
from duplink import (POLICY_NAMES, GenParams, build_matrices, build_system, engine, generate,
                     generate_mixed, run, save_scenario, spectral_radius, worked_example)
from duplink import cli
from duplink.cli import SUMMARY_COLUMNS, TRIAL_COLUMNS, main
from duplink.network import Gains, load_scenario, scenario_from_dict, scenario_to_dict
from duplink.scenarios import LIMITED_BACKHAUL

from conftest import fixed_ue_on_macro_channel


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "example.json"
    save_scenario(worked_example(), path)
    return path


class TestRunCommand:
    def test_happy_path(self, scenario_file, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["run", "--scenario", str(scenario_file), "--policy", "bdt",
                     "--out", str(out)])
        assert code == 0
        assert (out / "trace.csv").is_file()
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["verdict"] == "converged"
        equilibrium = json.loads((out / "equilibrium.json").read_text())
        assert equilibrium["spectral_radius"] < 1.0
        assert equilibrium["interior"] is True
        assert equilibrium["max_abs_error_p1"] < 1e-6
        assert "converged" in capsys.readouterr().out

    def test_fixed_ue_on_macro_channel_equilibrium(self, tmp_path):
        # The fixed-SINR row must count the dual UE's macrocell-link power.
        path = tmp_path / "shared.json"
        save_scenario(fixed_ue_on_macro_channel(), path)
        out = tmp_path / "out"
        assert main(["run", "--scenario", str(path), "--policy", "mixed-fm",
                     "--out", str(out)]) == 0
        equilibrium = json.loads((out / "equilibrium.json").read_text())
        assert equilibrium["mixed_population"] is True
        assert equilibrium["max_abs_error_p1"] < 1e-9

    def test_eigenvalues_computed_once_per_matrix(self, scenario_file, tmp_path,
                                                  monkeypatch):
        # One stacked call per size of the weakly connected components of
        # the iteration matrix, holding every component of that size, so
        # each block is decomposed exactly once for the spectral radius; an
        # all-dual file adds one more pass for spectral_radius_abs.
        from scipy.sparse.csgraph import connected_components

        calls = []
        eigvals = np.linalg.eigvals

        def counting(a):
            calls.append(a.shape)
            return eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals", counting)
        mixed_file = tmp_path / "mixed.json"
        save_scenario(fixed_ue_on_macro_channel(), mixed_file)
        for path, passes in ((mixed_file, 1), (scenario_file, 2)):
            m = build_matrices(load_scenario(path))
            _, labels = connected_components(build_system(m)[0] != 0, connection="weak")
            sizes = np.bincount(labels).tolist()
            assert sum(sizes) == m.n
            calls.clear()
            out = tmp_path / path.stem
            assert main(["run", "--scenario", str(path), "--policy", "wf",
                         "--out", str(out)]) == 0
            assert sorted(calls) == sorted([(sizes.count(k), k, k) for k in set(sizes)] * passes)
            equilibrium = json.loads((out / "equilibrium.json").read_text())
            assert ("spectral_radius_abs" in equilibrium) == (passes == 2)

    def test_unknown_policy_is_usage_error(self, scenario_file, tmp_path):
        code = main(["run", "--scenario", str(scenario_file),
                     "--policy", "anneal", "--out", str(tmp_path)])
        assert code == 2

    def test_missing_file_is_usage_error(self, tmp_path):
        code = main(["run", "--scenario", str(tmp_path / "nope.json"),
                     "--policy", "bdt", "--out", str(tmp_path)])
        assert code == 2

    def test_invalid_scenario_lists_violations(self, tmp_path, capsys):
        s = worked_example()
        d = scenario_to_dict(s)
        d["ues"][0]["chan_2"] = d["ues"][0]["chan_1"]  # same channel twice
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(d))
        code = main(["run", "--scenario", str(path), "--policy", "bdt",
                     "--out", str(tmp_path)])
        assert code == 3
        assert "distinct channels" in capsys.readouterr().err

    def run_dict(self, tmp_path, d, *extra):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(d))
        return main(["run", "--scenario", str(path), "--policy", "bdt",
                     "--out", str(tmp_path / "out"), *extra])

    def test_missing_cochannel_gain_is_validation_error(self, tmp_path, capsys):
        d = scenario_to_dict(worked_example())
        d["gains"] = [g for g in d["gains"] if g[:3] != [2, 1, 1]]
        assert self.run_dict(tmp_path, d) == 3
        err = capsys.readouterr().err
        assert "missing cross gain: UE 2 -> PoA 1 on channel 1" in err
        assert not (tmp_path / "out").exists()

    def test_nan_p_max_is_validation_error(self, tmp_path, capsys):
        d = scenario_to_dict(worked_example())
        d["ues"][0]["p_max"] = float("nan")
        assert self.run_dict(tmp_path, d) == 3
        assert "UE 1: p_max must be finite" in capsys.readouterr().err

    def test_nan_gain_is_validation_error(self, tmp_path, capsys):
        d = scenario_to_dict(worked_example())
        d["gains"][0][3] = float("nan")
        assert self.run_dict(tmp_path, d) == 3
        assert "gain (1,1,1) must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("edit,messages", [
        (lambda g: g[0].pop(), ["gain row [1, 1, 1] must be [ue_id, poa_id, chan_id, value]"]),
        (lambda g: g[0].append(2.0), ["gain row [1, 1, 1, ", ", 2.0] must be [ue_id"]),
        (lambda g: g.append([1, 1, 1, 123.0]), ["gain (1,1,1) is given more than once"]),
        (lambda g: g[0].__setitem__(1, 1.5), ["gain row [1, 1.5, 1, ", "] must be [ue_id"]),
        (lambda g: g[0].__setitem__(3, True), ["gain row [1, 1, 1, True] must be [ue_id"]),
    ], ids=["three_entries", "five_entries", "duplicate_key", "float_id", "bool_value"])
    def test_malformed_gain_row_is_validation_error(self, tmp_path, capsys, edit, messages):
        d = scenario_to_dict(worked_example())
        edit(d["gains"])
        assert self.run_dict(tmp_path, d) == 3
        err = capsys.readouterr().err
        assert all(m in err for m in messages) and "Traceback" not in err, err
        assert not (tmp_path / "out").exists()

    def test_gains_not_a_list_is_validation_error(self, tmp_path, capsys):
        d = scenario_to_dict(worked_example())
        d["gains"] = {"a": 1}
        assert self.run_dict(tmp_path, d) == 3
        assert "gains must be a list of [ue_id, poa_id, chan_id, value] rows, got dict" in (
            capsys.readouterr().err)

    BEYOND_FLOAT64 = {
        "p_max": "UE 1: p_max must be finite and > 0, got 1000",
        "backhaul_capacity": "PoA 1: backhaul_capacity must be >= 0 (inf for unlimited), got 1000",
        "noise_psd": "noise_psd must be finite and > 0, got 1000",
        "bandwidth": "channel 1: bandwidth must be finite and > 0, got 1000",
        "gain": "error: cannot parse scenario: gain row [1, 1, 1, 1000",
        "tau": "tau must be finite and > 0, got 1000",
        "position": "UE 1: position must be two numbers in float64 range, got (1000",
        "fixed_sinr_target": "UE 2: fixed_sinr_target must be finite and > 0, got 1000",
    }

    @pytest.mark.parametrize("name", BEYOND_FLOAT64)
    def test_integer_beyond_float64_is_validation_error(self, tmp_path, capsys, name):
        huge = 10 ** 400
        d = scenario_to_dict(worked_example())
        if name == "p_max":
            d["ues"][0]["p_max"] = huge
        elif name == "backhaul_capacity":
            d["poas"][0]["backhaul_capacity"] = huge
        elif name == "bandwidth":
            d["channels"][0]["bandwidth"] = huge
        elif name == "gain":
            d["gains"][0][3] = huge
        elif name == "position":
            d["ues"][0]["position"] = [huge, 0.0]
        elif name == "fixed_sinr_target":
            del d["ues"][1]["poa_2"], d["ues"][1]["chan_2"]
            d["ues"][1]["fixed_sinr_target"] = huge
        else:
            d[name] = huge
        assert self.run_dict(tmp_path, d) == 3
        err = capsys.readouterr().err
        assert self.BEYOND_FLOAT64[name] in err and "Traceback" not in err, err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("where", ["poas", "gains", "top_level"])
    def test_deeply_nested_file_is_parse_error(self, tmp_path, capsys, where):
        nest = "[" * 200_000 + "]" * 200_000
        text = json.dumps(scenario_to_dict(worked_example()))
        text = {"poas": '{"poas": ' + nest + "}",
                "gains": text.replace('"gains": [', '"gains": [' + nest + ", "),
                "top_level": nest}[where]
        path = tmp_path / "scenario.json"
        path.write_text(text)
        assert main(["run", "--scenario", str(path), "--policy", "bdt",
                     "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: cannot parse scenario: maximum recursion depth"), err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("edit,messages", [
        (lambda d: d["poas"][0].__setitem__("id", 7),
         ["PoA ids must be 1..3, got [2, 3, 7]", "UE 1: unknown PoA 1 on link 1"]),
        (lambda d: d["ues"][1].__setitem__("id", 5), ["UE ids must be 1..2, got [1, 5]"]),
        (lambda d: d["ues"][0].__setitem__("poa_1", 9), ["UE 1: unknown PoA 9 on link 1"]),
        (lambda d: d["ues"][0].__setitem__("chan_1", 9), ["UE 1: unknown channel 9 on link 1"]),
        # one missing field, one message
        (lambda d: d["ues"][1].pop("chan_2"), ["UE 2: poa_2 and chan_2 must be set together"]),
        (lambda d: d["ues"][1].__setitem__("poa_2", 9), ["UE 2: unknown PoA 9 on link 2"]),
        (lambda d: d["ues"][0].__setitem__("fixed_sinr_target", 2.0),
         ["UE 1: fixed_sinr_target is only for single-link UEs"]),
    ], ids=["poa_ids", "ue_ids", "poa_1", "chan_1", "half_link_2", "poa_2", "target_on_dual"])
    def test_layout_violation_is_validation_error(self, tmp_path, capsys, edit, messages):
        d = scenario_to_dict(worked_example())
        edit(d)
        assert self.run_dict(tmp_path, d) == 3
        err = capsys.readouterr().err
        assert [line[4:] for line in err.splitlines() if line.startswith("  - ")] == messages
        assert "Traceback" not in err, err
        assert not (tmp_path / "out").exists()

    @staticmethod
    def beyond_float_range(case):
        """A file that passes validate_scenario, but on which some expression
        of a run leaves float64 range."""
        if case == "underflow":  # noise_psd * bandwidth / gain is 0
            d = scenario_to_dict(generate(GenParams(n_ues=1, n_relays=1, n_picos=0, seed=2)))
            d["noise_psd"] = 5e-324
            for g in d["gains"]:
                g[3] = 1e10
            return d
        if case == "split_numerator":  # w1 * p_max + w1 * e2 overflows at UE 1's worst e2
            gains = {(1, 1, 1): 1.0, (1, 3, 2): 1.0, (2, 2, 2): 1.0, (2, 3, 2): 3.0,
                     (2, 3, 1): 1e-307, (1, 2, 2): 1e-300, (2, 1, 1): 1e-300, (1, 3, 1): 1e-320}
            return layout_file([(5e306, (1, 1), (3, 2)), (5e306, (2, 2), (3, 1))],
                               10.0, 0.1, gains)
        if case == "fixed_sinr_target":  # beta * e overflows; f11 is not in build_system's c
            gains = {(1, 1, 1): 1e-10, (1, 3, 2): 1e-10, (2, 2, 1): 1e-10, (1, 2, 1): 1e-9,
                     (2, 1, 1): 1e-30}
            return layout_file([(100.0, (1, 1), (3, 2)), (1.0, (2, 1), 1e307)], 1e6, 1e-25, gains)
        if case == "bandwidth_in_use":  # each UE's pair and rates are finite; 7 channels are not
            return scenario_to_dict(generate(GenParams(
                n_ues=6, seed=1, p_max=4e-20, noise_psd=1e-320, gain_scale=1e12,
                bandwidth_choices=(4e307,))))
        if case in ("power_sum", "unlimited_load"):  # own gains 1, cross gains 1e-300
            own = {(1, 1, 1), (1, 3, 2), (2, 3, 1), (2, 2, 2)}
            gains = {(u, p, c): 1.0 if (u, p, c) in own else 1e-300
                     for u, p, c in [*own, (1, 3, 1), (2, 1, 1), (1, 2, 2), (2, 3, 2)]}
            if case == "power_sum":  # the budgets add up to inf in avg_total_power's mean
                return layout_file([(1e308, (1, 1), (3, 2)), (1e308, (3, 1), (2, 2))],
                                   1e-10, 1e20, gains)
            # two finite rate ceilings add up to inf at the macrocell
            return layout_file([(1.0, (1, 1), (3, 2)), (1.0, (3, 1), (2, 2))], 1e307, 1e-312,
                               gains, capacity=math.inf)
        d = scenario_to_dict(worked_example())
        if case == "huge_noise":
            d["noise_psd"] = 1e308
        elif case == "huge_bandwidth":  # w2 * e1 and w1 * e2 overflow
            for c in d["channels"]:
                c["bandwidth"] = 1e308
        elif case == "tiny_gains":
            for g in d["gains"]:
                g[3] = 5e-324
        elif case == "bandwidth_sum":  # every term is finite, but w1 + w2 is 2e308
            d["noise_psd"] = 1e-308  # normalized noise = 1 / own gain
            for c in d["channels"]:
                c["bandwidth"] = 1e308
            own = {(1, 1, 1): 2.0, (1, 3, 2): 1.0, (2, 3, 1): 1.0, (2, 2, 2): 1.0}
            for g in d["gains"]:
                g[3] = own.get(tuple(g[:3]), 1e-30)  # next to no interference
            d["ues"][0]["p_max"], d["ues"][1]["p_max"] = 1.5, 1e-3
        elif case == "rate_ceiling":  # SINR 1e10 on a 1e308 Hz channel: the rate is inf
            d["noise_psd"] = 1e-308
            d["channels"][0]["bandwidth"] = 1e308  # channel 1, which both first links use
            own = {(1, 1, 1): 1e10, (2, 3, 1): 1e10}
            for g in d["gains"]:
                g[3] = own.get(tuple(g[:3]), 1e-30)
        elif case == "sinr_ceiling":  # d about 8e-307: p_max / d is inf
            d["noise_psd"] = 5e-324
            for ue in d["ues"]:
                ue["p_max"] = 1e9
        else:  # UE 1's link 2 into UE 2's link 2, relative to UE 2's own gain
            ue = d["ues"][1]
            own = 1e-300 if case == "cross_ratio" else 1e-290
            for g in d["gains"]:
                if g[1:3] == [ue["poa_2"], ue["chan_2"]]:
                    g[3] = own if g[0] == ue["id"] else 1e10
            if case == "huge_interference":  # a ratio of 1e300 times UE 1's p_max
                d["ues"][0]["p_max"] = 1e9
        return d

    @pytest.mark.parametrize("case,message", [
        ("underflow", "UE 1 link 1: normalized noise is 0.0"),
        ("huge_noise", "UE 1 link 1: normalized noise is inf"),
        ("tiny_gains", "UE 1 link 1: normalized noise is inf"),
        ("cross_ratio", "UE 2 link 2: worst-case effective interference is inf"),
        ("huge_interference", "UE 2 link 2: worst-case effective interference is inf"),
        ("huge_bandwidth", "UE 1 link 1: bandwidth plus the other link's bandwidth is inf"),
        ("bandwidth_sum", "UE 1 link 1: bandwidth plus the other link's bandwidth is inf"),
        ("rate_ceiling", "UE 1 link 1: rate ceiling w * log2(1 + p_max / d) is inf"),
        ("sinr_ceiling", "UE 1 link 1: SINR ceiling p_max / d is inf"),
        ("split_numerator", "UE 1 link 2: waterfilling's split (w1 * p_max - w2 * e1 + w1 * e2)"
                            " / (w1 + w2) at this link's worst-case interference is inf"),
        ("fixed_sinr_target", "UE 2 link 1: fixed-SINR target beta times worst-case "
                              "interference is inf"),
        ("unlimited_load", "UE 1 link 2: its PoA's load at every link's rate ceiling is inf"),
        ("power_sum", "UE 1 link 1: the sum of every UE's p_max is inf"),
        ("bandwidth_in_use", "UE 1 link 1: the summed bandwidth of the channels in use is inf"),
    ])
    def test_link_beyond_float_range_is_validation_error(self, tmp_path, capsys, case,
                                                         message):
        # Every policy stops at validation, before numpy can warn.
        d = self.beyond_float_range(case)
        for policy in POLICY_NAMES:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert self.run_dict(tmp_path, d, "--policy", policy) == 3
            err = capsys.readouterr().err
            assert f"  - {message}, out of floating-point range\n" in err, (policy, err)
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_budget_beyond_float_range_is_validation_error(self, tmp_path, capsys, policy):
        # w1 * p_max overflows; the file stops at validation, before numpy
        # can warn about it.
        d = scenario_to_dict(worked_example())
        for ue in d["ues"]:
            ue["p_max"] = 1e308
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(d))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", "--scenario", str(path), "--policy", policy,
                         "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err == ("scenario validation failed:\n  - UE 1 link 1: bandwidth times p_max "
                       "is inf, out of floating-point range\n"), err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_nan_decision_is_numerical_failure(self, tmp_path, capsys, monkeypatch, policy):
        # No validated file reaches this guard: the waterfilling split is
        # checked at both corners of the interference envelope, and its
        # clipping keeps it in [0, p_max]. So the waterfilling kernel returns NaN
        # here, and the run stops with exit 4 before it writes anything.
        # Unlimited backhaul puts both UEs in S1 under bdt, and their greedy
        # caps are infinite, so every policy waterfills.
        monkeypatch.setattr(engine, "_waterfill",
                            lambda p_max, *_: (np.full(p_max.shape, np.nan),) * 2)
        d = scenario_to_dict(worked_example())
        for p in d["poas"]:
            p["backhaul_capacity"] = float("inf")
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(d))
        out = tmp_path / "out"
        assert main(["run", "--scenario", str(path), "--policy", policy,
                     "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert "error: numerical failure: policy returned infeasible powers for UE 1: (nan" in err
        assert not any(out.iterdir())

    def test_failure_after_a_written_block_leaves_nothing(self, scenario_file, tmp_path,
                                                          capsys, monkeypatch):
        # wf with a window longer than the run runs to max_iter. The 20th
        # step's waterfilling turns NaN, after the trace writer has written its
        # first 16 rows to the pending file; the run exits 4 and removes it.
        out = tmp_path / "out"
        waterfill, flush, calls, flushed = engine._waterfill, engine.TraceCsv.flush, [], []

        def nan_on_call_20(p_max, *args):
            calls.append([p.name for p in out.iterdir()])
            if len(calls) == 20:
                return (np.full(p_max.shape, np.nan),) * 2
            return waterfill(p_max, *args)

        monkeypatch.setattr(engine, "_waterfill", nan_on_call_20)
        monkeypatch.setattr(engine.TraceCsv, "flush",
                            lambda writer: (flush(writer), flushed.append(writer.k)))
        assert main(["run", "--scenario", str(scenario_file), "--policy", "wf",
                     "--window", "99", "--out", str(out)]) == 4
        assert flushed == [16] and calls[-1] == [f".trace.csv.{os.getpid()}.tmp"]
        assert "error: numerical failure: policy returned infeasible powers" in (
            capsys.readouterr().err)
        assert not any(out.iterdir())

    def test_run_memory_does_not_grow_with_the_trace(self, tmp_path):
        # The 160+40-UE file of the cli_large benchmark (seed 1) runs to
        # max_iterations under bdt. Only the detector's buffer may grow with
        # --iters; a run that kept every iterate peaked at 3.8 times the peak
        # of 50 at 400.
        params = GenParams(n_ues=160, n_relays=8, n_picos=12,
                           seed=int(np.random.SeedSequence([1, 0]).generate_state(1)[0]))
        path = tmp_path / "scenario.json"
        save_scenario(generate_mixed(params, 40), path)
        peaks = {}
        for iters in (1, 50, 400):  # the first run fills the caches of one-time set-up
            argv = ["run", "--scenario", str(path), "--policy", "bdt", "--iters", str(iters),
                    "--out", str(tmp_path / "out")]
            tracemalloc.start()
            try:
                assert main(argv) == 0
                peaks[iters] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            metrics = json.loads((tmp_path / "out" / "metrics.json").read_text())
            assert metrics["verdict"] == "max_iterations"
        assert peaks[400] <= 2.5 * peaks[50], peaks

    def test_eps_and_window_reach_the_run(self, scenario_file, tmp_path):
        m = build_matrices(worked_example())
        for extra, kwargs in (([], {}), (["--eps", "1e-3", "--window", "2"],
                                         {"eps": 1e-3, "window": 2})):
            out = tmp_path / str(len(extra))
            assert main(["run", "--scenario", str(scenario_file), "--policy", "wf",
                         *extra, "--out", str(out)]) == 0
            metrics = json.loads((out / "metrics.json").read_text())
            verdict = run(m, "wf", **kwargs).verdict
            assert (metrics["verdict"], metrics["converged_at"]) == (verdict.kind,
                                                                     verdict.iteration)
        assert (json.loads((tmp_path / "4" / "metrics.json").read_text())["converged_at"]
                < json.loads((tmp_path / "0" / "metrics.json").read_text())["converged_at"])

    def test_nan_tau_override_is_validation_error(self, tmp_path, capsys):
        d = scenario_to_dict(worked_example())
        assert self.run_dict(tmp_path, d, "--tau", "nan") == 3
        assert "tau must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("name,value,message", [
        ("id", "2", "UE '2': id must be an integer, got '2'"),
        ("poa_1", "3", "UE 2: poa_1 must be an integer, got '3'"),
        ("p_max", True, "UE 2: p_max must be a number, got True"),
        ("chan_1", 1.0, "UE 2: chan_1 must be an integer, got 1.0"),
    ])
    def test_wrongly_typed_field_is_validation_error(self, tmp_path, capsys, name,
                                                     value, message):
        d = scenario_to_dict(worked_example())
        d["ues"][1][name] = value
        assert self.run_dict(tmp_path, d) == 3
        err = capsys.readouterr().err
        assert f"  - {message}\n" in err
        assert "unknown PoA" not in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_unknown_ue_key_is_validation_error(self, tmp_path, capsys):
        d = scenario_to_dict(worked_example())
        d["ues"][1]["poa2"] = d["ues"][1].pop("poa_2")
        assert self.run_dict(tmp_path, d) == 3
        assert "'poa2'" in capsys.readouterr().err

    def test_unknown_top_level_key_is_validation_error(self, tmp_path, capsys):
        d = scenario_to_dict(worked_example())
        d["noise"] = d.pop("noise_psd")
        assert self.run_dict(tmp_path, d) == 3
        assert "'noise'" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [
        ("--iters", "0"), ("--iters", "-5"), ("--window", "0"), ("--window", "-3"),
        ("--eps", "nan"), ("--eps", "-1"), ("--eps", "0"),
    ])
    def test_bad_run_parameter_is_usage_error(self, scenario_file, tmp_path, capsys,
                                              flag, value):
        out = tmp_path / "out"
        assert main(["run", "--scenario", str(scenario_file), "--policy", "bdt",
                     flag, value, "--out", str(out)]) == 2
        assert f"argument {flag}:" in capsys.readouterr().err
        assert not out.exists()

    def test_non_numeric_eps_is_usage_error(self, scenario_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", "--scenario", str(scenario_file), "--policy", "bdt",
                     "--eps", "tiny", "--out", str(out)]) == 2
        assert "argument --eps: must be a finite number > 0, got 'tiny'" in capsys.readouterr().err
        assert not out.exists()

    def test_equilibrium_names_policy_and_prediction(self, tmp_path):
        # The prediction is the waterfilling fixed point whatever the policy,
        # so a converged bdt run may sit far from it.
        path = tmp_path / "limited.json"
        save_scenario(worked_example(LIMITED_BACKHAUL), path)
        for policy in ("bdt", "greedy", "wf"):
            out = tmp_path / policy
            assert main(["run", "--scenario", str(path), "--policy", policy,
                         "--out", str(out)]) == 0
            equilibrium = json.loads((out / "equilibrium.json").read_text())
            assert equilibrium["policy"] == policy
            assert equilibrium["prediction"] == "wf"
        bdt = json.loads((tmp_path / "bdt" / "metrics.json").read_text())
        assert bdt["verdict"] == "converged"

    def test_unparseable_scenario(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        code = main(["run", "--scenario", str(path), "--policy", "wf",
                     "--out", str(tmp_path)])
        assert code == 3

    def test_tau_z_overrides(self, tmp_path):
        path = tmp_path / "limited.json"
        save_scenario(worked_example(LIMITED_BACKHAUL), path)
        out = tmp_path / "o1"
        assert main(["run", "--scenario", str(path), "--policy", "bdt",
                     "--tau", "1e12", "--out", str(out)]) == 0
        # an enormous tolerance band means nothing is ever overloaded: the
        # run behaves like the high-backhaul regime and holds immediately
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["verdict"] == "converged"
        assert main(["run", "--scenario", str(path), "--policy", "bdt",
                     "--z", "1.5", "--out", str(tmp_path / "o2")]) == 3

    def test_trace_csv_matches_iters(self, scenario_file, tmp_path):
        out = tmp_path / "out"
        assert main(["run", "--scenario", str(scenario_file), "--policy", "wf",
                     "--iters", "6", "--window", "99", "--out", str(out)]) == 0
        with open(out / "trace.csv") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 7  # header + initial state + 6 iterations

    def test_huge_iteration_budget_runs(self, scenario_file, tmp_path, capsys):
        # wf converges in a few iterations, so a budget of 1e11 costs nothing.
        out = tmp_path / "out"
        assert main(["run", "--scenario", str(scenario_file), "--policy", "wf",
                     "--iters", "100000000000", "--out", str(out)]) == 0
        assert json.loads((out / "metrics.json").read_text())["verdict"] == "converged"
        assert "converged" in capsys.readouterr().out

    def test_numerical_failure_exit_code(self, scenario_file, tmp_path,
                                         monkeypatch, capsys):
        import numpy as np

        import duplink.cli as cli

        def explode(*args, **kwargs):
            raise np.linalg.LinAlgError("synthetic breakdown")

        monkeypatch.setattr(cli, "run", explode)
        code = main(["run", "--scenario", str(scenario_file), "--policy", "wf",
                     "--out", str(tmp_path / "out")])
        assert code == 4
        assert "numerical failure" in capsys.readouterr().err

    def test_stale_equilibrium_is_removed(self, scenario_file, tmp_path):
        # A non-contractive run into a directory that holds an earlier run's
        # prediction must not leave that prediction next to its own trace.
        out = tmp_path / "out"
        assert main(["run", "--scenario", str(scenario_file), "--policy", "bdt",
                     "--out", str(out)]) == 0
        assert (out / "equilibrium.json").is_file()
        s = generate_mixed(GenParams(n_ues=6, seed=132), 3)
        assert spectral_radius(build_system(build_matrices(s))[0]) >= 1.0
        path = tmp_path / "noncontractive.json"
        save_scenario(s, path)
        assert main(["run", "--scenario", str(path), "--policy", "bdt",
                     "--out", str(out)]) == 0
        assert not (out / "equilibrium.json").exists()
        with open(out / "trace.csv") as fh:
            assert next(csv.reader(fh))[-2] == "state_9"

    @pytest.mark.parametrize("command", [["run", "--policy", "bdt"],
                                         ["experiment", "--preset", "fig3", "--trials", "1"]])
    def test_output_dir_under_a_file_is_usage_error(self, scenario_file, tmp_path, capsys,
                                                    command):
        taken = tmp_path / "taken"
        taken.write_text("")
        argv = [*command, "--out", str(taken / "out")]
        if command[0] == "run":
            argv += ["--scenario", str(scenario_file)]
        assert main(argv) == 2
        assert "error: cannot create output dir: " in capsys.readouterr().err
        assert taken.read_text() == ""

    @pytest.mark.parametrize("name", ["trace.csv", "metrics.json", "equilibrium.json"])
    def test_unwritable_output_is_usage_error(self, scenario_file, tmp_path, capsys, name):
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        assert main(["run", "--scenario", str(scenario_file), "--policy", "bdt",
                     "--out", str(out)]) == 2
        assert f"error: cannot write output: {out / name}: " in capsys.readouterr().err

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert capsys.readouterr().out.strip()



def layout_file(ues, bandwidth, noise_psd, gains, capacity=None):
    """A scenario dict on the worked example's PoAs (relay 1, picocell 2,
    macrocell 3): two channels of ``bandwidth`` Hz, and UEs given as (p_max,
    link 1, link 2) or, single-link, as (p_max, link 1, fixed SINR target),
    with each link a (PoA id, channel id) pair. ``gains`` maps (UE id, PoA id,
    channel id) to the gain; ``capacity``, if given, is every PoA's."""
    d = scenario_to_dict(worked_example())
    d.update(channels=[{"id": 1, "bandwidth": bandwidth}, {"id": 2, "bandwidth": bandwidth}],
             noise_psd=noise_psd, gains=[[*key, g] for key, g in sorted(gains.items())])
    d["ues"] = [{"id": i, "position": [1000.0 * i, -1000.0], "p_max": p_max,
                 "poa_1": link1[0], "chan_1": link1[1],
                 **({"poa_2": other[0], "chan_2": other[1]} if isinstance(other, tuple)
                    else {"fixed_sinr_target": other})}
                for i, (p_max, link1, other) in enumerate(ues, 1)]
    for p in d["poas"] if capacity is not None else ():
        p["backhaul_capacity"] = capacity
    return d


def fuzz_family(base, count, capacity):
    """The first ``count`` files of a seeded fuzz family (numpy seed 0) on the
    scenario ``base``: each noise PSD, bandwidth, p_max, fixed SINR target and
    gain replaced, with a probability q drawn per file from U(0.3, 0.5), by
    10^U(-300, 300); each backhaul capacity becomes ``capacity(draw, rng,
    value)``."""
    rng = np.random.default_rng(0)
    for _ in range(count):
        q = rng.uniform(0.3, 0.5)

        def draw(value, q=q):
            return float(10.0 ** rng.uniform(-300, 300)) if rng.uniform() < q else value

        noise_psd = draw(base.noise_psd)
        channels = [replace(ch, bandwidth=draw(ch.bandwidth)) for ch in base.channels]
        ues = [replace(ue, p_max=draw(ue.p_max),
                       fixed_sinr_target=ue.fixed_sinr_target and draw(ue.fixed_sinr_target))
               for ue in base.ues]
        poas = [replace(p, backhaul_capacity=capacity(draw, rng, p.backhaul_capacity))
                for p in base.poas]
        gains = Gains(base.gains.keys, np.array([draw(g) for g in base.gains.values.tolist()]))
        yield replace(base, poas=poas, ues=ues, channels=channels, gains=gains,
                      noise_psd=noise_psd)


def magnitude_variants(count):
    """The limited-backhaul worked example's fuzz family, its capacities
    drawn like the other values. About half pass validation."""
    return fuzz_family(worked_example(LIMITED_BACKHAUL), count,
                       lambda draw, rng, value: draw(value))


def coupled_variants(count):
    """The fuzz family of a network with the couplings the worked example
    lacks: link 1 of UE 1 and link 2 of UE 2 share channel 1 with the
    single-link UE 3, and each capacity is unlimited with probability 1/2,
    else 10^U(-300, 300). About 40% pass validation."""
    links = {1: ((1, 1), (3, 2)), 2: ((2, 2), (3, 1)), 3: ((2, 1), 1.0)}
    gains = {(u, p, c): 1.0 if links[u][0] == (p, c) or links[u][1] == (p, c) else 0.1
             for u in links for p in (1, 2, 3) for c in (1, 2)
             if c == 1 or u != 3 and p != 1}
    base = scenario_from_dict(layout_file([(1.0, *links[u]) for u in links], 10.0, 0.1, gains))
    return fuzz_family(base, count, lambda draw, rng, value:
                       math.inf if rng.uniform() < 0.5 else draw(value, q=1.0))


def fixed_point_out_of_range(a, c):
    """Whether the solution of (I - a) p1 = c lies outside the float range:
    solved for c scaled down by 2^-600, so that it stays in range, and
    compared with the largest float scaled the same way."""
    with np.errstate(all="ignore"):
        p1 = np.linalg.solve(np.eye(len(c)) - a, c * 2.0 ** -600)
    return bool(np.max(np.abs(p1)) > np.finfo(float).max * 2.0 ** -600)


def finite(*values):
    return all(np.isfinite(np.asarray(v, dtype=float)).all() for v in values)


def strict_json(payload):
    """``payload`` as its JSON file holds it, parsed strictly: ValueError on
    Infinity or NaN."""
    def reject(word):
        raise ValueError(f"{word} in a JSON output")
    return json.loads(json.dumps(payload), parse_constant=reject)


def fuzz_outcomes(files):
    """What ``duplink run`` does with each file, by index: 3 if it stops at
    validation ("system" if at ``build_system``), 4 if the closed form's fixed
    point lies outside the float range, else 0. A file that is not stopped
    must run every policy and the equilibrium payload under
    ``np.errstate(over/invalid/divide="raise")`` with finite numbers, V being
    +inf only at an unlimited PoA, and JSON payloads without Infinity or NaN."""
    outcomes = {}
    for k, s in enumerate(files):
        try:
            if violations := duplink.validate_scenario(s):
                raise ValueError(violations[0])
            m = build_matrices(s)
            a, c = build_system(m)
        except (KeyError, ValueError) as exc:
            outcomes[k] = "system" if "equilibrium" in exc.args[0] else 3
            continue
        outcomes[k] = 0
        unlimited = np.append(m.capacity == math.inf, False)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for policy in POLICY_NAMES:
                trace = run(m, policy, max_iter=5)
                state, report = trace.state, trace.report
                assert finite(state.p, state.e, state.sinr, state.rate, report.load,
                              report.eta_n), (k, policy)
                for v, at in ((report.v, unlimited[:-1]), (report.v_links, unlimited[m.poa])):
                    assert (np.isfinite(v) | (v == math.inf) & at).all(), (k, policy)
                strict_json(trace.metrics)
                try:
                    payload = cli._equilibrium_payload(m, a, c, trace, policy)
                except np.linalg.LinAlgError:
                    assert fixed_point_out_of_range(a, c), (k, policy)
                    outcomes[k] = 4
                    continue
                assert outcomes[k] == 0, (k, policy)
                strict_json(payload)
    return outcomes


@st.composite
def scaled_generated(draw):
    """A small ``generate`` or ``generate_mixed`` scenario whose noise PSD,
    p_max, gain scale, bandwidth choices, capacities and SINR targets are
    the defaults scaled by 10^U(-300, 300), each within ``_check_params``'
    rules (a capacity may overflow to inf, which is legal)."""
    def scale(value):
        return value * 10.0 ** draw(st.floats(-300, 300))

    cells = draw(st.integers(1, 3))
    n_relays = draw(st.integers(0, cells))
    params = GenParams(n_ues=draw(st.integers(0, 4)), n_relays=n_relays, n_picos=cells - n_relays,
                       bandwidth_choices=tuple(map(scale, (1e6, 5e6)[:draw(st.integers(1, 2))])),
                       eta_relay=scale(100e6), eta_pico=scale(200e6), eta_macro=scale(1000e6),
                       p_max=scale(1.0), noise_psd=scale(1e-19), gain_scale=scale(100.0),
                       seed=draw(st.integers(0, 2 ** 31)))
    n_fixed = draw(st.integers(0, 3))
    beta_range = tuple(sorted((scale(1.0), scale(4.0))))
    return generate_mixed(params, n_fixed, beta_range) if n_fixed else generate(params)


class TestMagnitudeFuzz:
    """Every file of the fuzz families stops at validation (exit 3), or runs
    every policy and the equilibrium payload with finite numbers and no
    overflow, invalid operation or division by zero. Only a fixed point
    outside the float range ends in a numerical failure (exit 4)."""

    SYSTEM_OUT_OF_RANGE = 139  # a and c overflow; the eigenvalues used to fail (exit 4)
    FIXED_POINT_OUT_OF_RANGE = 170  # p1 is about -2e475; it was written as -Infinity

    def test_every_file_stops_or_runs_clean(self):
        outcomes = fuzz_outcomes(magnitude_variants(180))
        assert sum(v == 0 for v in outcomes.values()) > 80
        assert outcomes[self.SYSTEM_OUT_OF_RANGE] == "system"
        assert [k for k, v in outcomes.items() if v == 4] == [self.FIXED_POINT_OUT_OF_RANGE]

    def test_every_coupled_file_stops_or_runs_clean(self):
        files = list(coupled_variants(150))
        outcomes = fuzz_outcomes(files)
        assert sum(v == 0 for v in outcomes.values()) > 50
        assert any(v == 0 and any(p.backhaul_capacity == math.inf for p in files[k].poas)
                   for k, v in outcomes.items())

    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(scaled_generated())
    def test_scaled_generated_file_stops_or_runs_clean(self, s):
        # The saved file as duplink run reads it; numpy warnings raise anywhere.
        with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
            warnings.simplefilter("error")
            save_scenario(s, path := Path(tmp) / "scenario.json")
            assert fuzz_outcomes([load_scenario(path)])[0] in (0, 3, "system")

    def test_fixed_sinr_target_out_of_range_is_validation_error(self):
        # Coupled file 232: beta * e overflowed in the fixed-SINR update, and
        # every policy ran to exit 0 after the warning.
        s = next(islice(coupled_variants(233), 232, None))
        with pytest.raises(ValueError, match="^UE 3 link 1: fixed-SINR target beta times "
                           "worst-case interference is inf"):
            build_matrices(s)

    def test_system_out_of_range_is_raised_by_build_system(self):
        s = next(islice(magnitude_variants(self.SYSTEM_OUT_OF_RANGE + 1),
                        self.SYSTEM_OUT_OF_RANGE, None))
        with pytest.raises(ValueError, match="^UE 2 link 1: an entry of the equilibrium "
                           "system's a is -inf, out of floating-point range$"):
            build_system(build_matrices(s))

    def save(self, tmp_path, k):
        path = tmp_path / "fuzz.json"
        save_scenario(next(islice(magnitude_variants(k + 1), k, None)), path)
        return path

    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_system_out_of_range_is_validation_error(self, tmp_path, capsys, policy):
        path, out = self.save(tmp_path, self.SYSTEM_OUT_OF_RANGE), tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", "--scenario", str(path), "--policy", policy,
                         "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "scenario validation failed:\n  - UE 2 link 1: an entry of the equilibrium "
            "system's a is -inf, out of floating-point range\n")
        assert not out.exists()

    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_fixed_point_out_of_range_is_numerical_failure(self, tmp_path, capsys, policy):
        path, out = self.save(tmp_path, self.FIXED_POINT_OUT_OF_RANGE), tmp_path / "out"
        assert main(["run", "--scenario", str(path), "--policy", policy,
                     "--out", str(out)]) == 4
        assert capsys.readouterr().err == (
            "error: numerical failure: fixed point out of floating-point range\n")
        assert not any(out.iterdir())


class TestExperimentCommand:
    def run_preset(self, tmp_path, name, trials=2, seed=9):
        out = tmp_path / name
        code = main(["experiment", "--preset", name, "--trials", str(trials),
                     "--seed", str(seed), "--out", str(out)])
        assert code == 0
        with open(out / "trials.csv") as fh:
            trials_rows = list(csv.DictReader(fh))
        with open(out / "summary.csv") as fh:
            summary_rows = list(csv.DictReader(fh))
        return trials_rows, summary_rows

    def test_fig3_schema_and_counts(self, tmp_path):
        trials_rows, summary_rows = self.run_preset(tmp_path, "fig3")
        assert list(trials_rows[0]) == TRIAL_COLUMNS
        assert list(summary_rows[0]) == SUMMARY_COLUMNS
        # 7 sweep points x 3 policies x 2 trials
        assert len(trials_rows) == 7 * 3 * 2
        assert len(summary_rows) == 7 * 3
        assert {r["policy"] for r in trials_rows} == {"bdt", "wf", "greedy"}
        assert all(r["preset"] == "fig3" for r in trials_rows)
        assert all(r["converged"] in ("0", "1") for r in trials_rows)

    def test_fig2b_sweeps_the_tau_z_grid(self, tmp_path):
        trials_rows, summary_rows = self.run_preset(tmp_path, "fig2b", trials=1)
        # 5 tau values x 4 Z values x 2 policies
        assert len(trials_rows) == len(summary_rows) == 5 * 4 * 2
        assert {r["policy"] for r in trials_rows} == {"bdt", "greedy"}
        assert {r["sweep_value"] for r in trials_rows} >= {"1Mbps|Z0.5", "20Mbps|Z0.95"}

    def test_fig5_sweeps_both_cell_kinds(self, tmp_path):
        trials_rows, _ = self.run_preset(tmp_path, "fig5", trials=1)
        assert {r["sweep_var"] for r in trials_rows} == {"n_picos", "n_relays"}

    def test_deterministic(self, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        for out in (out1, out2):
            assert main(["experiment", "--preset", "fig4", "--trials", "2",
                         "--seed", "3", "--out", str(out)]) == 0
        assert (out1 / "trials.csv").read_text() == (out2 / "trials.csv").read_text()
        assert (out1 / "summary.csv").read_text() == (out2 / "summary.csv").read_text()

    @pytest.mark.parametrize("name", ["trials.csv", "summary.csv"])
    def test_unwritable_output_is_usage_error(self, tmp_path, capsys, name):
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        assert main(["experiment", "--preset", "fig3", "--trials", "1",
                     "--out", str(out)]) == 2
        assert f"error: cannot write output: {out / name}: " in capsys.readouterr().err

    def test_unknown_preset_is_usage_error(self, tmp_path):
        assert main(["experiment", "--preset", "fig9", "--trials", "1",
                     "--out", str(tmp_path)]) == 2

    def test_nonpositive_trials_rejected(self, tmp_path):
        assert main(["experiment", "--preset", "fig3", "--trials", "0",
                     "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("seed", ["-1", "1.5", "x"])
    def test_bad_seed_is_usage_error(self, tmp_path, capsys, seed):
        out = tmp_path / "out"
        assert main(["experiment", "--preset", "fig3", "--trials", "1",
                     "--seed", seed, "--out", str(out)]) == 2
        assert f"argument --seed: must be an integer >= 0, got '{seed}'" in (
            capsys.readouterr().err)
        assert not out.exists()

    def test_env_var_default_out(self, tmp_path, monkeypatch, scenario_file):
        monkeypatch.setenv("DUPLINK_OUT", str(tmp_path / "envout"))
        from duplink.cli import build_parser
        # parser default is taken from the environment at build time
        monkeypatch.chdir(tmp_path)
        args = build_parser().parse_args(
            ["run", "--scenario", str(scenario_file), "--policy", "wf"])
        assert args.out == str(tmp_path / "envout")


class TestModuleEntryPoint:
    """``python -m duplink.cli`` is the command line."""

    def run_module(self, *argv):
        env = {**os.environ, "PYTHONPATH": str(Path(duplink.__file__).parents[1])}
        return subprocess.run([sys.executable, "-m", "duplink.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=120)

    def test_version(self):
        done = self.run_module("--version")
        assert done.returncode == 0 and done.stdout.strip() == duplink.__version__

    def test_missing_scenario_is_usage_error(self, tmp_path):
        done = self.run_module("run", "--scenario", str(tmp_path / "missing.json"),
                               "--policy", "bdt", "--out", str(tmp_path / "out"))
        assert done.returncode == 2
        assert "error: scenario file not found" in done.stderr
