import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import duplink
from duplink import (POLICY_NAMES, GenParams, build_matrices, build_system, generate,
                     generate_mixed, run, save_scenario, spectral_radius, worked_example)
from duplink.cli import SUMMARY_COLUMNS, TRIAL_COLUMNS, main
from duplink.network import scenario_to_dict
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
        # Once for the spectral radius; an all-dual file adds one for
        # spectral_radius_abs.
        calls = []
        eigvals = np.linalg.eigvals

        def counting(a):
            calls.append(a.shape)
            return eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals", counting)
        mixed_file = tmp_path / "mixed.json"
        save_scenario(fixed_ue_on_macro_channel(), mixed_file)
        for path, expected in ((mixed_file, 1), (scenario_file, 2)):
            calls.clear()
            out = tmp_path / path.stem
            assert main(["run", "--scenario", str(path), "--policy", "wf",
                         "--out", str(out)]) == 0
            assert len(calls) == expected
            equilibrium = json.loads((out / "equilibrium.json").read_text())
            assert ("spectral_radius_abs" in equilibrium) == (expected == 2)

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

    @pytest.mark.parametrize("edit,message", [
        (lambda d: d["poas"][0].__setitem__("id", 7), "PoA ids must be 1..3, got [2, 3, 7]"),
        (lambda d: d["ues"][1].__setitem__("id", 5), "UE ids must be 1..2, got [1, 5]"),
        (lambda d: d["ues"][0].__setitem__("poa_1", 9), "UE 1: unknown PoA 9 on link 1"),
        (lambda d: d["ues"][0].__setitem__("chan_1", 9), "UE 1: unknown channel 9 on link 1"),
        (lambda d: d["ues"][1].pop("chan_2"), "UE 2: poa_2 and chan_2 must be set together"),
        (lambda d: d["ues"][1].__setitem__("poa_2", 9), "UE 2: unknown PoA 9 on link 2"),
        (lambda d: d["ues"][0].__setitem__("fixed_sinr_target", 2.0),
         "UE 1: fixed_sinr_target is only for single-link UEs"),
    ], ids=["poa_ids", "ue_ids", "poa_1", "chan_1", "half_link_2", "poa_2", "target_on_dual"])
    def test_layout_violation_is_validation_error(self, tmp_path, capsys, edit, message):
        d = scenario_to_dict(worked_example())
        edit(d)
        assert self.run_dict(tmp_path, d) == 3
        err = capsys.readouterr().err
        assert f"  - {message}\n" in err and "Traceback" not in err, err
        assert not (tmp_path / "out").exists()

    @staticmethod
    def beyond_float_range(case):
        """A file that passes validate_scenario, but whose link noise or
        interference leaves float64 range once normalized."""
        if case == "underflow":  # noise_psd * bandwidth / gain is 0
            d = scenario_to_dict(generate(GenParams(n_ues=1, n_relays=1, n_picos=0, seed=2)))
            d["noise_psd"] = 5e-324
            for g in d["gains"]:
                g[3] = 1e10
            return d
        d = scenario_to_dict(worked_example())
        if case == "huge_noise":
            d["noise_psd"] = 1e308
        elif case == "tiny_gains":
            for g in d["gains"]:
                g[3] = 5e-324
        else:  # UE 1's link 2 into UE 2's link 2, relative to UE 2's own gain
            ue = d["ues"][1]
            for g in d["gains"]:
                if g[1:3] == [ue["poa_2"], ue["chan_2"]]:
                    g[3] = 1e-300 if g[0] == ue["id"] else 1e10
        return d

    @pytest.mark.parametrize("case,message", [
        ("underflow", "UE 1 link 1: normalized noise is 0.0"),
        ("huge_noise", "UE 1 link 1: normalized noise is inf"),
        ("tiny_gains", "UE 1 link 1: normalized noise is inf"),
        ("cross_ratio", "UE 2 link 2: a cross-gain ratio is inf"),
    ])
    def test_link_beyond_float_range_is_validation_error(self, tmp_path, capsys, case,
                                                         message):
        assert self.run_dict(tmp_path, self.beyond_float_range(case)) == 3
        err = capsys.readouterr().err
        assert f"  - {message}, out of floating-point range\n" in err, err
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_nan_decision_is_numerical_failure(self, tmp_path, capsys, policy):
        # w1 * p_max overflows, so the first decision is NaN: the run stops
        # with exit 4 before it writes anything.
        d = scenario_to_dict(worked_example())
        for ue in d["ues"]:
            ue["p_max"] = 1e308
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(d))
        out = tmp_path / "out"
        assert main(["run", "--scenario", str(path), "--policy", policy,
                     "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert "error: numerical failure: policy returned infeasible powers for UE 1: (nan" in err
        assert not any(out.iterdir())

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
