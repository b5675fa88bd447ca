import json
import math
from dataclasses import fields, replace

import pytest

from duplink import (
    UE,
    Channel,
    GenParams,
    PoA,
    PoAKind,
    Scenario,
    generate_mixed,
    load_scenario,
    noise_power,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    validate_scenario,
    worked_example,
)


def tiny_scenario(**overrides):
    poas = [
        PoA(id=1, kind=PoAKind.RELAY, position=(0.0, 100.0), backhaul_capacity=1e8),
        PoA(id=2, kind=PoAKind.MACROCELL, position=(0.0, 0.0), backhaul_capacity=1e9),
    ]
    channels = [Channel(id=1, bandwidth=1e6), Channel(id=2, bandwidth=5e6)]
    ues = [
        UE(id=1, position=(10.0, 90.0), p_max=1.0, poa_1=1, chan_1=1, poa_2=2, chan_2=2),
    ]
    gains = {
        (1, 1, 1): 1e-6,
        (1, 2, 2): 1e-8,
    }
    fields = dict(poas=poas, ues=ues, channels=channels, gains=gains,
                  noise_psd=1e-19, tau=5e6, z_factor=0.9)
    fields.update(overrides)
    return Scenario(**fields)


def set_number(s, name, value):
    """Put ``value`` into one numeric field of the scenario."""
    if name in ("p_max", "fixed_sinr_target"):
        single = {"poa_2": None, "chan_2": None} if name == "fixed_sinr_target" else {}
        s.ues[0] = replace(s.ues[0], **single, **{name: value})
    elif name == "gain":
        s.gains[(1, 1, 1)] = value
    elif name == "bandwidth":
        s.channels[0] = replace(s.channels[0], bandwidth=value)
    elif name == "backhaul_capacity":
        s.poas[0] = replace(s.poas[0], backhaul_capacity=value)
    else:
        setattr(s, name, value)
    return s


class TestValidation:
    def test_valid_scenario_is_clean(self):
        assert validate_scenario(tiny_scenario()) == []

    def test_worked_example_is_clean(self):
        assert validate_scenario(worked_example()) == []
        assert validate_scenario(worked_example("limited_backhaul")) == []

    def test_shared_poa_channel_names_both_ues(self):
        s = tiny_scenario()
        intruder = UE(id=2, position=(5.0, 95.0), p_max=1.0,
                      poa_1=1, chan_1=1, poa_2=2, chan_2=2)
        s.ues.append(intruder)
        s.gains[(2, 1, 1)] = 1e-6
        s.gains[(2, 2, 2)] = 1e-8
        bad = validate_scenario(s)
        shared = [b for b in bad if "share PoA" in b]
        assert len(shared) == 2  # both links collide
        assert any("UE 2" in b and "UE 1" in b for b in shared)

    def test_same_channel_on_both_links(self):
        s = tiny_scenario()
        s.ues[0] = replace(s.ues[0], chan_2=1, poa_2=2)
        assert any("distinct channels" in b for b in validate_scenario(s))

    def test_poa_id_layout(self):
        # relays must come before picocells in the id order
        s = tiny_scenario()
        s.poas.insert(0, PoA(id=3, kind=PoAKind.PICOCELL, position=(50.0, 0.0),
                             backhaul_capacity=2e8))
        s.poas[1] = replace(s.poas[1], id=2)   # relay pushed behind the pico
        s.poas[2] = replace(s.poas[2], id=1)   # macro no longer last
        bad = validate_scenario(s)
        assert any("relay ids" in b for b in bad)
        assert any("macrocell id" in b for b in bad)

    def test_two_macrocells_rejected(self):
        s = tiny_scenario()
        s.poas[0] = replace(s.poas[0], kind=PoAKind.MACROCELL)
        assert any("exactly one macrocell" in b for b in validate_scenario(s))

    def test_single_link_needs_target(self):
        s = tiny_scenario()
        s.ues[0] = replace(s.ues[0], poa_2=None, chan_2=None)
        assert any("fixed_sinr_target" in b for b in validate_scenario(s))

    def test_scalar_ranges(self):
        assert any("tau" in b for b in validate_scenario(tiny_scenario(tau=0.0)))
        assert any("z_factor" in b for b in validate_scenario(tiny_scenario(z_factor=1.0)))
        s = tiny_scenario()
        s.gains[(1, 1, 1)] = -1.0
        assert any("gain" in b for b in validate_scenario(s))

    @pytest.mark.parametrize("name,value", [
        (name, value)
        for name in ("p_max", "fixed_sinr_target", "gain", "bandwidth",
                     "backhaul_capacity", "noise_psd", "tau", "z_factor")
        for value in (math.nan, math.inf, -math.inf)
        if (name, value) != ("backhaul_capacity", math.inf)  # unlimited backhaul
    ])
    def test_non_finite_numbers_rejected(self, name, value):
        s = set_number(tiny_scenario(), name, value)
        assert any(name in b for b in validate_scenario(s))

    def test_unlimited_backhaul_is_legal(self):
        s = set_number(tiny_scenario(), "backhaul_capacity", math.inf)
        assert validate_scenario(s) == []

    @pytest.mark.parametrize("where,name,value,message", [
        ("ue", "id", "1", "UE '1': id must be an integer, got '1'"),
        ("ue", "id", True, "UE True: id must be an integer, got True"),
        ("ue", "poa_1", "1", "UE 1: poa_1 must be an integer, got '1'"),
        ("ue", "chan_1", 1.0, "UE 1: chan_1 must be an integer, got 1.0"),
        ("ue", "chan_2", False, "UE 1: chan_2 must be an integer, got False"),
        ("ue", "p_max", True, "UE 1: p_max must be a number, got True"),
        ("ue", "position", ("a", 1.0), "UE 1: position must be two numbers"),
        ("poa", "id", 1.0, "PoA 1.0: id must be an integer, got 1.0"),
        ("poa", "kind", "relay", "PoA 1: kind must be one of relay, picocell, macrocell"),
        ("poa", "backhaul_capacity", "1e8", "PoA 1: backhaul_capacity must be a number"),
        ("channel", "bandwidth", True, "channel 1: bandwidth must be a number, got True"),
        ("scenario", "tau", True, "tau must be a number, got True"),
    ])
    def test_field_types_are_checked(self, where, name, value, message):
        s = tiny_scenario()
        if where == "ue":
            s.ues[0] = replace(s.ues[0], **{name: value})
        elif where == "poa":
            s.poas[0] = replace(s.poas[0], **{name: value})
        elif where == "channel":
            s.channels[0] = replace(s.channels[0], **{name: value})
        else:
            setattr(s, name, value)
        bad = validate_scenario(s)
        assert len(bad) == 1 and bad[0].startswith(message), bad

    def test_bool_gain_is_rejected(self):
        s = tiny_scenario()
        s.gains[(1, 1, 1)] = True
        assert validate_scenario(s) == ["gain (1,1,1) must be finite and > 0, got True"]

    def test_integer_numbers_are_legal(self):
        s = tiny_scenario(tau=5_000_000, noise_psd=1)
        s.ues[0] = replace(s.ues[0], p_max=2, position=(10, 90))
        s.gains[(1, 1, 1)] = 1
        assert validate_scenario(s) == []

    def test_idempotent_and_side_effect_free(self):
        s = tiny_scenario()
        before = json.dumps(scenario_to_dict(s))
        assert validate_scenario(s) == validate_scenario(s)
        assert json.dumps(scenario_to_dict(s)) == before


class TestNoisePower:
    def test_direct_products(self):
        s = tiny_scenario(noise_psd=1e-19)
        assert noise_power(s, 1, 1) == pytest.approx(1e-19 * 1e6)
        assert noise_power(s, 1, 2) == pytest.approx(1e-19 * 5e6)

    def test_ten_mhz(self):
        s = worked_example()
        assert noise_power(s, 1, 1) == pytest.approx(1e-12)  # 10 MHz link
        assert noise_power(s, 1, 2) == pytest.approx(5e-13)  # 5 MHz link

    def test_linear_in_bandwidth(self):
        s = tiny_scenario()
        doubled = tiny_scenario(
            channels=[Channel(id=1, bandwidth=2e6), Channel(id=2, bandwidth=5e6)])
        assert noise_power(doubled, 1, 1) == 2 * noise_power(s, 1, 1)

    def test_unknown_ids_raise(self):
        s = tiny_scenario()
        with pytest.raises(KeyError):
            noise_power(s, 99, 1)
        with pytest.raises(ValueError):
            noise_power(s, 1, 3)


class TestJsonRoundTrip:
    def test_dict_round_trip_is_exact(self):
        s = worked_example()
        d = scenario_to_dict(s)
        s2 = scenario_from_dict(json.loads(json.dumps(d)))
        assert scenario_to_dict(s2) == d
        assert json.dumps(scenario_to_dict(s2)) == json.dumps(d)

    def test_file_round_trip(self, tmp_path):
        s = worked_example("limited_backhaul")
        path = tmp_path / "scenario.json"
        save_scenario(s, path)
        s2 = load_scenario(path)
        assert scenario_to_dict(s2) == scenario_to_dict(s)
        assert validate_scenario(s2) == []

    def test_mixed_file_round_trip_is_stable(self, tmp_path):
        s = generate_mixed(GenParams(n_ues=6, seed=7), 3)
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        save_scenario(s, first)
        s2 = load_scenario(first)
        save_scenario(s2, second)
        assert s2 == s
        assert second.read_bytes() == first.read_bytes()
        for u in json.loads(first.read_text())["ues"]:  # unset fields are left out
            unset = {"fixed_sinr_target"} if "poa_2" in u else {"poa_2", "chan_2"}
            assert set(u) == {f.name for f in fields(UE)} - unset

    def test_unknown_keys_are_rejected(self):
        d = scenario_to_dict(worked_example())
        d["ues"][0]["poa2"] = d["ues"][0].pop("poa_2")
        with pytest.raises(TypeError, match="poa2"):
            scenario_from_dict(d)
        d = scenario_to_dict(worked_example())
        d["z"] = 0.5
        with pytest.raises(TypeError, match="'z'"):
            scenario_from_dict(d)

    def test_single_link_fields_round_trip(self):
        s = tiny_scenario()
        s.ues[0] = replace(s.ues[0], poa_2=None, chan_2=None, fixed_sinr_target=2.5)
        s2 = scenario_from_dict(scenario_to_dict(s))
        assert s2.ues[0].fixed_sinr_target == 2.5
        assert not s2.ues[0].dual
