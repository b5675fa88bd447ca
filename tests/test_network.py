import json
import math
from dataclasses import fields, replace

import numpy as np
import pytest

from duplink import (
    UE,
    Channel,
    Gains,
    GenParams,
    PoA,
    PoAKind,
    Scenario,
    build_matrices,
    generate_mixed,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    validate_scenario,
    worked_example,
)

from conftest import gain_dict, with_gains


def tiny_scenario(**overrides):
    poas = [
        PoA(id=1, kind=PoAKind.RELAY, position=(0.0, 100.0), backhaul_capacity=1e8),
        PoA(id=2, kind=PoAKind.MACROCELL, position=(0.0, 0.0), backhaul_capacity=1e9),
    ]
    channels = [Channel(id=1, bandwidth=1e6), Channel(id=2, bandwidth=5e6)]
    ues = [
        UE(id=1, position=(10.0, 90.0), p_max=1.0, poa_1=1, chan_1=1, poa_2=2, chan_2=2),
    ]
    gains = Gains.from_rows([[1, 1, 1, 1e-6], [1, 2, 2, 1e-8]])
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
        s = with_gains(s, {**gain_dict(s), (1, 1, 1): value})
    elif name == "bandwidth":
        s.channels[0] = replace(s.channels[0], bandwidth=value)
    elif name == "backhaul_capacity":
        s.poas[0] = replace(s.poas[0], backhaul_capacity=value)
    else:
        setattr(s, name, value)
    return s


def with_field(s, where, name, value):
    """``s`` with field ``name`` of its first UE, PoA or channel, or of the
    scenario itself, set to ``value``."""
    if where == "scenario":
        setattr(s, name, value)
    else:
        objs = {"ue": s.ues, "poa": s.poas, "channel": s.channels}[where]
        objs[0] = replace(objs[0], **{name: value})
    return s


class TestValidation:
    def test_valid_scenario_is_clean(self):
        assert validate_scenario(tiny_scenario()) == []

    def test_worked_example_is_clean(self):
        assert validate_scenario(worked_example()) == []
        assert validate_scenario(worked_example("limited_backhaul")) == []

    def test_macro_of_a_scenario_without_one(self):
        s = worked_example()
        no_macro = replace(s, poas=[p for p in s.poas if p.kind is not PoAKind.MACROCELL])
        with pytest.raises(ValueError, match="^scenario has no macrocell$"):
            no_macro.macro()

    def test_shared_poa_channel_names_both_ues(self):
        s = tiny_scenario()
        intruder = UE(id=2, position=(5.0, 95.0), p_max=1.0,
                      poa_1=1, chan_1=1, poa_2=2, chan_2=2)
        s.ues.append(intruder)
        s = with_gains(s, {**gain_dict(s), (2, 1, 1): 1e-6, (2, 2, 2): 1e-8})
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
        s = with_gains(s, {**gain_dict(s), (1, 1, 1): -1.0})
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
        bad = validate_scenario(with_field(tiny_scenario(), where, name, value))
        assert len(bad) == 1 and bad[0].startswith(message), bad

    @pytest.mark.parametrize("where,name", [
        *(("ue", name) for name in ("id", "position", "p_max", "poa_1", "chan_1", "poa_2",
                                    "chan_2", "fixed_sinr_target")),
        *(("poa", name) for name in ("id", "kind", "position", "backhaul_capacity")),
        *(("channel", name) for name in ("id", "bandwidth")),
        *(("scenario", name) for name in ("noise_psd", "tau", "z_factor")),
    ])
    def test_every_field_is_type_checked(self, where, name):
        # The column-wise pass must decline every bad field, so that the
        # walk field by field names it.
        bad = validate_scenario(with_field(tiny_scenario(), where, name, "x"))
        assert len(bad) == 1 and f"{name} must be " in bad[0], bad

    def test_bool_gain_is_rejected(self):
        # The loader stops a bool gain, naming its row.
        d = scenario_to_dict(tiny_scenario())
        d["gains"][0][3] = True
        with pytest.raises(TypeError, match=r"gain row \[1, 1, 1, True\] must be"):
            scenario_from_dict(d)

    def test_integer_numbers_are_legal(self):
        s = tiny_scenario(tau=5_000_000, noise_psd=1)
        s.ues[0] = replace(s.ues[0], p_max=2, position=(10, 90))
        d = scenario_to_dict(s)
        d["gains"][0][3] = 1
        s = scenario_from_dict(d)
        assert validate_scenario(s) == []
        assert scenario_to_dict(s)["gains"][0] == [1, 1, 1, 1.0]  # written back as a float

    def test_channel_ids_run_from_one(self):
        s = tiny_scenario()
        s.channels[1] = replace(s.channels[1], id=5)
        assert "channel ids must be 1..2, got [1, 5]" in validate_scenario(s)

    def test_gain_of_unknown_id_is_rejected(self):
        for key in ((2, 1, 1), (1, 3, 1), (1, 1, 3), (0, 1, 1)):
            s = with_gains(tiny_scenario(), {**gain_dict(tiny_scenario()), key: 1e-7})
            u, p, c = key
            assert validate_scenario(s) == [
                f"gain ({u},{p},{c}) names no UE, PoA or channel of the scenario"]

    def test_unsorted_gain_arrays_are_rejected(self):
        g = tiny_scenario().gains
        s = tiny_scenario(gains=Gains(g.keys[::-1], g.values[::-1]))
        assert validate_scenario(s) == [
            "gain keys must be unique (ue, poa, chan) rows in increasing order"]

    def test_idempotent_and_side_effect_free(self):
        s = tiny_scenario()
        before = json.dumps(scenario_to_dict(s))
        assert validate_scenario(s) == validate_scenario(s)
        assert json.dumps(scenario_to_dict(s)) == before


class TestNoisePower:
    """The noise power noise_psd * bandwidth of a link, normalized by the
    link's own gain, is ``d1``/``d2`` of ``build_matrices``."""

    def test_direct_products(self):
        m = build_matrices(tiny_scenario(noise_psd=1e-19))
        assert m.d1[0] == pytest.approx(1e-19 * 1e6 / 1e-6)
        assert m.d2[0] == pytest.approx(1e-19 * 5e6 / 1e-8)

    def test_ten_mhz(self):
        s = worked_example()
        m = build_matrices(s)
        gains = gain_dict(s)
        assert m.d1[0] * gains[(1, 1, 1)] == pytest.approx(1e-12)  # 10 MHz link
        assert m.d2[0] * gains[(1, 3, 2)] == pytest.approx(5e-13)  # 5 MHz link

    def test_linear_in_bandwidth(self):
        s = tiny_scenario()
        doubled = tiny_scenario(
            channels=[Channel(id=1, bandwidth=2e6), Channel(id=2, bandwidth=5e6)])
        assert build_matrices(doubled).d1[0] == 2 * build_matrices(s).d1[0]
        assert build_matrices(doubled).d2[0] == build_matrices(s).d2[0]

    def test_unknown_ids_raise(self):
        # A link whose own gain is absent names the missing key.
        s = with_gains(tiny_scenario(), {(1, 2, 2): 1e-8})
        with pytest.raises(KeyError, match="own-link gain: UE 1 -> PoA 1 on channel 1"):
            build_matrices(s)
        s = with_gains(tiny_scenario(), {(1, 1, 1): 1e-6})
        with pytest.raises(KeyError, match="own-link gain: UE 1 -> PoA 2 on channel 2"):
            build_matrices(s)


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
        assert scenario_to_dict(s2) == scenario_to_dict(s)
        assert second.read_bytes() == first.read_bytes()
        for u in json.loads(first.read_text())["ues"]:  # unset fields are left out
            unset = {"fixed_sinr_target"} if "poa_2" in u else {"poa_2", "chan_2"}
            assert set(u) == {f.name for f in fields(UE)} - unset

    def test_superset_file_loads_and_builds_the_same(self, tmp_path):
        # Files from earlier versions also hold the path from every UE into
        # every link, on the link's channel. The loader validates those rows;
        # the network never reads them.
        s = generate_mixed(GenParams(n_ues=6, seed=7), 3)
        links = ([(u.poa_1, u.chan_1) for u in s.ues]
                 + [(u.poa_2, u.chan_2) for u in s.ues if u.dual])
        rng = np.random.default_rng(5)
        cube = {(u.id, poa, chan): rng.uniform(1e-12, 1.0) for u in s.ues for poa, chan in links}
        full = with_gains(s, {**cube, **gain_dict(s)})
        assert len(full.gains.values) == len(s.ues) * len(links) > len(s.gains.values)
        path = tmp_path / "scenario.json"
        save_scenario(full, path)
        loaded = load_scenario(path)
        assert validate_scenario(loaded) == []
        assert scenario_to_dict(loaded) == scenario_to_dict(full)
        got, want = build_matrices(loaded), build_matrices(s)
        for f in fields(want):
            a, b = getattr(got, f.name), getattr(want, f.name)
            assert np.asarray(a).dtype == np.asarray(b).dtype, f.name
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), f.name

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


class TestGainRows:
    def test_rows_in_any_order_are_sorted(self):
        g = Gains.from_rows([[2, 1, 1, 0.5], [1, 2, 2, 0.25], [1, 2, 1, 1.0]])
        assert g.keys.tolist() == [[1, 2, 1], [1, 2, 2], [2, 1, 1]]
        assert g.values.tolist() == [1.0, 0.25, 0.5]
        assert g.keys.dtype == np.int64 and g.values.dtype == np.float64

    def test_no_rows(self):
        g = Gains.from_rows([])
        assert g.keys.shape == (0, 3) and g.values.shape == (0,)

    @pytest.mark.parametrize("rows,error,message", [
        ([[1, 1, 1]], TypeError, r"gain row \[1, 1, 1\] must be \[ue_id, poa_id, chan_id, "
                                 r"value\] with 64-bit integer ids and an int or float value"),
        ([[1, 1, 1, 0.5, 2]], TypeError, r"gain row \[1, 1, 1, 0.5, 2\] must be"),
        ([[1, 1, 1, 0.5], 7], TypeError, r"gain row 7 must be"),
        ([[1, 1, 1], [1, 2, 1, 0.5, 2]], TypeError, r"gain row \[1, 1, 1\] must be"),
        ({"a": 1}, TypeError, r"gains must be a list .* got dict"),
        ([[1, 1.5, 1, 0.5]], TypeError, r"gain row \[1, 1.5, 1, 0.5\] must be"),
        ([[1, True, 1, 0.5]], TypeError, r"gain row \[1, True, 1, 0.5\] must be"),
        ([[2 ** 63, 1, 1, 0.5]], TypeError, r"gain row \[9223372036854775808, 1, 1, 0.5\]"),
        ([[1, 1, 1, "0.5"]], TypeError, r"gain row \[1, 1, 1, '0.5'\] must be"),
        ([[1, 1, 1, 0.5], [1, 1, 1, 123.0]], ValueError, r"gain \(1,1,1\) is given more than once"),
        ([[1, 1, 1, 0.5], [1, 2, 1, 10 ** 400]], TypeError,
         r"gain row \[1, 2, 1, 10{400}\] must be .* in float64 range"),
    ])
    def test_malformed_rows_are_named(self, rows, error, message):
        with pytest.raises(error, match=message):
            Gains.from_rows(rows)


def _layouts() -> dict[str, str]:
    """Scenario texts, well formed and not, for the loader."""
    d = scenario_to_dict(generate_mixed(GenParams(n_ues=3, n_relays=1, n_picos=1, seed=7), 2))
    rows = d["gains"]

    def dump(**edits):
        return json.dumps({**d, **edits}, separators=(",", ":"))

    def with_row(snippet, at=1):  # one raw row of text among the others
        return dump(gains=[*rows[:at], "ROW", *rows[at:]]).replace('"ROW"', snippet)

    gains_first = {"gains": rows, **{k: v for k, v in d.items() if k != "gains"}}
    odd_meta = {"gains": [[1, 2], [3]], "text": "]], [ ]\t, [ } ],[", "]]": [[[]]]}
    nest = "[" * 5000 + "]" * 5000
    return {
        # well formed: these load
        "indent2": json.dumps(d, indent=2),
        "tab": json.dumps(d, indent="\t"),
        "compact": dump(),
        "spaced": json.dumps(d),
        "gains_first": json.dumps(gains_first, indent=2),
        "keys_reversed": json.dumps(dict(reversed(d.items()))),
        "meta_after_gains": json.dumps({**d, "meta": odd_meta}, indent=2),
        "meta_before_gains": json.dumps({"meta": odd_meta, **gains_first}, indent=1),
        "non_finite": with_row("[1,1,9,NaN],[1,1,8,Infinity],[1,1,7,-Infinity]"),
        "int_value": with_row("[1,1,9,1]"),
        "unsorted": dump(gains=rows[::-1]),
        "no_rows": dump(gains=[]),
        "no_poas": json.dumps({k: v for k, v in d.items() if k != "poas"}),
        "unknown_key": dump(z=0.5),
        # and these raise
        "duplicate": dump(gains=[*rows, [*rows[0][:3], 123.0]]),
        "huge_int": with_row("[1,1,9,1" + "0" * 400 + "]"),
        "leading_zero": with_row("[01,1,1,0.5]"),
        "plus": with_row("[+1,1,1,0.5]"),
        "bare_point": with_row("[1,1,1,.5]"),
        "two_numbers": with_row("[1 2,1,1,0.5]"),
        "empty_slot_in_row": with_row("[1,,1,0.5]"),
        "empty_slot": with_row(""),
        "three_entries": with_row("[1,1,1]"),
        "five_entries": with_row("[1,1,1,0.5,2]"),
        "one_float": with_row("[1.0]"),
        "true": with_row("true"),
        "null": with_row("null"),
        "bool_value": with_row("[1,1,1,true]"),
        "string_value": with_row('[1,1,1,"],[1,1,1,2"]'),
        "object_row": with_row('{"a":[1]}'),
        "nested_row": with_row("[[1,1,1,0.5]]"),
        "deep_row": with_row(nest),
        "first_row_bad": with_row("[1,1,1]", at=0),
        "last_row_bad": with_row("[1,1,1]", at=len(rows)),
        "trailing_comma": dump(gains=[*rows, "ROW"]).replace(',"ROW"', ","),
        "gains_object": dump(gains={"a": 1}),
        "gains_twice": dump()[:-1] + ',"gains":[[1,1,1,0.5]]}',
        "no_gains": json.dumps({k: v for k, v in d.items() if k != "gains"}),
        "semicolon": dump().replace('"tau":', '"tau";'),
        "semicolon_between_keys": dump().replace(',"tau"', ';"tau"'),
        "bare_key": dump().replace('"tau"', "tau"),
        "bom": "\ufeff" + dump(),
        "trailing_data": dump() + " x",
        "trailing_object": dump() + "{}",
        "top_level_list": json.dumps([d]),
        "deep_poas": '{"poas": ' + nest + "}",
        "empty_object": "{}",
        "empty_text": "",
    }


LAYOUTS = _layouts()
LOADS = ("indent2", "tab", "compact", "spaced", "gains_first", "keys_reversed",
         "meta_after_gains", "meta_before_gains", "non_finite", "int_value",
         "unsorted", "no_rows", "gains_twice")


def _outcome(read):
    """What reading gives: the scenario with its gain arrays' bytes, or the
    type and message of the error."""
    try:
        s = read()
    except (ValueError, TypeError, KeyError, RecursionError) as exc:
        return type(exc), str(exc)
    keys, values = s.gains
    return (repr(replace(s, gains=None)), keys.dtype, keys.shape, keys.tobytes(),
            values.dtype, values.tobytes())


class TestBlockReader:
    """``load_scenario`` reads the file as one block of text and parses it
    with ``json.loads``: on any text it returns what
    ``scenario_from_dict(json.loads(text))`` returns, or raises the same
    error. Only errors that ``duplink run`` reports with exit code 3 are
    caught. Each text is followed by a block of JSON whitespace, which
    changes no scenario."""

    @pytest.mark.parametrize("block", [1, 37, 300, 100_000])
    @pytest.mark.parametrize("name", LAYOUTS)
    def test_same_as_json_loads(self, tmp_path, name, block):
        # A repeated "gains" key is legal JSON; the last one wins.
        text = LAYOUTS[name] + (" \n\t" * block)[:block]
        path = tmp_path / "scenario.json"
        path.write_text(text)
        expected = _outcome(lambda: scenario_from_dict(json.loads(text)))
        assert _outcome(lambda: load_scenario(path)) == expected
        loads = not isinstance(expected[0], type)
        assert loads == (name in LOADS)
        if loads:
            assert expected == _outcome(lambda: scenario_from_dict(json.loads(LAYOUTS[name])))
