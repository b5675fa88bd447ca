import hashlib
import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from duplink import (
    GenParams,
    PoAKind,
    SweepPoint,
    generate,
    generate_arrays,
    generate_mixed,
    monte_carlo,
    save_scenario,
    validate_scenario,
    worked_example,
)
from duplink.network import scenario_to_dict

from conftest import gain_dict, read_gain_keys


class TestGenerateStructure:
    def test_deterministic_per_seed(self):
        p = GenParams(n_ues=9, seed=77)
        a = json.dumps(scenario_to_dict(generate(p)))
        b = json.dumps(scenario_to_dict(generate(p)))
        assert a == b
        c = json.dumps(scenario_to_dict(generate(GenParams(n_ues=9, seed=78))))
        assert a != c

    def test_poa_layout(self):
        s = generate(GenParams(n_ues=4, n_relays=3, n_picos=4, seed=0))
        assert len(s.poas) == 8
        assert [p.id for p in s.relays()] == [1, 2, 3]
        assert [p.id for p in s.picos()] == [4, 5, 6, 7]
        assert s.macro().id == 8
        assert s.macro().position == (0.0, 0.0)

    def test_backhaul_scaling(self):
        s = generate(GenParams(n_ues=2, seed=0, backhaul_scale=0.5))
        assert s.relays()[0].backhaul_capacity == pytest.approx(50e6)
        assert s.picos()[0].backhaul_capacity == pytest.approx(100e6)
        assert s.macro().backhaul_capacity == pytest.approx(500e6)

    @pytest.mark.parametrize("seed", range(20))
    def test_generated_scenarios_validate(self, seed):
        s = generate(GenParams(n_ues=11, seed=seed))
        assert validate_scenario(s) == []

    def test_links_follow_two_tier_rule(self):
        s = generate(GenParams(n_ues=10, seed=5))
        macro_id = s.macro().id
        for u in s.ues:
            assert u.poa_2 == macro_id
            assert u.poa_1 != macro_id
            # nearest small cell
            d_own = math.dist(u.position, s.poas[u.poa_1 - 1].position)
            for q in s.poas:
                if q.kind is not PoAKind.MACROCELL:
                    assert d_own <= math.dist(u.position, q.position) + 1e-9

    def test_ue_positions_within_radius(self):
        p = GenParams(n_ues=14, radius_m=150.0, seed=9)
        s = generate(p)
        small = [q for q in s.poas if q.kind is not PoAKind.MACROCELL]
        for u in s.ues:
            assert min(math.dist(u.position, q.position) for q in small) <= 150.0 + 1e-9

    def test_macro_channels_private(self):
        s = generate(GenParams(n_ues=12, seed=3))
        chans = [u.chan_2 for u in s.ues]
        assert len(set(chans)) == len(chans)

    def test_min_separation_honored(self):
        p = GenParams(n_ues=6, n_relays=2, n_picos=2, seed=4,
                      min_poa_separation=400.0)
        s = generate(p)
        pts = [q.position for q in s.poas]
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                assert math.dist(pts[i], pts[j]) >= 400.0

    def test_exhausted_separation_retries_raise(self):
        # five PoAs in 3 km x 3.2 km can never sit 5 km apart
        with pytest.raises(ValueError, match="min_poa_separation"):
            generate(GenParams(n_ues=4, n_relays=2, n_picos=2, seed=1,
                               min_poa_separation=5000.0))

    def test_parameter_validation(self):
        for params, message in ((GenParams(n_ues=-1), "counts must be >= 0"),
                                (GenParams(n_relays=-1), "counts must be >= 0"),
                                (GenParams(n_picos=-1), "counts must be >= 0"),
                                (GenParams(radius_m=0.0), "radius_m must be > 0"),
                                (GenParams(radius_m=-5.0), "radius_m must be > 0")):
            with pytest.raises(ValueError, match=message):
                generate(params)
        with pytest.raises(ValueError):
            generate(GenParams(n_ues=2, n_relays=0, n_picos=0))
        with pytest.raises(ValueError):
            generate(GenParams(alpha=1.0))
        with pytest.raises(ValueError):
            generate(GenParams(backhaul_scale=0.0))
        with pytest.raises(ValueError, match="small cell"):
            generate_mixed(GenParams(n_ues=0, n_relays=0, n_picos=0), 3)
        # Each value below would fill a scenario field that validate_scenario
        # rejects, or fail inside numpy; it is named before any draw.
        for field, value, message in (
                ("backhaul_scale", math.nan, "backhaul_scale must be > 0"),
                ("eta_relay", -5e6, r"eta_relay \* backhaul_scale must be >= 0 "
                                    r"\(inf for unlimited\), got -5000000.0"),
                ("eta_macro", math.nan, r"eta_macro \* backhaul_scale must be >= 0"),
                ("radius_m", math.nan, "radius_m must be > 0 and finite, got nan"),
                ("radius_m", math.inf, "radius_m must be > 0 and finite, got inf"),
                ("min_poa_separation", math.inf, "min_poa_separation must be finite, got inf"),
                ("min_poa_separation", math.nan, "min_poa_separation must be finite, got nan"),
                ("tau", math.nan, "tau must be finite and > 0, got nan"),
                ("tau", 0.0, "tau must be finite and > 0, got 0.0"),
                ("p_max", math.nan, "p_max must be finite and > 0, got nan"),
                ("noise_psd", math.inf, "noise_psd must be finite and > 0, got inf"),
                ("gain_scale", -1.0, "gain_scale must be finite and > 0, got -1.0"),
                ("z_factor", 1.0, r"z_factor must be in \(0, 1\), got 1.0"),
                ("z_factor", math.nan, r"z_factor must be in \(0, 1\), got nan"),
                ("bandwidth_choices", (), r"bandwidth_choices must be one or more finite "
                                          r"numbers > 0, got \(\)"),
                ("bandwidth_choices", (1e6, math.inf), "bandwidth_choices must be one or more"),
                ("bandwidth_choices", (0.0,), "bandwidth_choices must be one or more")):
            for make in (generate, generate_arrays):
                with pytest.raises(ValueError, match=message):
                    make(GenParams(n_ues=6, **{field: value}))
        for beta_range in ((0.0, 1.0), (1.0, math.inf), (math.nan, 2.0)):
            with pytest.raises(ValueError, match="beta_range must be finite numbers > 0"):
                generate_mixed(GenParams(n_ues=2), 3, beta_range)
        # monte_carlo builds no Scenario, so these checks are its only gate.
        # Without them this sweep runs, and its bdt row on a NaN tau reads
        # "converged".
        point = SweepPoint("x", 1, GenParams(n_ues=6, tau=math.nan))
        with pytest.raises(ValueError, match="tau must be finite and > 0, got nan"):
            monte_carlo([point], ("bdt", "wf"), trials=1, seeds=0)

    @pytest.mark.parametrize("make,message", [
        (lambda: generate(GenParams(n_ues=2.5)), "^n_ues must be an integer, got 2.5$"),
        (lambda: generate(GenParams(n_relays=True)), "^n_relays must be an integer, got True$"),
        (lambda: generate_arrays(GenParams(n_picos=4.0)), "^n_picos must be an integer, got 4.0$"),
        (lambda: generate_mixed(GenParams(n_ues=2), 1.5), "^n_fixed must be an integer, got 1.5$"),
        (lambda: generate(GenParams(seed=1.0)), "^seed must be an integer, got 1.0$"),
        (lambda: generate(GenParams(seed="1")), "^seed must be an integer, got '1'$")])
    def test_counts_and_seed_must_be_integers(self, make, message):
        # At the parent numpy raised "'float' object cannot be interpreted as
        # an integer" or drew a scenario, naming no parameter.
        with pytest.raises(TypeError, match=message):
            make()

    def test_negative_fixed_count_is_named(self):
        with pytest.raises(ValueError, match="^n_fixed must be >= 0$"):
            generate_mixed(GenParams(n_ues=2), -1)

    def test_negative_seed_is_named(self):
        # numpy's "expected non-negative integer" named no parameter.
        with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
            generate(GenParams(seed=-1))

    def test_numpy_integer_counts_draw_the_same_scenario(self):
        i = np.int64
        got = generate_mixed(GenParams(n_ues=i(3), n_relays=i(1), n_picos=i(2), seed=i(4)), i(2))
        want = generate_mixed(GenParams(n_ues=3, n_relays=1, n_picos=2, seed=4), 2)
        assert scenario_to_dict(got) == scenario_to_dict(want)

    @pytest.mark.parametrize("beta_range,message", [
        ((4.0, 1.0), r"^beta_range must have low <= high, got \(4.0, 1.0\)$"),
        ((1.0, 2.0, 3.0), r"^beta_range must be two numbers \(low, high\), got \(1.0, 2.0, 3.0\)$"),
        ((1.0,), r"^beta_range must be two numbers \(low, high\), got \(1.0,\)$"),
        (2.0, r"^beta_range must be two numbers \(low, high\), got 2.0$")])
    def test_beta_range_is_two_numbers_low_to_high(self, beta_range, message):
        # At the parent numpy raised "high - low < 0" or "uniform() got
        # multiple values for keyword argument 'size'".
        with pytest.raises(ValueError, match=message):
            generate_mixed(GenParams(n_ues=2, seed=1), 2, beta_range)

    def test_equal_beta_range_ends_fix_every_target(self):
        s = generate_mixed(GenParams(n_ues=2, seed=1), 3, (2.5, 2.5))
        assert [u.fixed_sinr_target for u in s.ues if not u.dual] == [2.5] * 3


@st.composite
def generator_inputs(draw):
    """(GenParams, n_fixed) over small networks, separation included."""
    n_relays = draw(st.integers(0, 4))
    params = GenParams(
        n_ues=draw(st.integers(0, 12)),
        n_relays=n_relays,
        n_picos=draw(st.integers(0 if n_relays else 1, 4)),
        radius_m=draw(st.floats(50.0, 600.0)),
        min_poa_separation=draw(st.sampled_from([0.0, 250.0, 400.0])),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    return params, draw(st.integers(0, 5))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(generator_inputs())
@example((GenParams(n_ues=0, seed=1), 0))                       # no UEs
@example((GenParams(n_ues=0, n_relays=2, n_picos=2, seed=3), 5))  # fixed-SINR only
@example((GenParams(n_ues=9, n_relays=3, n_picos=0, seed=4), 2))  # relays only
@example((GenParams(n_ues=9, n_relays=0, n_picos=3, seed=5), 2))  # picocells only
@example((GenParams(n_ues=5, n_relays=1, n_picos=0, seed=6), 3))  # one small cell
@example((GenParams(n_ues=24, n_relays=8, n_picos=0, min_poa_separation=400.0, seed=3), 0))
@example((GenParams(n_ues=21, seed=7), 0))                      # gen21
@example((GenParams(n_ues=6, seed=7), 3))                       # mixed6+3
@example((GenParams(n_ues=160, n_relays=8, n_picos=12, seed=1), 40))  # mixed160+40
def test_generated_layout_follows_the_recipe(inputs):
    p, n_fixed = inputs
    s = generate_mixed(p, n_fixed) if n_fixed else generate(p)
    assert validate_scenario(s) == []
    assert len(s.ues) == p.n_ues + n_fixed and sum(u.dual for u in s.ues) == p.n_ues
    pts = [q.position for q in s.poas]
    assert all(math.dist(a, b) >= p.min_poa_separation
               for i, a in enumerate(pts) for b in pts[i + 1:])
    small = [q for q in s.poas if q.kind is not PoAKind.MACROCELL]
    cell_chans: dict[int, list[int]] = {}
    for u in s.ues:
        assert u.poa_1 == min(small, key=lambda q: math.dist(u.position, q.position)).id
        cell_chans.setdefault(u.poa_1, []).append(u.chan_1)
    for chans in cell_chans.values():
        assert chans == list(range(1, len(chans) + 1))
    macro_chans = [u.chan_2 for u in s.ues if u.dual]
    assert all(u.poa_2 == s.macro().id for u in s.ues if u.dual)
    assert len(set(macro_chans)) == len(macro_chans)
    assert not set(macro_chans) & {u.chan_1 for u in s.ues}
    # Stored: each link's own path and the path into it from every other UE
    # on its channel, the gains the model reads; none missing, none extra.
    assert set(gain_dict(s)) == read_gain_keys(s)


class TestGeneratorBytes:
    """The saved bytes of five generated files are pinned, so a change that
    moves the last bit of any position, bandwidth or gain, or the order of
    the draws, or a byte of the writer, fails here. sep24 needs a second PoA
    layout draw; empty0 has no gains; mixed160+40 is the
    ``scenario/mixed160+40_contractive.json`` line of
    ``tools/output_digests.py``."""

    @pytest.mark.parametrize("make,digest", [
        (lambda: generate(GenParams(n_ues=21, seed=7)),
         "2717454644d2ff53b46f0e3fdd62d294766303bb82e92c42372c09a4432448d7"),
        (lambda: generate_mixed(GenParams(n_ues=6, seed=7), 3),
         "a5b00fbd74356882602748e47e8b0365cf0ac352110565efc9adeb6dd329a14e"),
        (lambda: generate(GenParams(n_ues=24, n_relays=8, n_picos=0, eta_relay=50e6,
                                    eta_pico=50e6, min_poa_separation=400.0, seed=3)),
         "b408572f990f226847c656e68b17e149ffefd5a01693ad5bc974a9ee0e8ee346"),
        (lambda: generate(GenParams(n_ues=0, seed=3)),
         "c6ded5d0123853904041639bcc85eac68a0bc57e1c4d0873a04b1af04769382a"),
        (lambda: generate_mixed(GenParams(n_ues=160, n_relays=8, n_picos=12, seed=1), 40),
         "9fa315ef65f89c69b0b90462e90c4de36efda74fbeba6f5950a387b34b5663a7"),
    ], ids=["gen21", "mixed6+3", "sep24", "empty0", "mixed160+40"])
    def test_saved_bytes_are_pinned(self, tmp_path, make, digest):
        path = tmp_path / "scenario.json"
        save_scenario(make(), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


class TestFadingStatistics:
    def test_unit_mean_kappa(self):
        # recover the fading draws from the stored gains; 1e5 of them should
        # average to 1 within one percent
        kappas = []
        seed = 0
        while len(kappas) < 100_000:
            s = generate(GenParams(n_ues=30, n_relays=5, n_picos=5, seed=seed))
            for (ue_id, poa_id, _), gain in gain_dict(s).items():
                d = max(1.0, math.dist(s.ues[ue_id - 1].position, s.poas[poa_id - 1].position))
                kappas.append(gain / (100.0 * d ** -3.7))
            seed += 1
        mean = float(np.mean(kappas[:100_000]))
        assert 0.99 <= mean <= 1.01

    def test_path_loss_exponent_recovered(self):
        # log-log regression of gain on distance across the population
        logs_d, logs_g = [], []
        for seed in range(30):
            s = generate(GenParams(n_ues=20, n_relays=4, n_picos=4, seed=seed))
            for (ue_id, poa_id, _), gain in gain_dict(s).items():
                d = max(1.0, math.dist(s.ues[ue_id - 1].position, s.poas[poa_id - 1].position))
                logs_d.append(math.log(d))
                logs_g.append(math.log(gain))
        slope, _ = np.polyfit(logs_d, logs_g, 1)
        assert abs(-slope - 3.7) / 3.7 < 0.05


class TestGenerateMixed:
    def test_structure_and_validity(self):
        s = generate_mixed(GenParams(n_ues=3, n_relays=2, n_picos=2, seed=21),
                           n_fixed=2, beta_range=(1.5, 2.5))
        assert validate_scenario(s) == []
        duals = [u for u in s.ues if u.dual]
        fixed = [u for u in s.ues if not u.dual]
        assert len(duals) == 3 and len(fixed) == 2
        for u in fixed:
            assert 1.5 <= u.fixed_sinr_target <= 2.5
            assert u.poa_1 != s.macro().id

    def test_fixed_ues_never_touch_macro_channels(self):
        s = generate_mixed(GenParams(n_ues=4, n_relays=2, n_picos=2, seed=8),
                           n_fixed=4)
        macro_chans = {u.chan_2 for u in s.ues if u.dual}
        for u in s.ues:
            if not u.dual:
                assert u.chan_1 not in macro_chans

    def test_deterministic(self):
        p = GenParams(n_ues=2, n_relays=2, n_picos=1, seed=5)
        a = json.dumps(scenario_to_dict(generate_mixed(p, 3)))
        b = json.dumps(scenario_to_dict(generate_mixed(p, 3)))
        assert a == b


class TestWorkedExample:
    def test_validates(self):
        assert validate_scenario(worked_example()) == []

    def test_geometry(self):
        s = worked_example()
        assert [p.position for p in s.poas] == [
            (-2000.0, 0.0),  # relay
            (2000.0, 0.0),   # pico
            (0.0, 0.0),      # macro
        ]
        assert s.ues[0].position == (-2000.0, -2000.0)
        assert s.ues[1].position == (2000.0, -2000.0)

    def test_cases_share_radio_geometry(self):
        high = scenario_to_dict(worked_example("high_backhaul"))
        limited = scenario_to_dict(worked_example("limited_backhaul"))
        for field in ("ues", "channels", "gains", "noise_psd", "tau", "z_factor"):
            assert high[field] == limited[field]
        caps_high = [p["backhaul_capacity"] for p in high["poas"]]
        caps_lim = [p["backhaul_capacity"] for p in limited["poas"]]
        assert all(h > l for h, l in zip(caps_high, caps_lim))

    def test_unknown_case(self):
        with pytest.raises(ValueError):
            worked_example("nope")

    def test_channel_sharing_pattern(self):
        s = worked_example()
        a, b = s.ues
        assert a.chan_1 == b.chan_1          # shared 10 MHz channel
        assert a.chan_2 == b.chan_2          # shared 5 MHz channel
        assert a.poa_1 != b.poa_1            # ...but at different PoAs
        assert a.poa_2 != b.poa_2
        counts = Counter((s.channels[c - 1].bandwidth for c in (a.chan_1, a.chan_2)))
        assert counts == Counter({10e6: 1, 5e6: 1})
