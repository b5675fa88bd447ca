"""Immutable description of a two-tier uplink network.

A single macrocell base station (MBS) is overlaid with relays and picocell
base stations; together these are the points of access (PoAs). Every user
equipment (UE) holds up to two simultaneous uplink connections on orthogonal
channels. Single-link UEs carry a fixed SINR target instead of a second link.

Channel power gains are stored pre-composed (path loss x fading), keyed by
(transmitter UE id, receiver PoA id, channel id), so the metrics layer never
re-derives geometry. Positions are in meters, bandwidths in Hz, powers in
watts, rates in bit/s.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from enum import Enum
from pathlib import Path
from typing import Optional

import numpy as np

GainKey = tuple[int, int, int]  # (ue id, poa id, channel id)


class PoAKind(str, Enum):
    RELAY = "relay"
    PICOCELL = "picocell"
    MACROCELL = "macrocell"


@dataclass(frozen=True)
class PoA:
    """Point of access. Relays forward their traffic through the macrocell."""

    id: int
    kind: PoAKind
    position: tuple[float, float]
    backhaul_capacity: float


@dataclass(frozen=True)
class Channel:
    id: int
    bandwidth: float


@dataclass(frozen=True)
class UE:
    """User equipment with one or two uplink access links.

    Dual-connectivity UEs set both (poa_1, chan_1) and (poa_2, chan_2).
    Single-link UEs leave the second link unset and must carry
    ``fixed_sinr_target``.
    """

    id: int
    position: tuple[float, float]
    p_max: float
    poa_1: int
    chan_1: int
    poa_2: Optional[int] = None
    chan_2: Optional[int] = None
    fixed_sinr_target: Optional[float] = None

    @property
    def dual(self) -> bool:
        return self.poa_2 is not None

    def link(self, x: int) -> tuple[int, int]:
        """(poa id, channel id) of access link x in {1, 2}."""
        if x == 1:
            return self.poa_1, self.chan_1
        if x == 2 and self.dual:
            return self.poa_2, self.chan_2
        raise ValueError(f"UE {self.id} has no access link {x}")


@dataclass
class Scenario:
    """Complete network description, immutable by convention after build.

    ``gains`` maps (transmitter UE id, receiver PoA id, channel id) to the
    dimensionless channel power gain on that path. ``tau`` is the tolerable
    backhaul overload (bit/s) and ``z_factor`` the multiplicative power
    reduction constant in (0, 1) used by the backhaul-state policy.
    """

    poas: list[PoA]
    ues: list[UE]
    channels: list[Channel]
    gains: dict[GainKey, float]
    noise_psd: float
    tau: float
    z_factor: float
    meta: dict = field(default_factory=dict)

    def poa(self, poa_id: int) -> PoA:
        for p in self.poas:
            if p.id == poa_id:
                return p
        raise KeyError(f"unknown PoA id {poa_id}")

    def channel(self, chan_id: int) -> Channel:
        for c in self.channels:
            if c.id == chan_id:
                return c
        raise KeyError(f"unknown channel id {chan_id}")

    def ue(self, ue_id: int) -> UE:
        for u in self.ues:
            if u.id == ue_id:
                return u
        raise KeyError(f"unknown UE id {ue_id}")

    @property
    def n_ues(self) -> int:
        return len(self.ues)

    def relays(self) -> list[PoA]:
        return [p for p in self.poas if p.kind is PoAKind.RELAY]

    def picos(self) -> list[PoA]:
        return [p for p in self.poas if p.kind is PoAKind.PICOCELL]

    def macro(self) -> PoA:
        for p in self.poas:
            if p.kind is PoAKind.MACROCELL:
                return p
        raise ValueError("scenario has no macrocell")


def noise_power(s: Scenario, ue_id: int, link: int) -> float:
    """Noise power n = noise_psd * bandwidth on the given access link."""
    ue = s.ue(ue_id)
    _, chan_id = ue.link(link)
    return s.noise_psd * s.channel(chan_id).bandwidth


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _positive(x) -> bool:
    """A finite number > 0; NaN, infinities, bools and non-numbers fail."""
    return _is_number(x) and 0 < x < math.inf


def _is_point(x) -> bool:
    return isinstance(x, (tuple, list)) and len(x) == 2 and all(map(_is_number, x))


# (what a field must be, its test); None is legal only in the optional fields.
_INTEGER = ("an integer", _is_int)
_NUMBER = ("a number", _is_number)
_POINT = ("two numbers", _is_point)
_OPTIONAL = ("poa_2", "chan_2", "fixed_sinr_target")


def _type_errors(s: Scenario) -> list[str]:
    """One message per field of the wrong type: ids and links must be
    integers and the other numbers int or float, never bool."""
    bad: list[str] = []

    def check(label: str, obj, names: tuple[str, ...], rule) -> None:
        kind, ok = rule
        for name in names:
            value = getattr(obj, name)
            if not (ok(value) or (value is None and name in _OPTIONAL)):
                bad.append(f"{label}{name} must be {kind}, got {value!r}")

    check("", s, ("noise_psd", "tau", "z_factor"), _NUMBER)
    for p in s.poas:
        label = f"PoA {p.id!r}: "
        check(label, p, ("id",), _INTEGER)
        check(label, p, ("backhaul_capacity",), _NUMBER)
        check(label, p, ("position",), _POINT)
        if not isinstance(p.kind, PoAKind):
            bad.append(f"{label}kind must be one of "
                       f"{', '.join(k.value for k in PoAKind)}, got {p.kind!r}")
    for c in s.channels:
        check(f"channel {c.id!r}: ", c, ("id",), _INTEGER)
        check(f"channel {c.id!r}: ", c, ("bandwidth",), _NUMBER)
    for u in s.ues:
        label = f"UE {u.id!r}: "
        check(label, u, ("id", "poa_1", "chan_1", "poa_2", "chan_2"), _INTEGER)
        check(label, u, ("p_max", "fixed_sinr_target"), _NUMBER)
        check(label, u, ("position",), _POINT)
    return bad


def _gain_errors(gains: dict[GainKey, float]) -> list[str]:
    values = list(gains.values())
    if set(map(type, values)) <= {float}:  # the usual file: one array test
        arr = np.array(values, dtype=float)
        wrong = np.flatnonzero(~((arr > 0) & (arr < math.inf))).tolist()
    else:
        wrong = [i for i, g in enumerate(values) if not _positive(g)]
    keys = list(gains) if wrong else []
    return [f"gain ({keys[i][0]},{keys[i][1]},{keys[i][2]}) must be finite and > 0, "
            f"got {values[i]!r}" for i in wrong]


def validate_scenario(s: Scenario) -> list[str]:
    """Check every structural invariant; returns one message per violation.

    An empty list means the scenario is well formed. Violations are
    reported, never raised, so callers can surface all of them at once.
    Fields of the wrong type are reported alone, before the structure is
    checked.
    """
    bad = _type_errors(s)
    if bad:
        return bad

    # PoA id layout: relays 1..Nr, picocells Nr+1..Nr+Np, one macrocell last.
    n_r = len(s.relays())
    n_p = len(s.picos())
    macros = [p for p in s.poas if p.kind is PoAKind.MACROCELL]
    if len(macros) != 1:
        bad.append(f"expected exactly one macrocell, found {len(macros)}")
    ids = [p.id for p in s.poas]
    if sorted(ids) != list(range(1, len(s.poas) + 1)):
        bad.append(f"PoA ids must be 1..{len(s.poas)}, got {sorted(ids)}")
    else:
        for p in s.poas:
            if p.kind is PoAKind.RELAY and not p.id <= n_r:
                bad.append(f"relay {p.id}: relay ids must be 1..{n_r}")
            if p.kind is PoAKind.PICOCELL and not n_r < p.id <= n_r + n_p:
                bad.append(f"picocell {p.id}: picocell ids must be {n_r + 1}..{n_r + n_p}")
            if p.kind is PoAKind.MACROCELL and p.id != n_r + n_p + 1:
                bad.append(f"macrocell {p.id}: macrocell id must be {n_r + n_p + 1}")
    for p in s.poas:
        cap = p.backhaul_capacity
        if not (cap in (0, math.inf) or _positive(cap)):
            bad.append(f"PoA {p.id}: backhaul_capacity must be >= 0 "
                       f"(inf for unlimited), got {cap}")

    chan_ids = {c.id for c in s.channels}
    if len(chan_ids) != len(s.channels):
        bad.append("channel ids are not unique")
    for c in s.channels:
        if not _positive(c.bandwidth):
            bad.append(f"channel {c.id}: bandwidth must be finite and > 0, "
                       f"got {c.bandwidth}")

    ue_ids = [u.id for u in s.ues]
    if sorted(ue_ids) != list(range(1, len(s.ues) + 1)):
        bad.append(f"UE ids must be 1..{len(s.ues)}, got {sorted(ue_ids)}")

    poa_ids = {p.id for p in s.poas}
    for u in s.ues:
        if not _positive(u.p_max):
            bad.append(f"UE {u.id}: p_max must be finite and > 0, got {u.p_max}")
        if u.poa_1 not in poa_ids:
            bad.append(f"UE {u.id}: unknown PoA {u.poa_1} on link 1")
        if u.chan_1 not in chan_ids:
            bad.append(f"UE {u.id}: unknown channel {u.chan_1} on link 1")
        if (u.poa_2 is None) != (u.chan_2 is None):
            bad.append(f"UE {u.id}: poa_2 and chan_2 must be set together")
        if u.dual:
            if u.poa_2 not in poa_ids:
                bad.append(f"UE {u.id}: unknown PoA {u.poa_2} on link 2")
            if u.chan_2 not in chan_ids:
                bad.append(f"UE {u.id}: unknown channel {u.chan_2} on link 2")
            if u.chan_1 == u.chan_2:
                bad.append(f"UE {u.id}: access links must use distinct channels")
            if u.fixed_sinr_target is not None:
                bad.append(f"UE {u.id}: fixed_sinr_target is only for single-link UEs")
        else:
            if u.fixed_sinr_target is None:
                bad.append(f"UE {u.id}: single-link UE needs fixed_sinr_target")
            elif not _positive(u.fixed_sinr_target):
                bad.append(f"UE {u.id}: fixed_sinr_target must be finite and > 0, "
                           f"got {u.fixed_sinr_target}")

    # No two UEs may transmit to the same PoA on the same channel.
    used: dict[tuple[int, int], tuple[int, int]] = {}
    for u in s.ues:
        links = [(1, u.poa_1, u.chan_1)]
        if u.dual:
            links.append((2, u.poa_2, u.chan_2))
        for x, poa_id, chan_id in links:
            key = (poa_id, chan_id)
            if key in used:
                other_ue, other_x = used[key]
                bad.append(
                    f"UE {u.id} link {x} and UE {other_ue} link {other_x} "
                    f"share PoA {poa_id} on channel {chan_id}"
                )
            else:
                used[key] = (u.id, x)

    bad += _gain_errors(s.gains)

    if not _positive(s.noise_psd):
        bad.append(f"noise_psd must be finite and > 0, got {s.noise_psd}")
    if not _positive(s.tau):
        bad.append(f"tau must be finite and > 0, got {s.tau}")
    if not (_positive(s.z_factor) and s.z_factor < 1):
        bad.append(f"z_factor must be in (0, 1), got {s.z_factor}")

    return bad


# --- JSON serialization -----------------------------------------------------
#
# The dataclass field names are the JSON keys. Unset optional fields are left
# out, and gains are [ue_id, poa_id, chan_id, value] rows.


def _row(obj) -> dict:
    return {f.name: v for f in fields(obj) if (v := getattr(obj, f.name)) is not None}


def scenario_to_dict(s: Scenario) -> dict:
    return {
        **_row(s),
        "poas": [_row(p) for p in s.poas],
        "ues": [_row(u) for u in s.ues],
        "channels": [_row(c) for c in s.channels],
        "gains": [[*k, v] for k, v in sorted(s.gains.items())],
    }


def scenario_from_dict(d: dict) -> Scenario:
    """Inverse of ``scenario_to_dict``; a key that is not a field raises
    TypeError naming it."""
    return Scenario(**{
        **d,
        "poas": [PoA(**{**p, "kind": PoAKind(p["kind"]), "position": tuple(p["position"])})
                 for p in d["poas"]],
        "ues": [UE(**{**u, "position": tuple(u["position"])}) for u in d["ues"]],
        "channels": [Channel(**c) for c in d["channels"]],
        "gains": {(g[0], g[1], g[2]): g[3] for g in d["gains"]},
    })


def save_scenario(s: Scenario, path: str | Path) -> None:
    Path(path).write_text(json.dumps(scenario_to_dict(s), indent=2))


def load_scenario(path: str | Path) -> Scenario:
    return scenario_from_dict(json.loads(Path(path).read_text()))
