"""Immutable description of a two-tier uplink network.

A single macrocell base station (MBS) is overlaid with relays and picocell
base stations; together these are the points of access (PoAs). Every user
equipment (UE) holds up to two simultaneous uplink connections on orthogonal
channels. Single-link UEs carry a fixed SINR target instead of a second link.

Channel power gains are stored pre-composed (path loss x fading) as the
file lays them out: sorted (transmitter UE id, receiver PoA id, channel id)
key rows next to their values (``Gains``), so the metrics layer never
re-derives geometry. Positions are in meters, bandwidths in Hz, powers in
watts, rates in bit/s.

``ScenarioArrays`` is the record of what the metrics layer reads of a
scenario (link ids, budgets, targets, bandwidths, capacities, the backhaul
layout, gains and the policy constants) as arrays, without positions. The
generator draws it directly, for one scenario or a batch of them;
``ScenarioArrays.of`` reads it off a ``Scenario``.

Every number must fit a float64: ``validate_scenario`` and
``Gains.from_rows`` reject an integer beyond its range (``10**400``), naming
the field or the row. A file nested deeper than Python's recursion limit
raises ``RecursionError`` from ``json.loads``.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from itertools import chain
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

import numpy as np

_FLOAT_MAX = sys.float_info.max


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


def _rises(keys: np.ndarray) -> np.ndarray:
    """Whether each (G, 3) row is lexicographically above the one before."""
    steps = np.diff(keys, axis=0)
    return np.sign(steps, out=steps) @ np.array([4, 2, 1]) > 0  # one (G, 3) temporary


class Gains(NamedTuple):
    """Channel power gains in the file's layout: ``keys`` is a (G, 3) int64
    array of (transmitter UE id, receiver PoA id, channel id) rows in strictly
    increasing lexicographic order, ``values`` the (G,) float64 gains."""

    keys: np.ndarray
    values: np.ndarray

    @classmethod
    def from_rows(cls, rows) -> Gains:
        """Gains from [ue_id, poa_id, chan_id, value] rows in any order (sorted
        only if they are not). A row that is not 64-bit integer ids and an int
        or float value in float64 range, or that repeats a key, raises
        TypeError or ValueError naming it."""
        try:
            flat = list(chain.from_iterable(rows))
            ue, poa, chan, value = (flat[i::4] for i in range(4))
            if not (len(flat) == 4 * len(rows) and set(map(len, rows)) <= {4}
                    and set(map(type, ue)) | set(map(type, poa)) | set(map(type, chan)) <= {int}
                    and set(map(type, value)) <= {int, float}):
                raise TypeError
            keys = np.array([ue, poa, chan], dtype=np.int64).T
            values = np.array(value, dtype=float)
        except (TypeError, OverflowError):  # name the first bad row
            if not isinstance(rows, list):
                raise TypeError("gains must be a list of [ue_id, poa_id, chan_id, value] "
                                f"rows, got {type(rows).__name__}") from None
            bad = next(r for r in rows if not (
                isinstance(r, (list, tuple)) and len(r) == 4
                and type(r[3]) in (int, float) and _is_float64(r[3])
                and all(type(i) is int and -2 ** 63 <= i < 2 ** 63 for i in r[:3])))
            raise TypeError(f"gain row {bad!r} must be [ue_id, poa_id, chan_id, value] "
                            "with 64-bit integer ids and an int or float value "
                            "in float64 range") from None
        if not _rises(keys).all():
            order = np.lexsort(keys.T[::-1])
            keys, values = keys[order], values[order]
            if not (rises := _rises(keys)).all():
                u, p, c = keys[np.argmin(rises)].tolist()
                raise ValueError(f"gain ({u},{p},{c}) is given more than once")
        return cls(keys, values)


class ScenarioArrays(NamedTuple):
    """What ``build_matrices`` reads of a scenario, as arrays: the record
    the generator draws, or ``of`` reads off a ``Scenario`` in file order.

    ``links`` is the (n, 5) int64 row of each UE: id, poa_1, chan_1, poa_2,
    chan_2, the link-2 ids 0 on a single-link UE; ``p_max`` and ``beta``
    (the fixed SINR target, 0 on a dual UE) are (n,) float64. ``chan_id``
    holds the channel ids and ``bandwidth`` their bandwidths as given, in
    channel order, which is the order ``bandwidth_in_use`` adds them in.
    ``capacity`` is the backhaul capacity by PoA index (PoA id - 1);
    ``relays`` and ``picos`` are the PoA indices of each kind in scenario
    order and ``macro`` the macrocell's. ``noise_psd``, ``tau`` and ``z``
    are the scenario's values as given.

    A batch record holds a sweep point's scenarios, which share everything
    from ``capacity`` on but their gains: ``links``, ``p_max`` and ``beta``
    gain a leading batch axis, ``chan_id`` and ``bandwidth`` are (T, C)
    arrays padded with channel id 0 and bandwidth 0, and each gain key
    starts with its batch row, (G, 4).
    """

    links: np.ndarray
    p_max: np.ndarray
    beta: np.ndarray
    chan_id: np.ndarray
    bandwidth: Sequence[float]
    capacity: np.ndarray
    relays: np.ndarray
    picos: np.ndarray
    macro: int
    gains: Gains
    noise_psd: float
    tau: float
    z: float

    @classmethod
    def of(cls, s: Scenario) -> ScenarioArrays:
        """The record of ``s``, every list read in file order."""
        n = len(s.ues)
        capacity = np.zeros(len(s.poas))
        for p in s.poas:
            capacity[p.id - 1] = p.backhaul_capacity
        return cls(
            links=np.array([(u.id, u.poa_1, u.chan_1, u.poa_2 or 0, u.chan_2 or 0)
                            for u in s.ues], dtype=np.int64).reshape(n, 5),
            p_max=np.array([u.p_max for u in s.ues], dtype=float),
            beta=np.array([u.fixed_sinr_target or 0.0 for u in s.ues], dtype=float),
            chan_id=np.array([c.id for c in s.channels], dtype=np.int64),
            bandwidth=[c.bandwidth for c in s.channels],
            capacity=capacity,
            relays=np.array([p.id - 1 for p in s.relays()], dtype=int),
            picos=np.array([p.id - 1 for p in s.picos()], dtype=int),
            macro=s.macro().id - 1,
            gains=s.gains,
            noise_psd=s.noise_psd,
            tau=s.tau,
            z=s.z_factor,
        )


@dataclass
class Scenario:
    """Complete network description, immutable by convention after build.

    ``gains`` holds the dimensionless channel power gain of each
    (transmitter UE id, receiver PoA id, channel id) path as sorted arrays
    (``Gains``). ``tau`` is the tolerable backhaul overload (bit/s) and
    ``z_factor`` the multiplicative power reduction constant of the
    backhaul-state policy (its rule is ``_FRACTION``).
    """

    poas: list[PoA]
    ues: list[UE]
    channels: list[Channel]
    gains: Gains
    noise_psd: float
    tau: float
    z_factor: float
    meta: dict = field(default_factory=dict)

    def relays(self) -> list[PoA]:
        return [p for p in self.poas if p.kind is PoAKind.RELAY]

    def picos(self) -> list[PoA]:
        return [p for p in self.poas if p.kind is PoAKind.PICOCELL]

    def macro(self) -> PoA:
        for p in self.poas:
            if p.kind is PoAKind.MACROCELL:
                return p
        raise ValueError("scenario has no macrocell")


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _integers(**values) -> list[int]:
    """The values as Python ints; TypeError naming the first that is not an
    int or a numpy integer (a bool is neither)."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise TypeError(f"{name} must be an integer, got {value!r}")
    return [int(value) for value in values.values()]


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_float64(x) -> bool:
    """A number that converts to a float64: an int beyond its range fails."""
    return _is_number(x) and (isinstance(x, float) or abs(x) <= _FLOAT_MAX)


def _positive(x) -> bool:
    """A number > 0, finite as a float64; NaN, infinities, ints beyond the
    float64 range, bools and non-numbers fail."""
    return _is_number(x) and 0 < x <= _FLOAT_MAX


def _is_point(x) -> bool:
    return isinstance(x, (tuple, list)) and len(x) == 2 and all(map(_is_float64, x))


def _exactly(*types) -> Callable[[Iterable], bool]:
    """A column test: every value's exact type is one of ``types``."""
    allowed = set(types)
    return lambda column: set(map(type, column)) <= allowed


def _float_pairs(column: Iterable) -> bool:
    """A column test: every value is a tuple or list of two floats."""
    column = list(column)
    return (set(map(type, column)) <= {tuple, list} and set(map(len, column)) <= {2}
            and set(map(type, chain.from_iterable(column))) <= {float})


class _Rule(NamedTuple):
    """A rule on a value: what the value must be (its words), the test of
    one value, and for a field's type a test of its whole column by exact
    types. A value that fails the rule is named in one form (``error``)."""

    words: str
    ok: Callable[[object], bool]
    fits: Optional[Callable[[Iterable], bool]] = None

    def error(self, name: str, value) -> str:
        """The message for ``value`` of ``name``, which breaks the rule."""
        return f"{name} must be {self.words}, got {value!r}"


# A field rule: the column test settles most columns at once, and the
# value test also settles what it does not accept (an int coordinate, a
# subclass). None is legal only where the column test allows it.
_INTEGER = _Rule("an integer", _is_int, _exactly(int))
_NUMBER = _Rule("a number", _is_number, _exactly(int, float))
_POINT = _Rule("two numbers in float64 range", _is_point, _float_pairs)
_KIND = _Rule(f"one of {', '.join(k.value for k in PoAKind)}", lambda x: isinstance(x, PoAKind),
              _exactly(PoAKind))
_LINK_2 = _Rule("an integer", lambda x: x is None or _is_int(x), _exactly(int, type(None)))
_TARGET = _Rule("a number", lambda x: x is None or _is_number(x), _exactly(int, float, type(None)))

# The value rules of the scenario fields, which ``validate_scenario``
# applies once the types pass (an int or a float, whose repr is its str),
# and of the generator's parameters that fill them.
_POSITIVE = _Rule("finite and > 0", _positive)
_CAPACITY = _Rule(">= 0 (inf for unlimited)", lambda x: x in (0, math.inf) or _positive(x))
_FRACTION = _Rule("in (0, 1)", lambda x: _positive(x) and x < 1)

# Per kind of object: the label of an object, the objects, and the rules of
# their fields in message order.
_FIELD_RULES = (
    ("", lambda s: [s], (("noise_psd", _NUMBER), ("tau", _NUMBER), ("z_factor", _NUMBER))),
    ("PoA {.id!r}: ", attrgetter("poas"), (("id", _INTEGER), ("backhaul_capacity", _NUMBER),
                                           ("position", _POINT), ("kind", _KIND))),
    ("channel {.id!r}: ", attrgetter("channels"), (("id", _INTEGER), ("bandwidth", _NUMBER))),
    ("UE {.id!r}: ", attrgetter("ues"), (
        ("id", _INTEGER), ("poa_1", _INTEGER), ("chan_1", _INTEGER), ("poa_2", _LINK_2),
        ("chan_2", _LINK_2), ("p_max", _NUMBER), ("fixed_sinr_target", _TARGET),
        ("position", _POINT))),
)


def _type_errors(s: Scenario) -> list[str]:
    """One message per field of the wrong type, object by object: ids and
    links must be integers and the other numbers int or float, never bool.
    Only a column that fails its exact-type test is walked value by value."""
    bad: list[str] = []
    for label, objects, rules in _FIELD_RULES:
        objs = objects(s)
        walk = [(name, rule) for name, rule in rules if not rule.fits(map(attrgetter(name), objs))]
        bad += [rule.error(f"{label.format(obj)}{name}", value)
                for obj in (objs if walk else ()) for name, rule in walk
                if not rule.ok(value := getattr(obj, name))]
    return bad


def _gain_errors(s: Scenario) -> list[str]:
    keys, values = s.gains
    if not _rises(keys).all():
        return ["gain keys must be unique (ue, poa, chan) rows in increasing order"]
    known = ((keys >= 1) & (keys <= [len(s.ues), len(s.poas), len(s.channels)])).all(axis=1)
    valid = (values > 0) & (values < math.inf)
    return ([f"gain ({u},{p},{c}) names no UE, PoA or channel of the scenario"
             for u, p, c in keys[~known].tolist()]
            + [_POSITIVE.error(f"gain ({u},{p},{c})", g)
               for (u, p, c), g in zip(keys[~valid].tolist(), values[~valid].tolist())])


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
    positive = _POSITIVE.ok  # the test of the rule, looked up once

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
    bad += [_CAPACITY.error(f"PoA {p.id}: backhaul_capacity", p.backhaul_capacity)
            for p in s.poas if not _CAPACITY.ok(p.backhaul_capacity)]

    chan_ids = {c.id for c in s.channels}
    if sorted(chan_ids) != list(range(1, len(s.channels) + 1)):
        bad.append(f"channel ids must be 1..{len(s.channels)}, "
                   f"got {sorted(c.id for c in s.channels)}")
    bad += [_POSITIVE.error(f"channel {c.id}: bandwidth", c.bandwidth)
            for c in s.channels if not positive(c.bandwidth)]

    ue_ids = [u.id for u in s.ues]
    if sorted(ue_ids) != list(range(1, len(s.ues) + 1)):
        bad.append(f"UE ids must be 1..{len(s.ues)}, got {sorted(ue_ids)}")

    poa_ids = {p.id for p in s.poas}
    for u in s.ues:
        if not positive(u.p_max):
            bad.append(_POSITIVE.error(f"UE {u.id}: p_max", u.p_max))
        if u.poa_1 not in poa_ids:
            bad.append(f"UE {u.id}: unknown PoA {u.poa_1} on link 1")
        if u.chan_1 not in chan_ids:
            bad.append(f"UE {u.id}: unknown channel {u.chan_1} on link 1")
        if (u.poa_2 is None) != (u.chan_2 is None):
            bad.append(f"UE {u.id}: poa_2 and chan_2 must be set together")
        if u.dual:
            if u.poa_2 not in poa_ids:
                bad.append(f"UE {u.id}: unknown PoA {u.poa_2} on link 2")
            if u.chan_2 is not None and u.chan_2 not in chan_ids:  # None is reported above
                bad.append(f"UE {u.id}: unknown channel {u.chan_2} on link 2")
            if u.chan_1 == u.chan_2:
                bad.append(f"UE {u.id}: access links must use distinct channels")
            if u.fixed_sinr_target is not None:
                bad.append(f"UE {u.id}: fixed_sinr_target is only for single-link UEs")
        else:
            if u.fixed_sinr_target is None:
                bad.append(f"UE {u.id}: single-link UE needs fixed_sinr_target")
            elif not positive(u.fixed_sinr_target):
                bad.append(_POSITIVE.error(f"UE {u.id}: fixed_sinr_target", u.fixed_sinr_target))

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

    bad += _gain_errors(s)

    bad += [rule.error(name, value) for name, value, rule in (
        ("noise_psd", s.noise_psd, _POSITIVE), ("tau", s.tau, _POSITIVE),
        ("z_factor", s.z_factor, _FRACTION)) if not rule.ok(value)]

    return bad


# --- JSON serialization -----------------------------------------------------
#
# The dataclass field names are the JSON keys. Unset optional fields are left
# out, and gains are [ue_id, poa_id, chan_id, value] rows, written sorted.


def _row(obj) -> dict:
    return {f.name: v for f in fields(obj) if (v := getattr(obj, f.name)) is not None}


def scenario_to_dict(s: Scenario) -> dict:
    return {
        **_row(s),
        "poas": [_row(p) for p in s.poas],
        "ues": [_row(u) for u in s.ues],
        "channels": [_row(c) for c in s.channels],
        "gains": [[*k, v] for k, v in zip(s.gains.keys.tolist(), s.gains.values.tolist())],
    }


def scenario_from_dict(d: dict) -> Scenario:
    """Inverse of ``scenario_to_dict``; a key that is not a field or a bad
    gain row raises TypeError or ValueError naming it."""
    return Scenario(**{
        **d,
        "poas": [PoA(**{**p, "kind": PoAKind(p["kind"]), "position": tuple(p["position"])})
                 for p in d["poas"]],
        "ues": [UE(**{**u, "position": tuple(u["position"])}) for u in d["ues"]],
        "channels": [Channel(**c) for c in d["channels"]],
        "gains": Gains.from_rows(d["gains"]),
    })


def _reprs(a: np.ndarray) -> list[str]:
    """What ``json`` and ``csv`` write for each element: its Python ``repr``."""
    return list(map(repr, a.ravel().tolist()))


def save_scenario(s: Scenario, path: str | Path) -> None:
    """Write the bytes of ``json.dumps(scenario_to_dict(s), indent=2)``, gains by ``_reprs``."""
    keys, values = s.gains
    ids, at = np.unique(keys, return_inverse=True)
    cells = np.empty((len(values), 5), dtype=object)  # u, p, c, value, row break
    cells[:, :3] = (np.array(_reprs(ids), dtype=object) + ",\n      ")[at.reshape(-1, 3)]
    cells[:, 3] = _reprs(values)
    for i in np.flatnonzero(~np.isfinite(values)):  # json's spellings
        cells[i, 3] = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}[cells[i, 3]]
    cells[:, 4] = "\n    ],\n    [\n      "
    text = json.dumps(scenario_to_dict(replace(s, gains=Gains(keys[:0], values[:0]))), indent=2)
    head, _, tail = text.partition('\n  "gains": []')  # once: nested keys sit deeper
    cells[:1, 0] = head + '\n  "gains": [\n    [\n      ' + cells[:1, 0]
    cells[-1:, 4] = "\n    ]\n  ]" + tail
    Path(path).write_text("".join(cells.ravel().tolist()) or text)


def load_scenario(path: str | Path) -> Scenario:
    return scenario_from_dict(json.loads(Path(path).read_text()))
