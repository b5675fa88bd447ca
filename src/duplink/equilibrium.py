"""Linear-system view of the waterfilling regime and its fixed point.

When every dual-connectivity UE waterfills its full budget, the first-link
power vector evolves as the affine iteration

    p1(k+1) = c + a @ p1(k)

with a = Lam [W2 (F21 - F11) + W1 (F12 - F22)] and
c = Lam [W1 p_max - W2 d1 + W1 d2 + (W1 F22 - W2 F21) p_max],
where W1/W2/Lam act as diagonal (row) scalings. The iteration contracts to
p1* = (I - a)^-1 c whenever the spectral radius of a is below one, and the
prediction is trustworthy when p1* lies strictly inside (0, p_max).

A single-link UE runs fixed-target-SINR control (Foschini-Miljanic), so its
row is beta * (d1 + F11 p1 + F21 p2) with p2 = p_max - p1 on dual UEs, i.e.
a = beta (F11 - F21) and c = beta (d1 + F21 p_max); the system of a mixed
population stays affine. ``build_system`` rejects a network whose a or c
leaves the float range, in ``build_matrices``' message form; ``duplink run``
calls it before the run.
"""

from __future__ import annotations

import numpy as np

from .metrics import CrossGainMatrices, _apply

_RESIDUAL_TOL = 1e-9


class InapplicableCheck(Exception):
    """Raised when a trajectory check's preconditions do not hold."""


def _components(a: np.ndarray) -> list[np.ndarray]:
    """The weakly connected components of the nonzero pattern of the square
    matrix ``a``, as index arrays in increasing order, the component of the
    smallest index first. ``a`` is block-diagonal over them, so its
    eigenvalues and its linear systems split by component.

    Min-label propagation with pointer jumping: every index takes the
    smallest label among its own and its neighbours', then its label's
    label, until no label changes. A label is always an index of the same
    component, so each component ends labelled by its smallest index.
    """
    n = len(a)
    linked = a != 0
    linked |= linked.T
    label = np.arange(n)
    while True:
        low = np.minimum(label, np.where(linked, label, n).min(axis=1, initial=n))
        low = low[low]
        if np.array_equal(low, label):
            break
        label = low
    order = np.argsort(label, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(label[order])) + 1)


def spectral_radius(m: np.ndarray) -> float | np.ndarray:
    """Largest eigenvalue magnitude, over the eigenvalues of each weakly
    connected component of ``m``'s nonzero pattern (``_components``).

    Given a stack of square matrices, (B, n, n), the radius of each, as an
    array. The components of the same size, across the stack, share one
    stacked eigenvalue call, which gives each component the bits of its own
    call; a single matrix is a stack of one.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim not in (2, 3) or m.shape[-2] != m.shape[-1]:
        raise ValueError("matrix must be square")
    if m.ndim == 2:
        return float(spectral_radius(m[None])[0])
    by_size: dict[int, list] = {}  # component size -> (matrix, indices) of each
    for b, a in enumerate(m):
        for idx in _components(a):
            by_size.setdefault(len(idx), []).append((b, idx))
    radii = np.zeros(len(m))
    try:
        for parts in by_size.values():
            eig = np.linalg.eigvals(np.array([m[b][np.ix_(idx, idx)] for b, idx in parts]))
            np.maximum.at(radii, [b for b, _ in parts], np.max(np.abs(eig), axis=1, initial=0.0))
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(f"eigenvalue computation failed: {exc}") from exc
    return radii


def build_system(m: CrossGainMatrices) -> tuple[np.ndarray, np.ndarray]:
    """Iteration matrix ``a`` and offset ``c`` of the first-link powers:
    waterfilling rows for dual UEs, fixed-SINR rows for single-link UEs. On
    a stack (``stack_matrices``), one of each per network.

    ValueError in ``build_matrices``' form when an entry is out of float
    range, naming the first UE (by row of a stack) whose row of ``a`` or
    entry of ``c`` is not finite.
    """
    w1 = m.w1[..., None]
    w2 = m.w2[..., None]
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        a = m.lam[..., None] * (w2 * (m.f21 - m.f11) + w1 * (m.f12 - m.f22))
        c = m.lam * (m.w1 * m.p_max - m.w2 * m.d1 + m.w1 * m.d2
                     + _apply(w1 * m.f22 - w2 * m.f21, m.p_max))
        a = np.where(m.dual[..., None], a, m.beta[..., None] * (m.f11 - m.f21))
        c = np.where(m.dual, c, m.beta * (m.d1 + _apply(m.f21, m.p_max)))
    rows = np.concatenate((a, c[..., None]), axis=-1)  # UE i's link-1 equation
    if not (ok := np.isfinite(rows)).all():
        *i, j = np.unravel_index(np.argmin(ok), ok.shape)
        raise ValueError(f"UE {m.ue_id[tuple(i)]} link 1: an entry of the equilibrium system's "
                         f"{'a' if j < m.n else 'c'} is {float(rows[(*i, j)])!r}, "
                         "out of floating-point range")
    return a, c


def closed_form_equilibrium(
    m: CrossGainMatrices, a: np.ndarray, c: np.ndarray, rho: float
) -> tuple[np.ndarray, np.ndarray]:
    """Fixed point (p1*, p2*) of the affine iteration p1 = c + a @ p1.

    ``rho`` is the spectral radius of ``a`` (see ``spectral_radius``); the
    iteration must contract (rho < 1), else ValueError. ``(I - a) p1 = c``
    is solved per weakly connected component of ``a`` (``_components``).
    Raises LinAlgError when a solve fails, the fixed point lies outside
    the float range, or the residual of the whole system is not negligible
    (or NaN). Dual UEs spend
    the rest of their budget on link 2; single-link UEs have p2* = 0. The
    prediction describes the true dynamics only when p1* lies strictly
    inside (0, p_max).
    """
    if rho >= 1.0:
        raise ValueError(f"iteration does not contract (spectral radius {rho:.4f})")
    p1 = np.empty(len(c))
    try:
        for idx in _components(a):
            p1[idx] = np.linalg.solve(np.eye(len(idx)) - a[np.ix_(idx, idx)], c[idx])
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(f"(I - M) solve failed: {exc}") from exc
    if not np.isfinite(p1).all():
        raise np.linalg.LinAlgError("fixed point out of floating-point range")
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite residual fails below
        residual = np.max(np.abs(p1 - c - a @ p1), initial=0.0)
    scale = max(1.0, np.max(np.abs(p1), initial=0.0))
    if not residual <= _RESIDUAL_TOL * scale:  # NaN too
        raise np.linalg.LinAlgError(f"fixed-point residual too large: {residual:.3e}")
    return p1, np.where(m.dual, m.p_max - p1, 0.0)


def rescaling_sinr_bound_check(iterates, m: CrossGainMatrices, ue_id: int, link: int,
                               k: int) -> bool:
    """Did the SINR of a rescaled non-bottleneck link obey gamma(k+2) > z^2 gamma(k)?

    ``iterates`` are the (state, report) pairs of a run on ``m`` from iterate
    0, as a list sink collects them; ``z = m.z`` and UE ``ue_id`` is looked up
    in ``m.ue_id``. Applicable only when the run is long enough, the link's
    rate differential was nonnegative at iteration k, and the UE scaled that
    link's power by z between k and k+1. Raises InapplicableCheck otherwise.
    """
    if k < 0 or k + 2 >= len(iterates):
        raise InapplicableCheck(f"trace too short for k={k}")
    hits = np.flatnonzero(m.ue_id == ue_id)
    if not hits.size:
        raise InapplicableCheck(f"unknown UE id {ue_id}")
    i = int(hits[0])
    (now, report), (nxt, _), (after, _) = iterates[k:k + 3]
    if link == 2 and report.state[i] == 0:
        raise InapplicableCheck(f"UE {ue_id} has no link 2")
    p, gamma, v = ("p1", "sinr1", "v1") if link == 1 else ("p2", "sinr2", "v2")
    if not np.isclose(getattr(nxt, p)[i], m.z * getattr(now, p)[i], rtol=1e-9, atol=0.0):
        raise InapplicableCheck(f"UE {ue_id} link {link} power was not rescaled by z at k={k}")
    if getattr(report, v)[i] < 0:
        raise InapplicableCheck(f"UE {ue_id} link {link} was not a non-bottleneck link at k={k}")
    return bool(getattr(after, gamma)[i] > m.z * m.z * getattr(now, gamma)[i])
