"""Linear-system view of synchronous waterfilling and its fixed point.

When every dual-connectivity UE waterfills its full budget, the first-link
power vector evolves as the affine iteration

    p1(k+1) = n_vec + m @ p1(k)

with m = Lam [W2 (F21 - F11) + W1 (F12 - F22)] and
n_vec = Lam [W1 p_max - W2 d1 + W1 d2 + (W1 F22 - W2 F21) p_max],
where W1/W2/Lam act as diagonal (row) scalings. The iteration contracts to
p1* = (I - m)^-1 n_vec whenever the spectral radius of m is below one, and
the prediction is trustworthy when p1* lies strictly inside (0, p_max).

A mixed population adds single-link UEs running fixed-target-SINR control;
their rows replace the waterfilling update with beta * (d1 + F11 p1), which
keeps the combined system affine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .metrics import CrossGainMatrices

_RESIDUAL_TOL = 1e-9


class InapplicableCheck(Exception):
    """Raised when a trajectory check's preconditions do not hold."""


@dataclass
class IterationSystem:
    m: np.ndarray
    n_vec: np.ndarray
    spectral_radius: float
    fixed_point_p1: Optional[np.ndarray] = None
    interior: Optional[bool] = None


def spectral_radius(m: np.ndarray) -> float:
    """Largest eigenvalue magnitude."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    if m.size == 0:
        return 0.0
    try:
        eigs = np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(f"eigenvalue computation failed: {exc}") from exc
    return float(np.max(np.abs(eigs)))


def build_system(mat: CrossGainMatrices, p_max: np.ndarray) -> IterationSystem:
    """Iteration matrix and offset of the all-waterfilling power dynamics."""
    p_max = np.asarray(p_max, dtype=float)
    if p_max.shape != (mat.n,):
        raise ValueError(f"p_max must have shape ({mat.n},)")
    w1 = mat.w1[:, None]
    w2 = mat.w2[:, None]
    lam = mat.lam[:, None]
    m = lam * (w2 * (mat.f21 - mat.f11) + w1 * (mat.f12 - mat.f22))
    n_vec = mat.lam * (
        mat.w1 * p_max
        - mat.w2 * mat.d1
        + mat.w1 * mat.d2
        + (w1 * mat.f22 - w2 * mat.f21) @ p_max
    )
    return IterationSystem(
        m=m,
        n_vec=n_vec,
        spectral_radius=spectral_radius(m),
    )


def affine_fixed_point(a: np.ndarray, c: np.ndarray, rho: float) -> np.ndarray:
    """Fixed point x = c + a @ x of a contractive affine iteration.

    ``rho`` is the spectral radius of ``a`` (see ``spectral_radius``); the
    iteration must contract (rho < 1), else ValueError. Raises LinAlgError
    when the solve fails or its residual is not negligible.
    """
    if rho >= 1.0:
        raise ValueError(f"iteration does not contract (spectral radius {rho:.4f})")
    try:
        x = np.linalg.solve(np.eye(a.shape[0]) - a, c)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(f"(I - M) solve failed: {exc}") from exc
    residual = np.max(np.abs(x - c - a @ x), initial=0.0)
    scale = max(1.0, np.max(np.abs(x), initial=0.0))
    if residual > _RESIDUAL_TOL * scale:
        raise np.linalg.LinAlgError(f"fixed-point residual too large: {residual:.3e}")
    return x


def closed_form_equilibrium(
    sys: IterationSystem, p_max: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Fixed point (p1*, p2*) of the waterfilling iteration.

    Requires spectral radius < 1. Stores the fixed point and the interiority
    flag on ``sys``; an exterior fixed point means the un-clipped linear
    model does not describe the true dynamics and the prediction should not
    be trusted.
    """
    p_max = np.asarray(p_max, dtype=float)
    p1_star = affine_fixed_point(sys.m, sys.n_vec, sys.spectral_radius)
    sys.fixed_point_p1 = p1_star
    sys.interior = bool(np.all(p1_star > 0) and np.all(p1_star < p_max))
    return p1_star, p_max - p1_star


def mixed_population_system(
    mat: CrossGainMatrices,
    sys: IterationSystem,
    q: np.ndarray,
    beta: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Affine system of a population mixing waterfilling and fixed-SINR UEs.

    ``q`` flags the single-link fixed-target UEs (1) versus dual-connectivity
    UEs (0); ``beta`` holds the SINR targets (positive exactly where q is 1).
    Returns (iteration matrix, offset); the spectral radius of the matrix
    gates convergence of the mixed dynamics.
    """
    q = np.asarray(q, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if np.any((beta > 0) != (q == 1)):
        raise ValueError("beta must be positive exactly where q is 1")
    qbar = 1.0 - q
    a = qbar[:, None] * sys.m + (q * beta)[:, None] * mat.f11
    c = qbar * sys.n_vec + q * beta * mat.d1
    return a, c


def rescaling_sinr_bound_check(trace, z: float, ue_id: int, link: int, k: int) -> bool:
    """Did the SINR of a rescaled non-bottleneck link obey gamma(k+2) > z^2 gamma(k)?

    Applicable only when the trace is long enough, the link's rate
    differential was nonnegative at iteration k, and the UE scaled that
    link's power by z between k and k+1. Raises InapplicableCheck otherwise.
    """
    states = trace.states
    if k < 0 or k + 2 >= len(states):
        raise InapplicableCheck(f"trace too short for k={k}")
    i = ue_id - 1
    if not 0 <= i < states[0].p1.shape[0]:
        raise InapplicableCheck(f"unknown UE id {ue_id}")
    if link == 2 and trace.reports[k].state[i] == 0:
        raise InapplicableCheck(f"UE {ue_id} has no link 2")
    p_attr = "p1" if link == 1 else "p2"
    g_attr = "sinr1" if link == 1 else "sinr2"
    p_k = getattr(states[k], p_attr)[i]
    p_k1 = getattr(states[k + 1], p_attr)[i]
    if not np.isclose(p_k1, z * p_k, rtol=1e-9, atol=0.0):
        raise InapplicableCheck(
            f"UE {ue_id} link {link} power was not rescaled by z at k={k}"
        )
    v_k = (trace.reports[k].v1 if link == 1 else trace.reports[k].v2)[i]
    if v_k < 0:
        raise InapplicableCheck(
            f"UE {ue_id} link {link} was not a non-bottleneck link at k={k}"
        )
    gamma_k = getattr(states[k], g_attr)[i]
    gamma_k2 = getattr(states[k + 2], g_attr)[i]
    return bool(gamma_k2 > z * z * gamma_k)
