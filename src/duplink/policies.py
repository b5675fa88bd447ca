"""Per-UE transmit power adaptation policies, as array functions.

All four policies are pure functions of quantities a UE observes locally:
its own powers, the effective interference on each link, the bandwidths, and
the rate differentials fed back from its PoAs. Each function takes one
value per UE (arrays of equal shape, or scalars for a single UE) and
decides every UE independently. The simulation engine applies them
synchronously, so every decision for iteration k+1 uses iteration-k
measurements.

Each policy is its argument checks plus one private kernel that holds its
formula. The engine checks the arguments that stay fixed during a run once
per batch and calls the kernels directly.
"""

from __future__ import annotations

import numpy as np

from .network import _FRACTION

# Exponent guard: 2**x overflows float64 near x = 1024.
_MAX_EXP = 512.0

POLICY_NAMES = ("bdt", "wf", "greedy", "mixed-fm")


def _scalar(*arrays):
    """Return 0-d results as numpy scalars, leave arrays as they are."""
    return tuple(a[()] for a in arrays)


def _check_interference(*es):
    if any((e <= 0).any() for e in es):
        raise ValueError("effective interference must be > 0")


def _check_budget(p_max, w1, w2):
    """The arguments of waterfilling that are fixed for a UE."""
    if (w1 <= 0).any() or (w2 <= 0).any():
        raise ValueError("bandwidths must be > 0")
    if (p_max <= 0).any():
        raise ValueError("p_max must be > 0")


def _check_z(z):
    if not ((0.0 < z) & (z < 1.0)).all():
        raise ValueError(f"z must be {_FRACTION.words}")


def _check_beta(beta):
    if (beta <= 0).any():
        raise ValueError("beta must be > 0")


def _waterfill(p_max, e1, e2, w1, w2, w1p, wsum):
    # w1p = w1 * p_max and wsum = w1 + w2 are fixed for a UE.
    p1 = (w1p - w2 * e1 + w1 * e2) / wsum
    p1 = np.minimum(p_max, np.maximum(0.0, p1))
    return p1, p_max - p1


def waterfill(p_max, e1, e2, w1, w2):
    """Rate-maximizing split of a power budget over two unequal-bandwidth links.

    Solves max w1*log2(1 + p1/e1) + w2*log2(1 + p2/e2) subject to
    p1 + p2 = p_max, p >= 0. The interior optimum equalizes the water levels
    (p1 + e1)/w1 = (p2 + e2)/w2; outside it one link gets the whole budget.
    """
    p_max, e1, e2, w1, w2 = (np.asarray(a, dtype=float) for a in (p_max, e1, e2, w1, w2))
    _check_interference(e1, e2)
    _check_budget(p_max, w1, w2)
    return _scalar(*_waterfill(p_max, e1, e2, w1, w2, w1 * p_max, w1 + w2))


def _rate_cap(e, w, r, at):
    # e*(2^(r/w) - 1) on the UEs of the mask ``at`` whose r is not <= 0,
    # inf where the exponent passes _MAX_EXP or the cap passes the float
    # range, and 0 everywhere else. The power is Python's: numpy's
    # vectorized power can differ from it in the last bit, and policy
    # outputs must not depend on the numpy build.
    cap = np.zeros(r.shape)
    at = at & ~(r <= 0)
    with np.errstate(over="ignore"):  # an overflow gives the infinite cap
        exponent = r[at] / w[at]
        pow2 = np.array([2.0 ** x for x in np.minimum(exponent, _MAX_EXP).tolist()])
        cap[at] = np.where(exponent > _MAX_EXP, np.inf, e[at] * (pow2 - 1.0))
    return cap


def rate_cap_power(e, w, r):
    """Minimal transmit power that achieves rate r on a link: e*(2^(r/w) - 1)."""
    e, w, r = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (e, w, r)))
    return _rate_cap(e, w, r, np.ones(r.shape, dtype=bool))[()]


def _greedy(p_max, c1, c2, wf1, wf2):
    # c1/c2 are the links' cap powers, wf1/wf2 the waterfilling split.
    both, over1, over2 = c1 + c2 <= p_max, wf1 > c1, wf2 > c2
    p1 = np.where(both | over1, c1, np.where(over2, p_max - c2, wf1))
    p2 = np.where(both, c2, np.where(over1, p_max - c1, np.where(over2, c2, wf2)))
    return p1, p2


def greedy_update(p_max, e1, e2, w1, w2, v1_plus, v2_plus):
    """Locally optimal allocation: maximize the end-to-end rate improvement,
    then spend the least power that achieves it.

    The improvement on link x is min(v_x_plus, rate_x), i.e. access rate is
    only useful up to the backhaul head-room v_x_plus. Each link therefore
    has a cap power beyond which more power is wasted; the optimum is
    waterfilling truncated at those caps. When both caps fit in the budget,
    hitting them maximizes the improvement and any extra power is waste.
    """
    c1 = rate_cap_power(e1, w1, v1_plus)
    c2 = rate_cap_power(e2, w2, v2_plus)
    wf1, wf2 = waterfill(p_max, e1, e2, w1, w2)
    return _scalar(*_greedy(p_max, c1, c2, wf1, wf2))


def _bdt_table(z: float) -> np.ndarray:
    """Backhaul-state policy as a table: per link and coefficient of (p1,
    p2, p_max) in that link's next power, the entry of each state S1..S9,
    (2, 3, 9). Every entry is affine in z."""
    return np.moveaxis(np.array([
        [[0, 0, 0], [0, 0, 0]],      # S1: waterfill (row unused)
        [[1, 0, 0], [-1, 0, 1]],     # S2: hold p1, p2 takes the rest of the budget
        [[0, -1, 1], [0, 1, 0]],     # S3: hold p2, p1 takes the rest
        [[1, 0, 0], [0, 1, 0]],      # S4: hold both
        [[0, -z, 1], [0, z, 0]],     # S5: scale p2 by z, p1 takes the rest
        [[z, 0, 0], [-z, 0, 1]],     # S6: scale p1 by z, p2 takes the rest
        [[1, 0, 0], [0, z, 0]],      # S7: hold p1, scale p2
        [[z, 0, 0], [0, 1, 0]],      # S8: scale p1, hold p2
        [[z, 0, 0], [0, z, 0]],      # S9: scale both
    ], dtype=float), 0, -1)


_BDT_CONST = _bdt_table(0.0)
_BDT_Z = _bdt_table(1.0) - _BDT_CONST


def _bdt_coefficients(state, z):
    """The table entries of ``state`` under the factor ``z``, (2, 3, ...);
    ``z`` broadcasts against ``state``."""
    return _BDT_CONST[..., state - 1] + z * _BDT_Z[..., state - 1]


def _bdt(c, p1_now, p2_now, p_max):
    # c[y - 1, 0..2]: the coefficients of link y's next power; both links'
    # next powers, stacked on the first axis. S1's rows give (0, 0), and
    # the callers put waterfilling in its place.
    return c[:, 0] * p1_now + c[:, 1] * p2_now + c[:, 2] * p_max


def bdt_update(state, p1_now, p2_now, p_max, e1, e2, w1, w2, z):
    """One backhaul-state-driven power adaptation step.

    S1 waterfills; S4 holds; S2/S3 re-commit the full budget around the held
    link; S5/S6 scale the overloaded link by z and hand the freed power to
    the healthy link; S7-S9 shed power on overloaded links without
    re-allocating it. ``state`` holds BackhaulState codes 1..9; ``z`` is one
    factor for every UE or one per UE.
    """
    z = np.asarray(z, dtype=float)
    _check_z(z)
    state = np.asarray(state)
    if ((state < 1) | (state > 9)).any():
        raise ValueError(f"unknown state in {state}")
    p1_now, p2_now, p_max = (np.asarray(a, dtype=float) for a in (p1_now, p2_now, p_max))
    p1, p2 = _bdt(_bdt_coefficients(state, z), p1_now, p2_now, p_max)
    s1 = state == 1
    if s1.any():
        wf1, wf2 = waterfill(p_max, e1, e2, w1, w2)
        p1, p2 = np.where(s1, wf1, p1), np.where(s1, wf2, p2)
    return _scalar(p1, p2)


def _fm(e, beta, p_max):
    return np.minimum(beta * e, p_max)


def fm_update(e, beta, p_max):
    """Fixed-target-SINR update P <- beta * E, clipped to the power budget."""
    e, beta = np.asarray(e, dtype=float), np.asarray(beta, dtype=float)
    _check_interference(e)
    _check_beta(beta)
    return _fm(e, beta, p_max)[()]
