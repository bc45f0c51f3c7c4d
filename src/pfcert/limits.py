"""Solvability-limit estimation along loading directions, direction sweeps,
and voltage-bound-versus-loading profiles for all three certificates.

Every limit is a closed form on one kind of load line, where the stress
measures are affine in the scaling factor lambda:

    xi_i(lambda) = x0_i + lambda x1_i,    eta_i(lambda) = lambda e1_i.

Scaling from zero load gives x0 = 0, x1 = xi(S) and e1 = eta(S), since both
measures scale with the load. About a known solution (v0, S0), increments
along D = c S0 with c > 0 give x0 = x1 = xi(S0) and e1 = eta(S0) with lambda
counted in units of 1/c. On such a line every certificate boundary is a
per-bus quadratic or a closed form in lambda (_line_limits). Any other
increment about a known solution is not a load line, since |S0 + lambda D|
is not affine in lambda, and lambda_all refuses it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .admittance import GridReduction, load_vector, reduce_case
from .certificate import certify_all, voltage_bounds
from .net_model import CaseError, NetworkCase, load_power_vector
from .stress import StressMeasures, compute_stress, first_positive_roots


@dataclass(frozen=True)
class LimitEstimates:
    lambda_p: float  # polydisc (proposed) condition
    lambda_w: float  # wang-style shell condition
    lambda_d: float  # dvijotham-style shell condition
    critical_bus: int | None  # load bus whose quadratic binds lambda_p; None where the spread binds
    mode: str  # "from_zero" or "from_known_solution"


def prepare(case: NetworkCase, gen_phasors: str = "case") -> tuple[GridReduction, np.ndarray]:
    """reduce_case(case, gen_phasors) and the case's base load vector."""
    red = reduce_case(case, gen_phasors)
    return red, load_power_vector(case, red.load_ids)


def _line_limits(
    red: GridReduction, mode: str, m: StressMeasures, m0: StressMeasures | None = None, c: float = 1.0
) -> LimitEstimates:
    """All three limits on the load line with x1 = m.xi, e1 = m.eta_complex
    and x0 = m0.xi (x0 = 0 when m0 is None).

    Upper-case letters are bus-wise maxima (X0, X1, E1). The stress level
    of bus i reaches 1 at the first positive root of A lambda^2 + B lambda + C,

        A = 2 X1 E1 - x1^2 - |e1|^2
        B = 2 (x1 + Re e1 - x0 x1 + X0 E1)
        C = 2 x0 - x0^2 - 1,

    and the spread X0 + lambda (X1 - E1) reaches 1 at (1 - X0)/(X1 - E1),
    or already at 0 when X0 > 1; where it binds, no bus is critical.
    Wang's (1 - X0)^2 > 4 lambda X1 closes at (1 - X0)^2 / (4 X1), and
    Dvijotham's sqrt(X0 + lambda X1) + sqrt(lambda E1) <= 1 at t^2 with
    t = (1 - X0)/(sqrt(E1) + sqrt(X1 (1 - X0) + X0 E1)). Every limit is
    divided by c.
    """
    x0, X0 = (0.0, 0.0) if m0 is None else (m0.xi, m0.xi_max)
    X1, E1 = m.xi_max, m.eta_max
    level = first_positive_roots(
        2.0 * X1 * E1 - m.xi**2 - m.eta_abs**2,
        2.0 * (m.xi + m.eta_complex.real - x0 * m.xi + X0 * E1),
        2.0 * x0 - x0**2 - 1.0,
    )
    k = int(np.argmin(level))
    margin = 1.0 - X0
    if margin < 0.0:
        spread = 0.0
    elif X1 > E1:
        spread = margin / (X1 - E1)
    else:
        spread = math.inf
    if margin <= 0.0:
        lam_w = lam_d = 0.0
    elif X1 == 0.0:
        lam_w = lam_d = math.inf
    else:
        lam_w = margin**2 / (4.0 * X1)
        t = margin / (math.sqrt(E1) + math.sqrt(X1 * margin + X0 * E1))
        lam_d = t * t
    return LimitEstimates(
        lambda_p=min(float(level[k]), spread) / c,
        lambda_w=lam_w / c,
        lambda_d=lam_d / c,
        critical_bus=red.load_ids[k] if level[k] <= spread and math.isfinite(level[k]) else None,
        mode=mode,
    )


def _positive_scalar_ratio(direction: np.ndarray, S0: np.ndarray) -> float | None:
    """c > 0 with direction == c * S0 entrywise, or None. S0 must not be all zero."""
    j = int(np.argmax(np.abs(S0)))
    ratio = direction[j] / S0[j]
    if abs(ratio.imag) > 1e-12 * abs(ratio) or ratio.real <= 0:
        return None
    c = float(ratio.real)
    scale = float(np.abs(direction).max())
    if np.abs(direction - c * S0).max() > 1e-12 * max(scale, 1e-300):
        return None
    return c


def lambda_all(red: GridReduction, S_L: np.ndarray) -> LimitEstimates:
    """All three limit estimates along the direction S_L, one load per load bus.

    The mode follows red.S0. On a reduction from reduce_network (S0 = 0),
    loads scale from zero: total load lambda S_L. On one re-centered on a
    known solution (v0, S0) by renormalize_about_solution, the estimates are
    the maximum certified incremental scalings: increment lambda S_L on top
    of S0, where S_L must be c S0 with c > 0 (x0 = x1 = xi(S0), and every
    limit is divided by c). Both are load lines with closed-form limits.
    Any other direction about a known solution raises CaseError.
    """
    S_L = load_vector(red, S_L, "direction")
    if not S_L.any():
        raise CaseError("load direction is identically zero")
    if not red.S0.any():
        return _line_limits(red, "from_zero", compute_stress(red.Ztilde, S_L))
    c = _positive_scalar_ratio(S_L, red.S0)
    if c is None:
        raise CaseError("about a known solution the load direction must be c*S0, a positive multiple of its load")
    m0 = compute_stress(red.Ztilde, red.S0)
    return _line_limits(red, "from_known_solution", m0, m0, c)


def default_sweep_buses(red: GridReduction, S_base: np.ndarray) -> tuple[int, int]:
    """First two load buses with nonzero real base load."""
    hot = [bus for bus, s in zip(red.load_ids, S_base) if s.real != 0.0]
    if len(hot) < 2:
        raise CaseError("direction sweep needs at least two load buses with real power demand")
    return hot[0], hot[1]


def direction_sweep(
    red: GridReduction, S_base: np.ndarray, bus_a: int, bus_b: int, angle_pairs
) -> tuple[float, list[np.ndarray], list[LimitEstimates]]:
    """Limit estimates while the two chosen loads swing around the power circle.

    The two loads are set to a common magnitude M e^{j phi} (M chosen so
    their joint 2-norm matches the remaining loads'), the rest of the system
    stays at base load, and the limits are recomputed per (phi_a, phi_b)
    with the reduction held fixed. Returns M, the load vector of each pair
    and its lambda_all, in the order of angle_pairs. S_base must hold one
    finite entry per load bus (CaseError otherwise).
    """
    S_base = load_vector(red, S_base, "S_base")
    if bus_a == bus_b:
        raise CaseError("sweep buses must differ")
    ia, ib = red.load_index(bus_a), red.load_index(bus_b)

    rest = np.delete(S_base, [ia, ib])
    rest_norm = float(np.linalg.norm(rest))
    if rest_norm > 0.0:
        magnitude = rest_norm / math.sqrt(2.0)
    else:
        magnitude = float((abs(S_base[ia]) + abs(S_base[ib])) / 2.0)
    if magnitude == 0.0:
        raise CaseError("all candidate loads are zero; nothing to sweep")

    directions = []
    for phi_a, phi_b in angle_pairs:
        S = S_base.copy()
        S[ia] = magnitude * np.exp(1j * phi_a)
        S[ib] = magnitude * np.exp(1j * phi_b)
        directions.append(S)
    return magnitude, directions, [lambda_all(red, S) for S in directions]


def bound_profile(red: GridReduction, S_base: np.ndarray, bus_id: int, lambda_grid) -> list[tuple]:
    """Voltage-magnitude lower bounds at one bus as the whole system load scales.

    Grid point lambda is the total load lambda S_base, on a re-centered
    reduction too (its certificates then take the increment from red.S0).
    Per grid point, in grid order: the lower bounds from the polydisc, Wang
    and Dvijotham regions, each None once that condition stops holding.
    Absence is data, not an error. S_base must hold one finite entry per load
    bus (CaseError otherwise).
    """
    S_base, k = load_vector(red, S_base, "S_base"), red.load_index(bus_id)
    scale = float(abs(red.scale[k]))
    bounds = []
    for lam in lambda_grid:
        cert, wang, dvij = certify_all(red, lam * S_base)
        bounds.append((
            float(voltage_bounds(cert, red).magnitude_low[k]) if cert.holds else None,
            scale * wang.magnitude_interval()[0] if wang.holds else None,
            scale * dvij.magnitude_interval()[0] if dvij.holds else None,
        ))
    return bounds
