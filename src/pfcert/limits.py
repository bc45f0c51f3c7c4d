"""Solvability-limit estimation along loading directions, direction sweeps,
and voltage-bound-versus-loading profiles for all three certificates.

Every closed-form limit is taken on one kind of load line, where the stress
measures are affine in the scaling factor lambda:

    xi_i(lambda) = x0_i + lambda x1_i,    eta_i(lambda) = lambda e1_i.

Scaling from zero load gives x0 = 0, x1 = xi(S) and e1 = eta(S), since both
measures scale with the load. About a known solution (v0, S0), increments
along D = c S0 give x0 = x1 = xi(S0) and e1 = eta(S0) with lambda counted in
units of 1/c. On such a line every certificate boundary is a per-bus
quadratic or a closed form in lambda (_line_limits).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import oracle
from .admittance import GridReduction, reduce_case
from .certificate import certify_all, voltage_bounds
from .net_model import CaseError, NetworkCase, load_power_vector
from .stress import StressMeasures, compute_stress


@dataclass(frozen=True)
class LimitEstimates:
    lambda_p: float  # polydisc (proposed) condition
    lambda_w: float  # wang-style shell condition
    lambda_d: float  # dvijotham-style shell condition
    critical_bus: int | None  # load bus whose quadratic binds lambda_p
    mode: str  # "from_zero" or "from_known_solution"
    lambda_actual: float | None = None  # oracle limit, when requested


@dataclass(frozen=True)
class SweepPoint:
    phi_a: float
    phi_b: float
    estimates: LimitEstimates


@dataclass(frozen=True)
class SweepResult:
    bus_a: int
    bus_b: int
    magnitude: float  # common magnitude applied to the two varied loads
    points: tuple[SweepPoint, ...]


def prepare(case: NetworkCase, gen_phasors: str = "case") -> tuple[GridReduction, np.ndarray]:
    """reduce_case(case, gen_phasors) and the case's base load vector."""
    red = reduce_case(case, gen_phasors)
    return red, load_power_vector(case, red.load_ids)


def _first_positive_roots(a, b, c) -> np.ndarray:
    """Smallest positive root of a x^2 + b x + c = 0, elementwise (inf where none).

    The roots are q/a and c/q with q = -(b + sign(b) sqrt(b^2 - 4ac))/2, the
    form without cancellation; with a = 0 the second is the linear root -c/b.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        q = -(b + np.copysign(np.sqrt(b * b - 4.0 * a * c), b)) / 2.0
        r1, r2 = q / a, c / q
    return np.minimum(np.where(r1 > 0.0, r1, np.inf), np.where(r2 > 0.0, r2, np.inf))


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
    or already at 0 when X0 > 1.
    Wang's (1 - X0)^2 > 4 lambda X1 closes at (1 - X0)^2 / (4 X1), and
    Dvijotham's sqrt(X0 + lambda X1) + sqrt(lambda E1) <= 1 at t^2 with
    t = (1 - X0)/(sqrt(E1) + sqrt(X1 (1 - X0) + X0 E1)). Every limit is
    divided by c.
    """
    x0, X0 = (0.0, 0.0) if m0 is None else (m0.xi, m0.xi_max)
    X1, E1 = m.xi_max, m.eta_max
    if E1 > X1 * (1.0 + 1e-9):
        raise RuntimeError(
            f"eta {E1} exceeds xi {X1}: impossible for sigma = S by the triangle inequality"
        )
    level = _first_positive_roots(
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
        critical_bus=red.load_ids[k] if math.isfinite(level[k]) else None,
        mode=mode,
    )


def _positive_scalar_ratio(direction: np.ndarray, S0: np.ndarray) -> float | None:
    """c > 0 with direction == c * S0 entrywise, or None."""
    j = int(np.argmax(np.abs(S0)))
    if S0[j] == 0:
        return None
    ratio = direction[j] / S0[j]
    if abs(ratio.imag) > 1e-12 * abs(ratio) or ratio.real <= 0:
        return None
    c = float(ratio.real)
    scale = float(np.abs(direction).max())
    if np.abs(direction - c * S0).max() > 1e-12 * max(scale, 1e-300):
        return None
    return c


def _first_failure(holds) -> float:
    """sup of the leading interval of scalings on which `holds` is true."""
    if not holds(1e-12):
        return 0.0
    lo, hi = 0.0, 1.0
    for _ in range(200):
        if not holds(hi):
            break
        lo, hi = hi, 2.0 * hi
    else:
        return math.inf
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if holds(mid):
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-13 * hi:
            break
    return 0.5 * (lo + hi)


def lambda_all(red: GridReduction, S_L: np.ndarray) -> LimitEstimates:
    """All three limit estimates along the direction S_L.

    The mode follows red.S0. On a reduction from reduce_network (S0 = 0),
    loads scale from zero: total load lambda S_L. On one re-centered on a
    known solution (v0, S0) by renormalize_about_solution, the estimates are
    the maximum certified incremental scalings: increment lambda S_L on top
    of S0. Both are load lines xi_i = x0_i + lambda x1_i, eta_i = lambda e1_i
    with closed-form limits (from zero x0 = 0; about a known solution, for
    S_L = c S0, x0 = x1 = xi(S0) and every limit is divided by c). Other
    increment directions are not such a line, since |S0 + lambda S_L| is
    not affine in lambda: lambda_p and lambda_d then come from bisection on
    the certificate conditions.
    """
    S_L = np.asarray(S_L, dtype=complex)
    if not S_L.any():
        raise CaseError("load direction is identically zero")
    if not red.S0.any():
        return _line_limits(red, "from_zero", compute_stress(red.Ztilde, S_L))
    c = _positive_scalar_ratio(S_L, red.S0)
    if c is not None:
        m0 = compute_stress(red.Ztilde, red.S0)
        return _line_limits(red, "from_known_solution", m0, m0, c)
    return _skew_limits(red, S_L)


def _skew_limits(red: GridReduction, D: np.ndarray) -> LimitEstimates:
    """Bisection for increment directions not proportional to S0.

    Wang's condition, (1 - xi(S0))^2 - 4 lambda xi(D) > 0, needs only the
    line's maxima, so lambda_w still comes from _line_limits.
    """
    Zt, S0 = red.Ztilde, red.S0
    line = _line_limits(red, "from_known_solution", compute_stress(Zt, D), compute_stress(Zt, S0))

    def proposed_holds(lam: float) -> bool:
        m = compute_stress(Zt, S0 + lam * D, lam * D)
        return m.stress_level < 1.0 and m.stress_spread <= 1.0

    def dvij_holds(lam: float) -> bool:
        m = compute_stress(Zt, S0 + lam * D, lam * D)
        return math.sqrt(m.xi_max) + math.sqrt(m.eta_max) <= 1.0

    return replace(
        line,
        lambda_p=_first_failure(proposed_holds),
        lambda_d=_first_failure(dvij_holds),
        critical_bus=None,
    )


def default_sweep_buses(red: GridReduction, S_base: np.ndarray) -> tuple[int, int]:
    """First two load buses with nonzero real base load."""
    hot = [bus for bus, s in zip(red.load_ids, S_base) if s.real != 0.0]
    if len(hot) < 2:
        raise CaseError("direction sweep needs at least two load buses with real power demand")
    return hot[0], hot[1]


def direction_sweep(
    case: NetworkCase,
    red: GridReduction,
    S_base: np.ndarray,
    bus_a: int,
    bus_b: int,
    angle_pairs,
    with_oracle: bool = False,
) -> SweepResult:
    """Limit estimates while the two chosen loads swing around the power circle.

    The two loads are set to a common magnitude M e^{j phi} (M chosen so
    their joint 2-norm matches the remaining loads'), the rest of the system
    stays at base load, and the limits are recomputed per grid point with
    the reduction held fixed.
    """
    if bus_a == bus_b:
        raise CaseError("sweep buses must differ")
    try:
        ia, ib = red.load_index(bus_a), red.load_index(bus_b)
    except ValueError as exc:
        raise CaseError(f"sweep buses must be load buses: {exc}") from exc

    rest = np.delete(S_base, [ia, ib])
    rest_norm = float(np.linalg.norm(rest))
    if rest_norm > 0.0:
        magnitude = rest_norm / math.sqrt(2.0)
    else:
        magnitude = float((abs(S_base[ia]) + abs(S_base[ib])) / 2.0)
    if magnitude == 0.0:
        raise CaseError("all candidate loads are zero; nothing to sweep")

    points = []
    for phi_a, phi_b in angle_pairs:
        S = S_base.copy()
        S[ia] = magnitude * np.exp(1j * phi_a)
        S[ib] = magnitude * np.exp(1j * phi_b)
        est = lambda_all(red, S)
        if with_oracle:
            actual = oracle.actual_limit(case, direction=S, network=red)
            est = replace(est, lambda_actual=actual)
        points.append(SweepPoint(phi_a=float(phi_a), phi_b=float(phi_b), estimates=est))
    return SweepResult(bus_a=bus_a, bus_b=bus_b, magnitude=magnitude, points=tuple(points))


def bound_profile(
    case: NetworkCase,
    red: GridReduction,
    S_base: np.ndarray,
    bus_id: int,
    lambda_grid,
    with_oracle: bool = True,
):
    """Voltage-magnitude lower bounds at one bus as the whole system load scales.

    Grid point lambda is the total load lambda S_base, on a re-centered
    reduction too (its certificates then take the increment from red.S0).
    Per grid point: the lower bound from each certificate's region (absent
    once that condition stops holding) and the actual solved voltage (absent
    once the Newton oracle stops converging). Absence is data, not an error.
    """
    try:
        k = red.load_index(bus_id)
    except ValueError as exc:
        raise CaseError(f"bus {bus_id} is not a load bus") from exc
    scale = float(abs(red.E[k] * red.v0[k]))

    warm = red.E
    newton_alive = with_oracle

    rows = []
    for lam in lambda_grid:
        S = lam * S_base
        cert, wang, dvij = certify_all(red, S)
        proposed = float(voltage_bounds(cert, red).magnitude_low[k]) if cert.holds else None
        wang_low = scale * wang.magnitude_interval()[0] if wang.holds else None
        dvij_low = scale * dvij.magnitude_interval()[0] if dvij.holds else None

        actual = None
        if newton_alive:
            res = oracle.newton_solve(case, S, start=warm, network=red)
            if res.converged:
                warm = res.V_L
                actual = float(abs(res.V_L[k]))
            else:
                newton_alive = False  # past the nose; later points only get bounds

        rows.append(
            {
                "lambda": float(lam),
                "proposed": proposed,
                "wang": wang_low,
                "dvijotham": dvij_low,
                "actual": actual,
            }
        )
    return rows
