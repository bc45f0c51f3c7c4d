"""Solvability-limit estimation along loading directions, direction sweeps,
and voltage-bound-versus-loading profiles for all three certificates.

All estimators exploit the linear scaling of the stress measures:
eta(lambda S) = lambda eta(S) and xi(lambda S) = lambda xi(S), which turns
every certificate boundary into a per-bus quadratic (or closed form) in the
scaling factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import oracle
from .admittance import GridReduction, reduce_case, renormalize_about_solution
from .certificate import certify, certify_dvijotham, certify_wang, voltage_bounds
from .net_model import CaseError, NetworkCase, load_power_vector, partition_buses
from .stress import StressMeasures, compute_stress

_REL_EPS = 1e-12  # tolerance for xi == eta and set-membership decisions


@dataclass(frozen=True)
class LimitEstimates:
    lambda_p: float  # polydisc (proposed) condition
    lambda_w: float  # wang-style shell condition
    lambda_d: float  # dvijotham-style shell condition
    critical_bus: int | None  # load bus whose quadratic binds lambda_p
    mode: str  # "from_zero" or "from_known_solution"
    kappa: float | None  # intermediate rescaling of the from-zero procedure
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
    """Reduce a case and extract its base load vector.

    gen_phasors selects where the fixed generator phasors come from:
    "case" uses setpoint magnitudes with case-file angles, "solved" fixes
    them from a conventional solved base case.
    """
    if gen_phasors == "case":
        V_G = None
    elif gen_phasors == "solved":
        V_G = oracle.solved_generator_phasors(case)
    else:
        raise CaseError(f"unknown gen_phasors mode {gen_phasors!r} (expected 'case' or 'solved')")
    red = reduce_case(case, V_G)
    return red, load_power_vector(case, red.load_ids)


def _min_positive_root(a: float, b: float, c: float) -> float | None:
    """Smallest positive root of a x^2 + b x + c = 0 (None when there is none)."""
    if a == 0.0:
        if b == 0.0:
            return None
        x = -c / b
        return x if x > 0.0 else None
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return None
    q = -(b + math.copysign(math.sqrt(disc), b)) / 2.0
    roots = []
    if q != 0.0:
        roots.append(q / a)
        roots.append(c / q)
    else:  # b == 0 and c == 0
        roots.append(0.0)
    positive = [r for r in roots if r > 0.0]
    return min(positive) if positive else None


def lambda_wang(m: StressMeasures) -> float:
    """Largest scaling certified by the xi-only shell condition: 1/(4 xi)."""
    if m.xi_max == 0.0:
        return math.inf
    return 1.0 / (4.0 * m.xi_max)


def lambda_dvijotham(m: StressMeasures) -> float:
    """Largest scaling with sqrt(lambda xi) + sqrt(lambda eta) <= 1."""
    if m.xi_max == 0.0:
        return math.inf
    return (math.sqrt(m.xi_max) + math.sqrt(m.eta_max)) ** -2


def lambda_proposed(red: GridReduction, S_L: np.ndarray) -> LimitEstimates:
    """Largest scaling certified by the polydisc condition, scaling from zero.

    Procedure: rescale the direction by kappa so the spread condition is
    tight (xi - eta = 1), keep the buses whose fused stress meets or exceeds
    1 there (stress grows monotonically up to that point, so the boundary
    crossing is the first root), solve each bus's quadratic for its crossing,
    and take the smallest.
    """
    S_L = np.asarray(S_L, dtype=complex)
    if np.all(S_L == 0):
        raise CaseError("base load direction is identically zero")
    m = compute_stress(red.Ztilde, S_L)
    xi, eta = m.xi_max, m.eta_max
    if eta > xi * (1.0 + 1e-9):
        raise RuntimeError(
            f"eta {eta} exceeds xi {xi}: impossible for sigma = S by the triangle inequality"
        )

    equal_spread = (xi - eta) <= xi * _REL_EPS
    kappa = 1.0 if equal_spread else 1.0 / (xi - eta)

    # coefficients of the fused stress of bus i at scaling lambda * kappa:
    #   a_i lambda^2 + b_i lambda, with the certificate boundary at value 1
    a = kappa * kappa * (2.0 * xi * eta - m.xi**2 - m.eta_abs**2)
    b = 2.0 * kappa * (m.xi + m.eta_complex.real)

    if equal_spread:
        members = np.arange(m.n)
    else:
        members = np.flatnonzero(a + b >= 1.0 - 1e-9)
        if members.size == 0:
            raise RuntimeError(
                "no bus reaches the certificate boundary at the spread-tight scaling"
            )

    best_lambda = math.inf
    best_bus = None
    for i in members:
        root = _min_positive_root(float(a[i]), float(b[i]), -1.0)
        if root is None:
            continue
        if not equal_spread and root > 1.0 + 1e-6:
            continue
        if root < best_lambda:
            best_lambda = root
            best_bus = int(i)

    if best_bus is None:
        if not equal_spread:
            raise RuntimeError("no boundary crossing found despite a non-empty bus set")
        lam_p = math.inf  # stress level never reaches 1: certifiable at every scaling
        critical = None
    else:
        lam_p = kappa * best_lambda
        critical = red.load_ids[best_bus]

    return LimitEstimates(
        lambda_p=lam_p,
        lambda_w=lambda_wang(m),
        lambda_d=lambda_dvijotham(m),
        critical_bus=critical,
        mode="from_zero",
        kappa=kappa,
    )


def _known_solution_limits(red: GridReduction, m0: StressMeasures) -> LimitEstimates:
    """Maximum certified incremental scalings about a known solution, for
    increments along the base load itself: sigma = lambda S0, total load
    (1 + lambda) S0. Returns the incremental lambdas.
    """
    a_i = m0.xi  # per-bus xi at the base load, under the re-centered impedance
    h_i = m0.eta_complex
    xi0, eta0 = m0.xi_max, m0.eta_max

    # wang: (1 - xi0)^2 - 4 lambda xi0 > 0
    if xi0 == 0.0:
        lam_w = math.inf
    elif xi0 >= 1.0:
        lam_w = 0.0
    else:
        lam_w = (1.0 - xi0) ** 2 / (4.0 * xi0)

    # dvijotham: sqrt((1 + lambda) xi0) + sqrt(lambda eta0) <= 1, a quadratic
    # in x = sqrt(lambda) whose positive root is taken in its stable form
    if xi0 == 0.0:
        lam_d = math.inf
    elif xi0 >= 1.0:
        lam_d = 0.0
    else:
        x = (1.0 - xi0) / (math.sqrt(eta0) + math.sqrt(xi0 * (1.0 - xi0 + eta0)))
        lam_d = x * x

    # polydisc: per-bus fused stress reaches 1, quadratic in lambda
    A = 2.0 * xi0 * eta0 - a_i**2 - np.abs(h_i) ** 2
    B = 2.0 * (a_i + h_i.real - a_i**2 + xi0 * eta0)
    C = 2.0 * a_i - a_i**2 - 1.0
    lam_level = math.inf
    critical = None
    for i in range(m0.n):
        root = _min_positive_root(float(A[i]), float(B[i]), float(C[i]))
        if root is not None and root < lam_level:
            lam_level = root
            critical = red.load_ids[i]
    # spread: (1 + lambda) xi0 - lambda eta0 <= 1
    if xi0 > eta0:
        lam_spread = (1.0 - xi0) / (xi0 - eta0)
        if lam_spread < 0.0:
            lam_spread = 0.0
    else:
        lam_spread = math.inf
    lam_p = min(lam_level, lam_spread)

    return LimitEstimates(
        lambda_p=lam_p,
        lambda_w=lam_w,
        lambda_d=lam_d,
        critical_bus=critical,
        mode="from_known_solution",
        kappa=None,
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


def _first_failure(holds, lo: float = 0.0) -> float:
    """sup of the leading interval of scalings on which `holds` is true."""
    if not holds(lo if lo > 0 else 1e-12):
        return 0.0
    hi = max(2.0 * lo, 1.0)
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


def lambda_all(
    red: GridReduction,
    S_L: np.ndarray,
    with_known_solution: tuple[np.ndarray, np.ndarray] | None = None,
) -> LimitEstimates:
    """All three limit estimates along the direction S_L.

    Without a known solution, loads scale from zero (total load lambda S_L).
    With one, (v0, S0) re-centers the impedance matrix and the estimates are
    the maximum certified incremental scalings: increment lambda S_L on top
    of the base S0. Directions proportional to S0 (the standard experiment)
    use closed forms; arbitrary directions fall back to bisection on the
    certificate conditions.
    """
    if with_known_solution is None:
        return lambda_proposed(red, S_L)
    v0, S0 = with_known_solution
    red2 = renormalize_about_solution(red, v0, S0)
    S0 = np.asarray(S0, dtype=complex)
    D = np.asarray(S_L, dtype=complex)
    if np.all(D == 0):
        raise CaseError("increment direction is identically zero")

    if np.all(S0 == 0):  # v0 is then the flat solution and Ztilde = Zhat
        est = lambda_proposed(red2, D)
        return replace(est, mode="from_known_solution")

    c = _positive_scalar_ratio(D, S0)
    if c is not None:
        est = _known_solution_limits(red2, compute_stress(red2.Ztilde, S0, S0))
        return replace(
            est,
            lambda_p=est.lambda_p / c,
            lambda_w=est.lambda_w / c,
            lambda_d=est.lambda_d / c,
        )
    return _known_solution_limits_generic(red2, S0, D)


def _known_solution_limits_generic(red: GridReduction, S0: np.ndarray, D: np.ndarray) -> LimitEstimates:
    """Bisection fallback for increment directions not proportional to S0."""
    Zt = red.Ztilde
    m_dir = compute_stress(Zt, D, D)
    m_base = compute_stress(Zt, S0, S0)

    def proposed_holds(lam: float) -> bool:
        m = compute_stress(Zt, S0 + lam * D, lam * D)
        return m.stress_level < 1.0 and m.stress_spread <= 1.0

    def dvij_holds(lam: float) -> bool:
        m = compute_stress(Zt, S0 + lam * D, lam * D)
        return math.sqrt(m.xi_max) + math.sqrt(m.eta_max) <= 1.0

    # wang's condition is closed-form in lambda even for skew directions:
    # (1 - xi(S0))^2 - 4 lambda xi(D) > 0
    if m_base.xi_max >= 1.0:
        lam_w = 0.0
    elif m_dir.xi_max == 0.0:
        lam_w = math.inf
    else:
        lam_w = (1.0 - m_base.xi_max) ** 2 / (4.0 * m_dir.xi_max)

    return LimitEstimates(
        lambda_p=_first_failure(proposed_holds),
        lambda_w=lam_w,
        lambda_d=_first_failure(dvij_holds),
        critical_bus=None,
        mode="from_known_solution",
        kappa=None,
    )


def default_sweep_buses(case: NetworkCase) -> tuple[int, int]:
    """First two load buses with nonzero real power demand."""
    _, load_ids = partition_buses(case)
    hot = [i for i in load_ids if case.bus(i).demand.real != 0.0]
    if len(hot) < 2:
        raise CaseError("direction sweep needs at least two load buses with real power demand")
    return hot[0], hot[1]


def direction_sweep(
    case: NetworkCase,
    bus_a: int,
    bus_b: int,
    angle_pairs,
    gen_phasors: str = "case",
    with_oracle: bool = False,
) -> SweepResult:
    """Limit estimates while the two chosen loads swing around the power circle.

    The two loads are set to a common magnitude M e^{j phi} (M chosen so
    their joint 2-norm matches the remaining loads'), the rest of the system
    stays at base load, and the limits are recomputed per grid point with
    the reduction held fixed.
    """
    red, S_base = prepare(case, gen_phasors)
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
            actual = oracle.actual_limit(case, direction=S, bracket=(1e-3, None), network=red)
            est = replace(est, lambda_actual=actual)
        points.append(SweepPoint(phi_a=float(phi_a), phi_b=float(phi_b), estimates=est))
    return SweepResult(bus_a=bus_a, bus_b=bus_b, magnitude=magnitude, points=tuple(points))


def bound_profile(
    case: NetworkCase,
    bus_id: int,
    lambda_grid,
    gen_phasors: str = "case",
    with_oracle: bool = True,
):
    """Voltage-magnitude lower bounds at one bus as the whole system load scales.

    Per grid point: the lower bound from each certificate's region (absent
    once that condition stops holding) and the actual solved voltage (absent
    once the Newton oracle stops converging). Absence is data, not an error.
    """
    red, S_base = prepare(case, gen_phasors)
    try:
        k = red.load_index(bus_id)
    except ValueError as exc:
        raise CaseError(f"bus {bus_id} is not a load bus") from exc
    scale = float(abs(red.E[k] * red.v0[k]))
    zero = np.zeros_like(S_base)
    m_zero = compute_stress(red.Ztilde, zero)

    warm = red.E
    newton_alive = with_oracle

    rows = []
    for lam in lambda_grid:
        S = lam * S_base
        m = compute_stress(red.Ztilde, S)

        cert = certify(m)
        if cert.holds:
            vb = voltage_bounds(cert, red)
            proposed = float(vb.magnitude_low[k])
        else:
            proposed = None

        wang = certify_wang(m_zero, m)
        wang_low = scale * wang.magnitude_interval()[0] if wang.holds else None

        dvij = certify_dvijotham(m)
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
