"""Solvability certificates: the polydisc condition and two baseline shells.

The primary certificate holds when

    gamma + 2 xi eta < 1   (stress level, strict)
    xi - eta <= 1          (stress spread, non-strict)

and then guarantees exactly one solution of the fixed-point power-flow
equations in the closed polydisc with per-bus centers 1 - eta_i and radii
r_lo xi_i, no solutions elsewhere in the region |u_i - 1|/|u_i| < r_hi, and
linear convergence of the fixed-point iteration started anywhere in that
region. The two baselines (Wang-style and Dvijotham-style conditions from
the solvability literature) certify annular shells in |u_i| instead; both
are implemented for side-by-side comparison and are provably dominated by
the polydisc condition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .admittance import GridReduction
from .stress import DiscRadii, NoCertificate, StressMeasures, compute_radii, compute_stress

REASON_LEVEL = "stress_level"
REASON_SPREAD = "stress_spread"

_MU_GRID = 63  # interior radii probed when bounding the contraction factor
_MU_FRACTIONS = np.linspace(1.0 / (_MU_GRID + 1), _MU_GRID / (_MU_GRID + 1.0), _MU_GRID)


@dataclass(frozen=True)
class Certificate:
    holds: bool
    reason: str | None  # which condition failed, when holds is False
    measures: StressMeasures
    radii: DiscRadii | None  # r_hi bounds the region that holds no other solution
    disc_centers: np.ndarray | None  # 1 - eta_i, in normalized (u) coordinates
    disc_radii: np.ndarray | None  # r_lo * xi_i
    mu_bound: float | None  # contraction factor estimate, < 1 when available


@dataclass(frozen=True)
class ShellCertificate:
    """Baseline condition certifying an annulus in |u_i| (method: wang/dvijotham)."""

    method: str
    holds: bool
    radius: float | None
    uniqueness: bool
    condition_value: float  # the scalar the condition compares against its threshold

    def magnitude_interval(self) -> tuple[float, float] | None:
        """(low, high) multipliers on |E_i v0_i| bounding certified voltages."""
        if not self.holds or self.radius is None:
            return None
        r = self.radius
        if self.method == "wang":
            return (1.0 - r, 1.0 + r)
        return (1.0 / (1.0 + r), math.inf if r >= 1.0 else 1.0 / (1.0 - r))


@dataclass(frozen=True)
class VoltageBounds:
    load_ids: tuple[int, ...]
    magnitude_low: np.ndarray
    magnitude_high: np.ndarray
    angle_low: np.ndarray  # radians; full-circle buses carry [-pi, pi]
    angle_high: np.ndarray
    approx: np.ndarray  # physical disc centers, the approximate solution
    full_circle: np.ndarray  # bool: disc contains the origin, angle unbounded


def certify(m: StressMeasures) -> Certificate:
    """Evaluate the polydisc certificate on precomputed stress measures.

    A failing certificate is a valid result (holds=False plus the failed
    condition); only malformed inputs raise.
    """
    level_ok = m.stress_level < 1.0
    spread_ok = m.stress_spread <= 1.0
    if not (level_ok and spread_ok):
        return Certificate(
            holds=False,
            reason=REASON_LEVEL if not level_ok else REASON_SPREAD,
            measures=m,
            radii=None,
            disc_centers=None,
            disc_radii=None,
            mu_bound=None,
        )
    radii = compute_radii(m)
    centers = 1.0 - m.eta_complex
    disc_radii = (0.0 if radii.degenerate else radii.r_lo) * m.xi
    return Certificate(
        holds=True,
        reason=None,
        measures=m,
        radii=radii,
        disc_centers=centers,
        disc_radii=disc_radii,
        mu_bound=estimate_contraction(m, radii),
    )


def estimate_contraction(m: StressMeasures, radii: DiscRadii) -> float | None:
    """Upper bound on the iteration contraction factor mu in [0, 1).

    mu is defined as sup over the invariant polydisc of max_i |u_i - 1|/|u_i|
    divided by the polydisc scale r'. The map u -> 1 - 1/u sends the disc
    |u - c_i| <= rho_i (c_i = 1 - eta_i, rho_i = r' xi_i, |c_i| > rho_i) onto
    the disc with center 1 - conj(c_i)/(|c_i|^2 - rho_i^2) and radius
    rho_i/(|c_i|^2 - rho_i^2), so the sup is that center's modulus plus the
    radius: exact at every interior radius r' of the grid, hence an upper
    bound on the minimax. Only the admissible radii enter: a boolean row mask
    keeps those whose discs all miss the origin (|c_i| > rho_i for every i).
    Returns None when no radius is admissible or no bound below 1 is found.
    """
    if radii.degenerate:
        return 0.0
    centers = 1.0 - m.eta_complex
    grid = radii.r_lo + _MU_FRACTIONS * (radii.r_hi - radii.r_lo)
    rho = grid[:, None] * m.xi
    d = np.abs(centers) ** 2 - rho**2
    admissible = (d > 0.0).all(axis=1)
    if not admissible.any():
        return None
    rho, d = rho[admissible], d[admissible]
    sup = np.abs(1.0 - centers.conj() / d) + rho / d
    best = float((sup.max(axis=1) / grid[admissible]).min())
    return best if best < 1.0 else None


def certify_all(red: GridReduction, S: np.ndarray) -> tuple[Certificate, ShellCertificate, ShellCertificate]:
    """The polydisc, Wang and Dvijotham certificates at total load S on red.

    The increment is sigma = S - red.S0: the stress measures follow S and
    sigma, and Wang's condition takes xi at S0 and at sigma. From zero load
    these are 0 and xi(S), which take no stress calls of their own.
    """
    sigma = S - red.S0
    m = compute_stress(red.Ztilde, S, sigma)
    if red.S0.any():
        wang = certify_wang(compute_stress(red.Ztilde, red.S0), compute_stress(red.Ztilde, sigma))
    else:
        wang = _wang(0.0, m.xi_max)
    return certify(m), wang, certify_dvijotham(m)


def certify_wang(m_base: StressMeasures, m_incr: StressMeasures) -> ShellCertificate:
    """Baseline shell certificate driven by xi alone.

    m_base carries xi at the known base load S0 (zero load from scratch),
    m_incr carries xi at the increment sigma. Holds when xi(S0) < 1 and
    (1 - xi(S0))^2 - 4 xi(sigma) > 0 (strict); fails, with no radius, otherwise.
    Its condition value, min((1 - xi(S0))^2 - 4 xi(sigma), 1 - xi(S0)), is
    positive exactly when it holds, and is the discriminant itself while xi(S0) < 1.
    """
    return _wang(m_base.xi_max, m_incr.xi_max)


def _wang(xi0: float, xis: float) -> ShellCertificate:
    disc = (1.0 - xi0) ** 2 - 4.0 * xis
    holds = xi0 < 1.0 and disc > 0.0
    radius = (1.0 - xi0 - math.sqrt(disc)) / 2.0 if holds else None
    return ShellCertificate(
        method="wang", holds=holds, radius=radius, uniqueness=True, condition_value=min(disc, 1.0 - xi0)
    )


def certify_dvijotham(m: StressMeasures) -> ShellCertificate:
    """Baseline existence-only shell: holds when sqrt(xi) + sqrt(eta) <= 1."""
    xi, eta = m.xi_max, m.eta_max
    value = math.sqrt(xi) + math.sqrt(eta)
    holds = value <= 1.0 + 1e-12  # non-strict boundary, robust to roundoff
    radius = None
    if holds:
        if xi > 0.0:
            inner = max((1.0 - xi - eta) ** 2 - 4.0 * xi * eta, 0.0)
            radius = (1.0 - xi - eta - math.sqrt(inner)) / (2.0 * xi)
        else:
            radius = 0.0 if eta == 0.0 else eta / (1.0 - eta)
    return ShellCertificate(
        method="dvijotham", holds=holds, radius=radius, uniqueness=False, condition_value=value
    )


def voltage_bounds(cert: Certificate, red: GridReduction) -> VoltageBounds:
    """Physical per-bus voltage enclosures implied by a holding certificate.

    The normalized discs map to physical discs with centers E_i v0_i (1-eta_i)
    and radii |E_i v0_i| r_lo xi_i; magnitude bounds are |center| +- radius and
    angle bounds arg(center) +- arcsin(radius/|center|). A disc reaching the
    origin leaves the angle unconstrained and is flagged full_circle.
    """
    if not cert.holds:
        raise NoCertificate("voltage bounds require a holding certificate")
    scale = red.scale
    centers = scale * cert.disc_centers
    rho = np.abs(scale) * cert.disc_radii
    abs_c = np.abs(centers)
    full = rho >= abs_c
    mag_low = np.where(full, 0.0, abs_c - rho)
    mag_high = abs_c + rho
    arg_c = np.angle(centers)
    with np.errstate(invalid="ignore"):
        half_width = np.arcsin(np.where(full, 1.0, rho / np.where(abs_c > 0, abs_c, 1.0)))
    angle_low = np.where(full, -np.pi, arg_c - half_width)
    angle_high = np.where(full, np.pi, arg_c + half_width)
    return VoltageBounds(
        load_ids=red.load_ids,
        magnitude_low=mag_low,
        magnitude_high=mag_high,
        angle_low=angle_low,
        angle_high=angle_high,
        approx=centers,
        full_circle=full,
    )

