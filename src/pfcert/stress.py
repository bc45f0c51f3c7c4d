"""Per-bus and aggregate loading stress measures and certificate disc radii.

For each load bus i, with rows z_i of the normalized impedance matrix:

    eta_i   = z_i . sigma*          (signed aggregate stress, complex)
    xi_i    = sum_j |z_ij| |S_j|    (l1 stress of the row against total load)
    gamma_i = 2(xi_i + Re eta_i) - xi_i^2 - |eta_i|^2

The certificate radii are the two positive roots (in r^2) of
xi^2 r^4 + (gamma - 1) r^2 + eta^2 = 0 built from the bus-wise maxima.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class NoCertificate(ValueError):
    """The stress measures violate the certificate precondition (no discs exist)."""


@dataclass(frozen=True)
class StressMeasures:
    eta_complex: np.ndarray  # eta_i, complex per load bus
    eta_abs: np.ndarray
    xi: np.ndarray
    gamma: np.ndarray
    eta_max: float
    xi_max: float
    gamma_max: float
    Delta: float  # (1 - gamma)^2 - 4 xi^2 eta^2

    @property
    def stress_level(self) -> float:
        """gamma + 2 xi eta, the scalar the primary certificate compares to 1."""
        return self.gamma_max + 2.0 * self.xi_max * self.eta_max

    @property
    def stress_spread(self) -> float:
        """xi - eta, which must stay at or below 1."""
        return self.xi_max - self.eta_max


@dataclass(frozen=True)
class DiscRadii:
    r_lo: float
    r_hi: float
    degenerate: bool = False  # xi = 0: every positive radius is admissible


def compute_stress(Ztilde: np.ndarray, S_L: np.ndarray, sigma_L: np.ndarray | None = None) -> StressMeasures:
    """Stress measures of total load S_L and incremental load sigma_L.

    xi follows S_L and eta follows sigma_L. On a reduction re-centered on a
    known solution (v0, S0), pass Ztilde with sigma_L = S_L - S0; from zero
    load, and for measures of a direction rather than a state, omit sigma_L
    (it defaults to S_L).
    """
    Ztilde = np.asarray(Ztilde, dtype=complex)
    S_L = np.asarray(S_L, dtype=complex)
    sigma_L = S_L if sigma_L is None else np.asarray(sigma_L, dtype=complex)
    n = Ztilde.shape[0]
    if Ztilde.shape != (n, n) or S_L.shape != (n,) or sigma_L.shape != (n,):
        raise ValueError(
            f"dimension mismatch: Ztilde {Ztilde.shape}, S_L {S_L.shape}, sigma_L {sigma_L.shape}"
        )

    eta_complex = Ztilde @ sigma_L.conj()
    eta_abs = np.abs(eta_complex)
    xi = np.abs(Ztilde) @ np.abs(S_L)
    gamma = 2.0 * (xi + eta_complex.real) - xi**2 - eta_abs**2

    eta_max = float(eta_abs.max())
    xi_max = float(xi.max())
    gamma_max = float(gamma.max())
    # difference-of-squares form avoids cancellation near the certificate boundary
    delta = (1.0 - gamma_max - 2.0 * xi_max * eta_max) * (1.0 - gamma_max + 2.0 * xi_max * eta_max)

    return StressMeasures(
        eta_complex=eta_complex,
        eta_abs=eta_abs,
        xi=xi,
        gamma=gamma,
        eta_max=eta_max,
        xi_max=xi_max,
        gamma_max=gamma_max,
        Delta=delta,
    )


def compute_radii(m: StressMeasures) -> DiscRadii:
    """Inner and outer certificate radii.

    Requires gamma + 2 xi eta < 1 (which makes Delta positive); raises
    NoCertificate otherwise. With xi = 0 the discs degenerate and any r > 0
    works; that case is flagged and encoded as (0, inf).
    """
    if m.xi_max == 0.0:
        return DiscRadii(r_lo=0.0, r_hi=math.inf, degenerate=True)
    if not (m.stress_level < 1.0) or m.Delta < 0.0:
        raise NoCertificate(
            f"stress level gamma + 2 xi eta = {m.stress_level:.6g} is not below 1"
        )
    root = math.sqrt(m.Delta)
    two_xi_sq = 2.0 * m.xi_max**2
    r_lo = math.sqrt(max((1.0 - m.gamma_max - root), 0.0) / two_xi_sq)
    r_hi = math.sqrt((1.0 - m.gamma_max + root) / two_xi_sq)
    return DiscRadii(r_lo=r_lo, r_hi=r_hi, degenerate=False)


def first_positive_roots(a, b, c) -> np.ndarray:
    """Smallest positive root of a x^2 + b x + c = 0, elementwise (inf where none).

    The roots are q/a and c/q with q = -(b + sign(b) sqrt(b^2 - 4ac))/2, the
    form without cancellation; with a = 0 the second is the linear root -c/b.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        q = -(b + np.copysign(np.sqrt(b * b - 4.0 * a * c), b)) / 2.0
        r1, r2 = q / a, c / q
    return np.minimum(np.where(r1 > 0.0, r1, np.inf), np.where(r2 > 0.0, r2, np.inf))
