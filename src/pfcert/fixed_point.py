"""The fixed-point power-flow map and its certified iteration.

In normalized coordinates u (load voltage over E v0) the power-flow
equations at total load S read

    u = F(u) = 1 + Ztilde (S0* - diag(u*)^-1 S*)

where (v0, S0) is the known solution the reduction is re-centered on, so
the increment sigma = S - S0 comes from the reduction. Without one (v0 = 1,
S0 = 0) this is u = 1 - Zhat diag(u*)^-1 S*. Under a holding certificate
the iteration u <- F(u) converges linearly to the unique solution in the
certified polydisc from any start in the outer region.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .admittance import GridReduction
from .certificate import Certificate

DIVERGENCE_CUTOFF = 1e-6  # abort when an iterate approaches the conjugate-inversion pole
CONTAINMENT_SLACK = 1e-8


@dataclass(frozen=True)
class FixedPointResult:
    converged: bool
    u: np.ndarray  # last (or converged) normalized iterate
    V_L: np.ndarray  # physical load voltages diag(E) diag(v0) u
    iterations: int
    residual: float  # ||u - F(u)||_inf at the last iterate
    trace: tuple[float, ...] | None  # per-iteration residual norms
    iterates: tuple[np.ndarray, ...] | None  # u^0, u^1, ... when recorded
    note: str | None = None


def evaluate_F(u: np.ndarray, red: GridReduction, S_L: np.ndarray) -> np.ndarray:
    """One application of the fixed-point map; u must have no zero entries."""
    u = np.asarray(u, dtype=complex)
    S_L = np.asarray(S_L, dtype=complex)
    if np.any(u == 0):
        raise ValueError("fixed-point map undefined: iterate has zero entries")
    return 1.0 + red.Ztilde @ (red.S0.conj() - S_L.conj() / u.conj())


def solve_fixed_point(
    red: GridReduction,
    S_L: np.ndarray,
    start: np.ndarray | None = None,
    tol: float = 1e-10,
    max_iter: int = 1000,
    record_iterates: bool = False,
    certificate: Certificate | None = None,
) -> FixedPointResult:
    """Iterate u <- F(u) until ||u - F(u)||_inf < tol.

    Non-convergence is a structured outcome (converged=False with the
    residual trace), not an exception: the solver doubles as a feasibility
    probe in uncertified regimes. When a holding certificate is supplied the
    converged iterate is checked against its polydisc.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    S_L = np.asarray(S_L, dtype=complex)
    u = np.ones(red.n_load, dtype=complex) if start is None else np.array(start, dtype=complex)
    if np.any(u == 0):
        raise ValueError("start vector has zero entries")

    trace: list[float] = []
    iterates: list[np.ndarray] = [u.copy()] if record_iterates else []
    converged = False
    note = None
    residual = math.inf
    iterations = 0

    for iterations in range(1, max_iter + 1):
        fu = evaluate_F(u, red, S_L)
        residual = float(np.abs(u - fu).max())
        trace.append(residual)
        u = fu
        if record_iterates:
            iterates.append(u.copy())
        if residual < tol:
            converged = True
            break
        if np.any(np.abs(u) < DIVERGENCE_CUTOFF):
            note = "diverged: iterate magnitude fell below the inversion cutoff"
            break
    else:
        note = f"no convergence within {max_iter} iterations"

    if converged and certificate is not None and certificate.holds:
        gap = np.abs(u - certificate.disc_centers) - certificate.disc_radii
        worst = float(gap.max())
        if worst > CONTAINMENT_SLACK:
            raise RuntimeError(
                "converged iterate escaped the certified polydisc by "
                f"{worst:.3e} (> {CONTAINMENT_SLACK:g})"
            )

    return FixedPointResult(
        converged=converged,
        u=u,
        V_L=red.E * red.v0 * u,
        iterations=iterations,
        residual=residual,
        trace=tuple(trace),
        iterates=tuple(iterates) if record_iterates else None,
        note=note,
    )


def check_convergence_rate(
    result: FixedPointResult,
    cert: Certificate,
    red: GridReduction,
    S_L: np.ndarray,
) -> bool:
    """Verify the certified linear decay along a recorded iterate trace.

    Every iterate must satisfy ||u^n - u_ref||_inf < r_hi xi (1 + mu)
    (2 mu / (1 + mu^2))^(n/2) against a high-precision reference solve.
    """
    if result.iterates is None:
        raise ValueError("result has no recorded iterates; solve with record_iterates=True")
    if not result.converged:
        raise ValueError("rate check requires a converged result")
    if not cert.holds or cert.mu_bound is None or not (0.0 <= cert.mu_bound < 1.0):
        raise ValueError("rate check requires a holding certificate with mu_bound < 1")

    ref = solve_fixed_point(red, S_L, start=result.iterates[0], tol=1e-13, max_iter=20000)
    if not ref.converged:
        raise ValueError("high-precision reference solve did not converge")

    if cert.radii.degenerate:  # zero load: the map is constant, errors must vanish
        return all(float(np.abs(un - ref.u).max()) == 0.0 for un in result.iterates[1:])

    mu = cert.mu_bound
    prefactor = cert.radii.r_hi * cert.measures.xi_max * (1.0 + mu)
    ratio = 2.0 * mu / (1.0 + mu * mu)
    for n, un in enumerate(result.iterates):
        err = float(np.abs(un - ref.u).max())
        if not err < prefactor * ratio ** (n / 2.0):
            return False
    return True
