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
    note: str | None = None


def _map(u: np.ndarray, Zt: np.ndarray, S0c: np.ndarray, Sc: np.ndarray) -> np.ndarray:
    """F(u) from Ztilde, S0* and S_L*: the map's one formula."""
    return 1.0 + Zt @ (S0c - Sc / u.conj())


def evaluate_F(u: np.ndarray, red: GridReduction, S_L: np.ndarray) -> np.ndarray:
    """One application of the fixed-point map; u must have no zero entries."""
    u = np.asarray(u, dtype=complex)
    S_L = np.asarray(S_L, dtype=complex)
    if np.any(u == 0):
        raise ValueError("fixed-point map undefined: iterate has zero entries")
    return _map(u, red.Ztilde, red.S0.conj(), S_L.conj())


def solve_fixed_point(
    red: GridReduction,
    S_L: np.ndarray,
    start: np.ndarray | None = None,
    tol: float = 1e-10,
    max_iter: int = 1000,
    certificate: Certificate | None = None,
) -> FixedPointResult:
    """Iterate u <- F(u) until ||u - F(u)||_inf < tol.

    Non-convergence is a structured outcome (converged=False with the
    residual trace), not an exception: the solver doubles as a feasibility
    probe in uncertified regimes. When a holding certificate is supplied the
    converged iterate is checked against its polydisc.

    tol (0 < tol < inf) and start (no zero entry) are checked once per
    solve, and the steps apply F without evaluate_F's checks: no iterate
    with a zero entry is ever mapped, since the loop stops as soon as an
    entry falls below DIVERGENCE_CUTOFF in magnitude. With max_iter=k and
    no earlier convergence, u is the k-th iterate from start.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    u = np.ones(red.n_load, dtype=complex) if start is None else np.array(start, dtype=complex)
    if np.any(u == 0):
        raise ValueError("start vector has zero entries")
    Zt, S0c, Sc = red.Ztilde, red.S0.conj(), np.asarray(S_L, dtype=complex).conj()

    trace: list[float] = []
    converged = False
    note = None
    residual = math.inf
    iterations = 0

    for iterations in range(1, max_iter + 1):
        fu = _map(u, Zt, S0c, Sc)
        residual = float(np.abs(u - fu).max())
        trace.append(residual)
        u = fu
        if residual < tol:
            converged = True
            break
        # .any(), not .min(): a NaN entry beside a tiny one must still stop the loop
        if (np.abs(u) < DIVERGENCE_CUTOFF).any():
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
        note=note,
    )
