"""Bus admittance matrix assembly, network reduction, and normalized impedances.

The reduction eliminates generator buses from the nodal equations: with the
generator phasors fixed, the load-bus voltages satisfy V_L = E - Z I_L where
E is the zero-load voltage profile induced by the generators and Z inverts
the load-load admittance block. Normalizing by E (and optionally by a known
solution) yields the unitless impedance matrices the stress measures and the
fixed-point map are built on.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .net_model import CaseError, NetworkCase, generator_phasors, partition_buses

FACTOR_TOL = 1e-10  # max |Y_LL Z - I| accepted from the factorization
SOLUTION_TOL = 1e-6  # fixed-point residual accepted for a "known solution"


class SingularNetworkError(RuntimeError):
    """Y_LL is numerically singular (load island unreachable from all generators)."""


class NotASolutionError(ValueError):
    """A claimed known solution fails the fixed-point residual check."""


@dataclass(frozen=True)
class AdmittanceMatrix:
    """Complex bus admittance matrix in the generators-first bus ordering."""

    matrix: sp.csc_matrix
    bus_order: tuple[int, ...]  # the partition: generator ids, then load ids
    n_gen: int


@dataclass(frozen=True)
class GridReduction:
    """The one per-network object: the load-block factor and what it gives.

    Built by reduce_network, from a case by reduce_case, with Y_LL factored
    once. The dense matrices are formed on first use: Z inverts Y_LL, Zhat is
    Z normalized by E (units 1/power in the per-unit system), and Ztilde
    additionally normalizes by a known solution v0, equal to Zhat when v0 = 1,
    S0 = 0. Zhat and the oracle's Newton kernel are kept in a cache that the
    re-centered copies of renormalize_about_solution share.
    """

    generator_ids: tuple[int, ...]
    load_ids: tuple[int, ...]
    Y: sp.csc_matrix  # full admittance, generators first
    Y_LL: sp.csc_matrix
    lu: spla.SuperLU  # factor of Y_LL
    V_G: np.ndarray
    E: np.ndarray  # zero-load load voltages
    v0: np.ndarray
    S0: np.ndarray
    _shared: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def n_load(self) -> int:
        return len(self.load_ids)

    def load_index(self, bus_id: int) -> int:
        return self.load_ids.index(bus_id)

    @property
    def Z(self) -> np.ndarray:  # solved anew on each use; only Zhat is kept
        return self.lu.solve(np.eye(self.n_load, dtype=complex))

    @property
    def Zhat(self) -> np.ndarray:
        if "Zhat" not in self._shared:
            Z = self.Z
            residual = np.abs(self.Y_LL @ Z - np.eye(self.n_load)).max()
            if not np.isfinite(residual) or residual > FACTOR_TOL:
                raise SingularNetworkError(
                    f"Y_LL factorization residual {residual:.3e} exceeds {FACTOR_TOL:g}; "
                    "the load subnetwork is singular or nearly so"
                )
            self._shared["Zhat"] = Z / np.outer(self.E, self.E.conj())
        return self._shared["Zhat"]

    @cached_property
    def Ztilde(self) -> np.ndarray:
        if np.all(self.v0 == 1) and not np.any(self.S0):
            return self.Zhat
        return self.Zhat / np.outer(self.v0, self.v0.conj())

    @property
    def kernel(self):
        """The oracle's Newton kernel over the load-bus angles and magnitudes."""
        if "kernel" not in self._shared:
            from .oracle import _NewtonKernel  # oracle imports this module

            load = np.arange(len(self.generator_ids), self.Y.shape[0])
            self._shared["kernel"] = _NewtonKernel(self.Y, load, load)
        return self._shared["kernel"]


def build_admittance(case: NetworkCase) -> AdmittanceMatrix:
    """Assemble the nodal admittance matrix from branch pi-models and bus shunts,
    in the order of partition_buses(case).

    Branch stamps follow the from-side off-nominal tap convention: with series
    admittance y, charging b, tap t and shift phi, the from/to blocks are
    (y + jb/2)/t^2, -y/(t e^{-j phi}), -y/(t e^{j phi}), y + jb/2.
    """
    generator_ids, load_ids = partition_buses(case)
    order = generator_ids + load_ids
    pos = {bus_id: k for k, bus_id in enumerate(order)}
    n = len(order)

    rows: list[int] = []
    cols: list[int] = []
    vals: list[complex] = []

    def stamp(i: int, j: int, v: complex) -> None:
        rows.append(i)
        cols.append(j)
        vals.append(v)

    for br in case.branches:
        if not br.in_service:
            continue
        if br.series_impedance == 0:
            raise CaseError(
                f"in-service branch {br.from_bus}-{br.to_bus} has zero series impedance"
            )
        ys = 1.0 / br.series_impedance
        ych = 0.5j * br.charging
        t = br.tap_ratio * cmath.exp(1j * br.phase_shift)
        f = pos[br.from_bus]
        to = pos[br.to_bus]
        stamp(f, f, (ys + ych) / (t * t.conjugate()))  # |t|^2 on the from side
        stamp(f, to, -ys / t.conjugate())
        stamp(to, f, -ys / t)
        stamp(to, to, ys + ych)

    for b in case.buses:
        if b.shunt != 0:
            k = pos[b.id]
            stamp(k, k, b.shunt)

    matrix = sp.coo_matrix((vals, (rows, cols)), shape=(n, n), dtype=complex).tocsc()
    return AdmittanceMatrix(matrix=matrix, bus_order=order, n_gen=len(generator_ids))


def reduce_network(Y: AdmittanceMatrix, V_G: np.ndarray) -> GridReduction:
    """Factorize Y_LL once and solve for E, with V_G in Y's generator order.

    Returns the reduction in the no-known-solution normalization (v0 = 1,
    S0 = 0, Ztilde = Zhat).
    """
    m, n = Y.n_gen, len(Y.bus_order) - Y.n_gen
    if n < 1:
        raise CaseError("reduction requires at least one load bus")
    V_G = np.asarray(V_G, dtype=complex)
    if V_G.shape != (m,):
        raise CaseError(f"V_G has shape {V_G.shape}, expected ({m},)")
    if np.any(V_G == 0):
        raise CaseError("V_G entries must be nonzero")

    Y_LL = Y.matrix[m:, m:].tocsc()

    try:
        lu = spla.splu(Y_LL)
    except RuntimeError as exc:
        raise SingularNetworkError(f"Y_LL is singular: {exc}") from exc

    E = lu.solve(-(Y.matrix[m:, :m] @ V_G))
    if not np.isfinite(E).all() or np.any(np.abs(E) < 1e-12):
        raise SingularNetworkError("equivalent voltage E has non-finite or (near-)zero entries")

    return GridReduction(
        generator_ids=Y.bus_order[:m],
        load_ids=Y.bus_order[m:],
        Y=Y.matrix,
        Y_LL=Y_LL,
        lu=lu,
        V_G=V_G,
        E=E,
        v0=np.ones(n, dtype=complex),
        S0=np.zeros(n, dtype=complex),
    )


def reduce_case(case: NetworkCase, gen_phasors: str = "case") -> GridReduction:
    """The reduction of a case: build_admittance, then reduce_network.

    gen_phasors selects where the fixed generator phasors come from:
    "case" uses setpoint magnitudes with case-file angles, "solved" fixes
    them from a conventional solved base case. The admittance matrix is
    assembled once, for the base case and the reduction alike.
    """
    if gen_phasors not in ("case", "solved"):
        raise CaseError(f"unknown gen_phasors mode {gen_phasors!r} (expected 'case' or 'solved')")
    Y = build_admittance(case)
    if gen_phasors == "case":
        return reduce_network(Y, generator_phasors(case, Y.bus_order[: Y.n_gen]))
    from .oracle import solved_generator_phasors  # oracle imports this module

    return reduce_network(Y, solved_generator_phasors(case, Y))


def fixed_point_residual(red: GridReduction, v: np.ndarray, S: np.ndarray) -> float:
    """Residual ||v - (1 - Zhat diag(v*)^-1 S*)||_inf of the E-normalized equations."""
    v = np.asarray(v, dtype=complex)
    S = np.asarray(S, dtype=complex)
    return float(np.abs(v - (1.0 - red.Zhat @ (S.conj() / v.conj()))).max())


def renormalize_about_solution(red: GridReduction, v0: np.ndarray, S0: np.ndarray) -> GridReduction:
    """Re-center the reduction on a known solution (v0, S0).

    v0 is in E-normalized coordinates and must satisfy the fixed-point
    equations for load S0 to within SOLUTION_TOL. The copy shares the
    factor, Zhat and the Newton kernel with red.
    """
    v0 = np.asarray(v0, dtype=complex)
    S0 = np.asarray(S0, dtype=complex)
    if v0.shape != (red.n_load,) or S0.shape != (red.n_load,):
        raise CaseError("v0/S0 dimension mismatch with the reduction")
    if np.any(v0 == 0):
        raise NotASolutionError("v0 has zero entries")
    residual = fixed_point_residual(red, v0, S0)
    if residual >= SOLUTION_TOL:
        raise NotASolutionError(
            f"(v0, S0) residual {residual:.3e} >= {SOLUTION_TOL:g}: not a power-flow solution"
        )
    return replace(red, v0=v0, S0=S0)

