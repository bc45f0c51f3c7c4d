"""Bus admittance matrix assembly, network reduction, and normalized impedances.

The reduction eliminates generator buses from the nodal equations: with the
generator phasors fixed, the load-bus voltages satisfy V_L = E - Z I_L where
E is the zero-load voltage profile induced by the generators and Z inverts
the load-load admittance block. Normalizing by E (and optionally by a known
solution) yields the unitless impedance matrix Ztilde the stress measures and
the fixed-point map are built on. A reduction forms Ztilde and the oracle's
Newton kernel on first use (a re-centered copy takes its base's kernel if
built), so touch both before sharing one across threads.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, replace
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
    once. Ztilde, the one dense matrix, is Z = Y_LL^-1 normalized by E (units
    1/power in the per-unit system) and, on a copy re-centered by
    renormalize_about_solution, by the known solution v0 too. Each reduction
    forms its own Ztilde on first use, copies included, and the oracle's Newton
    kernel, unless it is a copy of one that has built it; touch both before
    sharing a reduction across threads.
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

    @property
    def n_load(self) -> int:
        return len(self.load_ids)

    @property
    def scale(self) -> np.ndarray:
        """E v0: the load voltages of u = 1, which the normalized coordinates u divide out."""
        return self.E * self.v0

    def load_index(self, bus_id: int) -> int:
        return self.load_ids.index(bus_id)

    @cached_property
    def Ztilde(self) -> np.ndarray:
        Z = self.lu.solve(np.eye(self.n_load, dtype=complex))
        residual = np.abs(self.Y_LL @ Z - np.eye(self.n_load)).max()
        if not np.isfinite(residual) or residual > FACTOR_TOL:
            raise SingularNetworkError(
                f"Y_LL factorization residual {residual:.3e} exceeds {FACTOR_TOL:g}; "
                "the load subnetwork is singular or nearly so"
            )
        # out of place: lu.solve's Z is Fortran-ordered, and BLAS rounds products with it differently
        Z = Z / np.outer(self.E, self.E.conj())
        if not (np.all(self.v0 == 1) and not np.any(self.S0)):
            Z = Z / np.outer(self.v0, self.v0.conj())
        return Z

    @cached_property
    def kernel(self):
        """The oracle's Newton kernel over the load-bus angles and magnitudes."""
        from .oracle import _NewtonKernel  # oracle imports this module

        load = np.arange(len(self.generator_ids), self.Y.shape[0])
        return _NewtonKernel(self.Y, load, load)


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

    keys: list[int] = []  # column * n + row of each stamp, the stamp's position in CSC order
    vals: list[complex] = []
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
        keys += (f * (n + 1), to * n + f, f * n + to, to * (n + 1))
        vals += ((ys + ych) / (t * t.conjugate()), -ys / t.conjugate(), -ys / t, ys + ych)  # |t|^2 on the from side

    for b in case.buses:
        if b.shunt != 0:
            keys.append(pos[b.id] * (n + 1))
            vals.append(b.shunt)

    # a stable sort keeps each entry's duplicates in stamp order, and they are summed in that order
    key = np.array(keys, dtype=np.int64)
    perm = np.argsort(key, kind="stable")
    key, val = key[perm], np.array(vals, dtype=complex)[perm]
    new = np.empty(len(key), dtype=bool)
    new[:1], new[1:] = True, key[1:] != key[:-1]
    data = val[new]
    np.add.at(data, np.cumsum(new)[~new] - 1, val[~new])
    col, row = np.divmod(key[new], n)
    indptr = np.searchsorted(col, np.arange(n + 1)).astype(np.intc)
    matrix = sp.csc_matrix((data, row.astype(np.intc), indptr), shape=(n, n))
    return AdmittanceMatrix(matrix=matrix, bus_order=order, n_gen=len(generator_ids))


def reduce_network(Y: AdmittanceMatrix, V_G: np.ndarray) -> GridReduction:
    """Factorize Y_LL once and solve for E, with V_G in Y's generator order.

    Returns the reduction in the no-known-solution normalization (v0 = 1,
    S0 = 0).
    """
    m, n = Y.n_gen, len(Y.bus_order) - Y.n_gen
    if n < 1:
        raise CaseError("reduction requires at least one load bus")
    V_G = np.asarray(V_G, dtype=complex)
    if V_G.shape != (m,):
        raise CaseError(f"V_G has shape {V_G.shape}, expected ({m},)")
    if np.any(V_G == 0):
        raise CaseError("V_G entries must be nonzero")

    # Y_LL from Y's CSC arrays: the entries of the load columns in load rows
    start = Y.matrix.indptr[m]
    rows, vals = Y.matrix.indices[start:], Y.matrix.data[start:]
    load = rows >= m
    before = np.zeros(len(load) + 1, dtype=np.intc)  # load-row entries before each position
    np.cumsum(load, out=before[1:])
    Y_LL = sp.csc_matrix((vals[load], rows[load] - m, before[Y.matrix.indptr[m:] - start]), shape=(n, n))

    try:
        lu = spla.splu(Y_LL)
    except RuntimeError as exc:
        raise SingularNetworkError(f"Y_LL is singular: {exc}") from exc

    E = lu.solve(-(Y.matrix @ np.concatenate([V_G, np.zeros(n)]))[m:])
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
    from .oracle import newton_base_case  # oracle imports this module

    phasors = newton_base_case(case, Y)
    return reduce_network(Y, np.array([phasors[i] for i in Y.bus_order[: Y.n_gen]], dtype=complex))


def load_vector(red: GridReduction, x: np.ndarray, name: str) -> np.ndarray:
    """x as a complex array, which must hold one entry per load bus of red; CaseError otherwise."""
    x = np.asarray(x, dtype=complex)
    if x.shape != (red.n_load,):
        raise CaseError(f"{name} has shape {x.shape}, expected ({red.n_load},): one entry per load bus")
    return x


def fixed_point_residual(red: GridReduction, v: np.ndarray, S: np.ndarray) -> float:
    """Residual ||v - (1 - Z_E diag(v*)^-1 S*)||_inf of the E-normalized equations, where
    Z_E x = lu.solve(x / E*) / E is Z normalized by E: one solve, no n x n array."""
    v = np.asarray(v, dtype=complex)
    x = np.asarray(S, dtype=complex).conj() / v.conj()
    return float(np.abs(v - (1.0 - red.lu.solve(x / red.E.conj()) / red.E)).max())


def renormalize_about_solution(red: GridReduction, v0: np.ndarray, S0: np.ndarray) -> GridReduction:
    """Re-center the reduction on a known solution (v0, S0).

    v0 is in E-normalized coordinates and must satisfy the fixed-point
    equations for load S0 to within SOLUTION_TOL. The copy shares the
    factor with red and forms its own Ztilde on first use. The Newton kernel
    depends on Y alone, so the copy takes red's when red has built it.
    """
    v0, S0 = load_vector(red, v0, "v0"), load_vector(red, S0, "S0")
    if np.any(v0 == 0):
        raise NotASolutionError("v0 has zero entries")
    residual = fixed_point_residual(red, v0, S0)
    if residual >= SOLUTION_TOL:
        raise NotASolutionError(
            f"(v0, S0) residual {residual:.3e} >= {SOLUTION_TOL:g}: not a power-flow solution"
        )
    copy = replace(red, v0=v0, S0=S0)
    if "kernel" in vars(red):  # built already: the cached_property keeps it there
        vars(copy)["kernel"] = red.kernel
    return copy

