"""Independent ground truth: Newton power flow, loading-limit bisection,
and the closed-form single-load oracle used throughout the test suite.

The Newton solver treats generator buses as fixed phasors and solves the
polar mismatch equations at the load buses with an analytic Jacobian. The
base-case variant solves the conventional slack + voltage-controlled
formulation once, to fix generator angles the way solved case files do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .admittance import SingularNetworkError, build_admittance
from .net_model import (
    CaseError,
    NetworkCase,
    generator_phasors,
    load_power_vector,
    partition_buses,
)


@dataclass(frozen=True)
class NewtonResult:
    converged: bool
    V_L: np.ndarray
    iterations: int
    mismatch_norm: float  # inf-norm of the per-unit power mismatch


class _NewtonKernel:
    """Polar Newton power flow on a Jacobian sparsity pattern fixed once per network.

    Unknowns: the angles of the `ang` buses, then the magnitudes of the `mag`
    buses; equations: the active-power balances of `ang`, then the reactive
    ones of `mag`. Jacobian entries are MATPOWER's complex-form dS/dV
    (Zimmerman, Murillo-Sanchez & Thomas 2011), each p conj(q) + c with I = Y V,
    U = V/|V| and (p, q, c) = (j V_i, [i=k] I_i - Y_ik V_k, 0) for dS_i/dVa_k,
    (V_i, Y_ik U_k, [i=k] conj(I_i) U_i) for dS_i/dVm_k."""

    def __init__(self, Y: sp.csc_matrix, ang: np.ndarray, mag: np.ndarray):
        nb, n = Y.shape[0], len(ang) + len(mag)
        self.Y, self.ang, self.mag, self.var = Y, ang, mag, np.union1d(ang, mag)
        pos_a, pos_m = np.full(nb, -1), np.full(nb, -1)  # row and column of each bus in J
        pos_a[ang], pos_m[mag] = np.arange(len(ang)), np.arange(len(ang), n)
        Yc = Y.tocoo()
        Yc.eliminate_zeros()
        row = (pos_a[Yc.row] >= 0) | (pos_m[Yc.row] >= 0)
        parts = (row & (pos_a[Yc.col] >= 0), row & (pos_m[Yc.col] >= 0))  # the dS/dVa, then the dS/dVm entries
        i, k, y = (np.concatenate([a[part] for part in parts]) for a in (Yc.row, Yc.col, Yc.data))
        dm = np.arange(len(i)) >= np.count_nonzero(parts[0])
        self.yr, self.yi, self.sign = y.real, y.imag, np.where(dm, 1.0, -1.0)
        self.p, self.take = i + nb * dm, k + nb * dm  # into [jV, V] and [V, U]
        self.diag_a = np.where((i == k) & ~dm, i, nb)  # into [I, 0]
        self.diag_m = np.where((i == k) & dm, i, nb)  # into [conj(I) U, 0]
        # Re(dS) goes to the P rows, Im(dS) to the Q rows; J's values are positions in [Re, Im]
        P, Q, col = np.flatnonzero(pos_a[i] >= 0), np.flatnonzero(pos_m[i] >= 0), np.where(dm, pos_m[k], pos_a[k])
        J = sp.csc_matrix((np.r_[P, len(i) + Q], (np.r_[pos_a[i[P]], pos_m[i[Q]]], np.r_[col[P], col[Q]])), (n, n))
        self.gather, self.indices, self.indptr, self.shape = J.data, J.indices, J.indptr, J.shape

    def jacobian(self, V: np.ndarray, I: np.ndarray) -> sp.csc_matrix:
        """J at bus voltages V with I = Y V. Products are spelled out in real
        arithmetic, unfused like scipy.sparse's, because NumPy's SIMD complex
        multiply may fuse multiply-adds."""
        U = V / np.abs(V)
        x = np.concatenate([V, U])[self.take]
        wr, wi = self.yr * x.real - self.yi * x.imag, self.yr * x.imag + self.yi * x.real
        g = np.append(I, 0)[self.diag_a]
        qr, qi = self.sign * wr + g.real, self.sign * wi + g.imag
        cr = np.append(I.real * U.real + I.imag * U.imag, 0)[self.diag_m]
        ci = np.append(I.real * U.imag - I.imag * U.real, 0)[self.diag_m]
        p = np.concatenate([1j * V, V])[self.p]
        data = np.r_[p.real * qr + p.imag * qi + cr, p.imag * qr - p.real * qi + ci][self.gather]
        return sp.csc_matrix((data, self.indices, self.indptr), shape=self.shape)

    @np.errstate(all="ignore")  # overflow and 0/0 surface as the non-finite values checked below
    def run(self, V: np.ndarray, theta: np.ndarray, vm: np.ndarray, S_spec: np.ndarray, tol: float,
            max_iter: int) -> NewtonResult:
        """Iterate from the polar start (theta, vm) until max |V conj(Y V) - S_spec| over the
        equations is below tol; V outside ang and mag stays fixed, and V_L of the result is
        the whole bus-voltage vector. A singular or non-finite Jacobian gives converged=False."""
        V, theta, vm = V.copy(), theta.copy(), vm.copy()
        mismatch_norm = math.inf
        for iteration in range(max_iter + 1):
            V[self.var] = vm[self.var] * np.exp(1j * theta[self.var])
            if np.any(vm[self.mag] <= 0):
                return NewtonResult(False, V, iteration, math.inf)
            I = self.Y @ V
            S = V * np.conj(I) - S_spec
            f = np.concatenate([S.real[self.ang], S.imag[self.mag]])
            mismatch_norm = float(np.abs(f).max())
            if mismatch_norm < tol:
                return NewtonResult(True, V, iteration, mismatch_norm)
            if iteration == max_iter or not math.isfinite(mismatch_norm):
                break
            J = self.jacobian(V, I)
            if not np.isfinite(J.data).all():
                break
            try:
                dx = spla.splu(J).solve(-f)
            except RuntimeError:  # exactly singular
                break
            if not np.isfinite(dx).all():
                break
            theta[self.ang] += dx[: len(self.ang)]
            vm[self.mag] += dx[len(self.ang):]
        return NewtonResult(False, V, iteration, mismatch_norm)


@dataclass(frozen=True)
class PolarNetwork:
    """Per-case quantities shared by repeated Newton solves."""

    generator_ids: tuple[int, ...]
    load_ids: tuple[int, ...]
    Y: sp.csc_matrix  # full admittance, generators first
    V_G: np.ndarray
    E: np.ndarray  # zero-load load voltages, the default start
    kernel: _NewtonKernel  # load-bus angles and magnitudes


def prepare_network(case: NetworkCase, V_G: np.ndarray | None = None) -> PolarNetwork:
    partition = partition_buses(case)
    generator_ids, load_ids = partition
    Y = build_admittance(case, partition)
    V_G = np.asarray(generator_phasors(case, generator_ids) if V_G is None else V_G, dtype=complex)
    m = len(generator_ids)
    Y_LL = Y.matrix[m:, m:].tocsc()
    Y_LG = Y.matrix[m:, :m]
    try:
        lu = spla.splu(Y_LL)
    except RuntimeError as exc:
        raise SingularNetworkError(f"Y_LL is singular: {exc}") from exc
    E = lu.solve(-(Y_LG @ V_G))
    load = np.arange(m, m + len(load_ids))
    return PolarNetwork(
        generator_ids=tuple(generator_ids),
        load_ids=tuple(load_ids),
        Y=Y.matrix,
        V_G=V_G,
        E=E,
        kernel=_NewtonKernel(Y.matrix, load, load),
    )


def newton_solve(
    case: NetworkCase,
    S_L: np.ndarray | None = None,
    start: np.ndarray | None = None,
    tol: float = 1e-8,
    max_iter: int = 30,
    network: PolarNetwork | None = None,
) -> NewtonResult:
    """Solve the load-bus power-flow equations with fixed generator phasors.

    Unknowns are the load-bus voltage magnitudes and angles; convergence is
    declared when the inf-norm of the complex power mismatch (per-unit)
    drops below tol. Non-convergence and singular Jacobians are reported as
    converged=False results so the solver can serve as a feasibility probe.
    """
    net = network if network is not None else prepare_network(case)
    m = len(net.generator_ids)
    if S_L is None:
        S_L = load_power_vector(case, net.load_ids)
    V = np.concatenate([net.V_G, net.E if start is None else np.asarray(start, dtype=complex)])
    S_spec = np.concatenate([np.zeros(m), -np.asarray(S_L, dtype=complex)])
    res = net.kernel.run(V, np.angle(V), np.abs(V), S_spec, tol, max_iter)
    return replace(res, V_L=res.V_L[m:])


def newton_base_case(case: NetworkCase, tol: float = 1e-8, max_iter: int = 30) -> dict[int, complex]:
    """Conventional slack / voltage-controlled / load power flow on the whole case.

    Generator buses hold their setpoint magnitude and scheduled active power
    (the slack bus also holds its case-file angle and absorbs the imbalance);
    load buses hold their complex demand. Returns solved phasors for every
    bus. Used to fix generator angles from a solved operating point when the
    case file carries flat ones.
    """
    partition = partition_buses(case)
    generator_ids, load_ids = partition
    order = generator_ids + load_ids
    Y = build_admittance(case, partition).matrix
    nb = len(order)
    m = len(generator_ids)

    slack_bus = case.slack_bus if case.slack_bus in generator_ids else generator_ids[0]
    non_slack = np.delete(np.arange(nb), order.index(slack_bus))  # voltage-controlled, then load buses

    setpoint = {}
    p_sched = np.zeros(nb)
    for g in case.gens:
        if g.in_service:
            setpoint.setdefault(g.bus, g.voltage_setpoint)
            p_sched[order.index(g.bus)] += g.active_power
    demand = np.array([case.bus(i).demand for i in order])

    vm = np.array([setpoint.get(bus, 1.0) for bus in order])
    theta = np.full(nb, case.bus(slack_bus).voltage_angle)

    kernel = _NewtonKernel(Y, non_slack, np.arange(m, nb))
    res = kernel.run(vm * np.exp(1j * theta), theta, vm, p_sched - demand, tol, max_iter)
    if not res.converged:
        raise SingularNetworkError(f"base-case power flow did not converge ({res.iterations} iterations)")
    return {order[k]: res.V_L[k] for k in range(nb)}


def solved_generator_phasors(case: NetworkCase) -> np.ndarray:
    """Generator phasors from a conventional solved base case, in partition order."""
    phasors = newton_base_case(case)
    generator_ids, _ = partition_buses(case)
    return np.array([phasors[i] for i in generator_ids], dtype=complex)


def actual_limit(
    case: NetworkCase,
    direction: np.ndarray | None = None,
    bracket: tuple[float, float | None] = (1.0, None),
    tol: float = 1e-4,
    network: PolarNetwork | None = None,
    newton_tol: float = 1e-8,
    newton_max_iter: int = 40,
) -> float:
    """True solvability limit along a loading direction, by bisection.

    Scales `direction` (default: the case demands) by lambda and bisects on
    Newton feasibility, warm-starting every probe from the last feasible
    solution. The lower bracket end must be feasible. Returns the bracket
    midpoint once its width drops below tol.
    """
    net = network if network is not None else prepare_network(case)
    if direction is None:
        direction = load_power_vector(case, net.load_ids)
    direction = np.asarray(direction, dtype=complex)

    lo, hi = bracket
    warm = net.E.copy()

    def probe(lam: float, start: np.ndarray) -> NewtonResult:
        return newton_solve(case, lam * direction, start=start, tol=newton_tol, max_iter=newton_max_iter,
                            network=net)

    res = probe(lo, warm)
    if not res.converged:
        raise CaseError(f"lower bracket end lambda={lo} is itself infeasible")
    warm = res.V_L

    if hi is None:
        hi = 2.0 * lo
        for _ in range(60):
            res = probe(hi, warm)
            if not res.converged:
                break
            lo, warm = hi, res.V_L
            hi *= 2.0
        else:
            raise CaseError("no infeasible upper bracket found; direction may be unbounded")
    else:
        if not hi > lo:
            raise CaseError("bracket upper end must exceed the lower end")
        if probe(hi, warm).converged:
            raise CaseError(f"upper bracket end lambda={hi} is feasible; widen the bracket")

    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        res = probe(mid, warm)
        if res.converged:
            lo, warm = mid, res.V_L
        else:
            hi = mid
    return 0.5 * (lo + hi)


def two_bus_analytic(p: float, q: float, x: float) -> tuple[complex, ...]:
    """All load-voltage solutions of one load p + jq behind a pure reactance x.

    With v = a + jb and E = 1: b = -x p and a solves a^2 - a + (q x + x^2 p^2) = 0.
    Returns the high-voltage root first; empty when no solution exists.
    """
    if x <= 0:
        raise ValueError("reactance x must be positive")
    disc = 1.0 - 4.0 * q * x - 4.0 * x * x * p * p
    b = -x * p
    if disc < 0:
        return ()
    if disc == 0:
        return (complex(0.5, b),)
    root = math.sqrt(disc)
    return (complex((1.0 + root) / 2.0, b), complex((1.0 - root) / 2.0, b))
