"""Independent ground truth: Newton power flow and the loading limit by
continuation to the nose.

The Newton solver treats generator buses as fixed phasors and solves the
polar mismatch equations at the load buses with an analytic Jacobian. The
base-case variant solves the conventional slack + voltage-controlled
formulation once, to fix generator angles the way solved case files do.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from .admittance import AdmittanceMatrix, GridReduction, SingularNetworkError, load_vector, lu, reduce_case
from .net_model import CaseError, NetworkCase
from .stress import first_positive_roots

NEWTON_TOL = 1e-8  # max(|dP|, |dQ|) over the equations, per unit, of a converged Newton solve or corrector
FOLD_TOL = 1e-12  # the same, of the returned fold point (so its per-bus |dS| is at most sqrt(2) FOLD_TOL)
NEWTON_MAX_ITER = 30  # iterations per solve at a fixed loading
CORRECTOR_MAX_ITER = 40  # iterations per continuation corrector
SERIES_TERMS = 40  # power-series coefficients of the zero-load start, one Y_LL solve each
SERIES_FRACTION = 0.95  # the start's loading as a fraction of the nose the series estimates
FOLD_MAX_PASSES = 60  # passes of the fold's bracket loop, one held s each


@dataclass(frozen=True)
class NewtonResult:
    converged: bool
    V_L: np.ndarray
    iterations: int
    mismatch_norm: float  # inf-norm of the per-unit power mismatch


def _span(idx: np.ndarray) -> slice | np.ndarray:
    """idx as a slice, which indexes by a view, when it is a contiguous ascending run; else idx."""
    run = idx.tolist()
    return slice(run[0], run[-1] + 1) if run and run == list(range(run[0], run[-1] + 1)) else idx


class _NewtonKernel:
    """Polar Newton power flow on a Jacobian sparsity pattern fixed once per network.

    Unknowns: the angles of the `ang` buses, then the magnitudes of the `mag`
    buses; equations: the active-power balances of `ang`, then the reactive
    ones of `mag`. Jacobian entries are MATPOWER's complex-form dS/dV
    (Zimmerman, Murillo-Sanchez & Thomas 2011), with I = Y V and U = V/|V|:
    dS_i/dVa_k = -j conj(Y_ik) V_i conj(V_k) + [i=k] j V_i conj(I_i) and
    dS_i/dVm_k = conj(Y_ik) V_i conj(U_k) + [i=k] conj(I_i) U_i, so the kernel keeps
    each entry's coefficient, -j conj(Y_ik) or conj(Y_ik). J is CSC arrays alone:
    the kernel keeps its pattern (indices, indptr), and the caller owns its values,
    one float64 array per solve or limit that every iteration refills, and
    admittance.lu factors them. The kernel is not written to after it is built,
    so threads may share it."""

    def __init__(self, Y: sp.csc_matrix, ang: np.ndarray, mag: np.ndarray):
        nb, n = Y.shape[0], len(ang) + len(mag)
        pos_a, pos_m = np.full(nb, -1), np.full(nb, -1)  # row and column of each bus in J
        pos_a[ang], pos_m[mag] = np.arange(len(ang)), np.arange(len(ang), n)
        var = (pos_a >= 0) | (pos_m >= 0)
        self.Y, self.na, self.ang, self.mag, self.var = Y, len(ang), _span(ang), _span(mag), _span(np.flatnonzero(var))
        self.fpos = np.concatenate([2 * ang, 2 * mag + 1])  # the equations' entries in the mismatch's (Re, Im) pairs
        # Y's stored nonzeros in storage order, (row, column, value); Y has no duplicate entries
        nz = Y.data != 0
        Yrow, Ycol, Ydata = Y.indices[nz], np.repeat(np.arange(nb), np.diff(Y.indptr))[nz], Y.data[nz]
        row = var[Yrow]
        parts = (row & (pos_a[Ycol] >= 0), row & (pos_m[Ycol] >= 0))  # the dS/dVa, then the dS/dVm entries
        i, k, y = (np.concatenate([a[part] for part in parts]) for a in (Yrow, Ycol, Ydata))
        dm = np.arange(len(i)) >= np.count_nonzero(parts[0])
        self.coef, self.i = np.where(dm, y.conj(), -1j * y.conj()), i
        self.take = k + nb * dm  # into [V, U]
        self.diag = np.where(i == k, i + nb * dm, 2 * nb)  # into [j V conj(I), conj(I) U, 0]
        # Re(dS) goes to the P rows, Im(dS) to the Q rows; J's values are positions in the entries' (Re, Im) pairs
        P, Q, col = np.flatnonzero(pos_a[i] >= 0), np.flatnonzero(pos_m[i] >= 0), np.where(dm, pos_m[k], pos_a[k])
        rows, cols = np.concatenate([pos_a[i[P]], pos_m[i[Q]]]), np.concatenate([col[P], col[Q]])
        # canonical CSC (by column, rows sorted; each (row, column) once), with the index type SuperLU takes
        order = np.lexsort((rows, cols))
        self.gather, self.indices = np.concatenate([2 * P, 2 * Q + 1])[order], rows[order].astype(np.intc)
        self.indptr = np.zeros(n + 1, dtype=np.intc)
        np.cumsum(np.bincount(cols, minlength=n), out=self.indptr[1:])

    def jacobian(self, V: np.ndarray, I: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The values of J at bus voltages V with I = Y V, in the pattern (indices, indptr),
        written into out or a new array: coef V_i conj([V, U]_k) plus the diagonal term, in
        complex arithmetic, elementwise, so the values do not depend on the BLAS thread count."""
        U = V / np.abs(V)
        cI = I.conj()
        val = self.coef * V[self.i] * np.concatenate([V, U])[self.take].conj()
        val += np.concatenate([1j * V * cI, cI * U, [0]])[self.diag]
        return val.view(float).take(self.gather, out=out)

    def run(self, V: np.ndarray, theta: np.ndarray, vm: np.ndarray, S_spec: np.ndarray, tol: float) -> NewtonResult:
        """Iterate from the polar start (theta, vm), NEWTON_MAX_ITER times at most, until max
        |V conj(Y V) - S_spec| over the equations is below tol; V outside ang and mag stays fixed,
        and V_L is the whole bus-voltage vector. A singular or non-finite Jacobian gives converged=False."""
        y = np.concatenate([theta[self.ang], vm[self.mag], [0.0]])
        return self.correct(V, theta, vm, y, S_spec, None, len(y) - 1, tol, NEWTON_MAX_ITER)[0]

    @np.errstate(all="ignore")  # overflow and 0/0 surface as the non-finite values checked below
    def correct(self, V: np.ndarray, theta: np.ndarray, vm: np.ndarray, y: np.ndarray, S_spec: np.ndarray,
                d: np.ndarray | None, fixed: int, tol: float, max_iter: int,
                J: np.ndarray | None = None) -> tuple[NewtonResult, np.ndarray, np.ndarray | None]:
        """Newton on the mismatch V conj(Y V) - S_spec + lam d in the unknowns y = (theta[ang], vm[mag], lam),
        holding y[fixed]. The matrix is J with its column `fixed` replaced by the loading column (Re d[ang],
        Im d[mag]), so the step moves lam in the held unknown's place; with `fixed` = lam's index it is J
        itself, and d=None is Newton at a fixed loading. Given d, the iteration also gives up once the
        mismatch stops falling, and a converged result comes with the tangent dy/dy[fixed] of the solution
        curve (entry `fixed` is 1), solved with the last factor; a tangent needs a factor, so the first
        iterate is never accepted. Every iteration refills J, the values of J's pattern (a new array when
        None), so a caller correcting many times can make it once. The equations' mismatch is one take from
        the (Re, Im) pairs of the complex one, and ang, mag and their union index by views where they are
        contiguous runs (the oracle's load buses). Returns the result, y and the tangent."""
        V, theta, vm, y = V.copy(), theta.copy(), vm.copy(), y.copy()
        na, lam = self.na, len(y) - 1
        col = None if d is None else np.concatenate([d.real[self.ang], d.imag[self.mag]])
        refill = None if fixed == lam else self.held_column(fixed, col)
        f, dx = np.empty(lam), np.empty(lam + 1)
        factor = None
        mismatch_norm = last = math.inf
        for iteration in range(max_iter + 1):
            theta[self.ang], vm[self.mag] = y[:na], y[na:lam]
            V[self.var] = vm[self.var] * np.exp(1j * theta[self.var])
            if (y[na:lam] <= 0).any():
                return NewtonResult(False, V, iteration, math.inf), y, None
            I = self.Y @ V
            S = V * I.conj() - S_spec
            if d is not None:
                S += y[lam] * d
            S.view(float).take(self.fpos, out=f)
            mismatch_norm = float(abs(f).max())
            if mismatch_norm < tol and d is None:
                return NewtonResult(True, V, iteration, mismatch_norm), y, None
            if mismatch_norm < tol and factor is not None:
                tangent = np.concatenate([factor.solve(-held), [1.0]])
                tangent[fixed], tangent[lam] = tangent[lam], tangent[fixed]
                if not np.isfinite(tangent).all():
                    break
                return NewtonResult(True, V, iteration, mismatch_norm), y, tangent
            if iteration == max_iter or not math.isfinite(mismatch_norm) or d is not None and mismatch_norm >= last:
                break
            last = mismatch_norm
            J = self.jacobian(V, I, J)
            if not np.isfinite(J).all():
                break
            *A, held = (J, self.indices, self.indptr, col) if refill is None else refill(J)
            try:
                factor = lu(*A)
            except RuntimeError:  # exactly singular
                break
            dx[:lam], dx[lam] = factor.solve(-f), 0.0
            if not np.isfinite(dx).all():
                break
            dx[fixed], dx[lam] = dx[lam], dx[fixed]
            y += dx
        return NewtonResult(False, V, iteration, mismatch_norm), y, None

    def held_column(self, k: int, col: np.ndarray) -> Callable[[np.ndarray], tuple[np.ndarray, ...]]:
        """J with its column k replaced by the nonzero entries of the dense vector col. The
        held matrix's arrays are made here, once per corrector call; the returned function
        copies J's values (an array from `jacobian`) into them and returns the held matrix's
        (data, indices, indptr) and J's column k, dense, the data and column overwritten by
        its next call."""
        start, end = self.indptr[k], self.indptr[k + 1]
        rows = np.flatnonzero(col)
        stop = start + len(rows)
        indptr = self.indptr.copy()
        indptr[k + 1:] += stop - end
        indices = np.concatenate([self.indices[:start], rows, self.indices[end:]], dtype=np.intc)
        data = np.zeros(len(indices))
        data[start:stop] = col[rows]
        old = np.zeros(len(indptr) - 1)

        def refill(J: np.ndarray) -> tuple[np.ndarray, ...]:
            data[:start], data[stop:] = J[:start], J[end:]
            old[self.indices[start:end]] = J[start:end]
            return data, indices, indptr, old

        return refill


def newton_solve(red: GridReduction, S_L: np.ndarray, start: np.ndarray | None = None) -> NewtonResult:
    """Solve the load-bus power-flow equations of red, load S_L, with its fixed generator phasors.

    Unknowns are the load-bus voltage magnitudes and angles, from start (red.E
    when None); convergence is declared when the inf-norm of the complex power
    mismatch (per-unit) drops below NEWTON_TOL. Non-convergence and singular
    Jacobians are reported as converged=False results so the solver can serve
    as a feasibility probe.
    """
    m = len(red.generator_ids)
    V = np.concatenate([red.V_G, red.E if start is None else load_vector(red, start, "start")])
    S_spec = np.concatenate([np.zeros(m), -load_vector(red, S_L, "S_L")])
    res = red.kernel.run(V, np.angle(V), np.abs(V), S_spec, NEWTON_TOL)
    return replace(res, V_L=res.V_L[m:])


def newton_base_case(case: NetworkCase, Y: AdmittanceMatrix) -> dict[int, complex]:
    """Conventional slack / voltage-controlled / load power flow on the whole case,
    Y its admittance matrix, solved to NEWTON_TOL.

    Generator buses hold their setpoint magnitude and scheduled active power
    (the slack bus also holds its case-file angle and absorbs the imbalance);
    load buses hold their complex demand. Returns solved phasors for every
    bus. Used to fix generator angles from a solved operating point when the
    case file carries flat ones.
    """
    order = Y.bus_order
    m = Y.n_gen
    generator_ids = order[:m]
    nb = len(order)

    slack_bus = case.slack_bus if case.slack_bus in generator_ids else generator_ids[0]
    non_slack = np.delete(np.arange(nb), order.index(slack_bus))  # voltage-controlled, then load buses

    gen = case.generator_buses
    p_sched = np.array([gen[bus].active_power if bus in gen else 0.0 for bus in order])
    demand = np.array([case.bus(i).demand for i in order])

    vm = np.array([gen[bus].setpoint if bus in gen else 1.0 for bus in order])
    theta = np.full(nb, case.bus(slack_bus).voltage_angle)

    kernel = _NewtonKernel(Y.matrix, non_slack, np.arange(m, nb))
    res = kernel.run(vm * np.exp(1j * theta), theta, vm, p_sched - demand, NEWTON_TOL)
    if not res.converged:
        raise SingularNetworkError(f"base-case power flow did not converge ({res.iterations} iterations)")
    return {order[k]: res.V_L[k] for k in range(nb)}


def actual_limit(
    case: NetworkCase,
    direction: np.ndarray,
    bracket: tuple[float, float | None] = (1e-3, None),
    tol: float = 1e-10,
    network: GridReduction | None = None,
) -> float:
    """True solvability limit along a loading direction: the nose of its P-V curve.

    Scales `direction`, one load per load bus, by lambda and follows the
    solution branch through the solved point at lambda = bracket[0] by
    continuation (Ajjarapu & Christy 1992) to the saddle-node point (Canizares
    & Alvarado 1993). The continuation starts just below the nose, from the
    zero-load power series of the fixed-point form, when that start lies inside
    the bracket and solves, and jumps to the nose the series estimates, then
    to that of a cubic lambda(s); otherwise it starts at bracket[0], which must
    then be feasible. Returns the lambda of a point solved to FOLD_TOL that the
    fold's quadratic model puts within tol min(1, lambda) of the nose, whatever
    the path: absolute at and above lambda = 1, relative below, so the answer's
    digits do not depend on the direction's units; 1e-10 is below the 9 digits
    the CLI prints. Each corrector runs CORRECTOR_MAX_ITER
    iterations at most: to FOLD_TOL inside the fold's bracket and for the point
    returned, to NEWTON_TOL before. Both bound max(|dP|, |dQ|) over the load-bus
    equations, so the returned point's per-bus |dS| is at most sqrt(2) FOLD_TOL.
    network is the case's reduction, reduce_case(case) if None.
    Raises CaseError when the nose is at or above bracket[1] or when lambda
    passes 2**60 * bracket[0], and RuntimeError, a numerical failure on a valid
    input, when the continuation or the fold's corrector breaks down, or when
    the fold's bracket has not closed after FOLD_MAX_PASSES passes.
    """
    net = network if network is not None else reduce_case(case)
    return _nose(net, load_vector(net, direction, "direction"), bracket, tol)[0]


def _nose(net: GridReduction, direction: np.ndarray, bracket: tuple[float, float | None],
          tol: float) -> tuple[float, np.ndarray]:
    """actual_limit's lambda, and the bus voltages of the solved point it belongs to.

    The unknowns are y = (load angles, load magnitudes, lambda). A step
    predicts along the unit tangent t and corrects holding the unknown of
    largest |t|, so the corrector stays nonsingular through the nose. The start
    is _series_start's point near the nose, solved by a corrector that holds
    lambda; when the series refuses or that corrector fails, it is the solved
    point at bracket[0]. bracket[0] thus marks the branch (the series start lies
    above it, on the branch through zero load) and is the fallback start.

    The series start, solved to sqrt(NEWTON_TOL), gives the jump its tangent and
    is a bracket end or the fallback start, never the answer. From it one
    corrector jumps to where the fold's quadratic model through the start,
    lambda = rho - |a| (s - s*)^2 / 2 with the series' nose rho and g = dlambda/ds,
    puts the nose: s* = s0 + 2 (rho - lambda0) / g0, s the magnitude of the
    start's fastest load bus. A point short of the nose is returned when the
    fold's test puts it within tol min(1, lambda) of it (once polished, see
    below); otherwise the next is held where _cubic_fold puts it, short of the cubic's peak
    beyond, and so on from the last two points. When a corrector fails or |g|
    does not fall, the continuation resumes from the last solved point. Its
    first step moves no load magnitude by more than 0.03 p.u. after the series
    start and 0.1 p.u. from bracket[0] (doubles lambda when none moves); later
    lengths follow the corrector's iteration count. Once a point lies past the
    nose, the fold, the zero of g for s the magnitude of the critical bus, is
    found inside a sign-change bracket at _cubic_fold's point between its ends,
    or at its midpoint after two steps that replaced the same end. The jump's and the
    cubic steps' correctors run to NEWTON_TOL, the bracket's to FOLD_TOL, and
    only a point solved to FOLD_TOL is returned: one accepted at NEWTON_TOL can
    sit 1e-8 above the nose. So a NEWTON_TOL point that passes the fold's test is
    polished by one more corrector holding its s to FOLD_TOL, and the test runs
    again with the polished point's own tangent: a NEWTON_TOL point's tangent
    comes from the factor of an earlier, coarser iterate."""
    lo, hi = bracket
    if not lo > 0:
        raise CaseError("bracket lower end must be positive")
    if hi is not None and not hi > lo:
        raise CaseError("bracket upper end must exceed the lower end")
    m, n = len(net.generator_ids), len(net.load_ids)
    V = np.concatenate([net.V_G, net.E])
    theta, vm = np.angle(V), np.abs(V)
    d = np.concatenate([np.zeros(m), direction])
    lam = 2 * n  # index of lambda in y
    J = np.empty(len(net.kernel.indices))  # J's values, refilled by every corrector iteration of this limit

    def correct(y: np.ndarray, fixed: int,
                mismatch: float = NEWTON_TOL) -> tuple[NewtonResult, np.ndarray, np.ndarray | None]:
        res, y, t = net.kernel.correct(V, theta, vm, y, np.zeros_like(V), d, fixed, mismatch, CORRECTOR_MAX_ITER, J)
        if res.converged and hi is not None and y[lam] >= hi:
            raise CaseError(f"upper bracket end lambda={hi} is feasible; widen the bracket")
        return res, y, t

    start = _series_start(_series_coefficients(net, direction), net.E, lo, hi)
    if start is not None:
        res, y, t = correct(np.concatenate([np.angle(start[1]), np.abs(start[1]), [start[0]]]), lam,
                            math.sqrt(NEWTON_TOL))
        first = 0.03  # p.u. of load magnitude: the nose is near
        if not res.converged:
            start = None
    if start is None:
        res, y, t = correct(np.concatenate([theta[m:], vm[m:], [lo]]), lam)
        first = 0.1
        if not res.converged:
            raise CaseError(f"lower bracket end lambda={lo} is itself infeasible")
    t /= np.linalg.norm(t)
    past = False  # whether (y, t) and (y1, t1) bracket the nose
    if start is not None:
        # the jump: the fold model lambda = rho - |a| (s - s*)^2 / 2 through the start, with the series' nose
        # rho, puts the nose at s* = s0 + 2 (rho - lambda0) / g0, g = dlambda/ds for s = y[crit]
        crit = n + int(np.argmax(np.abs(t[n:lam])))
        g0 = t[lam] / t[crit]
        s = y[crit] + 2.0 * (start[0] / SERIES_FRACTION - y[lam]) / g0
        res1, y1, t1 = correct(y + (s - y[crit]) / t[crit] * t, crit)
        while res1.converged:
            t1 /= math.copysign(np.linalg.norm(t1), t[crit])
            past, g1, h = t1[lam] < 0, t1[lam] / t1[crit], y1[crit] - y[crit]
            if past:
                break
            if not 0 < abs(g1) < abs(g0):  # g does not fall toward the nose
                res, y, t = res1, y1, t1
                break
            eps = tol * min(1.0, y1[lam])  # the fold's tolerance: absolute at and above lambda = 1, relative below
            if g1 * g1 * abs(h) <= 2.0 * eps * abs(g0 - g1):  # the fold's test (see below)
                if res1.mismatch_norm < FOLD_TOL:
                    return y1[lam], res1.V_L
                res1, y1, t1 = correct(y1, crit, FOLD_TOL)  # polish at the same s, then test its own tangent
                continue
            s = _cubic_fold(y[crit], g0, y[lam], y1[crit], g1, y1[lam], 1.0, eps)
            res, y, t, g0 = res1, y1, t1, g1
            res1, y1, t1 = correct(y + (s - y[crit]) / t[crit] * t, crit)
    dv = np.abs(t[n:lam]).max()  # the largest load-magnitude rate; 0 for a zero direction
    h = first / dv if dv > 0 else lo / t[lam]
    while not past:
        res1, y1, t1 = correct(y + h * t, int(np.argmax(np.abs(t))))
        if res1.converged:
            t1 /= np.linalg.norm(t1) if t1 @ t > 0 else -np.linalg.norm(t1)
            # the critical bus: the load magnitude moving most, and the same way, at both ends
            crit = n + int(np.argmax(t[n:lam] * t1[n:lam]))
        # a step past the nose must leave s = y[crit] a parameter of the arc between its ends
        if not res1.converged or t1[lam] < 0 and t[crit] * t1[crit] <= 0:
            h *= 0.25
            if h < 1e-10 * (1.0 + abs(y[lam])):
                raise RuntimeError(f"continuation broke down near lambda={y[lam]}")
            continue
        if y1[lam] > 2.0**60 * lo:
            raise CaseError("no nose below 2**60 times the lower bracket end; direction may be unbounded")
        if t1[lam] < 0:
            break
        res, y, t = res1, y1, t1
        h *= 2.0 ** min(2, max(-2, 3 - res1.iterations))

    ends = [(y[crit], t[lam] / t[crit], y, t, res), (y1[crit], t1[lam] / t1[crit], y1, t1, res1)]
    last, same = None, 0  # the end replaced last, and how many times in a row
    for _ in range(FOLD_MAX_PASSES):
        (sa, ga, ya, *_), (sb, gb, yb, *_) = ends
        slope = (gb - ga) / (sb - sa)
        _, g, y, _, res = min(ends, key=lambda e: abs(e[1]))
        eps = tol * min(1.0, y[lam])
        # near the fold lambda = lambda* + slope (s - s*)^2 / 2, so lambda* - lambda = g^2 / (2 |slope|)
        if res.mismatch_norm < FOLD_TOL and (g * g / (2.0 * abs(slope)) <= eps or abs(sb - sa) <= 1e-13):
            return y[lam], res.V_L
        s = 0.5 * (sa + sb) if same >= 2 else _cubic_fold(sa, ga, ya[lam], sb, gb, yb[lam], -1.0, eps)
        s0, _, y0, t0, _ = min(ends, key=lambda e: abs(s - e[0]))  # start from the nearer end
        while True:
            res, y, t = correct(y0 + (s - s0) / t0[crit] * t0, crit, FOLD_TOL)
            if res.converged:
                break
            s = 0.5 * (s + s0)  # shrink toward the end that converged
            if not abs(s - s0) >= 1e-12:  # a NaN s, once the ends have met, stops here too
                raise RuntimeError(f"corrector broke down at the nose near lambda={y0[lam]}")
        side = int((t[lam] > 0) != (ga > 0))
        same = same + 1 if side == last else 1
        last = side
        ends[side] = (y[crit], t[lam], y, t, res)
    raise RuntimeError(f"the fold's bracket did not close near lambda={y[lam]}")


def _cubic_fold(sa: float, ga: float, la: float, sb: float, gb: float, lb: float, side: float, tol: float) -> float:
    """Where to hold s next: on sa's side of the peak of the cubic lambda(s) through (sa, la) and (sb, lb)
    with slopes ga and gb (Hermite), where g's secant slope between them puts lambda tol / 4 below it, so
    rounding cannot lift the answer past the nose. The peak is where g = gb + b x + a x^2 vanishes at
    s = sb + x (sb - sa), first past sb (side 1) or between sa and sb (side -1), else where that secant does."""
    h = sb - sa
    mean = (lb - la) / h
    x = first_positive_roots(3.0 * (ga + gb) - 6.0 * mean, side * (2.0 * ga + 4.0 * gb - 6.0 * mean), gb)
    peak = sb + side * x * h if x < math.inf else sb - gb * h / (gb - ga)
    return peak - math.copysign(math.sqrt(0.5 * tol * abs(h / (gb - ga))), h)


@np.errstate(all="ignore")  # overflow and 0/0 surface as the non-finite values _series_start refuses
def _series_coefficients(net: GridReduction, direction: np.ndarray) -> np.ndarray:
    """-c: the coefficients c_0, ..., c_SERIES_TERMS, negated, one row each, of the power series in lambda
    of the fixed-point form u = 1 - lambda A (1 / conj(u)) about zero load, A = Z_E diag(conj(d)) with Z_E
    Y_LL^-1 normalized by E (holomorphic embedding, Trias 2012). With w = 1 / conj(u) = sum w_k lambda^k,
    c_0 = w_0 = 1, c_k = -A w_{k-1} and w_k = -sum_{m=1..k} conj(c_m) w_{k-m}, up to the w_{SERIES_TERMS-1}
    that the last c needs. A x is lu.solve(x conj(d) / conj(E)) / E. On at most SERIES_TERMS load buses A is
    formed by one solve of at most SERIES_TERMS columns and a term is one product with it; on more a term is
    one solve, and no n x n array is formed. w_k is np.vecdot(-c_k..-c_1, w_0..w_{k-1}), which conjugates -c."""
    n, g, inv = len(net.E), direction.conj() / net.E.conj(), 1.0 / net.E
    A = net.lu.solve(np.diag(g)) * inv[:, None] if n <= SERIES_TERMS else None
    mc = np.empty((SERIES_TERMS + 1, n), dtype=complex)
    w = np.empty((SERIES_TERMS, n), dtype=complex)
    mc[0], w[0] = -1.0, 1.0
    for k in range(1, SERIES_TERMS + 1):
        if A is None:
            np.multiply(net.lu.solve(g * w[k - 1]), inv, out=mc[k])
        else:
            np.matmul(A, w[k - 1], out=mc[k])
        if k < SERIES_TERMS:
            np.vecdot(mc[k:0:-1], w[:k], axis=0, out=w[k])
    return mc


@np.errstate(all="ignore")  # overflow and 0/0 surface as the non-finite values checked below
def _series_start(mc: np.ndarray, E: np.ndarray, lo: float, hi: float | None) -> tuple[float, np.ndarray] | None:
    """A start for the continuation below the nose, estimated from the zero-load series' coefficients
    mc = -c (_series_coefficients): a lambda and the load-bus voltages E u of the high-voltage branch
    there, or None. The series converges out to its nearest singularity, at radius rho: the nose, a
    square-root branch point, when nothing lies nearer. There |c_k| / |c_{k-1}| = (1 - 3 / (2k) + ...) / rho,
    so a line fitted to the ratios against 1/k over the last half of the series has intercept 1/rho
    (Domb & Sykes 1957). The start is lambda = SERIES_FRACTION * rho with the partial sum as u. None when
    a coefficient is zero or non-finite, when lambda is not strictly inside the bracket (a negative or NaN
    intercept puts it below), or when the last term exceeds 1e-2 of the smallest |u|: the sum has not
    converged there, and the estimate may lie past the nose."""
    size = np.linalg.norm(mc, axis=1)
    if not (np.isfinite(size).all() and size.all()):
        return None
    k = np.arange(SERIES_TERMS // 2 + 1, SERIES_TERMS + 1)
    inv_k, ratio = 1.0 / k, size[k] / size[k - 1]
    dk = inv_k - inv_k.mean()
    intercept = ratio.mean() - (dk @ ratio) / (dk @ dk) * inv_k.mean()  # of the least-squares line
    lam = SERIES_FRACTION / intercept
    if not lo < lam or hi is not None and not lam < hi:
        return None
    u = -(lam ** np.arange(SERIES_TERMS + 1) @ mc)
    if not np.abs(mc[-1]).max() * lam**SERIES_TERMS <= 1e-2 * np.abs(u).min():
        return None
    return lam, E * u
