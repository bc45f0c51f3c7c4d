"""Newton oracle, base-case solve, continuation limit, and the closed-form two-bus."""

import math
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from pfcert import admittance, limits, oracle
from pfcert.admittance import (
    AdmittanceMatrix,
    SingularNetworkError,
    build_admittance,
    fixed_point_residual,
    reduce_case,
    reduce_network,
)
from pfcert.net_model import CaseError, load_power_vector, partition_buses
from pfcert.oracle import (
    FOLD_TOL,
    NEWTON_TOL,
    _NewtonKernel,
    _nose,
    _series_coefficients,
    _series_start,
    actual_limit,
    newton_base_case,
    newton_solve,
)

from conftest import BUNDLED, case_path, make_star, make_two_bus
from reference_values import reference_kernel_arrays, reference_real_jacobian, reference_series, two_bus_analytic


def test_two_bus_analytic_cases():
    both = two_bus_analytic(2.5, 0.0, 0.1)
    assert both[0] == pytest.approx(0.9330127 - 0.25j, abs=1e-7)
    assert both[1] == pytest.approx(0.0669873 - 0.25j, abs=1e-7)

    trivial = two_bus_analytic(0.0, 0.0, 0.1)
    assert trivial == (1 + 0j, 0j)

    assert two_bus_analytic(0.0, 3.0, 0.1) == ()  # 4*0.1*3 = 1.2 > 1

    double = two_bus_analytic(0.0, 2.5, 0.1)
    assert double == (0.5 + 0j,)

    with pytest.raises(ValueError):
        two_bus_analytic(1.0, 0.0, -0.1)


def test_high_root_satisfies_fixed_point_equation():
    red = reduce_case(make_two_bus())
    v = np.array([two_bus_analytic(2.5, 0.0, 0.1)[0]])
    assert fixed_point_residual(red, v, np.array([2.5 + 0j])) < 1e-12


def test_newton_two_bus():
    res = newton_solve(reduce_case(make_two_bus()), np.array([2.5 + 0j]))
    assert res.converged
    assert res.mismatch_norm < 1e-8
    assert res.V_L[0] == pytest.approx(two_bus_analytic(2.5, 0.0, 0.1)[0], abs=1e-8)


def test_newton_infeasible_load():
    res = newton_solve(reduce_case(make_two_bus()), np.array([10.0 + 0j]))
    assert not res.converged


def test_newton_star_matches_superposition_of_independent_feeders():
    # identical feeders do not interact: each load sees its own two-bus problem
    case = make_star(loads=((1.2, 0.1), (0.7, 0.4), (0.3, 0.0)))
    res = newton_solve(*limits.prepare(case))
    assert res.converged
    for k, (p, q) in enumerate(((1.2, 0.1), (0.7, 0.4), (0.3, 0.0))):
        assert res.V_L[k] == pytest.approx(two_bus_analytic(p, q, 0.1)[0], abs=1e-8)


def test_newton_network_reuse_and_warm_start():
    case = make_two_bus()
    net = reduce_case(case)
    first = newton_solve(net, np.array([2.0 + 0j]))
    second = newton_solve(net, np.array([2.1 + 0j]), start=first.V_L)
    assert second.converged and second.iterations <= first.iterations + 1


def test_base_case_matches_fixed_generator_solution():
    """With every generator's phasor pinned by the base-case solve, the load-only
    Newton run must reproduce the same load voltages."""
    case = case_path_case("case9.m")
    phasors = newton_base_case(case, build_admittance(case))
    net = reduce_case(case, gen_phasors="solved")
    res = newton_solve(net, load_power_vector(case, net.load_ids))
    assert res.converged
    for k, bus in enumerate(net.load_ids):
        assert res.V_L[k] == pytest.approx(phasors[bus], abs=1e-7)


def case_path_case(name):
    from pfcert.net_model import load_case_file

    return load_case_file(case_path(name))


def series_start(red, direction, lo, hi):
    """The series start _nose takes: _series_start of _series_coefficients."""
    return _series_start(_series_coefficients(red, direction), red.E, lo, hi)


def test_base_case_keeps_slack_angle():
    case = make_two_bus()
    phasors = newton_base_case(case, build_admittance(case))
    assert phasors[1] == pytest.approx(1.0 + 0j, abs=1e-10)


def test_actual_limit_two_bus_exact():
    lam = actual_limit(make_two_bus(p=1.0), np.array([1.0 + 0j]), tol=1e-4)
    assert lam == pytest.approx(5.0, abs=1e-4)


def test_actual_limit_requires_feasible_lower_end():
    with pytest.raises(CaseError, match="infeasible"):
        actual_limit(make_two_bus(p=1.0), np.array([1.0 + 0j]), bracket=(11.0, 12.0))


def test_actual_limit_rejects_feasible_upper_end():
    with pytest.raises(CaseError, match="feasible"):
        actual_limit(make_two_bus(p=1.0), np.array([1.0 + 0j]), bracket=(1.0, 2.0))


@pytest.mark.parametrize("bracket, message", [
    ((0.0, None), "^bracket lower end must be positive$"),
    ((2.0, 1.0), "^bracket upper end must exceed the lower end$"),
], ids=["zero lower end", "upper end below the lower"])
def test_actual_limit_rejects_a_malformed_bracket(bracket, message):
    with pytest.raises(CaseError, match=message):
        actual_limit(make_two_bus(p=1.0), np.array([1.0 + 0j]), bracket=bracket)


def test_newton_vectors_of_the_wrong_length_are_case_errors():
    case = case_path_case("case9.m")
    with pytest.raises(CaseError, match=r"start has shape \(1,\), expected \(6,\)"):
        newton_solve(*limits.prepare(case), start=np.array([1 + 0j]))
    with pytest.raises(CaseError, match=r"S_L has shape \(1,\), expected \(6,\)"):
        newton_solve(reduce_case(case), np.array([1 + 0j]))


def test_actual_limit_direction_of_the_wrong_length_is_a_case_error():
    case = case_path_case("case9.m")
    with pytest.raises(CaseError, match=r"direction has shape \(7,\), expected \(6,\)"):
        actual_limit(case, direction=np.ones(7))


def test_actual_limit_explicit_bracket():
    lam = actual_limit(make_two_bus(p=1.0), np.array([1.0 + 0j]), bracket=(4.0, 6.0), tol=1e-4)
    assert lam == pytest.approx(5.0, abs=1e-4)


@pytest.mark.parametrize("form", ["load", "base_case"])
def test_newton_kernel_jacobian_matches_central_differences(form):
    """Both solvers' index sets: load angles and magnitudes (newton_solve), and
    non-slack angles with load magnitudes (newton_base_case). The corrector
    refills one values array, so a second state checks that nothing of the first
    is left over, and that a factor made before the refill still solves exactly
    as it did: the tangent is solved with the last factor."""
    case = case_path_case("case39.m")
    generator_ids, load_ids = partition_buses(case)
    Y = build_admittance(case).matrix
    m, nb = len(generator_ids), len(generator_ids) + len(load_ids)
    mag = np.arange(m, nb)
    ang = mag if form == "load" else np.delete(np.arange(nb), generator_ids.index(case.slack_bus))
    kernel = _NewtonKernel(Y, ang, mag)
    n = len(ang) + len(mag)
    J0 = np.empty(len(kernel.indices))
    rng = np.random.default_rng(7)
    b = rng.standard_normal(n)
    lu = None
    for _ in range(2):
        theta, vm = 0.2 * rng.standard_normal(nb), 1.0 + 0.05 * rng.standard_normal(nb)

        def mismatch(dx):
            th, v = theta.copy(), vm.copy()
            th[ang] += dx[: len(ang)]
            v[mag] += dx[len(ang):]
            V = v * np.exp(1j * th)
            S = V * np.conj(Y @ V)
            return np.concatenate([S.real[ang], S.imag[mag]])

        V = vm * np.exp(1j * theta)
        J = kernel.jacobian(V, Y @ V, J0)
        assert J is J0  # refilled, not made anew
        assert J.tobytes() == kernel.jacobian(V, Y @ V).tobytes()
        dense = sp.csc_matrix((J, kernel.indices, kernel.indptr), shape=(n, n)).toarray()
        h = 1e-6
        fd = np.column_stack([(mismatch(h * e) - mismatch(-h * e)) / (2 * h) for e in np.eye(n)])
        assert np.abs(dense - fd).max() <= 1e-6 * np.abs(dense).max()
        if lu is None:
            lu = admittance.lu(J, kernel.indices, kernel.indptr)
            x = lu.solve(b)
    assert lu.solve(b).tobytes() == x.tobytes()


@pytest.mark.parametrize("name", ["case9", "case39", "case118"])
def test_kernel_pattern_matches_the_scipy_build(name):
    """The kernel builds J's pattern from Y's CSC arrays alone. Every array it keeps
    equals that of the scipy.sparse build, dtype and bytes, for both solvers' index
    sets; also with an explicitly stored zero in Y, which neither build keeps, and with
    each column of Y stored in descending row order."""
    case = case_path_case(f"{name}.m")
    adm = build_admittance(case)
    m, nb = adm.n_gen, len(adm.bus_order)
    gens = adm.bus_order[:m]
    slack = case.slack_bus if case.slack_bus in gens else gens[0]
    mag = np.arange(m, nb)
    stored_zero = adm.matrix.copy()  # one branch between two load buses, zero but still stored
    col = np.repeat(np.arange(nb), np.diff(stored_zero.indptr))
    stored_zero.data[np.flatnonzero((stored_zero.indices != col) & (stored_zero.indices >= m) & (col >= m))[0]] = 0
    Y = adm.matrix
    descending = np.concatenate([np.arange(a, b)[::-1] for a, b in zip(Y.indptr[:-1], Y.indptr[1:])])
    unsorted = sp.csc_matrix((Y.data[descending], Y.indices[descending], Y.indptr), shape=Y.shape)
    for Y in (adm.matrix, stored_zero, unsorted):
        for ang in (mag, np.delete(np.arange(nb), adm.bus_order.index(slack))):
            kernel = _NewtonKernel(Y, ang, mag)
            for key, want in reference_kernel_arrays(Y, ang, mag).items():
                got = getattr(kernel, key)
                got = np.arange(nb)[got] if isinstance(got, slice) else got  # a contiguous run is held as a slice
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), key
    assert len(_NewtonKernel(stored_zero, mag, mag).gather) < len(_NewtonKernel(adm.matrix, mag, mag).gather)


@pytest.mark.parametrize("name", BUNDLED)
def test_jacobian_fill_matches_the_real_arithmetic_fill(name):
    """The kernel forms each Jacobian entry in complex arithmetic; reference_real_jacobian
    spells the same products out in real arithmetic, one real part at a time. For both
    solvers' index sets, at the no-load voltages and at two perturbed states, the two
    fills agree within 4 ulps of max |J|."""
    case = case_path_case(f"{name}.m")
    red = reduce_case(case)
    gens, nb = list(red.generator_ids), red.Y.shape[0]
    mag = np.arange(len(gens), nb)
    slack = gens.index(case.slack_bus) if case.slack_bus in gens else 0
    rng = np.random.default_rng(11)
    E = np.concatenate([red.V_G, red.E])
    states = [E] + [E * (1 + 0.05 * rng.standard_normal(nb)) * np.exp(0.2j * rng.standard_normal(nb))
                    for _ in range(2)]
    for ang in (mag, np.delete(np.arange(nb), slack)):
        kernel = _NewtonKernel(red.Y, ang, mag)
        for V in states:
            I = red.Y @ V
            J, want = kernel.jacobian(V, I), reference_real_jacobian(red.Y, ang, mag, V, I)
            assert np.abs(J - want).max() <= 4 * np.finfo(float).eps * np.abs(want).max()


def _replace_column(J, k, col):
    """J with column k replaced by the dense vector col, and that column of J, dense,
    as a fresh matrix each call: the reference for _NewtonKernel.held_column."""
    start, end = J.indptr[k], J.indptr[k + 1]
    old = np.zeros(J.shape[0])
    old[J.indices[start:end]] = J.data[start:end]
    rows = np.flatnonzero(col)
    indptr = J.indptr.copy()
    indptr[k + 1:] += len(rows) - (end - start)
    data = np.r_[J.data[:start], col[rows], J.data[end:]]
    return sp.csc_matrix((data, np.r_[J.indices[:start], rows, J.indices[end:]], indptr), shape=J.shape), old


@pytest.mark.parametrize("name", ["case9", "case39"])
def test_held_column_matches_fresh_matrix(name):
    """Bit for bit, pattern and index type included: SuperLU's column order follows
    the pattern. The loading columns are the base load's and that of its first
    loaded bus alone, zero elsewhere, so every held column shrinks for the second."""
    case = case_path_case(f"{name}.m")
    red, S = limits.prepare(case)
    kernel, n = red.kernel, 2 * len(S)
    one = np.where(np.arange(len(S)) == np.flatnonzero(S)[0], S, 0)
    cols = [np.concatenate([d.real, d.imag]) for d in (S, one)]
    refills = [[kernel.held_column(k, col) for k in range(n)] for col in cols]  # made before any values
    rng = np.random.default_rng(3)
    shrunk = 0
    for _ in range(2):
        V = np.concatenate([red.V_G, red.E * (1 + 0.05 * rng.standard_normal(len(S)))])
        J = sp.csc_matrix((kernel.jacobian(V, red.Y @ V), kernel.indices, kernel.indptr), shape=(n, n))
        for col, plans in zip(cols, refills):
            for k in range(n):
                data, indices, indptr, old = plans[k](J.data)
                ref, ref_old = _replace_column(J, k, col)
                for a, b in ((data, ref.data), (indices, ref.indices), (indptr, ref.indptr), (old, ref_old)):
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
                shrunk += len(data) < J.nnz
    assert shrunk >= 2 * n


def factored_matrices(name):
    """The matrices a limit factors, as (data, indices, indptr): the load-form Jacobian at the
    no-load voltages, the same matrix with its column 0 replaced by the base load's loading
    column, and the complex Y_LL."""
    red, S = limits.prepare(case_path_case(f"{name}.m"))
    kernel = red.kernel
    V = np.concatenate([red.V_G, red.E])
    J = kernel.jacobian(V, red.Y @ V)
    return [(J, kernel.indices, kernel.indptr), kernel.held_column(0, np.concatenate([S.real, S.imag]))(J)[:3],
            (red.Y_LL.data, red.Y_LL.indices, red.Y_LL.indptr)]


def backend_factor(A, dense):
    """admittance.lu's factor of A by the given backend, LAPACK's or SuperLU's, whatever A's order."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(admittance, "DENSE_MAX", math.inf if dense else -1)
        return admittance.lu(*A)


def right_hand_side(rng, A):
    n = len(A[2]) - 1
    b = rng.standard_normal(n)
    return b if A[0].dtype == float else b + 1j * rng.standard_normal(n)


@pytest.mark.parametrize("name", BUNDLED)
def test_factor_is_splu_bit_for_bit(name):
    """admittance.lu's SuperLU backend calls SuperLU's private entry point the way spla.splu
    does; if a scipy release changes that call, this test fails first. It is forced,
    whichever backend the matrix's order picks, so every case's Jacobians and Y_LL keep
    the check."""
    rng = np.random.default_rng(13)
    for data, indices, indptr in factored_matrices(name):
        n = len(indptr) - 1
        ours = backend_factor((data, indices, indptr), dense=False)
        theirs = spla.splu(sp.csc_matrix((data, indices, indptr), shape=(n, n)))
        for a, b in ((ours.perm_r, theirs.perm_r), (ours.perm_c, theirs.perm_c)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        for a, b in ((ours.L, theirs.L), (ours.U, theirs.U)):
            for x, y in ((a.data, b.data), (a.indices, b.indices), (a.indptr, b.indptr)):
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
        rhs = right_hand_side(rng, (data, indices, indptr))
        assert ours.solve(rhs).tobytes() == theirs.solve(rhs).tobytes()


@pytest.mark.parametrize("name", BUNDLED)
def test_dense_factor_solves_like_splu(name):
    """LAPACK's factor of the same matrices, Y_LL included, solves to within 1e-12 of SuperLU's,
    relative to the solution's largest entry, and leaves the matrix's arrays as they were."""
    rng = np.random.default_rng(13)
    for A in factored_matrices(name):
        before = [a.tobytes() for a in A]
        n = len(A[2]) - 1
        rhs = right_hand_side(rng, A)
        x, want = backend_factor(A, dense=True).solve(rhs), spla.splu(sp.csc_matrix(A, shape=(n, n))).solve(rhs)
        assert x.dtype == want.dtype and x.shape == want.shape
        assert np.abs(x - want).max() <= 1e-12 * np.abs(want).max()
        assert [a.tobytes() for a in A] == before


def test_factor_raises_on_a_singular_matrix_like_splu():
    """An exactly singular matrix (its middle column zero), real or complex, raises
    RuntimeError from both backends, which the corrector reads as a breakdown; as Y_LL,
    the complex one makes reduce_network raise SingularNetworkError on either backend."""
    indices, indptr = np.array([0, 2, 2], dtype=np.intc), np.array([0, 2, 2, 3], dtype=np.intc)
    complex_data = np.array([1.0 + 1j, 2.0, 3j])
    for data in (np.array([1.0, 2.0, 3.0]), complex_data):
        for dense in (True, False):
            with pytest.raises(RuntimeError):
                backend_factor((data, indices, indptr), dense)
        with pytest.raises(RuntimeError):
            spla.splu(sp.csc_matrix((data, indices, indptr), shape=(3, 3)))
    Y = np.zeros((4, 4), dtype=complex)  # one generator, then the singular matrix as Y_LL
    Y[0, 0], Y[0, 1], Y[1, 0] = 1.0, -1.0, -1.0
    Y[1:, 1:] = sp.csc_matrix((complex_data, indices, indptr), shape=(3, 3)).toarray()
    for dense in (True, False):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(admittance, "DENSE_MAX", math.inf if dense else -1)
            with pytest.raises(SingularNetworkError, match="Y_LL is singular"):
                reduce_network(AdmittanceMatrix(sp.csc_matrix(Y), (1, 2, 3, 4), 1), np.array([1.0 + 0j]))


@pytest.mark.parametrize("name, dense", [("case9", True), ("case57", True), ("case118", False)])
def test_kernel_picks_its_backend_by_order(name, dense):
    """The backend follows the order in real unknowns, twice a complex matrix's order. case9's
    Jacobian (order 12) and Y_LL (6 complex) and case57's (100, and 50 complex) are factored by
    LAPACK, case118's (128, and 64 complex) by SuperLU."""
    for A in factored_matrices(name)[::2]:
        order = (len(A[2]) - 1) * (2 if A[0].dtype == complex else 1)
        assert (order <= admittance.DENSE_MAX) is dense
        assert isinstance(admittance.lu(*A), admittance._DenseFactor if dense else spla.SuperLU)
    assert isinstance(reduce_case(case_path_case(f"{name}.m")).lu, admittance._DenseFactor if dense else spla.SuperLU)


class _PoisonedFactor:
    """A factor whose solve number `bad` (0 is a Newton step's, 1 the tangent's) returns NaN."""

    def __init__(self, lu, bad):
        self.lu, self.bad, self.calls = lu, bad, 0

    def solve(self, b):
        self.calls += 1
        x = self.lu.solve(b)
        return np.full_like(x, np.nan) if self.calls - 1 == self.bad else x


def poison_factors(monkeypatch, bad):
    monkeypatch.setattr(oracle, "lu", lambda *A: _PoisonedFactor(admittance.lu(*A), bad))


@pytest.mark.parametrize("name", ["case9", "case118"])  # one kernel on each backend
def test_non_finite_jacobian_or_step_breaks_the_solve(name, monkeypatch):
    """A non-finite Jacobian value, or a non-finite step, ends the solve at once: not
    converged after 0 iterations, with the first iterate's finite mismatch."""
    red, S = limits.prepare(case_path_case(f"{name}.m"))
    assert newton_solve(red, S).converged
    with monkeypatch.context() as m:
        jacobian = _NewtonKernel.jacobian
        m.setattr(_NewtonKernel, "jacobian", lambda self, *a: np.where(np.arange(len(self.indices)) == 0, np.inf,
                                                                         jacobian(self, *a)))
        m.setattr(oracle, "lu", lambda *a: pytest.fail("factored a non-finite Jacobian"))
        broken = newton_solve(red, S)
        assert not broken.converged and broken.iterations == 0 and math.isfinite(broken.mismatch_norm)
    poison_factors(monkeypatch, 0)
    broken = newton_solve(red, S)
    assert not broken.converged and broken.iterations == 0 and math.isfinite(broken.mismatch_norm)


@pytest.mark.parametrize("name", ["case9", "case118"])
def test_non_finite_tangent_fails_the_corrector(name, monkeypatch):
    """A corrector whose point converges but whose tangent is not finite returns no tangent
    and converged=False, so the continuation treats it as a failed corrector."""
    red, S = limits.prepare(case_path_case(f"{name}.m"))
    m, n = len(red.generator_ids), len(S)
    V = np.concatenate([red.V_G, red.E])
    y, d = np.r_[np.angle(red.E), np.abs(red.E), 1e-3], np.concatenate([np.zeros(m), S])
    args = (V, np.angle(V), np.abs(V), y, np.zeros_like(V), d, 2 * n, NEWTON_TOL, oracle.CORRECTOR_MAX_ITER)
    res, _, t = red.kernel.correct(*args)
    assert res.converged and np.isfinite(t).all()
    poison_factors(monkeypatch, 1)
    res, _, t = red.kernel.correct(*args)
    assert not res.converged and t is None and res.mismatch_norm < NEWTON_TOL


class _RecordingFactor:
    """Y_LL's factor, keeping each right-hand side it solves."""

    def __init__(self, lu):
        self.lu, self.calls = lu, []

    def solve(self, b):
        self.calls.append(b.copy())
        return self.lu.solve(b)


@pytest.mark.parametrize("name", BUNDLED)
def test_series_coefficients_match_an_explicit_recurrence(name):
    """_series_coefficients gives -c_0 .. -c_40. On the 7 base directions, on both of its paths (one
    dense operator on case9 to case39, one Y_LL solve per term on case57 and case118), each c_k agrees
    with reference_series, whose Cauchy products are explicit loops over m and whose Y_LL^-1 is a
    dense inverse, within 1e-13 of its largest entry."""
    red, S = limits.prepare(case_path_case(f"{name}.m"))
    mc = _series_coefficients(red, S)
    c, _ = reference_series(red.Y_LL, red.E, S, oracle.SERIES_TERMS)
    assert mc.shape == c.shape
    for k in range(oracle.SERIES_TERMS + 1):
        assert np.abs(-mc[k] - c[k]).max() <= 1e-13 * np.abs(c[k]).max(), k


@pytest.mark.parametrize("name, solves", [("case9", [2]), ("case39", [2]), ("case57", [1] * 40), ("case118", [1] * 40)])
def test_series_solves_with_y_ll_once_on_at_most_series_terms_load_buses(name, solves):
    """On at most SERIES_TERMS = 40 load buses (case9 6, case39 29) the series forms its operator
    by one solve with one column per load bus and applies it 40 times; on more (case57 50, case118
    64) it makes one vector solve per term. Listed: the dimension of each solve's right-hand side."""
    red, S = limits.prepare(case_path_case(f"{name}.m"))
    recorder = _RecordingFactor(red.lu)
    _series_coefficients(replace(red, lu=recorder), S)
    assert [b.ndim for b in recorder.calls] == solves
    assert all(b.shape[0] == red.n_load for b in recorder.calls) and recorder.calls[0].shape[-1] == red.n_load


def test_series_start_refuses_a_non_positive_intercept():
    """Coefficients 1/k!^2 sum to an entire function, with no nose: the ratios |c_k / c_(k-1)| = 1/k^2
    are convex in 1/k, so the line fitted to them meets 1/k = 0 below zero and the series gives no
    start. Geometric coefficients 2^-k, with their pole at 2, give 0.95 * 2."""
    red = reduce_case(make_two_bus())

    def coefficients(c):
        return np.array([-1.0] + [c(k) for k in range(1, oracle.SERIES_TERMS + 1)], dtype=complex)[:, None]

    assert _series_start(coefficients(lambda k: 1 / math.factorial(k) ** 2), red.E, 1e-3, None) is None
    assert _series_start(coefficients(lambda k: 2.0**-k), red.E, 1e-3, None)[0] == pytest.approx(1.9, rel=1e-12)


def test_actual_limit_builds_one_matrix_per_corrector_call(monkeypatch):
    """The Jacobian is refilled in place: once the kernel exists, the limit builds no
    scipy.sparse matrix at all, and it takes as many factorizations as with a new
    matrix every iteration (8 on case39's base direction, started from the series
    with the jump toward the nose it predicts and a cubic step)."""
    case = case_path_case("case39.m")
    red, S = limits.prepare(case)
    red.kernel  # built on first use, so before the counting starts
    counts = {}

    def counting(name, fn):
        counts[name] = 0

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(oracle, "lu", counting("factor", admittance.lu))
    monkeypatch.setattr(sp._base._spbase, "__init__", counting("sparse", sp._base._spbase.__init__))
    actual_limit(case, direction=S, bracket=(1e-3, None), network=red)
    assert counts["factor"] == 8
    assert counts["sparse"] == 0


def test_kernel_is_read_only_across_threads():
    """The kernel is cached on the reduction and shared by its re-centred
    copies, so no call writes to it: two threads running limits on one
    reduction, switching as often as the interpreter allows, get the
    sequential results bit for bit, and the kernel's arrays are unchanged."""
    case = case_path_case("case9.m")
    red, S = limits.prepare(case)
    arrays = lambda: {k: v.tobytes() for k, v in vars(red.kernel).items() if isinstance(v, np.ndarray)}
    before = arrays()
    rng = np.random.default_rng(5)
    directions = [S * (0.5 + rng.random(len(S))) for _ in range(4)]
    want = [actual_limit(case, direction=d, bracket=(1e-3, None), network=red) for d in directions]
    got = [[], []]

    def work(out):
        out.extend(actual_limit(case, direction=d, bracket=(1e-3, None), network=red) for d in directions)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(out,)) for out in got]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(interval)
    assert got == [want, want]
    assert arrays() == before


@pytest.mark.filterwarnings("error")
def test_newton_failures_are_structured_results():
    case = case_path_case("case39.m")
    net = reduce_case(case)
    S = load_power_vector(case, net.load_ids)
    start = net.E.copy()
    start[3] = 0.0
    hopeless = 10 * 2.47309375 * S  # 10x the true limit
    for res in (newton_solve(net, S, start=start), newton_solve(net, hopeless)):
        assert not res.converged and res.V_L.shape == S.shape
    # x = 1 makes Y exact; at V = 0.5 the reactive row of the Jacobian is exactly zero
    singular = newton_solve(reduce_case(make_two_bus(p=0.0, x=1.0)), np.array([0.2j]), start=np.array([0.5 + 0j]))
    assert not singular.converged and singular.iterations == 0


def perturbed_directions(S, count, seed):
    rng = np.random.default_rng(seed)
    return [S * rng.uniform(0.8, 1.2, len(S)) * np.exp(1j * rng.uniform(-0.2, 0.2, len(S))) for _ in range(count)]


def condition(net, V):
    kernel, n = net.kernel, 2 * len(net.load_ids)
    J = sp.csc_matrix((kernel.jacobian(V, net.Y @ V), kernel.indices, kernel.indptr), shape=(n, n))
    sv = np.linalg.svd(J.toarray(), compute_uv=False)
    return sv[-1] / sv[0]


def test_nose_jacobian_is_singular():
    """The returned point is the saddle-node: its load-block Jacobian is singular,
    unlike the solution at 0.9 times its loading. lambda is quadratic in the
    critical magnitude at the fold, so tol = 1e-4 leaves the point
    far enough away for a ratio of ~1e-5; tol = 1e-8 brings it below 1e-6."""
    case = case_path_case("case39.m")
    red, S = limits.prepare(case)
    for d in [S] + perturbed_directions(S, 1, seed=5):
        lam, V = _nose(red, d, (1e-3, None), tol=1e-8)
        assert condition(red, V) <= 1e-6
        below = newton_solve(red, 0.9 * lam * d)
        assert below.converged
        assert condition(red, np.concatenate([red.V_G, below.V_L])) >= 1e-3


def test_actual_limit_two_bus_tight_tol():
    assert actual_limit(make_two_bus(p=1.0), np.array([1.0 + 0j]), tol=1e-10) == pytest.approx(5.0, abs=1e-8)


def test_actual_limit_two_bus_default_tol_reaches_the_exact_nose():
    """The default fold tolerance puts the two-bus limit within 1e-9 of its
    exact nose 5.0 (4.9999999999986; the former default, 1e-4, gave 4.9999975)."""
    assert actual_limit(make_two_bus(p=1.0), np.array([1.0 + 0j])) == pytest.approx(5.0, abs=1e-9)


def golden_sweep_directions(red, S, points=12):
    """The loading directions of `pfcert sweep --points 12`, as direction_sweep builds them."""
    pairs = [(2.0 * math.pi * k / points,) * 2 for k in range(points)]
    return limits.direction_sweep(red, S, *limits.default_sweep_buses(red, S), pairs)[1]


# Sweep angles, in degrees, of the 72-point sweep (every 5 degrees). Those whose coefficient ratios alternate about
# the trend (two singularities near the same radius): the series' start sits at 0.83-0.89 of the nose
ALTERNATING = {"case9": (210, 320), "case24_ieee_rts": (340,)}
# the lowest starts, where a singularity off the positive axis is nearer than the nose: 0.383 and 0.473 of it
LOW_START = {"case24_ieee_rts": (260,), "case39": (260,)}
# where the jump lands past the nose, so that it and the start bracket the fold (the one such angle of the
# 36- and 72-point sweeps and of the two largest loads swung together, by either phasor source)
JUMP_PAST = {"case24_ieee_rts": (175,)}
# the base directions whose fold bracket takes more than one FOLD_TOL corrector
FOLD_CORRECTORS = {"case57": 2}


def unity_power_factor_pair(S):
    """S with its two largest loads at their own magnitudes and unity power factor. On case24_ieee_rts this is
    the one direction, of each case's two largest loads swung together through 36 angles, where a cubic step's
    NEWTON_TOL point passes the fold's test (with either phasor source), so the answer is that point polished."""
    d = S.copy()
    pair = np.argsort(-np.abs(S), kind="stable")[:2]
    d[pair] = np.abs(S[pair])
    return d


CUBIC = ("cubic", 1.0)  # marks a cubic step beyond the last of two points short of the nose


@pytest.mark.parametrize("gen_phasors", ["case", "solved"])
@pytest.mark.parametrize("name", BUNDLED)
def test_default_oracle_agrees_with_a_tighter_fold(name, gen_phasors, monkeypatch):
    """The default answer depends on neither the continuation's path nor its start: on
    every bundled base direction, on the 12 directions of each golden sweep and on the
    ALTERNATING, LOW_START and JUMP_PAST ones, the series start is taken, and the answer
    is within 2e-10 of a tol = 1e-13 run (measured on all three paths: at most 9.7e-11), as are the answers
    with the jump refused (the plain continuation from the series start) and started
    from bracket[0], which refusing the series start gives. On the base direction the
    series start is solved to sqrt(NEWTON_TOL), the jump lands short of the nose and the
    cubic step follows, both solved to NEWTON_TOL (a silent fallback fails here), and
    only the correctors of the fold's bracket run to FOLD_TOL, the last one returned. On
    JUMP_PAST every step after the jump lies inside the fold's bracket, at FOLD_TOL. On
    case24_ieee_rts's unity_power_factor_pair the last corrector polishes a cubic step's
    point to FOLD_TOL."""
    case = case_path_case(f"{name}.m")
    red, S = limits.prepare(case, gen_phasors)
    sweep = golden_sweep_directions(red, S, 72)
    past = [sweep[a // 5] for a in JUMP_PAST.get(name, ())]
    directions = [S] + past + golden_sweep_directions(red, S)
    directions += [sweep[a // 5] for a in ALTERNATING.get(name, ()) + LOW_START.get(name, ())]
    directions += [unity_power_factor_pair(S)] if name == "case24_ieee_rts" else []
    assert all(series_start(red, d, 1e-3, None) is not None for d in directions)
    calls, refuse = [], False  # (tolerance, converged) of each corrector call of one limit, and the cubic's side
    correct, cubic = _NewtonKernel.correct, oracle._cubic_fold

    def watched(self, *args):
        res, y, t = correct(self, *args)
        calls.append((args[7], res.converged))
        return (replace(res, converged=False), y, None) if refuse and len(calls) == 2 else (res, y, t)

    def limit(d, **kwargs):
        calls.clear()
        return actual_limit(case, direction=d, network=red, **kwargs)

    monkeypatch.setattr(_NewtonKernel, "correct", watched)
    monkeypatch.setattr(oracle, "_cubic_fold", lambda *args: calls.append(("cubic", args[6])) or cubic(*args))
    tight = [limit(d, tol=1e-13) for d in directions]
    series, paths = [], []
    for d in directions:
        series.append(limit(d))
        paths.append(calls[:])
    # the series start's corrector, the jump's, and the cubic step's after it; then FOLD_TOL correctors alone
    path = paths[0]
    assert path[:4] == [(math.sqrt(NEWTON_TOL), True), (NEWTON_TOL, True), CUBIC, (NEWTON_TOL, True)]
    first = next(k for k, call in enumerate(path) if call[0] == FOLD_TOL)
    assert all(call[0] == FOLD_TOL or call[0] == "cubic" for call in path[first:])
    assert path[-1] == (FOLD_TOL, True) and sum(call[0] == FOLD_TOL for call in path) == FOLD_CORRECTORS.get(name, 1)
    # on JUMP_PAST, after the jump, only FOLD_TOL correctors and cubic steps inside the bracket
    for path in paths[1:1 + len(past)]:
        assert path[1] == (NEWTON_TOL, True)
        assert all(call[0] == FOLD_TOL or call == ("cubic", -1.0) for call in path[2:])
    if name == "case24_ieee_rts":  # the polish: the cubic step's s held again, to FOLD_TOL
        assert paths[-1][-3:] == [CUBIC, (NEWTON_TOL, True), (FOLD_TOL, True)]
    refuse = True  # the jump's corrector, each limit's second, reports failure
    refused = [limit(d) for d in directions]
    refuse = False  # the cold start runs unmodified
    monkeypatch.setattr(oracle, "_series_start", lambda *args: None)
    cold = [limit(d) for d in directions]
    assert series == pytest.approx(tight, abs=2e-10)
    assert refused == pytest.approx(tight, abs=2e-10)
    assert cold == pytest.approx(tight, abs=2e-10)
    assert series == pytest.approx(cold, abs=2e-10)


@pytest.mark.parametrize("tol", [1e-10, 1e-30])
def test_jump_landing_just_short_of_the_nose(tol, monkeypatch):
    """The two-bus load (p = 1, x = 0.1) has its nose at lambda = 5 and |v| = 1/sqrt(2).
    With a series start at 0.95 * 5, and the jump's held magnitude moved to 1e-9 above
    the nose's, the jump lands just short of it. At the default tol the quadratic model
    puts the jump within tol of the nose, and it is returned after two correctors. At a
    tol no model meets, the cubic step follows: the cubic through the start and the jump
    puts the nose about 5e-10 further on, still short of it, and the cubic through the
    jump and that point puts it past; no point meets a tol below rounding, so the fold's
    bracket narrows to its 1e-13 width. Each of these predictors' mismatch is at rounding
    level, which the corrector accepts after one factorization."""
    case = make_two_bus(p=1.0)
    red = reduce_case(case)
    d = load_power_vector(case, red.load_ids)
    start = two_bus_analytic(4.75, 0.0, 0.1)[0]
    monkeypatch.setattr(oracle, "_series_start", lambda *args: (4.75, np.array([start])))
    calls = []
    correct = _NewtonKernel.correct

    def landing(self, *args):
        if len(calls) == 1:  # the jump: from the nose, hold the magnitude 1e-9 above it
            assert args[6] == 1
            args = args[:3] + (np.array([-math.pi / 4, math.sqrt(0.5) + 1e-9, 5.0]),) + args[4:]
        res, y, t = correct(self, *args)
        calls.append(res.converged)
        return res, y, t

    monkeypatch.setattr(_NewtonKernel, "correct", landing)
    assert _nose(red, d, (1e-3, None), tol)[0] == pytest.approx(5.0, abs=1e-12)
    assert (calls == [True, True]) == (tol == 1e-10)


@pytest.mark.parametrize("name", BUNDLED)
def test_nose_point_meets_the_fold_tolerance(name, monkeypatch):
    """_nose returns only a point solved to FOLD_TOL (a corrector's inside the fold's
    bracket, or a jump or cubic-step point polished at its s): never the series start,
    solved to sqrt(NEWTON_TOL), nor a point accepted at NEWTON_TOL (the jump's, a cubic
    step's or the continuation's), which can sit 1e-8 above the nose. On the base
    direction and the ALTERNATING, LOW_START and JUMP_PAST ones (and case24_ieee_rts's
    unity_power_factor_pair, which ends with a polish), from the series start, with the
    jump refused and from the cold start, the returned point's load-bus power mismatch
    |V conj(Y V) + lambda d| is at most FOLD_TOL. The corrector accepts on
    max(|dP|, |dQ|), which FOLD_TOL bounds, so |dS| could reach sqrt(2) FOLD_TOL; on these
    directions it stays below FOLD_TOL."""
    case = case_path_case(f"{name}.m")
    red, S = limits.prepare(case)
    sweep = golden_sweep_directions(red, S, 72)
    angles = ALTERNATING.get(name, ()) + LOW_START.get(name, ()) + JUMP_PAST.get(name, ())
    calls = []
    correct = _NewtonKernel.correct

    def refusing(self, *args):  # the jump's corrector, each limit's second, reports failure
        res, y, t = correct(self, *args)
        calls.append(res.converged)
        return (replace(res, converged=False), y, None) if len(calls) == 2 else (res, y, t)

    m = len(red.generator_ids)
    polished = [unity_power_factor_pair(S)] if name == "case24_ieee_rts" else []
    for path in ("series", "refused", "cold"):
        with monkeypatch.context() as patch:
            if path == "refused":
                patch.setattr(_NewtonKernel, "correct", refusing)
            if path == "cold":
                patch.setattr(oracle, "_series_start", lambda *args: None)
            for d in [S] + [sweep[a // 5] for a in angles] + polished:
                calls.clear()
                lam, V = _nose(red, d, (1e-3, None), 1e-10)
                assert np.abs((V * np.conj(red.Y @ V))[m:] + lam * d).max() <= FOLD_TOL, path


def test_case30_sweep_at_150_degrees_is_the_nose():
    """The golden case30 sweep printed 3.11761611 at 150 degrees; the nose, on which
    tighter fold and Newton tolerances agree to 1e-13, is 3.1176160934."""
    case = case_path_case("case30.m")
    red, S = limits.prepare(case)
    lam = actual_limit(case, direction=golden_sweep_directions(red, S)[5], network=red)
    assert lam == pytest.approx(3.1176160934, abs=2e-10)
    assert format(lam, ".9g") == "3.11761609"


def test_actual_limit_zero_direction_raises(monkeypatch):
    case = case_path_case("case39.m")
    net = reduce_case(case)
    calls = []
    correct = _NewtonKernel.correct
    monkeypatch.setattr(_NewtonKernel, "correct", lambda *a, **k: calls.append(1) or correct(*a, **k))
    with pytest.raises(CaseError, match="unbounded"):
        actual_limit(case, direction=np.zeros(len(net.load_ids)), bracket=(1e-3, None), network=net)
    assert len(calls) < 100  # lambda grows geometrically to the 2**60 cap


def test_actual_limit_corrector_breakdown_raises(monkeypatch):
    correct = _NewtonKernel.correct
    calls = []

    def first_only(self, *args):
        res, y, t = correct(self, *args)
        calls.append(1)
        return (res, y, t) if len(calls) == 1 else (replace(res, converged=False), y, None)

    monkeypatch.setattr(_NewtonKernel, "correct", first_only)
    with pytest.raises(RuntimeError, match="broke down"):
        actual_limit(make_two_bus(p=1.0), np.array([1.0 + 0j]))


def test_fold_bracket_that_never_closes_raises(monkeypatch):
    """The fold's bracket returns only a point solved to FOLD_TOL. With every converged corrector reporting a
    mismatch of FOLD_TOL, no point is, so the bracket cannot close: it ends after FOLD_MAX_PASSES passes in a
    RuntimeError that names lambda, instead of re-solving one s forever. The patched corrector raises after 1,000
    calls, so a loop with no exit fails here instead of hanging."""
    case = case_path_case("case9.m")
    red, S = limits.prepare(case)
    correct, calls = _NewtonKernel.correct, []

    def never_tight(self, *args):
        calls.append(1)
        if len(calls) > 1000:
            raise RuntimeError("the fold's bracket loop does not end")
        res, y, t = correct(self, *args)
        return (replace(res, mismatch_norm=FOLD_TOL) if res.converged else res), y, t

    monkeypatch.setattr(oracle, "_series_start", lambda *args: None)  # from bracket[0]: no jump, no polish
    monkeypatch.setattr(_NewtonKernel, "correct", never_tight)
    with pytest.raises(RuntimeError, match="bracket did not close near lambda=[0-9]"):
        actual_limit(case, S, network=red)


@pytest.mark.parametrize("name", ["case9", "case39"])
def test_fold_bracket_shrink_stops_at_a_nan_step(name, monkeypatch):
    """A failed bracket corrector halves the step toward the end it started from until the two lie
    1e-12 apart. A NaN step, as _cubic_fold gives once the bracket's ends meet, stays NaN under
    halving and never meets |s - s0| < 1e-12; the loop stops on any step not at least 1e-12 away,
    so the limit raises. Forced here by a NaN from every bracket step; the patched corrector raises
    after 1,000 calls, so a loop with no exit fails here instead of hanging."""
    case = case_path_case(f"{name}.m")
    red, S = limits.prepare(case)
    cubic, correct, calls = oracle._cubic_fold, _NewtonKernel.correct, []

    def counted(self, *args):
        calls.append(1)
        if len(calls) > 1000:
            raise RuntimeError("the fold's shrink loop does not end")
        return correct(self, *args)

    monkeypatch.setattr(oracle, "_cubic_fold", lambda *args: math.nan if args[6] < 0 else cubic(*args))
    monkeypatch.setattr(_NewtonKernel, "correct", counted)
    with pytest.raises(RuntimeError, match="corrector broke down at the nose near lambda=[0-9]"):
        actual_limit(case, S, network=red)


@pytest.mark.parametrize("k", [1e4, 1e6])
@pytest.mark.parametrize("name", ["case9", "case39", "case118"])
def test_answer_does_not_depend_on_the_direction_units(name, k):
    """The fold's tolerance is tol * min(1, lambda): absolute at and above lambda = 1, relative below. So
    k * actual_limit(k d) is actual_limit(d) to 1e-10 relative, and stays below its own tol = 1e-13 run.
    Measured: at most 7.1e-11; with an absolute tolerance, 2.6e-9 to 2.2e-5."""
    case = case_path_case(f"{name}.m")
    red, S = limits.prepare(case)
    bracket = (1e-3 / k, None)
    scaled = k * actual_limit(case, k * S, bracket=bracket, network=red)
    assert scaled == pytest.approx(actual_limit(case, S, network=red), rel=1e-10, abs=0)
    assert scaled <= k * actual_limit(case, k * S, bracket=bracket, tol=1e-13, network=red)


def failing(calls, fails):
    """_NewtonKernel.correct recording (tolerance, converged) of each call, with the
    calls for which fails(tolerance, number of earlier calls) holds reported failed."""
    correct = _NewtonKernel.correct

    def watched(self, *args):
        res, y, t = correct(self, *args)
        if fails(args[7], len(calls)):
            res, t = replace(res, converged=False), None
        calls.append((args[7], res.converged))
        return res, y, t

    return watched


@pytest.mark.parametrize("name", BUNDLED)
def test_failed_series_start_corrector_falls_back_to_the_cold_start(name, monkeypatch):
    """When the series start's corrector fails, the continuation starts from the solved
    point at bracket[0], and the answer stays within 2e-10 of a tol = 1e-13 run."""
    case = case_path_case(f"{name}.m")
    red, S = limits.prepare(case)
    tight = actual_limit(case, S, network=red, tol=1e-13)
    calls = []
    monkeypatch.setattr(_NewtonKernel, "correct", failing(calls, lambda tol, k: k == 0))
    assert actual_limit(case, S, network=red) == pytest.approx(tight, abs=2e-10)
    assert calls[:2] == [(math.sqrt(NEWTON_TOL), False), (NEWTON_TOL, True)]


@pytest.mark.parametrize("name", BUNDLED)
def test_failed_fold_corrector_shrinks_toward_the_nearer_end(name, monkeypatch):
    """From the cold start every FOLD_TOL corrector lies inside the fold's bracket. When
    the first fails, the held s moves halfway to the bracket end it started from, and
    the answer stays within 2e-10 of a tol = 1e-13 run; when every one fails, the
    shrink reaches that end and the limit raises."""
    case = case_path_case(f"{name}.m")
    red, S = limits.prepare(case)
    tight = actual_limit(case, S, network=red, tol=1e-13)
    monkeypatch.setattr(oracle, "_series_start", lambda *args: None)
    calls = []
    monkeypatch.setattr(_NewtonKernel, "correct", failing(calls, lambda tol, k: tol == FOLD_TOL and (tol, False) not in calls))
    assert actual_limit(case, S, network=red) == pytest.approx(tight, abs=2e-10)
    first = calls.index((FOLD_TOL, False))
    assert all(tol != FOLD_TOL for tol, _ in calls[:first]) and calls[first + 1][0] == FOLD_TOL
    calls.clear()
    monkeypatch.setattr(_NewtonKernel, "correct", failing(calls, lambda tol, k: tol == FOLD_TOL))
    with pytest.raises(RuntimeError, match="corrector broke down at the nose"):
        actual_limit(case, S, network=red)


@pytest.mark.parametrize("name", BUNDLED)
def test_series_start_refusals(name, monkeypatch):
    """The series start is refused when its loading is not strictly inside the bracket,
    or when its partial sum has not converged there, as at 1.5 times the nose the
    series estimates. The limit then starts from the solved point at bracket[0], within
    2e-10 of a tol = 1e-13 run."""
    case = case_path_case(f"{name}.m")
    red, S = limits.prepare(case)
    tight = actual_limit(case, S, network=red, tol=1e-13)
    lam, _ = series_start(red, S, 1e-3, None)
    assert series_start(red, S, lam, None) is None
    assert series_start(red, S, 1e-3, lam) is None
    assert actual_limit(case, S, network=red, bracket=(lam, None)) == pytest.approx(tight, abs=2e-10)
    monkeypatch.setattr(oracle, "SERIES_FRACTION", 1.5)
    assert series_start(red, S, 1e-3, None) is None
    assert actual_limit(case, S, network=red) == pytest.approx(tight, abs=2e-10)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", BUNDLED)
def test_actual_limit_bounds_lambda_p_on_bundled_cases(name):
    case = case_path_case(f"{name}.m")
    red, S = limits.prepare(case)
    for d in [S] + perturbed_directions(S, 3, seed=11):
        lam = actual_limit(case, direction=d, bracket=(1e-3, None), network=red)
        assert limits.lambda_all(red, d).lambda_p <= lam
