"""Newton oracle, base-case solve, continuation limit, and the closed-form two-bus."""

import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from pfcert import limits
from pfcert.admittance import build_admittance, fixed_point_residual, reduce_case
from pfcert.net_model import CaseError, load_power_vector, partition_buses
from pfcert.oracle import (
    _NewtonKernel,
    _nose,
    actual_limit,
    newton_base_case,
    newton_solve,
)

from conftest import case_path, make_star, make_two_bus
from reference_values import two_bus_analytic

BUNDLED = ("case9", "case14", "case24_ieee_rts", "case30", "case39", "case57", "case118")


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
    res = newton_solve(make_two_bus(), np.array([2.5 + 0j]))
    assert res.converged
    assert res.mismatch_norm < 1e-8
    assert res.V_L[0] == pytest.approx(two_bus_analytic(2.5, 0.0, 0.1)[0], abs=1e-8)


def test_newton_infeasible_load():
    res = newton_solve(make_two_bus(), np.array([10.0 + 0j]))
    assert not res.converged


def test_newton_star_matches_superposition_of_independent_feeders():
    # identical feeders do not interact: each load sees its own two-bus problem
    case = make_star(loads=((1.2, 0.1), (0.7, 0.4), (0.3, 0.0)))
    res = newton_solve(case)
    assert res.converged
    for k, (p, q) in enumerate(((1.2, 0.1), (0.7, 0.4), (0.3, 0.0))):
        assert res.V_L[k] == pytest.approx(two_bus_analytic(p, q, 0.1)[0], abs=1e-8)


def test_newton_network_reuse_and_warm_start():
    case = make_two_bus()
    net = reduce_case(case)
    first = newton_solve(case, np.array([2.0 + 0j]), network=net)
    second = newton_solve(case, np.array([2.1 + 0j]), start=first.V_L, network=net)
    assert second.converged and second.iterations <= first.iterations + 1


def test_base_case_matches_fixed_generator_solution():
    """With every generator's phasor pinned by the base-case solve, the load-only
    Newton run must reproduce the same load voltages."""
    case = case_path_case("case9.m")
    phasors = newton_base_case(case)
    net = reduce_case(case, gen_phasors="solved")
    res = newton_solve(case, network=net)
    assert res.converged
    for k, bus in enumerate(net.load_ids):
        assert res.V_L[k] == pytest.approx(phasors[bus], abs=1e-7)


def case_path_case(name):
    from pfcert.net_model import load_case_file

    return load_case_file(case_path(name))


def test_base_case_keeps_slack_angle():
    case = make_two_bus()
    phasors = newton_base_case(case)
    assert phasors[1] == pytest.approx(1.0 + 0j, abs=1e-10)


def test_actual_limit_two_bus_exact():
    lam = actual_limit(make_two_bus(p=1.0), tol=1e-4)
    assert lam == pytest.approx(5.0, abs=1e-4)


def test_actual_limit_requires_feasible_lower_end():
    with pytest.raises(CaseError, match="infeasible"):
        actual_limit(make_two_bus(p=1.0), bracket=(11.0, 12.0))


def test_actual_limit_rejects_feasible_upper_end():
    with pytest.raises(CaseError, match="feasible"):
        actual_limit(make_two_bus(p=1.0), bracket=(1.0, 2.0))


def test_actual_limit_explicit_bracket():
    lam = actual_limit(make_two_bus(p=1.0), bracket=(4.0, 6.0), tol=1e-4)
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
            lu = kernel.factor(J, kernel.indices, kernel.indptr)
            x = lu.solve(b)
    assert lu.solve(b).tobytes() == x.tobytes()


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


@pytest.mark.parametrize("name", BUNDLED)
def test_factor_is_splu_bit_for_bit(name):
    """_NewtonKernel.factor calls SuperLU's private entry point the way spla.splu
    does; if a scipy release changes that call, this test fails first. The matrices
    are the load-form Jacobian at the no-load voltages, and the same matrix with its
    column 0 replaced by the base load's loading column."""
    red, S = limits.prepare(case_path_case(f"{name}.m"))
    kernel = red.kernel
    V = np.concatenate([red.V_G, red.E])
    J = kernel.jacobian(V, red.Y @ V)
    held = kernel.held_column(0, np.concatenate([S.real, S.imag]))(J)[:3]
    rng = np.random.default_rng(13)
    for data, indices, indptr in ((J, kernel.indices, kernel.indptr), held):
        n = len(indptr) - 1
        ours = kernel.factor(data, indices, indptr)
        theirs = spla.splu(sp.csc_matrix((data, indices, indptr), shape=(n, n)))
        for a, b in ((ours.perm_r, theirs.perm_r), (ours.perm_c, theirs.perm_c)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        for a, b in ((ours.L, theirs.L), (ours.U, theirs.U)):
            for x, y in ((a.data, b.data), (a.indices, b.indices), (a.indptr, b.indptr)):
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
        rhs = rng.standard_normal(n)
        assert ours.solve(rhs).tobytes() == theirs.solve(rhs).tobytes()


def test_factor_raises_on_a_singular_matrix_like_splu():
    """An exactly singular matrix (its middle column zero) raises RuntimeError from
    both, which the corrector reads as a breakdown."""
    data = np.array([1.0, 2.0, 3.0])
    indices, indptr = np.array([0, 2, 2], dtype=np.intc), np.array([0, 2, 2, 3], dtype=np.intc)
    with pytest.raises(RuntimeError):
        reduce_case(make_two_bus()).kernel.factor(data, indices, indptr)
    with pytest.raises(RuntimeError):
        spla.splu(sp.csc_matrix((data, indices, indptr), shape=(3, 3)))


def test_actual_limit_builds_one_matrix_per_corrector_call(monkeypatch):
    """The Jacobian is refilled in place: once the kernel exists, the limit builds no
    scipy.sparse matrix at all, and it takes as many factorizations as with a new
    matrix every iteration (22 on case39's base direction)."""
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

    monkeypatch.setattr(_NewtonKernel, "factor", counting("factor", _NewtonKernel.factor))
    monkeypatch.setattr(sp._base._spbase, "__init__", counting("sparse", sp._base._spbase.__init__))
    actual_limit(case, direction=S, bracket=(1e-3, None), network=red)
    assert counts["factor"] == 22
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
    for res in (newton_solve(case, S, start=start, network=net), newton_solve(case, hopeless, network=net)):
        assert not res.converged and res.V_L.shape == S.shape
    # x = 1 makes Y exact; at V = 0.5 the reactive row of the Jacobian is exactly zero
    singular = newton_solve(make_two_bus(p=0.0, x=1.0), np.array([0.2j]), start=np.array([0.5 + 0j]))
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
        below = newton_solve(case, 0.9 * lam * d, network=red)
        assert below.converged
        assert condition(red, np.concatenate([red.V_G, below.V_L])) >= 1e-3


def test_actual_limit_two_bus_tight_tol():
    assert actual_limit(make_two_bus(p=1.0), tol=1e-10) == pytest.approx(5.0, abs=1e-8)


def test_actual_limit_two_bus_default_tol_reaches_the_exact_nose():
    """The default fold tolerance puts the two-bus limit within 1e-9 of its
    exact nose 5.0 (4.9999999999986; the former default, 1e-4, gave 4.9999975)."""
    assert actual_limit(make_two_bus(p=1.0)) == pytest.approx(5.0, abs=1e-9)


@pytest.mark.parametrize("gen_phasors", ["case", "solved"])
@pytest.mark.parametrize("name", BUNDLED)
def test_default_oracle_agrees_with_a_tighter_fold(name, gen_phasors):
    """The default answer does not depend on the continuation's path: on every
    bundled base direction it is within 1e-9 of a tol = 1e-13 run (measured:
    at most 4.5e-11)."""
    case = case_path_case(f"{name}.m")
    red, S = limits.prepare(case, gen_phasors)
    tight = actual_limit(case, direction=S, tol=1e-13, network=red)
    assert actual_limit(case, direction=S, network=red) == pytest.approx(tight, abs=1e-9)


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
    with pytest.raises(CaseError, match="broke down"):
        actual_limit(make_two_bus(p=1.0))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", BUNDLED)
def test_actual_limit_bounds_lambda_p_on_bundled_cases(name):
    case = case_path_case(f"{name}.m")
    red, S = limits.prepare(case)
    for d in [S] + perturbed_directions(S, 3, seed=11):
        lam = actual_limit(case, direction=d, bracket=(1e-3, None), network=red)
        assert limits.lambda_all(red, d).lambda_p <= lam
