"""Newton oracle, base-case solve, continuation limit, and the closed-form two-bus."""

from dataclasses import replace

import numpy as np
import pytest

from pfcert import limits
from pfcert.admittance import build_admittance, fixed_point_residual, reduce_case
from pfcert.net_model import CaseError, load_power_vector, partition_buses
from pfcert.oracle import (
    _NewtonKernel,
    _nose,
    actual_limit,
    newton_base_case,
    newton_solve,
    prepare_network,
    solved_generator_phasors,
    two_bus_analytic,
)

from conftest import case_path, make_star, make_two_bus

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
    net = prepare_network(case)
    first = newton_solve(case, np.array([2.0 + 0j]), network=net)
    second = newton_solve(case, np.array([2.1 + 0j]), start=first.V_L, network=net)
    assert second.converged and second.iterations <= first.iterations + 1


def test_base_case_matches_fixed_generator_solution():
    """With every generator's phasor pinned by the base-case solve, the load-only
    Newton run must reproduce the same load voltages."""
    case = case_path_case("case9.m")
    phasors = newton_base_case(case)
    V_G = solved_generator_phasors(case)
    net = prepare_network(case, V_G=V_G)
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
    non-slack angles with load magnitudes (newton_base_case)."""
    case = case_path_case("case39.m")
    generator_ids, load_ids = partition_buses(case)
    Y = build_admittance(case).matrix
    m, nb = len(generator_ids), len(generator_ids) + len(load_ids)
    mag = np.arange(m, nb)
    ang = mag if form == "load" else np.delete(np.arange(nb), generator_ids.index(case.slack_bus))
    kernel = _NewtonKernel(Y, ang, mag)
    rng = np.random.default_rng(7)
    theta, vm = 0.2 * rng.standard_normal(nb), 1.0 + 0.05 * rng.standard_normal(nb)

    def mismatch(dx):
        th, v = theta.copy(), vm.copy()
        th[ang] += dx[: len(ang)]
        v[mag] += dx[len(ang):]
        V = v * np.exp(1j * th)
        S = V * np.conj(Y @ V)
        return np.concatenate([S.real[ang], S.imag[mag]])

    V = vm * np.exp(1j * theta)
    J = kernel.jacobian(V, Y @ V).toarray()
    h = 1e-6
    fd = np.column_stack([(mismatch(h * e) - mismatch(-h * e)) / (2 * h) for e in np.eye(len(ang) + len(mag))])
    assert np.abs(J - fd).max() <= 1e-6 * np.abs(J).max()


@pytest.mark.filterwarnings("error")
def test_newton_failures_are_structured_results():
    case = case_path_case("case39.m")
    net = prepare_network(case)
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
    sv = np.linalg.svd(net.kernel.jacobian(V, net.Y @ V).toarray(), compute_uv=False)
    return sv[-1] / sv[0]


def test_nose_jacobian_is_singular():
    """The returned point is the saddle-node: its load-block Jacobian is singular,
    unlike the solution at 0.9 times its loading. lambda is quadratic in the
    critical magnitude at the fold, so the default tol = 1e-4 leaves the point
    far enough away for a ratio of ~1e-5; tol = 1e-8 brings it below 1e-6."""
    case = case_path_case("case39.m")
    red, S = limits.prepare(case)
    net = prepare_network(case, V_G=red.V_G)
    for d in [S] + perturbed_directions(S, 1, seed=5):
        lam, V = _nose(net, d, (1e-3, None), tol=1e-8, newton_tol=1e-8, newton_max_iter=40)
        assert condition(net, V) <= 1e-6
        below = newton_solve(case, 0.9 * lam * d, network=net)
        assert below.converged
        assert condition(net, np.concatenate([net.V_G, below.V_L])) >= 1e-3


def test_actual_limit_two_bus_tight_tol():
    assert actual_limit(make_two_bus(p=1.0), tol=1e-10) == pytest.approx(5.0, abs=1e-8)


def test_actual_limit_zero_direction_raises(monkeypatch):
    case = case_path_case("case39.m")
    net = prepare_network(case)
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
    net = prepare_network(case, V_G=red.V_G)
    for d in [S] + perturbed_directions(S, 3, seed=11):
        lam = actual_limit(case, direction=d, bracket=(1e-3, None), network=net)
        assert limits.lambda_all(red, d).lambda_p <= lam
