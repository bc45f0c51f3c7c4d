"""Fixed-point map evaluation, iteration, containment, and rate certification."""

import math

import numpy as np
import pytest

from pfcert.admittance import reduce_case, renormalize_about_solution
from pfcert.certificate import certify
from pfcert.fixed_point import evaluate_F, solve_fixed_point
from pfcert.limits import lambda_all, prepare
from pfcert.net_model import load_case_file
from pfcert.oracle import newton_solve
from pfcert.stress import compute_stress

from conftest import BUNDLED, case_path, make_star, make_two_bus
from reference_values import check_convergence_rate, fixed_point_iterates, reference_fixed_point, two_bus_analytic

HIGH = two_bus_analytic(2.5, 0.0, 0.1)[0]


def test_map_at_flat_point_is_linear_approximation():
    red = reduce_case(make_star())
    S = np.array([1 + 0.3j, 0.8 + 0.2j, 0.5 + 0.1j])
    fu = evaluate_F(np.ones(3), red, S)
    assert np.allclose(fu, 1 - red.Ztilde @ S.conj())


def test_analytic_solution_is_fixed():
    red = reduce_case(make_two_bus())
    u = np.array([HIGH])
    fu = evaluate_F(u, red, np.array([2.5 + 0j]))
    assert np.abs(fu - u).max() < 1e-12


def test_zero_entry_rejected():
    red = reduce_case(make_two_bus())
    with pytest.raises(ValueError, match="zero entries"):
        evaluate_F(np.array([0j]), red, np.array([2.5 + 0j]))


def test_vectors_of_the_wrong_length_are_rejected():
    """A length-1 start or iterate would broadcast against case9's 6 load buses."""
    red = reduce_case(load_case_file(case_path("case9.m")))
    S = np.zeros(6)
    with pytest.raises(ValueError, match=r"start has shape \(1,\), expected \(6,\)"):
        solve_fixed_point(red, S, start=np.array([1 + 0j]))
    with pytest.raises(ValueError, match=r"u has shape \(1,\), expected \(6,\)"):
        evaluate_F(np.array([1 + 0j]), red, S)
    with pytest.raises(ValueError, match=r"S_L has shape \(1,\), expected \(6,\)"):
        solve_fixed_point(red, np.zeros(1))


def test_solve_two_bus_reaches_high_root():
    red = reduce_case(make_two_bus())
    S = np.array([2.5 + 0j])
    cert = certify(compute_stress(red.Ztilde, S))
    res = solve_fixed_point(red, S, tol=1e-10, certificate=cert)
    assert res.converged
    assert res.u[0] == pytest.approx(HIGH, abs=1e-8)
    assert res.V_L[0] == pytest.approx(HIGH, abs=1e-8)  # E = 1 here
    assert res.residual < 1e-10
    assert res.trace[-1] < 1e-10


def test_zero_load_converges_in_one_step():
    red = reduce_case(make_two_bus())
    res = solve_fixed_point(red, np.array([0j]))
    assert res.converged
    assert res.iterations == 1
    assert res.u[0] == 1.0


def test_infeasible_load_is_structured_nonconvergence():
    red = reduce_case(make_two_bus())
    res = solve_fixed_point(red, np.array([10.0 + 0j]), max_iter=300)
    assert not res.converged
    assert res.note is not None
    assert len(res.trace) == res.iterations
    assert res.residual > 1e-6


def test_containment_in_certified_polydisc():
    red = reduce_case(make_star())
    S = np.array([1 + 0.3j, 0.8 + 0.2j, 0.5 + 0.1j])
    m = compute_stress(red.Ztilde, S)
    cert = certify(m)
    assert cert.holds
    res = solve_fixed_point(red, S, certificate=cert)
    assert np.all(np.abs(res.u - cert.disc_centers) <= cert.disc_radii + 1e-8)


def test_start_with_zero_entry_rejected():
    red = reduce_case(make_two_bus())
    with pytest.raises(ValueError, match="zero entries"):
        solve_fixed_point(red, np.array([1 + 0j]), start=np.array([0j]))


def test_agrees_with_newton():
    case = make_star()
    red = reduce_case(case)
    S = np.array([1 + 0.3j, 0.8 + 0.2j, 0.5 + 0.1j])
    fp = solve_fixed_point(red, S, tol=1e-12)
    nt = newton_solve(red, S, tol=1e-10)
    assert fp.converged and nt.converged
    assert np.abs(fp.V_L - nt.V_L).max() < 1e-6


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_tol_must_be_positive_and_finite(tol):
    red = reduce_case(make_two_bus())
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        solve_fixed_point(red, np.array([2.5 + 0j]), tol=tol)


def assert_same_solve(res, ref):
    """Equal in every field: the floats by their bits, the arrays by np.array_equal."""
    assert [x.hex() for x in res.trace] == [x.hex() for x in ref.trace]
    assert res.residual.hex() == ref.residual.hex()
    assert (res.iterations, res.converged, res.note) == (ref.iterations, ref.converged, ref.note)
    assert np.array_equal(res.u, ref.u) and np.array_equal(res.V_L, ref.V_L)


@pytest.mark.parametrize("name", BUNDLED)
def test_solve_matches_the_reference_loop_on_bundled_cases(name):
    red, S0 = prepare(load_case_file(case_path(f"{name}.m")))
    base = solve_fixed_point(red, S0, tol=1e-12)
    assert base.converged
    known = renormalize_about_solution(red, base.u, S0)
    assert known.S0.any()
    for r, direction, offset in ((red, S0, 0.0), (known, S0, S0)):
        lam = lambda_all(r, direction).lambda_p
        for fraction in (0.25, 0.5, 0.95):
            S = offset + fraction * lam * direction
            res = solve_fixed_point(r, S)
            assert res.converged
            assert_same_solve(res, reference_fixed_point(r, S))


def test_solve_matches_the_reference_loop_at_every_iterate():
    """The rate checks read u^k as the solve stopped by max_iter=k."""
    red, S = prepare(load_case_file(case_path("case39.m")))
    S = 0.9 * lambda_all(red, S).lambda_p * S
    start = np.full(red.n_load, 0.9 + 0.1j)
    res = solve_fixed_point(red, S, start=start)
    assert res.converged
    for k in range(res.iterations + 1):
        assert_same_solve(solve_fixed_point(red, S, start=start, max_iter=k),
                          reference_fixed_point(red, S, start=start, max_iter=k))
    assert_same_solve(res, reference_fixed_point(red, S, start=start))


def test_solve_matches_the_reference_loop_on_its_failure_paths():
    red = reduce_case(make_two_bus())
    for S, max_iter, note in (
        (np.array([2.5 + 0j]), 3, "no convergence within 3 iterations"),
        (np.array([10.0 + 0j]), 300, "diverged: iterate magnitude fell below the inversion cutoff"),
    ):
        res = solve_fixed_point(red, S, max_iter=max_iter)
        assert res.note == note
        assert_same_solve(res, reference_fixed_point(red, S, max_iter=max_iter))


def test_known_solution_recentering_solves_increment():
    red = reduce_case(make_two_bus())
    S0 = np.array([1.0 + 0j])
    base = solve_fixed_point(red, S0, tol=1e-12)
    red2 = renormalize_about_solution(red, base.u, S0)
    sigma = np.array([0.8 + 0j])
    total = S0 + sigma
    res = solve_fixed_point(red2, total, tol=1e-12)
    assert res.converged
    direct = two_bus_analytic(1.8, 0.0, 0.1)[0]
    assert res.V_L[0] == pytest.approx(direct, abs=1e-9)


@pytest.mark.parametrize("name", BUNDLED)
def test_recentered_solve_matches_newton_on_bundled_cases(name):
    # re-centered on the Newton base point, 1.2x the base load is the increment 0.2 S
    case = load_case_file(case_path(f"{name}.m"))
    red, S0 = prepare(case)
    base = newton_solve(red, S0)
    assert base.converged
    red2 = renormalize_about_solution(red, base.V_L / red.E, S0)
    S = 1.2 * S0
    cert = certify(compute_stress(red2.Ztilde, S, S - red2.S0))
    assert cert.holds
    res = solve_fixed_point(red2, S, certificate=cert)  # checks the polydisc containment
    assert res.converged
    nt = newton_solve(red, S)
    assert nt.converged
    assert np.abs(res.V_L - nt.V_L).max() < 1e-8


def test_rate_bound_two_bus():
    red = reduce_case(make_two_bus())
    S = np.array([2.5 + 0j])
    m = compute_stress(red.Ztilde, S)
    cert = certify(m)
    assert check_convergence_rate(cert, red, S)


def test_rate_bound_zero_load_vacuous():
    red = reduce_case(make_two_bus())
    S = np.array([0j])
    m = compute_stress(red.Ztilde, S)
    cert = certify(m)
    assert check_convergence_rate(cert, red, S)


def test_rate_check_requires_a_holding_certificate():
    red = reduce_case(make_two_bus())
    S = np.array([5.0 + 0j])
    cert = certify(compute_stress(red.Ztilde, S))
    assert not cert.holds
    with pytest.raises(ValueError, match="holding certificate"):
        check_convergence_rate(cert, red, S)


def test_geometric_decay_of_recorded_errors():
    red = reduce_case(make_two_bus())
    S = np.array([2.5 + 0j])
    m = compute_stress(red.Ztilde, S)
    cert = certify(m)
    ref = solve_fixed_point(red, S, tol=1e-13, max_iter=5000)
    errors = [np.abs(u - ref.u).max() for u in fixed_point_iterates(red, S)]
    mu = cert.mu_bound
    rho = 2 * mu / (1 + mu**2)
    C = cert.radii.r_hi * m.xi_max * (1 + mu)
    for n, err in enumerate(errors):
        assert err <= C * rho ** (n / 2)
