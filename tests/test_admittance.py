"""Admittance assembly, reduction, and renormalization about a known solution."""

import numpy as np
import pytest

from pfcert.admittance import (
    NotASolutionError,
    SingularNetworkError,
    build_admittance,
    fixed_point_residual,
    reduce_case,
    reduce_network,
    renormalize_about_solution,
)
from pfcert.net_model import (
    BranchRecord,
    CaseError,
    NetworkCase,
    generator_phasors,
)
from pfcert.oracle import actual_limit, newton_solve

from conftest import case_path, make_star, make_two_bus, make_weak_tie_star
from reference_values import two_bus_analytic


def test_two_bus_matrix():
    Y = build_admittance(make_two_bus())
    expected = np.array([[-10j, 10j], [10j, -10j]])
    assert np.allclose(Y.matrix.toarray(), expected, atol=1e-12)


def test_line_charging_shifts_diagonal():
    case = make_two_bus()
    branches = [BranchRecord(1, 2, 0.1j, 0.2)]
    case = NetworkCase(case.base_mva, case.buses, tuple(branches), case.gens, case.slack_bus)
    Y = build_admittance(case)
    assert np.allclose(np.diag(Y.matrix.toarray()), [-9.9j, -9.9j], atol=1e-12)
    assert np.allclose(Y.matrix.toarray()[0, 1], 10j, atol=1e-12)


def test_zero_impedance_branch_rejected_at_assembly():
    # constructed directly so the check in build_admittance itself is exercised
    case = make_two_bus()
    bad = NetworkCase(
        case.base_mva,
        case.buses,
        (BranchRecord(1, 2, 0j, 0.0),),
        case.gens,
        case.slack_bus,
    )
    with pytest.raises(CaseError, match="zero series impedance"):
        build_admittance(bad)


def test_tap_and_shift_stamps():
    case = make_two_bus()
    tap, shift = 1.05, 0.05
    branch = BranchRecord(1, 2, 0.1j, 0.0, tap_ratio=tap, phase_shift=shift)
    Y = build_admittance(
        NetworkCase(case.base_mva, case.buses, (branch,), case.gens, case.slack_bus)
    ).matrix.toarray()
    ys = 1 / 0.1j
    t = tap * np.exp(1j * shift)
    assert Y[0, 0] == pytest.approx(ys / tap**2)
    assert Y[0, 1] == pytest.approx(-ys / np.conj(t))
    assert Y[1, 0] == pytest.approx(-ys / t)
    assert Y[1, 1] == pytest.approx(ys)


def test_row_sums_vanish_without_shunts():
    case = make_star(loads=((1.0, 0.2), (0.4, 0.1), (0.3, 0.0), (0.2, 0.05)))
    Y = build_admittance(case).matrix.toarray()
    assert np.abs(Y.sum(axis=1)).max() < 1e-12


def test_reduce_two_bus():
    red = reduce_case(make_two_bus())
    assert np.allclose(red.E, [1.0 + 0j], atol=1e-12)
    assert np.allclose(red.Z, [[0.1j]], atol=1e-12)
    assert np.allclose(red.Zhat, [[0.1j]], atol=1e-12)
    assert np.allclose(red.Ztilde, red.Zhat)
    assert np.all(red.v0 == 1)
    assert np.all(red.S0 == 0)


def test_reduce_two_bus_with_high_setpoint():
    red = reduce_case(make_two_bus(vg=1.05))
    assert np.allclose(red.E, [1.05 + 0j], atol=1e-12)
    assert np.allclose(red.Zhat, [[0.1j / 1.05**2]], atol=1e-9)
    assert abs(red.Zhat[0, 0] - 0.0907029478j) < 1e-9


def test_isolated_load_is_singular():
    case = make_two_bus(branch_in_service=False)
    Y = build_admittance(case)
    with pytest.raises(SingularNetworkError):
        reduce_network(Y, generator_phasors(case, Y.bus_order[: Y.n_gen]))


def test_normalization_identity():
    red = reduce_case(make_star())
    n = red.n_load
    recovered = np.diag(red.E) @ red.Zhat @ np.diag(red.E.conj())
    assert np.abs(red.Y_LL @ recovered - np.eye(n)).max() < 1e-9


def test_factorization_residual():
    red = reduce_case(case_path_case("case9.m"))
    n = red.n_load
    assert np.abs(red.Y_LL @ red.Z - np.eye(n)).max() < 1e-10


def case_path_case(name):
    from pfcert.net_model import load_case_file

    return load_case_file(case_path(name))


def test_E_is_zero_load_solution():
    red = reduce_case(make_star())
    m = len(red.generator_ids)
    assert np.abs(red.Y_LL @ red.E + red.Y[m:, :m] @ red.V_G).max() < 1e-10
    assert fixed_point_residual(red, np.ones(red.n_load), np.zeros(red.n_load)) < 1e-10


def test_renormalize_identity():
    red = reduce_case(make_two_bus())
    same = renormalize_about_solution(red, np.ones(1), np.zeros(1))
    assert np.allclose(same.Ztilde, red.Zhat)


def test_renormalize_about_analytic_solution():
    red = reduce_case(make_two_bus())
    v0 = np.array([two_bus_analytic(2.5, 0.0, 0.1)[0]])
    S0 = np.array([2.5 + 0j])
    assert fixed_point_residual(red, v0, S0) < 1e-9
    red2 = renormalize_about_solution(red, v0, S0)
    expected = 0.1j / (v0[0] * np.conj(v0[0]))
    assert red2.Ztilde[0, 0] == pytest.approx(expected, abs=1e-12)
    assert np.all(red2.S0 == S0)


def test_renormalize_rejects_non_solution():
    red = reduce_case(make_two_bus())
    with pytest.raises(NotASolutionError):
        renormalize_about_solution(red, np.ones(1), np.array([2.5 + 0j]))


def dense_formed(red):
    """Whether red holds an n x n matrix, as a field or in the cache its copies share."""
    n = red.n_load
    held = list(vars(red).values()) + list(getattr(red, "_shared", {}).values())
    return any(isinstance(v, np.ndarray) and v.shape == (n, n) for v in held)


def test_oracle_alone_never_forms_the_dense_impedance():
    case = case_path_case("case39.m")
    red = reduce_case(case)
    assert newton_solve(case, network=red).converged
    assert actual_limit(case, bracket=(1e-3, None), network=red) > 1.0
    assert not dense_formed(red)
    red.Ztilde
    assert dense_formed(red)


def test_recentered_copy_shares_zhat_with_its_base():
    case = case_path_case("case39.m")
    red = reduce_case(case)
    S = np.array([case.bus(i).demand for i in red.load_ids])
    res = newton_solve(case, S, network=red)
    red2 = renormalize_about_solution(red, res.V_L / red.E, S)
    assert red2.Zhat is red.Zhat
    assert red2.kernel is red.kernel
    assert red.Ztilde is red.Zhat and red2.Ztilde is not red.Zhat
    assert np.array_equal(red2.Ztilde, red.Zhat / np.outer(red2.v0, red2.v0.conj()))


def test_weak_tie_fails_the_residual_check_but_not_the_oracle():
    """A load pair tied to the generator by x = 1e14 makes Y_LL Z - I reach 0.125,
    which the certificate path refuses; the oracle's load at bus 4 sees only its
    own feeder, whose nose is the two-bus one."""
    case = make_weak_tie_star()
    red = reduce_case(case)
    with pytest.raises(SingularNetworkError, match="residual 1.250e-01"):
        red.Zhat
    lam = actual_limit(case, bracket=(1e-3, None), network=red)
    assert lam == pytest.approx(8.19803903, abs=1e-8)
    nose = (abs(0.5 + 0.1j) - 0.1) / (2 * 0.1 * 0.5**2)  # (|S| - q) / (2 x p^2), the two-bus nose
    assert nose - 1e-10 <= lam <= nose
