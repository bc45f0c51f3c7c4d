"""Admittance assembly, reduction, and renormalization about a known solution."""

from dataclasses import replace

import numpy as np
import pytest

from pfcert.admittance import (
    AdmittanceMatrix,
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
    build_case,
    generator_phasors,
    load_power_vector,
)
from pfcert.certificate import certify_all
from pfcert.fixed_point import solve_fixed_point
from pfcert.limits import lambda_all, prepare
from pfcert.oracle import actual_limit, newton_solve

from conftest import BUNDLED, case_path, make_star, make_two_bus, make_weak_tie_star
from reference_values import reference_admittance, two_bus_analytic


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
    assert np.allclose(red.Ztilde, [[0.1j]], atol=1e-12)  # Z itself, as E = 1
    assert np.all(red.v0 == 1)
    assert np.all(red.S0 == 0)


def test_reduce_two_bus_with_high_setpoint():
    red = reduce_case(make_two_bus(vg=1.05))
    assert np.allclose(red.E, [1.05 + 0j], atol=1e-12)
    assert np.allclose(red.Ztilde, [[0.1j / 1.05**2]], atol=1e-9)
    assert abs(red.Ztilde[0, 0] - 0.0907029478j) < 1e-9


@pytest.mark.parametrize("name", BUNDLED + ("no branch",))
def test_admittance_matches_the_scipy_build(name):
    """build_admittance sorts and sums its stamps with numpy. Against scipy.sparse's
    COO-to-CSC build of the same stamps, indices and indptr are equal, dtype and bytes,
    and so is every value, bit for bit, except in a column with more than 16 stamps: there
    scipy sums in another order (see reference_admittance), and a value may differ by one
    ulp (case118's generator bus 49, 24 stamps). "no branch" is the two-bus case with its
    branch out of service: no stamp at all. The reduction reads Y_LL out of Y's CSC arrays
    and E out of the whole product Y [V_G, 0]; both equal scipy's slices of Y bit for bit."""
    case = make_two_bus(branch_in_service=False) if name == "no branch" else case_path_case(f"{name}.m")
    Y = build_admittance(case)
    ref, stamps = reference_admittance(case)
    got = Y.matrix
    for a, b in ((got.indices, ref.indices), (got.indptr, ref.indptr)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    col = np.repeat(np.arange(got.shape[1]), np.diff(got.indptr))
    same = got.data.view(np.uint64).reshape(-1, 2) == ref.data.view(np.uint64).reshape(-1, 2)
    crowded = stamps[col] > 16
    assert same[~crowded].all()
    for part in ("real", "imag"):
        a, b = getattr(got.data[crowded], part), getattr(ref.data[crowded], part)
        assert (np.abs(a - b) <= np.spacing(np.abs(b))).all()
    assert (stamps > 16).sum() == (name == "case118")
    if name == "no branch":
        assert got.nnz == 0
        return
    m = Y.n_gen
    red = reduce_case(case)
    Y_LL = got[m:, m:].tocsc()
    for a, b in ((red.Y_LL.data, Y_LL.data), (red.Y_LL.indices, Y_LL.indices), (red.Y_LL.indptr, Y_LL.indptr)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    E = red.lu.solve(-(got[m:, :m] @ red.V_G))
    assert red.E.tobytes() == E.tobytes()


def test_isolated_load_is_singular():
    case = make_two_bus(branch_in_service=False)
    Y = build_admittance(case)
    with pytest.raises(SingularNetworkError):
        reduce_network(Y, generator_phasors(case, Y.bus_order[: Y.n_gen]))


@pytest.mark.parametrize("edit, message", [
    (lambda Y, V_G: (AdmittanceMatrix(Y.matrix[:1, :1], Y.bus_order[:1], 1), V_G), "at least one load bus"),
    (lambda Y, V_G: (Y, np.r_[V_G, V_G]), r"^V_G has shape \(2,\), expected \(1,\)$"),
    (lambda Y, V_G: (Y, 0 * V_G), "^V_G entries must be nonzero$"),
], ids=["no load bus", "V_G of the wrong length", "zero V_G entry"])
def test_reduce_network_rejects_malformed_input(edit, message):
    case = make_two_bus()
    Y = build_admittance(case)
    with pytest.raises(CaseError, match=message):
        reduce_network(*edit(Y, generator_phasors(case, Y.bus_order[: Y.n_gen])))


def test_reduce_case_rejects_an_unknown_gen_phasors_mode():
    with pytest.raises(CaseError, match="unknown gen_phasors mode 'bogus'"):
        reduce_case(make_two_bus(), "bogus")


def test_shunted_island_has_no_equivalent_voltage():
    """A load bus cut off from every generator but held to ground by a shunt leaves Y_LL
    nonsingular; its equivalent voltage E is zero, and the reduction refuses it."""
    case = make_star()
    buses = [*case.buses[:-1], replace(case.buses[-1], shunt=10j)]
    branches = [*case.branches[:-1], replace(case.branches[-1], in_service=False)]
    with pytest.raises(SingularNetworkError, match="equivalent voltage E has non-finite or"):
        reduce_case(build_case(case.base_mva, buses, branches, list(case.gens)))


def test_normalization_identity():
    red = reduce_case(make_star())
    n = red.n_load
    recovered = np.diag(red.E) @ red.Ztilde @ np.diag(red.E.conj())
    assert np.abs(red.Y_LL @ recovered - np.eye(n)).max() < 1e-9


def test_factorization_residual():
    red = reduce_case(case_path_case("case9.m"))
    n = red.n_load
    assert np.abs(red.Y_LL @ red.lu.solve(np.eye(n, dtype=complex)) - np.eye(n)).max() < 1e-10


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
    assert np.array_equal(same.Ztilde, red.Ztilde)


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
    assert fixed_point_residual(red, np.ones(1), np.array([2.5 + 0j])) == pytest.approx(0.25)  # |0.1j * 2.5|
    with pytest.raises(NotASolutionError, match="residual 2.500e-01"):
        renormalize_about_solution(red, np.ones(1), np.array([2.5 + 0j]))
    with pytest.raises(NotASolutionError, match="v0 has zero entries"):
        renormalize_about_solution(red, np.zeros(1), np.array([2.5 + 0j]))


def dense_formed(red) -> int:
    """How many n x n matrices red holds, as attributes or in a dict it holds."""
    n = red.n_load
    held = list(vars(red).values())
    held += [v for d in held if isinstance(d, dict) for v in d.values()]
    return sum(isinstance(v, np.ndarray) and v.shape == (n, n) for v in held)


def test_oracle_alone_never_forms_the_dense_impedance():
    """Nor does re-centering: its residual check is one solve. The certificate path
    then forms the copy's Ztilde, its one dense matrix."""
    case = case_path_case("case39.m")
    red = reduce_case(case)
    res = newton_solve(red, load_power_vector(case, red.load_ids))
    assert res.converged
    assert actual_limit(case, load_power_vector(case, red.load_ids), bracket=(1e-3, None), network=red) > 1.0
    assert not dense_formed(red)
    S = np.array([case.bus(i).demand for i in red.load_ids])
    red2 = renormalize_about_solution(red, res.V_L / red.E, S)
    again = newton_solve(red2, S)  # the same equations: bit for bit the base reduction's solve
    assert (again.V_L.tobytes(), again.iterations, again.mismatch_norm) == (
        res.V_L.tobytes(), res.iterations, res.mismatch_norm)
    assert actual_limit(case, direction=S, network=red2) > 1.0
    assert not dense_formed(red) and not dense_formed(red2)
    certify_all(red2, 1.2 * S)
    assert (dense_formed(red), dense_formed(red2)) == (0, 1)


def test_recentered_ztilde_divides_the_base_ztilde_by_v0():
    """The copy forms its own Ztilde, bit for bit the base Ztilde over v0 v0*, and takes the
    kernel that the base built for the solve."""
    case = case_path_case("case39.m")
    red = reduce_case(case)
    S = np.array([case.bus(i).demand for i in red.load_ids])
    res = newton_solve(red, S)
    red2 = renormalize_about_solution(red, res.V_L / red.E, S)
    assert red2.lu is red.lu and red2.kernel is red.kernel
    expected = red.Ztilde / np.outer(red2.v0, red2.v0.conj())
    assert red2.Ztilde.tobytes() == expected.tobytes()


@pytest.mark.parametrize("name", BUNDLED)
def test_ztilde_is_c_ordered(name):
    """lu.solve's Z is Fortran-ordered, and BLAS rounds products with a Fortran-ordered
    Ztilde differently, so the stress measures (and the goldens) depend on Ztilde being
    a C-ordered array, on a base reduction and on a re-centred copy alike."""
    red, S = prepare(case_path_case(f"{name}.m"))
    red2 = renormalize_about_solution(red, newton_solve(red, S).V_L / red.scale, S)
    for Z in (red.Ztilde, red2.Ztilde):
        assert Z.flags.c_contiguous and not Z.flags.f_contiguous


def test_scale_is_e_times_v0_bit_for_bit():
    """red.scale is the vector product the fixed point and the voltage bounds each formed
    before; on a base reduction (v0 = 1) it is E itself, so the CLI's res.V_L / red.scale
    is the old res.V_L / red.E."""
    for name in BUNDLED:
        red, S = prepare(case_path_case(f"{name}.m"))
        assert red.scale.tobytes() == (red.E * red.v0).tobytes() == red.E.tobytes()
        red2 = renormalize_about_solution(red, newton_solve(red, S).V_L / red.scale, S)
        assert red2.scale.tobytes() == (red2.E * red2.v0).tobytes()


@pytest.mark.parametrize("name", BUNDLED)
def test_factored_residual_matches_the_dense_map(name):
    """fixed_point_residual's one solve against one dense step of F, at the fixed
    points of 0.5, 0.9 and 0.99 lambda_p from zero load."""
    red, S = prepare(case_path_case(f"{name}.m"))
    lam = lambda_all(red, S).lambda_p
    for s in (0.5, 0.9, 0.99):
        res = solve_fixed_point(red, s * lam * S)
        assert res.converged
        dense = np.abs(res.u - solve_fixed_point(red, s * lam * S, start=res.u, max_iter=1).u).max()
        assert abs(fixed_point_residual(red, res.u, s * lam * S) - dense) <= 1e-14


def test_weak_tie_fails_the_residual_check_but_not_the_oracle():
    """A load pair tied to the generator by x = 1e14 makes Y_LL Z - I reach 0.125,
    which the certificate path refuses; the oracle's load at bus 4 sees only its
    own feeder, whose nose is the two-bus one."""
    case = make_weak_tie_star()
    red = reduce_case(case)
    with pytest.raises(SingularNetworkError, match="residual 1.250e-01"):
        red.Ztilde
    lam = actual_limit(case, load_power_vector(case, red.load_ids), bracket=(1e-3, None), network=red)
    assert lam == pytest.approx(8.19803903, abs=1e-8)
    nose = (abs(0.5 + 0.1j) - 0.1) / (2 * 0.1 * 0.5**2)  # (|S| - q) / (2 x p^2), the two-bus nose
    assert nose - 1e-10 <= lam <= nose
