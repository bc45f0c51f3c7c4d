"""Limit estimation, dominance, sweeps, and bound profiles on desk-scale cases."""

import math
import os
from dataclasses import replace
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pfcert
from pfcert.admittance import reduce_case, renormalize_about_solution
from pfcert.certificate import certify, certify_dvijotham, certify_wang
from pfcert.fixed_point import solve_fixed_point
from pfcert import limits
from pfcert.limits import (
    _line_limits,
    bound_profile,
    default_sweep_buses,
    direction_sweep,
    lambda_all,
    prepare,
)
from pfcert.net_model import CaseError, load_case_file
from pfcert.oracle import actual_limit, newton_solve
from pfcert.stress import compute_stress, first_positive_roots

from conftest import BUNDLED, case_path, make_star, make_two_bus, random_loads


def two_bus_setup(p=1.0):
    case = make_two_bus(p=p)
    red, S = prepare(case)
    return case, red, S


def test_two_bus_closed_forms():
    _, red, S = two_bus_setup()
    est = lambda_all(red, S)
    assert est.lambda_w == pytest.approx(2.5, rel=1e-12)
    assert est.lambda_d == pytest.approx(2.5, rel=1e-12)
    assert est.lambda_p == pytest.approx(5.0, abs=1e-9)
    assert est.critical_bus == 2
    assert est.mode == "from_zero"


def test_zero_load_limits_are_unbounded():
    _, red, S = two_bus_setup()
    zero = _line_limits(red, "from_zero", compute_stress(red.Ztilde, np.zeros(1, dtype=complex)))
    assert math.isinf(zero.lambda_w)
    assert math.isinf(zero.lambda_d)
    with pytest.raises(CaseError, match="identically zero"):
        lambda_all(red, np.zeros(1, dtype=complex))


def test_pure_reactive_injection_never_binds():
    # a purely capacitive load behind a reactance raises voltage; every scaling
    # stays certified and the true problem is solvable for all scalings too
    _, red, _ = two_bus_setup()
    S = np.array([-3j])
    est = lambda_all(red, S)
    assert math.isinf(est.lambda_p)


def test_proposed_limit_matches_certificate_boundary():
    case = make_star(loads=((1.0, 0.4), (0.6, 0.1), (0.2, 0.3)))
    red, S = prepare(case)
    est = lambda_all(red, S)
    eps = 1e-6 * est.lambda_p
    below = certify(compute_stress(red.Ztilde, (est.lambda_p - eps) * S))
    above = certify(compute_stress(red.Ztilde, (est.lambda_p + eps) * S))
    assert below.holds and not above.holds


def test_baseline_limits_match_their_boundaries():
    case = make_star(loads=((1.0, 0.4), (0.6, 0.1), (0.2, 0.3)))
    red, S = prepare(case)
    est = lambda_all(red, S)
    lam_w, lam_d = est.lambda_w, est.lambda_d
    zero = compute_stress(red.Ztilde, np.zeros_like(S))
    eps = 1e-9
    assert certify_wang(zero, compute_stress(red.Ztilde, (lam_w - eps) * S)).holds
    assert not certify_wang(zero, compute_stress(red.Ztilde, (lam_w + eps) * S)).holds
    assert certify_dvijotham(compute_stress(red.Ztilde, lam_d * S)).holds
    assert not certify_dvijotham(compute_stress(red.Ztilde, (lam_d + 1e-6) * S)).holds


def test_dominance_and_ordering(rng):
    case = make_star(loads=((1.0, 0.4), (0.6, 0.1), (0.2, 0.3)))
    red, _ = prepare(case)
    for _ in range(50):
        S = random_loads(rng, 3)
        est = lambda_all(red, S)
        assert est.lambda_p >= est.lambda_w - 1e-9
        assert est.lambda_p >= est.lambda_d - 1e-9
        assert est.lambda_d >= est.lambda_w - 1e-12


def test_known_solution_with_zero_base_equals_from_zero():
    _, red, S = two_bus_setup()
    from_zero = lambda_all(red, S)
    known = lambda_all(renormalize_about_solution(red, np.ones(1, dtype=complex), np.zeros(1, dtype=complex)), S)
    assert known.mode == "from_zero"
    assert known.lambda_p == pytest.approx(from_zero.lambda_p, rel=1e-12)
    assert known.lambda_w == pytest.approx(from_zero.lambda_w, rel=1e-12)
    assert known.lambda_d == pytest.approx(from_zero.lambda_d, rel=1e-12)


def known_solution_setup(p=1.0):
    case, red, S = two_bus_setup(p)
    sol = solve_fixed_point(red, S, tol=1e-12)
    assert sol.converged
    return case, red, S, sol.u


def test_known_solution_limits_match_certificate_boundary():
    _, red, S, v0 = known_solution_setup()
    est = lambda_all(renormalize_about_solution(red, v0, S), S)
    assert est.mode == "from_known_solution"
    red2 = renormalize_about_solution(red, v0, S)
    lam = est.lambda_p
    for offset, expect in ((-1e-6, True), (1e-6, False)):
        m = compute_stress(red2.Ztilde, (1 + lam + offset) * S, (lam + offset) * S)
        assert (m.stress_level < 1 and m.stress_spread <= 1) is expect


def test_known_solution_exceeds_from_zero_total_scaling():
    # re-centering on the solved base point certifies at least as much total load
    _, red, S, v0 = known_solution_setup()
    from_zero = lambda_all(red, S)
    known = lambda_all(renormalize_about_solution(red, v0, S), S)
    assert 1 + known.lambda_p >= from_zero.lambda_p - 1e-9


def test_known_solution_direction_scaling_consistency():
    # asking for increments along 2 S must halve the certified lambda exactly
    _, red, S, v0 = known_solution_setup()
    est1 = lambda_all(renormalize_about_solution(red, v0, S), S)
    est2 = lambda_all(renormalize_about_solution(red, v0, S), 2 * S)
    assert est2.lambda_p == pytest.approx(est1.lambda_p / 2, rel=1e-12)
    assert est2.lambda_w == pytest.approx(est1.lambda_w / 2, rel=1e-12)
    assert est2.lambda_d == pytest.approx(est1.lambda_d / 2, rel=1e-12)


def make_triangle():
    """Meshed case (certificate strictly conservative, unlike independent feeders)."""
    from pfcert.net_model import BranchRecord, BusRecord, GenRecord, build_case

    def bus(i, p=0.0, q=0.0):
        return BusRecord(i, complex(p, q), 0j, 1.0, 0.0)

    return build_case(
        100.0,
        [bus(1), bus(2, 1.0, 0.3), bus(3, 0.8, 0.2)],
        [
            BranchRecord(1, 2, 0.01 + 0.1j, 0.0),
            BranchRecord(1, 3, 0.02 + 0.15j, 0.0),
            BranchRecord(2, 3, 0.01 + 0.12j, 0.0),
        ],
        [GenRecord(bus=1, voltage_setpoint=1.0)],
        slack_bus=1,
    )


def test_oracle_limit_never_below_certificate():
    case = make_triangle()
    red, S = prepare(case)
    est = lambda_all(red, S)
    actual = actual_limit(case, direction=S, bracket=(1e-2, None))
    assert actual >= est.lambda_p - 1e-6
    assert actual > est.lambda_p  # meshed coupling leaves a real margin


def test_sweep_dominance_on_star():
    case = make_star()
    pairs = [(2 * math.pi * k / 8,) * 2 for k in range(8)]
    _, directions, estimates = direction_sweep(*prepare(case), 2, 3, pairs)
    assert len(directions) == len(estimates) == 8
    for est in estimates:
        assert est.lambda_p >= est.lambda_w - 1e-9


def test_sweep_single_point_consistency():
    case = make_star(loads=((1.0, 0.0), (1.0, 0.0), (1.0, 0.5)))
    red, S = prepare(case)
    magnitude, directions, estimates = direction_sweep(red, S, 2, 3, [(0.0, 0.0)])
    S_mod = S.copy()
    S_mod[0] = magnitude
    S_mod[1] = magnitude
    np.testing.assert_array_equal(directions[0], S_mod)
    direct = lambda_all(red, S_mod)
    assert estimates[0].lambda_p == pytest.approx(direct.lambda_p, rel=1e-12)


def test_sweep_rescaling_matches_rest_norm():
    case = make_star(loads=((1.0, 0.0), (1.0, 0.0), (1.0, 0.5)))
    magnitude, _, _ = direction_sweep(*prepare(case), 2, 3, [(0.0, 0.0)])
    rest = abs(complex(1.0, 0.5))
    assert math.sqrt(2) * magnitude == pytest.approx(rest)


def test_case118_sweep_oracle_reaches_lambda_p():
    """Between 20 and 130 degrees bus 2's own nose binds on case118, so lambda_p is
    exact there. The default oracle tolerance keeps lambda_actual within 1e-9 of
    it at every one of 36 angles (measured gap <= 8e-11); tol = 1e-4 left it up
    to 9.3e-5 below lambda_p at 12 of them."""
    case = load_case_file(case_path("case118.m"))
    red, S = prepare(case)
    pairs = [(2 * math.pi * k / 36,) * 2 for k in range(36)]
    _, directions, estimates = direction_sweep(red, S, *default_sweep_buses(red, S), pairs)
    for d, est in zip(directions, estimates):
        assert actual_limit(case, direction=d, network=red) >= est.lambda_p - 1e-9


def test_sweep_validation():
    case = make_star()
    with pytest.raises(CaseError, match="differ"):
        direction_sweep(*prepare(case), 2, 2, [(0.0, 0.0)])
    with pytest.raises(CaseError, match="load bus") as exc:
        direction_sweep(*prepare(case), 1, 2, [(0.0, 0.0)])
    assert str(exc.value) == "bus 1 is not a load bus"
    with pytest.raises(CaseError, match=r"^bus 7 is not a load bus$"):
        direction_sweep(*prepare(case), 2, 7, [(0.0, 0.0)])
    red, S = prepare(case)
    with pytest.raises(CaseError, match="^all candidate loads are zero; nothing to sweep$"):
        direction_sweep(red, 0 * S, 2, 3, [(0.0, 0.0)])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", ["nan", "inf", "short"])
def test_direction_sweep_rejects_a_malformed_base_load(bad):
    """On case9 with buses 8 and 9 a short base load used to raise numpy's IndexError, and an
    inf or NaN entry a RuntimeWarning or a CaseError about the direction; S_base is checked first."""
    red, S = prepare(load_case_file(case_path("case9.m")))
    if bad == "short":
        S, message = S[:-1], r"^S_base has shape \(5,\), expected \(6,\): one entry per load bus$"
    else:
        S, message = S.copy(), "^S_base has a non-finite entry$"
        S[1] = float(bad)
    with pytest.raises(CaseError, match=message):
        direction_sweep(red, S, 8, 9, [(0.0, 0.0), (math.pi / 2, math.pi)])


def test_default_sweep_buses_requires_two_active_loads():
    case = make_star(loads=((1.0, 0.2), (0.0, 0.4), (0.0, 0.0)))
    with pytest.raises(CaseError, match="at least two"):
        default_sweep_buses(*prepare(case))
    assert default_sweep_buses(*prepare(make_star())) == (2, 3)


def test_bound_profile_zero_load_equals_equivalent_voltage():
    case = make_two_bus(p=1.0)
    red, S = prepare(case)
    assert bound_profile(red, S, 2, [0.0]) == [pytest.approx((abs(red.E[0]),) * 3)]


def test_bound_profile_at_a_generator_bus_is_a_case_error():
    with pytest.raises(CaseError, match="^bus 1 is not a load bus$"):
        bound_profile(*prepare(make_two_bus(p=1.0)), 1, [1.0])


def test_bound_profile_about_a_known_solution_starts_at_it():
    """Re-centered on the solved base point, the zero-increment certificate at
    lambda = 1 is the single point v0, so the proposed bound is |V0| itself."""
    case = load_case_file(case_path("case9.m"))
    red, S = prepare(case)
    res = newton_solve(red, S)
    recentered = renormalize_about_solution(red, res.V_L / red.E, S)
    proposed, _, _ = bound_profile(recentered, S, 4, [1.0])[0]
    assert proposed == pytest.approx(abs(res.V_L[red.load_index(4)]), abs=1e-12)


def test_bound_profile_absence_pattern():
    """Limits of the two-bus load: wang/dvijotham at 2.5, proposed 5 (the oracle's
    half, actual 5, is tests/test_cli.py::test_bounds_with_oracle_absence_pattern)."""
    grid = [1.0, 2.0, 3.0, 4.5, 5.5]
    bounds = bound_profile(*prepare(make_two_bus(p=1.0)), 2, grid)
    proposed, wang, dvijotham = (dict(zip(grid, column)) for column in zip(*bounds))
    assert wang[2.0] is not None and wang[3.0] is None
    assert dvijotham[2.0] is not None and dvijotham[3.0] is None
    assert proposed[4.5] is not None and proposed[5.5] is None


@pytest.mark.parametrize("name", BUNDLED)
def test_known_solution_dvijotham_limit_closes_its_condition(name):
    case = load_case_file(case_path(f"{name}.m"))
    red, S = prepare(case)
    res = newton_solve(red, S)
    assert res.converged
    v0 = res.V_L / red.E
    lam = lambda_all(renormalize_about_solution(red, v0, S), S).lambda_d
    m0 = compute_stress(renormalize_about_solution(red, v0, S).Ztilde, S, S)
    gap = math.sqrt((1.0 + lam) * m0.xi_max) + math.sqrt(lam * m0.eta_max) - 1.0
    assert 0.0 < lam < math.inf
    assert abs(gap) < 1e-12


def test_known_solution_limits_leave_scipy_optimize_out():
    code = (
        "import sys\n"
        "from pfcert.admittance import renormalize_about_solution\n"
        "from pfcert.limits import lambda_all, prepare\n"
        "from pfcert.net_model import load_case_file\n"
        "from pfcert.oracle import newton_solve\n"
        f"case = load_case_file({str(case_path('case39.m'))!r})\n"
        "red, S = prepare(case)\n"
        "res = newton_solve(red, S)\n"
        "lambda_all(renormalize_about_solution(red, res.V_L / red.E, S), S)\n"
        "print('scipy.optimize' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(pfcert.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def assert_closes(holds, lam):
    """The condition holds just below the scaling lam and fails just above it."""
    assert 0.0 < lam < math.inf
    assert holds((1.0 - 1e-9) * lam)
    assert not holds((1.0 + 1e-9) * lam)


@pytest.mark.parametrize("name", BUNDLED)
def test_from_zero_limits_close_their_conditions(name):
    red, S = prepare(load_case_file(case_path(f"{name}.m")))
    rng = np.random.default_rng(BUNDLED.index(name))
    zero = compute_stress(red.Ztilde, np.zeros_like(S))
    for d in [S] + [random_loads(rng, red.n_load) for _ in range(5)]:
        est = lambda_all(red, d)

        def stress(lam):
            return compute_stress(red.Ztilde, lam * d)

        assert_closes(lambda lam: certify(stress(lam)).holds, est.lambda_p)
        assert_closes(lambda lam: certify_wang(zero, stress(lam)).holds, est.lambda_w)
        assert_closes(lambda lam: certify_dvijotham(stress(lam)).holds, est.lambda_d)


@pytest.mark.parametrize("c", [0.5, 2.0])
@pytest.mark.parametrize("name", BUNDLED)
def test_known_solution_limits_close_their_conditions(name, c):
    """Increments c S about the solved base point."""
    case = load_case_file(case_path(f"{name}.m"))
    red, S = prepare(case)
    res = newton_solve(red, S)
    assert res.converged
    recentered = renormalize_about_solution(red, res.V_L / red.E, S)
    D = c * S
    est = lambda_all(recentered, D)
    Zt = recentered.Ztilde
    base = compute_stress(Zt, S)

    def stress(lam):
        return compute_stress(Zt, S + lam * D, lam * D)

    assert_closes(lambda lam: certify(stress(lam)).holds, est.lambda_p)
    assert_closes(lambda lam: certify_wang(base, compute_stress(Zt, lam * D)).holds, est.lambda_w)
    assert_closes(lambda lam: certify_dvijotham(stress(lam)).holds, est.lambda_d)


@pytest.mark.parametrize("name", BUNDLED)
def test_known_solution_takes_only_positive_multiples_of_its_load(name):
    """About a known solution every limit is the closed form on the line c S0, c > 0,
    and any other direction raises: -S0, j S0, 2 S0 with one load other than the
    largest 0.1% off, and the seeded direction that is not a multiple of S0 at all."""
    red, S = prepare(load_case_file(case_path(f"{name}.m")))
    res = newton_solve(red, S)
    assert res.converged
    recentered = renormalize_about_solution(red, res.V_L / red.E, S)
    m0 = compute_stress(recentered.Ztilde, S)
    for c in (0.5, 2.0, 1.0 + 1e-13):
        est = lambda_all(recentered, c * S)
        line = _line_limits(recentered, "from_known_solution", m0, m0, c)
        assert (est.lambda_p, est.lambda_w, est.lambda_d) == pytest.approx(
            (line.lambda_p, line.lambda_w, line.lambda_d), rel=1e-15)
        assert (est.critical_bus, est.mode) == (line.critical_bus, "from_known_solution")
    skew = random_loads(np.random.default_rng(BUNDLED.index(name)), red.n_load)
    near = 2.0 * S
    near[np.argsort(np.abs(S))[-2]] *= 1.001
    for D in (-S, 1j * S, near, skew):
        with pytest.raises(CaseError, match="positive multiple"):
            lambda_all(recentered, D)


@pytest.mark.parametrize("known", [False, True], ids=["from_zero", "known"])
@pytest.mark.parametrize("edit", ["short", "long", "nan", "inf"])
def test_malformed_direction_is_a_case_error(edit, known):
    """A direction with the wrong length or a non-finite entry is refused on both branches,
    not met by an IndexError, a broadcast error or a NaN that reads as an infinite limit."""
    red, S = prepare(load_case_file(case_path("case9.m")))
    if known:
        res = newton_solve(red, S)
        red = renormalize_about_solution(red, res.V_L / red.E, S)
    D = {"short": S[:-1], "long": np.r_[S, S[0]], "nan": np.where(np.arange(len(S)) == 1, np.nan, S),
         "inf": np.where(np.arange(len(S)) == 1, np.inf, S)}[edit]
    with pytest.raises(CaseError, match="direction has"):
        lambda_all(red, D)


def test_line_past_the_spread_boundary_certifies_nothing():
    # x0 > 1 fails the spread at lambda = 0 (from zero, x0 = 0, the spread
    # never binds before the level), and every limit is then 0
    _, red, S = two_bus_setup()
    m = compute_stress(red.Ztilde, S)
    est = _line_limits(red, "from_known_solution", m, replace(m, xi=np.array([1.5]), xi_max=1.5))
    assert est.lambda_p == est.lambda_w == est.lambda_d == 0.0


ROOT_CASES = [  # a, b, c, smallest positive root of a x^2 + b x + c
    (0.0, 2.0, -1.0, 0.5),  # a = 0: the linear root
    (0.0, 2.0, 1.0, math.inf),  # a = 0 with a negative linear root
    (0.0, 0.0, -1.0, math.inf),  # a = b = 0: no root
    (1.0, 0.0, 1.0, math.inf),  # negative discriminant
    (1.0, -3.0, 0.0, 3.0),  # c = 0: the root 0 is not positive
    (1.0, -3.0, 2.0, 1.0),  # two positive roots: the first
    (-1.0, 1.0, 2.0, 2.0),  # one positive and one negative root
]


@pytest.mark.filterwarnings("error")
def test_first_positive_roots_edge_cases():
    a, b, c, expected = (np.array(col) for col in zip(*ROOT_CASES))
    assert np.array_equal(first_positive_roots(a, b, c), expected)
    for row in ROOT_CASES:
        assert first_positive_roots(*row[:3]) == row[3]


def min_positive_root(a, b, c):
    """Scalar reference: smallest positive root of a x^2 + b x + c = 0 (inf when none)."""
    if a == 0.0:
        if b == 0.0:
            return math.inf
        x = -c / b
        return x if x > 0.0 else math.inf
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return math.inf
    q = -(b + math.copysign(math.sqrt(disc), b)) / 2.0
    roots = [q / a, c / q] if q != 0.0 else [0.0]
    return min([r for r in roots if r > 0.0], default=math.inf)


@pytest.mark.filterwarnings("error")
def test_first_positive_roots_match_the_scalar_reference(rng):
    a, b, c = rng.normal(size=(3, 3000))
    a[::7] = 0.0
    b[::11] = 0.0
    c[::5] = 0.0
    expected = [min_positive_root(*abc) for abc in zip(a, b, c)]
    assert np.array_equal(first_positive_roots(a, b, c), expected)


def test_closed_form_limits_take_one_stress_call(monkeypatch):
    calls = []
    monkeypatch.setattr(limits, "compute_stress", lambda *a: calls.append(1) or compute_stress(*a))
    _, red, S, v0 = known_solution_setup()
    lambda_all(red, S)
    lambda_all(renormalize_about_solution(red, v0, S), 2 * S)
    lambda_all(renormalize_about_solution(red, np.ones(1, dtype=complex), np.zeros(1, dtype=complex)), S)
    assert len(calls) == 3
