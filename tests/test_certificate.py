"""Certificate evaluation, baseline shells, voltage bounds, and region geometry."""

import math

import numpy as np
import pytest

from pfcert.admittance import reduce_case
from pfcert.certificate import (
    REASON_LEVEL,
    certify,
    certify_all,
    certify_dvijotham,
    certify_wang,
    estimate_contraction,
    voltage_bounds,
)
from pfcert.cli import certificate_to_dict, voltage_bounds_to_dict
from pfcert.fixed_point import CONTAINMENT_SLACK, solve_fixed_point
from pfcert.limits import bound_profile, lambda_all, prepare
from pfcert.net_model import CaseError, load_case_file
from pfcert.stress import DiscRadii, NoCertificate, StressMeasures, compute_stress

from conftest import BUNDLED, case_path, make_two_bus, random_loads, random_ztilde
from reference_values import hunt_solutions, reference_contraction, two_bus_analytic

ZT = np.array([[0.1j]])


def stress(p, q=0.0):
    return compute_stress(ZT, np.array([complex(p, q)]))


def test_two_bus_certificate():
    cert = certify(stress(2.5))
    assert cert.holds
    assert cert.disc_centers[0] == pytest.approx(1 - 0.25j)
    assert cert.disc_radii[0] == pytest.approx(0.0794590, abs=2e-6)
    assert cert.radii.r_hi == pytest.approx(3.146264, abs=5e-6)
    assert cert.mu_bound is not None and 0 <= cert.mu_bound < 1


def test_zero_load_certificate_degenerates_to_points():
    cert = certify(stress(0.0))
    assert cert.holds
    assert cert.radii.degenerate
    assert cert.disc_centers[0] == 1.0
    assert cert.disc_radii[0] == 0.0
    assert cert.mu_bound == 0.0


def test_certificate_fails_at_level_boundary():
    cert = certify(stress(5.0))  # stress level is exactly 0.2 * 5 = 1, strict
    assert not cert.holds
    assert cert.reason == REASON_LEVEL
    assert cert.radii is None


def test_spread_boundary_is_non_strict():
    # synthetic measures: spread exactly 1 with a strictly feasible level,
    # pinning the <= versus < comparison semantics
    m = StressMeasures(
        eta_complex=np.array([0.2j]),
        eta_abs=np.array([0.2]),
        xi=np.array([1.2]),
        gamma=np.array([0.1]),
        eta_max=0.2,
        xi_max=1.2,
        gamma_max=0.1,
        Delta=(1 - 0.1) ** 2 - 4 * 1.2**2 * 0.2**2,
    )
    assert m.stress_spread == pytest.approx(1.0)
    cert = certify(m)
    assert cert.holds


def test_holding_certificate_recomputable_from_measures():
    cert = certify(stress(2.5))
    m = cert.measures
    assert m.stress_level < 1 and m.stress_spread <= 1
    assert np.allclose(cert.disc_radii, cert.radii.r_lo * m.xi)


def test_wang_shell_examples():
    m24 = stress(2.4)
    zero = stress(0.0)
    shell = certify_wang(zero, m24)
    assert shell.holds and shell.uniqueness
    assert shell.radius == pytest.approx(0.4)
    assert shell.magnitude_interval() == (pytest.approx(0.6), pytest.approx(1.4))

    assert certify_wang(zero, zero).holds
    assert certify_wang(zero, zero).radius == 0.0

    boundary = certify_wang(zero, stress(2.5))  # 1 - 4 * 0.25 = 0, strict: fails
    assert not boundary.holds

    for base in (10.0, 30.0):  # xi at the base >= 1 fails, though at 3 (1 - xi0)^2 - 4 xi is positive
        shell = certify_wang(stress(base), m24)
        assert not shell.holds and shell.radius is None and shell.magnitude_interval() is None
        assert shell.condition_value <= 0


@pytest.mark.parametrize("p", [0.0, 2.4, 2.5, 3.0])
def test_wang_from_zero_load_is_the_zero_base(p):
    red = reduce_case(make_two_bus())
    assert np.array_equal(red.Ztilde, ZT)
    _, wang, _ = certify_all(red, np.array([complex(p)]))
    assert wang == certify_wang(stress(0.0), stress(p))


def test_dvijotham_shell_examples():
    assert certify_dvijotham(stress(2.5)).holds  # boundary: sqrt(.25)*2 == 1
    assert certify_dvijotham(stress(0.0)).holds
    worse = certify_dvijotham(stress(2.6))
    assert not worse.holds
    assert worse.condition_value == pytest.approx(2 * math.sqrt(0.26))
    assert not certify_dvijotham(stress(2.6)).uniqueness


def test_voltage_bounds_two_bus():
    red = reduce_case(make_two_bus())
    cert = certify(compute_stress(red.Ztilde, np.array([2.5 + 0j])))
    vb = voltage_bounds(cert, red)
    assert vb.magnitude_low[0] == pytest.approx(0.9513174, abs=2e-6)
    assert vb.magnitude_high[0] == pytest.approx(1.1102354, abs=2e-6)
    assert math.degrees(vb.angle_low[0]) == pytest.approx(-18.4575, abs=2e-3)
    assert math.degrees(vb.angle_high[0]) == pytest.approx(-9.6149, abs=2e-3)
    assert vb.approx[0] == pytest.approx(1 - 0.25j)

    true = two_bus_analytic(2.5, 0.0, 0.1)[0]
    assert vb.magnitude_low[0] <= abs(true) <= vb.magnitude_high[0]
    assert vb.angle_low[0] <= np.angle(true) <= vb.angle_high[0]
    assert abs(true) == pytest.approx(0.9659258, abs=1e-7)
    assert math.degrees(np.angle(true)) == pytest.approx(-15.0, abs=1e-6)


def test_voltage_bounds_require_holding_certificate():
    red = reduce_case(make_two_bus())
    failing = certify(compute_stress(red.Ztilde, np.array([5.0 + 0j])))
    with pytest.raises(NoCertificate):
        voltage_bounds(failing, red)


def test_full_circle_flag_when_disc_reaches_origin():
    # synthetic: center close to 1 but a huge radius swallows the origin
    m = StressMeasures(
        eta_complex=np.array([0.9 + 0j]),
        eta_abs=np.array([0.9]),
        xi=np.array([0.5]),
        gamma=np.array([0.0]),
        eta_max=0.9,
        xi_max=0.5,
        gamma_max=0.0,
        Delta=1.0 - 4 * 0.5**2 * 0.9**2,
    )
    red = reduce_case(make_two_bus())
    cert = certify(m)
    if cert.holds and cert.disc_radii[0] >= abs(cert.disc_centers[0]):
        vb = voltage_bounds(cert, red)
        assert vb.full_circle[0]
        assert vb.magnitude_low[0] == 0.0
        assert vb.angle_low[0] == pytest.approx(-math.pi)
        assert vb.angle_high[0] == pytest.approx(math.pi)
    else:
        pytest.skip("synthetic measures did not yield an origin-covering disc")


def test_low_voltage_solution_outside_outer_region():
    """The two-bus case's other solution lies outside |u - 1|/|u| < r_hi at every
    load up to the nose p = 5, where both solutions meet: at 4.999 the ratio is
    1.0202 against r_hi 1.0142."""
    for p in (0.5, 1.0, 2.5, 4.0, 4.9, 4.99, 4.999):
        cert = certify(stress(p))
        assert cert.holds
        low = two_bus_analytic(p, 0.0, 0.1)[1]
        ratio = abs(low - 1) / abs(low)
        if p == 2.5:
            assert ratio == pytest.approx(3.7320508, abs=1e-6)
        assert ratio > cert.radii.r_hi, p


@pytest.mark.parametrize("name", BUNDLED)
def test_no_other_solution_in_the_outer_region(name):
    """At 0.5, 0.9 and 0.99 lambda_p, of every solution the hunt finds exactly one
    lies in |u_i - 1|/|u_i| < r_hi, and it lies in the polydisc. A solution found
    inside r_hi would be a bug in the certificate, never a tolerance to widen."""
    case = load_case_file(case_path(f"{name}.m"))
    red, S = prepare(case)
    lam = lambda_all(red, S).lambda_p
    for fraction in (0.5, 0.9, 0.99):
        load = fraction * lam * S
        cert = certify_all(red, load)[0]
        assert cert.holds
        inside = [u for u in (V / red.E for V in hunt_solutions(red, load))
                  if (np.abs(u - 1) / np.abs(u)).max() < cert.radii.r_hi]
        assert len(inside) == 1, fraction
        assert (np.abs(inside[0] - cert.disc_centers) <= cert.disc_radii + CONTAINMENT_SLACK).all(), fraction


def test_invariant_region_maps_into_itself(rng):
    """Boundary points of the intermediate polydiscs map strictly inside."""
    red = reduce_case(make_two_bus())
    S = np.array([2.5 + 0j])
    m = compute_stress(red.Ztilde, S)
    cert = certify(m)
    r_lo, r_hi = cert.radii.r_lo, cert.radii.r_hi
    for t in (0.02, 0.25, 0.5, 0.75, 0.98):
        r = r_lo + t * (r_hi - r_lo)
        for _ in range(64):
            phase = np.exp(2j * np.pi * rng.random(len(m.xi)))
            u = (1 - m.eta_complex) + r * m.xi * phase
            fu = solve_fixed_point(red, S, start=u, max_iter=1).u
            assert np.all(np.abs(fu - (1 - m.eta_complex)) < r * m.xi)


def test_dominance_on_random_injections(rng):
    Zt = random_ztilde(rng, 5)
    zero = compute_stress(Zt, np.zeros(5, dtype=complex))
    wang_held = dvij_held = 0
    for _ in range(300):
        S = random_loads(rng, 5, scale=float(rng.random() * 3))
        m = compute_stress(Zt, S)
        cert = certify(m)
        if certify_wang(zero, m).holds:
            wang_held += 1
            assert cert.holds
        if certify_dvijotham(m).holds:
            dvij_held += 1
            assert m.stress_level <= 1.0 + 1e-9 and m.stress_spread <= 1.0 + 1e-12
    assert wang_held > 10 and dvij_held > 10


def test_serialization_round_shapes():
    red = reduce_case(make_two_bus())
    cert = certify(compute_stress(red.Ztilde, np.array([2.5 + 0j])))
    doc = certificate_to_dict(cert)
    assert doc["holds"] is True
    assert doc["radii"]["r_lo"] == pytest.approx(cert.radii.r_lo)
    vb_doc = voltage_bounds_to_dict(voltage_bounds(cert, red))
    assert vb_doc["buses"][0]["bus"] == 2
    assert vb_doc["buses"][0]["magnitude"][0] == pytest.approx(0.9513174, abs=2e-6)


def bundled(name):
    return prepare(load_case_file(case_path(f"{name}.m")))


def sampled_mu(m, radii, samples=20_000):
    """mu on the 63-radius grid of estimate_contraction, with each disc's sup of
    |u - 1|/|u| replaced by its maximum over `samples` boundary points
    u = c + rho e^(i theta), the squared moduli expanded in cos and sin."""
    grid = radii.r_lo + np.linspace(1.0 / 64, 63.0 / 64, 63) * (radii.r_hi - radii.r_lo)
    theta = 2.0 * np.pi * np.arange(samples) / samples
    cos, sin = np.cos(theta), np.sin(theta)
    worst = np.zeros(grid.size)
    for c, xi in zip(1.0 - m.eta_complex, m.xi):
        rho = (grid * xi)[:, None]
        num = abs(c - 1.0) ** 2 + rho**2 + 2.0 * rho * ((c.real - 1.0) * cos + c.imag * sin)
        den = abs(c) ** 2 + rho**2 + 2.0 * rho * (c.real * cos + c.imag * sin)
        per_radius = np.sqrt((num / den).max(axis=1))
        worst = np.maximum(worst, np.where(abs(c) > grid * xi, per_radius, np.inf))
    return float((worst / grid).min())


def assert_mu_is_exact(m):
    cert = certify(m)
    assert cert.holds and cert.mu_bound is not None
    reference = sampled_mu(m, cert.radii)
    assert cert.mu_bound >= reference
    assert cert.mu_bound == pytest.approx(reference, rel=1e-6)
    assert cert.mu_bound == reference_contraction(m, cert.radii)  # bit for bit
    return cert.mu_bound


@pytest.mark.parametrize("name", BUNDLED)
def test_mu_bound_is_the_exact_supremum_on_bundled_cases(name):
    red, S = bundled(name)
    lam = lambda_all(red, S).lambda_p
    for fraction in (0.25, 0.5, 0.75, 0.95):
        assert_mu_is_exact(compute_stress(red.Ztilde, fraction * lam * S))


def test_mu_bound_is_the_exact_supremum_on_case39_at_twice_the_load():
    # a 256-point boundary sample reads 0.927229397 here, below the supremum
    red, S = bundled("case39")
    mu = assert_mu_is_exact(compute_stress(red.Ztilde, 2.0 * S))
    assert mu == pytest.approx(0.927284897, abs=5e-10)


def test_mu_bound_is_the_exact_supremum_on_random_injections(rng):
    red, _ = bundled("case9")
    for _ in range(8):
        direction = random_loads(rng, red.n_load)
        lam = lambda_all(red, direction).lambda_p
        assert_mu_is_exact(compute_stress(red.Ztilde, rng.uniform(0.05, 0.99) * lam * direction))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", BUNDLED)
def test_mu_bound_below_one_up_to_the_limit(name):
    red, S = bundled(name)
    lam = lambda_all(red, S).lambda_p
    for fraction in np.linspace(0.02, 0.999, 40):
        cert = certify(compute_stress(red.Ztilde, fraction * lam * S))
        assert cert.holds and 0.0 <= cert.mu_bound < 1.0


def synthetic_measures(eta, xi):
    """Stress measures from given per-bus eta and xi, gamma as compute_stress forms it."""
    eta, xi = np.asarray(eta, dtype=complex), np.asarray(xi, dtype=float)
    gamma = 2.0 * (xi + eta.real) - xi**2 - np.abs(eta) ** 2
    g, x, e = float(gamma.max()), float(xi.max()), float(np.abs(eta).max())
    return StressMeasures(eta, np.abs(eta), xi, gamma, e, x, g, (1 - g - 2 * x * e) * (1 - g + 2 * x * e))


def test_mu_bound_skips_radii_whose_discs_reach_the_origin():
    # bus 0's disc reaches the origin once r * 0.5 >= 1, at r = 2, so only
    # the leading radii are admissible; past that, bus 1 alone would give a
    # smaller (and meaningless) value, so a radius let in by mistake shows
    m = synthetic_measures([0.0, 0.3 + 0.1j], [0.5, 0.05])
    radii = DiscRadii(r_lo=0.5, r_hi=4.0)
    grid = radii.r_lo + np.linspace(1.0 / 64, 63.0 / 64, 63) * (radii.r_hi - radii.r_lo)
    reaches = (grid[:, None] * m.xi >= np.abs(1.0 - m.eta_complex)).any(axis=1)
    assert not reaches[0] and reaches[-1]
    mu = estimate_contraction(m, radii)
    assert mu is not None and 0.0 < mu < 1.0
    assert mu == reference_contraction(m, radii)


def test_mu_bound_is_none_when_no_radius_is_admissible():
    m = synthetic_measures([0.0, 0.3 + 0.1j], [0.5, 0.05])
    radii = DiscRadii(r_lo=2.5, r_hi=4.0)  # r * 0.5 >= 1.25 > |1 - eta_0| on the whole grid
    assert estimate_contraction(m, radii) is None
    assert reference_contraction(m, radii) is None


@pytest.mark.parametrize("bad", ["nan", "inf", "short"])
def test_certify_all_and_bound_profile_reject_a_malformed_load(bad):
    """certify_all used to take any load: on case9 a NaN entry gave holds false with NaN
    condition values, an inf entry a RuntimeWarning, and a short vector numpy's broadcast
    error. It checks the load as every other load-taking entry does, and so does bound_profile."""
    red, S = prepare(load_case_file(case_path("case9.m")))
    if bad == "short":
        S, message = S[:-1], r"^{} has shape \(5,\), expected \(6,\): one entry per load bus$"
    else:
        S, message = S.copy(), "^{} has a non-finite entry$"
        S[1] = float(bad)
    with pytest.raises(CaseError, match=message.format("S")):
        certify_all(red, S)
    with pytest.raises(CaseError, match=message.format("S_base")):
        bound_profile(red, S, red.load_ids[0], [1.0])
