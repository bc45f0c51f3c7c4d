"""Output checks that do not reuse the program's own network code.

The admittance matrix here is assembled from the branch records with branch
incidence matrices (the MATPOWER makeYbus form), not with pfcert.admittance,
so a fault in the program's reduction cannot hide a wrong voltage: every
returned voltage is checked by its load-bus power-balance mismatch.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
import scipy.sparse as sp

# From-zero solvability limits (lambda_p, lambda_d, lambda_w, lambda_actual)
# of the six bundled cases the package reproduces, as published in the
# from-zero limit table of "Solvability of Power Flow Equations Through
# Existence and Uniqueness of Complex Fixed Point" (arXiv:1904.08855, 2019).
# The 30-bus row is left out: the bundled 30-bus data is another variant.
PUBLISHED_LIMITS = {
    "case9": (2.4425, 1.7534, 1.7512, 2.6577),
    "case14": (4.3246, 3.5384, 3.5229, 5.3320),
    "case24_ieee_rts": (2.3608, 1.6339, 1.6334, 2.7928),
    "case39": (2.1174, 1.3869, 1.3600, 2.4730),
    "case57": (1.3456, 1.0998, 1.0935, 1.9074),
    "case118": (4.7597, 3.9192, 3.9186, 5.4479),
}
# tolerances the published table is reproduced to (4 significant digits)
LIMIT_RTOL = {"lambda_p": 0.02, "lambda_d": 0.02, "lambda_w": 0.005, "lambda_actual": 0.02}

MISMATCH_TOL = 1e-7  # per-unit power mismatch accepted for a returned voltage
CONTAINMENT_TOL = 1e-8  # slack on voltage-bound containment


class CheckError(AssertionError):
    """An output of the program violates a property it must have."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


class PowerBalance:
    """Bus admittance matrix and generator phasors of one case, built independently."""

    def __init__(self, case):
        ids = [b.id for b in case.buses]
        pos = {bus_id: k for k, bus_id in enumerate(ids)}
        live = [br for br in case.branches if br.in_service]
        nb, nl = len(ids), len(live)
        f = np.array([pos[br.from_bus] for br in live])
        t = np.array([pos[br.to_bus] for br in live])
        ys = np.array([1.0 / br.series_impedance for br in live])
        bc = np.array([br.charging for br in live])
        tap = np.array([br.tap_ratio * cmath.exp(1j * br.phase_shift) for br in live])
        ytt = ys + 0.5j * bc
        yff = ytt / (tap * tap.conj())
        yft = -ys / tap.conj()
        ytf = -ys / tap
        rows = np.arange(nl)
        Cf = sp.csr_matrix((np.ones(nl), (rows, f)), shape=(nl, nb))
        Ct = sp.csr_matrix((np.ones(nl), (rows, t)), shape=(nl, nb))
        Yf = sp.diags(yff) @ Cf + sp.diags(yft) @ Ct
        Yt = sp.diags(ytf) @ Cf + sp.diags(ytt) @ Ct
        shunt = np.array([b.shunt for b in case.buses])
        self.Y = (Cf.T @ Yf + Ct.T @ Yt + sp.diags(shunt)).tocsr()
        self.pos = pos

        setpoint: dict[int, float] = {}
        for g in case.gens:
            if g.in_service:
                setpoint.setdefault(g.bus, g.voltage_setpoint)
        self.generator_ids = frozenset(setpoint)
        self.V = np.array(
            [setpoint[b.id] * cmath.exp(1j * b.voltage_angle) if b.id in setpoint else 0.0 for b in case.buses],
            dtype=complex,
        )
        self.load_ids = frozenset(ids) - self.generator_ids

    def mismatch(self, load_ids, V_L, S_L) -> float:
        """Largest |S_injected + S_L| over the load buses, per-unit (S_L is consumption)."""
        require(set(load_ids) == self.load_ids, "load-bus set differs from the case's")
        V = self.V.copy()
        idx = np.array([self.pos[i] for i in load_ids])
        V[idx] = V_L
        injected = V * np.conj(self.Y @ V)
        return float(np.abs(injected[idx] + S_L).max())

    def check_solution(self, load_ids, V_L, S_L) -> float:
        worst = self.mismatch(load_ids, V_L, S_L)
        require(math.isfinite(worst) and worst <= MISMATCH_TOL,
                f"power-balance mismatch {worst:.3e} exceeds {MISMATCH_TOL:g}")
        return worst


def check_inside_bounds(vb, V_L) -> None:
    """Every voltage lies in its certified magnitude and angle interval."""
    mag = np.abs(V_L)
    require(np.all(mag >= vb.magnitude_low - CONTAINMENT_TOL) and np.all(mag <= vb.magnitude_high + CONTAINMENT_TOL),
            "a voltage magnitude lies outside its certified interval")
    bounded = ~vb.full_circle
    half = 0.5 * (vb.angle_high - vb.angle_low)
    offset = np.abs(np.angle(V_L / vb.approx))
    require(np.all(offset[bounded] <= half[bounded] + CONTAINMENT_TOL),
            "a voltage angle lies outside its certified interval")


def check_dominance(lambda_p: float, lambda_w: float, lambda_d: float) -> None:
    require(lambda_p >= max(lambda_w, lambda_d) * (1.0 - 1e-12),
            f"lambda_p {lambda_p} is below a baseline ({lambda_w}, {lambda_d})")


def check_published(name: str, field: str, value: float) -> None:
    lam_p, lam_d, lam_w, lam_a = PUBLISHED_LIMITS[name]
    ref = {"lambda_p": lam_p, "lambda_d": lam_d, "lambda_w": lam_w, "lambda_actual": lam_a}[field]
    err = abs(value - ref) / ref
    require(err <= LIMIT_RTOL[field], f"{name} {field} {value:.6g} is {err:.2%} from the published {ref}")
