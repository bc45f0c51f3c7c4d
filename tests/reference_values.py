"""Frozen reference values and reference implementations for the test suite.

Solvability-limit tables for the standard test systems (from-zero estimates,
known-solution certified total scalings, and true limits), plus the 39-bus
base-loading voltage-bound coordinates and the bus-4 bound-profile anchors;
the closed-form solutions of one load behind a reactance, the two-bus
reference of the whole suite; a hunt for other power-flow solutions; the
certified convergence-rate check; and plain forms of the fixed-point loop,
of the contraction bound, of the Newton kernel's pattern build, of the
admittance matrix's assembly and of the MATPOWER reader, which the package's
lean versions must match bit for bit.
"""

import cmath
import math
import re

import numpy as np
import scipy.sparse as sp

from pfcert.admittance import GridReduction
from pfcert.certificate import Certificate
from pfcert.fixed_point import DIVERGENCE_CUTOFF, FixedPointResult, solve_fixed_point
from pfcert.net_model import (
    _ASSIGNMENT,
    BranchRecord,
    BusRecord,
    CaseError,
    CaseSyntaxError,
    GenRecord,
    NetworkCase,
    _integer,
    build_case,
    partition_buses,
    validate_connectivity,
)
from pfcert.oracle import newton_solve


# case -> (lambda_p, lambda_d, lambda_w, actual)
TABLE_FROM_ZERO = {
    "case9": (2.4425, 1.7534, 1.7512, 2.6577),
    "case14": (4.3246, 3.5384, 3.5229, 5.3320),
    "case24_ieee_rts": (2.3608, 1.6339, 1.6334, 2.7928),
    "case30": (5.4223, 4.8230, 4.7919, 6.0160),
    "case39": (2.1174, 1.3869, 1.3600, 2.4730),
    "case57": (1.3456, 1.0998, 1.0935, 1.9074),
    "case118": (4.7597, 3.9192, 3.9186, 5.4479),
    "case300": (0.7712, 0.5251, 0.3641, 1.6585),
    "case1354pegase": (1.2751, 0.7376, 0.7273, 1.5332),
    "case2383wp": (1.4594, 1.0489, 1.0474, 1.9739),
}

# case -> certified maximum total scaling 1 + lambda (proposed / dvijotham / wang)
TABLE_KNOWN_SOLUTION = {
    "case9": (2.4676, 2.0493, 2.0399),
    "case14": (4.3862, 3.7605, 3.6144),
    "case24_ieee_rts": (2.4101, 1.9656, 1.9091),
    "case30": (5.4665, 4.9966, 4.9346),
    "case39": (2.1826, 1.7650, 1.6846),
    "case57": (1.4719, 1.3764, 1.3454),
    "case118": (4.7987, 4.1189, 3.8447),
    "case300": (1.0558, 1.0284, 1.0047),
    "case1354pegase": (1.3595, 1.2012, 1.1597),
    "case2383wp": (1.5708, 1.3955, 1.3683),
}

UNOBTAINABLE_CASES = ("case300", "case1354pegase", "case2383wp")

# 39-bus system, base loading, per load bus 1..29: reference plot coordinates
BUS39_TRUE_VM = [1.0394, 1.0485, 1.0307, 1.0045, 1.0060, 1.0082, 0.9984, 0.9979, 1.0383, 1.0178,
                 1.0134, 1.0008, 1.0149, 1.0123, 1.0162, 1.0325, 1.0342, 1.0316, 1.0501, 0.9910,
                 1.0323, 1.0501, 1.0451, 1.0380, 1.0577, 1.0526, 1.0383, 1.0504, 1.0501]
BUS39_APPROX_VM = [1.0455, 1.0627, 1.0593, 1.0383, 1.0347, 1.0351, 1.0302, 1.0302, 1.0515, 1.0400,
                   1.0373, 1.0269, 1.0395, 1.0421, 1.0501, 1.0621, 1.0651, 1.0630, 1.0637, 1.0039,
                   1.0571, 1.0639, 1.0601, 1.0677, 1.0718, 1.0784, 1.0706, 1.0703, 1.0641]
BUS39_UB_VM = [1.0572, 1.0838, 1.0989, 1.0830, 1.0726, 1.0704, 1.0719, 1.0726, 1.0712, 1.0697,
               1.0692, 1.0637, 1.0724, 1.0819, 1.0962, 1.1038, 1.1084, 1.1066, 1.0849, 1.0275,
               1.0927, 1.0844, 1.0831, 1.1101, 1.0937, 1.1162, 1.1158, 1.1023, 1.0875]
BUS39_LB_VM = [1.0337, 1.0416, 1.0196, 0.9937, 0.9969, 0.9997, 0.9885, 0.9877, 1.0318, 1.0104,
               1.0054, 0.9901, 1.0065, 1.0023, 1.0040, 1.0205, 1.0219, 1.0194, 1.0426, 0.9803,
               1.0215, 1.0435, 1.0371, 1.0253, 1.0498, 1.0405, 1.0254, 1.0382, 1.0407]
BUS39_TRUE_VA = [-13.5366, -9.7853, -12.2764, -12.6267, -11.1923, -10.4083, -12.7556, -13.3358,
                 -14.1784, -8.1709, -8.9370, -8.9988, -8.9299, -10.7153, -11.3454, -10.0333,
                 -11.1164, -11.9862, -5.4101, -6.8212, -7.6287, -3.1831, -3.3813, -9.9138,
                 -8.3692, -9.4388, -11.3622, -5.9284, -3.1699]
BUS39_APPROX_VA = [-13.4652, -9.6505, -11.9854, -12.3663, -11.0173, -10.2625, -12.5247, -13.0844,
                   -14.0184, -8.0921, -8.8457, -9.0202, -8.8343, -10.5376, -11.0842, -9.7581,
                   -10.8215, -11.6700, -5.3311, -6.7243, -7.4667, -3.1239, -3.3072, -9.5766,
                   -8.2493, -9.2270, -11.0702, -5.7865, -3.0906]
BUS39_UB_VA = [-12.8224, -8.5149, -9.8403, -9.9011, -8.9224, -8.3055, -10.2028, -10.7222, -12.9449,
               -6.4584, -7.0824, -6.9685, -7.0183, -8.3488, -8.5686, -7.5110, -8.4963, -9.3187,
               -4.1917, -5.3774, -5.5370, -2.0247, -2.0637, -7.2990, -7.0741, -7.2171, -8.6489,
               -4.0695, -1.8322]
BUS39_LB_VA = [-14.1080, -10.7861, -14.1305, -14.8314, -13.1123, -12.2195, -14.8467, -15.4466,
               -15.0919, -9.7257, -10.6090, -11.0719, -10.6503, -12.7265, -13.5998, -12.0053,
               -13.1467, -14.0214, -6.4706, -8.0712, -9.3963, -4.2232, -4.5508, -11.8542, -9.4246,
               -11.2369, -13.4914, -7.5034, -4.3489]

# bus-4 bound profile anchors: proposed bound at load factor 1.00, and the
# last loading factors at which each bound exists (window per the 0.01 grid)
BUS39_PROFILE_PROPOSED_AT_1 = 0.9937
BUS39_PROFILE_LAST = {"proposed": (2.10, 2.12), "wang": (1.34, 1.36), "dvijotham": (1.37, 1.39)}


def two_bus_analytic(p: float, q: float, x: float) -> tuple[complex, ...]:
    """All load-voltage solutions of one load p + jq behind a pure reactance x.

    With v = a + jb and E = 1: b = -x p and a solves a^2 - a + (q x + x^2 p^2) = 0.
    Returns the high-voltage root first; empty when no solution exists.
    """
    if x <= 0:
        raise ValueError("reactance x must be positive")
    disc = 1.0 - 4.0 * q * x - 4.0 * x * x * p * p
    b = -x * p
    if disc < 0:
        return ()
    if disc == 0:
        return (complex(0.5, b),)
    root = math.sqrt(disc)
    return (complex((1.0 + root) / 2.0, b), complex((1.0 - root) / 2.0, b))


def hunt_solutions(red: GridReduction, S_L: np.ndarray, depths=(0.2, 0.5, 0.7)) -> list[np.ndarray]:
    """Distinct load-bus voltages that solve the power flow at load S_L on red.

    newton_solve starts from the flat start E and from E with each load bus in
    turn depressed to each of depths times E_k, which is how low-voltage
    solutions are usually found (Overbye & Klump, IEEE TPWRS 1996). A search
    that finds no other solution falsifies nothing; it proves nothing either.
    """
    starts = [red.E]
    for k in range(red.n_load):
        for depth in depths:
            start = red.E.copy()
            start[k] *= depth
            starts.append(start)
    found: list[np.ndarray] = []
    for start in starts:
        res = newton_solve(red, S_L, start=start)
        if res.converged and all(np.abs(res.V_L - V).max() > 1e-6 for V in found):
            found.append(res.V_L)
    return found


def fixed_point_iterates(red: GridReduction, S_L: np.ndarray) -> list:
    """u^0 = 1, u^1, ... of solve_fixed_point's own loop, to its converged iterate:
    u^k is the u of the same solve stopped by max_iter=k."""
    res = solve_fixed_point(red, S_L)
    if not res.converged:
        raise ValueError("rate check requires a converged solve")
    return [solve_fixed_point(red, S_L, max_iter=k).u for k in range(res.iterations + 1)]


def check_convergence_rate(
    cert: Certificate,
    red: GridReduction,
    S_L: np.ndarray,
) -> bool:
    """Verify the certified linear decay along the package's iterates from u^0 = 1.

    Every iterate must satisfy ||u^n - u_ref||_inf < r_hi xi (1 + mu)
    (2 mu / (1 + mu^2))^(n/2) against a high-precision reference solve.
    """
    if not cert.holds or cert.mu_bound is None or not (0.0 <= cert.mu_bound < 1.0):
        raise ValueError("rate check requires a holding certificate with mu_bound < 1")
    iterates = fixed_point_iterates(red, S_L)

    ref = solve_fixed_point(red, S_L, start=iterates[0], tol=1e-13, max_iter=20000)
    if not ref.converged:
        raise ValueError("high-precision reference solve did not converge")

    if cert.radii.degenerate:  # zero load: the map is constant, errors must vanish
        return all(float(np.abs(un - ref.u).max()) == 0.0 for un in iterates[1:])

    mu = cert.mu_bound
    prefactor = cert.radii.r_hi * cert.measures.xi_max * (1.0 + mu)
    ratio = 2.0 * mu / (1.0 + mu * mu)
    for n, un in enumerate(iterates):
        err = float(np.abs(un - ref.u).max())
        if not err < prefactor * ratio ** (n / 2.0):
            return False
    return True


def reference_fixed_point(red, S_L, start=None, tol=1e-10, max_iter=1000):
    """The fixed-point loop applying F(u) = 1 + Ztilde (S0* - S_L*/u*) by its formula,
    checking every iterate for zero entries before the step."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    S_L = np.asarray(S_L, dtype=complex)
    u = np.ones(red.n_load, dtype=complex) if start is None else np.array(start, dtype=complex)
    if np.any(u == 0):
        raise ValueError("start vector has zero entries")

    trace = []
    converged = False
    note = None
    residual = math.inf
    iterations = 0

    for iterations in range(1, max_iter + 1):
        if np.any(u == 0):
            raise ValueError("fixed-point map undefined: iterate has zero entries")
        fu = 1.0 + red.Ztilde @ (red.S0.conj() - S_L.conj() / u.conj())
        residual = float(np.abs(u - fu).max())
        trace.append(residual)
        u = fu
        if residual < tol:
            converged = True
            break
        if np.any(np.abs(u) < DIVERGENCE_CUTOFF):
            note = "diverged: iterate magnitude fell below the inversion cutoff"
            break
    else:
        note = f"no convergence within {max_iter} iterations"

    return FixedPointResult(
        converged=converged,
        u=u,
        V_L=red.E * red.v0 * u,
        iterations=iterations,
        residual=residual,
        trace=tuple(trace),
        note=note,
    )


def reference_contraction(m, radii, n_grid=63):
    """The contraction bound on the full radius grid: a radius whose disc
    reaches the origin gets an infinite supremum instead of being masked out."""
    if radii.degenerate:
        return 0.0
    centers = 1.0 - m.eta_complex
    ts = np.linspace(1.0 / (n_grid + 1), n_grid / (n_grid + 1.0), n_grid)
    grid = radii.r_lo + ts * (radii.r_hi - radii.r_lo)
    rho = grid[:, None] * m.xi
    d = np.abs(centers) ** 2 - rho**2
    safe = np.where(d > 0.0, d, 1.0)
    sup = np.where(d > 0.0, np.abs(1.0 - centers.conj() / safe) + rho / safe, math.inf)
    best = float((sup.max(axis=1) / grid).min())
    return best if best < 1.0 else None


def _kernel_entries(Y: sp.csc_matrix, ang: np.ndarray, mag: np.ndarray, positions) -> tuple:
    """Y's entries that J keeps, from tocoo: (i, k, y, dm), row, column, value and whether the
    entry is a dS/dVm one, the dS/dVa ones first; and J as a csc_matrix whose values are
    positions(P, Q, len(i)), the positions of the P rows' and the Q rows' values among the
    entries' real and imaginary parts. The csc_matrix constructor sorts each column's rows."""
    nb, n = Y.shape[0], len(ang) + len(mag)
    pos_a, pos_m = np.full(nb, -1), np.full(nb, -1)
    pos_a[ang], pos_m[mag] = np.arange(len(ang)), np.arange(len(ang), n)
    Yc = Y.tocoo()
    Yc.eliminate_zeros()
    row = (pos_a[Yc.row] >= 0) | (pos_m[Yc.row] >= 0)
    parts = (row & (pos_a[Yc.col] >= 0), row & (pos_m[Yc.col] >= 0))
    i, k, y = (np.concatenate([a[part] for part in parts]) for a in (Yc.row, Yc.col, Yc.data))
    dm = np.arange(len(i)) >= np.count_nonzero(parts[0])
    P, Q, col = np.flatnonzero(pos_a[i] >= 0), np.flatnonzero(pos_m[i] >= 0), np.where(dm, pos_m[k], pos_a[k])
    J = sp.csc_matrix((positions(P, Q, len(i)), (np.r_[pos_a[i[P]], pos_m[i[Q]]], np.r_[col[P], col[Q]])), (n, n))
    return i, k, y, dm, J


def reference_kernel_arrays(Y: sp.csc_matrix, ang: np.ndarray, mag: np.ndarray) -> dict:
    """The arrays of oracle._NewtonKernel(Y, ang, mag), built through scipy.sparse:
    Y's entries from tocoo, and J's pattern from the csc_matrix constructor, its
    values positions in the (Re, Im) pairs of the complex entries."""
    nb = Y.shape[0]
    i, k, y, dm, J = _kernel_entries(Y, ang, mag, lambda P, Q, m: np.r_[2 * P, 2 * Q + 1])
    return dict(coef=np.where(dm, y.conj(), -1j * y.conj()), i=i, take=k + nb * dm,
                diag=np.where(i == k, i + nb * dm, 2 * nb),
                gather=J.data, indices=J.indices.astype(np.intc), indptr=J.indptr.astype(np.intc),
                var=np.union1d(ang, mag))


def reference_real_jacobian(Y: sp.csc_matrix, ang: np.ndarray, mag: np.ndarray, V: np.ndarray,
                            I: np.ndarray) -> np.ndarray:
    """The values of oracle._NewtonKernel(Y, ang, mag).jacobian(V, I), in its pattern, with the
    complex products spelled out in real arithmetic: each entry p conj(q) + c with U = V/|V| and
    (p, q, c) = (j V_i, [i=k] I_i - Y_ik V_k, 0) for dS_i/dVa_k and (V_i, Y_ik U_k, [i=k] conj(I_i) U_i)
    for dS_i/dVm_k, the real and imaginary parts of each product formed one by one."""
    nb = Y.shape[0]
    i, k, y, dm, J = _kernel_entries(Y, ang, mag, lambda P, Q, m: np.r_[P, m + Q])
    U = V / np.abs(V)
    x = np.concatenate([V, U])[k + nb * dm]
    wr, wi = y.real * x.real - y.imag * x.imag, y.real * x.imag + y.imag * x.real
    g = np.where((i == k) & ~dm, I[i], 0)
    sign = np.where(dm, 1.0, -1.0)
    qr, qi = sign * wr + g.real, sign * wi + g.imag
    cr = np.where((i == k) & dm, (I.real * U.real + I.imag * U.imag)[i], 0.0)
    ci = np.where((i == k) & dm, (I.real * U.imag - I.imag * U.real)[i], 0.0)
    p = np.where(dm, V[i], 1j * V[i])
    return np.concatenate([p.real * qr + p.imag * qi + cr, p.imag * qr - p.real * qi + ci])[J.data]


def reference_series(Y_LL: sp.csc_matrix, E: np.ndarray, d: np.ndarray, terms: int) -> tuple[np.ndarray, np.ndarray]:
    """The coefficients of the zero-load power series that oracle._series_coefficients forms, of the
    fixed-point form u = 1 - lambda Z_E (conj(d) / conj(u)) and of w = 1 / conj(u): c_0 = w_0 = 1,
    c_k = -Z_E (conj(d) w_{k-1}) and w_k = -sum_{m=1..k} conj(c_m) w_{k-m}, each sum an explicit
    loop over m, with Z_E x = Z (x / conj(E)) / E and Z a dense inverse of Y_LL. Returns c and w,
    (terms + 1) x len(E) each."""
    Z = np.linalg.inv(Y_LL.toarray())
    c = np.zeros((terms + 1, len(E)), dtype=complex)
    w = np.zeros_like(c)
    c[0], w[0] = 1, 1
    for k in range(1, terms + 1):
        c[k] = -(Z @ (d.conj() * w[k - 1] / E.conj())) / E
        for m in range(1, k + 1):
            w[k] -= c[m].conj() * w[k - m]
    return c, w


def reference_admittance(case: NetworkCase) -> tuple[sp.csc_matrix, np.ndarray]:
    """admittance.build_admittance's matrix, built through scipy.sparse: the same stamps,
    in the same order, summed by the COO-to-CSC conversion; and the number of stamps in
    each column. That conversion sorts each column's entries with std::sort, which is
    stable for at most 16 entries, so in a column with more stamps it may sum duplicates
    in another order than the stamps'."""
    generator_ids, load_ids = partition_buses(case)
    pos = {bus_id: k for k, bus_id in enumerate(generator_ids + load_ids)}
    n = len(pos)
    rows, cols, vals = [], [], []

    def stamp(i: int, j: int, v: complex) -> None:
        rows.append(i)
        cols.append(j)
        vals.append(v)

    for br in case.branches:
        if br.in_service:
            ys, ych = 1.0 / br.series_impedance, 0.5j * br.charging
            t = br.tap_ratio * cmath.exp(1j * br.phase_shift)
            f, to = pos[br.from_bus], pos[br.to_bus]
            stamp(f, f, (ys + ych) / (t * t.conjugate()))
            stamp(f, to, -ys / t.conjugate())
            stamp(to, f, -ys / t)
            stamp(to, to, ys + ych)
    for b in case.buses:
        if b.shunt != 0:
            stamp(pos[b.id], pos[b.id], b.shunt)
    matrix = sp.coo_matrix((vals, (rows, cols)), shape=(n, n), dtype=complex).tocsc()
    return matrix, np.bincount(np.array(cols, dtype=int), minlength=n)


def reference_matpower_case(source: str) -> NetworkCase:
    """load_case(source, "matpower") read a value at a time: comments cut line by line,
    every token read by float() into lists of rows, every bus number and status checked
    by itself in row order, and every record field tested for finiteness by itself. The
    package's bulk reader must give an equal case with the same bits, or raise the same
    error."""
    try:
        case = _reference_parse_matpower(source)
    except CaseError:
        raise
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise CaseError(f"bad value in the case: {exc}") from exc
    validate_connectivity(case)
    partition_buses(case)
    return case


def _reference_code(line: str) -> str:
    """line up to its first % outside a quoted string, read a character at a time: a quote
    opens a string if a later quote of its kind on the line closes it, else it is text."""
    quote = None
    for k, char in enumerate(line):
        if quote:
            quote = None if char == quote else quote
        elif char in "'\"" and char in line[k + 1:]:
            quote = char
        elif char == "%":
            return line[:k]
    return line


def _reference_parse_matpower(source: str) -> NetworkCase:
    text = "\n".join(map(_reference_code, source.splitlines()))
    blocks, scalars = {}, {}
    for m in _ASSIGNMENT.finditer(text):
        name, value = m.groups()
        line = text.count("\n", 0, m.start()) + 1
        if value.startswith("["):
            if not value.endswith("]"):
                raise CaseSyntaxError(f"matrix '{name}' is never closed", line)
            chunks = [chunk for chunk in re.split(r"[;\n]", value[1:-1]) if chunk.strip().rstrip(",")]
            try:
                blocks[name] = ([[float(tok) for tok in c.replace(",", " ").split()] for c in chunks], line)
            except ValueError as exc:
                raise CaseSyntaxError(f"bad number in matrix '{name}': {exc}", line)
        elif value.startswith("{"):
            if not value.endswith("}"):
                raise CaseSyntaxError(f"cell array '{name}' is never closed", line)
        else:
            value = value.rstrip().rstrip(";").strip()
            if not value.startswith(("'", '"')):
                try:
                    scalars[name] = float(value)
                except ValueError:
                    raise CaseSyntaxError(f"cannot parse scalar '{name}' value {value!r}", line)
    if "baseMVA" not in scalars:
        raise CaseError("missing baseMVA")
    base = scalars["baseMVA"]
    for required in ("bus", "gen", "branch"):
        if required not in blocks:
            raise CaseError(f"missing {required} matrix")

    (bus_rows, bus_line), (gen_rows, gen_line), (branch_rows, branch_line) = (
        blocks["bus"], blocks["gen"], blocks["branch"])
    buses, gens, branches, slack_bus = [], [], [], None
    for k, row in enumerate(bus_rows):
        if len(row) < 13:
            raise CaseSyntaxError(f"bus row {k + 1} has {len(row)} columns, expected >= 13", bus_line)
        bus_id = _integer(row[0], f"bus row {k + 1}: bus_i")
        if _integer(row[1], f"bus row {k + 1}: type", "bus type") == 3 and slack_bus is None:
            slack_bus = bus_id
        buses.append(BusRecord(bus_id, complex(row[2], row[3]) / base, complex(row[4], row[5]) / base,
                               row[7], math.radians(row[8])))
    for k, row in enumerate(gen_rows):
        if len(row) < 8:
            raise CaseSyntaxError(f"gen row {k + 1} has {len(row)} columns, expected >= 8", gen_line)
        gens.append(GenRecord(_integer(row[0], f"gen row {k + 1}: bus"), row[5], row[1] / base,
                              math.ceil(row[7]) > 0))
    for k, row in enumerate(branch_rows):
        if len(row) < 11:
            raise CaseSyntaxError(f"branch row {k + 1} has {len(row)} columns, expected >= 11", branch_line)
        tap = row[8] if row[8] != 0 else 1.0
        branches.append(BranchRecord(_integer(row[0], f"branch row {k + 1}: fbus"),
                                     _integer(row[1], f"branch row {k + 1}: tbus"), complex(row[2], row[3]),
                                     row[4], tap, math.radians(row[9]), math.ceil(row[10]) > 0))
    if 0 < base < math.inf:  # build_case tests the base before the fields
        for record in (*buses, *branches, *gens):
            for name, value in vars(record).items():
                if not cmath.isfinite(value):
                    raise CaseError(f"non-finite {name} in {record}")
    return build_case(base, buses, branches, gens, slack_bus)
