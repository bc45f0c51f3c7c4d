"""Time the factor seam's two backends on the matrices pfcert factors, to place DENSE_MAX.

`admittance.lu` factors every matrix: each reduction's complex `Y_LL` and the Newton
oracle's real Jacobians. For each bundled case it takes `Y_LL` and the matrices of
the oracle's two kernels: the load form of `newton_solve` and `actual_limit` (its
Jacobian at the no-load voltages, and that matrix with column 0 held by the base
load's loading column, as a continuation corrector builds it), and the base-case
form of `newton_base_case` (its Jacobian at the flat start). Each matrix is
factored, and the factor solves one right-hand side, by LAPACK and by SuperLU (the
seam with its backend forced), in alternating rounds; a row gives the fastest round
of each, in microseconds per call, ordered by the matrix's order in real unknowns
(twice the order of a complex matrix), the order `lu` compares with DENSE_MAX.
`ratio` is (dense factor + k dense solves) / (SuperLU factor + k SuperLU solves),
with the solves a factor makes: a limit solves 1.6 times per Jacobian factorization
on the oracle_limits inputs (270 solves, 171 factorizations), and 41 times with
`Y_LL`'s (E and the zero-load series' 40 coefficients). The last lines give each
kind's crossover: the largest order at which LAPACK is faster and the smallest at
which SuperLU is.

    OPENBLAS_NUM_THREADS=1 python scripts/factor_crossover.py
"""

import math
import sys
import timeit
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from pfcert import admittance, limits  # noqa: E402
from pfcert.admittance import DENSE_MAX, build_admittance  # noqa: E402
from pfcert.net_model import load_case_file  # noqa: E402
from pfcert.oracle import _NewtonKernel  # noqa: E402

from conftest import BUNDLED  # noqa: E402

ROUNDS, NUMBER = 15, 200
SOLVES = {"Jacobian": 1.6, "Y_LL": 41}


def matrices(name: str):
    """(kind, label, (data, indices, indptr)) of each matrix the case's reduction and kernels factor."""
    case = load_case_file(ROOT / "data" / f"{name}.m")
    red, S = limits.prepare(case)
    yield "Y_LL", "Y_LL", (red.Y_LL.data, red.Y_LL.indices, red.Y_LL.indptr)
    kernel = red.kernel
    V = np.concatenate([red.V_G, red.E])
    J = kernel.jacobian(V, red.Y @ V)
    yield "Jacobian", "load", (J, kernel.indices, kernel.indptr)
    yield "Jacobian", "load, held", kernel.held_column(0, np.concatenate([S.real, S.imag]))(J)[:3]
    Y = build_admittance(case)
    m, nb = Y.n_gen, len(Y.bus_order)
    slack = case.slack_bus if case.slack_bus in Y.bus_order[:m] else Y.bus_order[0]
    base = _NewtonKernel(Y.matrix, np.delete(np.arange(nb), Y.bus_order.index(slack)), np.arange(m, nb))
    V = np.ones(nb, dtype=complex)
    yield "Jacobian", "base case", (base.jacobian(V, Y.matrix @ V), base.indices, base.indptr)


def forced(dense: bool):
    """admittance.lu with its backend forced, LAPACK's or SuperLU's, whatever the order; the
    reductions the script builds between calls keep the rule."""
    limit = math.inf if dense else -1

    def factor(*A):
        admittance.DENSE_MAX = limit
        try:
            return admittance.lu(*A)
        finally:
            admittance.DENSE_MAX = DENSE_MAX

    return factor


def fastest(backends, A, b) -> list[tuple[float, float]]:
    """Each backend's fastest round: (factor, solve) in microseconds per call."""
    best = [[np.inf, np.inf] for _ in backends]
    for _ in range(ROUNDS):
        for k, factor in enumerate(backends):
            lu = factor(*A)
            best[k][0] = min(best[k][0], timeit.timeit(lambda: factor(*A), number=NUMBER) / NUMBER * 1e6)
            best[k][1] = min(best[k][1], timeit.timeit(lambda: lu.solve(b), number=NUMBER) / NUMBER * 1e6)
    return best


def main() -> None:
    rows = []
    for name in BUNDLED:
        for kind, label, A in matrices(name):
            n = len(A[2]) - 1
            rng = np.random.default_rng(n)
            b = rng.standard_normal(n) if A[0].dtype == float else rng.standard_normal(n) + 1j * rng.standard_normal(n)
            (df, ds), (sf, ss) = fastest((forced(True), forced(False)), A, b)
            k = SOLVES[kind]
            order = n * (2 if A[0].dtype == complex else 1)
            rows.append((order, name, label, kind, df, ds, sf, ss, (df + k * ds) / (sf + k * ss)))
    print(f"DENSE_MAX = {DENSE_MAX} real unknowns; microseconds per call, fastest of {ROUNDS} rounds of {NUMBER}")
    print(f"{'order':>5}  {'case':<16}{'matrix':<12}{'LAPACK factor':>14}{'solve':>7}{'SuperLU factor':>16}"
          f"{'solve':>7}{'ratio':>7}")
    for order, name, label, _, df, ds, sf, ss, ratio in sorted(rows):
        print(f"{order:5d}  {name:<16}{label:<12}{df:14.1f}{ds:7.1f}{sf:16.1f}{ss:7.1f}{ratio:7.2f}")
    for kind, k in SOLVES.items():
        dense = [r[0] for r in rows if r[3] == kind and r[-1] < 1]
        sparse = [r[0] for r in rows if r[3] == kind and r[-1] >= 1]
        print(f"{kind} (factor + {k} solves): LAPACK faster up to order {max(dense, default='-')}, "
              f"SuperLU from order {min(sparse, default='-')}; lu factors dense up to {DENSE_MAX}")


if __name__ == "__main__":
    main()
