"""Time the Newton kernel's two factorization backends on its own Jacobians, to place DENSE_MAX.

For each bundled case it builds the two kernels the oracle runs: the load form of
`newton_solve` and `actual_limit` (its Jacobian at the no-load voltages, and that
matrix with column 0 held by the base load's loading column, as a continuation
corrector builds it), and the base-case form of `newton_base_case` (its Jacobian at
the flat start). Each matrix is factored, and the factor solves one right-hand
side, by LAPACK (`_NewtonKernel.factor_dense`) and by SuperLU
(`_NewtonKernel.factor_sparse`), in alternating rounds; a row gives the fastest
round of each, in microseconds per call, ordered by the matrix's order. A limit
solves 1.6 times per factorization on the oracle_limits inputs (270 solves, 171
factorizations), so `ratio` is (dense factor + 1.6 dense solves) / (SuperLU
factor + 1.6 SuperLU solves); the kernel factors dense up to the order where it
reaches 1.

    OPENBLAS_NUM_THREADS=1 python scripts/factor_crossover.py
"""

import sys
import timeit
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from pfcert import limits  # noqa: E402
from pfcert.admittance import build_admittance  # noqa: E402
from pfcert.net_model import load_case_file  # noqa: E402
from pfcert.oracle import DENSE_MAX, _NewtonKernel  # noqa: E402

from conftest import BUNDLED  # noqa: E402

ROUNDS, NUMBER, SOLVES = 15, 200, 1.6


def matrices(name: str):
    """(label, (data, indices, indptr)) of each matrix the case's two kernels factor."""
    case = load_case_file(ROOT / "data" / f"{name}.m")
    red, S = limits.prepare(case)
    kernel = red.kernel
    V = np.concatenate([red.V_G, red.E])
    J = kernel.jacobian(V, red.Y @ V)
    yield "load", (J, kernel.indices, kernel.indptr)
    yield "load, held", kernel.held_column(0, np.concatenate([S.real, S.imag]))(J)[:3]
    Y = build_admittance(case)
    m, nb = Y.n_gen, len(Y.bus_order)
    slack = case.slack_bus if case.slack_bus in Y.bus_order[:m] else Y.bus_order[0]
    base = _NewtonKernel(Y.matrix, np.delete(np.arange(nb), Y.bus_order.index(slack)), np.arange(m, nb))
    V = np.ones(nb, dtype=complex)
    yield "base case", (base.jacobian(V, Y.matrix @ V), base.indices, base.indptr)


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
        for label, A in matrices(name):
            n = len(A[2]) - 1
            b = np.random.default_rng(n).standard_normal(n)
            (df, ds), (sf, ss) = fastest((_NewtonKernel.factor_dense, _NewtonKernel.factor_sparse), A, b)
            rows.append((n, name, label, df, ds, sf, ss, (df + SOLVES * ds) / (sf + SOLVES * ss)))
    print(f"DENSE_MAX = {DENSE_MAX}; microseconds per call, fastest of {ROUNDS} rounds of {NUMBER}")
    print(f"{'order':>5}  {'case':<16}{'matrix':<12}{'LAPACK factor':>14}{'solve':>7}{'SuperLU factor':>16}"
          f"{'solve':>7}{'ratio':>7}")
    for n, name, label, df, ds, sf, ss, ratio in sorted(rows):
        print(f"{n:5d}  {name:<16}{label:<12}{df:14.1f}{ds:7.1f}{sf:16.1f}{ss:7.1f}{ratio:7.2f}")


if __name__ == "__main__":
    main()
