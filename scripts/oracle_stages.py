"""Time each stage of a Newton-oracle limit on the 7 bundled cases' base directions, one BLAS thread.

Each row names the case's load-bus count n and the series' path, which follows the
backend of the reduction's `Y_LL` factor (`admittance.DENSE_MAX` decides): "operator"
where it is LAPACK's, and the series forms one dense n x n operator by one n-column
`Y_LL` solve and applies it to each term, and "solves" where it is SuperLU's, one
`Y_LL` solve per term. The stages, in microseconds per call: `reduce_case` (the
reduction with its `Y_LL` factor), the kernel build (`_NewtonKernel` over the load
buses, which a reduction makes on first use), forming the series' operator with
LAPACK's factor, the whole zero-load series (`_series_coefficients`, then
`_series_start`) on each path, each forced by factoring `Y_LL` with that path's
backend whatever its order, one Jacobian fill (`_NewtonKernel.jacobian` at the no-load
voltages), one Jacobian factorization (`admittance.lu`), one step solve with that
factor, and the whole `actual_limit` along the base direction. Each figure is the
minimum over 7 rounds of a `timeit` loop that runs at least 20 ms. The last column
is the share of the limit taken by the series on the path the case takes.

    python scripts/oracle_stages.py
"""

import math
import os
import sys
import timeit
from dataclasses import replace
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads OpenBLAS

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from pfcert import admittance, limits, oracle  # noqa: E402
from pfcert.admittance import DENSE_MAX  # noqa: E402
from pfcert.net_model import load_case_file  # noqa: E402

from conftest import BUNDLED  # noqa: E402

ROUNDS, BUDGET = 7, 0.02


def fastest(f) -> float:
    """The minimum over ROUNDS of a timeit loop of at least BUDGET seconds, in microseconds per call."""
    number = 1
    while timeit.timeit(f, number=number) < BUDGET:
        number *= 2
    return 1e6 * min(timeit.repeat(f, number=number, repeat=ROUNDS)) / number


def forced(red, dense: bool):
    """red with its Y_LL factored by LAPACK or by SuperLU, whatever its order: the series' path follows."""
    admittance.DENSE_MAX = math.inf if dense else -1
    try:
        return replace(red, lu=admittance.lu(red.Y_LL.data, red.Y_LL.indices, red.Y_LL.indptr))
    finally:
        admittance.DENSE_MAX = DENSE_MAX


def stages(name: str) -> tuple[int, str, dict[str, float]]:
    """The case's load-bus count, its series path and each stage's time."""
    case = load_case_file(ROOT / "data" / f"{name}.m")
    red, S = limits.prepare(case)
    g, inv = S.conj() / red.E.conj(), 1.0 / red.E
    kernel = red.kernel
    load = np.arange(len(red.generator_ids), red.Y.shape[0])
    V = np.concatenate([red.V_G, red.E])
    I = red.Y @ V
    J = kernel.jacobian(V, I)
    factor = admittance.lu(J, kernel.indices, kernel.indptr)
    b = np.ones(len(kernel.indptr) - 1)
    dense, sparse = forced(red, True), forced(red, False)
    path = "operator" if isinstance(red.lu, admittance._DenseFactor) else "solves"
    return len(S), path, {
        "reduce_case": fastest(lambda: admittance.reduce_case(case)),
        "kernel": fastest(lambda: oracle._NewtonKernel(red.Y, load, load)),
        "operator": fastest(lambda: dense.lu.solve(np.diag(g)) * inv[:, None]),
        "series (operator)": fastest(lambda: oracle._series_start(oracle._series_coefficients(dense, S), red.E,
                                                                  1e-3, None)),
        "series (solves)": fastest(lambda: oracle._series_start(oracle._series_coefficients(sparse, S), red.E,
                                                                1e-3, None)),
        "fill": fastest(lambda: kernel.jacobian(V, I)),
        "lu": fastest(lambda: admittance.lu(J, kernel.indices, kernel.indptr)),
        "solve": fastest(lambda: factor.solve(b)),
        "actual_limit": fastest(lambda: oracle.actual_limit(case, S, network=red)),
    }


def main() -> None:
    print("Oracle stages on the base directions, microseconds per call (timeit minimum, one BLAS thread)")
    print()
    rows = {name: stages(name) for name in BUNDLED}
    header = list(next(iter(rows.values()))[2])
    print("| case | n | series path | " + " | ".join(header) + " | series / limit |")
    print("| --- | ---: | --- |" + " ---: |" * (len(header) + 1))
    for name, (n, path, row) in rows.items():
        cells = " | ".join(f"{row[key]:.1f}" for key in header)
        print(f"| {name} | {n} | {path} | {cells} | {row[f'series ({path})'] / row['actual_limit']:.0%} |")


if __name__ == "__main__":
    main()
