"""Time each stage of a Newton-oracle limit on the 7 bundled cases' base directions, one BLAS thread.

The stages, in microseconds per call: `reduce_case` (the reduction with its `Y_LL`
factor), the kernel build (`_NewtonKernel` over the load buses, which a reduction
makes on first use), `_series_start` (the zero-load power series, 40 `Y_LL`
solves), one Jacobian fill (`_NewtonKernel.jacobian` at the no-load voltages),
one Jacobian factorization (`admittance.lu`), one step solve with that factor,
and the whole `actual_limit` along the base direction. Each figure is the
minimum over 7 rounds of a `timeit` loop that runs at least 20 ms. The last
column is the series' share of the limit.

    python scripts/oracle_stages.py
"""

import os
import sys
import timeit
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads OpenBLAS

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from pfcert import admittance, limits, oracle  # noqa: E402
from pfcert.net_model import load_case_file  # noqa: E402

from conftest import BUNDLED  # noqa: E402

ROUNDS, BUDGET = 7, 0.02


def fastest(f) -> float:
    """The minimum over ROUNDS of a timeit loop of at least BUDGET seconds, in microseconds per call."""
    number = 1
    while timeit.timeit(f, number=number) < BUDGET:
        number *= 2
    return 1e6 * min(timeit.repeat(f, number=number, repeat=ROUNDS)) / number


def stages(name: str) -> dict[str, float]:
    case = load_case_file(ROOT / "data" / f"{name}.m")
    red, S = limits.prepare(case)
    kernel = red.kernel
    load = np.arange(len(red.generator_ids), red.Y.shape[0])
    V = np.concatenate([red.V_G, red.E])
    I = red.Y @ V
    J = kernel.jacobian(V, I)
    factor = admittance.lu(J, kernel.indices, kernel.indptr)
    b = np.ones(len(kernel.indptr) - 1)
    return {
        "reduce_case": fastest(lambda: admittance.reduce_case(case)),
        "kernel": fastest(lambda: oracle._NewtonKernel(red.Y, load, load)),
        "series": fastest(lambda: oracle._series_start(red, S, 1e-3, None)),
        "fill": fastest(lambda: kernel.jacobian(V, I, J)),
        "lu": fastest(lambda: admittance.lu(J, kernel.indices, kernel.indptr)),
        "solve": fastest(lambda: factor.solve(b)),
        "actual_limit": fastest(lambda: oracle.actual_limit(case, S, network=red)),
    }


def main() -> None:
    print("Oracle stages on the base directions, microseconds per call (timeit minimum, one BLAS thread)")
    print()
    rows = {name: stages(name) for name in BUNDLED}
    header = list(next(iter(rows.values())))
    print("| case | " + " | ".join(header) + " | series / limit |")
    print("| --- |" + " ---: |" * (len(header) + 1))
    for name, row in rows.items():
        cells = " | ".join(f"{row[key]:.1f}" for key in header)
        print(f"| {name} | {cells} | {row['series'] / row['actual_limit']:.0%} |")


if __name__ == "__main__":
    main()
