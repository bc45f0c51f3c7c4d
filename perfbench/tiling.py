"""Tiled synthetic grids: k copies of a bundled case joined by seeded tie lines.

A tiling measures cost at a size the bundled cases do not reach. It is not a
real system and never stands in for a published test case: its solvability
limits are not compared against anything.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from pfcert.net_model import BranchRecord, NetworkCase, build_case, validate_connectivity


def tile_case(base: NetworkCase, copies: int, seed: int) -> NetworkCase:
    """Join `copies` copies of `base` into one connected case.

    Copy c renumbers bus b as c * stride + b. Copy c is tied to copy c + 1 by
    one line (so the chain is connected), and `copies` more lines join
    random pairs of copies; ends and impedances are drawn from `seed`. Loads,
    shunts and generators are copied unchanged. Only copy 0 keeps the slack.
    """
    if copies < 1:
        raise ValueError("copies must be at least 1")
    rng = np.random.default_rng(seed)
    stride = 10 ** len(str(max(b.id for b in base.buses)))
    bus_ids = np.array([b.id for b in base.buses])

    buses, branches, gens = [], [], []
    for c in range(copies):
        off = c * stride
        buses.extend(replace(b, id=b.id + off) for b in base.buses)
        branches.extend(
            replace(br, from_bus=br.from_bus + off, to_bus=br.to_bus + off) for br in base.branches
        )
        gens.extend(replace(g, bus=g.bus + off) for g in base.gens)

    pairs = [(c, c + 1) for c in range(copies - 1)]
    if copies > 1:
        pairs += [tuple(rng.choice(copies, size=2, replace=False)) for _ in range(copies)]
    for ca, cb in pairs:
        a, b = rng.choice(bus_ids, size=2)
        x = rng.uniform(0.02, 0.08)
        branches.append(
            BranchRecord(
                from_bus=int(a) + int(ca) * stride,
                to_bus=int(b) + int(cb) * stride,
                series_impedance=complex(0.1 * x, x),
                charging=0.0,
            )
        )

    case = build_case(base.base_mva, buses, branches, gens, slack_bus=base.slack_bus)
    validate_connectivity(case)
    return case
