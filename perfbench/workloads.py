"""The benchmark's four workloads.

Each workload builds a fixed list of inputs in set-up (one round) and runs
them as a closed loop with one client. The harness times `run` only;
`prepare` (per-repeat input jitter, tilings) and `check` run outside the
timer. A repeat of an input is jittered by a relative 1e-9 per entry, so no
cache keyed on the input's identity or value can hit across repeats while
the work stays the same.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import zlib
from pathlib import Path
from time import perf_counter

import numpy as np

from pfcert import certificate, fixed_point, limits, net_model, oracle, stress

import checker
from checker import PUBLISHED_LIMITS, PowerBalance, require
from tiling import tile_case

BUNDLED = ("case9", "case14", "case24_ieee_rts", "case30", "case39", "case57", "case118")
REPRODUCIBLE = tuple(PUBLISHED_LIMITS)
JITTER = 1e-9


def rng_for(seed: int, *key) -> np.random.Generator:
    """A generator fixed by the seed and a key of names and numbers."""
    return np.random.default_rng([seed, *(zlib.crc32(k.encode()) if isinstance(k, str) else k for k in key)])


def perturbed(S: np.ndarray, rng: np.random.Generator, spread: float = 0.3, turn: float = 0.3) -> np.ndarray:
    """A loading direction near S: each load's size and power angle moved at random."""
    n = len(S)
    return S * rng.uniform(1.0 - spread, 1.0 + spread, n) * np.exp(1j * rng.uniform(-turn, turn, n))


def jittered(d: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    return d * (1.0 + JITTER * rng.standard_normal(len(d)))


class Workload:
    """Base class: set-up builds `self.inputs`, one round of operations."""

    name = ""
    reference = "interpreter"  # kernel that calibrates times (see run.Calibration), or None
    best_of = False  # an input's time: its median over repeats, or (True) its minimum
    ref_every = 1  # operations between two calibration bursts of the reference kernel
    in_process = True

    def __init__(self, root: Path, smoke: bool):
        self.root = root
        self.smoke = smoke
        self.inputs: list = []
        self.tracer = None  # set by the harness for a traced run

    def case_path(self, name: str) -> Path:
        return self.root / "data" / f"{name}.m"

    def load(self, name: str):
        return net_model.load_case_file(self.case_path(name))

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def prepare(self, j: int, rng: np.random.Generator):
        return self.inputs[j]

    def run(self, x):
        raise NotImplementedError

    def check(self, x, out) -> None:
        raise NotImplementedError


class CertifyBundled(Workload):
    """Certificate queries on the bundled cases, reductions made in set-up."""

    name = "certify_bundled"
    reference = "mixed"  # its tail is vectorized numpy, its median interpreter-bound
    ref_every = 8

    def setup(self, seed: int) -> None:
        per_case = 2 if self.smoke else 400
        self.nets = []
        for name in BUNDLED:
            case = self.load(name)
            red, S = limits.prepare(case)
            self.nets.append((red, S, PowerBalance(case)))
        rng = rng_for(seed, self.name)
        # factors s stratified over [0.2, 0.95] (70%) and [1.05, 1.6] (30%) per case, so
        # every seed has as many near-boundary queries, which set the tail
        below = round(0.7 * per_case)
        strata = np.concatenate([0.2 + 0.75 * (np.arange(below) + rng.random(below)) / below,
                                 1.05 + 0.55 * (np.arange(per_case - below) + rng.random(per_case - below))
                                 / (per_case - below)])
        factors = [rng.permutation(strata) for _ in self.nets]
        self.inputs = [(k, perturbed(S, rng), float(factors[k][i]))
                       for i in range(per_case) for k, (_, S, _) in enumerate(self.nets)]

    def prepare(self, j, rng):
        k, d, s = self.inputs[j]
        return self.nets[k][0], jittered(d, rng), s, k

    def run(self, x):
        red, d, s, _ = x
        est = limits.lambda_all(red, d)
        S = s * est.lambda_p * d
        m = stress.compute_stress(red.Ztilde, S)
        cert = certificate.certify(m)
        m0 = stress.compute_stress(red.Ztilde, np.zeros_like(S))
        wang = certificate.certify_wang(m0, m)
        dvij = certificate.certify_dvijotham(m)
        vb = fp = None
        if cert.holds:
            vb = certificate.voltage_bounds(cert, red)
            fp = fixed_point.solve_fixed_point(red, S, certificate=cert)
        return est, S, cert, wang, dvij, vb, fp

    def check(self, x, out) -> None:
        red, _, s, k = x
        est, S, cert, wang, dvij, vb, fp = out
        require(cert.holds == (s < 1.0), f"certificate holds={cert.holds} at {s:.4f} x lambda_p")
        checker.check_dominance(est.lambda_p, est.lambda_w, est.lambda_d)
        require(cert.holds or not (wang.holds or dvij.holds), "a baseline holds where the certificate fails")
        if cert.holds:
            require(cert.mu_bound is not None and 0.0 <= cert.mu_bound < 1.0, f"mu_bound {cert.mu_bound}")
            require(fp.converged, f"fixed point did not converge: {fp.note}")
            self.nets[k][2].check_solution(red.load_ids, fp.V_L, S)
            checker.check_inside_bounds(vb, fp.V_L)


class OracleLimits(Workload):
    """True limits by the Newton oracle, with lambda_p along the same direction."""

    name = "oracle_limits"
    perturbed = 3  # directions per case, besides the base direction
    # The perturbed directions come from this fixed seed, not from --seed: the
    # bisection's probe count follows the binary digits of each direction's
    # limit, so directions drawn per seed moved a round's Newton iterations by
    # +-4.5% and its time by +-8% between seeds. --seed still sets the jitter.
    directions_seed = 20190420

    def setup(self, seed: int) -> None:
        names = REPRODUCIBLE[:2] if self.smoke else REPRODUCIBLE
        rng = rng_for(self.directions_seed, self.name)
        self.nets = {}
        inputs = []
        for name in names:
            case = self.load(name)
            red, S = limits.prepare(case)
            self.nets[name] = (case, red)
            inputs.append((name, "base", S))
            inputs += [(name, "perturbed", perturbed(S, rng, spread=0.2, turn=0.2))
                       for _ in range(1 if self.smoke else self.perturbed)]
        self.inputs = inputs

    def prepare(self, j, rng):
        name, kind, d = self.inputs[j]
        case, red = self.nets[name]
        return case, red, jittered(d, rng), name, kind

    def run(self, x):
        case, red, d, _, _ = x
        actual = oracle.actual_limit(case, direction=d, bracket=(1e-3, None))
        return actual, limits.lambda_all(red, d)

    def check(self, x, out) -> None:
        _, _, _, name, kind = x
        actual, est = out
        require(est.lambda_p <= actual, f"{name} {kind}: lambda_p {est.lambda_p} above lambda_actual {actual}")
        if kind == "base":
            checker.check_published(name, "lambda_actual", actual)


class ScaleTiled(Workload):
    """prepare + lambda_all + certify + fixed-point solve on a large tiled grid.

    Every operation gets a distinct tiling (its tie lines drawn from the seed
    and the round), built just before it and outside its timer: how many a
    run needs depends on the program's speed.
    """

    name = "scale_tiled"
    reference = None  # no reference kernel tracked its dense linear algebra (see README)
    copies = 40

    def setup(self, seed: int) -> None:
        self.base = self.load("case118")
        self.inputs = [2 if self.smoke else self.copies]

    def prepare(self, j, rng):
        return tile_case(self.base, self.inputs[j], int(rng.integers(2**32)))

    def run(self, case):
        red, S = limits.prepare(case)
        est = limits.lambda_all(red, S)
        S_half = 0.5 * est.lambda_p * S
        cert = certificate.certify(stress.compute_stress(red.Ztilde, S_half))
        fp = fixed_point.solve_fixed_point(red, S_half, certificate=cert) if cert.holds else None
        return red.load_ids, est, S_half, cert.holds, fp

    def check(self, case, out) -> None:
        load_ids, est, S_half, holds, fp = out
        checker.check_dominance(est.lambda_p, est.lambda_w, est.lambda_d)
        require(holds, "certificate fails at 0.5 lambda_p")
        require(fp.converged, f"fixed point did not converge: {fp.note}")
        PowerBalance(case).check_solution(load_ids, fp.V_L, S_half)


class CliCommands(Workload):
    """One `pfcert` command per operation, each in a fresh interpreter."""

    name = "cli_commands"
    reference = None  # process start-up and imports did not move with a reference kernel
    best_of = True  # a command's best repeat: its median moved +-10% between runs, its best +-5%
    in_process = False

    def env(self) -> dict:
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        return env

    def spawn(self, args: list[str]) -> subprocess.CompletedProcess:
        if self.tracer is None:
            argv = [sys.executable, "-m", "pfcert.cli", *args]
            span_file = None
        else:
            span_file = self.root / "perfbench" / "results" / f"child-{os.getpid()}.jsonl"
            argv = [sys.executable, str(Path(__file__).with_name("cli_child.py")), str(span_file),
                    repr(perf_counter()), *args]
        proc = subprocess.run(argv, capture_output=True, env=self.env(), cwd=self.root, text=True, timeout=120)
        if span_file is not None:
            self.tracer.absorb(span_file)
        return proc

    def setup(self, seed: int) -> None:
        rng = rng_for(seed, self.name)
        warm = self.spawn(["--version"])
        require(warm.returncode == 0, f"pfcert --version exited {warm.returncode}: {warm.stderr}")
        self.lambda_p = {n: PUBLISHED_LIMITS[n][0] for n in REPRODUCIBLE}
        pick = [str(n) for n in rng.permutation(REPRODUCIBLE)]  # each case once per round
        lo = float(rng.uniform(0.5, 0.95))
        hi = float(rng.uniform(1.05, 1.5))
        inputs = [
            ("limits", pick[0], ["limits", "--case", self.case_path(pick[0])]),
            ("certify_below", pick[1], ["certify", "--case", self.case_path(pick[1]),
                                        "--scale", repr(lo * self.lambda_p[pick[1]])]),
            ("certify_above", pick[2], ["certify", "--case", self.case_path(pick[2]),
                                        "--scale", repr(hi * self.lambda_p[pick[2]])]),
            ("solve", pick[3], ["solve", "--case", self.case_path(pick[3]),
                                "--scale", repr(float(rng.uniform(0.3, 0.9)) * self.lambda_p[pick[3]])]),
            ("sweep", pick[4], ["sweep", "--case", self.case_path(pick[4]), "--points", "24"]),
        ]
        case = self.load(pick[5])
        bus = int(rng.choice(net_model.partition_buses(case)[1]))
        step = round(0.1 * self.lambda_p[pick[5]], 6)
        inputs.append(("bounds", pick[5], ["bounds", "--case", self.case_path(pick[5]), "--bus", str(bus),
                                           "--scale-grid", f"{5 * step}:{15 * step}:{step}"]))
        if self.smoke:
            inputs = inputs[:3]
        self.inputs = [(kind, name, [str(a) for a in args]) for kind, name, args in inputs]

    def run(self, x):
        return self.spawn(x[2])

    def check(self, x, out) -> None:
        kind, name, _ = x
        expected = 1 if kind == "certify_above" else 0
        require(out.returncode == expected,
                f"{kind} {name}: exit {out.returncode}, expected {expected}: {out.stderr[-300:]}")
        doc = json.loads(out.stdout)
        if kind.startswith("certify"):
            require(doc["certificate"]["holds"] == (expected == 0), f"{kind} {name}: holds disagrees with exit code")
        elif kind == "limits":
            for field in ("lambda_p", "lambda_d", "lambda_w"):
                checker.check_published(name, field, doc[field])
        elif kind == "solve":
            require(doc["meta"]["residual"] < 1e-10 and len(doc["voltages"]) > 0, f"solve {name}: bad artifact")
        elif kind == "sweep":
            require(len(doc["points"]) == 24, f"sweep {name}: {len(doc['points'])} points")
            for p in doc["points"]:
                checker.check_dominance(p["lambda_p"] * (1 + 1e-8), p["lambda_w"], p["lambda_d"])
        elif kind == "bounds":
            rows = doc["profile"]
            require(len(rows) == 11, f"bounds {name}: {len(rows)} rows for 11 grid points")
            for row in rows:
                ratio = row["lambda"] / self.lambda_p[name]
                if ratio <= 0.97:
                    require(row["proposed"] is not None, f"bounds {name}: no bound at {ratio:.2f} x lambda_p")
                if ratio >= 1.03:
                    require(row["proposed"] is None, f"bounds {name}: a bound at {ratio:.2f} x lambda_p")


WORKLOADS = {w.name: w for w in (CertifyBundled, OracleLimits, ScaleTiled, CliCommands)}
