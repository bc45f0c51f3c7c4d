"""Certified AC power-flow solvability analysis.

Builds explicit per-bus voltage polydiscs that are guaranteed to contain
exactly one power-flow solution, solves the equations by certified
fixed-point iteration, and estimates how far loads can scale before
solvability is lost, with an independent Newton oracle for ground truth.
"""

__version__ = "0.1.0"

from .admittance import (
    AdmittanceMatrix,
    GridReduction,
    NotASolutionError,
    SingularNetworkError,
    build_admittance,
    reduce_case,
    reduce_network,
    renormalize_about_solution,
)
from .certificate import (
    Certificate,
    ShellCertificate,
    VoltageBounds,
    certify,
    certify_all,
    certify_dvijotham,
    certify_wang,
    voltage_bounds,
)
from .fixed_point import FixedPointResult, evaluate_F, solve_fixed_point
from .limits import LimitEstimates, SweepResult, bound_profile, direction_sweep, lambda_all
from .net_model import (
    BranchRecord,
    BusRecord,
    CaseError,
    GenRecord,
    IslandError,
    NetworkCase,
    build_case,
    load_case,
    load_case_file,
    partition_buses,
    validate_connectivity,
)
from .oracle import NewtonResult, actual_limit, newton_base_case, newton_solve
from .stress import DiscRadii, NoCertificate, StressMeasures, compute_radii, compute_stress

__all__ = [name for name in dir() if not name.startswith("_")]
