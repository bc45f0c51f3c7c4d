"""Certified AC power-flow solvability analysis.

Builds explicit per-bus voltage polydiscs that are guaranteed to contain
exactly one power-flow solution, solves the equations by certified
fixed-point iteration, and estimates how far loads can scale before
solvability is lost, with an independent Newton oracle for ground truth.
"""

__version__ = "0.1.0"
