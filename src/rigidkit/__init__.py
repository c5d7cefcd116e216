"""Explicit matrix constructions for SO+(m,n) and SU(m,n), m >= n >= 3.

Restricted root systems, unipotent generators, chain/Weyl elements and
rotation words, relation verification suites, staircase normal forms for the
compact rotation subgroups, and the Lyapunov combinatorics of the split
Cartan action.
"""

from .matrixcore import GroupSpec, Tolerance, DEFAULT_TOL, bracket, in_group
from .rootsystem import RootLabel, RootInfo, roots, root_space_basis, root_value, parse_root, embed
from .generators import Scalar, Cx, RVec, Heis, x_elem, w_elem, h_rot, w_closed_form
from .relations import run_suite, verify_all, commutator_decompose, trace_pairing
from .words import Letter, free_reduce, staircase_decompose, reconstruct
from .lyapunov import (exponent_table, splitting, bracket_generation_check, stable_cycle_feasible,
                       CycleSpec)

__all__ = [
    "GroupSpec", "Tolerance", "DEFAULT_TOL", "bracket", "in_group",
    "RootLabel", "RootInfo", "roots", "root_space_basis", "root_value", "parse_root", "embed",
    "Scalar", "Cx", "RVec", "Heis", "x_elem", "w_elem", "h_rot", "w_closed_form",
    "run_suite", "verify_all", "commutator_decompose", "trace_pairing",
    "Letter", "free_reduce", "staircase_decompose", "reconstruct",
    "exponent_table", "splitting", "bracket_generation_check", "stable_cycle_feasible",
    "CycleSpec",
]
