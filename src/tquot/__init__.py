"""Combinatorial models of Hamiltonian torus actions and their quotients.

The package reconstructs the momentum polytope of a compact Hamiltonian
torus space from its fixed-point data, stratifies the polytope faces by
complexity, classifies the topology of the geometric quotient where the
complexity-one theory applies, and verifies the verdicts at desk scale
through exact integral homology of simplicial models.
"""

from tquot.classify import TopologyReport, classify
from tquot.hamspace import (
    FixedComponent,
    HamSpec,
    SpecError,
    StratifiedPolytope,
    general_position,
    point_component,
    stratify,
    surface_component,
    validate,
)
from tquot.polytope import RationalPolytope, convex_hull, face_lattice
from tquot.simplicial import HomologyProfile, OrderedComplex, homology, verify_report

__version__ = "0.1.0"

__all__ = [
    "FixedComponent",
    "HamSpec",
    "HomologyProfile",
    "OrderedComplex",
    "RationalPolytope",
    "SpecError",
    "StratifiedPolytope",
    "TopologyReport",
    "classify",
    "convex_hull",
    "face_lattice",
    "general_position",
    "homology",
    "point_component",
    "stratify",
    "surface_component",
    "validate",
    "verify_report",
]
