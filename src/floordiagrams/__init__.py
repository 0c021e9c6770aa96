"""Refined curve counting on h-transverse polygons via floor diagrams."""

from .laurent import LaurentError, LaurentPoly, quantum_square
from .polygon import HPolygon, PolygonError
from .floordiag import DiagramError, FloorDiagram, enumerate_diagrams, refined_invariant
from .invariants import (
    CACHE_ENV_VAR,
    ENGINE_VERSION,
    InvariantError,
    InvariantKey,
    InvariantRecord,
    InvariantTable,
    max_pairs,
)
from .surgery import (
    SurgeryError,
    check_conjecture_quadric,
    check_increase,
    check_mainproof_coeffs,
    check_u_inversion,
    u_coeff,
)

__version__ = ENGINE_VERSION

__all__ = [
    "CACHE_ENV_VAR",
    "ENGINE_VERSION",
    "DiagramError",
    "FloorDiagram",
    "HPolygon",
    "InvariantError",
    "InvariantKey",
    "InvariantRecord",
    "InvariantTable",
    "LaurentError",
    "LaurentPoly",
    "PolygonError",
    "SurgeryError",
    "check_conjecture_quadric",
    "check_increase",
    "check_mainproof_coeffs",
    "check_u_inversion",
    "enumerate_diagrams",
    "max_pairs",
    "quantum_square",
    "refined_invariant",
    "u_coeff",
]
