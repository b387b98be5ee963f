"""Dilatations, transition matrices and volume bounds for a braid family.

The library constructs the transition matrices of a family of pseudo-Anosov
braids indexed by integer tuples (m_1, ..., m_{k+1}), computes their
dilatations both as Perron-Frobenius eigenvalues and as largest roots of an
inductively built polynomial chain, verifies the structural identities
relating the two, and evaluates hyperbolic-volume lower bounds.
"""

from .intpoly import (
    IntPoly,
    first_real_root_above,
    largest_real_root,
    roots_outside_unit_disk,
)
from .nnmatrix import NNMatrix, PFCertificate, poly_matrix_det
from .treebuilder import (
    BraidTuple,
    StructureReport,
    block_boundaries,
    dominant_matrix,
    dual_recessive_poly,
    recessive_poly,
    transition_matrix,
    validate_structure,
)
from .dilatation import (
    DilatationReport,
    MonotonicityCheck,
    ScanRow,
    braid_char_poly,
    convergence_table,
    dilatation,
    dominant_chain,
    limit_dilatation,
    monotonicity_check,
)
from .volume import (
    BoundReport,
    find_parameters,
    ideal_tetrahedron_volume,
    lobachevsky,
    twist_number,
    volume_lower_bound,
)

__version__ = "0.1.0"

__all__ = [
    "IntPoly",
    "first_real_root_above",
    "largest_real_root",
    "roots_outside_unit_disk",
    "NNMatrix",
    "PFCertificate",
    "poly_matrix_det",
    "BraidTuple",
    "StructureReport",
    "block_boundaries",
    "transition_matrix",
    "dominant_matrix",
    "recessive_poly",
    "dual_recessive_poly",
    "validate_structure",
    "DilatationReport",
    "MonotonicityCheck",
    "ScanRow",
    "braid_char_poly",
    "convergence_table",
    "dilatation",
    "dominant_chain",
    "limit_dilatation",
    "monotonicity_check",
    "BoundReport",
    "find_parameters",
    "ideal_tetrahedron_volume",
    "lobachevsky",
    "twist_number",
    "volume_lower_bound",
    "__version__",
]
