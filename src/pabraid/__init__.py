"""Dilatations, transition matrices and volume bounds for a braid family.

The library constructs the transition matrices of a family of pseudo-Anosov
braids indexed by integer tuples (m_1, ..., m_{k+1}), computes their
dilatations both as Perron-Frobenius eigenvalues and as largest roots of an
inductively built polynomial chain, verifies the structural identities
relating the two, and evaluates hyperbolic-volume lower bounds.
"""

# the function ``dilatation`` shadows its submodule, so the submodule is
# bound under a private name before the star imports
from . import dilatation as _dilatation, intpoly, nnmatrix, treebuilder, volume
from .intpoly import *
from .nnmatrix import *
from .treebuilder import *
from .dilatation import *
from .volume import *

__version__ = "0.1.0"

__all__ = [
    name
    for module in (intpoly, nnmatrix, treebuilder, _dilatation, volume)
    for name in module.__all__
] + ["__version__"]
