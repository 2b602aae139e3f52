"""Novikov ring arithmetic, torsion of based complexes, and a torus experiment."""

from .lattice import DimensionMismatchError, GroupElement, Lattice
from .series import (
    AmbiguousLeadingTermError,
    DEFAULT_CUTOFF,
    ExpansionLimitError,
    LatticeMismatchError,
    LeadingTerm,
    NotInvertibleError,
    NovikovElement,
    divide,
)
from .linalg import IndeterminatePivotError, ShapeError, determinant
from .complexes import (
    BasedComplex,
    ChainMap,
    ComplexStructureError,
    NotAcyclicError,
    mapping_cone,
    rebase,
    relabel_lifts,
    two_term_complex,
)
from .torsion import (
    BasisChangeClass,
    WhiteheadClass,
    basis_change_class,
    homotopy_equivalent,
    milnor_torsion,
    milnor_torsion_unit,
    relative_torsion,
    whitehead_normalize,
)
from .document import (
    ComplexDocument,
    DocumentParseError,
    build_chain_map,
    build_complex,
    document_from_complex,
)
from .document import parse as parse_document
from .document import render as render_document

__version__ = "0.1.0"

_TORUS = ("TorusSystem", "assemble_floer", "conley_zehnder", "count_connecting", "find_orbits", "run_example", "torus_torsion")


def __getattr__(name):  # PEP 562: torus.py loads on first access, so no algebra import compiles it (about 5 ms uncached)
    if name in _TORUS:
        from . import torus
        return getattr(torus, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted([*globals(), *_TORUS])
