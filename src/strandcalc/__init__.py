"""Computer algebra over GF(2) for strand algebras of pointed matched
circles, type DA bimodules and their morphisms, box tensor products, and
a rewriting calculus for decompositions of cornered Lefschetz
fibrations."""

from .circles import (PointedMatchedCircle, make_pmc, reverse, split_circle,
                      torus_circle, validate, validation_report)
from .strands import (DGAlgebra, StrandDiagram, build_dga, diagram_name,
                      enumerate_basis, make_diagram, parse_diagram_name,
                      verify_dga)
from .bimodules import (TypeDABimodule, check_structure, compute_Dn,
                        homology, identity_bimodule, make_bimodule)
from .morphisms import (DAMorphism, HomotopyWitness, NotWithinCap, compose,
                        identity_morphism, is_closed, is_homotopic,
                        is_naive_quasi_iso, make_morphism, mapping_cone,
                        morphism_differential, same_shape, zero_morphism)
from .boxes import (box_bimodules, box_morphism_left, box_morphism_right,
                    box_morphisms)
from . import clf, document, errors, f2

__version__ = "0.1.0"

__all__ = [
    "PointedMatchedCircle", "make_pmc", "reverse", "split_circle",
    "torus_circle", "validate", "validation_report",
    "DGAlgebra", "StrandDiagram", "build_dga", "diagram_name",
    "enumerate_basis", "make_diagram", "parse_diagram_name", "verify_dga",
    "TypeDABimodule", "check_structure", "compute_Dn", "homology",
    "identity_bimodule", "make_bimodule",
    "DAMorphism", "HomotopyWitness", "NotWithinCap", "compose",
    "identity_morphism", "is_closed", "is_homotopic", "is_naive_quasi_iso",
    "make_morphism", "mapping_cone", "morphism_differential", "same_shape",
    "zero_morphism",
    "box_bimodules", "box_morphism_left", "box_morphism_right",
    "box_morphisms",
    "clf", "document", "errors", "f2",
]
