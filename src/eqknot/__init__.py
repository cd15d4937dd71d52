"""Equivariant 4-genus obstructions and bounds for periodic and strongly
invertible knots, computed in exact arithmetic from symmetric checkerboard
graphs."""

from .bounds import (BoundsInput, BoundsReport, aggregate,
                     crossing_change_upper, gsig_genus_bound,
                     gsig_periodic_bound, rh_bound)
from .checkerboard import (CheckerboardGraph, LatticeIsometry, SymmetrySpec,
                           gl_full_form, gl_lattice, induced_isometry,
                           is_automorphism, knot_signature)
from .embedsearch import (Embedding, EmbeddingSet, ObstructionReport,
                          SignedPermutation, canonical_form,
                          donaldson_obstruction,
                          enumerate_embeddings, enumerate_vectors,
                          equivariant_delta, orbit_classes)
from .gsignature import (GSignatureReport, gsig_direct_sum, gsig_involution,
                         gsig_periodic)
from .lattice import (GramLattice, HypothesisError, InputError,
                      SignatureTriple, is_positive_definite, signature)

__all__ = [
    "BoundsInput", "BoundsReport", "CheckerboardGraph", "Embedding",
    "EmbeddingSet", "GSignatureReport", "GramLattice", "HypothesisError",
    "InputError", "LatticeIsometry", "ObstructionReport", "SignatureTriple",
    "SignedPermutation", "SymmetrySpec", "aggregate", "canonical_form",
    "crossing_change_upper", "donaldson_obstruction", "enumerate_embeddings",
    "enumerate_vectors", "equivariant_delta", "gl_full_form", "gl_lattice",
    "gsig_direct_sum", "gsig_genus_bound", "gsig_involution",
    "gsig_periodic", "gsig_periodic_bound", "induced_isometry",
    "is_automorphism", "is_positive_definite", "knot_signature",
    "orbit_classes", "rh_bound", "signature",
]
