"""Skein-module invariants of tangles and trivalent graph diagrams.

The pipeline: parse a planar diagram (.tng), resolve crossings into the
flat-tangle basis over Z[q, q^-1], take P(D) as the bracket of the plat
closure of D beside its reflection, and for graph diagrams sum one coupled
frontier sweep of that closure per thick-edge enhancement.  Values at the
eight admissible roots of unity are invariant under 3-moves and the graph
moves; the polynomials themselves are invariant under the Reidemeister moves.
"""

from .diagram import (TangleDiagram, ValidationReport, all_labels,
                      edge_occurrences, ensure_valid, is_isomorphic, load_tng,
                      map_faces, max_label, merge_edges, mirror, parse_tng,
                      reflect, relabeled, serialize_tng, tensor, validate)
from .enhanced import (Enhancement, STATE_PATTERNS, check_enhancement,
                       contract, enhancements_by_vertex_sums,
                       enumerate_enhancements, expand_states,
                       invariant_rho_poly, invariant_total_poly, state_polys)
from .errors import (DomainError, InvalidDiagramError, ParseError,
                     TangleError)
from .laurent import (DELTA, ONE, Q, ROOT_INDICES, ZERO, LaurentPoly,
                      delta_power, ensure_root_index, root_value)
from .moves import (MovePair, PairResult, SpliceSite, braid_pattern,
                    comparison_poly, ih_rewrite, insert_kink, parse_manifest,
                    splice_22, verify_manifest, verify_pair)
from .pairing import (MAX_HALF_BOUNDARY, PairingMatrix, p_poly,
                      pairing_matrix, plat_loop_count)
from .skein import (Basis, CoordinateVector, bracket, bracket_oracle,
                    enumerate_basis, format_matching, vector_bar)

__version__ = "0.1.0"

__all__ = [
    "TangleDiagram", "ValidationReport", "all_labels", "edge_occurrences",
    "ensure_valid", "is_isomorphic", "load_tng", "map_faces", "max_label",
    "merge_edges", "mirror", "parse_tng", "reflect", "relabeled",
    "serialize_tng", "tensor", "validate",
    "Enhancement", "STATE_PATTERNS", "check_enhancement", "contract",
    "enhancements_by_vertex_sums", "enumerate_enhancements", "expand_states",
    "invariant_rho_poly", "invariant_total_poly", "state_polys",
    "DomainError", "InvalidDiagramError", "ParseError", "TangleError",
    "random_splice_site", "random_tangle", "random_trivalent",
    "DELTA", "ONE", "Q", "ROOT_INDICES", "ZERO", "LaurentPoly",
    "delta_power", "ensure_root_index", "root_value",
    "MovePair", "PairResult", "SpliceSite", "braid_pattern",
    "comparison_poly", "ih_rewrite", "insert_kink", "parse_manifest",
    "splice_22", "verify_manifest", "verify_pair",
    "MAX_HALF_BOUNDARY", "PairingMatrix", "p_poly", "pairing_matrix",
    "plat_loop_count",
    "Basis", "CoordinateVector", "bracket", "bracket_oracle",
    "enumerate_basis", "format_matching", "vector_bar",
    "__version__",
]


def __getattr__(name):
    # the generators are imported on first use, off the CLI's start-up path
    if name in ("random_splice_site", "random_tangle", "random_trivalent"):
        from . import generate
        return getattr(generate, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
