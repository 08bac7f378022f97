"""Biclique factorisation series on multipartite graphs.

The library iterates the weak, factor and clean factorisation operators
starting from a graph's vertex/clique incidence bipartite graph (or from
an arbitrary bipartite graph), and checks the structure of the terminated
clean decomposition: its vertices correspond one-to-one to the chains of
the inclusion order on the non-simple intersections of maximal cliques.
"""

from .cli import cli_main
from .cliques import (
    anti_matching,
    maximal_cliques,
    vertex_clique_incidence,
)
from .errors import DocumentFormatError, EdgeListParseError, InvalidArgumentError
from .factorisation import (
    CandidateSet,
    OperatorKind,
    StepResult,
    factorise,
    particularise,
)
from .graphs import Graph, MultipartiteGraph
from .io import (
    DecompositionDocument,
    build_document,
    document_to_multipartite,
    format_edge_list,
    graph_content_hash,
    parse_document,
    read_document,
    read_edge_list,
    reconstruct_graph,
    to_dot,
    to_json,
    verify_document_fields,
    write_decomposition,
)
from .oracle import (
    IntersectionFamily,
    IntersectionPoset,
    SizeBound,
    VerificationReport,
    chains_of_length,
    characterising_sequence,
    intersection_family,
    size_bound,
    verify_bijection,
    verify_neighbourhood_formula,
)
from .series import (
    DEFAULT_OPEN_BUDGET,
    SeriesResult,
    SeriesStatus,
    run_series,
    run_series_from_bipartite,
)

__version__ = "0.1.0"

__all__ = [
    "CandidateSet",
    "DecompositionDocument",
    "DEFAULT_OPEN_BUDGET",
    "DocumentFormatError",
    "EdgeListParseError",
    "Graph",
    "IntersectionFamily",
    "IntersectionPoset",
    "InvalidArgumentError",
    "MultipartiteGraph",
    "OperatorKind",
    "SeriesResult",
    "SeriesStatus",
    "SizeBound",
    "StepResult",
    "VerificationReport",
    "anti_matching",
    "build_document",
    "chains_of_length",
    "characterising_sequence",
    "cli_main",
    "document_to_multipartite",
    "factorise",
    "format_edge_list",
    "graph_content_hash",
    "intersection_family",
    "maximal_cliques",
    "parse_document",
    "particularise",
    "read_document",
    "read_edge_list",
    "reconstruct_graph",
    "run_series",
    "run_series_from_bipartite",
    "size_bound",
    "to_dot",
    "to_json",
    "verify_bijection",
    "verify_document_fields",
    "verify_neighbourhood_formula",
    "vertex_clique_incidence",
    "write_decomposition",
]
