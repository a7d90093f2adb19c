"""Coloring, exact clique-minor testing, and independence bounds for
graphs with excluded clique minors."""

from .bounds import (
    EXTREMAL_EDGE_BOUNDS,
    BoundRow,
    EdgeBound,
    best_closed_form_chi,
    delta_from_edge_bound,
    edge_count_forces_minor,
    full_table,
    table_row,
    chi_upper_bound_b,
    chi_upper_bound_c,
)
from .coloring import (
    ColorReport,
    ContractionTrace,
    TraceStep,
    color_by_contraction,
    elimination_order,
    greedy_degeneracy_color,
    palette_bound,
    replay_trace,
)
from .errors import (
    IndependenceShortfall,
    MinDegreeExceeded,
    MinorAuditFailed,
    MinorColorError,
    PaletteExhausted,
    ParseError,
    ResourceLimitExceeded,
)
from .formats import load_graph, parse_graph, save_graph, write_edge_list
from .generators import GenSpec, certify, clique_paste, complete_multipartite, generate
from .graph import (
    Coloring,
    Graph,
    contract_set,
    induced_subgraph,
    is_independent_set,
    is_proper_coloring,
    min_degree_vertex,
    without_vertex,
)
from .indep import (
    AlphaBound,
    gamma_constant,
    independence_number,
    independence_guarantee,
    max_independent_set,
)
from .minor import MinorModel, has_clique_minor, validate_model

__version__ = "0.1.0"

__all__ = [
    "AlphaBound",
    "BoundRow",
    "ColorReport",
    "Coloring",
    "EXTREMAL_EDGE_BOUNDS",
    "EdgeBound",
    "GenSpec",
    "Graph",
    "IndependenceShortfall",
    "ContractionTrace",
    "MinDegreeExceeded",
    "MinorAuditFailed",
    "MinorColorError",
    "MinorModel",
    "PaletteExhausted",
    "ParseError",
    "ResourceLimitExceeded",
    "TraceStep",
    "certify",
    "best_closed_form_chi",
    "clique_paste",
    "color_by_contraction",
    "complete_multipartite",
    "contract_set",
    "delta_from_edge_bound",
    "edge_count_forces_minor",
    "elimination_order",
    "full_table",
    "gamma_constant",
    "generate",
    "greedy_degeneracy_color",
    "has_clique_minor",
    "independence_number",
    "induced_subgraph",
    "is_independent_set",
    "is_proper_coloring",
    "independence_guarantee",
    "load_graph",
    "max_independent_set",
    "min_degree_vertex",
    "palette_bound",
    "parse_graph",
    "replay_trace",
    "save_graph",
    "table_row",
    "chi_upper_bound_b",
    "chi_upper_bound_c",
    "validate_model",
    "without_vertex",
    "write_edge_list",
]
