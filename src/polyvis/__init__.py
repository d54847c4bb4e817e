"""polyvis: boundary Hamiltonian cycles of tower, pseudo-tower and
pseudo-triangle polygons from their visibility graphs, plus the exact
geometric oracle used to generate and check ground truth.
"""

from .graph import (
    Graph,
    GraphParseError,
    canonicalize,
    connected_components,
    is_cycle_in_graph,
    parse_graph,
    serialize_graph,
)
from .tower import (
    NotTowerError,
    check_strong_ordering,
    solve_tower,
)
from .pseudotower import (
    NotPseudoTowerError,
    PseudoTowerSolution,
    solve_pseudo_tower,
)
from .pseudotriangle import (
    NotPseudoTriangleError,
    solve as solve_pseudo_triangle,
    verify_candidate,
    verify_cycle,
)
from .geometry import (
    Point,
    Polygon,
    PolygonError,
    boundary_cycle,
    convex_vertex_indices,
    gen_pseudo_tower,
    gen_pseudo_triangle,
    gen_tower,
    render_svg,
    visibility_graph,
    write_polygon,
)

__version__ = "0.1.0"

__all__ = [
    "Graph",
    "GraphParseError",
    "NotPseudoTowerError",
    "NotPseudoTriangleError",
    "NotTowerError",
    "Point",
    "Polygon",
    "PolygonError",
    "PseudoTowerSolution",
    "boundary_cycle",
    "canonicalize",
    "check_strong_ordering",
    "connected_components",
    "convex_vertex_indices",
    "gen_pseudo_tower",
    "gen_pseudo_triangle",
    "gen_tower",
    "is_cycle_in_graph",
    "parse_graph",
    "render_svg",
    "serialize_graph",
    "solve_pseudo_tower",
    "solve_pseudo_triangle",
    "solve_tower",
    "verify_candidate",
    "verify_cycle",
    "visibility_graph",
    "write_polygon",
]
