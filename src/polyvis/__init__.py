"""polyvis: boundary Hamiltonian cycles of tower, pseudo-tower and
pseudo-triangle polygons from their visibility graphs, plus the exact
geometric oracle used to generate and check ground truth.
"""

from .graph import (
    Graph,
    GraphParseError,
    canonicalize,
    connected_components,
    induced_subgraph,
    is_cycle_in_graph,
    parse_graph,
    serialize_graph,
)
from .tower import (
    NotTowerError,
    bordering_graph,
    check_strong_ordering,
    compute_leveling,
    enumerate_borderings,
    solve_tower,
    tower_top_candidates,
)
from .pseudotower import (
    NotPseudoTowerError,
    PseudoTowerSolution,
    extract_tail,
    solve_pseudo_tower,
)
from .pseudotriangle import (
    NotPseudoTriangleError,
    assemble_hamiltonian,
    extract_cap,
    solve as solve_pseudo_triangle,
    split_parts,
    top_joint_candidates,
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
    "assemble_hamiltonian",
    "boundary_cycle",
    "bordering_graph",
    "canonicalize",
    "check_strong_ordering",
    "compute_leveling",
    "connected_components",
    "convex_vertex_indices",
    "enumerate_borderings",
    "extract_cap",
    "extract_tail",
    "gen_pseudo_tower",
    "gen_pseudo_triangle",
    "gen_tower",
    "induced_subgraph",
    "is_cycle_in_graph",
    "parse_graph",
    "render_svg",
    "serialize_graph",
    "solve_pseudo_tower",
    "solve_pseudo_triangle",
    "solve_tower",
    "split_parts",
    "top_joint_candidates",
    "tower_top_candidates",
    "verify_candidate",
    "verify_cycle",
    "visibility_graph",
    "write_polygon",
]
