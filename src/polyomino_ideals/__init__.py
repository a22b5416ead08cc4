"""Polyomino ideals over exact rationals.

Geometry (cells, edge intervals, inner intervals, free polyominoes),
structure classification (convexity, simplicity, tree-likeness, leaf
census), exact commutative algebra (Buchberger, saturation, initial ideals),
integer lattices (Hermite normal form with transform, saturated kernel
bases, invariant factors by alternating Hermite forms), and the
polyomino-specific layer: inner minor ideals, admissible labelings,
balancedness, primality, cycle binomials and universal Groebner basis checks.
"""

from .certificates import balanced_certificate_treelike, expand_certificate
from .classify import (
    BAD,
    GOOD,
    LeafCensus,
    SimpleReport,
    TreeLikeReport,
    classify_leaf,
    is_column_convex,
    is_row_convex,
    is_simple,
    is_tree_like,
    leaf_census,
)
from .cycles import (
    Cycle,
    cycle_binomial,
    enumerate_cycles,
    extract_cycle,
)
from .errors import (
    BadCharacterError,
    CellNotInPolyominoError,
    EmptyInputError,
    InvalidCountError,
    NotALeafError,
    NotAdmissibleError,
    NotBalancedError,
    NotConnectedError,
    NotTreeLikeError,
    PolyominoError,
    StepLimitExceededError,
    ZeroLabelingError,
)
from .grid import (
    DIRECTIONS,
    HORIZONTAL,
    VERTICAL,
    CellInterval,
    EdgeInterval,
    Leaf,
    Point,
    Polyomino,
    cell_edges,
    cell_neighbors,
    cell_vertices,
    free_polyominoes,
    inner_intervals,
    leaves,
    maximal_cell_interval,
    maximal_edge_intervals,
    point_key,
)
from .gridio import parse_grid, render_grid
from .groebner import (
    buchberger,
    ideal_equal,
    initial_ideal,
    is_squarefree,
    normal_form,
    quotient_dimension,
    saturate,
)
from .ideals import (
    BalancedReport,
    OrderOutcome,
    UniversalGBReport,
    admissible_lattice,
    dimension,
    inner_minor,
    inner_minors,
    is_admissible,
    is_balanced,
    is_prime,
    labeling_binomial,
    labeling_vector,
    lattice_ideal,
    universal_gb_check,
    vector_binomial,
)
from .intlinalg import (
    LatticeBasis,
    hermite_normal_form,
    invariant_factors,
    kernel_basis,
    matrix_rank,
)
from .orders import (
    MonomialOrder,
    canonical_order,
    make_order,
    order_sample,
    parse_order_spec,
)
from .polynomials import (
    IdealGens,
    Polynomial,
    mono_is_squarefree,
    mono_lcm,
    mono_mul,
    polynomial_str,
)

__version__ = "0.1.0"
