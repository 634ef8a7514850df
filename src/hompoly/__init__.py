"""Exact-arithmetic toolkit for polytopes of affine maps.

Build the polytope of all affine maps between two polytopes, enumerate
and classify its vertex maps, count them in closed form, and verify the
structural laws connecting the two, all over exact rational arithmetic.
"""

from .counts import (
    CountReport,
    beta,
    bound_box_diamond,
    count_box_simplex,
    count_diamond_diamond,
    count_diamond_simplex,
    intersection_bound,
    sigma,
    stirling2,
    surjections,
)
from .errors import SizeGuardError, UnboundedPolytopeError
from .experiments import (
    SeededGenerator,
    perturbed_barycenter_count,
    random_simplex_intersection_count,
    reproduce_table,
)
from .homs import (
    AffineMap,
    HomPolytope,
    build_hom,
    cube_simplex_realization,
    enumerate_vertex_maps,
    image_polytope,
    is_vertex_map,
    map_rank,
    rank_histogram,
    restrict_to_subcrosspolytope,
)
from .linalg import affine_hull, rank
from .polytope import (
    HRep,
    Polytope,
    bipyramid,
    combinatorially_equal,
    from_inequalities,
    from_points,
    intersect,
    polar_dual,
    standard,
)
from .verify import VerificationResult, run_claim, run_suite

__version__ = "0.1.0"
