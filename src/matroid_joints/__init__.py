"""Joints in simple matroids: exact incidence geometry, Behrend sets, and
triangle-free matroid constructions."""

from .affine import affine_independent, affine_matroid, descriptor_flats, grid3d, point
from .behrend import (
    behrend_params,
    behrend_set,
    has_3ap,
    optimal_3ap_free,
    sphere_shells,
    tuned_behrend_set,
)
from .construct import TriangleFreeMatroid, build_construction, grid_lines
from .core import (
    Flat,
    Matroid,
    MatroidError,
    check_axioms,
    check_incidence_properties,
    check_submodularity,
    closure,
    count_joints,
    flats_of_rank,
    is_flat,
    is_joint,
    rank,
)
from .planar import (
    Configuration,
    IntLine,
    find_triangles,
    incident,
    intersect,
    is_triangle_free,
    line,
    prune_lines,
    triple_points,
)

__version__ = "0.1.0"

__all__ = [
    "Configuration",
    "Flat",
    "IntLine",
    "Matroid",
    "MatroidError",
    "TriangleFreeMatroid",
    "affine_independent",
    "affine_matroid",
    "behrend_params",
    "behrend_set",
    "build_construction",
    "check_axioms",
    "check_incidence_properties",
    "check_submodularity",
    "closure",
    "count_joints",
    "descriptor_flats",
    "find_triangles",
    "flats_of_rank",
    "grid3d",
    "grid_lines",
    "has_3ap",
    "incident",
    "intersect",
    "is_flat",
    "is_joint",
    "is_triangle_free",
    "line",
    "optimal_3ap_free",
    "point",
    "prune_lines",
    "rank",
    "sphere_shells",
    "triple_points",
    "tuned_behrend_set",
]
