"""Spatial partitioning of high-dimensional point sets for parallel clustering.

Three partitioning schemes over a shared data model: recursive kd-tree median
splits, a hashed n-cube grid index with an approximate slab median, and a
Voronoi split tree with pluggable seeding (random, farthest-sum, weighted
squared-distance sampling, median straddling). A benchmark harness compares
wall time, load bias, affected-point counts and scan counters across schemes,
and a CLI exposes generation, partitioning, benchmarking and SVG rendering.

The names in ``__all__`` resolve on first access, each importing only its own
module, so a command or a script pays for the modules it uses.
"""

import importlib

_EXPORTS = {
    "core": ("Dataset", "PartitionAssignment", "PartitionMetrics", "Point", "balance_floor", "compute_metrics",
             "euclidean_distance", "generate_gaussian_mixture", "generate_uniform", "make_rng",
             "variance_per_dimension"),
    "dataio": ("DatasetFormatError", "load_dataset", "save_dataset"),
    "grid": ("GridConfig", "GridFeasibilityError", "GridIndex", "build_grid", "grid_find_median", "grid_stats",
             "locate_cube"),
    "kdtree": ("KdNode", "KdPartitionTree", "kd_partition", "kd_tree_to_json", "select_median", "select_rank"),
    "seeding": ("SeedSet", "SeedStrategy", "seeds_gnat", "seeds_kmeanspp", "seeds_median", "seeds_random"),
    "vtree": ("MergeOrder", "VNode", "VTree", "affected_partitions", "assign_to_centers", "build_vtree",
              "merge_order", "route_point", "vtree_to_json"),
    "bench": ("BenchConfig", "BenchReport", "DatasetSpec", "emit_report", "parse_scheme", "run_benchmark",
              "standard_grid"),
    "render": ("render_2d",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    """Import the module behind an exported name on its first access (PEP 562).

    So ``import spacepart.cli`` and the other submodule imports load only the
    modules they use, while ``spacepart.Dataset`` and ``from spacepart import *``
    reach every exported name.
    """
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
