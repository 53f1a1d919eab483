"""curator: entropy-guided curation of sparse training subsets from
gridded spatiotemporal datasets.  Phase 1 selects hypercubes of the grid,
Phase 2 selects points within each.  The package exports exactly README's
Library API; every other name is imported from its module.
"""

# in pipeline order.  Only a bench.parallel_map that starts a pool imports
# multiprocessing: imported here, before grid, it raised a compare run's
# peak RSS by 0.2 MB
from .grid import load_dataset, parse_config
from .clustering import assign, kmeans_fit
from .entropy import adjacency_matrix, allocate_counts, kl_divergence
from .samplers import run_pipeline
from .metrics import compare_methods, cost_estimate, coverage_report
from .synthetic import gen_cylinder_wake, gen_scalar_field, gen_taylor_green
from .bench import detect_knee, run_scaling_study

__all__ = [
    "parse_config", "load_dataset", "run_pipeline", "kl_divergence", "adjacency_matrix",
    "allocate_counts", "kmeans_fit", "assign", "coverage_report", "compare_methods",
    "cost_estimate", "gen_taylor_green", "gen_cylinder_wake", "gen_scalar_field",
    "run_scaling_study", "detect_knee",
]
__version__ = "0.1.0"
