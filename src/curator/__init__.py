"""curator: entropy-guided curation of sparse training subsets from
gridded spatiotemporal datasets.

The core workflow is two-phase: select information-rich hypercubes from
the grid (random or entropy-weighted), then select points within each
cube (full, random, stratified, lhs, uips, or maxent).  Supporting
modules provide coverage metrics, synthetic data generators, and a
parallel scaling harness.
"""

from .grid import (
    ConfigError,
    GridDataset,
    GridDims,
    HypercubeBlock,
    IngestionError,
    RunConfig,
    emit_config,
    extract_block,
    load_dataset,
    num_blocks,
    parse_config,
    partition_hypercubes,
)
from .clustering import assign, kmeans_fit
from .entropy import (
    EntropyGraph,
    adjacency_matrix,
    allocate_counts,
    kl_divergence,
    weighted_sample,
)
from .samplers import (
    SampleSet,
    rate_to_count,
    run_pipeline,
    sample_full,
    sample_lhs,
    sample_maxent_points,
    sample_random,
    sample_stratified,
    sample_uips,
    select_hypercubes_maxent,
    select_hypercubes_random,
    temporal_select,
)
from .metrics import (
    CoverageReport,
    PdfHistogram,
    compare_methods,
    cost_estimate,
    coverage_report,
)
from .synthetic import (
    gen_cylinder_wake,
    gen_scalar_field,
    gen_taylor_green,
    generate,
    save_dataset,
)
from .bench import ScalingResult, detect_knee, run_scaling_study

__version__ = "0.1.0"
