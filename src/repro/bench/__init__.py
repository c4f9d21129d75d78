"""Experiment harness regenerating every figure and in-text claim.

One ``run_*`` function per paper artifact; each returns a result object
with a ``format()`` method printing the paper-style rows/series.  The
``benchmarks/`` tree wraps these in pytest-benchmark targets.
"""

from .ablations import (
    GroupSizeAblation,
    LayoutAblation,
    ProbingAblation,
    run_groupsize_ablation,
    run_layout_ablation,
    run_probing_ablation,
    run_strategy_ablation,
)
from .experiments_multi import (
    BandwidthResult,
    CapacityResult,
    OverlapResult,
    ScalingResult,
    run_bandwidths,
    run_capacity_sweep,
    run_overlap,
    run_scaling,
)
from .scorecard import (
    PAPER_CLAIMS,
    Claim,
    ClaimResult,
    evaluate_claims,
    format_scorecard,
)
from .experiments_single import (
    SingleGpuSweep,
    run_single_gpu_sweep,
    run_speedup_table,
)
from .cluster import (
    ClusterScaleRecord,
    cluster_scaling_efficiency,
    format_cluster_records,
    run_cluster_suite,
)
from .distribution import (
    DistributionRecord,
    distribution_speedup,
    format_distribution_records,
    run_distribution_suite,
    write_results,
)

__all__ = [
    "run_single_gpu_sweep",
    "run_speedup_table",
    "SingleGpuSweep",
    "run_scaling",
    "ScalingResult",
    "run_capacity_sweep",
    "CapacityResult",
    "run_overlap",
    "OverlapResult",
    "run_bandwidths",
    "BandwidthResult",
    "run_groupsize_ablation",
    "GroupSizeAblation",
    "run_probing_ablation",
    "ProbingAblation",
    "run_strategy_ablation",
    "run_layout_ablation",
    "PAPER_CLAIMS",
    "Claim",
    "ClaimResult",
    "evaluate_claims",
    "format_scorecard",
    "LayoutAblation",
    "DistributionRecord",
    "run_distribution_suite",
    "write_results",
    "ClusterScaleRecord",
    "run_cluster_suite",
    "format_cluster_records",
    "cluster_scaling_efficiency",
    "format_distribution_records",
    "distribution_speedup",
]
