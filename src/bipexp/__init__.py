"""Causal effect estimation for bipartite experiments.

Treatment is assigned to diversion units; outcomes are measured on a
different set of units connected to them by a fixed weighted graph, so
each outcome unit receives a graph-weighted exposure in [0, 1] rather
than a binary treatment. This package estimates the exposure-response
curve and the full-exposure treatment effect from one such experiment:
exact or Monte Carlo exposure propensities, inverse-propensity and
propensity-conditioned regression estimators, resampling and model-based
confidence intervals, and a simulation lab for bias/RMSE/coverage studies.
"""

from .design import (
    AssignmentDesign,
    draw_assignments,
    linear_exposure,
    linear_exposure_many,
    load_probability_file,
)
from .errors import (
    BipexpError,
    ConfigError,
    DataError,
    MissingCellError,
    NumericalError,
    ParseError,
    RankDeficiencyError,
    ValidationError,
)
from .estimators import (
    CellMeanSurface,
    Dataset,
    DoseResponseCurve,
    KernelSurface,
    PolynomialSurface,
    PropensityTrimWarning,
    ate,
    beta_cell_means,
    beta_krr_fit,
    beta_poly_fit,
    dose_response,
    ht_estimate,
    ht_weighted_regression,
    naive_mean,
    naive_ols,
    stratified_estimate,
)
from .gps import (
    GpsTable,
    exact_gps_table,
    mc_gps,
)
from .graph import (
    BipartiteGraph,
    GraphSpec,
    IdMap,
    connected_components,
    contiguous_blocks,
    load_edge_list,
    synth_graph,
    write_edge_list,
)
from .inference import (
    ErrorVarianceEstimates,
    IntervalEstimate,
    block_bootstrap,
    correlated_error_variance,
    estimate_sigmas,
    naive_bootstrap,
    ols_asymptotic_interval,
    parametric_bootstrap,
)
from .numerics import (
    KernelFit,
    LinearFit,
    krr_fit,
    krr_predict,
    ols,
)
from .seeding import as_generator, substream
from .simlab import (
    DgpSpec,
    SimpleExample,
    SimStudyResult,
    StudyEstimator,
    edges_cut_sweep,
    generate_outcomes,
    run_study,
    simple_example,
    true_ate,
)

__version__ = "0.1.0"

__all__ = [
    "AssignmentDesign",
    "BipartiteGraph",
    "BipexpError",
    "CellMeanSurface",
    "ConfigError",
    "DataError",
    "Dataset",
    "DgpSpec",
    "DoseResponseCurve",
    "ErrorVarianceEstimates",
    "GpsTable",
    "GraphSpec",
    "IdMap",
    "IntervalEstimate",
    "KernelFit",
    "KernelSurface",
    "LinearFit",
    "MissingCellError",
    "NumericalError",
    "ParseError",
    "PolynomialSurface",
    "PropensityTrimWarning",
    "RankDeficiencyError",
    "SimStudyResult",
    "SimpleExample",
    "StudyEstimator",
    "ValidationError",
    "as_generator",
    "ate",
    "beta_cell_means",
    "beta_krr_fit",
    "beta_poly_fit",
    "block_bootstrap",
    "connected_components",
    "contiguous_blocks",
    "correlated_error_variance",
    "dose_response",
    "draw_assignments",
    "edges_cut_sweep",
    "estimate_sigmas",
    "exact_gps_table",
    "generate_outcomes",
    "ht_estimate",
    "ht_weighted_regression",
    "krr_fit",
    "krr_predict",
    "linear_exposure",
    "linear_exposure_many",
    "load_edge_list",
    "load_probability_file",
    "mc_gps",
    "naive_bootstrap",
    "naive_mean",
    "naive_ols",
    "ols",
    "ols_asymptotic_interval",
    "parametric_bootstrap",
    "run_study",
    "simple_example",
    "stratified_estimate",
    "substream",
    "synth_graph",
    "true_ate",
    "write_edge_list",
]
