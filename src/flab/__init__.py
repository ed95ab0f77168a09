"""Closed-form and Monte Carlo analysis of group disparities that arise
when strategic agents adapt to a noisy linear scoring rule.

The package splits into small layers: dense symmetric linear algebra
(`linalg_core`), per-agent behavior (`agents`), analytic disparity
formulas (`closed_form`), regime classification (`regimes`), Monte Carlo
cross-checks (`mc_oracle`), and a command-line front end (`cli`).
"""

from .agents import (
    GroupParams,
    Metric,
    Posterior,
    Realized,
    Signal,
    bayesian_best_response,
    bayesian_posterior,
    naive_best_response,
    normal_stream,
    realized_quantities,
    signal_weight,
    standard_normals,
)
from .closed_form import (
    CommonPrior,
    CurveKind,
    DisparityConstants,
    DisparityCurve,
    NaivePrior,
    ProjectedPrior,
    Scenario,
    disparity_curve,
    disparity_value,
    neutrality_sigma_naive,
    neutrality_sigma_score_bayes,
    noise_unit,
    overlap_proxy,
    response_gap,
    score_disparity_bayes,
    score_disparity_naive,
    score_disparity_projected,
    score_overlap_bound,
    score_variance_naive,
    sigma_grid,
    utility_disparity_bayes,
    utility_disparity_naive,
    utility_disparity_projected,
    utility_overlap_bound,
)
from .errors import (
    AssumptionViolated,
    CostsDiffer,
    DegeneratePrior,
    DimensionMismatch,
    Error,
    InvalidBracket,
    InvalidProjection,
    NegativeSigma,
    NonCommuting,
    NonFinite,
    NotPD,
    NotPSD,
    NotSymmetric,
    ParseError,
    WrongPriorKind,
    ZeroStderrMismatch,
)
from .linalg_core import (
    CostMatrix,
    Definiteness,
    Projection,
    SpanRelation,
    definiteness,
    jacobi_eigh,
    subspace_relation,
    sym_sqrt,
)
from .mc_oracle import (
    McComparison,
    McEstimate,
    compare,
    estimate_disparities,
    estimate_disparity,
    estimate_variance_naive,
    tree_sum,
)
from .regimes import (
    MatrixConditionReport,
    MatrixVerdict,
    ProjectedMatrixReport,
    RegionLabel,
    RootScan,
    ScoreShape,
    ScoreTrend,
    UtilityCase,
    UtilityRegime,
    classify_score_bayes,
    classify_utility_bayes,
    classify_utility_projected,
    classify_utility_projected_matrix,
    critical_prior_scale,
    exploitation_condition_projected,
    find_roots,
    label_region,
    monotonicity_condition_projected,
    neutrality_condition_projected,
    two_root_region_check,
)

__version__ = "0.1.0"
