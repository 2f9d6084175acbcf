"""Empirical-Bayes shrunken point and interval estimates.

Combines each feature's fixed-parameter confidence posterior (a
location-scale t distribution from its paired differences) with an
estimated local false discovery rate into an atom-plus-continuous mixture
over the parameter, from which shrunken medians, intervals, and observed
confidence levels are read off. Includes a Monte-Carlo harness that
measures the frequentist coverage of the shrunken intervals.
"""

from .confidence import (
    ConditionalPosterior,
    PairedSample,
    TSummary,
    conditional_cdf,
    conditional_interval,
    conditional_posterior,
    conditional_quantile,
    summarize,
)
from .errors import (
    DataError,
    DomainError,
    FitError,
    LfdrShrinkError,
    NumericError,
    WorkerError,
)
from .lfdr import (
    MixtureFit,
    ZVector,
    fit_mixture,
    lfdr_at,
    probit_transform,
)
from .numerics import (
    normal_pdf,
    normal_quantile,
    student_t_cdf,
    student_t_quantile,
)
from .posterior import (
    MarginalPosterior,
    ObservedConfidenceLevels,
    Shrinkage,
    ShrunkenInterval,
    marginal_cdf,
    marginal_quantile,
    marginal_quantile_batch,
    observed_confidence_levels,
    posterior_mean,
    posterior_median,
    shrink,
    shrunken_interval,
)
from .simulation import (
    CoverageReport,
    ExperimentRecords,
    ExperimentTruth,
    SimConfig,
    analyze_experiment,
    experiment_stream,
    generate_experiment,
    run_study,
)

__version__ = "0.1.0"
