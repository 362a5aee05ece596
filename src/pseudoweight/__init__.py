"""Propensity-weighted estimation of finite-population means from
nonprobability samples, using a probability reference survey.

The package pairs a volunteer cohort (implicit unit weights) with a
design-weighted reference survey, fits a propensity model on one of two
estimating-equation systems, builds inverse-participation pseudo-weights,
and reports ratio-form weighted means with linearized variances.  A Monte
Carlo engine regenerates the supporting simulation study.
"""

from .errors import (
    CellInfeasibleError,
    DesignError,
    DomainError,
    EmptyFileError,
    EmptyInputError,
    InfeasibleTargetError,
    InfeasibleTotalsError,
    InsufficientReplicatesError,
    IoError,
    MissingColumnError,
    NonConvergenceError,
    ParseError,
    PseudoweightError,
    RescaleError,
    SingularSystemError,
    ValidationError,
)
from .estimators import (
    Method,
    MethodSpec,
    estimate,
    estimate_each,
    estimate_from_fit,
    fit_for_method,
    hajek_mean,
)
from .io import (
    EstimateRow,
    EstimationJob,
    emit_report,
    emit_simulation_report,
    ingest_delimited,
    run_estimation_job,
)
from .samples import (
    CohortSample,
    DesignInfo,
    DesignKind,
    PooledMatrix,
    PropensityFit,
    SurveySample,
    WeightedEstimate,
    build_pooled_matrix,
    validate_paired_samples,
)
from .simulation import (
    FinitePopulation,
    PopulationConfig,
    Scenario,
    ScenarioConfig,
    SimulationReport,
    calibrate_participation_intercept,
    calibrate_survey_const,
    generate_population,
    participation_probabilities,
    poisson_sample,
    run_monte_carlo,
)
from .solvers import fit_clw_score, fit_pooled_logistic
from .variance import (
    design_variance_iid,
    design_variance_poisson,
    design_variance_stratified,
    tl_variance,
)

__version__ = "0.1.0"
