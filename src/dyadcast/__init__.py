"""Out-of-sample forecasting benchmarks on directed temporal event networks."""

from types import ModuleType as _ModuleType

from .descent import FitReport
from .design import (
    SPEC_CLASSES,
    SPEC_COMBINED,
    SPEC_COVARIATES,
    SPEC_ENDOGENOUS,
    DyadDesign,
    FeatureConfig,
    build_design,
    join_designs,
    stack_designs,
)
from .errors import (
    DataError,
    DyadcastError,
    EvaluationError,
    FitError,
    GenerationError,
    ParseError,
    SchemaError,
    TuningError,
    ValidationError,
)
from .evaluation import (
    RatioSeries,
    SELECTION_THRESHOLD,
    bootstrap_ci,
    coefficient_ratio,
    pr_curve,
    roc_curve,
    rolling_mean,
)
from .features import ENDOGENOUS_FEATURE_NAMES, feature_block
from .harness import (
    AggregateRow,
    CellResult,
    ExperimentConfig,
    RunResult,
    aggregate_rows,
    load_config,
    load_run_inputs,
    read_cells_csv,
    run_experiment,
    write_outputs,
)
from .latent import (
    BundleCache,
    CommunityPartition,
    LatentBundle,
    LatentConfig,
    LatentSpaceFit,
    MMSBMFit,
    fit_bundle,
    fit_latent_space,
    fit_mmsbm,
    modularity,
    walktrap,
)
from .learners import (
    LEARNERS,
    FittedModel,
    Standardizer,
    TrainingSet,
    TuneGrid,
    TuneResult,
    fit_elastic_net,
    fit_learner,
    fit_logit,
    fit_logitboost,
    fit_neural_net,
    tune,
)
from .seeding import seed_for
from .store import (
    CANONICAL_COVARIATES,
    INDICATOR_COVARIATES,
    CovariateTable,
    EventPanel,
    LaggedNetwork,
    PeriodCovariates,
    aggregate_window,
    eligible_dyads,
    load_covariates,
    load_events,
)
from .synth import GroundTruth, SyntheticSpec, generate_synthetic, save_synthetic

# every imported name but the submodules, which importing them binds too
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
