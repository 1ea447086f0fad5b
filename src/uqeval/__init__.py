"""Evaluation toolkit for predictive uncertainty in 1-D regression.

Synthetic benchmark generators with known conditional distributions, the
standard uncertainty metrics (AUSE, calibration error, Spearman rank
correlation, NLL), an analytic reference predictor, a small deep-ensemble
baseline trained from scratch, and experiment drivers for metric
stability studies.
"""
from .datasets import (
    DatasetKind,
    DomainError,
    LabeledSet,
    Split,
    dataset_csv,
    generate,
)
from .distributions import Gaussian, GaussianMixture, moment_match, VARIANCE_FLOOR
from .metrics import (
    EvalConfig,
    EvaluationRecords,
    MetricReport,
    RankTieMode,
    UndefinedMetricError,
    WeightMode,
    ause,
    calibration_error,
    evaluate,
    nll,
    rank,
    sparsification_curve,
    spearman,
)
from .network import MlpParams
from .predictors import (
    EnsemblePredictor,
    ScaledUncertaintyPredictor,
    TrainConfig,
    TrainingDivergedError,
    TrueDistributionPredictor,
    load_ensemble,
    make_records,
    save_ensemble,
    train_ensemble,
)
from .experiments import (
    RunManifest,
    StabilityResult,
    bias_experiment,
    convergence_experiment,
    density_grid_csv,
    make_manifest,
    read_manifest,
    sha256_file,
    sparsification_csv,
)

__version__ = "0.1.0"
