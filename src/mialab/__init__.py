"""Membership-inference laboratory.

A controlled toy pipeline for studying how much membership signal
different classifier outputs leak (data generation, generative and
discriminative linear classifiers, threshold and model-based attacks,
AUROC evaluation, experiment sweeps) plus an exact finite-space
divergence oracle that numerically certifies the relevant
total-variation/KL bounds.
"""

from .attacks import AttackScores, Orientation, ScoreKind, accuracy
from .datagen import Dataset, GenParams, generate_dataset
from .divergence import (
    BoundsReport,
    DiscreteJoint,
    DominanceReport,
    ScoreChannel,
    c_coeff,
    certify_bounds,
    decompose,
    dominance_probe,
    kl,
    lr_constants,
    pushforward,
    tv,
)
from .errors import (
    DataError,
    DegenerateDataError,
    InsufficientDataError,
    MialabError,
    UnboundedRatioError,
    ValidationError,
)
from .gbm import GbmModel, fit_gbm
from .harness import SweepGrid, SweepTable, run_cell, run_sweep
from .linear_models import (
    LdaModel,
    LogisticModel,
    fit_lda,
    fit_logistic,
)
from .metrics import AttackResult, advantage, auroc, mean_sem

__version__ = "0.1.0"

__all__ = [
    "AttackResult",
    "AttackScores",
    "BoundsReport",
    "DataError",
    "Dataset",
    "DegenerateDataError",
    "DiscreteJoint",
    "DominanceReport",
    "GbmModel",
    "GenParams",
    "InsufficientDataError",
    "LdaModel",
    "LogisticModel",
    "MialabError",
    "Orientation",
    "ScoreChannel",
    "ScoreKind",
    "SweepGrid",
    "SweepTable",
    "UnboundedRatioError",
    "ValidationError",
    "accuracy",
    "advantage",
    "auroc",
    "c_coeff",
    "certify_bounds",
    "decompose",
    "dominance_probe",
    "fit_gbm",
    "fit_lda",
    "fit_logistic",
    "generate_dataset",
    "kl",
    "lr_constants",
    "mean_sem",
    "pushforward",
    "run_cell",
    "run_sweep",
    "tv",
]
