"""Trust-weighted gradient boosting for binary classification under label noise.

Per-sample residual-direction histories are scored by Lempel-Ziv complexity,
and samples whose histories look erratic are exponentially down-weighted when
fitting each weak learner.  The package also ships a classic GBDT baseline,
a seeded noise injector, an evaluation/sweep harness, and numerical checks of
the trust-weight bounds.
"""

from .boosting import (
    BoostConfig,
    Model,
    RunTrace,
    init_score,
    load_model,
    save_model,
    train,
)
from .complexity import (
    TrustState,
    lz76_complexity,
    normalize_complexities,
    trust_weights,
)
from .data import (
    Dataset,
    DataError,
    FoldPlan,
    load_csv,
    random_undersample,
    save_csv,
    stratified_kfold,
)
from .evaluation import (
    MetricReport,
    accuracy,
    auc,
    cross_validate,
    f1,
    log_loss,
    trajectory_summary,
)
from .noise import NoiseMask, NoiseSpec, inject
from .synth import make_gaussian_dataset
from .theory import (
    BoundReport,
    ratio_bound_check,
    trust_bound_check,
)
from .trees import RegressionTree, fit_tree_weighted, presort

__version__ = "0.1.0"

__all__ = [
    "BoostConfig",
    "BoundReport",
    "DataError",
    "Dataset",
    "FoldPlan",
    "MetricReport",
    "Model",
    "NoiseMask",
    "NoiseSpec",
    "RegressionTree",
    "RunTrace",
    "TrustState",
    "accuracy",
    "auc",
    "cross_validate",
    "f1",
    "fit_tree_weighted",
    "init_score",
    "inject",
    "load_csv",
    "load_model",
    "log_loss",
    "lz76_complexity",
    "make_gaussian_dataset",
    "normalize_complexities",
    "presort",
    "random_undersample",
    "ratio_bound_check",
    "save_csv",
    "save_model",
    "stratified_kfold",
    "train",
    "trajectory_summary",
    "trust_bound_check",
    "trust_weights",
]
