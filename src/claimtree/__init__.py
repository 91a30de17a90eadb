"""Hybrid tree-based models for insurance claim prediction.

A binary classification tree decides whether a policy has claims; each
terminal node carries a severity model (zero, node mean, or a penalized
linear regression) so the whole model acts as a piecewise linear
predictor of claim cost. Includes a compound Poisson-gamma portfolio
simulator, validation metrics and cross-validated tuning.
"""

__version__ = "0.1.0"

from .cart import (  # noqa: F401
    SplitRule,
    Tree,
    TreeHyperparams,
    best_split,
    entropy,
    gini,
    grow,
    misclassification,
    prune,
    to_dot,
    truncate,
    variable_importance,
)
from .data import (  # noqa: F401
    Column,
    DataError,
    Dataset,
    Standardization,
    feature_matrix,
    load_csv,
    load_schema,
    save_csv,
    save_schema,
)
from .elastic_net import (  # noqa: F401
    LinearFit,
    PenaltySpec,
    RankDeficiencyError,
    fit_elastic_net,
    fit_ols,
    lambda_path_cv,
    soft_threshold,
)
from .evaluate import (  # noqa: F401
    ComparisonTable,
    MetricReport,
    UndefinedMetricError,
    ccc,
    comparison_table,
    compute_metrics,
    gini_index,
    grid_search,
    kfold_cv,
    mae,
    mape,
    mpe,
    r_squared,
    rmse,
)
from .hybrid import (  # noqa: F401
    HybridHyperparams,
    HybridModel,
    ModelLoadError,
    NodeModel,
    coefficient_report,
    fit,
    load,
    predict,
    predict_batch,
    save,
)
from .simulate import (  # noqa: F401
    SimConfig,
    SimulatedPortfolio,
    gamma_params_of,
    gen_features,
    lambda_of,
    simulate,
)
