"""Compliance classification of food items from fork-mounted force/torque
and pose time series: preprocessing, four classifier families, an evaluation
harness with statistics, and a synthetic-trial generator."""

from .core import (
    CLASS_ORDER,
    ComplianceClass,
    Dataset,
    DEFAULT_STREAM_DELAY,
    ITEM_CLASSES,
    ITEM_ORDER,
    Source,
    Trial,
    align_streams,
    load_trials,
    save_trials,
)
from .errors import (
    DataError,
    DegenerateGroups,
    DegenerateStream,
    DimensionMismatch,
    EmptyDataset,
    EmptyTrainingSet,
    HaptixError,
    MalformedRecord,
    MissingClass,
    NoContact,
    NonFiniteLoss,
    NumericalError,
    SingleClassData,
    TooFewTrials,
    UnknownFoodItem,
)
from .evaluation import (
    ClassifierSpec,
    EvalReport,
    FoldSplit,
    ablate_features,
    anova_oneway,
    cross_domain_eval,
    kfold_split,
    run_cv,
    ttest_2tailed,
    tukey_hsd,
)
from .hmm import HmmModel, baum_welch, forward_loglik
from .nn import LstmModel, TcnModel, TrainConfig, grad_check, train
from .preprocess import (
    FeatureSet,
    NormStats,
    assemble_features,
    detect_contact,
    extract_window,
    first_derivative,
    fit_norm,
    prepare_trial,
)
from .svm import SvmModel, predict_svm, train_svm
from .synthgen import GenConfig, generate

__version__ = "0.1.0"
