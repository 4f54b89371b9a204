"""Epoch-wise bagged LSTM ensembles for sample-wise sequence classification.

Pipeline in one breath: a single LSTM is trained with per-epoch randomized
mini-batch plans (random batch size, stream starts, and frame lengths), one
parameter snapshot is kept per epoch, the best-validating M snapshots are
fused by averaging their per-sample class probabilities, and predictions are
emitted for every sample of a stream with carried recurrent state.
"""

from .bagging import (
    BaggingConfig,
    BaseLearner,
    FrameSchedule,
    epoch_coverage,
    load_learners,
    make_schedule,
    run_bagging,
    save_learners,
    train_epoch,
    validation_f1,
)
from .data import (
    CsvSchema,
    LabeledSequence,
    NormStats,
    apply_normalizer,
    fit_normalizer,
    holdout_split,
    load_csv,
    save_csv,
    synth_har,
)
from .ensembles import (
    CeGap,
    Ensemble,
    ce_gap,
    ensemble_infer,
    load_ensemble,
    mixed_ensemble,
    save_ensemble,
    select_top_m,
)
from .evaluation import (
    TrialSet,
    TTestResult,
    confusion,
    mean_f1,
    per_class_f1,
    significance_stars,
    t_test,
)
from .mathkit import log_softmax, sigmoid, softmax, tanh_vec
from .modelio import ModelFormatError, load_model, save_model
from .network import (
    LstmNetwork,
    LstmState,
    classify,
    infer_stream,
    init_network,
    step,
)
from .rng import Rng
from .training import (
    AdamState,
    FrameBatch,
    GradCheckReport,
    LossKind,
    adam_update,
    bptt_frame,
    finite_difference_grads,
    grad_check,
    random_check_frame,
)

__version__ = "0.1.0"
