"""Temporal transformer aggregation with progressive action anticipation.

The package is a small numpy-based lab for chunk-level action
anticipation: a from-scratch autodiff core, a transformer-style temporal
aggregator, a shared-parameter progressive predictor, the usual
convolutional/recurrent/single-shot baselines, ranking metrics, and a
synthetic semi-Markov data generator that makes every comparison gradable
on one CPU core.
"""

from .attention import (
    TTMParams,
    aggregate,
    init_ttm_params,
    multi_head,
    positional_encoding,
)
from .baselines import (
    Conv1DStack,
    DecoderParams,
    LSTMParams,
    SSPParams,
    conv1d_aggregate,
    init_conv1d_params,
    init_lstm_decoder_params,
    init_lstm_params,
    init_ssp_params,
    lstm_decode,
    lstm_encode,
    ssp_rollout,
)
from .data import (
    FeatureFileError,
    FeatureSequence,
    SyntheticConfig,
    TrainingSample,
    gen_synthetic,
    load_features,
    make_samples,
    reference_scorer,
    save_features,
    standard_synthetic_config,
)
from .metrics import (
    HorizonReport,
    NoPositivesError,
    accuracy,
    average_precision,
    calibrated_ap,
    evaluate_horizons,
    read_report_csv,
    write_report_csv,
)
from .model import (
    AnticipationModel,
    ModelConfig,
    grid_configs,
    load_checkpoint,
    save_checkpoint,
)
from .prediction import (
    PPMParams,
    PredictionBlockParams,
    Rollout,
    classify,
    init_ppm_params,
    prediction_block,
    rollout,
)
from .tensor import (
    GradientError,
    Parameter,
    ShapeError,
    Tensor,
    grad_check,
    sgd_step,
)
from .training import (
    EpochStats,
    TrainConfig,
    TrainingDiverged,
    class_loss,
    feature_loss,
    read_history_csv,
    total_loss,
    train,
    write_history_csv,
)

__version__ = "0.1.0"
