"""Temporal transformer aggregation with progressive action anticipation.

The package is a small numpy-based lab for chunk-level action
anticipation: a from-scratch autodiff core, a transformer-style temporal
aggregator, a shared-parameter progressive predictor, the usual
convolutional/recurrent/single-shot baselines, ranking metrics, and a
synthetic semi-Markov data generator that makes every comparison gradable
on one CPU core. The package root holds the entry points of a
train-and-score run; everything else is imported from its module.
"""

from . import attention, data
from .metrics import evaluate_horizons, read_report_csv
from .model import AnticipationModel, ModelConfig
from .training import TrainConfig, train

__version__ = "0.1.0"
