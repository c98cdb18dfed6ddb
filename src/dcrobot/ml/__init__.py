"""Predictive maintenance ML (S10): features, models, evaluation."""

from dcrobot.ml.dataset import DatasetCollector
from dcrobot.ml.evaluate import evaluate, roc_auc, train_test_split
from dcrobot.ml.features import FEATURE_NAMES, FeatureExtractor
from dcrobot.ml.logreg import LogisticRegression
from dcrobot.ml.stumps import GradientBoostedStumps

__all__ = [
    "FeatureExtractor",
    "FEATURE_NAMES",
    "DatasetCollector",
    "LogisticRegression",
    "GradientBoostedStumps",
    "evaluate",
    "roc_auc",
    "train_test_split",
]
