"""Desk-scale preference-optimization laboratory with temporally decayed
token weighting, diagnostic analyses, and a tabular-MDP theory verifier."""

from .losses import LossConfig, PairScore, METHODS
from .model import PolicyModel, TokenSequence, make_sequence, sample, sample_many
from .schedules import DecaySchedule, UNIFORM, weights
from .data import PreferencePair, RewardOracle, build_onpolicy_pairs, synthetic_corpus
from .training import Checkpoint, TrainConfig, evaluate_winrate, train

__all__ = [
    "Checkpoint", "DecaySchedule", "LossConfig", "METHODS", "PairScore",
    "PolicyModel", "PreferencePair", "RewardOracle", "TokenSequence",
    "TrainConfig", "UNIFORM", "build_onpolicy_pairs",
    "evaluate_winrate", "make_sequence", "sample", "sample_many", "synthetic_corpus",
    "train", "weights",
]

__version__ = "0.1.0"
