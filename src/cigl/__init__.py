"""Dual-mask sparse training with weight & mask averaging, sparse-training
baselines, and a confidence-calibration measurement suite.

The package exports what a script needs to train a method or run a
configured experiment; the submodules hold the rest.
"""

from .config import TrainConfig, load_config
from .data import inject_label_noise, load_csv, load_idx, synth_two_moons
from .rng import substream
from .runner import run_experiment
from .train import train

__version__ = "0.1.0"
