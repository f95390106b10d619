"""Minimal NumPy deep-learning framework.

The paper trains its TimePPG temporal convolutional networks with PyTorch
and deploys them with X-CUBE-AI (on the MCU) and TensorFlow Lite (on the
phone) after 8-bit quantization.  None of those toolchains is available
offline, so this package implements the required functionality from
scratch on NumPy:

* layers with explicit forward/backward passes — 1-D convolutions with
  dilation and stride, dense layers, batch normalization, ReLU, pooling,
  flatten, dropout (:mod:`repro.nn.layers`);
* a :class:`~repro.nn.network.Sequential` container and the
  channel-major frozen inference forward
  (:func:`~repro.nn.network.forward_frozen`);
* regression losses (:mod:`repro.nn.losses`);
* SGD and Adam optimizers (:mod:`repro.nn.optim`);
* a mini-batch trainer with validation-based early stopping
  (:mod:`repro.nn.training`);
* post-training int8 quantization mirroring the paper's deployment flow
  (:mod:`repro.nn.quantization`); and
* parameter / multiply-accumulate counting used to characterize model
  complexity exactly as Table III of the paper does
  (:mod:`repro.nn.ops_count`).

Data layout follows the PyTorch convention for 1-D signals:
``(batch, channels, length)``.
"""

from repro.nn.layers import (
    AvgPool1d,
    BatchNorm1d,
    Conv1d,
    Dense,
    Dropout,
    Flatten,
    GlobalAvgPool1d,
    Layer,
    ReLU,
)
from repro.nn.network import Sequential, fold_batchnorm, forward_frozen
from repro.nn.losses import HuberLoss, L1Loss, Loss, MSELoss
from repro.nn.optim import SGD, Adam, Optimizer
from repro.nn.training import TrainingHistory, Trainer, TrainerConfig
from repro.nn.quantization import QuantizationSpec, QuantizedSequential, quantize_network
from repro.nn.ops_count import count_macs, count_parameters, layer_summary

__all__ = [
    "AvgPool1d",
    "BatchNorm1d",
    "Conv1d",
    "Dense",
    "Dropout",
    "Flatten",
    "GlobalAvgPool1d",
    "Layer",
    "ReLU",
    "Sequential",
    "fold_batchnorm",
    "forward_frozen",
    "HuberLoss",
    "L1Loss",
    "Loss",
    "MSELoss",
    "SGD",
    "Adam",
    "Optimizer",
    "TrainingHistory",
    "Trainer",
    "TrainerConfig",
    "QuantizationSpec",
    "QuantizedSequential",
    "quantize_network",
    "count_macs",
    "count_parameters",
    "layer_summary",
]
