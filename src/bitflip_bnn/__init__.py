"""Binarized neural network engine with weight-bit fault injection and an
ST-MRAM programming-energy model."""

from .bitcore import (
    BinarizedConvLayer,
    BinarizedLinearLayer,
    BitTensor,
    BnnModel,
    conv_forward,
    linear_forward,
    load_model,
    model_predict_batch,
    pack,
    save_model,
    xnor_popcount_row,
)
from .errors import FormatError, NumericError
from .faultsim import SweepResult, accuracy, ber_sweep, flip_bits
from .mnist_io import Dataset, binarize_input, load_idx_images, load_idx_labels
from .mtj import (
    EnergyStats,
    MtjDeviceParams,
    ProgrammingPoint,
    conduction_energy,
    energy_ber_curve,
    load_device_config,
    mean_switching_time,
    pulse_for_ber,
    resistances,
    switching_time_sample,
    write_energy_mc,
)
from .trainer import LatentModel, TrainConfig, export_model, train

__version__ = "0.1.0"

__all__ = [
    "BinarizedConvLayer",
    "BinarizedLinearLayer",
    "BitTensor",
    "BnnModel",
    "Dataset",
    "EnergyStats",
    "FormatError",
    "LatentModel",
    "MtjDeviceParams",
    "NumericError",
    "ProgrammingPoint",
    "SweepResult",
    "TrainConfig",
    "accuracy",
    "ber_sweep",
    "binarize_input",
    "conduction_energy",
    "conv_forward",
    "energy_ber_curve",
    "export_model",
    "flip_bits",
    "linear_forward",
    "load_device_config",
    "load_idx_images",
    "load_idx_labels",
    "load_model",
    "mean_switching_time",
    "model_predict_batch",
    "pack",
    "pulse_for_ber",
    "resistances",
    "save_model",
    "switching_time_sample",
    "train",
    "write_energy_mc",
    "xnor_popcount_row",
]
