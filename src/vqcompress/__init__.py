"""Compilation-aware compression of variational quantum classifiers."""

from .admm import (ADMMConfig, ADMMState, BaselineMode, CompressionMask,
                   CompressionResult, baseline_compress, run_cqcp_admm)
from .circfile import load_circuit_file, load_reference, parse_circuit
from .circuit import Circuit, Gate, MeasureScheme, MeasurementSpec
from .data import Dataset, Sample, generate_synthetic, load_csv
from .gates import GateKind, gate_matrix, wrap_param
from .lut import CompressionLUT, CompressionLevel, build_lut
from .recl import ReconstructedLUT, reconstruct_lut
from .simulator import run_circuit
from .training import TrainConfig, loss_and_accuracy, sgd_train
from .transpile import (DepthTable, TranspiledCircuit, build_depth_table, standalone_gate_depth,
                        tcd, transpile_circuit)

__version__ = "0.1.0"
