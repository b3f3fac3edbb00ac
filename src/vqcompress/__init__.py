"""Compilation-aware compression of variational quantum classifiers."""

from .admm import (ADMMConfig, ADMMState, BaselineMode, CompressionMask,
                   CompressionResult, baseline_compress, run_cqcp_admm)
from .circfile import load_circuit_file, load_reference, parse_circuit
from .circuit import Circuit, Gate, MeasureScheme, MeasurementSpec
from .data import Dataset, Sample, generate_synthetic, load_csv
from .gates import GateKind, gate_matrix, wrap_param
from .lut import CompressionLUT, CompressionLevel, build_lut, nearest_level
from .recl import ReconstructedLUT, level_metric, reconstruct_lut
from .simulator import apply_gate, measure_outputs, run_circuit
from .training import TrainConfig, forward, loss_and_accuracy, loss_gradient, sgd_train
from .transpile import (DepthTable, TranspiledCircuit, build_depth_table, peephole_optimize,
                        standalone_gate_depth, tcd, transpile_circuit)

__version__ = "0.1.0"
