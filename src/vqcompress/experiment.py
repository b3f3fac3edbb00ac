"""Experiment orchestration: run methods against a shared warm start, report.

`run_experiment` is the only place that maps a method name to its pipeline.
It trains the warm start once and, when an ADMM method runs at a nonzero
target ratio, sweeps ReCL over the full LUT once; every method takes what it
needs from that sweep.  At target ratio 0 every method is the warm start.
Reports are pure data keyed by method: test accuracy, delta versus vanilla,
transpiled depth, speedup (vanilla TCD / method TCD), optional noisy accuracy,
and the method's `CompressionResult`.  The same values are emitted in table,
CSV, and JSON form; identical configs produce byte-identical reports.
"""

import hashlib
import io
import json
import os
from dataclasses import asdict, dataclass, field, replace

from .admm import (ADMMConfig, BaselineMode, baseline_compress, empty_result,
                   run_cqcp_admm, vanilla_train)
from .circfile import REFERENCE_NAMES, load_circuit_file, load_reference
from .circuit import Circuit
from .data import Dataset, generate_synthetic, load_csv, stack
from .errors import ConfigError, EncodeError
from .lut import build_lut
from .noise import noisy_accuracy
from .recl import reconstruct_lut
from .training import TrainConfig, input_states, loss_and_accuracy
from .transpile import tcd

METHOD_ORDER = ("Vanilla", "ZeroOnlyPruning", "PruneOnly", "QuantOnly", "CompVQC")
# The methods whose ADMM loop takes proximal SGD steps, which diverge at lr * rho >= 2.
ADMM_METHODS = ("PruneOnly", "QuantOnly", "CompVQC")


@dataclass
class ExperimentConfig:
    dataset: str = "syn4"
    circuit: str = "syn4"
    methods: tuple = ("Vanilla", "CompVQC")
    seed: int = 0
    csv_pool: bool = False           # 28x28 -> 4x4 average pooling on CSV rows
    noise_p: float | None = None
    out: str | None = None
    train: TrainConfig = field(default_factory=TrainConfig)
    admm: ADMMConfig = field(default_factory=ADMMConfig)

    def __post_init__(self):
        self.methods = tuple(self.methods)
        if not self.methods:
            raise ConfigError("no methods requested")
        for m in self.methods:
            if m not in METHOD_ORDER:
                raise ConfigError(f"unknown method {m!r}; choose from {METHOD_ORDER}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.dataset not in ("syn4", "syn16") and not self.dataset.startswith("csv:"):
            raise ConfigError(f"unknown dataset spec {self.dataset!r} (syn4 | syn16 | csv:<path>)")
        if self.csv_pool and not self.dataset.startswith("csv:"):
            raise ConfigError(f"csv_pool: only CSV rows are pooled, and dataset "
                              f"{self.dataset!r} is not csv:<path>")
        if self.noise_p is not None and not 0.0 <= self.noise_p <= 1.0:
            raise ConfigError(f"noise_p {self.noise_p} outside [0, 1]")
        self.train = replace(self.train, seed=self.seed)


@dataclass
class MethodRow:
    method: str
    accuracy: float
    acc_vs_baseline: float
    tcd: int
    speedup: float
    noisy_accuracy: float | None = None


@dataclass
class Report:
    rows: list
    results: dict  # method -> CompressionResult
    seed: int
    config_hash: str

    def row(self, method: str) -> MethodRow:
        for r in self.rows:
            if r.method == method:
                return r
        raise KeyError(method)


def config_hash(config: ExperimentConfig) -> str:
    """Hash of the fields that decide the results: `out` is left out."""
    fields = asdict(config)
    del fields["out"]
    blob = json.dumps(fields, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def resolve_dataset(config: ExperimentConfig, n_classes: int) -> Dataset:
    """The dataset `config.dataset` names; `ExperimentConfig` checked its spec.
    A CSV label must lie below `n_classes`, the circuit's class count."""
    spec = config.dataset
    if spec in ("syn4", "syn16"):
        return generate_synthetic(int(spec[3:]), 100, seed=config.seed)
    if not os.path.isfile(spec[4:]):
        raise ConfigError(f"dataset: no file named {spec[4:]!r}")
    return load_csv(spec[4:], n_classes, seed=config.seed, pool=config.csv_pool)


def resolve_circuit(config: ExperimentConfig) -> Circuit:
    if config.circuit in REFERENCE_NAMES:
        return load_reference(config.circuit)
    if not os.path.isfile(config.circuit):
        raise ConfigError(f"circuit: no file named {config.circuit!r} "
                          f"(syn4 | syn16 | path to a .circ file)")
    return load_circuit_file(config.circuit)


def resolve_inputs(config: ExperimentConfig) -> tuple[Dataset, Circuit]:
    """Dataset and circuit, checked to fit each other before any training."""
    circuit = resolve_circuit(config)
    dataset = resolve_dataset(config, circuit.measurement.n_classes)
    if not dataset.train or not dataset.test:
        raise ConfigError(f"dataset: the 90/10 split of {config.dataset!r} leaves "
                          f"{len(dataset.train)} training and {len(dataset.test)} test "
                          f"samples; both must be non-empty")
    if dataset.n_features != circuit.n_inputs:
        raise ConfigError(f"n_features: the dataset has {dataset.n_features}, the circuit "
                          f"reads {circuit.n_inputs}")
    if dataset.n_classes > circuit.measurement.n_classes:
        raise ConfigError(f"n_classes: the dataset has {dataset.n_classes}, the circuit "
                          f"measures {circuit.measurement.n_classes}")
    try:  # encodes every sample the way training will
        input_states(circuit, stack(dataset.train + dataset.test)[0])
    except EncodeError as exc:
        raise ConfigError(f"dataset: {exc}") from None
    return dataset, circuit


def run_experiment(config: ExperimentConfig) -> Report:
    """Run the requested methods in fixed order from one shared warm start."""
    lr, rho = config.train.learning_rate, config.admm.rho
    if set(config.methods) & set(ADMM_METHODS) and lr * rho >= 2:
        raise ConfigError(f"learning_rate * rho must be below 2 with an ADMM method, "
                          f"got {lr} * {rho}")
    dataset, circuit = resolve_inputs(config)

    def evaluate(params) -> tuple[float, int]:
        return loss_and_accuracy(circuit, params, dataset.test)[1], tcd(circuit, params)

    warm = vanilla_train(circuit, dataset, config.train)
    vanilla_acc, vanilla_tcd = evaluate(warm)
    uncompressed = config.admm.target_ratio == 0.0
    recon = None
    if not uncompressed and set(config.methods) & set(ADMM_METHODS):
        recon = reconstruct_lut(circuit, warm, build_lut(circuit), dataset.train)

    rows, results = [], {}
    for method in METHOD_ORDER:
        if method not in config.methods:
            continue
        if method == "Vanilla" or uncompressed:
            result = empty_result(circuit, warm)
        elif method == "CompVQC":
            result = run_cqcp_admm(circuit, dataset, recon, config.admm, config.train, warm)
        else:
            result = baseline_compress(BaselineMode(method), circuit, dataset, recon,
                                       config.admm, config.train, warm)
        acc, depth = (vanilla_acc, vanilla_tcd) if method == "Vanilla" else evaluate(result.params)
        noisy = None
        if config.noise_p is not None:
            noisy = noisy_accuracy(circuit, result.params, dataset.test, config.noise_p)
        rows.append(MethodRow(method, acc, acc - vanilla_acc, depth,
                              vanilla_tcd / max(depth, 1), noisy))
        results[method] = result
    return Report(rows, results, config.seed, config_hash(config))


def _fmt_table(report: Report) -> str:
    out = io.StringIO()
    noisy = any(r.noisy_accuracy is not None for r in report.rows)
    head = f"{'Method':<18} {'Acc. (vs. Baseline)':<22} {'TCD (Speedup)':<16}"
    if noisy:
        head += " Noisy Acc."
    out.write(head + "\n")
    out.write("-" * len(head) + "\n")
    for r in report.rows:
        acc = f"{100 * r.accuracy:.2f}% ({100 * r.acc_vs_baseline:+.2f}%)"
        depth = f"{r.tcd} ({r.speedup:.2f}x)"
        line = f"{r.method:<18} {acc:<22} {depth:<16}"
        if noisy:
            line += f" {100 * r.noisy_accuracy:.2f}%" if r.noisy_accuracy is not None else " -"
        out.write(line + "\n")
    for method, result in report.results.items():
        if not result.records:
            continue
        out.write(f"\n[{method} iterations]\n")
        out.write("r loss acc tcd theta_z_gap\n")
        for rec in result.records:
            out.write(f"{rec.r} {rec.loss!r} {rec.acc!r} {rec.tcd} {rec.theta_z_gap!r}\n")
    out.write(f"\nseed={report.seed} config={report.config_hash}\n")
    return out.getvalue()


def _fmt_csv(report: Report) -> str:
    lines = ["method,accuracy,acc_vs_baseline,tcd,speedup,noisy_accuracy"]
    for r in report.rows:
        noisy = "" if r.noisy_accuracy is None else repr(r.noisy_accuracy)
        lines.append(f"{r.method},{r.accuracy!r},{r.acc_vs_baseline!r},{r.tcd},"
                     f"{r.speedup!r},{noisy}")
    return "\n".join(lines) + "\n"


def _fmt_json(report: Report) -> str:
    payload = {
        "seed": report.seed,
        "config_hash": report.config_hash,
        "rows": [asdict(r) for r in report.rows],
        "traces": {m: [asdict(rec) for rec in res.records]
                   for m, res in report.results.items()},
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


_FORMATTERS = {"table": _fmt_table, "csv": _fmt_csv, "json": _fmt_json}


def format_report(report: Report, fmt: str) -> str:
    if not report.rows:
        raise ConfigError("report has no method rows")
    try:
        return _FORMATTERS[fmt](report)
    except KeyError:
        raise ConfigError(f"unknown report format {fmt!r}") from None
