"""Experiment orchestration: run methods against a shared warm start, report.

Reports are pure data keyed by method: test accuracy, delta versus the
vanilla baseline, transpiled depth, and speedup (vanilla TCD / method TCD),
plus per-iteration traces for the ADMM methods.  The same values are emitted
in table, CSV, and JSON form; nothing time-dependent goes in, so identical
configs produce byte-identical reports.
"""

import hashlib
import io
import json
from dataclasses import asdict, dataclass, field, replace

from .admm import (ADMMConfig, BaselineMode, baseline_compress, run_cqcp_admm,
                   vanilla_train)
from .circfile import REFERENCE_NAMES, load_circuit_file, load_reference
from .circuit import Circuit
from .data import (Dataset, EncodeScheme, EncoderSpec, generate_synthetic, load_csv)
from .errors import ConfigError
from .lut import build_lut
from .noise import noisy_accuracy
from .recl import SPEEDUP
from .training import TrainConfig, loss_and_accuracy
from .transpile import DEFAULT_BASIS, tcd

METHOD_ORDER = ("Vanilla", "ZeroOnlyPruning", "PruneOnly", "QuantOnly", "CompVQC")
_BASELINE_MODES = {
    "ZeroOnlyPruning": BaselineMode.ZERO_ONLY_PRUNING,
    "PruneOnly": BaselineMode.PRUNE_ONLY,
    "QuantOnly": BaselineMode.QUANT_ONLY,
}


@dataclass
class ExperimentConfig:
    dataset: str = "syn4"
    circuit: str = "syn4"
    methods: tuple = ("Vanilla", "CompVQC")
    seed: int = 0
    encoding: str = "angle"          # angle | amplitude
    orientation: str = SPEEDUP
    n_classes: int = 2               # for CSV datasets
    csv_pool: bool = False           # 28x28 -> 4x4 average pooling on CSV rows
    noise_p: float | None = None
    shots: int = 4096
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
        if self.encoding not in ("angle", "amplitude"):
            raise ConfigError(f"unknown encoding {self.encoding!r}")
        if self.shots < 1:
            raise ConfigError(f"shots must be at least 1, got {self.shots}")


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
    traces: dict
    seed: int
    config_hash: str

    def row(self, method: str) -> MethodRow:
        for r in self.rows:
            if r.method == method:
                return r
        raise KeyError(method)


def config_hash(config: ExperimentConfig) -> str:
    blob = json.dumps(asdict(config), sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def resolve_dataset(config: ExperimentConfig) -> Dataset:
    spec = config.dataset
    if spec == "syn4":
        return generate_synthetic(4, 100, seed=config.seed)
    if spec == "syn16":
        return generate_synthetic(16, 100, seed=config.seed)
    if spec.startswith("csv:"):
        return load_csv(spec[4:], config.n_classes, seed=config.seed, pool=config.csv_pool)
    raise ConfigError(f"unknown dataset spec {spec!r} (syn4 | syn16 | csv:<path>)")


def resolve_circuit(config: ExperimentConfig) -> Circuit:
    if config.circuit in REFERENCE_NAMES:
        return load_reference(config.circuit)
    return load_circuit_file(config.circuit)


def encoding_spec(config: ExperimentConfig) -> EncoderSpec | None:
    if config.encoding == "amplitude":
        return EncoderSpec(EncodeScheme.AMPLITUDE)
    return None  # angle features are consumed by the circuit's data-bound encoder


def run_experiment(config: ExperimentConfig) -> Report:
    """Run the requested methods in fixed order from one shared warm start."""
    dataset = resolve_dataset(config)
    circuit = resolve_circuit(config)
    encoding = encoding_spec(config)
    basis = DEFAULT_BASIS
    train_cfg = replace(config.train, seed=config.seed)
    lut = build_lut(circuit, basis)

    warm = vanilla_train(circuit, dataset, train_cfg, encoding)
    vanilla_tcd = tcd(circuit, warm, basis)
    _, vanilla_acc = loss_and_accuracy(circuit, warm, dataset.test, encoding)

    rows, traces = [], {}
    for method in METHOD_ORDER:
        if method not in config.methods:
            continue
        if method == "Vanilla":
            params, records = warm, []
        elif method == "CompVQC":
            result = run_cqcp_admm(circuit, dataset, lut, config.admm, train_cfg,
                                   encoding, basis, warm_theta=warm,
                                   orientation=config.orientation)
            params, records = result.params, result.records
        else:
            result = baseline_compress(_BASELINE_MODES[method], circuit, dataset, lut,
                                       config.admm, train_cfg, encoding, basis,
                                       warm_theta=warm, orientation=config.orientation)
            params, records = result.params, result.records
        _, acc = loss_and_accuracy(circuit, params, dataset.test, encoding)
        depth = tcd(circuit, params, basis)
        noisy = None
        if config.noise_p is not None:
            noisy = noisy_accuracy(circuit, params, dataset.test, config.noise_p,
                                   config.shots, config.seed, encoding, basis)
        rows.append(MethodRow(method, acc, acc - vanilla_acc, depth,
                              vanilla_tcd / max(depth, 1), noisy))
        traces[method] = records
    return Report(rows, traces, config.seed, config_hash(config))


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
    for method, records in report.traces.items():
        if not records:
            continue
        out.write(f"\n[{method} iterations]\n")
        out.write("r loss acc tcd theta_z_gap\n")
        for rec in records:
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
        "traces": {m: [asdict(rec) for rec in recs] for m, recs in report.traces.items()},
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


def emit_report(report: Report, fmt: str, path) -> None:
    text = format_report(report, fmt)
    with open(path, "w") as fh:
        fh.write(text)


def parse_csv_report(text: str) -> list[MethodRow]:
    """Inverse of the CSV format, for round-trip checks."""
    rows = []
    for line in text.strip().splitlines()[1:]:
        method, acc, delta, depth, speedup, noisy = line.split(",")
        rows.append(MethodRow(method, float(acc), float(delta), int(depth),
                              float(speedup), float(noisy) if noisy else None))
    return rows
