"""Command-line interface.

Subcommands: train, depth, lut, recl, compress, report.  Options may come
from a flat key=value config file (--config) and are overridable by flags.
Exit codes: 0 success, 2 configuration/parse error, 3 runtime error.
"""

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from .admm import ADMMConfig, vanilla_train
from .errors import ConfigError, ParseError
from .experiment import (METHOD_ORDER, ExperimentConfig, format_report, resolve_circuit,
                         resolve_inputs, run_experiment)
from .lut import build_lut
from .recl import reconstruct_lut
from .training import TrainConfig, init_params, loss_and_accuracy
from .transpile import PARAM_CLASSES, build_depth_table, tcd

_BOOLS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _parse_bool(s) -> bool:
    if str(s).lower() not in _BOOLS:
        raise ValueError(f"expected one of {'/'.join(_BOOLS)}, got {s!r}")
    return _BOOLS[str(s).lower()]


def _parse_methods(s) -> tuple:
    return tuple(m.strip() for m in s.split(",") if m.strip())


_TRAIN_KEYS = {"lr": ("learning_rate", float), "epochs": ("epochs", int),
               "batch_size": ("batch_size", int)}
_ADMM_KEYS = {"ratio": ("target_ratio", float), "rho": ("rho", float),
              "alpha": ("alpha", float), "zeta": ("zeta", float),
              "max_iters": ("max_iters", int), "epochs_per_iter": ("epochs_per_iter", int),
              "retrain_epochs": ("retrain_epochs", int)}
_TOP_KEYS = {"dataset": str, "circuit": str, "seed": int, "noise_p": float,
             "out": str, "csv_pool": _parse_bool, "methods": _parse_methods}


def read_config_file(path) -> dict:
    if not os.path.isfile(path):
        raise ConfigError(f"config: no file named {path!r}")
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError(f"expected key=value, got {line!r}", lineno)
            key, val = (p.strip() for p in line.split("=", 1))
            if key not in _TOP_KEYS and key not in _TRAIN_KEYS and key not in _ADMM_KEYS:
                raise ParseError(f"unknown config key {key!r}", lineno)
            values[key] = val
    return values


def build_config(args) -> ExperimentConfig:
    values = read_config_file(args.config) if args.config else {}
    for key in list(_TOP_KEYS) + list(_TRAIN_KEYS) + list(_ADMM_KEYS):
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag

    train_kwargs, admm_kwargs, top_kwargs = {}, {}, {}
    for key, val in values.items():
        if key in _TRAIN_KEYS:
            kwargs, (name, conv) = train_kwargs, _TRAIN_KEYS[key]
        elif key in _ADMM_KEYS:
            kwargs, (name, conv) = admm_kwargs, _ADMM_KEYS[key]
        else:
            kwargs, name, conv = top_kwargs, key, _TOP_KEYS[key]
        try:
            kwargs[name] = conv(val)
        except ValueError as exc:
            raise ConfigError(f"{key}: {exc}") from None
    cfg = ExperimentConfig(train=TrainConfig(**train_kwargs), admm=ADMMConfig(**admm_kwargs),
                           **top_kwargs)
    for name, path in (("out", cfg.out), ("save", getattr(args, "save", None))):
        if path and not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            raise ConfigError(f"{name}: the directory of {path!r} does not exist")
    return cfg


def _load_params(path, circuit) -> np.ndarray:
    """A `--params` file: one finite value per theta slot of the circuit."""
    if not os.path.isfile(path):
        raise ConfigError(f"params: no file named {path!r}")
    try:
        values = np.loadtxt(path, ndmin=1)
    except ValueError as exc:
        raise ConfigError(f"params: {path!r} is not a list of numbers ({exc})") from None
    if values.shape != (circuit.n_thetas,):
        raise ConfigError(f"params: {path!r} holds {values.size} values, the circuit has "
                          f"{circuit.n_thetas} parameters")
    if not np.isfinite(values).all():
        raise ConfigError(f"params: {path!r} holds non-finite values")
    return values


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--dataset", help="syn4 | syn16 | csv:<path>")
    p.add_argument("--circuit", help="syn4 | syn16 | path to a .circ file")
    p.add_argument("--seed", type=int)
    p.add_argument("--csv-pool", dest="csv_pool", action="store_const", const="true")
    p.add_argument("--lr", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--ratio", type=float)
    p.add_argument("--rho", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--zeta", type=float)
    p.add_argument("--max-iters", dest="max_iters", type=int)
    p.add_argument("--epochs-per-iter", dest="epochs_per_iter", type=int)
    p.add_argument("--retrain-epochs", dest="retrain_epochs", type=int)
    p.add_argument("--noise-p", dest="noise_p", type=float)
    p.add_argument("--out")


def _emit(text: str, path: str | None) -> None:
    if not path:
        print(text, end="")
        return
    with open(path, "w") as fh:
        fh.write(text)


def cmd_train(args) -> int:
    cfg = build_config(args)
    dataset, circuit = resolve_inputs(cfg)
    params = vanilla_train(circuit, dataset, cfg.train)
    train_loss, train_acc = loss_and_accuracy(circuit, params, dataset.train)
    test_loss, test_acc = loss_and_accuracy(circuit, params, dataset.test)
    text = (f"train loss {train_loss:.4f} acc {train_acc:.3f} | "
            f"test loss {test_loss:.4f} acc {test_acc:.3f} | tcd {tcd(circuit, params)}\n")
    if args.save:
        np.savetxt(args.save, params)
        text += f"saved parameters to {args.save}\n"
    _emit(text, cfg.out)
    return 0


def cmd_depth(args) -> int:
    cfg = build_config(args)
    if args.params and not (args.circuit or args.config):
        raise ConfigError("params: --params needs --circuit or --config")
    lines = ["gate " + " ".join(PARAM_CLASSES)]
    lines += [name + " " + " ".join(str(d) for d in row)
              for name, row in build_depth_table().rows()]
    if args.circuit or args.config:
        circuit = resolve_circuit(cfg)
        params = (_load_params(args.params, circuit) if args.params
                  else init_params(circuit, cfg.train))
        lines.append(f"circuit {cfg.circuit}: tcd {tcd(circuit, params)}")
    _emit("\n".join(lines) + "\n", cfg.out)
    return 0


def cmd_lut(args) -> int:
    cfg = build_config(args)
    _emit(build_lut(resolve_circuit(cfg)).write_csv_text(), cfg.out)
    return 0


def cmd_recl(args) -> int:
    cfg = build_config(args)
    dataset, circuit = resolve_inputs(cfg)
    params = (_load_params(args.params, circuit) if args.params
              else vanilla_train(circuit, dataset, cfg.train))
    recon = reconstruct_lut(circuit, params, build_lut(circuit), dataset.train)
    lines = ["gate_index,kind,level,depth,metric"]
    for gi in sorted(recon.levels):
        lv = recon.levels[gi]
        vals = ";".join(f"{v:.10g}" for v in lv.value)
        lines.append(f"{gi},{circuit.layers[gi].kind.value},{vals},{lv.depth},"
                     f"{recon.metrics[gi]!r}")
    _emit("\n".join(lines) + "\n", cfg.out)
    return 0


def _noisy(row) -> str:
    return "" if row.noisy_accuracy is None else f" noisy acc {row.noisy_accuracy:.3f}"


def cmd_compress(args) -> int:
    cfg = build_config(args)
    report = run_experiment(replace(cfg, methods=("Vanilla", args.method)))
    vanilla, row = report.row("Vanilla"), report.row(args.method)
    result = report.results[args.method]
    lines = [f"vanilla: acc {vanilla.accuracy:.3f} tcd {vanilla.tcd}{_noisy(vanilla)}",
             f"{args.method}: acc {row.accuracy:.3f} ({row.acc_vs_baseline:+.3f}) tcd {row.tcd} "
             f"({row.speedup:.2f}x) masked {result.mask.count} "
             f"converged {result.converged}{_noisy(row)}"]
    lines += [f"  iter {rec.r}: loss {rec.loss:.4f} acc {rec.acc:.3f} tcd {rec.tcd} "
              f"gap {rec.theta_z_gap:.2e}" for rec in result.records]
    if args.save:
        np.savetxt(args.save, result.params)
    _emit("\n".join(lines) + "\n", cfg.out)
    return 0


def cmd_report(args) -> int:
    cfg = build_config(args)
    report = run_experiment(cfg)
    fmts = ("table", "csv", "json") if args.format == "all" else (args.format,)
    ext = {"table": "txt", "csv": "csv", "json": "json"}
    for fmt in fmts:
        path = f"{cfg.out}.{ext[fmt]}" if cfg.out else None
        _emit(format_report(report, fmt), path)
        if path:
            print(f"wrote {path}")
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="vqcompress",
                                     description="Compilation-aware compression of "
                                                 "variational quantum classifiers")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train the uncompressed circuit")
    _add_common(p)
    p.add_argument("--save", help="write trained parameters to a file")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("depth", help="print the standalone depth table and circuit TCD")
    _add_common(p)
    p.add_argument("--params", help="parameter file for the circuit TCD")
    p.set_defaults(func=cmd_depth)

    p = sub.add_parser("lut", help="emit the compression-level table as CSV")
    _add_common(p)
    p.set_defaults(func=cmd_lut)

    p = sub.add_parser("recl", help="emit the per-gate reconstructed levels as CSV")
    _add_common(p)
    p.add_argument("--params", help="trained parameter file (otherwise trains first)")
    p.set_defaults(func=cmd_recl)

    p = sub.add_parser("compress", help="run one compression method end to end")
    _add_common(p)
    p.add_argument("--method", default="CompVQC", choices=METHOD_ORDER[1:])
    p.add_argument("--save", help="write compressed parameters to a file")
    p.set_defaults(func=cmd_compress)

    p = sub.add_parser("report", help="run the requested methods and emit a report")
    _add_common(p)
    p.add_argument("--methods", help="comma-separated subset of " + ",".join(METHOD_ORDER))
    p.add_argument("--format", default="table", choices=("table", "csv", "json", "all"))
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ParseError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure in any module
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
