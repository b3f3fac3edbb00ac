import csv
import hashlib
import math
import re
from dataclasses import fields

import numpy as np
import pytest

from vqcompress import cli
from vqcompress.admm import ADMMConfig
from vqcompress.circfile import load_reference
from vqcompress.cli import main, read_config_file
from vqcompress.experiment import ExperimentConfig, config_hash
from vqcompress.training import TrainConfig
from vqcompress.transpile import tcd


def test_depth_subcommand(capsys):
    assert main(["depth"]) == 0
    out = capsys.readouterr().out
    assert "RX 0 1 0 1 0 1 3 1 3 5" in out.replace("  ", " ")
    assert "CRY" in out


def test_lut_subcommand(capsys):
    assert main(["lut", "--circuit", "syn4"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("gate,values,tag,depth")
    assert "RZ,0,prune,0" in out


def test_train_and_recl_roundtrip(tmp_path, capsys):
    params = tmp_path / "params.txt"
    rc = main(["train", "--dataset", "syn4", "--circuit", "syn4", "--seed", "0",
               "--epochs", "15", "--save", str(params)])
    assert rc == 0
    assert params.exists()
    out_csv = tmp_path / "recl.csv"
    rc = main(["recl", "--dataset", "syn4", "--circuit", "syn4", "--seed", "0",
               "--params", str(params), "--out", str(out_csv)])
    assert rc == 0
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == "gate_index,kind,level,depth,metric"
    assert len(lines) == 15  # header + one row per trainable gate


def test_compress_subcommand(capsys):
    rc = main(["compress", "--dataset", "syn4", "--circuit", "syn4", "--seed", "1",
               "--epochs", "10", "--ratio", "0.5", "--max-iters", "2",
               "--epochs-per-iter", "3", "--retrain-epochs", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "CompVQC:" in out and "vanilla:" in out


def test_compress_at_ratio_zero_claims_no_convergence(capsys):
    rc = main(["compress", "--dataset", "syn4", "--circuit", "syn4", "--seed", "1",
               "--epochs", "2", "--ratio", "0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "masked 0 converged False" in out
    assert "iter" not in out  # no ADMM iteration ran


def test_report_formats_and_files(tmp_path):
    base = tmp_path / "rep"
    rc = main(["report", "--dataset", "syn4", "--circuit", "syn4", "--seed", "2",
               "--epochs", "10", "--ratio", "0.5", "--max-iters", "2",
               "--epochs-per-iter", "3", "--retrain-epochs", "3",
               "--methods", "Vanilla,ZeroOnlyPruning", "--format", "all",
               "--out", str(base)])
    assert rc == 0
    for ext in ("txt", "csv", "json"):
        assert (tmp_path / f"rep.{ext}").exists()
    csv_text = (tmp_path / "rep.csv").read_text()
    assert csv_text.splitlines()[1].startswith("Vanilla,")


def test_identical_runs_are_byte_identical(tmp_path):
    args = ["report", "--dataset", "syn4", "--circuit", "syn4", "--seed", "3",
            "--epochs", "8", "--ratio", "0.3", "--max-iters", "2",
            "--epochs-per-iter", "2", "--retrain-epochs", "2",
            "--methods", "Vanilla,CompVQC", "--format", "all"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    # the table and JSON carry the config hash, which must not hash `out`
    for ext in ("txt", "csv", "json"):
        assert a.with_suffix(f".{ext}").read_bytes() == b.with_suffix(f".{ext}").read_bytes()


# Made by the shot-sampling evaluator, before `shots` left the config: a
# noiseless report and its config hash do not depend on how noise is evaluated.
# This report holds only accuracies in tenths, a depth and the hash, so its
# bytes do not depend on float roundoff.  The table and JSON carry the hash,
# so they change with the config fields; the CSV does not.
PINNED_DEFAULT_HASH = "fcde476d8f577a04"
PINNED_REPORT_SHA256 = {
    "txt": "ca1f5c16311019581adb033bf2102a3189c3d7fae5c1a01e53dc60ad6fd479ea",
    "csv": "e55d909fc53c2d2f7d9f8bb6932fb24bd9256410df744ee08b7af859511fc189",
    "json": "16723337f6c9b8e57490f5a4276001ac0a81ff02050b7375b2198ba509e40271",
}


def test_noiseless_reports_ignore_shots(tmp_path):
    assert config_hash(ExperimentConfig()) == PINNED_DEFAULT_HASH
    base = tmp_path / "rep"
    assert main(["report", "--dataset", "syn4", "--circuit", "syn4", "--seed", "3",
                 "--epochs", "2", "--methods", "Vanilla", "--format", "all",
                 "--out", str(base)]) == 0
    assert "config=19a61b545362b65a" in base.with_suffix(".txt").read_text()
    for ext, digest in PINNED_REPORT_SHA256.items():
        assert hashlib.sha256(base.with_suffix(f".{ext}").read_bytes()).hexdigest() == digest


def test_config_file_and_flag_override(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("dataset = syn4\ncircuit = syn4\nseed = 4\nepochs = 6\n"
                       "methods = Vanilla\n# comment\nratio = 0.5\n")
    rc = main(["report", "--config", str(cfgfile), "--format", "csv"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.splitlines()[1].startswith("Vanilla,")


def test_config_file_rejects_unknown_key(tmp_path):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("datset = syn4\n")
    with pytest.raises(Exception):
        read_config_file(cfgfile)
    assert main(["report", "--config", str(cfgfile)]) == 2


def test_exit_code_2_on_config_error():
    assert main(["report", "--dataset", "bogus", "--methods", "Vanilla"]) == 2


@pytest.mark.parametrize("flag, field", [("--lr", "learning_rate"), ("--epochs", "epochs"),
                                         ("--batch-size", "batch_size")])
def test_train_config_field_rejected_with_exit_2(flag, field, capsys):
    rc = main(["compress", "--dataset", "syn4", "--circuit", "syn4", flag, "0"])
    assert rc == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("command", [["train"], ["report", "--methods", "Vanilla"]])
def test_infinite_learning_rate_rejected_with_exit_2(command, capsys):
    rc = main(command + ["--dataset", "syn4", "--circuit", "syn4", "--epochs", "1",
                         "--lr", "inf"])
    assert rc == 2
    assert "learning_rate" in capsys.readouterr().err


@pytest.mark.parametrize("command, seed", [
    (["train", "--dataset", "syn4", "--circuit", "syn4", "--epochs", "1"], "-1"),
    (["depth", "--circuit", "syn4"], "-3"),
    (["report", "--dataset", "syn4", "--circuit", "syn4", "--methods", "Vanilla",
      "--epochs", "1"], "-1"),
])
def test_negative_seed_exits_2(command, seed, capsys):
    assert main(command + ["--seed", seed]) == 2
    assert "seed" in capsys.readouterr().err


def test_exit_code_3_on_runtime_error(monkeypatch):
    def broken(circuit):
        raise RuntimeError("LUT construction failed")

    monkeypatch.setattr(cli, "build_lut", broken)
    assert main(["lut", "--circuit", "syn4"]) == 3


def _params_file(path, values):
    path.write_text("\n".join(str(v) for v in values) + "\n")
    return str(path)


@pytest.mark.parametrize("case", ["missing", "too-few", "non-finite", "no-circuit"])
def test_bad_params_file_exits_2(case, tmp_path, capsys):
    n = load_reference("syn4").n_thetas
    if case == "missing":
        args = ["depth", "--circuit", "syn4", "--params", str(tmp_path / "none.txt")]
    elif case == "too-few":
        args = ["depth", "--circuit", "syn4", "--params", _params_file(tmp_path / "p", [0.1] * 3)]
    elif case == "non-finite":
        args = ["recl", "--dataset", "syn4", "--circuit", "syn4",
                "--params", _params_file(tmp_path / "p", [0.1] * (n - 1) + ["nan"])]
    else:
        args = ["depth", "--params", _params_file(tmp_path / "p", [0.1] * n)]
    assert main(args) == 2
    assert "params" in capsys.readouterr().err


def test_params_file_of_the_circuit_sets_its_tcd(tmp_path, capsys):
    circ = load_reference("syn4")
    values = np.full(circ.n_thetas, 1.2345)
    assert main(["depth", "--circuit", "syn4", "--params",
                 _params_file(tmp_path / "p", values)]) == 0
    assert capsys.readouterr().out.endswith(f"circuit syn4: tcd {tcd(circ, values)}\n")


@pytest.mark.parametrize("field", ["circuit", "config", "dataset", "out", "save"])
def test_missing_input_or_output_path_exits_2_before_training(field, tmp_path, monkeypatch,
                                                             capsys):
    def no_training(*args, **kwargs):
        raise AssertionError("trained before checking the paths")

    monkeypatch.setattr(cli, "vanilla_train", no_training)
    monkeypatch.setattr(cli, "run_experiment", no_training)
    missing = str(tmp_path / "no-dir" / "file")
    args = {"circuit": ["lut", "--circuit", missing],
            "config": ["report", "--config", missing],
            "dataset": ["train", "--circuit", "syn4", "--dataset", f"csv:{missing}"],
            "out": ["report", "--dataset", "syn4", "--circuit", "syn4", "--out", missing],
            "save": ["compress", "--dataset", "syn4", "--circuit", "syn4", "--save", missing]}
    assert main(args[field]) == 2
    assert f"{field}:" in capsys.readouterr().err


AMPLITUDE_CIRC = "qubits 2\n#layers\nRY 0 free\nCRX 0,1 free\nRY 1 free\n#measure perqubitz 2\n"


def _csv(path, n_features, labels=(0, 1), per_label=5):
    rows = [f"{label}," + ",".join(["0.5"] * n_features)
            for label in labels for _ in range(per_label)]
    path.write_text("\n".join(rows) + "\n")
    return f"csv:{path}"


@pytest.mark.parametrize("case, command, words", [
    ("labels-exceed-classes", "report", ("line 11", "label 2", "2 classes")),
    ("fewer-features", "train", ("n_features", "3", "4")),
    ("more-features", "recl", ("n_features", "5", "4")),
    ("amplitude-feature-count", "compress", ("n_features", "3", "4")),
    ("pooled-row-width", "train", ("line 1", "784", "100")),
    ("empty-csv", "report", ("dataset", "no samples")),
    ("empty-test-split", "compress", ("dataset", "4 training", "0 test")),
    ("zero-norm-amplitude-row", "train", ("dataset", "zero-norm")),
    ("syn-exceeds-classes", "train", ("n_classes", "has 2", "measures 1")),
])
def test_dataset_circuit_mismatch_exits_2(case, command, words, tmp_path, capsys):
    args = [command, "--circuit", "syn4", "--epochs", "1"]
    if case == "labels-exceed-classes":
        # the circuit's `#measure` section decides the label range
        args += ["--dataset", _csv(tmp_path / "d.csv", 4, (0, 1, 2))]
    elif case == "syn-exceeds-classes":
        circ = tmp_path / "one.circ"
        circ.write_text("qubits 2\n#encoder\nRY 0 free\nRY 1 free\nRZ 0 free\nRZ 1 free\n"
                        "#layers\nRY 0 free\n#measure perqubitz 1\n")
        args += ["--dataset", "syn4", "--circuit", str(circ)]
    elif case == "fewer-features":
        args += ["--dataset", _csv(tmp_path / "d.csv", 3)]
    elif case == "more-features":
        args += ["--dataset", _csv(tmp_path / "d.csv", 5)]
    elif case == "amplitude-feature-count":
        circ = tmp_path / "amp.circ"
        circ.write_text(AMPLITUDE_CIRC)
        args += ["--dataset", _csv(tmp_path / "d.csv", 3), "--circuit", str(circ)]
    elif case == "pooled-row-width":
        args += ["--dataset", _csv(tmp_path / "d.csv", 100), "--csv-pool"]
    elif case == "empty-csv":
        args += ["--dataset", _csv(tmp_path / "d.csv", 4, labels=())]
    elif case == "empty-test-split":
        args += ["--dataset", _csv(tmp_path / "d.csv", 4, per_label=2)]
    else:
        circ, path = tmp_path / "amp.circ", tmp_path / "d.csv"
        circ.write_text(AMPLITUDE_CIRC)
        _csv(path, 4)
        path.write_text(path.read_text() + "1,0,0,0,0\n")
        args += ["--dataset", f"csv:{path}", "--circuit", str(circ)]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert all(w in err for w in words), err


@pytest.mark.parametrize("row, value", [("0,1e308,1e308,1e308,1e308", "1e+308"),
                                        ("0,-5,7,0.2,0.3", "-5.0")],
                         ids=["huge", "negative"])
def test_csv_feature_outside_unit_interval_exits_2_at_its_line(row, value, tmp_path, capsys):
    path = tmp_path / "d.csv"
    _csv(path, 4)
    path.write_text(path.read_text() + row + "\n")
    assert main(["train", "--dataset", f"csv:{path}", "--circuit", "syn4", "--epochs", "1"]) == 2
    err = capsys.readouterr().err
    assert all(w in err for w in ("line 11", value, "outside [0, 1]")), err


@pytest.mark.parametrize("source", ["flag", "config-file"])
def test_csv_pool_with_synthetic_dataset_exits_2(source, tmp_path, capsys):
    args = ["train", "--dataset", "syn4", "--circuit", "syn4", "--epochs", "1"]
    if source == "flag":
        args.append("--csv-pool")
    else:
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("csv_pool = true\n")
        args += ["--config", str(cfgfile)]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert "csv_pool" in err and "syn4" in err, err


@pytest.mark.parametrize("flags, words", [(["--dataset", "bogus"], ("unknown dataset", "bogus")),
                                          (["--csv-pool"], ("csv_pool", "syn4"))],
                         ids=["bogus-dataset", "csv-pool"])
@pytest.mark.parametrize("command", ["lut", "depth"])
def test_lut_and_depth_check_the_options_they_do_not_read(command, flags, words, capsys):
    # the config is checked whole, whether or not the command resolves a dataset
    assert main([command, "--circuit", "syn4"] + flags) == 2
    err = capsys.readouterr().err
    assert all(w in err for w in words), err


@pytest.mark.parametrize("body, words", [
    ("qubits 2\n#layers\nCRX 0,0 free\n#measure perqubitz 2\n", ("line 3", "duplicate qubit")),
    ("qubits 2\n#layers\nRZ 1 nan\n#measure perqubitz 2\n", ("line 3", "non-finite")),
    ("qubits 2\n#layers\nRX 0 free\n#measure grouping 5\n", ("line 4", "5 classes")),
    ("qubits 0\n#measure perqubitz 2\n", ("line 1", "qubits")),
    ("qubits 2\n#layers\nU3 1 free\n#measure perqubitz 2\n", ("line 3", "U3 takes 3 angle")),
], ids=["duplicate-qubit", "nan-angle", "too-many-classes", "no-qubits", "free-on-u3"])
def test_malformed_circuit_file_exits_2(body, words, tmp_path, capsys):
    circ = tmp_path / "bad.circ"
    circ.write_text(body)
    assert main(["depth", "--circuit", str(circ)]) == 2
    err = capsys.readouterr().err
    assert all(w in err for w in words), err


def test_amplitude_csv_on_encoder_free_circuit_runs(tmp_path, capsys):
    circ = tmp_path / "amp.circ"
    circ.write_text(AMPLITUDE_CIRC)
    assert main(["train", "--dataset", _csv(tmp_path / "d.csv", 4), "--circuit", str(circ),
                 "--epochs", "1"]) == 0


@pytest.mark.parametrize("args, field", [
    (["--noise-p", "1.5"], "noise_p"),
    (["--noise-p", "-0.1"], "noise_p"),
    (["--lr", "0.5", "--rho", "4"], "learning_rate * rho"),
    (["--lr", "1.0"], "learning_rate * rho"),
    (["--epochs", "-1"], "epochs"),
    (["--batch-size", "-2"], "batch_size"),
    (["--lr", "-0.1"], "learning_rate"),
    (["--max-iters", "-1"], "max_iters"),
    (["--max-iters", "0"], "max_iters"),
    (["--epochs-per-iter", "0"], "epochs_per_iter"),
    (["--retrain-epochs", "0"], "retrain_epochs"),
    (["--rho", "nan"], "rho"),
    (["--zeta", "nan"], "zeta"),
])
def test_experiment_config_rejected_before_training(args, field, capsys):
    rc = main(["report", "--dataset", "syn4", "--circuit", "syn4", "--methods",
               "Vanilla,CompVQC", "--epochs", "1", "--max-iters", "1"] + args)
    assert rc == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["train", "--lr", "1.5"],
    ["recl", "--lr", "1.5"],
    ["report", "--methods", "Vanilla,ZeroOnlyPruning", "--lr", "1.0", "--retrain-epochs", "1"],
], ids=["train", "recl", "report-no-admm"])
def test_learning_rate_over_2_by_rho_runs_without_an_admm_method(args):
    # lr * rho < 2 bounds only the proximal step of the ADMM methods
    assert main(args[:1] + ["--dataset", "syn4", "--circuit", "syn4", "--epochs", "1"]
                + args[1:]) == 0


def test_config_file_orientation_outside_choices_exits_2(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("dataset = syn4\ncircuit = syn4\norientation = Speedup\n")
    assert main(["report", "--config", str(cfgfile)]) == 2
    assert "orientation" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["orientation = speedup", "scaled_lambda = true",
                                  "momentum = 0.9", "encoding = amplitude", "shots = 64",
                                  "n_classes = 3"])
def test_config_file_removed_key_exits_2(line, tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"dataset = syn4\ncircuit = syn4\n{line}\n")
    assert main(["report", "--config", str(cfgfile)]) == 2
    assert f"unknown config key {line.split()[0]!r}" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--orientation", "ratio"], ["--scaled-lambda"],
                                   ["--momentum", "5"], ["--momentum", "-3"],
                                   ["--momentum", "1"], ["--encoding", "amplitude"],
                                   ["--shots", "64"], ["--n-classes", "3"]])
def test_removed_flag_exits_2(flags, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["report", "--dataset", "syn4", "--circuit", "syn4"] + flags)
    assert exc.value.code == 2
    assert flags[0] in capsys.readouterr().err


@pytest.mark.parametrize("line, key", [("epochs = ten", "epochs"), ("lr = fast", "lr"),
                                       ("csv_pool = ture", "csv_pool")])
def test_config_file_malformed_value_exits_2(line, key, tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"dataset = syn4\ncircuit = syn4\n{line}\n")
    assert main(["report", "--config", str(cfgfile)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key}: "), err


@pytest.mark.parametrize("config_line, flags, want", [
    ("csv_pool = TRUE", [], True), ("csv_pool = Yes", [], True), ("csv_pool = 1", [], True),
    ("csv_pool = False", [], False), ("csv_pool = no", [], False), ("csv_pool = 0", [], False),
    ("", ["--csv-pool"], True), ("", [], False),
])
def test_csv_pool_spellings(config_line, flags, want, tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(config_line + "\n")
    args = cli.make_parser().parse_args(["report", "--dataset", "csv:d.csv",
                                         "--config", str(cfgfile)] + flags)
    assert cli.build_config(args).csv_pool is want


def test_every_config_field_has_exactly_one_key():
    """Each config field is set by one key; `seed` also sets TrainConfig.seed."""
    for cls, names in ((ExperimentConfig, list(cli._TOP_KEYS) + ["train", "admm"]),
                       (TrainConfig, [name for name, _ in cli._TRAIN_KEYS.values()] + ["seed"]),
                       (ADMMConfig, [name for name, _ in cli._ADMM_KEYS.values()])):
        assert sorted(f.name for f in fields(cls)) == sorted(names), cls.__name__
    all_keys = list(cli._TOP_KEYS) + list(cli._TRAIN_KEYS) + list(cli._ADMM_KEYS)
    assert len(all_keys) == len(set(all_keys))


@pytest.mark.parametrize("args", [
    ["train", "--dataset", "syn4", "--circuit", "syn4", "--epochs", "2"],
    ["depth", "--circuit", "syn4"],
    ["compress", "--dataset", "syn4", "--circuit", "syn4", "--epochs", "2", "--ratio", "0.5",
     "--max-iters", "2", "--epochs-per-iter", "1", "--retrain-epochs", "1"],
], ids=["train", "depth", "compress"])
def test_out_file_holds_the_printed_text(args, tmp_path, capsys):
    assert main(args) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "out.txt"
    assert main(args + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text() == printed


SHARED_RUN = ["--dataset", "syn4", "--circuit", "syn4", "--seed", "5", "--epochs", "6",
              "--ratio", "0.5", "--max-iters", "2", "--epochs-per-iter", "2",
              "--retrain-epochs", "3", "--noise-p", "0.02"]


@pytest.fixture(scope="module")
def shared_report(tmp_path_factory):
    base = tmp_path_factory.mktemp("shared") / "rep"
    assert main(["report", "--methods", "Vanilla,ZeroOnlyPruning,PruneOnly,QuantOnly,CompVQC",
                 "--format", "csv", "--out", str(base)] + SHARED_RUN) == 0
    with open(base.with_suffix(".csv"), newline="") as fh:
        return {row["method"]: row for row in csv.DictReader(fh)}


@pytest.mark.parametrize("method", ["ZeroOnlyPruning", "PruneOnly", "QuantOnly", "CompVQC"])
def test_compress_prints_the_report_row(method, shared_report, capsys):
    assert main(["compress", "--method", method] + SHARED_RUN) == 0
    lines = capsys.readouterr().out.splitlines()
    van, row = shared_report["Vanilla"], shared_report[method]
    assert lines[0] == (f"vanilla: acc {float(van['accuracy']):.3f} tcd {van['tcd']} "
                        f"noisy acc {float(van['noisy_accuracy']):.3f}")
    assert lines[1].startswith(f"{method}: acc {float(row['accuracy']):.3f} "
                               f"({float(row['acc_vs_baseline']):+.3f}) tcd {row['tcd']} "
                               f"({float(row['speedup']):.2f}x) masked ")
    assert lines[1].endswith(f" noisy acc {float(row['noisy_accuracy']):.3f}")


# A seeded boundary table: each numeric flag on a subcommand that reads it,
# and one feature cell of a CSV, take every value below.  The input must run
# (exit 0) or fail at the boundary (exit 2); exit 3 means it reached numpy.
BOUNDARY = ("0", "-1", "nan", "inf", "1e308", str(10**30), "")
LOOP_COUNTS = ("--epochs", "--max-iters", "--epochs-per-iter", "--retrain-epochs")
TINY_TRAIN = ["train", "--dataset", "syn4", "--circuit", "syn4", "--epochs", "1"]
TINY_COMPRESS = ["compress", "--dataset", "syn4", "--circuit", "syn4", "--epochs", "1",
                 "--max-iters", "1", "--epochs-per-iter", "1", "--retrain-epochs", "1"]
READER = {"--seed": TINY_TRAIN, "--lr": TINY_TRAIN, "--epochs": TINY_TRAIN,
          "--batch-size": TINY_TRAIN, "--ratio": TINY_COMPRESS, "--rho": TINY_COMPRESS,
          "--alpha": TINY_COMPRESS, "--zeta": TINY_COMPRESS, "--max-iters": TINY_COMPRESS,
          "--epochs-per-iter": TINY_COMPRESS, "--retrain-epochs": TINY_COMPRESS,
          "--noise-p": TINY_COMPRESS}
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?|\b(?:nan|inf)\b", re.IGNORECASE)


def _boundary_cases():
    for flag, command in READER.items():
        for value in BOUNDARY:
            if flag in LOOP_COUNTS and value == str(10**30):
                continue  # a valid count that only runs long
            yield pytest.param(command + [flag, value], id=f"{flag}={value or 'empty'}")
    for value in BOUNDARY:
        yield pytest.param(["csv", value], id=f"csv-cell={value or 'empty'}")


@pytest.mark.parametrize("argv", _boundary_cases())
def test_boundary_values_exit_0_or_2(argv, tmp_path, capsys):
    if argv[0] == "csv":
        path = tmp_path / "d.csv"
        _csv(path, 4)
        path.write_text(path.read_text() + f"1,0.5,{argv[1]},0.5,0.5\n")
        argv = TINY_TRAIN + ["--dataset", f"csv:{path}"]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects a value its type cannot read
        code = exc.code
    assert code in (0, 2)
    out = capsys.readouterr().out
    assert all(math.isfinite(float(n)) for n in NUMBER.findall(out)), out
