import csv
import hashlib
import io
import json
import sys
from dataclasses import asdict

import numpy as np
import pytest

from vqcompress import training, transpile
from vqcompress.admm import ADMMConfig
from vqcompress.circfile import load_reference
from vqcompress.cli import main
from vqcompress.data import generate_synthetic
from vqcompress.errors import ConfigError
from vqcompress.experiment import (METHOD_ORDER, ExperimentConfig, Report, MethodRow,
                                   format_report, run_experiment)
from vqcompress.training import TrainConfig, encode, init_params, sgd_train

FAST = dict(train=TrainConfig(epochs=12),
            admm=ADMMConfig(target_ratio=0.5, max_iters=3, epochs_per_iter=4,
                            retrain_epochs=6))


def test_methods_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(methods=())
    with pytest.raises(ConfigError):
        ExperimentConfig(methods=("Vanilla", "Nope"))


def test_vanilla_only_report():
    cfg = ExperimentConfig(methods=("Vanilla",), seed=1, **FAST)
    report = run_experiment(cfg)
    assert len(report.rows) == 1
    row = report.rows[0]
    assert row.method == "Vanilla"
    assert row.speedup == pytest.approx(1.0)
    assert row.acc_vs_baseline == pytest.approx(0.0)


def test_methods_run_in_fixed_order_sharing_warm_start():
    cfg = ExperimentConfig(methods=("CompVQC", "Vanilla", "ZeroOnlyPruning"),
                           seed=2, **FAST)
    report = run_experiment(cfg)
    assert [r.method for r in report.rows] == ["Vanilla", "ZeroOnlyPruning", "CompVQC"]
    vanilla = report.row("Vanilla")
    for r in report.rows:
        assert r.speedup == pytest.approx(vanilla.tcd / max(r.tcd, 1))
        assert r.acc_vs_baseline == pytest.approx(r.accuracy - vanilla.accuracy)


def test_reports_are_deterministic_and_byte_identical():
    cfg = ExperimentConfig(methods=("Vanilla", "CompVQC"), seed=3, **FAST)
    a, b = run_experiment(cfg), run_experiment(cfg)
    for fmt in ("table", "csv", "json"):
        assert format_report(a, fmt) == format_report(b, fmt)


# sha256 of the JSON report below.  Changes that keep every training and
# evaluation bit keep this digest; one that moves bits on purpose updates it
# and says so.
REPORT_SYN4_SHA256 = "e4d553a907be5df6604ffc99f9a90b9c597f06c551098021b8c44f9450981d36"


# The five methods on syn4 with noise, on the report-syn4 benchmark schedule.
REPORT_SYN4 = ExperimentConfig(methods=METHOD_ORDER, seed=1, noise_p=0.02,
                               train=TrainConfig(epochs=10),
                               admm=ADMMConfig(max_iters=6, epochs_per_iter=2, retrain_epochs=10))


def test_five_method_syn4_report_keeps_its_bytes():
    """All five methods on syn4 with noise, on the report-syn4 benchmark
    schedule: every gradient, ADMM record and noisy accuracy is in the JSON."""
    text = format_report(run_experiment(REPORT_SYN4), "json")
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_SYN4_SHA256


# sha256 of `compress` stdout and its `--save` file on syn16 at seed 601, on
# the compress-syn16 benchmark schedule: the 4-qubit circuit's CompVQC retrain,
# with its masked gates, must keep every bit too.
COMPRESS_SYN16_SHA256 = {
    "stdout": "de44940587811daf3469b117035501df495165c115597230b40863cfee1e3f25",
    "save": "614945e5b857fbefaefac1de42ee567cd360953ecdca384ab810a5340de2ed15",
}


COMPRESS_SYN16 = ["compress", "--dataset", "syn16", "--circuit", "syn16", "--seed", "601",
                  "--epochs", "4", "--max-iters", "4", "--epochs-per-iter", "1",
                  "--retrain-epochs", "4"]


def test_syn16_compress_keeps_its_bytes(tmp_path, capsys):
    saved = tmp_path / "params.txt"
    assert main(COMPRESS_SYN16 + ["--save", str(saved)]) == 0
    digests = {"stdout": capsys.readouterr().out.encode(), "save": saved.read_bytes()}
    assert {k: hashlib.sha256(v).hexdigest() for k, v in digests.items()} == COMPRESS_SYN16_SHA256


@pytest.mark.parametrize("schedule", ["report-syn4", "compress-syn16"])
def test_a_run_encodes_its_train_and_test_split_once(schedule, monkeypatch, capsys):
    """The encoder runs once on the 90 train rows and once on the 10 test
    rows: the warm start, ReCL, every ADMM iteration and retrain and every
    score read those two splits."""
    original, rows = training.initial_states, []

    def counted(circuit, feats):
        rows.append(len(feats))
        return original(circuit, feats)

    for module in list(sys.modules.values()):
        if getattr(module, "initial_states", None) is original:
            monkeypatch.setattr(module, "initial_states", counted)
    if schedule == "report-syn4":
        run_experiment(REPORT_SYN4)
    else:
        assert main(COMPRESS_SYN16) == 0
    assert rows == [90, 10]


def test_tcd_lowers_the_encoder_once_per_circuit(monkeypatch):
    circ = load_reference("syn16")
    original, lowered = transpile.lower_gates, []

    def counted(gates, values):
        lowered.append(gates)
        return original(gates, values)

    monkeypatch.setattr(transpile, "lower_gates", counted)
    transpile._encoder_scan.cache_clear()
    rng = np.random.default_rng(31)
    for _ in range(10):
        transpile.tcd(circ, rng.uniform(0, 4 * np.pi, circ.n_thetas))
    assert lowered.count(tuple(circ.encoder)) == 1
    assert lowered.count(tuple(circ.layers)) == 10


def test_an_encoded_split_is_read_only_and_trains_like_its_samples():
    circ, ds = load_reference("syn4"), generate_synthetic(4, 100, seed=31)
    split = encode(circ, ds.train)
    assert len(split) == len(ds.train) and encode(circ, split) is split
    with pytest.raises(ValueError):
        split.states[0, 0] = 0.0
    with pytest.raises(ValueError):
        split.labels[0] = 1
    cfg = TrainConfig(seed=31, epochs=3)
    p0 = init_params(circ, cfg)
    assert np.array_equal(sgd_train(circ, p0, ds.train, cfg), sgd_train(circ, p0, split, cfg))


def csv_values(text):
    """The CSV's rows by column name, numbers read back and an empty cell as None."""
    return [{k: v if k == "method" else float(v) if v else None for k, v in row.items()}
            for row in csv.DictReader(io.StringIO(text))]


def test_csv_round_trip_equals_report():
    cfg = ExperimentConfig(methods=("Vanilla", "ZeroOnlyPruning"), seed=4, **FAST)
    report = run_experiment(cfg)
    rows = csv_values(format_report(report, "csv"))
    assert rows == [asdict(r) for r in report.rows]


def test_formats_carry_identical_values():
    cfg = ExperimentConfig(methods=("Vanilla", "CompVQC"), seed=5, **FAST)
    report = run_experiment(cfg)
    payload = json.loads(format_report(report, "json"))
    csv_rows = csv_values(format_report(report, "csv"))
    table = format_report(report, "table")
    for row, jrow in zip(report.rows, payload["rows"]):
        assert jrow["accuracy"] == row.accuracy
        assert jrow["tcd"] == row.tcd
        assert str(row.tcd) in table
    assert csv_rows == [asdict(r) for r in report.rows]


def test_empty_report_rejected():
    report = Report([], {}, 0, "x")
    with pytest.raises(ConfigError):
        format_report(report, "table")
    with pytest.raises(ConfigError):
        format_report(Report([MethodRow("Vanilla", 1, 0, 1, 1.0)], {}, 0, "x"), "yaml")


def test_ratio_zero_compvqc_equals_vanilla_row():
    cfg = ExperimentConfig(methods=("Vanilla", "CompVQC"), seed=6,
                           train=TrainConfig(epochs=12),
                           admm=ADMMConfig(target_ratio=0.0))
    report = run_experiment(cfg)
    vanilla, comp = report.row("Vanilla"), report.row("CompVQC")
    assert comp.accuracy == vanilla.accuracy
    assert comp.tcd == vanilla.tcd and comp.speedup == pytest.approx(1.0)


def test_unknown_dataset_and_circuit():
    with pytest.raises(ConfigError):
        run_experiment(ExperimentConfig(dataset="bogus", methods=("Vanilla",)))


def test_run_experiment_calls_the_module_level_entry_points(monkeypatch):
    # benchmark tracing wraps these names on the experiment module; a method
    # that bypassed them would vanish from its per-method timings and captures
    calls, returned = [], {}

    def spy(name, fn, label=None):
        def wrapped(*args, **kwargs):
            result = fn(*args, **kwargs)
            key = label(args) if label else name
            calls.append(key)
            returned[key] = result
            return result
        return wrapped

    import vqcompress.experiment as experiment
    monkeypatch.setattr(experiment, "vanilla_train",
                        spy("Vanilla", experiment.vanilla_train))
    monkeypatch.setattr(experiment, "run_cqcp_admm",
                        spy("CompVQC", experiment.run_cqcp_admm))
    monkeypatch.setattr(experiment, "baseline_compress",
                        spy(None, experiment.baseline_compress, lambda a: a[0].value))
    cfg = ExperimentConfig(methods=METHOD_ORDER, seed=7,
                           train=TrainConfig(epochs=4),
                           admm=ADMMConfig(target_ratio=0.5, max_iters=2, epochs_per_iter=2,
                                           retrain_epochs=2))
    report = run_experiment(cfg)
    assert calls == list(METHOD_ORDER)
    assert np.array_equal(report.results["Vanilla"].params, returned["Vanilla"])
    for method in METHOD_ORDER[1:]:
        assert report.results[method] is returned[method]


@pytest.mark.parametrize("methods, ratio, sweeps", [
    (METHOD_ORDER, 0.5, 1),
    (METHOD_ORDER, 0.0, 0),
    (("Vanilla", "ZeroOnlyPruning"), 0.5, 0),
], ids=["five-methods", "ratio-0", "no-admm-method"])
def test_recl_sweeps_once_per_warm_start(monkeypatch, methods, ratio, sweeps):
    import vqcompress.experiment as experiment
    swept, warm = [], {}

    def counted(*args):
        swept.append(args[1])
        return reconstruct(*args)

    def trained(*args):
        warm["theta"] = theta = vanilla(*args)
        warm["copy"] = theta.copy()
        return theta

    reconstruct, vanilla = experiment.reconstruct_lut, experiment.vanilla_train
    monkeypatch.setattr(experiment, "reconstruct_lut", counted)
    monkeypatch.setattr(experiment, "vanilla_train", trained)
    cfg = ExperimentConfig(methods=methods, seed=8, train=TrainConfig(epochs=4),
                           admm=ADMMConfig(target_ratio=ratio, max_iters=2, epochs_per_iter=2,
                                           retrain_epochs=2))
    run_experiment(cfg)
    assert len(swept) == sweeps
    assert all(theta is warm["theta"] for theta in swept)
    assert np.array_equal(warm["theta"], warm["copy"])  # no method moved the warm start


def test_vanilla_parameters_are_evaluated_once(monkeypatch):
    import vqcompress.experiment as experiment
    calls = {"tcd": 0, "loss_and_accuracy": 0}

    def counted(name):
        fn = getattr(experiment, name)

        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    for name in calls:
        monkeypatch.setattr(experiment, name, counted(name))
    report = run_experiment(ExperimentConfig(methods=("Vanilla",), seed=1,
                                             train=TrainConfig(epochs=2)))
    assert calls == {"tcd": 1, "loss_and_accuracy": 1}
    assert report.row("Vanilla").acc_vs_baseline == 0.0
    assert report.row("Vanilla").speedup == 1.0
