import pytest

from vqcompress.cli import main, read_config_file


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
            "--methods", "Vanilla,CompVQC", "--format", "csv"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


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


@pytest.mark.parametrize("shots", ["0", "-5"])
def test_shots_below_one_rejected_with_exit_2(shots, capsys):
    rc = main(["report", "--dataset", "syn4", "--circuit", "syn4", "--methods", "Vanilla",
               "--epochs", "1", "--noise-p", "0.02", "--shots", shots])
    assert rc == 2
    assert "shots" in capsys.readouterr().err


def test_exit_code_3_on_runtime_error(tmp_path):
    missing = tmp_path / "missing.circ"
    assert main(["lut", "--circuit", str(missing)]) == 3
