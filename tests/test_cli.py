"""Command-line interface: subcommands, overrides, and error reporting."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import promptlab
from promptlab import (
    CheckpointError,
    ConfigError,
    ConvNetSpec,
    Dataset,
    DataFormatError,
    GraphError,
    NumericsError,
    PromptLabError,
    ShapeError,
    cli,
    init_params,
    save_model,
    save_raw,
)
from conftest import poison_checkpoint
from promptlab.cli import main
from test_harness import small_config

SRC = str(Path(promptlab.__file__).resolve().parents[1])


@pytest.fixture
def config_file(tmp_path):
    def _write(**tweaks):
        raw = small_config(out=tmp_path / "out", **tweaks)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        return path, tmp_path / "out"

    return _write


def test_eval_runs_and_prints_sweep_rows(config_file, capsys):
    path, out = config_file()
    assert main(["eval", "--config", str(path)]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == f"report written to {out / 'report.json'}"
    assert lines[1].startswith("epsilon=0.000 std_acc=")
    assert lines[2].startswith("epsilon=0.050 ")
    assert (out / "report.json").exists()


def test_train_source_writes_checkpoint(config_file, capsys):
    path, out = config_file()
    assert main(["train-source", "--config", str(path)]) == 0
    assert "source.ckpt" in capsys.readouterr().out
    assert (out / "source.ckpt").exists()
    assert (out / "source_metrics.csv").exists()
    assert (out / "timing.json").exists()
    assert not (out / "prompt.ckpt").exists()


def test_train_prompt_writes_prompt_artifacts(config_file, capsys):
    path, out = config_file()
    assert main(["train-prompt", "--config", str(path)]) == 0
    capsys.readouterr()
    for name in ("prompt.ckpt", "prompt_metrics.csv", "prompt.ppm", "timing.json"):
        assert (out / name).exists(), name


def test_sweep_prints_table_and_writes_csv(config_file, capsys):
    path, out = config_file()
    assert main(["sweep-T", "--config", str(path)]) == 0
    printed = capsys.readouterr().out
    lines = printed.strip().split("\n")
    assert lines[0] == "T,m,std_acc,adv_acc,std_delta,adv_delta"
    assert len(lines) == 4  # grid [1, 2, 4]
    assert printed.encode() == (out / "sweep.csv").read_bytes()


def test_report_prints_ablation_grid(config_file, capsys):
    path, out = config_file()
    assert main(["report", "--config", str(path)]) == 0
    printed = capsys.readouterr().out
    lines = printed.strip().split("\n")
    assert lines[0] == "pbl,at,T,std_acc,adv_acc,wall_ms_per_epoch,peak_mem_bytes"
    assert len(lines) == 5
    assert printed.encode() == (out / "ablation.csv").read_bytes()


def test_seed_and_out_overrides(config_file, tmp_path, capsys):
    path, _ = config_file()
    other = tmp_path / "elsewhere"
    assert main(["eval", "--config", str(path), "--seed", "42", "--out", str(other)]) == 0
    capsys.readouterr()
    stored = json.loads((other / "config.json").read_text())
    assert stored["seed"] == 42


def test_missing_config_file_reports_config_error(tmp_path, capsys):
    assert main(["eval", "--config", str(tmp_path / "absent.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error[config] ")
    assert "not found" in err


def test_invalid_json_reports_config_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{oops")
    assert main(["eval", "--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error[config] ")


def test_config_directory_reports_one_config_error(tmp_path, capsys):
    assert main(["eval", "--config", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"error[config] config file: path is not a file: {tmp_path}\n"


def test_config_that_is_not_utf8_reports_one_config_error(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"output_dir": "r\u00e9sultats"}'.encode("latin-1"))
    assert main(["eval", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error[config] config file {path} is not valid JSON: 'utf-8' codec can't decode byte 0xe9")
    assert err.count("\n") == 1


def test_corrupt_dataset_reports_data_error(config_file, tmp_path, capsys):
    garbage = tmp_path / "garbage.vpds"
    garbage.write_bytes(b"not a dataset")
    path, _ = config_file(
        data__files={
            "source_train": str(garbage),
            "source_test": str(garbage),
            "downstream_train": str(garbage),
            "downstream_test": str(garbage),
        }
    )
    raw = json.loads(path.read_text())
    del raw["data"]["source"], raw["data"]["downstream"]
    path.write_text(json.dumps(raw))
    assert main(["eval", "--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error[data] ")


@pytest.mark.parametrize("n, n_classes", [(0, 2), (4, 0)])
def test_empty_dataset_file_fails_before_the_output_directory(config_file, tmp_path, capsys, n, n_classes):
    """A VPDS header with no examples or no classes fails validation, not the run."""
    files = {}
    for key, size in [("source_train", (8, 1, 16, 16)), ("source_test", (8, 1, 16, 16)),
                      ("downstream_train", (4, 1, 8, 8)), ("downstream_test", (n, 1, 8, 8))]:
        files[key] = tmp_path / f"{key}.vpds"
        save_raw(files[key], Dataset(np.zeros(size, np.float32), np.arange(size[0]) % 2, 2))
    blob = bytearray(files["downstream_test"].read_bytes())
    blob[22:26] = n_classes.to_bytes(4, "little")  # K, after magic, version and N, C, h, w
    files["downstream_test"].write_bytes(bytes(blob))
    path, out = config_file()
    raw = json.loads(path.read_text())
    raw["data"] = {"files": {key: str(file) for key, file in files.items()}}
    path.write_text(json.dumps(raw))
    assert main(["eval", "--config", str(path)]) == 1
    assert capsys.readouterr().err == (
        f"error[config] data.files.downstream_test: downstream_test has {n} examples of {n_classes} classes; "
        "it needs one of each\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "error, code",
    [
        (ShapeError, "shape"),
        (GraphError, "graph"),
        (NumericsError, "numerics"),
        (CheckpointError, "checkpoint"),
        (DataFormatError, "data"),
        (ConfigError, "config"),
        (PromptLabError, "internal"),
    ],
)
def test_each_error_class_prints_its_code(config_file, monkeypatch, capsys, error, code):
    def fail(cfg):
        raise error("it went wrong")

    monkeypatch.setattr(cli, "run_experiment", fail)
    path, _ = config_file()
    assert main(["eval", "--config", str(path)]) == 1
    assert capsys.readouterr().err == f"error[{code}] it went wrong\n"


def test_bad_data_block_fails_before_the_output_directory(config_file, capsys):
    path, out = config_file(data__source__noise_level=0.7)
    assert main(["train-source", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error[config] data.source: noise_level")
    assert err.count("\n") == 1
    assert not out.exists()


def test_unexportable_channel_count_fails_before_the_output_directory(config_file, capsys):
    """Two channels fit every shape check, but no prompt image can show them."""
    path, out = config_file(
        source__spec__input_size=[2, 16, 16],
        data__source__image_size=[2, 16, 16],
        data__downstream__image_size=[2, 8, 8],
    )
    assert main(["eval", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == "error[config] source.spec.input_size: the channel count must be 1 or 3, got 2\n"
    assert not out.exists()


def test_source_data_that_does_not_fit_the_spec_fails_before_the_output_directory(config_file, capsys):
    path, out = config_file(data__source__n_classes=9)
    assert main(["eval", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == "error[config] data.source.n_classes: source_train has 9 classes, more than source.spec.n_classes=8\n"
    assert not out.exists()


def test_frame_without_width_fails_before_the_output_directory(config_file, capsys):
    """Downstream images as large as the canvas match a frame of width 0."""
    path, out = config_file(prompt__pad_width=0, data__downstream__image_size=[1, 16, 16])
    assert main(["eval", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == "error[config] prompt.pad_width: pad_width must be >= 1, got 0\n"
    assert not out.exists()


def test_output_dir_that_is_a_file_reports_one_config_error(config_file, tmp_path, capsys):
    path, _ = config_file()
    taken = tmp_path / "taken"
    taken.write_bytes(b"keep me")
    assert main(["train-source", "--config", str(path), "--out", str(taken)]) == 1
    assert capsys.readouterr().err == f"error[config] output_dir: {taken} exists and is not a directory\n"
    assert taken.read_bytes() == b"keep me"


def test_directory_checkpoint_fails_before_the_output_directory(config_file, tmp_path, capsys):
    path, out = config_file(source__checkpoint=str(tmp_path))
    assert main(["train-source", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == f"error[config] source.checkpoint: path is not a file: {tmp_path}\n"
    assert not out.exists()


def test_checkpoint_of_another_architecture_fails_before_the_output_directory(config_file, tmp_path, capsys):
    spec = ConvNetSpec(input_size=(1, 16, 16), conv_blocks=((6, 3, 2),), hidden_width=24, n_classes=9)
    ckpt = tmp_path / "nine.ckpt"
    save_model(ckpt, init_params(spec, seed=0))
    path, out = config_file(source__checkpoint=str(ckpt))
    assert main(["eval", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == (
        "error[checkpoint] source.checkpoint: entry 'output.weight' has shape (24, 9), architecture wants (24, 8)\n"
    )
    assert not out.exists()


def test_corrupt_checkpoint_reports_checkpoint_error(config_file, tmp_path, capsys):
    fake = tmp_path / "fake.ckpt"
    fake.write_bytes(b"VPCKgarbage")
    path, _ = config_file(source__checkpoint=str(fake))
    assert main(["eval", "--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error[checkpoint] ")


def test_non_finite_checkpoint_reports_one_checkpoint_error(config_file, tmp_path, capsys):
    spec = ConvNetSpec(input_size=(1, 16, 16), conv_blocks=((6, 3, 2),), hidden_width=24, n_classes=8)
    ckpt = tmp_path / "source.ckpt"
    save_model(ckpt, init_params(spec, seed=0))
    poison_checkpoint(ckpt, "hidden.bias", np.nan)
    path, out = config_file(source__checkpoint=str(ckpt))
    assert main(["eval", "--config", str(path)]) == 1
    assert capsys.readouterr().err == "error[checkpoint] source.checkpoint: NaN or Inf in entry 'hidden.bias'\n"
    assert not out.exists()


def test_subcommand_is_required():
    with pytest.raises(SystemExit):
        main([])


def test_console_script_entry_point(config_file):
    path, out = config_file()
    # the child imports the promptlab this suite runs, installed or not
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "promptlab.cli", "eval", "--config", str(path)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "report written to" in proc.stdout
    assert (out / "report.json").exists()
