"""Experiment harness: config validation, derived seeds, artifacts,
reproducibility, the temperature sweep, and the ablation grid."""

import json
import os
import platform
import re
from pathlib import Path

import numpy as np
import pytest

from promptlab import (
    AttackConfig,
    CheckpointError,
    ConfigError,
    ConvNetSpec,
    DataFormatError,
    Dataset,
    PblConfig,
    TrainHyper,
    VisualPrompt,
    init_params,
    load_prompt,
    save_model,
    save_raw,
    train_prompt,
)
from promptlab.harness import (
    ExperimentConfig,
    default_config,
    export_prompt_image,
    run_ablation_grid,
    run_experiment,
    session,
    sweep_temperature,
)
from promptlab.metrics import read_metrics


HERE = Path(__file__).parent  # a directory that exists
SPLITS = ("source_train", "source_test", "downstream_train", "downstream_test")


def small_config(seed=0, out="runs/t", **tweaks):
    cfg = {
        "seed": seed,
        "output_dir": str(out),
        "source": {
            "spec": {
                "input_size": [1, 16, 16],
                "conv_blocks": [[6, 3, 2]],
                "hidden_width": 24,
                "n_classes": 8,
            },
            "regime": "standard",
            "hyper": {"epochs": 3, "batch_size": 16, "learning_rate": 0.05, "momentum": 0.9},
            "at_hyper": {"epochs": 2, "learning_rate": 0.02},
            "attack": {"epsilon": 0.05},
            "checkpoint": None,
        },
        "prompt": {
            "pad_width": 4,
            "lm": "ilm",
            "temperature": 2,
            "temperature_grid": [1, 2, 4],
            "hyper": {"epochs": 3, "batch_size": 16, "learning_rate": 0.2, "momentum": 0.9},
            "adversarial": False,
            "attack": {"epsilon": 0.05},
        },
        "eval": {"epsilon_grid": [0.0, 0.05], "metrics_epsilon": 0.05},
        "data": {
            "source": {
                "n_classes": 8,
                "samples_per_class": 8,
                "test_samples_per_class": 4,
                "image_size": [1, 16, 16],
                "noise_level": 0.45,
            },
            "downstream": {
                "n_classes": 2,
                "samples_per_class": 8,
                "test_samples_per_class": 6,
                "image_size": [1, 8, 8],
                "noise_level": 0.40,
            },
        },
    }
    for dotted, value in tweaks.items():
        node = cfg
        *head, leaf = dotted.split("__")
        for key in head:
            node = node[key]
        node[leaf] = value
    return cfg


# ---------------------------------------------------------------------------
# config parsing and validation


def test_default_config_is_valid():
    cfg = ExperimentConfig.from_dict(default_config())
    assert cfg.temperature == 2
    assert cfg.temperature_grid == [1, 2, 4]
    assert cfg.source_spec.n_classes == 20


def test_overrides_replace_seed_and_output(tmp_path):
    cfg = ExperimentConfig.from_dict(
        small_config(seed=3), seed_override=9, out_override=tmp_path / "x"
    )
    assert cfg.seed == 9
    assert cfg.raw["seed"] == 9
    assert cfg.output_dir == tmp_path / "x"


def seed_oracle(seed):
    """Slot layout: one generate_state call on the master sequence."""
    state = np.random.SeedSequence(seed).generate_state(8, dtype=np.uint64)
    return {
        "source_train_data": int(state[0]),
        "source_test_data": int(state[1]),
        "downstream_train_data": int(state[2]),
        "downstream_test_data": int(state[3]),
        "source_init": int(state[4]),
        "source_train": int(state[5]),
        "prompt_train": int(state[6]),
        "source_at": int(state[7]),
    }


def test_derived_seed_oracle(experiment_run):
    """The seeds derive by the slot layout, and a run's config.json records them."""
    expected = seed_oracle(17)
    assert ExperimentConfig.from_dict(small_config(seed=17)).derived_seeds == expected
    assert len(set(expected.values())) == 8  # no slot collisions
    out, _ = experiment_run  # seed 0
    assert json.loads((out / "config.json").read_text())["derived_seeds"] == seed_oracle(0)


def test_hyper_accessors_bind_derived_seeds():
    cfg = ExperimentConfig.from_dict(small_config(seed=17))
    assert cfg.source_hyper.seed == cfg.derived_seeds["source_train"]
    assert cfg.prompt_hyper.seed == cfg.derived_seeds["prompt_train"]
    at = cfg.source_at_hyper
    assert at.seed == cfg.derived_seeds["source_at"]
    # adversarial phase inherits batch size and momentum from the base recipe
    assert at.batch_size == 16
    assert at.momentum == 0.9
    assert at.epochs == 2


def adversarial(cfg):
    """Switch ``cfg`` to the adversarial regime; returns its source block."""
    cfg["source"]["regime"] = "adversarial"
    return cfg["source"]


def frame(cfg, pad_width, image_size):
    """Set the frame width and the downstream image size.  With the size a
    by-hand ``canvas - 2 * pad_width`` gives, a width below 1 used to pass."""
    cfg["prompt"]["pad_width"] = pad_width
    cfg["data"]["downstream"]["image_size"] = image_size


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda c: c.pop("seed"), "missing key 'seed'"),
        (lambda c: c["source"].pop("spec"), "source.spec"),
        (lambda c: c["source"]["hyper"].pop("epochs"), "source.hyper"),
        (lambda c: c["source"].__setitem__("regime", "fast"), "regime"),
        (lambda c: c["prompt"].__setitem__("lm", "xlm"), "prompt.lm"),
        (lambda c: c["eval"].__setitem__("epsilon_grid", [-0.1]), r"eval\.epsilon_grid\[0\]: epsilon must be >= 0, got -0\.1"),
        (lambda c: c["prompt"].__setitem__("temperature", 8), r"m=1 < K_t=2"),
        (lambda c: c["prompt"].__setitem__("pad_width", 3), "prompt interior"),
        (lambda c: c["source"].__setitem__("checkpoint", "no/such.ckpt"), "checkpoint"),
        (lambda c: c["prompt"].__setitem__("temprature", 2), "unknown config key 'prompt.temprature'"),
        (lambda c: c["data"]["source"].__setitem__("noise", 0.1), "unknown config key 'data.source.noise'"),
        (lambda c: c.__setitem__("epochs", 3), "unknown config key 'epochs'"),
        (lambda c: adversarial(c)["at_hyper"].__setitem__("epochs", 0), r"source\.at_hyper: epochs must be >= 1, got 0"),
        (lambda c: adversarial(c).pop("at_hyper"), "missing key 'source.at_hyper'"),
        (lambda c: c["data"]["source"].__setitem__("noise_level", 0.7), r"data\.source: noise_level"),
        (lambda c: c["data"]["source"].pop("samples_per_class"), "missing key 'data.source.samples_per_class'"),
        (lambda c: c["data"]["downstream"].__setitem__("samples_per_class", 0), r"data\.downstream: samples_per_class"),
        (lambda c: c["source"]["hyper"].__setitem__("epochs", "ten"), r"source\.hyper: .*'ten'"),
        (lambda c: c["eval"].__setitem__("metrics_epsilon", -1), r"eval\.metrics_epsilon: epsilon must be >= 0"),
        (lambda c: c["source"]["hyper"].__setitem__("learning_rate", float("inf")), r"^source\.hyper: learning_rate must be finite, got inf$"),
        (lambda c: c["prompt"]["hyper"].__setitem__("learning_rate", float("inf")), r"^prompt\.hyper: learning_rate must be finite, got inf$"),
        (lambda c: c["source"]["attack"].__setitem__("epsilon", float("inf")), r"^source\.attack: epsilon must be finite, got inf$"),
        (lambda c: c["prompt"]["attack"].__setitem__("epsilon", float("inf")), r"^prompt\.attack: epsilon must be finite, got inf$"),
        (lambda c: c["eval"].__setitem__("epsilon_grid", [0.0, float("inf")]), r"^eval\.epsilon_grid\[1\]: epsilon must be finite, got inf$"),
        (lambda c: c["eval"].__setitem__("metrics_epsilon", float("inf")), r"^eval\.metrics_epsilon: epsilon must be finite, got inf$"),
        (lambda c: c["prompt"].__setitem__("adversarial", "false"), r"prompt: adversarial must be true or false, got 'false'"),
        (lambda c: c["prompt"].__setitem__("adversarial", 0), r"prompt: adversarial must be true or false, got 0"),
        (lambda c: c["source"]["hyper"].__setitem__("epochs", 2.9), r"source\.hyper: epochs must be an integer, got 2\.9"),
        (lambda c: c["prompt"]["hyper"].__setitem__("batch_size", 16.0), r"prompt\.hyper: batch_size must be an integer, got 16\.0"),
        (lambda c: c["prompt"].__setitem__("temperature", True), r"prompt: temperature must be an integer, got True"),
        (lambda c: c["prompt"].__setitem__("pad_width", "4"), r"prompt: pad_width must be an integer, got '4'"),
        (lambda c: c.__setitem__("seed", 1.0), r"config: seed must be an integer, got 1\.0"),
        (lambda c: c["source"]["spec"].__setitem__("hidden_width", False), r"source\.spec: hidden_width must be an integer, got False"),
        (lambda c: c["source"]["spec"]["conv_blocks"][0].__setitem__(1, 3.0), r"source\.spec: conv_blocks\[0\]\[1\] must be an integer, got 3\.0"),
        (lambda c: c["source"]["spec"].__setitem__("conv_blocks", [6, 3, 2]), r"source\.spec: conv_blocks\[0\] must be a list, got 6"),
        (lambda c: c["source"]["spec"]["input_size"].__setitem__(0, True), r"source\.spec: input_size\[0\] must be an integer, got True"),
        (lambda c: c["data"]["downstream"]["image_size"].__setitem__(2, 8.5), r"data\.downstream: image_size\[2\] must be an integer, got 8\.5"),
        (lambda c: c["data"]["source"].__setitem__("samples_per_class", 8.0), r"data\.source: samples_per_class must be an integer, got 8\.0"),
        (lambda c: c["prompt"].__setitem__("temperature_grid", [1, True]), r"prompt: temperature_grid\[1\] must be an integer, got True"),
        (lambda c: c["prompt"].__setitem__("temperature_grid", 2), r"prompt: temperature_grid must be a list, got 2"),
        (lambda c: c["source"]["hyper"].__setitem__("learning_rate", "0.05"), r"source\.hyper: learning_rate must be a number, got '0\.05'"),
        (lambda c: c["eval"]["epsilon_grid"].__setitem__(0, None), r"eval: epsilon_grid\[0\] must be a number, got None"),
        (lambda c: c["source"].__setitem__("regime", ["standard"]), r"source: regime must be a string"),
        (lambda c: c["source"].__setitem__("checkpoint", False), r"source: checkpoint must be null or a string, got False"),
        (lambda c: c["source"].__setitem__("checkpoint", 0), r"source: checkpoint must be null or a string, got 0"),
        (lambda c: c["source"].__setitem__("checkpoint", []), r"source: checkpoint must be null or a string, got \[\]"),
        (lambda c: c["source"].__setitem__("checkpoint", ""), r"source\.checkpoint: path is not a file: \.$"),
        (lambda c: c["source"].__setitem__("checkpoint", str(HERE)), r"source\.checkpoint: path is not a file: "),
        (lambda c: c.__setitem__("data", {"files": dict.fromkeys(SPLITS, "")}), r"data\.files\.source_train: path is not a file: \.$"),
        (lambda c: c.__setitem__("data", {"files": dict.fromkeys(SPLITS, str(HERE))}), r"data\.files\.source_train: path is not a file: "),
        (lambda c: c.__setitem__("data", {"files": dict.fromkeys(SPLITS)}), r"data\.files: source_train must be a string, got None"),
        (lambda c: c["prompt"].__setitem__("temperature_grid", [0]), r"temperature must be >= 1, got 0"),
        (lambda c: c["prompt"].__setitem__("temperature_grid", [0]), r"^prompt\.temperature_grid\[0\]: temperature must be >= 1, got 0$"),
        (lambda c: c["prompt"].__setitem__("temperature", 0), r"^prompt\.temperature: temperature must be >= 1, got 0$"),
        (lambda c: c["prompt"].__setitem__("temperature", 8), r"^prompt\.temperature: temperature T=8 reduces 8 source logits to m=1 < K_t=2 "),
        (lambda c: c["prompt"].__setitem__("temperature_grid", [1, 8]), r"^prompt\.temperature_grid\[1\]: temperature T=8 reduces"),
        (lambda c: c.__setitem__("output_dir", Path("runs/x")), r"^config key 'output_dir' must hold JSON data, got PosixPath\('runs/x'\)$"),
        (lambda c: c.__setitem__("seed", np.int64(3)), r"^config key 'seed' must hold JSON data, got "),
        (lambda c: c["source"]["hyper"].__setitem__("learning_rate", np.float32(0.05)), r"^config key 'source\.hyper\.learning_rate' must hold JSON data"),
        (lambda c: c["source"]["spec"]["conv_blocks"][0].__setitem__(2, np.int32(2)), r"^config key 'source\.spec\.conv_blocks\[0\]\[2\]' must hold JSON data"),
        (lambda c: c["source"]["spec"]["input_size"].__setitem__(0, 2), r"^source\.spec\.input_size: the channel count must be 1 or 3, got 2$"),
        (lambda c: frame(c, 0, [1, 16, 16]), r"^prompt\.pad_width: pad_width must be >= 1, got 0$"),
        (lambda c: frame(c, -1, [1, 18, 18]), r"^prompt\.pad_width: pad_width must be >= 1, got -1$"),
        (lambda c: frame(c, 8, [1, 1, 1]), r"^prompt\.pad_width: pad_width 8 leaves no interior on a 16x16 canvas$"),
    ],
)
def test_config_validation_messages(mutate, fragment):
    raw = small_config()
    mutate(raw)
    with pytest.raises(ConfigError, match=fragment):
        ExperimentConfig.from_dict(raw)


def test_number_leaves_accept_integers():
    cfg = ExperimentConfig.from_dict(small_config(eval__epsilon_grid=[0, 0.05], source__attack={"epsilon": 0}))
    assert [budget.epsilon for budget in cfg.epsilon_grid] == [0.0, 0.05]
    assert all(type(budget.epsilon) is float for budget in cfg.epsilon_grid)  # report.json writes 0.0, not 0
    assert cfg.source_attack.epsilon == 0.0


def test_tuples_and_numpy_scalars_load_as_plain_json(tmp_path):
    """A config built in Python may hold tuples and NumPy scalars of a JSON
    type; they load as lists and plain numbers, and config.json records the
    same config as its list form."""
    raw = small_config(
        out=tmp_path,
        source__spec__input_size=(1, 16, 16),
        source__spec__conv_blocks=((6, 3, 2),),
        source__hyper__learning_rate=np.float64(0.05),
    )
    cfg = ExperimentConfig.from_dict(raw)
    spec, lr = cfg.raw["source"]["spec"], cfg.raw["source"]["hyper"]["learning_rate"]
    assert type(spec["input_size"]) is list and type(spec["conv_blocks"][0]) is list
    assert type(lr) is float and lr == 0.05
    run_experiment(cfg)
    stored = json.loads((tmp_path / "config.json").read_text())
    assert stored == {**small_config(out=tmp_path), "derived_seeds": cfg.derived_seeds}


def test_optional_keys_default_and_stay_out_of_config_json(tmp_path):
    raw = small_config(out=tmp_path)
    del raw["source"]["at_hyper"], raw["source"]["checkpoint"]
    del raw["prompt"]["temperature_grid"], raw["eval"]["metrics_epsilon"]
    cfg = ExperimentConfig.from_dict(raw)
    defaults = default_config()
    assert cfg.source_at_hyper is None and cfg.source_checkpoint is None
    assert cfg.temperature_grid == defaults["prompt"]["temperature_grid"]
    assert cfg.metrics_epsilon == defaults["eval"]["metrics_epsilon"]
    run_experiment(cfg)
    stored = json.loads((tmp_path / "config.json").read_text())
    assert stored == {**raw, "derived_seeds": cfg.derived_seeds}  # as given, no defaults filled in
    reloaded = ExperimentConfig.from_file(tmp_path / "config.json")
    assert {**reloaded.raw, "derived_seeds": reloaded.derived_seeds} == stored


def test_from_file_round_trip_and_errors(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(small_config(seed=5)))
    cfg = ExperimentConfig.from_file(path)
    assert cfg.seed == 5
    with pytest.raises(ConfigError, match="not found"):
        ExperimentConfig.from_file(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ConfigError, match="not valid JSON"):
        ExperimentConfig.from_file(bad)


def enter_session(config):
    with session(config):
        pass


@pytest.mark.parametrize("entry", [enter_session, run_experiment, sweep_temperature, run_ablation_grid])
@pytest.mark.parametrize("as_path", [str, Path])
def test_entry_points_refuse_a_path(tmp_path, entry, as_path):
    """A config file is read with ExperimentConfig.from_file; an entry
    point given its path fails before it creates the output directory."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(small_config(out=tmp_path / "out")))
    with pytest.raises(ConfigError, match=f"config must be a JSON object, got {type(as_path(path)).__name__}"):
        entry(as_path(path))
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("below", ["", "sub/dir"])
def test_output_dir_under_a_file_is_a_config_error(tmp_path, below):
    """The run could not create an output directory that is a file or lies
    under one; that fails in from_dict, before the run starts."""
    blocker = tmp_path / "taken"
    blocker.write_bytes(b"keep me")
    with pytest.raises(ConfigError, match=re.escape(f"output_dir: {blocker} exists and is not a directory")):
        ExperimentConfig.from_dict(small_config(out=blocker / below))
    assert blocker.read_bytes() == b"keep me"


def test_non_json_config_fails_before_the_output_directory(tmp_path):
    raw = small_config()
    raw["output_dir"] = tmp_path / "out"  # a Path, where the config holds a string
    with pytest.raises(ConfigError, match="config key 'output_dir' must hold JSON data"):
        run_experiment(raw)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "leaf, value",
    [("n_classes", k) for k in (9, 16, 1000)]
    + [
        ("image_size", size)
        for size in (
            [2, 16, 16], [3, 16, 16],
            [1, 8, 16], [1, 17, 16], [1, 32, 16],
            [1, 16, 1], [1, 16, 15], [1, 16, 20], [1, 16, 64],
        )
    ],
    ids=lambda v: str(v).replace(", ", "-"),
)
def test_source_data_that_does_not_fit_the_spec_fails_before_the_output_directory(tmp_path, leaf, value):
    """More classes than source logits, or images of another size than the
    source input, used to pass validation and fail in the first batch."""
    with pytest.raises(ConfigError, match=rf"^data\.source\.{leaf}: source_train "):
        run_experiment(small_config(out=tmp_path / "out", **{f"data__source__{leaf}": value}))
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "split, images, n_classes, fragment",
    [
        ("source_test", np.zeros((4, 1, 16, 12), np.float32), 8, r"images \(1, 16, 12\) do not match"),
        ("source_train", np.zeros((4, 1, 16, 16), np.float32), 9, "has 9 classes, more than source.spec.n_classes=8"),
        ("downstream_test", np.zeros((4, 1, 6, 6), np.float32), 2, r"images \(1, 6, 6\) do not fill the prompt interior \(1, 8, 8\) "),
        ("downstream_test", np.zeros((4, 1, 8, 8), np.float32), 5, "has 5 classes, more than K_t=2$"),
    ],
    ids=["image_size", "n_classes", "downstream_test-image_size", "downstream_test-n_classes"],
)
def test_source_files_that_do_not_fit_the_spec_fail_before_the_output_directory(
    tmp_path, split, images, n_classes, fragment
):
    files = {}
    for key, ds in ExperimentConfig.from_dict(small_config()).datasets().items():
        if key == split:
            ds = Dataset(images, np.zeros(len(images), np.int64), n_classes)
        files[key] = str(tmp_path / f"{key}.vpds")
        save_raw(files[key], ds)
    raw = small_config(out=tmp_path / "out")
    raw["data"] = {"files": files}
    with pytest.raises(ConfigError, match=rf"^data\.files\.{split}: {split} {fragment}"):
        run_experiment(raw)
    assert not (tmp_path / "out").exists()


def vpds_config(tmp_path, **replaced):
    """small_config's splits, with each split in ``replaced`` swapped in, and
    a config that reads them from VPDS files under ``tmp_path``."""
    data = {**ExperimentConfig.from_dict(small_config()).datasets(), **replaced}
    raw = small_config(out=tmp_path / "out")
    raw["data"] = {"files": {key: str(tmp_path / f"{key}.vpds") for key in data}}
    for key, ds in data.items():
        save_raw(raw["data"]["files"][key], ds)
    return data, raw


def test_a_truncated_split_fails_before_the_output_directory(tmp_path):
    """Validation reads only a VPDS file's header, so a payload cut short
    passes it; the run loads every split before it creates the output
    directory, so the load error leaves nothing behind."""
    _, raw = vpds_config(tmp_path)
    path = Path(raw["data"]["files"]["downstream_test"])
    path.write_bytes(path.read_bytes()[:-10])
    with pytest.raises(DataFormatError, match="truncated dataset file while reading pixels"):
        run_experiment(raw)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "fault, prefix, split, argument",
    [("temperature", "prompt.temperature: ", "", ""),
     ("interior", "data.files.downstream_train: ", "downstream_train", "dataset")],
    ids=["temperature", "interior"],
)
def test_config_runs_and_train_prompt_state_a_fault_in_one_text(tmp_path, fault, prefix, split, argument):
    """A temperature that leaves fewer than K_t slots, or downstream images
    that do not fill the prompt interior, read the same from a config run
    and from ``train_prompt``: the config message is the library's, after
    the config key, with the split named where the library names its argument."""
    small = Dataset(np.zeros((4, 1, 6, 6), np.float32), np.arange(4) % 2, 2)
    data, raw = vpds_config(tmp_path, **({"downstream_train": small} if fault == "interior" else {}))
    raw["prompt"]["temperature"] = 8 if fault == "temperature" else 2
    with pytest.raises(ConfigError) as config_run:
        ExperimentConfig.from_dict(raw)
    spec = ExperimentConfig.from_dict(small_config()).source_spec
    source = init_params(spec, 0).copy(frozen=True)
    with pytest.raises(ConfigError) as library:
        train_prompt(source, data["downstream_train"], "ilm", PblConfig(raw["prompt"]["temperature"]),
                     TrainHyper(1, 16, 0.2, 0.9, 0), pad_width=raw["prompt"]["pad_width"])
    text = str(library.value)
    assert text.startswith(argument)
    assert str(config_run.value) == prefix + split + text.removeprefix(argument)


# ---------------------------------------------------------------------------
# dataset construction


def test_datasets_have_the_configured_geometry():
    data = ExperimentConfig.from_dict(small_config()).datasets()
    assert data["source_train"].images.shape == (64, 1, 16, 16)
    assert data["source_test"].images.shape == (32, 1, 16, 16)
    assert data["downstream_train"].images.shape == (16, 1, 8, 8)
    assert data["downstream_test"].images.shape == (12, 1, 8, 8)
    assert data["downstream_train"].n_classes == 2


def test_datasets_are_deterministic_and_split_independent():
    a = ExperimentConfig.from_dict(small_config()).datasets()
    b = ExperimentConfig.from_dict(small_config()).datasets()
    for key in a:
        assert a[key].images.tobytes() == b[key].images.tobytes()
    # train and test draw from different derived seeds
    assert a["source_train"].images[:32].tobytes() != a["source_test"].images.tobytes()


def test_file_backed_datasets(tmp_path):
    synthetic = ExperimentConfig.from_dict(small_config()).datasets()
    files = {}
    for key, ds in synthetic.items():
        path = tmp_path / f"{key}.vpds"
        save_raw(path, ds)
        files[key] = str(path)
    raw = small_config()
    raw["data"] = {"files": files}
    loaded = ExperimentConfig.from_dict(raw).datasets()
    for key in files:
        assert loaded[key].images.shape == synthetic[key].images.shape
        assert np.array_equal(loaded[key].labels, synthetic[key].labels)


def test_file_backed_datasets_require_existing_paths(tmp_path):
    raw = small_config()
    raw["data"] = {
        "files": {
            "source_train": str(tmp_path / "a.vpds"),
            "source_test": str(tmp_path / "b.vpds"),
            "downstream_train": str(tmp_path / "c.vpds"),
            "downstream_test": str(tmp_path / "d.vpds"),
        }
    }
    with pytest.raises(ConfigError, match="does not exist"):
        ExperimentConfig.from_dict(raw)


# ---------------------------------------------------------------------------
# full pipeline runs


@pytest.fixture(scope="module")
def experiment_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    report = run_experiment(small_config(out=out))
    return out, report


def test_run_writes_all_artifacts(experiment_run):
    out, _ = experiment_run
    for name in (
        "source_metrics.csv",
        "source.ckpt",
        "prompt_metrics.csv",
        "prompt.ckpt",
        "prompt.ppm",
        "report.json",
        "config.json",
        "timing.json",
    ):
        assert (out / name).exists(), name
    timing = json.loads((out / "timing.json").read_text())
    assert "prompt_cells_s" not in timing
    assert timing["cpus"] == len(os.sched_getaffinity(0))


def test_run_leaves_no_gradient_on_the_classifier_prompt(tmp_path, monkeypatch):
    """The epsilon grid forms no prompt gradient: the classifier comes back
    with no gradient and its flag set."""
    import promptlab.harness as harness

    kept = []
    real = harness.train_and_save_prompt

    def keeping(*args, **kwargs):
        clf, records = real(*args, **kwargs)
        kept.append(clf)
        return clf, records

    monkeypatch.setattr(harness, "train_and_save_prompt", keeping)
    run_experiment(small_config(out=tmp_path, prompt__hyper__epochs=1))
    (clf,) = kept
    assert [(t.grad, t.requires_grad) for _, t in clf.prompt.named_tensors()] == [(None, True)]


def test_timing_records_the_environment_and_what_the_run_cost(tmp_path):
    run_experiment(small_config(out=tmp_path))
    timing = json.loads((tmp_path / "timing.json").read_text())
    assert (timing["python"], timing["numpy"], timing["machine"]) == (
        platform.python_version(), np.__version__, platform.machine()
    )
    assert list(timing["rusage"]) == ["self"]  # the run starts no process
    usage = timing["rusage"]["self"]
    assert set(usage) == {"minflt", "utime_s", "stime_s", "maxrss"}
    assert usage["utime_s"] + usage["stime_s"] > 0
    assert usage["minflt"] >= 0  # a run in a process whose heap is already mapped may fault in no page
    assert usage["maxrss"] > 0  # the peak so far, not a delta


def test_report_matches_metrics_and_disk(experiment_run):
    out, report = experiment_run
    on_disk = json.loads((out / "report.json").read_text())
    assert on_disk == report
    prompt_records = read_metrics(out / "prompt_metrics.csv")
    assert report["final_std_acc"] == pytest.approx(prompt_records[-1].std_acc, abs=5e-7)
    assert report["final_adv_acc"] == pytest.approx(prompt_records[-1].adv_acc, abs=5e-7)
    assert report["temperature"] == 2
    mapping = report["label_mapping"]
    assert mapping["kind"] == "ilm"
    assert len(mapping["indices"]) == 2
    assert len(set(mapping["indices"])) == 2  # injective
    eval_rows = report["prompt_eval"]
    assert [row["epsilon"] for row in eval_rows] == [0.0, 0.05]
    zero = eval_rows[0]
    # a zero-budget attack cannot flip anything that was already correct
    assert zero["adversarial_accuracy"] == 1.0
    assert zero["n_survived_attack"] == zero["n_correct"]


def test_saved_prompt_checkpoint_is_loadable(experiment_run):
    out, report = experiment_run
    prompt, temperature = load_prompt(out / "prompt.ckpt")
    assert temperature == report["temperature"]
    assert prompt.canvas == (1, 16, 16)
    assert prompt.pad_width == 4
    assert not prompt.params.data[~prompt.mask].any()


def test_config_json_records_derived_seeds(experiment_run):
    out, _ = experiment_run
    stored = json.loads((out / "config.json").read_text())
    assert stored["derived_seeds"] == ExperimentConfig.from_dict(small_config()).derived_seeds
    assert stored["seed"] == 0
    # a run's own config.json loads back as a config describing the same run
    reloaded = ExperimentConfig.from_file(out / "config.json")
    assert {**reloaded.raw, "derived_seeds": reloaded.derived_seeds} == stored


def test_rerun_is_bitwise_identical(experiment_run, tmp_path):
    out, report = experiment_run
    again = run_experiment(small_config(out=tmp_path / "again"))
    assert again == report
    for name in ("source_metrics.csv", "prompt_metrics.csv", "source.ckpt", "prompt.ckpt", "prompt.ppm"):
        assert (tmp_path / "again" / name).read_bytes() == (out / name).read_bytes(), name


def test_seed_changes_results(experiment_run, tmp_path):
    out, _ = experiment_run
    other = run_experiment(small_config(seed=1, out=tmp_path / "other"))
    assert (tmp_path / "other" / "source.ckpt").read_bytes() != (out / "source.ckpt").read_bytes()
    assert other["seed"] == 1


def test_checkpoint_reuse_skips_source_training(experiment_run, tmp_path):
    out, _ = experiment_run
    cfg = small_config(out=tmp_path / "reuse", source__checkpoint=str(out / "source.ckpt"))
    run_experiment(cfg)
    reused = tmp_path / "reuse"
    assert not (reused / "source_metrics.csv").exists()
    assert (reused / "source.ckpt").read_bytes() == (out / "source.ckpt").read_bytes()
    # same frozen source + same derived prompt seed => identical prompt phase
    assert (reused / "prompt_metrics.csv").read_bytes() == (out / "prompt_metrics.csv").read_bytes()


def test_checkpointed_sweep_reads_the_checkpoint_once(experiment_run, tmp_path, monkeypatch):
    """Validation loads source.checkpoint, and the run uses what it loaded."""
    from promptlab import harness

    loads = []
    load_model = harness.load_model
    monkeypatch.setattr(harness, "load_model", lambda *args, **kw: loads.append(args[0]) or load_model(*args, **kw))
    out, _ = experiment_run
    sweep_temperature(
        small_config(out=tmp_path, source__checkpoint=str(out / "source.ckpt"), prompt__temperature_grid=[1])
    )
    assert len(loads) == 1
    assert (tmp_path / "source.ckpt").read_bytes() == (out / "source.ckpt").read_bytes()


@pytest.mark.parametrize("entry", [ExperimentConfig.from_dict, run_experiment, sweep_temperature])
def test_checkpoint_of_another_architecture_fails_before_the_output_directory(tmp_path, entry):
    spec = ConvNetSpec(input_size=(1, 16, 16), conv_blocks=((6, 3, 2),), hidden_width=24, n_classes=9)
    ckpt = tmp_path / "nine.ckpt"
    save_model(ckpt, init_params(spec, seed=0))
    raw = small_config(out=tmp_path / "out", source__checkpoint=str(ckpt))
    with pytest.raises(CheckpointError) as info:
        entry(raw)
    assert str(info.value) == "source.checkpoint: entry 'output.weight' has shape (24, 9), architecture wants (24, 8)"
    assert not (tmp_path / "out").exists()


def test_checkpointed_config_reads_only_the_downstream_splits(experiment_run, tmp_path):
    out, _ = experiment_run
    synthetic = ExperimentConfig.from_dict(small_config()).datasets()
    garbage = tmp_path / "garbage.vpds"
    garbage.write_bytes(b"not a dataset")
    files = {"source_train": str(garbage), "source_test": str(tmp_path / "missing.vpds")}  # read, or need, neither
    for key in ("downstream_train", "downstream_test"):
        files[key] = str(tmp_path / f"{key}.vpds")
        save_raw(files[key], synthetic[key])
    raw = small_config(source__checkpoint=str(out / "source.ckpt"))
    raw["data"] = {"files": files}
    data = ExperimentConfig.from_dict(raw).datasets()
    assert sorted(data) == ["downstream_test", "downstream_train"]
    for key in data:
        assert np.array_equal(data[key].labels, synthetic[key].labels)


def test_adversarial_regime_extends_source_metrics(tmp_path):
    run_experiment(small_config(out=tmp_path, source__regime="adversarial"))
    records = read_metrics(tmp_path / "source_metrics.csv")
    assert [r.epoch for r in records] == [0, 1, 2, 3, 4]  # 3 standard + 2 adversarial


# ---------------------------------------------------------------------------
# sweep and ablation


def test_sweep_baseline_is_the_temperature_one_cell(tmp_path, monkeypatch):
    """The baseline trains first, with a T = 1 reduction stage, like every grid cell has a stage."""
    import promptlab.harness as harness

    seen = []
    real = harness.train_prompt

    def recording(*args, **kwargs):
        seen.append(args[3])
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, "train_prompt", recording)
    sweep_temperature(small_config(out=tmp_path, prompt__temperature_grid=[2, 4]))
    assert seen == [PblConfig(1), PblConfig(2), PblConfig(4)]


def test_sweep_t1_delta_is_exactly_zero(tmp_path):
    rows = sweep_temperature(small_config(out=tmp_path, prompt__temperature_grid=[1, 2]))
    assert [r["T"] for r in rows] == [1, 2]
    assert rows[0]["std_delta"] == 0.0
    assert rows[0]["adv_delta"] == 0.0
    assert rows[0]["m"] == 8
    assert rows[1]["m"] == 4
    text = (tmp_path / "sweep.csv").read_text()
    lines = text.strip().split("\n")
    assert lines[0] == "T,m,std_acc,adv_acc,std_delta,adv_delta"
    assert len(lines) == 3
    assert lines[1].startswith("1,8,")
    cells_s = json.loads((tmp_path / "timing.json").read_text())["prompt_cells_s"]
    assert len(cells_s) == 3  # the T=1 baseline, then T=1 and T=2
    assert all(s > 0 for s in cells_s)


@pytest.mark.parametrize("metrics_epsilon", [0.05, 0.0])
def test_sweep_rows_score_each_final_prompt(tmp_path, monkeypatch, metrics_epsilon):
    """Each row holds the accuracies ``train._score`` gives its cell's final
    prompt on downstream_test; no cell scores an epoch while it trains."""
    import promptlab.harness as harness
    from promptlab.train import _score

    trained = []
    real = harness.train_prompt

    def recording(*args, **kwargs):
        result = real(*args, **kwargs)
        trained.append(result)
        return result

    monkeypatch.setattr(harness, "train_prompt", recording)
    cfg = ExperimentConfig.from_dict(small_config(out=tmp_path, eval__metrics_epsilon=metrics_epsilon))
    rows = sweep_temperature(cfg)
    test_set = cfg.datasets()["downstream_test"]
    assert all(r.std_acc == r.adv_acc == 0.0 for _, _, records in trained for r in records)  # not measured
    base, *cells = [_score(clf, test_set, AttackConfig(metrics_epsilon)) for _, clf, _ in trained]  # T=1 first
    assert len(cells) == len(rows) == 3
    for row, (std_acc, adv_acc) in zip(rows, cells):
        assert (row["std_acc"], row["adv_acc"]) == (std_acc, adv_acc)
        assert (row["std_delta"], row["adv_delta"]) == (std_acc - base[0], adv_acc - base[1])
    if metrics_epsilon == 0.0:
        assert all(row["adv_acc"] == 0.0 for row in rows)  # not measured


def test_ablation_grid_cells_and_costs(tmp_path):
    rows = run_ablation_grid(small_config(out=tmp_path))
    assert [(r["pbl"], r["at"]) for r in rows] == [
        (False, False),
        (False, True),
        (True, False),
        (True, True),
    ]
    assert [r["T"] for r in rows] == [1, 1, 2, 2]
    by_cell = {(r["pbl"], r["at"]): r for r in rows}
    for pbl in (False, True):
        assert (
            by_cell[(pbl, True)]["wall_ms_per_epoch"] > by_cell[(pbl, False)]["wall_ms_per_epoch"]
        )
    lines = (tmp_path / "ablation.csv").read_text().strip().split("\n")
    assert lines[0] == "pbl,at,T,std_acc,adv_acc,wall_ms_per_epoch,peak_mem_bytes"
    assert len(lines) == 5
    cells_s = json.loads((tmp_path / "timing.json").read_text())["prompt_cells_s"]
    assert len(cells_s) == len(rows) == 4
    assert all(s > 0 for s in cells_s)


@pytest.mark.parametrize(
    "entry, evaluations",
    [
        (run_experiment, 3),  # one per prompt epoch: prompt_metrics.csv records the curve
        (sweep_temperature, 4),  # one per prompt: the baseline and T = 1, 2, 4
        (run_ablation_grid, 4),  # one per grid cell
    ],
    ids=["run_experiment", "sweep_temperature", "run_ablation_grid"],
)
def test_prompt_evaluations_per_entry_point(experiment_run, tmp_path, monkeypatch, cpus, entry, evaluations):
    """The sweep and the ablation score each cell's final prompt once;
    run_experiment scores every epoch.  No entry point starts a process,
    even with two usable CPUs."""
    import promptlab.train as train

    calls = []
    real = train.adversarial_accuracy
    monkeypatch.setattr(train, "adversarial_accuracy", lambda *args: calls.append(1) or real(*args))
    started = cpus(2)
    out, _ = experiment_run
    entry(small_config(out=tmp_path, source__checkpoint=str(out / "source.ckpt")))  # no source epochs
    assert len(calls) == evaluations
    assert started == []


NORMATIVE = ("source.ckpt", "source_metrics.csv", "prompt.ckpt", "prompt_metrics.csv", "prompt.ppm", "report.json", "config.json")


@pytest.mark.parametrize(
    "tweaks, phases",
    [
        ({}, 2),  # source, prompt
        ({"source__regime": "adversarial"}, 3),  # standard source, adversarial source, prompt
        ({"prompt__lm": "rlm", "prompt__adversarial": True}, 2),
    ],
    ids=["standard", "adversarial", "adversarial-rlm-prompt"],
)
def test_artifacts_do_not_depend_on_usable_cpus(tmp_path, monkeypatch, cpus, tweaks, phases):
    """The CPU count reaches timing.json alone: with one usable CPU or two,
    no phase starts a process, and the normative bytes are the same.  Each
    phase attacks only its last epoch, so each metrics CSV has one nonzero
    ``adv_acc`` per phase, at most, and none before a phase ends."""
    runs = {}
    for k in (1, 2):
        run_dir = tmp_path / f"cpus{k}"
        run_dir.mkdir()
        monkeypatch.chdir(run_dir)  # one relative output_dir, so config.json compares too
        started = cpus(k)
        run_experiment(small_config(out="run", **tweaks))
        assert started == []
        assert json.loads((Path("run") / "timing.json").read_text())["cpus"] == k
        runs[k] = {name: (Path("run") / name).read_bytes() for name in NORMATIVE}
    assert runs[1] == runs[2]
    source_ends = [2, 4][: phases - 1]  # 3 standard epochs, then 2 adversarial ones
    attacked = [r.epoch for r in read_metrics(Path("run") / "source_metrics.csv") if r.adv_acc != 0.0]
    assert set(attacked) <= set(source_ends)
    attacked = [r.epoch for r in read_metrics(Path("run") / "prompt_metrics.csv") if r.adv_acc != 0.0]
    assert set(attacked) <= {2}


def test_ball_step_artifacts_match_masked_nextafter(tmp_path, monkeypatch):
    """An adversarial source and an adversarial RLM prompt, one epoch per
    phase: every normative file is the same with fgsm's ε-ball fix-up
    swapped for the masked ``np.nextafter`` reference."""
    from gradcheck import masked_nextafter_step
    from promptlab import attack

    config = small_config(
        out="run",
        source__regime="adversarial",
        source__hyper__epochs=1,
        source__at_hyper__epochs=1,
        prompt__hyper__epochs=1,
        prompt__lm="rlm",
        prompt__adversarial=True,
    )
    steps = []
    runs = {}
    for step in ("reference", "shipped"):
        run_dir = tmp_path / step
        run_dir.mkdir()
        monkeypatch.chdir(run_dir)
        with monkeypatch.context() as patch:
            if step == "reference":
                patch.setattr(attack, "_step_in_ball", lambda *args: steps.append(1) or masked_nextafter_step(*args))
            run_experiment(config)
        runs[step] = {name: (Path("run") / name).read_bytes() for name in NORMATIVE}
    assert steps  # the run attacked through the reference
    assert runs["reference"] == runs["shipped"]


def test_epsilon_grid_runs_one_clean_pass(experiment_run, tmp_path, monkeypatch):
    """A one-epoch prompt on a saved source: one clean pass for the epoch's
    evaluation and one for the whole ε grid, whose ε = 0 row reads 1.0."""
    from promptlab import attack

    passes = []
    predict = attack._predict
    monkeypatch.setattr(attack, "_predict", lambda p, images: passes.append(len(images)) or predict(p, images))
    out, _ = experiment_run
    config = small_config(
        out=tmp_path,
        source__checkpoint=str(out / "source.ckpt"),
        prompt__hyper__epochs=1,
        eval__epsilon_grid=[0.0, 0.02, 0.05],
    )
    report = run_experiment(config)
    assert len(passes) == 2
    assert [row["epsilon"] for row in report["prompt_eval"]] == [0.0, 0.02, 0.05]
    assert report["prompt_eval"][0]["adversarial_accuracy"] == 1.0


# ---------------------------------------------------------------------------
# prompt image export


def test_export_prompt_image_bytes(tmp_path):
    prompt = VisualPrompt((1, 4, 4), 1)
    prompt.params.data[prompt.mask] = 1.0
    path = tmp_path / "p.ppm"
    export_prompt_image(prompt, path)
    blob = path.read_bytes()
    header = b"P6\n4 4\n255\n"
    assert blob.startswith(header)
    body = np.frombuffer(blob[len(header):], dtype=np.uint8).reshape(4, 4, 3)
    assert (body[0] == 255).all()  # top border row
    assert (body[1, 1] == 128).all()  # mid-gray interior, replicated to RGB
    assert body.shape == (4, 4, 3)


def test_export_prompt_image_rejects_two_channels(tmp_path):
    prompt = VisualPrompt((2, 4, 4), 1)
    with pytest.raises(ConfigError, match=r"^the channel count must be 1 or 3, got 2$"):
        export_prompt_image(prompt, tmp_path / "p.ppm")
    assert not (tmp_path / "p.ppm").exists()
