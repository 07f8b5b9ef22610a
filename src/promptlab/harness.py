"""Config-driven experiment orchestration.

A single JSON config describes the source model (architecture, training
regime, hyperparameters), the prompt (frame width, label mapping,
temperature, hyperparameters, optional adversarial training), the
evaluation grid, and the data (a synthetic source/downstream pair or
paths to binary dataset files).  Everything a run writes — metrics
CSVs, checkpoints, the final report — is a pure function of
(config, seed); real elapsed times go to a separate timing sidecar
that is excluded from that guarantee.
"""

from __future__ import annotations

import json
import platform
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

try:
    import resource
except ImportError:  # not on Windows
    resource = None

from . import blas, heap
from .attack import AttackConfig, adversarial_accuracies
from .checkpoint import load_model, save_model, save_prompt
from .data import Dataset, SynthSpec, generate_synthetic, load_raw, peek_raw_header
from .errors import CheckpointError, ConfigError
from .fileio import atomic_open, write_table, write_text
from .mapping import PblConfig
from .metrics import write_metrics
from .nets import ConvNetSpec, ModelParams, init_params
from .prompt import VisualPrompt
from .train import TrainHyper, _check_data, _check_reduction, _phase_bounds, usable_cpus
from .train import train_adversarial, train_prompt, train_standard

__all__ = [
    "ExperimentConfig",
    "default_config",
    "run_experiment",
    "sweep_temperature",
    "run_ablation_grid",
    "session",
    "train_and_save_prompt",
    "export_prompt_image",
]

_SPLITS = ("source_train", "source_test", "downstream_train", "downstream_test")

# fixed positions in the seed-derivation table; changing them changes every run
_SEED_SLOTS = {
    "source_train_data": 0,
    "source_test_data": 1,
    "downstream_train_data": 2,
    "downstream_test_data": 3,
    "source_init": 4,
    "source_train": 5,
    "prompt_train": 6,
    "source_at": 7,
}


def _derive_seeds(seed: int) -> dict[str, int]:
    state = np.random.SeedSequence(seed).generate_state(len(_SEED_SLOTS), dtype=np.uint64)
    return {name: int(state[slot]) for name, slot in _SEED_SLOTS.items()}


# Keys a config may leave out; their defaults are the values in default_config().
# source.at_hyper has none; the adversarial regime requires it.
_OPTIONAL = {"source.checkpoint", "source.at_hyper", "prompt.temperature_grid", "eval.metrics_epsilon"}


def _config_shape(raw: dict) -> dict:
    """Every key ``raw`` may hold: the defaults, with the file-backed data form
    when ``raw`` uses it."""
    shape = default_config()
    if isinstance(raw.get("data"), dict) and "files" in raw["data"]:
        shape["data"] = {"files": dict.fromkeys(_SPLITS, "")}
    return shape


# JSON types a leaf may take, keyed by the type of its default; a float
# leaf also takes an integer, and a path leaf (default ``None``) is null or
# a string.  bool is a subclass of int, so the lookup is by exact type and
# ``true`` is no count.
_LEAF_TYPES = {bool: ((bool,), "true or false"), int: ((int,), "an integer"),
               float: ((int, float), "a number"), str: ((str,), "a string"),
               type(None): ((type(None), str), "null or a string")}
_JSON_TYPES = (dict, list, bool, str, int, float, type(None))


def _walk(value, shape, where: str = "", name: str = ""):
    """A copy of ``value`` as plain JSON data, checked against ``shape`` in
    the same pass; ``value`` is entry ``name`` (a key, with any list indices)
    of the object at dotted path ``where``.

    Each node is first made JSON, as a JSON round trip would give it (a tuple
    becomes a list, a subclass of str, int or float its base type), and then
    checked: an object for unknown and missing keys, anything else for the
    JSON type of its default, entry by entry for a list."""
    path = f"{where}.{name}" if where and name else where or name
    if type(value) not in _JSON_TYPES:  # a tuple, or a subclass such as np.float64 or an IntEnum
        base = next((base for base in (dict, list, tuple, str, int, float) if isinstance(value, base)), None)
        if base is None:
            raise ConfigError(f"config key '{path}' must hold JSON data, got {value!r}")
        value = list(value) if base is tuple else base(value)
    if isinstance(shape, dict):
        if not isinstance(value, dict):
            raise ConfigError(f"config key '{path}' must be an object, got {value!r}")
        copy = {}
        for key in dict.fromkeys([*value, *shape]):
            at = f"{path}.{key}" if path else str(key)
            if key not in shape:
                raise ConfigError(f"unknown config key '{at}'")
            if key in value:
                copy[key] = _walk(value[key], shape[key], path, str(key))
            elif at not in _OPTIONAL:
                raise ConfigError(f"config is missing key '{at}'")
        return copy
    if isinstance(shape, list):
        if not isinstance(value, list):
            raise ConfigError(f"{where or 'config'}: {name} must be a list, got {value!r}")
        return [_walk(entry, shape[0], where, f"{name}[{i}]") for i, entry in enumerate(value)]
    types, kind = _LEAF_TYPES[type(shape)]
    if type(value) not in types:
        raise ConfigError(f"{where or 'config'}: {name} must be {kind}, got {value!r}")
    return value


def _parse(path: str, build, *args):
    """``build(*args)``, with a bad value re-raised as one ConfigError naming ``path``."""
    try:
        return build(*args)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _conv_spec(block: dict) -> ConvNetSpec:
    return ConvNetSpec(
        input_size=tuple(block["input_size"]),
        conv_blocks=tuple(tuple(b) for b in block["conv_blocks"]),
        hidden_width=block["hidden_width"],
        n_classes=block["n_classes"],
    )


def _train_hyper(recipe: dict, base: dict, seed: int) -> TrainHyper:
    """Epochs and learning rate from ``recipe``; batch size and momentum from ``base``."""
    return TrainHyper(
        epochs=recipe["epochs"],
        batch_size=base["batch_size"],
        learning_rate=float(recipe["learning_rate"]),
        momentum=float(base["momentum"]),
        seed=seed,
    )


def _attack(epsilon) -> AttackConfig:
    return AttackConfig(float(epsilon))


def _existing(path) -> Path:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"path does not exist: {path}")
    if not path.is_file():
        raise ConfigError(f"path is not a file: {path}")
    return path


def _synth(block: dict, key: str, seed: int) -> SynthSpec:
    style, split = key.split("_")
    return SynthSpec(
        n_classes=block["n_classes"],
        samples_per_class=block["samples_per_class" if split == "train" else "test_samples_per_class"],
        image_size=tuple(block["image_size"]),
        style=style,
        noise_level=float(block["noise_level"]),
        seed=seed,
    )


def default_config(seed: int = 0, output_dir: str = "runs/default") -> dict:
    """The desk-scale default grid; every key is overridable."""
    return {
        "seed": seed,
        "output_dir": output_dir,
        "source": {
            "spec": {
                "input_size": [1, 32, 32],
                "conv_blocks": [[8, 3, 2], [16, 3, 2]],
                "hidden_width": 64,
                "n_classes": 20,
            },
            "regime": "standard",
            # Standard recipe; in the adversarial regime it doubles as the
            # warm-start phase before the adversarial epochs below.
            "hyper": {"epochs": 10, "batch_size": 32, "learning_rate": 0.05, "momentum": 0.9},
            "at_hyper": {"epochs": 25, "learning_rate": 0.015},
            "attack": {"epsilon": 0.05},
            "checkpoint": None,
        },
        "prompt": {
            "pad_width": 4,
            "lm": "ilm",
            "temperature": 2,
            "temperature_grid": [1, 2, 4],
            "hyper": {"epochs": 20, "batch_size": 32, "learning_rate": 0.2, "momentum": 0.9},
            "adversarial": False,
            "attack": {"epsilon": 0.05},
        },
        "eval": {"epsilon_grid": [0.0, 0.02, 0.05, 0.1], "metrics_epsilon": 0.05},
        "data": {
            "source": {
                "n_classes": 20,
                "samples_per_class": 30,
                "test_samples_per_class": 10,
                "image_size": [1, 32, 32],
                "noise_level": 0.45,
            },
            "downstream": {
                "n_classes": 5,
                "samples_per_class": 40,
                "test_samples_per_class": 60,
                "image_size": [1, 24, 24],
                "noise_level": 0.40,
            },
        },
    }


@dataclass
class ExperimentConfig:
    """Validated view of one experiment's JSON config."""

    raw: dict
    seed: int
    output_dir: Path
    source_spec: ConvNetSpec
    source_regime: str
    source_hyper: TrainHyper
    source_at_hyper: TrainHyper | None
    source_attack: AttackConfig
    source_checkpoint: Path | None
    pad_width: int
    lm: str
    temperature: int
    temperature_grid: list[int]
    prompt_hyper: TrainHyper
    prompt_adversarial: bool
    prompt_attack: AttackConfig
    epsilon_grid: list[float]
    metrics_epsilon: float
    splits: dict[str, SynthSpec | Path]  # a generator recipe or a VPDS file per split
    derived_seeds: dict[str, int]
    # source.checkpoint as validation loaded it, frozen; the run uses it instead of reading the file again
    source_params: ModelParams | None = field(default=None, compare=False, repr=False)

    @classmethod
    def from_dict(cls, raw: dict, seed_override: int | None = None, out_override=None) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError(f"config must be a JSON object, got {type(raw).__name__}")
        raw = dict(raw)
        raw.pop("derived_seeds", None)  # a run's own config.json records them; re-derived below
        if seed_override is not None:
            raw["seed"] = int(seed_override)
        if out_override is not None:
            raw["output_dir"] = str(out_override)
        shape = _config_shape(raw)
        raw = _walk(raw, shape)
        src, pr, ev, data = raw["source"], raw["prompt"], raw["eval"], raw["data"]
        if src["regime"] not in ("standard", "adversarial"):
            raise ConfigError(f"source.regime must be 'standard' or 'adversarial', got {src['regime']!r}")
        if src["regime"] == "adversarial" and "at_hyper" not in src:
            raise ConfigError("config is missing key 'source.at_hyper', which the adversarial regime needs")
        if pr["lm"] not in ("rlm", "ilm"):
            raise ConfigError(f"prompt.lm must be 'rlm' or 'ilm', got {pr['lm']!r}")
        seeds = _parse("seed", _derive_seeds, raw["seed"])
        eps_grid = [_parse(f"eval.epsilon_grid[{i}]", _attack, e).epsilon for i, e in enumerate(ev["epsilon_grid"])]
        if "files" in data:
            splits = {key: _parse(f"data.files.{key}", _existing, data["files"][key]) for key in _SPLITS}
        else:
            splits = {}
            for key in _SPLITS:
                block = key.split("_")[0]
                splits[key] = _parse(f"data.{block}", _synth, data[block], key, seeds[f"{key}_data"])
        ckpt = src.get("checkpoint", shape["source"]["checkpoint"])
        grid = pr.get("temperature_grid", shape["prompt"]["temperature_grid"])
        cfg = cls(
            raw=raw,
            seed=raw["seed"],
            output_dir=Path(raw["output_dir"]),
            source_spec=_parse("source.spec", _conv_spec, src["spec"]),
            source_regime=src["regime"],
            source_hyper=_parse("source.hyper", _train_hyper, src["hyper"], src["hyper"], seeds["source_train"]),
            source_at_hyper=(
                _parse("source.at_hyper", _train_hyper, src["at_hyper"], src["hyper"], seeds["source_at"])
                if "at_hyper" in src else None
            ),
            source_attack=_parse("source.attack", _attack, src["attack"]["epsilon"]),
            source_checkpoint=_parse("source.checkpoint", _existing, ckpt) if ckpt is not None else None,
            pad_width=pr["pad_width"],
            lm=pr["lm"],
            temperature=pr["temperature"],
            temperature_grid=list(grid),
            prompt_hyper=_parse("prompt.hyper", _train_hyper, pr["hyper"], pr["hyper"], seeds["prompt_train"]),
            prompt_adversarial=pr["adversarial"],
            prompt_attack=_parse("prompt.attack", _attack, pr["attack"]["epsilon"]),
            epsilon_grid=eps_grid,
            metrics_epsilon=_parse(
                "eval.metrics_epsilon", _attack, ev.get("metrics_epsilon", shape["eval"]["metrics_epsilon"])
            ).epsilon,
            splits=splits,
            derived_seeds=seeds,
        )
        cfg._validate()
        return cfg

    @classmethod
    def from_file(cls, path, seed_override=None, out_override=None) -> "ExperimentConfig":
        if not Path(path).exists():
            raise ConfigError(f"config file not found: {path}")
        path = _parse("config file", _existing, path)
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
        return cls.from_dict(raw, seed_override=seed_override, out_override=out_override)

    def _read_splits(self) -> tuple[str, ...]:
        """The splits the run reads: all four, or only the downstream pair
        when the source is loaded from ``source.checkpoint``."""
        return _SPLITS if self.source_checkpoint is None else _SPLITS[2:]

    def datasets(self) -> dict[str, Dataset]:
        """Generate or load the splits ``from_dict`` described that the run reads."""
        return {
            key: (generate_synthetic if isinstance(src, SynthSpec) else load_raw)(src)
            for key, src in self.splits.items()
            if key in self._read_splits()
        }

    def _split_shape(self, key: str) -> tuple[int, int, tuple[int, int, int]]:
        """The example count, class count and image size of split ``key``,
        without generating or loading it (a VPDS file's header is read)."""
        split = self.splits[key]
        if isinstance(split, SynthSpec):
            return split.n_classes * split.samples_per_class, split.n_classes, split.image_size
        hdr = peek_raw_header(split)
        return hdr["n"], hdr["n_classes"], (hdr["c"], hdr["h"], hdr["w"])

    def _validate(self) -> None:
        """Cross-field checks against what the run builds: ``output_dir``
        against the file system (its first existing ancestor, or itself,
        must be a directory, or the run could not create it), then the
        canvas channel count against what the prompt image export supports, then
        ``source.checkpoint`` (if set) loaded against the source spec and
        kept, frozen, as ``source_params``, then each split the run reads
        against its phase and each temperature against K_t, the class count
        of downstream_train, by the checks ``train_*`` apply
        (``train._check_data`` and ``train._check_reduction``)."""
        out = self.output_dir
        existing = next(p for p in (out, *out.parents) if p.exists() or p.is_symlink())
        if not existing.is_dir():
            raise ConfigError(f"output_dir: {existing} exists and is not a directory")
        spec = self.source_spec
        _parse("source.spec.input_size", _check_channels, spec.input_size[0])
        if self.source_checkpoint is not None:
            try:
                self.source_params = load_model(self.source_checkpoint, spec, frozen=True)
            except CheckpointError as exc:
                raise CheckpointError(f"source.checkpoint: {exc}") from None
        k_t = self._split_shape("downstream_train")[1]
        prompt = None  # the source splits come first, and are checked against the source phase
        for key in self._read_splits():
            block = key.split("_")[0]
            if block == "downstream" and prompt is None:  # the run's frame: built once the source pair fits the canvas
                prompt = _parse("prompt.pad_width", VisualPrompt, spec.input_size, self.pad_width)
            synth = isinstance(self.splits[key], SynthSpec)
            at = (f"data.{block}.image_size", f"data.{block}.n_classes") if synth else (f"data.files.{key}",) * 2
            _check_data(key, self._split_shape(key), _phase_bounds(spec, prompt, k_t), at)
        for key, t in [("prompt.temperature", self.temperature),
                       *((f"prompt.temperature_grid[{i}]", t) for i, t in enumerate(self.temperature_grid))]:
            _parse(key, _check_reduction, t, spec.n_classes, k_t)


# ---------------------------------------------------------------------------
# experiment phases
# ---------------------------------------------------------------------------


def _write_json(path: Path, obj) -> None:
    write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _prepare_source(cfg: ExperimentConfig, data: dict[str, Dataset], timing: dict):
    """Train (or load) the source model; returns it frozen."""
    out = cfg.output_dir
    if cfg.source_checkpoint is not None:
        save_model(out / "source.ckpt", cfg.source_params)
        return cfg.source_params
    t0 = time.perf_counter()
    params = init_params(cfg.source_spec, cfg.derived_seeds["source_init"])
    params, records = train_standard(
        params, data["source_train"], cfg.source_hyper,
        eval_dataset=data["source_test"], metrics_epsilon=cfg.metrics_epsilon,
    )
    if cfg.source_regime == "adversarial":
        # Adversarial training from scratch tends to fall into the
        # constant-output minimum on weak-signal tasks, so the robust
        # recipe warm-starts from the standard phase above and then
        # replaces every batch with its attacked counterpart.
        params, at_records = train_adversarial(
            params, data["source_train"], cfg.source_at_hyper, cfg.source_attack,
            eval_dataset=data["source_test"], metrics_epsilon=cfg.metrics_epsilon,
        )
        offset = records[-1].epoch + 1
        records = records + [replace(r, epoch=r.epoch + offset) for r in at_records]
    timing["source_train_s"] = time.perf_counter() - t0
    write_metrics(records, out / "source_metrics.csv")
    save_model(out / "source.ckpt", params)
    params.freeze()
    return params


def _rusage() -> dict | None:
    """Minor page faults, user and system CPU seconds and peak RSS
    (``ru_maxrss``, KiB on Linux) so far, of this process and of its
    joined children; None without ``resource`` (Windows)."""
    if resource is None:
        return None
    usage = {}
    for who, kind in (("self", resource.RUSAGE_SELF), ("children", resource.RUSAGE_CHILDREN)):
        ru = resource.getrusage(kind)
        usage[who] = {
            "minflt": ru.ru_minflt, "utime_s": ru.ru_utime, "stime_s": ru.ru_stime, "maxrss": ru.ru_maxrss,
        }
    return usage


@contextmanager
def session(config):
    """The setup every entry point shares.

    Validates ``config`` (an ExperimentConfig or a dict; read a JSON file
    with ``ExperimentConfig.from_file``), creates the output directory,
    builds the datasets and trains or loads the source.  Yields ``(cfg,
    data, frozen source, timing)``; ``timing.json`` is written when the
    block completes, with the phase seconds, the outcome of the BLAS
    thread pin under ``blas`` and of the malloc thresholds under
    ``malloc``, the Python and NumPy versions and the machine type, the
    number of CPUs the run could use under ``cpus`` (with two or more,
    per-epoch evaluation overlaps training), and under ``rusage`` the
    minor page faults and CPU seconds the block cost this process
    (``self``) and the workers it joined (``children``), with each one's
    peak RSS at the end of the block (``maxrss``, KiB on Linux).
    """
    cfg = config if isinstance(config, ExperimentConfig) else ExperimentConfig.from_dict(config)
    usage = _rusage()
    data = cfg.datasets()  # before the output directory exists: a VPDS payload fault leaves none behind
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    timing: dict = {
        "blas": blas.status(),
        "malloc": heap.status(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpus": usable_cpus(),
    }
    source = _prepare_source(cfg, data, timing)
    yield cfg, data, source, timing
    if usage is not None:
        end = _rusage()
        timing["rusage"] = {  # deltas, but maxrss is a high-water mark, so its end value
            who: {key: end[who][key] - (0 if key == "maxrss" else start) for key, start in fields.items()}
            for who, fields in usage.items()
        }
    _write_json(cfg.output_dir / "timing.json", timing)


def _train_prompt_phase(cfg, source, data, temperature, adversarial, final_eval_only=False):
    return train_prompt(
        source,
        data["downstream_train"],
        cfg.lm,
        PblConfig(temperature),
        cfg.prompt_hyper,
        attack=cfg.prompt_attack if adversarial else None,
        pad_width=cfg.pad_width,
        eval_dataset=data["downstream_test"],
        metrics_epsilon=cfg.metrics_epsilon,
        final_eval_only=final_eval_only,
    )


def _train_cells(cfg, source, data, cells, timing):
    """Train one sweep or ablation prompt per ``(temperature, adversarial)``
    cell, each evaluated after its last epoch only (the tables read no
    earlier accuracy), and append each cell's seconds to
    ``timing["prompt_cells_s"]``; returns the metrics records in cell order."""
    out = []
    for temperature, adversarial in cells:
        t0 = time.perf_counter()
        out.append(_train_prompt_phase(cfg, source, data, temperature, adversarial, final_eval_only=True)[2])
        timing.setdefault("prompt_cells_s", []).append(time.perf_counter() - t0)
    return out


def train_and_save_prompt(cfg: ExperimentConfig, data: dict[str, Dataset], source: ModelParams, timing: dict):
    """Train the configured prompt and write prompt_metrics.csv,
    prompt.ckpt and prompt.ppm; returns (classifier, metrics records)."""
    t0 = time.perf_counter()
    prompt, clf, records = _train_prompt_phase(cfg, source, data, cfg.temperature, cfg.prompt_adversarial)
    timing["prompt_train_s"] = time.perf_counter() - t0
    out = cfg.output_dir
    write_metrics(records, out / "prompt_metrics.csv")
    save_prompt(out / "prompt.ckpt", prompt, temperature=cfg.temperature)
    export_prompt_image(prompt, out / "prompt.ppm")
    return clf, records


def _eval_grid(pipeline, dataset, grid) -> list[dict]:
    """The ``report.json`` rows of ``pipeline`` on ``dataset`` at each ε of
    ``grid``, from :func:`adversarial_accuracies` (one clean pass), in
    process.  A forked worker would only move the grid's peak RSS out of
    this process: nothing runs beside it, and the worker's own pages add
    to the run's footprint while this process waits."""
    reports = adversarial_accuracies(pipeline, dataset, [AttackConfig(eps) for eps in grid])
    return [{"epsilon": eps, **asdict(report)} for eps, report in zip(grid, reports)]


def run_experiment(config) -> dict:
    """Full pipeline: source phase, prompt phase, evaluation sweep.

    ``config`` is an ExperimentConfig or a dict.  Returns a summary dict
    mirroring what lands in report.json.
    """
    with session(config) as (cfg, data, source, timing):
        clf, records = train_and_save_prompt(cfg, data, source, timing)
        t0 = time.perf_counter()
        report = {
            "seed": cfg.seed,
            "temperature": cfg.temperature,
            "label_mapping": {"kind": cfg.lm, "indices": list(clf.mapping.indices)},
            "prompt_eval": _eval_grid(clf, data["downstream_test"], cfg.epsilon_grid),
            "final_std_acc": records[-1].std_acc,
            "final_adv_acc": records[-1].adv_acc,
        }
        timing["eval_s"] = time.perf_counter() - t0
        _write_json(cfg.output_dir / "report.json", report)
        _write_json(cfg.output_dir / "config.json", {**cfg.raw, "derived_seeds": cfg.derived_seeds})
    return report


def sweep_temperature(config) -> list[dict]:
    """Improvement-versus-temperature table against the T = 1 baseline.

    Trains the source once, then a baseline prompt at temperature 1, which
    reduces nothing, and one prompt per temperature of
    ``prompt.temperature_grid``, the one place that sets the grid, all with
    identical seeds.  Each row holds its run's final-epoch metrics, and each
    prompt is evaluated only after its last epoch; deltas are relative to
    the baseline, so a T=1 row is exactly zero.
    """
    with session(config) as (cfg, data, source, timing):
        cells = [(t, cfg.prompt_adversarial) for t in [1, *cfg.temperature_grid]]
        base, *finals = [records[-1] for records in _train_cells(cfg, source, data, cells, timing)]
        rows = [
            {
                "T": t,
                "m": PblConfig(t).m(cfg.source_spec.n_classes),
                "std_acc": last.std_acc,
                "adv_acc": last.adv_acc,
                "std_delta": last.std_acc - base.std_acc,
                "adv_delta": last.adv_acc - base.adv_acc,
            }
            for t, last in zip(cfg.temperature_grid, finals)
        ]
        write_table(
            cfg.output_dir / "sweep.csv",
            "T,m,std_acc,adv_acc,std_delta,adv_delta",
            "{T},{m},{std_acc:.6f},{adv_acc:.6f},{std_delta:.6f},{adv_delta:.6f}",
            rows,
        )
    return rows


def run_ablation_grid(config) -> list[dict]:
    """The four-cell {with/without reduction} x {with/without AT} grid.

    One source model serves all four prompt runs.  Each cell reports
    final accuracies (evaluated after its last epoch only) plus mean
    per-epoch work and peak-memory figures.
    """
    with session(config) as (cfg, data, source, timing):
        rows = [
            {"pbl": use_pbl, "at": use_at, "T": cfg.temperature if use_pbl else 1}
            for use_pbl in (False, True)
            for use_at in (False, True)
        ]
        cells = [(row["T"], row["at"]) for row in rows]
        for row, records in zip(rows, _train_cells(cfg, source, data, cells, timing)):
            row.update(
                std_acc=records[-1].std_acc,
                adv_acc=records[-1].adv_acc,
                wall_ms_per_epoch=sum(r.wall_ms for r in records) / len(records),
                peak_mem_bytes=max(r.peak_mem_bytes for r in records),
            )
        write_table(
            cfg.output_dir / "ablation.csv",
            "pbl,at,T,std_acc,adv_acc,wall_ms_per_epoch,peak_mem_bytes",
            "{pbl:d},{at:d},{T},{std_acc:.6f},{adv_acc:.6f},{wall_ms_per_epoch:.6f},{peak_mem_bytes}",
            rows,
        )
    return rows


def _check_channels(c: int) -> None:
    """A prompt image shows 1 channel as gray or 3 as RGB, and no other count."""
    if c not in (1, 3):
        raise ConfigError(f"the channel count must be 1 or 3, got {c}")


def export_prompt_image(prompt: VisualPrompt, path) -> None:
    """Render the clamped frame over a mid-gray interior as binary P6.

    Pixels quantize as round(value * 255); single-channel prompts are
    replicated to gray RGB.
    """
    c, h, w = prompt.canvas
    _check_channels(c)
    canvas = np.clip(prompt.params.data, 0.0, 1.0) * prompt.mask
    canvas = canvas + 0.5 * (~prompt.mask)
    quant = np.rint(canvas * 255.0).astype(np.uint8)
    rgb = quant if c == 3 else np.repeat(quant, 3, axis=0)
    with atomic_open(path) as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(np.ascontiguousarray(rgb.transpose(1, 2, 0)).tobytes())
