"""Training loops: source classifiers (clean and adversarial) and prompts.

All loops share one engine: seeded epoch shuffling, optional per-batch
perturbation (the single-step sign attack, for adversarial training),
a fresh differentiation graph per step, momentum SGD, and per-epoch
metrics.  Everything is deterministic in the hyperparameter seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attack import AttackConfig, adversarial_accuracy, fgsm, standard_accuracy
from .data import Dataset
from .errors import ConfigError, DataFormatError, GraphError
from .mapping import PblConfig, ilm_update, prediction_frequencies, rlm_init
from .metrics import MetricsRecord, WorkMeter
from .nets import ModelParams
from .optim import SgdOptimizer, sgd_step, zero_grad
from .pipelines import PromptedClassifier, SourceClassifier
from .prompt import VisualPrompt
from .tensor import Graph, Tensor, softmax_cross_entropy

__all__ = ["TrainHyper", "train_standard", "train_adversarial", "train_prompt"]


@dataclass(frozen=True)
class TrainHyper:
    epochs: int
    batch_size: int
    learning_rate: float
    momentum: float
    seed: int

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if not (self.learning_rate >= 0.0):
            raise ConfigError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if not (0.0 <= self.momentum < 1.0):
            raise ConfigError(f"momentum must lie in [0, 1), got {self.momentum}")
        if self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed}")


def _mean_top1_prob(logits: np.ndarray) -> float:
    z = logits.astype(np.float64)
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return float((e.max(axis=1) / e.sum(axis=1)).mean())


def _persistent_bytes(target) -> int:
    # parameter data + gradient + velocity high-water estimate
    return sum(3 * t.data.nbytes for _, t in target.named_tensors())


def _train_engine(
    target,
    pipeline,
    dataset: Dataset,
    hyper: TrainHyper,
    batch_transform=None,
    after_epoch=None,
    post_step=None,
    eval_dataset: Dataset | None = None,
    metrics_epsilon: float = 0.0,
    *,
    final_eval_only: bool = False,
) -> list[MetricsRecord]:
    if len(dataset) == 0:
        raise DataFormatError("cannot train on an empty dataset")
    rng = np.random.Generator(np.random.PCG64(hyper.seed))
    opt = SgdOptimizer(hyper.learning_rate, hyper.momentum)
    eval_ds = eval_dataset if eval_dataset is not None else dataset
    persistent = _persistent_bytes(target)
    n = len(dataset)
    records: list[MetricsRecord] = []
    for epoch in range(hyper.epochs):
        meter = WorkMeter(persistent_bytes=persistent)
        order = rng.permutation(n)
        loss_sum = 0.0
        conf_sum = 0.0
        for start in range(0, n, hyper.batch_size):
            idx = order[start : start + hyper.batch_size]
            xb = dataset.images[idx]
            yb = dataset.labels[idx]
            if batch_transform is not None:
                xb = batch_transform(xb, yb, meter)
            zero_grad(target)  # the perturbation pass may have left gradients behind
            with Graph() as g:
                logits = pipeline.logits(Tensor(xb))
                loss = softmax_cross_entropy(logits, yb)
            g.backward(loss)
            sgd_step(target, opt)
            if post_step is not None:
                post_step()
            meter.add_graph(g)
            meter.end_step()
            loss_sum += loss.item() * len(idx)
            conf_sum += _mean_top1_prob(logits.data) * len(idx)
        if after_epoch is not None:
            after_epoch()
        if final_eval_only and epoch < hyper.epochs - 1:
            std_acc, adv_acc = 0.0, 0.0  # not measured
        elif metrics_epsilon > 0.0:
            report = adversarial_accuracy(pipeline, eval_ds, AttackConfig(metrics_epsilon))
            std_acc, adv_acc = report.standard_accuracy, report.adversarial_accuracy
        else:
            std_acc, adv_acc = standard_accuracy(pipeline, eval_ds), 0.0  # 0.0: not measured
        records.append(
            MetricsRecord(
                epoch=epoch,
                loss=loss_sum / n,
                std_acc=std_acc,
                adv_acc=adv_acc,
                mean_confidence=conf_sum / n,
                wall_ms=meter.wall_ms(),
                peak_mem_bytes=meter.peak_bytes,
            )
        )
    return records


def train_standard(
    params: ModelParams,
    dataset: Dataset,
    hyper: TrainHyper,
    eval_dataset: Dataset | None = None,
    metrics_epsilon: float = 0.0,
) -> tuple[ModelParams, list[MetricsRecord]]:
    """Minimize cross-entropy of the bare classifier on clean batches."""
    if params.frozen:
        raise GraphError("cannot train frozen parameters")
    records = _train_engine(
        params,
        SourceClassifier(params),
        dataset,
        hyper,
        eval_dataset=eval_dataset,
        metrics_epsilon=metrics_epsilon,
    )
    return params, records


def train_adversarial(
    params: ModelParams,
    dataset: Dataset,
    hyper: TrainHyper,
    attack: AttackConfig,
    eval_dataset: Dataset | None = None,
    metrics_epsilon: float = 0.0,
) -> tuple[ModelParams, list[MetricsRecord]]:
    """Like :func:`train_standard`, but every batch is replaced by its
    single-step sign-attack perturbation before the parameter step
    (one-step approximation of the inner maximization)."""
    if params.frozen:
        raise GraphError("cannot train frozen parameters")
    pipeline = SourceClassifier(params)

    def perturb(xb, yb, meter):
        return fgsm(pipeline, Tensor(xb), yb, attack, meter=meter).data

    records = _train_engine(
        params,
        pipeline,
        dataset,
        hyper,
        batch_transform=perturb,
        eval_dataset=eval_dataset,
        metrics_epsilon=metrics_epsilon,
    )
    return params, records


def train_prompt(
    source: ModelParams,
    dataset: Dataset,
    lm: str,
    cfg: PblConfig | None,
    hyper: TrainHyper,
    adversarial: bool = False,
    attack: AttackConfig | None = None,
    pad_width: int = 4,
    eval_dataset: Dataset | None = None,
    metrics_epsilon: float = 0.0,
    *,
    final_eval_only: bool = False,
) -> tuple[VisualPrompt, PromptedClassifier, list[MetricsRecord]]:
    """Learn a border frame (and label mapping) over a frozen source.

    ``lm`` selects the mapping policy: ``"rlm"`` draws one injective
    mapping from the run seed and keeps it; ``"ilm"`` re-derives the
    mapping from prediction frequencies before training and again after
    every epoch.  ``cfg=None`` removes the reduction stage entirely;
    note that temperature 1 keeps the stage but makes it an identity,
    so both run the same objective.  With ``adversarial=True`` each
    batch is perturbed by the sign attack through the full pipeline
    (prompt, source, reduction, mapping) before the prompt step.

    Each epoch's record holds the accuracies on ``eval_dataset`` (the
    training set when None); ``adv_acc`` is taken under the sign attack
    at ``metrics_epsilon`` and reads 0.0, "not measured", when that is 0.
    With ``final_eval_only=True`` only the last epoch is evaluated: every
    earlier record reads ``std_acc = adv_acc = 0.0``, which means "not
    measured", and its other fields are unchanged.
    Evaluation reads no RNG and changes no training state, so the
    prompt, the mapping and the last record are the same either way.
    """
    if not source.frozen:
        raise GraphError("prompt training requires a frozen source model")
    if lm not in ("rlm", "ilm"):
        raise ConfigError(f"label mapping must be 'rlm' or 'ilm', got {lm!r}")
    if adversarial and attack is None:
        raise ConfigError("adversarial prompt training needs an attack configuration")
    k_t = dataset.n_classes
    m = cfg.m if cfg is not None else source.spec.n_classes
    if m < k_t:
        raise ConfigError(
            f"reduced dimension m={m} (T={cfg.temperature if cfg else 1}) cannot host "
            f"K_t={k_t} downstream classes"
        )
    prompt = VisualPrompt(source.spec.input_size, pad_width)
    if dataset.image_size != prompt.interior_size:
        raise ConfigError(
            f"downstream images {dataset.image_size} do not fill the prompt interior "
            f"{prompt.interior_size}"
        )
    clf = PromptedClassifier(source, prompt, mapping=None, pbl=cfg)
    if lm == "rlm":
        clf.mapping = rlm_init(m, k_t, hyper.seed)
    else:
        clf.mapping = ilm_update(prediction_frequencies(clf.reduced_fn, dataset))

    def refresh_mapping():
        if lm == "ilm":
            clf.mapping = ilm_update(prediction_frequencies(clf.reduced_fn, dataset))

    perturb = None
    if adversarial:

        def perturb(xb, yb, meter):
            return fgsm(clf, Tensor(xb), yb, attack, meter=meter).data

    records = _train_engine(
        prompt,
        clf,
        dataset,
        hyper,
        batch_transform=perturb,
        after_epoch=refresh_mapping,
        post_step=prompt.project,
        eval_dataset=eval_dataset,
        metrics_epsilon=metrics_epsilon,
        final_eval_only=final_eval_only,
    )
    return prompt, clf, records
