"""Training loops: source classifiers (clean and adversarial) and prompts.

All loops share one engine: seeded epoch shuffling, optional per-batch
perturbation (the single-step sign attack, for adversarial training),
a fresh differentiation graph per step, momentum SGD, and per-epoch
metrics.  Everything is deterministic in the hyperparameter seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attack import AttackConfig, adversarial_accuracy, fgsm
from .data import Dataset
from .errors import ConfigError, GraphError
from .mapping import PblConfig, ilm_update, prediction_frequencies, rlm_init
from .metrics import MetricsRecord, WorkMeter
from .nets import ConvNetSpec, ModelParams
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
        SgdOptimizer(self.learning_rate, self.momentum)  # refuses a rate or momentum it cannot step with
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


def _score(pipeline, dataset: Dataset, budget: AttackConfig) -> tuple[float, float]:
    """An epoch's ``(std_acc, adv_acc)`` on ``dataset``, from one :func:`adversarial_accuracy` call at the
    phase's ``budget``; at ε = 0 the protocol runs no attack, and ``adv_acc`` reads 0.0, "not measured"."""
    report = adversarial_accuracy(pipeline, dataset, budget)
    return report.standard_accuracy, (report.adversarial_accuracy if budget.epsilon > 0.0 else 0.0)


def _phase_bounds(spec: ConvNetSpec, prompt: VisualPrompt | None = None, k_t: int = 0) -> tuple:
    """The image size and the class bound a phase's data must fit, each with
    its wording: the source input and head for a source phase (no
    ``prompt``), else ``prompt``'s interior and K_t for a prompt phase."""
    if prompt is None:  # labels index the source logits
        return (spec.input_size, f"do not match source.spec.input_size {spec.input_size}",
                spec.n_classes, f"source.spec.n_classes={spec.n_classes}")
    size = prompt.interior_size  # labels index the label mapping
    return (size, f"do not fill the prompt interior {size} (canvas {prompt.canvas}, pad_width {prompt.pad_width})",
            k_t, f"K_t={k_t}")


def _check_data(name: str, shape: tuple, bounds: tuple, at: tuple[str, str] | None = None) -> None:
    """The one rule for a phase's data: ``name``, of ``shape`` ``(examples,
    classes, image size)``, needs an example and a class, images of the
    size ``bounds`` (from :func:`_phase_bounds`) gives, and at most its
    classes; else a ConfigError.  A config run's keys ``at`` = (image-size
    key, class-count key) prefix the errors, the emptiness one with the second."""
    n, n_classes, image_size = shape
    size, size_is, most, most_is = bounds
    size_at, most_at = (f"{key}: " for key in at) if at else ("", "")
    if n == 0 or n_classes == 0:
        raise ConfigError(f"{most_at}{name} has {n} examples of {n_classes} classes; it needs one of each")
    if image_size != size:
        raise ConfigError(f"{size_at}{name} images {image_size} {size_is}")
    if n_classes > most:
        raise ConfigError(f"{most_at}{name} has {n_classes} classes, more than {most_is}")


def _check_reduction(t: int, n: int, k_t: int) -> int:
    """The reduced dimension m of ``n`` source logits at temperature ``t``;
    a ConfigError if it cannot host the ``k_t`` downstream classes."""
    m = PblConfig(t).m(n)
    if m < k_t:
        raise ConfigError(f"temperature T={t} reduces {n} source logits to m={m} < K_t={k_t} downstream classes")
    return m


def _check_phase(dataset: Dataset, eval_dataset: Dataset | None, bounds: tuple) -> None:
    """Refuse a ``dataset`` or ``eval_dataset`` the phase could not use (:func:`_check_data`)."""
    for name, ds in (("dataset", dataset), ("eval_dataset", eval_dataset)):
        if ds is not None:
            _check_data(name, (len(ds), ds.n_classes, ds.image_size), bounds)


def _train_engine(
    target,
    pipeline,
    dataset: Dataset,
    hyper: TrainHyper,
    attack: AttackConfig | None,
    eval_dataset: Dataset | None,
    metrics_epsilon: float,
    *,
    after_epoch=None,
    post_step=None,
) -> list[MetricsRecord]:
    """Train ``target`` through ``pipeline``; returns one record per epoch.

    With an ``attack``, each batch is replaced by its sign-attack perturbation
    through ``pipeline`` (an input gradient only, as in evaluation) before the
    step; with None, training is clean.  ``after_epoch`` runs after each epoch's
    last step and before its evaluation, ``post_step`` after every step.
    ``target``'s gradients are cleared once, before the first step: each step clears them, and no attack forms one.
    Each epoch is scored on ``eval_dataset`` after it trains by :func:`_score`, the one
    statement of an epoch's accuracies: every epoch but the last in one clean pass, with
    ``adv_acc`` 0.0, "not measured", and the last at the phase's budget
    ``AttackConfig(metrics_epsilon)``, built before the first step; with no ``eval_dataset``
    no epoch is scored, and every record's accuracies read 0.0, "not measured".
    """
    rng = np.random.Generator(np.random.PCG64(hyper.seed))
    opt = SgdOptimizer(hyper.learning_rate, hyper.momentum)
    budget = AttackConfig(metrics_epsilon)  # refuses a bad ε before the first step
    clean = AttackConfig(0.0)
    persistent = _persistent_bytes(target)
    n = len(dataset)
    last = hyper.epochs - 1

    records: list[MetricsRecord] = []
    zero_grad(target)  # a caller may hand in a target with stale gradients
    for epoch in range(hyper.epochs):
        meter = WorkMeter(persistent_bytes=persistent)
        order = rng.permutation(n)
        loss_sum = 0.0
        conf_sum = 0.0
        for start in range(0, n, hyper.batch_size):
            idx = order[start : start + hyper.batch_size]
            xb = Tensor(dataset.images[idx])
            yb = dataset.labels[idx]
            if attack is not None:
                xb = fgsm(pipeline, xb, yb, attack, meter=meter)
            with Graph() as g:
                logits = pipeline.logits(xb)
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
        if eval_dataset is None:
            std_acc, adv_acc = 0.0, 0.0  # not measured
        else:
            std_acc, adv_acc = _score(pipeline, eval_dataset, budget if epoch == last else clean)
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
    """Minimize cross-entropy of the bare classifier on clean batches.
    Frozen ``params`` fail at the first step, as ``sgd_step`` refuses them; a ``dataset`` or
    ``eval_dataset`` that does not fit ``params.spec`` fails before it (:func:`_check_data`)."""
    _check_phase(dataset, eval_dataset, _phase_bounds(params.spec))
    return params, _train_engine(params, SourceClassifier(params), dataset, hyper, None, eval_dataset, metrics_epsilon)


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
    _check_phase(dataset, eval_dataset, _phase_bounds(params.spec))
    return params, _train_engine(params, SourceClassifier(params), dataset, hyper, attack, eval_dataset, metrics_epsilon)


def train_prompt(
    source: ModelParams,
    dataset: Dataset,
    lm: str,
    pbl: PblConfig | None,
    hyper: TrainHyper,
    attack: AttackConfig | None = None,
    pad_width: int = 4,
    eval_dataset: Dataset | None = None,
    metrics_epsilon: float = 0.0,
) -> tuple[VisualPrompt, PromptedClassifier, list[MetricsRecord]]:
    """Learn a border frame (and label mapping) over a frozen source.

    ``lm`` selects the mapping policy: ``"rlm"`` draws one injective
    mapping from the run seed and keeps it; ``"ilm"`` re-derives the
    mapping from prediction frequencies before training and again after
    every epoch, before that epoch is evaluated: ``epochs + 1`` tallies
    over ``dataset`` in all.  ``pbl=None`` removes the reduction stage
    entirely; note that temperature 1 keeps the stage but makes it an
    identity, so both run the same objective.  With an ``attack``, each batch is
    perturbed by the sign attack at its budget through the full pipeline
    (prompt, source, reduction, mapping) before the prompt step; with
    None, training is clean.

    Data that does not fit the prompt interior and K_t (:func:`_check_data`), or a
    ``pbl`` that leaves fewer than K_t slots, fails before the first step as a ConfigError.
    Each epoch's record holds the accuracies on ``eval_dataset`` that :func:`_score`
    states.  Only the last epoch is attacked, at ``metrics_epsilon``; every other epoch's
    ``adv_acc``, and the last one's when ``metrics_epsilon`` is 0, reads 0.0, "not
    measured" (:func:`_train_engine`).  With no ``eval_dataset`` both accuracies read 0.0.
    Evaluation reads no RNG and changes no training state, so the prompt, the
    mapping, the losses and the work columns are the same with or without it.
    """
    if not source.frozen:
        raise GraphError("prompt training requires a frozen source model")
    if lm not in ("rlm", "ilm"):
        raise ConfigError(f"label mapping must be 'rlm' or 'ilm', got {lm!r}")
    k_t = dataset.n_classes
    prompt = VisualPrompt(source.spec.input_size, pad_width)
    _check_phase(dataset, eval_dataset, _phase_bounds(source.spec, prompt, k_t))
    t = pbl.temperature if pbl is not None else 1  # no reduction stage reduces as T = 1 does
    m = _check_reduction(t, source.spec.n_classes, k_t)
    clf = PromptedClassifier(source, prompt, mapping=None, pbl=pbl)

    def refresh_mapping():
        clf.mapping = ilm_update(prediction_frequencies(clf.reduced, dataset))

    if lm == "ilm":
        refresh_mapping()
    else:
        clf.mapping = rlm_init(m, k_t, hyper.seed)
    records = _train_engine(
        prompt,
        clf,
        dataset,
        hyper,
        attack,
        eval_dataset,
        metrics_epsilon,
        after_epoch=refresh_mapping if lm == "ilm" else None,
        post_step=prompt.project,
    )
    return prompt, clf, records
