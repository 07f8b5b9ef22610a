"""Training loops: source classifiers (clean and adversarial) and prompts.

All loops share one engine: seeded epoch shuffling, optional per-batch
perturbation (the single-step sign attack, for adversarial training),
a fresh differentiation graph per step, momentum SGD, and per-epoch
metrics.  Everything is deterministic in the hyperparameter seed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

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


def usable_cpus() -> int:
    """The number of CPUs this process may run on: its affinity mask where
    the platform has one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _can_fork() -> bool:
    """Whether this process can fork an evaluation worker: the platform has
    fork, and the process is not daemonic (a ``multiprocessing.Pool``
    worker is), since a daemonic process may not have children."""
    import multiprocessing  # imported here: `import promptlab` should not pay for it

    return "fork" in multiprocessing.get_all_start_methods() and not multiprocessing.current_process().daemon


_evaluator = None  # set in the evaluation worker only, by _start_evaluator


def _start_evaluator(target, pipeline, evaluate) -> None:
    """Initialise a forked evaluation worker: it keeps its inherited copy
    of ``target``'s tensors, and the pipeline and ``evaluate`` that read
    them."""
    global _evaluator
    _evaluator = ([t for _, t in target.named_tensors()], pipeline, evaluate)


def _evaluate_epoch(values, mapping) -> tuple[float, float]:
    """Write the values an epoch of training left (and its label mapping)
    into the worker's copy of the target, and evaluate."""
    tensors, pipeline, evaluate = _evaluator
    for t, value in zip(tensors, values):
        t.data[...] = value
    if mapping is not None:
        pipeline.mapping = mapping
    return evaluate()


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
    final_eval_only: bool = False,
) -> list[MetricsRecord]:
    """Train ``target`` through ``pipeline``; returns one record per epoch.

    With an ``attack``, each batch is replaced by its sign-attack
    perturbation through ``pipeline`` before the step; with None,
    training is clean.  ``after_epoch`` runs after each epoch's last
    step and before its evaluation, ``post_step`` after every step.
    Each epoch is evaluated on ``eval_dataset`` after it trains (only the
    last one with ``final_eval_only``).  When more than one epoch is
    evaluated and at least two CPUs are usable, every epoch but the last
    is evaluated by a one-process ``ProcessPoolExecutor``, forked at the
    first submitted epoch, while the next epoch trains; the records are
    the same either way.  If the phase fails, the epochs not yet handed
    to the worker are cancelled; a dead worker raises ``BrokenProcessPool``.
    """
    if len(dataset) == 0:
        raise DataFormatError("cannot train on an empty dataset")
    rng = np.random.Generator(np.random.PCG64(hyper.seed))
    opt = SgdOptimizer(hyper.learning_rate, hyper.momentum)
    eval_ds = eval_dataset if eval_dataset is not None else dataset
    persistent = _persistent_bytes(target)
    n = len(dataset)
    last = hyper.epochs - 1

    def evaluate() -> tuple[float, float]:
        # with the target's gradients off, the attack forms only the input gradient it reads
        tensors = [t for _, t in target.named_tensors()]
        flags = [t.requires_grad for t in tensors]
        for t in tensors:
            t.requires_grad = False
        try:
            if metrics_epsilon > 0.0:
                report = adversarial_accuracy(pipeline, eval_ds, AttackConfig(metrics_epsilon))
                return report.standard_accuracy, report.adversarial_accuracy
            return standard_accuracy(pipeline, eval_ds), 0.0  # 0.0: not measured
        finally:
            for t, flag in zip(tensors, flags):
                t.requires_grad = flag

    pool = None
    if not final_eval_only and last > 0 and usable_cpus() >= 2 and _can_fork():
        import multiprocessing  # imported here: `import promptlab` should not pay for it
        from concurrent.futures import ProcessPoolExecutor

        # fork, not spawn: the worker inherits the pipeline, the frozen
        # source and the evaluation set, and is sent only what training changed
        pool = ProcessPoolExecutor(
            1, multiprocessing.get_context("fork"), initializer=_start_evaluator, initargs=(target, pipeline, evaluate)
        )
    records: list[MetricsRecord] = []
    futures = []
    try:
        for epoch in range(hyper.epochs):
            meter = WorkMeter(persistent_bytes=persistent)
            order = rng.permutation(n)
            loss_sum = 0.0
            conf_sum = 0.0
            for start in range(0, n, hyper.batch_size):
                idx = order[start : start + hyper.batch_size]
                xb = dataset.images[idx]
                yb = dataset.labels[idx]
                if attack is not None:
                    xb = fgsm(pipeline, Tensor(xb), yb, attack, meter=meter).data
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
            if final_eval_only and epoch < last:
                std_acc, adv_acc = 0.0, 0.0  # not measured
            elif pool is not None and epoch < last:
                values = [t.data.copy() for _, t in target.named_tensors()]  # sent later, as the next epoch trains
                futures.append(pool.submit(_evaluate_epoch, values, getattr(pipeline, "mapping", None)))
                std_acc, adv_acc = 0.0, 0.0  # replaced by the worker's results below
            else:
                std_acc, adv_acc = evaluate()
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
        for i, future in enumerate(futures):
            std_acc, adv_acc = future.result()
            records[i] = replace(records[i], std_acc=std_acc, adv_acc=adv_acc)
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    return records


def _train_source(params, dataset, hyper, attack, eval_dataset, metrics_epsilon):
    if params.frozen:
        raise GraphError("cannot train frozen parameters")
    return params, _train_engine(
        params, SourceClassifier(params), dataset, hyper, attack, eval_dataset, metrics_epsilon
    )


def train_standard(
    params: ModelParams,
    dataset: Dataset,
    hyper: TrainHyper,
    eval_dataset: Dataset | None = None,
    metrics_epsilon: float = 0.0,
) -> tuple[ModelParams, list[MetricsRecord]]:
    """Minimize cross-entropy of the bare classifier on clean batches."""
    return _train_source(params, dataset, hyper, None, eval_dataset, metrics_epsilon)


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
    return _train_source(params, dataset, hyper, attack, eval_dataset, metrics_epsilon)


def train_prompt(
    source: ModelParams,
    dataset: Dataset,
    lm: str,
    cfg: PblConfig | None,
    hyper: TrainHyper,
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
    every epoch, before that epoch is evaluated: ``epochs + 1`` tallies
    over ``dataset`` in all.  ``cfg=None`` removes the reduction stage
    entirely; note that temperature 1 keeps the stage but makes it an
    identity, so both run the same objective.  With an ``attack``, each batch is
    perturbed by the sign attack at its budget through the full pipeline
    (prompt, source, reduction, mapping) before the prompt step; with
    None, training is clean.

    Each epoch's record holds the accuracies on ``eval_dataset`` (the
    training set when None); ``adv_acc`` is taken under the sign attack
    at ``metrics_epsilon`` and reads 0.0, "not measured", when that is 0.
    With ``final_eval_only=True`` only the last epoch is evaluated: every
    earlier record reads ``std_acc = adv_acc = 0.0``, which means "not
    measured", and its other fields are unchanged.
    Evaluation reads no RNG and changes no training state, so the
    prompt, the mapping and the last record are the same either way.
    With at least two usable CPUs, a phase that evaluates more than one
    epoch does so in a one-process ``ProcessPoolExecutor``, forked at its
    first submitted epoch, alongside the next epoch's training, and its
    records are byte-for-byte those of a one-CPU run.
    """
    if not source.frozen:
        raise GraphError("prompt training requires a frozen source model")
    if lm not in ("rlm", "ilm"):
        raise ConfigError(f"label mapping must be 'rlm' or 'ilm', got {lm!r}")
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

    def refresh_mapping():
        clf.mapping = ilm_update(prediction_frequencies(clf.reduced_fn, dataset))

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
        final_eval_only=final_eval_only,
    )
    return prompt, clf, records
