"""Training loops: source classifiers (clean and adversarial) and prompts.

All loops share one engine: seeded epoch shuffling, optional per-batch
perturbation (the single-step sign attack, for adversarial training),
a fresh differentiation graph per step, momentum SGD, and per-epoch
metrics.  Everything is deterministic in the hyperparameter seed.
"""

from __future__ import annotations

import os
from contextlib import nullcontext
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


def _evaluate_epochs(target, pipeline, evaluate, count, tasks, results) -> None:
    """The evaluation worker's body: ``count`` times, write the values an
    epoch of training left into the inherited ``target`` (and the label
    mapping into ``pipeline``), evaluate, and send the accuracies back.
    An exception is sent back in place of a result and ends the worker."""
    tensors = [t for _, t in target.named_tensors()]
    for t in tensors:
        t.requires_grad = False  # the attack then forms only the input gradient it reads
    try:
        for _ in range(count):
            values, mapping = tasks.get()
            for t, value in zip(tensors, values):
                t.data[...] = value
            if mapping is not None:
                pipeline.mapping = mapping
            results.send(evaluate())
    except Exception as exc:
        try:
            results.send(exc)
        except Exception:  # an exception that does not pickle
            results.send(RuntimeError(f"{type(exc).__name__}: {exc}"))


class _EvalWorker:
    """One forked process that evaluates the epochs of a training phase
    while the parent trains the next ones.

    It is forked before the first epoch, so it inherits the pipeline, the
    frozen source and the evaluation set; :meth:`submit` then sends only
    what an epoch of training changed.  Fork, not spawn: a spawned worker
    would import promptlab again and need the pipeline and the evaluation
    set pickled.  Used as a context manager: on the way out the worker is
    joined, after being terminated if the block raised.
    """

    def __init__(self, target, pipeline, evaluate, count: int):
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        self._target, self._pipeline, self._count = target, pipeline, count
        self._tasks = ctx.Queue()  # its feeder thread keeps submit() from blocking on a full pipe
        self._results, sender = ctx.Pipe(duplex=False)
        self._process = ctx.Process(
            target=_evaluate_epochs, args=(target, pipeline, evaluate, count, self._tasks, sender), daemon=True
        )
        self._process.start()
        sender.close()  # the worker holds the only write end, so its exit reads as EOF

    def __enter__(self) -> "_EvalWorker":
        return self

    def submit(self) -> None:
        """Queue copies of the target's values and the pipeline's mapping."""
        values = [t.data.copy() for _, t in self._target.named_tensors()]
        self._tasks.put((values, getattr(self._pipeline, "mapping", None)))

    def results(self) -> list[tuple[float, float]]:
        """``(std_acc, adv_acc)`` of every submitted epoch, in order.
        Re-raises the exception the worker's evaluation raised."""
        out = []
        for _ in range(self._count):
            try:
                got = self._results.recv()
            except EOFError:
                self._process.join()
                raise RuntimeError(f"evaluation worker exited with code {self._process.exitcode}") from None
            if isinstance(got, Exception):
                raise got
            out.append(got)
        return out

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self._process.terminate()
            self._tasks.cancel_join_thread()  # the queue may hold values nobody will read
        self._process.join()
        self._tasks.close()
        self._tasks.join_thread()
        self._results.close()


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
    """Train ``target`` through ``pipeline``; returns one record per epoch.

    Each epoch is evaluated on ``eval_dataset`` after it trains (only the
    last one with ``final_eval_only``).  When more than one epoch is
    evaluated and at least two CPUs are usable, every epoch but the last
    is evaluated in one forked worker while the next epoch trains; the
    records are the same either way.
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
        if metrics_epsilon > 0.0:
            report = adversarial_accuracy(pipeline, eval_ds, AttackConfig(metrics_epsilon))
            return report.standard_accuracy, report.adversarial_accuracy
        return standard_accuracy(pipeline, eval_ds), 0.0  # 0.0: not measured

    overlap = not final_eval_only and last > 0 and usable_cpus() >= 2 and _can_fork()
    records: list[MetricsRecord] = []
    with _EvalWorker(target, pipeline, evaluate, last) if overlap else nullcontext() as worker:
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
            if final_eval_only and epoch < last:
                std_acc, adv_acc = 0.0, 0.0  # not measured
            elif worker is not None and epoch < last:
                worker.submit()
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
        if worker is not None:
            records[:last] = [replace(r, std_acc=s, adv_acc=a) for r, (s, a) in zip(records, worker.results())]
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
    With at least two usable CPUs, a phase that evaluates more than one
    epoch does so in one forked worker, alongside the next epoch's
    training, and its records are byte-for-byte those of a one-CPU run.
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
