"""Single-step sign attack and the accuracy protocols built on it.

Adversarial accuracy uses the restricted protocol: only samples the
pipeline classifies correctly in the clean pass are attacked, and the
score is the fraction of those that remain correct.  An empty correct
set scores 0 by convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor
from .errors import ConfigError, GraphError, ShapeError
from .tensor import Graph, Tensor, _check_finite, softmax_cross_entropy

__all__ = [
    "AttackConfig",
    "EvalReport",
    "fgsm",
    "standard_accuracy",
    "adversarial_accuracy",
    "adversarial_accuracies",
]


@dataclass(frozen=True)
class AttackConfig:
    """ℓ∞ perturbation budget in normalized pixel units."""

    epsilon: float

    def __post_init__(self):
        if not (self.epsilon >= 0.0):
            raise ConfigError(f"epsilon must be >= 0, got {self.epsilon}")
        if not np.isfinite(self.epsilon):
            raise ConfigError(f"epsilon must be finite, got {self.epsilon}")


@dataclass(frozen=True)
class EvalReport:
    standard_accuracy: float
    adversarial_accuracy: float
    n_total: int
    n_correct: int
    n_survived_attack: int

    def __post_init__(self):
        if not (0.0 <= self.standard_accuracy <= 1.0):
            raise ConfigError(f"standard_accuracy out of [0,1]: {self.standard_accuracy}")
        if not (0.0 <= self.adversarial_accuracy <= 1.0):
            raise ConfigError(f"adversarial_accuracy out of [0,1]: {self.adversarial_accuracy}")
        if not (0 <= self.n_survived_attack <= self.n_correct <= self.n_total):
            raise ConfigError(
                f"inconsistent counts: {self.n_survived_attack}/{self.n_correct}/{self.n_total}"
            )


def fgsm(pipeline, x: Tensor, y, cfg: AttackConfig, meter=None) -> Tensor:
    """x_adv = clamp01(x + ε·sign(∇_x loss)); sign(0) = 0.

    The gradient is taken through the full pipeline (prompt, network,
    reduction, mapping — whatever the pipeline composes).  For x in
    [0,1] the returned batch satisfies ‖x_adv − x‖_∞ ≤ ε and x_adv ∈
    [0,1] exactly; float32 rounding past the ε-ball is undone by an
    exact one-ulp bit step (:func:`_step_in_ball`).  An input pixel more
    than ε outside [0,1] cannot come back within ε of the clamped step
    and raises :class:`GraphError`.
    """
    if cfg.epsilon == 0.0:
        return Tensor(x.data.copy())
    return Tensor(_step_in_ball(x.data, _gradient_sign(pipeline, x.data, y, meter), np.float32(cfg.epsilon)))


def _gradient_sign(pipeline, x: np.ndarray, y, meter=None) -> np.ndarray:
    """sign(∇_x loss) of one batch, the attack direction of every budget, in a graph of the input alone."""
    xt = Tensor(x, requires_grad=True)  # wrapped, not copied: nothing writes to a leaf's data
    with Graph(wrt=xt) as g:
        logits = pipeline.logits(xt)
        loss = softmax_cross_entropy(logits, y)
    g.backward(loss)
    if meter is not None:
        meter.add_graph(g)
    if xt.grad is None:
        raise GraphError("pipeline is not differentiable with respect to its input")
    _check_finite(xt.grad, "input gradient")  # sign(NaN) is NaN, and NaN slips past every ε-ball comparison
    return np.sign(xt.grad)


def _step_in_ball(x: np.ndarray, direction: np.ndarray, eps: np.float32) -> np.ndarray:
    """clip(x + ε·direction, 0, 1), pulled back into the float32 ε-ball.

    Rounding can leave a clamped pixel one ulp more than ε from x.  Such
    a pixel is moved one ulp toward x by adding ±1 to its bit pattern:
    for a finite float32 ≥ +0, that is exactly ``np.nextafter`` toward
    x.  A pixel at 0 whose x lies below it, or at 1 whose x lies above
    it, is left alone, since only an input more than ε outside [0, 1]
    gets there, and no step within [0, 1] can help it; after 4 passes the
    overshoot is an error.
    """
    adv = np.clip(x + eps * direction, 0.0, 1.0)
    bits = adv.view(np.int32)
    for _ in range(4):
        delta = adv - x
        up = delta < -eps
        down = delta > eps
        if not (up.any() or down.any()):
            return adv
        bits += up & (adv < 1)
        bits -= down & (adv > 0)
    raise GraphError(
        f"cannot confine the perturbation to the epsilon ball: an input pixel lies more than epsilon={eps!s} "
        "outside [0, 1]"
    )


def _predict(pipeline, images: np.ndarray) -> np.ndarray:
    """Argmax class per sample; numpy argmax already ties to lowest index."""
    batch = tensor._EVAL_BATCH
    preds = []
    for start in range(0, images.shape[0], batch):
        logits = pipeline.logits(Tensor(images[start : start + batch]))
        preds.append(logits.data.argmax(axis=1))
    return np.concatenate(preds)


def standard_accuracy(pipeline, dataset) -> float:
    """Fraction of argmax-correct predictions over the dataset: the clean pass of :func:`adversarial_accuracies`."""
    return adversarial_accuracies(pipeline, dataset, [AttackConfig(0.0)])[0].standard_accuracy


def adversarial_accuracy(pipeline, dataset, cfg: AttackConfig) -> EvalReport:
    """Attack only the initially-correct samples; score the survivors."""
    return adversarial_accuracies(pipeline, dataset, [cfg])[0]


def adversarial_accuracies(pipeline, dataset, budgets) -> list[EvalReport]:
    """:func:`adversarial_accuracy` for each budget, over one clean pass.

    The attack direction does not depend on ε, so each batch of correct
    samples takes one gradient pass, shared by every budget.  At ε = 0
    the attack is the identity, so every correct sample survives by
    construction and no attacked pass is run.  Each batch of correct
    samples is gathered from the dataset by index, so no pass holds more
    than one batch of them.
    """
    if len(dataset) == 0:
        raise ShapeError("cannot evaluate on an empty dataset")
    preds = _predict(pipeline, dataset.images)
    correct = preds == dataset.labels
    n_total = len(dataset)
    n_correct = int(correct.sum())
    std_acc = n_correct / n_total
    picked = np.flatnonzero(correct)
    batch = tensor._EVAL_BATCH
    attacked = [k for k, cfg in enumerate(budgets) if cfg.epsilon != 0.0]
    survived = [n_correct if cfg.epsilon == 0.0 else 0 for cfg in budgets]
    for start in range(0, n_correct if attacked else 0, batch):
        rows = picked[start : start + batch]
        xb, yb = dataset.images[rows], dataset.labels[rows]
        direction = _gradient_sign(pipeline, xb, yb)
        for k in attacked:
            adv = Tensor(_step_in_ball(xb, direction, np.float32(budgets[k].epsilon)))
            survived[k] += int((pipeline.logits(adv).data.argmax(axis=1) == yb).sum())
    return [
        EvalReport(std_acc, s / n_correct if n_correct else 0.0, n_total, n_correct, s) for s in survived
    ]
