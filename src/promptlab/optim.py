"""Momentum SGD over named parameter collections."""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, GraphError
from .tensor import Tensor, _check_finite

__all__ = ["SgdOptimizer", "sgd_step", "zero_grad"]


class SgdOptimizer:
    """Classic momentum update: v <- mu*v + g;  p <- p - lr*v.

    Velocity buffers are keyed by parameter name and created lazily at
    the first step, matching each parameter's shape.  Gradients are
    cleared after every step; a NaN/Inf gradient fails it before anything moves.
    """

    def __init__(self, learning_rate: float, momentum: float = 0.0):
        if not (learning_rate >= 0.0):
            raise ConfigError(f"learning_rate must be >= 0, got {learning_rate}")
        if not np.isfinite(learning_rate):
            raise ConfigError(f"learning_rate must be finite, got {learning_rate}")
        if not (0.0 <= momentum < 1.0):
            raise ConfigError(f"momentum must lie in [0, 1), got {momentum}")
        self.learning_rate = np.float32(learning_rate)
        self.momentum = np.float32(momentum)
        self.velocities: dict[str, np.ndarray] = {}

    def step(self, named_params: list[tuple[str, Tensor]]) -> None:
        for name, p in named_params:
            if p.grad is None:
                raise GraphError(f"parameter '{name}' has no gradient; run backward first")
            _check_finite(p.grad, f"gradient of '{name}'")
        for name, p in named_params:
            v = self.velocities.get(name)
            if v is None:
                v = np.zeros_like(p.data)
                self.velocities[name] = v
            elif v.shape != p.data.shape:  # pragma: no cover - defensive
                raise GraphError(f"velocity shape {v.shape} does not match '{name}'")
            v *= self.momentum
            v += p.grad
            p.data -= self.learning_rate * v
            p.grad = None


def sgd_step(target, opt: SgdOptimizer) -> None:
    """Apply one optimizer step to any object exposing named_tensors().

    Frozen targets are refused outright so that a frozen source model
    can never drift underneath a prompt being trained on top of it.
    """
    if getattr(target, "frozen", False):
        raise GraphError("refusing to update frozen parameters")
    opt.step(target.named_tensors())


def zero_grad(target) -> None:
    """Clear gradient buffers ahead of a fresh backward pass."""
    for _, p in target.named_tensors():
        p.grad = None
