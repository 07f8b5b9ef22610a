"""Small convolutional classifiers: architecture specs, init, forward."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
from .tensor import (
    Tensor,
    _check_finite,
    add_channel_bias,
    add_row_bias,
    conv2d,
    matmul,
    relu,
    reshape,
)

__all__ = ["ConvNetSpec", "ModelParams", "init_params", "forward"]


@dataclass(frozen=True)
class ConvNetSpec:
    """Architecture of a conv net: conv blocks then two dense layers.

    ``input_size`` is (channels, height, width); each conv block is a
    (filters, kernel, stride) triple applied valid (no padding) and
    followed by a ReLU.  The flattened conv output feeds a hidden dense
    layer with ReLU, then a linear layer onto ``n_classes`` logits.
    """

    input_size: tuple[int, int, int]
    conv_blocks: tuple[tuple[int, int, int], ...]
    hidden_width: int
    n_classes: int

    def __post_init__(self):
        c, h, w = self.input_size
        if c < 1 or h < 1 or w < 1:
            raise ConfigError(f"input_size must be positive, got {self.input_size}")
        if self.n_classes < 2:
            raise ConfigError(f"n_classes must be >= 2, got {self.n_classes}")
        if self.hidden_width < 1:
            raise ConfigError(f"hidden_width must be >= 1, got {self.hidden_width}")
        if not self.conv_blocks:
            raise ConfigError("at least one conv block is required")
        for f, k, s in self.conv_blocks:
            if f < 1 or k < 1 or s < 1:
                raise ConfigError(f"bad conv block ({f}, {k}, {s})")
        # walking the spatial dims validates that every block fits
        self.feature_shape()

    def feature_shape(self) -> tuple[int, int, int]:
        """(channels, height, width) of the last conv activation."""
        c, h, w = self.input_size
        for f, k, s in self.conv_blocks:
            if k > h or k > w:
                raise ConfigError(
                    f"conv kernel {k} does not fit the {h}x{w} activation it receives"
                )
            h = (h - k) // s + 1
            w = (w - k) // s + 1
            c = f
        return c, h, w

    def flat_features(self) -> int:
        c, h, w = self.feature_shape()
        return c * h * w


class ModelParams:
    """Named parameter tensors for one ConvNetSpec instance.  The bundle is ``frozen`` when none
    of its tensors requires grad: no graph forms its gradient, and optimizer steps refuse it.
    :meth:`freeze` clears every flag; ``copy(frozen)`` keeps each (None) or sets them all."""

    def __init__(self, spec: ConvNetSpec, tensors: dict[str, Tensor]):
        self.spec = spec
        self.tensors = tensors

    @property
    def frozen(self) -> bool:
        return not any(t.requires_grad for t in self.tensors.values())

    def named_tensors(self) -> list[tuple[str, Tensor]]:
        return list(self.tensors.items())

    def freeze(self) -> None:
        for t in self.tensors.values():
            t.requires_grad = False
            t.grad = None

    def copy(self, frozen: bool | None = None) -> "ModelParams":
        dup = {
            name: Tensor(t.data.copy(), requires_grad=t.requires_grad if frozen is None else not frozen)
            for name, t in self.tensors.items()
        }
        return ModelParams(self.spec, dup)

    def byte_signature(self) -> bytes:
        """Concatenated raw parameter bytes, for change detection."""
        return b"".join(t.data.tobytes() for _, t in sorted(self.tensors.items()))


def _layer_shapes(spec: ConvNetSpec) -> list[tuple[str, tuple[int, ...]]]:
    shapes: list[tuple[str, tuple[int, ...]]] = []
    c = spec.input_size[0]
    for i, (f, k, _s) in enumerate(spec.conv_blocks):
        shapes.append((f"conv{i}.weight", (f, c, k, k)))
        shapes.append((f"conv{i}.bias", (f,)))
        c = f
    shapes.append(("hidden.weight", (spec.flat_features(), spec.hidden_width)))
    shapes.append(("hidden.bias", (spec.hidden_width,)))
    shapes.append(("output.weight", (spec.hidden_width, spec.n_classes)))
    shapes.append(("output.bias", (spec.n_classes,)))
    return shapes


def init_params(spec: ConvNetSpec, seed: int) -> ModelParams:
    """Fan-in scaled uniform init: W ~ U(+-sqrt(6/fan_in)), biases zero."""
    rng = np.random.Generator(np.random.PCG64(seed))
    tensors: dict[str, Tensor] = {}
    for name, shape in _layer_shapes(spec):
        if name.endswith(".bias"):
            tensors[name] = Tensor(np.zeros(shape, dtype=np.float32), requires_grad=True)
            continue
        if len(shape) == 4:
            fan_in = shape[1] * shape[2] * shape[3]
        else:
            fan_in = shape[0]
        bound = float(np.sqrt(6.0 / fan_in))
        data = rng.uniform(-bound, bound, size=shape).astype(np.float32)
        tensors[name] = Tensor(data, requires_grad=True)
    return ModelParams(spec, tensors)


def forward(params: ModelParams, batch: Tensor) -> Tensor:
    """Run the net, returning (N, n_classes) logits checked for NaN/Inf,
    so an overflow anywhere in the net stops before a loss or an argmax."""
    spec = params.spec
    if batch.data.ndim != 4 or tuple(batch.data.shape[1:]) != spec.input_size:
        raise ShapeError(
            f"batch shape {batch.data.shape} does not match input size {spec.input_size}"
        )
    h = batch
    for i, (_f, _k, s) in enumerate(spec.conv_blocks):
        h = conv2d(h, params.tensors[f"conv{i}.weight"], stride=s)
        h = add_channel_bias(h, params.tensors[f"conv{i}.bias"])
        h = relu(h)
    n = batch.data.shape[0]
    h = reshape(h, (n, spec.flat_features()))
    h = relu(add_row_bias(matmul(h, params.tensors["hidden.weight"]), params.tensors["hidden.bias"]))
    logits = add_row_bias(matmul(h, params.tensors["output.weight"]), params.tensors["output.bias"])
    _check_finite(logits.data, "logits")
    return logits
