"""Trainable border-frame visual prompts.

A prompt owns a full-canvas parameter tensor plus a boolean mask that
is 1 on a width-``pad_width`` frame and 0 in the interior.  Applying
the prompt composes the clamped border with a downstream image placed
in the interior window; the downstream image is never altered.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, ShapeError
from .tensor import Tensor, _needs_grad, record_op

__all__ = ["VisualPrompt", "apply_prompt"]


class VisualPrompt:
    """Additive pixel frame of width ``pad_width`` on a fixed canvas."""

    def __init__(self, canvas: tuple[int, int, int], pad_width: int, params: Tensor | None = None):
        c, h, w = canvas
        if pad_width < 1:
            raise ConfigError(f"pad_width must be >= 1, got {pad_width}")
        if h - 2 * pad_width < 1 or w - 2 * pad_width < 1:
            raise ConfigError(
                f"pad_width {pad_width} leaves no interior on a {h}x{w} canvas"
            )
        self.canvas = (c, h, w)
        self.pad_width = int(pad_width)
        mask = np.zeros((c, h, w), dtype=bool)
        mask[:] = True
        mask[:, pad_width : h - pad_width, pad_width : w - pad_width] = False
        self.mask = mask
        if params is None:
            params = Tensor(np.zeros((c, h, w), dtype=np.float32), requires_grad=True)
        if params.data.shape != (c, h, w):
            raise ShapeError(
                f"prompt params shape {params.data.shape} does not match canvas {canvas}"
            )
        self.params = params
        self.project()

    @property
    def interior_size(self) -> tuple[int, int, int]:
        c, h, w = self.canvas
        p = self.pad_width
        return (c, h - 2 * p, w - 2 * p)

    @property
    def n_params(self) -> int:
        return int(self.mask.sum())

    def named_tensors(self) -> list[tuple[str, Tensor]]:
        return [("prompt.params", self.params)]

    def project(self) -> None:
        """Clip frame values into [0,1] and zero the (unused) interior.

        Keeping parameters inside the valid pixel range means the
        forward clamp stays an identity on them, so projection never
        changes what the composed image looks like — it only stops the
        optimizer from wandering into the clamp's saturated region
        where gradients vanish.
        """
        np.clip(self.params.data, 0.0, 1.0, out=self.params.data)
        self.params.data[~self.mask] = 0.0


def apply_prompt(prompt: VisualPrompt, x_t: Tensor) -> Tensor:
    """Compose the prompt frame with a batch of interior images.

    Output border pixels equal ``clamp01(params)``; interior pixels
    equal ``x_t`` exactly.  Gradients route to the prompt parameters on
    the frame (gated to the closed clamp interval [0,1], where
    projection keeps them) and to ``x_t`` on the interior, so an
    attacker's perturbation of the downstream image differentiates
    end-to-end while the image itself is never written by the prompt.
    """
    c, hh, ww = prompt.canvas
    p = prompt.pad_width
    n = x_t.data.shape[0] if x_t.data.ndim == 4 else None
    if x_t.data.ndim != 4 or x_t.data.shape[1:] != prompt.interior_size:
        raise ShapeError(
            f"batch shape {x_t.data.shape} does not fill the "
            f"{prompt.interior_size} interior window of canvas {prompt.canvas}"
        )
    border = np.clip(prompt.params.data, 0.0, 1.0) * prompt.mask
    out_data = np.broadcast_to(border, (n, c, hh, ww)).copy()
    out_data[:, :, p : hh - p, p : ww - p] = x_t.data
    params = prompt.params.data
    gate = prompt.mask & (params >= 0.0) & (params <= 1.0) if _needs_grad(prompt.params) else None
    x_grad = _needs_grad(x_t)

    def bwd(g):
        gp = None if gate is None else g.sum(axis=0) * gate
        gx = np.ascontiguousarray(g[:, :, p : hh - p, p : ww - p]) if x_grad else None
        return gp, gx

    return record_op(out_data, (prompt.params, x_t), bwd, flops=n * c * hh * ww)
