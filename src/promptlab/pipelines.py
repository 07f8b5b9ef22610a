"""Classifier pipelines: bare source model, and prompt + reduction + mapping.

A pipeline is anything with a ``logits(x: Tensor) -> Tensor`` method;
the attack and accuracy protocols are written against that interface.
"""

from __future__ import annotations

from .errors import ConfigError
from .mapping import LabelMapping, PblConfig, block_reduce, map_labels
from .nets import ModelParams, forward
from .prompt import VisualPrompt, apply_prompt
from .tensor import Tensor

__all__ = ["SourceClassifier", "PromptedClassifier"]


class SourceClassifier:
    """The bare source network, evaluated on its own input size."""

    def __init__(self, params: ModelParams):
        self.params = params

    def logits(self, x: Tensor) -> Tensor:
        return forward(self.params, x)


class PromptedClassifier:
    """Frozen source behind a prompt, block reduction, and label mapping.

    ``pbl=None`` removes the reduction stage entirely (the raw source
    logits feed the mapping); ``mapping=None`` leaves the pipeline in
    its reduced form, which is what frequency tallies consume.
    """

    def __init__(
        self,
        source: ModelParams,
        prompt: VisualPrompt,
        mapping: LabelMapping | None,
        pbl: PblConfig | None = None,
    ):
        if prompt.canvas != source.spec.input_size:
            raise ConfigError(
                f"prompt canvas {prompt.canvas} does not match source input {source.spec.input_size}"
            )
        self.source = source
        self.prompt = prompt
        self.mapping = mapping
        self.pbl = pbl

    def reduced(self, x: Tensor) -> Tensor:
        """Logits after prompt, source net, and (optional) reduction."""
        composed = apply_prompt(self.prompt, x)
        v = forward(self.source, composed)
        if self.pbl is None:
            return v
        return block_reduce(v, self.pbl)

    def logits(self, x: Tensor) -> Tensor:
        if self.mapping is None:
            raise ConfigError("pipeline has no label mapping set")
        return map_labels(self.reduced(x), self.mapping)
