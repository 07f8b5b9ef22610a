"""Exception hierarchy shared across the package."""


class PromptLabError(Exception):
    """Base class for all promptlab errors."""


class ShapeError(PromptLabError, ValueError):
    """Operand shapes or index ranges are incompatible."""


class GraphError(PromptLabError, RuntimeError):
    """Misuse of the differentiation graph (bad loss, missing gradients)."""


class NumericsError(PromptLabError, ArithmeticError):
    """NaN or Inf in a tensor's value, the logits, a gradient or a loss; the message says which."""


class CheckpointError(PromptLabError):
    """A checkpoint file is malformed, truncated, or mismatched."""


class DataFormatError(PromptLabError, ValueError):
    """A dataset file or in-memory dataset violates the format contract."""


class ConfigError(PromptLabError, ValueError):
    """An experiment configuration violates its invariants."""
