"""Exception hierarchy shared across the package.  Each class's ``code`` is
its category, which the command line prints as ``error[code] message``."""

__all__ = ["PromptLabError", "ShapeError", "GraphError", "NumericsError",
           "CheckpointError", "DataFormatError", "ConfigError"]


class PromptLabError(Exception):
    """Base class for all promptlab errors."""
    code = "internal"


class ShapeError(PromptLabError, ValueError):
    """Operand shapes or index ranges are incompatible."""
    code = "shape"


class GraphError(PromptLabError, RuntimeError):
    """Misuse of the differentiation graph (bad loss, missing gradients)."""
    code = "graph"


class NumericsError(PromptLabError, ArithmeticError):
    """NaN or Inf in a tensor's value, the logits, a gradient or a loss; the message says which."""
    code = "numerics"


class CheckpointError(PromptLabError):
    """A checkpoint file is malformed, truncated, or mismatched."""
    code = "checkpoint"


class DataFormatError(PromptLabError, ValueError):
    """A dataset file or in-memory dataset violates the format contract."""
    code = "data"


class ConfigError(PromptLabError, ValueError):
    """An experiment configuration violates its invariants."""
    code = "config"
