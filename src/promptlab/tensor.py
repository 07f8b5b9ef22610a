"""Reverse-mode automatic differentiation on float32 numpy arrays.

The library is define-by-run: a :class:`Graph` is opened as a context
manager, every operation executed inside records itself onto the tape,
and :meth:`Graph.backward` replays the tape in reverse to accumulate
gradients into the ``grad`` buffers of the participating leaves.  The
graph is rebuilt on every forward pass; nothing is retained between
passes except the leaf tensors themselves.  Backward keeps only what it
still reads: it drops each tape entry, with the activations and saved
buffers its closure holds, as soon as that entry's gradients are
formed, so a graph is differentiated once.

Every op, the ones here and the custom ones elsewhere in the package
(``apply_prompt``, ``block_reduce``, ``map_labels``), computes its result
and a ``backward_fn`` closure, then ends in one ``return record_op(data,
inputs, backward_fn, flops)``, which wraps the result and records the op.

All values are float32.  Every operation validates its operand shapes
up front.  The :class:`Tensor` constructor rejects NaN/Inf; op outputs
and gradients are unchecked, and an overflow is caught where a value
becomes a decision: the logits, a parameter gradient, FGSM's input
gradient, an epoch's recorded loss.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import GraphError, NumericsError, ShapeError

__all__ = [
    "Tensor",
    "Graph",
    "record_op",
    "matmul",
    "conv2d",
    "relu",
    "clamp01",
    "softmax_cross_entropy",
    "add",
    "add_row_bias",
    "add_channel_bias",
    "reshape",
    "tensor_sum",
]


def _as_f32(data) -> np.ndarray:
    return np.asarray(data, dtype=np.float32)


def _check_finite(arr: np.ndarray, what: str) -> None:
    if not np.isfinite(arr).all():
        raise NumericsError(f"NaN or Inf in {what}")


class Tensor:
    """A float32 array plus an optional gradient buffer.

    ``requires_grad`` marks the tensor as a differentiation target;
    operations propagate the flag to their outputs.  ``grad`` is filled
    by :func:`backward` for leaves only (tensors not produced inside the
    graph being differentiated); repeated backward calls accumulate.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = _as_f32(data)
        _check_finite(arr, "tensor value")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a scalar, got shape {self.data.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"


_GRAPH_STACK: list["Graph"] = []


class Graph:
    """Tape of recorded operations for one forward/backward cycle.

    :meth:`backward` consumes the tape, releasing each entry once its
    gradients are formed, so it runs once per graph; a second call
    raises :class:`GraphError`.

    Also keeps deterministic work accounting: ``flops`` counts the
    arithmetic performed (backward traversal adds twice the forward
    cost of each op it visits) and ``bytes_tracked`` sums the buffers
    that were alive on the tape, gradients included.
    """

    def __init__(self):
        self._tape: list[tuple] = []  # (output, inputs, backward_fn, flops) per op
        self._produced: set[int] = set()
        self._counted: set[int] = set()
        self.flops: int = 0
        self.bytes_tracked: int = 0

    def __enter__(self) -> "Graph":
        _GRAPH_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        popped = _GRAPH_STACK.pop()
        if popped is not self:  # pragma: no cover - defensive
            raise GraphError("graph context stack corrupted")
        return False

    def record(self, output: Tensor, inputs: tuple[Tensor, ...], backward_fn, flops: int) -> None:
        self._tape.append((output, inputs, backward_fn, flops))
        self._produced.add(id(output))
        self.flops += int(flops)
        for t in (output, *inputs):
            if id(t) not in self._counted:
                self._counted.add(id(t))
                self.bytes_tracked += t.data.nbytes

    def backward(self, loss: Tensor) -> None:
        """Accumulate d(loss)/d(leaf) into every requires_grad leaf."""
        if self._tape is None:
            raise GraphError("graph was already differentiated: a graph is differentiated once")
        if loss.data.size != 1:
            raise GraphError(f"backward needs a scalar loss, got shape {loss.data.shape}")
        if id(loss) not in self._produced:
            raise GraphError("loss tensor was not produced by this graph")

        tape, self._tape = self._tape, None
        grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
        while tape:
            # popped, so the entry's closure and output are freed once its gradients are formed
            output, inputs, backward_fn, flops = tape.pop()
            g_out = grads.pop(id(output), None)
            if g_out is None:
                continue  # op not on any path to the loss
            if not output.requires_grad:
                continue  # no input needs a gradient: backward_fn is never called
            self.flops += 2 * flops
            input_grads = backward_fn(g_out)
            for inp, g_in in zip(inputs, input_grads):
                if g_in is None:
                    continue
                g_in = _as_f32(g_in)
                if g_in.shape != inp.data.shape:  # pragma: no cover - defensive
                    raise GraphError(
                        f"backward produced gradient of shape {g_in.shape} "
                        f"for input of shape {inp.data.shape}"
                    )
                self.bytes_tracked += g_in.nbytes
                if id(inp) in self._produced:
                    key = id(inp)
                    if key in grads:
                        grads[key] = grads[key] + g_in
                    else:
                        grads[key] = g_in
                elif inp.requires_grad:
                    # leaf: accumulate into the persistent buffer
                    if inp.grad is None:
                        inp.grad = np.zeros_like(inp.data)
                    inp.grad += g_in


def record_op(data, inputs: tuple[Tensor, ...], backward_fn, flops: int = 0) -> Tensor:
    """Wrap an op's result and record the op onto the active graph, if one is open.

    The output holds ``data`` as float32, unchecked, and requires grad when
    any input does.  ``backward_fn(g)`` gets the output's gradient and
    returns one gradient (or None) per input.  It runs only when the output
    requires grad, so an op with one input need not check its input's flag.
    """
    out = Tensor.__new__(Tensor)
    out.data = _as_f32(data)
    out.requires_grad = any(t.requires_grad for t in inputs)
    out.grad = None
    if _GRAPH_STACK:
        _GRAPH_STACK[-1].record(out, inputs, backward_fn, flops)
    return out


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of two rank-2 tensors.

    Backward: dA = G @ B^T, dB = A^T @ G.
    """
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(
            f"matmul needs rank-2 operands, got {a.data.shape} and {b.data.shape}"
        )
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(
            f"matmul inner dimensions disagree: {a.data.shape} vs {b.data.shape}"
        )
    m, k = a.data.shape
    n = b.data.shape[1]

    def bwd(g):
        ga = g @ b.data.T if a.requires_grad else None
        gb = a.data.T @ g if b.requires_grad else None
        return ga, gb

    return record_op(a.data @ b.data, (a, b), bwd, flops=2 * m * k * n)


_COL_SLICE = 32  # examples per column-gradient GEMM in conv2d's backward


@functools.lru_cache(maxsize=64)
def _im2col_index(c: int, h: int, w: int, kh: int, kw: int, stride: int) -> np.ndarray:
    """Gather index into one flattened (c, h, w) raster, shaped
    (h_out*w_out, c*kh*kw) in (h_out, w_out, c, kh, kw) order."""
    h_out = (h - kh) // stride + 1
    w_out = (w - kw) // stride + 1
    rows = (np.arange(h_out) * stride)[:, None, None, None, None] + np.arange(kh)[:, None]
    cols = (np.arange(w_out) * stride)[None, :, None, None, None] + np.arange(kw)
    idx = (np.arange(c)[:, None, None] * h + rows) * w + cols
    idx = idx.reshape(h_out * w_out, c * kh * kw)
    idx.flags.writeable = False  # shared by every call with this geometry
    return idx


@functools.lru_cache(maxsize=64)
def _col2im_index(c: int, h: int, w: int, kh: int, kw: int, stride: int) -> np.ndarray:
    """The gather index transposed to (c, kh, kw, h_out, w_out) order, the
    order of ``kmat.T @ gmat``, and flattened into one contiguous vector
    (a strided index would miss ``np.add.at``'s fast path)."""
    idx = np.ascontiguousarray(_im2col_index(c, h, w, kh, kw, stride).T).reshape(-1)
    idx.flags.writeable = False
    return idx


def conv2d(x: Tensor, kernel: Tensor, stride: int = 1) -> Tensor:
    """Valid (no padding) 2-D convolution over NCHW input.

    Implemented as im2col (a cached gather index) followed by one matrix
    product per example, ``kernel @ cols^T``, which writes the
    (F, H_out*W_out) output rows directly.  The patch matrix ``cols`` is
    kept for backward only when the kernel requires grad, since only the
    kernel gradient reads it.  The backward pass forms the kernel
    gradient with one ``tensordot`` over the batch, and the column
    gradient ``kernel^T @ g`` in (C, kh, kw, H_out, W_out) order, 32
    examples at a time, so the (N, C*kh*kw, H_out*W_out) buffer is never
    whole.  One ``np.add.at`` per example scatters each slice onto a
    zeroed input raster through the gather index in that same order, so
    each input pixel receives its terms in kernel-offset ``(i, j)``
    order, starting from zero.  Each dot product and each pixel's sum take the same terms in
    the same order as the plain im2col formulation, so the output and
    gradient bytes match it.
    """
    if x.data.ndim != 4 or kernel.data.ndim != 4:
        raise ShapeError(
            f"conv2d needs NCHW input and FCHW kernel, got {x.data.shape} and {kernel.data.shape}"
        )
    if not isinstance(stride, int) or stride < 1:
        raise ShapeError(f"conv2d stride must be a positive int, got {stride!r}")
    n, c, h, w = x.data.shape
    f, ck, kh, kw = kernel.data.shape
    if ck != c:
        raise ShapeError(f"conv2d channel mismatch: input has {c}, kernel expects {ck}")
    if kh > h or kw > w:
        raise ShapeError(
            f"conv2d kernel {kh}x{kw} larger than input {h}x{w}"
        )
    h_out = (h - kh) // stride + 1
    w_out = (w - kw) // stride + 1
    # im2col: one gather per batch, (n, h_out*w_out, c*kh*kw)
    # the index is in range by construction; "wrap" skips take's per-index bounds check
    cols = np.take(x.data.reshape(n, c * h * w), _im2col_index(c, h, w, kh, kw, stride), axis=1, mode="wrap")
    kmat = kernel.data.reshape(f, c * kh * kw)
    out_data = (kmat @ cols.transpose(0, 2, 1)).reshape(n, f, h_out, w_out)
    if not kernel.requires_grad:
        cols = None  # only the kernel gradient reads the patches

    def bwd(g):
        gmat = g.reshape(n, f, h_out * w_out)
        gk = None
        gx = None
        if cols is not None:
            gk = np.tensordot(gmat.transpose(0, 2, 1), cols, axes=([0, 1], [0, 1])).reshape(kernel.data.shape)
        if x.requires_grad:
            index = _col2im_index(c, h, w, kh, kw, stride)
            gx = np.zeros((n, c * h * w), dtype=np.float32)
            for start in range(0, n, _COL_SLICE):
                dc = (kmat.T @ gmat[start : start + _COL_SLICE]).reshape(-1, index.size)
                for b, row in enumerate(dc, start):
                    np.add.at(gx[b], index, row)
            gx = gx.reshape(x.data.shape)
        return gx, gk

    return record_op(out_data, (x, kernel), bwd, flops=2 * n * h_out * w_out * f * c * kh * kw)


def relu(x: Tensor) -> Tensor:
    """max(x, 0); gradient passes where x > 0."""

    def bwd(g):
        return (g * (x.data > 0.0),)

    return record_op(np.maximum(x.data, 0.0), (x,), bwd, flops=x.data.size)


def clamp01(x: Tensor) -> Tensor:
    """Clamp into [0, 1]; gradient passes only on the open interval (0, 1)."""

    def bwd(g):
        gate = (x.data > 0.0) & (x.data < 1.0)
        return (g * gate,)

    return record_op(np.clip(x.data, 0.0, 1.0), (x,), bwd, flops=x.data.size)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of two same-shape tensors."""
    if a.data.shape != b.data.shape:
        raise ShapeError(f"add shape mismatch: {a.data.shape} vs {b.data.shape}")

    def bwd(g):
        return (g if a.requires_grad else None, g if b.requires_grad else None)

    return record_op(a.data + b.data, (a, b), bwd, flops=a.data.size)


def add_row_bias(x: Tensor, bias: Tensor) -> Tensor:
    """Add a length-K bias vector to every row of an (N, K) tensor."""
    if x.data.ndim != 2 or bias.data.ndim != 1 or x.data.shape[1] != bias.data.shape[0]:
        raise ShapeError(
            f"add_row_bias needs (N,K) and (K,), got {x.data.shape} and {bias.data.shape}"
        )

    def bwd(g):
        gx = g if x.requires_grad else None
        gb = g.sum(axis=0) if bias.requires_grad else None
        return gx, gb

    return record_op(x.data + bias.data, (x, bias), bwd, flops=x.data.size)


def add_channel_bias(x: Tensor, bias: Tensor) -> Tensor:
    """Add a per-channel bias to an (N, F, H, W) tensor."""
    if x.data.ndim != 4 or bias.data.ndim != 1 or x.data.shape[1] != bias.data.shape[0]:
        raise ShapeError(
            f"add_channel_bias needs (N,F,H,W) and (F,), got {x.data.shape} and {bias.data.shape}"
        )

    def bwd(g):
        gx = g if x.requires_grad else None
        gb = g.sum(axis=(0, 2, 3)) if bias.requires_grad else None
        return gx, gb

    return record_op(x.data + bias.data[None, :, None, None], (x, bias), bwd, flops=x.data.size)


def reshape(x: Tensor, new_shape: tuple[int, ...]) -> Tensor:
    """Reshape without changing the element count."""
    try:
        data = x.data.reshape(new_shape)
    except ValueError as exc:
        raise ShapeError(f"cannot reshape {x.data.shape} into {new_shape}: {exc}") from None

    def bwd(g):
        return (g.reshape(x.data.shape),)

    return record_op(np.ascontiguousarray(data), (x,), bwd, flops=0)


def tensor_sum(x: Tensor) -> Tensor:
    """Sum all elements down to a scalar."""

    def bwd(g):
        return (np.broadcast_to(g, x.data.shape).astype(np.float32),)

    return record_op(x.data.sum(), (x,), bwd, flops=x.data.size)


def softmax_cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean cross-entropy between softmax(logits) and integer labels.

    Uses the max-shift trick for stability.  Backward on the logits is
    (softmax - onehot) / N.
    """
    if logits.data.ndim != 2:
        raise ShapeError(f"softmax_cross_entropy needs (N,K) logits, got {logits.data.shape}")
    y = np.asarray(labels)
    if y.ndim != 1 or y.shape[0] != logits.data.shape[0]:
        raise ShapeError(
            f"labels must be a length-{logits.data.shape[0]} vector, got shape {y.shape}"
        )
    if not np.issubdtype(y.dtype, np.integer):
        raise ShapeError(f"labels must be integers, got dtype {y.dtype}")
    n, k = logits.data.shape
    if y.size and (y.min() < 0 or y.max() >= k):
        raise ShapeError(f"label out of range [0, {k}) in {np.unique(y)[[0, -1]]}")
    z = logits.data.astype(np.float64)
    z = z - z.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(z).sum(axis=1))
    loss_val = np.float32((log_norm - z[np.arange(n), y]).mean())

    def bwd(g):
        probs = np.exp(z - log_norm[:, None])
        probs[np.arange(n), y] -= 1.0
        return ((probs * (np.float64(g) / n)).astype(np.float32),)

    return record_op(loss_val, (logits,), bwd, flops=6 * n * k)
