"""Reverse-mode automatic differentiation on float32 numpy arrays.

The library is define-by-run: a :class:`Graph` is opened as a context
manager, every operation executed inside records itself onto the tape,
and :meth:`Graph.backward` replays the tape in reverse to accumulate
gradients into the ``grad`` buffers of the participating leaves.  The
graph is rebuilt on every forward pass; nothing is retained between
passes except the leaf tensors themselves.  ``Graph(wrt=x)``, which the
attacks use, differentiates ``x`` alone, whatever other leaves' flags say.

The tape keeps only what backward reads.  An op's output is not on the
tape: the output names its op by tape position (:attr:`Tensor.node`), so
an activation is freed as soon as its caller drops it, unless a closure
kept the array because its gradient reads it.  Closures capture arrays
and flags fixed at forward time, never input tensors; the graph holds
only the inputs none of its ops made (parameters, input batches).
Backward drops each tape entry, with the buffers its closure holds, as
soon as that entry's gradients are formed, so a graph is differentiated
once.

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
    ``node`` is ``(graph, tape position)`` of the op that made the
    tensor, or None when no graph recorded it.
    """

    __slots__ = ("data", "requires_grad", "grad", "node")

    def __init__(self, data, requires_grad: bool = False):
        arr = _as_f32(data)
        _check_finite(arr, "tensor value")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self.node: tuple[Graph, int] | None = None

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


def _needs_grad(x: Tensor, g: Graph | None = None) -> bool:
    """Whether graph ``g`` (default: the innermost open one) can be asked for ``x``'s gradient: ``x``
    requires grad, and ``g`` has no ``wrt``, or ``x`` is its ``wrt``, or ``g`` made ``x``.  Ops read
    input flags and build masks and patches under this test; :meth:`Graph.backward` fills a leaf's under it."""
    g = g or (_GRAPH_STACK[-1] if _GRAPH_STACK else None)
    made_here = x.node is not None and x.node[0] is g
    return g is not None and x.requires_grad and (g.wrt is None or x is g.wrt or made_here)


class Graph:
    """Tape of recorded operations for one forward/backward cycle.

    Each tape entry holds an op's ``backward_fn``, its flops, whether
    its output requires grad, the output's shape, and a source per
    input: the tape position of the op that made the input, or the
    input itself when none of this graph's ops made it.  So the graph
    holds no activation, only those outside inputs.  :meth:`backward`
    keys gradients by tape position and consumes the tape, releasing
    each entry once its gradients are formed, so it runs once per graph;
    a second call raises :class:`GraphError`.

    Also keeps deterministic work accounting: ``flops`` counts the
    arithmetic performed (backward traversal adds twice the forward
    cost of each op it visits) and ``bytes_tracked`` counts each op
    output once, each outside input once and each gradient formed.
    """

    def __init__(self, wrt: Tensor | None = None):
        self.wrt = wrt  # the one leaf to differentiate; None: every leaf that requires grad
        self._tape: list[tuple] = []  # (sources, backward_fn, flops, requires_grad, shape) per op
        self._outside: set[int] = set()  # ids of outside inputs, held by their tape entries
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
        sources = []
        for t in inputs:
            if t.node is not None and t.node[0] is self:
                sources.append(t.node[1])
                continue
            if id(t) not in self._outside:
                self._outside.add(id(t))
                self.bytes_tracked += t.data.nbytes
            sources.append(t)
        output.node = (self, len(self._tape))
        self._tape.append((tuple(sources), backward_fn, flops, output.requires_grad, output.data.shape))
        self.flops += int(flops)
        self.bytes_tracked += output.data.nbytes

    def backward(self, loss: Tensor) -> None:
        """Accumulate d(loss)/d(leaf) into ``wrt``, or into every requires_grad leaf when it is None."""
        if self._tape is None:
            raise GraphError("graph was already differentiated: a graph is differentiated once")
        if loss.data.size != 1:
            raise GraphError(f"backward needs a scalar loss, got shape {loss.data.shape}")
        if loss.node is None or loss.node[0] is not self:
            raise GraphError("loss tensor was not produced by this graph")

        tape, self._tape = self._tape, None
        grads: dict[int, np.ndarray] = {loss.node[1]: np.ones_like(loss.data)}
        while tape:
            # popped, so the entry's closure is freed once its gradients are formed
            sources, backward_fn, flops, requires_grad, _shape = tape.pop()
            g_out = grads.pop(len(tape), None)
            if g_out is None:
                continue  # op not on any path to the loss
            if not requires_grad:
                continue  # no input needs a gradient: backward_fn is never called
            self.flops += 2 * flops
            input_grads = backward_fn(g_out)
            for src, g_in in zip(sources, input_grads):
                if g_in is None:
                    continue
                g_in = _as_f32(g_in)
                made_here = isinstance(src, int)
                shape = tape[src][4] if made_here else src.data.shape
                if g_in.shape != shape:  # pragma: no cover - defensive
                    raise GraphError(
                        f"backward produced gradient of shape {g_in.shape} "
                        f"for input of shape {shape}"
                    )
                self.bytes_tracked += g_in.nbytes
                if made_here:
                    if src in grads:
                        grads[src] = grads[src] + g_in
                    else:
                        grads[src] = g_in
                elif _needs_grad(src, self):  # leaf: accumulate into the persistent buffer
                    if src.grad is None:
                        src.grad = np.zeros_like(src.data)
                    src.grad += g_in


def record_op(data, inputs: tuple[Tensor, ...], backward_fn, flops: int = 0) -> Tensor:
    """Wrap an op's result and record the op onto the active graph, if one is open.

    The output holds ``data`` as float32, unchecked, and requires grad when an
    input needs a gradient (:func:`_needs_grad`; with no graph open, when any
    input requires grad).  ``backward_fn(g)`` gets the output's gradient and
    returns one gradient (or None) per input.  It runs only when the output
    requires grad, so an op with one input need not check its input's flag.
    An op reading ``.requires_grad`` stays correct: a ``wrt`` graph drops its extra gradients.
    """
    out = Tensor.__new__(Tensor)
    out.data = _as_f32(data)
    out.requires_grad = any(map(_needs_grad, inputs)) if _GRAPH_STACK else any(t.requires_grad for t in inputs)
    out.grad = None
    out.node = None
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
    a_data = a.data if _needs_grad(b) else None
    b_data = b.data if _needs_grad(a) else None

    def bwd(g):
        ga = None if b_data is None else g @ b_data.T
        gb = None if a_data is None else a_data.T @ g
        return ga, gb

    return record_op(a.data @ b.data, (a, b), bwd, flops=2 * m * k * n)


_COL_SLICE = 32  # examples per patch gather and per column-gradient GEMM in conv2d
# Examples per pass in the evaluation protocols and the ILM tally.  A batch of 64
# held 1.3 MB less at eval-std run_s x1.05 (BENCH_34.json); 128 kept the run time.
_EVAL_BATCH = 128


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
    (F, H_out*W_out) output rows into a preallocated output.  Patches are
    gathered and multiplied 32 examples at a time.  The patch matrix
    ``cols`` is kept whole only when the kernel needs a gradient
    (:func:`_needs_grad`), since only the kernel gradient reads it;
    otherwise only one slice of it is alive at a time.  The closure keeps no
    input tensor: only ``cols``, the kernel matrix and whether the input
    needs a gradient.  The backward pass forms the kernel gradient with one
    ``tensordot`` over the batch, and the column gradient ``kernel^T @ g``
    in (C, kh, kw, H_out, W_out) order, 32 examples at a time, so the
    (N, C*kh*kw, H_out*W_out) buffer is never whole.  One ``np.add.at`` per
    example scatters each slice onto a zeroed input raster through the
    gather index in that same order, so each input pixel receives its terms
    in kernel-offset ``(i, j)`` order, starting from zero.  Each dot product
    and each pixel's sum take the same terms in the same order as the plain
    im2col formulation, so the output and gradient bytes match it.
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
    index = _im2col_index(c, h, w, kh, kw, stride)
    flat = x.data.reshape(n, c * h * w)
    kmat = kernel.data.reshape(f, c * kh * kw)
    # im2col, (n, h_out*w_out, c*kh*kw): whole only when the kernel gradient will read it
    cols = np.empty((n, *index.shape), dtype=np.float32) if _needs_grad(kernel) else None
    out_data = np.empty((n, f, h_out * w_out), dtype=np.float32)
    for start in range(0, n, _COL_SLICE):
        part = slice(start, start + _COL_SLICE)
        # the index is in range by construction; "wrap" skips take's per-index bounds check
        patches = np.take(flat[part], index, axis=1, mode="wrap", out=None if cols is None else cols[part])
        np.matmul(kmat, patches.transpose(0, 2, 1), out=out_data[part])
    x_grad = _needs_grad(x)

    def bwd(g):
        gmat = g.reshape(n, f, h_out * w_out)
        gk = None
        gx = None
        if cols is not None:
            gk = np.tensordot(gmat.transpose(0, 2, 1), cols, axes=([0, 1], [0, 1])).reshape(f, c, kh, kw)
        if x_grad:
            index = _col2im_index(c, h, w, kh, kw, stride)
            gx = np.zeros((n, c * h * w), dtype=np.float32)
            for start in range(0, n, _COL_SLICE):
                dc = (kmat.T @ gmat[start : start + _COL_SLICE]).reshape(-1, index.size)
                for b, row in enumerate(dc, start):
                    np.add.at(gx[b], index, row)
            gx = gx.reshape(n, c, h, w)
        return gx, gk

    return record_op(
        out_data.reshape(n, f, h_out, w_out), (x, kernel), bwd, flops=2 * n * h_out * w_out * f * c * kh * kw
    )


def relu(x: Tensor) -> Tensor:
    """max(x, 0); gradient passes where x > 0."""
    mask = x.data > 0.0 if _needs_grad(x) else None

    def bwd(g):
        return (g * mask,)

    return record_op(np.maximum(x.data, 0.0), (x,), bwd, flops=x.data.size)


def clamp01(x: Tensor) -> Tensor:
    """Clamp into [0, 1]; gradient passes only on the open interval (0, 1)."""
    gate = (x.data > 0.0) & (x.data < 1.0) if _needs_grad(x) else None

    def bwd(g):
        return (g * gate,)

    return record_op(np.clip(x.data, 0.0, 1.0), (x,), bwd, flops=x.data.size)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of two same-shape tensors."""
    if a.data.shape != b.data.shape:
        raise ShapeError(f"add shape mismatch: {a.data.shape} vs {b.data.shape}")
    a_grad, b_grad = _needs_grad(a), _needs_grad(b)

    def bwd(g):
        return (g if a_grad else None, g if b_grad else None)

    return record_op(a.data + b.data, (a, b), bwd, flops=a.data.size)


def add_row_bias(x: Tensor, bias: Tensor) -> Tensor:
    """Add a length-K bias vector to every row of an (N, K) tensor."""
    if x.data.ndim != 2 or bias.data.ndim != 1 or x.data.shape[1] != bias.data.shape[0]:
        raise ShapeError(
            f"add_row_bias needs (N,K) and (K,), got {x.data.shape} and {bias.data.shape}"
        )
    x_grad, bias_grad = _needs_grad(x), _needs_grad(bias)

    def bwd(g):
        gx = g if x_grad else None
        gb = g.sum(axis=0) if bias_grad else None
        return gx, gb

    return record_op(x.data + bias.data, (x, bias), bwd, flops=x.data.size)


def add_channel_bias(x: Tensor, bias: Tensor) -> Tensor:
    """Add a per-channel bias to an (N, F, H, W) tensor."""
    if x.data.ndim != 4 or bias.data.ndim != 1 or x.data.shape[1] != bias.data.shape[0]:
        raise ShapeError(
            f"add_channel_bias needs (N,F,H,W) and (F,), got {x.data.shape} and {bias.data.shape}"
        )
    x_grad, bias_grad = _needs_grad(x), _needs_grad(bias)

    def bwd(g):
        gx = g if x_grad else None
        gb = g.sum(axis=(0, 2, 3)) if bias_grad else None
        return gx, gb

    return record_op(x.data + bias.data[None, :, None, None], (x, bias), bwd, flops=x.data.size)


def reshape(x: Tensor, new_shape: tuple[int, ...]) -> Tensor:
    """Reshape without changing the element count."""
    try:
        data = x.data.reshape(new_shape)
    except ValueError as exc:
        raise ShapeError(f"cannot reshape {x.data.shape} into {new_shape}: {exc}") from None
    shape = x.data.shape

    def bwd(g):
        return (g.reshape(shape),)

    return record_op(np.ascontiguousarray(data), (x,), bwd, flops=0)


def tensor_sum(x: Tensor) -> Tensor:
    """Sum all elements down to a scalar."""
    shape = x.data.shape

    def bwd(g):
        return (np.broadcast_to(g, shape).astype(np.float32),)

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
