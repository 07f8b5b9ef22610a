"""Independent gradient oracle: float64 references + central differences.

Every differentiable operation in the library is paired here with a
reference implementation written directly from its mathematical
definition (plain loops where that is the clearest rendition), in
float64, sharing no code with the float32 graph ops.  A scalar probe
``sum(w * op(inputs))`` with fixed random weights is differentiated two
ways — analytically through the library's graph, and numerically by
central differences on the reference — and the two gradients are
compared by max-norm relative error.

The step size h=1e-3 is deliberate: most ops are piecewise linear, so
the oracle is exact up to float64 noise as long as instances keep a
margin of more than h from every kink (clamp edges, relu zero, block
argmax ties).  The instance builders below enforce those margins by
construction or rejection sampling.

``im2col_conv2d_f32`` and ``masked_nextafter_step`` are the float32
references: the plain im2col formulation of conv2d, and the masked
``np.nextafter`` formulation of the FGSM step's ε-ball fix-up.  The
library must match each byte for byte.
"""

from __future__ import annotations

import numpy as np

from promptlab import (
    Graph,
    GraphError,
    PblConfig,
    LabelMapping,
    Tensor,
    VisualPrompt,
    apply_prompt,
    block_reduce,
    clamp01,
    conv2d,
    map_labels,
    matmul,
    relu,
    reshape,
    softmax_cross_entropy,
)

H = 1e-3


def rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """max|a - n| / max(|a|_inf, |n|_inf), 0 when both vanish."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    scale = max(np.max(np.abs(a)), np.max(np.abs(n)))
    if scale < 1e-12:
        return 0.0
    return float(np.max(np.abs(a - n)) / scale)


def central_diff(f, arrays, h: float = H):
    """d f(arrays) / d each array, one coordinate at a time."""
    grads = []
    for a in arrays:
        g = np.zeros_like(a)
        flat, gf = a.ravel(), g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = f(arrays)
            flat[i] = orig - h
            down = f(arrays)
            flat[i] = orig
            gf[i] = (up - down) / (2.0 * h)
        grads.append(g)
    return grads


# ---------------------------------------------------------------------------
# float64 reference implementations
# ---------------------------------------------------------------------------


def ref_conv2d(x, k, stride):
    n, c, h, w = x.shape
    f, _, kh, kw = k.shape
    h_out = (h - kh) // stride + 1
    w_out = (w - kw) // stride + 1
    out = np.zeros((n, f, h_out, w_out), dtype=np.float64)
    for b in range(n):
        for o in range(f):
            for i in range(h_out):
                for j in range(w_out):
                    patch = x[b, :, i * stride : i * stride + kh, j * stride : j * stride + kw]
                    out[b, o, i, j] = np.sum(patch * k[o])
    return out


def im2col_conv2d_f32(x, k, stride, g):
    """The plain float32 im2col formulation of conv2d: a strided-view patch
    matrix in (n, h_out, w_out, c, kh, kw) order, ``cols @ kmat^T`` for
    the output, ``g @ kmat`` for the column gradient.  Returns (output,
    kernel gradient, input gradient) for output gradient ``g``; the
    library's conv2d must reproduce all three byte for byte."""
    n, c, h, w = x.shape
    f, _, kh, kw = k.shape
    h_out = (h - kh) // stride + 1
    w_out = (w - kw) // stride + 1
    sn, sc, sh, sw = x.strides
    view = np.lib.stride_tricks.as_strided(
        x, shape=(n, c, kh, kw, h_out, w_out), strides=(sn, sc, sh, sw, sh * stride, sw * stride)
    )
    cols = np.ascontiguousarray(view.transpose(0, 4, 5, 1, 2, 3)).reshape(n, h_out * w_out, c * kh * kw)
    kmat = k.reshape(f, c * kh * kw)
    out = np.ascontiguousarray((cols @ kmat.T).transpose(0, 2, 1).reshape(n, f, h_out, w_out))
    gmat = g.reshape(n, f, h_out * w_out).transpose(0, 2, 1)
    gk = np.tensordot(gmat, cols, axes=([0, 1], [0, 1])).reshape(k.shape)
    dc = (gmat @ kmat).reshape(n, h_out, w_out, c, kh, kw).transpose(0, 3, 4, 5, 1, 2)
    gx = np.zeros_like(x)
    for i in range(kh):
        for j in range(kw):
            gx[:, :, i : i + stride * h_out : stride, j : j + stride * w_out : stride] += dc[:, :, i, j]
    return out, gk, gx


def masked_nextafter_step(x, direction, eps):
    """clip(x + eps·direction, 0, 1) in float32, then, for up to 4 passes,
    every pixel more than eps from x is gathered, moved one ulp toward x
    by ``np.nextafter`` and scattered back.  The library's FGSM step
    (``attack._step_in_ball``) must reproduce it byte for byte, and raise
    where it raises."""
    adv = np.clip(x + eps * direction, 0.0, 1.0).astype(np.float32)
    for _ in range(4):
        over = np.abs(adv - x) > eps
        if not over.any():
            return adv
        adv[over] = np.nextafter(adv[over], x[over])
    raise GraphError("could not confine perturbation to the epsilon ball")


def ref_softmax_ce(z, y):
    z = z - z.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(z).sum(axis=1))
    return float((log_norm - z[np.arange(z.shape[0]), y]).mean())


def ref_block_reduce(v, t):
    """Explicit per-block max, one block at a time."""
    n = v.shape[1]
    m = -(-n // t)
    out = np.empty((v.shape[0], m), dtype=v.dtype)
    for j in range(m):
        out[:, j] = v[:, j * t : min((j + 1) * t, n)].max(axis=1)
    return out


def ref_apply_prompt(params, x, mask, pad):
    c, hh, ww = params.shape
    border = np.clip(params, 0.0, 1.0) * mask
    out = np.broadcast_to(border, (x.shape[0], c, hh, ww)).copy()
    out[:, :, pad : hh - pad, pad : ww - pad] = x
    return out


# ---------------------------------------------------------------------------
# probe plumbing
# ---------------------------------------------------------------------------


def _readout(out: Tensor, w: np.ndarray) -> Tensor:
    """Weighted scalar sum(w * out), composed from graph primitives."""
    flat = reshape(out, (1, out.size))
    return matmul(flat, Tensor(w.reshape(-1, 1)))


def _run(build_graph, ref_scalar, arrays):
    """Returns (max rel err over inputs, analytic grads)."""
    analytic = build_graph()
    numeric = central_diff(ref_scalar, [a.copy() for a in arrays])
    errs = [rel_err(a, n) for a, n in zip(analytic, numeric)]
    return max(errs), analytic


# ---------------------------------------------------------------------------
# one instance per op; each returns the max relative error
# ---------------------------------------------------------------------------


def check_matmul(rng) -> float:
    m, k, n = int(rng.integers(2, 5)), int(rng.integers(2, 6)), int(rng.integers(2, 5))
    a = rng.normal(size=(m, k))
    b = rng.normal(size=(k, n))
    w = rng.normal(size=m * n)

    def build():
        ta, tb = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
        with Graph() as g:
            loss = _readout(matmul(ta, tb), w)
        g.backward(loss)
        return [ta.grad, tb.grad]

    return _run(build, lambda arrs: float(np.sum((arrs[0] @ arrs[1]) * w.reshape(a.shape[0], -1))), [a, b])[0]


def check_conv2d(rng) -> float:
    stride = int(rng.integers(1, 3))
    x = rng.normal(size=(2, 2, 6, 6))
    k = rng.normal(size=(3, 2, 3, 3))
    h_out = (6 - 3) // stride + 1
    w = rng.normal(size=2 * 3 * h_out * h_out)

    def build():
        tx, tk = Tensor(x, requires_grad=True), Tensor(k, requires_grad=True)
        with Graph() as g:
            loss = _readout(conv2d(tx, tk, stride=stride), w)
        g.backward(loss)
        return [tx.grad, tk.grad]

    return _run(build, lambda arrs: float(np.sum(ref_conv2d(arrs[0], arrs[1], stride).ravel() * w)), [x, k])[0]


def _sample_with_margin(rng, shape, forbidden, margin):
    """Uniform(-2, 2) resampled until every point clears the kink set."""
    for _ in range(100):
        x = rng.uniform(-2.0, 2.0, size=shape)
        if all(np.abs(x - f).min() > margin for f in forbidden):
            return x
    raise AssertionError("could not sample away from kinks")


def check_relu(rng) -> float:
    x = _sample_with_margin(rng, (3, 7), [0.0], 3 * H)
    w = rng.normal(size=x.size)

    def build():
        tx = Tensor(x, requires_grad=True)
        with Graph() as g:
            loss = _readout(relu(tx), w)
        g.backward(loss)
        return [tx.grad]

    return _run(build, lambda arrs: float(np.sum(np.maximum(arrs[0], 0.0).ravel() * w)), [x])[0]


def check_clamp01(rng) -> float:
    # interior points only: the op's gradient contract is defined there
    x = rng.uniform(0.05, 0.95, size=(4, 6))
    w = rng.normal(size=x.size)

    def build():
        tx = Tensor(x, requires_grad=True)
        with Graph() as g:
            loss = _readout(clamp01(tx), w)
        g.backward(loss)
        return [tx.grad]

    return _run(build, lambda arrs: float(np.sum(np.clip(arrs[0], 0.0, 1.0).ravel() * w)), [x])[0]


def check_softmax_ce(rng) -> float:
    n, k = int(rng.integers(2, 6)), int(rng.integers(3, 8))
    z = rng.normal(size=(n, k)) * 2.0
    y = rng.integers(0, k, size=n)

    def build():
        tz = Tensor(z, requires_grad=True)
        with Graph() as g:
            loss = softmax_cross_entropy(tz, y)
        g.backward(loss)
        return [tz.grad]

    return _run(build, lambda arrs: ref_softmax_ce(arrs[0], y), [z])[0]


def check_block_reduce(rng) -> float:
    n = int(rng.integers(5, 13))
    t = int(rng.integers(2, 5))
    while True:  # keep every block's top-2 gap wide enough for the FD step
        v = rng.normal(size=(3, n)) * 2.0
        gaps = []
        for j in range(-(-n // t)):
            seg = np.sort(v[:, j * t : min((j + 1) * t, n)], axis=1)
            if seg.shape[1] > 1:
                gaps.append((seg[:, -1] - seg[:, -2]).min())
        if not gaps or min(gaps) > 4 * H:
            break
    w = rng.normal(size=3 * (-(-n // t)))
    cfg = PblConfig(temperature=t)

    def build():
        tv = Tensor(v, requires_grad=True)
        with Graph() as g:
            loss = _readout(block_reduce(tv, cfg), w)
        g.backward(loss)
        return [tv.grad]

    return _run(build, lambda arrs: float(np.sum(ref_block_reduce(arrs[0], t).ravel() * w)), [v])[0]


def check_map_labels(rng) -> float:
    m = int(rng.integers(4, 9))
    k_t = int(rng.integers(2, m + 1))
    idx = tuple(int(i) for i in rng.choice(m, size=k_t, replace=False))
    v = rng.normal(size=(3, m))
    w = rng.normal(size=3 * k_t)
    mapping = LabelMapping(idx)

    def build():
        tv = Tensor(v, requires_grad=True)
        with Graph() as g:
            loss = _readout(map_labels(tv, mapping), w)
        g.backward(loss)
        return [tv.grad]

    return _run(build, lambda arrs: float(np.sum(arrs[0][:, list(idx)].ravel() * w)), [v])[0]


def check_apply_prompt(rng) -> float:
    canvas, pad = (1, 10, 10), 3
    mask = np.ones(canvas, dtype=bool)
    mask[:, pad:-pad, pad:-pad] = False
    params = rng.uniform(0.05, 0.95, size=canvas)  # strictly inside the gate
    params[~mask] = 0.0
    x = rng.uniform(0.05, 0.95, size=(2, 1, 4, 4))
    w = rng.normal(size=2 * 100)

    def build():
        tp = Tensor(params, requires_grad=True)
        prompt = VisualPrompt(canvas, pad, tp)
        tx = Tensor(x, requires_grad=True)
        with Graph() as g:
            loss = _readout(apply_prompt(prompt, tx), w)
        g.backward(loss)
        return [tp.grad, tx.grad]

    return _run(
        build,
        lambda arrs: float(np.sum(ref_apply_prompt(arrs[0], arrs[1], mask, pad).ravel() * w)),
        [params, x],
    )[0]


ALL_CHECKS = {
    "matmul": check_matmul,
    "conv2d": check_conv2d,
    "relu": check_relu,
    "clamp01": check_clamp01,
    "softmax_cross_entropy": check_softmax_ce,
    "block_reduce": check_block_reduce,
    "map_labels": check_map_labels,
    "apply_prompt": check_apply_prompt,
}
