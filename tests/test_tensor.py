"""Autodiff engine: op semantics, graph mechanics, validation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from promptlab import (
    Graph,
    GraphError,
    NumericsError,
    ShapeError,
    Tensor,
    add,
    add_channel_bias,
    add_row_bias,
    clamp01,
    conv2d,
    matmul,
    record_op,
    relu,
    reshape,
    softmax_cross_entropy,
    tensor_sum,
)

from gradcheck import ALL_CHECKS, im2col_conv2d_f32, ref_conv2d


def test_tensor_coerces_to_float32():
    t = Tensor([[1, 2], [3, 4]])
    assert t.data.dtype == np.float32
    assert t.shape == (2, 2)
    assert t.size == 4


def test_tensor_rejects_nan_and_inf():
    with pytest.raises(NumericsError):
        Tensor([1.0, np.nan])
    with pytest.raises(NumericsError):
        Tensor([np.inf])


def test_item_requires_scalar():
    assert Tensor([3.5]).item() == pytest.approx(3.5)
    with pytest.raises(ShapeError):
        Tensor([1.0, 2.0]).item()


def test_matmul_validates_shapes():
    a = Tensor(np.zeros((2, 3)))
    with pytest.raises(ShapeError):
        matmul(a, Tensor(np.zeros((4, 2))))
    with pytest.raises(ShapeError):
        matmul(a, Tensor(np.zeros(3)))


def test_matmul_forward_matches_numpy(rng):
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))
    out = matmul(Tensor(a), Tensor(b))
    np.testing.assert_allclose(out.data, a @ b, rtol=1e-6, atol=1e-6)


def test_conv2d_forward_matches_loop_reference(rng):
    for stride in (1, 2):
        x = rng.normal(size=(2, 3, 7, 7))
        k = rng.normal(size=(4, 3, 3, 3))
        out = conv2d(Tensor(x), Tensor(k), stride=stride)
        np.testing.assert_allclose(out.data, ref_conv2d(x, k, stride), rtol=2e-5, atol=1e-5)


def conv2d_with_gradients(x, k, g, stride, kernel_grad=True):
    """conv2d forward and backward with output gradient exactly ``g``;
    returns the input and kernel leaves and the output."""
    tx, tk = Tensor(x, requires_grad=True), Tensor(k, requires_grad=kernel_grad)
    with Graph() as graph:
        out = conv2d(tx, tk, stride=stride)
        loss = matmul(reshape(out, (1, out.size)), Tensor(g.reshape(-1, 1)))  # d loss / d out == g exactly
    graph.backward(loss)
    return tx, tk, out


def assert_conv2d_bytes_match(gen, n, c, h, w, f, kh, kw, stride, kernel_grad=True):
    x = gen.normal(size=(n, c, h, w)).astype(np.float32)
    k = gen.normal(size=(f, c, kh, kw)).astype(np.float32)
    h_out, w_out = (h - kh) // stride + 1, (w - kw) // stride + 1
    g = gen.normal(size=(n, f, h_out, w_out)).astype(np.float32)
    tx, tk, out = conv2d_with_gradients(x, k, g, stride, kernel_grad)
    ref_out, ref_gk, ref_gx = im2col_conv2d_f32(x, k, stride, g)
    assert out.data.tobytes() == ref_out.tobytes()
    # leaf gradients accumulate onto zeros, as the graph does
    if kernel_grad:
        assert tk.grad.tobytes() == (np.zeros_like(k) + ref_gk).tobytes()
    else:
        assert tk.grad is None
    assert tx.grad.tobytes() == (np.zeros_like(x) + ref_gx).tobytes()


@pytest.mark.parametrize(
    "n, c, h, w, f, kh, kw, stride",
    [
        (1, 1, 7, 7, 2, 3, 3, 1),
        (5, 3, 9, 8, 4, 3, 3, 2),
        (5, 1, 10, 11, 3, 2, 4, 3),
        (1, 3, 6, 7, 4, 3, 2, 2),
        (5, 3, 5, 4, 2, 5, 4, 1),  # kernel the size of the input
        (5, 1, 32, 32, 8, 3, 3, 2),  # the default source net's two conv layers
        (5, 8, 15, 15, 16, 3, 3, 2),
        (70, 1, 32, 32, 8, 3, 3, 2),  # batches that cross the column gradient's 32-example slices
        (256, 8, 15, 15, 16, 3, 3, 2),
    ],
)
def test_conv2d_bytes_match_the_im2col_formulation(n, c, h, w, f, kh, kw, stride):
    gen = np.random.default_rng(n * 1000 + c * 100 + kh * 10 + stride)
    assert_conv2d_bytes_match(gen, n, c, h, w, f, kh, kw, stride)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 40),
    c=st.integers(1, 16),
    f=st.integers(1, 8),
    kh=st.integers(1, 5),
    kw=st.integers(1, 5),
    stride=st.integers(1, 3),
    extra_h=st.integers(0, 28),
    extra_w=st.integers(0, 28),
    seed=st.integers(0, 2**31 - 1),
)
def test_conv2d_bytes_match_the_im2col_formulation_property(n, c, f, kh, kw, stride, extra_h, extra_w, seed):
    h, w = kh + extra_h, kw + extra_w  # up to 33
    assert_conv2d_bytes_match(np.random.default_rng(seed), n, c, h, w, f, kh, kw, stride)


def test_conv2d_with_a_frozen_kernel_gives_the_same_input_gradient_bytes():
    """A frozen kernel frees the patch matrix after the forward GEMM; the
    input gradient does not read it."""
    assert_conv2d_bytes_match(np.random.default_rng(70), 70, 1, 32, 32, 8, 3, 3, 2, kernel_grad=False)


def test_conv2d_input_gradient_adds_each_pixels_terms_in_kernel_offset_order():
    """Terms from 1e-8 to 1e8: float32 sums of these depend on their order,
    so any other scatter order changes the input-gradient bytes."""
    k = np.array([[1e8, 3.0, 1e-8], [-1e8, 7e-3, 5e4], [-2.5, -5e4, 1.25e-4]], dtype=np.float32)
    k = np.stack([k, k[::-1, ::-1] * np.float32(-0.5)])[:, None]  # (2, 1, 3, 3)
    x = np.linspace(0.0, 1.0, 2 * 9 * 9, dtype=np.float32).reshape(2, 1, 9, 9)
    g = np.linspace(1.0, 3.0, 2 * 2 * 7 * 7, dtype=np.float32).reshape(2, 2, 7, 7)
    tx, _, _ = conv2d_with_gradients(x, k, g, 1)
    _, _, ref_gx = im2col_conv2d_f32(x, k, 1, g)
    assert tx.grad.tobytes() == (np.zeros_like(x) + ref_gx).tobytes()


def test_conv2d_validates_geometry():
    x = Tensor(np.zeros((1, 2, 5, 5)))
    with pytest.raises(ShapeError):
        conv2d(x, Tensor(np.zeros((3, 1, 3, 3))))  # channel mismatch
    with pytest.raises(ShapeError):
        conv2d(x, Tensor(np.zeros((3, 2, 6, 6))))  # kernel larger than input
    with pytest.raises(ShapeError):
        conv2d(x, Tensor(np.zeros((3, 2, 3, 3))), stride=0)


def test_unchecked_ops_keep_finite_extremes_finite():
    tiny = np.finfo(np.float32).smallest_subnormal
    x = Tensor([3.4e38, -3.4e38, 0.0, -0.0, tiny, -tiny, 1e-40, -1e-40], requires_grad=True)
    expected = {relu: np.maximum(x.data, 0.0), clamp01: np.clip(x.data, 0.0, 1.0), reshape: x.data.reshape(2, 4)}
    for op, want in expected.items():
        with Graph() as g:
            out = op(x, (2, 4)) if op is reshape else op(x)
            loss = tensor_sum(out)
        assert np.isfinite(out.data).all()
        assert out.data.tobytes() == want.tobytes()
        g.backward(loss)
    assert np.isfinite(x.grad).all()


def test_relu_and_clamp_forward():
    x = Tensor([-1.5, -0.2, 0.3, 0.9, 1.7])
    np.testing.assert_array_equal(relu(x).data, np.maximum(x.data, 0.0))
    np.testing.assert_array_equal(clamp01(x).data, np.clip(x.data, 0.0, 1.0))


def test_clamp01_gradient_gates_saturated_pixels():
    x = Tensor([-0.5, 0.25, 0.75, 1.5], requires_grad=True)
    with Graph() as g:
        loss = tensor_sum(clamp01(x))
    g.backward(loss)
    np.testing.assert_array_equal(x.grad, [0.0, 1.0, 1.0, 0.0])


def test_softmax_cross_entropy_known_value():
    # uniform logits over k classes -> loss = ln k regardless of labels
    k = 5
    logits = Tensor(np.zeros((3, k)))
    loss = softmax_cross_entropy(logits, np.array([0, 2, 4]))
    assert loss.item() == pytest.approx(np.log(k), rel=1e-6)


def test_softmax_cross_entropy_validation():
    z = Tensor(np.zeros((2, 3)))
    with pytest.raises(ShapeError):
        softmax_cross_entropy(z, np.array([0]))  # wrong length
    with pytest.raises(ShapeError):
        softmax_cross_entropy(z, np.array([0.5, 1.5]))  # not integers
    with pytest.raises(ShapeError):
        softmax_cross_entropy(z, np.array([0, 3]))  # label out of range


def test_add_and_bias_and_scale_semantics(rng):
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(3, 4))
    np.testing.assert_allclose(add(Tensor(a), Tensor(b)).data, a + b, rtol=1e-6, atol=1e-6)
    bias = rng.normal(size=4)
    np.testing.assert_allclose(
        add_row_bias(Tensor(a), Tensor(bias)).data, a + bias, rtol=1e-6, atol=1e-6
    )
    x = rng.normal(size=(2, 3, 4, 4))
    cb = rng.normal(size=3)
    np.testing.assert_allclose(
        add_channel_bias(Tensor(x), Tensor(cb)).data,
        x + cb[None, :, None, None],
        rtol=1e-6,
        atol=1e-6,
    )
    with pytest.raises(ShapeError):
        add(Tensor(a), Tensor(np.zeros((4, 3))))
    with pytest.raises(ShapeError):
        add_row_bias(Tensor(a), Tensor(np.zeros(5)))
    with pytest.raises(ShapeError):
        add_channel_bias(Tensor(x), Tensor(np.zeros(4)))


def test_reshape_roundtrip_and_validation(rng):
    x = rng.normal(size=(2, 6))
    out = reshape(Tensor(x), (3, 4))
    assert out.data.shape == (3, 4)
    with pytest.raises(ShapeError):
        reshape(Tensor(x), (5, 5))


def test_backward_requires_scalar_loss_from_this_graph():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with Graph() as g:
        y = relu(x)
    with pytest.raises(GraphError):
        g.backward(y)  # not scalar
    with Graph() as g2:
        loss = tensor_sum(relu(x))
    with pytest.raises(GraphError):
        g.backward(loss)  # produced by a different graph
    g2.backward(loss)
    np.testing.assert_array_equal(x.grad, np.ones((2, 2)))


def test_gradients_accumulate_across_backward_calls():
    x = Tensor([1.0, 2.0], requires_grad=True)
    for expected in (1.0, 2.0):
        with Graph() as g:
            loss = tensor_sum(x)
        g.backward(loss)
        np.testing.assert_allclose(x.grad, [expected, expected])


def test_a_graph_is_differentiated_once():
    """Backward releases the tape as it runs, so a second pass has nothing
    to replay: it raises instead of silently adding nothing."""
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Graph() as g:
        loss = tensor_sum(relu(x))
    g.backward(loss)
    with pytest.raises(GraphError, match="differentiated once"):
        g.backward(loss)
    np.testing.assert_array_equal(x.grad, [1.0, 1.0])


def test_fan_in_gradient_sums_both_paths():
    # y = x + x contributes twice to the sum
    x = Tensor([1.0, 1.0], requires_grad=True)
    with Graph() as g:
        loss = tensor_sum(add(x, x))
    g.backward(loss)
    np.testing.assert_allclose(x.grad, [2.0, 2.0])


def test_fan_out_of_an_op_output_sums_both_paths():
    """A tensor made inside the graph that feeds two inputs gets the sum of
    both gradients before its own op's backward runs."""
    x = Tensor([-1.0, 0.5, 2.0], requires_grad=True)
    with Graph() as g:
        y = relu(x)
        loss = tensor_sum(add(y, y))
    g.backward(loss)
    np.testing.assert_array_equal(x.grad, 2.0 * (x.data > 0))


def test_no_grad_inputs_get_no_buffers():
    x = Tensor(np.ones((2, 2)))  # requires_grad=False
    with Graph() as g:
        loss = tensor_sum(relu(x))
    g.backward(loss)  # nothing to do, but legal
    assert x.grad is None


def test_flop_accounting_forward_and_backward():
    a = Tensor(np.ones((2, 3)), requires_grad=True)
    b = Tensor(np.ones((3, 4)), requires_grad=True)
    with Graph() as g:
        out = matmul(a, b)
        loss = tensor_sum(out)
    fwd = 2 * 2 * 3 * 4 + out.size  # matmul + sum
    assert g.flops == fwd
    g.backward(loss)
    assert g.flops == 3 * fwd  # backward traversal adds twice the forward cost
    assert g.bytes_tracked > 0


def test_bytes_tracked_counts_each_output_and_each_outside_input_once():
    """The counting rule: each op output once, each outside input once
    (here ``a``, read by two ops), each gradient formed."""
    a = Tensor(np.ones((2, 3)), requires_grad=True)  # 24 bytes
    with Graph() as g:
        loss = tensor_sum(add(relu(a), relu(a)))
    assert g.bytes_tracked == 24 + 3 * 24 + 4  # a, two relu outputs and the sum, the scalar loss
    g.backward(loss)
    assert g.bytes_tracked == 100 + 24 + 2 * 24 + 2 * 24  # d/d(add), d/d(each relu), d/da twice


def test_a_tensor_made_in_another_graph_is_a_leaf():
    """An output of graph A read in graph B is an outside input of B:
    counted once there, and its ``grad`` accumulates in B's backward."""
    x = Tensor([1.0, -2.0], requires_grad=True)
    with Graph():
        y = relu(x)
    with Graph() as g:
        loss = tensor_sum(add(y, y))
    assert g.bytes_tracked == 8 + 8 + 4  # y once, the sum, the scalar loss
    g.backward(loss)
    np.testing.assert_array_equal(y.grad, [2.0, 2.0])
    assert x.grad is None  # graph A was not differentiated
    assert g.bytes_tracked == 20 + 8 + 2 * 8


def test_the_tape_holds_no_activations():
    """An op output lives as long as its caller holds it: a frozen-kernel
    conv2d output dies once the caller rebinds to the bias sum, since no
    closure and no tape entry keeps it, and backward still forms the
    im2col formulation's input gradient bytes."""
    import weakref

    gen = np.random.default_rng(5)
    x = gen.normal(size=(40, 1, 32, 32)).astype(np.float32)
    k = gen.normal(size=(8, 1, 3, 3)).astype(np.float32)
    g = gen.normal(size=(40, 8, 15, 15)).astype(np.float32)
    tx = Tensor(x, requires_grad=True)
    with Graph() as graph:
        h = conv2d(tx, Tensor(k), stride=2)
        conv_out = weakref.ref(h.data)
        h = add_channel_bias(h, Tensor(np.zeros(8)))
        assert conv_out() is None
        loss = matmul(reshape(h, (1, h.size)), Tensor(g.reshape(-1, 1)))  # d loss / d h == g exactly
    graph.backward(loss)
    _out, _gk, ref_gx = im2col_conv2d_f32(x, k, 2, g)
    assert tx.grad.tobytes() == (np.zeros_like(x) + ref_gx).tobytes()


def weighted_sum(a, b, upstream):
    """A custom op, a + 2b, made through record_op from float64 data; its
    backward_fn appends each gradient it receives to ``upstream``."""

    def bwd(g):
        upstream.append(g)
        return (g if a.requires_grad else None, 2.0 * g if b.requires_grad else None)

    return record_op(a.data.astype(np.float64) + 2.0 * b.data, (a, b), bwd, flops=2 * a.size)


@pytest.mark.parametrize("a_grad", [False, True])
@pytest.mark.parametrize("b_grad", [False, True])
def test_custom_op_output_is_float32_and_requires_grad_when_an_input_does(a_grad, b_grad):
    a = Tensor([1.0, 2.0], requires_grad=a_grad)
    b = Tensor([0.25, -1.0], requires_grad=b_grad)
    out = weighted_sum(a, b, [])
    assert out.data.dtype == np.float32
    np.testing.assert_array_equal(out.data, [1.5, 0.0])
    assert out.requires_grad == (a_grad or b_grad)
    assert out.grad is None


def test_custom_op_outside_a_graph_records_nothing():
    a = Tensor([1.0, 2.0], requires_grad=True)
    upstream = []
    out = weighted_sum(a, Tensor([0.0, 0.0]), upstream)  # no graph open
    with Graph() as g:
        loss = tensor_sum(out)
    g.backward(loss)  # out is a leaf of this graph: its op was never recorded
    np.testing.assert_array_equal(out.grad, [1.0, 1.0])
    assert a.grad is None and upstream == []


def test_custom_op_backward_gets_the_upstream_gradient():
    a = Tensor([[1.0, 2.0]], requires_grad=True)
    b = Tensor([[3.0, 4.0]], requires_grad=True)
    w = Tensor([[0.5], [-3.0]])
    upstream = []
    with Graph() as g:
        loss = tensor_sum(matmul(weighted_sum(a, b, upstream), w))
    g.backward(loss)
    (grad,) = upstream
    np.testing.assert_array_equal(grad, [[0.5, -3.0]])  # d(loss)/d(out) = w^T
    np.testing.assert_array_equal(a.grad, [[0.5, -3.0]])
    np.testing.assert_array_equal(b.grad, [[1.0, -6.0]])


def test_custom_op_backward_is_never_called_when_no_input_requires_grad():
    """The invariant that lets one-input ops skip checking their input's flag."""
    w = Tensor([[0.5], [-3.0]], requires_grad=True)
    upstream = []
    with Graph() as g:
        out = weighted_sum(Tensor([[1.0, 2.0]]), Tensor([[3.0, 4.0]]), upstream)
        loss = tensor_sum(matmul(out, w))
    g.backward(loss)
    assert upstream == []
    np.testing.assert_array_equal(w.grad, [[7.0], [10.0]])


def wrt_ops():
    """An op per weight kind, each with an input and a weight of fitting shape."""
    gen = np.random.default_rng(11)
    x4 = gen.normal(size=(3, 2, 7, 7)).astype(np.float32)
    x2 = gen.normal(size=(3, 5)).astype(np.float32)
    return {
        "conv2d": (lambda x, w: conv2d(x, w, stride=2), x4, gen.normal(size=(4, 2, 3, 3))),
        "add_channel_bias": (add_channel_bias, x4, gen.normal(size=2)),
        "add_row_bias": (add_row_bias, x2, gen.normal(size=5)),
        "matmul": (matmul, x2, gen.normal(size=(5, 4))),
        "matmul-weight-first": (lambda x, w: matmul(w, x), x2, gen.normal(size=(4, 3))),
        "add": (add, x2, gen.normal(size=(3, 5))),
    }


@pytest.mark.parametrize("op_name", sorted(wrt_ops()))
def test_a_wrt_graph_forms_only_the_input_gradient(op_name):
    """In ``Graph(wrt=x)`` a trainable weight keeps its flag and gets no
    gradient, and the graph forms what it forms with the weight's flag
    cleared by hand: the same ``x.grad`` bytes and ``bytes_tracked``."""
    op, x_data, w_data = wrt_ops()[op_name]

    def run(w_grad, wrt):
        x, w = Tensor(x_data, requires_grad=True), Tensor(w_data, requires_grad=w_grad)
        with Graph(wrt=x if wrt else None) as g:
            loss = tensor_sum(relu(op(x, w)))
        g.backward(loss)
        assert w.requires_grad == w_grad and w.grad is None
        return x.grad.tobytes(), g.bytes_tracked

    assert run(True, wrt=True) == run(False, wrt=False)


def test_a_wrt_graph_conv2d_keeps_no_patches():
    """With a trainable kernel, ``conv2d`` in ``Graph(wrt=x)`` holds only its
    output after the forward, not the patch matrix that ``Graph()`` keeps for
    the kernel gradient."""
    import tracemalloc

    gen = np.random.default_rng(12)
    x = Tensor(gen.uniform(size=(64, 1, 32, 32)), requires_grad=True)
    k = Tensor(gen.normal(size=(2, 1, 3, 3)), requires_grad=True)
    patches = 64 * 30 * 30 * 9 * 4

    def held(wrt):
        conv2d(x, k)  # warm the cached gather index
        tracemalloc.start()
        try:
            with Graph(wrt=wrt):
                out = conv2d(x, k)
                return tracemalloc.get_traced_memory()[0] - out.data.nbytes
        finally:
            tracemalloc.stop()

    assert held(None) >= patches
    assert held(x) < patches // 8


def test_a_wrt_graph_drops_the_gradients_a_custom_op_forms_for_other_leaves():
    """A custom op that reads ``.requires_grad`` forms ``b``'s gradient in a
    ``wrt`` graph too; backward fills only ``wrt.grad``."""
    a = Tensor([1.0, 2.0], requires_grad=True)
    b = Tensor([0.25, -1.0], requires_grad=True)
    upstream = []
    with Graph(wrt=a) as g:
        h = relu(b)  # made from another leaf only: needs no gradient here
        loss = tensor_sum(weighted_sum(a, b, upstream))
    assert not h.requires_grad and loss.requires_grad
    g.backward(loss)
    np.testing.assert_array_equal(a.grad, [1.0, 1.0])
    assert b.grad is None and b.requires_grad and len(upstream) == 1


@pytest.mark.parametrize("op_name", sorted(ALL_CHECKS))
def test_gradcheck_against_independent_oracle(op_name):
    """Three instances per op here; the acceptance suite runs the full ten."""
    check = ALL_CHECKS[op_name]
    gen = np.random.Generator(np.random.PCG64(99))
    for _ in range(3):
        assert check(gen) < 1e-3
