"""Border-frame prompt: mask geometry, composition, gradient gating."""

import numpy as np
import pytest

from promptlab import ConfigError, Graph, ShapeError, Tensor, VisualPrompt, apply_prompt, tensor_sum


def test_mask_is_frame_only():
    p = VisualPrompt((2, 8, 10), pad_width=2)
    assert p.mask.shape == (2, 8, 10)
    assert p.mask[:, :2, :].all() and p.mask[:, -2:, :].all()
    assert p.mask[:, :, :2].all() and p.mask[:, :, -2:].all()
    assert not p.mask[:, 2:-2, 2:-2].any()
    assert p.interior_size == (2, 4, 6)
    assert p.n_params == int(p.mask.sum()) == 2 * (8 * 10 - 4 * 6)


def test_constructor_validation():
    with pytest.raises(ConfigError):
        VisualPrompt((1, 8, 8), pad_width=0)
    with pytest.raises(ConfigError):
        VisualPrompt((1, 8, 8), pad_width=4)  # no interior left
    with pytest.raises(ShapeError):
        VisualPrompt((1, 8, 8), 2, Tensor(np.zeros((1, 6, 6), dtype=np.float32)))


def test_project_clips_and_zeroes_interior():
    params = Tensor(np.full((1, 6, 6), 2.0, dtype=np.float32), requires_grad=True)
    p = VisualPrompt((1, 6, 6), 1, params)  # constructor projects
    assert p.params.data.max() <= 1.0
    assert not p.params.data[0, 1:-1, 1:-1].any()


def test_apply_prompt_interior_passes_through_exactly(rng):
    p = VisualPrompt((1, 8, 8), 2)
    p.params.data[:] = rng.uniform(0.0, 1.0, size=(1, 8, 8)).astype(np.float32)
    p.project()
    x = rng.uniform(0.0, 1.0, size=(3, 1, 4, 4)).astype(np.float32)
    out = apply_prompt(p, Tensor(x))
    assert out.data.shape == (3, 1, 8, 8)
    # interior is the untouched downstream batch, bit for bit
    np.testing.assert_array_equal(out.data[:, :, 2:-2, 2:-2], x)
    # border is the clamped frame, identical across the batch
    border = np.clip(p.params.data, 0.0, 1.0) * p.mask
    for i in range(3):
        np.testing.assert_array_equal(out.data[i][p.mask], border[p.mask])


def test_apply_prompt_validates_batch():
    p = VisualPrompt((1, 8, 8), 2)
    with pytest.raises(ShapeError):
        apply_prompt(p, Tensor(np.zeros((3, 1, 5, 5), dtype=np.float32)))
    with pytest.raises(ShapeError):
        apply_prompt(p, Tensor(np.zeros((1, 4, 4), dtype=np.float32)))


def test_gradient_sums_over_batch_and_gates_saturation():
    p = VisualPrompt((1, 6, 6), 1)
    p.params.data[p.mask] = 0.5
    # push two frame pixels onto the gate edges: closed interval keeps them
    p.params.data[0, 0, 0] = 0.0
    p.params.data[0, 0, 1] = 1.0
    x = Tensor(np.zeros((4, 1, 4, 4), dtype=np.float32), requires_grad=True)
    with Graph() as g:
        loss = tensor_sum(apply_prompt(p, x))
    g.backward(loss)
    grad = p.params.grad
    assert grad is not None
    # every frame pixel saw all 4 batch members; interior got nothing
    assert (grad[p.mask] == 4.0).all()
    assert not grad[~p.mask].any()
    np.testing.assert_array_equal(x.grad, np.ones_like(x.data))


def test_gradient_zero_outside_gate():
    params = Tensor(np.zeros((1, 6, 6), dtype=np.float32), requires_grad=True)
    p = VisualPrompt((1, 6, 6), 1, params)
    p.params.data[0, 0, 0] = 1.5  # escape the projection by writing directly
    x = Tensor(np.zeros((2, 1, 4, 4), dtype=np.float32))
    with Graph() as g:
        loss = tensor_sum(apply_prompt(p, x))
    g.backward(loss)
    assert p.params.grad[0, 0, 0] == 0.0
    assert p.params.grad[0, 0, 1] == 2.0


