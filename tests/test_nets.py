"""Conv net spec validation, init distribution, forward correctness."""

import numpy as np
import pytest

from promptlab import ConfigError, ConvNetSpec, ShapeError, Tensor, TrainHyper, forward, init_params, train_standard

from conftest import make_dataset
from gradcheck import ref_conv2d


def test_spec_validation():
    with pytest.raises(ConfigError):
        ConvNetSpec((0, 8, 8), ((2, 3, 1),), 4, 3)
    with pytest.raises(ConfigError):
        ConvNetSpec((1, 8, 8), ((2, 3, 1),), 4, 1)  # n_classes < 2
    with pytest.raises(ConfigError):
        ConvNetSpec((1, 8, 8), (), 4, 3)  # no conv blocks
    with pytest.raises(ConfigError):
        ConvNetSpec((1, 8, 8), ((2, 9, 1),), 4, 3)  # kernel too large
    with pytest.raises(ConfigError):
        # second block receives a 3x3 activation, kernel 4 cannot fit
        ConvNetSpec((1, 8, 8), ((2, 6, 1), (2, 4, 1)), 4, 3)


def test_feature_shape_walks_conv_arithmetic(tiny_spec):
    # (12 - 3)//2 + 1 = 5 after block one, (5 - 3)//1 + 1 = 3 after block two
    assert tiny_spec.feature_shape() == (8, 3, 3)
    assert tiny_spec.flat_features() == 72


def test_init_is_seed_deterministic(tiny_spec):
    a = init_params(tiny_spec, seed=123)
    b = init_params(tiny_spec, seed=123)
    c = init_params(tiny_spec, seed=124)
    assert a.byte_signature() == b.byte_signature()
    assert a.byte_signature() != c.byte_signature()


def test_init_bounds_and_zero_biases(tiny_spec):
    params = init_params(tiny_spec, seed=5)
    for name, t in params.named_tensors():
        if name.endswith(".bias"):
            assert not t.data.any()
            continue
        shape = t.data.shape
        fan_in = shape[1] * shape[2] * shape[3] if len(shape) == 4 else shape[0]
        bound = np.sqrt(6.0 / fan_in)
        assert np.abs(t.data).max() <= bound
        assert t.requires_grad


def test_forward_validates_batch_shape(tiny_params):
    with pytest.raises(ShapeError):
        forward(tiny_params, Tensor(np.zeros((2, 1, 10, 10), dtype=np.float32)))
    with pytest.raises(ShapeError):
        forward(tiny_params, Tensor(np.zeros((1, 12, 12), dtype=np.float32)))


def test_forward_matches_independent_reference(tiny_params, rng):
    """Recompute the whole net with loops/numpy only."""
    x = rng.uniform(0.0, 1.0, size=(3, 1, 12, 12)).astype(np.float32)
    got = forward(tiny_params, Tensor(x)).data

    h = x.astype(np.float64)
    spec = tiny_params.spec
    for i, (_f, _k, s) in enumerate(spec.conv_blocks):
        w = tiny_params.tensors[f"conv{i}.weight"].data.astype(np.float64)
        b = tiny_params.tensors[f"conv{i}.bias"].data.astype(np.float64)
        h = ref_conv2d(h, w, s) + b[None, :, None, None]
        h = np.maximum(h, 0.0)
    h = h.reshape(3, -1)
    h = np.maximum(
        h @ tiny_params.tensors["hidden.weight"].data + tiny_params.tensors["hidden.bias"].data,
        0.0,
    )
    want = h @ tiny_params.tensors["output.weight"].data + tiny_params.tensors["output.bias"].data
    np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-4)


def test_freeze_clears_grads_and_flags(tiny_params):
    t = tiny_params.tensors["output.bias"]
    t.grad = np.ones_like(t.data)
    tiny_params.freeze()
    assert tiny_params.frozen
    assert all(not p.requires_grad and p.grad is None for _, p in tiny_params.named_tensors())


def test_copy_is_deep_and_can_thaw(tiny_spec, tiny_params):
    tiny_params.freeze()
    dup = tiny_params.copy(frozen=False)
    assert not dup.frozen
    assert all(t.requires_grad for _, t in dup.named_tensors())
    assert dup.byte_signature() == tiny_params.byte_signature()
    dup.tensors["output.bias"].data += 1.0
    assert dup.byte_signature() != tiny_params.byte_signature()
    before = dup.byte_signature()
    train_standard(dup, make_dataset(tiny_spec.n_classes, 2, tiny_spec.input_size), TrainHyper(1, 4, 0.1, 0.9, 0))
    assert dup.byte_signature() != before  # the thawed copy trains


def test_frozen_reads_the_flags_and_copy_keeps_them(tiny_params):
    """``frozen`` is read from the tensors' flags, and ``copy()`` keeps each flag."""
    tiny_params.freeze()
    tiny_params.tensors["conv0.weight"].requires_grad = True
    assert not tiny_params.frozen
    flags = {name: t.requires_grad for name, t in tiny_params.named_tensors()}
    dup = tiny_params.copy()
    assert {name: t.requires_grad for name, t in dup.named_tensors()} == flags
    assert not dup.frozen
    assert dup.copy(frozen=True).frozen


def test_byte_signature_orders_by_name(tiny_spec):
    a = init_params(tiny_spec, seed=9)
    sig = a.byte_signature()
    manual = b"".join(t.data.tobytes() for _, t in sorted(a.tensors.items()))
    assert sig == manual
