"""Where NaN/Inf is caught: the logits, each parameter gradient before an
optimizer step, the input gradient before an attack step, an epoch's loss
before it is recorded, and the CLI's report of all of these."""

import json

import numpy as np
import pytest

from promptlab import (
    AttackConfig,
    ConvNetSpec,
    Graph,
    MetricsRecord,
    NumericsError,
    SgdOptimizer,
    SourceClassifier,
    Tensor,
    fgsm,
    forward,
    init_params,
    sgd_step,
    softmax_cross_entropy,
)
from promptlab.cli import main
from test_harness import small_config


@pytest.mark.parametrize(
    "name, value",
    [("conv0.weight", np.inf), ("output.bias", -np.inf), ("conv0.weight", 3e38), ("hidden.weight", 3e38)],
    ids=["inf-kernel", "inf-bias", "conv2d-overflow", "matmul-overflow"],
)
def test_overflow_inside_the_net_is_caught_at_the_logits(tiny_params, name, value):
    tiny_params.tensors[name].data[...] = value
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericsError, match="logits"):
        forward(tiny_params, Tensor(np.ones((2, 1, 12, 12), np.float32)))


def _backward_overflow_net():
    """Forward finite, backward not: the hidden unit is 1e-30, so the
    logits are 1e-30 * ±3e38 = ±3e8, but d loss / d hidden sums two
    terms of 3e38, which overflows, and the Inf flows down to the conv."""
    spec = ConvNetSpec(input_size=(1, 4, 4), conv_blocks=((1, 4, 1),), hidden_width=1, n_classes=2)
    params = init_params(spec, seed=0)
    params.tensors["conv0.weight"].data[...] = 0.0
    params.tensors["conv0.bias"].data[...] = 1.0
    params.tensors["hidden.weight"].data[...] = 1e-30
    params.tensors["output.weight"].data[...] = [[-3e38, 3e38]]
    x = np.full((1, 1, 4, 4), 0.5, np.float32)
    y = np.array([0])
    return params, x, y


def test_backward_overflow_is_caught_before_the_optimizer_step():
    params, x, y = _backward_overflow_net()
    opt = SgdOptimizer(learning_rate=0.1, momentum=0.9)
    with Graph() as g:
        logits = forward(params, Tensor(x))
        loss = softmax_cross_entropy(logits, y)
    assert np.isfinite(logits.data).all() and np.isfinite(loss.data).all()
    with np.errstate(over="ignore", invalid="ignore"):
        g.backward(loss)
    before = params.byte_signature()
    with pytest.raises(NumericsError, match=r"gradient of 'conv0\.weight'"):
        sgd_step(params, opt)
    assert params.byte_signature() == before
    assert opt.velocities == {}


def test_optimizer_checks_every_gradient_before_moving_any():
    good = Tensor([1.0, 2.0], requires_grad=True)
    bad = Tensor([3.0], requires_grad=True)
    opt = SgdOptimizer(learning_rate=0.5, momentum=0.9)
    good.grad = np.ones(2, np.float32)
    bad.grad = np.ones(1, np.float32)
    opt.step([("good", good), ("bad", bad)])
    velocities = {k: v.copy() for k, v in opt.velocities.items()}
    values = (good.data.copy(), bad.data.copy())
    good.grad = np.ones(2, np.float32)
    bad.grad = np.array([np.nan], np.float32)
    with pytest.raises(NumericsError, match="gradient of 'bad'"):
        opt.step([("good", good), ("bad", bad)])
    assert good.data.tobytes() == values[0].tobytes() and bad.data.tobytes() == values[1].tobytes()
    assert {k: v.tobytes() for k, v in opt.velocities.items()} == {k: v.tobytes() for k, v in velocities.items()}


def test_backward_overflow_is_caught_before_the_attack_step():
    params, x, y = _backward_overflow_net()
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericsError, match="input gradient"):
        fgsm(SourceClassifier(params), Tensor(x), y, AttackConfig(0.05))


def test_infinite_loss_from_finite_logits_is_not_recorded():
    # a logit spread past the float32 range: each logit is finite, the loss is not
    with Graph(), np.errstate(over="ignore"):
        loss = softmax_cross_entropy(Tensor([[3e38, -3e38]]), np.array([1]))
    assert np.isinf(loss.data)
    with pytest.raises(NumericsError, match="epoch 3 loss"):
        MetricsRecord(3, loss.item(), 0.5, 0.0, 0.5, 1, 1)


def test_overflowing_source_run_fails_with_one_numerics_line(tmp_path, capsys):
    out = tmp_path / "out"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(small_config(out=out, source__hyper__learning_rate=1e38)))
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["eval", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error[numerics] NaN or Inf in ") and err.count("\n") == 1
    assert not (out / "source.ckpt").exists()
    assert not (out / "prompt.ckpt").exists()
