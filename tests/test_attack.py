"""Sign attack and the restricted adversarial-accuracy protocol."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gradcheck import masked_nextafter_step
from promptlab import (
    AttackConfig,
    ConfigError,
    Dataset,
    EvalReport,
    GraphError,
    ShapeError,
    Tensor,
    adversarial_accuracies,
    adversarial_accuracy,
    attack,
    fgsm,
    standard_accuracy,
    tensor,
)


class LinearPipeline:
    """logits = flat(x) @ W; gradient of the loss wrt x has a closed form."""

    def __init__(self, w):
        self.w = Tensor(np.asarray(w, dtype=np.float32))

    def logits(self, x):
        from promptlab import matmul, reshape

        n = x.data.shape[0]
        return matmul(reshape(x, (n, self.w.data.shape[0])), self.w)


class FixedPipeline:
    """Returns scripted logits: one row per sample, in dataset order.

    The first call reads from ``clean``; every later call reads from
    ``attacked``.  A zero-weight linear path keeps the pipeline
    differentiable (the attack sees a zero gradient and leaves inputs
    alone); the scripted tables do the flipping.  Enough to script the
    accuracy protocols exactly.
    """

    def __init__(self, clean, attacked):
        self.clean = np.asarray(clean, dtype=np.float32)
        self.attacked = np.asarray(attacked, dtype=np.float32)
        self.calls = 0

    def logits(self, x):
        from promptlab import add, matmul, reshape

        n = x.data.shape[0]
        feat = x.size // n
        path = matmul(reshape(x, (n, feat)), Tensor(np.zeros((feat, 2), dtype=np.float32)))
        # identify samples by their first-pixel payload
        ids = np.rint(x.data.reshape(n, -1)[:, 0] * 100).astype(int)
        table = self.clean if self.calls == 0 else self.attacked
        self.calls += 1
        return add(path, Tensor(table[ids]))


def _dataset(n, k=2):
    # first pixel encodes the sample id so scripted pipelines can look it up
    images = np.zeros((n, 1, 2, 2), dtype=np.float32)
    images[:, 0, 0, 0] = np.arange(n) / 100.0
    labels = np.zeros(n, dtype=np.int64)
    return Dataset(images=images, labels=labels, n_classes=k)


def test_attack_config_rejects_negative_epsilon():
    with pytest.raises(ConfigError):
        AttackConfig(-0.1)


@pytest.mark.parametrize(
    "epsilon, message",
    [
        (float("inf"), "epsilon must be finite, got inf"),
        (float("nan"), "epsilon must be >= 0, got nan"),
        (float("-inf"), "epsilon must be >= 0, got -inf"),
    ],
)
def test_attack_config_rejects_a_non_finite_epsilon(epsilon, message):
    with pytest.raises(ConfigError, match=f"^{message}$"):
        AttackConfig(epsilon)


@pytest.mark.parametrize("epsilon", [True, False, np.bool_(True)])
def test_attack_config_rejects_a_bool_epsilon(epsilon):
    """``True`` is no budget, though it compares as 1.0."""
    with pytest.raises(ConfigError, match="^epsilon must be a number, not a bool"):
        AttackConfig(epsilon)


def test_eval_report_validates_counts():
    with pytest.raises(ConfigError):
        EvalReport(0.5, 0.5, 10, 5, 6)  # more survivors than correct
    with pytest.raises(ConfigError):
        EvalReport(1.5, 0.5, 10, 5, 3)


def test_fgsm_epsilon_zero_is_identity(rng):
    x = Tensor(rng.uniform(0, 1, size=(4, 1, 3, 3)).astype(np.float32))
    adv = fgsm(LinearPipeline(rng.normal(size=(9, 2))), x, np.zeros(4, dtype=np.int64), AttackConfig(0.0))
    np.testing.assert_array_equal(adv.data, x.data)
    assert adv.data is not x.data


def test_fgsm_ball_and_range_hold_exactly(rng):
    w = rng.normal(size=(9, 3))
    pipe = LinearPipeline(w)
    eps = 0.07
    x = Tensor(rng.uniform(0, 1, size=(50, 1, 3, 3)).astype(np.float32))
    y = rng.integers(0, 3, size=50)
    adv = fgsm(pipe, x, y, AttackConfig(eps))
    assert adv.data.dtype == np.float32
    delta = adv.data - x.data
    assert np.abs(delta).max() <= np.float32(eps)
    assert adv.data.min() >= 0.0 and adv.data.max() <= 1.0
    # original batch is untouched
    assert x.data.min() >= 0.0


EPSILONS = (1e-30, 0.02, 0.05, 0.1, 0.25, 1.0)
OUT_OF_BALL = "an input pixel lies more than epsilon=0.05 outside \\[0, 1\\]"


def _outcome(step, x, direction, eps):
    """The step's output bytes and dtype, or the type of what it raised."""
    try:
        adv = step(x, direction, eps)
    except GraphError:
        return GraphError
    return adv.tobytes(), adv.dtype


@st.composite
def step_inputs(draw, low=0.0, high=1.0):
    """(x, direction, ε) with x drawn from [low, high] and from the values
    where rounding decides: 0, 1, subnormals, and one ulp either side of
    ε and 1 − ε."""
    eps = np.float32(draw(st.sampled_from(EPSILONS)))
    f32 = np.finfo(np.float32)
    near = [eps, 1 - eps]
    edges = [0.0, -0.0, 1.0, f32.smallest_subnormal, 3 * f32.smallest_subnormal, f32.tiny]
    edges += [np.nextafter(v, d) for v in near for d in (np.float32(0), np.float32(1))] + near
    pixel = st.one_of(st.sampled_from(edges), st.floats(low, high, width=32))
    n = draw(st.integers(1, 48))
    x = np.array(draw(st.lists(pixel, min_size=n, max_size=n)), dtype=np.float32)
    signs = draw(st.lists(st.sampled_from((-1.0, 0.0, 1.0)), min_size=n, max_size=n))
    return x, np.array(signs, dtype=np.float32), eps


@given(step_inputs())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_ball_step_matches_masked_nextafter_bytes(case):
    x, direction, eps = case
    got = _outcome(attack._step_in_ball, x, direction, eps)
    assert got == _outcome(masked_nextafter_step, x, direction, eps)
    assert got[1] == np.float32  # inputs in [0, 1] never raise


@given(step_inputs(low=-2.0, high=3.0))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_ball_step_raises_where_masked_nextafter_raises(case):
    x, direction, eps = case
    assert _outcome(attack._step_in_ball, x, direction, eps) == _outcome(masked_nextafter_step, x, direction, eps)


@pytest.mark.parametrize("value", [-0.2, -0.0500001, 1.06, 1.3])
@pytest.mark.parametrize("sign", [-1.0, 0.0, 1.0])
def test_ball_step_names_an_input_outside_the_ball(value, sign):
    x = np.array([0.5, value], dtype=np.float32)
    direction = np.array([1.0, sign], dtype=np.float32)
    with pytest.raises(GraphError, match=OUT_OF_BALL):
        attack._step_in_ball(x, direction, np.float32(0.05))
    with pytest.raises(GraphError):
        masked_nextafter_step(x, direction, np.float32(0.05))


def test_fgsm_rejects_an_input_outside_the_ball(rng):
    x = rng.uniform(0, 1, size=(3, 1, 3, 3)).astype(np.float32)
    x[1, 0, 2, 2] = 1.3
    with pytest.raises(GraphError, match=OUT_OF_BALL):
        fgsm(LinearPipeline(rng.normal(size=(9, 2))), Tensor(x), np.zeros(3, dtype=np.int64), AttackConfig(0.05))


@pytest.mark.parametrize("sign", [-1.0, 0.0, 1.0])
def test_ball_step_rejects_an_input_a_few_ulps_past_one_plus_epsilon(sign):
    """The masked-nextafter reference brings such a pixel within ε by
    stepping it above 1, so this case is not in the shared parametrization
    of :func:`test_ball_step_names_an_input_outside_the_ball`."""
    x = np.array([0.5, 1.0500001], dtype=np.float32)
    direction = np.array([-1.0, sign], dtype=np.float32)
    assert masked_nextafter_step(x, direction, np.float32(0.05))[1] > 1
    with pytest.raises(GraphError, match=OUT_OF_BALL):
        attack._step_in_ball(x, direction, np.float32(0.05))
    # logits [s, -s] with s = x·w[:, 0]: under label 0 the gradient's sign
    # on each pixel is that of -w[j, 0]
    pipe = LinearPipeline([[1.0, -1.0], [-sign, sign]])
    with pytest.raises(GraphError, match=OUT_OF_BALL):
        fgsm(pipe, Tensor(x.reshape(1, 1, 1, 2)), np.zeros(1, dtype=np.int64), AttackConfig(0.05))


def test_fgsm_steps_along_loss_gradient_sign(rng):
    # two classes, logits = [s, -s] with s = sum(x): for label 0 the loss
    # decreases in s, so the attack must push every pixel down (sign -1),
    # except pixels already at the floor.
    w = np.stack([np.ones(9), -np.ones(9)], axis=1)
    pipe = LinearPipeline(w)
    x_vals = rng.uniform(0.2, 0.8, size=(5, 1, 3, 3)).astype(np.float32)
    adv = fgsm(pipe, Tensor(x_vals), np.zeros(5, dtype=np.int64), AttackConfig(0.05))
    np.testing.assert_allclose(adv.data, x_vals - np.float32(0.05), rtol=0, atol=1e-7)


def test_fgsm_increases_loss_on_linear_model(rng):
    from promptlab import Graph, softmax_cross_entropy

    w = rng.normal(size=(9, 4))
    pipe = LinearPipeline(w)
    x = Tensor(rng.uniform(0.1, 0.9, size=(40, 1, 3, 3)).astype(np.float32))
    y = rng.integers(0, 4, size=40)

    def per_sample_loss(batch):
        out = []
        for i in range(batch.shape[0]):
            with Graph():
                loss = softmax_cross_entropy(pipe.logits(Tensor(batch[i : i + 1])), y[i : i + 1])
            out.append(loss.item())
        return np.asarray(out)

    adv = fgsm(pipe, x, y, AttackConfig(0.05))
    before = per_sample_loss(x.data)
    after = per_sample_loss(adv.data)
    # a linear model under an interior step can only gain loss
    assert (after >= before - 1e-6).all()


def test_standard_accuracy_counts_argmax_matches():
    ds = _dataset(4)
    clean = np.array([[1, 0], [0, 1], [1, 0], [0, 1]], dtype=np.float32)
    pipe = FixedPipeline(clean, clean)
    assert standard_accuracy(pipe, ds) == 0.5
    with pytest.raises(ShapeError):
        standard_accuracy(pipe, Dataset(np.zeros((0, 1, 2, 2), np.float32), np.zeros(0, np.int64), 2))


def test_restricted_protocol_scores_survivors_only():
    """11 samples, 8 initially correct, the attack flips 3 -> 5/8."""
    n = 11
    ds = _dataset(n)
    clean = np.zeros((n, 2), dtype=np.float32)
    clean[:8, 0] = 1.0  # correct on label 0
    clean[8:, 1] = 1.0  # wrong
    attacked = clean.copy()
    attacked[:3] = [0.0, 1.0]  # three of the correct ones flip
    pipe = FixedPipeline(clean, attacked)
    report = adversarial_accuracy(pipe, ds, AttackConfig(0.01))
    assert report.n_total == 11
    assert report.n_correct == 8
    assert report.n_survived_attack == 5
    assert report.adversarial_accuracy == 0.625
    assert report.standard_accuracy == 8 / 11


def test_empty_correct_set_scores_zero():
    n = 4
    ds = _dataset(n)
    clean = np.tile(np.array([[0.0, 1.0]], dtype=np.float32), (n, 1))  # all wrong
    pipe = FixedPipeline(clean, clean)
    report = adversarial_accuracy(pipe, ds, AttackConfig(0.05))
    assert report.adversarial_accuracy == 0.0
    assert report.n_correct == 0 and report.n_survived_attack == 0


def test_epsilon_grid_shares_one_clean_pass(monkeypatch):
    """One clean pass scores every budget; the ε = 0 row needs no attack
    pass and reads 1.0 even where an attacked table would flip samples."""
    n = 6
    ds = _dataset(n)
    clean = np.zeros((n, 2), dtype=np.float32)
    clean[:4, 0] = 1.0  # 4 correct
    clean[4:, 1] = 1.0
    attacked = clean.copy()
    attacked[:1] = [0.0, 1.0]  # the attack flips one of them
    pipe = FixedPipeline(clean, attacked)
    passes = []
    predict = attack._predict
    monkeypatch.setattr(attack, "_predict", lambda p, images: passes.append(len(images)) or predict(p, images))
    reports = adversarial_accuracies(pipe, ds, [AttackConfig(e) for e in (0.0, 0.05, 0.1)])
    assert passes == [n]
    assert [r.adversarial_accuracy for r in reports] == [1.0, 0.75, 0.75]
    assert [r.n_survived_attack for r in reports] == [4, 3, 3]
    assert all(r.standard_accuracy == 4 / 6 and r.n_correct == 4 for r in reports)
    assert pipe.calls == 1 + 1 + 2  # clean; one gradient pass for the batch; one scoring pass per attacked budget


def test_epsilon_grid_takes_one_gradient_per_batch(rng, monkeypatch):
    """Three budgets over three batches of correct samples: three backward
    passes, and each budget scores what a separate fgsm run would."""
    from promptlab import Graph

    pipe = LinearPipeline(rng.normal(size=(9, 3)))
    images = rng.uniform(0, 1, size=(60, 1, 3, 3)).astype(np.float32)
    labels = pipe.logits(Tensor(images)).data.argmax(axis=1)
    labels[::4] = (labels[::4] + 1) % 3  # a quarter start out wrong
    ds = Dataset(images=images, labels=labels, n_classes=3)
    budgets = [AttackConfig(e) for e in (0.02, 0.05, 0.1)]
    monkeypatch.setattr(tensor, "_EVAL_BATCH", 16)
    backward = Graph.backward
    passes = []
    monkeypatch.setattr(Graph, "backward", lambda g, loss: passes.append(1) or backward(g, loss))
    reports = adversarial_accuracies(pipe, ds, budgets)
    n_correct = reports[0].n_correct
    assert n_correct == 45
    assert len(passes) == 3  # ceil(45 / 16)
    monkeypatch.setattr(Graph, "backward", backward)
    assert reports == [adversarial_accuracy(pipe, ds, cfg) for cfg in budgets]
    mask = pipe.logits(Tensor(images)).data.argmax(axis=1) == labels
    for cfg, report in zip(budgets, reports):
        survived = 0
        for start in range(0, n_correct, 16):
            xb, yb = images[mask][start : start + 16], labels[mask][start : start + 16]
            survived += int((pipe.logits(fgsm(pipe, Tensor(xb), yb, cfg)).data.argmax(axis=1) == yb).sum())
        assert report.n_survived_attack == survived
    assert len({r.n_survived_attack for r in reports}) > 1  # the budgets do differ


def _frozen_default_source(n):
    """A frozen source of the default spec and a batch of ``n`` examples."""
    from promptlab import ExperimentConfig, SourceClassifier, default_config, init_params

    spec = ExperimentConfig.from_dict(default_config()).source_spec
    params = init_params(spec, seed=0)
    params.freeze()
    gen = np.random.default_rng(0)
    x = gen.uniform(0.0, 1.0, size=(n, *spec.input_size)).astype(np.float32)
    return SourceClassifier(params), x, gen.integers(0, spec.n_classes, size=n)


def traced_peak(run):
    """The tracemalloc peak of a second call of ``run``; the first warms the cached gather indices."""
    import tracemalloc

    run()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_gradient_pass_holds_at_most_twice_a_forward_pass(monkeypatch):
    """Backward keeps only what it reads: no patch matrix for a frozen
    kernel, the column gradient a slice at a time, each tape entry freed
    once its gradients are formed, the batch wrapped, not copied."""
    monkeypatch.setattr(tensor, "_EVAL_BATCH", 256)  # the clean pass in one batch, like the gradient pass
    clf, x, y = _frozen_default_source(256)
    forward = traced_peak(lambda: attack._predict(clf, x))
    gradient = traced_peak(lambda: attack._gradient_sign(clf, x, y))
    assert gradient <= 2 * forward, (gradient, forward)


def test_forward_and_gradient_passes_keep_only_what_backward_reads(monkeypatch):
    """At batch 256 on the default frozen source, a forward pass gathers
    patches a slice at a time and keeps no activation its caller dropped,
    so it peaks below the first layer's patch matrix plus its output; the
    gradient pass adds only the masks and gradients backward reads."""
    monkeypatch.setattr(tensor, "_EVAL_BATCH", 256)  # the clean pass in one batch, like the gradient pass
    clf, x, y = _frozen_default_source(256)
    forward = traced_peak(lambda: attack._predict(clf, x))
    gradient = traced_peak(lambda: attack._gradient_sign(clf, x, y))
    spec = clf.params.spec
    c, h, w = spec.input_size
    f, k, s = spec.conv_blocks[0]
    positions = ((h - k) // s + 1) * ((w - k) // s + 1)
    patches, output = 256 * positions * c * k * k * 4, 256 * f * positions * 4
    assert forward < patches + output, (forward, patches + output)
    assert gradient <= 1.25 * forward, (gradient, forward)


def test_scoring_memory_is_bounded_by_the_batch():
    """The restricted protocol holds one batch of 128 examples at a time:
    it gathers each batch of correct examples by index, never a copy of
    the whole correct subset, so scoring 512 examples, all correct,
    peaks about where scoring one batch does."""
    clf, x, _ = _frozen_default_source(512)
    y = attack._predict(clf, x)  # every example correct: every one is attacked
    n_classes = clf.params.spec.n_classes

    def scoring_peak(n):
        ds = Dataset(images=x[:n].copy(), labels=y[:n].copy(), n_classes=n_classes)
        return traced_peak(lambda: adversarial_accuracies(clf, ds, [AttackConfig(0.05)]))

    many, one = scoring_peak(512), scoring_peak(128)
    assert many <= 1.15 * one, (many, one)


def test_gradient_sign_leaves_its_input_unchanged():
    clf, x, y = _frozen_default_source(40)
    before = x.tobytes()
    direction = attack._gradient_sign(clf, x, y)
    assert x.tobytes() == before
    assert direction.any()


class GraphBytes:
    """A meter that keeps the ``bytes_tracked`` of each graph handed to it."""

    def __init__(self):
        self.graphs = []

    def add_graph(self, g):
        self.graphs.append(g.bytes_tracked)


@pytest.mark.parametrize("pipeline", ["source", "prompted"])
def test_fgsm_differentiates_only_the_input(pipeline):
    """With the target's ``requires_grad`` on, the attack sees the flags
    unchanged, leaves no parameter gradient, and returns the bytes and
    graph size of an attack with the flags cleared by hand: no parameter
    gradient was formed."""
    from promptlab import (
        ExperimentConfig,
        PblConfig,
        PromptedClassifier,
        SourceClassifier,
        VisualPrompt,
        default_config,
        init_params,
        rlm_init,
    )

    spec = ExperimentConfig.from_dict(default_config()).source_spec
    gen = np.random.default_rng(3)
    if pipeline == "source":
        target = init_params(spec, seed=0)
        clf, size, k = SourceClassifier(target), spec.input_size, spec.n_classes
    else:
        canvas = spec.input_size
        target = VisualPrompt(canvas, 4, Tensor(gen.uniform(-0.3, 0.3, canvas).astype(np.float32), requires_grad=True))
        source = init_params(spec, seed=0)
        source.freeze()
        pbl, k = PblConfig(2), 3
        clf, size = PromptedClassifier(source, target, rlm_init(pbl.m(spec.n_classes), k, 5), pbl), target.interior_size
    tensors = [t for _, t in target.named_tensors()]
    x = gen.uniform(0.0, 1.0, size=(32, *size)).astype(np.float32)
    y = gen.integers(0, k, size=32)
    cfg = AttackConfig(0.05)
    seen, real = [], clf.logits

    def logits(batch):
        seen.append([t.requires_grad for t in tensors])
        return real(batch)

    clf.logits = logits
    trained, cleared = GraphBytes(), GraphBytes()
    adv = fgsm(clf, Tensor(x), y, cfg, meter=trained).data
    assert seen == [[True] * len(tensors)]
    assert all(t.grad is None and t.requires_grad for t in tensors)
    for t in tensors:
        t.requires_grad = False
    by_hand = fgsm(clf, Tensor(x), y, cfg, meter=cleared).data
    assert adv.tobytes() == by_hand.tobytes()
    assert (adv != x).any()
    assert trained.graphs == cleared.graphs


def test_attacks_leave_no_gradient_on_a_trained_unfrozen_source(tiny_spec, cpus):
    """Whoever calls them, ``adversarial_accuracy`` and ``fgsm`` on a
    trained source whose parameters still require grad leave every
    parameter's ``.grad`` None and every flag set."""
    from conftest import make_dataset
    from promptlab import SourceClassifier, TrainHyper, init_params, train_standard

    cpus(1)
    ds = make_dataset(tiny_spec.n_classes, 6, tiny_spec.input_size)
    params, _ = train_standard(init_params(tiny_spec, seed=7), ds, TrainHyper(3, 12, 0.1, 0.9, 0))
    clf = SourceClassifier(params)
    assert adversarial_accuracy(clf, ds, AttackConfig(0.05)).n_correct > 0
    fgsm(clf, Tensor(ds.images), ds.labels, AttackConfig(0.05))
    assert [name for name, t in params.named_tensors() if t.grad is not None or not t.requires_grad] == []
