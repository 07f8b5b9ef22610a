"""Training loops: determinism, frozen-source discipline, and the
equivalence between temperature-1 reduction and no reduction at all."""

import multiprocessing
import os
import re
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace

import numpy as np
import pytest

import promptlab.train as train
from promptlab import (
    AttackConfig,
    ConfigError,
    ConvNetSpec,
    Dataset,
    Graph,
    GraphError,
    NumericsError,
    PblConfig,
    SourceClassifier,
    SynthSpec,
    TrainHyper,
    blas,
    generate_synthetic,
    ilm_update,
    init_params,
    prediction_frequencies,
    rlm_init,
    standard_accuracy,
    train_adversarial,
    train_prompt,
    train_standard,
)

SOURCE_SPEC = ConvNetSpec((1, 12, 12), ((6, 3, 2), (12, 3, 2)), 24, 6)


def source_data(spc=12, seed=31):
    return generate_synthetic(SynthSpec(6, spc, (1, 12, 12), "source", 0.3, seed=seed))


def downstream_data(spc=10, seed=41):
    return generate_synthetic(SynthSpec(3, spc, (1, 6, 6), "downstream", 0.3, seed=seed))


@pytest.fixture(scope="module")
def frozen_source():
    params = init_params(SOURCE_SPEC, seed=2)
    params, _ = train_standard(params, source_data(), TrainHyper(8, 16, 0.05, 0.9, 13))
    return params.copy(frozen=True)


# ---------------------------------------------------------------------------
# hyperparameter validation


@pytest.mark.parametrize(
    "overrides, fragment",
    [
        (dict(epochs=0), "epochs"),
        (dict(batch_size=0), "batch_size"),
        (dict(learning_rate=-0.1), "learning_rate"),
        (dict(learning_rate=float("nan")), "learning_rate"),
        (dict(momentum=1.0), "momentum"),
        (dict(momentum=-0.2), "momentum"),
        (dict(seed=-1), "seed"),
        (dict(learning_rate=float("inf")), "^learning_rate must be finite, got inf$"),
        (dict(learning_rate=float("-inf")), "^learning_rate must be >= 0, got -inf$"),
    ],
)
def test_hyper_validation(overrides, fragment):
    base = dict(epochs=2, batch_size=8, learning_rate=0.1, momentum=0.9, seed=0)
    base.update(overrides)
    with pytest.raises(ConfigError, match=fragment):
        TrainHyper(**base)


# ---------------------------------------------------------------------------
# source training


def test_standard_training_is_deterministic():
    hyper = TrainHyper(3, 16, 0.05, 0.9, 7)
    runs = []
    for _ in range(2):
        params = init_params(SOURCE_SPEC, seed=2)
        params, records = train_standard(params, source_data(), hyper)
        runs.append((params.byte_signature(), records))
    assert runs[0][0] == runs[1][0]
    assert runs[0][1] == runs[1][1]


def test_seed_changes_trajectory():
    a = train_standard(init_params(SOURCE_SPEC, 2), source_data(), TrainHyper(2, 16, 0.05, 0.9, 7))
    b = train_standard(init_params(SOURCE_SPEC, 2), source_data(), TrainHyper(2, 16, 0.05, 0.9, 8))
    assert a[0].byte_signature() != b[0].byte_signature()


def test_zero_learning_rate_is_a_no_op():
    params = init_params(SOURCE_SPEC, seed=2)
    before = params.byte_signature()
    params, _ = train_standard(params, source_data(), TrainHyper(2, 16, 0.0, 0.9, 7))
    assert params.byte_signature() == before


def test_loss_decreases_on_learnable_task():
    params = init_params(SOURCE_SPEC, seed=2)
    _, records = train_standard(params, source_data(), TrainHyper(8, 16, 0.05, 0.9, 13))
    assert records[-1].loss < records[0].loss
    assert records[-1].mean_confidence > records[0].mean_confidence


def test_records_are_well_formed():
    params = init_params(SOURCE_SPEC, seed=2)
    _, records = train_standard(params, source_data(spc=4), TrainHyper(3, 8, 0.05, 0.9, 7))
    assert [r.epoch for r in records] == [0, 1, 2]
    persistent = sum(3 * t.data.nbytes for _, t in params.named_tensors())
    for r in records:
        assert r.wall_ms > 0
        assert r.peak_mem_bytes > persistent
        assert r.adv_acc == 0.0  # no metrics attack requested


def test_metrics_epsilon_turns_on_adversarial_column():
    params = init_params(SOURCE_SPEC, seed=2)
    _, records = train_standard(
        params, source_data(spc=4), TrainHyper(2, 8, 0.05, 0.9, 7), metrics_epsilon=0.05
    )
    assert all(0.0 <= r.adv_acc <= 1.0 for r in records)


def test_epoch_metrics_make_one_clean_pass(monkeypatch):
    """Both accuracies come from the single clean pass of the attack report."""
    import promptlab.attack as attack

    calls = []
    real = attack._predict
    monkeypatch.setattr(attack, "_predict", lambda *a: calls.append(1) or real(*a))
    eval_ds = source_data(spc=4)
    params = init_params(SOURCE_SPEC, seed=2)
    _, records = train_standard(
        params, source_data(spc=4), TrainHyper(1, 8, 0.05, 0.9, 7), eval_dataset=eval_ds, metrics_epsilon=0.05
    )
    assert len(calls) == 1
    assert records[0].std_acc == standard_accuracy(SourceClassifier(params), eval_ds)


def test_refuses_frozen_params(frozen_source):
    with pytest.raises(GraphError, match="frozen"):
        train_standard(frozen_source, source_data(spc=2), TrainHyper(1, 8, 0.1, 0.9, 0))
    with pytest.raises(GraphError, match="frozen"):
        train_adversarial(
            frozen_source, source_data(spc=2), TrainHyper(1, 8, 0.1, 0.9, 0), AttackConfig(0.05)
        )


def test_refuses_a_partly_frozen_bundle_naming_its_frozen_tensor():
    """A bundle with one flag off is not frozen, but its step is refused
    before any tensor moves, naming that tensor, not the caller's backward."""
    params = init_params(SOURCE_SPEC, seed=2)
    params.tensors["output.bias"].requires_grad = False
    before = params.byte_signature()
    match = r"^refusing to update a partly frozen bundle: parameter 'output.bias' does not require grad$"
    with pytest.raises(GraphError, match=match):
        train_standard(params, source_data(spc=2), TrainHyper(1, 8, 0.1, 0.9, 0))
    assert params.byte_signature() == before


def test_refuses_empty_dataset():
    empty = Dataset(np.zeros((0, 1, 12, 12), np.float32), np.zeros(0, np.int64), 2)
    with pytest.raises(ConfigError, match="dataset has 0 examples of 2 classes; it needs one of each"):
        train_standard(init_params(SOURCE_SPEC, 2), empty, TrainHyper(1, 8, 0.1, 0.9, 0))


def test_adversarial_with_zero_budget_matches_standard():
    """The perturbation stage at epsilon 0 must not disturb the trajectory."""
    hyper = TrainHyper(2, 16, 0.05, 0.9, 7)
    std, std_recs = train_standard(init_params(SOURCE_SPEC, 2), source_data(), hyper)
    adv, adv_recs = train_adversarial(
        init_params(SOURCE_SPEC, 2), source_data(), hyper, AttackConfig(0.0)
    )
    assert adv.byte_signature() == std.byte_signature()
    assert [r.loss for r in adv_recs] == [r.loss for r in std_recs]
    # the zero-budget attack short-circuits, so even the work matches
    assert adv_recs[0].wall_ms == std_recs[0].wall_ms


def test_adversarial_training_changes_the_model():
    hyper = TrainHyper(2, 16, 0.05, 0.9, 7)
    std, _ = train_standard(init_params(SOURCE_SPEC, 2), source_data(), hyper)
    adv, _ = train_adversarial(
        init_params(SOURCE_SPEC, 2), source_data(), hyper, AttackConfig(0.05)
    )
    assert adv.byte_signature() != std.byte_signature()


# ---------------------------------------------------------------------------
# prompt training


def test_prompt_requires_frozen_source():
    params = init_params(SOURCE_SPEC, seed=2)
    with pytest.raises(GraphError, match="frozen"):
        train_prompt(params, downstream_data(), "rlm", None, TrainHyper(1, 8, 0.1, 0.9, 0),
                     pad_width=3)


def test_prompt_refuses_a_source_with_one_tensor_thawed(frozen_source, monkeypatch):
    """A frozen source with one tensor's flag set back is not frozen: it is
    refused before the first step, so no prompt step adds into its gradient."""
    source = frozen_source.copy()
    source.tensors["conv0.weight"].requires_grad = True
    steps = []
    monkeypatch.setattr(train, "sgd_step", lambda *args: steps.append(args))
    with pytest.raises(GraphError, match="frozen"):
        train_prompt(source, downstream_data(), "rlm", None, TrainHyper(1, 8, 0.1, 0.9, 0), pad_width=3)
    assert steps == []
    assert source.tensors["conv0.weight"].grad is None


def test_prompt_rejects_unknown_mapping_policy(frozen_source):
    with pytest.raises(ConfigError, match="label mapping"):
        train_prompt(frozen_source, downstream_data(), "flm", None,
                     TrainHyper(1, 8, 0.1, 0.9, 0), pad_width=3)


def test_prompt_rejects_overcompressed_reduction(frozen_source):
    cfg = PblConfig(temperature=4)  # m = 2 slots for 3 classes
    with pytest.raises(
        ConfigError, match=r"^temperature T=4 reduces 6 source logits to m=2 < K_t=3 downstream classes$"
    ):
        train_prompt(frozen_source, downstream_data(), "rlm", cfg,
                     TrainHyper(1, 8, 0.1, 0.9, 0), pad_width=3)


def refused_before_the_first_step(monkeypatch, cpus, source, phase, train_set, eval_set, match, lm="ilm"):
    """``phase`` on ``train_set`` and ``eval_set`` raises the ConfigError
    ``match`` under two CPUs, before any step and before any fork."""
    steps = []
    monkeypatch.setattr(train, "sgd_step", lambda *args: steps.append(args))
    started = cpus(2)
    hyper = TrainHyper(3, 8, 0.1, 0.9, 0)
    with pytest.raises(ConfigError, match=f"^{re.escape(match)}$"):
        if phase == "prompt":
            train_prompt(source, train_set, lm, PblConfig(2), hyper, pad_width=3, eval_dataset=eval_set)
        elif phase == "adversarial":
            train_adversarial(init_params(SOURCE_SPEC, seed=2), train_set, hyper, AttackConfig(0.05), eval_set)
        else:
            train_standard(init_params(SOURCE_SPEC, seed=2), train_set, hyper, eval_set)
    assert steps == []
    assert started == []


def empty_like(ds):
    return Dataset(np.zeros((0, *ds.image_size), np.float32), np.zeros(0, np.int64), ds.n_classes)


@pytest.mark.parametrize("phase", ["standard", "adversarial", "prompt"])
@pytest.mark.parametrize("fault", ["image-size", "class-count", "empty"])
def test_malformed_eval_dataset_is_refused_before_the_first_step(frozen_source, monkeypatch, cpus, phase, fault):
    """An evaluation set with no examples, with images of another size than
    the phase takes (the source input, a prompt's interior), or with more
    classes than the phase scores (the source head's 6, a prompt's K_t = 3),
    fails before the first step, also where a worker would evaluate it."""
    if phase == "prompt":
        train_set = downstream_data()
        size_is, bound = "do not fill the prompt interior (1, 6, 6) (canvas (1, 12, 12), pad_width 3)", "K_t=3"
    else:
        train_set = source_data()
        size_is, bound = "do not match source.spec.input_size (1, 12, 12)", "source.spec.n_classes=6"
    k = train_set.n_classes
    if fault == "image-size":
        eval_set = generate_synthetic(SynthSpec(k, 2, (1, 4, 4), "downstream", 0.3, seed=7))
        match = f"eval_dataset images (1, 4, 4) {size_is}"
    elif fault == "class-count":
        eval_set = generate_synthetic(SynthSpec(k + 1, 2, train_set.image_size, "downstream", 0.3, seed=7))
        match = f"eval_dataset has {k + 1} classes, more than {bound}"
    else:
        eval_set = empty_like(train_set)
        match = f"eval_dataset has 0 examples of {k} classes; it needs one of each"
    refused_before_the_first_step(monkeypatch, cpus, frozen_source, phase, train_set, eval_set, match)


@pytest.mark.parametrize(
    "phase, fault, lm",
    [("standard", "image-size", None), ("standard", "class-count", None), ("adversarial", "image-size", None),
     ("adversarial", "class-count", None), ("prompt", "empty", "ilm"), ("prompt", "empty", "rlm")],
    ids=["standard-image-size", "standard-class-count", "adversarial-image-size", "adversarial-class-count",
         "prompt-empty-ilm", "prompt-empty-rlm"],
)
def test_malformed_training_set_is_refused_before_the_first_step(frozen_source, monkeypatch, cpus, phase, fault, lm):
    """A training set the phase cannot take, with images of another size
    than the source input or more classes than its head, or with no
    examples for a prompt under either mapping policy, fails before the
    first step with the ConfigError that names it."""
    if fault == "image-size":
        train_set = generate_synthetic(SynthSpec(6, 4, (1, 10, 10), "source", 0.3, seed=7))
        match = "dataset images (1, 10, 10) do not match source.spec.input_size (1, 12, 12)"
    elif fault == "class-count":
        train_set = generate_synthetic(SynthSpec(8, 4, (1, 12, 12), "source", 0.3, seed=7))
        match = "dataset has 8 classes, more than source.spec.n_classes=6"
    else:
        train_set = empty_like(downstream_data())
        match = "dataset has 0 examples of 3 classes; it needs one of each"
    refused_before_the_first_step(monkeypatch, cpus, frozen_source, phase, train_set, None, match, lm)


def test_prompt_rejects_interior_mismatch(frozen_source):
    bad = generate_synthetic(SynthSpec(3, 2, (1, 7, 7), "downstream", 0.3, seed=41))
    with pytest.raises(ConfigError, match="interior"):
        train_prompt(frozen_source, bad, "rlm", None, TrainHyper(1, 8, 0.1, 0.9, 0),
                     pad_width=3)


def test_prompt_training_leaves_source_untouched(frozen_source):
    before = frozen_source.byte_signature()
    prompt, clf, records = train_prompt(
        frozen_source, downstream_data(), "rlm", None, TrainHyper(3, 8, 0.2, 0.9, 5),
        pad_width=3,
    )
    assert frozen_source.byte_signature() == before
    assert len(records) == 3
    # the frame itself moved ...
    assert prompt.params.data[prompt.mask].any()
    # ... and stayed a border frame
    assert not prompt.params.data[~prompt.mask].any()


def test_rlm_mapping_is_seed_derived_and_fixed(frozen_source):
    hyper = TrainHyper(2, 8, 0.2, 0.9, 5)
    _, clf, _ = train_prompt(frozen_source, downstream_data(), "rlm", None, hyper,
                             pad_width=3)
    expected = rlm_init(SOURCE_SPEC.n_classes, 3, hyper.seed)
    assert np.array_equal(clf.mapping.indices, expected.indices)


def test_ilm_final_mapping_matches_final_frequencies(frozen_source):
    data = downstream_data()
    _, clf, _ = train_prompt(frozen_source, data, "ilm", None,
                             TrainHyper(3, 8, 0.2, 0.9, 5), pad_width=3)
    expected = ilm_update(prediction_frequencies(clf.reduced_fn, data))
    assert np.array_equal(clf.mapping.indices, expected.indices)


@pytest.mark.parametrize("lm, tallies", [("ilm", 4), ("rlm", 0)])
def test_ilm_tallies_before_training_and_after_each_epoch(frozen_source, monkeypatch, lm, tallies):
    """ILM tallies prediction frequencies ``epochs + 1`` times and RLM never;
    the traced benchmark's exact ``mapping.ilm.calls`` count rests on this."""
    calls = []
    monkeypatch.setattr(train, "prediction_frequencies", lambda *a: calls.append(1) or prediction_frequencies(*a))
    train_prompt(frozen_source, downstream_data(), lm, None, TrainHyper(3, 8, 0.2, 0.9, 5), pad_width=3)
    assert len(calls) == tallies


def test_temperature_one_equals_no_reduction(frozen_source):
    """Keeping the reduction stage at temperature 1 must reproduce the
    unreduced objective step for step."""
    hyper = TrainHyper(2, 8, 0.2, 0.9, 5)
    p_none, _, recs_none = train_prompt(
        frozen_source, downstream_data(), "rlm", None, hyper, pad_width=3
    )
    p_t1, _, recs_t1 = train_prompt(
        frozen_source, downstream_data(), "rlm", PblConfig(1), hyper, pad_width=3
    )
    assert [r.loss for r in recs_t1] == [r.loss for r in recs_none]
    assert p_t1.params.data.tobytes() == p_none.params.data.tobytes()


def test_prompt_training_is_deterministic(frozen_source):
    hyper = TrainHyper(2, 8, 0.2, 0.9, 5)
    outs = []
    for _ in range(2):
        prompt, _, records = train_prompt(
            frozen_source, downstream_data(), "ilm", PblConfig(2), hyper, pad_width=3
        )
        outs.append((prompt.params.data.tobytes(), records))
    assert outs[0] == outs[1]


def test_adversarial_prompt_training_costs_more(frozen_source):
    hyper = TrainHyper(2, 8, 0.2, 0.9, 5)
    _, _, clean = train_prompt(
        frozen_source, downstream_data(), "rlm", PblConfig(2), hyper, pad_width=3
    )
    _, _, robust = train_prompt(
        frozen_source, downstream_data(), "rlm", PblConfig(2), hyper,
        attack=AttackConfig(0.05), pad_width=3,
    )
    assert len(robust) == 2
    assert robust[0].wall_ms > clean[0].wall_ms


@pytest.mark.parametrize(
    "lm, cfg, adversarial, metrics_epsilon",
    [
        ("ilm", PblConfig(2), False, 0.05),
        ("ilm", PblConfig(2), False, 0.0),
        ("rlm", PblConfig(2), True, 0.05),
    ],
    ids=["ilm-adv-metrics", "ilm-clean-metrics", "rlm-adversarial-prompt"],
)
def test_final_eval_only_changes_only_the_earlier_accuracies(frozen_source, lm, cfg, adversarial, metrics_epsilon):
    """Skipping the per-epoch evaluations leaves the prompt, the mapping,
    the last record and every work column as they were."""
    hyper = TrainHyper(3, 8, 0.2, 0.9, 5)
    kwargs = dict(
        attack=AttackConfig(0.05) if adversarial else None,
        pad_width=3,
        eval_dataset=downstream_data(spc=6, seed=43),
        metrics_epsilon=metrics_epsilon,
    )
    p_all, clf_all, recs_all = train_prompt(frozen_source, downstream_data(), lm, cfg, hyper, **kwargs)
    p_last, clf_last, recs_last = train_prompt(
        frozen_source, downstream_data(), lm, cfg, hyper, final_eval_only=True, **kwargs
    )
    assert p_last.params.data.tobytes() == p_all.params.data.tobytes()
    assert clf_last.mapping == clf_all.mapping
    assert recs_last[-1] == recs_all[-1]
    assert recs_all[-1].std_acc > 0.0
    for early_all, early_last in zip(recs_all[:-1], recs_last[:-1]):
        assert (early_last.std_acc, early_last.adv_acc) == (0.0, 0.0)  # not measured
        assert early_last == replace(early_all, std_acc=0.0, adv_acc=0.0)
    assert len(recs_last) == len(recs_all) == 3


# ---------------------------------------------------------------------------
# the evaluation worker


def train_ilm_prompt(source, epochs=3, metrics_epsilon=0.05):
    return train_prompt(
        source, downstream_data(), "ilm", PblConfig(2), TrainHyper(epochs, 8, 0.2, 0.9, 5),
        pad_width=3, eval_dataset=downstream_data(spc=6, seed=43), metrics_epsilon=metrics_epsilon,
    )


@pytest.mark.parametrize("k", [1, 2], ids=["one-cpu", "two-cpus"])
def test_evaluation_error_reaches_the_caller(frozen_source, monkeypatch, cpus, k):
    """An evaluation that raises at its second call (epoch 1, which the
    worker evaluates when two CPUs are usable) raises the same exception
    in the caller, and leaves no process behind."""
    calls = []
    real = train.adversarial_accuracy

    def failing(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise NumericsError("injected at the second evaluation")
        return real(*args, **kwargs)

    monkeypatch.setattr(train, "adversarial_accuracy", failing)
    started = cpus(k)
    with pytest.raises(NumericsError, match="^injected at the second evaluation$"):
        train_ilm_prompt(frozen_source)
    assert len(started) == k - 1
    assert multiprocessing.active_children() == []


def attack_graphs(monkeypatch, call, *args, **kwargs):
    """``call(*args, **kwargs)`` and the ``bytes_tracked`` of every graph it
    differentiates."""
    graphs, backward = [], Graph.backward

    def recording(g, loss):
        backward(g, loss)
        graphs.append(g.bytes_tracked)

    with monkeypatch.context() as m:
        m.setattr(Graph, "backward", recording)
        return call(*args, **kwargs), graphs


def as_cleared_by_hand(monkeypatch, tensors, call, *args, **kwargs):
    """:func:`attack_graphs` of ``call`` with the ``tensors``' flags cleared
    for it, then set again."""
    for t in tensors:
        t.requires_grad = False
    try:
        return attack_graphs(monkeypatch, call, *args, **kwargs)
    finally:
        for t in tensors:
            t.requires_grad = True


def grad_bytes(tensors):
    return [None if t.grad is None else t.grad.tobytes() for t in tensors]


@pytest.mark.parametrize("fails", [False, True], ids=["returns", "raises"])
def test_evaluation_differentiates_only_the_input(monkeypatch, cpus, fails):
    """An in-process evaluation sees the target's flags unchanged, leaves
    its gradients as training left them, and returns the report and graph
    sizes of an evaluation with the flags cleared by hand: it formed no
    parameter gradient.  Training goes on after it returns or raises."""
    params = init_params(SOURCE_SPEC, seed=2)
    tensors = [t for _, t in params.named_tensors()]
    seen = []
    real = train.adversarial_accuracy

    def checked(*args, **kwargs):
        seen.append([t.requires_grad for t in tensors])
        if fails:
            raise NumericsError("injected in evaluation")
        before = grad_bytes(tensors)
        report, graphs = attack_graphs(monkeypatch, real, *args, **kwargs)
        assert grad_bytes(tensors) == before
        assert (report, graphs) == as_cleared_by_hand(monkeypatch, tensors, real, *args, **kwargs)
        return report

    monkeypatch.setattr(train, "adversarial_accuracy", checked)
    cpus(1)
    hyper = TrainHyper(2, 8, 0.05, 0.9, 7)
    if fails:
        with pytest.raises(NumericsError, match="injected in evaluation"):
            train_standard(params, source_data(spc=4), hyper, metrics_epsilon=0.05)
    else:  # epoch 1 trains after epoch 0's evaluation
        train_standard(params, source_data(spc=4), hyper, metrics_epsilon=0.05)
    assert seen == [[True] * len(tensors)] * (1 if fails else 2)
    assert all(t.requires_grad for t in tensors)


@pytest.mark.parametrize("target", ["source", "rlm-prompt"])
def test_training_attack_differentiates_only_the_input(frozen_source, monkeypatch, cpus, target):
    """The training attack of ``train_adversarial`` and of an adversarial
    prompt sees the target's flags unchanged, leaves its gradients as they
    were, and returns the bytes and graph size of an attack with the flags
    cleared by hand: it formed only the input gradient."""
    seen = []
    real = train.fgsm

    def checked(pipeline, *args, **kwargs):
        attacked = pipeline.params if isinstance(pipeline, SourceClassifier) else pipeline.prompt
        tensors = [t for _, t in attacked.named_tensors()]
        seen.append([t.requires_grad for t in tensors])
        before = grad_bytes(tensors)
        adv, graphs = attack_graphs(monkeypatch, real, pipeline, *args, **kwargs)
        assert grad_bytes(tensors) == before
        by_hand, by_hand_graphs = as_cleared_by_hand(monkeypatch, tensors, real, pipeline, *args)
        assert (adv.data.tobytes(), graphs) == (by_hand.data.tobytes(), by_hand_graphs)
        return adv

    monkeypatch.setattr(train, "fgsm", checked)
    cpus(1)
    hyper = TrainHyper(2, 8, 0.2, 0.9, 5)
    if target == "source":
        trained, _ = train_adversarial(init_params(SOURCE_SPEC, seed=2), source_data(spc=4), hyper, AttackConfig(0.05))
        steps = 2 * 3  # 24 examples in batches of 8
    else:
        trained, _, _ = train_prompt(
            frozen_source, downstream_data(), "rlm", PblConfig(2), hyper, attack=AttackConfig(0.05), pad_width=3
        )
        steps = 2 * 4  # 30 examples in batches of 8
    tensors = [t for _, t in trained.named_tensors()]
    assert seen == [[True] * len(tensors)] * steps
    assert all(t.requires_grad for t in tensors)


def test_worker_that_dies_fails_the_caller(frozen_source, monkeypatch, cpus):
    caller, real = os.getpid(), train.adversarial_accuracy
    exit_in_worker = lambda *a, **k: real(*a, **k) if os.getpid() == caller else os._exit(3)  # noqa: E731
    monkeypatch.setattr(train, "adversarial_accuracy", exit_in_worker)
    started = cpus(2)
    with pytest.raises(BrokenProcessPool):
        train_ilm_prompt(frozen_source)
    assert len(started) == 1
    assert multiprocessing.active_children() == []


def test_evaluation_error_that_does_not_pickle_fails_the_caller(frozen_source, monkeypatch, cpus):
    """An exception raised in the worker that cannot be sent back still
    fails the caller, naming its class, and leaves no process behind."""

    class UnpicklableEvalError(Exception):
        pass

    caller, real = os.getpid(), train.adversarial_accuracy

    def failing_in_worker(*args, **kwargs):
        if os.getpid() == caller:
            return real(*args, **kwargs)
        raise UnpicklableEvalError("raised in the worker")

    monkeypatch.setattr(train, "adversarial_accuracy", failing_in_worker)
    cpus(2)
    with pytest.raises(Exception, match="UnpicklableEvalError"):
        train_ilm_prompt(frozen_source)
    assert multiprocessing.active_children() == []


def test_training_error_stops_the_worker(frozen_source, monkeypatch, cpus):
    steps = []
    real = train.sgd_step

    def failing_step(*args):
        steps.append(1)
        if len(steps) == 6:  # 4 steps an epoch: the second epoch's, after the first went to the worker
            raise GraphError("injected in training")
        return real(*args)

    monkeypatch.setattr(train, "sgd_step", failing_step)
    started = cpus(2)
    with pytest.raises(GraphError, match="injected in training"):
        train_ilm_prompt(frozen_source)
    assert len(started) == 1
    assert multiprocessing.active_children() == []


@pytest.mark.skipif(blas.thread_count() is None, reason="NumPy's BLAS exports no OpenBLAS thread entry point")
def test_evaluation_worker_runs_one_blas_thread(frozen_source, monkeypatch, cpus):
    seen = multiprocessing.SimpleQueue()
    real = train.standard_accuracy

    def recording(*args, **kwargs):
        seen.put((os.getpid(), blas.thread_count()))
        return real(*args, **kwargs)

    monkeypatch.setattr(train, "standard_accuracy", recording)
    cpus(2)
    train_ilm_prompt(frozen_source, metrics_epsilon=0.0)
    got = [seen.get() for _ in range(3)]  # all sent: the caller had every result back
    assert sorted(pid == os.getpid() for pid, _ in got) == [False, False, True]  # the caller scores the last epoch
    assert [threads for _, threads in got] == [1, 1, 1]


def test_daemonic_caller_evaluates_in_process(frozen_source, cpus):
    """A daemonic process, such as a multiprocessing.Pool worker, may not
    have children, so a phase run there keeps its evaluation in-process."""
    cpus(2)
    ctx = multiprocessing.get_context("fork")
    receiver, sender = ctx.Pipe(duplex=False)
    child = ctx.Process(target=lambda: sender.send(train_ilm_prompt(frozen_source)[2]), daemon=True)
    child.start()
    sender.close()
    assert receiver.poll(60)
    records = receiver.recv()
    child.join(timeout=60)
    assert child.exitcode == 0
    assert records == train_ilm_prompt(frozen_source)[2]


def test_one_epoch_prompt_starts_no_process(frozen_source, cpus):
    started = cpus(2)
    train_ilm_prompt(frozen_source, epochs=1)
    assert started == []
