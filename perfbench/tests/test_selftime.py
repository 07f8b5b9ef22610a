"""Self time on hand-built span trees."""

import pytest

from tracer import layer_metrics, self_times

S = 1_000_000_000  # span clocks are in nanoseconds


def span(name, start, end, parent, run=0):
    return (name, start * S, end * S, parent, run)


def test_nested_children():
    spans = [span("root", 0, 10, -1), span("child", 2, 5, 0), span("grandchild", 3, 4, 1)]
    assert self_times(spans) == pytest.approx([7.0, 2.0, 1.0])


def test_siblings_and_overlap_counted_once():
    spans = [span("root", 0, 10, -1), span("a", 1, 3, 0), span("b", 4, 8, 0), span("c", 6, 9, 0)]
    # a covers [1,3]; b and c together cover [4,9] once
    assert self_times(spans) == pytest.approx([3.0, 2.0, 4.0, 3.0])


def test_child_ending_after_parent_is_clipped():
    spans = [span("root", 0, 10, -1), span("late", 8, 14, 0)]
    assert self_times(spans) == pytest.approx([8.0, 6.0])


def test_two_run_ids_do_not_mix():
    # Parents index into the spans of their own run; interleaving the runs
    # must not attach run 1's child to run 0's root.
    spans = [
        span("root", 0, 10, -1, run=0),
        span("root", 0, 10, -1, run=1),
        span("child", 5, 10, 0, run=1),
        span("child", 0, 2, 0, run=0),
    ]
    assert self_times(spans) == pytest.approx([8.0, 5.0, 5.0, 2.0])


def test_layer_metrics_inclusive_and_unattributed():
    spans = [
        span("harness.run_experiment", 0, 10, -1),
        span("train.train_prompt", 1, 9, 0),
        span("attack.standard_accuracy", 2, 4, 1),
        span("attack.adversarial_accuracy", 9, 10, 0),
    ]
    m = layer_metrics(spans, {})
    assert m["train.prompt_s"] == pytest.approx(8.0)
    assert m["train.self_s"] == pytest.approx(6.0)
    assert m["train.epoch_eval_s"] == pytest.approx(2.0)  # the evaluation under the root is not per-epoch
    assert m["harness.self_s"] == pytest.approx(1.0)
    assert m["trace.unattributed_frac"] == pytest.approx(0.1)
