"""Block-max reduction and label-mapping policies against brute-force oracles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from promptlab import (
    ConfigError,
    Dataset,
    FrequencyMatrix,
    Graph,
    LabelMapping,
    PblConfig,
    ShapeError,
    Tensor,
    block_reduce,
    ilm_update,
    map_labels,
    matmul,
    prediction_frequencies,
    rlm_init,
    tensor_sum,
)
from promptlab import tensor

from gradcheck import ref_block_reduce


def greedy_reference(counts: np.ndarray) -> tuple[int, ...]:
    """Literal rendition of the greedy rule, one full scan per assignment.

    Repeatedly find the largest count over free (class, index) pairs --
    scanning classes then indices in ascending order, keeping the first
    strict maximum, so ties break toward the lower class and then the
    lower index -- then retire that row and column.  Exhausted (all-zero)
    rows are handled by the same loop: their best remaining count is 0
    and the ascending scan hands them the smallest free index.
    """
    k_t, m = counts.shape
    col_free = np.ones(m, dtype=bool)
    assigned: dict[int, int] = {}
    while len(assigned) < k_t:
        best = None
        for c in range(k_t):
            if c in assigned:
                continue
            for j in range(m):
                if not col_free[j]:
                    continue
                if best is None or counts[c, j] > best[0]:
                    best = (counts[c, j], c, j)
        _, c, j = best
        assigned[c] = j
        col_free[j] = False
    return tuple(assigned[c] for c in range(k_t))


# ---------------------------------------------------------------------------
# PblConfig / block_reduce
# ---------------------------------------------------------------------------


def test_pbl_config_validation_and_m():
    with pytest.raises(ConfigError):
        PblConfig(temperature=0)
    assert PblConfig(temperature=3).m(10) == 4  # 10 = 3+3+3+1
    assert PblConfig(temperature=5).m(10) == 2
    assert PblConfig(temperature=20).m(10) == 1
    assert PblConfig(temperature=np.int64(3)).m(10) == 4  # a NumPy integer is an integer


@pytest.mark.parametrize("temperature", [2.5, 2.0, True, "2", None])
def test_pbl_config_refuses_a_temperature_that_is_not_an_integer(temperature):
    """Refused when built, not at the first block_reduce, which cannot reshape by a float."""
    with pytest.raises(ConfigError, match="^temperature must be an integer"):
        PblConfig(temperature)


def test_block_reduce_matches_oracle_including_ragged_tail(rng):
    for n, t in [(10, 3), (10, 4), (7, 2), (12, 5), (9, 9), (5, 1)]:
        v = rng.normal(size=(4, n)).astype(np.float32)
        out = block_reduce(Tensor(v), PblConfig(temperature=t))
        assert out.data.shape == (4, -(-n // t))
        np.testing.assert_array_equal(out.data, ref_block_reduce(v, t))


@given(n=st.integers(1, 40), t=st.integers(1, 12), seed=st.integers(0, 10**6))
@settings(max_examples=80, deadline=None, derandomize=True)
def test_block_reduce_oracle_property(n, t, seed):
    v = np.random.Generator(np.random.PCG64(seed)).normal(size=(3, n)).astype(np.float32)
    out = block_reduce(Tensor(v), PblConfig(temperature=t))
    np.testing.assert_array_equal(out.data, ref_block_reduce(v, t))


def test_block_reduce_temperature_one_is_identity_copy():
    v = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3))
    out = block_reduce(v, PblConfig(temperature=1))
    np.testing.assert_array_equal(out.data, v.data)
    assert out.data is not v.data


def test_block_reduce_gradient_routes_to_first_argmax():
    cases = [
        # column 1 and 2 tie inside block 0: the earlier column wins; block 1 is padded
        ([0.5, 2.0, 2.0, 1.0], 3, [0.0, 1.0, 0.0, 1.0]),
        # T > n: one block, padded past every real column
        ([1.0, 3.0, 3.0], 5, [0.0, 1.0, 0.0]),
        # T divides n: no padding; the tie in block 0 goes to its first column
        ([2.0, 2.0, 0.5, 4.0], 2, [1.0, 0.0, 0.0, 1.0]),
    ]
    for row, t, grad in cases:
        v = Tensor(np.array([row], dtype=np.float32), requires_grad=True)
        with Graph() as g:
            loss = tensor_sum(block_reduce(v, PblConfig(temperature=t)))
        g.backward(loss)
        np.testing.assert_array_equal(v.grad, [grad])


def test_block_reduce_validates_width():
    with pytest.raises(ShapeError):
        block_reduce(Tensor(np.zeros(5, dtype=np.float32)), PblConfig(temperature=2))


# ---------------------------------------------------------------------------
# label mappings
# ---------------------------------------------------------------------------


def test_label_mapping_validation():
    with pytest.raises(ConfigError):
        LabelMapping((0, 1, 1))
    with pytest.raises(ConfigError):
        LabelMapping((0, -1))
    assert LabelMapping((3, 0, 2)).n_classes == 3


def test_map_labels_selects_columns_and_checks_range(rng):
    v = rng.normal(size=(4, 6)).astype(np.float32)
    mapping = LabelMapping((5, 0, 3))
    out = map_labels(Tensor(v), mapping)
    np.testing.assert_array_equal(out.data, v[:, [5, 0, 3]])
    with pytest.raises(ShapeError):
        map_labels(Tensor(v[:, :5]), mapping)


def test_map_labels_gradient_scatters_to_source_columns():
    v = Tensor(np.zeros((2, 4), dtype=np.float32), requires_grad=True)
    weights = Tensor(np.array([[1.0], [2.0]], dtype=np.float32))  # class c's logit has gradient c + 1
    with Graph() as g:
        loss = tensor_sum(matmul(map_labels(v, LabelMapping((2, 0))), weights))
    g.backward(loss)
    np.testing.assert_array_equal(v.grad, [[2.0, 0.0, 1.0, 0.0]] * 2)


def test_rlm_is_seeded_injective_and_covers():
    a = rlm_init(8, 5, seed=3)
    assert a == rlm_init(8, 5, seed=3)
    assert a != rlm_init(8, 5, seed=4)
    assert len(set(a.indices)) == 5
    assert all(0 <= i < 8 for i in a.indices)
    with pytest.raises(ConfigError):
        rlm_init(4, 5, seed=0)
    # over many seeds every index should be reachable
    seen = set()
    for s in range(100):
        seen.update(rlm_init(6, 3, seed=s).indices)
    assert seen == set(range(6))


def test_frequency_matrix_validation():
    with pytest.raises(ShapeError):
        FrequencyMatrix(np.zeros(3))
    with pytest.raises(ConfigError):
        FrequencyMatrix(np.array([[1, -1]]))


def test_prediction_frequencies_tallies_argmax_per_class(monkeypatch):
    images = np.zeros((6, 1, 2, 2), dtype=np.float32)
    images[:, 0, 0, 0] = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]
    labels = np.array([0, 0, 0, 1, 1, 1])
    ds = Dataset(images=images, labels=labels, n_classes=2)

    def reduced(batch):
        # argmax index = 0 if the corner pixel < 0.25 else 2
        flag = (batch.data[:, 0, 0, 0] >= 0.25).astype(np.float32)
        return Tensor(np.stack([1.0 - flag, np.zeros_like(flag), flag], axis=1))

    monkeypatch.setattr(tensor, "_EVAL_BATCH", 4)
    freq = prediction_frequencies(reduced, ds)
    np.testing.assert_array_equal(freq.counts, [[3, 0, 0], [0, 0, 3]])
    # batch size must not matter
    monkeypatch.setattr(tensor, "_EVAL_BATCH", 1)
    np.testing.assert_array_equal(prediction_frequencies(reduced, ds).counts, freq.counts)


def test_ilm_update_matches_bruteforce_on_small_grid():
    # 7 goes first (class 2 -> col 2); the 5/5 tie on column 0 breaks to
    # class 0; class 1 is left with zeros and takes the smallest free column.
    counts = np.array(
        [
            [5, 1, 0, 0],
            [5, 0, 0, 0],
            [0, 0, 7, 0],
        ]
    )
    got = ilm_update(FrequencyMatrix(counts))
    assert got.indices == greedy_reference(counts)
    assert got.indices == (0, 1, 2)


def test_ilm_update_handles_exhausted_rows():
    counts = np.array([[0, 0, 0], [0, 9, 0]])
    got = ilm_update(FrequencyMatrix(counts))
    assert got.indices == greedy_reference(counts) == (0, 1)


@given(
    k_t=st.integers(1, 6),
    extra=st.integers(0, 5),
    seed=st.integers(0, 10**6),
    sparse=st.booleans(),
)
@settings(max_examples=80, deadline=None, derandomize=True)
def test_ilm_update_equals_reference_property(k_t, extra, seed, sparse):
    m = k_t + extra
    gen = np.random.Generator(np.random.PCG64(seed))
    counts = gen.integers(0, 4 if sparse else 50, size=(k_t, m))
    got = ilm_update(FrequencyMatrix(counts))
    assert got.indices == greedy_reference(counts)
    assert len(set(got.indices)) == k_t


def test_ilm_update_rejects_narrow_matrix():
    with pytest.raises(ConfigError):
        ilm_update(FrequencyMatrix(np.zeros((3, 2), dtype=np.int64)))


@pytest.mark.parametrize("n, batch_size", [(1, 4), (6, 4), (8, 4), (9, 256), (3, 1)])
def test_prediction_frequencies_calls_reduced_once_per_batch(monkeypatch, n, batch_size):
    """No probe pass: ``m`` comes from the first batch's output."""
    ds = Dataset(
        images=np.zeros((n, 1, 2, 2), dtype=np.float32),
        labels=np.arange(n) % 2,
        n_classes=2,
    )
    calls = []

    def reduced(batch):
        assert isinstance(batch, Tensor)
        calls.append(len(batch.data))
        return Tensor(np.tile(np.array([0.0, 1.0, 0.0], dtype=np.float32), (len(batch.data), 1)))

    monkeypatch.setattr(tensor, "_EVAL_BATCH", batch_size)
    freq = prediction_frequencies(reduced, ds)
    assert len(calls) == -(-n // batch_size)
    assert sum(calls) == n
    assert freq.counts.shape == (2, 3)
    np.testing.assert_array_equal(freq.counts[:, 1], np.bincount(ds.labels, minlength=2))


def test_tally_memory_is_bounded_by_the_batch():
    """The ILM tally runs the pipeline on one batch of 128 images at a
    time, so tallying 512 images on the default frozen source peaks about
    where tallying one batch does."""
    import tracemalloc

    from promptlab import ExperimentConfig, SourceClassifier, default_config, init_params

    spec = ExperimentConfig.from_dict(default_config()).source_spec
    params = init_params(spec, seed=0)
    params.freeze()
    clf = SourceClassifier(params)
    gen = np.random.default_rng(0)
    x = gen.uniform(0.0, 1.0, size=(512, *spec.input_size)).astype(np.float32)
    y = gen.integers(0, spec.n_classes, size=512)

    def tally_peak(n):
        ds = Dataset(images=x[:n].copy(), labels=y[:n].copy(), n_classes=spec.n_classes)
        tally = lambda: prediction_frequencies(clf.logits, ds)
        tally()  # warm the cached gather indices
        tracemalloc.start()
        try:
            tally()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    many, one = tally_peak(512), tally_peak(128)
    assert many <= 1.15 * one, (many, one)


def test_prediction_frequencies_rejects_an_empty_dataset():
    empty = Dataset(np.zeros((0, 1, 2, 2), np.float32), np.zeros(0, np.int64), 2)
    with pytest.raises(ShapeError, match="empty"):
        prediction_frequencies(lambda batch: Tensor(np.zeros((len(batch.data), 3))), empty)
