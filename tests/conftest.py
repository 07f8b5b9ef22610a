import os

import numpy as np
import pytest

from promptlab import ConvNetSpec, Dataset, init_params

# Verdict lines registered by the acceptance tests; printed as a summary
# section at the end of the run so each criterion shows one PASS/FAIL
# line regardless of output capturing.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def cpus(monkeypatch):
    """``cpus(k)`` makes promptlab see ``k`` usable CPUs and returns a list
    that gets the pid of every ``os.fork`` made from then on, so a test can
    tell whether an evaluation worker started."""
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(os.getpid())
        return real_fork()

    def use(k):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)))
        monkeypatch.setattr(os, "fork", fork)
        return forks

    return use


@pytest.fixture
def rng():
    return np.random.Generator(np.random.PCG64(20240817))


@pytest.fixture
def tiny_spec():
    """Smallest architecture that still has two conv blocks."""
    return ConvNetSpec(
        input_size=(1, 12, 12),
        conv_blocks=((4, 3, 2), (8, 3, 1)),
        hidden_width=16,
        n_classes=6,
    )


@pytest.fixture
def tiny_params(tiny_spec):
    return init_params(tiny_spec, seed=7)


def make_dataset(n_classes=4, per_class=6, size=(1, 8, 8), seed=0):
    """Random-pixel dataset; labels are class-ordered like the generator's."""
    rng = np.random.Generator(np.random.PCG64(seed))
    n = n_classes * per_class
    images = rng.uniform(0.0, 1.0, size=(n, *size)).astype(np.float32)
    labels = np.repeat(np.arange(n_classes, dtype=np.int64), per_class)
    return Dataset(images=images, labels=labels, n_classes=n_classes)


@pytest.fixture
def small_dataset():
    return make_dataset()
