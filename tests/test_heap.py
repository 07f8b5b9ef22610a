"""The malloc thresholds: importing promptlab fixes glibc's mmap and trim
thresholds, records the outcome in timing.json, and keeps an evaluation
loop's buffers in the heap instead of faulting them in again."""

import json
import platform
import warnings

import pytest

from promptlab import heap
from promptlab.harness import default_config, session
from test_blas import _run_python

needs_glibc = pytest.mark.skipif(
    platform.libc_ver()[0] != "glibc", reason="mallopt's mmap and trim thresholds are glibc's"
)


@needs_glibc
def test_import_fixes_both_thresholds():
    out = _run_python("import json, promptlab; print(json.dumps(promptlab.heap.status()))", threads=1)
    assert json.loads(out) == {"mmap_threshold": 32 << 20, "trim_threshold": 256 << 20, "set": True}


@pytest.mark.parametrize("mallopt", [None, lambda param, value: 0], ids=["no-mallopt", "mallopt-refuses"])
def test_without_glibc_nothing_is_set_or_said(monkeypatch, mallopt):
    monkeypatch.setattr(heap, "_mallopt", lambda: mallopt)
    monkeypatch.setattr(heap, "_STATUS", heap.status())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        heap.fix_thresholds()
    assert heap.status() == {"mmap_threshold": None, "trim_threshold": None, "set": False}


def test_timing_records_the_thresholds(tmp_path):
    cfg = default_config(0, str(tmp_path / "run"))
    cfg["source"]["hyper"]["epochs"] = 1
    with session(cfg):
        pass
    recorded = json.loads((tmp_path / "run" / "timing.json").read_text())["malloc"]
    assert recorded == heap.status()
    assert set(recorded) == {"mmap_threshold", "trim_threshold", "set"}


# Repeats one evaluation of 300 examples, every one of them attacked.  Under
# glibc's moving thresholds each repetition hands its batch buffers back to
# the OS and faults them in again (about 6,600 minor faults a repetition);
# with the thresholds fixed, the repetitions after the first reuse the heap.
_EVAL_LOOP = """
import resource
import numpy as np
from promptlab import AttackConfig, ConvNetSpec, Dataset, SourceClassifier, adversarial_accuracy, init_params
from promptlab.attack import _predict

params = init_params(ConvNetSpec((1, 32, 32), ((8, 3, 2), (16, 3, 2)), 64, 20), 0)
params.freeze()
clf = SourceClassifier(params)
images = np.random.default_rng(0).random((300, 1, 32, 32), dtype=np.float32)
dataset = Dataset(images, _predict(clf, images), 20)
faults = []
for _ in range(5):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    adversarial_accuracy(clf, dataset, AttackConfig(0.05))
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(faults)
"""


@needs_glibc
def test_repeated_evaluation_does_not_fault_its_buffers_in_again():
    faults = json.loads(_run_python(_EVAL_LOOP, threads=1))
    assert max(faults[1:]) < 1000, faults  # the first repetition grows the heap
