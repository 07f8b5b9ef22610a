"""Span tracer for promptlab, installed from outside the package.

The tracer replaces each traced public function with a wrapper at every
place a ``promptlab`` module looks it up (``from .x import f`` copies the
name into the importing module, so each copy is patched), and wraps the
``backward_fn`` every op hands to ``Graph.record`` so that each op's
backward pass gets its own span.  Spans are kept in memory as
``(name, start_ns, end_ns, parent, run_id)`` tuples, where ``parent`` is
the index of the enclosing span within the same run (-1 for a root),
and are written out once when the run ends.  Work counts (examples,
flops, bytes, duplicate passes) are taken at the same boundaries.

Nothing under ``src/`` is modified; :meth:`Tracer.uninstall` restores
every attribute it replaced.
"""

from __future__ import annotations

import functools
import hashlib
import os
import sys
import time
from collections import defaultdict

# (module, attribute) of every traced callable.  Dotted attributes are
# methods patched on their class.  Only functions the benchmark
# workloads reach are listed, so every entry records spans.
TRACED = [
    ("tensor", "conv2d"),
    ("tensor", "matmul"),
    ("tensor", "relu"),
    ("tensor", "add_row_bias"),
    ("tensor", "add_channel_bias"),
    ("tensor", "reshape"),
    ("tensor", "softmax_cross_entropy"),
    ("tensor", "Graph.backward"),
    ("nets", "forward"),
    ("prompt", "apply_prompt"),
    ("prompt", "VisualPrompt.project"),
    ("mapping", "block_reduce"),
    ("mapping", "map_labels"),
    ("mapping", "prediction_frequencies"),
    ("mapping", "ilm_update"),
    ("attack", "fgsm"),
    ("attack", "standard_accuracy"),
    ("attack", "adversarial_accuracy"),
    ("optim", "sgd_step"),
    ("optim", "SgdOptimizer.step"),
    ("train", "train_standard"),
    ("train", "train_adversarial"),
    ("train", "train_prompt"),
    ("data", "generate_synthetic"),
    ("checkpoint", "save_tensors"),
    ("checkpoint", "save_model"),
    ("checkpoint", "save_prompt"),
    ("checkpoint", "load_tensors"),
    ("checkpoint", "load_model"),
    ("metrics", "write_metrics"),
    ("harness", "ExperimentConfig.from_dict"),
    ("harness", "run_experiment"),
    ("harness", "sweep_temperature"),
    ("harness", "export_prompt_image"),
]

# Harness entry points whose span is the root of a traced run.
ROOTS = ("harness.run_experiment", "harness.sweep_temperature")

_UNLABELLED = "tensor.unlabelled"


def _digest(*parts: bytes) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for p in parts:
        h.update(p)
    return h.digest()


class Tracer:
    """Records spans and work counts for one or more traced runs."""

    def __init__(self, run_id: int = 0):
        self.run_id = run_id
        self.spans: list[tuple[str, int, int, int, int]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._originals: dict[str, object] = {}
        self._clean_keys: set[bytes] = set()
        self._prompt_keys: set[bytes] = set()
        self._dataset_keys: dict[int, tuple[object, bytes]] = {}

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry of :data:`TRACED` wherever promptlab holds it."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        import promptlab  # noqa: F401  (loads every submodule)

        modules = [m for n, m in sorted(sys.modules.items()) if n == "promptlab" or n.startswith("promptlab.")]
        hooks = self._hooks()
        for mod_name, attr in TRACED:
            module = sys.modules[f"promptlab.{mod_name}"]
            name = f"{mod_name}.{attr.split('.')[-1]}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._traced(name, raw.__func__, hooks))
                else:
                    new = self._traced(name, raw, hooks)
                self._originals[name] = raw
                self._patch(cls, meth, new)
                continue
            original = getattr(module, attr)
            self._originals[name] = original
            wrapper = self._traced(name, original, hooks)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
        graph_cls = sys.modules["promptlab.tensor"].Graph
        self._patch(graph_cls, "record", self._wrap_record(graph_cls.__dict__["record"]))

    def uninstall(self) -> None:
        """Put back every attribute :meth:`install` replaced."""
        for owner, key, value in reversed(self._patched):
            setattr(owner, key, value)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> bool:
        self.uninstall()
        return False

    def originals(self) -> dict[str, object]:
        """Traced span name -> the callable it replaced."""
        return dict(self._originals)

    def _patch(self, owner, key: str, value) -> None:
        self._patched.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, value)

    # -- spans -------------------------------------------------------------

    def _traced(self, name, fn, hooks):
        return functools.update_wrapper(self._wrap(name, fn, *hooks.get(name, ())), fn)

    def _wrap(self, name, fn, pre=None, post=None):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns
        run_id = self.run_id

        def wrapper(*args, **kwargs):
            if pre is not None:
                pre(args, kwargs)
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append((name, 0, 0, parent, run_id))
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, run_id)
            if post is not None:
                post(args, kwargs, result)
            return result

        return wrapper

    def _wrap_record(self, record):
        """Wrap ``Graph.record`` so each backward_fn runs inside a span
        named after the public op that recorded it."""
        spans = self.spans
        stack = self._stack
        wrap = self._wrap

        def traced_record(graph, output, inputs, backward_fn, flops):
            label = spans[stack[-1]][0] if stack else _UNLABELLED
            return record(graph, output, inputs, wrap(f"{label}.bwd", backward_fn), flops)

        return traced_record

    # -- counts ------------------------------------------------------------

    def _dataset_key(self, dataset) -> bytes:
        hit = self._dataset_keys.get(id(dataset))
        if hit is None:
            key = _digest(dataset.images.tobytes(), dataset.labels.tobytes())
            hit = (dataset, key)  # holding the dataset keeps its id from being reused
            self._dataset_keys[id(dataset)] = hit
        return hit[1]

    @staticmethod
    def _pipeline_key(pipeline) -> bytes:
        if hasattr(pipeline, "prompt"):
            mapping = pipeline.mapping.indices if pipeline.mapping is not None else None
            return _digest(
                pipeline.source.byte_signature(),
                pipeline.prompt.params.data.tobytes(),
                repr((mapping, pipeline.pbl)).encode(),
            )
        return _digest(pipeline.params.byte_signature())

    def _hooks(self) -> dict[str, tuple]:
        counts = self.counts

        def count(key, n=1):
            counts[key] += n

        def clean_pass(args, kwargs):
            key = self._pipeline_key(args[0]) + self._dataset_key(args[1])
            count("clean_passes")
            if key in self._clean_keys:
                count("clean_dups")
            self._clean_keys.add(key)

        def prompt_done(args, kwargs, result):
            prompt, _clf, records = result
            outcome = [(r.epoch, r.loss, r.std_acc, r.adv_acc, r.mean_confidence) for r in records]
            key = _digest(prompt.params.data.tobytes(), repr(outcome).encode())
            count("prompt_trainings")
            if key in self._prompt_keys:
                count("prompt_dups")
            self._prompt_keys.add(key)

        def backward_done(args, kwargs, result):
            graph = args[0]
            count("tape_flops", graph.flops)
            counts["tape_bytes"] = max(counts["tape_bytes"], graph.bytes_tracked)

        def saved(args, kwargs, result):
            count("bytes_written", os.path.getsize(args[0]))

        return {
            "nets.forward": (lambda a, k: count("forward_examples", a[1].data.shape[0]), None),
            "attack.fgsm": (lambda a, k: count("fgsm_examples", a[1].data.shape[0]), None),
            "attack.standard_accuracy": (clean_pass, None),
            "attack.adversarial_accuracy": (clean_pass, None),
            "train.train_prompt": (None, prompt_done),
            "tensor.backward": (None, backward_done),
            "checkpoint.save_tensors": (None, saved),
        }

    def dump(self) -> dict:
        """Everything the run recorded, as plain JSON-ready data."""
        return {"spans": [list(s) for s in self.spans], "counts": dict(self.counts)}


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------


def self_times(spans) -> list[float]:
    """Self seconds of every span, in input order.

    A span's self time is its duration minus the part of its interval
    covered by its direct children.  A child is clipped to its parent's
    interval, and overlapping children are counted once.  ``parent`` is
    an index into the spans of the same run id, in input order, so spans
    of different runs never touch each other.
    """
    by_run: dict[int, list[int]] = defaultdict(list)
    for pos, (_n, _s, _e, _p, run) in enumerate(spans):
        by_run[run].append(pos)
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for pos, (_n, start, end, parent, run) in enumerate(spans):
        if parent >= 0:
            children[by_run[run][parent]].append((start, end))
    out = []
    for pos, (_n, start, end, _p, _r) in enumerate(spans):
        covered = 0
        cursor = start
        for c_start, c_end in sorted(children.get(pos, ())):
            lo = max(c_start, cursor)
            hi = min(c_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start - covered) / 1e9)
    return out


def _pointwise(op: str) -> bool:
    return op in ("tensor.relu", "tensor.add_row_bias", "tensor.add_channel_bias", "tensor.reshape")


def layer_metrics(spans, counts) -> dict[str, float]:
    """Per-layer metrics of one traced run (all spans share one run id)."""
    selfs = self_times(spans)
    self_s: dict[str, float] = defaultdict(float)
    incl_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    epoch_eval = 0.0
    for (name, start, end, parent, _r), own in zip(spans, selfs):
        self_s[name] += own
        incl_s[name] += (end - start) / 1e9
        calls[name] += 1
        if name in ("attack.standard_accuracy", "attack.adversarial_accuracy") and parent >= 0:
            if spans[parent][0].startswith("train."):
                epoch_eval += (end - start) / 1e9

    def group(pred, suffix=""):
        return sum(v for k, v in self_s.items() if k.endswith(suffix) and pred(k[: len(k) - len(suffix)]))

    root_s = sum(incl_s[r] for r in ROOTS)
    root_self = sum(self_s[r] for r in ROOTS)
    return {
        "tensor.conv2d.fwd_s": self_s["tensor.conv2d"],
        "tensor.conv2d.bwd_s": self_s["tensor.conv2d.bwd"],
        "tensor.conv2d.calls": calls["tensor.conv2d"],
        "tensor.matmul.fwd_s": self_s["tensor.matmul"],
        "tensor.matmul.bwd_s": self_s["tensor.matmul.bwd"],
        "tensor.pointwise.fwd_s": group(_pointwise),
        "tensor.pointwise.bwd_s": group(_pointwise, ".bwd"),
        "tensor.xent.fwd_s": self_s["tensor.softmax_cross_entropy"],
        "tensor.xent.bwd_s": self_s["tensor.softmax_cross_entropy.bwd"],
        "tensor.backward.self_s": self_s["tensor.backward"],
        "tensor.tape_flops": counts.get("tape_flops", 0),
        "tensor.tape_bytes": counts.get("tape_bytes", 0),
        "nets.forward.calls": calls["nets.forward"],
        "nets.forward.examples": counts.get("forward_examples", 0),
        "nets.forward.self_s": self_s["nets.forward"],
        "prompt.apply.fwd_s": self_s["prompt.apply_prompt"],
        "prompt.apply.bwd_s": self_s["prompt.apply_prompt.bwd"],
        "prompt.project_s": self_s["prompt.project"],
        "mapping.block_reduce.fwd_s": self_s["mapping.block_reduce"],
        "mapping.block_reduce.bwd_s": self_s["mapping.block_reduce.bwd"],
        "mapping.map_labels.fwd_s": self_s["mapping.map_labels"],
        "mapping.map_labels.bwd_s": self_s["mapping.map_labels.bwd"],
        "mapping.freq_s": self_s["mapping.prediction_frequencies"],
        "mapping.ilm_s": self_s["mapping.ilm_update"],
        "mapping.ilm.calls": calls["mapping.ilm_update"],
        "attack.fgsm_s": self_s["attack.fgsm"],
        "attack.fgsm.examples": counts.get("fgsm_examples", 0),
        "attack.std_eval_s": self_s["attack.standard_accuracy"],
        "attack.adv_eval_s": self_s["attack.adversarial_accuracy"],
        "attack.clean_dup_frac": counts.get("clean_dups", 0) / max(counts.get("clean_passes", 0), 1),
        "optim.step_s": self_s["optim.sgd_step"] + self_s["optim.step"],
        "optim.steps": calls["optim.sgd_step"],
        "train.standard_s": incl_s["train.train_standard"],
        "train.adversarial_s": incl_s["train.train_adversarial"],
        "train.prompt_s": incl_s["train.train_prompt"],
        "train.self_s": group(lambda k: k.startswith("train.")),
        "train.epoch_eval_s": epoch_eval,
        "train.prompt_dup_frac": counts.get("prompt_dups", 0) / max(counts.get("prompt_trainings", 0), 1),
        "data.generate_s": self_s["data.generate_synthetic"],
        "data.generate.calls": calls["data.generate_synthetic"],
        "checkpoint.save_s": group(lambda k: k.startswith("checkpoint.save_")),
        "checkpoint.load_s": group(lambda k: k.startswith("checkpoint.load_")),
        "checkpoint.bytes_written": counts.get("bytes_written", 0),
        "metrics.write_s": self_s["metrics.write_metrics"],
        "harness.config_s": incl_s["harness.from_dict"],
        "harness.self_s": root_self,
        "harness.export_s": self_s["harness.export_prompt_image"],
        "trace.unattributed_frac": root_self / root_s if root_s else 0.0,
    }


# Metrics that are counts or ratios of counts: they must repeat exactly.
EXACT = (
    "tensor.conv2d.calls",
    "tensor.tape_flops",
    "tensor.tape_bytes",
    "nets.forward.calls",
    "nets.forward.examples",
    "mapping.ilm.calls",
    "attack.fgsm.examples",
    "attack.clean_dup_frac",
    "optim.steps",
    "train.prompt_dup_frac",
    "data.generate.calls",
    "checkpoint.bytes_written",
)
