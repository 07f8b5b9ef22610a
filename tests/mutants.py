"""Mutation checks that outlive the change that proved them.

Each entry of :data:`MUTANTS` names a file, an exact text in it, the text
that replaces it, the test ids (``file::name``, or ``file::Class::name``)
that must each fail once it is replaced, and one line of why.  ``python
tests/mutants.py`` applies one mutant at a time to a fresh copy of
``src/``, ``tests/`` and ``pyproject.toml`` in a temporary directory, so
the copy's ``pythonpath = ["src"]`` cannot load the unmutated package,
runs the named tests there, and prints killed, when every named test
failed (in at least one of its cases), or survived; it runs two mutants at
a time, prints them in order, and exits 1 if a mutant survived or its
tests could not run.

``tests/test_mutants.py`` checks that each old text still occurs exactly
once in its file, so a refactor that moves one updates its entry here.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "pyproject.toml")


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # relative to the repository root
    old: str  # occurs exactly once in ``file``
    new: str
    tests: tuple[str, ...]  # test ids, their files relative to the repository root, that must each fail
    why: str


MUTANTS = [
    # an attack differentiates only its input
    Mutant(
        "attack-graph-without-wrt",
        "src/promptlab/attack.py",
        "with Graph(wrt=xt) as g:",
        "with Graph() as g:",
        (
            "tests/test_attack.py::test_fgsm_differentiates_only_the_input",
            "tests/test_attack.py::test_attacks_leave_no_gradient_on_a_trained_unfrozen_source",
            "tests/test_train.py::test_training_attack_differentiates_only_the_input",
        ),
        "an attack pass must form only the input gradient, whoever calls it",
    ),
    Mutant(
        "needs-grad-without-wrt",
        "src/promptlab/tensor.py",
        "return g is not None and x.requires_grad and (g.wrt is None or x is g.wrt or made_here)",
        "return g is not None and x.requires_grad",
        ("tests/test_tensor.py::test_a_wrt_graph_forms_only_the_input_gradient",),
        "a wrt graph must neither keep what, nor fill gradients that, only other leaves need",
    ),
    Mutant(
        "conv2d-reads-the-kernel-flag",
        "src/promptlab/tensor.py",
        "if _needs_grad(kernel) else None",
        "if kernel.requires_grad else None",
        ("tests/test_tensor.py::test_a_wrt_graph_conv2d_keeps_no_patches",),
        "conv2d under Graph(wrt=x) must keep no patches for a kernel that requires grad",
    ),
    Mutant(
        "add-row-bias-reads-the-bias-flag",
        "src/promptlab/tensor.py",
        """(K,), got {x.data.shape} and {bias.data.shape}"
        )
    x_grad, bias_grad = _needs_grad(x), _needs_grad(bias)""",
        """(K,), got {x.data.shape} and {bias.data.shape}"
        )
    x_grad, bias_grad = _needs_grad(x), bias.requires_grad""",
        ("tests/test_tensor.py::test_a_wrt_graph_forms_only_the_input_gradient",),
        "add_row_bias under Graph(wrt=x) must form no bias gradient",
    ),
    Mutant(
        "record-op-reads-the-input-flags",
        "src/promptlab/tensor.py",
        "out.requires_grad = any(map(_needs_grad, inputs)) if _GRAPH_STACK",
        "out.requires_grad = any(t.requires_grad for t in inputs) if _GRAPH_STACK",
        ("tests/test_tensor.py::test_a_wrt_graph_drops_the_gradients_a_custom_op_forms_for_other_leaves",),
        "an op's output must require grad only when an input needs a gradient from the open graph",
    ),
    # trainability is one fact
    Mutant(
        "backward-fills-every-flagged-leaf",
        "src/promptlab/tensor.py",
        "elif _needs_grad(src, self):",
        "elif src.requires_grad:",
        ("tests/test_tensor.py::test_a_wrt_graph_drops_the_gradients_a_custom_op_forms_for_other_leaves",),
        "backward must drop the gradients a custom op forms for leaves other than wrt",
    ),
    Mutant(
        "backward-overwrites-a-fan-out-gradient",
        "src/promptlab/tensor.py",
        "if src in grads:",
        "if False:",
        ("tests/test_tensor.py::test_fan_out_of_an_op_output_sums_both_paths",),
        "an op output that feeds two inputs must get the sum of both gradients, not the last one",
    ),
    Mutant(
        "copy-thaws-by-default",
        "src/promptlab/nets.py",
        "requires_grad=t.requires_grad if frozen is None else not frozen",
        "requires_grad=True if frozen is None else not frozen",
        ("tests/test_nets.py::test_frozen_reads_the_flags_and_copy_keeps_them",),
        "copy() must keep each tensor's flag unless told to freeze or thaw",
    ),
    Mutant(
        "frozen-when-any-flag-is-off",
        "src/promptlab/nets.py",
        "return not any(t.requires_grad for t in self.tensors.values())",
        "return not all(t.requires_grad for t in self.tensors.values())",
        (
            "tests/test_nets.py::test_frozen_reads_the_flags_and_copy_keeps_them",
            "tests/test_train.py::test_prompt_refuses_a_source_with_one_tensor_thawed",
        ),
        "a bundle is frozen only when no tensor requires grad",
    ),
    Mutant(
        "labels-not-checked-whole",
        "src/promptlab/data.py",
        "if not np.array_equal(self.labels, labels):",
        "if False:",
        ("tests/test_data.py::TestDatasetValidation::test_rejects_labels_that_are_not_whole_numbers",),
        "a label that is not a whole number must be refused, not truncated",
    ),
    # an epoch is scored one way
    Mutant(
        "score-reports-the-protocol-figure-at-zero",
        "src/promptlab/train.py",
        "report.adversarial_accuracy if budget.epsilon > 0.0 else 0.0",
        "report.adversarial_accuracy",
        ("tests/test_train.py::test_metrics_epsilon_turns_on_adversarial_column",),
        "adv_acc must read 0.0, not measured, when metrics_epsilon is 0 (the protocol reads 1.0 there)",
    ),
    Mutant(
        "every-epoch-attacked",
        "src/promptlab/train.py",
        "budget if epoch == last else clean",
        "budget",
        ("tests/test_train.py::test_metrics_epsilon_turns_on_adversarial_column",),
        "every epoch but a phase's last is scored clean, with adv_acc 0.0, not measured",
    ),
    Mutant(
        "last-epoch-clean",
        "src/promptlab/train.py",
        "budget if epoch == last else clean",
        "clean",
        ("tests/test_train.py::test_metrics_epsilon_turns_on_adversarial_column",),
        "a phase's last epoch is attacked at metrics_epsilon",
    ),
    # an ε is parsed once
    Mutant(
        "engine-scores-at-zero",
        "src/promptlab/train.py",
        "budget = AttackConfig(metrics_epsilon)",
        "budget = AttackConfig(0.0)",
        ("tests/test_train.py::test_metrics_epsilon_turns_on_adversarial_column",),
        "a phase must refuse, and score its last epoch at, the metrics_epsilon it was given",
    ),
    # a phase scores only the set it is given
    Mutant(
        "cells-score-the-training-split",
        "src/promptlab/harness.py",
        '_score(clf, data["downstream_test"], budget)',
        '_score(clf, data["downstream_train"], budget)',
        ("tests/test_harness.py::test_sweep_rows_score_each_final_prompt",),
        "the sweep and the ablation score each cell's final prompt on downstream_test",
    ),
    # README contracts that name a test
    Mutant(
        "save-writes-a-nan-payload",
        "src/promptlab/checkpoint.py",
        """        if not np.isfinite(arr).all():
            raise CheckpointError(f"NaN or Inf in entry '{name}'")
        entries.append""",
        """        entries.append""",
        ("tests/test_checkpoint.py::test_save_refuses_what_load_refuses",),
        "the VPCK writer must refuse what the reader would (test_save_refuses_what_load_refuses)",
    ),
    Mutant(
        "read-exact-trusts-the-count",
        "src/promptlab/fileio.py",
        "if count > os.fstat(fh.fileno()).st_size - fh.tell():",
        "if False:",
        (
            "tests/test_checkpoint.py::test_any_truncation_or_byte_change_loads_or_raises_checkpoint_error",
            "tests/test_data.py::test_any_truncation_or_byte_change_loads_or_raises_data_format_error",
        ),
        "a truncated VPCK or VPDS file must fail as its own format error (the truncation fuzz tests)",
    ),
    Mutant(
        "json-artifacts-reindented",
        "src/promptlab/harness.py",
        "json.dumps(obj, indent=2, sort_keys=True)",
        "json.dumps(obj, indent=1, sort_keys=True)",
        ("tests/test_acceptance.py::test_normative_files_match_the_golden_manifest",),
        "the golden test names a normative file whose bytes moved (report.json here)",
    ),
    Mutant(
        "step-in-ball-drops-the-bit-step",
        "src/promptlab/attack.py",
        "if not (up.any() or down.any()):",
        "if True:",
        (
            "tests/test_attack.py::test_fgsm_ball_and_range_hold_exactly",
            "tests/test_attack.py::test_fgsm_rejects_an_input_outside_the_ball",
        ),
        "fgsm must return a batch inside the float32 eps-ball (test_fgsm_ball_and_range_hold_exactly)",
    ),
    Mutant(
        "protocol-scores-over-every-sample",
        "src/promptlab/attack.py",
        "EvalReport(std_acc, s / n_correct if n_correct else 0.0",
        "EvalReport(std_acc, s / n_total if n_correct else 0.0",
        ("tests/test_attack.py::test_restricted_protocol_scores_survivors_only",),
        "robust accuracy counts survivors among the initially correct (test_restricted_protocol_scores_survivors_only)",
    ),
    Mutant(
        "vpds-truncates-pixels",
        "src/promptlab/data.py",
        "pixels = np.rint(dataset.images * 255.0).astype(np.uint8)",
        "pixels = (dataset.images * 255.0).astype(np.uint8)",
        ("tests/test_data.py::test_round_trip_quantizes_arbitrary_floats",),
        "a VPDS pixel comes back as round(255 v) / 255 (test_round_trip_quantizes_arbitrary_floats)",
    ),
    Mutant(
        "pin-sets-two-threads",
        "src/promptlab/blas.py",
        "set_threads(1)",
        "set_threads(2)",
        ("tests/test_blas.py::test_artifacts_do_not_depend_on_blas_threads",),
        "importing promptlab pins the BLAS to one thread (test_artifacts_do_not_depend_on_blas_threads reads "
        "each run's recorded pin, as both its runs would otherwise agree at two)",
    ),
    Mutant(
        "write-in-place",
        "src/promptlab/fileio.py",
        'tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")',
        "tmp = path",
        ("tests/test_fileio.py::test_failed_write_keeps_previous_contents",),
        "a write goes to a temporary file renamed over the target (test_failed_write_keeps_previous_contents)",
    ),
    Mutant(
        "grid-attacks-at-zero",
        "src/promptlab/attack.py",
        "attacked = [k for k, cfg in enumerate(budgets) if cfg.epsilon != 0.0]",
        "attacked = list(range(len(budgets)))",
        ("tests/test_attack.py::test_epsilon_grid_shares_one_clean_pass",),
        "an epsilon grid makes one clean pass and attacks only where epsilon > 0 "
        "(test_epsilon_grid_shares_one_clean_pass)",
    ),
    # evaluation holds one batch at a time
    Mutant(
        "protocol-copies-the-correct-subset",
        "src/promptlab/attack.py",
        "xb, yb = dataset.images[rows], dataset.labels[rows]",
        "xb, yb = dataset.images[correct][start : start + batch], dataset.labels[rows]",
        ("tests/test_attack.py::test_scoring_memory_is_bounded_by_the_batch",),
        "the protocol gathers each batch of correct examples by index, never the whole correct subset "
        "(test_scoring_memory_is_bounded_by_the_batch)",
    ),
    Mutant(
        "eval-batch-256",
        "src/promptlab/tensor.py",
        "_EVAL_BATCH = 128",
        "_EVAL_BATCH = 256",
        (
            "tests/test_attack.py::test_scoring_memory_is_bounded_by_the_batch",
            "tests/test_mapping.py::test_tally_memory_is_bounded_by_the_batch",
        ),
        "scoring and the ILM tally run 128 examples at a time (test_scoring_memory_is_bounded_by_the_batch, "
        "test_tally_memory_is_bounded_by_the_batch)",
    ),
    # harness contracts
    Mutant(
        "session-makes-the-directory-before-the-data",
        "src/promptlab/harness.py",
        """    data = cfg.datasets()  # before the output directory exists: a VPDS payload fault leaves none behind
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
""",
        """    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    data = cfg.datasets()  # before the output directory exists: a VPDS payload fault leaves none behind
""",
        ("tests/test_harness.py::test_a_truncated_split_fails_before_the_output_directory",),
        "a run loads every split before it creates the output directory, so a payload fault leaves none",
    ),
    Mutant(
        "checkpointed-config-needs-the-source-splits",
        "src/promptlab/harness.py",
        "for key in _SPLITS if ckpt is None else _SPLITS[2:]:",
        "for key in _SPLITS:",
        ("tests/test_harness.py::test_checkpointed_config_reads_only_the_downstream_splits",),
        "a config that loads its source from source.checkpoint neither reads nor needs a source split",
    ),
    Mutant(
        "config-json-does-not-load-back",
        "src/promptlab/harness.py",
        """        raw.pop("derived_seeds", None)  # a run's own config.json records them; re-derived below
""",
        "",
        ("tests/test_harness.py::test_optional_keys_default_and_stay_out_of_config_json",),
        "a run's own config.json, derived_seeds and all, loads back as its config",
    ),
    Mutant(
        "config-json-drops-the-derived-seeds",
        "src/promptlab/harness.py",
        '{**cfg.raw, "derived_seeds": cfg.derived_seeds}',
        "cfg.raw",
        ("tests/test_harness.py::test_derived_seed_oracle",),
        "config.json records the per-stage seeds derived from the top-level seed",
    ),
    Mutant(
        "config-accepts-an-unknown-key",
        "src/promptlab/harness.py",
        "raise ConfigError(f\"unknown config key '{at}'\")",
        "pass",
        ("tests/test_harness.py::test_config_validation_messages",),
        "a config key the schema does not know is refused by name",
    ),
    Mutant(
        "config-takes-a-path",
        "src/promptlab/harness.py",
        "if not isinstance(raw, dict):",
        "if False:",
        ("tests/test_harness.py::test_entry_points_refuse_a_path",),
        "an entry point given a config path, not a dict, fails before it creates the output directory",
    ),
    Mutant(
        "config-names-the-argument-for-the-split",
        "src/promptlab/harness.py",
        "_check_data(key, self._split_shape(key)",
        '_check_data("dataset", self._split_shape(key)',
        ("tests/test_harness.py::test_config_runs_and_train_prompt_state_a_fault_in_one_text",),
        "a config run states train_prompt's fault in the same words, naming the split for the argument",
    ),
    Mutant(
        "checkpointed-source-is-not-copied",
        "src/promptlab/harness.py",
        """        save_model(out / "source.ckpt", cfg.source_params)
        return cfg.source_params""",
        """        return cfg.source_params""",
        ("tests/test_harness.py::test_checkpoint_reuse_skips_source_training",),
        "a run from source.checkpoint writes that source, byte for byte, and trains no source",
    ),
    Mutant(
        "session-yields-a-thawed-source",
        "src/promptlab/harness.py",
        """    params.freeze()
    return params""",
        """    return params""",
        ("tests/test_package.py::test_session_yields_the_run_setup_and_writes_timing_at_the_end",),
        "session yields the source frozen, as every prompt phase needs it",
    ),
    Mutant(
        "run-writes-no-prompt-image",
        "src/promptlab/harness.py",
        'export_prompt_image(prompt, out / "prompt.ppm")',
        "pass",
        ("tests/test_harness.py::test_run_writes_all_artifacts",),
        "a run writes every artifact the README lists, prompt.ppm among them",
    ),
    Mutant(
        "timing-records-the-os-as-the-machine",
        "src/promptlab/harness.py",
        '"machine": platform.machine(),',
        '"machine": platform.system(),',
        ("tests/test_harness.py::test_timing_records_the_environment_and_what_the_run_cost",),
        "timing.json records the machine type a run ran on",
    ),
    Mutant(
        "sweep-baseline-has-no-stage",
        "src/promptlab/harness.py",
        "PblConfig(temperature),",
        "PblConfig(temperature) if temperature > 1 else None,",
        ("tests/test_harness.py::test_sweep_baseline_is_the_temperature_one_cell",),
        "the sweep's baseline is the T = 1 cell, with a reduction stage like every other cell",
    ),
    Mutant(
        "cells-score-every-epoch",
        "src/promptlab/harness.py",
        "_, clf, records = _train_prompt_phase(cfg, source, data, temperature, adversarial)",
        '_, clf, records = _train_prompt_phase(cfg, source, data, temperature, adversarial, data["downstream_test"])',
        ("tests/test_harness.py::test_prompt_evaluations_per_entry_point",),
        "a sweep or ablation cell scores only its final prompt",
    ),
    Mutant(
        "ablation-reduces-every-cell",
        "src/promptlab/harness.py",
        '"T": cfg.temperature if use_pbl else 1',
        '"T": cfg.temperature',
        ("tests/test_harness.py::test_ablation_grid_cells_and_costs",),
        "the ablation's cells without reduction run at T = 1",
    ),
    Mutant(
        "training-shuffles-unseeded",
        "src/promptlab/train.py",
        "rng = np.random.Generator(np.random.PCG64(hyper.seed))",
        "rng = np.random.default_rng()",
        ("tests/test_harness.py::test_rerun_is_bitwise_identical",),
        "a rerun of one config and seed writes the same bytes",
    ),
    Mutant(
        "cli-lets-a-decode-error-through",
        "src/promptlab/harness.py",
        "except (json.JSONDecodeError, UnicodeDecodeError) as exc:",
        "except json.JSONDecodeError as exc:",
        ("tests/test_cli.py::test_config_that_is_not_utf8_reports_one_config_error",),
        "a config file that is not UTF-8 is one config error, not a traceback",
    ),
    Mutant(
        "cli-prints-the-class-name",
        "src/promptlab/cli.py",
        'print(f"error[{exc.code}] {exc}", file=sys.stderr)',
        'print(f"error[{type(exc).__name__}] {exc}", file=sys.stderr)',
        ("tests/test_cli.py::test_each_error_class_prints_its_code",),
        "the command line prints each error as error[code] message",
    ),
    Mutant(
        "import-leaves-the-thresholds",
        "src/promptlab/__init__.py",
        "heap.fix_thresholds()\n",
        "",
        ("tests/test_heap.py::test_import_fixes_both_thresholds",),
        "importing promptlab fixes glibc's malloc thresholds",
    ),
    Mutant(
        "package-exports-a-fileio-name",
        "src/promptlab/metrics.py",
        '"WorkMeter", "WORK_FLOPS_PER_MS"]',
        '"WorkMeter", "WORK_FLOPS_PER_MS", "write_table"]',
        ("tests/test_package.py::test_the_package_exports_no_other_name",),
        "promptlab exports each library module's __all__ and no module-level name",
    ),
    Mutant(
        "metrics-read-lets-a-bad-cast-through",
        "src/promptlab/metrics.py",
        "except (ValueError, NumericsError) as exc:",
        "except NumericsError as exc:",
        ("tests/test_metrics.py::TestCsvFormat::test_read_rejects_malformed_cell",),
        "a metrics cell that does not cast fails as DataFormatError naming the file and row",
    ),
    Mutant(
        "wall-ms-truncates",
        "src/promptlab/metrics.py",
        "return int(round(self.flops / WORK_FLOPS_PER_MS))",
        "return int(self.flops / WORK_FLOPS_PER_MS)",
        ("tests/test_metrics.py::TestWorkMeter::test_wall_ms_is_rounded_flop_count",),
        "wall_ms is the flop count rounded at the nominal rate",
    ),
    Mutant(
        "graph-counts-an-outside-input-per-read",
        "src/promptlab/tensor.py",
        "if id(t) not in self._outside:",
        "if True:",
        ("tests/test_tensor.py::test_bytes_tracked_counts_each_output_and_each_outside_input_once",),
        "bytes_tracked counts an outside input once, however many ops read it",
    ),
    Mutant(
        "conv2d-scatters-in-reverse-order",
        "src/promptlab/tensor.py",
        "np.add.at(gx[b], index, row)",
        "np.add.at(gx[b], index[::-1], row[::-1])",
        ("tests/test_tensor.py::test_conv2d_input_gradient_adds_each_pixels_terms_in_kernel_offset_order",),
        "each input pixel's gradient adds its terms in kernel-offset order, as the im2col formulation does",
    ),
    Mutant(
        "record-op-keeps-float64",
        "src/promptlab/tensor.py",
        "out.data = _as_f32(data)",
        "out.data = np.asarray(data)",
        ("tests/test_tensor.py::test_custom_op_output_is_float32_and_requires_grad_when_an_input_does",),
        "every op output is float32, whatever dtype the op computed in",
    ),
    Mutant(
        "tape-holds-op-outputs",
        "src/promptlab/tensor.py",
        "if t.node is not None and t.node[0] is self:",
        "if False:",
        ("tests/test_tensor.py::test_the_tape_holds_no_activations",),
        "the tape names an op output by position, so it keeps no activation alive",
    ),
    Mutant(
        "eval-set-not-checked",
        "src/promptlab/train.py",
        'for name, ds in (("dataset", dataset), ("eval_dataset", eval_dataset)):',
        'for name, ds in (("dataset", dataset),):',
        ("tests/test_train.py::test_malformed_eval_dataset_is_refused_before_the_first_step",),
        "an evaluation set the phase cannot score is refused before the first step",
    ),
    Mutant(
        "class-bound-not-checked",
        "src/promptlab/train.py",
        "if n_classes > most:",
        "if False:",
        ("tests/test_train.py::test_malformed_training_set_is_refused_before_the_first_step",),
        "a training set with more classes than the phase can label is refused before the first step",
    ),
    Mutant(
        "no-eval-set-scores-the-training-set",
        "src/promptlab/train.py",
        "std_acc, adv_acc = 0.0, 0.0  # not measured",
        "std_acc, adv_acc = _score(pipeline, dataset, clean)",
        (
            "tests/test_train.py::test_no_evaluation_set_scores_nothing_and_forks_nothing",
            "tests/test_train.py::test_evaluation_set_changes_only_the_accuracies",
        ),
        "with no eval_dataset a phase scores nothing, and reads 0.0, not measured",
    ),
    Mutant(
        "no-stage-maps-as-t2",
        "src/promptlab/train.py",
        "t = pbl.temperature if pbl is not None else 1",
        "t = pbl.temperature if pbl is not None else 2",
        ("tests/test_train.py::test_temperature_one_equals_no_reduction",),
        "no reduction stage and a T = 1 stage train the same prompt",
    ),
    # the per-step path passes Tensors
    Mutant(
        "ilm-tallies-the-mapped-logits",
        "src/promptlab/train.py",
        "prediction_frequencies(clf.reduced, dataset)",
        "prediction_frequencies(clf.logits, dataset)",
        ("tests/test_train.py::test_ilm_final_mapping_matches_final_frequencies",),
        "the ILM tally reads the reduced logits, before any label mapping",
    ),
    Mutant(
        "adversarial-step-trains-on-the-clean-batch",
        "src/promptlab/train.py",
        "xb = fgsm(pipeline, xb, yb, attack, meter=meter)",
        "fgsm(pipeline, xb, yb, attack, meter=meter)",
        ("tests/test_train.py::test_adversarial_training_changes_the_model",),
        "an adversarial step trains on the batch fgsm returns",
    ),
    Mutant(
        "map-labels-backward-swaps-columns",
        "src/promptlab/mapping.py",
        "gi[:, cols] = g",
        "gi[:, cols[::-1]] = g",
        ("tests/test_mapping.py::test_map_labels_gradient_scatters_to_source_columns",),
        "each downstream class's gradient lands on the reduced column it is mapped to",
    ),
    # value objects refuse what they cannot use
    Mutant(
        "pbl-config-takes-a-float",
        "src/promptlab/mapping.py",
        "if isinstance(self.temperature, bool) or not isinstance(self.temperature, (int, np.integer)):",
        "if False:",
        ("tests/test_mapping.py::test_pbl_config_refuses_a_temperature_that_is_not_an_integer",),
        "a temperature that is not an integer is refused when PblConfig is built",
    ),
    Mutant(
        "attack-config-takes-a-bool",
        "src/promptlab/attack.py",
        "if isinstance(self.epsilon, (bool, np.bool_)):",
        "if False:",
        ("tests/test_attack.py::test_attack_config_rejects_a_bool_epsilon",),
        "a bool is no epsilon, though True compares as 1.0",
    ),
]


def mutated(mutant: Mutant, text: str) -> str:
    """``text`` with the mutant's old text replaced; a ValueError unless it occurs exactly once."""
    count = text.count(mutant.old)
    if count != 1:
        raise ValueError(f"{mutant.name}: its old text occurs {count} times in {mutant.file}, not once")
    return text.replace(mutant.old, mutant.new)


def run(mutant: Mutant) -> tuple[str, str]:
    """Run the mutant's tests on a mutated copy of the repository: ("killed",
    the first failure pytest names) when each named test failed, else
    ("survived", the named tests that passed), or ("error", its output tail)
    when pytest could not run them."""
    with tempfile.TemporaryDirectory(prefix="promptlab-mutant-") as tmp:
        root = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
        for name in COPIED:
            if (ROOT / name).is_dir():
                shutil.copytree(ROOT / name, root / name, ignore=skip)
            else:
                shutil.copy2(ROOT / name, root / name)
        path = root / mutant.file
        path.write_text(mutated(mutant, path.read_text()))
        env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        command = [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *mutant.tests]
        done = subprocess.run(command, cwd=root, env=env, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines() or [done.stderr.strip()]
    if done.returncode not in (0, 1):
        return "error", "\n".join(lines[-20:])
    failed = [line.split()[1] for line in lines if line.startswith(("FAILED ", "ERROR "))]
    passed = [t for t in mutant.tests if not any(f == t or f.startswith(f"{t}[") for f in failed)]
    if passed:
        return "survived", f"passed: {', '.join(passed)}"
    return "killed", next(line for line in lines if line.startswith(("FAILED ", "ERROR ")))


def timed(mutant: Mutant) -> tuple[str, str, float]:
    start = time.perf_counter()
    return (*run(mutant), time.perf_counter() - start)


def main() -> int:
    failed = 0
    # each run is a pytest process of its own, so two threads keep two CPUs busy
    with ThreadPoolExecutor(max_workers=min(2, os.cpu_count() or 1)) as pool:
        for mutant, (verdict, last, seconds) in zip(MUTANTS, pool.map(timed, MUTANTS)):
            failed += verdict != "killed"
            print(f"{verdict:<8} {mutant.name} ({mutant.file}, {seconds:.1f} s): {last}", flush=True)
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
