"""Train the two source classifiers and compare their robustness.

The standard model sees only clean batches; the robust one warm-starts
from it and then trains on sign-attacked batches.  The table at the end
shows what that buys: comparable clean accuracy, but a much larger
fraction of predictions survive the attack at every budget.

    python3 demos/train_source_pair.py
    python3 demos/train_source_pair.py --full   # shipped default scale
"""

import argparse

from promptlab import (
    AttackConfig,
    SourceClassifier,
    adversarial_accuracies,
    init_params,
    train_adversarial,
    train_standard,
)
from promptlab.harness import ExperimentConfig, default_config


def build_config(full: bool, seed: int) -> ExperimentConfig:
    raw = default_config(seed=seed)
    if not full:
        raw["source"]["spec"].update({"input_size": [1, 20, 20], "n_classes": 10})
        raw["source"]["hyper"]["epochs"] = 12
        raw["source"]["at_hyper"]["epochs"] = 10
        raw["prompt"]["temperature_grid"] = [1, 2]  # T=4 would leave too few slots
        raw["data"]["source"].update({"n_classes": 10, "samples_per_class": 20,
                                      "image_size": [1, 20, 20]})
        raw["data"]["downstream"].update({"image_size": [1, 12, 12]})
    return ExperimentConfig.from_dict(raw)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--full", action="store_true", help="use the shipped default grid")
    ap.add_argument("--epsilons", type=float, nargs="+", default=[0.02, 0.05, 0.1])
    args = ap.parse_args()

    cfg = build_config(args.full, args.seed)
    data = cfg.datasets()

    print(f"source task: {cfg.source_spec.n_classes} classes at "
          f"{cfg.source_spec.input_size}, seed {args.seed}")
    params = init_params(cfg.source_spec, cfg.derived_seeds["source_init"])
    standard, _ = train_standard(params, data["source_train"], cfg.source_hyper)
    robust = standard.copy()
    robust, _ = train_adversarial(
        robust, data["source_train"], cfg.source_at_hyper, cfg.source_attack
    )

    models = {"standard": SourceClassifier(standard), "robust": SourceClassifier(robust)}
    print(f"\n{'model':<10} {'clean':>7}", *(f"surv@{e:g}".rjust(10) for e in args.epsilons))
    for name, clf in models.items():
        reps = adversarial_accuracies(clf, data["source_test"], [AttackConfig(e) for e in args.epsilons])
        print(f"{name:<10}", f"{reps[0].standard_accuracy:7.3f}", *(f"{r.adversarial_accuracy:10.3f}" for r in reps))
    print("\nsurv@eps = fraction of initially-correct test samples still "
          "correct after the attack")


if __name__ == "__main__":
    main()
