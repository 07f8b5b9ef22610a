"""Command-line front end.

Subcommands: ``train-source``, ``train-prompt``, ``eval``, ``sweep-T``,
``report``.  All take ``--config PATH`` plus optional ``--seed U64``
and ``--out DIR`` overrides.  Failures print one machine-greppable
``error[code] message`` line to stderr, the code being the error class's
``code``, and exit nonzero.
"""

from __future__ import annotations

import argparse
import sys

from .errors import PromptLabError
from .harness import (
    ExperimentConfig,
    run_ablation_grid,
    run_experiment,
    session,
    sweep_temperature,
    train_and_save_prompt,
)

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="promptlab",
        description="Visual-prompt transfer experiments on frozen source classifiers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in [
        ("train-source", "train the source classifier and write its checkpoint"),
        ("train-prompt", "train a visual prompt against the (trained) source"),
        ("eval", "full run: source, prompt, evaluation sweep, report"),
        ("sweep-T", "temperature sweep against the T = 1 baseline"),
        ("report", "run the reduction x adversarial-training ablation grid"),
    ]:
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", required=True, metavar="PATH", help="JSON experiment config")
        p.add_argument("--seed", type=int, default=None, metavar="U64", help="override config seed")
        p.add_argument("--out", default=None, metavar="DIR", help="override output directory")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = ExperimentConfig.from_file(args.config, seed_override=args.seed, out_override=args.out)
        out = cfg.output_dir
        if args.command == "train-source":
            with session(cfg):
                pass
            print(f"source checkpoint written to {out / 'source.ckpt'}")
        elif args.command == "train-prompt":
            with session(cfg) as (cfg, data, source, timing):
                train_and_save_prompt(cfg, data, source, timing)
            print(f"prompt checkpoint written to {out / 'prompt.ckpt'}")
        elif args.command == "eval":
            report = run_experiment(cfg)
            print(f"report written to {out / 'report.json'}")
            for row in report["prompt_eval"]:
                print(
                    f"epsilon={row['epsilon']:.3f} std_acc={row['standard_accuracy']:.4f} "
                    f"adv_acc={row['adversarial_accuracy']:.4f}"
                )
        elif args.command == "sweep-T":
            sweep_temperature(cfg)
            sys.stdout.write((out / "sweep.csv").read_text())
        elif args.command == "report":
            run_ablation_grid(cfg)
            sys.stdout.write((out / "ablation.csv").read_text())
    except PromptLabError as exc:
        print(f"error[{exc.code}] {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
