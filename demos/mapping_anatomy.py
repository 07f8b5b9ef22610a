"""Watch the frequency-based label mapping pick its indices.

A prompt pipeline needs an injective map from downstream classes to
(reduced) source logits.  The iterative policy tallies, per downstream
class, which reduced index the pipeline currently predicts most often,
then greedily assigns the largest counts first.  This script prints the
tally matrix and the resulting assignment before and after prompt
training, so you can see the mapping follow the prompt.
"""

import argparse

import numpy as np

from promptlab import (
    ConvNetSpec,
    PblConfig,
    PromptedClassifier,
    SynthSpec,
    TrainHyper,
    VisualPrompt,
    generate_synthetic,
    ilm_update,
    init_params,
    prediction_frequencies,
    train_prompt,
    train_standard,
)


def show(freq, mapping, k_t):
    print("   reduced index:", "".join(f"{j:>5}" for j in range(freq.counts.shape[1])))
    for c in range(k_t):
        marks = ["  *" if mapping.indices[c] == j else "   " for j in range(freq.counts.shape[1])]
        cells = "".join(f"{int(v):>3}{m[-2:]}" for v, m in zip(freq.counts[c], marks))
        print(f"   class {c}:      {cells}")
    print(f"   assignment: {list(mapping.indices)}  (* = chosen column)\n")


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--temperature", type=int, default=2)
    ap.add_argument("--epochs", type=int, default=10)
    args = ap.parse_args()

    spec = ConvNetSpec((1, 16, 16), ((8, 3, 2), (16, 3, 2)), 32, 8)
    source_train = generate_synthetic(SynthSpec(8, 20, (1, 16, 16), "source", 0.4, seed=1))
    downstream = generate_synthetic(SynthSpec(3, 20, (1, 8, 8), "downstream", 0.35, seed=2))

    params = init_params(spec, seed=0)
    params, _ = train_standard(params, source_train, TrainHyper(8, 16, 0.05, 0.9, 3))
    source = params.copy(frozen=True)
    pbl = PblConfig(temperature=args.temperature)

    # untrained prompt: the tallies reflect only the source's habits
    blank = PromptedClassifier(source, VisualPrompt(spec.input_size, 4), mapping=None, pbl=pbl)
    freq0 = prediction_frequencies(blank.reduced_fn, downstream)
    print(f"before training (T={args.temperature}, m={pbl.m(spec.n_classes)}):")
    show(freq0, ilm_update(freq0), downstream.n_classes)

    _, clf, records = train_prompt(
        source, downstream, "ilm", pbl, TrainHyper(args.epochs, 16, 0.2, 0.9, 5), eval_dataset=downstream
    )
    freq1 = prediction_frequencies(clf.reduced_fn, downstream)
    print(f"after {args.epochs} epochs (loss {records[0].loss:.3f} -> {records[-1].loss:.3f}, "
          f"train acc {records[-1].std_acc:.3f}):")
    show(freq1, clf.mapping, downstream.n_classes)

    diag = np.array([freq1.counts[c, clf.mapping.indices[c]] for c in range(downstream.n_classes)])
    print(f"samples landing on their assigned index: {diag.sum()} / {len(downstream)}")


if __name__ == "__main__":
    main()
