"""Single-step sign attacks on a trained classifier, at several budgets.

Prints the accuracy/survival table over an epsilon grid and writes a
clean/attacked image pair as PPM files so you can eyeball how small the
perturbation is.

    python3 demos/attack_gallery.py --out runs/gallery
"""

import argparse
from pathlib import Path

import numpy as np

from promptlab import (
    AttackConfig,
    ConvNetSpec,
    SourceClassifier,
    SynthSpec,
    Tensor,
    TrainHyper,
    adversarial_accuracies,
    fgsm,
    generate_synthetic,
    init_params,
    train_standard,
)


def write_ppm(path, image):
    # image: (1, h, w) in [0,1]; replicate to gray RGB
    quant = np.rint(np.clip(image, 0.0, 1.0) * 255.0).astype(np.uint8)
    rgb = np.repeat(quant, 3, axis=0).transpose(1, 2, 0)
    h, w = rgb.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(np.ascontiguousarray(rgb).tobytes())


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="runs/gallery")
    ap.add_argument("--epsilons", type=float, nargs="+",
                    default=[0.0, 0.02, 0.05, 0.1, 0.2])
    args = ap.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    spec = ConvNetSpec((1, 20, 20), ((8, 3, 2), (16, 3, 2)), 32, 10)
    train = generate_synthetic(SynthSpec(10, 20, (1, 20, 20), "source", 0.4, seed=5))
    test = generate_synthetic(SynthSpec(10, 10, (1, 20, 20), "source", 0.4, seed=6))
    params = init_params(spec, seed=1)
    params, _ = train_standard(params, train, TrainHyper(8, 16, 0.05, 0.9, 9))
    clf = SourceClassifier(params)

    print(f"{'epsilon':>8} {'std acc':>8} {'survivors':>10} {'adv acc':>8}")
    reps = adversarial_accuracies(clf, test, [AttackConfig(eps) for eps in args.epsilons])
    for eps, rep in zip(args.epsilons, reps):
        print(f"{eps:8.3f} {rep.standard_accuracy:8.3f} "
              f"{rep.n_survived_attack:>4}/{rep.n_correct:<4} "
              f"{rep.adversarial_accuracy:8.3f}")

    eps = args.epsilons[-1]
    attacked = fgsm(clf, Tensor(test.images[:1].copy()), test.labels[:1], AttackConfig(eps))
    write_ppm(out / "clean.ppm", test.images[0])
    write_ppm(out / "attacked.ppm", attacked.data[0])
    delta = np.abs(attacked.data[0] - test.images[0])
    print(f"\nwrote {out}/clean.ppm and {out}/attacked.ppm "
          f"(eps={eps:g}, max pixel change {delta.max():.3f})")


if __name__ == "__main__":
    main()
