"""Export the synthetic tasks to binary files and run from those files.

Useful when you want to swap in real data: anything that serializes to
the little dataset container (magic ``VPDS``, u8 pixels, u16 labels)
can drive the whole harness through the ``data.files`` config block.

    python3 demos/custom_datasets.py --dir runs/filedata
"""

import argparse
from pathlib import Path

from promptlab import load_raw, peek_raw_header, save_raw
from promptlab.harness import ExperimentConfig, default_config, run_experiment


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--dir", default="runs/filedata")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    root = Path(args.dir)
    root.mkdir(parents=True, exist_ok=True)

    cfg = default_config(seed=args.seed, output_dir=str(root / "out"))
    # shrink the run; file-backed data is about the plumbing, not the trends
    cfg["source"]["hyper"]["epochs"] = 4
    cfg["prompt"]["hyper"]["epochs"] = 5

    print("rendering the synthetic splits and writing them out ...")
    files = {}
    for key, ds in ExperimentConfig.from_dict(cfg).datasets().items():
        path = root / f"{key}.vpds"
        save_raw(path, ds)
        files[key] = str(path)
        hdr = peek_raw_header(path)
        print(f"  {path.name:<22} {hdr['n']:>5} images  "
              f"{hdr['c']}x{hdr['h']}x{hdr['w']}  {hdr['n_classes']} classes  "
              f"{path.stat().st_size} bytes")

    back = load_raw(files["downstream_test"])
    print(f"round trip check: {len(back)} samples, "
          f"pixel range [{back.images.min():.3f}, {back.images.max():.3f}]")

    cfg["data"] = {"files": files}
    print("\nrunning the experiment from the files ...")
    report = run_experiment(cfg)
    print(f"final: std {report['final_std_acc']:.3f}, adv {report['final_adv_acc']:.3f} "
          f"(artifacts in {root / 'out'})")


if __name__ == "__main__":
    main()
