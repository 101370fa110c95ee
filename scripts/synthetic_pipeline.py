#!/usr/bin/env python3
"""Generate a synthetic dataset, train, localize, and print the mAP table.

Equivalent to chaining `wtal synth / train / localize / eval`, kept in one
process so the whole experiment is a single command:

    python scripts/synthetic_pipeline.py --workdir /tmp/wtal_demo
"""
import argparse
import time
from pathlib import Path

from wtal.data import (SynthConfig, generate_synthetic, ground_truth_instances,
                       load_dataset, parse_manifest)
from wtal.evaluation import THUMOS_GRID, format_report, map_report
from wtal.localization import LocalizeConfig, localize_split
from wtal.losses import LossWeights
from wtal.model import ModelConfig, init_params
from wtal.training import TrainConfig, fit


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--epochs", type=int, default=100)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--embed", type=int, default=128)
    parser.add_argument("--background", action="store_true",
                        help="train with the extra background class slot")
    args = parser.parse_args()

    workdir = Path(args.workdir)
    manifest = parse_manifest(generate_synthetic(SynthConfig(seed=args.seed), workdir / "data"))
    print(f"dataset: {len(manifest.videos)} videos, {len(manifest.classes)} classes")

    model_cfg = ModelConfig(num_classes=len(manifest.classes), feature_dim=64,
                            embed_dims=(args.embed, args.embed),
                            use_background=args.background)
    train_cfg = TrainConfig(epochs=args.epochs, batch_size=2, seed=3)
    train_set = load_dataset(manifest, "train", "rgb")
    params = init_params(model_cfg, seed=train_cfg.seed, dtype=train_cfg.dtype)

    started = time.perf_counter()
    result = fit(train_set, params, model_cfg, LossWeights(), train_cfg,
                 out_dir=workdir / "run", ckpt_prefix="model_rgb",
                 log=lambda s: print("  " + s) if "epoch" in s and s.endswith("0") else None)
    print(f"trained {args.epochs} epochs in {time.perf_counter() - started:.0f}s, "
          f"final loss {result.history[-1].loss_total:.4f}")

    dets = localize_split(manifest, "test", {"rgb": (result.params, model_cfg)}, LocalizeConfig())
    report = map_report(dets, ground_truth_instances(manifest, "test"), THUMOS_GRID,
                        len(manifest.classes))
    print()
    print(format_report(report, manifest.classes))


if __name__ == "__main__":
    main()
