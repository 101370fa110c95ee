#!/usr/bin/env python3
"""Retrain with each branch isolated and compare average mAP.

    python scripts/branch_ablation.py --workdir /tmp/wtal_ablation
"""
import argparse
from pathlib import Path

from wtal.data import (SynthConfig, generate_synthetic, ground_truth_instances,
                       load_dataset, parse_manifest)
from wtal.evaluation import THUMOS_GRID, map_report
from wtal.localization import LocalizeConfig, localize_split
from wtal.losses import LossWeights
from wtal.model import ModelConfig, init_params
from wtal.training import TrainConfig, fit

VARIANTS = {
    "full": LossWeights(1.0, 0.1, 0.1),
    "class-wise only": LossWeights(1.0, 0.0, 0.0),
    "class-agnostic only": LossWeights(0.0, 1.0, 0.0),
    "mil only": LossWeights(0.0, 0.0, 1.0),
}


def evaluate(manifest, weights, epochs, background):
    model_cfg = ModelConfig(num_classes=len(manifest.classes), feature_dim=64,
                            embed_dims=(128, 128), use_background=background)
    train_cfg = TrainConfig(epochs=epochs, batch_size=2, seed=3)
    params = init_params(model_cfg, seed=train_cfg.seed, dtype=train_cfg.dtype)
    result = fit(load_dataset(manifest, "train", "rgb"), params, model_cfg,
                 weights, train_cfg)
    dets = localize_split(manifest, "test", {"rgb": (result.params, model_cfg)}, LocalizeConfig())
    return map_report(dets, ground_truth_instances(manifest, "test"), THUMOS_GRID,
                      len(manifest.classes)).average_map


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--epochs", type=int, default=100)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--background", action="store_true")
    args = parser.parse_args()

    manifest = parse_manifest(generate_synthetic(
        SynthConfig(seed=args.seed), Path(args.workdir) / "data"))
    print(f"{'variant':24s}  avg mAP (0.1:0.1:0.7)")
    for name, weights in VARIANTS.items():
        score = evaluate(manifest, weights, args.epochs, args.background)
        print(f"{name:24s}  {score:.3f}")


if __name__ == "__main__":
    main()
