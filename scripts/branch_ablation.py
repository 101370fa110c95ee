#!/usr/bin/env python3
"""Retrain with each branch isolated and compare average mAP.

Runs scripts/synthetic_pipeline.py once per variant, each in its own
subdirectory of ``--workdir``. The full model keeps the config's loss
weights; each single-branch variant sets its ``loss.*`` weights after any
``--set`` given here:

    python scripts/branch_ablation.py --workdir /tmp/ablation --set model.use_background=true
"""
import contextlib
import json
import sys
from pathlib import Path

from synthetic_pipeline import parse_args, run

VARIANTS = {  # the loss.* overrides of each variant
    "full": [],
    "class-wise only": ["loss.class_wise=1.0", "loss.class_agnostic=0.0", "loss.mil=0.0"],
    "class-agnostic only": ["loss.class_wise=0.0", "loss.class_agnostic=1.0", "loss.mil=0.0"],
    "mil only": ["loss.class_wise=0.0", "loss.class_agnostic=0.0", "loss.mil=1.0"],
}


def main():
    args = parse_args(__doc__)
    print(f"{'variant':24s}  avg mAP (0.1:0.1:0.7)")
    for name, weights in VARIANTS.items():
        with contextlib.redirect_stdout(sys.stderr):  # stdout holds only the table
            report = run(Path(args.workdir) / name.replace(" ", "_"), args.epochs,
                         args.set + weights)
        print(f"{name:24s}  {json.loads(report.read_text())['average_map']!r}")


if __name__ == "__main__":
    main()
