#!/usr/bin/env python3
"""Retrain with each branch isolated and compare average mAP.

Runs scripts/synthetic_pipeline.py once per variant, each in its own
subdirectory of ``--workdir``, with the variant's ``loss.*`` weights set
after any ``--set`` given here:

    python scripts/branch_ablation.py --workdir /tmp/ablation --set model.use_background=true
"""
import contextlib
import json
import sys
from pathlib import Path

from synthetic_pipeline import parse_args, run

VARIANTS = {
    "full": (1.0, 0.1, 0.1),
    "class-wise only": (1.0, 0.0, 0.0),
    "class-agnostic only": (0.0, 1.0, 0.0),
    "mil only": (0.0, 0.0, 1.0),
}


def main():
    args = parse_args(__doc__)
    print(f"{'variant':24s}  avg mAP (0.1:0.1:0.7)")
    for name, (class_wise, class_agnostic, mil) in VARIANTS.items():
        weights = [f"loss.class_wise={class_wise}", f"loss.class_agnostic={class_agnostic}",
                   f"loss.mil={mil}"]
        with contextlib.redirect_stdout(sys.stderr):  # stdout holds only the table
            report = run(Path(args.workdir) / name.replace(" ", "_"), args.epochs,
                         args.set + weights)
        print(f"{name:24s}  {json.loads(report.read_text())['average_map']!r}")


if __name__ == "__main__":
    main()
