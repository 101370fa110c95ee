#!/usr/bin/env python3
"""Generate the synthetic dataset, train, localize, and print the mAP table.

Runs ``wtal synth``, ``train``, ``localize`` and ``eval`` in one process over
configs/synthetic.json. Each ``--set section.key=value`` reaches every stage
that reads the config:

    python scripts/synthetic_pipeline.py --workdir /tmp/wtal_demo --set synth.seed=3
"""
import argparse
from pathlib import Path

from wtal.cli import main as wtal

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "synthetic.json"


def parse_args(description: str) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--epochs", type=int, default=None,
                        help="training epochs (default: the config's)")
    parser.add_argument("--set", action="append", default=[], metavar="SECTION.KEY=VALUE",
                        help="override one config value (repeatable)")
    return parser.parse_args()


def run(workdir, epochs: int | None, overrides: list[str]) -> Path:
    """The four stages in ``workdir``; returns the path of the eval report
    (JSON). A stage that fails exits with its status."""
    workdir = Path(workdir)
    if epochs is not None:
        overrides = [f"train.epochs={epochs}", *overrides]
    config = ["--config", str(CONFIG)] + [arg for item in overrides for arg in ("--set", item)]
    manifest = ["--manifest", str(workdir / "data" / "manifest.json")]
    stages = [
        ["synth", *config, "--out", str(workdir / "data")],
        ["train", *config, *manifest, "--out", str(workdir / "run")],
        ["localize", *config, *manifest, "--model-dir", str(workdir / "run"),
         "--out", str(workdir / "detections")],
        ["eval", *manifest, "--detections", str(workdir / "detections" / "detections.csv"),
         "--out", str(workdir / "report.json")],
    ]
    for argv in stages:
        status = wtal(argv)
        if status:
            raise SystemExit(status)
    return workdir / "report.json"


def main():
    args = parse_args(__doc__)
    run(args.workdir, args.epochs, args.set)


if __name__ == "__main__":
    main()
