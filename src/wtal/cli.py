"""Command-line pipeline: synth | train | localize | eval | gradcheck | convert.

synth, train and localize read an optional JSON config file (sections: model,
train, loss, localize, synth; versioned via config_version) and accept repeated
``--set section.key=value`` overrides; eval, gradcheck and convert take
neither. Every section is built and checked, whether or not the command uses
it: unknown sections or keys, wrong values, and the model keys that the
manifest sets are rejected before any work starts. Diagnostics go to stderr;
exit status is 0 only when the command's postconditions hold.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import sys
import time
from dataclasses import fields, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .data import (SynthConfig, VideoSplit, atomic_write, build_config, convert_raw_features,
                   generate_synthetic, ground_truth_instances, parse_manifest, read_json)
from .errors import ConfigError, ContractError, FormatError, InputError, ManifestError
from .evaluation import (ACTIVITYNET_GRID, THUMOS_GRID, format_report, map_report,
                         write_report_json)
from .localization import (LocalizeConfig, localize_split, read_detections,
                           write_detections_csv, write_detections_json)
from .losses import LossWeights
from .model import ModelConfig, ModelParams, init_params, load_checkpoint
from .training import (NonFiniteGradientError, TrainConfig, add_video_gradients, fit,
                       load_train_state)

CONFIG_VERSION = 1
CONFIG_SECTIONS = {"model": ModelConfig, "train": TrainConfig, "loss": LossWeights,
                   "localize": LocalizeConfig, "synth": SynthConfig}
MANIFEST_STAND_INS = {"model": {"num_classes": 1, "feature_dim": 1}}  # keys the manifest sets
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3  # glibc's mallopt parameters


def _fail(message: str, code: int = 2) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def load_run_config(path: str | None, overrides: list[str]) -> dict:
    """Section name -> its config, built from the file and the overrides; the model
    config holds stand-ins for the two values that ``wtal train`` takes from the manifest."""
    settings = []  # (section, mapping): the file's sections, then one per override
    if path is not None:
        doc = read_json(path, ConfigError)
        if not isinstance(doc, dict):
            raise ConfigError(f"{path}: expected a JSON object")
        if doc.pop("config_version", CONFIG_VERSION) != CONFIG_VERSION:
            raise ConfigError(f"config_version must be {CONFIG_VERSION}")
        settings += doc.items()
    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override {item!r} must look like section.key=value")
        key, value = item.split("=", 1)
        section, name = key.split(".", 1)
        try:
            settings.append((section, {name: json.loads(value)}))
        except ValueError:  # not JSON, or an int beyond the digit limit: kept as text
            settings.append((section, {name: value}))
    cfg: dict[str, dict] = {section: {} for section in CONFIG_SECTIONS}
    for section, mapping in settings:
        if section not in CONFIG_SECTIONS:
            raise ConfigError(f"unknown config section {section!r}")
        if not isinstance(mapping, dict):
            raise ConfigError(f"config section {section!r} must be an object")
        known = {f.name for f in fields(CONFIG_SECTIONS[section])}
        for key in mapping:
            if key in MANIFEST_STAND_INS.get(section, {}):
                raise ConfigError(f"{section}.{key} is set by the manifest, not by a config")
            if key not in known:
                raise ConfigError(f"unknown config key {section}.{key}")
        cfg[section].update(mapping)
    return {section: build_config(cls, cfg[section], **MANIFEST_STAND_INS.get(section, {}))
            for section, cls in CONFIG_SECTIONS.items()}


def cmd_synth(args) -> int:
    manifest_path = generate_synthetic(load_run_config(args.config, args.set)["synth"], args.out)
    manifest = parse_manifest(manifest_path)
    print(f"wrote {len(manifest.videos)} videos "
          f"({len(manifest.split('train'))} train / {len(manifest.split('test'))} test), "
          f"{len(manifest.classes)} classes, streams {list(manifest.streams)}")
    print(f"manifest: {manifest_path}")
    return 0


def _keep_freed_heap() -> None:
    """Let the C library keep freed memory on the heap for reuse.

    Training frees each video's tape (tens of MB at paper shape) before it
    records the next one, and localization each video's features and scores.
    By default glibc trims that memory off the heap and the next video faults
    every page back in, about 10k page faults per paper-shape video. Peak RSS
    stays the same, since the kept memory is what the next video uses. The
    fixed mmap threshold keeps arrays below 32 MiB on the heap. Without
    ``mallopt`` (not glibc) nothing changes.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt(M_TRIM_THRESHOLD, 1 << 30)
    mallopt(M_MMAP_THRESHOLD, 1 << 25)


def cmd_train(args) -> int:
    if args.checkpoint_interval < 0:
        raise ConfigError("--checkpoint-interval must be >= 0 (0: no periodic checkpoints)")
    _keep_freed_heap()
    cfg = load_run_config(args.config, args.set)
    manifest = parse_manifest(args.manifest)
    train_cfg = cfg["train"]
    model_cfg = replace(cfg["model"], num_classes=len(manifest.classes),
                        feature_dim=manifest.feature_dim)
    dataset = VideoSplit(manifest, manifest.split("train"))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.resume:
        params, state, history = load_train_state(out_dir / "model_state.npz",
                                                  model_cfg, train_cfg)
        print(f"resuming at epoch {len(history)}", file=sys.stderr)
    else:
        params = init_params(model_cfg, seed=train_cfg.seed, dtype=train_cfg.dtype)
        state, history = None, []
    history = fit(dataset, params, model_cfg, cfg["loss"], train_cfg, out_dir=out_dir,
                  checkpoint_interval=args.checkpoint_interval, state=state, history=history)
    print(f"{len(history)} epochs, final loss "
          f"{history[-1].losses['total']:.4f} -> {out_dir / 'model.npz'}")
    return 0


def cmd_localize(args) -> int:
    _keep_freed_heap()
    loc_cfg = load_run_config(args.config, args.set)["localize"]
    manifest = parse_manifest(args.manifest)
    checkpoint = Path(args.model_dir) / "model.npz"
    params, model_cfg = load_checkpoint(checkpoint)
    wanted = (len(manifest.classes), manifest.feature_dim)
    if (model_cfg.num_classes, model_cfg.feature_dim) != wanted:
        raise ConfigError(f"{checkpoint} has {model_cfg.num_classes} classes, feature_dim "
                          f"{model_cfg.feature_dim}; {args.manifest} has {wanted[0]}, {wanted[1]}")
    dump = None
    if args.score_dump:
        for vid in (video.video_id for video in manifest.split(args.split)):
            if os.path.basename(vid) != vid or "\0" in vid:  # <video>.tsv must stay in DIR
                raise InputError(f"video {vid!r}: --score-dump needs each video id to be a "
                                 f"plain file name")
        Path(args.score_dump).mkdir(parents=True, exist_ok=True)
        dump = partial(_dump_scores, Path(args.score_dump), manifest.classes)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    detections = localize_split(manifest, args.split, params, model_cfg, loc_cfg, dump)
    write_detections_csv(out_dir / "detections.csv", detections, manifest.classes)
    write_detections_json(out_dir / "detections.json", detections, manifest.classes)
    print(f"{len(detections)} detections for {len(manifest.split(args.split))} videos "
          f"-> {out_dir / 'detections.csv'}")
    return 0


def _dump_scores(dump_dir, class_names, video, scores) -> None:
    """``<video>.tsv`` in ``dump_dir``, one row per snippet: its index, S_f,
    then S_a per class, as plain floats."""
    rows = zip(scores.s_f.tolist(), scores.s_a.tolist())
    with atomic_write(dump_dir / f"{video.video_id}.tsv") as fh:
        fh.write("snippet\tfore_score\t" + "\t".join(class_names) + "\n")
        for t, (fore, row) in enumerate(rows):
            fh.write("\t".join(map(repr, [t, fore, *row])) + "\n")


def cmd_eval(args) -> int:
    manifest = parse_manifest(args.manifest)
    grid = THUMOS_GRID if args.grid == "thumos" else ACTIVITYNET_GRID
    detections = read_detections(args.detections, manifest.classes)
    report = map_report(detections, ground_truth_instances(manifest, args.split), grid,
                        len(manifest.classes))
    print(format_report(report, manifest.classes))
    if args.out:
        write_report_json(args.out, report, manifest.classes)
    return 0


def gradcheck_cases(seed: int, instances: int, corrupt_op: str | None = None):
    """Random small problems for the finite-difference check of the tape.

    Yields ``(label, params, f)`` per instance: 1-8 snippets, 2-4 classes,
    3-8 feature dims, embeddings 3-6 wide and three temperatures, with the
    background slot on odd instances and dropout (rate 0.5) on every third.
    ``f(tensors)`` returns the total loss and its gradients from the training
    step, ``training.add_video_gradients``, run with ``corrupt_op``.
    """
    rng = np.random.default_rng(seed)
    for i in range(instances):
        t = int(rng.integers(1, 9))
        c = int(rng.integers(2, 5))
        d_in = int(rng.integers(3, 9))
        config = ModelConfig(num_classes=c, feature_dim=d_in,
                             embed_dims=(int(rng.integers(3, 7)), int(rng.integers(3, 7))),
                             temperatures=(1.0, 2.0, 5.0),
                             use_background=bool(i % 2),
                             dropout_rate=0.5 if i % 3 == 0 else 0.0)
        params = init_params(config, seed=int(rng.integers(1 << 31)), dtype=np.float64)
        x = rng.normal(size=(t, d_in))
        y = np.zeros(c)
        y[rng.permutation(c)[:int(rng.integers(1, c + 1))]] = 1.0
        dropout_seed = int(rng.integers(1 << 31))
        yield f"T={t} C={c}", params, partial(_loss_and_grads, x, y, config, dropout_seed,
                                              corrupt_op)


def _loss_and_grads(x, y, config, dropout_seed, corrupt_op, tensors):
    buffers = {name: np.zeros_like(t) for name, t in tensors.items()}
    losses = add_video_gradients(buffers, x, y, dropout_seed, ModelParams(**tensors), config,
                                 LossWeights(), corrupt_op)
    return losses["total"], buffers


def cmd_gradcheck(args) -> int:
    if args.instances < 1 or args.seed < 0 or not 0 < args.tolerance < np.inf:
        raise ConfigError("gradcheck needs --instances >= 1, --seed >= 0 and a positive, "
                          "finite --tolerance")
    started = time.perf_counter()
    cases = gradcheck_cases(args.seed, args.instances,
                            corrupt_op="softmax" if args.inject_bug else None)
    results = []
    for i, (label, params, f) in enumerate(cases):
        results.append(ad.finite_diff_check(f, params.as_dict(), step=1e-5))
        print(f"instance {i:2d}: {label} max rel err {results[-1].max_rel_error:.3e} "
              f"(worst: {results[-1].where})")
    worst = max(results, key=lambda r: r.max_rel_error)
    elapsed = time.perf_counter() - started
    print(f"worst over {args.instances} instances: {worst.max_rel_error:.3e} at {worst.where} "
          f"({elapsed:.1f}s)")
    if worst.max_rel_error >= args.tolerance:
        print(f"error: gradient check failed tolerance {args.tolerance}", file=sys.stderr)
        return 1
    return 0


def cmd_convert(args) -> int:
    convert_raw_features(args.input, args.t, args.d, args.output)
    print(f"wrote {args.output} ({args.t}x{args.d})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wtal",
        description="Weakly supervised temporal action localization pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="JSON run config file")
        p.add_argument("--set", action="append", default=[], metavar="SECTION.KEY=VALUE",
                       help="override one config value (repeatable)")

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    common(p)
    p.add_argument("--out", required=True, help="output dataset directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train one model on every feature stream")
    common(p)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="checkpoint output directory")
    p.add_argument("--checkpoint-interval", type=int, default=0)
    p.add_argument("--resume", action="store_true",
                   help="resume from the training-state file in --out")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("localize", help="produce detections from a trained model")
    common(p)
    p.add_argument("--manifest", required=True)
    p.add_argument("--model-dir", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--split", default="test", choices=("train", "test"))
    p.add_argument("--score-dump", default=None, metavar="DIR",
                   help="write per-video snippet score tables for plotting")
    p.set_defaults(func=cmd_localize)

    p = sub.add_parser("eval", help="score detections against ground truth")
    p.add_argument("--detections", required=True, help="detections .csv or .json")
    p.add_argument("--manifest", required=True)
    p.add_argument("--split", default="test", choices=("train", "test"))
    p.add_argument("--grid", default="thumos", choices=("thumos", "activitynet"))
    p.add_argument("--out", default=None, help="also write the report as JSON")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference check of the gradient engine")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--instances", type=int, default=20)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.add_argument("--inject-bug", action="store_true",
                   help="corrupt one adjoint rule to prove harness sensitivity")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("convert", help="wrap a raw float32 blob as a feature file")
    p.add_argument("--input", required=True)
    p.add_argument("--t", type=int, required=True, help="snippet count")
    p.add_argument("--d", type=int, required=True, help="feature dimension")
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_convert)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ManifestError) as exc:
        return _fail(str(exc), code=2)
    except (ContractError, InputError, FormatError, NonFiniteGradientError, MemoryError,
            OSError) as exc:  # an OSError names its path
        return _fail(str(exc), code=1)


if __name__ == "__main__":
    sys.exit(main())
