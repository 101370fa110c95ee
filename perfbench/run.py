"""wtal benchmark: each workload driven through the ``wtal`` CLI in one process.

    python3 perfbench/run.py --workload desk_fit --seed 7 --seconds 20 --trace 0

Run it from the root of a checkout. Every stage is one ``wtal.cli.main([...])``
call, in a sequential closed loop with one client: a stage starts when the
previous one has returned. ``--seed`` becomes ``synth.seed``; every other
seed is the one in ``configs/synthetic.json``. The CLI and its files
(manifest, ``.facf``, ``.facn``, detections CSV, report JSON) are all the
untraced runs rely on.

``--trace 0`` sets up once, then for ``--seconds`` repeats rounds of a
spare set-up, a training and a localize + eval. Training stops once
``--seconds`` have passed; localize + eval runs at least ``MIN_INFER_REPS``
times and ``MIN_INFER_S`` seconds. The end-to-end metrics are medians of
those samples. ``--trace 1`` runs a warm-up pass, an untraced pass and a
traced pass (synth, train, localize, eval each) on the same inputs and
reports the per-layer metrics of ``tracing.PER_LAYER``.

The last stdout line is the result; the line before it holds provenance,
input sizes and the stage counts. Scratch data lives under ``.perfbench/``
and is removed at exit, except ``.perfbench/results/``.
"""
from __future__ import annotations

import os
import sys

# BLAS reads its thread count when numpy loads, so pin it before any import
# that can load numpy; ``wtal --threads`` has no effect in-process after that.
THREADS = min(2, len(os.sched_getaffinity(0)))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import pkgutil  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import struct  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
CONFIG = ROOT / "configs" / "synthetic.json"
OUT = ROOT / ".perfbench"
DETECTIONS_HEADER = "video_id,label,t_start,t_end,score"
MIN_INFER_REPS = 5
MIN_INFER_S = 5.0
RECONCILE_TOLERANCE_S = 1e-6
MB = 1e6

PAPER_SHAPE = ("synth.feature_dim=1024", "synth.num_classes=20", "synth.num_train=16",
               "synth.num_test=8", "synth.snippet_range=[500,1000]",
               "model.embed_dims=[1024,1024]", "model.use_background=true",
               "train.epochs=2", "train.batch_size=8")
# Shrinks every workload for the benchmark's own smoke test.
TINY = ("synth.num_train=4", "synth.num_test=2", "synth.snippet_range=[40,60]",
        "synth.feature_dim=16", "model.embed_dims=[16,16]")


@dataclass(frozen=True)
class Workload:
    overrides: tuple[str, ...] = ()
    setup_trains: bool = False      # the model is part of set-up, timed as training too
    map_floor: float | None = None  # frozen avg mAP floor at the config's shape and seeds
    seeded: bool = True             # --seed becomes synth.seed


WORKLOADS = {
    # The default user run, config and seeds unchanged, and the mAP gate:
    # 0.923006, frozen floor 0.80. --seed is only recorded: other data seeds
    # move avg mAP from 0.45 to 0.96 and the detections from 68 to 942, so the
    # inference work would change with the seed. Training time is Python
    # dispatch in autodiff, model and losses plus the dict loop in adam_step;
    # localize and eval are under 1% of the run.
    "desk_fit": Workload(map_floor=0.80, seeded=False),
    # Paper-like shape, BLAS-bound: temporal_conv is ~80% of the forward and
    # backward passes, a T=750 video holds 76 nodes / ~98 MB on its tape and
    # Adam walks 6.3M parameters. Conv layout, memory and no-record changes
    # show here. Inference is forward-only: an untrained 20-class model never
    # reaches p >= 0.5 for a class, whereas at the default 0.1 some seeds pass
    # ~1500 detections and others none, which would split the runs in two.
    "paper_train": Workload(overrides=PAPER_SHAPE + ("localize.class_reject_threshold=0.5",)),
    # A one-epoch model at lr 1e-4 is practically the initial model: its
    # near-uniform scores pass every class, so the Python loops in propose,
    # the quadratic nms and average_precision dominate; forward is under 10%.
    "dense_localize": Workload(overrides=("synth.num_test=60", "train.epochs=1"),
                               setup_trains=True),
}


class Session:
    """One benchmark run: its inputs, stage counts and failed output checks."""

    def __init__(self, workload: Workload, seed: int, work: Path, tiny: bool):
        self.workload = workload
        self.work = work
        seeded = (f"synth.seed={seed}",) if workload.seeded else ()
        self.overrides = workload.overrides + (TINY if tiny else ()) + seeded
        self.config = resolved_config(self.overrides)
        self.map_floor = None if tiny else workload.map_floor
        self.attempted = 0
        self.failures: list[str] = []
        self.detection_rows: int | None = None
        self.average_map: float | None = None

    def stage(self, name: str, argv: list[str], tracer=None, check=None) -> float | None:
        """Run one CLI stage; its wall time, or None if it failed or its outputs did."""
        from wtal import cli

        self.attempted += 1
        span = tracer.open(f"cli.{name}") if tracer is not None else None
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(sys.stderr):
                code = cli.main(argv)
        except Exception:  # a traceback is a failed stage, not a failed benchmark
            traceback.print_exc()
            code = "an uncaught exception"
        finally:
            elapsed = perf_counter() - start
            if tracer is not None:
                tracer.close(span)
        try:
            problem = f"exit status {code}" if code != 0 else (check() if check else None)
        except (OSError, ValueError) as exc:  # missing or malformed output file
            problem = f"unreadable output: {exc}"
        if problem:
            self.failures.append(f"{name}: {problem}")
            print(f"perfbench: {name} failed: {problem}", file=sys.stderr)
            return None
        return elapsed

    def _sets(self) -> list[str]:
        return [arg for item in self.overrides for arg in ("--set", item)]

    def synth(self, d: Path, tracer=None) -> float | None:
        return self.stage("synth", ["synth", "--config", str(CONFIG), *self._sets(),
                                    "--out", str(d / "data")], tracer)

    def train(self, d: Path, tracer=None) -> float | None:
        return self.stage("train", ["train", "--config", str(CONFIG), *self._sets(),
                                    "--manifest", str(d / "data" / "manifest.json"),
                                    "--out", str(d / "model")], tracer,
                          lambda: self._check_history(d / "model"))

    def localize(self, d: Path, tracer=None) -> float | None:
        return self.stage("localize", ["localize", "--config", str(CONFIG), *self._sets(),
                                       "--manifest", str(d / "data" / "manifest.json"),
                                       "--model-dir", str(d / "model"),
                                       "--out", str(d / "det")], tracer,
                          lambda: self._check_detections(d / "det" / "detections.csv"))

    def evaluate(self, d: Path, tracer=None) -> float | None:
        return self.stage("eval", ["eval", "--manifest", str(d / "data" / "manifest.json"),
                                   "--detections", str(d / "det" / "detections.csv"),
                                   "--out", str(d / "report.json")], tracer,
                          lambda: self._check_report(d / "report.json"))

    def _check_history(self, model_dir: Path) -> str | None:
        files = sorted(model_dir.glob("*_history.csv"))
        if not files:
            return "no *_history.csv written"
        epochs = self.config["train"]["epochs"]
        for path in files:
            with open(path, newline="") as fh:
                rows = list(csv.reader(fh))[1:]
            if len(rows) != epochs:
                return f"{path.name} has {len(rows)} epochs, expected {epochs}"
            if not all(math.isfinite(float(v)) for row in rows for v in row[1:]):
                return f"{path.name} holds a non-finite loss"
        return None

    def _check_detections(self, path: Path) -> str | None:
        with open(path) as fh:
            header = fh.readline().rstrip("\r\n")
            rows = sum(1 for _ in fh)
        if header != DETECTIONS_HEADER:
            return f"detections header is {header!r}"
        if self.detection_rows is None:
            self.detection_rows = rows
        elif rows != self.detection_rows:
            return f"{rows} detections, {self.detection_rows} on an earlier run of this seed"
        return None

    def _check_report(self, path: Path) -> str | None:
        with open(path) as fh:
            value = json.load(fh).get("average_map")
        if not isinstance(value, (int, float)) or not 0.0 <= value <= 1.0:
            return f"report average_map is {value!r}"
        if self.average_map is not None and value != self.average_map:
            return f"average_map {value} differs from {self.average_map} on this seed"
        if self.map_floor is not None and value < self.map_floor:
            return f"average_map {value} is below the floor {self.map_floor}"
        self.average_map = value
        return None

    def one_pass(self, d: Path, tracer=None) -> float:
        """synth, train, localize, eval once; the summed wall time of the stages run."""
        total = 0.0
        for step in (self.synth, self.train, self.localize, self.evaluate):
            elapsed = step(d, tracer)
            if elapsed is None:
                break
            total += elapsed
        return total


def resolved_config(overrides) -> dict:
    cfg = json.loads(CONFIG.read_text())
    for item in overrides:
        key, value = item.split("=", 1)
        section, name = key.split(".", 1)
        cfg.setdefault(section, {})[name] = json.loads(value)
    return cfg


def split_sizes(manifest: Path) -> dict:
    """Videos and summed snippet counts per split, from the manifest and .facf headers."""
    sizes = {"train": {"videos": 0, "snippets": 0}, "test": {"videos": 0, "snippets": 0}}
    if not manifest.is_file():  # synth failed; the run is already marked incorrect
        return sizes
    doc = json.loads(manifest.read_text())
    for video in doc["videos"]:
        with open(manifest.parent / next(iter(video["features"].values())), "rb") as fh:
            _, _, t, _ = struct.unpack("<4sIII", fh.read(16))
        sizes[video["split"]]["videos"] += 1
        sizes[video["split"]]["snippets"] += t
    return sizes


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB


def measure(s: Session, seconds: float) -> tuple[dict, dict]:
    setup, train, infer = [], [], []
    d, spare = s.work / "run", s.work / "spare"

    def set_up(target: Path) -> None:
        elapsed = s.synth(target)
        if elapsed is not None and s.workload.setup_trains:
            fit = s.train(target)
            train.append(fit)
            elapsed = None if fit is None else elapsed + fit
        if elapsed is not None:
            setup.append(elapsed)

    set_up(d)
    start = perf_counter()
    training = not s.workload.setup_trains
    # Machine speed drifts by tens of percent over seconds, so every kind of
    # sample is taken in each round rather than in one block.
    while (training or len(infer) < MIN_INFER_REPS or sum(infer) < MIN_INFER_S
           or perf_counter() - start < seconds):
        set_up(spare)
        shutil.rmtree(spare, ignore_errors=True)
        if training:
            train.append(s.train(d))
            training = perf_counter() - start < seconds
        localize = s.localize(d)
        evaluate = s.evaluate(d) if localize is not None else None
        if evaluate is None:
            break
        infer.append(localize + evaluate)
    train = [t for t in train if t is not None]
    sizes = split_sizes(d / "data" / "manifest.json")
    epochs = s.config["train"]["epochs"]
    metrics = {
        "setup_s": ("s", _median(setup)),
        "train_snippets_per_s": ("snippets/s", epochs * sizes["train"]["snippets"]
                                 / _median(train) if train else 0.0),
        "infer_snippets_per_s": ("snippets/s", sizes["test"]["snippets"] / _median(infer)
                                 if infer else 0.0),
        "peak_rss_mb": ("MB", peak_rss_mb()),
    }
    samples = {"setup_s": setup, "train_s": train, "infer_s": infer}
    return metrics, {"sizes": sizes, "samples": samples}


def trace(s: Session, results: Path, name: str) -> tuple[dict, dict]:
    import numpy as np

    import tracing

    s.one_pass(s.work / "warmup")  # imports and first-call costs land here
    untraced = s.one_pass(s.work / "untraced")
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        traced = s.one_pass(s.work / "traced", tracer)
    values, samples = tracing.per_layer(tracer, untraced, traced, s.average_map or 0.0)
    if values["trace.reconcile_error_s"] > RECONCILE_TOLERANCE_S:
        s.failures.append(f"trace: stage self times miss their stage by "
                          f"{values['trace.reconcile_error_s']} s")
    np.savez_compressed(results / f"{name}-spans.npz", names=np.array(tracer.names),
                        name=np.array(tracer.name), parent=np.array(tracer.parent),
                        start=np.array(tracer.start), end=np.array(tracer.end))
    units = {m.name: m.unit for m in tracing.PER_LAYER}
    metrics = {k: (units[k], v) for k, v in values.items()}
    sizes = split_sizes(s.work / "traced" / "data" / "manifest.json")
    moves = {m.name: {"moves": m.moves, "on": m.workload} for m in tracing.PER_LAYER}
    return metrics, {"sizes": sizes, "samples": samples, "moves": moves,
                     "untraced_pass_s": untraced, "traced_pass_s": traced}


def provenance(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "blas_threads": THREADS, "git_sha": git_sha(), "seed": seed}


def git_sha() -> str | None:
    """HEAD's commit, or None in a source export that has no .git directory."""
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        sha, _, name = line.partition(" ")
        if name == ref:
            return sha
    return None


def input_sizes(s: Session, splits: dict) -> dict:
    cfg = s.config
    return {"videos": {k: v["videos"] for k, v in splits.items()},
            "sum_t": {k: v["snippets"] for k, v in splits.items()},
            "feature_dim": cfg["synth"]["feature_dim"],
            "embed_dims": cfg["model"]["embed_dims"],
            "classes": cfg["synth"]["num_classes"],
            "background_slot": cfg["model"]["use_background"],
            "epochs": cfg["train"]["epochs"], "batch_size": cfg["train"]["batch_size"],
            "precision": cfg["train"]["precision"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink the inputs (the benchmark's smoke test)")
    args = parser.parse_args(argv)
    if not CONFIG.is_file() or not (ROOT / "src" / "wtal").is_dir():
        print(f"perfbench: no wtal sources under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import wtal  # every wtal module (and numpy) loads before any stage is timed

    for info in pkgutil.iter_modules(wtal.__path__):
        importlib.import_module(f"wtal.{info.name}")

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    s = Session(WORKLOADS[args.workload], args.seed, work, args.tiny)
    try:
        if args.trace:
            metrics, detail = trace(s, results, name)
        else:
            metrics, detail = measure(s, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record = {
        "workload": args.workload, "trace": args.trace, "tiny": args.tiny,
        "provenance": provenance(args.seed),
        "input_sizes": input_sizes(s, detail.pop("sizes")),
        "stages_attempted": s.attempted, "stages_failed": len(s.failures),
        "error_rate": len(s.failures) / max(s.attempted, 1),
        "failures": s.failures, "average_map": s.average_map,
        "detections": s.detection_rows, **detail,
    }
    metrics = {k: {"value": v, "unit": u} for k, (u, v) in metrics.items()}
    (results / f"{name}.json").write_text(json.dumps({**record, "metrics": metrics}, indent=1))
    print(json.dumps(record))
    print(json.dumps({"correct": not s.failures, "attempted": max(s.attempted, 1),
                      "failed": len(s.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
