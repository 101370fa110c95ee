"""Out-of-program tracer for the wtal benchmark.

The tracer wraps public functions of the ``wtal`` modules by replacing the
module attributes that callers look up, in every ``wtal`` module that binds
them (``training`` imports ``run_forward`` from ``model``, for instance), and
the node-recording methods of ``autodiff.Tape``. Nothing under ``src/`` is
edited. Each call becomes a span (name, start, end, parent); spans are kept
in flat arrays and reduced to the per-layer metrics of ``PER_LAYER``.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import pkgutil
from array import array
from collections import Counter
from dataclasses import dataclass
from time import perf_counter

import numpy as np

MB = 1e6
TAPE_REFERENCE_T = 750  # the paper-shape video length ROADMAP's tape baseline uses
NAMED_OPS = ("temporal_conv", "cosine_rows", "softmax", "matmul")


@dataclass(frozen=True)
class LayerMetric:
    """One per-layer metric and the end-to-end metric and workload it should move."""
    name: str
    unit: str
    better: str
    moves: str
    workload: str


def _m(name, unit, moves, workload, better="lower"):
    return LayerMetric(name, unit, better, moves, workload)


TRAIN, INFER, SETUP, RSS = ("train_snippets_per_s", "infer_snippets_per_s", "setup_s",
                            "peak_rss_mb")
PER_LAYER: tuple[LayerMetric, ...] = (
    _m("data.generate_synthetic_s", "s", SETUP, "paper_train"),
    _m("data.load_features_s", "s", TRAIN, "paper_train"),
    _m("data.load_features_calls", "count", TRAIN, "paper_train"),
    _m("data.load_features_mb", "MB", TRAIN, "paper_train"),
    _m("data.parse_manifest_s", "s", INFER, "dense_localize"),
    *(_m(f"autodiff.op_s.{op}", "s", TRAIN, "paper_train" if op == "temporal_conv"
         else "desk_fit") for op in (*NAMED_OPS, "other")),
    *(_m(f"autodiff.op_calls.{op}", "count", TRAIN, "desk_fit")
      for op in (*NAMED_OPS, "other")),
    _m("autodiff.backward_s.p50", "s", TRAIN, "paper_train"),
    _m("autodiff.backward_s.p90", "s", TRAIN, "paper_train"),
    _m("autodiff.tape_nodes", "count", RSS, "paper_train"),
    _m("autodiff.tape_mb.p50", "MB", RSS, "paper_train"),
    _m("autodiff.tape_mb.max", "MB", RSS, "paper_train"),
    _m("autodiff.tape_mb_at_t750", "MB", RSS, "paper_train"),
    _m("model.run_forward_s.p50", "s", TRAIN, "paper_train"),
    _m("model.run_forward_self_s", "s", TRAIN, "desk_fit"),
    _m("model.forward_scores_s.p50", "s", INFER, "paper_train"),
    _m("model.forward_scores_s.p90", "s", INFER, "paper_train"),
    _m("model.save_checkpoint_s", "s", TRAIN, "paper_train"),
    _m("model.load_checkpoint_s", "s", INFER, "paper_train"),
    _m("losses.total_loss_s", "s", TRAIN, "desk_fit"),
    _m("training.train_epoch_s.first", "s", TRAIN, "desk_fit"),
    _m("training.train_epoch_s.steady_p50", "s", TRAIN, "desk_fit"),
    _m("training.adam_step_s.p50", "s", TRAIN, "paper_train"),
    _m("training.adam_step_calls", "count", TRAIN, "paper_train"),
    _m("training.save_train_state_s", "s", TRAIN, "paper_train"),
    _m("training.videos_skipped", "count", "error_rate", "desk_fit"),
    _m("localization.localize_video_s.p50", "s", INFER, "dense_localize"),
    _m("localization.localize_video_s.p90", "s", INFER, "dense_localize"),
    _m("localization.candidates", "count", INFER, "dense_localize"),
    _m("localization.nms_s", "s", INFER, "dense_localize"),
    _m("localization.nms_kept", "count", INFER, "dense_localize"),
    _m("localization.nms_keep_ratio", "ratio", INFER, "dense_localize", "higher"),
    _m("localization.write_detections_s", "s", INFER, "dense_localize"),
    _m("localization.read_detections_s", "s", INFER, "dense_localize"),
    _m("evaluation.map_report_s", "s", INFER, "dense_localize"),
    _m("evaluation.average_precision_calls", "count", INFER, "dense_localize"),
    _m("evaluation.detections_scored", "count", INFER, "dense_localize"),
    _m("evaluation.average_map", "fraction", "quality gate", "desk_fit", "higher"),
    *(_m(f"cli.{stage}_s", "s", SETUP if stage == "synth" else
         TRAIN if stage == "train" else INFER, "all")
      for stage in ("synth", "train", "localize", "eval")),
    _m("trace.overhead_s", "s", "none (tracing cost)", "all"),
    _m("trace.overhead_ratio", "ratio", "none (tracing cost)", "all"),
    _m("trace.reconcile_error_s", "s", "none (tracer self-check)", "all"),
)


class Tracer:
    """Single-threaded span recorder plus counters taken at the same boundaries."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self.tapes: list[tuple[int, int, int]] = []  # (T, nodes, bytes) per backward
        self.missing: list[str] = []

    def open(self, name: str) -> int:
        span = len(self.start)
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        self.name.append(self._ids[name])
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(span)
        self.start.append(perf_counter())
        return span

    def close(self, span: int) -> None:
        self.end[span] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(span)
            if after is not None:
                after(self, args, out)
            return out
        return traced


def _count_features(tracer, args, out):
    tracer.counts["data.load_features_calls"] += 1
    tracer.counts["load_features_bytes"] += out.nbytes


def _count_tape(tracer, args, out):
    tape = args[0]
    nbytes = sum(node.value.nbytes for node in tape.nodes)
    nbytes += sum(v.nbytes for node in tape.nodes for v in node.ctx.values()
                  if isinstance(v, np.ndarray))
    tracer.tapes.append((tape.nodes[0].value.shape[0], len(tape.nodes), nbytes))


def _counter(key):
    def count(tracer, args, out):
        tracer.counts[key] += len(out)
    return count


def _count_epoch(tracer, args, out):
    tracer.counts["training.videos_skipped"] += out.skipped


def _count_ap(tracer, args, out):
    tracer.counts["evaluation.average_precision_calls"] += 1
    tracer.counts["evaluation.detections_scored"] += len(args[0])


# (module, public function, hook run on the result outside the span)
TRACED = (
    ("data", "generate_synthetic", None),
    ("data", "parse_manifest", None),
    ("data", "load_features", _count_features),
    ("autodiff", "backward", _count_tape),
    ("model", "run_forward", None),
    ("model", "forward_scores", None),
    ("model", "save_checkpoint", None),
    ("model", "load_checkpoint", None),
    ("losses", "total_loss", None),
    ("training", "train_epoch", _count_epoch),
    ("training", "adam_step", None),
    ("training", "save_train_state", None),
    ("localization", "localize_video", None),
    ("localization", "propose", _counter("localization.candidates")),
    ("localization", "nms", _counter("localization.nms_kept")),
    ("localization", "write_detections_csv", None),
    ("localization", "write_detections_json", None),
    ("localization", "read_detections", None),
    ("evaluation", "map_report", None),
    ("evaluation", "average_precision", _count_ap),
)


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Patch every binding of the traced functions for the duration of the block.

    A function that no longer exists is listed in ``tracer.missing`` and its
    metrics read 0, so a refactor of ``src/`` degrades a traced run instead
    of breaking it.
    """
    import wtal
    from wtal.autodiff import Tape

    modules = {info.name: importlib.import_module(f"wtal.{info.name}")
               for info in pkgutil.iter_modules(wtal.__path__)}
    saved = []
    for module, attr, hook in TRACED:
        fn = getattr(modules.get(module), attr, None)
        if fn is None:
            tracer.missing.append(f"{module}.{attr}")
            continue
        wrapper = tracer.wrap(f"{module}.{attr}", fn, hook)
        for mod in modules.values():
            if getattr(mod, attr, None) is fn:
                saved.append((mod, attr, fn))
                setattr(mod, attr, wrapper)
    for op, fn in list(vars(Tape).items()):
        if callable(fn) and not op.startswith("_") and op != "val":
            saved.append((Tape, op, fn))
            setattr(Tape, op, tracer.wrap(f"autodiff.Tape.{op}", fn))
    try:
        yield tracer
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


def self_times(tracer: Tracer) -> np.ndarray:
    """Duration minus the part of the span's interval that its children cover."""
    start, end = tracer.start, tracer.end
    out = [e - s for s, e in zip(start, end)]
    covered_to = {}  # parent -> end of the covered prefix of its interval
    for i, p in enumerate(tracer.parent):
        if p < 0:
            continue
        lo = max(start[i], covered_to.get(p, start[p]))
        hi = min(end[i], end[p])
        if hi > lo:
            out[p] -= hi - lo
            covered_to[p] = hi
    return np.array(out)


def reconcile(tracer: Tracer, self_time: np.ndarray) -> float:
    """Largest |stage duration - sum of self times in its subtree| over cli.* spans."""
    subtree = self_time.tolist()
    for i in range(len(subtree) - 1, -1, -1):
        if tracer.parent[i] >= 0:
            subtree[tracer.parent[i]] += subtree[i]
    worst = 0.0
    for i, name_id in enumerate(tracer.name):
        if tracer.names[name_id].startswith("cli."):
            duration = tracer.end[i] - tracer.start[i]
            worst = max(worst, abs(duration - subtree[i]))
    return worst


def _pct(values, q) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def per_layer(tracer: Tracer, untraced_s: float, traced_s: float,
              average_map: float) -> tuple[dict[str, float], dict]:
    """Reduce the spans to ``PER_LAYER`` values; also return sample counts."""
    self_time = self_times(tracer)
    ids = np.frombuffer(tracer.name, dtype=np.int32)
    duration = (np.frombuffer(tracer.end, dtype=np.float64)
                - np.frombuffer(tracer.start, dtype=np.float64))

    def durations(name):
        if name not in tracer.names:
            return np.zeros(0)
        return duration[ids == tracer.names.index(name)]

    def self_total(name):
        if name not in tracer.names:
            return 0.0
        return float(self_time[ids == tracer.names.index(name)].sum())

    def total(*names):
        return float(sum(durations(n).sum() for n in names))

    c = tracer.counts
    values: dict[str, float] = {
        "data.generate_synthetic_s": total("data.generate_synthetic"),
        "data.load_features_s": total("data.load_features"),
        "data.load_features_calls": c["data.load_features_calls"],
        "data.load_features_mb": c["load_features_bytes"] / MB,
        "data.parse_manifest_s": total("data.parse_manifest"),
    }
    ops = [n for n in tracer.names if n.startswith("autodiff.Tape.")]
    for op in NAMED_OPS:
        values[f"autodiff.op_s.{op}"] = self_total(f"autodiff.Tape.{op}")
        values[f"autodiff.op_calls.{op}"] = len(durations(f"autodiff.Tape.{op}"))
    others = [n for n in ops if n.split(".")[-1] not in NAMED_OPS]
    values["autodiff.op_s.other"] = sum(self_total(n) for n in others)
    values["autodiff.op_calls.other"] = sum(len(durations(n)) for n in others)
    backward = durations("autodiff.backward")
    values["autodiff.backward_s.p50"] = _pct(backward, 50)
    values["autodiff.backward_s.p90"] = _pct(backward, 90)
    tapes = np.array(tracer.tapes, dtype=np.float64).reshape(-1, 3)
    values["autodiff.tape_nodes"] = _pct(tapes[:, 1], 50)
    values["autodiff.tape_mb.p50"] = _pct(tapes[:, 2], 50) / MB
    values["autodiff.tape_mb.max"] = float(tapes[:, 2].max()) / MB if len(tapes) else 0.0
    values["autodiff.tape_mb_at_t750"] = _tape_bytes_at(tapes, TAPE_REFERENCE_T) / MB
    forward = durations("model.forward_scores")
    values.update({
        "model.run_forward_s.p50": _pct(durations("model.run_forward"), 50),
        "model.run_forward_self_s": self_total("model.run_forward"),
        "model.forward_scores_s.p50": _pct(forward, 50),
        "model.forward_scores_s.p90": _pct(forward, 90),
        "model.save_checkpoint_s": total("model.save_checkpoint"),
        "model.load_checkpoint_s": total("model.load_checkpoint"),
        "losses.total_loss_s": total("losses.total_loss"),
    })
    epochs = durations("training.train_epoch")
    adam = durations("training.adam_step")
    values.update({
        "training.train_epoch_s.first": float(epochs[0]) if len(epochs) else 0.0,
        "training.train_epoch_s.steady_p50": _pct(epochs[1:], 50),
        "training.adam_step_s.p50": _pct(adam, 50),
        "training.adam_step_calls": len(adam),
        "training.save_train_state_s": total("training.save_train_state"),
        "training.videos_skipped": c["training.videos_skipped"],
    })
    localize = durations("localization.localize_video")
    candidates = c["localization.candidates"]
    values.update({
        "localization.localize_video_s.p50": _pct(localize, 50),
        "localization.localize_video_s.p90": _pct(localize, 90),
        "localization.candidates": candidates,
        "localization.nms_s": total("localization.nms"),
        "localization.nms_kept": c["localization.nms_kept"],
        "localization.nms_keep_ratio": (c["localization.nms_kept"] / candidates
                                        if candidates else 0.0),
        "localization.write_detections_s": total("localization.write_detections_csv",
                                                 "localization.write_detections_json"),
        "localization.read_detections_s": total("localization.read_detections"),
        "evaluation.map_report_s": total("evaluation.map_report"),
        "evaluation.average_precision_calls": c["evaluation.average_precision_calls"],
        "evaluation.detections_scored": c["evaluation.detections_scored"],
        "evaluation.average_map": average_map,
    })
    for stage in ("synth", "train", "localize", "eval"):
        values[f"cli.{stage}_s"] = total(f"cli.{stage}")
    values["trace.overhead_s"] = traced_s - untraced_s
    values["trace.overhead_ratio"] = traced_s / untraced_s - 1.0
    values["trace.reconcile_error_s"] = reconcile(tracer, self_time)
    samples = {"spans": len(ids), "backward": len(backward), "forward_scores": len(forward),
               "train_epoch": len(epochs), "adam_step": len(adam),
               "localize_video": len(localize), "tapes": len(tapes),
               "missing": tracer.missing}
    return {k: float(v) for k, v in values.items()}, samples


def _tape_bytes_at(tapes: np.ndarray, t: int) -> float:
    """Tape bytes are affine in T, so a line through (T, bytes) gives any length."""
    if len(tapes) == 0:
        return 0.0
    if len(np.unique(tapes[:, 0])) < 2:
        return float(tapes[0, 2])
    slope, intercept = np.polyfit(tapes[:, 0], tapes[:, 2], 1)
    return float(slope * t + intercept)
