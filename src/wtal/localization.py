"""Score sequences to scored temporal action instances.

Pipeline per stream: reject unconfident classes, fuse foreground and class
score sequences into [0, 1], upsample to frame rate, sweep a threshold grid
to cut candidate intervals, score each by outer-inner contrast plus the
video-level class probability, then class-wise greedy NMS across streams.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError, FormatError, InputError
from .data import atomic_write
from .evaluation import tiou_array

# Cap on the bytes of one pairwise-overlap block in ``nms``.
NMS_BLOCK_BYTES = 2 << 20


@dataclass
class ActionInstance:
    class_id: int
    score: float
    start: float  # seconds
    end: float    # seconds

    def __post_init__(self):
        if not 0 <= self.start < self.end:
            raise ContractError(f"invalid instance interval [{self.start}, {self.end})")


@dataclass
class LocalizeConfig:
    class_reject_threshold: float = 0.1
    proposal_thresholds: tuple[float, ...] = tuple(round(0.1 * i, 1) for i in range(1, 10))
    nms_tiou: float = 0.5
    fusion_weight: float = 0.5     # weight of the foreground sequence
    context_ratio: float = 0.25    # flanking context length per side, as a
                                   # fraction of the candidate length
    include_class_conf: bool = True

    def __post_init__(self):
        self.proposal_thresholds = tuple(float(t) for t in self.proposal_thresholds)
        ts = self.proposal_thresholds
        if not ts or any(not 0 < t < 1 for t in ts) or any(a >= b for a, b in zip(ts, ts[1:])):
            raise ConfigError("proposal_thresholds must be strictly increasing within (0, 1)")
        if not 0 < self.nms_tiou <= 1:
            raise ConfigError("nms_tiou must lie in (0, 1]")
        if not 0 <= self.fusion_weight <= 1:
            raise ConfigError("fusion_weight must lie in [0, 1]")
        if self.context_ratio < 0:
            raise ConfigError("context_ratio must be non-negative")


@dataclass
class StreamScores:
    """Per-stream model outputs plus the timing metadata to map them to seconds."""
    s_a: np.ndarray   # (T, K) snippet class scores, background column last if present
    s_f: np.ndarray   # (T,) snippet foreground scores
    p_video_class: np.ndarray  # (K,) video-level class probabilities
    snippet_stride: int
    fps: float


def minmax(x: np.ndarray) -> np.ndarray:
    """Map a sequence to [0, 1]; a constant sequence becomes all 0.5."""
    lo, hi = float(x.min()), float(x.max())
    if hi == lo:
        return np.full_like(x, 0.5, dtype=np.float64)
    return (x.astype(np.float64) - lo) / (hi - lo)


def fuse_scores(s_a: np.ndarray, s_f: np.ndarray, num_classes: int,
                fusion_weight: float = 0.5) -> np.ndarray:
    """Blend normalized foreground and per-class sequences; drops any
    background column beyond num_classes."""
    if s_a.ndim != 2 or s_f.ndim != 1 or s_a.shape[0] != s_f.shape[0]:
        raise ContractError(f"fuse_scores shapes {s_a.shape} vs {s_f.shape}")
    if s_a.shape[1] < num_classes:
        raise ContractError(f"{s_a.shape[1]} score columns < {num_classes} classes")
    fore = minmax(s_f)
    fused = np.empty((s_a.shape[0], num_classes), dtype=np.float64)
    for c in range(num_classes):
        fused[:, c] = fusion_weight * fore + (1 - fusion_weight) * minmax(s_a[:, c])
    return fused


def upsample(g: np.ndarray, stride: int, fps: float) -> tuple[np.ndarray, np.ndarray]:
    """Linear interpolation from snippet centers to frames.

    Returns (frame_scores of length T*stride, frame times in seconds).
    """
    if g.shape[0] == 0:
        raise InputError("cannot upsample an empty sequence")
    if stride < 1 or fps <= 0:
        raise ContractError(f"stride {stride} and fps {fps} must be positive")
    t = g.shape[0]
    frames = np.arange(t * stride, dtype=np.float64)
    centers = np.arange(t, dtype=np.float64) * stride + (stride - 1) / 2.0
    if g.ndim == 1:
        up = np.interp(frames, centers, g.astype(np.float64))
    else:
        up = np.stack([np.interp(frames, centers, g[:, c].astype(np.float64))
                       for c in range(g.shape[1])], axis=1)
    return up, frames / fps


def _runs_above(x: np.ndarray, threshold: float) -> list[tuple[int, int]]:
    mask = np.concatenate([[0], (x > threshold).astype(np.int8), [0]])
    diff = np.diff(mask)
    starts = np.flatnonzero(diff == 1)
    ends = np.flatnonzero(diff == -1)
    return list(zip(starts.tolist(), ends.tolist()))


def outer_inner_score(g: np.ndarray, start: int, end: int, context_ratio: float) -> float:
    """Mean inside [start, end) minus mean over the flanking context windows;
    an empty context (clipped away at the video bounds) contributes 0.

    Each mean is ``np.add.reduce`` over the window divided by its length, the
    reduction ``ndarray.mean`` performs on float64, so the bits are the same.
    The two context windows are summed as one array for the same reason.
    """
    inner = float(np.add.reduce(g[start:end])) / (end - start)
    ctx = math.ceil(context_ratio * (end - start))
    left = g[max(0, start - ctx):start]
    right = g[end:min(len(g), end + ctx)]
    outer = np.concatenate([left, right])
    return inner - (float(np.add.reduce(outer)) / outer.size if outer.size else 0.0)


def propose(g_c: np.ndarray, thresholds, fps: float, class_conf: float,
            context_ratio: float, class_id: int,
            include_class_conf: bool = True) -> list[ActionInstance]:
    """Multi-threshold candidate intervals for one class, deduplicated by
    interval with the best score kept."""
    best: dict[tuple[int, int], float] = {}
    for threshold in thresholds:
        for start, end in _runs_above(g_c, threshold):
            q = outer_inner_score(g_c, start, end, context_ratio)
            if include_class_conf:
                q += class_conf
            key = (start, end)
            if key not in best or q > best[key]:
                best[key] = q
    return [ActionInstance(class_id=class_id, score=q, start=s / fps, end=e / fps)
            for (s, e), q in sorted(best.items())]


def nms(instances: list[ActionInstance], tiou_threshold: float) -> list[ActionInstance]:
    """Greedy class-wise suppression; keeps the highest-scoring instance and
    drops anything overlapping it at or above the threshold.

    The result equals the quadratic definition exactly: sort by (-score,
    start, end), repeatedly keep the first survivor and drop every later one
    whose ``tiou`` with it is not below the threshold. ``tiou_array`` gives
    the same IEEE overlaps, computed in row blocks of at most
    ``NMS_BLOCK_BYTES`` each. The sweep visits only rows that suppress
    something, and each of those acts only if it is still alive when reached.
    """
    if len({inst.class_id for inst in instances}) > 1:
        raise ContractError("nms operates on a single class at a time")
    pool = sorted(instances, key=lambda i: (-i.score, i.start, i.end))
    n = len(pool)
    starts = np.array([i.start for i in pool], dtype=np.float64)
    ends = np.array([i.end for i in pool], dtype=np.float64)
    alive = np.ones(n, dtype=bool)
    rows = max(1, NMS_BLOCK_BYTES // (8 * max(n, 1)))
    for first in range(0, n, rows):
        block = first + np.flatnonzero(alive[first:first + rows])
        if not block.size:
            continue
        overlap = tiou_array(starts[block, None], ends[block, None],
                             starts[first:], ends[first:])
        suppress = ~(overlap < tiou_threshold)
        suppress &= np.arange(first, n) > block[:, None]
        for r in np.flatnonzero(suppress.any(axis=1)).tolist():
            if alive[block[r]]:
                alive[first:] &= ~suppress[r]
    return [inst for inst, keep in zip(pool, alive.tolist()) if keep]


def localize_stream(scores: StreamScores, num_classes: int,
                    config: LocalizeConfig) -> list[ActionInstance]:
    instances: list[ActionInstance] = []
    fused = fuse_scores(scores.s_a, scores.s_f, num_classes, config.fusion_weight)
    frames, _ = upsample(fused, scores.snippet_stride, scores.fps)
    for c in range(num_classes):
        conf = float(scores.p_video_class[c])
        if conf < config.class_reject_threshold:
            continue
        instances.extend(propose(frames[:, c], config.proposal_thresholds, scores.fps,
                                 conf, config.context_ratio, c,
                                 config.include_class_conf))
    return instances


def localize_video(streams: list[StreamScores], num_classes: int,
                   config: LocalizeConfig) -> list[ActionInstance]:
    """Pool candidates from one or two streams, then class-wise NMS."""
    if not 1 <= len(streams) <= 2:
        raise ContractError(f"expected 1 or 2 streams, got {len(streams)}")
    pooled: list[ActionInstance] = []
    for scores in streams:
        pooled.extend(localize_stream(scores, num_classes, config))
    final: list[ActionInstance] = []
    for c in range(num_classes):
        final.extend(nms([i for i in pooled if i.class_id == c], config.nms_tiou))
    return sorted(final, key=lambda i: (-i.score, i.start, i.end, i.class_id))


@dataclass
class DetectionRecord:
    video_id: str
    class_id: int
    label: str
    score: float
    start: float
    end: float


DETECTIONS_HEADER = ["video_id", "label", "t_start", "t_end", "score"]


def write_detections_csv(path, records: list[DetectionRecord]) -> None:
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(DETECTIONS_HEADER)
        for r in records:
            writer.writerow([r.video_id, r.label, repr(r.start), repr(r.end), repr(r.score)])


def write_detections_json(path, records: list[DetectionRecord]) -> None:
    """Compact ``{"results": {video_id: [...]}}``, encoded one video at a time
    so that no string of the whole document is built."""
    results: dict[str, list] = {}
    for r in records:
        results.setdefault(r.video_id, []).append(
            {"label": r.label, "score": r.score, "segment": [r.start, r.end]})
    with atomic_write(path) as fh:
        fh.write('{"results": {')
        for k, (video_id, dets) in enumerate(results.items()):
            fh.write(f"{', ' if k else ''}{json.dumps(video_id)}: {json.dumps(dets)}")
        fh.write("}}")


def _check_finite(path, records: list[DetectionRecord]) -> list[DetectionRecord]:
    for r in records:
        if not (math.isfinite(r.score) and math.isfinite(r.start) and math.isfinite(r.end)):
            raise FormatError(f"{path}: video {r.video_id}: non-finite detection "
                              f"(score {r.score!r}, segment [{r.start!r}, {r.end!r}])")
    return records


def read_detections(path, class_names: list[str]) -> list[DetectionRecord]:
    """Read either the CSV or the JSON detections format (by extension).

    A score or bound that is NaN or infinite (``nan``/``inf`` in CSV, the
    ``NaN``/``Infinity`` literals in JSON) raises ``FormatError``.
    """
    index = {name: i for i, name in enumerate(class_names)}

    def lookup(label: str) -> int:
        if label not in index:
            raise FormatError(f"{path}: unknown class label {label!r}")
        return index[label]

    records: list[DetectionRecord] = []
    path = str(path)
    if path.endswith(".json"):
        with open(path) as fh:
            payload = json.load(fh)
        for video_id, dets in payload["results"].items():
            for d in dets:
                records.append(DetectionRecord(
                    video_id=video_id, class_id=lookup(d["label"]), label=d["label"],
                    score=float(d["score"]), start=float(d["segment"][0]),
                    end=float(d["segment"][1])))
        return _check_finite(path, records)
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            records.append(DetectionRecord(
                video_id=row["video_id"], class_id=lookup(row["label"]),
                label=row["label"], score=float(row["score"]),
                start=float(row["t_start"]), end=float(row["t_end"])))
    return _check_finite(path, records)
