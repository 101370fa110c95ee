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


def propose(g_c: np.ndarray, thresholds, fps: float, class_conf: float,
            context_ratio: float, include_class_conf: bool = True) -> np.ndarray:
    """Multi-threshold candidate intervals for one class sequence.

    Returns an ``(n, 3)`` float64 array of ``[start_s, end_s, score]`` rows,
    one per distinct frame interval ``[start, end)`` that some threshold cuts,
    ordered by (start, end). The score is the mean inside the interval minus
    the mean over the two flanking context windows of ``ceil(context_ratio *
    length)`` frames each, clipped at the video bounds (an empty context
    counts 0), plus ``class_conf`` if ``include_class_conf``. Every window
    sum is a difference of one float64 prefix sum, so a score may differ
    from the directly summed window means in the last bits.
    """
    g = np.asarray(g_c, dtype=np.float64)
    n = g.shape[0]
    ts = np.asarray(thresholds, dtype=np.float64)
    above = np.zeros((ts.size, n + 2), dtype=np.int8)
    above[:, 1:-1] = g > ts[:, None]
    edges = np.diff(above, axis=1).ravel()
    # row-major order pairs the k-th rising edge with the k-th falling one
    key = np.sort(np.flatnonzero(edges == 1) % (n + 1) * (n + 1)
                  + np.flatnonzero(edges == -1) % (n + 1))
    # one row per interval; np.unique would do, but its first call costs
    # ~1.2 MB of resident memory
    key = key[np.diff(key, prepend=-1) > 0]
    start, end = np.divmod(key, n + 1)
    length = end - start
    ctx = np.ceil(context_ratio * length).astype(np.int64)
    lo = np.maximum(start - ctx, 0)
    hi = np.minimum(end + ctx, n)
    cum = np.concatenate([[0.0], np.cumsum(g)])
    score = (cum[end] - cum[start]) / length
    outer_n = (start - lo) + (hi - end)
    outer = (cum[start] - cum[lo]) + (cum[hi] - cum[end])
    score -= np.divide(outer, outer_n, out=np.zeros_like(outer), where=outer_n > 0)
    if include_class_conf:
        score += class_conf
    return np.stack([start / fps, end / fps, score], axis=1)


def nms(candidates: np.ndarray, tiou_threshold: float) -> np.ndarray:
    """Greedy suppression over one class's ``[start, end, score]`` rows;
    returns the kept rows, highest-ranked first.

    The result equals the quadratic definition exactly: rank the rows by
    (-score, start, end), keeping the input order of equal keys, repeatedly
    keep the first survivor and drop every later one whose ``tiou`` with it
    is not below the threshold. ``tiou_array`` gives the same IEEE overlaps,
    computed in row blocks of at most ``NMS_BLOCK_BYTES`` each. The sweep
    visits only rows that suppress something, and each of those acts only if
    it is still alive when reached.
    """
    pool = candidates[np.lexsort((candidates[:, 1], candidates[:, 0], -candidates[:, 2]))]
    n = len(pool)
    starts, ends = pool[:, 0], pool[:, 1]
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
    return pool[alive]


def localize_stream(scores: StreamScores, num_classes: int,
                    config: LocalizeConfig) -> dict[int, np.ndarray]:
    """Candidate rows of ``propose`` for each class the stream does not reject."""
    fused = fuse_scores(scores.s_a, scores.s_f, num_classes, config.fusion_weight)
    frames, _ = upsample(fused, scores.snippet_stride, scores.fps)
    candidates: dict[int, np.ndarray] = {}
    for c in range(num_classes):
        conf = float(scores.p_video_class[c])
        if conf < config.class_reject_threshold:
            continue
        candidates[c] = propose(frames[:, c], config.proposal_thresholds, scores.fps,
                                conf, config.context_ratio, config.include_class_conf)
    return candidates


def localize_video(streams: list[StreamScores], num_classes: int,
                   config: LocalizeConfig) -> list[ActionInstance]:
    """Pool candidates from one or two streams, then class-wise NMS.

    Detections come out by (-score, start, end, class_id).
    """
    if not 1 <= len(streams) <= 2:
        raise ContractError(f"expected 1 or 2 streams, got {len(streams)}")
    per_stream = [localize_stream(scores, num_classes, config) for scores in streams]
    kept, class_ids = [], []
    for c in range(num_classes):
        pooled = [candidates[c] for candidates in per_stream if c in candidates]
        if pooled:
            kept.append(nms(np.concatenate(pooled), config.nms_tiou))
            class_ids.append(np.full(len(kept[-1]), c))
    if not kept:
        return []
    rows = np.concatenate(kept)
    class_id = np.concatenate(class_ids)
    order = np.lexsort((class_id, rows[:, 1], rows[:, 0], -rows[:, 2]))
    return [ActionInstance(class_id=c, score=q, start=s, end=e)
            for c, (s, e, q) in zip(class_id[order].tolist(), rows[order].tolist())]


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


def _record(where: str, index: dict[str, int], video_id, label, score, start,
            end) -> DetectionRecord:
    if not isinstance(label, str) or label not in index:
        raise FormatError(f"{where}: unknown class label {label!r}")
    try:
        record = DetectionRecord(video_id=video_id, class_id=index[label], label=label,
                                 score=float(score), start=float(start), end=float(end))
    except (TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"{where}: score and segment bounds must be numbers ({exc})") \
            from None
    if not (math.isfinite(record.score) and math.isfinite(record.start)
            and math.isfinite(record.end)):
        raise FormatError(f"{where}: non-finite detection (score {record.score!r}, "
                          f"segment [{record.start!r}, {record.end!r}])")
    return record


def read_detections(path, class_names: list[str]) -> list[DetectionRecord]:
    """Read either the CSV or the JSON detections format (by extension).

    Anything malformed raises ``FormatError`` naming the file and the video:
    text that does not parse, a missing CSV column or JSON key, a
    ``segment`` that is not ``[start, end]``, an unknown label, or a score or
    bound that is not a number or is NaN or infinite (``nan``/``inf`` in CSV,
    the ``NaN``/``Infinity`` literals in JSON).
    """
    index = {name: i for i, name in enumerate(class_names)}
    records: list[DetectionRecord] = []
    path = str(path)
    if path.endswith(".json"):
        try:
            with open(path) as fh:
                payload = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise FormatError(f"{path}: not valid JSON ({exc})") from None
        results = payload.get("results") if isinstance(payload, dict) else None
        if not isinstance(results, dict):
            raise FormatError(f'{path}: expected an object with a "results" object')
        for video_id, dets in results.items():
            where = f"{path}: video {video_id}"
            if not isinstance(dets, list):
                raise FormatError(f"{where}: detections must be a list")
            for d in dets:
                try:
                    label, score, (start, end) = d["label"], d["score"], d["segment"]
                except (KeyError, TypeError, ValueError):
                    raise FormatError(f'{where}: a detection must be {{"label", "score", '
                                      f'"segment": [start, end]}}') from None
                records.append(_record(where, index, video_id, label, score, start, end))
        return records
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        try:
            missing = [c for c in DETECTIONS_HEADER if c not in (reader.fieldnames or ())]
            if missing:
                raise FormatError(f"{path}: missing column(s) {', '.join(missing)}")
            for row in reader:
                records.append(_record(f"{path}: video {row['video_id']}", index,
                                       row["video_id"], row["label"], row["score"],
                                       row["t_start"], row["t_end"]))
        except (csv.Error, UnicodeDecodeError) as exc:
            raise FormatError(f"{path}: line {reader.line_num}: not valid CSV ({exc})") \
                from None
    return records
