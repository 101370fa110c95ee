"""Score sequences to scored temporal action instances.

Pipeline per video: reject unconfident classes, fuse foreground and class
score sequences into [0, 1], upsample to frame rate, sweep a threshold grid
to cut candidate intervals, score each by outer-inner contrast plus the
video-level class probability, then class-wise greedy NMS.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from operator import itemgetter
from types import SimpleNamespace

import numpy as np

from .errors import ConfigError, ContractError, FormatError, InputError
from .data import VideoEntry, atomic_write, read_json
from .evaluation import Detections, tiou_array
from .model import ScoreSet, forward_scores


@dataclass
class LocalizeConfig:
    class_reject_threshold: float = 0.1
    proposal_thresholds: tuple[float, ...] = tuple(round(0.1 * i, 1) for i in range(1, 10))
    nms_tiou: float = 0.5
    fusion_weight: float = 0.5     # weight of the foreground sequence
    context_ratio: float = 0.25    # flanking context length per side, as a
                                   # fraction of the candidate length

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


def minmax(x: np.ndarray) -> np.ndarray:
    """Map a sequence, or each column of a table, to [0, 1]; a constant one reads 0.5."""
    x = x.astype(np.float64)
    lo, hi = x.min(axis=0), x.max(axis=0)
    return np.divide(x - lo, hi - lo, out=np.full_like(x, 0.5), where=hi != lo)


def fuse_scores(s_a: np.ndarray, s_f: np.ndarray, fusion_weight: float) -> np.ndarray:
    """Blend the normalized foreground sequence into each normalized class column."""
    if s_a.ndim != 2 or s_f.ndim != 1 or s_a.shape[0] != s_f.shape[0]:
        raise ContractError(f"fuse_scores shapes {s_a.shape} vs {s_f.shape}")
    return fusion_weight * minmax(s_f)[:, None] + (1 - fusion_weight) * minmax(s_a)


def upsample(g: np.ndarray, stride: int) -> np.ndarray:
    """Linear interpolation of each column of ``g`` from snippet centers to
    frames: a ``(T*stride, columns)`` array."""
    if g.shape[0] == 0:
        raise InputError("cannot upsample an empty sequence")
    if stride < 1:
        raise ContractError(f"stride {stride} must be positive")
    t = g.shape[0]
    frames = np.arange(t * stride, dtype=np.float64)
    centers = np.arange(t, dtype=np.float64) * stride + (stride - 1) / 2.0
    out = np.empty((g.shape[1], t * stride))
    for c in range(g.shape[1]):
        out[c] = np.interp(frames, centers, g[:, c].astype(np.float64))
    return out.T


def propose(frames: np.ndarray, thresholds, fps: float, class_conf,
            context_ratio: float) -> np.ndarray:
    """Multi-threshold candidate intervals of every column of a frame table.

    Returns an ``(n, 4)`` float64 array of ``[column, start_s, end_s, score]``
    rows, one per distinct frame interval ``[start, end)`` that some threshold
    cuts from a column, ordered by (column, start, end). The score is the
    mean inside the interval minus the mean over the two flanking context
    windows of ``ceil(context_ratio * length)`` frames each, clipped at the
    video bounds (an empty context counts 0), plus the column's
    ``class_conf``. Every window sum is a difference of one float64 prefix
    sum per column, added along the frames in order, so a score may differ
    from the directly summed window means in the last bits. Thresholds are
    compared one at a time: one more float64 table of the frames at most.
    """
    g = np.asarray(frames, dtype=np.float64).T  # one row per column, along frames
    n = g.shape[1]
    above, keys = np.zeros((g.shape[0], n + 2), dtype=bool), []
    for t in thresholds:
        np.greater(g, t, out=above[:, 1:-1])
        # every row starts and ends below t, so its flips alternate rise, fall
        flips = np.flatnonzero(above[:, 1:] != above[:, :-1])
        keys.append(flips[0::2] * (n + 1) + flips[1::2] % (n + 1))
    del above  # before the prefix sums
    key = np.sort(np.concatenate(keys))
    # one row per interval; np.unique would do, but its first call costs
    # ~1.2 MB of resident memory
    flat, end = np.divmod(key[np.diff(key, prepend=-1) > 0], n + 1)
    row, start = np.divmod(flat, n + 1)
    length = end - start
    # n frames already reach both bounds; a larger ratio may overflow int64
    ctx = np.ceil(min(context_ratio, n) * length).astype(np.int64)
    lo, hi = np.maximum(start - ctx, 0), np.minimum(end + ctx, n)
    cum = np.zeros((g.shape[0], n + 1))
    np.cumsum(g, axis=1, out=cum[:, 1:])
    at_start, at_end, at_lo, at_hi = (cum.ravel()[row * (n + 1) + i]
                                      for i in (start, end, lo, hi))
    score = (at_end - at_start) / length
    outer_n = (start - lo) + (hi - end)
    outer = (at_start - at_lo) + (at_hi - at_end)
    score -= np.divide(outer, outer_n, out=np.zeros_like(outer), where=outer_n > 0)
    score += np.asarray(class_conf, dtype=np.float64)[row]
    return np.stack([row, start / fps, end / fps, score], axis=1)


def nms(candidates: np.ndarray, tiou_threshold: float) -> np.ndarray:
    """Class-wise greedy suppression over ``[class, start, end, score]``
    rows; returns the kept rows ranked by (-score, start, end, class).

    Within each class the result equals the quadratic definition exactly:
    rank the rows by (-score, start, end), keeping the input order of equal
    keys, repeatedly keep the first survivor and drop every later one whose
    ``tiou`` with it is not below the (positive) threshold. Only overlapping
    pairs are visited: by (class, start), the later rows of a row's class
    that start before it ends (at most ``m`` per row when ``m`` thresholds
    cut them, being nested or disjoint), swept in rank order.
    """
    pool = candidates[np.lexsort((*candidates[:, [0, 2, 1]].T, -candidates[:, 3]))]
    n = len(pool)
    start, end = pool[:, 1], pool[:, 2]
    # (class, start) and (class, end) as integers that compare the same: the
    # rank of a bound among all bounds, offset per class. The sorts are stable
    # to reuse lexsort's kernels; a first quicksort maps ~0.2 MB more memory.
    bounds = np.sort(pool[:, 1:3].ravel(), kind="stable")
    offset = pool[:, 0].astype(np.int64) * (2 * n + 1)
    first, last = offset + np.searchsorted(bounds, pool[:, 1:3].T)
    order = np.argsort(first, kind="stable")
    count = np.maximum(np.searchsorted(first[order], last[order]) - np.arange(1, n + 1), 0)
    i = np.repeat(np.arange(n), count)
    j = i + 1 + np.arange(len(i)) - np.repeat(np.cumsum(count) - count, count)
    a, b = order[i], order[j]
    hit = ~(tiou_array(start[a], end[a], start[b], end[b]) < tiou_threshold)
    pairs = np.sort([a[hit], b[hit]], axis=0)  # (higher rank, lower rank)
    alive = [True] * n
    for r, q in pairs[:, np.argsort(pairs[0], kind="stable")].T.tolist():
        if alive[r]:
            alive[q] = False
    return pool[np.array(alive, dtype=bool)]


def localize_video(scores: ScoreSet, video: VideoEntry, config: LocalizeConfig) -> Detections:
    """Class-wise NMS over the ``propose`` candidates of the classes that the
    video's scores do not reject, in one ``propose`` and one ``nms`` call for
    all of them: the detections of ``video``, by (-score, start, end,
    class_id)."""
    conf = np.asarray(scores.class_conf, dtype=np.float64)
    kept = np.flatnonzero(conf >= config.class_reject_threshold)
    fused = fuse_scores(scores.s_a, scores.s_f, config.fusion_weight)
    candidates = propose(upsample(fused[:, kept], video.snippet_stride),
                         config.proposal_thresholds, video.fps, conf[kept], config.context_ratio)
    column, start, end, score = nms(candidates, config.nms_tiou).T
    bad = np.flatnonzero(~((0 <= start) & (start < end)))
    if bad.size:
        raise ContractError(f"invalid instance interval [{start[bad[0]]}, {end[bad[0]]})")
    return Detections((video.video_id,), np.zeros(len(column), dtype=np.int64),
                      kept[column.astype(np.int64)], start, end, score)


def localize_split(manifest, split: str, params, model_config, config: LocalizeConfig,
                   on_scores=None) -> Detections:
    """Forward pass and ``localize_video`` for each video of a manifest split
    that has snippets, as one table in manifest order, reading one video's
    features at a time; ``on_scores(video, scores)``, if given, sees the
    scores of each forward pass."""
    tables = []
    for video in manifest.split(split):
        if video.num_snippets:
            scores = forward_scores(manifest.video_features(video), params, model_config)
            if on_scores is not None:
                on_scores(video, scores)
            tables.append(localize_video(scores, video, config))
    return Detections.concat(tables)


DETECTIONS_HEADER = ["video_id", "label", "t_start", "t_end", "score"]


def _csv_cells(names) -> list[str]:
    """Each name as ``csv.writer`` writes it as one cell of several; a row of
    one empty cell would read ``""``."""
    quote = csv.writer(SimpleNamespace(write=str)).writerow  # returns the line
    return [quote([name, ""])[:-3] for name in names]


def write_detections_csv(path, detections: Detections, class_names: list[str]) -> None:
    """One row per detection, in table order, floats as their ``repr``."""
    videos, labels = _csv_cells(detections.video_ids), _csv_cells(class_names)
    with atomic_write(path, newline="") as fh:
        fh.write(",".join(DETECTIONS_HEADER) + "\r\n")
        fh.writelines(f"{videos[v]},{labels[c]},{start},{end},{score}\r\n"
                      for v, c, start, end, score in zip(
                          detections.video.tolist(), detections.class_id.tolist(),
                          *detections.text))


def write_detections_json(path, detections: Detections, class_names: list[str]) -> None:
    """Compact ``{"results": {video_id: [...]}}``, encoded one video at a time
    so that no string of the whole document is built. Videos with detections
    come in ``video_ids`` order, their detections in row order, and floats
    as their ``repr``, which is how ``json`` writes a finite float."""
    rows = np.argsort(detections.video, kind="stable").tolist()
    counts = np.bincount(detections.video, minlength=len(detections.video_ids)).tolist()
    labels = [json.dumps(name) for name in class_names]
    class_id = detections.class_id.tolist()
    start, end, score = detections.text
    with atomic_write(path) as fh:
        fh.write('{"results": {')
        lo = 0
        for video_id, count in zip(detections.video_ids, counts):
            if count:
                items = ", ".join('{"label": %s, "score": %s, "segment": [%s, %s]}' % (
                    labels[class_id[i]], score[i], start[i], end[i]) for i in rows[lo:lo + count])
                fh.write(f"{', ' if lo else ''}{json.dumps(video_id)}: [{items}]")
                lo += count
        fh.write("}}")


def _csv_rows(path: str):
    """The cells of each CSV detection, read as ``csv.DictReader`` reads them:
    the first line is the header, a repeated name reads its last column, blank
    lines are skipped, and a short row reads ``None`` for its missing cells."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, [])
            column = {name: i for i, name in enumerate(header)}
            missing = [c for c in DETECTIONS_HEADER if c not in column]
            if missing:
                raise FormatError(f"{path}: missing column(s) {', '.join(missing)}")
            cells = itemgetter(*(column[c] for c in ("video_id", "label", "score", "t_start",
                                                     "t_end")))
            pad = [None] * len(header)
            for row in reader:
                if row:
                    yield cells(row + pad)
        except (csv.Error, UnicodeDecodeError) as exc:
            raise FormatError(f"{path}: line {reader.line_num}: not valid CSV ({exc})") \
                from None


def _json_rows(path: str):
    """The cells of each JSON detection, videos and detections in file order."""
    payload = read_json(path, FormatError)
    results = payload.get("results") if isinstance(payload, dict) else None
    if not isinstance(results, dict):
        raise FormatError(f'{path}: expected an object with a "results" object')
    for video_id, dets in results.items():
        if not isinstance(dets, list):
            raise FormatError(f"{path}: video {video_id}: detections must be a list")
        for d in dets:
            try:
                label, score, (start, end) = d["label"], d["score"], d["segment"]
            except (KeyError, TypeError, ValueError):
                raise FormatError(f'{path}: video {video_id}: a detection must be '
                                  f'{{"label", "score", "segment": [start, end]}}') from None
            yield video_id, label, score, start, end


def read_detections(path, class_names: list[str]) -> Detections:
    """Read either the CSV or the JSON detections format (by extension).

    Anything malformed raises ``FormatError`` naming the file and the video:
    text that does not parse, a missing CSV column or JSON key, a CSV row
    without a video id, a ``segment`` that is not ``[start, end]``, an
    unknown label, or a score or bound that is not a number or is NaN or
    infinite (``nan``/``inf`` in CSV, the ``NaN``/``Infinity`` literals in
    JSON). Each detection is checked as it is read, so the error names the
    first fault in file order.
    """
    path = str(path)
    index = {name: i for i, name in enumerate(class_names)}
    ids: dict[str, int] = {}
    video, class_id, numbers = [], [], []
    rows = _json_rows(path) if path.endswith(".json") else _csv_rows(path)
    for video_id, label, score, start, end in rows:
        if video_id is None:
            raise FormatError(f"{path}: a detection has no video_id")
        c = index.get(label, -1) if isinstance(label, str) else -1
        if c < 0:
            raise FormatError(f"{path}: video {video_id}: unknown class label {label!r}")
        try:
            score, start, end = float(score), float(start), float(end)
        except (TypeError, ValueError, OverflowError) as exc:
            raise FormatError(f"{path}: video {video_id}: score and segment bounds must be "
                              f"numbers ({exc})") from None
        if not (math.isfinite(score) and math.isfinite(start) and math.isfinite(end)):
            raise FormatError(f"{path}: video {video_id}: non-finite detection (score "
                              f"{score!r}, segment [{start!r}, {end!r}])")
        video.append(ids.setdefault(video_id, len(ids)))
        class_id.append(c)
        numbers.append((score, start, end))
    score, start, end = np.array(numbers, dtype=np.float64).reshape(-1, 3).T.copy()
    return Detections(tuple(ids), np.array(video, dtype=np.int64),
                      np.array(class_id, dtype=np.int64), start, end, score)
