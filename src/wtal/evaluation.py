"""Temporal-IoU matching and detection mAP over a threshold grid."""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import groupby
from operator import itemgetter

import numpy as np

from .data import GroundTruthInstance, atomic_write
from .errors import ContractError

THUMOS_GRID = tuple(round(0.1 * i, 1) for i in range(1, 8))          # 0.1:0.1:0.7
ACTIVITYNET_GRID = tuple(round(0.5 + 0.05 * i, 2) for i in range(10))  # 0.5:0.05:0.95


def tiou_array(a_start, a_end, b_start, b_end) -> np.ndarray:
    """Temporal intersection over union elementwise over broadcast float64
    arrays; a zero-length interval overlaps nothing."""
    inter = np.maximum(0.0, np.minimum(a_end, b_end) - np.maximum(a_start, b_start))
    union = np.maximum(a_end, b_end) - np.minimum(a_start, b_start)
    return np.divide(inter, union, out=np.zeros_like(inter), where=union > 0)


@dataclass(frozen=True)
class Detections:
    """Scored detections as one column table.

    Row ``i`` claims class ``class_id[i]`` over ``[start[i], end[i])``
    seconds of video ``video_ids[video[i]]`` with ``score[i]``. Each video
    id appears once in ``video_ids``; a video may have no rows. A table is
    not mutated once built: its rank order and the text of its numbers are
    derived once and cached.
    """
    video_ids: tuple[str, ...]
    video: np.ndarray     # int64 row -> index into video_ids
    class_id: np.ndarray  # int64
    start: np.ndarray     # float64 seconds
    end: np.ndarray       # float64 seconds
    score: np.ndarray     # float64

    def __len__(self) -> int:
        return len(self.score)

    def take(self, rows) -> Detections:
        """The rows selected by ``rows`` (indices or a boolean mask)."""
        return Detections(self.video_ids, self.video[rows], self.class_id[rows],
                          self.start[rows], self.end[rows], self.score[rows])

    @cached_property
    def rank_order(self) -> np.ndarray:
        """Row indices (read-only) in the order of the key (-score, video id,
        start, end, class id), equal keys in row order, as ``sorted`` with that
        key gives. A NaN score ranks last."""
        ids = self.video_ids
        rank = np.argsort(sorted(range(len(ids)), key=ids.__getitem__))  # index -> id rank
        order = np.lexsort((self.class_id, self.end, self.start, rank[self.video], -self.score))
        order.flags.writeable = False
        return order

    @cached_property
    def text(self) -> tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]]:
        """The ``repr`` of each start, end and score, as both detection files
        write them."""
        return tuple(tuple(map(repr, column.tolist()))
                     for column in (self.start, self.end, self.score))

    @staticmethod
    def concat(tables) -> Detections:
        """The rows of ``tables`` in order; a video id in several tables is one video."""
        ids: dict[str, int] = {}
        parts = [(np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0), np.empty(0),
                  np.empty(0))]
        for t in tables:
            remap = np.array([ids.setdefault(v, len(ids)) for v in t.video_ids], dtype=np.int64)
            parts.append((remap[t.video], t.class_id, t.start, t.end, t.score))
        return Detections(tuple(ids), *(np.concatenate(column) for column in zip(*parts)))


def average_precision(detections: Detections,
                      ground_truths: list[GroundTruthInstance],
                      tiou_threshold: float) -> float:
    """Uninterpolated AP: greedy best-overlap matching in score order, each
    ground truth matched at most once.

    Equal bit for bit to the quadratic definition: walk the detections in
    ``rank_order``; match each to the unmatched ground truth of its video,
    in (start, end) order, with the largest temporal IoU that is positive
    and at least the threshold, the first one on a tie; and add
    ``true_pos / rank`` at each match. The overlaps of all same-video pairs
    come from ``tiou_array`` in one pass, and the greedy walk visits only
    the pairs that pass the threshold, summing in the same order.
    """
    if not ground_truths:
        return 0.0
    gts = sorted(ground_truths, key=lambda g: (g.video_id, g.start, g.end))
    span: dict[str, list[int]] = {}  # video -> [first, stop) in gts
    for j, g in enumerate(gts):
        span.setdefault(g.video_id, [j, j])[1] = j + 1
    bounds = np.array([span.get(v, (0, 0)) for v in detections.video_ids],
                      dtype=np.int64).reshape(-1, 2)
    order = detections.rank_order
    first, stop = bounds[detections.video[order]].T
    # only detections in a video with ground truth can match; keep their ranks
    positions = np.flatnonzero(stop > first)
    order, first = order[positions], first[positions]
    counts = stop[positions] - first
    ranks = (positions + 1).tolist()
    # one (detection, ground truth) pair per ground truth of the detection's
    # video, detection-major in rank order, ground truths in (start, end) order
    det_idx = np.repeat(np.arange(len(order)), counts)
    gt_idx = np.arange(det_idx.size) + np.repeat(first - (np.cumsum(counts) - counts),
                                                 counts)
    overlap = tiou_array(
        detections.start[order][det_idx], detections.end[order][det_idx],
        np.array([g.start for g in gts], dtype=np.float64)[gt_idx],
        np.array([g.end for g in gts], dtype=np.float64)[gt_idx])
    hit = np.flatnonzero((overlap >= tiou_threshold) & (overlap > 0.0))
    pairs = zip(det_idx[hit].tolist(), gt_idx[hit].tolist(), overlap[hit].tolist())
    matched = [False] * len(gts)
    true_pos = 0
    ap = 0.0
    for i, candidates in groupby(pairs, key=itemgetter(0)):
        best, best_overlap = -1, 0.0
        for _, j, ov in candidates:
            if not matched[j] and ov > best_overlap:
                best, best_overlap = j, ov
        if best >= 0:
            matched[best] = True
            true_pos += 1
            ap += true_pos / ranks[i]
    return ap / len(ground_truths)


@dataclass(frozen=True)
class EvalReport:
    """The AP of each class at each tIoU threshold; the mAPs derive from it."""
    thresholds: tuple[float, ...]
    ap: np.ndarray                    # float64 (thresholds, classes)
    classes_with_gt: tuple[int, ...]

    @cached_property
    def map_at(self) -> dict[float, float]:
        """Threshold -> mean AP over the classes with ground truth (0.0 if none)."""
        with_gt = list(self.classes_with_gt)
        return {t: float(np.mean(row[with_gt])) if with_gt else 0.0
                for t, row in zip(self.thresholds, self.ap)}

    @property
    def average_map(self) -> float:
        return float(np.mean([self.map_at[t] for t in self.thresholds]))


def map_report(detections: Detections, ground_truths: list[GroundTruthInstance],
               thresholds, num_classes: int) -> EvalReport:
    """AP of each class at each threshold; mAP averages over the classes that
    have ground truth."""
    thresholds = tuple(float(t) for t in thresholds)
    if not thresholds:
        raise ContractError("threshold grid must be non-empty")
    gt_by_class = {c: [] for c in range(num_classes)}
    for g in ground_truths:
        gt_by_class[g.class_id].append(g)
    ap = np.zeros((len(thresholds), num_classes))
    for c, gts in gt_by_class.items():
        dets = detections.take(detections.class_id == c)
        ap[:, c] = [average_precision(dets, gts, t) for t in thresholds]
    return EvalReport(thresholds, ap, tuple(c for c, gts in gt_by_class.items() if gts))


def format_report(report: EvalReport, class_names: list[str]) -> str:
    """Aligned text table: thresholds as columns, per-class AP rows, the mAP
    row last with the grid average in the final column."""
    width = max(12, max(len(n) for n in class_names) + 2)

    def line(name: str, cells, last: str) -> str:
        return name.ljust(width) + "".join(f"{v:>8.3f}" for v in cells) + f"{last:>8}"

    lines = ["tIoU".ljust(width) + "".join(f"{t:>8.2f}" for t in report.thresholds)
             + f"{'AVG':>8}"]
    for c, cells in enumerate(report.ap.T.tolist()):
        lines.append(line(class_names[c], cells, f"{float(np.mean(cells)):.3f}"
                          if c in report.classes_with_gt else "-"))
    lines.append(line("mAP", [report.map_at[t] for t in report.thresholds],
                      f"{report.average_map:.3f}"))
    return "\n".join(lines)


def write_report_json(path, report: EvalReport, class_names: list[str]) -> None:
    payload = {
        "thresholds": list(report.thresholds),
        "per_class_ap": {class_names[c]: dict(zip(map(str, report.thresholds), cells))
                         for c, cells in enumerate(report.ap.T.tolist())},
        "map": {str(t): v for t, v in report.map_at.items()},
        "average_map": report.average_map,
        "classes_with_ground_truth": [class_names[c] for c in report.classes_with_gt],
    }
    with atomic_write(path) as fh:
        json.dump(payload, fh, indent=2)
