"""Independent reference implementations used only as test oracles.

These deliberately re-derive results with different code paths than the
package: quadratic loops instead of vectorized passes, per-tap loops
instead of one im2col matmul, one temperature head at a time instead of
stacked attention, a fresh array per Adam intermediate instead of reused
scratch buffers, and rectangle integration of the
precision-recall curve instead of the running-precision sum, one class
at a time instead of one array pass per video for localization, and one
record at a time instead of one column at a time for the detections files.
"""
import csv
import json
import math

import numpy as np

from wtal.errors import FormatError
from wtal.localization import fuse_scores, upsample


def tiou(a, b):
    """Temporal intersection over union of two (start, end) pairs; a
    zero-length interval overlaps nothing. ``evaluation.tiou_array`` must
    give these bits elementwise."""
    inter = max(0.0, min(a[1], b[1]) - max(a[0], b[0]))
    union = max(a[1], b[1]) - min(a[0], b[0])
    if union <= 0:
        return 0.0
    return inter / union


def propose_reference(g, thresholds, fps, class_conf, context_ratio):
    """Candidates of one class sequence as (start_s, end_s, score) triples.

    One pass per threshold over the runs above it, one window mean per
    candidate: inner mean minus the mean of the flanking context windows
    (``ceil(context_ratio * length)`` frames each, clipped at the bounds; an
    empty context counts 0). Each mean sums its window directly, so it is
    the float that ``ndarray.mean`` gives. Intervals cut by several
    thresholds appear once, in (start, end) order.
    """
    best = {}
    for threshold in thresholds:
        mask = np.concatenate([[0], (g > threshold).astype(np.int8), [0]])
        diff = np.diff(mask)
        for start, end in zip(np.flatnonzero(diff == 1).tolist(),
                              np.flatnonzero(diff == -1).tolist()):
            inner = float(np.add.reduce(g[start:end])) / (end - start)
            ctx = math.ceil(context_ratio * (end - start))
            outer = np.concatenate([g[max(0, start - ctx):start],
                                    g[end:min(len(g), end + ctx)]])
            q = inner - (float(np.add.reduce(outer)) / outer.size if outer.size else 0.0) \
                + class_conf
            if (start, end) not in best or q > best[(start, end)]:
                best[(start, end)] = q
    return [(s / fps, e / fps, q) for (s, e), q in sorted(best.items())]


def nms_reference(items, threshold):
    """items: list of (score, start, end). Greedy keep-highest, O(n^2)."""
    remaining = sorted(items, key=lambda x: (-x[0], x[1], x[2]))
    kept = []
    while remaining:
        best = remaining[0]
        kept.append(best)
        survivors = []
        for cand in remaining[1:]:
            if tiou((best[1], best[2]), (cand[1], cand[2])) < threshold:
                survivors.append(cand)
        remaining = survivors
    return kept


def localize_reference(scores, video, config):
    """localize_video one class at a time: (class_id, score, start, end)
    tuples. Fusion and upsampling are the package's; every class column is
    cut by ``propose_reference`` and reduced by ``nms_reference`` alone."""
    frames = upsample(fuse_scores(scores.s_a, scores.s_f, config.fusion_weight),
                      video.snippet_stride)
    final = []
    for c, conf in enumerate(scores.class_conf.tolist()):
        if conf >= config.class_reject_threshold:
            final += [(c, q, s, e) for q, s, e in nms_reference(
                [(q, s, e) for s, e, q in propose_reference(
                    frames[:, c], config.proposal_thresholds, video.fps, conf,
                    config.context_ratio)], config.nms_tiou)]
    return sorted(final, key=lambda d: (-d[1], d[2], d[3], d[0]))


def ap_reference(dets, gts, threshold):
    """dets: (video, score, start, end); gts: (video, start, end).

    Same matching protocol, different mechanics: precision/recall arrays
    built point by point, AP integrated as sum of recall-step rectangles.
    """
    if not gts:
        return 0.0
    order = sorted(range(len(dets)),
                   key=lambda i: (-dets[i][1], dets[i][0], dets[i][2], dets[i][3]))
    matched = [False] * len(gts)
    flags = []
    for i in order:
        video, _, start, end = dets[i]
        best_j = -1
        best_ov = 0.0
        for j, (gv, gs, ge) in enumerate(gts):
            if gv != video or matched[j]:
                continue
            ov = tiou((start, end), (gs, ge))
            if ov >= threshold and ov > best_ov:
                best_ov = ov
                best_j = j
        if best_j >= 0:
            matched[best_j] = True
            flags.append(1)
        else:
            flags.append(0)
    tp = np.cumsum(flags) if flags else np.array([])
    ap = 0.0
    prev_recall = 0.0
    for k, flag in enumerate(flags, start=1):
        if flag:
            recall = tp[k - 1] / len(gts)
            precision = tp[k - 1] / k
            ap += (recall - prev_recall) * precision
            prev_recall = recall
    return ap


def map_reference(dets, gts, grid, num_classes):
    """dets: (video, class, score, start, end); gts: (video, class, start, end)."""
    classes_with_gt = sorted({g[1] for g in gts})
    per_threshold = []
    for threshold in grid:
        aps = []
        for c in classes_with_gt:
            class_dets = [(v, q, s, e) for v, cc, q, s, e in dets if cc == c]
            class_gts = [(v, s, e) for v, cc, s, e in gts if cc == c]
            aps.append(ap_reference(class_dets, class_gts, threshold))
        per_threshold.append(float(np.mean(aps)) if aps else 0.0)
    return per_threshold, float(np.mean(per_threshold))


def conv_reference(x, w, b):
    """Same-padded temporal conv, one output row and one tap at a time.

    x: (T, d_in); w: (k*d_in, d_out) tap-major; b: (d_out,). Taps that fall
    outside the sequence read zeros, so they are skipped.
    """
    t, d_in = x.shape
    k = w.shape[0] // d_in
    pad = k // 2
    out = np.tile(b, (t, 1))
    for row in range(t):
        for tap in range(k):
            src = row + tap - pad
            if 0 <= src < t:
                out[row] += x[src] @ w[tap * d_in:(tap + 1) * d_in]
    return out


def conv_dx_reference(g, w, d_in):
    """The input adjoint of a same-padded temporal conv through one product.

    g: (T, d_out), the adjoint of the conv output, already gated; w: (k*d_in,
    d_out) tap-major. ``g @ w.T`` holds every tap's part side by side, and tap
    i's block is added, taps in order, into rows i..i+T of the zero-padded
    input's adjoint, which is then cropped.
    """
    t = g.shape[0]
    k = w.shape[0] // d_in
    pad = k // 2
    dwin = (g @ w.T).reshape(t, k, d_in)
    dxp = np.zeros((t + 2 * pad, d_in), dtype=g.dtype)
    for i in range(k):
        dxp[i:i + t] += dwin[:, i, :]
    return dxp[pad:pad + t]


def adam_reference(params, grads, m, v, step, config):
    """Adam as one allocating update per tensor: every intermediate a fresh array.

    Updates the dicts ``params``, ``m`` and ``v`` in place at the 1-based
    ``step``; ``training.adam_step`` must give these bits.
    """
    b1, b2 = config.beta1, config.beta2
    bias1 = 1.0 - b1 ** step
    bias2 = 1.0 - b2 ** step
    for name in params:
        g = grads[name]
        m[name] *= b1
        m[name] += (1 - b1) * g
        v[name] *= b2
        v[name] += (1 - b2) * g * g
        update = m[name] / bias1
        update *= config.learning_rate
        denom = v[name] / bias2
        np.sqrt(denom, out=denom)
        denom += config.adam_eps
        update /= denom
        params[name] -= update


def hybrid_reference(x_e, w_action, w_fore, delta, temperatures):
    """The three branches of the hybrid attention, one temperature head at a time.

    x_e: (T, D) embedding; w_action: (K, D); w_fore: (D,). Per head: a
    softmax over time of every S_a column and of S_f, the attention-pooled
    features, the class-wise logits (each class's pooled feature against
    w_fore), the class-agnostic logits (the foreground-pooled feature against
    every class) and the MIL logits (attention-weighted sums of S_a). Returns
    S_a (T, K), S_f (T,), the attention as ``model.run_forward`` lays it
    out, (H, K, T) and (H, T), and the per-head logits stacked as (H, K).
    """
    def cosine(a, b):
        a = a / np.maximum(np.linalg.norm(a, axis=1, keepdims=True), 1e-8)
        b = b / np.maximum(np.linalg.norm(b, axis=1, keepdims=True), 1e-8)
        return delta * np.clip(a @ b.T, -1.0, 1.0)

    def softmax(s, tau):
        e = np.exp(tau * s - (tau * s).max(axis=0))
        return e / e.sum(axis=0)

    s_a = cosine(x_e, w_action)
    s_f = cosine(x_e, w_fore[None])[:, 0]
    heads = {key: [] for key in ("attn_class", "attn_fore", "fore_logits",
                                 "class_logits", "mil_logits")}
    for tau in temperatures:
        attn_a, attn_f = softmax(s_a, tau), softmax(s_f, tau)
        heads["attn_class"].append(attn_a.T)
        heads["attn_fore"].append(attn_f)
        heads["fore_logits"].append(cosine(attn_a.T @ x_e, w_fore[None])[:, 0])
        heads["class_logits"].append(cosine((attn_f @ x_e)[None], w_action)[0])
        heads["mil_logits"].append((attn_a * s_a).sum(axis=0))
    return {"s_a": s_a, "s_f": s_f, **{k: np.array(v) for k, v in heads.items()}}


def ap_sequential(dets, gts, threshold):
    """dets: (video, score, start, end); gts: (video, start, end).

    The per-detection greedy loop in the package's order, detections by
    (-score, video, start, end) and ground truths by (video, start, end),
    adding true_pos / rank at each match as it goes. Its result is the exact
    float that the package's AP must return.
    """
    if not gts:
        return 0.0
    order = sorted(dets, key=lambda d: (-d[1], d[0], d[2], d[3]))
    pool = sorted(gts)
    matched = [False] * len(pool)
    true_pos = 0
    ap = 0.0
    for rank, (video, _, start, end) in enumerate(order, start=1):
        best_j = -1
        best_ov = 0.0
        for j, (gv, gs, ge) in enumerate(pool):
            if gv != video or matched[j]:
                continue
            ov = tiou((start, end), (gs, ge))
            if ov >= threshold and ov > best_ov:
                best_ov = ov
                best_j = j
        if best_j >= 0:
            matched[best_j] = True
            true_pos += 1
            ap += true_pos / rank
    return ap / len(gts)


DETECTIONS_HEADER = ["video_id", "label", "t_start", "t_end", "score"]


def write_detections_csv_reference(path, rows):
    """rows: (video_id, label, score, start, end). One ``writerow`` per detection."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(DETECTIONS_HEADER)
        for video_id, label, score, start, end in rows:
            writer.writerow([video_id, label, repr(start), repr(end), repr(score)])


def write_detections_json_reference(path, rows):
    """rows: (video_id, label, score, start, end). A dict per detection,
    grouped per video in order of first appearance, ``json.dumps`` per video."""
    results = {}
    for video_id, label, score, start, end in rows:
        results.setdefault(video_id, []).append(
            {"label": label, "score": score, "segment": [start, end]})
    with open(path, "w") as fh:
        fh.write('{"results": {')
        for k, (video_id, dets) in enumerate(results.items()):
            fh.write(f"{', ' if k else ''}{json.dumps(video_id)}: {json.dumps(dets)}")
        fh.write("}}")


def _record(where, index, video_id, label, score, start, end):
    if not isinstance(label, str) or label not in index:
        raise FormatError(f"{where}: unknown class label {label!r}")
    try:
        record = (video_id, index[label], float(score), float(start), float(end))
    except (TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"{where}: score and segment bounds must be numbers ({exc})") \
            from None
    if not all(math.isfinite(v) for v in record[2:]):
        raise FormatError(f"{where}: non-finite detection (score {record[2]!r}, "
                          f"segment [{record[3]!r}, {record[4]!r}])")
    return record


def read_detections_reference(path, class_names):
    """(video_id, class_id, score, start, end) per detection in file order.

    One record at a time through ``csv.DictReader`` or the parsed JSON, each
    checked as it is read, so the ``FormatError`` names the first bad one. A
    CSV row too short to hold a video id is an error.
    """
    index = {name: i for i, name in enumerate(class_names)}
    records = []
    path = str(path)
    if path.endswith(".json"):
        try:
            with open(path) as fh:
                payload = json.load(fh)
        except ValueError as exc:
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
                if row["video_id"] is None:
                    raise FormatError(f"{path}: a detection has no video_id")
                records.append(_record(f"{path}: video {row['video_id']}", index,
                                       row["video_id"], row["label"], row["score"],
                                       row["t_start"], row["t_end"]))
        except (csv.Error, UnicodeDecodeError) as exc:
            # DictReader.line_num moves only after a good row; its reader's, on every line
            raise FormatError(f"{path}: line {reader.reader.line_num}: not valid CSV "
                              f"({exc})") from None
    return records
