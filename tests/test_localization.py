import contextlib
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wtal.localization as loc
from wtal.data import atomic_write
from wtal.errors import ConfigError, ContractError, FormatError, InputError
from wtal.evaluation import Detections
from wtal.localization import (LocalizeConfig, fuse_scores, localize_video, minmax, nms,
                               propose, read_detections, upsample, write_detections_csv,
                               write_detections_json)
from wtal.model import ScoreSet

from conftest import detections_table, table_rows, video_entry
from oracles import (localize_reference, nms_reference, propose_reference,
                     read_detections_reference, tiou, write_detections_csv_reference,
                     write_detections_json_reference)


class TestFuseScores:
    def test_weight_zero_uses_class_scores_alone(self, rng):
        s_a = rng.normal(size=(6, 3))
        s_f = np.full(6, 2.0)
        fused = fuse_scores(s_a, s_f, fusion_weight=0.0)
        for c in range(3):
            assert np.allclose(fused[:, c], minmax(s_a[:, c]), atol=1e-15)

    def test_identical_sequences_are_a_fixed_point(self, rng):
        s_f = rng.normal(size=5)
        s_a = np.tile(s_f[:, None], (1, 2))
        fused = fuse_scores(s_a, s_f, fusion_weight=0.5)
        assert np.allclose(fused[:, 0], minmax(s_f), atol=1e-15)

    def test_hand_built_four_step_sequence(self):
        s_a = np.array([[2.0], [4.0], [8.0], [6.0]])
        s_f = np.array([1.0, 0.0, 3.0, 2.0])
        fused = fuse_scores(s_a, s_f, fusion_weight=0.5)
        expected = np.array([1 / 6, 1 / 6, 1.0, 2 / 3])
        assert np.allclose(fused[:, 0], expected, atol=1e-12)

    def test_constant_sequence_becomes_half(self):
        fused = fuse_scores(np.full((4, 2), 3.3), np.full(4, -1.0), 0.5)
        assert np.allclose(fused, 0.5, atol=1e-15)

    def test_shift_invariance(self, rng):
        s_a = rng.normal(size=(7, 2))
        s_f = rng.normal(size=7)
        shifted = fuse_scores(s_a + 11.5, s_f - 3.25, 0.5)
        assert np.allclose(shifted, fuse_scores(s_a, s_f, 0.5), atol=1e-12)


class TestUpsample:
    def test_stride_one_is_identity(self, rng):
        g = rng.random(size=(6, 2))
        assert np.array_equal(upsample(g, stride=1), g)

    def test_two_snippets_ramp(self):
        up = upsample(np.array([[0.0], [1.0]]), stride=4)
        assert up.shape == (8, 1)
        assert up[0, 0] == 0.0 and up[-1, 0] == 1.0
        assert (np.diff(up[:, 0]) >= 0).all()

    def test_constant_input(self):
        up = upsample(np.full((5, 1), 0.7), stride=3)
        assert np.allclose(up, 0.7, atol=1e-15)

    def test_empty_input_rejected(self):
        with pytest.raises(InputError):
            upsample(np.zeros((0, 1)), stride=4)

    def test_output_length(self, rng):
        up = upsample(rng.random(size=(9, 3)), stride=16)
        assert up.shape == (144, 3)


def propose_one(g, thresholds, fps, class_conf, context_ratio):
    """propose on one sequence: the [start_s, end_s, score] rows of its only column."""
    out = propose(np.asarray(g)[:, None], thresholds, fps, [class_conf], context_ratio)
    assert out.shape[1] == 4 and not out[:, 0].any()
    return out[:, 1:]


def assert_matches_reference(out, ref):
    """Same intervals in the same order, scores within 1e-12 of the oracle's."""
    assert out.shape == (len(ref), 3) and out.dtype == np.float64
    assert [(s, e) for s, e, _ in out.tolist()] == [(s, e) for s, e, _ in ref]
    assert np.abs(out[:, 2] - [q for _, _, q in ref]).max(initial=0.0) <= 1e-12


def sawtooth():
    # one tooth: every threshold cuts an interval that ends at the drop, so
    # the candidates form a single nested chain
    return np.concatenate([np.zeros(50), np.linspace(0.0, 1.0, 2000), np.zeros(50)])


SAWTOOTH_THRESHOLDS = tuple(round(0.001 * i, 3) for i in range(1, 1000))


def proposal_case(kind, rng):
    """(sequence, thresholds) for one of the shapes propose is checked on."""
    grid = tuple(round(0.1 * i, 1) for i in range(1, 10))
    if kind == "step":
        g = np.zeros(100)
        g[20:50] = 1.0
    elif kind == "two_plateaus":
        g = np.zeros(120)
        g[10:30] = 0.8
        g[70:90] = 0.4
    elif kind == "constant":
        g = np.full(50, 0.3)
    elif kind == "random":
        g = rng.random(size=400)
    elif kind == "smooth_random":
        g = np.interp(np.arange(800), np.arange(0, 800, 16), rng.random(size=50))
    elif kind == "clipped_both_bounds":
        g = np.full(30, 0.2)
        g[3:27] = 0.9
        g[12:18] = 0.6
    else:
        return sawtooth(), SAWTOOTH_THRESHOLDS
    return g, grid


class TestPropose:
    def test_step_function_single_instance(self):
        g = np.zeros(100)
        g[20:50] = 1.0
        out = propose_one(g, thresholds=(0.2, 0.5, 0.8), fps=25.0, class_conf=0.6,
                          context_ratio=0.25)
        assert out.shape == (1, 3)
        start, end, score = out[0]
        assert start == pytest.approx(20 / 25.0)
        assert end == pytest.approx(50 / 25.0)
        assert score == pytest.approx(1.0 - 0.0 + 0.6, abs=1e-12)

    def test_threshold_above_max_gives_nothing(self):
        g = np.full(50, 0.4)
        out = propose_one(g, thresholds=(0.9,), fps=25.0, class_conf=0.0, context_ratio=0.25)
        assert len(out) == 0 and out.shape == (0, 3)

    def test_two_plateaus_enumeration(self):
        g = np.zeros(120)
        g[10:30] = 0.8
        g[70:90] = 0.4
        out = propose_one(g, thresholds=(0.3, 0.5, 0.7), fps=1.0, class_conf=0.0,
                          context_ratio=0.25)
        assert [(s, e) for s, e, _ in out.tolist()] == [(10.0, 30.0), (70.0, 90.0)]
        assert out[0, 2] > out[1, 2]

    def test_class_conf_switch(self):
        g = np.zeros(40)
        g[10:20] = 1.0
        with_conf = propose_one(g, (0.5,), 25.0, 0.9, 0.25)
        without = propose_one(g, (0.5,), 25.0, 0.0, 0.25)
        assert with_conf[0, 2] == pytest.approx(without[0, 2] + 0.9)

    def test_intervals_inside_video(self, rng):
        g = rng.random(size=200)
        out = propose_one(g, tuple(np.linspace(0.1, 0.9, 9)), fps=25.0, class_conf=0.5,
                          context_ratio=0.25)
        assert ((0.0 <= out[:, 0]) & (out[:, 0] < out[:, 1]) & (out[:, 1] <= 200 / 25.0)).all()

    @pytest.mark.parametrize("kind", ["step", "two_plateaus", "constant", "random",
                                      "smooth_random", "clipped_both_bounds", "sawtooth"])
    @pytest.mark.parametrize("ratio", [0.0, 0.25, 3.0])
    def test_matches_reference(self, rng, kind, ratio):
        g, thresholds = proposal_case(kind, rng)
        for class_conf in (0.37, 0.0):
            out = propose_one(g, thresholds, fps=25.0, class_conf=class_conf,
                              context_ratio=ratio)
            assert_matches_reference(out, propose_reference(
                g, thresholds, 25.0, class_conf, ratio))

    @pytest.mark.parametrize("kind", ["smooth_random", "sawtooth"])
    def test_context_ratio_past_int64_matches_reference(self, rng, kind):
        # ceil(1e17 * length) does not fit in int64 once length > 92: every
        # context then reaches both video bounds
        g, thresholds = proposal_case(kind, rng)
        out = propose_one(g, thresholds, fps=25.0, class_conf=0.37, context_ratio=1e17)
        assert (out[:, 1] - out[:, 0] > 92 / 25.0).any()
        assert_matches_reference(out, propose_reference(g, thresholds, 25.0, 0.37, 1e17))

    def test_columns_match_reference_one_at_a_time(self, rng):
        # each column of one table is cut and scored as if alone, with its
        # own class_conf; the all-zero column has no candidates
        n = 800
        step = np.zeros(n)
        step[100:300] = 1.0
        table = np.stack([np.interp(np.arange(n), np.arange(0, n, 16), rng.random(size=50)),
                          step, np.full(n, 0.3), np.zeros(n), rng.random(size=n)], axis=1)
        conf = [0.37, 0.0, 0.5, 0.9, 0.2]
        grid = tuple(round(0.1 * i, 1) for i in range(1, 10))
        out = propose(table, grid, 25.0, conf, 0.25)
        assert out.dtype == np.float64 and out.shape[1] == 4
        assert (np.diff(out[:, 0]) >= 0).all()
        for c in range(table.shape[1]):
            assert_matches_reference(out[out[:, 0] == c, 1:], propose_reference(
                table[:, c], grid, 25.0, conf[c], 0.25))


class TestOuterInnerScore:
    @pytest.mark.parametrize("start,end", [(0, 40), (960, 1000), (0, 1000), (300, 700),
                                           (5, 6), (10, 990)])
    @pytest.mark.parametrize("ratio", [0.0, 0.25, 1.0, 3.0])
    def test_bit_equal_to_mean_formula(self, rng, start, end, ratio):
        # One threshold cuts exactly [start, end). Values are multiples of
        # 2**-10, so every window sum is exact whether summed directly or
        # taken from the prefix sum, and the score must equal the mean
        # formula bit for bit. (0, 40), (960, 1000) and (10, 990) clip the
        # context at one or both video bounds.
        g = rng.integers(0, 512, size=1000) / 1024
        g[start:end] = (512 + rng.integers(1, 512, size=end - start)) / 1024
        ctx = math.ceil(ratio * (end - start))
        outer = np.concatenate([g[max(0, start - ctx):start], g[end:end + ctx]])
        expected = float(g[start:end].mean()) - (float(outer.mean()) if outer.size else 0.0)
        out = propose_one(g, (0.5,), fps=1.0, class_conf=0.0, context_ratio=ratio)
        assert out.tolist() == [[start, end, expected]]
        assert out.tolist() == [list(t) for t in propose_reference(g, (0.5,), 1.0, 0.0, ratio)]


def make_candidates(triples):
    """(score, start, end) triples, the oracle's form, as propose's rows of class 0."""
    return np.array([(0, s, e, q) for q, s, e in triples], dtype=np.float64).reshape(-1, 4)


def as_triples(rows):
    return [(q, s, e) for _, s, e, q in rows.tolist()]


class TestNms:
    def test_single_instance(self):
        rows = make_candidates([(0.5, 1.0, 2.0)])
        assert np.array_equal(nms(rows, 0.5), rows)

    def test_no_candidates(self):
        assert nms(make_candidates([]), 0.5).shape == (0, 4)

    def test_identical_intervals_keep_best(self):
        kept = nms(make_candidates([(0.5, 1.0, 2.0), (0.9, 1.0, 2.0)]), 0.5)
        assert as_triples(kept) == [(0.9, 1.0, 2.0)]

    def test_ten_random_against_reference(self, rng):
        for _ in range(25):
            triples = []
            for _ in range(10):
                start = rng.uniform(0, 50)
                triples.append((float(rng.random()), start, start + rng.uniform(0.5, 20)))
            kept = nms(make_candidates(triples), 0.5)
            assert as_triples(kept) == nms_reference(triples, 0.5)

    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(1, 12),
        threshold=st.floats(min_value=0.05, max_value=1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_property(self, seed, n, threshold):
        rng = np.random.default_rng(seed)
        triples = []
        for _ in range(n):
            start = float(rng.uniform(0, 30))
            triples.append((float(rng.random()), start, start + float(rng.uniform(0.1, 15))))
        kept = nms(make_candidates(triples), threshold)
        assert as_triples(kept) == nms_reference(triples, threshold)

    def test_matches_reference_across_block_boundaries(self, rng):
        n = 2500
        starts = rng.uniform(0, 400, size=n)
        triples = [(float(q), float(s), float(s + d)) for q, s, d in
                   zip(rng.random(size=n), starts, rng.uniform(0.5, 40, size=n))]
        for threshold in (0.3, 0.7):
            kept = nms(make_candidates(triples), threshold)
            assert as_triples(kept) == nms_reference(triples, threshold)

    def test_touching_intervals_do_not_overlap(self):
        # end == next start has tIoU 0, so even a tiny threshold keeps both
        triples = [(0.9, 1.0, 2.0), (0.8, 2.0, 3.0), (0.7, 0.0, 1.0), (0.6, 3.0, 3.5)]
        for threshold in (1e-12, 0.5, 1.0):
            kept = nms(make_candidates(triples), threshold)
            assert as_triples(kept) == nms_reference(triples, threshold) == triples

    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(0, 40),
        classes=st.integers(1, 4),
        threshold=st.floats(min_value=0.05, max_value=1.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_classes_suppress_only_within_themselves(self, seed, n, classes, threshold):
        # coarse starts, lengths and scores give duplicates and ties within
        # and across classes; each class must be reduced as if alone
        rng = np.random.default_rng(seed)
        start = rng.integers(0, 20, size=n) / 2
        rows = np.stack([rng.integers(0, classes, size=n), start,
                         start + rng.integers(1, 12, size=n) / 2,
                         rng.integers(0, 4, size=n) / 4], axis=1)
        expected = sorted(((c, q, s, e) for c in range(classes) for q, s, e in nms_reference(
            [(q, s, e) for k, s, e, q in rows.tolist() if k == c], threshold)),
            key=lambda d: (-d[1], d[2], d[3], d[0]))
        assert [(c, q, s, e) for c, s, e, q in nms(rows, threshold).tolist()] == expected

    def test_nested_candidates_of_several_classes_at_tiou_one(self):
        # distinct nested intervals overlap below 1, so at 1.0 every candidate
        # survives, also where two classes cut the same intervals
        thresholds = tuple(round(0.01 * i, 2) for i in range(1, 100))
        g = np.stack([sawtooth(), sawtooth(), sawtooth()[::-1]], axis=1)
        candidates = propose(g, thresholds, 25.0, [0.3, 0.3, 0.1], 0.25)
        kept = nms(candidates, 1.0)
        assert len(kept) == len(candidates) == 3 * len(thresholds)
        for c in range(3):
            assert as_triples(kept[kept[:, 0] == c]) == nms_reference(
                as_triples(candidates[candidates[:, 0] == c]), 1.0)

    def test_all_nested_sawtooth_through_propose(self):
        candidates = propose(sawtooth()[:, None], SAWTOOTH_THRESHOLDS, fps=25.0,
                             class_conf=[0.3], context_ratio=0.25)
        assert len(candidates) == len(SAWTOOTH_THRESHOLDS)
        spans = [(s, e) for _, s, e, _ in candidates.tolist()]
        assert all(a[0] <= b[0] and b[1] <= a[1] for a, b in zip(spans, spans[1:]))
        triples = as_triples(candidates)
        for threshold in (0.1, 0.5, 0.9, 1.0):
            kept = nms(candidates, threshold)
            assert as_triples(kept) == nms_reference(triples, threshold)

    def test_duplicate_intervals_and_equal_scores(self, rng):
        for _ in range(20):
            base = [(float(s), float(s + d)) for s, d in
                    zip(rng.integers(0, 20, size=8), rng.integers(1, 6, size=8))]
            triples = [(float(rng.choice([0.2, 0.5, 0.9])), *base[int(k)])
                       for k in rng.integers(0, len(base), size=60)]
            for threshold in (0.25, 0.5, 1.0):
                kept = nms(make_candidates(triples), threshold)
                assert as_triples(kept) == nms_reference(triples, threshold)

    def test_output_is_antichain(self, rng):
        triples = [(float(rng.random()), s, s + 5.0) for s in rng.uniform(0, 40, size=20)]
        kept = as_triples(nms(make_candidates(triples), 0.4))
        for i, (_, *a) in enumerate(kept):
            for _, *b in kept[i + 1:]:
                assert tiou(a, b) < 0.4

    def test_sorted_by_score_descending(self, rng):
        triples = [(float(rng.random()), s, s + 3.0) for s in rng.uniform(0, 100, size=15)]
        scores = nms(make_candidates(triples), 0.5)[:, 3].tolist()
        assert scores == sorted(scores, reverse=True)


def clean_scores(num_classes=3, t=40, span=(10, 25), cls=1):
    """Scores with one crisp plateau for one class; stride 16 at 25 fps."""
    s_a = np.full((t, num_classes), -5.0)
    s_a[span[0]:span[1], cls] = 5.0
    s_f = np.full(t, -5.0)
    s_f[span[0]:span[1]] = 5.0
    p = np.full(num_classes, 0.01)
    p[cls] = 0.9
    return ScoreSet(s_a=s_a, s_f=s_f, class_conf=p)


def random_scores(rng, num_classes, quantized, t=None):
    """Scores of one video of ``t`` snippets (2 to 59 if not given).
    Quantized scores take five levels, so their normalized, fused and
    upsampled frames are multiples of a power of two: window sums are exact
    and equal intervals get exactly tied scores."""
    t = int(rng.integers(2, 60)) if t is None else t
    if quantized:
        s_a = rng.integers(0, 5, size=(t, num_classes)).astype(np.float64)
        s_f = rng.integers(0, 5, size=t).astype(np.float64)
        s_a[0], s_a[-1], s_f[0], s_f[-1] = 0.0, 4.0, 0.0, 4.0
        p = rng.choice([0.05, 0.25, 0.5], size=num_classes)
    else:
        s_a = rng.normal(size=(t, num_classes))
        s_f = rng.normal(size=t)
        p = rng.random(size=num_classes)
    return ScoreSet(s_a=s_a, s_f=s_f, class_conf=p)


def assert_matches_localize_reference(scores, stride, config):
    """localize_video against localize_reference: the same classes and
    intervals in the same order, scores within 1e-12. Returns both."""
    out = table_rows(localize_video(scores, video_entry(stride), config))
    ref = localize_reference(scores, video_entry(stride), config)
    assert [(c, s, e) for _, c, _, s, e in out] == [(c, s, e) for c, _, s, e in ref]
    assert all(abs(o[2] - q) <= 1e-12 for o, (_, q, _, _) in zip(out, ref))
    return out, ref


class TestLocalizeVideo:
    def test_all_classes_rejected(self):
        config = LocalizeConfig(class_reject_threshold=1.1)
        out = localize_video(clean_scores(), video_entry(), config)
        assert len(out) == 0 and out.video_ids == ("v",)
        # the empty table has the columns of a full one
        full = localize_video(clean_scores(), video_entry(), LocalizeConfig())
        for column in ("video", "class_id", "start", "end", "score"):
            assert getattr(out, column).dtype == getattr(full, column).dtype
        assert out.class_id.dtype == np.int64 and out.score.dtype == np.float64

    def test_single_plateau_single_instance(self):
        out = localize_video(clean_scores(span=(10, 25), cls=1), video_entry(), LocalizeConfig())
        assert len(out) == 1
        assert out.video_ids == ("v",) and out.video.tolist() == [0]
        assert out.class_id.tolist() == [1]
        # plateau spans snippets [10, 25) -> seconds via stride/fps, within
        # one snippet of the ramp introduced by upsampling
        snippet_sec = 16 / 25.0
        assert out.start[0] == pytest.approx(10 * snippet_sec, abs=snippet_sec)
        assert out.end[0] == pytest.approx(25 * snippet_sec, abs=snippet_sec)

    @pytest.mark.parametrize("stride", [1, 4])
    @pytest.mark.parametrize("quantized", [False, True])
    def test_matches_reference_pipeline(self, rng, stride, quantized):
        tied = 0
        for _ in range(40):
            num_classes = int(rng.integers(2, 5))
            scores = random_scores(rng, num_classes, quantized)
            config = LocalizeConfig(context_ratio=float(rng.choice([0.0, 0.25, 3.0])),
                                    nms_tiou=float(rng.choice([0.3, 0.5, 0.7])))
            _, ref = assert_matches_localize_reference(scores, stride, config)
            tied += len(ref) - len({q for _, q, _, _ in ref})
        assert tied > 0 or not quantized

    def test_identical_class_columns_keep_the_same_intervals(self, rng):
        # classes 0 and 2 share their score column and probability; NMS is
        # class-wise, so both keep the same detections
        s_a = rng.normal(size=(50, 3))
        s_a[:, 2] = s_a[:, 0]
        scores = ScoreSet(s_a=s_a, s_f=rng.normal(size=50),
                          class_conf=np.array([0.4, 0.3, 0.4]))
        out, _ = assert_matches_localize_reference(scores, 4, LocalizeConfig())
        same = [[(q, s, e) for _, c, q, s, e in out if c == k] for k in (0, 2)]
        assert same[0] and same[0] == same[1]

    @pytest.mark.parametrize("t,stride", [(1, 1), (1, 16), (2, 1), (9, 1)])
    def test_short_videos_and_stride_one(self, rng, t, stride):
        for _ in range(10):
            scores = random_scores(rng, 3, quantized=False, t=t)
            config = LocalizeConfig(context_ratio=float(rng.choice([0.0, 0.25, 3.0])))
            out, _ = assert_matches_localize_reference(scores, stride, config)
            if t == 1:  # a constant sequence: one whole-video interval per kept class
                kept = int((scores.class_conf >= config.class_reject_threshold).sum())
                assert [(s, e) for *_, s, e in out] == [(0.0, stride / 25.0)] * kept

    @pytest.mark.parametrize("t,stride", [(150, 16), (1000, 2)])
    def test_long_sequences_match_reference(self, rng, t, stride):
        # 2,400 and 2,000 frames per class; random walks cross each
        # threshold a few dozen times
        for _ in range(2):
            scores = ScoreSet(s_a=np.cumsum(rng.normal(size=(t, 4)), axis=0),
                              s_f=np.cumsum(rng.normal(size=t)),
                              class_conf=rng.random(size=4))
            config = LocalizeConfig(context_ratio=float(rng.choice([0.0, 0.25, 3.0])),
                                    nms_tiou=float(rng.choice([0.3, 0.5, 0.7])))
            out, _ = assert_matches_localize_reference(scores, stride, config)
            assert out

    def test_peak_memory_within_two_frame_tables(self):
        # Besides a few snippet-level arrays, localizing one video holds at
        # most two float64 tables of its frames by kept classes: the
        # upsampled frames and their prefix sums. At 4,096 snippets, stride
        # 16 and 5 classes a table is 2.62 MB and the traced peak 5.48 MB.
        t, stride, num_classes = 4096, 16, 5
        s_a = np.full((t, num_classes), -5.0)
        for c in range(num_classes):
            for first in range(20 * c, t - 100, 500):
                s_a[first:first + 60, c] = 5.0 + np.arange(60) / 60
        scores = ScoreSet(s_a=s_a, s_f=s_a.max(axis=1), class_conf=np.full(num_classes, 0.5))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = localize_video(scores, video_entry(stride), LocalizeConfig())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(out) >= num_classes
        table, snippets = t * stride * num_classes * 8, s_a.nbytes
        assert peak - base <= 2 * table + 2 * snippets

    def test_interval_contract(self, monkeypatch):
        monkeypatch.setattr(loc, "propose", lambda *a, **k: np.array([[0.0, 2.0, 1.0, 0.5]]))
        with pytest.raises(ContractError, match=r"invalid instance interval \[2.0, 1.0\)"):
            localize_video(clean_scores(), video_entry(), LocalizeConfig())


class TestLocalizeConfig:
    def test_threshold_grid_must_increase(self):
        with pytest.raises(ConfigError):
            LocalizeConfig(proposal_thresholds=(0.5, 0.4))

    def test_threshold_grid_in_unit_interval(self):
        with pytest.raises(ConfigError):
            LocalizeConfig(proposal_thresholds=(0.0, 0.5))

    def test_defaults(self):
        config = LocalizeConfig()
        assert config.class_reject_threshold == 0.1
        assert config.proposal_thresholds == tuple(round(0.1 * i, 1) for i in range(1, 10))
        assert config.nms_tiou == 0.5


CLASSES = ["jump", "run"]


class TestDetectionsIo:
    ROWS = [("vid_a", 0, 0.91, 1.5, 3.25), ("vid_a", 1, 0.52, 7.0, 9.5),
            ("vid_b", 0, 0.33, 0.0, 2.0)]

    def table(self):
        return detections_table(self.ROWS)

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "det.csv"
        write_detections_csv(path, self.table(), CLASSES)
        back = read_detections(path, CLASSES)
        assert table_rows(back) == self.ROWS and back.video_ids == ("vid_a", "vid_b")

    def test_failed_write_keeps_previous_file(self, tmp_path):
        class Unprintable:
            def __str__(self):
                raise RuntimeError("cannot format")

        path = tmp_path / "det.csv"
        write_detections_csv(path, self.table(), CLASSES)
        before = path.read_bytes()
        broken = detections_table(self.ROWS[1:] + [(Unprintable(), 0, 0.1, 0.0, 1.0)])
        with pytest.raises(RuntimeError):
            write_detections_csv(path, broken, CLASSES)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["det.csv"]

    @pytest.mark.parametrize("write, name", [(write_detections_csv, "det.csv"),
                                             (write_detections_json, "det.json")])
    def test_write_failing_in_an_open_file_keeps_previous_file(self, tmp_path, monkeypatch,
                                                               write, name):
        # the names are quoted before the file opens; this fault comes after
        path = tmp_path / name
        write(path, self.table(), CLASSES)
        before = path.read_bytes()
        seen = []

        class DiskFull:
            def __init__(self, fh):
                self.fh = fh

            def write(self, text):
                self.fh.write(text[:3])
                seen.append(sorted(p.name for p in tmp_path.iterdir()))
                raise OSError(28, "No space left on device")

            def writelines(self, lines):
                for line in lines:
                    self.write(line)

        @contextlib.contextmanager
        def failing(target, **kwargs):
            with atomic_write(target, **kwargs) as fh:
                yield DiskFull(fh)

        monkeypatch.setattr(loc, "atomic_write", failing)
        with pytest.raises(OSError, match="No space left"):
            write(path, detections_table(self.ROWS[::-1]), CLASSES)
        assert len(seen) == 1 and len(seen[0]) == 2  # the target and its temporary file
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == [name]

    def test_json_is_compact_with_the_same_schema(self, tmp_path):
        path = tmp_path / "det.json"
        write_detections_json(path, self.table(), CLASSES)
        text = path.read_text()
        assert "\n" not in text
        assert json.loads(text) == {"results": {
            "vid_a": [{"label": "jump", "score": 0.91, "segment": [1.5, 3.25]},
                      {"label": "run", "score": 0.52, "segment": [7.0, 9.5]}],
            "vid_b": [{"label": "jump", "score": 0.33, "segment": [0.0, 2.0]}]}}

    @pytest.mark.parametrize("column", ["score", "t_start", "t_end"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_non_finite_csv_cell_rejected(self, tmp_path, column, value):
        cells = {"t_start": "0.5", "t_end": "2.0", "score": "0.3", column: value}
        path = tmp_path / "det.csv"
        path.write_text("video_id,label,t_start,t_end,score\n"
                        "vid_a,run,1.0,3.0,0.9\n"
                        "vid_b,jump,{t_start},{t_end},{score}\n".format(**cells))
        with pytest.raises(FormatError, match="det.csv: video vid_b: non-finite"):
            read_detections(path, CLASSES)

    @pytest.mark.parametrize("key", ["score", "start", "end"])
    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_json_value_rejected(self, tmp_path, key, literal):
        values = {"score": "0.3", "start": "0.5", "end": "2.0", key: literal}
        path = tmp_path / "det.json"
        path.write_text(
            '{"results": {"vid_a": [{"label": "run", "score": 0.9, "segment": [1.0, 3.0]}], '
            '"vid_b": [{"label": "jump", "score": %(score)s, '
            '"segment": [%(start)s, %(end)s]}]}}' % values)
        with pytest.raises(FormatError, match="det.json: video vid_b: non-finite"):
            read_detections(path, CLASSES)

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "det.json"
        write_detections_json(path, self.table(), CLASSES)
        assert table_rows(read_detections(path, CLASSES)) == self.ROWS

    def test_first_bad_row_is_named(self, tmp_path):
        # a bad label after a non-finite score: the score's row comes first
        path = tmp_path / "det.csv"
        path.write_text("video_id,label,t_start,t_end,score\n"
                        "vid_a,run,1.0,3.0,0.9\nvid_b,run,1.0,3.0,inf\n"
                        "vid_c,walk,1.0,3.0,0.9\n")
        with pytest.raises(FormatError, match="det.csv: video vid_b: non-finite"):
            read_detections(path, CLASSES)

    def test_row_without_video_id_rejected(self, tmp_path):
        # csv.DictReader reads the missing cell as None
        path = tmp_path / "det.csv"
        path.write_text("label,t_start,t_end,score,video_id\nrun,1.0,3.0,0.9\n")
        with pytest.raises(FormatError, match="det.csv: a detection has no video_id"):
            read_detections(path, CLASSES)

    def first_fault(self, path, content):
        """The reader's message, checked to be the reference reader's too."""
        path.write_text(content)
        with pytest.raises(FormatError) as raised:
            read_detections(path, CLASSES)
        with pytest.raises(FormatError) as reference:
            read_detections_reference(path, CLASSES)
        assert str(raised.value) == str(reference.value)
        return str(raised.value)

    @pytest.mark.parametrize("bad_row_first", [True, False], ids=["bad-row", "structure"])
    def test_csv_fault_first_in_file_order_is_named(self, tmp_path, bad_row_first):
        bad_row = "vid_b,walk,1.0,3.0,0.9\n"
        too_long = f"vid_c,run,1.0,3.0,{'9' * 200_000}\n"  # past csv's field size limit
        later = [bad_row, too_long] if bad_row_first else [too_long, bad_row]
        message = self.first_fault(tmp_path / "det.csv", "video_id,label,t_start,t_end,score\n"
                                   "vid_a,run,1.0,3.0,0.9\n" + "".join(later))
        assert message.startswith(f"{tmp_path / 'det.csv'}: video vid_b: unknown class label "
                                  if bad_row_first else
                                  f"{tmp_path / 'det.csv'}: line 3: not valid CSV")

    @pytest.mark.parametrize("bad_row_first", [True, False], ids=["bad-row", "structure"])
    def test_json_fault_first_in_file_order_is_named(self, tmp_path, bad_row_first):
        bad_row = '"vid_b": [{"label": "walk", "score": 0.9, "segment": [1.0, 3.0]}]'
        no_segment = '"vid_c": [{"label": "run", "score": 0.9}]'
        later = [bad_row, no_segment] if bad_row_first else [no_segment, bad_row]
        message = self.first_fault(tmp_path / "det.json", '{"results": {"vid_a": [{"label": '
                                   '"run", "score": 0.9, "segment": [1.0, 3.0]}], '
                                   + ", ".join(later) + "}}")
        assert message.startswith(f"{tmp_path / 'det.json'}: video vid_b: unknown class label "
                                  if bad_row_first else
                                  f"{tmp_path / 'det.json'}: video vid_c: a detection must be")


# Labels and video ids for the writers: commas, quotes, newlines and
# non-ASCII text next to arbitrary text without lone surrogates.
NAMES = st.sampled_from(["a,b", 'say "hi"', "line\nbreak", "naïve", "動作", ""]) \
    | st.text(st.characters(blacklist_categories=("Cs",)), max_size=5)


@st.composite
def tables(draw):
    """A table and its class names; some videos have no detections."""
    class_names = draw(st.lists(NAMES, min_size=1, max_size=3, unique=True))
    video_ids = draw(st.lists(NAMES, max_size=4, unique=True))
    number = st.floats(allow_nan=False, allow_infinity=False)
    rows = draw(st.lists(st.tuples(st.sampled_from(video_ids),
                                   st.integers(0, len(class_names) - 1),
                                   number, number, number), max_size=8)) if video_ids else []
    used = detections_table(rows)
    # the videos with rows in the order of their first row, as the table
    # from localize_split or read_detections has them; the others anywhere
    ids = list(used.video_ids)
    for v in video_ids:
        if v not in used.video_ids:
            ids.insert(draw(st.integers(0, len(ids))), v)
    remap = np.array([ids.index(v) for v in used.video_ids], dtype=np.int64)
    table = Detections(tuple(ids), remap[used.video], used.class_id, used.start, used.end,
                       used.score)
    return table, class_names


class TestWritersMatchReferences:
    """Both writers give the bytes of the one-record-at-a-time writers."""

    @given(data=tables())
    @settings(max_examples=200, deadline=None)
    def test_csv_and_json(self, tmp_path_factory, data):
        table, class_names = data
        rows = [(v, class_names[c], q, s, e) for v, c, q, s, e in table_rows(table)]
        d = tmp_path_factory.getbasetemp()
        for write, reference, name in (
                (write_detections_csv, write_detections_csv_reference, "w.csv"),
                (write_detections_json, write_detections_json_reference, "w.json")):
            write(d / name, table, class_names)
            reference(d / f"ref_{name}", rows)
            assert (d / name).read_bytes() == (d / f"ref_{name}").read_bytes()
        assert table_rows(read_detections(d / "w.csv", class_names)) == table_rows(table)

    @pytest.mark.parametrize("video_ids, class_names", [
        (("",), ["jump"]),
        (("a,b", 'say "hi"', "cr\rhere", "lf\nhere", " padded "),
         [",", '"', "\r", "\n", " run ", ""]),
        ((), ["jump", "run"]),
    ], ids=["empty-video-id", "special-characters", "empty-table"])
    def test_csv_quoting(self, tmp_path, video_ids, class_names):
        rows = [(v, c % len(class_names), 0.5 * k, 1.0 * k, 1.0 * k + 0.25)
                for k, v in enumerate(video_ids) for c in (k, k + 1, k + 3)]
        table = detections_table(rows)
        write_detections_csv(tmp_path / "w.csv", table, class_names)
        write_detections_csv_reference(tmp_path / "ref.csv",
                                       [(v, class_names[c], q, s, e) for v, c, q, s, e in rows])
        assert (tmp_path / "w.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        assert table_rows(read_detections(tmp_path / "w.csv", class_names)) == rows

    def test_peak_traced_memory_within_budget(self, tmp_path):
        # Writing both files for 20,000 rows peaked at 5.00 MB of traced
        # allocation when each number was formatted once per file and the
        # JSON items of all rows were held at once; with the numbers
        # formatted once for both (held by the table) 5.13 MB.
        rng = np.random.default_rng(0)
        n = 20_000
        start = rng.integers(0, 4000, n) / 25.0
        table = Detections(tuple(f"video_{i:04d}" for i in range(60)),
                           np.sort(rng.integers(0, 60, n)), rng.integers(0, 20, n), start,
                           start + rng.integers(1, 400, n) / 25.0, rng.normal(size=n))
        names = [f"class_{c}" for c in range(20)]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            write_detections_csv(tmp_path / "d.csv", table, names)
            write_detections_json(tmp_path / "d.json", table, names)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - base) / 1e6 < 5.5

    def test_empty_table(self, tmp_path):
        empty = localize_video(clean_scores(), video_entry(),
                               LocalizeConfig(class_reject_threshold=1.1))
        write_detections_csv(tmp_path / "d.csv", empty, CLASSES)
        write_detections_json(tmp_path / "d.json", empty, CLASSES)
        assert (tmp_path / "d.csv").read_text() == "video_id,label,t_start,t_end,score\n"
        assert (tmp_path / "d.json").read_text() == '{"results": {}}'


# Leaves of fuzzed documents: valid labels and numbers next to junk of every
# JSON type, an integer too large for a float, and strings that float()
# reads or rejects.
LEAVES = (st.none() | st.booleans() | st.floats() | st.integers() | st.just(10 ** 400)
          | st.text(max_size=6) | st.sampled_from(["jump", "run", "nan", "1e3", ""]))
JSON_VALUES = st.recursive(
    LEAVES, lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(["results", "label", "score", "segment"]) | st.text(max_size=4),
        inner, max_size=4),
    max_leaves=20)
DETECTIONS = st.fixed_dictionaries({
    "label": st.sampled_from(["jump", "run"]), "score": st.floats() | LEAVES,
    "segment": st.lists(st.floats(), min_size=2, max_size=2),
}) | st.fixed_dictionaries({}, optional={
    "label": st.sampled_from(["jump", "run"]) | JSON_VALUES,
    "score": st.floats() | JSON_VALUES,
    "segment": st.lists(st.floats(), max_size=3) | JSON_VALUES,
})
JSON_DOCUMENTS = JSON_VALUES | st.fixed_dictionaries({"results": st.dictionaries(
    st.text(max_size=4), st.lists(DETECTIONS, max_size=3) | JSON_VALUES, max_size=3)})


@st.composite
def csv_documents(draw):
    columns = ["video_id", "label", "t_start", "t_end", "score", "extra"]
    header = draw(st.permutations(columns[:5]) | st.permutations(columns).flatmap(
        lambda cols: st.integers(0, len(cols)).map(lambda k: cols[:k])))
    junk = st.sampled_from(["vid", "jump", "0.5", "nan", "inf", "", "abc"]) \
        | st.text(max_size=6)
    number = st.floats().map(repr) | st.integers().map(str)
    plausible = {"label": st.sampled_from(["jump", "run"]), "t_start": number,
                 "t_end": number, "score": number}
    plausible_row = st.tuples(*(plausible.get(c, junk) for c in header))
    row = (st.lists(junk, max_size=7) | plausible_row
           | st.tuples(plausible_row, st.lists(junk, min_size=1, max_size=2))
           .map(lambda t: (*t[0], *t[1]))  # extra trailing fields
           | st.tuples(plausible_row, st.integers(0, len(header)))
           .map(lambda t: t[0][:t[1]])  # a short row; () is a blank line
           )
    rows = draw(st.lists(row, max_size=4))
    blank = "\n" * draw(st.integers(0, 1))  # a blank first line has no columns
    return blank + "\n".join(",".join(cells) for cells in [header, *rows]) + "\n"


class TestReadDetectionsFuzz:
    """Whatever the file holds, read_detections accepts it exactly when the
    record-at-a-time reference does, with the same columns, or raises the
    same FormatError; no other exception escapes to the CLI."""

    def check(self, directory, name, content):
        path = directory / name
        path.write_bytes(content if isinstance(content, bytes) else content.encode())
        try:
            expected = read_detections_reference(path, CLASSES)
        except FormatError as exc:
            with pytest.raises(FormatError) as raised:
                read_detections(path, CLASSES)
            assert str(raised.value) == str(exc) and str(exc).startswith(str(path))
            return
        table = read_detections(path, CLASSES)
        assert table_rows(table) == expected
        for column in (table.score, table.start, table.end):
            assert column.dtype == np.float64 and np.isfinite(column).all()

    @given(content=csv_documents() | st.text() | st.binary())
    @settings(max_examples=300, deadline=None)
    def test_csv(self, tmp_path_factory, content):
        self.check(tmp_path_factory.getbasetemp(), "fuzz.csv", content)

    @given(content=JSON_DOCUMENTS.map(json.dumps) | st.text() | st.binary())
    @settings(max_examples=300, deadline=None)
    def test_json(self, tmp_path_factory, content):
        self.check(tmp_path_factory.getbasetemp(), "fuzz.json", content)
