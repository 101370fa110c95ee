import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wtal.errors import ConfigError, ContractError, FormatError, InputError
from wtal.evaluation import tiou
from wtal.localization import (NMS_BLOCK_BYTES, ActionInstance, DetectionRecord,
                               LocalizeConfig, StreamScores, fuse_scores,
                               localize_video, minmax, nms, outer_inner_score,
                               propose, read_detections, upsample,
                               write_detections_csv, write_detections_json)

from oracles import nms_reference


class TestFuseScores:
    def test_weight_zero_uses_class_scores_alone(self, rng):
        s_a = rng.normal(size=(6, 3))
        s_f = np.full(6, 2.0)
        fused = fuse_scores(s_a, s_f, num_classes=2, fusion_weight=0.0)
        for c in range(2):
            assert np.allclose(fused[:, c], minmax(s_a[:, c]), atol=1e-15)

    def test_identical_sequences_are_a_fixed_point(self, rng):
        s_f = rng.normal(size=5)
        s_a = np.tile(s_f[:, None], (1, 2))
        fused = fuse_scores(s_a, s_f, num_classes=2, fusion_weight=0.5)
        assert np.allclose(fused[:, 0], minmax(s_f), atol=1e-15)

    def test_hand_built_four_step_sequence(self):
        s_a = np.array([[2.0], [4.0], [8.0], [6.0]])
        s_f = np.array([1.0, 0.0, 3.0, 2.0])
        fused = fuse_scores(s_a, s_f, num_classes=1, fusion_weight=0.5)
        expected = np.array([1 / 6, 1 / 6, 1.0, 2 / 3])
        assert np.allclose(fused[:, 0], expected, atol=1e-12)

    def test_constant_sequence_becomes_half(self):
        fused = fuse_scores(np.full((4, 2), 3.3), np.full(4, -1.0), num_classes=2)
        assert np.allclose(fused, 0.5, atol=1e-15)

    def test_background_column_dropped(self, rng):
        fused = fuse_scores(rng.normal(size=(5, 4)), rng.normal(size=5), num_classes=3)
        assert fused.shape == (5, 3)

    def test_shift_invariance(self, rng):
        s_a = rng.normal(size=(7, 2))
        s_f = rng.normal(size=7)
        shifted = fuse_scores(s_a + 11.5, s_f - 3.25, num_classes=2)
        assert np.allclose(shifted, fuse_scores(s_a, s_f, num_classes=2), atol=1e-12)


class TestUpsample:
    def test_stride_one_is_identity(self, rng):
        g = rng.random(size=(6, 2))
        up, times = upsample(g, stride=1, fps=25.0)
        assert np.array_equal(up, g)
        assert np.allclose(times, np.arange(6) / 25.0)

    def test_two_snippets_ramp(self):
        up, times = upsample(np.array([0.0, 1.0]), stride=4, fps=25.0)
        assert up.shape == (8,)
        assert up[0] == 0.0 and up[-1] == 1.0
        assert (np.diff(up) >= 0).all()
        assert times[-1] == pytest.approx(7 / 25.0)

    def test_constant_input(self):
        up, _ = upsample(np.full(5, 0.7), stride=3, fps=10.0)
        assert np.allclose(up, 0.7, atol=1e-15)

    def test_empty_input_rejected(self):
        with pytest.raises(InputError):
            upsample(np.zeros((0,)), stride=4, fps=25.0)

    def test_output_length(self, rng):
        up, _ = upsample(rng.random(size=(9, 3)), stride=16, fps=25.0)
        assert up.shape == (144, 3)


class TestPropose:
    def test_step_function_single_instance(self):
        g = np.zeros(100)
        g[20:50] = 1.0
        out = propose(g, thresholds=(0.2, 0.5, 0.8), fps=25.0, class_conf=0.6,
                      context_ratio=0.25, class_id=3)
        assert len(out) == 1
        inst = out[0]
        assert inst.class_id == 3
        assert inst.start == pytest.approx(20 / 25.0)
        assert inst.end == pytest.approx(50 / 25.0)
        assert inst.score == pytest.approx(1.0 - 0.0 + 0.6, abs=1e-12)

    def test_threshold_above_max_gives_nothing(self):
        g = np.full(50, 0.4)
        assert propose(g, thresholds=(0.9,), fps=25.0, class_conf=0.0,
                       context_ratio=0.25, class_id=0) == []

    def test_two_plateaus_enumeration(self):
        g = np.zeros(120)
        g[10:30] = 0.8
        g[70:90] = 0.4
        out = propose(g, thresholds=(0.3, 0.5, 0.7), fps=1.0, class_conf=0.0,
                      context_ratio=0.25, class_id=0)
        intervals = {(i.start, i.end) for i in out}
        assert intervals == {(10.0, 30.0), (70.0, 90.0)}
        by_start = {i.start: i.score for i in out}
        assert by_start[10.0] > by_start[70.0]

    def test_class_conf_switch(self):
        g = np.zeros(40)
        g[10:20] = 1.0
        with_conf = propose(g, (0.5,), 25.0, 0.9, 0.25, 0, include_class_conf=True)
        without = propose(g, (0.5,), 25.0, 0.9, 0.25, 0, include_class_conf=False)
        assert with_conf[0].score == pytest.approx(without[0].score + 0.9)

    def test_intervals_inside_video(self, rng):
        g = rng.random(size=200)
        out = propose(g, tuple(np.linspace(0.1, 0.9, 9)), fps=25.0, class_conf=0.5,
                      context_ratio=0.25, class_id=1)
        for inst in out:
            assert 0.0 <= inst.start < inst.end <= 200 / 25.0


class TestOuterInnerScore:
    @pytest.mark.parametrize("start,end", [(0, 40), (960, 1000), (0, 1000), (300, 700),
                                           (5, 6), (10, 990)])
    @pytest.mark.parametrize("ratio", [0.0, 0.25, 1.0, 3.0])
    def test_bit_equal_to_mean_formula(self, rng, start, end, ratio):
        # long windows use numpy's pairwise summation; (0, 40), (960, 1000)
        # and (10, 990) clip the context at one or both video bounds
        g = rng.random(size=1000)
        ctx = math.ceil(ratio * (end - start))
        outer = np.concatenate([g[max(0, start - ctx):start], g[end:end + ctx]])
        expected = float(g[start:end].mean()) - (float(outer.mean()) if outer.size else 0.0)
        assert outer_inner_score(g, start, end, ratio) == expected


def make_instances(triples, class_id=0):
    return [ActionInstance(class_id=class_id, score=q, start=s, end=e)
            for q, s, e in triples]


class TestNms:
    def test_single_instance(self):
        inst = make_instances([(0.5, 1.0, 2.0)])
        assert nms(inst, 0.5) == inst

    def test_identical_intervals_keep_best(self):
        kept = nms(make_instances([(0.9, 1.0, 2.0), (0.5, 1.0, 2.0)]), 0.5)
        assert len(kept) == 1 and kept[0].score == 0.9

    def test_mixed_classes_rejected(self):
        items = make_instances([(0.9, 1.0, 2.0)], 0) + make_instances([(0.5, 1.0, 2.0)], 1)
        with pytest.raises(ContractError):
            nms(items, 0.5)

    def test_ten_random_against_reference(self, rng):
        for _ in range(25):
            triples = []
            for _ in range(10):
                start = rng.uniform(0, 50)
                triples.append((float(rng.random()), start, start + rng.uniform(0.5, 20)))
            kept = nms(make_instances(triples), 0.5)
            expected = nms_reference(triples, 0.5)
            assert [(i.score, i.start, i.end) for i in kept] == expected

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
        kept = nms(make_instances(triples), threshold)
        assert [(i.score, i.start, i.end) for i in kept] == nms_reference(triples, threshold)

    def test_matches_reference_across_block_boundaries(self, rng):
        n = 2500
        assert NMS_BLOCK_BYTES // (8 * n) < n  # the sweep spans several row blocks
        starts = rng.uniform(0, 400, size=n)
        triples = [(float(q), float(s), float(s + d)) for q, s, d in
                   zip(rng.random(size=n), starts, rng.uniform(0.5, 40, size=n))]
        for threshold in (0.3, 0.7):
            kept = nms(make_instances(triples), threshold)
            assert [(i.score, i.start, i.end) for i in kept] == \
                nms_reference(triples, threshold)

    def test_all_nested_sawtooth_through_propose(self):
        # one tooth of a sawtooth: every threshold cuts an interval that ends
        # at the drop, so the candidates form a single nested chain
        g = np.concatenate([np.zeros(50), np.linspace(0.0, 1.0, 2000), np.zeros(50)])
        thresholds = tuple(round(0.001 * i, 3) for i in range(1, 1000))
        candidates = propose(g, thresholds, fps=25.0, class_conf=0.3,
                             context_ratio=0.25, class_id=0)
        assert len(candidates) == len(thresholds)
        spans = sorted((i.start, i.end) for i in candidates)
        assert all(a[0] <= b[0] and b[1] <= a[1] for a, b in zip(spans, spans[1:]))
        triples = [(i.score, i.start, i.end) for i in candidates]
        for threshold in (0.1, 0.5, 0.9, 1.0):
            kept = nms(candidates, threshold)
            assert [(i.score, i.start, i.end) for i in kept] == \
                nms_reference(triples, threshold)

    def test_duplicate_intervals_and_equal_scores(self, rng):
        for _ in range(20):
            base = [(float(s), float(s + d)) for s, d in
                    zip(rng.integers(0, 20, size=8), rng.integers(1, 6, size=8))]
            triples = [(float(rng.choice([0.2, 0.5, 0.9])), *base[int(k)])
                       for k in rng.integers(0, len(base), size=60)]
            for threshold in (0.25, 0.5, 1.0):
                kept = nms(make_instances(triples), threshold)
                assert [(i.score, i.start, i.end) for i in kept] == \
                    nms_reference(triples, threshold)

    def test_output_is_antichain(self, rng):
        triples = [(float(rng.random()), s, s + 5.0) for s in rng.uniform(0, 40, size=20)]
        kept = nms(make_instances(triples), 0.4)
        for i, a in enumerate(kept):
            for b in kept[i + 1:]:
                assert tiou((a.start, a.end), (b.start, b.end)) < 0.4

    def test_sorted_by_score_descending(self, rng):
        triples = [(float(rng.random()), s, s + 3.0) for s in rng.uniform(0, 100, size=15)]
        kept = nms(make_instances(triples), 0.5)
        scores = [i.score for i in kept]
        assert scores == sorted(scores, reverse=True)


def clean_stream(num_classes=3, t=40, span=(10, 25), cls=1, stride=16, fps=25.0):
    """Scores with one crisp plateau for one class."""
    s_a = np.full((t, num_classes + 1), -5.0)
    s_a[span[0]:span[1], cls] = 5.0
    s_f = np.full(t, -5.0)
    s_f[span[0]:span[1]] = 5.0
    p = np.full(num_classes + 1, 0.01)
    p[cls] = 0.9
    return StreamScores(s_a=s_a, s_f=s_f, p_video_class=p,
                        snippet_stride=stride, fps=fps)


class TestLocalizeVideo:
    def test_all_classes_rejected(self):
        stream = clean_stream()
        config = LocalizeConfig(class_reject_threshold=1.1)
        assert localize_video([stream], 3, config) == []

    def test_single_plateau_single_instance(self):
        stream = clean_stream(span=(10, 25), cls=1)
        out = localize_video([stream], 3, LocalizeConfig())
        assert len(out) == 1
        inst = out[0]
        assert inst.class_id == 1
        # plateau spans snippets [10, 25) -> seconds via stride/fps, within
        # one snippet of the ramp introduced by upsampling
        snippet_sec = 16 / 25.0
        assert inst.start == pytest.approx(10 * snippet_sec, abs=snippet_sec)
        assert inst.end == pytest.approx(25 * snippet_sec, abs=snippet_sec)

    def test_duplicate_streams_suppressed_to_one(self):
        stream = clean_stream()
        out = localize_video([stream, stream], 3, LocalizeConfig())
        assert len(out) == 1

    def test_stream_count_contract(self):
        with pytest.raises(ContractError):
            localize_video([], 3, LocalizeConfig())
        with pytest.raises(ContractError):
            localize_video([clean_stream()] * 3, 3, LocalizeConfig())


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


class TestDetectionsIo:
    def records(self):
        return [
            DetectionRecord("vid_a", 0, "jump", 0.91, 1.5, 3.25),
            DetectionRecord("vid_a", 1, "run", 0.52, 7.0, 9.5),
            DetectionRecord("vid_b", 0, "jump", 0.33, 0.0, 2.0),
        ]

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "det.csv"
        write_detections_csv(path, self.records())
        back = read_detections(path, ["jump", "run"])
        assert back == self.records()

    def test_failed_write_keeps_previous_file(self, tmp_path):
        class Unprintable(float):
            def __repr__(self):
                raise RuntimeError("cannot format")

        path = tmp_path / "det.csv"
        write_detections_csv(path, self.records())
        before = path.read_bytes()
        broken = self.records()[1:] + [DetectionRecord("vid_c", 0, "jump",
                                                       Unprintable(0.1), 0.0, 1.0)]
        with pytest.raises(RuntimeError):
            write_detections_csv(path, broken)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["det.csv"]

    def test_json_is_compact_with_the_same_schema(self, tmp_path):
        path = tmp_path / "det.json"
        write_detections_json(path, self.records())
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
            read_detections(path, ["jump", "run"])

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
            read_detections(path, ["jump", "run"])

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "det.json"
        write_detections_json(path, self.records())
        back = read_detections(path, ["jump", "run"])
        assert sorted((r.video_id, r.start) for r in back) == \
            sorted((r.video_id, r.start) for r in self.records())
