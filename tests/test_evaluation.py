import json
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from wtal.errors import ContractError
from wtal.evaluation import (ACTIVITYNET_GRID, THUMOS_GRID, Detections,
                             GroundTruthInstance, average_precision as table_ap,
                             format_report, map_report as table_map_report,
                             tiou_array, write_report_json)

from conftest import detections_table
from oracles import ap_sequential, map_reference, tiou

Det = namedtuple("Det", "video_id class_id score start end")


def average_precision(dets, gts, threshold):
    return table_ap(detections_table(dets), gts, threshold)


def map_report(dets, gts, grid, num_classes):
    return table_map_report(detections_table(dets), gts, grid, num_classes)


class TestTiou:
    def test_identical(self):
        assert tiou((3.0, 8.0), (3.0, 8.0)) == 1.0

    def test_disjoint(self):
        assert tiou((0.0, 1.0), (5.0, 6.0)) == 0.0

    def test_exact_third(self):
        assert tiou((0.0, 10.0), (5.0, 15.0)) == 1.0 / 3.0

    def test_zero_length_interval(self):
        assert tiou((2.0, 2.0), (0.0, 4.0)) == 0.0
        assert tiou((2.0, 2.0), (2.0, 2.0)) == 0.0

    @given(
        a=st.tuples(st.floats(0, 50), st.floats(0.1, 50)),
        b=st.tuples(st.floats(0, 50), st.floats(0.1, 50)),
    )
    def test_symmetric_and_bounded(self, a, b):
        ia = (a[0], a[0] + a[1])
        ib = (b[0], b[0] + b[1])
        v = tiou(ia, ib)
        assert v == tiou(ib, ia)
        assert 0.0 <= v <= 1.0

    def test_array_form_bit_equal(self, rng):
        # half-second grid: shared bounds, nesting, touching and zero-length pairs
        a = 0.5 * rng.integers(0, 20, size=(400, 2)).cumsum(axis=1)
        b = 0.5 * rng.integers(0, 20, size=(400, 2)).cumsum(axis=1)
        b[::7] = a[::7]
        got = tiou_array(a[:, 0], a[:, 1], b[:, 0], b[:, 1])
        assert got.tolist() == [tiou(tuple(x), tuple(y)) for x, y in zip(a, b)]


class TestDetections:
    def test_concat_merges_video_ids_and_keeps_row_order(self):
        a = detections_table([("v1", 0, 0.5, 0.0, 1.0), ("v2", 1, 0.7, 2.0, 3.0)])
        b = detections_table([("v2", 2, 0.9, 4.0, 5.0), ("v3", 0, 0.1, 6.0, 7.0)])
        both = Detections.concat([a, b])
        assert len(both) == 4 and both.video_ids == ("v1", "v2", "v3")
        assert both.video.tolist() == [0, 1, 1, 2]
        assert both.class_id.tolist() == [0, 1, 2, 0]
        assert both.start.tolist() == [0.0, 2.0, 4.0, 6.0]

    def test_empty_concat_and_take(self):
        empty = Detections.concat([])
        assert len(empty) == 0 and empty.video_ids == ()
        table = detections_table([("v1", 0, 0.5, 0.0, 1.0), ("v2", 1, 0.7, 2.0, 3.0)])
        assert table.take(table.class_id == 1).score.tolist() == [0.7]
        assert len(table.take(table.class_id == 2)) == 0

    def test_ties_rank_by_video_id_not_index(self):
        # equal scores: "a" ranks first although it is the table's second video
        dets = [det("b", 0.5, 0.0, 1.0), det("a", 0.5, 0.0, 1.0)]
        gts = [gt("a", 0.0, 1.0)]
        assert average_precision(dets, gts, 0.5) == 1.0
        assert ap_sequential([(d.video_id, d.score, d.start, d.end) for d in dets],
                             [(g.video_id, g.start, g.end) for g in gts], 0.5) == 1.0


def det(video, score, start, end, cls=0):
    return Det(video_id=video, class_id=cls, score=score, start=start, end=end)


def gt(video, start, end, cls=0):
    return GroundTruthInstance(video_id=video, class_id=cls, start=start, end=end)


class TestAveragePrecision:
    def test_predictions_equal_ground_truth(self):
        gts = [gt("a", 0, 5), gt("a", 10, 15), gt("b", 2, 4)]
        dets = [det(g.video_id, 0.5, g.start, g.end) for g in gts]
        assert average_precision(dets, gts, 0.5) == 1.0

    def test_no_predictions(self):
        assert average_precision([], [gt("a", 0, 5)], 0.5) == 0.0

    def test_no_ground_truth(self):
        assert average_precision([det("a", 0.9, 0, 5)], [], 0.5) == 0.0

    def test_hand_computed_two_of_three(self):
        # ranks 1 (TP), 2 (FP), 3 (TP) over 2 ground truths:
        # AP = (1/2) * (1/1 + 2/3) = 5/6
        gts = [gt("a", 0.0, 1.0), gt("a", 10.0, 11.0)]
        dets = [det("a", 0.9, 0.0, 1.0), det("a", 0.8, 100.0, 101.0),
                det("a", 0.7, 10.0, 11.0)]
        assert average_precision(dets, gts, 0.5) == pytest.approx(5 / 6, abs=1e-12)

    def test_each_gt_matched_once(self):
        gts = [gt("a", 0.0, 10.0)]
        dets = [det("a", 0.9, 0.0, 10.0), det("a", 0.8, 0.0, 10.0)]
        # second duplicate is a false positive
        assert average_precision(dets, gts, 0.5) == 1.0

    def test_monotone_score_transform_invariance(self, rng):
        gts, dets = random_micro_dataset(rng, classes=1)
        gts1 = [g for g in gts if g.class_id == 0]
        dets1 = [d for d in dets if d.class_id == 0]
        base = average_precision(dets1, gts1, 0.4)
        squashed = [det(d.video_id, float(np.tanh(d.score) + 7), d.start, d.end)
                    for d in dets1]
        assert average_precision(squashed, gts1, 0.4) == pytest.approx(base, abs=1e-12)

    def test_tied_overlap_goes_to_first_ground_truth(self):
        # the first detection overlaps both ground truths by 1/3; taking the
        # first one in (start, end) order leaves the second detection unmatched
        gts = [gt("a", 4.0, 8.0), gt("a", 0.0, 4.0)]
        dets = [det("a", 0.9, 2.0, 6.0), det("a", 0.8, 0.0, 4.0)]
        assert average_precision(dets, gts, 0.3) == 0.5
        assert ap_sequential([(d.video_id, d.score, d.start, d.end) for d in dets],
                             [(g.video_id, g.start, g.end) for g in gts], 0.3) == 0.5

    def test_nan_score_ranks_last(self):
        dets = [det("a", float("nan"), 20.0, 25.0), det("a", 0.5, 0.0, 5.0)]
        assert average_precision(dets, [gt("a", 0.0, 5.0)], 0.5) == 1.0

    def test_bit_equal_to_sequential_loop(self, rng):
        # half-second grid coordinates and four score levels give tied scores
        # and tied overlaps; many videos, some without ground truth, and
        # duplicated detections
        for _ in range(150):
            videos = [f"v{v:02d}" for v in range(int(rng.integers(1, 40)))]
            gts = []
            for vid in videos[::2]:
                for _ in range(int(rng.integers(0, 5))):
                    start = 0.5 * int(rng.integers(0, 40))
                    gts.append((vid, start, start + 0.5 * int(rng.integers(1, 12))))
            dets = []
            for vid in videos:
                for _ in range(int(rng.integers(0, 10))):
                    start = 0.5 * int(rng.integers(0, 40))
                    dets.append((vid, float(rng.choice([0.25, 0.5, 0.75, 1.0])),
                                 start, start + 0.5 * int(rng.integers(1, 12))))
            dets += [dets[i] for i in rng.integers(0, max(len(dets), 1),
                                                    size=len(dets) // 3)]
            for threshold in THUMOS_GRID + ACTIVITYNET_GRID:
                got = average_precision([det(*d) for d in dets], [gt(*g) for g in gts],
                                        threshold)
                assert got == ap_sequential(dets, gts, threshold)

    def test_hopeless_prediction_never_raises_ap(self, rng):
        for _ in range(20):
            gts, dets = random_micro_dataset(rng, classes=1)
            gts1 = [g for g in gts if g.class_id == 0]
            dets1 = [d for d in dets if d.class_id == 0]
            base = average_precision(dets1, gts1, 0.5)
            junk = det("nowhere", float(rng.random()), 500.0, 501.0)
            assert average_precision(dets1 + [junk], gts1, 0.5) <= base + 1e-12


def random_micro_dataset(rng, videos=5, classes=3):
    gts = []
    dets = []
    for v in range(videos):
        vid = f"v{v}"
        for _ in range(int(rng.integers(0, 4))):
            c = int(rng.integers(0, classes))
            start = float(rng.uniform(0, 40))
            length = float(rng.uniform(1, 10))
            gts.append(gt(vid, start, start + length, c))
            # noisy candidate detections around the truth
            for _ in range(int(rng.integers(0, 3))):
                jitter = float(rng.normal(0, 2))
                dets.append(det(vid, float(rng.random()),
                                max(0.0, start + jitter),
                                start + length + abs(float(rng.normal(0, 2))), c))
        for _ in range(int(rng.integers(0, 3))):  # pure noise
            c = int(rng.integers(0, classes))
            start = float(rng.uniform(0, 50))
            dets.append(det(vid, float(rng.random()), start,
                            start + float(rng.uniform(0.5, 6)), c))
    return gts, dets


class TestMapReport:
    def test_perfect_detections_all_ones(self):
        gts = [gt("a", 0, 5, 0), gt("a", 8, 12, 1), gt("b", 3, 9, 2)]
        dets = [det(g.video_id, 0.9, g.start, g.end, g.class_id) for g in gts]
        report = map_report(dets, gts, THUMOS_GRID, num_classes=3)
        assert report.average_map == 1.0
        assert all(v == 1.0 for v in report.map_at.values())

    def test_tie_determinism(self):
        gts = [gt("a", 0, 5, 0), gt("b", 2, 6, 0), gt("c", 1, 7, 1)]
        dets = [det(g.video_id, 0.5, g.start, g.end, g.class_id) for g in gts]
        a = map_report(dets, gts, THUMOS_GRID, 2)
        b = map_report(list(reversed(dets)), gts, THUMOS_GRID, 2)
        assert a.map_at == b.map_at

    def test_class_without_gt_excluded(self):
        gts = [gt("a", 0, 5, 0)]
        dets = [det("a", 0.9, 0, 5, 0), det("a", 0.4, 1, 2, 1)]
        report = map_report(dets, gts, (0.5,), num_classes=2)
        assert report.classes_with_gt == (0,)
        assert report.map_at[0.5] == 1.0

    def test_matches_reference_on_random_micro_datasets(self, rng):
        for _ in range(40):
            gts, dets = random_micro_dataset(rng)
            report = map_report(dets, gts, THUMOS_GRID, 3)
            ref_per_t, ref_avg = map_reference(
                [(d.video_id, d.class_id, d.score, d.start, d.end) for d in dets],
                [(g.video_id, g.class_id, g.start, g.end) for g in gts],
                THUMOS_GRID, 3)
            got = [report.map_at[t] for t in THUMOS_GRID]
            assert np.allclose(got, ref_per_t, atol=1e-10)
            assert report.average_map == pytest.approx(ref_avg, abs=1e-10)

    @pytest.mark.parametrize("grid", [THUMOS_GRID, ACTIVITYNET_GRID])
    def test_map_is_the_mean_of_the_ap_list_bit_for_bit(self, rng, grid):
        # twelve classes with ground truth: a mean over an axis of the AP table
        # sums in another order from eight values up, np.mean over a list does not
        gts, dets = random_micro_dataset(rng, videos=40, classes=12)
        report = map_report(dets, gts, grid, 13)
        assert len(report.classes_with_gt) >= 8 and 12 not in report.classes_with_gt
        for i, t in enumerate(grid):
            aps = [report.ap[i, c] for c in report.classes_with_gt]
            assert report.map_at[t] == float(np.mean(aps))
        assert report.average_map == float(np.mean([report.map_at[t] for t in grid]))

    def test_both_grids_supported(self):
        gts = [gt("a", 0, 5, 0)]
        dets = [det("a", 1.0, 0, 5, 0)]
        thumos = map_report(dets, gts, THUMOS_GRID, 1)
        anet = map_report(dets, gts, ACTIVITYNET_GRID, 1)
        assert thumos.thresholds == tuple(np.round(np.arange(0.1, 0.75, 0.1), 1))
        assert len(anet.thresholds) == 10
        assert anet.thresholds[0] == 0.5 and anet.thresholds[-1] == 0.95

    def test_empty_grid_rejected(self):
        with pytest.raises(ContractError):
            map_report([], [], (), 1)

    def test_each_class_ranked_once_for_all_thresholds(self, monkeypatch):
        # the rank order does not depend on the threshold: one lexsort per
        # class table, not one per class and threshold
        gts = [gt("a", 0, 5, 0), gt("b", 2, 6, 1)]
        dets = [det("a", 0.9, 0, 5, 0), det("b", 0.4, 1, 2, 0), det("b", 0.7, 2, 6, 1)]
        table = detections_table(dets)
        calls = []
        lexsort = np.lexsort
        monkeypatch.setattr(np, "lexsort", lambda keys: calls.append(1) or lexsort(keys))
        report = table_map_report(table, gts, THUMOS_GRID, 2)
        assert len(calls) == 2
        assert report.map_at == {t: 1.0 for t in THUMOS_GRID}


class TestReportFormat:
    def test_table_layout(self):
        gts = [gt("a", 0, 5, 0)]
        dets = [det("a", 1.0, 0, 5, 0)]
        report = map_report(dets, gts, THUMOS_GRID, 2)
        text = format_report(report, ["jump", "run"])
        lines = text.splitlines()
        assert lines[0].startswith("tIoU")
        assert lines[0].rstrip().endswith("AVG")
        assert lines[-1].startswith("mAP")
        assert "jump" in lines[1] and "run" in lines[2]
        assert lines[2].rstrip().endswith("-")  # class without ground truth

    def test_dict_round_trip(self, tmp_path):
        gts = [gt("a", 0, 5, 0)]
        dets = [det("a", 1.0, 0, 5, 0)]
        report = map_report(dets, gts, (0.5,), 1)
        write_report_json(tmp_path / "report.json", report, ["jump"])
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["average_map"] == 1.0
        assert payload["per_class_ap"]["jump"]["0.5"] == 1.0
