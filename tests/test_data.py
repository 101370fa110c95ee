import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wtal.data import (SynthConfig, VideoSplit, convert_raw_features, generate_synthetic,
                       ground_truth_instances, load_features,
                       parse_manifest, read_feature_header, save_features)
from wtal.errors import ConfigError, FormatError, InputError, ManifestError
from wtal.evaluation import ACTIVITYNET_GRID, THUMOS_GRID, map_report

from conftest import JSON_VALUES, detections_table


class TestFeatureFiles:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        path = tmp_path / "v.facf"
        original = rng.normal(size=(17, 9)).astype(np.float32)
        save_features(path, original)
        assert np.array_equal(load_features(path), original)

    def test_minimal_file(self, tmp_path):
        path = tmp_path / "tiny.facf"
        save_features(path, np.arange(4, dtype=np.float32).reshape(1, 4))
        assert load_features(path).shape == (1, 4)
        with open(path, "rb") as fh:
            assert read_feature_header(fh, path) == (1, 4)

    def test_one_open_per_load(self, tmp_path, rng, monkeypatch):
        path = tmp_path / "v.facf"
        save_features(path, rng.normal(size=(5, 4)).astype(np.float32))
        opened = []
        monkeypatch.setattr("wtal.data.open", lambda file, *args: opened.append(file)
                            or open(file, *args), raising=False)
        assert load_features(path).shape == (5, 4)
        assert opened == [path]

    def test_truncated_payload_names_sizes(self, tmp_path, rng):
        path = tmp_path / "v.facf"
        save_features(path, rng.normal(size=(5, 4)).astype(np.float32))
        clipped = tmp_path / "clip.facf"
        clipped.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(FormatError, match="72.*80|expected 80"):
            load_features(clipped)

    def test_trailing_bytes_rejected(self, tmp_path, rng):
        path = tmp_path / "v.facf"
        save_features(path, rng.normal(size=(5, 4)).astype(np.float32))
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(FormatError, match="88.*80|expected 80"):
            load_features(path)

    def test_oversized_header_rejected_before_allocating(self, tmp_path):
        # T = D = 2**31 - 1 would need 16 EiB; the file size is checked first
        path = tmp_path / "v.facf"
        save_features(path, np.zeros((1, 1), dtype=np.float32))
        raw = bytearray(path.read_bytes())
        raw[8:16] = b"\xff\xff\xff\x7f" * 2
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="payload is 4 bytes"):
            load_features(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.facf"
        path.write_bytes(b"XXXX" + b"\x00" * 20)
        with pytest.raises(FormatError, match="magic"):
            load_features(path)

    def test_bad_version(self, tmp_path, rng):
        path = tmp_path / "v.facf"
        save_features(path, rng.normal(size=(2, 2)).astype(np.float32))
        raw = bytearray(path.read_bytes())
        raw[4] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="version"):
            load_features(path)

    def test_non_finite_payload_rejected(self, tmp_path):
        path = tmp_path / "v.facf"
        bad = np.array([[1.0, np.inf]], dtype=np.float32)
        with pytest.raises(InputError):
            save_features(path, bad)
        # write bytes manually to hit the load-side check
        ok = np.array([[1.0, 2.0]], dtype=np.float32)
        save_features(path, ok)
        raw = bytearray(path.read_bytes())
        raw[16:20] = np.array([np.nan], dtype="<f4").tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(InputError):
            load_features(path)

    def test_converter_wraps_raw_blob(self, tmp_path, rng):
        data = rng.normal(size=(6, 3)).astype("<f4")
        raw = tmp_path / "blob.bin"
        raw.write_bytes(data.tobytes())
        out = tmp_path / "wrapped.facf"
        convert_raw_features(raw, 6, 3, out)
        assert np.array_equal(load_features(out), data)

    def test_converter_size_mismatch(self, tmp_path):
        raw = tmp_path / "blob.bin"
        raw.write_bytes(b"\x00" * 20)
        with pytest.raises(FormatError):
            convert_raw_features(raw, 6, 3, tmp_path / "out.facf")


def tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


class TestFeatureFileFuzz:
    """A truncated or byte-mutated feature file loads or raises a
    ``wtal.errors`` type; nothing else escapes to the CLI."""

    @given(cut=st.integers(0, 200), edits=st.lists(
        st.tuples(st.integers(0, 200), st.integers(0, 255)), max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_mutated_file(self, tmp_path_factory, cut, edits):
        path = tmp_path_factory.getbasetemp() / "fuzz.facf"
        save_features(path, np.arange(24, dtype=np.float32).reshape(6, 4))
        raw = bytearray(path.read_bytes())
        for index, byte in edits:
            raw[index % len(raw)] = byte
        path.write_bytes(bytes(raw[:cut]))
        try:
            load_features(path)
        except Exception as exc:
            assert type(exc).__module__ == "wtal.errors", repr(exc)


class TestSyntheticGenerator:
    def test_zero_noise_snippets_match_own_prototype(self, tmp_path):
        config = SynthConfig(num_classes=4, num_train=4, num_test=1, feature_dim=32,
                             snippet_range=(20, 40), noise=0.0, seed=3,
                             instance_len_range=(4, 10))
        manifest = parse_manifest(generate_synthetic(config, tmp_path))
        # recover prototypes from labeled spans and check nearest-prototype
        samples = {entry.video_id: sample for entry, sample in
                   zip(manifest.split("train"), VideoSplit(manifest, manifest.split("train")))}
        protos = {}
        for entry in manifest.split("train"):
            feats = samples[entry.video_id].features
            stride_sec = entry.snippet_stride / entry.fps
            for span in entry.ground_truth:
                s = int(round(span.start / stride_sec))
                protos.setdefault(span.class_id, feats[s])
        assert protos
        for entry in manifest.split("train"):
            feats = samples[entry.video_id].features
            stride_sec = entry.snippet_stride / entry.fps
            for span in entry.ground_truth:
                cls = span.class_id
                s = int(round(span.start / stride_sec))
                e = int(round(span.end / stride_sec))
                for t in range(s, e):
                    sims = {c: float(feats[t] @ p / (np.linalg.norm(feats[t]) * np.linalg.norm(p)))
                            for c, p in protos.items()}
                    assert max(sims, key=sims.get) == cls

    def test_same_seed_byte_identical(self, tmp_path):
        config = SynthConfig(num_train=3, num_test=2, snippet_range=(20, 30), seed=5)
        generate_synthetic(config, tmp_path / "a")
        generate_synthetic(config, tmp_path / "b")
        assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")

    def test_different_seed_changes_payload_not_schema(self, tmp_path):
        a = SynthConfig(num_train=3, num_test=2, snippet_range=(20, 30), seed=5)
        b = SynthConfig(num_train=3, num_test=2, snippet_range=(20, 30), seed=6)
        generate_synthetic(a, tmp_path / "a")
        generate_synthetic(b, tmp_path / "b")
        assert tree_digest(tmp_path / "a") != tree_digest(tmp_path / "b")
        ma = parse_manifest(tmp_path / "a" / "manifest.json")
        mb = parse_manifest(tmp_path / "b" / "manifest.json")
        assert ma.classes == mb.classes
        assert len(ma.videos) == len(mb.videos)

    def test_prototype_separation_margin(self, tmp_path):
        config = SynthConfig(num_classes=5, feature_dim=64, separation_margin=0.3,
                             num_train=1, num_test=0, seed=1)
        from wtal.data import _separated_prototypes
        protos = _separated_prototypes(np.random.default_rng(1), 6, 64, 0.3)
        for i in range(len(protos)):
            for j in range(i + 1, len(protos)):
                assert float(protos[i] @ protos[j]) <= 0.7 + 1e-12

    def test_infeasible_margin_rejected(self):
        from wtal.data import _separated_prototypes
        with pytest.raises(ConfigError):
            _separated_prototypes(np.random.default_rng(0), 10, 2, 1.5)

    def test_gt_instances_as_detections_score_one(self, tmp_path):
        config = SynthConfig(num_train=2, num_test=6, snippet_range=(30, 60), seed=9)
        manifest = parse_manifest(generate_synthetic(config, tmp_path))
        gts = ground_truth_instances(manifest, "test")
        dets = detections_table((g.video_id, g.class_id, 1.0, g.start, g.end) for g in gts)
        for grid in (THUMOS_GRID, ACTIVITYNET_GRID):
            report = map_report(dets, gts, grid, len(manifest.classes))
            assert report.average_map == 1.0
            assert all(v == 1.0 for v in report.map_at.values())


class TestManifest:
    def minimal_doc(self, tmp_path, **video_overrides):
        save_features(tmp_path / "v0.facf", np.ones((10, 4), dtype=np.float32))
        video = {
            "id": "v0", "split": "train", "fps": 25.0, "snippet_stride": 16,
            "features": {"rgb": "v0.facf"}, "labels": ["jump"],
            "ground_truth": [{"label": "jump", "start": 0.0, "end": 3.2}],
        }
        video.update(video_overrides)
        return {"schema_version": 1, "classes": ["jump", "run"], "videos": [video]}

    def write(self, tmp_path, doc):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(doc))
        return path

    def test_minimal_manifest_parses(self, tmp_path):
        manifest = parse_manifest(self.write(tmp_path, self.minimal_doc(tmp_path)))
        assert manifest.streams == ("rgb",)
        assert manifest.videos[0].duration == pytest.approx(10 * 16 / 25.0)
        assert np.array_equal(manifest.label_vector(manifest.videos[0]), [1.0, 0.0])

    def test_gt_outside_duration(self, tmp_path):
        doc = self.minimal_doc(tmp_path)
        doc["videos"][0]["ground_truth"] = [{"label": "jump", "start": 1.0, "end": 99.0}]
        with pytest.raises(ManifestError, match="duration"):
            parse_manifest(self.write(tmp_path, doc))

    def test_unknown_label(self, tmp_path):
        doc = self.minimal_doc(tmp_path, labels=["fly"])
        with pytest.raises(ManifestError, match="unknown class"):
            parse_manifest(self.write(tmp_path, doc))

    @pytest.mark.parametrize("span", [
        {"label": "jump", "end": 3.2},
        {"start": 0.0, "end": 3.2},
        {"label": "jump", "start": "soon", "end": 3.2},
        {"label": "jump", "start": None, "end": 3.2},
        ["jump", 0.0, 3.2],
        "jump",
        {"label": "jump", "start": "0.5", "end": 3.2},  # a bound must be a JSON number
        {"label": "jump", "start": 0.0, "end": True},
    ])
    def test_malformed_ground_truth_span(self, tmp_path, span):
        doc = self.minimal_doc(tmp_path, ground_truth=[span])
        with pytest.raises(ManifestError, match="video v0: ground truth"):
            parse_manifest(self.write(tmp_path, doc))

    def test_missing_feature_file(self, tmp_path):
        doc = self.minimal_doc(tmp_path, features={"rgb": "nope.facf"})
        with pytest.raises(ManifestError, match="missing feature file"):
            parse_manifest(self.write(tmp_path, doc))

    def test_bad_split(self, tmp_path):
        doc = self.minimal_doc(tmp_path, split="validation")
        with pytest.raises(ManifestError, match="split"):
            parse_manifest(self.write(tmp_path, doc))

    def test_two_stream_manifest_enables_dual_mode(self, tmp_path):
        # every stream's features, side by side in manifest.streams order
        config = SynthConfig(num_train=2, num_test=1, snippet_range=(20, 30),
                             seed=2, streams=("rgb", "flow"))
        manifest = parse_manifest(generate_synthetic(config, tmp_path))
        assert manifest.streams == ("flow", "rgb")
        samples = VideoSplit(manifest, manifest.split("train"))
        assert len(samples) == len(manifest.split("train"))
        for sample, entry in zip(samples, manifest.split("train")):
            flow, rgb = (load_features(entry.features[s]) for s in ("flow", "rgb"))
            assert not np.array_equal(flow, rgb)
            assert np.array_equal(sample.features, np.hstack([flow, rgb]))

    def test_feature_dim_sums_the_stream_widths(self, tmp_path):
        save_features(tmp_path / "v0_flow.facf", np.ones((10, 3), dtype=np.float32))
        doc = self.minimal_doc(tmp_path, features={"rgb": "v0.facf", "flow": "v0_flow.facf"})
        assert parse_manifest(self.write(tmp_path, doc)).feature_dim == 4 + 3

    def test_stream_width_differing_from_the_first_video(self, tmp_path):
        doc = self.minimal_doc(tmp_path)
        save_features(tmp_path / "v1.facf", np.ones((10, 3), dtype=np.float32))
        doc["videos"].append({**doc["videos"][0], "id": "v1", "features": {"rgb": "v1.facf"}})
        with pytest.raises(ManifestError, match="video v1: stream rgb has feature width 3, "
                                                "but 4 in video v0"):
            parse_manifest(self.write(tmp_path, doc))

    def test_unlabeled_train_video_rejected(self, tmp_path):
        doc = self.minimal_doc(tmp_path, labels=[])
        with pytest.raises(ManifestError, match="video v0: a train video needs at least one"):
            parse_manifest(self.write(tmp_path, doc))

    def test_unlabeled_test_video_accepted(self, tmp_path):
        doc = self.minimal_doc(tmp_path, split="test", labels=[])
        assert parse_manifest(self.write(tmp_path, doc)).videos[0].labels == []

    @pytest.mark.parametrize("stride", [2 ** 20 // 10 + 1, 2 ** 31])
    def test_frame_count_above_cap(self, tmp_path, stride):
        # 10 snippets: 2**20 // 10 + 1 is the smallest stride past the cap
        doc = self.minimal_doc(tmp_path, snippet_stride=stride, ground_truth=[])
        with pytest.raises(ManifestError, match=f"video v0: 10 snippets at snippet_stride "
                                                f"{stride} make {10 * stride} frames"):
            parse_manifest(self.write(tmp_path, doc))

    def test_frame_count_at_cap(self, tmp_path):
        doc = self.minimal_doc(tmp_path, snippet_stride=2 ** 20 // 10, ground_truth=[])
        assert parse_manifest(self.write(tmp_path, doc)).videos[0].snippet_stride == 2 ** 20 // 10


# Every field of TestManifest.minimal_doc, as a path of keys into the document.
MANIFEST_FIELDS = [
    ("schema_version",), ("classes",), ("classes", 0), ("videos",), ("videos", 0),
    *(("videos", 0, key) for key in ("id", "split", "fps", "snippet_stride", "features",
                                     "labels", "ground_truth")),
    ("videos", 0, "features", "rgb"), ("videos", 0, "labels", 0),
    ("videos", 0, "ground_truth", 0),
    *(("videos", 0, "ground_truth", 0, key) for key in ("label", "start", "end")),
]
class TestManifestFuzz:
    """A valid manifest with one field replaced by any JSON value parses or
    raises a ``wtal.errors`` type; nothing else escapes to the CLI."""

    @given(where=st.sampled_from(MANIFEST_FIELDS), value=JSON_VALUES)
    @settings(max_examples=400, deadline=None)
    def test_mutated_field(self, tmp_path_factory, where, value):
        directory = tmp_path_factory.getbasetemp() / "manifest_fuzz"
        directory.mkdir(exist_ok=True)
        doc = TestManifest().minimal_doc(directory)
        *parents, last = where
        target = doc
        for key in parents:
            target = target[key]
        target[last] = value
        path = TestManifest().write(directory, doc)
        try:
            parse_manifest(path)
        except Exception as exc:
            assert type(exc).__module__ == "wtal.errors", repr(exc)
