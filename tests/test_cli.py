import json
import os
import platform
import re
import struct
import subprocess
import sys
import textwrap
import typing
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wtal import training
from wtal.cli import CONFIG_SECTIONS, build_parser, load_run_config, main
from wtal.data import (SynthConfig, _field_types, generate_synthetic, load_features,
                       parse_manifest, save_features)
from wtal.errors import FormatError
from wtal.localization import LocalizeConfig, localize_split, read_detections
from wtal.losses import LossWeights
from wtal.model import ModelConfig, forward_scores, init_params, load_checkpoint
from wtal.training import TrainConfig

from conftest import JSON_VALUES, table_rows


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SMALL_SYNTH = [
    "--set", "synth.num_train=6", "--set", "synth.num_test=3",
    "--set", "synth.snippet_range=[30,60]", "--set", "synth.seed=4",
]

FAST_TRAIN = [
    "--set", "model.embed_dims=[32,32]", "--set", "model.use_background=false",
    "--set", "train.epochs=3", "--set", "train.batch_size=2",
    "--set", "train.seed=1",
]


@pytest.fixture
def dataset_dir(tmp_path, capsys):
    out = tmp_path / "data"
    code, _, err = run(capsys, "synth", "--out", str(out), *SMALL_SYNTH)
    assert code == 0, err
    return out


class TestSynth:
    def test_default_dataset_written(self, tmp_path, capsys):
        code, out, _ = run(capsys, "synth", "--out", str(tmp_path / "d"),
                           "--set", "synth.num_train=2", "--set", "synth.num_test=1",
                           "--set", "synth.snippet_range=[20,30]")
        assert code == 0
        assert "3 videos" in out
        manifest = parse_manifest(tmp_path / "d" / "manifest.json")
        assert len(manifest.classes) == 5

    def test_invalid_margin_exits_nonzero(self, tmp_path, capsys):
        code, _, err = run(capsys, "synth", "--out", str(tmp_path / "d"),
                           "--set", "synth.separation_margin=-1")
        assert code != 0
        assert "margin" in err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        code, _, err = run(capsys, "synth", "--out", str(tmp_path / "d"),
                           "--set", "synth.bogus=1")
        assert code != 0
        assert "bogus" in err

    @pytest.mark.parametrize("command, setting, message", [
        ("synth", "train.bogus=1", "unknown config key train.bogus"),
        ("synth", "model.bogus=1", "unknown config key model.bogus"),
        ("train", "localize.bogus=1", "unknown config key localize.bogus"),
        ("train", "loss.bogus=1", "unknown config key loss.bogus"),
        ("localize", "model.bogus=1", "unknown config key model.bogus"),
        ("localize", "synth.bogus=1", "unknown config key synth.bogus"),
        ("train", "model.feature_dim=999", "model.feature_dim is set by the manifest"),
        ("train", "model.num_classes=5", "model.num_classes is set by the manifest"),
        ("localize", "model.num_classes=5", "model.num_classes is set by the manifest"),
        ("synth", "model.feature_dim=64", "model.feature_dim is set by the manifest"),
    ])
    @pytest.mark.parametrize("from_file", [False, True], ids=["override", "file"])
    def test_every_command_rejects_keys_it_cannot_use(self, tmp_path, capsys, command,
                                                      setting, message, from_file):
        # checked before any input is read: the manifest and model paths do not exist
        key, value = setting.split("=")
        section, name = key.split(".")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"config_version": 1, section: {name: int(value)}}))
        config = ["--config", str(cfg)] if from_file else ["--set", setting]
        inputs = {"synth": [], "train": ["--manifest", str(tmp_path / "m.json")],
                  "localize": ["--manifest", str(tmp_path / "m.json"),
                               "--model-dir", str(tmp_path / "model")]}[command]
        code, _, err = run(capsys, command, *config, *inputs, "--out", str(tmp_path / "out"))
        assert code == 2
        assert message in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, setting, message", [
        ("synth", 'train.epochs="abc"', "TrainConfig.epochs must be int"),
        ("synth", "localize.nms_tiou=5", "nms_tiou must lie in (0, 1]"),
        ("synth", "model.kernel_size=2", "kernel_size must be odd"),
        ("train", "localize.nms_tiou=5", "nms_tiou must lie in (0, 1]"),
        ("train", "synth.noise=-1", "noise level must be non-negative"),
        ("localize", "train.epochs=0", "epochs must be >= 1"),
    ])
    def test_every_command_checks_every_value(self, tmp_path, capsys, command, setting,
                                              message):
        # a value no stage of the command reads is still checked before any input
        inputs = {"synth": [], "train": ["--manifest", str(tmp_path / "m.json")],
                  "localize": ["--manifest", str(tmp_path / "m.json"),
                               "--model-dir", str(tmp_path / "model")]}[command]
        code, _, err = run(capsys, command, "--set", setting, *inputs,
                           "--out", str(tmp_path / "out"))
        assert code == 2
        assert message in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_unknown_section_rejected(self, tmp_path, capsys):
        code, _, err = run(capsys, "synth", "--out", str(tmp_path / "d"),
                           "--set", "nonsense.key=1")
        assert code != 0

    def test_config_directory_exits_cleanly(self, tmp_path, capsys):
        code, _, err = run(capsys, "synth", "--config", str(tmp_path),
                           "--out", str(tmp_path / "d"))
        assert code == 1
        assert str(tmp_path) in err and "Traceback" not in err

    def test_invalid_json_config_exits_cleanly(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"synth": {"num_train": 2,')
        code, _, err = run(capsys, "synth", "--config", str(cfg),
                           "--out", str(tmp_path / "d"))
        assert code == 2
        assert "cfg.json: not valid JSON" in err and "Traceback" not in err

    @pytest.mark.parametrize("value,key", [('"abc"', "num_train"), ("true", "fps"),
                                           ("[5]", "snippet_range"),
                                           pytest.param("1" * 5000, "seed", id="5000-digits")])
    def test_wrongly_typed_value_exits_cleanly(self, tmp_path, capsys, value, key):
        code, _, err = run(capsys, "synth", "--out", str(tmp_path / "d"),
                           "--set", f"synth.{key}={value}")
        assert code == 2
        assert f"SynthConfig.{key} must be" in err and "Traceback" not in err

    @pytest.mark.parametrize("setting", [
        "synth.fps=0", "synth.fps=-25.0", "synth.snippet_stride=0",
        "synth.feature_dim=-1", "synth.feature_dim=0", "synth.instances_range=[0,0]",
        "synth.snippet_range=[60,100000000000000000000]", "synth.snippet_stride=65536"])
    def test_bad_timing_rejected_before_writing(self, tmp_path, capsys, setting):
        out = tmp_path / "d"
        code, _, err = run(capsys, "synth", "--out", str(out), "--set", setting)
        assert code == 2
        assert setting.split(".")[1].split("=")[0] in err and "Traceback" not in err
        assert not out.exists()

    def test_config_file_and_override(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "config_version": 1,
            "synth": {"num_train": 2, "num_test": 1, "snippet_range": [20, 30]},
        }))
        code, out, _ = run(capsys, "synth", "--config", str(cfg),
                           "--out", str(tmp_path / "d"), "--set", "synth.num_test=2")
        assert code == 0
        assert "4 videos" in out

    def test_config_types_evaluated_once_per_class(self, monkeypatch):
        # build_config reads each config class's field types once per process
        calls = []

        def counting(cls):
            calls.append(cls.__name__)
            return typing.get_type_hints(cls)

        monkeypatch.setattr("wtal.data.get_type_hints", counting)
        _field_types.cache_clear()
        config = str(Path(__file__).resolve().parents[1] / "configs" / "synthetic.json")
        assert load_run_config(config, []) == load_run_config(config, [])
        assert sorted(calls) == sorted(cls.__name__ for cls in CONFIG_SECTIONS.values())


class TestManifestFieldTypes:
    """A manifest field of the wrong JSON type exits 2 from ``wtal eval``,
    naming the field and, for a video's field, the video."""

    @pytest.mark.parametrize("key, value, named", [
        ("classes", 5, "classes"),
        ("classes", [{}], "classes"),
        ("videos", [1], "video #0"),
    ])
    def test_top_level_field(self, dataset_dir, tmp_path, capsys, key, value, named):
        path = dataset_dir / "manifest.json"
        doc = json.loads(path.read_text())
        doc[key] = value
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "eval", "--manifest", str(path),
                           "--detections", str(tmp_path / "absent.csv"))
        assert code == 2
        assert named in err and "Traceback" not in err

    @pytest.mark.parametrize("key, value, named", [
        ("fps", "abc", "fps"),
        ("features", ["features/x.facf"], "features"),
        ("features", {"rgb": 5}, "features"),
        ("labels", 7, "labels"),
        ("ground_truth", 3, "ground_truth"),
        ("id", ["a"], "id"),
        ("snippet_stride", "1e400", "snippet_stride"),
        ("fps", True, "fps"),
        ("fps", "25", "fps"),
        ("fps", 10 ** 400, "fps"),
        ("snippet_stride", 2.7, "snippet_stride"),
        ("snippet_stride", True, "snippet_stride"),
    ])
    def test_video_field(self, dataset_dir, tmp_path, capsys, key, value, named):
        path = dataset_dir / "manifest.json"
        doc = json.loads(path.read_text())
        video_id = doc["videos"][0]["id"]
        doc["videos"][0][key] = value
        path.write_text(json.dumps(doc).replace('"1e400"', "1e400"))  # a JSON number
        code, _, err = run(capsys, "eval", "--manifest", str(path),
                           "--detections", str(tmp_path / "absent.csv"))
        assert code == 2
        assert f"{named} must" in err and "Traceback" not in err
        assert ("video #0" if key == "id" else f"video {video_id}") in err

    def test_frame_count_above_cap(self, dataset_dir, tmp_path, capsys):
        path = dataset_dir / "manifest.json"
        doc = json.loads(path.read_text())
        video_id = doc["videos"][0]["id"]
        doc["videos"][0]["snippet_stride"] = 2 ** 31
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "eval", "--manifest", str(path),
                           "--detections", str(tmp_path / "absent.csv"))
        assert code == 2
        assert f"video {video_id}: " in err and "frames, more than the 1048576 allowed" in err
        assert "Traceback" not in err


CONFIG_CLASSES = {"model": ModelConfig, "train": TrainConfig, "loss": LossWeights,
                  "localize": LocalizeConfig, "synth": SynthConfig}


class TestConfigFuzz:
    """Any JSON value for any config key, from a config file or a ``--set``
    override, builds its section's config or raises a ``wtal.errors`` type.
    No stage runs, so no drawn size generates data."""

    @given(where=st.sampled_from([(section, f.name) for section, cls in CONFIG_CLASSES.items()
                                  for f in fields(cls)]),
           value=JSON_VALUES, as_override=st.booleans())
    @settings(max_examples=400, deadline=None)
    def test_any_value(self, tmp_path_factory, where, value, as_override):
        section, key = where
        path = tmp_path_factory.getbasetemp() / "fuzz_config.json"
        path.write_text(json.dumps({"config_version": 1, section: {key: value}}))
        try:
            if as_override:
                load_run_config(None, [f"{section}.{key}={json.dumps(value)}"])
            else:
                load_run_config(str(path), [])
        except Exception as exc:
            assert type(exc).__module__ == "wtal.errors", repr(exc)


class TestTrain:
    def test_smoke_run_and_artifacts(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "run"
        code, stdout, _ = run(capsys, "train", "--manifest",
                              str(dataset_dir / "manifest.json"),
                              "--out", str(out), *FAST_TRAIN)
        assert code == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "model.npz", "model_history.csv", "model_state.npz"]
        assert "final loss" in stdout

    def test_history_holds_the_epochs_of_each_checkpoint(self, dataset_dir, tmp_path, capsys,
                                                         monkeypatch):
        manifest = str(dataset_dir / "manifest.json")
        out, one = tmp_path / "run", tmp_path / "one"
        save, rows = training.save_checkpoint, {}

        def save_and_count_rows(path, *args):
            if path.name != "model.npz":
                rows[path.name] = len((out / "model_history.csv").read_text().splitlines()) - 1
            save(path, *args)

        monkeypatch.setattr(training, "save_checkpoint", save_and_count_rows)
        code, _, err = run(capsys, "train", "--manifest", manifest, "--out", str(out),
                           *FAST_TRAIN, "--checkpoint-interval", "1")
        assert code == 0, err
        assert rows == {"model_epoch0001.npz": 1, "model_epoch0002.npz": 2,
                        "model_epoch0003.npz": 3}
        assert sorted(p.name for p in out.glob("model_epoch*.npz")) == list(rows)
        assert (out / "model_epoch0003.npz").read_bytes() == (out / "model.npz").read_bytes()
        code, _, err = run(capsys, "train", "--manifest", manifest, "--out", str(one),
                           *FAST_TRAIN, "--set", "train.epochs=1")
        assert code == 0, err
        assert (out / "model_epoch0001.npz").read_bytes() == (one / "model.npz").read_bytes()

    def test_resume_ends_with_the_files_of_an_uninterrupted_run(self, dataset_dir, tmp_path,
                                                                capsys):
        def train(out, *extra):
            code, _, err = run(capsys, "train", "--manifest", str(dataset_dir / "manifest.json"),
                               "--out", str(out), *FAST_TRAIN, *extra)
            assert code == 0, err
            return err

        full, part = tmp_path / "full", tmp_path / "part"
        train(full)
        train(part, "--set", "train.epochs=1")
        for done in (1, 3):  # 3: resuming a finished run
            assert f"resuming at epoch {done}" in train(part, "--resume")
            for name in ("model.npz", "model_history.csv", "model_state.npz"):
                assert (part / name).read_bytes() == (full / name).read_bytes(), name

    def test_reference_hyperparameters_accepted(self, dataset_dir, tmp_path, capsys):
        code, _, err = run(capsys, "train", "--manifest",
                           str(dataset_dir / "manifest.json"),
                           "--out", str(tmp_path / "run"),
                           "--set", "train.learning_rate=0.0001",
                           "--set", "train.epochs=1",
                           "--set", "loss.class_wise=1.0",
                           "--set", "loss.class_agnostic=0.1",
                           "--set", "loss.mil=0.1",
                           "--set", "model.temperatures=[1.0,2.0,5.0]",
                           "--set", "model.delta=5.0",
                           "--set", "model.embed_dims=[16,16]")
        assert code == 0, err

    def test_missing_manifest_fails(self, tmp_path, capsys):
        code, _, err = run(capsys, "train", "--manifest",
                           str(tmp_path / "absent.json"), "--out", str(tmp_path / "r"))
        assert code != 0
        assert err

    def test_invalid_json_manifest_exits_cleanly(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text('{"schema_version": 1, "classes": [')
        code, _, err = run(capsys, "train", "--manifest", str(manifest),
                           "--out", str(tmp_path / "r"))
        assert code == 2
        assert "not valid JSON" in err and "Traceback" not in err

    @pytest.mark.parametrize("content", [b"[1, 2]", b"\xff\xfe\x00"], ids=["list", "binary"])
    def test_manifest_not_a_json_object_exits_cleanly(self, tmp_path, capsys, content):
        manifest = tmp_path / "manifest.json"
        manifest.write_bytes(content)
        code, _, err = run(capsys, "train", "--manifest", str(manifest),
                           "--out", str(tmp_path / "r"))
        assert code == 2
        assert "manifest" in err and "Traceback" not in err

    def test_ground_truth_without_start_exits_cleanly(self, dataset_dir, tmp_path, capsys):
        path = dataset_dir / "manifest.json"
        doc = json.loads(path.read_text())
        video = next(v for v in doc["videos"] if v["ground_truth"])
        del video["ground_truth"][0]["start"]
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "train", "--manifest", str(path),
                           "--out", str(tmp_path / "r"))
        assert code == 2
        assert f"video {video['id']}" in err and "Traceback" not in err

    def test_resume_rejects_old_conv_layout_state(self, trained, dataset_dir, capsys):
        state = trained / "model_state.npz"
        with np.load(state) as data:
            arrays = {k: data[k] for k in data.files}
        for prefix in ("param", "m", "v"):
            w = arrays[f"{prefix}_conv1_w"]
            arrays[f"{prefix}_conv1_w"] = w.reshape(3, -1, w.shape[1]).transpose(2, 1, 0)
        np.savez(state, **arrays)
        code, _, err = run(capsys, "train", "--manifest", str(dataset_dir / "manifest.json"),
                           "--out", str(trained), "--resume", *FAST_TRAIN)
        assert code == 1
        assert "param_conv1_w" in err and "Traceback" not in err

    @pytest.mark.parametrize("corrupt", ["truncated", "garbage"])
    def test_resume_from_corrupt_state_exits_cleanly(self, trained, dataset_dir, capsys,
                                                     corrupt):
        state = trained / "model_state.npz"
        raw = state.read_bytes()
        state.write_bytes(raw[:len(raw) // 2] if corrupt == "truncated" else b"garbage")
        code, _, err = run(capsys, "train", "--manifest", str(dataset_dir / "manifest.json"),
                           "--out", str(trained), "--resume", *FAST_TRAIN)
        assert code == 1
        assert f"{state}: not a training-state archive" in err and "Traceback" not in err

    def test_resume_refuses_another_model_config(self, trained, dataset_dir, capsys):
        before = (trained / "model.npz").read_bytes()
        code, _, err = run(capsys, "train", "--manifest", str(dataset_dir / "manifest.json"),
                           "--out", str(trained), "--resume", *FAST_TRAIN,
                           "--set", "train.epochs=4", "--set", "model.delta=10.0",
                           "--set", "model.temperatures=[1.0]",
                           "--set", "model.dropout_rate=0.0")
        assert code == 1
        assert f"{trained / 'model_state.npz'}: trained with another model config: " \
            "delta 5.0 (this run: 10.0), temperatures (1.0, 2.0, 5.0) (this run: (1.0,)), " \
            "dropout_rate 0.5 (this run: 0.0)" in err and "Traceback" not in err
        assert (trained / "model.npz").read_bytes() == before

    def test_resume_draws_no_initial_parameters(self, trained, dataset_dir, capsys,
                                                monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a resumed run drew initial parameters")

        monkeypatch.setattr("wtal.model.init_params", refuse)
        code, _, err = run(capsys, "train", "--manifest", str(dataset_dir / "manifest.json"),
                           "--out", str(trained), "--resume", *FAST_TRAIN,
                           "--set", "train.epochs=4")
        assert code == 0, err
        assert "resuming at epoch 3" in err

    def test_unlabeled_train_video_exits_before_features_load(self, dataset_dir, tmp_path,
                                                              capsys):
        path = dataset_dir / "manifest.json"
        doc = json.loads(path.read_text())
        video = next(v for v in doc["videos"] if v["split"] == "train")
        video["labels"] = []
        path.write_text(json.dumps(doc))
        feature = dataset_dir / video["features"]["rgb"]  # loading it would fail
        feature.write_bytes(feature.read_bytes()[:-4])
        code, _, err = run(capsys, "train", "--manifest", str(path),
                           "--out", str(tmp_path / "r"))
        assert code == 2
        assert f"video {video['id']}: a train video needs at least one label" in err
        assert "Traceback" not in err

    def test_truncated_payload_ends_epoch_zero_without_artefacts(self, dataset_dir, tmp_path,
                                                                 capsys, monkeypatch):
        # the manifest reads only the headers; the payload is checked when epoch 0
        # reads the video, and the run ends before it writes any file
        path = dataset_dir / "manifest.json"
        feature = parse_manifest(path).split("train")[-1].features["rgb"]
        size = feature.stat().st_size

        def parse_then_truncate(manifest_path):
            manifest = parse_manifest(manifest_path)
            os.truncate(feature, size - 4)
            return manifest

        monkeypatch.setattr("wtal.cli.parse_manifest", parse_then_truncate)
        out = tmp_path / "r"
        argv = ["train", "--manifest", str(path), "--out", str(out), *FAST_TRAIN]
        args = build_parser().parse_args(argv)
        message = f"expected {size - 16} in {feature}"
        with pytest.raises(FormatError, match=re.escape(message) + "$"):
            args.func(args)
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert message + "\n" in err and "Traceback" not in err
        assert list(out.glob("*")) == []

    def test_wrongly_typed_train_value_exits_cleanly(self, dataset_dir, tmp_path, capsys):
        code, _, err = run(capsys, "train", "--manifest", str(dataset_dir / "manifest.json"),
                           "--out", str(tmp_path / "r"), "--set", 'train.epochs="abc"')
        assert code == 2
        assert "TrainConfig.epochs must be int, got 'abc'" in err and "Traceback" not in err

    @pytest.mark.parametrize("override,field", [
        ("train.learning_rate=NaN", "TrainConfig.learning_rate"),
        ("model.delta=NaN", "ModelConfig.delta"),
        ("model.temperatures=[1.0,Infinity]", "ModelConfig.temperatures"),
        ("loss.mil=-Infinity", "LossWeights.mil"),
        pytest.param(f"model.temperatures=[1.0,{10 ** 400}]", "ModelConfig.temperatures",
                     id="int-beyond-float-range")])
    def test_non_finite_config_float_exits_cleanly(self, dataset_dir, tmp_path, capsys,
                                                   override, field):
        code, _, err = run(capsys, "train", "--manifest", str(dataset_dir / "manifest.json"),
                           "--out", str(tmp_path / "r"), "--set", override)
        assert code == 2
        assert f"{field} must be finite" in err and "Traceback" not in err
        assert not (tmp_path / "r" / "model.npz").exists()

    def test_three_epoch_smoke_on_default_dataset_under_a_minute(self, tmp_path, capsys):
        import time
        data = tmp_path / "data"
        code, _, _ = run(capsys, "synth", "--out", str(data))  # full defaults
        assert code == 0
        config = Path(__file__).resolve().parents[1] / "configs" / "synthetic.json"
        started = time.perf_counter()
        code, _, err = run(capsys, "train", "--manifest", str(data / "manifest.json"),
                           "--out", str(tmp_path / "run"), "--config", str(config),
                           "--set", "train.epochs=3")
        assert code == 0, err
        assert time.perf_counter() - started < 60.0


@pytest.fixture
def trained(dataset_dir, tmp_path, capsys):
    out = tmp_path / "run"
    code, _, err = run(capsys, "train", "--manifest", str(dataset_dir / "manifest.json"),
                       "--out", str(out), *FAST_TRAIN)
    assert code == 0, err
    return out


class TestLocalize:
    def test_undertrained_model_emits_valid_files(self, dataset_dir, trained,
                                                  tmp_path, capsys):
        det = tmp_path / "det"
        code, _, err = run(capsys, "localize", "--manifest",
                           str(dataset_dir / "manifest.json"),
                           "--model-dir", str(trained), "--out", str(det))
        assert code == 0, err
        lines = (det / "detections.csv").read_text().splitlines()
        assert lines[0] == "video_id,label,t_start,t_end,score"
        payload = json.loads((det / "detections.json").read_text())
        assert "results" in payload

    def test_score_dump_lengths_match_snippet_counts(self, dataset_dir, trained,
                                                     tmp_path, capsys):
        det = tmp_path / "det"
        dump = tmp_path / "dump"
        code, _, _ = run(capsys, "localize", "--manifest",
                         str(dataset_dir / "manifest.json"),
                         "--model-dir", str(trained), "--out", str(det),
                         "--score-dump", str(dump))
        assert code == 0
        manifest = parse_manifest(dataset_dir / "manifest.json")
        params, config = load_checkpoint(trained / "model.npz")
        videos = manifest.split("test")
        assert sorted(p.name for p in dump.iterdir()) == sorted(
            f"{video.video_id}.tsv" for video in videos)
        for video in videos:
            table = (dump / f"{video.video_id}.tsv").read_text().splitlines()
            assert len(table) - 1 == video.num_snippets
            scores = forward_scores(manifest.video_features(video), params, config)
            expected = np.column_stack([scores.s_f, scores.s_a])
            cells = np.array([[float(c) for c in line.split("\t")] for line in table[1:]])
            assert np.array_equal(cells[:, 0], np.arange(len(cells)))
            assert np.array_equal(cells[:, 1:], expected)

    def test_context_ratio_past_int64_writes_the_bounded_detections(self, dataset_dir, trained,
                                                                    tmp_path, capsys):
        # a context longer than the video reaches both bounds: 1e308, whose
        # ceil(ratio * length) is past int64 and past float64, cuts the windows of 1e6
        written = []
        for ratio in ("1e6", "1e308"):
            det = tmp_path / f"det{ratio}"
            code, _, err = run(capsys, "localize", "--manifest",
                               str(dataset_dir / "manifest.json"), "--model-dir", str(trained),
                               "--out", str(det), "--set", f"localize.context_ratio={ratio}")
            assert code == 0, err
            written.append((det / "detections.csv").read_bytes())
        assert written[0] == written[1] and written[0].count(b"\n") > 1

    def test_float32_inference_matches_float64_reference(self, dataset_dir, trained,
                                                        tmp_path, capsys):
        det = tmp_path / "det"
        code, _, err = run(capsys, "localize", "--manifest",
                           str(dataset_dir / "manifest.json"),
                           "--model-dir", str(trained), "--out", str(det))
        assert code == 0, err
        manifest = parse_manifest(dataset_dir / "manifest.json")
        params, config = load_checkpoint(trained / "model.npz")
        dtypes = []
        table = localize_split(manifest, "test", params.astype(np.float64), config,
                               LocalizeConfig(),
                               lambda sample, scores: dtypes.append(scores.s_a.dtype))
        assert dtypes and all(dtype == np.float64 for dtype in dtypes)
        reference = {(v, c, s, e): q for v, c, q, s, e in table_rows(table)}
        got = {(v, c, s, e): q for v, c, q, s, e in
               table_rows(read_detections(det / "detections.csv", manifest.classes))}
        assert reference and got.keys() == reference.keys()
        assert max(abs(got[k] - reference[k]) for k in got) <= 1e-6

    def test_train_split(self, dataset_dir, trained, tmp_path, capsys):
        manifest = parse_manifest(dataset_dir / "manifest.json")
        train_ids = {entry.video_id for entry in manifest.split("train")}
        det = tmp_path / "det"
        code, stdout, err = run(capsys, "localize", "--manifest",
                                str(dataset_dir / "manifest.json"), "--model-dir", str(trained),
                                "--out", str(det), "--split", "train")
        assert code == 0, err
        assert f"for {len(train_ids)} videos" in stdout
        table = read_detections(det / "detections.csv", manifest.classes)
        assert len(table) and set(table.video_ids) <= train_ids

    @pytest.mark.parametrize("corrupt", ["truncated", "garbage", "nan-delta"])
    def test_bad_checkpoint_exits_cleanly(self, dataset_dir, trained, tmp_path, capsys,
                                          corrupt):
        path = trained / "model.npz"
        raw = path.read_bytes()
        if corrupt == "nan-delta":
            with np.load(path) as data:
                arrays = {k: data[k] for k in data.files}
            doc = json.loads(arrays.pop("config").item())
            np.savez(path, config=json.dumps({**doc, "delta": float("nan")}), **arrays)
        else:
            path.write_bytes(raw[:len(raw) // 2] if corrupt == "truncated" else b"garbage")
        code, _, err = run(capsys, "localize", "--manifest", str(dataset_dir / "manifest.json"),
                           "--model-dir", str(trained), "--out", str(tmp_path / "det"))
        assert code == 1
        assert str(path) in err and "Traceback" not in err
        assert ("ModelConfig.delta must be finite" in err) == (corrupt == "nan-delta")

    def test_feature_dim_mismatch_exits_before_features_load(self, trained, tmp_path, capsys):
        data = tmp_path / "three"
        code, _, err = run(capsys, "synth", "--out", str(data), *SMALL_SYNTH,
                           "--set", 'synth.streams=["rgb","flow","audio"]')
        assert code == 0, err
        manifest = data / "manifest.json"
        for entry in parse_manifest(manifest).split("test"):  # loading them would fail
            path = entry.features["rgb"]
            path.write_bytes(path.read_bytes()[:-4])
        code, _, err = run(capsys, "localize", "--manifest", str(manifest),
                           "--model-dir", str(trained), "--out", str(tmp_path / "det"))
        assert code == 2
        assert f"{trained / 'model.npz'} has 5 classes, feature_dim 64; " \
            f"{manifest} has 5, 192" in err and "Traceback" not in err

    def test_video_without_snippets_skipped(self, dataset_dir, trained, tmp_path, capsys):
        manifest = dataset_dir / "manifest.json"

        def localize(out):
            code, _, err = run(capsys, "localize", "--manifest", str(manifest),
                               "--model-dir", str(trained), "--out", str(out))
            assert code == 0, err
            return table_rows(read_detections(out / "detections.csv",
                                              parse_manifest(manifest).classes))

        before = localize(tmp_path / "before")
        doc = json.loads(manifest.read_text())
        video = next(v for v in doc["videos"] if v["split"] == "test")
        assert any(row[0] == video["id"] for row in before)
        video["ground_truth"] = []  # none fits a video of 0 snippets
        manifest.write_text(json.dumps(doc))
        save_features(dataset_dir / video["features"]["rgb"], np.zeros((0, 64), np.float32))
        assert localize(tmp_path / "after") == [row for row in before if row[0] != video["id"]]

    @pytest.mark.parametrize("video_id", ["../escaped_video_0004", "sub/video_0004",
                                          "video\0_0004"])
    def test_score_dump_rejects_a_video_id_that_is_no_file_name(self, dataset_dir, trained,
                                                                tmp_path, capsys, video_id):
        manifest = dataset_dir / "manifest.json"
        doc = json.loads(manifest.read_text())
        [v for v in doc["videos"] if v["split"] == "test"][-1]["id"] = video_id
        manifest.write_text(json.dumps(doc))
        before = sorted(tmp_path.rglob("*"))
        code, _, err = run(capsys, "localize", "--manifest", str(manifest),
                           "--model-dir", str(trained), "--out", str(tmp_path / "det"),
                           "--score-dump", str(tmp_path / "dumps" / "dir"))
        assert code == 1
        assert f"video {video_id!r}" in err and "Traceback" not in err
        # rejected before the first forward pass: no score dump, in DIR or outside it
        assert sorted(tmp_path.rglob("*")) == before

    def test_localize_split_reads_one_video_at_a_time(self, tmp_path, monkeypatch):
        # each stream of each test video with snippets is read once, in manifest
        # order; a video of 0 snippets is skipped before any of its files is read
        config = SynthConfig(num_train=1, num_test=3, snippet_range=(20, 30), feature_dim=8,
                             streams=("rgb", "flow"), seed=2)
        path = generate_synthetic(config, tmp_path)
        doc = json.loads(path.read_text())
        empty = [v for v in doc["videos"] if v["split"] == "test"][1]
        empty["ground_truth"] = []
        for rel in empty["features"].values():
            save_features(tmp_path / rel, np.zeros((0, 8), np.float32))
        path.write_text(json.dumps(doc))
        manifest = parse_manifest(path)
        model = ModelConfig(num_classes=5, feature_dim=16, embed_dims=(8, 8))
        read, scored = [], []

        def counting(file):
            read.append(file)
            return load_features(file)

        monkeypatch.setattr("wtal.data.load_features", counting)
        localize_split(manifest, "test", init_params(model, seed=0), model, LocalizeConfig(),
                       lambda video, scores: scored.append(video.video_id))
        videos = [v for v in manifest.split("test") if v.video_id != empty["id"]]
        assert read == [v.features[s] for v in videos for s in ("flow", "rgb")]
        assert scored == [v.video_id for v in videos] and len(scored) == 2

    def test_rejection_threshold_above_one_empties_output(self, dataset_dir, trained,
                                                          tmp_path, capsys):
        det = tmp_path / "det"
        code, stdout, _ = run(capsys, "localize", "--manifest",
                              str(dataset_dir / "manifest.json"),
                              "--model-dir", str(trained), "--out", str(det),
                              "--set", "localize.class_reject_threshold=1.1")
        assert code == 0
        assert stdout.startswith("0 detections")
        assert len((det / "detections.csv").read_text().splitlines()) == 1


class TestEval:
    def gt_detections(self, dataset_dir, tmp_path, split="test"):
        manifest = parse_manifest(dataset_dir / "manifest.json")
        rows = ["video_id,label,t_start,t_end,score"]
        for entry in manifest.split(split):
            for gt in entry.ground_truth:
                rows.append(f"{entry.video_id},{manifest.classes[gt.class_id]},{gt.start},"
                            f"{gt.end},1.0")
        path = tmp_path / "gt_dets.csv"
        path.write_text("\n".join(rows) + "\n")
        return path

    def test_ground_truth_as_predictions_scores_one(self, dataset_dir, tmp_path, capsys):
        dets = self.gt_detections(dataset_dir, tmp_path)
        code, out, _ = run(capsys, "eval", "--detections", str(dets),
                           "--manifest", str(dataset_dir / "manifest.json"))
        assert code == 0
        map_line = [l for l in out.splitlines() if l.startswith("mAP")][0]
        assert set(map_line.split()[1:]) == {"1.000"}

    def test_train_split(self, dataset_dir, tmp_path, capsys):
        dets = self.gt_detections(dataset_dir, tmp_path, split="train")
        for split, expected in (("train", "1.000"), ("test", "0.000")):
            code, out, _ = run(capsys, "eval", "--detections", str(dets), "--split", split,
                               "--manifest", str(dataset_dir / "manifest.json"))
            assert code == 0
            map_line = [l for l in out.splitlines() if l.startswith("mAP")][0]
            assert set(map_line.split()[1:]) == {expected}

    def test_empty_detections_score_zero(self, dataset_dir, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("video_id,label,t_start,t_end,score\n")
        code, out, _ = run(capsys, "eval", "--detections", str(path),
                           "--manifest", str(dataset_dir / "manifest.json"))
        assert code == 0
        map_line = [l for l in out.splitlines() if l.startswith("mAP")][0]
        assert set(map_line.split()[1:]) == {"0.000"}

    @pytest.mark.parametrize("suffix", [".csv", ".json"])
    def test_unknown_label_exits_cleanly(self, dataset_dir, tmp_path, capsys, suffix):
        path = tmp_path / f"dets{suffix}"
        if suffix == ".csv":
            path.write_text("video_id,label,t_start,t_end,score\n"
                            "video_0000,no_such_class,0.0,1.0,0.5\n")
        else:
            path.write_text(json.dumps({"results": {"video_0000": [
                {"label": "no_such_class", "score": 0.5, "segment": [0.0, 1.0]}]}}))
        code, _, err = run(capsys, "eval", "--detections", str(path),
                           "--manifest", str(dataset_dir / "manifest.json"))
        assert code == 1
        assert "no_such_class" in err and "Traceback" not in err

    @pytest.mark.parametrize("suffix", [".csv", ".json"])
    def test_non_finite_score_exits_cleanly(self, dataset_dir, tmp_path, capsys, suffix):
        manifest = parse_manifest(dataset_dir / "manifest.json")
        label = manifest.classes[0]
        path = tmp_path / f"dets{suffix}"
        if suffix == ".csv":
            path.write_text("video_id,label,t_start,t_end,score\n"
                            f"video_0000,{label},0.0,1.0,nan\n")
        else:
            path.write_text('{"results": {"video_0000": [{"label": "%s", "score": NaN, '
                            '"segment": [0.0, 1.0]}]}}' % label)
        code, _, err = run(capsys, "eval", "--detections", str(path),
                           "--manifest", str(dataset_dir / "manifest.json"))
        assert code == 1
        assert "video_0000" in err and "non-finite" in err and "Traceback" not in err

    @pytest.mark.parametrize("name,text,named", [
        ("score.csv", "video_id,label,t_start,t_end,score\n"
                      "video_0000,{label},0.0,1.0,abc\n", "video_0000"),
        ("columns.csv", "video_id,label,t_start\nvideo_0000,{label},0.0\n", "t_end, score"),
        ("no_segment.json", '{{"results": {{"video_0000": '
                            '[{{"label": "{label}", "score": 0.5}}]}}}}', "video_0000"),
        ("short_segment.json", '{{"results": {{"video_0000": [{{"label": "{label}", '
                               '"score": 0.5, "segment": [0.0]}}]}}}}', "video_0000"),
        ("truncated.json", '{{"results": {{"video_0000": [{{"label": "{label}", "sco',
         "not valid JSON"),
        ("short_row.csv", "label,t_start,t_end,score,video_id\n{label},0.0,1.0,0.5\n"
                          "{label},2.0,3.0,0.5,video_0000\n", "no video_id"),
    ], ids=["csv_score", "csv_columns", "json_no_segment", "json_short_segment",
            "json_truncated", "csv_no_video_id"])
    def test_malformed_detections_exit_cleanly(self, dataset_dir, tmp_path, capsys,
                                               name, text, named):
        label = parse_manifest(dataset_dir / "manifest.json").classes[0]
        path = tmp_path / name
        path.write_text(text.format(label=label))
        code, _, err = run(capsys, "eval", "--detections", str(path),
                           "--manifest", str(dataset_dir / "manifest.json"))
        assert code == 1
        assert name in err and named in err and "Traceback" not in err

    @pytest.mark.parametrize("which", ["--detections", "--manifest"])
    def test_directory_argument_exits_cleanly(self, dataset_dir, tmp_path, capsys, which):
        paths = {"--detections": str(self.gt_detections(dataset_dir, tmp_path)),
                 "--manifest": str(dataset_dir / "manifest.json"), which: str(tmp_path)}
        code, _, err = run(capsys, "eval", *(a for item in paths.items() for a in item))
        assert code == 1
        assert str(tmp_path) in err and "Traceback" not in err

    def test_grid_selection(self, dataset_dir, tmp_path, capsys):
        dets = self.gt_detections(dataset_dir, tmp_path)
        report_path = tmp_path / "report.json"
        code, _, _ = run(capsys, "eval", "--detections", str(dets),
                         "--manifest", str(dataset_dir / "manifest.json"),
                         "--grid", "activitynet", "--out", str(report_path))
        assert code == 0
        payload = json.loads(report_path.read_text())
        assert payload["thresholds"][0] == 0.5
        assert len(payload["thresholds"]) == 10


class TestGradcheck:
    def test_clean_engine_passes(self, capsys):
        code, out, _ = run(capsys, "gradcheck", "--instances", "3", "--seed", "0")
        assert code == 0
        assert "worst over 3 instances" in out
        assert "conv" in out or "w_" in out  # worst parameter named

    def test_injected_bug_detected(self, capsys):
        code, _, err = run(capsys, "gradcheck", "--instances", "2", "--inject-bug")
        assert code != 0
        assert "failed tolerance" in err

    def test_tiny_tolerance_fails_the_clean_engine(self, capsys):
        code, _, err = run(capsys, "gradcheck", "--instances", "2", "--tolerance", "1e-300")
        assert code == 1
        assert "failed tolerance 1e-300" in err


@pytest.mark.parametrize("argv, message", [
    (["gradcheck", "--instances", "0"], "--instances >= 1"),
    (["gradcheck", "--seed", "-1"], "--seed >= 0"),
    (["gradcheck", "--inject-bug", "--instances", "2", "--tolerance", "nan"],
     "positive, finite --tolerance"),
    (["gradcheck", "--tolerance", "inf"], "positive, finite --tolerance"),
    (["gradcheck", "--tolerance", "0"], "positive, finite --tolerance"),
    (["train", "--checkpoint-interval", "-1"], "--checkpoint-interval must be >= 0"),
    (["convert", "--t", "-1", "--d", "0"], "T and D must lie in [0, 2**32), got -1x0"),
    (["convert", "--t", "4294967296", "--d", "0"], "must lie in [0, 2**32)"),
    (["convert", "--t", "0", "--d", "4294967296"], "must lie in [0, 2**32)"),
], ids=["gradcheck-no-instances", "gradcheck-negative-seed", "gradcheck-nan-tolerance",
        "gradcheck-infinite-tolerance", "gradcheck-zero-tolerance",
        "train-negative-checkpoint-interval", "convert-negative-t", "convert-t-beyond-u32",
        "convert-d-beyond-u32"])
def test_out_of_range_argument_exits_2_before_any_work(request, tmp_path, capsys, argv,
                                                       message):
    out = tmp_path / "out"
    if argv[0] == "train":  # a valid run in every other respect
        manifest = request.getfixturevalue("dataset_dir") / "manifest.json"
        argv = [*argv, "--manifest", str(manifest), "--out", str(out), *FAST_TRAIN]
    elif argv[0] == "convert":  # the empty blob of a 0-snippet or 0-wide file
        (tmp_path / "raw.bin").write_bytes(b"")
        argv = [*argv, "--input", str(tmp_path / "raw.bin"), "--output", str(out)]
    code, stdout, err = run(capsys, *argv)
    assert code == 2
    assert message in err and "Traceback" not in err
    assert stdout == "" and not out.exists()


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="tunes the glibc allocator")
def test_training_reuses_freed_heap_without_page_faults(tmp_path):
    # each video's tape is freed before the next is recorded; once `wtal train`
    # keeps freed memory on the heap, later epochs fault no pages in (about
    # 2,200 a epoch at this shape with glibc's default trimming)
    probe = textwrap.dedent("""\
        import resource
        import numpy as np
        from wtal.cli import _keep_freed_heap
        from wtal.data import VideoSample
        from wtal.losses import LossWeights
        from wtal.model import ModelConfig, init_params
        from wtal.training import TrainConfig, init_optimizer, train_epoch

        _keep_freed_heap()
        config = ModelConfig(num_classes=3, feature_dim=64, embed_dims=(128, 128))
        rng = np.random.default_rng(0)
        dataset = [VideoSample(rng.normal(size=(150, 64)).astype(np.float32),
                               np.array([1.0, 0.0, 1.0])) for _ in range(8)]
        params = init_params(config, seed=0, dtype=np.float32)
        state = init_optimizer(params)
        for epoch in range(3):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            train_epoch(dataset, params, state, config, LossWeights(),
                        TrainConfig(batch_size=4), epoch)
            print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        """)
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env=env, cwd=tmp_path, timeout=120)
    assert result.returncode == 0, result.stderr
    faults = [int(line) for line in result.stdout.split()]
    assert max(faults[1:]) < 100, faults


@pytest.mark.skipif(sys.platform == "win32", reason="caps the address space with setrlimit")
@pytest.mark.parametrize("width, payload, embed", [(2 ** 32 - 1, b"", 4),
                                                   (2, bytes(8), 2 ** 32 - 1)],
                         ids=["feature-header", "embed-dims"])
def test_allocation_that_cannot_be_made_exits_1_without_traceback(tmp_path, width, payload,
                                                                   embed):
    # the manifest reads only the feature headers, so a header that claims
    # 2**32 - 1 columns over no payload reaches init_params, as does a 2**32 - 1
    # wide embedding; their weights (TiB) cannot be allocated. The child's
    # address space is capped, so the allocation fails whatever the kernel's
    # overcommit policy.
    (tmp_path / "v.facf").write_bytes(b"FACF" + struct.pack("<III", 1, 1, width) + payload)
    (tmp_path / "manifest.json").write_text(json.dumps({
        "schema_version": 1, "classes": ["a"],
        "videos": [{"id": "v", "split": "train", "fps": 25.0, "snippet_stride": 16,
                    "features": {"rgb": "v.facf"}, "labels": ["a"]}]}))
    probe = textwrap.dedent("""\
        import resource, sys
        resource.setrlimit(resource.RLIMIT_AS, (1 << 31, 1 << 31))
        from wtal.cli import main
        sys.exit(main(sys.argv[1:]))
        """)
    argv = ["train", "--manifest", str(tmp_path / "manifest.json"), "--out",
            str(tmp_path / "run"), "--set", f"model.embed_dims=[{embed},{embed}]"]
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src"),
           "OPENBLAS_NUM_THREADS": "1"}
    result = subprocess.run([sys.executable, "-c", probe, *argv], capture_output=True,
                            text=True, env=env, cwd=tmp_path, timeout=120)
    assert result.returncode == 1, result.stderr
    assert result.stderr.startswith("error: Unable to allocate")
    assert "Traceback" not in result.stderr and result.stdout == ""


@pytest.mark.parametrize("command, width", [("train", 32), ("localize", 32), ("train", 0),
                                            ("localize", 0)],
                         ids=["train", "localize", "train-zero-width", "localize-zero-width"])
def test_stream_width_mismatch_exits_before_features_load(dataset_dir, trained, tmp_path,
                                                          capsys, command, width):
    manifest = dataset_dir / "manifest.json"
    videos = parse_manifest(manifest).videos
    for entry in videos:  # loading any of them would fail
        path = entry.features["rgb"]
        path.write_bytes(path.read_bytes()[:-4])
    narrow = videos[-1]
    save_features(narrow.features["rgb"], np.zeros((narrow.num_snippets, width), np.float32))
    model = ["--model-dir", str(trained)] if command == "localize" else []
    code, _, err = run(capsys, command, "--manifest", str(manifest), *model,
                       "--out", str(tmp_path / "out"))
    assert code == 2
    assert f"video {narrow.video_id}: stream rgb has feature width {width}" + \
        (f", but 64 in video {videos[0].video_id}" if width else "\n") in err
    assert "Traceback" not in err


def test_three_stream_manifest_runs_end_to_end(tmp_path, capsys):
    data, out, det = tmp_path / "data", tmp_path / "run", tmp_path / "det"
    manifest = str(data / "manifest.json")
    stages = [
        ["synth", "--out", str(data), *SMALL_SYNTH,
         "--set", 'synth.streams=["rgb","flow","audio"]'],
        ["train", "--manifest", manifest, "--out", str(out), *FAST_TRAIN],
        ["localize", "--manifest", manifest, "--model-dir", str(out), "--out", str(det)],
        ["eval", "--manifest", manifest, "--detections", str(det / "detections.csv")],
    ]
    for argv in stages:
        code, _, err = run(capsys, *argv)
        assert code == 0, (argv[0], err)
    assert parse_manifest(manifest).streams == ("audio", "flow", "rgb")
    assert sorted(p.name for p in out.iterdir()) == [
        "model.npz", "model_history.csv", "model_state.npz"]
    _, config = load_checkpoint(out / "model.npz")
    assert config.feature_dim == 3 * SynthConfig().feature_dim


class TestConvert:
    def test_convert_round_trip(self, tmp_path, capsys, rng):
        data = rng.normal(size=(7, 5)).astype("<f4")
        raw = tmp_path / "raw.bin"
        raw.write_bytes(data.tobytes())
        out = tmp_path / "out.facf"
        code, stdout, _ = run(capsys, "convert", "--input", str(raw), "--t", "7",
                              "--d", "5", "--output", str(out))
        assert code == 0
        assert np.array_equal(load_features(out), data)
