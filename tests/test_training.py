import json
import pickle
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wtal import autodiff as ad
from wtal import training as tr
from wtal.data import (SynthConfig, VideoSample, VideoSplit, generate_synthetic, load_features,
                       parse_manifest, save_features)
from wtal.errors import ConfigError, ContractError, FormatError
from wtal.losses import LossWeights, total_loss
from wtal.model import ModelConfig, init_params, run_forward
from wtal.training import (NonFiniteGradientError, TrainConfig,
                           adam_step, fit, init_optimizer, load_train_state,
                           save_train_state, train_epoch, write_history)

from conftest import gradients, tiny_config, tiny_model
from oracles import adam_reference


def toy_dataset(rng, n=6, num_classes=3, dim=6, t_range=(3, 9)):
    samples = []
    for i in range(n):
        t = int(rng.integers(*t_range))
        y = np.zeros(num_classes)
        y[rng.permutation(num_classes)[: int(rng.integers(1, num_classes))]] = 1.0
        samples.append(VideoSample(features=rng.normal(size=(t, dim)), labels=y))
    return samples


class TestAdamStep:
    def make(self, value):
        config, params = tiny_model()
        tensors = params.as_dict()
        for k in tensors:
            tensors[k][:] = value
        return params, init_optimizer(params)

    def test_zero_gradient_keeps_params_and_decays_moments(self):
        params, state = self.make(1.5)
        before = {k: v.copy() for k, v in params.as_dict().items()}
        zero = {k: np.zeros_like(v) for k, v in params.as_dict().items()}
        adam_step(params, zero, state, TrainConfig(learning_rate=0.1))
        for k, v in params.as_dict().items():
            assert np.array_equal(v, before[k])
        # after a real step, zero-gradient steps shrink the moments geometrically
        grads = {k: np.full_like(v, 4.0) for k, v in params.as_dict().items()}
        adam_step(params, grads, state, TrainConfig(learning_rate=0.1))
        m_before = state.m["w_fore"].copy()
        v_before = state.v["w_fore"].copy()
        adam_step(params, zero, state, TrainConfig(learning_rate=0.1))
        assert np.allclose(state.m["w_fore"], 0.9 * m_before, atol=1e-15)
        assert np.allclose(state.v["w_fore"], 0.999 * v_before, atol=1e-15)

    def test_first_step_is_roughly_lr_times_sign(self):
        params, state = self.make(1.0)
        grads = {k: np.full_like(v, 4.0) for k, v in params.as_dict().items()}
        adam_step(params, grads, state, TrainConfig(learning_rate=0.1))
        delta = params.w_fore[0] - 1.0
        assert delta == pytest.approx(-0.1, abs=1e-8)
        assert state.step == 1

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_equal_to_out_of_place_formula(self, rng, dtype):
        config, params = tiny_model()
        params = params.astype(dtype)
        tc = TrainConfig(learning_rate=0.01)
        state = init_optimizer(params)
        ref_params = {k: v.copy() for k, v in params.as_dict().items()}
        ref_m = {k: np.zeros_like(v) for k, v in ref_params.items()}
        ref_v = {k: np.zeros_like(v) for k, v in ref_params.items()}
        for step in range(1, 4):
            grads = {k: rng.normal(size=v.shape).astype(dtype)
                     for k, v in ref_params.items()}
            frozen = {k: g.copy() for k, g in grads.items()}
            adam_step(params, grads, state, tc)
            for k, g in frozen.items():
                assert np.array_equal(grads[k], g)
                ref_m[k] = tc.beta1 * ref_m[k] + (1 - tc.beta1) * g
                ref_v[k] = tc.beta2 * ref_v[k] + (1 - tc.beta2) * g * g
                m_hat = ref_m[k] / (1.0 - tc.beta1 ** step)
                v_hat = ref_v[k] / (1.0 - tc.beta2 ** step)
                ref_params[k] -= tc.learning_rate * m_hat / (np.sqrt(v_hat) + tc.adam_eps)
                assert np.array_equal(state.m[k], ref_m[k])
                assert np.array_equal(state.v[k], ref_v[k])
                assert np.array_equal(getattr(params, k), ref_params[k])
                assert getattr(params, k).dtype == dtype

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_equal_to_allocating_reference(self, rng, dtype):
        # gradients mix normal values with exact zeros and subnormals
        config, params = tiny_model()
        params = params.astype(dtype)
        tc = TrainConfig(learning_rate=0.01)
        state = init_optimizer(params)
        ref_params = {k: v.copy() for k, v in params.as_dict().items()}
        ref_m = {k: np.zeros_like(v) for k, v in ref_params.items()}
        ref_v = {k: np.zeros_like(v) for k, v in ref_params.items()}
        tiny = np.finfo(dtype).smallest_subnormal
        for step in range(1, 6):
            grads = {}
            for k, v in ref_params.items():
                g = rng.normal(size=v.shape).astype(dtype)
                kind = rng.integers(0, 3, size=v.shape)
                g[kind == 1] = 0.0
                g[kind == 2] = (tiny * rng.integers(-1000, 1000, size=v.shape)[kind == 2]
                                ).astype(dtype)
                grads[k] = g
            frozen = {k: g.copy() for k, g in grads.items()}
            adam_step(params, grads, state, tc)
            adam_reference(ref_params, frozen, ref_m, ref_v, step, tc)
            for k, g in frozen.items():
                assert np.array_equal(grads[k], g)
                assert np.array_equal(state.m[k], ref_m[k])
                assert np.array_equal(state.v[k], ref_v[k])
                assert np.array_equal(getattr(params, k), ref_params[k])
                assert getattr(params, k).dtype == dtype

    def test_identical_gradients_identical_updates(self):
        params, state = self.make(0.5)
        grads = {k: np.full_like(v, -2.0) for k, v in params.as_dict().items()}
        adam_step(params, grads, state, TrainConfig(learning_rate=0.01))
        flat = np.concatenate([v.ravel() for v in params.as_dict().values()])
        assert np.allclose(flat, flat[0], atol=1e-15)

    def test_peak_traced_memory_within_two_of_the_largest_tensor(self, rng):
        # each tensor's update and denominator are one temporary of its size each
        config = tiny_config(feature_dim=256, embed_dims=(256, 256))
        params = init_params(config, seed=0, dtype=np.float32)
        grads = {k: rng.normal(size=v.shape).astype(np.float32)
                 for k, v in params.as_dict().items()}
        state = init_optimizer(params)
        adam_step(params, grads, state, TrainConfig())
        largest = max(v.nbytes for v in params.as_dict().values())
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            adam_step(params, grads, state, TrainConfig())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base <= 2 * largest + 64 * 1024


class TestTrainEpoch:
    def test_batch_size_one_steps_once_per_video(self, rng):
        config, params = tiny_model()
        dataset = toy_dataset(rng)
        state = init_optimizer(params)
        tc = TrainConfig(batch_size=1, precision=64, seed=1)
        train_epoch(dataset, params, state, config, LossWeights(), tc, epoch=0)
        assert state.step == len(dataset)

    def test_zero_snippet_video_skipped_with_count(self, rng):
        config, params = tiny_model()
        dataset = toy_dataset(rng, n=4)
        dataset[2] = VideoSample(np.zeros((0, 6)), np.array([1.0, 0, 0]))
        state = init_optimizer(params)
        report = train_epoch(dataset, params, state, config, LossWeights(),
                             TrainConfig(precision=64, seed=1), epoch=0)
        assert report.skipped == 1
        assert report.num_videos == 3

    def test_accumulated_step_equals_step_on_mean_gradient(self, rng):
        config, _ = tiny_model()
        dataset = toy_dataset(rng, n=3)
        tc = TrainConfig(batch_size=3, precision=64, seed=5)
        params_a = init_params(config, seed=2, dtype=np.float64)
        params_b = params_a.astype(np.float64)  # astype copies
        state_a = init_optimizer(params_a)
        train_epoch(dataset, params_a, state_a, config, LossWeights(), tc, epoch=0)

        order = np.random.default_rng(tr._video_seed(tc.seed, 0, -1)).permutation(3)
        acc = {}
        for idx in order:
            sample = dataset[idx]
            seed = tr._video_seed(tc.seed, 0, int(idx))
            tape, out = run_forward(sample.features.astype(np.float64), params_b,
                                    config, dropout_seed=seed.spawn(1)[0])
            loss_ref, _ = total_loss(tape, out, sample.labels, LossWeights(), True)
            for name, g in gradients(tape, loss_ref).items():
                acc[name] = acc.get(name, 0) + g
        mean = {k: v / 3 for k, v in acc.items()}
        state_b = init_optimizer(params_b)
        adam_step(params_b, mean, state_b, tc)
        for name, tensor in params_a.as_dict().items():
            assert np.allclose(tensor, getattr(params_b, name), atol=1e-12)

    def test_seeded_runs_reproduce_loss_trajectory(self, rng, tmp_path):
        config, _ = tiny_model()
        dataset = toy_dataset(rng)

        def run():
            params = init_params(config, seed=4, dtype=np.float64)
            tc = TrainConfig(epochs=3, batch_size=2, precision=64, seed=9)
            return [r.losses["total"] for r in
                    fit(dataset, params, config, LossWeights(), tc, tmp_path)]

        assert run() == run()

    @staticmethod
    def epoch_with_nan_in(rng, monkeypatch, name, match):
        """One epoch of two videos in one batch, its backward leaving NaN in the
        accumulated gradient of ``name``: it must stop with an error matching
        ``match`` before any Adam step."""
        config, params = tiny_model()
        before = {k: v.copy() for k, v in params.as_dict().items()}
        original = ad.backward

        def poisoned(tape, loss_ref, into, corrupt_op=None):
            original(tape, loss_ref, into, corrupt_op)
            into[name] *= np.nan

        monkeypatch.setattr(tr.ad, "backward", poisoned)
        with pytest.raises(NonFiniteGradientError, match=match):
            train_epoch(toy_dataset(rng, n=2), params, init_optimizer(params), config,
                        LossWeights(), TrainConfig(precision=64, seed=0), epoch=0)
        for k, v in params.as_dict().items():
            assert v.tobytes() == before[k].tobytes(), k

    def test_non_finite_gradient_aborts_with_parameter_name(self, rng, monkeypatch):
        self.epoch_with_nan_in(rng, monkeypatch, "conv2_w", "conv2_w.*training stopped")

    def test_non_finite_gradient_of_the_last_parameter_is_named(self, rng, monkeypatch):
        # the batch check walks ModelParams order; only w_fore, the last, is poisoned
        self.epoch_with_nan_in(rng, monkeypatch, "w_fore", "'w_fore'.*training stopped")

    def test_peak_traced_memory_within_budget(self):
        # Parameters dominate at this shape (1.58 MB in float32). Peak traced
        # allocation over one epoch: 7.16 MB when the conv windows stayed on the
        # tape, every adjoint lived until backward returned and each batch and
        # Adam step allocated fresh arrays; 3.71 MB without those copies.
        config = tiny_config(feature_dim=256, embed_dims=(256, 256))
        rng = np.random.default_rng(0)
        dataset = [VideoSample(rng.normal(size=(32, 256)).astype(np.float32),
                               np.array([1.0, 0.0, 1.0])) for _ in range(4)]
        params = init_params(config, seed=0, dtype=np.float32)
        state = init_optimizer(params)
        tc = TrainConfig(batch_size=4, seed=0)
        train_epoch(dataset, params, state, config, LossWeights(), tc, epoch=0)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            train_epoch(dataset, params, state, config, LossWeights(), tc, epoch=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - base) / 1e6 < 5.4

    def test_peak_traced_memory_does_not_grow_with_the_split(self, tmp_path):
        # the features dominate at this shape (512 KB a video; kernel 1 and 4-wide
        # embeddings keep the tape small): a split read into one list before the
        # epoch would add the features of 12 more videos to the peak
        def peak(num_train):
            manifest = parse_manifest(generate_synthetic(SynthConfig(
                num_train=num_train, num_test=0, feature_dim=256, snippet_range=(500, 500),
                seed=1), tmp_path / str(num_train)))
            config = ModelConfig(num_classes=5, feature_dim=256, embed_dims=(4, 4),
                                 kernel_size=1)
            params = init_params(config, seed=0, dtype=np.float32)
            state = init_optimizer(params)
            tracemalloc.start()
            try:
                dataset = VideoSplit(manifest, manifest.split("train"))
                train_epoch(dataset, params, state, config, LossWeights(),
                            TrainConfig(batch_size=4, seed=0), epoch=0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(16) - peak(4) < 500 * 256 * 4

    def test_empty_dataset_rejected(self, rng):
        config, params = tiny_model()
        with pytest.raises(ConfigError):
            train_epoch([], params, init_optimizer(params), config, LossWeights(),
                        TrainConfig(), epoch=0)


class TestFit:
    def test_zero_epochs_forbidden(self):
        with pytest.raises(ConfigError):
            TrainConfig(epochs=0)

    @pytest.mark.parametrize("eps", [0.0, -1.0])
    def test_non_positive_adam_eps_forbidden(self, eps):
        # eps 0 divides by zero at the first zero gradient and turns parameters NaN
        with pytest.raises(ConfigError, match="adam_eps must be positive"):
            TrainConfig(adam_eps=eps)

    def test_long_schedule_accepted(self):
        tc = TrainConfig(learning_rate=0.0001, epochs=100)
        assert tc.learning_rate == 0.0001 and tc.epochs == 100

    def test_history_written_with_header(self, rng, tmp_path):
        config, params = tiny_model()
        dataset = toy_dataset(rng, n=3)
        tc = TrainConfig(epochs=2, batch_size=2, precision=64, seed=1)
        fit(dataset, params, config, LossWeights(), tc, out_dir=tmp_path)
        lines = (tmp_path / "model_history.csv").read_text().splitlines()
        assert lines[0] == "epoch,loss_class_wise,loss_class_agnostic,loss_mil,loss_total"
        assert len(lines) == 3

    def test_params_of_another_dtype_rejected(self, rng, tmp_path):
        config, params = tiny_model()  # float64
        with pytest.raises(ContractError, match="conv1_w is float64.*expected float32"):
            fit(toy_dataset(rng, n=2), params, config, LossWeights(),
                TrainConfig(epochs=1, precision=32), tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_failed_history_write_keeps_previous_file(self, tmp_path):
        class Unprintable(float):
            def __repr__(self):
                raise RuntimeError("cannot format")

        path = tmp_path / "model_history.csv"
        losses = dict(zip(tr.LOSS_KEYS, (1.0, 0.5, 0.25, 1.75)))
        report = tr.EpochReport(losses, num_videos=3, skipped=0)
        write_history(path, [report])
        before = path.read_bytes()
        broken = tr.EpochReport({**losses, "total": Unprintable(1.5)}, num_videos=3, skipped=0)
        with pytest.raises(RuntimeError):
            write_history(path, [broken, report])
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model_history.csv"]

    def test_resume_reproduces_next_epoch_bit_identically(self, rng, tmp_path):
        config, _ = tiny_model()
        dataset = toy_dataset(rng)
        tc = TrainConfig(epochs=2, batch_size=2, precision=64, seed=6)

        full_params = init_params(config, seed=3, dtype=np.float64)
        full = fit(dataset, full_params, config, LossWeights(), tc, tmp_path)

        part = tmp_path / "part"
        part.mkdir()
        fit(dataset, init_params(config, seed=3, dtype=np.float64), config, LossWeights(),
            TrainConfig(epochs=1, batch_size=2, precision=64, seed=6), out_dir=part)
        resumed_params, state, history = load_train_state(
            part / "model_state.npz", config, tc)
        assert history == full[:1]
        resumed = fit(dataset, resumed_params, config, LossWeights(), tc, tmp_path,
                      state=state, history=history)
        assert resumed == full
        for name, tensor in full_params.as_dict().items():  # both trained in place
            assert np.array_equal(tensor, getattr(resumed_params, name))

    def test_max_snippet_subsampling(self, rng, tmp_path):
        config, params = tiny_model()
        dataset = toy_dataset(rng, n=2, t_range=(20, 30))
        tc = TrainConfig(epochs=1, batch_size=1, precision=64, seed=2, max_snippets=5)
        history = fit(dataset, params, config, LossWeights(), tc, tmp_path)
        assert history[0].num_videos == 2

    def test_split_read_once_per_epoch_in_shuffled_order(self, tmp_path, monkeypatch):
        # fit over a VideoSplit reads each stream of each video once an epoch, as the
        # epoch's shuffled order reaches it, and trains the bits it trains over a list
        manifest = parse_manifest(generate_synthetic(SynthConfig(
            num_classes=3, num_train=5, num_test=1, feature_dim=8, snippet_range=(20, 30),
            streams=("rgb", "flow"), seed=4), tmp_path / "data"))
        config = ModelConfig(num_classes=3, feature_dim=16, embed_dims=(8, 8))
        tc = TrainConfig(epochs=3, batch_size=2, seed=6, max_snippets=25)
        in_memory = init_params(config, seed=0, dtype=np.float32)
        split = VideoSplit(manifest, manifest.split("train"))
        fit(list(split), in_memory, config, LossWeights(), tc, tmp_path)
        read = []

        def counting(path):
            read.append(path)
            return load_features(path)

        monkeypatch.setattr("wtal.data.load_features", counting)
        streamed = init_params(config, seed=0, dtype=np.float32)
        fit(split, streamed, config, LossWeights(), tc, tmp_path)
        videos = manifest.split("train")
        orders = [np.random.default_rng(tr._video_seed(tc.seed, epoch, -1)).permutation(5)
                  for epoch in range(tc.epochs)]
        assert read == [videos[i].features[s] for order in orders for i in order
                        for s in manifest.streams]
        for name, tensor in in_memory.as_dict().items():
            assert tensor.tobytes() == getattr(streamed, name).tobytes(), name

    def test_empty_video_skipped_without_reading_its_files(self, tmp_path, monkeypatch):
        # a video of 0 snippets is skipped on its manifest entry in every epoch
        path = generate_synthetic(SynthConfig(
            num_classes=3, num_train=4, num_test=0, feature_dim=8, snippet_range=(20, 30),
            streams=("rgb", "flow"), seed=4), tmp_path / "data")
        doc = json.loads(path.read_text())
        empty = doc["videos"][2]
        empty["ground_truth"] = []
        for rel in empty["features"].values():
            save_features(tmp_path / "data" / rel, np.zeros((0, 8), np.float32))
        path.write_text(json.dumps(doc))
        manifest = parse_manifest(path)
        read = []

        def counting(file):
            read.append(file)
            return load_features(file)

        monkeypatch.setattr("wtal.data.load_features", counting)
        config = ModelConfig(num_classes=3, feature_dim=16, embed_dims=(8, 8))
        split = VideoSplit(manifest, manifest.split("train"))
        history = fit(split, init_params(config, 0, np.float32), config,
                      LossWeights(), TrainConfig(epochs=3, batch_size=2, seed=6), tmp_path)
        assert [(r.num_videos, r.skipped) for r in history] == [(3, 1)] * 3
        empty_files = set(manifest.split("train")[2].features.values())
        assert len(read) == 3 * 3 * 2 and not empty_files & set(read)
        sample = split[2]
        assert sample.features.shape == (0, 16) and sample.features.dtype == np.float32

    def test_separable_synthetic_loss_drops_below_quarter(self, tmp_path):
        # measured ratio 0.174 on this fixed seed
        manifest_path = generate_synthetic(SynthConfig(
            num_classes=3, num_train=16, num_test=1, feature_dim=32,
            snippet_range=(30, 60), instance_len_range=(6, 20),
            noise=0.05, seed=11), tmp_path)
        manifest = parse_manifest(manifest_path)
        dataset = VideoSplit(manifest, manifest.split("train"))
        config = ModelConfig(num_classes=3, feature_dim=32, embed_dims=(48, 48),
                             use_background=False, dropout_rate=0.0)
        params = init_params(config, seed=0, dtype=np.float32)
        tc = TrainConfig(epochs=30, batch_size=1, seed=0)
        history = fit(dataset, params, config, LossWeights(), tc, tmp_path)
        assert history[29].losses["total"] < 0.25 * history[0].losses["total"]


HISTORY = [tr.EpochReport(dict(zip(tr.LOSS_KEYS, (1.0 / (epoch + 1), 0.5, 0.25, 0.1))),
                          num_videos=6, skipped=epoch) for epoch in range(3)]


class TestLoadTrainState:
    def saved(self, tmp_path, precision=64):
        config, params = tiny_model()
        tc = TrainConfig(precision=precision)
        params = params.astype(tc.dtype)
        path = tmp_path / "model_state.npz"
        save_train_state(path, params, init_optimizer(params), HISTORY, config)
        return path, config, tc

    def rewrite(self, path, drop=(), **changes):
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files if k not in drop}
        np.savez(path, **{**arrays, **changes})

    def test_round_trip(self, tmp_path):
        path, config, tc = self.saved(tmp_path)
        params, state, history = load_train_state(path, config, tc)
        assert history == HISTORY and state.step == 0
        assert params.conv1_w.shape == (3 * 6, 5)

    def test_failed_write_keeps_previous_file(self, tmp_path):
        path, config, tc = self.saved(tmp_path)
        before = path.read_bytes()
        params, state, _ = load_train_state(path, config, tc)
        state.v["w_fore"] = np.array([lambda: None], dtype=object)  # cannot be pickled
        with pytest.raises(Exception, match="pickle"):
            save_train_state(path, params, state, HISTORY, config)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model_state.npz"]

    def test_old_conv_layout_rejected(self, tmp_path):
        path, config, tc = self.saved(tmp_path)
        with np.load(path) as data:
            rows, d_out = data["param_conv1_w"].shape
            old = data["param_conv1_w"].reshape(3, rows // 3, d_out).transpose(2, 1, 0)
        self.rewrite(path, param_conv1_w=old)
        with pytest.raises(FormatError, match="param_conv1_w"):
            load_train_state(path, config, tc)

    def test_precision_mismatch_rejected(self, tmp_path):
        path, config, _ = self.saved(tmp_path, precision=64)
        with pytest.raises(FormatError, match="float32"):
            load_train_state(path, config, TrainConfig(precision=32))

    def test_missing_moment_rejected(self, tmp_path):
        path, config, tc = self.saved(tmp_path)
        self.rewrite(path, drop=("v_w_fore",))
        with pytest.raises(FormatError, match="v_w_fore"):
            load_train_state(path, config, tc)

    # a negative step would divide by zero (-1) or take the root of a negative
    # number (-2) in the first Adam bias correction after the resume
    @pytest.mark.parametrize("changes", [{"step": np.array("x")},
                                         {"next_epoch": np.array([1, 2])},
                                         {"step": np.array(-1)}, {"step": np.array(-2)}],
                             ids=["text-step", "vector-next-epoch", "step-1", "step-2"])
    def test_counter_not_an_integer_scalar_rejected(self, tmp_path, changes):
        path, config, tc = self.saved(tmp_path)
        self.rewrite(path, **changes)
        with pytest.raises(FormatError, match=f"{re.escape(str(path))}: step and next_epoch"):
            load_train_state(path, config, tc)

    @pytest.mark.parametrize("changes", [{"drop": ("history",)},
                                         {"history": np.zeros((2, 6))},
                                         {"history": np.zeros((3, 6), dtype=np.float32)},
                                         {"history": np.full((3, 6), np.nan)}],
                             ids=["missing", "rows", "float32", "nan"])
    def test_bad_history_rejected(self, tmp_path, changes):
        path, config, tc = self.saved(tmp_path)
        self.rewrite(path, **changes)
        with pytest.raises(FormatError, match="history must be"):
            load_train_state(path, config, tc)

    def test_other_model_shape_rejected(self, tmp_path):
        path, _, tc = self.saved(tmp_path)
        config, _ = tiny_model(embed_dims=(7, 4))
        with pytest.raises(FormatError):
            load_train_state(path, config, tc)

    @pytest.mark.parametrize("content", [b"", b"not an archive", pickle.dumps([1, 2]),
                                         b"\x93NUMPY\x01\x00"],
                             ids=["empty", "text", "pickle", "npy-magic"])
    def test_not_an_archive_rejected(self, tmp_path, content):
        path, config, tc = self.saved(tmp_path)
        path.write_bytes(content)
        with pytest.raises(FormatError, match=f"{path}: not a training-state archive"):
            load_train_state(path, config, tc)

    def test_missing_file_stays_an_os_error(self, tmp_path):
        _, config, tc = self.saved(tmp_path)
        with pytest.raises(FileNotFoundError):
            load_train_state(tmp_path / "absent.npz", config, tc)

    @given(cut=st.integers(0, 12_000), edits=st.lists(
        st.tuples(st.integers(0, 12_000), st.integers(0, 255)), max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_fuzz_only_typed_errors_escape(self, tmp_path_factory, cut, edits):
        directory = tmp_path_factory.getbasetemp() / "state_fuzz"
        directory.mkdir(exist_ok=True)
        path, config, tc = self.saved(directory)
        raw = bytearray(path.read_bytes())
        for index, byte in edits:
            raw[index % len(raw)] = byte
        path.write_bytes(bytes(raw[:cut]))
        try:
            load_train_state(path, config, tc)
        except Exception as exc:
            assert type(exc).__module__ == "wtal.errors", repr(exc)
