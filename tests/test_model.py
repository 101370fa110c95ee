import struct
from dataclasses import fields

import numpy as np
import pytest

from wtal import autodiff as ad
from wtal.errors import ConfigError, ContractError, FormatError
from wtal.model import (ScoreSet, class_agnostic_branch,
                        class_wise_branch, forward_scores, init_params,
                        load_checkpoint, mil_head, run_forward, save_checkpoint,
                        stage_params)

from conftest import tiny_config, tiny_model


def staged(x, params):
    tape = ad.Tape()
    x_ref = tape.leaf(np.asarray(x, float))
    refs = stage_params(tape, params)
    return tape, x_ref, refs


class TestEmbed:
    def test_zero_input_zero_biases_gives_zero(self, rng):
        config, params = tiny_model()
        params.conv1_b[:] = 0
        params.conv2_b[:] = 0
        scores = forward_scores(np.zeros((4, 6)), params, config)
        tape, out = run_forward(np.zeros((4, 6)), params, config)
        assert np.array_equal(tape.val(out.x_e), np.zeros((4, 4)))
        assert np.isfinite(scores.s_a).all()

    def test_eval_mode_deterministic(self, rng):
        config, params = tiny_model()
        x = rng.normal(size=(5, 6))
        a = forward_scores(x, params, config)
        b = forward_scores(x, params, config)
        assert a.s_a.tobytes() == b.s_a.tobytes()
        assert a.p_video_class.tobytes() == b.p_video_class.tobytes()

    def test_single_snippet_shape(self, rng):
        config, params = tiny_model()
        tape, out = run_forward(rng.normal(size=(1, 6)), params, config)
        assert tape.val(out.x_e).shape == (1, 4)

    def test_feature_dim_mismatch(self, rng):
        config, params = tiny_model()
        with pytest.raises(ContractError):
            run_forward(rng.normal(size=(4, 7)), params, config)

    def test_embedding_is_non_negative(self, rng):
        config, params = tiny_model()
        tape, out = run_forward(rng.normal(size=(6, 6)), params, config)
        assert (tape.val(out.x_e) >= 0).all()

    def test_dropout_only_in_train_mode(self, rng):
        config, params = tiny_model(dropout_rate=0.5)
        x = rng.normal(size=(5, 6))
        eval_a = forward_scores(x, params, config)
        tape1, out1 = run_forward(x, params, config, train_mode=True, rng_seed=1)
        tape2, out2 = run_forward(x, params, config, train_mode=True, rng_seed=2)
        assert not np.array_equal(tape1.val(out1.x_e), tape2.val(out2.x_e))
        tape3, out3 = run_forward(x, params, config, train_mode=True, rng_seed=1)
        assert np.array_equal(tape1.val(out1.x_e), tape3.val(out3.x_e))
        assert np.isfinite(eval_a.s_f).all()


class TestClassWiseBranch:
    def test_single_snippet_degenerates(self, rng):
        config, params = tiny_model()
        x_e = np.abs(rng.normal(size=(1, 4)))
        tape = ad.Tape()
        refs = stage_params(tape, params)
        x_ref = tape.leaf(x_e)
        s_a, attn, feat, logits = class_wise_branch(tape, x_ref, refs, config, tau=2.0)
        assert np.allclose(tape.val(attn), 1.0, atol=1e-12)
        assert np.allclose(tape.val(feat), np.tile(x_e, (4, 1)), atol=1e-12)
        assert np.allclose(tape.val(logits), tape.val(logits)[0], atol=1e-12)

    def test_time_permutation_invariance(self, rng):
        config, params = tiny_model()
        x_e = np.abs(rng.normal(size=(7, 4)))
        perm = rng.permutation(7)

        def pooled(x):
            tape = ad.Tape()
            refs = stage_params(tape, params)
            _, _, feat, logits = class_wise_branch(tape, tape.leaf(x), refs, config, 2.0)
            return tape.val(feat), tape.val(logits)

        feat_a, logits_a = pooled(x_e)
        feat_b, logits_b = pooled(x_e[perm])
        assert np.allclose(feat_a, feat_b, atol=1e-10)
        assert np.allclose(logits_a, logits_b, atol=1e-10)

    def test_aligned_snippet_attracts_attention(self):
        # snippet 0 parallel to class vector 1, snippet 1 orthogonal
        config = tiny_config(num_classes=2, feature_dim=3, embed_dims=(3, 3),
                             use_background=False)
        params = init_params(config, seed=0)
        params.w_action = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
        x_e = np.array([[2.0, 0.0, 0.0], [0.0, 0.0, 3.0]])
        tape = ad.Tape()
        refs = stage_params(tape, params)
        s_a, attn, _, _ = class_wise_branch(tape, tape.leaf(x_e), refs, config, tau=1.0)
        attn_v = tape.val(attn)
        assert attn_v[0, 1] > attn_v[1, 1]
        # direct softmax evaluation over the scores column
        col = tape.val(s_a)[:, 1]
        expected = np.exp(col - col.max())
        expected /= expected.sum()
        assert np.allclose(attn_v[:, 1], expected, atol=1e-12)


class TestClassAgnosticBranch:
    def test_single_snippet(self, rng):
        config, params = tiny_model()
        x_e = np.abs(rng.normal(size=(1, 4)))
        tape = ad.Tape()
        refs = stage_params(tape, params)
        _, _, feat, _ = class_agnostic_branch(tape, tape.leaf(x_e), refs, config, 3.0)
        assert np.allclose(tape.val(feat), x_e, atol=1e-12)

    def test_identical_snippets_give_uniform_attention(self, rng):
        config, params = tiny_model()
        x_e = np.tile(np.abs(rng.normal(size=4)), (6, 1))
        tape = ad.Tape()
        refs = stage_params(tape, params)
        _, attn, _, _ = class_agnostic_branch(tape, tape.leaf(x_e), refs, config, 2.0)
        assert np.allclose(tape.val(attn), 1 / 6, atol=1e-12)

    def test_high_temperature_concentrates_on_best_match(self, rng):
        config, params = tiny_model()
        x_e = np.abs(rng.normal(size=(8, 4))) + 0.1
        tape = ad.Tape()
        refs = stage_params(tape, params)
        s_f, attn, _, _ = class_agnostic_branch(tape, tape.leaf(x_e), refs, config, tau=50.0)
        best = int(np.argmax(tape.val(s_f)))
        assert int(np.argmax(tape.val(attn))) == best
        assert tape.val(attn)[best] > 0.99


class TestMilBranch:
    def build(self, s_a, attn):
        tape = ad.Tape()
        return tape, mil_head(tape, tape.leaf(np.asarray(s_a, float)),
                              tape.leaf(np.asarray(attn, float)))

    def test_single_snippet(self):
        tape, r = self.build([[2.0, -1.0]], [[1.0, 1.0]])
        assert np.allclose(tape.val(r), [2.0, -1.0], atol=1e-15)

    def test_constant_scores_any_attention(self, rng):
        attn = rng.dirichlet(np.ones(5), size=2).T  # columns sum to 1
        s_a = np.full((5, 2), 3.25)
        tape, r = self.build(s_a, attn)
        assert np.allclose(tape.val(r), 3.25, atol=1e-12)

    def test_three_snippet_hand_computed(self):
        s_a = np.array([[1.0], [-2.0], [4.0]])
        attn = np.array([[0.2], [0.3], [0.5]])
        tape, r = self.build(s_a, attn)
        assert tape.val(r)[0] == pytest.approx(1.6, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ContractError):
            self.build(np.zeros((3, 2)), np.zeros((3, 3)))


class TestForwardHybrid:
    def test_single_temperature_matches_single_head(self, rng):
        config, params = tiny_model(temperatures=(1.0,))
        x = rng.normal(size=(6, 6))
        tape, out = run_forward(x, params, config)
        tape2 = ad.Tape()
        refs = stage_params(tape2, params)
        x_e = tape2.leaf(tape.val(out.x_e))
        s_a, attn, feat, logits = class_wise_branch(tape2, x_e, refs, config, 1.0)
        assert np.array_equal(tape.val(out.s_a), tape2.val(s_a))
        assert np.allclose(tape.val(out.fore_logits), tape2.val(logits), atol=1e-12)

    def test_duplicate_temperatures_match_single_head(self, rng):
        x = rng.normal(size=(6, 6))
        config_a, params = tiny_model(temperatures=(1.0,))
        config_b = tiny_config(temperatures=(1.0, 1.0))
        a = forward_scores(x, params, config_a)
        b = forward_scores(x, params, config_b)
        assert np.allclose(a.fore_logits, b.fore_logits, atol=1e-12)
        assert np.allclose(a.p_video_class, b.p_video_class, atol=1e-12)
        assert np.allclose(a.p_mil, b.p_mil, atol=1e-12)

    def test_three_temperature_hybrid_averages_heads(self, rng):
        config, params = tiny_model(temperatures=(1.0, 2.0, 5.0))
        x = rng.normal(size=(7, 6))
        tape, out = run_forward(x, params, config)
        # recompute each head independently from the shared embedding
        x_e = tape.val(out.x_e)
        fore, cls, mil = [], [], []
        for tau in config.temperatures:
            t2 = ad.Tape()
            refs = stage_params(t2, params)
            x_ref = t2.leaf(x_e)
            s_a, attn, _, logit = class_wise_branch(t2, x_ref, refs, config, tau)
            fore.append(t2.val(logit))
            _, _, _, ca_logit = class_agnostic_branch(t2, x_ref, refs, config, tau)
            cls.append(t2.val(ca_logit))
            mil.append(t2.val(mil_head(t2, s_a, attn)))
        assert np.allclose(tape.val(out.fore_logits), np.mean(fore, axis=0), atol=1e-12)
        assert np.allclose(tape.val(out.class_logits), np.mean(cls, axis=0), atol=1e-12)
        assert np.allclose(tape.val(out.mil_logits), np.mean(mil, axis=0), atol=1e-12)

    def test_probability_outputs_at_head_level_permutation_invariant(self, rng):
        config, params = tiny_model()
        x_e = np.abs(rng.normal(size=(9, 4)))
        perm = rng.permutation(9)

        def heads(x):
            tape = ad.Tape()
            refs = stage_params(tape, params)
            x_ref = tape.leaf(x)
            s_a, attn, _, fore_logit = class_wise_branch(tape, x_ref, refs, config, 2.0)
            _, _, _, ca_logit = class_agnostic_branch(tape, x_ref, refs, config, 2.0)
            mil_logit = mil_head(tape, s_a, attn)
            return (tape.val(tape.softmax(fore_logit, 1.0)),
                    tape.val(tape.softmax(ca_logit, 1.0)),
                    tape.val(tape.softmax(mil_logit, 1.0)))

        for a, b in zip(heads(x_e), heads(x_e[perm])):
            assert np.allclose(a, b, atol=1e-10)

    def test_snippet_rescaling_leaves_scores_unchanged(self, rng):
        config, params = tiny_model()
        x_e = np.abs(rng.normal(size=(5, 4))) + 0.1
        scaled = x_e.copy()
        scaled[3] *= 7.5

        def snippet_scores(x):
            tape = ad.Tape()
            refs = stage_params(tape, params)
            x_ref = tape.leaf(x)
            s_a, *_ = class_wise_branch(tape, x_ref, refs, config, 1.0)
            s_f, *_ = class_agnostic_branch(tape, x_ref, refs, config, 1.0)
            return tape.val(s_a), tape.val(s_f)

        s_a0, s_f0 = snippet_scores(x_e)
        s_a1, s_f1 = snippet_scores(scaled)
        assert np.allclose(s_a0, s_a1, atol=1e-9)
        assert np.allclose(s_f0, s_f1, atol=1e-9)

    def test_attention_and_probability_normalization(self, rng):
        config, params = tiny_model()
        tape, out = run_forward(rng.normal(size=(8, 6)), params, config,
                                train_mode=True, rng_seed=3)
        for ref in out.attn_class:
            assert np.allclose(tape.val(ref).sum(axis=0), 1.0, atol=1e-6)
        for ref in out.attn_fore:
            assert abs(tape.val(ref).sum() - 1.0) < 1e-6
        for ref in (out.p_class_fore, out.p_video_class, out.p_mil):
            p = tape.val(ref)
            assert abs(p.sum() - 1.0) < 1e-6 and (p > 0).all()

    def test_background_disabled_drops_shapes(self, rng):
        config, params = tiny_model(use_background=False)
        tape, out = run_forward(rng.normal(size=(5, 6)), params, config)
        assert tape.val(out.s_a).shape == (5, 3)
        assert tape.val(out.p_video_class).shape == (3,)
        assert params.w_action.shape == (3, 4)

    def test_temperature_required(self):
        with pytest.raises(ConfigError):
            tiny_config(temperatures=())


class TestPrecision:
    """The forward pass runs at the parameters' precision, whatever the features'."""

    def assert_same_scores(self, a, b, dtype):
        for f in fields(ScoreSet):
            va, vb = getattr(a, f.name), getattr(b, f.name)
            assert va.dtype == vb.dtype == dtype, f.name
            assert va.tobytes() == vb.tobytes(), f.name

    def test_float32_parameters_score_float64_features_in_float32(self, rng):
        config, params = tiny_model()
        params = params.astype(np.float32)
        x = rng.normal(size=(7, 6))
        self.assert_same_scores(forward_scores(x, params, config),
                                forward_scores(x.astype(np.float32), params, config),
                                np.float32)

    def test_float64_parameters_score_float32_features_in_float64(self, rng):
        config, params = tiny_model()
        x = rng.normal(size=(7, 6)).astype(np.float32)
        self.assert_same_scores(forward_scores(x, params, config),
                                forward_scores(x.astype(np.float64), params, config),
                                np.float64)

    def test_features_staged_without_copy_when_dtypes_match(self, rng):
        config, params = tiny_model()
        x = rng.normal(size=(4, 6))
        tape, _ = run_forward(x, params, config)
        assert tape.nodes[0].value is x
        tape, _ = run_forward(x, params.astype(np.float32), config)
        assert tape.nodes[0].value.dtype == np.float32


class TestCheckpoint:
    def test_round_trip(self, tmp_path, rng):
        config, params = tiny_model()
        path = tmp_path / "model.facn"
        save_checkpoint(path, params, config)
        loaded_params, loaded_config = load_checkpoint(path)
        assert loaded_config == config
        for name, tensor in params.as_dict().items():
            assert np.array_equal(getattr(loaded_params, name),
                                  tensor.astype(np.float32))

    def test_round_trip_preserves_scores(self, tmp_path, rng):
        config, params = tiny_model()
        path = tmp_path / "model.facn"
        save_checkpoint(path, params.astype(np.float32), config)
        loaded_params, _ = load_checkpoint(path)
        x = rng.normal(size=(5, 6)).astype(np.float32)
        a = forward_scores(x, params.astype(np.float32), config)
        b = forward_scores(x, loaded_params, config)
        assert np.array_equal(a.s_a, b.s_a)

    def test_failed_write_keeps_previous_file(self, tmp_path):
        config, params = tiny_model()
        path = tmp_path / "model.facn"
        save_checkpoint(path, params, config)
        before = path.read_bytes()
        broken = params.copy()
        broken.w_fore = np.array(["not a number"] * 4, dtype=object)  # last tensor
        with pytest.raises(ValueError):
            save_checkpoint(path, broken, config)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.facn"]

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.facn"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(FormatError, match="magic"):
            load_checkpoint(path)

    def test_truncated_reports_offset(self, tmp_path):
        config, params = tiny_model()
        path = tmp_path / "model.facn"
        save_checkpoint(path, params, config)
        clipped = tmp_path / "clipped.facn"
        clipped.write_bytes(path.read_bytes()[:40])
        with pytest.raises(FormatError, match="offset"):
            load_checkpoint(clipped)

    def test_shape_validation_against_config(self, tmp_path):
        config, params = tiny_model()
        params.w_fore = np.zeros(9)
        with pytest.raises(ContractError):
            save_checkpoint(tmp_path / "model.facn", params, config)

    def test_load_rejects_config_tensor_disagreement(self, tmp_path):
        config, params = tiny_model()
        path = tmp_path / "model.facn"
        save_checkpoint(path, params, config)
        raw = bytearray(path.read_bytes())
        raw[8] = config.num_classes + 1  # config block starts after magic+version
        path.write_bytes(bytes(raw))
        with pytest.raises((ContractError, FormatError)):
            load_checkpoint(path)

    def test_unknown_version_rejected(self, tmp_path):
        config, params = tiny_model()
        path = tmp_path / "model.facn"
        save_checkpoint(path, params, config)
        raw = bytearray(path.read_bytes())
        raw[4:8] = struct.pack("<I", 3)
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="version 3"):
            load_checkpoint(path)

    def test_version_one_file_loads_with_relaid_conv_weights(self, tmp_path, rng):
        config, params = tiny_model()
        params = params.astype(np.float32)
        v2 = tmp_path / "v2.facn"
        save_checkpoint(v2, params, config)
        v1 = tmp_path / "v1.facn"
        write_v1_checkpoint(v1, params, config)
        from_v1, config_v1 = load_checkpoint(v1)
        from_v2, _ = load_checkpoint(v2)
        assert config_v1 == config
        for name, tensor in from_v2.as_dict().items():
            assert np.array_equal(getattr(from_v1, name), tensor)
            assert getattr(from_v1, name).flags.c_contiguous
        x = rng.normal(size=(7, 6)).astype(np.float32)
        a, b = forward_scores(x, from_v1, config), forward_scores(x, from_v2, config)
        for field in ("s_a", "s_f", "p_video_class", "p_class_fore", "p_mil"):
            assert np.array_equal(getattr(a, field), getattr(b, field))

    def test_version_one_conv_tensor_of_wrong_rank_rejected(self, tmp_path):
        config, params = tiny_model()
        path = tmp_path / "v1.facn"
        write_v1_checkpoint(path, params, config, relay=False)
        with pytest.raises(FormatError, match="rank 3"):
            load_checkpoint(path)


def write_v1_checkpoint(path, params, config, relay=True):
    """The version 1 format, written out by hand: conv weights (d_out, d_in, k)."""
    k = config.kernel_size
    with open(path, "wb") as fh:
        fh.write(b"FACN" + struct.pack("<I", 1))
        fh.write(struct.pack("<5I", config.num_classes, config.feature_dim,
                             *config.embed_dims, k))
        fh.write(struct.pack("<dI", config.delta, len(config.temperatures)))
        fh.write(struct.pack(f"<{len(config.temperatures)}d", *config.temperatures))
        fh.write(struct.pack("<Bd", int(config.use_background), config.dropout_rate))
        tensors = params.as_dict()
        fh.write(struct.pack("<I", len(tensors)))
        for name, tensor in tensors.items():
            if relay and name.startswith("conv") and name.endswith("_w"):
                rows, d_out = tensor.shape
                tensor = tensor.reshape(k, rows // k, d_out).transpose(2, 1, 0)
            fh.write(struct.pack("<H", len(name)) + name.encode())
            fh.write(struct.pack("<B", tensor.ndim))
            fh.write(struct.pack(f"<{tensor.ndim}I", *tensor.shape))
            fh.write(np.ascontiguousarray(tensor, dtype="<f4").tobytes())
