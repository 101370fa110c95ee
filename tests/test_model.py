import io
import json
import zipfile
from dataclasses import fields, replace

import numpy as np
import pytest
from numpy.lib import format as npy_format
from hypothesis import given, settings
from hypothesis import strategies as st

from wtal import autodiff as ad
from wtal.errors import ConfigError, ContractError, FormatError, InputError, ManifestError
from wtal.losses import LossWeights, total_loss
from wtal.model import (BranchOutputs, forward_scores, load_checkpoint, run_forward,
                        save_checkpoint)

from conftest import gradients, passthrough_model, tiny_config, tiny_model
from oracles import hybrid_reference


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
        assert a.class_conf.tobytes() == b.class_conf.tobytes()

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
        tape1, out1 = run_forward(x, params, config, dropout_seed=1)
        tape2, out2 = run_forward(x, params, config, dropout_seed=2)
        assert not np.array_equal(tape1.val(out1.x_e), tape2.val(out2.x_e))
        tape3, out3 = run_forward(x, params, config, dropout_seed=1)
        assert np.array_equal(tape1.val(out1.x_e), tape3.val(out3.x_e))
        assert np.isfinite(eval_a.s_f).all()

    def test_no_seed_records_the_tape_of_a_model_without_dropout(self, rng):
        # eval mode is the absence of a dropout seed: with a rate of 0.5 it records,
        # byte for byte, what a seeded pass records at a rate of 0
        x = rng.normal(size=(5, 6))
        config, params = tiny_model(dropout_rate=0.5)
        seedless, _ = run_forward(x, params, config)
        seeded, _ = run_forward(x, params, replace(config, dropout_rate=0.0), dropout_seed=1)

        def recorded(tape):
            return [(n.op, n.inputs, n.name, n.value.dtype.str, n.value.tobytes(),
                     {k: v.tobytes() if isinstance(v, np.ndarray) else v
                      for k, v in n.ctx.items()}) for n in tape.nodes]

        assert recorded(seedless) == recorded(seeded)


def branch_outputs(x_e, params, config):
    """Every tape output of a pass-through model fed the embedding x_e."""
    tape, out = run_forward(x_e, params, config)
    assert np.array_equal(tape.val(out.x_e), x_e)
    return {f.name: tape.val(getattr(out, f.name)) for f in fields(out)}


def reference(x_e, params, config):
    return hybrid_reference(x_e, params.w_action, params.w_fore, config.delta,
                            config.temperatures)


class TestClassWiseBranch:
    def test_single_snippet_degenerates(self, rng):
        config, params = passthrough_model()
        x_e = np.abs(rng.normal(size=(1, 4)))
        out = branch_outputs(x_e, params, config)
        assert np.allclose(out["attn_class"], 1.0, atol=1e-12)
        # every class pools x_e itself, so each scores S_f of the one snippet
        assert np.allclose(out["fore_logits"], out["s_f"][0], atol=1e-12)

    def test_time_permutation_invariance(self, rng):
        config, params = passthrough_model()
        x_e = np.abs(rng.normal(size=(7, 4)))
        perm = rng.permutation(7)
        a = branch_outputs(x_e, params, config)
        b = branch_outputs(x_e[perm], params, config)
        for key in ("fore_logits", "class_logits", "mil_logits"):
            assert np.allclose(a[key], b[key], atol=1e-10), key
        assert np.allclose(a["attn_class"][:, :, perm], b["attn_class"], atol=1e-12)

    def test_aligned_snippet_attracts_attention(self):
        # snippet 0 parallel to class vector 1, snippet 1 orthogonal
        config, params = passthrough_model(width=3, num_classes=2, use_background=False)
        params.w_action = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
        x_e = np.array([[2.0, 0.0, 0.0], [0.0, 0.0, 3.0]])
        out = branch_outputs(x_e, params, config)
        col = out["s_a"][:, 1]
        for head, tau in enumerate(config.temperatures):
            attn_v = out["attn_class"][head]
            assert attn_v[1, 0] > attn_v[1, 1]
            # direct softmax evaluation over the scores column
            expected = np.exp(tau * (col - col.max()))
            expected /= expected.sum()
            assert np.allclose(attn_v[1], expected, atol=1e-12)


class TestClassAgnosticBranch:
    def test_single_snippet(self, rng):
        config, params = passthrough_model()
        x_e = np.abs(rng.normal(size=(1, 4)))
        out = branch_outputs(x_e, params, config)
        # the pooled feature is x_e itself, so it scores S_a of the one snippet
        assert np.allclose(out["attn_fore"], 1.0, atol=1e-12)
        assert np.allclose(out["class_logits"], out["s_a"][0], atol=1e-12)

    def test_identical_snippets_give_uniform_attention(self, rng):
        config, params = passthrough_model()
        x_e = np.tile(np.abs(rng.normal(size=4)), (6, 1))
        out = branch_outputs(x_e, params, config)
        assert out["attn_fore"].shape == (3, 6)
        assert np.allclose(out["attn_fore"], 1 / 6, atol=1e-12)

    def test_high_temperature_concentrates_on_best_match(self, rng):
        config, params = passthrough_model(temperatures=(1.0, 50.0))
        params.w_fore = np.abs(params.w_fore) + 0.1
        x_e = np.abs(rng.normal(size=(8, 4))) + 0.1
        x_e[5] = 2.0 * params.w_fore  # parallel: S_f peaks at delta
        out = branch_outputs(x_e, params, config)
        best = int(np.argmax(out["s_f"]))
        assert int(np.argmax(out["attn_fore"][1])) == best
        assert out["attn_fore"][1, best] > 0.99
        assert out["attn_fore"][0, best] < out["attn_fore"][1, best]


class TestMilBranch:
    def test_single_snippet(self, rng):
        config, params = passthrough_model()
        out = branch_outputs(np.abs(rng.normal(size=(1, 4))), params, config)
        assert np.allclose(out["mil_logits"], out["s_a"][0], atol=1e-15)

    def test_constant_scores_any_attention(self, rng):
        # every snippet has cosine 0.6 with class 0 but its own direction and
        # norm, so S_a[:, 0] is constant while the other columns vary
        config, params = passthrough_model()
        params.w_action[0] = [1.0, 0.0, 0.0, 0.0]
        phi = rng.uniform(0, np.pi / 2, size=5)
        x_e = np.stack([np.full(5, 0.6), 0.8 * np.cos(phi), 0.8 * np.sin(phi),
                        np.zeros(5)], axis=1) * rng.uniform(0.5, 4.0, size=(5, 1))
        out = branch_outputs(x_e, params, config)
        assert np.allclose(out["s_a"][:, 0], 3.0, atol=1e-12)
        assert np.ptp(out["s_a"][:, 1:], axis=0).min() > 1e-3
        assert out["mil_logits"][0] == pytest.approx(3.0, abs=1e-12)

    def test_three_snippet_hand_computed(self):
        # class 0 scores the snippets 5, 5 - ln 3 and 0, so at tau 1 the
        # attention is (3, 1, 3e^-5) / (4 + 3e^-5)
        c = 1.0 - np.log(3.0) / 5.0
        config, params = passthrough_model(width=3, num_classes=1, use_background=False,
                                           temperatures=(1.0,))
        params.w_action = np.array([[1.0, 0.0, 0.0]])
        x_e = np.array([[2.0, 0.0, 0.0], [c, np.sqrt(1 - c * c), 0.0], [0.0, 0.0, 1.0]])
        out = branch_outputs(x_e, params, config)
        norm = 4.0 + 3.0 * np.exp(-5.0)
        assert np.allclose(out["attn_class"][0, 0], [3 / norm, 1 / norm, 3 * np.exp(-5.0) / norm],
                           atol=1e-12)
        expected = (15.0 + 5.0 - np.log(3.0)) / norm
        assert out["mil_logits"][0] == pytest.approx(expected, abs=1e-12)

    def test_shape_mismatch(self):
        # MIL weights S_a^T by the attention with an elementwise product
        tape = ad.Tape()
        with pytest.raises(ContractError):
            tape.mul(tape.leaf(np.zeros((2, 3))), tape.leaf(np.zeros((3, 3))))


class TestForwardHybrid:
    def test_single_temperature_matches_single_head(self, rng):
        config, params = tiny_model(temperatures=(1.0,))
        tape, out = run_forward(rng.normal(size=(6, 6)), params, config)
        ref = reference(tape.val(out.x_e), params, config)
        assert np.allclose(tape.val(out.s_a), ref["s_a"], atol=1e-12)
        for key in ("fore_logits", "class_logits", "mil_logits"):
            assert np.allclose(tape.val(getattr(out, key)), ref[key][0], atol=1e-12), key

    def test_duplicate_temperatures_match_single_head(self, rng):
        x = rng.normal(size=(6, 6))
        config_a, params = tiny_model(temperatures=(1.0,))
        config_b = tiny_config(temperatures=(1.0, 1.0))
        tape_a, a = run_forward(x, params, config_a)
        tape_b, b = run_forward(x, params, config_b)
        for key in ("fore_logits", "p_video_class", "p_mil"):
            assert np.allclose(tape_a.val(getattr(a, key)), tape_b.val(getattr(b, key)),
                               atol=1e-12), key

    def test_three_temperature_hybrid_averages_heads(self, rng):
        config, params = tiny_model(temperatures=(1.0, 2.0, 5.0))
        x = rng.normal(size=(7, 6))
        tape, out = run_forward(x, params, config)
        # recompute each head independently from the shared embedding
        ref = reference(tape.val(out.x_e), params, config)
        assert np.allclose(tape.val(out.attn_class), ref["attn_class"], atol=1e-12)
        assert np.allclose(tape.val(out.attn_fore), ref["attn_fore"], atol=1e-12)
        for key in ("fore_logits", "class_logits", "mil_logits"):
            assert np.allclose(tape.val(getattr(out, key)), ref[key].mean(axis=0),
                               atol=1e-12), key

    def test_probability_outputs_at_head_level_permutation_invariant(self, rng):
        config, params = passthrough_model(temperatures=(2.0,))
        x_e = np.abs(rng.normal(size=(9, 4)))
        perm = rng.permutation(9)
        a = branch_outputs(x_e, params, config)
        b = branch_outputs(x_e[perm], params, config)
        for key in ("p_class_fore", "p_video_class", "p_mil"):
            assert np.allclose(a[key], b[key], atol=1e-10), key

    def test_snippet_rescaling_leaves_scores_unchanged(self, rng):
        config, params = passthrough_model()
        x_e = np.abs(rng.normal(size=(5, 4))) + 0.1
        scaled = x_e.copy()
        scaled[3] *= 7.5
        a = branch_outputs(x_e, params, config)
        b = branch_outputs(scaled, params, config)
        assert np.allclose(a["s_a"], b["s_a"], atol=1e-9)
        assert np.allclose(a["s_f"], b["s_f"], atol=1e-9)

    def test_attention_and_probability_normalization(self, rng):
        config, params = tiny_model()
        tape, out = run_forward(rng.normal(size=(8, 6)), params, config,
                                dropout_seed=3)
        assert tape.val(out.attn_class).shape == (3, 4, 8)
        assert np.allclose(tape.val(out.attn_class).sum(axis=-1), 1.0, atol=1e-6)
        assert tape.val(out.attn_fore).shape == (3, 8)
        assert np.allclose(tape.val(out.attn_fore).sum(axis=-1), 1.0, atol=1e-6)
        for ref in (out.p_class_fore, out.p_video_class, out.p_mil):
            p = tape.val(ref)
            assert abs(p.sum() - 1.0) < 1e-6 and (p > 0).all()

    def test_branch_outputs_are_distinct_recorded_nodes(self, rng):
        config, params = tiny_model()
        tape, out = run_forward(rng.normal(size=(8, 6)), params, config,
                                dropout_seed=3)
        refs = [getattr(out, f.name) for f in fields(BranchOutputs)]
        assert len(refs) == len(set(refs)) == 11
        assert all(0 <= ref < len(tape.nodes) and tape.nodes[ref].op != "leaf"
                   for ref in refs), refs

    @pytest.mark.parametrize("use_background", [True, False])
    def test_each_parameter_recorded_just_before_its_first_reader(self, rng, use_background):
        # backward then visits each parameter's leaf right after the gradient completes
        config, params = tiny_model(use_background=use_background)
        tape, _ = run_forward(rng.normal(size=(8, 6)), params, config, dropout_seed=3)
        named = {i: node.name for i, node in enumerate(tape.nodes)
                 if node.op == "leaf" and node.name is not None}
        assert sorted(named.values()) == sorted(params.as_dict())
        for i, name in named.items():
            first = next(j for j, node in enumerate(tape.nodes) if i in node.inputs)
            assert {node.op for node in tape.nodes[i + 1:first]} <= {"leaf"}, name

    @pytest.mark.parametrize("temperatures", [(1.0,), (1.0, 2.0, 5.0)])
    def test_train_mode_tape_size_independent_of_head_count(self, rng, temperatures):
        config, params = tiny_model(temperatures=temperatures)
        tape, out = run_forward(rng.normal(size=(8, 6)), params, config,
                                dropout_seed=3)
        total_loss(tape, out, np.array([1.0, 0.0, 1.0]), LossWeights(), True)
        assert len(tape.nodes) == 41  # 7 leaves, 26 forward ops, 8 loss ops

    def test_train_tape_keeps_one_snippet_by_width_array_besides_values(self, rng):
        # each conv layer keeps only its output, with no pre-activation and no
        # dropout mask; x_e is normalized once, for S_a and S_f alike
        config, params = tiny_model(embed_dims=(5, 7))
        tape, out = run_forward(rng.normal(size=(9, 6)), params, config,
                                dropout_seed=3)
        total_loss(tape, out, np.array([1.0, 0.0, 1.0]), LossWeights(), True)
        kept = {id(v): (i, node.op, key) for i, node in enumerate(tape.nodes)
                for key, v in node.ctx.items()
                if isinstance(v, np.ndarray) and v.shape in {(9, 5), (9, 7)}}
        on_x_e = [node for node in tape.nodes
                  if node.op == "cosine_rows" and node.inputs[0] == out.x_e]
        assert len(on_x_e) == 2  # S_a and S_f
        ahat = on_x_e[0].ctx["ahat"]
        assert on_x_e[1].ctx["ahat"] is ahat
        assert list(kept) == [id(ahat)], kept

    def test_background_disabled_drops_shapes(self, rng):
        config, params = tiny_model(use_background=False)
        tape, out = run_forward(rng.normal(size=(5, 6)), params, config)
        assert tape.val(out.s_a).shape == (5, 3)
        assert tape.val(out.p_video_class).shape == (3,)
        assert params.w_action.shape == (3, 4)

    @pytest.mark.parametrize("use_background", [True, False])
    def test_scores_cover_the_action_classes_only(self, rng, use_background):
        # localization reads the C class columns; the background slot stays in the model
        config, params = tiny_model(use_background=use_background)
        x = rng.normal(size=(7, 6))
        tape, out = run_forward(x, params, config)
        scores = forward_scores(x, params, config)
        s_a, p = tape.val(out.s_a), tape.val(out.p_video_class)
        assert s_a.shape == (7, 3 + use_background)
        assert scores.s_a.shape == (7, 3) and scores.class_conf.shape == (3,)
        assert scores.s_a.tobytes() == np.ascontiguousarray(s_a[:, :3]).tobytes()
        assert scores.class_conf.tobytes() == p[:3].tobytes()
        assert scores.s_f.tobytes() == tape.val(out.s_f).tobytes()

    def test_temperature_required(self):
        with pytest.raises(ConfigError):
            tiny_config(temperatures=())


class TestPrecision:
    """The forward pass runs at the parameters' precision, whatever the features'."""

    def assert_same_scores(self, x, y, params, config, dtype):
        (tape_a, a), (tape_b, b) = run_forward(x, params, config), run_forward(y, params, config)
        for f in fields(BranchOutputs):
            va, vb = tape_a.val(getattr(a, f.name)), tape_b.val(getattr(b, f.name))
            assert va.dtype == vb.dtype == dtype, f.name
            assert va.tobytes() == vb.tobytes(), f.name

    def test_float32_parameters_score_float64_features_in_float32(self, rng):
        config, params = tiny_model()
        params = params.astype(np.float32)
        x = rng.normal(size=(7, 6))
        self.assert_same_scores(x, x.astype(np.float32), params, config, np.float32)

    def test_float64_parameters_score_float32_features_in_float64(self, rng):
        config, params = tiny_model()
        x = rng.normal(size=(7, 6)).astype(np.float32)
        self.assert_same_scores(x, x.astype(np.float64), params, config, np.float64)

    def test_float32_train_tape_and_gradients_stay_float32(self, rng):
        config, params = tiny_model()
        tape, out = run_forward(rng.normal(size=(7, 6)), params.astype(np.float32), config,
                                dropout_seed=4)
        loss_ref, _ = total_loss(tape, out, np.array([1.0, 0.0, 1.0]), LossWeights(), True)
        grads = gradients(tape, loss_ref)
        promoted = [(i, n.op, n.value.dtype) for i, n in enumerate(tape.nodes)
                    if n.value.dtype != np.float32]
        assert promoted == []
        assert set(grads) == set(params.as_dict())
        for name, g in grads.items():
            assert g.dtype == np.float32, name

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
        path = tmp_path / "model.npz"
        save_checkpoint(path, params, config)
        loaded_params, loaded_config = load_checkpoint(path)
        assert loaded_config == config
        for name, tensor in params.as_dict().items():
            assert np.array_equal(getattr(loaded_params, name),
                                  tensor.astype(np.float32))

    def test_round_trip_preserves_scores(self, tmp_path, rng):
        config, params = tiny_model()
        path = tmp_path / "model.npz"
        save_checkpoint(path, params.astype(np.float32), config)
        loaded_params, _ = load_checkpoint(path)
        x = rng.normal(size=(5, 6)).astype(np.float32)
        a = forward_scores(x, params.astype(np.float32), config)
        b = forward_scores(x, loaded_params, config)
        assert np.array_equal(a.s_a, b.s_a)

    def test_failed_write_keeps_previous_file(self, tmp_path):
        config, params = tiny_model()
        path = tmp_path / "model.npz"
        save_checkpoint(path, params, config)
        before = path.read_bytes()
        broken = params.astype(np.float64)  # astype copies
        broken.w_fore = np.array(["not a number"] * 4, dtype=object)  # last tensor
        with pytest.raises(ValueError):
            save_checkpoint(path, broken, config)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.npz"]

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.npz"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(FormatError, match=f"{path}: not a checkpoint archive"):
            load_checkpoint(path)

    def test_truncated_archive_rejected(self, tmp_path):
        config, params = tiny_model()
        path = tmp_path / "model.npz"
        save_checkpoint(path, params, config)
        clipped = tmp_path / "clipped.npz"
        clipped.write_bytes(path.read_bytes()[:40])
        with pytest.raises(FormatError, match=f"{clipped}: not a checkpoint archive"):
            load_checkpoint(clipped)

    def test_shape_validation_against_config(self, tmp_path):
        config, params = tiny_model()
        params.w_fore = np.zeros(9)
        with pytest.raises(ContractError):
            save_checkpoint(tmp_path / "model.npz", params, config)

    def test_load_rejects_config_tensor_disagreement(self, tmp_path):
        config, params = tiny_model()
        path = tmp_path / "model.npz"
        save_checkpoint(path, params, config)
        rewrite(path, config=json.dumps({**stored_config(path),
                                         "num_classes": config.num_classes + 1}))
        with pytest.raises(FormatError, match=f"{path}: checkpoint .*w_action"):
            load_checkpoint(path)

    def test_archive_members(self, tmp_path):
        config, params = tiny_model()
        path = tmp_path / "model.npz"
        save_checkpoint(path, params, config)
        with np.load(path) as data:
            assert data.files == ["config", *params.as_dict()]
            assert all(data[name].dtype == np.float32 for name in params.as_dict())
        assert stored_config(path)["temperatures"] == list(config.temperatures)


def stored_config(path) -> dict:
    with np.load(path) as data:
        return json.loads(data["config"].item())


def rewrite(path, drop=(), **changes):
    """Save the archive at ``path`` again, without ``drop`` and with ``changes``."""
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files if k not in drop}
    np.savez(path, **{**arrays, **changes})


class TestCheckpointErrors:
    """Malformed checkpoints end in FormatError naming the file, never in an
    untyped error."""

    @pytest.fixture
    def saved(self, tmp_path):
        config, params = tiny_model()
        path = tmp_path / "model.npz"
        save_checkpoint(path, params, config)
        return path

    def test_dims_beyond_the_stored_bytes(self, saved):
        with np.load(saved) as data:
            members = {k: data[k] for k in data.files}
        header = io.BytesIO()
        npy_format.write_array_header_1_0(
            header, {**npy_format.header_data_from_array_1_0(members["w_fore"]),
                     "shape": (2 ** 20,)})
        with zipfile.ZipFile(saved, "w") as archive:
            for name, array in members.items():
                raw = io.BytesIO()
                np.save(raw, array)
                if name == "w_fore":  # a header that claims more than the 4 floats stored
                    raw = io.BytesIO(header.getvalue() + array.tobytes())
                archive.writestr(f"{name}.npy", raw.getvalue())
        with pytest.raises(FormatError, match=f"{saved}: not a checkpoint archive .*EOF"):
            load_checkpoint(saved)

    def test_rank_above_three(self, saved):
        rewrite(saved, w_fore=np.zeros((1, 1, 1, 4), dtype=np.float32))
        with pytest.raises(FormatError, match=r"w_fore is float32\[1, 1, 1, 4\]"):
            load_checkpoint(saved)

    @pytest.mark.parametrize("changes", [
        {"drop": ("config",)}, {"config": np.array(3.0)}, {"config": np.array(["{}"])},
        {"config": "{not json"}, {"config": "[1, 2]"},
        {"config": json.dumps({"num_classes": 3})}, {"config": '{"num_classes": 3, "x": 1}'}],
        ids=["missing", "number", "vector", "not-json", "list", "missing-key", "unknown-key"])
    def test_invalid_config_member(self, saved, changes):
        rewrite(saved, **changes)
        with pytest.raises(FormatError, match=f"{saved}: checkpoint "):
            load_checkpoint(saved)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("field", ["delta", "temperatures", "dropout_rate"])
    def test_non_finite_config_float(self, saved, value, field):
        doc = stored_config(saved)
        doc[field] = [1.0, value] if field == "temperatures" else value
        rewrite(saved, config=json.dumps(doc))
        with pytest.raises(FormatError, match=f"{saved}: checkpoint ModelConfig.{field} "
                                              "must be finite"):
            load_checkpoint(saved)

    @given(cut=st.integers(0, 10_000), edits=st.lists(
        st.tuples(st.integers(0, 10_000), st.integers(0, 255)), max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_fuzz_only_typed_errors_escape(self, tmp_path_factory, cut, edits):
        config, params = tiny_model()
        path = tmp_path_factory.getbasetemp() / "fuzz.npz"
        save_checkpoint(path, params, config)
        raw = bytearray(path.read_bytes())
        for index, byte in edits:
            raw[index % len(raw)] = byte
        path.write_bytes(bytes(raw[:cut]))
        try:
            load_checkpoint(path)
        except (ConfigError, ContractError, FormatError, InputError, ManifestError):
            pass
