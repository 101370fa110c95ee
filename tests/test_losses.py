import numpy as np
import pytest

from wtal import autodiff as ad
from wtal.errors import ConfigError, ContractError, InputError
from wtal.losses import LossWeights, normalized_target, total_loss
from wtal.model import BranchOutputs, run_forward

from conftest import gradients, tiny_model

LN_21 = 3.0445224377234230  # log(21), frozen closed form


class TestNormalizedTarget:
    def test_single_class_with_background(self):
        out = normalized_target(np.array([1, 0]), 0, True)
        assert np.array_equal(out, [1.0, 0.0, 0.0])

    def test_background_one_normalizes_by_three(self):
        out = normalized_target(np.array([1, 1]), 1, True)
        assert np.allclose(out, [1 / 3] * 3, atol=1e-15)

    def test_no_background(self):
        out = normalized_target(np.array([1, 0, 1]), 0, False)
        assert np.array_equal(out, [0.5, 0.0, 0.5])

    def test_all_zero_rejected(self):
        with pytest.raises(InputError):
            normalized_target(np.zeros(3), 0, True)

    def test_non_binary_rejected(self):
        with pytest.raises(InputError):
            normalized_target(np.array([0.5, 1.0]), 0, True)


def nce_value(p, target):
    tape = ad.Tape()
    ref = tape.leaf(np.asarray(p, float))
    return float(tape.val(tape.nce(ref, np.asarray(target, float))))


class TestNceLoss:
    def test_matching_one_hot_is_near_zero(self):
        p = np.full(21, 1e-9)
        p[4] = 1 - p.sum() + 1e-9
        target = np.zeros(21)
        target[4] = 1.0
        assert nce_value(p, target) == pytest.approx(0.0, abs=1e-6)

    def test_uniform_over_21_against_one_hot(self):
        target = np.zeros(21)
        target[7] = 1.0
        assert nce_value(np.full(21, 1 / 21), target) == pytest.approx(LN_21, abs=1e-12)

    def test_linear_in_target(self):
        target = np.zeros(21)
        target[[3, 9]] = 0.5
        assert nce_value(np.full(21, 1 / 21), target) == pytest.approx(LN_21, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ContractError):
            nce_value(np.full(4, 0.25), np.array([1.0, 0.0]))

    def test_non_negative_for_probability_targets(self, rng):
        for _ in range(50):
            p = rng.dirichlet(np.ones(6))
            t = rng.dirichlet(np.ones(6))
            assert nce_value(p, t) >= 0.0


def fake_outputs(tape, p_refs):
    # the losses read only the three probabilities; -1 marks every other field
    p_class_fore, p_video_class, p_mil = p_refs
    return BranchOutputs(x_e=-1, s_a=-1, s_f=-1, attn_class=-1, attn_fore=-1, fore_logits=-1,
                         p_class_fore=p_class_fore, class_logits=-1,
                         p_video_class=p_video_class, mil_logits=-1, p_mil=p_mil)


class TestTotalLoss:
    def test_zero_weights_give_zero(self, rng):
        config, params = tiny_model()
        tape, out = run_forward(rng.normal(size=(4, 6)), params, config)
        total, _ = total_loss(tape, out, np.array([1.0, 0, 0]),
                              LossWeights(0.0, 0.0, 0.0), True)
        assert float(tape.val(total)) == 0.0

    def test_default_weights_equal_hand_weighted_sum(self, rng):
        config, params = tiny_model()
        tape, out = run_forward(rng.normal(size=(5, 6)), params, config)
        y = np.array([1.0, 1.0, 0.0])
        weights = LossWeights(1.0, 0.1, 0.1)
        total, parts = total_loss(tape, out, y, weights, True)
        expected = (1.0 * float(tape.val(parts["class_wise"]))
                    + 0.1 * float(tape.val(parts["class_agnostic"]))
                    + 0.1 * float(tape.val(parts["mil"])))
        assert float(tape.val(total)) == pytest.approx(expected, rel=1e-12)

    def test_duplicate_branches_without_background_share_term(self, rng):
        p = rng.dirichlet(np.ones(3))
        tape = ad.Tape()
        ref = tape.leaf(p)
        out = fake_outputs(tape, (ref, ref, ref))
        y = np.array([0.0, 1.0, 1.0])
        weights = LossWeights(0.7, 0.2, 0.4)
        total, _ = total_loss(tape, out, y, weights, use_background=False)
        single = nce_value(p, normalized_target(y, 0, False))
        assert float(tape.val(total)) == pytest.approx(1.3 * single, rel=1e-12)

    def test_total_is_non_negative(self, rng):
        config, params = tiny_model()
        for seed in range(5):
            x = rng.normal(size=(int(rng.integers(1, 9)), 6))
            tape, out = run_forward(x, params, config, dropout_seed=seed)
            total, _ = total_loss(tape, out, np.array([0.0, 1.0, 0.0]),
                                  LossWeights(), True)
            assert float(tape.val(total)) >= 0.0

    def test_negative_weight_rejected(self):
        with pytest.raises(ConfigError):
            LossWeights(-0.1, 0.1, 0.1)

    def test_gradient_near_zero_at_confident_correct_prediction(self):
        # logits with a huge correct-class margin: softmax ~ one-hot target
        tape = ad.Tape()
        logits = tape.leaf(np.array([40.0, -40.0, -40.0]), name="logits")
        p = tape.softmax(logits, 1.0)
        loss = tape.nce(p, np.array([1.0, 0.0, 0.0]))
        grad = gradients(tape, loss)["logits"]
        assert np.linalg.norm(grad) < 1e-3

    def test_class_wise_loss_decreases_as_correct_logit_grows(self):
        # one positive class, background enabled; sweep that class's
        # video-level foreground logit upward with the others held fixed
        base = np.array([0.3, -0.2, 0.1, -0.4])
        target = normalized_target(np.array([1.0, 0.0, 0.0]), 0, True)
        losses = []
        for bump in np.linspace(0.0, 3.0, 7):
            logits = base.copy()
            logits[0] += bump
            tape = ad.Tape()
            p = tape.softmax(tape.leaf(logits), 1.0)
            losses.append(float(tape.val(tape.nce(p, target))))
        assert all(a > b for a, b in zip(losses, losses[1:]))
