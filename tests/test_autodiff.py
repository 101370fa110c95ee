import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from wtal import autodiff as ad
from wtal.errors import ContractError, InputError
from wtal.losses import LossWeights, total_loss
from wtal.model import ModelParams, forward_hybrid, init_params, run_forward

from conftest import gradients, tiny_config, tiny_model
from oracles import conv_dx_reference, conv_reference


def cosine(a, b, scale=5.0):
    tape = ad.Tape()
    out = tape.cosine_rows(tape.leaf(np.asarray(a, float)),
                           tape.leaf(np.asarray(b, float)), scale)
    return tape.val(out)


def softmax(s, tau):
    tape = ad.Tape()
    return tape.val(tape.softmax(tape.leaf(np.asarray(s, float)), tau, axis=0))


class TestCosineRows:
    def test_identical_unit_vectors(self):
        assert cosine([[1, 0]], [[1, 0]], 5.0) == pytest.approx(np.array([[5.0]]), abs=1e-12)

    def test_orthogonal(self):
        assert cosine([[1, 0]], [[0, 1]], 5.0) == pytest.approx(np.array([[0.0]]), abs=1e-12)

    def test_closed_form_diagonal(self):
        # 5 / sqrt(2), confirmed by scalar evaluation
        assert cosine([[1, 1]], [[1, 0]], 5.0)[0, 0] == pytest.approx(
            3.5355339059327378, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ContractError):
            cosine([[1, 0]], [[1, 0, 0]])

    def test_nan_input(self):
        with pytest.raises(InputError):
            cosine([[np.nan, 0]], [[1, 0]])

    def test_entries_bounded_by_scale(self, rng):
        out = cosine(rng.normal(size=(6, 4)), rng.normal(size=(5, 4)), 5.0)
        assert (np.abs(out) <= 5.0).all()

    @given(alpha=st.floats(min_value=1e-3, max_value=1e3))
    def test_row_rescale_invariance(self, alpha):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(4, 5))
        b = rng.normal(size=(3, 5))
        scaled = a.copy()
        scaled[2] *= alpha
        assert np.allclose(cosine(a, b), cosine(scaled, b), atol=1e-6)


class TestSoftmaxTemp:
    def test_uniform_scores(self):
        for tau in (0.3, 1.0, 7.0):
            assert softmax([2.2] * 4, tau) == pytest.approx(np.full(4, 0.25), abs=1e-12)

    def test_closed_form(self):
        assert softmax([0.0, np.log(3)], 1.0) == pytest.approx(np.array([0.25, 0.75]), abs=1e-12)

    def test_high_temperature_limit(self):
        out = softmax([0.0, 1.0], 50.0)
        assert out[1] >= 1 - 1e-6

    def test_empty_vector(self):
        with pytest.raises(ContractError):
            softmax([], 1.0)

    @given(
        values=st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=12),
        tau=st.floats(min_value=1e-3, max_value=100.0),
    )
    def test_sums_to_one_and_positive(self, values, tau):
        out = softmax(values, tau)
        assert abs(out.sum() - 1.0) < 1e-6
        assert (out > 0).all()

    @given(values=st.lists(st.floats(min_value=-20, max_value=20), min_size=2, max_size=10))
    def test_entropy_non_increasing_in_temperature(self, values):
        def entropy(p):
            return float(-(p * np.log(p)).sum())

        assert entropy(softmax(values, 5.0)) <= entropy(softmax(values, 1.0)) + 1e-9

    @given(seed=st.integers(0, 10_000))
    def test_permutation_equivariance(self, seed):
        rng = np.random.default_rng(seed)
        s = rng.normal(size=7)
        perm = rng.permutation(7)
        assert np.allclose(softmax(s, 2.0)[perm], softmax(s[perm], 2.0), atol=1e-12)

    def test_monotone_in_scores(self, rng):
        s = np.sort(rng.normal(size=6))
        out = softmax(s, 2.0)
        assert (np.diff(out) >= 0).all()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_stacked_temperatures_match_one_softmax_each(self, rng, dtype):
        scores = rng.normal(size=(3, 7)).astype(dtype)
        taus = (1.0, 2.0, 5.0)
        tape = ad.Tape()
        stacked = tape.val(tape.softmax(tape.leaf(scores), taus, axis=1))
        assert stacked.shape == (3, 3, 7) and stacked.dtype == dtype
        for head, tau in enumerate(taus):
            single = tape.val(tape.softmax(tape.leaf(scores), tau, axis=1))
            assert np.allclose(stacked[head], single, rtol=0, atol=1e-15)

    def test_stacked_non_positive_temperature_rejected(self):
        tape = ad.Tape()
        for taus in ((1.0, 0.0), (1.0, float("nan")), ()):
            with pytest.raises(ContractError):
                tape.softmax(tape.leaf(np.ones(3)), taus)

    @pytest.mark.parametrize("taus", [(1.0,), (1.0, 2.0, 5.0)])
    @pytest.mark.parametrize("shape,axis", [((6,), 0), ((4, 6), 1)])
    def test_stacked_adjoint_matches_finite_differences(self, rng, taus, shape, axis):
        tensors = {"s": rng.normal(size=shape)}
        probe = rng.normal(size=(len(taus),) + shape)

        def f(p):
            tape = ad.Tape()
            out = tape.softmax(tape.leaf(p["s"], name="s"), taus, axis=axis)
            loss = tape.sum(tape.mul(out, tape.leaf(probe)), axis=tuple(range(probe.ndim)))
            return float(tape.val(loss)), gradients(tape, loss)

        result = ad.finite_diff_check(f, tensors, step=1e-6)
        assert result.max_rel_error < 1e-6


class TestNce:
    """-t . log(max(p, 1e-12)) as one node, the loss of each branch; its closed
    forms and shape check are in test_losses.py::TestNceLoss."""

    def test_value_is_clamped_cross_entropy(self, rng):
        p = rng.dirichlet(np.ones(5))
        p[2] = 0.0  # below the floor
        t = rng.dirichlet(np.ones(5))
        tape = ad.Tape()
        value = tape.val(tape.nce(tape.leaf(p), t))
        assert value.shape == ()
        assert float(value) == -(t * np.log(np.maximum(p, 1e-12))).sum()

    def test_adjoint_matches_finite_differences_and_is_zero_below_the_floor(self, rng):
        # p[1] lies far enough below the floor that the probes at +-step stay clamped
        tensors = {"p": np.array([0.4, -0.25, 0.15, 0.45])}
        t = rng.dirichlet(np.ones(4))

        def f(params):
            tape = ad.Tape()
            loss = tape.nce(tape.leaf(params["p"], name="p"), t)
            return float(tape.val(loss)), gradients(tape, loss)

        grad = f(tensors)[1]["p"]
        assert grad[1] == 0.0
        assert np.allclose(grad[[0, 2, 3]], -t[[0, 2, 3]] / tensors["p"][[0, 2, 3]],
                           rtol=1e-15, atol=0)
        assert ad.finite_diff_check(f, tensors, step=1e-6).max_rel_error < 1e-6


class TestTemporalConv:
    # weights are tap-major (k*d_in, d_out): row block i is the slice of tap i
    def run(self, x, w, b, dtype=float):
        """The conv before the op's ReLU: y = relu(y) - relu(-y), and negated
        weights and bias give exactly -y."""
        def layer(sign):
            tape = ad.Tape()
            out = tape.temporal_conv(tape.leaf(np.asarray(x, dtype)),
                                     tape.leaf(sign * np.asarray(w, dtype)),
                                     tape.leaf(sign * np.asarray(b, dtype)))
            return tape.val(out)

        return layer(1) - layer(-1)

    def test_identity_kernel(self, rng):
        x = rng.normal(size=(5, 3))
        w = np.eye(3)  # k=1 identity
        assert np.array_equal(self.run(x, w, np.zeros(3)), x)

    def test_summing_kernel_hand_convolution(self):
        # constant rows [1, 2]; k=3 all-ones kernel sums a 3-row window of
        # both channels: interior 3*(1+2)=9, boundaries see one zero row
        x = np.tile([1.0, 2.0], (4, 1))
        w = np.ones((3 * 2, 1))
        out = self.run(x, w, np.zeros(1))
        assert out == pytest.approx(np.array([[6.0], [9.0], [9.0], [6.0]]))

    def test_single_snippet(self, rng):
        x = rng.normal(size=(1, 3))
        w = rng.normal(size=(3 * 3, 2))
        out = self.run(x, w, np.zeros(2))
        # only the center tap touches data
        assert out == pytest.approx(x @ w[3:6])

    def test_empty_sequence(self):
        with pytest.raises(InputError):
            self.run(np.zeros((0, 3)), np.ones((3 * 3, 1)), np.zeros(1))

    def test_length_preserved(self, rng):
        out = self.run(rng.normal(size=(9, 4)), rng.normal(size=(3 * 4, 6)), rng.normal(size=6))
        assert out.shape == (9, 6)

    def test_rows_not_a_multiple_of_input_width(self, rng):
        with pytest.raises(ContractError, match="shapes"):
            self.run(rng.normal(size=(5, 4)), rng.normal(size=(10, 2)), np.zeros(2))

    def test_even_kernel_rejected(self, rng):
        with pytest.raises(ContractError, match="odd"):
            self.run(rng.normal(size=(5, 4)), rng.normal(size=(2 * 4, 2)), np.zeros(2))

    def test_old_rank_three_layout_rejected(self, rng):
        with pytest.raises(ContractError, match="rank"):
            self.run(rng.normal(size=(5, 4)), rng.normal(size=(2, 4, 3)), np.zeros(2))

    @pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-5), (np.float64, 1e-12)])
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_matches_per_tap_oracle(self, rng, k, dtype, tol):
        for t in (1, 2, 7):
            x = rng.normal(size=(t, 4))
            w = rng.normal(size=(k * 4, 3))
            b = rng.normal(size=3)
            out = self.run(x, w, b, dtype)
            assert out.dtype == dtype
            expected = conv_reference(x.astype(dtype), w.astype(dtype), b.astype(dtype))
            assert np.allclose(out, expected, rtol=tol, atol=tol)

    def test_tape_holds_no_windows(self, rng):
        # the adjoint rebuilds the (T, k*d_in) windows from the input's value
        config, params = tiny_model()
        tape, _ = run_forward(rng.normal(size=(9, 6)), params, config, dropout_seed=0)
        convs = [node for node in tape.nodes if node.op == "temporal_conv"]
        assert len(convs) == 2
        for node in convs:
            assert not [v for v in node.ctx.values() if isinstance(v, np.ndarray)]

    @staticmethod
    def dropout_mask(t, d_out, dtype, keep=0.5):
        """Every other entry kept, at 1/keep, and row 1 dropped whole."""
        mask = (np.arange(t * d_out).reshape(t, d_out) % 2 == 0).astype(dtype) / keep
        mask[1] = 0
        return mask

    def conv_loss(self, probe, mask=None, keep=1.0):
        def f(p):
            tape = ad.Tape()
            refs = [tape.leaf(p[name], name=name) for name in ("x", "w", "b")]
            out = tape.temporal_conv(*refs, mask, keep)
            loss = tape.sum(tape.mul(out, tape.leaf(probe)), axis=(0, 1))
            return float(tape.val(loss)), gradients(tape, loss)

        return f

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_adjoint_matches_finite_differences(self, rng, k):
        tensors = {"x": rng.normal(size=(4, 3)), "w": rng.normal(size=(k * 3, 2)),
                   "b": rng.normal(size=2)}
        f = self.conv_loss(rng.normal(size=(4, 2)))
        _, grads = f(tensors)
        assert grads["w"].flags.c_contiguous
        result = ad.finite_diff_check(f, tensors, step=1e-5)
        assert result.max_rel_error < 1e-6

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_value_is_relu_of_masked_conv_bit_for_bit(self, rng, k, dtype):
        # small integers keep every sum exact, so the tap order cannot move a bit
        x = rng.integers(-4, 5, size=(6, 4)).astype(dtype)
        w = rng.integers(-3, 4, size=(k * 4, 5)).astype(dtype)
        b = rng.integers(-2, 3, size=5).astype(dtype)
        for keep in (0.5, 0.8):
            mask = self.dropout_mask(6, 5, dtype, keep)
            tape = ad.Tape()
            out = tape.val(tape.temporal_conv(tape.leaf(x), tape.leaf(w), tape.leaf(b),
                                              mask, keep))
            expected = np.maximum(conv_reference(x, w, b) * mask, 0)
            assert out.dtype == expected.dtype == dtype
            assert out.tobytes() == expected.tobytes()
            assert not out[1].any() and (out > 0).any()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("t", [1, 2, 7, 130])
    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("d_in,d_out", [(64, 16), (128, 128)])
    def test_input_adjoint_equals_one_product_fold(self, rng, d_in, d_out, k, t, dtype):
        """dx is folded tap by tap: each entry is the dot product that the (T, k*d_in)
        product g @ w.T holds, added into the padded rows in the same order, so
        it is byte-equal unless BLAS runs the two products through different
        kernels. OpenBLAS's small-matrix kernels (AVX-512 builds) take a product
        of at most 1200 entries that sums 32 or more terms, and sum in another
        order; where T*d_in <= 1200 < T*k*d_in the last bits may differ."""
        keep = 0.5
        tape = ad.Tape()
        refs = [tape.leaf(rng.normal(size=shape).astype(dtype), name=name)
                for name, shape in (("x", (t, d_in)), ("w", (k * d_in, d_out)), ("b", d_out))]
        mask = (rng.random((t, d_out)) < keep).astype(dtype) / keep
        node = tape.nodes[tape.temporal_conv(*refs, mask, keep)]
        g = rng.normal(size=(t, d_out)).astype(dtype)
        dx = ad._conv_backward(node, g, [tape.val(r) for r in refs], [True] * 3)[0]
        gated = g * (node.value > 0) * node.ctx["inv_keep"]
        expected = conv_dx_reference(gated, tape.val(refs[1]), d_in)
        assert dx.dtype == expected.dtype == dtype and gated.any()
        if d_out >= 32 and t * d_in <= 1200 < t * k * d_in:
            tol = 1e-5 if dtype == np.float32 else 1e-13
            np.testing.assert_allclose(dx, expected, rtol=tol, atol=tol)
        else:
            assert dx.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_adjoint_with_fixed_mask_matches_finite_differences(self, rng, k):
        tensors = {"x": rng.normal(size=(4, 3)), "w": rng.normal(size=(k * 3, 2)),
                   "b": rng.normal(size=2)}
        f = self.conv_loss(rng.normal(size=(4, 2)), self.dropout_mask(4, 2, float, 0.8), 0.8)
        _, grads = f(tensors)
        if k == 1:  # row 1 is dropped whole, and at k=1 only that row reads x[1]
            assert not grads["x"][1].any()
        result = ad.finite_diff_check(f, tensors, step=1e-5)
        assert result.max_rel_error < 1e-6

    def test_mask_shape_checked(self, rng):
        tape = ad.Tape()
        refs = [tape.leaf(rng.normal(size=shape)) for shape in ((5, 3), (9, 2), (2,))]
        with pytest.raises(ContractError, match="mask"):
            tape.temporal_conv(*refs, np.ones((5, 3)), 1.0)


class TestBackward:
    def test_every_op_has_one_adjoint(self):
        # each tape op is one public Tape method plus one _BACKWARD entry
        public = {name for name, fn in vars(ad.Tape).items()
                  if callable(fn) and not name.startswith("_")}
        assert set(ad._BACKWARD) <= public
        assert public - set(ad._BACKWARD) == {"val", "leaf"}

    def test_sum_of_leaf_gives_ones(self, rng):
        tape = ad.Tape()
        w = tape.leaf(rng.normal(size=(3, 4)), name="w")
        loss = tape.sum(w, axis=(0, 1))
        grads = gradients(tape, loss)
        assert np.array_equal(grads["w"], np.ones((3, 4)))

    def test_self_cosine_is_stationary(self, rng):
        row = rng.normal(size=(1, 5))
        tape = ad.Tape()
        a = tape.leaf(row, name="a")
        loss = tape.sum(tape.cosine_rows(a, tape.leaf(row.copy()), 5.0), axis=(0, 1))
        grads = gradients(tape, loss)
        assert np.allclose(grads["a"], 0.0, atol=1e-9)

    def test_non_scalar_loss_rejected(self, rng):
        tape = ad.Tape()
        w = tape.leaf(rng.normal(size=(3, 4)), name="w")
        with pytest.raises(ContractError):
            gradients(tape, w)

    def test_unused_parameter_gets_zero_gradient(self, rng):
        tape = ad.Tape()
        used = tape.leaf(rng.normal(size=3), name="used")
        tape.leaf(rng.normal(size=4), name="unused")
        grads = gradients(tape, tape.sum(used, axis=0))
        assert np.array_equal(grads["unused"], np.zeros(4))

    def test_deterministic(self, rng):
        x = rng.normal(size=(4, 3))

        def once():
            tape = ad.Tape()
            a = tape.leaf(x, name="a")
            w = tape.leaf(np.eye(3))  # k=1 identity: the op is relu(a)
            loss = tape.sum(tape.softmax(tape.temporal_conv(a, w, tape.leaf(np.zeros(3))),
                                         2.0, axis=0), axis=(0, 1))
            return gradients(tape, loss)["a"]

        assert np.array_equal(once(), once())

    @staticmethod
    def model_grads(x, params, x_name):
        """backward over the tiny model's training loss, the features a leaf named x_name."""
        config = tiny_config()
        tape = ad.Tape()
        x_ref = tape.leaf(x, name=x_name)
        refs = ModelParams(**{k: tape.leaf(v, name=k) for k, v in params.as_dict().items()})
        out = forward_hybrid(tape, x_ref, refs, config, dropout_seed=5)
        loss_ref, _ = total_loss(tape, out, np.array([1.0, 0.0, 1.0]), LossWeights(),
                                 config.use_background)
        return gradients(tape, loss_ref)

    def test_conv_rule_is_told_the_unnamed_features_want_no_adjoint(self, rng, monkeypatch):
        _, params = tiny_model()
        x = rng.normal(size=(7, 6))
        conv_rule = ad._BACKWARD["temporal_conv"]
        seen = []  # wanted[0] per conv rule call: conv2 first, then conv1 on the features

        def spy(node, g, values, wanted):
            seen.append(wanted[0])
            return conv_rule(node, g, values, wanted)

        monkeypatch.setitem(ad._BACKWARD, "temporal_conv", spy)
        self.model_grads(x, params, None)
        assert seen == [True, False]
        seen.clear()
        self.model_grads(x, params, "x")
        assert seen == [True, True]

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("use_background", [True, False])
    def test_into_adds_what_the_returned_gradients_add(self, rng, dtype, use_background):
        # each parameter's complete gradient is added into the buffer once, so
        # from random buffers the bits are those of adding what the same tape
        # adds into zeros; w_action and w_fore are each read by two nodes
        config = tiny_config(use_background=use_background)
        params = init_params(config, seed=2, dtype=dtype)
        tape, out = run_forward(rng.normal(size=(40, 6)), params, config, dropout_seed=3)
        loss_ref, _ = total_loss(tape, out, np.array([1.0, 0.0, 1.0]), LossWeights(),
                                 use_background)
        acc0 = {k: rng.normal(size=v.shape).astype(dtype) for k, v in params.as_dict().items()}
        into = {k: v.copy() for k, v in acc0.items()}
        grads = gradients(tape, loss_ref)
        assert set(grads) == set(into)
        assert ad.backward(tape, loss_ref, into) is None
        for name, before in acc0.items():
            assert into[name].dtype == dtype
            assert into[name].tobytes() == (before + grads[name]).tobytes(), name

    def test_into_adds_a_leaf_read_twice_once_its_sum_is_complete(self):
        tape = ad.Tape()
        w = tape.leaf(np.array([3.0]), name="w")
        both = tape.add(tape.mul_const(w, 1e-16), tape.mul_const(w, 1e-16))
        into = {"w": np.array([1.0])}
        ad.backward(tape, tape.sum(both, axis=0), into=into)
        # 1 + 2e-16 rounds up to the next double; adding 1e-16 twice stays at 1.0
        assert into["w"][0] == 1.0000000000000002

    def test_into_leaves_an_unreached_leaf_untouched(self, rng):
        tape = ad.Tape()
        used = tape.leaf(rng.normal(size=3), name="used")
        tape.leaf(rng.normal(size=4), name="unused")
        loss = tape.sum(used, axis=0)
        unused = rng.normal(size=4)
        into = {"used": np.zeros(3), "unused": unused.copy()}
        ad.backward(tape, loss, into=into)
        assert np.array_equal(into["used"], np.ones(3))
        assert into["unused"].tobytes() == unused.tobytes()
        assert np.array_equal(gradients(tape, loss)["unused"], np.zeros(4))

    def test_into_adds_the_reached_part_of_a_leaf_with_an_unreached_consumer(self):
        tape = ad.Tape()
        w = tape.leaf(np.array([1.0, 2.0]), name="w")
        tape.mul_const(w, 5.0)  # before the loss, but the loss does not read it
        loss = tape.sum(tape.mul_const(w, 3.0), axis=0)
        into = {"w": np.array([10.0, 20.0])}
        ad.backward(tape, loss, into=into)
        assert np.array_equal(into["w"], [13.0, 23.0])

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_named_input_leaves_parameter_gradients_byte_equal(self, rng, dtype):
        # backward skips the adjoint of the unnamed raw-feature leaf; naming it
        # computes that adjoint but must not move a single parameter gradient bit
        _, params = tiny_model()
        params = params.astype(dtype)
        x = rng.normal(size=(7, 6)).astype(dtype)
        named, unnamed = (self.model_grads(x, params, name) for name in ("x", None))
        assert set(named) == set(unnamed) | {"x"}
        assert named["x"].shape == x.shape and np.abs(named["x"]).max() > 0
        for name, g in unnamed.items():
            assert g.dtype == named[name].dtype == dtype
            assert g.tobytes() == named[name].tobytes(), name


def full_loss_fn(x, y, config, dropout_seed=None):
    def f(tensors):
        params = ModelParams(**tensors)
        tape, out = run_forward(x, params, config, dropout_seed)
        loss_ref, _ = total_loss(tape, out, y, LossWeights(), config.use_background)
        return float(tape.val(loss_ref)), gradients(tape, loss_ref)

    return f


class TestFiniteDiffCheck:
    def test_polynomial(self):
        params = {"x": np.array([3.0])}
        result = ad.finite_diff_check(lambda p: (float(p["x"][0] ** 2), {"x": np.array([6.0])}),
                                      params, step=1e-5)
        assert result.max_rel_error < 1e-8

    def test_full_loss_three_snippets(self, rng):
        config, params = tiny_model(num_classes=2, feature_dim=4, embed_dims=(3, 3))
        x = rng.normal(size=(3, 4))
        y = np.array([1.0, 0.0])
        result = ad.finite_diff_check(full_loss_fn(x, y, config), params.as_dict(), step=1e-5)
        assert result.max_rel_error < 1e-4

    def test_detects_corrupted_backward_rule(self, rng):
        config, params = tiny_model(num_classes=2, feature_dim=4, embed_dims=(3, 3))
        x = rng.normal(size=(3, 4))
        y = np.array([1.0, 0.0])

        def f(tensors):
            p = ModelParams(**tensors)
            tape, out = run_forward(x, p, config)
            loss_ref, _ = total_loss(tape, out, y, LossWeights(), config.use_background)
            return float(tape.val(loss_ref)), gradients(tape, loss_ref, corrupt_op="softmax")

        result = ad.finite_diff_check(f, params.as_dict(), step=1e-5)
        assert result.max_rel_error > 1e-2

    def test_detects_corrupted_conv_rule_in_train_mode(self, rng):
        # the fused conv, dropout and ReLU adjoint, with this seed's dropout masks
        config, params = tiny_model()
        x = rng.normal(size=(6, 6))
        y = np.array([1.0, 0.0, 1.0])

        def f(tensors):
            p = ModelParams(**tensors)
            tape, out = run_forward(x, p, config, dropout_seed=2)
            loss_ref, _ = total_loss(tape, out, y, LossWeights(), config.use_background)
            return (float(tape.val(loss_ref)),
                    gradients(tape, loss_ref, corrupt_op="temporal_conv"))

        clean = full_loss_fn(x, y, config, dropout_seed=2)
        assert np.abs(clean(params.as_dict())[1]["conv1_w"]).max() > 0
        assert ad.finite_diff_check(clean, params.as_dict(), step=1e-5).max_rel_error < 1e-4
        result = ad.finite_diff_check(f, params.as_dict(), step=1e-5)
        assert result.max_rel_error > 1e-2

    def test_reports_worst_parameter(self, rng):
        config, params = tiny_model(num_classes=2, feature_dim=4, embed_dims=(3, 3))
        x = rng.normal(size=(2, 4))
        y = np.array([0.0, 1.0])
        result = ad.finite_diff_check(full_loss_fn(x, y, config), params.as_dict(), step=1e-5)
        name, index = re.fullmatch(r"(\w+)\[(\d+(?:, \d+)*)\]", result.where).groups()
        assert name in params.as_dict()
        assert len(index.split(", ")) == params.as_dict()[name].ndim

    def test_non_finite_reported_with_coordinate(self):
        params = {"x": np.array([0.5])}

        def f(p):
            # blows up on the positive-side probe
            return np.inf if p["x"][0] > 0.5 else float(p["x"][0]), {"x": np.array([1.0])}

        result = ad.finite_diff_check(f, params, step=1e-5)
        assert result.max_rel_error == np.inf
        assert result.where == "x[0]"

    def test_non_finite_evaluation_is_an_infinite_error_at_its_coordinate(self):
        # b[1]'s positive probe gives a NaN loss; every other coordinate has a
        # finite error, the largest at a[0]
        params = {"a": np.array([1.0]), "b": np.array([0.0, 2.0, 3.0])}

        def f(p):
            loss = p["a"][0] ** 2 + p["b"].sum()
            return (np.nan if p["b"][1] > 2.0 else loss,
                    {"a": np.array([2.1]), "b": np.ones(3)})

        result = ad.finite_diff_check(f, params, step=1e-5)
        assert result.max_rel_error == np.inf
        assert result.where == "b[1]"


def assert_same_tape(a, b):
    """Every node of two tapes has the same op, dtype and value bytes."""
    assert len(a.nodes) == len(b.nodes)
    for x, y in zip(a.nodes, b.nodes):
        assert x.op == y.op and x.inputs == y.inputs
        assert x.value.dtype == y.value.dtype and x.value.tobytes() == y.value.tobytes()


class TestTapeReplay:
    def test_replay_bit_identical(self, rng):
        config, params = tiny_model()
        x = rng.normal(size=(6, 6))
        tapes = []
        for _ in range(2):
            tape, out = run_forward(x, params, config, dropout_seed=11)
            total_loss(tape, out, np.array([1.0, 0, 1]), LossWeights(), True)
            tapes.append(tape)
        assert_same_tape(*tapes)

    def test_replay_bit_identical_float32(self, rng):
        config, params = tiny_model()
        x = rng.normal(size=(6, 6)).astype(np.float32)
        params = params.astype(np.float32)
        assert_same_tape(run_forward(x, params, config)[0], run_forward(x, params, config)[0])


class TestTapeMemory:
    # One train-mode forward and backward at T = D = embed = 256 in float32;
    # each T x 256 array is 0.26 MB. Peaks are traced allocation above the start.
    config = tiny_config(num_classes=20, feature_dim=256, embed_dims=(256, 256))
    params = init_params(config, seed=0, dtype=np.float32)
    x = np.random.default_rng(0).normal(size=(256, 256)).astype(np.float32)
    y = np.zeros(20)
    y[[3, 7]] = 1.0

    def test_train_step_into_the_batch_buffer_peaks_lower(self):
        # The trainer's path, gradients added into a preallocated accumulator:
        # 4.14 MB when backward returned every gradient for the caller to add and
        # folded conv dx through a T x k*d_in product; 3.33 MB with each
        # parameter's gradient added once its last consumer has run and dx
        # folded tap by tap. Zero buffers allocated inside the step, as
        # gradcheck does, add their 1.6 MB: 4.93 MB. When backward could also
        # return the gradients as each completed, that mode read 5.74 MB with
        # four tape nodes per conv layer and two normalized copies of x_e, and
        # 4.15 MB with one node per layer and one normalized x_e.
        acc = {k: np.zeros_like(v) for k, v in self.params.as_dict().items()}

        def step():
            tape, out = run_forward(self.x, self.params, self.config, dropout_seed=1)
            loss_ref, _ = total_loss(tape, out, self.y, LossWeights(), self.config.use_background)
            ad.backward(tape, loss_ref, acc)

        step()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - base) / 1e6 < 3.6
