import numpy as np
import pytest

from hgx import autodiff as ad
from hgx import nn
from hgx.autodiff import Tensor
from hgx.nn import EmptyMaskError, MlpSpec, cross_entropy_loss, grad_check, layer_norm
from hgx.optim import AdamState
from oracles import layer_norm_chain, worst_row


class TestMlp:
    def test_identity_single_layer(self):
        spec = MlpSpec((3, 3), activation="identity")
        params = {"m.w0": ad.parameter(np.eye(3)), "m.b0": ad.parameter(np.zeros((1, 3)))}
        x = np.random.default_rng(0).normal(size=(4, 3))
        out = nn.mlp_forward(spec, params, Tensor(x), "m")
        np.testing.assert_array_equal(out.value, x)

    def test_row_permutation_equivariance_bit_exact(self):
        rng = np.random.default_rng(5)
        spec = MlpSpec((4, 8, 3))
        params = nn.init_mlp_params(spec, rng, "m")
        x = rng.normal(size=(6, 4))
        perm = rng.permutation(6)
        out = nn.mlp_forward(spec, params, Tensor(x), "m").value
        out_perm = nn.mlp_forward(spec, params, Tensor(x[perm]), "m").value
        np.testing.assert_array_equal(out[perm], out_perm)

    def test_width_mismatch(self):
        spec = MlpSpec((4, 2))
        params = nn.init_mlp_params(spec, np.random.default_rng(0), "m")
        with pytest.raises(ad.ShapeMismatchError):
            nn.mlp_forward(spec, params, Tensor(np.ones((3, 5))), "m")

    def test_two_layer_relu_gradcheck(self):
        rng = np.random.default_rng(7)
        spec = MlpSpec((3, 5, 2))
        params = nn.init_mlp_params(spec, rng, "m")
        x = rng.normal(size=(4, 3)) + 0.3  # keep preactivations off relu kinks
        c = rng.normal(size=(4, 2))

        def build():
            return ad.sum_all(
                ad.mul(nn.mlp_forward(spec, params, Tensor(x), "m"), ad.constant(c))
            )

        assert worst_row(grad_check(build, params))["err"] < 1e-4

    def test_bad_specs(self):
        with pytest.raises(ValueError):
            MlpSpec((4,))
        with pytest.raises(ValueError):
            MlpSpec((4, 0))
        with pytest.raises(ValueError):
            MlpSpec((4, 2), activation="tanh")

    @pytest.mark.parametrize("widths", [(2.5, 3.9), (4, 2.0), (True, 3), (4, "3"), (4, None)])
    def test_non_integer_widths_rejected(self, widths):
        with pytest.raises(ValueError, match="widths must be integers"):
            MlpSpec(widths)

    def test_integer_like_widths_accepted(self):
        assert MlpSpec((np.int64(4), 3)).widths == (4, 3)


class TestLayerNorm:
    def _gb(self, width):
        return ad.parameter(np.ones((1, width))), ad.parameter(np.zeros((1, width)))

    def test_constant_row_collapses_to_zero(self):
        gain, bias = self._gb(4)
        out = layer_norm(Tensor(np.full((2, 4), 3.7)), gain, bias)
        np.testing.assert_allclose(out.value, 0.0, atol=1e-12)

    def test_two_point_row(self):
        gain, bias = self._gb(2)
        out = layer_norm(Tensor([[1.0, 3.0]]), gain, bias)
        np.testing.assert_allclose(out.value, [[-1.0, 1.0]], atol=1e-4)

    def test_gradcheck(self):
        rng = np.random.default_rng(9)
        x = ad.parameter(rng.normal(size=(3, 5)))
        gain = ad.parameter(rng.uniform(0.5, 1.5, size=(1, 5)))
        bias = ad.parameter(rng.normal(size=(1, 5)))
        c = rng.normal(size=(3, 5))
        params = {"x": x, "gain": gain, "bias": bias}

        def build():
            return ad.sum_all(ad.mul(layer_norm(x, gain, bias), ad.constant(c)))

        assert worst_row(grad_check(build, params))["err"] < 1e-5

    @staticmethod
    def _rows(kind, rng):
        if kind == "random":
            return rng.normal(size=(6, 5)) * rng.choice([1e-3, 1.0, 1e3], size=(6, 1))
        return np.full((2, 5), 3.7)  # the variance floor wins

    @staticmethod
    def _value_and_grads(norm, rows, gain, bias, c):
        params = [ad.parameter(rows), ad.parameter(gain), ad.parameter(bias)]
        out = norm(*params)
        ad.sum_all(ad.mul(out, ad.constant(c))).backward()
        return out.value, [t.grad for t in params]

    @pytest.mark.parametrize("kind", ["random", "constant"])
    def test_matches_the_op_chain(self, kind):
        # same forward ops in the same order; the analytic input gradient
        # rounds differently from the chain's twelve VJPs
        rng = np.random.default_rng(11)
        rows = self._rows(kind, rng)
        gain = rng.uniform(0.5, 1.5, size=(1, 5))
        bias = rng.normal(size=(1, 5))
        c = rng.normal(size=rows.shape)
        got, got_grads = self._value_and_grads(layer_norm, rows, gain, bias, c)
        want, want_grads = self._value_and_grads(layer_norm_chain, rows, gain, bias, c)
        assert np.array_equal(got, want)
        for g, w in zip(got_grads, want_grads):
            assert np.isfinite(g).all()
            assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max()

    def test_gain_and_bias_must_be_one_row_of_the_width(self):
        x = Tensor(np.ones((3, 4)))
        gain, bias = self._gb(4)
        for bad in (Tensor(np.ones((3, 4))), Tensor(np.ones((1, 3)))):
            with pytest.raises(ad.ShapeMismatchError):
                layer_norm(x, bad, bias)
            with pytest.raises(ad.ShapeMismatchError):
                layer_norm(x, gain, bad)


class TestCrossEntropy:
    def test_uniform_logits(self):
        logits = Tensor(np.zeros((3, 4)))
        loss = cross_entropy_loss(logits, np.array([0, 1, 3]), np.arange(3))
        np.testing.assert_allclose(loss.value.item(), np.log(4.0), atol=1e-12)

    def test_huge_margin_goes_to_zero(self):
        logits = np.full((2, 3), -50.0)
        logits[0, 1] = 50.0
        logits[1, 2] = 50.0
        loss = cross_entropy_loss(Tensor(logits), np.array([1, 2]), np.arange(2))
        assert loss.value.item() < 1e-12

    def test_mask_restricts_rows(self):
        logits = np.zeros((4, 2))
        logits[3] = [100.0, -100.0]  # wrong-class row, excluded by mask
        loss = cross_entropy_loss(Tensor(logits), np.array([0, 0, 0, 1]), np.arange(3))
        np.testing.assert_allclose(loss.value.item(), np.log(2.0), atol=1e-12)

    def test_empty_mask(self):
        with pytest.raises(EmptyMaskError):
            cross_entropy_loss(Tensor(np.zeros((2, 2))), np.array([0, 1]), np.array([]))

    @pytest.mark.parametrize("mask, match", [
        ([0.9], "must be integers"),
        ([True, False, True], "must be integers"),
        ([-1], r"in \[0, 3\)"),
        ([0, 5], r"in \[0, 3\)"),
    ])
    def test_bad_mask_rejected(self, mask, match):
        with pytest.raises(ValueError, match=match):
            cross_entropy_loss(Tensor(np.zeros((3, 2))), np.array([0, 1, 0]), np.array(mask))

    def test_a_bool_among_int_mask_ids_rejected(self):
        # np.asarray([True, 2]) is int64 [1, 2]: rows 1 and 2 would be scored
        with pytest.raises(ValueError, match="must be integers"):
            cross_entropy_loss(Tensor(np.zeros((3, 2))), np.array([0, 1, 0]), [True, 2])

    @pytest.mark.parametrize("labels, match", [
        ([0, -1, 1], r"label -1 not in \[0, 3\)"),
        ([0, 3, 1], r"label 3 not in \[0, 3\)"),
        ([0, 1, 2, 0], "one integer per row"),
        ([0, 1], "one integer per row"),
        ([0.0, 1.0, 2.0], "one integer per row"),
    ])
    def test_bad_labels_rejected(self, labels, match):
        with pytest.raises(ValueError, match=match):
            cross_entropy_loss(Tensor(np.zeros((3, 3))), np.array(labels), np.arange(3))

    def test_unmasked_labels_are_not_read(self):
        loss = cross_entropy_loss(Tensor(np.zeros((3, 2))), np.array([0, 1, -1]), np.arange(2))
        np.testing.assert_allclose(loss.value.item(), np.log(2.0), atol=1e-12)

    def test_gradcheck(self):
        rng = np.random.default_rng(21)
        logits = ad.parameter(rng.normal(size=(5, 4)))
        labels = np.array([0, 3, 1, 2, 2])
        mask = np.array([0, 2, 4])
        params = {"logits": logits}

        def build():
            return cross_entropy_loss(logits, labels, mask)

        assert worst_row(grad_check(build, params, h=1e-6))["err"] < 1e-6


class TestAdam:
    def test_zero_grad_zero_wd_unchanged(self):
        p = {"w": ad.parameter(np.array([[1.0, -2.0]]))}
        opt = AdamState(p, lr=0.1)
        before = p["w"].value.copy()
        p["w"].grad = np.zeros((1, 2))
        opt.step(p)
        np.testing.assert_array_equal(p["w"].value, before)

    def test_single_step_descends_quadratic(self):
        p = {"w": ad.parameter(np.array([[1.0]]))}
        opt = AdamState(p, lr=0.1)
        p["w"].grad = 2.0 * p["w"].value
        opt.step(p)
        assert p["w"].value.item() < 1.0

    def test_matches_scalar_recursion_and_converges(self):
        # independent oracle: the textbook Adam recursion on f(w) = w^2
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        w_ref, m, v = 1.0, 0.0, 0.0
        for t in range(1, 201):
            g = 2.0 * w_ref
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            mhat = m / (1 - b1**t)
            vhat = v / (1 - b2**t)
            w_ref -= lr * mhat / (np.sqrt(vhat) + eps)

        p = {"w": ad.parameter(np.array([[1.0]]))}
        opt = AdamState(p, lr=lr)
        for _ in range(200):
            p["w"].grad = 2.0 * p["w"].value
            opt.step(p)
        np.testing.assert_allclose(p["w"].value.item(), w_ref, rtol=1e-12)
        assert abs(p["w"].value.item()) < 1e-2

    def test_decoupled_weight_decay(self):
        p = {"w": ad.parameter(np.array([[2.0]]))}
        opt = AdamState(p, lr=0.5, weight_decay=0.1)
        p["w"].grad = np.zeros((1, 1))
        opt.step(p)
        # zero gradient: only the decay term lr*wd*w applies
        np.testing.assert_allclose(p["w"].value.item(), 2.0 - 0.5 * 0.1 * 2.0)

    def test_shape_mismatch(self):
        p = {"w": ad.parameter(np.ones((2, 2)))}
        opt = AdamState(p)
        p["w"].grad = np.ones((1, 2))
        with pytest.raises(ad.ShapeMismatchError):
            opt.step(p)

    @pytest.mark.parametrize("lr, weight_decay, match", [
        (float("nan"), 0.0, "lr must be finite and > 0, got nan"),
        (float("inf"), 0.0, "lr must be finite and > 0, got inf"),
        (0.0, 0.0, "lr must be finite and > 0, got 0.0"),
        (-1e-3, 0.0, "lr must be finite and > 0, got -0.001"),
        (1e-3, float("nan"), "weight_decay must be finite and >= 0, got nan"),
        (1e-3, float("inf"), "weight_decay must be finite and >= 0, got inf"),
        (1e-3, -0.1, "weight_decay must be finite and >= 0, got -0.1"),
    ])
    def test_bad_hyperparameters_rejected_at_construction(self, lr, weight_decay, match):
        with pytest.raises(ValueError, match=match):
            AdamState({"w": ad.parameter(np.ones((1, 1)))}, lr=lr, weight_decay=weight_decay)

    def test_unknown_parameter_named(self):
        opt = AdamState({"a": ad.parameter(np.ones((1, 1)))})
        p = {"a": ad.parameter(np.ones((1, 1))), "b": ad.parameter(np.ones((1, 1)))}
        with pytest.raises(ValueError, match="'b'"):
            opt.step(p)
        assert opt.step_count == 0 and p["a"].value.item() == 1.0

    def test_a_graph_recorded_before_a_step_gets_its_own_gradients(self):
        # the step rebinds the parameters' arrays, so the first backward
        # of a loss recorded before it reads the arrays its forward used
        rng = np.random.default_rng(0)
        p = {"x": ad.parameter(rng.normal(size=(3, 2))), "w": ad.parameter(rng.normal(size=(2, 2)))}
        c = ad.constant(rng.normal(size=(3, 2)))
        recorded = ad.sum_all(ad.mul(ad.matmul(p["x"], p["w"]), c))
        ad.sum_all(ad.mul(ad.matmul(p["x"], p["w"]), c)).backward()
        want = {k: t.grad.copy() for k, t in p.items()}
        AdamState(p, lr=0.1).step(p)
        ad.zero_grads(p.values())
        recorded.backward()
        for k, t in p.items():
            np.testing.assert_array_equal(t.grad, want[k])

    def test_a_second_backward_after_a_step_raises(self):
        # the first backward consumed the loss's tape, so a second one
        # raises whether or not a step ran in between
        rng = np.random.default_rng(0)
        p = {"x": ad.parameter(rng.normal(size=(3, 2))), "w": ad.parameter(rng.normal(size=(2, 2)))}
        loss = ad.sum_all(ad.mul(ad.matmul(p["x"], p["w"]), ad.constant(rng.normal(size=(3, 2)))))
        loss.backward()
        opt = AdamState(p, lr=0.1)
        opt.step(p)
        grads = {k: t.grad.copy() for k, t in p.items()}
        with pytest.raises(ad.ConsumedTapeError):
            loss.backward()
        for k, t in p.items():
            np.testing.assert_array_equal(t.grad, grads[k])


class TestGradCheckHarness:
    def test_one_row_per_entry_names_sorted_entries_in_c_order(self):
        params = {"b": ad.parameter(np.arange(4.0).reshape(2, 2)), "a": ad.parameter([[3.0]])}
        rows = grad_check(lambda: ad.sum_all(ad.mul(params["b"], params["b"])), params)
        assert [(r["param"], r["index"]) for r in rows] == [
            ("a", [0, 0]), ("b", [0, 0]), ("b", [0, 1]), ("b", [1, 0]), ("b", [1, 1])]
        assert set(rows[0]) == {"param", "index", "analytic", "central", "forward",
                                "backward", "err"}
        assert rows[0]["analytic"] == 0.0  # "a" is not in the loss
        assert [r["analytic"] for r in rows[1:]] == [0.0, 2.0, 4.0, 6.0]

    def test_linear_function_near_exact(self):
        w = ad.parameter(np.array([[1.5, -0.5], [2.0, 0.25]]))
        c = np.array([[1.0, 2.0], [3.0, 4.0]])
        params = {"w": w}

        def build():
            return ad.sum_all(ad.mul(w, ad.constant(c)))

        assert worst_row(grad_check(build, params))["err"] < 1e-9

    def test_rounding_of_a_large_loss_is_forgiven(self):
        # every loss near 1000 is rounded to ulp(1000) = 1.1e-13, so at
        # h = 1e-7 a difference moves in steps of 1.1e-6, a fifth of the
        # gradient 5.8e-6: here the central difference is 7% off
        w = ad.parameter([[1.0]])
        [row] = grad_check(lambda: ad.add(ad.constant(1000.0), ad.mul(w, ad.constant(5.8e-6))),
                           {"w": w}, h=1e-7)
        assert abs(row["central"] - row["analytic"]) > 0.05 * row["analytic"]
        assert row["err"] == 0.0

    def test_relu_kink_passes_on_the_backward_difference(self):
        w = ad.parameter([[0.0]])
        [row] = grad_check(lambda: ad.sum_all(ad.relu(w)), {"w": w})
        assert row["analytic"] == row["backward"] == 0.0
        assert row["forward"] == pytest.approx(1.0) and row["central"] == pytest.approx(0.5)
        assert row["err"] == 0.0

    @pytest.mark.parametrize("slope, offset, h", [(1e-3, 0.0, 1e-5), (1.0, 0.0, 1e-5),
                                                  (1e-3, 1000.0, 1e-7)])
    def test_a_vjp_one_percent_too_large_fails(self, slope, offset, h):
        # even at the slack of a loss near 1000 and h = 1e-7, an entry of
        # 1e-3 fails the loosest tolerance any test uses
        w = ad.parameter([[0.7]])

        def build():
            y = Tensor(slope * w.value, _parents=(w,), _vjps=(lambda g: 1.01 * slope * g,))
            return ad.add(ad.constant(offset), y)

        [row] = grad_check(build, {"w": w}, h=h)
        assert row["err"] > 1e-4

    def test_a_smooth_entry_is_judged_by_the_central_difference(self):
        # log at 0.5 with h = 1e-5: the one-sided differences sit 1e-5
        # relative from the slope, so a VJP that far off passes on them
        # unless they count only at a kink
        w = ad.parameter([[0.5]])

        def build():
            return Tensor(np.log(w.value), _parents=(w,), _vjps=(lambda g: (1 + 1e-5) * g / w.value,))

        [row] = grad_check(build, {"w": w})
        assert abs(row["analytic"] - row["backward"]) < 1e-6 * row["analytic"]
        assert row["err"] > 1e-6

    def test_a_nan_gradient_fails(self):
        w = ad.parameter(np.ones((2, 2)))
        bad = np.array([[1.0, np.nan], [1.0, 1.0]])

        def build():
            return Tensor(w.value.sum(), _parents=(w,), _vjps=(lambda g: g * bad,))

        rows = grad_check(build, {"w": w})
        assert [r["err"] for r in rows] == [0.0, np.inf, 0.0, 0.0]
        assert worst_row(rows)["err"] > 1e-4

    def test_a_nan_loss_at_a_perturbed_point_fails(self):
        w = ad.parameter(np.ones((1, 2)))

        def build():
            loss = ad.sum_all(w)
            if w.value[0, 1] > 1.0:
                loss.value[...] = np.nan
            return loss

        rows = grad_check(build, {"w": w})
        assert np.isnan(rows[1]["forward"]) and rows[1]["err"] == np.inf
        assert worst_row(rows)["err"] > 1e-4

    def test_nonscalar_rejected(self):
        w = ad.parameter(np.ones((2, 2)))
        with pytest.raises(ad.NonScalarOutputError):
            grad_check(lambda: ad.mul(w, w), {"w": w})
