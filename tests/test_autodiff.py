import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgx import autodiff as ad
from hgx import nn
from hgx.autodiff import Tensor
from hgx.hypergraph import segment_view
from oracles import hypergraphs_with_features


def pair_view(seg, num):
    """The view that reduces pair row ``i`` into segment ``seg[i]``."""
    return segment_view(np.arange(len(seg)), seg, num, len(seg))


def numeric_grad(build, t, h=1e-5):
    """Central-difference gradient of the scalar built by ``build`` with
    respect to every entry of tensor ``t`` (the independent oracle used
    throughout these tests)."""
    out = np.zeros_like(t.value)
    it = np.nditer(t.value, flags=["multi_index"])
    while not it.finished:
        ix = it.multi_index
        orig = t.value[ix]
        t.value[ix] = orig + h
        up = build().value.item()
        t.value[ix] = orig - h
        dn = build().value.item()
        t.value[ix] = orig
        out[ix] = (up - dn) / (2 * h)
        it.iternext()
    return out


def assert_grad_matches(build, t, tol=1e-6, h=1e-5):
    out = build()
    ad.zero_grads([t])
    out.backward()
    num = numeric_grad(build, t, h=h)
    denom = np.maximum(np.maximum(np.abs(t.grad), np.abs(num)), 1e-8)
    rel = np.abs(t.grad - num) / denom
    assert rel.max() < tol, f"max rel err {rel.max():.2e}"


class TestShapesAndValues:
    def test_scalar_wrap(self):
        t = Tensor(3.0)
        assert t.shape == (1, 1)

    def test_matmul_identity(self):
        x = np.arange(6.0).reshape(2, 3)
        out = ad.matmul(Tensor(np.eye(2)), Tensor(x))
        np.testing.assert_array_equal(out.value, x)

    def test_matmul_hand(self):
        out = ad.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]))
        np.testing.assert_array_equal(out.value, [[3.0], [7.0]])

    def test_matmul_shape_mismatch(self):
        with pytest.raises(ad.ShapeMismatchError):
            ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_backward_requires_scalar(self):
        t = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ad.NonScalarOutputError):
            ad.mul(t, t).backward()

    def test_broadcast_row_and_col(self):
        a = Tensor(np.ones((3, 4)))
        np.testing.assert_array_equal(ad.add(a, Tensor(np.ones((1, 4)))).value, 2 * np.ones((3, 4)))
        np.testing.assert_array_equal(ad.add(a, Tensor(np.ones((3, 1)))).value, 2 * np.ones((3, 4)))
        with pytest.raises(ad.ShapeMismatchError):
            ad.add(a, Tensor(np.ones((2, 4))))

    def test_segment_sum_values(self):
        x = Tensor(np.arange(8.0).reshape(4, 2))
        out = ad.segment_sum(x, pair_view(np.array([1, 0, 1, 1]), 3))
        np.testing.assert_array_equal(out.value, [[2.0, 3.0], [10.0, 13.0], [0.0, 0.0]])

    def test_segment_prod_values(self):
        x = Tensor([[2.0], [3.0], [5.0]])
        out = ad.segment_prod(x, pair_view(np.array([0, 0, 1]), 2))
        np.testing.assert_array_equal(out.value, [[6.0], [5.0]])

    def test_segment_softmax_sums_to_one(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(10, 1)))
        seg = np.array([0, 0, 0, 1, 1, 2, 2, 2, 2, 3])
        w = ad.segment_softmax(x, pair_view(seg, 4))
        sums = np.zeros((4, 1))
        np.add.at(sums, seg, w.value)
        np.testing.assert_allclose(sums, 1.0, atol=1e-12)

    def test_gather_rows(self):
        x = Tensor(np.arange(6.0).reshape(3, 2))
        out = ad.gather_rows(x, np.array([2, 0, 2]))
        np.testing.assert_array_equal(out.value, [[4.0, 5.0], [0.0, 1.0], [4.0, 5.0]])

    @pytest.mark.parametrize("idx", [[1.9], [0.0, 1.0], [True, False, True]])
    def test_gather_rows_rejects_non_integer_indices(self, idx):
        x = Tensor(np.arange(6.0).reshape(3, 2))
        with pytest.raises(ValueError, match="must be integers"):
            ad.gather_rows(x, np.array(idx))

    @pytest.mark.parametrize("idx", [[True, 2], [0, np.False_], ([1], [True])])
    def test_gather_rows_rejects_a_bool_among_int_indices(self, idx):
        x = Tensor(np.arange(6.0).reshape(3, 2))
        with pytest.raises(ValueError, match="must be integers"):
            ad.gather_rows(x, idx)

    @pytest.mark.parametrize("idx", [[-1], [0, -3], [3], [0, 2, 4]])
    def test_gather_rows_rejects_ids_outside_the_rows(self, idx):
        # a negative id used to count from the end of the rows
        x = Tensor(np.arange(6.0).reshape(3, 2))
        with pytest.raises(ValueError, match=r"in \[0, 3\)"):
            ad.gather_rows(x, np.array(idx))

    def test_concat_cols(self):
        a, b = Tensor(np.ones((2, 2))), Tensor(np.zeros((2, 3)))
        assert ad.concat_cols([a, b]).shape == (2, 5)


class TestGradients:
    def test_linear_is_exact(self):
        w = ad.parameter(np.array([[1.0, -2.0], [0.5, 3.0]]))
        x = np.array([[1.0, 2.0], [3.0, -1.0], [0.0, 4.0]])

        def build():
            return ad.sum_all(ad.matmul(Tensor(x), w))

        build().backward()
        num = numeric_grad(build, w)
        np.testing.assert_allclose(w.grad, num, rtol=1e-9, atol=1e-9)

    def test_matmul_grad(self):
        rng = np.random.default_rng(10)
        a = ad.parameter(rng.normal(size=(5, 4)))
        b = ad.parameter(rng.normal(size=(4, 3)))
        c = ad.constant(rng.normal(size=(5, 3)))

        def build():
            return ad.sum_all(ad.mul(ad.matmul(a, b), c))

        assert_grad_matches(build, a)
        assert_grad_matches(build, b)

    @pytest.mark.parametrize(
        "op",
        [
            ad.exp,
            ad.log,
            ad.sqrt,
            lambda t: ad.power(t, 1.7),
            lambda t: ad.power(t, -0.5),
        ],
    )
    def test_positive_domain_elementwise(self, op):
        rng = np.random.default_rng(11)
        t = ad.parameter(rng.uniform(0.5, 2.0, size=(3, 4)))
        c = ad.constant(rng.normal(size=(3, 4)))
        assert_grad_matches(lambda: ad.sum_all(ad.mul(op(t), c)), t)

    @pytest.mark.parametrize(
        "op",
        [
            ad.relu,
            lambda t: ad.leaky_relu(t, 0.2),
            ad.elu,
        ],
    )
    def test_activations(self, op):
        rng = np.random.default_rng(12)
        vals = rng.normal(size=(4, 3))
        vals[np.abs(vals) < 1e-2] += 0.1  # keep clear of the kink
        t = ad.parameter(vals)
        c = ad.constant(rng.normal(size=(4, 3)))
        assert_grad_matches(lambda: ad.sum_all(ad.mul(op(t), c)), t)

    def test_div_and_broadcast(self):
        rng = np.random.default_rng(13)
        a = ad.parameter(rng.normal(size=(4, 3)))
        b = ad.parameter(rng.uniform(0.5, 2.0, size=(4, 1)))

        def build():
            return ad.sum_all(ad.div(a, b))

        assert_grad_matches(build, a)
        assert_grad_matches(build, b)

    def test_segment_softmax_grad(self):
        rng = np.random.default_rng(15)
        t = ad.parameter(rng.normal(size=(7, 1)))
        seg = np.array([0, 0, 1, 1, 1, 2, 2])
        c = ad.constant(rng.normal(size=(7, 1)))
        assert_grad_matches(
            lambda: ad.sum_all(ad.mul(ad.segment_softmax(t, pair_view(seg, 3)), c)), t
        )

    def test_segment_sum_grad(self):
        rng = np.random.default_rng(16)
        t = ad.parameter(rng.normal(size=(6, 2)))
        seg = np.array([0, 2, 2, 1, 0, 2])
        c = ad.constant(rng.normal(size=(3, 2)))
        assert_grad_matches(
            lambda: ad.sum_all(ad.mul(ad.segment_sum(t, pair_view(seg, 3)), c)), t
        )

    def test_segment_prod_grad(self):
        rng = np.random.default_rng(17)
        t = ad.parameter(rng.uniform(0.5, 1.5, size=(7, 2)))
        seg = np.array([0, 0, 0, 1, 1, 2, 2])
        c = ad.constant(rng.normal(size=(3, 2)))
        assert_grad_matches(
            lambda: ad.sum_all(ad.mul(ad.segment_prod(t, pair_view(seg, 3)), c)), t
        )

    def test_segment_prod_zero_handling(self):
        # one zero in a segment: only the zero entry gets the gradient of
        # the product of the others; two zeros kill every gradient
        t = ad.parameter(np.array([[0.0], [3.0], [5.0], [0.0], [0.0], [2.0]]))
        seg = np.array([0, 0, 0, 1, 1, 1])
        out = ad.segment_prod(t, pair_view(seg, 2))
        ad.sum_all(out).backward()
        np.testing.assert_allclose(t.grad[:3, 0], [15.0, 0.0, 0.0])
        np.testing.assert_allclose(t.grad[3:, 0], [0.0, 0.0, 0.0])

    def test_gather_rows_grad(self):
        rng = np.random.default_rng(18)
        t = ad.parameter(rng.normal(size=(4, 2)))
        idx = np.array([0, 3, 3, 1])
        c = ad.constant(rng.normal(size=(4, 2)))
        assert_grad_matches(
            lambda: ad.sum_all(ad.mul(ad.gather_rows(t, idx), c)), t
        )

    def test_concat_cols_grad(self):
        rng = np.random.default_rng(19)
        a = ad.parameter(rng.normal(size=(3, 2)))
        b = ad.parameter(rng.normal(size=(3, 4)))
        c = ad.constant(rng.normal(size=(3, 6)))

        def build():
            return ad.sum_all(ad.mul(ad.concat_cols([a, b]), c))

        assert_grad_matches(build, a)
        assert_grad_matches(build, b)

    def test_row_sum_distributes_gradient(self):
        t = ad.parameter(np.arange(6.0).reshape(2, 3))
        ad.sum_all(ad.mul(ad.row_sum(t), ad.constant([[2.0], [3.0]]))).backward()
        np.testing.assert_array_equal(t.grad, [[2.0] * 3, [3.0] * 3])

    def test_diamond_reuse_accumulates_once_per_path(self):
        t = ad.parameter(np.array([[2.0]]))
        y = ad.mul(t, t)  # t^2, both parents are the same node
        ad.sum_all(y).backward()
        np.testing.assert_allclose(t.grad, [[4.0]])

    def test_dropout_zero_rate_is_identity(self):
        t = ad.parameter(np.ones((3, 3)))
        rng = np.random.default_rng(0)
        assert ad.dropout(t, 0.0, rng) is t

    @pytest.mark.parametrize("rate", [0.25, 0.5, 0.9])
    def test_dropout_scales_kept_entries_by_the_inverse_keep_rate(self, rate):
        out = ad.dropout(ad.parameter(np.ones((40, 50))), rate, np.random.default_rng(1))
        assert set(np.unique(out.value)) == {0.0, 1.0 / (1.0 - rate)}
        assert abs((out.value == 0).mean() - rate) < 0.05

    def test_dropout_repeats_for_a_seed(self):
        t = ad.parameter(np.random.default_rng(2).normal(size=(6, 5)))
        first, again, other = (ad.dropout(t, 0.5, nn.make_rng(s)).value for s in (3, 3, 4))
        assert np.array_equal(first, again)
        assert not np.array_equal(first, other)

    def test_dropout_grads_only_the_kept_entries(self):
        rng = np.random.default_rng(5)
        t = ad.parameter(rng.uniform(0.5, 1.5, size=(6, 5)))
        c = ad.constant(rng.normal(size=(6, 5)))
        out = ad.dropout(t, 0.5, rng)
        ad.sum_all(ad.mul(out, c)).backward()
        kept = out.value != 0
        assert 0 < kept.sum() < kept.size
        np.testing.assert_array_equal(t.grad[~kept], 0.0)
        np.testing.assert_array_equal(t.grad[kept], 2.0 * c.value[kept])


class TestTape:
    def test_results_of_constants_keep_no_tape(self):
        a = ad.constant(np.ones((2, 2)))
        mid = ad.exp(a)
        out = ad.mul(mid, a)
        assert not out.requires_grad
        assert out._parents == () and out._vjps == ()
        freed = weakref.ref(mid.value)  # Tensor has __slots__ and no weakref slot
        del mid
        gc.collect()
        assert freed() is None  # the result does not hold its constant inputs
        np.testing.assert_array_equal(out.value, np.e)


# --- segment reductions against the ufunc.at scatters they replaced --------


def ref_segment_sum(values, seg, num):
    """Reference: scatter-add rows into segments in row order."""
    out = np.zeros((num, values.shape[1]))
    np.add.at(out, seg, values)
    return out


def ref_segment_softmax(values, seg, num, g):
    """Reference: segment softmax and its vector-Jacobian product, both
    summed by scatter-add."""
    m = np.full((num, values.shape[1]), -np.inf)
    np.maximum.at(m, seg, values)
    e = np.exp(values - m[seg])
    out = e / ref_segment_sum(e, seg, num)[seg]
    return out, out * (g - ref_segment_sum(g * out, seg, num)[seg])


def ref_segment_prod(values, seg, num, g):
    """Reference: segment product by scatter-multiply in row order, and
    its vector-Jacobian product from leave-one-out products that count
    exact zeros."""
    out = np.ones((num, values.shape[1]))
    np.multiply.at(out, seg, values)
    is_zero = values == 0.0
    nonzero = np.where(is_zero, 1.0, values)
    prod_nz = np.ones((num, values.shape[1]))
    np.multiply.at(prod_nz, seg, nonzero)
    zc = ref_segment_sum(is_zero.astype(np.float64), seg, num)[seg]
    loo = np.where(zc == 0, prod_nz[seg] / nonzero,
                   np.where((zc == 1) & is_zero, prod_nz[seg], 0.0))
    return out, g[seg] * loo


@st.composite
def segment_cases(draw):
    """Unsorted, repeated segment ids with empty segments and possibly
    zero pairs, plus pair values (some exactly zero) and a pair gradient."""
    num = draw(st.integers(0, 6))
    pairs = draw(st.integers(0, 40)) if num else 0
    seg = np.array(draw(st.lists(st.integers(0, max(num - 1, 0)),
                                 min_size=pairs, max_size=pairs)), dtype=np.int64)
    width = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.normal(size=(pairs, width)) * rng.choice([0.0, 1.0, 1e6], size=(pairs, 1))
    return seg, num, values, rng.normal(size=(pairs, width))


class TestSegmentPrimitives:
    @settings(max_examples=200, deadline=None)
    @given(segment_cases())
    def test_segment_sum_matches_scatter(self, case):
        seg, num, values, _ = case
        out = ad.segment_sum(Tensor(values), pair_view(seg, num)).value
        assert out.shape == (num, values.shape[1])
        assert np.array_equal(out, ref_segment_sum(values, seg, num))

    @settings(max_examples=200, deadline=None)
    @given(segment_cases())
    def test_gather_rows_backward_matches_scatter(self, case):
        idx, rows, _, g = case
        a = ad.parameter(np.zeros((rows, g.shape[1])))
        out = ad.gather_rows(a, idx)
        grad = out._vjps[0](g)
        assert grad.shape == a.shape
        assert np.array_equal(grad, ref_segment_sum(g, idx, rows))

    @settings(max_examples=200, deadline=None)
    @given(segment_cases())
    def test_segment_softmax_matches_scatter(self, case):
        seg, num, values, g = case
        out = ad.segment_softmax(ad.parameter(values), pair_view(seg, num))
        want, want_grad = ref_segment_softmax(values, seg, num, g)
        assert np.array_equal(out.value, want)
        assert np.array_equal(out._vjps[0](g), want_grad)

    @settings(max_examples=200, deadline=None)
    @given(segment_cases())
    def test_segment_prod_matches_scatter(self, case):
        seg, num, values, g = case
        g_out = ref_segment_sum(g, seg, num)
        out = ad.segment_prod(ad.parameter(values), pair_view(seg, num))
        want, want_grad = ref_segment_prod(values, seg, num, g_out)
        np.testing.assert_array_equal(out.value, want)
        np.testing.assert_array_equal(out._vjps[0](g_out), want_grad)

    @settings(max_examples=50, deadline=None)
    @given(segment_cases(), st.integers(1, 4))
    def test_weighted_segment_sum_grad_check(self, case, cols):
        seg, num, _, g = case
        rng = np.random.default_rng(len(seg) * 7 + num)
        src = rng.integers(0, cols, size=len(seg))
        view = segment_view(src, seg, num, cols)
        dense = np.zeros((num, cols))
        np.add.at(dense, (seg, src), g[:, 0])
        a = ad.parameter(rng.normal(size=(cols, 2)))
        w = ad.parameter(g[:, :1])
        c = ad.constant(rng.normal(size=(num, 2)))
        out = ad.segment_sum(a, view, w)
        np.testing.assert_allclose(out.value, dense @ a.value, rtol=1e-12, atol=1e-12)
        report = nn.grad_check(lambda: ad.sum_all(ad.mul(ad.segment_sum(a, view, w), c)),
                               {"a": a, "w": w})
        assert report.max_rel_err < 1e-6, str(report)

    def test_segment_sum_shape_mismatch(self):
        view = segment_view([0, 2], [1, 0], 2, 3)
        with pytest.raises(ad.ShapeMismatchError):
            ad.segment_sum(Tensor(np.ones((4, 1))), view)
        with pytest.raises(ad.ShapeMismatchError):
            ad.segment_sum(Tensor(np.ones((3, 1))), view, np.ones((3, 1)))
        with pytest.raises(ad.ShapeMismatchError):
            ad.segment_softmax(Tensor(np.ones((3, 1))), view)


# --- segment_sum against the gather -> mul -> scatter chain it replaced ------


WEIGHTS = ["none", "constant", "tensor"]


def ref_weighted_sum(x, view, w, g):
    """Reference: gather the source rows, scale each by its pair weight
    and scatter-add them into segments in pair order; with the vector-
    Jacobian products of that chain for ``x`` and for the weights."""
    src, seg = view.src, view.seg
    out = ref_segment_sum(x[src] * w, seg, view.count)
    return (out, ref_segment_sum(g[seg] * w, src, view.src_count),
            (g[seg] * x[src]).sum(axis=1, keepdims=True))


def weighted_segment_sum(x, view, w, mode):
    """``segment_sum`` with the weights ``w`` passed as ``mode`` says."""
    if mode == "none":
        return ad.segment_sum(ad.parameter(x), view)
    return ad.segment_sum(ad.parameter(x), view, ad.parameter(w) if mode == "tensor" else w)


@st.composite
def view_cases(draw):
    """A view with unsorted segments, repeated sources, empty segments
    and possibly no pairs; source rows (some exactly zero, some large),
    signed pair weights with exact zeros, and an output gradient."""
    seg, num, _, _ = draw(segment_cases())
    src_count = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    src = rng.integers(0, src_count, size=len(seg))
    width = draw(st.sampled_from([1, 3, 16]))
    x = rng.normal(size=(src_count, width)) * rng.choice([0.0, 1.0, 1e6], size=(src_count, 1))
    w = rng.normal(size=(len(seg), 1)) * rng.choice([0.0, 1.0], size=(len(seg), 1))
    return segment_view(src, seg, num, src_count), x, w, rng.normal(size=(num, width))


class TestSegmentSumOnViews:
    @pytest.mark.parametrize("mode", WEIGHTS)
    @settings(max_examples=150, deadline=None)
    @given(view_cases())
    def test_matches_gather_mul_scatter(self, mode, case):
        view, x, w, g = case
        if mode == "none":
            w = np.ones_like(w)
        out = weighted_segment_sum(x, view, w, mode)
        want, want_dx, want_dw = ref_weighted_sum(x, view, w, g)
        assert np.array_equal(out.value, want)
        if mode == "tensor":
            assert np.array_equal(out._vjps[1](g), want_dw)
        # a shuffled view adds a source row's gradients segment by
        # segment, not in pair order: equal up to rounding
        dx = out._vjps[0](g)
        scale = ref_segment_sum(np.abs(g[view.seg] * w), view.src, view.src_count)
        assert np.abs(dx - want_dx).max(initial=0.0) <= 1e-9 * scale.max(initial=1e-12)

    @pytest.mark.parametrize("mode", WEIGHTS)
    @settings(max_examples=40, deadline=None)
    @given(case=hypergraphs_with_features(), seed=st.integers(0, 2**32 - 1))
    def test_x_grad_exact_on_incidence_views(self, mode, case, seed):
        hg, x = case
        inc = hg.incidence
        rng = np.random.default_rng(seed)
        for view in (inc.v2e, inc.e2v, *inc.pair_views):
            rows = rng.normal(size=(view.src_count, x.shape[1]))
            w = rng.normal(size=(len(view.seg), 1))
            if mode == "none":
                w = np.ones_like(w)
            g = rng.normal(size=(view.count, x.shape[1]))
            out = weighted_segment_sum(rows, view, w, mode)
            assert np.array_equal(out._vjps[0](g), ref_weighted_sum(rows, view, w, g)[1])
