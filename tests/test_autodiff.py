import gc
import sys
import tracemalloc
import types
import warnings
import weakref

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgx import autodiff as ad
from hgx import nn, rules
from hgx.allset import AllSetLayer, AllSetNetwork, DeepSetsPool, SetTransformerPool
from hgx.autodiff import Tensor
from hgx.hypergraph import from_edge_list, segment_view
from hgx.nn import MlpSpec
from oracles import hypergraphs_with_features, keep_all_backward, random_hypergraph, worst_row


def pair_view(seg, num):
    """The view that reduces pair row ``i`` into segment ``seg[i]``."""
    return segment_view(np.arange(len(seg)), seg, num, len(seg))


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

        assert worst_row(nn.grad_check(build, {"w": w}))["err"] < 1e-9

    def test_matmul_grad(self):
        rng = np.random.default_rng(10)
        a = ad.parameter(rng.normal(size=(5, 4)))
        b = ad.parameter(rng.normal(size=(4, 3)))
        c = ad.constant(rng.normal(size=(5, 3)))

        def build():
            return ad.sum_all(ad.mul(ad.matmul(a, b), c))

        assert worst_row(nn.grad_check(build, {"a": a, "b": b}))["err"] < 1e-6

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
        rows = nn.grad_check(lambda: ad.sum_all(ad.mul(op(t), c)), {"t": t})
        assert worst_row(rows)["err"] < 1e-6

    @pytest.mark.parametrize(
        "op",
        [
            ad.relu,
            ad.leaky_relu,
            ad.elu,
        ],
    )
    def test_activations(self, op):
        rng = np.random.default_rng(12)
        vals = rng.normal(size=(4, 3))
        vals[np.abs(vals) < 1e-2] += 0.1  # keep clear of the kink
        t = ad.parameter(vals)
        c = ad.constant(rng.normal(size=(4, 3)))
        rows = nn.grad_check(lambda: ad.sum_all(ad.mul(op(t), c)), {"t": t})
        assert worst_row(rows)["err"] < 1e-6

    def test_elu_of_large_entries_does_not_overflow(self):
        t = ad.parameter(np.array([[1000.0, -1000.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = ad.elu(t)
            rows = nn.grad_check(lambda: ad.sum_all(ad.elu(t)), {"t": t})
        np.testing.assert_array_equal(out.value, [[1000.0, -1.0]])
        assert worst_row(rows)["err"] < 1e-6

    def test_div_and_broadcast(self):
        rng = np.random.default_rng(13)
        a = ad.parameter(rng.normal(size=(4, 3)))
        b = ad.parameter(rng.uniform(0.5, 2.0, size=(4, 1)))

        def build():
            return ad.sum_all(ad.div(a, b))

        assert worst_row(nn.grad_check(build, {"a": a, "b": b}))["err"] < 1e-6

    def test_segment_softmax_grad(self):
        rng = np.random.default_rng(15)
        t = ad.parameter(rng.normal(size=(7, 1)))
        seg = np.array([0, 0, 1, 1, 1, 2, 2])
        c = ad.constant(rng.normal(size=(7, 1)))
        rows = nn.grad_check(
            lambda: ad.sum_all(ad.mul(ad.segment_softmax(t, pair_view(seg, 3)), c)), {"t": t}
        )
        assert worst_row(rows)["err"] < 1e-6

    def test_segment_sum_grad(self):
        rng = np.random.default_rng(16)
        t = ad.parameter(rng.normal(size=(6, 2)))
        seg = np.array([0, 2, 2, 1, 0, 2])
        c = ad.constant(rng.normal(size=(3, 2)))
        rows = nn.grad_check(
            lambda: ad.sum_all(ad.mul(ad.segment_sum(t, pair_view(seg, 3)), c)), {"t": t}
        )
        assert worst_row(rows)["err"] < 1e-6

    def test_segment_prod_grad(self):
        rng = np.random.default_rng(17)
        t = ad.parameter(rng.uniform(0.5, 1.5, size=(7, 2)))
        seg = np.array([0, 0, 0, 1, 1, 2, 2])
        c = ad.constant(rng.normal(size=(3, 2)))
        rows = nn.grad_check(
            lambda: ad.sum_all(ad.mul(ad.segment_prod(t, pair_view(seg, 3)), c)), {"t": t}
        )
        assert worst_row(rows)["err"] < 1e-6

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
        rows = nn.grad_check(
            lambda: ad.sum_all(ad.mul(ad.gather_rows(t, idx), c)), {"t": t}
        )
        assert worst_row(rows)["err"] < 1e-6

    def test_concat_cols_grad(self):
        rng = np.random.default_rng(19)
        a = ad.parameter(rng.normal(size=(3, 2)))
        b = ad.parameter(rng.normal(size=(3, 4)))
        c = ad.constant(rng.normal(size=(3, 6)))

        def build():
            return ad.sum_all(ad.mul(ad.concat_cols([a, b]), c))

        assert worst_row(nn.grad_check(build, {"a": a, "b": b}))["err"] < 1e-6

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
        first, again, other = (ad.dropout(t, 0.5, np.random.default_rng(s)).value for s in (3, 3, 4))
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


# extremes, subnormals and both zeros; 710 overflows exp, -745 is its last nonzero
SPECIAL_FLOATS = (0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 2.2250738585072014e-308,
                  -2.2250738585072014e-308, 709.8, 710.0, -745.0, 1e308, -1e308)
ENTRIES = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(allow_nan=False))
GRADS = st.floats(allow_nan=False, allow_infinity=False)


def same_bits(a, b):
    return a.shape == b.shape and (a.view(np.int64) == b.view(np.int64)).all()


class TestActivationsMatchSelections:
    """The branch-free activations against their ``np.where`` forms in
    ``oracles``, bit for bit, value and VJP alike."""

    @pytest.mark.parametrize("name", ["relu", "leaky_relu", "elu"])
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(ENTRIES, GRADS), min_size=1, max_size=40))
    def test_bit_identical_to_the_oracle(self, name, entries):
        a, g = (np.array(col).reshape(-1, 1) for col in zip(*entries))
        out = getattr(ad, name)(ad.parameter(a))
        value, slope = getattr(oracles, name)(a)
        assert same_bits(out.value, value)
        assert same_bits(out._vjps[0](g), g * slope)

    @pytest.mark.parametrize("name", ["relu", "leaky_relu", "elu"])
    def test_bit_identical_on_a_large_array(self, name):
        # numpy takes vectorized loops on long rows, scalar ones on short
        rng = np.random.default_rng(31)
        a = rng.normal(size=(600, 64)) * 10.0 ** rng.integers(-320, 300, size=(600, 64))
        special = rng.random(a.shape) < 0.05
        a[special] = rng.choice(SPECIAL_FLOATS, size=special.sum())
        g = rng.normal(size=a.shape)
        out = getattr(ad, name)(ad.parameter(a))
        value, slope = getattr(oracles, name)(a)
        assert same_bits(out.value, value)
        assert same_bits(out._vjps[0](g), g * slope)

    def test_relu_propagates_nan(self):
        """A NaN stays NaN: nothing is coerced silently to 0."""
        out = ad.relu(ad.constant(np.array([[np.nan, -1.0, 2.0]])))
        assert np.isnan(out.value[0, 0]) and out.value[0, 1:].tolist() == [0.0, 2.0]


class TestLinear:
    @staticmethod
    def _value_and_grads(op):
        rng = np.random.default_rng(30)
        x, w, b = (ad.parameter(rng.normal(size=shape)) for shape in ((5, 4), (4, 3), (1, 3)))
        out = op(x, w, b)
        ad.sum_all(ad.mul(out, ad.constant(rng.normal(size=(5, 3))))).backward()
        return [out.value, x.grad, w.grad, b.grad]

    def test_equals_add_of_matmul_bit_for_bit(self):
        got = self._value_and_grads(ad.linear)
        want = self._value_and_grads(lambda x, w, b: ad.add(ad.matmul(x, w), b))
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    @pytest.mark.parametrize("w_shape, b_shape", [
        ((3, 2), (1, 2)), ((4, 2), (1, 3)), ((4, 2), (5, 2)), ((4, 2), (2, 1)),
    ])
    def test_shape_mismatch(self, w_shape, b_shape):
        x = Tensor(np.ones((5, 4)))
        with pytest.raises(ad.ShapeMismatchError):
            ad.linear(x, Tensor(np.ones(w_shape)), Tensor(np.ones(b_shape)))

    def test_grad_check(self):
        rng = np.random.default_rng(31)
        params = {name: ad.parameter(rng.normal(size=shape))
                  for name, shape in (("x", (5, 4)), ("w", (4, 3)), ("b", (1, 3)))}
        c = ad.constant(rng.normal(size=(5, 3)))

        def build():
            return ad.sum_all(ad.mul(ad.linear(params["x"], params["w"], params["b"]), c))

        assert worst_row(nn.grad_check(build, params))["err"] < 1e-6


class TestTape:
    """The tape holds graph entries and VJPs, not values: an op result's
    node refers to its inputs' nodes, each VJP closes over the arrays it
    reads, and a constant input's VJP slot is ``None``.  So a value that
    no VJP reads is freed as soon as the caller drops its tensor.
    ``Tensor`` has ``__slots__`` and no weakref slot, so the weakrefs
    below point at values."""

    def test_results_of_constants_keep_no_tape(self):
        a = ad.constant(np.ones((2, 2)))
        mid = ad.exp(a)
        out = ad.mul(mid, a)
        assert not out.requires_grad
        assert out._node is None and out._vjps == ()
        out._vjps = ()  # as a tracer that wraps every VJP does
        with pytest.raises(ad.NoTapeError):
            out._vjps = (lambda g: g,)
        freed = weakref.ref(mid.value)
        del mid
        gc.collect()
        assert freed() is None  # the result does not hold its constant inputs
        np.testing.assert_array_equal(out.value, np.e)

    @staticmethod
    def _built(make, keep):
        """``make(mark)`` builds ``(out, params)`` and passes one
        intermediate through ``mark``.  Return a weakref to that
        intermediate's value, ``keep`` deciding whether the caller holds
        on to the tensor, and the parameters' gradients of ``sum(out)``."""
        marked = []

        def mark(t):
            marked.append(t)
            return t

        out, params = make(mark)
        ref = weakref.ref(marked[0].value)
        if not keep:
            marked.clear()
        gc.collect()
        alive = ref() is not None
        ad.sum_all(out).backward()
        return alive, [t.grad for t in params]

    @staticmethod
    def _linear_relu(mark):
        rng = np.random.default_rng(40)
        w, b = ad.parameter(rng.normal(size=(4, 3))), ad.parameter(rng.normal(size=(1, 3)))
        x = ad.constant(rng.normal(size=(5, 4)))
        return ad.relu(mark(ad.linear(x, w, b))), [w, b]

    @staticmethod
    def _add_layer_norm(mark):
        rng = np.random.default_rng(41)
        p, q, gain, bias = (ad.parameter(rng.normal(size=s))
                            for s in ((5, 4), (1, 4), (1, 4), (1, 4)))
        return nn.layer_norm(mark(ad.add(p, q)), gain, bias), [p, q, gain, bias]

    @staticmethod
    def _mul_by_constant(mark):
        rng = np.random.default_rng(42)
        p, q = ad.parameter(rng.normal(size=(5, 4))), ad.parameter(rng.normal(size=(5, 4)))
        return ad.mul(mark(ad.add(p, q)), ad.constant(rng.normal(size=(5, 4)))), [p, q]

    @staticmethod
    def _mul_by_parameter(mark):  # the control: ``mul`` reads x to give w's gradient
        rng = np.random.default_rng(42)
        p, q = ad.parameter(rng.normal(size=(5, 4))), ad.parameter(rng.normal(size=(5, 4)))
        w = ad.parameter(rng.normal(size=(5, 4)))
        return ad.mul(mark(ad.add(p, q)), w), [p, q, w]

    @pytest.mark.parametrize("make", ["_linear_relu", "_add_layer_norm", "_mul_by_constant"])
    def test_a_value_no_vjp_reads_is_freed_when_dropped(self, make):
        alive, grads = self._built(getattr(self, make), keep=False)
        assert not alive
        # and the backward is the one of a graph whose caller kept it
        _, want = self._built(getattr(self, make), keep=True)
        for got, w in zip(grads, want):
            assert np.array_equal(got, w)

    def test_a_value_a_vjp_reads_is_kept(self):
        alive, _ = self._built(self._mul_by_parameter, keep=False)
        assert alive

    def test_a_chain_retains_its_masks_not_its_values(self):
        rng = np.random.default_rng(0)
        x = ad.parameter(rng.normal(size=(2000, 64)))
        row = ad.parameter(rng.normal(size=(1, 64)))
        buffer = x.value.nbytes
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            h = x
            for _ in range(30):
                h = ad.relu(ad.add(h, row))
            out = ad.sum_all(h)
            del h
            gc.collect()
            retained = (tracemalloc.get_traced_memory()[0] - base) / buffer
        finally:
            tracemalloc.stop()
        # 30 boolean masks are 3.75 buffers; keeping every sum and every
        # relu output would be 60 more
        assert retained < 6
        out.backward()
        assert x.grad.shape == x.shape and row.grad.shape == row.shape

    def test_vjps_read_the_forward_arrays(self):
        rng = np.random.default_rng(43)
        x, w = ad.parameter(rng.normal(size=(5, 4))), ad.parameter(rng.normal(size=(4, 3)))
        c = ad.constant(rng.normal(size=(5, 3)))
        ad.sum_all(ad.mul(ad.matmul(x, w), c)).backward()
        want = [x.grad.copy(), w.grad.copy()]
        ad.zero_grads([x, w])
        out = ad.sum_all(ad.mul(ad.matmul(x, w), c))
        w.value = rng.normal(size=(4, 3))  # rebound between forward and backward
        out.backward()
        assert np.array_equal(x.grad, want[0]) and np.array_equal(w.grad, want[1])

    def test_writing_into_a_parameter_in_place_changes_its_graphs_gradients(self):
        rng = np.random.default_rng(43)
        x, w = ad.parameter(rng.normal(size=(5, 4))), ad.parameter(rng.normal(size=(4, 3)))
        c = rng.normal(size=(5, 3))
        out = ad.sum_all(ad.mul(ad.matmul(x, w), ad.constant(c)))
        w.value[...] = rng.normal(size=(4, 3))  # written into between forward and backward
        out.backward()
        np.testing.assert_allclose(x.grad, c @ w.value.T, rtol=1e-12)

    @pytest.mark.parametrize("make", [
        lambda: ad.constant(3.0),
        lambda: ad.sum_all(ad.exp(ad.constant(np.ones((2, 2))))),
    ])
    def test_backward_without_a_tape_raises(self, make):
        out = make()
        with pytest.raises(ad.NoTapeError):
            out.backward()
        assert out.grad is None

    def test_a_leaf_is_its_own_gradient(self):
        x = ad.parameter(2.0)
        x.backward()
        x.backward()
        np.testing.assert_array_equal(x.grad, [[2.0]])


def network_builder(pool, seed, n_max=20, m_max=12):
    """A two-layer AllSet network of ``pool()`` pools, width 8, on a
    random hypergraph: a function that builds its training loss from the
    current parameter values, and its parameters."""
    rng = np.random.default_rng(seed)
    hg = random_hypergraph(rng, n_max=n_max, m_max=m_max)
    x = rng.normal(size=(hg.n, 5))
    layers = [AllSetLayer(pool(), pool()) for _ in range(2)]
    net = AllSetNetwork(5, 3, layers, input_proj=MlpSpec((5, 8)))
    params = net.init_params(rng)
    labels = rng.integers(0, 3, size=hg.n)
    return (lambda: nn.cross_entropy_loss(net.forward(params, hg, x), labels,
                                          np.arange(hg.n))), params


def network_loss(pool, seed):
    """The training loss of ``network_builder(pool, seed)``, and its
    parameters."""
    build, params = network_builder(pool, seed)
    return build(), params


POOLS = {
    "deepsets": lambda: DeepSetsPool(MlpSpec((8, 8, 8)), MlpSpec((8, 8))),
    "settransformer": lambda: SetTransformerPool(heads=2, head_dim=4),
}


def rules_loss(seed):
    """The five classical rule layers, width 8, each with its own linear
    head: their summed training loss on a random hypergraph, and their
    parameters."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 21))
    # HyperGCN needs two members in every edge
    hg = from_edge_list(n, [rng.choice(n, size=rng.integers(2, 6), replace=False).tolist()
                            for _ in range(rng.integers(1, 13))])
    x = rng.normal(size=(hg.n, 5))
    params = {**rules.init_hgnn_params(rng, 5, 8), **rules.init_hcha_params(rng, 5, 8),
              **rules.init_hnhn_params(rng, 5, 8, 8), **rules.init_hypergcn_params(rng, 5, 8),
              **rules.init_hypersage_params(rng, 5, 8)}
    hidden = [rules.hgnn_layer(hg, x, params), rules.hcha_layer(hg, x, params),
              rules.hnhn_layer(hg, x, params)[1], rules.hypergcn_layer(hg, x, params),
              rules.hypersage_layer(hg, x, params, p=1)]
    head = MlpSpec((8, 3), activation="identity")
    labels = rng.integers(0, 3, size=hg.n)
    loss = None
    for i, h in enumerate(hidden):
        params.update(nn.init_mlp_params(head, rng, f"head{i}"))
        term = nn.cross_entropy_loss(nn.mlp_forward(head, params, h, f"head{i}"),
                                     labels, np.arange(hg.n))
        loss = term if loss is None else ad.add(loss, term)
    return loss, params


def captured(fn):
    """Everything the closure cells and defaults of ``fn`` hold, through
    the functions among them."""
    out, stack, seen = [], [fn], set()
    while stack:
        f = stack.pop()
        if id(f) in seen:
            continue
        seen.add(id(f))
        for v in [c.cell_contents for c in f.__closure__ or ()] + list(f.__defaults__ or ()):
            out.append(v)
            if isinstance(v, types.FunctionType):
                stack.append(v)
    return out


class TestTapeHoldsNoTensors:
    """The recorded graph of each model family refers to no op result's
    tensor: nodes point at nodes and leaves, and no VJP closes over a
    ``Tensor``, so every value in the tape is one a VJP reads."""

    @pytest.mark.parametrize("model", [*sorted(POOLS), "rules"])
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_no_vjp_captures_a_tensor(self, model, seed):
        loss, params = rules_loss(seed) if model == "rules" else network_loss(POOLS[model], seed)
        nodes, stack = {}, [loss._node]
        while stack:
            node = stack.pop()
            if id(node) not in nodes:
                nodes[id(node)] = node
                stack.extend(p for p in node.parents if isinstance(p, ad._Node))
        leaves = {id(t) for t in params.values()}
        vjps = 0
        for node in nodes.values():
            assert len(node.parents) == len(node.vjps)
            for parent, vjp in zip(node.parents, node.vjps):
                assert (parent is None) == (vjp is None)
                if isinstance(parent, Tensor):
                    assert id(parent) in leaves
                if vjp is not None:
                    vjps += 1
                    assert not [v for v in captured(vjp) if isinstance(v, Tensor)]
        assert vjps >= len(nodes)


class TestBackwardReleasesGradients:
    """After ``backward`` only leaves hold ``.grad``; the intermediate
    buffers are freed as soon as they have reached their parents."""

    def test_second_backward_raises_and_leaves_every_gradient_as_it_was(self):
        x = ad.parameter(np.array([[1.0, -2.0]]))
        w = ad.parameter(np.array([[0.5, 4.0]]))
        u = ad.parameter(np.array([[3.0, -1.0]]))
        shared = ad.mul(x, w)
        z = ad.sum_all(ad.mul(shared, ad.constant(3.0)))
        # a second root that shares only ``shared`` with the first: its
        # walk meets its own, unconsumed ``exp`` node before the consumed one
        other = ad.sum_all(ad.add(shared, ad.exp(u)))
        z.backward()
        once = {"x": x.grad.copy(), "w": w.grad.copy()}
        for root in (z, other):
            with pytest.raises(ad.ConsumedTapeError, match="earlier backward"):
                root.backward()
            np.testing.assert_array_equal(x.grad, once["x"])
            np.testing.assert_array_equal(w.grad, once["w"])
            assert u.grad is None
        assert issubclass(ad.ConsumedTapeError, ad.NoTapeError)

    @pytest.mark.parametrize("pool", sorted(POOLS))
    def test_a_network_loss_built_twice_gets_the_same_gradients(self, pool):
        # a leaf with several contributions sums them in the same order
        # each time, so a second loss from the same parameters gives
        # bit-identical gradients
        build, params = network_builder(POOLS[pool], 0)
        build().backward()
        once = {k: t.grad.copy() for k, t in params.items()}
        ad.zero_grads(params.values())
        build().backward()
        for k, t in params.items():
            np.testing.assert_array_equal(t.grad, once[k], err_msg=k)

    @pytest.mark.parametrize("pool", sorted(POOLS))
    def test_only_leaves_keep_gradients_and_they_match_a_keep_all_backward(self, pool):
        loss, params = network_loss(POOLS[pool], 1)
        want = keep_all_backward(loss)
        loss.backward()
        assert [e for e, _ in want if isinstance(e, ad._Node) and e.grad is not None] == []
        leaves = [(t, g) for t, g in want if isinstance(t, Tensor)]
        assert {id(t) for t in params.values()} <= {id(t) for t, _ in leaves}
        for t, g in leaves:
            np.testing.assert_array_equal(t.grad, g)

    def test_backward_peak_stays_a_few_buffers_above_the_tape(self):
        rng = np.random.default_rng(0)
        x = ad.parameter(rng.normal(size=(2000, 64)))
        row = ad.constant(rng.uniform(0.9, 1.1, size=(1, 64)))
        h = x
        for i in range(30):
            h = (ad.mul, ad.add, ad.sub)[i % 3](h, row)
        out = ad.sum_all(h)
        buffer = x.value.nbytes
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out.backward()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # ``x.grad`` is one buffer, the node being propagated and its
        # contribution two more; keeping every gradient would be 31
        assert peak < 4 * buffer


class TestBackwardConsumesTheTape:
    """``backward`` frees each array a VJP read once that VJP has run,
    so the loss outlives its tape."""

    @pytest.mark.parametrize("make", [ad.constant, lambda v: ad.exp(ad.parameter(v))],
                             ids=["constant", "op_result"])
    def test_an_array_only_a_vjp_holds_is_freed(self, make):
        rng = np.random.default_rng(0)
        w = ad.parameter(rng.normal(size=(3, 4)))
        x = make(rng.normal(size=(3, 4)))
        freed = weakref.ref(x.value)
        loss = ad.sum_all(ad.mul(x, w))
        del x
        assert freed() is not None  # w's VJP reads it
        loss.backward()
        assert freed() is None
        assert loss.value.shape == (1, 1)

    def test_the_input_of_an_mlps_second_linear_is_freed(self, monkeypatch):
        rng = np.random.default_rng(0)
        spec = MlpSpec((4, 6, 3))
        params = nn.init_mlp_params(spec, rng, "mlp")
        inputs = []
        linear = ad.linear

        def recording(x, w, b):
            inputs.append(weakref.ref(x.value))
            return linear(x, w, b)

        monkeypatch.setattr(ad, "linear", recording)
        loss = ad.sum_all(nn.mlp_forward(spec, params, ad.constant(rng.normal(size=(5, 4))),
                                         "mlp"))
        assert len(inputs) == 2 and inputs[1]() is not None
        loss.backward()
        assert inputs[1]() is None

    @pytest.mark.parametrize("pool", sorted(POOLS))
    def test_after_backward_only_the_gradients_stay(self, pool):
        build, params = network_builder(POOLS[pool], 3, n_max=2000, m_max=1500)
        build().backward()  # builds the hypergraph's cached views
        ad.zero_grads(params.values())
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            loss = build()
            tape = tracemalloc.get_traced_memory()[0] - base
            loss.backward()
            kept = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        grads = sum(sys.getsizeof(t.grad) for t in params.values())
        # the allowance covers the root node and Python's free lists
        allowance = 64 * 1024
        assert tape > 4 * (grads + allowance)
        assert kept <= grads + allowance, (kept, grads)


class TestFirstContributionIsNotShared:
    """A parent's first gradient is assigned, not added to zeros.  ``add``
    hands ``g`` itself to both operands and ``concat_cols`` views of it,
    so that assignment copies: otherwise a later ``+=`` into one
    operand's gradient would write into the other's."""

    @pytest.mark.parametrize("a_term_first", [False, True])
    def test_add_operands_get_separate_buffers(self, a_term_first):
        a = ad.parameter(np.ones((2, 3)))
        b = ad.parameter(np.ones((2, 3)))
        terms = [ad.mul(ad.add(a, b), ad.constant(2.0)), ad.mul(a, ad.constant(5.0))]
        ad.sum_all(ad.add(*(terms[::-1] if a_term_first else terms))).backward()
        np.testing.assert_array_equal(a.grad, 7.0)
        np.testing.assert_array_equal(b.grad, 2.0)

    @pytest.mark.parametrize("x_term_first", [False, True])
    def test_add_of_a_tensor_to_itself(self, x_term_first):
        x = ad.parameter(np.ones((2, 3)))
        terms = [ad.add(x, x), ad.mul(x, ad.constant(5.0))]
        ad.sum_all(ad.add(*(terms[::-1] if x_term_first else terms))).backward()
        np.testing.assert_array_equal(x.grad, 7.0)

    @pytest.mark.parametrize("a_term_first", [False, True])
    def test_concat_parts_do_not_write_into_a_sibling(self, a_term_first):
        a = ad.parameter(np.ones((2, 1)))
        b = ad.parameter(np.ones((2, 2)))
        d = ad.parameter(np.ones((2, 3)))
        s = ad.add(ad.concat_cols([a, b]), d)
        terms = [ad.sum_all(ad.mul(s, ad.constant(2.0))),
                 ad.sum_all(ad.mul(a, ad.constant(5.0)))]
        ad.add(*(terms[::-1] if a_term_first else terms)).backward()
        np.testing.assert_array_equal(a.grad, 7.0)
        np.testing.assert_array_equal(b.grad, 2.0)
        np.testing.assert_array_equal(d.grad, 2.0)


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
        rows = nn.grad_check(lambda: ad.sum_all(ad.mul(ad.segment_sum(a, view, w), c)),
                             {"a": a, "w": w})
        assert worst_row(rows)["err"] < 1e-6

    def test_segment_sum_shape_mismatch(self):
        view = segment_view([0, 2], [1, 0], 2, 3)
        with pytest.raises(ad.ShapeMismatchError):
            ad.segment_sum(Tensor(np.ones((4, 1))), view)
        with pytest.raises(ad.ShapeMismatchError):
            ad.segment_sum(Tensor(np.ones((3, 1))), view, np.ones((3, 1)))
        with pytest.raises(ad.ShapeMismatchError):
            ad.segment_softmax(Tensor(np.ones((3, 1))), view)


@st.composite
def block_cases(draw):
    """A view case whose rows hold ``k`` column blocks, with one weight
    column per block and an output gradient."""
    view, x, w, g = draw(view_cases())
    k = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x, g = np.tile(x, k) * rng.normal(size=k * x.shape[1]), np.tile(g, k)
    w = np.tile(w, k) * rng.normal(size=(len(w), k))
    return view, x, w, g, k


class TestBlockWeightedSegmentSum:
    @settings(max_examples=150, deadline=None)
    @given(block_cases())
    def test_blocks_equal_single_column_calls_bit_for_bit(self, case):
        view, x, w, g, k = case
        out = ad.segment_sum(ad.parameter(x), view, ad.parameter(w))
        dx, dw = out._vjps[0](g), out._vjps[1](g)
        width = x.shape[1] // k
        for j in range(k):
            cols = slice(j * width, (j + 1) * width)
            one = ad.segment_sum(ad.parameter(x[:, cols]), view, ad.parameter(w[:, j:j + 1]))
            assert np.array_equal(out.value[:, cols], one.value)
            assert np.array_equal(dx[:, cols], one._vjps[0](g[:, cols]))
            assert np.array_equal(dw[:, j:j + 1], one._vjps[1](g[:, cols]))

    def test_grad_check(self):
        rng = np.random.default_rng(32)
        view = segment_view([0, 2, 1, 2, 0], [1, 0, 1, 2, 1], 3, 3)
        x = ad.parameter(rng.normal(size=(3, 6)))
        w = ad.parameter(rng.normal(size=(5, 3)))
        c = ad.constant(rng.normal(size=(3, 6)))
        rows = nn.grad_check(lambda: ad.sum_all(ad.mul(ad.segment_sum(x, view, w), c)),
                             {"x": x, "w": w})
        assert worst_row(rows)["err"] < 1e-6

    @pytest.mark.parametrize("x_cols, w_shape",
                             [(5, (2, 2)), (4, (2, 0)), (4, (3, 2)), (4, (1, 2))])
    def test_shape_mismatch(self, x_cols, w_shape):
        # five columns do not split in two blocks, nor any in none; the
        # view has two pairs
        view = segment_view([0, 2], [1, 0], 2, 3)
        with pytest.raises(ad.ShapeMismatchError):
            ad.segment_sum(Tensor(np.ones((3, x_cols))), view, np.ones(w_shape))


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
