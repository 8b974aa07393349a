from itertools import combinations

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgx import allset
from hgx import autodiff as ad
from hgx import nn, rules
from hgx.allset import (
    AllSetLayer,
    AllSetNetwork,
    DeepSetsPool,
    MeanPool,
    PerAggregatorGuardError,
    ProductPool,
    SetTransformerPool,
    SumPool,
    WeightedSumPool,
)
from hgx.hypergraph import from_edge_list, segment_view
from hgx.nn import MlpSpec
from oracles import hypergraphs_with_features, random_hypergraph, worst_row


def aggregate_with_pair_order(pool, params, src, view, order, prefix="f"):
    """Evaluate a pool with the incidence pairs visited in a given order;
    permutation invariance means the result must not depend on it."""
    shuffled = segment_view(view.src[order], view.seg[order], view.count, view.src_count)
    return pool.aggregate(params, src, shuffled, prefix)


class TestFixedPools:
    def test_sum_single_edge(self):
        hg = from_edge_list(2, [[0, 1]])
        layer = AllSetLayer(SumPool(), SumPool())
        z = layer.v2e_forward({}, hg, np.array([[1.0], [10.0]]))
        np.testing.assert_array_equal(z.value, [[11.0]])

    def test_product_three_uniform(self):
        hg = from_edge_list(3, [[0, 1, 2]])
        layer = AllSetLayer(ProductPool(), SumPool())
        z = layer.v2e_forward({}, hg, np.array([[2.0], [3.0], [5.0]]))
        np.testing.assert_array_equal(z.value, [[30.0]])

    def test_e2v_sum_and_isolated_node(self):
        hg = from_edge_list(4, [[0, 1], [1, 2]])  # node 3 is isolated
        layer = AllSetLayer(SumPool(), SumPool())
        z = np.array([[5.0], [7.0]])
        out = layer.e2v_forward({}, hg, z)
        np.testing.assert_array_equal(out.value, [[5.0], [12.0], [7.0], [0.0]])

    def test_mean_pool(self):
        hg = from_edge_list(3, [[0, 1, 2]])
        layer = AllSetLayer(MeanPool(), MeanPool())
        z = layer.v2e_forward({}, hg, np.array([[3.0], [6.0], [9.0]]))
        np.testing.assert_array_equal(z.value, [[6.0]])

    def test_weighted_sum_pool(self):
        hg = from_edge_list(3, [[0, 1], [1, 2]])
        # edge 0's scale of 10 rides on its two pair weights
        pool = WeightedSumPool(np.array([1.0, 2.0, 3.0, 4.0]) * [10.0, 10.0, 1.0, 1.0])
        x = ad.constant(np.array([[1.0], [1.0], [1.0]]))
        out = pool.aggregate({}, x, hg.incidence.v2e, "w")
        np.testing.assert_array_equal(out.value, [[30.0], [7.0]])


class TestLearnedPools:
    def test_deepsets_identity_equals_sum_bit_exact(self):
        hg = from_edge_list(5, [[0, 1, 4], [2, 3], [1, 2, 3]])
        identity = MlpSpec((3, 3), activation="identity")
        pool = DeepSetsPool(identity, identity)
        params = {f"f.{mlp}.{name}": ad.parameter(value) for mlp in ("inner", "outer")
                  for name, value in (("w0", np.eye(3)), ("b0", np.zeros((1, 3))))}
        rng = np.random.default_rng(1)
        x = ad.constant(rng.normal(size=(5, 3)))
        got = pool.aggregate(params, x, hg.incidence.v2e, "f")
        want = SumPool().aggregate({}, x, hg.incidence.v2e, "f")
        np.testing.assert_array_equal(got.value, want.value)

    @settings(max_examples=100, deadline=None)
    @given(hypergraphs_with_features())
    def test_deepsets_with_identity_mlps_is_sum_pool(self, case):
        hg, x = case
        f = x.shape[1]
        identity = MlpSpec((f, f), activation="identity")
        pool = DeepSetsPool(identity, identity)
        params = {f"f.{mlp}.{name}": ad.parameter(value) for mlp in ("inner", "outer")
                  for name, value in (("w0", np.eye(f)), ("b0", np.zeros((1, f))))}
        edge_rows = np.resize(x, (hg.num_edges, f))  # x's rows, repeated as needed
        for view, rows in ((hg.incidence.v2e, x), (hg.incidence.e2v, edge_rows)):
            rows = ad.constant(rows)
            got = pool.aggregate(params, rows, view, "f")
            want = SumPool().aggregate({}, rows, view, "f")
            np.testing.assert_array_equal(got.value, want.value)

    def test_singleton_attention_weight_is_one(self):
        # |S| = 1: softmax over one logit is exactly 1, so the attended
        # row equals that element's value row
        rng = np.random.default_rng(2)
        pool = SetTransformerPool(heads=2, head_dim=3)
        params = pool.init_params(rng, 4, "f")
        row = rng.normal(size=(1, 4))
        pe = np.array([0])
        k0 = ad.matmul(ad.constant(row), ad.slice_cols(params["f.key.w0"], 0, 3))  # head 0
        logits = ad.row_sum(ad.mul(k0, ad.slice_cols(params["f.seed"], 0, 3)))
        w = ad.segment_softmax(logits, segment_view(np.arange(1), pe, 1, 1))
        np.testing.assert_allclose(w.value, [[1.0]], atol=1e-15)
        out = oracles.one_multiset(pool, params, row, "f")
        assert out.shape == (1, 6)
        assert np.isfinite(out.value).all()

    def test_attention_weights_sum_to_one_per_segment(self):
        rng = np.random.default_rng(3)
        hg = random_hypergraph(rng, n_max=8)
        pool = SetTransformerPool(heads=1, head_dim=4)
        params = pool.init_params(rng, 3, "f")
        x = ad.constant(rng.normal(size=(hg.n, 3)))
        pn, pe = hg.incidence.nodes, hg.incidence.edges
        k = ad.matmul(x, params["f.key.w0"])  # one head: the whole key map
        logits = ad.row_sum(ad.mul(ad.gather_rows(k, pn), ad.slice_cols(params["f.seed"], 0, 4)))
        by_edge = segment_view(np.arange(len(pe)), pe, hg.num_edges, len(pe))
        w = ad.segment_softmax(logits, by_edge).value
        sums = np.zeros((hg.num_edges, 1))
        np.add.at(sums, pe, w)
        np.testing.assert_allclose(sums, 1.0, atol=1e-12)

    @pytest.mark.parametrize("heads, head_dim", [
        (True, 4), (2, np.True_), (2.5, 3), (2, "3"), (0, 2), (2, -1),
    ])
    def test_set_transformer_widths_must_be_positive_integers(self, heads, head_dim):
        # heads=True used to give one head; 2.5 failed later, in MlpSpec
        with pytest.raises(ValueError, match="positive integers"):
            SetTransformerPool(heads=heads, head_dim=head_dim)

    def test_deepsets_gradcheck(self):
        rng = np.random.default_rng(5)
        pool = DeepSetsPool(MlpSpec((2, 4, 3)), MlpSpec((3, 3, 2)))
        params = pool.init_params(rng, 2, "f")
        rows = rng.normal(size=(5, 2)) + 0.2
        c = rng.normal(size=(1, 2))

        def build():
            return ad.sum_all(ad.mul(oracles.one_multiset(pool, params, rows), ad.constant(c)))

        assert worst_row(nn.grad_check(build, params))["err"] < 1e-4

    def test_settransformer_gradcheck(self):
        rng = np.random.default_rng(6)
        pool = SetTransformerPool(heads=2, head_dim=2)
        params = pool.init_params(rng, 3, "f")
        rows = rng.normal(size=(4, 3))
        c = rng.normal(size=(1, 4))

        def build():
            return ad.sum_all(
                ad.mul(oracles.one_multiset(pool, params, rows, "f"), ad.constant(c))
            )

        assert worst_row(nn.grad_check(build, params))["err"] < 1e-4


class TestSetTransformerOracle:
    @settings(max_examples=60, deadline=None)
    @given(case=hypergraphs_with_features(), heads=st.integers(1, 3),
           head_dim=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_aggregate_matches_the_segment_loop(self, case, heads, head_dim, seed):
        # the views hold isolated nodes' and 1-member edges' empty
        # segments; every parameter, layer-norm gains and biases too, is
        # moved off its initial value
        hg, x = case
        rng = np.random.default_rng(seed)
        pool = SetTransformerPool(heads=heads, head_dim=head_dim)
        params = pool.init_params(rng, x.shape[1], "f")
        for t in params.values():
            t.value += rng.normal(scale=0.5, size=t.shape)
        inc = hg.incidence
        for view in (inc.v2e, inc.e2v, inc.pair_views[0]):
            rows = rng.normal(size=(view.src_count, x.shape[1]))
            got = pool.aggregate(params, ad.constant(rows), view, "f").value
            want = oracles.set_transformer_pool(pool, params, rows, view, "f")
            assert np.abs(got - want).max(initial=0.0) < 1e-12


def tape_nodes(out):
    """The recorded nodes (op results' tape entries) reachable from ``out``."""
    seen, stack = {}, [out._node]
    while stack:
        node = stack.pop()
        if isinstance(node, ad._Node) and id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node.parents)
    return len(seen)


# SetTransformerPool(heads=2, head_dim=3).init_params(default_rng(7), 4, "f"):
# each key, its shape and the sum of its initial values, per head's
# column block for the key and value maps (drawn key0, value0, key1, value1)
SET_TRANSFORMER_INIT = [
    ("f.seed", (1, 6), -0.9434909250919423),
    ("f.key.w0", (4, 6), (0.40571260763829664, -3.0608830991060225)),
    ("f.value.w0", (4, 6), (-0.5176657908207544, 0.2898035029005147)),
    ("f.ln1.gain", (1, 6), 6.0),
    ("f.ln1.bias", (1, 6), 0.0),
    ("f.ln2.gain", (1, 6), 6.0),
    ("f.ln2.bias", (1, 6), 0.0),
    ("f.post.w0", (6, 6), 0.9821395163612645),
    ("f.post.b0", (1, 6), 0.0),
    ("f.post.w1", (6, 6), 0.1353118467600697),
    ("f.post.b1", (1, 6), 0.0),
]


class TestSetTransformerHeads:
    def test_tape_does_not_grow_with_the_heads(self):
        hg = from_edge_list(5, [[0, 1, 2], [2, 3], [4]])
        x = ad.constant(np.random.default_rng(0).normal(size=(5, 3)))
        sizes = set()
        for heads in (1, 8):
            pool = SetTransformerPool(heads=heads, head_dim=2)
            params = pool.init_params(np.random.default_rng(1), 3, "f")
            sizes.add(tape_nodes(pool.aggregate(params, x, hg.incidence.v2e, "f")))
        assert len(sizes) == 1

    def test_parameters_do_not_grow_with_the_heads(self):
        keys = [
            set(SetTransformerPool(heads=heads, head_dim=2).init_params(
                np.random.default_rng(1), 3, "f"))
            for heads in (1, 8)
        ]
        assert keys[0] == keys[1]

    def test_init_keys_and_draws_are_kept(self):
        params = SetTransformerPool(heads=2, head_dim=3).init_params(
            np.random.default_rng(7), 4, "f")

        def sums(name, t):
            if name in ("f.key.w0", "f.value.w0"):
                return tuple(float(block.sum()) for block in np.hsplit(t.value, 2))
            return float(t.value.sum())

        got = [(k, t.shape, sums(k, t)) for k, t in params.items()]
        assert got == SET_TRANSFORMER_INIT


class TestPermutationInvariance:
    @pytest.mark.parametrize(
        "make_pool",
        [
            lambda d: SumPool(),
            lambda d: MeanPool(),
            lambda d: ProductPool(),
            lambda d: DeepSetsPool(MlpSpec((d, 5, 4)), MlpSpec((4, 4))),
            lambda d: SetTransformerPool(heads=2, head_dim=3),
        ],
        ids=["sum", "mean", "product", "deepsets", "settransformer"],
    )
    @settings(max_examples=40, deadline=None)
    @given(case=hypergraphs_with_features(low=0.5), seed=st.integers(0, 2**32 - 1))
    def test_pair_order_invariance(self, make_pool, case, seed):
        hg, x = case
        rng = np.random.default_rng(seed)
        pool = make_pool(x.shape[1])
        params = pool.init_params(rng, x.shape[1], "f")
        xt = ad.constant(x)
        view = hg.incidence.v2e
        base = pool.aggregate(params, xt, view, "f").value
        order = rng.permutation(len(view.src))
        shuffled = aggregate_with_pair_order(pool, params, xt, view, order).value
        denom = max(np.abs(base).max(initial=0.0), 1e-12)
        assert np.abs(base - shuffled).max(initial=0.0) / denom < 1e-9

    def test_node_relabeling_equivariance(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            hg = random_hypergraph(rng, n_max=8)
            perm = rng.permutation(hg.n)
            hg_perm = from_edge_list(
                hg.n, [[int(perm[v]) for v in e] for e in hg.edges]
            )
            net = AllSetNetwork(
                in_dim=3,
                num_classes=2,
                layers=[AllSetLayer(SetTransformerPool(1, 4), SetTransformerPool(1, 4))],
            )
            params = net.init_params(np.random.default_rng(99))
            x = rng.normal(size=(hg.n, 3))
            x_perm = np.empty_like(x)
            x_perm[perm] = x
            base = net.forward(params, hg, x).value
            permuted = net.forward(params, hg_perm, x_perm).value
            base_perm = np.empty_like(base)
            base_perm[perm] = base
            denom = max(np.abs(base).max(), 1e-12)
            assert np.abs(base_perm - permuted).max() / denom < 1e-9


def relabel(hg, x, perm):
    """``hg`` and ``x`` with node v renamed to ``perm[v]``."""
    x_perm = np.empty_like(x)
    x_perm[perm] = x
    return from_edge_list(hg.n, [[int(perm[v]) for v in e] for e in hg.edges]), x_perm


# loop-side pools for the pair-state oracle, one per fixed pool
LOOP_POOLS = {
    SumPool: oracles.sum_rows,
    MeanPool: lambda rows: oracles.sum_rows(rows) / len(rows),
    ProductPool: lambda rows: rows.prod(axis=0),
}


def learned_pool(kind, in_dim):
    # elu, not relu: an empty multiset's zero row meets zero-initialized
    # biases exactly at relu's kink, and where several pair states sit at
    # kinks at once, no one difference matches the analytic gradient
    if kind == "deepsets":
        return DeepSetsPool(MlpSpec((in_dim, 4, 3), activation="elu"), MlpSpec((3, 3)))
    return SetTransformerPool(heads=2, head_dim=2)


class TestPerAggregatorVariant:
    def test_guard_rejects_large_instances(self):
        hg = from_edge_list(600, [list(range(600))] * 400)
        layer = AllSetLayer(SumPool(), SumPool(), variant="per_aggregator")
        with pytest.raises(PerAggregatorGuardError):
            layer.forward({}, hg, np.ones((600, 4)))

    def test_guard_counts_leave_one_out_pairs_not_features(self, monkeypatch):
        # one 4-member edge has 4 * 3 leave-one-out pairs, whatever the width
        hg = from_edge_list(5, [[0, 1, 2, 3]])
        layer = AllSetLayer(SumPool(), SumPool(), variant="per_aggregator")
        x = np.ones((5, 1000))
        monkeypatch.setattr(allset, "PER_AGGREGATOR_PAIR_GUARD", 12)
        np.testing.assert_array_equal(layer.forward({}, hg, x)[1].value[:4], 3.0)
        monkeypatch.setattr(allset, "PER_AGGREGATOR_PAIR_GUARD", 11)
        with pytest.raises(PerAggregatorGuardError):
            layer.forward({}, hg, x)

    def test_second_argument_rejected(self):
        with pytest.raises(ValueError):
            AllSetLayer(SumPool(), SumPool(), variant="per_aggregator",
                        use_second_argument=True)

    def test_layer_forward_routes_to_pair_variant(self):
        hg = from_edge_list(3, [[0, 1], [1, 2]])
        layer = AllSetLayer(SumPool(), SumPool(), variant="per_aggregator")
        x = np.array([[1.0], [10.0], [100.0]])
        z, out = layer.forward({}, hg, x)
        assert z is None
        np.testing.assert_array_equal(out.value, oracles.ce_prop_a(hg, x))

    def test_product_of_singleton_multiset_is_zero(self):
        # node 2's only edge has no other member: its pair state is the
        # pool's zero row for an empty multiset, not the empty product 1
        hg = from_edge_list(3, [[0, 1], [2]])
        layer = AllSetLayer(ProductPool(), SumPool(), variant="per_aggregator")
        _, out = layer.forward({}, hg, np.array([[2.0], [3.0], [5.0]]))
        np.testing.assert_array_equal(out.value, [[3.0], [2.0], [0.0]])

    def test_widths_follow_the_pools(self):
        layer = AllSetLayer(learned_pool("deepsets", 2), learned_pool("settransformer", 3),
                            variant="per_aggregator")
        assert layer.widths(2) == (0, 4)
        params = layer.init_params(np.random.default_rng(0), 2)
        assert params["layer.e2v.key.w0"].shape == (3, 4)

    @pytest.mark.parametrize("v2e", [SumPool, MeanPool, ProductPool])
    @pytest.mark.parametrize("e2v", [SumPool, MeanPool, ProductPool])
    @settings(max_examples=40, deadline=None)
    @given(case=hypergraphs_with_features(low=0.5))
    def test_fixed_pools_match_loop_oracle(self, v2e, e2v, case):
        # mean multiplies by the reciprocal of the count where the loop
        # divides: about one rounding per mean, compounded by a product
        # over up to 8 pair states
        hg, x = case
        layer = AllSetLayer(v2e(), e2v(), variant="per_aggregator")
        got = layer.forward({}, hg, x)[1].value
        want = oracles.pair_propagate(hg, x, LOOP_POOLS[v2e], LOOP_POOLS[e2v])
        if MeanPool in (v2e, e2v):
            np.testing.assert_allclose(got, want, rtol=16 * np.finfo(float).eps, atol=0.0)
        else:
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize(
        "kinds",
        [("deepsets", "deepsets"), ("settransformer", "settransformer"),
         ("deepsets", "settransformer")],
        ids=lambda k: "-".join(k),
    )
    @settings(max_examples=6, deadline=None)
    @given(case=hypergraphs_with_features())
    def test_grad_check_with_learned_pools(self, kinds, case):
        hg, x = case
        v2e = learned_pool(kinds[0], x.shape[1])
        e2v = learned_pool(kinds[1], v2e.out_dim(x.shape[1]))
        layer = AllSetLayer(v2e, e2v, variant="per_aggregator")
        rng = np.random.default_rng(int(x.shape[0]))
        params = layer.init_params(rng, x.shape[1])
        params["x"] = ad.parameter(x)
        c = ad.constant(rng.normal(size=(hg.n, layer.widths(x.shape[1])[1])))

        def build():
            out = layer.forward(params, hg, params["x"])[1]
            return ad.sum_all(ad.mul(out, c))

        assert worst_row(nn.grad_check(build, params))["err"] < 1e-4
        if max(map(len, hg.edges), default=0) > 1:
            assert np.abs(params["x"].grad).max() > 0

    @settings(max_examples=30, deadline=None)
    @given(case=hypergraphs_with_features(), seed=st.integers(0, 2**32 - 1))
    def test_node_relabelling_equivariance(self, case, seed):
        hg, x = case
        rng = np.random.default_rng(seed)
        v2e = learned_pool("deepsets", x.shape[1])
        layer = AllSetLayer(v2e, learned_pool("settransformer", 3),
                            variant="per_aggregator")
        params = layer.init_params(rng, x.shape[1])
        perm = rng.permutation(hg.n)
        base = layer.forward(params, hg, x)[1].value
        permuted = layer.forward(params, *relabel(hg, x, perm))[1].value
        denom = max(np.abs(base).max(), 1e-12)
        assert np.abs(permuted[perm] - base).max() / denom < 1e-9

    def test_network_chains_into_second_argument_layer(self):
        hg = from_edge_list(5, [[0, 1, 2], [2, 3], [1, 3, 4]])
        x = np.arange(10.0).reshape(5, 2)
        layers = [
            AllSetLayer(SumPool(), SumPool(), variant="per_aggregator"),
            AllSetLayer(SumPool(), SumPool(), use_second_argument=True),
        ]
        assert layers[0].widths(2) == (0, 2)
        net = AllSetNetwork(in_dim=2, num_classes=3, layers=layers)
        params = net.init_params(np.random.default_rng(4))
        assert net.forward(params, hg, x).shape == (5, 3)


class TestNetwork:
    def test_all_sum_network_reproduces_iterated_sums(self):
        rng = np.random.default_rng(9)
        for k in (1, 2, 3):
            hg = random_hypergraph(rng, n_max=8)
            x = rng.normal(size=(hg.n, 3))
            net = AllSetNetwork(
                in_dim=3,
                num_classes=3,
                layers=[AllSetLayer(SumPool(), SumPool()) for _ in range(k)],
            )
            params = net.init_params(rng)
            params["head.w0"].value[:] = np.eye(3)
            params["head.b0"].value[:] = 0.0
            expected = x
            for _ in range(k):
                expected = oracles.ce_prop_h(hg, expected)
            got = net.forward(params, hg, x).value
            np.testing.assert_allclose(got, expected, atol=1e-9)

    def test_logits_shape(self):
        rng = np.random.default_rng(10)
        hg = random_hypergraph(rng)
        net = AllSetNetwork(
            in_dim=4,
            num_classes=6,
            layers=[AllSetLayer(SetTransformerPool(2, 4), SetTransformerPool(2, 4))],
        )
        params = net.init_params(rng)
        out = net.forward(params, hg, rng.normal(size=(hg.n, 4)))
        assert out.shape == (hg.n, 6)
        assert np.isfinite(out.value).all()

    def test_dimension_chain_validation(self):
        with pytest.raises(ValueError):
            AllSetNetwork(in_dim=4, num_classes=2, layers=[])

    def test_second_argument_concatenation(self):
        hg = from_edge_list(3, [[0, 1], [1, 2]])
        layer = AllSetLayer(SumPool(), SumPool(), use_second_argument=True)
        x = np.array([[1.0], [2.0], [3.0]])
        z_prev = np.array([[10.0], [20.0]])
        z = layer.v2e_forward({}, hg, x, z_prev=z_prev)
        np.testing.assert_array_equal(z.value, [[3.0, 10.0], [5.0, 20.0]])

    @pytest.mark.parametrize(
        "make_e2v",
        [
            lambda i: SumPool(),
            # e2v input widths: 2 (layer 0), then v2e(4) + previous z(2) = 6
            lambda i: DeepSetsPool(MlpSpec(((2, 6)[i], 3)), MlpSpec((3, 2))),
        ],
        ids=["sum", "deepsets"],
    )
    def test_two_layer_second_argument_network(self, make_e2v):
        rng = np.random.default_rng(11)
        hg = from_edge_list(5, [[0, 1, 2], [1, 3], [2, 3, 4]])
        layers = [
            AllSetLayer(SumPool(), make_e2v(i), use_second_argument=True)
            for i in range(2)
        ]
        net = AllSetNetwork(in_dim=2, num_classes=3, layers=layers)
        params = net.init_params(rng)
        x = rng.normal(size=(5, 2))
        c = rng.normal(size=(5, 3))
        assert net.forward(params, hg, x).shape == (5, 3)

        def build():
            return ad.sum_all(ad.mul(net.forward(params, hg, x), ad.constant(c)))

        assert worst_row(nn.grad_check(build, params))["err"] < 1e-4

    def test_previous_edge_state_needs_one_row_per_edge(self):
        hg = from_edge_list(3, [[0, 1], [1, 2]])
        layer = AllSetLayer(SumPool(), SumPool(), use_second_argument=True)
        with pytest.raises(ad.ShapeMismatchError):
            layer.v2e_forward({}, hg, np.ones((3, 1)), z_prev=np.ones((3, 1)))

    @pytest.mark.parametrize("rate", [1.0, 1.5, -0.5, float("nan")])
    def test_dropout_rate_outside_unit_interval_rejected(self, rate):
        with pytest.raises(ValueError):
            AllSetNetwork(2, 2, [AllSetLayer(SumPool(), SumPool())], dropout=rate)
        with pytest.raises(ValueError):
            ad.dropout(ad.constant(np.ones((2, 2))), rate, np.random.default_rng(0))

    def test_training_dropout_without_rng_rejected(self):
        hg = from_edge_list(3, [[0, 1], [1, 2]])
        net = AllSetNetwork(
            in_dim=2, num_classes=2, layers=[AllSetLayer(SumPool(), SumPool())],
            dropout=0.5,
        )
        params = net.init_params(np.random.default_rng(13))
        with pytest.raises(ValueError):
            net.forward(params, hg, np.ones((3, 2)), training=True)

    def test_training_forward_with_dropout(self):
        rng = np.random.default_rng(14)
        hg = random_hypergraph(rng, n_max=8)
        net = AllSetNetwork(
            in_dim=3, num_classes=2, layers=[AllSetLayer(SumPool(), SumPool())],
            input_proj=MlpSpec((3, 4)), dropout=0.5,
        )
        params = net.init_params(rng)
        x = rng.normal(size=(hg.n, 3))
        evaluated = net.forward(params, hg, x, rng=np.random.default_rng(15)).value
        np.testing.assert_array_equal(net.forward(params, hg, x).value, evaluated)
        trained = net.forward(params, hg, x, rng=np.random.default_rng(15), training=True)
        again = net.forward(params, hg, x, rng=np.random.default_rng(15), training=True)
        np.testing.assert_array_equal(trained.value, again.value)
        assert not np.array_equal(trained.value, evaluated)
        ad.sum_all(trained).backward()
        assert all(np.isfinite(p.grad).all() for p in params.values())


def split_large_edges(hg):
    """``hg`` with every edge of 3 or more members replaced by its
    member pairs, the graph a clique expansion sees."""
    edges = []
    for e in hg.edges:
        edges.extend([e] if len(e) < 3 else [list(pair) for pair in combinations(e, 2)])
    return from_edge_list(hg.n, edges)


class TestExpressivenessWitness:
    @settings(max_examples=200, deadline=None)
    @given(hypergraphs_with_features(low=0.0))
    def test_clique_expansion_blind_to_what_sum_sum_layer_sees(self, case):
        # CEpropA cannot tell an edge from its member pairs; the Sum/Sum
        # layer CEpropH counts each node once more per pair than per edge
        hg, x = case
        pairs = split_large_edges(hg)
        extra = np.array([sum(len(e) - 2 for e in hg.edges if v in e and len(e) >= 3)
                          for v in range(hg.n)], dtype=float).reshape(-1, 1) * x
        for g in (hg, pairs):
            np.testing.assert_array_equal(rules.ce_prop_a(g, x).value, oracles.ce_prop_a(g, x))
            np.testing.assert_array_equal(rules.ce_prop_h(g, x).value, oracles.ce_prop_h(g, x))
        np.testing.assert_allclose(rules.ce_prop_a(pairs, x).value,
                                   rules.ce_prop_a(hg, x).value, rtol=1e-12, atol=0)
        np.testing.assert_allclose(rules.ce_prop_h(pairs, x).value,
                                   rules.ce_prop_h(hg, x).value + extra, rtol=1e-12, atol=0)
        if extra.any():
            assert not np.allclose(rules.ce_prop_h(pairs, x).value, rules.ce_prop_h(hg, x).value)

    def test_product_rule_unreachable_by_normalized_linear_layer(self):
        # two 3-uniform edges sharing the pair {0, 1}: the degree-based
        # two-stage aggregation gives nodes 0 and 1 identical rows for
        # every parameter choice, while the product rule separates them
        hg = from_edge_list(4, [[0, 1, 2], [0, 1, 3]])
        x = np.array([[1.0], [2.0], [4.0], [8.0]])
        target = oracles.z_prop(hg, x, 3)
        np.testing.assert_allclose(target[:, 0], [48.0, 24.0, 4.0, 4.0])

        # (d - 1) times the pair-state product layer reproduces the target
        layer = AllSetLayer(ProductPool(), SumPool(), variant="per_aggregator")
        got = 2 * layer.forward({}, hg, x)[1].value
        np.testing.assert_allclose(got, target, atol=1e-12)

        # aggregated rows for nodes 0 and 1 coincide: HGNN with Theta = I
        # and b = 0 on positive x, where its relu passes every entry
        agg = oracles.hgnn_layer(hg, x, np.eye(1), np.zeros((1, 1)))
        np.testing.assert_allclose(agg[0], agg[1], atol=1e-12)
        assert abs(target[0, 0] - target[1, 0]) > 1.0

        # least-squares-best affine map on the aggregated rows still
        # leaves a large residual
        design = np.hstack([agg, np.ones((4, 1))])
        coef, _, _, _ = np.linalg.lstsq(design, target, rcond=None)
        residual = np.linalg.norm(design @ coef - target)
        assert residual > 0.1


class TestViewsSortOnce:
    @pytest.mark.parametrize("layer", ["settransformer", "hcha"])
    def test_no_sort_after_warm_up(self, monkeypatch, layer):
        # each view sorts its pairs on first use; later passes read the sort
        rng = np.random.default_rng(11)
        hg = from_edge_list(6, [[0, 1, 2], [2, 3], [3, 4, 5], [1, 5], [4]])
        x = ad.constant(rng.normal(size=(hg.n, 3)))
        if layer == "settransformer":
            pools = AllSetLayer(SetTransformerPool(2, 2), SetTransformerPool(2, 2))
            params = pools.init_params(rng, 3)
            build = lambda: pools.forward(params, hg, x)[1]  # noqa: E731
        else:
            params = rules.init_hcha_params(rng, 3, 2, f_edge=2)
            z = rng.normal(size=(hg.num_edges, 2))
            build = lambda: rules.hcha_layer(hg, x, params, edge_feats=z)  # noqa: E731
        sorts = []
        argsort = np.argsort
        monkeypatch.setattr(np, "argsort", lambda *a, **k: sorts.append(1) or argsort(*a, **k))
        ad.sum_all(build()).backward()
        warm = len(sorts)
        ad.sum_all(build()).backward()
        assert warm > 0
        assert len(sorts) == warm
