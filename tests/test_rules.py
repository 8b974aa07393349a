import re
import tracemalloc

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgx import autodiff as ad
from hgx import nn, rules
from hgx.hypergraph import NotUniformError, from_edge_list, segment_view
from hgx.rules import (
    DegenerateEdgeError,
    NegativeBaseError,
    NonPositiveInputError,
    ce_prop_a,
    ce_prop_h,
    h_prop,
    hcha_layer,
    hgnn_layer,
    hnhn_layer,
    hypergcn_layer,
    hypersage_layer,
    init_hcha_params,
    init_hgnn_params,
    init_hnhn_params,
    init_hypergcn_params,
    init_hypersage_params,
    z_prop,
)
from oracles import (
    build_adjacency_tensor,
    clique_expansion_adjacency,
    clique_expansion_incidence,
    hypergraphs_with_features,
)


def random_hypergraph(rng, n_max=12, m_max=8, uniform=None, min_size=1):
    n_min = max(uniform or 0, 2)
    n = int(rng.integers(n_min, n_max + 1))
    m = int(rng.integers(1, m_max + 1))
    edges = []
    for _ in range(m):
        size = uniform or int(rng.integers(min_size, min(n, 5) + 1))
        edges.append(rng.choice(n, size=size, replace=False).tolist())
    return from_edge_list(n, edges)


def tensor_contraction(hg, x, d):
    """Explicit order-d tensor contraction, applied per feature column:
    the brute-force route the fast product rule must agree with."""
    A = build_adjacency_tensor(hg, d)
    out = np.zeros_like(x)
    for col in range(x.shape[1]):
        v = x[:, col]
        contracted = A
        for _ in range(d - 1):
            contracted = contracted @ v
        out[:, col] = contracted
    return out


class TestCePropRules:
    def test_double_sum_by_hand(self):
        hg = from_edge_list(3, [[0, 1], [1, 2]])
        x = np.array([[1.0], [10.0], [100.0]])
        out = ce_prop_h(hg, x).value
        assert out[1, 0] == (1 + 10) + (10 + 100)

    def test_no_edges(self):
        hg = from_edge_list(3, [])
        np.testing.assert_array_equal(ce_prop_h(hg, np.ones((3, 2))).value, 0.0)

    def test_swap_on_single_edge(self):
        hg = from_edge_list(2, [[0, 1]])
        out = ce_prop_a(hg, np.array([[1.0], [10.0]])).value
        np.testing.assert_array_equal(out, [[10.0], [1.0]])

    def test_a_equals_h_minus_degree_times_self(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            hg = random_hypergraph(rng)
            x = rng.normal(size=(hg.n, 3))
            expected = ce_prop_h(hg, x).value - hg.degrees().reshape(-1, 1) * x
            np.testing.assert_allclose(ce_prop_a(hg, x).value, expected, atol=1e-12)

    def test_matrix_product_oracles(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            hg = random_hypergraph(rng)
            x = rng.normal(size=(hg.n, 2))
            np.testing.assert_allclose(
                ce_prop_h(hg, x).value, clique_expansion_incidence(hg) @ x, atol=1e-12
            )
            np.testing.assert_allclose(
                ce_prop_a(hg, x).value, clique_expansion_adjacency(hg) @ x, atol=1e-12
            )

    def test_shape_mismatch(self):
        hg = from_edge_list(3, [[0, 1]])
        with pytest.raises(ad.ShapeMismatchError):
            ce_prop_h(hg, np.ones((4, 1)))

    @settings(max_examples=200, deadline=None)
    @given(hypergraphs_with_features())
    def test_layers_equal_loop_oracles(self, case):
        hg, x = case
        np.testing.assert_array_equal(ce_prop_h(hg, x).value, oracles.ce_prop_h(hg, x))
        np.testing.assert_array_equal(ce_prop_a(hg, x).value, oracles.ce_prop_a(hg, x))


class TestZProp:
    def test_single_edge_by_hand(self):
        hg = from_edge_list(3, [[0, 1, 2]])
        x = np.array([[2.0], [3.0], [5.0]])
        out = z_prop(hg, x, 3).value
        np.testing.assert_allclose(out[:, 0], [2 * 15.0, 2 * 10.0, 2 * 6.0])

    def test_all_ones_collapse_to_scaled_degree(self):
        rng = np.random.default_rng(2)
        for d in (2, 3, 4):
            hg = random_hypergraph(rng, n_max=9, uniform=d)
            out = z_prop(hg, np.ones((hg.n, 2)), d).value
            expected = (d - 1) * hg.degrees().astype(float)
            np.testing.assert_allclose(out[:, 0], expected)

    def test_not_uniform(self):
        hg = from_edge_list(4, [[0, 1], [0, 1, 2]])
        with pytest.raises(NotUniformError):
            z_prop(hg, np.ones((4, 1)), 3)

    def test_tensor_contraction_oracle(self):
        rng = np.random.default_rng(3)
        for d in (2, 3, 4):
            for _ in range(25):
                hg = random_hypergraph(rng, n_max=6, m_max=6, uniform=d)
                hg = from_edge_list(hg.n, sorted(set(hg.edges)))  # simple instances
                x = rng.uniform(0.5, 1.5, size=(hg.n, 2))
                np.testing.assert_allclose(
                    z_prop(hg, x, d).value, tensor_contraction(hg, x, d), atol=1e-10
                )

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_layer_matches_loop_oracle(self, d, data):
        # the layer sums the pair products and scales once by (d - 1);
        # the loop scales each product, which rounds alike for d <= 3
        hg, x = data.draw(hypergraphs_with_features(uniform=d, low=0.5))
        got, want = z_prop(hg, x, d).value, oracles.z_prop(hg, x, d)
        if d <= 3:
            np.testing.assert_array_equal(got, want)
        else:
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    def test_d2_equals_neighbor_sum(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            hg = random_hypergraph(rng, uniform=2)
            x = rng.normal(size=(hg.n, 3))
            np.testing.assert_array_equal(z_prop(hg, x, 2).value, ce_prop_a(hg, x).value)


class TestHProp:
    def test_single_edge_sqrt(self):
        hg = from_edge_list(3, [[0, 1, 2]])
        x = np.array([[2.0], [3.0], [5.0]])
        np.testing.assert_allclose(h_prop(hg, x, 3).value[0, 0], np.sqrt(30.0))

    def test_all_ones(self):
        rng = np.random.default_rng(5)
        for d in (3, 4):
            hg = random_hypergraph(rng, uniform=d)
            out = h_prop(hg, np.ones((hg.n, 1)), d).value
            expected = ((d - 1) * hg.degrees().astype(float)) ** (1.0 / (d - 1))
            np.testing.assert_allclose(out[:, 0], expected)

    def test_rejects_nonpositive(self):
        hg = from_edge_list(3, [[0, 1, 2]])
        with pytest.raises(NonPositiveInputError):
            h_prop(hg, np.array([[1.0], [-2.0], [3.0]]), 3)
        with pytest.raises(NonPositiveInputError):
            h_prop(hg, np.array([[1.0], [0.0], [3.0]]), 3)

    def test_power_recovers_product_rule(self):
        rng = np.random.default_rng(6)
        for d in (3, 4):
            for _ in range(10):
                hg = random_hypergraph(rng, n_max=8, uniform=d)
                x = rng.uniform(0.5, 2.0, size=(hg.n, 2))
                np.testing.assert_allclose(
                    h_prop(hg, x, d).value ** (d - 1), z_prop(hg, x, d).value, atol=1e-10
                )


FIXED_RULES = {
    "ce_prop_h": lambda hg, x: ce_prop_h(hg, x),
    "ce_prop_a": lambda hg, x: ce_prop_a(hg, x),
    "z_prop": lambda hg, x: z_prop(hg, x, 3),
    "h_prop": lambda hg, x: h_prop(hg, x, 3),
}


@pytest.mark.parametrize("rule", sorted(FIXED_RULES))
def test_fixed_rules_gradcheck_with_respect_to_x(rule):
    # 3-uniform, with node 5 isolated: h_prop's root meets its zero row
    hg = from_edge_list(6, [[0, 1, 2], [1, 2, 3], [2, 3, 4], [0, 3, 4]])
    rng = nn.make_rng(22)
    x = ad.parameter(rng.uniform(0.5, 1.5, size=(6, 2)))
    c = ad.constant(rng.normal(size=(6, 2)))

    def build():
        return ad.sum_all(ad.mul(FIXED_RULES[rule](hg, x), c))

    assert nn.grad_check(build, {"x": x}).max_rel_err < 1e-6
    assert np.abs(x.grad[:5]).min() > 0 and np.isfinite(x.grad).all()


class TestHgnn:
    def test_hand_evaluated_single_edge(self):
        hg = from_edge_list(2, [[0, 1]])
        params = {
            "hgnn.theta": ad.parameter(np.eye(1)),
            "hgnn.bias": ad.parameter(np.zeros((1, 1))),
        }
        out = hgnn_layer(hg, np.ones((2, 1)), params)
        np.testing.assert_allclose(out.value, [[1.0], [1.0]])

    def test_zero_features_zero_output(self):
        hg = from_edge_list(3, [[0, 1], [1, 2]])
        params = init_hgnn_params(nn.make_rng(0), 2, 2)
        out = hgnn_layer(hg, np.zeros((3, 2)), params)
        np.testing.assert_array_equal(out.value, 0.0)

    def test_isolated_node_zero_row(self):
        hg = from_edge_list(3, [[0, 1]])
        params = init_hgnn_params(nn.make_rng(1), 2, 2)
        params["hgnn.bias"].value[:] = 5.0  # bias must not leak into degree-0 rows
        out = hgnn_layer(hg, np.ones((3, 2)), params)
        np.testing.assert_array_equal(out.value[2], 0.0)
        assert (out.value[0] != 0).any()

    def test_gradcheck(self):
        rng = nn.make_rng(2)
        hg = random_hypergraph(rng, n_max=6)
        params = init_hgnn_params(rng, 3, 2)
        x = rng.uniform(0.2, 1.0, size=(hg.n, 3))
        c = rng.normal(size=(hg.n, 2))

        def build():
            return ad.sum_all(ad.mul(hgnn_layer(hg, x, params), ad.constant(c)))

        assert nn.grad_check(build, params).max_rel_err < 1e-4


class TestHcha:
    def test_edge_feats_without_attention_params_rejected(self):
        hg = from_edge_list(3, [[0, 1], [1, 2]])
        params = init_hcha_params(nn.make_rng(3), 2, 2)
        with pytest.raises(ValueError, match=r"init_hcha_params\(\.\.\., f_edge=\.\.\.\)"):
            hcha_layer(hg, np.ones((3, 2)), params, edge_feats=np.ones((2, 2)))

    def test_attention_params_without_edge_feats_rejected(self):
        # hcha.att would get no gradient from uniform weights
        hg = from_edge_list(3, [[0, 1], [1, 2]])
        params = init_hcha_params(nn.make_rng(3), 2, 2, f_edge=2)
        with pytest.raises(ValueError, match=r"init_hcha_params\(\.\.\., f_edge=\.\.\.\)"):
            hcha_layer(hg, np.ones((3, 2)), params)

    def test_uniform_attention_without_edge_feats(self):
        hg = from_edge_list(3, [[0, 1], [1, 2], [0, 1, 2]])
        params = init_hcha_params(nn.make_rng(3), 2, 2)
        out1 = hcha_layer(hg, np.ones((3, 2)), params)
        assert np.isfinite(out1.value).all()

    def test_identical_features_give_uniform_attention(self):
        # identical node features + all-zero edge features: every score is
        # equal, so the attention softmax is uniform over incident edges
        hg = from_edge_list(4, [[0, 1, 2], [1, 2, 3], [0, 3]])
        rng = nn.make_rng(4)
        params = init_hcha_params(rng, 2, 2, f_edge=3)
        x = np.ones((4, 2))
        z = np.zeros((hg.num_edges, 3))
        with_att = hcha_layer(hg, x, params, edge_feats=z)
        without = hcha_layer(hg, x, {k: v for k, v in params.items() if k != "hcha.att"})
        np.testing.assert_allclose(with_att.value, without.value, atol=1e-12)

    def test_attention_rows_sum_to_one(self):
        from hgx.hypergraph import incidence_pairs

        hg = from_edge_list(5, [[0, 1, 2], [1, 3], [2, 3, 4], [0, 4]])
        rng = nn.make_rng(5)
        params = init_hcha_params(rng, 3, 2, f_edge=2)
        x = rng.normal(size=(5, 3))
        z = rng.normal(size=(hg.num_edges, 2))
        pn, pe = incidence_pairs(hg)
        pair_cat = ad.concat_cols(
            [ad.gather_rows(ad.constant(x), pn), ad.gather_rows(ad.constant(z), pe)]
        )
        scores = ad.leaky_relu(ad.row_sum(ad.mul(pair_cat, params["hcha.att"])), 0.2)
        by_node = segment_view(np.arange(len(pn)), pn, hg.n, len(pn))
        alpha = ad.segment_softmax(scores, by_node)
        sums = np.zeros((hg.n, 1))
        np.add.at(sums, pn, alpha.value)
        np.testing.assert_allclose(sums, 1.0, atol=1e-12)

    def test_gradcheck_with_attention(self):
        rng = nn.make_rng(6)
        hg = from_edge_list(4, [[0, 1, 2], [2, 3], [0, 3]])
        params = init_hcha_params(rng, 2, 2, f_edge=2)
        x = rng.normal(size=(4, 2))
        z = rng.normal(size=(3, 2))
        c = rng.normal(size=(4, 2))

        def build():
            return ad.sum_all(
                ad.mul(hcha_layer(hg, x, params, edge_feats=z), ad.constant(c))
            )

        assert nn.grad_check(build, params).max_rel_err < 1e-4


    @settings(max_examples=150, deadline=None)
    @given(hypergraphs_with_features(low=0.0), st.booleans(), st.integers(0, 2**32 - 1))
    def test_layer_matches_printed_formula(self, case, attention, seed):
        hg, x = case
        rng = np.random.default_rng(seed)
        hg = from_edge_list(hg.n, hg.edges, weights=rng.uniform(0.5, 2.0, hg.num_edges))
        # nonnegative inputs keep every pre-activation >= 0: no cancellation,
        # so the check is relative
        theta = rng.uniform(0.0, 1.0, size=(x.shape[1], 2))
        bias = rng.uniform(0.0, 1.0, size=(1, 2))
        params = {"hcha.theta": ad.parameter(theta), "hcha.bias": ad.parameter(bias)}
        att = z = None
        if attention:
            att = rng.normal(size=(1, x.shape[1] + 2))
            z = rng.normal(size=(hg.num_edges, 2))
            params["hcha.att"] = ad.parameter(att)
        got = hcha_layer(hg, x, params, edge_feats=z)
        want = oracles.hcha_layer(hg, x, theta, bias, att, z)
        np.testing.assert_allclose(got.value, want, rtol=1e-12, atol=0)


class TestHnhn:
    def test_zero_exponents_are_plain_means(self):
        hg = from_edge_list(2, [[0, 1]])
        params = {
            "hnhn.edge.theta": ad.parameter(np.eye(2)),
            "hnhn.edge.bias": ad.parameter(np.zeros((1, 2))),
            "hnhn.node.theta": ad.parameter(np.eye(2)),
            "hnhn.node.bias": ad.parameter(np.zeros((1, 2))),
        }
        x = np.array([[1.0, 3.0], [5.0, 7.0]])
        z_out, x_out = hnhn_layer(hg, x, params, alpha=0.0, beta=0.0,
                                  activation="identity")
        np.testing.assert_allclose(z_out.value, [[3.0, 5.0]])
        np.testing.assert_allclose(x_out.value, [[3.0, 5.0], [3.0, 5.0]])

    def test_edgeless_hypergraph_gives_zero_rows(self):
        # with no pairs, np.bincount returns int64 normalizers
        hg = from_edge_list(2, [])
        params = init_hnhn_params(nn.make_rng(7), 2, 3, 2)
        z_out, x_out = hnhn_layer(hg, np.ones((2, 2)), params)
        assert z_out.shape == (0, 3)
        np.testing.assert_array_equal(x_out.value, np.zeros((2, 2)))

    def test_node_normalizer_variants_differ(self):
        hg = from_edge_list(4, [[0, 1, 2], [2, 3]])
        rng = nn.make_rng(7)
        params = init_hnhn_params(rng, 2, 3, 2)
        x = rng.normal(size=(4, 2))
        printed = hnhn_layer(hg, x, params, alpha=0.5, beta=0.0)[1]
        sized = hnhn_layer(hg, x, params, alpha=0.5, beta=0.0,
                           node_normalizer="edge_size")[1]
        assert not np.allclose(printed.value, sized.value)

    def test_gradcheck(self):
        rng = nn.make_rng(8)
        hg = random_hypergraph(rng, n_max=6, min_size=1)
        params = init_hnhn_params(rng, 3, 4, 2)
        x = rng.uniform(0.2, 1.0, size=(hg.n, 3))
        c = rng.normal(size=(hg.n, 2))

        def build():
            return ad.sum_all(
                ad.mul(hnhn_layer(hg, x, params, alpha=-0.5, beta=0.3)[1],
                       ad.constant(c))
            )

        assert nn.grad_check(build, params).max_rel_err < 1e-4


def densify(hg, view, weights):
    """HyperGCN's ``W`` as an n-by-n array, read off its triples."""
    return ad.segment_sum(ad.constant(np.eye(hg.n)), view, weights).value


@st.composite
def hypergcn_cases(draw, integer=True):
    """Hypergraphs whose edges have 2 to 9 members, with ``x`` and
    ``theta`` drawn from small integers (so ``x @ theta`` is exact and
    distance ties are decided the same way by every tie rule) or from a
    normal distribution (so distance ties have probability zero)."""
    n = draw(st.integers(2, 10))
    sizes = draw(st.lists(st.integers(2, min(n, 9)), min_size=1, max_size=8))
    edges = [draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True))
             for k in sizes]
    f_in, f_out = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if integer:
        x = rng.integers(-3, 4, size=(n, f_in)).astype(np.float64)
        theta = rng.integers(-2, 3, size=(f_in, f_out)).astype(np.float64)
    else:
        x, theta = rng.normal(size=(n, f_in)), rng.normal(size=(f_in, f_out))
    bias = rng.normal(size=(1, f_out))
    return from_edge_list(n, edges), x, theta, bias


def hypergcn_params(theta, bias):
    return {"hypergcn.theta": ad.parameter(theta), "hypergcn.bias": ad.parameter(bias)}


class TestHyperGcn:
    def test_pair_edge_weight_is_one(self):
        hg = from_edge_list(2, [[0, 1]])
        rng = nn.make_rng(9)
        params = init_hypergcn_params(rng, 2, 2)
        x = np.array([[1.0, 0.0], [0.0, 1.0]])
        view, w = rules.hypergcn_edge_weights(
            hg, x @ params["hypergcn.theta"].value
        )
        # |e| = 2: weight 1/(2*2-3) = 1 for every pair touching an extreme
        np.testing.assert_array_equal(densify(hg, view, w), [[1.0, 1.0], [1.0, 1.0]])

    def test_tie_breaking_is_lexicographic_and_deterministic(self):
        hg = from_edge_list(4, [[0, 1, 2, 3]])
        projected = np.ones((4, 2))  # all-equal features: every pair ties
        np.testing.assert_array_equal(rules.hypergcn_mediators(hg, projected), [[0, 1]])
        assert oracles.mediator_pair(projected, (0, 1, 2, 3)) == (0, 1)
        rng = nn.make_rng(10)
        params = init_hypergcn_params(rng, 2, 2)
        out1 = hypergcn_layer(hg, np.ones((4, 2)), params)
        out2 = hypergcn_layer(hg, np.ones((4, 2)), params)
        np.testing.assert_array_equal(out1.value, out2.value)

    def test_three_uniform_mediator_structure(self):
        # one 3-uniform edge: exactly the pairs touching the two extreme
        # nodes carry weight; the mediator's self-pair stays zero
        hg = from_edge_list(3, [[0, 1, 2]])
        projected = np.array([[0.0], [10.0], [1.0]])  # extremes are (0, 1)
        W = densify(hg, *rules.hypergcn_edge_weights(hg, projected))
        assert W[2, 2] == 0.0
        w = 1.0 / 3.0
        for u, v in [(0, 0), (0, 1), (1, 0), (1, 1), (0, 2), (2, 0), (1, 2), (2, 1)]:
            np.testing.assert_allclose(W[u, v], w)

    def test_degenerate_edge(self):
        hg = from_edge_list(2, [[0]])
        params = init_hypergcn_params(nn.make_rng(11), 2, 2)
        with pytest.raises(DegenerateEdgeError):
            hypergcn_layer(hg, np.ones((2, 2)), params)

    def test_gradcheck(self):
        rng = nn.make_rng(12)
        hg = from_edge_list(5, [[0, 1, 2], [2, 3, 4], [0, 4]])
        params = init_hypergcn_params(rng, 3, 3)
        x = rng.normal(size=(5, 3))  # generic features: argmax has margin
        c = rng.normal(size=(5, 3))

        def build():
            return ad.sum_all(ad.mul(hypergcn_layer(hg, x, params), ad.constant(c)))

        assert nn.grad_check(build, params).max_rel_err < 1e-4

    @settings(max_examples=150, deadline=None)
    @given(hypergcn_cases())
    def test_mediators_and_weights_equal_loop_oracles(self, case):
        hg, x, theta, _ = case
        projected = x @ theta
        want = [oracles.mediator_pair(projected, m) for m in hg.edges]
        np.testing.assert_array_equal(rules.hypergcn_mediators(hg, projected), want)
        W = densify(hg, *rules.hypergcn_edge_weights(hg, projected))
        assert np.array_equal(W, oracles.hypergcn_dense_weights(hg, projected))

    @settings(max_examples=100, deadline=None)
    @given(hypergcn_cases())
    def test_layer_matches_dense_oracle(self, case):
        hg, x, theta, bias = case
        got = hypergcn_layer(hg, x, hypergcn_params(theta, bias)).value
        want = oracles.hypergcn_layer(hg, x, theta, bias)
        np.testing.assert_allclose(got, want, rtol=1e-12,
                                   atol=1e-12 * max(1.0, np.abs(want).max()))

    @settings(max_examples=100, deadline=None)
    @given(hypergcn_cases(integer=False), st.randoms(use_true_random=False))
    def test_node_relabelling_equivariance(self, case, rnd):
        hg, x, theta, bias = case
        perm = list(range(hg.n))
        rnd.shuffle(perm)  # node v becomes perm[v]
        relabelled = from_edge_list(hg.n, [[perm[v] for v in e] for e in hg.edges])
        x_perm = np.empty_like(x)
        x_perm[perm] = x
        params = hypergcn_params(theta, bias)
        out = hypergcn_layer(hg, x, params).value
        out_perm = hypergcn_layer(relabelled, x_perm, params).value
        np.testing.assert_allclose(out_perm[perm], out, rtol=1e-12, atol=1e-12)

    def test_many_nodes_few_edges_stays_sparse(self):
        # a dense W alone would be 5000 * 5000 * 8 bytes = 200 MB
        rng = np.random.default_rng(16)
        n, f = 5000, 8
        hg = from_edge_list(n, [rng.choice(n, size=6, replace=False) for _ in range(10)])
        self._assert_peak_below(hg, rng.normal(size=(n, f)), f, 16 << 20)

    def test_large_edge_never_holds_all_differences(self):
        # all 1000 * 999 / 2 differences of 64 columns at once would be 256 MB
        rng = np.random.default_rng(17)
        n, f = 1000, 64
        hg = from_edge_list(n, [range(n)])
        self._assert_peak_below(hg, rng.normal(size=(n, f)), f, 32 << 20)

    @staticmethod
    def _assert_peak_below(hg, x, f, limit):
        params = init_hypergcn_params(nn.make_rng(18), f, f)
        hg.incidence  # built once per hypergraph, outside the measured step
        tracemalloc.start()
        try:
            ad.sum_all(hypergcn_layer(hg, x, params)).backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit, f"peak {peak / 2**20:.1f} MB"


class TestHyperSage:
    def test_singleton_edge_unit_normalized_double(self):
        hg = from_edge_list(1, [[0]])
        params = {"hypersage.theta": ad.parameter(np.eye(2))}
        x = np.array([[3.0, 4.0]])
        out = hypersage_layer(hg, x, params, p=1, activation="identity")
        expected = (2 * x) / np.linalg.norm(2 * x)
        np.testing.assert_allclose(out.value, expected, atol=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(hypergraphs_with_features(low=0.0), st.sampled_from([1, 2, 3]),
           st.integers(0, 2**32 - 1))
    def test_power_means_match_printed_formula(self, case, p, seed):
        hg, x = case
        # nonnegative Theta keeps relu away from its kink, so the check is relative
        theta = np.random.default_rng(seed).uniform(0.0, 1.0, size=(x.shape[1], 2))
        got = hypersage_layer(hg, x, {"hypersage.theta": ad.parameter(theta)}, p=p)
        want = oracles.hypersage_layer(hg, x, theta, p)
        np.testing.assert_allclose(got.value, want, rtol=1e-12, atol=0)

    def test_power_mean_backward_stays_finite_at_an_isolated_node(self):
        # node 3 is isolated: its pooled row is zero, where the p-th root's
        # VJP divided by zero and put an inf on the tape
        hg = from_edge_list(4, [[0, 1], [1, 2], [0, 1, 2]])
        rng = nn.make_rng(20)
        params = init_hypersage_params(rng, 2, 2)
        params["x"] = ad.parameter(rng.uniform(0.3, 1.2, size=(4, 2)))
        c = ad.constant(rng.normal(size=(4, 2)))
        out = hypersage_layer(hg, params["x"], params, p=2)
        theta = params["hypersage.theta"].value
        np.testing.assert_allclose(out.value, oracles.hypersage_layer(hg, params["x"].value, theta, 2),
                                   rtol=1e-12, atol=0)

        def build():
            return ad.sum_all(ad.mul(hypersage_layer(hg, params["x"], params, p=2), c))

        assert nn.grad_check(build, params).max_rel_err < 1e-4
        assert np.isfinite(params["x"].grad).all()

    def test_negative_base_rejected(self):
        hg = from_edge_list(2, [[0, 1]])
        params = init_hypersage_params(nn.make_rng(13), 2, 2)
        with pytest.raises(NegativeBaseError):
            hypersage_layer(hg, np.array([[1.0, -1.0], [1.0, 1.0]]), params, p=2)

    def test_gradcheck(self):
        rng = nn.make_rng(14)
        hg = from_edge_list(4, [[0, 1, 2], [2, 3], [0, 3]])
        params = init_hypersage_params(rng, 3, 2)
        x = rng.uniform(0.3, 1.2, size=(4, 3))
        c = rng.normal(size=(4, 2))
        for p in (1, 2):

            def build():
                return ad.sum_all(
                    ad.mul(hypersage_layer(hg, x, params, p=p), ad.constant(c))
                )

            assert nn.grad_check(build, params).max_rel_err < 1e-4


RELABELLED_RULES = {
    "hgnn": (lambda rng, f: init_hgnn_params(rng, f, 2),
             lambda hg, x, params, z: hgnn_layer(hg, x, params)),
    "hcha": (lambda rng, f: init_hcha_params(rng, f, 2),
             lambda hg, x, params, z: hcha_layer(hg, x, params)),
    "hcha_attention": (lambda rng, f: init_hcha_params(rng, f, 2, f_edge=2),
                       lambda hg, x, params, z: hcha_layer(hg, x, params, edge_feats=z)),
    "hnhn": (lambda rng, f: init_hnhn_params(rng, f, 3, 2),
             lambda hg, x, params, z: hnhn_layer(hg, x, params, alpha=-0.5, beta=0.3)[1]),
    "hypersage": (lambda rng, f: init_hypersage_params(rng, f, 2),
                  lambda hg, x, params, z: hypersage_layer(hg, x, params, p=2)),
}


@pytest.mark.parametrize("rule", sorted(RELABELLED_RULES))
@settings(max_examples=60, deadline=None)
@given(hypergraphs_with_features(low=0.0), st.randoms(use_true_random=False))
def test_node_relabelling_equivariance(rule, case, rnd):
    """Renaming the nodes renames the output rows and changes nothing else."""
    hg, x = case
    init, layer = RELABELLED_RULES[rule]
    params = init(nn.make_rng(rnd.randrange(2**32)), x.shape[1])
    z = np.array([[rnd.uniform(-1, 1) for _ in range(2)] for _ in hg.edges]).reshape(-1, 2)
    perm = list(range(hg.n))
    rnd.shuffle(perm)  # node v becomes perm[v]
    relabelled = from_edge_list(hg.n, [[perm[v] for v in e] for e in hg.edges])
    x_perm = np.empty_like(x)
    x_perm[perm] = x
    out = layer(hg, x, params, z).value
    out_perm = layer(relabelled, x_perm, params, z).value
    np.testing.assert_allclose(out_perm[perm], out, rtol=1e-12, atol=1e-12)


class TestStorageOrderInvariance:
    def test_rules_invariant_to_raw_input_order(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            hg = random_hypergraph(rng, n_max=8, uniform=3)
            x = rng.uniform(0.5, 1.5, size=(hg.n, 2))
            shuffled_edges = [list(rng.permutation(list(e))) for e in hg.edges]
            order = rng.permutation(len(shuffled_edges))
            hg2 = from_edge_list(hg.n, [shuffled_edges[i] for i in order])
            for fn in (ce_prop_h, ce_prop_a):
                np.testing.assert_allclose(fn(hg, x).value, fn(hg2, x).value, atol=1e-9)
            np.testing.assert_allclose(
                z_prop(hg, x, 3).value, z_prop(hg2, x, 3).value, atol=1e-9
            )


class TestActivationChoices:
    @pytest.mark.parametrize("layer, init, activation, allowed", [
        (hcha_layer, lambda rng: init_hcha_params(rng, 2, 2), "tanh", "('elu', 'relu')"),
        (hnhn_layer, lambda rng: init_hnhn_params(rng, 2, 2, 2), "elu",
         "('relu', 'identity')"),
        (hypersage_layer, lambda rng: init_hypersage_params(rng, 2, 2), "elu",
         "('relu', 'identity')"),
    ])
    def test_unknown_activation_names_the_choices(self, layer, init, activation, allowed):
        hg = from_edge_list(3, [[0, 1], [1, 2]])
        params = init(nn.make_rng(19))
        with pytest.raises(ValueError, match=re.escape(allowed)):
            layer(hg, np.ones((3, 2)), params, activation=activation)
