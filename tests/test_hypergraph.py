import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgx import hypergraph as hgm
from hgx.hypergraph import (
    EmptyEdgeError,
    HypergraphError,
    NodeIdOutOfRangeError,
    NodeIdTypeError,
    NonpositiveWeightError,
    NotUniformError,
    from_edge_list,
    incidence_pairs,
)
from oracles import (
    TooLargeError,
    build_adjacency_tensor,
    clique_expansion_adjacency,
    clique_expansion_incidence,
    incidence_matrix,
    random_hypergraph,
)


class TestConstruction:
    def test_path_of_two_edges(self):
        hg = from_edge_list(3, [[0, 1], [1, 2]])
        assert hg.num_edges == 2
        assert hg.degrees().tolist() == [1, 2, 1]

    def test_dedup_and_sort(self):
        hg = from_edge_list(2, [[1, 0, 1]])
        assert hg.edges == ((0, 1),)

    def test_node_id_out_of_range(self):
        with pytest.raises(NodeIdOutOfRangeError):
            from_edge_list(3, [[0, 3]])
        with pytest.raises(NodeIdOutOfRangeError):
            from_edge_list(3, [[-1, 0]])

    def test_empty_edge_rejected(self):
        with pytest.raises(EmptyEdgeError):
            from_edge_list(3, [[]])

    def test_singleton_edge_allowed(self):
        hg = from_edge_list(3, [[1]])
        assert hg.edges == ((1,),)

    def test_nonpositive_weight(self):
        with pytest.raises(NonpositiveWeightError):
            from_edge_list(2, [[0, 1]], weights=[0.0])
        with pytest.raises(NonpositiveWeightError):
            from_edge_list(2, [[0, 1]], weights=[-2.0])

    @pytest.mark.parametrize("weights", [[True], [np.True_], ["2"], [b"2"], [None]])
    def test_non_real_weight_rejected(self, weights):
        with pytest.raises(HypergraphError, match="is not a real number"):
            from_edge_list(2, [[0, 1]], weights=weights)

    @pytest.mark.parametrize("bad", [0.9, 1.0, np.float64(1.0), "1"])
    def test_non_integer_node_id_rejected(self, bad):
        with pytest.raises(NodeIdTypeError) as exc:
            from_edge_list(3, [[0, 2], [bad, 2]])
        assert str(exc.value) == f"edge 1: non-integer node id {bad!r}"

    @pytest.mark.parametrize("edge", [[True, 2], [0, False], [1, True]])
    def test_bool_node_id_rejected(self, edge):
        bad = next(v for v in edge if isinstance(v, bool))
        with pytest.raises(NodeIdTypeError) as exc:
            from_edge_list(3, [[0, 2], edge])
        assert str(exc.value) == f"edge 1: boolean node id {bad!r}"

    def test_numpy_bool_node_id_rejected(self):
        with pytest.raises(NodeIdTypeError):
            from_edge_list(3, [[np.True_, 2]])

    @pytest.mark.parametrize("n", [2.5, 2.0, True, np.True_, "3", None])
    def test_non_integer_node_count_rejected(self, n):
        with pytest.raises(HypergraphError) as exc:
            from_edge_list(n, [[0]])
        assert str(exc.value) == f"node count must be an integer, got {n!r}"

    def test_integer_node_count_types_accepted(self):
        hg = from_edge_list(np.int64(3), [[0, 2]])
        assert hg.n == 3 and type(hg.n) is int

    def test_integer_types_accepted(self):
        hg = from_edge_list(3, [[np.int64(1), 2], (v for v in [np.int32(0), 1])])
        assert hg.edges == ((1, 2), (0, 1))
        assert all(type(v) is int for e in hg.edges for v in e)

    def test_duplicate_edges_kept(self):
        hg = from_edge_list(2, [[0, 1], [0, 1]])
        assert hg.num_edges == 2
        assert clique_expansion_incidence(hg)[0, 1] == 2.0

    def test_edgeless_hypergraph_has_no_weights(self):
        hg = from_edge_list(3, [], weights=[])
        assert hg.weights is None
        assert hg == from_edge_list(3, [])

    def test_shuffled_input_canonicalizes_identically(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            hg = random_hypergraph(rng)
            shuffled = [list(rng.permutation(list(e))) for e in hg.edges]
            assert from_edge_list(hg.n, shuffled).edges == hg.edges


def loop_incidence_pairs(hg):
    """Reference: the original loop that listed the incidence pairs."""
    nodes, edges = [], []
    for e, members in enumerate(hg.edges):
        nodes.extend(members)
        edges.extend([e] * len(members))
    return (np.asarray(nodes, dtype=np.int64), np.asarray(edges, dtype=np.int64))


def loop_degrees(hg):
    """Reference: the original per-edge degree loop."""
    d = np.zeros(hg.n, dtype=np.int64)
    for e in hg.edges:
        d[list(e)] += 1
    return d


def loop_segment_sizes(seg, num):
    """Reference: the pair count per segment, one pair at a time."""
    sizes = np.zeros(num, dtype=np.int64)
    np.add.at(sizes, seg, 1)
    return sizes


@st.composite
def hypergraphs(draw):
    """Small hypergraphs with isolated nodes, duplicate edges, zero edges
    and optional weights."""
    n = draw(st.integers(0, 9))
    edges = []
    if n:
        edge = st.lists(st.integers(0, n - 1), min_size=1, max_size=5)
        edges = draw(st.lists(edge, max_size=7))
        if edges and draw(st.booleans()):
            edges.append(list(draw(st.sampled_from(edges))))
    weights = None
    if draw(st.booleans()):
        weights = draw(st.lists(st.floats(0.1, 10.0), min_size=len(edges),
                                max_size=len(edges)))
    return from_edge_list(n, edges, weights)


def cached_arrays(inc):
    views = (inc.v2e, inc.e2v)
    return [inc.nodes, inc.edges, inc.weights] + [
        a for v in views for a in (v.src, v.seg, v.sizes, v.nonempty)
    ]


def assert_same(got, want):
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


class TestIncidence:
    def test_single_edge_pairs(self):
        inc = from_edge_list(2, [[0, 1]]).incidence
        assert list(zip(inc.nodes.tolist(), inc.edges.tolist())) == [(0, 0), (1, 0)]

    def test_no_edges(self):
        hg = from_edge_list(4, [])
        inc = hg.incidence
        assert inc.nodes.shape == inc.edges.shape == (0,)
        assert_same(inc.e2v.sizes, np.zeros(4, dtype=np.int64))
        assert_same(inc.e2v.nonempty, np.zeros((4, 1)))
        assert inc.v2e.count == 0 and inc.v2e.nonempty.shape == (0, 1)

    def test_views_are_dual(self):
        hg = from_edge_list(5, [[0, 1, 4], [1, 2], [1, 2]])
        inc = hg.incidence
        assert_same(inc.v2e.src, inc.e2v.seg)
        assert_same(inc.v2e.seg, inc.e2v.src)
        assert (inc.v2e.count, inc.e2v.count) == (hg.num_edges, hg.n)
        for v, e in zip(inc.nodes.tolist(), inc.edges.tolist()):
            assert v in hg.edges[e]
        assert_same(inc.e2v.sizes, np.array([1, 3, 2, 0, 1]))  # the node degrees
        assert_same(inc.v2e.sizes, np.array([3, 2, 2]))  # the edge sizes
        assert inc.e2v.nonempty[:, 0].tolist() == [1.0, 1.0, 1.0, 0.0, 1.0]

    @pytest.mark.parametrize("src, seg", [
        ([0, 3], [0, 1]), ([0, -1], [0, 1]),  # source outside [0, 3)
        ([0, 1], [0, 2]), ([0, 1], [-1, 0]),  # segment outside [0, 2)
        ([0, 1], [0]), ([[0, 1]], [[0, 1]]),  # not one list of pairs
    ])
    def test_segment_view_rejects_ids_out_of_range(self, src, seg):
        with pytest.raises(HypergraphError):
            hgm.segment_view(src, seg, 2, 3)

    @pytest.mark.parametrize("src, seg", [
        ([0.9, 1.7], [0, 0]), ([0, 1], [0, 0.6]),  # float ids are not truncated
        ([True, False], [0, 1]), ([0, 1], np.array([False, True])),
    ])
    def test_segment_view_rejects_non_integer_ids(self, src, seg):
        with pytest.raises(HypergraphError, match="must be integers"):
            hgm.segment_view(src, seg, 2, 3)

    @pytest.mark.parametrize("src, seg", [
        ([True, 1], [0, 0]), ([0, 1], [0, True]), ((1, np.True_), [0, 0]),
    ])
    def test_segment_view_rejects_a_bool_among_int_ids(self, src, seg):
        # numpy makes an int64 array of such a list, reading the bool as id 1
        with pytest.raises(HypergraphError, match="must be integers"):
            hgm.segment_view(src, seg, 1, 2)

    @pytest.mark.parametrize("bad", [2.7, True, -1, "3"])
    @pytest.mark.parametrize("which", ["count", "src_count"])
    def test_segment_view_rejects_counts_that_are_not_nonnegative_ints(self, which, bad):
        counts = {"count": 3, "src_count": 3, which: bad}
        with pytest.raises(HypergraphError, match=f"^{which} must be"):
            hgm.segment_view([0, 1], [0, 1], counts["count"], counts["src_count"])

    def test_id_array_returns_int64_ids_without_copying_an_int64_array(self):
        ids = np.array([2, 0, 2])
        assert hgm.id_array(ids, 3, "ids") is ids
        got = hgm.id_array(np.array([1, 0], dtype=np.int32), 2, "ids")
        assert got.dtype == np.int64 and got.tolist() == [1, 0]

    def test_segment_view_accepts_empty_float_ids(self):
        view = hgm.segment_view(np.array([]), np.array([]), 2, 3)
        assert view.src.dtype == view.seg.dtype == np.int64
        assert_same(view.sizes, np.zeros(2, dtype=np.int64))

    def test_shims_read_the_cache(self):
        hg = from_edge_list(3, [[0, 1], [1, 2]], weights=[2.0, 0.5])
        inc = hg.incidence
        assert hg.degrees() is inc.e2v.sizes and hg.edge_sizes() is inc.v2e.sizes
        nodes, edges = incidence_pairs(hg)
        assert nodes is inc.nodes and edges is inc.edges
        assert_same(inc.weights, np.array([2.0, 0.5]))

    @settings(max_examples=150, deadline=None)
    @given(hypergraphs())
    def test_matches_loop_reference(self, hg):
        inc = hg.incidence
        nodes, edges = loop_incidence_pairs(hg)
        degrees = loop_degrees(hg)
        sizes = np.array([len(e) for e in hg.edges], dtype=np.int64)
        assert_same(inc.nodes, nodes)
        assert_same(inc.edges, edges)
        assert_same(inc.e2v.sizes, degrees)
        assert_same(inc.v2e.sizes, sizes)
        assert int(degrees.sum()) == int(sizes.sum()) == len(nodes)
        weights = np.ones(hg.num_edges) if hg.weights is None else np.asarray(hg.weights)
        assert_same(inc.weights, weights)
        for view, src, seg, num in ((inc.v2e, nodes, edges, hg.num_edges),
                                    (inc.e2v, edges, nodes, hg.n)):
            assert_same(view.src, src)
            assert_same(view.seg, seg)
            assert view.count == num
            want = loop_segment_sizes(seg, num)
            assert_same(view.sizes, want)
            assert_same(view.nonempty, (want > 0).astype(np.float64).reshape(-1, 1))

    @settings(max_examples=100, deadline=None)
    @given(hypergraphs(), st.randoms(use_true_random=False))
    def test_relabelling_permutes_degrees_and_masks(self, hg, rnd):
        perm = list(range(hg.n))
        rnd.shuffle(perm)
        relabelled = from_edge_list(hg.n, [[perm[v] for v in e] for e in hg.edges])
        inc, rel = hg.incidence, relabelled.incidence
        assert_same(rel.e2v.sizes[perm], inc.e2v.sizes)
        assert_same(rel.e2v.nonempty[perm], inc.e2v.nonempty)
        assert_same(rel.v2e.sizes, inc.v2e.sizes)
        assert_same(rel.v2e.nonempty, inc.v2e.nonempty)

    @settings(max_examples=150, deadline=None)
    @given(hypergraphs(), st.randoms(use_true_random=False))
    def test_view_matrices_are_the_incidence(self, hg, rnd):
        inc = hg.incidence
        assert "matrix" not in vars(inc.v2e) and "matrix" not in vars(inc.e2v)
        H = incidence_matrix(hg)
        assert_same(inc.v2e.matrix.toarray(), H.T)
        assert_same(inc.e2v.matrix.toarray(), H)
        assert inc.v2e.matrix is inc.v2e.matrix and inc.e2v.matrix is inc.e2v.matrix
        x = np.random.default_rng(rnd.getrandbits(32)).normal(size=(hg.n, 2))
        for view, src in ((inc.v2e, x), (inc.e2v, inc.v2e.matrix @ x)):
            # the product sums the gathered rows in pair order, both ways
            want = np.zeros((view.count, 2))
            np.add.at(want, view.seg, src[view.src])
            assert np.array_equal(view.matrix @ src, want)
            back = np.zeros_like(src)
            np.add.at(back, view.src, want[view.seg])
            assert np.array_equal(view.matrix.T @ want, back)

    @settings(max_examples=150, deadline=None)
    @given(hypergraphs())
    def test_pair_views_match_loop_reference(self, hg):
        inc = hg.incidence
        assert "pair_views" not in vars(inc)
        nodes, edges = loop_incidence_pairs(hg)
        src, seg = [], []
        for p, (v, e) in enumerate(zip(nodes.tolist(), edges.tolist())):
            others = [u for u in hg.edges[e] if u != v]
            src += others
            seg += [p] * len(others)
        loo, back = inc.pair_views
        assert inc.pair_views is inc.pair_views
        assert_same(loo.src, np.array(src, dtype=np.int64))
        assert_same(loo.seg, np.array(seg, dtype=np.int64))
        assert (loo.count, loo.src_count) == (len(nodes), hg.n)
        assert_same(loo.sizes, inc.v2e.sizes[edges] - 1)
        assert len(loo.src) == int(inc.v2e.sizes @ (inc.v2e.sizes - 1))
        assert_same(back.src, np.arange(len(nodes)))
        assert_same(back.seg, nodes)
        assert (back.count, back.src_count) == (hg.n, len(nodes))
        degrees = loop_degrees(hg)
        assert_same(back.sizes, degrees)
        assert_same(back.nonempty, (degrees > 0).astype(np.float64).reshape(-1, 1))
        for a in (loo.src, loo.seg, back.src, back.seg):
            with pytest.raises(ValueError):
                a[...] = 0

    @settings(max_examples=50, deadline=None)
    @given(hypergraphs())
    def test_built_once_and_read_only(self, hg):
        assert hg.incidence is hg.incidence
        for a in cached_arrays(hg.incidence):
            with pytest.raises(ValueError):
                a[...] = 0


class TestStats:
    def test_degree_size_totals_match(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            hg = random_hypergraph(rng)
            assert int(hg.degrees().sum()) == int(hg.edge_sizes().sum())


class TestCliqueExpansion:
    def test_single_edge_incidence(self):
        hg = from_edge_list(2, [[0, 1]])
        np.testing.assert_array_equal(
            clique_expansion_incidence(hg), [[1.0, 1.0], [1.0, 1.0]]
        )

    def test_single_edge_adjacency(self):
        hg = from_edge_list(2, [[0, 1]])
        np.testing.assert_array_equal(
            clique_expansion_adjacency(hg), [[0.0, 1.0], [1.0, 0.0]]
        )

    def test_comembership_counts(self):
        hg = from_edge_list(3, [[0, 1, 2], [1, 2]])
        got = clique_expansion_incidence(hg)
        np.testing.assert_array_equal(np.diag(got), [1, 2, 2])
        assert got[1, 2] == 2 and got[0, 1] == 1 and got[0, 2] == 1

    def test_no_edges(self):
        hg = from_edge_list(3, [])
        np.testing.assert_array_equal(clique_expansion_incidence(hg), np.zeros((3, 3)))
        np.testing.assert_array_equal(clique_expansion_adjacency(hg), np.zeros((3, 3)))

    def test_matches_h_ht(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            hg = random_hypergraph(rng)
            H = incidence_matrix(hg)
            np.testing.assert_allclose(
                clique_expansion_incidence(hg), H @ H.T, atol=1e-12
            )

    def test_difference_is_degree_diagonal(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            hg = random_hypergraph(rng)
            diff = clique_expansion_incidence(hg) - clique_expansion_adjacency(hg)
            np.testing.assert_array_equal(diff, np.diag(hg.degrees().astype(float)))


class TestAdjacencyTensor:
    def test_order2_single_edge(self):
        hg = from_edge_list(2, [[0, 1]])
        np.testing.assert_array_equal(
            build_adjacency_tensor(hg, 2), [[0.0, 1.0], [1.0, 0.0]]
        )

    def test_order3_permutation_entries(self):
        hg = from_edge_list(3, [[0, 1, 2]])
        A = build_adjacency_tensor(hg, 3)
        assert A.sum() == 6.0  # 3! permutations, coefficient 1/1!
        for perm in [(0, 1, 2), (2, 1, 0), (1, 0, 2)]:
            assert A[perm] == 1.0
        assert A[0, 0, 1] == 0.0

    def test_order3_empty(self):
        hg = from_edge_list(3, [])
        assert build_adjacency_tensor(hg, 3).sum() == 0.0

    def test_not_uniform(self):
        with pytest.raises(NotUniformError):
            build_adjacency_tensor(from_edge_list(3, [[0, 1], [0, 1, 2]]), 3)

    def test_too_large(self):
        with pytest.raises(TooLargeError):
            build_adjacency_tensor(from_edge_list(400, [[0, 1, 2]]), 3)

    def test_supersymmetry(self):
        import itertools

        rng = np.random.default_rng(5)
        hg = random_hypergraph(rng, n_max=5, m_max=4, uniform=3)
        A = build_adjacency_tensor(hg, 3)
        for axes in itertools.permutations(range(3)):
            np.testing.assert_array_equal(A, np.transpose(A, axes))

    def test_marginalization_matches_clique_adjacency(self):
        # unweighted d-uniform: summing the tensor over all indices but
        # two reproduces the zero-diagonal clique expansion
        rng = np.random.default_rng(17)
        for d in (2, 3, 4):
            for _ in range(8):
                hg = random_hypergraph(rng, n_max=8, m_max=5, uniform=d)
                if len(set(hg.edges)) != hg.num_edges:
                    # duplicate edges accumulate in co-membership counts
                    # but not in the set-valued tensor; keep instances simple
                    hg = from_edge_list(hg.n, sorted(set(hg.edges)))
                A = build_adjacency_tensor(hg, d)
                marg = A.sum(axis=tuple(range(2, d))) if d > 2 else A
                np.testing.assert_allclose(
                    marg, clique_expansion_adjacency(hg), atol=1e-12
                )

