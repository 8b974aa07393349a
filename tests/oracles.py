"""Reference implementations the tests compare hgx against.

Everything here is a direct loop or a dense construction, kept out of
the package so that no path is checked against itself:

- loop forms of the fixed rules (CEpropH, CEpropA, Zprop) and a general
  loop over (edge, member) pair states, the reference for the pair-state
  layer variant;
- a pool applied to one multiset of rows, through a one-segment view;
- the dense incidence and clique-expansion matrices and the order-d
  adjacency tensor;
- HyperGCN's loop-chosen mediator pairs, its dense ``W`` filled by a
  loop over member pairs, and the layer as printed on that ``W``;
- HyperSAGE's power-mean layer as printed, by loops over edges and nodes;
- HCHA as printed, with and without attention, by loops over the
  incidence pairs;
- the equivalence suite: classical propagation rules recovered as
  compositions of two multiset functions.  Each case evaluates a
  hand-rolled, loop-based two-phase construction (node->edge
  aggregation, then edge->node aggregation, with the weights or
  nonlinearities the corresponding rule prescribes) or an AllSet layer
  and compares it against an independent implementation of that rule
  over a batch of random hypergraphs.  Max deviations land at float
  rounding level when the constructions are right.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import List

import numpy as np
from hypothesis import strategies as st

from hgx import autodiff as ad
from hgx import rules
from hgx.allset import AllSetLayer, ProductPool, SumPool
from hgx.hypergraph import Hypergraph, NotUniformError, from_edge_list, segment_view
from hgx.nn import make_rng


class TooLargeError(ValueError):
    pass


# --- loop forms of the fixed rules -------------------------------------------


def sum_rows(rows: np.ndarray) -> np.ndarray:
    """The rows added one at a time, in order.  numpy's ``sum`` adds a
    single column of eight or more rows pairwise, which rounds
    differently from the in-order sums of the package's sparse products."""
    out = np.zeros(rows.shape[1])
    for row in rows:
        out = out + row
    return out


def ce_prop_h(hg: Hypergraph, x: np.ndarray) -> np.ndarray:
    """CEpropH: each edge's member sum is added to every member."""
    out = np.zeros_like(x)
    for members in hg.edges:
        idx = list(members)
        out[idx] += sum_rows(x[idx])
    return out


def pair_propagate(hg: Hypergraph, x: np.ndarray, pair_pool, node_pool=sum_rows):
    """Pair-state layer, looping over the incidence pairs in edge-major
    order: pair (v, e) gets ``pair_pool`` of the rows of e's other
    members, then each node gets ``node_pool`` of its pair states in pair
    order.  An empty multiset (a 1-member edge's other members, a node in
    no edge) gives a zero row."""
    width = x.shape[1]
    incoming = [[] for _ in range(hg.n)]
    for members in hg.edges:
        idx = list(members)
        for i, v in enumerate(idx):
            others = x[idx[:i] + idx[i + 1:]]
            incoming[v].append(pair_pool(others) if len(others) else np.zeros(width))
    out = np.zeros_like(x)
    for v, states in enumerate(incoming):
        if states:
            out[v] = node_pool(np.array(states))
    return out


def ce_prop_a(hg: Hypergraph, x: np.ndarray) -> np.ndarray:
    """CEpropA: per pair, the sum of the other members' rows."""
    return pair_propagate(hg, x, sum_rows)


def z_prop(hg: Hypergraph, x: np.ndarray, d: int) -> np.ndarray:
    """Zprop: per pair, (d - 1) times the product of the other members'
    rows."""
    return pair_propagate(hg, x, lambda rows: (d - 1) * rows.prod(axis=0))


def one_multiset(pool, params, rows, prefix="f"):
    """``pool`` on the one multiset of ``rows``, through a one-segment view."""
    rows = ad.wrap(rows)
    n = rows.shape[0]
    return pool.aggregate(params, rows, segment_view(np.arange(n), np.zeros(n, np.int64), 1, n), prefix)


@st.composite
def hypergraphs_with_features(draw, uniform=None, low=-1.0):
    """Hypergraphs with isolated nodes, 1-member and duplicate edges of up
    to 9 members (all of ``uniform`` members when given), plus features
    drawn uniformly from [low, 1.5)."""
    n = draw(st.integers(uniform or 1, 10))
    sizes = st.just(uniform) if uniform else st.integers(1, min(n, 9))
    edges = [
        draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True))
        for k in draw(st.lists(sizes, max_size=8))
    ]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.uniform(low, 1.5, size=(n, draw(st.integers(1, 3))))
    return from_edge_list(n, edges), x


# --- dense constructions -------------------------------------------------------


def incidence_matrix(hg: Hypergraph) -> np.ndarray:
    """Dense 0/1 incidence matrix of shape (n, |E|), set member by member."""
    H = np.zeros((hg.n, hg.num_edges))
    for e, members in enumerate(hg.edges):
        H[list(members), e] = 1.0
    return H


def clique_expansion_incidence(hg: Hypergraph) -> np.ndarray:
    """Co-membership count matrix: entry (u, v) is the total weight of
    hyperedges containing both u and v; the diagonal carries weighted
    node degrees.  Symmetric by construction."""
    out = np.zeros((hg.n, hg.n))
    for e, members in enumerate(hg.edges):
        idx = list(members)
        w = hg.incidence.weights[e]
        out[np.ix_(idx, idx)] += w
    return out


def clique_expansion_adjacency(hg: Hypergraph) -> np.ndarray:
    """Clique-expansion graph adjacency: co-membership counts with a zero
    diagonal.  For unweighted d-uniform inputs this equals marginalizing
    the order-d adjacency tensor over all but two indices."""
    out = clique_expansion_incidence(hg)
    np.fill_diagonal(out, 0.0)
    return out


_TENSOR_GUARD = 10**7


def build_adjacency_tensor(hg: Hypergraph, d: int) -> np.ndarray:
    """Dense order-d adjacency tensor of a d-uniform hypergraph.

    Entry at every permutation of a hyperedge's ids equals 1/(d-2)!;
    all other entries are 0.  Intended purely as a brute-force oracle,
    hence the n**d size guard.
    """
    if hg.num_edges and hg.uniform_order() != d:
        raise NotUniformError(f"hypergraph is not {d}-uniform")
    if hg.n**d > _TENSOR_GUARD:
        raise TooLargeError(f"n**d = {hg.n**d} exceeds guard {_TENSOR_GUARD}")
    A = np.zeros((hg.n,) * d)
    coeff = 1.0 / math.factorial(d - 2) if d >= 2 else 1.0
    for members in hg.edges:
        if len(set(members)) != d:
            raise NotUniformError("hyperedge with repeated ids cannot be d-uniform")
        for perm in itertools.permutations(members):
            A[perm] = coeff
    return A


def mediator_pair(projected: np.ndarray, members: tuple) -> tuple:
    """HyperGCN's feature-extreme pair of an edge, by a loop over member
    pairs: the (u, v) pair, u < v, whose projected features are farthest
    apart; a later pair must be farther by more than 1e-15 to replace an
    earlier one, so ties go to the lexicographically smallest pair."""
    best, best_dist = None, -1.0
    for a in range(len(members)):
        for b in range(a + 1, len(members)):
            u, v = members[a], members[b]
            dist = float(np.linalg.norm(projected[u] - projected[v]))
            if dist > best_dist + 1e-15:
                best, best_dist = (u, v), dist
    return best


def hypergcn_dense_weights(hg: Hypergraph, projected: np.ndarray) -> np.ndarray:
    """HyperGCN's mediator-routed n-by-n ``W``, accumulated edge by edge
    with a loop over every member pair."""
    W = np.zeros((hg.n, hg.n))
    for members in hg.edges:
        if len(members) < 2:
            raise rules.DegenerateEdgeError(f"edge {members} has fewer than 2 nodes")
        i_e, j_e = mediator_pair(projected, members)
        w = 1.0 / (2 * len(members) - 3)
        for v in members:
            for u in members:
                if u in (i_e, j_e) or v in (i_e, j_e):
                    W[v, u] += w
    return W


def hypergcn_layer(hg: Hypergraph, x: np.ndarray, theta: np.ndarray,
                   bias: np.ndarray) -> np.ndarray:
    """HyperGCN as printed, ``relu((W X) Theta + b)`` with a dense ``W``."""
    W = hypergcn_dense_weights(hg, x @ theta)
    return np.maximum((W @ x) @ theta + bias, 0.0)


def hcha_layer(hg: Hypergraph, x: np.ndarray, theta: np.ndarray, bias: np.ndarray,
               att: np.ndarray = None, z: np.ndarray = None) -> np.ndarray:
    """HCHA as printed, by loops over the incidence pairs (u, e).

    The pair weight alpha_ue is 1/d_u, or, given the attention row
    ``att`` and edge features ``z``, the softmax over u's edges of
    ``leaky_relu([x_u, z_e] . att, 0.2)``.  Edge e's state is
    sum_u alpha_ue x_u; node v's row is
    ``elu((1/d_v) sum_e alpha_ve (w_e / |e|) state_e Theta + b)``, and a
    zero row when d_v = 0."""
    deg = hg.degrees()
    weights = hg.incidence.weights
    pairs = [(u, e) for e, members in enumerate(hg.edges) for u in members]
    alpha = {(u, e): 1.0 / deg[u] for u, e in pairs}
    if att is not None:
        score = {}
        for u, e in pairs:
            s = float(np.concatenate([x[u], z[e]]) @ att.ravel())
            score[u, e] = s if s > 0 else 0.2 * s
        for v in range(hg.n):
            mine = [(u, e) for u, e in pairs if u == v]
            if mine:
                top = max(score[p] for p in mine)
                total = sum(math.exp(score[p] - top) for p in mine)
                for p in mine:
                    alpha[p] = math.exp(score[p] - top) / total
    state = np.zeros((hg.num_edges, x.shape[1]))
    for u, e in pairs:
        state[e] += alpha[u, e] * x[u]
    out = np.zeros((hg.n, theta.shape[1]))
    for v in range(hg.n):
        if deg[v] == 0:
            continue
        acc = np.zeros(x.shape[1])
        for u, e in pairs:
            if u == v:
                acc += alpha[v, e] * (weights[e] / len(hg.edges[e])) * state[e]
        pre = acc / deg[v] @ theta + bias[0]
        out[v] = np.where(pre > 0, pre, np.exp(pre) - 1.0)
    return out


# --- equivalence suite -----------------------------------------------------------


@dataclass(frozen=True)
class EquivalenceCase:
    name: str
    max_deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_deviation < self.tolerance


def _random_hypergraph(rng, n_max=12, uniform=None, min_size=1, max_size=5):
    n_min = max(uniform or 0, 2)
    n = int(rng.integers(n_min, n_max + 1))
    m = int(rng.integers(1, 9))
    edges = []
    for _ in range(m):
        size = uniform or int(rng.integers(min_size, min(n, max_size) + 1))
        edges.append(rng.choice(n, size=size, replace=False).tolist())
    return from_edge_list(n, edges)


def _sum_sum_shared(trials: int, rng) -> float:
    layer = AllSetLayer(SumPool(), SumPool())
    worst = 0.0
    for _ in range(trials):
        hg = _random_hypergraph(rng)
        x = rng.normal(size=(hg.n, 3))
        _, out = layer.forward({}, hg, x)
        worst = max(worst, np.abs(out.value - ce_prop_h(hg, x)).max())
    return worst


def _sum_sum_per_pair(trials: int, rng) -> float:
    layer = AllSetLayer(SumPool(), SumPool(), variant="per_aggregator")
    worst = 0.0
    for _ in range(trials):
        hg = _random_hypergraph(rng)
        x = rng.normal(size=(hg.n, 3))
        _, out = layer.forward({}, hg, x)
        worst = max(worst, np.abs(out.value - ce_prop_a(hg, x)).max())
    return worst


def _product_per_pair(trials: int, rng) -> float:
    layer = AllSetLayer(ProductPool(), SumPool(), variant="per_aggregator")
    worst = 0.0
    for _ in range(trials):
        d = int(rng.integers(3, 5))
        hg = _random_hypergraph(rng, uniform=d)
        x = rng.uniform(0.5, 1.5, size=(hg.n, 2))
        _, out = layer.forward({}, hg, x)
        worst = max(worst, np.abs((d - 1) * out.value - z_prop(hg, x, d)).max())
    return worst


def _hgnn_construction(hg: Hypergraph, x, theta, bias):
    deg = hg.degrees().astype(np.float64)
    z = np.zeros((hg.num_edges, x.shape[1]))
    for e, members in enumerate(hg.edges):
        for u in members:
            z[e] += x[u] / np.sqrt(deg[u])
    out = np.zeros((hg.n, theta.shape[1]))
    for v in range(hg.n):
        if deg[v] == 0:
            continue
        acc = np.zeros(x.shape[1])
        for e, members in enumerate(hg.edges):
            if v in members:
                acc += hg.incidence.weights[e] / len(members) * z[e]
        out[v] = np.maximum(acc / np.sqrt(deg[v]) @ theta + bias, 0.0)
    return out


def _hgnn_case(trials: int, rng) -> float:
    worst = 0.0
    for _ in range(trials):
        hg = _random_hypergraph(rng)
        x = rng.normal(size=(hg.n, 3))
        theta = rng.normal(size=(3, 2))
        bias = rng.normal(size=(1, 2))
        params = {"hgnn.theta": ad.parameter(theta), "hgnn.bias": ad.parameter(bias)}
        got = rules.hgnn_layer(hg, x, params).value
        want = _hgnn_construction(hg, x, theta, bias)
        worst = max(worst, np.abs(got - want).max())
    return worst


def _hnhn_construction(hg, x, theta_e, bias_e, theta_v, bias_v, alpha, beta):
    deg = hg.degrees().astype(np.float64)
    z = np.zeros((hg.num_edges, theta_e.shape[1]))
    for e, members in enumerate(hg.edges):
        norm = sum(deg[u] ** beta for u in members)
        acc = np.zeros(x.shape[1])
        for u in members:
            acc += deg[u] ** beta * x[u]
        z[e] = np.maximum(acc / norm @ theta_e + bias_e, 0.0)
    out = np.zeros((hg.n, theta_v.shape[1]))
    for v in range(hg.n):
        if deg[v] == 0:
            continue
        norm = sum(deg[v] ** alpha for e, members in enumerate(hg.edges) if v in members)
        acc = np.zeros(theta_e.shape[1])
        for e, members in enumerate(hg.edges):
            if v in members:
                acc += len(members) ** alpha * z[e]
        out[v] = np.maximum(acc / norm @ theta_v + bias_v, 0.0)
    return out


def _hnhn_case(trials: int, rng) -> float:
    worst = 0.0
    for _ in range(trials):
        hg = _random_hypergraph(rng)
        x = rng.normal(size=(hg.n, 3))
        alpha = float(rng.uniform(-1.0, 1.0))
        beta = float(rng.uniform(-1.0, 1.0))
        theta_e = rng.normal(size=(3, 4))
        bias_e = rng.normal(size=(1, 4))
        theta_v = rng.normal(size=(4, 2))
        bias_v = rng.normal(size=(1, 2))
        params = {
            "hnhn.edge.theta": ad.parameter(theta_e),
            "hnhn.edge.bias": ad.parameter(bias_e),
            "hnhn.node.theta": ad.parameter(theta_v),
            "hnhn.node.bias": ad.parameter(bias_v),
        }
        got = rules.hnhn_layer(hg, x, params, alpha=alpha, beta=beta)[1].value
        want = _hnhn_construction(hg, x, theta_e, bias_e, theta_v, bias_v, alpha, beta)
        worst = max(worst, np.abs(got - want).max())
    return worst


def hypersage_layer(hg: Hypergraph, x: np.ndarray, theta: np.ndarray, p: int) -> np.ndarray:
    """HyperSAGE as printed, looping over edges and nodes: z_e is the
    order-p power mean of e's members, a node's pooled row the order-p
    power mean of its edges' z_e (a zero row for an isolated node), then
    ``relu(normalize(pooled + x_v) Theta)``."""
    deg = hg.degrees().astype(np.float64)
    z = np.zeros((hg.num_edges, x.shape[1]))
    for e, members in enumerate(hg.edges):
        z[e] = (np.mean([x[u] ** p for u in members], axis=0)) ** (1.0 / p)
    out = np.zeros((hg.n, theta.shape[1]))
    for v in range(hg.n):
        acc = np.zeros(x.shape[1])
        for e, members in enumerate(hg.edges):
            if v in members:
                acc += z[e] ** p
        pooled = (acc / deg[v]) ** (1.0 / p) if deg[v] > 0 else acc
        star = pooled + x[v]
        out[v] = np.maximum(star / np.linalg.norm(star) @ theta, 0.0)
    return out


def _hypersage_case(trials: int, rng) -> float:
    worst = 0.0
    for _ in range(trials):
        hg = _random_hypergraph(rng)
        p = int(rng.integers(1, 4))
        x = rng.uniform(0.2, 1.5, size=(hg.n, 3))
        theta = rng.normal(size=(3, 2))
        params = {"hypersage.theta": ad.parameter(theta)}
        got = rules.hypersage_layer(hg, x, params, p=p).value
        want = hypersage_layer(hg, x, theta, p)
        worst = max(worst, np.abs(got - want).max())
    return worst


def equivalence_suite(seed: int = 0, trials: int = 50) -> List[EquivalenceCase]:
    """Run every construction at its stated tolerance; results carry the
    worst observed deviation over ``trials`` random hypergraphs."""
    cases = [
        ("sum-sum shared state = co-member sums", _sum_sum_shared, 1e-12),
        ("sum-sum pair states = co-member sums minus self", _sum_sum_per_pair, 1e-12),
        ("scaled-product pair states = tensor product rule", _product_per_pair, 1e-10),
        ("weighted sums = degree-normalized two-stage layer", _hgnn_case, 1e-12),
        ("degree-power averages = two-half-step layer", _hnhn_case, 1e-12),
        ("power means + residual = normalized sage layer", _hypersage_case, 1e-12),
    ]
    results = []
    for i, (name, fn, tol) in enumerate(cases):
        rng = make_rng(seed + i)
        results.append(EquivalenceCase(name, float(fn(trials, rng)), tol))
    return results


def format_report(cases: List[EquivalenceCase]) -> str:
    lines = []
    for c in cases:
        status = "PASS" if c.passed else "FAIL"
        lines.append(
            f"[{status}] {c.name}: max deviation {c.max_deviation:.3e}"
            f" (tolerance {c.tolerance:g})"
        )
    return "\n".join(lines)
