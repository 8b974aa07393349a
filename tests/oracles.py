"""Reference implementations the tests compare hgx against.

Everything here is a direct loop or a dense construction, kept out of
the package so that no path is checked against itself:

- loop forms of the fixed rules (CEpropH, CEpropA, Zprop) and a general
  loop over (edge, member) pair states, the reference for the pair-state
  layer variant;
- the activations in their ``np.where`` form, value and slope;
- a pool applied to one multiset of rows, through a one-segment view;
- the set-transformer pool by a loop over segments, on arrays;
- layer norm as the chain of elementwise and row-sum ops it was before
  it became one node;
- a backward that keeps every node's gradient buffer;
- the dense incidence and clique-expansion matrices and the order-d
  adjacency tensor;
- HyperGCN's loop-chosen mediator pairs, its dense ``W`` filled by a
  loop over member pairs, and the layer as printed on that ``W``;
- the other trainable rules as printed, each a node->edge then an
  edge->node aggregation by loops over edges, nodes or incidence pairs:
  HGNN, HCHA with and without attention, HNHN, and HyperSAGE's
  power-mean layer.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from hypothesis import strategies as st

from hgx import autodiff as ad
from hgx import rules
from hgx.hypergraph import Hypergraph, NotUniformError, from_edge_list, segment_view


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


# --- activations as selections --------------------------------------------------


def relu(a: np.ndarray) -> tuple:
    """``(value, slope)``: ``a`` where ``a > 0``, else 0."""
    mask = a > 0
    return np.where(mask, a, 0.0), mask * 1.0


def leaky_relu(a: np.ndarray) -> tuple:
    """``(value, slope)``: ``a`` where ``a > 0``, else ``0.2 a``."""
    mask = a > 0
    return np.where(mask, a, 0.2 * a), np.where(mask, 1.0, 0.2)


def elu(a: np.ndarray) -> tuple:
    """``(value, slope)``: ``a`` where ``a > 0``, else ``exp(a) - 1``.
    ``exp`` is taken of every entry, so a large one overflows there,
    unused; that overflow is silenced here."""
    mask = a > 0
    with np.errstate(over="ignore"):
        out = np.where(mask, a, np.exp(a) - 1.0)
    return out, np.where(mask, 1.0, out + 1.0)


def keep_all_backward(root):
    """``(entry, gradient)`` for every graph entry that the backward of
    the scalar ``root`` visits: the ``_Node`` of each recorded op result
    and each leaf ``Tensor`` itself.  A reverse walk that keeps each
    buffer: an entry's gradient starts at zeros and each contribution is
    added to it, and every contribution to an entry must have one shape,
    a leaf's that of its value.  The walk visits entries in the order
    ``Tensor.backward`` does, so the sums are bit-identical to its own."""

    def edges(entry):  # (parent entry, VJP) toward each parent that needs a gradient
        if not isinstance(entry, ad._Node):
            return []
        return [(p, vjp) for p, vjp in zip(entry.parents, entry.vjps) if p is not None]

    start = root._node
    topo, seen, stack = [], set(), [(start, False)]
    while stack:
        entry, expanded = stack.pop()
        if expanded:
            topo.append(entry)
        elif id(entry) not in seen:
            seen.add(id(entry))
            stack.append((entry, True))
            stack.extend((p, False) for p, _ in edges(entry) if id(p) not in seen)
    grads = {id(start): np.ones_like(root.value)}
    for entry in reversed(topo):
        g = grads.get(id(entry))
        if g is None:
            continue
        for parent, vjp in edges(entry):
            contrib = vjp(g)
            if id(parent) not in grads:
                shape = parent.shape if isinstance(parent, ad.Tensor) else contrib.shape
                grads[id(parent)] = np.zeros(shape)
            assert contrib.shape == grads[id(parent)].shape
            grads[id(parent)] += contrib
    return [(entry, grads.get(id(entry))) for entry in topo]


def worst_row(rows):
    """The row of ``nn.grad_check`` with the largest ``err``."""
    return max(rows, key=lambda r: r["err"])


def one_multiset(pool, params, rows, prefix="f"):
    """``pool`` on the one multiset of ``rows``, through a one-segment view."""
    rows = ad.wrap(rows)
    n = rows.shape[0]
    return pool.aggregate(params, rows, segment_view(np.arange(n), np.zeros(n, np.int64), 1, n), prefix)


def _layer_norm(row, gain, bias):
    centered = row - row.mean()
    return centered / np.sqrt((centered * centered).mean() + 1e-5) * gain + bias


def layer_norm_chain(x, gain, bias):
    """``nn.layer_norm`` as twelve autodiff ops, each with its own VJP."""
    n_cols = x.shape[1]
    mean = ad.mul(ad.row_sum(x), ad.constant(1.0 / n_cols))
    centered = ad.sub(x, mean)
    var = ad.mul(ad.row_sum(ad.mul(centered, centered)), ad.constant(1.0 / n_cols))
    inv_std = ad.div(ad.constant(1.0), ad.sqrt(ad.add(var, ad.constant(1e-5))))
    normalized = ad.mul(centered, inv_std)
    return ad.add(ad.mul(normalized, gain), bias)


def set_transformer_pool(pool, params, x, view, prefix="f"):
    """``SetTransformerPool`` by a loop over the segments of ``view``, on
    arrays: per head, a softmax over the segment of each member's key
    dotted with the seed's slice weights the members' values, with head
    i's key, value and seed slice read from column block i; the heads'
    rows, concatenated, go through the seed residual and layer norm, then
    the post MLP's residual and layer norm.  Empty segments give zero
    rows."""
    def value(name):
        return params[f"{prefix}.{name}"].value

    seed, width = value("seed")[0], pool.head_dim
    out = np.zeros((view.count, pool.hidden))
    for s in range(view.count):
        rows = x[view.src[view.seg == s]]
        if not len(rows):
            continue
        heads = []
        for i in range(pool.heads):
            block = slice(i * width, (i + 1) * width)  # head i's columns
            logits = rows @ value("key.w0")[:, block] @ seed[block]
            weights = np.exp(logits - logits.max())
            heads.append(weights / weights.sum() @ (rows @ value("value.w0")[:, block]))
        y = _layer_norm(seed + np.concatenate(heads), value("ln1.gain")[0], value("ln1.bias")[0])
        hidden = np.maximum(y @ value("post.w0") + value("post.b0")[0], 0.0)
        post = hidden @ value("post.w1") + value("post.b1")[0]
        out[s] = _layer_norm(y + post, value("ln2.gain")[0], value("ln2.bias")[0])
    return out


def random_hypergraph(rng, n_max=12, m_max=8, uniform=None):
    """2 to ``n_max`` nodes (at least ``uniform``) and 1 to ``m_max``
    edges, each of ``uniform`` distinct members or of 1 to min(n, 5)."""
    n = int(rng.integers(max(uniform or 0, 2), n_max + 1))
    m = int(rng.integers(1, m_max + 1))
    edges = []
    for _ in range(m):
        size = uniform or int(rng.integers(1, min(n, 5) + 1))
        edges.append(rng.choice(n, size=size, replace=False).tolist())
    return from_edge_list(n, edges)


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


# --- the trainable rules as printed --------------------------------------------


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


def hgnn_layer(hg: Hypergraph, x: np.ndarray, theta: np.ndarray,
               bias: np.ndarray) -> np.ndarray:
    """HGNN as printed, ``relu(Dv^-1/2 H W De^-1 H^T Dv^-1/2 X Theta + b)``,
    by loops over edges and nodes: edge e's state is the sum of
    ``x_u / sqrt(d_u)`` over its members u; node v's row is
    ``relu((1/sqrt(d_v)) sum_e (w_e / |e|) state_e Theta + b)``, and a
    zero row when d_v = 0."""
    deg = hg.degrees().astype(np.float64)
    weights = hg.incidence.weights
    state = np.zeros((hg.num_edges, x.shape[1]))
    for e, members in enumerate(hg.edges):
        for u in members:
            state[e] += x[u] / np.sqrt(deg[u])
    out = np.zeros((hg.n, theta.shape[1]))
    for v in range(hg.n):
        if deg[v] == 0:
            continue
        acc = np.zeros(x.shape[1])
        for e, members in enumerate(hg.edges):
            if v in members:
                acc += weights[e] / len(members) * state[e]
        out[v] = np.maximum(acc / np.sqrt(deg[v]) @ theta + bias[0], 0.0)
    return out


def hnhn_layer(hg: Hypergraph, x: np.ndarray, theta_e, bias_e, theta_v, bias_v,
               alpha: float, beta: float) -> tuple:
    """HNHN as printed, by loops over edges and nodes, as ``(edge_state,
    node_state)``: edge e's state is ``relu(avg_e Theta_e + b_e)``, with
    ``avg_e`` the ``d_u**beta``-weighted mean of its members' rows; node
    v's row is ``relu(avg_v Theta_v + b_v)``, with ``avg_v`` the sum over
    v's edges of ``|e|**alpha state_e`` divided by ``d_v**alpha`` summed
    over those edges, and a zero row when d_v = 0."""
    deg = hg.degrees().astype(np.float64)
    z = np.zeros((hg.num_edges, theta_e.shape[1]))
    for e, members in enumerate(hg.edges):
        norm = sum(deg[u] ** beta for u in members)
        acc = np.zeros(x.shape[1])
        for u in members:
            acc += deg[u] ** beta * x[u]
        z[e] = np.maximum(acc / norm @ theta_e + bias_e[0], 0.0)
    out = np.zeros((hg.n, theta_v.shape[1]))
    for v in range(hg.n):
        if deg[v] == 0:
            continue
        norm = sum(deg[v] ** alpha for members in hg.edges if v in members)
        acc = np.zeros(theta_e.shape[1])
        for e, members in enumerate(hg.edges):
            if v in members:
                acc += len(members) ** alpha * z[e]
        out[v] = np.maximum(acc / norm @ theta_v + bias_v[0], 0.0)
    return z, out


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
