"""Classical hypergraph propagation rules as AllSet layers.

AllSet's claim is that each rule is two multiset functions, node->edge
then edge->node; here each is an :class:`~hgx.allset.AllSetLayer` of fixed
pools, so every aggregation but HyperGCN's is a pool over the incidence's
two views.  The rules are one family: each reads node rows through
:func:`~hgx.allset.node_tensor` and returns Tensors on the autodiff
engine, so gradients reach ``x`` and any parameters.  CEpropH is a
shared-state sum/sum layer, CEpropA the pair-state sum/sum layer, Zprop
(d - 1) times the pair-state product/sum layer and Hprop its (d - 1)-th
root.  HGNN, HCHA and HNHN are weighted-sum layers whose pair weights
carry every normalizer, per-edge and per-node alike (HCHA's attention is
a Tensor of pair weights).  Their maps before the nonlinearity are
linear, so they project first, ``X Theta``, and aggregate ``f_out``
columns instead of ``f_in``; the printed order differs only by
rounding.  HyperSAGE is a mean/mean layer between the p-th power and
the p-th root; its row normalization is a per-row scale, which commutes
with ``Theta``, so it scales ``x* Theta``.  At p = 1 the means are
linear too, so it projects first; the power and root of p != 1 do not
commute with ``Theta``, so that case pools at input width.
HyperGCN's ``W`` depends on the features, so it aggregates through a
view built per forward pass from ``W``'s ``(row, column, weight)``
triples, applied to the projected features as ``W (X Theta)``.  No
layer holds a dense n-by-n matrix.

Conventions shared by every rule:
  - features are one row per node;
  - hyperedges and their members are iterated in canonical sorted order,
    and ties between members go to the smaller node id;
  - zero-degree nodes produce zero output rows wherever a degree
    normalizer would otherwise divide by zero.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from . import autodiff as ad
from . import nn
from .allset import (AllSetLayer, MeanPool, ProductPool, SumPool, WeightedSumPool,
                     node_tensor)
from .autodiff import ShapeMismatchError, Tensor
from .hypergraph import Hypergraph, NotUniformError, segment_view


class NonPositiveInputError(ValueError):
    pass


class DegenerateEdgeError(ValueError):
    pass


class NegativeBaseError(ValueError):
    pass


class ZeroNormRowError(ValueError):
    pass


class ZeroNormalizerError(ValueError):
    pass


# --- fixed rules ------------------------------------------------------------


_CE_PROP_H = AllSetLayer(SumPool(), SumPool())
_CE_PROP_A = AllSetLayer(SumPool(), SumPool(), variant="per_aggregator")
_Z_PROP = AllSetLayer(ProductPool(), SumPool(), variant="per_aggregator")


def ce_prop_h(hg: Hypergraph, x) -> Tensor:
    """Each node receives the summed features of every co-member,
    including itself once per shared hyperedge."""
    return _CE_PROP_H.forward({}, hg, x)[1]


def ce_prop_a(hg: Hypergraph, x) -> Tensor:
    """Like :func:`ce_prop_h` but each node's own feature is excluded
    from the inner sum (zero-diagonal clique expansion).  The exclusion
    is a leave-one-out sum, not the h - d*x identity, so that
    single-neighbor contributions are passed through bit-exactly."""
    return _CE_PROP_A.forward({}, hg, x)[1]


def _check_order(value, name: str, minimum: int) -> None:
    """An order (Zprop's and Hprop's ``d``, HyperSAGE's ``p``) is an
    integer ``>= minimum``: a bool or a float, nan included, is refused
    rather than read as a number."""
    if (isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer))
            or value < minimum):
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value}")


def z_prop(hg: Hypergraph, x, d: int) -> Tensor:
    """Product-based update for d-uniform hypergraphs: every node
    receives, per incident edge, the elementwise product of the other
    members' features, and the sum is scaled by (d - 1)."""
    _check_order(d, "uniform order", 2)
    if hg.num_edges and hg.uniform_order() != d:
        raise NotUniformError(f"hypergraph is not {d}-uniform")
    return ad.mul(_Z_PROP.forward({}, hg, x)[1], ad.constant(d - 1))


def h_prop(hg: Hypergraph, x, d: int) -> Tensor:
    """Root-taking variant of :func:`z_prop`; restricted to strictly
    positive features so the (d-1)-th root stays real."""
    _check_order(d, "uniform order", 2)
    xt = node_tensor(hg, x)
    if not (xt.value > 0).all():
        raise NonPositiveInputError("h_prop requires strictly positive features")
    return _root(z_prop(hg, xt, d), d - 1)


def _root(t: Tensor, p: float) -> Tensor:
    """``t ** (1/p)`` of a nonnegative ``t``: each exact-0 entry (all of
    an isolated node's row, say) is rooted at 1 then zeroed, so the root's
    VJP stays finite there and its gradient is the 0 subgradient."""
    nonzero = (t.value != 0).astype(np.float64)
    shifted = ad.add(t, ad.constant(1.0 - nonzero))
    return ad.mul(ad.power(shifted, 1.0 / p), ad.constant(nonzero))


# --- trainable layers -------------------------------------------------------


def _inverse(a: np.ndarray) -> np.ndarray:
    """``1 / a`` as float64, and 0 where ``a`` is 0 (an isolated node's row)."""
    return np.divide(1.0, a, out=np.zeros(np.shape(a)), where=a != 0)


def init_linear_params(
    rng: np.random.Generator, f_in: int, f_out: int, prefix: str, bias: bool = True
) -> Dict[str, Tensor]:
    params = {f"{prefix}.theta": ad.parameter(nn.xavier_uniform(rng, f_in, f_out))}
    if bias:
        params[f"{prefix}.bias"] = ad.parameter(np.zeros((1, f_out)))
    return params


def init_hgnn_params(rng, f_in: int, f_out: int) -> Dict[str, Tensor]:
    return init_linear_params(rng, f_in, f_out, "hgnn")


def hgnn_layer(hg: Hypergraph, x, params: Dict[str, Tensor]) -> Tensor:
    """``relu(Dv^-1/2 H W De^-1 H^T Dv^-1/2 X Theta + b)``: an AllSet
    layer of two weighted sums over the projected rows ``X Theta``.  The
    v2e pair weights are ``w_e / (|e| sqrt(d_u))``, the e2v ones
    ``1 / sqrt(d_v)``.  Zero-degree nodes emit zero rows."""
    xt = node_tensor(hg, x)
    inc = hg.incidence
    inv_sqrt = _inverse(np.sqrt(inc.e2v.sizes))
    layer = AllSetLayer(
        WeightedSumPool(inv_sqrt[inc.nodes] * (inc.weights / inc.v2e.sizes)[inc.edges]),
        WeightedSumPool(inv_sqrt[inc.nodes]),
    )
    agg = layer.forward(params, hg, ad.matmul(xt, params["hgnn.theta"]), prefix="hgnn")[1]
    return ad.mul(ad.relu(ad.add(agg, params["hgnn.bias"])), ad.constant(inc.e2v.nonempty))


def init_hcha_params(
    rng, f_in: int, f_out: int, f_edge: int = 0
) -> Dict[str, Tensor]:
    params = init_linear_params(rng, f_in, f_out, "hcha")
    if f_edge:
        params["hcha.att"] = ad.parameter(
            nn.xavier_uniform(rng, 1, f_in + f_edge)
        )
    return params


def hcha_layer(
    hg: Hypergraph,
    x,
    params: Dict[str, Tensor],
    edge_feats: Optional[np.ndarray] = None,
) -> Tensor:
    """Attention-weighted co-member aggregation: an AllSet layer whose
    two weighted sums share one weight ``alpha`` per incidence pair, over
    the projected rows ``X Theta``, then a bias and ELU.  The e2v pair
    weights also carry ``w_e / |e|`` and the receiver's ``1 / d_v``.

    Per-incidence attention compares a node's features with its
    hyperedge's features and normalizes across the edges incident to
    that node; it takes ``edge_feats`` and ``params`` from
    ``init_hcha_params(..., f_edge=...)``, and one without the other
    raises.  Without both, the weights are the uniform 1/d_u and 1/d_v.
    """
    xt = node_tensor(hg, x)
    inc = hg.incidence
    pn, pe = inc.nodes, inc.edges
    inv_deg = _inverse(inc.e2v.sizes)

    if (edge_feats is not None) != ("hcha.att" in params):
        raise ValueError("attention takes both edge_feats and the hcha.att of "
                         "init_hcha_params(..., f_edge=...), or neither")
    if edge_feats is not None:
        zt = ad.wrap(edge_feats)
        if zt.shape[0] != hg.num_edges:
            raise ShapeMismatchError(
                f"edge features have {zt.shape[0]} rows for {hg.num_edges} edges"
            )
        pair_cat = ad.concat_cols([ad.gather_rows(xt, pn), ad.gather_rows(zt, pe)])
        att = params["hcha.att"]  # (1, f_in + f_edge)
        scores = ad.leaky_relu(ad.row_sum(ad.mul(pair_cat, att)))
        alpha = ad.segment_softmax(scores, inc.e2v)
    else:
        alpha = ad.constant(inv_deg[pn].reshape(-1, 1))

    # v2e sums alpha_ue X_u Theta; e2v reuses alpha at the (v, e) pairs
    norm = ad.constant(((inc.weights / inc.v2e.sizes)[pe] * inv_deg[pn]).reshape(-1, 1))
    layer = AllSetLayer(WeightedSumPool(alpha), WeightedSumPool(ad.mul(alpha, norm)))
    agg = layer.forward(params, hg, ad.matmul(xt, params["hcha.theta"]), prefix="hcha")[1]
    return ad.mul(ad.elu(ad.add(agg, params["hcha.bias"])), ad.constant(inc.e2v.nonempty))


def init_hnhn_params(rng, f_in: int, f_edge: int, f_out: int) -> Dict[str, Tensor]:
    params = init_linear_params(rng, f_in, f_edge, "hnhn.edge")
    params.update(init_linear_params(rng, f_edge, f_out, "hnhn.node"))
    return params


def hnhn_layer(
    hg: Hypergraph,
    x,
    params: Dict[str, Tensor],
    alpha: float = 0.0,
    beta: float = 0.0,
) -> tuple:
    """Two half-steps with degree-power reweighting: the two halves of an
    AllSet layer with a linear map and ReLU after each.  The edge step
    projects first and pools ``X Theta_e``; the node step is already
    ``f_edge`` wide, so it pools then maps.  Pair weights carry each
    normalizer.

    Edge step: hidden edge state from a d_u**beta weighted average of
    member features, normalized by the sum of those powers.  Node step:
    node state from an |e|**alpha weighted average of incident edge
    states, normalized as printed: by the node's own degree power
    d_v**alpha summed over its incident edges.  Returns
    ``(edge_state, node_state)``.  A non-finite ``alpha`` or ``beta``
    raises ``ValueError``.
    """
    alpha, beta = float(alpha), float(beta)
    if not (np.isfinite(alpha) and np.isfinite(beta)):
        raise ValueError(f"hnhn exponents must be finite, got alpha={alpha}, beta={beta}")
    inc = hg.incidence
    pn, pe = inc.nodes, inc.edges
    deg = inc.e2v.sizes

    deg_beta = np.power(deg, beta, where=deg > 0, out=np.zeros(deg.shape))
    d_el = np.bincount(pe, weights=deg_beta[pn], minlength=hg.num_edges)
    if hg.num_edges and not (d_el > 0).all():
        raise ZeroNormalizerError("edge-side normalizer vanished")
    size_alpha = np.power(inc.v2e.sizes, alpha)
    pair_w = np.power(deg, alpha, where=deg > 0, out=np.zeros(deg.shape))[pn]
    d_vl = np.bincount(pn, weights=pair_w, minlength=hg.n)
    layer = AllSetLayer(WeightedSumPool(deg_beta[pn] / d_el[pe]),
                        WeightedSumPool(size_alpha[pe] * _inverse(d_vl)[pn]))
    projected = ad.matmul(node_tensor(hg, x), params["hnhn.edge.theta"])
    edge_avg = layer.v2e_forward(params, hg, projected, prefix="hnhn")
    z_out = ad.relu(ad.add(edge_avg, params["hnhn.edge.bias"]))
    node_avg = layer.e2v_forward(params, hg, z_out, prefix="hnhn")
    x_out = ad.relu(ad.linear(node_avg, params["hnhn.node.theta"], params["hnhn.node.bias"]))
    return z_out, ad.mul(x_out, ad.constant(inc.e2v.nonempty))


def init_hypergcn_params(rng, f_in: int, f_out: int) -> Dict[str, Tensor]:
    return init_linear_params(rng, f_in, f_out, "hypergcn")


def hypergcn_mediators(hg: Hypergraph, projected: np.ndarray) -> np.ndarray:
    """The ``(num_edges, 2)`` int64 mediator pairs: for each edge, the
    members ``(u, v)``, ``u < v``, whose ``projected`` rows are farthest
    apart.  Ties go to the lexicographically first pair: squared
    distances of direct differences ``P[v] - P[u]`` are compared exactly
    (``np.argmax`` keeps the first maximum).  There is no slack: a pair
    farther by less than 1e-15, which a loop with a 1e-15 margin on the
    distance would pass over, is chosen.

    Edges are batched by size ``k``; pass ``a`` pairs member ``a`` with
    every later member, so it holds one ``(E_k, k - a - 1, f)`` array of
    direct differences, never all ``k (k - 1) / 2`` of them.  Every edge
    needs at least two members."""
    inc = hg.incidence
    sizes = inc.v2e.sizes
    if (sizes < 2).any():
        bad = hg.edges[int(np.argmax(sizes < 2))]
        raise DegenerateEdgeError(f"edge {bad} has fewer than 2 nodes")
    first = np.cumsum(sizes) - sizes
    out = np.empty((hg.num_edges, 2), dtype=np.int64)
    for k in np.unique(sizes):
        es = np.flatnonzero(sizes == k)
        members = inc.nodes[first[es, None] + np.arange(k)]  # (E_k, k)
        rows = np.arange(len(es))
        best = np.full(len(es), -1.0)
        pair = members[:, :2].copy()
        for a in range(k - 1):
            diff = projected[members[:, a + 1:]]
            diff -= projected[members[:, a]][:, None]
            dist = np.einsum("ebf,ebf->eb", diff, diff)
            b = np.argmax(dist, axis=1)
            far = dist[rows, b]
            better = far > best  # strict: an earlier pair keeps a tie
            best[better] = far[better]
            pair[better] = np.stack(
                [members[better, a], members[rows, a + 1 + b][better]], axis=1
            )
        out[es] = pair
    return out


def hypergcn_edge_weights(hg: Hypergraph, projected: np.ndarray) -> tuple:
    """Mediator-routed pair weights as ``(view, weights)``: the triples
    ``(v, u, w)`` of HyperGCN's ``W``, for :func:`ad.segment_sum`.

    Edge ``e`` with mediators ``(i, j)`` (:func:`hypergcn_mediators`)
    contributes, in edge order, the ``4|e| - 4`` pairs ``(v, u)`` of two
    members at least one of which is a mediator: for each member ``u`` in
    turn, ``(i, u)`` and ``(j, u)``, then ``(u, i)`` and ``(u, j)`` unless
    ``u`` is a mediator.  Each weighs ``1 / (2|e| - 3)``.  The view
    reduces column ``u`` (source) into row ``v`` (segment), and a segment
    adds its pairs in the order of a loop over edges, rows, then columns.
    Pairs shared by several edges stay separate and add up."""
    inc = hg.incidence
    med = hypergcn_mediators(hg, projected)
    e, u = inc.edges, inc.nodes
    i, j = med[e, 0], med[e, 1]
    keep = np.ones((len(u), 4), dtype=bool)
    keep[:, 2:] = ((u != i) & (u != j))[:, None]
    rows = np.stack([i, j, u, u], axis=1)[keep]
    cols = np.stack([u, u, i, j], axis=1)[keep]
    w = 1.0 / (2 * inc.v2e.sizes - 3)
    weights = np.broadcast_to(w[e, None], keep.shape)[keep].reshape(-1, 1)
    return segment_view(cols, rows, hg.n, hg.n), weights


def hypergcn_layer(hg: Hypergraph, x, params: Dict[str, Tensor]) -> Tensor:
    """Mediator-based incomplete clique propagation,
    ``relu(W (X Theta) + b)``.

    The layer projects once, picks each edge's mediators from the
    projected rows, and aggregates them through ``W``'s triples
    (:func:`hypergcn_edge_weights`): ``W (X Theta)`` equals the printed
    ``(W X) Theta`` up to rounding and aggregates ``f_out`` columns
    instead of ``f_in``.  The mediators are a constant of the forward
    pass: no gradient flows through their choice."""
    xt = node_tensor(hg, x)
    projected = ad.matmul(xt, params["hypergcn.theta"])
    view, weights = hypergcn_edge_weights(hg, projected.value)
    agg = ad.segment_sum(projected, view, weights)
    return ad.relu(ad.add(agg, params["hypergcn.bias"]))


_HYPERSAGE = AllSetLayer(MeanPool(), MeanPool())
_NORM_BLOCK = 32  # columns per block of HyperSAGE's p = 1 row norms


def init_hypersage_params(rng, f_in: int, f_out: int) -> Dict[str, Tensor]:
    return init_linear_params(rng, f_in, f_out, "hypersage", bias=False)


def _mean_of_means(hg: Hypergraph, x: Tensor) -> Tensor:
    """Each node's mean over its incident edges of the edges' member
    means (a zero row for an isolated node): linear, column by column."""
    return _HYPERSAGE.forward({}, hg, x, prefix="hypersage")[1]


def _residual_mean(hg: Hypergraph, x: Tensor) -> Tensor:
    """HyperSAGE's p = 1 ``x* = x + mean(mean(x))``, of any columns of ``x``."""
    return ad.add(x, _mean_of_means(hg, x))


def hypersage_layer(hg: Hypergraph, x, params: Dict[str, Tensor], p: int = 1) -> Tensor:
    """Power-mean aggregation over edges then over a node's incident
    edges (an AllSet layer of two mean pools between the p-th power and
    the p-th root), a residual add ``x* = x + pooled``, row
    normalization, and a linear map plus ReLU, computed as
    ``relu(r * (x* Theta))`` with ``r = 1 / ||x*||`` per row: a row
    scaling commutes with ``Theta``, so this equals the printed
    ``relu((r * x*) Theta)`` up to rounding.

    At p = 1 the means are linear too, so ``x* Theta = X Theta +
    pooled(X Theta)`` pools ``f_out`` columns, and ``Theta``'s gradient
    reads the caller's ``x``.  The squared norms are summed over column
    blocks of ``x*``, each pooled on its own, so a constant ``x`` costs
    no other array of its width.  The p-th power and root of p != 1 do
    not commute with ``Theta``: that case pools at input width and keeps
    ``x*`` for ``Theta``'s gradient.  A zero row of ``x*`` raises
    :class:`ZeroNormRowError` before anything divides by its norm."""
    _check_order(p, "power-mean order", 1)
    xt = node_tensor(hg, x)
    theta = params["hypersage.theta"]
    if p == 1:
        x_star_theta = _residual_mean(hg, ad.matmul(xt, theta))
        squares = ad.constant(np.zeros((hg.n, 1)))
        for lo in range(0, xt.shape[1], _NORM_BLOCK):
            block = _residual_mean(hg, ad.slice_cols(xt, lo, min(lo + _NORM_BLOCK, xt.shape[1])))
            squares = ad.add(squares, ad.row_sum(ad.mul(block, block)))
    else:
        if (xt.value < 0).any():
            raise NegativeBaseError("power means with p > 1 require nonnegative input")
        # z_e = edge_mean ** (1/p); z_e**p reappears at once, so no root between the means
        x_star = ad.add(_root(_mean_of_means(hg, ad.power(xt, float(p))), p), xt)
        squares = ad.row_sum(ad.mul(x_star, x_star))
        x_star_theta = ad.matmul(x_star, theta)
    norm = ad.sqrt(squares)
    if (norm.value == 0).any():
        raise ZeroNormRowError("row with zero norm before normalization")
    return ad.relu(ad.mul(x_star_theta, ad.div(ad.constant(1.0), norm)))
