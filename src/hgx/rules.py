"""Classical hypergraph propagation rules.

Two families live here.  The fixed rules (clique-expansion sums, the
tensor-contraction product rule and its root-taking variant) are AllSet
layers with fixed pools, which is the paper's claim that AllSet contains
them: CEpropH is a shared-state sum/sum layer, CEpropA the pair-state
sum/sum layer, and Zprop (d - 1) times the pair-state product/sum layer.
They take and return numpy arrays.  The trainable layers (HGNN, HCHA,
HNHN, HyperGCN, HyperSAGE) run on the autodiff engine so their
parameters can be optimized and gradient-checked.

Conventions shared by every rule:
  - features are one row per node;
  - hyperedges and their members are iterated in canonical sorted order;
  - zero-degree nodes produce zero output rows wherever a degree
    normalizer would otherwise divide by zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Union

import numpy as np

from . import autodiff as ad
from . import nn
from .allset import AllSetLayer, ProductPool, SumPool
from .autodiff import ShapeMismatchError, Tensor
from .hypergraph import Hypergraph, NotUniformError


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


FIXED_RULE_KINDS = ("CEpropA", "CEpropH", "Zprop", "Hprop")
TRAINABLE_RULE_KINDS = ("HGNN", "HCHA", "HNHN", "HyperGCN", "HyperSAGE")
RULE_KINDS = FIXED_RULE_KINDS + TRAINABLE_RULE_KINDS


@dataclass(frozen=True)
class PropagationRule:
    """A named rule plus exactly the hyperparameters its kind requires:
    ``alpha``/``beta`` for HNHN, ``p`` for HyperSAGE."""

    kind: str
    alpha: Optional[float] = None
    beta: Optional[float] = None
    p: Optional[int] = None

    def __post_init__(self):
        if self.kind not in RULE_KINDS:
            raise ValueError(f"unknown rule kind {self.kind!r}")
        needs_ab = self.kind == "HNHN"
        needs_p = self.kind == "HyperSAGE"
        if needs_ab and (self.alpha is None or self.beta is None):
            raise ValueError("HNHN requires alpha and beta")
        if not needs_ab and (self.alpha is not None or self.beta is not None):
            raise ValueError(f"{self.kind} takes no alpha/beta")
        if needs_p and self.p is None:
            raise ValueError("HyperSAGE requires p")
        if not needs_p and self.p is not None:
            raise ValueError(f"{self.kind} takes no p")


def _check_rows(hg: Hypergraph, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x.reshape(-1, 1)
    if x.shape[0] != hg.n:
        raise ShapeMismatchError(f"features have {x.shape[0]} rows for {hg.n} nodes")
    return x


# --- fixed rules ------------------------------------------------------------


_CE_PROP_H = AllSetLayer(SumPool(), SumPool())
_CE_PROP_A = AllSetLayer(SumPool(), SumPool(), variant="per_aggregator")
_Z_PROP = AllSetLayer(ProductPool(), SumPool(), variant="per_aggregator")


def ce_prop_h(hg: Hypergraph, x: np.ndarray) -> np.ndarray:
    """Each node receives the summed features of every co-member,
    including itself once per shared hyperedge."""
    return _CE_PROP_H.forward({}, hg, _check_rows(hg, x))[1].value


def ce_prop_a(hg: Hypergraph, x: np.ndarray) -> np.ndarray:
    """Like :func:`ce_prop_h` but each node's own feature is excluded
    from the inner sum (zero-diagonal clique expansion).  The exclusion
    is a leave-one-out sum, not the h - d*x identity, so that
    single-neighbor contributions are passed through bit-exactly."""
    return _CE_PROP_A.forward({}, hg, _check_rows(hg, x))[1].value


def z_prop(hg: Hypergraph, x: np.ndarray, d: int) -> np.ndarray:
    """Product-based update for d-uniform hypergraphs: every node
    receives, per incident edge, the elementwise product of the other
    members' features, and the sum is scaled by (d - 1)."""
    x = _check_rows(hg, x)
    if hg.num_edges and hg.uniform_order() != d:
        raise NotUniformError(f"hypergraph is not {d}-uniform")
    return (d - 1) * _Z_PROP.forward({}, hg, x)[1].value


def h_prop(hg: Hypergraph, x: np.ndarray, d: int) -> np.ndarray:
    """Root-taking variant of :func:`z_prop`; restricted to strictly
    positive features so the (d-1)-th root stays real."""
    x = _check_rows(hg, x)
    if not (x > 0).all():
        raise NonPositiveInputError("h_prop requires strictly positive features")
    z = z_prop(hg, x, d)
    return np.power(z, 1.0 / (d - 1))


# --- trainable layers -------------------------------------------------------


def _as_tensor(x: Union[np.ndarray, Tensor]) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def _node_tensor(hg: Hypergraph, x) -> Tensor:
    """``x`` as a tensor with one row per node of ``hg``."""
    xt = _as_tensor(x)
    if xt.shape[0] != hg.n:
        raise ShapeMismatchError(f"features have {xt.shape[0]} rows for {hg.n} nodes")
    return xt


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
    """Degree-normalized two-stage mean aggregation followed by a linear
    map and ReLU.  Zero-degree nodes emit zero rows."""
    xt = _node_tensor(hg, x)
    inc = hg.incidence
    deg = inc.e2v.sizes
    inv_sqrt = np.divide(1.0, np.sqrt(deg), out=np.zeros_like(deg), where=deg > 0)
    edge_scale = (inc.weights / inc.v2e.sizes).reshape(-1, 1)

    scaled = ad.mul(xt, ad.constant(inv_sqrt.reshape(-1, 1)))
    z = ad.segment_sum(scaled, inc.v2e)
    z = ad.mul(z, ad.constant(edge_scale))
    agg = ad.segment_sum(z, inc.e2v)
    agg = ad.mul(agg, ad.constant(inv_sqrt.reshape(-1, 1)))
    pre = ad.add(ad.matmul(agg, params["hgnn.theta"]), params["hgnn.bias"])
    return ad.mul(ad.relu(pre), ad.constant(inc.e2v.nonempty))


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
    activation: str = "elu",
) -> Tensor:
    """Attention-weighted co-member aggregation.

    Per-incidence attention compares a node's features with its
    hyperedge's features and normalizes across the edges incident to
    that node; it needs ``params`` from ``init_hcha_params(...,
    f_edge=...)``.  Without hyperedge features the attention module is
    unusable and the layer falls back to uniform weights 1/d_u and
    1/d_v.
    """
    xt = _node_tensor(hg, x)
    inc = hg.incidence
    pn, pe = inc.nodes, inc.edges
    deg = inc.e2v.sizes
    inv_deg = np.divide(1.0, deg, out=np.zeros_like(deg), where=deg > 0)

    if edge_feats is not None:
        if "hcha.att" not in params:
            raise ValueError("edge_feats need init_hcha_params(..., f_edge=...)")
        zt = _as_tensor(edge_feats)
        if zt.shape[0] != hg.num_edges:
            raise ShapeMismatchError(
                f"edge features have {zt.shape[0]} rows for {hg.num_edges} edges"
            )
        pair_cat = ad.concat_cols([ad.gather_rows(xt, pn), ad.gather_rows(zt, pe)])
        att = params["hcha.att"]  # (1, f_in + f_edge)
        scores = ad.leaky_relu(ad.row_sum(ad.mul(pair_cat, att)), 0.2)
        alpha = ad.segment_softmax(scores, inc.e2v)
    else:
        alpha = ad.constant(inv_deg[pn].reshape(-1, 1))

    inner = ad.segment_sum(xt, inc.v2e, alpha)  # sum_u alpha_ue X_u
    # the same attention, evaluated at (v, e) pairs, times w_e / |e|
    edge_scale = ad.constant((inc.weights / inc.v2e.sizes)[pe].reshape(-1, 1))
    outer = ad.segment_sum(inner, inc.e2v, ad.mul(alpha, edge_scale))
    outer = ad.mul(outer, ad.constant(inv_deg.reshape(-1, 1)))
    pre = ad.add(ad.matmul(outer, params["hcha.theta"]), params["hcha.bias"])
    act = {"elu": ad.elu, "relu": ad.relu}[activation]
    return ad.mul(act(pre), ad.constant(inc.e2v.nonempty))


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
    node_normalizer: str = "as_printed",
    activation: str = "relu",
) -> tuple:
    """Two half-steps with degree-power reweighting.

    Edge step: hidden edge state from a d_u**beta weighted average of
    member features, normalized by the sum of those powers.  Node step:
    node state from an |e|**alpha weighted average of incident edge
    states.  The printed form of the node-side normalizer sums the
    node's own degree power over incident edges (``as_printed``); the
    ``edge_size`` variant sums |e|**alpha instead.  Returns
    ``(edge_state, node_state)``.
    """
    xt = _node_tensor(hg, x)
    if node_normalizer not in ("as_printed", "edge_size"):
        raise ValueError(f"unknown node_normalizer {node_normalizer!r}")
    inc = hg.incidence
    pn, pe = inc.nodes, inc.edges
    deg = inc.e2v.sizes

    deg_beta = np.power(deg, beta, where=deg > 0, out=np.zeros_like(deg))
    d_el = np.bincount(pe, weights=deg_beta[pn], minlength=hg.num_edges)
    if hg.num_edges and not (d_el > 0).all():
        raise ZeroNormalizerError("edge-side normalizer vanished")
    act = {"relu": ad.relu, "identity": lambda t: t}[activation]
    edge_sum = ad.segment_sum(xt, inc.v2e, deg_beta[pn].reshape(-1, 1))
    edge_avg = ad.mul(edge_sum, ad.constant((1.0 / d_el).reshape(-1, 1)))
    z_out = act(
        ad.add(ad.matmul(edge_avg, params["hnhn.edge.theta"]), params["hnhn.edge.bias"])
    )

    size_alpha = np.power(inc.v2e.sizes, alpha)
    if node_normalizer == "as_printed":
        pair_w = np.power(deg, alpha, where=deg > 0, out=np.zeros_like(deg))[pn]
    else:
        pair_w = size_alpha[pe]
    d_vl = np.bincount(pn, weights=pair_w, minlength=hg.n)
    inv_dvl = np.divide(1.0, d_vl, out=np.zeros_like(d_vl), where=d_vl > 0)
    node_sum = ad.segment_sum(z_out, inc.e2v, size_alpha[pe].reshape(-1, 1))
    node_avg = ad.mul(node_sum, ad.constant(inv_dvl.reshape(-1, 1)))
    x_out = act(
        ad.add(ad.matmul(node_avg, params["hnhn.node.theta"]), params["hnhn.node.bias"])
    )
    x_out = ad.mul(x_out, ad.constant(inc.e2v.nonempty))
    return z_out, x_out


def init_hypergcn_params(rng, f_in: int, f_out: int) -> Dict[str, Tensor]:
    return init_linear_params(rng, f_in, f_out, "hypergcn")


def mediator_pair(projected: np.ndarray, members: tuple) -> tuple:
    """Feature-extreme pair of an edge: the (u, v) pair, u < v, whose
    projected features are farthest apart; ties go to the
    lexicographically smallest pair."""
    best, best_dist = None, -1.0
    for a in range(len(members)):
        for b in range(a + 1, len(members)):
            u, v = members[a], members[b]
            dist = float(np.linalg.norm(projected[u] - projected[v]))
            if dist > best_dist + 1e-15:
                best, best_dist = (u, v), dist
    return best


def hypergcn_edge_weights(hg: Hypergraph, projected: np.ndarray) -> np.ndarray:
    """Mediator-routed pair weights, accumulated into an n-by-n matrix.
    Every edge needs at least two members."""
    W = np.zeros((hg.n, hg.n))
    for members in hg.edges:
        if len(members) < 2:
            raise DegenerateEdgeError(f"edge {members} has fewer than 2 nodes")
        i_e, j_e = mediator_pair(projected, members)
        w = 1.0 / (2 * len(members) - 3)
        for v in members:
            for u in members:
                if u in (i_e, j_e) or v in (i_e, j_e):
                    W[v, u] += w
    return W


def hypergcn_layer(hg: Hypergraph, x, params: Dict[str, Tensor]) -> Tensor:
    """Mediator-based incomplete clique propagation: each hyperedge
    routes weight through its feature-extreme pair, then a shared linear
    map and ReLU are applied."""
    xt = _node_tensor(hg, x)
    projected = xt.value @ params["hypergcn.theta"].value
    W = hypergcn_edge_weights(hg, projected)
    agg = ad.matmul(ad.constant(W), xt)
    pre = ad.add(ad.matmul(agg, params["hypergcn.theta"]), params["hypergcn.bias"])
    return ad.relu(pre)


def init_hypersage_params(rng, f_in: int, f_out: int) -> Dict[str, Tensor]:
    return init_linear_params(rng, f_in, f_out, "hypersage", bias=False)


def hypersage_layer(
    hg: Hypergraph, x, params: Dict[str, Tensor], p: int = 1,
    activation: str = "relu",
) -> Tensor:
    """Power-mean aggregation over edges then over a node's incident
    edges, a residual add, row normalization, and a linear map plus
    activation."""
    if p < 1:
        raise ValueError(f"power-mean order must be >= 1, got {p}")
    xt = _node_tensor(hg, x)
    if p != 1 and (xt.value < 0).any():
        raise NegativeBaseError("power means with p > 1 require nonnegative input")
    inc = hg.incidence
    deg = inc.e2v.sizes

    xp = xt if p == 1 else ad.power(xt, float(p))
    edge_mean = ad.mul(ad.segment_sum(xp, inc.v2e),
                       ad.constant((1.0 / inc.v2e.sizes).reshape(-1, 1)))
    # z_e = edge_mean ** (1/p); z_e**p reappears immediately, so reuse edge_mean
    inv_deg = np.divide(1.0, deg, out=np.zeros_like(deg), where=deg > 0)
    node_mean = ad.mul(ad.segment_sum(edge_mean, inc.e2v),
                       ad.constant(inv_deg.reshape(-1, 1)))
    pooled = node_mean if p == 1 else ad.power(node_mean, 1.0 / p)
    x_star = ad.add(pooled, xt)
    norms = np.sqrt((x_star.value**2).sum(axis=1, keepdims=True))
    if (norms == 0).any():
        raise ZeroNormRowError("row with zero norm before normalization")
    inv_norm = ad.div(
        ad.constant(1.0), ad.sqrt(ad.row_sum(ad.mul(x_star, x_star)))
    )
    normalized = ad.mul(x_star, inv_norm)
    act = {"relu": ad.relu, "identity": lambda t: t}[activation]
    return act(ad.matmul(normalized, params["hypersage.theta"]))


def z_edge_state(hg: Hypergraph, x, p: int = 1) -> Tensor:
    """Power-mean hidden edge state used by the HyperSAGE update."""
    xt = _node_tensor(hg, x)
    inc = hg.incidence
    xp = xt if p == 1 else ad.power(xt, float(p))
    mean = ad.mul(ad.segment_sum(xp, inc.v2e),
                  ad.constant((1.0 / inc.v2e.sizes).reshape(-1, 1)))
    return mean if p == 1 else ad.power(mean, 1.0 / p)
