"""Hypergraph layers as compositions of two learned multiset functions.

One layer performs a node->edge aggregation followed by an edge->node
aggregation.  Both halves are multiset functions: they see the rows that
belong to one hyperedge (or to one node's incident edges) as an unordered
collection.  Fixed pools (sum / mean / product / weighted sum) reproduce
classical propagation rules; the learned pools wrap the aggregation in
MLPs (deep-sets style) or in seeded multihead attention with layer norm
(set-transformer style).

Aggregations read the hypergraph's cached incidence
(:attr:`~hgx.hypergraph.Hypergraph.incidence`): each half takes one
directed view, gathers rows from the source side and reduces them per
segment, and pools read segment sizes and nonempty masks from that view.
Both layer variants are the same two pool calls: the shared variant over
``v2e``/``e2v`` (one state per hyperedge), the pair-state variant over
``pair_views`` (one state per incidence pair, pooled from the edge's
other members, so its cost grows with sum(|e| (|e| - 1)), not sum(|e|)).
Every sum, weighted or not, is one :func:`~hgx.autodiff.segment_sum`
over the view (a sparse product by H transposed node->edge, H
edge->node) instead of gathering one row per pair.  Empty segments
(isolated nodes, 1-member edges' leave-one-out multisets) produce zero
rows.
"""

from __future__ import annotations

import operator
from typing import Dict, Optional

import numpy as np

from . import autodiff as ad
from . import nn
from .autodiff import Tensor
from .hypergraph import Hypergraph, SegmentView
from .nn import MlpSpec


class PerAggregatorGuardError(ValueError):
    """Raised when the pair-state layer variant's leave-one-out view,
    sum(|e| (|e| - 1)) pairs, would exceed the guard."""


PER_AGGREGATOR_PAIR_GUARD = 200_000


def node_tensor(hg: Hypergraph, x) -> Tensor:
    """``x`` as a tensor with one row per node of ``hg``: the one check
    that every layer and rule reads node rows through."""
    xt = ad.wrap(x)
    if xt.shape[0] != hg.n:
        raise ad.ShapeMismatchError(f"features have {xt.shape[0]} rows for {hg.n} nodes")
    return xt


class MultisetFunction:
    """Base interface: a permutation-invariant reduction from the rows of
    each segment of a view to one output row per segment.  A pool is
    entered only through :meth:`aggregate`."""

    def out_dim(self, in_dim: int) -> int:
        return in_dim

    def init_params(
        self, rng: np.random.Generator, in_dim: int, prefix: str
    ) -> Dict[str, Tensor]:
        return {}

    def aggregate(
        self,
        params: Dict[str, Tensor],
        src: Tensor,
        view: SegmentView,
        prefix: str,
    ) -> Tensor:
        """One output row per segment of ``view``, reducing the rows of
        ``src`` that the view gathers into it."""
        raise NotImplementedError


class SumPool(MultisetFunction):
    def aggregate(self, params, src, view, prefix):
        return ad.segment_sum(src, view)


class MeanPool(MultisetFunction):
    def aggregate(self, params, src, view, prefix):
        total = ad.segment_sum(src, view)
        sizes = np.maximum(view.sizes, 1.0)
        return ad.mul(total, ad.constant(1.0 / sizes.reshape(-1, 1)))


class ProductPool(MultisetFunction):
    """Columnwise product over each segment; empty segments give zero
    rows (not the empty product 1)."""

    def aggregate(self, params, src, view, prefix):
        prod = ad.segment_prod(ad.gather_rows(src, view.src), view)
        return ad.mul(prod, ad.constant(view.nonempty))


class WeightedSumPool(MultisetFunction):
    """Sum with fixed rule-derived weights, one per pair of the view (an
    array, or a ``(P, 1)`` Tensor such as HCHA's attention, which then
    gets gradients), then an optional per-segment rescale: the degree
    normalizers of HGNN, HCHA and HNHN."""

    def __init__(self, pair_weights, segment_scale: Optional[np.ndarray] = None):
        if not isinstance(pair_weights, Tensor):
            pair_weights = np.asarray(pair_weights, dtype=np.float64).reshape(-1, 1)
        self.pair_weights = pair_weights
        self.segment_scale = (
            None
            if segment_scale is None
            else np.asarray(segment_scale, dtype=np.float64).reshape(-1, 1)
        )

    def aggregate(self, params, src, view, prefix):
        out = ad.segment_sum(src, view, self.pair_weights)
        if self.segment_scale is not None:
            out = ad.mul(out, ad.constant(self.segment_scale))
        return out


class DeepSetsPool(MultisetFunction):
    """Row-wise MLP, segment sum, then a second MLP on the pooled row.
    With both MLPs set to identity this is exactly :class:`SumPool`."""

    def __init__(self, inner: MlpSpec, outer: MlpSpec):
        if inner.out_dim != outer.in_dim:
            raise ValueError(
                f"inner output width {inner.out_dim} != outer input width {outer.in_dim}"
            )
        self.inner = inner
        self.outer = outer

    def out_dim(self, in_dim):
        return self.outer.out_dim

    def init_params(self, rng, in_dim, prefix):
        if in_dim != self.inner.in_dim:
            raise ValueError(f"pool expects {self.inner.in_dim} columns, got {in_dim}")
        params = nn.init_mlp_params(self.inner, rng, f"{prefix}.inner")
        params.update(nn.init_mlp_params(self.outer, rng, f"{prefix}.outer"))
        return params

    def aggregate(self, params, src, view, prefix):
        h = nn.mlp_forward(self.inner, params, src, f"{prefix}.inner")
        pooled = ad.segment_sum(h, view)
        out = nn.mlp_forward(self.outer, params, pooled, f"{prefix}.outer")
        return ad.mul(out, ad.constant(view.nonempty))


class SetTransformerPool(MultisetFunction):
    """Seeded multihead attention over each segment with two residual +
    layer-norm stages.

    Per head, key and value maps are bias-free ``(in_dim, head_dim)``
    linear projections (``{prefix}.key{i}.w0``, ``.value{i}.w0``); the
    attention query is a learnable seed row, and the attention weights
    are a softmax over the segment.  Head outputs are concatenated to
    ``heads * head_dim`` columns, the width of the two-layer ``post`` MLP.
    """

    def __init__(self, heads: int, head_dim: int):
        dims = (heads, head_dim)
        if any(isinstance(d, bool) or not hasattr(d, "__index__") or d < 1 for d in dims):
            raise ValueError(f"heads and head_dim must be positive integers: {dims}")
        self.heads, self.head_dim = map(operator.index, dims)
        self.hidden = self.heads * self.head_dim
        self.post = MlpSpec((self.hidden, self.hidden, self.hidden))

    def out_dim(self, in_dim):
        return self.hidden

    def init_params(self, rng, in_dim, prefix):
        params: Dict[str, Tensor] = {}
        # seed query row, one slice per head
        params[f"{prefix}.seed"] = ad.parameter(
            rng.normal(0.0, 1.0 / np.sqrt(self.hidden), size=(1, self.hidden))
        )
        for i in range(self.heads):
            for name in (f"key{i}", f"value{i}"):
                params[f"{prefix}.{name}.w0"] = ad.parameter(
                    nn.xavier_uniform(rng, in_dim, self.head_dim)
                )
        for stage in ("ln1", "ln2"):
            params[f"{prefix}.{stage}.gain"] = ad.parameter(np.ones((1, self.hidden)))
            params[f"{prefix}.{stage}.bias"] = ad.parameter(np.zeros((1, self.hidden)))
        params.update(nn.init_mlp_params(self.post, rng, f"{prefix}.post"))
        return params

    def aggregate(self, params, src, view, prefix):
        seed = params[f"{prefix}.seed"]
        head_outputs = []
        for i in range(self.heads):
            k = ad.matmul(src, params[f"{prefix}.key{i}.w0"])
            v = ad.matmul(src, params[f"{prefix}.value{i}.w0"])
            lo, hi = i * self.head_dim, (i + 1) * self.head_dim
            seed_slice = ad.slice_cols(seed, lo, hi)
            logits = ad.row_sum(ad.mul(ad.gather_rows(k, view.src), seed_slice))
            weights = ad.segment_softmax(logits, view)
            head_outputs.append(ad.segment_sum(v, view, weights))
        mh = head_outputs[0] if self.heads == 1 else ad.concat_cols(head_outputs)
        y = nn.layer_norm(
            ad.add(seed, mh), params[f"{prefix}.ln1.gain"], params[f"{prefix}.ln1.bias"]
        )
        out = nn.layer_norm(
            ad.add(y, nn.mlp_forward(self.post, params, y, f"{prefix}.post")),
            params[f"{prefix}.ln2.gain"],
            params[f"{prefix}.ln2.bias"],
        )
        return ad.mul(out, ad.constant(view.nonempty))


class AllSetLayer:
    """One full node->edge->node propagation step: ``v2e`` pools each
    multiset of node rows into a state, ``e2v`` pools each node's
    multiset of states.

    ``variant="shared"`` keeps one state per hyperedge (the production
    path).  ``variant="per_aggregator"`` keeps one state per (edge,
    member) pair, pooled from the edge's other members, so each node
    aggregates states that exclude its own row.  It reads the
    incidence's ``pair_views``, is differentiable, takes any pools, and
    returns no edge state; it raises :class:`PerAggregatorGuardError`
    when sum(|e| (|e| - 1)) exceeds ``PER_AGGREGATOR_PAIR_GUARD``.  A
    1-member edge's leave-one-out multiset is empty, so its pair state is
    an exact zero row: a :class:`DeepSetsPool` e2v with relu MLPs meets it
    with its zero-initialized inner bias at relu's kink, where the
    analytic gradient (0) and a central difference (half the slope) differ.

    The second arguments of both halves (previous edge / node states)
    are dropped by default; ``use_second_argument=True`` concatenates
    them to the aggregated output when provided (shared variant only).
    """

    def __init__(
        self,
        v2e: MultisetFunction,
        e2v: MultisetFunction,
        variant: str = "shared",
        use_second_argument: bool = False,
    ):
        if variant not in ("shared", "per_aggregator"):
            raise ValueError(f"unknown variant {variant!r}")
        if variant == "per_aggregator" and use_second_argument:
            raise ValueError("the per_aggregator variant takes no second argument")
        self.v2e = v2e
        self.e2v = e2v
        self.variant = variant
        self.use_second_argument = use_second_argument

    def _views(self, hg: Hypergraph) -> tuple:
        """(node rows -> states, states -> nodes) views for the variant."""
        inc = hg.incidence
        if self.variant == "shared":
            return inc.v2e, inc.e2v
        loo_pairs = int(inc.edge_sizes @ (inc.edge_sizes - 1))
        if loo_pairs > PER_AGGREGATOR_PAIR_GUARD:
            raise PerAggregatorGuardError(
                f"{loo_pairs} leave-one-out pairs exceed {PER_AGGREGATOR_PAIR_GUARD}"
            )
        return inc.pair_views

    def widths(self, in_dim: int, z_prev_dim: int = 0) -> tuple:
        """(edge-state width, node-state width) of this layer's output for
        ``in_dim`` input columns and a previous edge state of
        ``z_prev_dim`` columns (0 when there is none); both account for
        the optional second-argument concatenation.  The per-aggregator
        variant returns no edge state, so its edge-state width is 0."""
        z_dim = self.v2e.out_dim(in_dim)
        if self.use_second_argument:
            z_dim += z_prev_dim
        out_dim = self.e2v.out_dim(z_dim)
        if self.use_second_argument:
            out_dim += in_dim
        return (z_dim if self.variant == "shared" else 0), out_dim

    def init_params(
        self, rng: np.random.Generator, in_dim: int, z_prev_dim: int = 0,
        prefix: str = "layer",
    ) -> tuple:
        """Returns (params, out_dim), with widths from :meth:`widths`."""
        z_dim, out_dim = self.widths(in_dim, z_prev_dim)
        if self.variant == "per_aggregator":
            z_dim = self.v2e.out_dim(in_dim)  # pair states, which forward drops
        params = self.v2e.init_params(rng, in_dim, f"{prefix}.v2e")
        params.update(self.e2v.init_params(rng, z_dim, f"{prefix}.e2v"))
        return params, out_dim

    def v2e_forward(
        self,
        params: Dict[str, Tensor],
        hg: Hypergraph,
        x,
        z_prev=None,
        prefix: str = "layer",
    ) -> Tensor:
        """Hidden state per hyperedge (per incidence pair for the
        per-aggregator variant) from the multiset of member rows."""
        xt = node_tensor(hg, x)
        z = self.v2e.aggregate(params, xt, self._views(hg)[0], f"{prefix}.v2e")
        if self.use_second_argument and z_prev is not None:
            z = ad.concat_cols([z, ad.wrap(z_prev)])  # raises unless one row per edge
        return z

    def e2v_forward(
        self,
        params: Dict[str, Tensor],
        hg: Hypergraph,
        z,
        x_prev=None,
        prefix: str = "layer",
    ) -> Tensor:
        """Node state from the multiset of incident-edge (or pair) rows;
        isolated nodes yield zero rows (or their previous state when the
        second argument is enabled)."""
        zt = ad.wrap(z)
        view = self._views(hg)[1]
        if zt.shape[0] != view.src_count:
            raise ad.ShapeMismatchError(
                f"states have {zt.shape[0]} rows, the {self.variant} variant "
                f"reads {view.src_count}"
            )
        x_out = self.e2v.aggregate(params, zt, view, f"{prefix}.e2v")
        if self.use_second_argument and x_prev is not None:
            xp = ad.wrap(x_prev)
            x_out = ad.concat_cols([x_out, xp])
        return x_out

    def forward(
        self,
        params: Dict[str, Tensor],
        hg: Hypergraph,
        x,
        z_prev=None,
        prefix: str = "layer",
    ) -> tuple:
        """Full propagation step; returns (edge_state, node_state), with no
        edge state for the per-aggregator variant."""
        z = self.v2e_forward(params, hg, x, z_prev=z_prev, prefix=prefix)
        x_out = self.e2v_forward(
            params, hg, z, x_prev=x if self.use_second_argument else None,
            prefix=prefix,
        )
        return (z if self.variant == "shared" else None), x_out


class AllSetNetwork:
    """Input projection, a stack of propagation layers, and a classifier
    head: one linear layer, named ``head``."""

    def __init__(
        self,
        in_dim: int,
        num_classes: int,
        layers: list,
        input_proj: Optional[MlpSpec] = None,
        dropout: float = 0.0,
    ):
        if not layers:
            raise ValueError("at least one propagation layer is required")
        self.in_dim = in_dim
        self.num_classes = num_classes
        self.layers = list(layers)
        self.input_proj = input_proj
        self.dropout = float(dropout)
        ad.check_dropout_rate(self.dropout)
        # forward starts without a previous edge state (z0 is None)
        dim, z_dim = (in_dim if input_proj is None else input_proj.out_dim), 0
        self._layer_dims = []
        for layer in self.layers:
            self._layer_dims.append((dim, z_dim))
            z_dim, dim = layer.widths(dim, z_dim)
        self.head = MlpSpec((dim, num_classes), activation="identity")

    def init_params(self, rng: np.random.Generator) -> Dict[str, Tensor]:
        params: Dict[str, Tensor] = {}
        if self.input_proj is not None:
            params.update(nn.init_mlp_params(self.input_proj, rng, "proj"))
        for li, layer in enumerate(self.layers):
            layer_params, _ = layer.init_params(
                rng, *self._layer_dims[li], prefix=f"layer{li}"
            )
            params.update(layer_params)
        params.update(nn.init_mlp_params(self.head, rng, "head"))
        return params

    def forward(
        self,
        params: Dict[str, Tensor],
        hg: Hypergraph,
        x,
        z0=None,
        rng: Optional[np.random.Generator] = None,
        training: bool = False,
    ) -> Tensor:
        """Logits with one row per node and one column per class.  The
        layer widths are fixed without an initial edge state, so a ``z0``
        that the first layer would concatenate is rejected."""
        h = ad.wrap(x)
        if h.shape[1] != self.in_dim:
            raise ad.ShapeMismatchError(
                f"network expects {self.in_dim} feature columns, got {h.shape[1]}"
            )
        if z0 is not None and self.layers[0].use_second_argument:
            raise ad.ShapeMismatchError(
                "the network's widths assume no initial edge state, got z0"
            )
        drop = self.dropout if training else 0.0
        if drop > 0 and rng is None:
            raise ValueError("training with dropout needs an rng")
        if self.input_proj is not None:
            h = nn.mlp_forward(self.input_proj, params, h, "proj")
            if drop > 0:
                h = ad.dropout(h, drop, rng)
        z = z0
        for li, layer in enumerate(self.layers):
            z, h = layer.forward(params, hg, h, z_prev=z, prefix=f"layer{li}")
            if drop > 0:
                h = ad.dropout(h, drop, rng)
        return nn.mlp_forward(self.head, params, h, "head")
