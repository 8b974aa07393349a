"""Reverse-mode automatic differentiation over dense float64 matrices.

Every value is a 2-D float64 array (scalars are 1x1, vectors are single
rows).  An operation whose result needs a gradient records a tape node
for it: the graph entries of its inputs and a vector-Jacobian closure
per input.  A result of constants records nothing.

The tape holds no values.  A node refers to its inputs' nodes, not to
their tensors, and each VJP closes over just the arrays and shapes it
reads (``mul`` keeps its operands, ``relu`` its mask, ``add`` only
shapes).  The VJP slot of a constant input is ``None``, so whatever
that closure would have read is not kept either.  An intermediate
value is therefore freed as soon as the caller drops its ``Tensor``,
unless some VJP reads it; only parameters are graph entries of their
own.  Those arrays are the forward's: rebinding ``w.value`` after the
forward does not change the gradients its backward computes, but
writing into the array in place does.  ``AdamState.step`` rebinds.

``Tensor.backward`` walks the recorded graph once in reverse
topological order and consumes it: once a node's gradient has reached
its parents, the node drops that gradient and its VJPs, and with them
every array those VJPs read.  Afterwards only leaves hold ``.grad``,
and the tape holds no arrays even while the loss is still referenced,
so a step's peak is the forward's tape, not the tape plus the
gradients in flight.  A second backward whose graph reaches a consumed
node raises :class:`ConsumedTapeError` before any gradient changes;
build the loss again to differentiate again.

A few hot paths are one node each, with an analytic VJP per input,
instead of a chain of small ops: :func:`linear` (``x @ w + b``), the
block-weighted :func:`segment_sum` that sums all attention heads at
once, and :func:`hgx.nn.layer_norm`.

Segment ops reduce over a :class:`~hgx.hypergraph.SegmentView`, whose
one sort, ``view.pairs``, lists each segment's pairs in pair order.
Sums are products with the view's CSR (``view.matrix``, with the pair
weights as entries when given, or ``view.pairs``).  scipy's CSR kernel
starts each output row at zero and adds the rows in that stored order,
so the results are sequential sums, bit-identical from run to run.
Segment products and maxima are ``ufunc.reduceat`` over the same rows.
The backward of :func:`gather_rows` is a CSC matrix with one entry per
column, which adds each row's gradients in pair order without a sort.

A graph is confined to the thread that built it.  Independent graphs
(e.g. parallel training runs) share nothing and may run concurrently.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Union

import numpy as np
from scipy import sparse

from .hypergraph import id_array

ArrayLike = Union[np.ndarray, float, int, Sequence]


class ShapeMismatchError(ValueError):
    pass


class NonScalarOutputError(ValueError):
    pass


class NoTapeError(ValueError):
    pass


class ConsumedTapeError(NoTapeError):
    """A backward reached a node that an earlier backward consumed."""


def _as_matrix(value: ArrayLike) -> np.ndarray:
    a = np.asarray(value, dtype=np.float64)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    elif a.ndim == 1:
        a = a.reshape(1, -1)
    elif a.ndim != 2:
        raise ShapeMismatchError(f"expected at most 2 dimensions, got {a.ndim}")
    return a


class _Node:
    """An op result's entry in the tape: the graph entries of its parents
    (a parent's ``_Node``, a leaf ``Tensor`` itself, or ``None`` for a
    constant), one VJP per parent (``None`` for a constant) and the
    gradient buffer that ``backward`` fills and frees.  No value.  The
    backward that consumes the node sets all three to ``None``."""

    __slots__ = ("parents", "vjps", "grad")

    def __init__(self, parents: tuple, vjps: tuple):
        self.parents = parents
        self.vjps = vjps
        self.grad: Optional[np.ndarray] = None


class Tensor:
    """A value and its place in the graph.  A leaf (``requires_grad``
    and recorded by no op, i.e. a parameter) is its own graph entry and
    collects ``.grad``; an op result that needs a gradient records a
    ``_Node`` holding its VJPs and its gradient buffer, so its ``.grad``
    stays ``None``; a constant records nothing.  The node does not
    refer back to the tensor, so the value lives only as long as the
    tensor does, or until the VJPs that read it have run in a
    backward.  After ``backward`` the tape holds no arrays: only the
    leaves' ``.grad`` and the values of tensors still referenced."""

    __slots__ = ("value", "grad", "requires_grad", "_node")

    def __init__(
        self,
        value: ArrayLike,
        requires_grad: bool = False,
        _parents: tuple = (),
        _vjps: tuple = (),
    ):
        self.value = _as_matrix(value)
        self.grad: Optional[np.ndarray] = None
        self._node: Optional[_Node] = None
        self.requires_grad = bool(requires_grad)
        # backward never walks past a constant, so a constant keeps no
        # tape, and a constant parent neither an entry nor a VJP
        if _parents and any(p.requires_grad for p in _parents):
            self.requires_grad = True
            self._node = _Node(
                tuple((p if p._node is None else p._node) if p.requires_grad else None
                      for p in _parents),
                tuple(v if p.requires_grad else None for p, v in zip(_parents, _vjps)),
            )

    @property
    def shape(self) -> tuple:
        return self.value.shape

    @property
    def _vjps(self) -> tuple:
        """The recorded VJPs, one per parent; ``()`` without a node,
        ``None`` once a backward has consumed the node."""
        return () if self._node is None else self._node.vjps

    @_vjps.setter
    def _vjps(self, vjps) -> None:
        vjps = tuple(vjps)
        if self._node is not None:
            self._node.vjps = vjps
        elif vjps:
            raise NoTapeError("a tensor that records no tape takes no VJPs")

    def backward(self) -> None:
        """Accumulate gradients of this scalar into every reachable
        ``requires_grad`` leaf, visiting each node once in reverse
        topological order of construction.  The walk consumes the graph:
        once a node's gradient has gone to its parents, the node drops
        it, its VJPs and its parent links, which frees the arrays those
        VJPs read while backward proceeds.  Only leaves keep ``.grad``.

        A backward that reaches a consumed node raises
        ``ConsumedTapeError`` before any VJP runs, so no ``.grad``
        changes.  There is no option to keep the tape: every caller runs
        one backward per forward and builds the loss again to
        differentiate again, so a kept tape would only hold every VJP's
        arrays past the point where anything reads them.  (An optimizer
        step does not stand in the way: ``AdamState.step`` rebinds each
        parameter's ``value`` and writes into no array a VJP reads.)  A
        tensor that requires no gradient records no tape, so its
        ``backward`` raises ``NoTapeError``."""
        if not self.requires_grad:
            raise NoTapeError(
                "backward() of a tensor that records no tape: no parameter reaches it"
            )
        if self.value.size != 1:
            raise NonScalarOutputError(
                f"backward() needs a scalar output, got shape {self.shape}"
            )
        root = self._node
        if root is None:  # a leaf: its own gradient is one
            self.grad = np.ones_like(self.value) if self.grad is None else self.grad + 1.0
            return
        topo: list = []
        seen = set()
        stack: list = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if node in seen:
                continue
            if node.vjps is None:
                raise ConsumedTapeError(
                    "backward() reached a node that an earlier backward() consumed; "
                    "build the loss again from the parameters to differentiate again"
                )
            seen.add(node)
            stack.append((node, True))
            for p in node.parents:
                if type(p) is _Node and p not in seen:
                    stack.append((p, False))
        root.grad = np.ones_like(self.value)
        for node in reversed(topo):
            g = node.grad
            for parent, vjp in zip(node.parents, node.vjps):
                if parent is None:
                    continue
                contrib = vjp(g)
                if parent.grad is not None:
                    parent.grad += contrib
                elif np.may_share_memory(contrib, g):
                    # ``add`` passes ``g`` on, ``concat_cols`` a view of it:
                    # a later ``+=`` must not write into a sibling's buffer
                    parent.grad = contrib.copy()
                else:
                    parent.grad = contrib
            node.grad = node.vjps = node.parents = None

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def wrap(x) -> Tensor:
    """Pass tensors through; turn arrays/scalars into constant tensors."""
    return x if isinstance(x, Tensor) else Tensor(x)


def constant(x: ArrayLike) -> Tensor:
    return Tensor(x, requires_grad=False)


def parameter(x: ArrayLike) -> Tensor:
    return Tensor(np.array(x, dtype=np.float64, copy=True), requires_grad=True)


def zero_grads(params: Iterable[Tensor]) -> None:
    for t in params:
        t.grad = None


# --- broadcasting helpers -------------------------------------------------


def _check_broadcast(sa: tuple, sb: tuple) -> None:
    for x, y in zip(sa, sb):
        if x != y and x != 1 and y != 1:
            raise ShapeMismatchError(f"cannot broadcast {sa} with {sb}")


def _reduce_to(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum gradient over axes that were broadcast in the forward pass."""
    if g.shape == shape:
        return g
    out = g
    if shape[0] == 1 and out.shape[0] != 1:
        out = out.sum(axis=0, keepdims=True)
    if shape[1] == 1 and out.shape[1] != 1:
        out = out.sum(axis=1, keepdims=True)
    return out


# --- elementwise arithmetic -------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    sa, sb = a.shape, b.shape
    _check_broadcast(sa, sb)
    return Tensor(
        a.value + b.value,
        _parents=(a, b),
        _vjps=(
            lambda g: _reduce_to(g, sa),
            lambda g: _reduce_to(g, sb),
        ),
    )


def sub(a: Tensor, b: Tensor) -> Tensor:
    sa, sb = a.shape, b.shape
    _check_broadcast(sa, sb)
    return Tensor(
        a.value - b.value,
        _parents=(a, b),
        _vjps=(
            lambda g: _reduce_to(g, sa),
            lambda g: _reduce_to(-g, sb),
        ),
    )


def mul(a: Tensor, b: Tensor) -> Tensor:
    av, bv = a.value, b.value
    sa, sb = av.shape, bv.shape
    _check_broadcast(sa, sb)
    return Tensor(
        av * bv,
        _parents=(a, b),
        _vjps=(
            lambda g: _reduce_to(g * bv, sa),
            lambda g: _reduce_to(g * av, sb),
        ),
    )


def div(a: Tensor, b: Tensor) -> Tensor:
    av, bv = a.value, b.value
    sa, sb = av.shape, bv.shape
    _check_broadcast(sa, sb)
    return Tensor(
        av / bv,
        _parents=(a, b),
        _vjps=(
            lambda g: _reduce_to(g / bv, sa),
            lambda g: _reduce_to(-g * av / (bv * bv), sb),
        ),
    )


def neg(a: Tensor) -> Tensor:
    return Tensor(-a.value, _parents=(a,), _vjps=(lambda g: -g,))


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.value)
    return Tensor(out, _parents=(a,), _vjps=(lambda g: g * out,))


def log(a: Tensor) -> Tensor:
    av = a.value
    return Tensor(np.log(av), _parents=(a,), _vjps=(lambda g: g / av,))


def sqrt(a: Tensor) -> Tensor:
    out = np.sqrt(a.value)
    return Tensor(out, _parents=(a,), _vjps=(lambda g: g * 0.5 / out,))


def power(a: Tensor, p: float) -> Tensor:
    """Elementwise real power; non-integer p requires nonnegative input."""
    av = a.value
    return Tensor(
        np.power(av, p),
        _parents=(a,),
        _vjps=(lambda g: g * p * np.power(av, p - 1.0),),
    )


def relu(a: Tensor) -> Tensor:
    """``max(a, 0)``; a NaN entry stays NaN rather than becoming 0."""
    mask = a.value > 0
    return Tensor(np.maximum(a.value, 0.0), _parents=(a,), _vjps=(lambda g: g * mask,))


def leaky_relu(a: Tensor) -> Tensor:
    """Leaky ReLU with slope 0.2 below 0: ``max(a, 0.2 a)``."""
    mask = a.value > 0
    return Tensor(
        np.maximum(a.value, 0.2 * a.value),
        _parents=(a,),
        _vjps=(lambda g: g * (mask * 0.8 + 0.2),),
    )


def elu(a: Tensor) -> Tensor:
    """ELU with alpha 1: ``exp(a) - 1`` below 0.  The exponential sees
    only ``min(a, 0)``, so a large entry cannot overflow it."""
    out = np.exp(np.minimum(a.value, 0.0)) - 1.0 + np.maximum(a.value, 0.0)
    return Tensor(
        out,
        _parents=(a,),
        _vjps=(lambda g: g * (np.minimum(out, 0.0) + 1.0),),
    )


# --- linear algebra and reductions -----------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape[1] != b.shape[0]:
        raise ShapeMismatchError(f"matmul {a.shape} @ {b.shape}")
    av, bv = a.value, b.value
    return Tensor(
        av @ bv,
        _parents=(a, b),
        _vjps=(
            lambda g: g @ bv.T,
            lambda g: av.T @ g,
        ),
    )


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` as one node, ``b`` a ``(1, out)`` row: the same
    arithmetic as ``add(matmul(x, w), b)``, with the bias added in place."""
    if x.shape[1] != w.shape[0]:
        raise ShapeMismatchError(f"linear {x.shape} @ {w.shape}")
    if b.shape != (1, w.shape[1]):
        raise ShapeMismatchError(f"bias {b.shape} for {w.shape[1]} output columns")
    xv, wv = x.value, w.value
    out = xv @ wv
    out += b.value
    return Tensor(
        out,
        _parents=(x, w, b),
        _vjps=(
            lambda g: g @ wv.T,
            lambda g: xv.T @ g,
            lambda g: g.sum(axis=0, keepdims=True),
        ),
    )


def sum_all(a: Tensor) -> Tensor:
    shape = a.shape
    return Tensor(
        np.array([[a.value.sum()]]),
        _parents=(a,),
        _vjps=(lambda g: np.full(shape, g[0, 0]),),
    )


def row_sum(a: Tensor) -> Tensor:
    """Sum along each row, yielding an (n, 1) column."""
    shape = a.shape
    return Tensor(
        a.value.sum(axis=1, keepdims=True),
        _parents=(a,),
        _vjps=(lambda g: np.broadcast_to(g, shape).copy(),),
    )


def col_sum(a: Tensor) -> Tensor:
    """Sum along each column, yielding a (1, m) row."""
    shape = a.shape
    return Tensor(
        a.value.sum(axis=0, keepdims=True),
        _parents=(a,),
        _vjps=(lambda g: np.broadcast_to(g, shape).copy(),),
    )


def concat_cols(parts: Sequence[Tensor]) -> Tensor:
    parts = list(parts)
    if not parts:
        raise ShapeMismatchError("column concat needs at least one part")
    rows = parts[0].shape[0]
    for p in parts:
        if p.shape[0] != rows:
            raise ShapeMismatchError("column concat needs equal row counts")
    widths = [p.shape[1] for p in parts]
    offsets = np.cumsum([0] + widths)
    vjps = tuple(
        (lambda lo, hi: lambda g: g[:, lo:hi])(offsets[i], offsets[i + 1])
        for i in range(len(parts))
    )
    return Tensor(
        np.concatenate([p.value for p in parts], axis=1),
        _parents=tuple(parts),
        _vjps=vjps,
    )


def slice_cols(a: Tensor, lo: int, hi: int) -> Tensor:
    """Contiguous column slice ``a[:, lo:hi]``."""
    if not (0 <= lo < hi <= a.shape[1]):
        raise ShapeMismatchError(f"slice [{lo}:{hi}] out of range for {a.shape}")
    shape = a.shape

    def vjp(g):
        out = np.zeros(shape)
        out[:, lo:hi] = g
        return out

    return Tensor(a.value[:, lo:hi], _parents=(a,), _vjps=(vjp,))


def gather_rows(a: Tensor, idx: np.ndarray) -> Tensor:
    """Select rows ``a[idx]``; the backward pass adds each row's
    gradients in pair order.  ``idx`` is checked by
    :func:`~hgx.hypergraph.id_array`: ids that are not integers, or lie
    outside ``[0, rows)`` (negative ones included), raise ``ValueError``."""
    rows = a.shape[0]
    idx = id_array(idx, rows, "row")
    p = len(idx)

    def vjp(g):  # one entry per column: a scatter without a sort
        cols = np.arange(p + 1)
        return sparse.csc_array((np.ones(p), idx, cols), shape=(rows, p)) @ g

    return Tensor(a.value[idx], _parents=(a,), _vjps=(vjp,))


def segment_sum(x: Tensor, view, weights=None) -> Tensor:
    """One row per segment of ``view``: the sum over its pairs ``p``, in
    pair order, of ``w_p * x[src_p]``.  ``x`` has ``view.src_count`` rows;
    ``weights`` is a ``(P, k)`` array or Tensor (``w = 1`` when ``None``)
    whose column ``j`` weights the ``j``-th of ``k`` equal column blocks
    of ``x``, so ``k`` must divide ``x``'s column count; each block's sum
    is bit-identical to a ``(P, 1)`` call on that block alone.  Empty
    segments yield zero rows."""
    m = view.matrix
    if x.shape[0] != m.shape[1]:
        raise ShapeMismatchError(f"{x.shape[0]} rows for a view of {m.shape[1]}")
    if weights is None:
        return Tensor(m @ x.value, _parents=(x,), _vjps=(lambda g: m.T @ g,))
    w = wrap(weights)
    k = w.shape[1]
    if w.shape[0] != m.nnz or not k or x.shape[1] % k:
        raise ShapeMismatchError(f"weights {w.shape} for {m.nnz} pairs of {x.shape[1]} columns")
    width = x.shape[1] // k
    count, rows = m.shape
    # one CSR sums every block: with x's blocks stacked as (k * rows,
    # width), its row j * count + s holds segment s's pairs for block j,
    # which it adds in the order a (P, 1) call on block j would
    shift = np.arange(k).reshape(-1, 1)
    blocks = sparse.csr_array(
        (w.value[view.pairs.indices].T.ravel(), (m.indices + rows * shift).ravel(),
         np.append((m.indptr[:-1] + m.nnz * shift).ravel(), k * m.nnz)),
        shape=(k * count, k * rows))

    def stacked(a):  # (n, k * width) -> (k * n, width); a view when k == 1
        n = a.shape[0]
        return a.reshape(n, k, width).swapaxes(0, 1).reshape(k * n, width)

    def unstacked(a):  # the inverse of ``stacked``
        n = a.shape[0] // k
        return a.reshape(k, n, width).swapaxes(0, 1).reshape(n, k * width)

    xv, seg, src = x.value, view.seg, view.src

    def dw(g):
        prod = g[seg]
        prod *= xv[src]
        return prod.reshape(len(prod), k, width).sum(axis=2)

    return Tensor(unstacked(blocks @ stacked(xv)), _parents=(x, w),
                  _vjps=(lambda g: unstacked(blocks.T @ stacked(g)), dw))


def _segment_reduce(ufunc, values: np.ndarray, m, empty: float) -> np.ndarray:
    """``ufunc`` over each segment's rows of the CSR ``m`` (a view's
    ``pairs``) in pair order; empty segments get ``empty``, since
    ``reduceat`` would return a row for an empty run."""
    if values.shape[0] != m.shape[1]:
        raise ShapeMismatchError(f"{values.shape[0]} rows for {m.shape[1]} pairs")
    out = np.full((m.shape[0], values.shape[1]), empty)
    starts = m.indptr[:-1]
    nonempty = m.indptr[1:] > starts
    out[nonempty] = ufunc.reduceat(values[m.indices], starts[nonempty], axis=0)
    return out


def _leave_one_out_prod(values: np.ndarray, seg: np.ndarray, m) -> np.ndarray:
    """For each row i, the product over its segment (rows of the CSR
    ``m``) excluding row i.  Zero entries are handled exactly via zero
    counts."""
    is_zero = values == 0.0
    nonzero = np.where(is_zero, 1.0, values)
    prod_nz = _segment_reduce(np.multiply, nonzero, m, 1.0)
    zero_count = m @ is_zero.astype(np.float64)
    zc = zero_count[seg]
    return np.where(
        zc == 0,
        prod_nz[seg] / nonzero,
        np.where((zc == 1) & is_zero, prod_nz[seg], 0.0),
    )


def segment_prod(a: Tensor, view) -> Tensor:
    """Columnwise product of the pair rows ``a`` (one per pair of
    ``view``) within each segment.  Empty segments yield ones (callers
    mask them when a zero row is wanted)."""
    av, m, seg = a.value, view.pairs, view.seg

    def vjp(g):
        return g[seg] * _leave_one_out_prod(av, seg, m)

    return Tensor(_segment_reduce(np.multiply, av, m, 1.0), _parents=(a,), _vjps=(vjp,))


def segment_softmax(a: Tensor, view) -> Tensor:
    """Columnwise softmax of the pair rows ``a`` (one per pair of
    ``view``) within each segment, stabilized by the segment max."""
    sums, seg = view.pairs, view.seg
    m = _segment_reduce(np.maximum, a.value, sums, -np.inf)
    e = np.exp(a.value - m[seg])
    out = e / (sums @ e)[seg]

    def vjp(g):
        dot = sums @ (g * out)
        return out * (g - dot[seg])

    return Tensor(out, _parents=(a,), _vjps=(vjp,))


def check_dropout_rate(rate: float) -> None:
    """Reject a rate outside ``[0, 1)``; rate 1 would divide by zero."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")


def dropout(a: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; identity when rate == 0."""
    check_dropout_rate(rate)
    if rate == 0.0:
        return a
    keep = (rng.random(a.shape) >= rate) / (1.0 - rate)
    return Tensor(a.value * keep, _parents=(a,), _vjps=(lambda g: g * keep,))
