"""Reverse-mode automatic differentiation over dense float64 matrices.

Every value is a 2-D float64 array (scalars are 1x1, vectors are single
rows).  An operation whose result needs a gradient records its inputs
and a vector-Jacobian closure per input; a result of constants records
nothing.  ``Tensor.backward`` walks the recorded graph once in reverse
topological order.

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


def _as_matrix(value: ArrayLike) -> np.ndarray:
    a = np.asarray(value, dtype=np.float64)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    elif a.ndim == 1:
        a = a.reshape(1, -1)
    elif a.ndim != 2:
        raise ShapeMismatchError(f"expected at most 2 dimensions, got {a.ndim}")
    return a


class Tensor:
    """A node in the computation graph: a value, an optional gradient
    buffer, and backward closures toward its parents."""

    __slots__ = ("value", "grad", "requires_grad", "_parents", "_vjps")

    def __init__(
        self,
        value: ArrayLike,
        requires_grad: bool = False,
        _parents: tuple = (),
        _vjps: tuple = (),
    ):
        self.value = _as_matrix(value)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad) or any(
            p.requires_grad for p in _parents
        )
        # backward never walks past a constant, so a constant keeps no tape
        self._parents, self._vjps = (_parents, _vjps) if self.requires_grad else ((), ())

    @property
    def shape(self) -> tuple:
        return self.value.shape

    def backward(self) -> None:
        """Accumulate gradients of this scalar into every reachable
        ``requires_grad`` leaf.  Visits each node exactly once, in reverse
        topological order of construction."""
        if self.value.size != 1:
            raise NonScalarOutputError(
                f"backward() needs a scalar output, got shape {self.shape}"
            )
        topo: list = []
        seen = set()
        stack: list = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.value)
        for node in reversed(topo):
            g = node.grad
            if g is None:
                continue
            for parent, vjp in zip(node._parents, node._vjps):
                if not parent.requires_grad:
                    continue
                contrib = vjp(g)
                if parent.grad is None:
                    parent.grad = np.zeros_like(parent.value)
                parent.grad += contrib

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
    _check_broadcast(a.shape, b.shape)
    return Tensor(
        a.value + b.value,
        _parents=(a, b),
        _vjps=(
            lambda g: _reduce_to(g, a.shape),
            lambda g: _reduce_to(g, b.shape),
        ),
    )


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a.shape, b.shape)
    return Tensor(
        a.value - b.value,
        _parents=(a, b),
        _vjps=(
            lambda g: _reduce_to(g, a.shape),
            lambda g: _reduce_to(-g, b.shape),
        ),
    )


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a.shape, b.shape)
    return Tensor(
        a.value * b.value,
        _parents=(a, b),
        _vjps=(
            lambda g: _reduce_to(g * b.value, a.shape),
            lambda g: _reduce_to(g * a.value, b.shape),
        ),
    )


def div(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a.shape, b.shape)
    return Tensor(
        a.value / b.value,
        _parents=(a, b),
        _vjps=(
            lambda g: _reduce_to(g / b.value, a.shape),
            lambda g: _reduce_to(-g * a.value / (b.value * b.value), b.shape),
        ),
    )


def neg(a: Tensor) -> Tensor:
    return Tensor(-a.value, _parents=(a,), _vjps=(lambda g: -g,))


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.value)
    return Tensor(out, _parents=(a,), _vjps=(lambda g: g * out,))


def log(a: Tensor) -> Tensor:
    return Tensor(np.log(a.value), _parents=(a,), _vjps=(lambda g: g / a.value,))


def sqrt(a: Tensor) -> Tensor:
    out = np.sqrt(a.value)
    return Tensor(out, _parents=(a,), _vjps=(lambda g: g * 0.5 / out,))


def power(a: Tensor, p: float) -> Tensor:
    """Elementwise real power; non-integer p requires nonnegative input."""
    out = np.power(a.value, p)
    return Tensor(
        out,
        _parents=(a,),
        _vjps=(lambda g: g * p * np.power(a.value, p - 1.0),),
    )


def relu(a: Tensor) -> Tensor:
    mask = a.value > 0
    return Tensor(np.where(mask, a.value, 0.0), _parents=(a,), _vjps=(lambda g: g * mask,))


def leaky_relu(a: Tensor, slope: float = 0.2) -> Tensor:
    mask = a.value > 0
    return Tensor(
        np.where(mask, a.value, slope * a.value),
        _parents=(a,),
        _vjps=(lambda g: g * np.where(mask, 1.0, slope),),
    )


def elu(a: Tensor, alpha: float = 1.0) -> Tensor:
    mask = a.value > 0
    out = np.where(mask, a.value, alpha * (np.exp(a.value) - 1.0))
    return Tensor(
        out,
        _parents=(a,),
        _vjps=(lambda g: g * np.where(mask, 1.0, out + alpha),),
    )


# --- linear algebra and reductions -----------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape[1] != b.shape[0]:
        raise ShapeMismatchError(f"matmul {a.shape} @ {b.shape}")
    return Tensor(
        a.value @ b.value,
        _parents=(a, b),
        _vjps=(
            lambda g: g @ b.value.T,
            lambda g: a.value.T @ g,
        ),
    )


def sum_all(a: Tensor) -> Tensor:
    return Tensor(
        np.array([[a.value.sum()]]),
        _parents=(a,),
        _vjps=(lambda g: np.full(a.shape, g[0, 0]),),
    )


def row_sum(a: Tensor) -> Tensor:
    """Sum along each row, yielding an (n, 1) column."""
    return Tensor(
        a.value.sum(axis=1, keepdims=True),
        _parents=(a,),
        _vjps=(lambda g: np.broadcast_to(g, a.shape).copy(),),
    )


def col_sum(a: Tensor) -> Tensor:
    """Sum along each column, yielding a (1, m) row."""
    return Tensor(
        a.value.sum(axis=0, keepdims=True),
        _parents=(a,),
        _vjps=(lambda g: np.broadcast_to(g, a.shape).copy(),),
    )


def concat_cols(parts: Sequence[Tensor]) -> Tensor:
    parts = list(parts)
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

    def vjp(g):
        out = np.zeros_like(a.value)
        out[:, lo:hi] = g
        return out

    return Tensor(a.value[:, lo:hi], _parents=(a,), _vjps=(vjp,))


def gather_rows(a: Tensor, idx: np.ndarray) -> Tensor:
    """Select rows ``a[idx]``; the backward pass adds each row's
    gradients in pair order.  ``idx`` is checked by
    :func:`~hgx.hypergraph.id_array`: ids that are not integers, or lie
    outside ``[0, rows)`` (negative ones included), raise ``ValueError``."""
    idx = id_array(idx, a.shape[0], "row")
    p = len(idx)

    def vjp(g):  # one entry per column: a scatter without a sort
        cols = np.arange(p + 1)
        return sparse.csc_array((np.ones(p), idx, cols), shape=(a.shape[0], p)) @ g

    return Tensor(a.value[idx], _parents=(a,), _vjps=(vjp,))


def segment_sum(x: Tensor, view, weights=None) -> Tensor:
    """One row per segment of ``view``: the sum over its pairs ``p``, in
    pair order, of ``w_p * x[src_p]``.  ``x`` has ``view.src_count`` rows;
    ``weights`` is a ``(P, 1)`` array or Tensor (``w = 1`` when ``None``).
    Empty segments yield zero rows."""
    m = view.matrix
    if x.shape[0] != m.shape[1]:
        raise ShapeMismatchError(f"{x.shape[0]} rows for a view of {m.shape[1]}")
    if weights is None:
        return Tensor(m @ x.value, _parents=(x,), _vjps=(lambda g: m.T @ g,))
    w = wrap(weights)
    if w.shape != (m.nnz, 1):
        raise ShapeMismatchError(f"weights {w.shape} for {m.nnz} pairs")
    m = sparse.csr_array((w.value[view.pairs.indices, 0], m.indices, m.indptr),
                         shape=m.shape)

    def dw(g):
        return (g[view.seg] * x.value[view.src]).sum(axis=1, keepdims=True)

    return Tensor(m @ x.value, _parents=(x, w), _vjps=(lambda g: m.T @ g, dw))


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
    m, seg = view.pairs, view.seg
    out = _segment_reduce(np.multiply, a.value, m, 1.0)

    def vjp(g):
        return g[seg] * _leave_one_out_prod(a.value, seg, m)

    return Tensor(out, _parents=(a,), _vjps=(vjp,))


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
