"""Immutable hypergraph representation, its cached incidence and the ``.hg`` text format.

A hypergraph is a node set ``{0, ..., n-1}`` plus a list of hyperedges, each
a set of node ids of arbitrary size.  Hyperedges are stored as strictly
increasing tuples so that every derived quantity is deterministic.  All
structures here are immutable after construction and safe to share between
threads.

Every aggregation reads one :class:`Incidence` per hypergraph: the
node-edge pairs, degrees, edge sizes and edge weights, plus the two
directed views a layer reduces over (node rows into edges, edge rows into
nodes).  It is built on first use of :attr:`Hypergraph.incidence` and
cached on the instance; its arrays are read-only.  Each view sorts its
pairs once, on first use, into :attr:`SegmentView.pairs`, and reads its
matrix (H transposed node->edge, H edge->node) off that sort; both are
cached on the view, as are the leave-one-out :attr:`Incidence.pair_views`.
"""

from __future__ import annotations

import itertools
import numbers
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np
from scipy import sparse


class HypergraphError(ValueError):
    """Base class for hypergraph construction/validation failures."""


class NodeIdOutOfRangeError(HypergraphError):
    pass


class NodeIdTypeError(HypergraphError):
    """A node id that is not an integer (``operator.index`` rejects it)
    or is a ``bool``."""


class EmptyEdgeError(HypergraphError):
    pass


class NonpositiveWeightError(HypergraphError):
    pass


class NotUniformError(HypergraphError):
    pass


class HgParseError(HypergraphError):
    """Raised on malformed ``.hg`` text; carries a 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class Hypergraph:
    """Validated hypergraph with canonically ordered hyperedges.

    Attributes
    ----------
    n : int
        Number of nodes; node ids are ``0..n-1``.
    edges : tuple[tuple[int, ...], ...]
        Hyperedges as strictly increasing id tuples.  Duplicate hyperedges
        are allowed and kept as distinct edges.
    weights : tuple[float, ...] | None
        Optional positive per-edge weights (``None`` means all 1.0, and
        is the only form of an edgeless hypergraph's weights).
    """

    n: int
    edges: tuple
    weights: Optional[tuple] = None

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @cached_property
    def incidence(self) -> Incidence:
        """The cached node-edge incidence, built on first access."""
        return _build_incidence(self)

    def edge_sizes(self) -> np.ndarray:
        return self.incidence.edge_sizes

    def degrees(self) -> np.ndarray:
        return self.incidence.degrees

    def uniform_order(self) -> Optional[int]:
        """Edge size if all hyperedges share one, else ``None``."""
        sizes = {len(e) for e in self.edges}
        return sizes.pop() if len(sizes) == 1 else None


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class SegmentView:
    """One direction of an incidence: pair ``i`` gathers source row
    ``src[i]`` (of ``src_count`` source rows) and reduces it into segment
    ``seg[i]`` of ``count``.  ``sizes`` counts the pairs per segment
    (float64) and ``nonempty`` is the ``(count, 1)`` float64 mask of
    segments with at least one pair."""

    src: np.ndarray
    seg: np.ndarray
    count: int
    src_count: int
    sizes: np.ndarray
    nonempty: np.ndarray

    @cached_property
    def pairs(self):
        """The ``(count, P)`` 0/1 CSR matrix whose row ``s`` lists the
        pairs of segment ``s`` in pair order: the view's one sort."""
        p = len(self.seg)
        # a stable argsort of seg; the keys (segment, pair) are unique, which
        # lets numpy's default sort run several times faster than its stable one
        order = np.argsort(self.seg * p + np.arange(p))
        indptr = np.zeros(self.count + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.seg, minlength=self.count), out=indptr[1:])
        return sparse.csr_array((np.ones(p), order, indptr), shape=(self.count, p))

    @cached_property
    def matrix(self):
        """The ``(count, src_count)`` 0/1 CSR matrix whose row ``s`` lists
        the source rows of segment ``s``'s pairs in pair order."""
        p = self.pairs
        return sparse.csr_array((p.data, self.src[p.indices], p.indptr),
                                shape=(self.count, self.src_count))


def id_array(ids, bound: int, name: str) -> np.ndarray:
    """``ids`` as 1-D int64 ids in ``[0, bound)``, an int64 ndarray not
    copied.  A float or bool dtype (an empty array of any dtype passes), a
    list holding a ``bool`` (numpy reads it as id 0 or 1), more than one
    dimension or an id out of range raise :class:`HypergraphError`."""
    a = np.asarray(ids)
    if a.size and a.dtype.kind not in "iu" or not isinstance(ids, np.ndarray) and any(
        isinstance(v, (bool, np.bool_)) for v in np.asarray(ids, dtype=object).flat
    ):
        raise HypergraphError(f"{name} ids must be integers, got {a.dtype} from {ids!r:.40}")
    a = a.astype(np.int64, copy=False)
    if a.ndim != 1 or len(a) and not 0 <= a.min() <= a.max() < bound:
        raise HypergraphError(f"{name} must be 1-D ids in [0, {bound})")
    return a


def segment_view(src, seg, count: int, src_count: int) -> SegmentView:
    """Build a view from pair arrays, checked by :func:`id_array` (``seg``
    ids in ``[0, count)``, ``src`` ids in ``[0, src_count)``, one of each
    per pair); the view keeps its own read-only int64 copies."""
    seg = _readonly(id_array(seg, count, "seg").copy())
    src = _readonly(id_array(src, src_count, "src").copy())
    if src.shape != seg.shape:
        raise HypergraphError(f"{len(src)} src ids for {len(seg)} seg ids")
    sizes = _readonly(np.bincount(seg, minlength=count).astype(np.float64))
    nonempty = _readonly((sizes > 0).astype(np.float64).reshape(-1, 1))
    return SegmentView(src, seg, int(count), int(src_count), sizes, nonempty)


@dataclass(frozen=True, eq=False)
class Incidence:
    """Read-only incidence of one hypergraph.  ``nodes``/``edges`` list
    every membership in edge-major canonical order; ``degrees`` and
    ``edge_sizes`` are int64, ``weights`` float64 (1.0 when unweighted).
    ``v2e`` reduces node rows into edges, ``e2v`` edge rows into nodes."""

    nodes: np.ndarray
    edges: np.ndarray
    degrees: np.ndarray
    edge_sizes: np.ndarray
    weights: np.ndarray
    v2e: SegmentView
    e2v: SegmentView

    @cached_property
    def pair_views(self) -> tuple:
        """``(loo, back)``, the pair-state variant's views, built on first
        use.  ``loo`` segment ``p`` is pair ``(nodes[p], edges[p])`` and
        gathers the edge's other members in member order, sum(|e| (|e| -
        1)) pairs in all; ``back`` reduces pair rows into their nodes."""
        sizes = self.edge_sizes
        pairs = len(self.nodes)
        first = (np.cumsum(sizes) - sizes)[self.edges]  # first pair of p's edge
        runs = sizes[self.edges] - 1  # sources of pair p: its edge's other members
        seg = np.repeat(np.arange(pairs), runs)
        # the k-th source of pair p is member k of its edge, skipping p itself
        k = np.arange(len(seg)) - np.repeat(np.cumsum(runs) - runs, runs)
        own = np.repeat(np.arange(pairs) - first, runs)
        src = self.nodes[np.repeat(first, runs) + k + (k >= own)]
        n = len(self.degrees)
        return (segment_view(src, seg, pairs, n),
                segment_view(np.arange(pairs), self.nodes, n, pairs))


def _build_incidence(hg: Hypergraph) -> Incidence:
    sizes = np.fromiter(map(len, hg.edges), dtype=np.int64, count=hg.num_edges)
    nodes = np.fromiter(itertools.chain.from_iterable(hg.edges), dtype=np.int64)
    edges = np.repeat(np.arange(hg.num_edges, dtype=np.int64), sizes)
    v2e = segment_view(nodes, edges, hg.num_edges, hg.n)
    weights = np.ones(hg.num_edges) if hg.weights is None else np.array(hg.weights)
    return Incidence(
        nodes=v2e.src,
        edges=v2e.seg,
        degrees=_readonly(np.bincount(nodes, minlength=hg.n).astype(np.int64)),
        edge_sizes=_readonly(sizes),
        weights=_readonly(weights),
        v2e=v2e,
        e2v=segment_view(edges, nodes, hg.n, hg.num_edges),
    )


def from_edge_list(
    n: int,
    raw_edges: Iterable[Iterable[int]],
    weights: Optional[Sequence[float]] = None,
) -> Hypergraph:
    """Validate and canonicalize raw edge data into a :class:`Hypergraph`.

    Node ids inside each raw hyperedge are deduplicated and sorted.  Edges
    that are empty after deduplication are rejected, as are non-integer,
    boolean and out-of-range ids, weights that are not real numbers
    (``bool`` and ``str`` included) or not positive, and a node count
    that is negative, a ``bool`` or not an integer.
    """
    if isinstance(n, bool) or not hasattr(n, "__index__"):
        raise HypergraphError(f"node count must be an integer, got {n!r}")
    n = operator.index(n)
    if n < 0:
        raise HypergraphError(f"node count must be >= 0, got {n}")
    canon = []
    for k, raw in enumerate(raw_edges):
        members = tuple(raw)
        try:
            ids = sorted(set(map(operator.index, members)))
        except TypeError:
            bad = next(v for v in members if not hasattr(v, "__index__"))
            raise NodeIdTypeError(f"edge {k}: non-integer node id {bad!r}") from None
        if not ids:
            raise EmptyEdgeError(f"edge {k} is empty after deduplication")
        # a bool id passes operator.index as 0 or 1, so members are
        # type-checked only when the smallest id is at most 1; the common
        # edge costs the same two comparisons as the range check alone
        if ids[0] <= 1 or ids[-1] >= n:
            if ids[0] < 0 or ids[-1] >= n:
                bad = ids[0] if ids[0] < 0 else ids[-1]
                raise NodeIdOutOfRangeError(f"edge {k}: node id {bad} not in [0, {n})")
            bad = next((v for v in members if isinstance(v, bool)), None)
            if bad is not None:
                raise NodeIdTypeError(f"edge {k}: boolean node id {bad!r}")
        canon.append(tuple(ids))
    wtup = None
    if weights is not None:
        weights = tuple(weights)
        if len(weights) != len(canon):
            raise HypergraphError(
                f"{len(weights)} weights for {len(canon)} edges"
            )
        for k, w in enumerate(weights):
            if isinstance(w, bool) or not isinstance(w, numbers.Real):
                raise HypergraphError(f"edge {k}: weight {w!r} is not a real number")
            if not (w > 0) or not np.isfinite(float(w)):
                raise NonpositiveWeightError(f"edge {k}: weight {w} must be > 0")
        weights = tuple(map(float, weights))
        wtup = weights or None  # no edges, no weights: one form, as .hg text has
    return Hypergraph(n=n, edges=tuple(canon), weights=wtup)


def incidence_pairs(hg: Hypergraph) -> tuple:
    """The cached incidence's (node_ids, edge_ids) pair arrays, in
    edge-major canonical order."""
    return hg.incidence.nodes, hg.incidence.edges


# --- .hg text format -----------------------------------------------------
#
# line 1:        "n m"
# next m lines:  space-separated node ids of one hyperedge, optionally
#                followed by a trailing "w=<float>" weight token
# "#" starts a comment line anywhere.


def parse_hg(text: str) -> Hypergraph:
    """Parse the ``.hg`` text format into a validated hypergraph."""
    header = None
    raw_edges: list = []
    weights: list = []
    saw_weight = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        tokens = stripped.split()
        if header is None:
            if len(tokens) != 2:
                raise HgParseError(lineno, f"expected 'n m' header, got {stripped!r}")
            try:
                header = (int(tokens[0]), int(tokens[1]))
            except ValueError:
                raise HgParseError(lineno, f"non-integer header {stripped!r}") from None
            continue
        w = 1.0
        if tokens[-1].startswith("w="):
            try:
                w = float(tokens[-1][2:])
            except ValueError:
                raise HgParseError(lineno, f"bad weight token {tokens[-1]!r}") from None
            saw_weight = True
            tokens = tokens[:-1]
        try:
            ids = [int(t) for t in tokens]
        except ValueError:
            raise HgParseError(lineno, f"non-integer node id in {stripped!r}") from None
        if not ids:
            raise HgParseError(lineno, "edge line with no node ids")
        raw_edges.append(ids)
        weights.append(w)
    if header is None:
        raise HgParseError(1, "missing 'n m' header")
    n, m = header
    if len(raw_edges) != m:
        raise HgParseError(
            1, f"header declares {m} edges but {len(raw_edges)} were given"
        )
    try:
        return from_edge_list(n, raw_edges, weights if saw_weight else None)
    except HypergraphError as exc:
        raise HgParseError(1, str(exc)) from exc


def format_hg(hg: Hypergraph) -> str:
    """Serialize to the ``.hg`` text format (inverse of :func:`parse_hg`)."""
    lines = [f"{hg.n} {hg.num_edges}"]
    for e, members in enumerate(hg.edges):
        line = " ".join(str(v) for v in members)
        if hg.weights is not None:
            line += f" w={hg.weights[e]!r}"
        lines.append(line)
    return "\n".join(lines) + "\n"
