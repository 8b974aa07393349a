"""Immutable hypergraph representation, statistics and structural transforms.

A hypergraph is a node set ``{0, ..., n-1}`` plus a list of hyperedges, each
a set of node ids of arbitrary size.  Hyperedges are stored as strictly
increasing tuples so that every derived quantity is deterministic.  All
structures here are immutable after construction and safe to share between
threads.

Every aggregation reads one :class:`Incidence` per hypergraph: the
node-edge pairs, degrees, edge sizes and edge weights, plus the two
directed views a layer reduces over (node rows into edges, edge rows into
nodes).  It is built on first use of :attr:`Hypergraph.incidence` and
cached on the instance; its arrays are read-only.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np


class HypergraphError(ValueError):
    """Base class for hypergraph construction/validation failures."""


class NodeIdOutOfRangeError(HypergraphError):
    pass


class NodeIdTypeError(HypergraphError):
    """A node id that is not an integer (``operator.index`` rejects it)."""


class EmptyEdgeError(HypergraphError):
    pass


class NonpositiveWeightError(HypergraphError):
    pass


class NotUniformError(HypergraphError):
    pass


class TooLargeError(HypergraphError):
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
        Optional positive per-edge weights (``None`` means all 1.0).
    """

    n: int
    edges: tuple
    weights: Optional[tuple] = None

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def edge_weight(self, e: int) -> float:
        return 1.0 if self.weights is None else self.weights[e]

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
    ``src[i]`` and reduces it into segment ``seg[i]`` of ``count``.
    ``sizes`` counts the pairs per segment (float64) and ``nonempty`` is
    the ``(count, 1)`` float64 mask of segments with at least one pair."""

    src: np.ndarray
    seg: np.ndarray
    count: int
    sizes: np.ndarray
    nonempty: np.ndarray


def segment_view(src, seg, count: int) -> SegmentView:
    """Build a read-only view from arbitrary pair arrays."""
    seg = _readonly(np.array(seg, dtype=np.int64))
    sizes = _readonly(np.bincount(seg, minlength=count).astype(np.float64))
    nonempty = _readonly((sizes > 0).astype(np.float64).reshape(-1, 1))
    src = _readonly(np.array(src, dtype=np.int64))
    return SegmentView(src, seg, int(count), sizes, nonempty)


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


def _build_incidence(hg: Hypergraph) -> Incidence:
    sizes = np.fromiter(map(len, hg.edges), dtype=np.int64, count=hg.num_edges)
    nodes = np.fromiter(itertools.chain.from_iterable(hg.edges), dtype=np.int64)
    edges = np.repeat(np.arange(hg.num_edges, dtype=np.int64), sizes)
    v2e = segment_view(nodes, edges, hg.num_edges)
    weights = np.ones(hg.num_edges) if hg.weights is None else np.array(hg.weights)
    return Incidence(
        nodes=v2e.src,
        edges=v2e.seg,
        degrees=_readonly(np.bincount(nodes, minlength=hg.n).astype(np.int64)),
        edge_sizes=_readonly(sizes),
        weights=_readonly(weights),
        v2e=v2e,
        e2v=segment_view(edges, nodes, hg.n),
    )


def from_edge_list(
    n: int,
    raw_edges: Iterable[Iterable[int]],
    weights: Optional[Sequence[float]] = None,
) -> Hypergraph:
    """Validate and canonicalize raw edge data into a :class:`Hypergraph`.

    Node ids inside each raw hyperedge are deduplicated and sorted.  Edges
    that are empty after deduplication are rejected, as are non-integer
    and out-of-range ids and nonpositive weights.
    """
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
        if ids[0] < 0 or ids[-1] >= n:
            bad = ids[0] if ids[0] < 0 else ids[-1]
            raise NodeIdOutOfRangeError(f"edge {k}: node id {bad} not in [0, {n})")
        canon.append(tuple(ids))
    wtup = None
    if weights is not None:
        weights = tuple(float(w) for w in weights)
        if len(weights) != len(canon):
            raise HypergraphError(
                f"{len(weights)} weights for {len(canon)} edges"
            )
        for k, w in enumerate(weights):
            if not (w > 0) or not np.isfinite(w):
                raise NonpositiveWeightError(f"edge {k}: weight {w} must be > 0")
        wtup = weights
    return Hypergraph(n=int(n), edges=tuple(canon), weights=wtup)


def incidence_pairs(hg: Hypergraph) -> tuple:
    """The cached incidence's (node_ids, edge_ids) pair arrays, in
    edge-major canonical order."""
    return hg.incidence.nodes, hg.incidence.edges


@dataclass(frozen=True)
class HypergraphStats:
    """Exact summary statistics; averages are rationals, medians use the
    lower-middle element for even counts.  ``defined`` is False for the
    degenerate empty hypergraph, in which case numeric fields are 0."""

    num_nodes: int
    num_edges: int
    min_edge_size: int
    max_edge_size: int
    avg_edge_size: Fraction
    median_edge_size: int
    min_degree: int
    max_degree: int
    avg_degree: Fraction
    median_degree: int
    defined: bool = True


def _lower_median(sorted_vals: Sequence[int]) -> int:
    return int(sorted_vals[(len(sorted_vals) - 1) // 2])


def stats(hg: Hypergraph) -> HypergraphStats:
    """Exact node/edge statistics of a hypergraph."""
    if hg.n == 0 or hg.num_edges == 0:
        return HypergraphStats(
            num_nodes=hg.n, num_edges=hg.num_edges,
            min_edge_size=0, max_edge_size=0,
            avg_edge_size=Fraction(0), median_edge_size=0,
            min_degree=0, max_degree=0,
            avg_degree=Fraction(0), median_degree=0,
            defined=False,
        )
    sizes = sorted(hg.incidence.edge_sizes.tolist())
    degs = sorted(hg.incidence.degrees.tolist())
    return HypergraphStats(
        num_nodes=hg.n,
        num_edges=hg.num_edges,
        min_edge_size=sizes[0],
        max_edge_size=sizes[-1],
        avg_edge_size=Fraction(sum(sizes), len(sizes)),
        median_edge_size=_lower_median(sizes),
        min_degree=degs[0],
        max_degree=degs[-1],
        avg_degree=Fraction(sum(degs), len(degs)),
        median_degree=_lower_median(degs),
    )


def incidence_matrix(hg: Hypergraph) -> np.ndarray:
    """Dense 0/1 incidence matrix of shape (n, |E|)."""
    H = np.zeros((hg.n, hg.num_edges))
    H[hg.incidence.nodes, hg.incidence.edges] = 1.0
    return H


def clique_expansion_incidence(hg: Hypergraph) -> np.ndarray:
    """Co-membership count matrix: entry (u, v) is the total weight of
    hyperedges containing both u and v; the diagonal carries weighted
    node degrees.  Symmetric by construction."""
    out = np.zeros((hg.n, hg.n))
    for e, members in enumerate(hg.edges):
        idx = list(members)
        w = hg.edge_weight(e)
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
    import itertools
    import math

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


def read_hg(path) -> Hypergraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_hg(fh.read())


def write_hg(hg: Hypergraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_hg(hg))
