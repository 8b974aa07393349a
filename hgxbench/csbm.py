"""Seeded contextual stochastic block model (cSBM) hypergraphs.

The generator follows the contextual SBM of Deshpande et al. 2018
(arXiv:1807.09596) as used by GPR-GNN (Chien et al. 2021,
arXiv:2006.07988), lifted to hyperedges:

* labels are balanced over ``classes``;
* features are ``sqrt(snr) * mu[y] + noise`` with class centroids
  ``mu ~ N(0, I/f)`` and unit Gaussian noise, so ``feature_snr`` sets the
  separation of two class centroids (about ``sqrt(2 * snr)`` noise
  standard deviations) independently of the feature width ``f``; rows
  are then scaled by ``1/sqrt(f)`` to about unit norm;
* each hyperedge picks a class; every member is drawn from that class
  with probability ``homophily`` and from the other classes otherwise.
  Members are distinct, and every edge has at least two of them.

The same ``seed`` and spec always give bit-identical arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class EdgeSizeLaw:
    """Hyperedge size ``2 + draw``, with ``draw`` from ``Poisson(a)`` or
    ``floor(lognormal(a, b))``, capped at ``cap`` members."""

    kind: str
    a: float
    b: float = 0.0
    cap: int = 1000

    def __post_init__(self):
        if self.kind not in ("poisson", "lognormal"):
            raise ValueError(f"unknown edge-size law {self.kind!r}")
        if self.cap < 2:
            raise ValueError("edge-size cap must allow two members")

    def sample(self, rng: np.random.Generator, m: int) -> np.ndarray:
        if self.kind == "poisson":
            extra = rng.poisson(self.a, size=m)
        else:
            extra = np.floor(rng.lognormal(self.a, self.b, size=m)).astype(np.int64)
        return np.minimum(2 + extra, self.cap)


@dataclass(frozen=True)
class CsbmSpec:
    n: int
    m: int
    classes: int
    features: int
    homophily: float
    feature_snr: float
    sizes: EdgeSizeLaw


@dataclass(frozen=True)
class CsbmData:
    """Generated inputs: the raw edge list, features, labels and the
    train/validation node split, half the nodes each."""

    n: int
    edges: list
    x: np.ndarray
    y: np.ndarray
    train_idx: np.ndarray
    val_idx: np.ndarray


def generate(spec: CsbmSpec, seed: int) -> CsbmData:
    rng = np.random.Generator(np.random.PCG64(int(seed)))
    n, c, f = spec.n, spec.classes, spec.features
    y = rng.permutation(np.arange(n) % c)
    centroids = rng.normal(0.0, 1.0 / np.sqrt(f), size=(c, f))
    x = np.sqrt(spec.feature_snr) * centroids[y] + rng.normal(0.0, 1.0, size=(n, f))
    x /= np.sqrt(f)

    members_of = [np.flatnonzero(y == k) for k in range(c)]
    others_of = [np.flatnonzero(y != k) for k in range(c)]
    sizes = spec.sizes.sample(rng, spec.m)
    edge_class = rng.integers(0, c, size=spec.m)
    inside = rng.binomial(sizes, spec.homophily)
    edges = []
    for size, k, k_in in zip(sizes.tolist(), edge_class.tolist(), inside.tolist()):
        own, rest = members_of[k], others_of[k]
        k_in = min(k_in, own.size)
        k_out = min(size - k_in, rest.size)
        picked = np.concatenate(
            [rng.choice(own, k_in, replace=False), rng.choice(rest, k_out, replace=False)]
        )
        if picked.size < 2:
            raise ValueError(f"spec {spec} cannot give an edge two distinct members")
        edges.append(np.sort(picked).tolist())

    order = rng.permutation(n)
    n_train = n // 2
    return CsbmData(
        n=n,
        edges=edges,
        x=x,
        y=y.astype(np.int64),
        train_idx=np.sort(order[:n_train]),
        val_idx=np.sort(order[n_train:]),
    )


def describe(data: CsbmData) -> dict:
    """Realised input shape: incidence count and the quantiles of edge
    sizes and node degrees, so a run's inputs can be checked from its
    output."""
    sizes = np.array([len(e) for e in data.edges])
    degrees = np.bincount(np.concatenate([np.asarray(e) for e in data.edges]),
                          minlength=data.n)
    qs = (0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0)

    def quantiles(a):
        return {f"q{int(q * 100)}": float(np.quantile(a, q)) for q in qs}

    return {
        "nodes": data.n,
        "edges": len(data.edges),
        "incidences": int(sizes.sum()),
        "features": int(data.x.shape[1]),
        "isolated_nodes": int((degrees == 0).sum()),
        "edge_size": quantiles(sizes),
        "degree": quantiles(degrees),
    }
