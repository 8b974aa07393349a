"""Executable equivalence checks: classical propagation rules recovered
as compositions of two multiset functions.

Each case evaluates a hand-rolled, loop-based two-phase construction
(node->edge aggregation, then edge->node aggregation, with the weights
or nonlinearities the corresponding rule prescribes) and compares it
against the package's independent implementation of that rule over a
batch of random hypergraphs.  Max deviations land at float rounding
level when the constructions are right.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from . import autodiff as ad
from . import rules
from .allset import AllSetLayer, ProductPool, SumPool, per_aggregator_propagate
from .hypergraph import Hypergraph, from_edge_list
from .nn import make_rng


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
        worst = max(worst, np.abs(out.value - rules.ce_prop_h(hg, x)).max())
    return worst


def _sum_sum_per_pair(trials: int, rng) -> float:
    worst = 0.0
    for _ in range(trials):
        hg = _random_hypergraph(rng)
        x = rng.normal(size=(hg.n, 3))
        out = per_aggregator_propagate(hg, x, SumPool())
        worst = max(worst, np.abs(out - rules.ce_prop_a(hg, x)).max())
    return worst


def _product_per_pair(trials: int, rng) -> float:
    pool = ProductPool(scale_by_cardinality_minus_one=True)
    worst = 0.0
    for _ in range(trials):
        d = int(rng.integers(3, 5))
        hg = _random_hypergraph(rng, uniform=d)
        x = rng.uniform(0.5, 1.5, size=(hg.n, 2))
        out = per_aggregator_propagate(hg, x, pool)
        worst = max(worst, np.abs(out - rules.z_prop(hg, x, d)).max())
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
                acc += hg.edge_weight(e) / len(members) * z[e]
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


def _hypersage_construction(hg, x, theta, p):
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
        want = _hypersage_construction(hg, x, theta, p)
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
