"""The benchmark's workloads: a seeded input spec plus the hgx model
trained on it.

Every hgx function is looked up through its module at call time
(``hypergraph.from_edge_list``, ``rules.hgnn_layer``, ...), so the
tracing shims in :mod:`hgxbench.trace` see each call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from hgx import allset, hypergraph, nn, optim, rules
from hgx import autodiff as ad
from hgx.autodiff import Tensor

from .csbm import CsbmData, CsbmSpec, EdgeSizeLaw

CORA_SHAPE = CsbmSpec(
    n=2708, m=1579, classes=7, features=256, homophily=0.9, feature_snr=4.0,
    sizes=EdgeSizeLaw("poisson", 1.6),
)
BIG_EDGES = CsbmSpec(
    n=12000, m=2400, classes=7, features=32, homophily=0.9, feature_snr=4.0,
    sizes=EdgeSizeLaw("lognormal", 2.6, 0.9, cap=1000),
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    graph: CsbmSpec
    model: str
    steps: int  # training steps after which val_acc is read
    acc_floor: float  # val_acc below this fails the run
    lr: float = 1e-3


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "settransformer_cora",
            "AllSetTransformer at Cora shape: backward, attention and dense matmuls dominate",
            CORA_SHAPE, "settransformer", steps=50, acc_floor=0.6,
        ),
        Workload(
            "deepsets_bigedge",
            "AllDeepSets on 53k heavy-tailed incidences of width 32: gather and segment sums dominate",
            BIG_EDGES, "deepsets", steps=45, acc_floor=0.6,
        ),
        Workload(
            "rules_cora",
            "five classical rule layers at Cora shape: mostly forward, degrees loop, dense HyperGCN",
            CORA_SHAPE, "rules", steps=25, acc_floor=0.6, lr=1e-2,
        ),
    )
}

RULE_NAMES = ("hgnn", "hcha", "hnhn", "hypergcn", "hypersage")
HIDDEN = 64


def _allset_network(model: str, in_dim: int, classes: int) -> allset.AllSetNetwork:
    mlp = nn.MlpSpec((in_dim, in_dim, in_dim))

    def pool():
        if model == "settransformer":
            return allset.SetTransformerPool(heads=4, head_dim=16)
        return allset.DeepSetsPool(mlp, mlp)

    width = HIDDEN if model == "settransformer" else in_dim
    layers = [allset.AllSetLayer(pool(), pool()) for _ in range(2)]
    return allset.AllSetNetwork(in_dim, classes, layers,
                                input_proj=nn.MlpSpec((in_dim, width)))


def _rule_models(hg, x: np.ndarray, classes: int, rng) -> tuple:
    f = x.shape[1]
    params: Dict[str, Tensor] = {}
    params.update(rules.init_hgnn_params(rng, f, HIDDEN))
    params.update(rules.init_hcha_params(rng, f, HIDDEN))
    params.update(rules.init_hnhn_params(rng, f, HIDDEN, HIDDEN))
    params.update(rules.init_hypergcn_params(rng, f, HIDDEN))
    params.update(rules.init_hypersage_params(rng, f, HIDDEN))
    head = nn.MlpSpec((HIDDEN, classes), activation="identity")
    for name in RULE_NAMES:
        params.update(nn.init_mlp_params(head, rng, f"head.{name}"))

    def forward(training: bool) -> List[Tensor]:
        hidden = {
            "hgnn": rules.hgnn_layer(hg, x, params),
            "hcha": rules.hcha_layer(hg, x, params),
            "hnhn": rules.hnhn_layer(hg, x, params)[1],
            "hypergcn": rules.hypergcn_layer(hg, x, params),
            "hypersage": rules.hypersage_layer(hg, x, params, p=1),
        }
        return [nn.mlp_forward(head, params, hidden[k], f"head.{k}") for k in RULE_NAMES]

    return forward, params


class Trainer:
    """A model ready to step: the hypergraph, parameters, optimizer state
    and the closed training loop's two operations."""

    def __init__(self, workload: Workload, data: CsbmData, seed: int):
        self.data = data
        self.hg = hypergraph.from_edge_list(data.n, data.edges)
        rng = np.random.Generator(np.random.PCG64([int(seed), 1]))
        classes = workload.graph.classes
        if workload.model == "rules":
            self._forward, self.params = _rule_models(self.hg, data.x, classes, rng)
        else:
            net = _allset_network(workload.model, data.x.shape[1], classes)
            self.params = net.init_params(rng)
            x = ad.constant(data.x)
            self._forward = lambda training: [
                net.forward(self.params, self.hg, x, training=training)
            ]
        self.adam = optim.AdamState(self.params, lr=workload.lr)

    def loss(self) -> Tensor:
        """Summed training cross-entropy of a fresh training-mode forward."""
        total = None
        for logits in self._forward(True):
            term = nn.cross_entropy_loss(logits, self.data.y, self.data.train_idx)
            total = term if total is None else ad.add(total, term)
        return total

    def step(self) -> float:
        """One optimizer step; returns the loss it was taken on.  A loss
        that is not finite is returned without stepping."""
        ad.zero_grads(self.params.values())
        loss = self.loss()
        value = float(loss.value[0, 0])
        if not np.isfinite(value):
            return value
        loss.backward()
        self.adam.step(self.params)
        return value

    def evaluate(self) -> float:
        """Forward-only pass over all nodes; mean validation accuracy of
        the model's classifiers."""
        val = self.data.val_idx
        accs = [
            float(np.mean(np.argmax(logits.value[val], axis=1) == self.data.y[val]))
            for logits in self._forward(False)
        ]
        return float(np.mean(accs))


def grad_check(trainer: Trainer, rng: np.random.Generator, entries: int,
               h: float) -> List[dict]:
    """Central and one-sided differences on ``entries`` sampled parameter
    entries, next to the gradient ``backward`` gives for the same loss.
    Leaves the parameters as it found them."""
    ad.zero_grads(trainer.params.values())
    loss = trainer.loss()
    loss.backward()
    at = float(loss.value[0, 0])
    names = sorted(trainer.params)
    out = []
    for name in rng.choice(names, size=entries, replace=False):
        t = trainer.params[name]
        ix = tuple(int(rng.integers(0, s)) for s in t.value.shape)
        analytic = 0.0 if t.grad is None else float(t.grad[ix])
        orig = t.value[ix]
        t.value[ix] = orig + h
        up = float(trainer.loss().value[0, 0])
        t.value[ix] = orig - h
        down = float(trainer.loss().value[0, 0])
        t.value[ix] = orig
        out.append({"param": str(name), "index": list(ix), "analytic": analytic,
                    "central": (up - down) / (2.0 * h), "forward": (up - at) / h,
                    "backward": (at - down) / h})
    ad.zero_grads(trainer.params.values())
    return out
