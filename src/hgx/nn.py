"""Neural-net building blocks on top of the autodiff engine.

Parameters live in flat ``dict[str, Tensor]`` maps keyed by dotted names,
so optimizers, checkpoints and gradient checks can treat every model the
same way.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Callable, Dict

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .hypergraph import id_array


class EmptyMaskError(ValueError):
    pass


def make_rng(seed: int) -> np.random.Generator:
    """Deterministic generator: one 64-bit seed fixes the whole stream."""
    return np.random.Generator(np.random.PCG64(int(seed)))


ACTIVATIONS: Dict[str, Callable[[Tensor], Tensor]] = {
    "relu": ad.relu,
    "elu": ad.elu,
    "leakyrelu": lambda t: ad.leaky_relu(t, 0.2),
    "identity": lambda t: t,
}


@dataclass(frozen=True)
class MlpSpec:
    """Row-wise multilayer perceptron: ``widths`` lists the input width
    followed by each layer's output width; the activation is applied
    after every layer except the last."""

    widths: tuple
    activation: str = "relu"
    bias: bool = True

    def __post_init__(self):
        if any(isinstance(w, bool) or not hasattr(w, "__index__") for w in self.widths):
            raise ValueError(f"widths must be integers: {self.widths}")
        object.__setattr__(self, "widths", tuple(map(operator.index, self.widths)))
        if len(self.widths) < 2:
            raise ValueError("MlpSpec needs an input and at least one output width")
        if any(w <= 0 for w in self.widths):
            raise ValueError(f"widths must be positive: {self.widths}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")

    @property
    def in_dim(self) -> int:
        return self.widths[0]

    @property
    def out_dim(self) -> int:
        return self.widths[-1]


def xavier_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def init_mlp_params(
    spec: MlpSpec, rng: np.random.Generator, prefix: str
) -> Dict[str, Tensor]:
    """Xavier-uniform weights, zero biases, named ``{prefix}.w{i}/b{i}``."""
    params: Dict[str, Tensor] = {}
    for i in range(len(spec.widths) - 1):
        fan_in, fan_out = spec.widths[i], spec.widths[i + 1]
        params[f"{prefix}.w{i}"] = ad.parameter(xavier_uniform(rng, fan_in, fan_out))
        if spec.bias:
            params[f"{prefix}.b{i}"] = ad.parameter(np.zeros((1, fan_out)))
    return params


def mlp_forward(
    spec: MlpSpec, params: Dict[str, Tensor], x: Tensor, prefix: str
) -> Tensor:
    """Apply the MLP independently and identically to every row."""
    if x.shape[1] != spec.in_dim:
        raise ad.ShapeMismatchError(
            f"mlp {prefix!r} expects {spec.in_dim} columns, got {x.shape[1]}"
        )
    act = ACTIVATIONS[spec.activation]
    h = x
    last = len(spec.widths) - 2
    for i in range(len(spec.widths) - 1):
        h = ad.matmul(h, params[f"{prefix}.w{i}"])
        if spec.bias:
            h = ad.add(h, params[f"{prefix}.b{i}"])
        if i != last:
            h = act(h)
    return h


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize each row to zero mean / unit variance, then scale and
    shift.  A constant row collapses to zeros (the 1e-5 variance floor
    wins)."""
    n_cols = x.shape[1]
    mean = ad.mul(ad.row_sum(x), ad.constant(1.0 / n_cols))
    centered = ad.sub(x, mean)
    var = ad.mul(ad.row_sum(ad.mul(centered, centered)), ad.constant(1.0 / n_cols))
    inv_std = ad.div(ad.constant(1.0), ad.sqrt(ad.add(var, ad.constant(1e-5))))
    normalized = ad.mul(centered, inv_std)
    return ad.add(ad.mul(normalized, gain), bias)


def cross_entropy_loss(
    logits: Tensor, labels: np.ndarray, mask: np.ndarray
) -> Tensor:
    """Mean negative log-softmax of the true class over the masked rows.

    ``labels`` holds one integer class id per logit row; ``mask`` holds
    the ids of the rows that contribute, checked by
    :func:`~hgx.hypergraph.id_array` (ids that are not integers or lie
    outside ``[0, rows)`` raise ``ValueError``).  Labels that are not
    integers, a label count other than the row count and a masked label
    outside ``[0, classes)`` raise ``ValueError`` too; unmasked labels
    are not read.
    """
    rows, classes = logits.shape
    mask = id_array(mask, rows, "mask")
    if mask.size == 0:
        raise EmptyMaskError("cross entropy over an empty row subset")
    labels = np.asarray(labels)
    if labels.dtype.kind not in "iu" or labels.shape != (rows,):
        raise ValueError(f"{labels.dtype} labels of shape {labels.shape} "
                         f"for {rows} logit rows; need one integer per row")
    picked = ad.gather_rows(logits, mask)
    true = labels[mask]
    bad = (true < 0) | (true >= classes)
    if bad.any():
        raise ValueError(f"label {true[bad][0]} not in [0, {classes})")
    # log-softmax with a constant per-row shift (exact: softmax is
    # shift-invariant, so the shift contributes no gradient)
    shift = ad.constant(picked.value.max(axis=1, keepdims=True))
    z = ad.sub(picked, shift)
    lse = ad.log(ad.row_sum(ad.exp(z)))
    logp = ad.sub(z, lse)
    onehot = np.zeros(picked.shape)
    onehot[np.arange(mask.size), true] = 1.0
    total = ad.sum_all(ad.mul(logp, ad.constant(onehot)))
    return ad.mul(total, ad.constant(-1.0 / mask.size))


# --- gradient checking ------------------------------------------------------


@dataclass
class GradCheckReport:
    max_rel_err: float
    per_param: Dict[str, float] = field(default_factory=dict)

    def __str__(self):
        lines = [f"max rel err = {self.max_rel_err:.3e}"]
        for name, err in sorted(self.per_param.items()):
            lines.append(f"  {name}: {err:.3e}")
        return "\n".join(lines)


def grad_check(
    build: Callable[[], Tensor],
    params: Dict[str, Tensor],
    h: float = 1e-5,
) -> GradCheckReport:
    """Compare reverse-mode gradients against central finite differences.

    ``build`` must construct a fresh scalar loss from the current values
    in ``params``.  Every entry of every checked parameter is perturbed
    by +-h; relative error uses max(|analytic|, |numeric|, 1e-8) as the
    denominator.
    """
    out = build()
    if out.value.size != 1:
        raise ad.NonScalarOutputError("grad_check requires a scalar output")
    ad.zero_grads(params.values())
    out.backward()
    analytic = {
        name: (np.zeros_like(t.value) if t.grad is None else t.grad.copy())
        for name, t in params.items()
    }
    report = GradCheckReport(max_rel_err=0.0)
    for name in sorted(params):
        t = params[name]
        err = 0.0
        it = np.nditer(t.value, flags=["multi_index", "zerosize_ok"])
        while not it.finished:
            ix = it.multi_index
            orig = t.value[ix]
            t.value[ix] = orig + h
            up = build().value.item()
            t.value[ix] = orig - h
            dn = build().value.item()
            t.value[ix] = orig
            numeric = (up - dn) / (2.0 * h)
            a = analytic[name][ix]
            denom = max(abs(a), abs(numeric), 1e-8)
            err = max(err, abs(a - numeric) / denom)
            it.iternext()
        report.per_param[name] = err
        report.max_rel_err = max(report.max_rel_err, err)
    return report
