"""Neural-net building blocks on top of the autodiff engine.

Parameters live in flat ``dict[str, Tensor]`` maps keyed by dotted names,
so optimizers, checkpoints and gradient checks can treat every model the
same way.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Dict, List

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .hypergraph import id_array


class EmptyMaskError(ValueError):
    pass


@dataclass(frozen=True)
class MlpSpec:
    """Row-wise multilayer perceptron: ``widths`` lists the input width
    followed by each layer's output width; every layer adds a bias, and
    the activation (``relu``, ``elu`` or ``identity``) is applied after
    every layer except the last."""

    widths: tuple
    activation: str = "relu"

    def __post_init__(self):
        if any(isinstance(w, bool) or not hasattr(w, "__index__") for w in self.widths):
            raise ValueError(f"widths must be integers: {self.widths}")
        object.__setattr__(self, "widths", tuple(map(operator.index, self.widths)))
        if len(self.widths) < 2:
            raise ValueError("MlpSpec needs an input and at least one output width")
        if any(w <= 0 for w in self.widths):
            raise ValueError(f"widths must be positive: {self.widths}")
        if self.activation not in ("relu", "elu", "identity"):
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
    h = x
    last = len(spec.widths) - 2
    for i in range(len(spec.widths) - 1):
        h = ad.linear(h, params[f"{prefix}.w{i}"], params[f"{prefix}.b{i}"])
        if i != last and spec.activation != "identity":
            # read from ``ad`` per call, as every op is, so a rebound ``ad.relu`` is seen
            h = getattr(ad, spec.activation)(h)
    return h


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize each row to zero mean / unit variance, then scale and
    shift: one node over ``(x, gain, bias)``.  A constant row collapses
    to zeros (the 1e-5 variance floor wins).  With ``d = g * gain`` and
    the normalized row ``n``, the input gradient is
    ``inv_std * (d - mean(d) - n * mean(d * n))``, row by row."""
    for t in (gain, bias):
        if t.shape != (1, x.shape[1]):
            raise ad.ShapeMismatchError(f"layer norm of {x.shape} takes a {t.shape} row")
    scale = 1.0 / x.shape[1]
    centered = x.value - x.value.sum(axis=1, keepdims=True) * scale
    var = (centered * centered).sum(axis=1, keepdims=True) * scale
    inv_std = 1.0 / np.sqrt(var + 1e-5)
    normalized = np.multiply(centered, inv_std, out=centered)
    gv = gain.value

    def dx(g):
        d = g * gv
        dn_mean = (d * normalized).sum(axis=1, keepdims=True) * scale
        d -= d.sum(axis=1, keepdims=True) * scale
        d -= normalized * dn_mean
        d *= inv_std
        return d

    out = normalized * gv
    out += bias.value
    return Tensor(
        out,
        _parents=(x, gain, bias),
        _vjps=(
            dx,
            lambda g: (g * normalized).sum(axis=0, keepdims=True),
            lambda g: g.sum(axis=0, keepdims=True),
        ),
    )


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


def grad_check(
    build: Callable[[], Tensor],
    params: Dict[str, Tensor],
    h: float = 1e-5,
) -> List[dict]:
    """Compare reverse-mode gradients with finite differences, one row per
    parameter entry: names sorted, entries in C order.

    ``build`` must construct a fresh scalar loss from the current values
    in ``params``.  Each entry is perturbed by +-h, and its row holds
    ``param``, ``index`` (a list), ``analytic``, the ``central``,
    ``forward`` and ``backward`` differences, and ``err``::

        err = max(0, d - 4 ulp(L) / h) / max(|analytic|, |central|, 1e-8)

    where L is the loss at the unperturbed point and d is the distance
    from ``analytic`` to the central difference.  Each loss is rounded to
    ulp(L), so a difference moves in steps of ulp(L) / h; the rule
    forgives four such steps, so it cannot judge an entry smaller than
    about 4 ulp(L) / h.  At a kink, where the forward and backward
    differences disagree by more than twice that slack plus a tenth of
    the denominator, d is the distance to the closest of the three
    differences, so a kink within h on one side is forgiven.  A smooth
    entry meets that test only where h |f''| exceeds a tenth of |f'|;
    elsewhere it is judged by the central difference alone.  A row with
    a non-finite value has ``err`` = inf.
    """
    out = build()
    if out.value.size != 1:
        raise ad.NonScalarOutputError("grad_check requires a scalar output")
    at = out.value.item()
    ad.zero_grads(params.values())
    out.backward()
    slack = 4.0 * np.spacing(abs(at)) / h
    rows = []
    for name in sorted(params):
        t = params[name]
        for ix in np.ndindex(t.shape):
            orig = t.value[ix]
            t.value[ix] = orig + h
            up = build().value.item()
            t.value[ix] = orig - h
            down = build().value.item()
            t.value[ix] = orig
            a = 0.0 if t.grad is None else float(t.grad[ix])
            central, forward, backward = (up - down) / (2.0 * h), (up - at) / h, (at - down) / h
            scale = max(abs(a), abs(central), 1e-8)
            kink = abs(forward - backward) > 2.0 * slack + 0.1 * scale
            d = min(abs(a - n) for n in ((central, forward, backward) if kink else (central,)))
            finite = np.isfinite([a, central, forward, backward]).all()
            rows.append({"param": name, "index": list(ix), "analytic": a, "central": central,
                         "forward": forward, "backward": backward,
                         "err": max(0.0, d - slack) / scale if finite else float("inf")})
    return rows
