"""Adam optimizer with decoupled additive weight decay."""

from __future__ import annotations

from typing import Dict

import numpy as np

from .autodiff import ShapeMismatchError, Tensor


class AdamState:
    """Per-parameter first/second moment estimates plus a step counter.

    The update is the standard bias-corrected Adam step, with the usual
    constants ``beta1``, ``beta2`` and ``eps``, followed by a decoupled
    decay term ``lr * weight_decay * param``.  A ``lr`` that is not finite
    and > 0, or a ``weight_decay`` that is not finite and >= 0, raises
    ``ValueError``.
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params: Dict[str, Tensor], lr: float = 1e-3,
                 weight_decay: float = 0.0):
        self.lr = float(lr)
        self.weight_decay = float(weight_decay)
        if not (np.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be finite and > 0, got {lr}")
        if not (np.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ValueError(f"weight_decay must be finite and >= 0, got {weight_decay}")
        self.step_count = 0
        self.m = {name: np.zeros_like(t.value) for name, t in params.items()}
        self.v = {name: np.zeros_like(t.value) for name, t in params.items()}

    def step(self, params: Dict[str, Tensor]) -> None:
        """Apply one update; parameters with no gradient are treated as
        having a zero gradient.  A parameter this state was not built
        with raises ``ValueError`` before anything changes.

        The update rebinds each parameter's ``value`` to a new array and
        writes into none that a recorded VJP reads, so a graph recorded
        before the step differentiates the forward that built it, even
        when its first backward runs after the step.  The moment
        estimates ``m`` and ``v`` are updated in place."""
        unknown = next((name for name in params if name not in self.m), None)
        if unknown is not None:
            raise ValueError(f"parameter {unknown!r} is not one this AdamState was built with")
        self.step_count += 1
        bc1 = 1.0 - self.beta1**self.step_count
        bc2 = 1.0 - self.beta2**self.step_count
        for name in sorted(params):
            t = params[name]
            g = t.grad if t.grad is not None else np.zeros_like(t.value)
            if g.shape != t.value.shape:
                raise ShapeMismatchError(
                    f"gradient shape {g.shape} != parameter shape {t.value.shape}"
                )
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            if self.weight_decay:
                update = update + self.weight_decay * t.value
            t.value = t.value - self.lr * update
