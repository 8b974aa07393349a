"""Adam optimizer with decoupled additive weight decay."""

from __future__ import annotations

from typing import Dict

import numpy as np

from .autodiff import ShapeMismatchError, Tensor


class AdamState:
    """Per-parameter first/second moment estimates plus a step counter.

    The update is the standard bias-corrected Adam step, with the usual
    constants ``beta1``, ``beta2`` and ``eps``, followed by a decoupled
    decay term ``lr * weight_decay * param``.
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params: Dict[str, Tensor], lr: float = 1e-3,
                 weight_decay: float = 0.0):
        self.lr = float(lr)
        self.weight_decay = float(weight_decay)
        self.step_count = 0
        self.m = {name: np.zeros_like(t.value) for name, t in params.items()}
        self.v = {name: np.zeros_like(t.value) for name, t in params.items()}

    def step(self, params: Dict[str, Tensor]) -> None:
        """Apply one update in place; parameters with no gradient are
        treated as having a zero gradient.  A parameter this state was
        not built with raises ``ValueError`` before anything changes.

        The update writes into each parameter's array, which the VJPs of
        any graph built from it read.  A graph whose backward already ran
        is consumed, so a second backward raises rather than use the
        stepped weights.  One case stays silent: a graph recorded before
        the step whose first backward runs after it gets gradients that
        mix the forward's inputs with the stepped weights."""
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
            t.value -= self.lr * update
