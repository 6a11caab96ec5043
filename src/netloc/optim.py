"""First-order optimizers over name -> array parameter dicts.

All three mutate parameters in place and are deterministic. Adam couples
weight decay by adding wd * theta to the gradient; AdamW decays the parameter
directly (decoupled), so the two coincide exactly when weight_decay is 0.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["GradientDescent", "Adam", "AdamW", "make_optimizer"]

# Adam's moment decay rates and denominator guard (Kingma & Ba 2015 defaults).
_BETA1 = 0.9
_BETA2 = 0.999
_EPS = 1e-8


def _check_rate(lr: float) -> None:
    if not math.isfinite(lr):
        raise ValueError(f"learning rate must be finite, got {lr}")
    if lr <= 0.0:
        raise ValueError(f"learning rate must be positive, got {lr}")


def _check(params: dict, grads: dict) -> None:
    for name, g in grads.items():
        if name not in params:
            raise KeyError(f"gradient for unknown parameter {name!r}")
        if g.shape != params[name].shape:
            raise ValueError(
                f"shape mismatch for {name!r}: param {params[name].shape}, grad {g.shape}"
            )


class GradientDescent:
    """Plain update theta <- theta - lr * grad."""

    def __init__(self, lr: float):
        _check_rate(lr)
        self.lr = lr

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        _check(params, grads)
        for name, g in grads.items():
            params[name] -= self.lr * g


class Adam:
    """Adam with bias correction; weight decay (if any) is added to the gradient."""

    def __init__(self, lr: float, weight_decay: float):
        _check_rate(lr)
        if not math.isfinite(weight_decay):
            raise ValueError(f"weight decay must be finite, got {weight_decay}")
        if weight_decay < 0.0:
            raise ValueError(f"weight decay must be nonnegative, got {weight_decay}")
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    decoupled = False

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        _check(params, grads)
        self.t += 1
        bc1 = 1.0 - _BETA1**self.t
        bc2 = 1.0 - _BETA2**self.t
        for name, g in grads.items():
            p = params[name]
            if self.weight_decay != 0.0:
                if self.decoupled:
                    p *= 1.0 - self.lr * self.weight_decay
                else:
                    g = g + self.weight_decay * p
            if name not in self.m:
                self.m[name] = np.zeros_like(p)
                self.v[name] = np.zeros_like(p)
            m = self.m[name]
            v = self.v[name]
            m += (1.0 - _BETA1) * (g - m)
            v += (1.0 - _BETA2) * (g * g - v)
            p -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + _EPS)


class AdamW(Adam):
    """Adam with decoupled weight decay: theta <- theta * (1 - lr*wd) before the step."""

    decoupled = True


def make_optimizer(kind: str, lr: float, weight_decay: float):
    if kind == "gd":
        if weight_decay != 0.0:
            raise ValueError("gradient descent here takes no weight decay")
        return GradientDescent(lr)
    if kind == "adam":
        return Adam(lr, weight_decay=weight_decay)
    if kind == "adamw":
        return AdamW(lr, weight_decay=weight_decay)
    raise ValueError(f"unknown optimizer kind {kind!r}")
