"""Projection heads remapping backbone features before the contrastive loss.

Two architectures, selected by name:

========  ==================================================
``none``  identity
``byol``  Linear, BatchNorm, ReLU, Linear
========  ==================================================

Weights and biases draw from uniform(-1/sqrt(fan_in), +1/sqrt(fan_in));
the batch norm normalizes each batch by its own statistics with eps 1e-5.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError
from .tensor import Tensor, affine, batch_norm_relu

HEAD_KINDS = ("none", "byol")

__all__ = [
    "HEAD_KINDS", "Head", "LinearLayer",
    "linear_layer", "build_head", "head_forward", "head_parameters",
]


@dataclass
class LinearLayer:
    weight: Tensor  # (d_in, d_out)
    bias: Tensor  # (d_out,)


@dataclass
class Head:
    """The identity head (`none`) holds no layers; `byol` holds all four fields,
    and its hidden and output widths are its input width `d`."""

    d: int
    fc1: LinearLayer | None = None
    gamma: Tensor | None = None  # batch-norm scale and shift, (d,)
    beta: Tensor | None = None
    fc2: LinearLayer | None = None


def linear_layer(d_in: int, d_out: int, rng: np.random.Generator) -> LinearLayer:
    """Draws the weight, then the bias, from uniform(-1/sqrt(d_in), +1/sqrt(d_in))."""
    bound = 1.0 / np.sqrt(d_in)
    return LinearLayer(
        weight=Tensor(rng.uniform(-bound, bound, size=(d_in, d_out)), requires_grad=True),
        bias=Tensor(rng.uniform(-bound, bound, size=d_out), requires_grad=True),
    )


def build_head(kind: str, d: int, rng: np.random.Generator | int | None = None) -> Head:
    """Construct a head of width `d`, drawing fc1's weight and bias, then fc2's, from `rng`."""
    if kind not in HEAD_KINDS:
        raise ConfigError(f"unknown head kind {kind!r}; choose from {HEAD_KINDS}")
    if kind == "none":
        return Head(d)
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    fc1 = linear_layer(d, d, rng)
    fc2 = linear_layer(d, d, rng)
    gamma = Tensor(np.ones(d), requires_grad=True)
    beta = Tensor(np.zeros(d), requires_grad=True)
    return Head(d, fc1, gamma, beta, fc2)


def head_forward(head: Head, x: Tensor) -> Tensor:
    """Apply the head to (d, n) features; the `none` head returns x as is."""
    if x.data.ndim != 2 or x.data.shape[0] != head.d:
        raise DimensionError(f"head expects ({head.d}, n) features, got {x.data.shape}")
    if head.fc1 is None:
        return x
    h = batch_norm_relu(affine(x, head.fc1.weight, head.fc1.bias), head.gamma, head.beta)
    return affine(h, head.fc2.weight, head.fc2.bias)


def head_parameters(head: Head) -> list[Tensor]:
    """fc1 weight and bias, batch-norm gamma and beta, fc2 weight and bias."""
    if head.fc1 is None:
        return []
    return [head.fc1.weight, head.fc1.bias, head.gamma, head.beta, head.fc2.weight, head.fc2.bias]
