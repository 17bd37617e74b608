"""Projection heads remapping backbone features before the contrastive loss.

Two architectures, selected by name:

========  ==================================================
``none``  identity
``byol``  Linear, BatchNorm, ReLU, Linear
========  ==================================================

Weights and biases draw from uniform(-1/sqrt(fan_in), +1/sqrt(fan_in));
batch norms use eps 1e-5 and running-stat momentum 0.1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DimensionError
from .tensor import RunningStats, Tensor, affine, batch_norm, relu

HEAD_KINDS = ("none", "byol")

__all__ = [
    "HEAD_KINDS", "Head", "LinearLayer", "BatchNormLayer",
    "linear_layer", "head_plan", "build_head", "head_forward", "head_parameters",
]

BN_EPS = 1e-5
BN_MOMENTUM = 0.1


@dataclass
class LinearLayer:
    weight: Tensor  # (d_in, d_out)
    bias: Tensor  # (d_out,)


@dataclass
class BatchNormLayer:
    gamma: Tensor
    beta: Tensor
    running: RunningStats
    eps: float = BN_EPS


@dataclass
class Head:
    d_in: int
    d_out: int
    layers: list = field(default_factory=list)  # LinearLayer | BatchNormLayer | "relu"


def linear_layer(d_in: int, d_out: int, rng: np.random.Generator) -> LinearLayer:
    """Draws the weight, then the bias, from uniform(-1/sqrt(d_in), +1/sqrt(d_in))."""
    bound = 1.0 / np.sqrt(d_in)
    return LinearLayer(
        weight=Tensor(rng.uniform(-bound, bound, size=(d_in, d_out)), requires_grad=True),
        bias=Tensor(rng.uniform(-bound, bound, size=d_out), requires_grad=True),
    )


def _bn(dim: int) -> BatchNormLayer:
    return BatchNormLayer(
        gamma=Tensor(np.ones(dim), requires_grad=True),
        beta=Tensor(np.zeros(dim), requires_grad=True),
        running=RunningStats.for_dim(dim, momentum=BN_MOMENTUM),
    )


def head_plan(kind: str, d_in: int, d_hidden: int | None = None, d_out: int | None = None) -> list:
    """The layers of a head as ``("linear", d_in, d_out)``, ``("bn", dim)`` or
    ``"relu"``; hidden and output dims default to the input dim."""
    if kind not in HEAD_KINDS:
        raise ConfigError(f"unknown head kind {kind!r}; choose from {HEAD_KINDS}")
    d_hidden = d_in if d_hidden is None else d_hidden
    d_out = d_in if d_out is None else d_out
    first, second = ("linear", d_in, d_hidden), ("linear", d_hidden, d_out)
    return {
        "none": [],
        "byol": [first, ("bn", d_hidden), "relu", second],
    }[kind]


def build_head(
    kind: str,
    d_in: int,
    d_hidden: int | None = None,
    d_out: int | None = None,
    rng: np.random.Generator | int | None = None,
) -> Head:
    """Construct a head from its plan, drawing the linear layers in order."""
    plan = head_plan(kind, d_in, d_hidden, d_out)
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    layers = []
    for p in plan:
        if p == "relu":
            layers.append("relu")
        elif p[0] == "linear":
            layers.append(linear_layer(p[1], p[2], rng))
        else:
            layers.append(_bn(p[1]))
    return Head(d_in, plan[-1][-1] if plan else d_in, layers)


def head_forward(head: Head, x: Tensor) -> Tensor:
    """Apply the head to (n, d_in) features; the `none` head returns x as is."""
    if x.data.ndim != 2 or x.data.shape[1] != head.d_in:
        raise DimensionError(f"head expects (n, {head.d_in}) features, got {x.data.shape}")
    out = x
    for layer in head.layers:
        if layer == "relu":
            out = relu(out)
        elif isinstance(layer, LinearLayer):
            out = affine(out, layer.weight, layer.bias)
        else:
            out = batch_norm(out, layer.gamma, layer.beta, running=layer.running, eps=layer.eps)
    return out


def head_parameters(head: Head) -> list[Tensor]:
    params: list[Tensor] = []
    for layer in head.layers:
        if isinstance(layer, LinearLayer):
            params += [layer.weight, layer.bias]
        elif isinstance(layer, BatchNormLayer):
            params += [layer.gamma, layer.beta]
    return params
