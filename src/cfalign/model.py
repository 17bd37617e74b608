"""Per-pixel segmentation network: shared MLP backbone plus linear classifier.

Every pixel is classified independently from its channel vector. An image
batch (b, c, h, w) flattens to a feature-major pixel matrix (c, b*h*w)
before the forward pass, one column per pixel, and every layer keeps that
layout: features are (feature_dim, n) and logits (classes, n). Prediction
grids reshape back afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adain import to_pixels
from .config import MAX_ELEMENTS, fits
from .errors import ConfigError, DimensionError
from .heads import LinearLayer, linear_layer
from .kernels import argmax, log_softmax
from .tensor import Tensor, affine

__all__ = [
    "SegModel",
    "build_model",
    "model_features",
    "model_logits",
    "model_probs",
    "model_parameters",
    "predict_labels",
]


@dataclass
class SegModel:
    channels: int
    hidden_dim: int
    feature_dim: int
    classes: int
    enc1: LinearLayer
    enc2: LinearLayer
    classifier: LinearLayer


def build_model(
    channels: int,
    hidden_dim: int,
    feature_dim: int,
    classes: int,
    rng: np.random.Generator | int | None = None,
) -> SegModel:
    """Initialize all layers with uniform(-1/sqrt(fan_in), +1/sqrt(fan_in))."""
    if min(channels, hidden_dim, feature_dim, classes) <= 0:
        raise ConfigError(
            f"model dims must be positive, got channels={channels} hidden={hidden_dim} "
            f"features={feature_dim} classes={classes}"
        )
    if not (fits(channels, hidden_dim) and fits(hidden_dim, feature_dim) and fits(feature_dim, classes)):
        raise ConfigError(f"a model weight exceeds numpy's index range ({MAX_ELEMENTS} elements)")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    return SegModel(
        channels=channels,
        hidden_dim=hidden_dim,
        feature_dim=feature_dim,
        classes=classes,
        enc1=linear_layer(channels, hidden_dim, rng),
        enc2=linear_layer(hidden_dim, feature_dim, rng),
        classifier=linear_layer(feature_dim, classes, rng),
    )


def model_features(model: SegModel, pixels: Tensor) -> Tensor:
    """Backbone forward: (channels, n) pixels to (feature_dim, n) features."""
    if pixels.data.ndim != 2 or pixels.data.shape[0] != model.channels:
        raise DimensionError(
            f"backbone expects ({model.channels}, n) pixels, got {pixels.data.shape}"
        )
    hidden = affine(pixels, model.enc1.weight, model.enc1.bias, relu=True)
    return affine(hidden, model.enc2.weight, model.enc2.bias)


def model_logits(model: SegModel, features: Tensor) -> Tensor:
    """Classifier forward: (feature_dim, n) features to (classes, n) logits."""
    if features.data.ndim != 2 or features.data.shape[0] != model.feature_dim:
        raise DimensionError(
            f"classifier expects ({model.feature_dim}, n) features, got {features.data.shape}"
        )
    return affine(features, model.classifier.weight, model.classifier.bias)


def model_probs(model: SegModel, features: Tensor) -> Tensor:
    """Classifier forward: (feature_dim, n) features to (classes, n)
    probabilities, the exponentials of `kernels.log_softmax` of the logits,
    with no tape node of their own. No run path calls it: it stays for the
    benchmark's ``model.probs`` site, which wraps ``cfalign.train.model_probs``.
    """
    z = model_logits(model, features).data
    logp = np.empty(z.shape)
    log_softmax(z, logp, np.empty(z.shape))
    return Tensor(np.exp(logp, out=logp))


def model_parameters(model: SegModel) -> list[Tensor]:
    params = []
    for layer in (model.enc1, model.enc2, model.classifier):
        params += [layer.weight, layer.bias]
    return params


def predict_labels(model: SegModel, images: np.ndarray, features: Tensor | None = None) -> np.ndarray:
    """Forward-only argmax labels for an image batch (b, c, h, w).

    `features`, when given, are the backbone features of `images` computed
    already, of shape (feature_dim, b*h*w); the backbone then does not run
    again. Each label is the argmax of the pixel's logits, the lowest index
    on ties, by `kernels.argmax`'s scan over the class rows: the argmax of
    its probabilities, except where rounding ties two probabilities.
    Raises DimensionError, before any forward work, when `images` is not
    4-d or `features` does not match it.
    """
    if images.ndim != 4:
        raise DimensionError(f"predict_labels needs a (b, c, h, w) image batch, got shape {images.shape}")
    b, _, h, w = images.shape
    if features is None:
        features = model_features(model, Tensor(to_pixels(images)))
    elif features.data.shape != (model.feature_dim, b * h * w):
        raise DimensionError(
            f"predict_labels needs ({model.feature_dim}, {b * h * w}) features for images of shape "
            f"{images.shape}, got {features.data.shape}"
        )
    return argmax(model_logits(model, features).data).reshape(b, h, w)
