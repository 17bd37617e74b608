"""Coarse alignment by matching per-channel statistics.

The default path operates directly on image batches: normalize each channel
by its own mean and population variance (taken over batch and spatial
positions together), then rescale and shift to a style's statistics. An
optional per-pixel autoencoder exercises the same transfer in feature space
with a content reconstruction loss plus a statistics-matching style loss.

Images are (batch, channel, height, width); the differentiable feature path
works on flattened pixel matrices of shape (pixels, channels).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DimensionError
from .heads import linear_layer
from .tensor import (
    Graph,
    Tensor,
    add,
    affine,
    backward,
    div,
    mul,
    reduce_mean,
    relu,
    scale,
    sqrt,
    sub,
    zero_grads,
)

__all__ = [
    "ChannelStats",
    "channel_stats",
    "adain_transfer",
    "feature_stats",
    "adain_transfer_features",
    "content_loss",
    "style_loss",
    "StyleNet",
    "build_style_net",
    "encode",
    "decode",
    "train_style_net",
    "style_net_transfer",
    "to_pixels",
    "from_pixels",
]


@dataclass
class ChannelStats:
    """Per-channel mean and population variance; values may be arrays or tensors."""

    mean: object
    var: object

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        m = self.mean.data if isinstance(self.mean, Tensor) else np.asarray(self.mean, float)
        v = self.var.data if isinstance(self.var, Tensor) else np.asarray(self.var, float)
        return m, v


def to_pixels(images: np.ndarray) -> np.ndarray:
    """(b, c, h, w) -> (b*h*w, c) with pixels of one image contiguous."""
    if images.ndim != 4:
        raise DimensionError(f"expected a 4-d image batch, got shape {images.shape}")
    b, c, h, w = images.shape
    return images.transpose(0, 2, 3, 1).reshape(b * h * w, c)


def from_pixels(pixels: np.ndarray, shape: tuple[int, int, int, int]) -> np.ndarray:
    b, c, h, w = shape
    if pixels.shape != (b * h * w, c):
        raise DimensionError(f"pixel matrix {pixels.shape} does not match image shape {shape}")
    return pixels.reshape(b, h, w, c).transpose(0, 3, 1, 2)


def channel_stats(images: np.ndarray) -> ChannelStats:
    """Mean and population variance per channel over batch and spatial axes."""
    if images.ndim != 4:
        raise DimensionError(f"expected a 4-d image batch, got shape {images.shape}")
    images = np.asarray(images, dtype=np.float64)
    return ChannelStats(mean=images.mean(axis=(0, 2, 3)), var=images.var(axis=(0, 2, 3)))


def adain_transfer(content: np.ndarray, style: ChannelStats, eps: float = 1e-8) -> np.ndarray:
    """Renormalize each content channel to the style's mean and variance.

    Channels are first standardized by the content batch's own statistics
    with `eps` guarding the division, then scaled by sqrt(style var) and
    shifted to the style mean. A constant channel maps to the style mean.
    """
    if eps <= 0:
        raise ContractError(f"eps must be positive, got {eps}")
    if content.ndim != 4:
        raise DimensionError(f"expected a 4-d image batch, got shape {content.shape}")
    s_mean, s_var = style.as_arrays()
    c = content.shape[1]
    if s_mean.shape != (c,) or s_var.shape != (c,):
        raise DimensionError(
            f"style stats must have {c} channels, got {s_mean.shape} and {s_var.shape}"
        )
    own = channel_stats(content)
    col = lambda a: a.reshape(1, c, 1, 1)
    normalized = (content - col(own.mean)) / np.sqrt(col(own.var) + eps)
    return normalized * np.sqrt(col(s_var)) + col(s_mean)


# ---------------------------------------------------------------------------
# differentiable feature-space path


def feature_stats(f: Tensor) -> ChannelStats:
    """Column mean and population variance of a (pixels, channels) tensor."""
    if f.data.ndim != 2:
        raise DimensionError(f"feature_stats needs a 2-d tensor, got shape {f.data.shape}")
    m = reduce_mean(f, axis=0)
    centered = sub(f, m)
    v = reduce_mean(mul(centered, centered), axis=0)
    return ChannelStats(mean=m, var=v)


def _as_t(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def adain_transfer_features(f: Tensor, style: ChannelStats, eps: float = 1e-8) -> Tensor:
    """Differentiable version of :func:`adain_transfer` on a pixel matrix."""
    if eps <= 0:
        raise ContractError(f"eps must be positive, got {eps}")
    own = feature_stats(f)
    normalized = div(sub(f, own.mean), sqrt(add(own.var, eps)))
    return add(mul(normalized, sqrt(_as_t(style.var))), _as_t(style.mean))


def content_loss(f_tf: Tensor, f_target) -> Tensor:
    """Mean squared difference over every entry."""
    f_target = _as_t(f_target)
    if f_tf.data.shape != f_target.data.shape:
        raise DimensionError(
            f"content_loss needs equal shapes, got {f_tf.data.shape} and {f_target.data.shape}"
        )
    diff = sub(f_tf, f_target)
    return reduce_mean(mul(diff, diff))


def style_loss(tf_stats: ChannelStats, style_stats: ChannelStats) -> Tensor:
    """Half the summed squared gaps in channel means and standard deviations."""
    tf_mean, tf_var = _as_t(tf_stats.mean), _as_t(tf_stats.var)
    s_mean, s_var = _as_t(style_stats.mean), _as_t(style_stats.var)
    if tf_mean.data.shape != s_mean.data.shape:
        raise DimensionError(
            f"style_loss channel counts differ: {tf_mean.data.shape} vs {s_mean.data.shape}"
        )
    mean_gap = sub(tf_mean, s_mean)
    std_gap = sub(sqrt(s_var), sqrt(tf_var))
    total = add(mul(mean_gap, mean_gap).sum(), mul(std_gap, std_gap).sum())
    return scale(total, 0.5)


# ---------------------------------------------------------------------------
# optional trainable transfer network


@dataclass
class StyleNet:
    """Per-pixel autoencoder: affine+relu encoder, affine decoder."""

    enc_w: Tensor
    enc_b: Tensor
    dec_w: Tensor
    dec_b: Tensor

    def parameters(self) -> list[Tensor]:
        return [self.enc_w, self.enc_b, self.dec_w, self.dec_b]


def build_style_net(channels: int, dim: int, rng: np.random.Generator | int | None = None) -> StyleNet:
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    enc = linear_layer(channels, dim, rng)
    dec = linear_layer(dim, channels, rng)
    return StyleNet(enc_w=enc.weight, enc_b=enc.bias, dec_w=dec.weight, dec_b=dec.bias)


def encode(net: StyleNet, pixels: Tensor) -> Tensor:
    return relu(affine(pixels, net.enc_w, net.enc_b))


def decode(net: StyleNet, features: Tensor) -> Tensor:
    return affine(features, net.dec_w, net.dec_b)


def train_style_net(
    source_images: np.ndarray,
    target_images: np.ndarray,
    dim: int = 8,
    iterations: int = 200,
    learning_rate: float = 0.05,
    style_weight: float = 1.0,
    eps: float = 1e-8,
    seed: int = 0,
) -> tuple[StyleNet, list[float]]:
    """Fit the autoencoder so decoded transfers keep content and adopt style.

    Each step samples one source and one target image, transfers the encoded
    source pixels to the target's feature statistics, decodes, re-encodes, and
    descends on reconstruction + style_weight * statistics mismatch.
    """
    if iterations < 0:
        raise ContractError(f"iterations must be nonnegative, got {iterations}")
    channels = source_images.shape[1]
    rng = np.random.default_rng(seed)
    net = build_style_net(channels, dim, rng)
    losses: list[float] = []
    for _ in range(iterations):
        xs = to_pixels(source_images[rng.integers(len(source_images))][None])
        xt = to_pixels(target_images[rng.integers(len(target_images))][None])
        with Graph() as g:
            f_s = encode(net, Tensor(xs))
            f_t = encode(net, Tensor(xt))
            t_stats = feature_stats(f_t)
            transferred = adain_transfer_features(f_s, t_stats, eps)
            image = decode(net, transferred)
            f_tf = encode(net, image)
            loss = add(
                content_loss(f_tf, f_s),
                scale(style_loss(feature_stats(f_tf), t_stats), style_weight),
            )
            backward(loss, g)
        losses.append(loss.item())
        for p in net.parameters():
            if p.grad is not None:
                p.data -= learning_rate * p.grad
        zero_grads(net.parameters())
    return net, losses


def style_net_transfer(
    net: StyleNet, images: np.ndarray, style_stats: ChannelStats, eps: float = 1e-8
) -> np.ndarray:
    """Encode, match feature statistics, decode. Forward-only, returns arrays."""
    pixels = Tensor(to_pixels(images))
    f = encode(net, pixels)
    transferred = adain_transfer_features(f, style_stats, eps)
    out = decode(net, transferred)
    return from_pixels(out.data, images.shape)
