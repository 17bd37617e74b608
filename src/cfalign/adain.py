"""Coarse alignment by matching per-channel statistics.

Operates directly on image batches: normalize each channel by its own mean
and population variance (taken over batch and spatial positions together),
then rescale and shift to a style's statistics.

Images are (batch, channel, height, width); `to_pixels` flattens them into
the feature-major (channels, pixels) matrices the per-pixel model consumes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DimensionError

__all__ = ["ChannelStats", "channel_stats", "adain_transfer", "to_pixels"]


@dataclass
class ChannelStats:
    """Per-channel mean and population variance."""

    mean: np.ndarray
    var: np.ndarray

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return np.asarray(self.mean, float), np.asarray(self.var, float)


def to_pixels(images: np.ndarray) -> np.ndarray:
    """(b, c, h, w) -> (c, b*h*w), one column per pixel in image, row and
    column order. A view of a contiguous single image (b = 1), else a copy."""
    if images.ndim != 4:
        raise DimensionError(f"expected a 4-d image batch, got shape {images.shape}")
    b, c, h, w = images.shape
    return images.transpose(1, 0, 2, 3).reshape(c, b * h * w)


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
    The content statistics are summed in the steps numpy's `mean` and
    `var` take, so they equal `channel_stats`'s bit for bit; one centered
    batch serves both the variance and the normalisation, and one output
    array holds the squares and then the result.
    """
    if not 0 < eps < np.inf:
        raise ContractError(f"eps must be a finite number above 0, got {eps}")
    if content.ndim != 4:
        raise DimensionError(f"expected a 4-d image batch, got shape {content.shape}")
    s_mean, s_var = style.as_arrays()
    b, c, h, w = content.shape
    if s_mean.shape != (c,) or s_var.shape != (c,):
        raise DimensionError(
            f"style stats must have {c} channels, got {s_mean.shape} and {s_var.shape}"
        )
    content = np.asarray(content, dtype=np.float64)
    count = b * h * w
    centered = content - np.add.reduce(content, axis=(0, 2, 3), keepdims=True) / count
    # one output array holds the squares, then the transferred batch
    out = np.multiply(centered, centered)
    var = np.add.reduce(out, axis=(0, 2, 3), keepdims=True) / count
    col = lambda a: a.reshape(1, c, 1, 1)
    np.divide(centered, np.sqrt(var + eps), out=out)
    out *= np.sqrt(col(s_var))
    out += col(s_mean)
    return out
