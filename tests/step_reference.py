"""Earlier formulations of the training step's bank and AdaIN helpers.

`membank.update_bank` blends every row and copies the blend into the seen
rows, `membank.class_centers` divides under a `where` mask, and
`adain.adain_transfer` sums the batch statistics itself and reuses one
array for the squares and the result, all to save numpy calls per step. The functions
here are the boolean-gather, gather-and-scatter and ``np.mean`` /
``np.var`` forms they replaced; the tests pin the rewrites against them
bit for bit, signed zeros included.
"""

from __future__ import annotations

import numpy as np

from cfalign import kernels
from cfalign.adain import ChannelStats
from cfalign.membank import MemoryBank


def class_centers_reference(features, labels: np.ndarray, num_classes: int):
    """Per-class means by a boolean gather of the present classes."""
    sums, counts = kernels.label_sums(features, labels, num_classes)
    means = np.zeros_like(sums)
    present = counts > 0
    means[present] = sums[present] / counts[present, None]
    return means, counts


def update_bank_reference(bank: MemoryBank, means: np.ndarray, counts: np.ndarray, domain: str) -> MemoryBank:
    """The momentum update by gathering and scattering the seen and fresh rows."""
    rows, init = bank.rows(domain)
    present = counts > 0
    seen = present & init
    fresh = present & ~init
    rows[seen] = bank.alpha * rows[seen] + (1.0 - bank.alpha) * means[seen]
    rows[fresh] = means[fresh]
    init[fresh] = True
    return bank


def adain_transfer_reference(content: np.ndarray, style: ChannelStats, eps: float = 1e-8) -> np.ndarray:
    """AdaIN with the content statistics taken by ``np.mean`` and ``np.var``."""
    s_mean, s_var = style.as_arrays()
    c = content.shape[1]
    images = np.asarray(content, dtype=np.float64)
    mean, var = images.mean(axis=(0, 2, 3)), images.var(axis=(0, 2, 3))
    col = lambda a: a.reshape(1, c, 1, 1)
    normalized = (content - col(mean)) / np.sqrt(col(var) + eps)
    return normalized * np.sqrt(col(s_var)) + col(s_mean)
