"""Earlier formulations of the training step's bank, AdaIN, log-softmax
and batch-norm helpers.

`membank.update_bank` blends every row and copies the blend into the seen
rows, `membank.class_centers` divides under a `where` mask, and
`adain.adain_transfer` sums the batch statistics itself, all to save numpy
calls per step. The first functions here are the gather-and-scatter and
`np.mean` / `np.var` forms they replaced.

`tensor.batch_norm_relu`, `kernels.log_softmax` and `adain.adain_transfer` then
moved their large temporaries into pooled or reused buffers and run in
place. The `*_fresh` functions are the forms before that, which allocate
every temporary anew: the same operations in the same order, so the tests
pin the rewrites against them bit for bit, signed zeros included.
"""

from __future__ import annotations

import numpy as np

from cfalign import kernels
from cfalign.adain import ChannelStats
from cfalign.membank import MemoryBank
from cfalign.tensor import EPS, Tensor, accum, buffer, record


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


def adain_transfer_fresh(content: np.ndarray, style: ChannelStats, eps: float = 1e-8) -> np.ndarray:
    """AdaIN with its own sums of the statistics, one fresh array per step."""
    s_mean, s_var = style.as_arrays()
    b, c, h, w = content.shape
    content = np.asarray(content, dtype=np.float64)
    count = b * h * w
    centered = content - np.add.reduce(content, axis=(0, 2, 3), keepdims=True) / count
    var = np.add.reduce(centered * centered, axis=(0, 2, 3), keepdims=True) / count
    col = lambda a: a.reshape(1, c, 1, 1)
    return centered / np.sqrt(var + eps) * np.sqrt(col(s_var)) + col(s_mean)


def log_softmax_fresh(z: np.ndarray, out: np.ndarray, entropy: bool = False) -> np.ndarray | None:
    """`kernels.log_softmax` with the exponentials in a fresh array."""
    np.subtract(z, z.max(axis=0), out=out)
    e = np.exp(out)
    s = e.sum(axis=0)
    np.subtract(out, np.log(s), out=out)
    if not entropy:
        return None
    return np.multiply(e, out, out=e).sum(axis=0) / s


def batch_norm_fresh(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """The batch-norm node with fresh centered rows, quotients and
    backward temporaries, each negation taken before its sum;
    `tensor.batch_norm_relu` is pinned against it followed by
    `chain_ops.relu`."""
    d, n = x.data.shape
    g_col, b_col = gamma.data[:, None], beta.data[:, None]
    m = x.data.sum(axis=1, keepdims=True) / n
    c = x.data - m
    v = (c * c).sum(axis=1, keepdims=True) / n
    safe = np.maximum(np.sqrt(np.maximum(v + eps, 0.0)), EPS)
    q = c / safe
    requires_grad = x.requires_grad or gamma.requires_grad or beta.requires_grad
    y = np.multiply(g_col, q, out=buffer(x.data.shape))
    y += b_col
    out = Tensor(y, requires_grad)

    def bwd(g):
        g = 0.0 + g
        accum(beta, g.sum(axis=1))
        accum(gamma, (g * q).sum(axis=1))
        if not x.requires_grad:
            return
        gq = 0.0 + g * g_col
        gc = 0.0 + gq / safe
        gs = 0.0 + (-gq * c / (safe * safe)).sum(axis=1, keepdims=True)
        gv = 0.0 + (0.0 + gs * 0.5 / safe)
        gsq = 0.0 + gv / n
        term = gsq * c
        gc += term
        gc += term
        accum(x, gc)
        accum(x, (0.0 + (-gc).sum(axis=1, keepdims=True)) / n)

    record("batch_norm", (x, gamma, beta), out, bwd)
    return out
