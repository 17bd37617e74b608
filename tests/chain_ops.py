"""Per-op tape nodes and the reference chains built from them.

Every layer and loss in ``cfalign`` is one tape node with a hand-written
backward. The chains here compute the same thing one generic op at a time,
and the fused nodes are pinned against them bit for bit: the fused backwards
repeat these chains' numpy arithmetic in reverse tape order. Layers and
batch norm run feature-major, on (d, n) tensors, as the package does; the
loss chains take one row per pixel, and `tensor.transpose` joins the two.

log, div and sqrt clamp their arguments by ``EPS`` so a chain never emits
NaN from a boundary value; each guard is noted on the op.
"""

from __future__ import annotations

import numpy as np

from cfalign.errors import ContractError, DimensionError
from cfalign.losses import info_nce
from cfalign.tensor import EPS, Tensor, _as_tensor, _unbroadcast, accum, add, record, scale, transpose

# ---------------------------------------------------------------------------
# elementwise and linear ops


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor(a.data - b.data, a.requires_grad or b.requires_grad)

    def bwd(g):
        accum(a, _unbroadcast(g, a.data.shape))
        accum(b, _unbroadcast(-g, b.data.shape))

    record("sub", (a, b), out, bwd)
    return out


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor(a.data * b.data, a.requires_grad or b.requires_grad)

    def bwd(g):
        accum(a, _unbroadcast(g * b.data, a.data.shape))
        accum(b, _unbroadcast(g * a.data, b.data.shape))

    record("mul", (a, b), out, bwd)
    return out


def div(a, b) -> Tensor:
    """Elementwise a / b. Denominator magnitudes are clamped to EPS."""
    a, b = _as_tensor(a), _as_tensor(b)
    safe = np.where(b.data >= 0, np.maximum(b.data, EPS), np.minimum(b.data, -EPS))
    out = Tensor(a.data / safe, a.requires_grad or b.requires_grad)

    def bwd(g):
        accum(a, _unbroadcast(g / safe, a.data.shape))
        accum(b, _unbroadcast(-g * a.data / (safe * safe), b.data.shape))

    record("div", (a, b), out, bwd)
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise DimensionError(f"matmul needs (n,k)@(k,m), got {a.data.shape} @ {b.data.shape}")
    out = Tensor(a.data @ b.data, a.requires_grad or b.requires_grad)

    def bwd(g):
        accum(a, g @ b.data.T)
        accum(b, a.data.T @ g)

    record("matmul", (a, b), out, bwd)
    return out


def contiguous(x: Tensor) -> Tensor:
    """A C-contiguous copy of a view."""
    out = Tensor(np.ascontiguousarray(x.data), x.requires_grad)

    def bwd(g):
        accum(x, g)

    record("contiguous", (x,), out, bwd)
    return out


def column(x: Tensor) -> Tensor:
    """A (d,) tensor as a (d, 1) column, which broadcasts along the pixels of
    a (d, n) tensor."""
    out = Tensor(x.data[:, None], x.requires_grad)

    def bwd(g):
        accum(x, g[:, 0])

    record("column", (x,), out, bwd)
    return out


def exp(x: Tensor) -> Tensor:
    e = np.exp(x.data)
    out = Tensor(e, x.requires_grad)

    def bwd(g):
        accum(x, g * e)

    record("exp", (x,), out, bwd)
    return out


def log(x: Tensor) -> Tensor:
    """Natural log with the argument clamped below by EPS."""
    safe = np.maximum(x.data, EPS)
    out = Tensor(np.log(safe), x.requires_grad)

    def bwd(g):
        accum(x, g / safe)

    record("log", (x,), out, bwd)
    return out


def sqrt(x: Tensor) -> Tensor:
    """Square root with negative arguments clamped to 0; backward guards the pole."""
    s = np.sqrt(np.maximum(x.data, 0.0))
    out = Tensor(s, x.requires_grad)

    def bwd(g):
        accum(x, g * 0.5 / np.maximum(s, EPS))

    record("sqrt", (x,), out, bwd)
    return out


# ---------------------------------------------------------------------------
# reductions and indexing


def _spread(g: np.ndarray, shape: tuple[int, ...], axis, keepdims: bool) -> np.ndarray:
    if axis is not None and not keepdims:
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g, shape)


def reduce_sum(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = Tensor(x.data.sum(axis=axis, keepdims=keepdims), x.requires_grad)

    def bwd(g):
        accum(x, _spread(g, x.data.shape, axis, keepdims))

    record("sum", (x,), out, bwd)
    return out


def reduce_mean(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    if axis is None:
        n = x.data.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        n = 1
        for ax in axes:
            n *= x.data.shape[ax]
    out = Tensor(x.data.mean(axis=axis, keepdims=keepdims), x.requires_grad)

    def bwd(g):
        accum(x, _spread(g, x.data.shape, axis, keepdims) / n)

    record("mean", (x,), out, bwd)
    return out


def take_rows(x: Tensor, idx: np.ndarray) -> Tensor:
    """Gather rows x[idx]. Backward scatter-adds, so repeated indices accumulate."""
    idx = np.asarray(idx, dtype=np.int64)
    if x.data.ndim != 2:
        raise DimensionError(f"take_rows needs a 2-d tensor, got shape {x.data.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= x.data.shape[0]):
        raise ContractError(f"row index out of range for {x.data.shape[0]} rows")
    out = Tensor(x.data[idx], x.requires_grad)

    def bwd(g):
        if x.requires_grad:
            gx = np.zeros_like(x.data)
            np.add.at(gx, idx, g)
            accum(x, gx)

    record("take_rows", (x,), out, bwd)
    return out


def pick(x: Tensor, cols: np.ndarray) -> Tensor:
    """Per-row gather: out[i] = x[i, cols[i]]."""
    cols = np.asarray(cols, dtype=np.int64)
    if x.data.ndim != 2 or cols.shape != (x.data.shape[0],):
        raise DimensionError(
            f"pick needs (n,c) tensor and (n,) columns, got {x.data.shape} and {cols.shape}"
        )
    if cols.size and (cols.min() < 0 or cols.max() >= x.data.shape[1]):
        raise ContractError(f"column index out of range for {x.data.shape[1]} columns")
    rows = np.arange(x.data.shape[0])
    out = Tensor(x.data[rows, cols], x.requires_grad)

    def bwd(g):
        if x.requires_grad:
            gx = np.zeros_like(x.data)
            np.add.at(gx, (rows, cols), g)
            accum(x, gx)

    record("pick", (x,), out, bwd)
    return out


# ---------------------------------------------------------------------------
# reference chains of the fused nodes


def chain_affine(x, w, b):
    """``w.T @ x + b`` over the pixels of a (k, n) `x`."""
    return add(matmul(transpose(w), x), column(b))


def batch_norm_chain(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Batch norm of a (d, n) tensor as the 9-node chain mean, sub, mul,
    mean, add, sqrt, div, mul, add (plus a `column` node for each of gamma
    and beta that needs a gradient); `tensor.batch_norm` must match it bit
    for bit."""
    m = reduce_mean(x, axis=1, keepdims=True)
    centered = sub(x, m)
    v = reduce_mean(mul(centered, centered), axis=1, keepdims=True)
    denom = sqrt(add(v, eps))
    return add(mul(column(gamma), div(centered, denom)), column(beta))


def info_nce_chain(features, labels, centers, mask, tau, include_positive=True, normalize=False):
    """InfoNCE as a chain of per-op tape nodes (take_rows, the (d, m)
    columns, the logits as ``C @ f``, scale, sub, exp, sum, log, add, pick,
    sub, mean, plus the l2 and keep nodes of the flags); the fused op must
    match it bit for bit."""
    labeled = np.flatnonzero(labels >= 0)
    active = np.flatnonzero(mask)
    # the labeled rows as C-contiguous (d, m) columns, the fused op's layout,
    # so every sum over features or centers below is numpy's axis=0 sum of it
    f = contiguous(transpose(take_rows(features, labeled)))
    sub_centers = centers[active]
    if normalize:
        f = div(f, sqrt(reduce_sum(mul(f, f), axis=0, keepdims=True)))
        sub_centers = sub_centers / np.maximum(np.linalg.norm(sub_centers, axis=1, keepdims=True), 1e-12)
    pos_of = np.full(centers.shape[0], -1, dtype=np.int64)
    pos_of[active] = np.arange(active.size)
    pos = pos_of[labels[labeled]]
    logits = scale(matmul(sub_centers, f), 1.0 / tau)  # (k, m)
    if include_positive:
        shift = logits.data.max(axis=0, keepdims=True)
        z = reduce_sum(exp(sub(logits, shift)), axis=0)
    else:
        keep = np.ones((active.size, labeled.size))
        keep[pos, np.arange(labeled.size)] = 0.0
        shift = np.where(keep > 0, logits.data, -np.inf).max(axis=0, keepdims=True)
        cushion = (1.0 - keep) * (np.maximum(logits.data - shift, 0.0) + 1000.0)
        z = reduce_sum(mul(exp(sub(sub(logits, shift), cushion)), keep), axis=0)
    lse = add(log(z), shift.ravel())
    return reduce_mean(sub(lse, pick(transpose(logits), pos)))


def contrastive_chain(
    f_source, y_source, f_target, y_target, bank, tau=0.07, include_positive=True, normalize=False, term=None
):
    """The four cross-domain InfoNCE terms of two (d, n) feature sets as
    separate nodes joined by `add` nodes, each term made by
    `term(rows, labels, centers, mask)` on the set's (n, d) transpose
    (default: one `losses.info_nce` node); `losses.contrastive_combined`
    must match it bit for bit."""
    if term is None:

        def term(f, labels, centers, mask):
            return info_nce(f, labels, centers, mask, tau, include_positive, normalize)[0]

    total = None
    for f, y in ((f_source, y_source), (f_target, y_target)):
        for centers, mask in ((bank.v_source, bank.init_source), (bank.v_target, bank.init_target)):
            if int(mask.sum()) < (1 if include_positive else 2):
                continue
            y = np.asarray(y, dtype=np.int64)
            keep = y >= 0
            keep[keep] = mask[y[keep]]
            if keep.any():
                t = term(transpose(f), np.where(keep, y, -1), centers, mask)
                total = t if total is None else add(total, t)
    return total if total is not None else Tensor(0.0)


def cross_entropy_chain(pred, labels):
    """CE of probability rows as the per-op chain take_rows, pick, log,
    mean, scale; `losses.cross_entropy` of logits must match it, applied to
    their softmax, within 1e-12 at moderate logits."""
    labeled = np.flatnonzero(labels >= 0)
    return scale(reduce_mean(log(pick(take_rows(pred, labeled), labels[labeled]))), -1.0)


def entropy_chain(pred):
    """Normalized entropy as the per-op chain log, mul, sum, scale, mean;
    `losses.entropy_loss` matches it bit for bit, and
    `losses.entropy_from_logits` of logits, applied to their softmax, within
    1e-12 at moderate logits."""
    c = pred.data.shape[1]
    return reduce_mean(scale(reduce_sum(mul(pred, log(pred)), axis=1), -1.0 / np.log(c)))
