"""Per-op tape nodes and the reference chains built from them.

Every layer and loss in ``cfalign`` is one tape node with a hand-written
backward. The chains here compute the same thing one generic op at a time,
and the fused nodes are pinned against them bit for bit: the fused backwards
repeat these chains' numpy arithmetic in reverse tape order. Layers and
batch norm run feature-major, on (d, n) tensors, as the package does; the
loss chains take one row per pixel, and `tensor.transpose` joins the two.

log, div and sqrt clamp their arguments by ``EPS`` so a chain never emits
NaN from a boundary value; each guard is noted on the op. The broadcasting
``add`` and ``softmax`` exist only here: the package adds its loss terms in
``losses.total_objective`` and reads probabilities through
``kernels.log_softmax``.
"""

from __future__ import annotations

import numpy as np

from cfalign.errors import ContractError, DimensionError
from cfalign.tensor import EPS, Tensor, accum, record, transpose

# ---------------------------------------------------------------------------
# elementwise and linear ops


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum g down to `shape`, undoing numpy broadcasting."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, extent in enumerate(shape):
        if extent == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def add(a, b) -> Tensor:
    """a + b with numpy broadcasting; the gradient reaching each input is
    summed back down to its shape."""
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor(a.data + b.data, a.requires_grad or b.requires_grad)

    def bwd(g):
        accum(a, _unbroadcast(g, a.data.shape))
        accum(b, _unbroadcast(g, b.data.shape))

    record("add", (a, b), out, bwd)
    return out


def scale(x: Tensor, c: float) -> Tensor:
    """x * c; `losses.total_objective`'s node is pinned against two of
    these under two adds."""
    c = float(c)
    out = Tensor(x.data * c, x.requires_grad)

    def bwd(g):
        accum(x, g * c)

    record("scale", (x,), out, bwd)
    return out


def relu(x: Tensor) -> Tensor:
    """max(x, 0), NaN kept; the subgradient at 0 is taken as 0.
    `tensor.affine(..., relu=True)` and `tensor.batch_norm_relu` are pinned
    against this op after their layer's chain."""
    out = Tensor(np.maximum(x.data, 0.0), x.requires_grad)

    def bwd(g):
        accum(x, g * (x.data > 0))

    record("relu", (x,), out, bwd)
    return out


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


def stack(xs: list[Tensor]) -> Tensor:
    """Scalars or same-shape tensors stacked along a new leading axis."""
    out = Tensor(np.stack([x.data for x in xs]), any(x.requires_grad for x in xs))

    def bwd(g):
        for x, gx in zip(xs, g):
            accum(x, gx)

    record("stack", tuple(xs), out, bwd)
    return out


# ---------------------------------------------------------------------------
# reference chains of the fused nodes


def softmax(x: Tensor) -> Tensor:
    """Softmax over the leading axis, the classes of a (c, n) tensor, as the
    chain sub, exp, sum, div with the column maximum as a constant shift;
    the probabilities the probability-row chains below take, transposed."""
    e = exp(sub(x, x.data.max(axis=0, keepdims=True)))
    return div(e, reduce_sum(e, axis=0, keepdims=True))


def chain_affine(x, w, b):
    """``w.T @ x + b`` over the pixels of a (k, n) `x`."""
    return add(matmul(transpose(w), x), column(b))


def batch_norm_chain(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Batch norm of a (d, n) tensor as the 9-node chain mean, sub, mul,
    mean, add, sqrt, div, mul, add (plus a `column` node for each of gamma
    and beta that needs a gradient); `tensor.batch_norm_relu` must match it,
    followed by `relu`, bit for bit."""
    m = reduce_mean(x, axis=1, keepdims=True)
    centered = sub(x, m)
    v = reduce_mean(mul(centered, centered), axis=1, keepdims=True)
    denom = sqrt(add(v, eps))
    return add(mul(column(gamma), div(centered, denom)), column(beta))


def _stack_terms(rows, labels, mask, tables, tau, include_positive, normalize):
    """The InfoNCE terms of (n, d) `rows` against `tables`, each the (k, d)
    centers that `mask` keeps: one `matmul` node of the stacked tables with
    the labeled rows' (d, m) columns, then per term (when there are several)
    a `take_rows` node of its k products, and the per-op tail."""
    labeled = np.flatnonzero(labels >= 0)
    # C-contiguous columns, the fused op's layout, so every sum over features
    # or centers below is numpy's axis=0 sum of it
    f = contiguous(transpose(take_rows(rows, labeled)))
    centers = np.concatenate(tables)
    if normalize:
        f = div(f, sqrt(reduce_sum(mul(f, f), axis=0, keepdims=True)))
        centers = centers / np.maximum(np.linalg.norm(centers, axis=1, keepdims=True), 1e-12)
    products = matmul(centers, f)
    k, m = centers.shape[0] // len(tables), labeled.size
    pos = (np.cumsum(mask) - 1)[labels[labeled]]  # each label's row among the kept centers
    terms = []
    for j in range(len(tables)):
        term = products if len(tables) == 1 else take_rows(products, np.arange(j * k, (j + 1) * k))
        logits = scale(term, 1.0 / tau)
        if include_positive:
            shift = logits.data.max(axis=0, keepdims=True)
            z = reduce_sum(exp(sub(logits, shift)), axis=0)
        else:
            keep = np.ones((k, m))
            keep[pos, np.arange(m)] = 0.0
            shift = np.where(keep > 0, logits.data, -np.inf).max(axis=0, keepdims=True)
            cushion = (1.0 - keep) * (np.maximum(logits.data - shift, 0.0) + 1000.0)
            z = reduce_sum(mul(exp(sub(sub(logits, shift), cushion)), keep), axis=0)
        lse = add(log(z), shift.ravel())
        terms.append(reduce_mean(sub(lse, pick(transpose(logits), pos))))
    return terms


def info_nce_chain(features, labels, centers, mask, tau, include_positive=True, normalize=False):
    """InfoNCE as a chain of per-op tape nodes (take_rows, the (d, m)
    columns, the logits as ``C @ f``, scale, sub, exp, sum, log, add, pick,
    sub, mean, plus the l2 and keep nodes of the flags); the fused op must
    match it bit for bit."""
    return _stack_terms(features, labels, mask, [centers[mask]], tau, include_positive, normalize)[0]


def contrastive_chain(
    f_source, y_source, f_target, y_target, bank, tau=0.07, include_positive=True, normalize=False
):
    """The cross-domain InfoNCE terms of two (d, n) feature sets, laid out as
    `losses.contrastive_combined` lays them out; it must match this bit for
    bit.

    Per feature set, the tables that agree on their initialized rows form a
    stack of T terms: one `matmul` node of the (T*k, d) stacked centers, and
    per term a `take_rows` node of its k rows and `info_nce_chain`'s tail.
    One `stack` node and a `reduce_sum` add all the terms. The stacks are
    recorded last first, so their gradients reach a feature set in the fused
    node's order.
    """
    needed = 1 if include_positive else 2
    tables = [
        (centers, mask)
        for centers, mask in ((bank.v_source, bank.init_source), (bank.v_target, bank.init_target))
        if int(mask.sum()) >= needed
    ]
    stacks = []  # (features, labels, mask, tables), in the fused node's order
    for f, y in ((f_source, y_source), (f_target, y_target)):
        y = np.asarray(y, dtype=np.int64)
        for i, (centers, mask) in enumerate(tables):
            if i == 0 or not np.array_equal(mask, tables[0][1]):
                keep = y >= 0
                keep[keep] = mask[y[keep]]
                stacks.append((f, np.where(keep, y, -1), mask, []))
            stacks[-1][3].append(centers[mask])
    terms = []
    for f, labels, mask, group in reversed(stacks):
        if (labels >= 0).any():
            terms = _stack_terms(transpose(f), labels, mask, group, tau, include_positive, normalize) + terms
    return reduce_sum(stack(terms)) if terms else Tensor(0.0)


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
