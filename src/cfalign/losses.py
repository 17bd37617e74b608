"""Training objectives: supervised CE, entropy minimization, and class-wise InfoNCE.

All losses return scalar tensors on the active graph. Logits and features
are feature-major, (classes, n) and (d, n), as the model makes them; only
`info_nce` and `entropy_loss` take one row per pixel. Class centers enter as
plain numpy constants so no gradient ever flows into the memory bank, and
pixels labeled ``-1`` are excluded everywhere. InfoNCE is computed through a
max-shifted log-sum-exp, so temperatures as small as 1e-2 stay finite. Each
loss records one tape node with a hand-written backward.

`cross_entropy` and `entropy_from_logits` read the classifier's logits and
work from their log-softmax (`kernels.log_softmax`), so no probability is
clamped and a saturated row keeps its exact loss and gradient. They agree
with softmax followed by the per-op probability chains of
``tests/chain_ops.py`` to within 1e-12 at moderate logits. `entropy_loss`
keeps the probability-row form with its log clamp, and matches its chain bit
for bit.

The fine alignment's four InfoNCE terms (two feature sets against two center
tables) are one node too, and `info_nce` is its one-term case. A feature
set's tables that agree on their initialized rows are stacked into one
table, so one matmul makes their logits and one matmul their feature
gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DimensionError
from .kernels import log_softmax
from .membank import MemoryBank
from .tensor import EPS, Tensor, accum, accum_scratch, add, buffer, record, release, scale, transpose

__all__ = [
    "LossBreakdown",
    "cross_entropy",
    "entropy_loss",
    "entropy_from_logits",
    "info_nce",
    "contrastive_combined",
    "total_objective",
]


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean of ``-log softmax(logits)[labels[i], i]`` over the pixels i of
    the (c, n) logits with labels >= 0.

    It is computed from log-softmax, ``lse(z_i) - z_i[y_i]``, so no
    probability is clamped: logits [0, 40] with label 0 give 40, with
    gradient [-1, 1]. The backward is ``(p - onehot) / m`` on the m labeled
    pixels and 0 on the others.
    """
    labels = np.asarray(labels, dtype=np.int64)
    z = logits.data
    if z.ndim != 2 or labels.shape != (z.shape[1],):
        raise DimensionError(
            f"cross_entropy needs (c,n) logits and (n,) labels, got {z.shape} and {labels.shape}"
        )
    labeled = np.flatnonzero(labels >= 0)
    if labeled.size == 0:
        raise ContractError("cross_entropy needs at least one labeled pixel")
    if labels.max() >= z.shape[0]:
        raise ContractError(f"label {labels.max()} out of range for {z.shape[0]} classes")
    m = labeled.size
    at = labels[labeled] * z.shape[1] + labeled  # flat index of each labeled pixel's label
    logp = buffer(z.shape, logits.requires_grad)
    log_softmax(z, logp)
    loss = Tensor(-logp.reshape(-1)[at].mean(), logits.requires_grad)

    def bwd(g):
        # logp's scratch becomes the gradient
        gz = np.exp(logp, out=logp)
        gz.reshape(-1)[at] -= 1.0
        gz *= g / m
        if m < z.shape[1]:
            gz[:, labels < 0] = 0.0
        accum_scratch(logits, gz)

    record("cross_entropy", (logits,), loss, bwd)
    return loss


def _entropy_classes(x: np.ndarray, name: str, axis: int) -> int:
    """The class count of the 2-d `x`, whose classes lie along `axis`."""
    if x.ndim != 2:
        raise DimensionError(f"{name} needs a 2-d tensor, got shape {x.shape}")
    c = x.shape[axis]
    if c < 2:
        raise ContractError(f"entropy needs at least 2 classes, got {c}")
    return c


def entropy_loss(pred: Tensor) -> Tensor:
    """Shannon entropy of each row of the (n, c) `pred`, normalized by
    log(class count), averaged.

    Lies in [0, 1] for probability rows: 1 at the uniform distribution, 0 at
    a one-hot row (the 0 * log 0 limit is taken as 0 via the log clamp).
    """
    c = _entropy_classes(pred.data, "entropy_loss", 1)
    n = pred.data.shape[0]
    k = float(-1.0 / np.log(c))
    # numpy's axis=1 sum adds the classes of a C-contiguous array pairwise,
    # of a column-major one in turn: made contiguous, every layout sums alike
    p = np.ascontiguousarray(pred.data)
    safe = np.maximum(p, EPS)
    logp = np.log(safe)
    loss = Tensor(((p * logp).sum(axis=1) * k).mean(), pred.requires_grad)

    def bwd(g):
        # mean, scale and row sum, then pred's two uses (the factor of
        # pred * log pred and the clamped log's argument) in the chain's order
        G = np.broadcast_to(np.expand_dims(np.broadcast_to(g, (n,)) / n * k, 1), p.shape)
        accum(pred, G * logp)
        accum(pred, (G * p) / safe)

    record("entropy", (pred,), loss, bwd)
    return loss


def entropy_from_logits(logits: Tensor) -> Tensor:
    """`entropy_loss` of the columns of ``softmax(logits)`` for (c, n)
    logits, computed from log-softmax.

    No log is clamped, so a saturated column such as [0, 800] has entropy 0
    and a finite gradient. With H_i = -sum(p log p) the entropy of pixel i,
    the backward is ``-p * (log p + H_i) / (n log c)``.
    """
    z = logits.data
    c = _entropy_classes(z, "entropy_from_logits", 0)
    n = z.shape[1]
    k = float(-1.0 / np.log(c))
    logp = buffer(z.shape, logits.requires_grad)
    plogp = log_softmax(z, logp, entropy=True)  # -H per pixel
    loss = Tensor((plogp * k).mean(), logits.requires_grad)

    def bwd(g):
        gz = np.exp(logp, out=buffer(z.shape))
        np.subtract(logp, plogp, out=logp)  # log p + H
        gz *= logp
        gz *= g / n * k
        release(logp)
        accum_scratch(logits, gz)

    record("entropy", (logits,), loss, bwd)
    return loss


def _check_tau(tau: float) -> None:
    if tau <= 0:
        raise ContractError(f"temperature must be positive, got {tau}")


def _check_set(x: np.ndarray, labels, centers: np.ndarray, rows: bool = False) -> np.ndarray:
    """`labels` as int64, after the checks every term of one feature set
    needs; `x` is (d, n), or (n, d) with `rows`."""
    labels = np.asarray(labels, dtype=np.int64)
    d_axis = 1 if rows else 0
    if x.ndim != 2 or centers.ndim != 2 or x.shape[d_axis] != centers.shape[1]:
        layout = "(n,d)" if rows else "(d,n)"
        raise DimensionError(
            f"info_nce needs {layout} features and (c,d) centers, got {x.shape} and {centers.shape}"
        )
    n = x.shape[1 - d_axis]
    if labels.shape != (n,):
        raise DimensionError(f"labels must be ({n},), got {labels.shape}")
    if labels.size and labels.max() >= centers.shape[0]:
        raise ContractError(f"label {labels.max()} out of range for {centers.shape[0]} centers")
    return labels


@dataclass
class _Stack:
    """One (d, n) feature set's labeled pixels against the center tables that
    agree on which rows are masked in: one InfoNCE term per table."""

    features: Tensor
    labeled: np.ndarray  # pixels with a label >= 0, ascending
    pos: np.ndarray  # each labeled pixel's label as a position among `active`
    active: np.ndarray  # masked-in center rows
    tables: list[np.ndarray]  # each table's masked-in centers, in the order of their terms

    @classmethod
    def of(cls, features: Tensor, labels: np.ndarray, mask: np.ndarray) -> "_Stack":
        labeled = np.flatnonzero(labels >= 0)
        active = np.flatnonzero(mask)
        pos_of = np.full(mask.size, -1, dtype=np.int64)
        pos_of[active] = np.arange(active.size)
        return cls(features, labeled, pos_of[labels[labeled]], active, [])

    @property
    def cols(self):
        """The labeled pixels as an index: a slice when every pixel is
        labeled, so gathers and scatters over them are plain copies."""
        return slice(None) if self.labeled.size == self.features.data.shape[1] else self.labeled


def _nce(
    stacks: list[_Stack], inputs: tuple[Tensor, ...], tau: float, include_positive: bool, normalize: bool
) -> Tensor:
    """The sum of the InfoNCE terms of `stacks` as one tape node with `inputs`.

    The T tables of a stack share its m pixels and k centers, so they are one
    (T*k, d) table: one matmul makes all T terms' logits, laid out as one
    (T, k, m) array, and one matmul takes the feature gradient of all T.
    """
    c = float(1.0 / tau)
    requires_grad = any(s.features.requires_grad for s in stacks)
    means = []
    saved = []
    for s in stacks:
        m, k, count = s.labeled.size, s.active.size, len(s.tables)
        C = np.concatenate(s.tables)
        x = s.features.data[:, s.cols]
        if normalize:
            # x is column-major after a gather of some pixels or as
            # `info_nce`'s transposed rows, and numpy's axis=0 sum adds the
            # features of such an array pairwise, of a C-contiguous one in
            # turn: made contiguous, every call sums them in turn
            x = np.ascontiguousarray(x)
            x_safe = np.maximum(np.sqrt(np.maximum((x * x).sum(axis=0), 0.0)), EPS)
            f = x / x_safe
            C = C / np.maximum(np.linalg.norm(C, axis=1, keepdims=True), 1e-12)
        else:
            x_safe, f = None, x
        L = np.matmul(C, f).reshape(count, k, m)
        L *= c
        # flat index of each pixel's positive logit, per term
        at = (np.arange(count) * (k * m))[:, None] + (s.pos * m + np.arange(m))
        picked = L.reshape(-1)[at]
        # the reductions run over each pixel's centers: axis 1
        if include_positive:
            keep = None
            shift = L.max(axis=1)  # constant shift: exact for lse
            E = np.exp(np.subtract(L, shift[:, None], out=L), out=L)
            z = E.sum(axis=1)  # >= 1 because the max term contributes exp(0)
        else:
            keep = np.ones((k, m))
            keep[s.pos, np.arange(m)] = 0.0
            # shift by the largest KEPT logit, not the global max: if the
            # positive dominates, the exclusive sum would underflow past the
            # log guard
            shift = np.where(keep > 0, L, -np.inf).max(axis=1)
            np.subtract(L, shift[:, None], out=L)
            # push dropped entries far negative before exp so they cannot
            # overflow; the keep mask then zeroes any rounding residue
            cushion = (1.0 - keep) * (np.maximum(L, 0.0) + 1000.0)
            E = np.exp(L - cushion)
            z = (E * keep).sum(axis=1)  # >= 1: the kept max contributes exp(0)
        z_safe = np.maximum(z, EPS)
        means.append((np.log(z_safe) + shift - picked).mean(axis=1))
        saved.append((s, C, x, x_safe, keep, E, z_safe, at))
    loss = Tensor(np.concatenate(means).sum(), requires_grad)

    def bwd(g):
        # the chain rule of gather, l2-normalise, matmul, scale, shifted exp,
        # column sum, clamped log and mean
        for s, C, x, x_safe, keep, E, z_safe, at in saved:
            if not s.features.requires_grad:
                continue
            gm = np.broadcast_to(g, (s.labeled.size,)) / s.labeled.size
            q = (gm / z_safe)[:, None]
            if keep is not None:
                q = q * keep
            gl = np.multiply(q, E, out=E)
            gl.reshape(-1)[at] -= gm
            gl *= c
            gf = C.T @ gl.reshape(C.shape[0], -1)  # summed over the T terms
            if normalize:
                # through x / norm, the norm's sqrt and column sum, and
                # x * x (x enters twice), in the per-op chain's order
                g_norm = ((-gf * x) / (x_safe * x_safe)).sum(axis=0)
                t = np.broadcast_to(g_norm * 0.5 / x_safe, x.shape) * x
                gf = gf / x_safe + t + t
            gx = buffer(s.features.data.shape)
            if not isinstance(s.cols, slice):
                gx.fill(0.0)
            gx[:, s.cols] = gf
            accum_scratch(s.features, gx)

    record("info_nce", inputs, loss, bwd)
    return loss


def info_nce(
    features: Tensor,
    labels: np.ndarray,
    centers: np.ndarray,
    center_mask: np.ndarray | None = None,
    tau: float = 0.07,
    include_positive: bool = True,
    normalize: bool = False,
) -> tuple[Tensor, int]:
    """Center-based InfoNCE: pull each labeled feature toward its class center.

    `features` holds one row per pixel, (n, d); on a tape it is read through
    a `transpose` node. Per labeled row i with label y: -log softmax over
    masked-in centers of inner-product similarities divided by `tau`,
    evaluated at y. The positive center appears in the denominator by
    default; ``include_positive=False`` restricts the denominator to the
    other centers, which needs at least two masked-in centers and can push
    the loss below zero.

    Returns (mean loss over labeled rows, labeled row count); with no labeled
    row the loss is a constant 0 and the count is the flag.
    """
    _check_tau(tau)
    centers = np.asarray(centers, dtype=np.float64)
    labels = _check_set(features.data, labels, centers, rows=True)
    features = transpose(features)
    if center_mask is None:
        center_mask = np.ones(centers.shape[0], dtype=bool)
    center_mask = np.asarray(center_mask, dtype=bool)
    if center_mask.shape != (centers.shape[0],):
        raise DimensionError(
            f"center mask must be ({centers.shape[0]},), got {center_mask.shape}"
        )
    stack = _Stack.of(features, labels, center_mask)
    if stack.labeled.size == 0:
        return Tensor(0.0), 0
    if not center_mask[labels[stack.labeled]].all():
        raise ContractError("a label points at a masked-out center")
    if not include_positive and stack.active.size < 2:
        raise ContractError("excluding the positive needs at least 2 masked-in centers")
    stack.tables.append(centers[stack.active])
    return _nce([stack], (features,), tau, include_positive, normalize), stack.labeled.size


def contrastive_combined(
    f_source: Tensor,
    y_source: np.ndarray,
    f_target: Tensor,
    y_target: np.ndarray,
    bank: MemoryBank,
    tau: float = 0.07,
    include_positive: bool = True,
    normalize: bool = False,
) -> Tensor:
    """Sum of the four cross-domain InfoNCE terms of two (d, n) feature
    sets, as one tape node.

    Both feature sets are pulled toward both domains' center tables. For each
    term, features whose class row is uninitialized on that side are dropped,
    and a term with no surviving feature (or no initialized center) adds 0.
    """
    _check_tau(tau)
    needed = 2 if not include_positive else 1
    tables = [
        (centers, mask)
        for centers, mask in ((bank.v_source, bank.init_source), (bank.v_target, bank.init_target))
        if int(mask.sum()) >= needed
    ]
    stacks: list[_Stack] = []
    for f, y in ((f_source, y_source), (f_target, y_target)):
        y = _check_set(f.data, y, bank.v_source)
        stack, stack_mask = None, None
        for centers, mask in tables:
            # tables with the same initialized rows share one stack
            if stack is None or not np.array_equal(mask, stack_mask):
                keep = y >= 0
                keep[keep] = mask[y[keep]]
                stack, stack_mask = _Stack.of(f, np.where(keep, y, -1), mask), mask
                if stack.labeled.size:
                    stacks.append(stack)
            stack.tables.append(centers[stack.active])
    if not stacks:
        return Tensor(0.0)
    return _nce(stacks, (f_source, f_target), tau, include_positive, normalize)


@dataclass(frozen=True)
class LossBreakdown:
    """Scalar values of the objective's parts for one iteration."""

    ce: float
    entropy: float
    contra: float
    total: float


def total_objective(
    ce: Tensor, entropy, contra, lambda_ent: float, lambda_contra: float
) -> tuple[Tensor, LossBreakdown]:
    """Weighted total ``ce + lambda_ent * entropy + lambda_contra * contra``.

    The total stays on the graph as a backward root; a disabled term may be
    passed as a plain float.
    """
    if lambda_ent < 0 or lambda_contra < 0:
        raise ContractError(
            f"loss weights must be nonnegative, got {lambda_ent} and {lambda_contra}"
        )
    entropy, contra = (x if isinstance(x, Tensor) else Tensor(float(x)) for x in (entropy, contra))
    total = add(ce, add(scale(entropy, lambda_ent), scale(contra, lambda_contra)))
    parts = LossBreakdown(
        ce=ce.item(),
        entropy=entropy.item(),
        contra=contra.item(),
        total=total.item(),
    )
    return total, parts
