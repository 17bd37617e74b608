"""Training objectives: supervised CE, entropy minimization, and class-wise InfoNCE.

All losses return scalar tensors on the active graph. Class centers enter as
plain numpy constants so no gradient ever flows into the memory bank, and
pixels labeled ``-1`` are excluded everywhere. InfoNCE is computed through a
max-shifted log-sum-exp, so temperatures as small as 1e-2 stay finite. Each
loss records one tape node whose backward repeats the rounding of the per-op
chain it replaced; the chains are kept in ``tests/chain_ops.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DimensionError
from .kernels import row_max, row_sum
from .membank import MemoryBank
from .tensor import EPS, Tensor, accum, accum_scratch, add, buffer, record, scale

__all__ = [
    "LossBreakdown",
    "cross_entropy",
    "entropy_loss",
    "info_nce",
    "contrastive_combined",
    "total_objective",
]


def cross_entropy(pred: Tensor, labels: np.ndarray) -> Tensor:
    """Mean of -log pred[i, labels[i]] over rows with labels >= 0.

    `pred` rows are caller-guaranteed probability vectors; the log is clamped
    so a zero probability yields a large finite loss instead of inf.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if pred.data.ndim != 2 or labels.shape != (pred.data.shape[0],):
        raise DimensionError(
            f"cross_entropy needs (n,c) predictions and (n,) labels, got {pred.data.shape} and {labels.shape}"
        )
    labeled = np.flatnonzero(labels >= 0)
    if labeled.size == 0:
        raise ContractError("cross_entropy needs at least one labeled pixel")
    if labels.max() >= pred.data.shape[1]:
        raise ContractError(f"label {labels.max()} out of range for {pred.data.shape[1]} classes")
    cols = labels[labeled]
    m = labeled.size
    safe = np.maximum(pred.data[labeled, cols], EPS)
    loss = Tensor(np.log(safe).mean() * -1.0, pred.requires_grad)

    def bwd(g):
        # gather, clamped log, mean and negation with the per-op chain's
        # rounding; the (row, label) pairs are distinct, so no scatter-add
        gx = buffer(pred.data.shape)
        gx.fill(0.0)
        gx[labeled, cols] = np.broadcast_to(g * -1.0, (m,)) / m / safe
        accum_scratch(pred, gx)

    record("cross_entropy", (pred,), loss, bwd)
    return loss


def entropy_loss(pred: Tensor) -> Tensor:
    """Shannon entropy of each row, normalized by log(class count), averaged.

    Lies in [0, 1] for probability rows: 1 at the uniform distribution, 0 at
    a one-hot row (the 0 * log 0 limit is taken as 0 via the log clamp).
    """
    if pred.data.ndim != 2:
        raise DimensionError(f"entropy_loss needs an (n,c) tensor, got shape {pred.data.shape}")
    c = pred.data.shape[1]
    if c < 2:
        raise ContractError(f"entropy needs at least 2 classes, got {c}")
    n = pred.data.shape[0]
    k = float(-1.0 / np.log(c))
    safe = np.maximum(pred.data, EPS)
    logp = np.log(safe)
    loss = Tensor((row_sum(pred.data * logp) * k).mean(), pred.requires_grad)

    def bwd(g):
        # mean, scale and row sum, then pred's two uses (the factor of
        # pred * log pred and the clamped log's argument) in the chain's order
        G = np.broadcast_to(np.expand_dims(np.broadcast_to(g, (n,)) / n * k, 1), pred.data.shape)
        accum(pred, G * logp)
        accum(pred, (G * pred.data) / safe)

    record("entropy", (pred,), loss, bwd)
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

    Per labeled row i with label y: -log softmax over masked-in centers of
    inner-product similarities divided by `tau`, evaluated at y. The positive
    center appears in the denominator by default; ``include_positive=False``
    restricts the denominator to the other centers, which needs at least two
    masked-in centers and can push the loss below zero.

    Returns (mean loss over labeled rows, labeled row count); with no labeled
    row the loss is a constant 0 and the count is the flag.
    """
    if tau <= 0:
        raise ContractError(f"temperature must be positive, got {tau}")
    labels = np.asarray(labels, dtype=np.int64)
    centers = np.asarray(centers, dtype=np.float64)
    if features.data.ndim != 2 or centers.ndim != 2 or features.data.shape[1] != centers.shape[1]:
        raise DimensionError(
            f"info_nce needs (n,d) features and (c,d) centers, got {features.data.shape} and {centers.shape}"
        )
    if labels.shape != (features.data.shape[0],):
        raise DimensionError(f"labels must be ({features.data.shape[0]},), got {labels.shape}")
    if center_mask is None:
        center_mask = np.ones(centers.shape[0], dtype=bool)
    center_mask = np.asarray(center_mask, dtype=bool)
    if center_mask.shape != (centers.shape[0],):
        raise DimensionError(
            f"center mask must be ({centers.shape[0]},), got {center_mask.shape}"
        )

    labeled = np.flatnonzero(labels >= 0)
    if labeled.size == 0:
        return Tensor(0.0), 0
    if labels.max() >= centers.shape[0]:
        raise ContractError(f"label {labels.max()} out of range for {centers.shape[0]} centers")
    if not center_mask[labels[labeled]].all():
        raise ContractError("a label points at a masked-out center")
    active = np.flatnonzero(center_mask)
    if not include_positive and active.size < 2:
        raise ContractError("excluding the positive needs at least 2 masked-in centers")

    # positions of each label inside the masked-in subset
    pos_of = np.full(centers.shape[0], -1, dtype=np.int64)
    pos_of[active] = np.arange(active.size)
    pos = pos_of[labels[labeled]]
    m = labeled.size
    rows = np.arange(m)
    c = float(1.0 / tau)

    x = features.data[labeled]
    C = centers[active]
    if normalize:
        x_safe = np.maximum(np.sqrt(np.maximum(row_sum(x * x)[:, None], 0.0)), EPS)
        f = x / x_safe
        C = C / np.maximum(np.linalg.norm(C, axis=1, keepdims=True), 1e-12)
    else:
        f = x
    L = (f @ C.T) * c
    if include_positive:
        keep = None
        shift = row_max(L)  # constant shift: exact for lse
        E = np.exp(L - shift[:, None])
        z = row_sum(E)  # >= 1 because the max term contributes exp(0)
    else:
        keep = np.ones((m, active.size))
        keep[rows, pos] = 0.0
        # shift by the largest KEPT logit, not the global max: if the positive
        # dominates, the exclusive sum would underflow past the log guard
        shift = row_max(np.where(keep > 0, L, -np.inf))
        # push dropped entries far negative before exp so they cannot overflow;
        # the keep mask then zeroes any rounding residue
        cushion = (1.0 - keep) * (np.maximum(L - shift[:, None], 0.0) + 1000.0)
        E = np.exp((L - shift[:, None]) - cushion)
        z = row_sum(E * keep)  # >= 1: the kept max contributes exp(0)
    z_safe = np.maximum(z, EPS)
    lse = np.log(z_safe) + shift
    loss = Tensor((lse - L[rows, pos]).mean(), features.requires_grad)

    def bwd(g):
        # the chain rule of gather, l2-normalise, matmul, scale, shifted exp,
        # row sum, clamped log and mean, in the order and with the rounding
        # of the per-op tape
        gm = np.broadcast_to(g, (m,)) / m
        gl = np.broadcast_to((gm / z_safe)[:, None], E.shape)
        if keep is not None:
            gl = gl * keep
        gl = gl * E
        gl[rows, pos] -= gm
        gf = (gl * c) @ C
        if normalize:
            # through x / norm, the norm's sqrt and row sum, and x * x (x enters twice)
            g_norm = row_sum((-gf * x) / (x_safe * x_safe))[:, None]
            t = np.broadcast_to(g_norm * 0.5 / x_safe, x.shape) * x
            gf = gf / x_safe + t + t
        gx = buffer(features.data.shape)
        gx.fill(0.0)
        gx[labeled] = gf
        accum_scratch(features, gx)

    record("info_nce", (features,), loss, bwd)
    return loss, m


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
    """Sum of the four cross-domain InfoNCE terms.

    Both feature sets are pulled toward both domains' center tables. For each
    term, features whose class row is uninitialized on that side are dropped,
    and a term with no surviving feature (or no initialized center) adds 0.
    """
    terms = (
        (f_source, y_source, bank.v_source, bank.init_source),
        (f_source, y_source, bank.v_target, bank.init_target),
        (f_target, y_target, bank.v_source, bank.init_source),
        (f_target, y_target, bank.v_target, bank.init_target),
    )
    total: Tensor | None = None
    for f, y, centers, mask in terms:
        needed = 2 if not include_positive else 1
        if int(mask.sum()) < needed:
            continue
        y = np.asarray(y, dtype=np.int64)
        keep = y >= 0
        keep[keep] = mask[y[keep]]
        term, count = info_nce(
            f,
            np.where(keep, y, -1),
            centers,
            mask,
            tau=tau,
            include_positive=include_positive,
            normalize=normalize,
        )
        if count:
            total = term if total is None else add(total, term)
    return total if total is not None else Tensor(0.0)


@dataclass(frozen=True)
class LossBreakdown:
    """Scalar values of the objective's parts for one iteration."""

    ce: float
    entropy: float
    contra: float
    total: float
    lambda_ent: float
    lambda_contra: float


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
        lambda_ent=lambda_ent,
        lambda_contra=lambda_contra,
    )
    return total, parts
