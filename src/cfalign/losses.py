"""Training objectives: supervised CE, entropy minimization, and class-wise InfoNCE.

All losses return scalar tensors on the active graph. Class centers enter as
plain numpy constants so no gradient ever flows into the memory bank, and
pixels labeled ``-1`` are excluded everywhere. InfoNCE is computed through a
max-shifted log-sum-exp, so temperatures as small as 1e-2 stay finite. Each
loss records one tape node with a hand-written backward.

`cross_entropy` and `entropy_from_logits` read the classifier's logits and
work from their log-softmax (`kernels.log_softmax`), so no probability is
clamped and a saturated row keeps its exact loss and gradient. They agree
with softmax followed by the per-op probability chains of
``tests/chain_ops.py`` to within 1e-12 at moderate logits. `entropy_loss`
keeps the probability-row form with its log clamp, and its backward and
InfoNCE's repeat the rounding of the per-op chains they replaced.

The fine alignment's four InfoNCE terms (two feature sets against two center
tables) are one node too, and `info_nce` is its one-term case. The bits of
each term are those of a separate `info_nce` node, and the sum and gradients
those of the four nodes joined by `add` nodes (``tests/chain_ops.py``'s
``contrastive_chain``), because:

- each table gets its own ``x @ C.T``, as before. One matmul over both
  tables stacked rounds apart where BLAS takes its gemv path (one row, or a
  table with one masked-in center) and at wider features (ROADMAP item 7);
- everything after the matmuls is elementwise, reduces one row of logits
  (max, pairwise sum) or averages one term's rows, so laying two terms'
  logits side by side changes no operand and no order;
- the terms are summed ``((t1 + t2) + t3) + t4`` as the add nodes did, and a
  feature set's gradients reach it in reverse tape order. (The add nodes
  also passed each term ``g + 0.0`` instead of ``g``. That changes only a
  -0.0, and a zero upstream gradient leaves the feature gradients the same
  either way, because `accum` adds 0.0 on the first store.)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DimensionError
from .kernels import _max_scan, _row_sums, log_softmax, row_sum
from .membank import MemoryBank
from .tensor import EPS, Tensor, accum, accum_scratch, add, buffer, record, release, scale

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
    """Mean of ``-log softmax(logits)[i, labels[i]]`` over rows with labels >= 0.

    It is computed from log-softmax, ``lse(z_i) - z_i[y_i]``, so no
    probability is clamped: logits [0, 40] with label 0 give 40, with
    gradient [-1, 1]. The backward is ``(p - onehot) / m`` on the m labeled
    rows and 0 on the others.
    """
    labels = np.asarray(labels, dtype=np.int64)
    z = logits.data
    if z.ndim != 2 or labels.shape != (z.shape[0],):
        raise DimensionError(
            f"cross_entropy needs (n,c) logits and (n,) labels, got {z.shape} and {labels.shape}"
        )
    labeled = np.flatnonzero(labels >= 0)
    if labeled.size == 0:
        raise ContractError("cross_entropy needs at least one labeled pixel")
    if labels.max() >= z.shape[1]:
        raise ContractError(f"label {labels.max()} out of range for {z.shape[1]} classes")
    m = labeled.size
    at = labeled * z.shape[1] + labels[labeled]  # flat index of each labeled row's label
    logp = buffer(z.shape, logits.requires_grad)
    log_softmax(z, logp)
    loss = Tensor(-logp.reshape(-1)[at].mean(), logits.requires_grad)

    def bwd(g):
        # logp's scratch becomes the gradient
        gz = np.exp(logp, out=logp)
        gz.reshape(-1)[at] -= 1.0
        gz *= g / m
        if m < z.shape[0]:
            gz[labels < 0] = 0.0
        accum_scratch(logits, gz)

    record("cross_entropy", (logits,), loss, bwd)
    return loss


def _check_entropy_rows(x: np.ndarray, name: str) -> None:
    if x.ndim != 2:
        raise DimensionError(f"{name} needs an (n,c) tensor, got shape {x.shape}")
    if x.shape[1] < 2:
        raise ContractError(f"entropy needs at least 2 classes, got {x.shape[1]}")


def entropy_loss(pred: Tensor) -> Tensor:
    """Shannon entropy of each row, normalized by log(class count), averaged.

    Lies in [0, 1] for probability rows: 1 at the uniform distribution, 0 at
    a one-hot row (the 0 * log 0 limit is taken as 0 via the log clamp).
    """
    _check_entropy_rows(pred.data, "entropy_loss")
    n, c = pred.data.shape
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


def entropy_from_logits(logits: Tensor) -> Tensor:
    """`entropy_loss` of ``softmax(logits)``, computed from log-softmax.

    No log is clamped, so a saturated row such as [0, 800] has entropy 0 and
    a finite gradient. With H_i = -sum(p log p) the entropy of row i, the
    backward is ``-p * (log p + H_i) / (n log c)``.
    """
    z = logits.data
    _check_entropy_rows(z, "entropy_from_logits")
    n, c = z.shape
    k = float(-1.0 / np.log(c))
    logp = buffer(z.shape, logits.requires_grad)
    plogp = log_softmax(z, logp, entropy=True)  # -H per row
    loss = Tensor((plogp * k).mean(), logits.requires_grad)

    def bwd(g):
        gz = np.exp(logp, out=buffer(z.shape))
        np.subtract(logp, plogp[:, None], out=logp)  # log p + H
        gz *= logp
        gz *= g / n * k
        release(logp)
        accum_scratch(logits, gz)

    record("entropy", (logits,), loss, bwd)
    return loss


def _check_tau(tau: float) -> None:
    if tau <= 0:
        raise ContractError(f"temperature must be positive, got {tau}")


def _check_set(features: Tensor, labels, centers: np.ndarray) -> np.ndarray:
    """`labels` as int64, after the checks every term of one feature set needs."""
    labels = np.asarray(labels, dtype=np.int64)
    if features.data.ndim != 2 or centers.ndim != 2 or features.data.shape[1] != centers.shape[1]:
        raise DimensionError(
            f"info_nce needs (n,d) features and (c,d) centers, got {features.data.shape} and {centers.shape}"
        )
    if labels.shape != (features.data.shape[0],):
        raise DimensionError(f"labels must be ({features.data.shape[0]},), got {labels.shape}")
    if labels.size and labels.max() >= centers.shape[0]:
        raise ContractError(f"label {labels.max()} out of range for {centers.shape[0]} centers")
    return labels


@dataclass
class _Stack:
    """One feature set's labeled rows against the center tables that agree
    on which rows are masked in: one InfoNCE term per table."""

    features: Tensor
    labeled: np.ndarray  # rows with a label >= 0, ascending
    pos: np.ndarray  # each labeled row's label as a position among `active`
    active: np.ndarray  # masked-in center rows
    tables: list[np.ndarray]  # each table's masked-in centers, in tape order

    @classmethod
    def of(cls, features: Tensor, labels: np.ndarray, mask: np.ndarray) -> "_Stack":
        labeled = np.flatnonzero(labels >= 0)
        active = np.flatnonzero(mask)
        pos_of = np.full(mask.size, -1, dtype=np.int64)
        pos_of[active] = np.arange(active.size)
        return cls(features, labeled, pos_of[labels[labeled]], active, [])

    @property
    def rows(self):
        """The labeled rows as an index: a slice when every row is labeled,
        so gathers and scatters over them are plain copies."""
        return slice(None) if self.labeled.size == self.features.data.shape[0] else self.labeled


def _accum_rows(t: Tensor, rows, gfs: list[np.ndarray]) -> None:
    """Add each term's gradient in `gfs` (reverse tape order) into `rows` of
    t.grad, bitwise as the per-term nodes did by accumulating a zero array
    holding it at those rows.

    On the first store the terms are added first: ``(a + 0.0) + b`` and
    ``(a + b) + 0.0`` are equal bit for bit. After it, t.grad holds no -0.0
    (accum adds 0.0), so the other rows' ``+ 0.0`` changes nothing and only
    `rows` are added to, one term after another.
    """
    if t.grad is not None:
        for gf in gfs:
            t.grad[rows] += gf
        return
    gf = gfs[0]
    for later in gfs[1:]:
        gf = gf + later
    gx = buffer(t.data.shape)
    if not isinstance(rows, slice):
        gx.fill(0.0)
    gx[rows] = gf
    accum_scratch(t, gx)


def _nce(
    stacks: list[_Stack], inputs: tuple[Tensor, ...], tau: float, include_positive: bool, normalize: bool
) -> Tensor:
    """The sum of the InfoNCE terms of `stacks`, folded in order, as one tape
    node with `inputs`.

    The T tables of a stack share its m rows and k centers. Their logits are
    laid out as one column-major (k, T, m) array, so every step after the
    matmuls is one numpy call over all T terms. Each step is elementwise, or
    reduces one column, exactly as the one-term form did, so every term's
    loss and gradient keep their bits (module docstring).
    """
    c = float(1.0 / tau)
    requires_grad = any(s.features.requires_grad for s in stacks)
    terms: list[np.float64] = []
    saved = []
    for s in stacks:
        tables = s.tables
        m, k, count = s.labeled.size, s.active.size, len(tables)
        x = s.features.data[s.rows]
        if normalize:
            x_safe = np.maximum(np.sqrt(np.maximum(row_sum(x * x)[:, None], 0.0)), EPS)
            f = x / x_safe
            tables = [C / np.maximum(np.linalg.norm(C, axis=1, keepdims=True), 1e-12) for C in tables]
        else:
            x_safe, f = None, x
        # one matmul per table, as the one-term form made it, then one scaled
        # transposing copy: L[:, j, i] is row i of (f @ C_j.T) * c
        products = np.empty((count, m, k))
        for j, C in enumerate(tables):
            np.matmul(f, C.T, out=products[j])
        L = np.multiply(products.transpose(2, 0, 1), c, out=np.empty((k, count, m)))
        # flat index of each row's positive logit, per term
        at = (s.pos * (count * m) + np.arange(m)) + (np.arange(count) * m)[:, None]
        picked = L.reshape(-1)[at]
        shift = np.empty((count, m))
        if include_positive:
            keep = None
            _max_scan(L, shift)  # constant shift: exact for lse
            E = np.exp(np.subtract(L, shift, out=L), out=L)
            z = _row_sums(E)  # >= 1 because the max term contributes exp(0)
        else:
            keep = np.ones((k, 1, m))
            keep[s.pos, 0, np.arange(m)] = 0.0
            # shift by the largest KEPT logit, not the global max: if the
            # positive dominates, the exclusive sum would underflow past the
            # log guard
            _max_scan(np.where(keep > 0, L, -np.inf), shift)
            np.subtract(L, shift, out=L)
            # push dropped entries far negative before exp so they cannot
            # overflow; the keep mask then zeroes any rounding residue
            cushion = (1.0 - keep) * (np.maximum(L, 0.0) + 1000.0)
            E = np.exp(L - cushion)
            z = _row_sums(E * keep)  # >= 1: the kept max contributes exp(0)
        z_safe = np.maximum(z, EPS)
        lse = np.log(z_safe) + shift
        terms.extend((lse[j] - picked[j]).mean() for j in range(count))
        saved.append((s, tables, x, x_safe, keep, E, z_safe, at, products))
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    loss = Tensor(total, requires_grad)

    def bwd(g):
        # the chain rule of gather, l2-normalise, matmul, scale, shifted exp,
        # row sum, clamped log and mean, with the per-op tape's rounding, and
        # the terms in reverse tape order
        for s, tables, x, x_safe, keep, E, z_safe, at, gl_rows in reversed(saved):
            if not s.features.requires_grad:
                continue
            gm = np.broadcast_to(g, (s.labeled.size,)) / s.labeled.size
            q = gm / z_safe
            if keep is not None:
                q = q * keep
            gl = np.multiply(q, E, out=E)
            gl.reshape(-1)[at] -= gm
            # each term's (gl * c) as a C-contiguous (m, k) array, as the
            # one-term form multiplied it
            np.multiply(gl.transpose(1, 2, 0), c, out=gl_rows)
            gfs = []
            for j in reversed(range(len(tables))):
                gf = gl_rows[j] @ tables[j]
                if normalize:
                    # through x / norm, the norm's sqrt and row sum, and x * x
                    # (x enters twice)
                    g_norm = row_sum((-gf * x) / (x_safe * x_safe))[:, None]
                    t = np.broadcast_to(g_norm * 0.5 / x_safe, x.shape) * x
                    gf = gf / x_safe + t + t
                gfs.append(gf)
            _accum_rows(s.features, s.rows, gfs)

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

    Per labeled row i with label y: -log softmax over masked-in centers of
    inner-product similarities divided by `tau`, evaluated at y. The positive
    center appears in the denominator by default; ``include_positive=False``
    restricts the denominator to the other centers, which needs at least two
    masked-in centers and can push the loss below zero.

    Returns (mean loss over labeled rows, labeled row count); with no labeled
    row the loss is a constant 0 and the count is the flag.
    """
    _check_tau(tau)
    centers = np.asarray(centers, dtype=np.float64)
    labels = _check_set(features, labels, centers)
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
    """Sum of the four cross-domain InfoNCE terms, as one tape node.

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
        y = _check_set(f, y, bank.v_source)
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
