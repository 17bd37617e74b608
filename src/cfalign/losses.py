"""Training objectives: supervised CE, entropy minimization, and class-wise InfoNCE.

All losses return scalar tensors on the active graph. Logits and features
are feature-major, (classes, n) and (d, n), as the model makes them; only
`info_nce` and `entropy_loss` take one row per pixel. Class centers enter as
plain numpy constants so no gradient ever flows into the memory bank, and
pixels labeled ``-1`` are excluded everywhere. InfoNCE is computed through a
max-shifted log-sum-exp, so temperatures as small as 1e-2 stay finite; a
positive left out of the denominator enters it as the logit -inf, which adds
exactly 0 however far it leads. Each loss records one tape node with a
hand-written backward.

`cross_entropy` and `entropy_from_logits` read the classifier's logits and
work from their log-softmax (`kernels.log_softmax`), so no probability is
clamped and a saturated row keeps its exact loss and gradient. They agree
with softmax followed by the per-op probability chains of
``tests/chain_ops.py`` to within 1e-12 at moderate logits. `entropy_loss`
keeps the probability-row form with its log clamp, and matches its chain bit
for bit.

The fine alignment's four InfoNCE terms (two feature sets against two center
tables) are one node too, and `info_nce` is its one-term case. Tables that
agree on their initialized rows are stacked into one table, built once for
both feature sets, so one matmul makes a feature set's logits against all
of them and one matmul its feature gradient.

`total_objective` joins the three terms as one more node, evaluated as
``ce + (lambda_ent * entropy + lambda_contra * contra)``; it matches two
scales under two adds bit for bit, in value and gradients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DimensionError
from .kernels import log_softmax
from .membank import MemoryBank
from .tensor import EPS, Tensor, accum, accum_scratch, buffer, record, transpose

__all__ = [
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
    logp = buffer(z.shape)
    log_softmax(z, logp, buffer(z.shape))
    loss = Tensor(-logp.reshape(-1)[at].mean(), logits.requires_grad)

    def bwd(g):
        gz = np.exp(logp, out=logp)
        gz.reshape(-1)[at] -= 1.0
        gz *= g / m
        if m < z.shape[1]:
            gz[:, labels < 0] = 0.0
        accum_scratch(logits, gz)

    record("cross_entropy", (logits,), loss, bwd)
    return loss


def _entropy_classes(x: np.ndarray, name: str, axis: int) -> int:
    """The class count of the 2-d `x`, whose classes lie along `axis` and
    pixels along the other; the mean over no pixels is not a loss."""
    if x.ndim != 2:
        raise DimensionError(f"{name} needs a 2-d tensor, got shape {x.shape}")
    c = x.shape[axis]
    if c < 2:
        raise ContractError(f"entropy needs at least 2 classes, got {c}")
    if x.shape[1 - axis] == 0:
        raise ContractError(f"{name} needs at least one pixel, got shape {x.shape}")
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
    logp, e = buffer(z.shape), buffer(z.shape)
    s = log_softmax(z, logp, e)
    # -H per pixel: sum(p * log p) = sum(exp(z - max) * log p) / s
    plogp = np.multiply(e, logp, out=e).sum(axis=0) / s
    loss = Tensor((plogp * k).mean(), logits.requires_grad)

    def bwd(g):
        gz = np.exp(logp, out=e)
        np.subtract(logp, plogp, out=logp)  # log p + H
        gz *= logp
        gz *= g / n * k
        accum_scratch(logits, gz)

    record("entropy", (logits,), loss, bwd)
    return loss


def _check_tau(tau: float) -> None:
    if not 0 < tau < np.inf:
        raise ContractError(f"temperature must be a finite number above 0, got {tau}")


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
    # the labeled pixels, ascending; a slice when every pixel is labeled, so
    # the gather is a plain copy and the backward writes the feature
    # gradient in place, with no scatter
    cols: np.ndarray | slice
    m: int  # labeled pixels
    at: np.ndarray  # each term's positive logits, as a (T, m) flat index into the (T, k, m) logits
    C: np.ndarray  # the T tables' masked-in rows, stacked: (T*k, d)

    @classmethod
    def of(cls, features: Tensor, labels: np.ndarray, keep: np.ndarray, tables: "_Tables") -> "_Stack | None":
        """The pixels of `keep` against `tables`, or None when `keep` holds none."""
        labeled = keep.nonzero()[0]
        m = labeled.size
        if m == 0:
            return None
        k = tables.C.shape[0] // tables.count
        # term t's logit of pixel j at its label's row i lies at t*k*m + i*m + j
        at = (tables.pos_of[labels[labeled]] * m + np.arange(m)) + np.arange(0, tables.count * k * m, k * m)[:, None]
        return cls(features, slice(None) if m == keep.size else labeled, m, at, tables.C)


@dataclass
class _Tables:
    """Center tables with the same masked-in rows, stacked once for every
    feature set that reads them."""

    mask: np.ndarray
    pos_of: np.ndarray  # each masked-in row's position among them
    C: np.ndarray  # the tables' masked-in rows, stacked: (T*k, d)
    count: int  # T

    @classmethod
    def of(cls, mask: np.ndarray, tables: list[np.ndarray]) -> "_Tables":
        return cls(mask, mask.cumsum() - 1, np.concatenate([t[mask] for t in tables]), len(tables))


def _nce(
    stacks: list[_Stack], inputs: tuple[Tensor, ...], tau: float, include_positive: bool, normalize: bool
) -> Tensor:
    """The sum of the InfoNCE terms of `stacks` as one tape node with `inputs`.

    The T tables of a stack share its m pixels and k centers, so they are one
    (T*k, d) table: one matmul makes all T terms' logits, laid out as one
    (T, k, m) array, and one matmul takes the feature gradient of all T.
    The reductions are the ufunc reductions numpy's `max`, `sum` and
    `mean` run, called directly.
    """
    c = float(1.0 / tau)
    requires_grad = any([s.features.requires_grad for s in stacks])
    means = []
    saved = []
    for s in stacks:
        m, C = s.m, s.C
        x = s.features.data[:, s.cols]
        if normalize:
            # x is column-major after a gather of some pixels or as
            # `info_nce`'s transposed rows, and numpy's axis=0 sum adds the
            # features of such an array pairwise, of a C-contiguous one in
            # turn: made contiguous, every call sums them in turn
            x = np.ascontiguousarray(x)
            x_safe = np.maximum(np.sqrt((x * x).sum(axis=0)), EPS)
            f = x / x_safe
            C = C / np.maximum(np.linalg.norm(C, axis=1, keepdims=True), 1e-12)
        else:
            x_safe, f = None, x
        L = np.matmul(C, f).reshape(s.at.shape[0], -1, m)
        L *= c
        picked = L.reshape(-1)[s.at]
        if not include_positive:  # exp(-inf) = 0, and the shift is the largest other logit
            L.reshape(-1)[s.at] = -np.inf
        # the reductions run over each pixel's centers: axis 1
        shift = np.maximum.reduce(L, axis=1)  # constant shift: exact for lse
        E = np.exp(np.subtract(L, shift[:, None], out=L), out=L)
        z = np.add.reduce(E, axis=1)  # >= 1 because the max term contributes exp(0)
        means.append(np.add.reduce(np.log(z) + shift - picked, axis=1) / m)
        saved.append((s, C, x, x_safe, E, z))
    loss = Tensor(np.concatenate(means).sum(), requires_grad)

    def bwd(g):
        # the chain rule of gather, l2-normalise, matmul, scale, shifted exp,
        # column sum, log and mean; an excluded positive's E is 0, so its
        # logit's gradient is the pick's alone
        for s, C, x, x_safe, E, z in saved:
            if not s.features.requires_grad:
                continue
            gm = g / s.m
            gl = np.multiply((gm / z)[:, None], E, out=E)
            gl.reshape(-1)[s.at] -= gm
            gl *= c
            gx = buffer(s.features.data.shape)
            every = isinstance(s.cols, slice)
            # summed over the T terms, straight into gx when every pixel is labeled
            gf = np.matmul(C.T, gl.reshape(C.shape[0], -1), out=gx if every else None)
            if normalize:
                # through x / norm, the norm's sqrt and column sum, and
                # x * x (x enters twice), in the per-op chain's order
                g_norm = ((-gf * x) / (x_safe * x_safe)).sum(axis=0)
                t = np.broadcast_to(g_norm * 0.5 / x_safe, x.shape) * x
                gf /= x_safe
                gf += t
                gf += t
            if not every:
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
    other centers by giving the positive a logit of -inf there. That needs
    at least two masked-in centers and can push the loss below zero.

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
    keep = labels >= 0
    stack = _Stack.of(features, labels, keep, _Tables.of(center_mask, [centers]))
    if stack is None:
        return Tensor(0.0), 0
    if not center_mask[labels[keep]].all():
        raise ContractError("a label points at a masked-out center")
    if not include_positive and stack.C.shape[0] < 2:
        raise ContractError("excluding the positive needs at least 2 masked-in centers")
    return _nce([stack], (features,), tau, include_positive, normalize), stack.m


def contrastive_combined(
    f_source: Tensor,
    y_source: np.ndarray,
    f_target: Tensor,
    y_target: np.ndarray,
    bank: MemoryBank,
    tau: float = 0.07,
) -> Tensor:
    """Sum of the four cross-domain InfoNCE terms of two (d, n) feature
    sets, as one tape node.

    Both feature sets are pulled toward both domains' center tables. Each
    term reads the raw features and keeps the positive center in its
    denominator. For each term, features whose class row is uninitialized
    on that side are dropped, and a term with no surviving feature (or no
    initialized center) adds 0.
    """
    _check_tau(tau)
    groups: list[tuple[np.ndarray, list[np.ndarray]]] = []
    for centers, mask in ((bank.v_source, bank.init_source), (bank.v_target, bank.init_target)):
        if not mask.any():
            continue
        # tables with the same initialized rows share one stack
        if groups and (mask == groups[-1][0]).all():
            groups[-1][1].append(centers)
        else:
            groups.append((mask, [centers]))
    tables = [_Tables.of(mask, centers) for mask, centers in groups]
    stacks: list[_Stack] = []
    for f, y in ((f_source, y_source), (f_target, y_target)):
        y = _check_set(f.data, y, bank.v_source)
        labeled = y >= 0
        for t in tables:
            # a -1 label reads row 0 of the mask and is dropped by `labeled`
            stack = _Stack.of(f, y, labeled & t.mask.take(y, mode="clip"), t)
            if stack is not None:
                stacks.append(stack)
    if not stacks:
        return Tensor(0.0)
    return _nce(stacks, (f_source, f_target), tau, include_positive=True, normalize=False)


def total_objective(
    ce: Tensor, entropy: Tensor, contra: Tensor, lambda_ent: float, lambda_contra: float
) -> Tensor:
    """Weighted total ``ce + (lambda_ent * entropy + lambda_contra * contra)``,
    evaluated in that order, as one tape node and a backward root. A
    disabled term is passed as ``Tensor(0.0)``.

    The backward hands `g` to ce and ``g * lambda`` to each weighted term:
    one accumulation per input, as the chain of two adds and two scales
    makes.
    """
    if not (0 <= lambda_ent < np.inf and 0 <= lambda_contra < np.inf):
        raise ContractError(
            f"loss weights must be finite and nonnegative, got {lambda_ent} and {lambda_contra}"
        )
    le, lc = float(lambda_ent), float(lambda_contra)
    requires_grad = ce.requires_grad or entropy.requires_grad or contra.requires_grad
    out = Tensor(ce.data + (entropy.data * le + contra.data * lc), requires_grad)

    def bwd(g):
        accum(ce, g)
        accum(entropy, g * le)
        accum(contra, g * lc)

    record("objective", (ce, entropy, contra), out, bwd)
    return out
