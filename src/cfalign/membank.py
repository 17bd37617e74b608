"""Momentum class centers and distance-gap pseudo-labels.

Each domain keeps one feature centroid per class, blended toward the current
batch mean with momentum ``alpha``; a row stays uninitialized until its class
is first observed and takes that first batch mean verbatim. Unlabeled target
pixels receive the class of their nearest initialized source center only when
the margin to the second-nearest center clears a threshold; everything else
stays ``-1`` and is ignored downstream.

All arrays here are detached numpy values: centers act as constants in every
gradient computation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import kernels
from .errors import ContractError, DimensionError

__all__ = [
    "MemoryBank",
    "PseudoAccuracy",
    "class_centers",
    "update_bank",
    "assign_pseudo_labels",
    "pseudo_label_accuracy",
]


@dataclass
class MemoryBank:
    """Per-class center rows for both domains plus per-row initialized flags."""

    class_count: int
    feature_dim: int
    alpha: float = 0.9
    v_source: np.ndarray = field(default=None)  # type: ignore[assignment]
    v_target: np.ndarray = field(default=None)  # type: ignore[assignment]
    init_source: np.ndarray = field(default=None)  # type: ignore[assignment]
    init_target: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.class_count < 1 or self.feature_dim < 1:
            raise ContractError(
                f"bank needs positive sizes, got {self.class_count} classes, dim {self.feature_dim}"
            )
        if not 0.0 <= self.alpha <= 1.0:
            raise ContractError(f"momentum must lie in [0, 1], got {self.alpha}")
        shape = (self.class_count, self.feature_dim)
        if self.v_source is None:
            self.v_source = np.zeros(shape)
        if self.v_target is None:
            self.v_target = np.zeros(shape)
        if self.init_source is None:
            self.init_source = np.zeros(self.class_count, dtype=bool)
        if self.init_target is None:
            self.init_target = np.zeros(self.class_count, dtype=bool)
        for name, v in (("v_source", self.v_source), ("v_target", self.v_target)):
            if v.shape != shape:
                raise DimensionError(f"{name} must have shape {shape}, got {v.shape}")

    def columns(self, cols: slice) -> "MemoryBank":
        """A bank over columns `cols` of these rows: writes go both ways, flags are shared."""
        v_source, v_target = self.v_source[:, cols], self.v_target[:, cols]
        return replace(self, feature_dim=v_source.shape[1], v_source=v_source, v_target=v_target)

    def rows(self, domain: str) -> tuple[np.ndarray, np.ndarray]:
        if domain == "source":
            return self.v_source, self.init_source
        if domain == "target":
            return self.v_target, self.init_target
        raise ContractError(f"domain must be 'source' or 'target', got {domain!r}")


class PseudoAccuracy(NamedTuple):
    accuracy: float
    assigned: int


def class_centers(
    features: np.ndarray | tuple[np.ndarray, ...], labels: np.ndarray, num_classes: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-class means of the pixels labeled with that class, one row per class.

    `features` is a (d, n) array or a tuple of (d_i, n) blocks whose means
    are joined column-wise, bitwise as for the stacked blocks, without
    copying the blocks together. Classes absent from `labels` get a zero row
    and count 0; labels of -1 are skipped. Pixel order within a class cannot
    affect the result beyond float rounding.
    """
    sums, counts = kernels.label_sums(features, labels, num_classes)
    means = np.zeros_like(sums)
    np.divide(sums, counts[:, None], out=means, where=counts[:, None] > 0)
    return means, counts


def update_bank(
    bank: MemoryBank, means: np.ndarray, counts: np.ndarray, domain: str
) -> None:
    """Fold batch class means into one domain's rows, in place.

    Initialized rows move by ``alpha * V + (1 - alpha) * M``; a row seeing its
    class for the first time takes M exactly. Rows with count 0 are untouched.
    The blend is computed for every row and copied into the seen rows alone,
    so no row is gathered or scattered; `rows` may be a column view.
    """
    rows, init = bank.rows(domain)
    if means.shape != rows.shape:
        raise DimensionError(f"means must have shape {rows.shape}, got {means.shape}")
    if counts.shape != (bank.class_count,):
        raise DimensionError(f"counts must have shape ({bank.class_count},), got {counts.shape}")
    present = counts > 0
    seen = present & init
    fresh = present & ~init
    np.copyto(rows, bank.alpha * rows + (1.0 - bank.alpha) * means, where=seen[:, None])
    np.copyto(rows, means, where=fresh[:, None])
    init |= fresh


def assign_pseudo_labels(
    features: np.ndarray, bank: MemoryBank, threshold: float
) -> np.ndarray:
    """Label each row of the (n, d) `features` with its nearest initialized
    source center, or -1.

    The kernel reads ``features.T``, so the ``.T`` view of a feature-major
    (d, n) array costs no copy. A row is labeled only when the Euclidean
    distance to the second-nearest initialized center exceeds the nearest
    by more than `threshold`; an infinite threshold therefore labels
    nothing. Needs at least two initialized source rows so the margin is
    defined.
    """
    if not threshold >= 0:
        raise ContractError(f"threshold must be nonnegative, got {threshold}")
    active = np.flatnonzero(bank.init_source)
    if active.size < 2:
        raise ContractError(
            f"pseudo-labeling needs at least 2 initialized source centers, have {active.size}"
        )
    if features.ndim != 2 or features.shape[1] != bank.feature_dim:
        raise DimensionError(
            f"features must be (n, {bank.feature_dim}), got {features.shape}"
        )
    idx, dmin, dsec = kernels.nearest_two(features.T, bank.v_source[active])
    labels = np.where(dsec - dmin > threshold, active[idx], -1)
    return labels.astype(np.int64, copy=False)


def pseudo_label_accuracy(pseudo: np.ndarray, truth: np.ndarray) -> PseudoAccuracy:
    """Fraction of assigned (non -1) pseudo-labels that match the truth.

    Returns accuracy 0.0 with ``assigned == 0`` when nothing was assigned.
    Both counts are exact integers, so their quotient has the bits of the
    mean over the gathered matches, without gathering them.
    """
    pseudo = np.asarray(pseudo)
    truth = np.asarray(truth)
    if pseudo.shape != truth.shape:
        raise DimensionError(f"label shapes differ: {pseudo.shape} vs {truth.shape}")
    mask = pseudo >= 0
    assigned = int(np.count_nonzero(mask))
    if assigned == 0:
        return PseudoAccuracy(0.0, 0)
    return PseudoAccuracy(int(np.count_nonzero((pseudo == truth) & mask)) / assigned, assigned)
