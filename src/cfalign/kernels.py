"""Hot inner-loop kernels: the label-indexed scans behind pseudo-label
assignment, class-center accumulation and confusion counting.

Each is vectorized numpy; ties resolve to the lowest index.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError

__all__ = ["get_backend", "nearest_two", "label_sums", "confusion"]


def get_backend() -> str:
    """Name of the kernel implementation, as benchmark reports print it."""
    return "numpy"


def _f64c(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64)


def _i64c(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.int64)


def nearest_two(features: np.ndarray, centers: np.ndarray):
    """Per row: index of the nearest center plus the two smallest Euclidean
    distances. With a single center the second distance is +inf."""
    features, centers = _f64c(features), _f64c(centers)
    if features.ndim != 2 or centers.ndim != 2 or features.shape[1] != centers.shape[1]:
        raise DimensionError(
            f"nearest_two needs (n,d) and (k,d), got {features.shape} and {centers.shape}"
        )
    if centers.shape[0] == 0:
        raise DimensionError("nearest_two needs at least one center")
    n, k = features.shape[0], centers.shape[0]
    # one center per pass: an (n, k, d) broadcast would cost more than it saves
    dist = np.empty((n, k))
    for c in range(k):
        dist[:, c] = ((features - centers[c]) ** 2).sum(axis=1)
    idx = dist.argmin(axis=1)
    if k == 1:
        dmin, dsec = dist[:, 0], np.full(n, np.inf)
    else:
        two = np.partition(dist, 1, axis=1)
        dmin, dsec = two[:, 0], two[:, 1]
    return idx, np.sqrt(dmin), np.sqrt(dsec)


def label_sums(features: np.ndarray, labels: np.ndarray, num_classes: int):
    """Per-class feature sums and counts; labels below 0 are skipped."""
    features, labels = _f64c(features), _i64c(labels)
    if features.ndim != 2 or labels.shape != (features.shape[0],):
        raise DimensionError(
            f"label_sums needs (n,d) features and (n,) labels, got {features.shape} and {labels.shape}"
        )
    if labels.size and labels.max() >= num_classes:
        raise DimensionError(f"label {labels.max()} out of range for {num_classes} classes")
    d = features.shape[1]
    valid = labels >= 0
    # bin label * d + column; each bin adds its rows in order, as a scatter-add would
    bins = (labels[valid, None] * d + np.arange(d)).ravel()
    sums = np.bincount(bins, weights=features[valid].ravel(), minlength=num_classes * d)
    counts = np.bincount(labels[valid], minlength=num_classes).astype(np.int64)
    return sums.reshape(num_classes, d), counts


def confusion(pred: np.ndarray, truth: np.ndarray, num_classes: int) -> np.ndarray:
    """Count matrix indexed [truth, pred]; both inputs must lie in [0, num_classes)."""
    pred, truth = _i64c(pred), _i64c(truth)
    if pred.shape != truth.shape or pred.ndim != 1:
        raise DimensionError(
            f"confusion needs matching 1-d labels, got {pred.shape} and {truth.shape}"
        )
    for name, a in (("pred", pred), ("truth", truth)):
        if a.size and (a.min() < 0 or a.max() >= num_classes):
            raise DimensionError(f"{name} labels outside [0, {num_classes})")
    flat = truth * num_classes + pred
    return np.bincount(flat, minlength=num_classes * num_classes).reshape(
        num_classes, num_classes
    )
