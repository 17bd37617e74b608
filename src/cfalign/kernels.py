"""Hot inner-loop kernels: the label-indexed scans behind pseudo-label
assignment, class-center accumulation and confusion counting.

Each is vectorized numpy; ties resolve to the lowest index.

`nearest_two` works on a column-major copy of its rows: features are
transposed once to a contiguous (d, n) array and walked in blocks of
`_BLOCK` rows, so each arithmetic step is one numpy call over a whole block
instead of one reduction call per d-wide row. `_row_sums` adds the d squared
differences in the order numpy's pairwise sum adds a length-d row, which
makes every distance bitwise equal to ``((f - c) ** 2).sum(axis=1)``;
`tests/test_kernels.py::TestRowSums` is the alarm if a numpy release changes
that order. Inputs must be finite: a NaN row gets an unspecified index.
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


# rows per block: a (d, _BLOCK) float64 scratch array stays cache-resident at
# the feature widths the trainer uses
_BLOCK = 4096


def _row_sums(x: np.ndarray) -> np.ndarray:
    """Sums of the d rows of a (d, m) array, added in numpy's pairwise order.

    Column j of the result is bitwise ``x[:, j].sum()``: sequential below 8
    rows, eight stride-8 accumulators folded as a tree up to 128 rows, and
    above that a split at half (rounded down to a multiple of 8) with both
    halves summed the same way.
    """
    d = x.shape[0]
    if d < 8:
        s = np.zeros(x.shape[1:])
        for j in range(d):
            s += x[j]
        return s
    if d <= 128:
        body = d - d % 8
        r = x[:8]
        for i in range(8, body, 8):
            r = r + x[i : i + 8]
        r = r[0::2] + r[1::2]  # (r0+r1), (r2+r3), (r4+r5), (r6+r7)
        r = r[0::2] + r[1::2]
        s = r[0] + r[1]
        for j in range(body, d):
            s += x[j]
        return s
    half = d // 2
    half -= half % 8
    return _row_sums(x[:half]) + _row_sums(x[half:])


def nearest_two(features: np.ndarray, centers: np.ndarray):
    """Per row: index of the nearest center plus the two smallest Euclidean
    distances. With a single center the second distance is +inf."""
    features, centers = np.asarray(features), _f64c(centers)
    if features.ndim != 2 or centers.ndim != 2 or features.shape[1] != centers.shape[1]:
        raise DimensionError(
            f"nearest_two needs (n,d) and (k,d), got {features.shape} and {centers.shape}"
        )
    if centers.shape[0] == 0:
        raise DimensionError("nearest_two needs at least one center")
    (n, d), k = features.shape, centers.shape[0]
    cols = np.ascontiguousarray(features.T, dtype=np.float64)
    idx = np.zeros(n, dtype=np.intp)
    dmin = np.empty(n)
    dsec = np.full(n, np.inf)
    scratch = np.empty((d, min(n, _BLOCK)))
    for lo in range(0, n, _BLOCK):
        hi = min(lo + _BLOCK, n)
        sq = scratch[:, : hi - lo]
        bidx, bmin, bsec = idx[lo:hi], dmin[lo:hi], dsec[lo:hi]
        for c in range(k):
            np.subtract(cols[:, lo:hi], centers[c, :, None], out=sq)
            np.multiply(sq, sq, out=sq)
            dist = _row_sums(sq)
            if c == 0:
                bmin[:] = dist
                continue
            # strict < keeps the lowest index on ties; the second smallest of
            # {bmin, bsec, dist} is min(bsec, max(bmin, dist)), duplicates included
            np.putmask(bidx, dist < bmin, c)
            np.minimum(bsec, np.maximum(bmin, dist), out=bsec)
            np.minimum(bmin, dist, out=bmin)
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
