"""Hot inner-loop kernels: the per-pixel reductions, the argmax behind
predicted labels, the nearest-center scan behind pseudo-label assignment,
class-center accumulation and confusion counting.

Per-pixel arrays are feature-major: a (k, n) array holds one column per
pixel and one row per class, center or feature dimension, so k is small and
n is large. A reduction over the k rows is one numpy call that walks whole
contiguous rows, never one inner-loop call per pixel.

`log_softmax` is ``z - m - log(exp(z - m).sum(axis=0))`` with m the column
maximum, and `nearest_two`'s distances are ``((f - c[:, None]) ** 2).sum(axis=0)``
for each center c: numpy's own reductions over the leading axis.
`nearest_two` takes those sums one center at a time, in one reused (d, n)
buffer, and scans each center's row as soon as it is made.
`nearest_two` resolves ties to the lowest index, as ``argmin`` does.
Inputs must be free of NaN: a NaN column gets an unspecified result.

`argmax` labels each column with the index of its largest entry by the
same kind of scan over the k rows, the lowest index on ties, and gives
``z.argmax(axis=0)`` for every input: ±0.0 compare equal, and a column
holding NaN takes its first NaN's index, which numpy's own argmax finds on
just those columns. numpy's ``argmax(axis=0)`` of a C-contiguous (k, n)
array instead walks each k-long column with stride n. On a 2-core x86
host, at (5, 8,192), an evaluation block of logits, the scan takes 40–60 µs
where numpy takes 250–350 µs. At (5, 1,024), one 32 x 32 image, it is up
to 10% slower than numpy (about 33 against 31 µs); no package path labels
a single image.

`label_sums` adds each class's pixels in pixel order, as ``np.add.at``
does: one ``np.bincount`` per feature row, with labels below 0 mapped to
an extra bin that is dropped, so skipped pixels need no gather.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError

__all__ = [
    "get_backend",
    "log_softmax",
    "argmax",
    "nearest_two",
    "label_sums",
    "confusion",
]


def get_backend() -> str:
    """Name of the kernel implementation, as benchmark reports print it."""
    return "numpy"


def _f64c(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64)


def _i64c(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.int64)


def log_softmax(z: np.ndarray, out: np.ndarray, scratch: np.ndarray, entropy: bool = False) -> np.ndarray | None:
    """Write the log-softmax columns of the (k, n) logits `z`, k >= 1, into
    the (k, n) array `out`: ``z - max - log(sum(exp(z - max)))`` per column.
    The shifted exponentials go into the (k, n) array `scratch`, whose
    contents are undefined afterwards. With `entropy`, also return each
    column's ``sum(p * log p)``.

    The shifted exponentials are at most 1 and their sum at least 1, so no
    log is clamped: the column [0, 800] gives log-probabilities -800 and 0
    exactly.
    """
    z = np.asarray(z)
    if z.ndim != 2 or z.shape[0] == 0:
        raise DimensionError(f"log_softmax needs a (k, n) array with k >= 1, got shape {z.shape}")
    np.subtract(z, z.max(axis=0), out=out)
    e = np.exp(out, out=scratch)
    s = e.sum(axis=0)
    np.subtract(out, np.log(s), out=out)
    if not entropy:
        return None
    # sum(p * log p) = sum(exp(z - max) * log p) / s
    return np.multiply(e, out, out=e).sum(axis=0) / s


def argmax(z: np.ndarray) -> np.ndarray:
    """Index of each column's largest entry in the (k, n) array `z`, k >= 1,
    as ``np.intp``: equal to ``z.argmax(axis=0)``, the lowest index on ties
    and the first NaN in a column that holds one."""
    z = np.asarray(z)
    if z.ndim != 2 or z.shape[0] == 0:
        raise DimensionError(f"argmax needs a (k, n) array with k >= 1, got shape {z.shape}")
    k, n = z.shape
    # as in nearest_two: strict > keeps the lowest index on ties, and
    # max(idx, c * above) moves idx to c exactly where row c is above the
    # best so far
    itype = np.min_scalar_type(k - 1)
    idx, at = np.zeros(n, dtype=itype), np.empty(n, dtype=itype)
    best, above = z[0].copy(), np.empty(n, dtype=bool)
    for c in range(1, k):
        row = z[c]
        np.greater(row, best, out=above)
        np.multiply(above, itype.type(c), out=at)
        np.maximum(idx, at, out=idx)
        np.maximum(best, row, out=best)
    # a NaN never compares above best, so it does not move idx, but maximum
    # carries it into best; those columns take numpy's own argmax
    nan = np.isnan(best)
    if nan.any():
        idx[nan] = z[:, nan].argmax(axis=0)
    return idx.astype(np.intp)


def nearest_two(features: np.ndarray, centers: np.ndarray):
    """Per pixel of the (d, n) `features`: index of the nearest of the (k, d)
    `centers` plus the two smallest Euclidean distances. With a single
    center the second distance is +inf; with d = 0 every distance is 0."""
    features, centers = _f64c(features), _f64c(centers)
    if features.ndim != 2 or centers.ndim != 2 or features.shape[0] != centers.shape[1]:
        raise DimensionError(
            f"nearest_two needs (d,n) features and (k,d) centers, got {features.shape} and {centers.shape}"
        )
    if centers.shape[0] == 0:
        raise DimensionError("nearest_two needs at least one center")
    k, n = centers.shape[0], features.shape[1]
    # each center's distances go into one (n,) row that the scan reads at
    # once, so no (k, n) table is held; strict < keeps the lowest index on
    # ties; c is above every index so far, so max(idx, c * closer) moves idx
    # to c exactly where closer holds, without the per-element branch of a
    # masked store, and an index of the narrowest dtype holding k - 1 keeps
    # those updates cheap; the second smallest of {dmin, dsec, row} is
    # min(dsec, max(dmin, row)), duplicates included
    itype = np.min_scalar_type(k - 1)
    idx, at = np.zeros(n, dtype=itype), np.empty(n, dtype=itype)
    sq, dmin, dsec = np.empty(features.shape), np.empty(n), np.full(n, np.inf)
    row, top, closer = np.empty(n), np.empty(n), np.empty(n, dtype=bool)
    for c, center in enumerate(centers[:, :, None]):
        np.subtract(features, center, out=sq)
        np.multiply(sq, sq, out=sq)
        if c == 0:
            np.add.reduce(sq, axis=0, out=dmin)
            continue
        np.add.reduce(sq, axis=0, out=row)
        np.less(row, dmin, out=closer)
        np.multiply(closer, itype.type(c), out=at)
        np.maximum(idx, at, out=idx)
        np.maximum(dmin, row, out=top)
        np.minimum(dsec, top, out=dsec)
        np.minimum(dmin, row, out=dmin)
    return idx.astype(np.intp), np.sqrt(dmin), np.sqrt(dsec)


def label_sums(features, labels: np.ndarray, num_classes: int):
    """Per-class sums of the (d, n) `features`' pixels, as a (classes, d)
    array, and per-class counts; labels below 0 are skipped.

    `features` may also be a tuple of (d_i, n) blocks over the same pixels,
    whose sums come out joined column-wise, bitwise as for the stacked
    blocks, without copying the blocks together; the counts are taken once.
    """
    labels = _i64c(labels)
    blocks = features if isinstance(features, tuple) else (features,)
    blocks = [np.asarray(block, dtype=np.float64) for block in blocks]
    for block in blocks:
        if block.ndim != 2 or labels.shape != (block.shape[1],):
            raise DimensionError(
                f"label_sums needs (d,n) features and (n,) labels, got {block.shape} and {labels.shape}"
            )
    if labels.size and labels.max() >= num_classes:
        raise DimensionError(f"label {labels.max()} out of range for {num_classes} classes")
    bins = np.where(labels < 0, num_classes, labels)
    rows = [row for block in blocks for row in block]
    sums = np.empty((num_classes, len(rows)))
    for r, row in enumerate(rows):
        sums[:, r] = np.bincount(bins, weights=row, minlength=num_classes + 1)[:num_classes]
    counts = np.bincount(bins, minlength=num_classes + 1)[:num_classes].astype(np.int64)
    return sums, counts


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
