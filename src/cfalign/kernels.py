"""Hot inner-loop kernels: the per-pixel row reductions, the nearest-center
scan behind pseudo-label assignment, class-center accumulation and confusion
counting.

Most arrays on the hot paths are narrow: one row per pixel and a handful of
columns (classes, centers, feature dims). A numpy reduction along ``axis=1``
of such an array makes one inner-loop call per row, so its cost is per row,
not per element. The row kernels `row_sum`, `softmax_argmax` and
`log_softmax`, and `nearest_two`, instead walk an (n, k) array in blocks of
`_BLOCK` rows and copy each block once into a contiguous (k, rows) scratch
array; every step is then one numpy call over a whole block.

Each row kernel repeats numpy's ``axis=1`` result for a C-contiguous array
bit for bit. `_row_sums` adds the k columns in the order numpy's pairwise
sum adds a length-k row, so `row_sum` and `nearest_two`'s distances equal
``a.sum(axis=1)`` and ``((f - c) ** 2).sum(axis=1)``;
`tests/test_kernels.py::TestRowSums` and `::TestRowKernels` are the alarm if
a numpy release changes that order. The row maximum (`_max_scan`) is
exact because a maximum does not round; only the sign of a zero maximum of
a row holding both 0.0 and -0.0 is left open, as numpy's SIMD lane order
leaves it. `log_softmax` is its ``axis=1`` form
``z - m - log(exp(z - m).sum(axis=1))`` with m the row max, up to that
same sign of a zero.
`softmax_argmax` and `nearest_two` resolve ties to the lowest index, as
``argmax`` and ``argmin`` do. Inputs must be free of NaN: a NaN row gets an
unspecified result.

Sums down the rows go the other way. `col_sum` is bitwise ``a.sum(axis=0)``:
for a 2-d float64 array whose rows are contiguous, with k >= 2 columns,
numpy adds the rows one after another, and ``np.einsum("ij->j", a)`` adds
them in the same order with a cheaper loop. With one column, or any other
layout, numpy sums pairwise or in another order, so those arrays go to
``a.sum(axis=0)`` itself. ``einsum`` ignores ``np.errstate``: an overflow
gives inf and inf - inf gives NaN silently. So a result that is not all
finite is computed again by ``a.sum(axis=0)``, which returns the same
values and raises or warns exactly as it would have.
`tests/test_kernels.py::TestColSum` is the alarm if a numpy release changes
the order of either.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError

__all__ = [
    "get_backend",
    "col_sum",
    "row_sum",
    "softmax_argmax",
    "log_softmax",
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


# rows per block: a (k, _BLOCK) float64 scratch array stays cache-resident at
# the widths the trainer uses
_BLOCK = 4096


def _column_blocks(a: np.ndarray, pad: int = 8):
    """Yield (lo, hi, cols) for each block of rows of the 2-d `a`, where
    cols[j] is column j of rows lo:hi as a contiguous float64 row. One
    scratch array serves every block, so cols is only valid until the next.

    Each row of the scratch has `pad` spare columns: a row stride that is a
    multiple of 4 KiB maps every row, and a caller's same-shaped scratch,
    onto the same cache sets. With no padding, cols is one contiguous array,
    on which a numpy call over a narrow block costs about half as much."""
    n, k = a.shape
    flat = np.empty(k * (min(n, _BLOCK) + pad))
    for lo in range(0, n, _BLOCK):
        hi = min(lo + _BLOCK, n)
        w = hi - lo
        cols = flat[: k * (w + pad)].reshape(k, w + pad)[:, :w]
        np.copyto(cols, a[lo:hi].T)
        yield lo, hi, cols


def _rows(a, name: str, need_column: bool = False) -> np.ndarray:
    a = np.asarray(a)
    if a.ndim != 2 or (need_column and a.shape[1] == 0):
        what = "an (n, k) array with k >= 1" if need_column else "an (n, k) array"
        raise DimensionError(f"{name} needs {what}, got shape {a.shape}")
    return a


def _row_sums(x: np.ndarray) -> np.ndarray:
    """Sums of the d rows of a (d, m) array, added in numpy's pairwise order.

    Column j of the result is bitwise ``x[:, j].sum()``: sequential from 0.0
    below 8 rows; eight stride-8 accumulators folded as a tree, a sequential
    remainder and then 0.0 added (so -0.0 sums become 0.0, as numpy's do) up
    to 128 rows; and above that a split at half (rounded down to a multiple
    of 8) with both halves summed the same way.
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
        s += 0.0
        return s
    half = d // 2
    half -= half % 8
    return _row_sums(x[:half]) + _row_sums(x[half:])


def col_sum(a: np.ndarray) -> np.ndarray:
    """Sum over the leading axis: bitwise ``a.sum(axis=0)``, including the
    errors it raises under ``np.errstate`` (module docstring)."""
    if a.ndim == 2 and a.shape[1] >= 2 and a.dtype == np.float64 and a.strides[1] == a.itemsize:
        s = np.einsum("ij->j", a)
        if np.isfinite(s).all():
            return s
    return a.sum(axis=0)


def row_sum(a: np.ndarray) -> np.ndarray:
    """Per-row sums of an (n, k) array: bitwise ``a.sum(axis=1)``."""
    a = _rows(a, "row_sum")
    out = np.empty(a.shape[0])
    for lo, hi, cols in _column_blocks(a):
        out[lo:hi] = _row_sums(cols)
    return out


def _max_scan(cols: np.ndarray, best: np.ndarray) -> None:
    """best[i] = the largest cols[j, i] over j; the one maximum scan."""
    best[:] = cols[0]
    for j in range(1, cols.shape[0]):
        np.maximum(best, cols[j], out=best)


def _argmax_scratch(k: int, m: int):
    """Scratch for `_argmax_scan` over blocks of up to m columns of k rows.

    A running index of the narrowest dtype holding k - 1 keeps the scan's
    updates cheap."""
    itype = np.min_scalar_type(k - 1)
    return np.empty(m), np.empty(m, dtype=bool), np.empty(m, dtype=itype), np.empty(m, dtype=itype)


def _argmax_scan(cols: np.ndarray, out: np.ndarray, scratch) -> None:
    """out[i] = the lowest j holding the largest cols[j, i]; the one argmax scan."""
    w = cols.shape[1]
    b, g, r, c = (a[:w] for a in scratch)
    b[:] = cols[0]
    r[:] = 0
    for j in range(1, cols.shape[0]):
        # strict > keeps the lowest index on ties; j is above every index so
        # far, so max(r, j * g) moves r to j exactly where g holds, without
        # the per-element branch of a masked store
        np.greater(cols[j], b, out=g)
        np.multiply(g, r.dtype.type(j), out=c)
        np.maximum(r, c, out=r)
        np.maximum(b, cols[j], out=b)
    out[:] = r


def softmax_argmax(z: np.ndarray) -> np.ndarray:
    """Per-row index of the largest softmax probability of (n, k) logits,
    k >= 1, the lowest on ties: ``tensor.softmax(Tensor(z)).data.argmax(axis=1)``.

    Each block is copied to column-major once and the softmax steps run on
    that copy in place, where separate row reductions would each copy it
    again. Probabilities are compared, not logits: rounding can tie two of
    them that the logits order.
    """
    z = _rows(z, "softmax_argmax", need_column=True)
    n, k = z.shape
    idx = np.empty(n, dtype=np.intp)
    m = min(n, _BLOCK)
    top, scratch = np.empty(m), _argmax_scratch(k, m)
    for lo, hi, cols in _column_blocks(z):
        t = top[: hi - lo]
        _max_scan(cols, t)
        np.subtract(cols, t, out=cols)
        np.exp(cols, out=cols)
        np.divide(cols, _row_sums(cols), out=cols)
        _argmax_scan(cols, idx[lo:hi], scratch)
    return idx


def log_softmax(z: np.ndarray, out: np.ndarray, entropy: bool = False) -> np.ndarray | None:
    """Write the log-softmax rows of the (n, k) logits `z`, k >= 1, into the
    (n, k) array `out`: ``z - max - log(sum(exp(z - max)))`` per row. With
    `entropy`, also return each row's ``sum(p * log p)``.

    Each block is copied to column-major once, and the row max, the
    log-sum-exp and the entropy sum all come from that copy. The shifted
    exponentials are at most 1 and their sum at least 1, so no log is
    clamped: the row [0, 800] gives log-probabilities -800 and 0 exactly.
    """
    z = _rows(z, "log_softmax", need_column=True)
    n, k = z.shape
    m = min(n, _BLOCK)
    top, scratch = np.empty(m), np.empty(k * m)
    plogp = np.empty(n) if entropy else None
    for lo, hi, cols in _column_blocks(z, pad=0):
        t, e = top[: hi - lo], scratch[: cols.size].reshape(cols.shape)
        _max_scan(cols, t)
        np.subtract(cols, t, out=cols)
        np.exp(cols, out=e)
        s = _row_sums(e)
        np.subtract(cols, np.log(s), out=cols)
        if entropy:
            # sum(p * log p) = sum(exp(z - max) * log p) / s
            np.multiply(e, cols, out=e)
            np.divide(_row_sums(e), s, out=plogp[lo:hi])
        np.copyto(out[lo:hi], cols.T)
    return plogp


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
    idx = np.zeros(n, dtype=np.intp)
    dmin = np.empty(n)
    dsec = np.full(n, np.inf)
    scratch = np.empty((d, min(n, _BLOCK)))
    for lo, hi, cols in _column_blocks(features):
        sq = scratch[:, : hi - lo]
        bidx, bmin, bsec = idx[lo:hi], dmin[lo:hi], dsec[lo:hi]
        for c in range(k):
            np.subtract(cols, centers[c, :, None], out=sq)
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
