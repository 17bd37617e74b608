"""Kernels against brute-force references.

The kernels take feature-major (k, n) arrays, one column per pixel. The
bitwise references reduce that (k, n) array with numpy's ``axis=0`` sums;
the others are written on the (n, k) rows and their results compared
through a transpose.
"""

import numpy as np
import pytest

from cfalign import kernels
from cfalign.errors import DimensionError


def cols(rows):
    """The (n, k) `rows` as a C-contiguous feature-major (k, n) array."""
    return np.ascontiguousarray(rows.T)


def nearest_two_oracle(features, centers):
    """Full distance matrix, argmin/partition per row."""
    d = np.sqrt(((features[:, None, :] - centers[None, :, :]) ** 2).sum(-1))
    idx = d.argmin(axis=1)
    ordered = np.sort(d, axis=1)
    dmin = ordered[:, 0]
    dsec = ordered[:, 1] if centers.shape[0] > 1 else np.full(len(features), np.inf)
    return idx, dmin, dsec


def nearest_two_loop(features, centers):
    """The per-center running min / second-min scan with strict comparisons,
    over C-contiguous (d, n) `features` with numpy's ``axis=0`` sums."""
    n = features.shape[1]
    idx = np.zeros(n, dtype=np.int64)
    dmin = np.full(n, np.inf)
    dsec = np.full(n, np.inf)
    for c in range(centers.shape[0]):
        d = ((features - centers[c][:, None]) ** 2).sum(axis=0)
        better = d < dmin
        second = ~better & (d < dsec)
        dsec[second] = d[second]
        dsec[better] = dmin[better]
        dmin[better] = d[better]
        idx[better] = c
    return idx, np.sqrt(dmin), np.sqrt(dsec)


class TestNearestTwo:
    def test_against_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            n = int(rng.integers(1, 200))
            k = int(rng.integers(1, 12))
            d = int(rng.integers(1, 9))
            f = rng.normal(size=(n, d))
            c = rng.normal(size=(k, d))
            idx, dmin, dsec = kernels.nearest_two(cols(f), c)
            oidx, odmin, odsec = nearest_two_oracle(f, c)
            np.testing.assert_array_equal(idx, oidx)
            np.testing.assert_allclose(dmin, odmin, atol=1e-12)
            np.testing.assert_allclose(dsec, odsec, atol=1e-12)

    def test_bitwise_equal_to_scan(self):
        rng = np.random.default_rng(13)

        def shapes():
            for trial in range(40):
                n, k, d = int(rng.integers(1, 150)), int(rng.integers(1, 9)), int(rng.integers(1, 9))
                yield n, 1 if trial < 2 else k, d, trial % 2, False
            # long arrays, with feature widths from 1 to 300
            block = 4096
            widths = ((1, 5, 7), (8, 13, 128), (129, 203, 300))
            for i, n in enumerate((block - 1, block, block + 1, 3 * block + 17)):
                for j, branch in enumerate(widths):
                    k = 1 if (i, j) == (1, 1) else int(rng.integers(2, 9))
                    yield n, k, branch[(i + j) % len(branch)], (i + j) % 2, False
            # the shapes training and evaluation run: 8 features, 5 centers,
            # 1, 4 and 8 images of 32 x 32, where 8 images are a batch-8 step
            # and an evaluation block; then the same as column slices of a
            # wider array
            for view in (False, True):
                for n in (1024, 4096, 8192):
                    for grid in (0, 1):
                        yield n, 5, 8, grid, view
            # more centers than a one-byte running index holds
            yield 300, 300, 3, 1, False

        for n, k, d, grid, view in shapes():
            f = rng.normal(size=(n, d))
            c = rng.normal(size=(k, d))
            if grid:
                # small integer grids make exact distance ties common, and
                # duplicated centers tie on every row
                f = rng.integers(-2, 3, size=(n, d)).astype(float)
                c = rng.integers(-2, 3, size=(k, d)).astype(float)
                c[rng.integers(0, k)] = c[rng.integers(0, k)]
            F = cols(f)
            if view:
                F = np.hstack([rng.normal(size=(d, 3)), F, rng.normal(size=(d, 2))])[:, 3 : 3 + n]
                assert not F.flags.c_contiguous
            for got, want in zip(kernels.nearest_two(F, c), nearest_two_loop(cols(f), c)):
                assert got.dtype == want.dtype
                assert np.array_equal(got, want), (n, k, d, view)

    def test_distances_are_numpy_column_sums(self):
        rng = np.random.default_rng(18)
        for d in (1, 7, 8, 9, 16, 300):
            # mixed magnitudes make the summation order visible in the last bits
            F = rng.normal(size=(d, 53)) * 10.0 ** rng.integers(-8, 9, size=(d, 53))
            centers = rng.normal(size=(3, d))
            _, dmin, dsec = kernels.nearest_two(F, centers)
            dist = np.sort([np.sqrt(((F - c[:, None]) ** 2).sum(axis=0)) for c in centers], axis=0)
            assert np.array_equal(dmin, dist[0]) and np.array_equal(dsec, dist[1]), d

    def test_single_center_second_is_inf(self):
        idx, dmin, dsec = kernels.nearest_two(np.zeros((2, 3)), np.ones((1, 2)))
        np.testing.assert_array_equal(idx, [0, 0, 0])
        np.testing.assert_allclose(dmin, np.sqrt(2.0))
        assert np.isinf(dsec).all()

    def test_tie_takes_lowest_index(self):
        f = np.array([[0.0], [0.0]])
        c = np.array([[1.0, 0.0], [-1.0, 0.0]])
        idx, dmin, dsec = kernels.nearest_two(f, c)
        assert idx[0] == 0
        assert dmin[0] == dsec[0] == 1.0

    def test_no_features(self):
        # d = 0: every distance is the empty sum 0, so center 0 is nearest
        # and a second center is as near
        for k in (1, 3):
            idx, dmin, dsec = kernels.nearest_two(np.zeros((0, 4)), np.zeros((k, 0)))
            assert idx.tolist() == [0] * 4 and dmin.tolist() == [0.0] * 4
            assert dsec.tolist() == [np.inf if k == 1 else 0.0] * 4

    def test_shape_validation(self):
        with pytest.raises(DimensionError):
            kernels.nearest_two(np.zeros((2, 3)), np.zeros((2, 3)))
        with pytest.raises(DimensionError):
            kernels.nearest_two(np.zeros((2, 3)), np.zeros((0, 2)))


def row_inputs(rng, n, k):
    """(n, k) rows in four flavours: mixed magnitudes (the summation order
    shows in the last bits), small integers (exact ties), signed zeros with
    -inf (the excluded-positive shift's input) and signed zeros alone."""
    flavour = int(rng.integers(0, 4))
    if flavour == 0:
        return rng.normal(size=(n, k)) * 10.0 ** rng.integers(-8, 9, size=(n, k))
    if flavour == 1:
        return rng.integers(-2, 3, size=(n, k)).astype(float)
    values = np.array([0.0, -0.0, -np.inf, 1.5, -2.0]) if flavour == 2 else np.array([0.0, -0.0])
    return rng.choice(values, size=(n, k))


def row_cases():
    """Widths 1..300 on short runs of rows, then long runs of narrow and
    wide rows."""
    rng = np.random.default_rng(16)
    for k in range(1, 301):
        for n in (0, 1, 37):
            yield row_inputs(rng, n, k)
    block = 4096
    for n in (block - 1, block, block + 1, 3 * block + 17):
        for k in (1, 5, 7, 8, 13, 128, 129, 203, 300):
            yield row_inputs(rng, n, k)


def log_softmax_numpy(z, out, entropy=False):
    """`kernels.log_softmax` of (k, n) logits in numpy's ``axis=0`` form."""
    shifted = z - z.max(axis=0)
    e = np.exp(shifted)
    s = e.sum(axis=0)
    np.subtract(shifted, np.log(s), out=out)
    return (e * out).sum(axis=0) / s if entropy else None


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


class TestRowKernels:
    """Each kernel over a feature-major (k, n) array against numpy's
    ``axis=0`` reductions of that array, bit for bit."""

    def test_log_softmax_over_row_cases(self):
        # the scratch starts as NaN, so a read of its old contents shows
        for a in row_cases():
            if np.isfinite(a).all():
                for entropy in (False, True):
                    got, want = (np.empty(a.shape[::-1]) for _ in range(2))
                    got_h = kernels.log_softmax(cols(a), got, np.full(got.shape, np.nan), entropy)
                    want_h = log_softmax_numpy(cols(a), want, entropy)
                    assert np.array_equal(bits(got), bits(want)), a.shape
                    if entropy:
                        assert np.array_equal(bits(got_h), bits(want_h)), a.shape
                    else:
                        assert got_h is None

    def test_log_softmax_saturated_rows_are_exact(self):
        z = np.array([[0.0, -800.0, 0.0], [800.0, 0.0, 40.0]])
        out = np.empty(z.shape)
        with np.errstate(over="raise", invalid="raise"):
            plogp = kernels.log_softmax(z, out, np.empty(z.shape), entropy=True)
        np.testing.assert_array_equal(out[:, :2], [[-800.0, -800.0], [0.0, 0.0]])
        assert out[0, 2] == -40.0
        assert np.all(np.abs(plogp) < 1e-15)

    def test_shape_validation(self):
        for z in (np.zeros(4), np.zeros((0, 3))):
            with pytest.raises(DimensionError):
                kernels.log_softmax(z, np.empty(z.shape), np.empty(z.shape))


class TestArgmax:
    """`kernels.argmax` against numpy's ``argmax(axis=0)``, element for
    element and in dtype."""

    @staticmethod
    def check(z):
        got, want = kernels.argmax(z), z.argmax(axis=0)
        assert got.dtype == np.intp, got.dtype
        assert np.array_equal(got, want), z.shape

    @staticmethod
    def special(rng, k, n):
        """(k, n) small integers, so ties are common, with ±0.0, ±inf and
        NaN scattered over every row, row 0 included."""
        z = rng.integers(-2, 3, size=(k, n)).astype(float)
        values = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])
        hit = rng.random((k, n)) < 0.1
        z[hit] = rng.choice(values, size=int(hit.sum()))
        return z

    def test_random_ties_and_specials(self):
        rng = np.random.default_rng(20)
        for k in (1, 2, 5, 256, 257):
            for n in (0, 1, 37, 1024, 8192 + 3):
                self.check(rng.integers(-2, 3, size=(k, n)).astype(float))
                self.check(self.special(rng, k, n))
                self.check(rng.normal(size=(k, n)))

    def test_index_past_one_byte(self):
        # k = 257 needs a uint16 running index: the largest entry is in row 256
        z = np.zeros((257, 3))
        z[256, 0], z[255, 1], z[128, 2] = 1.0, 1.0, 1.0
        np.testing.assert_array_equal(kernels.argmax(z), [256, 255, 128])
        self.check(z)

    def test_named_columns(self):
        # ties, signed zeros, infinities, and NaN in row 0 and in later rows,
        # where the first NaN wins even after a larger or infinite entry
        z = np.array(
            [
                [1.0, -0.0, 0.0, -np.inf, np.nan, 2.0, 1.0, np.inf, -np.inf],
                [1.0, 0.0, -0.0, -np.inf, 3.0, np.nan, np.inf, np.nan, np.nan],
                [0.0, 0.0, 1.0, -np.inf, np.nan, np.nan, np.nan, 1.0, np.inf],
            ]
        )
        np.testing.assert_array_equal(kernels.argmax(z), [0, 0, 2, 0, 0, 1, 2, 1, 1])
        self.check(z)

    def test_views_and_dtypes(self):
        rng = np.random.default_rng(21)
        a = self.special(rng, 5, 301)
        ints = rng.integers(-3, 4, size=(6, 500))
        for z in (a[:, ::2], a[::-1], self.special(rng, 301, 5).T, a[:, :0], a.astype(np.float32), ints):
            self.check(z)

    def test_nan_raises_nothing_under_raise(self):
        z = np.array([[np.nan, 1.0, 0.0], [2.0, np.nan, -np.inf]])
        with np.errstate(all="raise"):
            np.testing.assert_array_equal(kernels.argmax(z), [0, 1, 0])

    def test_shape_validation(self):
        for z in (np.zeros(4), np.zeros((0, 3)), np.zeros((2, 2, 2))):
            with pytest.raises(DimensionError, match=r"^argmax needs a \(k, n\) array with k >= 1, got shape") as info:
                kernels.argmax(z)
            assert "\n" not in str(info.value)


class TestLabelSums:
    def test_against_loop(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n, d, c = int(rng.integers(0, 300)), int(rng.integers(1, 6)), int(rng.integers(1, 9))
            f = rng.normal(size=(n, d))
            labels = rng.integers(-1, c, size=n)
            sums, counts = kernels.label_sums(cols(f), labels, c)
            ref_sums = np.zeros((c, d))
            ref_counts = np.zeros(c, dtype=np.int64)
            for i in range(n):
                if labels[i] >= 0:
                    ref_sums[labels[i]] += f[i]
                    ref_counts[labels[i]] += 1
            np.testing.assert_allclose(sums, ref_sums, atol=1e-12)
            np.testing.assert_array_equal(counts, ref_counts)

    def test_bitwise_equal_to_scatter_add(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            n, d, c = int(rng.integers(0, 400)), int(rng.integers(1, 9)), int(rng.integers(1, 9))
            # mixed magnitudes make the summation order visible in the last bits
            f = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-8, 9, size=(n, 1))
            labels = rng.integers(-1, c, size=n)
            sums, _ = kernels.label_sums(cols(f), labels, c)
            ref = np.zeros((c, d))
            valid = labels >= 0
            np.add.at(ref, labels[valid], f[valid])
            assert np.array_equal(sums, ref)
        # 8 features, 5 classes and 1, 4 and 8 images of 32 x 32, where 1
        # and 8 are the training batches; labels down to -7, class 3 never
        # present, int32 labels, and the features a column slice of a wider
        # array
        c, d = 5, 8
        for n in (1024, 4096, 8192):
            for dtype, view in ((np.int64, False), (np.int32, True)):
                f = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-8, 9, size=(n, 1))
                labels = rng.integers(-7, c, size=n)
                labels[labels == 3] = 4
                labels = labels.astype(dtype)
                F = cols(f)
                if view:
                    F = np.hstack([rng.normal(size=(d, 5)), F])[:, 5:]
                    assert not F.flags.c_contiguous
                sums, counts = kernels.label_sums(F, labels, c)
                ref = np.zeros((c, d))
                valid = labels >= 0
                np.add.at(ref, labels[valid], f[valid])
                assert sums.dtype == ref.dtype and np.array_equal(sums, ref), (n, view)
                assert counts.tolist() == np.bincount(labels[valid], minlength=c).tolist()
                assert counts[3] == 0 and (sums[3] == 0).all()

    def test_all_ignored(self):
        sums, counts = kernels.label_sums(np.ones((2, 4)), -np.ones(4, dtype=int), 3)
        assert (sums == 0).all() and (counts == 0).all()

    def test_no_features(self):
        sums, counts = kernels.label_sums(np.zeros((0, 4)), np.array([0, 2, -1, 2]), 3)
        assert sums.shape == (3, 0) and sums.dtype == np.float64
        assert counts.tolist() == [1, 0, 2]

    def test_blocks_join_column_wise(self):
        rng = np.random.default_rng(19)
        f, h = rng.normal(size=(3, 50)), rng.normal(size=(0, 50))
        g = rng.normal(size=(70, 4))[:50].T
        labels = rng.integers(-2, 4, size=50)
        sums, counts = kernels.label_sums((f, h, g), labels, 4)
        want, want_counts = kernels.label_sums(np.vstack([f, h, g]), labels, 4)
        assert sums.tobytes() == want.tobytes() and counts.tolist() == want_counts.tolist()
        with pytest.raises(DimensionError):
            kernels.label_sums((f, np.zeros((2, 49))), labels, 4)

    def test_label_out_of_range(self):
        with pytest.raises(DimensionError):
            kernels.label_sums(np.ones((2, 2)), np.array([0, 5]), 3)


class TestConfusion:
    def test_against_loop(self):
        rng = np.random.default_rng(12)
        c = 6
        pred = rng.integers(0, c, size=500)
        truth = rng.integers(0, c, size=500)
        cm = kernels.confusion(pred, truth, c)
        ref = np.zeros((c, c), dtype=np.int64)
        for p, t in zip(pred, truth):
            ref[t, p] += 1
        np.testing.assert_array_equal(cm, ref)
        assert cm.sum() == 500

    def test_rejects_out_of_range(self):
        with pytest.raises(DimensionError):
            kernels.confusion(np.array([0, 7]), np.array([0, 1]), 4)
