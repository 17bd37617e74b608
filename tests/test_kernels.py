"""Kernels against brute-force references."""

import sys

import numpy as np
import pytest

from cfalign import kernels
from cfalign.config import RunConfig
from cfalign.data import SynthSpec, generate_dataset
from cfalign.errors import DimensionError
from cfalign.evaluate import eval_to_json, evaluate
from cfalign.heads import HEAD_KINDS
from cfalign.tensor import Tensor, softmax
from cfalign.train import metrics_to_csv, train


@pytest.fixture(params=["numpy"])
def backend(request):
    """The one implementation, under the name get_backend() reports; the
    parameter keeps each test's id (``test_against_loop[numpy]``) as it was."""
    assert kernels.get_backend() == request.param
    return request.param


def nearest_two_oracle(features, centers):
    """Full distance matrix, argmin/partition per row."""
    d = np.sqrt(((features[:, None, :] - centers[None, :, :]) ** 2).sum(-1))
    idx = d.argmin(axis=1)
    ordered = np.sort(d, axis=1)
    dmin = ordered[:, 0]
    dsec = ordered[:, 1] if centers.shape[0] > 1 else np.full(len(features), np.inf)
    return idx, dmin, dsec


def nearest_two_loop(features, centers):
    """The per-center running min / second-min scan with strict comparisons."""
    n = features.shape[0]
    idx = np.zeros(n, dtype=np.int64)
    dmin = np.full(n, np.inf)
    dsec = np.full(n, np.inf)
    for c in range(centers.shape[0]):
        d = ((features - centers[c]) ** 2).sum(axis=1)
        better = d < dmin
        second = ~better & (d < dsec)
        dsec[second] = d[second]
        dsec[better] = dmin[better]
        dmin[better] = d[better]
        idx[better] = c
    return idx, np.sqrt(dmin), np.sqrt(dsec)


class TestNearestTwo:
    def test_against_oracle(self, backend):
        rng = np.random.default_rng(10)
        for _ in range(30):
            n = int(rng.integers(1, 200))
            k = int(rng.integers(1, 12))
            d = int(rng.integers(1, 9))
            f = rng.normal(size=(n, d))
            c = rng.normal(size=(k, d))
            idx, dmin, dsec = kernels.nearest_two(f, c)
            oidx, odmin, odsec = nearest_two_oracle(f, c)
            np.testing.assert_array_equal(idx, oidx)
            np.testing.assert_allclose(dmin, odmin, atol=1e-12)
            np.testing.assert_allclose(dsec, odsec, atol=1e-12)

    def test_bitwise_equal_to_scan(self, backend):
        rng = np.random.default_rng(13)

        def shapes():
            for trial in range(40):
                n, k, d = int(rng.integers(1, 150)), int(rng.integers(1, 9)), int(rng.integers(1, 9))
                yield n, 1 if trial < 2 else k, d, trial % 2
            # row counts at the block edges, each with a width from every
            # summation branch of _row_sums: sequential, eight accumulators, split
            block = kernels._BLOCK
            widths = ((1, 5, 7), (8, 13, 128), (129, 203, 300))
            for i, n in enumerate((block - 1, block, block + 1, 3 * block + 17)):
                for j, branch in enumerate(widths):
                    k = 1 if (i, j) == (1, 1) else int(rng.integers(2, 9))
                    yield n, k, branch[(i + j) % len(branch)], (i + j) % 2

        for n, k, d, grid in shapes():
            f = rng.normal(size=(n, d))
            c = rng.normal(size=(k, d))
            if grid:
                # small integer grids make exact distance ties common, and
                # duplicated centers tie on every row
                f = rng.integers(-2, 3, size=(n, d)).astype(float)
                c = rng.integers(-2, 3, size=(k, d)).astype(float)
                c[rng.integers(0, k)] = c[rng.integers(0, k)]
            for got, want in zip(kernels.nearest_two(f, c), nearest_two_loop(f, c)):
                assert got.dtype == want.dtype
                assert np.array_equal(got, want), (n, k, d)

    def test_single_center_second_is_inf(self, backend):
        idx, dmin, dsec = kernels.nearest_two(np.zeros((3, 2)), np.ones((1, 2)))
        np.testing.assert_array_equal(idx, [0, 0, 0])
        np.testing.assert_allclose(dmin, np.sqrt(2.0))
        assert np.isinf(dsec).all()

    def test_tie_takes_lowest_index(self, backend):
        f = np.array([[0.0, 0.0]])
        c = np.array([[1.0, 0.0], [-1.0, 0.0]])
        idx, dmin, dsec = kernels.nearest_two(f, c)
        assert idx[0] == 0
        assert dmin[0] == dsec[0] == 1.0

    def test_shape_validation(self, backend):
        with pytest.raises(DimensionError):
            kernels.nearest_two(np.zeros((3, 2)), np.zeros((2, 3)))
        with pytest.raises(DimensionError):
            kernels.nearest_two(np.zeros((3, 2)), np.zeros((0, 2)))


class TestRowSums:
    def test_matches_numpy_sum_order(self):
        """nearest_two's distances equal ``((f - c) ** 2).sum(axis=1)`` only while
        numpy adds a row in the order _row_sums repeats; a numpy release that
        changes its reduction order fails here first."""
        rng = np.random.default_rng(15)
        for d in range(1, 301):
            # mixed magnitudes make the summation order visible in the last bits
            x = rng.normal(size=(9, d)) * 10.0 ** rng.integers(-8, 9, size=(9, d))
            assert np.array_equal(kernels._row_sums(x.T), x.sum(axis=1)), d


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
    """Widths 1..300 on short runs of rows, then the block edges with
    widths from every summation branch of _row_sums."""
    rng = np.random.default_rng(16)
    for k in range(1, 301):
        for n in (0, 1, 37):
            yield row_inputs(rng, n, k)
    block = kernels._BLOCK
    for n in (block - 1, block, block + 1, 3 * block + 17):
        for k in (1, 5, 7, 8, 13, 128, 129, 203, 300):
            yield row_inputs(rng, n, k)


def softmax_numpy(z):
    """``tensor.softmax``'s rows in numpy's ``axis=1`` form."""
    p = np.exp(z - z.max(axis=1)[:, None])
    return p / p.sum(axis=1)[:, None]


def log_softmax_numpy(z, out, entropy=False):
    """`kernels.log_softmax` in numpy's ``axis=1`` form."""
    shifted = z - z.max(axis=1)[:, None]
    e = np.exp(shifted)
    s = e.sum(axis=1)
    np.subtract(shifted, np.log(s)[:, None], out=out)
    return (e * out).sum(axis=1) / s if entropy else None


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


class TestRowKernels:
    """Each row kernel against numpy's ``axis=1`` reduction of the same
    C-contiguous array, bit for bit."""

    def test_row_sum_bitwise(self):
        for a in row_cases():
            # a row cannot hold both infinities, so every sum is a number or -inf
            got = kernels.row_sum(a)
            assert got.shape == (a.shape[0],) and got.dtype == np.float64
            assert np.array_equal(bits(got), bits(a.sum(axis=1))), a.shape

    def test_row_max_bitwise(self):
        for a in row_cases():
            got, want = kernels.row_max(a), a.max(axis=1)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert np.array_equal(got, want), a.shape
            # numpy's SIMD lane order picks the sign of a zero maximum of a row
            # holding both zeros; every other maximum is the same bits
            zero, neg = a == 0, np.signbit(a)
            open_sign = (want == 0) & (zero & neg).any(axis=1) & (zero & ~neg).any(axis=1)
            assert np.array_equal(bits(got)[~open_sign], bits(want)[~open_sign]), a.shape

    def test_softmax_argmax_over_row_cases(self):
        # every width branch of _row_sums, exact ties and signed zeros; a row
        # holding -inf is left out, as a row of them has no probabilities
        for a in row_cases():
            if np.isfinite(a).all():
                got = kernels.softmax_argmax(a)
                assert got.dtype == np.intp
                assert np.array_equal(got, softmax(Tensor(a)).data.argmax(axis=1)), a.shape

    def test_ties_take_lowest_index(self):
        a = np.array([[1.0, 3.0, 3.0, 0.0], [-0.0, 0.0, 0.0, -0.0], [2.0, 2.0, 2.0, 2.0]])
        np.testing.assert_array_equal(kernels.softmax_argmax(a), [1, 0, 0])

    def test_softmax_argmax_bitwise(self):
        rng = np.random.default_rng(17)
        block = kernels._BLOCK
        for n, k in [(0, 3), (1, 1), (37, 5), (block - 1, 5), (block + 1, 8), (2 * block + 37, 13), (block, 300)]:
            mixed = rng.normal(size=(n, k)) * 10.0 ** rng.integers(-3, 3, size=(n, k))
            tied = rng.integers(-2, 3, size=(n, k)).astype(float)
            saturated = rng.choice([-700.0, 0.0, 700.0], size=(n, k))
            for z in (mixed, tied, saturated):
                got = kernels.softmax_argmax(z)
                assert got.dtype == np.intp
                assert np.array_equal(got, softmax(Tensor(z)).data.argmax(axis=1)), (n, k)

    def test_log_softmax_over_row_cases(self):
        # bitwise up to the sign of a zero, which row_max leaves open
        for a in row_cases():
            if np.isfinite(a).all():
                for entropy in (False, True):
                    got, want = np.empty(a.shape), np.empty(a.shape)
                    got_h = kernels.log_softmax(a, got, entropy)
                    want_h = log_softmax_numpy(a, want, entropy)
                    assert np.array_equal(got, want), a.shape
                    if entropy:
                        assert np.array_equal(got_h, want_h), a.shape
                    else:
                        assert got_h is None

    def test_log_softmax_saturated_rows_are_exact(self):
        z = np.array([[0.0, 800.0], [-800.0, 0.0], [0.0, 40.0]])
        out = np.empty(z.shape)
        with np.errstate(over="raise", invalid="raise"):
            plogp = kernels.log_softmax(z, out, entropy=True)
        np.testing.assert_array_equal(out[:2], [[-800.0, 0.0], [-800.0, 0.0]])
        assert out[2, 0] == -40.0
        assert np.all(np.abs(plogp) < 1e-15)

    def test_softmax_argmax_compares_probabilities(self):
        # exp(-1e-17) rounds to 1.0, tying two probabilities the logits order
        z = np.array([[0.0, 1e-17], [1e-17, 0.0], [-700.0, 700.0], [700.0, 700.0]])
        np.testing.assert_array_equal(kernels.softmax_argmax(z), [0, 0, 1, 0])

    def test_all_negative_zero_sums_to_positive_zero(self):
        for k in (1, 7, 8, 9, 130):
            assert not np.signbit(kernels.row_sum(np.full((3, k), -0.0))).any(), k

    def test_shape_validation(self):
        for fn in (kernels.row_sum, kernels.row_max, kernels.softmax_argmax):
            with pytest.raises(DimensionError):
                fn(np.zeros(4))
        for fn in (kernels.row_max, kernels.softmax_argmax):
            with pytest.raises(DimensionError):
                fn(np.zeros((3, 0)))
        for z in (np.zeros(4), np.zeros((3, 0))):
            with pytest.raises(DimensionError):
                kernels.log_softmax(z, np.empty(z.shape))
        np.testing.assert_array_equal(kernels.row_sum(np.zeros((3, 0))), np.zeros(3))


class TestColSum:
    """`col_sum` against numpy's ``axis=0`` sum of the same array, bit for
    bit. ``einsum`` adds the rows in the order numpy does only while neither
    changes its loop; a numpy release that changes either fails here first."""

    @staticmethod
    def check(a):
        got, want = kernels.col_sum(a), a.sum(axis=0)
        assert got.shape == want.shape and got.dtype == np.float64
        assert np.array_equal(bits(got), bits(want)), (a.shape, a.strides)

    def test_bitwise_over_the_grid(self):
        # widths 1 (the fallback) to 40 and three wide ones, on every row
        # count to 399, as C-contiguous arrays and as every-other-row views
        rng = np.random.default_rng(18)
        for k in list(range(1, 41)) + [64, 128, 256]:
            a = row_inputs(rng, 800, k)
            for n in range(1, 400):
                self.check(a[:n])
                self.check(a[: 2 * n : 2])

    def test_bitwise_on_long_arrays(self):
        rng = np.random.default_rng(19)
        for n in (1023, 1024, 1025, 4096, 8192, 51200):
            for k in (1, 2, 3, 5, 8, 16):
                a = rng.normal(size=(2 * n, k)) * 10.0 ** rng.integers(-8, 9, size=(2 * n, k))
                self.check(a[:n])
                self.check(a[::2])

    def test_other_layouts_and_ranks(self):
        rng = np.random.default_rng(20)
        a = rng.normal(size=(37, 9)) * 10.0 ** rng.integers(-8, 9, size=(37, 9))
        for view in (a.T, np.asfortranarray(a), a[:, 2:7], a[::-1], a.reshape(37, 3, 3), a[0], a[:0]):
            self.check(view)

    def test_signed_zeros_and_ties(self):
        self.check(np.full((5, 3), -0.0))
        self.check(np.array([[-0.0, 0.0, 1.0], [-0.0, -0.0, -1.0]]))
        self.check(np.array([[1.0, 2.0], [1e16, -1e16], [-1e16, 1e16], [1.0, 2.0]]))

    def test_errors_are_numpys(self):
        overflow = np.array([[1e308, 1.0], [1e308, 1.0]])
        opposite = np.array([[np.inf, 1.0], [-np.inf, 1.0]])
        for a in (overflow, opposite):
            with np.errstate(over="raise", invalid="raise"):
                with pytest.raises(FloatingPointError):
                    kernels.col_sum(a)
            with np.errstate(all="ignore"):
                want = a.sum(axis=0)
            # numpy's default error state warns, as the plain sum does
            with pytest.warns(RuntimeWarning):
                got = kernels.col_sum(a)
            assert np.array_equal(bits(got), bits(want))
        # an infinite input that adds without error stays silent
        with np.errstate(over="raise", invalid="raise"):
            self.check(np.array([[np.inf, 1.0], [1.0, -np.inf], [np.nan, 1.0]]))


class TestNumpyReductionsGiveSameBytes:
    """End to end, training and evaluation write the same bytes whether the
    row kernels or numpy's ``axis=1`` reductions do the reducing."""

    NUMPY = {
        "col_sum": lambda a: a.sum(axis=0),
        "row_sum": lambda a: np.asarray(a).sum(axis=1),
        "row_max": lambda a: np.asarray(a).max(axis=1),
        "softmax_argmax": lambda z: softmax_numpy(z).argmax(axis=1),
        "log_softmax": log_softmax_numpy,
    }

    @pytest.fixture(scope="class")
    def data(self):
        return generate_dataset(
            SynthSpec(height=12, width=12, train_images=16, eval_images=4, regions=4, seed=7)
        )

    @staticmethod
    def outputs(data, head):
        docs = []
        # exclude-positive without normalization is a config error
        for normalize, include_positive in ((False, True), (True, True), (True, False)):
            cfg = RunConfig(
                seed=7, iterations=30, hidden_dim=12, feature_dim=8, head=head,
                style_transfer=True, contrastive=True,
                normalize_features=normalize, include_positive=include_positive,
            )
            state, records = train(cfg, data)
            assert any(r.contra != 0 for r in records)  # InfoNCE ran
            docs.append(metrics_to_csv(records) + eval_to_json(evaluate(state, data.target_eval), cfg))
        return docs

    @pytest.mark.parametrize("head", HEAD_KINDS)
    def test_outputs_unchanged(self, data, head, monkeypatch):
        with_kernels = self.outputs(data, head)
        # patch every module that imported a row kernel by name
        patched = set()
        for name, module in list(sys.modules.items()):
            if name.startswith("cfalign.") and name != "cfalign.kernels":
                for attr, numpy_form in self.NUMPY.items():
                    if getattr(module, attr, None) is getattr(kernels, attr):
                        monkeypatch.setattr(module, attr, numpy_form)
                        patched.add((name, attr))
        assert {m for m, _ in patched} >= {"cfalign.tensor", "cfalign.losses", "cfalign.model"}
        assert {a for _, a in patched} == set(self.NUMPY)
        assert self.outputs(data, head) == with_kernels


class TestLabelSums:
    def test_against_loop(self, backend):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n, d, c = int(rng.integers(0, 300)), int(rng.integers(1, 6)), int(rng.integers(1, 9))
            f = rng.normal(size=(n, d))
            labels = rng.integers(-1, c, size=n)
            sums, counts = kernels.label_sums(f, labels, c)
            ref_sums = np.zeros((c, d))
            ref_counts = np.zeros(c, dtype=np.int64)
            for i in range(n):
                if labels[i] >= 0:
                    ref_sums[labels[i]] += f[i]
                    ref_counts[labels[i]] += 1
            np.testing.assert_allclose(sums, ref_sums, atol=1e-12)
            np.testing.assert_array_equal(counts, ref_counts)

    def test_bitwise_equal_to_scatter_add(self, backend):
        rng = np.random.default_rng(14)
        for _ in range(20):
            n, d, c = int(rng.integers(0, 400)), int(rng.integers(1, 9)), int(rng.integers(1, 9))
            # mixed magnitudes make the summation order visible in the last bits
            f = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-8, 9, size=(n, 1))
            labels = rng.integers(-1, c, size=n)
            sums, _ = kernels.label_sums(f, labels, c)
            ref = np.zeros((c, d))
            valid = labels >= 0
            np.add.at(ref, labels[valid], f[valid])
            assert np.array_equal(sums, ref)

    def test_all_ignored(self, backend):
        sums, counts = kernels.label_sums(np.ones((4, 2)), -np.ones(4, dtype=int), 3)
        assert (sums == 0).all() and (counts == 0).all()

    def test_label_out_of_range(self, backend):
        with pytest.raises(DimensionError):
            kernels.label_sums(np.ones((2, 2)), np.array([0, 5]), 3)


class TestConfusion:
    def test_against_loop(self, backend):
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

    def test_rejects_out_of_range(self, backend):
        with pytest.raises(DimensionError):
            kernels.confusion(np.array([0, 7]), np.array([0, 1]), 4)
