"""Channel-statistics transfer: exact stats matching and the pixel layout."""

import numpy as np
import pytest

from cfalign.adain import ChannelStats, adain_transfer, channel_stats, to_pixels
from cfalign.errors import ContractError, DimensionError
from step_reference import adain_transfer_reference


def img(values):
    """1x1xHxW image from a flat list, for single-channel examples."""
    a = np.asarray(values, dtype=float)
    return a.reshape(1, 1, 1, a.size)


class TestChannelStats:
    def test_known_mean_and_population_variance(self):
        stats = channel_stats(img([0.0, 2.0]))
        np.testing.assert_allclose(stats.mean, [1.0])
        np.testing.assert_allclose(stats.var, [1.0])

    def test_constant_channel(self):
        stats = channel_stats(np.full((2, 3, 4, 4), 7.0))
        np.testing.assert_allclose(stats.mean, [7.0] * 3)
        np.testing.assert_allclose(stats.var, [0.0] * 3)

    def test_spatial_permutation_invariant(self):
        rng = np.random.default_rng(50)
        x = rng.normal(size=(2, 3, 4, 5))
        flat = x.reshape(2, 3, 20)
        perm = rng.permutation(20)
        y = flat[:, :, perm].reshape(2, 3, 4, 5)
        a, b = channel_stats(x), channel_stats(y)
        np.testing.assert_allclose(a.mean, b.mean, atol=1e-12)
        np.testing.assert_allclose(a.var, b.var, atol=1e-12)

    def test_rejects_non_4d(self):
        with pytest.raises(DimensionError):
            channel_stats(np.zeros((3, 4)))


class TestAdainTransfer:
    def test_known_values(self):
        # content [0,2]: mean 1, var 1 -> normalized [-1,1] -> *2 + 5 = [3,7]
        out = adain_transfer(img([0.0, 2.0]), ChannelStats(np.array([5.0]), np.array([4.0])), eps=1e-12)
        np.testing.assert_allclose(out.ravel(), [3.0, 7.0], atol=1e-9)

    def test_own_stats_is_identity(self):
        rng = np.random.default_rng(51)
        x = rng.normal(size=(2, 3, 5, 5))
        out = adain_transfer(x, channel_stats(x), eps=1e-12)
        np.testing.assert_allclose(out, x, atol=1e-9)

    def test_constant_channel_maps_to_style_mean(self):
        out = adain_transfer(np.full((1, 2, 3, 3), 4.0), ChannelStats(np.array([1.0, -1.0]), np.array([2.0, 2.0])))
        np.testing.assert_allclose(out[0, 0], 1.0)
        np.testing.assert_allclose(out[0, 1], -1.0)

    def test_post_transfer_stats_match_style(self):
        rng = np.random.default_rng(52)
        for _ in range(50):
            b, c, h, w = rng.integers(1, 4), rng.integers(1, 5), rng.integers(2, 7), rng.integers(2, 7)
            x = rng.normal(loc=rng.normal(), scale=rng.uniform(0.5, 3.0), size=(b, c, h, w))
            style = ChannelStats(rng.normal(size=c), rng.uniform(0.1, 5.0, size=c))
            out = adain_transfer(x, style, eps=1e-8)
            got = channel_stats(out)
            np.testing.assert_allclose(got.mean, style.mean, atol=1e-6)
            np.testing.assert_allclose(got.var, style.var, atol=1e-6)

    def test_idempotent_for_same_style(self):
        rng = np.random.default_rng(53)
        x = rng.normal(size=(1, 3, 6, 6))
        style = ChannelStats(rng.normal(size=3), rng.uniform(0.5, 2.0, size=3))
        once = adain_transfer(x, style, eps=1e-10)
        twice = adain_transfer(once, style, eps=1e-10)
        np.testing.assert_allclose(twice, once, atol=1e-7)

    def test_channel_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            adain_transfer(np.zeros((1, 3, 2, 2)), ChannelStats(np.zeros(2), np.ones(2)))

    def test_nonpositive_eps_rejected(self):
        with pytest.raises(ContractError):
            adain_transfer(np.zeros((1, 1, 2, 2)), ChannelStats(np.zeros(1), np.ones(1)), eps=0.0)


class TestMatchesReference:
    """`adain_transfer` against the ``np.mean`` / ``np.var`` form of
    ``tests/step_reference.py``, bit for bit."""

    @pytest.mark.parametrize("shape", [(1, 3, 32, 32), (8, 3, 32, 32), (1, 3, 7, 5), (8, 2, 9, 11)])
    def test_bitwise(self, shape):
        rng = np.random.default_rng(33)
        c = shape[1]
        for _ in range(10):
            content = rng.normal(rng.normal(size=(1, c, 1, 1)) * 5, rng.uniform(0.1, 3, size=(1, c, 1, 1)), size=shape)
            content[:, 0] = rng.normal()  # a constant channel
            style = ChannelStats(mean=rng.normal(size=c), var=rng.uniform(0.05, 4.0, size=c))
            got = adain_transfer(content, style)
            assert got.tobytes() == adain_transfer_reference(content, style).tobytes()

    @pytest.mark.parametrize("shape", [(1, 3, 32, 32), (8, 3, 32, 32), (1, 3, 7, 5), (8, 2, 9, 11)])
    def test_bitwise_fresh_form(self, shape):
        # fresh draws with signed zeros: a channel of them, and zero style statistics
        rng = np.random.default_rng(34)
        c = shape[1]
        for trial in range(10):
            content = rng.normal(rng.normal(size=(1, c, 1, 1)) * 5, rng.uniform(0.1, 3, size=(1, c, 1, 1)), size=shape)
            content[:, 0] = rng.normal()  # a constant channel
            if trial % 2:
                content[:, -1] = rng.choice([0.0, -0.0], size=content[:, -1].shape)
            style = ChannelStats(mean=rng.normal(size=c), var=rng.uniform(0.05, 4.0, size=c))
            if trial % 3 == 0:
                style.mean[0], style.var[-1] = -0.0, 0.0  # a zero scale keeps each value's sign
            got = adain_transfer(content, style)
            assert got.tobytes() == adain_transfer_reference(content, style).tobytes()


class TestToPixels:
    def test_layout(self):
        # column i*h*w + r*w + c holds image i's channel vector at (r, c)
        rng = np.random.default_rng(55)
        x = rng.normal(size=(3, 2, 4, 5))
        pixels = to_pixels(x)
        b, _, h, w = x.shape
        assert pixels.shape == (2, b * h * w)
        for i in range(b):
            for r in range(h):
                for c in range(w):
                    np.testing.assert_array_equal(pixels[:, i * h * w + r * w + c], x[i, :, r, c])
        # one image's pixels are a view of it
        assert np.shares_memory(to_pixels(x[1:2]), x)

    def test_rejects_non_4d(self):
        with pytest.raises(DimensionError):
            to_pixels(np.zeros((3, 4, 5)))
