"""Loss values against hand computations and brute-force oracles, gradients against grad_check."""

import math
import warnings

import numpy as np
import pytest

from cfalign.adain import ChannelStats, adain_transfer
from cfalign.errors import ContractError, DimensionError
from cfalign.gradcheck import BATTERY_CASES, loss_battery
from cfalign.losses import (
    contrastive_combined,
    cross_entropy,
    entropy_from_logits,
    entropy_loss,
    info_nce,
    total_objective,
)
from cfalign.membank import MemoryBank, assign_pseudo_labels
from cfalign.tensor import ArrayPool, Graph, Tensor, backward, grad_check, transpose
from chain_ops import (
    add,
    contrastive_chain,
    cross_entropy_chain,
    entropy_chain,
    info_nce_chain,
    mul,
    reduce_mean,
    scale,
    softmax,
)


def info_nce_oracle(f, labels, centers, mask, tau, include_positive=True):
    """Row-by-row loop shifted by the largest similarity in the denominator,
    so a positive left out of it may lead by any margin; no shared code with
    the implementation."""
    active = [j for j in range(len(centers)) if mask[j]]
    per_row = []
    for i in range(len(f)):
        y = labels[i]
        if y < 0:
            continue
        sims = {j: float(np.dot(f[i], centers[j])) / tau for j in active}
        den = [s for j, s in sims.items() if include_positive or j != y]
        m = max(den)
        per_row.append(m + math.log(sum(math.exp(s - m) for s in den)) - sims[y])
    return sum(per_row) / len(per_row)


def combined_oracle(f_s, y_s, f_t, y_t, bank, tau, include_positive=True):
    total = 0.0
    for f, y in ((f_s, y_s), (f_t, y_t)):
        for centers, mask in ((bank.v_source, bank.init_source), (bank.v_target, bank.init_target)):
            if mask.sum() < (1 if include_positive else 2):
                continue
            kept = np.array([lab if lab >= 0 and mask[lab] else -1 for lab in y])
            if (kept >= 0).any():
                total += info_nce_oracle(f, kept, centers, mask, tau, include_positive)
    return total


def dominant_rows(rng, n, tables, tau):
    """(n, d) unit rows near the unit rows of ``tables[0]``, and their
    labels: in every table, a row's similarity over `tau` to its own center
    leads its similarity to each other center by at least 1000."""
    c, d = tables[0].shape
    labels = rng.integers(0, c, size=n)
    f = tables[0][labels] + rng.uniform(-0.05, 0.05, size=(n, d))
    f /= np.linalg.norm(f, axis=1, keepdims=True)
    own = np.eye(c, dtype=bool)[labels]
    for centers in tables:
        sims = f @ centers.T / tau
        assert (sims[own] - np.where(own, -np.inf, sims).max(axis=1)).min() >= 1000.0
    return f, labels


def awkward_probs(rng, n, c):
    """Probability rows with exact zeros (the log clamp) and one-hot rows."""
    p = rng.dirichlet(np.full(c, rng.uniform(0.2, 3.0)), size=n)
    p[rng.random((n, c)) < 0.2] = 0.0
    hot = rng.random(n) < 0.2
    p[hot] = np.eye(c)[rng.integers(0, c, size=int(hot.sum()))]
    p[p.sum(axis=1) == 0, 0] = 1.0
    return p / p.sum(axis=1, keepdims=True)


def columns(rows, requires_grad=False) -> Tensor:
    """The (n, d) `rows` as a feature-major (d, n) tensor."""
    return Tensor(np.ascontiguousarray(rows.T), requires_grad=requires_grad)


def fused_and_chain(loss_fns, inputs, weight):
    """(loss, grad, tape length) of each loss fn on a fresh leaf, under an
    upstream gradient of `weight`."""
    outs = []
    for fn in loss_fns:
        x = Tensor(inputs.copy(), requires_grad=True)
        with Graph() as g:
            loss = fn(x)
            backward(scale(loss, weight), g)
        outs.append((loss.data, x.grad, len(g)))
    return outs


class TestFusedMatchesChain:
    def test_entropy_bitwise(self):
        rng = np.random.default_rng(48)
        for _ in range(40):
            n, c = int(rng.integers(1, 30)), int(rng.integers(2, 7))
            p = awkward_probs(rng, n, c)
            weight = float(rng.uniform(1e-3, 5.0))
            (got, got_grad, nodes), (want, want_grad, _) = fused_and_chain(
                (entropy_loss, entropy_chain), p, weight
            )
            assert nodes == 2
            assert np.array_equal(got, want)
            assert np.array_equal(got_grad, want_grad)


def assert_close(got, want):
    """Equal within 1e-12 of the largest magnitude in `want`."""
    want = np.asarray(want)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * max(np.abs(want).max(), 1e-300))


def moderate_logits(rng, n, c):
    """(c, n) logits, one column per pixel."""
    return rng.normal(size=(c, n)) * rng.uniform(0.1, 4.0)


class TestFromLogits:
    """CE and entropy read (c, n) logits; at moderate logits they agree with
    ``softmax`` followed by the probability-row chains of
    ``tests/chain_ops.py``."""

    def test_cross_entropy_matches_softmax_chain(self):
        rng = np.random.default_rng(47)
        for _ in range(40):
            n, c = int(rng.integers(1, 30)), int(rng.integers(2, 7))
            logits = moderate_logits(rng, n, c)
            labels = rng.integers(0, c, size=n)
            labels[rng.random(n) < 0.3] = -1
            labels[rng.integers(0, n)] = rng.integers(0, c)
            weight = float(rng.uniform(1e-3, 5.0))
            (got, got_grad, nodes), (want, want_grad, _) = fused_and_chain(
                (lambda x: cross_entropy(x, labels), lambda x: cross_entropy_chain(transpose(softmax(x)), labels)),
                logits,
                weight,
            )
            assert nodes == 2  # the loss node plus the scale
            assert_close(got, want)
            assert_close(got_grad, want_grad)

    def test_entropy_matches_softmax_chain(self):
        rng = np.random.default_rng(50)
        for _ in range(40):
            n, c = int(rng.integers(1, 30)), int(rng.integers(2, 7))
            logits = moderate_logits(rng, n, c)
            weight = float(rng.uniform(1e-3, 5.0))
            (got, got_grad, nodes), (want, want_grad, _) = fused_and_chain(
                (entropy_from_logits, lambda x: entropy_chain(transpose(softmax(x)))), logits, weight
            )
            assert nodes == 2
            assert_close(got, want)
            assert_close(got_grad, want_grad)

    def test_shared_logits_match_chain(self):
        # CE and entropy on one logits tensor: both nodes accumulate into it
        rng = np.random.default_rng(49)
        for _ in range(20):
            n, c = int(rng.integers(1, 30)), int(rng.integers(2, 7))
            labels = rng.integers(-1, c, size=n)
            labels[0] = 0
            lam = float(rng.uniform(0.0, 2.0))
            logits = moderate_logits(rng, n, c)

            def chain(x):
                p = transpose(softmax(x))
                return add(scale(entropy_chain(p), lam), cross_entropy_chain(p, labels))

            (got, got_grad, _), (want, want_grad, _) = fused_and_chain(
                (lambda x: add(scale(entropy_from_logits(x), lam), cross_entropy(x, labels)), chain),
                logits,
                1.0,
            )
            assert_close(got, want)
            assert_close(got_grad, want_grad)

    def test_saturated_cross_entropy_is_exact(self):
        # softmax then a clamped log gave 27.63 and a gradient of 4.2e-6 here
        x = Tensor([[0.0], [40.0]], requires_grad=True)
        with Graph() as g:
            loss = cross_entropy(x, np.array([0]))
            backward(loss, g)
        assert abs(loss.item() - 40.0) <= 1e-12
        np.testing.assert_allclose(x.grad, [[-1.0], [1.0]], rtol=0, atol=1e-12)

    def test_saturated_entropy_is_finite(self):
        x = Tensor([[0.0, 800.0, -800.0], [800.0, 0.0, 0.0]], requires_grad=True)
        with warnings.catch_warnings(), np.errstate(over="raise", invalid="raise"):
            warnings.simplefilter("error")
            with Graph() as g:
                loss = entropy_from_logits(x)
                backward(loss, g)
        assert abs(loss.item()) < 1e-12
        assert np.isfinite(x.grad).all()

    @pytest.mark.parametrize("fn", [lambda x: cross_entropy(x, np.zeros(3, dtype=int)), entropy_from_logits],
                             ids=["cross_entropy", "entropy"])
    def test_pooled_backward_returns_its_scratch(self, fn):
        # the log-probabilities and the exponentials are the only arrays
        # drawn; one of them becomes the gradient
        rng = np.random.default_rng(51)
        logits = rng.normal(size=(4, 3))
        want = Tensor(logits.copy(), requires_grad=True)
        with Graph() as g:
            backward(fn(want), g)
        pool = ArrayPool()
        for step in range(3):
            x = Tensor(logits.copy(), requires_grad=True)
            with Graph(pool=pool) as g:
                backward(fn(x), g)
            assert x.grad.tobytes() == want.grad.tobytes()
            assert pool.lent == 2 and pool.give(x.grad)  # the scratch became the gradient
            pool.reclaim()
            assert (pool.misses, pool.held, pool.lent) == (2, 2, 0)


class TestCrossEntropy:
    def test_uniform_two_classes(self):
        loss = cross_entropy(Tensor([[1.5], [1.5]]), np.array([0]))
        np.testing.assert_allclose(loss.item(), np.log(2.0), atol=1e-12)

    def test_ignored_rows_do_not_count(self):
        logits = Tensor([[0.5, -3.0], [0.5, 2.0]])
        loss = cross_entropy(logits, np.array([0, -1]))
        np.testing.assert_allclose(loss.item(), np.log(2.0), atol=1e-12)

    def test_all_ignored_rejected(self):
        with pytest.raises(ContractError):
            cross_entropy(Tensor([[0.5], [0.5]]), np.array([-1]))

    def test_zero_probability_is_finite(self):
        # the label's softmax probability underflows to 0; the loss is the
        # logit gap, exactly
        loss = cross_entropy(Tensor([[-1000.0], [0.0]]), np.array([0]))
        assert loss.item() == 1000.0

    def test_matches_loop(self):
        rng = np.random.default_rng(30)
        z = rng.normal(size=(10, 4)) * 3
        labels = rng.integers(-1, 4, size=10)
        labels[0] = 2  # keep at least one labeled
        want = np.mean(
            [math.log(sum(math.exp(v) for v in z[i])) - z[i, l] for i, l in enumerate(labels) if l >= 0]
        )
        got = cross_entropy(columns(z), labels).item()
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_label_out_of_range_rejected(self):
        with pytest.raises(ContractError):
            cross_entropy(Tensor([[0.5], [0.5]]), np.array([2]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            cross_entropy(Tensor([[0.5], [0.5]]), np.array([0, 1]))

    def test_gradient(self):
        rng = np.random.default_rng(31)
        labels = rng.integers(0, 3, size=5)

        def fn(x):
            return cross_entropy(x, labels)

        x = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        assert grad_check(fn, x) < 1e-6


class TestEntropyLoss:
    def test_uniform_is_one(self):
        np.testing.assert_allclose(entropy_loss(Tensor([[0.5, 0.5]])).item(), 1.0, atol=1e-12)
        np.testing.assert_allclose(entropy_loss(Tensor(np.full((3, 7), 1 / 7))).item(), 1.0, atol=1e-12)

    def test_one_hot_is_zero(self):
        assert entropy_loss(Tensor([[1.0, 0.0], [0.0, 1.0]])).item() == pytest.approx(0.0, abs=1e-10)

    def test_skewed_two_class_value(self):
        # -(0.9 ln 0.9 + 0.1 ln 0.1) / ln 2
        loss = entropy_loss(Tensor([[0.9, 0.1]]))
        np.testing.assert_allclose(loss.item(), 0.4689955935892809, atol=1e-12)

    def test_range_on_random_rows(self):
        rng = np.random.default_rng(32)
        p = rng.dirichlet(np.ones(5), size=40)
        v = entropy_loss(Tensor(p)).item()
        assert 0.0 <= v <= 1.0

    def test_layout_does_not_change_bytes(self):
        # from 8 classes on, numpy's sum over them depends on the layout
        rng = np.random.default_rng(55)
        for _ in range(50):
            p = awkward_probs(rng, 20, 9)
            got = []
            for rows in (p, np.ascontiguousarray(p.T).T):
                x = Tensor(rows, requires_grad=True)
                with Graph() as g:
                    loss = entropy_loss(x)
                    backward(scale(loss, 0.5), g)
                got.append((loss.data.tobytes(), x.grad.tobytes()))
            assert got[0] == got[1]

    def test_single_class_rejected(self):
        with pytest.raises(ContractError):
            entropy_loss(Tensor([[1.0]]))

    def test_gradient(self):
        rng = np.random.default_rng(33)

        def fn(x):
            return entropy_loss(transpose(softmax(x)))

        x = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        assert grad_check(fn, x) < 1e-6


@pytest.mark.parametrize("loss, shape", [(entropy_loss, (0, 3)), (entropy_from_logits, (3, 0))],
                         ids=["entropy_loss", "entropy_from_logits"])
def test_entropy_of_no_pixels_rejected(loss, shape):
    # the mean over no pixels would be NaN, with numpy's "Mean of empty slice" warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ContractError, match="at least one pixel"):
            loss(Tensor(np.zeros(shape)))


class TestEntropyFromLogits:
    def test_uniform_is_one(self):
        np.testing.assert_allclose(entropy_from_logits(Tensor(np.full((7, 3), 2.5))).item(), 1.0, atol=1e-12)

    def test_skewed_two_class_value(self):
        # the logits of [0.9, 0.1]: -(0.9 ln 0.9 + 0.1 ln 0.1) / ln 2
        loss = entropy_from_logits(Tensor([[math.log(9.0)], [0.0]]))
        np.testing.assert_allclose(loss.item(), 0.4689955935892809, atol=1e-12)

    def test_range_on_random_rows(self):
        rng = np.random.default_rng(52)
        v = entropy_from_logits(Tensor(rng.normal(size=(5, 40)) * 5)).item()
        assert 0.0 <= v <= 1.0

    def test_bad_shapes_rejected(self):
        with pytest.raises(ContractError):
            entropy_from_logits(Tensor([[1.0]]))
        with pytest.raises(DimensionError):
            entropy_from_logits(Tensor([1.0, 2.0]))

    def test_gradient(self):
        rng = np.random.default_rng(53)
        x = Tensor(rng.normal(size=(4, 5)) * 3, requires_grad=True)
        assert grad_check(entropy_from_logits, x) < 1e-6


class TestInfoNCE:
    def test_two_center_example(self):
        f = Tensor([[1.0, 0.0]])
        centers = np.array([[1.0, 0.0], [0.0, 1.0]])
        loss, n = info_nce(f, np.array([0]), centers, tau=1.0)
        assert n == 1
        np.testing.assert_allclose(loss.item(), math.log(1 + math.exp(-1.0)), atol=1e-12)

    def test_symmetric_centers_give_log2(self):
        # equal similarity to both centers, any temperature
        f = Tensor([[2.0, 0.0]])
        centers = np.array([[1.0, 1.0], [1.0, -1.0]])
        loss, _ = info_nce(f, np.array([0]), centers, tau=0.07)
        np.testing.assert_allclose(loss.item(), math.log(2.0), atol=1e-10)

    def test_no_labeled_feature_flags_zero(self):
        loss, n = info_nce(Tensor(np.ones((3, 2))), -np.ones(3, dtype=int), np.ones((2, 2)))
        assert n == 0 and loss.item() == 0.0

    def test_shape_error_names_the_rows_given(self):
        # the (n, d) rows are checked before info_nce reads them as (d, n)
        with pytest.raises(DimensionError, match=r"\(n,d\) features .* got \(3, 5\) and \(2, 2\)"):
            info_nce(Tensor(np.ones((3, 5))), np.zeros(3, dtype=int), np.ones((2, 2)))
        with pytest.raises(DimensionError, match=r"labels must be \(3,\)"):
            info_nce(Tensor(np.ones((3, 2))), np.zeros(5, dtype=int), np.ones((2, 2)))
        with pytest.raises(DimensionError, match=r"\(d,n\) features .* got \(5, 3\)"):
            contrastive_combined(Tensor(np.ones((5, 3))), np.zeros(3, dtype=int),
                                 Tensor(np.ones((2, 3))), np.zeros(3, dtype=int), MemoryBank(2, 2))

    def test_masked_center_label_rejected(self):
        mask = np.array([True, False])
        with pytest.raises(ContractError):
            info_nce(Tensor(np.ones((1, 2))), np.array([1]), np.ones((2, 2)), mask)

    def test_nonpositive_temperature_rejected(self):
        with pytest.raises(ContractError):
            info_nce(Tensor(np.ones((1, 2))), np.array([0]), np.ones((2, 2)), tau=0.0)

    def test_nonnegative_with_positive_in_denominator(self):
        rng = np.random.default_rng(34)
        for _ in range(20):
            f = Tensor(rng.normal(size=(6, 3)))
            centers = rng.normal(size=(4, 3))
            labels = rng.integers(0, 4, size=6)
            loss, _ = info_nce(f, labels, centers, tau=float(rng.uniform(0.05, 2.0)))
            assert loss.item() >= 0.0

    def test_small_temperature_stays_finite(self):
        rng = np.random.default_rng(35)
        f = Tensor(rng.normal(size=(5, 4)) * 10)
        centers = rng.normal(size=(3, 4)) * 10
        loss, _ = info_nce(f, rng.integers(0, 3, size=5), centers, tau=0.01)
        assert np.isfinite(loss.item())

    def test_against_oracle(self):
        rng = np.random.default_rng(36)
        for _ in range(40):
            n = int(rng.integers(1, 30))
            c = int(rng.integers(2, 8))
            d = int(rng.integers(1, 6))
            f = rng.normal(size=(n, d))
            centers = rng.normal(size=(c, d))
            mask = np.zeros(c, dtype=bool)
            mask[rng.choice(c, size=int(rng.integers(1, c + 1)), replace=False)] = True
            labels = np.array([rng.choice(np.flatnonzero(mask)) if rng.random() > 0.3 else -1 for _ in range(n)])
            tau = float(rng.uniform(0.05, 1.5))
            got, cnt = info_nce(Tensor(f), labels, centers, mask, tau=tau)
            if cnt == 0:
                continue
            want = info_nce_oracle(f, labels, centers, mask, tau)
            np.testing.assert_allclose(got.item(), want, atol=1e-10)

    def test_exclude_positive_against_oracle(self):
        rng = np.random.default_rng(37)
        f = rng.normal(size=(8, 3))
        centers = rng.normal(size=(4, 3))
        labels = rng.integers(0, 4, size=8)
        got, _ = info_nce(Tensor(f), labels, centers, tau=0.3, include_positive=False)
        want = info_nce_oracle(f, labels, centers, np.ones(4, bool), 0.3, include_positive=False)
        np.testing.assert_allclose(got.item(), want, atol=1e-10)

    def test_normalized_features_bounded_similarity(self):
        rng = np.random.default_rng(38)
        f = Tensor(rng.normal(size=(5, 3)) * 100)
        centers = rng.normal(size=(3, 3)) * 100
        loss, _ = info_nce(f, rng.integers(0, 3, size=5), centers, tau=1.0, normalize=True)
        # normalized similarities lie in [-1, 1]; loss at tau=1 is at most log(3) + 2
        assert 0.0 <= loss.item() <= math.log(3.0) + 2.0

    def test_gradient(self):
        rng = np.random.default_rng(39)
        centers = rng.normal(size=(3, 4))
        labels = np.array([0, 2, -1, 1, 2])

        def fn(x):
            loss, _ = info_nce(x, labels, centers, tau=0.3)
            return loss

        x = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        assert grad_check(fn, x) < 1e-6


    @pytest.mark.parametrize(
        "include_positive, normalize", [(True, False), (False, False), (True, True), (False, True)]
    )
    def test_fused_node_matches_chain_bitwise(self, include_positive, normalize):
        rng = np.random.default_rng(46)
        for _ in range(25):
            n, c, d = int(rng.integers(1, 40)), int(rng.integers(3, 8)), int(rng.integers(1, 7))
            centers = rng.normal(size=(c, d)) * rng.uniform(0.1, 10.0)
            mask = rng.random(c) < 0.7
            mask[rng.choice(c, size=2, replace=False)] = True
            labels = rng.choice(np.flatnonzero(mask), size=n)
            labels[rng.random(n) < 0.3] = -1
            labels[0] = np.flatnonzero(mask)[0]
            tau = float(rng.uniform(0.02, 1.5))
            feats = rng.normal(size=(n, d)) * rng.uniform(0.1, 10.0)
            outs = []
            for fused in (True, False):
                x = Tensor(feats.copy(), requires_grad=True)
                with Graph() as g:
                    if fused:
                        loss, _ = info_nce(x, labels, centers, mask, tau, include_positive, normalize)
                    else:
                        loss = info_nce_chain(x, labels, centers, mask, tau, include_positive, normalize)
                    # a non-unit upstream gradient, as the weighted total gives
                    backward(scale(loss, 1e-3), g)
                outs.append((loss.data, x.grad, len(g)))
            (got, got_grad, nodes), (want, want_grad, _) = outs
            assert nodes == 3  # the transpose `info_nce` reads its rows through, the fused node, the scale
            assert np.array_equal(got, want)
            assert np.array_equal(got_grad, want_grad)

    @pytest.mark.parametrize("normalize", [False, True])
    def test_dominant_excluded_positive(self, normalize):
        # each positive leads by at least 1000, far past exp's range, under
        # the error state a training iteration runs in
        rng = np.random.default_rng([53, normalize])
        centers = np.linalg.qr(rng.normal(size=(5, 5)))[0]
        mask = np.ones(5, dtype=bool)
        tau = 5e-4
        feats, labels = dominant_rows(rng, 30, [centers], tau)
        outs = []
        with np.errstate(over="raise", invalid="raise"):
            for fused in (True, False):
                x = Tensor(feats.copy(), requires_grad=True)
                with Graph() as g:
                    if fused:
                        loss, _ = info_nce(x, labels, centers, mask, tau, False, normalize)
                    else:
                        loss = info_nce_chain(x, labels, centers, mask, tau, False, normalize)
                    backward(scale(loss, 1e-3), g)
                outs.append((loss.data, x.grad))
        (got, got_grad), (want, want_grad) = outs
        assert np.isfinite(got) and np.isfinite(got_grad).all()
        assert np.array_equal(got, want)
        assert np.array_equal(got_grad, want_grad)
        oracle = info_nce_oracle(feats, labels, centers, mask, tau, include_positive=False)
        np.testing.assert_allclose(got, oracle, rtol=0, atol=1e-10)


class TestRowArguments:
    """`info_nce` and `assign_pseudo_labels` take one row per pixel. The rows
    of a C-contiguous (n, d) array and the ``.T`` view of a feature-major
    (d, n) array holding the same values give the same bytes."""

    @pytest.mark.parametrize("normalize", [False, True])
    def test_rows_and_feature_major_view_agree(self, normalize):
        rng = np.random.default_rng(54)
        # from 8 features on, numpy's sum over them depends on the layout;
        # with every pixel labeled, info_nce reads its rows as a view, not a gather
        for d, lowest_label in ((6, -1), (9, -1), (9, 0)):
            rows = rng.normal(size=(37, d))
            view = np.ascontiguousarray(rows.T).T
            assert not view.flags.c_contiguous
            labels = rng.integers(lowest_label, 5, size=37)
            bank = MemoryBank(class_count=5, feature_dim=d)
            bank.v_source[:] = rng.normal(size=(5, d))
            bank.init_source[:] = True
            got = []
            for features in (rows, view):
                x = Tensor(features, requires_grad=True)
                with Graph() as g:
                    loss, _ = info_nce(x, labels, bank.v_source, tau=0.2, normalize=normalize)
                    backward(scale(loss, 0.5), g)
                pseudo = assign_pseudo_labels(features, bank, 0.05)
                got.append((loss.data.tobytes(), x.grad.tobytes(), pseudo.tobytes()))
            assert got[0] == got[1], d


class TestContrastiveCombined:
    def make_bank(self, rng, c=4, d=3, init_t=None):
        bank = MemoryBank(class_count=c, feature_dim=d)
        bank.v_source[:] = rng.normal(size=(c, d))
        bank.v_target[:] = rng.normal(size=(c, d))
        bank.init_source[:] = True
        bank.init_target[:] = np.ones(c, bool) if init_t is None else init_t
        return bank

    def test_four_terms_against_oracle(self):
        rng = np.random.default_rng(40)
        bank = self.make_bank(rng, init_t=np.array([True, False, True, True]))
        f_s = rng.normal(size=(6, 3))
        f_t = rng.normal(size=(5, 3))
        y_s = rng.integers(0, 4, size=6)
        y_t = np.array([0, -1, 2, 3, 1])  # label 1 must drop from target-side terms
        got = contrastive_combined(columns(f_s), y_s, columns(f_t), y_t, bank, tau=0.4)
        want = combined_oracle(f_s, y_s, f_t, y_t, bank, 0.4)
        np.testing.assert_allclose(got.item(), want, atol=1e-10)

    def test_unlabeled_target_leaves_two_terms(self):
        rng = np.random.default_rng(41)
        bank = self.make_bank(rng)
        f_s = rng.normal(size=(4, 3))
        y_s = rng.integers(0, 4, size=4)
        got = contrastive_combined(columns(f_s), y_s, Tensor(np.ones((3, 2))), -np.ones(2, int), bank)
        want = combined_oracle(f_s, y_s, np.ones((2, 3)), -np.ones(2, int), bank, 0.07)
        np.testing.assert_allclose(got.item(), want, atol=1e-10)

    def test_empty_bank_side_contributes_zero(self):
        rng = np.random.default_rng(42)
        bank = self.make_bank(rng, init_t=np.zeros(4, bool))
        f_s = rng.normal(size=(3, 3))
        y_s = np.array([0, 1, 2])
        got = contrastive_combined(columns(f_s), y_s, Tensor(np.ones((3, 1))), np.array([-1]), bank, tau=0.5)
        want = info_nce_oracle(f_s, y_s, bank.v_source, bank.init_source, 0.5)
        np.testing.assert_allclose(got.item(), want, atol=1e-10)

    def test_nothing_labeled_gives_zero(self):
        bank = MemoryBank(class_count=3, feature_dim=2)
        out = contrastive_combined(
            Tensor(np.ones((2, 2))), -np.ones(2, int), Tensor(np.ones((2, 2))), -np.ones(2, int), bank
        )
        assert out.item() == 0.0

    def test_pixel_permutation_invariant(self):
        rng = np.random.default_rng(43)
        bank = self.make_bank(rng)
        f_s = rng.normal(size=(7, 3))
        y_s = rng.integers(0, 4, size=7)
        f_t = rng.normal(size=(6, 3))
        y_t = rng.integers(-1, 4, size=6)
        a = contrastive_combined(columns(f_s), y_s, columns(f_t), y_t, bank).item()
        ps, pt = rng.permutation(7), rng.permutation(6)
        b = contrastive_combined(columns(f_s[ps]), y_s[ps], columns(f_t[pt]), y_t[pt], bank).item()
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_gradients_both_domains(self):
        rng = np.random.default_rng(44)
        bank = self.make_bank(rng)
        y_s = rng.integers(0, 4, size=5)
        y_t = np.array([1, -1, 3, 0, 2])
        f_t_fixed = Tensor(rng.normal(size=(3, 5)))

        def fn_s(x):
            return contrastive_combined(x, y_s, f_t_fixed, y_t, bank, tau=0.25)

        x = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        assert grad_check(fn_s, x) < 1e-6

        f_s_fixed = Tensor(rng.normal(size=(3, 5)))

        def fn_t(x):
            return contrastive_combined(f_s_fixed, y_s, x, y_t, bank, tau=0.25)

        x2 = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        assert grad_check(fn_t, x2) < 1e-6


def contrastive_case(rng, shape):
    """A bank, two labeled (n, d) feature sets and a temperature for one
    seeded case of `shape`, the part of the input space the case is meant to
    reach."""
    c, d = int(rng.integers(3, 10)), int(rng.integers(1, 9))
    bank = MemoryBank(class_count=c, feature_dim=d)
    bank.v_source[:] = rng.normal(size=(c, d)) * rng.uniform(0.1, 10.0)
    bank.v_target[:] = rng.normal(size=(c, d)) * rng.uniform(0.1, 10.0)
    bank.init_source[:] = True
    bank.init_target[:] = True
    if shape in ("same-partial", "differ", "one-row", "none-labeled", "shared-differ"):
        partial = rng.random(c) < 0.6
        partial[rng.choice(c, size=2, replace=False)] = True
        bank.init_source[:] = partial
        bank.init_target[:] = partial
    if shape in ("differ", "shared-differ"):
        bank.init_target[:] = rng.random(c) < 0.6
    n_s, n_t = int(rng.integers(1, 40)), int(rng.integers(1, 40))
    if shape in ("shared", "shared-differ"):
        n_t = n_s
    y_s, y_t = rng.integers(-1, c, size=n_s), rng.integers(-1, c, size=n_t)
    if shape == "one-row":
        y_t[:] = -1
        y_t[rng.integers(0, n_t)] = rng.choice(np.flatnonzero(bank.init_source))
    if shape == "none-labeled":
        y_s[:] = -1
    f_s = rng.normal(size=(n_s, d)) * rng.uniform(0.1, 10.0)
    f_t = rng.normal(size=(n_t, d)) * rng.uniform(0.1, 10.0)
    return bank, f_s, y_s, f_t, y_t, float(rng.uniform(0.02, 1.5))


# "shared-differ" passes one tensor as both feature sets with differing
# source and target tables, so it takes four stack gradients and the order
# of their stores shows
CONTRASTIVE_SHAPES = [
    "full", "same-partial", "differ", "one-row", "none-labeled", "shared", "shared-differ"
]


class TestContrastiveMatchesChain:
    """`contrastive_combined` is one node whose loss and gradients equal
    `contrastive_chain`'s bit for bit: per stack of tables one `matmul` node
    over the stacked centers, a `take_rows` node of its rows and
    `info_nce_chain`'s tail per term, and one `stack` and `reduce_sum` over
    the terms."""

    @pytest.mark.parametrize("include_positive", [True, False])
    @pytest.mark.parametrize("normalize", [False, True])
    @pytest.mark.parametrize("shape", CONTRASTIVE_SHAPES)
    def test_one_node_bitwise(self, shape, include_positive, normalize):
        rng = np.random.default_rng([51, CONTRASTIVE_SHAPES.index(shape), include_positive, normalize])
        flags = dict(include_positive=include_positive, normalize=normalize)
        for trial in range(12):
            bank, f_s, y_s, f_t, y_t, tau = contrastive_case(rng, shape)
            weight = float(rng.uniform(1e-3, 5.0))
            outs = []
            for fn in (contrastive_combined, contrastive_chain):
                x_s = columns(f_s, requires_grad=True)
                x_t = x_s if shape.startswith("shared") else columns(f_t, requires_grad=True)
                # half the cases draw their scratch from a pool, as training does
                with Graph(pool=ArrayPool() if trial % 2 else None) as g:
                    loss = fn(x_s, y_s, x_t, y_t, bank, tau, **flags)
                    if loss.requires_grad:
                        backward(scale(loss, weight), g)
                outs.append((loss.data, x_s.grad, x_t.grad, len(g) if loss.requires_grad else None))
            (got, got_s, got_t, nodes), (want, want_s, want_t, _) = outs
            assert nodes in (2, None)  # one node plus the scale, or a constant 0
            assert np.array_equal(got, want)
            for a, b in ((got_s, want_s), (got_t, want_t)):
                assert (a is None) == (b is None)
                assert a is None or np.array_equal(a, b)

    @pytest.mark.parametrize("normalize", [False, True])
    @pytest.mark.parametrize("labeled", ["all", "some"])
    def test_sign_bits(self, labeled, normalize):
        # with every pixel labeled the feature gradient is written in place,
        # with some unlabeled it is scattered; both match the chain byte for
        # byte, signed zeros included, under one pool whose buffers are dirty
        # from the trial before
        rng = np.random.default_rng([55, labeled == "all", normalize])
        pool = ArrayPool()
        for trial in range(12):
            bank, f_s, y_s, f_t, y_t, tau = contrastive_case(rng, "full")
            c = bank.v_source.shape[0]
            if labeled == "all":
                y_s, y_t = rng.integers(0, c, size=y_s.size), rng.integers(0, c, size=y_t.size)
            else:
                y_s[0], y_t[0], y_s[-1] = -1, -1, 0
            for f in (f_s, f_t):
                f[rng.random(f.shape) < 0.2] = -0.0
                f[rng.random(f.shape) < 0.1] = 0.0
            outs = []
            for fn, p in ((contrastive_combined, pool), (contrastive_chain, None)):
                x_s, x_t = columns(f_s, requires_grad=True), columns(f_t, requires_grad=True)
                with Graph(pool=p) as g:
                    loss = fn(x_s, y_s, x_t, y_t, bank, tau, include_positive=bool(trial % 2), normalize=normalize)
                    backward(scale(loss, -0.5), g)
                outs.append([a.tobytes() for a in (loss.data, x_s.grad, x_t.grad)])
                if p is not None:
                    pool.reclaim()
            assert outs[0] == outs[1], trial

    @pytest.mark.parametrize("normalize", [False, True])
    def test_dominant_excluded_positive(self, normalize):
        # each positive leads by at least 1000 in both tables, far past exp's
        # range, under the error state a training iteration runs in
        rng = np.random.default_rng([54, normalize])
        bank = MemoryBank(class_count=4, feature_dim=6)
        bank.v_source[:] = np.linalg.qr(rng.normal(size=(6, 4)))[0].T
        target = bank.v_source + rng.uniform(-0.02, 0.02, size=(4, 6))
        bank.v_target[:] = target / np.linalg.norm(target, axis=1, keepdims=True)
        bank.init_source[:] = True
        bank.init_target[:] = True
        tau = 5e-4
        f_s, y_s = dominant_rows(rng, 20, [bank.v_source, bank.v_target], tau)
        f_t, y_t = dominant_rows(rng, 15, [bank.v_source, bank.v_target], tau)
        outs = []
        with np.errstate(over="raise", invalid="raise"):
            for fn in (contrastive_combined, contrastive_chain):
                x_s, x_t = columns(f_s, requires_grad=True), columns(f_t, requires_grad=True)
                with Graph() as g:
                    loss = fn(x_s, y_s, x_t, y_t, bank, tau, include_positive=False, normalize=normalize)
                    backward(scale(loss, 1e-3), g)
                outs.append((loss.data, x_s.grad, x_t.grad))
        (got, got_s, got_t), (want, want_s, want_t) = outs
        assert np.isfinite(got) and np.isfinite(got_s).all() and np.isfinite(got_t).all()
        assert np.array_equal(got, want)
        assert np.array_equal(got_s, want_s) and np.array_equal(got_t, want_t)
        oracle = combined_oracle(f_s, y_s, f_t, y_t, bank, tau, include_positive=False)
        np.testing.assert_allclose(got, oracle, rtol=0, atol=1e-10)


class TestTotalObjective:
    def test_weighted_sum(self):
        total = total_objective(Tensor(1.0), Tensor(0.5), Tensor(2.0), 1e-3, 1e-3)
        np.testing.assert_allclose(total.item(), 1.0 + 0.5e-3 + 2e-3, atol=1e-15)

    def test_zero_weights_reduce_to_ce(self):
        total = total_objective(Tensor(0.7), Tensor(123.0), Tensor(456.0), 0.0, 0.0)
        assert total.item() == 0.7

    def test_breakdown_identity_invariant(self):
        # the total is ce + (lambda_ent * entropy + lambda_contra * contra), in that order
        rng = np.random.default_rng(45)
        for _ in range(20):
            ce, ent, con = rng.uniform(0, 5, size=3)
            le, lc = rng.uniform(0, 1, size=2)
            total = total_objective(Tensor(ce), Tensor(ent), Tensor(con), le, lc)
            assert total.item() == ce + (le * ent + lc * con)

    def test_tensor_inputs_stay_differentiable(self):
        x = Tensor([2.0], requires_grad=True)
        with Graph() as g:
            ce = reduce_mean(mul(x, x))
            total = total_objective(ce, Tensor(1.0), Tensor(0.0), 0.5, 0.5)
            backward(total, g)
        np.testing.assert_allclose(x.grad, [4.0 / 1.0])  # only the ce path touches x
        assert total.item() == pytest.approx(4.0 + 0.5)

    def test_negative_weight_rejected(self):
        with pytest.raises(ContractError):
            total_objective(Tensor(1.0), Tensor(1.0), Tensor(1.0), -0.1, 0.0)


def objective_chain(ce, entropy, contra, lambda_ent, lambda_contra):
    """The chain `total_objective`'s one node replaced: two scales under two adds."""
    return add(ce, add(scale(entropy, lambda_ent), scale(contra, lambda_contra)))


class TestObjectiveMatchesChain:
    """`total_objective` is one tape node that matches `objective_chain` bit
    for bit: its value, and each input's gradient under an upstream weight."""

    @staticmethod
    def run(fn, values, live, lambdas, weight):
        """(value bytes, each input's gradient bytes or None, tape length)."""
        inputs = [Tensor(v, requires_grad=r) for v, r in zip(values, live)]
        with Graph() as g:
            total = fn(*inputs, *lambdas)
            backward(scale(total, weight), g)
        return total.data.tobytes(), [None if t.grad is None else t.grad.tobytes() for t in inputs], len(g)

    def compare(self, values, live, lambdas, weight):
        got = self.run(total_objective, values, live, lambdas, weight)
        want = self.run(objective_chain, values, live, lambdas, weight)
        assert got[:2] == want[:2]
        assert got[2] == 2  # the objective node and the upstream scale
        return got

    def test_random_values_and_weights(self):
        rng = np.random.default_rng(46)
        for _ in range(200):
            values = rng.normal(scale=10.0 ** rng.uniform(-3, 3), size=3)
            lambdas = rng.uniform(0, 2, size=2) * 10.0 ** rng.integers(-4, 1, size=2)
            self.compare(values, (True, True, True), lambdas, float(rng.normal()))

    @pytest.mark.parametrize("lambdas", [(0.0, 0.0), (0.0, 1e-3), (1e-3, 0.0)])
    def test_zero_weights(self, lambdas):
        _, grads, _ = self.compare((0.7, -1.3, 2.9), (True, True, True), lambdas, 1.5)
        assert [np.frombuffer(b)[0] for b in grads] == [1.5, 1.5 * lambdas[0], 1.5 * lambdas[1]]

    @pytest.mark.parametrize("live", [(True, False, True), (True, True, False), (True, False, False)])
    def test_disabled_terms_as_constant_zero(self, live):
        # a disabled term enters as Tensor(0.0) and gets no gradient
        values = [v if on else 0.0 for v, on in zip((0.7, 0.4, 3.2), live)]
        _, grads, _ = self.compare(values, live, (1e-3, 1e-3), 1.0)
        assert [g is None for g in grads] == [not on for on in live]

    @pytest.mark.parametrize("weight", [1.0, -0.0, 0.0, -2.5])
    def test_negative_zero_inputs(self, weight):
        for values in ((-0.0, -0.0, -0.0), (0.0, -0.0, -0.0), (-0.0, 0.0, -0.0), (-0.0, -0.0, 0.0)):
            for lambdas in ((0.0, 0.0), (1e-3, 0.5)):
                self.compare(values, (True, True, True), lambdas, weight)


def test_battery_case_names():
    # acceptance criterion 1 reports these names; the battery keeps them
    # and their order
    names = [
        "cross_entropy",
        "entropy_loss",
        "info_nce",
        "contrastive_combined/source",
        "contrastive_combined/target",
        "info_nce+head[none]",
        "info_nce+head[byol]",
        "info_nce/exclude_positive",
        "info_nce/normalize",
        "affine/weight",
        "affine/bias",
        "cross_entropy/saturated",
        "entropy_from_logits",
    ]
    assert [name for name, _ in BATTERY_CASES] == names
    assert list(loss_battery(instances=1, seed=0)) == names


def two_center_bank():
    """A bank whose two source and two target rows are initialized."""
    bank = MemoryBank(class_count=2, feature_dim=2)
    bank.v_source[:] = bank.v_target[:] = [[1.0, 0.0], [0.0, 1.0]]
    bank.init_source[:] = bank.init_target[:] = True
    return bank


NON_FINITE_CALLS = {
    "info_nce/tau=nan": lambda: info_nce(Tensor(np.eye(2)), np.arange(2), np.eye(2), tau=math.nan),
    "info_nce/tau=inf": lambda: info_nce(Tensor(np.eye(2)), np.arange(2), np.eye(2), tau=math.inf),
    "contrastive_combined/tau=nan": lambda: contrastive_combined(
        Tensor(np.eye(2)), np.arange(2), Tensor(np.eye(2)), np.arange(2), two_center_bank(), tau=math.nan),
    "contrastive_combined/tau=inf": lambda: contrastive_combined(
        Tensor(np.eye(2)), np.arange(2), Tensor(np.eye(2)), np.arange(2), two_center_bank(), tau=math.inf),
    "total_objective/lambda_ent=nan": lambda: total_objective(
        Tensor(1.0), Tensor(1.0), Tensor(1.0), math.nan, 1.0),
    "total_objective/lambda_contra=nan": lambda: total_objective(
        Tensor(1.0), Tensor(1.0), Tensor(1.0), 1.0, math.nan),
    "total_objective/lambda_ent=inf": lambda: total_objective(
        Tensor(1.0), Tensor(1.0), Tensor(1.0), math.inf, 1.0),
    "total_objective/lambda_contra=inf": lambda: total_objective(
        Tensor(1.0), Tensor(1.0), Tensor(1.0), 1.0, math.inf),
    "assign_pseudo_labels/threshold=nan": lambda: assign_pseudo_labels(
        np.eye(2), two_center_bank(), threshold=math.nan),
    "adain_transfer/eps=nan": lambda: adain_transfer(
        np.ones((1, 1, 2, 2)), ChannelStats(np.zeros(1), np.ones(1)), eps=math.nan),
    "adain_transfer/eps=inf": lambda: adain_transfer(
        np.ones((1, 1, 2, 2)), ChannelStats(np.zeros(1), np.ones(1)), eps=math.inf),
}


@pytest.mark.parametrize("call", NON_FINITE_CALLS.values(), ids=NON_FINITE_CALLS.keys())
def test_non_finite_hyperparameter_rejected(call):
    # NaN fails every comparison, so each check is written as the negation
    # of what a valid value satisfies; an infinite threshold stays valid
    # (test_membank.py::test_infinite_threshold_labels_nothing)
    with pytest.raises(ContractError):
        call()
