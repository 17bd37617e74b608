"""Memory bank: batch means, momentum updates, and distance-gap pseudo-labels."""

import copy

import numpy as np
import pytest

from cfalign import kernels
from cfalign.errors import ContractError, DimensionError
from cfalign.membank import (
    MemoryBank,
    assign_pseudo_labels,
    class_centers,
    pseudo_label_accuracy,
    update_bank,
)
from step_reference import class_centers_reference, update_bank_reference


def assign_oracle(features, centers, init_mask, threshold):
    """Row-by-row brute force over initialized centers only."""
    active = np.flatnonzero(init_mask)
    out = np.empty(len(features), dtype=np.int64)
    for i, f in enumerate(features):
        dists = sorted((np.linalg.norm(f - centers[k]), k) for k in active)
        (dmin, kmin), (dsec, _) = dists[0], dists[1]
        out[i] = kmin if dsec - dmin > threshold else -1
    return out


def make_bank(v_source, init_source, alpha=0.9):
    v_source = np.asarray(v_source, dtype=float)
    c, d = v_source.shape
    bank = MemoryBank(class_count=c, feature_dim=d, alpha=alpha)
    bank.v_source[:] = v_source
    bank.init_source[:] = init_source
    return bank


class TestClassCenters:
    def test_known_means(self):
        f = np.array([[1.0, 3.0, 5.0], [1.0, 3.0, 5.0]])
        means, counts = class_centers(f, np.array([0, 0, 1]), 2)
        np.testing.assert_array_equal(means, [[2.0, 2.0], [5.0, 5.0]])
        np.testing.assert_array_equal(counts, [2, 1])

    def test_absent_class_zero_row(self):
        means, counts = class_centers(np.ones((3, 2)), np.array([2, 2]), 4)
        assert counts.tolist() == [0, 0, 2, 0]
        assert (means[[0, 1, 3]] == 0).all()

    def test_ignored_labels_skipped(self):
        f = np.array([[1.0, 100.0, 3.0]])
        means, counts = class_centers(f, np.array([0, -1, 0]), 1)
        np.testing.assert_allclose(means, [[2.0]])
        np.testing.assert_array_equal(counts, [2])

    def test_permutation_invariant(self):
        rng = np.random.default_rng(20)
        f = rng.normal(size=(50, 4))
        labels = rng.integers(0, 5, size=50)
        perm = rng.permutation(50)
        a, ca = class_centers(f.T, labels, 5)
        b, cb = class_centers(f[perm].T, labels[perm], 5)
        np.testing.assert_allclose(a, b, atol=1e-12)
        np.testing.assert_array_equal(ca, cb)

    def test_column_blocks_match_joined_rows_bitwise(self):
        # each class adds its pixels in the same order either way, so the
        # (d, n) blocks' sums (and the means) equal the stacked features' to
        # the bit
        rng = np.random.default_rng(21)
        for n, d_f, d_h, c in [(1, 1, 1, 2), (37, 8, 8, 5), (500, 3, 11, 7), (4096, 8, 16, 5)]:
            f = rng.normal(size=(d_f, n)) * 10.0 ** rng.integers(-6, 7, size=(1, n))
            h = rng.normal(size=(d_h, n))
            labels = rng.integers(-1, c, size=n)
            joined = np.vstack([f, h])
            want_sums, want_counts = kernels.label_sums(joined, labels, c)
            parts = [kernels.label_sums(block, labels, c) for block in (f, h)]
            assert np.hstack([s for s, _ in parts]).tobytes() == want_sums.tobytes()
            assert all(counts.tolist() == want_counts.tolist() for _, counts in parts)
            means, counts = class_centers((f, h), labels, c)
            want_means, _ = class_centers(joined, labels, c)
            assert means.tobytes() == want_means.tobytes()
            assert counts.tolist() == want_counts.tolist()


class TestUpdateBank:
    def test_momentum_blend(self):
        bank = make_bank([[0.0, 0.0], [0.0, 0.0]], [True, False], alpha=0.9)
        means = np.array([[10.0, 10.0], [0.0, 0.0]])
        update_bank(bank, means, np.array([4, 0]), "source")
        np.testing.assert_allclose(bank.v_source[0], [1.0, 1.0])

    def test_first_observation_taken_verbatim(self):
        bank = MemoryBank(class_count=2, feature_dim=2, alpha=0.9)
        means = np.array([[7.0, -3.0], [0.0, 0.0]])
        update_bank(bank, means, np.array([5, 0]), "target")
        np.testing.assert_array_equal(bank.v_target[0], [7.0, -3.0])
        assert bank.init_target.tolist() == [True, False]

    def test_alpha_one_freezes_initialized_rows(self):
        bank = make_bank([[2.0], [5.0]], [True, True], alpha=1.0)
        update_bank(bank, np.array([[100.0], [100.0]]), np.array([1, 1]), "source")
        np.testing.assert_array_equal(bank.v_source, [[2.0], [5.0]])

    def test_alpha_zero_replaces(self):
        bank = make_bank([[2.0], [5.0]], [True, True], alpha=0.0)
        update_bank(bank, np.array([[100.0], [-1.0]]), np.array([1, 1]), "source")
        np.testing.assert_array_equal(bank.v_source, [[100.0], [-1.0]])

    def test_zero_count_rows_untouched(self):
        bank = make_bank([[2.0], [5.0]], [True, True])
        update_bank(bank, np.array([[99.0], [99.0]]), np.array([0, 0]), "source")
        np.testing.assert_array_equal(bank.v_source, [[2.0], [5.0]])

    def test_closed_form_repeated_updates(self):
        # n identical updates: V_n = alpha^n V_0 + (1 - alpha^n) M
        rng = np.random.default_rng(21)
        for n in [1, 3, 10, 100]:
            alpha = float(rng.uniform(0.1, 0.99))
            v0 = rng.normal(size=(1, 3))
            m = rng.normal(size=(1, 3))
            bank = make_bank(v0, [True], alpha=alpha)
            for _ in range(n):
                update_bank(bank, m, np.array([1]), "source")
            expected = alpha**n * v0 + (1 - alpha**n) * m
            np.testing.assert_allclose(bank.v_source, expected, atol=1e-10)

    def test_invalid_momentum_rejected(self):
        with pytest.raises(ContractError):
            MemoryBank(class_count=2, feature_dim=2, alpha=1.5)

    def test_no_nan_from_finite_inputs(self):
        rng = np.random.default_rng(22)
        bank = MemoryBank(class_count=4, feature_dim=3, alpha=0.9)
        for _ in range(50):
            f = rng.normal(size=(20, 3)) * 100
            labels = rng.integers(-1, 4, size=20)
            means, counts = class_centers(f.T, labels, 4)
            update_bank(bank, means, counts, "source")
            update_bank(bank, means, counts, "target")
        assert np.isfinite(bank.v_source).all() and np.isfinite(bank.v_target).all()


class TestMatchesReference:
    """`class_centers` and `update_bank` against the gather-and-scatter forms
    of ``tests/step_reference.py``, bit for bit."""

    def test_class_centers_bitwise(self):
        rng = np.random.default_rng(31)
        for n, d, c in [(1, 1, 2), (37, 8, 5), (500, 3, 7), (1024, 16, 5)]:
            for _ in range(5):
                f = rng.normal(size=(d, n)) * 10.0 ** rng.integers(-6, 7, size=(1, n))
                labels = rng.integers(-1, c, size=n)
                labels[labels == rng.integers(0, c)] = -1  # one class absent
                got, got_counts = class_centers(f, labels, c)
                want, want_counts = class_centers_reference(f, labels, c)
                assert got.tobytes() == want.tobytes()
                assert got_counts.tobytes() == want_counts.tobytes()
            unlabeled = -np.ones(n, dtype=np.int64)
            assert class_centers(f, unlabeled, c)[0].tobytes() == class_centers_reference(f, unlabeled, c)[0].tobytes()

    @pytest.mark.parametrize("view", [False, True], ids=["bank", "columns"])
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_update_bank_bitwise(self, alpha, view):
        # rows seen before, seen for the first time and absent from the
        # batch, updated through the whole bank or a view of its last columns
        rng = np.random.default_rng(32)
        for _ in range(40):
            c, d = int(rng.integers(1, 8)), int(rng.integers(1, 5))
            bank = MemoryBank(c, 2 * d, alpha=alpha)
            for rows, init in (bank.rows("source"), bank.rows("target")):
                rows[:] = rng.normal(size=rows.shape)
                init[:] = rng.random(c) < 0.5
            ref = copy.deepcopy(bank)
            got, want = (bank.columns(slice(d, None)), ref.columns(slice(d, None))) if view else (bank, ref)
            for domain in ("source", "target", "source"):
                means = rng.normal(size=(c, got.feature_dim))
                counts = rng.integers(0, 3, size=c)
                update_bank(got, means, counts, domain)
                update_bank_reference(want, means, counts, domain)
                for name in ("v_source", "v_target", "init_source", "init_target"):
                    assert getattr(bank, name).tobytes() == getattr(ref, name).tobytes(), name


class TestAssignPseudoLabels:
    def test_clear_margin_gets_label(self):
        bank = make_bank([[0.0, 0.0], [10.0, 10.0]], [True, True])
        labels = assign_pseudo_labels(np.array([[1.0, 1.0]]), bank, 0.05)
        assert labels.tolist() == [0]

    def test_tied_distance_stays_unlabeled(self):
        bank = make_bank([[0.0, 0.0], [10.0, 0.0]], [True, True])
        labels = assign_pseudo_labels(np.array([[5.0, 0.0]]), bank, 0.05)
        assert labels.tolist() == [-1]

    def test_uninitialized_rows_never_assigned(self):
        bank = make_bank([[0.0, 0.0], [10.0, 10.0], [1.2, 1.2]], [True, True, False])
        labels = assign_pseudo_labels(np.array([[1.0, 1.0]]), bank, 0.05)
        assert labels.tolist() == [0]  # row 2 is closest but not initialized

    def test_infinite_threshold_labels_nothing(self):
        bank = make_bank([[0.0, 0.0], [10.0, 10.0]], [True, True])
        labels = assign_pseudo_labels(np.random.default_rng(0).normal(size=(10, 2)), bank, np.inf)
        assert (labels == -1).all()

    def test_needs_two_initialized_centers(self):
        bank = make_bank([[0.0, 0.0], [1.0, 1.0]], [True, False])
        with pytest.raises(ContractError):
            assign_pseudo_labels(np.zeros((1, 2)), bank, 0.05)

    def test_negative_threshold_rejected(self):
        bank = make_bank([[0.0], [1.0]], [True, True])
        with pytest.raises(ContractError):
            assign_pseudo_labels(np.zeros((1, 1)), bank, -0.1)

    def test_against_brute_force(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            c = int(rng.integers(2, 10))
            d = int(rng.integers(1, 6))
            n = int(rng.integers(1, 100))
            init = np.zeros(c, dtype=bool)
            init[rng.choice(c, size=int(rng.integers(2, c + 1)), replace=False)] = True
            bank = make_bank(rng.normal(size=(c, d)), init)
            f = rng.normal(size=(n, d))
            t = float(rng.uniform(0, 1))
            got = assign_pseudo_labels(f, bank, t)
            want = assign_oracle(f, bank.v_source, init, t)
            np.testing.assert_array_equal(got, want)

    def test_against_brute_force_across_blocks(self):
        rng = np.random.default_rng(25)
        init = np.array([True, True, False, True, True, True])
        bank = make_bank(rng.normal(size=(6, 8)), init)
        f = rng.normal(size=(8197, 8))
        got = assign_pseudo_labels(f, bank, 0.1)
        np.testing.assert_array_equal(got, assign_oracle(f, bank.v_source, init, 0.1))

    def test_assigned_labels_point_at_initialized_rows(self):
        rng = np.random.default_rng(24)
        init = np.array([True, False, True, True, False])
        bank = make_bank(rng.normal(size=(5, 3)), init)
        labels = assign_pseudo_labels(rng.normal(size=(200, 3)), bank, 0.01)
        assigned = labels[labels >= 0]
        assert set(assigned.tolist()) <= {0, 2, 3}


def gather_accuracy(pseudo, truth):
    """Accuracy as the mean over the gathered assigned labels, and their count."""
    mask = pseudo >= 0
    if not mask.any():
        return 0.0, 0
    return float((pseudo[mask] == truth[mask]).mean()), int(mask.sum())


class TestPseudoLabelAccuracy:
    @staticmethod
    def assert_bitwise_gather(pseudo, truth):
        acc, assigned = pseudo_label_accuracy(pseudo, truth)
        want_acc, want_assigned = gather_accuracy(pseudo, truth)
        assert type(acc) is float and type(assigned) is int
        assert np.float64(acc).tobytes() == np.float64(want_acc).tobytes(), (acc, want_acc)
        assert assigned == want_assigned

    def test_bitwise_equal_to_gather_mean(self):
        rng = np.random.default_rng(27)
        for _ in range(300):
            n = int(rng.integers(1, 60_000)) if rng.random() < 0.1 else int(rng.integers(1, 500))
            classes = int(rng.integers(1, 8))
            pseudo = rng.integers(-1, classes, size=n)
            truth = rng.integers(0, classes, size=n)
            self.assert_bitwise_gather(pseudo, truth)

    @pytest.mark.parametrize(
        "pseudo, truth",
        [
            (np.array([], dtype=np.int64), np.array([], dtype=np.int64)),
            (np.full(7, -1), np.arange(7)),
            (np.array([0, 1, 2, -1, 2]), np.array([0, -1, -2, -1, 2])),
            (np.array([0, 1, 2, 3]), np.array([0.0, 1.5, 2.0, -3.0])),
            (np.arange(51_200) % 5, np.arange(51_200) % 5),
            (np.array([[0, -1], [3, 3]]), np.array([[0, 1], [3, 2]])),
        ],
        ids=["empty", "all-unassigned", "negative-truth", "float-truth", "all-correct", "2-d"],
    )
    def test_edge_cases_match_gather_mean(self, pseudo, truth):
        self.assert_bitwise_gather(pseudo, truth)

    def test_half_right(self):
        acc = pseudo_label_accuracy(np.array([0, 1, -1]), np.array([0, 0, 2]))
        assert acc == (0.5, 2)

    def test_nothing_assigned(self):
        acc = pseudo_label_accuracy(np.array([-1, -1]), np.array([0, 1]))
        assert acc.accuracy == 0.0 and acc.assigned == 0

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            pseudo_label_accuracy(np.array([0, 1]), np.array([0]))
