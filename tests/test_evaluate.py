"""IOU computation against a set-based oracle, plus end-to-end evaluation."""

import numpy as np
import pytest

from cfalign.config import RunConfig
from cfalign.data import SynthSpec, generate_dataset
from cfalign.errors import ContractError
import cfalign.evaluate as evaluate_module
from cfalign.evaluate import evaluate, eval_to_json, iou_from_confusion
from cfalign.kernels import confusion
from cfalign.model import predict_labels
from cfalign.train import init_state, train


def iou_oracle(truth, pred, classes):
    """Per-class IOU straight from set definitions: |T∩P| / |T∪P|."""
    truth = np.asarray(truth)
    pred = np.asarray(pred)
    per_class = []
    for c in range(classes):
        t = truth == c
        p = pred == c
        union = (t | p).sum()
        per_class.append(float((t & p).sum() / union) if union else None)
    present = [v for v in per_class if v is not None]
    return per_class, float(np.mean(present))


class TestIou:
    def test_hand_counted_case(self):
        truth = np.array([0, 0, 1, 1])
        pred = np.array([0, 1, 1, 1])
        per_class, miou = iou_from_confusion(confusion(pred, truth, 2))
        assert per_class[0] == pytest.approx(1 / 2)
        assert per_class[1] == pytest.approx(2 / 3)
        assert miou == pytest.approx(7 / 12)

    def test_perfect_predictions(self):
        truth = np.array([0, 1, 2, 1, 0])
        per_class, miou = iou_from_confusion(confusion(truth, truth, 3))
        assert per_class == [1.0, 1.0, 1.0]
        assert miou == 1.0

    def test_binary_complement(self):
        truth = np.array([0, 0, 1, 1])
        pred = 1 - truth
        per_class, miou = iou_from_confusion(confusion(pred, truth, 2))
        assert per_class == [0.0, 0.0]
        assert miou == 0.0

    def test_absent_class_is_none_and_excluded(self):
        truth = np.array([0, 0, 1])
        pred = np.array([0, 1, 1])
        per_class, miou = iou_from_confusion(confusion(pred, truth, 3))
        assert per_class[2] is None
        assert miou == pytest.approx((per_class[0] + per_class[1]) / 2)

    def test_orientation(self):
        # truth indexes rows: missing a true pixel is FN, inventing one is FP
        truth = np.array([0, 1])
        pred = np.array([1, 1])
        per_class, _ = iou_from_confusion(confusion(pred, truth, 2))
        assert per_class == [0.0, 0.5]

    def test_matches_set_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            classes = int(rng.integers(2, 7))
            n = int(rng.integers(1, 400))
            truth = rng.integers(0, classes, size=n)
            pred = rng.integers(0, classes, size=n)
            got_per, got_miou = iou_from_confusion(confusion(pred, truth, classes))
            want_per, want_miou = iou_oracle(truth, pred, classes)
            assert got_per == pytest.approx(want_per)
            assert got_miou == pytest.approx(want_miou, abs=1e-12)

    def test_all_empty_unions_rejected(self):
        with pytest.raises(ContractError):
            iou_from_confusion(np.zeros((3, 3), dtype=np.int64))

    def test_non_square_rejected(self):
        with pytest.raises(ContractError):
            iou_from_confusion(np.zeros((2, 3)))


@pytest.fixture(scope="module")
def tiny_setup():
    spec = SynthSpec(height=12, width=12, train_images=24, eval_images=8, regions=4, seed=9)
    data = generate_dataset(spec)
    config = RunConfig(seed=9, iterations=0, hidden_dim=12, feature_dim=8)
    state = init_state(config, spec.classes, spec.channels)
    return data, config, state


class TestEvaluate:
    def test_record_shape(self, tiny_setup):
        data, _, state = tiny_setup
        record = evaluate(state, data.target_eval)
        assert len(record.per_class_iou) == data.spec.classes
        assert 0.0 <= record.miou <= 1.0
        assert record.pixel_count == data.target_eval.labels.size

    def test_untrained_bank_reports_no_assignments(self, tiny_setup):
        data, _, state = tiny_setup
        record = evaluate(state, data.target_eval)
        assert record.pseudo_acc == 0.0
        assert record.pseudo_assigned == 0

    def test_trained_bank_assigns(self, tiny_setup):
        data, config, _ = tiny_setup
        state, _ = train(config.replace(iterations=60, contrastive=True), data)
        record = evaluate(state, data.target_eval)
        assert record.pseudo_assigned > 0
        assert 0.0 <= record.pseudo_acc <= 1.0

    def test_class_count_mismatch(self, tiny_setup):
        data, _, state = tiny_setup
        bad = type(data.target_eval)(
            images=data.target_eval.images,
            labels=np.full_like(data.target_eval.labels, 7),
        )
        with pytest.raises(ContractError):
            evaluate(state, bad)

    def test_json_document(self, tiny_setup):
        import json

        data, config, state = tiny_setup
        record = evaluate(state, data.target_eval)
        doc = json.loads(eval_to_json(record, config))
        assert doc["miou"] == record.miou
        assert doc["per_class_iou"] == record.per_class_iou
        assert doc["config"]["seed"] == config.seed

    def test_deterministic(self, tiny_setup):
        data, config, state = tiny_setup
        a = evaluate(state, data.target_eval)
        b = evaluate(state, data.target_eval)
        assert a == b

    def test_confusion_rows_are_truth(self, tiny_setup, monkeypatch):
        # an untrained model's errors are lopsided, so the matrix is asymmetric
        # and a [pred, truth] matrix would differ from the [truth, pred] one
        data, _, state = tiny_setup
        seen = []
        monkeypatch.setattr(
            evaluate_module, "iou_from_confusion", lambda m: seen.append(m) or iou_from_confusion(m)
        )
        evaluate(state, data.target_eval)
        truth = data.target_eval.labels.reshape(-1)
        pred = predict_labels(state.model, data.target_eval.images).reshape(-1)
        want = np.zeros((state.classes, state.classes), dtype=np.int64)
        np.add.at(want, (truth, pred), 1)
        assert not np.array_equal(want, want.T)
        np.testing.assert_array_equal(seen[0], want)
