"""IOU computation against a set-based oracle, plus end-to-end evaluation."""

import re
import tracemalloc

import numpy as np
import pytest

from cfalign.adain import to_pixels
from cfalign.config import BLOCK, RunConfig
from cfalign.data import Split, SynthSpec, generate_dataset
from cfalign.errors import ContractError, DimensionError, DivergenceError
import cfalign.evaluate as evaluate_module
from cfalign.evaluate import EvalRecord, evaluate, eval_to_json, iou_from_confusion
from cfalign.kernels import confusion
from cfalign.membank import assign_pseudo_labels, pseudo_label_accuracy
import cfalign.model as model_module
from cfalign.model import model_features, model_logits, model_probs, predict_labels
from cfalign.tensor import Tensor
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

    @pytest.mark.parametrize("bad", ["fewer-labels", "sides-swapped"])
    def test_labels_must_match_images(self, tiny_setup, bad):
        # 5 x 7 images: swapping the label sides keeps the pixel count
        data, _, state = tiny_setup
        rng = np.random.default_rng(3)
        images = rng.normal(size=(8, data.spec.channels, 5, 7))
        labels = rng.integers(0, data.spec.classes, size=(8, 5, 7))
        labels = labels[:4] if bad == "fewer-labels" else np.ascontiguousarray(labels.transpose(0, 2, 1))
        with pytest.raises(ContractError, match=r"labels must have shape \(8, 5, 7\)") as info:
            evaluate(state, Split(images=images, labels=labels))
        assert "\n" not in str(info.value)

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
        assert set(doc) == {"config", "miou", "per_class_iou", "pixel_count", "pseudo_acc", "pseudo_assigned"}
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


class TestPredictLabels:
    def test_ties_take_lowest_index(self, tiny_setup, monkeypatch):
        # exact ties, -0.0 against 0.0, and logits 0 and 1e-17, whose
        # probabilities round to a tie: the logits decide
        _, _, state = tiny_setup
        pixels = np.array(
            [[1.0, 3.0, 3.0, 0.0], [-0.0, 0.0, 0.0, -0.0], [2.0, 2.0, 2.0, 2.0], [0.0, 1e-17, -1.0, -1.0]]
        )
        monkeypatch.setattr(model_module, "model_logits", lambda model, features: Tensor(pixels.T.copy()))
        images = np.zeros((1, 3, 2, 2))
        np.testing.assert_array_equal(
            predict_labels(state.model, images, features=Tensor(np.zeros((8, 4)))), [[[1, 0], [0, 1]]]
        )


    @pytest.mark.parametrize(
        "images, features, shapes",
        [
            ((2, 3, 4, 4), (8, 10), [r"\(8, 32\)", r"\(2, 3, 4, 4\)", r"\(8, 10\)"]),
            ((2, 3, 4, 4), (5, 32), [r"\(8, 32\)", r"\(5, 32\)"]),
            ((3, 4, 4), None, [r"\(3, 4, 4\)"]),
            ((3, 4, 4), (8, 16), [r"\(3, 4, 4\)"]),
        ],
        ids=["pixel-count", "feature-width", "3d-images", "3d-images-with-features"],
    )
    def test_mismatched_inputs(self, tiny_setup, monkeypatch, images, features, shapes):
        # a one-line DimensionError naming the shapes, before any forward work
        _, _, state = tiny_setup
        for name in ("model_features", "model_logits"):
            monkeypatch.setattr(model_module, name, lambda *args, name=name: pytest.fail(f"{name} ran"))
        features = None if features is None else Tensor(np.zeros(features))
        with pytest.raises(DimensionError) as info:
            predict_labels(state.model, np.zeros(images), features=features)
        message = str(info.value)
        assert "\n" not in message
        for shape in shapes:
            assert re.search(shape, message), (shape, message)


def reference_eval(state, split):
    """One backbone pass, probabilities and pseudo-labels over the whole
    split at once, as `evaluate` runs each block."""
    feats = model_features(state.model, Tensor(to_pixels(split.images)))
    preds = model_probs(state.model, feats).data.argmax(axis=0)
    pseudo = None
    if int(state.bank.init_source.sum()) >= 2:
        pseudo = assign_pseudo_labels(feats.data.T, state.feature_bank(), state.config.threshold)
    return preds, pseudo


def spy_evaluate(state, split, monkeypatch):
    """Run `evaluate`; return its record, the number of blocks the backbone
    ran on, and the predictions and pseudo-labels it scored."""
    calls = {"model_features": [], "confusion": [], "pseudo_label_accuracy": []}
    for name, seen in calls.items():
        def spy(*args, fn=getattr(evaluate_module, name), seen=seen):
            seen.append(args[0])
            return fn(*args)

        monkeypatch.setattr(evaluate_module, name, spy)
    record = evaluate(state, split)
    return record, len(calls["model_features"]), calls["confusion"][0], calls["pseudo_label_accuracy"][0]


class TestBlockedPass:
    """`evaluate` in blocks of whole images for every shape. Where the
    blocks' matmuls round as the whole split's do, it gives the bytes of
    one whole-split pass: predictions, pseudo-labels and the record."""

    @staticmethod
    def per_block(height, width):
        return max(1, BLOCK // (height * width))

    @pytest.fixture(scope="class", params=[(32, 32), (7, 9), (65, 65), (2, 2)], ids=str)
    def trained(self, request):
        height, width = request.param
        spec = SynthSpec(
            height=height, width=width, train_images=6, regions=3, seed=4,
            eval_images=self.per_block(height, width) + 1,
        )
        data = generate_dataset(spec)
        config = RunConfig(
            seed=4, iterations=20, hidden_dim=12, feature_dim=8, contrastive=True, threshold=0.0
        )
        state, _ = train(config, data)
        assert int(state.bank.init_source.sum()) >= 2  # the pseudo-label pass runs
        return state, data.target_eval

    @pytest.mark.parametrize("count", ["one", "block+1"])
    def test_bitwise_whole_split(self, trained, count, monkeypatch):
        state, split = trained
        if count == "one":
            split = Split(images=split.images[:1], labels=split.labels[:1])
        want_preds, want_pseudo = reference_eval(state, split)
        record, blocks, preds, pseudo = spy_evaluate(state, split, monkeypatch)
        assert blocks == (1 if count == "one" else 2)
        assert preds.dtype == want_preds.dtype and pseudo.dtype == want_pseudo.dtype
        np.testing.assert_array_equal(preds, want_preds)
        np.testing.assert_array_equal(pseudo, want_pseudo)
        assert (want_pseudo >= 0).any()
        labels = split.labels.reshape(-1)
        per_class, miou = iou_from_confusion(confusion(want_preds, labels, state.classes))
        acc, assigned = pseudo_label_accuracy(want_pseudo, labels)
        assert record == EvalRecord(per_class, miou, acc, assigned, labels.size)
        b, _, h, w = split.images.shape
        np.testing.assert_array_equal(
            predict_labels(state.model, split.images), want_preds.reshape(b, h, w)
        )

    def test_labels_are_numpy_argmax_of_logits(self, trained):
        # on every fixture shape, 7 x 9 images among them, where a block holds
        # 130 images and the split 131: the row scan gives numpy's labels
        state, split = trained
        feats = model_features(state.model, Tensor(to_pixels(split.images)))
        want = model_logits(state.model, feats).data.argmax(axis=0)
        b, _, h, w = split.images.shape
        np.testing.assert_array_equal(predict_labels(state.model, split.images), want.reshape(b, h, w))

    def test_narrow_layer_runs_in_blocks(self, monkeypatch):
        # a 16 -> 1 layer takes numpy's matrix-vector path, and on 15 x 15
        # images a block edge cuts an 8-pixel tile; the split still runs as
        # two full blocks and a last one of one image, each scored as itself
        per_block = self.per_block(15, 15)
        spec = SynthSpec(
            height=15, width=15, train_images=6, eval_images=2 * per_block + 1, regions=3, seed=5
        )
        data = generate_dataset(spec)
        config = RunConfig(seed=5, iterations=20, hidden_dim=16, feature_dim=1, contrastive=True)
        state, _ = train(config, data)
        assert int(state.bank.init_source.sum()) >= 2
        split = data.target_eval
        want = [
            reference_eval(state, Split(split.images[i : i + per_block], split.labels[i : i + per_block]))
            for i in range(0, spec.eval_images, per_block)
        ]
        _, blocks, preds, pseudo = spy_evaluate(state, split, monkeypatch)
        assert blocks == len(want) == 3
        np.testing.assert_array_equal(preds, np.concatenate([p for p, _ in want]))
        np.testing.assert_array_equal(pseudo, np.concatenate([q for _, q in want]))

    def test_memory_peak(self):
        # blocks of about 8,192 pixels keep every intermediate small: the
        # peak is about 3.12 MB, where 12,288-pixel blocks reach 5.05 MB and
        # one pass over the 51,200-pixel default split 14.3 MB (both
        # measured before the ReLU ran in place on its layer's output, when
        # 8,192-pixel blocks peaked at 3.64 MB)
        data = generate_dataset(SynthSpec(seed=0))
        state, _ = train(RunConfig(seed=0, iterations=20, contrastive=True), data)
        assert int(state.bank.init_source.sum()) >= 2
        evaluate(state, data.target_eval)
        tracemalloc.start()
        try:
            evaluate(state, data.target_eval)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000, peak

    def test_memory_does_not_grow_with_the_split(self):
        # 7 x 9 images with 40- and 33-wide layers: from 261 to 1,041 images
        # only the per-pixel outputs grow, about 0.8 MB; one pass over the
        # whole split would add about 33 MB
        spec = SynthSpec(height=7, width=9, train_images=6, eval_images=1041, regions=3, seed=6)
        data = generate_dataset(spec)
        config = RunConfig(seed=6, iterations=20, hidden_dim=40, feature_dim=33, contrastive=True)
        state, _ = train(config, data)
        assert int(state.bank.init_source.sum()) >= 2
        split = data.target_eval
        peaks = []
        for count in (261, 1041):
            part = Split(images=split.images[:count], labels=split.labels[:count])
            evaluate(state, part)
            tracemalloc.start()
            try:
                evaluate(state, part)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 1_500_000, peaks

    def test_divergence_in_last_block(self, trained):
        # a finite but huge pixel in the last image only: every block before
        # it is clean, and the last one still overflows
        state, split = trained
        images = split.images.copy()
        images[-1, :, -1, -1] = 1e200
        with pytest.raises(DivergenceError, match="evaluation forward pass"):
            evaluate(state, Split(images=images, labels=split.labels))
