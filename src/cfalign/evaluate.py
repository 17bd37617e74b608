"""Evaluation: per-class intersection-over-union, mIOU, and pseudo-label accuracy.

IOU for class c is TP/(TP+FP+FN) over all evaluated pixels; classes whose
union is empty (never predicted, never true) are reported as None and left
out of the mean. Pseudo-label accuracy reuses the training-time assignment
rule against the held-out truth.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .adain import to_pixels
from .data import Split
from .errors import ContractError, DivergenceError
from .kernels import _BLOCK, confusion
from .membank import assign_pseudo_labels, pseudo_label_accuracy
from .model import SegModel, model_features, predict_labels
from .tensor import Tensor
from .train import TrainState

__all__ = ["EvalRecord", "iou_from_confusion", "evaluate", "eval_to_json", "save_eval_json"]


@dataclass
class EvalRecord:
    """Final quality numbers for one checkpoint on one labeled split."""

    per_class_iou: list  # float per class, None where the union is empty
    miou: float
    pseudo_acc: float
    pseudo_assigned: int
    pixel_count: int


def iou_from_confusion(matrix: np.ndarray) -> tuple[list, float]:
    """Per-class IOU and their mean from a (truth, prediction) count matrix."""
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ContractError(f"confusion matrix must be square, got shape {matrix.shape}")
    tp = np.diag(matrix).astype(np.float64)
    fn = matrix.sum(axis=1) - tp
    fp = matrix.sum(axis=0) - tp
    union = tp + fp + fn
    per_class = [float(tp[c] / union[c]) if union[c] > 0 else None for c in range(len(tp))]
    present = [v for v in per_class if v is not None]
    if not present:
        raise ContractError("every class has an empty union; nothing to average")
    return per_class, float(np.mean(present))


def _row_blocks_exact(model: SegModel, rows_per_image: int) -> bool:
    """Whether x @ w over a block of whole images gives the same bytes as
    the same rows of the whole split's product, for every layer k -> m.

    Measured with the OpenBLAS numpy 2.4.6 bundles, on a 2-core x86-64
    host, for k and m up to 40 (and spot checks to 256) over blocks of 2 to
    8,192 rows at aligned and unaligned offsets: equal when k < 8 or m % 8
    is 0, 5, 6 or 7. Apart in the last bits (up to 1.8e-15 on unit-scale
    rows) for k >= 16 with m % 8 in 1..4, such as 16 -> 9 or 32 -> 2, and
    for k >= 8 with m = 1, because OpenBLAS picks its kernel by problem
    size. A 1-row block takes numpy's matrix-vector path and is apart at
    every shape. The trainer's 3 -> 16 -> 8 -> 5 layers are all inside.
    """
    layers = (
        (model.channels, model.hidden_dim),
        (model.hidden_dim, model.feature_dim),
        (model.feature_dim, model.classes),
    )
    return rows_per_image >= 2 and all(k < 8 or m % 8 in (0, 5, 6, 7) for k, m in layers)


def evaluate(state: TrainState, split: Split) -> EvalRecord:
    """Score a trained state on a labeled split.

    The split runs in blocks of whole images, about `kernels._BLOCK` pixel
    rows each: backbone, classifier, labels and pseudo-labels finish one
    block while its arrays are still in cache, and each block reuses the
    memory the last one freed. Every step is row-local, so the labels are
    bitwise those of one pass over the whole split, as long as the matmuls
    are; where a layer's shape is outside the measured region
    (`_row_blocks_exact`), the block is the whole split.

    Evaluation images are never style-transferred: the point is performance
    on the raw target domain. Raises DivergenceError when the forward pass
    overflows or produces an invalid value, as parameters blown up by the
    last training step make it do.
    """
    labels = split.labels.reshape(-1)
    if labels.size == 0:
        raise ContractError("evaluation split is empty")
    if labels.max() >= state.classes or labels.min() < 0:
        raise ContractError(
            f"split labels use classes outside [0, {state.classes}); "
            f"found range [{labels.min()}, {labels.max()}]"
        )
    images, model = split.images, state.model
    b, _, h, w = images.shape
    per_block = max(1, _BLOCK // (h * w)) if _row_blocks_exact(model, h * w) else b
    preds = np.empty(labels.size, dtype=np.intp)
    pseudo = None
    if int(state.bank.init_source.sum()) >= 2:
        bank = state.feature_bank()
        pseudo = np.empty(labels.size, dtype=np.int64)
    try:
        with np.errstate(over="raise", invalid="raise"):
            for i in range(0, b, per_block):
                block = images[i : i + per_block]
                lo, hi = i * h * w, (i + len(block)) * h * w
                # one backbone pass feeds both the predictions and the pseudo-labels
                feats = model_features(model, Tensor(to_pixels(block)))
                preds[lo:hi] = predict_labels(model, block, features=feats).reshape(-1)
                if pseudo is not None:
                    pseudo[lo:hi] = assign_pseudo_labels(feats.data, bank, state.config.threshold)
    except FloatingPointError as exc:
        raise DivergenceError(f"evaluation forward pass left the finite range: {exc}") from exc
    per_class, miou = iou_from_confusion(confusion(preds, labels, state.classes))

    pseudo_acc, assigned = 0.0, 0
    if pseudo is not None:
        pseudo_acc, assigned = pseudo_label_accuracy(pseudo, labels)
    return EvalRecord(
        per_class_iou=per_class,
        miou=miou,
        pseudo_acc=pseudo_acc,
        pseudo_assigned=assigned,
        pixel_count=int(labels.size),
    )


def eval_to_json(record: EvalRecord, config) -> str:
    """Render the final-results document; key order is fixed for determinism."""
    payload = {
        "per_class_iou": record.per_class_iou,
        "miou": record.miou,
        "pseudo_acc": record.pseudo_acc,
        "pseudo_assigned": record.pseudo_assigned,
        "pixel_count": record.pixel_count,
        "config": config.to_dict(),
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def save_eval_json(record: EvalRecord, config, path: str | Path) -> None:
    Path(path).write_text(eval_to_json(record, config))
