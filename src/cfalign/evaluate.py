"""Evaluation: per-class intersection-over-union, mIOU, and pseudo-label accuracy.

IOU for class c is TP/(TP+FP+FN) over all evaluated pixels; classes whose
union is empty (never predicted, never true) are reported as None and left
out of the mean. Pseudo-label accuracy reuses the training-time assignment
rule against the held-out truth.

A split runs in blocks of whole images, about 8,192 pixels each (8 images
of 32 x 32), for every image size and layer shape. Activations are
feature-major, one column per pixel, so a block is a run of columns and
each layer computes ``w.T @ X`` over it. The output bytes are those of
these blocks.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .adain import to_pixels
from .config import BLOCK
from .data import Split
from .errors import ContractError, DivergenceError
from .kernels import confusion, one_blas_thread
from .membank import assign_pseudo_labels, pseudo_label_accuracy
from .model import model_features, predict_labels
from .tensor import Tensor
from .train import TrainState

__all__ = ["EvalRecord", "iou_from_confusion", "evaluate", "eval_to_json", "save_eval_json"]


@dataclass
class EvalRecord:
    """Final quality numbers for one checkpoint on one labeled split. With
    the config echo, the fields are the keys of ``result.json``."""

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


@one_blas_thread()
def evaluate(state: TrainState, split: Split) -> EvalRecord:
    """Score a trained state on a labeled split.

    The split runs in blocks of whole images, about `config.BLOCK` pixels each:
    backbone, classifier, labels and pseudo-labels finish one block while
    its arrays are still in cache, and each block reuses the memory the last
    one freed, so only the per-pixel outputs grow with the split. Every
    step is local to a pixel's column; the bytes are those of the per-block
    matmuls, at one BLAS thread (`kernels.one_blas_thread`).

    Evaluation images are never style-transferred: the point is performance
    on the raw target domain. Raises DivergenceError when the forward pass
    overflows or produces an invalid value, as parameters blown up by the
    last training step make it do.
    """
    images, model = split.images, state.model
    b, _, h, w = images.shape
    if split.labels.shape != (b, h, w):
        raise ContractError(
            f"split labels must have shape {(b, h, w)} to match its images, got {split.labels.shape}"
        )
    labels = split.labels.reshape(-1)
    if labels.size == 0:
        raise ContractError("evaluation split is empty")
    if labels.max() >= state.classes or labels.min() < 0:
        raise ContractError(
            f"split labels use classes outside [0, {state.classes}); "
            f"found range [{labels.min()}, {labels.max()}]"
        )
    per_block = max(1, BLOCK // (h * w))
    preds = np.empty(labels.size, dtype=np.intp)
    pseudo = None
    if int(state.bank.init_source.sum()) >= 2:
        bank = state.feature_bank
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
                    pseudo[lo:hi] = assign_pseudo_labels(feats.data.T, bank, state.config.threshold)
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
    """Render the final-results document: every `EvalRecord` field plus the
    config echo, keys sorted for determinism."""
    return json.dumps({**asdict(record), "config": config.to_dict()}, sort_keys=True, indent=2) + "\n"


def save_eval_json(record: EvalRecord, config, path: str | Path) -> None:
    Path(path).write_text(eval_to_json(record, config))
