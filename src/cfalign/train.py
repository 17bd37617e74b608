"""Training loop joining coarse statistics transfer, entropy minimization,
and class-wise contrastive alignment over momentum memory banks.

Each iteration samples one batch per domain, optionally renormalizes the
source batch toward the target domain's channel statistics, forwards the
per-pixel backbone and classifier, assembles the enabled loss terms, and
takes one plain gradient-descent step.

Two RNG streams split off the run seed: parameter init and batch order.
Batch indices come from their own stream and are drawn every iteration
regardless of toggles, so two runs that differ only in enabled loss terms
see the same image sequence.

One memory bank holds each class center as ``[backbone features | head
outputs]``: the backbone columns drive pseudo-label assignment and the head
columns feed the contrastive loss, and one label pass per domain fills
both. The identity head's outputs are the backbone features, so its bank
holds those columns once.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .adain import ChannelStats, adain_transfer, channel_stats, to_pixels
from .config import RunConfig
from .data import Dataset
from .errors import DivergenceError
from .heads import Head, build_head, head_forward, head_parameters
from .kernels import label_sums  # noqa: F401  not called here; perfbench/tracer.py wraps cfalign.train.label_sums
from .losses import contrastive_combined, cross_entropy, entropy_from_logits, total_objective
from .losses import entropy_loss  # noqa: F401  not called here; perfbench/tracer.py wraps cfalign.train.entropy_loss
from .membank import (
    MemoryBank,
    assign_pseudo_labels,
    class_centers,
    pseudo_label_accuracy,
    update_bank,
)
from .model import SegModel, build_model, model_features, model_logits, model_parameters
from .model import model_probs  # noqa: F401  not called here; perfbench/tracer.py wraps cfalign.train.model_probs
from .tensor import ArrayPool, Graph, Tensor, backward, zero_grads

__all__ = [
    "METRICS_COLUMNS",
    "MetricsRecord",
    "TrainState",
    "init_state",
    "train",
    "metrics_to_csv",
    "save_metrics_csv",
]


@dataclass
class MetricsRecord:
    """One training iteration's loss values and pseudo-label diagnostics, in ``metrics.csv`` column order."""

    iteration: int
    ce: float
    entropy: float
    contra: float
    total: float
    pseudo_acc: float
    labeled_frac: float

    def row(self) -> str:
        # repr keeps full float precision, so equal runs give equal bytes
        iteration, *values = (getattr(self, name) for name in METRICS_COLUMNS)
        return ",".join([str(iteration)] + [repr(float(v)) for v in values])


METRICS_COLUMNS = tuple(f.name for f in fields(MetricsRecord))


def metrics_to_csv(records: list[MetricsRecord]) -> str:
    return "\n".join([",".join(METRICS_COLUMNS)] + [r.row() for r in records]) + "\n"


def save_metrics_csv(records: list[MetricsRecord], path: str | Path) -> None:
    Path(path).write_text(metrics_to_csv(records))


@dataclass
class TrainState:
    """Everything a run owns: parameters, the bank, and the frozen style statistics."""

    config: RunConfig
    classes: int
    channels: int
    model: SegModel
    head: Head
    bank: MemoryBank  # rows [backbone features | head outputs]; the backbone alone for head "none"
    style: ChannelStats | None = None  # target-train image statistics, when transferring
    # column views of `bank`, built once: they share its rows and flags
    _feature_bank: MemoryBank = field(init=False, repr=False, compare=False)
    _head_bank: MemoryBank = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        d = self.config.feature_dim
        self._feature_bank = self.bank.columns(slice(None, d))
        self._head_bank = self.bank.columns(slice(-d, None))

    def parameters(self):
        return model_parameters(self.model) + head_parameters(self.head)

    def bank_rows(self, f: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, ...]:
        """Per-pixel (d, n) features laid out like the bank's rows, as blocks
        that are never copied together: (f, h), or (f,) for head "none"."""
        return (f,) if self.config.head == "none" else (f, h)

    def feature_bank(self) -> MemoryBank:
        """The bank's backbone columns, which pseudo-labeling reads."""
        return self._feature_bank

    def head_bank(self) -> MemoryBank:
        """The bank's head-output columns, which the contrastive loss reads."""
        return self._head_bank


def init_state(config: RunConfig, classes: int, channels: int) -> TrainState:
    """Build model, head, and an empty bank from the init RNG stream."""
    rng_init = np.random.default_rng([config.seed, 0])
    model = build_model(channels, config.hidden_dim, config.feature_dim, classes, rng_init)
    head = build_head(config.head, config.feature_dim, rng_init)
    width = config.feature_dim * (1 if config.head == "none" else 2)
    return TrainState(
        config=config,
        classes=classes,
        channels=channels,
        model=model,
        head=head,
        bank=MemoryBank(classes, width, alpha=config.alpha),
    )


def _update_bank_and_label(state: TrainState, f_s, h_s, lab_s, f_t, h_t) -> np.ndarray:
    """One iteration of bank bookkeeping; returns target pseudo-labels.

    Order: fold the source batch into the bank first, then assign target
    pseudo-labels against the refreshed source rows, then fold the labeled
    target rows in. Centers are read as plain arrays, so no gradient ever
    reaches the bank.
    """
    means, counts = class_centers(state.bank_rows(f_s.data, h_s.data), lab_s, state.classes)
    update_bank(state.bank, means, counts, "source")
    if int(state.bank.init_source.sum()) >= 2:
        pseudo = assign_pseudo_labels(f_t.data.T, state.feature_bank(), state.config.threshold)
    else:
        # margin needs two centers; until then nothing is labeled
        pseudo = np.full(f_t.data.shape[1], -1, dtype=np.int64)
    means, counts = class_centers(state.bank_rows(f_t.data, h_t.data), pseudo, state.classes)
    update_bank(state.bank, means, counts, "target")
    return pseudo


def _step(
    state: TrainState,
    params: list[Tensor],
    pool: ArrayPool,
    img_s: np.ndarray,
    lab_s: np.ndarray,
    img_t: np.ndarray,
    diag_t: np.ndarray,
    iteration: int,
) -> MetricsRecord:
    cfg = state.config
    pseudo_acc = 0.0
    labeled_frac = 0.0
    with Graph(pool=pool) as g:
        f_s = model_features(state.model, Tensor(to_pixels(img_s)))
        ce = cross_entropy(model_logits(state.model, f_s), lab_s)
        ent, contra = Tensor(0.0), Tensor(0.0)
        if cfg.entropy or cfg.contrastive:
            f_t = model_features(state.model, Tensor(to_pixels(img_t)))
        if cfg.entropy:
            ent = entropy_from_logits(model_logits(state.model, f_t))
        if cfg.contrastive:
            h_s = head_forward(state.head, f_s)
            h_t = head_forward(state.head, f_t)
            pseudo = _update_bank_and_label(state, f_s, h_s, lab_s, f_t, h_t)
            contra = contrastive_combined(
                h_s,
                lab_s,
                h_t,
                pseudo,
                state.head_bank(),
                tau=cfg.tau,
                include_positive=cfg.include_positive,
                normalize=cfg.normalize_features,
            )
            acc = pseudo_label_accuracy(pseudo, diag_t)
            pseudo_acc = acc.accuracy
            labeled_frac = acc.assigned / pseudo.size
        total = total_objective(ce, ent, contra, cfg.lambda_ent, cfg.lambda_contra)
        record = MetricsRecord(iteration, ce.item(), ent.item(), contra.item(), total.item(), pseudo_acc, labeled_frac)
        if not np.isfinite(record.total):
            raise DivergenceError(
                f"total loss is not finite at iteration {iteration}: "
                f"ce={record.ce} entropy={record.entropy} contra={record.contra}"
            )
        backward(total, g)
    for p in params:
        if p.grad is not None:
            # the gradient is dropped after the step, so it holds lr * g
            p.data -= np.multiply(p.grad, cfg.learning_rate, out=p.grad)
    zero_grads(params)
    pool.reclaim()
    return record


def train(config: RunConfig, data: Dataset) -> tuple[TrainState, list[MetricsRecord]]:
    """Run the full loop; returns the final state and one record per iteration.

    Deterministic given the config: identical config and data give
    byte-identical metrics. Raises DivergenceError when an iteration's
    forward pass, backward pass or step leaves the finite range.

    Every step's tape draws its arrays from one pool, which takes all of
    them back when the step ends, so steady-state steps reuse memory that
    is already mapped; the pool is dropped on return.
    """
    config.validate()
    state = init_state(config, data.spec.classes, data.spec.channels)
    if config.style_transfer:
        # frozen once, over the whole target training split
        state.style = channel_stats(data.target_train.images)
    params = state.parameters()
    rng_batch = np.random.default_rng([config.seed, 1])
    n_s = len(data.source_train.images)
    n_t = len(data.target_train.images)
    records: list[MetricsRecord] = []
    pool = ArrayPool()
    for it in range(config.iterations):
        si = rng_batch.integers(0, n_s, size=config.batch_source)
        ti = rng_batch.integers(0, n_t, size=config.batch_target)
        img_s = data.source_train.images[si]
        lab_s = data.source_train.labels[si].reshape(-1)
        img_t = data.target_train.images[ti]
        # held-out truth: used for the pseudo_acc diagnostic only, never in a loss
        diag_t = data.target_train.labels[ti].reshape(-1)
        if state.style is not None:
            img_s = adain_transfer(img_s, state.style)
        # an overflow or invalid value ends the run with one DivergenceError
        # naming the iteration, before numpy can print a warning
        try:
            with np.errstate(over="raise", invalid="raise"):
                records.append(_step(state, params, pool, img_s, lab_s, img_t, diag_t, it))
        except FloatingPointError as exc:
            raise DivergenceError(f"iteration {it} left the finite range: {exc}") from exc
    return state, records
