"""Finite-difference battery over every training loss.

Each case builds a randomized scalar-valued function of one tensor and
compares its reverse-mode gradient against central differences. The battery
reports the worst relative error per case name; it backs both the CLI
self-test and the test suite. Logits and features are feature-major, (c, n)
and (d, n), as the model makes them; `info_nce` and `entropy_loss` take one
row per pixel. The `entropy_loss` case takes fixed probability rows made with
numpy; the `affine` cases add CE and entropy with `total_objective`.
"""

from __future__ import annotations

import numpy as np

from .heads import HEAD_KINDS, build_head, head_forward
from .losses import contrastive_combined, cross_entropy, entropy_from_logits, entropy_loss, info_nce, total_objective
from .membank import MemoryBank
from .tensor import Tensor, affine, grad_check, transpose

__all__ = ["loss_battery", "BATTERY_CASES"]


def _labels(rng: np.random.Generator, n: int, c: int, unlabeled: float = 0.25) -> np.ndarray:
    lab = rng.integers(0, c, size=n)
    lab[rng.random(n) < unlabeled] = -1
    if (lab >= 0).sum() == 0:
        lab[0] = 0  # at least one labeled row so the losses are defined
    return lab


def _case_cross_entropy(rng):
    n, c = 6, 4
    labels = _labels(rng, n, c)
    x = Tensor(rng.normal(size=(c, n)), requires_grad=True)
    return lambda z: cross_entropy(z, labels), x


def _case_saturated_cross_entropy(rng):
    """Each pixel has one logit 40 above the rest, and most labels name another
    class: the regime where a log of clamped probabilities lost the gradient."""
    n, c = 6, 4
    labels = _labels(rng, n, c)
    z = rng.normal(size=(c, n))
    z[rng.integers(0, c, size=n), np.arange(n)] += 40.0
    return lambda t: cross_entropy(t, labels), Tensor(z, requires_grad=True)


def _case_entropy(rng):
    # fixed positive rows: the column softmax of one (4, 6) draw, transposed
    z = rng.normal(size=(4, 6))
    e = np.exp(z - z.max(axis=0))
    return entropy_loss, Tensor(np.ascontiguousarray((e / e.sum(axis=0)).T), requires_grad=True)


def _case_entropy_from_logits(rng):
    x = Tensor(rng.normal(size=(4, 6)) * 3.0, requires_grad=True)
    return entropy_from_logits, x


def _make_info_nce_case(**flags):
    def case(rng):
        n, c, d = 6, 5, 4
        centers = rng.normal(size=(c, d))
        mask = np.ones(c, dtype=bool)
        mask[rng.integers(0, c)] = False
        labels = _labels(rng, n, c)
        active = np.flatnonzero(mask)
        labels[labels >= 0] = rng.choice(active, size=(labels >= 0).sum())
        x = Tensor(rng.normal(size=(n, d)), requires_grad=True)
        return lambda f: info_nce(f, labels, centers, mask, tau=0.07, **flags)[0], x

    return case


def _bank(rng, c: int, d: int) -> MemoryBank:
    bank = MemoryBank(c, d, alpha=0.9)
    bank.v_source[:] = rng.normal(size=(c, d))
    bank.v_target[:] = rng.normal(size=(c, d))
    bank.init_source[:] = rng.random(c) < 0.8
    bank.init_target[:] = rng.random(c) < 0.8
    bank.init_source[:2] = True  # keep at least two rows live per side
    bank.init_target[:2] = True
    return bank


def _make_contrastive_case(side: str):
    """contrastive_combined differentiated in the source or the target features."""

    def case(rng):
        n, c, d = 5, 4, 3
        bank = _bank(rng, c, d)
        y_s, y_t = _labels(rng, n, c), _labels(rng, n, c)
        other = Tensor(rng.normal(size=(d, n)))
        x = Tensor(rng.normal(size=(d, n)), requires_grad=True)
        if side == "source":
            return lambda f: contrastive_combined(f, y_s, other, y_t, bank, tau=0.07), x
        return lambda f: contrastive_combined(other, y_s, f, y_t, bank, tau=0.07), x

    return case


def _make_head_case(kind: str):
    def case(rng):
        n, c, d = 6, 4, 4
        head = build_head(kind, d, rng=rng)
        centers = rng.normal(size=(c, d))
        mask = np.ones(c, dtype=bool)
        labels = _labels(rng, n, c)
        x = Tensor(rng.normal(size=(d, n)), requires_grad=True)
        return lambda f: info_nce(transpose(head_forward(head, f)), labels, centers, mask, tau=0.07)[0], x

    return case


def _make_affine_case(part: str):
    """A classifier layer under CE + entropy, differentiated in its weight or bias."""

    def case(rng):
        n, d, c = 6, 3, 4
        labels = _labels(rng, n, c)
        feats = Tensor(rng.normal(size=(d, n)))
        layer = {"weight": Tensor(rng.normal(size=(d, c))), "bias": Tensor(rng.normal(size=c))}
        x = layer[part]
        x.requires_grad = True

        def fn(t):
            params = {**layer, part: t}
            z = affine(feats, params["weight"], params["bias"])
            return total_objective(cross_entropy(z, labels), entropy_from_logits(z), Tensor(0.0), 1.0, 0.0)

        return fn, x

    return case


BATTERY_CASES = [
    ("cross_entropy", _case_cross_entropy),
    ("entropy_loss", _case_entropy),
    ("info_nce", _make_info_nce_case()),
    ("contrastive_combined/source", _make_contrastive_case("source")),
    ("contrastive_combined/target", _make_contrastive_case("target")),
] + [(f"info_nce+head[{kind}]", _make_head_case(kind)) for kind in HEAD_KINDS] + [
    # appended, so the cases above keep their random draws
    ("info_nce/exclude_positive", _make_info_nce_case(include_positive=False)),
    ("info_nce/normalize", _make_info_nce_case(normalize=True)),
    ("affine/weight", _make_affine_case("weight")),
    ("affine/bias", _make_affine_case("bias")),
    ("cross_entropy/saturated", _case_saturated_cross_entropy),
    ("entropy_from_logits", _case_entropy_from_logits),
]


def loss_battery(instances: int = 20, seed: int = 0) -> dict[str, float]:
    """Worst relative gradient error per case over `instances` random draws."""
    rng = np.random.default_rng(seed)
    worst: dict[str, float] = {}
    for name, make in BATTERY_CASES:
        errors = []
        for _ in range(instances):
            fn, x = make(rng)
            errors.append(grad_check(fn, x))
        worst[name] = max(errors)
    return worst
