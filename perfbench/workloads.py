"""Workloads and metric definitions of the cfalign benchmark.

This module is the single source of the metric and workload tables:
``run.py --write-spec`` renders ``BENCHMARK.json`` from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

RUN_SECONDS = 20
SETUP_REPEATS = 7  # set-ups per run; setup_s reports their median
EVALS_PER_JOB = 2  # evaluate calls after each job (after one warm-up); eval_ms is their median


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # RunConfig overrides on top of the defaults (seed and iterations are set per run)
    config: dict = field(default_factory=dict)
    # iterations of one job; a job is one `train` + `save_checkpoint` + `evaluate`,
    # or for the grid one `run_ablation` at this length per variant + `save_results`
    iterations: int = 1000
    grid: bool = False


WORKLOADS = (
    Workload(
        "full_b1",
        "The paper's full method at users' scale: overhead-bound, so time goes to tensor per-op cost, four InfoNCE terms and bank bookkeeping.",
        {"style_transfer": True, "contrastive": True},
        iterations=50,
    ),
    Workload(
        "ent_b1",
        "Entropy only on the same data: bypasses heads, membank, adain and InfoNCE, the control where contrastive-path changes read no change.",
        {},
        iterations=150,
    ),
    Workload(
        "byol_b8",
        "Full method, BYOL head, 8 images per domain: array work (np.add.at scatter, gradient fill) dominates; the only run of heads and batch_norm.",
        {"style_transfer": True, "contrastive": True, "head": "byol", "batch_source": 8, "batch_target": 8},
        iterations=3,
    ),
    Workload(
        "ablate_grid",
        "The acceptance fixture's per-seed unit: save, load, the four ablation variants run serially, save results; the only run where experiments carries time.",
        {},
        iterations=20,
        grid=True,
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}

# (name, unit, better, bound); bound is the share of the parent's median a
# change may lose before it counts as a regression. Timings are normalised
# to the host's speed (reference.py); their ten-seed spread is 0.02-0.07,
# but the normalisation tracks the host only approximately (README.md), so
# the timing bounds are the largest allowed, 0.25; setup_s, whose spread is
# the largest, gets that too. Peak memory is bimodal by 5% (README.md).
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("iter_ms", "ms", "lower", 0.25),
    ("run_s", "s", "lower", 0.25),
    ("eval_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

OP_TAGS = (
    "add", "sub", "mul", "div", "scale", "matmul", "relu", "exp", "log",
    "sqrt", "softmax", "sum", "mean", "take_rows", "pick",
)

VARIANT_KEYS = {"ent": "ent", "ent+st": "ent-st", "ent+contra": "ent-contra", "full": "full"}

# (name, unit, better); times are self time per training iteration unless the
# name or perfbench/README.md says otherwise
PER_LAYER = (
    ("tensor.backward_ms", "ms", "lower"),
    ("tensor.nodes_per_iter", "count", "lower"),
    *((f"tensor.nodes.{tag}", "count", "lower") for tag in OP_TAGS),
    ("model.features_ms", "ms", "lower"),
    ("model.probs_ms", "ms", "lower"),
    ("heads.forward_ms", "ms", "lower"),
    ("losses.ce_ms", "ms", "lower"),
    ("losses.entropy_ms", "ms", "lower"),
    ("losses.contrastive_ms", "ms", "lower"),
    ("losses.info_nce_calls_per_iter", "count", "lower"),
    ("membank.bank_ms", "ms", "lower"),
    ("membank.pseudo_ms", "ms", "lower"),
    ("membank.class_centers_calls_per_iter", "count", "lower"),
    ("membank.labeled_frac", "1", "higher"),
    ("membank.pseudo_acc", "1", "higher"),
    ("kernels.nearest_two_ms", "ms", "lower"),
    ("kernels.label_sums_ms", "ms", "lower"),
    ("kernels.confusion_ms", "ms", "lower"),
    ("kernels.calls_per_iter", "count", "lower"),
    ("kernels.bytes_per_iter", "B_computed", "lower"),
    ("adain.transfer_ms", "ms", "lower"),
    ("adain.stats_s", "s", "lower"),
    ("train.self_ms", "ms", "lower"),
    ("data.generate_s", "s", "lower"),
    ("data.save_s", "s", "lower"),
    ("data.load_s", "s", "lower"),
    ("data.bytes", "B", "lower"),
    ("checkpoint.save_ms", "ms", "lower"),
    ("checkpoint.load_ms", "ms", "lower"),
    ("checkpoint.bytes", "B", "lower"),
    ("evaluate.predict_ms", "ms", "lower"),
    ("evaluate.pseudo_ms", "ms", "lower"),
    ("evaluate.miou", "1", "higher"),
    *((f"experiments.run_s.{key}", "s", "lower") for key in VARIANT_KEYS.values()),
    ("trace.overhead_ms", "ms", "lower"),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def spec() -> dict:
    """The BENCHMARK.json document."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
