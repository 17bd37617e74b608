"""Experiment runners: the four-way toggle ablation and parameter sweeps.

Every run inside one ablation shares the seed and the dataset, so the only
difference between rows is which loss terms are enabled. A sweep varies
one config field over a list of values around a base config.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .config import RunConfig
from .data import Dataset
from .errors import ConfigError
from .evaluate import EvalRecord, evaluate
from .train import train

__all__ = [
    "ABLATION_VARIANTS",
    "RunResult",
    "run_single",
    "run_ablation",
    "run_sweep",
    "results_table",
    "results_to_json",
    "save_results",
]

# ordered from weakest to strongest configuration
ABLATION_VARIANTS = (
    ("ent", {"entropy": True, "style_transfer": False, "contrastive": False}),
    ("ent+st", {"entropy": True, "style_transfer": True, "contrastive": False}),
    ("ent+contra", {"entropy": True, "style_transfer": False, "contrastive": True}),
    ("full", {"entropy": True, "style_transfer": True, "contrastive": True}),
)


@dataclass
class RunResult:
    """One training run scored on the held-out target split."""

    name: str
    config: RunConfig
    record: EvalRecord

    @property
    def miou(self) -> float:
        return self.record.miou


def run_single(config: RunConfig, data: Dataset, name: str = "run") -> RunResult:
    state, _ = train(config, data)
    return RunResult(name=name, config=config, record=evaluate(state, data.target_eval))


def run_ablation(base: RunConfig, data: Dataset) -> list[RunResult]:
    """Train the four toggle variants on shared seed and data."""
    return [run_single(base.replace(**toggles), data, name) for name, toggles in ABLATION_VARIANTS]


def run_sweep(base: RunConfig, data: Dataset, param: str, values: list) -> list[RunResult]:
    """One run per value of field `param`, named `param=value`.

    A single value is exactly one plain training run with that value
    substituted.
    """
    if param not in RunConfig.field_names():
        raise ConfigError(f"unknown sweep parameter {param!r}")
    # every value is validated before the first run trains
    configs = [base.replace(**{param: value}) for value in values]
    return [run_single(cfg, data, name=f"{param}={value}") for cfg, value in zip(configs, values)]


def results_table(results: list[RunResult]) -> str:
    """Plain-text table: name, toggles, mIOU, pseudo-label accuracy."""
    rows = [("name", "entropy", "style", "contra", "miou", "pseudo_acc")]
    for r in results:
        rows.append(
            (
                r.name,
                "on" if r.config.entropy else "off",
                "on" if r.config.style_transfer else "off",
                "on" if r.config.contrastive else "off",
                f"{r.record.miou:.4f}",
                f"{r.record.pseudo_acc:.4f}",
            )
        )
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"


def results_to_json(results: list[RunResult]) -> str:
    payload = [
        {
            "name": r.name,
            "miou": r.record.miou,
            "per_class_iou": r.record.per_class_iou,
            "pseudo_acc": r.record.pseudo_acc,
            "config": r.config.to_dict(),
        }
        for r in results
    ]
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def save_results(results: list[RunResult], directory: str | Path) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "results.json").write_text(results_to_json(results))
    (directory / "table.txt").write_text(results_table(results))
