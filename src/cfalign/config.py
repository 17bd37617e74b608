"""Run configuration: one flat record of every training knob.

A config can come from a flat JSON document, CLI flags, or both (flags win).
Validation happens in one place so the CLI can map any bad value to its
config-error exit code before touching data.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from .errors import ConfigError
from .heads import HEAD_KINDS

TRANSFER_DIRECTIONS = ("source_to_target", "target_to_source")

__all__ = ["RunConfig", "TRANSFER_DIRECTIONS", "check_field_types", "load_flat_config"]


_WANT = {"bool": "true or false", "int": "an integer", "int|None": "an integer",
         "float": "a number", "str": "a string", "list|None": "a list",
         "list|float": "a number or a list of numbers"}


def _type_ok(kind: str, value) -> bool:
    """Whether `value` can fill a field annotated `kind` (spaces removed)."""
    if kind == "bool":
        return isinstance(value, bool)
    if isinstance(value, bool):  # an int subclass, but never a count or a weight
        return False
    if kind == "int|None":
        return value is None or isinstance(value, numbers.Integral)
    if kind == "int":
        return isinstance(value, numbers.Integral)
    if kind == "float":
        return isinstance(value, numbers.Real)
    if kind == "list|None":
        return value is None or isinstance(value, list)
    if kind == "list|float":
        numbers_only = isinstance(value, list) and all(_type_ok("float", v) for v in value)
        return numbers_only or _type_ok("float", value)
    return isinstance(value, str)


def _non_finite(value) -> bool:
    """Whether `value`, or any number nested in it as lists, is NaN or infinite."""
    if isinstance(value, list):
        return any(_non_finite(v) for v in value)
    if isinstance(value, numbers.Integral) or not isinstance(value, numbers.Real):
        return False  # ints are finite, and math.isfinite overflows on huge ones
    return not math.isfinite(value)


def check_field_types(record) -> None:
    """Raise one ConfigError naming every field of dataclass `record` whose value
    has the wrong type or holds a NaN or infinite number.

    Value checks compare across types, and NaN passes every comparison, so
    they run only after this passes.
    """
    problems = []
    for f in fields(record):
        kind, value = str(f.type).replace(" ", ""), getattr(record, f.name)
        if not _type_ok(kind, value):
            problems.append(f"{f.name} must be {_WANT[kind]}, got {type(value).__name__} {value!r}")
        elif _non_finite(value):
            problems.append(f"{f.name} must be finite, got {value!r}")
    if problems:
        raise ConfigError("; ".join(problems))


@dataclass
class RunConfig:
    # optimization
    seed: int = 0
    iterations: int = 2000
    learning_rate: float = 0.07
    batch_source: int = 1
    batch_target: int = 1
    # objective weights
    lambda_ent: float = 1e-3
    lambda_contra: float = 1e-3
    # component toggles
    entropy: bool = True
    style_transfer: bool = False
    contrastive: bool = False
    # contrastive alignment
    tau: float = 0.07
    alpha: float = 0.9
    threshold: float = 0.05
    head: str = "none"
    head_hidden_dim: int | None = None  # None: backbone feature_dim
    head_out_dim: int | None = None
    include_positive: bool = True
    normalize_features: bool = False
    bank_warm_start: bool = False
    # backbone
    hidden_dim: int = 16
    feature_dim: int = 8
    # style transfer
    transfer_direction: str = "source_to_target"
    adain_eps: float = 1e-8

    def validate(self) -> "RunConfig":
        check_field_types(self)
        checks = [
            (self.iterations >= 0, "iterations must be nonnegative"),
            (self.learning_rate > 0, "learning_rate must be positive"),
            (self.batch_source >= 1, "batch_source must be at least 1"),
            (self.batch_target >= 1, "batch_target must be at least 1"),
            (self.lambda_ent >= 0, "lambda_ent must be nonnegative"),
            (self.lambda_contra >= 0, "lambda_contra must be nonnegative"),
            (self.tau > 0, "tau must be positive"),
            (0.0 <= self.alpha <= 1.0, "alpha must lie in [0, 1]"),
            (self.threshold >= 0, "threshold must be nonnegative"),
            (self.head in HEAD_KINDS, f"head must be one of {HEAD_KINDS}"),
            (
                self.transfer_direction in TRANSFER_DIRECTIONS,
                f"transfer_direction must be one of {TRANSFER_DIRECTIONS}",
            ),
            (self.hidden_dim >= 1, "hidden_dim must be at least 1"),
            (self.feature_dim >= 1, "feature_dim must be at least 1"),
            (self.head_hidden_dim is None or self.head_hidden_dim >= 1, "head_hidden_dim must be at least 1"),
            (self.head_out_dim is None or self.head_out_dim >= 1, "head_out_dim must be at least 1"),
            (self.adain_eps > 0, "adain_eps must be positive"),
        ]
        problems = [msg for ok, msg in checks if not ok]
        if problems:
            raise ConfigError("; ".join(problems))
        return self

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def field_names(cls) -> set[str]:
        return {f.name for f in fields(cls)}

    @classmethod
    def from_mapping(cls, mapping: dict) -> "RunConfig":
        """Build from a flat mapping, taking only RunConfig fields."""
        known = cls.field_names()
        kwargs = {k: v for k, v in mapping.items() if k in known}
        return cls(**kwargs).validate()

    def replace(self, **overrides) -> "RunConfig":
        merged = {**self.to_dict(), **overrides}
        return RunConfig(**merged).validate()


def load_flat_config(path: str | Path) -> dict:
    """Read a flat JSON config document, rejecting non-object payloads."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path} must hold a JSON object, got {type(doc).__name__}")
    return doc
