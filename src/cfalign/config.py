"""Run configuration: one flat record of every training knob.

A config can come from a flat JSON document, CLI flags, or both (flags win).
Validation happens in one place so the CLI can map any bad value to its
config-error exit code before touching data. `KINDS` describes the four
scalar kinds a field of RunConfig or the dataset's SynthSpec can have,
once for both: what a value must be, and how a flag or sweep value is read.
Every field has a flag.
"""

from __future__ import annotations

import json
import math
import numbers
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Callable, NamedTuple

from .errors import ConfigError
from .heads import HEAD_KINDS

__all__ = [
    "BLOCK", "KINDS", "MAX_ELEMENTS", "Kind", "Record", "RunConfig",
    "check_field_types", "fits", "kind_of", "load_flat_config", "require",
]

# numpy rejects an array whose byte count leaves its index range with a
# ValueError, not a MemoryError, so sizes are bounded before any allocation
MAX_ELEMENTS = sys.maxsize // 8  # of one float64 (or int64) array

# pixels in one block of whole images, the unit data generation and
# evaluation compute on: a block's arrays stay cache-resident, and fewer
# blocks pay less per-block call overhead; larger blocks would lift an
# evaluate call's peak memory over test_memory_peak's 4 MB
BLOCK = 8192


def fits(*extents: int) -> bool:
    """Whether an array of these extents stays inside numpy's index range."""
    return math.prod(extents) <= MAX_ELEMENTS


def require(checks) -> None:
    """Raise one ConfigError joining the message of every failed (ok, message) check."""
    problems = [message for ok, message in checks if not ok]
    if problems:
        raise ConfigError("; ".join(problems))


def _number(value) -> bool:
    # bool is an int subclass, but never a count or a weight
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


class Kind(NamedTuple):
    want: str  # what a value must be, as error messages say it
    ok: Callable[[object], bool]  # whether a value fills the field
    parse: type  # reads a flag or sweep value


# every annotation a config field carries
KINDS = {
    "bool": Kind("true or false", lambda v: isinstance(v, bool), bool),
    "int": Kind("an integer", _integer, int),
    "float": Kind("a number", _number, float),
    "str": Kind("a string", lambda v: isinstance(v, str), str),
}


def kind_of(field) -> Kind:
    """The kind of a dataclass field, from its annotation."""
    return KINDS[str(field.type)]


def _finite(value) -> bool:
    """Whether a number converts to a finite float."""
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


def check_field_types(record) -> None:
    """Raise one ConfigError naming every field of dataclass `record` whose value
    has the wrong type or holds a NaN or infinite number.

    Value checks compare across types, and NaN passes every comparison, so
    they run only after this passes.
    """
    problems = []
    for f in fields(record):
        kind, value = kind_of(f), getattr(record, f.name)
        if not kind.ok(value):
            problems.append(f"{f.name} must be {kind.want}, got {type(value).__name__} {value!r}")
        elif kind.parse is float and not _finite(value):
            problems.append(f"{f.name} must be finite, got {value!r}")
    if problems:
        raise ConfigError("; ".join(problems))


class Record:
    """What RunConfig and SynthSpec share: a flat dataclass with a `validate`."""

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def field_names(cls) -> set[str]:
        return {f.name for f in fields(cls)}

    @classmethod
    def from_mapping(cls, mapping: dict):
        """Build from a flat mapping, taking only this record's fields."""
        known = cls.field_names()
        return cls(**{k: v for k, v in mapping.items() if k in known}).validate()


@dataclass
class RunConfig(Record):
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
    include_positive: bool = True
    normalize_features: bool = False
    # backbone
    hidden_dim: int = 16
    feature_dim: int = 8

    def validate(self) -> "RunConfig":
        check_field_types(self)
        require([
            (self.seed >= 0, "seed must be nonnegative"),
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
            # -pos + logsumexp(negatives) falls without limit as features grow
            (not self.contrastive or self.include_positive or self.normalize_features,
             "include_positive=false needs normalize_features: the exclude-positive "
             "loss has no lower bound without normalization"),
            (self.hidden_dim >= 1, "hidden_dim must be at least 1"),
            (self.feature_dim >= 1, "feature_dim must be at least 1"),
        ] + [
            (fits(*extents), f"{what} exceeds numpy's index range ({MAX_ELEMENTS} elements)")
            for what, extents in (
                ("batch_source", (self.batch_source,)),
                ("batch_target", (self.batch_target,)),
                ("hidden_dim * feature_dim", (self.hidden_dim, self.feature_dim)),
                ("feature_dim * feature_dim", (self.feature_dim, self.feature_dim)),  # byol head weights
            )
        ])
        return self

    def replace(self, **overrides) -> "RunConfig":
        merged = {**self.to_dict(), **overrides}
        return RunConfig(**merged).validate()


def load_flat_config(path: str | Path) -> dict:
    """Read a flat JSON config document, rejecting non-object payloads."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path} must hold a JSON object, got {type(doc).__name__}")
    return doc
