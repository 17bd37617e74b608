"""Checkpoint persistence.

One container file (see ``tensor.write_container``) holds everything a run
owns: the header echoes the config and the class/channel counts, and the
named tensors follow. Loading rebuilds the state structurally from the
config echo and then overwrites every array in place, so a round-trip
reproduces evaluation output bit for bit.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .adain import ChannelStats
from .config import RunConfig
from .errors import ContractError
from .heads import BatchNormLayer, LinearLayer, head_plan
from .tensor import read_container, write_container
from .train import StyleContext, TrainState, init_state

__all__ = ["CHECKPOINT_FORMAT", "save_checkpoint", "load_checkpoint"]

CHECKPOINT_FORMAT = "cfalign-checkpoint"
CHECKPOINT_VERSION = 2


def _state_arrays(state: TrainState) -> list[tuple[str, np.ndarray]]:
    """Name every array a run owns, in a fixed order shared by save and load."""
    entries: list[tuple[str, np.ndarray]] = []
    for name, layer in (
        ("enc1", state.model.enc1),
        ("enc2", state.model.enc2),
        ("classifier", state.model.classifier),
    ):
        entries.append((f"model.{name}.weight", layer.weight.data))
        entries.append((f"model.{name}.bias", layer.bias.data))
    for i, layer in enumerate(state.head.layers):
        if isinstance(layer, LinearLayer):
            entries.append((f"head.{i}.weight", layer.weight.data))
            entries.append((f"head.{i}.bias", layer.bias.data))
        elif isinstance(layer, BatchNormLayer):
            entries.append((f"head.{i}.gamma", layer.gamma.data))
            entries.append((f"head.{i}.beta", layer.beta.data))
            entries.append((f"head.{i}.running_mean", layer.running.mean))
            entries.append((f"head.{i}.running_var", layer.running.var))
    for part in ("v_source", "v_target", "init_source", "init_target"):
        entries.append((f"bank.{part}", getattr(state.bank, part)))
    if state.style is not None:
        mean, var = state.style.stats.as_arrays()
        entries.append(("style.stats_mean", mean))
        entries.append(("style.stats_var", var))
    return entries


def _expected_shapes(config: RunConfig, classes: int, channels: int) -> dict[str, tuple[int, ...]]:
    """The names and shapes `_state_arrays` gives for this config, without allocating."""
    hidden, feat = config.hidden_dim, config.feature_dim
    linears = [
        ("model.enc1", channels, hidden),
        ("model.enc2", hidden, feat),
        ("model.classifier", feat, classes),
    ]
    shapes: dict[str, tuple[int, ...]] = {}
    for name, d_in, d_out in linears:
        shapes[f"{name}.weight"] = (d_in, d_out)
        shapes[f"{name}.bias"] = (d_out,)
    plan = head_plan(config.head, feat, config.head_hidden_dim, config.head_out_dim)
    for i, layer in enumerate(plan):
        if layer == "relu":
            continue
        if layer[0] == "linear":
            shapes[f"head.{i}.weight"] = layer[1:]
            shapes[f"head.{i}.bias"] = layer[2:]
        else:
            for part in ("gamma", "beta", "running_mean", "running_var"):
                shapes[f"head.{i}.{part}"] = layer[1:]
    width = feat + (plan[-1][-1] if plan else 0)
    for side in ("source", "target"):
        shapes[f"bank.v_{side}"] = (classes, width)
        shapes[f"bank.init_{side}"] = (classes,)
    if config.style_transfer:
        shapes["style.stats_mean"] = shapes["style.stats_var"] = (channels,)
    return shapes


def save_checkpoint(state: TrainState, path: str | Path) -> None:
    header = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "config": state.config.to_dict(),
        "classes": state.classes,
        "channels": state.channels,
    }
    write_container(path, header, dict(_state_arrays(state)))


def load_checkpoint(path: str | Path) -> TrainState:
    """Rebuild a TrainState from a checkpoint file.

    Every stored name and shape is checked against the config echo first;
    only then is the state constructed from it (so shapes and layer kinds
    match by design) and every stored array replaces the fresh one. A
    malformed file, another version, mismatched names or shapes, or bank
    flags other than 0/1 raise ContractError.
    """
    header, stored = read_container(path, CHECKPOINT_FORMAT)
    if header.get("version") != CHECKPOINT_VERSION:
        raise ContractError(
            f"{path} is checkpoint version {header.get('version')!r}, expected {CHECKPOINT_VERSION}"
        )
    config, classes, channels = (header.get(k) for k in ("config", "classes", "channels"))
    if not (isinstance(config, dict) and isinstance(classes, int) and isinstance(channels, int)):
        raise ContractError(f"{path} header needs a config object and integer classes and channels")
    config = RunConfig.from_mapping(config)
    # every shape is checked before init_state allocates what the config echo asks for
    expected = _expected_shapes(config, classes, channels)
    if set(stored) != set(expected):
        missing = sorted(set(expected) - set(stored))
        extra = sorted(set(stored) - set(expected))
        raise ContractError(f"checkpoint tensor set mismatch: missing {missing}, unexpected {extra}")
    for name, array in stored.items():
        if array.shape != expected[name]:
            raise ContractError(f"tensor {name} has shape {array.shape}, expected {expected[name]}")
        if ".init_" in name and not np.all((array == 0) | (array == 1)):
            raise ContractError(f"bank flags {name} hold values other than 0 and 1")
    state = init_state(config, classes, channels)
    if config.style_transfer:
        state.style = _empty_style(config, state.channels)
    targets = dict(_state_arrays(state))
    for name, array in stored.items():
        targets[name][...] = array  # bool flag rows cast back from their 0/1 float form
    return state


def _empty_style(config: RunConfig, channels: int) -> StyleContext:
    return StyleContext(
        direction=config.transfer_direction,
        stats=ChannelStats(mean=np.zeros(channels), var=np.ones(channels)),
        eps=config.adain_eps,
    )
