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
from .tensor import read_container, write_container
from .train import TrainState, init_state

__all__ = ["CHECKPOINT_FORMAT", "save_checkpoint", "load_checkpoint"]

CHECKPOINT_FORMAT = "cfalign-checkpoint"
CHECKPOINT_VERSION = 3

# the byol head's tensors, in `head_parameters` order; the index is the
# layer's place in Linear, BatchNorm, ReLU, Linear
_HEAD_TENSORS = ("head.0.weight", "head.0.bias", "head.1.gamma", "head.1.beta", "head.3.weight", "head.3.bias")


def _layout(config: RunConfig, classes: int, channels: int) -> dict[str, tuple[int, ...]]:
    """Every tensor name a checkpoint of this config holds, in file order,
    with its shape; allocates nothing."""
    feat, dims = config.feature_dim, (channels, config.hidden_dim, config.feature_dim, classes)
    layout: dict[str, tuple[int, ...]] = {}
    for name, d_in, d_out in zip(("model.enc1", "model.enc2", "model.classifier"), dims, dims[1:]):
        layout.update({f"{name}.weight": (d_in, d_out), f"{name}.bias": (d_out,)})
    if config.head != "none":
        layout.update(zip(_HEAD_TENSORS, [(feat, feat), (feat,), (feat,), (feat,), (feat, feat), (feat,)]))
    width = feat * (1 if config.head == "none" else 2)
    layout.update({"bank.v_source": (classes, width), "bank.v_target": (classes, width)})
    layout.update({"bank.init_source": (classes,), "bank.init_target": (classes,)})
    if config.style_transfer:
        layout["style.stats_mean"] = layout["style.stats_var"] = (channels,)
    return layout


def _check_arrays(arrays: dict[str, np.ndarray], layout: dict[str, tuple[int, ...]]) -> None:
    """Raise ContractError at the first array not of its layout shape, or bank flags other than 0/1."""
    for name, array in arrays.items():
        if array.shape != layout[name]:
            raise ContractError(f"tensor {name} has shape {array.shape}, expected {layout[name]}")
        if ".init_" in name and not np.all((array == 0) | (array == 1)):
            raise ContractError(f"bank flags {name} hold values other than 0 and 1")


def _state_arrays(state: TrainState) -> dict[str, np.ndarray]:
    """Every array a run owns, named by its config's `_layout`. A state that
    layout does not describe raises ContractError naming the mismatch."""
    bank, style, config = state.bank, state.style, state.config
    arrays = [p.data for p in state.parameters()]
    arrays += [bank.v_source, bank.v_target, bank.init_source, bank.init_target]
    arrays += () if style is None else style.as_arrays()
    layout = _layout(config, state.classes, state.channels)
    if len(arrays) != len(layout):
        raise ContractError(
            f"state has {len(arrays)} arrays (style statistics {'unset' if style is None else 'set'}), "
            f"but head {config.head!r} with style_transfer={config.style_transfer} lays out {len(layout)}"
        )
    named = dict(zip(layout, arrays))
    _check_arrays(named, layout)
    return named


def save_checkpoint(state: TrainState, path: str | Path) -> None:
    header = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "config": state.config.to_dict(),
        "classes": state.classes,
        "channels": state.channels,
    }
    write_container(path, header, _state_arrays(state))


def load_checkpoint(path: str | Path) -> TrainState:
    """Rebuild a TrainState from a checkpoint file.

    Every stored name and shape is checked against the config echo's
    `_layout` first; only then is the state constructed from it (so shapes
    and layer kinds match by design) and every stored array replaces the
    fresh one. A malformed file, another version, mismatched names or
    shapes, or bank flags other than 0/1 raise ContractError; a config echo
    that fails `RunConfig` validation raises ConfigError.
    """
    header, stored = read_container(path, CHECKPOINT_FORMAT)
    if header.get("version") != CHECKPOINT_VERSION:
        raise ContractError(
            f"{path} is checkpoint version {header.get('version')!r}, expected {CHECKPOINT_VERSION}"
        )
    config, classes, channels = (header.get(k) for k in ("config", "classes", "channels"))
    # `type(...) is int`, not isinstance: True would pass as a count of 1
    if not (isinstance(config, dict) and type(classes) is int and type(channels) is int):
        raise ContractError(f"{path} header needs a config object and integer classes and channels")
    config = RunConfig.from_mapping(config)
    # every shape is checked before init_state allocates what the config echo asks for
    layout = _layout(config, classes, channels)
    if set(stored) != set(layout):
        missing = sorted(set(layout) - set(stored))
        extra = sorted(set(stored) - set(layout))
        raise ContractError(f"checkpoint tensor set mismatch: missing {missing}, unexpected {extra}")
    _check_arrays(stored, layout)
    state = init_state(config, classes, channels)
    if config.style_transfer:
        state.style = ChannelStats(mean=np.zeros(channels), var=np.ones(channels))
    targets = _state_arrays(state)
    for name, array in stored.items():
        targets[name][...] = array  # bool flag rows cast back from their 0/1 float form
    return state
