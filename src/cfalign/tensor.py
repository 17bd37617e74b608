"""Minimal reverse-mode autodiff on dense float64 tensors.

Values are numpy arrays in row-major order. Differentiable operations record
nodes onto an explicit :class:`Graph` tape (define-by-run); insertion order is
a valid topological order, and :func:`backward` replays the tape once in
reverse. Ops executed with no graph active are forward-only, which is what
evaluation and finite differencing use.

log, div and sqrt clamp their arguments by ``EPS`` so a pipeline never emits
NaN from a boundary value; each guard is noted on the op.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Mapping

import numpy as np

from .errors import ContractError, DimensionError

EPS = 1e-12

__all__ = [
    "EPS",
    "Tensor",
    "Graph",
    "Node",
    "RunningStats",
    "backward",
    "record",
    "accum",
    "zero_grads",
    "grad_check",
    "add",
    "sub",
    "mul",
    "div",
    "scale",
    "matmul",
    "affine",
    "relu",
    "exp",
    "log",
    "sqrt",
    "softmax",
    "reduce_sum",
    "reduce_mean",
    "take_rows",
    "pick",
    "batch_norm",
    "write_container",
    "read_container",
]


class Tensor:
    """A dense float64 array plus an optional gradient of the same shape."""

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # operator sugar; all routing goes through the module-level ops
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __neg__(self):
        return scale(self, -1.0)

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return reduce_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        return reduce_mean(self, axis=axis, keepdims=keepdims)


@dataclass
class Node:
    """One recorded operation: tag, input tensors, output, and its backward."""

    tag: str
    inputs: tuple[Tensor, ...]
    output: Tensor
    backward: Callable[[np.ndarray], None]


@dataclass
class Graph:
    """Append-only tape of nodes. Use as a context manager to make it active."""

    nodes: list[Node] = field(default_factory=list)

    def __enter__(self) -> "Graph":
        _GRAPH_STACK.append(self)
        return self

    def __exit__(self, *exc) -> None:
        popped = _GRAPH_STACK.pop()
        assert popped is self, "graph stack corrupted"

    def __len__(self) -> int:
        return len(self.nodes)


_GRAPH_STACK: list[Graph] = []


def _active() -> Graph | None:
    return _GRAPH_STACK[-1] if _GRAPH_STACK else None


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def accum(t: Tensor, g: np.ndarray) -> None:
    """Add `g` into t.grad (allocated as zeros on first use); a no-op for constants."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def record(tag: str, inputs: tuple[Tensor, ...], out: Tensor, bwd: Callable) -> None:
    """Append a node to the active graph when `out` needs a gradient.

    `bwd(out.grad)` must push the input gradients through :func:`accum`;
    every op in this module and the fused ones elsewhere go through here.
    """
    g = _active()
    if g is not None and out.requires_grad:
        g.nodes.append(Node(tag, inputs, out, bwd))


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum g down to `shape`, undoing numpy broadcasting."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, extent in enumerate(shape):
        if extent == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise and linear ops


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor(a.data + b.data, a.requires_grad or b.requires_grad)

    def bwd(g):
        accum(a, _unbroadcast(g, a.data.shape))
        accum(b, _unbroadcast(g, b.data.shape))

    record("add", (a, b), out, bwd)
    return out


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor(a.data - b.data, a.requires_grad or b.requires_grad)

    def bwd(g):
        accum(a, _unbroadcast(g, a.data.shape))
        accum(b, _unbroadcast(-g, b.data.shape))

    record("sub", (a, b), out, bwd)
    return out


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor(a.data * b.data, a.requires_grad or b.requires_grad)

    def bwd(g):
        accum(a, _unbroadcast(g * b.data, a.data.shape))
        accum(b, _unbroadcast(g * a.data, b.data.shape))

    record("mul", (a, b), out, bwd)
    return out


def div(a, b) -> Tensor:
    """Elementwise a / b. Denominator magnitudes are clamped to EPS."""
    a, b = _as_tensor(a), _as_tensor(b)
    safe = np.where(b.data >= 0, np.maximum(b.data, EPS), np.minimum(b.data, -EPS))
    out = Tensor(a.data / safe, a.requires_grad or b.requires_grad)

    def bwd(g):
        accum(a, _unbroadcast(g / safe, a.data.shape))
        accum(b, _unbroadcast(-g * a.data / (safe * safe), b.data.shape))

    record("div", (a, b), out, bwd)
    return out


def scale(x: Tensor, c: float) -> Tensor:
    c = float(c)
    out = Tensor(x.data * c, x.requires_grad)

    def bwd(g):
        accum(x, g * c)

    record("scale", (x,), out, bwd)
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise DimensionError(f"matmul needs (n,k)@(k,m), got {a.data.shape} @ {b.data.shape}")
    out = Tensor(a.data @ b.data, a.requires_grad or b.requires_grad)

    def bwd(g):
        accum(a, g @ b.data.T)
        accum(b, a.data.T @ g)

    record("matmul", (a, b), out, bwd)
    return out


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b as one node; same rounding as ``add(matmul(x, w), b)``."""
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    if x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[0]:
        raise DimensionError(f"affine needs (n,k)@(k,m), got {x.data.shape} @ {w.data.shape}")
    out = Tensor(x.data @ w.data + b.data, x.requires_grad or w.requires_grad or b.requires_grad)

    def bwd(g):
        # bias, then input, then weight: the accumulation order of the chain
        accum(b, _unbroadcast(g, b.data.shape))
        accum(x, g @ w.data.T)
        accum(w, x.data.T @ g)

    record("affine", (x, w, b), out, bwd)
    return out


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0  # subgradient at 0 is taken as 0
    # maximum (not where) so NaN propagates instead of flushing to 0
    out = Tensor(np.maximum(x.data, 0.0), x.requires_grad)

    def bwd(g):
        accum(x, g * mask)

    record("relu", (x,), out, bwd)
    return out


def exp(x: Tensor) -> Tensor:
    e = np.exp(x.data)
    out = Tensor(e, x.requires_grad)

    def bwd(g):
        accum(x, g * e)

    record("exp", (x,), out, bwd)
    return out


def log(x: Tensor) -> Tensor:
    """Natural log with the argument clamped below by EPS."""
    safe = np.maximum(x.data, EPS)
    out = Tensor(np.log(safe), x.requires_grad)

    def bwd(g):
        accum(x, g / safe)

    record("log", (x,), out, bwd)
    return out


def sqrt(x: Tensor) -> Tensor:
    """Square root with negative arguments clamped to 0; backward guards the pole."""
    s = np.sqrt(np.maximum(x.data, 0.0))
    out = Tensor(s, x.requires_grad)

    def bwd(g):
        accum(x, g * 0.5 / np.maximum(s, EPS))

    record("sqrt", (x,), out, bwd)
    return out


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along `axis`; rows sum to 1 exactly up to rounding."""
    z = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=axis, keepdims=True)
    out = Tensor(p, x.requires_grad)

    def bwd(g):
        dot = (g * p).sum(axis=axis, keepdims=True)
        accum(x, (g - dot) * p)

    record("softmax", (x,), out, bwd)
    return out


# ---------------------------------------------------------------------------
# reductions and indexing


def _spread(g: np.ndarray, shape: tuple[int, ...], axis, keepdims: bool) -> np.ndarray:
    if axis is not None and not keepdims:
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g, shape)


def reduce_sum(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = Tensor(x.data.sum(axis=axis, keepdims=keepdims), x.requires_grad)

    def bwd(g):
        accum(x, _spread(g, x.data.shape, axis, keepdims))

    record("sum", (x,), out, bwd)
    return out


def reduce_mean(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    if axis is None:
        n = x.data.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        n = 1
        for ax in axes:
            n *= x.data.shape[ax]
    out = Tensor(x.data.mean(axis=axis, keepdims=keepdims), x.requires_grad)

    def bwd(g):
        accum(x, _spread(g, x.data.shape, axis, keepdims) / n)

    record("mean", (x,), out, bwd)
    return out


def take_rows(x: Tensor, idx: np.ndarray) -> Tensor:
    """Gather rows x[idx]. Backward scatter-adds, so repeated indices accumulate."""
    idx = np.asarray(idx, dtype=np.int64)
    if x.data.ndim != 2:
        raise DimensionError(f"take_rows needs a 2-d tensor, got shape {x.data.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= x.data.shape[0]):
        raise ContractError(f"row index out of range for {x.data.shape[0]} rows")
    out = Tensor(x.data[idx], x.requires_grad)

    def bwd(g):
        if x.requires_grad:
            gx = np.zeros_like(x.data)
            np.add.at(gx, idx, g)
            accum(x, gx)

    record("take_rows", (x,), out, bwd)
    return out


def pick(x: Tensor, cols: np.ndarray) -> Tensor:
    """Per-row gather: out[i] = x[i, cols[i]]."""
    cols = np.asarray(cols, dtype=np.int64)
    if x.data.ndim != 2 or cols.shape != (x.data.shape[0],):
        raise DimensionError(
            f"pick needs (n,c) tensor and (n,) columns, got {x.data.shape} and {cols.shape}"
        )
    if cols.size and (cols.min() < 0 or cols.max() >= x.data.shape[1]):
        raise ContractError(f"column index out of range for {x.data.shape[1]} columns")
    rows = np.arange(x.data.shape[0])
    out = Tensor(x.data[rows, cols], x.requires_grad)

    def bwd(g):
        if x.requires_grad:
            gx = np.zeros_like(x.data)
            np.add.at(gx, (rows, cols), g)
            accum(x, gx)

    record("pick", (x,), out, bwd)
    return out


# ---------------------------------------------------------------------------
# batch normalization


@dataclass
class RunningStats:
    """Exponential running mean/variance for eval-mode batch norm."""

    mean: np.ndarray
    var: np.ndarray
    momentum: float = 0.1

    @classmethod
    def for_dim(cls, dim: int, momentum: float = 0.1) -> "RunningStats":
        return cls(mean=np.zeros(dim), var=np.ones(dim), momentum=momentum)


def batch_norm(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running: RunningStats | None = None,
    eps: float = 1e-5,
    training: bool = True,
) -> Tensor:
    """Normalize columns of an (n, d) tensor.

    Training mode normalizes by the batch mean and population variance and
    folds them into `running`; eval mode normalizes by the running statistics.
    """
    if x.data.ndim != 2:
        raise DimensionError(f"batch_norm needs an (n, d) tensor, got shape {x.data.shape}")
    d = x.data.shape[1]
    if gamma.data.shape != (d,) or beta.data.shape != (d,):
        raise DimensionError(
            f"batch_norm scale/shift must have shape ({d},), got {gamma.data.shape} and {beta.data.shape}"
        )
    if training:
        m = reduce_mean(x, axis=0)
        centered = sub(x, m)
        v = reduce_mean(mul(centered, centered), axis=0)
        if running is not None:
            k = running.momentum
            running.mean = (1.0 - k) * running.mean + k * m.data
            running.var = (1.0 - k) * running.var + k * v.data
        denom = sqrt(add(v, eps))
        return add(mul(gamma, div(centered, denom)), beta)
    if running is None:
        raise ContractError("eval-mode batch_norm needs running statistics")
    inv = 1.0 / np.sqrt(running.var + eps)
    return add(mul(gamma, mul(sub(x, running.mean), inv)), beta)


# ---------------------------------------------------------------------------
# backward pass and gradient checking


def backward(root: Tensor, graph: Graph) -> None:
    """Seed d(root)/d(root) = 1 and replay the tape once in reverse order."""
    if root.data.size != 1:
        raise ContractError(f"backward needs a scalar root, got shape {root.data.shape}")
    root.grad = np.ones_like(root.data)
    for node in reversed(graph.nodes):
        g = node.output.grad
        if g is not None:
            node.backward(g)


def zero_grads(params: Iterable[Tensor]) -> None:
    for p in params:
        p.grad = None


def grad_check(fn: Callable[[Tensor], Tensor], x: Tensor, h: float = 1e-5) -> float:
    """Max over coordinates of |analytic - central difference| / max(1, |a|, |n|).

    `fn` must be a pure scalar-valued function of `x`; it is re-evaluated
    forward-only (no tape) for the finite differences.
    """
    if not x.requires_grad:
        raise ContractError("grad_check target must have requires_grad=True")
    x.grad = None
    with Graph() as g:
        y = fn(x)
        if y.data.size != 1:
            raise ContractError(f"grad_check needs a scalar-valued fn, got shape {y.data.shape}")
        backward(y, g)
    analytic = x.grad.copy() if x.grad is not None else np.zeros_like(x.data)
    x.grad = None

    flat = x.data.ravel()
    numeric = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = fn(x).item()
        flat[i] = orig - h
        fm = fn(x).item()
        flat[i] = orig
        numeric[i] = (fp - fm) / (2.0 * h)
    numeric = numeric.reshape(x.data.shape)

    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    if analytic.size == 0:
        return 0.0
    return float(np.max(np.abs(analytic - numeric) / denom))


# ---------------------------------------------------------------------------
# container files: one JSON header line, then per tensor u32 rank, u32
# extents and f64 values, all little-endian


def write_container(path: str | Path, header: dict, arrays: Mapping[str, np.ndarray]) -> None:
    """Write `header` plus a "tensors" list naming `arrays` in order, then the arrays.

    Every array is stored as float64 (integer labels and bool flags widen).
    """
    header = {**header, "tensors": list(arrays)}
    with open(path, "wb") as fh:
        fh.write((json.dumps(header, sort_keys=True) + "\n").encode("utf-8"))
        for array in arrays.values():
            a = np.asarray(array, dtype=np.float64)
            fh.write(struct.pack(f"<{a.ndim + 1}I", a.ndim, *a.shape))
            fh.write(np.ascontiguousarray(a, dtype="<f8"))


def read_container(path: str | Path, fmt: str) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a container whose header has format tag `fmt`: (header, arrays by name).

    A path that cannot be opened raises ContractError naming it, and so does
    malformed input: a header line that is not a UTF-8 JSON object, another
    format tag, no list of distinct tensor names, a tensor declaring more
    bytes than the file has left (checked before any read), a NaN or infinite
    value in any tensor, or bytes after the last tensor.
    """
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise ContractError(f"cannot open {path}: {exc.strerror}") from exc
    with fh:
        size = os.fstat(fh.fileno()).st_size
        try:
            header = json.loads(fh.readline().decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ContractError(f"{path} does not start with a JSON header line: {exc}") from exc
        if not isinstance(header, dict):
            raise ContractError(f"{path} header is not a JSON object")
        if header.get("format") != fmt:
            raise ContractError(f"{path} has format {header.get('format')!r}, expected {fmt!r}")
        names = header.get("tensors")
        if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
            raise ContractError(f"{path} header lacks a list of tensor names")
        if len(set(names)) != len(names):
            raise ContractError(f"{path} header names a tensor twice")
        arrays = {name: _read_array(fh, size, f"{path} tensor {name!r}") for name in names}
        if fh.tell() != size:
            raise ContractError(f"{path} has {size - fh.tell()} bytes after its last tensor")
    return header, arrays


def _read_array(fh: BinaryIO, size: int, what: str) -> np.ndarray:
    def room(n: int) -> int:
        if n > size - fh.tell():
            raise ContractError(f"{what} declares {n} more bytes, file has {size - fh.tell()} left")
        return n

    (rank,) = struct.unpack("<I", fh.read(room(4)))
    if rank > 32:
        raise ContractError(f"{what} has implausible rank {rank}")
    shape = struct.unpack(f"<{rank}I", fh.read(room(4 * rank)))
    values = np.empty(room(8 * math.prod(shape)) // 8, dtype="<f8")
    fh.readinto(values)
    if not np.isfinite(values).all():
        raise ContractError(f"{what} holds a NaN or infinite value")
    return values.astype(np.float64, copy=False).reshape(shape)
